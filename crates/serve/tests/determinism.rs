//! Determinism under concurrency: batched multi-tenant execution must
//! be observationally identical to solo runs.
//!
//! Two layers:
//!
//! - **Engine level** — K sessions run concurrently on [`EngineBackend`]
//!   leases from one shared [`BatchEngine`] (so their analyses coalesce
//!   into shared batches, dedup against each other, and race on the
//!   shared cache); every resulting [`SessionReport`] must be
//!   field-identical — events, billing counters, and `testbed_seconds`
//!   to the bit — to the same `(spec, seed)` run solo through
//!   [`Supervisor`] on a plain [`Simulator`].
//! - **TCP end-to-end** — the same plans submitted as concurrent
//!   `Design` requests from multiple tenants against an in-process
//!   batched [`Server`]; each decoded [`WireReport`] must match the
//!   solo run field for field, and identical `(spec, seed)` plans from
//!   different tenants must produce byte-identical response payloads.
//!   A session on a [`RemoteSim`] must match its solo run as well.
//!
//! One shared single-flight: a [`BatchEngine`] and a [`CachedSim`] over
//! one [`SimCache`] and one salt coalesce onto each other's flights, and
//! a leader that panics never strands the engine's waiter.

use artisan_circuit::{Netlist, Topology};
use artisan_resilience::{SessionReport, Supervisor};
use artisan_serve::engine::{BatchEngine, EngineStats};
use artisan_serve::proto::{Request, Response, WireReport};
use artisan_serve::server::{Server, ServerConfig};
use artisan_serve::{Client, RemoteSim};
use artisan_sim::cost::CostLedger;
use artisan_sim::fingerprint::config_salt;
use artisan_sim::{
    AnalysisConfig, AnalysisReport, CachedSim, Result, SimBackend, SimCache, Simulator, Spec,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// The mixed-tenant workload: overlapping seeds across specs so
/// sessions dedup against each other, plus an exact duplicate plan
/// (two tenants asking for the same design at the same time).
fn plans() -> Vec<(Spec, u64)> {
    vec![
        (Spec::g1(), 1),
        (Spec::g1(), 1),
        (Spec::g2(), 1),
        (Spec::g2(), 7),
        (Spec::g3(), 7),
        (Spec::g1(), 42),
    ]
}

fn solo_report(spec: &Spec, seed: u64) -> SessionReport {
    let mut sim = Simulator::new();
    Supervisor::default().run(spec, &mut sim, seed)
}

fn assert_reports_identical(context: &str, batched: &SessionReport, solo: &SessionReport) {
    assert_eq!(batched.success, solo.success, "{context}: success");
    assert_eq!(batched.degraded, solo.degraded, "{context}: degraded");
    assert_eq!(batched.attempts, solo.attempts, "{context}: attempts");
    assert_eq!(
        batched.faults_observed, solo.faults_observed,
        "{context}: faults_observed"
    );
    assert_eq!(batched.events, solo.events, "{context}: events");
    assert_eq!(
        batched.simulations, solo.simulations,
        "{context}: simulations"
    );
    assert_eq!(batched.llm_steps, solo.llm_steps, "{context}: llm_steps");
    assert_eq!(batched.cache_hits, solo.cache_hits, "{context}: cache_hits");
    assert_eq!(
        batched.coalesced_waits, solo.coalesced_waits,
        "{context}: coalesced_waits"
    );
    assert_eq!(
        batched.batched_solves, solo.batched_solves,
        "{context}: batched_solves"
    );
    assert_eq!(
        batched.testbed_seconds.to_bits(),
        solo.testbed_seconds.to_bits(),
        "{context}: testbed_seconds bits ({} vs {})",
        batched.testbed_seconds,
        solo.testbed_seconds
    );
    match (&batched.outcome, &solo.outcome) {
        (None, None) => {}
        (Some(b), Some(s)) => {
            assert_eq!(b.success, s.success, "{context}: outcome.success");
            assert_eq!(b.iterations, s.iterations, "{context}: outcome.iterations");
            assert_eq!(b.report, s.report, "{context}: outcome.report");
            assert_eq!(
                b.netlist_text, s.netlist_text,
                "{context}: outcome.netlist_text"
            );
            assert_eq!(b.topology, s.topology, "{context}: outcome.topology");
        }
        (b, s) => panic!(
            "{context}: outcome presence differs (batched {:?}, solo {:?})",
            b.is_some(),
            s.is_some()
        ),
    }
}

#[test]
fn concurrent_engine_sessions_match_solo_runs() {
    let cache = SimCache::shared(1024);
    let engine = BatchEngine::start(cache);

    let handles: Vec<_> = plans()
        .into_iter()
        .map(|(spec, seed)| {
            let mut backend = engine.lease();
            thread::spawn(move || {
                let report = Supervisor::default().run(&spec, &mut backend, seed);
                (spec, seed, report)
            })
        })
        .collect();

    for handle in handles {
        let (spec, seed, batched) = handle.join().unwrap_or_else(|_| panic!("session panicked"));
        let solo = solo_report(&spec, seed);
        assert_reports_identical(&format!("seed {seed}"), &batched, &solo);
    }

    let stats = engine.stats();
    assert!(stats.batches > 0, "batcher never ran");
    assert_eq!(
        stats.jobs,
        stats.unique_computed + stats.dedup_shared + stats.cache_served,
        "every job must be computed, deduped, or cache-served"
    );
}

fn wire_report_matches_solo(context: &str, wire: &WireReport, solo: &SessionReport) {
    assert_eq!(wire.success, solo.success, "{context}: success");
    assert_eq!(wire.degraded, solo.degraded, "{context}: degraded");
    assert_eq!(wire.attempts, solo.attempts as u64, "{context}: attempts");
    assert_eq!(
        wire.faults_observed, solo.faults_observed as u64,
        "{context}: faults_observed"
    );
    assert_eq!(
        wire.events_len,
        solo.events.len() as u64,
        "{context}: events_len"
    );
    assert_eq!(
        wire.simulations, solo.simulations as u64,
        "{context}: simulations"
    );
    assert_eq!(
        wire.llm_steps, solo.llm_steps as u64,
        "{context}: llm_steps"
    );
    assert_eq!(
        wire.cache_hits, solo.cache_hits as u64,
        "{context}: cache_hits"
    );
    assert_eq!(
        wire.coalesced_waits, solo.coalesced_waits as u64,
        "{context}: coalesced_waits"
    );
    assert_eq!(
        wire.batched_solves, solo.batched_solves as u64,
        "{context}: batched_solves"
    );
    assert_eq!(
        wire.testbed_seconds.to_bits(),
        solo.testbed_seconds.to_bits(),
        "{context}: testbed_seconds bits"
    );
    match (&wire.outcome, &solo.outcome) {
        (None, None) => {}
        (Some(w), Some(s)) => {
            assert_eq!(w.success, s.success, "{context}: outcome.success");
            assert_eq!(
                w.iterations, s.iterations as u64,
                "{context}: outcome.iterations"
            );
            assert_eq!(
                w.netlist_text, s.netlist_text,
                "{context}: outcome.netlist_text"
            );
            // The wire codec drops `worst_case` by contract; compare the
            // rest of the analysis report exactly.
            let solo_wire_view = s.report.clone().map(|mut r| {
                r.worst_case = None;
                r
            });
            assert_eq!(w.report, solo_wire_view, "{context}: outcome.report");
        }
        (w, s) => panic!(
            "{context}: outcome presence differs (wire {:?}, solo {:?})",
            w.is_some(),
            s.is_some()
        ),
    }
}

#[test]
fn batched_server_matches_solo_runs_over_tcp() {
    // The default config is hermetic: no journaling, no cache snapshot.
    let mut server = Server::start(ServerConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr();

    let handles: Vec<_> = plans()
        .into_iter()
        .enumerate()
        .map(|(tenant, (spec, seed))| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("{e}"));
                let request = Request::Design {
                    tenant: format!("tenant-{tenant}"),
                    seed,
                    spec: spec.clone(),
                };
                let payload = client.call_raw(&request).unwrap_or_else(|e| panic!("{e}"));
                (tenant, spec, seed, payload)
            })
        })
        .collect();

    // Key identical plans by their spec bits + seed: duplicates must
    // yield byte-identical response payloads regardless of tenant.
    let mut by_plan: BTreeMap<(u64, u64, u64), Vec<u8>> = BTreeMap::new();
    for handle in handles {
        let (tenant, spec, seed, payload) =
            handle.join().unwrap_or_else(|_| panic!("client panicked"));
        let response = Response::decode(&payload).unwrap_or_else(|e| panic!("{e}"));
        let wire = match response {
            Response::Report(wire) => wire,
            other => panic!("tenant {tenant}: expected a report, got {other:?}"),
        };
        let solo = solo_report(&spec, seed);
        wire_report_matches_solo(&format!("tenant {tenant} seed {seed}"), &wire, &solo);

        let key = (spec.gain_min_db.to_bits(), spec.gbw_min_hz.to_bits(), seed);
        if let Some(previous) = by_plan.get(&key) {
            assert_eq!(
                previous, &payload,
                "identical plans must produce byte-identical payloads"
            );
        } else {
            by_plan.insert(key, payload);
        }
    }

    server.shutdown();
}

#[test]
fn remote_sim_sessions_match_solo_runs() {
    let mut server = Server::start(ServerConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    for (spec, seed) in plans() {
        // The supervisor reads the backend's ledger, so every session
        // gets a fresh one.
        let mut remote = RemoteSim::connect(server.addr()).unwrap_or_else(|e| panic!("{e}"));
        let report = Supervisor::default().run(&spec, &mut remote, seed);
        assert_reports_identical(
            &format!("remote seed {seed}"),
            &report,
            &solo_report(&spec, seed),
        );
    }
    server.shutdown();
}

#[test]
fn remote_sim_fails_transiently_once_the_server_is_gone() {
    let mut server = Server::start(ServerConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    let mut remote = RemoteSim::connect(server.addr()).unwrap_or_else(|e| panic!("{e}"));
    let topo = Topology::nmc_example();
    assert!(remote.analyze_topology(&topo).is_ok(), "live server");
    assert!(remote.drain_fault_notes().is_empty());

    server.shutdown();
    let err = remote
        .analyze_topology(&topo)
        .err()
        .unwrap_or_else(|| panic!("analysis succeeded with the server gone"));
    assert!(err.is_transient(), "{err:?} must be transient");
    assert!(
        !remote.drain_fault_notes().is_empty(),
        "a transport failure must leave a fault note"
    );
}

/// A `CachedSim` leader's inner backend: parks until a caller waits on
/// the shared cache's flight, then analyzes on a plain simulator, or
/// panics when `panics` is set.
struct ParkedSim {
    inner: Simulator,
    cache: Arc<SimCache>,
    panics: bool,
}

impl SimBackend for ParkedSim {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        while self.cache.waiting() == 0 {
            thread::yield_now();
        }
        assert!(!self.panics, "injected leader panic");
        self.inner.analyze_topology(topo)
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        self.inner.analyze_netlist(netlist)
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        self.inner.ledger_mut()
    }
}

/// A `CachedSim` over one cache with the engine — salted as
/// `CachedSim::for_simulator` salts a default simulator — leads the NMC
/// example; once it leads, an engine request for it joins that flight.
/// Both answers must equal the solo report (a leader that panicked has
/// none) and every flight must land. Returns the engine's counters.
fn share_one_flight(panics: bool) -> EngineStats {
    let cache = SimCache::shared(64);
    let engine = BatchEngine::start(Arc::clone(&cache));
    let topo = Topology::nmc_example();
    let solo = Simulator::new()
        .analyze_topology(&topo)
        .unwrap_or_else(|e| panic!("{e}"));
    let salt = config_salt(&AnalysisConfig::default());
    thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let parked = ParkedSim {
                inner: Simulator::new(),
                cache: Arc::clone(&cache),
                panics,
            };
            let mut sim = CachedSim::new(parked, Arc::clone(&cache)).with_salt(salt);
            let report = catch_unwind(AssertUnwindSafe(|| sim.analyze_topology(&topo)));
            (report.ok(), sim.ledger().simulations())
        });
        while cache.in_flight_keys() == 0 {
            thread::yield_now();
        }
        let joined = engine.lease().analyze_topology(&topo);
        assert_eq!(joined.unwrap_or_else(|e| panic!("{e}")), solo, "engine");
        let (report, simulations) = leader
            .join()
            .unwrap_or_else(|_| panic!("leader thread panicked"));
        match report {
            Some(report) => {
                assert_eq!(report.unwrap_or_else(|e| panic!("{e}")), solo, "leader");
                assert_eq!(simulations, 1, "one inner simulation");
            }
            None => assert!(panics, "only the injected panic may stop the leader"),
        }
    });
    assert_eq!((cache.in_flight_keys(), cache.waiting()), (0, 0));
    engine.stats()
}

#[test]
fn engine_requests_join_a_cached_sim_leaders_flight() {
    let stats = share_one_flight(false);
    assert_eq!((stats.dedup_shared, stats.unique_computed), (1, 0));
}

#[test]
fn a_panicking_leader_never_strands_an_engine_waiter() {
    // The engine's waiter computed the abandoned item itself.
    let stats = share_one_flight(true);
    assert_eq!((stats.dedup_shared, stats.unique_computed), (1, 0));
}
