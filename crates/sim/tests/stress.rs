//! Deterministic concurrency-stress leg for the single-flight cache
//! protocol and the from-scratch thread pool.
//!
//! The unit tests in `cache.rs` prove the coalescing protocol once,
//! with barriers holding the leader in place. This suite instead runs
//! the *unchoreographed* race many times over: every iteration spins up
//! a fresh [`SimCache`] and lets N sessions dive at the same two
//! topologies simultaneously, then asserts the exact invariant ledger —
//! two inner misses, everyone else served from memory, gauges back to
//! zero. Any lost wake-up, double-lead, or leaked flight cell shows up
//! as a count mismatch or a hang.
//!
//! Iteration count follows `ARTISAN_STRESS_ITERS` (default 25 so the
//! suite stays quick locally); the CI stress job raises it into the
//! hundreds and sweeps `ARTISAN_THREADS` across {1, 2, 4, 8}.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::Topology;
use artisan_math::ThreadPool;
use artisan_sim::cost::CostLedger;
use artisan_sim::{AnalysisReport, CachedSim, SimBackend, SimCache, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Environment variable scaling the race-iteration count.
const STRESS_ITERS_ENV: &str = "ARTISAN_STRESS_ITERS";

fn stress_iters() -> u64 {
    std::env::var(STRESS_ITERS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(25)
}

/// Sessions racing per iteration. Intentionally larger than the CI
/// thread matrix's top value so the OS must interleave them.
const SESSIONS: usize = 8;

/// A backend that counts how many analyses reached the real simulator.
struct CountingSim {
    inner: Simulator,
    calls: Arc<AtomicU64>,
}

impl SimBackend for CountingSim {
    fn analyze_topology(
        &mut self,
        topo: &Topology,
    ) -> Result<AnalysisReport, artisan_sim::SimError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.analyze_topology(topo)
    }

    fn analyze_netlist(
        &mut self,
        netlist: &artisan_circuit::Netlist,
    ) -> Result<AnalysisReport, artisan_sim::SimError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.analyze_netlist(netlist)
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        self.inner.ledger_mut()
    }
}

/// Two distinct legal topologies for the sessions to fight over. The
/// sampled one is re-drawn (deterministically, from the seed) until it
/// genuinely analyzes: the ledger invariants below require every
/// analysis to succeed, since errors are never cached.
fn contended_pair(seed: u64) -> [Topology; 2] {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = SampleRanges::default();
    for _ in 0..64 {
        let candidate = sample_topology(&mut rng, &ranges, 10e-12);
        if Simulator::new().analyze_topology(&candidate).is_ok() {
            return [Topology::nmc_example(), candidate];
        }
    }
    panic!("no analyzable sampled topology within 64 draws of seed {seed}");
}

#[test]
fn repeated_races_conserve_the_miss_and_hit_ledger() {
    let iters = stress_iters();
    for iter in 0..iters {
        let cache = SimCache::shared(64);
        let calls = Arc::new(AtomicU64::new(0));
        let topos = contended_pair(iter);
        let start = Arc::new(Barrier::new(SESSIONS));

        let serial: Vec<AnalysisReport> = topos
            .iter()
            .map(|t| {
                Simulator::new()
                    .analyze_topology(t)
                    .unwrap_or_else(|e| panic!("iter {iter}: serial analysis failed: {e}"))
            })
            .collect();

        let ledgers: Vec<CostLedger> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|s| {
                    let cache = Arc::clone(&cache);
                    let calls = Arc::clone(&calls);
                    let start = Arc::clone(&start);
                    let topos = topos.clone();
                    let serial = serial.clone();
                    scope.spawn(move || {
                        let mut sim = CachedSim::new(
                            CountingSim {
                                inner: Simulator::new(),
                                calls,
                            },
                            cache,
                        );
                        start.wait();
                        // Half the sessions walk the pair in reverse so
                        // both keys see contention from the first tick.
                        let order: [usize; 2] = if s % 2 == 0 { [0, 1] } else { [1, 0] };
                        for &k in &order {
                            let report = sim
                                .analyze_topology(&topos[k])
                                .unwrap_or_else(|e| panic!("iter {iter}: session failed: {e}"));
                            assert_eq!(report, serial[k], "iter {iter}: divergent report");
                        }
                        *sim.ledger()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("iter {iter}: session panicked"))
                })
                .collect()
        });

        // Conservation: each of the two keys was computed exactly once
        // somewhere; every other analysis was served from memory (a hit
        // if the flight had landed, a coalesced wait if it was still
        // up). 2·SESSIONS analyses total.
        let inner_calls = calls.load(Ordering::SeqCst);
        assert_eq!(inner_calls, 2, "iter {iter}: duplicated or lost leads");
        let sims: u64 = ledgers.iter().map(CostLedger::simulations).sum();
        let hits: u64 = ledgers.iter().map(CostLedger::cache_hits).sum();
        assert_eq!(sims, 2, "iter {iter}: billed simulations drifted");
        assert_eq!(
            hits,
            (2 * SESSIONS - 2) as u64,
            "iter {iter}: memoized serves drifted"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "iter {iter}: {stats}");
        assert_eq!(
            stats.hits + stats.coalesced,
            (2 * SESSIONS - 2) as u64,
            "iter {iter}: {stats}"
        );
        // Gauges return to idle: nothing waiting, no leaked flights.
        assert_eq!(cache.waiting(), 0, "iter {iter}: waiter gauge leaked");
        assert_eq!(cache.in_flight_keys(), 0, "iter {iter}: flight cell leaked");
        assert_eq!(cache.len(), 2, "iter {iter}: cache holds both reports");
    }
}

#[test]
fn pool_results_are_identical_across_worker_counts_under_stress() {
    // The pool distributes work dynamically, so scheduling differs on
    // every run — results must not. Compare a real workload (an
    // analysis per item) across the CI thread matrix, many times over.
    let iters = stress_iters().min(8);
    let topos: Vec<Topology> = (0..12).map(|k| contended_pair(k)[1].clone()).collect();
    let serial: Vec<String> = ThreadPool::with_workers(1).par_map_indexed(&topos, |i, t| {
        let report = Simulator::new()
            .analyze_topology(t)
            .unwrap_or_else(|e| panic!("item {i}: {e}"));
        format!("{report:?}")
    });
    for iter in 0..iters {
        for workers in [2usize, 4, 8] {
            let got = ThreadPool::with_workers(workers).par_map_indexed(&topos, |i, t| {
                let report = Simulator::new()
                    .analyze_topology(t)
                    .unwrap_or_else(|e| panic!("item {i}: {e}"));
                format!("{report:?}")
            });
            assert_eq!(got, serial, "iter {iter}, workers {workers}: drifted");
        }
    }
}
