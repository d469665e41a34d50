//! The design server: TCP accept loop, per-connection protocol
//! handlers, admission control, and the graceful drain sequence.
//!
//! ## Admission control
//!
//! A design request is admitted only if *all* of these hold, checked
//! in order; the first failure returns an explicit [`Response::Busy`]
//! (the server never queues unboundedly — backpressure is the reply):
//!
//! 1. the server is not draining (`busy: draining`);
//! 2. global in-flight sessions < `max_inflight` (`busy: saturated`);
//! 3. the tenant's concurrent sessions < `tenant_max_inflight`
//!    (`busy: tenant saturated`);
//! 4. the tenant's cumulative modeled testbed-seconds stay under
//!    `tenant_testbed_budget` (`busy: tenant budget exhausted`).
//!
//! ## Drain
//!
//! On a [`Request::Drain`] frame (or stdin EOF in the daemon — the
//! std-only stand-in for SIGTERM), the server stops admitting, waits
//! for in-flight sessions to finish, shuts the batch engine down,
//! snapshots the shared cache into [`ServerConfig::cache_dir`] (the
//! `table3` warm-start namespace), expires terminal journals when
//! configured, and only then answers with the final counters and stops
//! accepting.
//!
//! ## Configuration
//!
//! Apart from the thread pool's one-time `ARTISAN_THREADS` read, a
//! server reads nothing from the process environment: everything comes
//! in through [`ServerConfig`], whose default is hermetic (no cache
//! snapshot, no journals). Binaries build it with
//! [`ServerConfig::from_env`].

use crate::engine::BatchEngine;
use crate::proto::{
    read_frame, write_frame, Request, Response, WireOutcome, WireReport, WireStats, WorkItem,
};
use artisan_agents::AgentConfig;
use artisan_resilience::journal::{
    agent_config_salt, expire_terminal, journal_dir_from_env, plan_fingerprint, session_file_name,
    SessionJournal,
};
use artisan_resilience::{SessionReport, Supervisor};
use artisan_sim::cache::persist::{snapshot_dir_from_env, SNAPSHOT_FILE};
use artisan_sim::fingerprint::config_salt;
use artisan_sim::wire::fnv1a64;
use artisan_sim::{AnalysisConfig, SimCache, Simulator};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bind address (`host:port`; port 0 picks an ephemeral port).
pub const ADDR_ENV: &str = "ARTISAN_SERVE_ADDR";
/// Global concurrent-session admission bound.
pub const MAX_INFLIGHT_ENV: &str = "ARTISAN_SERVE_MAX_INFLIGHT";
/// Batching coalescing window, in milliseconds.
pub const BATCH_WINDOW_ENV: &str = "ARTISAN_SERVE_BATCH_WINDOW_MS";

/// Everything that shapes a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address.
    pub addr: String,
    /// Global concurrent design-session cap; excess gets `busy`.
    pub max_inflight: usize,
    /// Batch coalescing window.
    pub batch_window: Duration,
    /// Maximum jobs one batch drains.
    pub max_batch: usize,
    /// Shared cache capacity (reports).
    pub cache_capacity: usize,
    /// Cross-request batching on (`false` = the pre-serve baseline:
    /// a private simulator per request, no sharing).
    pub batching: bool,
    /// Per-tenant concurrent session cap.
    pub tenant_max_inflight: usize,
    /// Per-tenant cumulative testbed-seconds budget.
    pub tenant_testbed_budget: f64,
    /// Expire terminal journals older than this during drain.
    pub journal_expire: Option<Duration>,
    /// Directory of the persistent cache snapshot: loaded at start,
    /// written back on drain. `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Directory of the per-session write-ahead journals. `None` runs
    /// sessions unjournaled.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 32,
            batch_window: Duration::from_millis(2),
            max_batch: 256,
            cache_capacity: 4096,
            batching: true,
            tenant_max_inflight: 8,
            tenant_testbed_budget: f64::INFINITY,
            journal_expire: None,
            cache_dir: None,
            journal_dir: None,
        }
    }
}

impl ServerConfig {
    /// The defaults overridden by `ARTISAN_SERVE_ADDR`,
    /// `ARTISAN_SERVE_MAX_INFLIGHT`, `ARTISAN_SERVE_BATCH_WINDOW_MS`,
    /// `ARTISAN_SIM_CACHE_DIR` and `ARTISAN_JOURNAL_DIR`. For binaries
    /// to call once at entry.
    ///
    /// # Errors
    ///
    /// A message naming the variable when `ARTISAN_SERVE_MAX_INFLIGHT`
    /// or `ARTISAN_SERVE_BATCH_WINDOW_MS` is not a non-negative
    /// integer.
    pub fn from_env() -> Result<Self, String> {
        Ok(ServerConfig {
            cache_dir: snapshot_dir_from_env(),
            journal_dir: journal_dir_from_env(),
            ..Self::from_lookup(|key| std::env::var(key).ok())?
        })
    }

    /// The defaults overridden by the `ARTISAN_SERVE_*` settings that
    /// `lookup` returns for each variable name; errors as
    /// [`ServerConfig::from_env`].
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let defaults = ServerConfig::default();
        let window_ms = defaults.batch_window.as_millis() as u64;
        Ok(ServerConfig {
            addr: lookup(ADDR_ENV).unwrap_or(defaults.addr),
            max_inflight: parse_count(MAX_INFLIGHT_ENV, &lookup, defaults.max_inflight)?,
            batch_window: Duration::from_millis(parse_count(BATCH_WINDOW_ENV, &lookup, window_ms)?),
            ..defaults
        })
    }
}

/// The non-negative integer `lookup` returns for `key`, or `default`
/// when it returns nothing.
fn parse_count<T: std::str::FromStr>(
    key: &str,
    lookup: &impl Fn(&str) -> Option<String>,
    default: T,
) -> Result<T, String> {
    match lookup(key) {
        None => Ok(default),
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| format!("{key}={raw:?} is not a non-negative integer")),
    }
}

#[derive(Default)]
struct TenantUsage {
    inflight: usize,
    testbed_seconds: f64,
    sessions: u64,
}

struct ServerShared {
    config: ServerConfig,
    cache: Arc<SimCache>,
    engine: Option<BatchEngine>,
    supervisor: Supervisor,
    inflight: AtomicUsize,
    draining: AtomicBool,
    stop: AtomicBool,
    sessions: AtomicU64,
    busy_rejects: AtomicU64,
}

impl ServerShared {
    fn stats(&self) -> WireStats {
        let cache = self.cache.stats();
        let mut stats = WireStats {
            sessions: self.sessions.load(Ordering::SeqCst),
            busy_rejects: self.busy_rejects.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            ..WireStats::default()
        };
        if let Some(engine) = &self.engine {
            let e = engine.stats();
            stats.batches = e.batches;
            stats.jobs = e.jobs;
            stats.unique_computed = e.unique_computed;
            stats.dedup_shared = e.dedup_shared;
            stats.cache_served = e.cache_served;
            stats.occupancy = e
                .occupancy
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| ((i + 1) as u64, *n))
                .collect();
        }
        stats
    }
}

/// Decrements a counter when dropped — keeps the in-flight gauge
/// honest on every exit path of a session.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A `Read` adapter that turns the socket's read timeout into a
/// stop-flag poll: handlers block in `read_frame` but still notice a
/// server shutdown within one timeout tick (the peer sees EOF).
struct PolledReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for PolledReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// A running design server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop and joins every
/// handler.
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Warm-start from the persistent snapshot when a cache dir is
        // configured — the same namespace the drain-time save writes,
        // so a restarted server serves its previous lifetime's work
        // from cache.
        let cache = match &config.cache_dir {
            Some(dir) => {
                let salt = config_salt(&AnalysisConfig::default());
                let (cache, loaded) =
                    SimCache::load_from(&dir.join(SNAPSHOT_FILE), config.cache_capacity, salt);
                if let Some(warning) = &loaded.warning {
                    eprintln!("serve: {warning}");
                }
                Arc::new(cache)
            }
            None => SimCache::shared(config.cache_capacity),
        };
        let engine = config
            .batching
            .then(|| BatchEngine::start(Arc::clone(&cache), config.batch_window, config.max_batch));
        let shared = Arc::new(ServerShared {
            config,
            cache,
            engine,
            supervisor: Supervisor::default(),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            sessions: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
        });
        let tenants = Arc::new(Mutex::new(HashMap::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_tenants = Arc::clone(&tenants);
        let accept =
            std::thread::spawn(move || accept_loop(&accept_shared, &accept_tenants, &listener));
        drop(tenants);
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain request has completed and the server stopped
    /// accepting.
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread. In-flight handler
    /// threads see the stop flag via their read timeout and exit; the
    /// batch engine drains on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    shared: &Arc<ServerShared>,
    tenants: &Arc<Mutex<HashMap<String, TenantUsage>>>,
    listener: &TcpListener,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let tenants = Arc::clone(tenants);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(&shared, &tenants, &stream);
                }));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn handle_connection(
    shared: &Arc<ServerShared>,
    tenants: &Arc<Mutex<HashMap<String, TenantUsage>>>,
    stream: &TcpStream,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    // The no-batch baseline computes on a private, per-connection
    // simulator — exactly the pre-serve state of the world.
    let mut solo = Simulator::new();
    loop {
        let payload = {
            let mut reader = PolledReader {
                stream,
                stop: &shared.stop,
            };
            match read_frame(&mut reader) {
                Ok(payload) => payload,
                Err(_) => return, // EOF, stop, or protocol violation: drop the connection.
            }
        };
        let response = match Request::decode(&payload) {
            Err(message) => Response::Error { message },
            Ok(request) => handle_request(shared, tenants, &mut solo, request),
        };
        let mut out = &mut &*stream;
        if write_frame(&mut out, &response.encode()).is_err() {
            return;
        }
        if matches!(response, Response::Draining(_)) {
            shared.stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

fn handle_request(
    shared: &Arc<ServerShared>,
    tenants: &Arc<Mutex<HashMap<String, TenantUsage>>>,
    solo: &mut Simulator,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::Analyze { item } => Response::Analysis {
            results: vec![analyze_one(shared, solo, item)],
        },
        Request::AnalyzeBatch { items } => Response::Analysis {
            // One atomic submission per request: the engine's batcher
            // coalesces whole sweeps from concurrent tenants instead of
            // draining lease-width micro-batches of blocking one-shots.
            results: match &shared.engine {
                Some(engine) => engine.lease().analyze_items(items),
                None => items
                    .into_iter()
                    .map(|item| analyze_one(shared, solo, item))
                    .collect(),
            },
        },
        Request::Design { tenant, seed, spec } => run_design(shared, tenants, &tenant, seed, &spec),
        Request::Drain => run_drain(shared),
    }
}

fn analyze_one(
    shared: &Arc<ServerShared>,
    solo: &mut Simulator,
    item: WorkItem,
) -> artisan_sim::Result<artisan_sim::AnalysisReport> {
    match &shared.engine {
        Some(engine) => {
            let mut lease = engine.lease();
            match item {
                WorkItem::Topo(t) => artisan_sim::SimBackend::analyze_topology(&mut lease, &t),
                WorkItem::Net(n) => artisan_sim::SimBackend::analyze_netlist(&mut lease, &n),
            }
        }
        None => match item {
            WorkItem::Topo(t) => solo.analyze_topology(&t),
            WorkItem::Net(n) => solo.analyze_netlist(&n),
        },
    }
}

fn run_design(
    shared: &Arc<ServerShared>,
    tenants: &Arc<Mutex<HashMap<String, TenantUsage>>>,
    tenant: &str,
    seed: u64,
    spec: &artisan_sim::Spec,
) -> Response {
    let busy = |reason: &str| {
        shared.busy_rejects.fetch_add(1, Ordering::SeqCst);
        Response::Busy {
            reason: reason.to_string(),
        }
    };
    if shared.draining.load(Ordering::SeqCst) {
        return busy("draining");
    }
    // Optimistic global admission: claim a slot, give it back if the
    // cap was already reached (no lock on the hot path).
    let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return busy("saturated");
    }
    let guard = InflightGuard(&shared.inflight);
    // Per-tenant admission under the registry lock.
    {
        let mut registry = tenants.lock().unwrap_or_else(|e| e.into_inner());
        let usage = registry.entry(tenant.to_string()).or_default();
        if usage.inflight >= shared.config.tenant_max_inflight {
            drop(registry);
            drop(guard);
            return busy("tenant saturated");
        }
        if usage.testbed_seconds >= shared.config.tenant_testbed_budget {
            drop(registry);
            drop(guard);
            return busy("tenant budget exhausted");
        }
        usage.inflight += 1;
    }
    let report = run_session(shared, tenant, seed, spec);
    {
        let mut registry = tenants.lock().unwrap_or_else(|e| e.into_inner());
        let usage = registry.entry(tenant.to_string()).or_default();
        usage.inflight = usage.inflight.saturating_sub(1);
        usage.testbed_seconds += report.testbed_seconds;
        usage.sessions += 1;
    }
    shared.sessions.fetch_add(1, Ordering::SeqCst);
    drop(guard);
    Response::Report(Box::new(wire_report_of(&report)))
}

fn run_session(
    shared: &Arc<ServerShared>,
    tenant: &str,
    seed: u64,
    spec: &artisan_sim::Spec,
) -> SessionReport {
    // Journal identity: the plan fingerprint folds the tenant name, so
    // identical (spec, seed) sessions from different tenants never
    // share a WAL file.
    let mut journal = match &shared.config.journal_dir {
        Some(dir) => {
            let salt = agent_config_salt(&AgentConfig::noiseless()) ^ fnv1a64(tenant.as_bytes());
            let fp = plan_fingerprint(spec, &shared.supervisor, salt);
            let path = dir.join(session_file_name(fp, seed));
            SessionJournal::open(&path, fp, seed).0
        }
        None => SessionJournal::detached(),
    };
    match &shared.engine {
        Some(engine) => {
            let mut backend = engine.lease();
            shared
                .supervisor
                .run_journaled_default_agent(spec, &mut backend, seed, &mut journal)
        }
        None => {
            let mut backend = Simulator::new();
            shared
                .supervisor
                .run_journaled_default_agent(spec, &mut backend, seed, &mut journal)
        }
    }
}

fn run_drain(shared: &Arc<ServerShared>) -> Response {
    shared.draining.store(true, Ordering::SeqCst);
    // Finish in-flight sessions.
    while shared.inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let queued engine work finish (leases are gone, so the queue can
    // only shrink); final counters are read after the flush.
    let stats = shared.stats();
    // Snapshot the shared cache into the persistent warm-start
    // namespace, when a cache dir is configured.
    if let Some(dir) = &shared.config.cache_dir {
        let salt = config_salt(&AnalysisConfig::default());
        if let Err(e) = shared.cache.save_to(&dir.join(SNAPSHOT_FILE), salt) {
            eprintln!("drain: cache snapshot failed: {e}");
        }
    }
    // Journal janitor: terminal sessions older than the configured age
    // are garbage once their results shipped.
    if let (Some(dir), Some(age)) = (&shared.config.journal_dir, shared.config.journal_expire) {
        match expire_terminal(dir, age) {
            Ok(outcome) => eprintln!(
                "drain: journal janitor expired {} of {} terminal journals",
                outcome.expired, outcome.terminal
            ),
            Err(e) => eprintln!("drain: journal janitor failed: {e}"),
        }
    }
    Response::Draining(stats)
}

fn wire_report_of(report: &SessionReport) -> WireReport {
    WireReport {
        success: report.success,
        degraded: report.degraded,
        attempts: report.attempts as u64,
        faults_observed: report.faults_observed as u64,
        events_len: report.events.len() as u64,
        simulations: report.simulations as u64,
        llm_steps: report.llm_steps as u64,
        cache_hits: report.cache_hits as u64,
        coalesced_waits: report.coalesced_waits as u64,
        batched_solves: report.batched_solves as u64,
        testbed_seconds: report.testbed_seconds,
        outcome: report.outcome.as_ref().map(|o| WireOutcome {
            success: o.success,
            iterations: o.iterations as u64,
            report: o.report.clone(),
            netlist_text: o.netlist_text.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn settings_override_the_defaults() {
        let config = ServerConfig::from_lookup(lookup(&[
            (ADDR_ENV, "127.0.0.1:7070"),
            (MAX_INFLIGHT_ENV, " 4 "),
            (BATCH_WINDOW_ENV, "0"),
        ]))
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(config.addr, "127.0.0.1:7070");
        assert_eq!(config.max_inflight, 4);
        assert_eq!(config.batch_window, Duration::ZERO);
        let unset = ServerConfig::from_lookup(lookup(&[])).unwrap_or_else(|e| panic!("{e}"));
        let defaults = ServerConfig::default();
        assert_eq!(unset.addr, defaults.addr);
        assert_eq!(unset.max_inflight, defaults.max_inflight);
        assert_eq!(unset.batch_window, defaults.batch_window);
        assert!(unset.cache_dir.is_none() && unset.journal_dir.is_none());
    }

    #[test]
    fn malformed_counts_are_errors_naming_the_variable() {
        for key in [MAX_INFLIGHT_ENV, BATCH_WINDOW_ENV] {
            for bad in ["", "many", "-1", "2.5"] {
                let err = ServerConfig::from_lookup(lookup(&[(key, bad)]))
                    .err()
                    .unwrap_or_else(|| panic!("{key}={bad:?} was accepted"));
                assert!(err.contains(key), "{err}");
            }
        }
    }
}
