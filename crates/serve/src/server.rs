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
//! std-only stand-in for SIGTERM), the server stops admitting and waits
//! for in-flight sessions to finish. Each session waited for its own
//! jobs, so every result it submitted has been published to the cache.
//! The server then reads the final counters, snapshots the shared cache
//! into [`ServerConfig::cache_dir`] (the `table3` warm-start
//! namespace), expires terminal journals when configured, and only then
//! answers and stops accepting. The batch engine stops when the server
//! is dropped, once its queue has run.
//!
//! ## Configuration
//!
//! Apart from the thread pool's one-time `ARTISAN_THREADS` read, a
//! server reads nothing from the process environment: everything comes
//! in through [`ServerConfig`], whose default is hermetic (no cache
//! snapshot, no journals). Binaries build it with
//! [`ServerConfig::from_env`] and [`ServerConfig::with_flags`].

use crate::engine::BatchEngine;
use crate::proto::{read_frame, write_frame, Request, Response, WireReport, WireStats};
use artisan_agents::AgentConfig;
use artisan_resilience::journal::{
    agent_config_salt, expire_terminal, journal_dir_from_env, plan_fingerprint, session_file_name,
    SessionJournal,
};
use artisan_resilience::{SessionReport, Supervisor};
use artisan_sim::cache::persist::{snapshot_dir_from_env, SNAPSHOT_FILE};
use artisan_sim::fingerprint::config_salt;
use artisan_sim::wire::fnv1a64;
use artisan_sim::{AnalysisConfig, SimCache};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything that shapes a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Global concurrent design-session cap; excess gets `busy`.
    pub max_inflight: usize,
    /// Shared cache capacity (reports).
    pub cache_capacity: usize,
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
            cache_capacity: 4096,
            tenant_max_inflight: 8,
            tenant_testbed_budget: f64::INFINITY,
            journal_expire: None,
            cache_dir: None,
            journal_dir: None,
        }
    }
}

impl ServerConfig {
    /// The defaults with the workspace-wide `ARTISAN_SIM_CACHE_DIR` and
    /// `ARTISAN_JOURNAL_DIR` directories. For binaries to call once at
    /// entry.
    pub fn from_env() -> Self {
        ServerConfig {
            cache_dir: snapshot_dir_from_env(),
            journal_dir: journal_dir_from_env(),
            ..ServerConfig::default()
        }
    }

    /// `self` overridden by the `artisan-serve` flags in `args` (the
    /// program name excluded), each followed by its value.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is missing or
    /// malformed (a budget must be a non-negative number of seconds,
    /// `inf` included), or naming the argument when it is no such flag.
    pub fn with_flags(mut self, args: &[String]) -> Result<Self, String> {
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let raw = args
                .next()
                .ok_or_else(|| format!("{flag} is missing its value"));
            match flag.as_str() {
                "--addr" => self.addr = raw?.clone(),
                "--max-inflight" => self.max_inflight = parse_setting(flag, raw?)?,
                "--cache-capacity" => self.cache_capacity = parse_setting(flag, raw?)?,
                "--tenant-max-inflight" => self.tenant_max_inflight = parse_setting(flag, raw?)?,
                "--tenant-budget-seconds" => {
                    let raw = raw?;
                    let budget: f64 = parse_setting(flag, raw)?;
                    if budget.is_nan() || budget < 0.0 {
                        return Err(format!(
                            "{flag}={raw:?} is not a non-negative number of seconds"
                        ));
                    }
                    self.tenant_testbed_budget = budget;
                }
                "--journal-expire-secs" => {
                    self.journal_expire = Some(Duration::from_secs(parse_setting(flag, raw?)?));
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(self)
    }
}

/// `raw`, the value of flag `name`, parsed as a `T`.
fn parse_setting<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| {
        let kind = std::any::type_name::<T>();
        format!("{name}={raw:?} is not a valid {kind}")
    })
}

#[derive(Default)]
struct TenantUsage {
    inflight: usize,
    testbed_seconds: f64,
}

struct ServerShared {
    config: ServerConfig,
    cache: Arc<SimCache>,
    engine: BatchEngine,
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
        let engine = self.engine.stats();
        WireStats {
            sessions: self.sessions.load(Ordering::SeqCst),
            busy_rejects: self.busy_rejects.load(Ordering::SeqCst),
            batches: engine.batches,
            jobs: engine.jobs,
            unique_computed: engine.unique_computed,
            dedup_shared: engine.dedup_shared,
            cache_served: engine.cache_served,
            occupancy: engine.occupancy.into_iter().collect(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
        }
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
        let shared = Arc::new(ServerShared {
            engine: BatchEngine::start(Arc::clone(&cache)),
            config,
            cache,
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
            Ok(request) => handle_request(shared, tenants, request),
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
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        // One atomic submission per request: the engine's batcher
        // coalesces whole sweeps from concurrent tenants instead of
        // draining lease-width micro-batches of blocking one-shots.
        Request::Analyze { item } => Response::Analysis {
            results: shared.engine.lease().analyze_items(vec![item]),
        },
        Request::AnalyzeBatch { items } => Response::Analysis {
            results: shared.engine.lease().analyze_items(items),
        },
        Request::Design { tenant, seed, spec } => run_design(shared, tenants, &tenant, seed, &spec),
        Request::Drain => run_drain(shared),
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
    }
    shared.sessions.fetch_add(1, Ordering::SeqCst);
    drop(guard);
    Response::Report(Box::new(WireReport::from(&report)))
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
    let mut backend = shared.engine.lease();
    shared
        .supervisor
        .run_journaled_default_agent(spec, &mut backend, seed, &mut journal)
}

fn run_drain(shared: &Arc<ServerShared>) -> Response {
    shared.draining.store(true, Ordering::SeqCst);
    // Finish in-flight sessions.
    while shared.inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Every session waited for its own jobs, so their results are in
    // the cache and the counters.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WorkItem;
    use crate::Client;
    use artisan_circuit::{Netlist, Topology};
    use artisan_sim::SimError;

    fn with_flags(line: &str) -> Result<ServerConfig, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        ServerConfig::default().with_flags(&args)
    }

    #[test]
    fn flags_override_the_settings() {
        let config = with_flags(
            "--addr 127.0.0.1:7070 --max-inflight 4 --cache-capacity 128 \
             --tenant-max-inflight 2 --tenant-budget-seconds 3600.5 --journal-expire-secs 0",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(config.addr, "127.0.0.1:7070");
        assert_eq!(config.max_inflight, 4);
        assert_eq!(config.cache_capacity, 128);
        assert_eq!(config.tenant_max_inflight, 2);
        assert_eq!(config.tenant_testbed_budget, 3600.5);
        assert_eq!(config.journal_expire, Some(Duration::ZERO));
        assert_eq!(with_flags("").map(|c| c.journal_expire), Ok(None));
        assert_eq!(
            with_flags("--tenant-budget-seconds inf").map(|c| c.tenant_testbed_budget),
            Ok(f64::INFINITY)
        );
    }

    #[test]
    fn malformed_flags_are_errors_naming_the_flag() {
        for line in [
            "--max-inflight lots",
            "--cache-capacity 2.5",
            "--tenant-max-inflight 4x",
            "--tenant-budget-seconds lots",
            "--tenant-budget-seconds NaN",
            "--tenant-budget-seconds -5",
            "--journal-expire-secs -1",
            "--addr",
            "--batch-window-ms 2",
        ] {
            let err = with_flags(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} was accepted"));
            let flag = line.split_whitespace().next().unwrap_or_default();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn an_oversized_netlist_gets_an_error_reply_and_the_next_request_is_served() {
        // A loaded gain chain with 65 unknowns (x0..x63 and out), one
        // past the simulator's cap of 64: refused before any matrix is
        // allocated, not analysed.
        let mut text = String::from("* chain\n");
        let mut prev = "in".to_string();
        for k in 0..65 {
            let node = if k == 64 {
                "out".to_string()
            } else {
                format!("x{k}")
            };
            text.push_str(&format!(
                "G{k} {node} 0 {prev} 0 0.0002\nR{k} {node} 0 10000\n"
            ));
            prev = node;
        }
        text.push_str("CL out 0 10p\n.end\n");
        let chain = Netlist::parse(&text).unwrap_or_else(|e| panic!("{e}"));

        let mut server = Server::start(ServerConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        let mut client = Client::connect(server.addr()).unwrap_or_else(|e| panic!("{e}"));
        let oversized = Request::AnalyzeBatch {
            items: vec![WorkItem::Net(chain)],
        };
        match client.call(&oversized) {
            Ok(Response::Analysis { results }) => assert!(
                matches!(&results[..], [Err(SimError::BadNetlist(r))] if r.to_string().contains("65 unknown nodes")),
                "{results:?}"
            ),
            other => panic!("expected an analysis reply, got {other:?}"),
        }
        let next = Request::Analyze {
            item: WorkItem::Topo(Topology::nmc_example()),
        };
        match client.call(&next) {
            Ok(Response::Analysis { results }) => {
                assert!(matches!(&results[..], [Ok(_)]), "{results:?}")
            }
            other => panic!("expected an analysis reply, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_netlist_over_the_element_cap_gets_an_error_reply_and_the_next_request_is_served() {
        // One unknown with 2 000 parallel 1 fF capacitors: pole
        // extraction would factor the network once per capacitor.
        let mut text = String::from("* padded\nG1 out 0 in 0 1m\nR1 out 0 10k\nCL out 0 1p\n");
        for k in 0..2000 {
            text.push_str(&format!("Cx{k} out 0 1f\n"));
        }
        text.push_str(".end\n");
        let padded = Netlist::parse(&text).unwrap_or_else(|e| panic!("{e}"));

        let mut server = Server::start(ServerConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        let mut client = Client::connect(server.addr()).unwrap_or_else(|e| panic!("{e}"));
        let request = Request::Analyze {
            item: WorkItem::Net(padded),
        };
        match client.call(&request) {
            Ok(Response::Analysis { results }) => assert!(
                matches!(&results[..], [Err(SimError::BadNetlist(r))] if r.to_string().contains("2003 elements")),
                "{results:?}"
            ),
            other => panic!("expected an analysis reply, got {other:?}"),
        }
        let next = Request::Analyze {
            item: WorkItem::Topo(Topology::nmc_example()),
        };
        match client.call(&next) {
            Ok(Response::Analysis { results }) => {
                assert!(matches!(&results[..], [Ok(_)]), "{results:?}")
            }
            other => panic!("expected an analysis reply, got {other:?}"),
        }
        server.shutdown();
    }
}
