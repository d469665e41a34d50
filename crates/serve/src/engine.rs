//! The cross-request batching engine: one compute loop shared by every
//! tenant.
//!
//! Design sessions submit candidate evaluations one at a time (the
//! agent's inner loop is serial), so a multi-tenant server naturally
//! has many single-candidate requests in flight at once. The engine
//! turns that concurrency into batch width:
//!
//! 1. every in-flight session holds a *lease*; submitted jobs land in
//!    one ingress queue;
//! 2. the batcher thread accumulates arrivals until the batch is full
//!    or a short coalescing window expires (bounded latency when
//!    tenants are idle), then drains up to `max_batch`;
//! 3. jobs are keyed by netlist fingerprint: cache hits are answered
//!    immediately, in-batch duplicates collapse onto one computation
//!    (cross-tenant single-flight), and the survivors run through one
//!    [`Simulator::analyze_batch_with_pool`] call on the shared pool;
//! 4. finite successful reports are inserted into the shared
//!    [`SimCache`] under the default analysis-config salt — the same
//!    namespace `table3`'s persistent snapshot uses, so a drained
//!    server's snapshot warm-starts every other consumer.
//!
//! Crucially the engine is **billing-invisible**: [`EngineBackend`]
//! rejects candidates with the simulator's own pre-simulation rules
//! ([`elaborate_for_analysis`], [`load_capacitance`]) and bills what the
//! plain [`Simulator`] bills, in the same order, so a session run
//! through the engine produces a `SessionReport` field-identical to a
//! solo run — batching and caching only change wall-clock time. The
//! determinism suite pins this.

use crate::proto::WorkItem;
use artisan_circuit::{Netlist, Topology};
use artisan_math::ThreadPool;
use artisan_sim::cost::CostLedger;
use artisan_sim::fingerprint::config_salt;
use artisan_sim::{
    elaborate_for_analysis, load_capacitance, AnalysisConfig, AnalysisReport, NetlistFingerprint,
    Result, SimBackend, SimCache, Simulator,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters the batcher maintains; snapshot via [`BatchEngine::stats`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Batches executed.
    pub batches: u64,
    /// Jobs submitted (answered at submit time or through the queue).
    pub jobs: u64,
    /// Jobs that required a fresh computation.
    pub unique_computed: u64,
    /// Jobs answered by an identical in-batch twin's computation.
    pub dedup_shared: u64,
    /// Jobs answered straight from the shared cache.
    pub cache_served: u64,
    /// Histogram of batch occupancies: `occupancy[k]` counts batches
    /// that drained `k+1` jobs (capped at the last bucket).
    pub occupancy: Vec<u64>,
}

impl EngineStats {
    fn record_batch(&mut self, drained: usize, max_batch: usize) {
        self.batches += 1;
        self.jobs += drained as u64;
        if self.occupancy.len() < max_batch {
            self.occupancy.resize(max_batch, 0);
        }
        let bucket = drained.clamp(1, self.occupancy.len());
        self.occupancy[bucket - 1] += 1;
    }
}

/// One result slot, shared between a submitting session and the
/// batcher.
struct Slot {
    result: Mutex<Option<Result<AnalysisReport>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn filled(value: Result<AnalysisReport>) -> Arc<Slot> {
        let slot = Slot::new();
        slot.fill(value);
        slot
    }

    fn fill(&self, value: Result<AnalysisReport>) {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<AnalysisReport> {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = guard.take() {
                return value;
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Job {
    item: WorkItem,
    key: Option<NetlistFingerprint>,
    slot: Arc<Slot>,
}

struct EngineShared {
    queue: Mutex<VecDeque<Job>>,
    arrived: Condvar,
    cache: Arc<SimCache>,
    stats: Mutex<EngineStats>,
    active_leases: AtomicUsize,
    shutdown: AtomicBool,
    window: Duration,
    max_batch: usize,
    salt: u64,
}

impl EngineShared {
    fn fingerprint(&self, item: &WorkItem) -> Option<NetlistFingerprint> {
        match item {
            WorkItem::Topo(t) => {
                NetlistFingerprint::of_topology(t).map(|fp| fp.with_salt(self.salt))
            }
            WorkItem::Net(n) => Some(NetlistFingerprint::of_netlist(n).with_salt(self.salt)),
        }
    }

    /// Submits one job; see [`EngineShared::submit_many`].
    fn submit(&self, item: WorkItem) -> Arc<Slot> {
        let mut pending = Vec::new();
        let slot = self.admit(item, &mut pending);
        self.enqueue(1, pending);
        slot
    }

    /// Submits a set of jobs atomically: cache hits are answered at
    /// submit time (no coalescing-window latency for work a leader has
    /// already finished — billing happened in the caller, cache service
    /// is wall-clock only), and the misses land in the queue under one
    /// lock, so the batcher sees a whole sweep at once instead of
    /// nibbling it into lease-width micro-batches. A job that misses
    /// here may still hit the cache at drain time if a leader's batch
    /// completes while it queues — single-flight either way. `Err`
    /// items were rejected before submission; their slots carry the
    /// rejection and never reach the engine's counters.
    fn submit_many(&self, items: Vec<Result<WorkItem>>) -> Vec<Arc<Slot>> {
        let mut pending = Vec::new();
        let mut admitted = 0;
        let slots = items
            .into_iter()
            .map(|item| match item {
                Ok(item) => {
                    admitted += 1;
                    self.admit(item, &mut pending)
                }
                Err(rejection) => Slot::filled(Err(rejection)),
            })
            .collect();
        self.enqueue(admitted, pending);
        slots
    }

    /// Answers `item` from the cache now, or adds its job to `pending`.
    fn admit(&self, item: WorkItem, pending: &mut Vec<Job>) -> Arc<Slot> {
        let key = self.fingerprint(&item);
        if let Some(report) = key.and_then(|fp| self.cache.get(fp)) {
            return Slot::filled(Ok(report));
        }
        let slot = Slot::new();
        pending.push(Job {
            item,
            key,
            slot: Arc::clone(&slot),
        });
        slot
    }

    /// Counts the `admitted` jobs not in `pending` as cache-served and
    /// queues the rest under one lock.
    fn enqueue(&self, admitted: usize, pending: Vec<Job>) {
        let served = (admitted - pending.len()) as u64;
        if served > 0 {
            let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.jobs += served;
            stats.cache_served += served;
        }
        if !pending.is_empty() {
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.extend(pending);
            self.arrived.notify_all();
        }
    }
}

/// The batching engine: owns the batcher thread, the shared cache
/// handle, and the ingress queue. Dropping it shuts the batcher down
/// after failing any still-queued jobs.
pub struct BatchEngine {
    shared: Arc<EngineShared>,
    batcher: Option<JoinHandle<()>>,
}

impl BatchEngine {
    /// Starts the batcher over `cache` with the given coalescing
    /// window and maximum batch width.
    pub fn start(cache: Arc<SimCache>, window: Duration, max_batch: usize) -> BatchEngine {
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            cache,
            stats: Mutex::new(EngineStats::default()),
            active_leases: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            window,
            max_batch: max_batch.max(1),
            salt: config_salt(&AnalysisConfig::default()),
        });
        let worker = Arc::clone(&shared);
        let batcher = std::thread::spawn(move || batcher_loop(&worker));
        BatchEngine {
            shared,
            batcher: Some(batcher),
        }
    }

    /// Hands out a session backend. The lease count is bookkeeping
    /// only; batch launch is steered by the coalescing window and
    /// `max_batch`.
    pub fn lease(&self) -> EngineBackend {
        self.shared.active_leases.fetch_add(1, Ordering::SeqCst);
        EngineBackend {
            shared: Arc::clone(&self.shared),
            ledger: CostLedger::new(),
        }
    }

    /// Snapshot of the batcher's counters.
    pub fn stats(&self) -> EngineStats {
        self.shared
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The shared cache the engine computes into.
    pub fn cache(&self) -> &Arc<SimCache> {
        &self.shared.cache
    }

    /// Stops the batcher: queued jobs still complete, then the thread
    /// exits. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrived.notify_all();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(shared: &EngineShared) {
    // The batcher owns the only compute resources: one scratch
    // simulator (default config — the same config a solo session's
    // `Simulator::new()` uses, so results are bit-identical) and the
    // environment-sized pool.
    let mut sim = Simulator::new();
    let pool = ThreadPool::from_env();
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Sleep until work arrives or shutdown.
            while queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                queue = shared
                    .arrived
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
            if queue.is_empty() {
                // Shutdown with a drained queue: done.
                return;
            }
            // Coalescing window: once work arrives, keep accumulating
            // until the batch is full or the window expires. Draining
            // any earlier (e.g. at one-job-per-lease width) splits a
            // concurrent sweep into micro-batches and forfeits the
            // in-batch dedup that makes batching pay; the window bounds
            // the latency cost for sparse traffic.
            let deadline = Instant::now() + shared.window;
            loop {
                if queue.len() >= shared.max_batch || shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _timeout) = shared
                    .arrived
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
            let take = queue.len().min(shared.max_batch);
            queue.drain(..take).collect::<Vec<Job>>()
        };
        run_batch(shared, &mut sim, &pool, batch);
    }
}

/// Executes one drained batch: cache lookup, in-batch dedup, one
/// parallel compute for the unique topology survivors, result
/// distribution, cache fill.
fn run_batch(shared: &EngineShared, sim: &mut Simulator, pool: &ThreadPool, batch: Vec<Job>) {
    let drained = batch.len();
    let mut cache_served = 0u64;
    let mut dedup_shared = 0u64;

    // Unique work groups in arrival order, indexed by fingerprint: the
    // computation for each group feeds every slot that coalesced onto
    // it.
    struct Group {
        key: Option<NetlistFingerprint>,
        item: WorkItem,
        slots: Vec<Arc<Slot>>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: HashMap<NetlistFingerprint, usize> = HashMap::new();
    for job in batch {
        let key = job.key;
        if let Some(fp) = key {
            if let Some(report) = shared.cache.get(fp) {
                cache_served += 1;
                job.slot.fill(Ok(report));
                continue;
            }
            if let Some(&g) = group_of.get(&fp) {
                dedup_shared += 1;
                groups[g].slots.push(job.slot);
                continue;
            }
            group_of.insert(fp, groups.len());
        }
        groups.push(Group {
            key,
            item: job.item,
            slots: vec![job.slot],
        });
    }
    let unique_computed = groups.len() as u64;

    // Feeds one group's result to its slots and, when it is a finite
    // success, to the shared cache — the same rule the caching tier
    // applies everywhere.
    let settle = |group: &Group, result: Result<AnalysisReport>| {
        if let (Some(fp), Ok(report)) = (&group.key, &result) {
            if report.performance.is_finite() {
                shared.cache.insert(*fp, report.clone());
            }
        }
        for slot in &group.slots {
            slot.fill(result.clone());
        }
    };

    // Topologies fan out through the batch API (amortized pool +
    // shared sweep machinery), one result per topology in order;
    // netlists run individually (rare path — only RemoteSim sends
    // them).
    let topo_groups: Vec<(&Group, &Topology)> = groups
        .iter()
        .filter_map(|g| match &g.item {
            WorkItem::Topo(t) => Some((g, t)),
            WorkItem::Net(_) => None,
        })
        .collect();
    let topos: Vec<Topology> = topo_groups.iter().map(|(_, t)| (*t).clone()).collect();
    let topo_results = sim.analyze_batch_with_pool(&topos, pool);
    for ((group, _), result) in topo_groups.into_iter().zip(topo_results) {
        settle(group, result);
    }
    for group in &groups {
        if let WorkItem::Net(netlist) = &group.item {
            settle(group, sim.analyze_netlist(netlist));
        }
    }

    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    stats.record_batch(drained, shared.max_batch);
    stats.unique_computed += unique_computed;
    stats.dedup_shared += dedup_shared;
    stats.cache_served += cache_served;
}

/// A per-session [`SimBackend`] over the shared engine.
///
/// Bills its own [`CostLedger`] as the plain [`Simulator`] does:
/// candidates that fail [`elaborate_for_analysis`] or
/// [`load_capacitance`] are rejected locally and unbilled; everything
/// else bills one simulation before compute; batches bill up front plus
/// the batch counter. Cache
/// hits and cross-tenant dedup are *not* billed — they are wall-clock
/// effects invisible to the cost model, which is what makes batched
/// session reports field-identical to solo runs.
pub struct EngineBackend {
    shared: Arc<EngineShared>,
    ledger: CostLedger,
}

impl Drop for EngineBackend {
    fn drop(&mut self) {
        self.shared.active_leases.fetch_sub(1, Ordering::SeqCst);
    }
}

impl EngineBackend {
    /// Analyzes a mixed batch of work items through a single atomic
    /// submission, so the batcher sees the whole sweep at once instead
    /// of one job per blocking round-trip. Items that fail
    /// [`elaborate_for_analysis`] or [`load_capacitance`] are answered
    /// inline and never billed, as on the single-item paths; valid items
    /// are billed up front like `analyze_batch`.
    pub fn analyze_items(&mut self, items: Vec<WorkItem>) -> Vec<Result<AnalysisReport>> {
        let checked: Vec<Result<WorkItem>> = items
            .into_iter()
            .map(|item| {
                match &item {
                    WorkItem::Topo(t) => elaborate_for_analysis(t).map(drop),
                    WorkItem::Net(n) => load_capacitance(n).map(drop),
                }?;
                self.ledger.record_simulation();
                Ok(item)
            })
            .collect();
        let valid = checked.iter().filter(|c| c.is_ok()).count();
        if valid > 0 {
            self.ledger.record_batched_solves(valid as u64);
        }
        let slots = self.shared.submit_many(checked);
        slots.iter().map(|slot| slot.wait()).collect()
    }
}

impl SimBackend for EngineBackend {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        elaborate_for_analysis(topo)?;
        self.ledger.record_simulation();
        self.shared.submit(WorkItem::Topo(topo.clone())).wait()
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        load_capacitance(netlist)?;
        self.ledger.record_simulation();
        self.shared.submit(WorkItem::Net(netlist.clone())).wait()
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        // Bill everything up front, exactly like the simulator's
        // batch path (which bills even candidates that later fail).
        for _ in topos {
            self.ledger.record_simulation();
        }
        self.ledger.record_batched_solves(topos.len() as u64);
        let items = topos
            .iter()
            .map(|t| Ok(WorkItem::Topo(t.clone())))
            .collect();
        let slots = self.shared.submit_many(items);
        slots.iter().map(|slot| slot.wait()).collect()
    }

    fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }
}
