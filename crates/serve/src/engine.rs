//! The cross-request batching engine: one compute loop shared by every
//! tenant.
//!
//! Design sessions submit candidate evaluations one at a time (the
//! agent's inner loop is serial), so a multi-tenant server naturally
//! has many single-candidate requests in flight at once. The engine
//! turns that concurrency into batch width:
//!
//! 1. every in-flight session holds a *lease*; submitted jobs are keyed
//!    by netlist fingerprint: a cache hit is answered at once, and a job
//!    whose key is already queued or computing shares that job's result
//!    (cross-tenant single-flight, failures included); only the rest
//!    land in the one ingress queue;
//! 2. whenever the batcher thread wakes, it drains whatever is queued,
//!    up to `max_batch`; work that arrives while a batch computes
//!    queues up and forms the next batch;
//! 3. the drained jobs run through one
//!    [`Simulator::analyze_batch_with_pool`] call on the shared pool,
//!    which fans them out one candidate per work item (a lone job runs
//!    inline on the batcher thread);
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Counters the batcher maintains; snapshot via [`BatchEngine::stats`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Batches executed.
    pub batches: u64,
    /// Jobs submitted (answered at submit time or through the queue).
    pub jobs: u64,
    /// Jobs that required a fresh computation.
    pub unique_computed: u64,
    /// Jobs answered by the computation of an identical job that was
    /// queued or computing when they were submitted.
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
        self.unique_computed += drained as u64;
        if self.occupancy.len() < max_batch {
            self.occupancy.resize(max_batch, 0);
        }
        let bucket = drained.clamp(1, self.occupancy.len());
        self.occupancy[bucket - 1] += 1;
    }
}

/// One result slot, shared between the batcher and every session that
/// submitted its key while it was queued or computing.
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
            if let Some(value) = guard.as_ref() {
                return value.clone();
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

/// The work the batcher has still to answer.
#[derive(Default)]
struct Ingress {
    /// Jobs waiting for the batcher, in arrival order.
    queue: VecDeque<Job>,
    /// The slot of every keyed job that is queued or computing.
    flights: HashMap<NetlistFingerprint, Arc<Slot>>,
}

struct EngineShared {
    ingress: Mutex<Ingress>,
    arrived: Condvar,
    cache: Arc<SimCache>,
    stats: Mutex<EngineStats>,
    shutdown: AtomicBool,
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

    /// Submits a set of jobs atomically, under one lock, so the batcher
    /// sees a whole sweep at once instead of nibbling it into
    /// lease-width micro-batches. A job whose key is queued or computing
    /// shares that job's slot, errors included; a cache hit is answered
    /// now (billing happened in the caller, cache service is wall-clock
    /// only); the rest queue. A key's flight ends only after its result
    /// has reached the cache, so a key whose report the cache keeps is
    /// computed once while it stays resident. `Err` items were rejected
    /// before submission; their slots carry the rejection and never
    /// reach the engine's counters.
    fn submit_many(&self, items: Vec<Result<WorkItem>>) -> Vec<Arc<Slot>> {
        let keyed: Vec<_> = items
            .into_iter()
            .map(|item| item.map(|item| (self.fingerprint(&item), item)))
            .collect();
        let (mut shared, mut served) = (0u64, 0u64);
        let mut ingress = self.ingress.lock().unwrap_or_else(|e| e.into_inner());
        let queued = ingress.queue.len();
        let slots = keyed
            .into_iter()
            .map(|item| {
                let (key, item) = match item {
                    Ok(keyed) => keyed,
                    Err(rejection) => return Slot::filled(Err(rejection)),
                };
                if let Some(fp) = key {
                    if let Some(slot) = ingress.flights.get(&fp) {
                        shared += 1;
                        return Arc::clone(slot);
                    }
                    if let Some(report) = self.cache.get(fp) {
                        served += 1;
                        return Slot::filled(Ok(report));
                    }
                }
                let slot = Slot::new();
                if let Some(fp) = key {
                    ingress.flights.insert(fp, Arc::clone(&slot));
                }
                ingress.queue.push_back(Job {
                    item,
                    key,
                    slot: Arc::clone(&slot),
                });
                slot
            })
            .collect();
        if ingress.queue.len() > queued {
            self.arrived.notify_all();
        }
        drop(ingress);
        if shared + served > 0 {
            let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.jobs += shared + served;
            stats.dedup_shared += shared;
            stats.cache_served += served;
        }
        slots
    }
}

/// The batching engine: owns the batcher thread, the shared cache
/// handle, and the ingress queue. Dropping it stops the batcher once
/// the queued jobs have run.
pub struct BatchEngine {
    shared: Arc<EngineShared>,
    batcher: Option<JoinHandle<()>>,
}

impl BatchEngine {
    /// Starts the batcher over `cache`; one batch drains at most
    /// `max_batch` jobs.
    pub fn start(cache: Arc<SimCache>, max_batch: usize) -> BatchEngine {
        let shared = Arc::new(EngineShared {
            ingress: Mutex::new(Ingress::default()),
            arrived: Condvar::new(),
            cache,
            stats: Mutex::new(EngineStats::default()),
            shutdown: AtomicBool::new(false),
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

    /// Hands out a session backend.
    pub fn lease(&self) -> EngineBackend {
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
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrived.notify_all();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
    }
}

fn batcher_loop(shared: &EngineShared) {
    // The batcher owns the only compute resources: one scratch
    // simulator (default config — the same config a solo session's
    // `Simulator::new()` uses, so results are bit-identical) and the
    // environment-sized pool.
    let mut sim = Simulator::new();
    let pool = ThreadPool::from_env();
    let mut done: Vec<Job> = Vec::new();
    loop {
        let batch = {
            let mut ingress = shared.ingress.lock().unwrap_or_else(|e| e.into_inner());
            // The finished batch's results are in its slots and, when
            // cacheable, in the cache: its keys stop taking joiners.
            for fp in done.drain(..).filter_map(|job| job.key) {
                ingress.flights.remove(&fp);
            }
            // Sleep until work arrives or shutdown.
            while ingress.queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                ingress = shared
                    .arrived
                    .wait(ingress)
                    .unwrap_or_else(|e| e.into_inner());
            }
            if ingress.queue.is_empty() {
                // Shutdown with a drained queue: done.
                return;
            }
            // Drain without waiting for more work. A wait would buy no
            // dedup: a job submitted while this batch computes shares
            // the slot of any queued or computing job with its key,
            // failures included. Everything else queues up and forms
            // the next batch.
            let take = ingress.queue.len().min(shared.max_batch);
            ingress.queue.drain(..take).collect::<Vec<Job>>()
        };
        run_batch(shared, &mut sim, &pool, &batch);
        done = batch;
    }
}

/// Executes one drained batch: one parallel compute for the topologies,
/// then each result to its slot and, when cacheable, to the shared
/// cache. Submission already answered cache hits and duplicates, so
/// every keyed job here is the only one with its key. The batch is
/// counted before any result is released, so a caller holding its
/// results finds them in [`BatchEngine::stats`].
fn run_batch(shared: &EngineShared, sim: &mut Simulator, pool: &ThreadPool, batch: &[Job]) {
    shared
        .stats
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record_batch(batch.len(), shared.max_batch);
    let settle = |job: &Job, result: Result<AnalysisReport>| {
        if let Some(fp) = job.key {
            shared.cache.store(fp, &result);
        }
        job.slot.fill(result);
    };

    // Topologies fan out through the batch API (one candidate per
    // pool worker), one result per topology in order;
    // netlists run individually (rare path — only RemoteSim sends
    // them).
    let topo_jobs: Vec<(&Job, &Topology)> = batch
        .iter()
        .filter_map(|job| match &job.item {
            WorkItem::Topo(t) => Some((job, t)),
            WorkItem::Net(_) => None,
        })
        .collect();
    let topos: Vec<Topology> = topo_jobs.iter().map(|(_, t)| (*t).clone()).collect();
    let topo_results = sim.analyze_batch_with_pool(&topos, pool);
    for ((job, _), result) in topo_jobs.into_iter().zip(topo_results) {
        settle(job, result);
    }
    for job in batch {
        if let WorkItem::Net(netlist) = &job.item {
            settle(job, sim.analyze_netlist(netlist));
        }
    }
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
        self.shared
            .submit_many(vec![Ok(WorkItem::Topo(topo.clone()))])[0]
            .wait()
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        load_capacitance(netlist)?;
        self.ledger.record_simulation();
        self.shared
            .submit_many(vec![Ok(WorkItem::Net(netlist.clone()))])[0]
            .wait()
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

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::sample::{sample_topology, SampleRanges};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn duplicates_share_one_computation_failures_included() {
        // One candidate that analyzes cleanly and one that elaborates but
        // fails analysis (the cache never keeps it), each submitted twice.
        let mut rng = StdRng::seed_from_u64(11);
        let mut sample = |succeeds: bool| loop {
            let topo = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
            let result = Simulator::new().analyze_topology(&topo);
            if result.is_ok() == succeeds && elaborate_for_analysis(&topo).is_ok() {
                break WorkItem::Topo(topo);
            }
        };
        let (ok, failed) = (sample(true), sample(false));
        let engine = BatchEngine::start(SimCache::shared(64), 256);
        let results = engine
            .lease()
            .analyze_items(vec![ok.clone(), failed.clone(), ok, failed]);
        assert!(results[0].is_ok() && results[1].is_err());
        assert_eq!((&results[0], &results[1]), (&results[2], &results[3]));
        let stats = engine.stats();
        assert_eq!((stats.unique_computed, stats.dedup_shared), (2, 2));
    }
}
