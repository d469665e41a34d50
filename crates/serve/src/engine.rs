//! The cross-request batching engine: one compute loop shared by every
//! tenant.
//!
//! Design sessions submit candidate evaluations one at a time (the
//! agent's inner loop is serial), so a multi-tenant server naturally
//! has many single-candidate requests in flight at once. The engine
//! turns that concurrency into batch width:
//!
//! 1. every in-flight session holds a *lease*; submitted jobs are keyed
//!    by netlist fingerprint and claimed through the shared
//!    [`SimCache`]'s single-flight ([`SimCache::claim`]): a cache hit
//!    is answered at once, a job whose key another caller is computing
//!    waits for that result (cross-tenant single-flight, failures
//!    included), and only leads land in the one ingress queue, each
//!    carrying its [`Lead`];
//! 2. whenever the batcher thread wakes, it drains the whole queue;
//!    work that arrives while a batch computes queues up and forms the
//!    next batch;
//! 3. the drained jobs run through one
//!    [`Simulator::analyze_batch_with_pool`] call on the shared pool,
//!    which fans them out one candidate per work item (a lone job runs
//!    inline on the batcher thread);
//! 4. each result is published through its lead, which stores a finite
//!    report in the cache under the default analysis-config salt — the
//!    same namespace `table3`'s persistent snapshot uses, so a drained
//!    server's snapshot warm-starts every other consumer — and wakes
//!    every waiter.
//!
//! The batcher holds the leads and never waits on a flight; session
//! threads hold none, so they may wait. That is the single-flight's
//! publish-before-wait rule, and it keeps the engine deadlock-free. A
//! waiter whose flight was abandoned computes the item itself.
//!
//! Crucially the engine is **billing-invisible**: [`EngineBackend`]
//! bills with the simulator's own rule ([`admit_topology`],
//! [`admit_netlist`], [`bill_batch`]), so a session run through the
//! engine produces a `SessionReport` field-identical to a solo run —
//! batching and caching only change wall-clock time. The determinism
//! suite pins this.

use crate::proto::WorkItem;
use artisan_circuit::{Netlist, Topology};
use artisan_math::ThreadPool;
use artisan_sim::cache::{Claim, Flight, Lead};
use artisan_sim::cost::CostLedger;
use artisan_sim::fingerprint::config_salt;
use artisan_sim::{
    admit_netlist, admit_topology, bill_batch, elaborate_for_analysis, load_capacitance,
    AnalysisConfig, AnalysisReport, NetlistFingerprint, Result, SimBackend, SimCache, Simulator,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Jobs answered by another caller's computation of their key,
    /// in flight when they were submitted.
    pub dedup_shared: u64,
    /// Jobs answered straight from the shared cache.
    pub cache_served: u64,
    /// Batch occupancies: `occupancy[&k]` counts batches that drained
    /// `k` jobs.
    pub occupancy: BTreeMap<u64, u64>,
}

impl EngineStats {
    fn record_batch(&mut self, drained: usize) {
        self.batches += 1;
        self.jobs += drained as u64;
        self.unique_computed += drained as u64;
        *self.occupancy.entry(drained as u64).or_default() += 1;
    }
}

/// How a submitted item will be answered.
enum Answer {
    Now(Result<AnalysisReport>),
    /// The flight's result; the item is kept to compute it here if the
    /// flight is abandoned.
    Flight(Arc<Flight>, WorkItem),
}

struct EngineShared {
    /// Queued leads, each with the item whose result it publishes.
    queue: Mutex<Vec<(WorkItem, Lead)>>,
    arrived: Condvar,
    cache: Arc<SimCache>,
    stats: Mutex<EngineStats>,
    shutdown: AtomicBool,
    salt: u64,
}

/// `item` on a scratch default-config simulator — the config the
/// batcher and a solo session's `Simulator::new()` use, so the result
/// is bit-identical to theirs.
fn compute(item: &WorkItem) -> Result<AnalysisReport> {
    let mut sim = Simulator::new();
    match item {
        WorkItem::Topo(t) => sim.analyze_topology(t),
        WorkItem::Net(n) => sim.analyze_netlist(n),
    }
}

impl EngineShared {
    /// Submits a set of jobs and waits for every answer. Jobs are
    /// claimed under the queue lock, so the batcher sees a whole sweep
    /// at once instead of nibbling it into lease-width micro-batches. A
    /// cache hit is answered now (billing happened in the caller, cache
    /// service is wall-clock only); a job whose key is in flight shares
    /// that flight's result, errors included; a lead queues. A topology
    /// without a fingerprint is one that fails to elaborate, answered
    /// now with the simulator's own error. Neither it nor an `Err` item
    /// (rejected before submission) reaches the counters.
    fn run(&self, items: Vec<Result<WorkItem>>) -> Vec<Result<AnalysisReport>> {
        let keyed: Vec<_> = items
            .into_iter()
            .map(|item| {
                let item = item?;
                let key = match &item {
                    WorkItem::Topo(t) => NetlistFingerprint::of_topology(t),
                    WorkItem::Net(n) => Some(NetlistFingerprint::of_netlist(n)),
                };
                Ok((key.map(|fp| fp.with_salt(self.salt)), item))
            })
            .collect();
        let (mut shared, mut served) = (0u64, 0u64);
        let mut queue = lock(&self.queue);
        let queued = queue.len();
        let answers: Vec<Answer> = keyed
            .into_iter()
            .map(|keyed| {
                let (key, item) = match keyed {
                    Ok((Some(key), item)) => (key, item),
                    Ok((None, item)) => return Answer::Now(compute(&item)),
                    Err(rejection) => return Answer::Now(Err(rejection)),
                };
                match self.cache.claim(key) {
                    Claim::Hit(report) => {
                        served += 1;
                        Answer::Now(Ok(report))
                    }
                    Claim::Join(flight) => {
                        shared += 1;
                        Answer::Flight(flight, item)
                    }
                    Claim::Lead(lead) => {
                        let flight = lead.flight();
                        queue.push((item.clone(), lead));
                        Answer::Flight(flight, item)
                    }
                }
            })
            .collect();
        if queue.len() > queued {
            self.arrived.notify_all();
        }
        drop(queue);
        if shared + served > 0 {
            let mut stats = lock(&self.stats);
            stats.jobs += shared + served;
            stats.dedup_shared += shared;
            stats.cache_served += served;
        }
        // This thread holds no lead, so it may wait. A flight abandoned
        // by a failed leader is computed here.
        answers
            .into_iter()
            .map(|answer| match answer {
                Answer::Now(result) => result,
                Answer::Flight(flight, item) => {
                    self.cache.wait(&flight).unwrap_or_else(|| compute(&item))
                }
            })
            .collect()
    }
}

/// Recovers the guard even if another thread panicked while holding the
/// lock: the queue and the counters change in single steps.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batching engine: owns the batcher thread, the shared cache
/// handle, and the ingress queue. Dropping it stops the batcher once
/// the queued jobs have run.
pub struct BatchEngine {
    shared: Arc<EngineShared>,
    batcher: Option<JoinHandle<()>>,
}

impl BatchEngine {
    /// Starts the batcher over `cache`.
    pub fn start(cache: Arc<SimCache>) -> BatchEngine {
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            cache,
            stats: Mutex::new(EngineStats::default()),
            shutdown: AtomicBool::new(false),
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
        lock(&self.shared.stats).clone()
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
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
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
            // Drain everything without waiting for more work. A wait
            // would buy no dedup: a job submitted while this batch
            // computes joins the flight of any queued or computing job
            // with its key, failures included. Everything else queues
            // up and forms the next batch.
            std::mem::take(&mut *queue)
        };
        run_batch(shared, &mut sim, &pool, batch);
    }
}

/// Executes one drained batch: one parallel compute for the topologies,
/// then each result published through its job's lead. Submission
/// already answered cache hits and in-flight keys, so every job here
/// leads its key. The batch is counted before any result is released,
/// so a caller holding its results finds them in [`BatchEngine::stats`].
fn run_batch(
    shared: &EngineShared,
    sim: &mut Simulator,
    pool: &ThreadPool,
    batch: Vec<(WorkItem, Lead)>,
) {
    lock(&shared.stats).record_batch(batch.len());
    // Topologies fan out through the batch API (one candidate per pool
    // worker), one result per topology in order; netlists run
    // individually (rare path — only RemoteSim sends them).
    let (mut topos, mut topo_leads, mut nets) = (Vec::new(), Vec::new(), Vec::new());
    for (item, lead) in batch {
        match item {
            WorkItem::Topo(t) => {
                topos.push(t);
                topo_leads.push(lead);
            }
            WorkItem::Net(n) => nets.push((n, lead)),
        }
    }
    let results = sim.analyze_batch_with_pool(&topos, pool);
    for (lead, result) in topo_leads.into_iter().zip(results) {
        lead.publish(result);
    }
    for (netlist, lead) in nets {
        lead.publish(sim.analyze_netlist(&netlist));
    }
}

/// A per-session [`SimBackend`] over the shared engine.
///
/// Bills its own [`CostLedger`] with the plain [`Simulator`]'s rule
/// ([`admit_topology`], [`admit_netlist`], [`bill_batch`]). Cache hits
/// and cross-tenant dedup are *not* billed — they are wall-clock
/// effects invisible to the cost model, which is what makes batched
/// session reports field-identical to solo runs.
///
/// It claims keys in the engine's cache, so a [`artisan_sim::CachedSim`]
/// over that same cache must not wrap it: the inner request would join
/// the wrapper's own flight.
pub struct EngineBackend {
    shared: Arc<EngineShared>,
    ledger: CostLedger,
}

impl EngineBackend {
    /// Analyzes a mixed batch of work items through a single atomic
    /// submission, so the batcher sees the whole sweep at once instead
    /// of one job per blocking round-trip. Items that fail
    /// [`elaborate_for_analysis`] or [`load_capacitance`] are answered
    /// inline and never billed, as on the single-item paths; the
    /// admitted items are billed up front as one batch.
    pub fn analyze_items(&mut self, items: Vec<WorkItem>) -> Vec<Result<AnalysisReport>> {
        let admitted: Vec<Result<WorkItem>> = items
            .into_iter()
            .map(|item| {
                match &item {
                    WorkItem::Topo(t) => elaborate_for_analysis(t).map(drop),
                    WorkItem::Net(n) => load_capacitance(n).map(drop),
                }?;
                Ok(item)
            })
            .collect();
        bill_batch(
            &mut self.ledger,
            admitted.iter().filter(|item| item.is_ok()).count(),
        );
        self.shared.run(admitted)
    }
}

impl SimBackend for EngineBackend {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        admit_topology(&mut self.ledger, topo)?;
        self.shared
            .run(vec![Ok(WorkItem::Topo(topo.clone()))])
            .remove(0)
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        admit_netlist(&mut self.ledger, netlist)?;
        self.shared
            .run(vec![Ok(WorkItem::Net(netlist.clone()))])
            .remove(0)
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        bill_batch(&mut self.ledger, topos.len());
        self.shared.run(
            topos
                .iter()
                .map(|t| Ok(WorkItem::Topo(t.clone())))
                .collect(),
        )
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
        let engine = BatchEngine::start(SimCache::shared(64));
        let results = engine
            .lease()
            .analyze_items(vec![ok.clone(), failed.clone(), ok, failed]);
        assert!(results[0].is_ok() && results[1].is_err());
        assert_eq!((&results[0], &results[1]), (&results[2], &results[3]));
        let stats = engine.stats();
        assert_eq!((stats.unique_computed, stats.dedup_shared), (2, 2));
    }
}
