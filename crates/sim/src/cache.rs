//! Content-addressed simulation memoization.
//!
//! [`SimCache`] is a sharded, `Send + Sync`, capacity-bounded LRU map
//! from [`NetlistFingerprint`] to [`AnalysisReport`], and
//! [`CachedSim<B>`] is the [`SimBackend`] wrapper that consults it
//! before delegating to the inner backend. A hit returns the memoized
//! report byte-for-byte and bills one *cache hit* to the ledger
//! ([`crate::cost::CostModel::seconds_per_cache_hit`], a lookup cost)
//! instead of a full simulation — redundant re-analysis in the agent
//! retry loop, ToT branch scoring, and the BOBO/RLBO inner loops stops
//! costing testbed time.
//!
//! # Correctness rules
//!
//! - Only `Ok` reports with **finite** metrics are ever inserted:
//!   errors and poisoned (NaN/∞) reports always come from the real
//!   backend, so a transient fault can never be replayed forever out of
//!   the cache.
//! - The fingerprint covers the element multiset, entry path, and — via
//!   the wrapper's salt — the analysis configuration. The salt default
//!   for [`CachedSim::for_simulator`] is
//!   [`crate::fingerprint::config_salt`] of the simulator's config, so
//!   one shared cache can serve differently-configured simulators
//!   without cross-talk. [`CachedSim::new`] uses salt 0; give every
//!   distinct inner configuration its own salt (or its own cache) when
//!   constructing wrappers manually.
//!
//! # Stacking rule with fault injection
//!
//! Compose `FaultySim<CachedSim<B>>` — faults **outside** the cache.
//! A fault wrapper rolls its deterministic per-call dice on every
//! analysis call; with the cache inside, every call still reaches the
//! fault layer first, so fault call-indices (and therefore chaos
//! exact-replay) are unchanged by cache hits. The inverted stacking,
//! `CachedSim<FaultySim<B>>`, would both (a) skip inner calls on hits,
//! shifting every later fault decision, and (b) risk memoizing a report
//! whose cost profile the fault layer meant to perturb. The resilience
//! crate's chaos tests pin the supported order.
//!
//! # Sharing across sessions
//!
//! The cache is shared by cloning an `Arc<SimCache>` into each
//! session's wrapper. Report *values* stay deterministic — a cached
//! report is identical to the recomputed one — but when sessions run
//! on several threads, which session pays the miss depends on
//! cross-session timing, so per-session ledger splits are only
//! deterministic with per-session caches or with sessions run one
//! after another.
//!
//! To run without the cache, do not stack the wrapper.
//!
//! # Single-flight miss coalescing
//!
//! [`SimCache`] is the workspace's one single-flight. The non-blocking
//! [`SimCache::claim`] answers a key with a resident report
//! ([`Claim::Hit`]), another caller's flight ([`Claim::Join`]) or
//! leadership ([`Claim::Lead`]). [`Lead::publish`] stores a finite `Ok`
//! report, deregisters the key and moves the whole result, errors
//! included, into the flight that [`SimCache::wait`] blocks on. A
//! [`Lead`] dropped unpublished abandons its flight, so a panicking
//! leader never strands its waiters. Each caller keeps its own policy:
//! a [`CachedSim`] single analysis bills a joined cacheable report as a
//! cache hit plus an informational [`CostLedger::record_coalesced_wait`]
//! (it never paid for a simulation) and otherwise runs its own
//! analysis, so progress is guaranteed; a [`CachedSim`] batch forwards
//! its joins to the inner batch with its leads, so duplicates within
//! one batch simulate once per occurrence; the server's engine shares
//! joined failures too.
//!
//! **A caller publishes every lead it holds before it waits on any
//! flight**: a single analysis waits holding no lead and a batch never
//! waits, so no two callers deadlock. Hence one stacking rule: a
//! `CachedSim` must not wrap a backend that claims keys in its own
//! cache under its salt (the server's `EngineBackend` over the engine's
//! cache), since the inner request would join the wrapper's own flight.
//!
//! [`CacheStats`] count a hit per hit claim and a miss per lead; a
//! `CachedSim` join counts as `coalesced` when it yields a cacheable
//! report and as a miss otherwise. Coalescing changes no report value
//! and no aggregate count of inner analyses; like miss billing in
//! general, *which* session records the miss versus the coalesced hit
//! depends on cross-session timing (see "Sharing across sessions"
//! above).
//!
//! # Persistence
//!
//! [`persist`] adds a versioned, checksummed, atomically-written binary
//! snapshot format (`SimCache::save_to` / `SimCache::load_from`) so
//! repeated process invocations warm-start from disk. See the module
//! docs for the format and the invalidation rules.

pub mod persist;

use crate::backend::SimBackend;
use crate::cost::CostLedger;
use crate::fingerprint::{config_salt, NetlistFingerprint};
use crate::simulator::{AnalysisReport, Simulator};
use crate::Result;
use artisan_circuit::{Netlist, Topology};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Number of independently locked shards. Fingerprints are uniformly
/// mixed, so lane-0 modulo the shard count spreads keys evenly; 16
/// shards keep contention negligible for any realistic session fan-out.
const SHARD_COUNT: usize = 16;

/// Bound on the memoized corner-verdict map. A
/// [`crate::corners::CornerSummary`] is a fixed-size value, so a flat
/// cap with wholesale clearing on overflow is cheaper than LRU
/// bookkeeping and keeps the map small.
const CORNER_VERDICT_CAPACITY: usize = 4096;

#[derive(Debug, Clone)]
struct Entry {
    report: AnalysisReport,
    /// Monotonic recency stamp (per shard); smallest = least recent.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<NetlistFingerprint, Entry>,
    clock: u64,
}

/// Counters describing a cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Reads that returned a memoized report.
    pub hits: u64,
    /// Reads that found nothing: a `get` miss, a lead, or a `CachedSim`
    /// join that received no cacheable report.
    pub misses: u64,
    /// `CachedSim` joins that received another caller's cacheable
    /// report — single-flight coalescing.
    pub coalesced: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Successful insertions (including overwrites).
    pub insertions: u64,
    /// Reports currently resident.
    pub entries: usize,
    /// Maximum resident reports.
    pub capacity: usize,
}

impl CacheStats {
    /// Memoized serves (hits + coalesced waits) over all lookups, in
    /// `[0, 1]` (0 when nothing was looked up). A coalesced wait counts
    /// as a serve: the caller received a memoized report without paying
    /// for a simulation.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.coalesced;
        let lookups = served + self.misses;
        if lookups == 0 {
            0.0
        } else {
            served as f64 / lookups as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {}/{} entries, {} evictions",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.capacity,
            self.evictions,
        )?;
        if self.coalesced > 0 {
            write!(f, ", {} coalesced", self.coalesced)?;
        }
        Ok(())
    }
}

/// State of one in-flight computation. It lives behind the flight's
/// `Arc`, so the landed result moves in without a box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader published its whole result, errors included.
    Landed(Result<AnalysisReport>),
    /// The leader was dropped without publishing.
    Abandoned,
}

/// One key's in-flight computation: waiters block in
/// [`SimCache::wait`] until its [`Lead`] publishes or is dropped.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

/// Outcome of [`SimCache::claim`]. Never blocks. Matched at once, so a
/// boxed hit would only add an allocation to every cache hit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Claim {
    /// The key was resident: a plain cache hit.
    Hit(AnalysisReport),
    /// Another caller is computing the key; [`SimCache::wait`] on the
    /// flight for its result.
    Join(Arc<Flight>),
    /// This caller computes the key and must [`Lead::publish`] the
    /// result.
    Lead(Lead),
}

/// Leadership of one in-flight key. [`Lead::publish`] hands the
/// leader's result to every waiter; dropping the lead unpublished
/// abandons the flight, so a panicking leader never strands its
/// waiters.
#[derive(Debug)]
pub struct Lead {
    cache: Arc<SimCache>,
    key: NetlistFingerprint,
    flight: Arc<Flight>,
    open: bool,
}

impl Lead {
    /// The flight this lead will land — what the leader's own caller
    /// waits on when the computation runs elsewhere.
    pub fn flight(&self) -> Arc<Flight> {
        Arc::clone(&self.flight)
    }

    /// Publishes the leader's result: a finite `Ok` report is stored,
    /// the key is deregistered, and `result` moves into the flight for
    /// every waiter.
    pub fn publish(mut self, result: Result<AnalysisReport>) {
        // Store before deregistering: a claim racing between the
        // registry removal and the shard insert must still hit.
        self.cache.store(self.key, &result);
        self.land(FlightState::Landed(result));
    }

    fn land(&mut self, state: FlightState) {
        self.open = false;
        lock(&self.cache.in_flight).remove(&self.key);
        *lock(&self.flight.state) = state;
        self.flight.done.notify_all();
    }
}

impl Drop for Lead {
    fn drop(&mut self) {
        if self.open {
            self.land(FlightState::Abandoned);
        }
    }
}

/// A sharded, capacity-bounded LRU cache of analysis reports, keyed by
/// [`NetlistFingerprint`]. `Send + Sync`: share one instance across all
/// sessions of a batch via [`SimCache::shared`].
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::cache::{CachedSim, SimCache};
/// use artisan_sim::{SimBackend, Simulator};
///
/// let cache = SimCache::shared(256);
/// let mut sim = CachedSim::new(Simulator::new(), cache.clone());
/// let topo = Topology::nmc_example();
/// let first = sim.analyze_topology(&topo).unwrap();
/// let second = sim.analyze_topology(&topo).unwrap();
/// assert_eq!(first, second); // bit-identical memoized report
/// assert_eq!(sim.ledger().simulations(), 1);
/// assert_eq!(sim.ledger().cache_hits(), 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct SimCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    /// Keys currently being computed by a single-flight leader.
    in_flight: Mutex<HashMap<NetlistFingerprint, Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Gauge of callers currently blocked on an in-flight leader; lets
    /// tests (and diagnostics) observe coalescing deterministically.
    waiting: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    /// Memoized corner-grid verdicts, keyed by corner-salted
    /// fingerprints (see [`crate::corners`]). Kept apart from the report
    /// shards: verdicts are not [`AnalysisReport`]s and must never
    /// collide with them, and the corner namespace salt guarantees the
    /// key spaces are disjoint anyway.
    corner_verdicts: Mutex<HashMap<NetlistFingerprint, crate::corners::CornerSummary>>,
}

/// Recovers the guard even if another thread panicked while holding the
/// lock — every protected structure here is mutated in single
/// insert/remove/assign steps, so poisoning carries no danger.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SimCache {
    /// A cache holding at most `capacity` reports (rounded up to a
    /// multiple of the shard count; at least one per shard).
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARD_COUNT).max(1);
        SimCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity,
            in_flight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            corner_verdicts: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized corner-grid verdict for `key`, if one is stored.
    /// Keys must already carry the corner namespace salt (the
    /// [`crate::corners::CornerSim`] wrapper applies it); this method
    /// does no salting of its own.
    pub fn corner_verdict(&self, key: NetlistFingerprint) -> Option<crate::corners::CornerSummary> {
        lock(&self.corner_verdicts).get(&key).copied()
    }

    /// Memoizes a corner-grid verdict. Unlike analysis reports, a
    /// corner summary is a pure function of the netlist and the grid —
    /// fault injection lives outside the corner layer — so *every*
    /// outcome is cacheable, failing corners included. When the bounded
    /// map is full it is cleared wholesale.
    pub fn store_corner_verdict(
        &self,
        key: NetlistFingerprint,
        summary: crate::corners::CornerSummary,
    ) {
        let mut map = lock(&self.corner_verdicts);
        if map.len() >= CORNER_VERDICT_CAPACITY && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, summary);
    }

    /// An `Arc`-wrapped cache, ready to clone into per-session wrappers.
    pub fn shared(capacity: usize) -> Arc<SimCache> {
        Arc::new(SimCache::new(capacity))
    }

    /// Total capacity in reports.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARD_COUNT
    }

    /// Reports currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether the cache holds no reports.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).map.is_empty())
    }

    /// Drops every resident report (stats are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).map.clear();
        }
    }

    /// Lifetime hit/miss/eviction counters plus occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }

    /// Number of callers currently blocked on an in-flight leader. A
    /// live gauge, not a lifetime counter — it returns to zero when the
    /// leaders land. Exposed so tests can hold a leader until every
    /// expected waiter has coalesced.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst) as usize
    }

    /// Number of keys currently being computed by single-flight leaders.
    pub fn in_flight_keys(&self) -> usize {
        lock(&self.in_flight).len()
    }

    fn shard_for(&self, key: NetlistFingerprint) -> &Mutex<Shard> {
        let idx = (key.lanes()[0] % SHARD_COUNT as u64) as usize;
        &self.shards[idx]
    }

    /// Resident-entry lookup that counts a hit (and refreshes recency)
    /// when found but records nothing on absence — the single-flight
    /// protocol decides whether an absence is a miss or a coalesced
    /// wait.
    fn probe(&self, key: NetlistFingerprint) -> Option<AnalysisReport> {
        let mut shard = lock(self.shard_for(key));
        shard.clock += 1;
        let stamp = shard.clock;
        let entry = shard.map.get_mut(&key)?;
        entry.stamp = stamp;
        let report = entry.report.clone();
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Looks up a memoized report, refreshing its recency on a hit.
    /// Never blocks on, or joins, in-flight computations (see
    /// [`SimCache::claim`] for the coalescing entry point).
    pub fn get(&self, key: NetlistFingerprint) -> Option<AnalysisReport> {
        match self.probe(key) {
            Some(report) => Some(report),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Single-flight claim on `key`; never blocks. A resident key is a
    /// [`Claim::Hit`] (counted as a hit). A key another caller is
    /// computing is a [`Claim::Join`] (counted by the caller's policy).
    /// Otherwise this caller leads (counted as a miss) and must
    /// [`Lead::publish`] its result before it waits on any flight.
    pub fn claim(self: &Arc<Self>, key: NetlistFingerprint) -> Claim {
        if let Some(report) = self.probe(key) {
            return Claim::Hit(report);
        }
        let mut registry = lock(&self.in_flight);
        // Re-probe under the registry lock: a leader publishing between
        // the shard probe above and this lock has already stored its
        // report and deregistered — leading now would re-simulate a
        // resident key.
        if let Some(report) = self.probe(key) {
            return Claim::Hit(report);
        }
        match registry.entry(key) {
            MapEntry::Occupied(entry) => Claim::Join(Arc::clone(entry.get())),
            MapEntry::Vacant(slot) => {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Pending),
                    done: Condvar::new(),
                });
                slot.insert(Arc::clone(&flight));
                drop(registry);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Claim::Lead(Lead {
                    cache: Arc::clone(self),
                    key,
                    flight,
                    open: true,
                })
            }
        }
    }

    /// Blocks until `flight` lands and returns its leader's result,
    /// errors included, or `None` when the leader abandoned it. Counted
    /// in the [`SimCache::waiting`] gauge while blocked. No cache lock
    /// is held here, so the leader (and unrelated lookups) make
    /// progress while we wait.
    pub fn wait(&self, flight: &Flight) -> Option<Result<AnalysisReport>> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mut state = lock(&flight.state);
        while matches!(*state, FlightState::Pending) {
            state = flight
                .done
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let outcome = match &*state {
            FlightState::Landed(result) => Some(result.clone()),
            FlightState::Pending | FlightState::Abandoned => None,
        };
        drop(state);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Inserts (or refreshes) a report, evicting the least-recently
    /// used entry of the target shard when it is full.
    pub fn insert(&self, key: NetlistFingerprint, report: AnalysisReport) {
        let mut shard = lock(self.shard_for(key));
        shard.clock += 1;
        let stamp = shard.clock;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            // LRU eviction: scan for the smallest stamp. Shards are
            // small (capacity / SHARD_COUNT), so O(n) is fine here.
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, Entry { report, stamp });
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts `result` only when it is a finite `Ok` report: errors and
    /// poisoned (NaN/∞) metrics always re-run on the real backend.
    pub fn store(&self, key: NetlistFingerprint, result: &Result<AnalysisReport>) {
        match result {
            Ok(report) if report.performance.is_finite() => self.insert(key, report.clone()),
            _ => {}
        }
    }
}

impl Default for SimCache {
    /// A generously sized default (4096 reports ≈ a full BOBO trial's
    /// working set, a few MB at most).
    fn default() -> Self {
        SimCache::new(4096)
    }
}

/// A memoizing [`SimBackend`] wrapper around any inner backend.
///
/// See the [module docs](self) for the correctness rules, the
/// fault-stacking rule, and the sharing caveats.
#[derive(Debug, Clone)]
pub struct CachedSim<B> {
    inner: B,
    cache: Arc<SimCache>,
    salt: u64,
}

impl<B: SimBackend> CachedSim<B> {
    /// Wraps `inner` with salt 0. Use [`CachedSim::with_salt`] (or a
    /// dedicated cache) when sharing one cache across
    /// differently-configured inner backends.
    pub fn new(inner: B, cache: Arc<SimCache>) -> Self {
        CachedSim {
            inner,
            cache,
            salt: 0,
        }
    }

    /// Overrides the fingerprint salt (keyspace partition within a
    /// shared cache).
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Borrow of the inner backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The shared cache behind this wrapper.
    pub fn cache(&self) -> &Arc<SimCache> {
        &self.cache
    }

    /// Single-flight wrapper around one inner analysis: claims `fp`,
    /// runs `analyze` only when this caller leads (or its leader
    /// failed, produced an uncacheable report or was abandoned), and
    /// settles the ledger accounts.
    fn coalesced_analyze(
        &mut self,
        fp: NetlistFingerprint,
        analyze: impl Fn(&mut B) -> Result<AnalysisReport>,
    ) -> Result<AnalysisReport> {
        match self.cache.claim(fp) {
            Claim::Hit(report) => {
                self.inner.ledger_mut().record_cache_hit();
                Ok(report)
            }
            Claim::Lead(lead) => {
                let result = analyze(&mut self.inner);
                lead.publish(result.clone());
                result
            }
            Claim::Join(flight) => {
                if let Some(Ok(report)) = self.cache.wait(&flight) {
                    if report.performance.is_finite() {
                        // The leader paid for the simulation; a
                        // coalesced waiter bills retrieval cost like any
                        // other hit, plus the informational
                        // coalesced-wait count.
                        self.cache.coalesced.fetch_add(1, Ordering::Relaxed);
                        let ledger = self.inner.ledger_mut();
                        ledger.record_cache_hit();
                        ledger.record_coalesced_wait();
                        return Ok(report);
                    }
                }
                // Run our own analysis outside the single-flight
                // protocol, which guarantees termination even under
                // repeated failures (a success still fills the cache).
                self.cache.misses.fetch_add(1, Ordering::Relaxed);
                let result = analyze(&mut self.inner);
                self.cache.store(fp, &result);
                result
            }
        }
    }
}

impl CachedSim<Simulator> {
    /// Wraps a [`Simulator`], salting fingerprints with a digest of the
    /// simulator's analysis configuration — the supported way to share
    /// one cache across simulators that may have different configs.
    pub fn for_simulator(sim: Simulator, cache: Arc<SimCache>) -> Self {
        let salt = config_salt(sim.config());
        CachedSim::new(sim, cache).with_salt(salt)
    }
}

impl<B: SimBackend> SimBackend for CachedSim<B> {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        // A non-elaborating topology has no identity; it takes the real
        // error path (and is billed there) every time.
        let Some(fp) = NetlistFingerprint::of_topology(topo) else {
            return self.inner.analyze_topology(topo);
        };
        let fp = fp.with_salt(self.salt);
        self.coalesced_analyze(fp, |inner| inner.analyze_topology(topo))
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        let fp = NetlistFingerprint::of_netlist(netlist).with_salt(self.salt);
        self.coalesced_analyze(fp, |inner| inner.analyze_netlist(netlist))
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        // Claim every keyed item without waiting (a batch holds leads,
        // so it must never wait on a flight): serve the hits and
        // forward leads and joins alike as one smaller inner batch,
        // keeping its parallel fan-out. A join is another caller's key
        // or this batch's own duplicate, so duplicates within one batch
        // simulate per occurrence — the serial loop's cost. Then
        // publish the leads, which also releases concurrent
        // single-analysis waiters, and merge in input order.
        let mut out: Vec<Option<Result<AnalysisReport>>> = Vec::with_capacity(topos.len());
        let mut forwarded: Vec<(usize, Option<NetlistFingerprint>, Option<Lead>)> = Vec::new();
        for (i, topo) in topos.iter().enumerate() {
            out.push(None);
            // A non-elaborating topology has no identity; it takes the
            // real error path (and is billed there) every time.
            let Some(fp) = NetlistFingerprint::of_topology(topo) else {
                forwarded.push((i, None, None));
                continue;
            };
            let fp = fp.with_salt(self.salt);
            let lead = match self.cache.claim(fp) {
                Claim::Hit(report) => {
                    self.inner.ledger_mut().record_cache_hit();
                    out[i] = Some(Ok(report));
                    continue;
                }
                Claim::Join(_) => {
                    self.cache.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Claim::Lead(lead) => Some(lead),
            };
            forwarded.push((i, Some(fp), lead));
        }
        if !forwarded.is_empty() {
            let miss_topos: Vec<Topology> =
                forwarded.iter().map(|(i, ..)| topos[*i].clone()).collect();
            let miss_results = self.inner.analyze_batch(&miss_topos);
            for ((i, fp, lead), result) in forwarded.into_iter().zip(miss_results) {
                match (lead, fp) {
                    (Some(lead), _) => lead.publish(result.clone()),
                    (None, Some(fp)) => self.cache.store(fp, &result),
                    (None, None) => {}
                }
                out[i] = Some(result);
            }
            // Leads left unpublished (an inner batch that answered
            // short) were dropped above, abandoning their flights.
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Err(crate::SimError::BadNetlist("batch merge hole".into())))
            })
            .collect()
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        self.inner.ledger_mut()
    }

    fn drain_fault_notes(&mut self) -> Vec<String> {
        self.inner.drain_fault_notes()
    }

    fn calls_made(&self) -> u64 {
        self.inner.calls_made()
    }

    fn fast_forward_calls(&mut self, calls: u64) {
        self.inner.fast_forward_calls(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::Topology;

    fn cached() -> CachedSim<Simulator> {
        CachedSim::new(Simulator::new(), SimCache::shared(64))
    }

    #[test]
    fn hit_returns_identical_report_and_bills_the_cache_account() {
        let mut sim = cached();
        let topo = Topology::nmc_example();
        let first = sim
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        let second = sim
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(first, second);
        assert_eq!(sim.ledger().simulations(), 1);
        assert_eq!(sim.ledger().cache_hits(), 1);
        let model = crate::cost::CostModel::default();
        let uncached_twice = 2.0 * model.seconds_per_simulation;
        assert!(sim.ledger().testbed_seconds(&model) < uncached_twice);
    }

    #[test]
    fn netlist_path_is_cached_separately() {
        let mut sim = cached();
        let topo = Topology::nmc_example();
        let netlist = topo.elaborate().unwrap_or_else(|e| panic!("{e}"));
        sim.analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        // Different entry path ⇒ different fingerprint ⇒ a miss.
        sim.analyze_netlist(&netlist)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sim.ledger().simulations(), 2);
        // Now both paths hit.
        sim.analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        sim.analyze_netlist(&netlist)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sim.ledger().simulations(), 2);
        assert_eq!(sim.ledger().cache_hits(), 2);
    }

    #[test]
    fn errors_are_never_cached() {
        let mut sim = cached();
        // No CL element: analyze_netlist fails every time, and every
        // failure reaches the real backend (and its ledger).
        let n = Netlist::parse("* x\nG1 out 0 in 0 1m\nR1 out 0 10k\n.end\n")
            .unwrap_or_else(|e| panic!("{e}"));
        for _ in 0..3 {
            assert!(sim.analyze_netlist(&n).is_err());
        }
        assert_eq!(sim.ledger().cache_hits(), 0);
        assert!(sim.cache().is_empty());
    }

    #[test]
    fn shared_cache_spans_wrappers() {
        let cache = SimCache::shared(64);
        let topo = Topology::dfc_example();
        let mut a = CachedSim::new(Simulator::new(), cache.clone());
        let ra = a.analyze_topology(&topo).unwrap_or_else(|e| panic!("{e}"));
        let mut b = CachedSim::new(Simulator::new(), cache.clone());
        let rb = b.analyze_topology(&topo).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ra, rb);
        assert_eq!(a.ledger().simulations(), 1);
        assert_eq!(b.ledger().simulations(), 0);
        assert_eq!(b.ledger().cache_hits(), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn different_salts_do_not_share_entries() {
        let cache = SimCache::shared(64);
        let topo = Topology::nmc_example();
        let mut a = CachedSim::new(Simulator::new(), cache.clone()).with_salt(1);
        let mut b = CachedSim::new(Simulator::new(), cache.clone()).with_salt(2);
        a.analyze_topology(&topo).unwrap_or_else(|e| panic!("{e}"));
        b.analyze_topology(&topo).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(b.ledger().simulations(), 1, "salted entry leaked across");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = SimCache::new(SHARD_COUNT); // one entry per shard
        let netlist = Topology::nmc_example()
            .elaborate()
            .unwrap_or_else(|e| panic!("{e}"));
        let report = {
            let mut s = Simulator::new();
            s.analyze_netlist(&netlist)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let base = NetlistFingerprint::of_netlist(&netlist);
        // Salted keys are uniformly spread; pushing far more keys than
        // capacity must evict, never grow past the bound.
        for salt in 0..200u64 {
            cache.insert(base.with_salt(salt), report.clone());
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
        // Recency is honoured within a shard: insert two keys into one
        // shard of a tiny cache, touch the first, insert a third that
        // lands in the same shard — the untouched second should go.
        let keys: Vec<NetlistFingerprint> = (0..2000u64)
            .map(|s| base.with_salt(s.wrapping_mul(0x9E37_79B9)))
            .filter(|k| k.lanes()[0] % SHARD_COUNT as u64 == 0)
            .take(3)
            .collect();
        assert_eq!(keys.len(), 3, "need three same-shard keys");
        let small = SimCache::new(1); // shard capacity 1 → immediate eviction
        small.insert(keys[0], report.clone());
        small.insert(keys[1], report.clone());
        assert!(small.get(keys[0]).is_none() || small.get(keys[1]).is_none());
    }

    #[test]
    fn batch_mixes_hits_and_misses_in_input_order() {
        let mut sim = cached();
        let nmc = Topology::nmc_example();
        let dfc = Topology::dfc_example();
        // Warm only the NMC entry.
        let warm = sim.analyze_topology(&nmc).unwrap_or_else(|e| panic!("{e}"));
        let batch = sim.analyze_batch(&[dfc.clone(), nmc.clone(), dfc.clone()]);
        assert_eq!(batch.len(), 3);
        let mid = batch[1].as_ref().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(*mid, warm, "hit must return the memoized report in place");
        // DFC appeared twice as a miss: both occurrences simulated.
        assert_eq!(sim.ledger().simulations(), 3);
        assert_eq!(sim.ledger().cache_hits(), 1);
        // A rerun of the same batch is all hits.
        let rerun = sim.analyze_batch(&[dfc, nmc, Topology::nmc_example()]);
        assert!(rerun.iter().all(|r| r.is_ok()));
        assert_eq!(sim.ledger().simulations(), 3);
        assert_eq!(sim.ledger().cache_hits(), 4);
    }

    #[test]
    fn stats_display_reads_well() {
        let cache = SimCache::new(32);
        let s = cache.stats().to_string();
        assert!(s.contains("hit rate"), "{s}");
    }

    /// Inner backend that parks the single-flight *leader* (the first
    /// inner call overall) until every other session is observed
    /// blocked on its in-flight cell — makes the coalescing split fully
    /// deterministic. Later calls (e.g. a bypass after a failed leader)
    /// pass straight through: their waiters are already gone.
    struct GatedSim {
        inner: Simulator,
        cache: Arc<SimCache>,
        calls: Arc<AtomicU64>,
        expect_waiters: usize,
    }

    impl GatedSim {
        fn gate(&self) {
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                while self.cache.waiting() < self.expect_waiters {
                    std::thread::yield_now();
                }
            }
        }
    }

    impl SimBackend for GatedSim {
        fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
            self.gate();
            self.inner.analyze_topology(topo)
        }

        fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
            self.gate();
            self.inner.analyze_netlist(netlist)
        }

        fn ledger(&self) -> &CostLedger {
            self.inner.ledger()
        }

        fn ledger_mut(&mut self) -> &mut CostLedger {
            self.inner.ledger_mut()
        }
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses_exactly() {
        const SESSIONS: usize = 4;
        let cache = SimCache::shared(64);
        let calls = Arc::new(AtomicU64::new(0));
        let topo = Topology::nmc_example();
        let serial = Simulator::new()
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        let reports: Vec<(AnalysisReport, CostLedger)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let calls = Arc::clone(&calls);
                    let topo = topo.clone();
                    scope.spawn(move || {
                        let gated = GatedSim {
                            inner: Simulator::new(),
                            cache: Arc::clone(&cache),
                            calls,
                            // The leader waits for all other sessions.
                            expect_waiters: SESSIONS - 1,
                        };
                        let mut sim = CachedSim::new(gated, cache);
                        let report = sim
                            .analyze_topology(&topo)
                            .unwrap_or_else(|e| panic!("{e}"));
                        (report, *sim.ledger())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("session panicked")))
                .collect()
        });
        // Exactly one inner analysis; every report identical to serial.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        for (report, _) in &reports {
            assert_eq!(*report, serial);
        }
        // One leader billed the simulation; the other sessions billed
        // cache hits with coalesced waits.
        let sims: u64 = reports.iter().map(|(_, l)| l.simulations()).sum();
        let hits: u64 = reports.iter().map(|(_, l)| l.cache_hits()).sum();
        let waits: u64 = reports.iter().map(|(_, l)| l.coalesced_waits()).sum();
        assert_eq!(sims, 1);
        assert_eq!(hits, (SESSIONS - 1) as u64);
        assert_eq!(waits, (SESSIONS - 1) as u64);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, (SESSIONS - 1) as u64);
        assert_eq!(stats.hits, 0);
        assert!(stats.hit_rate() > 0.7, "{stats}");
        // The gauge returns to idle.
        assert_eq!(cache.waiting(), 0);
        assert_eq!(cache.in_flight_keys(), 0);
    }

    #[test]
    fn failed_leader_releases_waiters_down_the_bypass_path() {
        // No CL element ⇒ the analysis errors; errors are never cached,
        // so the waiter must run (and fail) its own inner analysis.
        let netlist = Netlist::parse("* x\nG1 out 0 in 0 1m\nR1 out 0 10k\n.end\n")
            .unwrap_or_else(|e| panic!("{e}"));
        let cache = SimCache::shared(64);
        let calls = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let netlist = netlist.clone();
                scope.spawn(move || {
                    let gated = GatedSim {
                        inner: Simulator::new(),
                        cache: Arc::clone(&cache),
                        calls,
                        expect_waiters: 1,
                    };
                    let mut sim = CachedSim::new(gated, cache);
                    assert!(sim.analyze_netlist(&netlist).is_err());
                    assert_eq!(sim.ledger().cache_hits(), 0);
                });
            }
        });
        // Both sessions reached the real backend: the leader failed and
        // the waiter bypassed rather than hanging or caching the error.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().coalesced, 0);
        assert_eq!(cache.in_flight_keys(), 0);
    }

    #[test]
    fn batch_leaders_publish_to_concurrent_single_analyses() {
        // A batch claims non-blocking leadership for its misses, so a
        // concurrent single analysis of the same topology coalesces
        // onto the batch's solve instead of duplicating it.
        let cache = SimCache::shared(64);
        let calls = Arc::new(AtomicU64::new(0));
        let topo = Topology::nmc_example();
        let batch_reports = {
            let mut sim = CachedSim::new(
                GatedSim {
                    inner: Simulator::new(),
                    cache: Arc::clone(&cache),
                    calls: Arc::clone(&calls),
                    expect_waiters: 0,
                },
                Arc::clone(&cache),
            );
            sim.analyze_batch(std::slice::from_ref(&topo))
        };
        let report = batch_reports[0].as_ref().unwrap_or_else(|e| panic!("{e}"));
        // After the batch completes its flights, a single analysis hits.
        let mut sim = CachedSim::new(Simulator::new(), Arc::clone(&cache));
        let single = sim
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(single, *report);
        assert_eq!(sim.ledger().cache_hits(), 1);
        assert_eq!(cache.in_flight_keys(), 0, "batch must deregister flights");
    }
}
