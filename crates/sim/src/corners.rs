//! PVT corner-grid evaluation.
//!
//! Sign-off quality verification scores a candidate not at one nominal
//! operating point but across a grid of process/voltage/temperature
//! corners. At the behavioural level of this workspace a corner is a
//! *value-only* mutation of the nominal netlist: the topology is
//! untouched, so each corner builds its own small [`MnaSystem`] from the
//! scaled values and differs from the nominal analysis only in those
//! values.
//!
//! # Corner model
//!
//! A [`CornerPoint`] carries three scale factors, one per grid axis:
//!
//! - **temperature** → `r_scale`: resistances drift with temperature
//!   (first-order TCR), so every resistor's ohms are multiplied.
//! - **supply** → `gm_scale`: bias currents track the rails, so every
//!   VCCS transconductance is multiplied; static power scales with both
//!   the rail and the currents, i.e. by `gm_scale²` (the
//!   [`crate::metrics::PowerModel`] is linear in `vdd` *and* in each
//!   `gm`).
//! - **load** → `cl_scale`: only the `CL`-labelled load capacitor is
//!   multiplied, and the FoM is recomputed against the scaled load.
//!
//! Corner evaluation is the AC-margin methodology: gain, GBW, and phase
//! margin are re-measured per corner from the scaled system, through
//! the same crate-private AC measurement the nominal
//! [`crate::Simulator`] pipeline calls; pole/zero extraction and the
//! ERC admission gate run once on the nominal netlist only (a positive
//! value-only scaling changes neither the lint verdict nor which
//! analysis the corner needs). Multiplication by `1.0` is bit-exact in
//! IEEE-754, so the nominal corner's metrics are the plain analysis's
//! by construction (still property-pinned in
//! `crates/sim/tests/properties.rs`).
//!
//! # Caching and cost
//!
//! [`CornerSim<B>`] memoizes whole-grid verdicts ([`CornerSummary`]) in
//! a shared [`SimCache`] side map under [`CORNER_NAMESPACE_SALT`], keyed
//! by the nominal fingerprint salted with the grid and the analysis
//! configuration — a repeated candidate pays one cache hit for its
//! entire grid. Fresh grids bill
//! [`crate::cost::CostLedger::record_corner_sims`], a distinct account
//! cheaper than full simulations because the admission gate and the
//! pole/zero extraction run once per grid, not once per corner.
//!
//! # Stacking rule
//!
//! Compose `FaultySim<CornerSim<CachedSim<B>>>` — faults outermost (see
//! the cache module docs), corners **outside** the report cache. The
//! corner layer makes exactly one inner backend call per outer call and
//! evaluates the grid directly on [`MnaSystem`] — never through the
//! inner backend — so fault call-indices, cache hit/miss patterns, and
//! every non-`worst_case` report field are bit-identical to the stack
//! without the corner layer; the wrapper only *attaches*
//! [`AnalysisReport::worst_case`] to successful inner reports. The
//! chaos suite in `artisan-resilience` pins exact replay, field
//! preservation, and billed-seconds conservation for this stack. To run
//! without corner sign-off, do not stack the wrapper.

use crate::ac::{self, SweepGrid};
use crate::backend::SimBackend;
use crate::cache::SimCache;
use crate::cost::CostLedger;
use crate::fingerprint::{config_salt, NetlistFingerprint};
use crate::metrics::Performance;
use crate::mna::MnaSystem;
use crate::simulator::{load_capacitance, AnalysisConfig, AnalysisReport};
use crate::wire;
use crate::Result;
use artisan_circuit::units::{Farads, Ohms, Siemens, Watts};
use artisan_circuit::{Element, Netlist, Topology};
use artisan_math::ThreadPool;
use std::sync::Arc;

/// Fingerprint salt separating memoized corner verdicts from memoized
/// [`AnalysisReport`]s and lint verdicts inside a shared [`SimCache`].
/// Applied *on top of* the grid/config salt, so a corner key can never
/// collide with a report or lint key.
pub const CORNER_NAMESPACE_SALT: u64 = 0x434f_524e_4752_4944; // "CORNGRID"

/// One corner: three value-only scale factors (see the
/// [module docs](self) for the physical mapping). `CornerPoint::default`
/// is the nominal point (all factors `1.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerPoint {
    /// Multiplier on every resistor's ohms (temperature axis).
    pub r_scale: f64,
    /// Multiplier on every VCCS transconductance (supply axis); static
    /// power scales by its square.
    pub gm_scale: f64,
    /// Multiplier on the `CL`-labelled load capacitor (load axis).
    pub cl_scale: f64,
}

impl Default for CornerPoint {
    fn default() -> Self {
        CornerPoint {
            r_scale: 1.0,
            gm_scale: 1.0,
            cl_scale: 1.0,
        }
    }
}

impl CornerPoint {
    /// Whether this is the nominal point (every factor exactly `1.0`).
    pub fn is_nominal(&self) -> bool {
        self.r_scale == 1.0 && self.gm_scale == 1.0 && self.cl_scale == 1.0
    }

    /// The value-only scaled variant of `netlist`: same elements, same
    /// nodes, same labels, values multiplied per axis. Scaling by `1.0`
    /// reproduces the input values bit-for-bit.
    pub fn apply(&self, netlist: &Netlist) -> Netlist {
        let elements = netlist
            .elements()
            .iter()
            .map(|e| match e {
                Element::Resistor { label, a, b, ohms } => Element::Resistor {
                    label: label.clone(),
                    a: *a,
                    b: *b,
                    ohms: Ohms(ohms.value() * self.r_scale),
                },
                Element::Capacitor {
                    label,
                    a,
                    b,
                    farads,
                } => Element::Capacitor {
                    label: label.clone(),
                    a: *a,
                    b: *b,
                    farads: if label == "CL" {
                        Farads(farads.value() * self.cl_scale)
                    } else {
                        Farads(farads.value())
                    },
                },
                Element::Vccs {
                    label,
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gm,
                } => Element::Vccs {
                    label: label.clone(),
                    out_p: *out_p,
                    out_n: *out_n,
                    ctrl_p: *ctrl_p,
                    ctrl_n: *ctrl_n,
                    gm: Siemens(gm.value() * self.gm_scale),
                },
            })
            .collect();
        Netlist::new(netlist.title(), elements)
    }
}

/// A PVT grid: the cartesian product of per-axis scale lists. The
/// default is the 3×3×3 sign-off grid (27 corners): ±10 % temperature
/// drift on resistances, ±10 % supply on transconductances, and a
/// 0.5×/2× load spread.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerGrid {
    /// Temperature-axis resistor scales.
    pub temperature: Vec<f64>,
    /// Supply-axis transconductance scales.
    pub supply: Vec<f64>,
    /// Load-axis `CL` scales.
    pub load: Vec<f64>,
}

impl Default for CornerGrid {
    fn default() -> Self {
        CornerGrid {
            temperature: vec![0.9, 1.0, 1.1],
            supply: vec![0.9, 1.0, 1.1],
            load: vec![0.5, 1.0, 2.0],
        }
    }
}

impl CornerGrid {
    /// The degenerate grid holding only the nominal point — useful for
    /// identity testing and as the cheapest possible corner config.
    pub fn nominal() -> Self {
        CornerGrid {
            temperature: vec![1.0],
            supply: vec![1.0],
            load: vec![1.0],
        }
    }

    /// Number of corners in the grid.
    pub fn len(&self) -> usize {
        self.temperature.len() * self.supply.len() * self.load.len()
    }

    /// Whether the grid is empty (any axis without points).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid expanded to corner points in deterministic order:
    /// temperature outermost, then supply, then load.
    pub fn corners(&self) -> Vec<CornerPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &r_scale in &self.temperature {
            for &gm_scale in &self.supply {
                for &cl_scale in &self.load {
                    out.push(CornerPoint {
                        r_scale,
                        gm_scale,
                        cl_scale,
                    });
                }
            }
        }
        out
    }

    /// A 64-bit digest of the grid (FNV-1a over axis lengths and `f64`
    /// bit patterns) — folded into corner-verdict cache keys so two
    /// grids can share one [`SimCache`] without cross-talk.
    pub fn salt(&self) -> u64 {
        let mut bytes = Vec::new();
        for axis in [&self.temperature, &self.supply, &self.load] {
            wire::push_u64(&mut bytes, axis.len() as u64);
            for &v in axis {
                wire::push_f64(&mut bytes, v);
            }
        }
        wire::fnv1a64(&bytes)
    }
}

/// The worst corner per metric: a composite [`Performance`] (each field
/// the worst value observed across the grid) plus the corner that
/// produced each field. Ties keep the earliest corner in grid order, so
/// the summary is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCase {
    /// Per-metric worst composite: minimum gain, GBW, PM, and FoM,
    /// maximum power. Always finite (non-finite corners count as
    /// failing instead of folding in).
    pub performance: Performance,
    /// Corner producing the minimum gain.
    pub gain_corner: CornerPoint,
    /// Corner producing the minimum GBW.
    pub gbw_corner: CornerPoint,
    /// Corner producing the minimum phase margin.
    pub pm_corner: CornerPoint,
    /// Corner producing the maximum power.
    pub power_corner: CornerPoint,
    /// Corner producing the minimum FoM.
    pub fom_corner: CornerPoint,
}

/// The verdict of one grid evaluation: how many corners ran, how many
/// failed (error or non-finite metrics), and the per-metric worst case
/// over the survivors (`None` when every corner failed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSummary {
    /// Corners evaluated (the grid size).
    pub corners: u32,
    /// Corners that errored or produced non-finite metrics.
    pub failing: u32,
    /// Worst corner per metric over the finite successes.
    pub worst: Option<WorstCase>,
}

impl CornerSummary {
    /// Whether every corner produced finite metrics.
    pub fn all_passed(&self) -> bool {
        self.failing == 0 && self.worst.is_some()
    }
}

/// Evaluates one corner: scale the netlist, build its MNA system, take
/// the nominal analysis's AC measurement over `grid` (DC gain, GBW and
/// phase margin at the first unity crossing), then rescale power and
/// FoM analytically from the nominal power (see the
/// [module docs](self)). `grid` is the analysis configuration's
/// [`SweepGrid`], built once for a batch of corners.
///
/// # Errors
///
/// Propagates system-building and solver failures; a missing unity
/// crossing at the corner is [`SimError::NoUnityCrossing`] exactly as in
/// the nominal analysis.
///
/// [`SimError::NoUnityCrossing`]: crate::SimError::NoUnityCrossing
pub fn evaluate_corner(
    grid: &SweepGrid,
    netlist: &Netlist,
    cl: f64,
    nominal_power: Watts,
    corner: CornerPoint,
) -> Result<Performance> {
    let scaled = corner.apply(netlist);
    let sys = MnaSystem::new(&scaled)?;
    let ac = ac::measure(&sys, grid)?;
    // Supply scales both the rail and every branch current, so power
    // goes with gm_scale²; the load axis re-rates the FoM. Both are
    // bit-exact at the nominal point (×1.0).
    let power = Watts(nominal_power.value() * corner.gm_scale * corner.gm_scale);
    Ok(ac.with_power(power, cl * corner.cl_scale))
}

/// Folds per-corner outcomes (in grid order) into a [`CornerSummary`].
/// Non-finite successes count as failing; ties keep the earlier corner.
pub fn summarize(corners: &[CornerPoint], outcomes: &[Result<Performance>]) -> CornerSummary {
    debug_assert_eq!(corners.len(), outcomes.len());
    let mut failing = 0u32;
    let mut worst: Option<WorstCase> = None;
    for (corner, outcome) in corners.iter().zip(outcomes) {
        let perf = match outcome {
            Ok(p) if p.is_finite() => *p,
            _ => {
                failing += 1;
                continue;
            }
        };
        worst = Some(match worst {
            None => WorstCase {
                performance: perf,
                gain_corner: *corner,
                gbw_corner: *corner,
                pm_corner: *corner,
                power_corner: *corner,
                fom_corner: *corner,
            },
            Some(mut w) => {
                if perf.gain.value() < w.performance.gain.value() {
                    w.performance.gain = perf.gain;
                    w.gain_corner = *corner;
                }
                if perf.gbw.value() < w.performance.gbw.value() {
                    w.performance.gbw = perf.gbw;
                    w.gbw_corner = *corner;
                }
                if perf.pm.value() < w.performance.pm.value() {
                    w.performance.pm = perf.pm;
                    w.pm_corner = *corner;
                }
                if perf.power.value() > w.performance.power.value() {
                    w.performance.power = perf.power;
                    w.power_corner = *corner;
                }
                if perf.fom < w.performance.fom {
                    w.performance.fom = perf.fom;
                    w.fom_corner = *corner;
                }
                w
            }
        });
    }
    CornerSummary {
        corners: corners.len() as u32,
        failing,
        worst,
    }
}

/// The [`SimBackend`] wrapper that attaches a worst-case corner verdict
/// to every successful inner report.
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::corners::{CornerGrid, CornerSim};
/// use artisan_sim::{SimBackend, Simulator};
///
/// let mut sim = CornerSim::new(Simulator::new(), CornerGrid::default());
/// let report = sim.analyze_topology(&Topology::nmc_example()).unwrap();
/// let wc = report.worst_case.expect("corner summary attached");
/// assert_eq!(wc.corners, 27);
/// assert_eq!(sim.ledger().corner_sims(), 27);
/// ```
#[derive(Debug)]
pub struct CornerSim<B> {
    inner: B,
    grid: CornerGrid,
    config: AnalysisConfig,
    cache: Option<Arc<SimCache>>,
    salt: u64,
    grids_evaluated: u64,
}

impl<B: SimBackend> CornerSim<B> {
    /// Wraps `inner` with the default [`AnalysisConfig`] (matching
    /// [`crate::Simulator::new`]) and no verdict memoization.
    pub fn new(inner: B, grid: CornerGrid) -> Self {
        CornerSim {
            inner,
            grid,
            config: AnalysisConfig::default(),
            cache: None,
            salt: 0,
            grids_evaluated: 0,
        }
    }

    /// Overrides the analysis configuration used for corner sweeps.
    /// Must match the inner backend's configuration for the nominal
    /// corner to be bit-identical to the inner report.
    #[must_use]
    pub fn with_config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Memoizes grid verdicts in `cache` under the corner namespace
    /// (shareable with [`crate::CachedSim`] / [`crate::ScreenedSim`] —
    /// the key spaces are disjoint by construction).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Adds `salt` to the verdict keys on top of the automatic
    /// grid/config salt, mirroring [`crate::CachedSim::with_salt`].
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// The grid this wrapper evaluates.
    pub fn grid(&self) -> &CornerGrid {
        &self.grid
    }

    /// Number of grids this wrapper computed fresh (cache hits
    /// excluded).
    pub fn grids_evaluated(&self) -> u64 {
        self.grids_evaluated
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn verdict_key(&self, fp: NetlistFingerprint) -> NetlistFingerprint {
        fp.with_salt(CORNER_NAMESPACE_SALT)
            .with_salt(self.grid.salt() ^ config_salt(&self.config))
            .with_salt(self.salt)
    }

    /// Grid verdicts for `candidates`, in order. Each is served from the
    /// cache (billing a hit) or computed fresh (billing
    /// `record_corner_sims` for its grid). Fresh grids run as one
    /// flattened (candidate × corner) work list over the pool, so even a
    /// single candidate keeps every worker busy. Corner verdicts are
    /// pure functions of the (netlist, grid, config) triple, so — like
    /// lint verdicts — every outcome is cacheable.
    fn verdicts(&mut self, candidates: &[Candidate]) -> Vec<CornerSummary> {
        let mut summaries: Vec<Option<CornerSummary>> = candidates
            .iter()
            .map(|c| {
                let summary = self
                    .cache
                    .as_ref()?
                    .corner_verdict(self.verdict_key(c.fp))?;
                self.inner.ledger_mut().record_cache_hit();
                Some(summary)
            })
            .collect();
        // One work unit per (fresh candidate, corner).
        let fresh: Vec<usize> = (0..candidates.len())
            .filter(|&i| summaries[i].is_none())
            .collect();
        let corners = self.grid.corners();
        let units: Vec<(&Candidate, CornerPoint)> = fresh
            .iter()
            .flat_map(|&i| corners.iter().map(move |&corner| (&candidates[i], corner)))
            .collect();
        let grid = SweepGrid::new(&self.config.sweep);
        let outcomes = ThreadPool::from_env().par_map_indexed(&units, |_, &(c, corner)| {
            evaluate_corner(&grid, &c.netlist, c.cl, c.power, corner)
        });
        // Fold per candidate in grid order and publish.
        for (k, &i) in fresh.iter().enumerate() {
            let per = &outcomes[k * corners.len()..(k + 1) * corners.len()];
            let summary = summarize(&corners, per);
            self.grids_evaluated += 1;
            self.inner
                .ledger_mut()
                .record_corner_sims(corners.len() as u64);
            if let Some(cache) = &self.cache {
                cache.store_corner_verdict(self.verdict_key(candidates[i].fp), summary);
            }
            summaries[i] = Some(summary);
        }
        summaries.into_iter().flatten().collect()
    }
}

/// A successfully analyzed candidate awaiting its grid verdict: its
/// nominal fingerprint and netlist, its load, and its nominal power.
struct Candidate {
    fp: NetlistFingerprint,
    netlist: Netlist,
    cl: f64,
    power: Watts,
}

impl Candidate {
    /// The candidate for a topology-path report, or `None` when it
    /// cannot be elaborated (the inner backend already reported that
    /// case authoritatively).
    fn of_topology(topo: &Topology, report: &AnalysisReport) -> Option<Candidate> {
        Some(Candidate {
            fp: NetlistFingerprint::of_topology(topo)?,
            netlist: topo.elaborate().ok()?,
            cl: topo.skeleton.cl.value(),
            power: report.performance.power,
        })
    }

    /// The candidate for a netlist-path report, or `None` without a
    /// `CL` load.
    fn of_netlist(netlist: &Netlist, report: &AnalysisReport) -> Option<Candidate> {
        Some(Candidate {
            fp: NetlistFingerprint::of_netlist(netlist),
            netlist: netlist.clone(),
            cl: load_capacitance(netlist).ok()?,
            power: report.performance.power,
        })
    }
}

impl<B: SimBackend> SimBackend for CornerSim<B> {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        // Inner first, unconditionally: exactly one inner call per
        // outer call keeps fault dice and cache patterns untouched.
        let mut report = self.inner.analyze_topology(topo)?;
        if !self.grid.is_empty() {
            if let Some(candidate) = Candidate::of_topology(topo, &report) {
                report.worst_case = self.verdicts(&[candidate]).pop();
            }
        }
        Ok(report)
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        let mut report = self.inner.analyze_netlist(netlist)?;
        if !self.grid.is_empty() {
            if let Some(candidate) = Candidate::of_netlist(netlist, &report) {
                report.worst_case = self.verdicts(&[candidate]).pop();
            }
        }
        Ok(report)
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        let mut results = self.inner.analyze_batch(topos);
        if self.grid.is_empty() {
            return results;
        }
        // `slots` indexes the successful reports in `results`.
        let (slots, candidates): (Vec<usize>, Vec<Candidate>) = results
            .iter()
            .enumerate()
            .filter_map(|(i, result)| {
                let report = result.as_ref().ok()?;
                Some((i, Candidate::of_topology(&topos[i], report)?))
            })
            .unzip();
        for (slot, summary) in slots.into_iter().zip(self.verdicts(&candidates)) {
            if let Ok(report) = &mut results[slot] {
                report.worst_case = Some(summary);
            }
        }
        results
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
    use crate::cache::CachedSim;
    use crate::simulator::Simulator;

    #[test]
    fn default_grid_is_3x3x3_with_nominal_inside() {
        let grid = CornerGrid::default();
        assert_eq!(grid.len(), 27);
        let corners = grid.corners();
        assert_eq!(corners.len(), 27);
        assert_eq!(corners.iter().filter(|c| c.is_nominal()).count(), 1);
        // Deterministic order: first corner is the (low, low, low) one.
        assert_eq!(
            corners[0],
            CornerPoint {
                r_scale: 0.9,
                gm_scale: 0.9,
                cl_scale: 0.5
            }
        );
    }

    #[test]
    fn nominal_apply_is_bit_identical() {
        let netlist = Topology::nmc_example().elaborate().unwrap();
        let scaled = CornerPoint::default().apply(&netlist);
        assert_eq!(scaled.elements(), netlist.elements());
        for (a, b) in netlist.elements().iter().zip(scaled.elements()) {
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
    }

    #[test]
    fn apply_scales_each_axis_independently() {
        let netlist = Netlist::parse(
            "* scale\nG1 out 0 in 0 1m\nR1 out 0 10k\nC1 out n1 1p\nCL out 0 10p\nR2 n1 0 1k\n.end\n",
        )
        .unwrap();
        let corner = CornerPoint {
            r_scale: 1.1,
            gm_scale: 0.9,
            cl_scale: 2.0,
        };
        let scaled = corner.apply(&netlist);
        assert_eq!(scaled.find("R1").unwrap().value(), 10e3 * 1.1);
        assert_eq!(scaled.find("R2").unwrap().value(), 1e3 * 1.1);
        assert_eq!(scaled.find("G1").unwrap().value(), 1e-3 * 0.9);
        // Only the CL-labelled capacitor takes the load scale.
        assert_eq!(scaled.find("CL").unwrap().value(), 10e-12 * 2.0);
        assert_eq!(scaled.find("C1").unwrap().value(), 1e-12);
    }

    #[test]
    fn grid_salt_separates_grids() {
        let a = CornerGrid::default();
        let b = CornerGrid::nominal();
        assert_ne!(a.salt(), b.salt());
        assert_eq!(a.salt(), CornerGrid::default().salt());
        // Moving a value across axes changes the digest.
        let c = CornerGrid {
            temperature: vec![1.0, 1.1],
            supply: vec![1.0],
            load: vec![1.0],
        };
        let d = CornerGrid {
            temperature: vec![1.0],
            supply: vec![1.0, 1.1],
            load: vec![1.0],
        };
        assert_ne!(c.salt(), d.salt());
    }

    #[test]
    fn corner_sim_attaches_worst_case_and_bills_corner_sims() {
        let topo = Topology::nmc_example();
        let mut plain = Simulator::new();
        let nominal = plain.analyze_topology(&topo).unwrap();
        let mut sim = CornerSim::new(Simulator::new(), CornerGrid::default());
        let report = sim.analyze_topology(&topo).unwrap();
        // Every non-corner field is untouched.
        assert_eq!(report.performance, nominal.performance);
        assert_eq!(report.pole_zero, nominal.pole_zero);
        assert_eq!(report.stable, nominal.stable);
        let wc = report.worst_case.expect("summary attached");
        assert_eq!(wc.corners, 27);
        let worst = wc.worst.expect("some corner succeeded");
        // Worst-case metrics can only be as good as nominal.
        assert!(worst.performance.gain.value() <= nominal.performance.gain.value());
        assert!(worst.performance.pm.value() <= nominal.performance.pm.value());
        assert!(worst.performance.power.value() >= nominal.performance.power.value());
        assert_eq!(sim.ledger().corner_sims(), 27);
        assert_eq!(sim.ledger().simulations(), 1);
        assert_eq!(sim.grids_evaluated(), 1);
    }

    #[test]
    fn verdicts_are_memoized_in_a_shared_cache() {
        let cache = SimCache::shared(64);
        let mut sim = CornerSim::new(
            CachedSim::new(Simulator::new(), Arc::clone(&cache)),
            CornerGrid::default(),
        )
        .with_cache(Arc::clone(&cache));
        let topo = Topology::nmc_example();
        let first = sim.analyze_topology(&topo).unwrap();
        let second = sim.analyze_topology(&topo).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.worst_case, second.worst_case);
        // One fresh grid; the repeat is a report hit plus a verdict hit.
        assert_eq!(sim.ledger().corner_sims(), 27);
        assert_eq!(sim.grids_evaluated(), 1);
        assert_eq!(sim.ledger().simulations(), 1);
        assert_eq!(sim.ledger().cache_hits(), 2);
    }

    #[test]
    fn batch_matches_singles_and_flattens_over_candidates() {
        let topos = vec![Topology::nmc_example(), Topology::dfc_example()];
        let mut singles = Vec::new();
        for topo in &topos {
            let mut sim = CornerSim::new(Simulator::new(), CornerGrid::default());
            singles.push(sim.analyze_topology(topo).unwrap());
        }
        let mut sim = CornerSim::new(Simulator::new(), CornerGrid::default());
        let batch = sim.analyze_batch(&topos);
        assert_eq!(batch.len(), 2);
        for (b, s) in batch.iter().zip(&singles) {
            assert_eq!(b.as_ref().unwrap(), s);
        }
        assert_eq!(sim.ledger().corner_sims(), 54);
        assert_eq!(sim.grids_evaluated(), 2);
    }

    #[test]
    fn batch_serves_cached_verdicts_without_reevaluating() {
        let cache = SimCache::shared(64);
        let mut sim = CornerSim::new(
            CachedSim::new(Simulator::new(), Arc::clone(&cache)),
            CornerGrid::default(),
        )
        .with_cache(Arc::clone(&cache));
        let topos = vec![Topology::nmc_example(), Topology::dfc_example()];
        let cold = sim.analyze_batch(&topos);
        assert_eq!(sim.ledger().corner_sims(), 54);
        let warm = sim.analyze_batch(&topos);
        // Identical verdicts, zero fresh corner sims on the warm pass.
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.as_ref().unwrap(), w.as_ref().unwrap());
        }
        assert_eq!(sim.ledger().corner_sims(), 54);
        assert_eq!(sim.grids_evaluated(), 2);
    }

    #[test]
    fn failing_corners_are_counted_not_fatal() {
        // An aggressive load spread can push a marginal design past its
        // unity crossing; the summary must absorb that as a failing
        // corner, not an error. Use a grid whose extreme load kills the
        // crossing for a sub-unity-gain corner instead: scale gm to
        // nearly zero so |H| never reaches 1.
        let topo = Topology::nmc_example();
        let grid = CornerGrid {
            temperature: vec![1.0],
            supply: vec![1e-9, 1.0],
            load: vec![1.0],
        };
        let mut sim = CornerSim::new(Simulator::new(), grid);
        let report = sim.analyze_topology(&topo).unwrap();
        let wc = report.worst_case.unwrap();
        assert_eq!(wc.corners, 2);
        assert_eq!(wc.failing, 1, "the near-zero-gm corner must fail");
        assert!(wc.worst.is_some());
        assert!(!wc.all_passed());
    }
}
