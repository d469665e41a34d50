//! Tracing from outside the program: a timing [`SimBackend`] wrapper
//! placed between backend layers, a replay of captured candidates
//! through the simulator's public stage functions, and the per-layer
//! table every traced run reports.
//!
//! A layer's self time is the wall time of its calls minus the time
//! spent in the [`Timed`] wrapper directly below it.

use crate::{Metric, Outcome};
use artisan_circuit::{Netlist, Topology};
use artisan_serve::WorkItem;
use artisan_sim::ac::{self, SweepConfig};
use artisan_sim::cost::CostLedger;
use artisan_sim::poles::{pole_zero, PoleZeroConfig};
use artisan_sim::{AnalysisReport, MnaSystem, Result, SimBackend};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Candidates captured for the stage replay, shared by the wrappers of
/// one traced run.
pub type Sink = Rc<RefCell<Vec<WorkItem>>>;

/// Candidates kept per traced run for the stage replay.
pub const CAPTURE_LIMIT: usize = 64;

/// A [`SimBackend`] wrapper that forwards every method and accumulates
/// the wall time of the analysis calls it forwards.
#[derive(Debug)]
pub struct Timed<B> {
    inner: B,
    nanos: u128,
    candidates: u64,
    sink: Option<Sink>,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Timed<B> {
        Timed {
            inner,
            nanos: 0,
            candidates: 0,
            sink: None,
        }
    }

    /// Wraps `inner`, copying the first candidates it sees into `sink`.
    pub fn capturing(inner: B, sink: &Sink) -> Timed<B> {
        Timed {
            sink: Some(Rc::clone(sink)),
            ..Timed::new(inner)
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Seconds spent in forwarded analysis calls.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Candidates analyzed through this wrapper.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    fn capture(&self, items: impl FnOnce() -> Vec<WorkItem>) {
        if let Some(sink) = &self.sink {
            let mut sink = sink.borrow_mut();
            if sink.len() < CAPTURE_LIMIT {
                let room = CAPTURE_LIMIT - sink.len();
                sink.extend(items().into_iter().take(room));
            }
        }
    }

    fn timed<T>(&mut self, candidates: usize, call: impl FnOnce(&mut B) -> T) -> T {
        let t = Instant::now();
        let out = call(&mut self.inner);
        self.nanos += t.elapsed().as_nanos();
        self.candidates += candidates as u64;
        out
    }
}

impl<B: SimBackend> SimBackend for Timed<B> {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        self.capture(|| vec![WorkItem::Topo(topo.clone())]);
        self.timed(1, |inner| inner.analyze_topology(topo))
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        self.capture(|| vec![WorkItem::Net(netlist.clone())]);
        self.timed(1, |inner| inner.analyze_netlist(netlist))
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        self.capture(|| topos.iter().cloned().map(WorkItem::Topo).collect());
        self.timed(topos.len(), |inner| inner.analyze_batch(topos))
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

/// Mean wall time per candidate of each simulator stage, from replaying
/// captured candidates through the public stage functions the simulator
/// runs: elaborate → ERC gate → MNA build → pole/zero → AC sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// `Topology::elaborate`, µs.
    pub elaborate_us: f64,
    /// `Linter::errors_only().lint`, µs.
    pub gate_us: f64,
    /// `MnaSystem::new`, µs.
    pub mna_us: f64,
    /// `poles::pole_zero`, µs.
    pub poles_us: f64,
    /// `ac::sweep`, µs.
    pub sweep_us: f64,
    /// Share of built systems on the dense MNA path.
    pub dense_share: f64,
}

/// Replays `items` through the stages until `budget` has passed (at
/// least one pass). A candidate that fails a stage is not timed in the
/// later ones.
pub fn replay_stages(items: &[WorkItem], budget: Duration) -> StageTimes {
    let mut totals = [0.0f64; 5];
    let mut counts = [0u64; 5];
    let (mut dense, mut systems) = (0u64, 0u64);
    let pz_config = PoleZeroConfig::default();
    let sweep_config = SweepConfig::default();
    let gate = artisan_lint::Linter::errors_only();
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed() < budget {
        for item in items {
            let mut time = |stage: usize, t: Instant| {
                totals[stage] += t.elapsed().as_secs_f64() * 1e6;
                counts[stage] += 1;
            };
            let netlist = match item {
                WorkItem::Topo(topo) => {
                    let t = Instant::now();
                    let elaborated = topo.elaborate();
                    time(0, t);
                    match elaborated {
                        Ok(n) => n,
                        Err(_) => continue,
                    }
                }
                WorkItem::Net(netlist) => netlist.clone(),
            };
            let t = Instant::now();
            let report = gate.lint(&netlist);
            time(1, t);
            if report.has_errors() {
                continue;
            }
            let t = Instant::now();
            let sys = MnaSystem::new(&netlist);
            time(2, t);
            let Ok(sys) = sys else { continue };
            if first {
                systems += 1;
                dense += u64::from(!sys.is_sparse());
            }
            let t = Instant::now();
            black_box(pole_zero(&sys, &netlist, &pz_config).ok());
            time(3, t);
            let t = Instant::now();
            black_box(ac::sweep(&sys, &sweep_config).ok());
            time(4, t);
        }
        first = false;
        if items.is_empty() {
            break;
        }
    }
    let mean = |i: usize| {
        if counts[i] == 0 {
            0.0
        } else {
            totals[i] / counts[i] as f64
        }
    };
    StageTimes {
        elaborate_us: mean(0),
        gate_us: mean(1),
        mna_us: mean(2),
        poles_us: mean(3),
        sweep_us: mean(4),
        dense_share: if systems == 0 {
            0.0
        } else {
            dense as f64 / systems as f64
        },
    }
}

/// Every per-layer metric a traced run prints, with its unit. Rows
/// named in [`ROWS`] are self-time shares of `trace.wall_s` and sum to
/// `trace.attributed_share`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("trace.wall_s", "s"),
    ("trace.attributed_share", "share"),
    ("setup.dataset_share", "share"),
    ("setup.train_share", "share"),
    ("setup.warm_share", "share"),
    ("core.experiment.self_share", "share"),
    ("opt.bobo.self_share", "share"),
    ("opt.rlbo.self_share", "share"),
    ("opt.llm_baselines.self_share", "share"),
    ("agents.self_share", "share"),
    ("resilience.fault.self_share", "share"),
    ("resilience.journal_share", "share"),
    ("sim.corners.self_share", "share"),
    ("sim.cache.self_share", "share"),
    ("sim.simulator_share", "share"),
    ("serve.codec_share", "share"),
    ("serve.compute_share", "share"),
    ("serve.overhead_share", "share"),
    ("sim.analyze_us", "us"),
    ("sim.analyses_per_op", "count"),
    ("circuit.elaborate_us", "us"),
    ("lint.gate_us", "us"),
    ("sim.mna_build_us", "us"),
    ("sim.pole_zero_us", "us"),
    ("sim.ac_sweep_us", "us"),
    ("sim.mna.dense_share", "share"),
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("opt.bobo.sims_per_op", "count"),
    ("opt.rlbo.sims_per_op", "count"),
    ("resilience.attempts_per_session", "count"),
    ("resilience.faults_per_session", "count"),
    ("resilience.success_ratio", "share"),
    ("resilience.journal_bytes_per_session", "B"),
    ("resilience.durable_journal_us", "us"),
    ("sim.cache.hits_per_op", "count"),
    ("sim.cache.misses_per_op", "count"),
    ("sim.cache.hit_ratio", "share"),
    ("sim.corners.grids_per_op", "count"),
    ("sim.corners.corner_sims_per_op", "count"),
    ("serve.engine.batches_per_req", "count"),
    ("serve.engine.mean_occupancy", "count"),
    ("serve.engine.dedup_ratio", "share"),
    ("serve.engine.cache_served_ratio", "share"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.late_share", "share"),
    ("serve.max_rps", "1/s"),
];

/// The self-time rows, each reported as its share of `trace.wall_s`.
pub const ROWS: [&str; 13] = [
    "core.experiment.self_share",
    "opt.bobo.self_share",
    "opt.rlbo.self_share",
    "opt.llm_baselines.self_share",
    "agents.self_share",
    "resilience.fault.self_share",
    "resilience.journal_share",
    "sim.corners.self_share",
    "sim.cache.self_share",
    "sim.simulator_share",
    "serve.codec_share",
    "serve.compute_share",
    "serve.overhead_share",
];

/// How far the rows may sum from `trace.wall_s`.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// The per-layer table of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Ops traced.
    pub ops: u64,
    /// Total wall time of the traced ops, in seconds.
    pub wall_s: f64,
    rows: Vec<(&'static str, f64)>,
    values: Vec<(&'static str, f64)>,
}

impl LayerReport {
    /// Adds `secs` of self time to row `name`.
    pub fn row(&mut self, name: &'static str, secs: f64) {
        debug_assert!(ROWS.contains(&name), "unknown row {name}");
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.rows.push((name, secs)),
        }
    }

    /// Sets the non-row metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name) && !ROWS.contains(&name),
            "unknown metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Sets `name` to `total / ops` (0 without ops).
    pub fn per_op(&mut self, name: &'static str, total: f64) {
        let ops = self.ops.max(1) as f64;
        self.set(name, total / ops);
    }

    /// Sets the five stage-replay metrics.
    pub fn set_stages(&mut self, stages: &StageTimes) {
        self.set("circuit.elaborate_us", stages.elaborate_us);
        self.set("lint.gate_us", stages.gate_us);
        self.set("sim.mna_build_us", stages.mna_us);
        self.set("sim.pole_zero_us", stages.poles_us);
        self.set("sim.ac_sweep_us", stages.sweep_us);
        self.set("sim.mna.dense_share", stages.dense_share);
    }

    /// Sets the allocation metrics from the counts the traced ops made.
    pub fn set_allocs(&mut self, (allocations, bytes): (u64, u64)) {
        self.per_op("alloc.per_op", allocations as f64);
        self.per_op("alloc.bytes_per_op", bytes as f64);
    }

    /// Sum of the row shares.
    pub fn attributed_share(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.rows.iter().map(|(_, s)| s).sum::<f64>() / self.wall_s
    }

    /// Every [`PER_LAYER`] metric, in order; 0 for layers this run did
    /// not exercise.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.wall_s" => self.wall_s,
                    "trace.attributed_share" => self.attributed_share(),
                    _ if ROWS.contains(&name) => self
                        .rows
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, secs)| secs / self.wall_s.max(f64::MIN_POSITIVE)),
                    _ => self
                        .values
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, v)| *v),
                };
                Metric { name, value, unit }
            })
            .collect()
    }

    /// Fills `out`'s metrics and notes, and records a problem when the
    /// rows do not sum to the traced wall time.
    pub fn finish(&self, out: &mut Outcome) {
        let attributed = self.attributed_share();
        if (attributed - 1.0).abs() > ATTRIBUTION_TOLERANCE {
            out.problem(format!(
                "layer rows sum to {:.1}% of traced wall time (allowed ±{:.0}%)",
                attributed * 100.0,
                ATTRIBUTION_TOLERANCE * 100.0
            ));
        }
        out.notes.push(format!(
            "{} traced ops over {:.3}s; rows attribute {:.2}%",
            self.ops,
            self.wall_s,
            attributed * 100.0
        ));
        for (name, secs) in &self.rows {
            out.notes.push(format!(
                "  {name:<30} {:>10.4}s {:>6.2}%",
                secs,
                secs / self.wall_s.max(f64::MIN_POSITIVE) * 100.0
            ));
        }
        out.metrics = self.metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_sim::Simulator;

    #[test]
    fn timed_wrapper_is_transparent_and_counts_candidates() {
        let topos = [Topology::nmc_example(), Topology::dfc_example()];
        let sink: Sink = Rc::default();
        let mut timed = Timed::capturing(Simulator::new(), &sink);
        let batch = timed.analyze_batch(&topos);
        let single = timed.analyze_topology(&topos[0]);
        let mut plain = Simulator::new();
        assert_eq!(batch, plain.analyze_batch(&topos));
        assert_eq!(single, plain.analyze_topology(&topos[0]));
        assert_eq!(timed.candidates(), 3);
        assert_eq!(timed.ledger(), plain.ledger());
        assert!(timed.secs() > 0.0);
        assert_eq!(sink.borrow().len(), 3);
    }

    #[test]
    fn stage_replay_times_every_stage() {
        let items = [WorkItem::Topo(Topology::nmc_example())];
        let stages = replay_stages(&items, Duration::ZERO);
        for us in [
            stages.elaborate_us,
            stages.gate_us,
            stages.mna_us,
            stages.poles_us,
            stages.sweep_us,
        ] {
            assert!(us > 0.0, "{stages:?}");
        }
        assert_eq!(stages.dense_share, 1.0);
    }

    #[test]
    fn rows_are_shares_of_the_traced_wall() {
        let mut report = LayerReport {
            ops: 4,
            wall_s: 2.0,
            ..LayerReport::default()
        };
        report.row("opt.bobo.self_share", 1.5);
        report.row("sim.simulator_share", 0.25);
        report.row("sim.simulator_share", 0.25);
        report.per_op("sim.analyses_per_op", 40.0);
        let metrics = report.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("opt.bobo.self_share"), 0.75);
        assert_eq!(get("sim.simulator_share"), 0.25);
        assert_eq!(get("trace.attributed_share"), 1.0);
        assert_eq!(get("sim.analyses_per_op"), 10.0);
        assert_eq!(get("serve.max_rps"), 0.0);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let mut out = Outcome::new(crate::Workload::Table3);
        report.finish(&mut out);
        assert!(out.correct(), "{:?}", out.problems);
        report.row("agents.self_share", 0.5);
        let mut out = Outcome::new(crate::Workload::Table3);
        report.finish(&mut out);
        assert!(!out.correct(), "a 25% overshoot must fail the check");
    }
}
