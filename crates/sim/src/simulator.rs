//! The analysis pipeline: ERC admission gate, MNA build, pole/zero
//! extraction and stability, then the one AC measurement
//! ([`crate::ac`]) shared with the corner engine.
//!
//! Each candidate is one short sequential path. [`Simulator::analyze_batch`]
//! fans independent candidates over the thread pool, one candidate per
//! work item, so every report is the same arithmetic as a serial loop.

use crate::ac::{self, SweepConfig, SweepGrid};
use crate::corners::CornerSummary;
use crate::cost::CostLedger;
use crate::error::{BadNetlistReport, SimError};
use crate::metrics::{Performance, PowerModel};
use crate::mna::MnaSystem;
use crate::poles::{pole_zero, PoleZero, PoleZeroConfig};
use crate::Result;
use artisan_circuit::units::Watts;
use artisan_circuit::{Netlist, Topology};
use artisan_math::ThreadPool;

/// Analysis configuration: sweep band, pole extraction, and power model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalysisConfig {
    /// AC sweep settings.
    pub sweep: SweepConfig,
    /// Pole/zero extraction settings.
    pub pole_zero: PoleZeroConfig,
    /// Static power model.
    pub power: PowerModel,
    /// When true, an unstable circuit is an error; when false the report
    /// carries `stable = false` with AC metrics left as measured.
    pub reject_unstable: bool,
}

/// Everything one analysis produces: metrics, poles/zeros, stability.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The four metrics + FoM.
    pub performance: Performance,
    /// Extracted poles and zeros.
    pub pole_zero: PoleZero,
    /// True when all poles are in the left half-plane.
    pub stable: bool,
    /// Worst-case PVT corner verdict. `None` from a plain analysis
    /// (and from every cached snapshot); attached by
    /// [`crate::corners::CornerSim`] when corner evaluation is active.
    pub worst_case: Option<CornerSummary>,
}

/// The pre-simulation rejection rule for a topology: one that fails to
/// elaborate is `BadNetlist(<elaboration message>)`. [`admit_topology`]
/// applies it before billing.
///
/// # Errors
///
/// [`SimError::BadNetlist`] carrying the elaboration message.
pub fn elaborate_for_analysis(topo: &Topology) -> Result<Netlist> {
    topo.elaborate()
        .map_err(|e| SimError::BadNetlist(e.to_string().into()))
}

/// The pre-simulation rejection rule for a flat netlist: one without a
/// `CL` element is `BadNetlist("netlist has no CL load element")`
/// ([`admit_netlist`] applies it before billing). Returns the load
/// capacitance the FoM is rated against.
///
/// # Errors
///
/// [`SimError::BadNetlist`] when the netlist has no `CL` element.
pub fn load_capacitance(netlist: &Netlist) -> Result<f64> {
    netlist
        .find("CL")
        .map(|e| e.value())
        .ok_or_else(|| SimError::BadNetlist("netlist has no CL load element".into()))
}

/// The billing rule every testbed backend applies to one topology: one
/// that fails [`elaborate_for_analysis`] is rejected unbilled; any other
/// bills one simulation to `ledger` before compute.
///
/// # Errors
///
/// The [`elaborate_for_analysis`] rejection.
pub fn admit_topology(ledger: &mut CostLedger, topo: &Topology) -> Result<Netlist> {
    let netlist = elaborate_for_analysis(topo)?;
    ledger.record_simulation();
    Ok(netlist)
}

/// [`admit_topology`] for a flat netlist, with [`load_capacitance`] as
/// the rejection rule. Returns the load capacitance.
///
/// # Errors
///
/// The [`load_capacitance`] rejection.
pub fn admit_netlist(ledger: &mut CostLedger, netlist: &Netlist) -> Result<f64> {
    let cl = load_capacitance(netlist)?;
    ledger.record_simulation();
    Ok(cl)
}

/// The billing rule for a batch: each of its `candidates` bills one
/// simulation up front, however it fares, plus the informational
/// `batched_solves` counter.
pub fn bill_batch(ledger: &mut CostLedger, candidates: usize) {
    for _ in 0..candidates {
        ledger.record_simulation();
    }
    ledger.record_batched_solves(candidates as u64);
}

/// The simulator façade: analyzes netlists/topologies and bills each run
/// to its internal [`CostLedger`].
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulator::new();
/// let report = sim.analyze_topology(&Topology::nmc_example())?;
/// assert!(report.stable);
/// assert_eq!(sim.ledger().simulations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: AnalysisConfig,
    ledger: CostLedger,
}

impl Simulator {
    /// A simulator with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A simulator with explicit configuration.
    pub fn with_config(config: AnalysisConfig) -> Self {
        Simulator {
            config,
            ledger: CostLedger::new(),
        }
    }

    /// The analysis configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The accumulated cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Mutable access to the ledger, so callers (agents, optimizers) can
    /// bill their own LLM/optimizer steps to the same time account.
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// Analyzes a topology: elaborate, then [`Simulator::analyze_netlist`]
    /// with the topology-aware power model and the topology's load.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and analysis failures.
    pub fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        let netlist = admit_topology(&mut self.ledger, topo)?;
        let power = self.config.power.power_of_topology(topo);
        Self::compute_report(
            &self.config,
            &netlist,
            topo.skeleton.cl.value(),
            Some(power),
        )
    }

    /// Analyzes a flat netlist. The load capacitance (for FoM) is taken
    /// from the `CL` element; power comes from the netlist power model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadNetlist`] when no `CL` element exists, plus
    /// all analysis failures.
    pub fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        let cl = admit_netlist(&mut self.ledger, netlist)?;
        Self::compute_report(&self.config, netlist, cl, None)
    }

    /// Analyzes many independent topologies over the environment-sized
    /// thread pool (`ARTISAN_THREADS`), one candidate per work item,
    /// billing one simulation per candidate. Results are returned in
    /// input order and are bit-identical to a serial loop of
    /// [`Simulator::analyze_topology`] calls.
    pub fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        self.analyze_batch_with_pool(topos, &ThreadPool::from_env())
    }

    /// [`Simulator::analyze_batch`] with an explicit pool — test suites
    /// use it to pin serial/parallel equivalence per worker count.
    pub fn analyze_batch_with_pool(
        &mut self,
        topos: &[Topology],
        pool: &ThreadPool,
    ) -> Vec<Result<AnalysisReport>> {
        bill_batch(&mut self.ledger, topos.len());
        let config = self.config;
        pool.par_map_indexed(topos, |_, topo| {
            let netlist = elaborate_for_analysis(topo)?;
            let power = config.power.power_of_topology(topo);
            Self::compute_report(&config, &netlist, topo.skeleton.cl.value(), Some(power))
        })
    }

    /// The pure analysis pipeline: no billing, no `&mut self` — the
    /// shape that lets [`Simulator::analyze_batch_with_pool`] fan
    /// independent candidates over worker threads.
    fn compute_report(
        config: &AnalysisConfig,
        netlist: &Netlist,
        cl: f64,
        power_override: Option<Watts>,
    ) -> Result<AnalysisReport> {
        // ERC admission gate: reject structurally broken netlists with
        // actionable diagnostics instead of letting them surface later
        // as opaque numerical failures (a floating node would otherwise
        // become an `IllConditioned` somewhere mid-sweep). Only
        // Error-severity rules run here — warnings never block.
        let gate = artisan_lint::Linter::errors_only().lint(netlist);
        if gate.has_errors() {
            return Err(SimError::BadNetlist(BadNetlistReport::from_lint(
                "electrical-rule check failed",
                &gate,
            )));
        }

        let sys = MnaSystem::new(netlist)?;

        // Stability first: metrics of an unstable network are fiction.
        let pz = pole_zero(&sys, netlist, &config.pole_zero)?;
        let stable = pz.is_stable();
        if !stable && config.reject_unstable {
            return Err(SimError::Unstable {
                worst_pole_re: pz.worst_pole_re(),
            });
        }

        let ac = ac::measure(&sys, &SweepGrid::new(&config.sweep))?;
        let power = power_override.unwrap_or_else(|| config.power.power_of_netlist(netlist));
        Ok(AnalysisReport {
            performance: ac.with_power(power, cl),
            pole_zero: pz,
            stable,
            worst_case: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::Topology;

    #[test]
    fn nmc_example_meets_g1_shape() {
        let mut sim = Simulator::new();
        let report = sim.analyze_topology(&Topology::nmc_example()).unwrap();
        let p = &report.performance;
        // The paper's worked example: ~118 dB, ~1 MHz, PM ≈ 60°, ~50 µW.
        assert!(p.gain.value() > 100.0, "gain {}", p.gain);
        assert!(
            p.gbw.value() > 0.5e6 && p.gbw.value() < 2e6,
            "gbw {}",
            p.gbw
        );
        assert!(p.pm.value() > 45.0 && p.pm.value() < 90.0, "pm {}", p.pm);
        assert!(p.power.value() < 120e-6, "power {}", p.power);
        assert!(report.stable);
    }

    #[test]
    fn dfc_example_drives_1nf() {
        let mut sim = Simulator::new();
        let report = sim.analyze_topology(&Topology::dfc_example()).unwrap();
        assert!(report.stable, "poles {:?}", report.pole_zero.poles);
        assert!(
            report.performance.pm.value() > 30.0,
            "{}",
            report.performance
        );
    }

    #[test]
    fn nmc_without_compensation_is_underdamped_or_fails() {
        // Stripping both Miller caps from the NMC example leaves three
        // uncompensated high-gain stages: PM collapses (or the crossing
        // region rings). The simulator must expose this, not hide it.
        let mut topo = Topology::nmc_example();
        topo.clear_position(artisan_circuit::Position::N1ToOut);
        topo.clear_position(artisan_circuit::Position::N2ToOut);
        let mut sim = Simulator::new();
        match sim.analyze_topology(&topo) {
            Ok(report) => assert!(
                report.performance.pm.value() < 45.0,
                "uncompensated PM {}",
                report.performance.pm
            ),
            Err(SimError::NoUnityCrossing) | Err(SimError::IllConditioned { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn ledger_counts_analyses() {
        let mut sim = Simulator::new();
        let t = Topology::nmc_example();
        sim.analyze_topology(&t).unwrap();
        sim.analyze_topology(&t).unwrap();
        assert_eq!(sim.ledger().simulations(), 2);
    }

    #[test]
    fn batch_matches_serial_for_every_worker_count() {
        let mut topos = vec![Topology::nmc_example(), Topology::dfc_example()];
        // An uncompensated variant that may fail: error slots must line
        // up with the serial loop too.
        let mut bare = Topology::nmc_example();
        bare.clear_position(artisan_circuit::Position::N1ToOut);
        bare.clear_position(artisan_circuit::Position::N2ToOut);
        topos.push(bare);

        let serial: Vec<_> = topos
            .iter()
            .map(|t| {
                Simulator::new()
                    .analyze_topology(t)
                    .map_err(|e| e.to_string())
            })
            .collect();
        for workers in [1, 2, 8] {
            let mut sim = Simulator::new();
            let batch: Vec<_> = sim
                .analyze_batch_with_pool(&topos, &artisan_math::ThreadPool::with_workers(workers))
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect();
            assert_eq!(batch, serial, "workers = {workers}");
            // Ledger totals match the serial loop: one sim per candidate.
            assert_eq!(sim.ledger().simulations(), topos.len() as u64);
            assert_eq!(sim.ledger().batched_solves(), topos.len() as u64);
        }
    }

    #[test]
    fn analyze_netlist_requires_cl() {
        let n =
            artisan_circuit::Netlist::parse("* x\nG1 out 0 in 0 1m\nR1 out 0 10k\n.end\n").unwrap();
        let mut sim = Simulator::new();
        assert!(matches!(
            sim.analyze_netlist(&n),
            Err(SimError::BadNetlist(_))
        ));
    }

    #[test]
    fn analyze_netlist_from_text_roundtrip() {
        let topo = Topology::nmc_example();
        let text = topo.elaborate().unwrap().to_text();
        let netlist = artisan_circuit::Netlist::parse(&text).unwrap();
        let mut sim = Simulator::new();
        let report = sim.analyze_netlist(&netlist).unwrap();
        assert!(report.performance.gain.value() > 100.0);
    }

    #[test]
    fn floating_node_is_rejected_by_the_erc_gate() {
        // n1 hangs between two capacitors: singular at DC. The gate
        // must turn this into a BadNetlist carrying ERC diagnostics —
        // not an IllConditioned from deep inside the sweep.
        let n = artisan_circuit::Netlist::parse(
            "* float\nG1 out 0 in 0 1m\nC1 out n1 1p\nC2 n1 0 1p\nR1 out 0 1k\nCL out 0 1p\n.end\n",
        )
        .unwrap();
        let mut sim = Simulator::new();
        match sim.analyze_netlist(&n) {
            Err(SimError::BadNetlist(report)) => {
                assert!(!report.diagnostics.is_empty(), "{report}");
                assert!(report.codes().contains(&"ERC006"), "{:?}", report.codes());
            }
            other => panic!("expected BadNetlist with diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn infinite_sweep_bound_is_an_invalid_sweep() {
        let mut sim = Simulator::with_config(AnalysisConfig {
            sweep: SweepConfig {
                f_stop: f64::INFINITY,
                ..SweepConfig::default()
            },
            ..AnalysisConfig::default()
        });
        assert!(matches!(
            sim.analyze_topology(&Topology::nmc_example()),
            Err(SimError::InvalidSweep { f_stop, .. }) if f_stop == f64::INFINITY
        ));
    }

    #[test]
    fn reject_unstable_config() {
        let n = artisan_circuit::Netlist::parse(
            "* unstable\nG1 0 out out 0 1m\nR1 out 0 10k\nC1 out 0 1p\nR2 in out 1meg\nCL out 0 1p\n.end\n",
        )
        .unwrap();
        let mut sim = Simulator::with_config(AnalysisConfig {
            reject_unstable: true,
            ..AnalysisConfig::default()
        });
        assert!(matches!(
            sim.analyze_netlist(&n),
            Err(SimError::Unstable { .. })
        ));
    }
}
