//! The shared constrained objective (Eq. 1): maximize the FoM of Eq. (6)
//! subject to the Table 2 spec constraints.

use artisan_circuit::Topology;
use artisan_sim::{AnalysisReport, Performance, SimBackend, Spec};

/// Scalarized objective value for one evaluated candidate.
///
/// Feasible designs score their FoM; infeasible designs score the
/// negative sum of relative constraint violations — the standard
/// feasibility-first scalarization black-box optimizers use for Eq. (1).
pub fn score(perf: &Performance, spec: &Spec, stable: bool) -> f64 {
    if !stable {
        return -10.0;
    }
    let report = spec.check(perf);
    if report.success() {
        perf.fom
    } else {
        let violation: f64 = report
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| {
                // Normalize each metric's shortfall to a comparable scale.
                match c.metric {
                    "Gain" => (-c.margin / 20.0).min(3.0),
                    "PM" => (-c.margin / 30.0).min(3.0),
                    _ => (-c.margin).min(3.0),
                }
            })
            .sum();
        -violation
    }
}

/// A candidate evaluation: simulate, check, score.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The scalarized objective.
    pub score: f64,
    /// Measured performance (absent when simulation failed).
    pub performance: Option<Performance>,
    /// Whether every constraint held.
    pub feasible: bool,
}

impl Evaluation {
    /// A candidate whose simulation failed or came back non-finite: the
    /// instability penalty, no performance, infeasible.
    pub fn failed() -> Self {
        Evaluation {
            score: -10.0,
            performance: None,
            feasible: false,
        }
    }
}

/// Maps one simulator result to its [`Evaluation`]. A non-finite
/// (poisoned) report is treated like a failed simulation rather than let
/// +∞ metrics win the feasibility check.
fn evaluation_of(result: artisan_sim::Result<AnalysisReport>, spec: &Spec) -> Evaluation {
    match result {
        Ok(report) if report.performance.is_finite() => {
            let feasible = spec.check(&report.performance).success() && report.stable;
            Evaluation {
                score: score(&report.performance, spec, report.stable),
                performance: Some(report.performance),
                feasible,
            }
        }
        Ok(_) | Err(_) => Evaluation::failed(),
    }
}

/// Evaluates one topology under a spec, billing the simulation. Generic
/// over the backend so optimizers run unchanged against the plain
/// simulator or a fault-injected wrapper.
pub fn evaluate<B: SimBackend + ?Sized>(topo: &Topology, spec: &Spec, sim: &mut B) -> Evaluation {
    evaluation_of(sim.analyze_topology(topo), spec)
}

/// Evaluates many independent candidates in one [`SimBackend::analyze_batch`]
/// call, returning one [`Evaluation`] per topology in input order. The
/// per-candidate mapping is exactly [`evaluate`]'s, and the backend
/// contract guarantees batch results identical to the serial loop — so
/// optimizers can swap their inner evaluation loops for this without
/// changing a single trajectory, while a parallel backend fans the
/// solves over its thread pool.
pub fn evaluate_batch<B: SimBackend + ?Sized>(
    topos: &[Topology],
    spec: &Spec,
    sim: &mut B,
) -> Vec<Evaluation> {
    sim.analyze_batch(topos)
        .into_iter()
        .map(|result| evaluation_of(result, spec))
        .collect()
}

/// Trait implemented by every Table 3 method: run a design attempt under
/// a budget and report the outcome. Takes a `dyn` backend so one trait
/// object covers the plain simulator and every wrapper.
pub trait Objective {
    /// Runs the method against `spec`, billing all work to `sim`.
    fn optimize(
        &mut self,
        spec: &Spec,
        sim: &mut dyn SimBackend,
        rng: &mut dyn rand::RngCore,
    ) -> OptResult;
}

/// The outcome of one optimization/design trial.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Whether the returned design clears every constraint.
    pub success: bool,
    /// The best topology found.
    pub topology: Option<Topology>,
    /// Its measured performance.
    pub performance: Option<Performance>,
    /// Simulator evaluations consumed.
    pub evaluations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::units::{Decibels, Degrees, Hertz, Watts};
    use artisan_sim::Simulator;

    fn perf(gain: f64, gbw: f64, pm: f64, power: f64) -> Performance {
        Performance {
            gain: Decibels(gain),
            gbw: Hertz(gbw),
            pm: Degrees(pm),
            power: Watts(power),
            fom: Performance::fom_of(gbw, 10e-12, power),
        }
    }

    #[test]
    fn feasible_designs_score_their_fom() {
        let p = perf(100.0, 1e6, 60.0, 50e-6);
        let s = score(&p, &Spec::g1(), true);
        assert!((s - p.fom).abs() < 1e-12);
    }

    #[test]
    fn infeasible_scores_are_negative_and_ordered() {
        let close = score(&perf(84.0, 1e6, 60.0, 50e-6), &Spec::g1(), true);
        let far = score(&perf(40.0, 1e6, 60.0, 50e-6), &Spec::g1(), true);
        assert!(close < 0.0 && far < close);
    }

    #[test]
    fn instability_is_worst() {
        let s = score(&perf(100.0, 1e6, 60.0, 50e-6), &Spec::g1(), false);
        assert_eq!(s, -10.0);
    }

    #[test]
    fn evaluate_bills_the_simulator() {
        let mut sim = Simulator::new();
        let e = evaluate(&Topology::nmc_example(), &Spec::g1(), &mut sim);
        assert!(e.feasible, "{e:?}");
        assert!(e.score > 0.0);
        assert_eq!(sim.ledger().simulations(), 1);
    }

    #[test]
    fn evaluate_batch_matches_the_serial_loop() {
        let mut bare = Topology::nmc_example();
        bare.clear_position(artisan_circuit::Position::N1ToOut);
        bare.clear_position(artisan_circuit::Position::N2ToOut);
        let topos = vec![Topology::nmc_example(), Topology::dfc_example(), bare];
        let mut serial_sim = Simulator::new();
        let serial: Vec<Evaluation> = topos
            .iter()
            .map(|t| evaluate(t, &Spec::g1(), &mut serial_sim))
            .collect();
        let mut batch_sim = Simulator::new();
        let batch = evaluate_batch(&topos, &Spec::g1(), &mut batch_sim);
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.score, s.score);
            assert_eq!(b.performance, s.performance);
            assert_eq!(b.feasible, s.feasible);
        }
        assert_eq!(
            batch_sim.ledger().simulations(),
            serial_sim.ledger().simulations()
        );
        assert_eq!(batch_sim.ledger().batched_solves(), topos.len() as u64);
    }

    #[test]
    fn degenerate_topology_evaluates_to_penalty() {
        let mut sim = Simulator::new();
        // A bare skeleton with enormous gain and no compensation usually
        // still simulates; use an un-analyzable empty netlist instead by
        // breaking the load: cl = tiny is still fine, so just check an
        // uncompensated design scores worse than the NMC example.
        let good = evaluate(&Topology::nmc_example(), &Spec::g1(), &mut sim).score;
        let mut bare = Topology::nmc_example();
        bare.clear_position(artisan_circuit::Position::N1ToOut);
        bare.clear_position(artisan_circuit::Position::N2ToOut);
        let bad = evaluate(&bare, &Spec::g1(), &mut sim).score;
        assert!(bad < good);
    }
}
