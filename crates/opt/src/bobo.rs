//! BOBO [12]: Bayesian optimization of opamp topology in continuous
//! space via the graph embedding of [`crate::embedding`].
//!
//! The loop: an initial random design of experiments, then GP-fit +
//! expected-improvement proposals until the simulation budget is
//! exhausted. Every candidate costs one (Spectre-equivalent) simulation
//! and one optimizer step — which is exactly why Table 3 charges BOBO
//! hours where Artisan needs minutes.

use crate::bo::propose;
use crate::embedding::{decode, DIM};
use crate::gp::GpHyperParams;
use crate::objective::{evaluate_batch, Evaluation, Objective, OptResult};
use artisan_circuit::sample::SampleRanges;
use artisan_circuit::Topology;
use artisan_sim::{SimBackend, Spec};
use rand::Rng;

/// BOBO configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoboConfig {
    /// Total simulation budget per trial (the paper's runs imply
    /// several hundred).
    pub budget: usize,
    /// Random initial samples before the GP takes over.
    pub initial_samples: usize,
    /// Acquisition candidate-pool size.
    pub pool: usize,
    /// GP hyperparameters.
    pub gp: GpHyperParams,
    /// Sliding-window cap on the GP training set: the Cholesky fit is
    /// O(n³), so the surrogate sees the most recent `gp_window` points
    /// plus the incumbent best — standard large-budget BO practice.
    pub gp_window: usize,
}

impl Default for BoboConfig {
    fn default() -> Self {
        BoboConfig {
            budget: 450,
            initial_samples: 50,
            pool: 400,
            gp: GpHyperParams {
                lengthscale: 0.45,
                signal_variance: 1.0,
                noise_variance: 1e-3,
            },
            gp_window: 160,
        }
    }
}

/// The BOBO optimizer.
#[derive(Debug, Clone)]
pub struct Bobo {
    config: BoboConfig,
    ranges: SampleRanges,
}

impl Bobo {
    /// Creates the optimizer.
    pub fn new(config: BoboConfig) -> Self {
        Bobo {
            config,
            ranges: SampleRanges::default(),
        }
    }

    /// Runs one optimization trial against any simulation backend.
    pub fn run<B: SimBackend + ?Sized, R: Rng + ?Sized>(
        &self,
        spec: &Spec,
        sim: &mut B,
        rng: &mut R,
    ) -> OptResult {
        let cl = spec.cl.value();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut best: Option<(f64, Topology, Evaluation)> = None;

        // Absorbs one evaluated candidate exactly as the serial loop
        // did: squash the GP target, track the incumbent, then record
        // the point.
        let absorb = |x: Vec<f64>,
                      topo: Topology,
                      eval: Evaluation,
                      xs: &mut Vec<Vec<f64>>,
                      ys: &mut Vec<f64>,
                      best: &mut Option<(f64, Topology, Evaluation)>| {
            // GP targets: squash feasible FoM into a bounded scale so a
            // single huge FoM does not flatten the surrogate.
            let y = if eval.score > 0.0 {
                1.0 + eval.score.ln_1p() * 0.1
            } else {
                eval.score.max(-10.0) / 10.0
            };
            if best.as_ref().is_none_or(|(s, _, _)| eval.score > *s) {
                *best = Some((eval.score, topo, eval));
            }
            xs.push(x);
            ys.push(y);
        };

        // Phase 1 — initial design of experiments. The draws are
        // independent of any evaluation, so the whole DoE can be drawn
        // up front (identical RNG stream) and fanned out through one
        // `analyze_batch` call; absorbing in index order reproduces the
        // serial trajectory bit for bit.
        let doe = self.config.initial_samples.min(self.config.budget);
        let doe_xs: Vec<Vec<f64>> = (0..doe)
            .map(|_| (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let doe_topos: Vec<Topology> = doe_xs.iter().map(|x| decode(x, cl, &self.ranges)).collect();
        let evals = evaluate_batch(&doe_topos, spec, sim);
        for ((x, topo), eval) in doe_xs.into_iter().zip(doe_topos).zip(evals) {
            absorb(x, topo, eval, &mut xs, &mut ys, &mut best);
        }

        // Phase 2 — GP proposals, inherently sequential: each proposal
        // conditions on every previous observation.
        for _ in doe..self.config.budget {
            sim.ledger_mut().record_optimizer_step();
            // Sliding window: recent points plus the incumbent best.
            let window = self.config.gp_window.max(2);
            let start = xs.len().saturating_sub(window);
            let mut wx: Vec<Vec<f64>> = xs[start..].to_vec();
            let mut wy: Vec<f64> = ys[start..].to_vec();
            if let Some(best_idx) = ys
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
            {
                if best_idx < start {
                    wx.push(xs[best_idx].clone());
                    wy.push(ys[best_idx]);
                }
            }
            let x = propose(&wx, &wy, DIM, self.config.pool, self.config.gp, rng);
            let topo = decode(&x, cl, &self.ranges);
            let eval = evaluate_batch(std::slice::from_ref(&topo), spec, sim)
                .pop()
                .unwrap_or_else(Evaluation::failed);
            absorb(x, topo, eval, &mut xs, &mut ys, &mut best);
        }

        match best {
            Some((_, topology, eval)) => OptResult {
                success: eval.feasible,
                performance: eval.performance,
                topology: Some(topology),
                evaluations: self.config.budget,
            },
            None => OptResult {
                success: false,
                topology: None,
                performance: None,
                evaluations: self.config.budget,
            },
        }
    }
}

impl Objective for Bobo {
    fn optimize(
        &mut self,
        spec: &Spec,
        sim: &mut dyn SimBackend,
        rng: &mut dyn rand::RngCore,
    ) -> OptResult {
        self.run(spec, sim, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::tests::oracle_propose;
    use crate::objective::evaluate;
    use artisan_circuit::Netlist;
    use artisan_sim::cost::CostLedger;
    use artisan_sim::{AnalysisReport, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> BoboConfig {
        BoboConfig {
            budget: 40,
            initial_samples: 15,
            pool: 60,
            ..BoboConfig::default()
        }
    }

    #[test]
    fn respects_budget_and_bills_simulations() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(0);
        let r = Bobo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert_eq!(r.evaluations, 40);
        assert_eq!(sim.ledger().simulations(), 40);
        assert!(sim.ledger().optimizer_steps() > 0);
    }

    #[test]
    fn returns_the_best_seen_candidate() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let r = Bobo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert!(r.topology.is_some());
        // Success is not guaranteed at this budget, but the result must
        // be internally consistent.
        if r.success {
            assert!(r.performance.is_some());
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulator::new();
            let mut rng = StdRng::seed_from_u64(seed);
            Bobo::new(tiny())
                .run(&Spec::g1(), &mut sim, &mut rng)
                .success
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn batched_doe_matches_the_serial_loop() {
        // Pure-DoE config: every candidate goes through the one
        // analyze_batch fan-out. The result must equal a hand-written
        // serial loop drawing the same RNG stream.
        let config = BoboConfig {
            budget: 12,
            initial_samples: 12,
            ..tiny()
        };
        let spec = Spec::g1();
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(3);
        let r = Bobo::new(config).run(&spec, &mut sim, &mut rng);

        let ranges = SampleRanges::default();
        let mut ref_sim = Simulator::new();
        let mut ref_rng = StdRng::seed_from_u64(3);
        let mut best: Option<(f64, crate::objective::Evaluation)> = None;
        for _ in 0..12 {
            let x: Vec<f64> = (0..DIM).map(|_| ref_rng.gen_range(0.0..1.0)).collect();
            let topo = decode(&x, spec.cl.value(), &ranges);
            let eval = evaluate(&topo, &spec, &mut ref_sim);
            if best.as_ref().is_none_or(|(s, _)| eval.score > *s) {
                best = Some((eval.score, eval));
            }
        }
        let (_, expected) = best.unwrap_or_else(|| panic!("reference loop evaluated"));
        assert_eq!(r.performance, expected.performance);
        assert_eq!(r.success, expected.feasible);
        assert_eq!(
            sim.ledger().simulations(),
            ref_sim.ledger().simulations(),
            "batching must not change billed simulations"
        );
        assert_eq!(sim.ledger().batched_solves(), 12);
    }

    /// Analyzes through the plain simulator and records every topology
    /// it is asked for, in order.
    #[derive(Default)]
    struct Recording {
        sim: Simulator,
        seen: Vec<Topology>,
    }

    impl SimBackend for Recording {
        fn analyze_topology(&mut self, topo: &Topology) -> artisan_sim::Result<AnalysisReport> {
            self.seen.push(topo.clone());
            self.sim.analyze_topology(topo)
        }

        fn analyze_netlist(&mut self, netlist: &Netlist) -> artisan_sim::Result<AnalysisReport> {
            self.sim.analyze_netlist(netlist)
        }

        fn ledger(&self) -> &CostLedger {
            self.sim.ledger()
        }

        fn ledger_mut(&mut self) -> &mut CostLedger {
            self.sim.ledger_mut()
        }
    }

    #[test]
    fn sliding_window_trajectory_matches_the_oracle_loop() {
        // A 20-point window over 70 evaluations slides, and re-appends the
        // incumbent once it falls out. `table3 --quick` (45 evaluations,
        // window 160) never slides it.
        let config = BoboConfig {
            budget: 70,
            initial_samples: 10,
            pool: 37,
            gp_window: 20,
            ..BoboConfig::default()
        };
        let spec = Spec::g1();
        let mut sim = Recording::default();
        let r = Bobo::new(config).run(&spec, &mut sim, &mut StdRng::seed_from_u64(5));
        assert_eq!(r.evaluations, 70);

        // Reference: the serial loop, proposing through the one-query
        // oracle.
        let ranges = SampleRanges::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ref_sim = Simulator::new();
        let mut seen = Vec::new();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut reappended = 0;
        for step in 0..config.budget {
            let x = if step < config.initial_samples {
                (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect()
            } else {
                let start = xs.len().saturating_sub(config.gp_window);
                let mut wx = xs[start..].to_vec();
                let mut wy = ys[start..].to_vec();
                let (best_idx, _) = ys
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap();
                if best_idx < start {
                    wx.push(xs[best_idx].clone());
                    wy.push(ys[best_idx]);
                    reappended += 1;
                }
                oracle_propose(&wx, &wy, DIM, config.pool, config.gp, &mut rng)
            };
            let topo = decode(&x, spec.cl.value(), &ranges);
            let eval = evaluate(&topo, &spec, &mut ref_sim);
            seen.push(topo);
            ys.push(if eval.score > 0.0 {
                1.0 + eval.score.ln_1p() * 0.1
            } else {
                eval.score.max(-10.0) / 10.0
            });
            xs.push(x);
        }
        assert!(reappended > 0, "the incumbent never left the window");
        assert_eq!(sim.seen.len(), seen.len());
        for (step, (got, want)) in sim.seen.iter().zip(&seen).enumerate() {
            assert_eq!(got, want, "analyzed topology {step}");
        }
    }

    #[test]
    fn tiny_budget_rarely_succeeds_on_g4() {
        // The shape behind Table 3: the low-power corner defeats random
        // exploration.
        let mut successes = 0;
        for seed in 0..5 {
            let mut sim = Simulator::new();
            let mut rng = StdRng::seed_from_u64(seed);
            if Bobo::new(tiny())
                .run(&Spec::g4(), &mut sim, &mut rng)
                .success
            {
                successes += 1;
            }
        }
        assert!(successes <= 1, "G-4 succeeded {successes}/5 at tiny budget");
    }
}
