//! RLBO \[3\]: reinforcement-learning topology optimization.
//!
//! A REINFORCE policy maintains softmax logits over every position's
//! legal connection types; an episode samples a topology structure,
//! draws component values, evaluates it on the simulator, and updates
//! the logits with the policy gradient against a moving-baseline
//! advantage. This mirrors TOTAL's topology-level RL with parameter
//! sampling in the inner loop.

use crate::objective::{evaluate_batch, Objective, OptResult};
use artisan_circuit::sample::{sample_params, SampleRanges};
use artisan_circuit::{
    ConnectionType, Placement, Position, PositionRules, Skeleton, StageParams, Topology,
};
use artisan_sim::{SimBackend, Spec};
use rand::Rng;

/// RLBO configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlboConfig {
    /// Total simulation budget per trial.
    pub budget: usize,
    /// Parameter samples per sampled structure (the "BO" inner loop).
    pub params_per_structure: usize,
    /// Policy-gradient learning rate.
    pub learning_rate: f64,
    /// Moving-baseline smoothing factor.
    pub baseline_beta: f64,
}

impl Default for RlboConfig {
    fn default() -> Self {
        RlboConfig {
            budget: 500,
            params_per_structure: 4,
            learning_rate: 0.15,
            baseline_beta: 0.9,
        }
    }
}

/// The RLBO optimizer.
#[derive(Debug, Clone)]
pub struct Rlbo {
    config: RlboConfig,
    ranges: SampleRanges,
}

impl Rlbo {
    /// Creates the optimizer.
    pub fn new(config: RlboConfig) -> Self {
        Rlbo {
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
        // Policy: logits per position over its legal types.
        let legal: Vec<Vec<ConnectionType>> = Position::ALL
            .iter()
            .map(|&p| PositionRules::legal_types(p))
            .collect();
        let mut logits: Vec<Vec<f64>> = legal.iter().map(|l| vec![0.0; l.len()]).collect();
        let mut baseline = 0.0;
        let mut baseline_initialized = false;

        let mut best: Option<(f64, Topology, crate::objective::Evaluation)> = None;
        let mut used = 0;

        while used < self.config.budget {
            // Sample a structure from the policy.
            let mut choices = Vec::with_capacity(Position::ALL.len());
            for (pos_logits, _) in logits.iter().zip(&legal) {
                let max = pos_logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = pos_logits.iter().map(|l| (l - max).exp()).collect();
                let total: f64 = weights.iter().sum();
                let mut draw = rng.gen_range(0.0..total);
                let mut pick = weights.len() - 1;
                for (i, w) in weights.iter().enumerate() {
                    draw -= w;
                    if draw <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                choices.push(pick);
            }

            // Inner loop: several parameter draws for this structure.
            // Building a topology draws the RNG but evaluating it does
            // not, so all of the episode's draws happen up front (same
            // RNG stream as the serial loop) and the evaluations fan
            // out through one `analyze_batch` call; absorbing in index
            // order reproduces the serial trajectory exactly.
            let draws = self
                .config
                .params_per_structure
                .min(self.config.budget - used);
            let topos: Vec<Topology> = (0..draws)
                .map(|_| self.build(&choices, &legal, cl, rng))
                .collect();
            let evals = evaluate_batch(&topos, spec, sim);
            used += draws;
            let mut episode_best = f64::NEG_INFINITY;
            for (topo, eval) in topos.into_iter().zip(evals) {
                episode_best = episode_best.max(eval.score);
                if best.as_ref().is_none_or(|(s, _, _)| eval.score > *s) {
                    best = Some((eval.score, topo, eval));
                }
            }

            // Policy-gradient update with a squashed reward.
            let reward = if episode_best > 0.0 {
                1.0 + episode_best.ln_1p() * 0.1
            } else {
                episode_best.max(-10.0) / 10.0
            };
            if !baseline_initialized {
                baseline = reward;
                baseline_initialized = true;
            }
            let advantage = reward - baseline;
            baseline =
                self.config.baseline_beta * baseline + (1.0 - self.config.baseline_beta) * reward;
            sim.ledger_mut().record_optimizer_step();

            for ((pos_logits, _), &choice) in logits.iter_mut().zip(&legal).zip(&choices) {
                let max = pos_logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = pos_logits.iter().map(|l| (l - max).exp()).collect();
                let total: f64 = weights.iter().sum();
                for (i, l) in pos_logits.iter_mut().enumerate() {
                    let prob = weights[i] / total;
                    let grad = if i == choice { 1.0 - prob } else { -prob };
                    *l += self.config.learning_rate * advantage * grad;
                }
            }
        }

        match best {
            Some((_, topology, eval)) => OptResult {
                success: eval.feasible,
                performance: eval.performance,
                topology: Some(topology),
                evaluations: used,
            },
            None => OptResult {
                success: false,
                topology: None,
                performance: None,
                evaluations: used,
            },
        }
    }

    fn build<R: Rng + ?Sized>(
        &self,
        choices: &[usize],
        legal: &[Vec<ConnectionType>],
        cl: f64,
        rng: &mut R,
    ) -> Topology {
        let stage = |rng: &mut R| {
            let gm = artisan_circuit::sample::log_uniform(
                rng,
                self.ranges.stage_gm.0,
                self.ranges.stage_gm.1,
            );
            let gain = artisan_circuit::sample::log_uniform(
                rng,
                self.ranges.stage_gain.0,
                self.ranges.stage_gain.1,
            );
            StageParams::from_gm_and_gain(gm, gain)
        };
        let skeleton = Skeleton::new(stage(rng), stage(rng), stage(rng), 1e6, cl);
        let mut topo = Topology::new(skeleton);
        for ((pos, types), &choice) in Position::ALL.iter().zip(legal).zip(choices) {
            let conn = types[choice];
            if conn == ConnectionType::Open {
                continue;
            }
            let params = sample_params(rng, conn, &self.ranges);
            #[allow(clippy::expect_used)] // indices drawn from the legal set
            topo.place(Placement::new(*pos, conn, params))
                .expect("policy choices are legal by construction");
        }
        topo
    }
}

impl Objective for Rlbo {
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
    use artisan_sim::Simulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> RlboConfig {
        RlboConfig {
            budget: 40,
            params_per_structure: 4,
            ..RlboConfig::default()
        }
    }

    #[test]
    fn respects_budget() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(0);
        let r = Rlbo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert_eq!(r.evaluations, 40);
        assert_eq!(sim.ledger().simulations(), 40);
        assert!(sim.ledger().optimizer_steps() >= 10);
    }

    #[test]
    fn inner_loop_goes_through_the_batched_path() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(0);
        let r = Rlbo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        // Every evaluation is fanned out via analyze_batch, and batching
        // never changes the billed simulation count.
        assert_eq!(sim.ledger().batched_solves(), r.evaluations as u64);
        assert_eq!(sim.ledger().simulations(), r.evaluations as u64);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulator::new();
            let mut rng = StdRng::seed_from_u64(seed);
            Rlbo::new(tiny())
                .run(&Spec::g1(), &mut sim, &mut rng)
                .success
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn returns_best_candidate_with_consistent_flags() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let r = Rlbo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert!(r.topology.is_some());
        if r.success {
            assert!(r.performance.is_some());
        }
    }

    #[test]
    fn policy_learns_to_prefer_rewarded_choices() {
        // Smoke test of the REINFORCE update direction: after many
        // episodes on G-1 the policy's logits must have moved.
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RlboConfig {
            budget: 120,
            ..tiny()
        };
        let r = Rlbo::new(cfg).run(&Spec::g1(), &mut sim, &mut rng);
        assert_eq!(r.evaluations, 120);
    }
}
