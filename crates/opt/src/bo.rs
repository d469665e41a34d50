//! Expected-improvement Bayesian optimization over the unit hypercube.

use crate::gp::{GaussianProcess, GpHyperParams};
use artisan_math::DMatrix;
use rand::Rng;

/// Standard normal PDF.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7 — far below acquisition noise).
fn big_phi(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// Expected improvement of a maximization problem at posterior
/// `(mean, variance)` over the incumbent `best`.
pub fn expected_improvement(mean: f64, variance: f64, best: f64) -> f64 {
    let sd = variance.sqrt().max(1e-12);
    let z = (mean - best) / sd;
    (mean - best) * big_phi(z) + sd * phi(z)
}

/// One BO proposal step: fit a GP on the history and return the
/// candidate (from a random pool of `pool` points in `[0,1]^dim`) with
/// maximal expected improvement, predicting the pool in one
/// [`GaussianProcess::predict_pool`] call. Falls back to a random point
/// when the GP cannot be fitted (e.g. a single observation), and to a
/// random point drawn before the pool when no candidate's EI exceeds −∞.
pub fn propose<R: Rng + ?Sized>(
    history_x: &[Vec<f64>],
    history_y: &[f64],
    dim: usize,
    pool: usize,
    hp: GpHyperParams,
    rng: &mut R,
) -> Vec<f64> {
    let random_point =
        |rng: &mut R| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };

    if history_x.len() < 2 {
        return random_point(rng);
    }
    let Ok(gp) = GaussianProcess::fit(history_x, history_y, hp) else {
        return random_point(rng);
    };
    let best = history_y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let fallback = random_point(rng);
    // One row per candidate, drawn in row-major order: the RNG stream of
    // drawing the candidates one by one.
    let candidates = DMatrix::from_fn(pool, dim, |_, _| rng.gen_range(0.0..1.0));
    let mut best_row = None;
    let mut best_ei = f64::NEG_INFINITY;
    for (row, (m, v)) in gp.predict_pool(&candidates).into_iter().enumerate() {
        let ei = expected_improvement(m, v, best);
        if ei > best_ei {
            best_ei = ei;
            best_row = Some(row);
        }
    }
    best_row.map_or(fallback, |row| candidates.row(row).to_vec())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gp::tests::oracle_predict;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// `propose` as it was before pool prediction: each candidate drawn
    /// and predicted on its own through the one-query oracle.
    pub(crate) fn oracle_propose<R: Rng + ?Sized>(
        history_x: &[Vec<f64>],
        history_y: &[f64],
        dim: usize,
        pool: usize,
        hp: GpHyperParams,
        rng: &mut R,
    ) -> Vec<f64> {
        let random_point =
            |rng: &mut R| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };
        if history_x.len() < 2 {
            return random_point(rng);
        }
        let Ok(gp) = GaussianProcess::fit(history_x, history_y, hp) else {
            return random_point(rng);
        };
        let best = history_y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut best_candidate = random_point(rng);
        let mut best_ei = f64::NEG_INFINITY;
        for _ in 0..pool {
            let c = random_point(rng);
            let (m, v) = oracle_predict(&gp, &c);
            let ei = expected_improvement(m, v, best);
            if ei > best_ei {
                best_ei = ei;
                best_candidate = c;
            }
        }
        best_candidate
    }

    #[test]
    fn propose_matches_the_oracle_and_leaves_the_rng_where_it_did() {
        let mut data_rng = StdRng::seed_from_u64(9);
        for (n, dim, pool) in [
            (2, 1, 0),
            (5, 3, 1),
            (12, 34, 9),
            (40, 34, 37),
            (45, 34, 400),
        ] {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| data_rng.gen_range(0.0..1.0)).collect())
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
            let hp = GpHyperParams::default();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut oracle_rng = rng.clone();
            let got = propose(&xs, &ys, dim, pool, hp, &mut rng);
            let want = oracle_propose(&xs, &ys, dim, pool, hp, &mut oracle_rng);
            assert_eq!(got, want, "n={n} dim={dim} pool={pool}");
            assert_eq!(rng.next_u64(), oracle_rng.next_u64());
        }
    }

    #[test]
    fn ties_keep_the_first_candidate_of_the_pool() {
        // A tiny lengthscale and signal variance put every candidate at
        // the prior with z ≈ −1000, where EI is exactly 0: the whole pool
        // ties, and the strict `>` keeps its first row.
        let hp = GpHyperParams {
            lengthscale: 1e-3,
            signal_variance: 1e-6,
            noise_variance: 1e-4,
        };
        let xs = vec![vec![0.1, 0.1], vec![0.9, 0.9]];
        let ys = vec![0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut replay = rng.clone();
        let got = propose(&xs, &ys, 2, 9, hp, &mut rng);
        let _fallback: Vec<f64> = (0..2).map(|_| replay.gen_range(0.0..1.0)).collect();
        let first: Vec<f64> = (0..2).map(|_| replay.gen_range(0.0..1.0)).collect();
        assert_eq!(got, first);
        let gp = GaussianProcess::fit(&xs, &ys, hp).unwrap();
        let (m, v) = gp.predict(&first);
        assert_eq!(expected_improvement(m, v, 1.0), 0.0);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((big_phi(0.0) - 0.5).abs() < 1e-7);
        assert!((big_phi(1.96) - 0.975).abs() < 1e-3);
        assert!((big_phi(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn ei_is_positive_and_monotone_in_mean() {
        let lo = expected_improvement(0.0, 1.0, 1.0);
        let hi = expected_improvement(2.0, 1.0, 1.0);
        assert!(lo > 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_vanishes_with_certainty_below_best() {
        let ei = expected_improvement(0.0, 1e-18, 1.0);
        assert!(ei < 1e-9);
    }

    #[test]
    fn bo_finds_the_peak_of_a_smooth_function() {
        // Maximize f(x) = −(x−0.7)² on [0,1].
        let f = |x: &[f64]| -(x[0] - 0.7) * (x[0] - 0.7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut xs: Vec<Vec<f64>> = vec![vec![0.1], vec![0.9]];
        let mut ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        for _ in 0..25 {
            let c = propose(&xs, &ys, 1, 200, GpHyperParams::default(), &mut rng);
            ys.push(f(&c));
            xs.push(c);
        }
        let best_x = xs[ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0][0];
        assert!((best_x - 0.7).abs() < 0.08, "best {best_x}");
    }

    #[test]
    fn proposals_stay_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs = vec![vec![0.2, 0.3], vec![0.8, 0.1], vec![0.5, 0.9]];
        let ys = vec![0.1, 0.5, 0.2];
        for _ in 0..20 {
            let c = propose(&xs, &ys, 2, 50, GpHyperParams::default(), &mut rng);
            assert_eq!(c.len(), 2);
            assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn insufficient_history_falls_back_to_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = propose(&[], &[], 3, 10, GpHyperParams::default(), &mut rng);
        assert_eq!(c.len(), 3);
    }
}
