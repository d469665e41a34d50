//! Gaussian-process regression with an RBF kernel.
//!
//! The surrogate model inside the BOBO baseline: fit on
//! (embedding, objective) pairs, predict posterior mean/variance for
//! expected-improvement acquisition. The fit factors the kernel Gram
//! matrix with the Cholesky factorization in `artisan-math`;
//! [`GaussianProcess::predict_pool`] predicts a whole acquisition pool
//! at once, several queries side by side, with the bits of predicting
//! each query alone, in 512-bit registers when the CPU has AVX-512F
//! (`artisan_math::width`).

use artisan_math::width::{Kernel, Width};
use artisan_math::{cholesky::Cholesky, DMatrix, MathError};

/// GP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpHyperParams {
    /// RBF lengthscale (shared across dimensions).
    pub lengthscale: f64,
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Observation noise variance σ_n².
    pub noise_variance: f64,
}

impl Default for GpHyperParams {
    fn default() -> Self {
        GpHyperParams {
            lengthscale: 0.3,
            signal_variance: 1.0,
            noise_variance: 1e-4,
        }
    }
}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    hp: GpHyperParams,
    /// Training inputs, one row per point.
    x: DMatrix,
    /// α = K⁻¹·(y − mean), for the posterior mean.
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    y_scale: f64,
}

/// Queries [`GaussianProcess::predict_pool`] carries side by side. Each
/// lane has its own accumulators, so the loops run across lanes without
/// reordering any lane's arithmetic.
const LANES: usize = 8;

fn rbf(a: &[f64], b: &[f64], hp: &GpHyperParams) -> f64 {
    kernel(a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum(), hp)
}

/// The RBF kernel at squared distance `d2`.
fn kernel(d2: f64, hp: &GpHyperParams) -> f64 {
    hp.signal_variance * (-0.5 * d2 / (hp.lengthscale * hp.lengthscale)).exp()
}

/// [`kernel`] in every lane, each lane with its operations in the same
/// order: the exponents first, so that their division runs across the
/// lanes, then one `exp` call per lane.
#[inline(always)]
fn kernel_lanes(d2: &[f64; LANES], hp: &GpHyperParams) -> [f64; LANES] {
    let scale = hp.lengthscale * hp.lengthscale;
    let mut k = [0.0; LANES];
    for (k, &d) in k.iter_mut().zip(d2) {
        *k = -0.5 * d / scale;
    }
    for k in &mut k {
        *k = hp.signal_variance * k.exp();
    }
    k
}

impl GaussianProcess {
    /// Fits the GP on observations `(x, y)`. Targets are internally
    /// standardized for conditioning.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] for empty data or ragged rows.
    /// - [`MathError::NotPositiveDefinite`] if the kernel matrix cannot
    ///   be factorized even after jitter (pathological duplicates).
    pub fn fit(x: &[Vec<f64>], y: &[f64], hp: GpHyperParams) -> Result<Self, MathError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(MathError::DimensionMismatch(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        let dim = x[0].len();
        if x.iter().any(|r| r.len() != dim) {
            return Err(MathError::DimensionMismatch(
                "ragged input rows".to_string(),
            ));
        }
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_scale = {
            let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
            var.sqrt().max(1e-9)
        };
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        let x = DMatrix::from_fn(n, dim, |i, c| x[i][c]);
        // The lower triangle only: it is all `Cholesky::new` reads.
        let mut k = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                k[(i, j)] = rbf(x.row(i), x.row(j), &hp);
            }
        }
        k.add_diagonal(hp.noise_variance.max(1e-10));
        // Progressive jitter on factorization failure.
        let chol = match Cholesky::new(&k) {
            Ok(c) => c,
            Err(_) => {
                k.add_diagonal(1e-6);
                Cholesky::new(&k)?
            }
        };
        let alpha = chol.solve(&yn)?;
        Ok(GaussianProcess {
            hp,
            x,
            alpha,
            chol,
            y_mean,
            y_scale,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when fitted on no points (cannot happen through [`Self::fit`]).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Posterior mean and variance at a query point.
    ///
    /// # Panics
    ///
    /// Panics if `query` has a different dimension than the training
    /// inputs.
    pub fn predict(&self, query: &[f64]) -> (f64, f64) {
        self.predict_pool(&DMatrix::from_fn(1, query.len(), |_, c| query[c]))[0]
    }

    /// Posterior mean and variance at every row of `queries`, in row
    /// order: a BO step's whole acquisition pool in one call.
    ///
    /// Queries go through in blocks of eight lanes. Per training point,
    /// each lane computes its kernel entry, adds it to its mean and takes
    /// the next forward-substitution step of `L·v = k*`. A lane keeps the
    /// single-query order of operations: every sum starts at −0.0 (where
    /// `Iterator::sum` starts) and adds its terms in index order, and the
    /// substitution subtracts one product at a time. So every result is
    /// bit-identical to predicting that query alone. A short last block
    /// is padded with copies of a real query, whose results are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `queries` has a different number of columns than the
    /// training inputs.
    pub fn predict_pool(&self, queries: &DMatrix) -> Vec<(f64, f64)> {
        self.predict_pool_at(Width::detected(), queries)
    }

    /// [`GaussianProcess::predict_pool`] at `width`, with the same bits:
    /// the tests' and benchmarks' way to run [`Width::Portable`] beside
    /// the detected width. A width the host lacks runs portably.
    ///
    /// # Panics
    ///
    /// Panics if `queries` has a different number of columns than the
    /// training inputs.
    pub fn predict_pool_at(&self, width: Width, queries: &DMatrix) -> Vec<(f64, f64)> {
        assert_eq!(
            queries.cols(),
            self.x.cols(),
            "query dimension differs from the training inputs"
        );
        width.run(Pool { gp: self, queries })
    }

    /// [`GaussianProcess::predict_pool`]'s work, once the shapes are
    /// checked.
    #[inline(always)]
    fn predict_lanes(&self, queries: &DMatrix) -> Vec<(f64, f64)> {
        let l = self.chol.factor();
        // Scratch sized once per pool: the block's queries stored
        // coordinate by coordinate, and L⁻¹k* per training point.
        let mut block = vec![[0.0; LANES]; queries.cols()];
        let mut v = vec![[0.0; LANES]; self.len()];
        let mut out = Vec::with_capacity(queries.rows());
        for first in (0..queries.rows()).step_by(LANES) {
            let real = (queries.rows() - first).min(LANES);
            for lane in 0..LANES {
                let query = queries.row(first + lane.min(real - 1));
                for (coord, &q) in block.iter_mut().zip(query) {
                    coord[lane] = q;
                }
            }
            let mut mean = [-0.0; LANES];
            let mut explained = [-0.0; LANES];
            for (i, &alpha) in self.alpha.iter().enumerate() {
                let mut d2 = [-0.0; LANES];
                for (&p, coord) in self.x.row(i).iter().zip(&block) {
                    for (acc, &q) in d2.iter_mut().zip(coord) {
                        *acc += (p - q) * (p - q);
                    }
                }
                let mut vi = kernel_lanes(&d2, &self.hp);
                for (m, &t) in mean.iter_mut().zip(&vi) {
                    *m += t * alpha;
                }
                let row = l.row(i);
                for (&lic, vc) in row.iter().zip(&v[..i]) {
                    for (t, &c) in vi.iter_mut().zip(vc) {
                        *t -= lic * c;
                    }
                }
                for (t, e) in vi.iter_mut().zip(&mut explained) {
                    *t /= row[i];
                    *e += *t * *t;
                }
                v[i] = vi;
            }
            // var = k(x,x) − ‖L⁻¹k*‖², then undo the standardization.
            out.extend(mean.iter().zip(&explained).take(real).map(|(&m, &e)| {
                let var_n = (self.hp.signal_variance - e).max(1e-12);
                (
                    m * self.y_scale + self.y_mean,
                    var_n * self.y_scale * self.y_scale,
                )
            }));
        }
        out
    }
}

/// [`GaussianProcess::predict_pool`] as a [`Kernel`].
struct Pool<'a> {
    gp: &'a GaussianProcess,
    queries: &'a DMatrix,
}

impl Kernel for Pool<'_> {
    type Output = Vec<(f64, f64)>;
    #[inline(always)]
    fn run(self) -> Vec<(f64, f64)> {
        self.gp.predict_lanes(self.queries)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The single-query prediction `predict` ran before pool prediction:
    /// its own kernel column, dot product and forward substitution. The
    /// bit-identity oracle for [`GaussianProcess::predict_pool`].
    pub(crate) fn oracle_predict(gp: &GaussianProcess, query: &[f64]) -> (f64, f64) {
        let kstar: Vec<f64> = (0..gp.len())
            .map(|i| oracle_rbf(gp.x.row(i), query, &gp.hp))
            .collect();
        let mean_n: f64 = kstar.iter().zip(&gp.alpha).map(|(a, b)| a * b).sum();
        let v = gp.chol.solve_lower(&kstar).unwrap();
        let explained: f64 = v.iter().map(|t| t * t).sum();
        let var_n = (gp.hp.signal_variance - explained).max(1e-12);
        (
            mean_n * gp.y_scale + gp.y_mean,
            var_n * gp.y_scale * gp.y_scale,
        )
    }

    fn oracle_rbf(a: &[f64], b: &[f64], hp: &GpHyperParams) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
        hp.signal_variance * (-0.5 * d2 / (hp.lengthscale * hp.lengthscale)).exp()
    }

    /// The factor `fit` computed from the full symmetric Gram matrix,
    /// and whether it needed the jitter refit.
    fn oracle_factor(x: &[Vec<f64>], hp: &GpHyperParams) -> (DMatrix, bool) {
        let mut k = DMatrix::from_fn(x.len(), x.len(), |i, j| oracle_rbf(&x[i], &x[j], hp));
        k.add_diagonal(hp.noise_variance.max(1e-10));
        match Cholesky::new(&k) {
            Ok(c) => (c.factor().clone(), false),
            Err(_) => {
                k.add_diagonal(1e-6);
                (Cholesky::new(&k).unwrap().factor().clone(), true)
            }
        }
    }

    /// Pool sizes around the lane width: empty, single, short and ragged
    /// blocks, and the BOBO pool.
    const POOLS: [usize; 6] = [0, 1, 7, 9, 37, 400];

    /// Hyperparameters: the default, BOBO's, a sharp kernel whose far
    /// entries underflow to zero, and a signal variance that swamps the
    /// noise floor, so repeated points make the Gram matrix singular and
    /// the jitter refit runs.
    const HPS: [GpHyperParams; 4] = [
        GpHyperParams {
            lengthscale: 0.3,
            signal_variance: 1.0,
            noise_variance: 1e-4,
        },
        GpHyperParams {
            lengthscale: 0.45,
            signal_variance: 1.0,
            noise_variance: 1e-3,
        },
        GpHyperParams {
            lengthscale: 0.05,
            signal_variance: 2.5,
            noise_variance: 1e-6,
        },
        GpHyperParams {
            lengthscale: 0.45,
            signal_variance: 1e6,
            noise_variance: 0.0,
        },
    ];

    /// `n` training points in `[0,1]^dim` whose last `dups` rows repeat
    /// earlier rows, with smooth targets.
    fn training_set(
        n: usize,
        dim: usize,
        dups: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        for i in n.saturating_sub(dups).max(1)..n {
            x[i] = x[i / 2].clone();
        }
        let y = x
            .iter()
            .map(|p| p.iter().map(|v| (4.0 * v).sin()).sum::<f64>())
            .collect();
        (x, y)
    }

    /// Every `predict_pool` result, at every width the host runs, and
    /// `predict` on the first query, has the oracle's bits.
    fn assert_pool_matches_oracle(gp: &GaussianProcess, pool: &DMatrix) {
        let want: Vec<(f64, f64)> = (0..pool.rows())
            .map(|r| oracle_predict(gp, pool.row(r)))
            .collect();
        for width in Width::available() {
            let got = gp.predict_pool_at(width, pool);
            assert_eq!(got.len(), pool.rows(), "{width:?}");
            for (r, (&pred, &want)) in got.iter().zip(&want).enumerate() {
                assert_same_bits(pred, want, r);
            }
        }
        if pool.rows() > 0 {
            assert_same_bits(gp.predict(pool.row(0)), oracle_predict(gp, pool.row(0)), 0);
        }
    }

    fn assert_same_bits((mean, var): (f64, f64), (m, v): (f64, f64), query: usize) {
        assert_eq!(
            mean.to_bits(),
            m.to_bits(),
            "mean of query {query}: {mean} vs {m}"
        );
        assert_eq!(
            var.to_bits(),
            v.to_bits(),
            "variance of query {query}: {var} vs {v}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every pool prediction has the bits of the one-query oracle,
        /// for every training size the BOBO window reaches, every
        /// embedding width up to BOBO's 34, and pools around the lane
        /// width; `fit`'s lower-triangle Gram gives the full Gram's
        /// factor.
        #[test]
        fn predict_pool_is_bit_identical_to_the_oracle(
            n in 1usize..=170,
            dim in 1usize..=34,
            pool in 0usize..POOLS.len(),
            hp in 0usize..HPS.len(),
            dups in 0usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hp = HPS[hp];
            let (x, y) = training_set(n, dim, dups, &mut rng);
            let Ok(gp) = GaussianProcess::fit(&x, &y, hp) else {
                // Both factorizations failed; `propose` falls back to a
                // random point and nothing is predicted.
                return;
            };
            prop_assert_eq!(gp.chol.factor(), &oracle_factor(&x, &hp).0);
            let queries = DMatrix::from_fn(POOLS[pool], dim, |_, _| rng.gen_range(0.0..1.0));
            assert_pool_matches_oracle(&gp, &queries);
        }
    }

    #[test]
    fn jitter_refit_predicts_like_the_oracle() {
        let mut rng = StdRng::seed_from_u64(1);
        let hp = HPS[3];
        let (x, y) = training_set(9, 4, 5, &mut rng);
        let (factor, jittered) = oracle_factor(&x, &hp);
        assert!(jittered, "the raw Gram matrix must fail to factorize");
        let gp = GaussianProcess::fit(&x, &y, hp).unwrap();
        assert_eq!(gp.chol.factor(), &factor);
        let queries = DMatrix::from_fn(37, 4, |_, _| rng.gen_range(0.0..1.0));
        assert_pool_matches_oracle(&gp, &queries);
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn predict_pool_rejects_a_wrong_dimension() {
        let gp = GaussianProcess::fit(&[vec![0.0, 1.0]], &[1.0], GpHyperParams::default()).unwrap();
        gp.predict_pool(&DMatrix::zeros(3, 1));
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|k| vec![k as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi);
            assert!((m - yi).abs() < 0.05, "{m} vs {yi}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = vec![0.0, 0.1];
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (_, v_near) = gp.predict(&[0.05]);
        let (_, v_far) = gp.predict(&[2.0]);
        assert!(v_far > 10.0 * v_near, "near {v_near} far {v_far}");
    }

    #[test]
    fn prediction_between_points_is_smooth() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.55]);
        assert!((m - 0.3025).abs() < 0.05, "{m}");
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(GaussianProcess::fit(&[], &[], GpHyperParams::default()).is_err());
        assert!(GaussianProcess::fit(&[vec![0.0]], &[1.0, 2.0], GpHyperParams::default()).is_err());
        assert!(GaussianProcess::fit(
            &[vec![0.0], vec![0.0, 1.0]],
            &[1.0, 2.0],
            GpHyperParams::default()
        )
        .is_err());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.1);
    }

    #[test]
    fn standardization_handles_large_targets() {
        let x = grid_1d(5);
        let y: Vec<f64> = x.iter().map(|p| 1e6 + 1e5 * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.05e6).abs() / 1.05e6 < 0.02, "{m}");
    }
}
