//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The Gaussian-process surrogate of the BOBO baseline factors its kernel
//! Gram matrix `K` once per fit and solves `K⁻¹y` for its posterior-mean
//! weights. Its pool prediction reads the factor's rows through
//! [`Cholesky::factor`] and runs the forward substitution for many
//! right-hand sides itself.

use crate::{DMatrix, MathError, Result};

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use artisan_math::{DMatrix, cholesky::Cholesky};
///
/// # fn main() -> artisan_math::Result<()> {
/// let a = DMatrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// // A·x should equal b
/// let ax = a.mul_vec(&x)?;
/// assert!((ax[0] - 2.0).abs() < 1e-12 && (ax[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may fill just
    /// half of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] if `a` is not square.
    /// - [`MathError::NotPositiveDefinite`] if a diagonal pivot is
    ///   non-positive, reporting the failing minor.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(MathError::NotPositiveDefinite(j));
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor.
    pub fn factor(&self) -> &DMatrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Solves `L·y = b` (forward substitution), the first half of
    /// [`Self::solve`]: row by row, subtracting one `L[r][c]·y[c]`
    /// product at a time, then dividing by the pivot.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has {} entries for a {n}-dim system",
                b.len()
            )));
        }
        let mut y = b.to_vec();
        for r in 0..n {
            for c in 0..r {
                let t = self.l[(r, c)] * y[c];
                y[r] -= t;
            }
            y[r] /= self.l[(r, r)];
        }
        Ok(y)
    }

    /// Solves `Lᵀ·x = y` (back substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `y.len() != dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has {} entries for a {n}-dim system",
                y.len()
            )));
        }
        let mut x = y.to_vec();
        for r in (0..n).rev() {
            for c in (r + 1)..n {
                let t = self.l[(c, r)] * x[c];
                x[r] -= t;
            }
            x[r] /= self.l[(r, r)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd_matrix(n: usize, rng: &mut StdRng) -> DMatrix {
        // A = B·Bᵀ + n·I is SPD for random B.
        let b = DMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = acc;
            }
        }
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_of_known_matrix() {
        let a = DMatrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-14);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-14);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn solve_recovers_solution_for_random_spd() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 4, 8, 16] {
            let a = spd_matrix(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.mul_vec(&x_true).unwrap();
            let ch = Cholesky::new(&a).unwrap();
            let x = ch.solve(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-8, "n={n}: {xs} vs {xt}");
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = DMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a).map(|_| ()),
            Err(MathError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DMatrix::zeros(2, 3);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn triangular_solves_check_lengths() {
        let a = DMatrix::identity(3);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&[1.0]).is_err());
        assert!(ch.solve_upper(&[1.0]).is_err());
    }
}
