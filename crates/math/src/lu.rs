//! LU factorization with partial pivoting for complex matrices.
//!
//! The Modified Nodal Analysis system `Y(jω)·v = i` is re-solved at every
//! frequency point of an AC sweep, so this module provides a factor-once,
//! solve-many API plus a determinant (needed by the pole/zero extractor,
//! which interpolates `det(G + sC)` as a polynomial in `s`).

use crate::{CMatrix, Complex64, MathError, Result};

/// An LU factorization `P·A = L·U` of a square complex matrix.
///
/// # Example
///
/// ```
/// use artisan_math::{CMatrix, Complex64, lu::LuDecomposition};
///
/// # fn main() -> artisan_math::Result<()> {
/// let a = CMatrix::from_rows(2, 2, &[
///     Complex64::from_real(4.0), Complex64::from_real(3.0),
///     Complex64::from_real(6.0), Complex64::from_real(3.0),
/// ])?;
/// let lu = LuDecomposition::new(a)?;
/// let x = lu.solve(&[Complex64::from_real(10.0), Complex64::from_real(12.0)])?;
/// assert!((x[0].re - 1.0).abs() < 1e-12);
/// assert!((x[1].re - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (below diagonal, unit diagonal implied) and U (on and
    /// above the diagonal), in the pivoted row order.
    lu: CMatrix,
    /// Row permutation: output row `k` of the factorization came from input
    /// row `perm[k]`.
    perm: Vec<usize>,
    /// Parity of the permutation (+1 or −1), for the determinant sign.
    sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a` in place using Gaussian elimination with partial
    /// (row) pivoting on magnitude.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] if `a` is not square.
    /// - [`MathError::Singular`] if a pivot column is exactly zero. (Near
    ///   singularity is *not* an error.)
    pub fn new(mut a: CMatrix) -> Result<Self> {
        let mut perm = Vec::new();
        let sign = factor_in_place(&mut a, &mut perm)?;
        Ok(LuDecomposition { lu: a, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>> {
        let mut x = Vec::new();
        solve_factored(&self.lu, &self.perm, b, &mut x)?;
        Ok(x)
    }

    /// Determinant of the original matrix: `sign · Π U_kk`.
    pub fn det(&self) -> Complex64 {
        let mut d = Complex64::from_real(self.sign);
        for k in 0..self.dim() {
            d *= self.lu[(k, k)];
        }
        d
    }
}

/// Factors `a` in place using Gaussian elimination with partial (row)
/// pivoting, writing the permutation into `perm` (reused without
/// reallocating once it has capacity) and returning the permutation
/// sign. This is the zero-allocation core behind
/// [`LuDecomposition::new`]: hot paths such as the per-frequency AC
/// solve call it directly on a caller-owned workspace matrix instead of
/// constructing a fresh decomposition per point.
///
/// After a successful return, `a` holds L (below the diagonal, unit
/// diagonal implied) and U (on and above) in pivoted row order, ready
/// for [`solve_factored`].
///
/// # Errors
///
/// - [`MathError::DimensionMismatch`] if `a` is not square.
/// - [`MathError::Singular`] if a pivot column is exactly zero (`a` is
///   left partially factored and must not be solved against).
pub fn factor_in_place(a: &mut CMatrix, perm: &mut Vec<usize>) -> Result<f64> {
    if !a.is_square() {
        return Err(MathError::DimensionMismatch(format!(
            "LU requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    perm.clear();
    perm.extend(0..n);
    let mut sign = 1.0;

    for k in 0..n {
        // Partial pivot: largest magnitude in column k at or below row k.
        let mut pivot_row = k;
        let mut pivot_mag = a[(k, k)].abs_sq();
        for r in (k + 1)..n {
            let mag = a[(r, k)].abs_sq();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag == 0.0 {
            return Err(MathError::Singular(k));
        }
        if pivot_row != k {
            a.swap_rows(pivot_row, k);
            perm.swap(pivot_row, k);
            sign = -sign;
        }
        let pivot = a[(k, k)];
        let pivot_inv = pivot.recip();
        for r in (k + 1)..n {
            let factor = a[(r, k)] * pivot_inv;
            a[(r, k)] = factor;
            if factor != Complex64::ZERO {
                for c in (k + 1)..n {
                    let u_kc = a[(k, c)];
                    a[(r, c)] -= factor * u_kc;
                }
            }
        }
    }
    Ok(sign)
}

/// Solves `A·x = b` against a matrix previously factored by
/// [`factor_in_place`] (or the `lu` field of a [`LuDecomposition`]),
/// writing the solution into `x`. `x` is cleared and refilled, so a
/// caller looping over many right-hand sides reuses one buffer with no
/// per-solve allocation.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] when `b.len()` or
/// `perm.len()` disagree with the factored dimension.
pub fn solve_factored(
    lu: &CMatrix,
    perm: &[usize],
    b: &[Complex64],
    x: &mut Vec<Complex64>,
) -> Result<()> {
    let n = lu.rows();
    if b.len() != n || perm.len() != n {
        return Err(MathError::DimensionMismatch(format!(
            "rhs has {} entries and perm {} for a {n}-dim system",
            b.len(),
            perm.len()
        )));
    }
    // Apply permutation and forward-substitute L·y = P·b.
    x.clear();
    x.extend(perm.iter().map(|&k| b[k]));
    for r in 1..n {
        let acc = x
            .iter()
            .enumerate()
            .take(r)
            .fold(x[r], |acc, (c, &xc)| acc - lu[(r, c)] * xc);
        x[r] = acc;
    }
    // Back-substitute U·x = y.
    for r in (0..n).rev() {
        let acc = x
            .iter()
            .enumerate()
            .skip(r + 1)
            .fold(x[r], |acc, (c, &xc)| acc - lu[(r, c)] * xc);
        x[r] = acc / lu[(r, r)];
    }
    Ok(())
}

/// One-shot convenience: factor `a` and solve for a single right-hand side.
///
/// # Errors
///
/// Propagates the errors of [`LuDecomposition::new`] and
/// [`LuDecomposition::solve`].
pub fn solve(a: CMatrix, b: &[Complex64]) -> Result<Vec<Complex64>> {
    LuDecomposition::new(a)?.solve(b)
}

/// Computes `det(a)` via LU. Returns zero for exactly singular input.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] for non-square input.
pub fn det(a: CMatrix) -> Result<Complex64> {
    if !a.is_square() {
        return Err(MathError::DimensionMismatch(format!(
            "determinant requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    match LuDecomposition::new(a) {
        Ok(lu) => Ok(lu.det()),
        Err(MathError::Singular(_)) => Ok(Complex64::ZERO),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn random_matrix(n: usize, rng: &mut StdRng) -> CMatrix {
        let data: Vec<Complex64> = (0..n * n)
            .map(|_| c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        CMatrix::from_rows(n, n, &data).unwrap()
    }

    #[test]
    fn solves_known_2x2() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        let x = solve(a, &[c(5.0, 0.0), c(11.0, 0.0)]).unwrap();
        assert!((x[0] - c(1.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(2.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn solves_complex_system() {
        // (1+j)x = 2j  =>  x = 2j/(1+j) = 1+j
        let a = CMatrix::from_rows(1, 1, &[c(1.0, 1.0)]).unwrap();
        let x = solve(a, &[c(0.0, 2.0)]).unwrap();
        assert!((x[0] - c(1.0, 1.0)).abs() < 1e-14);
    }

    #[test]
    fn residual_is_small_for_random_systems() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = random_matrix(n, &mut rng);
            let b: Vec<Complex64> = (0..n)
                .map(|_| c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let lu = LuDecomposition::new(a.clone()).unwrap();
            let x = lu.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            let residual: f64 = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (*p - *q).abs_sq())
                .sum::<f64>()
                .sqrt();
            assert!(residual < 1e-10, "n={n} residual={residual}");
        }
    }

    #[test]
    fn det_of_identity_is_one() {
        assert!((det(CMatrix::identity(5)).unwrap() - Complex64::ONE).abs() < 1e-14);
    }

    #[test]
    fn det_matches_cofactor_expansion_2x2() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 1.0), c(2.0, 0.0), c(0.0, 3.0), c(4.0, -1.0)])
            .unwrap();
        // det = (1+j)(4-j) - (2)(3j) = (5+3j) - 6j = 5-3j
        let d = det(a).unwrap();
        assert!((d - c(5.0, -3.0)).abs() < 1e-13);
    }

    #[test]
    fn det_is_multiplicative_under_row_swap_sign() {
        // Swapping rows negates the determinant.
        let a = CMatrix::from_rows(2, 2, &[c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0)])
            .unwrap();
        let d = det(a).unwrap();
        assert!((d - c(-1.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_reports_zero_det_and_solve_error() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(2.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        assert!(det(a.clone()).unwrap().abs() < 1e-12);
        assert!(matches!(
            LuDecomposition::new(a).map(|_| ()),
            Err(MathError::Singular(_))
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = CMatrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(a).map(|_| ()),
            Err(MathError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let lu = LuDecomposition::new(CMatrix::identity(3)).unwrap();
        assert!(lu.solve(&[Complex64::ONE]).is_err());
    }

    #[test]
    fn in_place_api_matches_decomposition_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 4, 9] {
            let a = random_matrix(n, &mut rng);
            let b: Vec<Complex64> = (0..n)
                .map(|_| c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let via_decomp = LuDecomposition::new(a.clone()).unwrap().solve(&b).unwrap();
            let mut ws = a.clone();
            let mut perm = Vec::new();
            factor_in_place(&mut ws, &mut perm).unwrap();
            let mut x = Vec::new();
            solve_factored(&ws, &perm, &b, &mut x).unwrap();
            assert_eq!(via_decomp, x, "n={n}");
        }
    }

    #[test]
    fn workspace_buffers_are_reusable_across_systems() {
        // One perm + one solution vector across differently-pivoted
        // systems: results stay correct, buffers stay valid.
        let mut rng = StdRng::seed_from_u64(11);
        let mut perm = Vec::new();
        let mut x = Vec::new();
        for _ in 0..5 {
            let a = random_matrix(6, &mut rng);
            let b: Vec<Complex64> = (0..6)
                .map(|_| c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut ws = a.clone();
            factor_in_place(&mut ws, &mut perm).unwrap();
            solve_factored(&ws, &perm, &b, &mut x).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            let residual: f64 = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (*p - *q).abs_sq())
                .sum::<f64>()
                .sqrt();
            assert!(residual < 1e-10, "residual={residual}");
        }
    }

    #[test]
    fn solve_factored_rejects_bad_perm_length() {
        let mut ws = CMatrix::identity(3);
        let mut perm = Vec::new();
        factor_in_place(&mut ws, &mut perm).unwrap();
        let mut x = Vec::new();
        let b = [Complex64::ONE; 3];
        assert!(solve_factored(&ws, &perm[..2], &b, &mut x).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = CMatrix::from_rows(2, 2, &[c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)])
            .unwrap();
        let x = solve(a, &[c(2.0, 0.0), c(3.0, 0.0)]).unwrap();
        // x0 + x1 = 3, x1 = 2 => x0 = 1
        assert!((x[0] - c(1.0, 0.0)).abs() < 1e-14);
        assert!((x[1] - c(2.0, 0.0)).abs() < 1e-14);
    }
}
