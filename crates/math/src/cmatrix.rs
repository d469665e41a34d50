use crate::{Complex64, MathError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major complex matrix.
///
/// This is the workhorse container for Modified Nodal Analysis: the
/// simulator stamps element admittances into a `CMatrix` and solves
/// `Y·v = i` with [`crate::lu::LuDecomposition`]. Sizes in this workspace
/// are small (≤ ~20 nodes), so a dense representation is both simple and
/// fast.
///
/// # Example
///
/// ```
/// use artisan_math::{CMatrix, Complex64};
///
/// let mut y = CMatrix::zeros(2, 2);
/// y[(0, 0)] = Complex64::from_real(2.0);
/// y[(1, 1)] = Complex64::from_real(3.0);
/// assert_eq!(y.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for k in 0..n {
            m[(k, k)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of entries.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch(format!(
                "{} entries cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Adds `value` to entry `(r, c)` — the fundamental "stamping" primitive
    /// of nodal analysis.
    #[inline]
    pub fn stamp(&mut self, r: usize, c: usize, value: Complex64) {
        self[(r, c)] += value;
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Result<Vec<Complex64>> {
        if x.len() != self.cols {
            return Err(MathError::DimensionMismatch(format!(
                "matrix has {} cols but vector has {} entries",
                self.cols,
                x.len()
            )));
        }
        let mut out = vec![Complex64::ZERO; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Overwrites `self` with `g + s·c` in one fused pass — the
    /// per-frequency MNA assembly `Y(s) = G + sC` without touching any
    /// element list or hash map. All three matrices must share the same
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when shapes differ.
    pub fn assign_scale_add(&mut self, g: &CMatrix, c: &CMatrix, s: Complex64) -> Result<()> {
        if self.rows != g.rows || self.cols != g.cols || self.rows != c.rows || self.cols != c.cols
        {
            return Err(MathError::DimensionMismatch(format!(
                "scale-add over {}x{}, {}x{}, {}x{} matrices",
                self.rows, self.cols, g.rows, g.cols, c.rows, c.cols
            )));
        }
        for ((y, gv), cv) in self.data.iter_mut().zip(&g.data).zip(&c.data) {
            *y = *gv + s * *cv;
        }
        Ok(())
    }

    /// The entries in row-major order.
    pub(crate) fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Swaps two rows in place (used by partial pivoting).
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Frobenius norm — used by tests and residual checks.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn zeros_and_identity() {
        let z = CMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        let i = CMatrix::identity(3);
        assert_eq!(i[(1, 1)], Complex64::ONE);
        assert_eq!(i[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn from_rows_checks_dimensions() {
        let err = CMatrix::from_rows(2, 2, &[Complex64::ONE]).unwrap_err();
        assert!(matches!(err, MathError::DimensionMismatch(_)));
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = CMatrix::zeros(2, 2);
        m.stamp(0, 0, c(1.0, 0.0));
        m.stamp(0, 0, c(0.5, 1.0));
        assert_eq!(m[(0, 0)], c(1.5, 1.0));
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0), c(1.0, 1.0)])
            .unwrap();
        let x = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let y = m.mul_vec(&x).unwrap();
        assert_eq!(y[0], c(0.0, 0.0) + c(1.0, 0.0) + c(0.0, 1.0) * c(0.0, 1.0));
        assert_eq!(y[1], c(2.0, 0.0) + c(1.0, 1.0) * c(0.0, 1.0));
    }

    #[test]
    fn mul_vec_rejects_bad_length() {
        let m = CMatrix::zeros(2, 2);
        assert!(m.mul_vec(&[Complex64::ONE]).is_err());
    }

    #[test]
    fn swap_rows_works_in_both_orders() {
        let mut m = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        m.swap_rows(0, 1);
        assert_eq!(m[(0, 0)], c(3.0, 0.0));
        m.swap_rows(1, 0);
        assert_eq!(m[(0, 0)], c(1.0, 0.0));
        m.swap_rows(1, 1); // no-op
        assert_eq!(m[(1, 1)], c(4.0, 0.0));
    }

    #[test]
    fn assign_scale_add_fuses_g_and_sc() {
        let g = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        let cap = CMatrix::from_rows(2, 2, &[c(0.5, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(1.5, 0.0)])
            .unwrap();
        let s = c(0.0, 2.0);
        let mut y = CMatrix::zeros(2, 2);
        y.assign_scale_add(&g, &cap, s).unwrap();
        assert_eq!(y[(0, 0)], c(1.0, 1.0));
        assert_eq!(y[(0, 1)], c(2.0, 0.0));
        assert_eq!(y[(1, 1)], c(4.0, 3.0));
        // Overwrites, never accumulates: a second call gives the same Y.
        let first = y.clone();
        y.assign_scale_add(&g, &cap, s).unwrap();
        assert_eq!(y, first);
    }

    #[test]
    fn assign_scale_add_rejects_shape_mismatch() {
        let g = CMatrix::zeros(2, 2);
        let cap = CMatrix::zeros(3, 3);
        let mut y = CMatrix::zeros(2, 2);
        assert!(matches!(
            y.assign_scale_add(&g, &cap, Complex64::ONE),
            Err(MathError::DimensionMismatch(_))
        ));
        let mut y3 = CMatrix::zeros(3, 3);
        assert!(y3.assign_scale_add(&g, &g, Complex64::ONE).is_err());
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let i = CMatrix::identity(4);
        assert!((i.frobenius_norm() - 2.0).abs() < 1e-15);
    }
}
