//! LU factorization with partial pivoting for complex matrices.
//!
//! The Modified Nodal Analysis system `Y(jω)·v = i` is re-solved at every
//! frequency point of an AC sweep, so this module provides a factor-once,
//! solve-many API plus a determinant (needed by the pole/zero extractor,
//! which interpolates `det(G + sC)` as a polynomial in `s`).
//!
//! [`LaneBlock`] factors and solves [`LANES`] systems of one dimension
//! side by side, one per lane: the points of an AC measurement's sweep,
//! a block at a time. Every lane repeats the IEEE operations of
//! [`factor_in_place`] and then [`solve_factored`] in their order, so a
//! lane's solution has the bits of the scalar solve. The measurement
//! reads one output row, so the back substitution may stop there, and a
//! block solved past the point the measurement needs is thrown away at
//! the end of the block.
//!
//! Two shortcuts keep those bits while doing less work. Assembly on the
//! imaginary axis (`s = +0 + jω` in every lane) writes an entry's reduced
//! expressions, `y = g.re + j(g.im + (0 + ω·c.re))`, wherever they equal
//! the general `g + s·c` bit for bit (see
//! [`LaneBlock::assign_scale_add`]). And a step whose eight lanes pivot
//! the same row swaps whole rows of lanes, in the matrix and in the
//! right-hand side, instead of one lane at a time.
//!
//! A block assembles, factors and solves at its [`Width`]: in 512-bit
//! registers when the CPU has AVX-512F, at the portable baseline
//! otherwise. Both widths compile the same source, so a lane keeps the
//! scalar bits at either; every helper the three bodies call is
//! `#[inline(always)]`, so that it compiles at the width of its caller
//! (see [`crate::width`]).

use crate::width::{Kernel, Width};
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

/// Systems a [`LaneBlock`] carries side by side.
pub const LANES: usize = 8;

/// One entry's real or imaginary parts, one per lane.
type Lanes = [f64; LANES];

/// The bits of `−0.0`.
const NEG_ZERO_BITS: u64 = 0x8000_0000_0000_0000;

/// The row every lane pivots on, when all lanes agree.
#[inline(always)]
fn uniform(rows: &[usize; LANES]) -> Option<usize> {
    rows.iter().all(|&r| r == rows[0]).then_some(rows[0])
}

/// [`Complex64::abs_sq`] per lane.
#[inline(always)]
fn abs_sq(re: &Lanes, im: &Lanes) -> Lanes {
    std::array::from_fn(|l| re[l] * re[l] + im[l] * im[l])
}

/// `a · b` per lane, in [`Complex64`]'s multiplication order.
#[inline(always)]
fn mul(a_re: &Lanes, a_im: &Lanes, b_re: &Lanes, b_im: &Lanes) -> (Lanes, Lanes) {
    let mut re = [0.0; LANES];
    let mut im = [0.0; LANES];
    for l in 0..LANES {
        re[l] = a_re[l] * b_re[l] - a_im[l] * b_im[l];
        im[l] = a_re[l] * b_im[l] + a_im[l] * b_re[l];
    }
    (re, im)
}

/// `acc − a·b` per lane, in the order of `acc - a * b` on [`Complex64`].
#[inline(always)]
fn sub_mul(acc_re: &mut Lanes, acc_im: &mut Lanes, a: (&Lanes, &Lanes), b: (&Lanes, &Lanes)) {
    let (p_re, p_im) = mul(a.0, a.1, b.0, b.1);
    for l in 0..LANES {
        acc_re[l] -= p_re[l];
        acc_im[l] -= p_im[l];
    }
}

/// [`Complex64::recip`] per lane. Smith's algorithm branches on which
/// component is larger, and each lane takes its own branch: a block
/// whose lanes agree computes only that branch, a mixed one computes
/// both and selects per lane. Either way every lane gets the scalar
/// branch's bits.
#[inline(always)]
fn recip(re: &Lanes, im: &Lanes) -> (Lanes, Lanes) {
    let by_re = || {
        let (mut out_re, mut out_im) = ([0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            let r = im[l] / re[l];
            let d = re[l] + im[l] * r;
            out_re[l] = 1.0 / d;
            out_im[l] = -r / d;
        }
        (out_re, out_im)
    };
    let by_im = || {
        let (mut out_re, mut out_im) = ([0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            let r = re[l] / im[l];
            let d = re[l] * r + im[l];
            out_re[l] = r / d;
            out_im[l] = -1.0 / d;
        }
        (out_re, out_im)
    };
    let real_larger: [bool; LANES] = std::array::from_fn(|l| re[l].abs() >= im[l].abs());
    if real_larger == [true; LANES] {
        by_re()
    } else if real_larger == [false; LANES] {
        by_im()
    } else {
        let (a, b) = (by_re(), by_im());
        let pick = |x: &Lanes, y: &Lanes| {
            std::array::from_fn(|l| if real_larger[l] { x[l] } else { y[l] })
        };
        (pick(&a.0, &b.0), pick(&a.1, &b.1))
    }
}

/// One entry of [`LaneBlock::assign_scale_add`]: `y = g + s·c` in every
/// lane, by the reduced expressions when `on_axis` and the entry allow
/// them.
#[inline(always)]
fn scale_add(
    on_axis: bool,
    s: (&Lanes, &Lanes),
    g: Complex64,
    c: Complex64,
    y: (&mut Lanes, &mut Lanes),
) {
    let reduced = on_axis
        && g.re.is_finite()
        && g.re.to_bits() != NEG_ZERO_BITS
        && c.re.is_finite()
        && c.im.to_bits() == 0;
    if !reduced {
        return general_scale_add(s, g, c, y);
    }
    *y.0 = [g.re; LANES];
    for l in 0..LANES {
        y.1[l] = g.im + (0.0 + s.1[l] * c.re);
    }
}

/// `y = g + s·c` in every lane by the general expressions.
///
/// On the imaginary axis the stamps of an MNA system take the reduced
/// expressions, so this is the cold path. It stays out of line on
/// purpose: a call in the loop over a block's entries keeps LLVM from
/// vectorizing that loop across entries, which at 512 bits made the
/// assembly two to three times slower than one eight-lane step per
/// entry.
#[cold]
#[inline(never)]
fn general_scale_add(
    (s_re, s_im): (&Lanes, &Lanes),
    g: Complex64,
    c: Complex64,
    y: (&mut Lanes, &mut Lanes),
) {
    for l in 0..LANES {
        y.0[l] = g.re + (s_re[l] * c.re - s_im[l] * c.im);
        y.1[l] = g.im + (s_re[l] * c.im + s_im[l] * c.re);
    }
}

/// [`LANES`] square complex systems `A·x = b` of one dimension, factored
/// and solved together, one system per lane.
///
/// Entries are stored struct-of-arrays: entry `(r, c)` keeps the real
/// parts of all lanes in one `[f64; LANES]` and the imaginary parts in
/// another, so each step of the elimination runs across the lanes in
/// one pass. Each lane does exactly what [`factor_in_place`] and
/// [`solve_factored`] do to its system, in the same order:
///
/// - the pivot of each column is the first row of largest `abs_sq`
///   (strict `>`), and whole rows are swapped;
/// - the pivot's reciprocal is Smith's, with the branch taken per lane;
/// - a row whose multiplier is exactly zero is not updated in that lane
///   (an unconditional `x − 0·u` would turn `−0.0` into `+0.0` and `∞`
///   into NaN);
/// - the substitutions keep the scalar index order, and dividing is
///   multiplying by the reciprocal.
///
/// A lane's results therefore carry the scalar solve's bits, and a lane
/// that goes singular affects no other lane. Nothing allocates after
/// [`LaneBlock::new`]. The block runs at the [`Width`] it was built
/// with, [`Width::detected`] unless [`LaneBlock::with_width`] chose
/// another; the results are the same bits at any width.
///
/// # Example
///
/// ```
/// use artisan_math::lu::{LaneBlock, LANES};
/// use artisan_math::Complex64;
///
/// // Lane l solves (l + 1)·x = 2.
/// let mut block = LaneBlock::new(1);
/// for lane in 0..LANES {
///     block.set(0, 0, lane, Complex64::from_real(lane as f64 + 1.0));
///     block.set_rhs(0, lane, Complex64::from_real(2.0));
/// }
/// assert_eq!(block.factor(), [false; LANES]);
/// block.solve(0);
/// assert_eq!(block.solution(0, 1), Complex64::from_real(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct LaneBlock {
    n: usize,
    /// Row-major entries: `A`, then its factors `L` and `U`.
    re: Vec<Lanes>,
    im: Vec<Lanes>,
    /// The right-hand side, then the solution.
    b_re: Vec<Lanes>,
    b_im: Vec<Lanes>,
    /// The row swapped into place at each elimination step, per lane.
    pivots: Vec<[usize; LANES]>,
    /// The reciprocal of each step's pivot, which stays `U`'s diagonal
    /// entry: back substitution divides by multiplying with it.
    pivot_inv_re: Vec<Lanes>,
    pivot_inv_im: Vec<Lanes>,
    /// The register width the three bodies run at.
    width: Width,
}

impl LaneBlock {
    /// A block of `n × n` zero systems with zero right-hand sides, run at
    /// [`Width::detected`].
    pub fn new(n: usize) -> Self {
        Self::with_width(n, Width::detected())
    }

    /// [`LaneBlock::new`] at `width`: how the tests and benchmarks run
    /// [`Width::Portable`] beside the detected width. A width the host
    /// lacks runs portably.
    pub fn with_width(n: usize, width: Width) -> Self {
        LaneBlock {
            n,
            re: vec![[0.0; LANES]; n * n],
            im: vec![[0.0; LANES]; n * n],
            b_re: vec![[0.0; LANES]; n],
            b_im: vec![[0.0; LANES]; n],
            pivots: vec![[0; LANES]; n],
            pivot_inv_re: vec![[0.0; LANES]; n],
            pivot_inv_im: vec![[0.0; LANES]; n],
            width,
        }
    }

    /// Sets entry `(r, c)` of lane `lane`'s matrix.
    ///
    /// # Panics
    ///
    /// When an index is out of range.
    pub fn set(&mut self, r: usize, c: usize, lane: usize, z: Complex64) {
        assert!(c < self.n, "column {c} outside a {}-dim block", self.n);
        self.re[r * self.n + c][lane] = z.re;
        self.im[r * self.n + c][lane] = z.im;
    }

    /// Entry `(r, c)` of lane `lane`'s matrix: after
    /// [`LaneBlock::factor`], its `L` (below the diagonal) or `U` (on and
    /// above) in pivoted row order, as [`factor_in_place`] leaves it.
    ///
    /// # Panics
    ///
    /// When an index is out of range.
    pub fn get(&self, r: usize, c: usize, lane: usize) -> Complex64 {
        assert!(c < self.n, "column {c} outside a {}-dim block", self.n);
        let i = r * self.n + c;
        Complex64::new(self.re[i][lane], self.im[i][lane])
    }

    /// Sets row `r` of lane `lane`'s right-hand side.
    ///
    /// # Panics
    ///
    /// When an index is out of range.
    pub fn set_rhs(&mut self, r: usize, lane: usize, z: Complex64) {
        self.b_re[r][lane] = z.re;
        self.b_im[r][lane] = z.im;
    }

    /// Row `r` of lane `lane`'s right-hand side, before
    /// [`LaneBlock::solve`] overwrites it.
    ///
    /// # Panics
    ///
    /// When an index is out of range.
    pub fn rhs(&self, r: usize, lane: usize) -> Complex64 {
        Complex64::new(self.b_re[r][lane], self.b_im[r][lane])
    }

    /// Row `r` of lane `lane`'s solution, once [`LaneBlock::solve`] has
    /// reached it.
    ///
    /// # Panics
    ///
    /// When an index is out of range.
    pub fn solution(&self, r: usize, lane: usize) -> Complex64 {
        Complex64::new(self.b_re[r][lane], self.b_im[r][lane])
    }

    /// Overwrites every lane with `A = g + s·c` and `b = rhs_g +
    /// s·rhs_c` at that lane's `s`, with the bits of
    /// [`CMatrix::assign_scale_add`]: the block form of assembling
    /// `Y(s) = G + sC` at `LANES` frequencies.
    ///
    /// The general expressions are `y.re = g.re + (s.re·c.re −
    /// s.im·c.im)` and `y.im = g.im + (s.re·c.im + s.im·c.re)`. On the
    /// imaginary axis they reduce: when every lane's `s.re` is `+0.0`
    /// (by its bits) and its `s.im` is finite, an entry whose `g.re` is
    /// finite and not `−0.0`, whose `c.re` is finite and whose `c.im` is
    /// `+0.0` gets `y.re = g.re` and `y.im = g.im + (0.0 + s.im·c.re)`.
    /// The products `s.re·c.re` and `s.im·c.im` are then zeros whose
    /// difference is a zero, which leaves a finite `g.re` other than
    /// `−0.0` unchanged, and `s.re·c.im` is `+0.0`, so both have the
    /// general expressions' bits. Every other entry takes the general
    /// expressions.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] unless `g` and `c` are `n × n`
    /// and `rhs_g` and `rhs_c` hold `n` entries.
    pub fn assign_scale_add(
        &mut self,
        g: &CMatrix,
        c: &CMatrix,
        rhs_g: &[Complex64],
        rhs_c: &[Complex64],
        s: &[Complex64; LANES],
    ) -> Result<()> {
        let n = self.n;
        let square = |m: &CMatrix| m.rows() == n && m.cols() == n;
        if !square(g) || !square(c) || rhs_g.len() != n || rhs_c.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "scale-add of {}x{} and {}x{} matrices with {} and {} rhs entries into a {n}-dim block",
                g.rows(),
                g.cols(),
                c.rows(),
                c.cols(),
                rhs_g.len(),
                rhs_c.len()
            )));
        }
        let width = self.width;
        width.run(Assemble {
            block: self,
            g,
            c,
            rhs: (rhs_g, rhs_c),
            s,
        });
        Ok(())
    }

    /// [`LaneBlock::assign_scale_add`]'s work, once the shapes are
    /// checked.
    #[inline(always)]
    fn assemble(
        &mut self,
        (g, c): (&CMatrix, &CMatrix),
        (rhs_g, rhs_c): (&[Complex64], &[Complex64]),
        s: &[Complex64; LANES],
    ) {
        let s_re: Lanes = std::array::from_fn(|l| s[l].re);
        let s_im: Lanes = std::array::from_fn(|l| s[l].im);
        let on_axis = s.iter().all(|s| s.re.to_bits() == 0 && s.im.is_finite());
        let entries = g.as_slice().iter().zip(c.as_slice());
        for (((&gv, &cv), y_re), y_im) in entries.zip(&mut self.re).zip(&mut self.im) {
            scale_add(on_axis, (&s_re, &s_im), gv, cv, (y_re, y_im));
        }
        let entries = rhs_g.iter().zip(rhs_c);
        for (((&gv, &cv), y_re), y_im) in entries.zip(&mut self.b_re).zip(&mut self.b_im) {
            scale_add(on_axis, (&s_re, &s_im), gv, cv, (y_re, y_im));
        }
    }

    /// Swaps rows `a` and `b` of every lane's matrix, `a < b`.
    #[inline(always)]
    fn swap_whole_rows(&mut self, a: usize, b: usize) {
        let n = self.n;
        for part in [&mut self.re, &mut self.im] {
            let (head, tail) = part.split_at_mut(b * n);
            head[a * n..(a + 1) * n].swap_with_slice(&mut tail[..n]);
        }
    }

    /// Swaps rows `a` and `b` of lane `lane`'s matrix, `a < b`.
    #[inline(always)]
    fn swap_rows(&mut self, a: usize, b: usize, lane: usize) {
        let n = self.n;
        for part in [&mut self.re, &mut self.im] {
            let (head, tail) = part.split_at_mut(b * n);
            for (x, y) in head[a * n..(a + 1) * n].iter_mut().zip(&mut tail[..n]) {
                std::mem::swap(&mut x[lane], &mut y[lane]);
            }
        }
    }

    /// Factors every lane in place, as [`factor_in_place`] factors one
    /// matrix, and returns which lanes are singular: those with a pivot
    /// column that is exactly zero. A singular lane is left partially
    /// factored and its solution must not be read; the other lanes are
    /// unaffected.
    pub fn factor(&mut self) -> [bool; LANES] {
        let width = self.width;
        width.run(Factor(self))
    }

    /// [`LaneBlock::factor`]'s work.
    #[inline(always)]
    fn factor_lanes(&mut self) -> [bool; LANES] {
        let n = self.n;
        let mut singular = [false; LANES];
        for k in 0..n {
            // Partial pivot per lane: the first row of largest magnitude
            // in column k at or below row k.
            let mut pivot_row = [k; LANES];
            let mut pivot_mag = abs_sq(&self.re[k * n + k], &self.im[k * n + k]);
            for r in (k + 1)..n {
                let mag = abs_sq(&self.re[r * n + k], &self.im[r * n + k]);
                for l in 0..LANES {
                    if mag[l] > pivot_mag[l] {
                        pivot_mag[l] = mag[l];
                        pivot_row[l] = r;
                    }
                }
            }
            for (flag, &mag) in singular.iter_mut().zip(&pivot_mag) {
                *flag |= mag == 0.0;
            }
            self.pivots[k] = pivot_row;
            if let Some(p) = uniform(&pivot_row) {
                if p != k {
                    self.swap_whole_rows(k, p);
                }
            } else {
                for (lane, &p) in pivot_row.iter().enumerate() {
                    if p != k {
                        self.swap_rows(k, p, lane);
                    }
                }
            }
            let (inv_re, inv_im) = recip(&self.re[k * n + k], &self.im[k * n + k]);
            self.pivot_inv_re[k] = inv_re;
            self.pivot_inv_im[k] = inv_im;
            let (re_top, re_below) = self.re.split_at_mut((k + 1) * n);
            let (im_top, im_below) = self.im.split_at_mut((k + 1) * n);
            let (u_re, u_im) = (&re_top[k * n..], &im_top[k * n..]);
            let rows_below = re_below
                .chunks_exact_mut(n)
                .zip(im_below.chunks_exact_mut(n));
            for (row_re, row_im) in rows_below {
                let (f_re, f_im) = mul(&row_re[k], &row_im[k], &inv_re, &inv_im);
                row_re[k] = f_re;
                row_im[k] = f_im;
                // The scalar LU skips a row whose multiplier is exactly
                // zero; a lane skips it by keeping its old entries.
                let update: [bool; LANES] =
                    std::array::from_fn(|l| f_re[l] != 0.0 || f_im[l] != 0.0);
                if update == [false; LANES] {
                    continue;
                }
                let rest = row_re[k + 1..].iter_mut().zip(&mut row_im[k + 1..]);
                let u = u_re[k + 1..].iter().zip(&u_im[k + 1..]);
                if update == [true; LANES] {
                    for ((y_re, y_im), (ur, ui)) in rest.zip(u) {
                        sub_mul(y_re, y_im, (&f_re, &f_im), (ur, ui));
                    }
                    continue;
                }
                for ((y_re, y_im), (ur, ui)) in rest.zip(u) {
                    let (mut new_re, mut new_im) = (*y_re, *y_im);
                    sub_mul(&mut new_re, &mut new_im, (&f_re, &f_im), (ur, ui));
                    for l in 0..LANES {
                        if update[l] {
                            y_re[l] = new_re[l];
                            y_im[l] = new_im[l];
                        }
                    }
                }
            }
        }
        singular
    }

    /// Solves every factored lane, as [`solve_factored`] solves one
    /// system: the pivots' row swaps on the right-hand side, forward
    /// substitution through `L`, then back substitution through `U`
    /// from the last row down to `first_row`. Afterwards
    /// [`LaneBlock::solution`] holds the solution in rows `first_row..`;
    /// rows before `first_row` hold intermediate values.
    pub fn solve(&mut self, first_row: usize) {
        let width = self.width;
        width.run(Solve(self, first_row));
    }

    /// [`LaneBlock::solve`]'s work.
    #[inline(always)]
    fn solve_lanes(&mut self, first_row: usize) {
        let n = self.n;
        for (k, rows) in self.pivots.iter().enumerate() {
            if let Some(p) = uniform(rows) {
                self.b_re.swap(k, p);
                self.b_im.swap(k, p);
                continue;
            }
            for (lane, &p) in rows.iter().enumerate() {
                if p != k {
                    for part in [&mut self.b_re, &mut self.b_im] {
                        let (head, tail) = part.split_at_mut(p);
                        std::mem::swap(&mut head[k][lane], &mut tail[0][lane]);
                    }
                }
            }
        }
        // Forward-substitute L·y = P·b.
        for r in 1..n {
            let (mut acc_re, mut acc_im) = (self.b_re[r], self.b_im[r]);
            for c in 0..r {
                let i = r * n + c;
                sub_mul(
                    &mut acc_re,
                    &mut acc_im,
                    (&self.re[i], &self.im[i]),
                    (&self.b_re[c], &self.b_im[c]),
                );
            }
            self.b_re[r] = acc_re;
            self.b_im[r] = acc_im;
        }
        // Back-substitute U·x = y.
        for r in (first_row..n).rev() {
            let (mut acc_re, mut acc_im) = (self.b_re[r], self.b_im[r]);
            for c in (r + 1)..n {
                let i = r * n + c;
                sub_mul(
                    &mut acc_re,
                    &mut acc_im,
                    (&self.re[i], &self.im[i]),
                    (&self.b_re[c], &self.b_im[c]),
                );
            }
            let (q_re, q_im) = (&self.pivot_inv_re[r], &self.pivot_inv_im[r]);
            (self.b_re[r], self.b_im[r]) = mul(&acc_re, &acc_im, q_re, q_im);
        }
    }
}

/// [`LaneBlock::assign_scale_add`] as a [`Kernel`].
struct Assemble<'a> {
    block: &'a mut LaneBlock,
    g: &'a CMatrix,
    c: &'a CMatrix,
    rhs: (&'a [Complex64], &'a [Complex64]),
    s: &'a [Complex64; LANES],
}

impl Kernel for Assemble<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.block.assemble((self.g, self.c), self.rhs, self.s);
    }
}

/// [`LaneBlock::factor`] as a [`Kernel`].
struct Factor<'a>(&'a mut LaneBlock);

impl Kernel for Factor<'_> {
    type Output = [bool; LANES];
    #[inline(always)]
    fn run(self) -> [bool; LANES] {
        self.0.factor_lanes()
    }
}

/// [`LaneBlock::solve`] as a [`Kernel`], down to a first row.
struct Solve<'a>(&'a mut LaneBlock, usize);

impl Kernel for Solve<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.0.solve_lanes(self.1);
    }
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

    /// Each lane against `factor_in_place` + `solve_factored` on its own
    /// system, by bit pattern (any NaN matches any NaN).
    fn assert_lanes_match_scalar(systems: &[(Vec<Complex64>, Vec<Complex64>); LANES]) {
        let n = systems[0].1.len();
        let mut block = LaneBlock::new(n);
        for (lane, (a, b)) in systems.iter().enumerate() {
            for r in 0..n {
                for col in 0..n {
                    block.set(r, col, lane, a[r * n + col]);
                }
                block.set_rhs(r, lane, b[r]);
            }
        }
        let singular = block.factor();
        block.solve(0);
        let same = |x: Complex64, y: Complex64| {
            let bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
            (bits(x.re), bits(x.im)) == (bits(y.re), bits(y.im))
        };
        for (lane, (a, b)) in systems.iter().enumerate() {
            let mut lu = CMatrix::from_rows(n, n, a).unwrap();
            let mut perm = Vec::new();
            if factor_in_place(&mut lu, &mut perm).is_err() {
                assert!(singular[lane], "lane {lane}");
                continue;
            }
            assert!(!singular[lane], "lane {lane}");
            let mut x = Vec::new();
            solve_factored(&lu, &perm, b, &mut x).unwrap();
            for r in 0..n {
                for col in 0..n {
                    let got = block.get(r, col, lane);
                    assert!(same(got, lu[(r, col)]), "lane {lane} ({r}, {col}): {got}");
                }
                assert!(same(block.solution(r, lane), x[r]), "lane {lane} x[{r}]");
            }
        }
    }

    #[test]
    fn lane_block_keeps_the_scalar_edge_cases() {
        let r = |v: f64| c(v, 0.0);
        let (inf, nz) = (f64::INFINITY, -0.0);
        let rhs = vec![c(1.0, -2.0), c(0.5, 0.25), c(-3.0, 1.0)];
        let mut rng = StdRng::seed_from_u64(5);
        let systems: [(Vec<Complex64>, Vec<Complex64>); LANES] = std::array::from_fn(|lane| {
            let a = match lane {
                // A tie in pivot magnitude: the first row stays.
                0 => vec![
                    r(1.0),
                    r(2.0),
                    r(0.0),
                    c(0.0, -1.0),
                    r(3.0),
                    r(1.0),
                    r(0.5),
                    r(0.0),
                    r(2.0),
                ],
                // A −0.0 in a row whose multiplier is zero: an update
                // would make it +0.0, and it becomes a multiplier.
                1 => vec![
                    r(1.0),
                    r(-1.0),
                    r(0.0),
                    r(0.0),
                    r(nz),
                    r(1.0),
                    r(0.0),
                    r(1.0),
                    r(0.0),
                ],
                // An ∞ in a row whose multiplier is zero: an update
                // would make it NaN.
                2 => vec![
                    r(1.0),
                    r(inf),
                    r(2.0),
                    r(0.0),
                    r(1.0),
                    r(0.0),
                    r(0.0),
                    r(0.0),
                    r(4.0),
                ],
                // Singular: an exactly zero column.
                3 => vec![
                    r(1.0),
                    r(0.0),
                    r(2.0),
                    r(3.0),
                    r(0.0),
                    r(1.0),
                    r(0.0),
                    r(0.0),
                    r(5.0),
                ],
                // Smith's reciprocal in both branches within one block.
                4 => vec![
                    c(1e-3, 5.0),
                    r(1.0),
                    r(0.0),
                    r(1.0),
                    c(7.0, 1e-3),
                    r(1.0),
                    r(0.0),
                    r(1.0),
                    c(1.0, 1.0),
                ],
                _ => random_matrix(3, &mut rng).as_slice().to_vec(),
            };
            (a, rhs.clone())
        });
        assert_lanes_match_scalar(&systems);
    }

    #[test]
    fn lane_block_solve_may_stop_at_a_row() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut full = LaneBlock::new(6);
        for lane in 0..LANES {
            let a = random_matrix(6, &mut rng);
            for r in 0..6 {
                for col in 0..6 {
                    full.set(r, col, lane, a[(r, col)]);
                }
                full.set_rhs(r, lane, c(r as f64, 1.0));
            }
        }
        assert_eq!(full.factor(), [false; LANES]);
        let mut partial = full.clone();
        full.solve(0);
        partial.solve(4);
        for lane in 0..LANES {
            for r in 4..6 {
                assert_eq!(partial.solution(r, lane), full.solution(r, lane));
            }
        }
    }

    #[test]
    fn lane_block_assembly_rejects_mismatched_shapes() {
        let mut block = LaneBlock::new(2);
        let s = [Complex64::I; LANES];
        let (g, rhs) = (CMatrix::zeros(2, 2), vec![Complex64::ONE; 2]);
        assert!(block.assign_scale_add(&g, &g, &rhs, &rhs, &s).is_ok());
        assert!(block
            .assign_scale_add(&CMatrix::zeros(3, 3), &g, &rhs, &rhs, &s)
            .is_err());
        assert!(block.assign_scale_add(&g, &g, &rhs[..1], &rhs, &s).is_err());
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
