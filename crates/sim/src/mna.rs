//! Modified Nodal Analysis over the complex field.
//!
//! The network equation is `Y(s)·v = i(s)` with `Y(s) = G + sC`. The input
//! node is an ideal AC source at 1 V∠0°, handled by source elimination:
//! its row is dropped (the source supplies whatever current KCL demands)
//! and its column contributions move to the right-hand side.
//!
//! Assembly is split from solving: [`MnaSystem::new`] walks the element
//! list exactly once, stamping the frequency-independent `G` and `C`
//! matrices (and the matching right-hand-side halves) at construction.
//! Per-frequency assembly is then the single fused pass
//! `Y = G + s·C` — no element walk, no hash-map lookups — and the hot
//! solve path ([`MnaSystem::solve_with`]) factors into a caller-provided
//! [`MnaWorkspace`] so an AC sweep allocates nothing per point.
//!
//! # Dense/sparse crossover
//!
//! MNA matrices are sparse with a *fixed pattern per topology*, so above
//! a size threshold ([`SPARSE_MIN_DIM`], plus a density check) the
//! system additionally builds a CSR representation with a one-shot
//! *symbolic* LU ([`artisan_math::SymbolicLu`]): pivot ordering and
//! fill-in are computed once in [`MnaSystem::new`] and every frequency
//! point runs only the allocation-free numeric phase. Below the
//! threshold (the NMC example is dim 3) the dense path is kept
//! unchanged. The static diagonal pivoting of the sparse path can
//! report singularity where dense partial pivoting would succeed; on
//! that error the solve falls back to the dense factorization, so
//! `IllConditioned` verdicts are identical between modes. The choice
//! depends only on the system itself; [`MnaSystem::with_mode`] forces
//! either backend for equivalence tests and benchmarks.

use crate::error::SimError;
use crate::Result;
use artisan_circuit::{Element, Netlist, Node};
use artisan_math::{
    lu, CMatrix, Complex64, CsrMatrix, MathError, SparseLuScratch, SparsityPattern, SymbolicLu,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Below this dimension the dense path always wins (tiny matrices fit in
/// cache and the dense LU has no indirection); at or above it the sparse
/// path is used when the pattern is sparse enough (`nnz ≤ dim²/4`).
pub const SPARSE_MIN_DIM: usize = 16;

/// Which factorization backend an [`MnaSystem`] solves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnaMode {
    /// Dense `CMatrix` + partial-pivot LU (the original path).
    Dense,
    /// CSR + one-shot symbolic LU with a dense fallback on singular
    /// static pivots.
    Sparse,
}

/// Where each entry of the Cramer-numerator matrix comes from: the
/// assembled `Y(s)` values array, or the source-eliminated RHS (the
/// replaced output column).
#[derive(Debug, Clone, Copy)]
enum NumSource {
    Y(usize),
    Rhs(usize),
}

/// The sparse tier of an [`MnaSystem`]: CSR `G`/`C` over one shared
/// pattern, plus the symbolic factorizations for `det(Y)` and the Cramer
/// numerator. The `Arc`ed symbolic objects are shared by every workspace
/// (and, via [`MnaSystem::new_sharing_symbolic`], by every value-only
/// variant of the same topology — cache-miss candidates, PVT corners).
#[derive(Debug, Clone)]
struct SparseRepr {
    g: CsrMatrix,
    c: CsrMatrix,
    symbolic: Arc<SymbolicLu>,
    num_pattern: Arc<SparsityPattern>,
    num_symbolic: Arc<SymbolicLu>,
    num_src: Vec<NumSource>,
}

/// Per-workspace numeric scratch for the sparse path — assembled values
/// and LU buffers, all allocated once.
#[derive(Debug, Clone)]
struct SparseScratch {
    y_vals: Vec<Complex64>,
    num_vals: Vec<Complex64>,
    lu: SparseLuScratch,
    num_lu: SparseLuScratch,
}

impl SparseRepr {
    fn build(
        g: &CMatrix,
        c: &CMatrix,
        rhs_g: &[Complex64],
        rhs_c: &[Complex64],
        out_index: usize,
        donor: Option<&SparseRepr>,
    ) -> Result<SparseRepr> {
        let fresh = SparsityPattern::union_of_dense(&[g, c])?;
        let (pattern, symbolic) = match donor {
            Some(d) if *d.g.pattern().as_ref() == fresh => {
                (Arc::clone(d.g.pattern()), Arc::clone(&d.symbolic))
            }
            _ => {
                let p = Arc::new(fresh);
                let s = Arc::new(SymbolicLu::analyze(&p));
                (p, s)
            }
        };
        let gs = CsrMatrix::from_dense(g, Arc::clone(&pattern))?;
        let cs = CsrMatrix::from_dense(c, Arc::clone(&pattern))?;

        // Cramer-numerator pattern: Y's pattern with the output column
        // replaced by the RHS support (plus the forced diagonal).
        let n = pattern.n();
        let mut num_entries: Vec<(usize, usize)> = Vec::new();
        for (r, col, _) in pattern.entries() {
            if col != out_index {
                num_entries.push((r, col));
            }
        }
        for (r, (gv, cv)) in rhs_g.iter().zip(rhs_c).enumerate() {
            if *gv != Complex64::ZERO || *cv != Complex64::ZERO {
                num_entries.push((r, out_index));
            }
        }
        let fresh_num = SparsityPattern::from_entries(n, &num_entries)?;
        let (num_pattern, num_symbolic) = match donor {
            Some(d) if *d.num_pattern.as_ref() == fresh_num => {
                (Arc::clone(&d.num_pattern), Arc::clone(&d.num_symbolic))
            }
            _ => {
                let p = Arc::new(fresh_num);
                let s = Arc::new(SymbolicLu::analyze(&p));
                (p, s)
            }
        };
        let num_src = num_pattern
            .entries()
            .map(|(r, col, _)| {
                if col == out_index {
                    Ok(NumSource::Rhs(r))
                } else {
                    pattern.position(r, col).map(NumSource::Y).ok_or_else(|| {
                        SimError::Math(MathError::DimensionMismatch(format!(
                            "numerator entry ({r}, {col}) missing from the Y pattern"
                        )))
                    })
                }
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(SparseRepr {
            g: gs,
            c: cs,
            symbolic,
            num_pattern,
            num_symbolic,
            num_src,
        })
    }

    fn scratch(&self) -> SparseScratch {
        SparseScratch {
            y_vals: vec![Complex64::ZERO; self.g.values().len()],
            num_vals: vec![Complex64::ZERO; self.num_src.len()],
            lu: self.symbolic.scratch(),
            num_lu: self.num_symbolic.scratch(),
        }
    }
}

/// Reusable per-solve scratch: the assembled `Y`, the right-hand side,
/// the pivot permutation, and the solution vector. Build one with
/// [`MnaSystem::workspace`] and feed it to [`MnaSystem::solve_with`] /
/// [`MnaSystem::transfer_with`]; an analysis reuses one workspace for
/// its DC solve and every sweep point.
#[derive(Debug, Clone)]
pub struct MnaWorkspace {
    y: CMatrix,
    rhs: Vec<Complex64>,
    perm: Vec<usize>,
    x: Vec<Complex64>,
    /// Numeric buffers for the sparse path; `None` for dense-mode
    /// systems (and lazily created if a workspace crosses modes).
    sparse: Option<SparseScratch>,
}

/// An assembled MNA system for one netlist, reusable across frequencies.
///
/// Construction indexes the unknown nodes and stamps the `G`/`C` split
/// once; each call to [`MnaSystem::solve`] combines `Y(s) = G + sC` and
/// LU-solves.
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::mna::MnaSystem;
/// use artisan_math::Complex64;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let netlist = Topology::nmc_example().elaborate()?;
/// let sys = MnaSystem::new(&netlist)?;
/// let h0 = sys.transfer(Complex64::ZERO)?; // DC gain (signed)
/// assert!(h0.abs() > 1e4); // ≥ 80 dB
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MnaSystem {
    out_index: usize,
    dim: usize,
    /// Frequency-independent conductance stamps (resistors, VCCS).
    g: CMatrix,
    /// Capacitance stamps; contributes `s·C` to `Y(s)`.
    c: CMatrix,
    /// RHS contributions from conductances on the input column.
    rhs_g: Vec<Complex64>,
    /// RHS contributions from capacitances on the input column
    /// (scaled by `s` at assembly).
    rhs_c: Vec<Complex64>,
    /// CSR + symbolic-LU tier; `None` below the crossover threshold.
    sparse: Option<SparseRepr>,
}

/// Adds `val` at (row=node r, col=node c) with source elimination:
/// ground rows/cols vanish, the input column feeds the RHS (unit input
/// drive), and the input row is skipped (the source balances its own
/// KCL).
fn stamp_into(
    index: &HashMap<Node, usize>,
    m: &mut CMatrix,
    rhs: &mut [Complex64],
    r: Node,
    c: Node,
    val: Complex64,
) -> Result<()> {
    let ri = match index.get(&r) {
        Some(&ri) => ri,
        None if matches!(r, Node::Ground | Node::Input) => return Ok(()),
        None => {
            return Err(SimError::BadNetlist(
                format!("element references node `{r}` missing from the MNA index").into(),
            ))
        }
    };
    match c {
        Node::Ground => {}
        Node::Input => rhs[ri] -= val,
        other => match index.get(&other) {
            Some(&ci) => m.stamp(ri, ci, val),
            None => {
                return Err(SimError::BadNetlist(
                    format!("element references node `{other}` missing from the MNA index").into(),
                ))
            }
        },
    }
    Ok(())
}

impl MnaSystem {
    /// Indexes the netlist's unknown nodes, validates that an output
    /// node exists, and stamps the `G`/`C` matrices once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadNetlist`] when the netlist has no `out`
    /// node, no elements, or an element references a node missing from
    /// the unknown index.
    pub fn new(netlist: &Netlist) -> Result<Self> {
        Self::new_impl(netlist, None, None)
    }

    /// Like [`MnaSystem::new`] but with the dense/sparse choice forced,
    /// ignoring the crossover rule.
    /// Used by equivalence tests and benchmarks that need both backends
    /// on the same netlist.
    ///
    /// # Errors
    ///
    /// Same as [`MnaSystem::new`].
    pub fn with_mode(netlist: &Netlist, mode: MnaMode) -> Result<Self> {
        Self::new_impl(netlist, Some(mode), None)
    }

    /// Builds a system for a *value-only* variant of `donor`'s topology
    /// (a cache-miss candidate after parameter mutation, a PVT-corner
    /// scaling…), reusing the donor's symbolic factorization when the
    /// sparsity patterns match exactly — the one-shot fill analysis is
    /// then amortized across the whole candidate family. Falls back to a
    /// fresh analysis (same result, just slower) when the patterns
    /// differ, and to the donor's mode for the dense/sparse choice.
    ///
    /// # Errors
    ///
    /// Same as [`MnaSystem::new`].
    pub fn new_sharing_symbolic(netlist: &Netlist, donor: &MnaSystem) -> Result<Self> {
        Self::new_impl(netlist, Some(donor.mode()), donor.sparse.as_ref())
    }

    fn new_impl(
        netlist: &Netlist,
        forced: Option<MnaMode>,
        donor: Option<&SparseRepr>,
    ) -> Result<Self> {
        if netlist.element_count() == 0 {
            return Err(SimError::BadNetlist("netlist is empty".into()));
        }
        let unknowns = netlist.unknown_nodes();
        let index: HashMap<Node, usize> = unknowns
            .iter()
            .copied()
            .enumerate()
            .map(|(k, n)| (n, k))
            .collect();
        let out_index = *index
            .get(&Node::Output)
            .ok_or_else(|| SimError::BadNetlist("netlist has no `out` node".into()))?;
        let dim = unknowns.len();

        // The one-time element walk: conductances into G, capacitances
        // into C, each with its half of the source-eliminated RHS.
        let mut g = CMatrix::zeros(dim, dim);
        let mut c = CMatrix::zeros(dim, dim);
        let mut rhs_g = vec![Complex64::ZERO; dim];
        let mut rhs_c = vec![Complex64::ZERO; dim];
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    let v = Complex64::from_real(1.0 / ohms.value());
                    stamp_into(&index, &mut g, &mut rhs_g, *a, *a, v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *a, *b, -v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *b, *b, v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *b, *a, -v)?;
                }
                Element::Capacitor { a, b, farads, .. } => {
                    let v = Complex64::from_real(farads.value());
                    stamp_into(&index, &mut c, &mut rhs_c, *a, *a, v)?;
                    stamp_into(&index, &mut c, &mut rhs_c, *a, *b, -v)?;
                    stamp_into(&index, &mut c, &mut rhs_c, *b, *b, v)?;
                    stamp_into(&index, &mut c, &mut rhs_c, *b, *a, -v)?;
                }
                Element::Vccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gm,
                    ..
                } => {
                    let v = Complex64::from_real(gm.value());
                    // I = gm·(v(cp) − v(cn)) leaves out_p, enters out_n.
                    stamp_into(&index, &mut g, &mut rhs_g, *out_p, *ctrl_p, v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *out_p, *ctrl_n, -v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *out_n, *ctrl_p, -v)?;
                    stamp_into(&index, &mut g, &mut rhs_g, *out_n, *ctrl_n, v)?;
                }
            }
        }

        // Dense/sparse crossover: forced mode wins; otherwise sparse
        // requires `dim ≥ SPARSE_MIN_DIM` and a pattern no denser than
        // a quarter of the full matrix.
        let build_sparse = match forced {
            Some(MnaMode::Sparse) => true,
            Some(MnaMode::Dense) => false,
            None => {
                dim >= SPARSE_MIN_DIM
                    && SparsityPattern::union_of_dense(&[&g, &c])
                        .map(|p| p.nnz() * 4 <= dim * dim)
                        .unwrap_or(false)
            }
        };
        let sparse = if build_sparse {
            Some(SparseRepr::build(&g, &c, &rhs_g, &rhs_c, out_index, donor)?)
        } else {
            None
        };

        Ok(MnaSystem {
            out_index,
            dim,
            g,
            c,
            rhs_g,
            rhs_c,
            sparse,
        })
    }

    /// Number of unknown node voltages.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Which factorization backend this system solves through.
    pub fn mode(&self) -> MnaMode {
        if self.sparse.is_some() {
            MnaMode::Sparse
        } else {
            MnaMode::Dense
        }
    }

    /// True when the CSR + symbolic-LU tier is active.
    pub fn is_sparse(&self) -> bool {
        self.sparse.is_some()
    }

    /// The shared symbolic factorization of `Y`'s pattern, when sparse.
    /// Its [`SymbolicLu::numeric_factor_count`] observes reuse across
    /// sweep points, candidates and corners.
    pub fn sparse_symbolic(&self) -> Option<&Arc<SymbolicLu>> {
        self.sparse.as_ref().map(|sp| &sp.symbolic)
    }

    /// Stored positions of the shared `G`/`C` pattern, when sparse.
    pub fn sparse_nnz(&self) -> Option<usize> {
        self.sparse.as_ref().map(|sp| sp.g.pattern().nnz())
    }

    /// L + U entries after fill-in, when sparse.
    pub fn sparse_fill_nnz(&self) -> Option<usize> {
        self.sparse.as_ref().map(|sp| sp.symbolic.fill_nnz())
    }

    /// A fresh solve workspace sized for this system.
    pub fn workspace(&self) -> MnaWorkspace {
        MnaWorkspace {
            y: CMatrix::zeros(self.dim, self.dim),
            rhs: vec![Complex64::ZERO; self.dim],
            perm: Vec::with_capacity(self.dim),
            x: Vec::with_capacity(self.dim),
            sparse: self.sparse.as_ref().map(SparseRepr::scratch),
        }
    }

    /// The source-eliminated right-hand side at `s`:
    /// `rhs_g + s·rhs_c` for unit input drive.
    fn rhs_at(&self, s: Complex64, rhs: &mut [Complex64]) {
        for ((out, &g), &c) in rhs.iter_mut().zip(&self.rhs_g).zip(&self.rhs_c) {
            *out = g + s * c;
        }
    }

    /// Assembles `Y(s)` and the source-eliminated right-hand side for
    /// unit input drive from the cached `G`/`C` split — one fused
    /// scale-add, no element walk.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] only for internal dimension bugs
    /// (impossible for systems built by [`MnaSystem::new`]); element
    /// consistency is validated at construction.
    pub fn assemble(&self, s: Complex64) -> Result<(CMatrix, Vec<Complex64>)> {
        let mut y = CMatrix::zeros(self.dim, self.dim);
        y.assign_scale_add(&self.g, &self.c, s)?;
        let mut rhs = vec![Complex64::ZERO; self.dim];
        self.rhs_at(s, &mut rhs);
        Ok((y, rhs))
    }

    /// Assembles `y_vals = G + s·C` on the shared CSR pattern and runs
    /// the allocation-free numeric factorization. Returns `Ok(true)` on
    /// success (the factor is held in `sc.lu`), `Ok(false)` when the
    /// static diagonal pivoting hit an exact zero — the caller falls
    /// back to the dense path so singularity verdicts stay identical.
    fn sparse_factor(sp: &SparseRepr, sc: &mut SparseScratch, s: Complex64) -> Result<bool> {
        if sc.y_vals.len() != sp.g.values().len() || sc.num_vals.len() != sp.num_src.len() {
            // Workspace built for another system; re-size once.
            *sc = sp.scratch();
        }
        for ((y, gv), cv) in sc.y_vals.iter_mut().zip(sp.g.values()).zip(sp.c.values()) {
            *y = *gv + s * *cv;
        }
        match sp.symbolic.factor_into(&sc.y_vals, &mut sc.lu) {
            Ok(()) => Ok(true),
            Err(MathError::Singular(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Solves for all node voltages at complex frequency `s` using a
    /// caller-provided workspace — the zero-allocation hot path behind
    /// AC sweeps. Sparse-mode systems run the symbolic-LU numeric phase
    /// (no allocation, no pivot search); dense-mode systems — and any
    /// point where the static sparse pivoting degenerates — run the
    /// dense partial-pivot factorization. Returns a borrow of the
    /// workspace's solution vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllConditioned`] when `Y(s)` is singular.
    pub fn solve_with<'w>(
        &self,
        s: Complex64,
        ws: &'w mut MnaWorkspace,
    ) -> Result<&'w [Complex64]> {
        if let Some(sp) = &self.sparse {
            let sc = ws.sparse.get_or_insert_with(|| sp.scratch());
            if Self::sparse_factor(sp, sc, s)? {
                self.rhs_at(s, &mut ws.rhs);
                sp.symbolic.solve_factored(&mut sc.lu, &ws.rhs, &mut ws.x)?;
                return Ok(&ws.x);
            }
            // Static pivot degenerated: the dense partial-pivot path
            // below decides (and matches the dense-mode verdict).
        }
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.rhs_at(s, &mut ws.rhs);
        lu::factor_in_place(&mut ws.y, &mut ws.perm).map_err(|_| SimError::IllConditioned {
            frequency: s.im / (2.0 * std::f64::consts::PI),
        })?;
        lu::solve_factored(&ws.y, &ws.perm, &ws.rhs, &mut ws.x)?;
        Ok(&ws.x)
    }

    /// The transfer function `H(s) = v(out)/v(in)` at `s`, solved
    /// through a caller-provided workspace (no allocation).
    ///
    /// # Errors
    ///
    /// Propagates [`MnaSystem::solve_with`] failures.
    pub fn transfer_with(&self, s: Complex64, ws: &mut MnaWorkspace) -> Result<Complex64> {
        Ok(self.solve_with(s, ws)?[self.out_index])
    }

    /// Solves for all node voltages at complex frequency `s` under unit
    /// input drive.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllConditioned`] when `Y(s)` is singular.
    pub fn solve(&self, s: Complex64) -> Result<Vec<Complex64>> {
        let mut ws = self.workspace();
        self.solve_with(s, &mut ws)?;
        Ok(ws.x)
    }

    /// The transfer function `H(s) = v(out)/v(in)` at `s` (signed complex
    /// value).
    ///
    /// # Errors
    ///
    /// Propagates [`MnaSystem::solve`] failures.
    pub fn transfer(&self, s: Complex64) -> Result<Complex64> {
        Ok(self.solve(s)?[self.out_index])
    }

    /// Dense determinant of the matrix currently assembled in `ws.y`,
    /// consuming it — identical arithmetic to `lu::det` (factor, then
    /// `sign · Π U_kk`; exactly singular ⇒ zero).
    fn dense_det_of_workspace(&self, ws: &mut MnaWorkspace) -> Result<Complex64> {
        match lu::factor_in_place(&mut ws.y, &mut ws.perm) {
            Ok(sign) => {
                let mut d = Complex64::from_real(sign);
                for k in 0..self.dim {
                    d *= ws.y[(k, k)];
                }
                Ok(d)
            }
            Err(MathError::Singular(_)) => Ok(Complex64::ZERO),
            Err(e) => Err(e.into()),
        }
    }

    /// Evaluates the network determinant `det(Y(s))` — the denominator of
    /// every network function; its roots are the circuit's poles — inside
    /// a caller-provided workspace. A hot consumer (the `poles.rs`
    /// interpolation) reuses one workspace across all sample points with
    /// no per-call allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] only for internal dimension bugs.
    pub fn determinant_with(&self, s: Complex64, ws: &mut MnaWorkspace) -> Result<Complex64> {
        if let Some(sp) = &self.sparse {
            let sc = ws.sparse.get_or_insert_with(|| sp.scratch());
            if Self::sparse_factor(sp, sc, s)? {
                return Ok(sp.symbolic.det_factored(&sc.lu));
            }
            // Fall through: the dense path decides between "genuinely
            // singular ⇒ 0" and a pivot order the static analysis lost.
        }
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.dense_det_of_workspace(ws)
    }

    /// Evaluates the Cramer numerator for the output node — `det(Y(s))`
    /// with the output column replaced by the right-hand side — inside a
    /// caller-provided workspace. The ratio numerator/determinant equals
    /// `H(s)`; its roots are the zeros.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] only for internal dimension bugs.
    pub fn numerator_with(&self, s: Complex64, ws: &mut MnaWorkspace) -> Result<Complex64> {
        if let Some(sp) = &self.sparse {
            let sc = ws.sparse.get_or_insert_with(|| sp.scratch());
            if sc.y_vals.len() != sp.g.values().len() || sc.num_vals.len() != sp.num_src.len() {
                *sc = sp.scratch();
            }
            for ((y, gv), cv) in sc.y_vals.iter_mut().zip(sp.g.values()).zip(sp.c.values()) {
                *y = *gv + s * *cv;
            }
            self.rhs_at(s, &mut ws.rhs);
            for (dst, src) in sc.num_vals.iter_mut().zip(&sp.num_src) {
                *dst = match *src {
                    NumSource::Y(idx) => sc.y_vals[idx],
                    NumSource::Rhs(r) => ws.rhs[r],
                };
            }
            match sp.num_symbolic.factor_into(&sc.num_vals, &mut sc.num_lu) {
                Ok(()) => return Ok(sp.num_symbolic.det_factored(&sc.num_lu)),
                Err(MathError::Singular(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.rhs_at(s, &mut ws.rhs);
        for r in 0..self.dim {
            ws.y[(r, self.out_index)] = ws.rhs[r];
        }
        self.dense_det_of_workspace(ws)
    }

    /// One-shot [`MnaSystem::determinant_with`] through a fresh
    /// workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] only for internal dimension bugs.
    pub fn determinant(&self, s: Complex64) -> Result<Complex64> {
        let mut ws = self.workspace();
        self.determinant_with(s, &mut ws)
    }

    /// One-shot [`MnaSystem::numerator_with`] through a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] only for internal dimension bugs.
    pub fn numerator(&self, s: Complex64) -> Result<Complex64> {
        let mut ws = self.workspace();
        self.numerator_with(s, &mut ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::{Netlist, Topology};
    use std::f64::consts::PI;

    /// Single-pole RC low-pass driven through a unity-gm stage:
    /// H(0) = −gm·R, pole at 1/(2πRC).
    fn rc_stage(r: f64, c: f64, gm: f64) -> Netlist {
        let text = format!("* rc stage\nG1 out 0 in 0 {gm}\nR1 out 0 {r}\nC1 out 0 {c}\n.end\n");
        Netlist::parse(&text).unwrap()
    }

    #[test]
    fn dc_gain_of_rc_stage_is_minus_gm_r() {
        let sys = MnaSystem::new(&rc_stage(10e3, 1e-9, 1e-3)).unwrap();
        let h0 = sys.transfer(Complex64::ZERO).unwrap();
        assert!((h0.re + 10.0).abs() < 1e-9, "{h0}");
        assert!(h0.im.abs() < 1e-12);
    }

    #[test]
    fn rc_stage_rolls_off_3db_at_pole() {
        let (r, c) = (10e3, 1e-9);
        let fp = 1.0 / (2.0 * PI * r * c);
        let sys = MnaSystem::new(&rc_stage(r, c, 1e-3)).unwrap();
        let h = sys.transfer(Complex64::jomega(2.0 * PI * fp)).unwrap();
        let expected = 10.0 / 2.0_f64.sqrt();
        assert!((h.abs() - expected).abs() / expected < 1e-9);
        // Phase: 180° (inversion) − 45° at the pole.
        let phase = h.arg().to_degrees();
        assert!((phase - 135.0).abs() < 1e-6, "phase {phase}");
    }

    #[test]
    fn voltage_divider_through_input_column() {
        // in -R1- out -R2- gnd: H = R2/(R1+R2), no VCCS involved.
        let n = Netlist::parse("* div\nR1 in out 1k\nR2 out 0 3k\n.end\n").unwrap();
        let sys = MnaSystem::new(&n).unwrap();
        let h = sys.transfer(Complex64::ZERO).unwrap();
        assert!((h.re - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nmc_example_dc_gain_matches_formula() {
        let topo = Topology::nmc_example();
        let netlist = topo.elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        let h0 = sys.transfer(Complex64::ZERO).unwrap();
        let expected = topo.skeleton.dc_gain();
        // Overall polarity is positive: (−A1)(+A2)(−A3) = +A1·A2·A3.
        assert!(h0.re > 0.0);
        assert!((h0.re - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn determinant_and_numerator_reproduce_transfer() {
        let netlist = Topology::nmc_example().elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        let s = Complex64::jomega(2.0 * PI * 12.3e3);
        let h_direct = sys.transfer(s).unwrap();
        let h_cramer = sys.numerator(s).unwrap() / sys.determinant(s).unwrap();
        assert!((h_direct - h_cramer).abs() / h_direct.abs() < 1e-9);
    }

    #[test]
    fn empty_netlist_rejected() {
        let n = Netlist::new("empty", vec![]);
        assert!(matches!(MnaSystem::new(&n), Err(SimError::BadNetlist(_))));
    }

    #[test]
    fn netlist_without_output_rejected() {
        let n = Netlist::parse("* no out\nR1 n1 0 1k\n.end\n").unwrap();
        assert!(matches!(MnaSystem::new(&n), Err(SimError::BadNetlist(_))));
    }

    #[test]
    fn floating_node_is_ill_conditioned_at_dc() {
        // n1 connects only through capacitors: G is singular at s = 0.
        let n = Netlist::parse("* float\nC1 in n1 1p\nC2 n1 out 1p\nR1 out 0 1k\n.end\n").unwrap();
        let sys = MnaSystem::new(&n).unwrap();
        assert!(matches!(
            sys.transfer(Complex64::ZERO),
            Err(SimError::IllConditioned { .. })
        ));
        // But solvable at AC.
        assert!(sys.transfer(Complex64::jomega(1e3)).is_ok());
    }

    #[test]
    fn workspace_solve_matches_allocating_solve_bitwise() {
        let netlist = Topology::nmc_example().elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        let mut ws = sys.workspace();
        // One workspace reused across all points must match a fresh
        // allocation per point exactly — same arithmetic, same bits.
        for f in [1.0, 1e3, 1e6, 1e9] {
            let s = Complex64::jomega(2.0 * PI * f);
            let fresh = sys.solve(s).unwrap();
            let reused = sys.solve_with(s, &mut ws).unwrap();
            assert_eq!(reused, fresh.as_slice());
            let h = sys.transfer_with(s, &mut ws).unwrap();
            assert_eq!(h, sys.transfer(s).unwrap());
        }
    }

    #[test]
    fn workspace_survives_a_failed_solve() {
        // A singular point must not poison the workspace for later points.
        let n = Netlist::parse("* float\nC1 in n1 1p\nC2 n1 out 1p\nR1 out 0 1k\n.end\n").unwrap();
        let sys = MnaSystem::new(&n).unwrap();
        let mut ws = sys.workspace();
        assert!(sys.transfer_with(Complex64::ZERO, &mut ws).is_err());
        let s = Complex64::jomega(2.0 * PI * 1e3);
        assert_eq!(
            sys.transfer_with(s, &mut ws).unwrap(),
            sys.transfer(s).unwrap()
        );
    }

    #[test]
    fn bad_element_node_rejected_at_construction() {
        // `unknown_nodes` should cover every referenced node, but the
        // stamping path still reports (not panics) if it ever cannot.
        let n = Netlist::parse("* ok\nR1 in out 1k\nR2 out 0 1k\n.end\n").unwrap();
        assert!(MnaSystem::new(&n).is_ok());
    }

    #[test]
    fn dim_counts_unknowns() {
        let netlist = Topology::nmc_example().elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        assert_eq!(sys.dim(), 3); // n1, n2, out
    }

    /// Behavioural gain ladder with `dim` unknowns: a VCCS chain with a
    /// shunt R‖C at every node plus periodic bridging caps and feedback
    /// resistors for off-diagonal fill.
    fn ladder(dim: usize) -> Netlist {
        assert!(dim >= 2);
        let name = |k: usize| {
            if k == dim - 1 {
                "out".to_string()
            } else {
                format!("x{k}")
            }
        };
        let mut t = String::from("* ladder\n");
        for k in 0..dim {
            let node = name(k);
            let prev = if k == 0 {
                "in".to_string()
            } else {
                name(k - 1)
            };
            t.push_str(&format!("G{k} {node} 0 {prev} 0 0.0002\n"));
            t.push_str(&format!("R{k} {node} 0 10000\n"));
            t.push_str(&format!("C{k} {node} 0 0.000000000002\n"));
            if k >= 3 && k % 3 == 0 {
                t.push_str(&format!("Cb{k} {node} {} 0.0000000000005\n", name(k - 3)));
            }
            if k >= 5 && k % 5 == 0 {
                t.push_str(&format!("Rb{k} {node} {} 1000000\n", name(k - 5)));
            }
        }
        t.push_str(".end\n");
        Netlist::parse(&t).unwrap()
    }

    #[test]
    fn sparse_and_dense_modes_agree_on_ladder() {
        let n = ladder(24);
        let dense = MnaSystem::with_mode(&n, MnaMode::Dense).unwrap();
        let sparse = MnaSystem::with_mode(&n, MnaMode::Sparse).unwrap();
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        assert_eq!(dense.dim(), 24);
        let mut wd = dense.workspace();
        let mut ws = sparse.workspace();
        for f in [0.0, 1.0, 1e3, 1e6, 1e9] {
            let s = Complex64::jomega(2.0 * PI * f);
            let hd = dense.transfer_with(s, &mut wd).unwrap();
            let hs = sparse.transfer_with(s, &mut ws).unwrap();
            assert!(
                (hd - hs).abs() <= 1e-12 * hd.abs().max(1.0),
                "f={f}: dense {hd} vs sparse {hs}"
            );
            let dd = dense.determinant_with(s, &mut wd).unwrap();
            let ds = sparse.determinant_with(s, &mut ws).unwrap();
            assert!(
                (dd - ds).abs() <= 1e-9 * dd.abs().max(1e-300),
                "f={f}: det dense {dd} vs sparse {ds}"
            );
            let nd = dense.numerator_with(s, &mut wd).unwrap();
            let ns = sparse.numerator_with(s, &mut ws).unwrap();
            assert!(
                (nd - ns).abs() <= 1e-9 * nd.abs().max(1e-300),
                "f={f}: num dense {nd} vs sparse {ns}"
            );
        }
    }

    #[test]
    fn crossover_picks_modes() {
        // NMC is dim 3 — below the crossover, always dense.
        let nmc = Topology::nmc_example().elaborate().unwrap();
        assert!(!MnaSystem::new(&nmc).unwrap().is_sparse());
        let n = ladder(24);
        assert!(MnaSystem::new(&n).unwrap().is_sparse());
        assert!(!MnaSystem::with_mode(&n, MnaMode::Dense)
            .unwrap()
            .is_sparse());
    }

    #[test]
    fn value_only_variant_shares_the_symbolic_factorization() {
        let base = ladder(20);
        let donor = MnaSystem::with_mode(&base, MnaMode::Sparse).unwrap();
        // Scale every resistor — values change, the pattern does not.
        let scaled: Vec<Element> = base
            .elements()
            .iter()
            .cloned()
            .map(|e| match e {
                Element::Resistor { label, a, b, ohms } => Element::Resistor {
                    label,
                    a,
                    b,
                    ohms: artisan_circuit::units::Ohms::from(ohms.value() * 1.25),
                },
                other => other,
            })
            .collect();
        let variant = Netlist::new("ladder-scaled", scaled);
        let shared = MnaSystem::new_sharing_symbolic(&variant, &donor).unwrap();
        assert!(shared.is_sparse());
        assert!(Arc::ptr_eq(
            donor.sparse_symbolic().unwrap(),
            shared.sparse_symbolic().unwrap()
        ));
        // And it still solves the *new* values correctly.
        let dense = MnaSystem::with_mode(&variant, MnaMode::Dense).unwrap();
        let s = Complex64::jomega(2.0 * PI * 1e4);
        let hd = dense.transfer(s).unwrap();
        let hs = shared.transfer(s).unwrap();
        assert!((hd - hs).abs() <= 1e-12 * hd.abs().max(1.0));
    }

    #[test]
    fn sparse_singular_fallback_matches_dense_verdicts() {
        // Floating node: singular at DC, fine at AC. Forced-sparse must
        // report exactly what dense reports at both points.
        let n = Netlist::parse("* float\nC1 in n1 1p\nC2 n1 out 1p\nR1 out 0 1k\n.end\n").unwrap();
        let dense = MnaSystem::with_mode(&n, MnaMode::Dense).unwrap();
        let sparse = MnaSystem::with_mode(&n, MnaMode::Sparse).unwrap();
        let mut wd = dense.workspace();
        let mut ws = sparse.workspace();
        assert!(matches!(
            sparse.transfer_with(Complex64::ZERO, &mut ws),
            Err(SimError::IllConditioned { .. })
        ));
        assert!(dense.transfer_with(Complex64::ZERO, &mut wd).is_err());
        let s = Complex64::jomega(2.0 * PI * 1e3);
        let hd = dense.transfer_with(s, &mut wd).unwrap();
        let hs = sparse.transfer_with(s, &mut ws).unwrap();
        assert!((hd - hs).abs() <= 1e-12 * hd.abs().max(1.0));
        // Determinant: dense fallback decides — exactly singular ⇒ 0.
        assert_eq!(
            sparse.determinant(Complex64::ZERO).unwrap(),
            dense.determinant(Complex64::ZERO).unwrap()
        );
    }

    #[test]
    fn workspace_determinant_matches_one_shot_bitwise() {
        let netlist = Topology::nmc_example().elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        let mut ws = sys.workspace();
        for f in [0.0, 1.0, 1e3, 1e6, 1e9] {
            let s = Complex64::jomega(2.0 * PI * f);
            assert_eq!(
                sys.determinant_with(s, &mut ws).unwrap(),
                sys.determinant(s).unwrap()
            );
            assert_eq!(
                sys.numerator_with(s, &mut ws).unwrap(),
                sys.numerator(s).unwrap()
            );
        }
    }

    #[test]
    fn sparse_cramer_reproduces_transfer_on_ladder() {
        let n = ladder(30);
        let sys = MnaSystem::with_mode(&n, MnaMode::Sparse).unwrap();
        let mut ws = sys.workspace();
        let s = Complex64::jomega(2.0 * PI * 5e4);
        let h = sys.transfer_with(s, &mut ws).unwrap();
        let num = sys.numerator_with(s, &mut ws).unwrap();
        let den = sys.determinant_with(s, &mut ws).unwrap();
        let h_cramer = num / den;
        assert!((h - h_cramer).abs() / h.abs() < 1e-9, "{h} vs {h_cramer}");
    }
}
