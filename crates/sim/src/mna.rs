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
//! It does so through a [`StampPlan`]: the netlist's checks, node index
//! and the place of each element's four stamps, worked out once. The
//! corner engine builds one plan per candidate and replays it at every
//! corner's scaled values ([`StampPlan::corner_system`]), with the bits
//! of `MnaSystem::new(&corner.apply(netlist))` and without a netlist
//! clone or a hash lookup per corner. There is one stamping path.
//! Per-frequency assembly is then the single fused pass
//! `Y = G + s·C` — no element walk, no hash-map lookups — and the hot
//! solve path ([`MnaSystem::solve_with`]) factors into a caller-provided
//! [`MnaWorkspace`] so an AC sweep allocates nothing per point.
//!
//! [`MnaSystem::transfer_block`] is the same transfer function at
//! [`LANES`] frequencies at once, assembled and solved in the lanes of
//! one [`LaneBlock`] (an [`MnaBlockWorkspace`]): each lane has the bits
//! of [`MnaSystem::transfer_with`] at its frequency, and a singular lane
//! fails alone. The AC measurement solves its sweep this way, a block
//! at a time, and discards the lanes past the point it needs at the end
//! of the block.
//!
//! # One dense solver, with size caps
//!
//! The behavioural networks this crate analyses have 3–14 unknowns
//! (the NMC example is dim 3). They are all solved by one dense
//! partial-pivot LU on a contiguous matrix, with no ordering analysis
//! and one code path to keep bit-exact. A netlist that would need more
//! than 64 unknowns is refused with [`SimError::BadNetlist`] before any
//! matrix is allocated: two `dim × dim` complex matrices and an O(dim³)
//! LU per frequency point are then the worst one candidate can cost, so
//! a hostile or runaway netlist cannot exhaust memory or hold a batch
//! for hours. A netlist of more than 256 elements is refused the same
//! way, before anything is stamped, because pole extraction factors the
//! network once per capacitor.

use crate::corners::CornerPoint;
use crate::error::SimError;
use crate::Result;
use artisan_circuit::{Element, Netlist, Node};
use artisan_math::lu::{self, LaneBlock, LANES};
use artisan_math::width::Width;
use artisan_math::{CMatrix, Complex64, MathError};
use std::collections::HashMap;
use std::f64::consts::PI;

/// Most unknowns an [`MnaSystem`] may have: over four times the largest
/// system that the paper circuits and 40 000 sampled topologies build
/// (14).
/// Larger netlists are refused before any matrix is allocated.
pub(crate) const MAX_UNKNOWNS: usize = 64;

/// Most elements an [`MnaSystem`] may stamp: seven times the largest
/// netlist any paper circuit or sampled topology elaborates to (36).
/// Pole extraction factors the network once per capacitor, so the
/// element count bounds an analysis's cost as the unknown cap bounds a
/// solve's. Larger netlists are refused before anything is stamped.
pub(crate) const MAX_ELEMENTS: usize = 256;

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
}

/// Reusable scratch for [`MnaSystem::transfer_block`]: the `LANES`
/// systems of one block. Build one with [`MnaSystem::block_workspace`];
/// a measurement reuses it for every block of its sweep.
#[derive(Debug, Clone)]
pub struct MnaBlockWorkspace {
    block: LaneBlock,
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
}

/// Where one stamp of an element lands under source elimination:
/// ground rows and columns vanish, the input column feeds the
/// right-hand side (unit input drive), and the input row is dropped
/// (the source balances its own KCL).
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Added to entry `(row, col)` of the element's matrix.
    Entry(usize, usize),
    /// Subtracted from row `row` of the element's right-hand side.
    Rhs(usize),
    /// Dropped.
    Dropped,
}

/// An element's netlist value and the matrix it stamps.
#[derive(Debug, Clone, Copy)]
enum Stamped {
    /// A resistor: stamps `1/ohms` into `G`.
    Resistor(f64),
    /// A capacitor: stamps `farads` into `C`; `load` marks the `CL` label,
    /// the only capacitor a corner's load axis scales.
    Capacitor { farads: f64, load: bool },
    /// A VCCS: stamps `gm` into `G`.
    Vccs(f64),
}

/// One element of a [`StampPlan`]: its value and its four slots, in
/// the order stamping visits them.
#[derive(Debug, Clone, Copy)]
struct PlannedElement {
    value: Stamped,
    slots: [Slot; 4],
}

/// A netlist's MNA stamping, indexed once: the checks of
/// [`MnaSystem::new`] passed, the unknowns numbered, and for each
/// element in netlist order its value and where its four stamps land
/// (their signs follow from the element's kind).
/// Scaling values never changes structure, so one plan builds the
/// nominal system ([`StampPlan::system`]) and every corner's
/// ([`StampPlan::corner_system`]) by replaying the same slots with other
/// values.
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::corners::CornerPoint;
/// use artisan_sim::mna::{MnaSystem, StampPlan};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let netlist = Topology::nmc_example().elaborate()?;
/// let plan = StampPlan::new(&netlist)?;
/// let corner = CornerPoint { r_scale: 1.1, gm_scale: 0.9, cl_scale: 2.0 };
/// let planned = plan.corner_system(&corner);
/// let rebuilt = MnaSystem::new(&corner.apply(&netlist))?;
/// assert_eq!(planned.stamps(), rebuilt.stamps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StampPlan {
    out_index: usize,
    dim: usize,
    elements: Vec<PlannedElement>,
}

impl StampPlan {
    /// Checks the netlist as [`MnaSystem::new`] does, indexes its unknown
    /// nodes, and places every element's stamps.
    ///
    /// # Errors
    ///
    /// [`SimError::BadNetlist`], in this order of checks: no elements,
    /// more than 256 elements, more than 64 unknown nodes, no `out`
    /// node, an element referencing a node missing from the unknown
    /// index.
    pub fn new(netlist: &Netlist) -> Result<Self> {
        let elements = netlist.element_count();
        if elements == 0 {
            return Err(SimError::BadNetlist("netlist is empty".into()));
        }
        if elements > MAX_ELEMENTS {
            return Err(SimError::BadNetlist(
                format!(
                    "netlist has {elements} elements; the simulator stamps at most {MAX_ELEMENTS}"
                )
                .into(),
            ));
        }
        let unknowns = netlist.unknown_nodes();
        if unknowns.len() > MAX_UNKNOWNS {
            return Err(SimError::BadNetlist(
                format!(
                    "netlist has {} unknown nodes; the simulator solves at most {MAX_UNKNOWNS}",
                    unknowns.len()
                )
                .into(),
            ));
        }
        let index: HashMap<Node, usize> = unknowns
            .iter()
            .copied()
            .enumerate()
            .map(|(k, n)| (n, k))
            .collect();
        let out_index = *index
            .get(&Node::Output)
            .ok_or_else(|| SimError::BadNetlist("netlist has no `out` node".into()))?;
        let missing = |node: Node| {
            SimError::BadNetlist(
                format!("element references node `{node}` missing from the MNA index").into(),
            )
        };
        let slot = |(r, c): (Node, Node)| -> Result<Slot> {
            let ri = match index.get(&r) {
                Some(&ri) => ri,
                None if matches!(r, Node::Ground | Node::Input) => return Ok(Slot::Dropped),
                None => return Err(missing(r)),
            };
            match c {
                Node::Ground => Ok(Slot::Dropped),
                Node::Input => Ok(Slot::Rhs(ri)),
                other => index
                    .get(&other)
                    .map(|&ci| Slot::Entry(ri, ci))
                    .ok_or_else(|| missing(other)),
            }
        };
        let elements = netlist
            .elements()
            .iter()
            .map(|e| {
                let (value, targets) = match e {
                    Element::Resistor { a, b, ohms, .. } => (
                        Stamped::Resistor(ohms.value()),
                        [(*a, *a), (*a, *b), (*b, *b), (*b, *a)],
                    ),
                    Element::Capacitor {
                        label,
                        a,
                        b,
                        farads,
                        ..
                    } => (
                        Stamped::Capacitor {
                            farads: farads.value(),
                            load: label == "CL",
                        },
                        [(*a, *a), (*a, *b), (*b, *b), (*b, *a)],
                    ),
                    // I = gm·(v(cp) − v(cn)) leaves out_p, enters out_n.
                    Element::Vccs {
                        out_p,
                        out_n,
                        ctrl_p,
                        ctrl_n,
                        gm,
                        ..
                    } => (
                        Stamped::Vccs(gm.value()),
                        [
                            (*out_p, *ctrl_p),
                            (*out_p, *ctrl_n),
                            (*out_n, *ctrl_p),
                            (*out_n, *ctrl_n),
                        ],
                    ),
                };
                let [s0, s1, s2, s3] = targets;
                Ok(PlannedElement {
                    value,
                    slots: [slot(s0)?, slot(s1)?, slot(s2)?, slot(s3)?],
                })
            })
            .collect::<Result<_>>()?;
        Ok(StampPlan {
            out_index,
            dim: unknowns.len(),
            elements,
        })
    }

    /// The system of the netlist's own values: the stamp values are
    /// `1/ohms`, `farads` and `gm`.
    pub fn system(&self) -> MnaSystem {
        self.replay(|value| match value {
            Stamped::Resistor(ohms) => 1.0 / ohms,
            Stamped::Capacitor { farads, .. } => farads,
            Stamped::Vccs(gm) => gm,
        })
    }

    /// The system of `corner`'s value-scaled netlist, with the bits of
    /// `MnaSystem::new(&corner.apply(netlist))`: each stamp value is
    /// computed as [`CornerPoint::apply`] scales it, `1/(ohms·r_scale)`,
    /// `farads·cl_scale` for the `CL` capacitor and `farads` for any
    /// other, and `gm·gm_scale`.
    pub fn corner_system(&self, corner: &CornerPoint) -> MnaSystem {
        self.replay(|value| match value {
            Stamped::Resistor(ohms) => 1.0 / (ohms * corner.r_scale),
            Stamped::Capacitor { farads, load } if load => farads * corner.cl_scale,
            Stamped::Capacitor { farads, .. } => farads,
            Stamped::Vccs(gm) => gm * corner.gm_scale,
        })
    }

    /// Stamps every element, in netlist order, with the value `value`
    /// gives it: conductances into `G`, capacitances into `C`, each with
    /// its half of the source-eliminated right-hand side.
    fn replay(&self, value: impl Fn(Stamped) -> f64) -> MnaSystem {
        let dim = self.dim;
        let mut g = CMatrix::zeros(dim, dim);
        let mut c = CMatrix::zeros(dim, dim);
        let mut rhs_g = vec![Complex64::ZERO; dim];
        let mut rhs_c = vec![Complex64::ZERO; dim];
        for e in &self.elements {
            let v = Complex64::from_real(value(e.value));
            let (m, rhs, signed) = match e.value {
                Stamped::Resistor(_) => (&mut g, &mut rhs_g, [v, -v, v, -v]),
                Stamped::Capacitor { .. } => (&mut c, &mut rhs_c, [v, -v, v, -v]),
                Stamped::Vccs(_) => (&mut g, &mut rhs_g, [v, -v, -v, v]),
            };
            for (slot, val) in e.slots.iter().zip(signed) {
                match *slot {
                    Slot::Entry(r, col) => m.stamp(r, col, val),
                    Slot::Rhs(r) => rhs[r] -= val,
                    Slot::Dropped => {}
                }
            }
        }
        MnaSystem {
            out_index: self.out_index,
            dim,
            g,
            c,
            rhs_g,
            rhs_c,
        }
    }
}

impl MnaSystem {
    /// Indexes the netlist's unknown nodes, validates that an output
    /// node exists, and stamps the `G`/`C` matrices once: the nominal
    /// system of the netlist's [`StampPlan`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadNetlist`] when the netlist has no `out`
    /// node, no elements, more than 256 elements, more than 64 unknown
    /// nodes, or an element references a node missing from the unknown
    /// index.
    pub fn new(netlist: &Netlist) -> Result<Self> {
        Ok(StampPlan::new(netlist)?.system())
    }

    /// The stamped pencils: `G`, `C`, and the right-hand-side halves
    /// `rhs_g` and `rhs_c`, so that `Y(s) = G + s·C` and the
    /// right-hand side is `rhs_g + s·rhs_c`.
    pub fn stamps(&self) -> (&CMatrix, &CMatrix, &[Complex64], &[Complex64]) {
        (&self.g, &self.c, &self.rhs_g, &self.rhs_c)
    }

    /// Number of unknown node voltages.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Always `false`: the dense LU is the only solver. The benchmark's
    /// per-layer trace (`benchmark/src/trace.rs`) still reads this flag,
    /// so it stays until the next change to the benchmark drops that
    /// read.
    pub fn is_sparse(&self) -> bool {
        false
    }

    /// A fresh solve workspace sized for this system.
    pub fn workspace(&self) -> MnaWorkspace {
        MnaWorkspace {
            y: CMatrix::zeros(self.dim, self.dim),
            rhs: vec![Complex64::ZERO; self.dim],
            perm: Vec::with_capacity(self.dim),
            x: Vec::with_capacity(self.dim),
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

    /// Solves for all node voltages at complex frequency `s` using a
    /// caller-provided workspace — the zero-allocation hot path behind
    /// AC sweeps: assemble `Y(s)` in place, then factor with partial
    /// pivoting and solve. Returns a borrow of the workspace's solution
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllConditioned`] when `Y(s)` is singular.
    pub fn solve_with<'w>(
        &self,
        s: Complex64,
        ws: &'w mut MnaWorkspace,
    ) -> Result<&'w [Complex64]> {
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.rhs_at(s, &mut ws.rhs);
        lu::factor_in_place(&mut ws.y, &mut ws.perm).map_err(|_| SimError::IllConditioned {
            frequency: s.im / (2.0 * PI),
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

    /// A fresh block workspace sized for this system, run at
    /// [`Width::detected`].
    pub fn block_workspace(&self) -> MnaBlockWorkspace {
        self.block_workspace_at(Width::detected())
    }

    /// [`MnaSystem::block_workspace`] at `width`, with the same bits: the
    /// benchmarks' way to time [`Width::Portable`] beside the detected
    /// width.
    pub fn block_workspace_at(&self, width: Width) -> MnaBlockWorkspace {
        MnaBlockWorkspace {
            block: LaneBlock::with_width(self.dim, width),
        }
    }

    /// The transfer function at each of the `LANES` frequencies in `s`,
    /// one result per lane, solved together in `ws` with no allocation.
    /// Each lane assembles `Y = G + s·C` and the right-hand side with
    /// the expressions of [`MnaSystem::transfer_with`] and factors and
    /// solves with the scalar LU's operations, so a lane's value has the
    /// bits of `transfer_with` at its `s`. The back substitution stops
    /// at the output row, the only one `H(s)` reads.
    ///
    /// # Errors
    ///
    /// A lane whose `Y(s)` is singular is [`SimError::IllConditioned`]
    /// at its own frequency; the other lanes are unaffected. Every lane
    /// is [`SimError::Math`] when `ws` was built for another dimension.
    pub fn transfer_block(
        &self,
        s: &[Complex64; LANES],
        ws: &mut MnaBlockWorkspace,
    ) -> [Result<Complex64>; LANES] {
        let block = &mut ws.block;
        if let Err(e) = block.assign_scale_add(&self.g, &self.c, &self.rhs_g, &self.rhs_c, s) {
            let e = SimError::from(e);
            return std::array::from_fn(|_| Err(e.clone()));
        }
        let singular = block.factor();
        block.solve(self.out_index);
        std::array::from_fn(|lane| {
            if singular[lane] {
                Err(SimError::IllConditioned {
                    frequency: s[lane].im / (2.0 * PI),
                })
            } else {
                Ok(block.solution(self.out_index, lane))
            }
        })
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

    /// Determinant of the matrix currently assembled in `ws.y`,
    /// consuming it — identical arithmetic to `lu::det` (factor, then
    /// `sign · Π U_kk`; exactly singular ⇒ zero).
    fn det_of_workspace(&self, ws: &mut MnaWorkspace) -> Result<Complex64> {
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
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.det_of_workspace(ws)
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
        ws.y.assign_scale_add(&self.g, &self.c, s)?;
        self.rhs_at(s, &mut ws.rhs);
        for r in 0..self.dim {
            ws.y[(r, self.out_index)] = ws.rhs[r];
        }
        self.det_of_workspace(ws)
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
        // An exactly singular Y(0) has determinant exactly zero.
        assert_eq!(sys.determinant(Complex64::ZERO).unwrap(), Complex64::ZERO);
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
        assert!(!sys.is_sparse());
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
    fn cramer_reproduces_transfer_on_ladder() {
        let sys = MnaSystem::new(&ladder(30)).unwrap();
        assert_eq!(sys.dim(), 30);
        let mut ws = sys.workspace();
        let s = Complex64::jomega(2.0 * PI * 5e4);
        let h = sys.transfer_with(s, &mut ws).unwrap();
        let num = sys.numerator_with(s, &mut ws).unwrap();
        let den = sys.determinant_with(s, &mut ws).unwrap();
        let h_cramer = num / den;
        assert!((h - h_cramer).abs() / h.abs() < 1e-9, "{h} vs {h_cramer}");
    }

    #[test]
    fn netlist_over_the_unknown_cap_is_refused() {
        assert_eq!(MnaSystem::new(&ladder(MAX_UNKNOWNS)).unwrap().dim(), 64);
        let refused = MnaSystem::new(&ladder(MAX_UNKNOWNS + 1)).unwrap_err();
        assert!(
            matches!(&refused, SimError::BadNetlist(r) if r.to_string().contains("65 unknown nodes")),
            "{refused}"
        );
    }

    /// One gain stage with its load and `extra` parallel 1 fF
    /// capacitors: one unknown, `3 + extra` elements.
    fn padded_stage(extra: usize) -> Netlist {
        let mut t = String::from("* padded\nG1 out 0 in 0 1m\nR1 out 0 10k\nCL out 0 1p\n");
        for k in 0..extra {
            t.push_str(&format!("Cx{k} out 0 1f\n"));
        }
        t.push_str(".end\n");
        Netlist::parse(&t).unwrap()
    }

    #[test]
    fn netlist_over_the_element_cap_is_refused() {
        let at_cap = padded_stage(MAX_ELEMENTS - 3);
        assert_eq!(at_cap.element_count(), MAX_ELEMENTS);
        assert_eq!(MnaSystem::new(&at_cap).unwrap().dim(), 1);
        let refused = MnaSystem::new(&padded_stage(MAX_ELEMENTS - 2)).unwrap_err();
        assert!(
            matches!(&refused, SimError::BadNetlist(r) if r.to_string().contains("257 elements")),
            "{refused}"
        );
        // The 64-unknown ladder stays inside the element cap.
        assert!(ladder(MAX_UNKNOWNS + 1).element_count() <= MAX_ELEMENTS);
    }

    #[test]
    fn block_transfer_matches_transfer_with_in_every_lane() {
        let sys = MnaSystem::new(&ladder(9)).unwrap();
        let mut ws = sys.workspace();
        let mut block_ws = sys.block_workspace();
        for first in [1e-2, 3e3, 1e8] {
            let s: [Complex64; LANES] =
                std::array::from_fn(|l| Complex64::jomega(2.0 * PI * first * (1.0 + l as f64)));
            let block = sys.transfer_block(&s, &mut block_ws);
            for (lane, h) in block.into_iter().enumerate() {
                let want = sys.transfer_with(s[lane], &mut ws).unwrap();
                let got = h.unwrap();
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn a_singular_lane_fails_alone_at_its_own_frequency() {
        // Singular at s = 0 only: n1 hangs between two capacitors.
        let n = Netlist::parse("* float\nC1 in n1 1p\nC2 n1 out 1p\nR1 out 0 1k\n.end\n").unwrap();
        let sys = MnaSystem::new(&n).unwrap();
        let mut block_ws = sys.block_workspace();
        let mut s = [Complex64::jomega(2.0 * PI * 1e3); LANES];
        s[3] = Complex64::ZERO;
        for (lane, h) in sys
            .transfer_block(&s, &mut block_ws)
            .into_iter()
            .enumerate()
        {
            match h {
                Err(SimError::IllConditioned { frequency }) => {
                    assert_eq!((lane, frequency), (3, 0.0))
                }
                Ok(h) => assert_eq!(h, sys.transfer(s[lane]).unwrap(), "lane {lane}"),
                Err(e) => panic!("lane {lane}: {e}"),
            }
        }
        // A workspace of another dimension fails every lane.
        let other = MnaSystem::new(&ladder(4)).unwrap();
        let results = other.transfer_block(&s, &mut block_ws);
        assert!(results.iter().all(|h| matches!(h, Err(SimError::Math(_)))));
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
}
