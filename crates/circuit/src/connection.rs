use crate::element::Element;
use crate::node::{Node, NodeAllocator};
use crate::units::{Farads, Ohms, Siemens};

/// Default transconductance of the ideal voltage buffer used by the
/// buffered-Miller connection types (a source-follower behaves as a VCCS
/// of its own gm loaded by the path it drives).
pub const BUFFER_GM: f64 = 1e-3;

/// Intrinsic voltage gain `gm·ro` assumed for auxiliary transconductance
/// stages; sets their lumped output resistance `ro = GAIN/gm`.
pub const AUX_INTRINSIC_GAIN: f64 = 50.0;

/// Intrinsic gain for cascoded auxiliary stages.
pub const CASCODE_INTRINSIC_GAIN: f64 = 400.0;

/// The 25 optional connection types of §3.2.2.
///
/// Every tunable position of the three-stage skeleton carries exactly one
/// of these. The set spans the compensation vocabulary of the multistage
/// amplifier literature (Leung & Mok 2001; Riad et al. 2019): passive
/// Miller networks, nulling resistors, feedforward and feedback
/// transconductance stages (with the series/parallel passive combinations
/// that black-box optimizers like BOBO/RLBO produce — the paper's Fig. 6
/// calls these out as typically uninterpretable), voltage- and
/// current-buffered Miller paths, and the damping-factor-control (DFC)
/// block used to drive large capacitive loads.
///
/// # Example
///
/// ```
/// use artisan_circuit::ConnectionType;
///
/// assert_eq!(ConnectionType::ALL.len(), 25);
/// assert!(ConnectionType::MillerCapacitor.is_passive());
/// assert!(ConnectionType::Dfc.is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConnectionType {
    /// No connection.
    Open,
    /// A plain resistor.
    Resistor,
    /// A plain capacitor — the Miller compensation workhorse.
    MillerCapacitor,
    /// Capacitor with a series nulling resistor.
    SeriesRc,
    /// Resistor and capacitor in parallel.
    ParallelRc,
    /// Non-inverting (feedforward) transconductance stage.
    PosGm,
    /// Inverting transconductance stage.
    NegGm,
    /// Non-inverting gm stage with a series resistor at its output.
    PosGmSeriesR,
    /// Inverting gm stage with a series resistor at its output.
    NegGmSeriesR,
    /// Non-inverting gm stage coupled through a series capacitor.
    PosGmSeriesC,
    /// Inverting gm stage coupled through a series capacitor.
    NegGmSeriesC,
    /// Non-inverting gm stage with a parallel bypass capacitor.
    PosGmParallelC,
    /// Inverting gm stage with a parallel bypass capacitor.
    NegGmParallelC,
    /// Non-inverting gm stage with a parallel RC network.
    PosGmParallelRc,
    /// Inverting gm stage with a parallel RC network.
    NegGmParallelRc,
    /// Voltage-buffered Miller capacitor (source-follower in the path).
    BufferedC,
    /// Current-buffered Miller capacitor (common-gate in the path).
    CurrentBufferedC,
    /// Voltage buffer followed by a series RC network.
    BufferedSeriesRc,
    /// Current buffer in series with an RC network.
    CurrentBufferedSeriesRc,
    /// Damping-factor-control block: an inverting gain stage with a local
    /// feedback capacitor, acting as a frequency-dependent capacitor.
    Dfc,
    /// DFC block with an additional nulling resistor in its feedback path.
    DfcWithR,
    /// Non-inverting cascoded gm stage (high output resistance).
    PosGmCascode,
    /// Inverting cascoded gm stage (high output resistance).
    NegGmCascode,
    /// R–C–R T-network with the capacitor tapped to ground.
    RcTNetwork,
    /// Cross-coupled transconductance pair between the two terminals.
    CrossGmPair,
}

impl ConnectionType {
    /// Every connection type, in canonical order. Length is exactly 25,
    /// the figure quoted in §3.2.2 of the paper.
    pub const ALL: [ConnectionType; 25] = [
        ConnectionType::Open,
        ConnectionType::Resistor,
        ConnectionType::MillerCapacitor,
        ConnectionType::SeriesRc,
        ConnectionType::ParallelRc,
        ConnectionType::PosGm,
        ConnectionType::NegGm,
        ConnectionType::PosGmSeriesR,
        ConnectionType::NegGmSeriesR,
        ConnectionType::PosGmSeriesC,
        ConnectionType::NegGmSeriesC,
        ConnectionType::PosGmParallelC,
        ConnectionType::NegGmParallelC,
        ConnectionType::PosGmParallelRc,
        ConnectionType::NegGmParallelRc,
        ConnectionType::BufferedC,
        ConnectionType::CurrentBufferedC,
        ConnectionType::BufferedSeriesRc,
        ConnectionType::CurrentBufferedSeriesRc,
        ConnectionType::Dfc,
        ConnectionType::DfcWithR,
        ConnectionType::PosGmCascode,
        ConnectionType::NegGmCascode,
        ConnectionType::RcTNetwork,
        ConnectionType::CrossGmPair,
    ];

    /// Short mnemonic used in netlist comments and dataset annotations.
    pub fn code(self) -> &'static str {
        match self {
            ConnectionType::Open => "open",
            ConnectionType::Resistor => "r",
            ConnectionType::MillerCapacitor => "c",
            ConnectionType::SeriesRc => "rc_series",
            ConnectionType::ParallelRc => "rc_parallel",
            ConnectionType::PosGm => "gm+",
            ConnectionType::NegGm => "gm-",
            ConnectionType::PosGmSeriesR => "gm+_r",
            ConnectionType::NegGmSeriesR => "gm-_r",
            ConnectionType::PosGmSeriesC => "gm+_c",
            ConnectionType::NegGmSeriesC => "gm-_c",
            ConnectionType::PosGmParallelC => "gm+||c",
            ConnectionType::NegGmParallelC => "gm-||c",
            ConnectionType::PosGmParallelRc => "gm+||rc",
            ConnectionType::NegGmParallelRc => "gm-||rc",
            ConnectionType::BufferedC => "buf_c",
            ConnectionType::CurrentBufferedC => "cbuf_c",
            ConnectionType::BufferedSeriesRc => "buf_rc",
            ConnectionType::CurrentBufferedSeriesRc => "cbuf_rc",
            ConnectionType::Dfc => "dfc",
            ConnectionType::DfcWithR => "dfc_r",
            ConnectionType::PosGmCascode => "gm+_casc",
            ConnectionType::NegGmCascode => "gm-_casc",
            ConnectionType::RcTNetwork => "rcr_t",
            ConnectionType::CrossGmPair => "gm_cross",
        }
    }

    /// Parses a mnemonic back into its type.
    pub fn from_code(code: &str) -> Option<ConnectionType> {
        ConnectionType::ALL
            .iter()
            .copied()
            .find(|t| t.code() == code)
    }

    /// True for connections built only from R and C.
    pub fn is_passive(self) -> bool {
        matches!(
            self,
            ConnectionType::Open
                | ConnectionType::Resistor
                | ConnectionType::MillerCapacitor
                | ConnectionType::SeriesRc
                | ConnectionType::ParallelRc
                | ConnectionType::RcTNetwork
        )
    }

    /// True for connections containing at least one transconductance
    /// stage or buffer (everything that burns bias current).
    pub fn is_active(self) -> bool {
        !self.is_passive()
    }

    /// True when the elaborated network needs a resistor value.
    pub fn needs_r(self) -> bool {
        matches!(
            self,
            ConnectionType::Resistor
                | ConnectionType::SeriesRc
                | ConnectionType::ParallelRc
                | ConnectionType::PosGmSeriesR
                | ConnectionType::NegGmSeriesR
                | ConnectionType::PosGmParallelRc
                | ConnectionType::NegGmParallelRc
                | ConnectionType::BufferedSeriesRc
                | ConnectionType::CurrentBufferedSeriesRc
                | ConnectionType::DfcWithR
                | ConnectionType::RcTNetwork
        )
    }

    /// True when the elaborated network needs a capacitor value.
    pub fn needs_c(self) -> bool {
        matches!(
            self,
            ConnectionType::MillerCapacitor
                | ConnectionType::SeriesRc
                | ConnectionType::ParallelRc
                | ConnectionType::PosGmSeriesC
                | ConnectionType::NegGmSeriesC
                | ConnectionType::PosGmParallelC
                | ConnectionType::NegGmParallelC
                | ConnectionType::PosGmParallelRc
                | ConnectionType::NegGmParallelRc
                | ConnectionType::BufferedC
                | ConnectionType::CurrentBufferedC
                | ConnectionType::BufferedSeriesRc
                | ConnectionType::CurrentBufferedSeriesRc
                | ConnectionType::Dfc
                | ConnectionType::DfcWithR
                | ConnectionType::RcTNetwork
        )
    }

    /// True when the elaborated network needs a transconductance value.
    pub fn needs_gm(self) -> bool {
        self.is_active()
            && !matches!(
                self,
                ConnectionType::BufferedC
                    | ConnectionType::BufferedSeriesRc
                    | ConnectionType::CurrentBufferedC
                    | ConnectionType::CurrentBufferedSeriesRc
            )
            || matches!(
                self,
                ConnectionType::CurrentBufferedC | ConnectionType::CurrentBufferedSeriesRc
            )
    }

    /// Additional static bias current drawn by the connection, as a
    /// multiple of `gm / (gm/Id)`; buffers cost one unit of `BUFFER_GM`
    /// at the buffer's own ratio. Used by the power model in
    /// `artisan-sim`.
    pub fn bias_stage_count(self) -> usize {
        match self {
            ConnectionType::Open
            | ConnectionType::Resistor
            | ConnectionType::MillerCapacitor
            | ConnectionType::SeriesRc
            | ConnectionType::ParallelRc
            | ConnectionType::RcTNetwork => 0,
            ConnectionType::CrossGmPair => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for ConnectionType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Component values for one placed connection.
///
/// Only the fields the connection type [`ConnectionType::needs_r`] /
/// `needs_c` / `needs_gm` are consulted; the rest may stay `None`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConnectionParams {
    /// Resistance, when the type includes a resistor.
    pub r: Option<Ohms>,
    /// Capacitance, when the type includes a capacitor.
    pub c: Option<Farads>,
    /// Transconductance, when the type includes a gm stage.
    pub gm: Option<Siemens>,
}

impl ConnectionParams {
    /// No values — suitable only for [`ConnectionType::Open`].
    pub fn none() -> Self {
        Self::default()
    }

    /// Only a resistance.
    pub fn r(ohms: f64) -> Self {
        ConnectionParams {
            r: Some(Ohms(ohms)),
            ..Default::default()
        }
    }

    /// Only a capacitance.
    pub fn c(farads: f64) -> Self {
        ConnectionParams {
            c: Some(Farads(farads)),
            ..Default::default()
        }
    }

    /// Only a transconductance.
    pub fn gm(siemens: f64) -> Self {
        ConnectionParams {
            gm: Some(Siemens(siemens)),
            ..Default::default()
        }
    }

    /// Resistance and capacitance.
    pub fn rc(ohms: f64, farads: f64) -> Self {
        ConnectionParams {
            r: Some(Ohms(ohms)),
            c: Some(Farads(farads)),
            gm: None,
        }
    }

    /// All three values.
    pub fn full(ohms: f64, farads: f64, siemens: f64) -> Self {
        ConnectionParams {
            r: Some(Ohms(ohms)),
            c: Some(Farads(farads)),
            gm: Some(Siemens(siemens)),
        }
    }

    fn r_or_default(&self) -> f64 {
        self.r.map(Ohms::value).unwrap_or(10e3)
    }

    fn c_or_default(&self) -> f64 {
        self.c.map(Farads::value).unwrap_or(1e-12)
    }

    fn gm_or_default(&self) -> f64 {
        self.gm.map(Siemens::value).unwrap_or(50e-6)
    }
}

/// Elaborates a placed connection into primitive elements between `a` and
/// `b`, allocating internal nodes as needed. `prefix` namespaces instance
/// labels (e.g. `"p1"` yields `Rp1`, `Ccp1`, `Gp1`, …). Connection
/// capacitors are labelled `Cc` so they can never collide with the
/// skeleton's parasitic capacitors `Cp1`–`Cp3` (positions `p1`–`p3`
/// would otherwise both produce a `Cp3`).
///
/// The elaborations follow the small-signal conventions of Fig. 1(b):
/// auxiliary gm stages carry a lumped output resistance
/// `ro = AUX_INTRINSIC_GAIN / gm`; buffers are VCCS-based behavioural
/// models (see `DESIGN.md`, substitution table).
pub fn elaborate(
    conn: ConnectionType,
    params: &ConnectionParams,
    a: Node,
    b: Node,
    alloc: &mut NodeAllocator,
    prefix: &str,
) -> Vec<Element> {
    use ConnectionType as Ct;

    let r = params.r_or_default();
    let c = params.c_or_default();
    let gm = params.gm_or_default();

    let resistor = |label: String, x: Node, y: Node, ohms: f64| Element::Resistor {
        label,
        a: x,
        b: y,
        ohms: Ohms(ohms),
    };
    let capacitor = |label: String, x: Node, y: Node, farads: f64| Element::Capacitor {
        label,
        a: x,
        b: y,
        farads: Farads(farads),
    };
    // SPICE `G` polarity: I = gm·(v(cp) − v(cn)) flows out of `out_p` and
    // into `out_n`; `G w 0 u 0 gm` is therefore an *inverting* stage u→w.
    let inverting = |label: String, from: Node, to: Node, g: f64| Element::Vccs {
        label,
        out_p: to,
        out_n: Node::Ground,
        ctrl_p: from,
        ctrl_n: Node::Ground,
        gm: Siemens(g),
    };
    let noninverting = |label: String, from: Node, to: Node, g: f64| Element::Vccs {
        label,
        out_p: Node::Ground,
        out_n: to,
        ctrl_p: from,
        ctrl_n: Node::Ground,
        gm: Siemens(g),
    };
    let ro_of = |g: f64| AUX_INTRINSIC_GAIN / g;

    match conn {
        Ct::Open => Vec::new(),
        Ct::Resistor => vec![resistor(format!("R{prefix}"), a, b, r)],
        Ct::MillerCapacitor => vec![capacitor(format!("Cc{prefix}"), a, b, c)],
        Ct::SeriesRc => {
            let x = alloc.fresh();
            vec![
                resistor(format!("R{prefix}"), a, x, r),
                capacitor(format!("Cc{prefix}"), x, b, c),
            ]
        }
        Ct::ParallelRc => vec![
            resistor(format!("R{prefix}"), a, b, r),
            capacitor(format!("Cc{prefix}"), a, b, c),
        ],
        Ct::PosGm => vec![
            noninverting(format!("G{prefix}"), a, b, gm),
            resistor(format!("Rg{prefix}"), b, Node::Ground, ro_of(gm)),
        ],
        Ct::NegGm => vec![
            inverting(format!("G{prefix}"), a, b, gm),
            resistor(format!("Rg{prefix}"), b, Node::Ground, ro_of(gm)),
        ],
        Ct::PosGmSeriesR | Ct::NegGmSeriesR => {
            let x = alloc.fresh();
            let stage = if conn == Ct::PosGmSeriesR {
                noninverting(format!("G{prefix}"), a, x, gm)
            } else {
                inverting(format!("G{prefix}"), a, x, gm)
            };
            vec![
                stage,
                resistor(format!("Rg{prefix}"), x, Node::Ground, ro_of(gm)),
                resistor(format!("R{prefix}"), x, b, r),
            ]
        }
        Ct::PosGmSeriesC | Ct::NegGmSeriesC => {
            let x = alloc.fresh();
            let stage = if conn == Ct::PosGmSeriesC {
                noninverting(format!("G{prefix}"), a, x, gm)
            } else {
                inverting(format!("G{prefix}"), a, x, gm)
            };
            vec![
                stage,
                resistor(format!("Rg{prefix}"), x, Node::Ground, ro_of(gm)),
                capacitor(format!("Cc{prefix}"), x, b, c),
            ]
        }
        Ct::PosGmParallelC | Ct::NegGmParallelC => {
            let stage = if conn == Ct::PosGmParallelC {
                noninverting(format!("G{prefix}"), a, b, gm)
            } else {
                inverting(format!("G{prefix}"), a, b, gm)
            };
            vec![
                stage,
                resistor(format!("Rg{prefix}"), b, Node::Ground, ro_of(gm)),
                capacitor(format!("Cc{prefix}"), a, b, c),
            ]
        }
        Ct::PosGmParallelRc | Ct::NegGmParallelRc => {
            let stage = if conn == Ct::PosGmParallelRc {
                noninverting(format!("G{prefix}"), a, b, gm)
            } else {
                inverting(format!("G{prefix}"), a, b, gm)
            };
            vec![
                stage,
                resistor(format!("Rg{prefix}"), b, Node::Ground, ro_of(gm)),
                resistor(format!("R{prefix}"), a, b, r),
                capacitor(format!("Cc{prefix}"), a, b, c),
            ]
        }
        Ct::BufferedC => {
            let x = alloc.fresh();
            vec![
                // Source follower: I = BUFFER_GM·(v(a) − v(x)) into x.
                Element::Vccs {
                    label: format!("Gb{prefix}"),
                    out_p: Node::Ground,
                    out_n: x,
                    ctrl_p: a,
                    ctrl_n: x,
                    gm: Siemens(BUFFER_GM),
                },
                capacitor(format!("Cc{prefix}"), x, b, c),
            ]
        }
        Ct::BufferedSeriesRc => {
            let x = alloc.fresh();
            let y = alloc.fresh();
            vec![
                Element::Vccs {
                    label: format!("Gb{prefix}"),
                    out_p: Node::Ground,
                    out_n: x,
                    ctrl_p: a,
                    ctrl_n: x,
                    gm: Siemens(BUFFER_GM),
                },
                resistor(format!("R{prefix}"), x, y, r),
                capacitor(format!("Cc{prefix}"), y, b, c),
            ]
        }
        Ct::CurrentBufferedC => {
            let x = alloc.fresh();
            vec![
                capacitor(format!("Cc{prefix}"), a, x, c),
                // Common-gate input impedance 1/gm at the buffer node…
                resistor(format!("Rb{prefix}"), x, Node::Ground, 1.0 / gm),
                // …whose current is forwarded into b.
                inverting(format!("G{prefix}"), x, b, gm),
            ]
        }
        Ct::CurrentBufferedSeriesRc => {
            let x = alloc.fresh();
            let y = alloc.fresh();
            vec![
                resistor(format!("R{prefix}"), a, y, r),
                capacitor(format!("Cc{prefix}"), y, x, c),
                resistor(format!("Rb{prefix}"), x, Node::Ground, 1.0 / gm),
                inverting(format!("G{prefix}"), x, b, gm),
            ]
        }
        Ct::Dfc | Ct::DfcWithR => {
            // Gain stage gm4 sensing v(a), with capacitive feedback from
            // its output d back to a: a frequency-dependent capacitor
            // that damps the non-dominant complex pole pair (Q9/A9 of
            // Fig. 7). `b` is the block's reference terminal.
            let d = alloc.fresh();
            let mut elems = vec![
                Element::Vccs {
                    label: format!("Gd{prefix}"),
                    out_p: d,
                    out_n: b,
                    ctrl_p: a,
                    ctrl_n: b,
                    gm: Siemens(gm),
                },
                resistor(format!("Rd{prefix}"), d, Node::Ground, ro_of(gm)),
            ];
            if conn == Ct::DfcWithR {
                let y = alloc.fresh();
                elems.push(capacitor(format!("Cc{prefix}"), d, y, c));
                elems.push(resistor(format!("R{prefix}"), y, a, r));
            } else {
                elems.push(capacitor(format!("Cc{prefix}"), d, a, c));
            }
            elems
        }
        Ct::PosGmCascode | Ct::NegGmCascode => {
            let stage = if conn == Ct::PosGmCascode {
                noninverting(format!("G{prefix}"), a, b, gm)
            } else {
                inverting(format!("G{prefix}"), a, b, gm)
            };
            vec![
                stage,
                resistor(
                    format!("Rg{prefix}"),
                    b,
                    Node::Ground,
                    CASCODE_INTRINSIC_GAIN / gm,
                ),
            ]
        }
        Ct::RcTNetwork => {
            let x = alloc.fresh();
            vec![
                resistor(format!("Ra{prefix}"), a, x, r),
                capacitor(format!("Cc{prefix}"), x, Node::Ground, c),
                resistor(format!("Rb{prefix}"), x, b, r),
            ]
        }
        Ct::CrossGmPair => vec![
            noninverting(format!("Gf{prefix}"), a, b, gm),
            inverting(format!("Gr{prefix}"), b, a, gm),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_25_types() {
        assert_eq!(ConnectionType::ALL.len(), 25);
        // All distinct.
        let mut set = std::collections::BTreeSet::new();
        for t in ConnectionType::ALL {
            assert!(set.insert(t), "duplicate variant {t:?}");
        }
    }

    #[test]
    fn codes_roundtrip() {
        for t in ConnectionType::ALL {
            assert_eq!(ConnectionType::from_code(t.code()), Some(t));
        }
        assert_eq!(ConnectionType::from_code("nope"), None);
    }

    #[test]
    fn passive_active_partition() {
        let passive = ConnectionType::ALL
            .iter()
            .filter(|t| t.is_passive())
            .count();
        let active = ConnectionType::ALL.iter().filter(|t| t.is_active()).count();
        assert_eq!(passive + active, 25);
        assert_eq!(passive, 6);
    }

    #[test]
    fn open_elaborates_to_nothing() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::Open,
            &ConnectionParams::none(),
            Node::N1,
            Node::Output,
            &mut alloc,
            "p1",
        );
        assert!(elems.is_empty());
        assert_eq!(alloc.count(), 0);
    }

    #[test]
    fn miller_cap_is_single_capacitor() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::MillerCapacitor,
            &ConnectionParams::c(4e-12),
            Node::Output,
            Node::N1,
            &mut alloc,
            "m1",
        );
        assert_eq!(elems.len(), 1);
        assert_eq!(elems[0].value(), 4e-12);
        assert_eq!(elems[0].label(), "Ccm1");
    }

    #[test]
    fn series_rc_uses_internal_node() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::SeriesRc,
            &ConnectionParams::rc(2e3, 3e-12),
            Node::N2,
            Node::Output,
            &mut alloc,
            "z",
        );
        assert_eq!(elems.len(), 2);
        assert_eq!(alloc.count(), 1);
        // The internal node must appear in both elements.
        let x = Node::Internal(0);
        assert!(elems.iter().all(|e| e.nodes().contains(&x)));
    }

    #[test]
    fn gm_stages_carry_output_resistance() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::NegGm,
            &ConnectionParams::gm(100e-6),
            Node::Input,
            Node::Output,
            &mut alloc,
            "f",
        );
        assert_eq!(elems.len(), 2);
        let ro = elems
            .iter()
            .find_map(|e| match e {
                Element::Resistor { ohms, .. } => Some(ohms.value()),
                _ => None,
            })
            .expect("has ro");
        assert!((ro - AUX_INTRINSIC_GAIN / 100e-6).abs() < 1e-6);
    }

    #[test]
    fn dfc_has_feedback_capacitor_to_input() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::Dfc,
            &ConnectionParams {
                c: Some(Farads(2e-12)),
                gm: Some(Siemens(80e-6)),
                r: None,
            },
            Node::N1,
            Node::Ground,
            &mut alloc,
            "d",
        );
        assert_eq!(elems.len(), 3);
        let cap = elems
            .iter()
            .find(|e| matches!(e, Element::Capacitor { .. }))
            .expect("has cap");
        assert!(cap.nodes().contains(&Node::N1));
    }

    #[test]
    fn cross_pair_has_two_sources() {
        let mut alloc = NodeAllocator::new();
        let elems = elaborate(
            ConnectionType::CrossGmPair,
            &ConnectionParams::gm(10e-6),
            Node::N1,
            Node::N2,
            &mut alloc,
            "x",
        );
        let sources = elems
            .iter()
            .filter(|e| matches!(e, Element::Vccs { .. }))
            .count();
        assert_eq!(sources, 2);
    }

    #[test]
    fn every_type_elaborates_without_panicking() {
        for t in ConnectionType::ALL {
            let mut alloc = NodeAllocator::new();
            let elems = elaborate(
                t,
                &ConnectionParams::full(5e3, 2e-12, 60e-6),
                Node::N1,
                Node::Output,
                &mut alloc,
                "q",
            );
            if t == ConnectionType::Open {
                assert!(elems.is_empty());
            } else {
                assert!(!elems.is_empty(), "{t:?} produced nothing");
                // All labels are namespaced by the prefix.
                for e in &elems {
                    assert!(e.label().contains('q'), "{t:?} label {}", e.label());
                    assert!(e.value() > 0.0, "{t:?} nonphysical value");
                }
            }
        }
    }

    #[test]
    fn needs_flags_match_elaboration() {
        // If a type claims not to need a capacitor, its elaboration must
        // not contain one (with default params), and vice versa.
        for t in ConnectionType::ALL {
            let mut alloc = NodeAllocator::new();
            let elems = elaborate(
                t,
                &ConnectionParams::full(5e3, 2e-12, 60e-6),
                Node::N1,
                Node::Output,
                &mut alloc,
                "w",
            );
            let has_c = elems.iter().any(|e| matches!(e, Element::Capacitor { .. }));
            assert_eq!(t.needs_c(), has_c, "{t:?} capacitor mismatch");
            let has_gm_or_buffer = elems.iter().any(|e| matches!(e, Element::Vccs { .. }));
            assert_eq!(t.is_active(), has_gm_or_buffer, "{t:?} active mismatch");
        }
    }

    #[test]
    fn bias_counts_are_consistent() {
        assert_eq!(ConnectionType::Open.bias_stage_count(), 0);
        assert_eq!(ConnectionType::MillerCapacitor.bias_stage_count(), 0);
        assert_eq!(ConnectionType::NegGm.bias_stage_count(), 1);
        assert_eq!(ConnectionType::CrossGmPair.bias_stage_count(), 2);
        assert_eq!(ConnectionType::Dfc.bias_stage_count(), 1);
    }
}
