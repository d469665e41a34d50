//! Random topology sampling — the netlist half of the NetlistTuple
//! generator (§3.2.2).
//!
//! "The generator randomly selects connection types for each tunable
//! connection and assembles the netlists." Sampling is seeded and
//! weighted: `Open` dominates (real opamps use a handful of compensation
//! devices, not one on every arc), passive compensation is common, exotic
//! active networks are rare — mirroring the distribution of the circuits
//! in the surveys the paper annotates.

use crate::connection::{ConnectionParams, ConnectionType};
use crate::element::Element;
use crate::netlist::Netlist;
use crate::node::Node;
use crate::position::{Position, PositionRules};
use crate::skeleton::{Skeleton, StageParams};
use crate::topology::{Placement, Topology};
use crate::units::{Farads, Ohms, Siemens};
use rand::Rng;

/// Parameter ranges for sampled component values (log-uniform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRanges {
    /// Resistor range in ohms.
    pub r: (f64, f64),
    /// Capacitor range in farads.
    pub c: (f64, f64),
    /// Transconductance range in siemens.
    pub gm: (f64, f64),
    /// Stage transconductance range in siemens.
    pub stage_gm: (f64, f64),
    /// Stage intrinsic gain range (gm·ro).
    pub stage_gain: (f64, f64),
}

impl Default for SampleRanges {
    fn default() -> Self {
        SampleRanges {
            // The full electrically-plausible behavioural space — what a
            // black-box tool must search. Artisan's expertise is knowing
            // which tiny corner of it the spec maps to.
            r: (10.0, 1e7),
            c: (10e-15, 100e-12),
            gm: (0.1e-6, 10e-3),
            stage_gm: (1e-6, 10e-3),
            // Uncascoded 180 nm-class intrinsic gain; higher values need
            // the cascoding expertise the knowledge base encodes, which
            // black-box samplers do not have.
            stage_gain: (15.0, 90.0),
        }
    }
}

/// Weight assigned to `Open` relative to weight 1.0 for every other legal
/// type when sampling a position.
const OPEN_WEIGHT: f64 = 8.0;
/// Weight for plain passive compensation types.
const PASSIVE_WEIGHT: f64 = 3.0;

/// Samples one log-uniform value in `[lo, hi]`.
pub fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi > lo, "log_uniform needs 0 < lo < hi");
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

/// Samples a random legal topology: skeleton parameters log-uniform in
/// range, one weighted connection choice per tunable position, and
/// component values for every placed connection.
///
/// The returned topology always validates.
pub fn sample_topology<R: Rng + ?Sized>(rng: &mut R, ranges: &SampleRanges, cl: f64) -> Topology {
    let stage = |rng: &mut R| {
        let gm = log_uniform(rng, ranges.stage_gm.0, ranges.stage_gm.1);
        let gain = log_uniform(rng, ranges.stage_gain.0, ranges.stage_gain.1);
        StageParams::from_gm_and_gain(gm, gain)
    };
    let skeleton = Skeleton::new(stage(rng), stage(rng), stage(rng), 1e6, cl);
    let mut topo = Topology::new(skeleton);

    for pos in Position::ALL {
        let conn = sample_connection(rng, pos);
        if conn == ConnectionType::Open {
            continue;
        }
        let params = sample_params(rng, conn, ranges);
        #[allow(clippy::expect_used)] // drawn from the position's legal set
        topo.place(Placement::new(pos, conn, params))
            .expect("sampled connection is legal by construction");
    }
    topo
}

/// Samples a connection type for one position from its legal set, with
/// `Open` and passive types favoured.
pub fn sample_connection<R: Rng + ?Sized>(rng: &mut R, pos: Position) -> ConnectionType {
    let legal = PositionRules::legal_types(pos);
    let weight = |c: &ConnectionType| -> f64 {
        if *c == ConnectionType::Open {
            OPEN_WEIGHT
        } else if c.is_passive() {
            PASSIVE_WEIGHT
        } else {
            1.0
        }
    };
    let total: f64 = legal.iter().map(weight).sum();
    let mut draw = rng.gen_range(0.0..total);
    for c in &legal {
        draw -= weight(c);
        if draw <= 0.0 {
            return *c;
        }
    }
    legal.last().copied().unwrap_or(ConnectionType::Open)
}

/// Samples the component values a connection type requires.
pub fn sample_params<R: Rng + ?Sized>(
    rng: &mut R,
    conn: ConnectionType,
    ranges: &SampleRanges,
) -> ConnectionParams {
    ConnectionParams {
        r: conn
            .needs_r()
            .then(|| Ohms(log_uniform(rng, ranges.r.0, ranges.r.1))),
        c: conn
            .needs_c()
            .then(|| Farads(log_uniform(rng, ranges.c.0, ranges.c.1))),
        gm: conn
            .needs_gm()
            .then(|| Siemens(log_uniform(rng, ranges.gm.0, ranges.gm.1))),
    }
}

/// Applies 1–3 random mutations to a netlist: dropping an element,
/// duplicating one under a fresh label, scaling a value by a decade or
/// two, rewiring one terminal to another existing node, or bridging two
/// existing nodes with a random R or C.
///
/// This is the fuzzing counterpart of [`sample_topology`]: sampled
/// topologies are legal by construction, while mutated netlists roam the
/// broken neighbourhood around them — floating nodes, reference-free
/// islands, severed signal paths — which is exactly the population a
/// static ERC gate has to classify correctly.
pub fn mutate_netlist<R: Rng + ?Sized>(rng: &mut R, netlist: &Netlist) -> Netlist {
    let mut elements: Vec<Element> = netlist.elements().to_vec();
    let mutations = rng.gen_range(1..=3);
    for i in 0..mutations {
        let nodes = {
            let set: std::collections::BTreeSet<Node> =
                elements.iter().flat_map(|e| e.nodes()).collect();
            set.into_iter().collect::<Vec<Node>>()
        };
        match rng.gen_range(0u8..5) {
            // Drop one element.
            0 if elements.len() > 1 => {
                let at = rng.gen_range(0..elements.len());
                elements.remove(at);
            }
            // Duplicate one element under a fresh label.
            1 if !elements.is_empty() => {
                let at = rng.gen_range(0..elements.len());
                let mut dup = elements[at].clone();
                // Keep the leading type letter: the parser dispatches on it.
                let fresh = format!("{}m{i}", dup.label());
                match &mut dup {
                    Element::Resistor { label, .. }
                    | Element::Capacitor { label, .. }
                    | Element::Vccs { label, .. } => *label = fresh,
                }
                elements.push(dup);
            }
            // Scale one value by 10^±(1..=2).
            2 if !elements.is_empty() => {
                let at = rng.gen_range(0..elements.len());
                let exp = rng.gen_range(1..=2) as f64;
                let factor = if rng.gen_bool(0.5) {
                    10f64.powf(exp)
                } else {
                    10f64.powf(-exp)
                };
                match &mut elements[at] {
                    Element::Resistor { ohms, .. } => *ohms = Ohms(ohms.value() * factor),
                    Element::Capacitor { farads, .. } => {
                        *farads = Farads(farads.value() * factor);
                    }
                    Element::Vccs { gm, .. } => *gm = Siemens(gm.value() * factor),
                }
            }
            // Rewire one terminal to a random existing node.
            3 if !elements.is_empty() && !nodes.is_empty() => {
                let at = rng.gen_range(0..elements.len());
                let to = nodes[rng.gen_range(0..nodes.len())];
                match &mut elements[at] {
                    Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                        if rng.gen_bool(0.5) {
                            *a = to;
                        } else {
                            *b = to;
                        }
                    }
                    Element::Vccs {
                        out_p,
                        out_n,
                        ctrl_p,
                        ctrl_n,
                        ..
                    } => {
                        let term = [out_p, out_n, ctrl_p, ctrl_n];
                        let pick = rng.gen_range(0..term.len());
                        if let Some(t) = term.into_iter().nth(pick) {
                            *t = to;
                        }
                    }
                }
            }
            // Bridge two existing nodes with a random R or C.
            _ if nodes.len() >= 2 => {
                let a = nodes[rng.gen_range(0..nodes.len())];
                let b = nodes[rng.gen_range(0..nodes.len())];
                let ranges = SampleRanges::default();
                let bridge = if rng.gen_bool(0.5) {
                    Element::Resistor {
                        label: format!("Rbr{i}"),
                        a,
                        b,
                        ohms: Ohms(log_uniform(rng, ranges.r.0, ranges.r.1)),
                    }
                } else {
                    Element::Capacitor {
                        label: format!("Cbr{i}"),
                        a,
                        b,
                        farads: Farads(log_uniform(rng, ranges.c.0, ranges.c.1)),
                    }
                };
                elements.push(bridge);
            }
            _ => {}
        }
    }
    Netlist::new(format!("{} (mutated)", netlist.title()), elements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_topologies_always_validate() {
        let mut rng = StdRng::seed_from_u64(3);
        let ranges = SampleRanges::default();
        for _ in 0..200 {
            let t = sample_topology(&mut rng, &ranges, 10e-12);
            t.validate().expect("sampled topology valid");
            t.elaborate().expect("sampled topology elaborates");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ranges = SampleRanges::default();
        let a = sample_topology(&mut StdRng::seed_from_u64(9), &ranges, 10e-12);
        let b = sample_topology(&mut StdRng::seed_from_u64(9), &ranges, 10e-12);
        assert_eq!(a, b);
        let c = sample_topology(&mut StdRng::seed_from_u64(10), &ranges, 10e-12);
        assert_ne!(a, c);
    }

    #[test]
    fn open_dominates_but_variety_appears() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut open = 0usize;
        let mut other = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let c = sample_connection(&mut rng, Position::N1ToOut);
            if c == ConnectionType::Open {
                open += 1;
            } else {
                other.insert(c);
            }
        }
        assert!(open > 60, "open sampled {open} times");
        assert!(
            other.len() > 8,
            "only {} distinct non-open types",
            other.len()
        );
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = log_uniform(&mut rng, 1e-12, 1e-9);
            assert!((1e-12..1e-9).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "log_uniform")]
    fn log_uniform_rejects_bad_range() {
        let mut rng = StdRng::seed_from_u64(5);
        log_uniform(&mut rng, 0.0, 1.0);
    }

    #[test]
    fn mutate_netlist_is_deterministic_and_stays_parseable() {
        let base = Topology::nmc_example().elaborate().expect("elaborates");
        let a = mutate_netlist(&mut StdRng::seed_from_u64(11), &base);
        let b = mutate_netlist(&mut StdRng::seed_from_u64(11), &base);
        assert_eq!(a, b);
        for seed in 0..50 {
            let m = mutate_netlist(&mut StdRng::seed_from_u64(seed), &base);
            assert!(!m.elements().is_empty(), "seed {seed} emptied the netlist");
            // Round-trips through the SPICE-like text form.
            let text = m.to_text();
            Netlist::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        }
    }

    #[test]
    fn mutate_netlist_actually_mutates() {
        let base = Topology::nmc_example().elaborate().expect("elaborates");
        let changed = (0..20)
            .filter(|seed| {
                let m = mutate_netlist(&mut StdRng::seed_from_u64(*seed), &base);
                m.elements() != base.elements()
            })
            .count();
        assert!(changed >= 15, "only {changed}/20 seeds changed the netlist");
    }

    #[test]
    fn sampled_params_match_needs() {
        let mut rng = StdRng::seed_from_u64(6);
        let ranges = SampleRanges::default();
        for conn in ConnectionType::ALL {
            let p = sample_params(&mut rng, conn, &ranges);
            assert_eq!(p.r.is_some(), conn.needs_r(), "{conn:?}");
            assert_eq!(p.c.is_some(), conn.needs_c(), "{conn:?}");
            assert_eq!(p.gm.is_some(), conn.needs_gm(), "{conn:?}");
        }
    }
}
