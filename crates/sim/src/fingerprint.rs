//! Content-addressed identity for simulation inputs.
//!
//! A [`NetlistFingerprint`] is a canonical 128-bit structural hash of a
//! [`Netlist`] (or a [`Topology`] about to be analyzed): two netlists
//! with the same elements — in *any* order — hash identically, while any
//! electrical difference (a node, a label, one bit of a component value)
//! produces a different fingerprint with overwhelming probability. That
//! is exactly the key a content-addressed simulation cache needs: the
//! agent loop, ToT branch scoring, and the BOBO/RLBO inner loops keep
//! re-emitting structurally identical behavioural netlists, and a stable
//! identity lets [`crate::cache::SimCache`] return the memoized
//! [`crate::AnalysisReport`] instead of re-running the full analysis.
//!
//! Design notes:
//!
//! - **Order-insensitive.** Each element is hashed independently; the
//!   per-element hashes are sorted before being chained, so permuting
//!   the element list (a netlist round-tripped through text, a topology
//!   whose placements were applied in a different order) cannot change
//!   the fingerprint. Duplicate elements still matter: the sorted
//!   multiset keeps both copies.
//! - **Labels are electrical here.** [`crate::Simulator::analyze_netlist`]
//!   resolves the load by its `CL` label and the power model keys off
//!   VCCS identity, so labels participate in the hash.
//! - **The netlist title does not.** It is a comment, not a circuit.
//! - **Entry paths are tagged.** `analyze_topology` and
//!   `analyze_netlist` derive power and load differently, so a topology
//!   fingerprint and the fingerprint of its elaborated netlist are
//!   deliberately distinct — a cache can never serve a topology-path
//!   report to a netlist-path query.
//! - **Values hash by bit pattern** (`f64::to_bits`), never by rounded
//!   display. Conservative: `-0.0` and `0.0` miss each other, which
//!   costs one redundant simulation instead of ever aliasing.
//!
//! The analysis configuration (sweep grid, pole extraction, power
//! model) is folded in by the cache wrapper as a *salt* — see
//! [`config_salt`] — so one shared [`crate::cache::SimCache`] can serve
//! backends with different configurations without cross-talk.

use crate::simulator::AnalysisConfig;
use artisan_circuit::{Element, Netlist, Node, Topology};

/// SplitMix64 increment: the odd 64-bit golden-ratio constant.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-*sensitive* chaining hasher used inside a single element (field
/// order within an element is fixed by its type, so sensitivity is what
/// we want there).
#[derive(Debug, Clone, Copy)]
struct Chain {
    state: u64,
}

impl Chain {
    fn new(seed: u64) -> Self {
        Chain {
            state: mix(seed ^ GOLDEN),
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state.wrapping_add(GOLDEN) ^ mix(v));
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(self) -> u64 {
        mix(self.state)
    }
}

/// Encodes a node as a single integer: variant tag in the high bits,
/// internal index in the low bits. Distinct nodes never collide.
fn node_code(node: Node) -> u64 {
    match node {
        Node::Ground => 0,
        Node::Input => 1,
        Node::N1 => 2,
        Node::N2 => 3,
        Node::Output => 4,
        Node::Internal(k) => (5u64 << 32) | u64::from(k),
    }
}

/// Hashes one element in isolation (kind tag, label, terminals, value).
fn element_hash(e: &Element) -> u64 {
    let mut c = Chain::new(match e {
        Element::Resistor { .. } => 0x5245_5349_5354_4f52, // "RESISTOR"
        Element::Capacitor { .. } => 0x4341_5041_4349_544f, // "CAPACITO"
        Element::Vccs { .. } => 0x5643_4353_5643_4353,     // "VCCSVCCS"
    });
    c.write_bytes(e.label().as_bytes());
    for node in e.nodes() {
        c.write_u64(node_code(node));
    }
    c.write_f64(e.value());
    c.finish()
}

/// Entry-path tag for [`NetlistFingerprint::of_netlist`].
const NETLIST_TAG: u64 = 0x6e65_746c_6973_7431; // "netlist1"
/// Entry-path tag for [`NetlistFingerprint::of_topology`].
const TOPOLOGY_TAG: u64 = 0x746f_706f_6c6f_6731; // "topolog1"

/// A canonical, order-insensitive 128-bit structural hash of a
/// simulation input.
///
/// # Example
///
/// ```
/// use artisan_circuit::Topology;
/// use artisan_sim::fingerprint::NetlistFingerprint;
///
/// let netlist = Topology::nmc_example().elaborate().unwrap();
/// let mut shuffled = netlist.elements().to_vec();
/// shuffled.reverse();
/// let reordered = artisan_circuit::Netlist::new("other title", shuffled);
///
/// assert_eq!(
///     NetlistFingerprint::of_netlist(&netlist),
///     NetlistFingerprint::of_netlist(&reordered),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetlistFingerprint {
    lanes: [u64; 2],
}

impl NetlistFingerprint {
    /// Fingerprints a flat netlist (the `analyze_netlist` entry path).
    pub fn of_netlist(netlist: &Netlist) -> Self {
        Self::of_elements(NETLIST_TAG, netlist.elements())
    }

    /// Fingerprints a topology (the `analyze_topology` entry path):
    /// the elaborated element multiset plus the skeleton quantities the
    /// topology path feeds into power and FoM (load capacitance, stage
    /// and auxiliary transconductances). Returns `None` when the
    /// topology does not elaborate — such inputs are not cacheable and
    /// must take the real backend's error path.
    pub fn of_topology(topo: &Topology) -> Option<Self> {
        let netlist = topo.elaborate().ok()?;
        let mut fp = Self::of_elements(TOPOLOGY_TAG, netlist.elements());
        // analyze_topology derives FoM load and static power from the
        // *topology*, not the elaborated netlist: fold those inputs in
        // so two topologies that elaborate identically but bill power
        // differently can never share a cache line.
        let s = &topo.skeleton;
        for lane in &mut fp.lanes {
            let mut c = Chain::new(*lane);
            c.write_f64(s.cl.value());
            c.write_f64(s.stage1.gm.value());
            c.write_f64(s.stage2.gm.value());
            c.write_f64(s.stage3.gm.value());
            c.write_f64(topo.auxiliary_gm_total());
            c.write_u64(topo.auxiliary_stage_count() as u64);
            *lane = c.finish();
        }
        Some(fp)
    }

    /// The two 64-bit lanes of the fingerprint.
    pub fn lanes(&self) -> [u64; 2] {
        self.lanes
    }

    /// The fingerprint's exact 16-byte wire form (little-endian lanes).
    /// This is the key encoding used by the persistent snapshot format
    /// ([`crate::cache::persist`]); [`NetlistFingerprint::from_bytes`]
    /// inverts it exactly.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.lanes[0].to_le_bytes());
        bytes[8..].copy_from_slice(&self.lanes[1].to_le_bytes());
        bytes
    }

    /// Rebuilds a fingerprint from its [`NetlistFingerprint::to_bytes`]
    /// wire form.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(&bytes[..8]);
        let lo = u64::from_le_bytes(lane);
        lane.copy_from_slice(&bytes[8..]);
        let hi = u64::from_le_bytes(lane);
        NetlistFingerprint { lanes: [lo, hi] }
    }

    /// Folds an arbitrary salt (e.g. an analysis-configuration digest)
    /// into both lanes, producing a distinct but equally well-mixed
    /// fingerprint. Equal inputs + equal salts ⇒ equal outputs.
    #[must_use]
    pub fn with_salt(&self, salt: u64) -> Self {
        NetlistFingerprint {
            lanes: [
                mix(self.lanes[0] ^ mix(salt ^ GOLDEN)),
                mix(self.lanes[1] ^ mix(salt.wrapping_add(GOLDEN))),
            ],
        }
    }

    fn of_elements(tag: u64, elements: &[Element]) -> Self {
        // Canonicalization: hash every element independently, then sort
        // the per-element hashes. The sorted multiset is invariant under
        // element reordering but still counts duplicates.
        let mut hashes: Vec<u64> = elements.iter().map(element_hash).collect();
        hashes.sort_unstable();
        let mut lanes = [Chain::new(tag), Chain::new(mix(tag))];
        for lane in &mut lanes {
            lane.write_u64(elements.len() as u64);
        }
        for (k, h) in hashes.iter().enumerate() {
            // The two lanes chain the same multiset under different
            // per-position tweaks, so a coincidental 64-bit collision in
            // one lane is vanishingly unlikely to repeat in the other.
            lanes[0].write_u64(*h);
            lanes[1].write_u64(h.wrapping_add(mix(k as u64)));
        }
        NetlistFingerprint {
            lanes: [lanes[0].finish(), lanes[1].finish()],
        }
    }
}

/// Digests an [`AnalysisConfig`] into a salt for
/// [`NetlistFingerprint::with_salt`]: every field that changes analysis
/// output participates, so two backends with different sweep grids,
/// pole-extraction settings, or power models can share one cache
/// without ever serving each other's reports.
pub fn config_salt(config: &AnalysisConfig) -> u64 {
    let mut c = Chain::new(0x414e_4143_4647_3031); // "ANACFG01"
    c.write_f64(config.sweep.f_start);
    c.write_f64(config.sweep.f_stop);
    c.write_u64(config.sweep.points_per_decade as u64);
    c.write_f64(config.pole_zero.omega_lo);
    c.write_f64(config.pole_zero.omega_hi);
    c.write_f64(config.pole_zero.trim_tol);
    c.write_f64(config.pole_zero.root_tol);
    c.write_u64(config.pole_zero.max_iter as u64);
    c.write_f64(config.power.vdd);
    c.write_f64(config.power.gm_over_id);
    c.write_f64(config.power.input_stage_factor);
    c.write_f64(config.power.bias_overhead);
    c.write_u64(u64::from(config.reject_unstable));
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::Topology;

    fn nmc_netlist() -> Netlist {
        Topology::nmc_example()
            .elaborate()
            .unwrap_or_else(|e| panic!("nmc elaborates: {e}"))
    }

    #[test]
    fn element_order_does_not_matter() {
        let netlist = nmc_netlist();
        let mut reversed = netlist.elements().to_vec();
        reversed.reverse();
        let permuted = Netlist::new(netlist.title(), reversed);
        assert_eq!(
            NetlistFingerprint::of_netlist(&netlist),
            NetlistFingerprint::of_netlist(&permuted)
        );
    }

    #[test]
    fn title_does_not_matter() {
        let netlist = nmc_netlist();
        let retitled = Netlist::new("completely different", netlist.elements().to_vec());
        assert_eq!(
            NetlistFingerprint::of_netlist(&netlist),
            NetlistFingerprint::of_netlist(&retitled)
        );
    }

    #[test]
    fn one_value_bit_changes_the_fingerprint() {
        let netlist = nmc_netlist();
        let mut elements = netlist.elements().to_vec();
        let mut bumped = false;
        for e in &mut elements {
            if let Element::Capacitor { farads, .. } = e {
                *farads =
                    artisan_circuit::units::Farads(f64::from_bits(farads.value().to_bits() + 1));
                bumped = true;
                break;
            }
        }
        assert!(bumped, "example has a capacitor");
        let tweaked = Netlist::new(netlist.title(), elements);
        assert_ne!(
            NetlistFingerprint::of_netlist(&netlist),
            NetlistFingerprint::of_netlist(&tweaked)
        );
    }

    #[test]
    fn labels_are_electrical() {
        // analyze_netlist resolves the load by its CL label, so renaming
        // an element must change the identity.
        let netlist = nmc_netlist();
        let mut elements = netlist.elements().to_vec();
        if let Some(Element::Capacitor { label, .. }) = elements.first_mut() {
            *label = format!("{label}x");
        } else if let Some(Element::Resistor { label, .. }) = elements.first_mut() {
            *label = format!("{label}x");
        } else if let Some(Element::Vccs { label, .. }) = elements.first_mut() {
            *label = format!("{label}x");
        }
        let relabeled = Netlist::new(netlist.title(), elements);
        assert_ne!(
            NetlistFingerprint::of_netlist(&netlist),
            NetlistFingerprint::of_netlist(&relabeled)
        );
    }

    #[test]
    fn duplicate_elements_are_counted() {
        let netlist = nmc_netlist();
        let mut doubled = netlist.elements().to_vec();
        doubled.push(doubled[0].clone());
        let dup = Netlist::new(netlist.title(), doubled);
        assert_ne!(
            NetlistFingerprint::of_netlist(&netlist),
            NetlistFingerprint::of_netlist(&dup)
        );
    }

    #[test]
    fn topology_and_netlist_paths_never_alias() {
        let topo = Topology::nmc_example();
        let via_topo =
            NetlistFingerprint::of_topology(&topo).unwrap_or_else(|| panic!("elaborates"));
        let via_netlist = NetlistFingerprint::of_netlist(&nmc_netlist());
        assert_ne!(via_topo, via_netlist);
    }

    #[test]
    fn topology_fingerprint_is_stable_across_calls() {
        let topo = Topology::dfc_example();
        assert_eq!(
            NetlistFingerprint::of_topology(&topo),
            NetlistFingerprint::of_topology(&topo)
        );
        assert_ne!(
            NetlistFingerprint::of_topology(&Topology::nmc_example()),
            NetlistFingerprint::of_topology(&topo)
        );
    }

    #[test]
    fn salts_partition_the_key_space() {
        let fp = NetlistFingerprint::of_netlist(&nmc_netlist());
        assert_eq!(fp.with_salt(7), fp.with_salt(7));
        assert_ne!(fp.with_salt(7), fp.with_salt(8));
        assert_ne!(fp.with_salt(7), fp);
    }

    #[test]
    fn config_salt_tracks_every_analysis_knob() {
        let base = AnalysisConfig::default();
        let mut sweep = base;
        sweep.sweep.points_per_decade += 1;
        let mut power = base;
        power.power.vdd *= 1.01;
        let mut reject = base;
        reject.reject_unstable = !reject.reject_unstable;
        let salts = [
            config_salt(&base),
            config_salt(&sweep),
            config_salt(&power),
            config_salt(&reject),
        ];
        for i in 0..salts.len() {
            for j in (i + 1)..salts.len() {
                assert_ne!(salts[i], salts[j], "salt {i} == salt {j}");
            }
        }
        assert_eq!(config_salt(&base), config_salt(&AnalysisConfig::default()));
    }
}
