//! The graph IR behind the rule engine.
//!
//! [`CircuitGraph`] is built **once** per lint from a [`Netlist`]
//! (elaborate a `Topology` first) and holds everything the dataflow
//! passes need: the node table, per-node structural attachment counts
//! (`NodeStats`), and the typed element edges. The classic passes —
//! union-find connectivity (DC-conductive and full-coupling), signal
//! reachability, directed feedback-cycle detection, iterative dead-branch
//! peeling, and the conditioning screen — are methods on the graph, so a
//! full lint stays `O(elements × α(nodes))` plus one bounded BFS per
//! live VCCS edge.
//!
//! The graph is also the foundation of the ERC100+ *screening* family:
//! [`CircuitGraph::singular_islands`] predicts `SingularMatrix` failures
//! before any LU factorization runs (see the left-null-vector argument on
//! that method), which is what lets the simulation stack reject doomed
//! candidates for a screening cost instead of a full testbench run.

use artisan_circuit::{Element, Netlist, Node};
use std::collections::BTreeMap;

/// Whether a node has its own MNA unknown (everything except the
/// eliminated ground reference and the driven input).
pub(crate) fn is_unknown(n: Node) -> bool {
    !matches!(n, Node::Ground | Node::Input)
}

/// Structural attachment counts for one node, accumulated over the
/// element list. "Live" VCCS attachments are the ones that actually
/// stamp a matrix entry: a VCCS with `out_p == out_n` or `ctrl_p ==
/// ctrl_n` cancels its own contribution, and entries only exist in rows
/// and columns belonging to unknown nodes.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeStats {
    /// Resistor/capacitor terminal attachments (self-loops excluded).
    pub(crate) rc: usize,
    /// VCCS output-terminal attachments (self-cancelling ones excluded).
    pub(crate) vccs_out: usize,
    /// VCCS outputs here whose control pair references an unknown node,
    /// i.e. this node's MNA *row* has a structural entry.
    pub(crate) vccs_out_live: usize,
    /// VCCS controls here whose output pair references an unknown node,
    /// i.e. this node's MNA *column* has a structural entry.
    pub(crate) vccs_ctrl_live: usize,
    /// Times this node is referenced as a VCCS control terminal.
    pub(crate) ctrl_refs: usize,
}

/// Disjoint-set forest over node indices.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// What role an [`Edge`] plays in the element it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A resistor branch (DC-conductive coupling).
    Resistor,
    /// A capacitor branch (AC-only coupling).
    Capacitor,
    /// The output branch of a VCCS (current injection pair).
    VccsOutput,
    /// The control pair of a VCCS (voltage sense, no current flows).
    VccsControl,
}

/// One typed edge of the circuit graph. Self-loops (`a == b`) are kept
/// out of the edge list — they stamp nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Label of the element this edge came from.
    pub element: String,
    /// The edge's electrical role.
    pub kind: EdgeKind,
    /// First terminal.
    pub a: Node,
    /// Second terminal.
    pub b: Node,
}

/// One family of the conditioning screen: the spread (max/min) of a
/// positive value class plus the extreme elements realizing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSpread {
    /// Smallest value in the family.
    pub min: f64,
    /// Label of the element carrying the smallest value.
    pub min_label: String,
    /// Largest value in the family.
    pub max: f64,
    /// Label of the element carrying the largest value.
    pub max_label: String,
}

impl ValueSpread {
    /// `max / min` — the dynamic range LU has to survive.
    pub fn ratio(&self) -> f64 {
        self.max / self.min
    }
}

/// Result of the conditioning pass: per-family value spreads.
/// Conductances (1/R and gm) share one family because they land in the
/// same real part of the MNA matrix; capacitances form the other.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conditioning {
    /// Spread of the conductance family (resistor `1/R` and VCCS `gm`).
    pub conductance: Option<ValueSpread>,
    /// Spread of the capacitance family.
    pub capacitance: Option<ValueSpread>,
}

/// The circuit graph IR: node table, typed edges, and per-node
/// structural statistics, computed in one pass over the element list.
pub struct CircuitGraph<'n> {
    pub(crate) netlist: &'n Netlist,
    pub(crate) nodes: Vec<Node>,
    pub(crate) index: BTreeMap<Node, usize>,
    pub(crate) stats: Vec<NodeStats>,
    edges: Vec<Edge>,
}

impl<'n> CircuitGraph<'n> {
    /// Builds the graph for `netlist` in one pass.
    pub fn new(netlist: &'n Netlist) -> Self {
        let nodes = netlist.nodes();
        let index: BTreeMap<Node, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut stats = vec![NodeStats::default(); nodes.len()];
        let mut edges = Vec::new();
        for e in netlist.elements() {
            match e {
                Element::Resistor { label, a, b, .. } => {
                    if a != b {
                        stats[index[a]].rc += 1;
                        stats[index[b]].rc += 1;
                        edges.push(Edge {
                            element: label.clone(),
                            kind: EdgeKind::Resistor,
                            a: *a,
                            b: *b,
                        });
                    }
                }
                Element::Capacitor { label, a, b, .. } => {
                    if a != b {
                        stats[index[a]].rc += 1;
                        stats[index[b]].rc += 1;
                        edges.push(Edge {
                            element: label.clone(),
                            kind: EdgeKind::Capacitor,
                            a: *a,
                            b: *b,
                        });
                    }
                }
                Element::Vccs {
                    label,
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    ..
                } => {
                    let out_live = out_p != out_n;
                    let ctrl_live = ctrl_p != ctrl_n;
                    // Rows of the output pair gain entries in the
                    // columns of the control pair (and vice versa) only
                    // when neither pair cancels itself.
                    let ctrl_hits_unknown =
                        ctrl_live && (is_unknown(*ctrl_p) || is_unknown(*ctrl_n));
                    let out_hits_unknown = out_live && (is_unknown(*out_p) || is_unknown(*out_n));
                    if out_live {
                        edges.push(Edge {
                            element: label.clone(),
                            kind: EdgeKind::VccsOutput,
                            a: *out_p,
                            b: *out_n,
                        });
                        for o in [*out_p, *out_n] {
                            let s = &mut stats[index[&o]];
                            s.vccs_out += 1;
                            if ctrl_hits_unknown {
                                s.vccs_out_live += 1;
                            }
                        }
                    }
                    if ctrl_live {
                        edges.push(Edge {
                            element: label.clone(),
                            kind: EdgeKind::VccsControl,
                            a: *ctrl_p,
                            b: *ctrl_n,
                        });
                    }
                    for c in [*ctrl_p, *ctrl_n] {
                        let s = &mut stats[index[&c]];
                        s.ctrl_refs += 1;
                        if ctrl_live && out_hits_unknown {
                            s.vccs_ctrl_live += 1;
                        }
                    }
                }
            }
        }
        CircuitGraph {
            netlist,
            nodes,
            index,
            stats,
            edges,
        }
    }

    /// Every node the netlist references, in canonical order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The typed element edges (self-loops excluded).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub(crate) fn stat(&self, n: Node) -> &NodeStats {
        &self.stats[self.index[&n]]
    }

    pub(crate) fn has_node(&self, n: Node) -> bool {
        self.index.contains_key(&n)
    }

    /// A node whose MNA row or column is structurally zero at every
    /// frequency — the matrix is singular no matter what values the
    /// elements carry.
    pub(crate) fn is_floating(&self, n: Node) -> bool {
        if !is_unknown(n) {
            return false;
        }
        let s = self.stat(n);
        if s.rc > 0 {
            return false;
        }
        // Zero row: nothing conductive and no live VCCS output.
        // Zero column: nothing conductive and no live VCCS control.
        s.vccs_out_live == 0 || s.vccs_ctrl_live == 0
    }

    /// Union-find over DC-conductive coupling: resistor edges, plus the
    /// self-conductance a VCCS develops when an output terminal doubles
    /// as a control terminal (the unity-gain buffer idiom — its `gm`
    /// stamps the node's own diagonal, tying it to the other control
    /// node at DC).
    pub(crate) fn dc_components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.nodes.len());
        for e in self.netlist.elements() {
            match e {
                Element::Resistor { a, b, .. } => {
                    if a != b {
                        uf.union(self.index[a], self.index[b]);
                    }
                }
                Element::Capacitor { .. } => {}
                Element::Vccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    ..
                } => {
                    if out_p == out_n || ctrl_p == ctrl_n {
                        continue;
                    }
                    for shared in [*out_p, *out_n] {
                        if shared == *ctrl_p || shared == *ctrl_n {
                            for c in [*ctrl_p, *ctrl_n] {
                                if c != shared {
                                    uf.union(self.index[&shared], self.index[&c]);
                                }
                            }
                        }
                    }
                }
            }
        }
        uf
    }

    /// Union-find over every element's full terminal clique (controls
    /// included), with ground excluded as a connector so that "tied to
    /// ground" does not count as "part of the signal path".
    pub(crate) fn signal_components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.nodes.len());
        for e in self.netlist.elements() {
            let terminals = e.nodes();
            for (i, a) in terminals.iter().enumerate() {
                for b in &terminals[i + 1..] {
                    if a != b && *a != Node::Ground && *b != Node::Ground {
                        uf.union(self.index[a], self.index[b]);
                    }
                }
            }
        }
        uf
    }

    /// Connected components — over the full terminal cliques of *every*
    /// element, ground and input included as connectors — that contain
    /// neither ground nor the driven input. Each such island makes the
    /// MNA matrix singular at **every** frequency:
    ///
    /// all of an island's nodes are unknowns (ground/input would have
    /// anchored the component), and every element touching an island
    /// node has *all* terminals inside the island (that is what the
    /// clique union guarantees). A resistor or capacitor `a–b` inside
    /// the island contributes `±y` pairs to columns `a`/`b` whose row
    /// indices are both island unknowns, so each column sums to zero
    /// over the island's rows; a VCCS contributes `±gm` to its control
    /// columns in the rows of its output pair — both island unknowns —
    /// which also cancel. The indicator vector of the island's rows is
    /// therefore a left null vector of `G + sC` for every `s`, and LU
    /// must fail no matter the frequency. This is the structural
    /// prediction behind rule `ERC100`.
    pub fn singular_islands(&self) -> Vec<Vec<Node>> {
        let mut uf = UnionFind::new(self.nodes.len());
        for e in self.netlist.elements() {
            let terminals = e.nodes();
            for (i, a) in terminals.iter().enumerate() {
                for b in &terminals[i + 1..] {
                    if a != b {
                        uf.union(self.index[a], self.index[b]);
                    }
                }
            }
        }
        let anchor_roots: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !is_unknown(**n))
            .map(|(i, _)| uf.find(i))
            .collect();
        let mut islands: BTreeMap<usize, Vec<Node>> = BTreeMap::new();
        for (i, &n) in self.nodes.iter().enumerate() {
            let root = uf.find(i);
            if !anchor_roots.contains(&root) {
                islands.entry(root).or_default().push(n);
            }
        }
        islands.into_values().collect()
    }

    /// Whether the driven input can influence the output at all: both
    /// nodes exist and share a signal component. Influence can only
    /// propagate through shared elements (a VCCS couples its control
    /// pair to its output pair, which the full-clique union covers), so
    /// two different components imply `H(s) ≡ 0`. Rule `ERC101`.
    pub fn has_signal_path(&self) -> bool {
        let (Some(&i), Some(&o)) = (self.index.get(&Node::Input), self.index.get(&Node::Output))
        else {
            return false;
        };
        let mut uf = self.signal_components();
        uf.find(i) == uf.find(o)
    }

    /// Whether any directed cycle passes through a VCCS (active) edge —
    /// the structural signature of a closed feedback loop. Signal flow
    /// is modelled between unknown nodes only: passive branches conduct
    /// both ways, a VCCS forces its control nodes onto its output nodes
    /// one way, and ground/input cannot relay a signal (one is the
    /// reference, the other is pinned by the source). Rule `ERC105`
    /// fires on the *absence* of such a cycle.
    pub fn has_feedback_loop(&self) -> bool {
        let n = self.nodes.len();
        let mut passive: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut active: Vec<(usize, usize)> = Vec::new();
        let relay = |node: Node| is_unknown(node);
        for e in &self.edges {
            match e.kind {
                EdgeKind::Resistor | EdgeKind::Capacitor => {
                    if relay(e.a) && relay(e.b) {
                        let (a, b) = (self.index[&e.a], self.index[&e.b]);
                        passive[a].push(b);
                        passive[b].push(a);
                    }
                }
                EdgeKind::VccsOutput | EdgeKind::VccsControl => {}
            }
        }
        for e in self.netlist.elements() {
            if let Element::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                ..
            } = e
            {
                if out_p == out_n || ctrl_p == ctrl_n {
                    continue;
                }
                for c in [*ctrl_p, *ctrl_n] {
                    for o in [*out_p, *out_n] {
                        // The forward edge may *start* at the input
                        // (the amplifier senses the source), but a
                        // cycle can never return to a pinned node, so
                        // only unknown→unknown edges can close a loop.
                        if relay(c) && relay(o) {
                            active.push((self.index[&c], self.index[&o]));
                        }
                    }
                }
            }
        }
        // A VCCS edge c→o closes a loop iff o reaches c through the
        // directed graph (passive edges both ways + all active edges).
        let step = |from: usize, out: &mut Vec<usize>| {
            out.extend(passive[from].iter().copied());
            out.extend(active.iter().filter(|(c, _)| *c == from).map(|(_, o)| *o));
        };
        for &(c, o) in &active {
            let mut seen = vec![false; n];
            let mut frontier = vec![o];
            seen[o] = true;
            while let Some(v) = frontier.pop() {
                if v == c {
                    return true;
                }
                let mut next = Vec::new();
                step(v, &mut next);
                for u in next {
                    if !seen[u] {
                        seen[u] = true;
                        frontier.push(u);
                    }
                }
            }
        }
        false
    }

    /// Iterative leaf peeling: repeatedly removes dead-end nodes (one
    /// conductive attachment, nothing sensing them, not the output) and
    /// the element that attached them, until a fixpoint. Returns the
    /// peeled nodes grouped by mutual connectivity — each group of two
    /// or more is a *series-dangling branch* that carries no current in
    /// steady state (rule `ERC102`); single peeled nodes are already
    /// covered by the dead-end rule `ERC010`.
    pub fn dead_branches(&self) -> Vec<Vec<Node>> {
        let elements = self.netlist.elements();
        let mut alive = vec![true; elements.len()];
        let mut peeled = vec![false; self.nodes.len()];
        loop {
            // Attachment census over the still-alive elements.
            let mut attach = vec![0usize; self.nodes.len()];
            let mut ctrl_refs = vec![0usize; self.nodes.len()];
            let mut last_element = vec![usize::MAX; self.nodes.len()];
            for (ei, e) in elements.iter().enumerate() {
                if !alive[ei] {
                    continue;
                }
                match e {
                    Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                        if a != b {
                            for t in [a, b] {
                                attach[self.index[t]] += 1;
                                last_element[self.index[t]] = ei;
                            }
                        }
                    }
                    Element::Vccs {
                        out_p,
                        out_n,
                        ctrl_p,
                        ctrl_n,
                        ..
                    } => {
                        if out_p != out_n {
                            for t in [out_p, out_n] {
                                attach[self.index[t]] += 1;
                                last_element[self.index[t]] = ei;
                            }
                        }
                        for t in [ctrl_p, ctrl_n] {
                            ctrl_refs[self.index[t]] += 1;
                        }
                    }
                }
            }
            let mut progressed = false;
            for (i, &n) in self.nodes.iter().enumerate() {
                if peeled[i] || !is_unknown(n) || n == Node::Output {
                    continue;
                }
                if attach[i] == 1 && ctrl_refs[i] == 0 {
                    peeled[i] = true;
                    if last_element[i] != usize::MAX {
                        alive[last_element[i]] = false;
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Group peeled nodes that shared an element in the *original*
        // graph, so a peeled chain reports as one branch.
        let mut uf = UnionFind::new(self.nodes.len());
        for e in elements {
            let terminals = e.nodes();
            for (i, a) in terminals.iter().enumerate() {
                for b in &terminals[i + 1..] {
                    let (ia, ib) = (self.index[a], self.index[b]);
                    if a != b && peeled[ia] && peeled[ib] {
                        uf.union(ia, ib);
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<Node>> = BTreeMap::new();
        for (i, &n) in self.nodes.iter().enumerate() {
            if peeled[i] {
                groups.entry(uf.find(i)).or_default().push(n);
            }
        }
        groups.into_values().filter(|g| g.len() >= 2).collect()
    }

    /// The conditioning screen: per-family value spreads over the
    /// finite, positive element values (non-positive values are rule
    /// ERC008/ERC009's business). Rule `ERC104` warns when a family's
    /// ratio exceeds what double-precision LU digests comfortably.
    pub fn conditioning(&self) -> Conditioning {
        let mut cond = Conditioning::default();
        let track = |slot: &mut Option<ValueSpread>, label: &str, v: f64| {
            if !(v.is_finite() && v > 0.0) {
                return;
            }
            match slot {
                None => {
                    *slot = Some(ValueSpread {
                        min: v,
                        min_label: label.to_string(),
                        max: v,
                        max_label: label.to_string(),
                    });
                }
                Some(s) => {
                    if v < s.min {
                        s.min = v;
                        s.min_label = label.to_string();
                    }
                    if v > s.max {
                        s.max = v;
                        s.max_label = label.to_string();
                    }
                }
            }
        };
        for e in self.netlist.elements() {
            match e {
                Element::Resistor { label, ohms, .. } => {
                    track(&mut cond.conductance, label, 1.0 / ohms.value());
                }
                Element::Capacitor { label, farads, .. } => {
                    track(&mut cond.capacitance, label, farads.value());
                }
                Element::Vccs { label, gm, .. } => {
                    track(&mut cond.conductance, label, gm.value());
                }
            }
        }
        cond
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Netlist {
        match Netlist::parse(text) {
            Ok(n) => n,
            Err(e) => panic!("test netlist failed to parse: {e}"),
        }
    }

    #[test]
    fn edges_are_typed_and_skip_self_loops() {
        let n = parse("* t\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out out 1p\n.end\n");
        let g = CircuitGraph::new(&n);
        let kinds: Vec<EdgeKind> = g.edges().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Resistor));
        assert!(kinds.contains(&EdgeKind::VccsOutput));
        assert!(kinds.contains(&EdgeKind::VccsControl));
        // The self-looped capacitor stamps nothing and emits no edge.
        assert!(!kinds.contains(&EdgeKind::Capacitor));
    }

    #[test]
    fn singular_island_is_detected_at_every_frequency() {
        // n1–n2 couple through both a resistor and a capacitor but
        // never touch ground or input: singular at DC *and* at AC.
        let n = parse("* i\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nC1 n1 n2 1p\n.end\n");
        let g = CircuitGraph::new(&n);
        let islands = g.singular_islands();
        assert_eq!(islands.len(), 1, "{islands:?}");
        assert_eq!(islands[0].len(), 2, "{islands:?}");
    }

    #[test]
    fn grounded_subcircuits_are_not_islands() {
        let n = parse("* g\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nR3 n2 0 1k\n.end\n");
        let g = CircuitGraph::new(&n);
        assert!(g.singular_islands().is_empty());
    }

    #[test]
    fn signal_path_reachability() {
        let joined = parse("* j\nG1 out 0 in 0 1m\nR1 out 0 1k\n.end\n");
        assert!(CircuitGraph::new(&joined).has_signal_path());
        // Input drives a grounded load; output hangs off a separate
        // VCCS that senses a bias node — no influence path exists.
        let split = parse("* s\nR1 in 0 1k\nG1 out 0 n1 0 1m\nR2 out 0 1k\nR3 n1 0 1k\n.end\n");
        assert!(!CircuitGraph::new(&split).has_signal_path());
    }

    #[test]
    fn feedback_cycle_detection() {
        // Open loop: one forward stage, grounded load.
        let open = parse("* o\nG1 out 0 in 0 1m\nR1 out 0 1k\n.end\n");
        assert!(!CircuitGraph::new(&open).has_feedback_loop());
        // A Miller capacitor around the second stage closes a loop:
        // n1 →(G2) out →(C1) n1.
        let closed = parse(
            "* c\nG1 n1 0 in 0 1m\nR1 n1 0 10k\nG2 out 0 n1 0 1m\nR2 out 0 10k\nC1 n1 out 1p\n.end\n",
        );
        assert!(CircuitGraph::new(&closed).has_feedback_loop());
    }

    #[test]
    fn series_dangling_chain_is_peeled_as_one_branch() {
        // out–n1–n2 is a series stub: n2 dangles, peeling it strands
        // n1, so the whole chain is dead.
        let n = parse("* d\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out n1 1k\nR3 n1 n2 1k\n.end\n");
        let g = CircuitGraph::new(&n);
        let branches = g.dead_branches();
        assert_eq!(branches.len(), 1, "{branches:?}");
        assert_eq!(branches[0].len(), 2, "{branches:?}");
    }

    #[test]
    fn single_dead_ends_are_not_reported_as_branches() {
        let n = parse("* e\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out n1 1k\n.end\n");
        assert!(CircuitGraph::new(&n).dead_branches().is_empty());
    }

    #[test]
    fn conditioning_tracks_extremes_per_family() {
        let n = parse("* v\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out 0 1e9\nC1 out 0 1p\n.end\n");
        let cond = CircuitGraph::new(&n).conditioning();
        let g = cond.conductance.expect("conductance family present");
        assert_eq!(g.min_label, "R2");
        // gm = 1e-3 dominates both resistors' conductances.
        assert_eq!(g.max_label, "G1");
        assert!(g.ratio() > 1e5, "{}", g.ratio());
        let c = cond.capacitance.expect("capacitance family present");
        assert_eq!(c.ratio(), 1.0);
    }
}
