//! Static electrical-rule checking (ERC) for artisan netlists.
//!
//! The Artisan design loop (paper Fig. 2) feeds LLM-emitted netlists
//! into an MNA simulator and turns the results into dialogue feedback.
//! A netlist that is *structurally* broken — a floating node, a
//! capacitor-only island, a transconductor sensing nothing — makes the
//! nodal matrix singular, and the simulator can only report a generic
//! numerical failure. This crate checks those structural rules *before*
//! assembly, producing [`Diagnostic`]s with stable `ERCnnn` codes,
//! severities, spans, and repair suggestions that both the simulator
//! (as an admission gate) and the agent dialogue (as repair hints) can
//! consume.
//!
//! ```
//! use artisan_circuit::Topology;
//! use artisan_lint::lint;
//!
//! let netlist = Topology::nmc_example().elaborate().unwrap();
//! assert!(lint(&netlist).is_clean());
//! ```
//!
//! The rule set is documented on [`Rule`]; configuration on
//! [`LintConfig`]. Reports render human-readable via
//! [`LintReport::render`] and machine-readable via
//! [`LintReport::to_json`].

#![forbid(unsafe_code)]

mod config;
mod diagnostic;
pub mod graph;
mod report;
mod rules;

pub use config::LintConfig;
pub use diagnostic::{Diagnostic, Rule, Severity, Span};
pub use graph::CircuitGraph;
pub use report::{LintReport, JSON_SCHEMA};

use artisan_circuit::{CircuitError, Netlist, Topology};
use std::fmt;

/// Why [`Linter::lint_topology`] could not produce a report: the
/// topology failed to elaborate into a netlist. Carries the offending
/// topology's identifier so a batch caller can say *which* candidate
/// broke — callers must surface this, never treat it as "no
/// diagnostics".
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyLintError {
    /// Identifier of the topology that failed ([`Topology::ident`]).
    pub topology: String,
    /// The underlying elaboration failure.
    pub source: CircuitError,
}

impl fmt::Display for TopologyLintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology `{}` failed to elaborate: {}",
            self.topology, self.source
        )
    }
}

impl std::error::Error for TopologyLintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs a configured set of ERC rules over netlists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Linter {
    config: LintConfig,
}

impl Linter {
    /// A linter running the rules `config` enables.
    pub fn new(config: LintConfig) -> Self {
        Linter { config }
    }

    /// A linter running only `Error`-severity rules — the simulator's
    /// admission gate.
    pub fn errors_only() -> Self {
        Linter::new(LintConfig::errors_only())
    }

    /// The active configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Lints one netlist.
    pub fn lint(&self, netlist: &Netlist) -> LintReport {
        rules::run(netlist, &self.config)
    }

    /// Elaborates and lints a topology.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyLintError`] naming the offending topology
    /// when elaboration itself fails. An elaboration failure is *worse*
    /// than any diagnostic — callers must not conflate it with a clean
    /// report.
    pub fn lint_topology(&self, topology: &Topology) -> Result<LintReport, TopologyLintError> {
        match topology.elaborate() {
            Ok(netlist) => Ok(self.lint(&netlist)),
            Err(source) => Err(TopologyLintError {
                topology: topology.ident(),
                source,
            }),
        }
    }
}

/// Lints `netlist` with every rule enabled.
pub fn lint(netlist: &Netlist) -> LintReport {
    Linter::default().lint(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::units::{Ohms, Siemens};
    use artisan_circuit::{Element, Node};

    fn parse(text: &str) -> Netlist {
        match Netlist::parse(text) {
            Ok(n) => n,
            Err(e) => panic!("test netlist failed to parse: {e}"),
        }
    }

    fn codes(netlist: &Netlist) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = lint(netlist)
            .diagnostics()
            .iter()
            .map(|d| d.code())
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// A structurally sound two-element amplifier used as the base for
    /// the seeded-defect tests.
    const SOUND: &str = "* sound\nG1 out 0 in 0 1m\nR1 out 0 1k\n.end\n";

    #[test]
    fn sound_base_is_error_free() {
        let report = lint(&parse(SOUND));
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn nmc_example_is_clean() {
        let netlist = match Topology::nmc_example().elaborate() {
            Ok(n) => n,
            Err(e) => panic!("elaborate: {e}"),
        };
        let report = lint(&netlist);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn erc001_fires_on_missing_ground() {
        let n = parse("* g\nR1 in out 1k\nR2 out n1 1k\n.end\n");
        assert!(codes(&n).contains(&"ERC001"), "{:?}", codes(&n));
    }

    #[test]
    fn erc002_fires_on_missing_output() {
        let n = parse("* o\nR1 in n1 1k\nR2 n1 0 1k\n.end\n");
        assert!(codes(&n).contains(&"ERC002"), "{:?}", codes(&n));
    }

    #[test]
    fn erc003_fires_on_unused_input() {
        let n = parse("* i\nG1 out 0 n1 0 1m\nR1 out 0 1k\nR2 n1 0 1k\n.end\n");
        assert!(codes(&n).contains(&"ERC003"), "{:?}", codes(&n));
    }

    #[test]
    fn erc004_fires_on_floating_node() {
        // n1 is only a VCCS output whose control pair references no
        // unknown node: its matrix row is structurally empty.
        let n = parse("* f\nG1 out 0 in 0 1m\nR1 out 0 1k\nG2 n1 0 in 0 1m\n.end\n");
        assert!(codes(&n).contains(&"ERC004"), "{:?}", codes(&n));
    }

    #[test]
    fn erc005_fires_on_dangling_control() {
        let n = parse("* d\nG1 out 0 n1 0 1m\nR1 out 0 1k\nR2 in out 1k\n.end\n");
        assert!(codes(&n).contains(&"ERC005"), "{:?}", codes(&n));
    }

    #[test]
    fn erc006_fires_on_capacitor_only_node() {
        let n = parse("* c\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out n1 1p\nC2 n1 0 1p\n.end\n");
        let c = codes(&n);
        assert!(c.contains(&"ERC006"), "{c:?}");
        // It is a DC problem, not an all-frequency floating node.
        assert!(!c.contains(&"ERC004"), "{c:?}");
    }

    #[test]
    fn erc007_fires_on_duplicate_labels() {
        let n = parse("* l\nG1 out 0 in 0 1m\nR1 out 0 1k\nR1 in out 2k\n.end\n");
        assert!(codes(&n).contains(&"ERC007"), "{:?}", codes(&n));
    }

    #[test]
    fn erc008_fires_on_negative_resistance() {
        let mut elements = parse(SOUND).elements().to_vec();
        elements.push(Element::Resistor {
            label: "Rbad".into(),
            a: Node::Input,
            b: Node::Output,
            ohms: Ohms(-50.0),
        });
        let n = Netlist::new("bad-r", elements);
        assert!(codes(&n).contains(&"ERC008"), "{:?}", codes(&n));
    }

    #[test]
    fn erc009_fires_on_zero_gm() {
        let mut elements = parse(SOUND).elements().to_vec();
        elements.push(Element::Vccs {
            label: "Gbad".into(),
            out_p: Node::Ground,
            out_n: Node::Output,
            ctrl_p: Node::Input,
            ctrl_n: Node::Ground,
            gm: Siemens(0.0),
        });
        let n = Netlist::new("bad-g", elements);
        assert!(codes(&n).contains(&"ERC009"), "{:?}", codes(&n));
    }

    #[test]
    fn erc010_fires_on_dead_end_node() {
        let n = parse("* e\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out n1 1k\n.end\n");
        let report = lint(&n);
        assert!(
            report.diagnostics().iter().any(|d| d.code() == "ERC010"),
            "{}",
            report.render()
        );
        // A dead end is suspicious, not fatal.
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn erc011_fires_on_parallel_duplicate() {
        let n = parse("* p\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out 0 1p\nC2 0 out 1p\n.end\n");
        let report = lint(&n);
        assert!(
            report.diagnostics().iter().any(|d| d.code() == "ERC011"),
            "{}",
            report.render()
        );
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn erc012_fires_on_self_loop() {
        let n = parse("* s\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out out 1k\n.end\n");
        let report = lint(&n);
        assert!(
            report.diagnostics().iter().any(|d| d.code() == "ERC012"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn erc013_fires_on_isolated_island() {
        let n = parse("* is\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nR3 n2 0 1k\n.end\n");
        let report = lint(&n);
        let island = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == "ERC013")
            .unwrap_or_else(|| panic!("no ERC013 in: {}", report.render()));
        match &island.span {
            Span::Nodes(ns) => assert_eq!(ns.len(), 2, "{ns:?}"),
            other => panic!("unexpected span {other:?}"),
        }
        // The island has DC paths, so it must not be an error.
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn buffered_miller_internal_node_is_not_a_false_positive() {
        // The unity-gain buffer idiom: the VCCS output doubles as its
        // own negative control terminal, which stamps the node's
        // diagonal and gives it a DC definition despite carrying no
        // resistor. The DC-path rule must understand this.
        let n = parse(
            "* buf\nG1 out 0 in 0 1m\nR1 out 0 1k\nG2 0 x1 n1 x1 1m\nC1 x1 out 1p\nR2 n1 0 1k\nR3 n1 out 10k\n.end\n",
        );
        let report = Linter::errors_only().lint(&n);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn errors_only_config_suppresses_warnings() {
        let n = parse("* p\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out 0 1p\nC2 out 0 1p\n.end\n");
        assert!(Linter::errors_only().lint(&n).is_clean());
        assert!(!lint(&n).is_clean());
    }

    #[test]
    fn linter_respects_disabled_rules() {
        let n = parse("* g\nR1 in out 1k\nR2 out n1 1k\n.end\n");
        let without = Linter::new(LintConfig::all().without(Rule::MissingGround)).lint(&n);
        assert!(without
            .diagnostics()
            .iter()
            .all(|d| d.rule != Rule::MissingGround));
        let with = lint(&n);
        assert!(with
            .diagnostics()
            .iter()
            .any(|d| d.rule == Rule::MissingGround));
    }

    #[test]
    fn erc100_fires_on_reference_free_island() {
        // n1–n2 couple resistively *and* capacitively but never touch
        // ground or input: singular at every frequency.
        let n = parse("* si\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nC1 n1 n2 1p\n.end\n");
        let report = lint(&n);
        let c = codes(&n);
        assert!(c.contains(&"ERC100"), "{c:?}");
        // The island-level error subsumes the per-node DC-path error
        // and the signal-island warning.
        assert!(!c.contains(&"ERC006"), "{c:?}");
        assert!(!c.contains(&"ERC013"), "{c:?}");
        let island = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == "ERC100")
            .unwrap_or_else(|| panic!("no ERC100 in: {}", report.render()));
        match &island.span {
            Span::Nodes(ns) => assert_eq!(ns.len(), 2, "{ns:?}"),
            other => panic!("unexpected span {other:?}"),
        }
        // Error severity: the admission gate must reject it.
        assert!(Linter::errors_only().lint(&n).has_errors());
    }

    #[test]
    fn erc101_fires_when_input_cannot_reach_output() {
        let n = parse("* np\nR1 in 0 1k\nG1 out 0 n1 0 1m\nR2 out 0 1k\nR3 n1 0 1k\n.end\n");
        let c = codes(&n);
        assert!(c.contains(&"ERC101"), "{c:?}");
        assert!(Linter::errors_only().lint(&n).has_errors());
    }

    #[test]
    fn erc102_fires_on_series_dangling_branch() {
        let n = parse("* db\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 out n1 1k\nR3 n1 n2 1k\n.end\n");
        let report = lint(&n);
        assert!(
            report.diagnostics().iter().any(|d| d.code() == "ERC102"),
            "{}",
            report.render()
        );
        // A dangling branch simulates (the stub is just dead weight).
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn erc103_fires_on_milliohm_resistor() {
        let n = parse("* sh\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 in out 1u\n.end\n");
        let report = lint(&n);
        assert!(
            report.diagnostics().iter().any(|d| d.code() == "ERC103"),
            "{}",
            report.render()
        );
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn erc104_fires_on_pathological_value_spread() {
        let n = parse("* cs\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 in out 1e16\n.end\n");
        let report = lint(&n);
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == "ERC104")
            .unwrap_or_else(|| panic!("no ERC104 in: {}", report.render()));
        assert!(diag.message.contains("R2"), "{}", diag.message);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn erc105_notes_open_loop_operation() {
        // One forward stage, grounded load, nothing feeding back.
        let report = lint(&parse(SOUND));
        let open = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == "ERC105")
            .unwrap_or_else(|| panic!("no ERC105 in: {}", report.render()));
        assert_eq!(open.severity, Severity::Info);
        // A Miller loop silences the advisory.
        let closed = parse(
            "* ml\nG1 n1 0 in 0 1m\nR1 n1 0 10k\nG2 out 0 n1 0 1m\nR2 out 0 10k\nC1 n1 out 1p\n.end\n",
        );
        assert!(
            lint(&closed)
                .diagnostics()
                .iter()
                .all(|d| d.code() != "ERC105"),
            "{}",
            lint(&closed).render()
        );
    }

    #[test]
    fn lint_topology_reports_the_offending_topology() {
        let linter = Linter::default();
        let good = linter.lint_topology(&Topology::nmc_example());
        assert!(matches!(good, Ok(ref r) if r.is_clean()), "{good:?}");

        // A topology that validates at placement time but fails to
        // elaborate: poison a skeleton value.
        let mut topo = Topology::nmc_example();
        topo.skeleton.cl = artisan_circuit::units::Farads(f64::NAN);
        match linter.lint_topology(&topo) {
            Err(e) => {
                assert!(!e.topology.is_empty());
                assert!(e.to_string().contains(&e.topology), "{e}");
            }
            Ok(r) => panic!("poisoned topology linted clean: {}", r.render()),
        }
    }

    #[test]
    fn report_orders_errors_before_warnings() {
        // Missing ground (error) plus a dead end (warning).
        let n = parse("* mix\nR1 in out 1k\nR2 out n1 1k\n.end\n");
        let report = lint(&n);
        let severities: Vec<Severity> = report.diagnostics().iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted, "{}", report.render());
    }
}
