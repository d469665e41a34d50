use artisan_lint::{Diagnostic, LintReport};
use artisan_math::MathError;
use std::fmt;

/// Why a netlist was rejected before simulation, with any ERC
/// diagnostics that triggered the rejection.
///
/// Constructible from a bare message (`"no CL".into()`) so ad-hoc
/// rejections stay one-liners, or from a [`LintReport`] via
/// [`BadNetlistReport::from_lint`] so structural rejections carry their
/// machine-readable [`Diagnostic`]s to the caller (the agent dialogue
/// turns them into repair hints).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BadNetlistReport {
    /// Human-readable reason.
    pub message: String,
    /// ERC diagnostics attached to the rejection (empty for ad-hoc
    /// rejections such as a missing `CL`).
    pub diagnostics: Vec<Diagnostic>,
}

impl BadNetlistReport {
    /// Wraps the error diagnostics of a lint report.
    pub fn from_lint(context: &str, report: &LintReport) -> Self {
        BadNetlistReport {
            message: format!("{context}: {}", report.summary()),
            diagnostics: report.diagnostics().to_vec(),
        }
    }

    /// Machine-readable JSON in the shared [`artisan_lint::JSON_SCHEMA`]
    /// diagnostic format:
    /// `{"schema":…,"message":…,"diagnostics":[…]}` with each diagnostic
    /// rendered by [`Diagnostic::to_json`] — the same objects the
    /// `artisan-lint` CLI and [`LintReport::to_json`] emit.
    pub fn to_json(&self) -> String {
        let escape = |s: &str| {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let mut out = format!(
            "{{\"schema\":{},\"message\":{},\"diagnostics\":[",
            escape(artisan_lint::JSON_SCHEMA),
            escape(&self.message),
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Renders the message plus one line per diagnostic.
    pub fn render(&self) -> String {
        let mut out = self.message.clone();
        for d in &self.diagnostics {
            out.push_str("\n  ");
            out.push_str(&d.render());
        }
        out
    }
}

impl From<String> for BadNetlistReport {
    fn from(message: String) -> Self {
        BadNetlistReport {
            message,
            diagnostics: Vec::new(),
        }
    }
}

impl From<&str> for BadNetlistReport {
    fn from(message: &str) -> Self {
        BadNetlistReport::from(message.to_string())
    }
}

impl fmt::Display for BadNetlistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if !self.diagnostics.is_empty() {
            write!(f, " [{}]", self.codes().join(", "))?;
        }
        Ok(())
    }
}

impl BadNetlistReport {
    /// The stable codes of the attached diagnostics, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code()).collect()
    }
}

/// Error type for simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The MNA matrix is singular or ill-conditioned at some frequency —
    /// the circuit is degenerate (floating node, zero-resistance loop).
    IllConditioned {
        /// Frequency in Hz at which the solve broke down (0.0 for the DC
        /// operating solve).
        frequency: f64,
    },
    /// The gain never crosses unity within the swept band, so GBW and PM
    /// are undefined.
    NoUnityCrossing,
    /// The circuit has at least one right-half-plane pole; AC metrics are
    /// meaningless because the network is unstable.
    Unstable {
        /// Real part of the most unstable pole (rad/s).
        worst_pole_re: f64,
    },
    /// The requested AC sweep grid is malformed (needs
    /// `0 < f_start < f_stop`, both finite) or would hold more than 2²⁰
    /// points, so no frequency list is built.
    InvalidSweep {
        /// Requested start frequency in Hz.
        f_start: f64,
        /// Requested stop frequency in Hz.
        f_stop: f64,
    },
    /// A numerical kernel failed.
    Math(MathError),
    /// The netlist cannot be simulated as given; carries the ERC
    /// diagnostics when the rejection came from the lint gate.
    BadNetlist(BadNetlistReport),
}

impl SimError {
    /// Whether a retry against the same backend might plausibly clear
    /// the failure. Conditioning and numerical-kernel failures can be
    /// environmental (a flaky or overloaded backend); a rejected
    /// netlist, a missing unity crossing, or a right-half-plane pole are
    /// deterministic properties of the design itself, and retrying them
    /// only burns budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::IllConditioned { .. } | SimError::Math(_))
    }

    /// The stable failure label for this error, as used in feedback
    /// questions and the ToT modification table. These live in the same
    /// namespace as the spec-metric labels (`"Gain"`, `"GBW"`, `"PM"`,
    /// `"Power"`) but name *how the simulation failed* instead of
    /// pretending a phase-margin miss occurred.
    pub fn failure_label(&self) -> &'static str {
        match self {
            SimError::IllConditioned { .. } => "IllConditioned",
            SimError::NoUnityCrossing => "NoUnityCrossing",
            SimError::Unstable { .. } => "Unstable",
            SimError::InvalidSweep { .. } => "Sweep",
            SimError::Math(_) => "SimFault",
            SimError::BadNetlist(_) => "Netlist",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllConditioned { frequency } => {
                write!(f, "MNA system is singular near {frequency} Hz")
            }
            SimError::NoUnityCrossing => {
                write!(f, "gain never crosses unity in the swept band")
            }
            SimError::Unstable { worst_pole_re } => {
                write!(
                    f,
                    "circuit is unstable (right-half-plane pole, Re = {worst_pole_re:.3e} rad/s)"
                )
            }
            SimError::InvalidSweep { f_start, f_stop } => {
                write!(
                    f,
                    "sweep needs finite 0 < f_start < f_stop and at most {} points, got [{f_start}, {f_stop}] Hz",
                    crate::ac::MAX_SWEEP_POINTS
                )
            }
            SimError::Math(e) => write!(f, "numerical failure: {e}"),
            SimError::BadNetlist(report) => write!(f, "bad netlist: {report}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for SimError {
    fn from(e: MathError) -> Self {
        SimError::Math(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SimError::NoUnityCrossing.to_string().contains("unity"));
        assert!(SimError::IllConditioned { frequency: 10.0 }
            .to_string()
            .contains("10"));
        assert!(SimError::Unstable { worst_pole_re: 1e3 }
            .to_string()
            .contains("unstable"));
        assert!(SimError::BadNetlist("no output".into())
            .to_string()
            .contains("no output"));
    }

    #[test]
    fn transient_classification_and_labels_are_stable() {
        let cases: [(SimError, &str, bool); 6] = [
            (
                SimError::IllConditioned { frequency: 0.0 },
                "IllConditioned",
                true,
            ),
            (SimError::Math(MathError::Singular(1)), "SimFault", true),
            (SimError::NoUnityCrossing, "NoUnityCrossing", false),
            (SimError::Unstable { worst_pole_re: 1.0 }, "Unstable", false),
            (SimError::BadNetlist("x".into()), "Netlist", false),
            (
                SimError::InvalidSweep {
                    f_start: 0.0,
                    f_stop: 1.0,
                },
                "Sweep",
                false,
            ),
        ];
        for (e, label, transient) in cases {
            assert_eq!(e.failure_label(), label, "{e}");
            assert_eq!(e.is_transient(), transient, "{e}");
        }
    }

    #[test]
    fn math_error_is_source() {
        use std::error::Error;
        let e = SimError::from(MathError::Singular(2));
        assert!(e.source().is_some());
    }

    #[test]
    fn bad_netlist_report_from_lint_carries_diagnostics() {
        let netlist = artisan_circuit::Netlist::parse(
            "* float\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out n1 1p\nC2 n1 0 1p\n.end\n",
        )
        .unwrap_or_else(|e| panic!("parse: {e}"));
        let lint = artisan_lint::Linter::errors_only().lint(&netlist);
        let report = BadNetlistReport::from_lint("rejected", &lint);
        assert!(!report.diagnostics.is_empty());
        assert!(report.codes().contains(&"ERC006"), "{:?}", report.codes());
        let display = SimError::BadNetlist(report.clone()).to_string();
        assert!(display.contains("ERC006"), "{display}");
        assert!(report.render().lines().count() > 1, "{}", report.render());
    }

    #[test]
    fn bad_netlist_report_json_shares_the_lint_schema() {
        let netlist = artisan_circuit::Netlist::parse(
            "* float\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 out n1 1p\nC2 n1 0 1p\n.end\n",
        )
        .unwrap_or_else(|e| panic!("parse: {e}"));
        let lint = artisan_lint::Linter::errors_only().lint(&netlist);
        let report = BadNetlistReport::from_lint("rejected \"now\"", &lint);
        let json = report.to_json();
        assert!(
            json.starts_with(&format!("{{\"schema\":\"{}\"", artisan_lint::JSON_SCHEMA)),
            "{json}"
        );
        assert!(json.contains("rejected \\\"now\\\""), "{json}");
        assert!(json.contains("\"code\":\"ERC006\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Ad-hoc rejections serialize with an empty diagnostics array.
        let adhoc = BadNetlistReport::from("no CL").to_json();
        assert!(adhoc.ends_with("\"diagnostics\":[]}"), "{adhoc}");
    }
}
