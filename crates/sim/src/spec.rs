//! Design specifications and spec checking (Table 2 / Eq. 1 constraints).

use crate::metrics::Performance;
use artisan_circuit::units::Farads;
use artisan_circuit::value::format_si;
use std::fmt;

/// A design specification: the constraint set `c_i(g, x) > c_th^i` of
/// Eq. (1), in the four metrics of §4.1.3, plus the load capacitance that
/// parameterizes the testbench.
///
/// # Example
///
/// ```
/// use artisan_sim::Spec;
///
/// let g1 = Spec::g1();
/// assert_eq!(g1.gain_min_db, 85.0);
/// assert_eq!(g1.cl.value(), 10e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Minimum DC gain in dB.
    pub gain_min_db: f64,
    /// Minimum gain-bandwidth product in Hz.
    pub gbw_min_hz: f64,
    /// Minimum phase margin in degrees.
    pub pm_min_deg: f64,
    /// Maximum static power in watts.
    pub power_max_w: f64,
    /// Load capacitance.
    pub cl: Farads,
}

impl Spec {
    /// Builds a spec from raw values.
    pub fn new(
        gain_min_db: f64,
        gbw_min_hz: f64,
        pm_min_deg: f64,
        power_max_w: f64,
        cl: f64,
    ) -> Self {
        Spec {
            gain_min_db,
            gbw_min_hz,
            pm_min_deg,
            power_max_w,
            cl: Farads(cl),
        }
    }

    /// Table 2 group G-1: the baseline requirement set.
    pub fn g1() -> Self {
        Spec::new(85.0, 0.7e6, 55.0, 250e-6, 10e-12)
    }

    /// Table 2 group G-2: high gain.
    pub fn g2() -> Self {
        Spec::new(110.0, 0.7e6, 55.0, 250e-6, 10e-12)
    }

    /// Table 2 group G-3: high GBW.
    pub fn g3() -> Self {
        Spec::new(85.0, 5e6, 55.0, 250e-6, 10e-12)
    }

    /// Table 2 group G-4: low power.
    pub fn g4() -> Self {
        Spec::new(85.0, 0.7e6, 55.0, 50e-6, 10e-12)
    }

    /// Table 2 group G-5: ultra-large capacitive load.
    pub fn g5() -> Self {
        Spec::new(85.0, 0.7e6, 55.0, 250e-6, 1000e-12)
    }

    /// All five Table 2 groups with their names.
    pub fn table2() -> [(&'static str, Spec); 5] {
        [
            ("G-1", Spec::g1()),
            ("G-2", Spec::g2()),
            ("G-3", Spec::g3()),
            ("G-4", Spec::g4()),
            ("G-5", Spec::g5()),
        ]
    }

    /// Checks a measured performance against this spec.
    pub fn check(&self, perf: &Performance) -> SpecReport {
        let checks = vec![
            SpecCheck {
                metric: "Gain",
                required: format!(">{:.0}dB", self.gain_min_db),
                measured: format!("{:.1}dB", perf.gain.value()),
                pass: perf.gain.value() > self.gain_min_db,
                margin: perf.gain.value() - self.gain_min_db,
            },
            SpecCheck {
                metric: "GBW",
                required: format!(">{}Hz", format_si(self.gbw_min_hz)),
                measured: format!("{}Hz", format_si(perf.gbw.value())),
                pass: perf.gbw.value() > self.gbw_min_hz,
                margin: perf.gbw.value() / self.gbw_min_hz - 1.0,
            },
            SpecCheck {
                metric: "PM",
                required: format!(">{:.0}°", self.pm_min_deg),
                measured: format!("{:.2}°", perf.pm.value()),
                pass: perf.pm.value() > self.pm_min_deg,
                margin: perf.pm.value() - self.pm_min_deg,
            },
            SpecCheck {
                metric: "Power",
                required: format!("<{}W", format_si(self.power_max_w)),
                measured: format!("{}W", format_si(perf.power.value())),
                pass: perf.power.value() < self.power_max_w,
                margin: 1.0 - perf.power.value() / self.power_max_w,
            },
        ];
        SpecReport { checks }
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gain >{:.0}dB, GBW >{}Hz, PM >{:.0}°, Power <{}W, CL = {}",
            self.gain_min_db,
            format_si(self.gbw_min_hz),
            self.pm_min_deg,
            format_si(self.power_max_w),
            self.cl,
        )
    }
}

/// One metric's pass/fail entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecCheck {
    /// Metric name.
    pub metric: &'static str,
    /// Rendered requirement, e.g. `">85dB"`.
    pub required: String,
    /// Rendered measurement.
    pub measured: String,
    /// Whether the constraint holds.
    pub pass: bool,
    /// Signed margin (metric-specific units; positive = passing).
    pub margin: f64,
}

/// The result of checking a performance against a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// Per-metric entries, in Gain/GBW/PM/Power order.
    pub checks: Vec<SpecCheck>,
}

impl SpecReport {
    /// True when every constraint holds — the paper's "success" event.
    pub fn success(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failing metrics' names.
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric)
            .collect()
    }
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "{:6} {:>10} (need {:>8}) … {}",
                c.metric,
                c.measured,
                c.required,
                if c.pass { "PASS" } else { "FAIL" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::units::{Decibels, Degrees, Hertz, Watts};

    fn perf(gain: f64, gbw: f64, pm: f64, power: f64) -> Performance {
        Performance {
            gain: Decibels(gain),
            gbw: Hertz(gbw),
            pm: Degrees(pm),
            power: Watts(power),
            fom: Performance::fom_of(gbw, 10e-12, power),
        }
    }

    #[test]
    fn table2_groups_match_paper() {
        let groups = Spec::table2();
        assert_eq!(groups.len(), 5);
        assert_eq!(groups[1].1.gain_min_db, 110.0); // G-2 high gain
        assert_eq!(groups[2].1.gbw_min_hz, 5e6); // G-3 high GBW
        assert_eq!(groups[3].1.power_max_w, 50e-6); // G-4 low power
        assert_eq!(groups[4].1.cl.value(), 1e-9); // G-5 1000 pF
    }

    #[test]
    fn passing_design_reports_success() {
        let report = Spec::g1().check(&perf(100.0, 1e6, 60.0, 50e-6));
        assert!(report.success());
        assert!(report.failures().is_empty());
    }

    #[test]
    fn each_metric_can_fail_individually() {
        let spec = Spec::g1();
        assert_eq!(
            spec.check(&perf(80.0, 1e6, 60.0, 50e-6)).failures(),
            vec!["Gain"]
        );
        assert_eq!(
            spec.check(&perf(100.0, 0.5e6, 60.0, 50e-6)).failures(),
            vec!["GBW"]
        );
        assert_eq!(
            spec.check(&perf(100.0, 1e6, 40.0, 50e-6)).failures(),
            vec!["PM"]
        );
        assert_eq!(
            spec.check(&perf(100.0, 1e6, 60.0, 300e-6)).failures(),
            vec!["Power"]
        );
    }

    #[test]
    fn boundary_values_fail_strict_inequalities() {
        // Table 2 writes strict inequalities (>, <).
        let report = Spec::g1().check(&perf(85.0, 0.7e6, 55.0, 250e-6));
        assert!(!report.success());
        assert_eq!(report.failures().len(), 4);
    }

    #[test]
    fn displays_render() {
        let s = Spec::g5().to_string();
        assert!(s.contains("1nF"), "{s}");
        let report = Spec::g1().check(&perf(100.0, 1e6, 60.0, 50e-6));
        assert!(report.to_string().contains("PASS"));
    }
}
