//! Logarithmic AC sweeps with unwrapped phase, and the one measurement
//! every analysis reads from them.
//!
//! A sweep solves the MNA system at each grid frequency in order,
//! through one reusable [`MnaWorkspace`], and unwraps the phase point by
//! point. The paper's systems have dimension 3–12, so one candidate's
//! sweep is a short sequential loop; parallelism lives across
//! independent analyses (candidates, corners, sessions), never inside
//! one.
//!
//! [`sweep`] returns the full curve. The analysis pipeline and the
//! corner engine instead call the crate-private `measure`, which reads
//! DC gain, GBW and phase margin and stops one point past the first
//! unity-gain bracket. The solved prefix is the same arithmetic as the
//! same prefix of [`sweep`], so the metrics equal [`unity_crossing`]
//! over the full curve bit for bit.
//!
//! [`MnaWorkspace`]: crate::mna::MnaWorkspace

use crate::error::SimError;
use crate::metrics::Performance;
use crate::mna::MnaSystem;
use crate::Result;
use artisan_circuit::units::{Decibels, Degrees, Hertz, Watts};
use artisan_math::Complex64;
use std::f64::consts::PI;

/// One point of an AC sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcPoint {
    /// Frequency in Hz.
    pub freq: f64,
    /// Complex transfer function value at this frequency.
    pub h: Complex64,
    /// Unwrapped phase in degrees, continuous along the sweep and
    /// referenced to the DC phase (0° at the first point).
    pub phase_rel: f64,
}

impl AcPoint {
    /// Gain magnitude in dB at this point.
    pub fn gain_db(&self) -> f64 {
        20.0 * self.h.abs().log10()
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Start frequency in Hz.
    pub f_start: f64,
    /// Stop frequency in Hz.
    pub f_stop: f64,
    /// Points per decade.
    pub points_per_decade: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            f_start: 1e-2,
            f_stop: 1e9,
            points_per_decade: 40,
        }
    }
}

/// Most points a sweep grid may hold: 2²⁰, against 441 for the default
/// grid. Larger requests are refused before anything is allocated.
pub(crate) const MAX_SWEEP_POINTS: usize = 1 << 20;

impl SweepConfig {
    /// The sweep's frequency grid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSweep`] unless `0 < f_start < f_stop`
    /// with both bounds finite and the grid holds at most 2²⁰ points,
    /// so a malformed grid surfaces as a recoverable simulation failure
    /// instead of bringing a design loop down or exhausting memory.
    pub fn frequencies(&self) -> Result<Vec<f64>> {
        let invalid = || SimError::InvalidSweep {
            f_start: self.f_start,
            f_stop: self.f_stop,
        };
        if !(self.f_start > 0.0 && self.f_stop > self.f_start && self.f_stop.is_finite()) {
            return Err(invalid());
        }
        let decades = (self.f_stop / self.f_start).log10();
        // Counted in f64, where a huge `points_per_decade` cannot wrap:
        // the grid holds n + 1 points. `decades` is finite and positive
        // here, so `n` is never NaN.
        let n = (decades * self.points_per_decade as f64).ceil().max(2.0);
        if n >= MAX_SWEEP_POINTS as f64 {
            return Err(invalid());
        }
        let n = n as usize;
        let l0 = self.f_start.log10();
        let l1 = self.f_stop.log10();
        Ok((0..=n)
            .map(|k| 10.0_f64.powf(l0 + (l1 - l0) * k as f64 / n as f64))
            .collect())
    }
}

/// `s = jω` at `f` Hz.
fn jomega(f: f64) -> Complex64 {
    Complex64::jomega(2.0 * PI * f)
}

/// Runs an AC sweep: solves the MNA system at each grid frequency, in
/// order through one workspace, and unwraps the phase (removing ±360°
/// jumps so that phase margin can be read off directly).
///
/// # Errors
///
/// Propagates the solver failure at the lowest failing frequency and
/// rejects malformed sweep grids.
pub fn sweep(sys: &MnaSystem, config: &SweepConfig) -> Result<Vec<AcPoint>> {
    let mut ws = sys.workspace();
    let mut unwrapper = Unwrapper::default();
    config
        .frequencies()?
        .into_iter()
        .map(|f| Ok(unwrapper.next(f, sys.transfer_with(jomega(f), &mut ws)?)))
        .collect()
}

/// The point-by-point phase unwrap: removes ±360° jumps between
/// adjacent points (assuming < 180° of true phase change per grid step,
/// guaranteed by a dense log grid) and references everything to the
/// first point's phase.
#[derive(Default)]
struct Unwrapper {
    prev_raw: Option<f64>,
    offset: f64,
    first_phase: f64,
}

impl Unwrapper {
    /// Unwraps the next solution in frequency order into an [`AcPoint`].
    fn next(&mut self, freq: f64, h: Complex64) -> AcPoint {
        let raw = h.arg().to_degrees();
        if let Some(p) = self.prev_raw {
            let mut delta = raw - p;
            while delta > 180.0 {
                delta -= 360.0;
                self.offset -= 360.0;
            }
            while delta < -180.0 {
                delta += 360.0;
                self.offset += 360.0;
            }
        } else {
            self.first_phase = raw;
        }
        self.prev_raw = Some(raw);
        let unwrapped = raw + self.offset;
        AcPoint {
            freq,
            h,
            phase_rel: unwrapped - self.first_phase,
        }
    }
}

/// Finds the unity-gain crossing by log-linear interpolation between the
/// two sweep points that bracket |H| = 1. Returns `(frequency, phase_rel)`
/// at the crossing, or `None` if the gain never crosses unity (from above)
/// inside the band.
pub fn unity_crossing(points: &[AcPoint]) -> Option<(f64, f64)> {
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (ga, gb) = (a.h.abs(), b.h.abs());
        if ga >= 1.0 && gb < 1.0 {
            // Interpolate in (log f, dB) space.
            let (da, db) = (20.0 * ga.log10(), 20.0 * gb.log10());
            let t = if (da - db).abs() < 1e-15 {
                0.5
            } else {
                da / (da - db)
            };
            let lf = a.freq.log10() + t * (b.freq.log10() - a.freq.log10());
            let phase = a.phase_rel + t * (b.phase_rel - a.phase_rel);
            return Some((10.0_f64.powf(lf), phase));
        }
    }
    None
}

/// The AC half of a [`Performance`]: what [`measure`] reads off a
/// system.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AcMetrics {
    gain: Decibels,
    gbw: Hertz,
    pm: Degrees,
}

impl AcMetrics {
    /// The full performance at static power `power`, with the FoM rated
    /// against the load capacitance `cl`.
    pub(crate) fn with_power(self, power: Watts, cl: f64) -> Performance {
        Performance {
            gain: self.gain,
            gbw: self.gbw,
            pm: self.pm,
            power,
            fom: Performance::fom_of(self.gbw.value(), cl, power.value()),
        }
    }
}

/// The one AC measurement of an analysis: DC gain, then the sweep up to
/// the first unity crossing, whose GBW and phase margin it reads. The
/// sweep stops one point past the first |H| = 1 bracket, so a solve
/// that would fail only above the crossing is never attempted.
///
/// # Errors
///
/// In this order: a solver failure at DC (other than
/// [`SimError::IllConditioned`], which retries at `f_start`) or at the
/// fallback point; [`SimError::BadNetlist`] for a zero or non-finite DC
/// gain; [`SimError::InvalidSweep`]; the failure at the lowest failing
/// sweep point; [`SimError::NoUnityCrossing`].
pub(crate) fn measure(sys: &MnaSystem, config: &SweepConfig) -> Result<AcMetrics> {
    // DC gain: exact s = 0 solve, falling back to the sweep floor for
    // networks with capacitively-coupled (DC-floating) internal nodes.
    // One workspace serves the gain and every sweep point.
    let mut ws = sys.workspace();
    let h0 = match sys.transfer_with(Complex64::ZERO, &mut ws) {
        Ok(h) => h,
        Err(SimError::IllConditioned { .. }) => {
            sys.transfer_with(jomega(config.f_start), &mut ws)?
        }
        Err(e) => return Err(e),
    };
    if h0.abs() <= 0.0 || !h0.is_finite() {
        return Err(SimError::BadNetlist("zero or non-finite DC gain".into()));
    }
    let mut unwrapper = Unwrapper::default();
    let mut prev: Option<AcPoint> = None;
    for f in config.frequencies()? {
        let point = unwrapper.next(f, sys.transfer_with(jomega(f), &mut ws)?);
        if let Some((gbw_hz, phase_at_unity)) = prev.and_then(|a| unity_crossing(&[a, point])) {
            return Ok(AcMetrics {
                gain: Decibels::from_ratio(h0.abs()),
                gbw: Hertz(gbw_hz),
                // Phase margin: 180° + relative phase accumulated from DC.
                pm: Degrees(180.0 + phase_at_unity),
            });
        }
        prev = Some(point);
    }
    Err(SimError::NoUnityCrossing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::MnaMode;
    use artisan_circuit::Netlist;

    fn single_pole_netlist(gain: f64, fp: f64) -> Netlist {
        // gm·R = gain, pole at fp via C = 1/(2πR·fp)
        let r = 10e3;
        let gm = gain / r;
        let c = 1.0 / (2.0 * PI * r * fp);
        let text = format!("* sp\nG1 out 0 in 0 {gm}\nR1 out 0 {r}\nC1 out 0 {c}\n.end\n");
        Netlist::parse(&text).unwrap()
    }

    fn single_pole(gain: f64, fp: f64) -> MnaSystem {
        MnaSystem::new(&single_pole_netlist(gain, fp)).unwrap()
    }

    #[test]
    fn frequency_grid_is_logarithmic_and_bounded() {
        let cfg = SweepConfig {
            f_start: 1.0,
            f_stop: 1e6,
            points_per_decade: 10,
        };
        let f = cfg.frequencies().unwrap();
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e6).abs() / 1e6 < 1e-9);
        // Log spacing: constant ratio.
        let r0 = f[1] / f[0];
        let r1 = f[2] / f[1];
        assert!((r0 - r1).abs() / r0 < 1e-9);
    }

    #[test]
    fn bad_grid_is_an_error_not_a_panic() {
        let err = SweepConfig {
            f_start: 0.0,
            f_stop: 1.0,
            points_per_decade: 10,
        }
        .frequencies()
        .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidSweep { f_start, .. } if f_start == 0.0),
            "{err}"
        );
        assert_eq!(err.failure_label(), "Sweep");
        assert!(!err.is_transient());
        // Inverted and infinite bounds are rejected the same way, and
        // the sweep driver surfaces the error instead of panicking.
        let sys = single_pole(10.0, 1e3);
        for (f_start, f_stop) in [(10.0, 1.0), (1.0, f64::INFINITY)] {
            let bad = SweepConfig {
                f_start,
                f_stop,
                points_per_decade: 10,
            };
            assert!(bad.frequencies().is_err(), "{bad:?}");
            assert!(
                matches!(sweep(&sys, &bad), Err(SimError::InvalidSweep { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn oversized_grid_is_refused_before_allocating() {
        // usize::MAX per decade overflows a usize point count, and 10⁹
        // per decade over the default 11 decades asks for about 88 GB.
        for points_per_decade in [usize::MAX, 1_000_000_000] {
            let huge = SweepConfig {
                points_per_decade,
                ..SweepConfig::default()
            };
            assert!(
                matches!(
                    huge.frequencies(),
                    Err(SimError::InvalidSweep { f_start, f_stop })
                        if f_start == huge.f_start && f_stop == huge.f_stop
                ),
                "{huge:?}"
            );
        }
        // The cap admits exactly MAX_SWEEP_POINTS points.
        let at_cap = SweepConfig {
            f_start: 1.0,
            f_stop: 10.0,
            points_per_decade: MAX_SWEEP_POINTS - 1,
        };
        assert_eq!(at_cap.frequencies().unwrap().len(), MAX_SWEEP_POINTS);
        let past_cap = SweepConfig {
            points_per_decade: MAX_SWEEP_POINTS,
            ..at_cap
        };
        assert!(past_cap.frequencies().is_err());
        // The default grid is untouched: 11 decades at 40 per decade.
        let grid = SweepConfig::default().frequencies().unwrap();
        assert_eq!(grid.len(), 441);
        assert_eq!(grid[0], 1e-2);
        assert_eq!(grid[440], 10.0_f64.powf(9.0));
    }

    #[test]
    fn single_pole_unity_crossing_at_gbw() {
        // gain 1000, pole 1 kHz → GBW ≈ 1 MHz.
        let sys = single_pole(1000.0, 1e3);
        let pts = sweep(
            &sys,
            &SweepConfig {
                f_start: 1.0,
                f_stop: 1e8,
                points_per_decade: 40,
            },
        )
        .unwrap();
        let (f_u, phase) = unity_crossing(&pts).unwrap();
        assert!((f_u / 1e6 - 1.0).abs() < 0.01, "GBW {f_u}");
        // Single-pole: −90° of relative phase at crossing → PM 90°.
        assert!((phase + 90.0).abs() < 1.5, "phase {phase}");
    }

    #[test]
    fn phase_is_continuous() {
        let sys = single_pole(1000.0, 1e3);
        let pts = sweep(&sys, &SweepConfig::default()).unwrap();
        for w in pts.windows(2) {
            assert!((w[1].phase_rel - w[0].phase_rel).abs() < 60.0);
        }
        assert_eq!(pts[0].phase_rel, 0.0);
    }

    #[test]
    fn no_crossing_for_sub_unity_gain() {
        let sys = single_pole(0.5, 1e3);
        let pts = sweep(&sys, &SweepConfig::default()).unwrap();
        assert!(unity_crossing(&pts).is_none());
        assert!(matches!(
            measure(&sys, &SweepConfig::default()),
            Err(SimError::NoUnityCrossing)
        ));
    }

    #[test]
    fn measure_stops_one_point_past_the_first_crossing() {
        // Forced sparse, so the shared symbolic counts every solve.
        let sys = MnaSystem::with_mode(&single_pole_netlist(1000.0, 1e3), MnaMode::Sparse).unwrap();
        let symbolic = sys.sparse_symbolic().unwrap();
        let cfg = SweepConfig::default();
        let full = sweep(&sys, &cfg).unwrap();
        let below = 1 + full
            .windows(2)
            .position(|w| w[0].h.abs() >= 1.0 && w[1].h.abs() < 1.0)
            .unwrap();
        assert!(below + 1 < full.len(), "the crossing is inside the band");
        let before = symbolic.numeric_factor_count();
        let metrics = measure(&sys, &cfg).unwrap();
        // The DC solve, then sweep points 0..=below and nothing after.
        assert_eq!(
            symbolic.numeric_factor_count() - before,
            1 + below as u64 + 1
        );
        let (f_u, phase) = unity_crossing(&full).unwrap();
        assert_eq!(metrics.gbw.value().to_bits(), f_u.to_bits());
        assert_eq!(metrics.pm.value().to_bits(), (180.0 + phase).to_bits());
    }

    #[test]
    fn gain_db_helper() {
        let p = AcPoint {
            freq: 1.0,
            h: Complex64::from_real(10.0),
            phase_rel: 0.0,
        };
        assert!((p.gain_db() - 20.0).abs() < 1e-12);
    }
}
