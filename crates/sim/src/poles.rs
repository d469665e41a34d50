//! Exact pole/zero extraction by determinant interpolation.
//!
//! `det(G + sC)` is a polynomial in `s` whose degree is bounded by the
//! number of capacitors. The extractor evaluates the determinant (via LU)
//! at `deg + 1` log-spaced points on the negative real axis — where
//! passive-dominated network determinants are well-conditioned — then
//! recovers the coefficients by Newton interpolation and factors them with
//! Durand–Kerner. The same procedure applied to the Cramer numerator
//! yields the transfer-function zeros.

use crate::mna::MnaSystem;
use crate::Result;
use artisan_circuit::Netlist;
use artisan_math::{interp, Complex64, Polynomial};

/// Poles and zeros of the input→output transfer function, in rad/s.
#[derive(Debug, Clone, PartialEq)]
pub struct PoleZero {
    /// Natural frequencies (roots of the network determinant), rad/s.
    pub poles: Vec<Complex64>,
    /// Transmission zeros (roots of the Cramer numerator), rad/s.
    pub zeros: Vec<Complex64>,
}

impl PoleZero {
    /// True if every pole lies strictly in the left half-plane (allowing
    /// a small tolerance for numerically-on-axis integrator poles).
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re <= p.abs().max(1.0) * 1e-6)
    }

    /// The real part of the most right-lying pole (rad/s).
    pub fn worst_pole_re(&self) -> f64 {
        self.poles
            .iter()
            .map(|p| p.re)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The dominant (smallest-magnitude) pole, if any.
    pub fn dominant_pole(&self) -> Option<Complex64> {
        self.poles
            .iter()
            .copied()
            .min_by(|a, b| a.abs().total_cmp(&b.abs()))
    }
}

/// Interpolation/rooting configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoleZeroConfig {
    /// Lowest sample magnitude (rad/s).
    pub omega_lo: f64,
    /// Highest sample magnitude (rad/s).
    pub omega_hi: f64,
    /// Relative trim threshold applied to interpolated coefficients.
    pub trim_tol: f64,
    /// Durand–Kerner convergence tolerance.
    pub root_tol: f64,
    /// Durand–Kerner iteration budget.
    pub max_iter: usize,
}

impl Default for PoleZeroConfig {
    fn default() -> Self {
        PoleZeroConfig {
            omega_lo: 1e-1,
            omega_hi: 1e12,
            trim_tol: 1e-20,
            root_tol: 1e-10,
            max_iter: 4000,
        }
    }
}

/// Recovers the denominator and numerator polynomials of `H(s)`.
///
/// # Errors
///
/// Propagates determinant-evaluation and interpolation failures.
pub fn transfer_polynomials(
    sys: &MnaSystem,
    netlist: &Netlist,
    config: &PoleZeroConfig,
) -> Result<(Polynomial, Polynomial)> {
    // Degree bound: one power of s per capacitor. The determinant's
    // degree is also at most `dim`, but sampling fewer points would move
    // every sample and so every extracted pole and zero; the cost stays
    // bounded because `MnaSystem::new` refuses more than 256 elements.
    let degree = netlist.capacitor_count();
    let n_samples = degree + 1;
    let xs = interp::log_spaced_real_points(config.omega_lo, config.omega_hi, n_samples);

    // One workspace reused across every sample point of both
    // polynomials — the determinant/numerator evaluations allocate
    // nothing per point.
    let mut ws = sys.workspace();
    let den_pts: Result<Vec<(Complex64, Complex64)>> = xs
        .iter()
        .map(|&s| Ok((s, sys.determinant_with(s, &mut ws)?)))
        .collect();
    let num_pts: Result<Vec<(Complex64, Complex64)>> = xs
        .iter()
        .map(|&s| Ok((s, sys.numerator_with(s, &mut ws)?)))
        .collect();

    let den = interp::newton_interpolate(&den_pts?)?.trimmed(config.trim_tol);
    let num = interp::newton_interpolate(&num_pts?)?.trimmed(config.trim_tol);
    Ok((num, den))
}

/// Extracts poles and zeros of the netlist's transfer function.
///
/// # Errors
///
/// Propagates polynomial recovery and root-finding failures.
pub fn pole_zero(sys: &MnaSystem, netlist: &Netlist, config: &PoleZeroConfig) -> Result<PoleZero> {
    let (num, den) = transfer_polynomials(sys, netlist, config)?;
    let poles = den.roots(config.root_tol, config.max_iter)?;
    let zeros = if num.is_zero() {
        Vec::new()
    } else {
        num.roots(config.root_tol, config.max_iter)?
    };
    Ok(PoleZero { poles, zeros })
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_circuit::{Netlist, Topology};
    use std::f64::consts::PI;

    fn analyze(netlist: &Netlist) -> PoleZero {
        let sys = MnaSystem::new(netlist).unwrap();
        pole_zero(&sys, netlist, &PoleZeroConfig::default()).unwrap()
    }

    #[test]
    fn rc_lowpass_pole_location() {
        let (r, c) = (10e3, 1e-9);
        let n = Netlist::parse(&format!(
            "* rc\nG1 out 0 in 0 1m\nR1 out 0 {r}\nC1 out 0 {c}\n.end\n"
        ))
        .unwrap();
        let pz = analyze(&n);
        assert_eq!(pz.poles.len(), 1);
        let expected = -1.0 / (r * c);
        assert!((pz.poles[0].re / expected - 1.0).abs() < 1e-9);
        assert!(pz.poles[0].im.abs() < 1e-6);
        assert!(pz.is_stable());
    }

    #[test]
    fn series_rc_zero_location() {
        // Miller cap with nulling resistor around a stage creates a zero
        // at −1/(Rz·Cz) … verified on a simple shunt RC at the output:
        // H has a zero where the series-RC branch's impedance kills
        // transmission: z = −1/(Rz·Cz).
        let (rz, cz) = (2e3, 5e-12);
        // in → gm → out; series RC from out to ground adds a pole and
        // moves DC gain; the transmission zero of the branch appears in
        // the numerator of v_out.
        let n = Netlist::parse(&format!(
            "* z\nG1 out 0 in 0 1m\nR1 out 0 10k\nR2 out x0 {rz}\nC2 x0 0 {cz}\n.end\n"
        ))
        .unwrap();
        let pz = analyze(&n);
        assert_eq!(pz.zeros.len(), 1);
        let expected = -1.0 / (rz * cz);
        assert!(
            (pz.zeros[0].re / expected - 1.0).abs() < 1e-6,
            "zero {} expected {expected}",
            pz.zeros[0]
        );
    }

    #[test]
    fn nmc_example_has_three_meaningful_poles() {
        let topo = Topology::nmc_example();
        let netlist = topo.elaborate().unwrap();
        let pz = analyze(&netlist);
        assert!(pz.is_stable(), "poles: {:?}", pz.poles);
        let mut sorted = pz.poles.clone();
        sorted.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
        // Dominant pole ≈ GBW / Av ≈ 1 MHz / 10^(118/20) ≈ 1 Hz-ish.
        let p1_hz = sorted[0].abs() / (2.0 * PI);
        assert!(p1_hz > 0.1 && p1_hz < 100.0, "p1 = {p1_hz} Hz");
        // Non-dominant poles in the MHz range (Butterworth at 2·GBW, 4·GBW).
        let p2_hz = sorted[1].abs() / (2.0 * PI);
        assert!(p2_hz > 2e5 && p2_hz < 2e7, "p2 = {p2_hz} Hz");
    }

    #[test]
    fn dominant_pole_helper() {
        let pz = PoleZero {
            poles: vec![
                Complex64::new(-100.0, 0.0),
                Complex64::new(-1.0, 0.0),
                Complex64::new(-10.0, 5.0),
            ],
            zeros: vec![],
        };
        assert_eq!(pz.dominant_pole(), Some(Complex64::new(-1.0, 0.0)));
        assert_eq!(pz.worst_pole_re(), -1.0);
    }

    #[test]
    fn unstable_network_detected() {
        // Positive feedback: non-inverting stage feeding itself through a
        // resistor with loop gain > 1 puts a pole in the RHP.
        let n = Netlist::parse(
            "* unstable\nG1 0 out out 0 1m\nR1 out 0 10k\nC1 out 0 1p\nR2 in out 1meg\n.end\n",
        )
        .unwrap();
        let pz = analyze(&n);
        assert!(!pz.is_stable(), "poles: {:?}", pz.poles);
    }

    #[test]
    fn transfer_polynomials_match_direct_evaluation() {
        let topo = Topology::nmc_example();
        let netlist = topo.elaborate().unwrap();
        let sys = MnaSystem::new(&netlist).unwrap();
        let (num, den) = transfer_polynomials(&sys, &netlist, &PoleZeroConfig::default()).unwrap();
        for f in [10.0, 1e3, 1e6] {
            let s = Complex64::jomega(2.0 * PI * f);
            let h_ratio = num.eval(s) / den.eval(s);
            let h_direct = sys.transfer(s).unwrap();
            let rel = (h_ratio - h_direct).abs() / h_direct.abs();
            assert!(rel < 1e-6, "f={f}: {rel}");
        }
    }
}
