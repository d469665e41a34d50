//! Summary statistics for the experiment harness.
//!
//! Table 3 reports per-group averages over ten trials; these helpers
//! compute those aggregates plus the dispersion measures used in
//! `EXPERIMENTS.md`.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation (n − 1 denominator). Returns `None` for
/// fewer than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Median (average of the two middle values for even lengths). Returns
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Returns `None` for
/// an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return Some(v[0]);
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Online mean/variance accumulator (Welford's algorithm) — lets long
/// experiment loops aggregate without storing every sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Running sample standard deviation; `None` before the second sample.
    pub fn std_dev(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n - 1) as f64).sqrt())
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        // Samples 2, 4, 4, 4, 5, 5, 7, 9: sample std = sqrt(32/7)
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs).unwrap() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn welford_matches_batch_stats() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.std_dev().unwrap() - std_dev(&xs).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn welford_edge_counts() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), None);
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.std_dev(), None);
    }
}
