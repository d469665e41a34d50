//! Order statistics for latency samples and run-to-run comparison.

/// Percentiles the tail metric may use, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending); 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so spreads
/// match what external tooling reports. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range (Q3 − Q1); 0 when undefined.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// Latency samples of one run, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one sample.
    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records one sample given in seconds.
    pub fn push_secs(&mut self, secs: f64) {
        self.ms.push(secs * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Sum of all samples in seconds.
    pub fn total_secs(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    /// Mean sample in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.ms.is_empty() {
            0.0
        } else {
            self.ms.iter().sum::<f64>() / self.ms.len() as f64
        }
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&sorted(&self.ms), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank(99) = 990 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: rank(99) = 990 leaves 9, so p95 it is.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
