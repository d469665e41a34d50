//! Host-speed calibration.
//!
//! A shared virtual machine changes speed without any change to the
//! program, in two ways. The hypervisor runs other machines on its CPUs
//! (steal time): on the baseline machine it took up to 69% of the CPU
//! time the benchmark wanted, for minutes at a time. And neighbours on
//! the same cores and memory slow every instruction: a fixed loop ran up
//! to 1.7× slower from one minute to the next. Workload timings moved
//! with both by 10–37% between runs.
//!
//! Every time the benchmark reports is therefore given at the baseline
//! machine's nominal speed. For a span, the share of CPU time stolen
//! around it (the kernel's own count, from `/proc/stat`) is taken off,
//! and the rest is divided by the median time of a fixed reference
//! kernel around it, over [`NOMINAL_KERNEL_S`]. The kernel is written
//! here and calls none of the workspace's code, so a change to the
//! workspace moves the reported times only through the workloads. Like
//! the library's worker pool, it runs on two threads.
//!
//! Stolen time comes in bursts. A span of tens of milliseconds or more
//! loses about the stolen share, but most spans of a few milliseconds
//! lose none, and a few lose whole bursts. [`Calibration::scaled_secs`]
//! leaves the stolen share in, for medians of such short spans.

use crate::stats::{median, Latencies};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Kernel time on the baseline machine at its nominal speed, in
/// seconds: the median of 200 samples taken while it ran fastest.
pub const NOMINAL_KERNEL_S: f64 = 0.43e-3;
/// Least time between two samples taken by [`Calibration::tick`].
pub const INTERVAL: Duration = Duration::from_millis(50);
/// Samples taken by [`Calibration::burst`].
pub const BURST: usize = 8;
/// A span is scaled by the samples taken within this time of it.
pub const WINDOW: Duration = Duration::from_millis(250);

/// One pass of the reference kernel on two threads at once, returning
/// its wall time in seconds. Each thread first makes an untimed pass,
/// so the timed one finds the kernel in its caches whatever the
/// workload left there, and thread start-up is not timed.
pub fn kernel() -> f64 {
    let ready = Barrier::new(2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            work();
            ready.wait();
            work();
        });
        work();
        ready.wait();
        let t = Instant::now();
        work();
        if let Err(panic) = other.join() {
            std::panic::resume_unwind(panic);
        }
        t.elapsed().as_secs_f64()
    })
}

/// Small dense complex LU solves (the shape of an AC sweep), FNV
/// hashing, sorting and short-lived allocations.
fn work() {
    black_box(lu_sweep(black_box(10), black_box(64)));
    black_box(hash_sort_alloc(black_box(8192)));
}

/// Solves `points` complex `n`×`n` systems by Gaussian elimination with
/// partial pivoting; returns a checksum of the solutions.
fn lu_sweep(n: usize, points: usize) -> f64 {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let base: Vec<(f64, f64)> = (0..n * n).map(|_| (next(), next())).collect();
    let mut sum = 0.0;
    let mut a = vec![(0.0, 0.0); n * n];
    let mut b = vec![(0.0, 0.0); n];
    for k in 0..points {
        let w = (k + 1) as f64 * 0.37;
        for (i, (dst, src)) in a.iter_mut().zip(&base).enumerate() {
            let diag = if i % (n + 1) == 0 { n as f64 } else { 0.0 };
            *dst = (src.0 + diag, src.1 * w);
        }
        for (i, v) in b.iter_mut().enumerate() {
            *v = (1.0 / (i + 1) as f64, 0.0);
        }
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&x, &y| {
                    let (p, q) = (a[x * n + col], a[y * n + col]);
                    (p.0 * p.0 + p.1 * p.1).total_cmp(&(q.0 * q.0 + q.1 * q.1))
                })
                .unwrap_or(col);
            if pivot != col {
                for j in 0..n {
                    a.swap(pivot * n + j, col * n + j);
                }
                b.swap(pivot, col);
            }
            let (pr, pi) = a[col * n + col];
            let norm = pr * pr + pi * pi;
            let inv = (pr / norm, -pi / norm);
            for row in col + 1..n {
                let (xr, xi) = a[row * n + col];
                let f = (xr * inv.0 - xi * inv.1, xr * inv.1 + xi * inv.0);
                for j in col..n {
                    let (yr, yi) = a[col * n + j];
                    let e = &mut a[row * n + j];
                    e.0 -= f.0 * yr - f.1 * yi;
                    e.1 -= f.0 * yi + f.1 * yr;
                }
                let (yr, yi) = b[col];
                b[row].0 -= f.0 * yr - f.1 * yi;
                b[row].1 -= f.0 * yi + f.1 * yr;
            }
        }
        for row in (0..n).rev() {
            let mut acc = b[row];
            for j in row + 1..n {
                let (xr, xi) = a[row * n + j];
                let (yr, yi) = b[j];
                acc.0 -= xr * yr - xi * yi;
                acc.1 -= xr * yi + xi * yr;
            }
            let (pr, pi) = a[row * n + row];
            let norm = pr * pr + pi * pi;
            b[row] = (
                (acc.0 * pr + acc.1 * pi) / norm,
                (acc.1 * pr - acc.0 * pi) / norm,
            );
        }
        sum += b.iter().map(|(r, i)| r.abs() + i.abs()).sum::<f64>();
    }
    sum
}

/// Hashes, sorts and allocates over `n` generated values; returns a
/// checksum.
fn hash_sort_alloc(n: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut values = Vec::with_capacity(n);
    for i in 0..n as u64 {
        for byte in i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        values.push((hash >> 11) as f64);
    }
    values.sort_by(f64::total_cmp);
    let boxes: Vec<Vec<u64>> = (0..n / 16)
        .map(|i| vec![hash ^ i as u64; 1 + i % 24])
        .collect();
    let checksum = boxes
        .iter()
        .fold(0u64, |acc, b| acc.wrapping_add(b[0] ^ b.len() as u64));
    hash ^ checksum ^ values[n / 2].to_bits()
}

/// Clock ticks the machine's CPUs spent working and ticks the
/// hypervisor stole from them, summed over all CPUs, from the first
/// line of `/proc/stat`; zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal …
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    (
        field(0) + field(1) + field(2) + field(5) + field(6),
        field(7),
    )
}

/// One kernel sample with the machine's CPU counters when it was taken.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    kernel_s: f64,
    busy: u64,
    steal: u64,
}

/// The kernel samples of one run, in the order they were taken.
#[derive(Debug, Clone)]
pub struct Calibration {
    samples: Vec<Sample>,
    last: Instant,
}

impl Calibration {
    /// Starts a run's calibration with a [`Calibration::burst`].
    pub fn new() -> Calibration {
        let mut cal = Calibration {
            samples: Vec::new(),
            last: Instant::now(),
        };
        cal.burst();
        cal
    }

    fn sample(&mut self) {
        let at = Instant::now();
        let (busy, steal) = cpu_ticks();
        self.samples.push(Sample {
            at,
            kernel_s: kernel(),
            busy,
            steal,
        });
        self.last = Instant::now();
    }

    /// Takes [`BURST`] samples: before and after spans that run longer
    /// than the [`WINDOW`], or when a phase leaves no gaps between ops.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.sample();
        }
    }

    /// Takes a sample when [`INTERVAL`] has passed since the last one.
    /// Call it between ops, outside every timed span.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken (never, after [`Calibration::new`]).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How much slower than nominal the kernel ran over the whole run.
    pub fn run_slowdown(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.kernel_s).collect();
        median(&all) / NOMINAL_KERNEL_S
    }

    /// The share of CPU time stolen over the whole run.
    pub fn run_steal_share(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(first), Some(last)) => steal_share(first, last),
            _ => 0.0,
        }
    }

    /// The index range of the samples within [`WINDOW`] of `from..to`.
    fn window(&self, from: Instant, to: Instant) -> (usize, usize) {
        let lo = from.checked_sub(WINDOW).unwrap_or(from);
        let hi = to + WINDOW;
        (
            self.samples.partition_point(|s| s.at < lo),
            self.samples.partition_point(|s| s.at <= hi),
        )
    }

    /// How much slower than nominal the kernel ran around `from..to`:
    /// the median of the samples taken within [`WINDOW`] of the span, or
    /// of the [`BURST`] nearest on each side when none was.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let (first, end) = self.window(from, to);
        let near = if first < end {
            &self.samples[first..end]
        } else {
            &self.samples[first.saturating_sub(BURST)..(end + BURST).min(self.samples.len())]
        };
        let near: Vec<f64> = near.iter().map(|s| s.kernel_s).collect();
        median(&near) / NOMINAL_KERNEL_S
    }

    /// The share of CPU time stolen around `from..to`: between the last
    /// sample before the span's [`WINDOW`] and the first after it.
    pub fn steal(&self, from: Instant, to: Instant) -> f64 {
        let (first, end) = self.window(from, to);
        let last = self.samples.len().saturating_sub(1);
        match (
            self.samples.get(first.saturating_sub(1)),
            self.samples.get(end.min(last)),
        ) {
            (Some(before), Some(after)) => steal_share(before, after),
            _ => 0.0,
        }
    }

    /// The length of `from..to` at nominal speed, in seconds: its wall
    /// time less the stolen share, over the kernel's slowdown.
    pub fn nominal_secs(&self, from: Instant, to: Instant) -> f64 {
        self.scaled_secs(from, to) * (1.0 - self.steal(from, to))
    }

    /// The wall time of `from..to` over the kernel's slowdown, with the
    /// stolen share left in, in seconds.
    pub fn scaled_secs(&self, from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() / self.slowdown(from, to)
    }

    /// Latencies of `spans` at nominal speed.
    pub fn latencies(&self, spans: &[(Instant, Instant)]) -> Latencies {
        let mut lat = Latencies::default();
        for &(from, to) in spans {
            lat.push_secs(self.nominal_secs(from, to));
        }
        lat
    }
}

/// The share of the CPU time wanted between two samples that the
/// hypervisor stole.
fn steal_share(before: &Sample, after: &Sample) -> f64 {
    let busy = after.busy.saturating_sub(before.busy);
    let steal = after.steal.saturating_sub(before.steal);
    if busy + steal == 0 {
        0.0
    } else {
        steal as f64 / (busy + steal) as f64
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A calibration from `(ms, kernel seconds, busy, steal)` samples.
    fn cal(samples: &[(u64, f64, u64, u64)]) -> (Instant, Calibration) {
        let t0 = Instant::now();
        let cal = Calibration {
            samples: samples
                .iter()
                .map(|&(ms, kernel_s, busy, steal)| Sample {
                    at: t0 + Duration::from_millis(ms),
                    kernel_s,
                    busy,
                    steal,
                })
                .collect(),
            last: t0,
        };
        (t0, cal)
    }

    #[test]
    fn spans_are_scaled_by_the_samples_around_them() {
        let n = NOMINAL_KERNEL_S;
        // Nominal speed for the first second, then twice as slow.
        let (t0, cal) = cal(&[
            (0, n, 0, 0),
            (500, n, 100, 0),
            (1000, n, 200, 0),
            (2000, 2.0 * n, 400, 0),
            (2500, 2.0 * n, 500, 0),
            (3000, 2.0 * n, 600, 0),
        ]);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(cal.slowdown(at(400), at(600)), 1.0);
        assert_eq!(cal.slowdown(at(2200), at(2300)), 2.0);
        assert!((cal.nominal_secs(at(2200), at(2300)) - 0.05).abs() < 1e-9);
        // No sample within the window: a burst's worth on each side.
        assert!((cal.slowdown(at(1400), at(1600)) - 1.5).abs() < 1e-12);
        let lat = cal.latencies(&[(at(400), at(410)), (at(2200), at(2220))]);
        assert!((lat.percentile_ms(50.0) - 10.0).abs() < 1e-9);
        assert!((lat.total_secs() - 0.02).abs() < 1e-9);
        assert!((cal.run_slowdown() - 1.5).abs() < 1e-12);
        assert_eq!(cal.run_steal_share(), 0.0);
    }

    #[test]
    fn stolen_time_is_taken_off_a_span() {
        let n = NOMINAL_KERNEL_S;
        // From 1 s on, a quarter of the CPU time wanted is stolen.
        let (t0, cal) = cal(&[
            (0, n, 0, 0),
            (1000, n, 100, 0),
            (2000, n, 175, 25),
            (3000, n, 250, 50),
        ]);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(cal.steal(at(300), at(400)), 0.0);
        // The window around 1.5–2.5 s reaches from the 1 s to the 3 s sample.
        assert_eq!(cal.steal(at(1500), at(2500)), 0.25);
        assert!((cal.nominal_secs(at(1500), at(2500)) - 0.75).abs() < 1e-9);
        assert!((cal.scaled_secs(at(1500), at(2500)) - 1.0).abs() < 1e-9);
        // Past the last sample: from the last one before the window.
        assert_eq!(cal.steal(at(5000), at(5100)), 0.0);
        assert!((cal.run_steal_share() - 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_takes_time_and_samples_accumulate() {
        assert!(kernel() > 0.0);
        let mut cal = Calibration::new();
        assert_eq!(cal.len(), BURST);
        cal.tick();
        assert_eq!(cal.len(), BURST, "ticks within the interval do not sample");
        assert!(cal.run_slowdown() > 0.0);
    }
}
