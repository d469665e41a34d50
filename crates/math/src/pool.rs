//! A from-scratch scoped-thread worker pool (std-only, no rayon).
//!
//! Parallelism in this workspace lives across independent analyses:
//! the candidates of a batch and the (candidate × corner) units of a
//! PVT grid. Each is an embarrassingly parallel map, and this module
//! provides exactly that
//! shape: [`ThreadPool::par_map_indexed`] fans a slice out over
//! `std::thread::scope` workers and returns results in input order, so
//! callers stay deterministic regardless of thread count.
//!
//! Worker count comes from `std::thread::available_parallelism()`,
//! overridable with the `ARTISAN_THREADS` environment variable, read
//! once per process; `ARTISAN_THREADS=1` short-circuits to a plain
//! sequential loop (no threads spawned at all), which test suites use
//! to pin determinism and CI uses to exercise the fallback path.
//!
//! Work is distributed dynamically: workers pull the next index from a
//! shared atomic counter, so a slow item (an ill-conditioned solve, a
//! large candidate) never stalls the items behind it on the same worker.
//!
//! # Example
//!
//! ```
//! use artisan_math::ThreadPool;
//!
//! let pool = ThreadPool::with_workers(4);
//! let squares = pool.par_map_indexed(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, any thread count
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Environment variable overriding the worker count (`1` forces the
/// sequential fallback).
pub const THREADS_ENV: &str = "ARTISAN_THREADS";

/// The worker count a [`THREADS_ENV`] value asks for: a positive
/// integer, or `None` (unset, zero or unparseable) to use the machine's
/// available parallelism.
fn parse_workers(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// A fixed-width scoped-thread pool for order-preserving parallel maps.
///
/// The pool is a plain value (no OS resources held between calls):
/// each `par_map_*` call spawns its workers inside a
/// [`std::thread::scope`] and joins them before returning, so borrowed
/// inputs need no `'static` lifetimes and a panic in any worker
/// propagates to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool sized from the environment: `ARTISAN_THREADS` when set to
    /// a positive integer, otherwise the machine's available
    /// parallelism (1 when that cannot be determined). Both are read
    /// once per process, on the first call.
    pub fn from_env() -> Self {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            parse_workers(std::env::var(THREADS_ENV).ok().as_deref())
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
        });
        ThreadPool { workers }
    }

    /// A pool with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. `f` receives the item's index alongside the item.
    ///
    /// With one worker (or ≤ 1 item) this is a plain sequential loop on
    /// the calling thread, so `ARTISAN_THREADS=1` runs are structurally
    /// identical to a hand-written `for` loop.
    pub fn par_map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Dynamic distribution: each worker pulls the next unclaimed
        // index, tags its result with it, and the merge below restores
        // input order — output is independent of scheduling.
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, U)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut pairs: Vec<(usize, U)> = parts.into_iter().flatten().collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, v)| v).collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = ThreadPool::with_workers(workers).par_map_indexed(&items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = ThreadPool::with_workers(3).par_map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::with_workers(4);
        let empty: Vec<i32> = Vec::new();
        assert!(pool.par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.par_map_indexed(&[7], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn one_worker_is_a_plain_sequential_loop() {
        // One worker spawns no thread: every item runs on the calling
        // thread, in index order, so a shared counter reads 0, 1, 2, …
        let caller = thread::current().id();
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let got = ThreadPool::with_workers(1).par_map_indexed(&items, |i, &x| {
            assert_eq!(thread::current().id(), caller, "item {i} left the caller");
            (calls.fetch_add(1, Ordering::Relaxed), i, x)
        });
        let expected: Vec<(usize, usize, usize)> = (0..10).map(|k| (k, k, k)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        assert_eq!(ThreadPool::with_workers(0).workers(), 1);
        assert_eq!(ThreadPool::with_workers(5).workers(), 5);
    }

    #[test]
    fn worker_override_parses_positive_integers_only() {
        assert_eq!(parse_workers(Some("3")), Some(3));
        assert_eq!(parse_workers(Some("1")), Some(1));
        for ignored in [
            None,
            Some("0"),
            Some("not-a-number"),
            Some(""),
            Some("-2"),
            Some(" 4"),
        ] {
            assert_eq!(parse_workers(ignored), None, "{ignored:?}");
        }
        assert!(ThreadPool::from_env().workers() >= 1);
        assert_eq!(ThreadPool::from_env(), ThreadPool::from_env());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let items: Vec<f64> = (0..500).map(|k| k as f64 * 0.37).collect();
        let seq = ThreadPool::with_workers(1).par_map_indexed(&items, |i, &x| x.sin() + i as f64);
        let par = ThreadPool::with_workers(7).par_map_indexed(&items, |i, &x| x.sin() + i as f64);
        assert_eq!(seq, par); // bit-identical, not approximately equal
    }
}
