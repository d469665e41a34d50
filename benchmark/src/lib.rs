//! The Artisan benchmark: four workloads that drive the workspace's
//! public API from outside, end-to-end metrics measured without
//! tracing, and a separate traced run that attributes time to layers.
//!
//! | workload   | what it runs                                                   |
//! |------------|----------------------------------------------------------------|
//! | `table3`   | Table 3 at the `--quick` budgets, 5 methods × one group per op |
//! | `sessions` | supervised, journaled Artisan design sessions                  |
//! | `eval`     | RLBO trials through the corner + cache evaluation stack        |
//! | `serve`    | an in-process design server under open-loop load               |
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`])
//! for its own unit of work (the "op"), at the machine's nominal speed
//! ([`calib`]); see `README.md` for the op of each workload and why the
//! workloads were chosen.

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod compare;
pub mod eval;
pub mod serve;
pub mod sessions;
pub mod stats;
pub mod table3;
pub mod trace;

use artisan_agents::ArtisanAgent;
use artisan_core::{Artisan, ArtisanOptions};
use artisan_dataset::OpampDataset;
use artisan_gmid::LookupTable;
use artisan_serve::json::Json;
use artisan_sim::wire;
use calib::Calibration;
use stats::Latencies;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seed of the pinned output digests in `baseline.json`.
pub const DEFAULT_SEED: u64 = 2024;
/// Measured seconds per run (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Pinned digests and the recorded baseline.
const BASELINE: &str = include_str!("../baseline.json");

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 3 experiment.
    Table3,
    /// Supervised, journaled design sessions.
    Sessions,
    /// RLBO trials on the corner + cache evaluation stack.
    Eval,
    /// The design server under open-loop load.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Table3,
        Workload::Sessions,
        Workload::Eval,
        Workload::Serve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::Sessions => "sessions",
            Workload::Eval => "eval",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload without tracing.
    pub fn run(self, cfg: &RunConfig) -> Outcome {
        match self {
            Workload::Table3 => table3::run(cfg),
            Workload::Sessions => sessions::run(cfg),
            Workload::Eval => eval::run(cfg),
            Workload::Serve => serve::run(cfg),
        }
    }

    /// Runs the workload traced, reporting per-layer metrics.
    pub fn trace(self, cfg: &RunConfig) -> Outcome {
        match self {
            Workload::Table3 => table3::trace(cfg),
            Workload::Sessions => sessions::trace(cfg),
            Workload::Eval => eval::trace(cfg),
            Workload::Serve => serve::trace(cfg),
        }
    }
}

/// Everything that shapes one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Framework options behind every `Artisan::new`.
    pub artisan: ArtisanOptions,
    /// Directory for temporary files (session journals).
    pub scratch: PathBuf,
    /// Expected prefix digest, when one is pinned for this seed.
    pub pinned: Option<u64>,
}

impl RunConfig {
    /// The configuration the command line runs: the paper's trained
    /// framework, [`SETUPS`] set-ups, temporaries under
    /// `benchmark/tmp`, and the pinned digest for [`DEFAULT_SEED`].
    pub fn standard(workload: Workload, seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            setups: SETUPS,
            artisan: ArtisanOptions::paper_default(),
            scratch: PathBuf::from("benchmark").join("tmp"),
            pinned: (seed == DEFAULT_SEED)
                .then(|| pinned_digest(workload))
                .flatten(),
        }
    }
}

/// The digest `baseline.json` pins for `workload` at [`DEFAULT_SEED`].
pub fn pinned_digest(workload: Workload) -> Option<u64> {
    let baseline = Json::parse(BASELINE).ok()?;
    let hex = baseline.get("digests")?.get(workload.name())?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or failed a check.
    pub failed: u64,
    /// Failed output checks; the run is correct when empty.
    pub problems: Vec<String>,
    /// Informational lines (sample counts, overheads).
    pub notes: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Digest of the deterministic output prefix, when it completed.
    pub digest: Option<u64>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            digest: None,
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed check on one op.
    pub fn fail_op(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a check that is not tied to one op.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Compares the prefix digest with the pinned one. A mismatch
    /// counts every op of the run as failed.
    pub fn check_pinned(&mut self, cfg: &RunConfig) {
        let Some(pinned) = cfg.pinned else { return };
        match self.digest {
            Some(digest) if digest == pinned => {}
            Some(digest) => {
                self.failed = self.attempted;
                self.problem(format!(
                    "output digest {digest:016x} != pinned {pinned:016x}"
                ));
            }
            None => {
                self.failed = self.attempted;
                self.problem("output prefix did not complete; digest unchecked".to_string());
            }
        }
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Rejects non-finite metric values (JSON has no token for them).
    pub fn check_finite(&mut self) {
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite", m.name));
                m.value = 0.0;
            }
        }
    }
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(
    setup_s: f64,
    throughput: f64,
    p50_ms: f64,
    tail_ms: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let values = [setup_s, throughput, p50_ms, tail_ms, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Notes on the latency sample and whether it supports the tail.
pub fn latency_notes(out: &mut Outcome, lat: &Latencies, tail: f64) {
    let supported = stats::tail_percentile(lat.len());
    out.notes.push(format!(
        "{} op samples; tail_ms is p{tail}; highest supported percentile {}",
        lat.len(),
        supported.map_or("none".to_string(), |p| format!("p{p}"))
    ));
    if supported.is_none_or(|p| p < tail) {
        out.notes
            .push(format!("warning: too few samples for a p{tail} tail"));
    }
}

/// Derives the `k`-th input seed of a run from its base seed
/// (SplitMix64 over both).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(k))
}

/// Accumulates deterministic outputs and hashes them with the
/// workspace's FNV-1a 64.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    /// Folds a `u64`.
    pub fn push_u64(&mut self, value: u64) {
        wire::push_u64(&mut self.bytes, value);
    }

    /// Folds an `f64` bit pattern.
    pub fn push_f64(&mut self, value: f64) {
        wire::push_f64(&mut self.bytes, value);
    }

    /// Folds a flag.
    pub fn push_bool(&mut self, value: bool) {
        wire::push_u8(&mut self.bytes, u8::from(value));
    }

    /// Folds a length-prefixed string.
    pub fn push_str(&mut self, value: &str) {
        wire::push_str(&mut self.bytes, value);
    }

    /// The FNV-1a 64 of everything folded so far.
    pub fn finish(&self) -> u64 {
        wire::fnv1a64(&self.bytes)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `make` `n` times (at least once), each followed by a
/// calibration burst, and returns the median set-up time at nominal
/// speed with the last value. Earlier values are dropped before the
/// next one is built, so only one lives at a time.
pub fn timed_setups<T>(n: usize, cal: &mut Calibration, mut make: impl FnMut() -> T) -> (f64, T) {
    let mut spans = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = make();
        spans.push((t, Instant::now()));
        last = Some(value);
        cal.burst();
    }
    let secs: Vec<f64> = spans
        .iter()
        .map(|&(from, to)| cal.nominal_secs(from, to))
        .collect();
    match last {
        Some(value) => (stats::median(&secs), value),
        None => unreachable!("the loop runs at least once"),
    }
}

/// Notes how fast the machine ran during the run.
pub fn calibration_notes(out: &mut Outcome, cal: &Calibration) {
    out.notes.push(format!(
        "{} kernel samples: the kernel ran {:.3}x its nominal time and {:.1}% of the CPU time was stolen; times are at nominal speed",
        cal.len(),
        cal.run_slowdown(),
        cal.run_steal_share() * 100.0
    ));
}

/// The traced set-up of the workloads that build an [`Artisan`]. The
/// steps of `Artisan::new` — dataset build, agent training, gm/Id
/// table — are timed one by one, then the framework the run uses is
/// built. Reports each step's share of their sum.
pub fn traced_artisan_setup(cfg: &RunConfig, report: &mut trace::LayerReport) -> Artisan {
    fn step<T>(make: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let value = make();
        (value, t.elapsed().as_secs_f64())
    }
    let (mut dataset_s, mut train_s) = (0.0, 0.0);
    if let Some(config) = &cfg.artisan.dataset {
        let (dataset, secs) = step(|| OpampDataset::build(config, cfg.artisan.train_seed));
        dataset_s = secs;
        train_s = step(|| ArtisanAgent::trained(&dataset, cfg.artisan.agent)).1;
    }
    let table_s = step(LookupTable::default_nmos).1;
    let total = dataset_s + train_s + table_s;
    report.set("setup.dataset_share", dataset_s / total);
    report.set("setup.train_share", train_s / total);
    Artisan::new(cfg.artisan.clone())
}

/// A fresh directory removed (with its contents) when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `parent/<name>-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(parent: &Path, name: &str) -> std::io::Result<ScratchDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = parent.join(format!(
            "{name}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // The parent was created for scratch use only; remove it once
        // empty (fails harmlessly while another run still uses it).
        if let Some(parent) = self.path.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..100).map(|k| derive_seed(7, k)).collect();
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len());
        assert_eq!(derive_seed(7, 3), a[3]);
        assert_ne!(derive_seed(8, 3), a[3]);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(Workload::Table3);
        out.attempted = 3;
        out.metrics.push(Metric {
            name: "p50_ms",
            value: 1.25,
            unit: "ms",
        });
        let parsed = Json::parse(&out.json_line()).expect("valid JSON");
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(out.json_line().contains("\"attempted\": 3,"));
        let value = parsed.get("metrics").and_then(|m| m.get("p50_ms"));
        assert_eq!(value.and_then(|v| v.get("value")), Some(&Json::Num(1.25)));
    }

    #[test]
    fn baseline_pins_a_digest_for_every_workload() {
        for w in Workload::ALL {
            assert!(pinned_digest(w).is_some(), "{}", w.name());
        }
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let parent = std::env::current_dir()
            .expect("cwd")
            .join("target")
            .join("scratch-test");
        let path = {
            let dir = ScratchDir::new(&parent, "t").expect("create");
            std::fs::write(dir.path().join("f"), b"x").expect("write");
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
