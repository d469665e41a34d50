//! The Table 3 experiment runner: every method × every Table 2 group ×
//! `trials` seeded repetitions, reporting success rate, metrics averaged
//! over successful runs (the paper's convention — failed runs print
//! "fail"), FoM, and testbed-equivalent time.

use crate::workflow::{Artisan, ArtisanOptions};
use artisan_opt::objective::Objective;
use artisan_opt::{Bobo, BoboConfig, Gpt4Baseline, Llama2Baseline, Rlbo, RlboConfig};
use artisan_resilience::{
    faulted_plan_fingerprint, session_file_name, FaultPlan, FaultySim, JournalLoad, SessionJournal,
    SessionReport, Supervisor,
};
use artisan_sim::cost::{format_testbed_time, CostModel};
use artisan_sim::{
    CacheStats, CachedSim, CornerGrid, CornerSim, Performance, SimBackend, SimCache, Simulator,
    Spec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The five compared methods of §4.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// BOBO \[12\] — GP Bayesian optimization over the topology embedding.
    Bobo,
    /// RLBO \[3\] — REINFORCE topology search.
    Rlbo,
    /// Off-the-shelf GPT-4.
    Gpt4,
    /// Off-the-shelf Llama2-7b-chat.
    Llama2,
    /// Artisan (this work).
    Artisan,
}

impl Method {
    /// All methods in Table 3's row order.
    pub const ALL: [Method; 5] = [
        Method::Bobo,
        Method::Rlbo,
        Method::Gpt4,
        Method::Llama2,
        Method::Artisan,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bobo => "BOBO",
            Method::Rlbo => "RLBO",
            Method::Gpt4 => "GPT-4",
            Method::Llama2 => "Llama2",
            Method::Artisan => "Artisan",
        }
    }
}

/// One trial's record.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Whether the produced design cleared every constraint.
    pub success: bool,
    /// Measured performance of the produced design (if it simulated).
    pub performance: Option<Performance>,
    /// Testbed-equivalent seconds billed.
    pub testbed_seconds: f64,
    /// Simulations served from the shared cache (0 when uncached).
    pub cache_hits: usize,
    /// Cache hits that waited on another trial's in-flight simulation.
    pub coalesced_waits: usize,
    /// Matrix solves bundled into batched G/C assemblies.
    pub batched_solves: usize,
    /// The full supervised-session report, when the experiment ran with
    /// a [`Supervisor`] (Artisan rows only).
    pub session: Option<SessionReport>,
    /// How the trial's write-ahead journal loaded, when the experiment
    /// ran with [`ExperimentConfig::journal_dir`] (Artisan supervised
    /// trials only). Carries resume state and any rejection warning.
    pub journal: Option<JournalLoad>,
}

/// Aggregated results of one (method, group) cell of Table 3.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The method.
    pub method: Method,
    /// The group name ("G-1" …).
    pub group: &'static str,
    /// Per-trial records.
    pub trials: Vec<TrialRecord>,
}

impl GroupResult {
    /// Successes out of trials, e.g. `(9, 10)`.
    pub fn success_rate(&self) -> (usize, usize) {
        (
            self.trials.iter().filter(|t| t.success).count(),
            self.trials.len(),
        )
    }

    /// Mean of a metric over the *successful* trials (the paper's
    /// convention). `None` when no trial succeeded.
    pub fn mean_over_successes(&self, f: impl Fn(&Performance) -> f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.success)
            .filter_map(|t| t.performance.as_ref())
            .map(&f)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Mean testbed time per trial in seconds.
    pub fn mean_testbed_seconds(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.testbed_seconds).sum::<f64>() / self.trials.len() as f64
    }

    /// Cache hits summed over the cell's trials.
    pub fn total_cache_hits(&self) -> usize {
        self.trials.iter().map(|t| t.cache_hits).sum()
    }

    /// Coalesced waits summed over the cell's trials.
    pub fn total_coalesced_waits(&self) -> usize {
        self.trials.iter().map(|t| t.coalesced_waits).sum()
    }

    /// Batched solves summed over the cell's trials.
    pub fn total_batched_solves(&self) -> usize {
        self.trials.iter().map(|t| t.batched_solves).sum()
    }

    /// Billed testbed seconds summed over the cell's trials.
    pub fn total_testbed_seconds(&self) -> f64 {
        self.trials.iter().map(|t| t.testbed_seconds).sum()
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Trials per (method, group) — 10 in the paper.
    pub trials: usize,
    /// Base seed; trial `k` of group `g` uses a derived seed.
    pub seed: u64,
    /// BOBO budget configuration.
    pub bobo: BoboConfig,
    /// RLBO budget configuration.
    pub rlbo: RlboConfig,
    /// Artisan options.
    pub artisan: ArtisanOptions,
    /// Cost model for the Time column.
    pub cost_model: CostModel,
    /// Capacity of a shared, content-addressed simulation cache every
    /// trial runs against. `None` (the default) runs each trial on a
    /// bare [`Simulator`], exactly as the paper's testbed would.
    pub sim_cache: Option<usize>,
    /// When set, the Artisan rows run as *supervised* sessions (retry,
    /// backoff, budget) and each trial carries its [`SessionReport`].
    pub supervision: Option<Supervisor>,
    /// When set (with supervision), every Artisan trial's backend is
    /// wrapped in a [`FaultySim`] carrying this plan, reseeded per
    /// trial (`plan.seed ^ trial seed`) so each trial rolls its own
    /// deterministic fault dice — the Table 3 robustness columns.
    pub fault_plan: Option<FaultPlan>,
    /// When set (with supervision), every Artisan trial keeps a
    /// crash-safe write-ahead journal under this directory and resumes
    /// from it on re-run (see `artisan_resilience::journal`).
    pub journal_dir: Option<PathBuf>,
    /// When set, every trial's backend is wrapped in a [`CornerSim`]
    /// evaluating this PVT grid, so reports carry worst-case verdicts
    /// and supervised validation requires the worst corner to clear the
    /// spec too. `None` (the default) keeps nominal-only analysis.
    pub corners: Option<CornerGrid>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            trials: 10,
            seed: 2024,
            bobo: BoboConfig::default(),
            rlbo: RlboConfig::default(),
            artisan: ArtisanOptions::paper_default(),
            cost_model: CostModel::default(),
            sim_cache: None,
            supervision: None,
            fault_plan: None,
            journal_dir: None,
            corners: None,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for tests: few trials, small budgets, no
    /// LLM training.
    pub fn smoke(trials: usize) -> Self {
        ExperimentConfig {
            trials,
            seed: 7,
            bobo: BoboConfig {
                budget: 40,
                initial_samples: 15,
                pool: 50,
                ..BoboConfig::default()
            },
            rlbo: RlboConfig {
                budget: 40,
                ..RlboConfig::default()
            },
            artisan: ArtisanOptions::fast(),
            cost_model: CostModel::default(),
            sim_cache: None,
            supervision: None,
            fault_plan: None,
            journal_dir: None,
            corners: None,
        }
    }

    /// The same configuration with a shared simulation cache of
    /// `capacity` fingerprints.
    #[must_use]
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.sim_cache = Some(capacity);
        self
    }

    /// The same configuration with supervised Artisan sessions.
    #[must_use]
    pub fn with_supervision(mut self, supervisor: Supervisor) -> Self {
        self.supervision = Some(supervisor);
        self
    }

    /// The same configuration with fault-injected Artisan trials
    /// (implies supervision: a default [`Supervisor`] is installed when
    /// none was configured).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        if self.supervision.is_none() {
            self.supervision = Some(Supervisor::default());
        }
        self
    }

    /// The same configuration with PVT corner verdicts attached to
    /// every report (see [`ExperimentConfig::corners`]).
    #[must_use]
    pub fn with_corners(mut self, grid: CornerGrid) -> Self {
        self.corners = Some(grid);
        self
    }
}

/// Runs one trial of `method` against a caller-supplied backend. The
/// backend's ledger is read back into the record, so cache hits,
/// coalesced waits, and batched solves survive into Table 3. `fault`
/// is the per-trial fault plan the backend was wrapped with (if any) —
/// it participates in the journal-file identity, never in execution
/// here.
fn trial<B: SimBackend>(
    method: Method,
    spec: &Spec,
    config: &ExperimentConfig,
    artisan: &mut Artisan,
    sim: &mut B,
    seed: u64,
    fault: Option<FaultPlan>,
) -> TrialRecord {
    match method {
        Method::Artisan => {
            if let Some(supervisor) = &config.supervision {
                let (report, journal) = match &config.journal_dir {
                    Some(dir) => {
                        let fingerprint = faulted_plan_fingerprint(
                            spec,
                            supervisor,
                            &artisan.agent().config(),
                            fault.as_ref(),
                        );
                        let path = dir.join(session_file_name(fingerprint, seed));
                        let (mut journal, load) = SessionJournal::open(&path, fingerprint, seed);
                        let report = artisan.design_supervised_journaled(
                            spec,
                            sim,
                            supervisor,
                            seed,
                            &mut journal,
                        );
                        (report, Some(load))
                    }
                    None => (artisan.design_supervised(spec, sim, supervisor, seed), None),
                };
                TrialRecord {
                    success: report.success,
                    performance: report
                        .outcome
                        .as_ref()
                        .and_then(|o| o.report.as_ref())
                        .map(|r| r.performance),
                    testbed_seconds: report.testbed_seconds,
                    cache_hits: report.cache_hits,
                    coalesced_waits: report.coalesced_waits,
                    batched_solves: report.batched_solves,
                    session: Some(report),
                    journal,
                }
            } else {
                let outcome = artisan.design_with(spec, sim, seed);
                TrialRecord {
                    success: outcome.design.success,
                    performance: outcome.design.report.map(|r| r.performance),
                    testbed_seconds: outcome.testbed_seconds,
                    cache_hits: outcome.ledger.cache_hits() as usize,
                    coalesced_waits: outcome.ledger.coalesced_waits() as usize,
                    batched_solves: outcome.ledger.batched_solves() as usize,
                    session: None,
                    journal: None,
                }
            }
        }
        other => {
            let mut rng = StdRng::seed_from_u64(seed);
            let result = match other {
                Method::Bobo => Bobo::new(config.bobo).run(spec, sim, &mut rng),
                Method::Rlbo => Rlbo::new(config.rlbo).run(spec, sim, &mut rng),
                Method::Gpt4 => Gpt4Baseline.optimize(spec, sim, &mut rng),
                Method::Llama2 => Llama2Baseline.optimize(spec, sim, &mut rng),
                Method::Artisan => unreachable!("handled above"),
            };
            let ledger = *sim.ledger();
            TrialRecord {
                success: result.success,
                performance: result.performance,
                testbed_seconds: ledger.testbed_seconds(&config.cost_model),
                cache_hits: ledger.cache_hits() as usize,
                coalesced_waits: ledger.coalesced_waits() as usize,
                batched_solves: ledger.batched_solves() as usize,
                session: None,
                journal: None,
            }
        }
    }
}

/// Runs one (method, group) cell on per-trial bare simulators.
pub fn run_cell(
    method: Method,
    group_name: &'static str,
    spec: &Spec,
    config: &ExperimentConfig,
    artisan: &mut Artisan,
) -> GroupResult {
    run_cell_with_cache(method, group_name, spec, config, artisan, None)
}

/// Runs one (method, group) cell. When `cache` is given, every trial
/// runs on a fresh [`CachedSim`] sharing that cache (each trial keeps
/// its own ledger, so per-trial billing stays isolated); otherwise each
/// trial gets a bare [`Simulator`].
pub fn run_cell_with_cache(
    method: Method,
    group_name: &'static str,
    spec: &Spec,
    config: &ExperimentConfig,
    artisan: &mut Artisan,
    cache: Option<&Arc<SimCache>>,
) -> GroupResult {
    let mut trials = Vec::with_capacity(config.trials);
    for k in 0..config.trials {
        let seed = config
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(k as u64 * 7919)
            ^ (group_name.len() as u64)
            ^ ((method as u64) << 32);
        // Fault injection targets the supervised Artisan rows: each
        // trial rolls its own dice via a per-trial reseed, and the
        // supervisor absorbs the faults (retry/backoff/validation).
        let fault = match (method, &config.supervision, config.fault_plan) {
            (Method::Artisan, Some(_), Some(mut plan)) => {
                plan.seed ^= seed;
                Some(plan)
            }
            _ => None,
        };
        // Layered backend stack, innermost first: Simulator → report
        // cache → corner verdicts → fault injection. Corners sit
        // *outside* the report cache (cached snapshots are nominal-only;
        // verdicts live in their own namespaced map) and faults sit
        // outermost so injected errors/poison perturb whole observations
        // — see the stacking rule in `artisan_sim::corners`.
        let record = {
            let base: Box<dyn SimBackend> = match cache {
                Some(cache) => Box::new(CachedSim::for_simulator(
                    Simulator::new(),
                    Arc::clone(cache),
                )),
                None => Box::new(Simulator::new()),
            };
            let cornered: Box<dyn SimBackend> = match &config.corners {
                Some(grid) if !grid.is_empty() => {
                    let mut sim = CornerSim::new(base, grid.clone());
                    if let Some(cache) = cache {
                        sim = sim.with_cache(Arc::clone(cache));
                    }
                    Box::new(sim)
                }
                _ => base,
            };
            match fault {
                Some(plan) => {
                    let mut sim = FaultySim::new(cornered, plan);
                    trial(method, spec, config, artisan, &mut sim, seed, Some(plan))
                }
                None => {
                    let mut sim = cornered;
                    trial(method, spec, config, artisan, &mut sim, seed, None)
                }
            }
        };
        trials.push(record);
    }
    GroupResult {
        method,
        group: group_name,
        trials,
    }
}

/// The assembled Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// All (method, group) cells, method-major in the paper's order.
    pub cells: Vec<GroupResult>,
    /// Aggregate statistics of the shared simulation cache, when the
    /// experiment ran with one.
    pub cache_stats: Option<CacheStats>,
    /// Wall-clock time the whole experiment took to compute.
    pub wall_seconds: f64,
}

impl Table3 {
    /// Runs the full experiment. A cache capacity in
    /// [`ExperimentConfig::sim_cache`] builds a fresh shared cache for
    /// the run; use [`Table3::run_with_cache`] to supply a warm one.
    pub fn run(config: &ExperimentConfig) -> Table3 {
        Table3::run_with_cache(config, config.sim_cache.map(SimCache::shared))
    }

    /// Runs the full experiment against a caller-supplied shared cache
    /// (possibly warm-started from a snapshot); `None` runs uncached.
    pub fn run_with_cache(config: &ExperimentConfig, cache: Option<Arc<SimCache>>) -> Table3 {
        let start = Instant::now();
        let mut artisan = Artisan::new(config.artisan.clone());
        let mut cells = Vec::new();
        for method in Method::ALL {
            for (group, spec) in Spec::table2() {
                cells.push(run_cell_with_cache(
                    method,
                    group,
                    &spec,
                    config,
                    &mut artisan,
                    cache.as_ref(),
                ));
            }
        }
        Table3 {
            cells,
            cache_stats: cache.map(|c| c.stats()),
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Looks up a cell.
    pub fn cell(&self, method: Method, group: &str) -> Option<&GroupResult> {
        self.cells
            .iter()
            .find(|c| c.method == method && c.group == group)
    }

    /// The §4.2 headline: the speedup range of Artisan over the
    /// optimization baselines, `(min, max)` over groups where both have
    /// measurements.
    pub fn speedup_range(&self) -> Option<(f64, f64)> {
        let mut ratios = Vec::new();
        for (group, _) in Spec::table2() {
            let artisan = self.cell(Method::Artisan, group)?.mean_testbed_seconds();
            if artisan <= 0.0 {
                continue;
            }
            for m in [Method::Bobo, Method::Rlbo] {
                let baseline = self.cell(m, group)?.mean_testbed_seconds();
                if baseline > 0.0 {
                    ratios.push(baseline / artisan);
                }
            }
        }
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (!ratios.is_empty()).then_some((min, max))
    }

    /// Journal warnings across all trials (rejected or truncated
    /// session journals) — CLIs surface these on stderr.
    pub fn journal_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for cell in &self.cells {
            for (k, t) in cell.trials.iter().enumerate() {
                if let Some(w) = t.journal.as_ref().and_then(|j| j.warning.as_ref()) {
                    out.push(format!(
                        "{} {} trial {k}: {w}",
                        cell.method.name(),
                        cell.group
                    ));
                }
            }
        }
        out
    }

    /// Completed attempts restored from session journals across all
    /// trials — work a previous (possibly crashed) run already paid for.
    pub fn journal_attempts_restored(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.trials)
            .filter_map(|t| t.journal.as_ref())
            .map(|j| j.attempts_loaded)
            .sum()
    }

    /// Trials resumed from a terminal journal record (nothing re-run).
    pub fn journal_terminal_resumes(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.trials)
            .filter_map(|t| t.journal.as_ref())
            .filter(|j| j.terminal)
            .count()
    }

    /// Whether any trial ran with a journal.
    pub fn journaled(&self) -> bool {
        self.cells
            .iter()
            .flat_map(|c| &c.trials)
            .any(|t| t.journal.is_some())
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:<5} {:>6} {:>9} {:>10} {:>8} {:>10} {:>10} {:>9}",
            "Method", "Exp", "Succ.", "Gain(dB)", "GBW(MHz)", "PM(deg)", "Power(uW)", "FoM", "Time"
        )?;
        for cell in &self.cells {
            let (s, n) = cell.success_rate();
            let fmt_metric = |v: Option<f64>| match v {
                Some(x) => format!("{x:.1}"),
                None => "fail".to_string(),
            };
            writeln!(
                f,
                "{:<8} {:<5} {:>4}/{:<1} {:>9} {:>10} {:>8} {:>10} {:>10} {:>9}",
                cell.method.name(),
                cell.group,
                s,
                n,
                fmt_metric(cell.mean_over_successes(|p| p.gain.value())),
                match cell.mean_over_successes(|p| p.gbw.value() / 1e6) {
                    Some(x) => format!("{x:.2}"),
                    None => "fail".to_string(),
                },
                fmt_metric(cell.mean_over_successes(|p| p.pm.value())),
                fmt_metric(cell.mean_over_successes(|p| p.power.value() * 1e6)),
                fmt_metric(cell.mean_over_successes(|p| p.fom)),
                format_testbed_time(cell.mean_testbed_seconds()),
            )?;
        }
        if let Some((lo, hi)) = self.speedup_range() {
            writeln!(
                f,
                "Artisan accelerates the design process by {lo:.1}x to {hi:.1}x over the \
                 optimization baselines."
            )?;
        }
        if let Some(stats) = &self.cache_stats {
            writeln!(f, "Shared sim cache: {stats}")?;
            for cell in &self.cells {
                let (hits, waits, batched) = (
                    cell.total_cache_hits(),
                    cell.total_coalesced_waits(),
                    cell.total_batched_solves(),
                );
                if hits + waits + batched > 0 {
                    writeln!(
                        f,
                        "  {:<8} {:<5} {} cache hit(s), {} coalesced wait(s), \
                         {} batched solve(s), {} billed",
                        cell.method.name(),
                        cell.group,
                        hits,
                        waits,
                        batched,
                        format_testbed_time(cell.total_testbed_seconds()),
                    )?;
                }
            }
        }
        for cell in &self.cells {
            for (k, t) in cell.trials.iter().enumerate() {
                if let Some(session) = &t.session {
                    writeln!(
                        f,
                        "  {:<8} {:<5} trial {k}: {session}",
                        cell.method.name(),
                        cell.group,
                    )?;
                }
            }
        }
        if self.journaled() {
            writeln!(
                f,
                "Session journals: {} attempt(s) restored, {} trial(s) resumed terminal",
                self.journal_attempts_restored(),
                self.journal_terminal_resumes(),
            )?;
            for w in self.journal_warnings() {
                writeln!(f, "  journal warning: {w}")?;
            }
        }
        writeln!(f, "(computed in {:.1}s wall-clock)", self.wall_seconds)
    }
}

/// One row of the Table 3 robustness sweep: the supervised Artisan
/// success rate, observed faults, and billed-cost inflation at one
/// injected fault rate (aggregated over every Table 2 group).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Injected transient error/poison rate (0 = the clean baseline).
    pub fault_rate: f64,
    /// Successful trials at this rate.
    pub successes: usize,
    /// Trials run at this rate.
    pub trials: usize,
    /// Faults the supervisors observed (injected errors, poisoned
    /// reports, latency spikes).
    pub faults_observed: usize,
    /// Mean billed testbed seconds per trial.
    pub mean_testbed_seconds: f64,
    /// Billed-cost inflation versus the clean baseline
    /// (`mean_testbed_seconds / clean mean`), 1.0 for the baseline row.
    pub cost_inflation: f64,
}

/// The robustness companion to Table 3: supervised Artisan sessions
/// swept across injected fault rates, quantifying how gracefully
/// success rate degrades and how much the retries/backoff inflate
/// billed cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// One row per swept fault rate, clean baseline (rate 0) first.
    pub rows: Vec<RobustnessRow>,
}

impl RobustnessReport {
    /// Runs the sweep: a clean supervised baseline, then every positive
    /// rate in `fault_rates` as a [`FaultPlan::flaky`] wrapper around
    /// each trial's backend. Supervision comes from
    /// `config.supervision` (default [`Supervisor`] when unset);
    /// `config.journal_dir` and `config.sim_cache` are honoured.
    pub fn run(config: &ExperimentConfig, fault_rates: &[f64]) -> RobustnessReport {
        let supervisor = config.supervision.unwrap_or_default();
        let mut artisan = Artisan::new(config.artisan.clone());
        let mut rates = vec![0.0];
        rates.extend(fault_rates.iter().copied().filter(|r| *r > 0.0));
        let mut rows = Vec::with_capacity(rates.len());
        let mut clean_mean = 0.0f64;
        for rate in rates {
            let mut cfg = config.clone();
            cfg.supervision = Some(supervisor);
            cfg.fault_plan = (rate > 0.0).then(|| FaultPlan::flaky(config.seed, rate));
            let cache = cfg.sim_cache.map(SimCache::shared);
            let mut successes = 0;
            let mut trials = 0;
            let mut faults_observed = 0;
            let mut total_seconds = 0.0;
            for (group, spec) in Spec::table2() {
                let cell = run_cell_with_cache(
                    Method::Artisan,
                    group,
                    &spec,
                    &cfg,
                    &mut artisan,
                    cache.as_ref(),
                );
                let (s, n) = cell.success_rate();
                successes += s;
                trials += n;
                faults_observed += cell
                    .trials
                    .iter()
                    .filter_map(|t| t.session.as_ref())
                    .map(|r| r.faults_observed)
                    .sum::<usize>();
                total_seconds += cell.total_testbed_seconds();
            }
            let mean = if trials > 0 {
                total_seconds / trials as f64
            } else {
                0.0
            };
            if rate == 0.0 {
                clean_mean = mean;
            }
            rows.push(RobustnessRow {
                fault_rate: rate,
                successes,
                trials,
                faults_observed,
                mean_testbed_seconds: mean,
                cost_inflation: if clean_mean > 0.0 {
                    mean / clean_mean
                } else {
                    1.0
                },
            });
        }
        RobustnessReport { rows }
    }
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>7} {:>8} {:>10} {:>9}",
            "FaultRate", "Succ.", "Faults", "MeanTime", "CostInfl"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<10} {:>4}/{:<2} {:>8} {:>10} {:>8.2}x",
                format!("{:.0}%", row.fault_rate * 100.0),
                row.successes,
                row.trials,
                row.faults_observed,
                format_testbed_time(row.mean_testbed_seconds),
                row.cost_inflation,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_has_paper_shape() {
        let config = ExperimentConfig::smoke(2);
        let table = Table3::run(&config);
        assert_eq!(table.cells.len(), 25);

        // LLM baselines fail everywhere.
        for group in ["G-1", "G-2", "G-3", "G-4", "G-5"] {
            assert_eq!(table.cell(Method::Gpt4, group).unwrap().success_rate().0, 0);
            assert_eq!(
                table.cell(Method::Llama2, group).unwrap().success_rate().0,
                0
            );
        }
        // Artisan (noiseless smoke config) succeeds everywhere.
        for group in ["G-1", "G-2", "G-3", "G-4", "G-5"] {
            let (s, n) = table.cell(Method::Artisan, group).unwrap().success_rate();
            assert_eq!(s, n, "{group}");
        }
        // Artisan is much faster than the sim-hungry baselines.
        let artisan_t = table
            .cell(Method::Artisan, "G-1")
            .unwrap()
            .mean_testbed_seconds();
        let bobo_t = table
            .cell(Method::Bobo, "G-1")
            .unwrap()
            .mean_testbed_seconds();
        assert!(
            bobo_t > 2.0 * artisan_t,
            "bobo {bobo_t} artisan {artisan_t}"
        );
    }

    #[test]
    fn display_renders_fail_cells() {
        let config = ExperimentConfig::smoke(1);
        let table = Table3::run(&config);
        let text = table.to_string();
        assert!(text.contains("fail"));
        assert!(text.contains("Artisan"));
        assert!(text.contains("G-5"));
    }

    #[test]
    fn cached_experiment_matches_uncached_and_bills_less() {
        let uncached = Table3::run(&ExperimentConfig::smoke(2));
        let cached = Table3::run(&ExperimentConfig::smoke(2).with_cache(4096));
        assert!(uncached.cache_stats.is_none());
        let stats = cached.cache_stats.as_ref().unwrap_or_else(|| {
            panic!("cached run lost its stats");
        });
        assert!(stats.hits > 0, "repeated trials never hit: {stats}");

        // Same outcomes and metrics, cell for cell: the cache must be
        // observationally transparent.
        assert_eq!(uncached.cells.len(), cached.cells.len());
        let mut cached_total = 0.0;
        let mut uncached_total = 0.0;
        let mut total_hits = 0;
        for (a, b) in uncached.cells.iter().zip(&cached.cells) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.group, b.group);
            assert_eq!(
                a.success_rate(),
                b.success_rate(),
                "{} {}",
                a.group,
                b.group
            );
            assert_eq!(
                a.mean_over_successes(|p| p.fom),
                b.mean_over_successes(|p| p.fom),
                "{} {}",
                a.method.name(),
                a.group
            );
            assert!(
                b.mean_testbed_seconds() <= a.mean_testbed_seconds() + 1e-9,
                "{} {}: cached {} > uncached {}",
                a.method.name(),
                a.group,
                b.mean_testbed_seconds(),
                a.mean_testbed_seconds()
            );
            uncached_total += a.total_testbed_seconds();
            cached_total += b.total_testbed_seconds();
            total_hits += b.total_cache_hits();
        }
        assert!(
            cached_total < uncached_total,
            "cached {cached_total} !< uncached {uncached_total}"
        );
        // Per-trial ledgers agree with the aggregate cache counters.
        assert_eq!(total_hits as u64, stats.hits + stats.coalesced);

        // The rendered table surfaces the aggregate and per-cell lines.
        let text = cached.to_string();
        assert!(text.contains("Shared sim cache:"), "{text}");
        assert!(text.contains("cache hit(s)"), "{text}");
    }

    #[test]
    fn supervised_experiment_carries_session_reports() {
        let config = ExperimentConfig::smoke(1).with_supervision(Supervisor::default());
        let table = Table3::run(&config);
        for group in ["G-1", "G-2", "G-3", "G-4", "G-5"] {
            let cell = table
                .cell(Method::Artisan, group)
                .unwrap_or_else(|| panic!("missing Artisan {group}"));
            for t in &cell.trials {
                let session = t
                    .session
                    .as_ref()
                    .unwrap_or_else(|| panic!("supervised trial lost its report"));
                assert_eq!(session.success, t.success);
                assert_eq!(session.testbed_seconds, t.testbed_seconds);
            }
            // Baseline rows stay unsupervised.
            let bobo = table
                .cell(Method::Bobo, group)
                .unwrap_or_else(|| panic!("missing BOBO {group}"));
            assert!(bobo.trials.iter().all(|t| t.session.is_none()));
        }
        let text = table.to_string();
        assert!(text.contains("trial 0: session:"), "{text}");
    }

    #[test]
    fn faulted_cells_keep_sessions_and_observe_faults() {
        let mut config = ExperimentConfig::smoke(2).with_supervision(Supervisor::default());
        config = config.with_faults(FaultPlan::flaky(99, 0.5));
        let mut artisan = Artisan::new(config.artisan.clone());
        let spec = Spec::g1();
        let cell = run_cell_with_cache(Method::Artisan, "G-1", &spec, &config, &mut artisan, None);
        assert_eq!(cell.trials.len(), 2);
        let faults: usize = cell
            .trials
            .iter()
            .filter_map(|t| t.session.as_ref())
            .map(|s| s.faults_observed)
            .sum();
        assert!(faults > 0, "flaky(0.5) plan injected no faults");
        // Fault injection is deterministic: the same cell replays
        // trial-for-trial.
        let again = run_cell_with_cache(Method::Artisan, "G-1", &spec, &config, &mut artisan, None);
        for (a, b) in cell.trials.iter().zip(&again.trials) {
            assert_eq!(a.success, b.success);
            assert_eq!(a.testbed_seconds, b.testbed_seconds);
            assert_eq!(a.session, b.session);
        }
        // Baseline rows never see the fault plan.
        let bobo = run_cell_with_cache(Method::Bobo, "G-1", &spec, &config, &mut artisan, None);
        assert!(bobo.trials.iter().all(|t| t.session.is_none()));
    }

    #[test]
    fn robustness_report_degrades_gracefully() {
        let config = ExperimentConfig::smoke(1).with_supervision(Supervisor::default());
        let report = RobustnessReport::run(&config, &[0.4]);
        assert_eq!(report.rows.len(), 2);
        let clean = &report.rows[0];
        assert_eq!(clean.fault_rate, 0.0);
        assert_eq!(clean.trials, 5, "one trial per Table 2 group");
        assert_eq!(clean.cost_inflation, 1.0);
        let faulted = &report.rows[1];
        assert_eq!(faulted.fault_rate, 0.4);
        assert!(faulted.faults_observed > 0, "sweep observed no faults");
        assert!(
            faulted.successes <= clean.successes,
            "faults cannot raise the success rate: {} > {}",
            faulted.successes,
            clean.successes
        );
        assert!(
            faulted.cost_inflation >= 1.0,
            "retries/backoff cannot deflate billed cost: {}",
            faulted.cost_inflation
        );
        let text = report.to_string();
        assert!(text.contains("CostInfl"), "{text}");
        assert!(text.contains("40%"), "{text}");
    }

    #[test]
    fn cornered_cells_attach_worst_case_and_keep_nominal_identity() {
        // A nominal-only grid is observationally inert: same successes
        // and metrics as the plain cell, with a 1-corner verdict riding
        // on every surviving report.
        let spec = Spec::g1();
        let plain_cfg = ExperimentConfig::smoke(2).with_supervision(Supervisor::default());
        let mut artisan = Artisan::new(plain_cfg.artisan.clone());
        let plain = run_cell_with_cache(
            Method::Artisan,
            "G-1",
            &spec,
            &plain_cfg,
            &mut artisan,
            None,
        );
        let cfg = plain_cfg.clone().with_corners(CornerGrid::nominal());
        let cornered = run_cell_with_cache(Method::Artisan, "G-1", &spec, &cfg, &mut artisan, None);
        for (a, b) in plain.trials.iter().zip(&cornered.trials) {
            assert_eq!(a.success, b.success);
            assert_eq!(a.performance.map(|p| p.fom), b.performance.map(|p| p.fom));
            let report = b
                .session
                .as_ref()
                .and_then(|s| s.outcome.as_ref())
                .and_then(|o| o.report.as_ref())
                .unwrap_or_else(|| panic!("cornered trial lost its report"));
            let wc = report
                .worst_case
                .unwrap_or_else(|| panic!("no corner verdict on a cornered trial"));
            assert_eq!(wc.corners, 1);
            assert_eq!(wc.failing, 0);
        }
        // Corner billing can only raise testbed time, never lower it.
        assert!(
            cornered.mean_testbed_seconds() >= plain.mean_testbed_seconds() - 1e-9,
            "corners deflated billing: {} < {}",
            cornered.mean_testbed_seconds(),
            plain.mean_testbed_seconds()
        );
    }

    #[test]
    fn journaled_table3_resumes_terminal_sessions() {
        let dir =
            std::env::temp_dir().join(format!("artisan-table3-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        let mut config = ExperimentConfig::smoke(1).with_supervision(Supervisor::default());
        config.journal_dir = Some(dir.clone());
        let first = Table3::run(&config);
        assert!(first.journaled());
        assert_eq!(first.journal_terminal_resumes(), 0);
        assert!(
            first.journal_warnings().is_empty(),
            "{:?}",
            first.journal_warnings()
        );
        let second = Table3::run(&config);
        // Every Artisan supervised trial (5 groups × 1 trial) resumes
        // from its terminal journal record instead of re-running.
        assert_eq!(second.journal_terminal_resumes(), 5);
        assert!(second.journal_warnings().is_empty());
        for (a, b) in first.cells.iter().zip(&second.cells) {
            for (ta, tb) in a.trials.iter().zip(&b.trials) {
                assert_eq!(ta.success, tb.success);
                assert_eq!(ta.testbed_seconds, tb.testbed_seconds);
                assert_eq!(ta.session, tb.session);
            }
        }
        let text = second.to_string();
        assert!(text.contains("Session journals:"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mean_over_successes_ignores_failures() {
        use artisan_circuit::units::{Decibels, Degrees, Hertz, Watts};
        let perf = Performance {
            gain: Decibels(100.0),
            gbw: Hertz(1e6),
            pm: Degrees(60.0),
            power: Watts(50e-6),
            fom: 200.0,
        };
        let cell = GroupResult {
            method: Method::Artisan,
            group: "G-1",
            trials: vec![
                TrialRecord {
                    success: true,
                    performance: Some(perf),
                    testbed_seconds: 100.0,
                    cache_hits: 0,
                    coalesced_waits: 0,
                    batched_solves: 0,
                    session: None,
                    journal: None,
                },
                TrialRecord {
                    success: false,
                    performance: Some(Performance {
                        gain: Decibels(10.0),
                        ..perf
                    }),
                    testbed_seconds: 300.0,
                    cache_hits: 0,
                    coalesced_waits: 0,
                    batched_solves: 0,
                    session: None,
                    journal: None,
                },
            ],
        };
        assert_eq!(cell.success_rate(), (1, 2));
        assert_eq!(cell.mean_over_successes(|p| p.gain.value()), Some(100.0));
        assert_eq!(cell.mean_testbed_seconds(), 200.0);
    }
}
