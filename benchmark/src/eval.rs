//! `eval`: RLBO trials through the sign-off evaluation stack.
//!
//! One op is one RLBO trial (40 evaluations), run through
//! `run_cell_with_cache` with a 27-corner `CornerGrid::default()` and
//! one `SimCache` shared by the whole run: first cold (misses fill the
//! cache, every grid is computed), then replayed warm
//! [`WARM_REPLAYS`] times with the same seed (reads). Ops cycle
//! G-1…G-5 with fresh seeds, so the working set grows by a trial's
//! candidates per op and stays far below the cache capacity. Corner
//! grids, the cache and fingerprinting do most of the work.

use crate::calib::Calibration;
use crate::table3::cell_seed;
use crate::trace::{replay_stages, LayerReport, Sink, Timed};
use crate::{
    alloc, calibration_notes, derive_seed, end_to_end, latency_notes, peak_rss_mb, timed_setups,
    traced_artisan_setup, Digest, Outcome, RunConfig, Workload,
};
use artisan_core::{run_cell_with_cache, Artisan, ExperimentConfig, Method, TrialRecord};
use artisan_opt::Rlbo;
use artisan_sim::fingerprint::config_salt;
use artisan_sim::{
    AnalysisConfig, CachedSim, CornerGrid, CornerSim, SimBackend, SimCache, Simulator, Spec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm replays of every cold trial.
pub const WARM_REPLAYS: usize = 5;
/// Capacity of the shared cache, in reports.
pub const CACHE_CAPACITY: usize = 65_536;
/// Ops folded into the output digest.
pub const PIN_OPS: usize = 10;
/// Percentile `tail_ms` reports.
pub const TAIL: f64 = 90.0;

/// The configuration of op `op`'s trials.
pub fn experiment_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig {
        trials: 1,
        seed,
        ..ExperimentConfig::default()
    }
    .with_cache(CACHE_CAPACITY)
    .with_corners(CornerGrid::default());
    config.rlbo.budget = 40;
    config
}

fn op_inputs(seed: u64, op: usize) -> ((&'static str, Spec), ExperimentConfig) {
    (
        Spec::table2()[op % 5],
        experiment_config(derive_seed(seed, op as u64)),
    )
}

/// A warm replay must reproduce the cold trial's result and can only
/// bill less (hits cost retrieval time, not simulations).
fn check_op(cold: &TrialRecord, warm: &[TrialRecord]) -> Result<(), String> {
    for (i, w) in warm.iter().enumerate() {
        if w.success != cold.success || w.performance != cold.performance {
            return Err(format!("warm replay {i} differs from the cold trial"));
        }
        if w.testbed_seconds > cold.testbed_seconds {
            return Err(format!(
                "warm replay {i} billed {}s > cold {}s",
                w.testbed_seconds, cold.testbed_seconds
            ));
        }
    }
    Ok(())
}

fn fold(digest: &mut Digest, cold: &TrialRecord, warm: &[TrialRecord]) {
    digest.push_bool(cold.success);
    match &cold.performance {
        Some(p) => {
            for v in [p.gain.0, p.gbw.0, p.pm.0, p.power.0, p.fom] {
                digest.push_f64(v);
            }
        }
        None => digest.push_bool(false),
    }
    digest.push_f64(cold.testbed_seconds);
    for w in warm {
        digest.push_f64(w.testbed_seconds);
    }
}

/// One op through the public experiment API: the cold trial and its
/// warm replays.
fn public_op(
    artisan: &mut Artisan,
    cache: &Arc<SimCache>,
    seed: u64,
    op: usize,
) -> (TrialRecord, Vec<TrialRecord>) {
    let ((name, spec), config) = op_inputs(seed, op);
    let mut trial = || {
        let mut cell =
            run_cell_with_cache(Method::Rlbo, name, &spec, &config, artisan, Some(cache));
        cell.trials.remove(0)
    };
    let cold = trial();
    let warm = (0..WARM_REPLAYS).map(|_| trial()).collect();
    (cold, warm)
}

/// Runs the workload without tracing.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Eval);
    let mut cal = Calibration::new();
    let (setup_s, mut artisan) =
        timed_setups(cfg.setups, &mut cal, || Artisan::new(cfg.artisan.clone()));
    let cache = SimCache::shared(CACHE_CAPACITY);
    let mut spans = Vec::new();
    let mut digest = Digest::default();
    // The shared cache grows with every op, and a time-boxed run's op
    // count follows the machine's speed: peak memory is read once the
    // fixed prefix is done, so it measures a fixed amount of work.
    let mut prefix_rss = None;
    let start = Instant::now();
    let mut op = 0;
    while op == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let (cold, warm) = public_op(&mut artisan, &cache, cfg.seed, op);
        spans.push((t, Instant::now()));
        cal.tick();
        out.attempted += 1;
        if op + 1 == PIN_OPS {
            prefix_rss = peak_rss_mb();
        }
        match check_op(&cold, &warm) {
            Ok(()) if op < PIN_OPS => fold(&mut digest, &cold, &warm),
            Ok(()) => {}
            Err(e) => out.fail_op(format!("op {op}: {e}")),
        }
        op += 1;
    }
    cal.burst();
    out.digest = (op >= PIN_OPS).then(|| digest.finish());
    out.check_pinned(cfg);
    let lat = cal.latencies(&spans);
    latency_notes(&mut out, &lat, TAIL);
    calibration_notes(&mut out, &cal);
    out.notes.push(format!("shared cache: {}", cache.stats()));
    let throughput = lat.len() as f64 / lat.total_secs();
    let rss = prefix_rss.or_else(peak_rss_mb).unwrap_or(0.0);
    out.metrics = end_to_end(
        setup_s,
        throughput,
        lat.percentile_ms(50.0),
        lat.percentile_ms(TAIL),
        rss,
    );
    out
}

/// Wrapper times of one traced trial, innermost last.
#[derive(Default)]
struct Times {
    rlbo_self: f64,
    corners_self: f64,
    cache_self: f64,
    simulator: f64,
    evals: u64,
    sims: u64,
    grids: u64,
    corner_sims: u64,
}

/// One trial exactly as `run_cell_with_cache` stacks it — corner
/// verdicts over the report cache over the simulator — with a [`Timed`]
/// wrapper between every two layers.
fn traced_trial(
    (name, spec): (&'static str, Spec),
    config: &ExperimentConfig,
    cache: &Arc<SimCache>,
    sink: &Sink,
    times: &mut Times,
) -> (TrialRecord, f64) {
    let seed = cell_seed(config.seed, 0, name, Method::Rlbo);
    let grid = config.corners.clone().unwrap_or_default();
    let cached = CachedSim::new(Timed::capturing(Simulator::new(), sink), Arc::clone(cache))
        .with_salt(config_salt(&AnalysisConfig::default()));
    let mut sim =
        Timed::new(CornerSim::new(Timed::new(cached), grid).with_cache(Arc::clone(cache)));
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let result = Rlbo::new(config.rlbo).run(&spec, &mut sim, &mut rng);
    let wall = t.elapsed().as_secs_f64();
    let ledger = *sim.ledger();
    let corners = sim.inner();
    let cached = corners.inner();
    let simulator = cached.inner().inner();
    times.rlbo_self += wall - sim.secs();
    times.corners_self += sim.secs() - cached.secs();
    times.cache_self += cached.secs() - simulator.secs();
    times.simulator += simulator.secs();
    times.evals += sim.candidates();
    times.sims += simulator.candidates();
    times.grids += corners.grids_evaluated();
    times.corner_sims += ledger.corner_sims();
    let record = TrialRecord {
        success: result.success,
        performance: result.performance,
        testbed_seconds: ledger.testbed_seconds(&config.cost_model),
        cache_hits: ledger.cache_hits() as usize,
        coalesced_waits: ledger.coalesced_waits() as usize,
        batched_solves: ledger.batched_solves() as usize,
        session: None,
        journal: None,
    };
    (record, wall)
}

/// Runs the workload traced: the untraced prefix through the public
/// API on its own cache, then the same seeds through the replicated,
/// instrumented stack on a fresh cache; both must agree.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Eval);
    let mut report = LayerReport::default();
    let mut artisan = traced_artisan_setup(cfg, &mut report);
    let untraced_cache = SimCache::shared(CACHE_CAPACITY);
    let mut untraced = Digest::default();
    let t = Instant::now();
    for op in 0..PIN_OPS {
        let (cold, warm) = public_op(&mut artisan, &untraced_cache, cfg.seed, op);
        fold(&mut untraced, &cold, &warm);
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let cache = SimCache::shared(CACHE_CAPACITY);
    let sink = Sink::default();
    let mut times = Times::default();
    let mut digest = Digest::default();
    let mut traced_prefix_s = 0.0;
    let allocs_before = alloc::counts();
    let start = Instant::now();
    let mut op = 0;
    while op < PIN_OPS || start.elapsed().as_secs_f64() < cfg.seconds {
        let (group, config) = op_inputs(cfg.seed, op);
        let t = Instant::now();
        let mut trials_wall = 0.0;
        let mut records = Vec::with_capacity(1 + WARM_REPLAYS);
        for _ in 0..=WARM_REPLAYS {
            let (record, wall) = traced_trial(group, &config, &cache, &sink, &mut times);
            records.push(record);
            trials_wall += wall;
        }
        let op_wall = t.elapsed().as_secs_f64();
        report.row("core.experiment.self_share", op_wall - trials_wall);
        report.wall_s += op_wall;
        report.ops += 1;
        out.attempted += 1;
        let (cold, warm) = records.split_at(1);
        if let Err(e) = check_op(&cold[0], warm) {
            out.fail_op(format!("traced op {op}: {e}"));
        }
        if op < PIN_OPS {
            traced_prefix_s += op_wall;
            fold(&mut digest, &cold[0], warm);
        }
        op += 1;
    }
    let allocs = alloc::since(allocs_before);

    if digest.finish() != untraced.finish() {
        out.failed = out.attempted;
        out.problem("traced trials differ from run_cell_with_cache".to_string());
    }
    out.digest = Some(digest.finish());
    out.check_pinned(cfg);
    out.notes.push(format!(
        "tracing overhead on the {PIN_OPS}-op prefix: {:+.2}% ({:.3}s traced vs {:.3}s untraced)",
        (traced_prefix_s / untraced_s - 1.0) * 100.0,
        traced_prefix_s,
        untraced_s
    ));

    report.row("opt.rlbo.self_share", times.rlbo_self);
    report.row("sim.corners.self_share", times.corners_self);
    report.row("sim.cache.self_share", times.cache_self);
    report.row("sim.simulator_share", times.simulator);
    let stats = cache.stats();
    report.set(
        "sim.analyze_us",
        times.simulator * 1e6 / times.sims.max(1) as f64,
    );
    report.per_op("sim.analyses_per_op", times.sims as f64);
    report.per_op("opt.rlbo.sims_per_op", times.evals as f64);
    report.per_op("sim.cache.hits_per_op", stats.hits as f64);
    report.per_op("sim.cache.misses_per_op", stats.misses as f64);
    report.set(
        "sim.cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    report.per_op("sim.corners.grids_per_op", times.grids as f64);
    report.per_op("sim.corners.corner_sims_per_op", times.corner_sims as f64);
    report.set_allocs(allocs);
    report.set_stages(&replay_stages(&sink.borrow(), Duration::from_millis(300)));
    report.finish(&mut out);
    out
}
