//! `table3`: the paper's Table 3 experiment, offline and sequential.
//!
//! One op is one group of the table: all five methods (BOBO, RLBO,
//! GPT-4, Llama2, Artisan) run one trial each through
//! `run_cell_with_cache`, uncached and nominal-only as in the paper,
//! with the trained `ArtisanOptions::paper_default()` framework. Ops
//! cycle G-1…G-5; every five ops (a round) use a fresh trial seed.
//! BOBO and RLBO run at the `table3 --quick` budgets so a run holds
//! enough ops for a latency tail; BOBO's GP proposals and the
//! optimizers' simulations do most of the work.

use crate::calib::Calibration;
use crate::trace::{replay_stages, LayerReport, Sink, Timed};
use crate::{
    alloc, calibration_notes, derive_seed, end_to_end, latency_notes, peak_rss_mb, timed_setups,
    traced_artisan_setup, Digest, Outcome, RunConfig, Workload,
};
use artisan_core::{
    run_cell_with_cache, Artisan, ExperimentConfig, GroupResult, Method, Table3, TrialRecord,
};
use artisan_opt::{Bobo, Gpt4Baseline, Llama2Baseline, Objective, Rlbo};
use artisan_sim::{SimBackend, Simulator, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Rounds folded into the output digest.
pub const PIN_ROUNDS: usize = 2;
/// Percentile `tail_ms` reports.
pub const TAIL: f64 = 90.0;

/// The experiment configuration of one round: one trial per cell at
/// the `table3 --quick` optimizer budgets.
pub fn experiment_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig {
        trials: 1,
        seed,
        ..ExperimentConfig::default()
    };
    config.bobo.budget = 45;
    config.bobo.initial_samples = 15;
    config.rlbo.budget = 50;
    config
}

/// The trial seed `run_cell_with_cache` derives for trial `k` of a cell.
/// The traced run replicates the cell loop, and its digest check
/// against the public path guards this copy.
pub fn cell_seed(base: u64, k: usize, group: &str, method: Method) -> u64 {
    base.wrapping_mul(1_000_003).wrapping_add(k as u64 * 7919)
        ^ (group.len() as u64)
        ^ ((method as u64) << 32)
}

/// Removes the wall-clock line from a rendered table: it is the only
/// part of the output that differs between identical runs.
pub fn strip_wall_clock(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|line| !line.starts_with("(computed in"))
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// One round's cells, `round[group][method]`, rendered as Table 3.
fn render(round: &[Vec<GroupResult>]) -> String {
    let cells = (0..Method::ALL.len())
        .flat_map(|m| round.iter().map(move |group| group[m].clone()))
        .collect();
    strip_wall_clock(
        &Table3 {
            cells,
            cache_stats: None,
            wall_seconds: 0.0,
        }
        .to_string(),
    )
}

/// One op through the public experiment API.
fn public_op(artisan: &mut Artisan, group: usize, round_seed: u64) -> Vec<GroupResult> {
    let (name, spec) = Spec::table2()[group];
    let config = experiment_config(round_seed);
    Method::ALL
        .iter()
        .map(|&method| run_cell_with_cache(method, name, &spec, &config, artisan, None))
        .collect()
}

fn public_round(artisan: &mut Artisan, round_seed: u64) -> Vec<Vec<GroupResult>> {
    (0..5).map(|g| public_op(artisan, g, round_seed)).collect()
}

/// The off-the-shelf LLM baselines fail every spec by construction
/// (Fig. 7's error modes); a success means the results are wrong.
fn check_round(round: &[Vec<GroupResult>], r: usize, out: &mut Outcome) {
    for group in round {
        for cell in group {
            if matches!(cell.method, Method::Gpt4 | Method::Llama2) && cell.success_rate().0 > 0 {
                out.fail_op(format!(
                    "round {r}: {} succeeded on {}",
                    cell.method.name(),
                    cell.group
                ));
            }
        }
    }
}

/// Runs the workload without tracing.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Table3);
    let mut cal = Calibration::new();
    let (setup_s, mut artisan) =
        timed_setups(cfg.setups, &mut cal, || Artisan::new(cfg.artisan.clone()));
    let mut spans = Vec::new();
    let mut digest = Digest::default();
    let mut first_round = String::new();
    let start = Instant::now();
    let mut r = 0;
    while r == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let round_seed = derive_seed(cfg.seed, r as u64);
        let mut round = Vec::with_capacity(5);
        for g in 0..5 {
            let t = Instant::now();
            round.push(public_op(&mut artisan, g, round_seed));
            spans.push((t, Instant::now()));
            cal.tick();
        }
        out.attempted += 5;
        check_round(&round, r, &mut out);
        if r < PIN_ROUNDS {
            let text = render(&round);
            digest.push_str(&text);
            if r == 0 {
                first_round = text;
            }
        }
        r += 1;
    }
    let replay = render(&public_round(&mut artisan, derive_seed(cfg.seed, 0)));
    if replay != first_round {
        out.problem("round 0 rendered differently when replayed".to_string());
    }
    cal.burst();
    out.digest = (r >= PIN_ROUNDS).then(|| digest.finish());
    out.check_pinned(cfg);
    let lat = cal.latencies(&spans);
    latency_notes(&mut out, &lat, TAIL);
    calibration_notes(&mut out, &cal);
    let throughput = lat.len() as f64 / lat.total_secs();
    out.metrics = end_to_end(
        setup_s,
        throughput,
        lat.percentile_ms(50.0),
        lat.percentile_ms(TAIL),
        peak_rss_mb().unwrap_or(0.0),
    );
    out
}

/// Accumulates the per-layer times of traced cells.
struct Tracer {
    report: LayerReport,
    sink: Sink,
    sim_candidates: u64,
    sim_s: f64,
    bobo_sims: u64,
    rlbo_sims: u64,
}

/// One cell (one trial) exactly as `run_cell_with_cache` runs it, with
/// a [`Timed`] simulator so the method's self time can be separated
/// from its simulations.
fn traced_cell(
    method: Method,
    (name, spec): (&'static str, Spec),
    config: &ExperimentConfig,
    artisan: &mut Artisan,
    tr: &mut Tracer,
) -> (GroupResult, f64) {
    let seed = cell_seed(config.seed, 0, name, method);
    let mut sim = Timed::capturing(Simulator::new(), &tr.sink);
    let t = Instant::now();
    let record = if method == Method::Artisan {
        let outcome = artisan.design_with(&spec, &mut sim, seed);
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
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = match method {
            Method::Bobo => Bobo::new(config.bobo).run(&spec, &mut sim, &mut rng),
            Method::Rlbo => Rlbo::new(config.rlbo).run(&spec, &mut sim, &mut rng),
            Method::Gpt4 => Gpt4Baseline.optimize(&spec, &mut sim, &mut rng),
            _ => Llama2Baseline.optimize(&spec, &mut sim, &mut rng),
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
    };
    let wall = t.elapsed().as_secs_f64();
    let row = match method {
        Method::Bobo => "opt.bobo.self_share",
        Method::Rlbo => "opt.rlbo.self_share",
        Method::Gpt4 | Method::Llama2 => "opt.llm_baselines.self_share",
        Method::Artisan => "agents.self_share",
    };
    tr.report.row(row, wall - sim.secs());
    tr.report.row("sim.simulator_share", sim.secs());
    tr.sim_s += sim.secs();
    tr.sim_candidates += sim.candidates();
    match method {
        Method::Bobo => tr.bobo_sims += sim.candidates(),
        Method::Rlbo => tr.rlbo_sims += sim.candidates(),
        _ => {}
    }
    let cell = GroupResult {
        method,
        group: name,
        trials: vec![record],
    };
    (cell, wall)
}

/// Runs the workload traced: the untraced prefix through the public
/// API, then the same seeds through the replicated, instrumented cell
/// loop, which must render identically.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Table3);
    let mut report = LayerReport::default();
    let mut artisan = traced_artisan_setup(cfg, &mut report);
    let t = Instant::now();
    let untraced: Vec<String> = (0..PIN_ROUNDS)
        .map(|r| render(&public_round(&mut artisan, derive_seed(cfg.seed, r as u64))))
        .collect();
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer {
        report,
        sink: Sink::default(),
        sim_candidates: 0,
        sim_s: 0.0,
        bobo_sims: 0,
        rlbo_sims: 0,
    };
    let mut traced = Vec::new();
    let mut traced_prefix_s = 0.0;
    let allocs_before = alloc::counts();
    let start = Instant::now();
    let mut r = 0;
    while r < PIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
        let config = experiment_config(derive_seed(cfg.seed, r as u64));
        let mut round = Vec::with_capacity(5);
        for group in Spec::table2() {
            let t = Instant::now();
            let mut cells = Vec::with_capacity(Method::ALL.len());
            let mut cells_wall = 0.0;
            for method in Method::ALL {
                let (cell, wall) = traced_cell(method, group, &config, &mut artisan, &mut tr);
                cells.push(cell);
                cells_wall += wall;
            }
            let op_wall = t.elapsed().as_secs_f64();
            tr.report
                .row("core.experiment.self_share", op_wall - cells_wall);
            tr.report.wall_s += op_wall;
            tr.report.ops += 1;
            if r < PIN_ROUNDS {
                traced_prefix_s += op_wall;
            }
            round.push(cells);
        }
        out.attempted += 5;
        check_round(&round, r, &mut out);
        if r < PIN_ROUNDS {
            traced.push(render(&round));
        }
        r += 1;
    }
    let allocs = alloc::since(allocs_before);

    if traced != untraced {
        out.failed = out.attempted;
        out.problem("traced cells render differently from run_cell_with_cache".to_string());
    }
    let mut digest = Digest::default();
    for text in &traced {
        digest.push_str(text);
    }
    out.digest = Some(digest.finish());
    out.check_pinned(cfg);
    out.notes.push(format!(
        "tracing overhead on the {PIN_ROUNDS}-round prefix: {:+.2}% ({:.3}s traced vs {:.3}s untraced)",
        (traced_prefix_s / untraced_s - 1.0) * 100.0,
        traced_prefix_s,
        untraced_s
    ));

    let report = &mut tr.report;
    report.set(
        "sim.analyze_us",
        tr.sim_s * 1e6 / tr.sim_candidates.max(1) as f64,
    );
    report.per_op("sim.analyses_per_op", tr.sim_candidates as f64);
    report.per_op("opt.bobo.sims_per_op", tr.bobo_sims as f64);
    report.per_op("opt.rlbo.sims_per_op", tr.rlbo_sims as f64);
    report.set_allocs(allocs);
    report.set_stages(&replay_stages(
        &tr.sink.borrow(),
        Duration::from_millis(300),
    ));
    tr.report.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_only_the_wall_clock_line() {
        let rendered = "Method Exp\nBOBO   G-1\n(computed in 12.3s wall-clock)\n";
        assert_eq!(strip_wall_clock(rendered), "Method Exp\nBOBO   G-1\n");
        let a = Table3 {
            cells: Vec::new(),
            cache_stats: None,
            wall_seconds: 1.0,
        };
        let b = Table3 {
            wall_seconds: 99.0,
            ..a.clone()
        };
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(
            strip_wall_clock(&a.to_string()),
            strip_wall_clock(&b.to_string())
        );
    }
}
