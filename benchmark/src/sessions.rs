//! `sessions`: supervised, journaled Artisan design sessions in a
//! closed loop with one client (a designer waiting for each result).
//!
//! One op is one session: the trained agent designs for G-1…G-5 in
//! turn against a `FaultySim` at a 20% fault rate under
//! `Supervisor::default()`, checkpointing every attempt to a
//! `SessionJournal`. The timed sessions journal to memory
//! (`SessionJournal::in_memory`: the same frames and checksums, no
//! disk). A durable journal syncs the file on every attempt, and on a
//! shared virtual machine that time belongs to the neighbours' disk
//! traffic: it spread run-to-run timings by 24–37%. Every
//! [`CHECK_EVERY`]th session is therefore re-run outside the timed span,
//! detached and with a durable `SessionJournal::open` file, and all
//! three runs must agree; the traced run reports the durable journal's
//! cost. The agent/LLM and the supervisor do most of the timed work; no
//! optimizer, cache or corner layer runs.

use crate::calib::Calibration;
use crate::trace::{replay_stages, LayerReport, Sink, Timed};
use crate::{
    alloc, calibration_notes, derive_seed, end_to_end, latency_notes, peak_rss_mb, timed_setups,
    traced_artisan_setup, Digest, Outcome, RunConfig, ScratchDir, Workload,
};
use artisan_agents::Architecture;
use artisan_core::Artisan;
use artisan_resilience::{
    faulted_plan_fingerprint, session_file_name, FaultPlan, FaultySim, SessionJournal,
    SessionReport, Supervisor,
};
use artisan_sim::{AnalysisReport, SimBackend, Simulator, Spec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Sessions folded into the output digest.
pub const PIN_SESSIONS: usize = 500;
/// Every this many sessions, the timed run is compared with a detached
/// and a durably journaled re-run of the same session.
pub const CHECK_EVERY: usize = 128;
/// Every this many traced sessions, a durably journaled re-run times the
/// disk.
pub const DURABLE_EVERY: usize = 8;
/// Injected fault rate of every session's backend.
pub const FAULT_RATE: f64 = 0.2;
/// Percentile `tail_ms` reports.
pub const TAIL: f64 = 99.0;

/// The inputs of session `k`: its spec, seed and fault plan.
fn session_inputs(seed: u64, k: usize) -> (Spec, u64, FaultPlan) {
    let (_, spec) = Spec::table2()[k % 5];
    (
        spec,
        derive_seed(seed, k as u64),
        FaultPlan::flaky(seed ^ k as u64, FAULT_RATE),
    )
}

/// Where a session checkpoints its attempts.
#[derive(Debug, Clone, Copy)]
enum Journal<'a> {
    /// No journal (`Artisan::design_supervised`).
    Detached,
    /// `SessionJournal::in_memory`.
    Memory,
    /// A fresh `SessionJournal::open` file in this directory.
    Durable(&'a Path),
}

/// The plan fingerprint a session's journal is bound to.
fn plan_fingerprint(
    artisan: &Artisan,
    supervisor: &Supervisor,
    spec: &Spec,
    plan: &FaultPlan,
) -> u64 {
    faulted_plan_fingerprint(spec, supervisor, &artisan.agent().config(), Some(plan))
}

/// Runs one session on `sim`, returning its report and the encoded
/// length of its journal (0 when detached).
fn run_session<B: SimBackend>(
    artisan: &mut Artisan,
    supervisor: &Supervisor,
    journal: Journal,
    (spec, seed, plan): (Spec, u64, FaultPlan),
    sim: &mut B,
) -> Result<(SessionReport, usize), String> {
    match journal {
        Journal::Detached => Ok((artisan.design_supervised(&spec, sim, supervisor, seed), 0)),
        Journal::Memory => {
            let fingerprint = plan_fingerprint(artisan, supervisor, &spec, &plan);
            let mut journal = SessionJournal::in_memory(fingerprint, seed);
            let report =
                artisan.design_supervised_journaled(&spec, sim, supervisor, seed, &mut journal);
            Ok((report, journal.encoded_len()))
        }
        Journal::Durable(dir) => {
            let fingerprint = plan_fingerprint(artisan, supervisor, &spec, &plan);
            let path = dir.join(session_file_name(fingerprint, seed));
            let (mut journal, load) = SessionJournal::open(&path, fingerprint, seed);
            let report =
                artisan.design_supervised_journaled(&spec, sim, supervisor, seed, &mut journal);
            if let Some(warning) = load.warning {
                return Err(format!("journal load warning: {warning}"));
            }
            if load.attempts_loaded > 0 {
                return Err("a fresh session resumed from an existing journal".to_string());
            }
            if let Some(err) = journal.io_errors().first() {
                return Err(format!("journal write failed: {err}"));
            }
            Ok((report, journal.encoded_len()))
        }
    }
}

/// Invariants every supervised report must satisfy.
fn check_report(report: &SessionReport, supervisor: &Supervisor) -> Result<(), String> {
    if report.success && report.degraded {
        return Err("report is both successful and degraded".to_string());
    }
    if report.simulations > supervisor.budget.max_simulations {
        return Err(format!(
            "{} simulations exceed the budget of {}",
            report.simulations, supervisor.budget.max_simulations
        ));
    }
    Ok(())
}

/// Whether two reports agree on everything except the trained LLM's
/// free text (transcript and decision rationales): retrieval sums
/// TF-IDF scores in hash-map order, so near-tied passages can swap
/// between two otherwise identical calls without changing any number.
fn same_result(a: &SessionReport, b: &SessionReport) -> bool {
    let counts = |r: &SessionReport| {
        (
            (r.success, r.degraded, r.attempts, r.faults_observed),
            (r.simulations, r.llm_steps, r.cache_hits),
            (r.coalesced_waits, r.batched_solves),
            r.testbed_seconds.to_bits(),
        )
    };
    fn outcome(
        r: &SessionReport,
    ) -> Option<(bool, usize, Architecture, &Option<AnalysisReport>, &str)> {
        r.outcome.as_ref().map(|o| {
            (
                o.success,
                o.iterations,
                o.architecture,
                &o.report,
                o.netlist_text.as_str(),
            )
        })
    }
    counts(a) == counts(b) && a.events == b.events && outcome(a) == outcome(b)
}

/// Re-runs a timed session detached and with a durable journal in
/// `dir`: both must report what the timed run did, and the durable
/// journal must reopen as a finished session.
fn cross_check(
    artisan: &mut Artisan,
    supervisor: &Supervisor,
    dir: &Path,
    inputs: (Spec, u64, FaultPlan),
    timed: &SessionReport,
) -> Result<(), String> {
    let mut rerun = |journal| {
        let mut sim = FaultySim::new(Simulator::new(), inputs.2);
        run_session(artisan, supervisor, journal, inputs, &mut sim)
    };
    let (detached, _) = rerun(Journal::Detached)?;
    if !same_result(&detached, timed) {
        return Err("journaled report differs from the detached run".to_string());
    }
    let (durable, _) = rerun(Journal::Durable(dir))?;
    if !same_result(&durable, timed) {
        return Err("durably journaled report differs from the timed run".to_string());
    }
    let (spec, seed, plan) = inputs;
    let fingerprint = plan_fingerprint(artisan, supervisor, &spec, &plan);
    let path = dir.join(session_file_name(fingerprint, seed));
    let (_, load) = SessionJournal::open(&path, fingerprint, seed);
    if !load.terminal || load.warning.is_some() {
        return Err(format!(
            "durable journal does not reopen as finished: {:?}",
            load.warning
        ));
    }
    Ok(())
}

fn fold(digest: &mut Digest, report: &SessionReport) {
    digest.push_bool(report.success);
    digest.push_u64(report.attempts as u64);
    digest.push_u64(report.simulations as u64);
    digest.push_f64(report.testbed_seconds);
}

/// Runs the workload without tracing.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Sessions);
    let mut cal = Calibration::new();
    let (setup_s, mut artisan) =
        timed_setups(cfg.setups, &mut cal, || Artisan::new(cfg.artisan.clone()));
    let dir = match ScratchDir::new(&cfg.scratch, "sessions") {
        Ok(dir) => dir,
        Err(e) => {
            out.problem(format!("cannot create the journal directory: {e}"));
            return out;
        }
    };
    let supervisor = Supervisor::default();
    let mut spans = Vec::new();
    let mut digest = Digest::default();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let inputs = session_inputs(cfg.seed, k);
        let t = Instant::now();
        let mut sim = FaultySim::new(Simulator::new(), inputs.2);
        let result = run_session(&mut artisan, &supervisor, Journal::Memory, inputs, &mut sim);
        spans.push((t, Instant::now()));
        out.attempted += 1;
        let checked = result.and_then(|(report, _)| {
            check_report(&report, &supervisor)?;
            if k % CHECK_EVERY == 0 {
                cross_check(&mut artisan, &supervisor, dir.path(), inputs, &report)?;
            }
            Ok(report)
        });
        match checked {
            Ok(report) if k < PIN_SESSIONS => fold(&mut digest, &report),
            Ok(_) => {}
            Err(e) => out.fail_op(format!("session {k}: {e}")),
        }
        k += 1;
        cal.tick();
    }
    cal.burst();
    out.digest = (k >= PIN_SESSIONS).then(|| digest.finish());
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

/// A traced session: wall time plus the `FaultySim` and simulator
/// wrapper times below the agent.
struct Traced {
    report: SessionReport,
    journal_len: usize,
    wall: f64,
    fault_s: f64,
    sim_s: f64,
    sims: u64,
    allocs: (u64, u64),
}

fn traced_session(
    artisan: &mut Artisan,
    supervisor: &Supervisor,
    journal: Journal,
    inputs: (Spec, u64, FaultPlan),
    sink: &Sink,
) -> Result<Traced, String> {
    let mut sim = Timed::new(FaultySim::new(
        Timed::capturing(Simulator::new(), sink),
        inputs.2,
    ));
    let allocs_before = alloc::counts();
    let t = Instant::now();
    let (report, journal_len) = run_session(artisan, supervisor, journal, inputs, &mut sim)?;
    let wall = t.elapsed().as_secs_f64();
    let allocs = alloc::since(allocs_before);
    let inner = sim.inner().inner();
    Ok(Traced {
        report,
        journal_len,
        wall,
        fault_s: sim.secs() - inner.secs(),
        sim_s: inner.secs(),
        sims: inner.candidates(),
        allocs,
    })
}

/// Runs the workload traced. Each session runs journaled in memory and
/// then detached with the same seeds: the journal row is the
/// difference, and the agent, fault and simulator rows come from the
/// detached run. Every [`DURABLE_EVERY`]th session also runs with a
/// durable journal, which times the disk.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(Workload::Sessions);
    let mut report = LayerReport::default();
    let mut artisan = traced_artisan_setup(cfg, &mut report);
    let dir = match ScratchDir::new(&cfg.scratch, "sessions-traced") {
        Ok(dir) => dir,
        Err(e) => {
            out.problem(format!("cannot create the journal directory: {e}"));
            return out;
        }
    };
    let supervisor = Supervisor::default();

    let mut untraced = Digest::default();
    let mut untraced_s = 0.0;
    for k in 0..PIN_SESSIONS {
        let inputs = session_inputs(cfg.seed, k);
        let t = Instant::now();
        let mut sim = FaultySim::new(Simulator::new(), inputs.2);
        let result = run_session(&mut artisan, &supervisor, Journal::Memory, inputs, &mut sim);
        untraced_s += t.elapsed().as_secs_f64();
        match result {
            Ok((report, _)) => fold(&mut untraced, &report),
            Err(e) => out.problem(format!("untraced session {k}: {e}")),
        }
    }

    let sink = Sink::default();
    let mut digest = Digest::default();
    let (mut traced_prefix_s, mut sims, mut bytes) = (0.0, 0u64, 0u64);
    let (mut attempts, mut faults, mut successes) = (0usize, 0usize, 0usize);
    let (mut durable_s, mut durable_n) = (0.0, 0u64);
    let mut sim_s = 0.0;
    let mut allocs = (0u64, 0u64);
    let start = Instant::now();
    let mut k = 0;
    while k < PIN_SESSIONS || start.elapsed().as_secs_f64() < cfg.seconds {
        let inputs = session_inputs(cfg.seed, k);
        out.attempted += 1;
        let pair = traced_session(&mut artisan, &supervisor, Journal::Memory, inputs, &sink)
            .and_then(|journaled| {
                let detached =
                    traced_session(&mut artisan, &supervisor, Journal::Detached, inputs, &sink)?;
                if !same_result(&detached.report, &journaled.report) {
                    return Err("journaled report differs from the detached run".to_string());
                }
                check_report(&journaled.report, &supervisor)?;
                if k % DURABLE_EVERY == 0 {
                    let durable = traced_session(
                        &mut artisan,
                        &supervisor,
                        Journal::Durable(dir.path()),
                        inputs,
                        &sink,
                    )?;
                    if !same_result(&durable.report, &journaled.report) {
                        return Err(
                            "durably journaled report differs from the timed run".to_string()
                        );
                    }
                    durable_s += durable.wall - journaled.wall;
                    durable_n += 1;
                }
                Ok((journaled, detached))
            });
        let (journaled, detached) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                out.fail_op(format!("traced session {k}: {e}"));
                k += 1;
                continue;
            }
        };
        report.row("resilience.journal_share", journaled.wall - detached.wall);
        report.row(
            "agents.self_share",
            detached.wall - detached.fault_s - detached.sim_s,
        );
        report.row("resilience.fault.self_share", detached.fault_s);
        report.row("sim.simulator_share", detached.sim_s);
        report.wall_s += journaled.wall;
        report.ops += 1;
        sim_s += detached.sim_s;
        sims += detached.sims;
        bytes += journaled.journal_len as u64;
        allocs.0 += journaled.allocs.0;
        allocs.1 += journaled.allocs.1;
        attempts += journaled.report.attempts;
        faults += journaled.report.faults_observed;
        successes += usize::from(journaled.report.success);
        if k < PIN_SESSIONS {
            traced_prefix_s += journaled.wall;
            fold(&mut digest, &journaled.report);
        }
        k += 1;
    }

    if digest.finish() != untraced.finish() {
        out.failed = out.attempted;
        out.problem("traced sessions differ from the untraced prefix".to_string());
    }
    out.digest = Some(digest.finish());
    out.check_pinned(cfg);
    out.notes.push(format!(
        "tracing overhead on the {PIN_SESSIONS}-session prefix: {:+.2}% ({:.3}s traced vs {:.3}s untraced)",
        (traced_prefix_s / untraced_s - 1.0) * 100.0,
        traced_prefix_s,
        untraced_s
    ));

    report.set("sim.analyze_us", sim_s * 1e6 / sims.max(1) as f64);
    report.per_op("sim.analyses_per_op", sims as f64);
    report.per_op("resilience.attempts_per_session", attempts as f64);
    report.per_op("resilience.faults_per_session", faults as f64);
    report.per_op("resilience.success_ratio", successes as f64);
    report.per_op("resilience.journal_bytes_per_session", bytes as f64);
    report.set(
        "resilience.durable_journal_us",
        durable_s * 1e6 / durable_n.max(1) as f64,
    );
    report.set_allocs(allocs);
    report.set_stages(&replay_stages(&sink.borrow(), Duration::from_millis(300)));
    report.finish(&mut out);
    out
}
