//! Crash/restart drill for the durable session journals: proves that a
//! process killed partway through a batch of supervised sessions can be
//! restarted against the same `ARTISAN_JOURNAL_DIR` and reproduce the
//! clean reference field-for-field, while paying strictly less than a
//! from-scratch rerun. This is the binary CI's `crash-restart` job
//! drives as three separate processes.
//!
//! Run with:
//!   `cargo run --release -p artisan-bench --bin crash_restart -- --phase reference|victim|resume [--dir DIR] [--sessions N] [--seed S] [--kill-after K] [--expect-resumed K]`
//!
//! Phases (all three must share `--dir`, `--sessions`, and `--seed`):
//! - `reference` runs every session with a *detached* journal (the
//!   uninterrupted baseline) and writes `reference.json` into the dir.
//! - `victim` runs journaled sessions sequentially and calls
//!   `std::process::abort()` after `--kill-after` of them — a hard
//!   SIGABRT with journals for the finished sessions on disk and
//!   nothing for the rest, exactly what a mid-batch crash leaves.
//! - `resume` re-runs the full journaled batch, asserts every session
//!   report is field-identical (f64s compared by bit pattern) to
//!   `reference.json`, that at least `--expect-resumed` sessions were
//!   restored from a terminal journal record, that the restart billed
//!   strictly fewer fresh testbed seconds than the reference, and
//!   writes `resume.json`. Prints `CRASH_RESTART OK` on success.

// Experiment driver: aborting on a failed setup step is the idiom here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use artisan_bench::arg_or;
use artisan_resilience::{
    faulted_plan_fingerprint, session_file_name, FaultPlan, FaultySim, SessionJournal, Supervisor,
};
use artisan_sim::cost::CostModel;
use artisan_sim::{SimBackend, Simulator, Spec};
use std::path::PathBuf;

/// Session `k`'s seed: the base seed mixed with `k` times the 64-bit
/// golden-ratio constant, so every phase derives identical, distinct
/// per-session seeds from the base seed.
fn session_seed(base: u64, k: usize) -> u64 {
    base ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-session fault plan: deterministic, distinct dice per session.
/// Every third session runs against a dead-on-arrival testbed, so
/// the batch mixes first-try successes with
/// multi-attempt (retried, eventually failed) sessions — the resume
/// protocol must fast-forward both shapes.
fn session_fault(seed: u64, k: usize) -> FaultPlan {
    if k % 3 == 2 {
        FaultPlan::outage_from(seed ^ 0xF00D, 0)
    } else {
        FaultPlan::flaky(seed ^ 0xF00D, 0.3)
    }
}

struct SessionRow {
    seed: u64,
    success: bool,
    attempts: usize,
    faults_observed: usize,
    testbed_seconds: f64,
    fresh_billed: f64,
    resumed_terminal: bool,
    attempts_restored: usize,
}

/// Runs session `k`; `journaled` decides detached vs durable journal.
fn run_session(
    supervisor: &Supervisor,
    spec: &Spec,
    dir: &std::path::Path,
    base_seed: u64,
    k: usize,
    journaled: bool,
) -> SessionRow {
    let seed = session_seed(base_seed, k);
    let plan = session_fault(seed, k);
    let mut sim = FaultySim::new(Simulator::new(), plan);
    let mut journal = if journaled {
        let config = artisan_agents::AgentConfig::noiseless();
        let fingerprint = faulted_plan_fingerprint(spec, supervisor, &config, Some(&plan));
        let path = dir.join(session_file_name(fingerprint, seed));
        let (journal, load) = SessionJournal::open(&path, fingerprint, seed);
        if let Some(w) = &load.warning {
            eprintln!("journal warning (session {k}): {w}");
        }
        journal
    } else {
        SessionJournal::detached()
    };
    let resumed_terminal = journal.terminal().is_some();
    let attempts_restored = journal.attempt_records().count();
    let report = supervisor.run_journaled_default_agent(spec, &mut sim, seed, &mut journal);
    for err in journal.io_errors() {
        eprintln!("journal io error (session {k}): {err}");
    }
    let fresh_billed = if resumed_terminal {
        0.0
    } else {
        sim.ledger().testbed_seconds(&CostModel::default())
    };
    SessionRow {
        seed,
        success: report.success,
        attempts: report.attempts,
        faults_observed: report.faults_observed,
        testbed_seconds: report.testbed_seconds,
        fresh_billed,
        resumed_terminal,
        attempts_restored,
    }
}

fn rows_json(rows: &[SessionRow]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"seed\": {}, \"success\": {}, \"attempts\": {}, \"faults_observed\": {}, \"testbed_seconds\": {:.6}, \"testbed_seconds_bits\": {}, \"fresh_billed_seconds\": {:.6}, \"resumed_terminal\": {}, \"attempts_restored\": {} }}",
                r.seed,
                r.success,
                r.attempts,
                r.faults_observed,
                r.testbed_seconds,
                r.testbed_seconds.to_bits(),
                r.fresh_billed,
                r.resumed_terminal,
                r.attempts_restored,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n  ]")
}

fn main() {
    let phase: String = arg_or("--phase", "reference".to_string());
    let sessions: usize = arg_or("--sessions", 6);
    let base_seed: u64 = arg_or("--seed", 4242);
    let kill_after: usize = arg_or("--kill-after", sessions / 2);
    let expect_resumed: usize = arg_or("--expect-resumed", 0);
    let dir_flag: String = arg_or("--dir", String::new());
    let dir: PathBuf = if dir_flag.is_empty() {
        artisan_resilience::journal_dir_from_env()
            .unwrap_or_else(|| std::env::temp_dir().join("artisan-crash-restart"))
    } else {
        PathBuf::from(dir_flag)
    };
    std::fs::create_dir_all(&dir).expect("journal dir");

    let supervisor = Supervisor::default();
    let spec = Spec::g1();

    match phase.as_str() {
        "reference" => {
            let rows: Vec<SessionRow> = (0..sessions)
                .map(|k| run_session(&supervisor, &spec, &dir, base_seed, k, false))
                .collect();
            let total: f64 = rows.iter().map(|r| r.fresh_billed).sum();
            let json = format!(
                "{{\n  \"phase\": \"reference\",\n  \"sessions\": {sessions},\n  \"billed_testbed_seconds\": {total:.6},\n  \"rows\": {}\n}}\n",
                rows_json(&rows)
            );
            std::fs::write(dir.join("reference.json"), &json).expect("writes reference");
            print!("{json}");
            eprintln!("reference: {sessions} sessions, {total:.1} billed seconds");
        }
        "victim" => {
            for k in 0..sessions {
                let row = run_session(&supervisor, &spec, &dir, base_seed, k, true);
                eprintln!(
                    "victim: session {k} journaled ({} attempt(s), success={})",
                    row.attempts, row.success
                );
                if k + 1 == kill_after {
                    eprintln!("victim: simulating crash after {kill_after} session(s)");
                    // A hard abort — no destructors, no flushes beyond
                    // what the journal already made durable.
                    std::process::abort();
                }
            }
            eprintln!("victim: --kill-after {kill_after} never fired");
            std::process::exit(1);
        }
        "resume" => {
            let reference =
                std::fs::read_to_string(dir.join("reference.json")).expect("reference.json");
            let rows: Vec<SessionRow> = (0..sessions)
                .map(|k| run_session(&supervisor, &spec, &dir, base_seed, k, true))
                .collect();
            for (k, row) in rows.iter().enumerate() {
                let needle = format!(
                    "\"seed\": {}, \"success\": {}, \"attempts\": {}, \"faults_observed\": {}, \"testbed_seconds\": {:.6}, \"testbed_seconds_bits\": {}",
                    row.seed,
                    row.success,
                    row.attempts,
                    row.faults_observed,
                    row.testbed_seconds,
                    row.testbed_seconds.to_bits(),
                );
                assert!(
                    reference.contains(&needle),
                    "session {k} diverged from the clean reference: {needle}"
                );
            }
            let resumed = rows.iter().filter(|r| r.resumed_terminal).count();
            let restored: usize = rows.iter().map(|r| r.attempts_restored).sum();
            assert!(
                resumed >= expect_resumed,
                "only {resumed} session(s) resumed terminal, expected >= {expect_resumed}"
            );
            let fresh: f64 = rows.iter().map(|r| r.fresh_billed).sum();
            let reference_billed: f64 = reference
                .lines()
                .find_map(|l| {
                    l.trim()
                        .strip_prefix("\"billed_testbed_seconds\": ")
                        .and_then(|v| v.trim_end_matches(',').parse().ok())
                })
                .expect("reference billed seconds");
            if expect_resumed > 0 {
                assert!(
                    fresh < reference_billed,
                    "restart was not cheaper: {fresh} !< {reference_billed}"
                );
            }
            let json = format!(
                "{{\n  \"phase\": \"resume\",\n  \"sessions\": {sessions},\n  \"resumed_terminal\": {resumed},\n  \"attempts_restored\": {restored},\n  \"billed_testbed_seconds_reference\": {reference_billed:.6},\n  \"billed_testbed_seconds_fresh\": {fresh:.6},\n  \"rows\": {}\n}}\n",
                rows_json(&rows)
            );
            std::fs::write(dir.join("resume.json"), &json).expect("writes resume");
            print!("{json}");
            println!("CRASH_RESTART OK");
            eprintln!(
                "resume: {resumed}/{sessions} resumed terminal, {restored} attempt(s) restored, {fresh:.1} fresh vs {reference_billed:.1} reference seconds"
            );
        }
        other => {
            eprintln!("unknown --phase {other:?} (want reference|victim|resume)");
            std::process::exit(2);
        }
    }
}
