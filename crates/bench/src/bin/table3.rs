//! Regenerates **Table 3** (the performance comparison): BOBO, RLBO,
//! GPT-4, Llama2, and Artisan over the five Table 2 groups, `--trials`
//! seeded repetitions each. Metrics are averaged over successful trials
//! (the paper's convention); the Time column is testbed-equivalent (see
//! `artisan-sim::cost`). Also prints the §4.2 speedup headline.
//!
//! Run with:
//!   `cargo run --release -p artisan-bench --bin table3 [--trials 10] [--quick] [--cache N] [--supervised] [--fault-rate R] [--robustness R1,R2,...] [--journal DIR]`
//!
//! `--quick` cuts the baseline budgets 10× for a fast smoke run.
//! `--cache N` runs every trial against one shared simulation cache of
//! `N` fingerprints (0, the default, runs uncached) and appends the
//! cache accounting below the table; with `ARTISAN_SIM_CACHE_DIR` set,
//! the cache is warm-started from that directory's snapshot and saved
//! back at the end. `--supervised` runs the Artisan rows as supervised
//! sessions and prints each trial's session cost line.
//!
//! Robustness (implies `--supervised`):
//! `--fault-rate R` wraps every Artisan trial's backend in a
//! deterministic `FaultySim` injecting transient errors/poison at rate
//! `R`. `--robustness R1,R2,...` appends the robustness companion
//! table (success rate and billed-cost inflation per swept fault rate).
//!
//! Durability (implies `--supervised`): `--journal DIR` (or the
//! `ARTISAN_JOURNAL_DIR` environment variable) keeps a crash-safe
//! write-ahead journal per Artisan trial under `DIR`; re-running the
//! same configuration resumes finished sessions instead of re-buying
//! them. Journal/snapshot load warnings are surfaced on stderr.
//! `--journal-expire-secs S` runs the journal janitor after the tables:
//! finished (terminal) journals older than `S` seconds are deleted,
//! in-flight journals are never touched (`S = 0` sweeps every finished
//! journal immediately).

use artisan_bench::{arg_or, quick_mode};
use artisan_core::experiment::{ExperimentConfig, RobustnessReport, Table3};
use artisan_resilience::{expire_terminal, journal_dir_from_env, FaultPlan, Supervisor};
use artisan_sim::cache::persist::{snapshot_dir_from_env, SNAPSHOT_FILE};
use artisan_sim::fingerprint::config_salt;
use artisan_sim::{AnalysisConfig, SimCache};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let trials: usize = arg_or("--trials", 10);
    let cache_capacity: usize = arg_or("--cache", 0);
    let fault_rate: f64 = arg_or("--fault-rate", 0.0);
    let robustness: String = arg_or("--robustness", String::new());
    let journal_flag: String = arg_or("--journal", String::new());
    let journal_dir: Option<PathBuf> = if journal_flag.is_empty() {
        journal_dir_from_env()
    } else {
        Some(PathBuf::from(journal_flag))
    };
    let supervised = std::env::args().any(|a| a == "--supervised")
        || fault_rate > 0.0
        || !robustness.is_empty()
        || journal_dir.is_some();
    let mut config = ExperimentConfig {
        trials,
        seed: arg_or("--seed", 2024),
        ..ExperimentConfig::default()
    };
    if quick_mode() {
        config.bobo.budget = 45;
        config.bobo.initial_samples = 15;
        config.rlbo.budget = 50;
        config.artisan = artisan_core::ArtisanOptions {
            dataset: None,
            ..artisan_core::ArtisanOptions::paper_default()
        };
    }
    if supervised {
        config.supervision = Some(Supervisor::default());
    }
    if fault_rate > 0.0 {
        config.fault_plan = Some(FaultPlan::flaky(config.seed, fault_rate));
    }
    if let Some(dir) = &journal_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("journal dir {} unusable: {err}", dir.display());
        } else {
            config.journal_dir = Some(dir.clone());
        }
    }
    let table = if cache_capacity > 0 {
        // Trials run on `CachedSim::for_simulator`, whose fingerprint
        // salt is the default analysis config's salt — the same salt
        // keys the persistent snapshot.
        let salt = config_salt(&AnalysisConfig::default());
        let snapshot = snapshot_dir_from_env().map(|dir| dir.join(SNAPSHOT_FILE));
        let cache = match &snapshot {
            Some(path) => {
                let (cache, preload) = SimCache::load_from(path, cache_capacity, salt);
                if let Some(warning) = &preload.warning {
                    eprintln!("cache snapshot warning: {warning}");
                }
                if preload.entries_loaded > 0 {
                    eprintln!(
                        "warm-started from {} cached entries",
                        preload.entries_loaded
                    );
                }
                Arc::new(cache)
            }
            None => SimCache::shared(cache_capacity),
        };
        let table = Table3::run_with_cache(&config, Some(Arc::clone(&cache)));
        if let Some(path) = &snapshot {
            match cache.save_to(path, salt) {
                Ok(saved) => eprintln!(
                    "saved {} cache entries ({} bytes)",
                    saved.entries_saved, saved.bytes
                ),
                Err(err) => eprintln!("cache snapshot save failed: {err}"),
            }
        }
        table
    } else {
        Table3::run(&config)
    };
    for warning in table.journal_warnings() {
        eprintln!("journal warning: {warning}");
    }
    println!("{table}");
    if !robustness.is_empty() {
        let rates: Vec<f64> = robustness
            .split(',')
            .filter_map(|r| r.trim().parse().ok())
            .filter(|r| *r > 0.0)
            .collect();
        if rates.is_empty() {
            eprintln!("--robustness parsed no positive rates from {robustness:?}");
        } else {
            println!("Robustness sweep (Artisan supervised, all groups):");
            println!("{}", RobustnessReport::run(&config, &rates));
        }
    }
    let expire_secs: f64 = arg_or("--journal-expire-secs", -1.0);
    if expire_secs >= 0.0 {
        match &journal_dir {
            Some(dir) => {
                match expire_terminal(dir, std::time::Duration::from_secs_f64(expire_secs)) {
                    Ok(outcome) => eprintln!(
                        "journal janitor: scanned {}, terminal {}, expired {}, failed {}",
                        outcome.scanned, outcome.terminal, outcome.expired, outcome.failed
                    ),
                    Err(err) => eprintln!("journal janitor failed: {err}"),
                }
            }
            None => eprintln!(
                "--journal-expire-secs needs a journal dir (--journal or ARTISAN_JOURNAL_DIR)"
            ),
        }
    }
}
