//! Emits `BENCH_sim.json`: machine-readable numbers for the simulation
//! engine — per-point assembly and solve throughput on the NMC example
//! (with the zero-allocation contract of a warmed sweep asserted
//! inline), the AC measurement's points solved one at a time and in
//! lanes (bit-identical, the warmed block loop allocation-free),
//! candidate-batch and scheduler session throughput per worker
//! count (each the median of nine alternating rounds, with its speedup
//! over one worker), and the cache, warm start, single-flight,
//! screening and journal contracts.
//!
//! Run with:
//!   `cargo run --release -p artisan-bench --bin bench_report [--reps 40] [--sessions 8] [--out BENCH_sim.json]`
//!
//! `--quick` cuts the repetition budget 4× for CI smoke runs. The
//! multithreaded speedups are only meaningful on a multi-core host, so
//! the report records the host's `available_parallelism` alongside.

// Experiment driver: aborting on a failed setup step is the idiom here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use artisan_bench::{arg_or, quick_mode, MeasureCase};
use artisan_circuit::sample::{mutate_netlist, sample_topology, SampleRanges};
use artisan_circuit::{Netlist, Topology};
use artisan_lint::Linter;
use artisan_math::lu::LANES;
use artisan_math::{Complex64, ThreadPool};
use artisan_resilience::{
    FaultPlan, FaultySim, JournalRecord, Scheduler, SessionJournal, Supervisor,
};
use artisan_sim::ac::SweepConfig;
use artisan_sim::cache::persist::{snapshot_dir_from_env, SNAPSHOT_FILE};
use artisan_sim::cost::CostModel;
use artisan_sim::fingerprint::config_salt;
use artisan_sim::mna::{MnaSystem, MnaWorkspace};
use artisan_sim::{
    AnalysisConfig, CachedSim, ScreenedSim, SimBackend, SimCache, SimError, Simulator, Spec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Heap-allocation counter behind the zero-allocation assertion on the
/// warmed dense sweep. Delegates straight to the system allocator;
/// the count is a relaxed side effect.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Times `routine` over `reps` repetitions and returns events/second,
/// where one repetition covers `events_per_rep` events.
fn rate<F: FnMut()>(reps: usize, events_per_rep: usize, mut routine: F) -> f64 {
    // Warm-up, not measured.
    routine();
    let start = Instant::now();
    for _ in 0..reps {
        routine();
    }
    let secs = start.elapsed().as_secs_f64();
    (reps * events_per_rep) as f64 / secs.max(1e-12)
}

/// The median of `values` (the upper middle one for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times every leg once per round over nine rounds and returns each
/// leg's median rate, so a slow spell of the host lands on every leg
/// alike instead of on whichever ran during it.
fn median_rounds<T>(legs: &[T], mut time: impl FnMut(&T) -> f64) -> Vec<f64> {
    let mut rounds = vec![Vec::with_capacity(9); legs.len()];
    for _ in 0..9 {
        for (leg, rates) in legs.iter().zip(&mut rounds) {
            rates.push(time(leg));
        }
    }
    rounds.into_iter().map(median).collect()
}

fn main() {
    let divisor = if quick_mode() { 4 } else { 1 };
    let reps: usize = (arg_or("--reps", 40usize) / divisor).max(1);
    let n_sessions: usize = arg_or("--sessions", 8usize);
    let out_path: String = arg_or("--out", "BENCH_sim.json".to_string());
    let snapshot_dir = snapshot_dir_from_env();

    let netlist = Topology::nmc_example().elaborate().expect("valid");
    let sys = MnaSystem::new(&netlist).expect("builds");
    let freqs = SweepConfig::default().frequencies().expect("grid");
    let n_points = freqs.len();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads_env = std::env::var(artisan_math::pool::THREADS_ENV).ok();

    // --- per-point assembly and solves over the default grid ---
    let asm_cached = rate(reps, n_points, || {
        for &f in &freqs {
            black_box(
                sys.assemble(Complex64::jomega(2.0 * PI * f))
                    .expect("assembles"),
            );
        }
    });
    let solve_cached = rate(reps, n_points, || {
        let mut ws = sys.workspace();
        for &f in &freqs {
            black_box(
                sys.transfer_with(Complex64::jomega(2.0 * PI * f), &mut ws)
                    .expect("solves"),
            );
        }
    });

    // Zero allocations on the warmed sweep: once a workspace exists, a
    // full pass over the grid through `transfer_with` and
    // `determinant_with` must not touch the heap.
    let hot_pass = |ws: &mut MnaWorkspace| {
        for &f in &freqs {
            let s = Complex64::jomega(2.0 * PI * f);
            black_box(sys.transfer_with(s, ws).expect("solves"));
            black_box(sys.determinant_with(s, ws).expect("factors"));
        }
    };
    let mut hot_ws = sys.workspace();
    hot_pass(&mut hot_ws);
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    hot_pass(&mut hot_ws);
    let hot_loop_allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(
        hot_loop_allocations, 0,
        "warmed dense sweep allocated {hot_loop_allocations} times"
    );

    // --- the AC measurement's points: one at a time vs in lanes ---
    // The grid points an AC measurement reads (through the first point
    // below unity) on the NMC example and a fixed dim-8 sampled
    // candidate, solved by the scalar LU a point at a time and by the
    // lane LU a block of LANES points at a time, as `ac::measure` does.
    // Every lane must carry the scalar solve's bits, and a warmed block
    // loop must not touch the heap. The legs alternate over nine rounds
    // and each reports its median rate.
    let measure_cases = MeasureCase::pair().expect("measure cases");
    let measure_reps = reps * 2;
    let mut block_hot_loop_allocations = 0;
    let measure_rows: Vec<String> = measure_cases
        .iter()
        .map(|case| {
            let mut ws = case.sys.workspace();
            let mut block_ws = case.sys.block_workspace();
            let bits = |h: Result<Complex64, SimError>| {
                let z = h.expect("a measured point solves");
                (z.re.to_bits(), z.im.to_bits())
            };
            let mut pointwise = Vec::with_capacity(case.points());
            case.solve_pointwise(&mut ws, |_, h| pointwise.push(bits(h)));
            let mut blocks = Vec::with_capacity(case.points());
            case.solve_blocks(&mut block_ws, |_, h| blocks.push(bits(h)));
            assert_eq!(
                blocks, pointwise,
                "{}: a lane lost the scalar solve's bits",
                case.name
            );
            let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
            case.solve_blocks(&mut block_ws, |_, h| {
                black_box(h).ok();
            });
            block_hot_loop_allocations += ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
            let medians = median_rounds(&[false, true], |&in_lanes| {
                if in_lanes {
                    rate(measure_reps, case.points(), || {
                        case.solve_blocks(&mut block_ws, |_, h| {
                            black_box(h).ok();
                        })
                    })
                } else {
                    rate(measure_reps, case.points(), || {
                        case.solve_pointwise(&mut ws, |_, h| {
                            black_box(h).ok();
                        })
                    })
                }
            });
            let (scalar, blocked) = (medians[0], medians[1]);
            format!(
                "      {{ \"system\": \"{}\", \"dim\": {}, \"points\": {}, \"scalar_points_per_sec\": {scalar:.1}, \"block_points_per_sec\": {blocked:.1}, \"speedup\": {:.3}, \"bits_identical\": true }}",
                case.name,
                case.sys.dim(),
                case.points(),
                blocked / scalar
            )
        })
        .collect();
    assert_eq!(
        block_hot_loop_allocations, 0,
        "warmed block loop allocated {block_hot_loop_allocations} times"
    );

    // --- scheduler batch and candidate batch, per worker count ---
    let worker_counts: Vec<usize> = {
        let mut w = vec![1, 2, 4, host_parallelism];
        w.sort_unstable();
        w.dedup();
        w
    };

    // Each row's worker counts alternate over nine rounds, as the
    // measure rows' legs do.
    let session_reps = (reps / 8).max(1);
    let schedulers: Vec<Scheduler> = worker_counts
        .iter()
        .map(|&workers| {
            Scheduler::with_pool(Supervisor::default(), ThreadPool::with_workers(workers))
        })
        .collect();
    let session_medians = median_rounds(&schedulers, |scheduler| {
        rate(session_reps, n_sessions, || {
            let backends: Vec<Simulator> = (0..n_sessions).map(|_| Simulator::new()).collect();
            let sessions = scheduler.run_batch(&Spec::g1(), backends, 2024);
            assert!(sessions.iter().all(|s| s.report.success));
            black_box(sessions);
        })
    });
    let scheduler_rates: Vec<(usize, f64)> =
        worker_counts.iter().copied().zip(session_medians).collect();

    // --- batched analyze_batch fan-out, per worker count ---
    // Distinct candidates, the sibling-scoring / optimizer-DoE shape:
    // the two recipe examples plus sampled random topologies.
    let batch_topos: Vec<Topology> = {
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = vec![Topology::nmc_example(), Topology::dfc_example()];
        t.extend((0..6).map(|_| sample_topology(&mut rng, &SampleRanges::default(), 10e-12)));
        t
    };
    let serial_reports: Vec<Option<artisan_sim::Performance>> = batch_topos
        .iter()
        .map(|t| {
            Simulator::new()
                .analyze_topology(t)
                .ok()
                .map(|r| r.performance)
        })
        .collect();
    let pools: Vec<ThreadPool> = worker_counts
        .iter()
        .map(|&workers| {
            let pool = ThreadPool::with_workers(workers);
            // Bit-identity guard: the fan-out must reproduce the serial
            // reports exactly before its throughput means anything.
            let check: Vec<Option<artisan_sim::Performance>> = Simulator::new()
                .analyze_batch_with_pool(&batch_topos, &pool)
                .into_iter()
                .map(|r| r.ok().map(|rep| rep.performance))
                .collect();
            assert_eq!(check, serial_reports, "batch diverged at {workers} workers");
            pool
        })
        .collect();
    let batch_medians = median_rounds(&pools, |pool| {
        rate(reps, batch_topos.len(), || {
            let mut sim = Simulator::new();
            black_box(sim.analyze_batch_with_pool(&batch_topos, pool));
        })
    });
    let batch_rates: Vec<(usize, f64)> = worker_counts.iter().copied().zip(batch_medians).collect();

    // --- content-addressed cache on a repeated-netlist workload ---
    // The same supervised G-1 session run n_sessions times: first
    // uncached (every analysis pays full testbed cost), then with one
    // shared cache (later sessions hit). Reports must be identical;
    // only the billed seconds drop.
    let supervisor = Supervisor::default();
    let session_perf = |report: &artisan_resilience::SessionReport| {
        report
            .outcome
            .as_ref()
            .and_then(|o| o.report.as_ref())
            .map(|r| r.performance)
    };
    let mut uncached_seconds = 0.0;
    let mut uncached_perfs = Vec::new();
    for _ in 0..n_sessions {
        let mut sim = Simulator::new();
        let report = supervisor.run(&Spec::g1(), &mut sim, 2024);
        assert!(report.success, "uncached cache-bench session failed");
        uncached_seconds += report.testbed_seconds;
        uncached_perfs.push(session_perf(&report));
    }
    let cache = SimCache::shared(4096);
    let mut cached_seconds = 0.0;
    let mut cached_perfs = Vec::new();
    let mut cached_hits = 0usize;
    for _ in 0..n_sessions {
        let mut sim = CachedSim::new(Simulator::new(), Arc::clone(&cache));
        let report = supervisor.run(&Spec::g1(), &mut sim, 2024);
        assert!(report.success, "cached cache-bench session failed");
        cached_seconds += report.testbed_seconds;
        cached_perfs.push(session_perf(&report));
        cached_hits += report.cache_hits;
    }
    assert_eq!(
        cached_perfs, uncached_perfs,
        "cache changed a session's reported design"
    );
    let cache_stats = cache.stats();
    assert!(cache_stats.hits > 0, "repeated workload never hit");
    assert!(
        cached_seconds < uncached_seconds,
        "cache did not reduce billed seconds"
    );
    assert_eq!(cached_hits as u64, cache_stats.hits);

    // --- persistent warm start: snapshot round-trip, second process ---
    // The same repeated workload, but the cache survives as a
    // versioned snapshot. One leg runs against a cache that may be
    // preloaded from `ARTISAN_SIM_CACHE_DIR` (the CI warm job's second
    // process starts here non-empty); the snapshot is then serialized,
    // reloaded in-process exactly as a new process would, and the
    // workload reruns on the loaded copy. Reports must be identical at
    // the binary level; only billing may change, and only downward.
    let persist_salt = config_salt(&AnalysisConfig::default());
    let run_workload = |cache: &Arc<SimCache>| {
        let mut seconds = 0.0;
        let mut perfs = Vec::new();
        let mut first_session_hits = 0usize;
        for s in 0..n_sessions {
            let mut sim =
                CachedSim::new(Simulator::new(), Arc::clone(cache)).with_salt(persist_salt);
            let report = supervisor.run(&Spec::g1(), &mut sim, 2024);
            assert!(report.success, "warm-start bench session failed");
            seconds += report.testbed_seconds;
            perfs.push(session_perf(&report));
            if s == 0 {
                first_session_hits = report.cache_hits;
            }
        }
        (seconds, perfs, first_session_hits)
    };
    let (env_cache, preload) = match &snapshot_dir {
        Some(dir) => SimCache::load_from(&dir.join(SNAPSHOT_FILE), 4096, persist_salt),
        None => (SimCache::new(4096), Default::default()),
    };
    let env_cache = Arc::new(env_cache);
    if let Some(warning) = &preload.warning {
        eprintln!("snapshot preload warning: {warning}");
    }
    let preloaded_entries = preload.entries_loaded;
    let (cold_seconds, cold_perfs, cold_first_hits) = run_workload(&env_cache);
    assert_eq!(
        cold_perfs, uncached_perfs,
        "warm-start workload diverged from the uncached reference"
    );
    if preloaded_entries > 0 {
        // A process warm-started from disk must hit from session one.
        assert!(
            cold_first_hits > 0,
            "preloaded {preloaded_entries} entries but the first session never hit"
        );
    }
    let snapshot = env_cache.snapshot_bytes(persist_salt);
    let (loaded, load_outcome) = SimCache::from_snapshot_bytes(&snapshot, 4096, persist_salt);
    assert!(
        load_outcome.warning.is_none(),
        "snapshot rejected: {:?}",
        load_outcome.warning
    );
    assert_eq!(load_outcome.entries_loaded, env_cache.len());
    assert_eq!(
        loaded.snapshot_bytes(persist_salt),
        snapshot,
        "save → load → save is not a byte-level fixed point"
    );
    let warm_cache = Arc::new(loaded);
    let (warm_seconds, warm_perfs, warm_first_hits) = run_workload(&warm_cache);
    assert_eq!(
        warm_perfs, cold_perfs,
        "snapshot warm start changed a session's reported design"
    );
    assert!(
        warm_first_hits > 0,
        "snapshot-loaded cache never hit in session one"
    );
    let warm_stats = warm_cache.stats();
    let warm_hit_rate = warm_stats.hit_rate();
    assert!(
        warm_hit_rate >= 0.875,
        "warm hit rate {warm_hit_rate:.3} below 0.875: {warm_stats}"
    );
    if preloaded_entries == 0 {
        // A genuinely cold first leg pays for every first simulation;
        // the warm leg must bill strictly less.
        assert!(
            warm_seconds < cold_seconds,
            "warm {warm_seconds} !< cold {cold_seconds}"
        );
    } else {
        assert!(
            warm_seconds <= cold_seconds + 1e-9,
            "warm {warm_seconds} > preloaded cold {cold_seconds}"
        );
    }

    // Persist for the next process and drop a stats artifact next to
    // the snapshot when the env directory is configured.
    if let Some(dir) = &snapshot_dir {
        let saved = env_cache
            .save_to(&dir.join(SNAPSHOT_FILE), persist_salt)
            .expect("snapshot save failed");
        eprintln!(
            "saved {} cache entries ({} bytes) to {}",
            saved.entries_saved,
            saved.bytes,
            dir.display()
        );
        let env_stats = env_cache.stats();
        let stats_json = format!(
            "{{\n  \"preloaded_entries\": {preloaded_entries},\n  \"entries_saved\": {},\n  \"snapshot_bytes\": {},\n  \"hits\": {},\n  \"misses\": {},\n  \"coalesced\": {},\n  \"hit_rate\": {:.3}\n}}\n",
            saved.entries_saved,
            saved.bytes,
            env_stats.hits,
            env_stats.misses,
            env_stats.coalesced,
            env_stats.hit_rate(),
        );
        std::fs::write(dir.join("cache_stats.json"), stats_json).expect("writes cache stats");
    }

    // --- single-flight: concurrent misses on one fingerprint ---
    // N threads race the same topology against one empty shared cache.
    // Whatever the interleaving, exactly one inner simulation runs (the
    // single miss); every other thread is served by the in-flight cell
    // (coalesced) or by the cache it filled (hit).
    let sf_threads = 4usize;
    let sf_cache = SimCache::shared(64);
    let sf_topo = Topology::nmc_example();
    let sf_reports: Vec<artisan_sim::Performance> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sf_threads)
            .map(|_| {
                let cache = Arc::clone(&sf_cache);
                let topo = &sf_topo;
                scope.spawn(move || {
                    let mut sim = CachedSim::new(Simulator::new(), cache);
                    sim.analyze_topology(topo).expect("analyzes").performance
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("single-flight thread panicked"))
            .collect()
    });
    assert!(
        sf_reports.windows(2).all(|w| w[0] == w[1]),
        "racing threads disagreed on the report"
    );
    let sf_stats = sf_cache.stats();
    assert_eq!(
        sf_stats.misses, 1,
        "more than one inner simulation ran: {sf_stats}"
    );
    assert_eq!(
        sf_stats.hits + sf_stats.coalesced,
        (sf_threads - 1) as u64,
        "served count off: {sf_stats}"
    );

    // --- ERC screening: doomed candidates at screen cost, not sim cost ---
    // A mixed candidate corpus, the join-phase shape: the legal recipe
    // examples and sampled legal topologies, each base followed by
    // randomly mutated (often structurally broken) neighbours, plus two
    // hand-written doomed netlists (a reference-free island and a
    // severed signal path) the screen is guaranteed to catch. The same
    // corpus runs through the bare simulator and through the screened
    // stack; every surviving report must be identical, and the billed
    // testbed seconds must come out strictly lower.
    let screen_corpus: Vec<Netlist> = {
        let mut rng = StdRng::seed_from_u64(11);
        let ranges = SampleRanges::default();
        let mut legal: Vec<Netlist> = vec![
            Topology::nmc_example().elaborate().expect("valid"),
            Topology::dfc_example().elaborate().expect("valid"),
        ];
        legal.extend((0..6).map(|_| {
            sample_topology(&mut rng, &ranges, 10e-12)
                .elaborate()
                .expect("legal sample elaborates")
        }));
        let mut corpus = Vec::new();
        for base in &legal {
            corpus.push(base.clone());
            for _ in 0..3 {
                corpus.push(mutate_netlist(&mut rng, base));
            }
        }
        corpus.push(
            Netlist::parse(
                "* island\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nC2 n1 n2 1p\nCL out 0 10p\n.end\n",
            )
            .expect("island netlist parses"),
        );
        corpus.push(
            Netlist::parse(
                "* severed\nR1 in 0 1k\nG1 out 0 n1 0 1m\nR2 out 0 1k\nR3 n1 0 1k\nCL out 0 10p\n.end\n",
            )
            .expect("severed netlist parses"),
        );
        corpus
    };

    let linter = Linter::errors_only();
    let lint_rate = rate(reps, screen_corpus.len(), || {
        for n in &screen_corpus {
            black_box(linter.lint(n));
        }
    });

    let cost_model = CostModel::default();
    let mut bare_sim = Simulator::new();
    let bare_decisions: Vec<Option<artisan_sim::Performance>> = screen_corpus
        .iter()
        .map(|n| bare_sim.analyze_netlist(n).ok().map(|r| r.performance))
        .collect();
    let unscreened_seconds = bare_sim.ledger().testbed_seconds(&cost_model);

    let verdict_cache = SimCache::shared(4096);
    let mut screened_sim = ScreenedSim::new(Simulator::new()).with_cache(verdict_cache);
    let screened_decisions: Vec<Option<artisan_sim::Performance>> = screen_corpus
        .iter()
        .map(|n| screened_sim.analyze_netlist(n).ok().map(|r| r.performance))
        .collect();
    let screened_seconds = screened_sim.ledger().testbed_seconds(&cost_model);
    assert_eq!(
        screened_decisions, bare_decisions,
        "screening changed a surviving report"
    );
    let screened_out = screened_sim.screened_out();
    assert!(
        screened_out >= 2,
        "the hand-written doomed candidates were not screened"
    );
    assert!(
        screened_seconds < unscreened_seconds,
        "screening did not reduce billed seconds: {screened_seconds} !< {unscreened_seconds}"
    );
    let screened_out_rate = screened_out as f64 / screen_corpus.len() as f64;

    // --- durable session journals: append overhead + crash resume ---
    // The same batch of flaky supervised sessions three ways: detached
    // (no journal, the reference), journaled from scratch (measures the
    // write-ahead append overhead), and journaled again after one
    // session's journal is cut back to its first attempt record — the
    // exact on-disk state a crash mid-session leaves behind (every
    // append is an atomic whole-file rewrite, so a crash always leaves
    // a clean record prefix). The resumed leg must reproduce every
    // report field-for-field while billing strictly fewer fresh testbed
    // seconds than the clean leg.
    let journal_dir =
        std::env::temp_dir().join(format!("artisan-bench-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&journal_dir).ok();
    std::fs::create_dir_all(&journal_dir).expect("journal dir");
    let j_sessions = n_sessions.clamp(2, 4);
    let j_scheduler = Scheduler::with_pool(Supervisor::default(), ThreadPool::with_workers(2));
    let j_backends = || -> Vec<FaultySim<Simulator>> {
        (0..j_sessions)
            .map(|k| FaultySim::new(Simulator::new(), FaultPlan::flaky(1000 + k as u64, 0.3)))
            .collect()
    };
    let t_plain = Instant::now();
    let j_plain = j_scheduler.run_batch(&Spec::g1(), j_backends(), 4242);
    let plain_wall = t_plain.elapsed().as_secs_f64();
    let clean_billed: f64 = j_plain
        .iter()
        .map(|s| s.backend.ledger().testbed_seconds(&cost_model))
        .sum();
    let t_journaled = Instant::now();
    let j_first = j_scheduler.run_batch_journaled(&Spec::g1(), j_backends(), 4242, &journal_dir, 0);
    let journaled_wall = t_journaled.elapsed().as_secs_f64();
    for (k, w) in j_first.warnings() {
        eprintln!("journal warning (session {k}): {w}");
    }
    for (a, b) in j_first.sessions.iter().zip(&j_plain) {
        assert_eq!(
            a.report, b.report,
            "journaling changed session {}",
            a.session
        );
    }
    let journal_appends: u64 = j_first.journals.iter().map(|j| j.appends).sum();
    let journal_bytes: u64 = j_first.journals.iter().map(|j| j.bytes_written).sum();
    let journal_attempts: usize = j_first.sessions.iter().map(|s| s.report.attempts).sum();
    let append_overhead_secs =
        (journaled_wall - plain_wall).max(0.0) / (journal_appends.max(1) as f64);

    // Crash the session with the most attempts: keep only its first
    // attempt record (public-API rewrite, same bytes a mid-run kill
    // leaves), so the resume leg both restores attempts and re-runs a
    // genuine tail.
    let victim = j_first
        .sessions
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.report.attempts)
        .map(|(k, _)| k)
        .expect("batch is non-empty");
    let victim_path = j_first.journals[victim].path.clone();
    let victim_seed = j_first.sessions[victim].seed;
    let (full, full_load) =
        SessionJournal::open(&victim_path, j_first.plan_fingerprint, victim_seed);
    assert!(
        full_load.terminal,
        "finished session's journal lost its verdict"
    );
    let kept = full
        .attempt_records()
        .next()
        .expect("finished session journaled at least one attempt")
        .clone();
    std::fs::remove_file(&victim_path).expect("removes victim journal");
    let (mut cut, _) = SessionJournal::open(&victim_path, j_first.plan_fingerprint, victim_seed);
    cut.append(JournalRecord::Attempt(kept))
        .expect("rewrites the crash-state journal");

    let j_resumed =
        j_scheduler.run_batch_journaled(&Spec::g1(), j_backends(), 4242, &journal_dir, 0);
    for (k, w) in j_resumed.warnings() {
        eprintln!("journal warning (resume, session {k}): {w}");
    }
    assert!(
        j_resumed.warnings().is_empty(),
        "resume leg rejected a journal"
    );
    for (a, b) in j_resumed.sessions.iter().zip(&j_plain) {
        assert_eq!(
            a.report, b.report,
            "resumed session {} diverged from the clean reference",
            a.session
        );
    }
    assert_eq!(
        j_resumed.resumed_terminal(),
        j_sessions - 1,
        "only the crashed session should re-run"
    );
    let attempts_restored = j_resumed.attempts_restored();
    assert!(attempts_restored >= 1, "resume restored no attempts");
    let resumed_billed: f64 = j_resumed
        .sessions
        .iter()
        .map(|s| s.backend.ledger().testbed_seconds(&cost_model))
        .sum();
    assert!(
        resumed_billed < clean_billed,
        "resume was not cheaper: {resumed_billed} !< {clean_billed}"
    );
    std::fs::remove_dir_all(&journal_dir).ok();

    let fmt_scaling = |rates: &[(usize, f64)], unit: &str| -> String {
        let base = rates.iter().find(|(w, _)| *w == 1).map_or(1.0, |&(_, r)| r);
        rates
            .iter()
            .map(|&(w, r)| {
                format!(
                    "    {{ \"workers\": {w}, \"{unit}\": {r:.1}, \"speedup_vs_1_thread\": {:.3} }}",
                    r / base
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };

    let json = format!(
        "{{\n  \"bench\": \"parallel simulation engine (NMC example, default sweep grid)\",\n  \"host\": {{ \"available_parallelism\": {host_parallelism}, \"artisan_threads_env\": {} }},\n  \"sweep_points\": {n_points},\n  \"reps\": {reps},\n  \"assembly\": {{\n    \"cached_points_per_sec\": {asm_cached:.1}\n  }},\n  \"solve\": {{\n    \"cached_workspace_points_per_sec\": {solve_cached:.1},\n    \"hot_loop_allocations\": {hot_loop_allocations}\n  }},\n  \"measure\": {{\n    \"lanes\": {LANES},\n    \"block_hot_loop_allocations\": {block_hot_loop_allocations},\n    \"systems\": [\n{}\n    ]\n  }},\n  \"batch_candidates\": {},\n  \"batch_threads\": [\n{}\n  ],\n  \"scheduler_sessions\": {n_sessions},\n  \"scheduler_threads\": [\n{}\n  ],\n  \"sim_cache\": {{\n    \"workload\": \"{n_sessions} identical supervised G-1 sessions, one shared cache\",\n    \"billed_testbed_seconds_uncached\": {uncached_seconds:.1},\n    \"billed_testbed_seconds_cached\": {cached_seconds:.1},\n    \"billed_seconds_saved\": {:.1},\n    \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {:.3},\n    \"reports_identical\": true\n  }},\n  \"warm_start\": {{\n    \"preloaded_entries\": {preloaded_entries},\n    \"snapshot_entries\": {},\n    \"snapshot_bytes\": {},\n    \"round_trip_identical\": true,\n    \"billed_testbed_seconds_cold\": {cold_seconds:.1},\n    \"billed_testbed_seconds_warm\": {warm_seconds:.1},\n    \"warm_hit_rate\": {warm_hit_rate:.3},\n    \"reports_identical\": true\n  }},\n  \"single_flight\": {{\n    \"threads\": {sf_threads},\n    \"inner_simulations\": {},\n    \"served_without_simulating\": {}\n  }},\n  \"journal\": {{\n    \"workload\": \"{j_sessions} flaky supervised G-1 sessions, crash-cut to one attempt then resumed\",\n    \"sessions\": {j_sessions},\n    \"attempts\": {journal_attempts},\n    \"appends\": {journal_appends},\n    \"bytes_per_append\": {:.1},\n    \"append_overhead_seconds_per_append\": {append_overhead_secs:.6},\n    \"billed_testbed_seconds_clean\": {clean_billed:.1},\n    \"billed_testbed_seconds_resumed\": {resumed_billed:.1},\n    \"attempts_restored\": {attempts_restored},\n    \"resumed_terminal\": {},\n    \"resume_strictly_cheaper\": true,\n    \"reports_identical\": true\n  }},\n  \"screening\": {{\n    \"corpus_netlists\": {},\n    \"lint_throughput_netlists_per_sec\": {lint_rate:.1},\n    \"screened_out\": {screened_out},\n    \"screened_out_rate\": {screened_out_rate:.3},\n    \"billed_testbed_seconds_unscreened\": {unscreened_seconds:.1},\n    \"billed_testbed_seconds_screened\": {screened_seconds:.1},\n    \"billed_seconds_saved\": {:.1},\n    \"surviving_reports_identical\": true\n  }}\n}}\n",
        threads_env.map_or("null".to_string(), |v| format!("\"{v}\"")),
        measure_rows.join(",\n"),
        batch_topos.len(),
        fmt_scaling(&batch_rates, "batched_analyses_per_sec"),
        fmt_scaling(&scheduler_rates, "sessions_per_sec"),
        uncached_seconds - cached_seconds,
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate(),
        load_outcome.entries_loaded,
        snapshot.len(),
        sf_stats.misses,
        sf_stats.hits + sf_stats.coalesced,
        journal_bytes as f64 / journal_appends.max(1) as f64,
        j_resumed.resumed_terminal(),
        screen_corpus.len(),
        unscreened_seconds - screened_seconds,
    );

    std::fs::write(&out_path, &json).expect("writes report");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
