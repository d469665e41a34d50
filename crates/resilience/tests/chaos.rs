//! Chaos suite: supervised sessions under randomized fault plans.
//!
//! Each property samples a fault plan and runs a full supervised design
//! session against it. The invariants are the crate's contract:
//!
//! 1. the session never panics (any panic fails the test),
//! 2. it stops within its budget (pre-flight enforcement),
//! 3. `success` and `degraded` are truthful — `success` implies a
//!    finite, stable, spec-clearing report; `degraded` implies a
//!    best-so-far outcome without success,
//! 4. a NaN/∞-poisoned backend can never produce `success = true`.
//!
//! Case count follows `PROPTEST_CASES` (default 256); the CI `chaos`
//! job raises it and sweeps `CHAOS_SEED_OFFSET` so each matrix leg
//! exercises a disjoint window of fault-plan seeds.

use artisan_resilience::{FaultPlan, FaultySim, RetryPolicy, SessionBudget, Supervisor};
use artisan_sim::{CachedSim, SimCache, Simulator, Spec};
use proptest::prelude::*;

/// Shifts every sampled seed by a per-CI-leg window.
fn offset(seed: u64) -> u64 {
    let leg: u64 = std::env::var("CHAOS_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    seed.wrapping_add(leg.wrapping_mul(1_000_000_007))
}

fn supervisor() -> Supervisor {
    Supervisor::new(
        RetryPolicy {
            max_attempts: 3,
            backoff_base_seconds: 30.0,
            backoff_factor: 2.0,
        },
        SessionBudget {
            max_simulations: 24,
            max_llm_steps: 120,
            max_testbed_seconds: 7200.0,
        },
    )
}

proptest! {
    #[test]
    fn chaos_sessions_respect_budget_and_report_truthfully(
        seed in 0u64..1_000_000,
        error_rate in 0.0f64..0.6,
        nan_rate in 0.0f64..0.6,
        latency_rate in 0.0f64..0.5,
    ) {
        let seed = offset(seed);
        let plan = FaultPlan {
            seed,
            error_rate,
            nan_rate,
            latency_rate,
            latency_seconds: 15.0,
            persistent_from: None,
        };
        let mut sim = FaultySim::new(Simulator::new(), plan);
        let sup = supervisor();
        let report = sup.run(&Spec::g1(), &mut sim, seed);

        // (2) budget: the pre-flight projection makes these hard caps.
        prop_assert!(report.simulations <= sup.budget.max_simulations);
        prop_assert!(report.llm_steps <= sup.budget.max_llm_steps);
        prop_assert!(report.attempts <= sup.retry.max_attempts);

        // (3) truthfulness.
        prop_assert!(!(report.success && report.degraded));
        if report.success {
            let validated = report.outcome.as_ref().and_then(|o| o.report.as_ref());
            prop_assert!(validated.is_some());
            if let Some(r) = validated {
                prop_assert!(r.performance.is_finite());
                prop_assert!(r.stable);
                prop_assert!(Spec::g1().check(&r.performance).success());
            }
        }
        if report.degraded {
            prop_assert!(report.outcome.is_some());
        }
        // A kept report is always sanitized, success or not.
        if let Some(r) = report.outcome.as_ref().and_then(|o| o.report.as_ref()) {
            prop_assert!(r.performance.is_finite());
        }
    }

    /// (4) the adversarial case: every report poisoned to +∞/NaN.
    #[test]
    fn poisoned_sessions_never_report_success(seed in 0u64..1_000_000) {
        let seed = offset(seed);
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::poisoned(seed));
        let report = supervisor().run(&Spec::g1(), &mut sim, seed);
        prop_assert!(!report.success, "poisoned session claimed success: {report}");
        if let Some(r) = report.outcome.as_ref().and_then(|o| o.report.as_ref()) {
            prop_assert!(r.performance.is_finite(), "poisoned report leaked: {}", r.performance);
        }
    }

    /// Persistent outages: the session must stop on retries or budget,
    /// never loop, and never claim success once the outage starts at
    /// call zero.
    #[test]
    fn outage_sessions_stop_cleanly(seed in 0u64..1_000_000, from in 0u64..6) {
        let seed = offset(seed);
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::outage_from(seed, from));
        let sup = supervisor();
        let report = sup.run(&Spec::g1(), &mut sim, seed);
        prop_assert!(report.simulations <= sup.budget.max_simulations);
        prop_assert!(report.llm_steps <= sup.budget.max_llm_steps);
        prop_assert!(report.attempts <= sup.retry.max_attempts);
        if from == 0 {
            prop_assert!(!report.success, "no call ever succeeded, yet: {report}");
        }
    }

    /// Sessions are pure functions of their seeds: identical plan +
    /// session seed replays to the identical report.
    #[test]
    fn chaos_sessions_replay_exactly(seed in 0u64..1_000_000, rate in 0.0f64..0.5) {
        let seed = offset(seed);
        let run = || {
            let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(seed, rate));
            supervisor().run(&Spec::g1(), &mut sim, seed)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.success, b.success);
        prop_assert_eq!(a.degraded, b.degraded);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(a.faults_observed, b.faults_observed);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.testbed_seconds, b.testbed_seconds);
    }

    /// The supported cache stacking — `FaultySim<CachedSim<B>>` — keeps
    /// sessions exact-replayable: the fault dice roll *above* the
    /// cache, so hits below never shift the schedule, and with a fresh
    /// per-run cache the hit/miss ledger split is itself a pure
    /// function of the seed. The cached session must also walk the same
    /// event trace as the uncached one.
    #[test]
    fn cached_chaos_sessions_replay_exactly(seed in 0u64..1_000_000, rate in 0.0f64..0.5) {
        let seed = offset(seed);
        let run = || {
            let mut sim = FaultySim::new(
                CachedSim::new(Simulator::new(), SimCache::shared(256)),
                FaultPlan::flaky(seed, rate),
            );
            supervisor().run(&Spec::g1(), &mut sim, seed)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.success, b.success);
        prop_assert_eq!(a.degraded, b.degraded);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(a.faults_observed, b.faults_observed);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        prop_assert_eq!(a.testbed_seconds, b.testbed_seconds);
        // Same fault schedule and decisions as the uncached session;
        // only the billed seconds may differ (hits bill retrieval).
        let mut plain = FaultySim::new(Simulator::new(), FaultPlan::flaky(seed, rate));
        let reference = supervisor().run(&Spec::g1(), &mut plain, seed);
        prop_assert_eq!(a.success, reference.success);
        prop_assert_eq!(a.attempts, reference.attempts);
        prop_assert_eq!(a.faults_observed, reference.faults_observed);
        prop_assert_eq!(&a.events, &reference.events);
    }

    /// The full production stack — `FaultySim<CornerSim<CachedSim<B>>>`,
    /// faults outermost, corners outside the report cache — keeps chaos
    /// sessions exact-replayable: `CornerSim` makes exactly one inner
    /// call per outer call, so the fault dice advance identically and
    /// the whole session is a pure function of its seeds.
    #[test]
    fn cornered_chaos_sessions_replay_exactly(seed in 0u64..1_000_000, rate in 0.0f64..0.5) {
        use artisan_sim::{CornerGrid, CornerSim};
        let seed = offset(seed);
        let run = || {
            let mut sim = FaultySim::new(
                CornerSim::new(
                    CachedSim::new(Simulator::new(), SimCache::shared(256)),
                    CornerGrid::default(),
                ),
                FaultPlan::flaky(seed, rate),
            );
            let report = supervisor().run(&Spec::g1(), &mut sim, seed);
            (report, *artisan_sim::SimBackend::ledger(&sim))
        };
        let ((a, la), (b, lb)) = (run(), run());
        prop_assert_eq!(a.success, b.success);
        prop_assert_eq!(a.degraded, b.degraded);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(a.faults_observed, b.faults_observed);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        prop_assert_eq!(a.testbed_seconds, b.testbed_seconds);
        prop_assert_eq!(la, lb);
    }

    /// A nominal-only corner grid in the full stack is observationally
    /// inert under chaos: the session walks the same event trace with
    /// the same outcomes and fault schedule as the plain
    /// `FaultySim<CachedSim<B>>` stack, and every billed second is
    /// conserved — the ledgers differ *only* in the corner-sim and
    /// verdict-cache-hit accounts, so the testbed-time delta equals
    /// exactly what the corner layer billed.
    #[test]
    fn nominal_cornered_stack_matches_plain_and_conserves_billing(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.5,
    ) {
        use artisan_sim::cost::CostModel;
        use artisan_sim::{CornerGrid, CornerSim, SimBackend};
        let seed = offset(seed);
        let mut cornered = FaultySim::new(
            CornerSim::new(
                CachedSim::new(Simulator::new(), SimCache::shared(256)),
                CornerGrid::nominal(),
            ),
            FaultPlan::flaky(seed, rate),
        );
        let with_corners = supervisor().run(&Spec::g1(), &mut cornered, seed);
        let mut plain = FaultySim::new(
            CachedSim::new(Simulator::new(), SimCache::shared(256)),
            FaultPlan::flaky(seed, rate),
        );
        let without = supervisor().run(&Spec::g1(), &mut plain, seed);

        // Non-corner observables are untouched.
        prop_assert_eq!(with_corners.success, without.success);
        prop_assert_eq!(with_corners.degraded, without.degraded);
        prop_assert_eq!(with_corners.attempts, without.attempts);
        prop_assert_eq!(with_corners.faults_observed, without.faults_observed);
        prop_assert_eq!(&with_corners.events, &without.events);

        // Every non-corner ledger account matches call for call; the
        // corner layer may only *add* corner sims and verdict-cache
        // hits, and the billed-time delta is exactly their price.
        let (lc, lp) = (SimBackend::ledger(&cornered), SimBackend::ledger(&plain));
        prop_assert_eq!(lc.simulations(), lp.simulations());
        prop_assert_eq!(lc.llm_steps(), lp.llm_steps());
        prop_assert_eq!(lc.penalty_seconds(), lp.penalty_seconds());
        prop_assert!(lc.cache_hits() >= lp.cache_hits());
        let model = CostModel::default();
        let expected = lc.corner_sims() as f64 * model.seconds_per_corner_sim
            + (lc.cache_hits() - lp.cache_hits()) as f64 * model.seconds_per_cache_hit;
        let delta = lc.testbed_seconds(&model) - lp.testbed_seconds(&model);
        prop_assert!(
            (delta - expected).abs() < 1e-9,
            "billed seconds not conserved: delta {} expected {}", delta, expected
        );
    }

    /// Persistence keeps chaos sessions exact: a session warm-started
    /// from a snapshot of a prior identical session's cache walks the
    /// same event trace with the same outcomes, observes the same
    /// faults (the dice roll above the cache), and bills no more
    /// testbed time than the cold run — the snapshot round-trip can
    /// change billing only in the cheaper direction.
    #[test]
    fn snapshot_warm_started_chaos_sessions_stay_exact(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.5,
        salt in 0u64..1_000,
    ) {
        let seed = offset(seed);
        let run = |cache: std::sync::Arc<SimCache>| {
            let mut sim = FaultySim::new(
                CachedSim::new(Simulator::new(), cache),
                FaultPlan::flaky(seed, rate),
            );
            supervisor().run(&Spec::g1(), &mut sim, seed)
        };
        let cold_cache = SimCache::shared(256);
        let cold = run(std::sync::Arc::clone(&cold_cache));
        // Snapshot → bytes → fresh cache, as a second process would.
        let bytes = cold_cache.snapshot_bytes(salt);
        let (warm_cache, outcome) = SimCache::from_snapshot_bytes(&bytes, 256, salt);
        prop_assert!(outcome.warning.is_none(), "{:?}", outcome.warning);
        prop_assert_eq!(outcome.entries_loaded, cold_cache.len());
        let warm = run(std::sync::Arc::new(warm_cache));
        prop_assert_eq!(cold.success, warm.success);
        prop_assert_eq!(cold.degraded, warm.degraded);
        prop_assert_eq!(cold.attempts, warm.attempts);
        prop_assert_eq!(cold.faults_observed, warm.faults_observed);
        prop_assert_eq!(&cold.events, &warm.events);
        // Warm start can only convert simulations into hits.
        prop_assert!(warm.simulations <= cold.simulations);
        prop_assert!(warm.cache_hits >= cold.cache_hits);
        prop_assert!(warm.testbed_seconds <= cold.testbed_seconds + 1e-9,
            "warm {} > cold {}", warm.testbed_seconds, cold.testbed_seconds);
    }
}
