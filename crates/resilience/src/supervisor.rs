//! Supervised design sessions: retry, backoff, budget, degradation.
//!
//! A [`Supervisor`] runs [`ArtisanAgent::design`] attempts against any
//! [`SimBackend`] until one validates, the [`RetryPolicy`] is spent, or
//! the [`SessionBudget`] cannot worst-case afford another attempt. The
//! result is a [`SessionReport`]: a structured record of what happened
//! (attempts, observed faults, backoff, budget stops) plus the best
//! outcome seen.
//!
//! Two invariants the chaos suite leans on:
//!
//! - **Budgets are pre-flight enforced.** Before each attempt the
//!   supervisor projects the attempt's *worst-case* cost from the
//!   agent's configuration; an attempt that could overrun the
//!   simulation or LLM-step budget never starts, so the final ledger
//!   never exceeds those caps.
//! - **Success is independently validated.** The supervisor re-checks
//!   the best outcome itself — report present, metrics finite, spec
//!   satisfied, stable — so a NaN/∞-poisoned report can never be
//!   reported as `success = true` no matter what the agent concluded.
//!
//! Backoff is billed to the cost ledger as testbed-equivalent penalty
//! seconds rather than slept on the wall clock: a supervised session is
//! a deterministic function of its seeds, and replaying it (or running
//! thousands of them in a chaos sweep) costs no real time.

use crate::journal::{AttemptRecord, JournalRecord, SessionJournal};
use artisan_agents::{AgentConfig, ArtisanAgent, DesignOutcome};
use artisan_sim::cost::CostModel;
use artisan_sim::{SimBackend, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// When and how hard to retry a failed design attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum design attempts per session (≥ 1).
    pub max_attempts: usize,
    /// Testbed seconds billed before the second attempt.
    pub backoff_base_seconds: f64,
    /// Multiplier applied to the backoff after each further attempt.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_seconds: 30.0,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff billed after `failed_attempts` attempts have failed
    /// (exponential: base · factor^(failed_attempts − 1)).
    pub fn backoff_seconds(&self, failed_attempts: usize) -> f64 {
        if failed_attempts == 0 {
            return 0.0;
        }
        self.backoff_base_seconds * self.backoff_factor.powi(failed_attempts as i32 - 1)
    }
}

/// Hard caps on what one supervised session may consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionBudget {
    /// Maximum billed simulations.
    pub max_simulations: usize,
    /// Maximum billed LLM exchanges.
    pub max_llm_steps: usize,
    /// Maximum testbed-equivalent seconds (simulations + LLM steps +
    /// penalties, under the supervisor's cost model).
    pub max_testbed_seconds: f64,
}

impl Default for SessionBudget {
    /// Roomy enough for [`RetryPolicy::default`]'s three noiseless
    /// attempts: ~1 h of testbed time.
    fn default() -> Self {
        SessionBudget {
            max_simulations: 48,
            max_llm_steps: 160,
            max_testbed_seconds: 3600.0,
        }
    }
}

/// One entry in the session's event log.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// An attempt began.
    AttemptStarted {
        /// 1-based attempt number.
        attempt: usize,
    },
    /// An attempt finished.
    AttemptFinished {
        /// 1-based attempt number.
        attempt: usize,
        /// Whether the attempt's outcome passed independent validation.
        validated: bool,
    },
    /// A fault note drained from the backend during the attempt.
    FaultObserved {
        /// The backend's note text.
        note: String,
    },
    /// Backoff billed before the next attempt.
    Backoff {
        /// Attempt that just failed.
        after_attempt: usize,
        /// Testbed seconds billed.
        seconds: f64,
    },
    /// The session stopped because the budget could not worst-case
    /// afford the next attempt.
    BudgetExhausted {
        /// Which cap stopped it.
        reason: String,
    },
}

/// The structured record of one supervised session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Whether the best outcome passed independent validation (finite
    /// metrics, every spec constraint, stable).
    pub success: bool,
    /// True when the session delivers a best-so-far result *without*
    /// success: the retry/budget envelope was exhausted and the caller
    /// is getting the least-bad design, not a validated one.
    pub degraded: bool,
    /// Design attempts actually run.
    pub attempts: usize,
    /// Faults observed across all attempts (backend notes).
    pub faults_observed: usize,
    /// The event log, in order.
    pub events: Vec<SessionEvent>,
    /// The best design outcome seen (None only when no attempt ran or
    /// every attempt died without a report).
    pub outcome: Option<DesignOutcome>,
    /// Billed simulations at session end.
    pub simulations: usize,
    /// Billed LLM exchanges at session end.
    pub llm_steps: usize,
    /// Simulation-cache hits at session end (analyses served from a
    /// `CachedSim` at retrieval cost instead of full testbed seconds).
    pub cache_hits: usize,
    /// Single-flight coalesced waits at session end: analyses this
    /// session received from another session's in-flight computation
    /// (informational; each is also billed in
    /// [`SessionReport::cache_hits`]).
    pub coalesced_waits: usize,
    /// Analyses that went through a batched `analyze_batch` fan-out at
    /// session end (informational; each is still billed as one sim).
    pub batched_solves: usize,
    /// Testbed-equivalent seconds at session end (includes backoff and
    /// injected-latency penalties).
    pub testbed_seconds: f64,
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session: {} in {} attempt(s), {} fault(s) observed, {} sims, {} LLM steps, {:.1}s testbed",
            if self.success {
                "success"
            } else if self.degraded {
                "degraded"
            } else {
                "failed"
            },
            self.attempts,
            self.faults_observed,
            self.simulations,
            self.llm_steps,
            self.testbed_seconds,
        )?;
        if self.cache_hits > 0 {
            write!(f, ", {} cache hit(s)", self.cache_hits)?;
        }
        if self.coalesced_waits > 0 {
            write!(f, ", {} coalesced wait(s)", self.coalesced_waits)?;
        }
        if self.batched_solves > 0 {
            write!(f, ", {} batched solve(s)", self.batched_solves)?;
        }
        Ok(())
    }
}

/// Runs design sessions under retry and budget control; the default
/// uses the default policies, budget and cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Supervisor {
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Session budget.
    pub budget: SessionBudget,
    /// Cost model used to project and report testbed seconds.
    pub cost_model: CostModel,
}

/// Worst-case cost of one design attempt under `config`: every
/// iteration re-simulates through the full retry budget, and every
/// iteration spends its 8 CoT exchanges plus the feedback exchange on
/// top of Q0. Sibling-scored architecture selection additionally
/// batch-simulates its two candidates once per attempt.
fn worst_case_attempt(config: &AgentConfig) -> (usize, usize) {
    let iterations = config.max_iterations + 1;
    let scoring_sims = if config.score_architectures { 2 } else { 0 };
    let sims = iterations * (1 + config.sim_retries) + scoring_sims;
    let llm_steps = 1 + iterations * 9;
    (sims, llm_steps)
}

/// Independent validation: the supervisor trusts the simulator's
/// numbers, not the agent's flag. When the backend attached a PVT
/// corner verdict (a `CornerSim` in the stack), nominal success is not
/// enough — the worst corner must also exist, be finite, and clear the
/// spec, so supervised sessions sign off on worst-case designs.
fn validate(spec: &Spec, outcome: &DesignOutcome) -> bool {
    outcome.report.as_ref().is_some_and(|r| {
        let nominal = r.stable && r.performance.is_finite() && spec.check(&r.performance).success();
        let corners = r.worst_case.as_ref().is_none_or(|wc| {
            wc.worst
                .as_ref()
                .is_some_and(|w| w.performance.is_finite() && spec.check(&w.performance).success())
        });
        nominal && corners
    })
}

/// How many spec constraints an outcome misses (∞ when it has no
/// usable report).
fn failure_count(spec: &Spec, outcome: &DesignOutcome) -> usize {
    match &outcome.report {
        Some(r) if r.performance.is_finite() => spec.check(&r.performance).failures().len(),
        _ => usize::MAX,
    }
}

impl Supervisor {
    /// A supervisor with an explicit retry policy and budget.
    pub fn new(retry: RetryPolicy, budget: SessionBudget) -> Self {
        Supervisor {
            retry,
            budget,
            cost_model: CostModel::default(),
        }
    }

    /// Runs a session with a fresh untrained noiseless agent — the
    /// common chaos-testing entry point.
    pub fn run<B: SimBackend + ?Sized>(
        &self,
        spec: &Spec,
        sim: &mut B,
        seed: u64,
    ) -> SessionReport {
        let mut agent = ArtisanAgent::untrained(AgentConfig::noiseless());
        self.run_with_agent(&mut agent, spec, sim, seed)
    }

    /// Runs a session with a caller-supplied agent (trained or not).
    /// Attempt `k` derives its RNG from `seed` and `k`, so a session is
    /// reproducible end to end from `(seed, plan, config)`.
    pub fn run_with_agent<B: SimBackend + ?Sized>(
        &self,
        agent: &mut ArtisanAgent,
        spec: &Spec,
        sim: &mut B,
        seed: u64,
    ) -> SessionReport {
        self.run_journaled(agent, spec, sim, seed, &mut SessionJournal::detached())
    }

    /// [`Supervisor::run_journaled`] with a fresh untrained noiseless
    /// agent — the journaled sibling of [`Supervisor::run`].
    pub fn run_journaled_default_agent<B: SimBackend + ?Sized>(
        &self,
        spec: &Spec,
        sim: &mut B,
        seed: u64,
        journal: &mut SessionJournal,
    ) -> SessionReport {
        let mut agent = ArtisanAgent::untrained(AgentConfig::noiseless());
        self.run_journaled(&mut agent, spec, sim, seed, journal)
    }

    /// Runs a session with crash-safe checkpointing: every attempt
    /// boundary is appended to `journal`, and a journal that already
    /// holds completed attempts is fast-forwarded instead of re-run —
    /// restored events, best-so-far outcome, the cumulative cost
    /// ledger, and the backend's analysis-call count (so a
    /// deterministic fault-injecting backend resumes on the exact dice
    /// it would have rolled). A journal whose last record is terminal
    /// returns the recorded report without running anything.
    ///
    /// The unjournaled entry points delegate here with a
    /// [`SessionJournal::detached`] journal, so a resumed session and
    /// an uninterrupted one execute the *same* loop — the
    /// field-identity guarantee is structural, not replicated logic.
    /// Journal I/O failures never perturb the session; they accumulate
    /// in [`SessionJournal::io_errors`].
    ///
    /// Caller contract: `sim` must be in the same state the journaled
    /// session's backend was in at its last recorded boundary *modulo*
    /// the restored ledger and call counter — i.e. a freshly
    /// constructed backend of the same configuration. Stateful stacks
    /// (a warm `CachedSim`) resume correctly in billing and events, but
    /// exact cost equality additionally needs the companion cache
    /// snapshot (see DESIGN.md §4.12).
    pub fn run_journaled<B: SimBackend + ?Sized>(
        &self,
        agent: &mut ArtisanAgent,
        spec: &Spec,
        sim: &mut B,
        seed: u64,
        journal: &mut SessionJournal,
    ) -> SessionReport {
        if let Some(report) = journal.terminal() {
            return report.clone();
        }
        let (attempt_sims, attempt_llm) = worst_case_attempt(&agent.config());
        let mut events = Vec::new();
        let mut best: Option<(usize, DesignOutcome)> = None;
        let mut success = false;
        let mut attempts = 0;
        let mut faults_observed = 0;
        let mut start_attempt = 1;

        // Fast-forward past journaled attempts: rebuild the loop state
        // they produced and restore the backend's billing + fault dice.
        {
            let restored: Vec<AttemptRecord> = journal.attempt_records().cloned().collect();
            if let Some(last) = restored.last() {
                for rec in &restored {
                    faults_observed += rec
                        .events
                        .iter()
                        .filter(|e| matches!(e, SessionEvent::FaultObserved { .. }))
                        .count();
                    events.extend(rec.events.iter().cloned());
                    if let Some((fails, outcome)) = &rec.best {
                        best = Some((*fails, outcome.clone()));
                    }
                }
                attempts = last.attempt;
                success = last.validated;
                start_attempt = last.attempt + 1;
                *sim.ledger_mut() = last.ledger;
                sim.fast_forward_calls(last.backend_calls);
            }
        }

        for attempt in start_attempt..=self.retry.max_attempts.max(1) {
            if success {
                break;
            }
            // Pre-flight: never start an attempt the budget cannot
            // worst-case afford.
            let ledger = sim.ledger();
            let projected_seconds = ledger.testbed_seconds(&self.cost_model)
                + attempt_sims as f64 * self.cost_model.seconds_per_simulation
                + attempt_llm as f64 * self.cost_model.seconds_per_llm_step;
            let stop = if ledger.simulations() as usize + attempt_sims > self.budget.max_simulations
            {
                Some("simulations")
            } else if ledger.llm_steps() as usize + attempt_llm > self.budget.max_llm_steps {
                Some("llm-steps")
            } else if projected_seconds > self.budget.max_testbed_seconds {
                Some("testbed-seconds")
            } else {
                None
            };
            if let Some(cap) = stop {
                events.push(SessionEvent::BudgetExhausted {
                    reason: format!("next attempt could exceed the {cap} cap"),
                });
                break;
            }

            attempts = attempt;
            let events_before = events.len();
            events.push(SessionEvent::AttemptStarted { attempt });
            let mut rng = StdRng::seed_from_u64(seed ^ (attempt as u64).wrapping_mul(0x9E37));
            let outcome = agent.design(spec, sim, &mut rng);
            for note in sim.drain_fault_notes() {
                faults_observed += 1;
                events.push(SessionEvent::FaultObserved { note });
            }
            let validated = validate(spec, &outcome);
            events.push(SessionEvent::AttemptFinished { attempt, validated });

            let fails = failure_count(spec, &outcome);
            let improved = best.as_ref().is_none_or(|(prev, _)| fails < *prev);
            if improved {
                best = Some((fails, outcome));
            }
            if validated {
                success = true;
            } else if attempt < self.retry.max_attempts {
                let seconds = self.retry.backoff_seconds(attempt);
                if seconds > 0.0 {
                    sim.ledger_mut().record_penalty_seconds(seconds);
                    events.push(SessionEvent::Backoff {
                        after_attempt: attempt,
                        seconds,
                    });
                }
            }
            // Attempt boundary: checkpoint the delta (after backoff
            // billing, so the recorded ledger is the resume point).
            if journal.is_recording() {
                journal.append_best_effort(JournalRecord::Attempt(AttemptRecord {
                    attempt,
                    validated,
                    events: events[events_before..].to_vec(),
                    best: if improved { best.clone() } else { None },
                    ledger: *sim.ledger(),
                    backend_calls: sim.calls_made(),
                }));
            }
            if validated {
                break;
            }
        }

        let ledger = sim.ledger();
        let outcome = best.map(|(_, o)| o);
        let report = SessionReport {
            success,
            degraded: !success && outcome.is_some(),
            attempts,
            faults_observed,
            events,
            outcome,
            simulations: ledger.simulations() as usize,
            llm_steps: ledger.llm_steps() as usize,
            cache_hits: ledger.cache_hits() as usize,
            coalesced_waits: ledger.coalesced_waits() as usize,
            batched_solves: ledger.batched_solves() as usize,
            testbed_seconds: ledger.testbed_seconds(&self.cost_model),
        };
        if journal.is_recording() {
            journal.append_best_effort(JournalRecord::Terminal(report.clone()));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultySim};
    use artisan_sim::Simulator;

    #[test]
    fn clean_backend_succeeds_first_attempt() {
        let mut sim = Simulator::new();
        let report = Supervisor::default().run(&Spec::g1(), &mut sim, 0);
        assert!(report.success, "{report}");
        assert!(!report.degraded);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.faults_observed, 0);
        assert!(report.outcome.is_some());
        assert!(!report
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::Backoff { .. })));
    }

    #[test]
    fn flaky_backend_recovers_within_retries() {
        // A moderately flaky backend: across seeds the supervisor must
        // recover to success in the large majority of sessions.
        let mut successes = 0;
        for seed in 0..20 {
            let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(seed, 0.25));
            let report = Supervisor::default().run(&Spec::g1(), &mut sim, seed);
            if report.success {
                successes += 1;
            }
        }
        assert!(
            successes >= 15,
            "only {successes}/20 flaky sessions recovered"
        );
    }

    #[test]
    fn poisoned_backend_never_reports_success() {
        for seed in 0..10 {
            let mut sim = FaultySim::new(Simulator::new(), FaultPlan::poisoned(seed));
            let report = Supervisor::default().run(&Spec::g1(), &mut sim, seed);
            assert!(!report.success, "seed {seed}: poisoned session succeeded");
            assert!(report.faults_observed > 0);
        }
    }

    #[test]
    fn outage_session_is_degraded_or_failed_with_budget_intact() {
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::outage_from(0, 0));
        let supervisor = Supervisor::default();
        let report = supervisor.run(&Spec::g1(), &mut sim, 0);
        assert!(!report.success);
        assert!(report.outcome.is_none() || report.degraded);
        assert!(report.simulations <= supervisor.budget.max_simulations);
        assert!(report.llm_steps <= supervisor.budget.max_llm_steps);
    }

    #[test]
    fn backoff_is_billed_as_testbed_time() {
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::outage_from(0, 0));
        let report = Supervisor::default().run(&Spec::g1(), &mut sim, 0);
        assert!(report.attempts >= 2, "{report}");
        // 30s + 60s of exponential backoff on the default policy.
        assert!(
            sim.ledger().penalty_seconds() >= 90.0,
            "penalties: {}",
            sim.ledger().penalty_seconds()
        );
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::Backoff { seconds, .. } if *seconds == 30.0)));
    }

    #[test]
    fn tiny_budget_stops_before_the_first_attempt() {
        let budget = SessionBudget {
            max_simulations: 1,
            max_llm_steps: 5,
            max_testbed_seconds: 10.0,
        };
        let mut sim = Simulator::new();
        let report = Supervisor::new(RetryPolicy::default(), budget).run(&Spec::g1(), &mut sim, 0);
        assert_eq!(report.attempts, 0);
        assert!(!report.success && !report.degraded);
        assert!(report.outcome.is_none());
        assert!(matches!(
            report.events.first(),
            Some(SessionEvent::BudgetExhausted { .. })
        ));
        assert_eq!(sim.ledger().simulations(), 0);
    }

    #[test]
    fn budget_stops_mid_session_and_keeps_best_so_far() {
        // Enough budget for roughly one attempt, against a dead backend:
        // the session must stop on BudgetExhausted, not loop.
        let budget = SessionBudget {
            max_simulations: 10,
            max_llm_steps: 60,
            max_testbed_seconds: 3000.0,
        };
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::outage_from(0, 0));
        let report = Supervisor::new(RetryPolicy::default(), budget).run(&Spec::g1(), &mut sim, 0);
        assert!(!report.success);
        assert!(report.attempts >= 1);
        assert!(report.simulations <= budget.max_simulations);
        assert!(report.llm_steps <= budget.max_llm_steps);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::BudgetExhausted { .. })));
    }

    #[test]
    fn session_is_reproducible_from_seeds() {
        let run = || {
            let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(5, 0.3));
            Supervisor::default().run(&Spec::g1(), &mut sim, 9)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.success, b.success);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.events, b.events);
        assert_eq!(a.testbed_seconds, b.testbed_seconds);
    }

    #[test]
    fn cached_sessions_report_hits_and_cheaper_testbed_time() {
        use artisan_sim::{CachedSim, SimCache};
        let cache = SimCache::shared(256);
        let supervisor = Supervisor::default();
        let mut cold = CachedSim::new(Simulator::new(), std::sync::Arc::clone(&cache));
        let first = supervisor.run(&Spec::g1(), &mut cold, 0);
        assert!(first.success, "{first}");
        // Same spec + seed against a warmed shared cache: every analysis
        // is a hit, the outcome is identical, and billed time drops.
        let mut warm = CachedSim::new(Simulator::new(), cache);
        let second = supervisor.run(&Spec::g1(), &mut warm, 0);
        assert!(second.success, "{second}");
        assert!(second.cache_hits > 0, "{second}");
        assert!(
            second.testbed_seconds < first.testbed_seconds,
            "warm {} >= cold {}",
            second.testbed_seconds,
            first.testbed_seconds
        );
        let (a, b) = (first.outcome.as_ref(), second.outcome.as_ref());
        assert_eq!(
            a.and_then(|o| o.report.as_ref()).map(|r| r.performance),
            b.and_then(|o| o.report.as_ref()).map(|r| r.performance),
            "cached session changed the reported design"
        );
        assert!(second.to_string().contains("cache hit"), "{second}");
    }

    #[test]
    fn concurrent_shared_cache_sessions_conserve_accounting() {
        // Sessions on their own threads share one cache: the hit/miss/
        // coalesced split across sessions is timing-dependent, but the
        // conservation laws are not — designs match the uncached
        // baseline, every session ledger line sums to the cache's global
        // counters, and the sessions never bill more than the cold
        // baseline.
        use artisan_sim::{CachedSim, SimCache};
        const SESSIONS: u64 = 6;
        let supervisor = Supervisor::default();
        let baseline: Vec<SessionReport> = (0..SESSIONS)
            .map(|k| supervisor.run(&Spec::g1(), &mut Simulator::new(), 23 + k))
            .collect();
        let cache = SimCache::shared(512);
        let cached: Vec<SessionReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|k| {
                    let cache = std::sync::Arc::clone(&cache);
                    scope.spawn(move || {
                        let mut sim = CachedSim::new(Simulator::new(), cache);
                        supervisor.run(&Spec::g1(), &mut sim, 23 + k)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("session panicked")))
                .collect()
        });
        let perf = |r: &SessionReport| {
            r.outcome
                .as_ref()
                .and_then(|o| o.report.as_ref())
                .map(|rep| rep.performance)
        };
        for (k, (a, b)) in cached.iter().zip(&baseline).enumerate() {
            assert_eq!(a.success, b.success, "session {k}");
            assert_eq!(perf(a), perf(b), "session {k}");
        }
        let stats = cache.stats();
        let total_hits: u64 = cached.iter().map(|r| r.cache_hits as u64).sum();
        let total_waits: u64 = cached.iter().map(|r| r.coalesced_waits as u64).sum();
        // Session-billed hits include coalesced waits; the cache splits
        // them into `hits` and `coalesced`.
        assert_eq!(total_hits, stats.hits + stats.coalesced);
        assert_eq!(total_waits, stats.coalesced);
        // Every analysis request is served exactly once per session:
        // simulated or billed as a (possibly coalesced) hit. The cached
        // run's designs match the baseline, so the request sequences
        // match too.
        for (k, (a, b)) in cached.iter().zip(&baseline).enumerate() {
            assert_eq!(a.simulations + a.cache_hits, b.simulations, "session {k}");
        }
        let cold: f64 = baseline.iter().map(|r| r.testbed_seconds).sum();
        let warm: f64 = cached.iter().map(|r| r.testbed_seconds).sum();
        assert!(
            warm < cold,
            "warm sessions {warm}s >= cold sessions {cold}s"
        );
    }

    #[test]
    fn display_summarizes_the_session() {
        let mut sim = Simulator::new();
        let report = Supervisor::default().run(&Spec::g1(), &mut sim, 0);
        let s = report.to_string();
        assert!(s.contains("success"), "{s}");
        assert!(s.contains("attempt"), "{s}");
    }
}
