//! Resilience layer for the Artisan design loop: deterministic fault
//! injection and supervised design sessions.
//!
//! The paper's framework assumes a well-behaved Spectre testbed; real
//! EDA infrastructure is not. Licenses drop, solvers hit singular
//! matrices on corner netlists, and batch queues stall. This crate makes
//! those failure modes first-class so the rest of the workspace can be
//! tested against them:
//!
//! - [`FaultySim`] wraps any [`artisan_sim::SimBackend`] and injects
//!   faults from a [`FaultPlan`] — simulator errors, NaN-poisoned
//!   reports, and latency spikes billed to the cost ledger. Every
//!   decision is a pure function of `(plan.seed, call index)`, so a
//!   chaos run replays exactly.
//! - [`Supervisor`] runs whole design sessions under a [`RetryPolicy`]
//!   and a [`SessionBudget`], producing a [`SessionReport`] that records
//!   observed faults, retries, backoff, and whether the result is
//!   `degraded` (best-so-far after the budget ran out) — and that never
//!   reports success for a non-finite or spec-violating design.
//! - [`SessionJournal`] makes supervised sessions crash-safe: every
//!   attempt boundary is checkpointed to an append-only, checksummed
//!   write-ahead journal, and a restarted process fast-forwards past
//!   completed attempts instead of re-buying them (see
//!   [`Supervisor::run_journaled`]).
//!
//! Backoff and injected latency are billed as *testbed-equivalent
//! seconds* on the [`artisan_sim::cost::CostLedger`], never slept on
//! the wall clock: the whole stack stays deterministic and replayable
//! (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use artisan_resilience::{FaultPlan, FaultySim, Supervisor};
//! use artisan_sim::{Simulator, Spec};
//!
//! let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(7, 0.2));
//! let report = Supervisor::default().run(&Spec::g1(), &mut sim, 0);
//! assert!(report.attempts >= 1);
//! if report.success {
//!     assert!(report.outcome.is_some());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod journal;
pub mod supervisor;

pub use fault::{FaultKind, FaultPlan, FaultRecord, FaultySim};
pub use journal::{
    agent_config_salt, expire_terminal, faulted_plan_fingerprint, journal_dir_from_env,
    plan_fingerprint, scan_dir, session_file_name, AppendOutcome, AttemptRecord, ExpireOutcome,
    JournalLoad, JournalRecord, JournalScan, SessionJournal, JOURNAL_DIR_ENV,
};
pub use supervisor::{RetryPolicy, SessionBudget, SessionEvent, SessionReport, Supervisor};
