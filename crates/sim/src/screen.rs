//! Pre-simulation static screening.
//!
//! [`ScreenedSim<B>`] is the [`SimBackend`] wrapper for the graph-based
//! ERC engine in `artisan-lint`: before a candidate reaches the inner
//! backend it is linted with the same Error-severity rule set as the
//! simulator's own admission gate, and candidates the gate is certain to
//! reject — floating nodes, reference-free islands (`ERC100`), severed
//! signal paths (`ERC101`) — are turned away for
//! [`crate::cost::CostModel::seconds_per_screen`] instead of being
//! billed a full simulation. The returned error is byte-identical to the
//! one the bare [`crate::Simulator`] would produce (same context string,
//! same diagnostics), so screening changes *when* a doomed candidate is
//! rejected and what it costs, never *whether* or *how*.
//!
//! # Soundness
//!
//! The screen runs [`artisan_lint::Linter::errors_only`] — exactly the
//! configuration of the in-simulator gate — so the two verdicts cannot
//! diverge: every screened-out netlist would have been rejected by the
//! gate with the same ERC codes, and every screened-through netlist
//! sails past the gate untouched. The property tests in
//! `crates/sim/tests/properties.rs` and the chaos suite in
//! `artisan-resilience` pin both directions.
//!
//! # Stacking rule
//!
//! Compose `FaultySim<ScreenedSim<CachedSim<B>>>` — faults outermost
//! (see the cache module docs), screen **outside** the cache. The screen
//! must see every candidate to keep its reject accounting meaningful,
//! and a screened-out candidate never pollutes the report cache; the
//! report cache in turn only ever sees gate-clean netlists, which is
//! exactly the population worth memoizing. [`ScreenedSim::with_cache`]
//! shares the same [`SimCache`] for verdict memoization under a
//! disjoint, lint-salted key namespace. To run unscreened, do not stack
//! the wrapper.

use crate::backend::SimBackend;
use crate::cache::SimCache;
use crate::cost::CostLedger;
use crate::error::{BadNetlistReport, SimError};
use crate::fingerprint::NetlistFingerprint;
use crate::simulator::AnalysisReport;
use crate::Result;
use artisan_circuit::{Netlist, Topology};
use artisan_lint::Linter;
use std::sync::Arc;

/// Fingerprint salt separating memoized lint verdicts from memoized
/// [`AnalysisReport`]s inside a shared [`SimCache`]. Applied *on top of*
/// the wrapper's own salt, so a lint key can never collide with a report
/// key even when both wrappers share salt 0.
pub const LINT_NAMESPACE_SALT: u64 = 0x4c49_4e54_5f45_5243; // "LINT_ERC"

/// A memoized screening verdict: pure function of the netlist text, so
/// — unlike analysis reports — both outcomes are safely cacheable.
#[derive(Debug, Clone, PartialEq)]
pub enum LintVerdict {
    /// No Error-severity diagnostics; the admission gate will pass it.
    Clean,
    /// The gate will reject it with exactly this report.
    Rejected(BadNetlistReport),
}

/// The [`SimBackend`] wrapper that lints candidates before the inner
/// backend sees them, rejecting doomed ones at screening cost.
///
/// # Example
///
/// ```
/// use artisan_sim::{ScreenedSim, SimBackend, Simulator};
///
/// let mut sim = ScreenedSim::new(Simulator::new());
/// let netlist = artisan_circuit::Netlist::parse(
///     "* island\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nC2 n1 n2 1p\nCL out 0 10p\n.end\n",
/// )?;
/// let err = sim.analyze_netlist(&netlist).unwrap_err();
/// assert_eq!(err.failure_label(), "Netlist");
/// assert_eq!(sim.ledger().screen_rejects(), 1);
/// assert_eq!(sim.ledger().simulations(), 0);
/// # Ok::<(), artisan_circuit::CircuitError>(())
/// ```
#[derive(Debug)]
pub struct ScreenedSim<B> {
    inner: B,
    linter: Linter,
    cache: Option<Arc<SimCache>>,
    salt: u64,
    screened_out: u64,
}

impl<B: SimBackend> ScreenedSim<B> {
    /// Wraps `inner` with no verdict memoization.
    pub fn new(inner: B) -> Self {
        ScreenedSim {
            inner,
            linter: Linter::errors_only(),
            cache: None,
            salt: 0,
            screened_out: 0,
        }
    }

    /// Memoizes verdicts in `cache` under the lint namespace (shareable
    /// with a [`crate::CachedSim`] report cache — the key spaces are
    /// disjoint by construction).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Adds `salt` to the verdict keys, mirroring
    /// [`crate::CachedSim::with_salt`]. Lint verdicts do not depend on
    /// any analysis configuration, so this is only needed when two
    /// screens with *different lint configurations* would otherwise
    /// share a cache.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Number of candidates this wrapper screened out.
    pub fn screened_out(&self) -> u64 {
        self.screened_out
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn verdict_key(&self, netlist: &Netlist) -> NetlistFingerprint {
        NetlistFingerprint::of_netlist(netlist)
            .with_salt(LINT_NAMESPACE_SALT)
            .with_salt(self.salt)
    }

    /// The screening verdict for `netlist`, memoized when a cache is
    /// attached.
    fn screen(&mut self, netlist: &Netlist) -> LintVerdict {
        let key = self.verdict_key(netlist);
        if let Some(cache) = &self.cache {
            if let Some(verdict) = cache.lint_verdict(key) {
                return verdict;
            }
        }
        let gate = self.linter.lint(netlist);
        let verdict = if gate.has_errors() {
            // Same context string and diagnostics as the in-simulator
            // admission gate, so the rejection is indistinguishable
            // from the one the inner backend would have produced.
            LintVerdict::Rejected(BadNetlistReport::from_lint(
                "electrical-rule check failed",
                &gate,
            ))
        } else {
            LintVerdict::Clean
        };
        if let Some(cache) = &self.cache {
            cache.store_lint_verdict(key, verdict.clone());
        }
        verdict
    }

    /// Screens one netlist-level candidate; `Some(err)` means reject.
    ///
    /// Netlists without a `CL` element are *not* screened: the
    /// simulator rejects those before its ERC gate with a different
    /// message, and error equivalence with the bare backend wins over
    /// saving a lint pass on an already-cheap rejection.
    fn reject_netlist(&mut self, netlist: &Netlist) -> Option<SimError> {
        netlist.find("CL")?;
        match self.screen(netlist) {
            LintVerdict::Clean => None,
            LintVerdict::Rejected(report) => {
                self.screened_out += 1;
                self.inner.ledger_mut().record_screen_reject();
                Some(SimError::BadNetlist(report))
            }
        }
    }

    /// Screens one topology-level candidate; `Some(err)` means reject.
    /// Elaboration failures are left to the inner backend so its error
    /// mapping (and any fault instrumentation) stays authoritative.
    fn reject_topology(&mut self, topo: &Topology) -> Option<SimError> {
        let netlist = topo.elaborate().ok()?;
        self.reject_netlist(&netlist)
    }
}

impl<B: SimBackend> SimBackend for ScreenedSim<B> {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        match self.reject_topology(topo) {
            Some(err) => Err(err),
            None => self.inner.analyze_topology(topo),
        }
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        match self.reject_netlist(netlist) {
            Some(err) => Err(err),
            None => self.inner.analyze_netlist(netlist),
        }
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        // Screen first, then hand only the survivors to the inner batch
        // so its parallel fan-out (and batched-solve accounting) sees
        // the same population a caller pre-filtering by hand would give
        // it; results are merged back in input order.
        let verdicts: Vec<Option<SimError>> =
            topos.iter().map(|t| self.reject_topology(t)).collect();
        let survivors: Vec<Topology> = topos
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| v.is_none())
            .map(|(t, _)| t.clone())
            .collect();
        let mut surviving_results = self.inner.analyze_batch(&survivors).into_iter();
        verdicts
            .into_iter()
            .map(|v| match v {
                Some(err) => Err(err),
                None => surviving_results
                    .next()
                    .unwrap_or_else(|| Err(SimError::BadNetlist("batch result missing".into()))),
            })
            .collect()
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        self.inner.ledger_mut()
    }

    fn drain_fault_notes(&mut self) -> Vec<String> {
        self.inner.drain_fault_notes()
    }

    fn calls_made(&self) -> u64 {
        self.inner.calls_made()
    }

    fn fast_forward_calls(&mut self, calls: u64) {
        self.inner.fast_forward_calls(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedSim;
    use crate::simulator::Simulator;

    fn island_netlist() -> Netlist {
        Netlist::parse(
            "* island\nG1 out 0 in 0 1m\nR1 out 0 1k\nR2 n1 n2 1k\nC2 n1 n2 1p\nCL out 0 10p\n.end\n",
        )
        .unwrap_or_else(|e| panic!("parse: {e}"))
    }

    fn clean_topology() -> Topology {
        Topology::nmc_example()
    }

    #[test]
    fn clean_candidates_pass_through_unchanged() {
        let topo = clean_topology();
        let mut bare = Simulator::new();
        let bare_report = bare
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut screened = ScreenedSim::new(Simulator::new());
        let screened_report = screened
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(bare_report, screened_report);
        assert_eq!(screened.ledger().simulations(), 1);
        assert_eq!(screened.ledger().screen_rejects(), 0);
        assert_eq!(screened.screened_out(), 0);
    }

    #[test]
    fn doomed_netlist_is_rejected_with_the_gate_error_at_screen_cost() {
        let netlist = island_netlist();
        let mut bare = Simulator::new();
        let bare_err = bare.analyze_netlist(&netlist).unwrap_err();
        // The bare simulator bills the full simulation before its gate
        // rejects; the screen rejects the same way for a screen bill.
        assert_eq!(bare.ledger().simulations(), 1);
        let mut screened = ScreenedSim::new(Simulator::new());
        let screened_err = screened.analyze_netlist(&netlist).unwrap_err();
        assert_eq!(bare_err, screened_err);
        assert_eq!(screened.ledger().simulations(), 0);
        assert_eq!(screened.ledger().screen_rejects(), 1);
        assert_eq!(screened.screened_out(), 1);
    }

    #[test]
    fn missing_cl_is_forwarded_for_error_equivalence() {
        let netlist = Netlist::parse("* nc\nG1 out 0 in 0 1m\nR1 out 0 1k\nC1 n1 0 1p\n.end\n")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let mut bare = Simulator::new();
        let bare_err = bare.analyze_netlist(&netlist).unwrap_err();
        let mut screened = ScreenedSim::new(Simulator::new());
        let screened_err = screened.analyze_netlist(&netlist).unwrap_err();
        // The no-CL rejection wins over the floating-node lint both
        // times; screening must not reorder the two.
        assert_eq!(bare_err, screened_err);
        assert!(bare_err.to_string().contains("CL"), "{bare_err}");
        assert_eq!(screened.ledger().screen_rejects(), 0);
    }

    #[test]
    fn verdicts_are_memoized_in_a_shared_cache() {
        let cache = SimCache::shared(64);
        let mut screened = ScreenedSim::new(CachedSim::new(Simulator::new(), Arc::clone(&cache)))
            .with_cache(Arc::clone(&cache));
        let netlist = island_netlist();
        for _ in 0..3 {
            let err = screened.analyze_netlist(&netlist).unwrap_err();
            assert_eq!(err.failure_label(), "Netlist");
        }
        assert_eq!(screened.ledger().screen_rejects(), 3);
        // The verdict is stored once and replayed; the report shards
        // never see the key (rejects are not analysis reports).
        let key = NetlistFingerprint::of_netlist(&netlist)
            .with_salt(LINT_NAMESPACE_SALT)
            .with_salt(0);
        assert!(matches!(
            cache.lint_verdict(key),
            Some(LintVerdict::Rejected(_))
        ));
        assert!(cache.is_empty(), "report cache must stay untouched");
        // A clean topology's verdict is memoized too.
        let clean = clean_topology();
        screened
            .analyze_topology(&clean)
            .unwrap_or_else(|e| panic!("{e}"));
        let clean_netlist = clean.elaborate().unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            cache.lint_verdict(
                NetlistFingerprint::of_netlist(&clean_netlist)
                    .with_salt(LINT_NAMESPACE_SALT)
                    .with_salt(0)
            ),
            Some(LintVerdict::Clean)
        ));
    }

    #[test]
    fn batch_merges_rejects_and_survivors_in_input_order() {
        // Build a topology batch where one entry elaborates to a doomed
        // netlist is impossible (topologies are legal by construction),
        // so exercise the netlist-level reject through analyze_batch by
        // interleaving clean topologies with a poisoned one that fails
        // elaboration (forwarded to the inner backend's error mapping).
        let mut poisoned = clean_topology();
        poisoned.skeleton.cl = artisan_circuit::units::Farads(f64::NAN);
        let topos = vec![clean_topology(), poisoned, Topology::dfc_example()];
        let mut screened = ScreenedSim::new(Simulator::new());
        let results = screened.analyze_batch(&topos);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
        assert!(results[1].is_err());
        assert!(results[2].is_ok(), "{:?}", results[2].as_ref().err());
        let mut bare = Simulator::new();
        let bare_results = bare.analyze_batch(&topos);
        for (s, b) in results.iter().zip(&bare_results) {
            assert_eq!(s, b);
        }
    }

    #[test]
    fn screened_stack_composes_with_the_cache_wrapper() {
        // The documented order: screen outside cache. Two analyses of
        // the same clean topology cost one simulation plus one cache
        // hit, exactly as without the screen.
        let cache = SimCache::shared(64);
        let mut stack = ScreenedSim::new(CachedSim::new(Simulator::new(), Arc::clone(&cache)))
            .with_cache(cache);
        let topo = clean_topology();
        let a = stack
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        let b = stack
            .analyze_topology(&topo)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b);
        assert_eq!(stack.ledger().simulations(), 1);
        assert_eq!(stack.ledger().cache_hits(), 1);
        assert_eq!(stack.ledger().screen_rejects(), 0);
    }
}
