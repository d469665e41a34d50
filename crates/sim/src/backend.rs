//! The simulation-backend contract.
//!
//! Everything that consumes simulation results — the agent design loop,
//! the `artisan-core` workflow, the black-box optimizers — talks to a
//! [`SimBackend`] rather than to the concrete [`Simulator`]. That is
//! what makes resilience composable: a fault-injecting wrapper, a
//! budget-enforcing wrapper, or a remote backend all slot in without the
//! consumers changing, and a supervised session can observe the faults a
//! wrapper injected through [`SimBackend::drain_fault_notes`].

use crate::cost::CostLedger;
use crate::simulator::{AnalysisReport, Simulator};
use crate::Result;
use artisan_circuit::{Netlist, Topology};

/// A source of AC analysis results with a cost ledger.
///
/// The trait is object-safe, so budget- and fault-wrappers can be
/// stacked behind `&mut dyn SimBackend` where generics are inconvenient
/// (e.g. the [`crate::Simulator`]-agnostic `Objective` trait in
/// `artisan-opt`).
pub trait SimBackend {
    /// Analyzes an elaborated topology (billing one simulation).
    ///
    /// # Errors
    ///
    /// Propagates elaboration and analysis failures as [`crate::SimError`].
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport>;

    /// Analyzes a flat netlist (billing one simulation).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures as [`crate::SimError`].
    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport>;

    /// Analyzes many independent topologies, returning one result per
    /// input in input order, billing one simulation each.
    ///
    /// The default implementation is the plain serial loop over
    /// [`SimBackend::analyze_topology`] — semantics, billing, and
    /// per-call ordering are exactly those of hand-written iteration,
    /// which is what wrapper backends with per-call state (fault
    /// injection dice) rely on. Backends with real fan-out (the
    /// [`Simulator`], one candidate per `artisan-math` pool worker;
    /// remote batch services) override this with a parallel
    /// implementation whose *results and ledger totals* must stay
    /// identical to the serial loop.
    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        topos.iter().map(|t| self.analyze_topology(t)).collect()
    }

    /// The accumulated cost ledger.
    fn ledger(&self) -> &CostLedger;

    /// Mutable ledger access, so callers can bill their own LLM or
    /// optimizer steps to the same testbed-time account.
    fn ledger_mut(&mut self) -> &mut CostLedger;

    /// Human-readable records of backend faults observed since the last
    /// drain. The plain simulator never has any; fault-injecting or
    /// flaky remote backends report each injected/observed fault here so
    /// supervisors can put them in the session report.
    fn drain_fault_notes(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Analysis calls this backend has served so far, for backends whose
    /// behaviour depends on a per-call counter (deterministic fault
    /// dice). Stateless backends return 0 — resume never needs to
    /// restore anything for them.
    fn calls_made(&self) -> u64 {
        0
    }

    /// Fast-forwards the per-call counter to `calls`, as if that many
    /// analyses had already been served. The journal resume path uses
    /// this so a deterministic fault-injecting backend rolls the *same*
    /// dice after a crash that it would have rolled uninterrupted.
    /// Stateless backends ignore it.
    fn fast_forward_calls(&mut self, calls: u64) {
        let _ = calls;
    }
}

impl SimBackend for Simulator {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        Simulator::analyze_topology(self, topo)
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        Simulator::analyze_netlist(self, netlist)
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        // The real parallel fan-out: candidates across pool workers,
        // each analysed on one sequential path, so the reports are
        // bit-identical to the serial default.
        Simulator::analyze_batch(self, topos)
    }

    fn ledger(&self) -> &CostLedger {
        Simulator::ledger(self)
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        Simulator::ledger_mut(self)
    }
}

/// Implements [`SimBackend`] for deref-style wrappers (`&mut B`,
/// `Box<B>`, …) by forwarding the *complete* method set to `(**self)`.
///
/// All delegating impls are generated from this single list, so adding
/// a method to the trait forces exactly one edit here — a wrapper can
/// no longer silently fall back to a default impl (which, before this
/// macro, would have made `&mut FaultySim` swallow fault notes or route
/// `analyze_batch` around an override).
macro_rules! forward_sim_backend {
    ($(impl<$B:ident> SimBackend for $ty:ty;)+) => {$(
        impl<$B: SimBackend + ?Sized> SimBackend for $ty {
            fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
                (**self).analyze_topology(topo)
            }

            fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
                (**self).analyze_netlist(netlist)
            }

            fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
                (**self).analyze_batch(topos)
            }

            fn ledger(&self) -> &CostLedger {
                (**self).ledger()
            }

            fn ledger_mut(&mut self) -> &mut CostLedger {
                (**self).ledger_mut()
            }

            fn drain_fault_notes(&mut self) -> Vec<String> {
                (**self).drain_fault_notes()
            }

            fn calls_made(&self) -> u64 {
                (**self).calls_made()
            }

            fn fast_forward_calls(&mut self, calls: u64) {
                (**self).fast_forward_calls(calls)
            }
        }
    )+};
}

forward_sim_backend! {
    impl<B> SimBackend for &mut B;
    impl<B> SimBackend for Box<B>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_generic<B: SimBackend + ?Sized>(sim: &mut B) -> AnalysisReport {
        sim.analyze_topology(&Topology::nmc_example())
            .unwrap_or_else(|e| panic!("nmc example analyzes: {e}"))
    }

    #[test]
    fn simulator_implements_the_backend_contract() {
        let mut sim = Simulator::new();
        let report = analyze_generic(&mut sim);
        assert!(report.stable);
        assert_eq!(SimBackend::ledger(&sim).simulations(), 1);
        assert!(sim.drain_fault_notes().is_empty());
    }

    #[test]
    fn trait_objects_and_reborrows_work() {
        let mut sim = Simulator::new();
        {
            let dyn_sim: &mut dyn SimBackend = &mut sim;
            let report = analyze_generic(dyn_sim);
            assert!(report.performance.gain.value() > 80.0);
        }
        // &mut B is itself a backend, so generic helpers can reborrow.
        let report = analyze_generic(&mut &mut sim);
        assert!(report.stable);
        assert_eq!(sim.ledger().simulations(), 2);
    }

    #[test]
    fn boxed_backends_forward_every_method() {
        let mut sim: Box<dyn SimBackend> = Box::new(Simulator::new());
        let report = analyze_generic(&mut sim);
        assert!(report.stable);
        let batch = sim.analyze_batch(&[Topology::nmc_example(), Topology::dfc_example()]);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|r| r.is_ok()));
        assert_eq!(sim.ledger().simulations(), 3);
        assert!(sim.drain_fault_notes().is_empty());
    }

    #[test]
    fn default_batch_is_the_serial_loop() {
        // A minimal backend that never overrides analyze_batch: the
        // default must call analyze_topology once per input, in order.
        struct Counting {
            inner: Simulator,
            calls: Vec<usize>,
        }
        impl SimBackend for Counting {
            fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
                self.calls.push(topo.placements().len());
                self.inner.analyze_topology(topo)
            }
            fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
                self.inner.analyze_netlist(netlist)
            }
            fn ledger(&self) -> &CostLedger {
                self.inner.ledger()
            }
            fn ledger_mut(&mut self) -> &mut CostLedger {
                self.inner.ledger_mut()
            }
        }
        let mut counting = Counting {
            inner: Simulator::new(),
            calls: Vec::new(),
        };
        let topos = [Topology::nmc_example(), Topology::dfc_example()];
        let serial: Vec<_> = topos
            .iter()
            .map(|t| Simulator::new().analyze_topology(t).map(|r| r.performance))
            .collect();
        let batch: Vec<_> = counting
            .analyze_batch(&topos)
            .into_iter()
            .map(|r| r.map(|r| r.performance))
            .collect();
        assert_eq!(batch, serial);
        assert_eq!(counting.calls.len(), 2);
    }

    #[test]
    fn backend_matches_inherent_simulator_results() {
        let topo = Topology::nmc_example();
        let mut a = Simulator::new();
        let mut b = Simulator::new();
        let inherent = a.analyze_topology(&topo).map(|r| r.performance);
        let via_trait = SimBackend::analyze_topology(&mut b, &topo).map(|r| r.performance);
        assert_eq!(inherent, via_trait);
    }
}
