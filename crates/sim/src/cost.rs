//! Spectre-equivalent cost accounting — the engine behind Table 3's
//! "Time" column.
//!
//! The paper reports wall-clock design time on the authors' testbed
//! (Cadence Spectre for simulation, an 8×A100 server for LLM inference).
//! Our simulator runs in microseconds, so reproducing the *ratio* between
//! Artisan's minutes and the baselines' hours requires billing each
//! logical operation at its testbed-equivalent cost. The defaults are
//! derived from Table 3 itself: BOBO spends ≈ 4.5–6 h on a few hundred
//! optimization iterations (tens of seconds per simulation including
//! netlisting and overhead), and Artisan's 7–16 min over ≈ 10–20 QA steps
//! plus a handful of verification sims implies ≈ 40 s per LLM exchange.

use crate::wire;
use std::fmt;

/// Testbed-equivalent unit costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One AC simulation (netlist → Spectre run → metric extraction).
    pub seconds_per_simulation: f64,
    /// One LLM question/answer exchange (prompt + 7 B-model generation).
    pub seconds_per_llm_step: f64,
    /// One optimizer internal update (GP fit / policy gradient step).
    pub seconds_per_optimizer_step: f64,
    /// One memoized result served from the simulation cache: no Spectre
    /// run, just a lookup and metric hand-back. Far below
    /// [`CostModel::seconds_per_simulation`] — the whole point of the
    /// cache account is that a hit is billed at retrieval cost, not at
    /// full testbed cost.
    pub seconds_per_cache_hit: f64,
    /// One PVT corner re-evaluation within a grid. Far below
    /// [`CostModel::seconds_per_simulation`]: netlisting, the ERC gate
    /// and pole extraction are all paid once by the nominal analysis,
    /// leaving only a value-scaled AC sweep per corner — on the testbed,
    /// an “alter” sweep inside an already-open session rather than a
    /// fresh Spectre run.
    pub seconds_per_corner_sim: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_simulation: 36.0,
            seconds_per_llm_step: 40.0,
            seconds_per_optimizer_step: 1.5,
            seconds_per_cache_hit: 0.5,
            seconds_per_corner_sim: 4.0,
        }
    }
}

/// A mutable ledger of billable operations for one design run.
///
/// # Example
///
/// ```
/// use artisan_sim::cost::{CostLedger, CostModel};
///
/// let mut ledger = CostLedger::new();
/// ledger.record_simulation();
/// ledger.record_llm_step();
/// let t = ledger.testbed_seconds(&CostModel::default());
/// assert!(t > 60.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    simulations: u64,
    llm_steps: u64,
    optimizer_steps: u64,
    cache_hits: u64,
    coalesced_waits: u64,
    batched_solves: u64,
    corner_sims: u64,
    penalty_seconds: f64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bills one AC simulation.
    pub fn record_simulation(&mut self) {
        self.simulations += 1;
    }

    /// Bills one LLM QA exchange.
    pub fn record_llm_step(&mut self) {
        self.llm_steps += 1;
    }

    /// Bills one optimizer-internal step.
    pub fn record_optimizer_step(&mut self) {
        self.optimizer_steps += 1;
    }

    /// Bills one memoized analysis served from the simulation cache.
    /// Cache hits have their own account precisely so they are *not*
    /// billed as full simulations — a hit costs
    /// [`CostModel::seconds_per_cache_hit`], not
    /// [`CostModel::seconds_per_simulation`].
    pub fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Records one single-flight coalesced wait: this session blocked
    /// on another session's in-flight analysis of the same fingerprint
    /// and received its report. Informational only — the wait is billed
    /// through [`CostLedger::record_cache_hit`] (retrieval cost), which
    /// the caller records alongside this counter.
    pub fn record_coalesced_wait(&mut self) {
        self.coalesced_waits += 1;
    }

    /// Records `n` analyses routed through a parallel batched solve.
    /// Informational only: batched solves are already billed as
    /// individual simulations, so this counter carries no extra cost —
    /// it lets reports distinguish fanned-out work from serial loops.
    pub fn record_batched_solves(&mut self, n: u64) {
        self.batched_solves += n;
    }

    /// Bills `n` PVT corner re-evaluations (one whole grid at a time).
    /// A corner sim costs [`CostModel::seconds_per_corner_sim`], not
    /// [`CostModel::seconds_per_simulation`] — the admission gate and
    /// pole extraction are paid once per grid, and the separate account
    /// lets reports price worst-case sign-off distinctly from nominal
    /// scoring.
    pub fn record_corner_sims(&mut self, n: u64) {
        self.corner_sims += n;
    }

    /// Bills raw testbed seconds outside the per-operation unit costs:
    /// simulated backend latency, retry backoff, queueing. Billing these
    /// as testbed time (never wall clock) keeps supervised sessions
    /// exactly replayable. Non-finite or negative amounts are ignored —
    /// a poisoned penalty must not corrupt the whole account.
    pub fn record_penalty_seconds(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.penalty_seconds += seconds;
        }
    }

    /// Number of simulations billed.
    pub fn simulations(&self) -> u64 {
        self.simulations
    }

    /// Number of LLM steps billed.
    pub fn llm_steps(&self) -> u64 {
        self.llm_steps
    }

    /// Number of optimizer steps billed.
    pub fn optimizer_steps(&self) -> u64 {
        self.optimizer_steps
    }

    /// Number of cache hits billed.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Number of single-flight coalesced waits (informational; each one
    /// is also counted — and billed — in [`CostLedger::cache_hits`]).
    pub fn coalesced_waits(&self) -> u64 {
        self.coalesced_waits
    }

    /// Number of analyses that went through a parallel batched solve
    /// (informational; each one is also counted in
    /// [`CostLedger::simulations`]).
    pub fn batched_solves(&self) -> u64 {
        self.batched_solves
    }

    /// Number of PVT corner re-evaluations billed.
    pub fn corner_sims(&self) -> u64 {
        self.corner_sims
    }

    /// Raw penalty seconds billed (latency, backoff).
    pub fn penalty_seconds(&self) -> f64 {
        self.penalty_seconds
    }

    /// Total testbed-equivalent seconds under `model`.
    pub fn testbed_seconds(&self, model: &CostModel) -> f64 {
        self.simulations as f64 * model.seconds_per_simulation
            + self.llm_steps as f64 * model.seconds_per_llm_step
            + self.optimizer_steps as f64 * model.seconds_per_optimizer_step
            + self.cache_hits as f64 * model.seconds_per_cache_hit
            + self.corner_sims as f64 * model.seconds_per_corner_sim
            + self.penalty_seconds
    }

    /// Appends the ledger in the shared [`wire`] format: seven `u64`
    /// counters followed by the penalty-seconds `f64` bit pattern.
    /// Bit-exact across a round trip, so a journaled ledger snapshot
    /// resumes billing precisely where the crashed process stopped.
    /// (The journal format version gates snapshots of older layouts
    /// out.)
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        wire::push_u64(out, self.simulations);
        wire::push_u64(out, self.llm_steps);
        wire::push_u64(out, self.optimizer_steps);
        wire::push_u64(out, self.cache_hits);
        wire::push_u64(out, self.coalesced_waits);
        wire::push_u64(out, self.batched_solves);
        wire::push_u64(out, self.corner_sims);
        wire::push_f64(out, self.penalty_seconds);
    }

    /// Reads a ledger written by [`CostLedger::encode_wire`].
    ///
    /// # Errors
    ///
    /// A diagnostic on truncation or a non-finite / negative penalty
    /// account (a corrupt snapshot must not poison future bills).
    pub fn decode_wire(reader: &mut wire::Reader<'_>) -> Result<CostLedger, String> {
        let ledger = CostLedger {
            simulations: reader.u64()?,
            llm_steps: reader.u64()?,
            optimizer_steps: reader.u64()?,
            cache_hits: reader.u64()?,
            coalesced_waits: reader.u64()?,
            batched_solves: reader.u64()?,
            corner_sims: reader.u64()?,
            penalty_seconds: reader.f64()?,
        };
        if !ledger.penalty_seconds.is_finite() || ledger.penalty_seconds < 0.0 {
            return Err(format!(
                "ledger penalty account is invalid ({})",
                ledger.penalty_seconds
            ));
        }
        Ok(ledger)
    }

    /// Merges another ledger into this one.
    pub fn absorb(&mut self, other: &CostLedger) {
        self.simulations += other.simulations;
        self.llm_steps += other.llm_steps;
        self.optimizer_steps += other.optimizer_steps;
        self.cache_hits += other.cache_hits;
        self.coalesced_waits += other.coalesced_waits;
        self.batched_solves += other.batched_solves;
        self.corner_sims += other.corner_sims;
        self.penalty_seconds += other.penalty_seconds;
    }
}

impl fmt::Display for CostLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sims, {} LLM steps, {} optimizer steps",
            self.simulations, self.llm_steps, self.optimizer_steps
        )?;
        if self.cache_hits > 0 {
            write!(f, ", {} cache hits", self.cache_hits)?;
        }
        if self.coalesced_waits > 0 {
            write!(f, ", {} coalesced waits", self.coalesced_waits)?;
        }
        if self.batched_solves > 0 {
            write!(f, ", {} batched solves", self.batched_solves)?;
        }
        if self.corner_sims > 0 {
            write!(f, ", {} corner sims", self.corner_sims)?;
        }
        if self.penalty_seconds > 0.0 {
            write!(f, ", {:.1}s penalties", self.penalty_seconds)?;
        }
        Ok(())
    }
}

/// Formats testbed seconds the way Table 3 does: `7.68m` for minutes,
/// `4.55h` for hours.
pub fn format_testbed_time(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.2}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.2}m", seconds / 60.0)
    } else {
        format!("{seconds:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = CostLedger::new();
        for _ in 0..3 {
            l.record_simulation();
        }
        l.record_llm_step();
        l.record_optimizer_step();
        assert_eq!(l.simulations(), 3);
        assert_eq!(l.llm_steps(), 1);
        assert_eq!(l.optimizer_steps(), 1);
        let t = l.testbed_seconds(&CostModel::default());
        assert!((t - (3.0 * 36.0 + 40.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CostLedger::new();
        a.record_simulation();
        let mut b = CostLedger::new();
        b.record_llm_step();
        b.record_simulation();
        a.absorb(&b);
        assert_eq!(a.simulations(), 2);
        assert_eq!(a.llm_steps(), 1);
    }

    #[test]
    fn table3_scale_sanity() {
        // A baseline run with ~450 simulations lands in the hours range…
        let mut baseline = CostLedger::new();
        for _ in 0..450 {
            baseline.record_simulation();
            baseline.record_optimizer_step();
        }
        let t = baseline.testbed_seconds(&CostModel::default());
        assert!(t > 4.0 * 3600.0 && t < 7.0 * 3600.0, "{t}");
        // …while an Artisan run with ~10 QA steps and a few sims is minutes.
        let mut artisan = CostLedger::new();
        for _ in 0..10 {
            artisan.record_llm_step();
        }
        for _ in 0..3 {
            artisan.record_simulation();
        }
        let t = artisan.testbed_seconds(&CostModel::default());
        assert!(t > 5.0 * 60.0 && t < 20.0 * 60.0, "{t}");
    }

    #[test]
    fn time_formatting_matches_table3_style() {
        assert_eq!(format_testbed_time(4.55 * 3600.0), "4.55h");
        assert_eq!(format_testbed_time(7.68 * 60.0), "7.68m");
        assert_eq!(format_testbed_time(12.0), "12.0s");
    }

    #[test]
    fn penalty_seconds_bill_raw_testbed_time() {
        let mut l = CostLedger::new();
        l.record_penalty_seconds(12.5);
        l.record_penalty_seconds(2.5);
        // Poisoned or negative penalties are dropped, not absorbed.
        l.record_penalty_seconds(f64::NAN);
        l.record_penalty_seconds(f64::INFINITY);
        l.record_penalty_seconds(-100.0);
        assert_eq!(l.penalty_seconds(), 15.0);
        let t = l.testbed_seconds(&CostModel::default());
        assert!((t - 15.0).abs() < 1e-12, "{t}");
        let mut other = CostLedger::new();
        other.record_penalty_seconds(5.0);
        l.absorb(&other);
        assert_eq!(l.penalty_seconds(), 20.0);
        assert!(l.to_string().contains("20.0s penalties"), "{l}");
    }

    #[test]
    fn display_lists_counts() {
        let mut l = CostLedger::new();
        l.record_simulation();
        assert!(l.to_string().contains("1 sims"));
        // The cache/batch accounts only appear once used.
        assert!(!l.to_string().contains("cache hits"));
        l.record_cache_hit();
        l.record_batched_solves(4);
        assert!(l.to_string().contains("1 cache hits"), "{l}");
        assert!(l.to_string().contains("4 batched solves"), "{l}");
    }

    #[test]
    fn cache_hits_bill_retrieval_not_simulation_cost() {
        let model = CostModel::default();
        let mut hit = CostLedger::new();
        hit.record_cache_hit();
        let mut sim = CostLedger::new();
        sim.record_simulation();
        let (t_hit, t_sim) = (hit.testbed_seconds(&model), sim.testbed_seconds(&model));
        assert!(
            (t_hit - model.seconds_per_cache_hit).abs() < 1e-12,
            "{t_hit}"
        );
        assert!(t_hit < t_sim / 10.0, "hit {t_hit} vs sim {t_sim}");
        assert_eq!(hit.cache_hits(), 1);
        assert_eq!(hit.simulations(), 0);
    }

    #[test]
    fn coalesced_waits_are_informational_and_absorbed() {
        let model = CostModel::default();
        let mut l = CostLedger::new();
        l.record_cache_hit();
        l.record_coalesced_wait();
        assert_eq!(l.coalesced_waits(), 1);
        // A coalesced wait is billed through its cache hit, nothing more.
        assert_eq!(l.testbed_seconds(&model), model.seconds_per_cache_hit);
        assert!(l.to_string().contains("1 coalesced waits"), "{l}");
        let mut other = CostLedger::new();
        other.record_coalesced_wait();
        l.absorb(&other);
        assert_eq!(l.coalesced_waits(), 2);
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let mut l = CostLedger::new();
        for _ in 0..5 {
            l.record_simulation();
        }
        l.record_llm_step();
        l.record_optimizer_step();
        l.record_cache_hit();
        l.record_coalesced_wait();
        l.record_batched_solves(3);
        l.record_corner_sims(27);
        l.record_penalty_seconds(2.625);
        let mut bytes = Vec::new();
        l.encode_wire(&mut bytes);
        let mut reader = wire::Reader::new(&bytes);
        let decoded = CostLedger::decode_wire(&mut reader).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(decoded, l);
        assert_eq!(reader.remaining(), 0);
        // Truncation at every cut point is an error, never a panic.
        for cut in 0..bytes.len() {
            let mut reader = wire::Reader::new(&bytes[..cut]);
            assert!(CostLedger::decode_wire(&mut reader).is_err(), "cut {cut}");
        }
        // A poisoned penalty account is rejected outright.
        let mut bytes = Vec::new();
        l.encode_wire(&mut bytes);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut reader = wire::Reader::new(&bytes);
        assert!(CostLedger::decode_wire(&mut reader).is_err());
    }

    #[test]
    fn batched_solves_are_free_and_absorbed() {
        let model = CostModel::default();
        let mut l = CostLedger::new();
        l.record_batched_solves(8);
        assert_eq!(l.batched_solves(), 8);
        assert_eq!(l.testbed_seconds(&model), 0.0);
        let mut other = CostLedger::new();
        other.record_batched_solves(2);
        other.record_cache_hit();
        l.absorb(&other);
        assert_eq!(l.batched_solves(), 10);
        assert_eq!(l.cache_hits(), 1);
    }
}
