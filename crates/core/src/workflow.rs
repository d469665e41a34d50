//! The end-to-end Artisan workflow of Fig. 2: user specs → architecture
//! recommendation → detailed design flow → behavioural netlist →
//! simulation verification (→ topological modification) → transistor
//! mapping with the gm/Id scripts.

use artisan_agents::{AgentConfig, ArtisanAgent, DesignOutcome};
use artisan_dataset::{DatasetConfig, OpampDataset};
use artisan_gmid::{map_topology, LookupTable};
use artisan_resilience::{SessionJournal, SessionReport, Supervisor};
use artisan_sim::cost::{CostLedger, CostModel};
use artisan_sim::{SimBackend, Simulator, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Construction options for the framework.
#[derive(Debug, Clone)]
pub struct ArtisanOptions {
    /// Agent configuration (noise model, iteration budget).
    pub agent: AgentConfig,
    /// When set, build the opamp dataset at this configuration and train
    /// the domain LM (DAPT + SFT) before designing. `None` uses the
    /// knowledge-base fallback — same numerics, no retrieval texture.
    pub dataset: Option<DatasetConfig>,
    /// Dataset/TRAINING seed.
    pub train_seed: u64,
    /// Testbed-equivalent cost model for reported design time.
    pub cost_model: CostModel,
}

impl ArtisanOptions {
    /// Full pipeline with a 1/1000-scale dataset and the calibrated
    /// noise model — the configuration behind the Table 3 rows.
    pub fn paper_default() -> Self {
        ArtisanOptions {
            agent: AgentConfig::paper_default(),
            dataset: Some(DatasetConfig::default()),
            train_seed: 2024,
            cost_model: CostModel::default(),
        }
    }

    /// Fast, deterministic, no LLM training — for tests and quickstarts.
    pub fn fast() -> Self {
        ArtisanOptions {
            agent: AgentConfig::noiseless(),
            dataset: None,
            train_seed: 0,
            cost_model: CostModel::default(),
        }
    }
}

impl Default for ArtisanOptions {
    fn default() -> Self {
        ArtisanOptions::paper_default()
    }
}

/// Everything one full workflow run produces.
#[derive(Debug, Clone)]
pub struct ArtisanOutcome {
    /// The agent-level outcome: topology, transcript, ToT trace,
    /// success flag, behavioural netlist.
    pub design: DesignOutcome,
    /// Transistor-level netlist from the gm/Id mapping.
    pub transistor_netlist: String,
    /// The billed operations for this run.
    pub ledger: CostLedger,
    /// Testbed-equivalent design time in seconds (the Table 3 "Time").
    pub testbed_seconds: f64,
}

/// The Artisan framework: a trained (or fallback) agent, a simulator,
/// and the gm/Id mapping tables.
#[derive(Debug, Clone)]
pub struct Artisan {
    agent: ArtisanAgent,
    options: ArtisanOptions,
    nmos_table: LookupTable,
}

impl Artisan {
    /// Builds the framework; trains the domain LM when the options carry
    /// a dataset configuration.
    pub fn new(options: ArtisanOptions) -> Self {
        let agent = match &options.dataset {
            Some(cfg) => {
                let dataset = OpampDataset::build(cfg, options.train_seed);
                ArtisanAgent::trained(&dataset, options.agent)
            }
            None => ArtisanAgent::untrained(options.agent),
        };
        Artisan {
            agent,
            options,
            nmos_table: LookupTable::default_nmos(),
        }
    }

    /// Whether the underlying agent carries a trained language model.
    pub fn is_trained(&self) -> bool {
        self.agent.is_trained()
    }

    /// Borrow of the agent (for perplexity probes and inspection).
    pub fn agent(&self) -> &ArtisanAgent {
        &self.agent
    }

    /// Runs one design session for `spec` with an explicit trial seed
    /// against the plain deterministic simulator.
    pub fn design(&mut self, spec: &Spec, seed: u64) -> ArtisanOutcome {
        let mut sim = Simulator::new();
        self.design_with(spec, &mut sim, seed)
    }

    /// Runs one design session against a caller-supplied simulation
    /// backend — the plain [`Simulator`], a fault-injected wrapper, or
    /// any other [`SimBackend`]. The ledger snapshot in the outcome is
    /// read back from the backend, so injected latency penalties appear
    /// in the reported testbed time.
    pub fn design_with<B: SimBackend + ?Sized>(
        &mut self,
        spec: &Spec,
        sim: &mut B,
        seed: u64,
    ) -> ArtisanOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let design = self.agent.design(spec, sim, &mut rng);
        let transistor_netlist = map_topology(&design.topology, &self.nmos_table).to_spice();
        let ledger = *sim.ledger();
        let testbed_seconds = ledger.testbed_seconds(&self.options.cost_model);
        ArtisanOutcome {
            design,
            transistor_netlist,
            ledger,
            testbed_seconds,
        }
    }

    /// Runs one *supervised* design session: the supervisor retries
    /// failed attempts with billed backoff, enforces its session
    /// budget, and independently validates the result (see
    /// `artisan-resilience`). The framework's own (possibly trained)
    /// agent runs the attempts.
    pub fn design_supervised<B: SimBackend + ?Sized>(
        &mut self,
        spec: &Spec,
        sim: &mut B,
        supervisor: &Supervisor,
        seed: u64,
    ) -> SessionReport {
        supervisor.run_with_agent(&mut self.agent, spec, sim, seed)
    }

    /// [`Artisan::design_supervised`] with crash-safe checkpointing:
    /// every attempt boundary is appended to `journal`, and a journal
    /// holding prior attempts fast-forwards past them (see
    /// [`Supervisor::run_journaled`]).
    pub fn design_supervised_journaled<B: SimBackend + ?Sized>(
        &mut self,
        spec: &Spec,
        sim: &mut B,
        supervisor: &Supervisor,
        seed: u64,
        journal: &mut SessionJournal,
    ) -> SessionReport {
        supervisor.run_journaled(&mut self.agent, spec, sim, seed, journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_workflow_designs_g1() {
        let mut artisan = Artisan::new(ArtisanOptions::fast());
        assert!(!artisan.is_trained());
        let outcome = artisan.design(&Spec::g1(), 0);
        assert!(outcome.design.success);
        assert!(outcome.transistor_netlist.contains("M1"));
        assert!(outcome.ledger.llm_steps() >= 9);
        // Minutes, not hours.
        assert!(
            outcome.testbed_seconds < 1800.0,
            "{}",
            outcome.testbed_seconds
        );
    }

    #[test]
    fn workflow_is_deterministic_per_seed() {
        let mut artisan = Artisan::new(ArtisanOptions::fast());
        let a = artisan.design(&Spec::g1(), 5);
        let b = artisan.design(&Spec::g1(), 5);
        assert_eq!(a.design.netlist_text, b.design.netlist_text);
    }

    #[test]
    fn trained_workflow_uses_retrieved_rationale() {
        let mut options = ArtisanOptions::paper_default();
        // Tiny dataset to keep the test fast.
        options.dataset = Some(artisan_dataset::DatasetConfig::tiny());
        options.agent = AgentConfig::noiseless();
        let mut artisan = Artisan::new(options);
        assert!(artisan.is_trained());
        let outcome = artisan.design(&Spec::g1(), 0);
        assert!(outcome.design.success);
        // The transcript's architecture answer comes from the DesignQA
        // corpus (NMC rationale phrasing).
        let text = outcome.design.transcript.to_string();
        assert!(text.to_lowercase().contains("nested miller"), "{text}");
    }

    #[test]
    fn supervised_workflow_succeeds_on_clean_backend() {
        let mut artisan = Artisan::new(ArtisanOptions::fast());
        let mut sim = Simulator::new();
        let report = artisan.design_supervised(&Spec::g1(), &mut sim, &Supervisor::default(), 0);
        assert!(report.success, "{report}");
        assert!(!report.degraded);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn supervised_workflow_survives_fault_injection() {
        use artisan_resilience::{FaultPlan, FaultySim};
        let mut artisan = Artisan::new(ArtisanOptions::fast());
        let supervisor = Supervisor::default();
        let mut sim = FaultySim::new(Simulator::new(), FaultPlan::flaky(1, 0.3));
        let report = artisan.design_supervised(&Spec::g1(), &mut sim, &supervisor, 1);
        assert!(!(report.success && report.degraded));
        assert!(report.simulations <= supervisor.budget.max_simulations);
        assert!(report.llm_steps <= supervisor.budget.max_llm_steps);
    }

    /// One supervised G-1 session with a fresh fast agent.
    fn session<B: SimBackend>(sim: &mut B, seed: u64) -> SessionReport {
        Artisan::new(ArtisanOptions::fast()).design_supervised(
            &Spec::g1(),
            sim,
            &Supervisor::default(),
            seed,
        )
    }

    #[test]
    fn sessions_sharing_a_cache_are_cheaper_and_identical() {
        use artisan_sim::{CachedSim, SimCache};
        // The sessions run one after another, so the hit/miss ledger
        // split is deterministic; the cache spans all four sessions.
        let baseline: Vec<SessionReport> = (23..27)
            .map(|seed| session(&mut Simulator::new(), seed))
            .collect();
        let cache = SimCache::shared(512);
        let cached: Vec<SessionReport> = (23..27)
            .map(|seed| {
                let mut sim = CachedSim::new(Simulator::new(), std::sync::Arc::clone(&cache));
                session(&mut sim, seed)
            })
            .collect();
        for (k, (a, b)) in cached.iter().zip(&baseline).enumerate() {
            assert_eq!(a.success, b.success, "session {k}");
            assert_eq!(a.events, b.events, "session {k}");
        }
        assert!(cache.stats().hits > 0, "{}", cache.stats());
        let cold: f64 = baseline.iter().map(|r| r.testbed_seconds).sum();
        let warm: f64 = cached.iter().map(|r| r.testbed_seconds).sum();
        assert!(warm < cold, "warm {warm}s >= cold {cold}s");
    }

    #[test]
    fn sessions_through_the_cornered_stack_attach_verdicts() {
        use artisan_sim::{CachedSim, CornerGrid, CornerSim, SimCache};
        // The corner stack — CornerSim outside the shared report cache —
        // slots into a supervised session like any other backend. A
        // nominal-only grid cannot change any validation decision (its
        // worst case IS the nominal point), so decisions and event
        // traces must match the plain sessions while every surviving
        // report carries a worst-case verdict.
        let cache = SimCache::shared(512);
        for seed in 31..34 {
            let baseline = session(&mut Simulator::new(), seed);
            let mut sim = CornerSim::new(
                CachedSim::new(Simulator::new(), std::sync::Arc::clone(&cache)),
                CornerGrid::nominal(),
            )
            .with_cache(std::sync::Arc::clone(&cache));
            let report = session(&mut sim, seed);
            assert_eq!(report.success, baseline.success, "seed {seed}");
            assert_eq!(report.events, baseline.events, "seed {seed}");
            assert!(sim.grids_evaluated() + sim.ledger().cache_hits() > 0);
            let analysis = report
                .outcome
                .as_ref()
                .and_then(|o| o.report.as_ref())
                .unwrap_or_else(|| panic!("seed {seed} lost its report"));
            let wc = analysis
                .worst_case
                .unwrap_or_else(|| panic!("seed {seed} has no corner verdict"));
            assert_eq!(wc.corners, 1, "nominal-only grid");
            assert_eq!(wc.failing, 0);
        }
    }

    #[test]
    fn journaled_sessions_resume_terminal_sessions_for_free() {
        use artisan_resilience::{faulted_plan_fingerprint, session_file_name};
        let dir = std::env::temp_dir().join(format!("artisan-core-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        let supervisor = Supervisor::default();
        let journaled = |seed: u64| {
            let mut artisan = Artisan::new(ArtisanOptions::fast());
            let fingerprint =
                faulted_plan_fingerprint(&Spec::g1(), &supervisor, &artisan.agent().config(), None);
            let path = dir.join(session_file_name(fingerprint, seed));
            let (mut journal, load) = SessionJournal::open(&path, fingerprint, seed);
            let mut sim = Simulator::new();
            let report = artisan.design_supervised_journaled(
                &Spec::g1(),
                &mut sim,
                &supervisor,
                seed,
                &mut journal,
            );
            (report, load.terminal)
        };
        for seed in 13..16 {
            let plain = session(&mut Simulator::new(), seed);
            let (first, first_resumed) = journaled(seed);
            assert!(!first_resumed, "seed {seed}");
            let (second, second_resumed) = journaled(seed);
            assert!(second_resumed, "seed {seed}");
            assert_eq!(first, second, "seed {seed}");
            assert_eq!(first.events, plain.events, "seed {seed}");
            assert_eq!(second.simulations, plain.simulations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transistor_netlist_accompanies_every_outcome() {
        let mut artisan = Artisan::new(ArtisanOptions::fast());
        for (_, spec) in Spec::table2() {
            let outcome = artisan.design(&spec, 1);
            assert!(outcome.transistor_netlist.contains(".ends"));
        }
    }
}
