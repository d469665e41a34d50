//! The end-to-end Artisan workflow of Fig. 2: user specs → architecture
//! recommendation → detailed design flow → behavioural netlist →
//! simulation verification (→ topological modification) → transistor
//! mapping with the gm/Id scripts.

use artisan_agents::{AgentConfig, ArtisanAgent, DesignOutcome};
use artisan_dataset::{DatasetConfig, OpampDataset};
use artisan_gmid::{map_topology, LookupTable};
use artisan_resilience::{
    JournaledBatch, ScheduledSession, Scheduler, SessionJournal, SessionReport, Supervisor,
};
use artisan_sim::cost::{CostLedger, CostModel};
use artisan_sim::{ParallelSimBackend, SimBackend, Simulator, Spec};
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

    /// Runs one supervised session per backend concurrently, each with
    /// a clone of the framework's (possibly trained) agent, its own
    /// isolated ledger, and a seed derived from `base_seed` and the
    /// session index. The scheduler's thread pool sets the concurrency
    /// (`ARTISAN_THREADS` for [`Scheduler::new`]); results are identical
    /// for every worker count and come back in backend order.
    pub fn design_batch<B: ParallelSimBackend>(
        &self,
        spec: &Spec,
        backends: Vec<B>,
        scheduler: &Scheduler,
        base_seed: u64,
    ) -> Vec<ScheduledSession<B>> {
        scheduler.run_batch_with_agent(&self.agent, spec, backends, base_seed)
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

    /// [`Artisan::design_batch`] with a per-session write-ahead journal
    /// under `dir`: re-running the same batch against the same
    /// directory after a crash resumes every session instead of
    /// re-buying its completed attempts (see
    /// [`Scheduler::run_batch_journaled`]). `extra_salt` folds any
    /// extra behaviour-changing context (e.g. a fault-plan fingerprint)
    /// into the journal-file identity.
    pub fn design_batch_journaled<B: ParallelSimBackend>(
        &self,
        spec: &Spec,
        backends: Vec<B>,
        scheduler: &Scheduler,
        base_seed: u64,
        dir: &std::path::Path,
        extra_salt: u64,
    ) -> JournaledBatch<B> {
        scheduler.run_batch_journaled_with_agent(
            &self.agent,
            spec,
            backends,
            base_seed,
            dir,
            extra_salt,
        )
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

    #[test]
    fn batch_design_matches_serial_supervised_sessions() {
        use artisan_math::ThreadPool;
        let artisan = Artisan::new(ArtisanOptions::fast());
        let supervisor = Supervisor::default();
        let scheduler = Scheduler::with_pool(supervisor, ThreadPool::with_workers(3));
        let backends: Vec<Simulator> = (0..4).map(|_| Simulator::new()).collect();
        let sessions = artisan.design_batch(&Spec::g1(), backends, &scheduler, 17);
        assert_eq!(sessions.len(), 4);
        for s in &sessions {
            // Each concurrent session equals the serial supervised run
            // with the same seed on a fresh backend and agent clone.
            let mut solo = Artisan::new(ArtisanOptions::fast());
            let mut sim = Simulator::new();
            let serial = solo.design_supervised(&Spec::g1(), &mut sim, &supervisor, s.seed);
            assert_eq!(s.report.success, serial.success, "session {}", s.session);
            assert_eq!(s.report.attempts, serial.attempts);
            assert_eq!(s.report.events, serial.events);
            assert_eq!(s.report.simulations, serial.simulations);
        }
    }

    #[test]
    fn batch_design_with_a_shared_cache_is_cheaper_and_identical() {
        use artisan_math::ThreadPool;
        use artisan_sim::{CachedSim, SimCache};
        // One worker pins session order so the hit/miss ledger split is
        // deterministic; the cache spans all four sessions.
        let artisan = Artisan::new(ArtisanOptions::fast());
        let supervisor = Supervisor::default();
        let scheduler = Scheduler::with_pool(supervisor, ThreadPool::with_workers(1));
        let plain: Vec<Simulator> = (0..4).map(|_| Simulator::new()).collect();
        let baseline = artisan.design_batch(&Spec::g1(), plain, &scheduler, 23);
        let cache = SimCache::shared(512);
        let cached_backends: Vec<CachedSim<Simulator>> = (0..4)
            .map(|_| CachedSim::new(Simulator::new(), std::sync::Arc::clone(&cache)))
            .collect();
        let cached = artisan.design_batch(&Spec::g1(), cached_backends, &scheduler, 23);
        for (a, b) in cached.iter().zip(&baseline) {
            assert_eq!(a.report.success, b.report.success, "session {}", a.session);
            assert_eq!(a.report.events, b.report.events, "session {}", a.session);
        }
        assert!(cache.stats().hits > 0, "{}", cache.stats());
        let cold: f64 = baseline.iter().map(|s| s.report.testbed_seconds).sum();
        let warm: f64 = cached.iter().map(|s| s.report.testbed_seconds).sum();
        assert!(warm < cold, "warm {warm}s >= cold {cold}s");
    }

    #[test]
    fn batch_design_through_the_screened_stack_is_identical() {
        use artisan_math::ThreadPool;
        use artisan_sim::{CachedSim, ScreenedSim, SimCache};
        // The production screening stack — screen outside the shared
        // cache — slots into design_batch like any other backend. The
        // agent's candidates are all structurally legal, so the screen
        // must admit every one: same decisions and event traces as the
        // plain batch, zero screen rejects, and the cache still saves.
        let artisan = Artisan::new(ArtisanOptions::fast());
        let supervisor = Supervisor::default();
        let scheduler = Scheduler::with_pool(supervisor, ThreadPool::with_workers(1));
        let plain: Vec<Simulator> = (0..3).map(|_| Simulator::new()).collect();
        let baseline = artisan.design_batch(&Spec::g1(), plain, &scheduler, 29);
        let cache = SimCache::shared(512);
        let screened_backends: Vec<ScreenedSim<CachedSim<Simulator>>> = (0..3)
            .map(|_| {
                ScreenedSim::new(CachedSim::new(
                    Simulator::new(),
                    std::sync::Arc::clone(&cache),
                ))
                .with_cache(std::sync::Arc::clone(&cache))
            })
            .collect();
        let screened = artisan.design_batch(&Spec::g1(), screened_backends, &scheduler, 29);
        for (a, b) in screened.iter().zip(&baseline) {
            assert_eq!(a.report.success, b.report.success, "session {}", a.session);
            assert_eq!(a.report.events, b.report.events, "session {}", a.session);
        }
        let rejects: u64 = screened.iter().map(|s| s.backend.screened_out()).sum();
        assert_eq!(rejects, 0, "a legal candidate was screened out");
        assert!(cache.stats().hits > 0, "{}", cache.stats());
        let cold: f64 = baseline.iter().map(|s| s.report.testbed_seconds).sum();
        let warm: f64 = screened.iter().map(|s| s.report.testbed_seconds).sum();
        assert!(warm < cold, "warm {warm}s >= cold {cold}s");
    }

    #[test]
    fn batch_design_through_the_cornered_stack_attaches_verdicts() {
        use artisan_math::ThreadPool;
        use artisan_sim::{CachedSim, CornerGrid, CornerSim, SimCache};
        // The corner stack — CornerSim outside the shared report cache —
        // slots into design_batch like any other backend. A nominal-only
        // grid cannot change any validation decision (its worst case IS
        // the nominal point), so decisions and event traces must match
        // the plain batch while every surviving report carries a
        // worst-case verdict.
        let artisan = Artisan::new(ArtisanOptions::fast());
        let supervisor = Supervisor::default();
        let scheduler = Scheduler::with_pool(supervisor, ThreadPool::with_workers(1));
        let plain: Vec<Simulator> = (0..3).map(|_| Simulator::new()).collect();
        let baseline = artisan.design_batch(&Spec::g1(), plain, &scheduler, 31);
        let cache = SimCache::shared(512);
        let cornered_backends: Vec<CornerSim<CachedSim<Simulator>>> = (0..3)
            .map(|_| {
                CornerSim::new(
                    CachedSim::new(Simulator::new(), std::sync::Arc::clone(&cache)),
                    CornerGrid::nominal(),
                )
                .with_cache(std::sync::Arc::clone(&cache))
            })
            .collect();
        let cornered = artisan.design_batch(&Spec::g1(), cornered_backends, &scheduler, 31);
        for (a, b) in cornered.iter().zip(&baseline) {
            assert_eq!(a.report.success, b.report.success, "session {}", a.session);
            assert_eq!(a.report.events, b.report.events, "session {}", a.session);
        }
        for s in &cornered {
            assert!(s.backend.grids_evaluated() + s.backend.ledger().cache_hits() > 0);
            let report = s
                .report
                .outcome
                .as_ref()
                .and_then(|o| o.report.as_ref())
                .unwrap_or_else(|| panic!("session {} lost its report", s.session));
            let wc = report
                .worst_case
                .unwrap_or_else(|| panic!("session {} has no corner verdict", s.session));
            assert_eq!(wc.corners, 1, "nominal-only grid");
            assert_eq!(wc.failing, 0);
        }
    }

    #[test]
    fn journaled_batch_design_resumes_terminal_sessions_for_free() {
        use artisan_math::ThreadPool;
        let dir = std::env::temp_dir().join(format!("artisan-core-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        let artisan = Artisan::new(ArtisanOptions::fast());
        let scheduler = Scheduler::with_pool(Supervisor::default(), ThreadPool::with_workers(2));
        let make_backends = || -> Vec<Simulator> { (0..3).map(|_| Simulator::new()).collect() };
        let plain = artisan.design_batch(&Spec::g1(), make_backends(), &scheduler, 13);
        let first =
            artisan.design_batch_journaled(&Spec::g1(), make_backends(), &scheduler, 13, &dir, 0);
        assert_eq!(first.resumed_terminal(), 0);
        let second =
            artisan.design_batch_journaled(&Spec::g1(), make_backends(), &scheduler, 13, &dir, 0);
        assert_eq!(second.resumed_terminal(), 3);
        for ((a, b), p) in first.sessions.iter().zip(&second.sessions).zip(&plain) {
            assert_eq!(a.report, b.report, "session {}", a.session);
            assert_eq!(a.report.events, p.report.events, "session {}", a.session);
            assert_eq!(b.report.simulations, p.report.simulations);
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
