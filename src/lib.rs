//! **Artisan** — automated operational-amplifier design via a
//! domain-specific language model.
//!
//! A from-scratch Rust reproduction of *"Artisan: Automated Operational
//! Amplifier Design via Domain-specific Large Language Model"*
//! (DAC 2024), including every substrate the paper relies on: the
//! behavioural circuit space, a small-signal AC simulator, the gm/Id
//! transistor mapping, the language-model stack, the opamp dataset, the
//! multi-agent ToT/CoT design framework, and the BOBO/RLBO/LLM baselines
//! of its evaluation.
//!
//! This crate is a façade: it re-exports the workspace's sub-crates
//! under stable module names and hosts the runnable examples and
//! cross-crate integration tests.
//!
//! # Quickstart
//!
//! ```
//! use artisan::prelude::*;
//!
//! // Design an opamp for the paper's G-1 specification.
//! let mut artisan = Artisan::new(ArtisanOptions::fast());
//! let outcome = artisan.design(&Spec::g1(), 0);
//! assert!(outcome.design.success);
//! println!("{}", outcome.design.netlist_text);
//! ```
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`math`] | complex linear algebra, polynomials, statistics |
//! | [`circuit`] | topologies, netlists, `NetlistTuple`, design recipes |
//! | [`sim`] | MNA AC simulator, metrics, poles/zeros, specs, cost model |
//! | [`lint`] | static electrical-rule checker (ERC) with stable codes |
//! | [`gmid`] | gm/Id tables, sizing, transistor mapping |
//! | [`llm`] | tokenizer, n-gram LM, retrieval, `DomainLm` |
//! | [`dataset`] | corpus/NetlistTuple/DesignQA/Alpaca generators, Table 1 |
//! | [`agents`] | prompter, Artisan-LLM, ToT/CoT, calculator, transcripts |
//! | [`opt`] | BOBO, RLBO, GPT-4/Llama2 baselines |
//! | [`resilience`] | fault-injected backends, supervised sessions, budgets |
//! | [`serve`] | multi-tenant design server, wire protocol, batching engine |
//! | [`core`] | the `Artisan` workflow and the Table 3 experiment runner |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use artisan_agents as agents;
pub use artisan_circuit as circuit;
pub use artisan_core as core;
pub use artisan_dataset as dataset;
pub use artisan_gmid as gmid;
pub use artisan_lint as lint;
pub use artisan_llm as llm;
pub use artisan_math as math;
pub use artisan_opt as opt;
pub use artisan_resilience as resilience;
pub use artisan_serve as serve;
pub use artisan_sim as sim;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use artisan_agents::{AgentConfig, ArtisanAgent, ChatTranscript};
    pub use artisan_circuit::{Netlist, NetlistTuple, Topology};
    pub use artisan_core::{Artisan, ArtisanOptions, Method, Table3};
    pub use artisan_dataset::{DatasetConfig, OpampDataset, Table1};
    pub use artisan_lint::{LintReport, Linter};
    pub use artisan_math::ThreadPool;
    pub use artisan_resilience::{FaultPlan, FaultySim, SessionReport, Supervisor};
    pub use artisan_sim::{
        CacheStats, CachedSim, CornerGrid, CornerSim, SimBackend, SimCache, Simulator, Spec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_subcrates() {
        // Type-level smoke test: one item per re-exported crate.
        let _ = crate::math::Complex64::ONE;
        let _ = crate::circuit::Topology::default();
        let _ = crate::sim::Spec::g1();
        let _ = crate::lint::Linter::default();
        let _ = crate::gmid::LookupTable::default_nmos();
        let _ = crate::llm::DomainLm::new(16, 2);
        let _ = crate::dataset::DatasetConfig::tiny();
        let _ = crate::agents::AgentConfig::noiseless();
        let _ = crate::opt::BoboConfig::default();
        let _ = crate::resilience::Supervisor::default();
        let _ = crate::serve::ServerConfig::default();
        let _ = crate::core::ArtisanOptions::fast();
    }
}
