//! The Artisan multi-agent framework (§3.1, §3.3): the hierarchical
//! design process of Fig. 4, implemented as a question–answer dialogue
//! between *Artisan-Prompter* and *Artisan-LLM* (Fig. 5).
//!
//! - [`knowledge`] — the encoded human expertise behind the ToT layer:
//!   architecture performance preferences and modification strategies
//!   distilled from the multistage-compensation surveys the paper
//!   annotates,
//! - [`tot`] — Tree-of-Thoughts decision-making: architecture selection
//!   from the specs, and topology modification from simulation feedback,
//! - [`cot`] — the Chain-of-Thoughts eight-step design flow (topology
//!   selection → zero-pole allocation → parameter solving → … →
//!   verification),
//! - [`calculator`] — the third-party tool Artisan invokes for formula
//!   evaluation (the Langchain tool-calling substitute): a from-scratch
//!   expression parser/evaluator,
//! - [`prompter`] — Artisan-Prompter: generates question `Q_{i+1}` from
//!   answer `A_i` (Eq. 4) on the Fig. 4 schedule,
//! - [`artisan_llm`] — the answering agent: retrieval-grounded rationale
//!   from the trained [`DomainLm`](::artisan_llm::DomainLm) plus noisy numerical
//!   design (Eq. 3),
//! - [`dialogue`] — chat transcripts in the style of Fig. 7,
//! - [`flow`] — the full design loop: ToT → CoT → simulate → modify.
//!
//! # Example
//!
//! ```
//! use artisan_agents::{ArtisanAgent, AgentConfig};
//! use artisan_sim::{Simulator, Spec};
//! use rand::SeedableRng;
//!
//! let mut agent = ArtisanAgent::untrained(AgentConfig::noiseless());
//! let mut sim = Simulator::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let outcome = agent.design(&Spec::g1(), &mut sim, &mut rng);
//! assert!(outcome.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artisan_llm;
pub mod calculator;
pub mod cot;
pub mod dialogue;
pub mod flow;
pub mod knowledge;
pub mod prompter;
pub mod tot;

pub use artisan_llm::ArtisanLlmAgent;
pub use dialogue::{ChatTranscript, ChatTurn, Speaker};
pub use flow::{AgentConfig, ArtisanAgent, DesignOutcome};
pub use knowledge::Architecture;
