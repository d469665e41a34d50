//! A compact, honest language-model substrate — the workspace's
//! substitute for the paper's Llama2-7b training stack (§3.4; see
//! `DESIGN.md`, substitution table).
//!
//! The paper trains *Artisan-LLM* in two stages on 8×A100 GPUs:
//! domain-adaptive pretraining (DAPT) on a 165 M-token corpus, then
//! supervised fine-tuning (SFT) on instruction data including the
//! DesignQA set. What the rest of the framework consumes is the model's
//! *function*: given a design question, produce a domain-grounded answer;
//! given a corpus, measurably absorb its distribution.
//!
//! This crate reproduces that function at laptop scale, from scratch:
//!
//! - [`tokenizer`] — a byte-pair-encoding tokenizer trained on the corpus
//!   with incrementally updated pair counts,
//! - [`ngram`] — an interpolated n-gram language model counted by slice
//!   (the DAPT stage fits it; perplexity quantifies domain adaptation),
//! - [`retrieval`] — a TF-IDF index with cosine ranking (the SFT stage
//!   indexes DesignQA; answering is retrieval + sampling),
//! - [`model`] — [`DomainLm`]: the two-stage train/answer façade used by
//!   the Artisan-LLM agent.
//!
//! # Example
//!
//! ```
//! use artisan_llm::DomainLm;
//! use rand::SeedableRng;
//!
//! let mut lm = DomainLm::new(512, 3);
//! lm.pretrain(&["the nested miller compensation opamp uses two capacitors"]);
//! lm.fine_tune(&[("how do we compensate a three-stage opamp?",
//!                 "use nested miller compensation with two capacitors")]);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let a = lm.answer("how to compensate the three-stage opamp", 0.0, &mut rng).unwrap();
//! assert!(a.text.contains("nested miller"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod ngram;
pub mod retrieval;
pub mod tokenizer;

pub use model::{Answer, DomainLm};
pub use ngram::NgramLm;
pub use retrieval::TfIdfIndex;
pub use tokenizer::{BpeTokenizer, Encoder};
