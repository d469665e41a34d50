//! Baseline methods for the Table 3 comparison (§4.1.1).
//!
//! - [`gp`] + [`bo`] — a from-scratch Gaussian-process Bayesian
//!   optimizer (RBF kernel, Cholesky solves, expected improvement),
//! - [`embedding`] — the continuous topology embedding BOBO searches
//!   over (one coordinate per tunable position's connection choice plus
//!   log-scaled component values and stage parameters),
//! - [`bobo`] — **BOBO** \[12\]: GP-BO over the topology embedding,
//! - [`rlbo`] — **RLBO** \[3\]: a REINFORCE policy over connection-type
//!   choices with random parameter sampling per candidate,
//! - [`llm_baselines`] — off-the-shelf **GPT-4** and **Llama2**
//!   simulators reproducing the error modes the paper documents in
//!   Fig. 7 (right architecture but wrong dominant-pole formula; generic
//!   voltage-follower advice), so their Table 3 failures arise
//!   mechanistically from the simulator,
//! - [`objective`] — the shared constrained objective (Eq. 1 with the
//!   FoM of Eq. 6).
//!
//! # Example
//!
//! ```
//! use artisan_opt::bobo::{Bobo, BoboConfig};
//! use artisan_sim::{Simulator, Spec};
//! use rand::SeedableRng;
//!
//! let mut sim = Simulator::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = Bobo::new(BoboConfig { budget: 30, ..BoboConfig::default() })
//!     .run(&Spec::g1(), &mut sim, &mut rng);
//! assert!(result.evaluations <= 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bo;
pub mod bobo;
pub mod embedding;
pub mod gp;
pub mod llm_baselines;
pub mod objective;
pub mod rlbo;

pub use bobo::{Bobo, BoboConfig};
pub use llm_baselines::{Gpt4Baseline, Llama2Baseline, OffTheShelfLlm};
pub use objective::{Objective, OptResult};
pub use rlbo::{Rlbo, RlboConfig};
