//! The Artisan framework façade (§3.1, Fig. 2) and the evaluation
//! harness of §4.
//!
//! - [`workflow`] — [`Artisan`]: specs in, verified behavioural netlist
//!   plus transistor-level mapping out, with the full chat transcript
//!   and decision trace,
//! - [`experiment`] — the Table 3 runner: BOBO, RLBO, GPT-4, Llama2 and
//!   Artisan over the five experiment groups of Table 2, with
//!   per-method success rates, averaged metrics, FoM, and
//!   testbed-equivalent design time.
//!
//! # Example
//!
//! ```
//! use artisan_core::{Artisan, ArtisanOptions};
//! use artisan_sim::Spec;
//!
//! let mut artisan = Artisan::new(ArtisanOptions::fast());
//! let outcome = artisan.design(&Spec::g1(), 0);
//! assert!(outcome.design.success);
//! assert!(outcome.transistor_netlist.contains(".subckt opamp"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod workflow;

pub use experiment::{
    run_cell, run_cell_with_cache, ExperimentConfig, GroupResult, Method, RobustnessReport,
    RobustnessRow, Table3, TrialRecord,
};
pub use workflow::{Artisan, ArtisanOptions, ArtisanOutcome};

// The content-addressed simulation cache, re-exported so façade users
// can share one cache across `Artisan` sessions without depending on
// `artisan-sim` directly.
pub use artisan_sim::{CacheStats, CachedSim, SimCache};
