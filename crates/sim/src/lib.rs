//! Small-signal AC circuit simulator for the Artisan reproduction — the
//! workspace's substitute for the commercial *Cadence Spectre* simulator
//! used in the paper's §4.1.3 (see `DESIGN.md`, substitution table).
//!
//! The paper's circuits are behavioural (Fig. 1(b)): VCCS stages with
//! lumped RC loads plus compensation networks. For such linear networks,
//! AC analysis is exact, and this crate computes it from first principles:
//!
//! - [`mna`] — Modified Nodal Analysis: stamp admittances into a complex
//!   matrix at each frequency and solve with a dense partial-pivot LU,
//! - [`ac`] — logarithmic frequency sweeps with unwrapped phase,
//! - [`metrics`] — Gain, GBW, PM, Power, and the FoM of Eq. (6),
//! - [`poles`] — exact pole/zero extraction via determinant interpolation
//!   (the network determinant `det(G + sC)` is a polynomial in `s`;
//!   evaluating it at `deg+1` points and interpolating recovers it, and
//!   its roots are the natural frequencies),
//! - [`spec`] — design-spec checking for the Table 2 experiment groups,
//! - [`variation`] — metric sensitivities and Monte-Carlo yield under
//!   parameter spread,
//! - [`cost`] — the Spectre-equivalent cost ledger behind Table 3's
//!   "Time" column,
//! - [`fingerprint`] — canonical, order-insensitive structural hashes
//!   of netlists/topologies (content-addressed simulation identity),
//! - [`cache`] — the sharded LRU [`SimCache`] and the memoizing
//!   [`CachedSim`] backend wrapper that bills hits at retrieval cost,
//! - [`corners`] — PVT corner grids: value-only netlist variants, each
//!   re-measured on its own MNA system, with worst-case verdicts
//!   attached to reports by the [`CornerSim`] wrapper and memoized per
//!   grid.
//!
//! # Example
//!
//! ```
//! use artisan_circuit::Topology;
//! use artisan_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulator::new();
//! let report = sim.analyze_topology(&Topology::nmc_example())?;
//! assert!(report.performance.gain.value() > 80.0); // > 80 dB
//! assert!(report.performance.pm.value() > 45.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod simulator;

pub mod ac;
pub mod backend;
pub mod cache;
pub mod corners;
pub mod cost;
pub mod fingerprint;
pub mod metrics;
pub mod mna;
pub mod poles;
pub mod spec;
pub mod variation;
pub mod wire;

pub use backend::SimBackend;
pub use cache::persist::{LoadOutcome, SaveOutcome};
pub use cache::{CacheStats, CachedSim, SimCache};
pub use corners::{CornerGrid, CornerPoint, CornerSim, CornerSummary, WorstCase};
pub use error::{BadNetlistReport, SimError};
pub use fingerprint::NetlistFingerprint;
pub use metrics::{Performance, PowerModel};
pub use mna::{MnaBlockWorkspace, MnaSystem, MnaWorkspace};
pub use simulator::{
    admit_netlist, admit_topology, bill_batch, elaborate_for_analysis, load_capacitance,
    AnalysisConfig, AnalysisReport, Simulator,
};
pub use spec::{Spec, SpecCheck, SpecReport};

/// Convenient alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SimError>;
