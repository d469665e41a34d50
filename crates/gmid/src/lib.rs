//! The gm/Id sizing methodology (Jespers \[8\]) — the workspace's
//! reimplementation of the open-source gm/Id scripts of \[11\] that the
//! paper uses to map behavioural opamps to the transistor level (§2.2,
//! Fig. 6(c)→(d)).
//!
//! The flow:
//!
//! 1. [`device`] — a synthetic EKV-style MOS model produces the
//!    `gm/Id ↔ inversion coefficient ↔ current density` relationships
//!    that production flows extract from foundry SPICE sweeps,
//! 2. [`table`] — those curves are tabulated into lookup tables with
//!    bidirectional interpolation (the "gm/Id lookup table" artifact),
//! 3. [`sizing`] — each behavioural stage `(gm, gm/Id)` is sized to a
//!    drain current and a W/L,
//! 4. [`mapping`] — the paper's stage mapping: the input stage becomes a
//!    current-mirror differential amplifier, the remaining stages become
//!    common-source amplifiers; compensation R/C pass through unchanged.
//!
//! # Example
//!
//! ```
//! use artisan_circuit::Topology;
//! use artisan_gmid::{mapping, table::LookupTable};
//!
//! let table = LookupTable::default_nmos();
//! let xtor = mapping::map_topology(&Topology::nmc_example(), &table);
//! assert!(xtor.to_spice().contains("M1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod mapping;
pub mod sizing;
pub mod table;

pub use mapping::{map_topology, TransistorCircuit};
pub use sizing::{size_stage, DeviceSize};
pub use table::LookupTable;
