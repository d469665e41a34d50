//! Behavioural operational-amplifier modeling for the Artisan reproduction.
//!
//! This crate implements §2.2 and §3.2 of the paper:
//!
//! - the canonical **three-stage cascode skeleton** of Fig. 1(a), where each
//!   stage is an ideal voltage-controlled current source `gm_i` loaded by a
//!   lumped output resistance `R_oi` and parasitic capacitance `C_pi`
//!   ([`Skeleton`], [`Topology`]),
//! - the **tunable connection positions** with **25 optional connection
//!   types** each (§3.2.2), spanning passive compensation (Miller
//!   capacitors, nulling resistors), active feedforward/feedback
//!   transconductance stages, buffered Miller paths, and the
//!   damping-factor-control (DFC) block ([`ConnectionType`], [`Position`]),
//! - the **netlist** representation — primitive elements and a SPICE-like
//!   text format with engineering-notation values ([`Netlist`], [`value`]),
//! - the **bidirectional circuit representation** `NetlistTuple =
//!   (netlist, description)` of Eq. (2): a rule-based annotator renders the
//!   structural semantics of every connection as natural language
//!   ([`describe`], [`NetlistTuple`]).
//!
//! # Example
//!
//! Build the paper's nested-Miller-compensation opamp and print its tuple:
//!
//! ```
//! use artisan_circuit::{Topology, NetlistTuple};
//!
//! let topo = Topology::nmc_example();
//! let tuple = NetlistTuple::from_topology(&topo);
//! assert!(tuple.netlist_text().contains("G1"));
//! assert!(tuple.description().contains("Miller"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connection;
mod element;
mod error;
mod netlist;
mod node;
mod position;
mod skeleton;
mod topology;
mod tuple;

pub mod describe;
pub mod design;
pub mod sample;
pub mod units;
pub mod value;

pub use connection::{ConnectionParams, ConnectionType};
pub use element::Element;
pub use error::CircuitError;
pub use netlist::Netlist;
pub use node::{Node, NodeAllocator};
pub use position::{Position, PositionRules};
pub use skeleton::{Skeleton, StageParams};
pub use topology::{Placement, Topology};
pub use tuple::NetlistTuple;

/// Convenient alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
