//! Numerical substrate for the Artisan reproduction.
//!
//! This crate provides the from-scratch numerical kernels every other crate
//! in the workspace builds on:
//!
//! - [`Complex64`] — complex arithmetic for AC (frequency-domain) analysis,
//! - [`CMatrix`] and [`lu`] — dense complex matrices and LU factorization,
//!   the heart of the Modified Nodal Analysis solver in `artisan-sim`,
//! - [`DMatrix`] and [`cholesky`] — dense real matrices and Cholesky
//!   factorization, used by the Gaussian-process regression inside the
//!   Bayesian-optimization baseline (`artisan-opt`),
//! - [`Polynomial`] with Durand–Kerner [`Polynomial::roots`] — pole/zero
//!   extraction from interpolated network determinants,
//! - [`interp`] — Newton divided-difference interpolation used to recover
//!   the determinant polynomial from point evaluations,
//! - [`stats`] — summary statistics for the experiment harness,
//! - [`width`] — the run-time choice of register width for the lane
//!   kernels: AVX-512F when the CPU has it, the portable baseline
//!   otherwise, with the same bits either way,
//! - [`ThreadPool`] — a std-only scoped-thread pool for order-preserving
//!   parallel maps across independent analyses (the candidates of a
//!   batch, the units of a corner grid), sized by
//!   `available_parallelism` and overridable with `ARTISAN_THREADS`.
//!
//! Everything is implemented from first principles; the only dependency is
//! `rand` for the root-finder's seed perturbations and test helpers.
//!
//! # Example
//!
//! Find the pole of a single-stage RC low-pass (R = 1 kΩ, C = 1 µF):
//!
//! ```
//! use artisan_math::Polynomial;
//!
//! // det(G + sC) for the 1-node network is (1/R) + sC.
//! let det = Polynomial::from_real(&[1e-3, 1e-6]);
//! let roots = det.roots(1e-12, 200).expect("converges");
//! assert!((roots[0].re - (-1000.0)).abs() < 1e-6);
//! ```

// The one `unsafe` block of the workspace is `width::Width::run`'s call
// into the AVX-512F copy of a kernel, behind run-time detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cmatrix;
mod complex;
mod dmatrix;
mod error;
mod polynomial;

pub mod cholesky;
pub mod interp;
pub mod lu;
pub mod pool;
pub mod stats;
pub mod width;

pub use cmatrix::CMatrix;
pub use complex::Complex64;
pub use dmatrix::DMatrix;
pub use error::MathError;
pub use polynomial::Polynomial;
pub use pool::ThreadPool;

/// Convenient alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MathError>;
