//! Artisan-as-a-service: a std-only, multi-tenant opamp design server.
//!
//! This crate puts a long-running serving front on the seams the rest
//! of the workspace already provides — the object-safe `SimBackend`,
//! the `Supervisor`/`Scheduler` session stack, the shared `SimCache`
//! with snapshot persistence, and the durable session journal:
//!
//! - [`proto`] — the versioned, length-prefixed, FNV-checksummed JSON
//!   frame protocol and every request/response codec;
//! - [`engine`] — the server's only compute path: one loop that drains
//!   candidate evaluations from concurrent tenants into shared
//!   `analyze_batch` calls, with cache serving and submit-time dedup;
//! - [`server`] — the TCP accept loop, per-tenant admission control
//!   with explicit `busy` backpressure, and the graceful drain
//!   sequence (finish in-flight, snapshot cache, expire journals);
//! - [`client`] — a framed RPC [`Client`] and [`RemoteSim`], the
//!   `SimBackend` that proxies analyses to a server, making the
//!   simulator fleet-shardable.
//!
//! Binaries: `artisan-serve` (the daemon; drains on stdin EOF, the
//! std-only stand-in for SIGTERM) and `serve_load` (the load
//! generator behind `BENCH_serve.json`).
//!
//! A server reads no environment variables except the thread pool's
//! one-time `ARTISAN_THREADS`. The `artisan-serve` daemon reads
//! `ARTISAN_SERVE_ADDR`, `ARTISAN_SERVE_MAX_INFLIGHT` and the
//! workspace-wide `ARTISAN_SIM_CACHE_DIR` / `ARTISAN_JOURNAL_DIR` once at
//! entry, applies its flags ([`server::ServerConfig::with_flags`]) and
//! passes them down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod json;
pub mod proto;
pub mod server;

pub use client::{Client, RemoteSim};
pub use engine::{BatchEngine, EngineBackend, EngineStats};
pub use proto::{Request, Response, WireOutcome, WireReport, WireStats, WorkItem};
pub use server::{Server, ServerConfig, ADDR_ENV, MAX_INFLIGHT_ENV};
