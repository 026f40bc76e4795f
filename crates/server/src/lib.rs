//! `delprop-server`: a resilient multi-tenant serving daemon for
//! deletion propagation (DESIGN.md §12).
//!
//! The library crate behind the `delpropd` binary. It turns the
//! portfolio runtime in [`delprop_core`] into a long-running service
//! that keeps answering — degraded if it must, corrupted never — while
//! instances are republished, members fail, and clients overload it:
//!
//! - [`wire`] — a length-prefixed JSON wire protocol (`u32` big-endian
//!   frame length, then a UTF-8 JSON document, each frame sent in one
//!   write and coded without a document tree) shared by the daemon,
//!   the [`client`], the chaos harness, and the load generator;
//! - [`state`] — [`InstanceSpec`]: declarative problem-instance
//!   specifications (workload generators or the paper's Figure 1)
//!   built into pre-compiled [`ServingInstance`]s;
//! - epoch snapshots — the live instance is published through
//!   [`delprop_core::runtime::EpochCell`], so in-flight requests keep
//!   solving against the snapshot they started with while a publish
//!   swaps in the next epoch under a lock held for one `Arc` swap;
//! - [`admission`] — a bounded admission [`admission::Gate`] (global
//!   and per-tenant concurrency limits, bounded wait queue) that sheds
//!   load with typed `Overloaded` rejections instead of queueing
//!   without bound;
//! - [`engine`] — the per-request solve ladder: deadline-bounded
//!   budgets on the shared pool, retry with jittered exponential
//!   [`backoff`] for transient member failures, and graceful
//!   degradation to the best *verified* approximate answer, labeled
//!   with the guarantee it actually carries;
//! - [`stats`] — serving counters and latency histograms merged with
//!   the core runtime registry, exposed over the wire via `health` and
//!   `stats` requests (which bypass admission, so the daemon stays
//!   observable under overload).
//!
//! Every concurrency primitive the daemon adds (shutdown flag, epoch
//! cell, budget cancellation) is a `std` lock or a single-variable
//! atomic with a justified ordering, and every clock read goes through
//! `runtime::now()`, keeping the whole serving path inside the lint,
//! Miri and ThreadSanitizer discipline of DESIGN.md §11.

pub mod admission;
pub mod backoff;
pub mod client;
pub mod daemon;
pub mod engine;
pub mod state;
pub mod stats;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionError, Gate, Permit};
pub use backoff::{Backoff, BackoffPolicy};
pub use client::Client;
pub use daemon::{Bind, Daemon, PortfolioFactory, ServerConfig};
pub use engine::{ActiveRequests, EngineConfig, Served};
pub use state::{InstanceSpec, ServingInstance};
pub use wire::{Request, Response, SolveOk, SolveRequest};
