//! The solver portfolio runtime: budgets, panic isolation, and verified
//! fallback chains over the paper's algorithm suite.
//!
//! The paper contributes a *portfolio* of algorithms with different
//! preconditions and guarantees (Algorithms 1–4, Claim 1/Lemma 1, exact
//! branch and bound); this module is the robust single entry point over
//! all of them:
//!
//! - [`Budget`] — deterministic work-tick counter plus optional
//!   wall-clock deadline on an atomic shared pool, threaded
//!   cooperatively into every hot loop (branch-and-bound nodes, simplex
//!   pivots, local-search moves); [`Budget::share`] hands out more
//!   handles on the same pool, each with its own cancellation token;
//! - [`Solver`] — one trait (`Send + Sync`) over the ten entry points in
//!   [`crate::solvers`], reading the compiled IR, with [`Guarantee`]
//!   metadata;
//! - [`Portfolio`] — guarantee-ordered fallback chains with
//!   `catch_unwind` isolation around each member and mandatory
//!   verification (`is_feasible` + `verify_by_reevaluation`) before any
//!   solution is reported; [`Portfolio::solve_racing`] runs all
//!   applicable members on scoped threads with
//!   first-strongest-verified-wins cancellation, and
//!   [`Portfolio::solve_sharded`] runs the chain per connected
//!   component — all through one execution core;
//! - [`FaultySolver`] — fault injection used by the test suite to prove
//!   panics are contained and unverified answers never escape, on the
//!   sequential, racing and sharded paths;
//! - [`trace`] / [`metrics`] — zero-dependency observability
//!   (`DESIGN.md` §10): attach a [`TraceSink`] to a budget with
//!   [`Budget::with_sink`] and every phase (compile, member spans,
//!   verification, budget exhaustion, racing cancellations) lands in a
//!   mutex-guarded ring buffer as structured events, exportable as JSONL;
//!   process-wide counters and latency histograms are always on.
//!
//! ```
//! use delprop_core::runtime::{solve_portfolio, Budget, Portfolio};
//! use delprop_core::Problem;
//! use delprop_query::parse_query;
//! use delprop_relation::{tup, Database, RelationSchema, Schema};
//!
//! let schema = Schema::from_relations([
//!     RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
//!     RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
//! ]).unwrap();
//! let mut db = Database::new(schema);
//! db.insert("T1", tup!["John", "TKDE"]).unwrap();
//! db.insert("T2", tup!["TKDE", "XML", 30]).unwrap();
//! let q = parse_query("Q(x, y, z) :- T1(x, y), T2(y, z, w)")
//!     .unwrap().bind(db.schema()).unwrap();
//! let mut problem = Problem::new(db, vec![q]).unwrap();
//! problem.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
//!
//! // Unbudgeted convenience entry point:
//! let outcome = solve_portfolio(&problem)?;
//! assert!(outcome.solution.is_feasible(&problem));
//!
//! // Or bounded, degrading gracefully to the best verified fallback:
//! let budget = Budget::with_ticks(100_000);
//! let outcome = Portfolio::standard().solve(&problem, &budget)?;
//! println!("{}", outcome); // winner + per-member report
//!
//! // Or raced: every applicable member on its own thread, first
//! // strongest verifier cancelling the rest.
//! let raced = Portfolio::standard().solve_racing(&problem, &Budget::unlimited())?;
//! assert!(raced.solution.is_feasible(&problem));
//! # Ok::<(), delprop_core::CoreError>(())
//! ```

mod budget;
pub mod epoch;
mod fault;
pub mod metrics;
mod portfolio;
pub mod solver;
pub mod sync;
pub mod trace;

pub use budget::{now, Budget};
pub use epoch::{EpochCell, EpochSnapshot};
pub use fault::{FaultMode, FaultySolver};
pub use portfolio::{
    solve_portfolio, solve_portfolio_balanced, solve_portfolio_racing, MemberReport, MemberStatus,
    Portfolio, PortfolioOutcome,
};
pub use solver::{Guarantee, Solver};
pub use trace::{NoopSink, Phase, RingBufferSink, Span, TraceEvent, TraceSink};
