//! # delprop-core — deletion propagation for multiple key-preserving
//! conjunctive queries
//!
//! The primary contribution of Cai, Miao & Li (ICDE 2019): given a
//! database `D`, key-preserving conjunctive queries `Q`, materialized
//! views `V = Q(D)` and view deletions `ΔV`, find source deletions `ΔD`
//! eliminating all of `ΔV` with minimum (weighted) **view side-effect** —
//! or, in the **balanced** variant, trade missed deletions against
//! side-effects.
//!
//! - [`Problem`] / [`Solution`]: the instance and `ΔD` with both
//!   objectives;
//! - [`ir`] / [`CompiledInstance`]: the flat CSR incidence index every
//!   solver consumes, compiled once per problem and cached;
//! - [`reduction`]: the cost-preserving reductions to Red-Blue Set Cover
//!   and Pos-Neg Partial Set Cover (Claim 1 / Lemma 1);
//! - [`solvers`]: every algorithm of the paper (see its table);
//! - [`classify`] / [`solve_auto`]: the paper's case analysis as code;
//! - [`landscape`]: Tables II–V as queryable data.
//!
//! ```
//! use delprop_core::{Problem, solve_auto};
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
//! let solution = solve_auto(&problem).unwrap();
//! assert!(solution.is_feasible(&problem));
//! ```

// The crate has no `unsafe`, and `forbid` keeps it that way. The
// `deny` stays because `cargo run -p delprop-analyzer -- lint` requires
// it at this crate root.
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod classify;
pub mod engine;
mod error;
pub mod ir;
pub mod landscape;
mod problem;
pub mod reduction;
pub mod runtime;
pub mod shard;
mod solution;
pub mod solvers;
#[cfg(test)]
pub(crate) mod test_support;

pub use classify::{classify, solve_auto, solve_auto_balanced, SolverKind, StructureReport};
pub use engine::{DeltaBatch, DeltaReport, Engine};
pub use error::CoreError;
pub use ir::CompiledInstance;
pub use problem::Problem;
pub use runtime::{
    solve_portfolio, solve_portfolio_balanced, solve_portfolio_racing, Budget, Guarantee, NoopSink,
    Portfolio, PortfolioOutcome, RingBufferSink, Solver, TraceEvent, TraceSink,
};
pub use shard::{solve_sharded_ir, ShardSolve, ShardedOutcome};
pub use solution::Solution;
