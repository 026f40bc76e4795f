//! # delprop-query — conjunctive-query substrate
//!
//! Datalog-style conjunctive queries (§II.B of the paper), their analysis,
//! evaluation, and materialization into views with witness provenance:
//!
//! - [`ConjunctiveQuery`] / [`BoundQuery`]: AST and schema binding;
//! - [`parse_query`] / [`parse_program`]: the text syntax
//!   (`Q(x, z) :- T1(x, y), T2(y, z, w)`);
//! - [`properties`]: project-free / self-join-free / key-preserving
//!   classification and the paper's `l = max arity(Q)`;
//! - [`eval`]: a naive oracle and a hash-join engine, both producing
//!   matches with witness lists;
//! - [`View`] / [`ViewSet`]: materialized results with per-view-tuple
//!   witness sets and an inverted base-tuple → view-tuple index. For
//!   key-preserving queries the witness set is provably unique, which is
//!   the structural fact all deletion-propagation solvers build on.

mod ast;
pub mod containment;
mod error;
pub mod eval;
mod parse;
pub mod properties;
mod view;

pub use ast::{Atom, BoundAtom, BoundQuery, ConjunctiveQuery, Term};
pub use error::QueryError;
pub use parse::{parse_atom, parse_program, parse_query};
pub use view::{heads_without, View, ViewSet, ViewTuple, ViewTupleId};
