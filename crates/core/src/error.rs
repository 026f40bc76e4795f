//! Errors raised by problem construction and the solvers.

use delprop_query::QueryError;
use std::fmt;

/// Errors from the deletion-propagation core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying query/relation error.
    Query(QueryError),
    /// A query in the input set is not key-preserving. Every solver in
    /// this crate relies on the unique-witness property (§II.C), so this
    /// is rejected at problem construction.
    NotKeyPreserving { query: String },
    /// A requested deletion names a view tuple that does not exist.
    UnknownViewTuple { view: usize, description: String },
    /// A solver's structural precondition does not hold (e.g. running the
    /// pivot-forest dynamic program on an input without pivot structure).
    StructureMismatch {
        solver: &'static str,
        reason: String,
    },
    /// A weight was invalid (negative or non-finite).
    InvalidWeight { value: f64 },
    /// Workload generator parameters are out of range (e.g. a deletion
    /// fraction outside `[0, 1]`).
    InvalidParams { reason: String },
    /// A declared functional dependency does not hold on the instance
    /// (FD-extended key preservation is only sound when the FDs hold).
    FdViolation { relation: String, fd_index: usize },
    /// The problem instance is infeasible for the requested solver
    /// configuration (e.g. every witness of some deleted view tuple is
    /// forbidden by a degree threshold).
    Infeasible { reason: String },
    /// A cooperative budget ran out before the solver finished and no
    /// usable best-so-far solution existed at that point. `ticks` is the
    /// deterministic work counter at exhaustion (0 when only the
    /// wall-clock deadline fired).
    BudgetExhausted { ticks: u64 },
    /// A racing portfolio member was cancelled cooperatively because
    /// another member with a stronger-or-equal guarantee already
    /// verified. `ticks` is the shared pool counter when the member
    /// observed the cancellation at a checkpoint.
    Cancelled { ticks: u64 },
    /// A portfolio member panicked; the panic was contained by the
    /// runtime's isolation boundary and converted into this error.
    SolverPanicked { solver: String, message: String },
    /// A [`crate::ir::CompiledInstance`] was checked against a problem
    /// whose mutation generation has moved on since the IR was built:
    /// the holder (a racing portfolio member, an epoch reader) kept the
    /// old `Arc` across a mutation and must recompile before trusting
    /// any verification result.
    StaleCompiled { compiled: u64, current: u64 },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::NotKeyPreserving { query } => write!(
                f,
                "query {query} is not key-preserving; deletion propagation \
                 in this library requires key-preserving conjunctive queries"
            ),
            CoreError::UnknownViewTuple { view, description } => {
                write!(f, "view {view} has no tuple {description}")
            }
            CoreError::StructureMismatch { solver, reason } => {
                write!(f, "{solver}: structural precondition failed: {reason}")
            }
            CoreError::InvalidWeight { value } => {
                write!(f, "invalid weight {value}: must be finite and non-negative")
            }
            CoreError::InvalidParams { reason } => {
                write!(f, "invalid instance parameters: {reason}")
            }
            CoreError::FdViolation { relation, fd_index } => write!(
                f,
                "functional dependency #{fd_index} of relation {relation} \
                 is violated by the instance"
            ),
            CoreError::Infeasible { reason } => write!(f, "infeasible: {reason}"),
            CoreError::BudgetExhausted { ticks } => {
                write!(f, "budget exhausted after {ticks} work ticks")
            }
            CoreError::Cancelled { ticks } => {
                write!(
                    f,
                    "cancelled at {ticks} pool ticks: a stronger-or-equal \
                     portfolio member already verified"
                )
            }
            CoreError::SolverPanicked { solver, message } => {
                write!(f, "solver {solver} panicked (contained): {message}")
            }
            CoreError::StaleCompiled { compiled, current } => write!(
                f,
                "stale compiled instance: IR generation {compiled} but the \
                 problem is at generation {current}; recompile before \
                 verifying"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_preserving() {
        let e = CoreError::NotKeyPreserving { query: "Q3".into() };
        assert!(e.to_string().contains("Q3"));
        assert!(e.to_string().contains("key-preserving"));
    }

    #[test]
    fn query_errors_convert() {
        let qe = QueryError::EmptyHead("Q".into());
        let ce: CoreError = qe.clone().into();
        assert_eq!(ce, CoreError::Query(qe));
    }
}
