//! Fault injection for the portfolio runtime.
//!
//! [`FaultySolver`] wraps any [`Solver`] and misbehaves on command:
//! panicking, stalling against the budget, draining the budget,
//! failing transiently, starting slow, or returning infeasible /
//! corrupt solutions. The fault-injection test suite drives the
//! portfolio with these to prove the two runtime invariants — a panic
//! never escapes, and an unverified solution is never reported — hold
//! under every failure mode, not just the happy path. The serving
//! daemon's chaos harness reuses the same wrappers to exercise its
//! retry/backoff and graceful-degradation ladder deterministically.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;
use crate::solvers::local_search::Objective;
use delprop_relation::{RelationId, TupleId};

use super::budget::Budget;
use super::solver::{Guarantee, Solver};
use super::sync::{self, AtomicU64, Ordering};

/// The failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Behave normally (delegate to the inner solver).
    None,
    /// Panic mid-solve.
    Panic,
    /// Spin until stopped from outside — models a solver stuck in a
    /// loop. Each iteration first **polls** the budget without charging
    /// ([`Budget::poll`]: handle + pool-wide cancellation, sticky
    /// exhaustion, wall-clock deadline), then charges one tick so a
    /// finite tick budget still drains to termination. Under a budget
    /// with no limit, no deadline, and no cancellation this genuinely
    /// hangs, which is the point.
    Stall,
    /// Drain the entire remaining tick budget in one charge, then fail.
    ExhaustBudget,
    /// Fail the first `fail_count` solve calls with a typed error, then
    /// behave normally — a transient outage the retry/backoff path must
    /// ride out. The counter is per-wrapper (interior, atomic), so one
    /// wrapper shared across request attempts recovers deterministically
    /// on attempt `fail_count + 1`.
    Transient {
        /// Number of leading solve calls that fail.
        fail_count: u32,
    },
    /// Succeed from the first call, but charge `warmup_ticks >> attempt`
    /// extra budget ticks on attempt `attempt` (0-based) before
    /// delegating — a cold-start cost that halves on every retry. Under
    /// a tight per-attempt budget the early attempts exhaust it and a
    /// caller retrying with backoff succeeds once the warm-up fits.
    SlowStart {
        /// Extra ticks charged by the first attempt.
        warmup_ticks: u64,
    },
    /// Return the empty solution (infeasible whenever `ΔV` is nonempty).
    Infeasible,
    /// Return a solution of fabricated [`TupleId`]s that exist in no
    /// relation — verification must reject it (and contain any panic the
    /// bogus ids cause).
    Corrupt,
    /// Return a typed error without doing any work.
    TypedError,
}

/// A [`Solver`] wrapper that injects one [`FaultMode`].
pub struct FaultySolver<S> {
    inner: S,
    mode: FaultMode,
    /// Solve calls seen so far — drives the stateful modes
    /// ([`FaultMode::Transient`], [`FaultMode::SlowStart`]); through the
    /// sync facade because racing members share one wrapper across
    /// threads.
    attempts: AtomicU64,
}

impl<S: Solver> FaultySolver<S> {
    /// Wrap `inner`, injecting `mode` on every solve.
    pub fn new(inner: S, mode: FaultMode) -> Self {
        FaultySolver {
            inner,
            mode,
            attempts: AtomicU64::new(0),
        }
    }

    /// Number of solve calls this wrapper has seen.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed) // ordering: monotonic counter, no data published
    }
}

impl<S: Solver> Solver for FaultySolver<S> {
    fn name(&self) -> &'static str {
        match self.mode {
            FaultMode::None => self.inner.name(),
            FaultMode::Panic => "faulty_panic",
            FaultMode::Stall => "faulty_stall",
            FaultMode::ExhaustBudget => "faulty_exhaust",
            FaultMode::Transient { .. } => "faulty_transient",
            FaultMode::SlowStart { .. } => "faulty_slow_start",
            FaultMode::Infeasible => "faulty_infeasible",
            FaultMode::Corrupt => "faulty_corrupt",
            FaultMode::TypedError => "faulty_typed_error",
        }
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn shard_local(&self) -> bool {
        self.inner.shard_local()
    }

    fn applies(&self, ir: &CompiledInstance) -> bool {
        self.inner.applies(ir)
    }

    fn guarantee(&self, ir: &CompiledInstance) -> Guarantee {
        self.inner.guarantee(ir)
    }

    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        // Ordering: Relaxed — a monotone attempt counter; the stateful
        // modes only need each solve call to observe a distinct value,
        // which the RMW's atomicity provides.
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        match self.mode {
            FaultMode::None => self.inner.solve(ir, budget),
            FaultMode::Panic => panic!("injected panic from {}", self.name()),
            FaultMode::Stall => loop {
                // Poll first: a cancelled or deadline-expired stall must
                // stop *without* charging, so a stuck member can be
                // reaped by `Budget::cancel_all` even on an unlimited
                // pool and never outlives its request's deadline.
                budget.poll()?;
                budget.checkpoint()?;
                sync::spin_loop();
            },
            FaultMode::ExhaustBudget => {
                // Two charges: the first fills the pool exactly to its
                // limit (a refused over-charge would not move the
                // counter), the second trips sticky exhaustion.
                let remaining = budget.remaining();
                if remaining < u64::MAX {
                    budget.charge(remaining)?;
                }
                budget.charge(1)?;
                // Only reachable under an unlimited budget (which cannot
                // drain); still report exhaustion rather than pretending
                // to have solved anything.
                Err(budget.error())
            }
            FaultMode::Transient { fail_count } => {
                if attempt < u64::from(fail_count) {
                    Err(CoreError::StructureMismatch {
                        solver: "faulty_transient",
                        reason: format!(
                            "injected transient failure {} of {fail_count}",
                            attempt + 1
                        ),
                    })
                } else {
                    self.inner.solve(ir, budget)
                }
            }
            FaultMode::SlowStart { warmup_ticks } => {
                let warmup = warmup_ticks >> attempt.min(63);
                if warmup > 0 {
                    budget.charge(warmup)?;
                }
                self.inner.solve(ir, budget)
            }
            FaultMode::Infeasible => Ok(Solution::empty()),
            FaultMode::Corrupt => Ok(Solution::from_tuples([
                TupleId::new(RelationId(usize::MAX), usize::MAX),
                TupleId::new(RelationId(0), usize::MAX),
            ])),
            FaultMode::TypedError => Err(CoreError::StructureMismatch {
                solver: "faulty_typed_error",
                reason: "injected typed error".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::solver::GreedySolver;
    use crate::test_support::chain_problem;

    #[test]
    fn none_mode_is_transparent() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::None);
        assert_eq!(f.name(), "greedy");
        let sol = f.solve(p.compiled(), &Budget::unlimited()).unwrap();
        assert!(sol.is_feasible(&p));
    }

    #[test]
    fn stall_terminates_under_a_finite_budget() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::Stall);
        let budget = Budget::with_ticks(500);
        let err = f.solve(p.compiled(), &budget).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        assert!(budget.is_exhausted());
    }

    #[test]
    fn stall_observes_pool_wide_cancellation_without_charging() {
        // Regression: an unlimited budget gives the stall loop no tick
        // limit and no deadline to drain against — before `Budget::poll`
        // and `cancel_all`, a stalled member whose own handle token was
        // never set could only be stopped by pool exhaustion and
        // outlived its request. Now the request-scoped kill switch
        // reaches it, and the refusal charges nothing.
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::Stall);
        let root = Budget::unlimited();
        let member = root.share_labeled("faulty_stall");
        let err = std::thread::scope(|s| {
            let h = s.spawn(|| f.solve(p.compiled(), &member).unwrap_err());
            root.cancel_all_with_cause("deadline");
            h.join().expect("stall thread must terminate")
        });
        assert!(matches!(err, CoreError::Cancelled { .. }), "got {err:?}");
        assert_eq!(member.cancel_cause(), Some("deadline"));
        // `used` may include ticks charged before the cancel landed,
        // but the pool must not be exhausted: the stall was *cancelled*,
        // not drained.
        assert!(!root.is_exhausted());
    }

    #[test]
    fn exhaust_budget_drains_everything() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::ExhaustBudget);
        let budget = Budget::with_ticks(10_000);
        let err = f.solve(p.compiled(), &budget).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn transient_fails_n_times_then_recovers() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::Transient { fail_count: 2 });
        for k in 1..=2 {
            let err = f.solve(p.compiled(), &Budget::unlimited()).unwrap_err();
            match err {
                CoreError::StructureMismatch { reason, .. } => {
                    assert!(reason.contains(&format!("failure {k} of 2")), "{reason}")
                }
                other => panic!("expected typed transient error, got {other:?}"),
            }
        }
        let sol = f.solve(p.compiled(), &Budget::unlimited()).unwrap();
        assert!(sol.is_feasible(&p), "third call must succeed");
        assert_eq!(f.attempts(), 3);
    }

    #[test]
    fn slow_start_warmup_halves_until_it_fits() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(
            GreedySolver,
            FaultMode::SlowStart {
                warmup_ticks: 4_096,
            },
        );
        // Attempts 0..=2 charge 4096/2048/1024 warm-up ticks against a
        // 1500-tick budget: the first two exhaust it, the third fits
        // and the solve lands.
        for _ in 0..2 {
            let budget = Budget::with_ticks(1_500);
            let err = f.solve(p.compiled(), &budget).unwrap_err();
            assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        }
        let budget = Budget::with_ticks(1_500);
        let sol = f.solve(p.compiled(), &budget).unwrap();
        assert!(sol.is_feasible(&p));
        assert!(budget.used() >= 1_024, "warm-up ticks were charged");
    }

    #[test]
    fn corrupt_solution_is_not_feasible_noise() {
        let p = chain_problem(6, 3, &[1, 3]);
        let f = FaultySolver::new(GreedySolver, FaultMode::Corrupt);
        let sol = f.solve(p.compiled(), &Budget::unlimited()).unwrap();
        assert!(!sol.is_feasible(&p), "fabricated ids cut nothing");
    }
}
