//! The per-request solve ladder: deadlines, retries, degradation.
//!
//! One request walks down this ladder, never up:
//!
//! 1. **Bounded attempt** — a fresh [`Budget`] per attempt, ticks from
//!    the request (or unlimited) and a wall-clock deadline equal to
//!    the *remaining* request deadline, so retries can never extend
//!    the total. The racing portfolio already degrades internally
//!    (best verified solution on exhaustion); a verified outcome is
//!    labeled with the guarantee its winner actually carries, and
//!    flagged `degraded` when the budget was cut.
//! 2. **Retry with backoff** — transient failures (contained panics,
//!    structural/transient member errors, tick exhaustion with
//!    wall-clock to spare) retry under jittered exponential
//!    [`Backoff`], bounded by the deadline. Permanent failures (bad
//!    deletions, invalid weights, shutdown cancellation) fail fast.
//! 3. **Grace fallback** — out of deadline or retries, one last
//!    tick-bounded run of the cheapest always-applicable solver, as a
//!    one-member portfolio so it passes the same verification. Its
//!    answer is labeled with *its* guarantee and `degraded: true`.
//! 4. **`DeadlineExceeded`** — the honest floor: no verified answer.
//!
//! Every attempt's budget is registered in [`ActiveRequests`] so
//! daemon shutdown can cancel the whole fleet pool-wide
//! ([`Budget::cancel_all_with_cause`]) — this is what bounds a stalled
//! member's lifetime to its request, not thread reaping.

use std::collections::HashMap;
use std::sync::Mutex;

use delprop_core::runtime::solver::{GeneralBalancedSolver, GreedySolver};
use delprop_core::runtime::sync::{AtomicU64, Ordering};
use delprop_core::runtime::{now, Budget, EpochSnapshot, Portfolio, PortfolioOutcome};
use delprop_core::solvers::local_search::Objective;
use delprop_core::{CoreError, Problem};
use delprop_query::ViewTupleId;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::state::ServingInstance;
use crate::stats;
use crate::wire::{SolveOk, SolveRequest};

/// Engine-level request policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Deadline applied when the request names none, ms.
    pub default_deadline_ms: u64,
    /// Hard cap on any requested deadline, ms.
    pub max_deadline_ms: u64,
    /// Per-attempt tick budget when the request names none
    /// (`u64::MAX` = unlimited; the deadline governs).
    pub default_ticks: u64,
    /// Race the portfolio unless the request says otherwise. A request
    /// with `sharded: true` is solved by component shards instead.
    pub racing: bool,
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Retry jitter schedule.
    pub backoff: BackoffPolicy,
    /// Tick budget of the grace fallback run (never wall-clocked: the
    /// fallback must terminate even with the deadline already gone).
    pub grace_ticks: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            default_ticks: u64::MAX,
            racing: true,
            max_retries: 3,
            backoff: BackoffPolicy::default(),
            grace_ticks: 2_000_000,
        }
    }
}

/// What the ladder produced.
#[derive(Debug)]
pub enum Served {
    /// A verified (possibly degraded) answer.
    Ok(SolveOk),
    /// No verified answer within deadline + grace.
    DeadlineExceeded {
        /// Attempts made.
        attempts: u32,
        /// Wall-clock spent, µs.
        micros: u64,
    },
    /// A permanent typed failure.
    Failed {
        /// Human-readable cause.
        message: String,
    },
}

/// Budgets of requests currently inside the engine, shared with the
/// daemon so shutdown can cancel every in-flight solve pool-wide.
///
/// A fleet-cancel is **sticky**: budgets registered afterwards (e.g.
/// a retry attempt racing the shutdown) are cancelled on
/// registration, so no attempt can slip through the gap between
/// "cancel everything" and "the retry loop noticed".
#[derive(Default)]
pub struct ActiveRequests {
    next: AtomicU64,
    handles: Mutex<HashMap<u64, Budget>>,
    closed: std::sync::OnceLock<&'static str>,
}

impl ActiveRequests {
    /// Empty registry.
    pub fn new() -> Self {
        ActiveRequests::default()
    }

    /// Register a share of `budget`'s pool; the returned id
    /// deregisters it.
    pub fn register(&self, budget: &Budget) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed); // ordering: unique-id ticket, order irrelevant
        self.lock().insert(id, budget.share_labeled("active"));
        if let Some(cause) = self.closed.get() {
            budget.cancel_all_with_cause(cause);
        }
        id
    }

    /// Drop the handle for `id` (the request attempt finished).
    pub fn deregister(&self, id: u64) {
        self.lock().remove(&id);
    }

    /// Cancel every registered pool with `cause`, and every pool
    /// registered from now on.
    pub fn cancel_all_with_cause(&self, cause: &'static str) {
        let _ = self.closed.set(cause);
        for b in self.lock().values() {
            b.cancel_all_with_cause(cause);
        }
    }

    /// Number of registered attempt budgets.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no attempt is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Budget>> {
        self.handles.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// How an attempt error steers the ladder.
enum ErrorClass {
    /// Worth another attempt (with backoff) while the deadline holds.
    Transient,
    /// Fail the request now.
    Permanent,
}

fn classify(e: &CoreError) -> ErrorClass {
    match e {
        // Contained panics, structural/transient member errors, and
        // "nothing verified before the budget drained" are the shapes
        // injected faults take; all may clear on retry.
        // A stale compiled instance means a mutation (or a racing
        // publish) invalidated the IR a reader still held; the next
        // attempt reads the fresh projection.
        CoreError::SolverPanicked { .. }
        | CoreError::StructureMismatch { .. }
        | CoreError::Infeasible { .. }
        | CoreError::StaleCompiled { .. }
        | CoreError::BudgetExhausted { .. } => ErrorClass::Transient,
        // Cancellation means shutdown reached in; bad input stays bad.
        CoreError::Cancelled { .. }
        | CoreError::Query(_)
        | CoreError::NotKeyPreserving { .. }
        | CoreError::UnknownViewTuple { .. }
        | CoreError::InvalidWeight { .. }
        | CoreError::InvalidParams { .. }
        | CoreError::FdViolation { .. } => ErrorClass::Permanent,
    }
}

/// The wire answer for a verified portfolio outcome, labeled with its
/// winner's guarantee. Degraded when it is the grace fallback's or its
/// budget was cut.
fn answer(
    snapshot: &EpochSnapshot<ServingInstance>,
    outcome: PortfolioOutcome,
    budget: &Budget,
    fallback: bool,
    attempts: u32,
    start: std::time::Instant,
) -> SolveOk {
    let degraded = fallback || budget.is_exhausted() || budget.is_cancelled();
    if degraded {
        stats::DEGRADED.inc();
    }
    SolveOk {
        epoch: snapshot.epoch(),
        winner: outcome.winner.to_string(),
        guarantee: outcome.guarantee().to_string(),
        degraded,
        cost: outcome.cost,
        deleted: outcome
            .solution
            .deleted
            .iter()
            .map(|t| (t.relation.0, t.index))
            .collect(),
        micros: start.elapsed().as_micros() as u64,
        ticks: budget.used(),
        attempts,
    }
}

/// Run the ladder for one admitted solve request.
pub fn serve_solve(
    snapshot: &EpochSnapshot<ServingInstance>,
    req: &SolveRequest,
    portfolio: &Portfolio,
    cfg: &EngineConfig,
    active: &ActiveRequests,
    seed: u64,
) -> Served {
    let start = now();
    let deadline_ms = req
        .deadline_ms
        .unwrap_or(cfg.default_deadline_ms)
        .min(cfg.max_deadline_ms);
    let deadline = start + std::time::Duration::from_millis(deadline_ms);

    // Requests without extra ΔV solve the published instance directly
    // and share its publish-time projection; requests with extra ΔV
    // fork a per-request problem through the epoch engine's delta
    // path — an O(active) incremental projection over the shared
    // static layer, never a full recompile.
    let owned: Problem;
    let problem: &Problem = if req.deletions.is_empty() {
        snapshot.engine.problem()
    } else {
        let extra: Vec<ViewTupleId> = req
            .deletions
            .iter()
            .map(|&(view, index)| ViewTupleId::new(view, index))
            .collect();
        match snapshot.engine.with_delta(&extra) {
            Ok(p) => {
                owned = p;
                &owned
            }
            Err(e) => {
                return Served::Failed {
                    message: format!("bad deletion: {e}"),
                }
            }
        }
    };

    let mut backoff = Backoff::new(cfg.backoff, seed);
    let mut attempts = 0u32;
    while attempts <= cfg.max_retries {
        let remaining = deadline.saturating_duration_since(now());
        if remaining.is_zero() {
            break;
        }
        attempts += 1;
        let ticks = req.ticks.unwrap_or(cfg.default_ticks);
        let budget = if ticks == u64::MAX {
            Budget::unlimited()
        } else {
            Budget::with_ticks(ticks)
        }
        .with_deadline(remaining);
        let id = active.register(&budget);
        let result = if req.sharded == Some(true) {
            portfolio.solve_sharded(problem, &budget)
        } else if req.racing.unwrap_or(cfg.racing) {
            portfolio.solve_racing(problem, &budget)
        } else {
            portfolio.solve(problem, &budget)
        };
        active.deregister(id);
        match result {
            Ok(outcome) => {
                return Served::Ok(answer(snapshot, outcome, &budget, false, attempts, start))
            }
            // A cancelled pool is always permanent, whatever error
            // surfaced: racing reports cooperative cancellation as a
            // member *status*, so the aggregate error alone can hide
            // the shutdown.
            Err(_) if budget.is_cancelled() => {
                return Served::Failed {
                    message: format!(
                        "cancelled: {}",
                        budget.cancel_cause().unwrap_or("request cancelled")
                    ),
                }
            }
            Err(e) => match classify(&e) {
                ErrorClass::Permanent => {
                    return Served::Failed {
                        message: e.to_string(),
                    }
                }
                ErrorClass::Transient => {
                    stats::RETRIES.inc();
                    if !backoff.sleep_before_retry(deadline) {
                        break;
                    }
                }
            },
        }
    }

    // Grace fallback: deadline (or the retry allowance) is gone; one
    // tick-bounded run of the cheapest always-applicable solver, as a
    // one-member portfolio so its answer ships only if it verifies.
    let fallback = match portfolio.objective() {
        Objective::Standard => Portfolio::new(Objective::Standard).with(GreedySolver),
        Objective::Balanced => Portfolio::new(Objective::Balanced).with(GeneralBalancedSolver),
    };
    let budget = Budget::with_ticks(cfg.grace_ticks);
    match fallback.solve(problem, &budget) {
        Ok(outcome) => {
            stats::FALLBACKS.inc();
            Served::Ok(answer(snapshot, outcome, &budget, true, attempts, start))
        }
        Err(_) => Served::DeadlineExceeded {
            attempts,
            micros: start.elapsed().as_micros() as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InstanceSpec;
    use delprop_core::runtime::{EpochCell, FaultMode, FaultySolver};

    fn snapshot() -> (EpochCell<ServingInstance>, EngineConfig) {
        let inst = ServingInstance::build("test", &InstanceSpec::Fig1).unwrap();
        (EpochCell::new(inst), EngineConfig::default())
    }

    fn req_with_deadline(ms: u64) -> SolveRequest {
        SolveRequest {
            deadline_ms: Some(ms),
            ..SolveRequest::default()
        }
    }

    #[test]
    fn healthy_portfolio_answers_exactly() {
        let (cell, cfg) = snapshot();
        let snap = cell.snapshot();
        let portfolio = Portfolio::standard();
        let active = ActiveRequests::new();
        match serve_solve(
            &snap,
            &req_with_deadline(5_000),
            &portfolio,
            &cfg,
            &active,
            1,
        ) {
            Served::Ok(ok) => {
                assert_eq!(ok.attempts, 1);
                assert!(!ok.degraded);
                assert!(!ok.deleted.is_empty());
                assert_eq!(ok.epoch, snap.epoch());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        assert!(active.is_empty(), "attempt budgets must deregister");
    }

    #[test]
    fn sharded_flag_routes_to_the_sharded_portfolio() {
        let (cell, cfg) = snapshot();
        let snap = cell.snapshot();
        let portfolio = Portfolio::standard();
        let active = ActiveRequests::new();
        let req = |sharded| SolveRequest {
            deadline_ms: Some(5_000),
            sharded,
            ..SolveRequest::default()
        };
        match serve_solve(&snap, &req(Some(true)), &portfolio, &cfg, &active, 7) {
            Served::Ok(ok) => {
                assert_eq!(ok.winner, "sharded");
                assert!(!ok.degraded);
                assert!(!ok.deleted.is_empty());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        // Sharding is opt-in per request: unset or false solves whole.
        for (sharded, seed) in [(Some(false), 8), (None, 9)] {
            match serve_solve(&snap, &req(sharded), &portfolio, &cfg, &active, seed) {
                Served::Ok(ok) => assert_ne!(ok.winner, "sharded"),
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        assert!(active.is_empty(), "attempt budgets must deregister");
    }

    #[test]
    fn transient_member_failures_retry_to_success() {
        let (cell, mut cfg) = snapshot();
        cfg.max_retries = 3;
        let snap = cell.snapshot();
        // The whole portfolio is one transient member: the first two
        // attempts fail outright, the third succeeds.
        let portfolio = Portfolio::new(Objective::Standard).with(FaultySolver::new(
            GreedySolver,
            FaultMode::Transient { fail_count: 2 },
        ));
        let active = ActiveRequests::new();
        match serve_solve(
            &snap,
            &req_with_deadline(5_000),
            &portfolio,
            &cfg,
            &active,
            2,
        ) {
            Served::Ok(ok) => {
                assert_eq!(ok.attempts, 3);
                assert_eq!(ok.winner, "faulty_transient");
            }
            other => panic!("expected Ok after retries, got {other:?}"),
        }
    }

    #[test]
    fn slow_start_retries_until_the_warmup_fits() {
        let (cell, mut cfg) = snapshot();
        cfg.max_retries = 4;
        let snap = cell.snapshot();
        let portfolio = Portfolio::new(Objective::Standard).with(FaultySolver::new(
            GreedySolver,
            FaultMode::SlowStart {
                warmup_ticks: 40_000,
            },
        ));
        let active = ActiveRequests::new();
        let req = SolveRequest {
            deadline_ms: Some(5_000),
            ticks: Some(11_000),
            ..SolveRequest::default()
        };
        match serve_solve(&snap, &req, &portfolio, &cfg, &active, 3) {
            Served::Ok(ok) => {
                assert!(ok.attempts >= 2, "warm-up must have forced retries");
                assert_eq!(ok.winner, "faulty_slow_start");
            }
            other => panic!("expected Ok after slow start, got {other:?}"),
        }
    }

    #[test]
    fn dead_portfolio_degrades_to_verified_fallback() {
        let (cell, mut cfg) = snapshot();
        cfg.max_retries = 1;
        let snap = cell.snapshot();
        // Every member permanently broken: panic + corrupt output.
        let portfolio = Portfolio::new(Objective::Standard)
            .with(FaultySolver::new(GreedySolver, FaultMode::Panic))
            .with(FaultySolver::new(GreedySolver, FaultMode::Corrupt));
        let active = ActiveRequests::new();
        match serve_solve(&snap, &req_with_deadline(200), &portfolio, &cfg, &active, 4) {
            Served::Ok(ok) => {
                assert!(ok.degraded, "fallback answers are degraded by definition");
                assert_eq!(ok.winner, "greedy");
                assert_eq!(ok.guarantee, "heuristic");
            }
            other => panic!("expected degraded fallback, got {other:?}"),
        }
    }

    #[test]
    fn zero_grace_means_honest_deadline_exceeded() {
        let (cell, mut cfg) = snapshot();
        cfg.max_retries = 1;
        cfg.grace_ticks = 0; // fallback cannot even compile
        let snap = cell.snapshot();
        let portfolio = Portfolio::new(Objective::Standard)
            .with(FaultySolver::new(GreedySolver, FaultMode::Panic));
        let active = ActiveRequests::new();
        match serve_solve(&snap, &req_with_deadline(50), &portfolio, &cfg, &active, 5) {
            Served::DeadlineExceeded { attempts, .. } => assert!(attempts >= 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn bad_request_deletions_fail_fast() {
        let (cell, cfg) = snapshot();
        let snap = cell.snapshot();
        let portfolio = Portfolio::standard();
        let active = ActiveRequests::new();
        let req = SolveRequest {
            deletions: vec![(999, 999)],
            ..SolveRequest::default()
        };
        match serve_solve(&snap, &req, &portfolio, &cfg, &active, 6) {
            Served::Failed { message } => assert!(message.contains("bad deletion"), "{message}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn extra_deletions_solve_against_the_snapshot() {
        let (cell, cfg) = snapshot();
        let snap = cell.snapshot();
        let portfolio = Portfolio::standard();
        let active = ActiveRequests::new();
        // Fig1 view 0 tuple 0 on top of the instance's own ΔV.
        let req = SolveRequest {
            deletions: vec![(0, 0)],
            ..SolveRequest::default()
        };
        match serve_solve(&snap, &req, &portfolio, &cfg, &active, 7) {
            Served::Ok(ok) => assert!(!ok.deleted.is_empty()),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_cancellation_is_permanent() {
        let (cell, cfg) = snapshot();
        let snap = cell.snapshot();
        let portfolio = Portfolio::new(Objective::Standard)
            .with(FaultySolver::new(GreedySolver, FaultMode::Stall));
        let active = ActiveRequests::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                serve_solve(
                    &snap,
                    &req_with_deadline(10_000),
                    &portfolio,
                    &cfg,
                    &active,
                    8,
                )
            });
            // Wait for the attempt budget to register, then cancel the
            // fleet the way daemon shutdown does.
            while active.is_empty() {
                std::thread::yield_now();
            }
            active.cancel_all_with_cause("shutdown");
            match h.join().unwrap() {
                Served::Failed { message } => {
                    assert!(message.contains("cancelled"), "{message}")
                }
                other => panic!("expected Failed on shutdown, got {other:?}"),
            }
        });
    }
}
