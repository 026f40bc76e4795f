//! Fault-injection tests for the portfolio runtime (the acceptance suite
//! of the robustness layer): a panicking member is contained and
//! reported, a budget-exhausted exact solve degrades to a verified
//! feasible approximation, and infeasible/corrupt member output is
//! rejected by verification. In every scenario the portfolio returns
//! either a verified `Solution` or a typed `CoreError` — never a raw
//! panic, never an unverified answer.

use delprop::core::runtime::solver::{ExactSolver, GreedySolver, LocalSearchSolver};
use delprop::core::shard;
use delprop::core::solvers::local_search::Objective;
use delprop::prelude::*;
use delprop::query::parse_query;
use delprop::relation::{Database, RelationSchema, Schema, Tuple};
use delprop::workload::forest::{self, ForestParams};
use delprop::workload::random_db::{self, RandomDbParams};

/// The binary-counter chain workload: `n` counter values joined through
/// `atoms` binary relations, with the view tuples at `blue` marked for
/// deletion. Small but combinatorially busy — the exact search explores
/// hundreds of nodes.
fn chain_problem(n: usize, atoms: usize, blue: &[usize]) -> Problem {
    let schema = Schema::from_relations(
        (1..=atoms).map(|j| RelationSchema::new(format!("R{j}"), 2, vec![0, 1]).unwrap()),
    )
    .unwrap();
    let mut db = Database::new(schema);
    for i in 0..n {
        for j in 1..=atoms {
            let a = (i >> (j - 1)) as i64;
            let b = (i >> j) as i64;
            let name = format!("R{j}");
            let rid = db.schema().relation_id(&name).unwrap();
            use delprop::relation::Value;
            if db
                .find_by_key(rid, &[Value::int(a), Value::int(b)])
                .is_none()
            {
                db.insert(&name, tup![a, b]).unwrap();
            }
        }
    }
    let head: Vec<String> = (0..=atoms).map(|j| format!("x{j}")).collect();
    let body: Vec<String> = (1..=atoms)
        .map(|j| format!("R{j}(x{}, x{j})", j - 1))
        .collect();
    let src = format!("Q({}) :- {}", head.join(", "), body.join(", "));
    let q = parse_query(&src).unwrap().bind(db.schema()).unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    for &i in blue {
        let h: Tuple = (0..=atoms).map(|j| (i >> j) as i64).collect();
        p.mark_deleted(0, &h).unwrap();
    }
    p
}

fn faulty_chain(mode: FaultMode) -> Portfolio {
    Portfolio::new(Objective::Standard)
        .with(FaultySolver::new(GreedySolver, mode))
        .with(GreedySolver)
}

// -------------------------------------------------------------------
// Scenario 1: a panicking member is contained and reported.
// -------------------------------------------------------------------

#[test]
fn panicking_member_is_contained_and_chain_recovers() {
    let p = chain_problem(8, 3, &[1, 4, 6]);
    let out = faulty_chain(FaultMode::Panic)
        .solve(&p, &Budget::unlimited())
        .expect("healthy fallback must win");
    assert_eq!(out.winner, "greedy");
    assert!(out.solution.is_feasible(&p));
    match &out.report[0].status {
        MemberStatus::Panicked { message } => {
            assert!(message.contains("injected panic"), "got: {message}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn all_members_panicking_yields_typed_error_not_a_panic() {
    let p = chain_problem(6, 3, &[1, 3]);
    let chain = Portfolio::new(Objective::Standard)
        .with(FaultySolver::new(GreedySolver, FaultMode::Panic))
        .with(FaultySolver::new(LocalSearchSolver, FaultMode::Panic));
    let err = chain.solve(&p, &Budget::unlimited()).unwrap_err();
    // No verified solution and no budget/typed failure: a clean
    // infeasibility report, not an escaping panic.
    assert!(matches!(err, CoreError::Infeasible { .. }), "got {err:?}");
}

// -------------------------------------------------------------------
// Scenario 2: budget exhaustion degrades to a verified feasible answer.
// -------------------------------------------------------------------

#[test]
fn budget_exhausted_exact_degrades_to_verified_incumbent() {
    // A dense multi-query workload whose full branch-and-bound search
    // runs far past 200k nodes: any small budget is guaranteed to drain
    // mid-search, while the DFS holds a feasible incumbent within the
    // first ~‖ΔV‖ nodes.
    let p = random_db::generate(
        RandomDbParams {
            num_relations: 5,
            num_queries: 4,
            atoms_per_query: 2,
            domain: 5,
            tuples_per_relation: 18,
            delete_fraction: 0.4,
            weighted: true,
        },
        1,
    );
    let chain = Portfolio::new(Objective::Standard)
        .with(ExactSolver::default())
        .with(GreedySolver);
    let budget = Budget::with_ticks(50_000);
    let out = chain
        .solve(&p, &budget)
        .expect("the truncated incumbent must verify");
    assert!(budget.is_exhausted(), "the budget must actually drain");
    assert_eq!(out.winner, "exact", "best-so-far incumbent, unproven");
    assert!(out.report[0].status.is_verified());
    assert!(out.solution.is_feasible(&p));
    // The incumbent is a genuine (verified) approximation: its cost is
    // the re-checked side-effect.
    assert!((out.cost - out.solution.side_effect(&p)).abs() < 1e-12);
}

#[test]
fn stalling_member_is_bounded_by_the_budget() {
    let p = chain_problem(8, 3, &[1, 4]);
    let budget = Budget::with_ticks(1_000);
    let err = faulty_chain(FaultMode::Stall)
        .solve(&p, &budget)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::BudgetExhausted { .. }),
        "got {err:?}"
    );
    assert!(budget.is_exhausted());
}

#[test]
fn budget_hog_fails_typed_and_starves_the_tail() {
    let p = chain_problem(8, 3, &[1, 4]);
    let budget = Budget::with_ticks(10_000);
    let err = faulty_chain(FaultMode::ExhaustBudget)
        .solve(&p, &budget)
        .unwrap_err();
    assert!(matches!(err, CoreError::BudgetExhausted { .. }));
    assert_eq!(budget.remaining(), 0);
}

// -------------------------------------------------------------------
// Scenario 3: infeasible / corrupt output is rejected by verification.
// -------------------------------------------------------------------

#[test]
fn infeasible_member_output_is_rejected() {
    let p = chain_problem(8, 3, &[1, 4, 6]);
    let out = faulty_chain(FaultMode::Infeasible)
        .solve(&p, &Budget::unlimited())
        .unwrap();
    assert_eq!(out.report[0].status, MemberStatus::RejectedInfeasible);
    assert_eq!(out.winner, "greedy");
    assert!(out.solution.is_feasible(&p));
}

#[test]
fn corrupt_member_output_is_rejected() {
    let p = chain_problem(8, 3, &[1, 4, 6]);
    let out = faulty_chain(FaultMode::Corrupt)
        .solve(&p, &Budget::unlimited())
        .unwrap();
    // Fabricated tuple ids cut nothing, so verification refuses the
    // solution outright.
    assert_eq!(out.report[0].status, MemberStatus::RejectedInfeasible);
    assert_eq!(out.winner, "greedy");
    assert!(out.solution.is_feasible(&p));
}

#[test]
fn typed_error_member_is_reported_and_skipped_over() {
    let p = chain_problem(8, 3, &[1, 4]);
    let out = faulty_chain(FaultMode::TypedError)
        .solve(&p, &Budget::unlimited())
        .unwrap();
    assert!(matches!(
        out.report[0].status,
        MemberStatus::Failed {
            error: CoreError::StructureMismatch { .. }
        }
    ));
    assert_eq!(out.winner, "greedy");
}

// -------------------------------------------------------------------
// Scenario 4: transient outages and slow starts — the failure shapes
// the serving daemon's retry/backoff ladder rides out. The wrapper's
// attempt counter persists across solve calls, so one chain reused
// across attempts recovers deterministically.
// -------------------------------------------------------------------

#[test]
fn transient_member_fails_typed_then_recovers_across_attempts() {
    let p = chain_problem(8, 3, &[1, 4]);
    let chain = faulty_chain(FaultMode::Transient { fail_count: 2 });
    // Attempts 1 and 2: the transient member fails with a typed error
    // and the healthy fallback wins the chain.
    for attempt in 1..=2 {
        let out = chain.solve(&p, &Budget::unlimited()).unwrap();
        assert_eq!(out.winner, "greedy", "attempt {attempt}");
        assert!(
            matches!(
                out.report[0].status,
                MemberStatus::Failed {
                    error: CoreError::StructureMismatch { .. }
                }
            ),
            "attempt {attempt}: {:?}",
            out.report[0].status
        );
    }
    // Attempt 3: the outage is over and the recovered member wins.
    let out = chain
        .solve(&p, &Budget::unlimited())
        .expect("recovered member must solve");
    assert_eq!(out.winner, "faulty_transient");
    assert!(out.solution.is_feasible(&p));
}

#[test]
fn slow_start_member_succeeds_once_its_warmup_fits_the_budget() {
    let p = chain_problem(6, 3, &[1, 3]);
    // No healthy fallback here: the retry loop itself must ride the
    // cold start down. 40k warm-up against a 15k budget: attempts 1
    // and 2 exhaust on the warm-up charge (40k, then 20k), attempt 3
    // charges 10k and has budget left to actually solve.
    let chain = Portfolio::new(Objective::Standard).with(FaultySolver::new(
        GreedySolver,
        FaultMode::SlowStart {
            warmup_ticks: 40_000,
        },
    ));
    let mut succeeded_on = None;
    for attempt in 0..4 {
        let budget = Budget::with_ticks(15_000);
        match chain.solve(&p, &budget) {
            Ok(out) => {
                assert!(out.solution.is_feasible(&p));
                succeeded_on = Some(attempt);
                break;
            }
            Err(e) => {
                assert!(
                    matches!(e, CoreError::BudgetExhausted { .. }),
                    "attempt {attempt}: {e:?}"
                );
                assert!(budget.is_exhausted(), "attempt {attempt}");
            }
        }
    }
    assert_eq!(
        succeeded_on,
        Some(2),
        "the 40k warm-up halves to 10k by the third attempt"
    );
}

// -------------------------------------------------------------------
// Scenario 5 (regression): a stalled member on an *unlimited* budget —
// no tick limit, no deadline to drain against — must still be reapable
// from outside via pool-wide cancellation, because the stall loop polls
// its cancel token without charging.
// -------------------------------------------------------------------

#[test]
fn stalled_chain_on_an_unlimited_budget_is_reaped_by_pool_cancellation() {
    let p = chain_problem(6, 3, &[1, 3]);
    let chain = faulty_chain(FaultMode::Stall);
    let budget = Budget::unlimited();
    let result = std::thread::scope(|s| {
        let solver = s.spawn(|| chain.solve(&p, &budget));
        // Wait until the stall is demonstrably spinning (its checkpoint
        // charges tick the pool meter), then pull the kill switch.
        while budget.used() < 100 {
            std::thread::yield_now();
        }
        budget.cancel_all_with_cause("request cancelled");
        solver.join().expect("stalled chain must terminate")
    });
    let err = result.expect_err("a fully cancelled chain cannot produce a solution");
    // The chain lost to cancellation, not to the budget, and every
    // member that ran was cancelled — none panicked, none hung.
    assert!(!budget.is_exhausted());
    assert!(budget.is_cancelled());
    assert_eq!(budget.cancel_cause(), Some("request cancelled"));
    assert!(
        matches!(
            err,
            CoreError::Cancelled { .. } | CoreError::Infeasible { .. }
        ),
        "got {err:?}"
    );
}

// -------------------------------------------------------------------
// Scenario 7: the sharded path runs the caller's members, faults and all.
// -------------------------------------------------------------------

/// Three value-disjoint forest copies: a multi-component instance.
fn disjoint_forest() -> Problem {
    forest::generate_disjoint(
        ForestParams {
            levels: 4,
            window: 2,
            chains: 12,
            delete_fraction: 0.3,
            weighted: false,
        },
        3,
        11,
    )
}

#[test]
fn sharded_all_panicking_portfolio_is_a_typed_error() {
    let p = disjoint_forest();
    let chain =
        Portfolio::new(Objective::Standard).with(FaultySolver::new(GreedySolver, FaultMode::Panic));
    // No member can verify on any shard, and the budget is healthy: the
    // sharded solve must fail typed, not fall back to a built-in chain.
    let err = chain
        .solve_sharded(&p, &Budget::unlimited())
        .expect_err("a panicking-only portfolio must not certify anything");
    assert!(matches!(err, CoreError::Infeasible { .. }), "got {err:?}");
}

#[test]
fn sharded_chain_recovers_past_a_panicking_member_on_every_shard() {
    let p = disjoint_forest();
    let chain = faulty_chain(FaultMode::Panic);
    let ir = p.compiled_arc();
    let out = shard::solve_sharded_with(&chain, &ir, &Budget::unlimited()).unwrap();
    assert!(out.shards >= 3, "copies stay value-disjoint");
    assert!(!out.degraded);
    for s in &out.per_shard {
        assert_eq!(s.member, "greedy");
    }
    assert!(out.solution.is_feasible(&p));
    // The portfolio entry point reports the same merged answer.
    let whole = chain.solve_sharded(&p, &Budget::unlimited()).unwrap();
    assert_eq!(whole.winner, "sharded");
    assert_eq!(whole.solution, out.solution);
    assert_eq!(whole.cost.to_bits(), out.cost.to_bits());
}

// -------------------------------------------------------------------
// The invariant, stated as a sweep: under every fault mode the portfolio
// returns a verified solution or a typed error — never panics.
// -------------------------------------------------------------------

#[test]
fn every_fault_mode_is_survivable() {
    let p = chain_problem(8, 3, &[1, 4, 6]);
    for mode in [
        FaultMode::None,
        FaultMode::Panic,
        FaultMode::Stall,
        FaultMode::ExhaustBudget,
        FaultMode::Transient { fail_count: 1 },
        FaultMode::SlowStart {
            warmup_ticks: 1_000,
        },
        FaultMode::Infeasible,
        FaultMode::Corrupt,
        FaultMode::TypedError,
    ] {
        let budget = Budget::with_ticks(100_000);
        match faulty_chain(mode).solve(&p, &budget) {
            Ok(out) => {
                assert!(out.solution.is_feasible(&p), "{mode:?}");
                // The cost reported is the verified cost, recomputed here.
                assert!((out.cost - out.solution.side_effect(&p)).abs() < 1e-12);
            }
            Err(e) => assert!(
                matches!(e, CoreError::BudgetExhausted { .. }),
                "{mode:?} gave unexpected error {e:?}"
            ),
        }
    }
}
