//! Degenerate-instance coverage: every solver adapter (and both
//! portfolio chains) is driven through the corner cases adversarial
//! callers produce — empty `ΔV`, `ΔV = V`, zero weights, equal-weight
//! ties, single-relation views, duplicate deletion requests — and must
//! return either a verified solution or a typed `CoreError`. A panic
//! anywhere fails the test.

use delprop::core::runtime::solver::{
    DpTreeSolver, ExactBalancedSolver, ExactSolver, GeneralBalancedSolver, GeneralSolver,
    GreedySolver, LocalSearchSolver, LowDegTreeSolver, LpRoundSolver, PrimalDualBalancedSolver,
    PrimalDualSolver, SingleQuerySolver, SourceGreedySolver,
};
use delprop::prelude::*;
use delprop::query::parse_query;
use delprop::relation::{Database, RelationSchema, Schema};

fn standard_members() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SingleQuerySolver),
        Box::new(DpTreeSolver),
        Box::new(LowDegTreeSolver),
        Box::new(PrimalDualSolver),
        Box::new(LpRoundSolver),
        Box::new(GeneralSolver),
        Box::new(GreedySolver),
        Box::new(ExactSolver::default()),
        Box::new(LocalSearchSolver),
        Box::new(SourceGreedySolver),
    ]
}

fn balanced_members() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(ExactBalancedSolver::default()),
        Box::new(PrimalDualBalancedSolver),
        Box::new(GeneralBalancedSolver),
    ]
}

/// Drive every member that applies through `problem`; verified feasible
/// output or typed error, never a panic. Returns how many members ran.
fn exercise(problem: &Problem, label: &str) -> usize {
    let budget = Budget::unlimited();
    let ir = problem.compiled();
    let mut ran = 0;
    for m in standard_members() {
        if !m.applies(ir) {
            continue;
        }
        ran += 1;
        match m.solve(ir, &budget) {
            Ok(sol) => {
                assert!(
                    sol.is_feasible(problem),
                    "{label}: {} returned infeasible output",
                    m.name()
                );
                sol.verify_by_reevaluation(problem);
            }
            Err(e) => {
                // Typed error — must display cleanly.
                assert!(!e.to_string().is_empty(), "{label}: {}", m.name());
            }
        }
    }
    for m in balanced_members() {
        if !m.applies(ir) {
            continue;
        }
        ran += 1;
        match m.solve(ir, &budget) {
            Ok(sol) => {
                sol.verify_by_reevaluation(problem);
                assert!(
                    sol.balanced_cost(problem).is_finite(),
                    "{label}: {} returned non-finite balanced cost",
                    m.name()
                );
            }
            Err(e) => assert!(!e.to_string().is_empty(), "{label}: {}", m.name()),
        }
    }
    // Both portfolio chains must succeed outright: greedy (standard) and
    // the Lemma 1 reduction (balanced) are always applicable.
    let std_out = solve_portfolio(problem)
        .unwrap_or_else(|e| panic!("{label}: standard portfolio failed: {e}"));
    assert!(std_out.solution.is_feasible(problem), "{label}");
    let bal_out = solve_portfolio_balanced(problem)
        .unwrap_or_else(|e| panic!("{label}: balanced portfolio failed: {e}"));
    assert!(bal_out.cost.is_finite(), "{label}");
    ran
}

/// Two-relation chain database with `n` join values.
fn two_rel_db(n: i64) -> Database {
    let schema = Schema::from_relations([
        RelationSchema::new("R", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("S", 2, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    for i in 0..n {
        for (name, t) in [("R", tup![i, i % 3]), ("S", tup![i % 3, (i + 1) % 2])] {
            let rid = db.schema().relation_id(name).unwrap();
            if db.find_by_key(rid, t.values()).is_none() {
                db.insert(name, t).unwrap();
            }
        }
    }
    db
}

fn two_rel_problem(n: i64) -> Problem {
    let db = two_rel_db(n);
    let q = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    Problem::new(db, vec![q]).unwrap()
}

#[test]
fn empty_delta_v_costs_zero_everywhere() {
    let p = two_rel_problem(6);
    assert_eq!(p.norm_delta(), 0);
    exercise(&p, "empty ΔV");
    let out = solve_portfolio(&p).unwrap();
    assert!(out.solution.is_empty());
    assert_eq!(out.cost, 0.0);
}

#[test]
fn delta_v_equals_v_leaves_nothing_to_damage() {
    let mut p = two_rel_problem(6);
    let all: Vec<_> = p.views().iter().map(|(id, _)| id).collect();
    for id in all {
        p.mark_deleted_id(id).unwrap();
    }
    assert_eq!(p.norm_delta(), p.norm_v());
    exercise(&p, "ΔV = V");
    // With no preserved tuples the side-effect of any feasible solution
    // is zero.
    let out = solve_portfolio(&p).unwrap();
    assert_eq!(out.cost, 0.0);
    assert!(out.solution.is_feasible(&p));
}

#[test]
fn zero_weights_make_every_feasible_solution_optimal() {
    let mut p = two_rel_problem(6);
    let ids: Vec<_> = p.views().iter().map(|(id, _)| id).collect();
    p.mark_deleted_id(ids[0]).unwrap();
    for id in ids {
        p.set_weight(id, 0.0).unwrap();
    }
    exercise(&p, "zero weights");
    let out = solve_portfolio(&p).unwrap();
    assert_eq!(out.cost, 0.0);
    // Balanced: missing the demand is also free, so the optimum is 0 and
    // the empty solution is among the optima.
    let bal = solve_portfolio_balanced(&p).unwrap();
    assert_eq!(bal.cost, 0.0);
}

#[test]
fn equal_weight_ties_are_broken_deterministically() {
    let build = || {
        let mut p = two_rel_problem(8);
        let ids: Vec<_> = p.views().iter().map(|(id, _)| id).collect();
        p.mark_deleted_id(ids[0]).unwrap();
        p.mark_deleted_id(ids[ids.len() / 2]).unwrap();
        for id in ids {
            p.set_weight(id, 2.5).unwrap();
        }
        p
    };
    let p = build();
    exercise(&p, "equal weights");
    // Ties must not introduce nondeterminism: two identical runs return
    // the identical solution.
    let a = solve_portfolio(&p).unwrap();
    let b = solve_portfolio(&build()).unwrap();
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.winner, b.winner);
}

#[test]
fn single_relation_views_have_self_witnesses() {
    let schema =
        Schema::from_relations([RelationSchema::new("R", 2, vec![0, 1]).unwrap()]).unwrap();
    let mut db = Database::new(schema);
    for i in 0..5i64 {
        db.insert("R", tup![i, i + 1]).unwrap();
    }
    let q = parse_query("Q(x, y) :- R(x, y)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    p.mark_deleted(0, &tup![2i64, 3i64]).unwrap();
    exercise(&p, "single-relation view");
    // The only witness of a single-atom view tuple is its own base
    // tuple, so the optimal side-effect is 0: nothing else dies.
    let out = solve_portfolio(&p).unwrap();
    assert_eq!(out.cost, 0.0);
    assert_eq!(out.solution.len(), 1);
}

#[test]
fn duplicate_deletion_requests_are_idempotent() {
    let mut p = two_rel_problem(6);
    let id = p.views().iter().map(|(id, _)| id).next().unwrap();
    p.mark_deleted_id(id).unwrap();
    p.mark_deleted_id(id).unwrap();
    p.mark_deleted_id(id).unwrap();
    assert_eq!(p.norm_delta(), 1, "ΔV is a set: duplicates collapse");
    exercise(&p, "duplicate deletions");

    let mut q = two_rel_problem(6);
    q.mark_deleted_id(id).unwrap();
    let once = solve_portfolio(&q).unwrap();
    let thrice = solve_portfolio(&p).unwrap();
    assert_eq!(once.solution, thrice.solution);
}

#[test]
fn unknown_view_tuples_are_typed_errors() {
    let mut p = two_rel_problem(4);
    let err = p.mark_deleted(7, &tup![0i64, 0i64, 0i64]).unwrap_err();
    assert!(matches!(err, CoreError::UnknownViewTuple { .. }));
    let err = p.mark_deleted(0, &tup![99i64, 99i64, 99i64]).unwrap_err();
    assert!(matches!(err, CoreError::UnknownViewTuple { .. }));
    let err = p
        .set_weight(delprop::query::ViewTupleId::new(0, 10_000), 1.0)
        .unwrap_err();
    assert!(matches!(err, CoreError::UnknownViewTuple { .. }));
    let err = p
        .set_weight(delprop::query::ViewTupleId::new(0, 0), f64::NAN)
        .unwrap_err();
    assert!(matches!(err, CoreError::InvalidWeight { .. }));
}

#[test]
fn all_weights_zero_and_delta_v_equals_v_combined() {
    // Stack the degeneracies: every view tuple deleted AND zero-weighted.
    let mut p = two_rel_problem(5);
    let all: Vec<_> = p.views().iter().map(|(id, _)| id).collect();
    for id in all {
        p.mark_deleted_id(id).unwrap();
        p.set_weight(id, 0.0).unwrap();
    }
    exercise(&p, "ΔV = V, all zero-weight");
}

#[test]
fn larger_domain_value_types_survive() {
    // Strings and negative integers as join values, single demand.
    let schema = Schema::from_relations([
        RelationSchema::new("R", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("S", 2, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    for (a, b) in [("alpha", -1i64), ("beta", -2), ("gamma", -1)] {
        db.insert("R", tup![a, b]).unwrap();
        db.insert("S", tup![b, a]).unwrap();
    }
    let q = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    let first = p.views().iter().map(|(id, _)| id).next().unwrap();
    p.mark_deleted_id(first).unwrap();
    exercise(&p, "mixed value types");
}

#[test]
fn degenerate_instances_under_tiny_budgets_stay_typed() {
    // Budget pressure on top of degeneracy: either a verified solution
    // (from a member that fit) or BudgetExhausted — never a panic.
    let mut p = two_rel_problem(8);
    let ids: Vec<_> = p.views().iter().map(|(id, _)| id).collect();
    p.mark_deleted_id(ids[0]).unwrap();
    for ticks in [0, 1, 5, 50, 5_000] {
        let budget = Budget::with_ticks(ticks);
        match Portfolio::standard().solve(&p, &budget) {
            Ok(out) => assert!(out.solution.is_feasible(&p)),
            Err(e) => assert!(
                matches!(e, CoreError::BudgetExhausted { .. }),
                "ticks={ticks}: unexpected {e:?}"
            ),
        }
    }
}
