//! `DPTreeVSE` — Algorithm 4 of the paper: an **exact** polynomial dynamic
//! program for the restricted forest case with pivot tuples (§IV.E).
//!
//! Precondition (certified once at IR compile time via
//! `delprop-hypergraph::find_pivot_structure` and cached as
//! [`CompiledInstance::pivot`]): the data dual graph is a forest and each
//! component has a pivot tuple from which every view tuple's witness set
//! is a root-prefix path. Under that structure, deleting a tuple `t`
//! eliminates exactly the view tuples whose path endpoint lies in `t`'s
//! subtree, deletions below a deleted tuple are redundant, and a
//! two-option post-order recursion is exact:
//!
//! - **standard**: `DP(v) = redsub(v)` if a demand ends at `v`, else
//!   `min(redsub(v), Σ_children DP(c))`, where `redsub(v)` is the
//!   preserved weight ending in `v`'s subtree;
//! - **balanced**: `DP(v) = min(redsub(v), blue(v) + Σ_children DP(c))`,
//!   pricing missed demands instead of forbidding them.
//!
//! Both run in `O(|V(graph)| + ‖V‖)` after the pivot certification — the
//! paper's "poly size status transition array" sharpened to linear.

use crate::error::CoreError;
use crate::ir::{CompiledInstance, PivotData};
use crate::solution::Solution;
use delprop_relation::TupleId;

/// Whether the pivot-forest precondition holds for the instance.
pub fn applies(ir: &CompiledInstance) -> bool {
    ir.pivot().is_some()
}

/// Solve the standard view side-effect exactly.
pub fn solve(ir: &CompiledInstance) -> Result<Solution, CoreError> {
    crate::runtime::metrics::SOLVE_DP_TREE.inc();
    run(ir, Mode::Standard)
}

/// Solve the balanced objective exactly.
pub fn solve_balanced(ir: &CompiledInstance) -> Result<Solution, CoreError> {
    crate::runtime::metrics::SOLVE_DP_TREE.inc();
    run(ir, Mode::Balanced)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Standard,
    Balanced,
}

fn pivot(ir: &CompiledInstance) -> Result<&PivotData, CoreError> {
    ir.pivot().ok_or_else(|| CoreError::StructureMismatch {
        solver: "DPTreeVSE",
        reason: "data dual graph is not a pivot forest (no pivot tuple \
                 makes every witness set a root-prefix path)"
            .into(),
    })
}

// lint:allow(budget): tree DP is two O(n) passes over bfs_order; the runtime adapter charges it coarsely
fn run(ir: &CompiledInstance, mode: Mode) -> Result<Solution, CoreError> {
    let pivot = pivot(ir)?;
    let n = pivot.num_vertices();

    // Per-vertex endpoint weights.
    let mut red_at = vec![0.0f64; n]; // preserved weight ending here
    let mut blue_at = vec![0.0f64; n]; // demand weight ending here
    let mut blue_count_at = vec![0usize; n];
    // The ΔV flags, walked against the ascending demand layout indices.
    let mut demands = ir.demand_idx().iter().peekable();
    for (i, &endpoint) in pivot.endpoints.iter().enumerate() {
        let endpoint = endpoint as usize;
        if demands.next_if_eq(&&(i as u32)).is_some() {
            blue_at[endpoint] += ir.view_weight(i);
            blue_count_at[endpoint] += 1;
        } else {
            red_at[endpoint] += ir.view_weight(i);
        }
    }

    // Post-order: reverse BFS order visits children before parents.
    let mut redsub = red_at.clone();
    for &v in pivot.bfs_order.iter().rev() {
        let v = v as usize;
        for &c in pivot.children_of(v) {
            redsub[v] += redsub[c as usize];
        }
    }

    // DP values + whether the optimal choice at v (in the "no ancestor
    // deleted" context) is to delete v.
    let mut dp = vec![0.0f64; n];
    let mut delete_here = vec![false; n];
    for &v in pivot.bfs_order.iter().rev() {
        let v = v as usize;
        let keep_children: f64 = pivot.children_of(v).iter().map(|&c| dp[c as usize]).sum();
        let (keep_allowed, keep_cost) = match mode {
            Mode::Standard => (blue_count_at[v] == 0, keep_children),
            Mode::Balanced => (true, blue_at[v] + keep_children),
        };
        let delete_cost = redsub[v];
        if !keep_allowed || delete_cost < keep_cost {
            dp[v] = delete_cost;
            delete_here[v] = true;
        } else {
            dp[v] = keep_cost;
            delete_here[v] = false;
        }
    }

    // Reconstruct: walk down from each root, stopping at deletions.
    let mut deleted: Vec<TupleId> = Vec::new();
    let mut stack: Vec<usize> = pivot.roots.iter().map(|&r| r as usize).collect();
    while let Some(v) = stack.pop() {
        if delete_here[v] {
            deleted.push(pivot.vertex_tuple[v]);
        } else {
            stack.extend(pivot.children_of(v).iter().map(|&c| c as usize));
        }
    }
    Ok(Solution::from_tuples(deleted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::{fig1_problem, star_problem};
    use delprop_query::ViewTupleId;
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn star_problem_has_pivot_structure() {
        let p = star_problem(6, &[1, 3]);
        assert!(applies(p.compiled()));
    }

    #[test]
    fn matches_exact_on_star_instances() {
        for blue in [&[0usize][..], &[1, 4], &[0, 2, 5], &[0, 1, 2, 3, 4, 5]] {
            let p = star_problem(6, blue);
            let dp = solve(p.compiled()).unwrap();
            assert!(dp.is_feasible(&p));
            let opt = exact::solve(p.compiled(), ExactConfig::default());
            assert!(
                (dp.side_effect(&p) - opt.cost).abs() < 1e-9,
                "DP {} != OPT {} for blues {:?}",
                dp.side_effect(&p),
                opt.cost,
                blue
            );
        }
    }

    #[test]
    fn matches_exact_balanced_on_star_instances() {
        for blue in [&[0usize][..], &[1, 4], &[0, 2, 5]] {
            let p = star_problem(6, blue);
            let dp = solve_balanced(p.compiled()).unwrap();
            let opt = exact::solve_balanced(p.compiled(), ExactConfig::default());
            assert!(
                (dp.balanced_cost(&p) - opt.cost).abs() < 1e-9,
                "DP balanced {} != OPT {} for blues {:?}",
                dp.balanced_cost(&p),
                opt.cost,
                blue
            );
        }
    }

    #[test]
    fn weighted_star_steers_the_dp() {
        let mut p = star_problem(4, &[0]);
        // Every preserved view tuple weighs 100. The cheapest cut deletes
        // the branch tip, losing only the Q3b twin: cost exactly 100 —
        // and the DP must still match the exact optimum.
        let ids: Vec<ViewTupleId> = p.preserved().map(|(id, _)| id).collect();
        for id in ids {
            p.set_weight(id, 100.0).unwrap();
        }
        let dp = solve(p.compiled()).unwrap();
        assert!(dp.is_feasible(&p));
        assert_eq!(dp.side_effect(&p), 100.0);
        let opt = exact::solve(p.compiled(), ExactConfig::default());
        assert_eq!(dp.side_effect(&p), opt.cost);
    }

    #[test]
    fn non_pivot_structure_is_rejected() {
        // Fig. 1 Q4: witness paths share the T2 tuple across different T1
        // tuples and vice versa — no pivot.
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        assert!(!applies(p.compiled()));
        assert!(matches!(
            solve(p.compiled()),
            Err(CoreError::StructureMismatch { .. })
        ));
    }

    #[test]
    fn balanced_may_leave_demands_uncut() {
        let mut p = star_problem(4, &[0]);
        // The cheapest cut costs 1 (the Q3b twin on the branch tip), but
        // the demand itself weighs only 0.1: the balanced optimum leaves
        // it uncut and pays 0.1. The standard version must still cut.
        let blue_id = *p.deletions().iter().next().unwrap();
        p.set_weight(blue_id, 0.1).unwrap();
        let bal = solve_balanced(p.compiled()).unwrap();
        assert!((bal.balanced_cost(&p) - 0.1).abs() < 1e-9);
        assert!(bal.is_empty(), "balanced optimum deletes nothing here");
        let std = solve(p.compiled()).unwrap();
        assert!(std.is_feasible(&p));
        assert_eq!(std.side_effect(&p), 1.0);
    }

    #[test]
    fn empty_demand_set_deletes_nothing() {
        let p = star_problem(3, &[]);
        let sol = solve(p.compiled()).unwrap();
        assert!(sol.is_empty());
        let sol = solve_balanced(p.compiled()).unwrap();
        assert_eq!(sol.balanced_cost(&p), 0.0);
    }
}
