//! Structural classification of an instance and solver recommendation —
//! the operational form of the paper's case analysis (§III–§IV).

use crate::problem::Problem;
use crate::solvers::dp_tree;
use delprop_query::properties;
use std::fmt;

/// Which solver the paper's case analysis selects for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// |Q| = 1, |ΔV| = 1: exact polynomial choice of cheapest witness
    /// (Cong et al., recalled in §III).
    SingleQuerySingleDeletion,
    /// Pivot-forest data dual graph: exact polynomial dynamic program
    /// (`DPTreeVSE`, §IV.E).
    PivotForestDp,
    /// Forest case (dual hypergraph components are hypertrees): run both
    /// `PrimeDualVSE` (ratio `l`) and `LowDegTreeVSETwo` (ratio `2√‖V‖`)
    /// and keep the better — the paper offers both precisely because
    /// either factor can win (§IV.C–D).
    ForestApproximation,
    /// General case: Red-Blue reduction + low-degree algorithm, ratio
    /// `O(2√(l·‖V‖·log‖ΔV‖))` (Claim 1). Theorem 1 says no constant
    /// factor is possible, so this is the end of the line.
    GeneralApproximation,
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolverKind::SingleQuerySingleDeletion => "single-query single-deletion (exact, poly)",
            SolverKind::PivotForestDp => "DPTreeVSE (exact, poly)",
            SolverKind::ForestApproximation => {
                "PrimeDualVSE / LowDegTreeVSETwo (ratio min(l, 2√‖V‖))"
            }
            SolverKind::GeneralApproximation => {
                "Red-Blue reduction + LowDeg (ratio O(2√(l·‖V‖·log‖ΔV‖)))"
            }
        };
        f.write_str(s)
    }
}

/// Structural facts about an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureReport {
    /// All queries project-free (select-join)?
    pub all_project_free: bool,
    /// All queries self-join-free?
    pub all_self_join_free: bool,
    /// `l = max arity(Q)`.
    pub l: usize,
    /// Number of queries.
    pub num_queries: usize,
    /// `‖V‖`, `‖ΔV‖`.
    pub norm_v: usize,
    /// Total deletions.
    pub norm_delta: usize,
    /// Dual hypergraph components are all hypertrees (§IV.B forest case)?
    pub forest_case: bool,
    /// Data dual graph certified as pivot forest (§IV.E)?
    pub pivot_case: bool,
    /// The recommended solver.
    pub recommendation: SolverKind,
}

/// Analyze an instance and recommend a solver per the paper's hierarchy:
/// exact cases first, then the forest approximations, then the general
/// approximation.
pub fn classify(problem: &Problem) -> StructureReport {
    let all_project_free = problem.queries().iter().all(properties::is_project_free);
    let all_self_join_free = problem.queries().iter().all(properties::is_self_join_free);
    // Both structural certificates are computed once at IR compile time.
    let ir = problem.compiled();
    let forest_case = ir.forest_case();
    let pivot_case = dp_tree::applies(ir);
    let recommendation = if problem.queries().len() == 1 && problem.norm_delta() == 1 {
        SolverKind::SingleQuerySingleDeletion
    } else if pivot_case {
        SolverKind::PivotForestDp
    } else if forest_case {
        SolverKind::ForestApproximation
    } else {
        SolverKind::GeneralApproximation
    };
    StructureReport {
        all_project_free,
        all_self_join_free,
        l: problem.l(),
        num_queries: problem.queries().len(),
        norm_v: problem.norm_v(),
        norm_delta: problem.norm_delta(),
        forest_case,
        pivot_case,
        recommendation,
    }
}

/// Run the recommended solver and return its solution (standard
/// objective). The workhorse entry point for users who just want an
/// answer.
pub fn solve_auto(problem: &Problem) -> Result<crate::solution::Solution, crate::error::CoreError> {
    use crate::solvers::{general, lowdeg_tree, primal_dual, single_query};
    let ir = problem.compiled();
    match classify(problem).recommendation {
        SolverKind::SingleQuerySingleDeletion => single_query::solve_single_deletion(ir),
        SolverKind::PivotForestDp => dp_tree::solve(ir),
        SolverKind::ForestApproximation => {
            let pd = primal_dual::solve_default(ir)?;
            let ld = lowdeg_tree::solve(ir)?;
            Ok(if ir.side_effect_of(&pd) <= ir.side_effect_of(&ld) {
                pd
            } else {
                ld
            })
        }
        SolverKind::GeneralApproximation => general::solve(ir),
    }
}

/// Run the recommended solver for the **balanced** objective: the exact
/// DP on pivot forests, the prize-collecting primal-dual on other forest
/// cases, the single-deletion comparison on the single-query case, and
/// the Lemma 1 reduction in general.
pub fn solve_auto_balanced(
    problem: &Problem,
) -> Result<crate::solution::Solution, crate::error::CoreError> {
    use crate::solution::Solution;
    use crate::solvers::{dp_tree, general, primal_dual_balanced, single_query};
    let ir = problem.compiled();
    match classify(problem).recommendation {
        SolverKind::SingleQuerySingleDeletion => {
            // Either cut optimally or leave the single demand in place —
            // whichever is cheaper.
            let cut = single_query::solve_single_deletion(ir)?;
            let leave = Solution::empty();
            Ok(
                if ir.balanced_cost_of(&cut) <= ir.balanced_cost_of(&leave) {
                    cut
                } else {
                    leave
                },
            )
        }
        SolverKind::PivotForestDp => dp_tree::solve_balanced(ir),
        SolverKind::ForestApproximation => {
            primal_dual_balanced::solve_balanced(ir, &Default::default()).map(|o| o.solution)
        }
        SolverKind::GeneralApproximation => Ok(general::solve_balanced(ir)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_problem, fig1_problem, star_problem};
    use delprop_relation::tup;

    #[test]
    fn fig1_single_deletion_classified() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let r = classify(&p);
        assert_eq!(r.recommendation, SolverKind::SingleQuerySingleDeletion);
        assert!(!r.all_project_free);
        assert!(r.all_self_join_free);
        assert_eq!(r.l, 3);
    }

    #[test]
    fn star_is_pivot_case() {
        let p = star_problem(4, &[0, 2]);
        let r = classify(&p);
        assert_eq!(r.recommendation, SolverKind::PivotForestDp);
        assert!(r.pivot_case);
        assert!(r.forest_case, "pivot cases are forest cases");
    }

    #[test]
    fn merging_chains_are_pivot_cases() {
        // Binary-merging chains group into components that all share
        // their top tuple, which is a pivot — the DP applies.
        let p = chain_problem(8, 3, &[1, 4]);
        let r = classify(&p);
        assert!(r.forest_case);
        assert!(r.pivot_case);
        assert_eq!(r.recommendation, SolverKind::PivotForestDp);
    }

    #[test]
    fn staggered_windows_are_forest_but_not_pivot() {
        use crate::test_support::staggered_problem;
        let p = staggered_problem(4, 3, &[(1, 0), (2, 2)]);
        let r = classify(&p);
        assert!(r.forest_case, "window queries over a chain are hypertrees");
        assert!(
            !r.pivot_case,
            "staggered windows share no common tuple: no pivot"
        );
        assert_eq!(r.recommendation, SolverKind::ForestApproximation);
    }

    #[test]
    fn solve_auto_is_feasible_everywhere() {
        for p in [
            fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
                p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            }),
            chain_problem(8, 3, &[1, 4]),
            star_problem(4, &[0, 2]),
        ] {
            let sol = solve_auto(&p).unwrap();
            assert!(sol.is_feasible(&p));
        }
    }

    #[test]
    fn solve_auto_balanced_routes_every_family() {
        use crate::solvers::exact;
        use delprop_setcover::exact::ExactConfig;
        for p in [
            fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
                p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            }),
            chain_problem(8, 3, &[1, 4]),
            star_problem(4, &[0, 2]),
        ] {
            let sol = solve_auto_balanced(&p).unwrap();
            let opt = exact::solve_balanced(p.compiled(), ExactConfig::default()).cost;
            assert!(
                sol.balanced_cost(&p) >= opt - 1e-9,
                "cannot beat the optimum"
            );
            // On these families the routed solver is exact or near-exact.
            assert!(sol.balanced_cost(&p) <= opt + p.l() as f64 + 1e-9);
        }
    }

    #[test]
    fn balanced_single_deletion_pays_cheap_prizes() {
        let mut p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let blue = *p.deletions().iter().next().unwrap();
        p.set_weight(blue, 0.1).unwrap();
        let sol = solve_auto_balanced(&p).unwrap();
        assert!(sol.is_empty(), "paying 0.1 beats any cut (min cut costs 1)");
    }

    #[test]
    fn display_names_are_informative() {
        assert!(SolverKind::PivotForestDp.to_string().contains("DPTreeVSE"));
        assert!(SolverKind::GeneralApproximation
            .to_string()
            .contains("Red-Blue"));
    }
}
