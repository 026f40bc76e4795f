//! The single-query tractable case recalled in §III of the paper: for one
//! key-preserving conjunctive query and a **single** view-tuple deletion,
//! the optimum is found in polynomial time (Cong et al., TKDE 2012).
//!
//! With a unique witness set `{t_1, …, t_k}` for the deleted view tuple,
//! a minimal feasible solution deletes exactly one `t_i`, and the
//! side-effect of each choice is the weight of the preserved view tuples
//! whose witness sets contain `t_i` — directly readable off the compiled
//! incidence rows ("finding the occurrences of key values of the
//! deleted relation tuples in the view", §II.C). Minimizing over the `k ≤
//! l` choices is exact.
//!
//! For multiple deletions on a single query the problem is already
//! covered by the general machinery; [`solve_single_deletion`] rejects
//! such inputs instead of silently being heuristic.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;

/// Exact polynomial solver for |Q| = 1 and |ΔV| = 1.
// lint:allow(budget): one scan of a single demand row, O(row length)
pub fn solve_single_deletion(ir: &CompiledInstance) -> Result<Solution, CoreError> {
    crate::runtime::metrics::SOLVE_SINGLE_QUERY.inc();
    if ir.num_queries() != 1 {
        return Err(CoreError::StructureMismatch {
            solver: "single_query",
            reason: format!("expected exactly one query, got {}", ir.num_queries()),
        });
    }
    if ir.norm_delta() != 1 {
        return Err(CoreError::StructureMismatch {
            solver: "single_query",
            reason: format!(
                "expected exactly one deleted view tuple, got {}",
                ir.norm_delta()
            ),
        });
    }
    let mut best: Option<(f64, u32)> = None;
    // The demand's witness row lists candidates in ascending TupleId
    // order, matching the witness-set order of the uncompiled path; the
    // incidence row of each candidate is exactly the preserved view
    // tuples its deletion would damage.
    let (incidence, weights) = (ir.incidence_rows(), ir.vulnerable_weights());
    for &b in ir.demand_rows().row(0) {
        let damage: f64 = incidence.row(b).iter().map(|&r| weights[r as usize]).sum();
        if best.is_none_or(|(d, _)| damage < d) {
            best = Some((damage, b));
        }
    }
    // Key-preserving views (enforced by `Problem::new`) give every view
    // tuple a non-empty witness set; an empty one means the instance was
    // built by other means and the demand can never be eliminated.
    let (_, b) = best.ok_or_else(|| CoreError::Infeasible {
        reason: format!("deleted view tuple {:?} has no witnesses", ir.demand(0)),
    })?;
    Ok(Solution::from_tuples([ir.base(b)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::fig1_problem;
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn fig1_single_deletion_matches_paper() {
        // §II.C: for ΔV = (John, TKDE, XML) on Q4, deleting T1(John,TKDE)
        // gives side-effect 1 (the (John,TKDE,CUBE) tuple), while deleting
        // T2(TKDE,XML,30) gives 2. The solver must pick the former.
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let sol = solve_single_deletion(p.compiled()).unwrap();
        assert!(sol.is_feasible(&p));
        assert_eq!(sol.side_effect(&p), 1.0);
        assert_eq!(sol.len(), 1);
        let opt = exact::solve(p.compiled(), ExactConfig::default());
        assert_eq!(sol.side_effect(&p), opt.cost);
    }

    #[test]
    fn weights_change_the_choice() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            let idx = p.views().views[0]
                .position_of(&tup!["John", "TKDE", "CUBE"])
                .unwrap();
            p.set_weight(delprop_query::ViewTupleId::new(0, idx), 5.0)
                .unwrap();
        });
        let sol = solve_single_deletion(p.compiled()).unwrap();
        // T1 choice now costs 5, T2 choice costs 2.
        assert_eq!(sol.side_effect(&p), 2.0);
    }

    #[test]
    fn rejects_multi_query_or_multi_deletion() {
        let p = fig1_problem(
            &[
                ("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
                ("Q5", "Q5(y, z) :- T2(y, z, w)"),
            ],
            |p| {
                p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            },
        );
        assert!(solve_single_deletion(p.compiled()).is_err());

        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            p.mark_deleted(0, &tup!["John", "TODS", "XML"]).unwrap();
        });
        assert!(solve_single_deletion(p.compiled()).is_err());
    }

    #[test]
    fn matches_exact_on_every_possible_single_deletion() {
        let base = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |_| {});
        let heads: Vec<_> = base.views().views[0]
            .tuples
            .iter()
            .map(|vt| vt.head.clone())
            .collect();
        for head in heads {
            let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
                p.mark_deleted(0, &head).unwrap();
            });
            let sol = solve_single_deletion(p.compiled()).unwrap();
            let opt = exact::solve(p.compiled(), ExactConfig::default());
            assert_eq!(
                sol.side_effect(&p),
                opt.cost,
                "single-query solver suboptimal for deletion {head:?}"
            );
        }
    }
}
