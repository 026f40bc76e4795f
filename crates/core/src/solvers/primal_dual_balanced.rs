//! The balanced counterpart of `PrimeDualVSE` (§IV.C: "Similar results
//! will be shown for the balanced version"): a prize-collecting
//! primal-dual in the style of Goemans–Williamson.
//!
//! In the balanced problem a demand `r ∈ ΔV` need not be cut — leaving it
//! costs its weight `w_r`. The dual therefore gains the constraint
//! `v_r ≤ w_r` on top of the per-tuple capacities
//! `cap(t) = Σ_{s∋t} w_s/k_s` of the standard algorithm: a demand's dual
//! rises until either **a witness saturates** (cut it, as before) or
//! **its own prize is exhausted** (leave it and pay `w_r`). The reverse
//! pass prunes deletions whose removal does not worsen the balanced
//! objective.
//!
//! `Σ v_r` remains dual-feasible for the balanced LP, hence a certified
//! lower bound on the balanced optimum; experiment EX-L1's sibling tests
//! verify it against the exact solver.
//!
//! Capacities, loads, and the reverse pass all run over the compiled
//! dense index; the reverse pass maintains integer cut/damage counters
//! per demand and per vulnerable tuple, so re-pricing a trial removal is
//! two CSR-row walks plus one flat counter scan (in the exact summation
//! order of [`CompiledInstance::balanced_cost_mask`], so trial costs are
//! bit-identical to a from-scratch evaluation) instead of re-walking
//! every witness row of the instance.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;
use crate::solvers::primal_dual::PrimalDualConfig;
use delprop_query::ViewTupleId;
use delprop_setcover::kernel::words;
use delprop_setcover::BitSet;

/// Outcome of the balanced primal-dual run.
#[derive(Debug, Clone)]
pub struct BalancedOutcome {
    /// The polished solution.
    pub solution: Solution,
    /// Demands intentionally left uncut (their weight is paid instead).
    pub skipped: Vec<ViewTupleId>,
    /// `Σ v_r`: a lower bound on the balanced optimum.
    pub dual_objective: f64,
}

/// Run the prize-collecting primal-dual for the balanced objective.
// lint:allow(budget): raise/cleanup passes are bounded by demands x witnesses; the runtime adapter charges the pass coarsely
pub fn solve_balanced(
    ir: &CompiledInstance,
    config: &PrimalDualConfig,
) -> Result<BalancedOutcome, CoreError> {
    crate::runtime::metrics::SOLVE_PRIMAL_DUAL_BALANCED.inc();
    let counted = |r: u32| -> bool {
        config
            .counted
            .as_ref()
            .is_none_or(|c| c.contains(r as usize))
    };

    let (demand_rows, hit_rows) = (ir.demand_rows(), ir.hit_rows());
    let (vulnerable_rows, incidence_rows) = (ir.vulnerable_rows(), ir.incidence_rows());
    let (witness_masks, vulnerable_masks) = (ir.witness_masks(), ir.vulnerable_masks());
    let (demand_weights, vulnerable_weights) = (ir.demand_weights(), ir.vulnerable_weights());

    // Capacities as in the standard algorithm.
    let nb = ir.num_bases();
    let mut cap = vec![0.0f64; nb];
    let ks = ir.vulnerable_ks().iter().zip(vulnerable_weights);
    for (r, (&k, &w)) in (0u32..).zip(ks) {
        if !counted(r) {
            continue;
        }
        let share = w / k as f64;
        for &b in vulnerable_rows.row(r) {
            cap[b as usize] += share;
        }
    }

    // `BitSet::contains` is false past capacity, so the default
    // zero-capacity `forbidden` needs no resizing.
    let forbidden = &config.forbidden;

    let mut load = vec![0.0f64; nb];
    let mut deleted: Vec<u32> = Vec::new();
    let mut deleted_bits = BitSet::new(nb);
    let mut dual_objective = 0.0;
    const EPS: f64 = 1e-9;

    for d in 0..ir.num_demands() as u32 {
        if words::intersects(witness_masks.row(d), deleted_bits.words()) {
            continue; // already cut for free
        }
        let witnesses = demand_rows.row(d);
        let prize = demand_weights[d as usize];
        let slack = witnesses
            .iter()
            .filter(|&&b| !forbidden.contains(b as usize))
            .map(|&b| (cap[b as usize] - load[b as usize]).max(0.0))
            .fold(f64::INFINITY, f64::min); // ∞ iff nothing is deletable
                                            // The dual rises until the cheaper of the two events.
        let raise = slack.min(prize);
        dual_objective += raise;
        for &b in witnesses {
            if !forbidden.contains(b as usize) {
                load[b as usize] += raise;
            }
        }
        if slack <= prize {
            // Witness saturation wins: cut the demand.
            for &b in witnesses {
                if !forbidden.contains(b as usize)
                    && load[b as usize] >= cap[b as usize] - EPS
                    && deleted_bits.insert(b as usize)
                {
                    deleted.push(b);
                }
            }
            debug_assert!(words::intersects(
                witness_masks.row(d),
                deleted_bits.words()
            ));
        }
        // Otherwise the prize is exhausted first (or there is no
        // deletable witness): pay w_r and leave the demand uncut.
    }

    // Reverse pass: drop any deletion whose removal does not increase the
    // balanced cost (covers both redundancy and bad trades). Cut/damage
    // multiplicities are maintained incrementally; the trial cost is
    // re-summed from the flat counters in the same ascending order as
    // `balanced_cost_mask`, so accept/reject decisions are bit-identical
    // to from-scratch re-pricing.
    let nd = ir.num_demands();
    let nr = ir.num_vulnerable();
    let mut cut_count: Vec<u32> = (0..nd as u32)
        .map(|d| words::intersection_count(witness_masks.row(d), deleted_bits.words()) as u32)
        .collect();
    let mut damage_count: Vec<u32> = (0..nr as u32)
        .map(|r| words::intersection_count(vulnerable_masks.row(r), deleted_bits.words()) as u32)
        .collect();
    let cost_of = |cut_count: &[u32], damage_count: &[u32]| -> f64 {
        let missed: f64 = cut_count
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(d, _)| demand_weights[d])
            .sum();
        let damage: f64 = damage_count
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(r, _)| vulnerable_weights[r])
            .sum();
        missed + damage
    };
    let mut current = cost_of(&cut_count, &damage_count);
    for &b in deleted.iter().rev() {
        for &d in hit_rows.row(b) {
            cut_count[d as usize] -= 1;
        }
        for &r in incidence_rows.row(b) {
            damage_count[r as usize] -= 1;
        }
        let c = cost_of(&cut_count, &damage_count);
        if c <= current + EPS {
            current = c;
            deleted_bits.remove(b as usize);
        } else {
            for &d in hit_rows.row(b) {
                cut_count[d as usize] += 1;
            }
            for &r in incidence_rows.row(b) {
                damage_count[r as usize] += 1;
            }
        }
    }
    // The demands actually left uncut (after pruning).
    let skipped = cut_count
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == 0)
        .map(|(d, _)| ir.demand(d as u32))
        .collect();

    let solution = Solution::from_tuples(deleted_bits.iter().map(|b| ir.base(b as u32)));
    Ok(BalancedOutcome {
        solution,
        skipped,
        dual_objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::{chain_problem, fig1_problem, star_problem};
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn fig1_balanced_matches_exact() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let out = solve_balanced(p.compiled(), &Default::default()).unwrap();
        let opt = exact::solve_balanced(p.compiled(), ExactConfig::default()).cost;
        assert!(out.dual_objective <= opt + 1e-9, "weak duality");
        assert_eq!(out.solution.balanced_cost(&p), opt);
    }

    #[test]
    fn cheap_prizes_are_paid_not_cut() {
        let mut p = star_problem(4, &[0]);
        let blue = *p.deletions().iter().next().unwrap();
        p.set_weight(blue, 0.1).unwrap(); // cutting costs 1 (the twin)
        let out = solve_balanced(p.compiled(), &Default::default()).unwrap();
        assert_eq!(out.skipped, vec![blue]);
        assert!((out.solution.balanced_cost(&p) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn expensive_prizes_are_cut() {
        let mut p = star_problem(4, &[0]);
        let blue = *p.deletions().iter().next().unwrap();
        p.set_weight(blue, 50.0).unwrap();
        let out = solve_balanced(p.compiled(), &Default::default()).unwrap();
        assert!(out.skipped.is_empty());
        assert!((out.solution.balanced_cost(&p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_objective_lower_bounds_balanced_opt_on_chains() {
        for blue in [&[0usize, 1][..], &[2, 5, 7], &[0, 3, 4, 6]] {
            let p = chain_problem(8, 3, blue);
            let out = solve_balanced(p.compiled(), &Default::default()).unwrap();
            let opt = exact::solve_balanced(p.compiled(), ExactConfig::default()).cost;
            assert!(
                out.dual_objective <= opt + 1e-9,
                "dual {} above balanced OPT {}",
                out.dual_objective,
                opt
            );
            assert!(out.solution.balanced_cost(&p) + 1e-9 >= opt);
        }
    }

    #[test]
    fn forbidden_witnesses_force_payment() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let cfg = PrimalDualConfig {
            forbidden: p.compiled().tuple_bits(p.candidates()),
            ..Default::default()
        };
        // Unlike the standard version, the balanced one cannot fail: it
        // pays the prize instead.
        let out = solve_balanced(p.compiled(), &cfg).unwrap();
        assert!(out.solution.is_empty());
        assert_eq!(out.skipped.len(), 1);
        assert_eq!(out.solution.balanced_cost(&p), 1.0);
    }

    #[test]
    fn empty_demand_set_is_trivial() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |_| {});
        let out = solve_balanced(p.compiled(), &Default::default()).unwrap();
        assert!(out.solution.is_empty());
        assert_eq!(out.dual_objective, 0.0);
    }
}
