//! `LowDegTreeVSE` / `LowDegTreeVSETwo` — Algorithms 2 and 3 of the paper:
//! the `2√‖V‖`-approximation for forest cases, refining the low-degree
//! Red-Blue technique with `PrimeDualVSE` as the inner solver.
//!
//! For a threshold `τ` (Algorithm 2):
//! 1. **forbid** deleting any base tuple joined in more than `τ` preserved
//!    view tuples (line 1: "remove the tuples of D joined in more than τ
//!    view tuples to be preserved");
//! 2. if some demand now has no deletable witness, the attempt is
//!    infeasible (the paper returns the whole of `D`; we report the
//!    attempt as infeasible and let the sweep skip it);
//! 3. **prune** wide preserved view tuples (witness sets larger than
//!    `√‖V‖`) out of the inner objective (lines 6–7) — Claim 2 bounds how
//!    many can be damaged: fewer than `√‖V‖·τ`;
//! 4. run `PrimeDualVSE` on the restricted instance.
//!
//! `LowDegTreeVSETwo` (Algorithm 3) sweeps `τ = 1..=|R|` and keeps the
//! attempt with the best *full* weighted side-effect, achieving ratio
//! `2√‖V‖` (Theorem 4) — sometimes better than the factor-`l` of plain
//! `PrimeDualVSE`, sometimes worse; experiment EX-T4 maps the crossover.
//!
//! Red-degrees and widths are read straight off the compiled incidence
//! index: `red_degree(t)` is the length of `t`'s incidence row, and a
//! vulnerable tuple's width is its full witness count `k_s`. Restriction
//! sets are packed [`BitSet`]s over the dense indices, and the τ-sweep is
//! monotone: candidates sit in a degree-keyed [`BucketQueue`] and are
//! un-forbidden exactly once as τ passes their red-degree, while the
//! (τ-independent) `counted` pruning is computed once and shared.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;
use crate::solvers::primal_dual::{self, PrimalDualConfig};
use delprop_setcover::{BitSet, BucketQueue};

/// One τ-restricted attempt.
#[derive(Debug, Clone)]
pub struct TreeAttempt {
    /// The threshold used.
    pub tau: usize,
    /// The solution, if the restricted instance was feasible.
    pub solution: Option<Solution>,
    /// Full weighted side-effect of `solution` (∞ when infeasible).
    pub side_effect: f64,
}

/// The (τ-independent) `counted` pruning: wide preserved view tuples
/// (width > √‖V‖) drop out of the inner objective. Only vulnerable tuples
/// can ever be damaged, so restricting `counted` to them loses nothing.
fn counted_bits(ir: &CompiledInstance) -> BitSet {
    let width_cutoff = (ir.norm_v() as f64).sqrt();
    let ks = ir.vulnerable_ks();
    BitSet::from_indices(
        ks.len(),
        (0..ks.len()).filter(|&r| (ks[r] as f64) <= width_cutoff),
    )
}

/// One attempt with an explicit forbidden mask (the sweep reuses its
/// incrementally maintained mask; `with_threshold` builds one from τ).
fn attempt_with(
    ir: &CompiledInstance,
    tau: usize,
    forbidden: BitSet,
    counted: BitSet,
) -> TreeAttempt {
    let cfg = PrimalDualConfig {
        forbidden,
        counted: Some(counted),
        ..Default::default()
    };
    match primal_dual::solve(ir, &cfg) {
        Ok(out) => {
            let side_effect = ir.side_effect_of(&out.solution);
            TreeAttempt {
                tau,
                solution: Some(out.solution),
                side_effect,
            }
        }
        Err(_) => TreeAttempt {
            tau,
            solution: None,
            side_effect: f64::INFINITY,
        },
    }
}

/// Algorithm 2: one attempt at threshold `tau`.
pub fn with_threshold(ir: &CompiledInstance, tau: usize) -> TreeAttempt {
    // Red-degree of each candidate tuple: number of preserved view tuples
    // whose witness set contains it (= its incidence-row length).
    let forbidden = BitSet::from_indices(
        ir.num_bases(),
        (0..ir.num_bases() as u32)
            .filter(|&b| ir.red_degree(b) > tau)
            .map(|b| b as usize),
    );
    attempt_with(ir, tau, forbidden, counted_bits(ir))
}

/// Algorithm 3: sweep τ and keep the best attempt.
///
/// Sweeps `τ = 0..=max red-degree` (τ beyond the max degree forbids
/// nothing more, so going to `|R|` as the paper writes would only repeat
/// the last attempt). Errors only if *every* attempt is infeasible, which
/// cannot happen: at τ = max degree nothing is forbidden.
///
/// The forbidden mask is maintained monotonically: every candidate is
/// pushed into a [`BucketQueue`] keyed by red-degree once, and popped
/// (un-forbidden) exactly when τ reaches its degree — O(‖candidates‖)
/// total restriction work across the whole sweep.
// lint:allow(budget): tau-sweep is bounded by max_degree <= n and each pass is O(n)
pub fn solve(ir: &CompiledInstance) -> Result<Solution, CoreError> {
    crate::runtime::metrics::SOLVE_LOWDEG_TREE.inc();
    let nb = ir.num_bases();
    let incidence = ir.incidence_rows();
    let red_degree = |b: usize| incidence.row(b as u32).len();
    let max_degree = (0..nb).map(red_degree).max().unwrap_or(0);
    let mut by_degree = BucketQueue::new(nb, max_degree);
    for b in 0..nb {
        by_degree.push(b, red_degree(b));
    }
    let counted = counted_bits(ir);

    let mut forbidden = BitSet::all_set(nb);
    let mut pending = by_degree.pop_min();
    let mut best: Option<(f64, Solution)> = None;
    for tau in 0..=max_degree {
        while let Some((b, degree)) = pending {
            if degree > tau {
                break;
            }
            forbidden.remove(b);
            pending = by_degree.pop_min();
        }
        let attempt = attempt_with(ir, tau, forbidden.clone(), counted.clone());
        if let Some(sol) = attempt.solution {
            if best.as_ref().is_none_or(|(c, _)| attempt.side_effect < *c) {
                best = Some((attempt.side_effect, sol));
            }
        }
    }
    best.map(|(_, s)| s).ok_or_else(|| CoreError::Infeasible {
        reason: "no threshold produced a feasible restricted instance".into(),
    })
}

/// The Theorem 4 ratio bound `2√‖V‖`.
pub fn ratio_bound(ir: &CompiledInstance) -> f64 {
    2.0 * (ir.norm_v().max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::{chain_problem, fig1_problem};
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn fig1_solved_optimally() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let sol = solve(p.compiled()).unwrap();
        assert!(sol.is_feasible(&p));
        assert_eq!(sol.side_effect(&p), 1.0);
    }

    #[test]
    fn low_tau_attempts_can_be_infeasible() {
        // Every candidate has red-degree >= 1, so τ = 0 forbids them all.
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let a = with_threshold(p.compiled(), 0);
        assert!(a.solution.is_none());
        assert!(a.side_effect.is_infinite());
    }

    #[test]
    fn within_2_sqrt_v_of_optimum_on_chains() {
        for blue in [&[0usize][..], &[1, 5], &[0, 3, 7]] {
            let p = chain_problem(8, 3, blue);
            let sol = solve(p.compiled()).unwrap();
            assert!(sol.is_feasible(&p));
            let opt = exact::solve(p.compiled(), ExactConfig::default()).cost;
            let bound = ratio_bound(p.compiled());
            assert!(
                sol.side_effect(&p) <= bound * opt.max(1.0) + 1e-9,
                "side effect {} exceeds 2√‖V‖ bound {} × opt {}",
                sol.side_effect(&p),
                bound,
                opt
            );
        }
    }

    #[test]
    fn tau_sweep_never_worse_than_unrestricted_primal_dual() {
        let p = chain_problem(12, 3, &[2, 6, 9]);
        let sweep = solve(p.compiled()).unwrap();
        let pd = primal_dual::solve_default(p.compiled()).unwrap();
        // The τ = max-degree attempt differs from plain primal-dual only
        // in the wide-tuple pruning, and the sweep takes the min over τ;
        // it should never lose badly.
        assert!(sweep.side_effect(&p) <= pd.side_effect(&p) + 1e-9 + p.l() as f64);
    }

    #[test]
    fn ratio_bound_shape() {
        let p = chain_problem(9, 2, &[0]);
        assert!((ratio_bound(p.compiled()) - 2.0 * (p.norm_v() as f64).sqrt()).abs() < 1e-12);
    }
}
