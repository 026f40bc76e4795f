//! `PrimeDualVSE` — Algorithm 1 of the paper: a primal-dual
//! `l`-approximation for the (weighted) view side-effect on forest cases,
//! in the tradition of Garg–Vazirani–Yannakakis multicut on trees.
//!
//! ## How this implements the paper's LP (1)–(5) / dual (6)–(10)
//!
//! The dual has a variable `v_r` per demand (view tuple of `ΔV`) and `v_s`
//! per preserved view tuple, with
//! `(7) k_s·v_s ≤ w_s` and `(8) Σ_{r∋t} v_r − Σ_{s∋t} v_s ≤ 0` per base
//! tuple `t`. Saturating (7) for every preserved tuple (`v_s = w_s/k_s`)
//! turns (8) into a per-tuple **capacity** `cap(t) = Σ_{s∋t} w_s/k_s` on
//! the demand duals through `t` — so the algorithm is: process demands
//! bottom-up in the data-dual forest (by decreasing LCA depth; the
//! processing order affects solution quality, never feasibility), raise
//! each uncut demand's `v_r` until some witness saturates, delete
//! saturated tuples, then reverse-delete redundant deletions (the paper's
//! pruning loop, lines 7–10).
//!
//! The returned `dual_objective = Σ v_r` is **dual-feasible**, hence a
//! certified lower bound on the optimal (counted) side-effect — the
//! experiments use it alongside the LP bound.
//!
//! The `l` guarantee comes from the `k_s ≤ l`-relaxed complementary
//! slackness (Theorem 3); experiment EX-T3 verifies it empirically against
//! exact optima and LP bounds.
//!
//! All state is dense over the compiled index: capacities and loads are
//! flat `f64` arrays over candidate ids, restriction sets are packed
//! [`BitSet`]s, the deletion set is a packed mask intersected
//! word-parallel against the IR's witness rows, the bottom-up order is the
//! precomputed [`CompiledInstance::demand_order`], and reverse-delete
//! counts cuts with packed-row popcounts instead of re-building a
//! tuple→demands map. These arrays are thread-local scratch that every
//! run on the thread refills, so a run allocates only what it returns:
//! a sharded solve runs this once per component shard.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;
use delprop_setcover::kernel::words;
use delprop_setcover::BitSet;
use std::cell::Cell;

/// Demand processing order (ablation EX-ABL measures the difference).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DemandOrder {
    /// Bottom-up by LCA depth in the data-dual forest (the paper's order
    /// for trees, GVY-style). The default.
    #[default]
    BottomUp,
    /// Deterministic but structure-blind (`ViewTupleId` order).
    Arbitrary,
}

/// Configuration: deletion restrictions, objective restrictions, and
/// ablation switches, used directly by callers and by `LowDegTreeVSE`
/// (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct PrimalDualConfig {
    /// Packed dense base indices that must NOT be deleted (Algorithm 2
    /// forbids tuples of red-degree > τ). The default zero-capacity bitset
    /// forbids nothing; build from raw tuples with
    /// [`CompiledInstance::tuple_bits`].
    pub forbidden: BitSet,
    /// If set, only these vulnerable tuples (packed dense vulnerable
    /// indices) contribute to capacities (Algorithm 2 prunes "wide" view
    /// tuples out of the objective). `None` counts all of them.
    pub counted: Option<BitSet>,
    /// Demand processing order.
    pub order: DemandOrder,
    /// Skip the reverse-delete pruning (lines 7–10 of Algorithm 1).
    /// Feasibility is unaffected; costs can only get worse. Ablation only.
    pub skip_reverse_delete: bool,
}

/// Outcome: the solution plus the dual certificate.
#[derive(Debug, Clone)]
pub struct PrimalDualOutcome {
    /// The feasible deletion set after reverse-delete.
    pub solution: Solution,
    /// Final demand duals `v_r`, dense by demand index (pair with
    /// [`CompiledInstance::demand`] to recover view-tuple ids).
    pub duals: Vec<f64>,
    /// `Σ v_r`: a lower bound on the optimal counted side-effect.
    pub dual_objective: f64,
}

/// The arrays of one run, dense over the IR's bases and demands. Each
/// thread keeps one set, which every run on that thread refills, so a
/// run allocates only what it returns.
#[derive(Default)]
struct Scratch {
    cap: Vec<f64>,
    load: Vec<f64>,
    /// Deletions in saturation order.
    deleted: Vec<u32>,
    deleted_bits: BitSet,
    duals: Vec<f64>,
    cut_count: Vec<usize>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Refill `v` with `n` zeros, keeping its allocation.
fn zeroed<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    v.clear();
    v.resize(n, T::default());
}

/// Run `PrimeDualVSE`.
///
/// Errors with [`CoreError::Infeasible`] iff some demand's witnesses are
/// all forbidden (possible only with a non-empty `forbidden` set).
pub fn solve(
    ir: &CompiledInstance,
    config: &PrimalDualConfig,
) -> Result<PrimalDualOutcome, CoreError> {
    run(ir, config, |solution, duals| PrimalDualOutcome {
        solution,
        duals: duals.to_vec(),
        dual_objective: duals.iter().sum(),
    })
}

/// Convenience: run with the default configuration and return the solution.
pub fn solve_default(ir: &CompiledInstance) -> Result<Solution, CoreError> {
    run(ir, &PrimalDualConfig::default(), |solution, _| solution)
}

/// Run the algorithm on this thread's scratch and hand `finish` the
/// solution and the final demand duals. A nested run (or one after a
/// panic unwound through this one) starts from empty scratch.
fn run<T>(
    ir: &CompiledInstance,
    config: &PrimalDualConfig,
    finish: impl FnOnce(Solution, &[f64]) -> T,
) -> Result<T, CoreError> {
    let mut scratch = SCRATCH.take();
    let out = raise_and_prune(ir, config, &mut scratch).map(|s| finish(s, &scratch.duals));
    SCRATCH.set(scratch);
    out
}

// lint:allow(budget): raise/cleanup passes are bounded by demands x witnesses; the runtime adapter charges the pass coarsely
fn raise_and_prune(
    ir: &CompiledInstance,
    config: &PrimalDualConfig,
    scratch: &mut Scratch,
) -> Result<Solution, CoreError> {
    crate::runtime::metrics::SOLVE_PRIMAL_DUAL.inc();
    let Scratch {
        cap,
        load,
        deleted,
        deleted_bits,
        duals,
        cut_count,
    } = scratch;
    let counted = |r: u32| -> bool {
        config
            .counted
            .as_ref()
            .is_none_or(|c| c.contains(r as usize))
    };

    // Per-tuple capacity cap(t) = Σ_{counted preserved s ∋ t} w_s / k_s.
    // Only vulnerable tuples intersect the candidate set, so iterating
    // their candidate-restricted witness rows covers every contribution.
    // Every IR array is resolved once here, not once per row.
    let nb = ir.num_bases();
    let (ks, weights) = (ir.vulnerable_ks(), ir.vulnerable_weights());
    let (vulnerable_rows, demand_rows, hit_rows) =
        (ir.vulnerable_rows(), ir.demand_rows(), ir.hit_rows());
    let witness_masks = ir.witness_masks();
    zeroed(cap, nb);
    for r in 0..ir.num_vulnerable() as u32 {
        if !counted(r) {
            continue;
        }
        let k = ks[r as usize] as f64;
        let share = weights[r as usize] / k;
        for &b in vulnerable_rows.row(r) {
            cap[b as usize] += share;
        }
    }

    // `BitSet::contains` is false past capacity, so the default
    // zero-capacity `forbidden` needs no resizing.
    let forbidden = &config.forbidden;

    // Demands bottom-up by the depth of their witness path's shallowest
    // vertex (its top / LCA) in the data-dual forest; ties and the
    // non-forest fallback use the deterministic ViewTupleId order. The
    // permutation is precomputed at IR compile time.
    let identity: Vec<u32>;
    let order: &[u32] = match config.order {
        DemandOrder::BottomUp => ir.demand_order(),
        DemandOrder::Arbitrary => {
            identity = (0..ir.num_demands() as u32).collect();
            &identity
        }
    };

    // Dual-raising phase. The deletion set is a packed mask so the
    // "already cut" test is one word-parallel AND sweep per demand.
    zeroed(load, nb);
    deleted.clear();
    deleted_bits.reset(nb);
    zeroed(duals, ir.num_demands());
    const EPS: f64 = 1e-9;

    for &d in order {
        if words::intersects(witness_masks.row(d), deleted_bits.words()) {
            continue; // already cut
        }
        let witnesses = demand_rows.row(d);
        let mut raise = f64::INFINITY;
        let mut any_allowed = false;
        for &b in witnesses {
            if forbidden.contains(b as usize) {
                continue;
            }
            any_allowed = true;
            raise = raise.min((cap[b as usize] - load[b as usize]).max(0.0));
        }
        if !any_allowed {
            return Err(CoreError::Infeasible {
                reason: format!("every witness of demand {} is forbidden", ir.demand(d)),
            });
        }
        if raise > 0.0 {
            duals[d as usize] += raise;
            for &b in witnesses {
                if !forbidden.contains(b as usize) {
                    load[b as usize] += raise;
                }
            }
        }
        // Take every newly saturated witness (constraint (8) tight).
        for &b in witnesses {
            if !forbidden.contains(b as usize)
                && load[b as usize] >= cap[b as usize] - EPS
                && deleted_bits.insert(b as usize)
            {
                deleted.push(b);
            }
        }
        debug_assert!(
            words::intersects(witness_masks.row(d), deleted_bits.words()),
            "demand must be cut after its own iteration"
        );
    }

    // Reverse-delete (the paper's pruning loop): drop deletions not needed
    // for feasibility, newest first. Cut multiplicities come from packed
    // popcounts of witness row ∩ deletion mask.
    if !config.skip_reverse_delete {
        cut_count.clear();
        cut_count.extend(
            (0..ir.num_demands() as u32)
                .map(|d| words::intersection_count(witness_masks.row(d), deleted_bits.words())),
        );
        for &b in deleted.iter().rev() {
            let still_ok = hit_rows.row(b).iter().all(|&d| cut_count[d as usize] >= 2);
            if still_ok {
                deleted_bits.remove(b as usize);
                for &d in hit_rows.row(b) {
                    cut_count[d as usize] -= 1;
                }
            }
        }
    }

    Ok(Solution::from_tuples(
        deleted_bits.iter().map(|b| ir.base(b as u32)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::{chain_problem, fig1_problem};
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn fig1_is_solved_optimally() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let out = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        assert!(out.solution.is_feasible(&p));
        assert_eq!(out.solution.side_effect(&p), 1.0);
        // Dual certificate is a valid lower bound.
        assert!(out.dual_objective <= 1.0 + 1e-9);
    }

    #[test]
    fn chain_problem_within_l_of_optimum() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let out = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        assert!(out.solution.is_feasible(&p));
        let opt = exact::solve(p.compiled(), ExactConfig::default()).cost;
        let l = p.l() as f64;
        assert!(out.solution.side_effect(&p) <= l * opt.max(out.dual_objective) + 1e-9);
        assert!(out.dual_objective <= opt + 1e-9, "weak duality");
    }

    #[test]
    fn forbidden_tuples_are_never_deleted() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let cheap = p.candidates();
        // Forbid the T1 witness; the solver must use the T2 one.
        let t1 = p.db().schema().relation_id("T1").unwrap();
        let forbidden: Vec<_> = cheap.iter().copied().filter(|t| t.relation == t1).collect();
        let cfg = PrimalDualConfig {
            forbidden: p.compiled().tuple_bits(forbidden.iter().copied()),
            ..Default::default()
        };
        let out = solve(p.compiled(), &cfg).unwrap();
        assert!(out.solution.is_feasible(&p));
        assert!(forbidden.iter().all(|t| !out.solution.deleted.contains(t)));
        assert_eq!(out.solution.side_effect(&p), 2.0);
    }

    #[test]
    fn all_witnesses_forbidden_is_infeasible() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let cfg = PrimalDualConfig {
            forbidden: p.compiled().tuple_bits(p.candidates()),
            ..Default::default()
        };
        assert!(matches!(
            solve(p.compiled(), &cfg),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_deletion_set_returns_empty_solution() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |_| {});
        let out = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        assert!(out.solution.is_empty());
        assert_eq!(out.dual_objective, 0.0);
    }

    #[test]
    fn reverse_delete_prunes_redundant_deletions() {
        // Two demands sharing a zero-capacity tuple plus private ones:
        // the dual phase may take several tuples, the prune keeps few.
        let p = chain_problem(6, 2, &[0, 1, 2, 3]);
        let out = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        assert!(out.solution.is_feasible(&p));
        // Every remaining deletion is necessary: removing any breaks
        // feasibility.
        for &t in &out.solution.deleted {
            let mut smaller = out.solution.clone();
            smaller.deleted.remove(&t);
            assert!(
                !smaller.is_feasible(&p),
                "reverse-delete left a redundant deletion {t}"
            );
        }
    }

    #[test]
    fn ablation_knobs_stay_feasible_and_only_hurt() {
        let p = chain_problem(12, 3, &[1, 4, 6, 9]);
        let base = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        let no_prune = solve(
            p.compiled(),
            &PrimalDualConfig {
                skip_reverse_delete: true,
                ..Default::default()
            },
        )
        .unwrap();
        let arbitrary = solve(
            p.compiled(),
            &PrimalDualConfig {
                order: DemandOrder::Arbitrary,
                ..Default::default()
            },
        )
        .unwrap();
        for s in [&no_prune.solution, &arbitrary.solution] {
            assert!(s.is_feasible(&p));
        }
        // Skipping the prune never helps: the pruned solution is a subset.
        assert!(base.solution.side_effect(&p) <= no_prune.solution.side_effect(&p) + 1e-9);
        assert!(base.solution.deleted.is_subset(&no_prune.solution.deleted));
    }

    #[test]
    fn weighted_capacities_steer_choices() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
            // Make the T1-side casualty (John,TKDE,CUBE) very expensive.
            let idx = p.views().views[0]
                .position_of(&tup!["John", "TKDE", "CUBE"])
                .unwrap();
            p.set_weight(delprop_query::ViewTupleId::new(0, idx), 100.0)
                .unwrap();
        });
        let out = solve(p.compiled(), &PrimalDualConfig::default()).unwrap();
        // Now deleting T2(TKDE,XML,30) (side-effect 2) beats T1 (100).
        assert!(out.solution.is_feasible(&p));
        assert_eq!(out.solution.side_effect(&p), 2.0);
    }
}
