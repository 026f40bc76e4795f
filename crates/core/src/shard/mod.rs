//! Shard-parallel solving: connected-component decomposition of a
//! compiled instance, a shared-cursor scheduler over the shards, and a
//! merger that sums certified per-shard optima (DESIGN.md §15).
//!
//! The soundness argument is the partition invariant from
//! [`partition()`]: demands, vulnerable tuples, and candidate bases split
//! cleanly across components, so (a) any union of per-shard-feasible
//! solutions is feasible on the whole instance, (b) the side-effect of
//! the union is exactly the sum of the per-shard side-effects (no
//! vulnerable tuple can be damaged by two shards), and (c) optima sum:
//! `OPT = Σ_c OPT_c`. A per-shard `α_c`-approximation therefore merges
//! into a `max_c α_c`-approximation — the merged [`Guarantee`] is the
//! *weakest* per-shard guarantee, by [`Guarantee::strength`].
//!
//! An IR keeps its partition ([`cached_partition`]): the first sharded
//! solve of an instance builds it, and every later sharded solve of the
//! same instance reuses its shards and their parent base indices, which
//! the merge uses to build the union's deletion mask directly.
//!
//! The per-shard chain is the portfolio's own chain: each shard runs
//! [`Portfolio::solve_sharded`]'s members first-verified-wins, in chain
//! order, restricted to the [shard-local](crate::runtime::Solver::shard_local)
//! ones — `dp_tree` walks the shared whole-`V` static layer, and
//! `lowdeg_tree` picks one τ threshold for the whole instance, so both
//! opt out. Each member goes through the portfolio's containment
//! routine (panic boundary, typed-error mapping, verification against
//! the shard IR). [`solve_component`] and [`solve_sharded_ir`] run the
//! built-in chain for an objective. The chain runs sequentially per
//! shard (parallelism comes from racing *shards*, not members within a
//! shard), which also makes the sharded path deterministic:
//! `tests/shard_equivalence.rs` asserts byte-equality against the same
//! chain applied to the whole instance as one shard.
//!
//! On budget exhaustion or cancellation mid-shard, the shard degrades
//! to an always-feasible incumbent (delete every candidate of the
//! shard; the empty solution for the balanced objective) labeled
//! [`Guarantee::Heuristic`] with `degraded` set, instead of failing
//! the merge — mirroring how `delpropd` sheds load under deadline.

pub mod partition;
pub mod scheduler;

pub use partition::{cached_partition, partition, Partition, Shard, UnionFind};
pub use scheduler::run_tasks;

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::runtime::metrics;
use crate::runtime::{Budget, Guarantee, Portfolio};
use crate::solution::Solution;
use crate::solvers::local_search::Objective;
use delprop_setcover::BitSet;
use partition::Components;

/// A certified (or degraded) outcome for one shard.
#[derive(Debug, Clone)]
pub struct ShardSolve {
    /// The shard's verified solution (deletes only shard candidates).
    pub solution: Solution,
    /// Its cost on the shard, under the chain's objective.
    pub cost: f64,
    /// The producing member's guarantee ([`Guarantee::Heuristic`] when
    /// degraded).
    pub guarantee: Guarantee,
    /// Which chain member produced it.
    pub member: &'static str,
    /// Whether the budget drained mid-shard and the incumbent fallback
    /// was used instead of a chain member's output.
    pub degraded: bool,
}

/// The merged result of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Union of the per-shard solutions.
    pub solution: Solution,
    /// Cost of the merged solution evaluated on the **full** instance
    /// (canonical ascending-vulnerable summation — byte-equal to what
    /// any unsharded evaluator reports for the same solution).
    pub cost: f64,
    /// Weakest per-shard guarantee; `Exact` when there were no shards.
    pub guarantee: Guarantee,
    /// Number of component shards solved.
    pub shards: usize,
    /// Whether any shard degraded on budget exhaustion.
    pub degraded: bool,
    /// Per-shard outcomes, in partition order.
    pub per_shard: Vec<ShardSolve>,
}

/// Always-feasible fallback when the budget drains mid-shard: delete
/// every candidate (standard — every demand has a candidate witness,
/// so this cuts them all) or delete nothing (balanced — every `ΔD` is
/// balanced-feasible).
fn degraded_incumbent(ir: &CompiledInstance, objective: Objective) -> ShardSolve {
    let (solution, cost, member) = match objective {
        Objective::Standard => {
            let solution = Solution::from_tuples(ir.bases());
            let cost = ir.side_effect_of(&solution);
            (solution, cost, "degraded_delete_all")
        }
        Objective::Balanced => {
            let solution = Solution::empty();
            let cost = ir.balanced_cost_of(&solution);
            (solution, cost, "degraded_empty")
        }
    };
    ShardSolve {
        solution,
        cost,
        guarantee: Guarantee::Heuristic,
        member,
        degraded: true,
    }
}

/// Solve one component shard with the built-in chain for `objective`
/// (see [`Portfolio::solve_sharded`] for the chain a caller's own
/// portfolio runs). Public so the out-of-core path and the differential
/// suite can run the exact same chain on IRs they built themselves.
pub fn solve_component(
    ir: &CompiledInstance,
    objective: Objective,
    budget: &Budget,
) -> Result<ShardSolve, CoreError> {
    metrics::SHARD_SOLVES.inc();
    component(&Portfolio::for_objective(objective), ir, budget)
}

/// One shard through `portfolio`'s shard-local members, first verified
/// wins. A run that fails because the budget drained or was cancelled
/// degrades to the shard's incumbent; any other failure is the shard's
/// typed error. The caller counts the shard in `shard.solves`.
fn component(
    portfolio: &Portfolio,
    ir: &CompiledInstance,
    budget: &Budget,
) -> Result<ShardSolve, CoreError> {
    if ir.num_demands() == 0 {
        // Nothing to eliminate; both objectives are optimized by ∅.
        return Ok(ShardSolve {
            solution: Solution::empty(),
            cost: 0.0,
            guarantee: Guarantee::Exact,
            member: "empty",
            degraded: false,
        });
    }
    match portfolio.solve_shard(ir, budget) {
        Ok(winner) => Ok(ShardSolve {
            solution: winner.solution,
            cost: winner.cost,
            guarantee: winner.guarantee,
            member: winner.name,
            degraded: false,
        }),
        // Budget drained or cancelled mid-shard: degrade, don't fail.
        Err(_) if budget.is_exhausted() || budget.is_cancelled() => {
            Ok(degraded_incumbent(ir, portfolio.objective()))
        }
        Err(e) => Err(e),
    }
}

/// Partition `ir` into component shards, solve them with the built-in
/// chain for `objective` on the shard scheduler (each worker
/// drawing from `budget`'s shared pool through a handle of its own),
/// and merge.
///
/// The merged cost is re-evaluated on the **full** instance in its
/// canonical vulnerable order, so it is byte-equal to any unsharded
/// evaluator's report for the same solution regardless of shard
/// scheduling; a `debug_assert` cross-checks it against the per-shard
/// sum. Feasibility of the merged solution is re-checked on the full
/// instance as a cheap final guard on the partition invariant.
pub fn solve_sharded_ir(
    ir: &CompiledInstance,
    objective: Objective,
    budget: &Budget,
) -> Result<ShardedOutcome, CoreError> {
    solve_sharded_with(&Portfolio::for_objective(objective), ir, budget)
}

/// [`solve_sharded_ir`] over a caller's own `portfolio`: each shard runs
/// its [shard-local](crate::runtime::Solver::shard_local) members in
/// chain order, first verified wins. [`Portfolio::solve_sharded`] is
/// this plus the compile charge and a one-member report.
///
/// The partition is the one `ir` keeps ([`cached_partition`]): the first
/// sharded solve of an IR builds it, and every later solve of the same
/// IR reuses its shards. The merge sets the merged deletion mask
/// straight from each shard's parent base indices.
pub fn solve_sharded_with(
    portfolio: &Portfolio,
    ir: &CompiledInstance,
    budget: &Budget,
) -> Result<ShardedOutcome, CoreError> {
    let components = ir.components();
    let k = components.len();
    if k == 0 {
        return Ok(ShardedOutcome {
            solution: Solution::empty(),
            cost: 0.0,
            guarantee: Guarantee::Exact,
            shards: 0,
            degraded: false,
            per_shard: Vec::new(),
        });
    }

    // Each worker draws from the pool through one handle of its own and
    // keeps its results; the scheduler merges them after the join.
    let results = scheduler::run_tasks(
        k,
        available_parallelism(),
        || budget.share_labeled("shard"),
        |handle, t| component(portfolio, components.shard(ir, t), handle),
    );
    metrics::SHARD_SOLVES.add(k as u64);
    let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    merge_shards(ir, components, per_shard, portfolio.objective())
}

/// Available hardware parallelism, for sizing the shard scheduler's
/// workers. Asked of the OS once per process and kept: the query reads
/// cgroup files, which costs more than a small sharded solve's whole
/// chain.
fn available_parallelism() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Merge certified per-shard outcomes into one [`ShardedOutcome`]:
/// union the solutions, re-evaluate cost and feasibility on the full
/// instance, and label the weakest per-shard guarantee.
///
/// The union is built as the parent's deletion mask: each shard
/// solution's tuples are matched against the shard's ascending bases,
/// and a shard base index maps to its parent index through the
/// components' table. A tuple that is no candidate of its shard (no
/// built-in member emits one) is searched in the parent, and kept
/// aside if it is no candidate there either, so the merged solution is
/// exactly the union of the shard solutions.
fn merge_shards(
    ir: &CompiledInstance,
    components: &Components,
    per_shard: Vec<ShardSolve>,
    objective: Objective,
) -> Result<ShardedOutcome, CoreError> {
    let k = per_shard.len();
    let mut bits = BitSet::new(ir.num_bases());
    let mut non_candidates = Vec::new();
    let mut first_base = 0;
    for (t, s) in per_shard.iter().enumerate() {
        let shard = components.shard(ir, t);
        for (tuple, b) in shard.base_indices(&s.solution) {
            let parent = b.map(|b| components.parent_base(first_base + b as usize));
            match parent.or_else(|| ir.base_index(tuple)) {
                Some(b) => {
                    bits.insert(b as usize);
                }
                None => non_candidates.push(tuple),
            }
        }
        first_base += shard.num_bases();
    }
    let candidates = bits.iter().map(|b| ir.base(b as u32));
    let merged = Solution::from_tuples(candidates.chain(non_candidates));

    let cost = match objective {
        Objective::Standard => ir.side_effect_bits(&bits),
        Objective::Balanced => ir.balanced_cost_bits(&bits),
    };
    if matches!(objective, Objective::Standard) && !ir.is_feasible_bits(&bits) {
        return Err(CoreError::StructureMismatch {
            solver: "sharded",
            reason: "merged per-shard solutions do not eliminate every demand \
                     (partition invariant violated)"
                .to_string(),
        });
    }
    if matches!(objective, Objective::Standard) {
        let sum: f64 = per_shard.iter().map(|s| s.cost).sum();
        debug_assert!(
            (sum - cost).abs() <= 1e-6 * (1.0 + cost.abs()),
            "per-shard side-effects ({sum}) disagree with the merged evaluation ({cost})"
        );
    }
    let guarantee = per_shard
        .iter()
        .map(|s| s.guarantee)
        .max_by(|a, b| {
            a.strength()
                .partial_cmp(&b.strength())
                .expect("guarantee strengths are finite")
        })
        .unwrap_or(Guarantee::Exact);

    Ok(ShardedOutcome {
        solution: merged,
        cost,
        guarantee,
        shards: k,
        degraded: per_shard.iter().any(|s| s.degraded),
        per_shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::chain_problem;

    #[test]
    fn single_shard_matches_component_chain() {
        // Overlapping witness sets: a single-component instance.
        let p = chain_problem(8, 3, &[1, 2]);
        let ir = p.compiled_arc();
        let budget = Budget::unlimited();
        let sharded = solve_sharded_ir(&ir, Objective::Standard, &budget).unwrap();
        let whole = solve_component(&ir, Objective::Standard, &budget).unwrap();
        assert_eq!(sharded.shards, 1);
        assert_eq!(sharded.solution, whole.solution);
        assert_eq!(sharded.cost, whole.cost);
        assert!(!sharded.degraded);
        assert!(sharded.solution.is_feasible(&p));
    }

    #[test]
    fn two_shards_merge_to_the_whole_instance_chain() {
        // Two independent components; the sharded result must byte-equal
        // the same deterministic chain run on the full IR as one shard.
        let p = chain_problem(8, 3, &[1, 4]);
        let ir = p.compiled_arc();
        let budget = Budget::unlimited();
        let sharded = solve_sharded_ir(&ir, Objective::Standard, &budget).unwrap();
        assert_eq!(sharded.shards, 2);
        let reference = solve_component(&ir, Objective::Standard, &budget).unwrap();
        assert_eq!(sharded.solution, reference.solution);
        assert_eq!(sharded.cost.to_bits(), reference.cost.to_bits());
        let sum: f64 = sharded.per_shard.iter().map(|s| s.cost).sum();
        assert!((sum - sharded.cost).abs() < 1e-9);
        assert!(sharded.solution.is_feasible(&p));
        assert!((sharded.solution.verify_by_reevaluation(&p) - sharded.cost).abs() < 1e-9);
    }

    #[test]
    fn no_demands_is_exact_empty() {
        let p = chain_problem(6, 2, &[]);
        let out =
            solve_sharded_ir(&p.compiled_arc(), Objective::Standard, &Budget::unlimited()).unwrap();
        assert_eq!(out.shards, 0);
        assert_eq!(out.cost, 0.0);
        assert!(matches!(out.guarantee, Guarantee::Exact));
    }

    #[test]
    fn exhausted_budget_degrades_instead_of_failing() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = p.compiled_arc();
        let out = solve_sharded_ir(&ir, Objective::Standard, &Budget::with_ticks(1)).unwrap();
        assert!(out.degraded);
        assert!(matches!(out.guarantee, Guarantee::Heuristic));
        assert!(out.solution.is_feasible(&p));
    }

    #[test]
    fn balanced_objective_solves_and_merges() {
        let p = chain_problem(8, 3, &[1, 4]);
        let out =
            solve_sharded_ir(&p.compiled_arc(), Objective::Balanced, &Budget::unlimited()).unwrap();
        assert!(out.cost.is_finite());
        assert!(!out.degraded);
    }
}
