//! The [`Solver`] trait: one contract over the ten entry points in
//! [`crate::solvers`], so the portfolio (and any other caller) can treat
//! "an algorithm from the paper" as a value — name it, ask whether it
//! applies to an instance, read off its guarantee, and run it under a
//! cooperative [`Budget`].
//!
//! Every method reads the compiled IR ([`CompiledInstance`]), never the
//! `Problem` behind it: the portfolio hands each member the one shared
//! compile, and the sharded path hands each shard-local member a
//! component's own IR. Verification against the `Problem` is the
//! portfolio's job, not the member's.
//!
//! Adapters for solvers whose hot loops are budget-aware (branch and
//! bound, simplex, local search) thread the budget all the way down;
//! polynomial-time solvers charge a coarse amount sized by the IR they
//! are given up front, which keeps tick accounting meaningful (a drained
//! budget skips them) without instrumenting loops that cannot run away.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::solution::Solution;
use crate::solvers::local_search::{self, LocalSearchConfig, Objective};
use crate::solvers::{
    dp_tree, exact, general, lowdeg_tree, lp_round, primal_dual, primal_dual_balanced,
    single_query, source,
};
use delprop_setcover::exact::ExactConfig;
use std::fmt;

use super::budget::Budget;

/// What a solver promises about its output on instances where it
/// [`applies`](Solver::applies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// The optimum (when the run completes within budget).
    Exact,
    /// Within the given multiplicative factor of the optimum.
    Ratio(f64),
    /// Feasible output, no proven ratio.
    Heuristic,
}

impl Guarantee {
    /// Coarse strength order: exact before ratio before heuristic. Used
    /// to order fallback chains; ties between ratios compare the factor.
    pub fn strength(&self) -> (u8, f64) {
        match self {
            Guarantee::Exact => (0, 0.0),
            Guarantee::Ratio(r) => (1, *r),
            Guarantee::Heuristic => (2, 0.0),
        }
    }
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guarantee::Exact => f.write_str("exact"),
            Guarantee::Ratio(r) => write!(f, "ratio {r:.3}"),
            Guarantee::Heuristic => f.write_str("heuristic"),
        }
    }
}

/// A portfolio member: a named algorithm with an applicability test, a
/// guarantee, and a budgeted solve, all over the compiled IR.
///
/// `Send + Sync` is part of the contract: the racing portfolio runs
/// members concurrently against the shared compiled IR, and the sharded
/// path runs them on scheduler workers, so a member must be shareable
/// across threads (all members here are stateless or hold only plain
/// config).
pub trait Solver: Send + Sync {
    /// Stable short name, used in reports and error messages.
    fn name(&self) -> &'static str;

    /// The objective this solver minimizes. Members of a chain must all
    /// share the chain's objective.
    fn objective(&self) -> Objective {
        Objective::Standard
    }

    /// Whether this solver may run on one connected-component shard of
    /// an instance (`crate::shard`) with an answer that unions, across
    /// the shards, to a valid whole-instance answer under the same
    /// guarantee. True for members that read only the IR's active parts
    /// and decide per component; the sharded path skips the others.
    fn shard_local(&self) -> bool {
        true
    }

    /// Whether this solver's structural precondition holds on `ir`.
    /// The portfolio skips members that do not apply. Default: always.
    fn applies(&self, _ir: &CompiledInstance) -> bool {
        true
    }

    /// The guarantee on instances where [`applies`](Solver::applies) is
    /// true (possibly instance-dependent, e.g. `2√‖V‖`). Default: no
    /// proven ratio.
    fn guarantee(&self, _ir: &CompiledInstance) -> Guarantee {
        Guarantee::Heuristic
    }

    /// Solve under the budget. Implementations charge the budget at
    /// checkpoints and return [`CoreError::BudgetExhausted`] (rather than
    /// running on) when it drains — unless a best-so-far feasible
    /// solution exists, in which case they may return it and let
    /// verification decide. The same checkpoints observe cooperative
    /// cancellation: a cancelled handle makes `charge` fail with
    /// [`CoreError::Cancelled`], which implementations propagate the
    /// same way.
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError>;
}

/// Coarse up-front charge for polynomial-time solvers, sized by the
/// active parts of the IR the member is given (`‖𝒞‖ + ‖ΔV‖ + 1`), so a
/// drained budget refuses them instead of running them for free. Not
/// `‖V‖`: a shard IR shares the whole instance's view layer, and
/// charging it once per shard would drain a ticked budget many times
/// over.
fn coarse_charge(ir: &CompiledInstance, budget: &Budget) -> Result<(), CoreError> {
    budget.charge((ir.num_bases() + ir.num_demands()) as u64 + 1)
}

/// §III single-query single-deletion exact algorithm (Cong et al.).
pub struct SingleQuerySolver;

impl Solver for SingleQuerySolver {
    fn name(&self) -> &'static str {
        "single_query"
    }
    fn applies(&self, ir: &CompiledInstance) -> bool {
        ir.num_queries() == 1 && ir.num_demands() == 1
    }
    fn guarantee(&self, _ir: &CompiledInstance) -> Guarantee {
        Guarantee::Exact
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        single_query::solve_single_deletion(ir)
    }
}

/// `DPTreeVSE` (Algorithm 4): exact polynomial DP on pivot forests.
pub struct DpTreeSolver;

impl Solver for DpTreeSolver {
    fn name(&self) -> &'static str {
        "dp_tree"
    }
    /// The DP walks the whole-`‖V‖` static layer, so on a shard IR it
    /// would solve the full instance once per shard.
    fn shard_local(&self) -> bool {
        false
    }
    fn applies(&self, ir: &CompiledInstance) -> bool {
        dp_tree::applies(ir)
    }
    fn guarantee(&self, _ir: &CompiledInstance) -> Guarantee {
        Guarantee::Exact
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        dp_tree::solve(ir)
    }
}

/// `LowDegTreeVSETwo` (Algorithms 2–3): `2√‖V‖` on forest cases.
pub struct LowDegTreeSolver;

impl Solver for LowDegTreeSolver {
    fn name(&self) -> &'static str {
        "lowdeg_tree"
    }
    /// The τ-sweep picks one threshold for the whole instance, so
    /// per-shard answers need not union to the whole-instance answer.
    fn shard_local(&self) -> bool {
        false
    }
    fn applies(&self, ir: &CompiledInstance) -> bool {
        ir.forest_case()
    }
    fn guarantee(&self, ir: &CompiledInstance) -> Guarantee {
        Guarantee::Ratio(lowdeg_tree::ratio_bound(ir))
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        lowdeg_tree::solve(ir)
    }
}

/// `PrimeDualVSE` (Algorithm 1): ratio `l` on forest cases.
pub struct PrimalDualSolver;

impl Solver for PrimalDualSolver {
    fn name(&self) -> &'static str {
        "primal_dual"
    }
    fn applies(&self, ir: &CompiledInstance) -> bool {
        ir.forest_case()
    }
    fn guarantee(&self, ir: &CompiledInstance) -> Guarantee {
        Guarantee::Ratio(ir.l().max(1) as f64)
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        primal_dual::solve_default(ir)
    }
}

/// LP relaxation + deterministic `1/l` rounding: certified `l`
/// approximation; simplex pivots charge the budget.
pub struct LpRoundSolver;

impl Solver for LpRoundSolver {
    fn name(&self) -> &'static str {
        "lp_round"
    }
    fn guarantee(&self, ir: &CompiledInstance) -> Guarantee {
        Guarantee::Ratio(ir.l().max(1) as f64)
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        lp_round::solve_budgeted(ir, budget)
    }
}

/// Claim 1 / Lemma 1 general-case approximation (Red-Blue + LowDeg).
pub struct GeneralSolver;

impl Solver for GeneralSolver {
    fn name(&self) -> &'static str {
        "general"
    }
    fn guarantee(&self, ir: &CompiledInstance) -> Guarantee {
        Guarantee::Ratio(general::ratio_bound(ir))
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        general::solve(ir)
    }
}

/// Greedy witness cover: the always-applicable last resort.
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        general::solve_greedy(ir)
    }
}

/// Exact branch and bound through the Red-Blue reduction; node
/// expansions charge the budget and exhaustion degrades to the best
/// incumbent (unproven) when one exists.
#[derive(Default)]
pub struct ExactSolver {
    /// Node limit forwarded to the underlying search.
    pub config: ExactConfig,
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }
    fn guarantee(&self, _ir: &CompiledInstance) -> Guarantee {
        Guarantee::Exact
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        let out = exact::solve_budgeted(ir, self.config, budget);
        match out.solution {
            Some(sol) => Ok(sol),
            None if budget.is_exhausted() || budget.is_cancelled() => Err(budget.error()),
            None => Err(CoreError::Infeasible {
                reason: "a deleted view tuple has no witnesses (non-key-preserving input?)"
                    .to_string(),
            }),
        }
    }
}

/// Greedy start + budgeted local-search descent (engineering extension).
pub struct LocalSearchSolver;

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "local_search"
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        let start = general::solve_greedy(ir)?;
        Ok(local_search::improve_budgeted(
            ir,
            &start,
            LocalSearchConfig::default(),
            budget,
        ))
    }
}

/// Source side-effect greedy (`H(‖ΔV‖)` hitting set): minimizes |ΔD|,
/// but its output still cuts every demand, so it is a valid (heuristic)
/// member for the view-side-effect chain.
pub struct SourceGreedySolver;

impl Solver for SourceGreedySolver {
    fn name(&self) -> &'static str {
        "source_greedy"
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        Ok(source::solve_greedy(ir))
    }
}

/// Exact branch and bound for the **balanced** objective (Pos-Neg
/// reduction); truncation degrades to the best incumbent.
#[derive(Default)]
pub struct ExactBalancedSolver {
    /// Node limit forwarded to the underlying search.
    pub config: ExactConfig,
}

impl Solver for ExactBalancedSolver {
    fn name(&self) -> &'static str {
        "exact_balanced"
    }
    fn objective(&self) -> Objective {
        Objective::Balanced
    }
    fn guarantee(&self, _ir: &CompiledInstance) -> Guarantee {
        Guarantee::Exact
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        let out = exact::solve_balanced_budgeted(ir, self.config, budget);
        // The balanced reduction always yields a solution (the empty
        // selection is feasible); proven_optimal may be false under
        // truncation, which verification tolerates.
        out.solution.ok_or_else(|| budget.error())
    }
}

/// §IV.C prize-collecting primal-dual for the balanced objective.
pub struct PrimalDualBalancedSolver;

impl Solver for PrimalDualBalancedSolver {
    fn name(&self) -> &'static str {
        "primal_dual_balanced"
    }
    fn objective(&self) -> Objective {
        Objective::Balanced
    }
    fn applies(&self, ir: &CompiledInstance) -> bool {
        ir.forest_case()
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        primal_dual_balanced::solve_balanced(ir, &Default::default()).map(|o| o.solution)
    }
}

/// Lemma 1 reduction for the balanced objective (general case).
pub struct GeneralBalancedSolver;

impl Solver for GeneralBalancedSolver {
    fn name(&self) -> &'static str {
        "general_balanced"
    }
    fn objective(&self) -> Objective {
        Objective::Balanced
    }
    fn solve(&self, ir: &CompiledInstance, budget: &Budget) -> Result<Solution, CoreError> {
        coarse_charge(ir, budget)?;
        Ok(general::solve_balanced(ir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_problem, star_problem};

    #[test]
    fn guarantee_strength_orders_exact_first() {
        assert!(Guarantee::Exact.strength() < Guarantee::Ratio(2.0).strength());
        assert!(Guarantee::Ratio(2.0).strength() < Guarantee::Ratio(3.0).strength());
        assert!(Guarantee::Ratio(1e9).strength() < Guarantee::Heuristic.strength());
    }

    #[test]
    fn guarantee_display() {
        assert_eq!(Guarantee::Exact.to_string(), "exact");
        assert!(Guarantee::Ratio(2.0).to_string().starts_with("ratio 2"));
        assert_eq!(Guarantee::Heuristic.to_string(), "heuristic");
    }

    #[test]
    fn applicability_matches_classification() {
        let star = star_problem(4, &[0, 2]); // pivot forest
        let ir = star.compiled();
        assert!(DpTreeSolver.applies(ir));
        assert!(LowDegTreeSolver.applies(ir));
        assert!(!SingleQuerySolver.applies(ir));
        assert!(GeneralSolver.applies(ir));
    }

    #[test]
    fn every_standard_member_solves_a_chain_feasibly() {
        let p = chain_problem(6, 3, &[1, 3]);
        let budget = Budget::unlimited();
        let members: Vec<Box<dyn Solver>> = vec![
            Box::new(ExactSolver::default()),
            Box::new(DpTreeSolver),
            Box::new(LowDegTreeSolver),
            Box::new(PrimalDualSolver),
            Box::new(LpRoundSolver),
            Box::new(GeneralSolver),
            Box::new(GreedySolver),
            Box::new(LocalSearchSolver),
            Box::new(SourceGreedySolver),
        ];
        for m in members.iter().filter(|m| m.applies(p.compiled())) {
            let sol = m
                .solve(p.compiled(), &budget)
                .unwrap_or_else(|e| panic!("{} failed on an applicable instance: {e}", m.name()));
            assert!(sol.is_feasible(&p), "{} returned infeasible", m.name());
            assert_eq!(m.objective(), Objective::Standard);
        }
    }

    #[test]
    fn drained_budget_refuses_poly_solvers() {
        let p = chain_problem(6, 3, &[1, 3]);
        let budget = Budget::with_ticks(0);
        let err = GreedySolver.solve(p.compiled(), &budget).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
    }

    #[test]
    fn exact_solver_degrades_to_incumbent_or_typed_error() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        for ticks in [1, 64, 256, 4096] {
            let budget = Budget::with_ticks(ticks);
            match ExactSolver::default().solve(p.compiled(), &budget) {
                Ok(sol) => assert!(sol.is_feasible(&p)),
                Err(e) => assert!(matches!(e, CoreError::BudgetExhausted { .. })),
            }
        }
    }
}
