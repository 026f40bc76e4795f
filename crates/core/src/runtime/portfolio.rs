//! Verified fallback chains over [`Solver`] members.
//!
//! A [`Portfolio`] runs its members in guarantee order, isolates each one
//! behind `catch_unwind`, and **never** reports a solution it has not
//! verified: candidates must pass `Solution::is_feasible` (standard
//! objective) and `Solution::verify_by_reevaluation` (both objectives)
//! inside their own panic boundary. Re-evaluation runs the query
//! evaluator over `D ∖ ΔD` in place — it skips the tuples of `ΔD`
//! rather than deleting them from a copy of the database — and compares
//! every view tuple with the witness-shortcut prediction. A member that
//! panics, errors, times out, or returns garbage is recorded in the
//! report and the chain moves on; the caller always gets either a
//! verified [`Solution`] or a typed [`CoreError`].
//!
//! [`Portfolio::solve_racing`] is the thread-parallel sibling of
//! [`Portfolio::solve_best`]: every applicable member runs on its own
//! thread against the shared compiled IR, drawing from one atomic
//! [`Budget`] pool through per-member [`Budget::share`] handles. As soon
//! as a member verifies, it cancels every member with a
//! weaker-or-equal guarantee (cooperatively — losers observe the token
//! at their next budget checkpoint); the winner among the verified
//! candidates is chosen exactly like the sequential path, by minimum
//! cost with chain order breaking ties.
//!
//! Every entry point (`solve`, `solve_best`, `solve_racing`,
//! `solve_sharded`) is one `Strategy` of a single execution core: the
//! same containment routine runs and verifies each member, and the same
//! fold turns per-member slots into a [`PortfolioOutcome`] or a typed
//! error. Member order is defined only by the chain itself.

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use crate::problem::Problem;
use crate::solution::Solution;
use crate::solvers::local_search::Objective;
use delprop_setcover::BitSet;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use super::budget::{now, Budget};
use super::metrics;
use super::solver::{
    DpTreeSolver, GeneralBalancedSolver, GeneralSolver, GreedySolver, Guarantee, LowDegTreeSolver,
    LpRoundSolver, PrimalDualBalancedSolver, PrimalDualSolver, SingleQuerySolver, Solver,
};
use super::trace::{Kind, Phase};

/// What happened to one member during a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberStatus {
    /// `applies()` was false on this instance.
    Skipped,
    /// An earlier member already produced a verified solution.
    NotReached,
    /// Produced a solution that passed verification.
    Verified { cost: f64 },
    /// Returned a solution that does not eliminate every `ΔV` tuple.
    RejectedInfeasible,
    /// Verification itself panicked on the returned solution (corrupt
    /// tuple ids, provenance disagreement, …); the panic was contained.
    RejectedVerification { message: String },
    /// The member panicked; the panic was contained.
    Panicked { message: String },
    /// A racing run cancelled this member because another member with a
    /// stronger-or-equal guarantee verified first.
    Cancelled,
    /// The member returned a typed error (budget exhaustion included).
    Failed { error: CoreError },
}

impl MemberStatus {
    /// Whether this member produced an accepted (verified) solution.
    pub fn is_verified(&self) -> bool {
        matches!(self, MemberStatus::Verified { .. })
    }
}

/// Per-member record of a portfolio run.
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// The member's [`Solver::name`].
    pub name: &'static str,
    /// Its guarantee on this instance (where it applies).
    pub guarantee: Guarantee,
    /// What happened.
    pub status: MemberStatus,
    /// Wall-clock spent running (and verifying) this member, in µs.
    /// Zero for members that were skipped or not reached.
    pub micros: u64,
    /// Budget ticks this member itself charged (metered through its own
    /// [`Budget::share`] handle).
    pub ticks: u64,
    /// Ticks drained from the **shared pool** over this member's
    /// wall-clock window, by every handle. Equal to `ticks` in a
    /// sequential run; larger under racing contention, where the gap
    /// measures how much the rest of the field burned while this member
    /// ran.
    pub pool_ticks: u64,
}

impl fmt::Display for MemberReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): ", self.name, self.guarantee)?;
        match &self.status {
            MemberStatus::Skipped => f.write_str("skipped (does not apply)")?,
            MemberStatus::NotReached => f.write_str("not reached")?,
            MemberStatus::Verified { cost } => write!(f, "verified, cost {cost}")?,
            MemberStatus::RejectedInfeasible => f.write_str("rejected: infeasible output")?,
            MemberStatus::RejectedVerification { message } => {
                write!(f, "rejected: verification failed ({message})")?
            }
            MemberStatus::Panicked { message } => write!(f, "panicked (contained): {message}")?,
            MemberStatus::Cancelled => {
                f.write_str("cancelled (a stronger-or-equal member verified first)")?
            }
            MemberStatus::Failed { error } => write!(f, "failed: {error}")?,
        }
        if !matches!(
            self.status,
            MemberStatus::Skipped | MemberStatus::NotReached
        ) {
            write!(f, " [{} µs, {} ticks", self.micros, self.ticks)?;
            if self.pool_ticks != self.ticks {
                write!(f, " ({} pool)", self.pool_ticks)?;
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

/// A successful portfolio run: the winning verified solution plus the
/// full member-by-member report.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The verified solution.
    pub solution: Solution,
    /// Its cost under the portfolio's objective (side-effect for
    /// standard, balanced cost for balanced).
    pub cost: f64,
    /// Name of the member that produced it.
    pub winner: &'static str,
    /// One entry per member, in chain order.
    pub report: Vec<MemberReport>,
    /// Wall-clock spent obtaining the compiled instance IR, in µs. Near
    /// zero when the `Problem` had already compiled (the cache hit).
    pub compile_micros: u64,
    /// Budget ticks charged for the IR compile.
    pub compile_ticks: u64,
}

impl PortfolioOutcome {
    /// The winning member's guarantee on this instance.
    pub fn guarantee(&self) -> Guarantee {
        self.report
            .iter()
            .find(|r| r.name == self.winner)
            .map_or(Guarantee::Heuristic, |r| r.guarantee)
    }
}

impl fmt::Display for PortfolioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "winner {} (cost {}, |ΔD| = {})",
            self.winner,
            self.cost,
            self.solution.len()
        )?;
        writeln!(
            f,
            "  ir compile: {} µs, {} ticks (shared by all members)",
            self.compile_micros, self.compile_ticks
        )?;
        for r in &self.report {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// An ordered chain of [`Solver`] members sharing one objective.
pub struct Portfolio {
    members: Vec<Box<dyn Solver>>,
    objective: Objective,
}

/// How [`Portfolio::dispatch`] runs the chain. Every strategy shares
/// one containment routine ([`Portfolio::contain`]) and one fold from
/// per-member slots to the winner ([`fold`]).
enum Strategy {
    /// Members in chain order until one verifies.
    First,
    /// Every applicable member in chain order; the cheapest verified
    /// candidate wins.
    Best,
    /// Every applicable member on its own thread, with dominance
    /// cancellation; the cheapest verified candidate wins.
    Race,
    /// Split into connected components and run `First` over the
    /// shard-local members on each (`crate::shard`), reported as the
    /// one `"sharded"` pseudo-member.
    Shard,
}

/// What a member's output is verified against.
#[derive(Clone, Copy)]
enum Check<'a> {
    /// A whole instance: feasibility plus ground-truth re-evaluation of
    /// every query over `D ∖ ΔD`, in place on the problem's own database.
    Problem(&'a Problem),
    /// One component shard: feasibility and cost on the shard IR. The
    /// merge re-checks the union on the full IR.
    Shard(&'a CompiledInstance),
}

impl Check<'_> {
    /// The IR members read.
    fn ir(&self) -> &CompiledInstance {
        match self {
            Check::Problem(problem) => problem.compiled(),
            Check::Shard(ir) => ir,
        }
    }

    /// Whether `member` runs: it must apply, and inside a shard it must
    /// be shard-local.
    fn admits(&self, member: &dyn Solver) -> bool {
        (matches!(self, Check::Problem(_)) || member.shard_local()) && member.applies(self.ir())
    }
}

thread_local! {
    /// The shard check's deletion mask: one per thread, refilled for
    /// every shard output the thread verifies.
    static SHARD_MASK: Cell<BitSet> = Cell::new(BitSet::default());
}

/// One member's line of a run: its report entry plus the verified
/// candidate (solution, cost) it produced, if any.
struct Slot {
    report: MemberReport,
    candidate: Option<(Solution, f64)>,
}

impl Slot {
    /// A member's line with zeroed wall-clock and tick meters: members
    /// that did not run, and members run inside a shard. [`metered`]
    /// fills the meters in for the others.
    fn unmetered(
        name: &'static str,
        guarantee: Guarantee,
        (status, candidate): (MemberStatus, Option<(Solution, f64)>),
    ) -> Slot {
        Slot {
            report: MemberReport {
                name,
                guarantee,
                status,
                micros: 0,
                ticks: 0,
                pool_ticks: 0,
            },
            candidate,
        }
    }
}

impl Portfolio {
    /// An empty chain for the given objective.
    pub fn new(objective: Objective) -> Self {
        Portfolio {
            members: Vec::new(),
            objective,
        }
    }

    /// The paper's standard-objective chain in guarantee order: exact
    /// polynomial cases first (single_query, dp_tree), then the forest
    /// approximations (lowdeg_tree, primal_dual), then the general-case
    /// certified rounding (lp_round), the Claim 1 reduction (general),
    /// and the greedy last resort. This order — restricted to the
    /// [shard-local](Solver::shard_local) members — is also the
    /// per-shard chain of the sharded path.
    pub fn standard() -> Self {
        Portfolio::new(Objective::Standard)
            .with(SingleQuerySolver)
            .with(DpTreeSolver)
            .with(LowDegTreeSolver)
            .with(PrimalDualSolver)
            .with(LpRoundSolver)
            .with(GeneralSolver)
            .with(GreedySolver)
    }

    /// The balanced-objective chain: prize-collecting primal-dual on
    /// forest cases, then the Lemma 1 reduction (always applicable —
    /// every `ΔD` is balanced-feasible, so no further tail is needed).
    pub fn balanced() -> Self {
        Portfolio::new(Objective::Balanced)
            .with(PrimalDualBalancedSolver)
            .with(GeneralBalancedSolver)
    }

    /// The built-in chain for `objective`: [`Portfolio::standard`] or
    /// [`Portfolio::balanced`].
    pub fn for_objective(objective: Objective) -> Self {
        match objective {
            Objective::Standard => Portfolio::standard(),
            Objective::Balanced => Portfolio::balanced(),
        }
    }

    /// Append a member. Panics if its objective differs from the
    /// chain's (a programming error, not an input error).
    pub fn with(mut self, member: impl Solver + 'static) -> Self {
        assert_eq!(
            member.objective(),
            self.objective,
            "portfolio member {} minimizes a different objective",
            member.name()
        );
        self.members.push(Box::new(member));
        self
    }

    /// The chain's objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Member names in chain order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// Run the chain with first-verified-wins semantics: members run in
    /// order until one produces a solution that passes verification;
    /// later members are reported as [`MemberStatus::NotReached`].
    pub fn solve(&self, problem: &Problem, budget: &Budget) -> Result<PortfolioOutcome, CoreError> {
        self.dispatch(problem, budget, Strategy::First)
    }

    /// Run **every** applicable member and return the cheapest verified
    /// solution (for callers who prefer quality over latency).
    pub fn solve_best(
        &self,
        problem: &Problem,
        budget: &Budget,
    ) -> Result<PortfolioOutcome, CoreError> {
        self.dispatch(problem, budget, Strategy::Best)
    }

    /// Race **every** applicable member on its own thread and return the
    /// cheapest verified solution — the parallel sibling of
    /// [`Portfolio::solve_best`].
    ///
    /// Every member draws from `budget`'s shared atomic pool through its
    /// own [`Budget::share`] handle. When a member's output verifies
    /// (and the pool is not exhausted), it cancels all members whose
    /// guarantee is weaker or equal; the cancelled members observe the
    /// token at their next checkpoint and unwind with
    /// [`CoreError::Cancelled`], reported as
    /// [`MemberStatus::Cancelled`]. Members with strictly stronger
    /// guarantees keep running, so the final choice — minimum verified
    /// cost, chain order breaking ties — matches the sequential
    /// `solve_best` cost on instances where the strongest applicable
    /// member completes (an exact member's verified run *is* the
    /// optimum, and every other verified candidate costs at least that).
    pub fn solve_racing(
        &self,
        problem: &Problem,
        budget: &Budget,
    ) -> Result<PortfolioOutcome, CoreError> {
        self.dispatch(problem, budget, Strategy::Race)
    }

    /// Solve by connected-component decomposition: partition the
    /// compiled instance into independent shards, run **this chain's**
    /// [shard-local](Solver::shard_local) members first-verified-wins
    /// on each shard through the shard scheduler (every shard
    /// task drawing from `budget`'s shared pool), and merge the
    /// certified per-shard solutions (`crate::shard`, DESIGN.md §15).
    /// The report holds one `"sharded"` pseudo-member.
    ///
    /// Unlike the other strategies, verification composes from the
    /// per-shard checks (each shard's output is feasibility-checked and
    /// cost-evaluated on its own IR, then the merge re-checks
    /// feasibility and re-evaluates cost on the full IR); the merged
    /// guarantee is the weakest per-shard guarantee. A drained budget
    /// degrades the affected shards to their always-feasible incumbents
    /// instead of failing the run — inspect the report's guarantee (it
    /// weakens to `Heuristic`) to detect degradation. A shard on which
    /// no member verifies for any other reason fails the run with a
    /// typed error.
    pub fn solve_sharded(
        &self,
        problem: &Problem,
        budget: &Budget,
    ) -> Result<PortfolioOutcome, CoreError> {
        self.dispatch(problem, budget, Strategy::Shard)
    }

    /// The per-shard chain: `First` over the shard-local members,
    /// verified against the shard IR. No compile charge — the shard IR
    /// is assembled by the partitioner, not compiled — and no report: a
    /// shard keeps only its winner.
    pub(crate) fn solve_shard(
        &self,
        ir: &CompiledInstance,
        budget: &Budget,
    ) -> Result<Winner, CoreError> {
        fold(self.run_chain(Check::Shard(ir), budget, true), budget, drop)
    }

    /// Compile the shared IR exactly once, up front: every member,
    /// applicability check, and verification reads this one index. The
    /// compile is charged to the budget like any other work
    /// (`‖V‖ + ‖ΔV‖ + 1` ticks — one pass over the instance); a budget
    /// too small for the compile fails the whole run immediately with
    /// the typed exhaustion error, before any member is attempted.
    fn compile_and_charge(
        &self,
        problem: &Problem,
        budget: &Budget,
    ) -> Result<(u64, u64), CoreError> {
        let span = budget.span(Phase::Compile, "ir");
        let compile_start = now();
        let _ir = problem.compiled();
        let compile_micros = compile_start.elapsed().as_micros() as u64;
        let compile_ticks = (problem.norm_v() + problem.norm_delta()) as u64 + 1;
        let charged = budget.charge(compile_ticks);
        span.end_with(if charged.is_ok() {
            "charged"
        } else {
            "budget_refused"
        });
        charged?;
        Ok((compile_micros, compile_ticks))
    }

    /// The one execution core behind every public entry point.
    fn dispatch(
        &self,
        problem: &Problem,
        budget: &Budget,
        strategy: Strategy,
    ) -> Result<PortfolioOutcome, CoreError> {
        let (compile_micros, compile_ticks) = self.compile_and_charge(problem, budget)?;
        let check = Check::Problem(problem);
        let mut report = Vec::with_capacity(self.members.len());
        let keep = |r| report.push(r);
        let winner = match strategy {
            Strategy::First => fold(self.run_chain(check, budget, true), budget, keep),
            Strategy::Best => fold(self.run_chain(check, budget, false), budget, keep),
            Strategy::Race => fold(self.race(check, budget), budget, keep),
            Strategy::Shard => fold([self.run_sharded(problem, budget)], budget, keep),
        }?;
        Ok(PortfolioOutcome {
            solution: winner.solution,
            cost: winner.cost,
            winner: winner.name,
            report,
            compile_micros,
            compile_ticks,
        })
    }

    /// Members in chain order on the caller's thread, run lazily as the
    /// fold pulls them. With `stop_at_first`, members after the first
    /// verified one are reported as [`MemberStatus::NotReached`].
    fn run_chain<'a>(
        &'a self,
        check: Check<'a>,
        budget: &'a Budget,
        stop_at_first: bool,
    ) -> impl Iterator<Item = Slot> + 'a {
        let mut verified = false;
        self.members.iter().map(move |member| {
            let (name, guarantee) = (member.name(), member.guarantee(check.ir()));
            let slot = if stop_at_first && verified {
                Slot::unmetered(name, guarantee, (MemberStatus::NotReached, None))
            } else if !check.admits(member.as_ref()) {
                Slot::unmetered(name, guarantee, (MemberStatus::Skipped, None))
            } else if let Check::Shard(_) = check {
                // Not metered one by one: the `"sharded"`
                // pseudo-member meters the whole sweep, and
                // per-member handles, clocks and metrics on every
                // shard cost more than small shards' members do.
                let ran = self.contain(member.as_ref(), check, budget);
                Slot::unmetered(name, guarantee, ran)
            } else {
                // A fresh share per member: `own_used` then meters
                // exactly what this member charged, even if callers
                // reuse the pool.
                let handle = budget.share_labeled(name);
                metered(name, guarantee, &handle, || {
                    self.contain(member.as_ref(), check, &handle)
                })
            };
            verified |= slot.candidate.is_some();
            slot
        })
    }

    /// Every eligible member on its own scoped thread (see
    /// [`Portfolio::solve_racing`]).
    fn race(&self, check: Check<'_>, budget: &Budget) -> Vec<Slot> {
        metrics::RACES.inc();
        let ir = check.ir();
        let guarantees: Vec<Guarantee> = self.members.iter().map(|m| m.guarantee(ir)).collect();
        let eligible: Vec<bool> = self
            .members
            .iter()
            .map(|m| check.admits(m.as_ref()))
            .collect();
        // One share per member, labelled with the member name so each
        // thread's trace events separate into per-member span trees. The
        // caller's own handle is never cancelled, so `budget` stays
        // usable after the race.
        let handles: Vec<Budget> = self
            .members
            .iter()
            .map(|m| budget.share_labeled(m.name()))
            .collect();
        // Ineligible members keep their `Skipped` slot; each thread
        // overwrites its own.
        let mut slots: Vec<Slot> = self
            .members
            .iter()
            .zip(&guarantees)
            .map(|(m, &g)| Slot::unmetered(m.name(), g, (MemberStatus::Skipped, None)))
            .collect();

        std::thread::scope(|scope| {
            for ((i, member), slot) in self.members.iter().enumerate().zip(slots.iter_mut()) {
                if !eligible[i] {
                    continue;
                }
                let (handles, guarantees, eligible) = (&handles, &guarantees, &eligible);
                scope.spawn(move || {
                    let handle = &handles[i];
                    let ran = metered(member.name(), guarantees[i], handle, || {
                        self.contain(member.as_ref(), check, handle)
                    });
                    if ran.candidate.is_some() && !handle.is_exhausted() {
                        // Dominance cancellation: a verified member
                        // releases everyone it dominates. Strictly
                        // stronger members race on. The cause names this
                        // member so the losers' traces can say who won.
                        handle.trace(Phase::Race, Kind::Event, "verified_first", 0);
                        let mine = guarantees[i].strength();
                        for (j, h) in handles.iter().enumerate() {
                            if j != i && eligible[j] && guarantees[j].strength() >= mine {
                                h.cancel_with_cause(member.name());
                            }
                        }
                    }
                    if ran.report.status == MemberStatus::Cancelled {
                        // Close this member's span tree with a Cancel
                        // event naming the member that requested it.
                        let cause = handle.cancel_cause().unwrap_or("unknown");
                        handle.trace(Phase::Cancel, Kind::Event, cause, 0);
                    }
                    *slot = ran;
                });
            }
        });
        slots
    }

    /// The `"sharded"` pseudo-member: partition, run this chain per
    /// shard, merge. Its guarantee is the merged (weakest per-shard)
    /// guarantee.
    fn run_sharded(&self, problem: &Problem, budget: &Budget) -> Slot {
        let handle = budget.share_labeled("sharded");
        let mut merged = Guarantee::Heuristic;
        let mut slot = metered("sharded", merged, &handle, || {
            let out = crate::shard::solve_sharded_with(self, problem.compiled(), &handle);
            match out {
                Ok(out) => {
                    merged = out.guarantee;
                    let cost = out.cost;
                    (MemberStatus::Verified { cost }, Some((out.solution, cost)))
                }
                Err(error) => (MemberStatus::Failed { error }, None),
            }
        });
        slot.report.guarantee = merged;
        slot
    }

    /// The containment routine every member runs through: its solve
    /// inside one panic boundary, typed errors mapped to statuses, and
    /// its output verified inside another. Returns the status plus the
    /// verified candidate (solution, cost) when there is one.
    fn contain(
        &self,
        member: &dyn Solver,
        check: Check<'_>,
        budget: &Budget,
    ) -> (MemberStatus, Option<(Solution, f64)>) {
        match panic::catch_unwind(AssertUnwindSafe(|| member.solve(check.ir(), budget))) {
            Ok(Ok(solution)) => self.verify(check, solution, budget, member.name()),
            // A member that unwound with a typed cancellation did not
            // *fail*: it lost the race (or its request was cancelled).
            Ok(Err(CoreError::Cancelled { .. })) => (MemberStatus::Cancelled, None),
            Ok(Err(error)) => (MemberStatus::Failed { error }, None),
            Err(payload) => {
                let message = panic_message(payload);
                (MemberStatus::Panicked { message }, None)
            }
        }
    }

    /// The verification contract: nothing is accepted on a member's word.
    ///
    /// - standard objective: the solution must eliminate every `ΔV` tuple
    ///   (`is_feasible`) **and**, on a whole instance, survive
    ///   ground-truth re-evaluation (`verify_by_reevaluation`: every query
    ///   re-evaluated over `D ∖ ΔD` with `ΔD` skipped, no database copy,
    ///   each view tuple checked against the witness shortcut; its
    ///   re-evaluated side-effect is the verified cost);
    /// - balanced objective: every `ΔD` is feasible by definition, so
    ///   only the re-evaluation cross-check applies.
    ///
    /// Inside a shard, feasibility and cost are evaluated on the shard
    /// IR; the merge re-checks the union on the full IR.
    ///
    /// The checks run inside `catch_unwind`: corrupt tuple ids or a
    /// provenance disagreement panic in verification, and that panic must
    /// be contained exactly like a member's own.
    fn verify(
        &self,
        check: Check<'_>,
        solution: Solution,
        budget: &Budget,
        member: &'static str,
    ) -> (MemberStatus, Option<(Solution, f64)>) {
        // Shard verifications are not metered, like shard members.
        let top_level = matches!(check, Check::Problem(_));
        if top_level {
            metrics::VERIFICATIONS.inc();
        }
        let span = budget.span(Phase::Verify, member);
        // Stale-IR guard: the index the member solved against must
        // carry the problem's current mutation generation. A mismatch
        // means some caller installed or cached an IR across a
        // mutation; accepting a verification performed against it
        // would certify a solution for a different ΔV.
        if let Check::Problem(problem) = check {
            if let Err(error) = problem.verify_compiled(problem.compiled()) {
                span.end_with("stale_compiled");
                return (MemberStatus::Failed { error }, None);
            }
        }
        let verify_start = top_level.then(now);
        let standard = self.objective == Objective::Standard;
        let verified = panic::catch_unwind(AssertUnwindSafe(|| match check {
            Check::Problem(problem) => {
                let feasible = solution.is_feasible(problem);
                (!standard || feasible).then(|| {
                    let side_effect = solution.verify_by_reevaluation(problem);
                    if standard {
                        side_effect
                    } else {
                        solution.balanced_cost(problem)
                    }
                })
            }
            // One deletion mask, the thread's own, serves the
            // feasibility check and the cost.
            Check::Shard(ir) => {
                let mut bits = SHARD_MASK.take();
                ir.base_bits_into(&solution, &mut bits);
                let cost = (!standard || ir.is_feasible_bits(&bits)).then(|| {
                    if standard {
                        ir.side_effect_bits(&bits)
                    } else {
                        ir.balanced_cost_bits(&bits)
                    }
                });
                SHARD_MASK.set(bits);
                cost
            }
        }));
        if let Some(start) = verify_start {
            metrics::VERIFY_MICROS.observe(start.elapsed().as_micros() as u64);
        }
        let result = match verified {
            Err(payload) => (
                MemberStatus::RejectedVerification {
                    message: panic_message(payload),
                },
                None,
            ),
            Ok(None) => (MemberStatus::RejectedInfeasible, None),
            Ok(Some(cost)) if !cost.is_finite() => (
                MemberStatus::RejectedVerification {
                    message: format!("non-finite cost {cost}"),
                },
                None,
            ),
            Ok(Some(cost)) => (MemberStatus::Verified { cost }, Some((solution, cost))),
        };
        span.end_with(status_label(&result.0));
        result
    }
}

/// Run one member (or the sharded pseudo-member) on its own `handle`:
/// its span, wall-clock and tick meters around `run`.
fn metered(
    name: &'static str,
    guarantee: Guarantee,
    handle: &Budget,
    run: impl FnOnce() -> (MemberStatus, Option<(Solution, f64)>),
) -> Slot {
    metrics::MEMBERS_RUN.inc();
    let started = now();
    let pool_before = handle.used();
    let span = handle.span(Phase::Member, name);
    let mut slot = Slot::unmetered(name, guarantee, run());
    span.end_with(status_label(&slot.report.status));
    let report = &mut slot.report;
    report.micros = started.elapsed().as_micros() as u64;
    report.ticks = handle.own_used();
    report.pool_ticks = handle.used().saturating_sub(pool_before);
    metrics::MEMBER_MICROS.observe(report.micros);
    slot
}

/// The verified candidate a run picks: its solution and cost, and the
/// member that produced it, with that member's guarantee.
pub(crate) struct Winner {
    pub(crate) solution: Solution,
    pub(crate) cost: f64,
    pub(crate) name: &'static str,
    pub(crate) guarantee: Guarantee,
}

/// The one fold from per-member slots to the winner: the cheapest
/// verified candidate, strict `<` keeping the earliest member on equal
/// cost; with no verified candidate, [`failure_error`]. Every slot's
/// report entry goes to `keep`, in the order the slots come.
fn fold(
    slots: impl IntoIterator<Item = Slot>,
    budget: &Budget,
    mut keep: impl FnMut(MemberReport),
) -> Result<Winner, CoreError> {
    let mut best: Option<Winner> = None;
    let (mut tried, mut first_error) = (0, None);
    for slot in slots {
        let report = slot.report;
        if let Some((solution, cost)) = slot.candidate {
            if best.as_ref().is_none_or(|w| cost < w.cost) {
                best = Some(Winner {
                    solution,
                    cost,
                    name: report.name,
                    guarantee: report.guarantee,
                });
            }
        }
        match &report.status {
            MemberStatus::Skipped => {}
            MemberStatus::Failed { error } if first_error.is_none() => {
                tried += 1;
                first_error = Some(error.clone());
            }
            _ => tried += 1,
        }
        keep(report);
    }
    best.ok_or_else(|| failure_error(budget, first_error, tried))
}

/// No member produced a verified solution: prefer the budget error when
/// the budget drained (the caller can retry with more), then the first
/// member's typed error, then a generic infeasibility naming how many
/// members were `tried` (not skipped).
fn failure_error(budget: &Budget, first_error: Option<CoreError>, tried: usize) -> CoreError {
    if budget.is_exhausted() {
        return budget.error();
    }
    first_error.unwrap_or_else(|| CoreError::Infeasible {
        reason: format!(
            "no portfolio member produced a verifiable solution ({tried} members tried)"
        ),
    })
}

/// Stable lowercase label for a status, used as span-end trace detail.
fn status_label(status: &MemberStatus) -> &'static str {
    match status {
        MemberStatus::Skipped => "skipped",
        MemberStatus::NotReached => "not_reached",
        MemberStatus::Verified { .. } => "verified",
        MemberStatus::RejectedInfeasible => "rejected_infeasible",
        MemberStatus::RejectedVerification { .. } => "rejected_verification",
        MemberStatus::Panicked { .. } => "panicked",
        MemberStatus::Cancelled => "cancelled",
        MemberStatus::Failed {
            error: CoreError::BudgetExhausted { .. },
        } => "budget_exhausted",
        MemberStatus::Failed { .. } => "failed",
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Solve with the standard-objective portfolio under no budget: the
/// recommended "just give me an answer" entry point.
pub fn solve_portfolio(problem: &Problem) -> Result<PortfolioOutcome, CoreError> {
    Portfolio::standard().solve(problem, &Budget::unlimited())
}

/// Solve with the balanced-objective portfolio under no budget.
pub fn solve_portfolio_balanced(problem: &Problem) -> Result<PortfolioOutcome, CoreError> {
    Portfolio::balanced().solve(problem, &Budget::unlimited())
}

/// Race the standard-objective portfolio under no budget: the parallel
/// `solve_best` entry point for callers with cores to spare.
pub fn solve_portfolio_racing(problem: &Problem) -> Result<PortfolioOutcome, CoreError> {
    Portfolio::standard().solve_racing(problem, &Budget::unlimited())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use crate::test_support::{chain_problem, fig1_problem, star_problem};
    use delprop_relation::tup;
    use delprop_setcover::exact::ExactConfig;

    fn fig1() -> Problem {
        fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        })
    }

    #[test]
    fn standard_portfolio_matches_optimum_on_easy_cases() {
        for p in [
            fig1(),
            chain_problem(8, 3, &[1, 4]),
            star_problem(4, &[0, 2]),
        ] {
            let out = solve_portfolio(&p).unwrap();
            assert!(out.solution.is_feasible(&p));
            let opt = exact::solve(p.compiled(), ExactConfig::default()).cost;
            // The winner on these families is exact (single_query/dp_tree).
            assert!(
                (out.cost - opt).abs() < 1e-9,
                "portfolio {} vs opt {opt} (winner {})",
                out.cost,
                out.winner
            );
        }
    }

    #[test]
    fn report_covers_every_member_in_order() {
        let p = fig1();
        let out = solve_portfolio(&p).unwrap();
        let chain = Portfolio::standard();
        assert_eq!(
            out.report.iter().map(|r| r.name).collect::<Vec<_>>(),
            chain.member_names()
        );
        // fig1 is single-query single-deletion: first member wins, rest
        // not reached.
        assert_eq!(out.winner, "single_query");
        assert!(out.report[0].status.is_verified());
        assert!(out
            .report
            .iter()
            .skip(1)
            .all(|r| r.status == MemberStatus::NotReached));
    }

    #[test]
    fn solve_best_runs_everything_and_never_loses_to_solve() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let budget = Budget::unlimited();
        let chain = Portfolio::standard();
        let first = chain.solve(&p, &budget).unwrap();
        let best = chain.solve_best(&p, &Budget::unlimited()).unwrap();
        assert!(best.cost <= first.cost + 1e-9);
        assert!(!best
            .report
            .iter()
            .any(|r| r.status == MemberStatus::NotReached));
    }

    #[test]
    fn balanced_portfolio_is_verified_and_bounded_below_by_opt() {
        for p in [fig1(), star_problem(4, &[0, 2])] {
            let out = solve_portfolio_balanced(&p).unwrap();
            let opt = exact::solve_balanced(p.compiled(), ExactConfig::default()).cost;
            assert!(out.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn empty_deletions_solved_by_first_applicable_member_at_cost_zero() {
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |_| {});
        let out = solve_portfolio(&p).unwrap();
        assert_eq!(out.cost, 0.0);
        assert!(out.solution.is_empty());
    }

    #[test]
    fn drained_budget_yields_budget_exhausted() {
        let p = chain_problem(6, 3, &[1, 3]);
        let budget = Budget::with_ticks(0);
        let err = Portfolio::standard().solve(&p, &budget).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
    }

    #[test]
    fn compile_exhaustion_fails_immediately_with_typed_error() {
        let p = chain_problem(6, 3, &[1, 3]);
        // Enough for part of the compile charge but not all of it: the
        // run must fail before any member is attempted, and the reported
        // ticks must be clamped at the limit (no phantom inflation).
        let budget = Budget::with_ticks(2);
        let err = Portfolio::standard().solve(&p, &budget).unwrap_err();
        assert_eq!(err, CoreError::BudgetExhausted { ticks: 0 });
        assert!(budget.is_exhausted());
        assert_eq!(budget.used(), 0, "the refused compile charge rolls off");
    }

    #[test]
    fn post_exhaustion_members_report_zero_ticks() {
        use crate::runtime::fault::{FaultMode, FaultySolver};
        let p = chain_problem(6, 3, &[1, 3]);
        let chain = Portfolio::new(Objective::Standard)
            .with(GreedySolver)
            .with(FaultySolver::new(GreedySolver, FaultMode::ExhaustBudget))
            .with(GreedySolver);
        let out = chain.solve_best(&p, &Budget::with_ticks(10_000)).unwrap();
        assert!(out.report[0].status.is_verified());
        assert!(out.report[1].ticks > 0, "the hog did charge");
        // The member after the hog is refused at its first charge and
        // must show no phantom tick delta.
        assert!(matches!(
            out.report[2].status,
            MemberStatus::Failed {
                error: CoreError::BudgetExhausted { .. }
            }
        ));
        assert_eq!(out.report[2].ticks, 0);
        assert_eq!(out.report[2].pool_ticks, 0);
    }

    #[test]
    fn sequential_report_meters_per_member_ticks() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let out = Portfolio::standard()
            .solve_best(&p, &Budget::unlimited())
            .unwrap();
        for r in &out.report {
            // Single-handle sequential run: own meter == pool delta.
            assert_eq!(r.ticks, r.pool_ticks, "{}", r.name);
        }
    }

    #[test]
    fn racing_matches_sequential_on_easy_cases() {
        for p in [
            fig1(),
            chain_problem(8, 3, &[1, 4]),
            star_problem(4, &[0, 2]),
        ] {
            let seq = Portfolio::standard()
                .solve_best(&p, &Budget::unlimited())
                .unwrap();
            let raced = Portfolio::standard()
                .solve_racing(&p, &Budget::unlimited())
                .unwrap();
            assert!(raced.solution.is_feasible(&p));
            assert!(
                (raced.cost - seq.cost).abs() < 1e-9,
                "racing {} vs sequential {}",
                raced.cost,
                seq.cost
            );
        }
    }

    #[test]
    fn racing_leaves_the_callers_handle_usable() {
        let p = fig1();
        let budget = Budget::unlimited();
        let _ = Portfolio::standard().solve_racing(&p, &budget).unwrap();
        assert!(!budget.is_cancelled());
        assert!(budget.checkpoint().is_ok());
    }

    #[test]
    fn member_display_strings_are_informative() {
        let p = fig1();
        let out = solve_portfolio(&p).unwrap();
        let text = out.to_string();
        assert!(text.contains("winner single_query"));
        assert!(text.contains("not reached"));
    }
}
