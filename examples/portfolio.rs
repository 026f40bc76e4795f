//! The portfolio runtime: budgets, panic isolation, verified fallbacks.
//!
//! Solves a forest workload through the guarantee-ordered portfolio,
//! then demonstrates the robustness features one by one: a tick budget
//! that degrades gracefully, an injected panic that is contained and
//! reported instead of tearing down the process, and the racing path
//! that runs every applicable member on its own thread.
//!
//! Run with: `cargo run --example portfolio`

use delprop::core::runtime::solver::{ExactSolver, GreedySolver};
use delprop::core::runtime::{metrics, trace};
use delprop::core::solvers::local_search::Objective;
use delprop::core::{RingBufferSink, TraceSink};
use delprop::prelude::*;
use delprop::workload::forest::{self, ForestParams};
use delprop::workload::random_db::{self, RandomDbParams};
use std::sync::Arc;

fn main() {
    let p = forest::generate(
        ForestParams {
            levels: 4,
            window: 2,
            chains: 10,
            delete_fraction: 0.3,
            weighted: true,
        },
        7,
    );
    println!(
        "forest workload: ‖V‖ = {}, ‖ΔV‖ = {}\n",
        p.norm_v(),
        p.norm_delta()
    );

    // ------------------------------------------------------------------
    // 1. The default entry point: guarantee-ordered verified fallback.
    //    Every candidate is checked with `is_feasible` plus ground-truth
    //    re-evaluation before it may be reported.
    // ------------------------------------------------------------------
    let outcome = solve_portfolio(&p).unwrap();
    println!("{outcome}\n");

    // ------------------------------------------------------------------
    // 2. Budgets: an exact solve on a dense multi-query workload whose
    //    full branch-and-bound search needs hundreds of thousands of
    //    nodes. The tick counter is threaded into every hot loop
    //    (branch-and-bound nodes, simplex pivots, local-search moves),
    //    so the exact solver returns its best-so-far incumbent — still
    //    verified — instead of hanging.
    // ------------------------------------------------------------------
    let dense = random_db::generate(
        RandomDbParams {
            num_relations: 5,
            num_queries: 4,
            atoms_per_query: 2,
            domain: 5,
            tuples_per_relation: 18,
            delete_fraction: 0.4,
            weighted: true,
        },
        1,
    );
    let budget = Budget::with_ticks(50_000);
    let chain = Portfolio::new(Objective::Standard)
        .with(ExactSolver::default())
        .with(GreedySolver);
    match chain.solve(&dense, &budget) {
        Ok(out) => println!(
            "budgeted exact→greedy on a dense instance: winner {} at cost {}\n\
             ({} of 50000 ticks used, exhausted = {})\n",
            out.winner,
            out.cost,
            budget.used(),
            budget.is_exhausted()
        ),
        Err(e) => println!("budgeted exact→greedy: {e}\n"),
    }

    // ------------------------------------------------------------------
    // 3. Fault injection: a member that panics is caught by the runtime,
    //    reported, and the chain falls through to a healthy fallback.
    // ------------------------------------------------------------------
    let chain = Portfolio::new(Objective::Standard)
        .with(FaultySolver::new(GreedySolver, FaultMode::Panic))
        .with(GreedySolver);
    // Silence the default panic hook while the contained panic fires so
    // the demo output stays readable; the runtime catches it either way.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = chain.solve(&p, &Budget::unlimited()).unwrap();
    std::panic::set_hook(hook);
    println!("with an injected panic:\n{out}");
    assert!(out.solution.is_feasible(&p));

    // ------------------------------------------------------------------
    // 4. Racing: every applicable member on its own thread, all drawing
    //    from one atomic budget pool. The first member to verify cancels
    //    everyone with a weaker-or-equal guarantee; cancelled members
    //    show up as `cancelled` in the report, and the winner is chosen
    //    exactly like sequential `solve_best` (min verified cost, chain
    //    order on ties).
    // ------------------------------------------------------------------
    let raced = Portfolio::standard()
        .solve_racing(&p, &Budget::unlimited())
        .unwrap();
    println!("racing the whole chain:\n{raced}");
    assert!(raced.solution.is_feasible(&p));

    // ------------------------------------------------------------------
    // 5. Tracing: attach a ring-buffer sink to the budget before sharing
    //    and every phase — compile, member spans, verification, racing
    //    cancellations — lands in the ring as structured events, which
    //    dump to JSONL for offline inspection.
    // ------------------------------------------------------------------
    let ring = Arc::new(RingBufferSink::with_capacity(1 << 14));
    let budget = Budget::unlimited().with_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
    let traced = Portfolio::standard().solve_racing(&p, &budget).unwrap();
    let events = ring.snapshot();
    println!(
        "traced racing run: winner {}, {} events captured ({} recorded)",
        traced.winner,
        events.len(),
        ring.recorded()
    );
    match trace::dump_jsonl("artifacts/TRACE_portfolio.jsonl", &events) {
        Ok(()) => println!("trace dumped to artifacts/TRACE_portfolio.jsonl"),
        Err(e) => println!("trace not written: {e}"),
    }
    println!(
        "\nprocess-wide metrics after all of the above:\n{}",
        metrics::render()
    );
}
