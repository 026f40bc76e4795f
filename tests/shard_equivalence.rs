//! Differential equivalence of the sharded solve path (DESIGN.md §15):
//! partitioning a multi-component instance and solving each component
//! through the shard scheduler must reproduce — byte for byte
//! on the cost — what the same deterministic chain reports on the whole
//! instance, because connected components are fully independent
//! subproblems. Also pins the single-component fast path (the partition
//! returns the parent `Arc` itself, no re-assembly) and the degradation
//! contract (budget exhaustion mid-shard yields per-shard incumbents
//! with the merged guarantee weakened, never an error).

use delprop::core::ir::CompiledInstance;
use delprop::core::shard::{self, partition, solve_sharded_ir};
use delprop::core::solvers::local_search::Objective;
use delprop::prelude::*;
use delprop::workload::forest::{self, ForestParams};
use std::sync::Arc;

fn disjoint(copies: usize, seed: u64) -> Problem {
    forest::generate_disjoint(
        ForestParams {
            levels: 4,
            window: 2,
            chains: 12,
            delete_fraction: 0.3,
            weighted: seed % 2 == 1,
        },
        copies,
        seed,
    )
}

/// Standard objective, randomized sweep: the merged sharded cost is
/// byte-equal to the unsharded deterministic chain's cost on the full
/// instance, the merged solution survives ground-truth
/// re-materialization, and every per-shard outcome byte-matches a
/// standalone solve of that shard's own IR.
#[test]
fn sharded_standard_matches_unsharded_chain() {
    for (copies, seed) in [(2usize, 3u64), (3, 4), (5, 5), (4, 6)] {
        let p = disjoint(copies, seed);
        let ir = p.compiled_arc();
        let budget = Budget::unlimited();
        let sharded = solve_sharded_ir(&ir, Objective::Standard, &budget).unwrap();
        let reference = shard::solve_component(&ir, Objective::Standard, &budget).unwrap();

        assert!(!sharded.degraded, "unlimited budget must not degrade");
        assert!(sharded.shards >= copies, "copies stay value-disjoint");
        assert_eq!(
            sharded.cost.to_bits(),
            reference.cost.to_bits(),
            "copies={copies} seed={seed}: sharded {} vs unsharded {}",
            sharded.cost,
            reference.cost
        );
        assert!(sharded.solution.is_feasible(&p));
        // Ground-truth re-materialization reproduces the reported cost.
        assert_eq!(
            sharded.solution.verify_by_reevaluation(&p).to_bits(),
            sharded.cost.to_bits()
        );

        // Each shard's reported outcome reproduces a standalone solve of
        // that shard's IR (same chain, fresh budget): the scheduler's
        // interleaving and the shared budget pool must not leak into
        // results.
        let part = partition(&ir);
        assert_eq!(part.shards.len(), sharded.per_shard.len());
        for (s, got) in part.shards.iter().zip(&sharded.per_shard) {
            let alone =
                shard::solve_component(&s.ir, Objective::Standard, &Budget::unlimited()).unwrap();
            assert_eq!(got.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(got.member, alone.member);
            assert_eq!(got.solution, alone.solution);
        }
    }
}

/// Every shard IR is byte-identical to a cold compile of the instance
/// with ΔV restricted to that shard's demands: the shared rank table
/// and the shared static layer leak nothing between components.
#[test]
fn shard_irs_equal_cold_compiles_of_their_demands() {
    for (copies, seed) in [(2usize, 3u64), (3, 4), (5, 5), (4, 6)] {
        let p = disjoint(copies, seed);
        let part = partition(&p.compiled_arc());
        assert!(part.shards.len() >= copies);
        for (c, s) in part.shards.iter().enumerate() {
            let mut cold = p.clone();
            for &id in p.deletions() {
                if !s.ir.demands().any(|d| d == id) {
                    cold.unmark_deleted_id(id).unwrap();
                }
            }
            assert_eq!(
                s.ir.shape_digest(),
                CompiledInstance::compile(&cold).shape_digest(),
                "copies={copies} seed={seed} shard {c}"
            );
        }
    }
}

/// Balanced objective: the merged outcome re-evaluates to its own
/// reported cost on the full instance and each per-shard solve is
/// reproducible standalone. (No byte-comparison against the full-IR
/// balanced chain: balanced members are heuristics, and a heuristic's
/// whole-instance trajectory may legitimately differ from its
/// per-component one.)
#[test]
fn sharded_balanced_is_reproducible_and_consistent() {
    for (copies, seed) in [(2usize, 7u64), (4, 8)] {
        let p = disjoint(copies, seed);
        let ir = p.compiled_arc();
        let sharded = solve_sharded_ir(&ir, Objective::Balanced, &Budget::unlimited()).unwrap();
        assert!(!sharded.degraded);
        let bits = ir.base_bits(&sharded.solution);
        assert_eq!(
            sharded.cost.to_bits(),
            ir.balanced_cost_bits(&bits).to_bits(),
            "merged balanced cost must be the full-instance evaluation"
        );
        let part = partition(&ir);
        for (s, got) in part.shards.iter().zip(&sharded.per_shard) {
            let alone =
                shard::solve_component(&s.ir, Objective::Balanced, &Budget::unlimited()).unwrap();
            assert_eq!(got.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(got.solution, alone.solution);
        }
    }
}

/// A connected instance takes the fast path: the partition hands back
/// the parent `Arc` itself (pointer equality, not just equal contents),
/// so single-component callers pay nothing for the sharding layer.
#[test]
fn single_component_fast_path_returns_identical_arc() {
    let schema = Schema::from_relations(vec![
        RelationSchema::new("R1", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("R2", 2, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    // Two chains sharing the R2 tuple: one component by construction.
    db.insert("R1", tup![1, 0]).unwrap();
    db.insert("R1", tup![2, 0]).unwrap();
    db.insert("R2", tup![0, 0]).unwrap();
    let q = parse_query("Q(x, y, z) :- R1(x, y), R2(y, z)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    p.mark_deleted(0, &tup![1i64, 0, 0]).unwrap();

    let ir = p.compiled_arc();
    let part = partition(&ir);
    assert_eq!(part.shards.len(), 1);
    assert!(
        Arc::ptr_eq(&part.shards[0].ir, &ir),
        "single component must reuse the parent instance"
    );
    // And the sharded solve still certifies it end to end.
    let out = solve_sharded_ir(&ir, Objective::Standard, &Budget::unlimited()).unwrap();
    assert!(out.solution.is_feasible(&p));
    assert_eq!(out.shards, 1);
}

/// Budget exhaustion mid-sweep: the sharded solve never errors out —
/// shards that could not run their chain fall back to their per-shard
/// incumbent (delete-all-candidates, trivially feasible), the outcome
/// is flagged degraded, and the merged guarantee weakens to Heuristic.
#[test]
fn budget_exhaustion_degrades_to_per_shard_incumbents() {
    let p = disjoint(4, 9);
    let ir = p.compiled_arc();
    let tiny = Budget::with_ticks(1);
    let out = solve_sharded_ir(&ir, Objective::Standard, &tiny).unwrap();
    assert!(out.degraded, "a 1-tick budget cannot run any chain member");
    assert!(out.per_shard.iter().any(|s| s.degraded));
    assert!(matches!(out.guarantee, Guarantee::Heuristic));
    // Degraded or not, the merged solution still eliminates every demand.
    assert!(out.solution.is_feasible(&p));
    assert_eq!(
        out.solution.verify_by_reevaluation(&p).to_bits(),
        out.cost.to_bits(),
        "even a degraded merge reports its ground-truth side effect"
    );

    // With enough budget the same instance certifies un-degraded, and
    // never at a worse cost than the degraded incumbent union.
    let full = solve_sharded_ir(&ir, Objective::Standard, &Budget::unlimited()).unwrap();
    assert!(!full.degraded);
    assert!(full.cost <= out.cost + 1e-9);
}

/// The synthesized-IR path (out-of-core scale runs) agrees with the
/// compiled path on the chain it feeds: a synthesized copy of a shard's
/// incidence rows solves to the same cost as the shard itself.
#[test]
fn synthesized_shard_rows_solve_identically() {
    let p = disjoint(3, 10);
    let ir = p.compiled_arc();
    let part = partition(&ir);
    assert!(part.shards.len() >= 3);
    for s in &part.shards {
        let sir = &s.ir;
        let demands: Vec<(f64, Vec<TupleId>)> = (0..sir.num_demands() as u32)
            .map(|d| {
                let ids = sir.demand_row(d).iter().map(|&b| sir.base(b)).collect();
                (1.0, ids)
            })
            .collect();
        let vulnerable: Vec<(f64, Vec<TupleId>)> = (0..sir.num_vulnerable() as u32)
            .map(|r| {
                let ids = sir.vulnerable_row(r).iter().map(|&b| sir.base(b)).collect();
                (sir.vulnerable_weight(r), ids)
            })
            .collect();
        let synth = CompiledInstance::synthesize(&demands, &vulnerable);
        let a = shard::solve_component(sir, Objective::Standard, &Budget::unlimited()).unwrap();
        let b = shard::solve_component(&synth, Objective::Standard, &Budget::unlimited()).unwrap();
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "synthesized rows must preserve the chain's cost"
        );
    }
}
