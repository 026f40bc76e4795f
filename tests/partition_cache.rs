//! The partition an IR keeps (DESIGN.md §15): the first sharded solve of
//! a compiled instance builds its component partition, every later solve
//! of the same instance reuses those shards, a newly published instance
//! builds its own, and the cache holds no handle to its own instance, so
//! dropping the last `Arc` frees it.
//!
//! Nothing here reads process-wide counters: other tests in the same
//! process partition instances concurrently.

use delprop::core::ir::CompiledInstance;
use delprop::core::shard::{cached_partition, partition, solve_sharded_ir, Partition};
use delprop::core::solvers::local_search::Objective;
use delprop::core::{DeltaBatch, Engine, ShardedOutcome};
use delprop::prelude::*;
use delprop::relation::{RelationId, TupleId};
use delprop::workload::forest::{self, ForestParams};
use std::sync::{Arc, Weak};

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

fn t(i: usize) -> TupleId {
    TupleId::new(RelationId(0), i)
}

/// Overlapping witness sets ({t0, t1} and {t1, t2}): one component.
fn connected() -> CompiledInstance {
    CompiledInstance::synthesize(
        &[(1.0, vec![t(0), t(1)]), (1.0, vec![t(1), t(2)])],
        &[(2.0, vec![t(2), t(3)]), (1.0, vec![t(0)])],
    )
}

fn solve(ir: &CompiledInstance, objective: Objective) -> ShardedOutcome {
    solve_sharded_ir(ir, objective, &Budget::unlimited()).unwrap()
}

fn assert_same_outcome(a: &ShardedOutcome, b: &ShardedOutcome) {
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.shards, b.shards);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.guarantee.strength(), b.guarantee.strength());
    assert_eq!(a.per_shard.len(), b.per_shard.len());
    for (x, y) in a.per_shard.iter().zip(&b.per_shard) {
        assert_eq!(x.solution, y.solution);
        assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        assert_eq!(x.member, y.member);
    }
}

fn assert_same_shards(a: &Partition, b: &Partition) {
    assert_eq!(a.shards.len(), b.shards.len());
    for (k, (x, y)) in a.shards.iter().zip(&b.shards).enumerate() {
        assert!(Arc::ptr_eq(&x.ir, &y.ir), "shard {k} was rebuilt");
    }
}

fn digests(part: &Partition) -> Vec<u64> {
    part.shards.iter().map(|s| s.ir.shape_digest()).collect()
}

/// (a) Two sharded solves of one IR share its shards and answer alike.
#[test]
fn repeated_solves_reuse_the_shards_and_answer_alike() {
    for objective in [Objective::Standard, Objective::Balanced] {
        let p = disjoint(4, 3);
        let ir = p.compiled_arc();
        let first = solve(&ir, objective);
        let after_first = cached_partition(&ir);
        let second = solve(&ir, objective);
        let after_second = cached_partition(&ir);
        assert!(first.shards >= 4, "copies stay value-disjoint");
        assert_eq!(after_first.shards.len(), first.shards);
        assert_same_shards(&after_first, &after_second);
        assert_same_outcome(&first, &second);
    }
}

/// (b) The cached shards are the shards a fresh partition builds.
#[test]
fn cached_shards_match_a_fresh_partition() {
    for (copies, seed) in [(2usize, 4u64), (5, 5)] {
        let p = disjoint(copies, seed);
        let ir = p.compiled_arc();
        solve(&ir, Objective::Standard);
        let (cached, fresh) = (cached_partition(&ir), partition(&ir));
        assert_eq!(digests(&cached), digests(&fresh), "copies={copies}");
        assert_eq!(cached.orphan_vulnerable, fresh.orphan_vulnerable);
        for (c, f) in cached.shards.iter().zip(&fresh.shards) {
            assert!(!Arc::ptr_eq(&c.ir, &f.ir), "partition() builds afresh");
        }
    }
    // A connected instance is its own only shard, cached or not.
    let ir = Arc::new(connected());
    let cached = cached_partition(&ir);
    assert_eq!(cached.shards.len(), 1);
    assert!(Arc::ptr_eq(&cached.shards[0].ir, &ir));
}

/// (c) A publish hands out a new IR, and the new IR partitions itself;
/// the old one keeps its own shards.
#[test]
fn a_published_ir_builds_its_own_partition() {
    let p = disjoint(3, 6);
    let mut engine = Engine::new(p).unwrap();
    let old = engine.compiled();
    solve(&old, Objective::Standard);
    let old_part = cached_partition(&old);

    let problem = engine.problem();
    let preserved = problem.views().iter().map(|(id, _)| id);
    let extra: Vec<_> = preserved
        .filter(|&id| !problem.is_deleted(id))
        .take(2)
        .collect();
    engine.apply(&DeltaBatch::deletes(extra)).unwrap();
    let new = engine.compiled();
    assert!(!Arc::ptr_eq(&old, &new), "a publish installs a new IR");

    let new_out = solve(&new, Objective::Standard);
    let new_part = cached_partition(&new);
    for s in &new_part.shards {
        let reused = old_part.shards.iter().any(|o| Arc::ptr_eq(&o.ir, &s.ir));
        assert!(!reused, "a new generation must not reuse an old shard");
    }
    assert_eq!(digests(&new_part), digests(&partition(&new)));
    assert!(new_part.shards.len() > 1);
    let cold = CompiledInstance::compile(engine.problem());
    assert_same_outcome(&new_out, &solve(&cold, Objective::Standard));
    assert_same_shards(&old_part, &cached_partition(&old));
}

/// Drop `ir` after warming its cache with a solve over `shards` shards:
/// the instance, and every shard it cached, must be freed.
fn assert_freed_after_warm_solve(ir: Arc<CompiledInstance>, shards: usize) {
    assert_eq!(solve(&ir, Objective::Standard).shards, shards);
    let shards: Vec<Weak<CompiledInstance>> = (cached_partition(&ir).shards.iter())
        .map(|s| Arc::downgrade(&s.ir))
        .collect();
    let weak = Arc::downgrade(&ir);
    drop(ir);
    assert!(weak.upgrade().is_none(), "the cache keeps its own IR alive");
    assert!(
        shards.iter().all(|s| s.upgrade().is_none()),
        "a shard outlived its IR"
    );
}

/// (d) A warm cache never keeps its IR alive.
#[test]
fn dropping_the_last_arc_frees_a_warm_ir() {
    // One component: the IR is its own shard, and the cache must not
    // hold it.
    assert_freed_after_warm_solve(Arc::new(connected()), 1);
    // Several components: the cache holds shards, never the parent.
    let ir = CompiledInstance::compile(&disjoint(3, 7));
    let shards = partition(&Arc::new(ir.clone())).shards.len();
    assert!(shards > 1);
    assert_freed_after_warm_solve(Arc::new(ir), shards);
}
