//! Differential test of the incremental deletion-propagation engine:
//! after any randomized stream of ΔV batches — deletes and restores
//! interleaved — the engine's installed projection must be
//! **byte-identical** (same `shape_digest`) to a cold
//! `CompiledInstance::compile` of a problem carrying the same ΔV, and
//! the auto-selected solver must return the same cost, the same ΔD,
//! and the same feasibility on both. Also covers the per-request
//! `with_delta` fork and the generation-stamp machinery that rejects
//! IR snapshots held across mutations.

use std::collections::BTreeSet;
use std::sync::Arc;

use delprop::core::{solve_auto, CompiledInstance, CoreError, DeltaBatch, Engine, Problem};
use delprop::query::ViewTupleId;
use delprop::workload::rng::SplitMix64;
use delprop::workload::{forest, random_db};

fn forest_case(chains: usize, delete_fraction: f64, seed: u64) -> Problem {
    forest::generate(
        forest::ForestParams {
            levels: 4,
            window: 2,
            chains,
            delete_fraction,
            weighted: false,
        },
        seed,
    )
}

fn weighted_random_case(seed: u64) -> Problem {
    random_db::generate(
        random_db::RandomDbParams {
            weighted: true,
            ..Default::default()
        },
        seed,
    )
}

fn all_ids(p: &Problem) -> Vec<ViewTupleId> {
    p.views().iter().map(|(id, _)| id).collect()
}

/// Cold-compile a pristine clone of `base` with exactly `delta` marked.
fn cold_compiled(base: &Problem, delta: &BTreeSet<ViewTupleId>) -> (Problem, CompiledInstance) {
    let mut cold = base.clone();
    // The engine's own stream started from base's deletions; rebuild
    // from a deletion-free clone by restoring anything not in `delta`.
    for id in all_ids(base) {
        if delta.contains(&id) {
            if !cold.is_deleted(id) {
                cold.mark_deleted_id(id).unwrap();
            }
        } else if cold.is_deleted(id) {
            cold.unmark_deleted_id(id).unwrap();
        }
    }
    let ir = CompiledInstance::compile(&cold);
    (cold, ir)
}

/// Drive one randomized ΔV stream and check digest + solver
/// equivalence against cold compiles at every step.
fn check_stream(base: Problem, seed: u64, steps: usize) {
    let ids = all_ids(&base);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut engine = Engine::new(base.clone()).unwrap();
    let mut mirror: BTreeSet<ViewTupleId> = base.deletions().iter().copied().collect();

    for step in 0..steps {
        // Draw disjoint delete/restore sets from the current state.
        let preserved: Vec<ViewTupleId> = ids
            .iter()
            .filter(|id| !mirror.contains(id))
            .copied()
            .collect();
        let deleted: Vec<ViewTupleId> = mirror.iter().copied().collect();
        let mut batch = DeltaBatch::default();
        if !preserved.is_empty() {
            for _ in 0..=rng.below(3) {
                batch.delete.push(preserved[rng.below(preserved.len())]);
            }
        }
        if !deleted.is_empty() && rng.chance(0.6) {
            for _ in 0..=rng.below(2) {
                batch.restore.push(deleted[rng.below(deleted.len())]);
            }
        }
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.generation, engine.generation(), "step {step}");
        for id in &batch.delete {
            mirror.insert(*id);
        }
        for id in &batch.restore {
            mirror.remove(id);
        }

        let (cold, cold_ir) = cold_compiled(&base, &mirror);
        let warm = engine.compiled();
        assert_eq!(
            warm.shape_digest(),
            cold_ir.shape_digest(),
            "seed {seed} step {step}: projection diverged from cold compile"
        );
        assert!(engine.problem().verify_compiled(&warm).is_ok());

        // Solver equivalence on a sample of steps (cost, ΔD, and
        // feasibility must match bit-for-bit on identical IRs).
        if step % 5 == 0 && !mirror.is_empty() {
            let warm_sol = solve_auto(engine.problem()).unwrap();
            let cold_sol = solve_auto(&cold).unwrap();
            assert_eq!(
                warm_sol.side_effect(engine.problem()).to_bits(),
                cold_sol.side_effect(&cold).to_bits(),
                "seed {seed} step {step}: cost diverged"
            );
            assert_eq!(
                warm_sol.deleted, cold_sol.deleted,
                "seed {seed} step {step}: ΔD diverged"
            );
            assert!(warm_sol.is_feasible(engine.problem()));
            assert!(cold_sol.is_feasible(&cold));
        }
    }
}

#[test]
fn forest_streams_match_cold_compiles() {
    // Pristine start and pre-seeded ΔV.
    check_stream(forest_case(32, 0.0, 11), 101, 30);
    check_stream(forest_case(32, 0.25, 12), 102, 30);
    check_stream(forest_case(24, 0.1, 13), 103, 20);
}

#[test]
fn weighted_random_streams_match_cold_compiles() {
    check_stream(weighted_random_case(21), 201, 25);
    check_stream(weighted_random_case(22), 202, 25);
}

#[test]
fn with_delta_forks_match_cold_compiles_mid_stream() {
    let base = forest_case(32, 0.15, 31);
    let mut engine = Engine::new(base.clone()).unwrap();
    let ids = all_ids(&base);
    let mut rng = SplitMix64::seed_from_u64(301);
    for round in 0..10 {
        // Advance the engine a step, then fork with extra deletions.
        let preserved: Vec<ViewTupleId> = ids
            .iter()
            .filter(|&&id| !engine.problem().is_deleted(id))
            .copied()
            .collect();
        if preserved.len() < 4 {
            break;
        }
        engine
            .apply(&DeltaBatch::deletes(
                [preserved[rng.below(preserved.len())]],
            ))
            .unwrap();

        // Client lists arrive verbatim: any ids, with repeats and ids
        // already in ΔV.
        let deleted: Vec<ViewTupleId> = engine.problem().deletions().iter().copied().collect();
        let mut extra: Vec<ViewTupleId> = (0..2 + rng.below(3))
            .map(|_| ids[rng.below(ids.len())])
            .collect();
        extra.push(extra[0]);
        extra.push(deleted[rng.below(deleted.len())]);
        let forked = engine.with_delta(&extra).unwrap();
        let mut delta: BTreeSet<ViewTupleId> = deleted.iter().copied().collect();
        delta.extend(extra.iter().copied());
        let (_, cold_ir) = cold_compiled(&base, &delta);
        assert_eq!(
            forked.compiled().shape_digest(),
            cold_ir.shape_digest(),
            "round {round}: with_delta fork diverged"
        );
        assert!(forked.verify_compiled(forked.compiled()).is_ok());

        // The fork is exactly a cloned engine applying `extra`.
        let report = engine
            .clone()
            .apply(&DeltaBatch::deletes(extra.iter().copied()))
            .unwrap();
        assert_eq!(forked.generation(), report.generation, "round {round}");

        // Nothing new to delete: the fork shares the installed IR.
        let already = [deleted[0], deleted[rng.below(deleted.len())], deleted[0]];
        let shared = engine.with_delta(&already).unwrap();
        assert_eq!(shared.generation(), engine.generation());
        assert!(
            Arc::ptr_eq(&shared.compiled_arc(), &engine.compiled()),
            "round {round}: an all-deleted extra must share the installed IR"
        );
    }
}

#[test]
fn restoring_everything_reaches_the_pristine_projection() {
    let base = forest_case(24, 0.3, 41);
    let mut engine = Engine::new(base.clone()).unwrap();
    let initial: Vec<ViewTupleId> = base.deletions().iter().copied().collect();
    assert!(!initial.is_empty(), "workload must seed deletions");
    engine
        .apply(&DeltaBatch::restores(initial.iter().copied()))
        .unwrap();
    let mut pristine = base.clone();
    for id in initial {
        pristine.unmark_deleted_id(id).unwrap();
    }
    assert_eq!(
        engine.compiled().shape_digest(),
        CompiledInstance::compile(&pristine).shape_digest()
    );
    assert_eq!(engine.problem().norm_delta(), 0);
}

// -------------------------------------------------------------------
// Generation stamps: stale snapshots must be rejected, not solved.
// -------------------------------------------------------------------

#[test]
fn verification_rejects_an_ir_held_across_a_mutation() {
    // The mutate-while-racing regression: a reader (the portfolio, a
    // verification pass) grabs the compiled Arc, then ΔV changes
    // underneath it. The old snapshot stays readable — epoch readers
    // depend on that — but verifying it against the mutated problem
    // must fail typed instead of certifying against the wrong ΔV.
    let mut p = forest_case(16, 0.2, 51);
    let snapshot = p.compiled_arc();
    assert!(p.verify_compiled(&snapshot).is_ok());
    let gen_before = p.generation();

    let victim = p
        .preserved()
        .map(|(id, _)| id)
        .next()
        .expect("some preserved tuple");
    p.mark_deleted_id(victim).unwrap();
    assert!(p.generation() > gen_before, "mutation must bump generation");
    match p.verify_compiled(&snapshot) {
        Err(CoreError::StaleCompiled { compiled, current }) => {
            assert!(current > compiled, "{compiled} vs {current}");
        }
        other => panic!("expected StaleCompiled, got {other:?}"),
    }
    // The snapshot itself is still coherent for its own generation —
    // and a fresh compile verifies against the new one.
    assert_eq!(snapshot.generation(), gen_before);
    assert!(p.verify_compiled(p.compiled()).is_ok());
}

#[test]
fn racing_reader_thread_gets_a_typed_stale_error() {
    let mut p = forest_case(16, 0.2, 52);
    let snapshot = p.compiled_arc();
    let victim = p.preserved().map(|(id, _)| id).next().unwrap();
    p.mark_deleted_id(victim).unwrap();
    // The reader finishes its (now obsolete) work on another thread;
    // its snapshot must still be usable as data...
    let handle = std::thread::spawn(move || (snapshot.num_demands(), snapshot));
    let (demands, snapshot) = handle.join().unwrap();
    assert!(demands > 0);
    // ...but the generation check rejects it for this problem.
    assert!(matches!(
        p.verify_compiled(&snapshot),
        Err(CoreError::StaleCompiled { .. })
    ));
}

#[test]
fn noop_mutations_do_not_invalidate_the_ir() {
    let mut p = forest_case(16, 0.2, 53);
    let already: ViewTupleId = *p.deletions().iter().next().unwrap();
    let snapshot = p.compiled_arc();
    let gen = p.generation();
    // Re-marking a deleted tuple and restoring a non-deleted one are
    // no-ops: the cached IR must survive both.
    p.mark_deleted_id(already).unwrap();
    let preserved = p.preserved().map(|(id, _)| id).next().unwrap();
    assert!(!p.unmark_deleted_id(preserved).unwrap());
    assert_eq!(p.generation(), gen);
    assert!(p.verify_compiled(&snapshot).is_ok());
}

#[test]
fn engine_batches_keep_the_projection_generation_current() {
    let base = forest_case(16, 0.2, 54);
    let mut engine = Engine::new(base).unwrap();
    let preserved: Vec<ViewTupleId> = engine.problem().preserved().map(|(id, _)| id).collect();
    for chunk in preserved.chunks(3).take(4) {
        let stale = engine.compiled();
        engine
            .apply(&DeltaBatch::deletes(chunk.iter().copied()))
            .unwrap();
        // The pre-batch snapshot is stale, the installed one is not.
        assert!(matches!(
            engine.problem().verify_compiled(&stale),
            Err(CoreError::StaleCompiled { .. })
        ));
        assert!(engine.problem().verify_compiled(&engine.compiled()).is_ok());
    }
}
