//! Differential test of `Solution::verify_by_reevaluation`.
//!
//! The verifier re-evaluates every query over `D ∖ ΔD` in place (the
//! evaluator skips `ΔD`) and walks stored and re-evaluated views together.
//! The oracle below is the straightforward algorithm it replaced: copy the
//! database, delete `ΔD` from the copy, re-materialize the whole view set
//! and look every stored head up with `position_of`. Both must return the
//! same side-effect, bit for bit, on every solver's output and on seeded
//! random deletion sets that mix candidates, non-candidates, tuples the
//! database had already tombstoned and ids no relation holds.

use delprop::core::runtime::solver::{
    DpTreeSolver, GeneralBalancedSolver, GeneralSolver, GreedySolver, LowDegTreeSolver,
    LpRoundSolver, PrimalDualBalancedSolver, PrimalDualSolver, SingleQuerySolver, Solver,
};
use delprop::core::runtime::Budget;
use delprop::core::{Problem, Solution};
use delprop::query::{ViewSet, ViewTupleId};
use delprop::relation::{RelationId, TupleId};
use delprop::workload::rng::SplitMix64;
use delprop::workload::{figures, forest, gadget, random_db, redblue_gen};

/// The replaced verifier: delete `ΔD` from a copy of the database,
/// re-materialize every view, and binary-search each stored head.
fn oracle(sol: &Solution, p: &Problem) -> f64 {
    let mut db = p.db().clone();
    let ids: Vec<TupleId> = sol.deleted.iter().copied().collect();
    db.delete_all(&ids);
    let reeval = ViewSet::materialize(&db, p.queries()).unwrap();
    let mut side_effect = 0.0;
    for (vi, view) in p.views().views.iter().enumerate() {
        let new_view = &reeval.views[vi];
        for (ti, vt) in view.tuples.iter().enumerate() {
            let id = ViewTupleId::new(vi, ti);
            let survived = new_view.position_of(&vt.head).is_some();
            assert_eq!(survived, !sol.eliminates(p, id), "oracle: shortcut on {id}");
            if !survived && !p.is_deleted(id) {
                side_effect += p.weight(id);
            }
        }
        assert!(new_view.len() <= view.len());
    }
    side_effect
}

fn assert_agree(p: &Problem, sol: &Solution, what: &str) {
    let expected = oracle(sol, p);
    let got = sol.verify_by_reevaluation(p);
    assert_eq!(
        got.to_bits(),
        expected.to_bits(),
        "{what}: verifier {got} != oracle {expected} on ΔD = {:?}",
        sol.deleted
    );
}

/// The instance families: forest, pivot, random multi-query, the Thm 1/2
/// gadgets and the paper's figures.
fn families() -> Vec<(String, Problem)> {
    let mut out = Vec::new();
    for seed in 0..4u64 {
        let params = forest::ForestParams {
            weighted: seed % 2 == 0,
            ..Default::default()
        };
        out.push((format!("forest/{seed}"), forest::generate(params, seed)));
    }
    out.push(("pivot/5x3".into(), forest::pivot_broom(5, 3, &[0, 2, 4])));
    out.push(("pivot/4x2".into(), forest::pivot_broom(4, 2, &[1])));
    for seed in 0..6u64 {
        let params = random_db::RandomDbParams {
            weighted: seed % 2 == 1,
            num_queries: 2 + seed as usize % 3,
            ..Default::default()
        };
        out.push((format!("random/{seed}"), random_db::generate(params, seed)));
    }
    let small = redblue_gen::RedBlueParams {
        num_red: 5,
        num_blue: 4,
        num_sets: 7,
        weighted: true,
        ..Default::default()
    };
    for seed in 0..3u64 {
        let rb = redblue_gen::redblue(small, seed);
        out.push((format!("thm1/{seed}"), gadget::redblue_to_vse(&rb).problem));
        let pn = redblue_gen::posneg(small, seed);
        out.push((
            format!("thm2/{seed}"),
            gadget::posneg_to_balanced(&pn).problem,
        ));
    }
    out.push(("fig1".into(), figures::fig1_problem()));
    let fig2 = gadget::redblue_to_vse(&figures::fig2_redblue());
    out.push(("fig2".into(), fig2.problem));
    out
}

/// The same queries over a copy of `p`'s database with about a fifth of
/// its tuples tombstoned, with a random `ΔV` and fractional weights (so
/// a change in summation order would show in the bits).
fn tombstoned(p: &Problem, rng: &mut SplitMix64) -> Problem {
    let mut db = p.db().clone();
    let live: Vec<TupleId> = db.live_ids().collect();
    for t in live {
        if rng.chance(0.2) {
            db.delete(t);
        }
    }
    let mut q = Problem::new(db, p.queries().to_vec()).unwrap();
    let ids: Vec<ViewTupleId> = q.views().iter().map(|(id, _)| id).collect();
    for id in ids {
        if rng.chance(0.3) {
            q.mark_deleted_id(id).unwrap();
        }
        q.set_weight(id, rng.below(1000) as f64 / 7.0).unwrap();
    }
    q
}

/// A random `ΔD` over `p`: some candidates, some other live tuples, some
/// tombstoned slots and some ids past the end of a relation or schema.
fn random_deletion(p: &Problem, rng: &mut SplitMix64) -> Solution {
    let db = p.db();
    let candidates = p.candidates();
    let live: Vec<TupleId> = db.live_ids().collect();
    let mut dead: Vec<TupleId> = Vec::new();
    for (rid, _) in db.schema().iter() {
        let rel = db.relation(rid);
        dead.extend(
            (0..rel.capacity())
                .filter(|&i| !rel.is_live(i))
                .map(|i| TupleId::new(rid, i)),
        );
    }
    let mut deleted = Vec::new();
    for pool in [&candidates, &live, &dead] {
        if pool.is_empty() {
            continue;
        }
        for _ in 0..rng.below(pool.len().min(6) + 1) {
            deleted.push(pool[rng.below(pool.len())]);
        }
    }
    if rng.chance(0.3) {
        let rid = RelationId(rng.below(db.schema().len()));
        deleted.push(TupleId::new(
            rid,
            db.relation(rid).capacity() + rng.below(4),
        ));
    }
    if rng.chance(0.2) {
        deleted.push(TupleId::new(RelationId(db.schema().len() + 3), 0));
    }
    Solution::from_tuples(deleted)
}

fn members() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SingleQuerySolver),
        Box::new(DpTreeSolver),
        Box::new(LowDegTreeSolver),
        Box::new(PrimalDualSolver),
        Box::new(LpRoundSolver),
        Box::new(GeneralSolver),
        Box::new(GreedySolver),
        Box::new(PrimalDualBalancedSolver),
        Box::new(GeneralBalancedSolver),
    ]
}

fn check_members(name: &str, p: &Problem) -> usize {
    let ir = p.compiled();
    let mut checked = 0;
    for m in members() {
        if !m.applies(ir) {
            continue;
        }
        if let Ok(sol) = m.solve(ir, &Budget::unlimited()) {
            assert_agree(p, &sol, &format!("{name}: {}", m.name()));
            checked += 1;
        }
    }
    checked
}

fn check_random(name: &str, p: &Problem, rng: &mut SplitMix64, rounds: usize) {
    assert_agree(p, &Solution::empty(), &format!("{name}: empty ΔD"));
    assert_agree(
        p,
        &Solution::from_tuples(p.candidates()),
        &format!("{name}: all candidates"),
    );
    for round in 0..rounds {
        let sol = random_deletion(p, rng);
        assert_agree(p, &sol, &format!("{name}: random ΔD #{round}"));
    }
}

#[test]
fn member_outputs_verify_identically() {
    let mut checked = 0;
    for (name, p) in families() {
        checked += check_members(&name, &p);
    }
    assert!(checked >= 40, "only {checked} member outputs were compared");
}

#[test]
fn random_deletion_sets_verify_identically() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0001);
    for (name, p) in families() {
        check_random(&name, &p, &mut rng, 24);
    }
}

#[test]
fn tombstoned_databases_verify_identically() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0002);
    for (name, p) in families() {
        let q = tombstoned(&p, &mut rng);
        let name = format!("{name} (tombstoned)");
        check_members(&name, &q);
        check_random(&name, &q, &mut rng, 24);
    }
}
