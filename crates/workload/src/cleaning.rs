//! A QOCO-style query-oriented cleaning scenario (§V of the paper).
//!
//! Emerging cleaning systems collect expert feedback on the results of
//! several covering queries and must translate "these answers are wrong"
//! back into source deletions. The paper's point: processing feedback
//! **one query at a time** is order-dependent and can damage far more
//! good answers than the **batch** optimum over all queries at once —
//! the multi-query problem this library solves. Experiment EX-APP
//! measures the gap on this generator.

use crate::rng::SplitMix64;
use delprop_core::{Problem, Solution};
use delprop_query::{parse_query, ViewTupleId};
use delprop_relation::{tup, Database, RelationSchema, Schema, TupleId};
use std::collections::{BTreeSet, HashMap};

/// Parameters for the cleaning scenario.
#[derive(Debug, Clone, Copy)]
pub struct CleaningParams {
    /// Number of authors.
    pub authors: usize,
    /// Number of journals.
    pub journals: usize,
    /// Number of topics.
    pub topics: usize,
    /// Author-journal pairs (dirty fraction of these are errors).
    pub pairs: usize,
    /// Fraction of author-journal pairs that are erroneous.
    pub dirty_fraction: f64,
}

impl Default for CleaningParams {
    fn default() -> Self {
        CleaningParams {
            authors: 6,
            journals: 4,
            topics: 3,
            pairs: 14,
            dirty_fraction: 0.3,
        }
    }
}

/// A generated cleaning scenario.
#[derive(Debug)]
pub struct CleaningScenario {
    /// The deletion-propagation instance: three covering queries with the
    /// view tuples derived from dirty pairs marked for deletion.
    pub problem: Problem,
    /// The ground-truth dirty source tuples (`T1` pairs injected as
    /// errors); ideal cleaning deletes exactly these.
    pub dirty_tuples: Vec<TupleId>,
}

/// Generate a scenario: `T1(author, journal)`, `T2(journal, topic, n)`,
/// and three covering queries
/// `QA(a, j, t) :- T1(a, j), T2(j, t, n)` (author×topic feedback),
/// `QJ(a, j) :- T1(a, j)` (roster feedback),
/// `QT(j, t) :- T2(j, t, n)` (catalog feedback, never dirty here).
/// Every view tuple whose witnesses include a dirty pair is marked for
/// deletion — feedback a domain expert could give on any of the views.
pub fn generate(params: CleaningParams, seed: u64) -> CleaningScenario {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let schema = Schema::from_relations([
        RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    // Every journal covers 1..=topics topics.
    for j in 0..params.journals {
        let covered = 1 + rng.below(params.topics);
        for t in 0..covered {
            db.insert(
                "T2",
                tup![format!("J{j}"), format!("topic{t}"), 10 + t as i64],
            )
            .unwrap();
        }
    }
    // Author-journal pairs, some dirty.
    let mut dirty_tuples = Vec::new();
    let mut inserted = 0;
    let mut attempts = 0;
    while inserted < params.pairs && attempts < params.pairs * 30 {
        attempts += 1;
        let a = rng.below(params.authors);
        let j = rng.below(params.journals);
        let t1 = db.schema().relation_id("T1").unwrap();
        let key = [
            delprop_relation::Value::str(format!("A{a}")),
            delprop_relation::Value::str(format!("J{j}")),
        ];
        if db.find_by_key(t1, &key).is_some() {
            continue;
        }
        let id = db
            .insert("T1", tup![format!("A{a}"), format!("J{j}")])
            .unwrap();
        if rng.chance(params.dirty_fraction) {
            dirty_tuples.push(id);
        }
        inserted += 1;
    }
    if dirty_tuples.is_empty() {
        // Guarantee at least one error so the scenario is non-trivial.
        let t1 = db.schema().relation_id("T1").unwrap();
        if let Some((id, _)) = db.live_tuples(t1).next() {
            dirty_tuples.push(id);
        }
    }

    let queries = [
        "QA(a, j, t) :- T1(a, j), T2(j, t, n)",
        "QJ(a, j) :- T1(a, j)",
        "QT(j, t) :- T2(j, t, n)",
    ];
    let bound = queries
        .iter()
        .map(|src| parse_query(src).unwrap().bind(db.schema()).unwrap())
        .collect();
    let mut problem = Problem::new(db, bound).unwrap();

    // Incomplete feedback (§V: "the incompleteness of feedbacks may lead
    // to the non-existence of side-effect-free updated database"): for
    // each dirty pair the expert flags ONE of its QA answers (not all of
    // them), and only sometimes notices the roster (QJ) entry itself.
    // Iterate the Vec (not a HashSet): randomness is drawn inside the
    // loop, so the iteration order must be deterministic.
    let mut reported: Vec<ViewTupleId> = Vec::new();
    for &d in &dirty_tuples {
        let qa_hits: Vec<_> = problem
            .views()
            .iter()
            .filter(|(id, vt)| id.view == 0 && vt.unique_witnesses().contains(&d))
            .map(|(id, _)| id)
            .collect();
        if !qa_hits.is_empty() {
            reported.push(qa_hits[rng.below(qa_hits.len())]);
        }
        if qa_hits.is_empty() || rng.chance(0.5) {
            // Roster feedback: the QJ tuple of the dirty pair.
            if let Some((id, _)) = problem
                .views()
                .iter()
                .find(|(id, vt)| id.view == 1 && vt.unique_witnesses().contains(&d))
            {
                reported.push(id);
            }
        }
    }
    for id in reported {
        problem.mark_deleted_id(id).unwrap();
    }
    CleaningScenario {
        problem,
        dirty_tuples,
    }
}

/// The order-dependent sequential baseline the paper warns about: process
/// one query's feedback at a time (in the given view order), each time
/// picking, per reported tuple, the witness whose deletion damages the
/// fewest *remaining* view tuples — without seeing the other queries'
/// feedback. Returns the accumulated solution.
pub fn sequential_baseline(problem: &Problem, view_order: &[usize]) -> Solution {
    let mut deleted: BTreeSet<TupleId> = Default::default();
    for &vi in view_order {
        // Damage per base tuple within THIS view (the sequential cleaner
        // can't see the others): the non-ΔV tuples whose witness sets
        // contain it. ΔV is fixed, so one count per view suffices.
        let mut damage: HashMap<TupleId, usize> = HashMap::new();
        for (index, vt) in problem.views().views[vi].tuples.iter().enumerate() {
            if problem.is_deleted(ViewTupleId::new(vi, index)) {
                continue;
            }
            let touched: BTreeSet<TupleId> = vt.witness_sets.iter().flatten().copied().collect();
            for t in touched {
                *damage.entry(t).or_default() += 1;
            }
        }
        let demands: Vec<_> = problem
            .deletions()
            .iter()
            .copied()
            .filter(|id| id.view == vi)
            .collect();
        for rid in demands {
            let already_cut = problem.witnesses(rid).iter().any(|t| deleted.contains(t));
            if already_cut {
                continue;
            }
            // Greedy per-tuple choice by damage within this view.
            let best = problem
                .witnesses(rid)
                .iter()
                .copied()
                .min_by_key(|t| damage.get(t).copied().unwrap_or(0))
                .expect("non-empty witness set");
            deleted.insert(best);
        }
    }
    Solution::from_tuples(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delprop_core::solvers::exact;
    use delprop_setcover::exact::ExactConfig;

    #[test]
    fn scenario_is_well_formed() {
        let s = generate(CleaningParams::default(), 5);
        assert!(s.problem.norm_delta() > 0);
        assert!(!s.dirty_tuples.is_empty());
        // Deleting exactly the dirty tuples is always feasible: every
        // reported view tuple witnesses a dirty tuple.
        let ideal = Solution::from_tuples(s.dirty_tuples.iter().copied());
        assert!(ideal.is_feasible(&s.problem));
    }

    #[test]
    fn batch_never_loses_to_sequential() {
        for seed in 0..8 {
            let s = generate(CleaningParams::default(), seed);
            let batch = exact::solve(s.problem.compiled(), ExactConfig::default());
            let seq = sequential_baseline(&s.problem, &[0, 1, 2]);
            assert!(seq.is_feasible(&s.problem));
            if let Some(b) = batch.solution {
                assert!(
                    b.side_effect(&s.problem) <= seq.side_effect(&s.problem) + 1e-9,
                    "batch optimum beaten by sequential at seed {seed}"
                );
            }
        }
    }

    #[test]
    fn sequential_is_order_dependent_in_general() {
        // Over several seeds, at least one should show different costs
        // for different orders (the paper's order-dependence point); we
        // assert only that feasibility holds for every order, and record
        // the (possible) difference.
        let mut saw_difference = false;
        for seed in 0..60 {
            let s = generate(CleaningParams::default(), seed);
            let a = sequential_baseline(&s.problem, &[0, 1, 2]);
            let b = sequential_baseline(&s.problem, &[2, 1, 0]);
            assert!(a.is_feasible(&s.problem));
            assert!(b.is_feasible(&s.problem));
            if (a.side_effect(&s.problem) - b.side_effect(&s.problem)).abs() > 1e-9 {
                saw_difference = true;
            }
        }
        // Not guaranteed for every seed family, but this deterministic
        // suite does exhibit it; if the generator changes, revisit.
        assert!(
            saw_difference,
            "expected some order dependence across seeds"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(CleaningParams::default(), 3);
        let b = generate(CleaningParams::default(), 3);
        assert_eq!(a.problem.norm_v(), b.problem.norm_v());
        assert_eq!(a.dirty_tuples, b.dirty_tuples);
    }
}
