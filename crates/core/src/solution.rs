//! Solutions (`ΔD`) and the two objectives (§II.C, §III).
//!
//! Everything here evaluates through the unique-witness property: a
//! key-preserving view tuple is eliminated by `ΔD` iff its witness set
//! intersects `ΔD`. [`Solution::verify_by_reevaluation`] cross-checks that
//! shortcut by re-deriving every query's surviving answers `Qi(D ∖ ΔD)`
//! in place — the evaluator skips the tuples of `ΔD`, so the database is
//! never copied — and the portfolio runs it on every candidate it accepts.

use crate::problem::Problem;
use delprop_query::{heads_without, ViewTupleId};
use delprop_relation::{Tuple, TupleId};
use std::collections::BTreeSet;

/// A source-deletion solution `ΔD ⊆ D`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Solution {
    /// The deleted base tuples.
    pub deleted: BTreeSet<TupleId>,
}

impl Solution {
    /// Empty solution (deletes nothing).
    pub fn empty() -> Self {
        Solution::default()
    }

    /// Solution from tuple ids.
    pub fn from_tuples(ids: impl IntoIterator<Item = TupleId>) -> Self {
        Solution {
            deleted: ids.into_iter().collect(),
        }
    }

    /// Number of deleted base tuples (the *source side-effect* measure of
    /// the sibling problem line; reported for context, never optimized
    /// here).
    pub fn len(&self) -> usize {
        self.deleted.len()
    }

    /// Whether nothing is deleted.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
    }

    /// Whether view tuple `id` is eliminated by this solution.
    pub fn eliminates(&self, problem: &Problem, id: ViewTupleId) -> bool {
        problem
            .witnesses(id)
            .iter()
            .any(|t| self.deleted.contains(t))
    }

    /// Feasibility for the **standard** problem: every view tuple of `ΔV`
    /// is eliminated (condition (a) of §II.C; condition `Qi(D\ΔD) ⊆ Vi\ΔVi`
    /// follows because deletions only shrink key-preserving views).
    pub fn is_feasible(&self, problem: &Problem) -> bool {
        problem
            .deletions()
            .iter()
            .all(|&id| self.eliminates(problem, id))
    }

    /// The **view side-effect** `s_view`: total weight of preserved view
    /// tuples accidentally eliminated (§II.C (b), weighted per §IV).
    pub fn side_effect(&self, problem: &Problem) -> f64 {
        problem
            .preserved()
            .filter(|(id, _)| self.eliminates(problem, *id))
            .map(|(id, _)| problem.weight(id))
            .sum::<f64>()
            + 0.0 // normalize the empty sum's -0.0
    }

    /// The **balanced** objective (§III): weight of bad view tuples still
    /// present plus weight of good view tuples eliminated. Always finite;
    /// every `ΔD` is feasible for the balanced problem.
    pub fn balanced_cost(&self, problem: &Problem) -> f64 {
        let missed: f64 = problem
            .deleted()
            .filter(|(id, _)| !self.eliminates(problem, *id))
            .map(|(id, _)| problem.weight(id))
            .sum::<f64>();
        missed + self.side_effect(problem) + 0.0
    }

    /// Ground-truth check: re-evaluate every query over `D ∖ ΔD` and
    /// verify that the surviving view tuples are exactly those the
    /// witness shortcut predicts. Returns the re-evaluated side-effect.
    ///
    /// The re-evaluation derives each query's sorted, distinct surviving
    /// heads with the hash-join evaluator and `ΔD` as its skip set
    /// ([`heads_without`]), so the database is neither copied nor
    /// mutated, and it does not consult the IR or the stored witness
    /// sets: it is an independent check of the shortcut. Each stored view
    /// and its surviving heads are walked together in head order, with
    /// `ΔV` walked in step; every stored tuple is compared with its
    /// prediction, and a surviving head the stored view lacks is rejected
    /// (deletions cannot create view tuples).
    ///
    /// Key preservation is not re-checked here: over `D ∖ ΔD ⊆ D` each
    /// head's witness sets are a subset of the ones it has over `D`, and
    /// building the problem (`Problem::new` or `Problem::new_with_fds`)
    /// already checked that each head has exactly one.
    ///
    /// # Panics
    /// Panics if prediction and re-evaluation disagree (that would be a
    /// provenance bug, not bad input).
    pub fn verify_by_reevaluation(&self, problem: &Problem) -> f64 {
        let gone: Vec<TupleId> = self.deleted.iter().copied().collect();
        let mut demanded = problem.deletions().iter().peekable();
        let mut side_effect = 0.0;
        for (vi, view) in problem.views().views.iter().enumerate() {
            let surviving = heads_without(problem.db(), &view.query, &gone);
            let lacks = |head: &Tuple| {
                format!("re-evaluation produced head {head}, which stored view V{vi} lacks")
            };
            let mut fresh = surviving.iter().peekable();
            for (ti, vt) in view.tuples.iter().enumerate() {
                let id = ViewTupleId::new(vi, ti);
                let survived = match fresh.peek() {
                    Some(&head) if *head == vt.head => {
                        fresh.next();
                        true
                    }
                    Some(&head) => {
                        assert!(*head > vt.head, "{}", lacks(head));
                        false
                    }
                    None => false,
                };
                let predicted = !vt
                    .unique_witnesses()
                    .iter()
                    .any(|t| gone.binary_search(t).is_ok());
                assert_eq!(
                    survived, predicted,
                    "witness shortcut disagrees with re-evaluation on {id}"
                );
                let is_demanded = demanded.next_if_eq(&&id).is_some();
                if !survived && !is_demanded {
                    side_effect += problem.weight(id);
                }
            }
            if let Some(head) = fresh.next() {
                panic!("{}", lacks(head));
            }
        }
        side_effect
    }

    /// Restrict to the candidate tuples of `problem` (dropping deletions
    /// that cannot cut anything never increases either objective).
    ///
    /// Membership comes from the cached IR's sorted base table — no
    /// per-call candidate set is materialized.
    pub fn restricted_to_candidates(&self, problem: &Problem) -> Solution {
        let ir = problem.compiled();
        Solution {
            deleted: self
                .deleted
                .iter()
                .copied()
                .filter(|&t| ir.base_index(t).is_some())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delprop_query::{parse_query, ViewSet, ViewTuple};
    use delprop_relation::{tup, Database, RelationSchema, Schema, Tuple, Value};

    fn fig1() -> (Problem, Database) {
        let schema = Schema::from_relations([
            RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
            RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
        ])
        .unwrap();
        let mut d = Database::new(schema);
        for t in [
            tup!["Joe", "TKDE"],
            tup!["John", "TKDE"],
            tup!["Tom", "TKDE"],
            tup!["John", "TODS"],
        ] {
            d.insert("T1", t).unwrap();
        }
        for t in [
            tup!["TKDE", "XML", 30],
            tup!["TKDE", "CUBE", 30],
            tup!["TODS", "XML", 30],
        ] {
            d.insert("T2", t).unwrap();
        }
        let q4 = parse_query("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let mut p = Problem::new(d.clone(), vec![q4]).unwrap();
        p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        (p, d)
    }

    fn tid(db: &Database, rel: &str, key: &[Value]) -> TupleId {
        let r = db.schema().relation_id(rel).unwrap();
        db.find_by_key(r, key).unwrap()
    }

    #[test]
    fn fig1_q4_deleting_t1_side_effect_one() {
        let (p, d) = fig1();
        // Delete T1(John, TKDE): kills (John,TKDE,XML) and (John,TKDE,CUBE).
        let s = Solution::from_tuples([tid(&d, "T1", &[Value::str("John"), Value::str("TKDE")])]);
        assert!(s.is_feasible(&p));
        assert_eq!(s.side_effect(&p), 1.0);
        assert_eq!(s.verify_by_reevaluation(&p), 1.0);
    }

    #[test]
    fn fig1_q4_deleting_t2_side_effect_two() {
        let (p, d) = fig1();
        // Delete T2(TKDE, XML, 30): kills Joe/John/Tom × TKDE × XML.
        let s = Solution::from_tuples([tid(&d, "T2", &[Value::str("TKDE"), Value::str("XML")])]);
        assert!(s.is_feasible(&p));
        assert_eq!(s.side_effect(&p), 2.0);
        assert_eq!(s.verify_by_reevaluation(&p), 2.0);
    }

    #[test]
    fn empty_solution_infeasible_but_balanced() {
        let (p, _) = fig1();
        let s = Solution::empty();
        assert!(!s.is_feasible(&p));
        assert_eq!(s.side_effect(&p), 0.0);
        assert_eq!(s.balanced_cost(&p), 1.0); // the missed bad tuple
    }

    #[test]
    fn balanced_cost_combines_terms() {
        let (p, d) = fig1();
        let s = Solution::from_tuples([tid(&d, "T2", &[Value::str("TKDE"), Value::str("XML")])]);
        // bad tuple eliminated (0) + 2 good ones lost = 2.
        assert_eq!(s.balanced_cost(&p), 2.0);
    }

    #[test]
    fn weights_scale_objectives() {
        let (mut p, d) = fig1();
        // Make (Joe, TKDE, XML) precious.
        let joe = p.views().views[0]
            .position_of(&tup!["Joe", "TKDE", "XML"])
            .unwrap();
        p.set_weight(ViewTupleId::new(0, joe), 10.0).unwrap();
        let s = Solution::from_tuples([tid(&d, "T2", &[Value::str("TKDE"), Value::str("XML")])]);
        assert_eq!(s.side_effect(&p), 11.0);
    }

    #[test]
    fn restricted_to_candidates_drops_noise() {
        let (p, d) = fig1();
        let useful = tid(&d, "T1", &[Value::str("John"), Value::str("TKDE")]);
        let noise = tid(&d, "T1", &[Value::str("Tom"), Value::str("TKDE")]);
        let s = Solution::from_tuples([useful, noise]);
        let r = s.restricted_to_candidates(&p);
        assert_eq!(r.deleted.len(), 1);
        assert!(r.deleted.contains(&useful));
        assert!(r.side_effect(&p) <= s.side_effect(&p));
    }

    /// Fig. 1's Q4 instance with its stored view edited by `edit`, so the
    /// view disagrees with the database it claims to come from.
    fn tampered(edit: impl FnOnce(&mut Vec<ViewTuple>)) -> (Problem, Database) {
        let (p, d) = fig1();
        let mut view = p.views().views[0].clone();
        edit(&mut view.tuples);
        let views = ViewSet::from_views(vec![view]);
        let tampered = Problem::with_stored_views(d.clone(), p.queries().to_vec(), views);
        (tampered, d)
    }

    fn drop_head(tuples: &mut Vec<ViewTuple>, head: Tuple) {
        let at = tuples.iter().position(|vt| vt.head == head).unwrap();
        tuples.remove(at);
    }

    #[test]
    #[should_panic(expected = "witness shortcut disagrees")]
    fn verification_rejects_a_missing_witness() {
        // (John, TKDE, XML) forgets its T1 witness, so the shortcut says
        // deleting T1(John, TKDE) leaves it alone; re-evaluation kills it.
        let (p, d) = tampered(|tuples| {
            let vt = tuples
                .iter_mut()
                .find(|vt| vt.head == tup!["John", "TKDE", "XML"])
                .unwrap();
            let t2_only: Vec<TupleId> = vt.witness_sets[0][1..].to_vec();
            vt.witness_sets = vec![t2_only.into_boxed_slice()];
        });
        let s = Solution::from_tuples([tid(&d, "T1", &[Value::str("John"), Value::str("TKDE")])]);
        s.verify_by_reevaluation(&p);
    }

    #[test]
    #[should_panic(expected = "which stored view V0 lacks")]
    fn verification_rejects_a_head_the_stored_view_lacks() {
        // A head in the middle of the view's order is missing.
        let (p, _) = tampered(|tuples| drop_head(tuples, tup!["John", "TKDE", "XML"]));
        Solution::empty().verify_by_reevaluation(&p);
    }

    #[test]
    #[should_panic(expected = "which stored view V0 lacks")]
    fn verification_rejects_a_trailing_head_the_stored_view_lacks() {
        // The last head in the view's order is missing.
        let (p, _) = tampered(|tuples| {
            let last = tuples.last().unwrap().head.clone();
            drop_head(tuples, last);
        });
        Solution::empty().verify_by_reevaluation(&p);
    }

    #[test]
    fn untampered_stored_views_verify() {
        let (p, d) = tampered(|_| {});
        let s = Solution::from_tuples([tid(&d, "T1", &[Value::str("John"), Value::str("TKDE")])]);
        assert_eq!(s.verify_by_reevaluation(&p), 2.0);
    }

    #[test]
    fn deleting_everything_is_feasible_and_expensive() {
        let (p, _) = fig1();
        let s = Solution::from_tuples(p.db().live_ids());
        assert!(s.is_feasible(&p));
        assert_eq!(s.side_effect(&p), 6.0); // all preserved tuples lost
        assert_eq!(s.verify_by_reevaluation(&p), 6.0);
    }
}
