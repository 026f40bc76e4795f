//! Materialized views with witness provenance.
//!
//! A [`View`] is a materialized query result `Q(D)`: the distinct head
//! tuples, each carrying its witness sets (one base tuple per atom, per
//! match producing that head).
//!
//! **Key-preservation ⇒ unique witnesses.** If `Q` is key-preserving, a view
//! tuple fixes the key values of every atom, the key constraint pins down at
//! most one base tuple per atom, and every occurrence of an existential
//! variable is forced by those tuples — so each view tuple has exactly one
//! witness set. [`View::materialize`] asserts this (it is a theorem, so a
//! violation indicates an engine bug), and [`ViewTuple::unique_witnesses`]
//! exposes it. The deletion-propagation solvers rely on this: *a view tuple
//! of a key-preserving query dies iff any of its witnesses is deleted.*

use crate::ast::BoundQuery;
use crate::error::QueryError;
use crate::eval::{hashjoin, CompiledQuery};
use crate::properties::is_key_preserving;
use delprop_relation::{Database, Tuple, TupleId};
use std::collections::{BTreeMap, HashSet};

/// One materialized view tuple: head values plus witness provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewTuple {
    /// The answer tuple `μ(y)`.
    pub head: Tuple,
    /// All witness sets (one per match). Each witness set lists one base
    /// tuple per body atom, deduplicated and sorted (self-joins can make
    /// two atoms match the same base tuple).
    pub witness_sets: Vec<Box<[TupleId]>>,
}

impl ViewTuple {
    /// The unique witness set of a key-preserving view tuple.
    ///
    /// # Panics
    /// Panics if there are multiple witness sets; call this only for views
    /// of key-preserving queries (materialization guarantees uniqueness for
    /// those).
    pub fn unique_witnesses(&self) -> &[TupleId] {
        assert_eq!(
            self.witness_sets.len(),
            1,
            "unique_witnesses on a non-key-preserving view tuple"
        );
        &self.witness_sets[0]
    }

    /// Whether this view tuple survives the deletion of `deleted`:
    /// it survives iff at least one witness set is fully intact.
    pub fn survives(&self, deleted: &HashSet<TupleId>) -> bool {
        self.witness_sets
            .iter()
            .any(|ws| ws.iter().all(|t| !deleted.contains(t)))
    }
}

/// A materialized view `V = Q(D)`.
#[derive(Debug, Clone)]
pub struct View {
    /// The defining query.
    pub query: BoundQuery,
    /// Whether `query` is key-preserving w.r.t. the schema it was
    /// materialized against (cached at materialization time).
    pub key_preserving: bool,
    /// View tuples in canonical (sorted-by-head) order.
    pub tuples: Vec<ViewTuple>,
}

impl View {
    /// Materialize `query` over `db` with the hash-join engine.
    pub fn materialize(db: &Database, query: &BoundQuery) -> Result<View, QueryError> {
        let compiled = CompiledQuery::compile(query);
        let matches = hashjoin::evaluate(db, &compiled, &[]);
        let key_preserving = is_key_preserving(query, db.schema());

        let mut by_head: BTreeMap<Tuple, Vec<Box<[TupleId]>>> = BTreeMap::new();
        for m in &matches {
            let mut ws: Vec<TupleId> = m.witnesses.clone();
            ws.sort_unstable();
            ws.dedup();
            let entry = by_head.entry(m.head(&compiled)).or_default();
            let ws: Box<[TupleId]> = ws.into_boxed_slice();
            if !entry.contains(&ws) {
                entry.push(ws);
            }
        }

        if key_preserving {
            // §II.C: key-preservation forces a unique witness set per view
            // tuple. Failure here is an engine bug, not bad input.
            for (head, wss) in &by_head {
                if wss.len() != 1 {
                    return Err(QueryError::NotKeyPreserving {
                        query: query.name.clone(),
                        reason: format!(
                            "view tuple {head} has {} distinct witness sets; \
                             key constraints should make this impossible",
                            wss.len()
                        ),
                    });
                }
            }
        }

        Ok(View {
            query: query.clone(),
            key_preserving,
            tuples: by_head
                .into_iter()
                .map(|(head, witness_sets)| ViewTuple { head, witness_sets })
                .collect(),
        })
    }

    /// Number of view tuples `|V|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Index of the view tuple with the given head, if present.
    pub fn position_of(&self, head: &Tuple) -> Option<usize> {
        self.tuples.binary_search_by(|vt| vt.head.cmp(head)).ok()
    }

    /// The view tuples surviving the deletion of `deleted`.
    pub fn surviving<'a>(
        &'a self,
        deleted: &'a HashSet<TupleId>,
    ) -> impl Iterator<Item = &'a ViewTuple> {
        self.tuples.iter().filter(move |vt| vt.survives(deleted))
    }
}

/// The sorted, distinct heads `Q(D ∖ gone)` of `query`, as if `gone` were
/// deleted from `db`, without copying `db` or building witness sets: how
/// verification re-evaluates the views under a solution `ΔD`. `gone` must
/// be strictly ascending; ids not live in `db` are ignored (see
/// [`hashjoin::evaluate`]).
pub fn heads_without(db: &Database, query: &BoundQuery, gone: &[TupleId]) -> Vec<Tuple> {
    let compiled = CompiledQuery::compile(query);
    let mut heads: Vec<Tuple> = hashjoin::evaluate(db, &compiled, gone)
        .iter()
        .map(|m| m.head(&compiled))
        .collect();
    heads.sort_unstable();
    heads.dedup();
    heads
}

/// Identity of a view tuple within a [`ViewSet`]: (view index, tuple index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewTupleId {
    /// Which view.
    pub view: usize,
    /// Index into that view's `tuples`.
    pub index: usize,
}

impl ViewTupleId {
    /// Construct a view-tuple id.
    pub fn new(view: usize, index: usize) -> Self {
        ViewTupleId { view, index }
    }
}

impl std::fmt::Display for ViewTupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "V{}#{}", self.view, self.index)
    }
}

/// The full set of materialized views `V = {V1, …, Vm}`.
///
/// The inverted index from base tuples to the view tuples whose witness
/// sets contain them lives in the compiled IR's static layer
/// (`delprop_core::ir`), built once per instance.
#[derive(Debug, Clone)]
pub struct ViewSet {
    /// Views in query order.
    pub views: Vec<View>,
}

impl ViewSet {
    /// Materialize every query in `queries` over `db`.
    pub fn materialize(db: &Database, queries: &[BoundQuery]) -> Result<ViewSet, QueryError> {
        let views = queries
            .iter()
            .map(|q| View::materialize(db, q))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ViewSet::from_views(views))
    }

    /// Build the set from materialized views.
    pub fn from_views(views: Vec<View>) -> ViewSet {
        ViewSet { views }
    }

    /// Total number of view tuples `‖V‖` (paper notation: sum of sizes).
    pub fn total_tuples(&self) -> usize {
        self.views.iter().map(View::len).sum()
    }

    /// Resolve a view-tuple id.
    pub fn tuple(&self, id: ViewTupleId) -> &ViewTuple {
        &self.views[id.view].tuples[id.index]
    }

    /// Whether every view is key-preserving (precondition of the solvers).
    pub fn all_key_preserving(&self) -> bool {
        self.views.iter().all(|v| v.key_preserving)
    }

    /// Iterate all `(id, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ViewTupleId, &ViewTuple)> {
        self.views.iter().enumerate().flat_map(|(vi, v)| {
            v.tuples
                .iter()
                .enumerate()
                .map(move |(ti, vt)| (ViewTupleId::new(vi, ti), vt))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use delprop_relation::{tup, Database, RelationSchema, Schema, Value};

    fn fig1_schema() -> Schema {
        Schema::from_relations([
            RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
            RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
        ])
        .unwrap()
    }

    /// Fig. 1 of the paper.
    fn fig1() -> Database {
        let mut d = Database::new(fig1_schema());
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
        d
    }

    fn bind(d: &Database, src: &str) -> BoundQuery {
        parse_query(src).unwrap().bind(d.schema()).unwrap()
    }

    #[test]
    fn q4_key_preserving_unique_witnesses() {
        let d = fig1();
        let q4 = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let v = View::materialize(&d, &q4).unwrap();
        assert!(v.key_preserving);
        assert_eq!(v.len(), 7, "Fig. 1(d) lists 7 view tuples");
        for vt in &v.tuples {
            assert_eq!(vt.unique_witnesses().len(), 2);
        }
    }

    #[test]
    fn q3_not_key_preserving_multi_witness() {
        let d = fig1();
        let q3 = bind(&d, "Q3(x, z) :- T1(x, y), T2(y, z, w)");
        let v = View::materialize(&d, &q3).unwrap();
        assert!(!v.key_preserving);
        assert_eq!(v.len(), 6, "Fig. 1(c) lists 6 view tuples");
        // (John, XML) has two witness sets: via TKDE and via TODS.
        let idx = v.position_of(&tup!["John", "XML"]).unwrap();
        assert_eq!(v.tuples[idx].witness_sets.len(), 2);
    }

    #[test]
    fn survives_semantics_differ_by_witness_multiplicity() {
        let d = fig1();
        let q3 = bind(&d, "Q3(x, z) :- T1(x, y), T2(y, z, w)");
        let v = View::materialize(&d, &q3).unwrap();
        let idx = v.position_of(&tup!["John", "XML"]).unwrap();
        let vt = &v.tuples[idx];
        // Deleting only (John, TKDE) leaves the TODS witness intact.
        let t1 = d.schema().relation_id("T1").unwrap();
        let john_tkde = d
            .find_by_key(t1, &[Value::str("John"), Value::str("TKDE")])
            .unwrap();
        let deleted: HashSet<_> = [john_tkde].into_iter().collect();
        assert!(vt.survives(&deleted));
        // Deleting both John rows kills it.
        let john_tods = d
            .find_by_key(t1, &[Value::str("John"), Value::str("TODS")])
            .unwrap();
        let deleted: HashSet<_> = [john_tkde, john_tods].into_iter().collect();
        assert!(!vt.survives(&deleted));
    }

    #[test]
    fn viewset_occurrence_index() {
        let d = fig1();
        let q4 = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let vs = ViewSet::materialize(&d, std::slice::from_ref(&q4)).unwrap();
        assert_eq!(vs.total_tuples(), 7);
        assert!(vs.all_key_preserving());
        // (TKDE, XML, 30) occurs in 3 view tuples: Joe/John/Tom × XML.
        let t2 = d.schema().relation_id("T2").unwrap();
        let tkde_xml = d
            .find_by_key(t2, &[Value::str("TKDE"), Value::str("XML")])
            .unwrap();
        let occurs = |t: TupleId| {
            vs.iter()
                .filter(|(_, vt)| vt.witness_sets.iter().any(|ws| ws.contains(&t)))
                .count()
        };
        assert_eq!(occurs(tkde_xml), 3);
        // An untouched tuple id occurs nowhere.
        assert_eq!(occurs(TupleId::new(t2, 999)), 0);
    }

    #[test]
    fn materialize_then_delete_matches_re_evaluation() {
        let mut d = fig1();
        let q4 = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let v = View::materialize(&d, &q4).unwrap();
        let t1 = d.schema().relation_id("T1").unwrap();
        let victim = d
            .find_by_key(t1, &[Value::str("John"), Value::str("TKDE")])
            .unwrap();
        let deleted: HashSet<_> = [victim].into_iter().collect();
        let predicted: Vec<_> = v.surviving(&deleted).map(|vt| vt.head.clone()).collect();
        d.delete(victim);
        let reeval = View::materialize(&d, &q4).unwrap();
        let actual: Vec<_> = reeval.tuples.iter().map(|vt| vt.head.clone()).collect();
        assert_eq!(predicted, actual);
    }

    fn heads(v: &View) -> Vec<Tuple> {
        v.tuples.iter().map(|vt| vt.head.clone()).collect()
    }

    /// `heads_without(db, q, gone)` against the heads of `materialize` on
    /// a copy of `db` with `gone` deleted.
    fn assert_without_matches_copy(d: &Database, q: &BoundQuery, gone: &[TupleId]) {
        let mut copy = d.clone();
        copy.delete_all(gone);
        let expected = heads(&View::materialize(&copy, q).unwrap());
        assert_eq!(heads_without(d, q, gone), expected, "gone = {gone:?}");
    }

    /// [`assert_without_matches_copy`] for every subset of `d`'s tuples,
    /// the empty one included.
    fn assert_every_subset_matches_copy(d: &Database, q: &BoundQuery) {
        let ids: Vec<TupleId> = d.live_ids().collect();
        for mask in 0u32..(1 << ids.len()) {
            let gone: Vec<TupleId> = (0..ids.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| ids[i])
                .collect();
            assert_without_matches_copy(d, q, &gone);
        }
    }

    #[test]
    fn heads_without_equals_deleting_from_a_copy() {
        let d = fig1();
        for src in [
            "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
            "Q3(x, z) :- T1(x, y), T2(y, z, w)",
        ] {
            assert_every_subset_matches_copy(&d, &bind(&d, src));
        }
    }

    #[test]
    fn heads_without_skips_tombstones_and_unknown_ids() {
        let mut d = fig1();
        let t1 = d.schema().relation_id("T1").unwrap();
        let t2 = d.schema().relation_id("T2").unwrap();
        let john_tkde = d
            .find_by_key(t1, &[Value::str("John"), Value::str("TKDE")])
            .unwrap();
        d.delete(john_tkde);
        let q = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let tkde_xml = d
            .find_by_key(t2, &[Value::str("TKDE"), Value::str("XML")])
            .unwrap();
        // An already-tombstoned id, a live one, and ids past the end of
        // a relation and of the schema.
        let mut gone = vec![
            john_tkde,
            TupleId::new(t1, 99),
            tkde_xml,
            TupleId::new(delprop_relation::RelationId(7), 0),
        ];
        gone.sort_unstable();
        assert_without_matches_copy(&d, &q, &gone);
    }

    #[test]
    fn heads_without_dedups_self_join_heads() {
        let schema =
            Schema::from_relations([RelationSchema::new("E", 2, vec![0, 1]).unwrap()]).unwrap();
        let mut d = Database::new(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3)] {
            d.insert("E", tup![a, b]).unwrap();
        }
        for src in ["Q(x, y) :- E(x, y), E(y, x)", "Q(x) :- E(x, y), E(y, x)"] {
            assert_every_subset_matches_copy(&d, &bind(&d, src));
        }
        // x = 1 matches through y = 1 and through y = 2: one head.
        let q = bind(&d, "Q(x) :- E(x, y), E(y, x)");
        assert_eq!(heads_without(&d, &q, &[]), vec![tup![1], tup![2], tup![3]]);
        let ids: Vec<TupleId> = d.live_ids().collect();
        assert_eq!(
            heads_without(&d, &q, &ids[1..2]),
            vec![tup![1], tup![3]],
            "deleting E(1, 2) leaves only the self-loops"
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn heads_without_rejects_unsorted_sets() {
        let d = fig1();
        let q = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let mut ids: Vec<TupleId> = d.live_ids().collect();
        ids.reverse();
        let _ = heads_without(&d, &q, &ids);
    }

    #[test]
    fn position_of_missing_head() {
        let d = fig1();
        let q4 = bind(&d, "Q4(x, y, z) :- T1(x, y), T2(y, z, w)");
        let v = View::materialize(&d, &q4).unwrap();
        assert!(v.position_of(&tup!["Nobody", "X", "Y"]).is_none());
    }

    #[test]
    fn self_join_witnesses_deduplicated() {
        let schema =
            Schema::from_relations([RelationSchema::new("E", 2, vec![0, 1]).unwrap()]).unwrap();
        let mut d = Database::new(schema);
        d.insert("E", tup![1, 1]).unwrap();
        let q = bind(&d, "Q(x, y) :- E(x, y), E(y, x)");
        let v = View::materialize(&d, &q).unwrap();
        assert_eq!(v.len(), 1);
        // Both atoms matched the same base tuple; the witness set has 1 id.
        assert_eq!(v.tuples[0].witness_sets[0].len(), 1);
    }
}
