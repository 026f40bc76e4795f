//! The deletion-propagation problem instance (§II.C of the paper).
//!
//! An instance bundles a database `D`, key-preserving conjunctive queries
//! `Q = {Q1..Qm}`, their materialized views `V`, the requested view
//! deletions `ΔV`, and per-view-tuple preservation weights (§IV: "each
//! view tuple to be preserved has a weight representing user preference").

use crate::error::CoreError;
use crate::ir::CompiledInstance;
use delprop_query::properties::max_arity;
use delprop_query::{BoundQuery, ViewSet, ViewTuple, ViewTupleId};
use delprop_relation::{Database, Tuple, TupleId};
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, OnceLock};

/// A deletion-propagation instance over key-preserving conjunctive queries.
///
/// The immutable parts (database, queries, materialized views) live
/// behind `Arc`s, so cloning a problem to apply a per-request ΔV delta
/// (see [`crate::engine::Engine::with_delta`]) costs only the deletion
/// set and weight table — no view rematerialization, no database copy.
#[derive(Debug, Clone)]
pub struct Problem {
    db: Arc<Database>,
    queries: Arc<Vec<BoundQuery>>,
    views: Arc<ViewSet>,
    deletions: BTreeSet<ViewTupleId>,
    /// weights[view][index], defaulting to 1.0.
    weights: Vec<Vec<f64>>,
    /// Mutation generation: bumped by every IR-invalidating mutation
    /// (`mark_deleted*`, `unmark_deleted_id`, `set_weight`). A
    /// [`CompiledInstance`] is stamped with the generation it was built
    /// against; [`Problem::verify_compiled`] rejects stale pairings.
    generation: u64,
    /// Lazily compiled IR (see [`crate::ir`]), invalidated by every
    /// mutation. `Arc` so clones of an already-compiled problem share the
    /// compile.
    compiled: OnceLock<Arc<CompiledInstance>>,
}

impl Problem {
    /// Build an instance: materialize all views and validate that every
    /// query is key-preserving (the class this paper — and therefore this
    /// library — studies; non-key-preserving inputs are rejected because
    /// the unique-witness machinery is unsound for them).
    pub fn new(db: Database, queries: Vec<BoundQuery>) -> Result<Problem, CoreError> {
        for q in &queries {
            if !delprop_query::properties::is_key_preserving(q, db.schema()) {
                return Err(CoreError::NotKeyPreserving {
                    query: q.name.clone(),
                });
            }
        }
        let views = ViewSet::materialize(&db, &queries)?;
        Ok(Problem::from_parts(db, queries, views))
    }

    /// Build an instance whose queries are key-preserving only **under
    /// declared functional dependencies** (the "fd-extended" regime of
    /// the landscape tables): FDs widen the set of candidate keys, so
    /// queries rejected by [`Problem::new`] may still have unique
    /// witnesses per view tuple.
    ///
    /// Soundness is defended twice: the FDs are verified against the
    /// instance (else [`CoreError::FdViolation`]) and every materialized
    /// view tuple is checked to have exactly one witness set (else
    /// [`CoreError::StructureMismatch`], which would indicate an FD set
    /// too weak to pin witnesses down).
    pub fn new_with_fds(
        db: Database,
        queries: Vec<BoundQuery>,
        fds: &delprop_relation::SchemaFds,
    ) -> Result<Problem, CoreError> {
        if let Some((rid, fd_index)) = fds.check(&db) {
            return Err(CoreError::FdViolation {
                relation: db.schema().relation(rid).name().to_string(),
                fd_index,
            });
        }
        for q in &queries {
            if !delprop_query::properties::is_key_preserving_with_fds(q, db.schema(), fds) {
                return Err(CoreError::NotKeyPreserving {
                    query: q.name.clone(),
                });
            }
        }
        let views = ViewSet::materialize(&db, &queries)?;
        for (vi, view) in views.views.iter().enumerate() {
            for vt in &view.tuples {
                if vt.witness_sets.len() != 1 {
                    return Err(CoreError::StructureMismatch {
                        solver: "Problem::new_with_fds",
                        reason: format!(
                            "view {vi} tuple {} has {} witness sets despite the \
                             declared FDs; the FD set does not pin witnesses down",
                            vt.head,
                            vt.witness_sets.len()
                        ),
                    });
                }
            }
        }
        Ok(Problem::from_parts(db, queries, views))
    }

    /// Assemble an instance from already validated parts, with an empty
    /// `ΔV` and unit weights.
    fn from_parts(db: Database, queries: Vec<BoundQuery>, views: ViewSet) -> Problem {
        let weights = views.views.iter().map(|v| vec![1.0; v.len()]).collect();
        Problem {
            db: Arc::new(db),
            queries: Arc::new(queries),
            views: Arc::new(views),
            deletions: BTreeSet::new(),
            weights,
            generation: 0,
            compiled: OnceLock::new(),
        }
    }

    /// An instance whose stored views are taken as given instead of
    /// materialized from `db`, so tests can make them disagree with the
    /// database and check that verification notices.
    #[cfg(test)]
    pub(crate) fn with_stored_views(
        db: Database,
        queries: Vec<BoundQuery>,
        views: ViewSet,
    ) -> Problem {
        Problem::from_parts(db, queries, views)
    }

    /// The source database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The query set.
    pub fn queries(&self) -> &[BoundQuery] {
        &self.queries
    }

    /// The materialized views.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The paper's `l = max arity(Q)` over the query set.
    pub fn l(&self) -> usize {
        max_arity(self.queries.iter())
    }

    /// `‖V‖`: total number of view tuples.
    pub fn norm_v(&self) -> usize {
        self.views.total_tuples()
    }

    /// `‖ΔV‖`: total number of view tuples marked for deletion.
    pub fn norm_delta(&self) -> usize {
        self.deletions.len()
    }

    /// The compiled IR of this instance (see [`crate::ir`]), built on
    /// first use and cached until the next mutation. Every solver entry
    /// point consumes this; the portfolio's whole fallback chain shares
    /// one compile.
    pub fn compiled(&self) -> &CompiledInstance {
        self.compiled
            .get_or_init(|| Arc::new(CompiledInstance::compile(self)))
    }

    /// The compiled IR as a shareable `Arc` — what epoch publishers and
    /// the engine hand across threads. Same cache as
    /// [`Problem::compiled`].
    pub fn compiled_arc(&self) -> Arc<CompiledInstance> {
        self.compiled
            .get_or_init(|| Arc::new(CompiledInstance::compile(self)))
            .clone()
    }

    /// The mutation generation (see the field docs). Clones inherit the
    /// generation of their source, so generations order mutations within
    /// one lineage, not across independently mutated clones.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Check that a compiled instance still describes this problem.
    ///
    /// Racing portfolio members and epoch readers hold `Arc`s to the IR
    /// across arbitrary code; if the problem was mutated since the IR
    /// was built, verifying a solution against that IR would silently
    /// answer for the *old* instance. This is the guard: call it before
    /// trusting any IR-based verification or before publishing an IR.
    pub fn verify_compiled(&self, ir: &CompiledInstance) -> Result<(), CoreError> {
        if ir.generation() != self.generation {
            return Err(CoreError::StaleCompiled {
                compiled: ir.generation(),
                current: self.generation,
            });
        }
        Ok(())
    }

    /// Install an externally assembled IR (the engine's incremental
    /// projection) into the cache, so `compiled()` serves it without a
    /// cold compile. The IR's generation must match the problem's —
    /// enforced, because installing a stale projection would defeat the
    /// very staleness guard [`Problem::verify_compiled`] provides.
    pub(crate) fn install_compiled(&mut self, ir: Arc<CompiledInstance>) {
        assert_eq!(
            ir.generation(),
            self.generation,
            "install_compiled: IR generation must match the problem's"
        );
        let lock = OnceLock::new();
        let _ = lock.set(ir);
        self.compiled = lock;
    }

    /// Drop the cached IR after a mutation and advance the generation.
    fn invalidate_compiled(&mut self) {
        self.generation += 1;
        self.compiled.take();
    }

    /// Mark a view tuple (by id) for deletion.
    pub fn mark_deleted_id(&mut self, id: ViewTupleId) -> Result<(), CoreError> {
        if id.view >= self.views.views.len() || id.index >= self.views.views[id.view].len() {
            return Err(CoreError::UnknownViewTuple {
                view: id.view,
                description: format!("index {}", id.index),
            });
        }
        if self.deletions.insert(id) {
            self.invalidate_compiled();
        }
        Ok(())
    }

    /// Mark the view tuple of view `view` with head `head` for deletion.
    pub fn mark_deleted(&mut self, view: usize, head: &Tuple) -> Result<ViewTupleId, CoreError> {
        let v = self
            .views
            .views
            .get(view)
            .ok_or_else(|| CoreError::UnknownViewTuple {
                view,
                description: head.to_string(),
            })?;
        let index = v
            .position_of(head)
            .ok_or_else(|| CoreError::UnknownViewTuple {
                view,
                description: head.to_string(),
            })?;
        let id = ViewTupleId::new(view, index);
        if self.deletions.insert(id) {
            self.invalidate_compiled();
        }
        Ok(id)
    }

    /// Remove a view tuple from the deletion set (the rederivation half
    /// of the engine's DRed step: a previously requested deletion is
    /// withdrawn and the tuple re-joins the preserved side). Returns
    /// whether it was actually marked; unmarking an unmarked tuple is a
    /// no-op that leaves the generation untouched.
    pub fn unmark_deleted_id(&mut self, id: ViewTupleId) -> Result<bool, CoreError> {
        if id.view >= self.views.views.len() || id.index >= self.views.views[id.view].len() {
            return Err(CoreError::UnknownViewTuple {
                view: id.view,
                description: format!("index {}", id.index),
            });
        }
        let removed = self.deletions.remove(&id);
        if removed {
            self.invalidate_compiled();
        }
        Ok(removed)
    }

    /// Set the preservation weight of a view tuple (default 1.0). Weights
    /// on deleted view tuples matter only for the balanced objective.
    pub fn set_weight(&mut self, id: ViewTupleId, w: f64) -> Result<(), CoreError> {
        if !(w.is_finite() && w >= 0.0) {
            return Err(CoreError::InvalidWeight { value: w });
        }
        self.weights
            .get_mut(id.view)
            .and_then(|ws| ws.get_mut(id.index))
            .map(|slot| *slot = w)
            .ok_or(CoreError::UnknownViewTuple {
                view: id.view,
                description: format!("index {}", id.index),
            })?;
        self.invalidate_compiled();
        Ok(())
    }

    /// The weight of a view tuple.
    pub fn weight(&self, id: ViewTupleId) -> f64 {
        self.weights[id.view][id.index]
    }

    /// The deletion set `ΔV`.
    pub fn deletions(&self) -> &BTreeSet<ViewTupleId> {
        &self.deletions
    }

    /// Whether `id` is marked for deletion.
    pub fn is_deleted(&self, id: ViewTupleId) -> bool {
        self.deletions.contains(&id)
    }

    /// Iterate the view tuples to be **preserved** (`R = V \ ΔV`).
    pub fn preserved(&self) -> impl Iterator<Item = (ViewTupleId, &ViewTuple)> {
        self.views
            .iter()
            .filter(move |(id, _)| !self.is_deleted(*id))
    }

    /// Iterate the view tuples to be **deleted** (`ΔV`).
    pub fn deleted(&self) -> impl Iterator<Item = (ViewTupleId, &ViewTuple)> {
        self.deletions
            .iter()
            .map(move |&id| (id, self.views.tuple(id)))
    }

    /// The unique witness set of a view tuple (key-preservation guarantees
    /// uniqueness; problem construction enforced key-preservation).
    pub fn witnesses(&self, id: ViewTupleId) -> &[TupleId] {
        self.views.tuple(id).unique_witnesses()
    }

    /// Candidate deletion tuples: base tuples occurring in the witness set
    /// of some view tuple in `ΔV`. Deleting any other tuple can only cause
    /// damage without cutting anything, so every solver restricts itself
    /// to this set.
    pub fn candidates(&self) -> Vec<TupleId> {
        let mut out: BTreeSet<TupleId> = BTreeSet::new();
        for &id in &self.deletions {
            out.extend(self.witnesses(id).iter().copied());
        }
        out.into_iter().collect()
    }

    /// The preserved view tuples that contain at least one candidate tuple
    /// (the only ones any reasonable solution can damage).
    pub fn vulnerable_preserved(&self) -> Vec<ViewTupleId> {
        let candidates: HashSet<TupleId> = self.candidates().into_iter().collect();
        self.preserved()
            .filter(|(_, vt)| vt.unique_witnesses().iter().any(|t| candidates.contains(t)))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delprop_query::parse_query;
    use delprop_relation::{tup, RelationSchema, Schema};

    /// The paper's Fig. 1 database.
    pub(crate) fn fig1_db() -> Database {
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
        d
    }

    fn fig1_q4_problem() -> Problem {
        let db = fig1_db();
        let q4 = parse_query("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(db.schema())
            .unwrap();
        Problem::new(db, vec![q4]).unwrap()
    }

    #[test]
    fn rejects_non_key_preserving() {
        let db = fig1_db();
        let q3 = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(db.schema())
            .unwrap();
        assert!(matches!(
            Problem::new(db, vec![q3]),
            Err(CoreError::NotKeyPreserving { .. })
        ));
    }

    #[test]
    fn fig1_q4_sizes() {
        let p = fig1_q4_problem();
        assert_eq!(p.norm_v(), 7);
        assert_eq!(p.l(), 3);
        assert_eq!(p.norm_delta(), 0);
    }

    #[test]
    fn mark_deleted_by_head() {
        let mut p = fig1_q4_problem();
        let id = p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        assert!(p.is_deleted(id));
        assert_eq!(p.norm_delta(), 1);
        assert_eq!(p.preserved().count(), 6);
        assert_eq!(p.deleted().count(), 1);
    }

    #[test]
    fn mark_deleted_unknown_head_errors() {
        let mut p = fig1_q4_problem();
        assert!(p.mark_deleted(0, &tup!["Nobody", "X", "Y"]).is_err());
        assert!(p.mark_deleted(9, &tup!["x"]).is_err());
        assert!(p.mark_deleted_id(ViewTupleId::new(0, 999)).is_err());
    }

    #[test]
    fn candidates_are_blue_witnesses() {
        let mut p = fig1_q4_problem();
        p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        let cands = p.candidates();
        // Witnesses of (John,TKDE,XML): T1(John,TKDE) and T2(TKDE,XML,30).
        assert_eq!(cands.len(), 2);
        // Vulnerable preserved: view tuples sharing either witness:
        // Joe/TKDE/XML, Tom/TKDE/XML (share T2 tuple),
        // John/TKDE/CUBE (shares T1 tuple) -> 3.
        assert_eq!(p.vulnerable_preserved().len(), 3);
    }

    #[test]
    fn weights_default_and_set() {
        let mut p = fig1_q4_problem();
        let id = ViewTupleId::new(0, 0);
        assert_eq!(p.weight(id), 1.0);
        p.set_weight(id, 2.5).unwrap();
        assert_eq!(p.weight(id), 2.5);
        assert!(p.set_weight(id, -1.0).is_err());
        assert!(p.set_weight(id, f64::INFINITY).is_err());
        assert!(p.set_weight(ViewTupleId::new(5, 0), 1.0).is_err());
    }

    #[test]
    fn fd_extended_problem_accepts_q3_style_queries() {
        use delprop_relation::{FunctionalDependency, RelationFds, SchemaFds};
        // Data satisfying: each author has one journal (x → y on T1) and
        // each topic belongs to one journal (z → y, w on T2).
        let schema = Schema::from_relations([
            RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
            RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
        ])
        .unwrap();
        let mut d = Database::new(schema);
        d.insert("T1", tup!["Joe", "TKDE"]).unwrap();
        d.insert("T1", tup!["John", "TODS"]).unwrap();
        d.insert("T2", tup!["TKDE", "XML", 30]).unwrap();
        d.insert("T2", tup!["TODS", "CUBE", 20]).unwrap();
        let t1 = d.schema().relation_id("T1").unwrap();
        let t2 = d.schema().relation_id("T2").unwrap();
        let mut fds = SchemaFds::new();
        let mut f1 = RelationFds::new(2);
        f1.add(FunctionalDependency::new(vec![0], vec![1])).unwrap();
        fds.insert(t1, f1);
        let mut f2 = RelationFds::new(3);
        f2.add(FunctionalDependency::new(vec![1], vec![0, 2]))
            .unwrap();
        fds.insert(t2, f2);

        let q3 = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        // Plain constructor rejects; FD-aware constructor accepts.
        assert!(Problem::new(d.clone(), vec![q3.clone()]).is_err());
        let mut p = Problem::new_with_fds(d, vec![q3], &fds).unwrap();
        assert_eq!(p.norm_v(), 2);
        let id = p.mark_deleted(0, &tup!["Joe", "XML"]).unwrap();
        assert_eq!(p.witnesses(id).len(), 2, "unique witness set, 2 atoms");
    }

    #[test]
    fn fd_extended_problem_rejects_violated_fds() {
        use delprop_relation::{FunctionalDependency, RelationFds, SchemaFds};
        let db = fig1_db(); // John has two journals: x → y fails on T1
        let t1 = db.schema().relation_id("T1").unwrap();
        let mut fds = SchemaFds::new();
        let mut f1 = RelationFds::new(2);
        f1.add(FunctionalDependency::new(vec![0], vec![1])).unwrap();
        fds.insert(t1, f1);
        let q3 = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(db.schema())
            .unwrap();
        assert!(matches!(
            Problem::new_with_fds(db, vec![q3], &fds),
            Err(CoreError::FdViolation { .. })
        ));
    }

    #[test]
    fn fd_extended_problem_still_requires_coverage() {
        use delprop_relation::SchemaFds;
        let db = fig1_db();
        let q3 = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(db.schema())
            .unwrap();
        // No FDs declared: still not key-preserving.
        assert!(matches!(
            Problem::new_with_fds(db, vec![q3], &SchemaFds::new()),
            Err(CoreError::NotKeyPreserving { .. })
        ));
    }

    #[test]
    fn compiled_cache_invalidated_on_mutation() {
        let mut p = fig1_q4_problem();
        assert_eq!(p.compiled().norm_delta(), 0);
        let id = p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        assert_eq!(p.compiled().norm_delta(), 1, "mark_deleted rebuilds");
        let vul = p.compiled().vulnerable_id(0);
        p.set_weight(vul, 2.5).unwrap();
        assert_eq!(
            p.compiled().vulnerable_weight(0),
            2.5,
            "set_weight rebuilds"
        );
        p.mark_deleted_id(id).unwrap();
        assert_eq!(p.compiled().norm_delta(), 1);
        // Clones of a compiled problem share the cached IR (same Arc).
        let q = p.clone();
        assert_eq!(q.compiled().norm_delta(), 1);
    }

    #[test]
    fn witnesses_unique_for_key_preserving() {
        let mut p = fig1_q4_problem();
        let id = p.mark_deleted(0, &tup!["John", "TODS", "XML"]).unwrap();
        assert_eq!(p.witnesses(id).len(), 2);
    }
}
