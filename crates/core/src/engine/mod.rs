//! The incremental deletion-propagation engine: overdelete → rederive
//! on a delta-patchable IR.
//!
//! A cold [`Problem::compiled`] pays `O(‖V‖)` plus a data-dual-graph
//! construction on **every** mutation, even though the paper's
//! key-preserving structure makes maintenance local: a view deletion
//! only touches the base tuples on its witness path and, through the
//! provenance incidence, the view tuples sharing those bases. [`Engine`]
//! exploits that. It materializes the views and the ΔV-independent IR
//! layer ([`crate::ir::StaticLayer`], whose interned uid paths and
//! occurrence CSR are the witness provenance in both directions)
//! **once**, then services a stream of ΔV batches ([`DeltaBatch`])
//! DRed-style:
//!
//! 1. **Overdeletion closure** — deleting view tuple `v` reference-counts
//!    every base tuple on `path(v)` into the candidate set; each base
//!    tuple newly becoming a candidate walks its provenance row and
//!    marks the preserved view tuples sharing it as vulnerable
//!    (over-deleted: they *may* lose a witness).
//! 2. **Rederivation** — restoring `v` (withdrawing its deletion)
//!    decrements the same counters; candidates and vulnerable marks
//!    whose support drops to zero retract, and `v` itself rejoins the
//!    vulnerable set exactly when an alternative deletion still pins one
//!    of its witnesses (its support was *re-derived* from the remaining
//!    ΔV rather than restored wholesale).
//!
//! The counters are exact — a tuple is a candidate iff its refcount is
//! positive — so after any batch the active sets equal what a cold
//! compile would derive, and the engine projects them through the *same*
//! `CompiledInstance::assemble` path a cold compile uses,
//! onto the shared static layer. Warm projections are therefore
//! byte-identical to cold compiles by construction (the differential
//! suite `tests/incremental_equivalence.rs` checks
//! [`crate::ir::CompiledInstance::shape_digest`] equality per step).
//!
//! Membership is the refcounts themselves: the candidate uids and the
//! vulnerable view tuples are plain [`BitSet`]s that flip exactly on
//! their counters' 0↔1 transitions, and the demand set is the ΔV
//! bitset. A projection hands the three bitsets' members, ascending, to
//! `assemble` as dense indices, so it needs no sorting, no compaction
//! and no id lookups. The projected IR is installed
//! into the shadow problem's cache stamped with its mutation generation,
//! so every existing solver / portfolio / verification entry point works
//! unchanged — and [`Problem::verify_compiled`] rejects any stale IR a
//! racing reader may still hold.
//!
//! ```
//! use delprop_core::{DeltaBatch, Engine, Problem};
//! use delprop_query::parse_query;
//! use delprop_relation::{tup, Database, RelationSchema, Schema};
//!
//! let schema = Schema::from_relations([
//!     RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
//!     RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
//! ]).unwrap();
//! let mut db = Database::new(schema);
//! db.insert("T1", tup!["John", "TKDE"]).unwrap();
//! db.insert("T2", tup!["TKDE", "XML", 30]).unwrap();
//! let q = parse_query("Q(x, y, z) :- T1(x, y), T2(y, z, w)")
//!     .unwrap().bind(db.schema()).unwrap();
//! let problem = Problem::new(db, vec![q]).unwrap();
//!
//! let mut engine = Engine::new(problem).unwrap();
//! let id = engine.problem().views().iter().next().unwrap().0;
//! engine.apply(&DeltaBatch::deletes([id])).unwrap();
//! let sol = delprop_core::solve_auto(engine.problem()).unwrap();
//! assert!(sol.is_feasible(engine.problem()));
//! engine.apply(&DeltaBatch::restores([id])).unwrap();
//! assert_eq!(engine.problem().norm_delta(), 0);
//! ```

use crate::error::CoreError;
use crate::ir::{ActiveParts, CompiledInstance, StaticLayer};
use crate::problem::Problem;
use crate::runtime::metrics;
use delprop_query::ViewTupleId;
use delprop_setcover::BitSet;
use std::sync::Arc;

/// One ΔV maintenance step: view tuples to delete and deletions to
/// withdraw (restore). Within a batch, deletes apply before restores;
/// entries already in (respectively absent from) ΔV are no-ops.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// View tuples entering ΔV.
    pub delete: Vec<ViewTupleId>,
    /// View tuples leaving ΔV.
    pub restore: Vec<ViewTupleId>,
}

impl DeltaBatch {
    /// A pure-deletion batch.
    pub fn deletes(ids: impl IntoIterator<Item = ViewTupleId>) -> DeltaBatch {
        DeltaBatch {
            delete: ids.into_iter().collect(),
            restore: Vec::new(),
        }
    }

    /// A pure-restore batch.
    pub fn restores(ids: impl IntoIterator<Item = ViewTupleId>) -> DeltaBatch {
        DeltaBatch {
            delete: Vec::new(),
            restore: ids.into_iter().collect(),
        }
    }

    /// Whether the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.delete.is_empty() && self.restore.is_empty()
    }
}

/// What one [`Engine::apply`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Problem mutation generation after the batch.
    pub generation: u64,
    /// Deletions actually applied (requested minus no-ops).
    pub deleted: usize,
    /// Restores actually applied (requested minus no-ops).
    pub restored: usize,
    /// Preserved view tuples that entered the vulnerable set through the
    /// overdeletion closure of this batch.
    pub overdeleted: usize,
    /// View tuples whose vulnerable status was rederived (restored
    /// tuples re-entering the vulnerable set, or survivors kept by an
    /// alternative witness after retractions).
    pub rederived: usize,
}

/// A long-lived incremental deletion-propagation service over one
/// instance. See the module docs for the maintenance model.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The shadow problem: deletion set kept in lock-step with
    /// `deleted`, compiled-IR cache holding the latest projection.
    /// Exposed read-only — all mutation goes through [`Engine::apply`].
    problem: Problem,
    statics: Arc<StaticLayer>,
    /// ΔV membership over the dense view layout (the demand set).
    deleted: BitSet,
    /// Per-uid: number of ΔV members whose witness path contains it.
    /// Positive ⇔ candidate.
    cand_refs: Vec<u32>,
    /// Per view tuple: number of active candidate uids on its witness
    /// path. Positive ∧ preserved ⇔ vulnerable.
    vuln_refs: Vec<u32>,
    /// Candidate uids: exactly those with a positive `cand_refs`.
    cands: BitSet,
    /// Vulnerable dense view indices: positive `vuln_refs`, not in ΔV.
    vuln: BitSet,
}

impl Engine {
    /// Build an engine over `problem`. Any deletions already marked on
    /// the problem become the initial ΔV (applied through the same
    /// incremental machinery), and the initial projection is installed,
    /// so `problem().compiled()` is warm from the start.
    pub fn new(problem: Problem) -> Result<Engine, CoreError> {
        let statics = Arc::new(StaticLayer::build(&problem));
        let norm_v = statics.norm_v;
        let universe = statics.universe.len();
        let mut engine = Engine {
            problem,
            deleted: BitSet::new(norm_v),
            cand_refs: vec![0; universe],
            vuln_refs: vec![0; norm_v],
            cands: BitSet::new(universe),
            vuln: BitSet::new(norm_v),
            statics,
        };
        let initial: Vec<ViewTupleId> = engine.problem.deletions().iter().copied().collect();
        let initial = engine.resolve(&initial)?;
        engine.apply_resolved(&initial, &[]);
        Ok(engine)
    }

    /// The shadow problem: current ΔV, weights, and a warm compiled IR.
    /// Hand `problem()` to any solver or portfolio exactly as before.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The latest projection as a shareable `Arc` (generation-stamped).
    pub fn compiled(&self) -> Arc<CompiledInstance> {
        self.problem.compiled_arc()
    }

    /// Current problem mutation generation.
    pub fn generation(&self) -> u64 {
        self.problem.generation()
    }

    /// Apply one ΔV batch: validate, overdelete, rederive, and install
    /// the refreshed projection. All ids are validated **before** any
    /// state changes, so an `Err` leaves the engine exactly as it was.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, CoreError> {
        let delete = self.resolve(&batch.delete)?;
        let restore = self.resolve(&batch.restore)?;
        Ok(self.apply_resolved(&delete, &restore))
    }

    /// Fork a per-request problem: the engine's instance plus `extra`
    /// deletions, without mutating the engine. When `extra` adds nothing
    /// new the clone shares the installed IR; otherwise a forked engine
    /// applies `extra` as one deletion batch and hands back its problem.
    /// This is the serving daemon's delta path: one engine per epoch,
    /// one `with_delta` per request.
    pub fn with_delta(&self, extra: &[ViewTupleId]) -> Result<Problem, CoreError> {
        let extra = self.resolve(extra)?;
        if extra.iter().all(|&i| self.deleted.contains(i)) {
            return Ok(self.problem.clone());
        }
        let mut fork = self.clone();
        fork.apply_resolved(&extra, &[]);
        Ok(fork.problem)
    }

    // ---- internals ----

    /// The dense layout index of every id — one search per id — or an
    /// error for the first id outside the layout.
    fn resolve(&self, ids: &[ViewTupleId]) -> Result<Vec<usize>, CoreError> {
        let unknown = |id: &ViewTupleId| CoreError::UnknownViewTuple {
            view: id.view,
            description: format!("index {}", id.index),
        };
        (ids.iter())
            .map(|id| self.statics.dense(*id).ok_or_else(|| unknown(id)))
            .collect()
    }

    /// Apply a batch of resolved layout indices: overdelete, rederive,
    /// and install the refreshed projection.
    fn apply_resolved(&mut self, delete: &[usize], restore: &[usize]) -> DeltaReport {
        let mut report = DeltaReport::default();
        for &i in delete {
            if !self.deleted.contains(i) {
                let id = self.statics.view_tuples[i];
                self.problem.mark_deleted_id(id).expect("id in the layout");
                self.raw_delete(i, &mut report);
                report.deleted += 1;
            }
        }
        for &i in restore {
            if self.deleted.contains(i) {
                let id = self.statics.view_tuples[i];
                self.problem
                    .unmark_deleted_id(id)
                    .expect("id in the layout");
                self.raw_restore(i, &mut report);
                report.restored += 1;
            }
        }
        self.project();
        report.generation = self.problem.generation();
        report
    }

    /// Overdeletion closure for one new ΔV member (dense index `i`).
    fn raw_delete(&mut self, i: usize, report: &mut DeltaReport) {
        debug_assert!(!self.deleted.contains(i));
        self.deleted.insert(i);
        // A vulnerable tuple entering ΔV leaves the preserved side.
        self.vuln.remove(i);
        let statics = Arc::clone(&self.statics);
        for &uid in statics.path_uids(i) {
            self.cand_refs[uid as usize] += 1;
            if self.cand_refs[uid as usize] == 1 {
                self.cands.insert(uid as usize);
                for &j in statics.occ_row(uid) {
                    let j = j as usize;
                    self.vuln_refs[j] += 1;
                    if self.vuln_refs[j] == 1 && !self.deleted.contains(j) {
                        self.vuln.insert(j);
                        report.overdeleted += 1;
                    }
                }
            }
        }
    }

    /// Rederivation for one withdrawn ΔV member (dense index `i`).
    fn raw_restore(&mut self, i: usize, report: &mut DeltaReport) {
        debug_assert!(self.deleted.contains(i));
        let statics = Arc::clone(&self.statics);
        for &uid in statics.path_uids(i) {
            self.cand_refs[uid as usize] -= 1;
            if self.cand_refs[uid as usize] == 0 {
                self.cands.remove(uid as usize);
                for &j in statics.occ_row(uid) {
                    let j = j as usize;
                    self.vuln_refs[j] -= 1;
                    if self.vuln_refs[j] == 0 {
                        self.vuln.remove(j);
                    }
                }
            }
        }
        self.deleted.remove(i);
        // The restored tuple rejoins the vulnerable set exactly when an
        // alternative deletion still pins one of its witnesses.
        if self.vuln_refs[i] > 0 {
            self.vuln.insert(i);
            report.rederived += 1;
        }
    }

    /// Assemble the canonical projection of the current active sets and
    /// install it into the shadow problem's IR cache. Bitset iteration is
    /// ascending, which is the order `assemble` expects.
    fn project(&mut self) {
        let parts = ActiveParts {
            bases: members(&self.cands),
            demands: members(&self.deleted),
            vulnerable: members(&self.vuln),
        };
        let (statics, generation) = (Arc::clone(&self.statics), self.problem.generation());
        let rank = statics.rank_table(&parts.bases);
        let ir = CompiledInstance::assemble(statics, parts, &rank, generation);
        metrics::IR_PATCHES.inc();
        self.problem.install_compiled(Arc::new(ir));
    }
}

/// The members of `set`, ascending, in an exactly sized vector.
fn members(set: &BitSet) -> Vec<u32> {
    let mut out = Vec::with_capacity(set.count());
    out.extend(set.iter().map(|i| i as u32));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_problem, fig1_problem};
    use delprop_relation::tup;

    fn fig1() -> Problem {
        fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |_| {})
    }

    #[test]
    fn engine_matches_cold_compile_per_step() {
        let base = fig1();
        let mut engine = Engine::new(base.clone()).unwrap();
        let ids: Vec<ViewTupleId> = base.views().iter().map(|(id, _)| id).collect();
        // Delete three tuples one by one, then restore the middle one.
        for &id in &ids[..3] {
            engine.apply(&DeltaBatch::deletes([id])).unwrap();
            let mut cold = base.clone();
            let dels: Vec<ViewTupleId> = engine.problem().deletions().iter().copied().collect();
            for d in dels {
                cold.mark_deleted_id(d).unwrap();
            }
            assert_eq!(
                engine.compiled().shape_digest(),
                CompiledInstance::compile(&cold).shape_digest(),
                "after deleting {id}"
            );
        }
        engine.apply(&DeltaBatch::restores([ids[1]])).unwrap();
        let mut cold = base.clone();
        cold.mark_deleted_id(ids[0]).unwrap();
        cold.mark_deleted_id(ids[2]).unwrap();
        assert_eq!(
            engine.compiled().shape_digest(),
            CompiledInstance::compile(&cold).shape_digest(),
            "after rederive"
        );
    }

    #[test]
    fn restore_everything_returns_to_empty_delta() {
        let mut engine = Engine::new(fig1()).unwrap();
        let ids: Vec<ViewTupleId> = engine.problem().views().iter().map(|(id, _)| id).collect();
        engine
            .apply(&DeltaBatch::deletes(ids.iter().copied()))
            .unwrap();
        assert_eq!(engine.problem().norm_delta(), ids.len());
        engine
            .apply(&DeltaBatch::restores(ids.iter().copied()))
            .unwrap();
        assert_eq!(engine.problem().norm_delta(), 0);
        let ir = engine.compiled();
        assert_eq!(ir.num_demands(), 0);
        assert_eq!(ir.num_bases(), 0);
        assert_eq!(ir.num_vulnerable(), 0);
        // And it matches a cold compile of the pristine instance.
        assert_eq!(
            ir.shape_digest(),
            CompiledInstance::compile(&fig1()).shape_digest()
        );
    }

    #[test]
    fn with_delta_matches_cold_and_leaves_engine_untouched() {
        let p = chain_problem(10, 3, &[1, 5]);
        // Engine seeded with the problem's own deletions.
        let engine = Engine::new(p.clone()).unwrap();
        let gen_before = engine.generation();
        let digest_before = engine.compiled().shape_digest();

        let extra: Vec<ViewTupleId> = engine
            .problem()
            .preserved()
            .map(|(id, _)| id)
            .take(2)
            .collect();
        let forked = engine.with_delta(&extra).unwrap();
        let mut cold = p.clone();
        for &id in &extra {
            cold.mark_deleted_id(id).unwrap();
        }
        assert_eq!(
            forked.compiled().shape_digest(),
            CompiledInstance::compile(&cold).shape_digest()
        );
        assert!(forked.verify_compiled(forked.compiled()).is_ok());
        // Engine state is untouched.
        assert_eq!(engine.generation(), gen_before);
        assert_eq!(engine.compiled().shape_digest(), digest_before);

        // No-op delta shares the installed IR.
        let same = engine.with_delta(&[]).unwrap();
        assert_eq!(same.compiled().shape_digest(), digest_before);
    }

    #[test]
    fn unknown_ids_are_rejected_before_any_mutation() {
        let mut engine = Engine::new(fig1()).unwrap();
        let ok = engine.problem().views().iter().next().unwrap().0;
        let bogus = ViewTupleId::new(7, 7);
        let digest = engine.compiled().shape_digest();
        let err = engine.apply(&DeltaBatch {
            delete: vec![ok, bogus],
            restore: vec![],
        });
        assert!(matches!(err, Err(CoreError::UnknownViewTuple { .. })));
        assert_eq!(engine.problem().norm_delta(), 0, "no partial application");
        assert_eq!(engine.compiled().shape_digest(), digest);
        assert!(matches!(
            engine.with_delta(&[bogus]),
            Err(CoreError::UnknownViewTuple { .. })
        ));
    }

    #[test]
    fn delete_then_restore_rederives_vulnerable_status() {
        // Fig 1: deleting (John,TKDE,XML) makes (Joe,TKDE,XML) vulnerable
        // (shared T2 witness). Deleting (Joe,TKDE,XML) too moves it from
        // vulnerable to demand; restoring it must *rederive* it as
        // vulnerable, because (John,TKDE,XML) is still deleted.
        let p = fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        });
        let joe = p.views().views[0]
            .position_of(&tup!["Joe", "TKDE", "XML"])
            .map(|i| ViewTupleId::new(0, i))
            .unwrap();
        let mut engine = Engine::new(p).unwrap();
        assert!(engine.compiled().vulnerable().any(|v| v == joe));

        engine.apply(&DeltaBatch::deletes([joe])).unwrap();
        assert!(engine.compiled().demands().any(|v| v == joe));
        assert!(!engine.compiled().vulnerable().any(|v| v == joe));

        let report = engine.apply(&DeltaBatch::restores([joe])).unwrap();
        assert_eq!(report.rederived, 1, "Joe re-enters the vulnerable set");
        assert!(engine.compiled().vulnerable().any(|v| v == joe));
    }

    #[test]
    fn projection_counts_as_patch_not_compile() {
        // Structural, not counter-based: the process-wide compile counter
        // also moves when other tests compile on parallel threads. A
        // projection reuses the installed IR's static layer; a cold
        // compile always builds a fresh one.
        let mut engine = Engine::new(fig1()).unwrap();
        let id = engine.problem().views().iter().next().unwrap().0;
        let before = engine.problem().compiled().statics_arc();
        let report = engine.apply(&DeltaBatch::deletes([id])).unwrap();
        let after = engine.problem().compiled();
        assert_eq!(after.generation(), report.generation, "the new projection");
        assert!(
            Arc::ptr_eq(&before, &after.statics_arc()),
            "no cold compile"
        );
    }
}
