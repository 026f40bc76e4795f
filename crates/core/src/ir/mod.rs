//! The compiled instance IR: one flat CSR incidence index shared by every
//! solver, the portfolio, and the set-cover reductions.
//!
//! Every algorithm of the paper (Algorithms 1–4, the LP, the reductions of
//! Claim 1 / Lemma 1) is defined over a single object: the bipartite
//! incidence between candidate base tuples and view tuples, plus
//! per-view-tuple weights (§IV, Table I). [`CompiledInstance`] is that
//! object materialized **once** per [`Problem`] — dense `u32` indices via
//! interning tables, CSR adjacency in both directions, flat `f64` weight
//! arrays — and cached behind the problem ([`Problem::compiled`]), so the
//! portfolio's whole fallback chain shares one compile.
//!
//! §IV notation → field mapping (see DESIGN.md for the full table):
//!
//! | paper (§IV / Table I)                  | field |
//! |----------------------------------------|-------|
//! | candidate tuples `𝒞 ⊆ D`               | [`bases`](CompiledInstance::bases) (interned, sorted) |
//! | `ΔV` (demands / blue elements)          | [`demands`](CompiledInstance::demands) |
//! | vulnerable `R ⊆ V∖ΔV` (red elements)    | [`vulnerable`](CompiledInstance::vulnerable) |
//! | witness sets `ws(r)`, `r ∈ ΔV`          | [`demand_row`](CompiledInstance::demand_row) (CSR demand→base) |
//! | sets `C_t = {s : t ∈ ws(s)}`            | [`incidence_row`](CompiledInstance::incidence_row) / [`hit_row`](CompiledInstance::hit_row) (CSR base→view) |
//! | `k_s = |ws(s)|`                         | [`vulnerable_k`](CompiledInstance::vulnerable_k) |
//! | weights `w_s`                           | [`vulnerable_weight`](CompiledInstance::vulnerable_weight) / [`demand_weight`](CompiledInstance::demand_weight) |
//!
//! The struct is plain old data — `Vec`s of `Copy` types, no interior
//! mutability, no maps — hence `Send + Sync`, the prerequisite for
//! sharding solves across threads later.

use crate::problem::Problem;
use crate::runtime::metrics;
use crate::solution::Solution;
use delprop_hypergraph::{find_pivot_structure, DataDualGraph, DualHypergraph};
use delprop_query::ViewTupleId;
use delprop_relation::TupleId;
use delprop_setcover::kernel::words;
use delprop_setcover::{BitMatrix, BitSet};
use std::sync::Arc;

/// Number of [`CompiledInstance::compile`] calls so far in this process
/// — the `ir.compiles` metric, kept for the `EX-IR` experiment's
/// one-compile-per-portfolio-solve assertion. Monotone, process-wide.
pub fn compile_count() -> u64 {
    metrics::IR_COMPILES.get()
}

/// Number of incremental IR assemblies (engine projections) so far in
/// this process — the `ir.patches` metric. An assembly reuses a
/// [`StaticLayer`] and costs `O(active)`, a compile costs `O(‖V‖)` plus
/// a data-dual-graph construction.
pub fn patch_count() -> u64 {
    metrics::IR_PATCHES.get()
}

/// The pivot-forest structure (§IV.E), flattened from
/// [`delprop_hypergraph::PivotStructure`] at compile time so `DPTreeVSE`
/// never rebuilds the data dual graph.
#[derive(Debug, Clone)]
pub struct PivotData {
    /// Endpoint vertex of each view tuple's witness path, parallel to
    /// [`CompiledInstance::view_tuples`].
    pub endpoints: Vec<u32>,
    /// The base tuple behind each forest vertex.
    pub vertex_tuple: Vec<TupleId>,
    /// CSR child lists of the forest rooted at the pivots.
    pub children_offsets: Vec<u32>,
    /// Concatenated child vertices.
    pub children: Vec<u32>,
    /// All vertices in BFS order (reverse = post-order).
    pub bfs_order: Vec<u32>,
    /// Root vertex per component (the pivots).
    pub roots: Vec<u32>,
}

impl PivotData {
    /// Children of forest vertex `v`.
    pub fn children_of(&self, v: usize) -> &[u32] {
        &self.children[self.children_offsets[v] as usize..self.children_offsets[v + 1] as usize]
    }

    /// Number of forest vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_tuple.len()
    }
}

/// The ΔV-independent layer of the IR: everything derivable from the
/// database, the queries, and the materialized views alone — witness
/// paths, weights, the data-dual forest depths, the pivot certification,
/// and the query-dual forest flag. None of it mentions the deletion set,
/// so a long-lived [`crate::engine::Engine`] builds it **once** and every
/// incremental projection shares it by `Arc`; only the `O(active)` parts
/// (`ActiveParts`) are rebuilt per ΔV batch.
#[derive(Debug)]
pub struct StaticLayer {
    /// Every view tuple id, ascending (view-major materialization order).
    pub(crate) view_tuples: Vec<ViewTupleId>,
    /// Weight of every view tuple, parallel to `view_tuples`. Captured at
    /// build time: weight mutations invalidate the layer.
    pub(crate) all_weights: Vec<f64>,
    /// CSR witness paths of every view tuple (layout order).
    pub(crate) path_offsets: Vec<u32>,
    pub(crate) paths: Vec<TupleId>,
    /// Depth of each view tuple's witness-path top (its shallowest
    /// vertex) in the rooted data-dual forest, parallel to
    /// `view_tuples`; `None` when the data dual graph is not a forest
    /// (the demand order then falls back to ascending id order).
    pub(crate) top_depth: Option<Vec<u32>>,
    /// Pivot-forest certification (§IV.E), when the structure exists.
    pub(crate) pivot: Option<PivotData>,
    /// Whether the query dual hypergraph's components are hypertrees.
    pub(crate) forest_case: bool,
    pub(crate) l: usize,
    pub(crate) num_queries: usize,
    pub(crate) norm_v: usize,
}

impl StaticLayer {
    /// Build the layer: one pass over the views plus one data-dual-graph
    /// construction (shared by the forest depths and the pivot
    /// certification).
    pub(crate) fn build(problem: &Problem) -> StaticLayer {
        let norm_v = problem.norm_v();
        let mut view_tuples: Vec<ViewTupleId> = Vec::with_capacity(norm_v);
        let mut all_weights: Vec<f64> = Vec::with_capacity(norm_v);
        let mut all_paths: Vec<Vec<TupleId>> = Vec::with_capacity(norm_v);
        for (id, vt) in problem.views().iter() {
            view_tuples.push(id);
            all_weights.push(problem.weight(id));
            all_paths.push(vt.unique_witnesses().to_vec());
        }

        // One data-dual graph serves both the bottom-up demand order
        // (Algorithm 1) and the pivot certification (Algorithm 4).
        let graph = DataDualGraph::new(&all_paths);
        let top_depth = graph.rooted(None).map(|forest| {
            all_paths
                .iter()
                .map(|p| {
                    p.iter()
                        .filter_map(|&t| graph.vertex(t))
                        .map(|v| forest.depth[v])
                        .min()
                        .unwrap_or(0) as u32
                })
                .collect()
        });
        let pivot = find_pivot_structure(&graph).map(|p| {
            let children = p.forest.children();
            let (children_offsets, children) = to_csr(
                children
                    .into_iter()
                    .map(|row| row.into_iter().map(|v| v as u32).collect())
                    .collect(),
            );
            PivotData {
                endpoints: p.endpoints.iter().map(|&e| e as u32).collect(),
                vertex_tuple: (0..graph.num_vertices()).map(|v| graph.tuple(v)).collect(),
                children_offsets,
                children,
                bfs_order: p.forest.bfs_order.iter().map(|&v| v as u32).collect(),
                roots: p.forest.roots.iter().map(|&v| v as u32).collect(),
            }
        });

        let dual = DualHypergraph::new(
            &problem
                .queries()
                .iter()
                .map(|q| q.atoms.iter().map(|a| a.relation).collect())
                .collect::<Vec<_>>(),
        );
        let forest_case = dual.is_forest_case();

        let (path_offsets, paths) = {
            let mut offsets = Vec::with_capacity(all_paths.len() + 1);
            offsets.push(0u32);
            let mut data = Vec::new();
            for p in &all_paths {
                data.extend_from_slice(p);
                offsets.push(data.len() as u32);
            }
            (offsets, data)
        };

        StaticLayer {
            view_tuples,
            all_weights,
            path_offsets,
            paths,
            top_depth,
            pivot,
            forest_case,
            l: problem.l(),
            num_queries: problem.queries().len(),
            norm_v,
        }
    }

    /// Dense layout index of a view tuple id (`view_tuples` is sorted:
    /// `ViewTupleId`'s lexicographic order equals materialization order).
    pub(crate) fn dense(&self, id: ViewTupleId) -> usize {
        self.view_tuples
            .binary_search(&id)
            .expect("view tuple id within the materialized layout")
    }

    /// Witness path of the `i`-th view tuple (layout order).
    pub(crate) fn path_of(&self, i: usize) -> &[TupleId] {
        &self.paths[self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize]
    }

    /// `‖V‖`.
    pub(crate) fn norm_v(&self) -> usize {
        self.norm_v
    }
}

/// The ΔV-dependent inputs of an IR assembly: the active subproblem a
/// [`StaticLayer`] is projected onto. All four members are canonical —
/// sorted ascending, exactly what a cold [`CompiledInstance::compile`]
/// of the same problem state would derive — so cold and incremental
/// assemblies are byte-identical by construction.
pub(crate) struct ActiveParts {
    /// Candidate base tuples `𝒞`, sorted ascending.
    pub(crate) bases: Vec<TupleId>,
    /// `ΔV` in ascending `ViewTupleId` order.
    pub(crate) demands: Vec<ViewTupleId>,
    /// Vulnerable preserved view tuples, ascending.
    pub(crate) vulnerable: Vec<ViewTupleId>,
    /// Per-view-tuple ΔV membership, parallel to the layout.
    pub(crate) deleted: Vec<bool>,
}

/// A deletion-propagation instance compiled to flat dense-index form.
///
/// Built by [`CompiledInstance::compile`] (or lazily via
/// [`Problem::compiled`]); all ten solver entry points consume this
/// instead of re-deriving incidence maps from [`Problem`].
#[derive(Debug, Clone)]
pub struct CompiledInstance {
    // ---- interning tables ----
    /// Candidate base tuples `𝒞` (sorted ascending; dense base index).
    bases: Vec<TupleId>,
    /// `ΔV` in ascending `ViewTupleId` order (dense demand index).
    demands: Vec<ViewTupleId>,
    /// Vulnerable preserved view tuples, ascending (dense red index).
    vulnerable: Vec<ViewTupleId>,

    // ---- flat weight arrays ----
    demand_weights: Vec<f64>,
    vulnerable_weights: Vec<f64>,

    // ---- CSR adjacency (both directions) ----
    /// demand → witness bases (row order = witness-set order: sorted).
    demand_offsets: Vec<u32>,
    demand_witnesses: Vec<u32>,
    /// base → incident vulnerable view tuples (rows sorted ascending).
    incidence_offsets: Vec<u32>,
    incidence: Vec<u32>,
    /// base → demands whose witness set contains it (rows sorted).
    hit_offsets: Vec<u32>,
    hit_demands: Vec<u32>,
    /// vulnerable → candidate witnesses (`ws(s) ∩ 𝒞`).
    vulnerable_offsets: Vec<u32>,
    vulnerable_witnesses: Vec<u32>,

    // ---- packed bitset rows (kernel layer) ----
    /// demand → witness-base membership, one packed row per demand over
    /// the base universe. `witness_mask_row(d)` ∩ deletion mask ≠ ∅ is the
    /// branch-free form of "`mask` eliminates `d`".
    witness_masks: BitMatrix,
    /// vulnerable → candidate-witness membership, one packed row per red
    /// element over the base universe — the word-parallel side of
    /// coverage counting and side-effect evaluation.
    vulnerable_masks: BitMatrix,

    /// `k_s = |ws(s)|` per vulnerable tuple — the **full** witness count,
    /// including non-candidate witnesses (the dual capacities of
    /// Algorithm 1 divide by this).
    vulnerable_k: Vec<u32>,

    // ---- the whole-`V` layer (DP, demand ordering, evaluation) ----
    /// The ΔV-independent layer: view-tuple layout, weights, witness
    /// paths, forest depths, pivot certification, scalars. Shared by
    /// `Arc` between an engine's successive projections; owned (fresh)
    /// for a cold compile.
    statics: Arc<StaticLayer>,
    /// Whether each view tuple is in `ΔV`, parallel to the layout.
    deleted: Vec<bool>,

    /// Demand indices in bottom-up processing order (decreasing witness-path
    /// top depth in the data-dual forest; identity when not a forest) —
    /// Algorithm 1's GVY-style order, precomputed.
    demand_order: Vec<u32>,

    // ---- scalars (Table I) ----
    norm_delta: usize,

    /// The mutation generation of the [`Problem`] this IR was built
    /// against (see [`Problem::generation`]); checked by
    /// [`Problem::verify_compiled`] to reject stale IR/problem pairings.
    generation: u64,
}

/// Flatten row lists into CSR (offsets, data).
fn to_csr(rows: Vec<Vec<u32>>) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0u32);
    let total: usize = rows.iter().map(Vec::len).sum();
    let mut data = Vec::with_capacity(total);
    for row in rows {
        data.extend(row);
        offsets.push(data.len() as u32);
    }
    (offsets, data)
}

impl CompiledInstance {
    /// Compile `problem` into the flat IR: build a fresh [`StaticLayer`]
    /// (one pass over the views plus one data-dual-graph construction)
    /// and assemble the active subproblem onto it. The incremental
    /// engine takes the same `CompiledInstance::assemble` path with a
    /// *shared* layer, so warm projections are byte-identical to cold
    /// compiles of the same problem state by construction.
    pub fn compile(problem: &Problem) -> CompiledInstance {
        metrics::IR_COMPILES.inc();
        let compile_start = crate::runtime::now();

        let statics = Arc::new(StaticLayer::build(problem));
        let demands: Vec<ViewTupleId> = problem.deletions().iter().copied().collect();
        let mut deleted = vec![false; statics.norm_v()];
        for &id in &demands {
            deleted[statics.dense(id)] = true;
        }
        let parts = ActiveParts {
            bases: problem.candidates(),
            demands,
            vulnerable: problem.vulnerable_preserved(),
            deleted,
        };
        let ir = Self::assemble(statics, parts, problem.generation());

        metrics::IR_COMPILE_MICROS.observe(compile_start.elapsed().as_micros() as u64);
        ir
    }

    /// Assemble the `O(active)` half of the IR onto a static layer: CSR
    /// adjacency in both directions, packed bitset rows, weights, and
    /// the bottom-up demand order. This is the single construction path
    /// for both cold compiles and the engine's incremental projections.
    pub(crate) fn assemble(
        statics: Arc<StaticLayer>,
        parts: ActiveParts,
        generation: u64,
    ) -> CompiledInstance {
        let ActiveParts {
            bases,
            demands,
            vulnerable,
            deleted,
        } = parts;
        debug_assert_eq!(deleted.len(), statics.norm_v());
        let base_of =
            |t: TupleId| -> Option<u32> { bases.binary_search(&t).ok().map(|b| b as u32) };

        let demand_weights: Vec<f64> = demands
            .iter()
            .map(|&id| statics.all_weights[statics.dense(id)])
            .collect();
        let vulnerable_weights: Vec<f64> = vulnerable
            .iter()
            .map(|&id| statics.all_weights[statics.dense(id)])
            .collect();

        // demand → bases, and its transpose base → demands.
        let mut demand_rows: Vec<Vec<u32>> = Vec::with_capacity(demands.len());
        let mut hit_rows: Vec<Vec<u32>> = vec![Vec::new(); bases.len()];
        for (di, &id) in demands.iter().enumerate() {
            let row: Vec<u32> = statics
                .path_of(statics.dense(id))
                .iter()
                .map(|&t| base_of(t).expect("demand witnesses are candidates by definition"))
                .collect();
            for &b in &row {
                hit_rows[b as usize].push(di as u32);
            }
            demand_rows.push(row);
        }

        // vulnerable → candidate witnesses, and its transpose
        // base → vulnerable (the red incidence).
        let mut vulnerable_rows: Vec<Vec<u32>> = Vec::with_capacity(vulnerable.len());
        let mut incidence_rows: Vec<Vec<u32>> = vec![Vec::new(); bases.len()];
        let mut vulnerable_k: Vec<u32> = Vec::with_capacity(vulnerable.len());
        for (ri, &id) in vulnerable.iter().enumerate() {
            let ws = statics.path_of(statics.dense(id));
            vulnerable_k.push(ws.len() as u32);
            let row: Vec<u32> = ws.iter().filter_map(|&t| base_of(t)).collect();
            for &b in &row {
                incidence_rows[b as usize].push(ri as u32);
            }
            vulnerable_rows.push(row);
        }

        // Bottom-up demand order: decreasing depth of each witness path's
        // shallowest vertex (its top / LCA) in the data-dual forest, ties
        // and the non-forest fallback in ascending `ViewTupleId` order.
        let mut demand_order: Vec<u32> = (0..demands.len() as u32).collect();
        if let Some(depths) = &statics.top_depth {
            demand_order.sort_by_key(|&di| {
                let id = demands[di as usize];
                (std::cmp::Reverse(depths[statics.dense(id)]), id)
            });
        }

        // Packed bitset rows share the dense base universe with the CSR
        // rows; solvers intersect them against deletion masks word by word.
        let witness_masks = BitMatrix::from_rows(
            demands.len(),
            bases.len(),
            demand_rows
                .iter()
                .map(|row| row.iter().map(|&b| b as usize)),
        );
        let vulnerable_masks = BitMatrix::from_rows(
            vulnerable.len(),
            bases.len(),
            vulnerable_rows
                .iter()
                .map(|row| row.iter().map(|&b| b as usize)),
        );

        let (demand_offsets, demand_witnesses) = to_csr(demand_rows);
        let (hit_offsets, hit_demands) = to_csr(hit_rows);
        let (vulnerable_offsets, vulnerable_witnesses) = to_csr(vulnerable_rows);
        let (incidence_offsets, incidence) = to_csr(incidence_rows);

        CompiledInstance {
            norm_delta: demands.len(),
            bases,
            demands,
            vulnerable,
            demand_weights,
            vulnerable_weights,
            demand_offsets,
            demand_witnesses,
            incidence_offsets,
            incidence,
            hit_offsets,
            hit_demands,
            vulnerable_offsets,
            vulnerable_witnesses,
            witness_masks,
            vulnerable_masks,
            vulnerable_k,
            statics,
            deleted,
            demand_order,
            generation,
        }
    }

    /// The shared ΔV-independent layer, for re-projection onto a
    /// component subset (the shard partitioner assembles per-component
    /// instances over the *same* layer: no tuple copying).
    pub(crate) fn statics_arc(&self) -> Arc<StaticLayer> {
        Arc::clone(&self.statics)
    }

    /// Assemble a standalone instance from raw witness structure — no
    /// `Problem`, no database. The out-of-core path uses this to lift
    /// per-component slices of a flat on-disk instance into small,
    /// solver-ready IRs without ever materializing the full instance
    /// (whose dense packed rows would be quadratic in the component
    /// count).
    ///
    /// `demands` / `vulnerable` are `(weight, witness set)` pairs; view
    /// tuples are laid out demands-first in a single synthetic view.
    /// Candidates are the demand witnesses, exactly as in a real
    /// compile; vulnerable witness sets may contain non-candidates
    /// (they count toward `k_s` but not toward the packed rows). Every
    /// demand must have at least one witness.
    pub fn synthesize(
        demands: &[(f64, Vec<TupleId>)],
        vulnerable: &[(f64, Vec<TupleId>)],
    ) -> CompiledInstance {
        let nd = demands.len();
        let n = nd + vulnerable.len();
        let view_tuples: Vec<ViewTupleId> = (0..n).map(|i| ViewTupleId::new(0, i)).collect();
        let mut all_weights: Vec<f64> = Vec::with_capacity(n);
        let mut paths: Vec<TupleId> = Vec::new();
        let mut path_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        path_offsets.push(0);
        let mut max_path = 1usize;
        for (w, ws) in demands.iter().chain(vulnerable.iter()) {
            let mut ws = ws.clone();
            ws.sort_unstable();
            ws.dedup();
            max_path = max_path.max(ws.len());
            all_weights.push(*w);
            paths.extend_from_slice(&ws);
            path_offsets.push(paths.len() as u32);
        }
        let mut bases: Vec<TupleId> = Vec::new();
        for (i, (_, ws)) in demands.iter().enumerate() {
            assert!(
                !ws.is_empty(),
                "synthesize: demand {i} has an empty witness set"
            );
            bases.extend_from_slice(ws);
        }
        bases.sort_unstable();
        bases.dedup();

        let statics = StaticLayer {
            view_tuples,
            all_weights,
            path_offsets,
            paths,
            top_depth: None,
            pivot: None,
            forest_case: false,
            l: max_path,
            num_queries: 1,
            norm_v: n,
        };
        let mut deleted = vec![false; n];
        for d in deleted.iter_mut().take(nd) {
            *d = true;
        }
        let parts = ActiveParts {
            bases,
            demands: (0..nd).map(|i| ViewTupleId::new(0, i)).collect(),
            vulnerable: (nd..n).map(|i| ViewTupleId::new(0, i)).collect(),
            deleted,
        };
        Self::assemble(Arc::new(statics), parts, 0)
    }

    // ---- interning ----

    /// Candidate base tuples `𝒞`, sorted ascending.
    pub fn bases(&self) -> &[TupleId] {
        &self.bases
    }

    /// Number of candidate base tuples.
    pub fn num_bases(&self) -> usize {
        self.bases.len()
    }

    /// The base tuple behind dense index `b`.
    pub fn base(&self, b: u32) -> TupleId {
        self.bases[b as usize]
    }

    /// Dense index of a base tuple, if it is a candidate.
    pub fn base_index(&self, t: TupleId) -> Option<u32> {
        self.bases.binary_search(&t).ok().map(|b| b as u32)
    }

    /// `ΔV`, ascending.
    pub fn demands(&self) -> &[ViewTupleId] {
        &self.demands
    }

    /// Number of demands `‖ΔV‖`.
    pub fn num_demands(&self) -> usize {
        self.demands.len()
    }

    /// The view tuple behind dense demand index `d`.
    pub fn demand(&self, d: u32) -> ViewTupleId {
        self.demands[d as usize]
    }

    /// Vulnerable preserved view tuples, ascending.
    pub fn vulnerable(&self) -> &[ViewTupleId] {
        &self.vulnerable
    }

    /// Number of vulnerable preserved view tuples.
    pub fn num_vulnerable(&self) -> usize {
        self.vulnerable.len()
    }

    /// The view tuple behind dense red index `r`.
    pub fn vulnerable_id(&self, r: u32) -> ViewTupleId {
        self.vulnerable[r as usize]
    }

    // ---- weights ----

    /// Weight of demand `d` (balanced objective's prize).
    pub fn demand_weight(&self, d: u32) -> f64 {
        self.demand_weights[d as usize]
    }

    /// Weight of vulnerable tuple `r` (side-effect contribution).
    pub fn vulnerable_weight(&self, r: u32) -> f64 {
        self.vulnerable_weights[r as usize]
    }

    // ---- CSR rows ----

    /// Witness bases of demand `d` (sorted dense base indices).
    pub fn demand_row(&self, d: u32) -> &[u32] {
        let (lo, hi) = (
            self.demand_offsets[d as usize],
            self.demand_offsets[d as usize + 1],
        );
        &self.demand_witnesses[lo as usize..hi as usize]
    }

    /// Vulnerable view tuples incident to base `b` (sorted dense red
    /// indices). Its length is the **red degree** of `b` (Algorithm 2's
    /// threshold quantity).
    pub fn incidence_row(&self, b: u32) -> &[u32] {
        let (lo, hi) = (
            self.incidence_offsets[b as usize],
            self.incidence_offsets[b as usize + 1],
        );
        &self.incidence[lo as usize..hi as usize]
    }

    /// Demands whose witness set contains base `b` (sorted dense demand
    /// indices) — the blue rows of the Red-Blue image.
    pub fn hit_row(&self, b: u32) -> &[u32] {
        let (lo, hi) = (
            self.hit_offsets[b as usize],
            self.hit_offsets[b as usize + 1],
        );
        &self.hit_demands[lo as usize..hi as usize]
    }

    /// Candidate witnesses of vulnerable tuple `r` (`ws(s) ∩ 𝒞`).
    pub fn vulnerable_row(&self, r: u32) -> &[u32] {
        let (lo, hi) = (
            self.vulnerable_offsets[r as usize],
            self.vulnerable_offsets[r as usize + 1],
        );
        &self.vulnerable_witnesses[lo as usize..hi as usize]
    }

    /// `k_s`: full witness-set size of vulnerable tuple `r` (including
    /// non-candidate witnesses).
    pub fn vulnerable_k(&self, r: u32) -> u32 {
        self.vulnerable_k[r as usize]
    }

    /// Red degree of base `b`: number of vulnerable view tuples whose
    /// witness set contains it.
    pub fn red_degree(&self, b: u32) -> usize {
        self.incidence_row(b).len()
    }

    // ---- whole-V layer ----

    /// All view tuple ids, ascending.
    pub fn view_tuples(&self) -> &[ViewTupleId] {
        &self.statics.view_tuples
    }

    /// Weight of the `i`-th view tuple.
    pub fn view_weight(&self, i: usize) -> f64 {
        self.statics.all_weights[i]
    }

    /// Whether the `i`-th view tuple is in `ΔV`.
    pub fn view_deleted(&self, i: usize) -> bool {
        self.deleted[i]
    }

    /// Witness path of the `i`-th view tuple (layout order).
    pub fn path(&self, i: usize) -> &[TupleId] {
        self.statics.path_of(i)
    }

    /// Demand indices in bottom-up (decreasing top-depth) order.
    pub fn demand_order(&self) -> &[u32] {
        &self.demand_order
    }

    /// The pivot-forest structure, when certified (§IV.E).
    pub fn pivot(&self) -> Option<&PivotData> {
        self.statics.pivot.as_ref()
    }

    /// Whether the instance is a §IV.B forest case.
    pub fn forest_case(&self) -> bool {
        self.statics.forest_case
    }

    // ---- scalars ----

    /// `l = max arity(Q)`.
    pub fn l(&self) -> usize {
        self.statics.l
    }

    /// Number of queries `|Q|`.
    pub fn num_queries(&self) -> usize {
        self.statics.num_queries
    }

    /// `‖V‖`.
    pub fn norm_v(&self) -> usize {
        self.statics.norm_v
    }

    /// `‖ΔV‖`.
    pub fn norm_delta(&self) -> usize {
        self.norm_delta
    }

    /// The problem mutation generation this IR was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A structural digest (FNV-1a over every solver-visible field
    /// except the generation stamp). Two instances with equal digests
    /// present identical data to every solver; the differential suites
    /// use this as a strong cold-vs-incremental equality check.
    pub fn shape_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &t in &self.bases {
            h.write_u64(t.relation.0 as u64);
            h.write_u64(t.index as u64);
        }
        for set in [&self.demands, &self.vulnerable, &self.statics.view_tuples] {
            h.write_u64(set.len() as u64);
            for id in set.iter() {
                h.write_u64(id.view as u64);
                h.write_u64(id.index as u64);
            }
        }
        for ws in [
            &self.demand_weights,
            &self.vulnerable_weights,
            &self.statics.all_weights,
        ] {
            h.write_u64(ws.len() as u64);
            for &w in ws.iter() {
                h.write_u64(w.to_bits());
            }
        }
        for csr in [
            &self.demand_offsets,
            &self.demand_witnesses,
            &self.incidence_offsets,
            &self.incidence,
            &self.hit_offsets,
            &self.hit_demands,
            &self.vulnerable_offsets,
            &self.vulnerable_witnesses,
            &self.vulnerable_k,
            &self.demand_order,
            &self.statics.path_offsets,
        ] {
            h.write_u64(csr.len() as u64);
            for &x in csr.iter() {
                h.write_u64(x as u64);
            }
        }
        for &t in &self.statics.paths {
            h.write_u64(t.relation.0 as u64);
            h.write_u64(t.index as u64);
        }
        for mat in [&self.witness_masks, &self.vulnerable_masks] {
            h.write_u64(mat.words_per_row() as u64);
            for r in 0..mat.rows() {
                for &w in mat.row(r) {
                    h.write_u64(w);
                }
            }
        }
        for &d in &self.deleted {
            h.write_u64(d as u64);
        }
        if let Some(depths) = &self.statics.top_depth {
            for &d in depths.iter() {
                h.write_u64(d as u64);
            }
        }
        if let Some(p) = &self.statics.pivot {
            h.write_u64(p.endpoints.len() as u64);
            for &e in &p.endpoints {
                h.write_u64(e as u64);
            }
            for &v in p
                .children_offsets
                .iter()
                .chain(&p.children)
                .chain(&p.bfs_order)
                .chain(&p.roots)
            {
                h.write_u64(v as u64);
            }
        }
        h.write_u64(self.statics.forest_case as u64);
        h.write_u64(self.statics.l as u64);
        h.write_u64(self.statics.num_queries as u64);
        h.write_u64(self.statics.norm_v as u64);
        h.write_u64(self.norm_delta as u64);
        h.finish()
    }

    // ---- evaluation ----

    /// Dense deletion mask over the candidate bases for `sol`
    /// (non-candidate deletions have no entry: they cannot cut demands,
    /// and candidate-restricted solvers never produce them).
    pub fn base_mask(&self, sol: &Solution) -> Vec<bool> {
        let mut mask = vec![false; self.bases.len()];
        for &t in &sol.deleted {
            if let Some(b) = self.base_index(t) {
                mask[b as usize] = true;
            }
        }
        mask
    }

    /// Whether `mask` (over dense base indices) eliminates demand `d`.
    pub fn eliminates(&self, mask: &[bool], d: u32) -> bool {
        self.demand_row(d).iter().any(|&b| mask[b as usize])
    }

    /// Whether `mask` eliminates every demand.
    pub fn is_feasible_mask(&self, mask: &[bool]) -> bool {
        (0..self.demands.len() as u32).all(|d| self.eliminates(mask, d))
    }

    /// Side-effect of `mask`: total weight of vulnerable tuples losing a
    /// witness. Exact for candidate-restricted solutions (the only kind
    /// any solver emits), since non-candidate deletions damage only
    /// non-vulnerable tuples.
    pub fn side_effect_mask(&self, mask: &[bool]) -> f64 {
        (0..self.vulnerable.len() as u32)
            .filter(|&r| self.vulnerable_row(r).iter().any(|&b| mask[b as usize]))
            .map(|r| self.vulnerable_weight(r))
            .sum::<f64>()
            + 0.0
    }

    /// Balanced cost of `mask`: prizes of missed demands plus side-effect.
    pub fn balanced_cost_mask(&self, mask: &[bool]) -> f64 {
        let missed: f64 = (0..self.demands.len() as u32)
            .filter(|&d| !self.eliminates(mask, d))
            .map(|d| self.demand_weight(d))
            .sum();
        missed + self.side_effect_mask(mask)
    }

    // ---- packed evaluation (kernel layer) ----

    /// Packed witness row of demand `d` over the base universe — the
    /// bitset twin of [`demand_row`](Self::demand_row).
    pub fn witness_mask_row(&self, d: u32) -> &[u64] {
        self.witness_masks.row(d as usize)
    }

    /// Packed candidate-witness row of vulnerable tuple `r` — the bitset
    /// twin of [`vulnerable_row`](Self::vulnerable_row).
    pub fn vulnerable_mask_row(&self, r: u32) -> &[u64] {
        self.vulnerable_masks.row(r as usize)
    }

    /// Words per packed base row (`num_bases.div_ceil(64)`); every
    /// deletion [`BitSet`] over the base universe has this many words.
    pub fn base_words(&self) -> usize {
        self.witness_masks.words_per_row()
    }

    /// Packed deletion mask over the candidate bases for `sol` (the bitset
    /// twin of [`base_mask`](Self::base_mask); non-candidate deletions
    /// have no bit).
    pub fn base_bits(&self, sol: &Solution) -> BitSet {
        let mut bits = BitSet::new(self.bases.len());
        for &t in &sol.deleted {
            if let Some(b) = self.base_index(t) {
                bits.insert(b as usize);
            }
        }
        bits
    }

    /// Packed base-index set for the given tuples (non-candidates are
    /// ignored, exactly as in [`base_bits`](Self::base_bits)).
    pub fn tuple_bits(&self, tuples: impl IntoIterator<Item = TupleId>) -> BitSet {
        let mut bits = BitSet::new(self.bases.len());
        for t in tuples {
            if let Some(b) = self.base_index(t) {
                bits.insert(b as usize);
            }
        }
        bits
    }

    /// Whether the packed deletion mask eliminates demand `d` — one
    /// branch-free AND sweep over the packed witness row.
    pub fn eliminates_bits(&self, deleted: &BitSet, d: u32) -> bool {
        words::intersects(self.witness_mask_row(d), deleted.words())
    }

    /// Whether the packed deletion mask eliminates every demand.
    pub fn is_feasible_bits(&self, deleted: &BitSet) -> bool {
        (0..self.demands.len() as u32).all(|d| self.eliminates_bits(deleted, d))
    }

    /// Side-effect of a packed deletion mask. Identical sum order (and
    /// therefore bit-identical result) to
    /// [`side_effect_mask`](Self::side_effect_mask): vulnerable indices
    /// ascending.
    pub fn side_effect_bits(&self, deleted: &BitSet) -> f64 {
        (0..self.vulnerable.len() as u32)
            .filter(|&r| words::intersects(self.vulnerable_mask_row(r), deleted.words()))
            .map(|r| self.vulnerable_weight(r))
            .sum()
    }

    /// Balanced cost of a packed deletion mask — bit-identical to
    /// [`balanced_cost_mask`](Self::balanced_cost_mask) on the same mask.
    pub fn balanced_cost_bits(&self, deleted: &BitSet) -> f64 {
        let missed: f64 = (0..self.demands.len() as u32)
            .filter(|&d| !self.eliminates_bits(deleted, d))
            .map(|d| self.demand_weight(d))
            .sum();
        missed + self.side_effect_bits(deleted)
    }

    /// [`Solution`]-level wrappers over the packed evaluators.
    pub fn side_effect_of(&self, sol: &Solution) -> f64 {
        self.side_effect_bits(&self.base_bits(sol))
    }

    /// Balanced cost of a candidate-restricted solution.
    pub fn balanced_cost_of(&self, sol: &Solution) -> f64 {
        self.balanced_cost_bits(&self.base_bits(sol))
    }

    /// Whether `sol` eliminates every demand (exact for any solution:
    /// demand witnesses are candidates by definition).
    pub fn is_feasible_of(&self, sol: &Solution) -> bool {
        self.is_feasible_bits(&self.base_bits(sol))
    }
}

/// FNV-1a 64-bit, fed with little-endian `u64`s — the zero-dependency
/// structural hash behind [`CompiledInstance::shape_digest`].
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_problem, fig1_problem, star_problem};
    use delprop_relation::tup;

    fn fig1() -> Problem {
        fig1_problem(&[("Q4", "Q4(x, y, z) :- T1(x, y), T2(y, z, w)")], |p| {
            p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        })
    }

    #[test]
    fn fig1_shapes() {
        let p = fig1();
        let ir = CompiledInstance::compile(&p);
        assert_eq!(ir.num_bases(), 2, "T1(John,TKDE) and T2(TKDE,XML,30)");
        assert_eq!(ir.num_demands(), 1);
        assert_eq!(ir.num_vulnerable(), 3);
        assert_eq!(ir.norm_v(), 7);
        assert_eq!(ir.l(), 3);
        // The single demand's witnesses are both bases.
        assert_eq!(ir.demand_row(0), &[0, 1]);
        // Red degrees: T1 side damages 1 (John/CUBE), T2 side 2 (Joe, Tom).
        let mut degs: Vec<usize> = (0..2).map(|b| ir.red_degree(b)).collect();
        degs.sort_unstable();
        assert_eq!(degs, vec![1, 2]);
    }

    #[test]
    fn csr_rows_are_sorted_and_consistent() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = CompiledInstance::compile(&p);
        for d in 0..ir.num_demands() as u32 {
            let row = ir.demand_row(d);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            // Transpose consistency: every witness's hit row names d.
            for &b in row {
                assert!(ir.hit_row(b).contains(&d));
            }
        }
        for r in 0..ir.num_vulnerable() as u32 {
            for &b in ir.vulnerable_row(r) {
                assert!(ir.incidence_row(b).contains(&r));
            }
            assert!(ir.vulnerable_k(r) as usize >= ir.vulnerable_row(r).len());
        }
    }

    #[test]
    fn evaluation_matches_ground_truth() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = CompiledInstance::compile(&p);
        // Evaluate every single-candidate deletion both ways.
        for &t in ir.bases() {
            let sol = Solution::from_tuples([t]);
            assert_eq!(ir.is_feasible_of(&sol), sol.is_feasible(&p));
            assert!((ir.side_effect_of(&sol) - sol.side_effect(&p)).abs() < 1e-12);
            assert!((ir.balanced_cost_of(&sol) - sol.balanced_cost(&p)).abs() < 1e-12);
        }
        // And the full candidate set (always feasible).
        let all = Solution::from_tuples(ir.bases().iter().copied());
        assert!(ir.is_feasible_of(&all));
        assert!((ir.side_effect_of(&all) - all.side_effect(&p)).abs() < 1e-12);
    }

    #[test]
    fn packed_rows_agree_with_csr() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = CompiledInstance::compile(&p);
        assert_eq!(ir.base_words(), ir.num_bases().div_ceil(64));
        for d in 0..ir.num_demands() as u32 {
            let from_bits: Vec<u32> = words::iter_ones(ir.witness_mask_row(d))
                .map(|b| b as u32)
                .collect();
            assert_eq!(from_bits, ir.demand_row(d), "demand {d} packed row");
        }
        for r in 0..ir.num_vulnerable() as u32 {
            let from_bits: Vec<u32> = words::iter_ones(ir.vulnerable_mask_row(r))
                .map(|b| b as u32)
                .collect();
            assert_eq!(from_bits, ir.vulnerable_row(r), "vulnerable {r} packed row");
        }
    }

    #[test]
    fn packed_evaluators_match_mask_evaluators() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = CompiledInstance::compile(&p);
        // Pseudo-random subsets of the candidate bases, evaluated both ways.
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..32 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mask: Vec<bool> = (0..ir.num_bases())
                .map(|b| seed >> (b % 64) & 1 == 1)
                .collect();
            let bits = BitSet::from_indices(
                ir.num_bases(),
                mask.iter().enumerate().filter(|(_, &m)| m).map(|(b, _)| b),
            );
            assert_eq!(ir.is_feasible_bits(&bits), ir.is_feasible_mask(&mask));
            assert_eq!(ir.side_effect_bits(&bits), ir.side_effect_mask(&mask));
            assert_eq!(ir.balanced_cost_bits(&bits), ir.balanced_cost_mask(&mask));
            for d in 0..ir.num_demands() as u32 {
                assert_eq!(ir.eliminates_bits(&bits, d), ir.eliminates(&mask, d));
            }
        }
    }

    #[test]
    fn base_bits_matches_base_mask() {
        let p = fig1();
        let ir = CompiledInstance::compile(&p);
        let sol = Solution::from_tuples([ir.base(0)]);
        let mask = ir.base_mask(&sol);
        let bits = ir.base_bits(&sol);
        for (b, &m) in mask.iter().enumerate() {
            assert_eq!(bits.contains(b), m);
        }
        assert_eq!(bits.capacity(), ir.num_bases());
    }

    #[test]
    fn pivot_structure_compiled_for_star() {
        let p = star_problem(6, &[1, 3]);
        let ir = CompiledInstance::compile(&p);
        let pivot = ir.pivot().expect("stars are pivot forests");
        assert_eq!(pivot.endpoints.len(), ir.view_tuples().len());
        assert!(!pivot.roots.is_empty());
        // Children CSR covers every vertex.
        assert_eq!(pivot.children_offsets.len(), pivot.num_vertices() + 1);
    }

    #[test]
    fn fig1_is_not_a_pivot_forest() {
        let ir = CompiledInstance::compile(&fig1());
        assert!(ir.pivot().is_none());
    }

    #[test]
    fn demand_order_is_a_permutation() {
        let p = chain_problem(8, 3, &[1, 4, 6]);
        let ir = CompiledInstance::compile(&p);
        let mut seen = ir.demand_order().to_vec();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..ir.num_demands() as u32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn compile_counter_increments() {
        let before = compile_count();
        let _ = CompiledInstance::compile(&fig1());
        assert!(compile_count() > before);
    }

    #[test]
    fn compiled_instance_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledInstance>();
    }
}
