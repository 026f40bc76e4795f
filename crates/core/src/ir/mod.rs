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
//! The data is plain — slabs of `Copy` types behind an `Arc`, no interior
//! mutability, no maps — hence `Send + Sync`, which the shard scheduler
//! relies on to solve components across threads.
//!
//! Construction is split in two. A [`StaticLayer`] holds everything
//! ΔV-independent, including the witness-path tuples interned once as
//! uids; a `StoreBuilder` projects dense active sets (candidate uids,
//! demand and vulnerable layout indices) onto it, appending rows in
//! order and building their transposes by counting. Every array lands
//! in one `IrStore` of three slabs (`u32`, `f64`, `u64` words), and an
//! instance is a set of ranges into it. Cold compiles and engine
//! projections fill a store with one instance
//! (`CompiledInstance::assemble`); the shard partitioner fills one store
//! with every shard. None of them searches for an id per entry.

use crate::problem::Problem;
use crate::runtime::metrics;
use crate::shard::partition::Components;
use crate::solution::Solution;
use delprop_hypergraph::{find_pivot_structure, DataDualGraph, DualHypergraph};
use delprop_query::ViewTupleId;
use delprop_relation::TupleId;
use delprop_setcover::kernel::words;
use delprop_setcover::BitSet;
use std::sync::{Arc, OnceLock};

/// Number of [`CompiledInstance::compile`] calls so far in this process
/// — the `ir.compiles` metric, kept for the `EX-IR` experiment's
/// one-compile-per-portfolio-solve assertion. Monotone, process-wide.
pub fn compile_count() -> u64 {
    metrics::IR_COMPILES.get()
}

/// Number of incremental IR assemblies (engine projections) so far in
/// this process — the `ir.patches` metric. An assembly reuses a
/// [`StaticLayer`] and costs `O(active)` entries with no id search (plus
/// clearing a uid rank table); a compile costs
/// `O(‖V‖ log ‖V‖)` plus a data-dual-graph construction.
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
        csr_row(&self.children_offsets, &self.children, v)
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
/// (`ActiveParts`) are rebuilt per ΔV batch. Its interned uid paths and
/// their transpose are the engine's overdeletion frontier.
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
    /// Every base tuple on any witness path, sorted ascending (uid → tuple).
    pub(crate) universe: Vec<TupleId>,
    /// Witness paths as uids, parallel to `paths` (rows ascending).
    pub(crate) uid_paths: Vec<u32>,
    /// CSR: uid → layout indices of the view tuples whose path holds it.
    pub(crate) occ_offsets: Vec<u32>,
    pub(crate) occ: Vec<u32>,
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
            // Child lists in vertex order, concatenated.
            let mut children_offsets = vec![0u32];
            let mut children: Vec<u32> = Vec::new();
            for row in p.forest.children() {
                children.extend(row.iter().map(|&c| c as u32));
                children_offsets.push(children.len() as u32);
            }
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

        StaticLayer {
            top_depth,
            pivot,
            forest_case,
            l: problem.l(),
            num_queries: problem.queries().len(),
            ..StaticLayer::intern(view_tuples, all_weights, &all_paths)
        }
    }

    /// A layer over the given layout, weights and (sorted) witness paths
    /// with their tuples interned: the sorted universe, the paths as
    /// uids, and the uid → occurrence CSR (its transpose). It carries no
    /// forest or pivot structure, one query, and `l` = the longest path.
    fn intern(
        view_tuples: Vec<ViewTupleId>,
        all_weights: Vec<f64>,
        all_paths: &[Vec<TupleId>],
    ) -> StaticLayer {
        let norm_v = view_tuples.len();
        let mut path_offsets = Vec::with_capacity(norm_v + 1);
        path_offsets.push(0u32);
        let mut paths = Vec::new();
        for p in all_paths {
            paths.extend_from_slice(p);
            path_offsets.push(paths.len() as u32);
        }
        let mut universe = paths.clone();
        universe.sort_unstable();
        universe.dedup();
        let uid_paths: Vec<u32> = (paths.iter())
            .map(|t| {
                universe
                    .binary_search(t)
                    .expect("path tuples define the universe") as u32
            })
            .collect();
        let (mut occ_offsets, mut occ) = (vec![0u32; universe.len() + 1], vec![0u32; paths.len()]);
        transpose_into(&path_offsets, &uid_paths, &mut occ_offsets, &mut occ);
        StaticLayer {
            view_tuples,
            all_weights,
            path_offsets,
            paths,
            universe,
            uid_paths,
            occ_offsets,
            occ,
            top_depth: None,
            pivot: None,
            forest_case: false,
            l: all_paths.iter().map(Vec::len).max().unwrap_or(0).max(1),
            num_queries: 1,
            norm_v,
        }
    }

    /// Dense layout index of a view tuple id, or `None` outside the
    /// layout (`view_tuples` is sorted: `ViewTupleId`'s lexicographic
    /// order equals materialization order).
    pub(crate) fn dense(&self, id: ViewTupleId) -> Option<usize> {
        self.view_tuples.binary_search(&id).ok()
    }

    /// Witness path of the `i`-th view tuple (layout order).
    pub(crate) fn path_of(&self, i: usize) -> &[TupleId] {
        csr_row(&self.path_offsets, &self.paths, i)
    }

    /// Witness path of the `i`-th view tuple as ascending uids.
    pub(crate) fn path_uids(&self, i: usize) -> &[u32] {
        csr_row(&self.path_offsets, &self.uid_paths, i)
    }

    /// Layout indices of the view tuples whose path holds `uid`, ascending.
    pub(crate) fn occ_row(&self, uid: u32) -> &[u32] {
        csr_row(&self.occ_offsets, &self.occ, uid as usize)
    }

    /// The uid → base-rank table of an ascending candidate uid set:
    /// `rank[bases[b]] = b`, [`NO_RANK`] for every other uid.
    pub(crate) fn rank_table(&self, bases: &[u32]) -> Vec<u32> {
        let mut rank = vec![NO_RANK; self.universe.len()];
        for (b, &u) in bases.iter().enumerate() {
            rank[u as usize] = b as u32;
        }
        rank
    }
}

/// Rank-table entry of a uid that is not a candidate.
pub(crate) const NO_RANK: u32 = u32::MAX;

/// The ΔV-dependent inputs of an IR assembly, in dense form: the active
/// subproblem a [`StaticLayer`] is projected onto. All three members are
/// ascending and canonical — exactly what a cold
/// [`CompiledInstance::compile`] of the same problem state derives — so
/// cold and incremental assemblies are byte-identical by construction.
pub(crate) struct ActiveParts {
    /// Candidate base tuples `𝒞` as uids.
    pub(crate) bases: Vec<u32>,
    /// `ΔV` as layout indices (dense order is `ViewTupleId` order).
    pub(crate) demands: Vec<u32>,
    /// Vulnerable preserved view tuples as layout indices.
    pub(crate) vulnerable: Vec<u32>,
}

/// A deletion-propagation instance compiled to flat dense-index form.
///
/// Built by [`CompiledInstance::compile`] (or lazily via
/// [`Problem::compiled`]); all ten solver entry points consume this
/// instead of re-deriving incidence maps from [`Problem`].
///
/// The instance owns no arrays of its own: it is a `Layout` of ranges
/// into an `IrStore`, shared by `Arc` with every other instance built
/// into the same store (the shards of one partition).
///
/// It keeps its component partition once a sharded solve has asked for
/// it ([`crate::shard::cached_partition`]), the way [`Problem`] keeps its
/// compile.
#[derive(Debug, Clone)]
pub struct CompiledInstance {
    /// The flat slabs every range of `layout` points into.
    store: Arc<IrStore>,
    /// Where this instance's arrays sit in `store`.
    layout: Layout,
    /// The ΔV-independent layer: view-tuple layout, weights, witness
    /// paths, forest depths, pivot certification, scalars. Shared by
    /// `Arc` between an engine's successive projections and the shards
    /// of a partition; owned (fresh) for a cold compile.
    statics: Arc<StaticLayer>,
    /// The mutation generation of the [`Problem`] this IR was built
    /// against (see [`Problem::generation`]); checked by
    /// [`Problem::verify_compiled`] to reject stale IR/problem pairings.
    generation: u64,
    /// The component partition, built by the first sharded solve of this
    /// instance and dropped with it (DESIGN.md §15). Boxed, so a shard
    /// handle stays small.
    components: OnceLock<Box<Components>>,
}

/// The arrays of one or more compiled instances, one slab per element
/// type. A cold compile or an engine projection fills a store with one
/// instance; a shard partition fills one store with every shard, which
/// share it by `Arc`. Four heap blocks (the slabs and the `Arc`) hold it
/// all.
#[derive(Debug)]
pub(crate) struct IrStore {
    /// Dense sets, CSR offsets and rows, `k_s`, the demand order.
    ids: Box<[u32]>,
    /// Demand and vulnerable weights.
    weights: Box<[f64]>,
    /// Packed witness and vulnerable mask rows.
    words: Box<[u64]>,
}

/// A half-open range of one [`IrStore`] slab.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        let at = |i: usize| u32::try_from(i).expect("IR store slab exceeds u32 indices");
        Span {
            start: at(start),
            end: at(end),
        }
    }

    fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    fn of<T>(self, slab: &[T]) -> &[T] {
        &slab[self.start as usize..self.end as usize]
    }

    fn of_mut<T>(self, slab: &mut [T]) -> &mut [T] {
        &mut slab[self.start as usize..self.end as usize]
    }
}

/// A CSR array in the ids slab. Offsets are relative to the data span.
#[derive(Debug, Clone, Copy)]
struct Csr {
    offsets: Span,
    data: Span,
}

/// A CSR array resolved to its two slices: a loop over its rows looks
/// the store ranges up once, not once per row.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    offsets: &'a [u32],
    data: &'a [u32],
}

impl<'a> Rows<'a> {
    /// Row `i`.
    pub(crate) fn row(self, i: u32) -> &'a [u32] {
        csr_row(self.offsets, self.data, i as usize)
    }
}

/// Packed rows resolved to their slice, `per_row` words each.
#[derive(Clone, Copy)]
pub(crate) struct MaskRows<'a> {
    words: &'a [u64],
    per_row: usize,
}

impl<'a> MaskRows<'a> {
    /// Row `i`.
    pub(crate) fn row(self, i: u32) -> &'a [u64] {
        &self.words[i as usize * self.per_row..][..self.per_row]
    }
}

/// Where one instance's arrays sit in its [`IrStore`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    // ---- interning tables (ids resolve through `statics`) ----
    /// Candidate base tuples `𝒞` as ascending uids (dense base index).
    base_uids: Span,
    /// `ΔV` as ascending layout indices (dense demand index).
    demand_idx: Span,
    /// Vulnerable preserved view tuples as ascending layout indices
    /// (dense red index).
    vulnerable_idx: Span,

    // ---- CSR adjacency (both directions) ----
    /// demand → witness bases (row order = witness-set order: sorted).
    demand: Csr,
    /// base → demands whose witness set contains it (rows sorted).
    hit: Csr,
    /// vulnerable → candidate witnesses (`ws(s) ∩ 𝒞`).
    vulnerable: Csr,
    /// base → incident vulnerable view tuples (rows sorted ascending).
    incidence: Csr,

    /// `k_s = |ws(s)|` per vulnerable tuple — the **full** witness count,
    /// including non-candidate witnesses (the dual capacities of
    /// Algorithm 1 divide by this).
    vulnerable_k: Span,
    /// Demand indices in bottom-up processing order (decreasing witness-path
    /// top depth in the data-dual forest; identity when not a forest) —
    /// Algorithm 1's GVY-style order, precomputed.
    demand_order: Span,

    // ---- flat weight arrays (weights slab) ----
    demand_weights: Span,
    vulnerable_weights: Span,

    // ---- packed bitset rows (words slab) ----
    /// demand → witness-base membership, one packed row of
    /// `base_words()` words per demand over the base universe.
    /// `witness_mask_row(d)` ∩ deletion mask ≠ ∅ is the branch-free form
    /// of "`mask` eliminates `d`".
    witness_masks: Span,
    /// vulnerable → candidate-witness membership, one packed row per red
    /// element over the base universe — the word-parallel side of
    /// coverage counting and side-effect evaluation.
    vulnerable_masks: Span,
}

/// Row `i` of a CSR array.
pub(crate) fn csr_row<'a, T>(offsets: &[u32], data: &'a [T], i: usize) -> &'a [T] {
    &data[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Transpose the CSR array `(offsets, data)`, whose columns lie in
/// `0..out_offsets.len() - 1`, by counting: one pass over `data` counts
/// each column, a prefix sum turns the counts into row starts, a pass
/// over the rows fills and advances each start to its row's end, and a
/// shift turns the ends back into offsets. Rows of the result ascend,
/// because the source rows are walked in order. `out_offsets` must be
/// zeroed and `out_data` hold one slot per entry.
fn transpose_into(offsets: &[u32], data: &[u32], out_offsets: &mut [u32], out_data: &mut [u32]) {
    let cols = out_offsets.len() - 1;
    for &c in data {
        out_offsets[c as usize + 1] += 1;
    }
    for c in 1..=cols {
        out_offsets[c] += out_offsets[c - 1];
    }
    for r in 0..offsets.len() - 1 {
        for &c in csr_row(offsets, data, r) {
            let slot = &mut out_offsets[c as usize];
            out_data[*slot as usize] = r as u32;
            *slot += 1;
        }
    }
    out_offsets.copy_within(..cols, 1);
    out_offsets[0] = 0;
}

/// Slab lengths of a store of `instances` instances holding `nb` bases,
/// `nd` demands, `nv` vulnerable tuples, `wd` demand witnesses and `wv`
/// candidate witnesses of vulnerable tuples in total, and `words` packed
/// words (each instance's demands and vulnerable tuples times its base
/// words).
pub(crate) struct StoreSize {
    pub(crate) instances: usize,
    pub(crate) nb: usize,
    pub(crate) nd: usize,
    pub(crate) nv: usize,
    pub(crate) wd: usize,
    pub(crate) wv: usize,
    pub(crate) words: usize,
}

impl IrStore {
    /// Build a store of `size`: `fill` pushes its instances through a
    /// [`StoreBuilder`]. Each slab is reserved once at its final size, so
    /// a store of any number of instances costs four heap blocks (three
    /// slabs and the `Arc`).
    pub(crate) fn build<R>(
        statics: &StaticLayer,
        rank: &[u32],
        size: StoreSize,
        fill: impl FnOnce(&mut StoreBuilder<'_>) -> R,
    ) -> (Arc<IrStore>, R) {
        // Per instance: three dense sets, two CSR arrays of `nd`/`nv`
        // rows and their two transposes of `nb` rows, `k_s` and the
        // demand order.
        let StoreSize { nb, nd, nv, .. } = size;
        let ids = 3 * nb + 4 * nd + 4 * nv + 4 * size.instances + 2 * size.wd + 2 * size.wv;
        let mut builder = StoreBuilder {
            statics,
            rank,
            ids: Slab(Vec::with_capacity(ids)),
            weights: Slab(Vec::with_capacity(nd + nv)),
            words: Slab(Vec::with_capacity(size.words)),
        };
        let out = fill(&mut builder);
        let store = IrStore {
            ids: builder.ids.0.into_boxed_slice(),
            weights: builder.weights.0.into_boxed_slice(),
            words: builder.words.0.into_boxed_slice(),
        };
        (Arc::new(store), out)
    }
}

/// One slab being filled from the front.
struct Slab<T>(Vec<T>);

impl<T: Copy + Default> Slab<T> {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// Take the next `n` entries, zeroed.
    fn claim(&mut self, n: usize) -> Span {
        let start = self.0.len();
        self.0.resize(start + n, T::default());
        Span::new(start, self.0.len())
    }

    /// Append `items`.
    fn extend(&mut self, items: impl IntoIterator<Item = T>) -> Span {
        let start = self.0.len();
        self.0.extend(items);
        Span::new(start, self.0.len())
    }

    /// Append a copy of `items`.
    fn extend_from_slice(&mut self, items: &[T]) -> Span {
        let start = self.0.len();
        self.0.extend_from_slice(items);
        Span::new(start, self.0.len())
    }
}

/// Fills an [`IrStore`] with one instance per [`push`](Self::push), each
/// array appended to its slab in turn.
pub(crate) struct StoreBuilder<'a> {
    statics: &'a StaticLayer,
    /// uid → dense base index within the instance being pushed
    /// ([`NO_RANK`] for non-candidates); only the entries of uids on its
    /// witness paths are read.
    rank: &'a [u32],
    ids: Slab<u32>,
    weights: Slab<f64>,
    words: Slab<u64>,
}

impl StoreBuilder<'_> {
    /// Append one instance over ascending candidate uids, demand layout
    /// indices and vulnerable layout indices: CSR adjacency in both
    /// directions, `k_s`, the bottom-up demand order, weights and packed
    /// rows. Rows are appended in order and their transposes built by
    /// counting, so the cost is linear in the active entries.
    pub(crate) fn push(&mut self, bases: &[u32], demands: &[u32], vulnerable: &[u32]) -> Layout {
        let statics = self.statics;
        let nb = bases.len();
        let base_uids = self.ids.extend_from_slice(bases);
        let demand_idx = self.ids.extend_from_slice(demands);
        let vulnerable_idx = self.ids.extend_from_slice(vulnerable);

        // demand → bases and vulnerable → candidate witnesses
        // (`ws(s) ∩ 𝒞`), each with its transpose: base → demands and
        // base → vulnerable (the red incidence). Every demand witness is
        // a candidate by definition, so demand rows drop nothing.
        let path_len = |&i: &u32| statics.path_uids(i as usize).len();
        let demand = self.witness_rows(demands);
        debug_assert_eq!(demand.data.len(), demands.iter().map(path_len).sum());
        let hit = self.transpose(demand, nb);
        let vulnerable_rows = self.witness_rows(vulnerable);
        let incidence = self.transpose(vulnerable_rows, nb);
        let vulnerable_k = self
            .ids
            .extend(vulnerable.iter().map(|i| path_len(i) as u32));

        // Bottom-up demand order: decreasing depth of each witness path's
        // shallowest vertex (its top / LCA) in the data-dual forest. The
        // sort is stable and dense order is `ViewTupleId` order, so ties
        // and the non-forest fallback stay in ascending id order.
        let demand_order = self.ids.extend(0..demands.len() as u32);
        if let Some(depths) = &statics.top_depth {
            let order = demand_order.of_mut(&mut self.ids.0);
            order.sort_by_key(|&d| std::cmp::Reverse(depths[demands[d as usize] as usize]));
        }

        let weight = |&i: &u32| statics.all_weights[i as usize];
        Layout {
            base_uids,
            demand_idx,
            vulnerable_idx,
            demand_weights: self.weights.extend(demands.iter().map(weight)),
            vulnerable_weights: self.weights.extend(vulnerable.iter().map(weight)),
            // Packed bitset rows share the dense base universe with the
            // CSR rows; solvers intersect them against deletion masks.
            witness_masks: self.packed(demand, nb),
            vulnerable_masks: self.packed(vulnerable_rows, nb),
            demand,
            hit,
            vulnerable: vulnerable_rows,
            incidence,
            vulnerable_k,
            demand_order,
        }
    }

    /// CSR rows of the candidate witnesses of the view tuples at layout
    /// indices `idx`: each witness path's uids through `rank`,
    /// non-candidates ([`NO_RANK`]) dropped. Rows ascend, because `rank`
    /// is monotone.
    fn witness_rows(&mut self, idx: &[u32]) -> Csr {
        let (statics, rank) = (self.statics, self.rank);
        let offsets = self.ids.claim(idx.len() + 1);
        let data = self.ids.len();
        for (k, &i) in idx.iter().enumerate() {
            let ranks = statics.path_uids(i as usize).iter();
            self.ids
                .extend(ranks.map(|&u| rank[u as usize]).filter(|&b| b != NO_RANK));
            self.ids.0[offsets.start as usize + k + 1] = (self.ids.len() - data) as u32;
        }
        Csr {
            offsets,
            data: Span::new(data, self.ids.len()),
        }
    }

    /// Append the transpose of `src`, whose columns lie in `0..cols`.
    fn transpose(&mut self, src: Csr, cols: usize) -> Csr {
        let offsets = self.ids.claim(cols + 1);
        let data = self.ids.claim(src.data.len());
        let (built, out) = self.ids.0.split_at_mut(offsets.start as usize);
        let (offsets_out, data_out) = out.split_at_mut(cols + 1);
        let (src_offsets, src_data) = (src.offsets.of(built), src.data.of(built));
        transpose_into(
            src_offsets,
            src_data,
            offsets_out,
            &mut data_out[..data.len()],
        );
        Csr { offsets, data }
    }

    /// Append the packed rows of `rows`, whose columns lie in `0..cols`.
    fn packed(&mut self, rows: Csr, cols: usize) -> Span {
        let (per_row, n) = (cols.div_ceil(64), rows.offsets.len() - 1);
        let (offsets, data) = (rows.offsets.of(&self.ids.0), rows.data.of(&self.ids.0));
        let span = self.words.claim(n * per_row);
        let out = span.of_mut(&mut self.words.0);
        for r in 0..n {
            let row = &mut out[r * per_row..(r + 1) * per_row];
            for &c in csr_row(offsets, data, r) {
                row[c as usize / 64] |= 1u64 << (c % 64);
            }
        }
        span
    }
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

        // The active sets come from `Problem`'s own derivations, so a
        // cold compile stays an independent oracle for the engine.
        let statics = Arc::new(StaticLayer::build(problem));
        let dense = |id| statics.dense(id).expect("view tuple within the layout") as u32;
        let universe = &statics.universe;
        let uid = |t| universe.binary_search(&t).expect("candidate on a path") as u32;
        let parts = ActiveParts {
            bases: problem.candidates().into_iter().map(uid).collect(),
            demands: problem.deletions().iter().map(|&id| dense(id)).collect(),
            vulnerable: problem
                .vulnerable_preserved()
                .into_iter()
                .map(dense)
                .collect(),
        };
        let rank = statics.rank_table(&parts.bases);
        let ir = Self::assemble(statics, parts, &rank, problem.generation());

        metrics::IR_COMPILE_MICROS.observe(compile_start.elapsed().as_micros() as u64);
        ir
    }

    /// Assemble the `O(active)` half of the IR onto a static layer into a
    /// store of its own: CSR adjacency in both directions, packed bitset
    /// rows, weights and the bottom-up demand order. This is the single
    /// construction path for cold compiles and the engine's incremental
    /// projections; the shard partitioner pushes every component through
    /// the same [`StoreBuilder`] into one shared store.
    ///
    /// `rank` maps a uid to its dense base index ([`NO_RANK`] for
    /// non-candidates); only the entries of uids on the witness paths of
    /// `parts` are read.
    pub(crate) fn assemble(
        statics: Arc<StaticLayer>,
        parts: ActiveParts,
        rank: &[u32],
        generation: u64,
    ) -> CompiledInstance {
        let ActiveParts {
            bases,
            demands,
            vulnerable,
        } = parts;
        let path_len = |&i: &u32| statics.path_uids(i as usize).len();
        let words = bases.len().div_ceil(64) * (demands.len() + vulnerable.len());
        let size = StoreSize {
            instances: 1,
            nb: bases.len(),
            nd: demands.len(),
            nv: vulnerable.len(),
            wd: demands.iter().map(path_len).sum(),
            // An upper bound: non-candidate witnesses drop out, and
            // boxing the slab trims the slack.
            wv: vulnerable.iter().map(path_len).sum(),
            words,
        };
        let (store, layout) = IrStore::build(&statics, rank, size, |builder| {
            builder.push(&bases, &demands, &vulnerable)
        });
        CompiledInstance::in_store(store, layout, statics, generation)
    }

    /// The instance at `layout` of `store`.
    pub(crate) fn in_store(
        store: Arc<IrStore>,
        layout: Layout,
        statics: Arc<StaticLayer>,
        generation: u64,
    ) -> CompiledInstance {
        CompiledInstance {
            store,
            layout,
            statics,
            generation,
            components: OnceLock::new(),
        }
    }

    /// This instance's component partition: built on first use and kept
    /// until the instance is dropped, so every sharded solve of one IR
    /// shares one partition. Only a sharded solve (or
    /// [`crate::shard::cached_partition`]) asks for it; a compile, an
    /// engine projection or a publish never does.
    pub(crate) fn components(&self) -> &Components {
        self.components
            .get_or_init(|| Box::new(crate::shard::partition::split(self)))
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
        let mut all_weights: Vec<f64> = Vec::with_capacity(n);
        let mut all_paths: Vec<Vec<TupleId>> = Vec::with_capacity(n);
        for (i, (w, ws)) in demands.iter().chain(vulnerable.iter()).enumerate() {
            assert!(
                i >= nd || !ws.is_empty(),
                "synthesize: demand {i} has an empty witness set"
            );
            let mut ws = ws.clone();
            ws.sort_unstable();
            ws.dedup();
            all_weights.push(*w);
            all_paths.push(ws);
        }
        let view_tuples = (0..n).map(|i| ViewTupleId::new(0, i)).collect();
        let statics = StaticLayer::intern(view_tuples, all_weights, &all_paths);
        // Candidates are the demand witnesses: the uids on the first
        // `nd` paths.
        let mut bases: Vec<u32> = statics.uid_paths[..statics.path_offsets[nd] as usize].to_vec();
        bases.sort_unstable();
        bases.dedup();
        let rank = statics.rank_table(&bases);
        let parts = ActiveParts {
            bases,
            demands: (0..nd as u32).collect(),
            vulnerable: (nd as u32..n as u32).collect(),
        };
        Self::assemble(Arc::new(statics), parts, &rank, 0)
    }

    // ---- store ranges ----

    /// The ids-slab array at `span`.
    fn ids(&self, span: Span) -> &[u32] {
        span.of(&self.store.ids)
    }

    /// A CSR array of the ids slab, resolved.
    fn rows(&self, csr: Csr) -> Rows<'_> {
        Rows {
            offsets: self.ids(csr.offsets),
            data: self.ids(csr.data),
        }
    }

    /// Packed rows of the words slab, resolved.
    fn masks(&self, span: Span) -> MaskRows<'_> {
        MaskRows {
            words: span.of(&self.store.words),
            per_row: self.base_words(),
        }
    }

    /// Demand rows, resolved once for a loop (see [`Self::demand_row`]).
    pub(crate) fn demand_rows(&self) -> Rows<'_> {
        self.rows(self.layout.demand)
    }

    /// Hit rows, resolved once for a loop (see [`Self::hit_row`]).
    pub(crate) fn hit_rows(&self) -> Rows<'_> {
        self.rows(self.layout.hit)
    }

    /// Vulnerable rows, resolved once for a loop (see
    /// [`Self::vulnerable_row`]).
    pub(crate) fn vulnerable_rows(&self) -> Rows<'_> {
        self.rows(self.layout.vulnerable)
    }

    /// Incidence rows, resolved once for a loop (see
    /// [`Self::incidence_row`]).
    pub(crate) fn incidence_rows(&self) -> Rows<'_> {
        self.rows(self.layout.incidence)
    }

    /// Packed witness rows, resolved once for a loop (see
    /// [`Self::witness_mask_row`]).
    pub(crate) fn witness_masks(&self) -> MaskRows<'_> {
        self.masks(self.layout.witness_masks)
    }

    /// Packed vulnerable rows, resolved once for a loop (see
    /// [`Self::vulnerable_mask_row`]).
    pub(crate) fn vulnerable_masks(&self) -> MaskRows<'_> {
        self.masks(self.layout.vulnerable_masks)
    }

    /// Every demand weight, by dense demand index.
    pub(crate) fn demand_weights(&self) -> &[f64] {
        self.layout.demand_weights.of(&self.store.weights)
    }

    /// Every vulnerable weight, by dense red index.
    pub(crate) fn vulnerable_weights(&self) -> &[f64] {
        self.layout.vulnerable_weights.of(&self.store.weights)
    }

    /// Every `k_s`, by dense red index.
    pub(crate) fn vulnerable_ks(&self) -> &[u32] {
        self.ids(self.layout.vulnerable_k)
    }

    /// Candidate base tuples as ascending uids.
    pub(crate) fn base_uids(&self) -> &[u32] {
        self.ids(self.layout.base_uids)
    }

    /// `ΔV` as ascending layout indices.
    pub(crate) fn demand_idx(&self) -> &[u32] {
        self.ids(self.layout.demand_idx)
    }

    /// Vulnerable preserved view tuples as ascending layout indices.
    pub(crate) fn vulnerable_idx(&self) -> &[u32] {
        self.ids(self.layout.vulnerable_idx)
    }

    /// Total entries of the demand rows and of the vulnerable rows.
    pub(crate) fn witness_entries(&self) -> (usize, usize) {
        let Layout {
            demand, vulnerable, ..
        } = self.layout;
        (demand.data.len(), vulnerable.data.len())
    }

    // ---- interning ----

    /// Candidate base tuples `𝒞`, sorted ascending.
    pub fn bases(&self) -> impl ExactSizeIterator<Item = TupleId> + '_ {
        let universe = &self.statics.universe;
        self.base_uids().iter().map(|&u| universe[u as usize])
    }

    /// Number of candidate base tuples.
    pub fn num_bases(&self) -> usize {
        self.layout.base_uids.len()
    }

    /// The base tuple behind dense index `b`.
    pub fn base(&self, b: u32) -> TupleId {
        self.statics.universe[self.base_uids()[b as usize] as usize]
    }

    /// Dense index of a base tuple, if it is a candidate (uid order is
    /// `TupleId` order, so the uids search by tuple).
    pub fn base_index(&self, t: TupleId) -> Option<u32> {
        let universe = &self.statics.universe;
        let b = self
            .base_uids()
            .binary_search_by(|&u| universe[u as usize].cmp(&t));
        b.ok().map(|b| b as u32)
    }

    /// `ΔV`, ascending.
    pub fn demands(&self) -> impl ExactSizeIterator<Item = ViewTupleId> + '_ {
        self.view_ids(self.demand_idx())
    }

    /// Number of demands `‖ΔV‖`.
    pub fn num_demands(&self) -> usize {
        self.layout.demand_idx.len()
    }

    /// The view tuple behind dense demand index `d`.
    pub fn demand(&self, d: u32) -> ViewTupleId {
        self.statics.view_tuples[self.demand_idx()[d as usize] as usize]
    }

    /// Vulnerable preserved view tuples, ascending.
    pub fn vulnerable(&self) -> impl ExactSizeIterator<Item = ViewTupleId> + '_ {
        self.view_ids(self.vulnerable_idx())
    }

    /// Number of vulnerable preserved view tuples.
    pub fn num_vulnerable(&self) -> usize {
        self.layout.vulnerable_idx.len()
    }

    /// The view tuple behind dense red index `r`.
    pub fn vulnerable_id(&self, r: u32) -> ViewTupleId {
        self.statics.view_tuples[self.vulnerable_idx()[r as usize] as usize]
    }

    /// The view tuple ids at layout indices `idx`.
    fn view_ids<'a>(&'a self, idx: &'a [u32]) -> impl ExactSizeIterator<Item = ViewTupleId> + 'a {
        idx.iter().map(|&i| self.statics.view_tuples[i as usize])
    }

    // ---- weights ----

    /// Weight of demand `d` (balanced objective's prize).
    pub fn demand_weight(&self, d: u32) -> f64 {
        self.demand_weights()[d as usize]
    }

    /// Weight of vulnerable tuple `r` (side-effect contribution).
    pub fn vulnerable_weight(&self, r: u32) -> f64 {
        self.vulnerable_weights()[r as usize]
    }

    // ---- CSR rows ----

    /// Witness bases of demand `d` (sorted dense base indices).
    pub fn demand_row(&self, d: u32) -> &[u32] {
        self.demand_rows().row(d)
    }

    /// Vulnerable view tuples incident to base `b` (sorted dense red
    /// indices). Its length is the **red degree** of `b` (Algorithm 2's
    /// threshold quantity).
    pub fn incidence_row(&self, b: u32) -> &[u32] {
        self.incidence_rows().row(b)
    }

    /// Demands whose witness set contains base `b` (sorted dense demand
    /// indices) — the blue rows of the Red-Blue image.
    pub fn hit_row(&self, b: u32) -> &[u32] {
        self.hit_rows().row(b)
    }

    /// Candidate witnesses of vulnerable tuple `r` (`ws(s) ∩ 𝒞`).
    pub fn vulnerable_row(&self, r: u32) -> &[u32] {
        self.vulnerable_rows().row(r)
    }

    /// `k_s`: full witness-set size of vulnerable tuple `r` (including
    /// non-candidate witnesses).
    pub fn vulnerable_k(&self, r: u32) -> u32 {
        self.vulnerable_ks()[r as usize]
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

    /// Whether the `i`-th view tuple is in `ΔV` (a search of the
    /// ascending demand layout indices: no flag words per instance).
    pub fn view_deleted(&self, i: usize) -> bool {
        u32::try_from(i).is_ok_and(|i| self.demand_idx().binary_search(&i).is_ok())
    }

    /// Witness path of the `i`-th view tuple (layout order).
    pub fn path(&self, i: usize) -> &[TupleId] {
        self.statics.path_of(i)
    }

    /// Demand indices in bottom-up (decreasing top-depth) order.
    pub fn demand_order(&self) -> &[u32] {
        self.ids(self.layout.demand_order)
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
        self.num_demands()
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
        for t in self.bases() {
            h.write_u64(t.relation.0 as u64);
            h.write_u64(t.index as u64);
        }
        let (demands, vulnerable): (Vec<_>, Vec<_>) =
            (self.demands().collect(), self.vulnerable().collect());
        for set in [&demands, &vulnerable, &self.statics.view_tuples] {
            h.write_u64(set.len() as u64);
            for id in set {
                h.write_u64(id.view as u64);
                h.write_u64(id.index as u64);
            }
        }
        let Layout {
            demand,
            hit,
            vulnerable,
            incidence,
            ..
        } = self.layout;
        for ws in [
            self.demand_weights(),
            self.vulnerable_weights(),
            &self.statics.all_weights,
        ] {
            h.write_u64(ws.len() as u64);
            for &w in ws.iter() {
                h.write_u64(w.to_bits());
            }
        }
        for csr in [
            self.ids(demand.offsets),
            self.ids(demand.data),
            self.ids(incidence.offsets),
            self.ids(incidence.data),
            self.ids(hit.offsets),
            self.ids(hit.data),
            self.ids(vulnerable.offsets),
            self.ids(vulnerable.data),
            self.vulnerable_ks(),
            self.demand_order(),
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
        for masks in [self.layout.witness_masks, self.layout.vulnerable_masks] {
            h.write_u64(self.base_words() as u64);
            for &w in masks.of(&self.store.words) {
                h.write_u64(w);
            }
        }
        // The ΔV flags, walked against the ascending demand indices.
        let mut demand_idx = self.demand_idx().iter().peekable();
        for i in 0..self.statics.norm_v as u32 {
            h.write_u64(demand_idx.next_if_eq(&&i).is_some() as u64);
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
        h.write_u64(self.num_demands() as u64);
        h.finish()
    }

    // ---- evaluation ----

    /// Dense deletion mask over the candidate bases for `sol`
    /// (non-candidate deletions have no entry: they cannot cut demands,
    /// and candidate-restricted solvers never produce them).
    pub fn base_mask(&self, sol: &Solution) -> Vec<bool> {
        let bits = self.base_bits(sol);
        (0..self.num_bases()).map(|b| bits.contains(b)).collect()
    }

    /// Whether `mask` (over dense base indices) eliminates demand `d`.
    pub fn eliminates(&self, mask: &[bool], d: u32) -> bool {
        self.demand_row(d).iter().any(|&b| mask[b as usize])
    }

    /// Whether `mask` eliminates every demand.
    pub fn is_feasible_mask(&self, mask: &[bool]) -> bool {
        (0..self.num_demands() as u32).all(|d| self.eliminates(mask, d))
    }

    /// Side-effect of `mask`: total weight of vulnerable tuples losing a
    /// witness. Exact for candidate-restricted solutions (the only kind
    /// any solver emits), since non-candidate deletions damage only
    /// non-vulnerable tuples.
    pub fn side_effect_mask(&self, mask: &[bool]) -> f64 {
        (0..self.num_vulnerable() as u32)
            .filter(|&r| self.vulnerable_row(r).iter().any(|&b| mask[b as usize]))
            .map(|r| self.vulnerable_weight(r))
            .sum::<f64>()
            + 0.0
    }

    /// Balanced cost of `mask`: prizes of missed demands plus side-effect.
    pub fn balanced_cost_mask(&self, mask: &[bool]) -> f64 {
        let missed: f64 = (0..self.num_demands() as u32)
            .filter(|&d| !self.eliminates(mask, d))
            .map(|d| self.demand_weight(d))
            .sum();
        missed + self.side_effect_mask(mask)
    }

    // ---- packed evaluation (kernel layer) ----

    /// Packed witness row of demand `d` over the base universe — the
    /// bitset twin of [`demand_row`](Self::demand_row).
    pub fn witness_mask_row(&self, d: u32) -> &[u64] {
        self.witness_masks().row(d)
    }

    /// Packed candidate-witness row of vulnerable tuple `r` — the bitset
    /// twin of [`vulnerable_row`](Self::vulnerable_row).
    pub fn vulnerable_mask_row(&self, r: u32) -> &[u64] {
        self.vulnerable_masks().row(r)
    }

    /// Words per packed base row (`num_bases.div_ceil(64)`); every
    /// deletion [`BitSet`] over the base universe has this many words.
    pub fn base_words(&self) -> usize {
        self.num_bases().div_ceil(64)
    }

    /// Packed deletion mask over the candidate bases for `sol` (the bitset
    /// twin of [`base_mask`](Self::base_mask); non-candidate deletions
    /// have no bit).
    pub fn base_bits(&self, sol: &Solution) -> BitSet {
        let mut bits = BitSet::default();
        self.base_bits_into(sol, &mut bits);
        bits
    }

    /// [`base_bits`](Self::base_bits) written into `bits`, reusing its
    /// allocation: a verifier's mask kept across the shards it checks.
    pub fn base_bits_into(&self, sol: &Solution, bits: &mut BitSet) {
        bits.reset(self.num_bases());
        for b in sol.deleted.iter().filter_map(|&t| self.base_index(t)) {
            bits.insert(b as usize);
        }
    }

    /// Every tuple of `sol` with its dense base index (`None` for a
    /// non-candidate), ascending: one merge of the two ascending
    /// sequences, no search per tuple.
    pub(crate) fn base_indices<'a>(
        &'a self,
        sol: &'a Solution,
    ) -> impl Iterator<Item = (TupleId, Option<u32>)> + 'a {
        let mut bases = self.bases().zip(0u32..).peekable();
        sol.deleted.iter().map(move |&t| {
            while bases.next_if(|&(base, _)| base < t).is_some() {}
            (t, bases.next_if(|&(base, _)| base == t).map(|(_, b)| b))
        })
    }

    /// Packed base-index set for the given tuples (non-candidates are
    /// ignored, exactly as in [`base_bits`](Self::base_bits)).
    pub fn tuple_bits(&self, tuples: impl IntoIterator<Item = TupleId>) -> BitSet {
        let bases = tuples.into_iter().filter_map(|t| self.base_index(t));
        BitSet::from_indices(self.num_bases(), bases.map(|b| b as usize))
    }

    /// Whether the packed deletion mask eliminates demand `d` — one
    /// branch-free AND sweep over the packed witness row.
    pub fn eliminates_bits(&self, deleted: &BitSet, d: u32) -> bool {
        words::intersects(self.witness_mask_row(d), deleted.words())
    }

    /// Whether the packed deletion mask eliminates every demand.
    pub fn is_feasible_bits(&self, deleted: &BitSet) -> bool {
        let masks = self.witness_masks();
        (0..self.num_demands() as u32).all(|d| words::intersects(masks.row(d), deleted.words()))
    }

    /// Side-effect of a packed deletion mask. Identical sum order (and
    /// therefore bit-identical result) to
    /// [`side_effect_mask`](Self::side_effect_mask): vulnerable indices
    /// ascending.
    pub fn side_effect_bits(&self, deleted: &BitSet) -> f64 {
        let (masks, weights) = (self.vulnerable_masks(), self.vulnerable_weights());
        (0..weights.len() as u32)
            .filter(|&r| words::intersects(masks.row(r), deleted.words()))
            .map(|r| weights[r as usize])
            .sum()
    }

    /// Balanced cost of a packed deletion mask — bit-identical to
    /// [`balanced_cost_mask`](Self::balanced_cost_mask) on the same mask.
    pub fn balanced_cost_bits(&self, deleted: &BitSet) -> f64 {
        let (masks, weights) = (self.witness_masks(), self.demand_weights());
        let missed: f64 = (0..weights.len() as u32)
            .filter(|&d| !words::intersects(masks.row(d), deleted.words()))
            .map(|d| weights[d as usize])
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
        for t in ir.bases() {
            let sol = Solution::from_tuples([t]);
            assert_eq!(ir.is_feasible_of(&sol), sol.is_feasible(&p));
            assert!((ir.side_effect_of(&sol) - sol.side_effect(&p)).abs() < 1e-12);
            assert!((ir.balanced_cost_of(&sol) - sol.balanced_cost(&p)).abs() < 1e-12);
        }
        // And the full candidate set (always feasible).
        let all = Solution::from_tuples(ir.bases());
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
    fn interned_layer_round_trips_and_transposes() {
        let ir = CompiledInstance::compile(&chain_problem(8, 3, &[1, 4, 6]));
        let st = &ir.statics;
        assert!(st.universe.windows(2).all(|w| w[0] < w[1]));
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); st.universe.len()];
        for i in 0..st.norm_v {
            let uids = st.path_uids(i);
            assert!(uids.windows(2).all(|w| w[0] < w[1]), "row {i} ascending");
            let back: Vec<TupleId> = uids.iter().map(|&u| st.universe[u as usize]).collect();
            assert_eq!(back, st.path_of(i), "row {i} round-trips");
            for &u in uids {
                occ[u as usize].push(i as u32);
            }
        }
        for (u, row) in occ.iter().enumerate() {
            assert_eq!(st.occ_row(u as u32), row, "occurrences of uid {u}");
        }
        assert_eq!(st.occ.len(), st.uid_paths.len());
    }

    #[test]
    fn synthesize_counts_but_omits_non_candidate_witnesses() {
        let t = |i: usize| TupleId::new(delprop_relation::RelationId(0), i);
        // Candidates are {t0, t1}; the vulnerable tuple also holds t2.
        let ir =
            CompiledInstance::synthesize(&[(1.0, vec![t(1), t(0)])], &[(2.0, vec![t(2), t(1)])]);
        assert!(ir.bases().eq([t(0), t(1)]));
        assert_eq!(ir.vulnerable_k(0), 2);
        assert_eq!(ir.vulnerable_row(0), &[1]);
        assert_eq!(
            words::iter_ones(ir.vulnerable_mask_row(0)).collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(ir.incidence_row(1), &[0]);
        assert!(ir.view_deleted(0) && !ir.view_deleted(1));
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
