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
//!
//! Construction is split in two. A [`StaticLayer`] holds everything
//! ΔV-independent, including the witness-path tuples interned once as
//! uids; `CompiledInstance::assemble` projects dense `ActiveParts`
//! (candidate uids, demand and vulnerable layout indices) onto it,
//! appending rows in order and building their transposes by counting.
//! Cold compiles, engine projections and shard partitions all take that
//! one path, and none of them searches for an id per entry.

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
/// [`StaticLayer`] and costs `O(active)` entries with no id search (plus
/// clearing a uid rank table and the ΔV flag words); a compile costs
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
            let children = p.forest.children();
            let (children_offsets, children) = group_csr(
                children.len(),
                children
                    .iter()
                    .enumerate()
                    .flat_map(|(v, row)| row.iter().map(move |&c| (v as u32, c as u32))),
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
        let (occ_offsets, occ) = transpose(&path_offsets, &uid_paths, universe.len());
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
#[derive(Default)]
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
#[derive(Debug, Clone)]
pub struct CompiledInstance {
    // ---- interning tables (ids resolve through `statics`) ----
    /// Candidate base tuples `𝒞` as ascending uids (dense base index).
    pub(crate) base_uids: Vec<u32>,
    /// `ΔV` as ascending layout indices (dense demand index).
    pub(crate) demand_idx: Vec<u32>,
    /// Vulnerable preserved view tuples as ascending layout indices
    /// (dense red index).
    pub(crate) vulnerable_idx: Vec<u32>,

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
    /// Which view tuples are in `ΔV`, over the layout indices.
    deleted: BitSet,

    /// Demand indices in bottom-up processing order (decreasing witness-path
    /// top depth in the data-dual forest; identity when not a forest) —
    /// Algorithm 1's GVY-style order, precomputed.
    demand_order: Vec<u32>,

    /// The mutation generation of the [`Problem`] this IR was built
    /// against (see [`Problem::generation`]); checked by
    /// [`Problem::verify_compiled`] to reject stale IR/problem pairings.
    generation: u64,
}

/// Row `i` of a CSR array.
pub(crate) fn csr_row<'a, T>(offsets: &[u32], data: &'a [T], i: usize) -> &'a [T] {
    &data[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Group `(key, value)` pairs into CSR rows over `0..keys` by counting:
/// one pass counts each row, a prefix sum turns the counts into row
/// starts, a second pass fills. Each row keeps the pairs' iteration
/// order.
fn group_csr<I>(keys: usize, pairs: I) -> (Vec<u32>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    // Row `k`'s count lands in slot `k + 2`, so after the prefix sum slot
    // `k + 1` holds row `k`'s start: the fill advances it to the row's
    // end, which is row `k + 1`'s offset. The spare last slot goes.
    let mut offsets = vec![0u32; keys + 2];
    for (k, _) in pairs.clone() {
        offsets[k as usize + 2] += 1;
    }
    for k in 2..keys + 2 {
        offsets[k] += offsets[k - 1];
    }
    let mut data = vec![0u32; offsets[keys + 1] as usize];
    for (k, v) in pairs {
        let slot = &mut offsets[k as usize + 1];
        data[*slot as usize] = v;
        *slot += 1;
    }
    offsets.pop();
    (offsets, data)
}

/// Transpose a CSR array with columns in `0..cols`; rows of the result
/// ascend, because the source rows are walked in order.
fn transpose(offsets: &[u32], data: &[u32], cols: usize) -> (Vec<u32>, Vec<u32>) {
    let row = |r: usize| {
        csr_row(offsets, data, r)
            .iter()
            .map(move |&c| (c, r as u32))
    };
    group_csr(cols, (0..offsets.len() - 1).flat_map(row))
}

/// CSR rows of the candidate witnesses of the view tuples at layout
/// indices `idx`: each witness path's uids through `rank`, non-candidates
/// ([`NO_RANK`]) dropped. Rows ascend, because `rank` is monotone.
fn witness_rows(statics: &StaticLayer, idx: &[u32], rank: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(idx.len() + 1);
    offsets.push(0u32);
    let path_len = |&i: &u32| statics.path_uids(i as usize).len();
    let mut data = Vec::with_capacity(idx.iter().map(path_len).sum());
    for &i in idx {
        let ranks = statics
            .path_uids(i as usize)
            .iter()
            .map(|&u| rank[u as usize]);
        data.extend(ranks.filter(|&b| b != NO_RANK));
        offsets.push(data.len() as u32);
    }
    (offsets, data)
}

/// Packed rows of a CSR array with columns in `0..cols`.
fn packed(offsets: &[u32], data: &[u32], cols: usize) -> BitMatrix {
    let row = |r: usize| csr_row(offsets, data, r).iter().map(|&c| c as usize);
    BitMatrix::from_rows(offsets.len() - 1, cols, (0..offsets.len() - 1).map(row))
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

    /// Assemble the `O(active)` half of the IR onto a static layer: CSR
    /// adjacency in both directions, packed bitset rows, weights, the ΔV
    /// flags, and the bottom-up demand order. This is the single
    /// construction path for cold compiles, the engine's incremental
    /// projections and the shard partitioner.
    ///
    /// `rank` maps a uid to its dense base index ([`NO_RANK`] for
    /// non-candidates); only the entries of uids on the witness paths of
    /// `parts` are read. Rows are appended in order and their transposes
    /// built by counting, so the cost is linear in the active entries.
    pub(crate) fn assemble(
        statics: Arc<StaticLayer>,
        parts: ActiveParts,
        rank: &[u32],
        generation: u64,
    ) -> CompiledInstance {
        let ActiveParts {
            bases: base_uids,
            demands: demand_idx,
            vulnerable: vulnerable_idx,
        } = parts;
        let nb = base_uids.len();
        let weight = |&i: &u32| statics.all_weights[i as usize];

        // demand → bases and vulnerable → candidate witnesses
        // (`ws(s) ∩ 𝒞`), each with its transpose: base → demands and
        // base → vulnerable (the red incidence). Every demand witness is
        // a candidate by definition, so demand rows drop nothing.
        let path_len = |&i: &u32| statics.path_uids(i as usize).len();
        let (demand_offsets, demand_witnesses) = witness_rows(&statics, &demand_idx, rank);
        debug_assert_eq!(
            demand_witnesses.len(),
            demand_idx.iter().map(path_len).sum()
        );
        let (hit_offsets, hit_demands) = transpose(&demand_offsets, &demand_witnesses, nb);
        let (vulnerable_offsets, vulnerable_witnesses) =
            witness_rows(&statics, &vulnerable_idx, rank);
        let (incidence_offsets, incidence) =
            transpose(&vulnerable_offsets, &vulnerable_witnesses, nb);

        // Bottom-up demand order: decreasing depth of each witness path's
        // shallowest vertex (its top / LCA) in the data-dual forest. The
        // sort is stable and dense order is `ViewTupleId` order, so ties
        // and the non-forest fallback stay in ascending id order.
        let mut demand_order: Vec<u32> = (0..demand_idx.len() as u32).collect();
        if let Some(depths) = &statics.top_depth {
            demand_order
                .sort_by_key(|&d| std::cmp::Reverse(depths[demand_idx[d as usize] as usize]));
        }

        CompiledInstance {
            demand_weights: demand_idx.iter().map(weight).collect(),
            vulnerable_weights: vulnerable_idx.iter().map(weight).collect(),
            // Packed bitset rows share the dense base universe with the
            // CSR rows; solvers intersect them against deletion masks.
            witness_masks: packed(&demand_offsets, &demand_witnesses, nb),
            vulnerable_masks: packed(&vulnerable_offsets, &vulnerable_witnesses, nb),
            demand_offsets,
            demand_witnesses,
            incidence_offsets,
            incidence,
            hit_offsets,
            hit_demands,
            vulnerable_offsets,
            vulnerable_witnesses,
            vulnerable_k: vulnerable_idx.iter().map(|i| path_len(i) as u32).collect(),
            deleted: BitSet::from_indices(statics.norm_v, demand_idx.iter().map(|&i| i as usize)),
            statics,
            base_uids,
            demand_idx,
            vulnerable_idx,
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

    // ---- interning ----

    /// Candidate base tuples `𝒞`, sorted ascending.
    pub fn bases(&self) -> impl ExactSizeIterator<Item = TupleId> + '_ {
        self.base_uids
            .iter()
            .map(|&u| self.statics.universe[u as usize])
    }

    /// Number of candidate base tuples.
    pub fn num_bases(&self) -> usize {
        self.base_uids.len()
    }

    /// The base tuple behind dense index `b`.
    pub fn base(&self, b: u32) -> TupleId {
        self.statics.universe[self.base_uids[b as usize] as usize]
    }

    /// Dense index of a base tuple, if it is a candidate (uid order is
    /// `TupleId` order, so the uids search by tuple).
    pub fn base_index(&self, t: TupleId) -> Option<u32> {
        let universe = &self.statics.universe;
        let b = self
            .base_uids
            .binary_search_by(|&u| universe[u as usize].cmp(&t));
        b.ok().map(|b| b as u32)
    }

    /// `ΔV`, ascending.
    pub fn demands(&self) -> impl ExactSizeIterator<Item = ViewTupleId> + '_ {
        self.view_ids(&self.demand_idx)
    }

    /// Number of demands `‖ΔV‖`.
    pub fn num_demands(&self) -> usize {
        self.demand_idx.len()
    }

    /// The view tuple behind dense demand index `d`.
    pub fn demand(&self, d: u32) -> ViewTupleId {
        self.statics.view_tuples[self.demand_idx[d as usize] as usize]
    }

    /// Vulnerable preserved view tuples, ascending.
    pub fn vulnerable(&self) -> impl ExactSizeIterator<Item = ViewTupleId> + '_ {
        self.view_ids(&self.vulnerable_idx)
    }

    /// Number of vulnerable preserved view tuples.
    pub fn num_vulnerable(&self) -> usize {
        self.vulnerable_idx.len()
    }

    /// The view tuple behind dense red index `r`.
    pub fn vulnerable_id(&self, r: u32) -> ViewTupleId {
        self.statics.view_tuples[self.vulnerable_idx[r as usize] as usize]
    }

    /// The view tuple ids at layout indices `idx`.
    fn view_ids<'a>(&'a self, idx: &'a [u32]) -> impl ExactSizeIterator<Item = ViewTupleId> + 'a {
        idx.iter().map(|&i| self.statics.view_tuples[i as usize])
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
        csr_row(&self.demand_offsets, &self.demand_witnesses, d as usize)
    }

    /// Vulnerable view tuples incident to base `b` (sorted dense red
    /// indices). Its length is the **red degree** of `b` (Algorithm 2's
    /// threshold quantity).
    pub fn incidence_row(&self, b: u32) -> &[u32] {
        csr_row(&self.incidence_offsets, &self.incidence, b as usize)
    }

    /// Demands whose witness set contains base `b` (sorted dense demand
    /// indices) — the blue rows of the Red-Blue image.
    pub fn hit_row(&self, b: u32) -> &[u32] {
        csr_row(&self.hit_offsets, &self.hit_demands, b as usize)
    }

    /// Candidate witnesses of vulnerable tuple `r` (`ws(s) ∩ 𝒞`).
    pub fn vulnerable_row(&self, r: u32) -> &[u32] {
        csr_row(
            &self.vulnerable_offsets,
            &self.vulnerable_witnesses,
            r as usize,
        )
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
        self.deleted.contains(i)
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
        self.demand_idx.len()
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
        for i in 0..self.statics.norm_v {
            h.write_u64(self.deleted.contains(i) as u64);
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
        h.write_u64(self.demand_idx.len() as u64);
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
        (0..self.demand_idx.len() as u32).all(|d| self.eliminates(mask, d))
    }

    /// Side-effect of `mask`: total weight of vulnerable tuples losing a
    /// witness. Exact for candidate-restricted solutions (the only kind
    /// any solver emits), since non-candidate deletions damage only
    /// non-vulnerable tuples.
    pub fn side_effect_mask(&self, mask: &[bool]) -> f64 {
        (0..self.vulnerable_idx.len() as u32)
            .filter(|&r| self.vulnerable_row(r).iter().any(|&b| mask[b as usize]))
            .map(|r| self.vulnerable_weight(r))
            .sum::<f64>()
            + 0.0
    }

    /// Balanced cost of `mask`: prizes of missed demands plus side-effect.
    pub fn balanced_cost_mask(&self, mask: &[bool]) -> f64 {
        let missed: f64 = (0..self.demand_idx.len() as u32)
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
        self.tuple_bits(sol.deleted.iter().copied())
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
        (0..self.demand_idx.len() as u32).all(|d| self.eliminates_bits(deleted, d))
    }

    /// Side-effect of a packed deletion mask. Identical sum order (and
    /// therefore bit-identical result) to
    /// [`side_effect_mask`](Self::side_effect_mask): vulnerable indices
    /// ascending.
    pub fn side_effect_bits(&self, deleted: &BitSet) -> f64 {
        (0..self.vulnerable_idx.len() as u32)
            .filter(|&r| words::intersects(self.vulnerable_mask_row(r), deleted.words()))
            .map(|r| self.vulnerable_weight(r))
            .sum()
    }

    /// Balanced cost of a packed deletion mask — bit-identical to
    /// [`balanced_cost_mask`](Self::balanced_cost_mask) on the same mask.
    pub fn balanced_cost_bits(&self, deleted: &BitSet) -> f64 {
        let missed: f64 = (0..self.demand_idx.len() as u32)
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
