//! Connected-component partitioner over the compiled incidence index.
//!
//! Two base tuples interact iff some demand's witness set or some
//! vulnerable tuple's candidate-witness set contains both: deleting one
//! then influences which deletions the other can render redundant
//! (through a shared demand) or whether damage is double-counted
//! (through a shared vulnerable tuple). Union-finding every CSR row of
//! the [`CompiledInstance`] therefore splits the instance into
//! components that are *fully independent subproblems*: demands,
//! vulnerable tuples, and candidate bases partition cleanly, any
//! solution's cost is the sum of its per-component costs, and the
//! global optimum is the sum of the per-component optima.
//!
//! The parent IR keeps its active sets in dense form (candidate uids,
//! demand and vulnerable layout indices), so one counting pass groups
//! them by component, each group contiguous and ascending. Every shard
//! is then pushed through the same store builder that
//! `CompiledInstance::assemble` uses, into **one** store for the whole
//! partition, over the parent's shared `StaticLayer` (an `Arc` bump — no
//! tuple, weight, or path copying), with one uid → rank-within-component
//! table for all shards: a shard's witness paths meet no other
//! component's candidates, so no shard reads another shard's entries.
//! A shard is an `Arc<CompiledInstance>` of ranges over that store, so
//! a partition allocates one block per shard plus a constant (asserted
//! by `tests/partition_alloc.rs`). A shard IR is byte-identical to a
//! cold compile of the instance with ΔV restricted to the shard's
//! demands (asserted by `tests/shard_equivalence.rs`). The packed bitset
//! rows shrink quadratically: a full instance carries
//! `‖ΔV‖ × ‖𝒞‖/64` words of witness masks, the shards together only
//! `Σ_c ‖ΔV_c‖ × ‖𝒞_c‖/64`.
//!
//! Single-component instances short-circuit: the partition hands back
//! the parent `Arc` itself (asserted by `tests/shard_equivalence.rs`),
//! so the sharded path degenerates to the unsharded one at zero cost.

use crate::ir::{CompiledInstance, IrStore, Layout, StoreSize, NO_RANK};
use std::sync::Arc;

/// Union-find over dense indices with path halving + union by rank.
/// Public because the out-of-core path runs the same component
/// discovery over flat on-disk rows without a compiled instance.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// Merge every index in `row` into one set (no-op on empty rows).
    pub fn union_row(&mut self, row: &[u32]) {
        let mut it = row.iter();
        if let Some(&first) = it.next() {
            for &b in it {
                self.union(first, b);
            }
        }
    }
}

/// One connected component, ready to solve.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The component's own compiled instance. For a single-component
    /// parent this is the parent `Arc` itself.
    pub ir: Arc<CompiledInstance>,
}

/// A compiled instance split into independent component shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The component shards, ordered by their smallest base tuple.
    /// Empty iff the parent has no demands.
    pub shards: Vec<Shard>,
    /// Vulnerable view tuples whose candidate-witness set is empty: no
    /// deletion can ever damage them, so they belong to no shard and
    /// contribute zero cost on every path.
    pub orphan_vulnerable: usize,
}

/// Split `ir` into connected-component shards, built afresh. `O(‖rows‖
/// α)` discovery, one grouping pass, and one store filled with every
/// component; single-component instances return the parent `Arc`
/// unchanged. [`cached_partition`] returns the partition `ir` keeps.
pub fn partition(ir: &Arc<CompiledInstance>) -> Partition {
    split(ir).into_partition(ir)
}

/// The partition `ir` keeps for its lifetime: built on the first call
/// (or the first sharded solve) of this IR, and every later call hands
/// out the same shard `Arc`s. Single-component instances return the
/// parent `Arc`, as [`partition()`] does.
pub fn cached_partition(ir: &Arc<CompiledInstance>) -> Partition {
    ir.components().clone().into_partition(ir)
}

/// A partition in the form its parent IR caches it
/// ([`CompiledInstance::components`]): the shards and where each shard's
/// bases sit in the parent. It holds no handle to the parent, so a
/// single-component parent, which is its own only shard, is a flag and
/// not an `Arc` (an IR that held its own `Arc` would never be freed).
#[derive(Debug, Clone)]
pub(crate) struct Components {
    /// The component shards, ordered by their smallest base tuple;
    /// empty when the parent has no demands or is `whole`.
    shards: Vec<Arc<CompiledInstance>>,
    /// Whether the parent is one component.
    whole: bool,
    /// The parent's dense index of every shard base, shard after shard,
    /// each shard's run ascending; empty unless split into `shards`.
    parent_bases: Box<[u32]>,
    /// See [`Partition::orphan_vulnerable`].
    orphan_vulnerable: usize,
}

impl Components {
    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len() + usize::from(self.whole)
    }

    /// Shard `k` of `parent`, the IR these components were built from.
    pub(crate) fn shard<'a>(
        &'a self,
        parent: &'a CompiledInstance,
        k: usize,
    ) -> &'a CompiledInstance {
        if self.whole {
            parent
        } else {
            &self.shards[k]
        }
    }

    /// The parent's dense index of the base at position `at` of the
    /// shard-after-shard order: shard `k`'s base `b` sits at `b` plus
    /// the base counts of the shards before `k`.
    pub(crate) fn parent_base(&self, at: usize) -> u32 {
        if self.whole {
            at as u32
        } else {
            self.parent_bases[at]
        }
    }

    /// The public form, over `parent`'s own `Arc`.
    fn into_partition(self, parent: &Arc<CompiledInstance>) -> Partition {
        let shards = if self.whole {
            vec![Arc::clone(parent)]
        } else {
            self.shards
        };
        Partition {
            shards: shards.into_iter().map(|ir| Shard { ir }).collect(),
            orphan_vulnerable: self.orphan_vulnerable,
        }
    }
}

/// Build `ir`'s components: the body of [`partition()`].
pub(crate) fn split(ir: &CompiledInstance) -> Components {
    crate::runtime::metrics::SHARD_PARTITIONS.inc();
    let nb = ir.num_bases();
    let nd = ir.num_demands();
    let nv = ir.num_vulnerable();
    let unsplit = |whole, orphan_vulnerable| Components {
        shards: Vec::new(),
        whole,
        parent_bases: Box::default(),
        orphan_vulnerable,
    };
    if nd == 0 {
        // Nothing to delete: the optimum is empty everywhere.
        return unsplit(false, nv);
    }

    let (demand_rows, vulnerable_rows) = (ir.demand_rows(), ir.vulnerable_rows());
    let mut uf = UnionFind::new(nb);
    for d in 0..nd as u32 {
        uf.union_row(demand_rows.row(d));
    }
    let mut orphan_vulnerable = 0usize;
    for r in 0..nv as u32 {
        let row = vulnerable_rows.row(r);
        if row.is_empty() {
            orphan_vulnerable += 1;
        } else {
            uf.union_row(row);
        }
    }

    // Dense component ids in order of smallest member base. Every base
    // is a witness of some demand, so every base lands in a component
    // that contains at least one demand.
    let mut comp_of_root: Vec<u32> = vec![u32::MAX; nb];
    let mut comp_count = 0u32;
    let mut comp_of_base: Vec<u32> = Vec::with_capacity(nb);
    for b in 0..nb as u32 {
        let root = uf.find(b) as usize;
        if comp_of_root[root] == u32::MAX {
            comp_of_root[root] = comp_count;
            comp_count += 1;
        }
        comp_of_base.push(comp_of_root[root]);
    }

    if comp_count <= 1 {
        return unsplit(true, orphan_vulnerable);
    }

    // One counting pass groups the dense bases, demands and vulnerable
    // tuples by component, each group ascending: `grouped` holds every
    // base group, then every demand group, then every vulnerable group,
    // and `starts[k]` the starts of component `k`'s three groups
    // (`starts[k + 1]` their ends). One uid → rank-within-component table
    // serves every shard: by the partition invariant a shard's witness
    // paths meet no other component's candidates, so no shard reads
    // another's entries.
    let comps = comp_count as usize;
    let comp_of_demand = |d: usize| comp_of_base[demand_rows.row(d as u32)[0] as usize] as usize;
    let comp_of_vulnerable = |r: usize| {
        let row = vulnerable_rows.row(r as u32);
        row.first().map(|&b| comp_of_base[b as usize] as usize)
    };
    let mut starts = vec![[0u32; 3]; comps + 1];
    for &k in &comp_of_base {
        starts[k as usize][0] += 1;
    }
    for d in 0..nd {
        starts[comp_of_demand(d)][1] += 1;
    }
    for k in (0..nv).filter_map(comp_of_vulnerable) {
        starts[k][2] += 1;
    }
    let mut words = 0;
    let mut at = [0, nb as u32, (nb + nd) as u32];
    for start in starts.iter_mut() {
        let [bases, demands, vulnerable] = *start;
        words += (bases as usize).div_ceil(64) * (demands + vulnerable) as usize;
        for (s, n) in start.iter_mut().zip(&mut at) {
            (*s, *n) = (*n, *n + *s);
        }
    }

    let statics = ir.statics_arc();
    let mut rank = vec![NO_RANK; statics.universe.len()];
    let mut grouped = vec![0u32; at[2] as usize];
    let mut parent_bases = vec![0u32; nb].into_boxed_slice();
    let mut next = starts.clone();
    for (b, &u) in ir.base_uids().iter().enumerate() {
        let k = comp_of_base[b] as usize;
        rank[u as usize] = next[k][0] - starts[k][0];
        grouped[next[k][0] as usize] = u;
        parent_bases[next[k][0] as usize] = b as u32;
        next[k][0] += 1;
    }
    for (d, &i) in ir.demand_idx().iter().enumerate() {
        let k = comp_of_demand(d);
        grouped[next[k][1] as usize] = i;
        next[k][1] += 1;
    }
    for (r, &i) in ir.vulnerable_idx().iter().enumerate() {
        if let Some(k) = comp_of_vulnerable(r) {
            grouped[next[k][2] as usize] = i;
            next[k][2] += 1;
        }
    }

    // Every shard goes into one store. A shard's rows stay those of its
    // parent (only the base ranks change), so the witness totals carry
    // over and the slabs are sized exactly. Each shard's demand indices
    // are its ΔV: the shard IR describes the component as a
    // self-contained instance.
    let (wd, wv) = ir.witness_entries();
    let size = StoreSize {
        instances: comps,
        nb,
        nd,
        nv: nv - orphan_vulnerable,
        wd,
        wv,
        words,
    };
    let (store, layouts) = IrStore::build(&statics, &rank, size, |builder| {
        (starts.iter().zip(&starts[1..]))
            .map(|(start, end)| {
                let group = |s: usize| &grouped[start[s] as usize..end[s] as usize];
                builder.push(group(0), group(1), group(2))
            })
            .collect::<Vec<Layout>>()
    });
    let generation = ir.generation();
    let shards = layouts
        .into_iter()
        .map(|layout| {
            let (store, statics) = (Arc::clone(&store), Arc::clone(&statics));
            let ir = CompiledInstance::in_store(store, layout, statics, generation);
            Arc::new(ir)
        })
        .collect();

    Components {
        shards,
        whole: false,
        parent_bases,
        orphan_vulnerable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::chain_problem;

    #[test]
    fn union_find_merges_rows() {
        let mut uf = UnionFind::new(6);
        uf.union_row(&[0, 1, 2]);
        uf.union_row(&[4, 5]);
        uf.union_row(&[]);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(4), uf.find(5));
        assert_ne!(uf.find(1), uf.find(4));
        assert_ne!(uf.find(3), uf.find(0));
        uf.union_row(&[2, 4]);
        assert_eq!(uf.find(0), uf.find(5));
    }

    #[test]
    fn single_component_returns_parent_arc() {
        // Overlapping witness sets ({1,2,3} and {2,3,4}) force one component.
        let p = chain_problem(8, 3, &[1, 2]);
        let ir = p.compiled_arc();
        let part = partition(&ir);
        assert_eq!(part.shards.len(), 1);
        assert!(Arc::ptr_eq(&part.shards[0].ir, &ir));
    }

    #[test]
    fn disjoint_demands_split_into_two_shards() {
        // Witness sets {1,2,3} and {4,5,6} share no base: two components.
        let p = chain_problem(8, 3, &[1, 4]);
        let ir = p.compiled_arc();
        let part = partition(&ir);
        assert_eq!(part.shards.len(), 2);
        // Bases, demands, and vulnerable tuples partition exactly.
        let nb: usize = part.shards.iter().map(|s| s.ir.num_bases()).sum();
        let nd: usize = part.shards.iter().map(|s| s.ir.num_demands()).sum();
        let nv: usize = part.shards.iter().map(|s| s.ir.num_vulnerable()).sum();
        assert_eq!(nb, ir.num_bases());
        assert_eq!(nd, ir.num_demands());
        assert_eq!(nv + part.orphan_vulnerable, ir.num_vulnerable());
        // Shards share the parent's static layer (no copying).
        for s in &part.shards {
            assert_eq!(s.ir.norm_v(), ir.norm_v());
        }
    }

    #[test]
    fn no_demands_partitions_to_nothing() {
        let p = chain_problem(6, 2, &[]);
        let part = partition(&p.compiled_arc());
        assert!(part.shards.is_empty());
    }
}
