//! Allocation cost of a shard partition (DESIGN.md §15): every shard of
//! one partition is a range handle over one shared store, so a partition
//! allocates one block per shard (its handle) plus a constant, and holds
//! no more than the parent instance's own store plus those handles: no
//! per-shard copy of anything sized by ‖V‖.
//!
//! A test binary of its own: the counting allocator below replaces the
//! global allocator for this file's tests only. Its counters are
//! per-thread, so tests running side by side do not see each other.

use delprop::core::ir::CompiledInstance;
use delprop::core::shard::partition;
use delprop::prelude::*;
use delprop::workload::forest::{self, ForestParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note(blocks: usize, bytes: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + blocks));
    let _ = LIVE_BYTES.try_with(|l| l.set(l.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates thread-local counters besides.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and report its result, the heap blocks it allocated (a
/// `realloc` counts as one), and the bytes still live when it returned:
/// what its result holds.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (blocks, live) = (BLOCKS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = f();
    let blocks = BLOCKS.with(Cell::get) - blocks;
    (out, blocks, LIVE_BYTES.with(Cell::get) - live)
}

/// Bytes of the arrays an instance reads besides the shared static
/// layer: per base, demand and vulnerable tuple its dense index, CSR
/// offsets, weight and packed row, and per row entry a witness and its
/// transpose entry. Computed from the public accessors, so it prices any
/// representation of the same data alike.
fn store_bytes(ir: &CompiledInstance) -> usize {
    let (nb, nd, nv) = (ir.num_bases(), ir.num_demands(), ir.num_vulnerable());
    let wd: usize = (0..nd as u32).map(|d| ir.demand_row(d).len()).sum();
    let wv: usize = (0..nv as u32).map(|r| ir.vulnerable_row(r).len()).sum();
    let ids = 3 * nb + 4 * nd + 4 * nv + 4 + 2 * wd + 2 * wv;
    4 * ids + 8 * (nd + nv) + 8 * (nd + nv) * ir.base_words()
}

fn disjoint(copies: usize, seed: u64) -> Problem {
    forest::generate_disjoint(
        ForestParams {
            levels: 4,
            window: 2,
            chains: 12,
            delete_fraction: 0.3,
            weighted: seed % 2 == 1,
        },
        copies,
        seed,
    )
}

/// Blocks a partition may allocate besides one handle per shard. The
/// same bound holds at every size.
const CONSTANT_BLOCKS: usize = 16;

/// Bytes a partition may hold per shard besides its parent's store:
/// the shard's handle (an `Arc` of ranges) and its slot in the vector.
const HANDLE_BYTES: usize = 256;

#[test]
fn partition_allocates_a_handle_per_shard_plus_a_constant() {
    for copies in [8usize, 64] {
        let p = disjoint(copies, 1);
        let ir = p.compiled_arc();
        let (part, blocks, held) = counted(|| partition(&ir));
        let shards = part.shards.len();
        assert!(shards >= copies, "copies stay value-disjoint");
        assert!(
            blocks <= shards + CONSTANT_BLOCKS,
            "copies={copies}: {blocks} blocks for {shards} shards"
        );
        // The shards' rows are the parent's, re-ranked; their packed rows
        // are narrower. So the shards' arrays together fit in the parent's
        // store, and what is left is one handle per shard.
        let parent = store_bytes(&ir);
        assert!(
            held as usize <= parent + shards * HANDLE_BYTES,
            "copies={copies}: the partition holds {held} bytes for {shards} shards, \
             the parent store is {parent}"
        );
        drop(part);
    }
}
