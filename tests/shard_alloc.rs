//! Allocation cost of a warm sharded solve (DESIGN.md §15): once an
//! instance has its partition, `Portfolio::solve_sharded` allocates at
//! most three heap blocks per shard plus a constant. What a shard keeps
//! is its solution; the scheduler's state, the chain's scratch and the
//! verification mask are per worker, not per shard.
//!
//! A test binary of its own: the counting allocator below replaces the
//! global allocator for this file's tests only. Shard workers allocate
//! on threads the scheduler spawns, so the counters are process-wide,
//! and the tests here run one at a time (`SERIAL`).

use delprop::core::runtime::metrics;
use delprop::core::shard::{cached_partition, solve_sharded_ir};
use delprop::core::solvers::local_search::Objective;
use delprop::prelude::*;
use delprop::workload::forest::{self, ForestParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps an atomic counter besides.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests below read process-wide counters, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f` and report its result and the heap blocks every thread
/// allocated meanwhile (a `realloc` counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = f();
    (out, BLOCKS.load(Ordering::Relaxed) - before)
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

/// Blocks a warm sharded solve may allocate per shard: the shard's
/// solution, and its share of the merged solution and of the scheduler's
/// result lists.
const BLOCKS_PER_SHARD: usize = 3;

/// Blocks a warm sharded solve may allocate besides: the spawned
/// workers (their threads and scratch), the merged outcome and its
/// one-member report. The same bound holds at every size.
const CONSTANT_BLOCKS: usize = 32;

#[test]
fn warm_sharded_solve_allocates_three_blocks_per_shard_plus_a_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let chain = Portfolio::standard();
    for copies in [8usize, 64] {
        let p = disjoint(copies, 1);
        let budget = Budget::unlimited();
        // The cold solve compiles the instance and builds its partition.
        let cold = chain.solve_sharded(&p, &budget).unwrap();
        let (warm, blocks) = counted(|| chain.solve_sharded(&p, &budget).unwrap());
        assert_eq!(warm.solution, cold.solution, "copies={copies}");
        let shards = cached_partition(&p.compiled_arc()).shards.len();
        assert!(shards >= copies, "copies stay value-disjoint");
        assert!(
            blocks <= BLOCKS_PER_SHARD * shards + CONSTANT_BLOCKS,
            "copies={copies}: {blocks} blocks for {shards} shards"
        );
    }
}

#[test]
fn a_sharded_solve_counts_each_shard_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for objective in [Objective::Standard, Objective::Balanced] {
        let p = disjoint(8, 2);
        let ir = p.compiled_arc();
        let before = metrics::SHARD_SOLVES.get();
        let out = solve_sharded_ir(&ir, objective, &Budget::unlimited()).unwrap();
        assert_eq!(
            metrics::SHARD_SOLVES.get() - before,
            out.shards as u64,
            "{objective:?}: shard.solves advances by the shard count"
        );
    }
}
