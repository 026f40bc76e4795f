//! Allocation cost of the wire codec: encoding a `SolveOk` and decoding
//! it again allocates a constant number of blocks, whatever the number
//! of deleted tuples it carries — no per-pair node of a document tree.
//!
//! A test binary of its own: the counting allocator below replaces the
//! global allocator for this file's tests only. Its counters are
//! per-thread, so tests running side by side do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use delprop_server::wire::{send_frame, FrameBuffer};
use delprop_server::{Response, SolveOk};

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn note(blocks: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + blocks));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates a thread-local counter besides.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller keeps `GlobalAlloc`'s contract, all `System` needs.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1);
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

/// Run `f` and report its result and the heap blocks it allocated (a
/// `realloc` counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

fn answer(pairs: usize) -> Response {
    Response::Ok(SolveOk {
        epoch: 3,
        winner: "lowdeg_tree".to_string(),
        guarantee: "ratio 2".to_string(),
        degraded: false,
        cost: 2876.0802634348534,
        deleted: (0..pairs).map(|i| (i % 7, i * 7919)).collect(),
        micros: 212,
        ticks: 1 << 40,
        attempts: 1,
    })
}

#[test]
fn a_solve_answer_round_trips_in_a_constant_number_of_blocks() {
    let mut blocks = Vec::new();
    for pairs in [10, 1000] {
        let resp = answer(pairs);
        let (decoded, n) = counted(|| Response::from_bytes(&resp.to_bytes()));
        assert_eq!(decoded.as_ref(), Ok(&resp));
        blocks.push(n);
    }
    assert_eq!(
        blocks[0], blocks[1],
        "blocks at 10 pairs vs at 1000 pairs: {blocks:?}"
    );
}

#[test]
fn a_warm_connection_frames_an_answer_without_allocating() {
    let resp = answer(1000);
    let mut out = Vec::new();
    let mut sent = Vec::new();
    send_frame(&mut sent, &mut out, |b| resp.encode(b)).unwrap();
    let ((), n) = counted(|| {
        send_frame(&mut std::io::sink(), &mut out, |b| resp.encode(b)).unwrap();
    });
    assert_eq!(n, 0, "re-encoding into the connection's buffer");

    // Reading it back: the buffer's own growth, then the answer's
    // owned fields — nothing per pair.
    let mut frames = FrameBuffer::new();
    let (decoded, n) = counted(|| {
        let frame = frames.read_from(&mut &sent[..]).unwrap().unwrap();
        Response::from_bytes(frame).unwrap()
    });
    assert_eq!(decoded, resp);
    assert!(n <= 8, "{n} blocks to read and decode one frame");
}
