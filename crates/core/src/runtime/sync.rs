//! The repo's single gateway to atomics and threads.
//!
//! Every atomic type, spawn, and yield the runtime uses is
//! imported from here — never from `std::sync::atomic` or
//! `std::thread` directly (`cargo run -p delprop-analyzer -- lint`
//! enforces this).
//! The facade has two personalities:
//!
//! - **Normal builds** (`cfg(not(delprop_model))`): zero-cost
//!   re-exports of the `std` primitives. Nothing changes at runtime;
//!   the facade compiles away entirely.
//! - **Model builds** (`RUSTFLAGS="--cfg delprop_model"`): re-exports of
//!   the instrumented primitives in [`delprop_modelcheck`], which turn
//!   every atomic operation, spawn, join, and yield into a scheduling
//!   point of a deterministic scheduler. `delprop_modelcheck::explore`
//!   then runs the code under bounded-exhaustive or seeded-random
//!   schedules and reports failing interleavings as replayable seeds
//!   (see `crates/core/tests/model.rs` and DESIGN.md §11).
//!
//! The two personalities expose the *same* API surface, so code written
//! against the facade needs no `cfg` of its own. The modeled subset is
//! deliberately small — `AtomicU64`, `AtomicUsize`, `AtomicBool`,
//! `Ordering`, `spin_loop`, and scoped/detached spawning —
//! because that is the full concurrency vocabulary of the runtime;
//! widening the facade is how new primitives buy into model coverage.
//!
//! What the model does **not** cover: weak-memory reorderings (the
//! scheduler is sequentially consistent) and data races on non-atomic
//! memory. Those are the Miri and ThreadSanitizer CI jobs' half of the
//! contract; the `Ordering` arguments written at facade call sites are
//! exercised by those jobs and by normal builds, not by the model.

#[cfg(not(delprop_model))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(delprop_model)]
pub use delprop_modelcheck::atomic::{AtomicBool, AtomicU64, AtomicUsize};

// `Ordering` is plain data (no operations to instrument) and identical
// in both personalities.
pub use std::sync::atomic::Ordering;

/// Spin-loop hint: [`std::hint::spin_loop`] in normal builds; under the
/// model, a *voluntary* scheduling point that deschedules the spinner
/// whenever any other thread can run (which is what keeps bounded
/// exhaustive exploration finite on spin-wait protocols).
pub fn spin_loop() {
    #[cfg(not(delprop_model))]
    std::hint::spin_loop();
    #[cfg(delprop_model)]
    delprop_modelcheck::spin_loop();
}

/// Available hardware parallelism, for sizing worker pools built on the
/// facade (the shard scheduler). Normal builds ask the OS once per
/// process and keep the answer: the query reads cgroup files, which
/// costs more than a small sharded solve's whole chain. Under the model
/// it is a fixed 2 so bounded-exhaustive exploration stays finite and
/// deterministic regardless of the host machine.
pub fn available_parallelism() -> usize {
    #[cfg(not(delprop_model))]
    {
        static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *WORKERS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
    #[cfg(delprop_model)]
    {
        2
    }
}

/// Thread spawn/yield points, same two personalities as the atomics.
pub mod thread {
    #[cfg(not(delprop_model))]
    pub use std::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};

    #[cfg(delprop_model)]
    pub use delprop_modelcheck::thread::{
        scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle,
    };
}
