//! # delprop-modelcheck — an in-repo deterministic concurrency checker
//!
//! A loom-lite, zero-dependency model checker for the concurrency
//! protocols in `delprop-core::runtime` (atomic budget pool, epoch
//! cell, racing portfolio cancellation, shard task scheduler). It runs
//! a closure under *many thread schedules* — bounded-exhaustive DFS
//! over yield points for small models, seeded random walks with a
//! preemption bound for larger ones — and reports any failing schedule
//! as a **replayable, shrunk seed**.
//!
//! ## How interposition works
//!
//! Code under test uses the instrumented primitives in [`atomic`] and
//! [`thread`] (in `delprop-core` these are reached through the
//! `runtime::sync` facade, which re-exports plain `std` in normal
//! builds and this crate under `cfg(delprop_model)`). Every atomic
//! operation, spawn, join, and voluntary yield is a *scheduling point*:
//! under an active [`explore`] run, exactly one registered thread
//! executes at a time and the scheduler decides who proceeds at each
//! point. Between two points a thread runs atomically with respect to
//! the model, so the explored space is precisely the interleavings of
//! instrumented operations under sequential consistency.
//!
//! Outside an exploration every primitive passes straight through to
//! `std` at the cost of one thread-local read, so the same test code
//! can run natively (as a stress test) and under the model.
//!
//! ## What this checker is *not*
//!
//! It is not a weak-memory simulator: `Ordering`s are forwarded but not
//! modeled (everything is sequentially consistent), and
//! `compare_exchange_weak` never fails spuriously. Memory-ordering and
//! data-race bugs are covered by the Miri and ThreadSanitizer CI jobs;
//! this crate covers *interleaving logic* — check-then-act races, lost
//! updates, torn protocol states, cancellation and exhaustion
//! monotonicity — with deterministic reproduction.
//!
//! ## Example
//!
//! ```
//! use delprop_modelcheck::{atomic::AtomicU64, explore, thread, Config};
//! use std::sync::atomic::Ordering::Relaxed;
//!
//! // A classic check-then-act lost update: the checker finds the
//! // interleaving and hands back a replayable seed.
//! let report = explore(&Config::exhaustive(2, 10_000), || {
//!     let x = AtomicU64::new(0);
//!     thread::scope(|s| {
//!         for _ in 0..2 {
//!             s.spawn(|| {
//!                 let v = x.load(Relaxed); // read …
//!                 x.store(v + 1, Relaxed); // … then write: not atomic!
//!             });
//!         }
//!     });
//!     assert_eq!(x.load(Relaxed), 2, "lost update");
//! });
//! let failure = report.failure.expect("the race must be found");
//! assert!(delprop_modelcheck::replay(&failure.seed, || {
//!     // … same closure …
//! # let x = AtomicU64::new(0);
//! # thread::scope(|s| { for _ in 0..2 { s.spawn(|| {
//! #     let v = x.load(Relaxed); x.store(v + 1, Relaxed); }); } });
//! # assert_eq!(x.load(Relaxed), 2, "lost update");
//! }).is_err());
//! ```

pub mod atomic;
mod exec;
mod explore;
mod rng;
mod seed;
pub mod thread;

pub use exec::is_active;
pub use explore::{check, explore, replay, Config, Failure, Report, Strategy};
pub use seed::{ParseSeedError, Seed};

/// Instrumented spin-loop hint: a *voluntary* scheduling point under an
/// exploration (the spinning thread is descheduled whenever any other
/// thread can run, which is what lets bounded-exhaustive DFS terminate
/// on spin-wait protocols), [`std::hint::spin_loop`] otherwise.
pub fn spin_loop() {
    if exec::is_active() {
        exec::yield_voluntary();
    } else {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicBool, AtomicU64};
    use super::*;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

    /// The canonical check-then-act bug: two threads read-modify-write
    /// without atomicity.
    fn lost_update_model() {
        let x = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let v = x.load(Relaxed);
                    x.store(v + 1, Relaxed);
                });
            }
        });
        assert_eq!(x.load(Relaxed), 2, "lost update");
    }

    #[test]
    fn exhaustive_finds_lost_update_and_seed_replays() {
        let report = explore(&Config::exhaustive(2, 10_000), lost_update_model);
        let failure = report.failure.expect("lost update must be found");
        assert!(
            report.schedules < 1_000,
            "small model, small search: {} schedules",
            report.schedules
        );
        assert!(failure.message.contains("lost update"));
        // The reported seed replays to the same failure, and parses
        // back from its text form.
        let err = replay(&failure.seed, lost_update_model).expect_err("seed must reproduce");
        assert!(err.contains("lost update"));
        let reparsed: Seed = failure.seed.to_string().parse().expect("seed text parses");
        assert_eq!(reparsed, failure.seed);
        // Shrinking never grows the prescription.
        assert!(failure.seed.choices.len() <= failure.original_seed.choices.len());
        assert!(replay(&reparsed, lost_update_model).is_err());
    }

    #[test]
    fn preemption_bound_zero_cannot_see_the_race() {
        // With no preemptions each thread runs its two operations
        // back-to-back; only thread *order* varies, and the counter is
        // correct in every such schedule.
        let report = explore(&Config::exhaustive(0, 10_000), lost_update_model);
        assert!(report.failure.is_none(), "needs a mid-thread preemption");
        assert!(report.complete, "bounded space must be exhausted");
    }

    #[test]
    fn fetch_add_is_race_free_and_space_exhausts() {
        let report = explore(&Config::exhaustive(2, 10_000), || {
            let x = AtomicU64::new(0);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        x.fetch_add(1, Relaxed);
                    });
                }
            });
            assert_eq!(x.load(Relaxed), 2);
        });
        assert!(report.failure.is_none());
        assert!(report.complete);
    }

    #[test]
    fn random_strategy_finds_lost_update_deterministically() {
        let a = explore(&Config::random(0xD15EA5E, 500, 2), lost_update_model);
        let b = explore(&Config::random(0xD15EA5E, 500, 2), lost_update_model);
        let fa = a.failure.expect("random walk must find the race");
        let fb = b.failure.expect("same seed, same result");
        assert_eq!(a.schedules, b.schedules, "same seed explores identically");
        assert_eq!(fa.seed, fb.seed);
        assert!(replay(&fa.seed, lost_update_model).is_err());
    }

    #[test]
    fn spin_wait_terminates_under_exhaustive_dfs() {
        // A spin loop is a voluntary yield: the spinner is descheduled
        // whenever the flag-setter can run, so the bounded space stays
        // finite and exploration completes.
        let report = explore(&Config::exhaustive(1, 10_000), || {
            let flag = AtomicBool::new(false);
            thread::scope(|s| {
                s.spawn(|| flag.store(true, Release));
                s.spawn(|| {
                    while !flag.load(Acquire) {
                        spin_loop();
                    }
                });
            });
            assert!(flag.load(Relaxed));
        });
        assert!(report.failure.is_none());
        assert!(report.complete);
    }

    #[test]
    fn explicit_join_handles_are_scheduling_points() {
        let report = explore(&Config::exhaustive(2, 10_000), || {
            let x = AtomicU64::new(0);
            thread::scope(|s| {
                let h = s.spawn(|| {
                    x.fetch_add(1, Relaxed);
                    7u64
                });
                let got = h.join().expect("child must not panic");
                assert_eq!(got, 7);
                // Join happened-before: the child's effect is visible.
                assert_eq!(x.load(Relaxed), 1);
            });
        });
        assert!(report.failure.is_none());
        assert!(report.complete);
    }

    #[test]
    fn detached_spawn_must_be_joined() {
        let report = explore(&Config::exhaustive(0, 16), || {
            let h = thread::spawn(|| {});
            h.join().expect("clean child");
        });
        assert!(report.failure.is_none());
    }

    #[test]
    fn passthrough_outside_exploration() {
        assert!(!is_active());
        let x = AtomicU64::new(5);
        assert_eq!(x.fetch_add(2, Relaxed), 5);
        assert_eq!(x.load(Relaxed), 7);
        assert_eq!(x.fetch_update(Relaxed, Relaxed, |v| Some(v + 1)), Ok(7));
        thread::yield_now();
        spin_loop();
        let h = thread::spawn(|| 3);
        assert_eq!(h.join().expect("plain std thread"), 3);
    }

    #[test]
    fn check_panics_with_replayable_seed_text() {
        let outcome = std::panic::catch_unwind(|| {
            check(&Config::exhaustive(2, 10_000), lost_update_model);
        });
        let payload = outcome.expect_err("check must panic on a found race");
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic payload")
            .clone();
        assert!(msg.contains("replay seed: mc1:"), "got: {msg}");
        // The seed embedded in the message replays.
        let seed_text = msg
            .split("replay seed: ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("seed in message");
        let seed: Seed = seed_text.parse().expect("embedded seed parses");
        assert!(replay(&seed, lost_update_model).is_err());
    }
}
