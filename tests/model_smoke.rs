//! Tier-1 smoke coverage for the in-repo model checker.
//!
//! The full model suite over the production runtime lives in
//! `crates/core/tests/model.rs` and needs `--cfg delprop_model` (the
//! dedicated CI job). This file keeps the checker itself honest on
//! every plain `cargo test` run, with no special flags: it model-checks
//! small stand-alone protocols written directly against
//! `delprop_modelcheck`'s instrumented primitives — shaped after the
//! real budget admit loop and a classic per-slot seqlock — and
//! exercises the seed replay/round-trip machinery end to end.
//!
//! Iteration counts are smoke-sized; the CI model job raises them with
//! `DELPROP_MODEL_ITERS`.

use delprop_modelcheck::atomic::{AtomicBool, AtomicU64};
use delprop_modelcheck::{explore, replay, thread, Config, Seed};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

fn iters(default: u64) -> u64 {
    std::env::var("DELPROP_MODEL_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The shape of `Budget::charge`'s admit step: a CAS loop that only
/// moves the counter when the result stays under the limit. The model
/// proves the clamp invariant over every bounded interleaving of two
/// chargers — the miniature of
/// `crates/core/tests/model.rs::model_pool_never_exceeds_limit_and_loses_no_tick`.
#[test]
fn cas_admit_loop_clamps_at_limit_in_all_schedules() {
    const LIMIT: u64 = 3;
    let report = explore(&Config::exhaustive(2, 100_000), || {
        let used = AtomicU64::new(0);
        let admitted = thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let used = &used;
                    s.spawn(move || {
                        let mut ok = 0u64;
                        for _ in 0..2 {
                            if used
                                .fetch_update(Relaxed, Relaxed, |u| (u < LIMIT).then_some(u + 1))
                                .is_ok()
                            {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        let total = used.load(Relaxed);
        assert!(total <= LIMIT, "clamp violated: {total}");
        assert_eq!(total, admitted, "admitted charges must all be counted");
        assert_eq!(total, LIMIT, "4 unit charges against 3 admit exactly 3");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "space must exhaust: {}", report.schedules);
}

/// The checker must still *find* bugs (a clean run proves nothing if
/// the search is vacuous): the check-then-act version of the same admit
/// loop loses updates, and the reported seed replays deterministically
/// and survives the text round-trip a developer would paste from CI.
#[test]
fn check_then_act_admit_is_caught_with_replayable_seed() {
    fn buggy_admit() {
        let used = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let u = used.load(Relaxed); // check …
                    used.store(u + 1, Relaxed); // … then act: lost update
                });
            }
        });
        assert_eq!(used.load(Relaxed), 2, "lost update");
    }
    let report = explore(&Config::exhaustive(1, 10_000), buggy_admit);
    let failure = report.failure.expect("the lost update must be found");
    assert!(failure.message.contains("lost update"));
    // Replay + text round-trip.
    assert!(replay(&failure.seed, buggy_admit).is_err());
    let reparsed: Seed = failure.seed.to_string().parse().expect("seed parses back");
    assert_eq!(reparsed, failure.seed);
    assert!(replay(&reparsed, buggy_admit).is_err());
    // Shrinking never grows the prescription.
    assert!(failure.seed.choices.len() <= failure.original_seed.choices.len());
}

/// A two-word seqlock miniature: the writer bumps `state` to odd,
/// writes both words, publishes even; the reader validates `state`
/// around the word loads and discards torn snapshots.
/// The model asserts a validated snapshot is never a mix of two writes.
#[test]
fn seqlock_miniature_never_yields_torn_validated_reads() {
    let report = explore(&Config::random(0x5EED, iters(200), 2), || {
        let state = AtomicU64::new(0);
        let (w0, w1) = (AtomicU64::new(0), AtomicU64::new(0));
        thread::scope(|s| {
            s.spawn(|| {
                for v in 1..3u64 {
                    state.store(2 * v - 1, Release); // odd: mid-write
                    w0.store(v, Relaxed);
                    w1.store(100 + v, Relaxed);
                    state.store(2 * v, Release); // even: published
                }
            });
            s.spawn(|| {
                for _ in 0..3 {
                    let before = state.load(Acquire);
                    if before == 0 || before & 1 == 1 {
                        continue;
                    }
                    let a = w0.load(Relaxed);
                    let b = w1.load(Relaxed);
                    delprop_modelcheck::atomic::fence(Acquire);
                    let after = state.load(Relaxed);
                    if before == after {
                        // Validated: the two words must belong to one
                        // write (b = a + 100), never a torn mix.
                        assert_eq!(b, a + 100, "torn seqlock read");
                    }
                }
            });
        });
    });
    assert!(
        report.failure.is_none(),
        "replay seed: {}",
        report.failure.unwrap().seed
    );
}

/// Sticky-flag monotonicity miniature (the budget's `exhausted` /
/// `cancelled` protocol): once a reader observes the flag it never
/// un-observes it, in any schedule.
#[test]
fn sticky_flag_is_monotone_in_all_schedules() {
    let report = explore(&Config::exhaustive(2, 100_000), || {
        let flag = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                flag.swap(true, Release);
            });
            s.spawn(|| {
                let first = flag.load(Acquire);
                let second = flag.load(Acquire);
                assert!(!first || second, "sticky flag went backwards");
            });
        });
        assert!(flag.load(Acquire));
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
}

/// Random-walk determinism: the same seed explores the same schedules
/// and reports the same failure — the property the CI job's printed
/// seeds depend on.
#[test]
fn random_walks_are_reproducible() {
    fn racy() {
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
    let n = iters(300);
    let a = explore(&Config::random(0xD00DAD, n, 2), racy);
    let b = explore(&Config::random(0xD00DAD, n, 2), racy);
    assert_eq!(a.schedules, b.schedules);
    let (fa, fb) = (a.failure.expect("found"), b.failure.expect("found"));
    assert_eq!(fa.seed, fb.seed, "same RNG seed, same failing schedule");
    assert_eq!(fa.schedule_index, fb.schedule_index);
}
