//! Deterministic model-checking of the `runtime` concurrency protocols.
//!
//! Compiled only under `RUSTFLAGS="--cfg delprop_model"`, which switches
//! `runtime::sync` from plain `std` atomics onto the
//! `delprop-modelcheck` scheduler: every atomic operation, spawn, join,
//! and spin hint becomes a scheduling point, and [`explore`] drives the
//! *same production code* — `Budget::charge`, the epoch cell,
//! `Portfolio::solve_racing` — through bounded-exhaustive or seeded
//! random interleavings. A failing schedule panics with a replayable
//! `mc1:` seed (see DESIGN.md §11 for the replay workflow).
//!
//! The whole file is additionally gated on `not(delprop_model_bug)`:
//! the bug-injection build (`model_bug.rs`) deliberately breaks the
//! budget admit protocol, so the invariants asserted here must not run
//! there.
//!
//! Sizing: every exhaustive test is small enough to *complete* its
//! bounded space in well under a second; the random-walk tests default
//! to a smoke-sized iteration count and scale up through the
//! `DELPROP_MODEL_ITERS` environment variable in the dedicated CI job.
#![cfg(all(delprop_model, not(delprop_model_bug)))]

use delprop_core::runtime::{Budget, EpochCell, MemberStatus, Portfolio};
use delprop_core::{CoreError, Problem};
use delprop_modelcheck::{explore, thread, Config, Report};
use delprop_query::parse_query;
use delprop_relation::{tup, Database, RelationSchema, Schema};
use std::sync::Arc;
use std::time::Duration;

/// Random-walk iteration count: smoke-sized by default, raised via
/// `DELPROP_MODEL_ITERS` in the CI model job.
fn iters(default: u64) -> u64 {
    std::env::var("DELPROP_MODEL_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Assert a report found no failure, printing the replay seed when it
/// did, and that a bounded-exhaustive run actually exhausted its space
/// (a truncated search would silently weaken every "holds in all
/// schedules" claim below).
fn assert_clean_exhaustive(report: &Report) {
    if let Some(f) = &report.failure {
        panic!(
            "model failure in schedule {} (replay seed: {}): {}",
            f.schedule_index, f.seed, f.message
        );
    }
    assert!(
        report.complete,
        "exhaustive space truncated after {} schedules; raise max_schedules",
        report.schedules
    );
}

fn assert_clean_random(report: &Report) {
    if let Some(f) = &report.failure {
        panic!(
            "model failure in schedule {} (replay seed: {}): {}",
            f.schedule_index, f.seed, f.message
        );
    }
}

// -------------------------------------------------------------------
// Budget pool invariants
// -------------------------------------------------------------------

/// Two handles hammering one limited pool: under **every** bounded
/// interleaving the pool counter stays clamped at the limit and equals
/// the sum of per-handle meters (no lost and no duplicated tick) —
/// exactly the invariant the PR 3 over-accounting bug violated.
#[test]
fn model_pool_never_exceeds_limit_and_loses_no_tick() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::with_ticks(3);
        let (a, b) = (pool.share(), pool.share());
        let (oka, okb) = thread::scope(|s| {
            let ha = s.spawn(|| (0..2).filter(|_| a.charge(1).is_ok()).count() as u64);
            let hb = s.spawn(|| (0..2).filter(|_| b.charge(1).is_ok()).count() as u64);
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(pool.used() <= 3, "used {} exceeds the limit", pool.used());
        assert_eq!(
            pool.used(),
            oka + okb,
            "pool meter must equal the number of admitted charges"
        );
        assert_eq!(pool.used(), a.own_used() + b.own_used());
        // 4 single ticks against limit 3: exactly one refusal.
        assert_eq!(oka + okb, 3);
        assert!(pool.is_exhausted());
    });
    assert_clean_exhaustive(&report);
}

/// A refused charge must not move the counter, in any interleaving:
/// two charges of 3 against limit 4 admit exactly one, and `used`
/// reports 3 — never 6, never a partial mix.
#[test]
fn model_refusal_never_inflates_used() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::with_ticks(4);
        let (a, b) = (pool.share(), pool.share());
        thread::scope(|s| {
            s.spawn(|| {
                let _ = a.charge(3);
            });
            s.spawn(|| {
                let _ = b.charge(3);
            });
        });
        assert_eq!(pool.used(), 3, "exactly one 3-tick charge fits under 4");
        assert!(pool.is_exhausted(), "the refused charge flips the flag");
        // Refusal reported the clamped counter, not the refused total.
        assert!(matches!(
            pool.error(),
            CoreError::BudgetExhausted { ticks: 3 }
        ));
    });
    assert_clean_exhaustive(&report);
}

/// Exhaustion is sticky across handles: once any charge is refused,
/// every later charge fails on every handle of the pool — even one that
/// would still fit under the limit numerically.
#[test]
fn model_exhaustion_is_sticky_across_handles() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::with_ticks(2);
        let (a, b) = (pool.share(), pool.share());
        thread::scope(|s| {
            s.spawn(|| {
                let _ = a.charge(3); // refused in every schedule: 3 > 2
            });
            s.spawn(|| {
                // Fits numerically; may land before or after the refusal.
                let first = b.charge(1);
                if first.is_err() {
                    // Sticky: once this handle saw a failure, the next
                    // fitting charge must fail too.
                    assert!(b.charge(1).is_err(), "exhaustion must not clear");
                }
            });
        });
        assert!(a.is_exhausted() && b.is_exhausted() && pool.is_exhausted());
        // Post-race, a fitting charge on the parent still fails, and the
        // meters agree with what was actually admitted.
        assert!(pool.charge(1).is_err());
        assert_eq!(pool.used(), a.own_used() + b.own_used());
        assert!(pool.used() <= 2);
    });
    assert_clean_exhaustive(&report);
}

/// Deadline rollback accounting: a charge admitted past the deadline is
/// rolled back out of *both* meters before the exhaustion flag flips,
/// so `used` equals the ticks that actually ran — under every
/// interleaving of two racing handles, including the one where the
/// second handle slips its charge in under the first handle's
/// rescheduled clock check.
#[test]
fn model_deadline_rollback_keeps_meters_consistent() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::unlimited().with_deadline(Duration::ZERO);
        let (a, b) = (pool.share(), pool.share());
        let (oka, okb) = thread::scope(|s| {
            let ha = s.spawn(|| a.checkpoint().is_ok() as u64);
            let hb = s.spawn(|| b.checkpoint().is_ok() as u64);
            (ha.join().unwrap(), hb.join().unwrap())
        });
        // Whoever reaches the (expired) clock check first rolls its own
        // tick back and exhausts the pool; the sibling either failed the
        // exhaustion precheck (rolled back or never admitted) or got
        // admitted without a clock check. In every schedule the pool
        // meter equals the surviving (admitted, never rolled back) ticks.
        assert!(pool.is_exhausted(), "a zero deadline always fires");
        assert_eq!(
            pool.used(),
            oka + okb,
            "rolled-back ticks must leave both meters"
        );
        assert_eq!(pool.used(), a.own_used() + b.own_used());
    });
    assert_clean_exhaustive(&report);
}

/// Cancellation is monotone (sticky per handle) and scoped per handle:
/// the cancelled handle keeps refusing forever with the typed error and
/// the recorded cause, while its sibling on the same pool never notices.
#[test]
fn model_cancel_is_monotone_and_per_handle() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::with_ticks(100);
        let victim = pool.share();
        let sibling = pool.share();
        thread::scope(|s| {
            s.spawn(|| {
                victim.cancel_with_cause("winner");
                // Immediately after the cancel, this handle observes it.
                assert!(victim.is_cancelled());
            });
            s.spawn(|| {
                let first = victim.charge(1);
                let second = victim.charge(1);
                // Monotone: a cancellation can only move Ok -> Err.
                if first.is_err() {
                    assert!(second.is_err(), "cancellation must be sticky");
                }
                if let Err(e) = second {
                    assert!(
                        matches!(e, CoreError::Cancelled { .. }),
                        "cancel (not exhaustion) is the typed cause: {e}"
                    );
                }
                // The sibling handle is untouched in every schedule.
                assert!(!sibling.is_cancelled());
                sibling.charge(1).expect("sibling keeps running");
            });
        });
        assert!(victim.is_cancelled());
        assert_eq!(victim.cancel_cause(), Some("winner"));
        assert!(victim.charge(1).is_err(), "cancelled forever");
        assert!(!pool.is_exhausted());
        assert_eq!(pool.used(), victim.own_used() + sibling.own_used());
    });
    assert_clean_exhaustive(&report);
}

/// Pool-wide cancellation ([`Budget::cancel_all`]) is sticky and
/// reaches **every** handle of the pool — including one shared after
/// the cancel — under every bounded interleaving; the recorded cause
/// survives to each observer. This is the request-scoped kill switch
/// the serving daemon relies on to reap stalled members ([`FaultMode::
/// Stall`] polls it charge-free), so its monotonicity is
/// deadline-critical.
#[test]
fn model_cancel_all_is_sticky_across_all_handles() {
    let report = explore(&Config::exhaustive(2, 200_000), || {
        let pool = Budget::with_ticks(100);
        let member = pool.share_labeled("member");
        thread::scope(|s| {
            s.spawn(|| {
                // A charge-free poll racing the cancel: monotone — once
                // an Err is observed, every later poll fails too.
                let first = member.poll();
                let second = member.poll();
                if first.is_err() {
                    assert!(second.is_err(), "pool cancellation must be sticky");
                }
                if let Err(e) = second {
                    assert!(
                        matches!(e, CoreError::Cancelled { .. }),
                        "pool cancel is the typed cause: {e}"
                    );
                }
            });
            s.spawn(|| {
                pool.cancel_all_with_cause("deadline");
                // The canceller observes its own kill switch at once.
                assert!(pool.is_cancelled());
            });
        });
        // Post-race: every handle — old, new, and the parent — refuses.
        assert!(member.is_cancelled() && pool.is_cancelled());
        assert!(pool.share().is_cancelled(), "later shares observe it too");
        assert!(member.poll().is_err() && member.charge(1).is_err());
        assert_eq!(member.cancel_cause(), Some("deadline"));
        assert!(!pool.is_exhausted(), "cancelled, not drained");
    });
    assert_clean_exhaustive(&report);
}

// -------------------------------------------------------------------
// Epoch snapshot cell
// -------------------------------------------------------------------

/// The epoch publication protocol in its smallest nontrivial
/// configuration, exhaustively: one writer publishing one new epoch
/// against one reader snapshotting twice. In every bounded
/// interleaving each snapshot guard holds an untorn pair whose payload
/// matches its epoch number, and the epoch never runs backwards across
/// the reader's consecutive guards.
#[test]
fn model_epoch_snapshot_never_torn_exhaustive() {
    let report = explore(&Config::exhaustive(2, 500_000), || {
        let cell = Arc::new(EpochCell::new((1u64, 1u64)));
        thread::scope(|s| {
            {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    cell.publish((2, 2));
                });
            }
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                let first = cell.snapshot();
                let second = cell.snapshot();
                for snap in [&first, &second] {
                    let (a, b) = **snap;
                    assert_eq!(a, b, "torn epoch payload");
                    assert_eq!(
                        snap.epoch(),
                        a,
                        "guard's epoch must match its payload's epoch"
                    );
                }
                assert!(second.epoch() >= first.epoch(), "epoch ran backwards");
            });
        });
        assert_eq!(cell.epoch(), 2);
        assert_eq!(*cell.snapshot(), (2, 2));
    });
    assert_clean_exhaustive(&report);
}

/// The same invariant under deeper schedules: a writer lapping both
/// slots (three publishes) while two readers hold, re-take, and compare
/// guards. A guard taken earlier is *retired* by later publishes — its
/// payload must stay intact (no reclaim-while-referenced) even after
/// the writer has recycled the slot it originally lived in. Random
/// walks with preemptions: a publish is ~10 scheduling points, too deep
/// for exhaustive DFS at this thread count.
#[test]
fn model_epoch_retired_guard_stays_intact() {
    let report = explore(&Config::random(0xE90C_4A11, iters(40), 2), || {
        let cell = Arc::new(EpochCell::new((1u64, 1u64)));
        thread::scope(|s| {
            {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for k in 2..=4u64 {
                        cell.publish((k, k));
                    }
                });
            }
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    // Hold a guard across the writer's slot recycling…
                    let held = cell.snapshot();
                    let held_pair = *held;
                    // …take a fresh one (epoch monotone)…
                    let fresh = cell.snapshot();
                    assert!(fresh.epoch() >= held.epoch());
                    let (a, b) = *fresh;
                    assert_eq!(a, b, "torn epoch payload");
                    assert_eq!(fresh.epoch(), a);
                    // …and the retired guard still reads exactly what
                    // it pinned, bit for bit.
                    assert_eq!(*held, held_pair);
                    assert_eq!(held.epoch(), held_pair.0);
                });
            }
        });
        assert_eq!(cell.epoch(), 4);
        assert_eq!(*cell.snapshot(), (4, 4));
    });
    assert_clean_random(&report);
}

// -------------------------------------------------------------------
// Racing portfolio protocol
// -------------------------------------------------------------------

/// The paper's Fig. 1 database under `Q4` with one deletion — the same
/// instance `tests/racing.rs` stresses natively.
fn fig1_problem() -> Problem {
    let schema = Schema::from_relations([
        RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    for t in [
        tup!["Joe", "TKDE"],
        tup!["John", "TKDE"],
        tup!["Tom", "TKDE"],
        tup!["John", "TODS"],
    ] {
        db.insert("T1", t).unwrap();
    }
    for t in [
        tup!["TKDE", "XML", 30],
        tup!["TKDE", "CUBE", 30],
        tup!["TODS", "XML", 30],
    ] {
        db.insert("T2", t).unwrap();
    }
    let q = parse_query("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
        .unwrap()
        .bind(db.schema())
        .unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
    p
}

/// `solve_racing` end to end under the scheduler: in every explored
/// interleaving of the real member threads there is exactly one winner,
/// its solution is verified-feasible, every non-winner is in a terminal
/// state (verified, cancelled, skipped, or a typed failure — never
/// left hanging), and the caller's own budget handle survives the race
/// uncancelled. Random walks: a full portfolio run is thousands of
/// scheduling points.
#[test]
fn model_racing_has_one_winner_and_losers_terminate() {
    let problem = fig1_problem();
    // Pre-materialize the compile cache: under the model only
    // instrumented operations are preemption points, and the OnceLock
    // inside `Problem::compiled` must not be initialized concurrently
    // with member threads blocked on it (solve_racing compiles before
    // spawning anyway; this just keeps every schedule identical).
    let expected_cost = Portfolio::standard()
        .solve(&problem, &Budget::unlimited())
        .expect("sequential baseline solves")
        .cost;
    let report = explore(&Config::random(0x0DDBA11, iters(8), 2), || {
        let budget = Budget::unlimited();
        let outcome = Portfolio::standard()
            .solve_racing(&problem, &budget)
            .expect("racing with an unlimited budget must verify a winner");
        assert!(outcome.solution.is_feasible(&problem));
        assert_eq!(
            outcome.cost, expected_cost,
            "racing must match the sequential verified cost"
        );
        // Exactly one winner, and it is one of the verified members.
        let verified: Vec<_> = outcome
            .report
            .iter()
            .filter(|r| r.status.is_verified())
            .collect();
        assert!(
            verified.iter().any(|r| r.name == outcome.winner),
            "winner {} must be a verified member",
            outcome.winner
        );
        // Every member reached a terminal state; a racing loser is
        // Cancelled (or Verified-but-costlier), never stuck or silently
        // dropped.
        for r in &outcome.report {
            assert!(
                matches!(
                    r.status,
                    MemberStatus::Skipped
                        | MemberStatus::Verified { .. }
                        | MemberStatus::Cancelled
                        | MemberStatus::RejectedInfeasible
                        | MemberStatus::RejectedVerification { .. }
                        | MemberStatus::Failed { .. }
                ),
                "non-terminal member state {:?} for {}",
                r.status,
                r.name
            );
        }
        // The race never cancels or exhausts the caller's handle.
        assert!(!budget.is_cancelled());
        assert!(!budget.is_exhausted());
        budget.charge(1).expect("caller budget survives the race");
    });
    assert_clean_random(&report);
}

/// The dominance-cancellation protocol in isolation: N equal-strength
/// "members" race to verify; whoever verifies cancels the others. Under
/// every bounded interleaving at least one member completes uncancelled
/// and every cancelled member stops at its next checkpoint with the
/// winner recorded as its cause.
#[test]
fn model_dominance_cancellation_protocol() {
    const NAMES: [&str; 2] = ["alpha", "beta"];
    let report = explore(&Config::exhaustive(2, 500_000), || {
        let pool = Budget::unlimited();
        let handles: Vec<Budget> = NAMES.iter().map(|n| pool.share_labeled(n)).collect();
        let finished = thread::scope(|s| {
            let joins: Vec<_> = NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let handles = &handles;
                    s.spawn(move || {
                        // "Work": one checkpoint. A cancelled member
                        // observes the token here and unwinds.
                        if handles[i].checkpoint().is_err() {
                            return false;
                        }
                        // "Verified": release everyone else.
                        for (j, h) in handles.iter().enumerate() {
                            if j != i {
                                h.cancel_with_cause(name);
                            }
                        }
                        true
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect::<Vec<bool>>()
        });
        // At least one member verifies: the first to pass its checkpoint
        // cannot have been cancelled before any cancel existed.
        assert!(
            finished.iter().any(|&f| f),
            "someone must win the race: {finished:?}"
        );
        for (i, &won) in finished.iter().enumerate() {
            if !won {
                // A loser was cancelled by a real winner, and the cause
                // names that winner.
                let cause = handles[i].cancel_cause().expect("loser has a cause");
                let winner = NAMES.iter().position(|&n| n == cause).unwrap();
                assert!(finished[winner], "cause {cause} must have verified");
                assert!(handles[i].is_cancelled());
            }
        }
        assert!(
            !pool.is_cancelled(),
            "the caller's handle is never cancelled"
        );
    });
    assert_clean_exhaustive(&report);
}

// -------------------------------------------------------------------
// Shard scheduler (DESIGN.md §15)
// -------------------------------------------------------------------

/// The whole scheduler end to end under the model scheduler: under
/// **every** bounded interleaving each task runs exactly once, each
/// result is collected exactly once (in task order), each worker builds
/// its state at most once, and `run_tasks` returns only after all of
/// them (the scope join is the completion barrier).
#[test]
fn model_run_tasks_executes_each_task_exactly_once() {
    use delprop_core::runtime::sync::{AtomicUsize, Ordering};
    use delprop_core::shard::run_tasks;
    const TASKS: usize = 3;
    let report = explore(&Config::exhaustive(2, 10_000), || {
        let runs: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let inits = AtomicUsize::new(0);
        let results = run_tasks(
            TASKS,
            2,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, t| {
                runs[t].fetch_add(1, Ordering::Relaxed);
                t
            },
        );
        for (t, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "task {t} run count");
        }
        assert_eq!(results, [0, 1, 2], "each result collected once");
        assert!(inits.load(Ordering::Relaxed) <= 2, "one state per worker");
    });
    assert_clean_exhaustive(&report);
}
