//! Cooperative solver budgets.
//!
//! A [`Budget`] bounds solver work two ways at once:
//!
//! - a **deterministic work-tick counter**: solvers charge ticks at
//!   well-defined checkpoints (branch-and-bound node expansions, simplex
//!   pivots, local-search move trials), so a tick limit reproduces
//!   exactly across runs and machines;
//! - an optional **wall-clock deadline**, checked only at checkpoint
//!   granularity (cooperatively — nothing is interrupted mid-pivot).
//!
//! Budgets are shared down a whole portfolio run: every member draws
//! from the same pool, so a member that burns the pool leaves less for
//! the fallbacks — which is exactly the semantics a latency-bound caller
//! wants. Sharing is explicit: [`Budget::share`] hands out another
//! handle on the **same** pool (the handle carries its own local
//! tick meter and its own cancellation flag). `Budget` deliberately does
//! not implement `Clone` — a clone would be ambiguous between "same
//! pool" and "forked pool", and a silently forked pool doubles the
//! budget:
//!
//! ```compile_fail
//! use delprop_core::runtime::Budget;
//! let b = Budget::with_ticks(100);
//! let _forked = b.clone(); // does not compile: use `b.share()`
//! ```
//!
//! Handles are `Send + Sync`, so racing portfolio members on separate
//! threads can each hold a share of one pool; a charge on any handle is
//! visible to all of them. The pool's tick count, clock-check schedule
//! and exhaustion flag sit under one `Mutex`, so a charge admits or
//! refuses its ticks in one critical section. Each handle also carries a
//! **cooperative cancellation token**: [`Budget::cancel`] makes every
//! later checkpoint on that handle fail with [`CoreError::Cancelled`],
//! which is how a racing run tells the losing members to unwind at their
//! next checkpoint ([`Budget::cancel_with_cause`] additionally records
//! *who* requested the cancellation, so traces can name the winner).
//!
//! The pool can also carry a [`TraceSink`] ([`Budget::with_sink`]):
//! every handle then reports batched tick checkpoints, spans, and
//! events into it — tracing rides the existing budget threading, with
//! no global state, and costs a single `Option` check when off.

use super::metrics;
use super::trace::{self, Kind, Phase, Span, TraceEvent, TraceSink};
use crate::error::CoreError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The runtime's only wall-clock read. Everything in `delprop-core`
/// that needs "now" — deadlines here, span and member timings in
/// `trace.rs`/`portfolio.rs`, the IR compile histogram — goes through
/// this one choke point, and `cargo run -p delprop-analyzer -- lint`
/// forbids `Instant::now` anywhere else in the crate. One sanctioned call site
/// keeps wall-clock out of solver logic (work ticks stay the only
/// determinism-relevant meter) and gives a future virtual clock a
/// single seam. Public (re-exported as `runtime::now`) so downstream
/// crates with legitimate wall-clock needs — the serving daemon's
/// deadline arithmetic, request latency metering — ride the same seam
/// instead of growing their own `Instant::now` call sites.
pub fn now() -> Instant {
    Instant::now()
}

/// How many ticks may elapse between wall-clock checks. Checking
/// `Instant::now()` at every tick would dominate tight checkpoint loops.
const DEADLINE_CHECK_EVERY: u64 = 1024;

/// Granularity of per-handle tick trace events and of the
/// `budget.ticks` metric: one batched record per this many local ticks.
const TRACE_TICK_BATCH: u64 = 1024;

/// How many charge-free [`Budget::poll`]s may elapse between wall-clock
/// checks on a deadline pool. Polls draw nothing from the pool, so they
/// can afford a tighter clock cadence.
const POLL_DEADLINE_CHECK_EVERY: u64 = 64;

/// The shared pool behind one or more [`Budget`] handles.
struct Pool {
    state: Mutex<PoolState>,
    limit: Option<u64>,
    deadline: Option<Instant>,
    /// Pool-wide cooperative cancellation: set by [`Budget::cancel_all`]
    /// on any handle, observed by every handle's checkpoints. This is
    /// the request-scoped kill switch the serving layer pulls on client
    /// disconnect or daemon shutdown — per-handle [`Budget::cancel`]
    /// only stops one member.
    cancelled: AtomicBool,
    /// Who asked for the pool-wide cancellation; set at most once.
    cancel_cause: OnceLock<&'static str>,
    /// Optional trace sink shared by every handle on this pool.
    sink: Option<Arc<dyn TraceSink>>,
}

/// What a charge reads and writes, all under the pool's one lock.
#[derive(Debug)]
struct PoolState {
    /// Ticks admitted so far, across all handles; never above the limit.
    used: u64,
    /// The `used` value at or past which the next charge reads the clock.
    next_deadline_check: u64,
    /// Sticky: once a checkpoint has failed, every later charge fails.
    exhausted: bool,
}

impl PoolState {
    /// Admit `n` ticks unless the pool is exhausted, they overrun
    /// `limit`, or — when a clock check is due — `deadline` has passed.
    /// A refusal leaves `used` untouched.
    fn admit(&mut self, n: u64, limit: Option<u64>, deadline: Option<Instant>) -> bool {
        let next = self.used.saturating_add(n);
        if self.exhausted || limit.is_some_and(|limit| next > limit) {
            return false;
        }
        if let Some(deadline) = deadline {
            if next >= self.next_deadline_check {
                self.next_deadline_check = next.saturating_add(DEADLINE_CHECK_EVERY);
                if now() >= deadline {
                    return false;
                }
            }
        }
        self.used = next;
        true
    }

    /// Set the sticky exhaustion flag. Returns whether this call set it,
    /// and the ticks used.
    fn exhaust(&mut self) -> (bool, u64) {
        (!std::mem::replace(&mut self.exhausted, true), self.used)
    }
}

impl Pool {
    fn new(limit: Option<u64>) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                used: 0,
                next_deadline_check: 0,
                exhausted: false,
            }),
            limit,
            deadline: None,
            cancelled: AtomicBool::new(false),
            cancel_cause: OnceLock::new(),
            sink: None,
        }
    }

    /// The critical sections never panic, so a poisoned lock still
    /// holds a consistent state.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("state", &*self.lock())
            .field("limit", &self.limit)
            .field("deadline", &self.deadline)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

/// A cooperative work budget (tick counter + optional deadline).
///
/// One handle onto a shared pool. [`Budget::share`] creates more
/// handles on the same pool; there is intentionally no `Clone`.
#[derive(Debug)]
pub struct Budget {
    pool: Arc<Pool>,
    /// Ticks charged successfully *through this handle* — the
    /// per-member meter the portfolio reports even when many handles
    /// race on one pool.
    local_used: AtomicU64,
    /// Cooperative cancellation token, per handle: set by
    /// [`Budget::cancel`], observed by every later [`Budget::charge`].
    cancelled: AtomicBool,
    /// Trace attribution for events recorded through this handle; set
    /// by [`Budget::share_labeled`] (the racing portfolio labels each
    /// member's handle with the member name).
    label: &'static str,
    /// Who asked for the cancellation (the winning member's name on the
    /// racing path); set at most once by [`Budget::cancel_with_cause`].
    cancel_cause: OnceLock<&'static str>,
    /// Charge-free [`Budget::poll`] calls through this handle — a
    /// per-handle rate limiter for the poll-path clock reads.
    polls: AtomicU64,
}

impl Budget {
    fn from_pool(pool: Pool) -> Self {
        Budget {
            pool: Arc::new(pool),
            local_used: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            label: "",
            cancel_cause: OnceLock::new(),
            polls: AtomicU64::new(0),
        }
    }

    /// No limits: checkpoints never fail (unless [`cancel`led](Budget::cancel)).
    pub fn unlimited() -> Self {
        Budget::from_pool(Pool::new(None))
    }

    /// A deterministic tick limit and no deadline.
    pub fn with_ticks(limit: u64) -> Self {
        Budget::from_pool(Pool::new(Some(limit)))
    }

    /// Add a wall-clock deadline `timeout` from now. Combines with any
    /// tick limit: whichever fires first exhausts the budget. A timeout
    /// too large for any [`Instant`] to represent (such as
    /// [`Duration::MAX`]) sets no deadline.
    ///
    /// Call this before [`Budget::share`]: it requires sole ownership of
    /// the pool and panics if other handles already exist.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        let pool = Arc::get_mut(&mut self.pool)
            .expect("Budget::with_deadline must be called before Budget::share");
        pool.deadline = now().checked_add(timeout);
        self
    }

    /// Attach a [`TraceSink`] to the pool: every handle (this one and
    /// all later [`Budget::share`]s) records batched tick checkpoints,
    /// spans, and events into it.
    ///
    /// Call this before [`Budget::share`]: it requires sole ownership of
    /// the pool and panics if other handles already exist.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        let pool = Arc::get_mut(&mut self.pool)
            .expect("Budget::with_sink must be called before Budget::share");
        pool.sink = Some(sink);
        self
    }

    /// Another handle on the **same** pool: charges through either
    /// handle draw down one shared tick limit. The new handle starts
    /// with a fresh local meter ([`Budget::own_used`] of 0), its own,
    /// un-set cancellation token, and the parent's trace label.
    pub fn share(&self) -> Budget {
        self.share_labeled(self.label)
    }

    /// [`Budget::share`] with a trace attribution label: events recorded
    /// through the new handle carry `label` as their member name. The
    /// racing portfolio labels each member's handle this way so span
    /// trees separate cleanly per member.
    pub fn share_labeled(&self, label: &'static str) -> Budget {
        Budget {
            pool: Arc::clone(&self.pool),
            local_used: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            label,
            cancel_cause: OnceLock::new(),
            polls: AtomicU64::new(0),
        }
    }

    /// Ticks charged so far on the shared pool (across all handles).
    pub fn used(&self) -> u64 {
        self.pool.lock().used
    }

    /// Ticks charged successfully through *this handle* only. Equal to
    /// [`Budget::used`] when the pool has a single handle; under racing
    /// this is the per-member share of the pool.
    pub fn own_used(&self) -> u64 {
        // Ordering: Relaxed — a plain counter; no other memory is published through it.
        self.local_used.load(Ordering::Relaxed)
    }

    /// Remaining ticks under the tick limit (`u64::MAX` when unlimited).
    pub fn remaining(&self) -> u64 {
        match self.pool.limit {
            Some(l) => l.saturating_sub(self.used()),
            None => u64::MAX,
        }
    }

    /// Whether a checkpoint has already failed on this pool.
    pub fn is_exhausted(&self) -> bool {
        self.pool.lock().exhausted
    }

    /// Cooperatively cancel **this handle**: every later charge on it
    /// fails with [`CoreError::Cancelled`]. Other handles on the same
    /// pool are unaffected — this is per-member, not pool-wide.
    pub fn cancel(&self) {
        // Ordering: Release — publishes the `cancel_cause` set before it to `is_cancelled`'s Acquire.
        if !self.cancelled.swap(true, Ordering::Release) {
            metrics::CANCELLATIONS.inc();
        }
    }

    /// [`Budget::cancel`] plus attribution: records `cause` (the
    /// cancelling member's name, on the racing path) so the unwinding
    /// side can report *why* it was stopped. The first cause sticks;
    /// later calls only cancel.
    pub fn cancel_with_cause(&self, cause: &'static str) {
        let _ = self.cancel_cause.set(cause);
        self.cancel();
    }

    /// Cooperatively cancel **every handle on this pool**: all later
    /// checkpoints — through this handle, its siblings, and any future
    /// [`Budget::share`] — fail with [`CoreError::Cancelled`]. This is
    /// the request-scoped kill switch: the serving daemon pulls it when
    /// a client disconnects or the process shuts down, stopping a whole
    /// racing portfolio at once where [`Budget::cancel`] would stop only
    /// one member's handle.
    pub fn cancel_all(&self) {
        // Ordering: Release — same sticky, publish-only flag as the per-handle token.
        if !self.pool.cancelled.swap(true, Ordering::Release) {
            metrics::CANCELLATIONS.inc();
            self.trace(Phase::Cancel, Kind::Event, "cancel_all", self.used());
        }
    }

    /// [`Budget::cancel_all`] plus attribution (see
    /// [`Budget::cancel_with_cause`]); the first cause sticks.
    pub fn cancel_all_with_cause(&self, cause: &'static str) {
        let _ = self.pool.cancel_cause.set(cause);
        self.cancel_all();
    }

    /// Whether [`Budget::cancel`] has been called on this handle, or
    /// [`Budget::cancel_all`] on any handle of the pool.
    pub fn is_cancelled(&self) -> bool {
        // Ordering: Acquire, pairing with the Release swaps in `cancel` and `cancel_all`.
        self.cancelled.load(Ordering::Acquire) || self.pool.cancelled.load(Ordering::Acquire)
    }

    /// The cause recorded by [`Budget::cancel_with_cause`] on this
    /// handle, falling back to the pool-wide cause recorded by
    /// [`Budget::cancel_all_with_cause`], if any.
    pub fn cancel_cause(&self) -> Option<&'static str> {
        self.cancel_cause
            .get()
            .or_else(|| self.pool.cancel_cause.get())
            .copied()
    }

    /// Charge `n` work ticks. Fails with [`CoreError::BudgetExhausted`]
    /// once the tick limit is crossed or the deadline has passed, and
    /// with [`CoreError::Cancelled`] once this handle is cancelled; once
    /// failed, every later call fails too. A refused charge does **not**
    /// move the pool counter: `used()` never exceeds the tick limit.
    pub fn charge(&self, n: u64) -> Result<(), CoreError> {
        if self.is_cancelled() {
            return Err(self.error());
        }
        let pool = &*self.pool;
        // One critical section admits or refuses; metrics and the trace
        // sink run after the guard drops.
        let refusal = {
            let mut state = pool.lock();
            if state.admit(n, pool.limit, pool.deadline) {
                None
            } else {
                Some(state.exhaust())
            }
        };
        if let Some((first, used)) = refusal {
            return Err(self.refused(first, used));
        }
        // Ordering: Relaxed — a plain counter; no other memory is published through it.
        let local_prev = self.local_used.fetch_add(n, Ordering::Relaxed);
        if pool.sink.is_some()
            && local_prev / TRACE_TICK_BATCH != (local_prev + n) / TRACE_TICK_BATCH
        {
            // Batched checkpoint record: one event per TRACE_TICK_BATCH
            // local ticks, carrying the cumulative local count — cheap
            // enough for pivot/node-expansion loops, dense enough to see
            // where a member's ticks went.
            metrics::BUDGET_TICKS.add(TRACE_TICK_BATCH);
            self.trace(Phase::Budget, Kind::Count, "", local_prev + n);
        }
        Ok(())
    }

    /// The error of a refused checkpoint, counting and tracing the first
    /// exhaustion only. Exhaustion wins over cancellation.
    fn refused(&self, first: bool, used: u64) -> CoreError {
        if first {
            metrics::BUDGET_EXHAUSTIONS.inc();
            self.trace(Phase::Budget, Kind::Event, "exhausted", used);
        }
        CoreError::BudgetExhausted { ticks: used }
    }

    /// Charge a single tick — the common checkpoint call.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        self.charge(1)
    }

    /// A **charge-free** checkpoint: observe cancellation (handle and
    /// pool-wide), sticky exhaustion, and the wall-clock deadline
    /// without drawing down the tick pool. For wait loops that do no
    /// work — a stalled member spinning, the daemon parking a request —
    /// where charging would either drain the shared pool at CPU speed
    /// or (under an unlimited pool) never observe the deadline at all.
    ///
    /// The clock is read only every `POLL_DEADLINE_CHECK_EVERY` calls
    /// per handle, so polling stays cheap in tight loops.
    pub fn poll(&self) -> Result<(), CoreError> {
        if self.is_cancelled() || self.is_exhausted() {
            return Err(self.error());
        }
        if let Some(deadline) = self.pool.deadline {
            // Ordering: Relaxed — a per-handle rate limiter; a stale count moves one clock read.
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(POLL_DEADLINE_CHECK_EVERY) && now() >= deadline {
                // Nothing was charged; just trip the sticky flag.
                let (first, used) = self.pool.lock().exhaust();
                return Err(self.refused(first, used));
            }
        }
        Ok(())
    }

    /// The error a failing checkpoint returns: [`CoreError::Cancelled`]
    /// when this handle was cancelled (and the pool still has budget),
    /// otherwise [`CoreError::BudgetExhausted`].
    pub fn error(&self) -> CoreError {
        let (used, exhausted) = {
            let state = self.pool.lock();
            (state.used, state.exhausted)
        };
        if self.is_cancelled() && !exhausted {
            CoreError::Cancelled { ticks: used }
        } else {
            CoreError::BudgetExhausted { ticks: used }
        }
    }

    /// A `FnMut(u64) -> bool` view of this budget for the lower-layer
    /// solvers (`delprop_setcover::exact::solve_with_ticker`,
    /// `delprop_lp::solve_with_ticker`) that take a plain callback:
    /// returns `false` once the budget is exhausted or the handle is
    /// cancelled.
    pub fn ticker(&self) -> impl FnMut(u64) -> bool + '_ {
        move |n| self.charge(n).is_ok()
    }

    // --- Tracing ---------------------------------------------------------

    /// Whether a [`TraceSink`] is attached to this handle's pool.
    pub fn has_sink(&self) -> bool {
        self.pool.sink.is_some()
    }

    /// This handle's trace attribution label (empty unless created by
    /// [`Budget::share_labeled`]).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Record one trace event attributed to this handle's label. A
    /// single `Option` check — and nothing else — when no sink is
    /// attached.
    pub fn trace(&self, phase: Phase, kind: Kind, detail: &'static str, value: u64) {
        self.trace_as(self.label, phase, kind, detail, value);
    }

    /// [`Budget::trace`] with an explicit member attribution (used by
    /// spans that out-live or pre-date the labelled handle).
    pub(crate) fn trace_as(
        &self,
        member: &'static str,
        phase: Phase,
        kind: Kind,
        detail: &'static str,
        value: u64,
    ) {
        if let Some(sink) = &self.pool.sink {
            sink.record(TraceEvent {
                seq: 0,
                micros: 0,
                thread: trace::thread_id(),
                phase,
                kind,
                member: if member.is_empty() {
                    self.label
                } else {
                    member
                },
                detail,
                value,
            });
        }
    }

    /// Open a [`Span`] (start event now, end event with elapsed µs on
    /// drop). `member` overrides the handle label when non-empty. Inert
    /// when no sink is attached.
    pub fn span(&self, phase: Phase, member: &'static str) -> Span<'_> {
        Span::new(
            self,
            phase,
            if member.is_empty() {
                self.label
            } else {
                member
            },
        )
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.checkpoint().unwrap();
        }
        assert_eq!(b.used(), 10_000);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn tick_limit_fires_deterministically() {
        let b = Budget::with_ticks(5);
        for _ in 0..5 {
            b.checkpoint().unwrap();
        }
        let err = b.checkpoint().unwrap_err();
        // The refused sixth tick is not recorded: `used` clamps at the
        // limit, so the error reports the work that actually ran.
        assert_eq!(err, CoreError::BudgetExhausted { ticks: 5 });
        assert_eq!(b.used(), 5);
        assert!(b.is_exhausted());
        // Sticky: later calls keep failing.
        assert!(b.charge(0).is_err());
    }

    #[test]
    fn refused_charge_does_not_inflate_used() {
        let b = Budget::with_ticks(10);
        b.charge(8).unwrap();
        assert!(b.charge(5).is_err()); // 13 > 10: refused
        assert_eq!(b.used(), 8, "refusal must not move the counter");
        assert_eq!(b.remaining(), 2);
        // Sticky exhaustion: even a fitting charge now fails, and still
        // does not move the counter.
        assert!(b.charge(1).is_err());
        assert_eq!(b.used(), 8);
    }

    #[test]
    fn remaining_counts_down() {
        let b = Budget::with_ticks(10);
        assert_eq!(b.remaining(), 10);
        b.charge(4).unwrap();
        assert_eq!(b.remaining(), 6);
        assert_eq!(Budget::unlimited().remaining(), u64::MAX);
    }

    #[test]
    fn expired_deadline_fails_at_first_check() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(0));
        let err = b.checkpoint().unwrap_err();
        // Deadline-only exhaustion reports 0 ticks: the rolled-back
        // checkpoint never ran.
        assert_eq!(err, CoreError::BudgetExhausted { ticks: 0 });
        assert!(b.is_exhausted());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let b = Budget::with_ticks(1_000_000).with_deadline(Duration::from_secs(3600));
        for _ in 0..5_000 {
            b.checkpoint().unwrap();
        }
    }

    #[test]
    fn ticker_reports_exhaustion_as_false() {
        let b = Budget::with_ticks(100);
        {
            let mut tick = b.ticker();
            assert!(tick(64));
            assert!(!tick(64)); // 64 + 64 > 100: refused
        }
        assert!(b.is_exhausted());
        assert_eq!(b.used(), 64, "the refused 64 must not be recorded");
    }

    #[test]
    fn share_draws_from_the_same_pool() {
        let a = Budget::with_ticks(10);
        let b = a.share();
        a.charge(4).unwrap();
        b.charge(4).unwrap();
        assert_eq!(a.used(), 8);
        assert_eq!(b.used(), 8);
        assert_eq!(a.remaining(), 2);
        // The pool is shared, not forked: a third charge that fits the
        // local view but not the pool fails on either handle.
        assert!(b.charge(3).is_err());
        assert!(a.is_exhausted() && b.is_exhausted());
    }

    #[test]
    fn share_meters_locally() {
        let a = Budget::with_ticks(100);
        let b = a.share();
        a.charge(30).unwrap();
        b.charge(20).unwrap();
        assert_eq!(a.own_used(), 30);
        assert_eq!(b.own_used(), 20);
        assert_eq!(a.used(), 50);
    }

    #[test]
    fn cancel_stops_checkpoints_with_typed_error() {
        let a = Budget::with_ticks(100);
        let b = a.share();
        b.charge(10).unwrap();
        b.cancel();
        let err = b.checkpoint().unwrap_err();
        assert_eq!(err, CoreError::Cancelled { ticks: 10 });
        // Cancellation is per handle: the sibling keeps running, and the
        // cancelled handle charged nothing extra.
        assert!(!a.is_cancelled());
        a.charge(10).unwrap();
        assert_eq!(a.used(), 20);
    }

    #[test]
    fn cancel_all_stops_every_handle_on_the_pool() {
        let a = Budget::with_ticks(100);
        let b = a.share_labeled("member_b");
        let c = a.share_labeled("member_c");
        b.charge(5).unwrap();
        // Pool-wide cancel through one sibling reaches them all — and
        // handles shared *after* the cancel, too.
        c.cancel_all_with_cause("deadline");
        assert!(a.is_cancelled() && b.is_cancelled() && c.is_cancelled());
        assert!(a.share().is_cancelled());
        let err = b.checkpoint().unwrap_err();
        assert_eq!(err, CoreError::Cancelled { ticks: 5 });
        assert_eq!(a.cancel_cause(), Some("deadline"));
        // A later per-handle cause still wins for that handle.
        b.cancel_with_cause("winner");
        assert_eq!(b.cancel_cause(), Some("winner"));
        assert_eq!(c.cancel_cause(), Some("deadline"));
    }

    #[test]
    fn per_handle_cancel_still_spares_siblings() {
        let a = Budget::with_ticks(100);
        let b = a.share();
        b.cancel();
        assert!(!a.is_cancelled(), "handle cancel must stay per-handle");
        a.charge(10).unwrap();
    }

    #[test]
    fn poll_is_charge_free_and_observes_cancellation() {
        let a = Budget::with_ticks(10);
        let b = a.share();
        for _ in 0..1_000 {
            b.poll().unwrap();
        }
        assert_eq!(a.used(), 0, "poll must never draw down the pool");
        a.cancel_all();
        let err = b.poll().unwrap_err();
        assert_eq!(err, CoreError::Cancelled { ticks: 0 });
    }

    #[test]
    fn poll_observes_an_expired_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(0));
        // The very first poll reads the clock (poll count 0 hits the
        // rate-limiter's check phase) and trips sticky exhaustion.
        let err = b.poll().unwrap_err();
        assert_eq!(err, CoreError::BudgetExhausted { ticks: 0 });
        assert!(b.is_exhausted());
    }

    #[test]
    fn poll_observes_sticky_exhaustion() {
        let b = Budget::with_ticks(1);
        b.poll().unwrap();
        assert!(b.charge(2).is_err());
        assert!(matches!(
            b.poll().unwrap_err(),
            CoreError::BudgetExhausted { .. }
        ));
    }

    #[test]
    fn exhaustion_wins_over_cancellation_in_error() {
        let b = Budget::with_ticks(5);
        assert!(b.charge(6).is_err());
        b.cancel();
        assert!(matches!(b.error(), CoreError::BudgetExhausted { .. }));
    }

    #[test]
    fn shared_charges_are_atomic_across_threads() {
        // Miri runs every interleaving step interpreted; shrink the
        // stress volume so the job finishes while still crossing the
        // TRACE_TICK_BATCH boundary logic.
        const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
        const PER_THREAD: u64 = if cfg!(miri) { 256 } else { 10_000 };
        let a = Budget::with_ticks(1_000_000);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let h = a.share();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        h.checkpoint().unwrap();
                    }
                    assert_eq!(h.own_used(), PER_THREAD);
                });
            }
        });
        assert_eq!(a.used(), THREADS * PER_THREAD, "no tick lost or duplicated");
        assert!(!a.is_exhausted());
    }

    /// Sum of the per-handle meters of `handles`.
    fn own_total(handles: &[Budget]) -> u64 {
        handles.iter().map(Budget::own_used).sum()
    }

    #[test]
    fn contended_charges_clamp_at_the_limit() {
        // Each thread alone could fill the pool: the limit is less than
        // half the total demand, so the threads race for the last ticks.
        const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
        const PER_THREAD: u64 = if cfg!(miri) { 64 } else { 5_000 };
        const CHARGE: u64 = 3;
        let limit = CHARGE * THREADS * PER_THREAD / 2 + 1;
        let a = Budget::with_ticks(limit);
        let handles: Vec<Budget> = (0..THREADS).map(|_| a.share()).collect();
        std::thread::scope(|s| {
            for h in &handles {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        if h.charge(CHARGE).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let used = a.used();
        assert!(used <= limit, "{used} ticks admitted past {limit}");
        assert!(used + CHARGE > limit, "refused while a charge still fit");
        assert_eq!(used, own_total(&handles), "no tick lost or duplicated");
        assert!(a.is_exhausted());
    }

    #[test]
    fn exhaustion_is_sticky_for_sibling_threads() {
        // The limit is never reached: a sibling's one-tick charges fit
        // numerically, so only the sticky flag can refuse them.
        const THREADS: usize = if cfg!(miri) { 2 } else { 4 };
        const ROUNDS: usize = if cfg!(miri) { 16 } else { 1_000 };
        const LIMIT: u64 = 1 << 40;
        let a = Budget::with_ticks(LIMIT);
        let siblings: Vec<Budget> = (0..THREADS).map(|_| a.share()).collect();
        std::thread::scope(|s| {
            for h in &siblings {
                s.spawn(move || {
                    while h.checkpoint().is_ok() {
                        std::hint::spin_loop();
                    }
                    for _ in 0..ROUNDS {
                        assert!(h.is_exhausted());
                        assert!(matches!(
                            h.checkpoint(),
                            Err(CoreError::BudgetExhausted { .. })
                        ));
                    }
                });
            }
            assert!(a.charge(LIMIT + 1).is_err());
        });
        assert!(a.used() < LIMIT);
        assert_eq!(a.used(), own_total(&siblings), "refusals admit nothing");
    }

    #[test]
    fn deadline_refusals_keep_the_meters_consistent() {
        const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
        let a = Budget::unlimited().with_deadline(Duration::from_millis(2));
        let handles: Vec<Budget> = (0..THREADS).map(|_| a.share()).collect();
        std::thread::scope(|s| {
            for h in &handles {
                // Seven ticks a charge, so clock checks fall mid-charge.
                s.spawn(move || while h.charge(7).is_ok() {});
            }
        });
        assert!(a.is_exhausted());
        assert!(a.checkpoint().is_err());
        assert_eq!(
            a.used(),
            own_total(&handles),
            "a refused charge ran nothing"
        );
    }

    #[test]
    fn cancellation_reaches_sibling_threads() {
        const THREADS: usize = if cfg!(miri) { 2 } else { 4 };
        let a = Budget::unlimited();
        let siblings: Vec<Budget> = (0..THREADS).map(|_| a.share()).collect();
        let bystander = a.share();
        siblings[0].cancel_with_cause("winner");
        std::thread::scope(|s| {
            for h in &siblings {
                s.spawn(move || {
                    while h.checkpoint().is_ok() {
                        std::hint::spin_loop();
                    }
                    // Monotone: once refused, refused for good.
                    for _ in 0..16 {
                        assert!(matches!(h.checkpoint(), Err(CoreError::Cancelled { .. })));
                    }
                });
            }
            // A per-handle cancel stops no sibling; the pool-wide one
            // stops them all.
            bystander.checkpoint().unwrap();
            a.cancel_all_with_cause("deadline");
        });
        assert_eq!(siblings[0].cancel_cause(), Some("winner"));
        assert_eq!(siblings[1].cancel_cause(), Some("deadline"));
        assert!(bystander.is_cancelled() && a.share().is_cancelled());
        assert_eq!(a.used(), own_total(&siblings) + bystander.own_used());
    }

    #[test]
    fn unrepresentable_deadline_means_none() {
        let b = Budget::with_ticks(10).with_deadline(Duration::MAX);
        b.checkpoint().unwrap();
        b.poll().unwrap();
        assert_eq!(b.used(), 1);
        assert!(!b.is_exhausted());
    }

    use super::super::trace::RingBufferSink;

    #[test]
    fn sink_records_batched_tick_events() {
        let ring = Arc::new(RingBufferSink::with_capacity(64));
        let b = Budget::with_ticks(10_000).with_sink(ring.clone());
        for _ in 0..2_050 {
            b.checkpoint().unwrap();
        }
        let ticks: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.phase == Phase::Budget && e.kind == Kind::Count)
            .collect();
        // One batched event per TRACE_TICK_BATCH crossing: at 1024, 2048.
        assert_eq!(ticks.len(), 2);
        assert_eq!(ticks[0].value, 1024);
        assert_eq!(ticks[1].value, 2048);
    }

    #[test]
    fn exhaustion_traces_once() {
        let ring = Arc::new(RingBufferSink::with_capacity(64));
        let b = Budget::with_ticks(5).with_sink(ring.clone());
        assert!(b.charge(6).is_err());
        assert!(b.charge(1).is_err());
        let exhausted: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.detail == "exhausted")
            .collect();
        assert_eq!(exhausted.len(), 1, "sticky exhaustion traces once");
        assert_eq!(exhausted[0].value, 0, "the refused charge never ran");
    }

    #[test]
    fn labels_and_cancel_cause_propagate() {
        let ring = Arc::new(RingBufferSink::with_capacity(64));
        let root = Budget::unlimited().with_sink(ring.clone());
        assert!(root.has_sink());
        let h = root.share_labeled("member_a");
        assert_eq!(h.label(), "member_a");
        assert_eq!(h.share().label(), "member_a", "plain share inherits");
        h.trace(Phase::Cancel, Kind::Event, "stopped", 7);
        h.cancel_with_cause("member_b");
        assert!(h.is_cancelled());
        assert_eq!(h.cancel_cause(), Some("member_b"));
        h.cancel_with_cause("member_c");
        assert_eq!(h.cancel_cause(), Some("member_b"), "first cause sticks");
        assert!(ring
            .snapshot()
            .iter()
            .any(|e| e.member == "member_a" && e.detail == "stopped" && e.value == 7));
    }

    #[test]
    fn spans_record_start_and_end() {
        let ring = Arc::new(RingBufferSink::with_capacity(64));
        let b = Budget::unlimited().with_sink(ring.clone());
        let span = b.span(Phase::Simplex, "lp");
        span.end_with("done");
        // Without a sink a span is inert and must not record anywhere.
        Budget::unlimited()
            .span(Phase::Verify, "x")
            .end_with("drop");
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, Kind::SpanStart);
        assert_eq!(evs[0].member, "lp");
        assert_eq!(evs[1].kind, Kind::SpanEnd);
        assert_eq!(evs[1].detail, "done");
    }
}
