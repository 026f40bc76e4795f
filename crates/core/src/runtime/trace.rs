//! Zero-dependency, thread-safe tracing for the solver runtime.
//!
//! The portfolio races ten solvers on a shared atomic [`Budget`]; when a
//! member loses, stalls, or regresses, the final `MemberReport` alone
//! does not explain *where* the ticks went. This module adds a
//! [`TraceSink`] trait with two built-in implementations —
//! [`NoopSink`] (the default: tracing off, zero overhead) and
//! [`RingBufferSink`] (a mutex-guarded, overwrite-on-wrap ring) — plus
//! the [`TraceEvent`] record, the [`Span`] guard, and a JSONL exporter
//! for `artifacts/TRACE_*.jsonl` dumps.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies.** The workspace builds `--offline` with an
//!    empty registry; everything here is `std`.
//! 2. **Off means off.** A budget without a sink never constructs an
//!    event: every trace call starts with one `Option` check on the
//!    shared pool. The EX-OBS experiment holds the ring-buffer sink to
//!    <3% overhead on EX-P1 and the no-op sink to ~0%.
//! 3. **Never block a solver for long.** A record holds the lock for
//!    one push: stamp, count, evict the oldest event if the ring is
//!    full, append. A solve emits a few dozen events, so the lock is
//!    almost never contended.
//!
//! Events are attributed to a *member* (the portfolio member name, or a
//! component name like `"ir"`), carry a [`Phase`] mapping onto the
//! paper's algorithm phases (compile, simplex pivots for the Algorithm 3
//! LP, branch-and-bound nodes for the exact baseline, local-search
//! rounds, verification, cancellation), and a monotone per-sink `seq`
//! that makes the interleaving reconstructible after the fact.

use super::budget::{self, Budget};
use super::sync::{AtomicU64, Ordering};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Which runtime phase an event belongs to.
///
/// The variants mirror the paper's moving parts: `Compile` is the IR
/// build (DESIGN.md §9), `Simplex` batches pivots inside the
/// Algorithm 3 LP relaxation, `BranchBound` batches node expansions in
/// the exact baseline, `LocalSearch` counts improvement rounds,
/// `Verify` is the mandatory re-evaluation gate, and `Cancel` marks a
/// racing member being stopped by a stronger verified winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// IR compilation (`Problem` → `CompiledInstance`).
    Compile,
    /// A portfolio member's whole run (solve + verify).
    Member,
    /// Simplex pivot batches inside the LP rounding solver.
    Simplex,
    /// Branch-and-bound node expansion batches in the exact solver.
    BranchBound,
    /// Local-search improvement rounds.
    LocalSearch,
    /// Feasibility + re-evaluation verification of a candidate.
    Verify,
    /// Cooperative cancellation of a racing member.
    Cancel,
    /// Budget checkpoint batches (one event per `TRACE_TICK_BATCH`
    /// ticks charged on a handle).
    Budget,
    /// Racing-level bookkeeping (winner announcement).
    Race,
}

impl Phase {
    /// Stable lowercase name used by the JSONL exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Member => "member",
            Phase::Simplex => "simplex",
            Phase::BranchBound => "branch_bound",
            Phase::LocalSearch => "local_search",
            Phase::Verify => "verify",
            Phase::Cancel => "cancel",
            Phase::Budget => "budget",
            Phase::Race => "race",
        }
    }
}

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// A span opened (matched by a later `SpanEnd` with the same
    /// phase + member on the same thread).
    SpanStart,
    /// A span closed; `value` is the span's wall-clock microseconds.
    SpanEnd,
    /// A point event.
    Event,
    /// A batched counter increment; `value` is the delta.
    Count,
}

impl Kind {
    /// Stable lowercase name used by the JSONL exporter.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpanStart => "span_start",
            Kind::SpanEnd => "span_end",
            Kind::Event => "event",
            Kind::Count => "count",
        }
    }
}

/// One trace record: plain `Copy` data with `&'static str` labels, so
/// the ring stores it by value and recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Monotone per-sink sequence number (stamped by the sink).
    pub seq: u64,
    /// Microseconds since the sink was created (stamped by the sink).
    pub micros: u64,
    /// Small dense id of the recording thread (see [`thread_id`]).
    pub thread: u64,
    /// Runtime phase.
    pub phase: Phase,
    /// Record kind.
    pub kind: Kind,
    /// Attribution: portfolio member name or component label.
    pub member: &'static str,
    /// Free-form detail: outcome label, winner name, etc.
    pub detail: &'static str,
    /// Kind-specific payload: span µs, count delta, or 0.
    pub value: u64,
}

/// Dense per-thread id, assigned on first use, starting at 1.
///
/// `std::thread::ThreadId` has no stable integer accessor; this gives
/// traces a small, readable thread key instead.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // Ordering: Relaxed — a pure id allocator: each thread needs a
        // distinct value, and no other memory is published through it.
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// A place trace events go. Implementations must be cheap and must
/// never block the recording thread for long.
///
/// The sink is attached to a [`Budget`]'s shared pool with
/// [`Budget::with_sink`], so every handle created by `share()` — and
/// therefore every racing member thread — reports into the same sink
/// without any global state.
pub trait TraceSink: Send + Sync {
    /// Record one event. The sink stamps `seq` and `micros`; the caller
    /// fills everything else.
    fn record(&self, ev: TraceEvent);
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _ev: TraceEvent) {}
}

/// The ring's state: the record count and the surviving events, oldest
/// first. `events` never grows past the sink's capacity.
struct Ring {
    recorded: u64,
    events: VecDeque<TraceEvent>,
}

/// Multi-producer ring buffer that keeps the most recent `capacity`
/// events, overwriting the oldest on wrap-around.
///
/// One `Mutex` guards the ring. A record stamps `seq` and `micros`
/// under the lock, so `seq` order is arrival order, `micros` never
/// decreases along it, and no event is ever lost except by eviction.
/// A poisoned lock is recovered with `into_inner`, as in the epoch
/// cell: a trace sink must never turn into a panic of its caller.
pub struct RingBufferSink {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl Default for RingBufferSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RingBufferSink {
    /// Default capacity: 16384 events (~1.1 MiB).
    pub fn new() -> Self {
        Self::with_capacity(1 << 14)
    }

    /// A ring holding the most recent `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferSink {
            epoch: budget::now(),
            capacity,
            ring: Mutex::new(Ring {
                recorded: 0,
                events: VecDeque::with_capacity(capacity),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of events the ring holds before it overwrites.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Copy out the surviving events, oldest first (by `seq`): always a
    /// run of consecutive `seq` values ending at the newest record.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().copied().collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, mut ev: TraceEvent) {
        let mut ring = self.lock();
        ev.seq = ring.recorded;
        ev.micros = self.epoch.elapsed().as_micros() as u64;
        ring.recorded += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(ev);
    }
}

/// RAII guard for a phase span: records `SpanStart` on creation and
/// `SpanEnd` (with elapsed µs) on drop or [`Span::end_with`].
///
/// Inert — no clock read, no events — when the budget has no sink.
#[must_use = "a span records its end when dropped; binding it to `_` ends it immediately"]
pub struct Span<'a> {
    budget: Option<&'a Budget>,
    phase: Phase,
    member: &'static str,
    start: Option<Instant>,
    ended: bool,
}

impl<'a> Span<'a> {
    pub(crate) fn new(budget: &'a Budget, phase: Phase, member: &'static str) -> Self {
        if budget.has_sink() {
            budget.trace_as(member, phase, Kind::SpanStart, "", 0);
            Span {
                budget: Some(budget),
                phase,
                member,
                start: Some(budget::now()),
                ended: false,
            }
        } else {
            Span {
                budget: None,
                phase,
                member,
                start: None,
                ended: true,
            }
        }
    }

    /// Close the span with an outcome label (e.g. the member status).
    pub fn end_with(mut self, detail: &'static str) {
        self.finish(detail);
    }

    fn finish(&mut self, detail: &'static str) {
        if self.ended {
            return;
        }
        self.ended = true;
        if let Some(budget) = self.budget {
            let micros = self
                .start
                .map(|s| s.elapsed().as_micros() as u64)
                .unwrap_or(0);
            budget.trace_as(self.member, self.phase, Kind::SpanEnd, detail, micros);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish("");
    }
}

/// Open a span on a budget: `trace_span!(budget, Phase::Simplex)` uses
/// the handle's label as the member; an optional third argument
/// overrides it.
#[macro_export]
macro_rules! trace_span {
    ($budget:expr, $phase:expr) => {
        $budget.span($phase, "")
    };
    ($budget:expr, $phase:expr, $member:expr) => {
        $budget.span($phase, $member)
    };
}

/// Record a point event on a budget:
/// `trace_event!(budget, Phase::Cancel, "winner_name", 0)`.
#[macro_export]
macro_rules! trace_event {
    ($budget:expr, $phase:expr, $detail:expr) => {
        $budget.trace($phase, $crate::runtime::trace::Kind::Event, $detail, 0)
    };
    ($budget:expr, $phase:expr, $detail:expr, $value:expr) => {
        $budget.trace($phase, $crate::runtime::trace::Kind::Event, $detail, $value)
    };
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render one event as a single JSON line with keys in sorted order
/// (byte-stable across runs of the same trace).
pub fn event_to_json_line(ev: &TraceEvent) -> String {
    let mut line = String::with_capacity(160);
    line.push_str("{\"detail\":\"");
    escape_into(&mut line, ev.detail);
    line.push_str("\",\"kind\":\"");
    line.push_str(ev.kind.name());
    line.push_str("\",\"member\":\"");
    escape_into(&mut line, ev.member);
    line.push_str("\",\"micros\":");
    line.push_str(&ev.micros.to_string());
    line.push_str(",\"phase\":\"");
    line.push_str(ev.phase.name());
    line.push_str("\",\"seq\":");
    line.push_str(&ev.seq.to_string());
    line.push_str(",\"thread\":");
    line.push_str(&ev.thread.to_string());
    line.push_str(",\"value\":");
    line.push_str(&ev.value.to_string());
    line.push('}');
    line
}

/// Write events as JSONL (one sorted-key JSON object per line).
pub fn write_jsonl<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", event_to_json_line(ev))?;
    }
    Ok(())
}

/// Dump events to a JSONL file, creating parent directories.
pub fn dump_jsonl<P: AsRef<Path>>(path: P, events: &[TraceEvent]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut buf = Vec::with_capacity(events.len() * 160);
    write_jsonl(events, &mut buf)?;
    std::fs::write(path, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(member: &'static str, value: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            micros: 0,
            thread: thread_id(),
            phase: Phase::Budget,
            kind: Kind::Count,
            member,
            detail: "",
            value,
        }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = RingBufferSink::with_capacity(64);
        for i in 0..10 {
            ring.record(ev("a", i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(ring.recorded(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.value, i as u64);
        }
    }

    #[test]
    fn wraparound_keeps_most_recent() {
        let ring = RingBufferSink::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.record(ev("w", i));
        }
        let snap = ring.snapshot();
        assert_eq!(ring.recorded(), 20);
        assert_eq!(snap.len(), 8);
        // The surviving events are exactly the last 8 (seq 12..20).
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        for e in &snap {
            assert_eq!(e.value, e.seq);
        }
    }

    #[test]
    fn concurrent_record_loses_nothing_when_capacity_suffices() {
        // Shrunk under Miri (interpreted execution) so the job finishes.
        const THREADS: u64 = if cfg!(miri) { 4 } else { 8 };
        const PER_THREAD: u64 = if cfg!(miri) { 64 } else { 512 };
        let ring = Arc::new(RingBufferSink::with_capacity(
            (THREADS * PER_THREAD) as usize,
        ));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.record(ev("c", t * PER_THREAD + i));
                    }
                });
            }
        });
        let snap = ring.snapshot();
        assert_eq!(ring.recorded(), THREADS * PER_THREAD);
        assert_eq!(snap.len(), (THREADS * PER_THREAD) as usize);
        // Every event landed exactly once: all seqs distinct and every
        // payload value present.
        let mut seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), snap.len());
        let mut values: Vec<u64> = snap.iter().map(|e| e.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..THREADS * PER_THREAD).collect::<Vec<u64>>());
    }

    /// A snapshot is the newest `min(recorded, capacity)` events: its
    /// `seq` values are consecutive and end at the newest record, and
    /// `micros` never decreases along them.
    fn assert_window(snap: &[TraceEvent], capacity: usize) {
        let newest = snap.last().map_or(0, |e| e.seq + 1);
        assert_eq!(snap.len() as u64, newest.min(capacity as u64), "gap");
        for pair in snap.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq, "seq not consecutive");
            assert!(pair[0].micros <= pair[1].micros, "micros decreased");
        }
    }

    #[test]
    fn concurrent_wraparound_never_tears() {
        // A tiny ring hammered from 4 threads: snapshots taken
        // mid-flight must never observe a half-written event, a gap or
        // a clock running backwards. Each thread writes a distinct
        // (member, value) pair, so a torn read would surface as a
        // mismatched pair.
        const MEMBERS: [&str; 4] = ["t0", "t1", "t2", "t3"];
        const CAPACITY: usize = 32;
        // Shrunk under Miri (interpreted execution) so the job finishes
        // while still wrapping the ring many times over.
        const PER_THREAD: u64 = if cfg!(miri) { 200 } else { 5_000 };
        const SNAPSHOTS: u32 = if cfg!(miri) { 5 } else { 50 };
        let ring = Arc::new(RingBufferSink::with_capacity(CAPACITY));
        std::thread::scope(|scope| {
            for (t, name) in MEMBERS.iter().enumerate() {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        ring.record(ev(name, t as u64));
                    }
                });
            }
            // Keep reading until the writers are done, so snapshots
            // overlap the writes rather than finishing before them.
            let mut taken = 0;
            while taken < SNAPSHOTS || ring.recorded() < 4 * PER_THREAD {
                let snap = ring.snapshot();
                for e in &snap {
                    assert_eq!(MEMBERS[e.value as usize], e.member, "torn event");
                }
                assert_window(&snap, CAPACITY);
                taken += 1;
            }
        });
        assert_eq!(ring.recorded(), 4 * PER_THREAD);
        let snap = ring.snapshot();
        for e in &snap {
            assert_eq!(MEMBERS[e.value as usize], e.member);
        }
        assert_window(&snap, CAPACITY);
        assert_eq!(snap.last().map(|e| e.seq), Some(4 * PER_THREAD - 1));
    }

    #[test]
    fn jsonl_line_has_sorted_keys_and_escapes() {
        let e = TraceEvent {
            seq: 7,
            micros: 1234,
            thread: 2,
            phase: Phase::Simplex,
            kind: Kind::SpanEnd,
            member: "lp_round",
            detail: "ok",
            value: 99,
        };
        assert_eq!(
            event_to_json_line(&e),
            "{\"detail\":\"ok\",\"kind\":\"span_end\",\"member\":\"lp_round\",\
             \"micros\":1234,\"phase\":\"simplex\",\"seq\":7,\"thread\":2,\"value\":99}"
        );
        let mut buf = Vec::new();
        write_jsonl(&[e, e], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn noop_sink_discards() {
        let sink = NoopSink;
        sink.record(ev("x", 1));
    }

    #[test]
    fn thread_ids_are_small_and_stable() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, other);
    }
}
