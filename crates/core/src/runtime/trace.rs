//! Zero-dependency, thread-safe tracing for the solver runtime.
//!
//! The portfolio races ten solvers on a shared atomic [`Budget`]; when a
//! member loses, stalls, or regresses, the final `MemberReport` alone
//! does not explain *where* the ticks went. This module adds a
//! [`TraceSink`] trait with two built-in implementations —
//! [`NoopSink`] (the default: tracing off, zero overhead) and
//! [`RingBufferSink`] (a lock-free, overwrite-on-wrap MPMC ring) — plus
//! the [`TraceEvent`] record, the [`Span`] guard, and a JSONL exporter
//! for `artifacts/TRACE_*.jsonl` dumps.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies.** The workspace builds `--offline` with an
//!    empty registry; everything here is facade atomics
//!    (`runtime::sync`) over `std`.
//! 2. **Off means off.** A budget without a sink never constructs an
//!    event: every trace call starts with one `Option` check on the
//!    shared pool. The EX-OBS experiment holds the ring-buffer sink to
//!    <3% overhead on EX-P1 and the no-op sink to ~0%.
//! 3. **Never block a solver.** [`RingBufferSink::record`] is wait-free
//!    in the common case (one `fetch_add` + one CAS); under pathological
//!    contention on a single slot it drops the event rather than spin
//!    forever, and counts the drop.
//!
//! Events are attributed to a *member* (the portfolio member name, or a
//! component name like `"ir"`), carry a [`Phase`] mapping onto the
//! paper's algorithm phases (compile, simplex pivots for the Algorithm 3
//! LP, branch-and-bound nodes for the exact baseline, local-search
//! rounds, verification, cancellation), and a monotone per-sink `seq`
//! that makes the interleaving reconstructible after the fact.

use super::budget::{self, Budget};
use super::sync::{self, fence, AtomicU64, Ordering};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
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

    /// Inverse of `self as u8` for the ring's word encoding. Total on
    /// the encoder's output; an out-of-range byte (impossible on a
    /// seqlock-validated slot) maps to `Budget` rather than panicking
    /// inside a trace reader.
    fn from_u8(byte: u8) -> Phase {
        match byte {
            x if x == Phase::Compile as u8 => Phase::Compile,
            x if x == Phase::Member as u8 => Phase::Member,
            x if x == Phase::Simplex as u8 => Phase::Simplex,
            x if x == Phase::BranchBound as u8 => Phase::BranchBound,
            x if x == Phase::LocalSearch as u8 => Phase::LocalSearch,
            x if x == Phase::Verify as u8 => Phase::Verify,
            x if x == Phase::Cancel as u8 => Phase::Cancel,
            x if x == Phase::Race as u8 => Phase::Race,
            _ => Phase::Budget,
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

    /// Inverse of `self as u8` (see [`Phase::from_u8`]).
    fn from_u8(byte: u8) -> Kind {
        match byte {
            x if x == Kind::SpanStart as u8 => Kind::SpanStart,
            x if x == Kind::SpanEnd as u8 => Kind::SpanEnd,
            x if x == Kind::Count as u8 => Kind::Count,
            _ => Kind::Event,
        }
    }
}

/// One trace record. `Copy`, with `&'static str` labels as the only
/// pointer payload, so the ring buffer can encode it losslessly into a
/// fixed array of `u64` words (see the private `TraceEvent::encode`).
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

/// Number of `u64` words one encoded [`TraceEvent`] occupies in a ring
/// slot.
const EVENT_WORDS: usize = 9;

impl TraceEvent {
    /// Encode into the ring's word representation. The two `&'static
    /// str` labels are stored as exposed-provenance address + length
    /// word pairs; everything else is a plain integer word. Lossless:
    /// [`TraceEvent::decode`] reconstructs an identical event.
    fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            self.seq,
            self.micros,
            self.thread,
            ((self.phase as u64) << 8) | self.kind as u64,
            self.member.as_ptr().expose_provenance() as u64,
            self.member.len() as u64,
            self.detail.as_ptr().expose_provenance() as u64,
            self.detail.len() as u64,
            self.value,
        ]
    }

    /// Decode the ring's word representation.
    ///
    /// Must only be called on words validated by the slot seqlock (state
    /// unchanged across the read), i.e. on a consistent snapshot of one
    /// complete [`TraceEvent::encode`] — a torn mix of two events could
    /// pair one event's label address with the other's length.
    fn decode(words: [u64; EVENT_WORDS]) -> TraceEvent {
        TraceEvent {
            seq: words[0],
            micros: words[1],
            thread: words[2],
            phase: Phase::from_u8((words[3] >> 8) as u8),
            kind: Kind::from_u8(words[3] as u8),
            member: decode_static_str(words[4], words[5]),
            detail: decode_static_str(words[6], words[7]),
            value: words[8],
        }
    }
}

/// Reconstruct a `&'static str` from the exposed-provenance address and
/// length words written by [`TraceEvent::encode`].
fn decode_static_str(addr: u64, len: u64) -> &'static str {
    if len == 0 {
        // Empty labels round-trip without touching the address word, so
        // no provenance reasoning is needed for the common "" case.
        return "";
    }
    // SAFETY: the caller (TraceEvent::decode) only passes seqlock-
    // validated word pairs, so (addr, len) came from one complete
    // `encode` of a real `&'static str`: `addr` is that string's
    // address, whose provenance `encode` exposed via
    // `expose_provenance`, `len` is its exact byte length, and the
    // pointee is immutable UTF-8 that lives for the rest of the program
    // (`'static`). Reconstructing through `with_exposed_provenance` is
    // therefore reading initialized, live, correctly-typed memory.
    unsafe {
        let ptr = std::ptr::with_exposed_provenance::<u8>(addr as usize);
        let bytes = std::slice::from_raw_parts(ptr, len as usize);
        std::str::from_utf8_unchecked(bytes)
    }
}

/// Dense per-thread id, assigned on first use, starting at 1.
///
/// `std::thread::ThreadId` has no stable integer accessor; this gives
/// traces a small, readable thread key instead.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
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

/// One ring slot, protected by a per-slot seqlock.
///
/// `state` encodes ownership: `0` = never written; `2t + 1` = the
/// writer holding ticket `t` is mid-write; `2t + 2` = ticket `t`'s
/// event is complete. States are monotone per slot, so a reader can
/// validate a snapshot by re-checking `state` after the read.
///
/// The payload is the event's word encoding in plain relaxed atomics
/// (not an unsafe interior cell plus volatile accesses, as in the first
/// version of this ring):
/// a concurrent read/write pair on a word is then an ordinary atomic
/// race with a well-defined (possibly stale) value, never UB — which is
/// what lets Miri, ThreadSanitizer, and the `delprop_model` scheduler
/// all run this protocol as-is. Torn *events* (a mix of two writes
/// across words) are still possible mid-race and are discarded by the
/// seqlock validation; decoding happens only after validation.
struct Slot {
    state: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

/// Lock-free multi-producer ring buffer that keeps the most recent
/// `capacity` events, overwriting the oldest on wrap-around.
///
/// Writers take a global ticket (`fetch_add`), claim the slot
/// `ticket % capacity` via CAS, volatile-write the payload, and publish
/// with a release store. A writer that discovers a *newer* ticket
/// already owns its slot drops its own (older) event — the ring's
/// contract is "most recent N", so an event that has already been
/// lapped carries no information. [`RingBufferSink::recorded`] still
/// counts every record call, and [`RingBufferSink::dropped`] counts
/// contention drops separately so tests can assert none occurred.
pub struct RingBufferSink {
    epoch: Instant,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for RingBufferSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RingBufferSink {
    /// Default capacity: 16384 events (~1.3 MiB).
    pub fn new() -> Self {
        Self::with_capacity(1 << 14)
    }

    /// A ring holding the most recent `capacity` events (rounded up to
    /// a power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        let slots = (0..cap)
            .map(|_| Slot {
                state: AtomicU64::new(0),
                words: [const { AtomicU64::new(0) }; EVENT_WORDS],
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        RingBufferSink {
            epoch: budget::now(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because a newer write lapped them mid-claim.
    /// Zero unless the ring is far too small for the producer rate.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the surviving events, oldest first (by `seq`).
    ///
    /// Safe to call while writers are active: slots mid-write are
    /// re-read a bounded number of times and then skipped, so the
    /// snapshot is consistent but possibly missing the very newest
    /// in-flight events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _ in 0..64 {
                // Ordering: Acquire, pairing with the writer's Release
                // publish — once a published state is observed, the
                // word values of that publication are visible below.
                let before = slot.state.load(Ordering::Acquire);
                if before == 0 {
                    break; // never written
                }
                if before & 1 == 1 {
                    sync::spin_loop();
                    continue; // mid-write; retry
                }
                // Seqlock read: the word loads may race a concurrent
                // writer, which is fine — each word is individually
                // atomic (Relaxed; no ordering is needed per word), and
                // a torn combination is discarded by the validation
                // below, before anything is decoded.
                let mut words = [0u64; EVENT_WORDS];
                for (out_word, word) in words.iter_mut().zip(slot.words.iter()) {
                    *out_word = word.load(Ordering::Relaxed);
                }
                // Ordering: the Acquire fence keeps the word loads
                // above from being reordered past the validation load
                // below. The original volatile version of this ring
                // lacked the fence — two Acquire loads do not order the
                // data reads *between* them — which the facade port's
                // ordering audit surfaced; the model and TSan suites
                // now pin the fixed protocol down.
                fence(Ordering::Acquire);
                // Ordering: Relaxed — the fence above already orders
                // this load after the word reads, and its only job is
                // equality validation against `before`.
                let after = slot.state.load(Ordering::Relaxed);
                if before == after {
                    out.push(TraceEvent::decode(words));
                    break;
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, mut ev: TraceEvent) {
        // Ordering: Relaxed — the ticket counter is a pure allocator;
        // slot handoff is synchronized through `state`, not `head`.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        ev.seq = ticket;
        ev.micros = self.epoch.elapsed().as_micros() as u64;
        let slot = &self.slots[(ticket & self.mask) as usize];
        let writing = 2 * ticket + 1;
        let done = 2 * ticket + 2;
        let mut spins = 0u32;
        loop {
            // Ordering: Acquire — pairs with the previous owner's
            // Release publish, so the monotone state progression is
            // observed in order while we wait our turn.
            let state = slot.state.load(Ordering::Acquire);
            if state >= done {
                // A newer ticket already owns this slot: our event was
                // lapped before we could write it. Drop it.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if state & 1 == 1 {
                // An older writer is mid-write on this slot; wait for
                // it to publish, yielding if it takes long.
                spins += 1;
                if spins < 128 {
                    sync::spin_loop();
                } else {
                    sync::thread::yield_now();
                }
                continue;
            }
            // Ordering: Acquire on success so this writer's word stores
            // are ordered after the previous publication it overwrites;
            // Relaxed on failure (the retry re-loads with Acquire).
            if slot
                .state
                .compare_exchange_weak(state, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        // We hold the slot's seqlock (`state` is odd with our ticket),
        // so no other *writer* races these stores; readers may load
        // concurrently but discard mismatched-state snapshots.
        // Ordering: Relaxed per word — publication ordering is provided
        // wholesale by the Release store of `done` below.
        for (word, value) in slot.words.iter().zip(ev.encode()) {
            word.store(value, Ordering::Relaxed);
        }
        // Ordering: Release — publishes every word store above to any
        // reader whose Acquire load observes `done`.
        slot.state.store(done, Ordering::Release);
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
        assert_eq!(ring.dropped(), 0);
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
        assert_eq!(ring.dropped(), 0);
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

    #[test]
    fn concurrent_wraparound_never_tears() {
        // A tiny ring hammered from 4 threads: snapshots taken
        // mid-flight must never observe a half-written event. Each
        // thread writes a distinct (member, value) pair, so a torn read
        // would surface as a mismatched pair.
        const MEMBERS: [&str; 4] = ["t0", "t1", "t2", "t3"];
        // Shrunk under Miri (interpreted execution) so the job finishes
        // while still wrapping the ring many times over.
        const PER_THREAD: u64 = if cfg!(miri) { 200 } else { 5_000 };
        const SNAPSHOTS: u32 = if cfg!(miri) { 5 } else { 50 };
        let ring = Arc::new(RingBufferSink::with_capacity(32));
        std::thread::scope(|scope| {
            for (t, name) in MEMBERS.iter().enumerate() {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        ring.record(ev(name, t as u64));
                    }
                });
            }
            for _ in 0..SNAPSHOTS {
                for e in ring.snapshot() {
                    assert_eq!(MEMBERS[e.value as usize], e.member, "torn event");
                }
            }
        });
        assert_eq!(ring.recorded(), 4 * PER_THREAD);
        for e in ring.snapshot() {
            assert_eq!(MEMBERS[e.value as usize], e.member);
        }
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
