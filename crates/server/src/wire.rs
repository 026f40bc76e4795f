//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! A frame is a `u32` big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Frames are capped at [`MAX_FRAME`] bytes; a
//! peer announcing a larger frame is corrupt (or hostile) and the
//! connection is dropped rather than buffered to death.
//!
//! **One write per frame.** [`send_frame`] reserves the 4 prefix bytes
//! in a reused buffer, lets the encoder append the payload behind them,
//! patches the length in, and hands the whole frame to the socket in
//! one `write_all`: the peer never wakes up for a header alone. Both
//! ends read through a [`FrameBuffer`], which hands out each complete
//! frame as a slice of its own buffer.
//!
//! **No tree in between.** [`Request`] and [`Response`] encode straight
//! into bytes — keys in sorted order, scalars through
//! [`delprop_json`]'s writers — byte for byte what rendering the same
//! document as a [`delprop_json::Json`] tree gives. They decode with one
//! pass of a [`delprop_json::Reader`]: keys in any order, the first of
//! duplicate keys wins, unknown keys are skipped but still
//! syntax-checked, and trailing data is an error. Only a `publish`
//! request's `spec` becomes a tree, for [`InstanceSpec::from_json`].
//! View, relation and tuple ids and the integer fields must be
//! non-negative integers no larger than 2^53; anything else is a typed
//! error, never a silent cast.
//!
//! The daemon, the [`crate::client`], the chaos harness, and the load
//! generator all speak through this one codec, and a malformed frame is
//! a typed error, never a panic.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::time::Duration;

use delprop_core::solvers::local_search::Objective;
use delprop_json::{
    write_bool, write_num, write_str, write_uint, write_value, Json, Reader, Token,
};

use crate::state::InstanceSpec;

/// Maximum frame payload size (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

// -------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------

/// Send one frame through `buf`: clear it, reserve the 4-byte length
/// prefix, let `encode` append the payload, patch the prefix, and hand
/// the whole frame to `w` in one `write_all`. `buf` keeps its capacity
/// for the next frame.
pub fn send_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    let prefix = u32::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            )
        })?;
    if let Some(head) = buf.get_mut(..4) {
        head.copy_from_slice(&prefix.to_be_bytes());
    }
    w.write_all(buf)?;
    w.flush()
}

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 4096;

/// Incremental frame decoder: bytes come in through
/// [`FrameBuffer::fill`] in whatever chunks the socket yields
/// (including partial frames split by read timeouts), complete frames
/// come out of [`FrameBuffer::next_frame`] as slices of the buffer.
///
/// Consumed frames are not moved out one by one: the buffer keeps a
/// consume offset and compacts before the next read — for free once
/// every buffered frame is consumed, with one move of the unread tail
/// once the consumed bytes outweigh it.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// One `read` of at most 4 KiB from `r` into the buffer. Returns
    /// what `read` returned: `Ok(0)` is EOF, and a timeout is the
    /// reader's error. Only bytes that arrived are buffered, whatever
    /// length a frame's prefix announces.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let pending = self.buf.len() - self.start;
        if pending == 0 {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= pending {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let n = r.read(&mut chunk)?;
        self.buf
            .extend_from_slice(chunk.get(..n).unwrap_or_default());
        Ok(n)
    }

    /// Length, prefix included, of the first unconsumed frame once it
    /// is fully buffered. `Err` means the stream is corrupt (oversized
    /// frame).
    fn complete(&self) -> Result<Option<usize>, String> {
        let pending = self.buf.get(self.start..).unwrap_or_default();
        let &[b0, b1, b2, b3, ..] = pending else {
            return Ok(None); // fewer than 4 bytes: no length prefix yet
        };
        let len = u32::from_be_bytes([b0, b1, b2, b3]);
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds MAX_FRAME"));
        }
        let total = 4 + len as usize;
        Ok((pending.len() >= total).then_some(total))
    }

    /// Pop the next complete frame, if one is buffered. `Err` means
    /// the stream is corrupt (oversized frame) and the connection must
    /// be dropped.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, String> {
        let Some(total) = self.complete()? else {
            return Ok(None);
        };
        let frame = self
            .buf
            .get(self.start + 4..self.start + total)
            .unwrap_or_default();
        self.start += total;
        Ok(Some(frame))
    }

    /// Blocking read of the next frame from `r`. `Ok(None)` on clean
    /// EOF at a frame boundary; EOF inside a frame and an oversized
    /// frame are errors.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        let corrupt = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        while self.complete().map_err(corrupt)?.is_none() {
            if self.fill(r)? == 0 {
                return if self.start == self.buf.len() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                };
            }
        }
        self.next_frame().map_err(corrupt)
    }
}

// -------------------------------------------------------------------
// Requests
// -------------------------------------------------------------------

/// One deletion-propagation solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Tenant for admission accounting (default `"default"`).
    pub tenant: String,
    /// Extra `ΔV` on top of the published instance's own deletions, as
    /// `(view, index)` pairs. Empty means: solve the instance as
    /// published (which shares its pre-compiled IR across requests).
    pub deletions: Vec<(usize, usize)>,
    /// Which objective's portfolio answers.
    pub objective: Objective,
    /// Wall-clock deadline in milliseconds (server default / cap apply
    /// when absent).
    pub deadline_ms: Option<u64>,
    /// Per-attempt tick budget (default: unlimited; the deadline
    /// governs).
    pub ticks: Option<u64>,
    /// Race the portfolio (default: the server's configured mode).
    pub racing: Option<bool>,
    /// Partition into component shards and solve each through the
    /// shard scheduler with the serving portfolio's shard-local
    /// members (default: off; wins over `racing` when both are set).
    pub sharded: Option<bool>,
}

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
            tenant: "default".to_string(),
            deletions: Vec::new(),
            objective: Objective::Standard,
            deadline_ms: None,
            ticks: None,
            racing: None,
            sharded: None,
        }
    }
}

/// Everything a client can ask the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve against the current epoch's instance.
    Solve(SolveRequest),
    /// Build a new instance from `spec` and publish it as the next
    /// epoch. In-flight solves keep their snapshot.
    Publish {
        /// Human-readable instance label reported by `health`/`epoch`.
        label: String,
        /// How to build the instance.
        spec: InstanceSpec,
    },
    /// Patch the current epoch's ΔV incrementally and publish the
    /// result as the next epoch: the daemon forks the epoch's engine,
    /// applies the batch (overdelete → rederive), and publishes —
    /// ΔV-proportional work instead of an instance rebuild. In-flight
    /// solves keep their snapshot.
    PublishDelta {
        /// View tuples entering ΔV, as `(view, index)` pairs.
        deletions: Vec<(usize, usize)>,
        /// View tuples leaving ΔV, as `(view, index)` pairs.
        restores: Vec<(usize, usize)>,
    },
    /// Liveness + epoch + inflight gauge. Bypasses admission.
    Health,
    /// Merged metrics registry dump. Bypasses admission.
    Stats,
    /// Current epoch number and label. Bypasses admission.
    Epoch,
}

/// Keys a request may carry.
const REQUEST_KEYS: [&str; 11] = [
    "op",
    "tenant",
    "deletions",
    "objective",
    "deadline_ms",
    "ticks",
    "racing",
    "sharded",
    "label",
    "spec",
    "restores",
];

impl Request {
    /// Append the wire JSON document (trailing newline included).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (text, pairs) = match self {
            Request::Solve(s) => (s.tenant.len(), pairs_len(&s.deletions)),
            Request::Publish { label, .. } => (label.len(), 0),
            Request::PublishDelta {
                deletions,
                restores,
            } => (0, pairs_len(deletions) + pairs_len(restores)),
            Request::Health | Request::Stats | Request::Epoch => (0, 0),
        };
        out.reserve(size_bound(text, pairs));
        let mut o = Obj::new(out);
        match self {
            Request::Solve(s) => {
                if let Some(d) = s.deadline_ms {
                    o.uint("deadline_ms", d);
                }
                if !s.deletions.is_empty() {
                    o.pairs("deletions", &s.deletions);
                }
                o.str("objective", objective_label(s.objective))
                    .str("op", "solve");
                if let Some(r) = s.racing {
                    o.bool("racing", r);
                }
                if let Some(sh) = s.sharded {
                    o.bool("sharded", sh);
                }
                o.str("tenant", &s.tenant);
                if let Some(t) = s.ticks {
                    o.uint("ticks", t);
                }
            }
            Request::Publish { label, spec } => {
                o.str("label", label).str("op", "publish");
                write_value(o.key("spec"), &spec.to_json());
            }
            Request::PublishDelta {
                deletions,
                restores,
            } => {
                o.pairs("deletions", deletions)
                    .str("op", "publish_delta")
                    .pairs("restores", restores);
            }
            Request::Health => {
                o.str("op", "health");
            }
            Request::Stats => {
                o.str("op", "stats");
            }
            Request::Epoch => {
                o.str("op", "epoch");
            }
        }
        o.end();
    }

    /// Render to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Parse wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, String> {
        let mut f = Fields::read(bytes, &REQUEST_KEYS)?;
        match f.str("op").ok_or("missing string field `op`")? {
            "solve" => {
                let objective = match f.str("objective") {
                    Some(o) => parse_objective(o)?,
                    None => Objective::Standard,
                };
                Ok(Request::Solve(SolveRequest {
                    tenant: f.str("tenant").unwrap_or("default").to_string(),
                    deletions: f.take_pairs("deletions")?,
                    objective,
                    deadline_ms: f.uint("deadline_ms")?,
                    ticks: f.uint("ticks")?,
                    racing: f.bool("racing"),
                    sharded: f.bool("sharded"),
                }))
            }
            "publish" => {
                let label = f.str("label").unwrap_or("unnamed").to_string();
                let Some(Val::Obj(spec)) = f.get("spec") else {
                    return Err("publish requires a `spec` object".to_string());
                };
                Ok(Request::Publish {
                    label,
                    spec: InstanceSpec::from_json(spec)?,
                })
            }
            "publish_delta" => Ok(Request::PublishDelta {
                deletions: f.take_pairs("deletions")?,
                restores: f.take_pairs("restores")?,
            }),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "epoch" => Ok(Request::Epoch),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

// -------------------------------------------------------------------
// Responses
// -------------------------------------------------------------------

/// A successful (possibly degraded) solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOk {
    /// Epoch of the snapshot this answer was computed against.
    pub epoch: u64,
    /// Winning portfolio member (or the degradation fallback).
    pub winner: String,
    /// The guarantee the answer *actually* carries — `"exact"`,
    /// `"ratio <r>"`, or `"heuristic"` — never stronger than what was
    /// verified within the deadline.
    pub guarantee: String,
    /// True when the answer came from budget/deadline degradation
    /// rather than an uncut run.
    pub degraded: bool,
    /// Objective value of the verified solution.
    pub cost: f64,
    /// The deleted base tuples, as `(relation, index)` pairs.
    pub deleted: Vec<(usize, usize)>,
    /// Wall-clock the request spent in the engine, µs.
    pub micros: u64,
    /// Budget ticks charged by the final attempt.
    pub ticks: u64,
    /// Solve attempts made (1 = no retries).
    pub attempts: u32,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A verified solution with its labeled guarantee.
    Ok(SolveOk),
    /// Admission refused the request (queue full, tenant saturated,
    /// gate closed, or wait timed out).
    Overloaded {
        /// Which admission limit fired.
        reason: String,
    },
    /// The deadline passed and even the degradation fallback produced
    /// no verified answer.
    DeadlineExceeded {
        /// Solve attempts made before giving up.
        attempts: u32,
        /// Wall-clock spent, µs.
        micros: u64,
    },
    /// A typed failure (bad request, permanent solver error, shutdown).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Liveness probe answer.
    Health {
        /// Current epoch.
        epoch: u64,
        /// Current instance label.
        label: String,
        /// Solves currently admitted.
        inflight: u64,
        /// Requests seen since start.
        requests: u64,
    },
    /// Metrics registry dump.
    Stats {
        /// `name value` lines, sorted (core + serving metrics merged).
        metrics: String,
    },
    /// Epoch probe answer.
    Epoch {
        /// Current epoch.
        epoch: u64,
        /// Current instance label.
        label: String,
    },
    /// A publish landed.
    Published {
        /// The new epoch.
        epoch: u64,
        /// Its label.
        label: String,
    },
    /// A delta publish landed, with its maintenance accounting.
    DeltaPublished {
        /// The new epoch.
        epoch: u64,
        /// Its label (inherited from the patched epoch).
        label: String,
        /// Deletions applied (requested minus no-ops).
        deleted: u64,
        /// Restores applied (requested minus no-ops).
        restored: u64,
        /// Preserved view tuples that became vulnerable through the
        /// overdeletion closure.
        overdeleted: u64,
        /// View tuples whose vulnerable status was rederived.
        rederived: u64,
    },
}

/// Keys a response may carry.
const RESPONSE_KEYS: [&str; 19] = [
    "status",
    "epoch",
    "winner",
    "guarantee",
    "degraded",
    "cost",
    "deleted",
    "micros",
    "ticks",
    "attempts",
    "reason",
    "message",
    "label",
    "inflight",
    "requests",
    "metrics",
    "restored",
    "overdeleted",
    "rederived",
];

impl Response {
    /// Append the wire JSON document (trailing newline included).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (text, pairs) = match self {
            Response::Ok(ok) => (ok.winner.len() + ok.guarantee.len(), pairs_len(&ok.deleted)),
            Response::Overloaded { reason: text }
            | Response::Error { message: text }
            | Response::Stats { metrics: text }
            | Response::Health { label: text, .. }
            | Response::Epoch { label: text, .. }
            | Response::Published { label: text, .. }
            | Response::DeltaPublished { label: text, .. } => (text.len(), 0),
            Response::DeadlineExceeded { .. } => (0, 0),
        };
        out.reserve(size_bound(text, pairs));
        let mut o = Obj::new(out);
        match self {
            Response::Ok(ok) => {
                o.uint("attempts", u64::from(ok.attempts))
                    .num("cost", ok.cost)
                    .bool("degraded", ok.degraded)
                    .pairs("deleted", &ok.deleted)
                    .uint("epoch", ok.epoch)
                    .str("guarantee", &ok.guarantee)
                    .uint("micros", ok.micros)
                    .str("status", "ok")
                    .uint("ticks", ok.ticks)
                    .str("winner", &ok.winner);
            }
            Response::Overloaded { reason } => {
                o.str("reason", reason).str("status", "overloaded");
            }
            Response::DeadlineExceeded { attempts, micros } => {
                o.uint("attempts", u64::from(*attempts))
                    .uint("micros", *micros)
                    .str("status", "deadline_exceeded");
            }
            Response::Error { message } => {
                o.str("message", message).str("status", "error");
            }
            Response::Health {
                epoch,
                label,
                inflight,
                requests,
            } => {
                o.uint("epoch", *epoch)
                    .uint("inflight", *inflight)
                    .str("label", label)
                    .uint("requests", *requests)
                    .str("status", "health");
            }
            Response::Stats { metrics } => {
                o.str("metrics", metrics).str("status", "stats");
            }
            Response::Epoch { epoch, label } => {
                o.uint("epoch", *epoch)
                    .str("label", label)
                    .str("status", "epoch");
            }
            Response::Published { epoch, label } => {
                o.uint("epoch", *epoch)
                    .str("label", label)
                    .str("status", "published");
            }
            Response::DeltaPublished {
                epoch,
                label,
                deleted,
                restored,
                overdeleted,
                rederived,
            } => {
                o.uint("deleted", *deleted)
                    .uint("epoch", *epoch)
                    .str("label", label)
                    .uint("overdeleted", *overdeleted)
                    .uint("rederived", *rederived)
                    .uint("restored", *restored)
                    .str("status", "delta_published");
            }
        }
        o.end();
    }

    /// Render to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Parse wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, String> {
        let mut f = Fields::read(bytes, &RESPONSE_KEYS)?;
        let text = |f: &Fields<'_, 19>, key: &str| f.str(key).unwrap_or_default().to_string();
        match f.str("status").ok_or("missing string field `status`")? {
            "ok" => Ok(Response::Ok(SolveOk {
                epoch: f.need_uint("epoch")?,
                winner: f.str("winner").ok_or("missing `winner`")?.to_string(),
                guarantee: f.str("guarantee").ok_or("missing `guarantee`")?.to_string(),
                degraded: f.bool("degraded").ok_or("missing `degraded`")?,
                cost: f.num("cost").ok_or("missing `cost`")?,
                deleted: f.take_pairs("deleted")?,
                micros: f.need_uint("micros")?,
                ticks: f.need_uint("ticks")?,
                attempts: f.need_u32("attempts")?,
            })),
            "overloaded" => Ok(Response::Overloaded {
                reason: text(&f, "reason"),
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded {
                attempts: f.need_u32("attempts")?,
                micros: f.need_uint("micros")?,
            }),
            "error" => Ok(Response::Error {
                message: text(&f, "message"),
            }),
            "health" => Ok(Response::Health {
                epoch: f.need_uint("epoch")?,
                label: text(&f, "label"),
                inflight: f.need_uint("inflight")?,
                requests: f.need_uint("requests")?,
            }),
            "stats" => Ok(Response::Stats {
                metrics: text(&f, "metrics"),
            }),
            "epoch" => Ok(Response::Epoch {
                epoch: f.need_uint("epoch")?,
                label: text(&f, "label"),
            }),
            "published" => Ok(Response::Published {
                epoch: f.need_uint("epoch")?,
                label: text(&f, "label"),
            }),
            "delta_published" => Ok(Response::DeltaPublished {
                epoch: f.need_uint("epoch")?,
                label: text(&f, "label"),
                deleted: f.need_uint("deleted")?,
                restored: f.need_uint("restored")?,
                overdeleted: f.need_uint("overdeleted")?,
                rederived: f.need_uint("rederived")?,
            }),
            other => Err(format!("unknown status `{other}`")),
        }
    }
}

// -------------------------------------------------------------------
// Stream abstraction
// -------------------------------------------------------------------

/// The subset of socket behavior the daemon and client need, so TCP
/// and Unix-domain connections share one code path.
pub trait ConnStream: Read + Write + Send {
    /// Set (or clear) the read timeout the daemon's shutdown-aware
    /// read loop relies on.
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Shut down both directions, unblocking any peer reads.
    fn shutdown_both(&self);
}

impl ConnStream for std::net::TcpStream {
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn shutdown_both(&self) {
        let _ = std::net::TcpStream::shutdown(self, std::net::Shutdown::Both);
    }
}

#[cfg(unix)]
impl ConnStream for std::os::unix::net::UnixStream {
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn shutdown_both(&self) {
        let _ = std::os::unix::net::UnixStream::shutdown(self, std::net::Shutdown::Both);
    }
}

// -------------------------------------------------------------------
// Encoding
// -------------------------------------------------------------------

/// An object being appended. Callers give its keys in sorted order —
/// the order [`delprop_json::Json::render`] sorts them into — and each
/// at most once.
struct Obj<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl<'a> Obj<'a> {
    fn new(out: &'a mut Vec<u8>) -> Obj<'a> {
        out.push(b'{');
        Obj { out, first: true }
    }

    /// Append `"key": ` (after a `, ` unless it is the first key) and
    /// return the buffer for its value.
    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.extend_from_slice(b", ");
        }
        self.first = false;
        write_str(self.out, key);
        self.out.extend_from_slice(b": ");
        self.out
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        write_uint(self.key(key), v);
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        write_num(self.key(key), v);
        self
    }

    fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        write_bool(self.key(key), v);
        self
    }

    /// `[[a, b], ...]`.
    fn pairs(&mut self, key: &str, pairs: &[(usize, usize)]) -> &mut Self {
        let out = self.key(key);
        out.push(b'[');
        // Byte pushes: a pair is a few bytes, shorter than a copy call.
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(b',');
                out.push(b' ');
            }
            out.push(b'[');
            write_uint(out, a as u64);
            out.push(b',');
            out.push(b' ');
            write_uint(out, b as u64);
            out.push(b']');
        }
        out.push(b']');
        self
    }

    /// Close the object and the document.
    fn end(self) {
        self.out.extend_from_slice(b"}\n");
    }
}

/// Bytes `pairs` take encoded, separators included, at most: every id
/// as wide as the widest.
fn pairs_len(pairs: &[(usize, usize)]) -> usize {
    let widest = pairs.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0);
    let digits = widest.checked_ilog10().map_or(1, |d| d as usize + 1);
    pairs.len() * (6 + 2 * digits)
}

/// A capacity that holds a document with `text` bytes of strings and
/// `pairs` bytes of id pairs, whatever the escaping, so encoding
/// allocates once.
fn size_bound(text: usize, pairs: usize) -> usize {
    320 + 6 * text + pairs
}

// -------------------------------------------------------------------
// Decoding
// -------------------------------------------------------------------

/// The largest integer the wire carries: beyond 2^53 an `f64` no longer
/// holds every integer.
const MAX_WIRE_INT: f64 = 9_007_199_254_740_992.0;

/// A wire integer: a number with no fractional part in `0..=2^53`.
pub(crate) fn wire_int(n: f64, key: &str) -> Result<u64, String> {
    if (0.0..=MAX_WIRE_INT).contains(&n) && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!(
            "`{key}` holds {n}: ids and counts are integers in 0..=2^53"
        ))
    }
}

/// A known key's value, typed as far as any decoder looks at it.
enum Val<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
    /// An array, read as `[[a, b], ...]` id pairs. The inner `Err` is an
    /// entry that is not a pair of ids: an error only for a message
    /// that reads this key.
    Pairs(Result<Vec<(usize, usize)>, String>),
    /// An object, as a tree (a `publish` spec).
    Obj(Json),
    Null,
}

impl<'a> Val<'a> {
    fn read(r: &mut Reader<'a>, key: &str) -> Result<Val<'a>, String> {
        Ok(match r.peek()? {
            Token::Str => Val::Str(r.str()?),
            Token::Num => Val::Num(r.num()?),
            Token::Bool => Val::Bool(r.bool()?),
            Token::Arr => Val::Pairs(read_pairs(r, key)?),
            Token::Obj => Val::Obj(r.value()?),
            Token::Null => {
                r.null()?;
                Val::Null
            }
        })
    }
}

/// Read an array of `[a, b]` id pairs. The outer `Err` is a syntax
/// error; the inner one the first entry that is not a pair of ids,
/// reported once the whole array is syntax-checked.
fn read_pairs(
    r: &mut Reader<'_>,
    key: &str,
) -> Result<Result<Vec<(usize, usize)>, String>, String> {
    r.begin_array()?;
    // Each pair takes at least 6 bytes (`[0,0],`): room for every pair
    // the rest of the document can hold, in one allocation.
    let mut pairs = Ok(Vec::with_capacity(r.remaining() / 6));
    while r.next_item()? {
        let pair = read_pair(r, key)?;
        if let Ok(list) = &mut pairs {
            match pair {
                Ok(p) => list.push(p),
                Err(e) => pairs = Err(e),
            }
        }
    }
    Ok(pairs)
}

fn read_pair(r: &mut Reader<'_>, key: &str) -> Result<Result<(usize, usize), String>, String> {
    let id = |n: f64| {
        let v = wire_int(n, key)?;
        usize::try_from(v).map_err(|_| format!("`{key}` id {v} exceeds usize"))
    };
    if let Some([a, b]) = r.uint_tuple::<2>() {
        return Ok(id(a as f64).and_then(|a| Ok((a, id(b as f64)?))));
    }
    if r.peek()? != Token::Arr {
        r.skip()?;
        return Ok(Err(format!("`{key}` entries must be [a, b] id pairs")));
    }
    r.begin_array()?;
    let mut ids = [None; 2];
    let mut n = 0;
    while r.next_item()? {
        let id = if r.peek()? == Token::Num {
            Some(r.num()?)
        } else {
            r.skip()?;
            None
        };
        if let Some(slot) = ids.get_mut(n) {
            *slot = id;
        }
        n += 1;
    }
    Ok(match (n, ids) {
        (2, [Some(a), Some(b)]) => id(a).and_then(|a| Ok((a, id(b)?))),
        (2, _) => Err(format!("non-numeric id in `{key}`")),
        _ => Err(format!("`{key}` entries must be [a, b] id pairs")),
    })
}

/// One wire document's top-level object: the first value of each of
/// `keys`. Unknown keys and repeated ones are skipped, their syntax
/// still checked; a document that is not an object has no fields.
struct Fields<'a, const N: usize> {
    keys: &'static [&'static str; N],
    vals: [Option<Val<'a>>; N],
}

impl<'a, const N: usize> Fields<'a, N> {
    fn read(bytes: &'a [u8], keys: &'static [&'static str; N]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
        let mut r = Reader::new(text);
        let mut vals = [const { None }; N];
        if r.peek()? == Token::Obj {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                let slot = keys.iter().position(|k| *k == key);
                match slot.and_then(|i| vals.get_mut(i)) {
                    Some(slot @ None) => *slot = Some(Val::read(&mut r, &key)?),
                    _ => r.skip()?,
                }
            }
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(Fields { keys, vals })
    }

    fn get(&self, key: &str) -> Option<&Val<'a>> {
        let i = self.keys.iter().position(|k| *k == key)?;
        self.vals.get(i)?.as_ref()
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Val::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Val::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Val::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// An optional integer field: absent unless the value is a number.
    fn uint(&self, key: &str) -> Result<Option<u64>, String> {
        self.num(key).map(|n| wire_int(n, key)).transpose()
    }

    fn need_uint(&self, key: &str) -> Result<u64, String> {
        self.uint(key)?
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    }

    fn need_u32(&self, key: &str) -> Result<u32, String> {
        let v = self.need_uint(key)?;
        u32::try_from(v).map_err(|_| format!("`{key}` of {v} exceeds u32"))
    }

    /// An `[[a, b], ...]` field, moved out; empty unless the value is an
    /// array.
    fn take_pairs(&mut self, key: &str) -> Result<Vec<(usize, usize)>, String> {
        let i = self.keys.iter().position(|k| *k == key);
        match i.and_then(|i| self.vals.get_mut(i)) {
            Some(Some(Val::Pairs(pairs))) => std::mem::replace(pairs, Ok(Vec::new())),
            _ => Ok(Vec::new()),
        }
    }
}

/// Wire label for an objective.
pub fn objective_label(o: Objective) -> &'static str {
    match o {
        Objective::Standard => "standard",
        Objective::Balanced => "balanced",
    }
}

fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "standard" => Ok(Objective::Standard),
        "balanced" => Ok(Objective::Balanced),
        other => Err(format!("unknown objective `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append one frame holding `payload` to `out`.
    fn frame(out: &mut Vec<u8>, payload: &[u8]) {
        send_frame(out, &mut Vec::new(), |o| o.extend_from_slice(payload)).unwrap();
    }

    /// Yields its bytes one `read` at a time, `step` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            let (head, tail) = self.bytes.split_at(n);
            buf[..n].copy_from_slice(head);
            self.bytes = tail;
            Ok(n)
        }
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut bytes = Vec::new();
        frame(&mut bytes, b"hello");
        frame(&mut bytes, b"");
        frame(&mut bytes, b"world");
        assert_eq!(&bytes[..9], b"\0\0\0\x05hello");

        // Byte by byte and all at once: the decoder must tolerate
        // arbitrary splits.
        for step in [1, 3, bytes.len()] {
            let mut r = Trickle {
                bytes: &bytes,
                step,
            };
            let mut fb = FrameBuffer::new();
            let mut frames = Vec::new();
            while let Some(f) = fb.read_from(&mut r).unwrap() {
                frames.push(f.to_vec());
            }
            assert_eq!(
                frames,
                vec![b"hello".to_vec(), Vec::new(), b"world".to_vec()]
            );
        }
    }

    #[test]
    fn consumed_frames_are_compacted_away() {
        let mut bytes = Vec::new();
        for i in 0..1000u32 {
            frame(&mut bytes, &i.to_be_bytes());
        }
        let mut r = Trickle {
            bytes: &bytes,
            step: 5,
        };
        let mut fb = FrameBuffer::new();
        for i in 0..1000u32 {
            assert_eq!(fb.read_from(&mut r).unwrap().unwrap(), i.to_be_bytes());
            assert!(fb.buf.len() <= 2 * READ_CHUNK + 16, "{}", fb.buf.len());
        }
        assert_eq!(fb.read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Records the size of every `write` call.
        #[derive(Default)]
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::Error {
            message: "x".repeat(5000),
        };
        let mut w = Writes::default();
        let mut buf = Vec::new();
        send_frame(&mut w, &mut buf, |out| resp.encode(out)).unwrap();
        send_frame(&mut w, &mut Vec::new(), |out| out.extend_from_slice(b"raw")).unwrap();
        assert_eq!(w.0, vec![4 + resp.to_bytes().len(), 7]);
        assert_eq!(&buf[4..], resp.to_bytes());
    }

    #[test]
    fn oversized_frames_are_rejected_not_buffered() {
        let bytes = (MAX_FRAME + 1).to_be_bytes();
        let mut fb = FrameBuffer::new();
        fb.fill(&mut &bytes[..]).unwrap();
        assert!(fb.next_frame().is_err());
        assert!(FrameBuffer::new().read_from(&mut &bytes[..]).is_err());

        let mut buf = Vec::new();
        let big = vec![b' '; MAX_FRAME as usize + 1];
        assert!(send_frame(&mut Vec::new(), &mut buf, |out| out.extend_from_slice(&big)).is_err());
    }

    #[test]
    fn an_announced_length_is_not_buffered_ahead() {
        // A prefix announcing MAX_FRAME, then the body a byte per read:
        // only bytes that arrived are buffered.
        let mut bytes = MAX_FRAME.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[b' '; 64]);
        let mut r = Trickle {
            bytes: &bytes,
            step: 1,
        };
        let mut fb = FrameBuffer::new();
        while fb.fill(&mut r).unwrap() > 0 {
            assert!(fb.buf.capacity() <= 2 * READ_CHUNK, "{}", fb.buf.capacity());
        }
        assert_eq!(fb.buf.len(), bytes.len());
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut bytes = Vec::new();
        frame(&mut bytes, b"truncated");
        for cut in [2, bytes.len() - 3] {
            let err = FrameBuffer::new()
                .read_from(&mut &bytes[..cut])
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Solve(SolveRequest {
                tenant: "t1".to_string(),
                deletions: vec![(0, 3), (1, 7)],
                objective: Objective::Balanced,
                deadline_ms: Some(250),
                ticks: Some(100_000),
                racing: Some(false),
                sharded: Some(true),
            }),
            Request::Solve(SolveRequest::default()),
            Request::Publish {
                label: "fig1".to_string(),
                spec: InstanceSpec::Fig1,
            },
            Request::PublishDelta {
                deletions: vec![(0, 2), (1, 5)],
                restores: vec![(0, 9)],
            },
            Request::PublishDelta {
                deletions: Vec::new(),
                restores: Vec::new(),
            },
            Request::Health,
            Request::Stats,
            Request::Epoch,
        ];
        for req in reqs {
            let bytes = req.to_bytes();
            assert_eq!(Request::from_bytes(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ok(SolveOk {
                epoch: 3,
                winner: "greedy".to_string(),
                guarantee: "ratio 1.386".to_string(),
                degraded: true,
                cost: 2.5,
                deleted: vec![(0, 1), (2, 9)],
                micros: 1234,
                ticks: 42,
                attempts: 2,
            }),
            Response::Overloaded {
                reason: "queue full".to_string(),
            },
            Response::DeadlineExceeded {
                attempts: 3,
                micros: 250_000,
            },
            Response::Error {
                message: "bad request".to_string(),
            },
            Response::Health {
                epoch: 1,
                label: "forest-default".to_string(),
                inflight: 4,
                requests: 99,
            },
            Response::Stats {
                metrics: "serve.requests 99\n".to_string(),
            },
            Response::Epoch {
                epoch: 7,
                label: "random-2".to_string(),
            },
            Response::Published {
                epoch: 8,
                label: "random-3".to_string(),
            },
            Response::DeltaPublished {
                epoch: 9,
                label: "random-3".to_string(),
                deleted: 4,
                restored: 1,
                overdeleted: 11,
                rederived: 2,
            },
        ];
        for resp in resps {
            let bytes = resp.to_bytes();
            assert_eq!(Response::from_bytes(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::from_bytes(b"not json").is_err());
        assert!(Request::from_bytes(br#"{"op":"launch_missiles"}"#).is_err());
        assert!(Request::from_bytes(br#"{"noop":true}"#).is_err());
        assert!(Request::from_bytes(br#"{"op":"solve","deletions":[[1]]}"#).is_err());
        assert!(Request::from_bytes(br#"{"op":"publish_delta","restores":[[1,"x"]]}"#).is_err());
        assert!(Request::from_bytes(&[0xff, 0xfe]).is_err());
        // Ids and integer fields are non-negative integers up to 2^53,
        // never cast into range.
        assert!(Request::from_bytes(br#"{"op":"solve","deletions":[[-1,5]]}"#).is_err());
        assert!(Request::from_bytes(br#"{"op":"solve","deletions":[[0.9,1e300]]}"#).is_err());
        assert!(Request::from_bytes(br#"{"op":"solve","deadline_ms":-5}"#).is_err());
        assert!(Request::from_bytes(br#"{"op":"publish_delta","restores":[[2,-3]]}"#).is_err());
        assert!(
            Request::from_bytes(br#"{"op":"solve","deletions":[[0,9007199254740994]]}"#).is_err()
        );
        // A frame of open brackets is an error, not a stack overflow.
        assert!(Request::from_bytes(&vec![b'['; 1 << 19]).is_err());
    }

    #[test]
    fn integral_forms_of_ids_are_accepted() {
        let req = Request::from_bytes(
            br#"{"op":"solve","deletions":[[3.0,3e0],[0,9007199254740992]],"ticks":1e3}"#,
        )
        .unwrap();
        let Request::Solve(s) = req else {
            panic!("{req:?}")
        };
        assert_eq!(s.deletions, vec![(3, 3), (0, 1 << 53)]);
        assert_eq!(s.ticks, Some(1000));
    }

    #[test]
    fn fields_an_op_does_not_read_are_only_syntax_checked() {
        assert_eq!(
            Request::from_bytes(br#"{"op":"health","deletions":[[-1]],"ticks":-5}"#).unwrap(),
            Request::Health
        );
        assert!(Request::from_bytes(br#"{"op":"health","x":[1,]}"#).is_err());
        // The first of duplicate keys wins, whatever its type.
        assert_eq!(
            Request::from_bytes(br#"{"op":"solve","racing":1,"racing":true,"op":"stats"}"#)
                .unwrap(),
            Request::Solve(SolveRequest::default())
        );
    }
}
