//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! A frame is a `u32` big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Frames are capped at [`MAX_FRAME`] bytes; a
//! peer announcing a larger frame is corrupt (or hostile) and the
//! connection is dropped rather than buffered to death. The JSON layer
//! is [`delprop_json`] — the same sorted-key value type the bench
//! artifacts use — so every response renders deterministically.
//!
//! Both directions are typed end-to-end: [`Request`] / [`Response`]
//! parse *and* render, so the daemon, the [`crate::client`], the chaos
//! harness, and the load generator all speak through one codec and a
//! malformed frame is a typed error, never a panic.

use std::io::{self, Read, Write};
use std::time::Duration;

use delprop_core::solvers::local_search::Objective;
use delprop_json::{parse, Json};

use crate::state::InstanceSpec;

/// Maximum frame payload size (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

// -------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------

/// Write one frame: `u32` big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Blocking read of one frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary; EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        // lint:allow(panic): `got < 4` is the loop condition, so the
        // range start never passes the array length
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            };
        }
        got += n;
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame decoder for the daemon's timeout-tolerant read
/// loop: bytes go in via [`FrameBuffer::extend`] in whatever chunks
/// the socket yields (including partial frames split by read
/// timeouts), complete frames come out of [`FrameBuffer::next_frame`].
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is buffered. `Err` means
    /// the stream is corrupt (oversized frame) and the connection must
    /// be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let &[b0, b1, b2, b3, ..] = self.buf.as_slice() else {
            return Ok(None); // fewer than 4 bytes: no length prefix yet
        };
        let len = u32::from_be_bytes([b0, b1, b2, b3]);
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds MAX_FRAME"));
        }
        let total = 4 + len as usize;
        let Some(frame) = self.buf.get(4..total) else {
            return Ok(None); // body not fully buffered yet
        };
        let frame = frame.to_vec();
        self.buf.drain(..total);
        Ok(Some(frame))
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

impl Request {
    /// Render to the wire JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Solve(s) => {
                let mut pairs = vec![
                    ("op".to_string(), Json::str("solve")),
                    ("tenant".to_string(), Json::str(s.tenant.clone())),
                    (
                        "objective".to_string(),
                        Json::str(objective_label(s.objective)),
                    ),
                ];
                if !s.deletions.is_empty() {
                    pairs.push((
                        "deletions".to_string(),
                        Json::Arr(
                            s.deletions
                                .iter()
                                .map(|&(v, i)| {
                                    Json::Arr(vec![Json::uint(v as u64), Json::uint(i as u64)])
                                })
                                .collect(),
                        ),
                    ));
                }
                if let Some(d) = s.deadline_ms {
                    pairs.push(("deadline_ms".to_string(), Json::uint(d)));
                }
                if let Some(t) = s.ticks {
                    pairs.push(("ticks".to_string(), Json::uint(t)));
                }
                if let Some(r) = s.racing {
                    pairs.push(("racing".to_string(), Json::Bool(r)));
                }
                if let Some(sh) = s.sharded {
                    pairs.push(("sharded".to_string(), Json::Bool(sh)));
                }
                Json::Obj(pairs)
            }
            Request::Publish { label, spec } => Json::obj(vec![
                ("op", Json::str("publish")),
                ("label", Json::str(label.clone())),
                ("spec", spec.to_json()),
            ]),
            Request::PublishDelta {
                deletions,
                restores,
            } => Json::obj(vec![
                ("op", Json::str("publish_delta")),
                ("deletions", pairs_json(deletions)),
                ("restores", pairs_json(restores)),
            ]),
            Request::Health => Json::obj(vec![("op", Json::str("health"))]),
            Request::Stats => Json::obj(vec![("op", Json::str("stats"))]),
            Request::Epoch => Json::obj(vec![("op", Json::str("epoch"))]),
        }
    }

    /// Parse a wire JSON document.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let op = get_str(j, "op").ok_or("missing string field `op`")?;
        match op {
            "solve" => {
                let mut req = SolveRequest {
                    tenant: get_str(j, "tenant").unwrap_or("default").to_string(),
                    ..SolveRequest::default()
                };
                req.deletions = parse_pairs(j, "deletions")?;
                if let Some(o) = get_str(j, "objective") {
                    req.objective = parse_objective(o)?;
                }
                req.deadline_ms = get_u64(j, "deadline_ms");
                req.ticks = get_u64(j, "ticks");
                req.racing = get_bool(j, "racing");
                req.sharded = get_bool(j, "sharded");
                Ok(Request::Solve(req))
            }
            "publish" => {
                let label = get_str(j, "label").unwrap_or("unnamed").to_string();
                let spec = j.get("spec").ok_or("publish requires a `spec` object")?;
                Ok(Request::Publish {
                    label,
                    spec: InstanceSpec::from_json(spec)?,
                })
            }
            "publish_delta" => Ok(Request::PublishDelta {
                deletions: parse_pairs(j, "deletions")?,
                restores: parse_pairs(j, "restores")?,
            }),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "epoch" => Ok(Request::Epoch),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Render to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().render().into_bytes()
    }

    /// Parse wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
        Request::from_json(&parse(text)?)
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

impl Response {
    /// Render to the wire JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok(ok) => Json::obj(vec![
                ("status", Json::str("ok")),
                ("epoch", Json::uint(ok.epoch)),
                ("winner", Json::str(ok.winner.clone())),
                ("guarantee", Json::str(ok.guarantee.clone())),
                ("degraded", Json::Bool(ok.degraded)),
                ("cost", Json::Num(ok.cost)),
                (
                    "deleted",
                    Json::Arr(
                        ok.deleted
                            .iter()
                            .map(|&(r, i)| {
                                Json::Arr(vec![Json::uint(r as u64), Json::uint(i as u64)])
                            })
                            .collect(),
                    ),
                ),
                ("micros", Json::uint(ok.micros)),
                ("ticks", Json::uint(ok.ticks)),
                ("attempts", Json::uint(u64::from(ok.attempts))),
            ]),
            Response::Overloaded { reason } => Json::obj(vec![
                ("status", Json::str("overloaded")),
                ("reason", Json::str(reason.clone())),
            ]),
            Response::DeadlineExceeded { attempts, micros } => Json::obj(vec![
                ("status", Json::str("deadline_exceeded")),
                ("attempts", Json::uint(u64::from(*attempts))),
                ("micros", Json::uint(*micros)),
            ]),
            Response::Error { message } => Json::obj(vec![
                ("status", Json::str("error")),
                ("message", Json::str(message.clone())),
            ]),
            Response::Health {
                epoch,
                label,
                inflight,
                requests,
            } => Json::obj(vec![
                ("status", Json::str("health")),
                ("epoch", Json::uint(*epoch)),
                ("label", Json::str(label.clone())),
                ("inflight", Json::uint(*inflight)),
                ("requests", Json::uint(*requests)),
            ]),
            Response::Stats { metrics } => Json::obj(vec![
                ("status", Json::str("stats")),
                ("metrics", Json::str(metrics.clone())),
            ]),
            Response::Epoch { epoch, label } => Json::obj(vec![
                ("status", Json::str("epoch")),
                ("epoch", Json::uint(*epoch)),
                ("label", Json::str(label.clone())),
            ]),
            Response::Published { epoch, label } => Json::obj(vec![
                ("status", Json::str("published")),
                ("epoch", Json::uint(*epoch)),
                ("label", Json::str(label.clone())),
            ]),
            Response::DeltaPublished {
                epoch,
                label,
                deleted,
                restored,
                overdeleted,
                rederived,
            } => Json::obj(vec![
                ("status", Json::str("delta_published")),
                ("epoch", Json::uint(*epoch)),
                ("label", Json::str(label.clone())),
                ("deleted", Json::uint(*deleted)),
                ("restored", Json::uint(*restored)),
                ("overdeleted", Json::uint(*overdeleted)),
                ("rederived", Json::uint(*rederived)),
            ]),
        }
    }

    /// Parse a wire JSON document.
    pub fn from_json(j: &Json) -> Result<Response, String> {
        let status = get_str(j, "status").ok_or("missing string field `status`")?;
        match status {
            "ok" => {
                let mut deleted = Vec::new();
                if let Some(arr) = j.get("deleted").and_then(Json::as_arr) {
                    for d in arr {
                        let [r, i] = d
                            .as_arr()
                            .and_then(|p| <&[Json; 2]>::try_from(p).ok())
                            .ok_or("`deleted` entries must be [relation, index]")?;
                        let r = r.as_num().ok_or("non-numeric relation")?;
                        let i = i.as_num().ok_or("non-numeric index")?;
                        deleted.push((r as usize, i as usize));
                    }
                }
                Ok(Response::Ok(SolveOk {
                    epoch: need_u64(j, "epoch")?,
                    winner: get_str(j, "winner").ok_or("missing `winner`")?.to_string(),
                    guarantee: get_str(j, "guarantee")
                        .ok_or("missing `guarantee`")?
                        .to_string(),
                    degraded: get_bool(j, "degraded").ok_or("missing `degraded`")?,
                    cost: j
                        .get("cost")
                        .and_then(Json::as_num)
                        .ok_or("missing `cost`")?,
                    deleted,
                    micros: need_u64(j, "micros")?,
                    ticks: need_u64(j, "ticks")?,
                    attempts: need_u64(j, "attempts")? as u32,
                }))
            }
            "overloaded" => Ok(Response::Overloaded {
                reason: get_str(j, "reason").unwrap_or_default().to_string(),
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded {
                attempts: need_u64(j, "attempts")? as u32,
                micros: need_u64(j, "micros")?,
            }),
            "error" => Ok(Response::Error {
                message: get_str(j, "message").unwrap_or_default().to_string(),
            }),
            "health" => Ok(Response::Health {
                epoch: need_u64(j, "epoch")?,
                label: get_str(j, "label").unwrap_or_default().to_string(),
                inflight: need_u64(j, "inflight")?,
                requests: need_u64(j, "requests")?,
            }),
            "stats" => Ok(Response::Stats {
                metrics: get_str(j, "metrics").unwrap_or_default().to_string(),
            }),
            "epoch" => Ok(Response::Epoch {
                epoch: need_u64(j, "epoch")?,
                label: get_str(j, "label").unwrap_or_default().to_string(),
            }),
            "published" => Ok(Response::Published {
                epoch: need_u64(j, "epoch")?,
                label: get_str(j, "label").unwrap_or_default().to_string(),
            }),
            "delta_published" => Ok(Response::DeltaPublished {
                epoch: need_u64(j, "epoch")?,
                label: get_str(j, "label").unwrap_or_default().to_string(),
                deleted: need_u64(j, "deleted")?,
                restored: need_u64(j, "restored")?,
                overdeleted: need_u64(j, "overdeleted")?,
                rederived: need_u64(j, "rederived")?,
            }),
            other => Err(format!("unknown status `{other}`")),
        }
    }

    /// Render to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().render().into_bytes()
    }

    /// Parse wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
        Response::from_json(&parse(text)?)
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
// JSON field helpers
// -------------------------------------------------------------------

/// Render `(a, b)` pairs as the wire's `[[a, b], ...]` array.
fn pairs_json(pairs: &[(usize, usize)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(a, b)| Json::Arr(vec![Json::uint(a as u64), Json::uint(b as u64)]))
            .collect(),
    )
}

/// Parse an optional `[[a, b], ...]` array field (absent ⇒ empty).
fn parse_pairs(j: &Json, key: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut out = Vec::new();
    if let Some(arr) = j.get(key).and_then(Json::as_arr) {
        for d in arr {
            let [v, i] = d
                .as_arr()
                .and_then(|p| <&[Json; 2]>::try_from(p).ok())
                .ok_or_else(|| format!("`{key}` entries must be [view, index]"))?;
            let v = v
                .as_num()
                .ok_or_else(|| format!("non-numeric view in `{key}`"))?;
            let i = i
                .as_num()
                .ok_or_else(|| format!("non-numeric index in `{key}`"))?;
            out.push((v as usize, i as usize));
        }
    }
    Ok(out)
}

fn get_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match j.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_num).map(|n| n as u64)
}

fn need_u64(j: &Json, key: &str) -> Result<u64, String> {
    get_u64(j, key).ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_bool(j: &Json, key: &str) -> Option<bool> {
    match j.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
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

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        write_frame(&mut bytes, b"").unwrap();
        write_frame(&mut bytes, b"world").unwrap();

        // Feed byte-by-byte: the decoder must tolerate arbitrary splits.
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for b in &bytes {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(
            frames,
            vec![b"hello".to_vec(), Vec::new(), b"world".to_vec()]
        );

        let mut r = &bytes[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected_not_buffered() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME + 1).to_be_bytes());
        assert!(fb.next_frame().is_err());

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut r = &bytes[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"truncated").unwrap();
        bytes.truncate(bytes.len() - 3);
        let mut r = &bytes[..];
        assert!(read_frame(&mut r).is_err());
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
    }
}
