//! The untraced closed loop: a live `delpropd` over TCP loopback.
//!
//! Every connection sends its next request only after the previous
//! answer arrived, so a slower daemon receives less load. Round trips
//! are timed at the client, request encode to response decode.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use delprop_server::{Client, Request, Response};

use crate::probe;
use crate::workload::{Stream, Workload};

/// How long each connection keeps sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// A fixed number of operations per connection (warm-up).
    Count(u64),
    /// Until this instant; the operation in flight completes.
    Deadline(Instant),
}

impl Until {
    /// Whether to send operation number `sent` (0-based).
    pub fn more(self, sent: u64) -> bool {
        match self {
            Until::Count(n) => sent < n,
            Until::Deadline(d) => Instant::now() < d,
        }
    }
}

/// One `solve` round trip.
#[derive(Debug)]
pub struct Solve {
    /// Reader connection.
    pub conn: usize,
    /// Position in that connection's request stream.
    pub index: u64,
    /// When it was sent, s since the window opened.
    pub at_s: f64,
    /// Client-measured round trip, µs.
    pub rtt_us: f64,
    /// Factor to the reference speed of the block it ran in (see
    /// [`probe`](crate::probe)); 1 outside [`Conns::run_scaled`].
    pub scale: f64,
    /// The `ok` answer, or why there was none.
    pub answer: Result<Answer, String>,
}

/// What the client keeps of an `ok` answer: enough to check it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Certified cost.
    pub cost: f64,
    /// Whether the daemon flagged it degraded.
    pub degraded: bool,
    /// Time the daemon's engine spent on it, µs.
    pub micros: u64,
    /// ΔD as `(relation, index)` pairs. Equal answers share one copy,
    /// so the client's memory stays small beside the daemon's.
    pub deleted: Arc<[(usize, usize)]>,
}

/// What a `delta_published` answer reported.
#[derive(Debug, Clone, Copy)]
pub struct Published {
    /// The epoch the batch created.
    pub epoch: u64,
    /// Deletions applied.
    pub deleted: u64,
    /// Restores applied.
    pub restored: u64,
}

/// One `publish_delta` round trip.
#[derive(Debug)]
pub struct Publish {
    /// Writer step (see [`Stream::publish`]).
    pub step: u64,
    /// Client-measured round trip, µs.
    pub rtt_us: f64,
    /// Factor to the reference speed, as for [`Solve::scale`].
    pub scale: f64,
    /// The publish answer, or why there was none.
    pub answer: Result<Published, String>,
}

/// Everything one window of load produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Solve round trips, per connection in send order.
    pub solves: Vec<Solve>,
    /// Publish round trips in send order.
    pub publishes: Vec<Publish>,
    /// Wall-clock from the first send to the last answer, s (summed
    /// over blocks, so probes between them are not counted).
    pub elapsed_s: f64,
    /// The same at the reference speed, s.
    pub ref_elapsed_s: f64,
}

/// A connection and the position of its next request.
struct Conn {
    client: Client,
    next: u64,
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let client = Client::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(Conn { client, next: 0 })
}

/// The benchmark's open connections: one per reader, plus the writer's.
pub struct Conns {
    readers: Vec<Conn>,
    writer: Option<Conn>,
}

impl Conns {
    /// Open every connection `w` uses.
    pub fn open(addr: SocketAddr, w: &Workload) -> Result<Conns, String> {
        Ok(Conns {
            readers: (0..w.readers)
                .map(|_| connect(addr))
                .collect::<Result<_, _>>()?,
            writer: if w.writer { Some(connect(addr)?) } else { None },
        })
    }

    /// Drive every connection concurrently until `until`; streams
    /// continue where the previous window stopped.
    pub fn run(&mut self, stream: &Stream, until: Until) -> Window {
        let start = Instant::now();
        let period = stream.publish_period();
        let (solves, publishes) = std::thread::scope(|s| {
            let readers: Vec<_> = self
                .readers
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| s.spawn(move || read_loop(conn, c, stream, start, until)))
                .collect();
            let writer = self
                .writer
                .as_mut()
                .map(|conn| s.spawn(move || write_loop(conn, stream, period, until)));
            let solves: Vec<Solve> = readers
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread panicked"))
                .collect();
            let publishes = writer
                .map(|h| h.join().expect("writer thread panicked"))
                .unwrap_or_default();
            (solves, publishes)
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        Window {
            solves,
            publishes,
            elapsed_s,
            ref_elapsed_s: elapsed_s,
        }
    }

    /// Drive the load until `deadline` in blocks of `block`, timing the
    /// reference probe between blocks while every connection is idle.
    /// Each round trip is stamped with the [`probe::scale`] of the probes
    /// around its block; send times count from the first block's start.
    pub fn run_scaled(&mut self, stream: &Stream, deadline: Instant, block: Duration) -> Window {
        let start = Instant::now();
        let mut out = Window::default();
        let mut before = probe::probe();
        while Instant::now() < deadline {
            let offset_s = start.elapsed().as_secs_f64();
            let end = deadline.min(Instant::now() + block);
            let w = self.run(stream, Until::Deadline(end));
            let after = probe::probe();
            let scale = probe::scale(before, after);
            before = after;
            out.solves.extend(w.solves.into_iter().map(|s| Solve {
                at_s: s.at_s + offset_s,
                scale,
                ..s
            }));
            out.publishes
                .extend(w.publishes.into_iter().map(|p| Publish { scale, ..p }));
            out.elapsed_s += w.elapsed_s;
            out.ref_elapsed_s += w.elapsed_s * scale;
        }
        out
    }
}

fn read_loop(
    conn: &mut Conn,
    c: usize,
    stream: &Stream,
    start: Instant,
    until: Until,
) -> Vec<Solve> {
    let mut out = Vec::new();
    let mut seen: HashSet<Arc<[(usize, usize)]>> = HashSet::new();
    let mut sent = 0;
    while until.more(sent) {
        let index = conn.next;
        let req = Request::Solve(stream.solve(c, index));
        let t = Instant::now();
        let resp = conn.client.request(&req);
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        conn.next += 1;
        sent += 1;
        let broken = resp.is_err();
        let answer = match resp {
            Ok(Response::Ok(ok)) => {
                let deleted = match seen.get(ok.deleted.as_slice()) {
                    Some(d) => Arc::clone(d),
                    None => {
                        let d: Arc<[(usize, usize)]> = ok.deleted.into();
                        seen.insert(Arc::clone(&d));
                        d
                    }
                };
                Ok(Answer {
                    epoch: ok.epoch,
                    cost: ok.cost,
                    degraded: ok.degraded,
                    micros: ok.micros,
                    deleted,
                })
            }
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(format!("transport: {e}")),
        };
        out.push(Solve {
            conn: c,
            index,
            at_s: t.duration_since(start).as_secs_f64(),
            rtt_us,
            scale: 1.0,
            answer,
        });
        if broken {
            break;
        }
    }
    out
}

fn write_loop(conn: &mut Conn, stream: &Stream, period: Duration, until: Until) -> Vec<Publish> {
    let mut out = Vec::new();
    let mut sent = 0;
    let mut due = Instant::now();
    // A delete is always followed by its restore, so every window
    // leaves the instance as it found it.
    while until.more(sent) || !conn.next.is_multiple_of(2) {
        // Paced: wait out the period, but never send ahead of a reply.
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        due = due.max(Instant::now()) + period;
        let step = conn.next;
        let req = stream.publish(step);
        let t = Instant::now();
        let resp = conn.client.request(&req);
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        conn.next += 1;
        sent += 1;
        let broken = resp.is_err();
        let answer = match resp {
            Ok(Response::DeltaPublished {
                epoch,
                deleted,
                restored,
                ..
            }) => Ok(Published {
                epoch,
                deleted,
                restored,
            }),
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(format!("transport: {e}")),
        };
        out.push(Publish {
            step,
            rtt_us,
            scale: 1.0,
            answer,
        });
        if broken {
            break;
        }
    }
    out
}

/// The daemon's counters, from the `stats` op (histogram lines, which
/// carry no single value, are skipped).
pub fn stats(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut conn = connect(addr)?;
    match conn.client.request(&Request::Stats) {
        Ok(Response::Stats { metrics }) => Ok(metrics
            .lines()
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect()),
        Ok(other) => Err(format!("stats: unexpected answer {other:?}")),
        Err(e) => Err(format!("stats: {e}")),
    }
}
