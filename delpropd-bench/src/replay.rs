//! The traced run: the same seeded request stream, replayed in process
//! through each layer's public functions, every call timed from
//! outside. No layer's code is touched.
//!
//! A solve walks the daemon's own path — `Request::from_bytes`,
//! `Gate::acquire`, `EpochCell::snapshot`, `Engine::with_delta`,
//! `Portfolio::solve` / `solve_sharded`, `Response::to_bytes` — plus
//! the client's encode and decode, all under one `request` root span.
//! A publish walks `EpochCell::snapshot`, `Engine::clone`,
//! `Engine::apply` and `EpochCell::publish` under a `publish` root.
//! Probes that re-run one layer in isolation (`verify`,
//! `shard.partition`, `shard.solve`) run after their request's root
//! closes, so they never count toward it.
//!
//! Spans stay in memory, one buffer per thread, and are written out as
//! JSONL only when the run ends. Every other request of a connection
//! runs untraced (the same calls, with only the root timed), so the
//! cost of tracing itself is measured in the same window.

use std::io::Write;
use std::time::{Duration, Instant};

use delprop_core::runtime::{Budget, EpochCell, EpochSnapshot, MemberStatus, Portfolio};
use delprop_core::shard;
use delprop_core::solvers::local_search::Objective;
use delprop_core::{DeltaBatch, Problem, Solution};
use delprop_query::ViewTupleId;
use delprop_server::{
    ActiveRequests, AdmissionConfig, EngineConfig, Gate, Request, Response, ServingInstance,
    SolveOk,
};

use crate::load::Until;
use crate::workload::{Stream, Workload};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused it.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// Layer call, e.g. `"engine.with_delta"`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration, µs.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A value a layer reported about its own work (a count, or a time it
/// measured itself), attached to the span that returned it.
#[derive(Debug, Clone)]
pub struct Measure {
    /// Span whose call returned the value.
    pub span: u64,
    /// Request the value belongs to.
    pub request: u64,
    /// Metric name, e.g. `"member.lowdeg_tree_us"`.
    pub name: String,
    /// The value.
    pub value: f64,
}

/// Everything the traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, all threads.
    pub spans: Vec<Span>,
    /// Every self-reported value.
    pub measures: Vec<Measure>,
    /// Root durations of untraced solve requests, µs.
    pub untraced_roots: Vec<f64>,
    /// Solves replayed (traced and untraced).
    pub solves: u64,
    /// Publishes replayed.
    pub publishes: u64,
    /// Replayed operations that did not succeed.
    pub failed: u64,
    /// Why the first failure happened, if any did.
    pub first_failure: Option<String>,
}

/// One thread's span buffer.
struct Tracer {
    origin: Instant,
    lane: u64,
    spans: Vec<Span>,
    measures: Vec<Measure>,
}

impl Tracer {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let id = (self.lane << 40) | self.spans.len() as u64;
        let start_ns = self.ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: u64) {
        let end = self.ns();
        let slot = (id & ((1 << 40) - 1)) as usize;
        self.spans[slot].end_ns = end;
    }
}

/// A request in progress: which request, which span is the current
/// parent, and the tracer when this request is traced.
struct Ctx<'a> {
    tracer: Option<&'a mut Tracer>,
    request: u64,
    parent: Option<u64>,
}

impl Ctx<'_> {
    /// Run `f` as a span named `name` under the current parent.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        match self.tracer.as_deref_mut() {
            Some(t) => {
                let id = t.open(name, self.parent, self.request);
                let out = f();
                t.close(id);
                (out, id)
            }
            None => (f(), 0),
        }
    }

    fn measure(&mut self, span: u64, name: impl Into<String>, value: f64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.measures.push(Measure {
                span,
                request: self.request,
                name: name.into(),
                value,
            });
        }
    }
}

/// The daemon-side state the replay drives, built exactly as
/// `Daemon::spawn` builds it.
struct Shared {
    cell: EpochCell<ServingInstance>,
    gate: Gate,
    active: ActiveRequests,
    admission_wait: Duration,
    deadline: Duration,
}

fn ids(pairs: &[(usize, usize)]) -> Vec<ViewTupleId> {
    pairs.iter().map(|&(v, i)| ViewTupleId::new(v, i)).collect()
}

/// Replay `w`'s stream against a fresh in-process instance until
/// `until`, one thread per connection as in the untraced load.
pub fn run(w: &Workload, stream: &Stream, until: Until) -> Result<Trace, String> {
    let admission = AdmissionConfig::default();
    let instance =
        ServingInstance::build(w.name, &w.spec).map_err(|e| format!("build instance: {e}"))?;
    let shared = Shared {
        cell: EpochCell::new(instance),
        gate: Gate::new(admission),
        active: ActiveRequests::new(),
        admission_wait: admission.max_wait,
        deadline: Duration::from_millis(EngineConfig::default().default_deadline_ms),
    };
    let origin = Instant::now();
    let tracer = |lane: u64| Tracer {
        origin,
        lane,
        spans: Vec::new(),
        measures: Vec::new(),
    };
    let parts: Vec<(Tracer, Trace)> = std::thread::scope(|s| {
        let shared = &shared;
        let mut handles: Vec<_> = (0..w.readers)
            .map(|c| {
                let mut t = tracer(c as u64);
                s.spawn(move || {
                    let part = read_loop(shared, stream, c, until, &mut t);
                    (t, part)
                })
            })
            .collect();
        if w.writer {
            let mut t = tracer(w.readers as u64);
            handles.push(s.spawn(move || {
                let part = write_loop(shared, stream, until, &mut t);
                (t, part)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut trace = Trace::default();
    for (t, part) in parts {
        trace.spans.extend(t.spans);
        trace.measures.extend(t.measures);
        trace.untraced_roots.extend(part.untraced_roots);
        trace.solves += part.solves;
        trace.publishes += part.publishes;
        trace.failed += part.failed;
        trace.first_failure = trace.first_failure.or(part.first_failure);
    }
    Ok(trace)
}

fn read_loop(shared: &Shared, stream: &Stream, c: usize, until: Until, t: &mut Tracer) -> Trace {
    let mut part = Trace::default();
    let mut i = 0u64;
    while until.more(i) {
        // Request ids are unique across lanes: lane in the high bits.
        let request = (t.lane << 40) | i;
        let result = if i.is_multiple_of(2) {
            let root = t.open("request", None, request);
            let result = solve(
                shared,
                stream,
                c,
                i,
                &mut Ctx {
                    tracer: Some(&mut *t),
                    request,
                    parent: Some(root),
                },
            );
            t.close(root);
            result.map(|answer| {
                let mut ctx = Ctx {
                    tracer: Some(&mut *t),
                    request,
                    parent: Some(root),
                };
                probe(&mut ctx, &answer);
            })
        } else {
            let started = Instant::now();
            let mut ctx = Ctx {
                tracer: None,
                request,
                parent: None,
            };
            // Timed like a traced root: up to the answer, not its drop.
            let result = solve(shared, stream, c, i, &mut ctx);
            part.untraced_roots
                .push(started.elapsed().as_secs_f64() * 1e6);
            result.map(drop)
        };
        part.solves += 1;
        if let Err(e) = result {
            part.failed += 1;
            part.first_failure.get_or_insert(e);
        }
        i += 1;
    }
    part
}

/// What a replayed solve leaves for its probes.
struct Answer {
    snap: EpochSnapshot<ServingInstance>,
    /// The request's own problem, when it carried extra ΔV.
    owned: Option<Problem>,
    solution: Solution,
    winner: &'static str,
    sharded: bool,
}

impl Answer {
    fn problem(&self) -> &Problem {
        self.owned.as_ref().unwrap_or(self.snap.engine.problem())
    }
}

/// One solve along the daemon's path. The caller closes the root, then
/// hands the answer to [`probe`].
fn solve(
    shared: &Shared,
    stream: &Stream,
    c: usize,
    i: u64,
    ctx: &mut Ctx<'_>,
) -> Result<Answer, String> {
    let (bytes, _) = ctx.time("wire.client_encode", || {
        Request::Solve(stream.solve(c, i)).to_bytes()
    });
    let (req, _) = ctx.time("wire.decode", || Request::from_bytes(&bytes));
    let Request::Solve(req) = req? else {
        return Err("replayed a non-solve request".to_string());
    };
    let (permit, _) = ctx.time("admission.wait", || {
        shared.gate.acquire(&req.tenant, shared.admission_wait)
    });
    let permit = permit.map_err(|e| format!("shed: {e}"))?;
    let (snap, _) = ctx.time("epoch.pin", || shared.cell.snapshot());
    let portfolio = Portfolio::standard();
    let owned = if req.deletions.is_empty() {
        None
    } else {
        let (p, _) = ctx.time("engine.with_delta", || {
            snap.engine.with_delta(&ids(&req.deletions))
        });
        Some(p.map_err(|e| format!("bad deletion: {e}"))?)
    };
    let problem = owned.as_ref().unwrap_or(snap.engine.problem());
    let budget = Budget::unlimited().with_deadline(shared.deadline);
    let active = shared.active.register(&budget);
    let sharded = req.sharded == Some(true);
    let (outcome, solve_span) = ctx.time("portfolio.solve", || {
        if sharded {
            portfolio.solve_sharded(problem, &budget)
        } else {
            portfolio.solve(problem, &budget)
        }
    });
    shared.active.deregister(active);
    let outcome = outcome.map_err(|e| format!("solve failed: {e}"))?;

    ctx.measure(solve_span, "ir.compile_us", outcome.compile_micros as f64);
    ctx.measure(solve_span, "portfolio.ticks", budget.used() as f64);
    let mut members_run = 0;
    for r in &outcome.report {
        if matches!(r.status, MemberStatus::Skipped | MemberStatus::NotReached) {
            continue;
        }
        members_run += 1;
        ctx.measure(solve_span, format!("member.{}_us", r.name), r.micros as f64);
        ctx.measure(
            solve_span,
            format!("member.{}.ticks", r.name),
            r.ticks as f64,
        );
    }
    ctx.measure(solve_span, "portfolio.members_run", f64::from(members_run));

    let guarantee = outcome
        .report
        .iter()
        .find(|r| r.name == outcome.winner)
        .map(|r| r.guarantee.to_string())
        .unwrap_or_default();
    let ok = SolveOk {
        epoch: snap.epoch(),
        winner: outcome.winner.to_string(),
        guarantee,
        degraded: budget.is_exhausted() || budget.is_cancelled(),
        cost: outcome.cost,
        deleted: outcome
            .solution
            .deleted
            .iter()
            .map(|t| (t.relation.0, t.index))
            .collect(),
        micros: 0,
        ticks: budget.used(),
        attempts: 1,
    };
    let (bytes, encode_span) = ctx.time("wire.encode", || Response::Ok(ok).to_bytes());
    ctx.measure(encode_span, "wire.response_bytes", bytes.len() as f64);
    drop(permit);
    let (resp, _) = ctx.time("wire.client_decode", || Response::from_bytes(&bytes));
    resp?;
    Ok(Answer {
        snap,
        owned,
        solution: outcome.solution,
        winner: outcome.winner,
        sharded,
    })
}

/// Re-run single layers on one answer's data, after its root closed.
fn probe(ctx: &mut Ctx<'_>, answer: &Answer) {
    let problem = answer.problem();
    if answer.sharded {
        // Shards verify per component inside `solve_sharded_ir`.
        let ir = problem.compiled_arc();
        let (part, span) = ctx.time("shard.partition", || shard::partition(&ir));
        ctx.measure(span, "shard.count", part.shards.len() as f64);
        let _ = ctx.time("shard.solve", || {
            shard::solve_sharded_ir(&ir, Objective::Standard, &Budget::unlimited())
        });
    } else {
        // The winner's verification, as the portfolio ran it inside the
        // winner's member span: a member's self time is its span less
        // this.
        let (_, verify) = ctx.time("verify", || {
            answer.solution.is_feasible(problem)
                && answer.solution.verify_by_reevaluation(problem).is_finite()
        });
        ctx.measure(verify, format!("member.{}.won", answer.winner), 1.0);
    }
}

fn write_loop(shared: &Shared, stream: &Stream, until: Until, t: &mut Tracer) -> Trace {
    let mut part = Trace::default();
    let mut step = 0u64;
    let mut due = Instant::now();
    while until.more(step) || !step.is_multiple_of(2) {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        due = due.max(Instant::now()) + stream.publish_period();
        let request = (t.lane << 40) | step;
        let root = t.open("publish", None, request);
        let mut ctx = Ctx {
            tracer: Some(&mut *t),
            request,
            parent: Some(root),
        };
        let result = publish(shared, stream, step, &mut ctx);
        t.close(root);
        part.publishes += 1;
        if let Err(e) = result {
            part.failed += 1;
            part.first_failure.get_or_insert(e);
        }
        step += 1;
    }
    part
}

/// One `publish_delta` along the daemon's path.
fn publish(shared: &Shared, stream: &Stream, step: u64, ctx: &mut Ctx<'_>) -> Result<(), String> {
    let Request::PublishDelta {
        deletions,
        restores,
    } = stream.publish(step)
    else {
        return Err("writer stream produced a non-publish request".to_string());
    };
    let (snap, _) = ctx.time("epoch.pin", || shared.cell.snapshot());
    let (mut engine, _) = ctx.time("engine.clone", || snap.engine.clone());
    let batch = DeltaBatch {
        delete: ids(&deletions),
        restore: ids(&restores),
    };
    let (report, apply) = ctx.time("engine.apply", || engine.apply(&batch));
    let report = report.map_err(|e| format!("delta publish failed: {e}"))?;
    ctx.measure(apply, "engine.overdeleted", report.overdeleted as f64);
    ctx.measure(apply, "engine.rederived", report.rederived as f64);
    let label = snap.label.clone();
    let _ = ctx.time("epoch.publish", || {
        shared.cell.publish(ServingInstance { label, engine })
    });
    Ok(())
}

/// Write every span and measure as one JSON object per line.
pub fn write_jsonl(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &trace.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"kind":"span","id":{},"parent":{parent},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    for m in &trace.measures {
        writeln!(
            out,
            r#"{{"kind":"measure","span":{},"request":{},"name":"{}","value":{}}}"#,
            m.span, m.request, m.name, m.value
        )?;
    }
    out.flush()
}
