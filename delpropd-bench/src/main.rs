//! `delpropd-bench`: a closed-loop end-to-end benchmark of the
//! `delpropd` daemon, with a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path delpropd-bench/Cargo.toml -- \
//!     --workload <solve-forest|delta-mix|solve-shard|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run spawns an in-process daemon (several times, to time set-up),
//! drives it over TCP loopback from closed-loop client threads for the
//! timed window, then checks every answer on the client side. Gated
//! times are expressed at a reference machine speed (see `probe`). With
//! `--trace 1` half the window is the untraced load and the other half
//! replays the same request stream through each layer's public
//! functions with spans (see `replay`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

mod check;
mod ledger;
mod load;
mod probe;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use delprop_server::{Daemon, ServerConfig};

use crate::ledger::{Ledger, MEMBERS};
use crate::load::{Conns, Until, Window};
use crate::stats::{OpCounts, Summary};
use crate::workload::{Stream, Workload, NAMES};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Load between two reference probes.
const BLOCK: Duration = Duration::from_millis(100);
/// Warm-up operations per connection, counted in set-up time.
const WARMUP_OPS: u64 = 3;

const USAGE: &str = "usage: delpropd-bench --workload <solve-forest|delta-mix|solve-shard|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("delpropd-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        match run(name, &args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("delpropd-bench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A daemon with its client connections and its warm-up. Connections
/// are declared first so they close before the daemon shuts down.
struct Served {
    conns: Conns,
    warmup: Window,
    daemon: Daemon,
}

/// Spawn the daemon, connect, and warm up: what `setup_s` times.
fn set_up(w: &Workload, stream: &Stream) -> Result<Served, String> {
    let cfg = ServerConfig {
        initial: w.spec.clone(),
        initial_label: w.name.to_string(),
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    let addr = daemon.tcp_addr().ok_or("daemon has no TCP address")?;
    let mut conns = Conns::open(addr, w)?;
    let warmup = conns.run(stream, Until::Count(WARMUP_OPS));
    Ok(Served {
        conns,
        warmup,
        daemon,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Machine-wide CPU jiffies from `/proc/stat`: (total, busy, steal).
fn cpu_times() -> Option<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let total: u64 = f.iter().take(8).sum();
    let idle = f.get(3)? + f.get(4)?;
    Some((total, total - idle, *f.get(7)?))
}

/// One named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Run one workload; returns whether every answer passed the check.
fn run(name: &str, args: &Args) -> Result<bool, String> {
    let w = Workload::named(name).ok_or_else(|| format!("unknown workload\n{USAGE}"))?;
    // The client's own copy of the instance: the stream draws from it
    // and the check recomputes against it.
    let base = w.spec.build().map_err(|e| format!("build instance: {e}"))?;
    let stream = Stream::new(&w, &base, args.seed);

    // Each set-up is timed between two probes, like a block of load.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    let mut before = probe::probe();
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let t = Instant::now();
        served = Some(set_up(&w, &stream)?);
        let setup = t.elapsed().as_secs_f64();
        let after = probe::probe();
        raw_setups.push(setup);
        setups.push(setup * probe::scale(before, after));
        before = after;
    }
    let Served {
        mut conns,
        warmup,
        mut daemon,
    } = served.ok_or("no set-up ran")?;
    let addr = daemon.tcp_addr().ok_or("daemon has no TCP address")?;

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let before = load::stats(addr)?;
    let cpu_before = cpu_times();
    let timed = conns.run_scaled(&stream, Instant::now() + window, BLOCK);
    let cpu_after = cpu_times();
    let after = load::stats(addr)?;
    drop(conns);
    daemon.shutdown();
    let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);

    let report = check::check(&base, &stream, &[&warmup], &timed);
    let correct = report.solves_bad == 0 && report.publishes_bad == 0;

    let solves_ok = timed.solves.iter().filter(|s| s.answer.is_ok()).count() as u64;
    let publishes_ok = timed.publishes.iter().filter(|p| p.answer.is_ok()).count() as u64;
    let solve_counts = OpCounts {
        sent: timed.solves.len() as u64,
        ok: solves_ok - report.solves_bad,
        failed: timed.solves.len() as u64 - solves_ok + report.solves_bad,
    };
    let publish_counts = OpCounts {
        sent: timed.publishes.len() as u64,
        ok: publishes_ok - report.publishes_bad,
        failed: timed.publishes.len() as u64 - publishes_ok + report.publishes_bad,
    };
    if solves_ok == 0 {
        return Err(format!(
            "no solve succeeded ({solve_counts}); first answer: {:?}",
            timed.solves.first().map(|s| &s.answer)
        ));
    }
    let oks: Vec<_> = timed
        .solves
        .iter()
        .filter_map(|s| s.answer.as_ref().ok())
        .collect();
    let mut ok_solves: Vec<_> = timed.solves.iter().filter(|s| s.answer.is_ok()).collect();
    ok_solves.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    // Round trips at the reference speed, in send order.
    let rtts: Vec<f64> = ok_solves.iter().map(|s| s.rtt_us * s.scale).collect();
    let solve = Summary::of(&mut rtts.clone());
    let solve_p99 = stats::sliced_p99(&rtts);
    let raw_solve = Summary::of(&mut ok_solves.iter().map(|s| s.rtt_us).collect::<Vec<_>>());
    let scales = Summary::of(&mut ok_solves.iter().map(|s| s.scale).collect::<Vec<_>>());
    let publish = Summary::of(
        &mut timed
            .publishes
            .iter()
            .filter(|p| p.answer.is_ok())
            .map(|p| p.rtt_us * p.scale)
            .collect::<Vec<_>>(),
    );
    let attempted = solve_counts.sent + publish_counts.sent;
    let failed = solve_counts.failed + publish_counts.failed;
    let error_frac = failed as f64 / attempted as f64;
    let degraded_frac = oks.iter().filter(|o| o.degraded).count() as f64 / oks.len() as f64;
    let mean_cost = oks.iter().map(|o| o.cost).sum::<f64>() / oks.len() as f64;
    let setup_s = Summary::of(&mut setups).p50;

    println!(
        "== {} (seed {}, {} reader + {} writer connection(s), closed loop, {:.1} s window, {} available core(s))",
        w.name,
        args.seed,
        w.readers,
        usize::from(w.writer),
        timed.elapsed_s,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "   instance: {:?} (‖V‖={}, ‖ΔV‖={})",
        w.spec,
        base.norm_v(),
        base.norm_delta()
    );
    if let (Some(b), Some(a)) = (cpu_before, cpu_after) {
        let total = (a.0 - b.0).max(1);
        println!(
            "   machine during the window: {:.1}% busy, {:.1}% stolen by the host",
            100.0 * (a.1 - b.1) as f64 / total as f64,
            100.0 * (a.2 - b.2) as f64 / total as f64
        );
    }
    println!(
        "   reference probe: median block scale {:.3} (probe ≈ {:.1} µs, reference {} µs); \
         set-up raw median {:.4} s",
        scales.p50,
        probe::REF_US / scales.p50,
        probe::REF_US,
        Summary::of(&mut raw_setups).p50
    );
    println!("   solve    {solve_counts}  raw round trip µs: {raw_solve}");
    println!("   solve    at reference speed, µs: {solve}");
    println!(
        "     p99 median over {} slices in send order: {}",
        stats::slices(rtts.len()),
        solve_p99.map_or("n/a".to_string(), |p| format!("{p:.1}"))
    );
    println!("   publish  {publish_counts}  at reference speed, µs: {publish}");
    for m in &report.messages {
        println!("   CHECK FAILED: {m}");
    }

    let trace = if args.trace {
        let trace = replay::run(&w, &stream, Until::Deadline(Instant::now() + window))?;
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        replay::write_jsonl(&trace, &out).map_err(|e| format!("write {}: {e}", out.display()))?;
        println!(
            "   traced replay: {} solves, {} publishes, {} failed; {} spans in {}",
            trace.solves,
            trace.publishes,
            trace.failed,
            trace.spans.len(),
            out.display()
        );
        if let Some(e) = &trace.first_failure {
            println!("   REPLAY FAILED: {e}");
        }
        Some(trace)
    } else {
        None
    };

    // The traced run reports no end-to-end metric, so only the untraced
    // one needs a supported p99 in every slice.
    let solve_p99 = match (solve_p99, &trace) {
        (Some(p99), _) => p99,
        (None, Some(_)) => 0.0,
        (None, None) => {
            return Err(format!(
                "{} solves are too few for a supported p99; raise --seconds",
                solve.n
            ))
        }
    };
    let end_to_end = [
        metric("solve_p50_us", "us", solve.p50),
        metric("solve_p99_us", "us", solve_p99),
        metric(
            "solve_rps",
            "1/s",
            solve_counts.ok as f64 / timed.ref_elapsed_s,
        ),
        metric("mean_cost", "cost", mean_cost),
        metric("setup_s", "s", setup_s),
        metric("rss_peak_mib", "MiB", rss_peak_mib()?),
    ];
    // End-to-end too, but not gated: zero where the workload has no
    // writer, or when nothing failed or degraded.
    let reported = [
        metric("publish_p50_us", "us", publish.p50),
        metric("publish_p99_us", "us", publish.p99.unwrap_or(0.0)),
        metric("error_frac", "frac", error_frac),
        metric("degraded_frac", "frac", degraded_frac),
    ];
    println!("   end to end:");
    print_metrics(end_to_end.iter().chain(&reported));

    let (metrics, attempted, failed) = match &trace {
        Some(trace) => {
            let ledger = Ledger::of(trace);
            // The replay is timed raw, so it reconciles against raw times.
            let mut layers = per_layer(&ledger, trace, &timed, raw_solve.p50, &delta);
            layers.extend(reported);
            println!("   per layer:");
            print_metrics(layers.iter());
            (
                layers,
                attempted + trace.solves + trace.publishes,
                failed + trace.failed,
            )
        }
        None => (end_to_end.into(), attempted, failed),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
    Ok(correct)
}

fn print_metrics<'a>(metrics: impl Iterator<Item = &'a Metric>) {
    for m in metrics {
        println!("     {:<30} {:>14.3}  {}", m.name, m.value, m.unit);
    }
}

/// The per-layer metrics of the traced run.
fn per_layer(
    l: &Ledger,
    trace: &replay::Trace,
    timed: &Window,
    untraced_p50: f64,
    counter: &dyn Fn(&str) -> f64,
) -> Vec<Metric> {
    let span = |name: &str| l.span(name).p50;
    let mut m = vec![
        metric("wire.client_encode_us", "us", span("wire.client_encode")),
        metric("wire.decode_us", "us", span("wire.decode")),
        metric("wire.encode_us", "us", span("wire.encode")),
        metric("wire.client_decode_us", "us", span("wire.client_decode")),
        metric(
            "wire.response_bytes",
            "bytes",
            l.value("wire.response_bytes").p50,
        ),
        metric("admission.wait_us", "us", span("admission.wait")),
        metric(
            "admission.shed",
            "count",
            counter("serve.shed.tenant")
                + counter("serve.shed.queue")
                + counter("serve.shed.timeout"),
        ),
        metric("epoch.pin_us", "us", span("epoch.pin")),
        metric("epoch.publish_us", "us", span("epoch.publish")),
        metric("engine.with_delta_us", "us", span("engine.with_delta")),
        metric("engine.clone_us", "us", span("engine.clone")),
        metric("engine.apply_us", "us", span("engine.apply")),
        metric("engine.overdeleted", "count", l.mean("engine.overdeleted")),
        metric("engine.rederived", "count", l.mean("engine.rederived")),
        metric("ir.compile_us", "us", l.value("ir.compile_us").p50),
        metric("ir.compiles", "count", counter("ir.compiles")),
        metric("portfolio.solve_us", "us", span("portfolio.solve")),
        metric(
            "portfolio.members_run",
            "count",
            l.value("portfolio.members_run").p50,
        ),
        metric("portfolio.ticks", "ticks", l.value("portfolio.ticks").p50),
    ];
    for name in MEMBERS {
        m.push(metric(
            format!("member.{name}_us"),
            "us",
            l.value(&format!("member.{name}_us")).p50,
        ));
        m.push(metric(
            format!("member.{name}.self_us"),
            "us",
            l.value(&format!("member.{name}.self_us")).p50,
        ));
        m.push(metric(
            format!("member.{name}.ticks"),
            "ticks",
            l.value(&format!("member.{name}.ticks")).p50,
        ));
    }
    let (mut server, mut transport): (Vec<f64>, Vec<f64>) = timed
        .solves
        .iter()
        .filter_map(|s| {
            let micros = s.answer.as_ref().ok()?.micros as f64;
            Some((micros, s.rtt_us - micros))
        })
        .unzip();
    let traced_root = l.wall("request");
    let untraced_root = Summary::of(&mut trace.untraced_roots.clone());
    let path = l.path_us();
    m.extend([
        metric("verify_us", "us", span("verify")),
        metric("shard.partition_us", "us", span("shard.partition")),
        metric("shard.count", "count", l.value("shard.count").p50),
        metric("shard.solve_us", "us", span("shard.solve")),
        metric("server.micros", "us", Summary::of(&mut server).p50),
        metric("transport_us", "us", Summary::of(&mut transport).p50),
        metric("server.retries", "count", counter("serve.retries")),
        metric("server.degraded", "count", counter("serve.degraded")),
        metric("server.fallbacks", "count", counter("serve.fallbacks")),
        metric("replay.request_us", "us", traced_root.p50),
        metric("replay.self_us", "us", span("request")),
        metric(
            "trace_overhead_us",
            "us",
            traced_root.p50 - untraced_root.p50,
        ),
        metric("unaccounted_us", "us", untraced_p50 - path),
    ]);

    println!("   per-layer self time, traced replay (µs):");
    for name in ledger::SOLVE_PATH.iter().chain(&[
        "request",
        "verify",
        "shard.partition",
        "shard.solve",
        "epoch.publish",
        "engine.clone",
        "engine.apply",
        "publish",
    ]) {
        println!("     {name:<22} {}", l.span(name));
    }
    println!(
        "   reconciliation: untraced solve p50 {untraced_p50:.1} µs, layer medians on the path {path:.1} µs, \
         unaccounted {:.1} µs ({:.1}% of p50; target ≤10%)",
        untraced_p50 - path,
        100.0 * (untraced_p50 - path) / untraced_p50
    );
    println!(
        "   tracing overhead: traced request p50 {:.1} µs vs untraced {:.1} µs (n={} / {})",
        traced_root.p50, untraced_root.p50, traced_root.n, untraced_root.n
    );
    m
}
