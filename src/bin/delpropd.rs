//! The `delpropd` CLI: run the serving daemon, or talk to one.
//!
//! ```text
//! delpropd serve [--listen ADDR] [--unix PATH] [--instance forest|random|fig1]
//!                [--seed N] [--max-inflight N] [--max-per-tenant N]
//!                [--max-queued N] [--deadline-ms N] [--max-retries N]
//!                [--no-racing]
//! delpropd request <ADDR> <JSON>     # one framed request, print the response
//! delpropd health  <ADDR>            # shorthand for {"op":"health"}
//! ```
//!
//! `serve` prints the bound address on stdout (`listening <addr>`),
//! then runs until stdin reaches EOF or a line reading `quit` — no
//! signal-handling dependencies needed. `request` speaks the
//! length-prefixed JSON wire protocol and prints the JSON response.

use std::process::ExitCode;

use delprop::server::{Bind, Client, Daemon, InstanceSpec, Request, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("request") => request(&args[1..], None),
        Some("health") => request(&args[1..], Some(r#"{"op":"health"}"#)),
        Some("--help") | Some("-h") | None => {
            println!(
                "usage: delpropd serve [--listen ADDR] [--unix PATH] \
                 [--instance forest|random|fig1] [--seed N] [--max-inflight N] \
                 [--max-per-tenant N] [--max-queued N] [--deadline-ms N] \
                 [--max-retries N] [--no-racing]\n\
                 \x20      delpropd request <ADDR> <JSON>\n\
                 \x20      delpropd health <ADDR>"
            );
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown command {other:?} (try serve, request, health)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("delpropd: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(args: &[String], i: usize, flag: &str) -> Result<u64, String> {
    args.get(i)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig::default();
    let mut seed = 1u64;
    let mut kind = "forest".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let addr = args.get(i).ok_or("--listen needs an address")?;
                cfg.bind = Bind::Tcp(addr.clone());
            }
            "--unix" => {
                i += 1;
                let path = args.get(i).ok_or("--unix needs a path")?;
                #[cfg(unix)]
                {
                    cfg.bind = Bind::Unix(std::path::PathBuf::from(path));
                }
                #[cfg(not(unix))]
                return Err(format!("--unix {path}: not supported on this platform"));
            }
            "--instance" => {
                i += 1;
                kind = args.get(i).ok_or("--instance needs a kind")?.clone();
            }
            "--seed" => {
                i += 1;
                seed = parse_u64(args, i, "--seed")?;
            }
            "--max-inflight" => {
                i += 1;
                cfg.admission.max_inflight = parse_u64(args, i, "--max-inflight")? as usize;
            }
            "--max-per-tenant" => {
                i += 1;
                cfg.admission.max_per_tenant = parse_u64(args, i, "--max-per-tenant")? as usize;
            }
            "--max-queued" => {
                i += 1;
                cfg.admission.max_queued = parse_u64(args, i, "--max-queued")? as usize;
            }
            "--deadline-ms" => {
                i += 1;
                cfg.engine.default_deadline_ms = parse_u64(args, i, "--deadline-ms")?;
            }
            "--max-retries" => {
                i += 1;
                cfg.engine.max_retries = parse_u64(args, i, "--max-retries")? as u32;
            }
            "--no-racing" => cfg.engine.racing = false,
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    cfg.initial = match kind.as_str() {
        "forest" => {
            let InstanceSpec::Forest {
                levels,
                window,
                chains,
                delete_fraction,
                weighted,
                ..
            } = InstanceSpec::default()
            else {
                unreachable!("default spec is forest");
            };
            InstanceSpec::Forest {
                levels,
                window,
                chains,
                delete_fraction,
                weighted,
                seed,
            }
        }
        "random" => {
            // Defaults come from the generator; only the seed is CLI-set.
            let j = delprop_json::parse(&format!(r#"{{"kind":"random","seed":{seed}}}"#))
                .map_err(|e| e.to_string())?;
            InstanceSpec::from_json(&j)?
        }
        "fig1" => InstanceSpec::Fig1,
        other => return Err(format!("unknown instance kind {other:?}")),
    };
    cfg.initial_label = format!("{kind}-{seed}");

    let daemon = Daemon::spawn(cfg).map_err(|e| e.to_string())?;
    match daemon.tcp_addr() {
        Some(addr) => println!("listening {addr}"),
        None => println!("listening (unix socket)"),
    }
    println!(
        "epoch {} serving; EOF or `quit` on stdin stops",
        daemon.epoch()
    );

    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(e) => return Err(format!("stdin: {e}")),
        }
    }
    drop(daemon); // orderly shutdown + join
    println!("stopped");
    Ok(())
}

fn request(args: &[String], fixed_body: Option<&str>) -> Result<(), String> {
    let addr = args.first().ok_or("need a server address")?;
    let body = match fixed_body {
        Some(b) => b.to_string(),
        None => args.get(1).ok_or("need a JSON request body")?.clone(),
    };
    let req = Request::from_bytes(body.as_bytes())?;
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
    let mut client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    let resp = client.request(&req).map_err(|e| e.to_string())?;
    println!("{}", String::from_utf8_lossy(&resp.to_bytes()));
    Ok(())
}
