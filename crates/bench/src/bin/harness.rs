//! The experiment harness: regenerates every table/figure experiment of
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p delprop-bench --bin harness              # run everything
//! cargo run -p delprop-bench --bin harness -- ex-t3     # one experiment
//! cargo run -p delprop-bench --bin harness -- --smoke   # bench-gate set
//! cargo run -p delprop-bench --bin harness -- --list    # list ids
//! cargo run -p delprop-bench --bin harness -- --scale 10 ex-kern
//! #   ^ multiply workload sizes in the scaling experiments (ungated)
//! ```
//!
//! A panicking experiment prints `[<id> FAILED: <message>]` and the
//! remaining ones still run; the harness then exits 1.

use delprop_bench::experiments::{self, Runner};
use std::panic;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        args.remove(i);
        let factor = args
            .get(i)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("--scale requires a positive integer factor");
                std::process::exit(2);
            });
        args.remove(i);
        experiments::set_scale(factor);
    }
    let all = experiments::all();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in &all {
            println!("{id}");
        }
        return;
    }
    // --smoke: the baseline-gated experiments (plus any ids given
    // explicitly alongside it).
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        for id in experiments::smoke_ids() {
            if !args.iter().any(|a| a == id) {
                args.push(id.to_string());
            }
        }
    }
    let selected: Vec<(&str, Runner)> = if args.is_empty() {
        all
    } else {
        let picks: Vec<_> = all
            .iter()
            .copied()
            .filter(|(id, _)| args.iter().any(|a| a == id))
            .collect();
        if picks.is_empty() {
            eprintln!(
                "unknown experiment id(s) {:?}; known ids:\n  {}",
                args,
                all.iter()
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
                    .join("\n  ")
            );
            std::process::exit(2);
        }
        picks
    };
    if !experiments(&selected).is_empty() {
        std::process::exit(1);
    }
}

/// Run every selected experiment in order and print its report. A
/// panic is caught and reported as `[<id> FAILED: <message>]`, so one
/// failure cannot hide the other experiments' results or artifacts.
/// Returns the ids that failed.
fn experiments<'a>(selected: &[(&'a str, Runner)]) -> Vec<&'a str> {
    let mut failed = Vec::new();
    for (i, &(id, run)) in selected.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        let start = std::time::Instant::now();
        match panic::catch_unwind(run) {
            Ok(report) => {
                println!("{report}");
                println!("[{id} completed in {:.2}s]", start.elapsed().as_secs_f64());
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                println!("[{id} FAILED: {msg}]");
                failed.push(id);
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_experiment_does_not_stop_the_rest() {
        let selected: [(&str, Runner); 2] = [
            ("ex-boom", || panic!("boom")),
            ("ex-fine", || "ok".to_string()),
        ];
        assert_eq!(experiments(&selected), vec!["ex-boom"]);
        assert!(experiments(&selected[1..]).is_empty());
    }
}
