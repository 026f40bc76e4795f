//! The analyzer's command line. The only task today is `lint`:
//!
//! ```text
//! cargo run -p delprop-analyzer --offline -- lint [--stale-only] [--json PATH | --no-json] [--baseline PATH]
//! ```
//!
//! A thin CLI over the library (DESIGN.md §16): one shared
//! token-stream lex per file, eleven rules — the eight legacy
//! concurrency-hygiene invariants first enforced by a line scanner,
//! plus the ordering-justification, budget-coverage, and
//! panic-path audits — a committed `analyzer.baseline` burn-down file
//! with stale-suppression checking, and a machine-readable report at
//! `artifacts/ANALYZE.json`.
//!
//! Exit codes: `0` clean; `1` active findings or stale baseline
//! entries; `2` scan errors (unreadable file, malformed baseline,
//! unknown flag).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use delprop_analyzer::{run, Options, Outcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprintln!("usage: cargo run -p delprop-analyzer -- lint [--stale-only] [--json PATH | --no-json] [--baseline PATH]");
            eprintln!();
            eprintln!("tasks:");
            eprintln!("  lint    enforce the repo invariants (analyzer-backed; see DESIGN.md §16)");
            eprintln!();
            eprintln!("lint flags:");
            eprintln!("  --stale-only      only fail on stale analyzer.baseline entries");
            eprintln!(
                "  --json PATH       write the JSON report there (default artifacts/ANALYZE.json)"
            );
            eprintln!("  --no-json         skip writing the JSON report");
            eprintln!(
                "  --baseline PATH   read suppressions from PATH (default analyzer.baseline)"
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("delprop-analyzer: unknown task `{other}` (try `lint`)");
            ExitCode::from(2)
        }
    }
}

fn run_lint(flags: &[String]) -> ExitCode {
    let mut opts = Options::default();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stale-only" => opts.stale_only = true,
            "--no-json" => opts.json_out = Some(PathBuf::new()),
            "--json" => match it.next() {
                Some(p) => opts.json_out = Some(PathBuf::from(p)),
                None => return usage_error("--json needs a path"),
            },
            "--baseline" => match it.next() {
                Some(p) => opts.baseline = Some(PathBuf::from(p)),
                None => return usage_error("--baseline needs a path"),
            },
            other => return usage_error(&format!("unknown lint flag `{other}`")),
        }
    }
    match run(&repo_root(), &opts) {
        Outcome::Clean => ExitCode::SUCCESS,
        Outcome::Dirty => ExitCode::FAILURE,
        Outcome::Error => ExitCode::from(2),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("delprop-analyzer lint: {msg}");
    ExitCode::from(2)
}

/// `crates/analyzer` -> repository root.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyzer sits two levels under the repo root")
        .to_path_buf()
}
