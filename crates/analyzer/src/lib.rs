//! `delprop-analyzer`: the repo's span-aware static analyzer.
//!
//! A zero-dependency, hand-rolled Rust [`lexer`] produces one full
//! token stream per file (byte/line/col spans; raw strings, char vs
//! lifetime disambiguation, nested block comments, doc comments —
//! handled once, centrally). A [`rules`] engine runs every analysis
//! over that shared stream and emits structured [`diag::Diagnostic`]s;
//! [`report`] serializes them to `artifacts/ANALYZE.json` and
//! [`baseline`] implements the committed `analyzer.baseline` burn-down
//! file with stale-suppression checking.
//!
//! The rule catalog (see DESIGN.md §16): the six invariants ported
//! from the old `crates/xtask` line scanner, plus three audits only a
//! token stream can express —
//!
//! - **ordering-justified** — every `Ordering::{Acquire,Release,AcqRel,
//!   SeqCst,Relaxed}` argument outside tests carries an adjacent
//!   `// ordering:` justification comment;
//! - **budget-coverage** — every `loop`/`while`/`for` body in
//!   `crates/setcover`, `crates/lp`, and `crates/core/src/solvers`
//!   syntactically reaches a `charge`/`tick`/`is_exhausted` call or a
//!   `lint:allow(budget)` marker;
//! - **panic-path** — `unwrap`/`expect`/`panic!`/`unreachable!`/slice
//!   indexing in non-test code of `crates/server` and `crates/json` is
//!   a hard error (typed wire errors only).
//!
//! `cargo run -p delprop-analyzer --offline -- lint` (`src/main.rs`) is
//! the CLI over [`run`].

pub mod baseline;
pub mod ctx;
pub mod diag;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use baseline::Baseline;
use diag::Diagnostic;
use report::Report;

/// Analyze one file's source as if it lived at repo-relative path
/// `rel`. This is the whole analyzer behind a pure-function seam: the
/// fixture corpus and the migrated xtask tests drive it directly.
pub fn analyze_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    rules::check_file(rel, src)
}

/// How a [`run`] ended, in CLI terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No active findings, no stale baseline entries.
    Clean,
    /// Active findings and/or stale baseline entries were printed.
    Dirty,
    /// The scan itself failed (unreadable file, malformed baseline).
    Error,
}

/// Options for a repo scan.
#[derive(Debug, Default)]
pub struct Options {
    /// Baseline path; `None` uses `<root>/analyzer.baseline` (a missing
    /// file is an empty baseline).
    pub baseline: Option<PathBuf>,
    /// Where to write the JSON report; `None` writes
    /// `<root>/artifacts/ANALYZE.json`, `Some("")` skips writing.
    pub json_out: Option<PathBuf>,
    /// Only report baseline staleness (the CI stale-suppression step):
    /// active findings are not printed and do not fail the run.
    pub stale_only: bool,
}

/// Scan the repository at `root`, print diagnostics to stdout, write
/// the JSON report, and say whether the tree is clean. This is the
/// body of `cargo run -p delprop-analyzer -- lint`.
pub fn run(root: &Path, opts: &Options) -> Outcome {
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("analyzer.baseline"));
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("analyzer: cannot read {}: {e}", baseline_path.display());
            return Outcome::Error;
        }
    };
    let baseline = match Baseline::parse(&baseline_text) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("analyzer: {msg}");
            return Outcome::Error;
        }
    };

    let (files, mut findings) = match scan_repo(root) {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("analyzer: {msg}");
            return Outcome::Error;
        }
    };
    findings.extend(check_core_denies_unsafe_ops(root));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.col).cmp(&(b.file.as_str(), b.line, b.rule, b.col))
    });

    let report = Report::new(files, findings, &baseline);

    let json_path = match &opts.json_out {
        None => Some(root.join("artifacts/ANALYZE.json")),
        Some(p) if p.as_os_str().is_empty() => None,
        Some(p) => Some(p.clone()),
    };
    if let Some(path) = json_path {
        if let Err(e) = delprop_json::write_artifact(&path, &report.to_json()) {
            eprintln!("analyzer: cannot write {}: {e}", path.display());
            return Outcome::Error;
        }
    }

    let mut dirty = false;
    if !opts.stale_only {
        for d in report.active() {
            println!("{d}");
            dirty = true;
        }
    }
    for (rule, file) in &report.stale {
        println!(
            "analyzer.baseline: stale suppression `{rule} {file}`: the file no \
             longer triggers this rule — delete the entry"
        );
        dirty = true;
    }

    let active = report.active().count();
    let suppressed = report.suppressed_count();
    if dirty {
        println!(
            "analyzer: {active} active finding(s), {suppressed} baselined, {} stale \
             baseline entr(y/ies) over {files} files",
            report.stale.len()
        );
        Outcome::Dirty
    } else {
        println!(
            "analyzer: OK ({files} files, {} findings all baselined, {} baseline entries)",
            suppressed, report.baseline_entries
        );
        Outcome::Clean
    }
}

/// Walk the repo's Rust sources and run every rule. Returns the file
/// count and the raw findings.
pub fn scan_repo(root: &Path) -> Result<(usize, Vec<Diagnostic>), String> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "benches"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        findings.extend(analyze_file(&rel, &text));
    }
    Ok((files.len(), findings))
}

/// Recursively collect `.rs` files, skipping build output, dot
/// directories, and fixture corpora (fixtures deliberately violate
/// rules).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // missing top-level dirs (e.g. no benches/) are fine
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `crates/core/src/lib.rs` must keep its crate-level unsafe hygiene
/// attribute — the rule every `SAFETY:` comment in that crate leans on.
fn check_core_denies_unsafe_ops(root: &Path) -> Vec<Diagnostic> {
    let path = root.join("crates/core/src/lib.rs");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
        Vec::new()
    } else {
        vec![Diagnostic {
            file: "crates/core/src/lib.rs".to_string(),
            line: 1,
            col: 1,
            rule: "safety-comments",
            message: "missing `#![deny(unsafe_op_in_unsafe_fn)]` at the crate root".to_string(),
            snippet: String::new(),
        }]
    }
}
