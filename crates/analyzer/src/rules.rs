//! The rule catalog: six legacy invariants ported from the xtask
//! line scanner plus the three span-aware audits the token stream
//! makes expressible (ordering justification, budget coverage of
//! solver loops, panic-free serving paths).
//!
//! Every rule runs over one shared [`FileCtx`] per file — lexing and
//! the derived masks are computed once, rules only pattern-match.

use crate::ctx::{FileCtx, FnSpan};
use crate::diag::Diagnostic;

/// Stable ids of every rule the engine runs, for reports and docs.
pub const RULE_IDS: [&str; 9] = [
    "no-unwrap",
    "no-raw-clock",
    "safety-comments",
    "no-sleep",
    "no-hash-in-hot-paths",
    "no-direct-compile-in-server",
    "ordering-justified",
    "budget-coverage",
    "panic-path",
];

/// Run every rule over one file. `rel` decides scoping; findings come
/// back sorted by line and deduplicated per `(rule, line)`.
pub fn check_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(rel, src);
    let mut out = Vec::new();
    no_unwrap(&ctx, &mut out);
    no_raw_clock(&ctx, &mut out);
    safety_comments(&ctx, &mut out);
    no_sleep(&ctx, &mut out);
    no_hash_in_hot_paths(&ctx, &mut out);
    no_direct_compile_in_server(&ctx, &mut out);
    ordering_justified(&ctx, &mut out);
    budget_coverage(&ctx, &mut out);
    panic_path(&ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.rule, a.col).cmp(&(b.line, b.rule, b.col)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// Whether `rel` is an integration-test file (`tests/` at the repo
/// root or inside any crate).
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

fn push(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Diagnostic>,
    line: u32,
    col: u32,
    rule: &'static str,
    message: &str,
) {
    out.push(Diagnostic {
        file: ctx.rel.to_string(),
        line: line as usize,
        col: col as usize,
        rule,
        message: message.to_string(),
        snippet: ctx.snippet(line as usize - 1).to_string(),
    });
}

// -------------------------------------------------------------------
// Legacy rules (ported from the xtask line scanner, semantics intact)
// -------------------------------------------------------------------

/// `.unwrap()` / `.expect(` are forbidden in solver code outside
/// `#[cfg(test)]` items: a panic costs the portfolio member its run.
fn no_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.rel.starts_with("crates/core/src/solvers/") {
        return;
    }
    for ci in 0..ctx.code.len() {
        let hit =
            ctx.code_seq(ci, &[".", "unwrap", "(", ")"]) || ctx.code_seq(ci, &[".", "expect", "("]);
        if !hit {
            continue;
        }
        let t = *ctx.code_tok(ci);
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.allowed(li, "unwrap") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "no-unwrap",
            "`.unwrap()`/`.expect(` in solver code: return a typed error, or \
             justify with `// lint:allow(unwrap): <reason>`",
        );
    }
}

/// `Instant::now` is forbidden outside the budget clock choke point
/// and the bench crate.
fn no_raw_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.rel.starts_with("crates/bench/") || ctx.rel == "crates/core/src/runtime/budget.rs" {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.code_seq(ci, &["Instant", "::", "now"]) {
            continue;
        }
        let t = *ctx.code_tok(ci);
        if ctx.allowed(t.line as usize - 1, "clock") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "no-raw-clock",
            "`Instant::now` outside `runtime/budget.rs`: go through the \
             `budget::now()` choke point",
        );
    }
}

/// Every `unsafe` keyword must carry a `SAFETY:` comment on the same
/// line or in the contiguous comment block directly above.
fn safety_comments(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for ci in 0..ctx.code.len() {
        if !ctx.code_is(ci, "unsafe") {
            continue;
        }
        let t = *ctx.code_tok(ci);
        if ctx.tagged_above(t.line as usize - 1, "safety") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "safety-comments",
            "`unsafe` without a `// SAFETY:` comment on the line or in the \
             comment block directly above",
        );
    }
}

/// `thread::sleep` is forbidden in product code outside the sanctioned
/// backoff and fault-injection modules.
fn no_sleep(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.rel == "crates/server/src/backoff.rs"
        || ctx.rel == "crates/core/src/runtime/fault.rs"
        || is_test_file(ctx.rel)
    {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.code_seq(ci, &["thread", "::", "sleep"]) {
            continue;
        }
        let t = *ctx.code_tok(ci);
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.allowed(li, "sleep") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "no-sleep",
            "`thread::sleep` outside `crates/server/src/backoff.rs`: blocking \
             sleeps belong to the jittered-backoff choke point (deadline-clamped, \
             seeded) — poll a budget/cancel token instead, or justify with \
             `// lint:allow(sleep): <reason>`",
        );
    }
}

/// `HashSet`/`HashMap` are forbidden in the dense solver hot paths.
fn no_hash_in_hot_paths(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let hot = ctx.rel.starts_with("crates/core/src/solvers/")
        || ctx.rel.starts_with("crates/core/src/ir/")
        || ctx.rel == "crates/core/src/classify.rs"
        || ctx.rel == "crates/core/src/solution.rs"
        || ctx.rel.starts_with("crates/setcover/src/")
        || ctx.rel.starts_with("crates/lp/src/");
    if !hot {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !(ctx.code_is(ci, "HashSet") || ctx.code_is(ci, "HashMap")) {
            continue;
        }
        let t = *ctx.code_tok(ci);
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.allowed(li, "hash") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "no-hash-in-hot-paths",
            "`HashSet`/`HashMap` in a dense solver hot path: use a packed \
             `BitSet`/`BitMatrix` row or flat counters over the compiled ids, \
             or justify with `// lint:allow(hash): <reason>`",
        );
    }
}

/// The serving daemon must read compiled IRs through the epoch engine,
/// never trigger its own `Problem::compiled()` per request.
fn no_direct_compile_in_server(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.rel.starts_with("crates/server/src/") {
        return;
    }
    for ci in 0..ctx.code.len() {
        let hit = ctx.code_seq(ci, &[".", "compiled", "(", ")"])
            || ctx.code_seq(ci, &[".", "compiled_arc", "("]);
        if !hit {
            continue;
        }
        let t = *ctx.code_tok(ci);
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.allowed(li, "compiled") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "no-direct-compile-in-server",
            "direct `Problem::compiled()` in the serving daemon: read the IR \
             through the epoch engine (`Engine::problem()` / `with_delta`) so \
             requests share incremental projections, or justify with \
             `// lint:allow(compiled): <reason>`",
        );
    }
}

// -------------------------------------------------------------------
// Span-aware audits (new in the analyzer; inexpressible line-by-line)
// -------------------------------------------------------------------

const ORDERING_VARIANTS: [&str; 5] = ["Acquire", "Release", "AcqRel", "SeqCst", "Relaxed"];

/// Every atomic `Ordering::{Acquire,Release,AcqRel,SeqCst,Relaxed}`
/// argument in product code must carry an adjacent `// ordering:`
/// justification — on the same line or in the comment block directly
/// above the call. DESIGN.md §11
/// promises "every ordering justified at the call site"; this audit
/// makes the promise checkable.
fn ordering_justified(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if is_test_file(ctx.rel) {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.code_is(ci, "Ordering") || !ctx.code_is(ci + 1, "::") {
            continue;
        }
        if !ORDERING_VARIANTS.iter().any(|v| ctx.code_is(ci + 2, v)) {
            continue;
        }
        // A `use` declaration names an ordering without performing an
        // atomic operation — nothing to justify there.
        if in_use_decl(ctx, ci) {
            continue;
        }
        let t = *ctx.code_tok(ci + 2);
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.tagged_above(li, "ordering") {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "ordering-justified",
            "atomic ordering without an adjacent `// ordering:` justification: \
             say why this ordering is sufficient at the call site (same line or \
             the comment block directly above)",
        );
    }
}

/// Whether the code token at code index `ci` sits inside a `use`
/// declaration: the statement opened by the previous `;`/`{`/`}`
/// starts with `use` (or `pub use`).
fn in_use_decl(ctx: &FileCtx<'_>, ci: usize) -> bool {
    let mut k = ci;
    while k > 0 {
        k -= 1;
        match ctx.code_tok(k).text(ctx.src) {
            // A `{` preceded by `::` opens a use-group
            // (`use a::{B, C::D}`), not an item body — keep walking.
            "{" if k > 0 && ctx.code_is(k - 1, "::") => {}
            ";" | "{" | "}" => {
                k += 1;
                break;
            }
            _ => {}
        }
    }
    ctx.code_is(k, "use") || (ctx.code_is(k, "pub") && ctx.code_is(k + 1, "use"))
}

/// Whether the `for` at code index `ci` belongs to an `impl Trait for
/// Type` header: walk back to the nearest statement boundary looking
/// for the `impl` keyword.
fn in_impl_header(ctx: &FileCtx<'_>, ci: usize) -> bool {
    let mut k = ci;
    while k > 0 {
        k -= 1;
        match ctx.code_tok(k).text(ctx.src) {
            ";" | "{" | "}" => return false,
            "impl" => return true,
            _ => {}
        }
    }
    false
}

/// Identifiers whose presence inside a loop body proves the loop
/// charges (or consults, or forwards) the cooperative budget.
const BUDGET_IDENTS: [&str; 5] = ["charge", "tick", "ticker", "is_exhausted", "budget"];

/// Every `loop`/`while`/`for` body in the solver substrate must
/// syntactically reach the cooperative budget — a `charge`/`tick`/
/// `is_exhausted` call, a forwarded `tick`/`budget` handle, or a
/// budgeted inner loop — or carry a `lint:allow(budget)` marker on the
/// loop or its enclosing `fn`. This is the static form of the
/// unbudgeted-spin class of bug PR 3 fixed dynamically.
fn budget_coverage(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let scoped = ctx.rel.starts_with("crates/setcover/src/")
        || ctx.rel.starts_with("crates/lp/src/")
        || ctx.rel.starts_with("crates/core/src/solvers/");
    if !scoped {
        return;
    }
    let fns = ctx.fn_spans();
    for ci in 0..ctx.code.len() {
        let kw = ["loop", "while", "for"]
            .into_iter()
            .find(|k| ctx.code_is(ci, k));
        let Some(kw) = kw else { continue };
        let t = *ctx.code_tok(ci);
        let li = t.line as usize - 1;
        if ctx.in_test(li) {
            continue;
        }
        // `for` also opens generic binders (`for<'a> Fn(...)`) and
        // trait-impl headers (`impl Display for Foo`); skip both.
        if kw == "for" && (ctx.code_is(ci + 1, "<") || in_impl_header(ctx, ci)) {
            continue;
        }
        let Some(open) = loop_body_open(ctx, ci, kw) else {
            continue;
        };
        let Some(close) = ctx.matching_brace(open) else {
            continue;
        };
        let covered = (open + 1..close).any(|k| {
            let tok = ctx.code_tok(k);
            tok.kind == crate::lexer::TokenKind::Ident && BUDGET_IDENTS.contains(&tok.text(ctx.src))
        });
        if covered || ctx.allowed(li, "budget") {
            continue;
        }
        // A function-level marker covers all loops in the fn: bounded
        // polynomial passes are a property of the whole pass.
        if enclosing_fn(&fns, ci).is_some_and(|f| ctx.allowed(f.sig_line, "budget")) {
            continue;
        }
        push(
            ctx,
            out,
            t.line,
            t.col,
            "budget-coverage",
            "loop body never reaches the cooperative budget (`charge`/`tick`/\
             `is_exhausted`): an unbudgeted spin cannot be cancelled or \
             deadlined — thread the budget through, or justify the bound with \
             `// lint:allow(budget): <reason>` on the loop or its fn",
        );
    }
}

/// The code index of the `{` opening the body of the loop whose
/// keyword sits at code index `ci`.
fn loop_body_open(ctx: &FileCtx<'_>, ci: usize, kw: &str) -> Option<usize> {
    if kw == "loop" {
        return ctx.code_is(ci + 1, "{").then_some(ci + 1);
    }
    // `while`/`for`: the first `{` at paren/bracket depth 0 after the
    // header expression (struct literals are not legal there, and
    // closure bodies inside the header sit behind parens).
    let mut depth = 0i64;
    for k in ci + 1..ctx.code.len() {
        match ctx.code_tok(k).text(ctx.src) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(k),
            ";" if depth == 0 => return None, // not a loop after all
            _ => {}
        }
    }
    None
}

/// The innermost `fn` whose body contains code index `ci`.
fn enclosing_fn(fns: &[FnSpan], ci: usize) -> Option<FnSpan> {
    fns.iter()
        .filter(|f| f.body.0 < ci && ci < f.body.1)
        .min_by_key(|f| f.body.1 - f.body.0)
        .copied()
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Panic paths are hard errors in the serving daemon and the wire
/// JSON layer: `unwrap`/`expect`, the panicking macros, and slice/array
/// indexing in non-test code. A conn thread that panics tears down a
/// client's stream with no typed error frame; everything reachable
/// from a request must surface `Result`s. Subsumes and tightens the
/// unwrap rule for these crates.
fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let scoped =
        ctx.rel.starts_with("crates/server/src/") || ctx.rel.starts_with("crates/json/src/");
    if !scoped {
        return;
    }
    for ci in 0..ctx.code.len() {
        let what = panic_trigger(ctx, ci);
        let Some((what, t)) = what else { continue };
        let li = t.line as usize - 1;
        if ctx.in_test(li) || ctx.allowed(li, "panic") {
            continue;
        }
        let message = match what {
            PanicKind::Call => {
                "`.unwrap()`/`.expect(` on a serving path: return a typed wire \
                 error (`Response::Error`) instead, or justify the invariant \
                 with `// lint:allow(panic): <reason>`"
            }
            PanicKind::Macro => {
                "panicking macro on a serving path: a conn-thread panic drops \
                 the client with no typed error frame — return a typed wire \
                 error, or justify with `// lint:allow(panic): <reason>`"
            }
            PanicKind::Index => {
                "slice/array index can panic on a serving path: use `.get(…)`/\
                 `.split_at_checked(…)` and surface a typed error, or justify \
                 the bound with `// lint:allow(panic): <reason>`"
            }
        };
        push(ctx, out, t.line, t.col, "panic-path", message);
    }
}

enum PanicKind {
    Call,
    Macro,
    Index,
}

fn panic_trigger(ctx: &FileCtx<'_>, ci: usize) -> Option<(PanicKind, crate::lexer::Token)> {
    if ctx.code_seq(ci, &[".", "unwrap", "(", ")"]) || ctx.code_seq(ci, &[".", "expect", "("]) {
        return Some((PanicKind::Call, *ctx.code_tok(ci)));
    }
    if PANIC_MACROS.iter().any(|m| ctx.code_is(ci, m)) && ctx.code_is(ci + 1, "!") {
        return Some((PanicKind::Macro, *ctx.code_tok(ci)));
    }
    // Index expression: `[` directly preceded by an expression tail
    // (identifier, `)`, or `]`). Attributes (`#[…]`), macro brackets
    // (`vec![…]`), types (`: [u8; 4]`), and slice patterns all have a
    // different preceding token.
    if ctx.code_is(ci, "[") && ci > 0 {
        let prev = ctx.code_tok(ci - 1);
        let prev_text = prev.text(ctx.src);
        let tail = matches!(prev.kind, crate::lexer::TokenKind::Ident)
            && !is_keyword_before_bracket(prev_text)
            || prev_text == ")"
            || prev_text == "]";
        if tail {
            return Some((PanicKind::Index, *ctx.code_tok(ci)));
        }
    }
    None
}

/// Keywords after which `[` opens a type or pattern, not an index.
fn is_keyword_before_bracket(text: &str) -> bool {
    matches!(
        text,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "dyn"
            | "impl"
            | "as"
            | "let"
            | "const"
            | "static"
            | "where"
    )
}
