//! Behavioral tests for the three audits that exist only on the
//! token-stream engine: ordering-justified, budget-coverage, and
//! panic-path. Each case documents one edge the rule must hold.

use delprop_analyzer::analyze_file;

fn scan(rel: &str, text: &str) -> Vec<String> {
    analyze_file(rel, text)
        .into_iter()
        .map(|v| format!("{}:{}", v.line, v.rule))
        .collect()
}

// -------------------------------------------------------------------
// ordering-justified
// -------------------------------------------------------------------

#[test]
fn ordering_without_justification_is_flagged() {
    let src = "fn f(x: &AtomicU64) { x.load(Ordering::Acquire); }\n";
    assert_eq!(
        scan("crates/core/src/shard/deque.rs", src),
        ["1:ordering-justified"]
    );
}

#[test]
fn ordering_same_line_comment_satisfies() {
    let src = "fn f(x: &AtomicU64) { x.load(Ordering::Acquire); // ordering: pairs with push Release\n}\n";
    assert!(scan("crates/core/src/shard/deque.rs", src).is_empty());
}

#[test]
fn ordering_comment_block_above_satisfies() {
    let src = "fn f(x: &AtomicU64) {\n\
                   // ordering: Acquire pairs with the Release store in push();\n\
                   // a thief must observe the slot write before the index.\n\
                   x.load(Ordering::Acquire);\n\
               }\n";
    assert!(scan("crates/core/src/shard/deque.rs", src).is_empty());
}

#[test]
fn ordering_comment_separated_by_code_does_not_satisfy() {
    let src = "fn f(x: &AtomicU64) {\n\
                   // ordering: stale justification\n\
                   let y = 1;\n\
                   x.load(Ordering::Relaxed);\n\
               }\n";
    assert_eq!(
        scan("crates/core/src/shard/deque.rs", src),
        ["4:ordering-justified"]
    );
}

#[test]
fn ordering_path_mention_in_prose_is_not_a_justification() {
    // `Ordering::Acquire` inside a comment is a path, not an
    // `ordering:` tag — the double colon must not satisfy the audit.
    let src = "fn f(x: &AtomicU64) {\n\
                   // Ordering::Acquire would also work here.\n\
                   x.load(Ordering::Relaxed);\n\
               }\n";
    assert_eq!(
        scan("crates/core/src/shard/deque.rs", src),
        ["3:ordering-justified"]
    );
}

#[test]
fn ordering_capitalized_tag_satisfies() {
    let src = "// Ordering: Relaxed — a monotonic counter, no other data published.\n\
               fn f(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }\n";
    assert!(scan("crates/core/src/runtime/fault.rs", src).is_empty());
}

#[test]
fn ordering_exempt_only_in_tests() {
    let src = "fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n";
    assert_eq!(
        scan("crates/core/src/runtime/budget.rs", src),
        ["1:ordering-justified"]
    );
    assert!(scan("crates/core/tests/shard_scale.rs", src).is_empty());
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n\
                   }\n";
    assert!(scan("crates/core/src/shard/deque.rs", in_test).is_empty());
}

#[test]
fn ordering_use_declaration_is_not_an_argument() {
    let src = "use std::sync::atomic::Ordering::{Acquire, Release};\n";
    assert!(scan("crates/core/src/shard/deque.rs", src).is_empty());
    let nested = "use std::sync::atomic::{AtomicU64, Ordering::SeqCst};\n";
    assert!(scan("crates/core/src/ir/mod.rs", nested).is_empty());
}

#[test]
fn ordering_every_variant_is_audited() {
    for variant in ["Acquire", "Release", "AcqRel", "SeqCst", "Relaxed"] {
        let src = format!("fn f(x: &AtomicU64) {{ x.op(Ordering::{variant}); }}\n");
        assert_eq!(
            scan("crates/server/src/metrics.rs", &src),
            ["1:ordering-justified"],
            "{variant}"
        );
    }
}

// -------------------------------------------------------------------
// budget-coverage
// -------------------------------------------------------------------

#[test]
fn unbudgeted_loop_in_solver_scope_is_flagged() {
    let src = "fn f(xs: &[u32]) -> u32 {\n\
                   let mut s = 0;\n\
                   for x in xs {\n\
                   s += x;\n\
                   }\n\
                   s\n\
               }\n";
    assert_eq!(
        scan("crates/setcover/src/greedy.rs", src),
        ["3:budget-coverage"]
    );
    assert_eq!(scan("crates/lp/src/simplex.rs", src), ["3:budget-coverage"]);
    assert_eq!(
        scan("crates/core/src/solvers/primal_dual.rs", src),
        ["3:budget-coverage"]
    );
    // Out of scope: the same loop elsewhere is fine.
    assert!(scan("crates/core/src/ir/mod.rs", src).is_empty());
    assert!(scan("crates/server/src/daemon.rs", src).is_empty());
}

#[test]
fn loop_body_reaching_budget_call_is_covered() {
    for call in [
        "budget.charge(1)?",
        "tick(1)",
        "ticker(n)",
        "if b.is_exhausted() { break; }",
    ] {
        let src = format!(
            "fn f(xs: &[u32]) {{\n    for x in xs {{\n        {call};\n        work(x);\n    }}\n}}\n"
        );
        assert!(
            scan("crates/setcover/src/greedy.rs", &src).is_empty(),
            "{call}"
        );
    }
}

#[test]
fn outer_loop_containing_budgeted_inner_loop_is_covered() {
    let src = "fn f() {\n\
                   while improved {\n\
                   for e in edges {\n\
                   tick(1);\n\
                   }\n\
                   }\n\
               }\n";
    assert!(scan("crates/core/src/solvers/local_search.rs", src).is_empty());
}

#[test]
fn budget_marker_on_loop_or_fn_signature_is_honored() {
    let on_loop = "fn f(xs: &[u32]) {\n\
                   // lint:allow(budget): bounded by arity, a compile-time constant\n\
                   for x in xs {\n\
                   push(x);\n\
                   }\n\
               }\n";
    assert!(scan("crates/lp/src/simplex.rs", on_loop).is_empty());
    let on_fn = "// lint:allow(budget): O(k) setup pass, charged once by the caller\n\
                 fn f(xs: &[u32]) {\n\
                 for x in xs {\n\
                 push(x);\n\
                 }\n\
                 for x in xs {\n\
                 pop(x);\n\
                 }\n\
                 }\n";
    assert!(scan("crates/lp/src/simplex.rs", on_fn).is_empty());
}

#[test]
fn budget_audit_skips_tests_and_hrtb_for_binder() {
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { for i in 0..3 { check(i); } }\n\
                   }\n";
    assert!(scan("crates/setcover/src/greedy.rs", in_test).is_empty());
    // `for<'a>` is a higher-ranked binder, not a loop.
    let hrtb = "fn f(g: impl for<'a> Fn(&'a u32)) { g(&1); }\n";
    assert!(scan("crates/setcover/src/greedy.rs", hrtb).is_empty());
    // `impl Trait for Type` headers are not loops either — but loops
    // inside the impl body still are.
    let imp = "impl fmt::Display for Foo {\n\
               fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n\
               for x in &self.xs {\n\
               write!(f, \"{x}\")?;\n\
               }\n\
               Ok(())\n\
               }\n\
               }\n";
    assert_eq!(
        scan("crates/setcover/src/greedy.rs", imp),
        ["3:budget-coverage"]
    );
}

#[test]
fn bare_loop_and_while_are_audited_too() {
    let src = "fn f() {\n    loop {\n        step();\n    }\n}\n";
    assert_eq!(
        scan("crates/core/src/solvers/exact.rs", src),
        ["2:budget-coverage"]
    );
    let w = "fn f() {\n    while !done() {\n        step();\n    }\n}\n";
    assert_eq!(
        scan("crates/core/src/solvers/exact.rs", w),
        ["2:budget-coverage"]
    );
}

// -------------------------------------------------------------------
// panic-path
// -------------------------------------------------------------------

#[test]
fn panic_paths_are_hard_errors_in_server_and_json() {
    assert_eq!(
        scan("crates/server/src/wire.rs", "fn f() { x.unwrap(); }\n"),
        ["1:panic-path"]
    );
    assert_eq!(
        scan("crates/json/src/lib.rs", "fn f() { x.expect(\"msg\"); }\n"),
        ["1:panic-path"]
    );
    assert_eq!(
        scan(
            "crates/server/src/daemon.rs",
            "fn f() { panic!(\"boom\"); }\n"
        ),
        ["1:panic-path"]
    );
    assert_eq!(
        scan("crates/json/src/lib.rs", "fn f() { unreachable!(); }\n"),
        ["1:panic-path"]
    );
    // Out of scope crates are untouched by this rule.
    assert!(scan("crates/core/src/runtime/foo.rs", "fn f() { x.unwrap(); }\n").is_empty());
}

#[test]
fn slice_indexing_is_a_panic_path() {
    assert_eq!(
        scan(
            "crates/server/src/wire.rs",
            "fn f(b: &[u8]) -> u8 { b[0] }\n"
        ),
        ["1:panic-path"]
    );
    assert_eq!(
        scan(
            "crates/json/src/lib.rs",
            "fn f(v: &Vec<u8>, i: usize) -> u8 { v[i] }\n"
        ),
        ["1:panic-path"]
    );
    // Slicing a call result too.
    assert_eq!(
        scan("crates/server/src/wire.rs", "fn f() { g(&buf()[..n]); }\n"),
        ["1:panic-path"]
    );
}

#[test]
fn non_index_brackets_are_not_flagged() {
    for src in [
        "fn f(b: [u8; 4]) {}\n",                                // type position
        "fn f() -> Vec<u8> { vec![1, 2] }\n",                   // macro bang-bracket
        "fn f() { for x in [1, 2] { g(x); } }\n",               // array literal after `in`
        "fn f() { let a = [0u8; 16]; g(&a); }\n",               // array literal after `=`
        "fn f() { match x { [a, b] => g(a, b), _ => h() } }\n", // pattern
        "#[derive(Debug)]\nstruct S;\n",                        // attribute
    ] {
        assert!(scan("crates/server/src/wire.rs", src).is_empty(), "{src}");
    }
}

#[test]
fn panic_path_allows_tests_and_justified_markers() {
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { x.unwrap(); assert_eq!(v[0], 1); }\n\
                   }\n";
    assert!(scan("crates/server/src/wire.rs", in_test).is_empty());
    assert!(scan("crates/server/tests/serve.rs", "fn f() { x.unwrap(); }\n").is_empty());
    let justified = "// lint:allow(panic): index bounded by the length check above\n\
                     let b = frame[4];\n";
    assert!(scan("crates/server/src/wire.rs", justified).is_empty());
    let bare_marker = "// lint:allow(panic):\nlet b = frame[4];\n";
    assert_eq!(
        scan("crates/server/src/wire.rs", bare_marker),
        ["2:panic-path"]
    );
}

#[test]
fn panic_words_in_strings_and_comments_stay_silent() {
    let src = "// never unwrap() here; panic! would tear down the worker\n\
               fn f() { log(\"do not unwrap or panic!\"); }\n";
    assert!(scan("crates/server/src/wire.rs", src).is_empty());
}
