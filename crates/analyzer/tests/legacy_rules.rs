//! The xtask line-scanner's rule tests, migrated verbatim onto the
//! token-stream engine: the six legacy rules must behave identically
//! on their existing corpus. The `scan` helper mirrors the
//! old xtask one (`"<line>:<rule>"` per finding); inputs and expected
//! outputs are unchanged from `crates/xtask/src/main.rs` pre-port.

use delprop_analyzer::analyze_file;

fn scan(rel: &str, text: &str) -> Vec<String> {
    analyze_file(rel, text)
        .into_iter()
        .map(|v| format!("{}:{}", v.line, v.rule))
        .collect()
}

#[test]
fn unwrap_flagged_only_in_solver_scope_outside_tests() {
    let src = "fn f() { x.unwrap(); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn g() { y.unwrap(); }\n\
               }\n";
    let v = scan("crates/core/src/solvers/foo.rs", src);
    assert_eq!(v, ["1:no-unwrap"]);
    assert!(scan("crates/core/src/runtime/foo.rs", src).is_empty());
}

#[test]
fn allow_marker_needs_a_justification() {
    let bare = "// lint:allow(unwrap):\nx.unwrap();\n";
    assert_eq!(
        scan("crates/core/src/solvers/foo.rs", bare),
        ["2:no-unwrap"]
    );
    let justified = "// lint:allow(unwrap): constructed two lines up\nx.unwrap();\n";
    assert!(scan("crates/core/src/solvers/foo.rs", justified).is_empty());
}

#[test]
fn sleep_flagged_outside_backoff_fault_and_tests() {
    let src = "fn f() { std::thread::sleep(d); }\n";
    assert_eq!(scan("crates/server/src/daemon.rs", src), ["1:no-sleep"]);
    assert_eq!(
        scan("crates/core/src/runtime/budget.rs", src),
        ["1:no-sleep"]
    );
    // The two sanctioned modules and test files are exempt.
    assert!(scan("crates/server/src/backoff.rs", src).is_empty());
    assert!(scan("crates/core/src/runtime/fault.rs", src).is_empty());
    assert!(scan("tests/fault_injection.rs", src).is_empty());
    assert!(scan("crates/server/tests/chaos.rs", src).is_empty());
    // `#[cfg(test)]` items inside product files are exempt too.
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { std::thread::sleep(d); }\n\
                   }\n";
    assert!(scan("crates/server/src/daemon.rs", in_test).is_empty());
    // An allow marker with a reason is honored; prose is not code.
    let justified = "// lint:allow(sleep): startup settle, not on a request path\n\
                     std::thread::sleep(d);\n";
    assert!(scan("crates/server/src/state.rs", justified).is_empty());
    let comment = "// never call thread::sleep here\n";
    assert!(scan("crates/server/src/daemon.rs", comment).is_empty());
}

#[test]
fn clock_flagged_outside_budget_and_bench() {
    let src = "let t = Instant::now();\n";
    assert_eq!(scan("crates/core/src/ir/mod.rs", src), ["1:no-raw-clock"]);
    assert!(scan("crates/core/src/runtime/budget.rs", src).is_empty());
    assert!(scan("crates/bench/src/main.rs", src).is_empty());
    let in_string = "let s = \"Instant::now\";\n";
    assert!(scan("crates/core/src/ir/mod.rs", in_string).is_empty());
}

#[test]
fn direct_compiles_flagged_in_server_product_code_only() {
    let call = "let ir = problem.compiled();\n";
    assert_eq!(
        scan("crates/server/src/state.rs", call),
        ["1:no-direct-compile-in-server"]
    );
    let arc = "let ir = problem.compiled_arc();\n";
    assert_eq!(
        scan("crates/server/src/engine.rs", arc),
        ["1:no-direct-compile-in-server"]
    );
    // Core, tests, and `#[cfg(test)]` items are exempt.
    assert!(scan("crates/core/src/problem.rs", call).is_empty());
    assert!(scan("crates/server/tests/serve.rs", call).is_empty());
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { let _ = p.compiled(); }\n\
                   }\n";
    assert!(scan("crates/server/src/state.rs", in_test).is_empty());
    // A justified allow marker is honored.
    let justified = "// lint:allow(compiled): warm-up outside any request path\n\
                     let _ = problem.compiled();\n";
    assert!(scan("crates/server/src/state.rs", justified).is_empty());
}

#[test]
fn hash_containers_flagged_in_hot_paths_only() {
    let import = "use std::collections::HashSet;\n";
    for hot in [
        "crates/core/src/solvers/primal_dual.rs",
        "crates/core/src/ir/mod.rs",
        "crates/core/src/classify.rs",
        "crates/core/src/solution.rs",
        "crates/setcover/src/greedy.rs",
        "crates/lp/src/simplex.rs",
    ] {
        assert_eq!(scan(hot, import), ["1:no-hash-in-hot-paths"], "{hot}");
    }
    // Cold layers, test files, and `#[cfg(test)]` items are exempt.
    assert!(scan("crates/core/src/problem.rs", import).is_empty());
    assert!(scan("crates/server/src/daemon.rs", import).is_empty());
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                   }\n";
    assert!(scan("crates/core/src/solvers/foo.rs", in_test).is_empty());
    // A justified marker is honored; prose and identifiers are not.
    let justified = "// lint:allow(hash): interning table keyed by tuple value, not dense id\n\
                     let m: HashMap<Value, u32> = HashMap::new();\n";
    assert!(scan("crates/core/src/ir/mod.rs", justified).is_empty());
    let comment = "// HashMap would be wrong here\n";
    assert!(scan("crates/core/src/ir/mod.rs", comment).is_empty());
    let ident = "fn not_a_HashMapLike() {}\n";
    assert!(scan("crates/core/src/ir/mod.rs", ident).is_empty());
}

#[test]
fn unsafe_requires_adjacent_safety_comment() {
    let bad = "fn f() {\n    unsafe { g() }\n}\n";
    assert_eq!(scan("crates/core/src/x.rs", bad), ["2:safety-comments"]);
    let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n";
    assert!(scan("crates/core/src/x.rs", good).is_empty());
    // A multi-line comment block directly above still counts …
    let block =
        "fn f() {\n    // SAFETY: a long argument\n    // spanning lines.\n    unsafe { g() }\n}\n";
    assert!(scan("crates/core/src/x.rs", block).is_empty());
    // … but code between the comment and the `unsafe` breaks it.
    let gapped = "fn f() {\n    // SAFETY: stale.\n    h();\n    unsafe { g() }\n}\n";
    assert_eq!(scan("crates/core/src/x.rs", gapped), ["4:safety-comments"]);
    // Identifiers containing the word are not the keyword.
    let ident = "fn rejects_unsafe_head() {}\n";
    assert!(scan("crates/core/src/x.rs", ident).is_empty());
    // Prose in doc comments is not code.
    let doc = "/// This query would be unsafe.\nfn f() {}\n";
    assert!(scan("crates/core/src/x.rs", doc).is_empty());
}

// -------------------------------------------------------------------
// Token-stream wins the line scanner could not have: the same patterns
// inside raw strings and nested block comments stay silent.
// -------------------------------------------------------------------

#[test]
fn raw_strings_and_nested_comments_never_false_positive() {
    let raw = "fn f() { let s = r#\"x.unwrap() and thread::sleep\"#; }\n";
    assert!(scan("crates/core/src/solvers/foo.rs", raw).is_empty());
    assert!(scan("crates/server/src/daemon.rs", raw).is_empty());
    let nested = "/* outer /* x.unwrap() */ still comment: Instant::now */\nfn f() {}\n";
    assert!(scan("crates/core/src/solvers/foo.rs", nested).is_empty());
    assert!(scan("crates/core/src/ir/mod.rs", nested).is_empty());
}
