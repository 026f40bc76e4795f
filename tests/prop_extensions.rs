//! Randomized-but-deterministic tests for the extension modules:
//! functional dependencies, the Yannakakis engine, the
//! source-side-effect solver, and local search. Originally proptest
//! properties; now driven by the in-tree seeded PRNG so the
//! workspace builds offline. Every case reproduces from its seed.

use delprop::core::solvers::{exact, general, local_search, source};
use delprop::core::{Problem, Solution};
use delprop::query::eval::{hashjoin, naive, sort_matches, yannakakis, CompiledQuery};
use delprop::query::parse_query;
use delprop::relation::{tup, Database, FunctionalDependency, RelationFds, RelationSchema, Schema};
use delprop::setcover::exact::ExactConfig;
use delprop::workload::rng::SplitMix64;

// ---------------------------------------------------------------------
// Functional dependencies.
// ---------------------------------------------------------------------

fn random_fds(rng: &mut SplitMix64) -> (usize, RelationFds) {
    let arity = 3 + rng.below(3); // 3..6
    let mut rf = RelationFds::new(arity);
    for _ in 0..rng.below(5) {
        let lhs: Vec<usize> = (0..1 + rng.below(2)).map(|_| rng.below(arity)).collect();
        let rhs: Vec<usize> = (0..1 + rng.below(2)).map(|_| rng.below(arity)).collect();
        rf.add(FunctionalDependency::new(lhs, rhs)).unwrap();
    }
    (arity, rf)
}

/// Closure is extensive, monotone, and idempotent.
#[test]
fn fd_closure_is_a_closure_operator() {
    let mut rng = SplitMix64::seed_from_u64(0xfd1);
    for case in 0..64 {
        let (arity, fds) = random_fds(&mut rng);
        let mut seed: std::collections::BTreeSet<usize> = Default::default();
        for _ in 0..rng.below(4) {
            seed.insert(rng.below(6));
        }
        let attrs: Vec<usize> = seed.into_iter().filter(|&a| a < arity).collect();
        let closed = fds.closure(&attrs);
        // extensive
        for &a in &attrs {
            assert!(closed.contains(&a), "case {case}");
        }
        // idempotent
        let closed_vec: Vec<usize> = closed.iter().copied().collect();
        assert_eq!(&fds.closure(&closed_vec), &closed, "case {case}");
        // monotone: closure of a subset is a subset of the closure
        if !attrs.is_empty() {
            let sub = &attrs[..attrs.len() - 1];
            let sub_closed = fds.closure(sub);
            assert!(sub_closed.is_subset(&closed), "case {case}");
        }
    }
}

/// Candidate keys are superkeys, minimal, and mutually incomparable.
#[test]
fn candidate_keys_are_minimal_superkeys() {
    let mut rng = SplitMix64::seed_from_u64(0xfd2);
    for case in 0..64 {
        let (arity, fds) = random_fds(&mut rng);
        let all: Vec<usize> = (0..arity).collect();
        let keys = fds.candidate_keys(std::slice::from_ref(&all));
        assert!(!keys.is_empty(), "case {case}: the full set seeds one key");
        for k in &keys {
            assert!(fds.is_superkey(k), "case {case}");
            for i in 0..k.len() {
                let mut smaller = k.clone();
                smaller.remove(i);
                assert!(!fds.is_superkey(&smaller), "case {case}: {k:?} not minimal");
            }
        }
        for a in &keys {
            for b in &keys {
                if a != b {
                    assert!(
                        !a.iter().all(|p| b.contains(p)),
                        "case {case}: {a:?} ⊆ {b:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Yannakakis, on random databases.
// ---------------------------------------------------------------------

fn random_two_rel_db(rng: &mut SplitMix64) -> Database {
    let schema = Schema::from_relations([
        RelationSchema::new("A", 2, vec![0, 1]).unwrap(),
        RelationSchema::new("B", 2, vec![0, 1]).unwrap(),
    ])
    .unwrap();
    let mut db = Database::new(schema);
    for name in ["A", "B"] {
        let rid = db.schema().relation_id(name).unwrap();
        for _ in 0..1 + rng.below(9) {
            let x = rng.below(5) as i64;
            let y = rng.below(5) as i64;
            use delprop::relation::Value;
            if db
                .find_by_key(rid, &[Value::int(x), Value::int(y)])
                .is_none()
            {
                db.insert(name, tup![x, y]).unwrap();
            }
        }
    }
    db
}

/// All three engines agree on random data, acyclic shapes.
#[test]
fn three_engines_agree() {
    let mut rng = SplitMix64::seed_from_u64(0x11a13);
    for case in 0..48 {
        let db = random_two_rel_db(&mut rng);
        let src = match rng.below(3) {
            0 => "Q(x, y, z) :- A(x, y), B(y, z)",
            1 => "Q(x, y, z) :- A(x, y), B(x, z)",
            _ => "Q(x, y) :- A(x, y), B(x, 1)",
        };
        let q = parse_query(src).unwrap().bind(db.schema()).unwrap();
        let c = CompiledQuery::compile(&q);
        let mut a = naive::evaluate(&db, &c);
        let mut b = hashjoin::evaluate(&db, &c, &[]);
        let mut y = yannakakis::evaluate(&db, &c).expect("acyclic shapes");
        sort_matches(&mut a);
        sort_matches(&mut b);
        sort_matches(&mut y);
        assert_eq!(&a, &b, "case {case}: {src}");
        assert_eq!(&a, &y, "case {case}: {src}");
    }
}

// ---------------------------------------------------------------------
// Source solver & local search on random chain problems.
// ---------------------------------------------------------------------

fn chain_problem(n: usize, atoms: usize, blue: &[usize]) -> Problem {
    use delprop::relation::{Tuple, Value};
    let schema = Schema::from_relations(
        (1..=atoms).map(|j| RelationSchema::new(format!("R{j}"), 2, vec![0, 1]).unwrap()),
    )
    .unwrap();
    let mut db = Database::new(schema);
    for i in 0..n {
        for j in 1..=atoms {
            let a = (i >> (j - 1)) as i64;
            let b = (i >> j) as i64;
            let name = format!("R{j}");
            let rid = db.schema().relation_id(&name).unwrap();
            if db
                .find_by_key(rid, &[Value::int(a), Value::int(b)])
                .is_none()
            {
                db.insert(&name, tup![a, b]).unwrap();
            }
        }
    }
    let head: Vec<String> = (0..=atoms).map(|j| format!("x{j}")).collect();
    let body: Vec<String> = (1..=atoms)
        .map(|j| format!("R{j}(x{}, x{j})", j - 1))
        .collect();
    let src = format!("Q({}) :- {}", head.join(", "), body.join(", "));
    let q = parse_query(&src).unwrap().bind(db.schema()).unwrap();
    let mut p = Problem::new(db, vec![q]).unwrap();
    for &i in blue {
        let h: Tuple = (0..=atoms).map(|j| (i >> j) as i64).collect();
        p.mark_deleted(0, &h).unwrap();
    }
    p
}

fn random_chain(rng: &mut SplitMix64) -> Problem {
    let n = 3 + rng.below(6); // 3..9
    let atoms = 2 + rng.below(2); // 2..4
    let mut blues: std::collections::BTreeSet<usize> = Default::default();
    let want = 1 + rng.below(n.min(4) - 1).min(n - 1);
    while blues.len() < want {
        blues.insert(rng.below(n));
    }
    chain_problem(n, atoms, &blues.into_iter().collect::<Vec<_>>())
}

/// The exact source solver is feasible, minimal in cardinality among
/// a brute-force sweep over candidate subsets, and never larger than
/// greedy's answer.
#[test]
fn source_solver_is_exact() {
    let mut rng = SplitMix64::seed_from_u64(0x501);
    for case in 0..32 {
        let p = random_chain(&mut rng);
        let s = source::solve(p.compiled());
        assert!(s.is_feasible(&p), "case {case}");
        let g = source::solve_greedy(p.compiled());
        assert!(g.is_feasible(&p), "case {case}");
        assert!(s.len() <= g.len(), "case {case}");
        // Brute force over candidate subsets (candidates are few here).
        let candidates = p.candidates();
        if candidates.len() <= 12 {
            let mut best = usize::MAX;
            for mask in 0u32..(1 << candidates.len()) {
                let sol = Solution::from_tuples(
                    candidates
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &t)| t),
                );
                if sol.is_feasible(&p) {
                    best = best.min(sol.len());
                }
            }
            assert_eq!(s.len(), best, "case {case}");
        }
    }
}

/// Local search never worsens anything and preserves feasibility,
/// from both good and terrible starting points.
#[test]
fn local_search_is_safe() {
    let mut rng = SplitMix64::seed_from_u64(0x502);
    for case in 0..32 {
        let p = random_chain(&mut rng);
        let starts = vec![
            general::solve(p.compiled()).unwrap(),
            Solution::from_tuples(p.candidates()),
        ];
        let opt = exact::solve(p.compiled(), ExactConfig::default()).cost;
        for start in starts {
            let polished = local_search::improve(p.compiled(), &start, Default::default());
            assert!(polished.is_feasible(&p), "case {case}");
            assert!(
                polished.side_effect(&p) <= start.side_effect(&p) + 1e-9,
                "case {case}"
            );
            assert!(polished.side_effect(&p) >= opt - 1e-9, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Parser round-trip.
// ---------------------------------------------------------------------

fn random_query(rng: &mut SplitMix64) -> delprop::query::ConjunctiveQuery {
    use delprop::query::{Atom, ConjunctiveQuery, Term};
    let random_term = |rng: &mut SplitMix64| match rng.below(3) {
        0 => Term::var(format!("x{}", rng.below(4))),
        1 => Term::constant(rng.range_inclusive(-3, 9)),
        _ => {
            let len = 1 + rng.below(6);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Term::Const(delprop::relation::Value::str(s))
        }
    };
    let body_len = 1 + rng.below(3);
    let mut body: Vec<Atom> = (0..body_len)
        .map(|_| {
            let rel = format!("T{}", rng.below(3));
            let terms: Vec<Term> = (0..1 + rng.below(3)).map(|_| random_term(rng)).collect();
            Atom::new(rel, terms)
        })
        .collect();
    // Head: the body's variables in first-occurrence order; if the body is
    // variable-free, append one fresh variable atom.
    let mut head: Vec<Term> = Vec::new();
    for a in &body {
        for v in a.variables() {
            if !head.iter().any(|t| t.as_var() == Some(v)) {
                head.push(Term::var(v));
            }
        }
    }
    if head.is_empty() {
        head.push(Term::var("x0"));
        body.push(Atom::new("T0", vec![Term::var("x0")]));
    }
    ConjunctiveQuery::new("Q", head, body)
}

/// Display → parse is the identity on well-formed queries.
#[test]
fn parser_roundtrips_display() {
    let mut rng = SplitMix64::seed_from_u64(0x9a25e1);
    for case in 0..128 {
        let q = random_query(&mut rng);
        let printed = q.to_string();
        let reparsed = delprop::query::parse_query(&printed)
            .unwrap_or_else(|e| panic!("case {case}: cannot reparse {printed:?}: {e}"));
        assert_eq!(q, reparsed, "case {case}");
    }
}

/// Containment is reflexive on randomly generated queries that bind
/// against a consistent-arity schema.
#[test]
fn containment_reflexive() {
    use delprop::relation::{RelationSchema, Schema};
    use std::collections::HashMap;
    let mut rng = SplitMix64::seed_from_u64(0x9a25e2);
    let mut checked = 0;
    for _ in 0..128 {
        let q = random_query(&mut rng);
        // Skip queries whose atoms use one relation at two different
        // arities (our Schema fixes one arity per relation).
        let mut arities: HashMap<&str, usize> = HashMap::new();
        let mut consistent = true;
        for a in &q.body {
            match arities.entry(a.relation.as_str()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != a.terms.len() {
                        consistent = false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(a.terms.len());
                }
            }
        }
        if !consistent {
            continue;
        }
        let schema = Schema::from_relations(
            arities
                .iter()
                .map(|(name, &ar)| RelationSchema::new(*name, ar, vec![0]).unwrap()),
        )
        .unwrap();
        let bound = q.bind(&schema).unwrap();
        assert!(delprop::query::containment::equivalent(&bound, &bound));
        checked += 1;
    }
    assert!(checked >= 32, "too many cases discarded: {checked}");
}
