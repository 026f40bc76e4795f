//! Hash-join evaluator: the production engine.
//!
//! Atoms are processed in a greedy connectivity order (each step prefers an
//! atom sharing the most already-bound variables, breaking ties toward
//! smaller relations). For each step, live tuples of the atom's relation
//! are indexed by the values at its bound positions; the current partial
//! matches probe that index. This avoids the naive engine's full scans per
//! partial match and evaluates acyclic joins in time close to
//! input + output.
//!
//! Evaluation runs over `D ∖ gone` for a sorted set of tuple ids `gone`:
//! the index-build scan skips those tuples, so re-evaluating a query after
//! a deletion `ΔD` needs no copy of the database. An empty `gone`
//! evaluates over `D` itself. The join order comes from the sizes in
//! `D`, so under a non-empty `gone` the matches are those of `D ∖ gone`,
//! possibly in another order than a copy with `gone` deleted would give.

use super::{CompiledQuery, QueryMatch, Slot};
use delprop_relation::{Database, RelationId, TupleId, Value};
use std::collections::HashMap;

/// Evaluate `query` on the live tuples of `db` that are not in `gone`,
/// returning all matches.
///
/// `gone` must be sorted ascending without duplicates (the order a
/// `BTreeSet<TupleId>` iterates in). Ids that are not live in `db` are
/// ignored.
///
/// # Panics
/// Panics if `gone` is not strictly ascending.
pub fn evaluate(db: &Database, query: &CompiledQuery, gone: &[TupleId]) -> Vec<QueryMatch> {
    assert!(
        gone.windows(2).all(|w| w[0] < w[1]),
        "hashjoin::evaluate: `gone` must be strictly ascending"
    );
    let order = atom_order(db, query);

    // Partial matches: assignment + witnesses aligned to `order` prefix.
    let mut partials: Vec<(Vec<Option<Value>>, Vec<TupleId>)> =
        vec![(vec![None; query.num_vars()], Vec::new())];

    for &ai in &order {
        if partials.is_empty() {
            return Vec::new();
        }
        let atom = &query.atoms[ai];
        // Positions whose slot is a variable already bound in every partial
        // (all partials at this depth bind the same variable set).
        let bound_vars: Vec<bool> = {
            let (a0, _) = &partials[0];
            (0..query.num_vars()).map(|s| a0[s].is_some()).collect()
        };
        let mut probe_positions: Vec<(usize, usize)> = Vec::new(); // (pos, slot)
        for (pos, slot) in atom.slots.iter().enumerate() {
            if let Slot::Var(s) = slot {
                if bound_vars[*s] {
                    probe_positions.push((pos, *s));
                }
            }
        }

        // Build index: probe-key -> candidate (tid, tuple) list. Constant
        // positions and `gone` tuples are filtered during the build; the
        // scan ascends by slot, so one cursor walks `gone` in step.
        let mut index: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
        let mut skip = gone_in(gone, atom.relation);
        'tuples: for (tid, tuple) in db.live_tuples(atom.relation) {
            while skip.first().is_some_and(|&g| g < tid) {
                skip = &skip[1..];
            }
            if skip.first() == Some(&tid) {
                continue;
            }
            for (pos, slot) in atom.slots.iter().enumerate() {
                match slot {
                    Slot::Const(c) if c != &tuple[pos] => continue 'tuples,
                    // Repeated variables within the atom are checked at
                    // probe time (the first occurrence may be unbound).
                    _ => {}
                }
            }
            let key: Vec<Value> = probe_positions
                .iter()
                .map(|&(pos, _)| tuple[pos].clone())
                .collect();
            index.entry(key).or_default().push(tid);
        }

        let mut next: Vec<(Vec<Option<Value>>, Vec<TupleId>)> = Vec::new();
        for (assignment, witnesses) in &partials {
            let key: Vec<Value> = probe_positions
                .iter()
                .map(|&(_, s)| assignment[s].clone().expect("probe slot is bound"))
                .collect();
            let Some(candidates) = index.get(&key) else {
                continue;
            };
            'cand: for &tid in candidates {
                let tuple = db.tuple(tid).expect("indexed tuple exists");
                let mut new_assignment = assignment.clone();
                for (pos, slot) in atom.slots.iter().enumerate() {
                    if let Slot::Var(s) = slot {
                        match &new_assignment[*s] {
                            Some(v) => {
                                if v != &tuple[pos] {
                                    continue 'cand; // repeated-var clash
                                }
                            }
                            None => new_assignment[*s] = Some(tuple[pos].clone()),
                        }
                    }
                }
                let mut new_witnesses = witnesses.clone();
                new_witnesses.push(tid);
                next.push((new_assignment, new_witnesses));
            }
        }
        partials = next;
    }

    // Restore body-atom order for witnesses: `order[i]` produced witness i.
    let mut inverse = vec![0usize; order.len()];
    for (step, &ai) in order.iter().enumerate() {
        inverse[ai] = step;
    }

    partials
        .into_iter()
        .map(|(assignment, witnesses)| QueryMatch {
            assignment: assignment
                .into_iter()
                .map(|v| v.expect("all vars bound after all atoms"))
                .collect(),
            witnesses: (0..order.len()).map(|ai| witnesses[inverse[ai]]).collect(),
        })
        .collect()
}

/// The ids of `gone` in relation `rel`: one contiguous run, because
/// `TupleId` orders by relation first.
fn gone_in(gone: &[TupleId], rel: RelationId) -> &[TupleId] {
    let lo = gone.partition_point(|t| t.relation < rel);
    let len = gone[lo..].partition_point(|t| t.relation == rel);
    &gone[lo..lo + len]
}

/// Greedy join order: start from the smallest relation, then repeatedly take
/// the atom sharing the most bound variables (ties: smaller relation).
#[allow(clippy::needless_range_loop)] // parallel arrays indexed together
fn atom_order(db: &Database, query: &CompiledQuery) -> Vec<usize> {
    let n = query.atoms.len();
    let sizes: Vec<usize> = query
        .atoms
        .iter()
        .map(|atom| db.relation(atom.relation).len())
        .collect();
    let vars_of = |ai: usize| -> Vec<usize> {
        query.atoms[ai]
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Var(v) => Some(*v),
                Slot::Const(_) => None,
            })
            .collect()
    };
    let mut chosen = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound = vec![false; query.num_vars()];
    for step in 0..n {
        let mut best: Option<(usize, usize, usize)> = None; // (ai, shared, size)
        for ai in 0..n {
            if used[ai] {
                continue;
            }
            let shared = vars_of(ai).iter().filter(|&&v| bound[v]).count();
            let sz = sizes[ai];
            let better = match best {
                None => true,
                Some((_, bs, bsz)) => {
                    // After the first atom prefer connectivity; always break
                    // ties toward the smaller relation.
                    (step > 0 && shared > bs) || ((step == 0 || shared == bs) && sz < bsz)
                }
            };
            if better {
                best = Some((ai, shared, sz));
            }
        }
        let (ai, _, _) = best.expect("unused atom remains");
        used[ai] = true;
        for v in vars_of(ai) {
            bound[v] = true;
        }
        chosen.push(ai);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{naive, sort_matches, CompiledQuery};
    use crate::parse::parse_query;
    use delprop_relation::{tup, Database, RelationSchema, Schema};

    fn chain_db(n: i64) -> Database {
        let schema = Schema::from_relations([
            RelationSchema::new("A", 2, vec![0]).unwrap(),
            RelationSchema::new("B", 2, vec![0]).unwrap(),
            RelationSchema::new("C", 2, vec![0]).unwrap(),
        ])
        .unwrap();
        let mut d = Database::new(schema);
        for i in 0..n {
            d.insert("A", tup![i, i + 1]).unwrap();
            d.insert("B", tup![i + 1, i + 2]).unwrap();
            d.insert("C", tup![i + 2, i + 3]).unwrap();
        }
        d
    }

    fn both(d: &Database, src: &str) -> (Vec<QueryMatch>, Vec<QueryMatch>) {
        let q = parse_query(src).unwrap().bind(d.schema()).unwrap();
        let c = CompiledQuery::compile(&q);
        let mut a = naive::evaluate(d, &c);
        let mut b = evaluate(d, &c, &[]);
        sort_matches(&mut a);
        sort_matches(&mut b);
        (a, b)
    }

    #[test]
    fn matches_naive_on_chain_join() {
        let d = chain_db(20);
        let (a, b) = both(&d, "Q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)");
        assert_eq!(a, b);
        assert_eq!(a.len(), 20); // every A(i, i+1) extends through B and C
    }

    #[test]
    fn matches_naive_with_constants_and_self_joins() {
        let d = chain_db(10);
        let (a, b) = both(&d, "Q(x, y, u) :- A(x, y), A(y, u)");
        assert_eq!(a, b);
        let (a, b) = both(&d, "Q(x) :- A(x, 5)");
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let d = chain_db(3);
        let (a, b) = both(&d, "Q(x, y, u, v) :- A(x, y), B(u, v)");
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn repeated_var_within_atom() {
        let schema =
            Schema::from_relations([RelationSchema::new("P", 2, vec![0, 1]).unwrap()]).unwrap();
        let mut d = Database::new(schema);
        d.insert("P", tup![1, 1]).unwrap();
        d.insert("P", tup![1, 2]).unwrap();
        d.insert("P", tup![2, 2]).unwrap();
        let (a, b) = both(&d, "Q(x) :- P(x, x)");
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_result_propagates() {
        let d = chain_db(2);
        let (a, b) = both(&d, "Q(x) :- A(x, 999)");
        assert_eq!(a, b);
        assert!(b.is_empty());
    }

    #[test]
    fn witness_order_matches_body_order() {
        let d = chain_db(5);
        let q = parse_query("Q(x, y, z) :- B(y, z), A(x, y)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let c = CompiledQuery::compile(&q);
        for m in evaluate(&d, &c, &[]) {
            // witness 0 must be a B tuple, witness 1 an A tuple
            let bid = d.schema().relation_id("B").unwrap();
            let aid = d.schema().relation_id("A").unwrap();
            assert_eq!(m.witnesses[0].relation, bid);
            assert_eq!(m.witnesses[1].relation, aid);
        }
    }
}
