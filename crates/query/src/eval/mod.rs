//! Query evaluation: matches, answers, and two engines.
//!
//! [`naive`] is a straightforward backtracking evaluator used as the
//! correctness oracle; [`hashjoin`] is the general-purpose engine (hash
//! joins over a greedily-ordered atom sequence); [`yannakakis`] is the
//! specialist for α-acyclic queries (semijoin full reducer over a
//! [`jointree`], O(input + output) for full acyclic CQs). All engines
//! produce the same multiset of [`QueryMatch`]es; property tests in this
//! crate and the workspace integration suite pin them against each other.

mod compile;
pub mod hashjoin;
pub mod jointree;
pub mod naive;
pub mod yannakakis;

pub use compile::{CompiledAtom, CompiledQuery, Slot};
pub use jointree::JoinTree;

use delprop_relation::{Tuple, TupleId, Value};

/// One match (assignment μ) of a query in a database: the values taken by
/// each variable, and the base tuple each atom was matched to (the witness
/// list, in body-atom order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMatch {
    /// Values per variable slot (see [`CompiledQuery::vars`]).
    pub assignment: Vec<Value>,
    /// One base tuple per atom, in body order.
    pub witnesses: Vec<TupleId>,
}

impl QueryMatch {
    /// Project the head tuple `μ(y)` of this match.
    pub fn head(&self, compiled: &CompiledQuery) -> Tuple {
        compiled
            .head_slots
            .iter()
            .map(|&s| self.assignment[s].clone())
            .collect()
    }
}

/// Canonically order matches (by assignment, then witnesses) so the two
/// engines can be compared for equality.
pub fn sort_matches(matches: &mut [QueryMatch]) {
    matches.sort_by(|a, b| {
        a.assignment
            .cmp(&b.assignment)
            .then_with(|| a.witnesses.cmp(&b.witnesses))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use delprop_relation::{tup, Database, RelationSchema, Schema};

    fn db() -> Database {
        let schema = Schema::from_relations([
            RelationSchema::new("T1", 2, vec![0, 1]).unwrap(),
            RelationSchema::new("T2", 3, vec![0, 1]).unwrap(),
        ])
        .unwrap();
        let mut d = Database::new(schema);
        for t in [
            tup!["Joe", "TKDE"],
            tup!["John", "TKDE"],
            tup!["Tom", "TKDE"],
            tup!["John", "TODS"],
        ] {
            d.insert("T1", t).unwrap();
        }
        for t in [
            tup!["TKDE", "XML", 30],
            tup!["TKDE", "CUBE", 30],
            tup!["TODS", "XML", 30],
        ] {
            d.insert("T2", t).unwrap();
        }
        d
    }

    /// The paper's Fig. 1: Q3 has 6 answers (7 matches incl. the (John,
    /// TODS, XML) path giving a duplicate head (John, XML)).
    #[test]
    fn engines_agree_on_fig1() {
        let d = db();
        let q = parse_query("Q3(x, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let c = CompiledQuery::compile(&q);
        let mut a = naive::evaluate(&d, &c);
        let mut b = hashjoin::evaluate(&d, &c, &[]);
        sort_matches(&mut a);
        sort_matches(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7, "7 joinable (author,journal,topic) paths");
        // distinct heads = 6 view tuples, as in Fig. 1(c)
        let mut heads: Vec<_> = a.iter().map(|m| m.head(&c)).collect();
        heads.sort();
        heads.dedup();
        assert_eq!(heads.len(), 6);
    }

    #[test]
    fn head_projection_respects_slot_order() {
        let d = db();
        let q = parse_query("Q(z, x) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let c = CompiledQuery::compile(&q);
        let ms = hashjoin::evaluate(&d, &c, &[]);
        assert!(ms.iter().any(|m| m.head(&c) == tup!["XML", "John"]));
    }
}
