//! The reduction from view side-effect to Red-Blue Set Cover (Claim 1 of
//! the paper) and from balanced deletion propagation to Positive-Negative
//! Partial Set Cover (Lemma 1).
//!
//! Construction (§IV.A): one **blue** element per view tuple to be deleted,
//! one **red** element per view tuple to be preserved (weights carried
//! over), and one **set** per candidate base tuple `t` containing exactly
//! the view tuples whose witness set contains `t`. Key-preservation makes
//! the witness sets — and hence the reduction — well defined and unique.
//! The mapping preserves feasibility and cost exactly in both directions,
//! which is what lets the Red-Blue algorithms' guarantees transfer.
//!
//! The image is assembled directly from the [`CompiledInstance`] CSR rows
//! — the blue row of set `t` is the IR's `hit_row(t)`, the red row its
//! `incidence_row(t)`, both already sorted and deduplicated — so no tuple
//! set is re-hashed ([`CoverSet::from_sorted`]).

use crate::ir::CompiledInstance;
use crate::solution::Solution;
use delprop_query::ViewTupleId;
use delprop_relation::TupleId;
use delprop_setcover::{CoverSet, PnSet, PosNegInstance, RedBlueInstance};

/// A view-side-effect instance expressed as Red-Blue Set Cover.
#[derive(Debug, Clone)]
pub struct VseAsRedBlue {
    /// The Red-Blue image.
    pub instance: RedBlueInstance,
    /// Set `i` of the image corresponds to deleting `tuples[i]`.
    pub tuples: Vec<TupleId>,
    /// Blue element `b` is view tuple `blue_ids[b]` (∈ ΔV).
    pub blue_ids: Vec<ViewTupleId>,
    /// Red element `r` is view tuple `red_ids[r]` (preserved, vulnerable).
    pub red_ids: Vec<ViewTupleId>,
}

impl VseAsRedBlue {
    /// Map a Red-Blue selection back to a deletion solution.
    pub fn map_back(&self, selection: &[usize]) -> Solution {
        Solution::from_tuples(selection.iter().map(|&si| self.tuples[si]))
    }
}

/// Reduce a (standard, weighted) view-side-effect instance to Red-Blue Set
/// Cover over the candidate tuples.
pub fn to_redblue(ir: &CompiledInstance) -> VseAsRedBlue {
    let (incidence, hit) = (ir.incidence_rows(), ir.hit_rows());
    let sets: Vec<CoverSet> = (0..ir.num_bases() as u32)
        .map(|b| {
            CoverSet::from_sorted(
                incidence.row(b).iter().map(|&r| r as usize).collect(),
                hit.row(b).iter().map(|&d| d as usize).collect(),
            )
        })
        .collect();
    VseAsRedBlue {
        instance: RedBlueInstance::with_weights(
            ir.num_vulnerable(),
            ir.num_demands(),
            ir.vulnerable_weights().to_vec(),
            sets,
        ),
        tuples: ir.bases().collect(),
        blue_ids: ir.demands().collect(),
        red_ids: ir.vulnerable().collect(),
    }
}

/// A balanced instance expressed as Positive-Negative Partial Set Cover.
#[derive(Debug, Clone)]
pub struct BalancedAsPosNeg {
    /// The Pos-Neg image.
    pub instance: PosNegInstance,
    /// Set `i` corresponds to deleting `tuples[i]`.
    pub tuples: Vec<TupleId>,
    /// Positive element `p` is view tuple `pos_ids[p]` (∈ ΔV).
    pub pos_ids: Vec<ViewTupleId>,
    /// Negative element `n` is view tuple `neg_ids[n]` (preserved).
    pub neg_ids: Vec<ViewTupleId>,
}

impl BalancedAsPosNeg {
    /// Map a Pos-Neg selection back to a deletion solution.
    pub fn map_back(&self, selection: &[usize]) -> Solution {
        Solution::from_tuples(selection.iter().map(|&si| self.tuples[si]))
    }
}

/// Reduce a (weighted) balanced instance to Pos-Neg Partial Set Cover.
pub fn to_posneg(ir: &CompiledInstance) -> BalancedAsPosNeg {
    let (hit, incidence) = (ir.hit_rows(), ir.incidence_rows());
    let sets: Vec<PnSet> = (0..ir.num_bases() as u32)
        .map(|b| {
            PnSet::from_sorted(
                hit.row(b).iter().map(|&d| d as usize).collect(),
                incidence.row(b).iter().map(|&r| r as usize).collect(),
            )
        })
        .collect();
    let (pos_weights, neg_weights) = (ir.demand_weights(), ir.vulnerable_weights());
    BalancedAsPosNeg {
        instance: PosNegInstance::with_weights(pos_weights.to_vec(), neg_weights.to_vec(), sets),
        tuples: ir.bases().collect(),
        pos_ids: ir.demands().collect(),
        neg_ids: ir.vulnerable().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use delprop_query::parse_query;
    use delprop_relation::{tup, Database, RelationSchema, Schema};

    fn fig1_problem() -> Problem {
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
        let q4 = parse_query("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let mut p = Problem::new(d, vec![q4]).unwrap();
        p.mark_deleted(0, &tup!["John", "TKDE", "XML"]).unwrap();
        p
    }

    #[test]
    fn reduction_shape_matches_fig1() {
        let p = fig1_problem();
        let rb = to_redblue(p.compiled());
        // Candidates: T1(John,TKDE), T2(TKDE,XML,30) -> 2 sets.
        assert_eq!(rb.tuples.len(), 2);
        assert_eq!(rb.instance.num_blue(), 1);
        // Vulnerable preserved: Joe×XML, Tom×XML, John×CUBE -> 3 reds.
        assert_eq!(rb.instance.num_red(), 3);
        assert!(rb.instance.is_coverable());
    }

    #[test]
    fn costs_transfer_exactly() {
        let p = fig1_problem();
        let rb = to_redblue(p.compiled());
        for si in 0..rb.tuples.len() {
            let selection = vec![si];
            let sol = rb.map_back(&selection);
            assert!(rb.instance.is_feasible(&selection) == sol.is_feasible(&p));
            assert!(
                (rb.instance.cost(&selection) - sol.side_effect(&p)).abs() < 1e-9,
                "red cost must equal view side-effect"
            );
        }
    }

    #[test]
    fn balanced_costs_transfer_exactly() {
        let p = fig1_problem();
        let pn = to_posneg(p.compiled());
        // Empty selection: cost = weight of the single positive = 1.
        assert_eq!(pn.instance.cost(&[]), 1.0);
        assert_eq!(pn.map_back(&[]).balanced_cost(&p), 1.0);
        for si in 0..pn.tuples.len() {
            let sel = vec![si];
            let sol = pn.map_back(&sel);
            assert!(
                (pn.instance.cost(&sel) - sol.balanced_cost(&p)).abs() < 1e-9,
                "pos-neg cost must equal balanced cost"
            );
        }
    }

    #[test]
    fn weights_carried_into_image() {
        let mut p = fig1_problem();
        // Weight every preserved tuple 3.0.
        let ids: Vec<ViewTupleId> = p.preserved().map(|(id, _)| id).collect();
        for id in ids {
            p.set_weight(id, 3.0).unwrap();
        }
        let rb = to_redblue(p.compiled());
        for r in 0..rb.instance.num_red() {
            assert_eq!(rb.instance.red_weight(r), 3.0);
        }
    }

    #[test]
    fn no_deletions_gives_trivial_image() {
        let schema =
            Schema::from_relations([RelationSchema::new("T", 1, vec![0]).unwrap()]).unwrap();
        let mut d = Database::new(schema);
        d.insert("T", tup![1]).unwrap();
        let q = parse_query("Q(x) :- T(x)")
            .unwrap()
            .bind(d.schema())
            .unwrap();
        let p = Problem::new(d, vec![q]).unwrap();
        let rb = to_redblue(p.compiled());
        assert_eq!(rb.instance.num_blue(), 0);
        assert!(rb.instance.is_feasible(&[]));
    }
}
