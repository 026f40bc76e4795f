//! The per-layer ledger: self times and self-reported values from the
//! traced run, reconciled against the untraced end-to-end median.

use std::collections::HashMap;

use crate::replay::Trace;
use crate::stats::Summary;

/// Portfolio members that run on some workload: `lowdeg_tree` wins the
/// standard chain on both instances (no other member is reached), and
/// `sharded` is the pseudo-member `Portfolio::solve_sharded` reports.
/// `portfolio.members_run` shows when that changes.
pub const MEMBERS: [&str; 2] = ["lowdeg_tree", "sharded"];

/// Spans on a solve's path, in path order; their self-time medians
/// plus the root's own self time add up to the replayed request.
pub const SOLVE_PATH: [&str; 8] = [
    "wire.client_encode",
    "wire.decode",
    "admission.wait",
    "epoch.pin",
    "engine.with_delta",
    "portfolio.solve",
    "wire.encode",
    "wire.client_decode",
];

/// Self times per span name (µs) and self-reported values per name.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Span name → self time of every span so named, µs.
    pub self_us: HashMap<&'static str, Vec<f64>>,
    /// Span name → wall time of every span so named, µs.
    pub wall_us: HashMap<&'static str, Vec<f64>>,
    /// Measure name → every value reported under it.
    pub values: HashMap<String, Vec<f64>>,
}

impl Ledger {
    /// Fold a trace: a span's self time is its duration less the part
    /// of its interval its children cover.
    pub fn of(trace: &Trace) -> Ledger {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        let by_id: HashMap<u64, usize> = trace
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        for s in &trace.spans {
            let Some(&p) = s.parent.and_then(|p| by_id.get(&p)) else {
                continue;
            };
            let parent = &trace.spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            *covered.entry(parent.id).or_default() += hi.saturating_sub(lo);
        }
        let mut ledger = Ledger::default();
        for s in &trace.spans {
            let wall = s.end_ns - s.start_ns;
            let own = wall.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            ledger
                .self_us
                .entry(s.name)
                .or_default()
                .push(own as f64 / 1e3);
            ledger
                .wall_us
                .entry(s.name)
                .or_default()
                .push(wall as f64 / 1e3);
        }
        for m in &trace.measures {
            ledger
                .values
                .entry(m.name.clone())
                .or_default()
                .push(m.value);
        }
        // Member self time: the member's span less its verification,
        // which the portfolio ran inside it for the winner.
        let verify: HashMap<u64, f64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "verify")
            .map(|s| (s.request, s.micros()))
            .collect();
        let won: HashMap<u64, &str> = trace
            .measures
            .iter()
            .filter_map(|m| {
                let member = m.name.strip_prefix("member.")?.strip_suffix(".won")?;
                Some((m.request, member))
            })
            .collect();
        for m in &trace.measures {
            let Some(member) = m
                .name
                .strip_prefix("member.")
                .and_then(|n| n.strip_suffix("_us"))
            else {
                continue;
            };
            let verified = match won.get(&m.request) {
                Some(&w) if w == member => verify.get(&m.request).copied().unwrap_or(0.0),
                _ => 0.0,
            };
            ledger
                .values
                .entry(format!("member.{member}.self_us"))
                .or_default()
                .push((m.value - verified).max(0.0));
        }
        ledger
    }

    /// Self-time summary of span `name` (empty when it never ran).
    pub fn span(&self, name: &str) -> Summary {
        Summary::of(&mut self.self_us.get(name).cloned().unwrap_or_default())
    }

    /// Wall-time summary of span `name`, children included.
    pub fn wall(&self, name: &str) -> Summary {
        Summary::of(&mut self.wall_us.get(name).cloned().unwrap_or_default())
    }

    /// Summary of the values reported as `name`.
    pub fn value(&self, name: &str) -> Summary {
        Summary::of(&mut self.values.get(name).cloned().unwrap_or_default())
    }

    /// Mean of the values reported as `name` (0 when none were).
    pub fn mean(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Sum of the self-time medians along a solve's path, root
    /// included: what the layers account for of one request.
    pub fn path_us(&self) -> f64 {
        SOLVE_PATH
            .iter()
            .chain(["request"].iter())
            .map(|name| self.span(name).p50)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{Measure, Span};

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_inside_the_parent_only() {
        let trace = Trace {
            spans: vec![
                span(1, None, "request", 0, 10_000),
                span(2, Some(1), "wire.decode", 1_000, 2_000),
                span(3, Some(1), "portfolio.solve", 2_000, 9_000),
                // A probe after the root closes does not eat its time.
                span(4, Some(1), "verify", 12_000, 15_000),
            ],
            measures: vec![
                Measure {
                    span: 3,
                    request: 1,
                    name: "member.lowdeg_tree_us".to_string(),
                    value: 5.0,
                },
                Measure {
                    span: 4,
                    request: 1,
                    name: "member.lowdeg_tree.won".to_string(),
                    value: 1.0,
                },
            ],
            ..Trace::default()
        };
        let l = Ledger::of(&trace);
        assert_eq!(l.span("request").p50, 2.0);
        assert_eq!(l.wall("request").p50, 10.0);
        assert_eq!(l.span("wire.decode").p50, 1.0);
        assert_eq!(l.span("portfolio.solve").p50, 7.0);
        assert_eq!(l.span("verify").p50, 3.0);
        assert_eq!(l.value("member.lowdeg_tree.self_us").p50, 2.0);
        assert_eq!(l.span("engine.with_delta").n, 0);
        // decode 1 + solve 7 + root self 2; absent layers add nothing.
        assert_eq!(l.path_us(), 10.0);
    }
}
