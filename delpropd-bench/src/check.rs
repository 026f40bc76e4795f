//! Client-side correctness check, run after the timed window.
//!
//! Every `ok` answer names the epoch it was computed against. The
//! checker rebuilds that epoch's instance from what the client itself
//! sent — the base ΔV, plus the writer batch live at that epoch, plus
//! the request's own `deletions` — then rebuilds the answer's ΔD with
//! [`Solution::from_tuples`] and asserts that it is feasible and that
//! its recomputed cost equals the certified `cost` exactly (costs cross
//! the wire as shortest round-trip floats, so equality is exact).

use std::collections::HashMap;
use std::sync::Arc;

use delprop_core::{Problem, Solution};
use delprop_query::ViewTupleId;
use delprop_relation::{RelationId, TupleId};

use crate::load::Window;
use crate::workload::Stream;

/// Failure messages kept for the report.
const KEEP_MESSAGES: usize = 5;

/// What the check found.
#[derive(Debug, Default)]
pub struct Report {
    /// `ok` solve answers checked.
    pub solves_checked: u64,
    /// Of those, answers that failed the check.
    pub solves_bad: u64,
    /// Publish answers checked.
    pub publishes_checked: u64,
    /// Of those, answers that failed the check.
    pub publishes_bad: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Report {
    fn fail(&mut self, message: String) {
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// Check every answer of `timed`. `earlier` holds the windows the same
/// daemon served before it (its warm-up), whose publishes also define
/// what an epoch contains.
pub fn check(base: &Problem, stream: &Stream, earlier: &[&Window], timed: &Window) -> Report {
    let mut report = Report::default();

    // Epoch → the writer batch live at it (`None`: the base instance).
    let mut epochs: HashMap<u64, Option<u64>> = HashMap::from([(1, None)]);
    for p in earlier.iter().chain([&timed]).flat_map(|w| &w.publishes) {
        let Ok(done) = &p.answer else { continue };
        let live = p.step.is_multiple_of(2).then_some(p.step / 2);
        if epochs.insert(done.epoch, live).is_some() {
            report.publishes_bad += 1;
            report.fail(format!("epoch {} was published twice", done.epoch));
        }
    }
    for p in &timed.publishes {
        let Ok(done) = &p.answer else { continue };
        report.publishes_checked += 1;
        let n = stream.batch(p.step / 2).len() as u64;
        let want = if p.step.is_multiple_of(2) {
            (n, 0)
        } else {
            (0, n)
        };
        if (done.deleted, done.restored) != want {
            report.publishes_bad += 1;
            report.fail(format!(
                "publish step {}: applied {} deletes / {} restores, expected {} / {}",
                p.step, done.deleted, done.restored, want.0, want.1
            ));
        }
    }

    // Answers repeat (every solve-forest request asks the same thing),
    // so recomputed costs are memoized on everything they depend on.
    type Key = (Option<u64>, Vec<(usize, usize)>, Arc<[(usize, usize)]>);
    let mut memo: HashMap<Key, Result<f64, String>> = HashMap::new();
    for s in &timed.solves {
        let Ok(ok) = &s.answer else { continue };
        report.solves_checked += 1;
        let Some(&live) = epochs.get(&ok.epoch) else {
            report.solves_bad += 1;
            report.fail(format!("answer names unknown epoch {}", ok.epoch));
            continue;
        };
        let extra = stream.solve(s.conn, s.index).deletions;
        let key = (live, extra, Arc::clone(&ok.deleted));
        let recomputed = memo
            .entry(key)
            .or_insert_with_key(|(live, extra, deleted)| {
                let batch = live.map(|k| stream.batch(k)).unwrap_or_default();
                recompute(base, batch.iter().chain(extra), deleted)
            })
            .clone();
        let verdict = match recomputed {
            Ok(cost) if cost == ok.cost => continue,
            Ok(cost) => format!("certified cost {} but recomputed {cost}", ok.cost),
            Err(e) => e,
        };
        report.solves_bad += 1;
        report.fail(format!(
            "reader {} request {} at epoch {}: {verdict}",
            s.conn, s.index, ok.epoch
        ));
    }
    report
}

/// Cost of `deleted` on `base` with `extra` view tuples added to ΔV,
/// or why the answer is wrong.
fn recompute<'a>(
    base: &Problem,
    extra: impl Iterator<Item = &'a (usize, usize)>,
    deleted: &[(usize, usize)],
) -> Result<f64, String> {
    let mut problem = base.clone();
    for &(view, index) in extra {
        problem
            .mark_deleted_id(ViewTupleId::new(view, index))
            .map_err(|e| format!("request names a bad view tuple: {e}"))?;
    }
    let solution = Solution::from_tuples(
        deleted
            .iter()
            .map(|&(relation, index)| TupleId::new(RelationId(relation), index)),
    );
    if !solution.is_feasible(&problem) {
        return Err("ΔD leaves a ΔV tuple in place".to_string());
    }
    Ok(solution.side_effect(&problem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{Answer, Publish, Published, Solve};
    use crate::workload::Workload;
    use delprop_core::runtime::{Budget, Portfolio};

    /// A correct answer to reader 0's request 0 at `epoch`, solved on
    /// the instance that epoch holds (batch 0 live when `with_batch`).
    fn answer(base: &Problem, stream: &Stream, epoch: u64, with_batch: bool) -> Answer {
        let mut p = base.clone();
        let batch = if with_batch {
            stream.batch(0)
        } else {
            Vec::new()
        };
        for &(v, i) in batch.iter().chain(&stream.solve(0, 0).deletions) {
            p.mark_deleted_id(ViewTupleId::new(v, i)).unwrap();
        }
        let out = Portfolio::standard()
            .solve(&p, &Budget::unlimited())
            .unwrap();
        Answer {
            epoch,
            cost: out.cost,
            degraded: false,
            micros: 0,
            deleted: out
                .solution
                .deleted
                .iter()
                .map(|t| (t.relation.0, t.index))
                .collect(),
        }
    }

    fn window(answer: Answer, publishes: Vec<Publish>) -> Window {
        Window {
            solves: vec![Solve {
                conn: 0,
                index: 0,
                at_s: 0.0,
                rtt_us: 1.0,
                scale: 1.0,
                answer: Ok(answer),
            }],
            publishes,
            elapsed_s: 1.0,
            ref_elapsed_s: 1.0,
        }
    }

    #[test]
    fn correct_answers_pass_and_wrong_ones_are_caught() {
        let w = Workload::named("delta-mix").unwrap();
        let base = w.spec.build().unwrap();
        let stream = Stream::new(&w, &base, 5);
        let good = answer(&base, &stream, 1, false);
        let r = check(&base, &stream, &[], &window(good.clone(), Vec::new()));
        assert_eq!((r.solves_checked, r.solves_bad), (1, 0), "{:?}", r.messages);

        let wrong_cost = Answer {
            cost: good.cost + 1.0,
            ..good.clone()
        };
        let r = check(&base, &stream, &[], &window(wrong_cost, Vec::new()));
        assert_eq!(r.solves_bad, 1);
        assert!(r.messages[0].contains("recomputed"), "{:?}", r.messages);

        let nothing_deleted = Answer {
            deleted: Arc::from(Vec::new()),
            ..good.clone()
        };
        let r = check(&base, &stream, &[], &window(nothing_deleted, Vec::new()));
        assert_eq!(r.solves_bad, 1);

        let unknown_epoch = Answer { epoch: 9, ..good };
        let r = check(&base, &stream, &[], &window(unknown_epoch, Vec::new()));
        assert_eq!(r.solves_bad, 1);
    }

    #[test]
    fn an_answer_is_checked_against_the_batch_live_at_its_epoch() {
        let w = Workload::named("delta-mix").unwrap();
        let base = w.spec.build().unwrap();
        let stream = Stream::new(&w, &base, 5);
        let batch = stream.batch(0).len() as u64;
        let published = |restored| Publish {
            step: 0,
            rtt_us: 1.0,
            scale: 1.0,
            answer: Ok(Published {
                epoch: 2,
                deleted: batch,
                restored,
            }),
        };
        let at_2 = answer(&base, &stream, 2, true);
        let r = check(&base, &stream, &[], &window(at_2, vec![published(0)]));
        assert_eq!((r.solves_bad, r.publishes_bad), (0, 0), "{:?}", r.messages);
        assert_eq!(r.publishes_checked, 1);

        // A publish reporting what it was not asked to do is caught.
        let at_2 = answer(&base, &stream, 2, true);
        let r = check(&base, &stream, &[], &window(at_2, vec![published(3)]));
        assert_eq!(r.publishes_bad, 1);
    }
}
