//! The three workloads and their seeded request streams.
//!
//! The daemon only ever sees an [`InstanceSpec`] and wire requests. The
//! instance is part of a workload's definition (its generator seed is
//! fixed), so every run measures the same problem; the benchmark seed
//! draws the request stream, so one seed reproduces one run's inputs
//! exactly.

use std::time::Duration;

use delprop_core::Problem;
use delprop_server::{InstanceSpec, Request, SolveRequest};
use delprop_workload::rng::SplitMix64;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["solve-forest", "delta-mix", "solve-shard"];

/// One workload: the served instance and the client mix driving it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Instance the daemon serves at epoch 1.
    pub spec: InstanceSpec,
    /// Closed-loop connections sending `solve`.
    pub readers: usize,
    /// Whether one more connection streams `publish_delta` batches.
    pub writer: bool,
    /// Whether every solve sets `sharded: true`.
    pub sharded: bool,
    /// Extra ΔV tuples each solve request carries.
    pub extra_deletions: usize,
    /// View tuples per `publish_delta` batch.
    pub batch: usize,
    /// Time between the starts of two writer operations.
    pub publish_period: Duration,
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        // ‖V‖ = 1792, ‖ΔV‖ = 369, 198 components.
        let forest = InstanceSpec::Forest {
            levels: 4,
            window: 2,
            chains: 1024,
            delete_fraction: 0.2,
            weighted: false,
            seed: 7,
        };
        Some(match name {
            "solve-forest" => Workload {
                name: "solve-forest",
                spec: forest,
                readers: 2,
                writer: false,
                sharded: false,
                extra_deletions: 0,
                batch: 0,
                publish_period: Duration::ZERO,
            },
            "delta-mix" => Workload {
                name: "delta-mix",
                // ‖V‖ = 1646, ‖ΔV‖ = 409, one component.
                spec: InstanceSpec::Random {
                    num_relations: 6,
                    num_queries: 3,
                    atoms_per_query: 3,
                    domain: 20,
                    tuples_per_relation: 60,
                    delete_fraction: 0.25,
                    weighted: true,
                    seed: 3,
                },
                readers: 1,
                writer: true,
                sharded: false,
                extra_deletions: 4,
                batch: 8,
                publish_period: Duration::from_millis(4),
            },
            "solve-shard" => Workload {
                name: "solve-shard",
                spec: forest,
                readers: 1,
                writer: false,
                sharded: true,
                extra_deletions: 0,
                batch: 0,
                publish_period: Duration::ZERO,
            },
            _ => return None,
        })
    }
}

/// The seeded request stream of one workload: request `i` of
/// connection `c` (and writer step `s`) is a pure function of the seed,
/// so the untraced load, the traced replay and the correctness check
/// all agree on what was asked.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    sharded: bool,
    extra: usize,
    batch: usize,
    publish_period: Duration,
    /// `(view, index)` of every view tuple the base instance preserves:
    /// the pool extra deletions and writer batches draw from, so a
    /// writer restore never withdraws a base deletion.
    preserved: Vec<(usize, usize)>,
}

impl Stream {
    /// The stream of `w` over its built base instance.
    pub fn new(w: &Workload, base: &Problem, seed: u64) -> Stream {
        Stream {
            seed,
            sharded: w.sharded,
            extra: w.extra_deletions,
            batch: w.batch,
            publish_period: w.publish_period,
            preserved: base
                .preserved()
                .map(|(id, _)| (id.view, id.index))
                .collect(),
        }
    }

    /// `n` distinct preserved view tuples drawn by `rng`, sorted.
    fn draw(&self, rng: &mut SplitMix64, n: usize) -> Vec<(usize, usize)> {
        let n = n.min(self.preserved.len());
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(n);
        while out.len() < n {
            let t = self.preserved[rng.below(self.preserved.len())];
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out.sort_unstable();
        out
    }

    fn rng(&self, lane: u64, i: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(
            self.seed
                ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Solve request `i` of reader connection `conn`. Racing is pinned
    /// off: on a small box its winner, and so its cost, depends on the
    /// scheduler.
    pub fn solve(&self, conn: usize, i: u64) -> SolveRequest {
        let deletions = if self.extra == 0 {
            Vec::new()
        } else {
            self.draw(&mut self.rng(1 + conn as u64, i), self.extra)
        };
        SolveRequest {
            tenant: format!("reader-{conn}"),
            deletions,
            racing: Some(false),
            sharded: Some(self.sharded),
            ..SolveRequest::default()
        }
    }

    /// The view tuples of writer batch `k`.
    pub fn batch(&self, k: u64) -> Vec<(usize, usize)> {
        self.draw(&mut self.rng(0, k), self.batch)
    }

    /// Time between the starts of two writer operations.
    pub fn publish_period(&self) -> Duration {
        self.publish_period
    }

    /// Writer step `s`: even steps delete batch `s / 2`, odd steps
    /// restore it, so the served instance stays stationary.
    pub fn publish(&self, s: u64) -> Request {
        let tuples = self.batch(s / 2);
        if s.is_multiple_of(2) {
            Request::PublishDelta {
                deletions: tuples,
                restores: Vec::new(),
            }
        } else {
            Request::PublishDelta {
                deletions: Vec::new(),
                restores: tuples,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let w = Workload::named("delta-mix").unwrap();
        let base = w.spec.build().unwrap();
        let a = Stream::new(&w, &base, 3);
        let b = Stream::new(&w, &base, 3);
        assert_eq!(a.solve(0, 17), b.solve(0, 17));
        assert_eq!(a.publish(9), b.publish(9));
        let req = a.solve(0, 17);
        assert_eq!(req.deletions.len(), 4);
        assert_eq!(req.racing, Some(false));
        assert!(req
            .deletions
            .iter()
            .all(|&(v, i)| !base.is_deleted(delprop_query::ViewTupleId::new(v, i))));
        assert_ne!(a.solve(0, 17), a.solve(0, 18));
        match (a.publish(4), a.publish(5)) {
            (
                Request::PublishDelta {
                    deletions,
                    restores: r0,
                },
                Request::PublishDelta {
                    deletions: d1,
                    restores,
                },
            ) => {
                assert_eq!(deletions.len(), 8);
                assert_eq!(deletions, restores);
                assert!(r0.is_empty() && d1.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_workload_is_known_by_name() {
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            assert_eq!(w.name, name);
            assert!(
                w.readers + usize::from(w.writer) <= 2,
                "two connections at most"
            );
        }
        assert!(Workload::named("nope").is_none());
    }
}
