//! The reference probe: a fixed CPU task of the benchmark's own, timed
//! between blocks of load, that expresses every gated time at one
//! reference machine speed.
//!
//! The shared host the benchmark runs on changes speed in phases, from
//! a fraction of a second to minutes long: in one run the same request
//! took 0.9 ms for a few hundred milliseconds, then 1.4 ms, then 0.9 ms
//! again, and the phases' share of a run differs from run to run. A raw
//! median then measures the host as much as the program. The probe sees
//! the same phases, so a time `t` measured in a block whose surrounding
//! probes took `p` µs is reported as `t × REF_US / p`: what it would
//! have taken on a machine where the probe takes [`REF_US`].
//!
//! The task uses no code of the repository's crates, so a change to the
//! program never moves the probe; it mixes what a solve does (allocation,
//! a sort's branchy comparisons and moves, hashing, a few dozen KiB of
//! working set).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time that defines the reference speed, µs: about what the task
/// takes on the 2-vCPU machine the benchmark was tuned on, so reported
/// times read close to raw ones there.
pub const REF_US: f64 = 150.0;

/// Runs of the task per probe; a probe is their median.
const REPS: usize = 9;

/// Keys the task sorts and hashes.
const KEYS: usize = 4000;

/// The task: sort `KEYS` xorshift keys, then hash every fourth one.
fn task(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut buckets: HashMap<u64, usize> = HashMap::new();
    for (i, k) in keys.iter().enumerate().step_by(4) {
        buckets.insert(k >> 40, i);
    }
    keys[KEYS / 2] ^ buckets.len() as u64
}

/// One probe: the median time of [`REPS`] runs of the task, µs.
pub fn probe() -> f64 {
    let mut times: Vec<f64> = (1..=REPS as u64)
        .map(|seed| {
            let t = Instant::now();
            black_box(task(black_box(seed)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// The factor that takes a time measured between probes `before` and
/// `after` to the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REF_US / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_the_reference_speed_and_inverse_to_the_probe() {
        assert_eq!(scale(REF_US, REF_US), 1.0);
        // A host twice as slow: times halve on the way to reference.
        assert_eq!(scale(2.0 * REF_US, 2.0 * REF_US), 0.5);
        // Between a slow and a fast probe, their mean counts.
        assert_eq!(scale(100.0, 200.0), REF_US / 150.0);
    }

    #[test]
    fn the_task_is_deterministic_and_the_probe_positive() {
        assert_eq!(task(3), task(3));
        assert_ne!(task(3), task(4));
        assert!(probe() > 0.0);
    }
}
