//! Jittered exponential backoff for transient-failure retries.
//!
//! The delay schedule is *full jitter* over an exponentially growing
//! window (`uniform(0 ..= min(base·factor^attempt, max))`): under
//! correlated failures — every member of a portfolio tripping over the
//! same transient fault — full jitter decorrelates the retry herd,
//! while the exponential cap keeps a persistently failing request from
//! hammering the solvers. Randomness comes from the workload crate's
//! `SplitMix64`, seeded per request, so a replayed request retries on
//! a replayable schedule.
//!
//! This module is the repository's **only sanctioned
//! `thread::sleep`** outside fault injection and tests (enforced by
//! `cargo run -p delprop-analyzer -- lint`, rule *no-sleep*): every
//! delay here is bounded by the request deadline, so a sleeping retry
//! can never outlive the request that asked for it.

use std::time::{Duration, Instant};

use delprop_core::runtime::now;
use delprop_workload::rng::SplitMix64;

/// Backoff schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Jitter window of the first retry, µs.
    pub base_micros: u64,
    /// Window growth per retry.
    pub factor: u32,
    /// Window cap, µs.
    pub max_micros: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_micros: 500,
            factor: 2,
            max_micros: 50_000,
        }
    }
}

/// Per-request backoff state.
pub struct Backoff {
    policy: BackoffPolicy,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// Fresh schedule; `seed` makes the jitter replayable.
    pub fn new(policy: BackoffPolicy, seed: u64) -> Self {
        Backoff {
            policy,
            attempt: 0,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Next delay: full jitter over the current exponential window.
    pub fn next_delay(&mut self) -> Duration {
        let window = self
            .policy
            .base_micros
            .saturating_mul(u64::from(self.policy.factor).saturating_pow(self.attempt))
            .min(self.policy.max_micros);
        self.attempt = self.attempt.saturating_add(1);
        // `below` takes a usize: clamp the window before casting (a
        // `window as usize` would silently wrap on 32-bit targets) and
        // saturate the +1 so a `max_micros` of `usize::MAX` cannot
        // overflow the bound to 0.
        let bound = usize::try_from(window)
            .unwrap_or(usize::MAX)
            .saturating_add(1);
        let jittered = self.rng.below(bound) as u64;
        Duration::from_micros(jittered)
    }

    /// Sleep the next delay, clamped to `deadline`. Returns whether
    /// wall-clock remains for another attempt afterwards.
    pub fn sleep_before_retry(&mut self, deadline: Instant) -> bool {
        let delay = self.next_delay();
        let remaining = deadline.saturating_duration_since(now());
        if remaining.is_zero() {
            return false;
        }
        // The one sanctioned sleep: bounded by both the jitter window
        // cap and the request deadline.
        std::thread::sleep(delay.min(remaining));
        now() < deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_grow_exponentially_and_cap() {
        let policy = BackoffPolicy {
            base_micros: 100,
            factor: 2,
            max_micros: 400,
        };
        // Same seed → same schedule; every delay within the window.
        let delays: Vec<Duration> = {
            let mut b = Backoff::new(policy, 42);
            (0..6).map(|_| b.next_delay()).collect()
        };
        let replay: Vec<Duration> = {
            let mut b = Backoff::new(policy, 42);
            (0..6).map(|_| b.next_delay()).collect()
        };
        assert_eq!(delays, replay, "same seed must replay the schedule");
        for (i, d) in delays.iter().enumerate() {
            let window = (100u64 << i.min(2)).min(400);
            assert!(
                d.as_micros() as u64 <= window,
                "delay {i} = {d:?} exceeds window {window}µs"
            );
        }
    }

    #[test]
    fn extreme_windows_do_not_overflow_the_jitter_bound() {
        // `max_micros = u64::MAX` saturates the exponential window; the
        // sampling bound must clamp to the usize range and saturate the
        // +1 instead of wrapping to 0 (which would panic in `below`).
        let mut b = Backoff::new(
            BackoffPolicy {
                base_micros: u64::MAX,
                factor: u32::MAX,
                max_micros: u64::MAX,
            },
            3,
        );
        for _ in 0..4 {
            let _ = b.next_delay(); // must not panic
        }
        // Exactly usize::MAX as a window exercises the saturating +1.
        let mut b = Backoff::new(
            BackoffPolicy {
                base_micros: usize::MAX as u64,
                factor: 1,
                max_micros: usize::MAX as u64,
            },
            3,
        );
        let _ = b.next_delay();
        // A zero window must stay a guaranteed-zero delay.
        let mut b = Backoff::new(
            BackoffPolicy {
                base_micros: 0,
                factor: 2,
                max_micros: 0,
            },
            9,
        );
        assert_eq!(b.next_delay(), Duration::ZERO);
    }

    #[test]
    fn sleep_respects_the_deadline() {
        let mut b = Backoff::new(
            BackoffPolicy {
                base_micros: 1_000_000, // 1 s window...
                factor: 2,
                max_micros: 1_000_000,
            },
            7,
        );
        // ...but the deadline is 10 ms away: the sleep must clamp.
        let deadline = now() + Duration::from_millis(10);
        let start = now();
        let more = b.sleep_before_retry(deadline);
        assert!(start.elapsed() < Duration::from_millis(200));
        // Either outcome of `more` is legal (depends on jitter); a
        // deadline already passed must report false immediately.
        let _ = more;
        let past = now() - Duration::from_millis(1);
        assert!(!b.sleep_before_retry(past));
    }
}
