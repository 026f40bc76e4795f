//! Order statistics for latency samples, and per-operation counts.
//!
//! A tail percentile is only as good as the samples behind it: the
//! benchmark reports one only when at least [`MIN_TAIL_SAMPLES`]
//! samples lie beyond it, and always prints how many samples it saw.

use std::fmt;

/// Samples that must lie strictly beyond a tail percentile before it
/// is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) among `n`
/// samples: the smallest rank with at least a `p` share of the samples
/// at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The `p` percentile, but only when at least [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    if beyond(sorted.len(), p) < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(sorted, p)
}

/// Median and supported p99 of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (0 when there are no samples).
    pub p50: f64,
    /// p99, when the sample supports it.
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarize `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 0.5).unwrap_or(0.0),
            p99: tail(samples, 0.99),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50 {:.1}", self.p50)?;
        match self.p99 {
            Some(p99) => write!(f, "  p99 {p99:.1}")?,
            None => f.write_str("  p99 n/a (<10 samples beyond)")?,
        }
        write!(f, "  (n={})", self.n)
    }
}

/// Most slices [`sliced_p99`] cuts a sample into.
pub const MAX_SLICES: usize = 15;

/// How many equal slices of `n` samples [`sliced_p99`] takes: as many
/// as each still supports its p99, odd so that the median is one of
/// them, at most [`MAX_SLICES`]; 0 when not even one does.
pub fn slices(n: usize) -> usize {
    let k = (n / (100 * MIN_TAIL_SAMPLES)).min(MAX_SLICES);
    if k.is_multiple_of(2) {
        k.saturating_sub(1)
    } else {
        k
    }
}

/// The median, over [`slices`] equal consecutive slices of `samples`
/// (in the order they were taken), of each slice's p99; `None` unless
/// every slice supports its p99. A stall of a shared machine then moves
/// a few slices' tails, not the reported one.
pub fn sliced_p99(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let k = slices(n);
    if k == 0 {
        return None;
    }
    let mut p99s = (0..k)
        .map(|i| Summary::of(&mut samples[i * n / k..(i + 1) * n / k].to_vec()).p99)
        .collect::<Option<Vec<f64>>>()?;
    Some(Summary::of(&mut p99s).p50)
}

/// Sent / ok / failed counts of one operation type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Operations sent.
    pub sent: u64,
    /// Operations answered as intended (and passing the client check).
    pub ok: u64,
    /// Everything else: refusals, errors, transport failures, answers
    /// failing the client check.
    pub failed: u64,
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} ok {} failed {}",
            self.sent, self.ok, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank(0.99) = 990, so 9 lie beyond — refused.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond — reported.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // The median of a small sample is always supported.
        assert_eq!(tail(&ramp(21), 0.5), Some(11.0));
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn summary_sorts_and_reports_counts() {
        let mut s: Vec<f64> = ramp(2000).into_iter().rev().collect();
        let sum = Summary::of(&mut s);
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50, 1000.0);
        assert_eq!(sum.p99, Some(1980.0));
        assert!(sum.to_string().contains("(n=2000)"));

        let small = Summary::of(&mut ramp(50));
        assert_eq!(small.p99, None);
        assert!(small.to_string().contains("p99 n/a"), "{small}");
        assert_eq!(Summary::of(&mut []).p50, 0.0);
    }

    #[test]
    fn sliced_p99_takes_as_many_odd_slices_as_are_supported() {
        assert_eq!(slices(999), 0);
        assert_eq!(slices(1000), 1);
        assert_eq!(slices(2999), 1);
        assert_eq!(slices(3000), 3);
        assert_eq!(slices(14_999), 13);
        assert_eq!(slices(1_000_000), MAX_SLICES);

        // A stall inflates 40 of 3000 samples, all in the middle slice:
        // the pooled p99 lands on the stall, the sliced one does not.
        let mut samples = vec![1.0; 3000];
        for v in &mut samples[1900..1940] {
            *v = 1e6;
        }
        assert_eq!(Summary::of(&mut samples.clone()).p99, Some(1e6));
        assert_eq!(sliced_p99(&samples), Some(1.0));
        // 2999 samples make one slice: the pooled p99.
        assert_eq!(sliced_p99(&samples[..2999]), Some(1e6));
        assert_eq!(sliced_p99(&samples[..999]), None);
    }

    #[test]
    fn op_counts_always_print_all_three() {
        let c = OpCounts {
            sent: 12,
            ok: 11,
            failed: 1,
        };
        assert_eq!(c.to_string(), "sent 12 ok 11 failed 1");
        assert_eq!(OpCounts::default().to_string(), "sent 0 ok 0 failed 0");
    }
}
