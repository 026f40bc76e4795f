//! Zero-dependency atomic counters and histograms on a static registry.
//!
//! Complements [`crate::runtime::trace`]: traces answer "what happened
//! in this run, in order"; metrics answer "how much, in total, since
//! process start". Every metric is a `static` with a stable
//! dot-separated name, registered in [`counters`] / [`histograms`] and
//! rendered (sorted by name) by [`render`].
//!
//! Counters are monotone `AtomicU64`s; callers that need per-run deltas
//! snapshot before/after (the pattern [`crate::ir::compile_count`]
//! already established) rather than resetting, because tests in the
//! same process run concurrently.
//!
//! Histograms are fixed-size log2-bucketed (`bucket i` holds values
//! `v` with `2^i <= v < 2^(i+1)`, last bucket open-ended), so
//! `observe` is two `fetch_add`s and a bucket increment — cheap enough
//! for per-member timings on the racing path.

// Through the facade (not `std::sync::atomic` — the analyzer's lint
// enforces this), so model builds count through instrumented atomics
// too. All operations here are Relaxed: metrics are independent
// monotone counters with no cross-location invariants to order.
use super::sync::{AtomicU64, Ordering};

/// Number of log2 buckets. Bucket 23 is open-ended and starts at
/// `2^23` µs ≈ 8.4 s, comfortably above any single solver phase.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A named monotone counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Const-construct; use only for `static` items added to the
    /// registry below.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Registry name, e.g. `"solve.lp_round"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter, no data published
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.value.fetch_add(n, Ordering::Relaxed); // ordering: statistical counter, no data published
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // ordering: scrape may lag concurrent increments
    }
}

/// A named log2-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` (bucket 0
    /// also holds zeros, the last bucket is open-ended).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Const-construct; use only for `static` items added to the
    /// registry below.
    #[allow(clippy::declare_interior_mutable_const)]
    pub const fn new(name: &'static str) -> Self {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Registry name, e.g. `"ir.compile_micros"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one value.
    pub fn observe(&self, v: u64) {
        // ordering: Relaxed on all three — histogram cells are
        // independent statistical counters; a scrape may observe a
        // torn (count, sum, bucket) triple and that is acceptable.
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: see above
        self.sum.fetch_add(v, Ordering::Relaxed); // ordering: see above
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed); // ordering: see above
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed); // ordering: snapshot tolerates skew between cells
        }
        HistogramSnapshot {
            name: self.name,
            count: self.count.load(Ordering::Relaxed), // ordering: snapshot tolerates skew
            sum: self.sum.load(Ordering::Relaxed),     // ordering: snapshot tolerates skew
            buckets,
        }
    }
}

// --- The static registry -------------------------------------------------

/// Ticks charged against budgets (batched adds from handles).
pub static BUDGET_TICKS: Counter = Counter::new("budget.ticks");
/// Budgets driven to exhaustion.
pub static BUDGET_EXHAUSTIONS: Counter = Counter::new("budget.exhaustions");
/// Cooperative cancellations requested on budget handles.
pub static CANCELLATIONS: Counter = Counter::new("budget.cancellations");
/// `Problem` → `CompiledInstance` IR compilations.
pub static IR_COMPILES: Counter = Counter::new("ir.compiles");
/// Incremental IR assemblies (engine projections onto a shared static
/// layer) — the cheap counterpart of `ir.compiles`.
pub static IR_PATCHES: Counter = Counter::new("ir.patches");
/// Portfolio members actually run (not skipped / not-reached).
pub static MEMBERS_RUN: Counter = Counter::new("portfolio.members_run");
/// Racing portfolio invocations.
pub static RACES: Counter = Counter::new("portfolio.races");
/// Candidate verifications performed (feasibility + re-evaluation).
pub static VERIFICATIONS: Counter = Counter::new("portfolio.verifications");
/// Branch-and-bound node-expansion ticks (exact solvers).
pub static BNB_NODE_TICKS: Counter = Counter::new("solve.exact.node_ticks");
/// Local-search move ticks.
pub static LOCAL_SEARCH_MOVE_TICKS: Counter = Counter::new("solve.local_search.move_ticks");
/// Simplex pivot ticks (LP rounding solver).
pub static SIMPLEX_PIVOT_TICKS: Counter = Counter::new("solve.lp_round.pivot_ticks");

/// Entry-point call counters, one per solver module entry.
pub static SOLVE_SINGLE_QUERY: Counter = Counter::new("solve.single_query");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_DP_TREE: Counter = Counter::new("solve.dp_tree");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_LOWDEG_TREE: Counter = Counter::new("solve.lowdeg_tree");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_PRIMAL_DUAL: Counter = Counter::new("solve.primal_dual");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_PRIMAL_DUAL_BALANCED: Counter = Counter::new("solve.primal_dual_balanced");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_LP_ROUND: Counter = Counter::new("solve.lp_round");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_GENERAL: Counter = Counter::new("solve.general");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_EXACT: Counter = Counter::new("solve.exact");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_LOCAL_SEARCH: Counter = Counter::new("solve.local_search");
/// See [`SOLVE_SINGLE_QUERY`].
pub static SOLVE_SOURCE: Counter = Counter::new("solve.source");

/// Component partitions built over compiled instances: every fresh
/// `shard::partition`, plus the one partition each instance caches
/// (built by its first sharded solve). Later sharded solves of the
/// same instance reuse the cached one and do not count, so this is not
/// a count of sharded solves.
pub static SHARD_PARTITIONS: Counter = Counter::new("shard.partitions");
/// Per-shard chain runs executed.
pub static SHARD_SOLVES: Counter = Counter::new("shard.solves");

/// Wall-clock of each IR compilation, in microseconds.
pub static IR_COMPILE_MICROS: Histogram = Histogram::new("ir.compile_micros");
/// Wall-clock of each portfolio member run, in microseconds.
pub static MEMBER_MICROS: Histogram = Histogram::new("portfolio.member_micros");
/// Wall-clock of each verification, in microseconds.
pub static VERIFY_MICROS: Histogram = Histogram::new("portfolio.verify_micros");

/// Every registered counter. Order is registration order; consumers
/// wanting stable output should sort by [`Counter::name`] (as
/// [`render`] does).
pub fn counters() -> &'static [&'static Counter] {
    static REGISTRY: [&Counter; 23] = [
        &BUDGET_TICKS,
        &BUDGET_EXHAUSTIONS,
        &CANCELLATIONS,
        &IR_COMPILES,
        &IR_PATCHES,
        &MEMBERS_RUN,
        &RACES,
        &VERIFICATIONS,
        &BNB_NODE_TICKS,
        &LOCAL_SEARCH_MOVE_TICKS,
        &SIMPLEX_PIVOT_TICKS,
        &SOLVE_SINGLE_QUERY,
        &SOLVE_DP_TREE,
        &SOLVE_LOWDEG_TREE,
        &SOLVE_PRIMAL_DUAL,
        &SOLVE_PRIMAL_DUAL_BALANCED,
        &SOLVE_LP_ROUND,
        &SOLVE_GENERAL,
        &SOLVE_EXACT,
        &SOLVE_LOCAL_SEARCH,
        &SOLVE_SOURCE,
        &SHARD_PARTITIONS,
        &SHARD_SOLVES,
    ];
    &REGISTRY
}

/// Every registered histogram (see [`counters`] on ordering).
pub fn histograms() -> &'static [&'static Histogram] {
    static REGISTRY: [&Histogram; 3] = [&IR_COMPILE_MICROS, &MEMBER_MICROS, &VERIFY_MICROS];
    &REGISTRY
}

/// Render all metrics as `name value` lines sorted by name —
/// deterministic given equal metric values, suitable for diffing.
pub fn render() -> String {
    let mut lines: Vec<String> = counters()
        .iter()
        .map(|c| format!("{} {}", c.name(), c.get()))
        .collect();
    for h in histograms() {
        let s = h.snapshot();
        lines.push(format!(
            "{} count={} sum={} mean={:.1}",
            s.name,
            s.count,
            s.sum,
            s.mean()
        ));
    }
    lines.sort();
    let mut out = String::new();
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_math() {
        static C: Counter = Counter::new("test.counter");
        assert_eq!(C.get(), 0);
        C.inc();
        C.add(4);
        C.add(0);
        assert_eq!(C.get(), 5);
        assert_eq!(C.name(), "test.counter");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(10), 1024);
    }

    #[test]
    fn histogram_observe_and_snapshot() {
        static H: Histogram = Histogram::new("test.histogram");
        H.observe(0);
        H.observe(1);
        H.observe(1000);
        let s = H.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1001);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[9], 1); // 1000 in [512, 1024)
        assert!((s.mean() - 1001.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn registry_renders_sorted() {
        let r = render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(
            lines.len(),
            counters().len() + histograms().len(),
            "every registered metric renders exactly once"
        );
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert!(r.contains("ir.compiles"));
        assert!(r.contains("solve.lp_round.pivot_ticks"));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        names.extend(histograms().iter().map(|h| h.name()));
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
