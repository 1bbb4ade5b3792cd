//! Instruments and the registry that aggregates them.
//!
//! Design: an *instrument* ([`Counter`], [`Gauge`], [`Histogram`]) is a
//! block of atomics owned by whoever increments it — a server's stats
//! block, a cache's counter block, a `span!` call site.  Creating one
//! through a [`MetricsRegistry`] also files a [`Weak`] handle under the
//! instrument's [`SeriesKey`], so a [`Snapshot`] can sum every live
//! instance of a series without the owners ever sharing state or taking
//! a lock to increment.  Dead instances (dropped owners) are pruned at
//! snapshot time; a registered counter folds its count into its series'
//! retained total as it drops, so counter series only grow, while a
//! gauge is a sum over live instances.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crate::sync;

/// A monotonically increasing count (resettable only through the legacy
/// cache-stats APIs; Prometheus consumers should treat resets as counter
/// restarts).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    /// The series' retained total, for a counter made by a registry.
    retired: Option<Arc<AtomicU64>>,
}

impl Drop for Counter {
    fn drop(&mut self) {
        if let Some(retired) = &self.retired {
            retired.fetch_add(self.get(), Ordering::Relaxed);
        }
    }
}

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the counter (kept for the pre-registry `reset_*_stats` APIs).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (active connections, idle pool size).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one zero bucket, one per power of two up
/// to `2^62 - 1`, and an overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket latency histogram over `u64` values (nanoseconds by
/// convention), log2-scaled so one `record` is two relaxed atomic adds
/// plus a `leading_zeros` — no locks, no allocation.
///
/// Bucket `0` holds the value `0`; bucket `k` (for `1 ≤ k ≤ 62`) holds
/// values in `[2^(k-1), 2^k - 1]`; bucket `63` holds everything from
/// `2^62` up.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh, unregistered histogram with every bucket at zero.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index `value` falls into.  Every `u64` lands in exactly
    /// one bucket (property-tested below).
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i`; `None` for the overflow
    /// bucket (`+Inf` in the Prometheus exposition).
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            // Bucket 0 -> 0, bucket k -> 2^k - 1 (2^0 - 1 = 0).
            Some((1u64 << i) - 1)
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.  Counters are read individually (relaxed),
    /// so a snapshot taken mid-`record` may be off by one observation —
    /// the standard metrics trade for a lock-free hot path.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of one histogram (or a merged sum of several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket (non-cumulative) observation counts,
    /// [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { count: 0, sum: 0, buckets: vec![0; HISTOGRAM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot of the same series into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean recorded value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the inclusive
    /// upper edge of the log2 bucket holding the rank-`⌈q·count⌉`
    /// observation, so the true quantile is never understated by more
    /// than one bucket width (≤ 2× at these bucket boundaries).  Returns
    /// 0 with no observations and `u64::MAX` when the rank lands in the
    /// overflow bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Histogram::bucket_upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// Identity of one time series: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric (family) name, e.g. `openmeta_plan_cache_hits_total`.
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        SeriesKey { name: name.to_string(), labels }
    }
}

impl fmt::Display for SeriesKey {
    /// `name{k="v",...}` — the Prometheus series syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}=\"{}\"", crate::export::escape_label(v))?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// Weak handles to every live instance of each series, per instrument
/// kind, and each counter series' count from dropped instances.  Kinds
/// live in separate maps so a name can never collide across types.
#[derive(Default)]
struct Families {
    counters: BTreeMap<SeriesKey, (Arc<AtomicU64>, Vec<Weak<Counter>>)>,
    gauges: BTreeMap<SeriesKey, Vec<Weak<Gauge>>>,
    histograms: BTreeMap<SeriesKey, Vec<Weak<Histogram>>>,
}

/// A registry of instruments.  [`MetricsRegistry::global`] is the
/// process-wide one every subsystem registers into; tests construct their
/// own with [`MetricsRegistry::new`] for isolation.
#[derive(Default)]
pub struct MetricsRegistry {
    families: sync::Mutex<Families>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// A new counter instance registered under `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// A new counter instance registered under `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut fams = sync::lock(&self.families);
        let (retired, live) = fams.counters.entry(SeriesKey::new(name, labels)).or_default();
        let c = Arc::new(Counter { value: AtomicU64::new(0), retired: Some(retired.clone()) });
        live.push(Arc::downgrade(&c));
        c
    }

    /// A new gauge instance registered under `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// A new gauge instance registered under `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        let mut fams = sync::lock(&self.families);
        fams.gauges.entry(SeriesKey::new(name, labels)).or_default().push(Arc::downgrade(&g));
        g
    }

    /// A new histogram instance registered under `name` (no labels).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// A new histogram instance registered under `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        let mut fams = sync::lock(&self.families);
        fams.histograms.entry(SeriesKey::new(name, labels)).or_default().push(Arc::downgrade(&h));
        h
    }

    /// Sum every live instance of every series into a point-in-time
    /// [`Snapshot`], pruning instances whose owners have been dropped.  A
    /// counter series adds what its dropped instances counted; a gauge or
    /// histogram series whose every instance is dead is kept at its
    /// type's zero, so a scrape schema stays stable across owner restarts.
    pub fn snapshot(&self) -> Snapshot {
        let mut fams = sync::lock(&self.families);
        let counters = fams
            .counters
            .iter_mut()
            .map(|(key, (retired, instances))| {
                instances.retain(|w| w.strong_count() > 0);
                // Read the retained total first, so an instance dropping
                // during the sum below is never counted twice.
                let total = retired.load(Ordering::Relaxed);
                let live: u64 = instances.iter().filter_map(Weak::upgrade).map(|c| c.get()).sum();
                (key.clone(), total + live)
            })
            .collect();
        let gauges = fams
            .gauges
            .iter_mut()
            .map(|(key, instances)| {
                instances.retain(|w| w.strong_count() > 0);
                (key.clone(), instances.iter().filter_map(Weak::upgrade).map(|g| g.get()).sum())
            })
            .collect();
        let histograms = fams
            .histograms
            .iter_mut()
            .map(|(key, instances)| {
                instances.retain(|w| w.strong_count() > 0);
                let mut merged = HistogramSnapshot::default();
                for h in instances.iter().filter_map(Weak::upgrade) {
                    merged.merge(&h.snapshot());
                }
                (key.clone(), merged)
            })
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a whole registry, sorted by series key (the
/// registry's maps are ordered), so both exporters are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter series and their summed values.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauge series and their summed values.
    pub gauges: Vec<(SeriesKey, i64)>,
    /// Histogram series and their merged buckets.
    pub histograms: Vec<(SeriesKey, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter series by name (no labels), if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k.name == name && k.labels.is_empty()).map(|&(_, v)| v)
    }

    /// Merged histogram for `name{labels}`, if registered.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        let want = SeriesKey::new(name, labels);
        self.histograms.iter().find(|(k, _)| *k == want).map(|(_, h)| h)
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::thread;

    /// Concurrent counter increments and histogram records never lose an
    /// observation, under loom's schedule exploration.
    #[test]
    fn loom_concurrent_increments_sum_exactly() {
        loom::model(|| {
            let reg = Arc::new(MetricsRegistry::new());
            let c = reg.counter("openmeta_loom_total");
            let h = reg.histogram("openmeta_loom_ns");
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (c, h) = (c.clone(), h.clone());
                    thread::spawn(move || {
                        for i in 0..3u64 {
                            c.add(1 + t);
                            h.record(i * 100);
                        }
                    })
                })
                .collect();
            for j in handles {
                j.join().expect("worker");
            }
            let snap = reg.snapshot();
            assert_eq!(snap.counter_value("openmeta_loom_total"), Some(9));
            let hist = snap.histogram_value("openmeta_loom_ns", &[]).expect("series");
            assert_eq!(hist.count, 6);
            assert_eq!(hist.buckets.iter().sum::<u64>(), 6);
        });
    }

    /// Racing registrations of the same series land in one family and
    /// are all summed by the snapshot.
    #[test]
    fn loom_racing_registration_is_one_family() {
        loom::model(|| {
            let reg = Arc::new(MetricsRegistry::new());
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let reg = reg.clone();
                    thread::spawn(move || {
                        let c = reg.counter("openmeta_loom_race_total");
                        c.inc();
                        c // keep the instance alive past the join
                    })
                })
                .collect();
            let keep: Vec<_> = handles.into_iter().map(|j| j.join().expect("worker")).collect();
            let snap = reg.snapshot();
            assert_eq!(snap.counters.len(), 1);
            assert_eq!(snap.counter_value("openmeta_loom_race_total"), Some(2));
            drop(keep);
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let h = Histogram::new();
        // 90 fast observations at 100ns, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = h.snapshot();
        // p50/p90 land in the bucket holding 100 ([64, 127]).
        assert_eq!(snap.quantile(0.5), 127);
        assert_eq!(snap.quantile(0.9), 127);
        // p99 and p100 land in the bucket holding 1e6 ([2^19, 2^20-1]).
        assert_eq!(snap.quantile(0.99), (1 << 20) - 1);
        assert_eq!(snap.quantile(1.0), (1 << 20) - 1);
        // p0 clamps to rank 1 (the smallest observation's bucket).
        assert_eq!(snap.quantile(0.0), 127);
    }

    #[test]
    fn quantile_handles_empty_and_overflow() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().quantile(0.5), u64::MAX);
    }

    #[test]
    fn counters_and_gauges_register_and_sum() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("openmeta_test_total");
        let b = reg.counter("openmeta_test_total");
        a.add(3);
        b.inc();
        let g = reg.gauge("openmeta_test_active");
        g.add(5);
        g.dec();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("openmeta_test_total"), Some(4));
        assert_eq!(snap.gauges[0].1, 4);
    }

    #[test]
    fn dead_instances_are_pruned_but_series_survive() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("openmeta_drop_active");
        g.add(7);
        drop(g);
        let snap = reg.snapshot();
        // The owner died; its gauge level dies with it, the series stays.
        assert_eq!(snap.gauges, vec![(SeriesKey::new("openmeta_drop_active", &[]), 0)]);
    }

    #[test]
    fn a_dropped_counter_still_counts() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("openmeta_drop_total");
        a.add(5);
        drop(a);
        assert_eq!(reg.snapshot().counter_value("openmeta_drop_total"), Some(5));
        let b = reg.counter("openmeta_drop_total");
        b.add(2);
        assert_eq!(reg.snapshot().counter_value("openmeta_drop_total"), Some(7));
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        // Handles must outlive the snapshot: dropped instances are pruned.
        let a = reg.counter_with("openmeta_l_total", &[("stage", "a")]);
        let b = reg.counter_with("openmeta_l_total", &[("stage", "b")]);
        a.inc();
        b.add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].1, 1);
        assert_eq!(snap.counters[1].1, 2);
        assert_eq!(snap.counters[0].0.to_string(), "openmeta_l_total{stage=\"a\"}");
    }

    #[test]
    fn histogram_records_land_in_expected_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 1); // 4
        assert_eq!(snap.buckets[10], 1); // 1023 = 2^10 - 1
        assert_eq!(snap.buckets[11], 1); // 1024 = 2^10
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1); // u64::MAX
                                                            // The sum wraps just like the atomic does.
        assert_eq!(snap.sum, 2057u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn histogram_merge_and_mean() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(30);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.mean(), 20.0);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover() {
        let mut prev: Option<u64> = None;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let ub = Histogram::bucket_upper_bound(i).expect("finite");
            if let Some(p) = prev {
                assert!(ub > p, "bucket {i} bound {ub} <= {p}");
            }
            prev = Some(ub);
        }
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(1), Some(1));
        assert_eq!(Histogram::bucket_upper_bound(62), Some((1 << 62) - 1));
    }
}
