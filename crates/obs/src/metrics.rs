//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metric names are dot-separated (`summary.scc_size`); the registry is
//! flat and created on first touch, so instrumentation sites need no
//! up-front registration. A [`MetricsSnapshot`] is an immutable copy
//! that merges with others — corpus runners merge one snapshot per app
//! into corpus totals.
//!
//! A name is bound to one metric kind by its first use; subsequent
//! operations of a different kind on the same name are ignored rather
//! than panicking, keeping instrumentation non-fatal by construction.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default histogram bucket bounds: powers of two, 1..=32768. A value
/// lands in the first bucket whose bound is ≥ the value; larger values
/// land in the overflow bucket.
pub const EXP2_BUCKETS: [u64; 16] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

#[derive(Clone, Debug, PartialEq, Eq)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// An immutable histogram: `counts[i]` holds observations `v <=
/// bounds[i]` (and above the previous bound); `counts[bounds.len()]` is
/// the overflow bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    fn new(bounds: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// The arithmetic mean of observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive upper bound of the bucket containing the `p`-th
    /// percentile observation, or `None` when the histogram is empty or
    /// the rank lands in the overflow bucket (beyond every bound).
    ///
    /// Exact within bucket resolution: the returned bound is the
    /// tightest upper bound the bucketing can prove for that rank. For
    /// exact percentiles over raw samples use [`crate::series::Series`].
    pub fn percentile_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // 1-based rank of the percentile observation, same convention
        // as Series: round(p/100 * (n-1)) zero-based.
        let rank = (p / 100.0 * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return self.bounds.get(i).copied();
            }
        }
        None
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds == other.bounds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
        } else {
            // Mismatched bucketing: keep our buckets, re-bucket only the
            // aggregate moments (exact bucket counts are unknowable).
            let i = self.counts.len() - 1;
            self.counts[i] += other.count;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The live registry handle. Cloning shares the registry; a disabled
/// handle records nothing.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<BTreeMap<String, Metric>>>>,
}

impl Metrics {
    /// A live, empty registry.
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    /// A registry that records nothing.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `by` to the counter `name`, saturating at `u64::MAX`.
    pub fn inc(&self, name: &str, by: u64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock().expect("metrics lock");
        if let Metric::Counter(c) = map.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
            *c = c.saturating_add(by);
        }
    }

    /// Sets the gauge `name` to `value`: a point-in-time reading (cache
    /// entries, largest SCC). Last write wins; merges keep the maximum.
    pub fn gauge(&self, name: &str, value: i64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock().expect("metrics lock");
        if let Metric::Gauge(g) = map.entry(name.to_owned()).or_insert(Metric::Gauge(0)) {
            *g = value;
        }
    }

    /// Observes `value` into the histogram `name` with the default
    /// [`EXP2_BUCKETS`].
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_with(name, &EXP2_BUCKETS, value);
    }

    /// Observes `value` into the histogram `name`, creating it with
    /// `bounds` on first touch (later observations reuse the original
    /// bounds).
    pub fn observe_with(&self, name: &str, bounds: &[u64], value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock().expect("metrics lock");
        if let Metric::Histogram(h) = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(HistogramSnapshot::new(bounds)))
        {
            h.observe(value);
        }
    }

    /// An immutable copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let map = inner.lock().expect("metrics lock");
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), *c);
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), *g);
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        snap
    }
}

/// An immutable, mergeable copy of a [`Metrics`] registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` in. Counters (saturating) and histogram buckets
    /// add. Gauges
    /// keep the maximum: a gauge is a point-in-time reading (cache
    /// entries, largest SCC), and summing one across per-app snapshots
    /// would fabricate a total no process ever observed, while the
    /// high-water mark is the one order-independent fold.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            let c = self.counters.entry(name.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, &g) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|mine| *mine = (*mine).max(g))
                .or_insert(g);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// Whether no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders one `name value` line per metric. Histograms render
    /// their moments, the percentile bucket bounds, and every non-empty
    /// bucket (`le<bound>:count`, `inf` for overflow) so `--metrics`
    /// output shows the distribution, not just the mean.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!("{name} {g}\n"));
        }
        for (name, h) in &self.histograms {
            let pct = |p: f64| match h.percentile_bound(p) {
                Some(b) => format!("<={b}"),
                None if h.count == 0 => "-".to_owned(),
                None => format!(">{}", h.bounds.last().copied().unwrap_or(0)),
            };
            out.push_str(&format!(
                "{name} count={} sum={} mean={:.2} p50{} p90{} p99{}",
                h.count,
                h.sum,
                h.mean(),
                pct(50.0),
                pct(90.0),
                pct(99.0),
            ));
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                match h.bounds.get(i) {
                    Some(b) => out.push_str(&format!(" le{b}:{c}")),
                    None => out.push_str(&format!(" inf:{c}")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::enabled();
        m.inc("a", 2);
        m.inc("a", 3);
        m.inc("b", 1);
        let s = m.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.counters["b"], 1);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let m = Metrics::enabled();
        m.gauge("g", 10);
        m.gauge("g", -3);
        assert_eq!(m.snapshot().gauges["g"], -3);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let m = Metrics::enabled();
        for v in [1, 2, 3, 4, 5, 1000] {
            m.observe_with("h", &[2, 4, 8], v);
        }
        let h = &m.snapshot().histograms["h"];
        // 1,2 <= 2; 3,4 <= 4; 5 <= 8; 1000 overflows.
        assert_eq!(h.counts, vec![2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1015);
    }

    #[test]
    fn exp2_default_buckets_cover_small_values() {
        let m = Metrics::enabled();
        m.observe("scc", 1);
        m.observe("scc", 3);
        m.observe("scc", 100_000);
        let h = &m.snapshot().histograms["scc"];
        assert_eq!(h.counts[0], 1); // 1 <= 1
        assert_eq!(h.counts[2], 1); // 3 <= 4
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert_eq!(h.count, 3);
    }

    #[test]
    fn kind_conflicts_are_ignored_not_fatal() {
        let m = Metrics::enabled();
        m.inc("x", 1);
        m.gauge("x", 99);
        m.observe("x", 7);
        let s = m.snapshot();
        assert_eq!(s.counters["x"], 1);
        assert!(s.gauges.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn snapshots_merge_counters_gauges_histograms() {
        let a = Metrics::enabled();
        a.inc("c", 1);
        a.gauge("g", 2);
        a.observe_with("h", &[10], 5);
        let b = Metrics::enabled();
        b.inc("c", 10);
        b.gauge("g", 5);
        b.observe_with("h", &[10], 50);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counters["c"], 11);
        // Gauges keep the high-water mark, not the sum.
        assert_eq!(s.gauges["g"], 5);
        let h = &s.histograms["h"];
        assert_eq!(h.counts, vec![1, 1]);
        assert_eq!(h.sum, 55);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn merge_folds_gauges_by_maximum() {
        let a = Metrics::enabled();
        a.gauge("peak", 7);
        a.gauge("low", -5);
        let b = Metrics::enabled();
        b.gauge("peak", 3);
        b.gauge("low", -9);
        b.gauge("only_b", -2);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.gauges["peak"], 7);
        assert_eq!(s.gauges["low"], -5, "negative readings fold by max too");
        assert_eq!(s.gauges["only_b"], -2);
        // Merging into an empty snapshot is the identity.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&s);
        assert_eq!(empty, s);
    }

    #[test]
    fn percentile_bound_walks_cumulative_counts() {
        let m = Metrics::enabled();
        for v in [1, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
            m.observe_with("h", &[2, 8, 32], v);
        }
        let h = &m.snapshot().histograms["h"];
        // counts: <=2: 3, <=8: 3, <=32: 2, overflow: 2 (34, 55).
        assert_eq!(h.percentile_bound(0.0), Some(2));
        assert_eq!(h.percentile_bound(50.0), Some(8)); // rank 5 (0-based 4.5→5)
        assert_eq!(h.percentile_bound(90.0), None); // rank 8 lands in overflow
        let empty = HistogramSnapshot::new(&[2]);
        assert_eq!(empty.percentile_bound(50.0), None);
    }

    #[test]
    fn render_shows_buckets_and_percentiles() {
        let m = Metrics::enabled();
        m.inc("c", 3);
        m.gauge("g", -1);
        for v in [1, 3, 1000] {
            m.observe_with("h", &[2, 4], v);
        }
        let out = m.snapshot().render();
        assert!(out.contains("c 3\n"));
        assert!(out.contains("g -1\n"));
        // Percentiles per bucket bound, overflow rendered as >last.
        assert!(out.contains("p50<=4"), "missing p50 in: {out}");
        assert!(out.contains("p99>4"), "missing overflow p99 in: {out}");
        // Non-empty buckets listed; the empty le? buckets are elided.
        assert!(out.contains("le2:1"), "missing le2 bucket in: {out}");
        assert!(out.contains("le4:1"), "missing le4 bucket in: {out}");
        assert!(out.contains("inf:1"), "missing overflow bucket in: {out}");
    }

    #[test]
    fn mismatched_bucket_merge_preserves_moments() {
        let a = Metrics::enabled();
        a.observe_with("h", &[10], 5);
        let b = Metrics::enabled();
        b.observe_with("h", &[99], 20);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        let h = &s.histograms["h"];
        assert_eq!(h.bounds, vec![10]);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 25);
    }

    #[test]
    fn disabled_metrics_do_nothing() {
        let m = Metrics::disabled();
        m.inc("a", 1);
        m.observe("h", 1);
        assert!(m.snapshot().is_empty());
    }
}
