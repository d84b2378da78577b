//! Metrics registry: counters, gauges, and fixed-bucket histograms keyed
//! by `(name, labels)`, with a Prometheus-style text exposition renderer.
//!
//! Handles returned by the registry are cheap `Arc`-backed clones whose
//! operations are lock-free atomics, so instrumented hot paths pay one
//! atomic RMW per event. Looking a handle up by `(name, labels)` locks the
//! registry but allocates only on the first registration of the pair.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event/byte counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default duration buckets: 1 µs to ~4.5 min in ×4 steps. Wide enough for
/// per-batch kernels at the bottom and whole-run phases at the top.
pub fn duration_buckets() -> Vec<f64> {
    (0..14).map(|i| 1e-6 * 4f64.powi(i)).collect()
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. An
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` non-cumulative bucket counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as f64 bits and updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Builds a histogram over `bounds` (must be finite, strictly
    /// increasing, non-empty).
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            core: Arc::new(HistogramCore {
                bounds,
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Index of the bucket `v` falls into: the first bound `>= v`, or the
    /// overflow bucket. NaN lands in the overflow bucket.
    pub fn bucket_index(&self, v: f64) -> usize {
        self.core.bounds.partition_point(|&b| b < v)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bucket_index(v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let add = if v.is_finite() { v } else { 0.0 };
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A consistent point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            counts: self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.core.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, mergeable across shards.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Non-cumulative counts, one per bound plus the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of (finite) observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated with linear
    /// interpolation inside the target bucket, Prometheus-style: the rank
    /// is assumed uniformly distributed between the bucket's edges, the
    /// first bucket's lower edge is 0 when its bound is positive, and
    /// ranks falling in the overflow bucket clamp to the highest finite
    /// bound. Monotone in `q`; 0 when empty. (The previous estimator
    /// snapped to bucket upper bounds, which misranks everything sharing a
    /// bucket — fatal for comparing kernel timings.)
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += c;
            if cum as f64 >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    // Overflow bucket: no upper edge to interpolate towards.
                    return self.bounds.last().copied().unwrap_or(f64::INFINITY);
                };
                let lo = if i == 0 {
                    if hi > 0.0 {
                        0.0
                    } else {
                        hi
                    }
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        self.bounds.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Sorted, owned label set — the second half of a metric key.
pub type Labels = Vec<(String, String)>;

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

/// Whether `given` (in any order) is the label set `owned`.
fn same_labels(owned: &Labels, given: &[(&str, &str)]) -> bool {
    let has = |k: &str, v: &str| given.iter().any(|&(gk, gv)| gk == k && gv == v);
    owned.len() == given.len()
        && owned.iter().all(|(k, v)| has(k, v))
        && given.iter().all(|&(k, v)| owned.iter().any(|(ok, ov)| ok == k && ov == v))
}

#[derive(Clone, Debug)]
enum MetricEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricEntry {
    fn kind(&self) -> &'static str {
        match self {
            MetricEntry::Counter(_) => "counter",
            MetricEntry::Gauge(_) => "gauge",
            MetricEntry::Histogram(_) => "histogram",
        }
    }
}

/// A registry of metrics keyed by `(name, sorted labels)`.
#[derive(Debug, Default)]
pub struct Registry {
    /// Each name's series, sorted by labels: finding an existing series
    /// borrows the caller's key instead of building an owned one.
    entries: Mutex<BTreeMap<String, Vec<(Labels, MetricEntry)>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricEntry,
    ) -> MetricEntry {
        let mut map = self.entries.lock().expect("metrics registry poisoned");
        let found =
            map.get(name).and_then(|family| family.iter().find(|(l, _)| same_labels(l, labels)));
        if let Some((_, entry)) = found {
            return entry.clone();
        }
        let family = map.entry(name.to_string()).or_default();
        let key = owned_labels(labels);
        let at = family.partition_point(|(l, _)| *l < key);
        family.insert(at, (key, make()));
        family[at].1.clone()
    }

    /// The counter registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.entry(name, labels, || MetricEntry::Counter(Counter::default())) {
            MetricEntry::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// The gauge registered under `(name, labels)`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.entry(name, labels, || MetricEntry::Gauge(Gauge::default())) {
            MetricEntry::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// The histogram under `(name, labels)` with [`duration_buckets`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, duration_buckets)
    }

    /// The histogram under `(name, labels)`, created with `bounds` on first
    /// use (later calls return the existing instance regardless of bounds).
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: impl FnOnce() -> Vec<f64>,
    ) -> Histogram {
        match self.entry(name, labels, || MetricEntry::Histogram(Histogram::new(bounds()))) {
            MetricEntry::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Point-in-time snapshots of every histogram series registered under
    /// `name`, paired with their label sets and ordered deterministically
    /// by labels. Series of other names or metric types are ignored; an
    /// unknown name yields an empty vector.
    pub fn histogram_family(&self, name: &str) -> Vec<(Labels, HistogramSnapshot)> {
        let map = self.entries.lock().expect("metrics registry poisoned");
        let family = map.get(name).map_or(&[][..], Vec::as_slice);
        family
            .iter()
            .filter_map(|(labels, entry)| match entry {
                MetricEntry::Histogram(h) => Some((labels.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Current values of every counter series registered under `name`,
    /// paired with their label sets and ordered deterministically by
    /// labels. Series of other names or metric types are ignored; an
    /// unknown name yields an empty vector.
    pub fn counter_family(&self, name: &str) -> Vec<(Labels, u64)> {
        let map = self.entries.lock().expect("metrics registry poisoned");
        let family = map.get(name).map_or(&[][..], Vec::as_slice);
        family
            .iter()
            .filter_map(|(labels, entry)| match entry {
                MetricEntry::Counter(c) => Some((labels.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Drops every registered metric (tests only; production code should
    /// let series accumulate for the process lifetime).
    pub fn clear(&self) {
        self.entries.lock().expect("metrics registry poisoned").clear();
    }

    /// Renders the Prometheus text exposition format, deterministically
    /// ordered by `(name, labels)`.
    pub fn render_prometheus(&self) -> String {
        let map = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (name, labels, entry) in
            map.iter().flat_map(|(name, family)| family.iter().map(move |(l, e)| (name, l, e)))
        {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} {}", entry.kind());
                last_name = Some(name.as_str());
            }
            match entry {
                MetricEntry::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), c.get());
                }
                MetricEntry::Gauge(g) => {
                    let _ =
                        writeln!(out, "{name}{} {}", render_labels(labels, &[]), fmt_f64(g.get()));
                }
                MetricEntry::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &c) in snap.counts.iter().enumerate() {
                        cumulative += c;
                        let le = snap
                            .bounds
                            .get(i)
                            .map(|b| fmt_f64(*b))
                            .unwrap_or_else(|| "+Inf".to_string());
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, &[("le", &le)]),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        render_labels(labels, &[]),
                        fmt_f64(snap.sum)
                    );
                    let _ =
                        writeln!(out, "{name}_count{} {}", render_labels(labels, &[]), snap.count);
                }
            }
        }
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a label value per the Prometheus text exposition format: the
/// backslash, the double quote, and the line feed are the three characters
/// the spec requires escaping inside quoted label values.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl HistogramSnapshot {
        /// Merges another snapshot over the same bounds into this one: the
        /// reference the merged-histogram property checks against.
        fn merge(&mut self, other: &HistogramSnapshot) {
            assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
        }
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("requests_total", &[("path", "c2s")]);
        c.inc();
        c.add(4);
        assert_eq!(r.counter("requests_total", &[("path", "c2s")]).get(), 5);
        let g = r.gauge("occupancy", &[]);
        g.set(0.75);
        assert_eq!(r.gauge("occupancy", &[]).get(), 0.75);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.counter("x", &[("a", "1"), ("b", "2")]).get(), 2);
        // ...and nothing short of the same set finds the series.
        for other in [&[("a", "1")][..], &[("a", "1"), ("b", "3")], &[("a", "1"), ("c", "2")], &[]]
        {
            assert_eq!(r.counter("x", other).get(), 0, "{other:?}");
        }
        assert_eq!(r.counter_family("x").len(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", &[]).inc();
        r.gauge("m", &[]);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = Histogram::new(vec![1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1], "le=1 gets 0.5 and 1.0 (bound inclusive)");
        assert_eq!(s.count, 4);
        assert!((s.sum - 106.5).abs() < 1e-9);
        assert!((s.mean() - 26.625).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // counts per bucket: le=1 -> 2, le=2 -> 1, le=4 -> 1, +Inf -> 1.
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 0.6, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // rank 0 sits at the first bucket's lower edge (0 for positive bounds).
        assert_eq!(s.quantile(0.0), 0.0);
        // rank 1.0 of 2 observations in [0, 1] -> halfway up the bucket.
        assert!((s.quantile(0.2) - 0.5).abs() < 1e-12);
        // rank 2.5: 0.5 into the single observation of bucket (1, 2].
        assert!((s.quantile(0.5) - 1.5).abs() < 1e-12);
        // rank 4.0 exhausts bucket (2, 4] exactly -> its upper bound.
        assert!((s.quantile(0.8) - 4.0).abs() < 1e-12);
        // Ranks in the overflow bucket clamp to the highest finite bound.
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn quantile_of_single_bucket_histogram_stays_finite() {
        let h = Histogram::new(vec![8.0]);
        for v in [1.0, 3.0, 20.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert!((s.quantile(0.5) - 6.0).abs() < 1e-12, "1.5/2 of [0, 8]");
        assert_eq!(s.quantile(1.0), 8.0);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b_total", &[("k", "2")]).add(7);
        r.counter("b_total", &[("k", "1")]).add(3);
        r.gauge("a_gauge", &[]).set(2.0);
        let h = r.histogram_with("c_seconds", &[], || vec![1.0]);
        h.observe(0.5);
        h.observe(3.0);
        let text = r.render_prometheus();
        let expected = "# TYPE a_gauge gauge\n\
                        a_gauge 2.0\n\
                        # TYPE b_total counter\n\
                        b_total{k=\"1\"} 3\n\
                        b_total{k=\"2\"} 7\n\
                        # TYPE c_seconds histogram\n\
                        c_seconds_bucket{le=\"1.0\"} 1\n\
                        c_seconds_bucket{le=\"+Inf\"} 2\n\
                        c_seconds_sum 3.5\n\
                        c_seconds_count 2\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped_per_text_format_spec() {
        let r = Registry::new();
        // Backslash, double quote, and newline are the three characters the
        // exposition format requires escaping inside label values.
        r.counter("adversarial_total", &[("path", "c:\\tmp\\x"), ("msg", "say \"hi\"\nbye")])
            .add(1);
        let text = r.render_prometheus();
        assert_eq!(
            text,
            "# TYPE adversarial_total counter\n\
             adversarial_total{msg=\"say \\\"hi\\\"\\nbye\",path=\"c:\\\\tmp\\\\x\"} 1\n"
        );
        // Each physical exposition line stays a single line: the raw
        // newline must not survive into the output.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn histogram_family_enumerates_label_sets() {
        let r = Registry::new();
        r.histogram_with("phase_seconds", &[("phase", "train")], || vec![1.0]).observe(0.5);
        r.histogram_with("phase_seconds", &[("phase", "agg")], || vec![1.0]).observe(2.0);
        r.counter("phase_seconds_other", &[]).inc();
        let fam = r.histogram_family("phase_seconds");
        assert_eq!(fam.len(), 2);
        assert_eq!(fam[0].0, vec![("phase".to_string(), "agg".to_string())]);
        assert_eq!(fam[1].0, vec![("phase".to_string(), "train".to_string())]);
        assert!((fam[0].1.sum - 2.0).abs() < 1e-12);
        assert!(r.histogram_family("absent").is_empty());
    }

    #[test]
    fn counter_family_enumerates_label_sets() {
        let r = Registry::new();
        r.counter("kernel_flops", &[("kernel", "matmul")]).add(10);
        r.counter("kernel_flops", &[("kernel", "im2col")]).add(3);
        r.gauge("kernel_flops_other", &[]).set(1.0);
        let fam = r.counter_family("kernel_flops");
        assert_eq!(fam.len(), 2);
        assert_eq!(fam[0].0, vec![("kernel".to_string(), "im2col".to_string())]);
        assert_eq!(fam[0].1, 3);
        assert_eq!(fam[1].1, 10);
        assert!(r.counter_family("absent").is_empty());
    }

    #[test]
    fn default_bucket_layouts_are_valid() {
        let bounds = duration_buckets();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram::new(bounds); // must not panic
    }

    proptest! {
        /// Every observation lands in the first bucket whose bound is >= v
        /// (or the overflow bucket), and count/sum track exactly.
        #[test]
        fn bucket_math_is_exact(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let bounds = vec![-1e3, 0.0, 1.0, 1e3];
            let h = Histogram::new(bounds.clone());
            for &v in &values {
                let idx = h.bucket_index(v);
                prop_assert!(idx == bounds.len() || v <= bounds[idx]);
                prop_assert!(idx == 0 || v > bounds[idx - 1]);
                h.observe(v);
            }
            let s = h.snapshot();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.counts.iter().sum::<u64>(), values.len() as u64);
            let sum: f64 = values.iter().sum();
            prop_assert!((s.sum - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        }

        /// Merging two shards equals observing the union.
        #[test]
        fn merge_equals_union(
            a in prop::collection::vec(-1e3f64..1e3, 0..100),
            b in prop::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let bounds = vec![-10.0, 0.0, 10.0, 100.0];
            let (ha, hb, hu) = (
                Histogram::new(bounds.clone()),
                Histogram::new(bounds.clone()),
                Histogram::new(bounds.clone()),
            );
            for &v in &a { ha.observe(v); hu.observe(v); }
            for &v in &b { hb.observe(v); hu.observe(v); }
            let mut merged = ha.snapshot();
            merged.merge(&hb.snapshot());
            let union = hu.snapshot();
            prop_assert_eq!(&merged.counts, &union.counts);
            prop_assert_eq!(merged.count, union.count);
            prop_assert!((merged.sum - union.sum).abs() < 1e-6 * (1.0 + union.sum.abs()));
        }

        /// The quantile estimator is monotone in q.
        #[test]
        fn quantiles_are_monotone(values in prop::collection::vec(0.0f64..1e4, 1..100)) {
            let h = Histogram::new(duration_buckets());
            for &v in &values { h.observe(v); }
            let s = h.snapshot();
            let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
            for w in qs.windows(2) {
                prop_assert!(s.quantile(w[0]) <= s.quantile(w[1]));
            }
        }
    }
}
