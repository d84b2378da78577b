//! Metrics registry: counters, gauges, and fixed-bucket histograms keyed
//! by `(name, labels)`, with a Prometheus-style text exposition renderer.
//!
//! A [`Registry`] is a plain value, and a series is a plain number in it.
//! Every thread records into the registry in its own
//! [`ledger`](crate::ledger), by name: [`add`], [`set`], [`observe`]. A
//! worker of [`crate::fan_out`] brings its registry home at the join, and a
//! run ends by adding its registry into its caller's; in both merges
//! counters and histograms add and a gauge takes the newer value
//! ([`Registry::absorb`]). [`snapshot`] reads this thread's registry.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ledger;

/// Upper bounds of every histogram's finite buckets: 1 µs to ~4.5 min in
/// ×4 steps, wide enough for per-batch kernels at the bottom and whole-run
/// phases at the top. An implicit `+Inf` bucket follows.
pub const BOUNDS: [f64; 14] = {
    let mut bounds = [1e-6; 14];
    let mut i = 1;
    while i < bounds.len() {
        bounds[i] = bounds[i - 1] * 4.0;
        i += 1;
    }
    bounds
};

/// A fixed-bucket histogram of `f64` observations over [`BOUNDS`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Non-cumulative counts, one per bound plus the overflow bucket.
    pub counts: [u64; BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of (finite) observations.
    pub sum: f64,
}

impl Histogram {
    /// Index of the bucket `v` falls into: the first bound `>= v`, or the
    /// overflow (`+Inf`) bucket. NaN is no bound's, so it overflows too,
    /// never counting as a sub-microsecond observation.
    fn bucket_index(v: f64) -> usize {
        BOUNDS.partition_point(|&b| b < v || v.is_nan())
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += if v.is_finite() { v } else { 0.0 };
    }

    fn absorb(&mut self, other: &Histogram) {
        self.counts.iter_mut().zip(&other.counts).for_each(|(a, b)| *a += b);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Sorted, owned label set — the second half of a metric key.
pub type Labels = Vec<(String, String)>;

/// The value of `key` in `labels`, or `""`.
pub fn label<'a>(labels: &'a Labels, key: &str) -> &'a str {
    labels.iter().find(|(k, _)| k == key).map_or("", |(_, v)| v.as_str())
}

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

/// One series' value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Series {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }

    /// Adds `other` in: counters and histograms add, a gauge takes
    /// `other`'s value.
    fn absorb(&mut self, name: &str, other: &Series) {
        match (self, other) {
            (Series::Counter(a), Series::Counter(b)) => *a += b,
            (Series::Gauge(a), Series::Gauge(b)) => *a = *b,
            (Series::Histogram(a), Series::Histogram(b)) => a.absorb(b),
            (a, b) => panic!("{name} already registered as a {}, not a {}", a.kind(), b.kind()),
        }
    }
}

/// A registry of metrics keyed by `(name, sorted labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    /// Each name's series, sorted by labels: finding an existing series
    /// borrows the caller's key instead of building an owned one.
    families: BTreeMap<String, Vec<(Labels, Series)>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self { families: BTreeMap::new() }
    }

    /// Adds `value` into the series `(name, labels)`, which starts as
    /// `value` when new.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    fn record(&mut self, name: &str, labels: &[(&str, &str)], value: Series) {
        if !self.families.contains_key(name) {
            self.families.insert(name.to_string(), Vec::new());
        }
        let family = self.families.get_mut(name).expect("the family exists");
        match family.iter_mut().find(|(l, _)| same_labels(l, labels)) {
            Some((_, series)) => series.absorb(name, &value),
            None => {
                let key = owned_labels(labels);
                let at = family.partition_point(|(l, _)| *l < key);
                family.insert(at, (key, value));
            }
        }
    }

    /// Increments the counter `(name, labels)` by `n`.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.record(name, labels, Series::Counter(n));
    }

    /// Sets the gauge `(name, labels)` to `v`.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.record(name, labels, Series::Gauge(v));
    }

    /// Records one observation into the histogram `(name, labels)`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut one = Histogram::default();
        one.observe(v);
        self.record(name, labels, Series::Histogram(one));
    }

    /// Adds every series of `other` into this registry: counters and
    /// histograms add, a gauge takes `other`'s value.
    pub fn absorb(&mut self, other: Registry) {
        for (name, family) in other.families {
            for (labels, series) in family {
                let labels: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                self.record(&name, &labels, series);
            }
        }
    }

    fn family(&self, name: &str) -> impl Iterator<Item = &(Labels, Series)> {
        self.families.get(name).into_iter().flatten()
    }

    /// Every histogram series registered under `name`, paired with its
    /// label set and ordered deterministically by labels. Series of other
    /// names or metric types are ignored; an unknown name yields an empty
    /// vector.
    pub fn histogram_family(&self, name: &str) -> Vec<(Labels, Histogram)> {
        let histograms = self.family(name).filter_map(|(labels, series)| match series {
            Series::Histogram(h) => Some((labels.clone(), *h)),
            _ => None,
        });
        histograms.collect()
    }

    /// Current values of every counter series registered under `name`,
    /// paired with their label sets and ordered deterministically by
    /// labels. Series of other names or metric types are ignored; an
    /// unknown name yields an empty vector.
    pub fn counter_family(&self, name: &str) -> Vec<(Labels, u64)> {
        let counters = self.family(name).filter_map(|(labels, series)| match series {
            Series::Counter(c) => Some((labels.clone(), *c)),
            _ => None,
        });
        counters.collect()
    }

    /// Renders the Prometheus text exposition format, deterministically
    /// ordered by `(name, labels)`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let Some((_, first)) = family.first() else { continue };
            let _ = writeln!(out, "# TYPE {name} {}", first.kind());
            for (labels, series) in family {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {c}", render_labels(labels, &[]));
                    }
                    Series::Gauge(g) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, &[]), fmt_f64(*g));
                    }
                    Series::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, h: &Histogram) {
    let mut cumulative = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cumulative += c;
        let le = BOUNDS.get(i).map_or_else(|| "+Inf".to_string(), |b| fmt_f64(*b));
        let _ =
            writeln!(out, "{name}_bucket{} {cumulative}", render_labels(labels, &[("le", &le)]));
    }
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, &[]), fmt_f64(h.sum));
    let _ = writeln!(out, "{name}_count{} {}", render_labels(labels, &[]), h.count);
}

/// Runs `f` on this thread's registry.
fn with<R: Default>(f: impl FnOnce(&mut Registry) -> R) -> R {
    ledger::with(|l| f(&mut l.tally.borrow_mut().metrics)).unwrap_or_default()
}

/// Increments this thread's counter `(name, labels)` by `n`.
pub fn add(name: &str, labels: &[(&str, &str)], n: u64) {
    with(|r| r.add(name, labels, n));
}

/// Sets this thread's gauge `(name, labels)` to `v`.
pub fn set(name: &str, labels: &[(&str, &str)], v: f64) {
    with(|r| r.set(name, labels, v));
}

/// Records one observation into this thread's histogram `(name, labels)`.
pub fn observe(name: &str, labels: &[(&str, &str)], v: f64) {
    with(|r| r.observe(name, labels, v));
}

/// A copy of this thread's registry: what it recorded, its joined
/// [`crate::fan_out`] workers' and its ended runs' included.
pub fn snapshot() -> Registry {
    with(|r| r.clone())
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

    impl Registry {
        fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Series> {
            self.family(name).find(|(l, _)| same_labels(l, labels)).map(|(_, s)| *s)
        }
    }

    fn histogram_of(values: &[f64]) -> Histogram {
        let mut h = Histogram::default();
        values.iter().for_each(|&v| h.observe(v));
        h
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut r = Registry::new();
        r.add("requests_total", &[("path", "c2s")], 1);
        r.add("requests_total", &[("path", "c2s")], 4);
        assert_eq!(r.find("requests_total", &[("path", "c2s")]), Some(Series::Counter(5)));
        r.set("occupancy", &[], 0.5);
        r.set("occupancy", &[], 0.75);
        assert_eq!(r.find("occupancy", &[]), Some(Series::Gauge(0.75)));
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut r = Registry::new();
        r.add("x", &[("a", "1"), ("b", "2")], 1);
        r.add("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.find("x", &[("a", "1"), ("b", "2")]), Some(Series::Counter(2)));
        // ...and nothing short of the same set finds the series.
        for other in [&[("a", "1")][..], &[("a", "1"), ("b", "3")], &[("a", "1"), ("c", "2")], &[]]
        {
            assert_eq!(r.find("x", other), None, "{other:?}");
        }
        assert_eq!(r.counter_family("x").len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let mut r = Registry::new();
        r.add("m", &[], 1);
        r.set("m", &[], 1.0);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let s = histogram_of(&[1e-7, 1e-6, 5e-6, 100.0, f64::NAN]);
        let mut counts = [0; BOUNDS.len() + 1];
        counts[0] = 2; // le=1e-6 gets 1e-7 and 1e-6 (bound inclusive)
        counts[2] = 1; // 5e-6 lies in (4e-6, 1.6e-5]
        counts[14] = 2; // 100 s overflows, and NaN is no bound's
        assert_eq!(s.counts, counts);
        assert_eq!(s.count, 5);
        assert!((s.sum - 100.0000061).abs() < 1e-9, "NaN adds nothing to the sum");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let mut r = Registry::new();
        r.add("b_total", &[("k", "2")], 7);
        r.add("b_total", &[("k", "1")], 3);
        r.set("a_gauge", &[], 2.0);
        r.observe("c_seconds", &[], 0.5);
        r.observe("c_seconds", &[], 3.0);
        let text = r.render_prometheus();
        let expected = "# TYPE a_gauge gauge\n\
                        a_gauge 2.0\n\
                        # TYPE b_total counter\n\
                        b_total{k=\"1\"} 3\n\
                        b_total{k=\"2\"} 7\n\
                        # TYPE c_seconds histogram\n\
                        c_seconds_bucket{le=\"0.000001\"} 0\n\
                        c_seconds_bucket{le=\"0.000004\"} 0\n\
                        c_seconds_bucket{le=\"0.000016\"} 0\n\
                        c_seconds_bucket{le=\"0.000064\"} 0\n\
                        c_seconds_bucket{le=\"0.000256\"} 0\n\
                        c_seconds_bucket{le=\"0.001024\"} 0\n\
                        c_seconds_bucket{le=\"0.004096\"} 0\n\
                        c_seconds_bucket{le=\"0.016384\"} 0\n\
                        c_seconds_bucket{le=\"0.065536\"} 0\n\
                        c_seconds_bucket{le=\"0.262144\"} 0\n\
                        c_seconds_bucket{le=\"1.048576\"} 1\n\
                        c_seconds_bucket{le=\"4.194304\"} 2\n\
                        c_seconds_bucket{le=\"16.777216\"} 2\n\
                        c_seconds_bucket{le=\"67.108864\"} 2\n\
                        c_seconds_bucket{le=\"+Inf\"} 2\n\
                        c_seconds_sum 3.5\n\
                        c_seconds_count 2\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped_per_text_format_spec() {
        let mut r = Registry::new();
        // Backslash, double quote, and newline are the three characters the
        // exposition format requires escaping inside label values.
        r.add("adversarial_total", &[("path", "c:\\tmp\\x"), ("msg", "say \"hi\"\nbye")], 1);
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
        let mut r = Registry::new();
        r.observe("phase_seconds", &[("phase", "train")], 0.5);
        r.observe("phase_seconds", &[("phase", "agg")], 2.0);
        r.add("phase_seconds_other", &[], 1);
        let fam = r.histogram_family("phase_seconds");
        assert_eq!(fam.len(), 2);
        assert_eq!(fam[0].0, vec![("phase".to_string(), "agg".to_string())]);
        assert_eq!(fam[1].0, vec![("phase".to_string(), "train".to_string())]);
        assert!((fam[0].1.sum - 2.0).abs() < 1e-12);
        assert!(r.histogram_family("absent").is_empty());
    }

    #[test]
    fn counter_family_enumerates_label_sets() {
        let mut r = Registry::new();
        r.add("kernel_flops", &[("kernel", "matmul")], 10);
        r.add("kernel_flops", &[("kernel", "im2col")], 3);
        r.set("kernel_flops_other", &[], 1.0);
        let fam = r.counter_family("kernel_flops");
        assert_eq!(fam.len(), 2);
        assert_eq!(fam[0].0, vec![("kernel".to_string(), "im2col".to_string())]);
        assert_eq!(fam[0].1, 3);
        assert_eq!(fam[1].1, 10);
        assert!(r.counter_family("absent").is_empty());
    }

    #[test]
    fn default_bucket_layouts_are_valid() {
        assert!(BOUNDS.windows(2).all(|w| w[0] < w[1]) && BOUNDS.iter().all(|b| b.is_finite()));
        // The bounds the exposition format has always printed: 1e-6 · 4^i.
        for (i, b) in BOUNDS.iter().enumerate() {
            assert_eq!(b.to_bits(), (1e-6 * 4f64.powi(i as i32)).to_bits(), "bound {i}");
        }
    }

    #[test]
    fn absorb_adds_counters_and_histograms_and_takes_the_newer_gauge() {
        let mut caller = Registry::new();
        caller.add("c", &[], 2);
        caller.set("g", &[], 1.0);
        caller.set("kept", &[], 5.0);
        caller.observe("h", &[], 1.0);
        let mut worker = Registry::new();
        worker.add("c", &[], 3);
        worker.add("new", &[("k", "v")], 0);
        worker.set("g", &[], 7.0);
        worker.observe("h", &[], 2.0);
        caller.absorb(worker);
        assert_eq!(caller.find("c", &[]), Some(Series::Counter(5)));
        assert_eq!(
            caller.find("new", &[("k", "v")]),
            Some(Series::Counter(0)),
            "series registered"
        );
        assert_eq!(caller.find("g", &[]), Some(Series::Gauge(7.0)));
        assert_eq!(caller.find("kept", &[]), Some(Series::Gauge(5.0)));
        assert_eq!(caller.find("h", &[]), Some(Series::Histogram(histogram_of(&[1.0, 2.0]))));
    }

    proptest! {
        /// Every observation lands in the first bucket whose bound is >= v
        /// (or the overflow bucket), and count/sum track exactly.
        #[test]
        fn bucket_math_is_exact(values in prop::collection::vec(-1.0f64..300.0, 1..200)) {
            let mut h = Histogram::default();
            for &v in &values {
                let idx = Histogram::bucket_index(v);
                prop_assert!(idx == BOUNDS.len() || v <= BOUNDS[idx]);
                prop_assert!(idx == 0 || v > BOUNDS[idx - 1]);
                h.observe(v);
            }
            prop_assert_eq!(h.count, values.len() as u64);
            prop_assert_eq!(h.counts.iter().sum::<u64>(), values.len() as u64);
            let sum: f64 = values.iter().sum();
            prop_assert!((h.sum - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        }

        /// Merging two shards' registries equals observing the union.
        #[test]
        fn merge_equals_union(
            a in prop::collection::vec(-1.0f64..300.0, 0..100),
            b in prop::collection::vec(-1.0f64..300.0, 0..100),
        ) {
            let (mut ra, mut rb, mut ru) = (Registry::new(), Registry::new(), Registry::new());
            for &v in &a { ra.observe("h", &[], v); ru.observe("h", &[], v); }
            for &v in &b { rb.observe("h", &[], v); ru.observe("h", &[], v); }
            ra.absorb(rb);
            let (merged, union) = (ra.histogram_family("h"), ru.histogram_family("h"));
            prop_assert_eq!(merged.len(), union.len());
            for ((_, m), (_, u)) in merged.iter().zip(&union) {
                prop_assert_eq!(m.counts, u.counts);
                prop_assert_eq!(m.count, u.count);
                prop_assert!((m.sum - u.sum).abs() < 1e-6 * (1.0 + u.sum.abs()));
            }
        }
    }
}
