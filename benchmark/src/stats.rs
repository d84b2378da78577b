//! Order statistics over small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the harness judging
//! this benchmark's run-to-run spread computes.

/// Five-number summary plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty. With one value every
    /// statistic is that value.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary { n: v.len(), min, q1, median, q3, max })
    }

    /// A value known exactly (a virtual-clock metric): no spread.
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary { n, min: value, q1: value, median: value, q3: value, max: value }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// `(q1, median, q3)` of an ascending, non-empty slice.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; input order is free.
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the ends extrapolate.
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let s = Summary::of(&[10.0, 20.0, 40.0, 80.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 30.0, 70.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::exact(2.0, 4).spread(), 0.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 20.0, 40.0, 80.0]).unwrap();
        assert!((s.spread() - 57.5 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
    }
}
