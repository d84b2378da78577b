//! Pluggable server-side aggregation rules, including Byzantine-robust
//! ones.
//!
//! `aggregate_active` was a plain sample-weighted mean ([FedAvg's Eq. 7]);
//! one sign-flipped or NaN upload destroys the global model. This module
//! makes the rule pluggable: [`Aggregator::FedAvg`] reproduces the original
//! mean **bit-identically** (it routes through the exact
//! `fedmigr_nn::params::weighted_average` call the runner used before), and
//! the robust rules trade a little statistical efficiency for bounded
//! influence of a minority of Byzantine uploads:
//!
//! | rule | tolerates | idea |
//! |------|-----------|------|
//! | [`Aggregator::TrimmedMean`] | `< trim` fraction | drop the extremes of every coordinate |
//! | [`Aggregator::CoordinateMedian`] | `< 1/2` | per-coordinate median |
//! | [`Aggregator::Krum`] | `f` of `n` (`n > 2f+2`) | pick the update closest to its neighbors |
//! | [`Aggregator::MultiKrum`] | `f` of `n` | average the `m` best Krum scores |
//! | [`Aggregator::NormClip`] | norm-boosting | clip update norms to a median multiple |
//!
//! Every robust rule first screens out non-finite uploads (a NaN coordinate
//! poisons any arithmetic rule); plain FedAvg deliberately does not, since
//! it must stay byte-identical to the legacy path — that fragility is the
//! point of comparison in `figB_byzantine`. All rules fall back to the
//! previous global model when no usable update remains.

use fedmigr_nn::params::weighted_average;
use fedmigr_tensor::{all_finite, l2_norm_slice, pairwise_sq_distances};

use crate::metrics::RobustStats;

/// Staleness discounting for the degraded aggregation path.
///
/// Under the flow transport an upload can finish after its round's
/// deadline. Rather than stalling the round (or discarding the work), the
/// runner buffers the late update and folds it into a *later* aggregation
/// with its sample weight scaled by `STALE_DISCOUNT^age`, where `age >= 1`
/// is how many aggregation rounds late it arrives — the standard staleness
/// weighting of asynchronous FL, applied here as graceful degradation.
/// Updates older than [`STALE_MAX_AGE`] rounds are dropped instead.
const STALE_DISCOUNT: f64 = 0.6;
/// Oldest age (in aggregation rounds) still folded in; older updates are
/// dropped.
pub(crate) const STALE_MAX_AGE: usize = 3;

/// Weight multiplier for an update `age` aggregation rounds old.
fn stale_weight(age: usize) -> f64 {
    STALE_DISCOUNT.powi(age as i32)
}

/// The aggregation rule applied to the uploads of a synchronization round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Aggregator {
    /// Sample-weighted mean — the paper's Eq. 7, bit-identical to the
    /// pre-defense code path. No screening, no robustness.
    #[default]
    FedAvg,
    /// Coordinate-wise trimmed mean: drop the `trim` fraction of values
    /// from each end of every coordinate, average the rest.
    TrimmedMean {
        /// Fraction trimmed from *each* end, in `[0, 0.5)`.
        trim: f64,
    },
    /// Coordinate-wise median (the `trim -> 0.5` limit of the trimmed
    /// mean); tolerates just under half the uploads being arbitrary.
    CoordinateMedian,
    /// Krum: return the single upload minimizing the sum of squared
    /// distances to its `n - f - 2` nearest neighbors.
    Krum {
        /// Number of Byzantine uploads the score assumes (`f`).
        assumed_byzantine: usize,
    },
    /// Multi-Krum: weighted mean of the `select` uploads with the best
    /// Krum scores.
    MultiKrum {
        /// Number of Byzantine uploads the score assumes (`f`).
        assumed_byzantine: usize,
        /// How many of the best-scored uploads are averaged.
        select: usize,
    },
    /// Norm clipping: scale any update (delta from the previous global
    /// model) whose norm exceeds `multiplier x median_norm` down to that
    /// threshold, then average. Defuses scaled-replacement boosting.
    NormClip {
        /// Allowed multiple of the median update norm, `> 0`.
        multiplier: f64,
    },
}

impl Aggregator {
    /// Display name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregator::FedAvg => "FedAvg",
            Aggregator::TrimmedMean { .. } => "TrimmedMean",
            Aggregator::CoordinateMedian => "CoordMedian",
            Aggregator::Krum { .. } => "Krum",
            Aggregator::MultiKrum { .. } => "MultiKrum",
            Aggregator::NormClip { .. } => "NormClip",
        }
    }

    /// The default parameterization of each rule for a population where up
    /// to `assumed_byzantine` of `n` uploads may be hostile.
    pub fn trimmed_mean() -> Self {
        Aggregator::TrimmedMean { trim: 0.25 }
    }

    /// Krum assuming `f` Byzantine uploads.
    pub fn krum(f: usize) -> Self {
        Aggregator::Krum { assumed_byzantine: f }
    }

    /// Multi-Krum assuming `f` Byzantine uploads, averaging `select` winners.
    pub fn multi_krum(f: usize, select: usize) -> Self {
        Aggregator::MultiKrum { assumed_byzantine: f, select }
    }

    /// Norm clipping at 2x the median update norm.
    pub fn norm_clip() -> Self {
        Aggregator::NormClip { multiplier: 2.0 }
    }

    /// Aggregates one round of uploads.
    ///
    /// `entries` are `(params, weight)` pairs (weight = sample count);
    /// `prev_global` is the fallback when nothing usable was uploaded —
    /// callers get it back unchanged (satisfying the all-inactive-round
    /// guard) and may log the event. Defense counters accumulate into
    /// `stats`.
    ///
    /// # Panics
    /// Panics if parameter vectors disagree in length with `prev_global`,
    /// or on invalid rule parameters (`trim >= 0.5`, zero `select`,
    /// non-positive `multiplier`).
    pub fn aggregate(
        &self,
        entries: &[(&[f32], f64)],
        prev_global: &[f32],
        stats: &mut RobustStats,
    ) -> Vec<f32> {
        for (p, _) in entries {
            assert_eq!(p.len(), prev_global.len(), "upload length mismatch");
        }
        if entries.is_empty() {
            return prev_global.to_vec();
        }
        if let Aggregator::FedAvg = self {
            // The legacy path, untouched: bit-identical to the pre-defense
            // runner, including its vulnerability to non-finite uploads.
            return weighted_average(entries);
        }
        // Every robust rule screens non-finite uploads first; a NaN
        // coordinate would otherwise poison sorts, means and distances.
        let finite: Vec<(&[f32], f64)> = entries
            .iter()
            .filter(|(p, _)| {
                let ok = all_finite(p);
                if !ok {
                    stats.nan_uploads += 1;
                    stats.trimmed_clients += 1;
                }
                ok
            })
            .copied()
            .collect();
        if finite.is_empty() {
            return prev_global.to_vec();
        }
        match *self {
            Aggregator::FedAvg => unreachable!("handled above"),
            Aggregator::TrimmedMean { trim } => trimmed_mean(&finite, trim, stats),
            Aggregator::CoordinateMedian => coordinate_median(&finite),
            Aggregator::Krum { assumed_byzantine } => {
                krum_select(&finite, assumed_byzantine, 1, stats)
            }
            Aggregator::MultiKrum { assumed_byzantine, select } => {
                assert!(select > 0, "MultiKrum must select at least one upload");
                krum_select(&finite, assumed_byzantine, select, stats)
            }
            Aggregator::NormClip { multiplier } => {
                norm_clip(&finite, prev_global, multiplier, stats)
            }
        }
    }

    /// [`Self::aggregate`] with a staleness-tolerant degraded path: `stale`
    /// entries are `(params, weight, age)` for uploads that missed their
    /// round's deadline, folded in with weight `w * 0.6^age`. Callers drop
    /// entries more than three rounds old before calling (and account them
    /// as dropped). With no stale entries this is exactly
    /// [`Self::aggregate`] — fresh-only rounds stay bit-identical.
    pub fn aggregate_with_stale(
        &self,
        fresh: &[(&[f32], f64)],
        stale: &[(&[f32], f64, usize)],
        prev_global: &[f32],
        stats: &mut RobustStats,
    ) -> Vec<f32> {
        if stale.is_empty() {
            return self.aggregate(fresh, prev_global, stats);
        }
        let mut entries: Vec<(&[f32], f64)> = fresh.to_vec();
        for &(p, w, age) in stale {
            debug_assert!(age >= 1, "a stale update is at least one round old");
            debug_assert!(age <= STALE_MAX_AGE, "caller must drop over-age updates");
            entries.push((p, w * stale_weight(age)));
        }
        self.aggregate(&entries, prev_global, stats)
    }
}

/// Coordinate-wise trimmed mean. `trim` is the fraction dropped from each
/// end of every coordinate's sorted values (unweighted, as in the
/// Yin et al. analysis — sample weights would let an attacker with a large
/// claimed dataset dominate the kept mass).
fn trimmed_mean(entries: &[(&[f32], f64)], trim: f64, stats: &mut RobustStats) -> Vec<f32> {
    assert!((0.0..0.5).contains(&trim), "trim fraction must be in [0, 0.5), got {trim}");
    let n = entries.len();
    let t = ((trim * n as f64).floor() as usize).min((n - 1) / 2);
    stats.trimmed_clients += 2 * t;
    let dim = entries[0].0.len();
    let mut out = vec![0.0f32; dim];
    let mut column = vec![0.0f32; n];
    let kept = n - 2 * t;
    for (d, o) in out.iter_mut().enumerate() {
        for (c, (p, _)) in column.iter_mut().zip(entries) {
            *c = p[d];
        }
        column.sort_by(f32::total_cmp);
        let sum: f64 = column[t..n - t].iter().map(|&x| x as f64).sum();
        *o = (sum / kept as f64) as f32;
    }
    out
}

/// Coordinate-wise median (lower median on even counts, which keeps the
/// result an actually-uploaded value per coordinate).
fn coordinate_median(entries: &[(&[f32], f64)]) -> Vec<f32> {
    let n = entries.len();
    let dim = entries[0].0.len();
    let mut out = vec![0.0f32; dim];
    let mut column = vec![0.0f32; n];
    for (d, o) in out.iter_mut().enumerate() {
        for (c, (p, _)) in column.iter_mut().zip(entries) {
            *c = p[d];
        }
        column.sort_by(f32::total_cmp);
        *o = if n % 2 == 1 {
            column[n / 2]
        } else {
            ((column[n / 2 - 1] as f64 + column[n / 2] as f64) / 2.0) as f32
        };
    }
    out
}

/// (Multi-)Krum: score every upload by the sum of its `n - f - 2` smallest
/// squared distances to the other uploads, then average the `select` best
/// (weighted). `select == 1` is classic Krum.
fn krum_select(
    entries: &[(&[f32], f64)],
    assumed_byzantine: usize,
    select: usize,
    stats: &mut RobustStats,
) -> Vec<f32> {
    let n = entries.len();
    let select = select.min(n);
    if n <= select {
        // Not enough uploads to discard anything; plain weighted mean.
        return weighted_average(entries);
    }
    let vectors: Vec<&[f32]> = entries.iter().map(|(p, _)| *p).collect();
    let sq = pairwise_sq_distances(&vectors);
    // Krum's theory wants n >= 2f + 3; with fewer uploads clamp the
    // neighbor count so the score stays defined.
    let neighbors = n.saturating_sub(assumed_byzantine + 2).max(1);
    let mut scores: Vec<(f64, usize)> = (0..n)
        .map(|i| {
            let mut dists: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| sq[i * n + j]).collect();
            dists.sort_by(f64::total_cmp);
            (dists[..neighbors.min(dists.len())].iter().sum::<f64>(), i)
        })
        .collect();
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    stats.trimmed_clients += n - select;
    let chosen: Vec<(&[f32], f64)> = scores[..select].iter().map(|&(_, i)| entries[i]).collect();
    weighted_average(&chosen)
}

/// Norm clipping: deltas from `prev_global` whose norm exceeds
/// `multiplier x median_norm` are scaled down to the threshold before the
/// weighted mean. A tiny floor keeps the threshold positive in the first
/// rounds when benign updates are still near-zero.
fn norm_clip(
    entries: &[(&[f32], f64)],
    prev_global: &[f32],
    multiplier: f64,
    stats: &mut RobustStats,
) -> Vec<f32> {
    assert!(multiplier > 0.0, "NormClip multiplier must be positive, got {multiplier}");
    let deltas: Vec<Vec<f32>> = entries
        .iter()
        .map(|(p, _)| p.iter().zip(prev_global).map(|(x, g)| x - g).collect())
        .collect();
    let mut norms: Vec<f64> = deltas.iter().map(|d| l2_norm_slice(d)).collect();
    let mut sorted = norms.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2].max(1e-8);
    let threshold = multiplier * median;
    let mut clipped: Vec<(Vec<f32>, f64)> = Vec::with_capacity(entries.len());
    for ((delta, norm), (_, w)) in deltas.into_iter().zip(norms.iter_mut()).zip(entries) {
        if *norm > threshold {
            stats.clipped_norms += 1;
            let scale = (threshold / *norm) as f32;
            clipped.push((delta.iter().map(|x| x * scale).collect(), *w));
        } else {
            clipped.push((delta, *w));
        }
    }
    let refs: Vec<(&[f32], f64)> = clipped.iter().map(|(d, w)| (d.as_slice(), *w)).collect();
    let mean_delta = weighted_average(&refs);
    prev_global.iter().zip(&mean_delta).map(|(g, d)| g + d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RobustStats {
        RobustStats::default()
    }

    #[test]
    fn fedavg_matches_weighted_average_bit_for_bit() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![3.0f32, 0.0, -1.0];
        let entries: Vec<(&[f32], f64)> = vec![(&a, 2.0), (&b, 1.0)];
        let mut s = stats();
        let got = Aggregator::FedAvg.aggregate(&entries, &[0.0; 3], &mut s);
        assert_eq!(got, weighted_average(&entries));
        assert!(!s.any(), "FedAvg must not touch defense counters");
    }

    #[test]
    fn every_rule_falls_back_to_prev_global_on_empty_round() {
        let prev = vec![0.5f32, -0.5];
        for agg in [
            Aggregator::FedAvg,
            Aggregator::trimmed_mean(),
            Aggregator::CoordinateMedian,
            Aggregator::krum(1),
            Aggregator::multi_krum(1, 2),
            Aggregator::norm_clip(),
        ] {
            let mut s = stats();
            let got = agg.aggregate(&[], &prev, &mut s);
            assert_eq!(got, prev, "{} must return prev_global on empty input", agg.name());
        }
    }

    #[test]
    fn robust_rules_screen_nan_uploads_fedavg_does_not() {
        let good = vec![1.0f32, 1.0];
        let bad = vec![f32::NAN, 1.0];
        let entries: Vec<(&[f32], f64)> = vec![(&good, 1.0), (&bad, 1.0)];
        let mut s = stats();
        let med = Aggregator::CoordinateMedian.aggregate(&entries, &[0.0; 2], &mut s);
        assert_eq!(med, good, "median over the surviving upload");
        assert_eq!(s.nan_uploads, 1);
        let mut s2 = stats();
        let avg = Aggregator::FedAvg.aggregate(&entries, &[0.0; 2], &mut s2);
        assert!(avg[0].is_nan(), "plain FedAvg stays vulnerable by design");
        assert_eq!(s2.nan_uploads, 0);
    }

    #[test]
    fn all_nan_round_falls_back_to_prev_global() {
        let bad = vec![f32::INFINITY, 0.0];
        let entries: Vec<(&[f32], f64)> = vec![(&bad, 1.0)];
        let prev = vec![7.0f32, 8.0];
        let mut s = stats();
        let got = Aggregator::trimmed_mean().aggregate(&entries, &prev, &mut s);
        assert_eq!(got, prev);
        assert_eq!(s.nan_uploads, 1);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let vs: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0], vec![1000.0]];
        let entries: Vec<(&[f32], f64)> = vs.iter().map(|v| (v.as_slice(), 1.0)).collect();
        let mut s = stats();
        let got = Aggregator::TrimmedMean { trim: 0.2 }.aggregate(&entries, &[0.0], &mut s);
        // Drops 1.0 and 1000.0, mean of {2, 3, 4} = 3.
        assert_eq!(got, vec![3.0]);
        assert_eq!(s.trimmed_clients, 2);
    }

    #[test]
    fn coordinate_median_resists_a_minority() {
        let vs: Vec<Vec<f32>> = vec![vec![1.0, -1.0], vec![1.2, -0.8], vec![-999.0, 999.0]];
        let entries: Vec<(&[f32], f64)> = vs.iter().map(|v| (v.as_slice(), 1.0)).collect();
        let mut s = stats();
        let got = Aggregator::CoordinateMedian.aggregate(&entries, &[0.0; 2], &mut s);
        assert_eq!(got, vec![1.0, -0.8]);
    }

    #[test]
    fn krum_picks_the_consensus_update() {
        // Three near-identical benign updates + one far-away attacker.
        let vs: Vec<Vec<f32>> =
            vec![vec![1.0, 1.0], vec![1.1, 0.9], vec![0.9, 1.1], vec![-50.0, 50.0]];
        let entries: Vec<(&[f32], f64)> = vs.iter().map(|v| (v.as_slice(), 1.0)).collect();
        let mut s = stats();
        let got = Aggregator::krum(1).aggregate(&entries, &[0.0; 2], &mut s);
        assert_eq!(got, vs[0], "the center of the benign cluster wins");
        assert_eq!(s.trimmed_clients, 3, "everything but the winner is set aside");
    }

    #[test]
    fn multi_krum_averages_the_benign_cluster() {
        let vs: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0], vec![3.0], vec![500.0], vec![-500.0]];
        let entries: Vec<(&[f32], f64)> = vs.iter().map(|v| (v.as_slice(), 1.0)).collect();
        let mut s = stats();
        let got = Aggregator::multi_krum(2, 3).aggregate(&entries, &[0.0], &mut s);
        assert_eq!(got, vec![2.0], "mean of the three central updates");
        assert_eq!(s.trimmed_clients, 2);
    }

    #[test]
    fn norm_clip_defuses_a_boosted_update() {
        let prev = vec![0.0f32, 0.0];
        let vs: Vec<Vec<f32>> = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![100.0, 0.0]];
        let entries: Vec<(&[f32], f64)> = vs.iter().map(|v| (v.as_slice(), 1.0)).collect();
        let mut s = stats();
        let got = Aggregator::norm_clip().aggregate(&entries, &prev, &mut s);
        assert_eq!(s.clipped_norms, 1, "only the boosted update is clipped");
        // Median norm 1, threshold 2: the 100-norm update shrinks to norm 2,
        // so the mean's first coordinate is (1 + 0 + 2) / 3 = 1.
        assert!((got[0] - 1.0).abs() < 1e-5, "got {got:?}");
        assert!((got[1] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn single_upload_passes_through_robust_rules() {
        let v = vec![2.0f32, -2.0];
        let entries: Vec<(&[f32], f64)> = vec![(&v, 3.0)];
        for agg in [
            Aggregator::trimmed_mean(),
            Aggregator::CoordinateMedian,
            Aggregator::krum(1),
            Aggregator::norm_clip(),
        ] {
            let mut s = stats();
            let got = agg.aggregate(&entries, &[0.0; 2], &mut s);
            for (g, e) in got.iter().zip(&v) {
                assert!((g - e).abs() < 1e-5, "{}: {got:?} != {v:?}", agg.name());
            }
        }
    }

    #[test]
    fn staleness_weight_decays_geometrically() {
        assert_eq!(stale_weight(0), 1.0);
        assert!((stale_weight(1) - 0.6).abs() < 1e-12);
        assert!((stale_weight(3) - 0.216).abs() < 1e-12);
    }

    #[test]
    fn stale_updates_are_discounted_not_ignored() {
        let fresh = vec![0.0f32];
        let late = vec![10.0f32];
        let fresh_entries: Vec<(&[f32], f64)> = vec![(&fresh, 1.0)];
        let stale_entries: Vec<(&[f32], f64, usize)> = vec![(&late, 1.0, 1)];
        let mut s = stats();
        let got =
            Aggregator::FedAvg.aggregate_with_stale(&fresh_entries, &stale_entries, &[0.0], &mut s);
        // Weighted mean of 0 (w=1) and 10 (w=0.6): 6/1.6.
        assert!((got[0] - 6.0 / 1.6).abs() < 1e-5, "got {got:?}");
        // An age-2 update counts 0.6 as much again.
        let stale2: Vec<(&[f32], f64, usize)> = vec![(&late, 1.0, 2)];
        let got2 = Aggregator::FedAvg.aggregate_with_stale(&fresh_entries, &stale2, &[0.0], &mut s);
        assert!(got2[0] < got[0], "older updates must weigh less: {got2:?} vs {got:?}");
    }

    #[test]
    fn no_stale_entries_is_bit_identical_to_plain_aggregate() {
        let a = vec![1.0f32, 2.0];
        let b = vec![-1.0f32, 0.5];
        let entries: Vec<(&[f32], f64)> = vec![(&a, 2.0), (&b, 3.0)];
        for agg in [Aggregator::FedAvg, Aggregator::CoordinateMedian, Aggregator::norm_clip()] {
            let mut s1 = stats();
            let mut s2 = stats();
            let plain = agg.aggregate(&entries, &[0.0; 2], &mut s1);
            let with = agg.aggregate_with_stale(&entries, &[], &[0.0; 2], &mut s2);
            assert_eq!(plain, with, "{}", agg.name());
        }
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trimmed_mean_rejects_half_or_more() {
        let v = vec![1.0f32];
        let entries: Vec<(&[f32], f64)> = vec![(&v, 1.0), (&v, 1.0)];
        let _ = Aggregator::TrimmedMean { trim: 0.5 }.aggregate(&entries, &[0.0], &mut stats());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_upload_lengths() {
        let v = vec![1.0f32, 2.0];
        let entries: Vec<(&[f32], f64)> = vec![(&v, 1.0)];
        let _ = Aggregator::FedAvg.aggregate(&entries, &[0.0; 3], &mut stats());
    }
}
