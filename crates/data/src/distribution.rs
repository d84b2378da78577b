//! Label-distribution analysis from Sec. II-C of the paper.
//!
//! The paper's convergence argument tracks, per client `k`, the distance
//! between the local label marginal `q_k(y = l)` and the population marginal
//! `q(y = l)`. Model migration shrinks that distance: Eq. (13) gives the
//! *virtual* distribution a migrated model effectively trains on, and
//! Eq. (15) shows it is strictly closer to the population distribution.
//! This module implements those quantities; the test module checks the
//! contraction itself on real partitions.

use crate::Dataset;

/// Label marginal `q_k` of the samples at `indices` (empty input yields the
/// all-zero vector).
pub fn label_distribution(ds: &Dataset, indices: &[usize]) -> Vec<f64> {
    let mut counts = vec![0.0f64; ds.num_classes()];
    for &i in indices {
        counts[ds.label(i)] += 1.0;
    }
    let total: f64 = counts.iter().sum();
    if total > 0.0 {
        for c in counts.iter_mut() {
            *c /= total;
        }
    }
    counts
}

/// Total-variation-style L1 distance `sum_l |a_l - b_l|` — the
/// distribution distance the paper's Eq. (11) sums over labels.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must share support");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// One-dimensional earth mover's distance between two categorical
/// distributions with unit ground distance between adjacent labels
/// (cumulative-difference form).
pub fn emd_1d(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must share support");
    let mut cum = 0.0f64;
    let mut total = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        cum += x - y;
        total += cum.abs();
    }
    total
}

/// Earth mover's distance normalized to `[0, 1]`: [`emd_1d`] divided by
/// its maximum possible value `n - 1` over `n` labels (all mass at one end
/// of the label axis versus all mass at the other). Degenerate supports of
/// one label admit no transport, so their distance is 0.
pub fn normalized_emd(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must share support");
    if a.len() <= 1 {
        return 0.0;
    }
    emd_1d(a, b) / (a.len() - 1) as f64
}

/// The virtual distribution of Eq. (13): after `m` random migrations among
/// `k` clients, a model that started on a client with class counts
/// `local_counts` (sizes `n_k^l`) effectively trains on
/// `(K n_k^l + M n^l) / (K n_k + M N)` where `pop_counts` are the population
/// class counts `n^l`.
pub fn virtual_distribution(
    local_counts: &[usize],
    pop_counts: &[usize],
    m: usize,
    k: usize,
) -> Vec<f64> {
    assert_eq!(local_counts.len(), pop_counts.len());
    assert!(k > 0);
    let n_k: f64 = local_counts.iter().map(|&c| c as f64).sum();
    let n: f64 = pop_counts.iter().map(|&c| c as f64).sum();
    let denom = k as f64 * n_k + m as f64 * n;
    local_counts
        .iter()
        .zip(pop_counts)
        .map(|(&nl_k, &nl)| (k as f64 * nl_k as f64 + m as f64 * nl as f64) / denom)
        .collect()
}

/// Mean L1 distance of per-client distributions to the population — a
/// scalar "non-IID level" used when reporting experiments.
pub fn mean_divergence(client_dists: &[Vec<f64>], population: &[f64]) -> f64 {
    if client_dists.is_empty() {
        return 0.0;
    }
    client_dists.iter().map(|q| l1_distance(q, population)).sum::<f64>() / client_dists.len() as f64
}

/// Population label marginal `q` of the whole dataset.
#[cfg(test)]
pub(crate) fn population_distribution(ds: &Dataset) -> Vec<f64> {
    let counts = ds.class_counts();
    let total: f64 = counts.iter().map(|&c| c as f64).sum();
    counts.iter().map(|&c| c as f64 / total).collect()
}

/// Per-client report of the Eq. 13–15 contraction: for each client, the
/// L1 distance of its label distribution to the population before and
/// after `m` uniform migrations among `k` clients. The paper's convergence
/// argument is exactly that `after <= before` for every client.
#[cfg(test)]
fn contraction_report(ds: &Dataset, partitions: &[Vec<usize>], m: usize) -> Vec<(f64, f64)> {
    let k = partitions.len();
    let pop_counts = ds.class_counts();
    let n: f64 = pop_counts.iter().map(|&c| c as f64).sum();
    let q: Vec<f64> = pop_counts.iter().map(|&c| c as f64 / n).collect();
    partitions
        .iter()
        .map(|part| {
            let mut counts = vec![0usize; ds.num_classes()];
            for &i in part {
                counts[ds.label(i)] += 1;
            }
            let local_q = label_distribution(ds, part);
            let before = l1_distance(&local_q, &q);
            let after = l1_distance(&virtual_distribution(&counts, &pop_counts, m, k), &q);
            (before, after)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_shards, SyntheticConfig, SyntheticDataset};

    #[test]
    fn l1_basics() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert_eq!(l1_distance(&[1.0, 0.0], &[0.0, 1.0]), 2.0);
    }

    #[test]
    fn emd_accounts_for_label_distance() {
        // Moving mass one bin costs less than moving it two bins.
        let near = emd_1d(&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]);
        let far = emd_1d(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]);
        assert!(far > near);
        assert_eq!(emd_1d(&[0.3, 0.7], &[0.3, 0.7]), 0.0);
    }

    #[test]
    fn normalized_emd_hits_its_bounds() {
        // Antipodal point masses are the unit-distance case.
        assert_eq!(normalized_emd(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]), 1.0);
        assert_eq!(normalized_emd(&[0.2, 0.8], &[0.2, 0.8]), 0.0);
        // One-label supports admit no transport at all.
        assert_eq!(normalized_emd(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn virtual_distribution_contracts_towards_population() {
        // Eq. (15): for any M >= 1 the virtual distribution is strictly
        // closer to the population than the local one (non-IID case).
        let local = [100usize, 0, 0, 0];
        let pop = [100usize, 100, 100, 100];
        let q_local: Vec<f64> = vec![1.0, 0.0, 0.0, 0.0];
        let q_pop: Vec<f64> = vec![0.25; 4];
        let before = l1_distance(&q_local, &q_pop);
        let mut prev = before;
        for m in 1..=8 {
            let q_virtual = virtual_distribution(&local, &pop, m, 10);
            let d = l1_distance(&q_virtual, &q_pop);
            assert!(d < prev, "distance must shrink monotonically in M: {d} !< {prev}");
            prev = d;
        }
    }

    #[test]
    fn virtual_distribution_is_identity_for_zero_migrations() {
        let local = [3usize, 1];
        let pop = [30usize, 10];
        let q = virtual_distribution(&local, &pop, 0, 5);
        assert!((q[0] - 0.75).abs() < 1e-12);
        assert!((q[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shard_partition_has_high_divergence_iid_low() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::c10_like(50, 3)).train;
        let pop = population_distribution(&ds);
        let shard_parts = partition_shards(&ds, 10, 1, 1);
        let shard_dists: Vec<Vec<f64>> =
            shard_parts.iter().map(|p| label_distribution(&ds, p)).collect();
        let iid_parts = crate::partition_iid(&ds, 10, 1);
        let iid_dists: Vec<Vec<f64>> =
            iid_parts.iter().map(|p| label_distribution(&ds, p)).collect();
        assert!(mean_divergence(&shard_dists, &pop) > 3.0 * mean_divergence(&iid_dists, &pop));
    }

    #[test]
    fn contraction_report_shrinks_every_client() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::c10_like(20, 3)).train;
        let parts = partition_shards(&ds, 10, 1, 1);
        let report = contraction_report(&ds, &parts, 5);
        assert_eq!(report.len(), 10);
        for (before, after) in report {
            assert!(after < before, "Eq. 15 violated: {after} !< {before}");
            assert!(before > 1.0, "one-class clients start far from the population");
        }
    }

    #[test]
    fn population_distribution_sums_to_one() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::c10_like(5, 3)).train;
        let pop = population_distribution(&ds);
        assert!((pop.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
