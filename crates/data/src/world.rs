//! A *virtual* synthetic dataset addressed by global sample index.
//!
//! [`SyntheticDataset::generate`](crate::SyntheticDataset) materializes the
//! whole training split up front — fine for tens of clients, fatal for a
//! 10k–1M client fleet. [`SyntheticWorld`] keeps only the class prototypes
//! (a few KB) and derives any sample `g ∈ [0, 2^63)` on demand as
//! `prototype(label(g)) + noise(seed, g)`: the same class-cluster data the
//! eager generator produces, but addressable in O(1) memory. Dormant fleet
//! clients store only their sample *range*; activation materializes exactly
//! that range into a concrete [`Dataset`] and drops it again on retirement.
//!
//! Labels follow a **blocked shard layout**: the global index space is
//! carved into runs of `shard` consecutive samples per class
//! (`label(g) = (g / shard) mod L`), so a contiguous interval of the sample
//! space — what the fleet's interval-tree assignment hands each client —
//! covers one or a few dominant classes. `shard = 1` degenerates to the
//! round-robin (IID) layout of the eager generator.

use fedmigr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::synthetic::make_prototypes;
use crate::{Dataset, SyntheticConfig};

/// Splitmix-style finalizer decorrelating (seed, sample-index) pairs.
fn mix(seed: u64, g: u64) -> u64 {
    let mut z = seed ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An infinite, deterministically addressable synthetic sample space.
#[derive(Clone, Debug)]
pub struct SyntheticWorld {
    cfg: SyntheticConfig,
    shard: u64,
    prototypes: Vec<Tensor>,
}

impl SyntheticWorld {
    /// Builds the world for `cfg` with label runs of `shard` consecutive
    /// samples per class. The prototypes are derived exactly as in
    /// [`crate::SyntheticDataset::generate`], so two worlds with the same
    /// config are identical; `train_per_class`/`test_per_class` are ignored
    /// (the world has no fixed size).
    ///
    /// # Panics
    /// Panics on a degenerate config (no classes/pixels or `shard == 0`).
    pub fn new(cfg: &SyntheticConfig, shard: u64) -> Self {
        assert!(cfg.num_classes > 0 && cfg.hw > 0 && cfg.channels > 0);
        assert!(shard > 0, "shard must be positive");
        let mut proto_rng = StdRng::seed_from_u64(cfg.seed);
        let prototypes = make_prototypes(cfg, &mut proto_rng);
        Self { cfg: cfg.clone(), shard, prototypes }
    }

    /// Number of classes `L`.
    pub fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    /// Per-sample shape `[channels, hw, hw]`.
    pub fn sample_shape(&self) -> Vec<usize> {
        vec![self.cfg.channels, self.cfg.hw, self.cfg.hw]
    }

    /// Label of global sample `g` under the blocked shard layout.
    pub fn label_of(&self, g: u64) -> usize {
        ((g / self.shard) % self.cfg.num_classes as u64) as usize
    }

    /// Per-class sample counts of the half-open interval `[start, start +
    /// len)`, in closed form (no per-sample loop — stub construction runs
    /// this for every client of a possibly million-client fleet).
    pub fn class_counts_in(&self, start: u64, len: u64) -> Vec<u64> {
        let classes = self.cfg.num_classes as u64;
        let cycle = self.shard * classes;
        let mut counts = vec![0u64; self.cfg.num_classes];
        let full_cycles = len / cycle;
        for c in counts.iter_mut() {
            *c = full_cycles * self.shard;
        }
        // Walk the at-most-one partial cycle block by block.
        let mut g = start + full_cycles * cycle;
        let end = start + len;
        while g < end {
            let block_end = (g / self.shard + 1) * self.shard;
            let take = block_end.min(end) - g;
            counts[self.label_of(g)] += take;
            g += take;
        }
        counts
    }

    /// Materializes the half-open interval `[start, start + len)` as a
    /// concrete [`Dataset`] (local indices `0..len` map to global indices
    /// `start..start + len`). Each sample is a pure function of
    /// `(config, g)` — the same interval always materializes to the same
    /// bytes, regardless of what was materialized before.
    pub fn materialize(&self, start: u64, len: u64) -> Dataset {
        let per = self.cfg.channels * self.cfg.hw * self.cfg.hw;
        let mut data = Vec::with_capacity(len as usize * per);
        let mut labels = Vec::with_capacity(len as usize);
        for g in start..start + len {
            let label = self.label_of(g);
            let mut rng = StdRng::seed_from_u64(mix(self.cfg.seed, g));
            let noise = Tensor::randn(self.prototypes[label].shape(), self.cfg.noise_std, &mut rng);
            data.extend_from_slice(self.prototypes[label].add(&noise).data());
            labels.push(label);
        }
        Dataset::new(data, self.sample_shape(), labels, self.cfg.num_classes)
    }

    /// A class-balanced held-out evaluation split of `per_class` samples
    /// per class, drawn from a reserved region of the index space far above
    /// any fleet's training range (offset `2^63`), so test samples never
    /// collide with assigned training samples.
    pub fn test_split(&self, per_class: usize) -> Dataset {
        let per = self.cfg.channels * self.cfg.hw * self.cfg.hw;
        let classes = self.cfg.num_classes;
        let base = 1u64 << 63;
        let mut data = Vec::with_capacity(per_class * classes * per);
        let mut labels = Vec::with_capacity(per_class * classes);
        for rep in 0..per_class as u64 {
            for label in 0..classes {
                let g = base + rep * classes as u64 + label as u64;
                let mut rng = StdRng::seed_from_u64(mix(self.cfg.seed, g));
                let noise =
                    Tensor::randn(self.prototypes[label].shape(), self.cfg.noise_std, &mut rng);
                data.extend_from_slice(self.prototypes[label].add(&noise).data());
                labels.push(label);
            }
        }
        Dataset::new(data, self.sample_shape(), labels, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(shard: u64) -> SyntheticWorld {
        SyntheticWorld::new(&SyntheticConfig::c10_like(4, 11), shard)
    }

    #[test]
    fn materialization_is_deterministic_and_interval_independent() {
        let w = world(8);
        let a = w.materialize(100, 16);
        let b = w.materialize(100, 16);
        assert_eq!(a.full_batch().0, b.full_batch().0);
        // The same global sample materializes identically inside any
        // enclosing interval.
        let wide = w.materialize(96, 24);
        let (xa, la) = a.batch(&[0]);
        let (xw, lw) = wide.batch(&[4]);
        assert_eq!(xa, xw);
        assert_eq!(la, lw);
    }

    #[test]
    fn blocked_labels_follow_shard_layout() {
        let w = world(5);
        assert_eq!(w.label_of(0), 0);
        assert_eq!(w.label_of(4), 0);
        assert_eq!(w.label_of(5), 1);
        assert_eq!(w.label_of(5 * 10), 0, "layout wraps after one full cycle");
        let ds = w.materialize(0, 12);
        assert_eq!(ds.full_batch().1, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn class_counts_closed_form_matches_a_sample_loop() {
        let w = world(7);
        for (start, len) in [(0u64, 5u64), (3, 70), (69, 141), (1000, 1)] {
            let closed = w.class_counts_in(start, len);
            let mut looped = vec![0u64; w.num_classes()];
            for g in start..start + len {
                looped[w.label_of(g)] += 1;
            }
            assert_eq!(closed, looped, "interval [{start}, {})", start + len);
            assert_eq!(closed.iter().sum::<u64>(), len);
        }
    }

    #[test]
    fn test_split_is_balanced_and_disjoint_from_training_range() {
        let w = world(4);
        let test = w.test_split(6);
        assert_eq!(test.len(), 60);
        assert!(test.class_counts().iter().all(|&c| c == 6));
        // Reserved region: regenerating training data does not reproduce
        // any test sample.
        let train = w.materialize(0, 40);
        let (tx, _) = test.batch(&[0]);
        let (trx, _) = train.batch(&[0]);
        assert_ne!(tx, trx);
    }
}
