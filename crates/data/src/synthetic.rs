use fedmigr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Dataset;

/// Configuration for a synthetic class-cluster image dataset.
///
/// Each class gets a smooth random *prototype* image (low-frequency noise);
/// samples are the prototype plus i.i.d. Gaussian pixel noise. `noise_std`
/// controls task difficulty: higher noise means more class overlap.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of classes `L`.
    pub num_classes: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Image channels.
    pub channels: usize,
    /// Image side length (square images).
    pub hw: usize,
    /// Standard deviation of per-pixel sample noise.
    pub noise_std: f32,
    /// Scale of the class prototypes relative to unit-variance patterns:
    /// smaller separation (or larger `noise_std`) makes the task harder.
    pub class_sep: f32,
    /// Size of the shared bank of smooth "part" atoms prototypes are built
    /// from (0 = independent prototypes). Sharing parts across classes is
    /// what real image classes do: it makes features transferable, so a
    /// model trained on one class still learns something useful for the
    /// others — the property model migration exploits.
    pub atom_bank: usize,
    /// Number of atoms combined into each class prototype.
    pub atoms_per_class: usize,
    /// Fraction of each prototype's energy coming from a class-private
    /// smooth pattern (the rest comes from the shared atoms). Private
    /// structure is what a model *forgets* when it trains elsewhere, so
    /// higher values make migration coverage matter more.
    pub private_frac: f32,
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
}

impl SyntheticConfig {
    /// CIFAR-10 stand-in: 10 classes, 3x8x8 images.
    pub fn c10_like(train_per_class: usize, seed: u64) -> Self {
        Self {
            num_classes: 10,
            train_per_class,
            test_per_class: (train_per_class / 5).max(8),
            channels: 3,
            hw: 8,
            noise_std: 3.0,
            class_sep: 1.0,
            atom_bank: 12,
            atoms_per_class: 3,
            private_frac: 0.5,
            seed,
        }
    }

    /// CIFAR-100 stand-in: 100 classes, 3x8x8 images.
    pub fn c100_like(train_per_class: usize, seed: u64) -> Self {
        Self { num_classes: 100, atom_bank: 24, ..Self::c10_like(train_per_class, seed) }
    }

    /// ImageNet-100 stand-in: 100 classes, 3x8x8 images (the paper itself
    /// downsizes ImageNet to a 100-class subset for edge devices).
    pub fn imagenet100_like(train_per_class: usize, seed: u64) -> Self {
        Self {
            num_classes: 100,
            noise_std: 3.3,
            atom_bank: 24,
            ..Self::c10_like(train_per_class, seed)
        }
    }
}

/// A generated train/test pair.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split (the server's evaluation set, as in the paper).
    pub test: Dataset,
}

impl SyntheticDataset {
    /// Generates the dataset described by `config`.
    pub fn generate(config: &SyntheticConfig) -> Self {
        assert!(config.num_classes > 0 && config.hw > 0 && config.channels > 0);
        let mut proto_rng = StdRng::seed_from_u64(config.seed);
        let per = config.channels * config.hw * config.hw;
        let prototypes = make_prototypes(config, &mut proto_rng);

        let make_split = |per_class: usize, salt: u64| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(salt));
            let n = per_class * config.num_classes;
            let mut data = Vec::with_capacity(n * per);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..per_class {
                for (l, proto) in prototypes.iter().enumerate() {
                    let noise = Tensor::randn(proto.shape(), config.noise_std, &mut rng);
                    data.extend_from_slice(proto.add(&noise).data());
                    labels.push(l);
                }
            }
            Dataset::new(
                data,
                vec![config.channels, config.hw, config.hw],
                labels,
                config.num_classes,
            )
        };

        SyntheticDataset {
            train: make_split(config.train_per_class, 0x5eed_0001),
            test: make_split(config.test_per_class, 0x5eed_0002),
        }
    }
}

/// Builds the class prototypes: either independent smooth patterns
/// (`atom_bank == 0`) or normalized signed combinations of atoms drawn from
/// a shared bank, so classes share low-level structure the way natural
/// image classes share edges and textures.
pub(crate) fn make_prototypes(config: &SyntheticConfig, rng: &mut StdRng) -> Vec<Tensor> {
    use rand::Rng;
    let target_norm = ((config.channels * config.hw * config.hw) as f32).sqrt() * config.class_sep;
    if config.atom_bank == 0 {
        return (0..config.num_classes)
            .map(|_| smooth_prototype(config.channels, config.hw, rng).scale(config.class_sep))
            .collect();
    }
    let atoms: Vec<Tensor> =
        (0..config.atom_bank).map(|_| smooth_prototype(config.channels, config.hw, rng)).collect();
    let m = config.atoms_per_class.max(1).min(config.atom_bank);
    let shared_w = (1.0 - config.private_frac).max(0.0).sqrt();
    let private_w = config.private_frac.max(0.0).sqrt();
    (0..config.num_classes)
        .map(|_| {
            let mut proto = Tensor::zeros(atoms[0].shape());
            let mut picked = Vec::with_capacity(m);
            while picked.len() < m {
                let a = rng.random_range(0..config.atom_bank);
                if !picked.contains(&a) {
                    picked.push(a);
                }
            }
            for &a in &picked {
                let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
                let weight = sign * (0.5 + rng.random::<f32>());
                proto.axpy(weight, &atoms[a]);
            }
            let norm = proto.l2_norm().max(1e-6);
            let mut proto = proto.scale(shared_w / norm);
            let private = smooth_prototype(config.channels, config.hw, rng);
            let pnorm = private.l2_norm().max(1e-6);
            proto.axpy(private_w / pnorm, &private);
            let norm = proto.l2_norm().max(1e-6);
            proto.scale(target_norm / norm)
        })
        .collect()
}

/// A smooth random image: white noise passed through a 3x3 box blur twice,
/// then renormalized to roughly unit variance. Low-frequency structure makes
/// the classes learnable by small convolutions.
fn smooth_prototype(channels: usize, hw: usize, rng: &mut StdRng) -> Tensor {
    let raw = Tensor::randn(&[channels, hw, hw], 1.0, rng);
    let blurred = box_blur(&box_blur(&raw, channels, hw), channels, hw);
    let norm = blurred.l2_norm().max(1e-6);
    let scale = ((channels * hw * hw) as f32).sqrt() / norm;
    blurred.scale(scale)
}

fn box_blur(img: &Tensor, channels: usize, hw: usize) -> Tensor {
    let src = img.data();
    let mut out = vec![0.0f32; src.len()];
    for c in 0..channels {
        let plane = c * hw * hw;
        for y in 0..hw {
            for x in 0..hw {
                let mut sum = 0.0;
                let mut count = 0.0;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if ny >= 0 && ny < hw as i32 && nx >= 0 && nx < hw as i32 {
                            sum += src[plane + ny as usize * hw + nx as usize];
                            count += 1.0;
                        }
                    }
                }
                out[plane + y * hw + x] = sum / count;
            }
        }
    }
    Tensor::from_vec(img.shape().to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::c10_like(4, 99);
        let a = SyntheticDataset::generate(&cfg);
        let b = SyntheticDataset::generate(&cfg);
        assert_eq!(a.train.full_batch().0, b.train.full_batch().0);
        assert_eq!(a.test.full_batch().1, b.test.full_batch().1);
    }

    #[test]
    fn splits_have_expected_sizes_and_balance() {
        let cfg = SyntheticConfig::c10_like(6, 1);
        let ds = SyntheticDataset::generate(&cfg);
        assert_eq!(ds.train.len(), 60);
        assert!(ds.train.class_counts().iter().all(|&c| c == 6));
        assert_eq!(ds.test.len(), 8 * 10);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(&SyntheticConfig::c10_like(2, 1));
        let b = SyntheticDataset::generate(&SyntheticConfig::c10_like(2, 2));
        assert_ne!(a.train.full_batch().0, b.train.full_batch().0);
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Mean of a class's train samples should be closest to that class's
        // own test samples — i.e. the task is actually learnable.
        let cfg = SyntheticConfig {
            num_classes: 4,
            train_per_class: 16,
            test_per_class: 4,
            channels: 1,
            hw: 8,
            noise_std: 0.5,
            class_sep: 1.0,
            atom_bank: 0,
            atoms_per_class: 0,
            private_frac: 0.0,
            seed: 5,
        };
        let ds = SyntheticDataset::generate(&cfg);
        let per = 64usize;
        // Class means from train split.
        let (x, y) = ds.train.full_batch();
        let mut means = vec![vec![0.0f32; per]; 4];
        let mut counts = vec![0usize; 4];
        for (row, &l) in x.data().chunks(per).zip(&y) {
            for (m, &v) in means[l].iter_mut().zip(row) {
                *m += v;
            }
            counts[l] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        // Nearest-mean classification on the test split.
        let (tx, ty) = ds.test.full_batch();
        let mut correct = 0usize;
        for (i, &l) in ty.iter().enumerate() {
            let sample = &tx.data()[i * per..(i + 1) * per];
            let mut best = 0;
            let mut best_d = f32::MAX;
            for (k, m) in means.iter().enumerate() {
                let d: f32 = sample.iter().zip(m).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f64 / ty.len() as f64;
        assert!(acc > 0.9, "nearest-mean accuracy too low: {acc}");
    }

    #[test]
    fn c100_like_has_hundred_classes() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::c100_like(1, 0));
        assert_eq!(ds.train.num_classes(), 100);
        assert_eq!(ds.train.len(), 100);
    }
}
