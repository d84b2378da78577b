//! (ε, δ)-local differential privacy for transmitted models (Sec. III-E).
//!
//! Before a model leaves its client — for migration or aggregation — its
//! parameter vector is clipped to L2 norm `C` (Eq. 30) and perturbed with
//! Gaussian noise `ζ ~ N(0, σ²)` (Eq. 31), with σ set by the analytic
//! Gaussian-mechanism bound `σ = C · sqrt(2 ln(1.25/δ)) / ε`.

use rand::Rng;

/// Local differential-privacy configuration.
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// Privacy budget ε (smaller = stronger privacy, more noise).
    pub epsilon: f64,
    /// Failure probability δ of the (ε, δ) guarantee.
    pub delta: f64,
    /// L2 clipping threshold `C` (Eq. 30).
    pub clip: f32,
}

impl DpConfig {
    /// A configuration with the paper's δ = 1e-5 and clipping threshold 10.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self { epsilon, delta: 1e-5, clip: 10.0 }
    }

    /// Gaussian-mechanism noise scale σ for this budget.
    pub fn sigma(&self) -> f32 {
        assert!(self.epsilon > 0.0 && self.delta > 0.0 && self.delta < 1.0);
        (self.clip as f64 * (2.0 * (1.25 / self.delta).ln()).sqrt() / self.epsilon) as f32
    }

    /// Clips `params` to L2 norm `C` (Eq. 30) and adds `N(0, σ²)` noise to
    /// every coordinate (Eq. 31), in place.
    pub fn apply<R: Rng>(&self, params: &mut [f32], rng: &mut R) {
        let sigma = self.sigma();
        self.clip(params);
        for p in params.iter_mut() {
            *p += gaussian(rng) * sigma;
        }
    }

    /// Clips `params` to L2 norm `C` (Eq. 30), in place.
    fn clip(&self, params: &mut [f32]) {
        let norm: f32 = params.iter().map(|x| x * x).sum::<f32>().sqrt();
        let scale = 1.0 / (norm / self.clip).max(1.0);
        for p in params.iter_mut() {
            *p *= scale;
        }
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-7);
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigma_grows_as_epsilon_shrinks() {
        let strong = DpConfig::with_epsilon(10.0);
        let weak = DpConfig::with_epsilon(100.0);
        assert!(strong.sigma() > weak.sigma());
        assert!((strong.sigma() / weak.sigma() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn clip_bounds_norm_and_preserves_small_vectors() {
        let cfg = DpConfig { epsilon: 100.0, delta: 1e-5, clip: 1.0 };
        let mut big = vec![3.0f32, 4.0]; // norm 5
        cfg.clip(&mut big);
        let norm: f32 = big.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);

        let mut small = vec![0.3f32, 0.4]; // norm 0.5 < C
        let before = small.clone();
        cfg.clip(&mut small);
        assert_eq!(small, before);
    }

    #[test]
    fn apply_adds_noise_of_expected_scale() {
        let cfg = DpConfig { epsilon: 50.0, delta: 1e-5, clip: 1.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut v = vec![0.0f32; n];
        cfg.apply(&mut v, &mut rng);
        let mean: f32 = v.iter().sum::<f32>() / n as f32;
        let std: f32 = (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32).sqrt();
        let expected = cfg.sigma();
        assert!(mean.abs() < expected * 0.05, "mean {mean}");
        assert!((std / expected - 1.0).abs() < 0.05, "std {std} vs sigma {expected}");
    }

    #[test]
    fn smaller_epsilon_means_more_distortion() {
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<f32> = (0..512).map(|i| (i as f32 * 0.01).sin()).collect();
        let distortion = |eps: f64, rng: &mut StdRng| {
            let cfg = DpConfig::with_epsilon(eps);
            let mut v = base.clone();
            cfg.apply(&mut v, rng);
            v.iter().zip(&base).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        let strong = distortion(50.0, &mut rng);
        let weak = distortion(500.0, &mut rng);
        // The noise variance differs 100x; clipping contributes a common
        // floor, so require a conservative 5x gap.
        assert!(strong > weak * 5.0, "strong {strong} weak {weak}");
    }
}
