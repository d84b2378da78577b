//! Ornstein–Uhlenbeck exploration noise — the temporally correlated noise
//! process DDPG (Lillicrap et al., the paper's reference [33]) uses for
//! action exploration. Correlated noise explores more coherently than
//! white Gaussian noise in environments with momentum.

use std::io;

use fedmigr_telemetry::wire::{Codec, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An Ornstein–Uhlenbeck process `dx = θ(μ - x)dt + σ dW` discretized at
/// unit steps, one independent component per action dimension.
#[derive(Clone, Debug)]
pub struct OuNoise {
    theta: f32,
    mu: f32,
    sigma: f32,
    state: Vec<f32>,
    rng: StdRng,
}

impl OuNoise {
    /// Creates a process with `dim` components. Standard DDPG settings are
    /// `theta = 0.15`, `sigma = 0.2`, `mu = 0`.
    pub fn new(dim: usize, theta: f32, mu: f32, sigma: f32, seed: u64) -> Self {
        assert!(dim > 0 && theta > 0.0 && sigma >= 0.0);
        Self { theta, mu, sigma, state: vec![mu; dim], rng: StdRng::seed_from_u64(seed) }
    }

    /// Standard DDPG configuration.
    pub fn standard(dim: usize, seed: u64) -> Self {
        Self::new(dim, 0.15, 0.0, 0.2, seed)
    }

    /// Advances the process one step and returns the current noise vector.
    pub fn sample(&mut self) -> &[f32] {
        for x in self.state.iter_mut() {
            let u1: f32 = self.rng.random::<f32>().max(1e-7);
            let u2: f32 = self.rng.random();
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            *x += self.theta * (self.mu - *x) + self.sigma * gauss;
        }
        &self.state
    }

    /// Resets the process to its mean (start of a new episode).
    pub fn reset(&mut self) {
        self.state.fill(self.mu);
    }
}

/// The correlated-noise vector, then the exact RNG stream position; θ, μ and
/// σ are configuration, and so is the dimensionality — another one is a
/// mismatch.
impl Wire for OuNoise {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        c.in_place(&mut self.state, "OU dimension mismatch")?;
        self.rng.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::wire;

    #[test]
    fn mean_reverts_to_mu() {
        let noise = OuNoise::new(1, 0.5, 3.0, 0.0, 1); // No diffusion.
                                                       // Start away from mu by resetting then forcing: state starts at mu,
                                                       // so instead use a fresh process with mu 3 but state from mu 0.
        let mut from_zero = OuNoise::new(1, 0.5, 3.0, 0.0, 1);
        from_zero.state[0] = 0.0;
        for _ in 0..50 {
            from_zero.sample();
        }
        assert!((from_zero.state[0] - 3.0).abs() < 1e-3);
        let _ = noise;
    }

    #[test]
    fn samples_are_temporally_correlated() {
        let mut noise = OuNoise::standard(1, 2);
        let mut prev = noise.sample()[0];
        let mut abs_step = 0.0f32;
        let mut abs_val = 0.0f32;
        for _ in 0..500 {
            let x = noise.sample()[0];
            abs_step += (x - prev).abs();
            abs_val += x.abs();
            prev = x;
        }
        // Step-to-step changes are much smaller than typical magnitudes
        // would be for independent draws of the same stationary variance.
        assert!(abs_step < 2.0 * abs_val, "steps {abs_step} vs values {abs_val}");
    }

    #[test]
    fn stationary_variance_is_bounded() {
        let mut noise = OuNoise::standard(4, 3);
        let mut max_abs = 0.0f32;
        for _ in 0..2000 {
            for &x in noise.sample() {
                max_abs = max_abs.max(x.abs());
            }
        }
        // sigma / sqrt(2 theta - theta^2) ~ 0.38; 6 sigma bound.
        assert!(max_abs < 2.5, "process diverged: {max_abs}");
    }

    #[test]
    fn reset_returns_to_mean() {
        let mut noise = OuNoise::standard(3, 4);
        noise.sample();
        noise.reset();
        assert!(noise.state.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn state_round_trip_resumes_the_exact_stream() {
        let mut live = OuNoise::standard(3, 11);
        for _ in 0..7 {
            live.sample();
        }
        let snap = wire::encode(&mut live);
        let mut resumed = OuNoise::standard(3, 999);
        wire::decode(&snap, &mut resumed).unwrap();
        for _ in 0..20 {
            assert_eq!(live.sample().to_vec(), resumed.sample().to_vec());
        }
        let err = wire::decode(&snap, &mut OuNoise::standard(4, 999)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = OuNoise::standard(2, 9);
        let mut b = OuNoise::standard(2, 9);
        for _ in 0..10 {
            assert_eq!(a.sample(), b.sample());
        }
    }
}
