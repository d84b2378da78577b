//! Deterministic Byzantine-adversary injection for the MEC simulator.
//!
//! [`FaultModel`](crate::FaultModel) covers *environmental* faults; this
//! module covers *adversarial* ones. A configurable fraction of clients is
//! marked Byzantine, and everything a Byzantine client transmits — uploads
//! to the server **and** client-to-client migrations — is corrupted at the
//! egress point. The migration path makes this strictly nastier than in
//! vanilla FL: a poisoned model handed to a benign client contaminates that
//! client's subsequent local training before the server ever sees an
//! update.
//!
//! Like the fault schedule, the attack schedule is a *pure function* of
//! `(seed, client, epoch, coordinate)` via the shared SplitMix64 hash
//! family: the same seed reproduces the same Byzantine set and byte-wise
//! identical corruptions, and [`AttackModel::none`] (or any zero-fraction
//! config) never consumes randomness and short-circuits every query, so a
//! no-attack run is byte-identical to one executed without this layer.

use crate::fault::hash_unit;

/// What a Byzantine client does to the models it transmits (and, for
/// [`AttackKind::LabelFlip`], to its own local training data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Transmit `-w` instead of `w` — the classic sign-flip / gradient
    /// reversal attack. A single flipped model drags a plain mean far from
    /// the benign optimum.
    SignFlip,
    /// Add elementwise Gaussian noise of standard deviation
    /// [`AttackConfig::noise_std`] to every transmitted parameter.
    GaussianNoise,
    /// Transmit `scale * w` — a model-replacement / boosting attack that
    /// lets the attacker dominate a weighted mean.
    ScaledReplacement,
    /// Set a [`AttackConfig::nan_frac`] fraction of coordinates to
    /// alternating `NaN` / `+inf`. One such upload turns a plain mean into
    /// garbage everywhere the injected coordinates land.
    NanInject,
    /// Train honestly but on *flipped labels* (class `c` relabelled to
    /// `C - 1 - c`). The transmitted model is statistically unremarkable —
    /// norms and finiteness look benign — so it stresses the aggregation
    /// rule rather than the transport-level screens.
    LabelFlip,
}

impl AttackKind {
    /// Display name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::SignFlip => "sign-flip",
            AttackKind::GaussianNoise => "gauss-noise",
            AttackKind::ScaledReplacement => "scaled",
            AttackKind::NanInject => "nan-inject",
            AttackKind::LabelFlip => "label-flip",
        }
    }
}

/// Configuration of the adversary. `fraction == 0` disables every attack
/// process at zero cost.
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// Fraction of the client population marked Byzantine. The actual count
    /// is `round(fraction * K)`, chosen deterministically from the seed.
    pub fraction: f64,
    /// The corruption applied by Byzantine clients.
    pub kind: AttackKind,
    /// Standard deviation of [`AttackKind::GaussianNoise`].
    pub noise_std: f64,
    /// Multiplier of [`AttackKind::ScaledReplacement`].
    pub scale: f64,
    /// Fraction of coordinates hit by [`AttackKind::NanInject`].
    pub nan_frac: f64,
    /// Seed of the attack schedule (independent of run and fault seeds).
    pub seed: u64,
}

impl AttackConfig {
    /// The no-attack configuration: zero Byzantine fraction.
    pub fn none() -> Self {
        Self {
            fraction: 0.0,
            kind: AttackKind::SignFlip,
            noise_std: 1.0,
            scale: -10.0,
            nan_frac: 0.05,
            seed: 0,
        }
    }

    /// A `fraction` sign-flip adversary.
    pub fn sign_flip(fraction: f64, seed: u64) -> Self {
        Self { fraction, kind: AttackKind::SignFlip, seed, ..Self::none() }
    }

    /// A `fraction` Gaussian-noise adversary of standard deviation `std`.
    pub fn gaussian(fraction: f64, std: f64, seed: u64) -> Self {
        Self { fraction, kind: AttackKind::GaussianNoise, noise_std: std, seed, ..Self::none() }
    }

    /// A `fraction` scaled-model-replacement adversary.
    pub fn scaled(fraction: f64, scale: f64, seed: u64) -> Self {
        Self { fraction, kind: AttackKind::ScaledReplacement, scale, seed, ..Self::none() }
    }

    /// A `fraction` NaN/Inf-injection adversary.
    pub fn nan_inject(fraction: f64, seed: u64) -> Self {
        Self { fraction, kind: AttackKind::NanInject, seed, ..Self::none() }
    }

    /// A `fraction` label-flip (data-poisoning) adversary.
    pub fn label_flip(fraction: f64, seed: u64) -> Self {
        Self { fraction, kind: AttackKind::LabelFlip, seed, ..Self::none() }
    }

    /// Whether the adversary is disabled.
    pub fn is_none(&self) -> bool {
        self.fraction == 0.0
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Domain-separation tags, disjoint from the fault-model tag space.
const TAG_SELECT: u64 = 101;
const TAG_NOISE_A: u64 = 102;
const TAG_NOISE_B: u64 = 103;
const TAG_NAN: u64 = 104;

/// The seeded adversary over a client population. The Byzantine set is
/// fixed for the run (a compromised device stays compromised); corruptions
/// are pure functions of `(seed, client, epoch, coordinate)`.
#[derive(Clone, Debug)]
pub struct AttackModel {
    config: AttackConfig,
    byzantine: Vec<bool>,
    num_byzantine: usize,
}

impl AttackModel {
    /// Builds the adversary for `num_clients` clients. The Byzantine set is
    /// the `round(fraction * K)` clients with the smallest selection hash —
    /// deterministic in the seed and independent of query order.
    ///
    /// # Panics
    /// Panics on an out-of-range fraction, non-positive noise/NaN
    /// parameters, or an empty population.
    pub fn new(config: AttackConfig, num_clients: usize) -> Self {
        assert!(num_clients > 0, "attack model needs at least one client");
        assert!(
            (0.0..=1.0).contains(&config.fraction),
            "byzantine fraction must be in [0, 1], got {}",
            config.fraction
        );
        assert!(config.noise_std >= 0.0, "noise_std must be non-negative");
        assert!((0.0..=1.0).contains(&config.nan_frac), "nan_frac must be in [0, 1]");
        let target = (config.fraction * num_clients as f64).round() as usize;
        let target = target.min(num_clients);
        let mut byzantine = vec![false; num_clients];
        if target > 0 {
            let mut ranked: Vec<(f64, usize)> = (0..num_clients)
                .map(|i| (hash_unit(config.seed, TAG_SELECT, i as u64, 0, 0), i))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, i) in ranked.iter().take(target) {
                byzantine[i] = true;
            }
        }
        Self { config, byzantine, num_byzantine: target }
    }

    /// A disabled adversary: every client honest.
    pub fn none(num_clients: usize) -> Self {
        Self::new(AttackConfig::none(), num_clients)
    }

    /// Whether any client is Byzantine.
    pub fn enabled(&self) -> bool {
        self.num_byzantine > 0
    }

    /// The configuration this adversary was built from.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Whether `client` is Byzantine.
    pub fn is_byzantine(&self, client: usize) -> bool {
        self.byzantine[client]
    }

    /// Whether Byzantine clients poison their *training labels* (the
    /// label-flip attack) rather than the transmitted parameters.
    pub fn flips_labels(&self) -> bool {
        self.enabled() && self.config.kind == AttackKind::LabelFlip
    }

    /// A deterministic standard normal for `(client, epoch, coordinate)`
    /// via Box–Muller over two hash streams.
    fn normal(&self, client: usize, epoch: usize, idx: usize) -> f64 {
        let (a, b, t) = (client as u64, idx as u64, epoch as u64);
        let u1 = hash_unit(self.config.seed, TAG_NOISE_A, a, b, t).max(1e-12);
        let u2 = hash_unit(self.config.seed, TAG_NOISE_B, a, b, t);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Corrupts `params` in place if `client` is Byzantine and the attack
    /// kind targets transmitted parameters. Returns whether a corruption was
    /// applied. Honest clients (and the label-flip attack, which poisons
    /// data instead) leave the buffer untouched.
    pub fn corrupt_upload(&self, client: usize, epoch: usize, params: &mut [f32]) -> bool {
        if !self.byzantine.get(client).copied().unwrap_or(false) {
            return false;
        }
        match self.config.kind {
            AttackKind::SignFlip => {
                for p in params.iter_mut() {
                    *p = -*p;
                }
            }
            AttackKind::GaussianNoise => {
                let std = self.config.noise_std;
                for (idx, p) in params.iter_mut().enumerate() {
                    *p += (std * self.normal(client, epoch, idx)) as f32;
                }
            }
            AttackKind::ScaledReplacement => {
                let s = self.config.scale as f32;
                for p in params.iter_mut() {
                    *p *= s;
                }
            }
            AttackKind::NanInject => {
                let mut injected = false;
                for (idx, p) in params.iter_mut().enumerate() {
                    let u = hash_unit(
                        self.config.seed,
                        TAG_NAN,
                        client as u64,
                        idx as u64,
                        epoch as u64,
                    );
                    if u < self.config.nan_frac {
                        *p = if idx % 2 == 0 { f32::NAN } else { f32::INFINITY };
                        injected = true;
                    }
                }
                if !injected && !params.is_empty() {
                    // A tiny model must still be poisoned: hit coordinate 0.
                    params[0] = f32::NAN;
                }
            }
            AttackKind::LabelFlip => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_fully_transparent() {
        let a = AttackModel::none(8);
        assert!(!a.enabled());
        assert_eq!(a.num_byzantine, 0);
        let mut p = vec![1.0f32, -2.0, 3.0];
        for c in 0..8 {
            assert!(!a.is_byzantine(c));
            assert!(!a.corrupt_upload(c, 5, &mut p));
        }
        assert_eq!(p, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn byzantine_count_matches_fraction_and_is_seed_deterministic() {
        let a = AttackModel::new(AttackConfig::sign_flip(0.2, 7), 10);
        let b = AttackModel::new(AttackConfig::sign_flip(0.2, 7), 10);
        assert_eq!(a.num_byzantine, 2);
        for i in 0..10 {
            assert_eq!(a.is_byzantine(i), b.is_byzantine(i));
        }
        let c = AttackModel::new(AttackConfig::sign_flip(0.2, 8), 10);
        let same = (0..10).all(|i| a.is_byzantine(i) == c.is_byzantine(i));
        // Different seeds *can* pick the same pair, but with these seeds
        // they don't (and the fixed assertion keeps the property visible).
        assert!(!same, "seeds 7 and 8 should select different byzantine sets");
    }

    #[test]
    fn fraction_rounds_to_nearest_client() {
        assert_eq!(AttackModel::new(AttackConfig::sign_flip(0.2, 1), 4).num_byzantine, 1);
        assert_eq!(AttackModel::new(AttackConfig::sign_flip(0.5, 1), 4).num_byzantine, 2);
        assert_eq!(AttackModel::new(AttackConfig::sign_flip(1.0, 1), 4).num_byzantine, 4);
    }

    #[test]
    fn sign_flip_negates() {
        let a = AttackModel::new(AttackConfig::sign_flip(1.0, 3), 2);
        let mut p = vec![1.0f32, -0.5, 0.0];
        assert!(a.corrupt_upload(0, 1, &mut p));
        assert_eq!(p, vec![-1.0, 0.5, 0.0]);
    }

    #[test]
    fn gaussian_noise_is_deterministic_and_nonzero() {
        let a = AttackModel::new(AttackConfig::gaussian(1.0, 0.5, 9), 2);
        let mut p1 = vec![0.0f32; 64];
        let mut p2 = vec![0.0f32; 64];
        a.corrupt_upload(1, 4, &mut p1);
        a.corrupt_upload(1, 4, &mut p2);
        assert_eq!(p1, p2, "same (seed, client, epoch) must corrupt identically");
        assert!(p1.iter().any(|&x| x != 0.0));
        assert!(p1.iter().all(|x| x.is_finite()));
        let mut p3 = vec![0.0f32; 64];
        a.corrupt_upload(1, 5, &mut p3);
        assert_ne!(p1, p3, "different epochs draw different noise");
    }

    #[test]
    fn scaled_replacement_multiplies() {
        let a = AttackModel::new(AttackConfig::scaled(1.0, -10.0, 2), 1);
        let mut p = vec![1.0f32, 2.0];
        assert!(a.corrupt_upload(0, 0, &mut p));
        assert_eq!(p, vec![-10.0, -20.0]);
    }

    #[test]
    fn nan_inject_always_poisons_something() {
        let a = AttackModel::new(AttackConfig::nan_inject(1.0, 11), 1);
        for len in [1usize, 3, 1000] {
            let mut p = vec![1.0f32; len];
            assert!(a.corrupt_upload(0, 2, &mut p));
            assert!(p.iter().any(|x| !x.is_finite()), "len {len} escaped injection");
        }
    }

    #[test]
    fn label_flip_leaves_params_alone() {
        let a = AttackModel::new(AttackConfig::label_flip(1.0, 4), 2);
        assert!(a.flips_labels());
        let mut p = vec![1.0f32, 2.0];
        assert!(!a.corrupt_upload(0, 0, &mut p));
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_fraction() {
        let _ = AttackModel::new(AttackConfig::sign_flip(1.5, 0), 4);
    }
}
