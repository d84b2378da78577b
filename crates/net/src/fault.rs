//! Deterministic fault injection for the MEC simulator.
//!
//! The paper's setting is heterogeneous edge computing with time-varying
//! wireless links (Sec. III-B); real deployments of that setting are
//! defined by churn — devices crash and rejoin, stragglers blow through
//! round deadlines, and links drop or degrade. [`FaultModel`] layers those
//! failure processes over [`crate::Topology`] and [`crate::ClientCompute`]
//! as *pure functions* of `(seed, entity, epoch)`: no mutable state, no
//! shared RNG stream. That gives two properties the runner relies on:
//!
//! 1. **Determinism** — the same seed and config produce bit-identical
//!    fault schedules, independently of query order.
//! 2. **Zero cost when disabled** — [`FaultModel::none`] never consumes
//!    randomness and every query short-circuits, so a fault-free run is
//!    byte-identical to one executed without the fault layer at all.

/// Retries a failed transfer gets after its first attempt.
pub const MAX_RETRIES: u32 = 3;
/// Backoff charged before the first retry, in seconds.
const BASE_BACKOFF_S: f64 = 0.5;
/// Multiplicative backoff growth per attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Probability that an individual retry attempt goes through (models
/// transient recovery within an epoch).
const RETRY_SUCCESS_PROB: f64 = 0.5;

/// Backoff charged before retry `attempt` (1-based), in seconds: 0.5 s,
/// doubling per attempt.
pub fn retry_backoff(attempt: u32) -> f64 {
    assert!(attempt >= 1, "attempts are 1-based");
    BASE_BACKOFF_S * BACKOFF_FACTOR.powi(attempt as i32 - 1)
}

/// Configuration of the fault processes. All probabilities are per epoch.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Probability a live client begins an outage (crash/dropout) at a
    /// given epoch. The client rejoins automatically when the outage ends.
    pub crash_prob: f64,
    /// Maximum outage length in epochs; actual lengths are uniform in
    /// `1..=max_outage_epochs`.
    pub max_outage_epochs: usize,
    /// Probability a client is a straggler in a given epoch.
    pub straggler_prob: f64,
    /// Local-epoch time multiplier for straggling clients (>= 1).
    pub straggler_slowdown: f64,
    /// Straggler deadline as a multiple of the *median* per-client round
    /// time; arrivals past the deadline miss the round. `f64::INFINITY`
    /// disables the deadline.
    pub straggler_deadline: f64,
    /// Probability a C2C link is out for a given epoch (symmetric).
    pub link_outage_prob: f64,
    /// Probability a client's WAN (C2S) path is out for a given epoch.
    pub c2s_outage_prob: f64,
    /// Probability a C2C link is degraded for a given epoch.
    pub degraded_prob: f64,
    /// Fraction of bandwidth lost on a degraded link, in `[0, 1)`.
    pub degradation: f64,
    /// Probability a link *flaps* (cycles up/down) for a given epoch. Only
    /// the event-driven flow transport reacts to flapping; the lockstep
    /// path treats a flapping link as healthy.
    pub flap_prob: f64,
    /// Full on/off cycle length of a flapping link, in seconds (> 0). The
    /// link is up for the first half of each cycle.
    pub flap_period: f64,
    /// Probability a link suffers burst loss for a given epoch.
    pub burst_loss_prob: f64,
    /// Per-segment loss rate while a burst is active, in `[0, 1)`.
    pub burst_loss_rate: f64,
    /// Probability a link's bandwidth collapses for a given epoch.
    pub bw_collapse_prob: f64,
    /// Bandwidth multiplier on a collapsed link, in `(0, 1]`.
    pub bw_collapse_factor: f64,
    /// Explicit `(client, epoch)` pairs at which the client's training
    /// thread panics mid-round — a deterministic stand-in for software
    /// crashes (poisoned inputs, OOM aborts) as opposed to the
    /// availability outages of `crash_prob`. The runner catches the panic
    /// and treats the client as crashed for that round.
    pub panics: Vec<(usize, usize)>,
    /// Seed of the fault schedule (independent of the run seed).
    pub seed: u64,
}

impl FaultConfig {
    /// The no-fault configuration: every probability zero, no deadline.
    pub fn none() -> Self {
        Self {
            crash_prob: 0.0,
            max_outage_epochs: 1,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            straggler_deadline: f64::INFINITY,
            link_outage_prob: 0.0,
            c2s_outage_prob: 0.0,
            degraded_prob: 0.0,
            degradation: 0.0,
            flap_prob: 0.0,
            flap_period: 1.0,
            burst_loss_prob: 0.0,
            burst_loss_rate: 0.0,
            bw_collapse_prob: 0.0,
            bw_collapse_factor: 1.0,
            panics: Vec::new(),
            seed: 0,
        }
    }

    /// An edge-churn preset parameterized by a single dropout rate: clients
    /// crash at `dropout` per epoch (outages up to 3 epochs), links fail at
    /// half that rate, and moderate straggling with a 2.5x median deadline.
    pub fn edge_churn(dropout: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0, 1)");
        Self {
            crash_prob: dropout,
            max_outage_epochs: 3,
            straggler_prob: 0.15,
            straggler_slowdown: 3.0,
            straggler_deadline: 2.5,
            link_outage_prob: dropout / 2.0,
            c2s_outage_prob: dropout / 4.0,
            degraded_prob: dropout,
            degradation: 0.5,
            flap_prob: 0.0,
            flap_period: 1.0,
            burst_loss_prob: 0.0,
            burst_loss_rate: 0.0,
            bw_collapse_prob: 0.0,
            bw_collapse_factor: 1.0,
            panics: Vec::new(),
            seed,
        }
    }

    /// Layers transport-level network stress — flapping links, burst loss
    /// and bandwidth collapse — on top of an existing config at intensity
    /// `level` in `[0, 1)`. These processes only bite under the flow
    /// transport; the lockstep path ignores them entirely.
    pub fn with_network_stress(mut self, level: f64) -> Self {
        assert!((0.0..1.0).contains(&level), "stress level must be in [0, 1)");
        self.flap_prob = level / 2.0;
        self.flap_period = 0.1;
        self.burst_loss_prob = level;
        self.burst_loss_rate = 0.3;
        self.bw_collapse_prob = level / 2.0;
        self.bw_collapse_factor = 0.25;
        self
    }

    /// Whether every fault process is disabled.
    pub fn is_none(&self) -> bool {
        self.crash_prob == 0.0
            && self.straggler_prob == 0.0
            && self.link_outage_prob == 0.0
            && self.c2s_outage_prob == 0.0
            && self.degraded_prob == 0.0
            && self.flap_prob == 0.0
            && self.burst_loss_prob == 0.0
            && self.bw_collapse_prob == 0.0
            && self.straggler_deadline.is_infinite()
            && self.panics.is_empty()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The seeded fault schedule over a client population. All queries are pure
/// functions of `(config.seed, entity, epoch)` — see the module docs.
#[derive(Clone, Debug)]
pub struct FaultModel {
    config: FaultConfig,
    num_clients: usize,
    enabled: bool,
}

/// Domain-separation tags for the per-entity hash streams.
const TAG_CRASH: u64 = 1;
const TAG_OUTAGE_LEN: u64 = 2;
const TAG_STRAGGLER: u64 = 3;
const TAG_LINK: u64 = 4;
const TAG_C2S: u64 = 5;
const TAG_DEGRADED: u64 = 6;
const TAG_RETRY: u64 = 7;
const TAG_FLAP: u64 = 8;
const TAG_BURST_LOSS: u64 = 9;
const TAG_BW_COLLAPSE: u64 = 10;
const TAG_FLAP_PHASE: u64 = 11;

/// SplitMix64-style avalanche over `(seed, tag, a, b, t)`, mapped to a
/// uniform value in `[0, 1)`. Shared by [`FaultModel`] and
/// [`crate::AttackModel`] so both schedules are pure functions of their
/// seed — no mutable RNG state, no query-order sensitivity. The constants
/// match the topology jitter hash family.
pub(crate) fn hash_unit(seed: u64, tag: u64, a: u64, b: u64, t: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(a)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(b)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(t);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultModel {
    /// Builds the schedule for `num_clients` clients.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities or a non-positive slowdown.
    pub fn new(config: FaultConfig, num_clients: usize) -> Self {
        assert!(num_clients > 0, "fault model needs at least one client");
        for p in [
            config.crash_prob,
            config.straggler_prob,
            config.link_outage_prob,
            config.c2s_outage_prob,
            config.degraded_prob,
            config.flap_prob,
            config.burst_loss_prob,
            config.bw_collapse_prob,
        ] {
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0, 1], got {p}");
        }
        assert!(config.crash_prob < 1.0, "crash_prob 1.0 would never let any client run");
        assert!((0.0..1.0).contains(&config.degradation), "degradation must be in [0, 1)");
        assert!((0.0..1.0).contains(&config.burst_loss_rate), "loss rate must be in [0, 1)");
        assert!(config.flap_period > 0.0, "flap period must be positive");
        assert!(
            config.bw_collapse_factor > 0.0 && config.bw_collapse_factor <= 1.0,
            "collapse factor must be in (0, 1]"
        );
        assert!(config.straggler_slowdown >= 1.0, "slowdown must be >= 1");
        assert!(config.max_outage_epochs >= 1, "outages last at least one epoch");
        assert!(
            config.straggler_deadline > 0.0,
            "deadline factor must be positive (INFINITY disables it)"
        );
        let enabled = !config.is_none();
        Self { config, num_clients, enabled }
    }

    /// A disabled model: every client always alive, every link always up.
    pub fn none(num_clients: usize) -> Self {
        Self::new(FaultConfig::none(), num_clients)
    }

    /// Whether any fault process is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configuration this schedule was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of clients covered.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn unit(&self, tag: u64, a: u64, b: u64, t: u64) -> f64 {
        hash_unit(self.config.seed, tag, a, b, t)
    }

    /// Whether an outage *starts* for `client` at `epoch`.
    fn crash_starts(&self, client: usize, epoch: usize) -> bool {
        self.unit(TAG_CRASH, client as u64, 0, epoch as u64) < self.config.crash_prob
    }

    /// Length in epochs of the outage starting at `epoch` (only meaningful
    /// when [`Self::crash_starts`] holds there).
    fn outage_len(&self, client: usize, epoch: usize) -> usize {
        let m = self.config.max_outage_epochs as u64;
        1 + (self.unit(TAG_OUTAGE_LEN, client as u64, 0, epoch as u64) * m as f64) as usize
            % m as usize
    }

    /// Whether `client` is up during `epoch`. Dead clients neither train
    /// nor communicate; they rejoin automatically when the outage ends.
    pub fn is_alive(&self, client: usize, epoch: usize) -> bool {
        if !self.enabled || self.config.crash_prob == 0.0 {
            return true;
        }
        let horizon = self.config.max_outage_epochs.min(epoch);
        for back in 0..=horizon {
            let start = epoch - back;
            if self.crash_starts(client, start) && start + self.outage_len(client, start) > epoch {
                return false;
            }
        }
        true
    }

    /// Local-epoch time multiplier for `client` at `epoch` (1.0 = nominal).
    pub fn slowdown(&self, client: usize, epoch: usize) -> f64 {
        if self.enabled
            && self.unit(TAG_STRAGGLER, client as u64, 0, epoch as u64) < self.config.straggler_prob
        {
            self.config.straggler_slowdown
        } else {
            1.0
        }
    }

    /// Whether the (symmetric) C2C link between `i` and `j` is up at
    /// `epoch`. The degenerate `i == j` "link" is always up.
    pub fn link_up(&self, i: usize, j: usize, epoch: usize) -> bool {
        if !self.enabled || i == j {
            return true;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        self.unit(TAG_LINK, a, b, epoch as u64) >= self.config.link_outage_prob
    }

    /// Bandwidth multiplier of the `i <-> j` link at `epoch` (1.0 when
    /// healthy, `1 - degradation` when degraded). Orthogonal to outages.
    pub fn link_quality(&self, i: usize, j: usize, epoch: usize) -> f64 {
        if !self.enabled || i == j {
            return 1.0;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        if self.unit(TAG_DEGRADED, a, b, epoch as u64) < self.config.degraded_prob {
            1.0 - self.config.degradation
        } else {
            1.0
        }
    }

    /// Whether `client`'s WAN (C2S) path is up at `epoch`.
    pub fn c2s_up(&self, client: usize, epoch: usize) -> bool {
        !self.enabled
            || self.unit(TAG_C2S, client as u64, 0, epoch as u64) >= self.config.c2s_outage_prob
    }

    /// Whether retry number `attempt` (1-based) of a transfer over the
    /// `i <-> j` link at `epoch` succeeds. Use `j = usize::MAX` for C2S
    /// paths.
    pub fn retry_succeeds(&self, i: usize, j: usize, epoch: usize, attempt: u32) -> bool {
        if !self.enabled {
            return true;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        self.unit(TAG_RETRY, a, b, (epoch as u64) << 8 | attempt as u64) < RETRY_SUCCESS_PROB
    }

    /// Up/down cycle of the `i <-> j` link at `epoch` when it flaps:
    /// `Some((period, phase))` with the link up during the first half of
    /// each `period`, shifted by `phase` seconds into the cycle. `None`
    /// when the link is steady. Use `j = usize::MAX` for C2S paths. Only
    /// the flow transport consumes this.
    pub fn link_flap(&self, i: usize, j: usize, epoch: usize) -> Option<(f64, f64)> {
        if !self.enabled || i == j || self.config.flap_prob == 0.0 {
            return None;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        if self.unit(TAG_FLAP, a, b, epoch as u64) < self.config.flap_prob {
            let period = self.config.flap_period;
            let phase = self.unit(TAG_FLAP_PHASE, a, b, epoch as u64) * period;
            Some((period, phase))
        } else {
            None
        }
    }

    /// Per-segment burst-loss rate on the `i <-> j` link at `epoch` (zero
    /// when no burst is active). Use `j = usize::MAX` for C2S paths. Only
    /// the flow transport consumes this.
    pub fn link_burst_loss(&self, i: usize, j: usize, epoch: usize) -> f64 {
        if !self.enabled || i == j || self.config.burst_loss_prob == 0.0 {
            return 0.0;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        if self.unit(TAG_BURST_LOSS, a, b, epoch as u64) < self.config.burst_loss_prob {
            self.config.burst_loss_rate
        } else {
            0.0
        }
    }

    /// Bandwidth-collapse multiplier of the `i <-> j` link at `epoch` (1.0
    /// when healthy). Use `j = usize::MAX` for C2S paths. Composes with
    /// [`Self::link_quality`]; only the flow transport consumes it.
    pub fn link_bw_collapse(&self, i: usize, j: usize, epoch: usize) -> f64 {
        if !self.enabled || i == j || self.config.bw_collapse_prob == 0.0 {
            return 1.0;
        }
        let (a, b) = (i.min(j) as u64, i.max(j) as u64);
        if self.unit(TAG_BW_COLLAPSE, a, b, epoch as u64) < self.config.bw_collapse_prob {
            self.config.bw_collapse_factor
        } else {
            1.0
        }
    }

    /// Whether `client`'s training thread is scheduled to panic at `epoch`
    /// (the explicit `panics` injection list).
    pub fn client_panics(&self, client: usize, epoch: usize) -> bool {
        self.enabled && self.config.panics.contains(&(client, epoch))
    }

    /// Straggler deadline in seconds given the median per-client round time
    /// `median_time`, or `None` when the deadline is disabled.
    pub fn deadline(&self, median_time: f64) -> Option<f64> {
        if self.enabled && self.config.straggler_deadline.is_finite() {
            Some(self.config.straggler_deadline * median_time)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn() -> FaultModel {
        FaultModel::new(FaultConfig::edge_churn(0.3, 42), 10)
    }

    #[test]
    fn none_is_fully_transparent() {
        let f = FaultModel::none(5);
        assert!(!f.enabled());
        for e in 0..50 {
            for i in 0..5 {
                assert!(f.is_alive(i, e));
                assert_eq!(f.slowdown(i, e), 1.0);
                assert!(f.c2s_up(i, e));
                for j in 0..5 {
                    assert!(f.link_up(i, j, e));
                    assert_eq!(f.link_quality(i, j, e), 1.0);
                }
            }
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let a = churn();
        let b = churn();
        let c = FaultModel::new(FaultConfig::edge_churn(0.3, 43), 10);
        let mut diff = 0usize;
        for e in 0..100 {
            for i in 0..10 {
                assert_eq!(a.is_alive(i, e), b.is_alive(i, e));
                assert_eq!(a.slowdown(i, e), b.slowdown(i, e));
                if a.is_alive(i, e) != c.is_alive(i, e) {
                    diff += 1;
                }
            }
        }
        assert!(diff > 0, "different seeds should produce different schedules");
    }

    #[test]
    fn dropout_rate_is_roughly_calibrated() {
        let f = churn();
        let mut down = 0usize;
        let mut total = 0usize;
        for e in 1..200 {
            for i in 0..10 {
                total += 1;
                if !f.is_alive(i, e) {
                    down += 1;
                }
            }
        }
        let frac = down as f64 / total as f64;
        // 30% starts with outages up to 3 epochs -> well above 0.3
        // steady-state downtime; just bound it away from degenerate values.
        assert!(frac > 0.2 && frac < 0.8, "down fraction {frac}");
    }

    #[test]
    fn outages_persist_and_end() {
        let f = churn();
        // Find an outage and check the client stays down for its duration
        // and eventually rejoins.
        'outer: for i in 0..10 {
            for e in 1..100 {
                if f.is_alive(i, e - 1) && !f.is_alive(i, e) {
                    let mut end = e;
                    while !f.is_alive(i, end) {
                        end += 1;
                        assert!(end < e + 10, "outage never ended");
                    }
                    assert!(end > e);
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn links_fail_symmetrically() {
        let f = churn();
        for e in 0..50 {
            for i in 0..10 {
                for j in 0..10 {
                    assert_eq!(f.link_up(i, j, e), f.link_up(j, i, e));
                    assert_eq!(f.link_quality(i, j, e), f.link_quality(j, i, e));
                }
            }
        }
    }

    #[test]
    fn degraded_links_lose_configured_fraction() {
        let f = churn();
        let mut degraded = 0;
        for e in 0..100 {
            let q = f.link_quality(0, 5, e);
            assert!(q == 1.0 || (q - 0.5).abs() < 1e-12);
            if q < 1.0 {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "30% degradation probability never fired in 100 epochs");
    }

    #[test]
    fn backoff_grows_exponentially_and_total_is_monotone() {
        assert_eq!(retry_backoff(1), 0.5);
        assert_eq!(retry_backoff(2), 1.0);
        assert_eq!(retry_backoff(3), 2.0);
        let mut prev = 0.0;
        for n in 0..10 {
            let t: f64 = (1..=n).map(retry_backoff).sum();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn deadline_scales_median() {
        let f = churn();
        assert_eq!(f.deadline(2.0), Some(5.0));
        assert_eq!(FaultModel::none(3).deadline(2.0), None);
    }

    #[test]
    fn network_stress_composes_with_churn_and_is_symmetric() {
        let cfg = FaultConfig::edge_churn(0.2, 9).with_network_stress(0.5);
        assert!(!cfg.is_none());
        let f = FaultModel::new(cfg, 10);
        let (mut flaps, mut bursts, mut collapses) = (0, 0, 0);
        for e in 0..100 {
            for i in 0..10 {
                for j in (i + 1)..10 {
                    assert_eq!(f.link_flap(i, j, e), f.link_flap(j, i, e));
                    assert_eq!(f.link_burst_loss(i, j, e), f.link_burst_loss(j, i, e));
                    assert_eq!(f.link_bw_collapse(i, j, e), f.link_bw_collapse(j, i, e));
                    if let Some((period, phase)) = f.link_flap(i, j, e) {
                        flaps += 1;
                        assert!(period > 0.0 && (0.0..period).contains(&phase));
                    }
                    if f.link_burst_loss(i, j, e) > 0.0 {
                        bursts += 1;
                        assert_eq!(f.link_burst_loss(i, j, e), 0.3);
                    }
                    if f.link_bw_collapse(i, j, e) < 1.0 {
                        collapses += 1;
                        assert_eq!(f.link_bw_collapse(i, j, e), 0.25);
                    }
                }
            }
        }
        assert!(flaps > 0 && bursts > 0 && collapses > 0, "{flaps}/{bursts}/{collapses}");
    }

    #[test]
    fn stress_processes_are_silent_when_disabled() {
        let f = churn(); // churn carries no transport stress
        for e in 0..50 {
            assert_eq!(f.link_flap(0, 5, e), None);
            assert_eq!(f.link_burst_loss(0, 5, e), 0.0);
            assert_eq!(f.link_bw_collapse(0, 5, e), 1.0);
        }
        // C2S paths use the j = MAX convention.
        let stressed = FaultModel::new(FaultConfig::none().with_network_stress(0.6), 4);
        assert!(!stressed.config().is_none());
        let hits = (0..100).filter(|&e| stressed.link_burst_loss(1, usize::MAX, e) > 0.0).count();
        assert!(hits > 20, "c2s burst loss never fired: {hits}");
    }

    #[test]
    fn panic_injection_is_exact_and_enables_the_layer() {
        let mut cfg = FaultConfig::none();
        assert!(cfg.is_none());
        cfg.panics = vec![(2, 5), (0, 1)];
        assert!(!cfg.is_none(), "panic specs must enable the fault layer");
        let f = FaultModel::new(cfg, 4);
        assert!(f.client_panics(2, 5));
        assert!(f.client_panics(0, 1));
        assert!(!f.client_panics(2, 6));
        assert!(!f.client_panics(1, 5));
        // The rest of the schedule stays transparent.
        for e in 0..20 {
            for i in 0..4 {
                assert!(f.is_alive(i, e));
                assert_eq!(f.slowdown(i, e), 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn rejects_bad_probability() {
        let mut cfg = FaultConfig::none();
        cfg.crash_prob = 1.5;
        let _ = FaultModel::new(cfg, 4);
    }
}
