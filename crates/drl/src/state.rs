//! The DRL state `s_t = (t, w^t, F_t, D_t, R_t, G_t)` of Sec. III-C,
//! featurized to a fixed-length vector.
//!
//! The raw state includes the full model parameters `w^t`; feeding millions
//! of weights to the agent is neither practical nor useful, so — as is
//! standard for experience-driven controllers — the featurizer keeps the
//! training-progress scalars (epoch fraction, loss level and trend), the
//! resource picture (`R_t` usage, `G_t` remaining budgets), the row of
//! the distribution-difference matrix `D_t` for the migrating client, a
//! liveness picture (population health + per-peer up/down flags) so the
//! policy can route around fault-injected dropouts, and a per-peer
//! *suspicion* picture from the migration quarantine so the policy can
//! route around Byzantine sources.

/// Builder for per-decision state vectors of a fixed layout:
/// `[t/T, loss, Δloss, bw_remaining, compute_remaining, alive_frac,
///   d_{i,1..K}, live_{1..K}, susp_{1..K}]`.
#[derive(Clone, Debug)]
pub struct MigrationState {
    num_clients: usize,
}

impl MigrationState {
    /// Creates a featurizer for `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        assert!(num_clients > 0);
        Self { num_clients }
    }

    /// Dimensionality of produced state vectors.
    pub fn dim(&self) -> usize {
        6 + 3 * self.num_clients
    }

    /// Builds the state for a migration decision about client `i`, assuming
    /// a fully live population (every liveness feature 1.0) and no
    /// quarantine evidence (every suspicion feature 0.0). Convenience
    /// wrapper over [`Self::build_with_health`] for fault-free call sites.
    ///
    /// * `epoch_frac` — `t / T` in `[0, 1]`,
    /// * `loss` — current global loss `F_t` (clamped to a sane range),
    /// * `dloss` — `(F_t - F_{t-1}) / F_{t-1}`, the loss trend in Eq. 17,
    /// * `bw_remaining`, `compute_remaining` — `G_t` fractions in `[0, 1]`,
    /// * `distance_row` — row `i` of `D_t` (length `K`).
    pub fn build(
        &self,
        epoch_frac: f64,
        loss: f64,
        dloss: f64,
        bw_remaining: f64,
        compute_remaining: f64,
        distance_row: &[f64],
    ) -> Vec<f32> {
        self.build_with_health(
            epoch_frac,
            loss,
            dloss,
            bw_remaining,
            compute_remaining,
            distance_row,
            &vec![true; self.num_clients],
            &vec![0.0; self.num_clients],
        )
    }

    /// Builds the full state: liveness flags per peer plus the quarantine's
    /// per-peer suspicion scores in `[0, 1]` (1 = every recent migration
    /// from that peer was rejected). The policy can thereby learn to avoid
    /// both dead destinations *and* poisoned sources.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_health(
        &self,
        epoch_frac: f64,
        loss: f64,
        dloss: f64,
        bw_remaining: f64,
        compute_remaining: f64,
        distance_row: &[f64],
        live: &[bool],
        suspicion: &[f64],
    ) -> Vec<f32> {
        assert_eq!(
            distance_row.len(),
            self.num_clients,
            "distance row must have one entry per client"
        );
        assert_eq!(live.len(), self.num_clients, "liveness must have one entry per client");
        assert_eq!(suspicion.len(), self.num_clients, "suspicion must have one entry per client");
        let alive = live.iter().filter(|&&l| l).count();
        let mut s = Vec::with_capacity(self.dim());
        s.push(epoch_frac.clamp(0.0, 1.0) as f32);
        s.push(loss.clamp(0.0, 20.0) as f32 / 10.0);
        s.push(dloss.clamp(-1.0, 1.0) as f32);
        s.push(bw_remaining.clamp(0.0, 1.0) as f32);
        s.push(compute_remaining.clamp(0.0, 1.0) as f32);
        s.push(alive as f32 / self.num_clients as f32);
        // L1 distance between distributions is at most 2.
        s.extend(distance_row.iter().map(|&d| (d / 2.0) as f32));
        s.extend(live.iter().map(|&l| if l { 1.0f32 } else { 0.0 }));
        s.extend(suspicion.iter().map(|&x| x.clamp(0.0, 1.0) as f32));
        s
    }
}

/// Fixed-dimension pooled featurizer for fleet-scale runs: per-peer
/// features collapse to per-LAN aggregates, so the state dimension is
/// `6 + 3·L` regardless of fleet size `K` and the decision cost of the
/// DDPG forward pass stops scaling with `K²`. The action space likewise
/// pools to *destination LAN* (one action per LAN).
///
/// Layout: `[t/T, loss, Δloss, bw_remaining, compute_remaining,
/// alive_frac, lan_dist_{1..L}, lan_active_frac_{1..L}, lan_load_{1..L}]`
/// — the first six scalars match [`MigrationState`], then the client's
/// half-L1 distance to each LAN's mean active marginal, the fraction of
/// this round's participants in each LAN, and each LAN's relative data
/// load.
#[derive(Clone, Debug)]
pub struct PooledMigrationState {
    num_lans: usize,
}

impl PooledMigrationState {
    /// Creates a pooled featurizer over `num_lans` LANs.
    pub fn new(num_lans: usize) -> Self {
        assert!(num_lans > 0);
        Self { num_lans }
    }

    /// Number of LANs (also the pooled action dimension).
    pub fn num_lans(&self) -> usize {
        self.num_lans
    }

    /// Dimensionality of produced state vectors.
    pub fn dim(&self) -> usize {
        6 + 3 * self.num_lans
    }

    /// Builds the pooled state for a migration decision about one active
    /// participant.
    ///
    /// * `lan_distance` — half-L1 distance from the participant's label
    ///   marginal to each LAN's mean active marginal (each in `[0, 1]`),
    /// * `lan_active_frac` — fraction of this round's participants in each
    ///   LAN (sums to 1),
    /// * `lan_load` — each LAN's share of fleet data (sums to 1).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &self,
        epoch_frac: f64,
        loss: f64,
        dloss: f64,
        bw_remaining: f64,
        compute_remaining: f64,
        alive_frac: f64,
        lan_distance: &[f64],
        lan_active_frac: &[f64],
        lan_load: &[f64],
    ) -> Vec<f32> {
        assert_eq!(lan_distance.len(), self.num_lans, "distance must have one entry per LAN");
        assert_eq!(
            lan_active_frac.len(),
            self.num_lans,
            "active fractions must have one entry per LAN"
        );
        assert_eq!(lan_load.len(), self.num_lans, "loads must have one entry per LAN");
        let mut s = Vec::with_capacity(self.dim());
        s.push(epoch_frac.clamp(0.0, 1.0) as f32);
        s.push(loss.clamp(0.0, 20.0) as f32 / 10.0);
        s.push(dloss.clamp(-1.0, 1.0) as f32);
        s.push(bw_remaining.clamp(0.0, 1.0) as f32);
        s.push(compute_remaining.clamp(0.0, 1.0) as f32);
        s.push(alive_frac.clamp(0.0, 1.0) as f32);
        s.extend(lan_distance.iter().map(|&d| d.clamp(0.0, 1.0) as f32));
        s.extend(lan_active_frac.iter().map(|&f| f.clamp(0.0, 1.0) as f32));
        s.extend(lan_load.iter().map(|&f| f.clamp(0.0, 1.0) as f32));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_dim() {
        let f = MigrationState::new(3);
        assert_eq!(f.dim(), 15);
        let s = f.build(0.5, 2.0, -0.1, 0.9, 0.8, &[0.0, 2.0, 1.0]);
        assert_eq!(s.len(), 15);
        assert_eq!(s[0], 0.5);
        assert_eq!(s[1], 0.2);
        assert_eq!(s[5], 1.0, "fully live population");
        assert_eq!(s[6], 0.0);
        assert_eq!(s[7], 1.0);
        assert_eq!(s[8], 0.5);
        assert_eq!(&s[9..12], &[1.0, 1.0, 1.0], "default liveness flags are all up");
        assert_eq!(&s[12..], &[0.0, 0.0, 0.0], "default suspicion is zero");
    }

    #[test]
    fn liveness_features_reflect_down_clients() {
        let f = MigrationState::new(4);
        let live = [true, false, true, false];
        let s = f.build_with_health(0.1, 1.0, 0.0, 1.0, 1.0, &[0.0; 4], &live, &[0.0; 4]);
        assert_eq!(s.len(), f.dim());
        assert_eq!(s[5], 0.5, "half the population is live");
        assert_eq!(&s[10..14], &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(&s[14..], &[0.0; 4], "zero suspicion stays zero");
    }

    #[test]
    fn suspicion_features_are_appended_and_clamped() {
        let f = MigrationState::new(3);
        let s =
            f.build_with_health(0.2, 1.0, 0.0, 1.0, 1.0, &[0.0; 3], &[true; 3], &[0.25, 1.5, -0.5]);
        assert_eq!(s.len(), f.dim());
        assert_eq!(&s[12..], &[0.25, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "suspicion must have one entry per client")]
    fn wrong_suspicion_length_panics() {
        let f = MigrationState::new(2);
        let _ = f.build_with_health(0.0, 0.0, 0.0, 1.0, 1.0, &[0.0, 0.0], &[true, true], &[0.0]);
    }

    #[test]
    fn values_are_clamped() {
        let f = MigrationState::new(1);
        let s = f.build(2.0, 1e9, -5.0, 7.0, -3.0, &[0.5]);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[1], 2.0);
        assert_eq!(s[2], -1.0);
        assert_eq!(s[3], 1.0);
        assert_eq!(s[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "one entry per client")]
    fn wrong_row_length_panics() {
        let f = MigrationState::new(2);
        let _ = f.build(0.0, 0.0, 0.0, 1.0, 1.0, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "one entry per client")]
    fn wrong_liveness_length_panics() {
        let f = MigrationState::new(2);
        let _ = f.build_with_health(0.0, 0.0, 0.0, 1.0, 1.0, &[0.0, 0.0], &[true], &[0.0, 0.0]);
    }

    #[test]
    fn pooled_layout_is_fixed_dim() {
        let f = PooledMigrationState::new(4);
        assert_eq!(f.dim(), 18);
        assert_eq!(f.num_lans(), 4);
        let s = f.build(
            0.25,
            3.0,
            -0.2,
            0.9,
            0.7,
            0.5,
            &[0.0, 0.5, 1.0, 2.0],
            &[0.25, 0.25, 0.5, 0.0],
            &[0.1, 0.2, 0.3, 0.4],
        );
        assert_eq!(s.len(), 18);
        assert_eq!(s[0], 0.25);
        assert_eq!(s[1], 0.3);
        assert_eq!(s[5], 0.5);
        assert_eq!(&s[6..10], &[0.0, 0.5, 1.0, 1.0], "distances clamp to [0, 1]");
        assert_eq!(&s[10..14], &[0.25, 0.25, 0.5, 0.0]);
        assert_eq!(&s[14..], &[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "one entry per LAN")]
    fn pooled_wrong_row_length_panics() {
        let f = PooledMigrationState::new(2);
        let _ = f.build(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, &[0.0], &[0.5, 0.5], &[0.5, 0.5]);
    }
}
