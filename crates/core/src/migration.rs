use std::collections::VecDeque;

use fedmigr_net::Topology;
use fedmigr_tensor::{all_finite, l2_distance_slice};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A one-round migration assignment: `dest[i] = j` means client `i`'s model
/// moves to client `j` this round. The assignment is always a permutation —
/// every client ends the round hosting exactly one model (possibly its own,
/// when `dest[i] == i`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationPlan {
    dest: Vec<usize>,
}

impl MigrationPlan {
    /// Wraps a destination vector.
    ///
    /// # Panics
    /// Panics if `dest` is not a permutation of `0..dest.len()`.
    pub fn new(dest: Vec<usize>) -> Self {
        let mut seen = vec![false; dest.len()];
        for &j in &dest {
            assert!(j < dest.len() && !seen[j], "destinations must form a permutation");
            seen[j] = true;
        }
        Self { dest }
    }

    /// The identity plan (no model moves).
    pub fn identity(k: usize) -> Self {
        Self { dest: (0..k).collect() }
    }

    /// A uniformly random permutation (the RandMigr policy).
    pub fn random(k: usize, rng: &mut StdRng) -> Self {
        let mut dest: Vec<usize> = (0..k).collect();
        dest.shuffle(rng);
        Self { dest }
    }

    /// A random cyclic shift *within* each LAN: models never cross a LAN
    /// boundary (the Fig. 3 "within-LAN" strategy). Single-client LANs keep
    /// their model.
    pub fn within_lan(topo: &Topology, rng: &mut StdRng) -> Self {
        Self::within_lan_masked(topo, &vec![true; topo.num_clients()], rng)
    }

    /// Like [`MigrationPlan::within_lan`], but only the clients marked
    /// `true` in `active` take part in the rotation; dead or absent clients
    /// are fixed points and are never chosen as destinations.
    pub fn within_lan_masked(topo: &Topology, active: &[bool], rng: &mut StdRng) -> Self {
        let k = topo.num_clients();
        assert_eq!(active.len(), k);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in (0..k).filter(|&i| active[i]) {
            let lan = topo.lan_of(i);
            if groups.len() <= lan {
                groups.resize(lan + 1, Vec::new());
            }
            groups[lan].push(i);
        }
        let mut dest: Vec<usize> = (0..k).collect();
        for group in groups.iter().filter(|g| g.len() > 1) {
            // Random rotation of the group: a derangement within the LAN.
            let shift = rng.random_range(1..group.len());
            for (pos, &i) in group.iter().enumerate() {
                dest[i] = group[(pos + shift) % group.len()];
            }
        }
        Self { dest }
    }

    /// A permutation preferring *cross-LAN* destinations (the Fig. 3
    /// "cross-LAN" strategy): clients are matched greedily, in random
    /// order, to free clients of a different LAN whenever one exists.
    pub fn cross_lan(topo: &Topology, rng: &mut StdRng) -> Self {
        Self::cross_lan_masked(topo, &vec![true; topo.num_clients()], rng)
    }

    /// Like [`MigrationPlan::cross_lan`], but matching happens only among
    /// the clients marked `true` in `active`; the rest are fixed points.
    pub fn cross_lan_masked(topo: &Topology, active: &[bool], rng: &mut StdRng) -> Self {
        let k = topo.num_clients();
        assert_eq!(active.len(), k);
        let mut order: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        order.shuffle(rng);
        let mut free = active.to_vec();
        let mut dest: Vec<usize> = (0..k).collect();
        for &i in &order {
            let mut candidates: Vec<usize> =
                (0..k).filter(|&j| free[j] && !topo.same_lan(i, j)).collect();
            if candidates.is_empty() {
                candidates = (0..k).filter(|&j| free[j]).collect();
            }
            let j = candidates[rng.random_range(0..candidates.len())];
            dest[i] = j;
            free[j] = false;
        }
        Self::new(dest)
    }

    /// A uniformly random permutation over the clients marked `true` in
    /// `active`; everyone else keeps their model (partial participation).
    pub fn random_subset(k: usize, active: &[bool], rng: &mut StdRng) -> Self {
        assert_eq!(active.len(), k);
        let members: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        let mut shuffled = members.clone();
        shuffled.shuffle(rng);
        let mut dest: Vec<usize> = (0..k).collect();
        for (&from, &to) in members.iter().zip(&shuffled) {
            dest[from] = to;
        }
        Self::new(dest)
    }

    /// Like [`MigrationPlan::greedy_assignment`], but only the clients
    /// marked `true` in `active` exchange models; the rest are fixed points.
    pub fn greedy_assignment_masked(scores: &[Vec<f64>], active: &[bool]) -> Self {
        let k = scores.len();
        assert_eq!(active.len(), k);
        let mut pairs: Vec<(usize, usize)> = (0..k)
            .filter(|&i| active[i])
            .flat_map(|i| (0..k).filter(|&j| active[j]).map(move |j| (i, j)))
            .collect();
        pairs.sort_by(|&(ai, aj), &(bi, bj)| scores[bi][bj].total_cmp(&scores[ai][aj]));
        let mut dest: Vec<usize> = (0..k).collect();
        let mut assigned = vec![false; k];
        let mut taken = vec![false; k];
        for (i, j) in pairs {
            if !assigned[i] && !taken[j] {
                dest[i] = j;
                assigned[i] = true;
                taken[j] = true;
            }
        }
        // Any active client left unassigned (possible only when its
        // candidates were all taken) keeps its model if free, else takes
        // the first free active host.
        for i in (0..k).filter(|&i| active[i] && !assigned[i]) {
            let j = if !taken[i] {
                i
            } else {
                (0..k)
                    .find(|&j| active[j] && !taken[j])
                    .expect("active sources and hosts are in bijection")
            };
            dest[i] = j;
            taken[j] = true;
        }
        Self::new(dest)
    }

    /// Builds a permutation by globally greedy matching on a score matrix:
    /// repeatedly commits the highest-scoring `(source, destination)` pair
    /// among unassigned sources and free destinations. This is the integer
    /// recovery step applied to the relaxed-FLMM solution — it preserves
    /// far more of the relaxation's value than independent per-row argmax
    /// followed by conflict fallback.
    pub fn greedy_assignment(scores: &[Vec<f64>]) -> Self {
        let k = scores.len();
        let mut pairs: Vec<(usize, usize)> =
            (0..k).flat_map(|i| (0..k).map(move |j| (i, j))).collect();
        pairs.sort_by(|&(ai, aj), &(bi, bj)| scores[bi][bj].total_cmp(&scores[ai][aj]));
        let mut dest = vec![usize::MAX; k];
        let mut taken = vec![false; k];
        let mut assigned = 0usize;
        for (i, j) in pairs {
            if dest[i] == usize::MAX && !taken[j] {
                dest[i] = j;
                taken[j] = true;
                assigned += 1;
                if assigned == k {
                    break;
                }
            }
        }
        Self::new(dest)
    }

    /// Destination of client `i`'s model.
    pub fn dest(&self, i: usize) -> usize {
        self.dest[i]
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.dest.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.dest.is_empty()
    }

    /// Iterates over the actual moves `(source, destination)`, skipping
    /// fixed points.
    pub fn moves(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.dest.iter().enumerate().filter(|&(i, &j)| i != j).map(|(i, &j)| (i, j))
    }

    /// Applies the plan to a vector of per-client model parameters:
    /// `out[j] = params[i]` for `dest[i] = j`.
    pub fn apply<T: Clone>(&self, params: &[T]) -> Vec<T> {
        assert_eq!(params.len(), self.dest.len());
        let mut out: Vec<Option<T>> = vec![None; params.len()];
        for (i, &j) in self.dest.iter().enumerate() {
            out[j] = Some(params[i].clone());
        }
        out.into_iter().map(|x| x.expect("permutation covers all hosts")).collect()
    }
}

/// Tunables of the migration [`Quarantine`].
#[derive(Clone, Copy, Debug)]
pub struct QuarantineConfig {
    /// Accepted-migration distances kept in the rolling window.
    pub window: usize,
    /// The norm-anomaly rule arms only after this many accepted
    /// migrations; before that only the finite-ness screen applies (early
    /// training produces wildly varying distances).
    pub min_history: usize,
    /// A migration is rejected when its distance to the resident model
    /// exceeds `median + mad_multiplier * MAD` of the window.
    pub mad_multiplier: f64,
    /// EMA weight of a rejection on the source's suspicion score:
    /// `s <- (1 - gain) * s + gain`.
    pub suspicion_gain: f64,
    /// Per-epoch multiplicative decay of suspicion scores, so a peer that
    /// stops misbehaving (or was wrongly accused once) is rehabilitated.
    pub suspicion_decay: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        Self {
            window: 64,
            min_history: 8,
            mad_multiplier: 6.0,
            suspicion_gain: 0.5,
            suspicion_decay: 0.98,
        }
    }
}

/// Receiver-side screening of migrated models.
///
/// Before a client adopts a model that arrived over C2C migration, the
/// model is screened: (1) every coordinate must be finite — a NaN model is
/// rejected outright; (2) once enough history exists, the L2 distance
/// between the incoming model and the receiver's resident model must not be
/// anomalously large relative to the running median/MAD of recently
/// *accepted* migration distances. A rejected model is simply not adopted
/// (the receiver keeps its own), the event is counted, and the source's
/// *suspicion* score rises — a `[0, 1]` EMA that the FedMigr oracle and the
/// DDPG state consume to steer migrations away from poisoned sources,
/// exactly as `liveness_penalty` steers them away from dead ones.
#[derive(Clone, Debug)]
pub struct Quarantine {
    config: QuarantineConfig,
    pub(crate) norms: VecDeque<f64>,
    pub(crate) suspicion: Vec<f64>,
    pub(crate) rejected: usize,
}

impl Quarantine {
    /// Creates a quarantine for `num_clients` clients.
    ///
    /// # Panics
    /// Panics on degenerate configuration (empty window, out-of-range gain
    /// or decay).
    pub fn new(config: QuarantineConfig, num_clients: usize) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(config.mad_multiplier > 0.0, "mad_multiplier must be positive");
        assert!((0.0..=1.0).contains(&config.suspicion_gain), "suspicion_gain must be in [0,1]");
        assert!((0.0..=1.0).contains(&config.suspicion_decay), "suspicion_decay must be in [0,1]");
        Self { config, norms: VecDeque::new(), suspicion: vec![0.0; num_clients], rejected: 0 }
    }

    /// Screens a model migrated from `src` against the receiver's
    /// `resident` parameters. Returns `true` when the model may be adopted;
    /// `false` means reject (count it, keep the resident model, raise
    /// suspicion on `src`).
    pub fn screen(&mut self, src: usize, incoming: &[f32], resident: &[f32]) -> bool {
        if !all_finite(incoming) {
            self.reject(src);
            return false;
        }
        let dist = l2_distance_slice(incoming, resident);
        if self.norms.len() >= self.config.min_history {
            let (median, mad) = median_mad(self.norms.make_contiguous());
            // Floor the MAD so a freakishly tight window (e.g. IID clients
            // in lockstep) doesn't reject ordinary variation.
            let spread = mad.max(0.1 * median).max(1e-8);
            if dist > median + self.config.mad_multiplier * spread {
                self.reject(src);
                return false;
            }
        }
        if self.norms.len() == self.config.window {
            self.norms.pop_front();
        }
        self.norms.push_back(dist);
        true
    }

    fn reject(&mut self, src: usize) {
        self.rejected += 1;
        let g = self.config.suspicion_gain;
        if let Some(s) = self.suspicion.get_mut(src) {
            *s = (1.0 - g) * *s + g;
        }
    }

    /// Decays every suspicion score; call once per epoch.
    pub fn end_epoch(&mut self) {
        for s in &mut self.suspicion {
            *s *= self.config.suspicion_decay;
        }
    }

    /// Per-client suspicion scores in `[0, 1]`.
    pub fn suspicion(&self) -> &[f64] {
        &self.suspicion
    }

    /// Total migrations rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Raises suspicion on `src` without counting a screening rejection —
    /// the rollback watchdog's escalation path when a client is implicated
    /// in a divergence (its uploads went non-finite since the last good
    /// checkpoint).
    pub fn escalate(&mut self, src: usize) {
        let g = self.config.suspicion_gain;
        if let Some(s) = self.suspicion.get_mut(src) {
            *s = (1.0 - g) * *s + g;
        }
    }
}

/// Median and median-absolute-deviation of a slice (which it sorts a copy
/// of). Returns `(0, 0)` for an empty slice.
fn median_mad(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut devs: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    devs.sort_by(f64::total_cmp);
    (median, devs[devs.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_net::TopologyConfig;
    use rand::SeedableRng;

    fn topo() -> Topology {
        Topology::new(&TopologyConfig::c10_sim(1))
    }

    #[test]
    fn identity_moves_nothing() {
        let p = MigrationPlan::identity(5);
        assert_eq!(p.moves().count(), 0);
        let data = vec![1, 2, 3, 4, 5];
        assert_eq!(p.apply(&data), data);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_non_permutation() {
        let _ = MigrationPlan::new(vec![0, 0, 1]);
    }

    #[test]
    fn random_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let p = MigrationPlan::random(7, &mut rng);
            let mut seen = [false; 7];
            for i in 0..7 {
                seen[p.dest(i)] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn within_lan_never_crosses() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = MigrationPlan::within_lan(&t, &mut rng);
            for (i, j) in p.moves() {
                assert!(t.same_lan(i, j), "move {i}->{j} crossed a LAN");
            }
            // LANs have >= 3 clients, so every model moves.
            assert_eq!(p.moves().count(), 10);
        }
    }

    #[test]
    fn cross_lan_mostly_crosses() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        let mut crossing = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let p = MigrationPlan::cross_lan(&t, &mut rng);
            for (i, j) in p.moves() {
                total += 1;
                if !t.same_lan(i, j) {
                    crossing += 1;
                }
            }
        }
        assert!(crossing as f64 / total as f64 > 0.8, "only {crossing}/{total} moves crossed LANs");
    }

    #[test]
    fn random_subset_fixes_inactive_clients() {
        let mut rng = StdRng::seed_from_u64(5);
        let active = [true, false, true, false, true];
        for _ in 0..10 {
            let p = MigrationPlan::random_subset(5, &active, &mut rng);
            assert_eq!(p.dest(1), 1);
            assert_eq!(p.dest(3), 3);
            // Active destinations stay within the active set.
            for (i, j) in p.moves() {
                assert!(active[i] && active[j]);
            }
        }
    }

    #[test]
    fn within_lan_masked_skips_dead_clients() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(11);
        let mut active = vec![true; 10];
        active[1] = false;
        active[5] = false;
        for _ in 0..10 {
            let p = MigrationPlan::within_lan_masked(&t, &active, &mut rng);
            assert_eq!(p.dest(1), 1);
            assert_eq!(p.dest(5), 5);
            for (i, j) in p.moves() {
                assert!(active[i] && active[j], "move {i}->{j} touches a dead client");
                assert!(t.same_lan(i, j));
            }
        }
    }

    #[test]
    fn cross_lan_masked_skips_dead_clients() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(13);
        let mut active = vec![true; 10];
        active[0] = false;
        active[8] = false;
        for _ in 0..10 {
            let p = MigrationPlan::cross_lan_masked(&t, &active, &mut rng);
            assert_eq!(p.dest(0), 0);
            assert_eq!(p.dest(8), 8);
            for (i, j) in p.moves() {
                assert!(active[i] && active[j], "move {i}->{j} touches a dead client");
            }
        }
    }

    #[test]
    fn masked_variants_with_full_mask_match_unmasked() {
        let t = topo();
        let all = vec![true; 10];
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..5 {
            assert_eq!(
                MigrationPlan::within_lan(&t, &mut a),
                MigrationPlan::within_lan_masked(&t, &all, &mut b)
            );
            assert_eq!(
                MigrationPlan::cross_lan(&t, &mut a),
                MigrationPlan::cross_lan_masked(&t, &all, &mut b)
            );
        }
    }

    #[test]
    fn greedy_assignment_maximizes_scores() {
        // 0 prefers 1, 1 prefers 0, 2 prefers 2: a clean assignment exists.
        let scores = vec![vec![0.0, 5.0, 1.0], vec![5.0, 0.0, 1.0], vec![1.0, 1.0, 3.0]];
        let p = MigrationPlan::greedy_assignment(&scores);
        assert_eq!(p.dest(0), 1);
        assert_eq!(p.dest(1), 0);
        assert_eq!(p.dest(2), 2);
    }

    #[test]
    fn greedy_assignment_masked_respects_mask() {
        let scores = vec![vec![0.0, 9.0, 9.0], vec![9.0, 0.0, 9.0], vec![9.0, 9.0, 0.0]];
        let active = [true, false, true];
        let p = MigrationPlan::greedy_assignment_masked(&scores, &active);
        assert_eq!(p.dest(1), 1, "inactive client must keep its model");
        // Actives swap (their mutual score 9 beats staying at 0).
        assert_eq!(p.dest(0), 2);
        assert_eq!(p.dest(2), 0);
    }

    #[test]
    fn apply_routes_models() {
        let p = MigrationPlan::new(vec![1, 2, 0]);
        let models = vec!["a", "b", "c"];
        // dest: a->1, b->2, c->0.
        assert_eq!(p.apply(&models), vec!["c", "a", "b"]);
    }

    #[test]
    fn quarantine_rejects_non_finite_models_immediately() {
        let mut q = Quarantine::new(QuarantineConfig::default(), 4);
        let resident = vec![0.0f32; 8];
        let mut poisoned = vec![0.1f32; 8];
        poisoned[3] = f32::NAN;
        assert!(!q.screen(2, &poisoned, &resident));
        assert_eq!(q.rejected(), 1);
        assert!(q.suspicion()[2] > 0.0, "rejection must raise suspicion");
        assert_eq!(q.suspicion()[0], 0.0);
    }

    #[test]
    fn quarantine_accepts_benign_stream_and_rejects_outlier() {
        let mut q = Quarantine::new(QuarantineConfig::default(), 4);
        let resident = vec![0.0f32; 16];
        // Benign migrations land at distance ~1 from the resident model.
        for i in 0..20 {
            let mut m = vec![0.0f32; 16];
            m[i % 16] = 1.0 + 0.01 * (i % 5) as f32;
            assert!(q.screen(i % 3, &m, &resident), "benign migration {i} rejected");
        }
        assert_eq!(q.rejected(), 0);
        // A sign-flip-scale outlier (distance ~400) must be rejected.
        let outlier = vec![100.0f32; 16];
        assert!(!q.screen(3, &outlier, &resident));
        assert_eq!(q.rejected(), 1);
        assert!(q.suspicion()[3] > 0.4);
    }

    #[test]
    fn quarantine_is_permissive_before_history_builds() {
        let mut q = Quarantine::new(QuarantineConfig::default(), 2);
        let resident = vec![0.0f32; 4];
        // First (finite) migration is huge, but there's no history yet:
        // only the finite-ness screen applies.
        let big = vec![1000.0f32; 4];
        assert!(q.screen(0, &big, &resident));
        assert_eq!(q.rejected(), 0);
    }

    #[test]
    fn suspicion_decays_over_epochs() {
        let mut q = Quarantine::new(QuarantineConfig::default(), 2);
        let resident = vec![0.0f32; 4];
        let nan = vec![f32::NAN; 4];
        assert!(!q.screen(1, &nan, &resident));
        let before = q.suspicion()[1];
        for _ in 0..50 {
            q.end_epoch();
        }
        let after = q.suspicion()[1];
        assert!(after < before * 0.5, "suspicion {before} should decay, got {after}");
    }

    #[test]
    fn escalation_raises_suspicion_without_counting_a_rejection() {
        let mut q = Quarantine::new(QuarantineConfig::default(), 3);
        assert!(!q.screen(2, &[f32::NAN; 4], &[0.0f32; 4]));
        let before = q.suspicion()[1];
        let rejected = q.rejected();
        q.escalate(1);
        assert!(q.suspicion()[1] > before);
        assert_eq!(q.rejected(), rejected);
    }

    #[test]
    fn median_mad_of_known_values() {
        let (m, d) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(m, 3.0);
        assert_eq!(d, 1.0);
        assert_eq!(median_mad(&[]), (0.0, 0.0));
    }
}
