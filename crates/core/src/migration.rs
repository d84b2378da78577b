//! Migration planning in one place: every planner the round calls (one
//! call per migration round, for a dense run or a fleet cohort), the FLMM
//! oracle, the steering sequence that blends the DDPG agent into a plan,
//! and the receiver-side quarantine. The greedy commit and the agent bonus
//! sit one crate down, in `fedmigr_fleet`, because its shortlist planner
//! commits through them.

use std::collections::VecDeque;

use fedmigr_fleet::{
    greedy_commit, plan_migrations, ClientPool, FleetPlannerConfig, LanProfile, AGENT_BONUS,
};
use fedmigr_net::{transfer_time, Topology};
use fedmigr_telemetry::profiler;
use fedmigr_tensor::{all_finite, l2_distance_slice};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::client::FlClient;
use crate::engine::AgentCtx;
use crate::fleet::Fleet;
use crate::scheme::{MigrationStrategy, Scheme};

/// Penalty weight on targeting *flaky* destinations: the FedMigr oracle
/// subtracts `LIVENESS_PENALTY x flakiness(j)` from every `(i, j)` score,
/// where `flakiness` is an exponential moving average of observed
/// per-client downtime. Zero-cost without fault injection (the EMA stays
/// identically zero).
const LIVENESS_PENALTY: f64 = 0.5;
/// Penalty weight on migrating *suspect* models: the FedMigr oracle
/// subtracts `SUSPICION_PENALTY x suspicion(i)` from every off-diagonal
/// `(i, j)` score, where `suspicion` is the migration quarantine's
/// per-source rejection EMA — a poisoned model is nudged to stay home
/// instead of contaminating a fresh client. Zero-cost without an adversary
/// (the quarantine is off and suspicion stays identically zero).
const SUSPICION_PENALTY: f64 = 0.5;

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

    /// A random cyclic shift *within* each LAN among the clients marked
    /// `true` in `active`: models never cross a LAN boundary (the Fig. 3
    /// "within-LAN" strategy). Dead or absent clients are fixed points and
    /// are never chosen as destinations; a LAN with one active client keeps
    /// its model.
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
    /// "cross-LAN" strategy): the clients marked `true` in `active` are
    /// matched greedily, in random order, to free active clients of a
    /// different LAN whenever one exists; the rest are fixed points.
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
    /// `active` (the RandMigr policy); everyone else keeps their model
    /// (partial participation).
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

    /// FedSwap's per-round action: swap the models of `pairs` random
    /// disjoint pairs among the clients marked `true` in `active`.
    pub fn swap_pairs(active: &[bool], pairs: usize, rng: &mut StdRng) -> Self {
        let k = active.len();
        let mut order: Vec<usize> = (0..k).filter(|&i| active[i]).collect();
        if order.len() < 2 {
            return Self::identity(k);
        }
        order.shuffle(rng);
        let mut dest: Vec<usize> = (0..k).collect();
        for pair in order.chunks(2).take(pairs.max(1)) {
            if let [a, b] = *pair {
                dest.swap(a, b);
            }
        }
        Self::new(dest)
    }

    /// The integer recovery step applied to the FLMM objective's scores:
    /// [`greedy_commit`] over every pair of clients marked `true` in
    /// `active`, with no floor, so every active source is matched whatever
    /// its scores (even −∞); the rest are fixed points.
    pub fn greedy_assignment_masked(scores: &[Vec<f64>], active: &[bool]) -> Self {
        let k = scores.len();
        assert_eq!(active.len(), k);
        let pairs: Vec<(f64, u32, u32)> = (0..k)
            .filter(|&i| active[i])
            .flat_map(|i| {
                (0..k).filter(|&j| active[j]).map(move |j| (scores[i][j], i as u32, j as u32))
            })
            .collect();
        Self::new(greedy_commit(k, pairs, None))
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

/// One dense migration round as its planner sees it, by client index.
pub(crate) struct DenseRound<'a> {
    pub scheme: &'a Scheme,
    pub topology: &'a Topology,
    pub epoch: usize,
    pub model_bytes: u64,
    /// Live clients that made the deadline: plans never touch the others.
    pub active: &'a [bool],
    /// Per-client DRL states, present exactly under FedMigr.
    pub states: Option<&'a [Vec<f32>]>,
    pub dmat: &'a [Vec<f64>],
    pub flaky: &'a [f64],
    pub suspicion: &'a [f64],
}

/// Plans one dense migration round with its scheme's planner.
pub(crate) fn plan_dense(
    round: &DenseRound,
    rng: &mut StdRng,
    agent: Option<&mut AgentCtx>,
) -> MigrationPlan {
    use MigrationStrategy::{CrossLan, Random, WithinLan};
    let (topology, active) = (round.topology, round.active);
    match (round.scheme, round.states, agent) {
        (Scheme::RandMigr | Scheme::Fixed(Random), ..) => {
            MigrationPlan::random_subset(active.len(), active, rng)
        }
        (Scheme::Fixed(WithinLan), ..) => MigrationPlan::within_lan_masked(topology, active, rng),
        (Scheme::Fixed(CrossLan), ..) => MigrationPlan::cross_lan_masked(topology, active, rng),
        (Scheme::FedMigr(_), Some(states), Some(agent)) => plan_flmm(round, states, agent),
        _ => unreachable!("scheme/state combination"),
    }
}

/// The dense FedMigr planner over the `K × K` oracle. Its benefit is the
/// distribution difference minus a flakiness penalty on the destination and
/// a suspicion penalty on migrating *sources* (both vanish with no observed
/// downtime and no quarantine rejections); its cost is the transfer time.
/// The oracle rows, plus the agent's bonus, are also the commit's scores.
fn plan_flmm(round: &DenseRound, states: &[Vec<f32>], agent: &mut AgentCtx) -> MigrationPlan {
    let oracle_frame = profiler::frame("plan_oracle");
    let (topology, epoch, bytes) = (round.topology, round.epoch, round.model_bytes);
    let oracle = flmm_oracle(
        round.active.len(),
        agent.fc.lambda,
        |i, j| {
            let keep_home = if i != j { SUSPICION_PENALTY * round.suspicion[i] } else { 0.0 };
            round.dmat[i][j] - LIVENESS_PENALTY * round.flaky[j] - keep_home
        },
        |i, j| topology.try_c2c_bandwidth(i, j, epoch).map_or(0.0, |bw| transfer_time(bytes, bw)),
    );
    drop(oracle_frame);
    steer(agent, epoch, states, oracle, std::convert::identity, |actions, mut scores| {
        for (row, &a) in scores.iter_mut().zip(actions) {
            row[a] += AGENT_BONUS;
        }
        MigrationPlan::greedy_assignment_masked(&scores, round.active)
    })
}

/// The fleet FedMigr planner over `fleet`'s `cohort`, whose `profile` this
/// round's states were built from: the agent picks destination *LANs*
/// against the `L × L` oracle over per-LAN aggregates (priced by expected
/// transfer time), and the shortlist planner commits them to a permutation
/// of cohort positions (priced by bandwidth against the slowest link
/// class).
pub(crate) fn plan_cohort(
    fleet: &Fleet,
    cohort: &[FlClient],
    profile: &CohortProfile,
    states: &[Vec<f32>],
    epoch: usize,
    model_bytes: u64,
    agent: &mut AgentCtx,
) -> MigrationPlan {
    let (topo, lambda) = (fleet.topo, agent.fc.lambda);
    let oracle_frame = profiler::frame("plan_oracle");
    let benefit = profile.lan.benefit_matrix();
    let c = topo.config();
    let cross_bw = (1.0 - c.slow_fraction) * c.cross_moderate_bandwidth
        + c.slow_fraction * c.cross_slow_bandwidth;
    let (intra, cross) = (model_bytes as f64 / c.lan_bandwidth, model_bytes as f64 / cross_bw);
    let lan_cost = |a: usize, b: usize| if a == b { intra } else { cross };
    let oracle = flmm_oracle(topo.num_lans(), lambda, |a, b| benefit[a][b], lan_cost);
    drop(oracle_frame);
    let pcfg = FleetPlannerConfig { top_m: fleet.top_m, lambda, seed: fleet.plan_seed };
    let price = |i: usize, j: usize| {
        let (gi, gj) = (cohort[i].id(), cohort[j].id());
        c.cross_slow_bandwidth / topo.c2c_bandwidth(gi, gj, epoch)
    };
    let lans = &profile.lans;
    let lan_of = |i: usize| lans[i] as usize;
    steer(agent, epoch, states, oracle, lan_of, |actions, _| {
        let desired: Vec<u32> = actions.iter().map(|&a| a as u32).collect();
        let marginals = cohort_marginals(fleet.pool, cohort);
        let epoch = epoch as u64;
        MigrationPlan { dest: plan_migrations(&pcfg, epoch, lans, &marginals, &desired, price) }
    })
}

/// A fleet cohort's LAN by position and its per-LAN aggregates: built once
/// a round by the pooled state builder and read again by [`plan_cohort`].
pub(crate) struct CohortProfile {
    pub lans: Vec<u32>,
    pub lan: LanProfile,
}

/// The cohort's label marginals, by cohort position.
pub(crate) fn cohort_marginals<'p>(pool: &'p ClientPool, cohort: &[FlClient]) -> Vec<&'p [f32]> {
    cohort.iter().map(|c| pool.stub(c.id()).marginal.as_slice()).collect()
}

/// The FLMM oracle (Sec. III-D) both FedMigr planners consult, over `n`
/// rows: the objective `benefit − λ·cost`, with `cost` divided by its
/// largest entry (when positive). The relaxed program separates by row and
/// its solve rounds each row to the objective's argmax (DESIGN.md §5 item 8), so
/// the objective rows are the oracle's advice.
fn flmm_oracle(
    n: usize,
    lambda: f64,
    benefit: impl Fn(usize, usize) -> f64,
    cost: impl Fn(usize, usize) -> f64,
) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = (0..n).map(|i| (0..n).map(|j| cost(i, j)).collect()).collect();
    let max = rows.iter().flatten().fold(0.0f64, |m, &c| m.max(c));
    let scale = if max > 0.0 { max } else { 1.0 };
    for (i, row) in rows.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = benefit(i, j) - lambda * (*v / scale);
        }
    }
    rows
}

/// The steering sequence both FedMigr planners run. `action_of(i)` is the
/// action that names client `i` as a destination (the client itself, or its
/// LAN), and its oracle row is the objective row for client `i`'s state.
/// During the oracle-imitation warmup the exploration rate is 1 (pure
/// oracle) and the actor clones the committed plan; afterwards the ρ-greedy
/// blend decides. `commit` gets the actions and the oracle rows, adds
/// [`AGENT_BONUS`] to the chosen actions and recovers a permutation; every
/// decision then waits for its reward.
fn steer(
    agent: &mut AgentCtx,
    epoch: usize,
    states: &[Vec<f32>],
    oracle: Vec<Vec<f64>>,
    action_of: impl Fn(usize) -> usize,
    commit: impl FnOnce(&[usize], Vec<Vec<f64>>) -> MigrationPlan,
) -> MigrationPlan {
    let warmup = epoch <= agent.warmup_epochs;
    agent.agent.set_rho(if warmup { 1.0 } else { agent.fc.rho });
    let select_frame = profiler::frame("plan_select");
    let actions: Vec<usize> = states
        .iter()
        .enumerate()
        .map(|(i, state)| agent.agent.select_action(state, Some(&oracle[action_of(i)])))
        .collect();
    drop(select_frame);
    let commit_frame = profiler::frame("plan_commit");
    let plan = commit(&actions, oracle);
    drop(commit_frame);
    let _imitate = profiler::frame("plan_imitate");
    for (i, state) in states.iter().enumerate() {
        let action = action_of(plan.dest(i));
        if warmup {
            agent.agent.imitate(state, action);
        }
        agent.pending.push((state.to_vec(), action, i));
    }
    plan
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
/// exactly as the oracle's liveness penalty steers them away from dead ones.
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
        self.escalate(src);
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

/// Median and median-absolute-deviation of a slice; `(0, 0)` when empty.
fn median_mad(xs: &[f64]) -> (f64, f64) {
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    (m, median(&devs))
}

/// Median of `xs` (upper median for even lengths); 0 when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
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
            let p = MigrationPlan::random_subset(7, &[true; 7], &mut rng);
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
            let p = MigrationPlan::within_lan_masked(&t, &[true; 10], &mut rng);
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
            let p = MigrationPlan::cross_lan_masked(&t, &[true; 10], &mut rng);
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
    fn greedy_assignment_maximizes_scores() {
        // 0 prefers 1, 1 prefers 0, 2 prefers 2: a clean assignment exists.
        let scores = vec![vec![0.0, 5.0, 1.0], vec![5.0, 0.0, 1.0], vec![1.0, 1.0, 3.0]];
        let p = MigrationPlan::greedy_assignment_masked(&scores, &[true; 3]);
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
    fn swap_pairs_swaps_disjoint_active_pairs() {
        let mut rng = StdRng::seed_from_u64(4);
        let active = [true, true, false, true, true, true, true];
        for pairs in 1..5 {
            let p = MigrationPlan::swap_pairs(&active, pairs, &mut rng);
            assert_eq!(p.dest(2), 2);
            for (i, j) in p.moves() {
                assert_eq!(p.dest(j), i, "{i}->{j} is not a swap");
            }
            assert_eq!(p.moves().count(), 2 * pairs.min(3));
        }
        assert_eq!(
            MigrationPlan::swap_pairs(&[true, false], 2, &mut rng),
            MigrationPlan::identity(2)
        );
    }

    #[test]
    fn oracle_divides_cost_by_its_largest_entry() {
        let oracle = flmm_oracle(2, 0.5, |i, j| (i + j) as f64, |i, j| 4.0 * (i * 2 + j) as f64);
        // Costs 0, 4, 8, 12 become 0, 1/3, 2/3, 1.
        assert_eq!(oracle, vec![vec![0.0, 1.0 - 0.5 / 3.0], vec![1.0 - 1.0 / 3.0, 2.0 - 0.5]]);
        // An all-zero cost is left as it is.
        assert_eq!(flmm_oracle(2, 0.5, |_, _| 1.0, |_, _| 0.0), vec![vec![1.0; 2]; 2]);
    }

    /// The relaxed solve rounded a 1-ulp lead at 1.5 into an exact tie,
    /// which the agent's oracle pick broke toward the lower index.
    #[test]
    fn a_one_ulp_lead_wins_the_oracle_pick() {
        use fedmigr_drl::{AgentConfig, DdpgAgent};
        let lead = f64::from_bits(1.5f64.to_bits() + 1);
        let oracle = flmm_oracle(2, 0.0, |_, j| if j == 1 { lead } else { 1.5 }, |_, _| 0.0);
        let mut cfg = AgentConfig::new(1, 2, 0);
        cfg.rho = 1.0;
        let mut agent = DdpgAgent::new(cfg);
        assert_eq!(agent.select_action(&[0.0], Some(&oracle[0])), 1);
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
        assert_eq!(q.rejected, 1);
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
        assert_eq!(q.rejected, 0);
        // A sign-flip-scale outlier (distance ~400) must be rejected.
        let outlier = vec![100.0f32; 16];
        assert!(!q.screen(3, &outlier, &resident));
        assert_eq!(q.rejected, 1);
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
        assert_eq!(q.rejected, 0);
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
        let rejected = q.rejected;
        q.escalate(1);
        assert!(q.suspicion()[1] > before);
        assert_eq!(q.rejected, rejected);
    }

    #[test]
    fn median_mad_of_known_values() {
        let (m, d) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(m, 3.0);
        assert_eq!(d, 1.0);
        assert_eq!(median_mad(&[]), (0.0, 0.0));
    }
}
