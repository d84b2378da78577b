use std::io;

use fedmigr_nn::params::{grad_vector, param_vector, set_param_vector};
use fedmigr_nn::{zoo, Layer, Model, Sgd};
use fedmigr_telemetry::wire::{bad, Codec, Wire};
use fedmigr_tensor::{argmax_slice, softmax_rows, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay::{PrioritizedReplay, Transition};

/// Hyper-parameters of the EMPG agent (Alg. 1).
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// State-vector dimensionality (see [`crate::MigrationState`]).
    pub state_dim: usize,
    /// Number of destination clients `K` (the reduced action space).
    pub num_actions: usize,
    /// Hidden width of the actor and critic MLPs.
    pub hidden: usize,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Soft target-update coefficient τ (θ' ← τθ + (1-τ)θ').
    pub tau: f32,
    /// ρ-greedy exploration probability: with probability ρ the action
    /// comes from the FLMM oracle instead of the policy network.
    pub rho: f64,
    /// Std of Gaussian noise added to actor logits during exploration.
    pub noise_std: f32,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Mini-batch size for updates.
    pub batch_size: usize,
    /// Prioritization exponent ξ (Eq. 26).
    pub xi: f64,
    /// Importance-sampling exponent (Eq. 29).
    pub beta: f64,
    /// Mixing weight ε between |TD| and |∇_a Q| in the priority (Eq. 25).
    pub priority_mix: f64,
    /// Minimum buffered transitions before learning starts.
    pub warmup: usize,
    /// RNG seed (network init, exploration, replay sampling).
    pub seed: u64,
}

impl AgentConfig {
    /// Sensible defaults for `K` destinations and the standard featurizer.
    pub fn new(state_dim: usize, num_actions: usize, seed: u64) -> Self {
        Self {
            state_dim,
            num_actions,
            hidden: 64,
            actor_lr: 1e-2,
            critic_lr: 1e-2,
            gamma: 0.95,
            tau: 0.05,
            rho: 0.2,
            noise_std: 0.3,
            replay_capacity: 4096,
            batch_size: 32,
            xi: 0.6,
            beta: 0.4,
            priority_mix: 0.7,
            warmup: 64,
            seed,
        }
    }
}

/// Learning-dynamics snapshot of one [`DdpgAgent::update`] step, kept for
/// introspection (the agent exposes the latest via
/// [`DdpgAgent::last_update_stats`]). All quantities are mini-batch
/// statistics of the step that produced them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateStats {
    /// Mean critic estimate `Q(s, a)` over the batch.
    pub mean_q: f64,
    /// Mean absolute TD error `|Q(s, a) - h|`.
    pub mean_abs_td: f64,
    /// Largest absolute TD error in the batch.
    pub max_abs_td: f64,
    /// L2 norm of the critic's parameter gradient for this step.
    pub critic_grad_norm: f64,
    /// L2 norm of the actor's parameter gradient for this step.
    pub actor_grad_norm: f64,
}

fedmigr_telemetry::wire_fields!(UpdateStats:
    mean_q, mean_abs_td, max_abs_td, critic_grad_norm, actor_grad_norm
);

/// Shannon entropy (nats) and saturation (largest probability) of a policy
/// distribution such as [`DdpgAgent::action_probs`]. Entropy near 0 with
/// saturation near 1 means the policy has collapsed onto one destination;
/// entropy near `ln K` means it is still effectively uniform.
pub fn policy_entropy_saturation(probs: &[f32]) -> (f64, f64) {
    let mut entropy = 0.0f64;
    let mut saturation = 0.0f64;
    for &p in probs {
        let p = p as f64;
        if p > 0.0 {
            entropy -= p * p.ln();
        }
        saturation = saturation.max(p);
    }
    (entropy, saturation)
}

/// DDPG agent for migration-policy generation.
///
/// The actor maps a state to a softmax distribution over destination
/// clients; the executed action is the argmax (continuous relaxation of the
/// discrete action space). The critic scores `(state, action-vector)` pairs
/// and is trained on the prioritized replay buffer; the actor ascends
/// `∇_θ Q(s, π(s))` via the chain rule through the softmax (Eq. 20).
pub struct DdpgAgent {
    config: AgentConfig,
    actor: Model,
    critic: Model,
    actor_target: Model,
    critic_target: Model,
    actor_opt: Sgd,
    critic_opt: Sgd,
    replay: PrioritizedReplay,
    rng: StdRng,
    updates: u64,
    last_stats: Option<UpdateStats>,
}

impl DdpgAgent {
    /// Builds an agent from `config`.
    pub fn new(config: AgentConfig) -> Self {
        assert!(config.num_actions > 0 && config.state_dim > 0);
        assert!((0.0..=1.0).contains(&config.rho));
        let actor = zoo::mlp(
            config.state_dim,
            &[config.hidden, config.hidden],
            config.num_actions,
            config.seed,
        );
        let critic = zoo::mlp(
            config.state_dim + config.num_actions,
            &[config.hidden, config.hidden],
            1,
            config.seed.wrapping_add(1000),
        );
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        Self {
            actor_opt: Sgd::new(config.actor_lr),
            critic_opt: Sgd::new(config.critic_lr),
            replay: PrioritizedReplay::new(config.replay_capacity, config.xi, config.beta),
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(7)),
            actor,
            critic,
            actor_target,
            critic_target,
            config,
            updates: 0,
            last_stats: None,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Health summary of the prioritized replay buffer.
    pub fn replay_health(&self) -> crate::replay::ReplayHealth {
        self.replay.health()
    }

    /// Learning-dynamics statistics of the most recent [`DdpgAgent::update`]
    /// that actually trained (`None` until warmup completes).
    pub fn last_update_stats(&self) -> Option<UpdateStats> {
        self.last_stats
    }

    /// Adjusts the ρ-greedy exploration probability at runtime (used to
    /// anneal from pure-oracle warmup towards the configured mix).
    pub fn set_rho(&mut self, rho: f64) {
        assert!((0.0..=1.0).contains(&rho));
        self.config.rho = rho;
    }

    /// The actor's softmax policy π(s|θ) over destinations.
    pub fn action_probs(&mut self, state: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(vec![1, self.config.state_dim], state.to_vec());
        let logits = self.actor.forward(&x, false);
        softmax_rows(&logits).into_data()
    }

    /// ρ-greedy action selection: with probability ρ, delegate to the
    /// exploration oracle's scores (this client's row of the FLMM objective
    /// `benefit − λ·cost`), taking their first maximum; otherwise use the
    /// policy network with logit noise.
    pub fn select_action(&mut self, state: &[f32], oracle_scores: Option<&[f64]>) -> usize {
        if let Some(scores) = oracle_scores {
            if self.rng.random::<f64>() < self.config.rho {
                assert_eq!(scores.len(), self.config.num_actions);
                let mut best = 0;
                for (j, &v) in scores.iter().enumerate() {
                    if v > scores[best] {
                        best = j;
                    }
                }
                return best;
            }
        }
        let x = Tensor::from_vec(vec![1, self.config.state_dim], state.to_vec());
        let mut logits = self.actor.forward(&x, false);
        if self.config.noise_std > 0.0 {
            let noise = Tensor::randn(logits.shape(), self.config.noise_std, &mut self.rng);
            logits.add_assign(&noise);
        }
        argmax_slice(logits.data())
    }

    /// Supervised (behavior-cloning) update of the actor towards choosing
    /// `action` in `state` — used while pre-training on the exploration
    /// oracle's decisions, before RL fine-tuning takes over. One
    /// cross-entropy gradient step on the actor.
    pub fn imitate(&mut self, state: &[f32], action: usize) {
        assert!(action < self.config.num_actions);
        let x = Tensor::from_vec(vec![1, self.config.state_dim], state.to_vec());
        let logits = self.actor.forward(&x, true);
        let mut grad = softmax_rows(&logits);
        grad.data_mut()[action] -= 1.0;
        self.actor.net_mut().zero_grad();
        self.actor.net_mut().backward_params_only(grad);
        self.actor_opt.step(self.actor.net_mut());
    }

    /// Stores an experienced transition.
    pub fn observe(&mut self, t: Transition) {
        assert_eq!(t.state.len(), self.config.state_dim);
        assert!(t.action < self.config.num_actions);
        self.replay.push(t);
        fedmigr_telemetry::metrics::set("fedmigr_replay_occupancy", &[], self.replay.len() as f64);
    }

    /// Runs one learning update (critic regression to the TD target, actor
    /// policy-gradient ascent, priority refresh, target soft update).
    /// Returns the mean absolute TD error, or `None` while warming up.
    pub fn update(&mut self) -> Option<f32> {
        if self.replay.len() < self.config.warmup.max(self.config.batch_size) {
            return None;
        }
        let _span = fedmigr_telemetry::span!("drl::agent", "update");
        fedmigr_telemetry::metrics::add("fedmigr_drl_updates_total", &[], 1);
        let b = self.config.batch_size;
        let s_dim = self.config.state_dim;
        let k = self.config.num_actions;
        let samples = self.replay.sample(b, &mut self.rng);
        let mut idxs = Vec::with_capacity(b);
        let mut states = Vec::with_capacity(b * s_dim);
        let mut next_states = Vec::with_capacity(b * s_dim);
        let mut actions = vec![0.0f32; b * k];
        let mut rewards = Vec::with_capacity(b);
        let mut dones = Vec::with_capacity(b);
        let mut weights = Vec::with_capacity(b);
        for (row, (idx, t, w)) in samples.into_iter().enumerate() {
            idxs.push(idx);
            states.extend_from_slice(&t.state);
            next_states.extend_from_slice(&t.next_state);
            actions[row * k + t.action] = 1.0;
            rewards.push(t.reward);
            dones.push(t.done);
            weights.push(w as f32);
        }
        let states = Tensor::from_vec(vec![b, s_dim], states);
        let next_states = Tensor::from_vec(vec![b, s_dim], next_states);
        let actions = Tensor::from_vec(vec![b, k], actions);

        // TD target h = r + γ Q'(s', π'(s')) (Eq. 21).
        let next_probs = softmax_rows(&self.actor_target.forward(&next_states, false));
        let next_q = self.critic_target.forward(&concat_cols(&next_states, &next_probs), false);
        let mut targets = Vec::with_capacity(b);
        for i in 0..b {
            let bootstrap = if dones[i] { 0.0 } else { self.config.gamma * next_q.data()[i] };
            targets.push(rewards[i] + bootstrap);
        }

        // Critic update: weighted squared TD error (Eqs. 22/23/27).
        let critic_in = concat_cols(&states, &actions);
        let q = self.critic.forward(&critic_in, true);
        let mut td = Vec::with_capacity(b);
        let mut grad_q = Vec::with_capacity(b);
        for i in 0..b {
            let e = q.data()[i] - targets[i];
            td.push(e);
            grad_q.push(2.0 * weights[i] * e / b as f32);
        }
        self.critic.net_mut().zero_grad();
        self.critic.net_mut().backward_params_only(Tensor::from_vec(vec![b, 1], grad_q));
        let critic_grad_norm = l2_norm(&grad_vector(self.critic.net_mut()));
        self.critic_opt.step(self.critic.net_mut());

        // Actor update: ascend ∇_θ Q(s, π(s)) (Eqs. 20/24/28).
        let logits = self.actor.forward(&states, true);
        let probs = softmax_rows(&logits);
        let actor_critic_in = concat_cols(&states, &probs);
        // Training mode: the backward pass below needs the layer caches.
        let _q_pi = self.critic.forward(&actor_critic_in, true);
        self.critic.net_mut().zero_grad();
        let grad_in = self.critic.net_mut().backward(&Tensor::full(&[b, 1], -1.0 / b as f32));
        // Slice out ∂(−Q)/∂a and chain through the softmax.
        let mut grad_action = vec![0.0f32; b * k];
        let mut grad_action_norms = vec![0.0f32; b];
        for i in 0..b {
            let row = &grad_in.data()[i * (s_dim + k) + s_dim..(i + 1) * (s_dim + k)];
            grad_action[i * k..(i + 1) * k].copy_from_slice(row);
            grad_action_norms[i] = row.iter().map(|x| x * x).sum::<f32>().sqrt() * b as f32;
        }
        let grad_logits = softmax_backward(&probs, &grad_action, b, k);
        self.actor.net_mut().zero_grad();
        self.actor.net_mut().backward_params_only(Tensor::from_vec(vec![b, k], grad_logits));
        let actor_grad_norm = l2_norm(&grad_vector(self.actor.net_mut()));
        self.actor_opt.step(self.actor.net_mut());
        // Drop the gradients the actor pass left in the critic.
        self.critic.net_mut().zero_grad();

        // Priority refresh: p_z = ε|φ_z| + (1-ε)|∇_a Q| (Eq. 25).
        let eps = self.config.priority_mix;
        for (row, &idx) in idxs.iter().enumerate() {
            let p = eps * td[row].abs() as f64 + (1.0 - eps) * grad_action_norms[row] as f64;
            self.replay.update_priority(idx, p);
        }

        self.soft_update_targets();
        self.updates += 1;
        let mean_abs_td = td.iter().map(|e| e.abs()).sum::<f32>() / b as f32;
        self.last_stats = Some(UpdateStats {
            mean_q: q.data().iter().map(|&v| v as f64).sum::<f64>() / b as f64,
            mean_abs_td: mean_abs_td as f64,
            max_abs_td: td.iter().map(|e| e.abs() as f64).fold(0.0, f64::max),
            critic_grad_norm,
            actor_grad_norm,
        });
        Some(mean_abs_td)
    }

    fn soft_update_targets(&mut self) {
        let tau = self.config.tau;
        for (net, target) in
            [(&mut self.actor, &mut self.actor_target), (&mut self.critic, &mut self.critic_target)]
        {
            let src = param_vector(net.net_mut());
            let mut dst = param_vector(target.net_mut());
            for (d, s) in dst.iter_mut().zip(&src) {
                *d = tau * s + (1.0 - tau) * *d;
            }
            set_param_vector(target.net_mut(), &dst);
        }
    }
}

fn l2_norm(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

/// Concatenates two 2-D tensors along columns.
fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows(), b.rows());
    let (r, ca, cb) = (a.rows(), a.cols(), b.cols());
    let mut out = Vec::with_capacity(r * (ca + cb));
    for i in 0..r {
        out.extend_from_slice(a.row(i));
        out.extend_from_slice(b.row(i));
    }
    Tensor::from_vec(vec![r, ca + cb], out)
}

/// Jacobian-vector product of the row-wise softmax:
/// `g_logits = p ⊙ (g - <g, p>)` per row.
fn softmax_backward(probs: &Tensor, grad: &[f32], b: usize, k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * k];
    for i in 0..b {
        let p = probs.row(i);
        let g = &grad[i * k..(i + 1) * k];
        let dot: f32 = p.iter().zip(g).map(|(x, y)| x * y).sum();
        for j in 0..k {
            out[i * k + j] = p[j] * (g[j] - dot);
        }
    }
    out
}

/// The complete agent, in wire order: all four networks, the replay
/// buffer, the exact RNG stream position, a reserved byte, the annealed ρ,
/// and the learning bookkeeping. An agent built from the same
/// [`AgentConfig`] and restored from this resumes training bit-for-bit; one
/// built with other network sizes is a mismatch.
///
/// The reserved byte is where `RUN_STATE_VERSION` 3 records whether an
/// Ornstein-Uhlenbeck noise process follows. Exploration is always
/// Gaussian now, so the byte is always 0, and a snapshot carrying 1 is
/// refused. It goes at the next version bump.
impl Wire for DdpgAgent {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.actor.wire(c)?;
        self.critic.wire(c)?;
        self.actor_target.wire(c)?;
        self.critic_target.wire(c)?;
        self.replay.wire(c)?;
        self.rng.wire(c)?;
        let mut ou_noise = false;
        ou_noise.wire(c)?;
        if ou_noise {
            return Err(bad("OU-noise exploration is no longer supported"));
        }
        self.config.rho.wire(c)?;
        self.updates.wire(c)?;
        self.last_stats.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::wire;

    impl DdpgAgent {
        /// Deterministic (greedy) action: argmax of the actor's softmax —
        /// how the tests read off what the policy learned.
        fn select_greedy(&mut self, state: &[f32]) -> usize {
            argmax_slice(&self.action_probs(state))
        }
    }

    fn bandit_config(k: usize) -> AgentConfig {
        let mut c = AgentConfig::new(3, k, 9);
        c.warmup = 32;
        c.batch_size = 16;
        c.noise_std = 1.0;
        c.rho = 0.0;
        c.gamma = 0.0; // Pure bandit: no bootstrapping.
        c
    }

    #[test]
    fn greedy_action_is_in_range_and_deterministic() {
        let mut agent = DdpgAgent::new(AgentConfig::new(4, 5, 1));
        let s = vec![0.1, 0.2, 0.3, 0.4];
        let a1 = agent.select_greedy(&s);
        let a2 = agent.select_greedy(&s);
        assert!(a1 < 5);
        assert_eq!(a1, a2);
    }

    #[test]
    fn action_probs_sum_to_one() {
        let mut agent = DdpgAgent::new(AgentConfig::new(4, 6, 2));
        let p = agent.action_probs(&[0.0, 1.0, -1.0, 0.5]);
        assert_eq!(p.len(), 6);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn oracle_is_used_when_rho_is_one() {
        let mut cfg = AgentConfig::new(2, 4, 3);
        cfg.rho = 1.0;
        let mut agent = DdpgAgent::new(cfg);
        let scores = vec![0.0, 0.0, 5.0, 0.0];
        for _ in 0..10 {
            assert_eq!(agent.select_action(&[0.0, 0.0], Some(&scores)), 2);
        }
    }

    #[test]
    fn learns_a_contextual_bandit() {
        // Reward 1 for action 0, else 0, constant state. After training the
        // greedy policy must pick action 0.
        let k = 4;
        let mut agent = DdpgAgent::new(bandit_config(k));
        let state = vec![1.0f32, 0.0, 0.0];
        for step in 0..600 {
            let a = agent.select_action(&state, None);
            let r = if a == 0 { 1.0 } else { 0.0 };
            agent.observe(Transition {
                state: state.clone(),
                action: a,
                reward: r,
                next_state: state.clone(),
                done: true,
            });
            agent.update();
            let _ = step;
        }
        assert!(agent.updates > 100);
        assert_eq!(agent.select_greedy(&state), 0, "agent failed to learn the bandit");
        let probs = agent.action_probs(&state);
        assert!(probs[0] > 0.5, "probs {probs:?}");
    }

    #[test]
    fn full_state_round_trip_resumes_training_bit_for_bit() {
        let cfg = bandit_config(4);
        let mut live = DdpgAgent::new(cfg.clone());
        let state = vec![1.0f32, 0.0, 0.0];
        let step = |agent: &mut DdpgAgent| {
            let a = agent.select_action(&state, None);
            agent.observe(Transition {
                state: state.clone(),
                action: a,
                reward: if a == 0 { 1.0 } else { 0.0 },
                next_state: state.clone(),
                done: true,
            });
            (a, agent.update())
        };
        for _ in 0..80 {
            step(&mut live);
        }
        live.set_rho(0.11);
        let snap = wire::encode(&mut live);
        // A fresh agent from a different seed, then restored.
        let mut resumed = DdpgAgent::new(AgentConfig { seed: 777, ..cfg.clone() });
        wire::decode(&snap, &mut resumed).unwrap();
        assert_eq!(resumed.updates, live.updates);
        assert_eq!(resumed.config().rho, 0.11);
        for _ in 0..40 {
            assert_eq!(step(&mut live), step(&mut resumed));
        }
        assert_eq!(live.action_probs(&state), resumed.action_probs(&state));
        assert_eq!(live.last_update_stats(), resumed.last_update_stats());
        // An agent configured otherwise refuses the snapshot.
        let mismatched = [
            AgentConfig { hidden: cfg.hidden + 1, ..cfg.clone() },
            AgentConfig { replay_capacity: 8, ..cfg },
        ];
        for other in mismatched {
            let err = wire::decode(&snap, &mut DdpgAgent::new(other)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn snapshot_with_the_ou_noise_byte_set_is_refused() {
        let mut agent = DdpgAgent::new(AgentConfig::new(3, 2, 4));
        let mut snap = wire::encode(&mut agent);
        // The reserved byte follows the four networks, the replay buffer
        // and the RNG.
        let at = [
            wire::encode(&mut agent.actor).len(),
            wire::encode(&mut agent.critic).len(),
            wire::encode(&mut agent.actor_target).len(),
            wire::encode(&mut agent.critic_target).len(),
            wire::encode(&mut agent.replay).len(),
            wire::encode(&mut agent.rng).len(),
        ]
        .iter()
        .sum::<usize>();
        assert_eq!(snap[at], 0, "the reserved byte is written as 0");
        wire::decode(&snap, &mut DdpgAgent::new(AgentConfig::new(3, 2, 4))).unwrap();
        snap[at] = 1;
        let err = wire::decode(&snap, &mut DdpgAgent::new(AgentConfig::new(3, 2, 4))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn update_stats_surface_finite_learning_signals() {
        let mut agent = DdpgAgent::new(bandit_config(4));
        assert!(agent.last_update_stats().is_none(), "no stats before the first update");
        let state = vec![1.0f32, 0.0, 0.0];
        for _ in 0..64 {
            let a = agent.select_action(&state, None);
            agent.observe(Transition {
                state: state.clone(),
                action: a,
                reward: if a == 0 { 1.0 } else { 0.0 },
                next_state: state.clone(),
                done: true,
            });
            agent.update();
        }
        let stats = agent.last_update_stats().expect("updates ran past warmup");
        assert!(stats.mean_q.is_finite());
        assert!(stats.mean_abs_td >= 0.0 && stats.mean_abs_td.is_finite());
        assert!(stats.max_abs_td >= stats.mean_abs_td - 1e-12);
        assert!(stats.critic_grad_norm > 0.0 && stats.critic_grad_norm.is_finite());
        assert!(stats.actor_grad_norm.is_finite());
        let health = agent.replay_health();
        assert_eq!(health.occupancy, 64);
        assert_eq!(health.pushes, 64);
    }

    #[test]
    fn entropy_and_saturation_span_uniform_to_collapsed() {
        let (h_uniform, s_uniform) = policy_entropy_saturation(&[0.25; 4]);
        assert!((h_uniform - (4.0f64).ln()).abs() < 1e-6);
        assert!((s_uniform - 0.25).abs() < 1e-9);
        let (h_point, s_point) = policy_entropy_saturation(&[0.0, 1.0, 0.0]);
        assert_eq!(h_point, 0.0);
        assert_eq!(s_point, 1.0);
    }

    #[test]
    fn update_returns_none_before_warmup() {
        let mut agent = DdpgAgent::new(AgentConfig::new(3, 2, 0));
        assert!(agent.update().is_none());
        agent.observe(Transition {
            state: vec![0.0; 3],
            action: 0,
            reward: 0.0,
            next_state: vec![0.0; 3],
            done: false,
        });
        assert!(agent.update().is_none());
    }

    #[test]
    #[should_panic]
    fn observe_rejects_bad_action() {
        let mut agent = DdpgAgent::new(AgentConfig::new(3, 2, 0));
        agent.observe(Transition {
            state: vec![0.0; 3],
            action: 7,
            reward: 0.0,
            next_state: vec![0.0; 3],
            done: false,
        });
    }
}
