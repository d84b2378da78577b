//! DDPG introspection: is the migration policy still learning?
//!
//! Combines three read-only probes of the agent into one round snapshot:
//! the actor's decision sharpness over this round's states (entropy and
//! saturation of the softmax over destinations), the critic's learning
//! signals from the most recent update ([`fedmigr_drl::UpdateStats`]), and
//! the replay buffer's health ([`fedmigr_drl::ReplayHealth`]). All three
//! come from forward passes or bookkeeping that never touch the run's RNG.

use fedmigr_drl::{policy_entropy_saturation, ReplayHealth, UpdateStats};

/// One round's view of the DDPG agent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrlSnapshot {
    /// Mean Shannon entropy (nats) of the actor's destination softmax over
    /// this round's states. High = undecided, near 0 = collapsed.
    pub mean_entropy: f64,
    /// Mean max-probability of the softmax — the saturation companion to
    /// entropy (1 = fully deterministic policy).
    pub mean_saturation: f64,
    /// Mean critic Q-value of the last update batch.
    pub mean_q: f64,
    /// Mean |TD error| of the last update batch.
    pub mean_abs_td: f64,
    /// Max |TD error| of the last update batch.
    pub max_abs_td: f64,
    /// L2 norm of the critic gradient at the last update.
    pub critic_grad_norm: f64,
    /// L2 norm of the actor gradient at the last update.
    pub actor_grad_norm: f64,
    /// Transitions currently in the replay buffer.
    pub replay_occupancy: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Max/min stored priority ratio (1 = flat priorities).
    pub replay_priority_spread: f64,
    /// Mean age (in pushes) of stored transitions.
    pub replay_mean_age: f64,
    /// Oldest stored transition's age in pushes.
    pub replay_max_age: f64,
}
fedmigr_telemetry::record_fields!(DrlSnapshot: mean_entropy, mean_saturation, mean_q, mean_abs_td,
    max_abs_td, critic_grad_norm, actor_grad_norm, replay_occupancy, replay_capacity,
    replay_priority_spread, replay_mean_age, replay_max_age);

impl DrlSnapshot {
    /// Builds the snapshot from this round's per-client action
    /// distributions plus the agent's last update stats and replay health.
    pub fn collect(
        action_probs: &[Vec<f32>],
        last_update: Option<UpdateStats>,
        replay: ReplayHealth,
    ) -> Self {
        let mut mean_entropy = 0.0;
        let mut mean_saturation = 0.0;
        if !action_probs.is_empty() {
            for probs in action_probs {
                let (h, sat) = policy_entropy_saturation(probs);
                mean_entropy += h;
                mean_saturation += sat;
            }
            mean_entropy /= action_probs.len() as f64;
            mean_saturation /= action_probs.len() as f64;
        }
        let u = last_update.unwrap_or(UpdateStats {
            mean_q: 0.0,
            mean_abs_td: 0.0,
            max_abs_td: 0.0,
            critic_grad_norm: 0.0,
            actor_grad_norm: 0.0,
        });
        DrlSnapshot {
            mean_entropy,
            mean_saturation,
            mean_q: u.mean_q,
            mean_abs_td: u.mean_abs_td,
            max_abs_td: u.max_abs_td,
            critic_grad_norm: u.critic_grad_norm,
            actor_grad_norm: u.actor_grad_norm,
            replay_occupancy: replay.occupancy,
            replay_capacity: replay.capacity,
            replay_priority_spread: replay.priority_spread,
            replay_mean_age: replay.mean_age,
            replay_max_age: replay.max_age as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health() -> ReplayHealth {
        ReplayHealth {
            occupancy: 5,
            capacity: 16,
            pushes: 9,
            priority_spread: 2.5,
            mean_age: 3.0,
            max_age: 8,
        }
    }

    #[test]
    fn collects_all_three_probes() {
        let probs = vec![vec![0.5f32, 0.5], vec![1.0f32, 0.0]];
        let stats = UpdateStats {
            mean_q: 0.7,
            mean_abs_td: 0.2,
            max_abs_td: 0.9,
            critic_grad_norm: 1.5,
            actor_grad_norm: 0.4,
        };
        let s = DrlSnapshot::collect(&probs, Some(stats), health());
        // Mean of ln(2) (uniform over 2) and 0 (collapsed).
        assert!((s.mean_entropy - 0.5 * std::f64::consts::LN_2).abs() < 1e-9);
        assert!((s.mean_saturation - 0.75).abs() < 1e-6);
        assert_eq!(s.mean_q, 0.7);
        assert_eq!(s.critic_grad_norm, 1.5);
        assert_eq!(s.replay_occupancy, 5);
        assert_eq!(s.replay_max_age, 8.0);
    }

    #[test]
    fn missing_update_stats_zero_out() {
        let s = DrlSnapshot::collect(&[], None, health());
        assert_eq!(s.mean_entropy, 0.0);
        assert_eq!(s.mean_q, 0.0);
        assert_eq!(s.replay_capacity, 16);
    }
}
