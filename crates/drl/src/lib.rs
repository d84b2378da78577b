//! Deep reinforcement learning for migration-policy generation (EMPG).
//!
//! This crate implements Sec. III of the paper:
//!
//! * [`DdpgAgent`] — Deep Deterministic Policy Gradient with an actor
//!   `π(s|θ)` producing a distribution over migration destinations and a
//!   critic `Q(s, a|ψ)` over state/one-hot-action pairs, plus slowly-updated
//!   target networks (Alg. 1). The discrete destination set is handled with
//!   the standard continuous relaxation: the actor outputs a softmax over
//!   destinations, the critic is differentiated w.r.t. that action vector
//!   (Eq. 20/24), and the executed action is the argmax.
//! * [`PrioritizedReplay`] — prioritized experience replay on a sum-tree,
//!   with the paper's mixed priority `ε·|TD| + (1-ε)·|∇_a Q|` (Eq. 25),
//!   exponent-`ξ` sampling (Eq. 26) and importance-sampling weights
//!   (Eq. 29).
//! * [`qp`] — the relaxed FLMM problem (integer variables dropped to
//!   `[0,1]`, Sec. III-D) solved by entropic mirror descent over
//!   row-stochastic migration matrices — the role CVX plays in the paper.
//!   Its rounded solve is the per-row argmax of `benefit − λ·cost`, which
//!   is the row the ρ-greedy exploration oracle reads.
//! * [`MigrationState`] — the state featurizer `(t, F_t, D_t, R_t, G_t)`
//!   of Sec. III-C.

mod agent;
pub mod qp;
mod replay;
mod state;

pub use agent::{policy_entropy_saturation, AgentConfig, DdpgAgent, UpdateStats};
pub use replay::{PrioritizedReplay, ReplayHealth, Transition};
pub use state::{MigrationState, PooledMigrationState};
