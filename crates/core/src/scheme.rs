/// Fixed (non-learned) migration strategies for the Fig. 3 motivation
/// experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Every model migrates to a client in a *different* LAN (the clients
    /// within a LAN share a data distribution, so this maximizes exposure
    /// to new data).
    CrossLan,
    /// Models only move between clients of the *same* LAN.
    WithinLan,
    /// Uniformly random permutation of models over clients.
    Random,
}

impl MigrationStrategy {
    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationStrategy::CrossLan => "cross-LAN",
            MigrationStrategy::WithinLan => "within-LAN",
            MigrationStrategy::Random => "random",
        }
    }
}

/// Hyper-parameters of the FedMigr scheme (the EMPG agent's environment
/// coupling; the agent's own hyper-parameters live in
/// [`fedmigr_drl::AgentConfig`]).
#[derive(Clone, Debug)]
pub struct FedMigrConfig {
    /// Cost weight λ in the exploration oracle's objective
    /// (distribution-difference benefit minus λ × link cost).
    pub lambda: f64,
    /// Base Υ of the exponential loss-trend term in the reward (Eq. 17).
    pub upsilon: f64,
    /// ρ-greedy exploration probability (overrides the agent default).
    pub rho: f64,
    /// Fraction of the run during which decisions come purely from the
    /// exploration oracle while the agent trains in the background — the
    /// paper's offline pre-training phase, folded into the run.
    pub oracle_warmup_frac: f64,
    /// Prioritization exponent ξ of the replay buffer (0 = uniform replay;
    /// the replay ablation flips this).
    pub replay_xi: f64,
    /// Whether the reward includes the resource terms of Eq. 17 (the
    /// reward-shaping ablation disables them).
    pub resource_reward: bool,
    /// Seed for the agent.
    pub agent_seed: u64,
}

impl FedMigrConfig {
    /// Defaults used throughout the evaluation.
    pub fn new(agent_seed: u64) -> Self {
        Self {
            lambda: 0.08,
            upsilon: 4.0,
            rho: 0.7,
            oracle_warmup_frac: 0.5,
            replay_xi: 0.6,
            resource_reward: true,
            agent_seed,
        }
    }
}

/// The federated-learning scheme to run.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// FederatedAveraging (McMahan et al.): aggregate every epoch.
    FedAvg,
    /// FedAvg with a proximal term of weight `mu` (Li et al.).
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
    /// Server-side model swapping between aggregations (Chiu et al.).
    FedSwap,
    /// Random C2C model migration between aggregations (ablation).
    RandMigr,
    /// DRL-guided C2C model migration (this paper).
    FedMigr(FedMigrConfig),
    /// A fixed migration strategy (Fig. 3 motivation experiment).
    Fixed(MigrationStrategy),
    /// Asynchronous federated optimization (Xie et al., the paper's
    /// related-work baseline and its stated future direction): each epoch a
    /// single client uploads and the server mixes it into the global model,
    /// `w_g <- (1 - beta) w_g + beta w_k`.
    FedAsync {
        /// Server mixing rate β ∈ (0, 1].
        beta: f32,
    },
}

impl Scheme {
    /// Convenience constructor for FedMigr with default hyper-parameters.
    pub fn fedmigr(agent_seed: u64) -> Self {
        Scheme::FedMigr(FedMigrConfig::new(agent_seed))
    }

    /// FedProx with the paper-typical μ = 0.01.
    pub fn fedprox() -> Self {
        Scheme::FedProx { mu: 0.01 }
    }

    /// FedAsync with the common β = 0.6.
    pub fn fedasync() -> Self {
        Scheme::FedAsync { beta: 0.6 }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Scheme::FedAvg => "FedAvg".into(),
            Scheme::FedProx { .. } => "FedProx".into(),
            Scheme::FedSwap => "FedSwap".into(),
            Scheme::RandMigr => "RandMigr".into(),
            Scheme::FedMigr(_) => "FedMigr".into(),
            Scheme::Fixed(s) => format!("Fixed({})", s.name()),
            Scheme::FedAsync { .. } => "FedAsync".into(),
        }
    }

    /// Whether every epoch routes all models through the server.
    pub fn uploads_every_epoch(&self) -> bool {
        matches!(self, Scheme::FedAvg | Scheme::FedProx { .. } | Scheme::FedSwap)
    }

    /// Whether `epoch` ends in a global aggregation: every epoch for
    /// FedAvg and FedProx, never for FedAsync (it mixes in one upload per
    /// epoch instead), and every `agg_interval` epochs for the rest.
    pub fn aggregates_at(&self, epoch: usize, agg_interval: usize) -> bool {
        match self {
            Scheme::FedAvg | Scheme::FedProx { .. } => true,
            Scheme::FedAsync { .. } => false,
            _ => epoch.is_multiple_of(agg_interval),
        }
    }

    /// Whether the server applies asynchronous single-client updates.
    pub fn is_async(&self) -> bool {
        matches!(self, Scheme::FedAsync { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(Scheme::FedAvg.name(), "FedAvg");
        assert_eq!(Scheme::fedprox().name(), "FedProx");
        assert_eq!(Scheme::fedmigr(0).name(), "FedMigr");
        assert_eq!(Scheme::Fixed(MigrationStrategy::CrossLan).name(), "Fixed(cross-LAN)");
    }

    #[test]
    fn fedasync_metadata() {
        assert_eq!(Scheme::fedasync().name(), "FedAsync");
        assert!(Scheme::fedasync().is_async());
        assert!(!Scheme::fedasync().uploads_every_epoch());
    }

    #[test]
    fn aggregation_epochs_follow_the_scheme() {
        assert!((1..=6).all(|e| Scheme::FedAvg.aggregates_at(e, 3)));
        assert!((1..=6).all(|e| Scheme::fedprox().aggregates_at(e, 3)));
        assert!((1..=6).all(|e| !Scheme::fedasync().aggregates_at(e, 3)));
        for scheme in [Scheme::fedmigr(0), Scheme::RandMigr, Scheme::FedSwap] {
            let agg: Vec<usize> = (1..=7).filter(|&e| scheme.aggregates_at(e, 3)).collect();
            assert_eq!(agg, vec![3, 6], "{}", scheme.name());
        }
    }

    #[test]
    fn traffic_shape_flags() {
        assert!(Scheme::FedAvg.uploads_every_epoch());
        assert!(Scheme::FedSwap.uploads_every_epoch());
        assert!(!Scheme::RandMigr.uploads_every_epoch());
    }
}
