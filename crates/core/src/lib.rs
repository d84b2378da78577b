//! FedMigr: federated learning with intelligent model migration.
//!
//! This crate is the paper's primary contribution — the orchestration layer
//! that turns the substrates (neural nets, synthetic data, the MEC network
//! simulator, the DDPG agent) into runnable federated-learning experiments.
//!
//! # The five schemes
//!
//! * **FedAvg** — clients train one local epoch, the server aggregates the
//!   weighted average every epoch (Eq. 7).
//! * **FedProx** — FedAvg plus a proximal term `μ/2 ||w - w_g||²` pulling
//!   local updates towards the last global model.
//! * **FedSwap** — every epoch all models travel to the server; between
//!   aggregations the server *swaps* them among random client pairs. Same
//!   C2S traffic as FedAvg — the baseline's weakness the paper highlights.
//! * **RandMigr** — FedMigr's migration machinery with a *random*
//!   permutation instead of the learned policy (the paper's ablation).
//! * **FedMigr** — after each local epoch, every client forwards its model
//!   to a destination chosen by the EMPG agent ([`fedmigr_drl::DdpgAgent`])
//!   from the state `(t, F_t, D_t, R_t, G_t)`; the server aggregates only
//!   once per global iteration (every `M + 1` epochs).
//!
//! Fixed migration strategies (cross-LAN / within-LAN / random) reproduce
//! the Fig. 3 motivation experiment.
//!
//! # Example
//!
//! ```no_run
//! use fedmigr_core::{Experiment, RunConfig, Scheme};
//! use fedmigr_data::{partition_shards, SyntheticConfig, SyntheticDataset};
//! use fedmigr_net::{ClientCompute, DeviceTier, Topology, TopologyConfig};
//! use fedmigr_nn::zoo::{c10_cnn, NetScale};
//!
//! let data = SyntheticDataset::generate(&SyntheticConfig::c10_like(40, 7));
//! let parts = partition_shards(&data.train, 10, 1, 7);
//! let topo = Topology::new(&TopologyConfig::c10_sim(7));
//! let exp = Experiment::new(
//!     data.train,
//!     data.test,
//!     parts,
//!     topo,
//!     ClientCompute::homogeneous(10, DeviceTier::Nx),
//!     c10_cnn(3, 8, NetScale::Small, 7),
//! );
//! let metrics = exp.run(&RunConfig::new(Scheme::fedmigr(7), 200));
//! fedmigr_telemetry::info!(
//!     "example",
//!     "final accuracy {:.1}%",
//!     100.0 * metrics.final_accuracy()
//! );
//! if let Some(phases) = metrics.phase_summary() {
//!     fedmigr_telemetry::info!("example", "{phases}");
//! }
//! ```
//!
//! # Observability
//!
//! Runs are instrumented two ways (see `DESIGN.md` §11):
//!
//! * A deterministic **virtual** per-phase breakdown of the simulation
//!   clock ([`PhaseBreakdown`]) lands in every [`EpochRecord`] and the CSV
//!   export — byte-identical whether telemetry is on or off.
//! * Real wall-clock spans, counters and histograms flow through the
//!   `fedmigr-telemetry` side-channel (`--trace-out` / `--metrics-out` on
//!   the CLI) and never touch `RunMetrics`.

mod aggregate;
mod checkpoint;
mod client;
mod engine;
mod fleet;
pub mod kernels;
mod metrics;
mod migration;
mod privacy;
mod reward;
mod runner;
mod scheme;
mod timeline_capture;

pub use aggregate::Aggregator;
pub use checkpoint::{RunStamp, RUN_STATE_MAGIC, RUN_STATE_VERSION};
pub use client::FlClient;
pub use fedmigr_compress::{CodecConfig, CompressionStats};
pub use fedmigr_diag::DiagConfig;
pub use fleet::{FleetExperiment, FleetOptions};
pub use metrics::{
    EpochRecord, FaultStats, PhaseBreakdown, RecoveryStats, RobustStats, RunMetrics,
};
pub use migration::{MigrationPlan, Quarantine, QuarantineConfig};
pub use privacy::DpConfig;
pub use reward::{step_reward, terminal_reward};
pub use runner::{ConfigError, Experiment, RunConfig, WatchdogConfig};
pub use scheme::{FedMigrConfig, MigrationStrategy, Scheme};
