//! fedmigr-fleet: lazy sharded client state and factored migration
//! planning for 10k–1M simulated FedMigr clients.
//!
//! The dense FedMigr runner materializes every client — dataset, model,
//! and `K × K` topology/score matrices — which caps simulations near
//! `K ≈ 100`. This crate virtualizes the population so peak memory and
//! per-round planning cost scale with *participants per round* instead:
//!
//! - [`FleetAssignment`] — interval-tree assignment of a global sample
//!   space to clients (exact cover, proptest-verified).
//! - [`FleetTopology`] — the MEC LAN topology in O(LANs) memory with
//!   closed-form hash-derived link classes.
//! - [`ClientPool`] / [`ClientStub`] — dormant clients as compact stubs;
//!   activation regenerates the dataset deterministically from
//!   [`fedmigr_data::SyntheticWorld`].
//! - [`plan_migrations`] / [`LanProfile`] — LAN-local candidate pruning
//!   plus top-M shortlists and pooled per-LAN aggregates, replacing the
//!   dense `K²` planning path; [`greedy_commit`] and [`AGENT_BONUS`] are
//!   the integer recovery and the agent's score boost both paths share.

mod assignment;
mod planner;
mod pool;
mod topology;

pub use assignment::FleetAssignment;
pub use planner::{greedy_commit, plan_migrations, FleetPlannerConfig, LanProfile, AGENT_BONUS};
pub use pool::{ClientPool, ClientStub, DormantState};
pub use topology::{FleetTopology, FleetTopologyConfig};
