//! Facade crate re-exporting the FedMigr workspace.
//!
//! This crate stitches together the substrates built for the FedMigr
//! reproduction (tensor math, neural networks, synthetic datasets, the MEC
//! network simulator, the DDPG agent) with the core federated-learning
//! orchestration. Most users should start from [`core`] (the FL schemes and
//! experiment runner) and [`nn::zoo`] (the paper's model architectures);
//! [`run`] is the `fedmigr run` subcommand.

pub use fedmigr_compress as compress;
pub use fedmigr_core as core;
pub use fedmigr_data as data;
pub use fedmigr_diag as diag;
pub use fedmigr_drl as drl;
pub use fedmigr_net as net;
pub use fedmigr_nn as nn;
pub use fedmigr_tensor as tensor;

pub mod run;
