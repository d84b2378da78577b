//! Synthetic image-classification datasets and the non-IID partitioners the
//! FedMigr paper evaluates with.
//!
//! The paper uses CIFAR-10, CIFAR-100 and ImageNet-100. Those datasets are
//! not available here, so this crate generates **seeded synthetic
//! class-cluster image data** with matching class counts: each class has a
//! smooth random prototype image and samples are noisy copies of it. This
//! preserves the phenomenon the paper studies — local SGD on a skewed label
//! marginal diverges from the population optimum — while keeping every run
//! deterministic and CPU-fast.
//!
//! The partitioners reproduce every data layout in the paper:
//!
//! * IID ([`partition_iid`]),
//! * label shards — one or `c` classes per client ([`partition_shards`],
//!   simulation Sec. IV-C),
//! * `p%`-dominant class ([`partition_dominant`], test-bed CIFAR-10
//!   Sec. IV-D),
//! * missing-classes ([`partition_missing_classes`], test-bed CIFAR-100).
//!
//! [`distribution`] implements the label-distribution analysis of
//! Sec. II-C: per-client label marginals, L1/EMD distances to the
//! population distribution, and the *virtual distribution* of Eq. (13)
//! whose contraction (Eq. 15) is the paper's convergence argument.

pub mod augment;
mod dataset;
pub mod distribution;
mod partition;
pub mod poison;
mod synthetic;
mod world;

pub use dataset::Dataset;
pub use partition::{
    partition_dirichlet, partition_dominant, partition_iid, partition_lan_shards,
    partition_missing_classes, partition_shards,
};
pub use poison::{apply_label_map, flip_label, flip_label_map};
pub use synthetic::{SyntheticConfig, SyntheticDataset};
pub use world::SyntheticWorld;
