//! The fixture the end-to-end test binaries share.

use fedmigr::core::Experiment;
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{ClientCompute, DeviceTier, Topology, TopologyConfig};
use fedmigr::nn::zoo::{self, NetScale};

/// A tiny seeded federation: 4 clients on two LANs of 2, one class-shard
/// each of a 4-class 8×8 synthetic task, training a mini ResNet.
pub fn experiment(seed: u64) -> Experiment {
    let data = SyntheticDataset::generate(&SyntheticConfig {
        num_classes: 4,
        train_per_class: 16,
        test_per_class: 8,
        channels: 1,
        hw: 8,
        noise_std: 0.8,
        class_sep: 1.0,
        atom_bank: 6,
        atoms_per_class: 2,
        private_frac: 0.5,
        seed,
    });
    let parts = partition_shards(&data.train, 4, 1, seed);
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(vec![2, 2], seed)),
        ClientCompute::homogeneous(4, DeviceTier::Tx2),
        zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, seed),
    )
}
