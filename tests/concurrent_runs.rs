//! Two runs in one process keep their instruments apart: a run's kernel
//! counts and profiler frames live in the ledger of the thread that runs
//! it, its workers' merged in at their join, so what it reads back is what
//! it reads back alone.
//!
//! A file of its own: the other end-to-end binaries assert on the shared
//! trace sink, which this test's concurrent runs would interleave.

use std::sync::{Arc, Barrier};

use fedmigr::core::{Experiment, FleetExperiment, FleetOptions, RunConfig, Scheme};
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{ClientCompute, DeviceTier, Topology, TopologyConfig};
use fedmigr::nn::zoo::{self, NetScale};
use fedmigr::tensor::kcount::{self, Kernel};
use fedmigr_telemetry::ledger::Profile;
use fedmigr_telemetry::profiler;

/// What a run read back from its thread's ledger: `(kernel, calls, flops,
/// bytes)` per kernel that ran, and `(path, calls)` per profiled path.
#[derive(Debug, PartialEq)]
struct Ledger {
    kernels: Vec<(&'static str, u64, u64, u64)>,
    frames: Vec<(String, u64)>,
}

fn read_ledger() -> Ledger {
    let snap = kcount::snapshot();
    let kernels = Kernel::ALL
        .iter()
        .map(|&k| (k.name(), snap.get(k)))
        .filter(|(_, s)| s.calls > 0)
        .map(|(name, s)| (name, s.calls, s.flops, s.bytes))
        .collect();
    let frames = profiler::alloc_report()
        .lines()
        .skip(1)
        .map(|line| {
            let mut cols = line.split(' ');
            let path = cols.next().expect("a path column").to_string();
            (path, cols.next().and_then(|c| c.parse().ok()).expect("a calls column"))
        })
        .collect();
    Ledger { kernels, frames }
}

/// A seeded dense FedMigr run, kernel accounting and profiler frames on.
fn dense() -> Ledger {
    let seed = 3;
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
    let exp = Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(vec![2, 2], seed)),
        ClientCompute::homogeneous(4, DeviceTier::Tx2),
        zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, seed),
    );
    let mut cfg = RunConfig::new(Scheme::fedmigr(9), 6);
    cfg.agg_interval = 3;
    cfg.batch_size = 16;
    cfg.diag.kcount = true;
    cfg.diag.profile = Profile::Frames;
    exp.run(&cfg);
    read_ledger()
}

/// A seeded fleet FedMigr run, kernel accounting on, profiler off.
fn fleet() -> Ledger {
    let model = zoo::c10_cnn(3, 8, NetScale::Small, 11);
    let mut cfg = RunConfig::new(Scheme::fedmigr(11), 4);
    cfg.agg_interval = 2;
    cfg.eval_interval = 2;
    cfg.batch_size = 8;
    cfg.max_batches_per_epoch = Some(2);
    cfg.seed = 11;
    cfg.fleet = Some(FleetOptions { sample_frac: 0.25, top_m: 4 });
    cfg.diag.kcount = true;
    FleetExperiment::synthetic(48, 4, 24, 4, 11, model).run(&cfg);
    read_ledger()
}

#[test]
fn concurrent_runs_read_back_the_ledgers_they_read_alone() {
    // Alone: each on a fresh thread, one after the other.
    let dense_alone = std::thread::spawn(dense).join().expect("dense run");
    let fleet_alone = std::thread::spawn(fleet).join().expect("fleet run");
    assert!(dense_alone.kernels.iter().any(|k| k.0 == "matmul"), "{dense_alone:?}");
    assert!(dense_alone.frames.iter().any(|(p, n)| p == "round" && *n == 6), "{dense_alone:?}");
    assert!(fleet_alone.kernels.iter().any(|k| k.0 == "matmul"), "{fleet_alone:?}");
    assert!(fleet_alone.frames.is_empty(), "the fleet run profiles nothing: {fleet_alone:?}");

    // Together: both start at once and overlap.
    let start = Arc::new(Barrier::new(2));
    let gate = |run: fn() -> Ledger| {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            run()
        })
    };
    let (dense_together, fleet_together) = (gate(dense), gate(fleet));
    assert_eq!(dense_together.join().expect("dense run"), dense_alone);
    assert_eq!(fleet_together.join().expect("fleet run"), fleet_alone);
}
