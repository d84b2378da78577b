//! End-to-end contract for the learning-dynamics diagnostics: turning them
//! on (gauges + flight recorder) must not perturb a seeded run by a single
//! byte, and the recorded artifact must round-trip through the parser, the
//! report renderer and the regression differ.
//!
//! Everything lives in ONE test function: the metrics registry (gauges) and
//! the trace sink are the process's, so concurrent experiment runs in this
//! binary would interleave their measurements.

use fedmigr::core::{DiagConfig, Experiment, RunConfig, Scheme};
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{ClientCompute, DeviceTier, Topology, TopologyConfig};
use fedmigr::nn::zoo::{self, NetScale};
use fedmigr_diag::{diff_recordings, render_report, FlightRecording, Tolerances, FLIGHT_VERSION};

fn experiment(seed: u64) -> Experiment {
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

#[test]
fn diagnostics_observe_without_perturbing() {
    let mut cfg = RunConfig::new(Scheme::fedmigr(9), 10);
    cfg.agg_interval = 4;
    cfg.batch_size = 16;
    cfg.eval_interval = 5;

    // Baseline: diagnostics fully off.
    let off = experiment(3).run(&cfg);

    // Same seed with gauges AND the flight recorder active.
    let flight_path =
        std::env::temp_dir().join(format!("fedmigr-diag-e2e-{}.jsonl", std::process::id()));
    let mut cfg_on = cfg.clone();
    cfg_on.diag = DiagConfig {
        enabled: true,
        flight_out: Some(flight_path.to_string_lossy().into_owned()),
        ..DiagConfig::default()
    };
    let on = experiment(3).run(&cfg_on);

    // 1. Byte-identity: the exported run must not change at all.
    assert_eq!(off.to_csv(), on.to_csv(), "diagnostics must not perturb a seeded run");
    assert_eq!(off.link_migrations, on.link_migrations);
    assert_eq!(off.migrations_local, on.migrations_local);
    assert_eq!(off.migrations_global, on.migrations_global);

    // 2. The recording parses and matches the run it observed.
    let rec =
        FlightRecording::from_file(flight_path.to_str().unwrap()).expect("flight recording parses");
    assert_eq!(rec.header.version, FLIGHT_VERSION);
    assert_eq!(rec.header.clients, 4);
    assert_eq!(rec.header.seed, cfg.seed);
    assert_eq!(rec.rounds.len(), on.epochs(), "one round record per epoch");
    let summary = rec.summary.as_ref().expect("recorder writes a summary");
    assert_eq!(summary.epochs_run, on.epochs());
    assert_eq!(summary.final_accuracy, on.final_accuracy());
    assert_eq!(summary.best_accuracy, on.best_accuracy());
    assert_eq!(summary.total_bytes, on.traffic().total());
    assert_eq!(summary.migrations_local, on.migrations_local);
    assert_eq!(summary.migrations_global, on.migrations_global);
    for (round, epoch_rec) in rec.rounds.iter().zip(&on.records) {
        assert_eq!(round.train_loss, f64::from(epoch_rec.train_loss));
        assert_eq!(round.test_accuracy, epoch_rec.test_accuracy);
        assert_eq!(round.sim_time, epoch_rec.sim_time);
    }

    // 3. Diagnostics carry signal: EMDs are valid, FedMigr rounds record a
    //    DRL snapshot, migratory epochs carry edges.
    for round in &rec.rounds {
        assert!(round.emd.mean.is_finite() && (0.0..=1.0).contains(&round.emd.mean));
        assert!(round.emd.max >= round.emd.mean);
        assert_eq!(round.emd.per_client.len(), 4);
        assert!((0.0..=1.0).contains(&round.train_emd.mean));
        assert!(round.drift.is_some(), "drift snapshot recorded each round");
    }
    assert!(
        rec.mean_train_emd_over_run() > 0.0,
        "one-class shards keep the training-history mixture away from the population"
    );
    assert!(rec.rounds.iter().any(|r| r.drl.is_some()), "FedMigr runs record DDPG introspection");
    assert!(
        rec.rounds.iter().any(|r| !r.migrations.is_empty()),
        "migratory epochs record their edge lists"
    );
    let migrated: usize =
        rec.rounds.iter().flat_map(|r| &r.migrations).filter(|e| e.outcome.delivered()).count();
    assert_eq!(
        migrated,
        on.migrations_local + on.migrations_global,
        "edge list agrees with the run's migration counters"
    );

    // 4. The report renders every section for this recording.
    let report = render_report(&rec);
    for section in
        ["convergence", "EMD trajectory", "client drift", "DDPG introspection", "migration graph"]
    {
        assert!(report.contains(section), "report missing section {section:?}:\n{report}");
    }

    // 5. A recording diffed against itself is regression-free.
    let regressions =
        diff_recordings(&rec, &rec, &Tolerances::default()).expect("self-diff succeeds");
    assert!(regressions.is_empty(), "self-diff found regressions: {regressions:?}");

    // 6. Gauges were exported through the telemetry engine.
    let dump = fedmigr_telemetry::render_metrics();
    for gauge in ["fedmigr_diag_emd_mean", "fedmigr_diag_drift_mean_dist"] {
        assert!(dump.contains(gauge), "metrics dump missing {gauge}");
    }

    let _ = std::fs::remove_file(&flight_path);
}
