//! End-to-end contract for the learning-dynamics diagnostics: turning them
//! on (gauges + flight recorder) must not perturb a seeded run by a single
//! byte, and the recorded artifact must round-trip through the parser, the
//! report renderer and the regression differ.
//!
//! One test per contract. Each runs on its own test thread, whose metrics
//! registry (the gauges) is its own, and writes its own flight file, so
//! the tests run in parallel without reading each other.

mod common;

use common::experiment;
use fedmigr::core::{DiagConfig, RunConfig, RunMetrics, Scheme};
use fedmigr_diag::{diff_recordings, render_report, FlightRecording, Tolerances, FLIGHT_VERSION};

fn config() -> RunConfig {
    let mut cfg = RunConfig::new(Scheme::fedmigr(9), 10);
    cfg.agg_interval = 4;
    cfg.batch_size = 16;
    cfg.eval_interval = 5;
    cfg
}

/// The seeded run with gauges AND the flight recorder active, and the
/// recording it wrote (to a file named after `test`, removed again).
fn recorded_run(test: &str) -> (RunMetrics, FlightRecording) {
    let flight_path =
        std::env::temp_dir().join(format!("fedmigr-diag-e2e-{test}-{}.jsonl", std::process::id()));
    let mut cfg = config();
    cfg.diag = DiagConfig {
        enabled: true,
        flight_out: Some(flight_path.to_string_lossy().into_owned()),
        ..DiagConfig::default()
    };
    let on = experiment(3).run(&cfg);
    let rec =
        FlightRecording::from_file(flight_path.to_str().unwrap()).expect("flight recording parses");
    let _ = std::fs::remove_file(&flight_path);
    (on, rec)
}

#[test]
fn diagnostics_observe_without_perturbing() {
    // Baseline: diagnostics fully off.
    let off = experiment(3).run(&config());
    let (on, _) = recorded_run("identity");
    assert_eq!(off.to_csv(), on.to_csv(), "diagnostics must not perturb a seeded run");
    assert_eq!(off.link_migrations, on.link_migrations);
    assert_eq!(off.migrations_local, on.migrations_local);
    assert_eq!(off.migrations_global, on.migrations_global);
}

#[test]
fn the_flight_recording_matches_the_run_it_observed() {
    let (on, rec) = recorded_run("matches");
    assert_eq!(rec.header.version, FLIGHT_VERSION);
    assert_eq!(rec.header.clients, 4);
    assert_eq!(rec.header.seed, config().seed);
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
}

#[test]
fn the_diagnostics_carry_signal() {
    // EMDs are valid, FedMigr rounds record a DRL snapshot, migratory
    // epochs carry edges.
    let (on, rec) = recorded_run("signal");
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
}

#[test]
fn the_report_renders_every_section() {
    let (_, rec) = recorded_run("report");
    let report = render_report(&rec);
    for section in
        ["convergence", "EMD trajectory", "client drift", "DDPG introspection", "migration graph"]
    {
        assert!(report.contains(section), "report missing section {section:?}:\n{report}");
    }
}

#[test]
fn a_recording_diffed_against_itself_is_regression_free() {
    let (_, rec) = recorded_run("self-diff");
    let regressions =
        diff_recordings(&rec, &rec, &Tolerances::default()).expect("self-diff succeeds");
    assert!(regressions.is_empty(), "self-diff found regressions: {regressions:?}");
}

#[test]
fn the_diagnostic_gauges_reach_the_metrics_dump() {
    recorded_run("gauges");
    let dump = fedmigr_telemetry::metrics::snapshot().render_prometheus();
    for gauge in ["fedmigr_diag_emd_mean", "fedmigr_diag_drift_mean_dist"] {
        assert!(dump.contains(gauge), "metrics dump missing {gauge}");
    }
}
