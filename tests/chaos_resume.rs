//! Chaos kill-and-resume harness for the run-checkpoint subsystem.
//!
//! The crash-safety contract (DESIGN.md §14): a run killed at an arbitrary
//! round and resumed from its latest checkpoint must finish **byte-identical**
//! to the run that was never interrupted — same CSV export, same flight
//! recording — on both transports, with wire codecs, injected churn and a
//! Byzantine adversary all active. Kill rounds are drawn from a seeded
//! SplitMix64 stream so the chaos schedule is reproducible, and the lockstep
//! case kills twice to exercise repeated resume. A second contract covers
//! the divergence watchdog: a NaN-injection adversary against the plain
//! FedAvg mean must trigger a rollback, quarantine the implicated source and
//! still converge to a finite model.

use std::path::PathBuf;

use fedmigr::core::{
    CodecConfig, DiagConfig, Experiment, FleetExperiment, FleetOptions, RunConfig, Scheme,
    WatchdogConfig,
};
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::net::{
    AttackConfig, ClientCompute, FaultConfig, Topology, TopologyConfig, TransportConfig,
};
use fedmigr::nn::zoo::{self, NetScale};

const EPOCHS: usize = 10;

fn experiment(seed: u64) -> Experiment {
    experiment_of(vec![3, 3], seed)
}

fn experiment_of(lans: Vec<usize>, seed: u64) -> Experiment {
    let k = lans.iter().sum();
    let data = SyntheticDataset::generate(&SyntheticConfig {
        num_classes: 4,
        train_per_class: 24,
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
    let parts = partition_shards(&data.train, k, 1, seed);
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(lans, seed)),
        ClientCompute::testbed_mix(k),
        zoo::c10_cnn(1, 8, NetScale::Small, seed),
    )
}

/// Everything-on configuration: wire codec, edge churn, sign-flip adversary
/// (which also arms the quarantine), the chosen transport.
fn stressed_config(transport: TransportConfig) -> RunConfig {
    let mut cfg = RunConfig::new(Scheme::fedmigr(5), EPOCHS);
    cfg.agg_interval = 4;
    cfg.eval_interval = 5;
    cfg.batch_size = 16;
    cfg.lr = 0.02;
    cfg.seed = 5;
    cfg.codec = CodecConfig::parse("topk-int8:0.25").expect("codec spec");
    cfg.fault = FaultConfig::edge_churn(0.15, 42);
    cfg.attack = AttackConfig::sign_flip(0.2, 9);
    cfg.transport = transport;
    cfg
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedmigr-chaos-{}-{name}", std::process::id()))
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the uninterrupted baseline, then a chaos twin killed at each of
/// `kill_rounds` in turn (resuming from the latest on-disk checkpoint after
/// every kill), and asserts the finished twin is byte-identical.
fn assert_kill_resume_identity(tag: &str, transport: TransportConfig, kill_rounds: &[usize]) {
    let base_flight = tmp(&format!("{tag}-base.jsonl"));
    let chaos_flight = tmp(&format!("{tag}-chaos.jsonl"));
    let ck_dir = tmp(&format!("{tag}-ck"));
    std::fs::create_dir_all(&ck_dir).unwrap();

    let mut base_cfg = stressed_config(transport);
    base_cfg.diag = DiagConfig {
        enabled: true,
        flight_out: Some(base_flight.to_string_lossy().into_owned()),
        ..DiagConfig::default()
    };
    let baseline = experiment(5).run(&base_cfg);
    assert_eq!(baseline.epochs(), EPOCHS);

    // First leg: run from scratch, die at kill_rounds[0].
    let mut cfg = stressed_config(transport);
    cfg.diag = DiagConfig {
        enabled: true,
        flight_out: Some(chaos_flight.to_string_lossy().into_owned()),
        ..DiagConfig::default()
    };
    cfg.checkpoint_every = Some(2);
    cfg.checkpoint_dir = Some(ck_dir.to_string_lossy().into_owned());
    cfg.kill_at = Some(kill_rounds[0]);
    let killed = experiment(5).run(&cfg);
    assert!(killed.epochs() < EPOCHS, "kill at {} must truncate the run", kill_rounds[0]);

    // Subsequent legs: resume from latest.fmrs, optionally dying again.
    let latest = ck_dir.join("latest.fmrs");
    for next_kill in kill_rounds[1..].iter().map(|&k| Some(k)).chain([None]) {
        assert!(latest.exists(), "killed run must leave a checkpoint behind");
        cfg.resume = Some(latest.to_string_lossy().into_owned());
        cfg.kill_at = next_kill;
        let resumed = experiment(5).run(&cfg);
        assert!(resumed.recovery.checkpoints_loaded >= 1, "resume must load a checkpoint");
        if next_kill.is_none() {
            assert_eq!(resumed.epochs(), EPOCHS, "resumed run must finish all rounds");
            assert_eq!(
                baseline.to_csv(),
                resumed.to_csv(),
                "[{tag}] kill@{kill_rounds:?}: resumed CSV must be byte-identical"
            );
            assert!(resumed.recovery.any() && resumed.recovery_summary().is_some());
        }
    }

    let base_bytes = std::fs::read(&base_flight).unwrap();
    let chaos_bytes = std::fs::read(&chaos_flight).unwrap();
    assert_eq!(
        base_bytes, chaos_bytes,
        "[{tag}] kill@{kill_rounds:?}: flight recording must be byte-identical"
    );

    let _ = std::fs::remove_file(&base_flight);
    let _ = std::fs::remove_file(&chaos_flight);
    let _ = std::fs::remove_dir_all(&ck_dir);
}

#[test]
fn killed_and_resumed_lockstep_run_is_byte_identical() {
    // Seeded chaos: two kill rounds, the second strictly after the first,
    // exercising resume-then-die-again-then-resume.
    let mut x = 0xc0ff_ee11_u64;
    let first = 2 + (splitmix(&mut x) % (EPOCHS as u64 / 2)) as usize;
    let second = first + 1 + (splitmix(&mut x) % (EPOCHS - first - 1) as u64) as usize;
    assert_kill_resume_identity("lockstep", TransportConfig::Lockstep, &[first, second]);
}

#[test]
fn killed_and_resumed_flow_run_is_byte_identical() {
    let mut x = 0xdead_beef_u64;
    let kill = 2 + (splitmix(&mut x) % (EPOCHS as u64 - 3)) as usize;
    assert_kill_resume_identity("flow", TransportConfig::flow(5), &[kill]);
}

/// Fleet-mode chaos: the lazy sharded runner checkpoints only at
/// aggregation-block boundaries (where every client is dormant and the
/// snapshot is just stubs + global model), so a kill at *any* round resumes
/// from the last boundary, deterministically replays the partial block —
/// cohort sampling, activation, training, migrations — and must still finish
/// byte-identical to the run that was never interrupted.
#[test]
fn killed_and_resumed_fleet_run_is_byte_identical() {
    const FLEET_EPOCHS: usize = 8;
    let fleet =
        || FleetExperiment::synthetic(48, 4, 24, 4, 11, zoo::c10_cnn(3, 8, NetScale::Small, 11));
    let fleet_cfg = || {
        let mut cfg = RunConfig::new(Scheme::fedmigr(11), FLEET_EPOCHS);
        cfg.agg_interval = 2;
        cfg.eval_interval = 2;
        cfg.batch_size = 8;
        cfg.max_batches_per_epoch = Some(2);
        cfg.lr = 0.05;
        cfg.seed = 11;
        cfg.fleet = Some(FleetOptions { sample_frac: 0.25, top_m: 4 });
        cfg
    };

    // Seeded chaos schedule: two kills, the second strictly after the first,
    // exercising resume-then-die-again-then-resume across block boundaries.
    let mut x = 0xf1ee_7001_u64;
    let first = 2 + (splitmix(&mut x) % (FLEET_EPOCHS as u64 / 2)) as usize;
    let second = first + 1 + (splitmix(&mut x) % (FLEET_EPOCHS - first - 1) as u64) as usize;

    let baseline = fleet().run(&fleet_cfg());
    assert_eq!(baseline.epochs(), FLEET_EPOCHS);
    assert!(
        baseline.migrations_local + baseline.migrations_global > 0,
        "the chaos run must actually migrate models"
    );

    let ck_dir = tmp("fleet-ck");
    std::fs::create_dir_all(&ck_dir).unwrap();
    let mut cfg = fleet_cfg();
    cfg.checkpoint_every = Some(2);
    cfg.checkpoint_dir = Some(ck_dir.to_string_lossy().into_owned());
    cfg.kill_at = Some(first);
    let killed = fleet().run(&cfg);
    assert!(killed.epochs() < FLEET_EPOCHS, "kill at {first} must truncate the run");

    let latest = ck_dir.join("latest.fmrs");
    for next_kill in [Some(second), None] {
        assert!(latest.exists(), "killed fleet run must leave a checkpoint behind");
        cfg.resume = Some(latest.to_string_lossy().into_owned());
        cfg.kill_at = next_kill;
        let resumed = fleet().run(&cfg);
        assert!(resumed.recovery.checkpoints_loaded >= 1, "resume must load a checkpoint");
        if next_kill.is_none() {
            assert_eq!(resumed.epochs(), FLEET_EPOCHS, "resumed run must finish all rounds");
            assert_eq!(
                baseline.to_csv(),
                resumed.to_csv(),
                "[fleet] kill@{:?}: resumed CSV must be byte-identical",
                [first, second]
            );
        }
    }
    let _ = std::fs::remove_dir_all(&ck_dir);
}

/// FNV-1a (64-bit) of `latest.fmrs` after `run` wrote checkpoints to `dir`.
fn latest_digest(tag: &str, run: impl FnOnce(String)) -> u64 {
    let dir = tmp(tag);
    run(dir.to_string_lossy().into_owned());
    let bytes = std::fs::read(dir.join("latest.fmrs")).expect("the run left a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The run-checkpoint bytes, pinned. The digests were taken at the commit
/// before `Wire` moved below every crate (format version 3) and hold at
/// both: a field that moves, is dropped or changes width fails here. A
/// deliberate layout change bumps `RUN_STATE_VERSION` and re-pins. The two
/// dense digests were re-taken, at the same layout, when the training
/// history started evolving without diagnostics and DP noise and
/// corruption moved to the one egress (only senders corrupt, so a
/// sign-flipper that sends nothing keeps its model).
#[test]
fn run_state_bytes_are_pinned() {
    assert_eq!(fedmigr::core::RUN_STATE_VERSION, 3);

    // (a) Dense FedMigr with every optional subsystem live: K = 10, top-k +
    // int8 with error feedback, flow transport under churn and network
    // stress, a sign-flip adversary (quarantine) and the watchdog.
    let dense = latest_digest("pin-dense", |dir| {
        let mut cfg = stressed_config(TransportConfig::flow(5));
        cfg.epochs = 12;
        cfg.fault = FaultConfig::edge_churn(0.2, 42).with_network_stress(0.3);
        cfg.watchdog = WatchdogConfig { enabled: true, ..WatchdogConfig::default() };
        cfg.checkpoint_every = Some(4);
        cfg.checkpoint_dir = Some(dir);
        assert_eq!(experiment_of(vec![4, 3, 3], 5).run(&cfg).epochs(), 12);
    });

    // (b) Dense FedSwap, stochastic rounding (the compressor's counter is
    // run state), lockstep.
    let swap = latest_digest("pin-swap", |dir| {
        let mut cfg = stressed_config(TransportConfig::Lockstep);
        cfg.scheme = Scheme::FedSwap;
        cfg.codec = CodecConfig::parse("stoch8").expect("codec spec");
        cfg.checkpoint_every = Some(5);
        cfg.checkpoint_dir = Some(dir);
        assert_eq!(experiment(5).run(&cfg).epochs(), EPOCHS);
    });

    // (c) Fleet FedMigr, K = 2,000, checkpointed at a block boundary.
    let fleet = latest_digest("pin-fleet", |dir| {
        let mut cfg = RunConfig::new(Scheme::fedmigr(11), 10);
        cfg.agg_interval = 5;
        cfg.eval_interval = 10;
        cfg.batch_size = 8;
        cfg.max_batches_per_epoch = Some(1);
        cfg.seed = 11;
        cfg.fleet = Some(FleetOptions { sample_frac: 0.02, top_m: 4 });
        cfg.checkpoint_every = Some(5);
        cfg.checkpoint_dir = Some(dir);
        let model = zoo::c10_cnn(3, 8, NetScale::Small, 11);
        assert_eq!(FleetExperiment::synthetic(2000, 8, 12, 4, 11, model).run(&cfg).epochs(), 10);
    });

    assert_eq!(
        [dense, swap, fleet].map(|digest| format!("{digest:#018x}")),
        ["0x067beb0dfeae8a65", "0x14b9722ff2142e9e", "0x291f3345846eef37"],
        "latest.fmrs of (a) dense FedMigr, (b) dense FedSwap, (c) fleet FedMigr"
    );
}

#[test]
fn watchdog_rolls_back_nan_divergence_and_converges() {
    let epochs = 14;
    let mut cfg = RunConfig::new(Scheme::FedAvg, epochs);
    cfg.agg_interval = 1;
    cfg.eval_interval = 7;
    cfg.batch_size = 16;
    cfg.lr = 0.02;
    cfg.seed = 5;
    cfg.attack = AttackConfig::nan_inject(0.3, 7);
    cfg.watchdog = WatchdogConfig { enabled: true, ..WatchdogConfig::default() };

    let metrics = experiment(5).run(&cfg);

    // The NaN upload poisons the plain mean; the watchdog must detect the
    // non-finite global, roll back and exclude the source — after which the
    // run completes every round with finite losses and a real model.
    assert_eq!(metrics.epochs(), epochs, "rollback must not end the run early");
    assert!(metrics.recovery.rollbacks >= 1, "NaN divergence must trigger a rollback");
    assert!(metrics.recovery.rounds_replayed >= 1);
    assert!(metrics.recovery.checkpoints_loaded >= 1);
    assert!(
        metrics.records.iter().all(|r| r.train_loss.is_finite()),
        "post-rollback rounds must stay finite"
    );
    assert!(metrics.final_accuracy() > 0.25, "excluding the attacker must let the run learn");

    // Recovery accounting is surfaced but stays out of the identity surface.
    let summary = metrics.recovery_summary().expect("recovery summary present");
    assert!(summary.contains("rollbacks"));
    assert!(metrics.recovery_csv().contains("rounds_replayed"));
    assert!(!metrics.to_csv().contains("rollbacks"), "to_csv stays recovery-free");
}

#[test]
fn injected_client_panics_are_contained_and_counted() {
    let mut cfg = RunConfig::new(Scheme::fedmigr(5), 6);
    cfg.agg_interval = 3;
    cfg.eval_interval = 6;
    cfg.batch_size = 16;
    cfg.seed = 5;
    // Poison two clients at specific rounds: their training threads panic
    // mid-epoch and must be contained by the runner, not propagate.
    cfg.fault.panics = vec![(0, 2), (2, 3)];

    let metrics = experiment(5).run(&cfg);

    assert_eq!(metrics.epochs(), 6, "panicking clients must not kill the run");
    assert_eq!(metrics.fault.client_panics, 2, "both injected panics counted");
    let summary = metrics.fault_summary().expect("fault summary present");
    assert!(summary.contains("panics"), "summary mentions panics: {summary}");
}
