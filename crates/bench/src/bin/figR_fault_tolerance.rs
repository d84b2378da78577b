//! Fig. R (robustness): fault tolerance under edge churn. Sweeps the
//! dropout rate of the [`fedmigr_net::FaultConfig::edge_churn`] preset
//! across every scheme and reports final accuracy next to the fault
//! accounting (drop-epochs, retries, rerouted/cancelled migrations and
//! wasted bytes).
//!
//! Expected shape: all schemes degrade gracefully as churn grows; the
//! migration schemes reroute rather than cancel while links still have
//! live same-LAN relays, and FedMigr's liveness-aware oracle keeps its
//! cancelled-migration count below RandMigr's at the same dropout rate.
//!
//! Usage: `figR_fault_tolerance [--scale smoke|paper]`

use fedmigr_bench::{
    all_schemes, build_experiment, fmt_hours, fmt_mb, print_header, print_row, standard_config,
    Partition, Scale, Workload,
};
use fedmigr_core::Scheme;
use fedmigr_net::{FaultConfig, TransportConfig};

fn main() {
    let _obs = fedmigr_bench::init_observability("figR_fault_tolerance");
    let scale = Scale::from_args();
    let seed = 61;
    let fault_seed = 17;
    let dropouts = [0.0, 0.1, 0.3, 0.5];
    let exp = build_experiment(Workload::C10, Partition::Shards, scale, seed);

    println!("# Fig. R: fault tolerance under edge churn (dropout sweep)\n");
    print_header(&[
        "scheme",
        "dropout",
        "final acc",
        "drop-epochs",
        "stale",
        "retries",
        "rerouted",
        "cancelled",
        "wasted (MB)",
        "time (h)",
    ]);

    for scheme in all_schemes(seed) {
        for &dropout in &dropouts {
            let mut cfg = standard_config(scheme.clone(), scale, seed);
            cfg.fault = if dropout == 0.0 {
                FaultConfig::none()
            } else {
                FaultConfig::edge_churn(dropout, fault_seed)
            };
            let m = exp.run(&cfg);
            assert_eq!(m.epochs(), cfg.epochs, "faults must never truncate a run");
            print_row(&[
                scheme.name(),
                format!("{dropout:.1}"),
                format!("{:.4}", m.final_accuracy()),
                m.fault.client_drops.to_string(),
                m.fault.stale_client_epochs.to_string(),
                m.fault.transfer_retries.to_string(),
                m.fault.rerouted_migrations.to_string(),
                m.fault.cancelled_migrations.to_string(),
                fmt_mb(m.fault.wasted_bytes),
                fmt_hours(m.sim_time()),
            ]);
        }
    }

    println!(
        "\nFault schedule seed {fault_seed}; dropout 0.0 rows run with the \
         fault layer disabled and must show all-zero fault counters."
    );

    // --- Flow transport under contention + burst loss -----------------------
    //
    // The event-driven transport replaces lockstep's nominal latencies with
    // simulated completion times: flows share links, time out, back off and
    // retransmit. Each scheme runs once on a clean flow network and once
    // under `with_network_stress` (flapping links, burst loss, bandwidth
    // collapse). Late uploads are folded into the next aggregation with a
    // staleness discount rather than stalling the round, so every run must
    // still complete all its epochs and land close to its clean-flow accuracy.
    let stress = 0.3;
    println!("\n# Flow transport: clean vs. network stress {stress}\n");
    print_header(&[
        "scheme",
        "condition",
        "final acc",
        "acc gap",
        "retransmits",
        "timeouts",
        "late",
        "stale folded",
        "stale dropped",
        "queue p99 (s)",
        "time (h)",
    ]);

    for scheme in all_schemes(seed) {
        let mut clean_acc = 0.0;
        for (cond, stressed) in [("clean", false), ("stress", true)] {
            let mut cfg = standard_config(scheme.clone(), scale, seed);
            cfg.transport = TransportConfig::flow(seed);
            if stressed {
                cfg.fault.seed = fault_seed;
                cfg.fault = cfg.fault.with_network_stress(stress);
            }
            let m = exp.run(&cfg);
            assert_eq!(m.epochs(), cfg.epochs, "flow transport must never stall a round");
            let gap = if stressed {
                clean_acc - m.final_accuracy()
            } else {
                clean_acc = m.final_accuracy();
                0.0
            };
            let t = m.transport_stats;
            print_row(&[
                scheme.name(),
                cond.to_string(),
                format!("{:.4}", m.final_accuracy()),
                format!("{gap:+.4}"),
                t.retransmits.to_string(),
                t.timeouts.to_string(),
                t.late_uploads.to_string(),
                t.stale_updates_folded.to_string(),
                t.stale_updates_dropped.to_string(),
                format!("{:.3}", t.queue_delay_p99),
                fmt_hours(m.sim_time()),
            ]);
            assert!(
                gap <= 0.02,
                "{}: stressed accuracy must stay within 2 points of the clean \
                 flow run (gap {gap:.4})",
                scheme.name()
            );
        }
    }

    println!(
        "\nFlow rows use --transport=flow (seed {seed}); stress rows add \
         with_network_stress({stress}) on fault seed {fault_seed}. Late uploads \
         are folded with a staleness discount, never stalled on."
    );

    // --- Crash recovery: kill-and-resume identity ---------------------------
    //
    // Every scheme runs three times under moderate churn: uninterrupted,
    // killed mid-run (simulated crash right after a checkpointed round), and
    // resumed from the latest snapshot. The resumed run's CSV export must be
    // byte-identical to the uninterrupted one — the crash-safety contract of
    // DESIGN.md §14 — and the table reports what that safety costs in
    // snapshot volume. Shorter runs than the sweeps above: the contract is
    // length-independent and this keeps the bench affordable.
    let recovery_epochs = 60;
    let kill_at = 25;
    let ckpt_every = 5;
    println!("\n# Crash recovery: kill at round {kill_at}, resume from latest snapshot\n");
    print_header(&[
        "scheme",
        "rounds",
        "ckpts",
        "snapshot (MB)",
        "loaded",
        "replayed",
        "csv identical",
    ]);

    for scheme in all_schemes(seed) {
        let mut cfg = standard_config(scheme.clone(), scale, seed);
        cfg.epochs = recovery_epochs;
        cfg.fault = FaultConfig::edge_churn(0.1, fault_seed);
        let baseline = exp.run(&cfg);

        let mut chaos = cfg.clone();
        chaos.checkpoint_every = Some(ckpt_every);
        let dir =
            std::env::temp_dir().join(format!("figR-ck-{}-{}", std::process::id(), scheme.name()));
        std::fs::create_dir_all(&dir).expect("checkpoint dir");
        chaos.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        chaos.kill_at = Some(kill_at);
        let killed = exp.run(&chaos);
        assert!(killed.epochs() < recovery_epochs, "kill must truncate the run");

        chaos.resume = Some(dir.join("latest.fmrs").to_string_lossy().into_owned());
        chaos.kill_at = None;
        let resumed = exp.run(&chaos);
        let identical = baseline.to_csv() == resumed.to_csv();
        let r = &resumed.recovery;
        print_row(&[
            scheme.name(),
            format!("{}", resumed.epochs()),
            (killed.recovery.checkpoints_written + r.checkpoints_written).to_string(),
            fmt_mb(killed.recovery.checkpoint_bytes + r.checkpoint_bytes),
            r.checkpoints_loaded.to_string(),
            r.rounds_replayed.to_string(),
            if identical { "yes".into() } else { "NO".to_string() },
        ]);
        assert!(
            identical,
            "{}: killed-and-resumed run must be byte-identical to the \
             uninterrupted one",
            scheme.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Divergence watchdog: NaN-injection rollback ------------------------
    //
    // A NaN-injecting Byzantine minority against the plain FedAvg mean
    // destroys the global model in one aggregation. With the watchdog armed,
    // the non-finite global trips a rollback to the last good snapshot, the
    // implicated sources are excluded and quarantined, and the run converges
    // on the surviving clients.
    println!("\n# Divergence watchdog: 30% NaN-injection adversary vs. plain FedAvg\n");
    print_header(&["watchdog", "final acc", "rollbacks", "replayed", "rounds"]);
    for armed in [false, true] {
        let mut cfg = standard_config(Scheme::FedAvg, scale, seed);
        cfg.epochs = recovery_epochs;
        cfg.agg_interval = 1;
        cfg.attack = fedmigr_net::AttackConfig::nan_inject(0.3, fault_seed);
        cfg.watchdog.enabled = armed;
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), recovery_epochs);
        print_row(&[
            if armed { "armed" } else { "off" }.to_string(),
            format!("{:.4}", m.final_accuracy()),
            m.recovery.rollbacks.to_string(),
            m.recovery.rounds_replayed.to_string(),
            m.epochs().to_string(),
        ]);
        if armed {
            assert!(m.recovery.rollbacks >= 1, "NaN divergence must trigger a rollback");
            assert!(
                m.records.iter().all(|r| r.train_loss.is_finite()),
                "post-rollback rounds must stay finite"
            );
        }
    }

    println!(
        "\nRecovery rows checkpoint every {ckpt_every} rounds under 10% churn; \
         the resumed CSV is asserted byte-identical to the uninterrupted run. \
         Watchdog rows pit AttackConfig::nan_inject(0.3) against the plain \
         FedAvg mean: unarmed, the first poisoned aggregation wrecks the \
         model; armed, the run rolls back, excludes the sources and recovers."
    );
}
