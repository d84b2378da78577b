//! `fedmigr [run]`: builds a synthetic federation (dataset, partition, MEC
//! topology, devices), runs the selected scheme and prints a summary;
//! `--csv` also writes the per-epoch curve for external plotting.
//!
//! The flags are one table, [`command`]. Their setters only record values;
//! [`compose`] then builds the [`RunConfig`] from all of them at once (so
//! `--attack` reads `--fault-seed`, and `--scheme fedmigr` and `--transport
//! flow` read `--seed`, whatever the order) and holds it to
//! [`RunConfig::validate`] before any world is built. Partitions are dealt
//! by the same [`Partition`] the experiment table uses.

use std::process::ExitCode;

use fedmigr_bench::Partition;
use fedmigr_core::{
    CodecConfig, DiagConfig, DpConfig, Experiment, FleetExperiment, FleetOptions, RunConfig,
    RunMetrics, Scheme,
};
use fedmigr_data::{SyntheticConfig, SyntheticDataset};
use fedmigr_net::{
    AttackConfig, ClientCompute, FaultConfig, Topology, TopologyConfig, TransportConfig,
};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Model;
use fedmigr_telemetry::cli::{
    observability_flags, on, put, put_some, usage_error, Command, Flag, Observability,
};
use fedmigr_telemetry::ledger::Profile;
use fedmigr_telemetry::{info, profiler};

/// The raw values of `fedmigr run`'s flags, as the table recorded them.
#[derive(Debug, Default)]
pub struct RunArgs {
    scheme: String,
    partition: String,
    classes: usize,
    samples: usize,
    lans: Vec<usize>,
    epochs: usize,
    agg: usize,
    lr: f32,
    batch: usize,
    eval: usize,
    participation: f64,
    codec: String,
    dp_eps: Option<f64>,
    target: Option<f64>,
    dropout: Option<f64>,
    net_stress: Option<f64>,
    transport: String,
    attack: Option<String>,
    checkpoint_every: Option<usize>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    kill_at: Option<usize>,
    watchdog: bool,
    spike_factor: f64,
    max_rollbacks: usize,
    fault_seed: u64,
    fleet: bool,
    fleet_clients: usize,
    fleet_lans: usize,
    sample_frac: f64,
    top_m: usize,
    seed: u64,
    csv: Option<String>,
    diag: bool,
    flight_out: Option<String>,
    timeline_out: Option<String>,
    profile_out: Option<String>,
    profile_alloc: bool,
    obs: Observability,
}

impl AsMut<Observability> for RunArgs {
    fn as_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }
}

/// `fedmigr run`'s flag table and entry point.
#[rustfmt::skip]
pub fn command() -> Command<RunArgs> {
    let mut flags: Vec<Flag<RunArgs>> = vec![
        Flag { name: "--scheme", value: "<s>", default: "fedmigr", set: |a, v| put(&mut a.scheme, v),
            help: "fedavg | fedprox | fedswap | randmigr | fedmigr | fedasync" },
        Flag { name: "--partition", value: "<p>", default: "shards", set: |a, v| put(&mut a.partition, v),
            help: "iid | shards | dominant:<frac> | missing:<frac> | dirichlet:<alpha>" },
        Flag { name: "--classes", value: "<n>", default: "10", set: |a, v| put(&mut a.classes, v),
            help: "number of classes" },
        Flag { name: "--samples", value: "<n>", default: "80", set: |a, v| put(&mut a.samples, v),
            help: "training samples per class" },
        Flag { name: "--lans", value: "<a,b,..>", default: "4,3,3", help: "clients per LAN",
            set: |a, v| {
                let lans = v.split(',').map(str::parse::<usize>).collect::<Result<_, _>>();
                a.lans = lans.map_err(|e| e.to_string())?;
                Ok(())
            } },
        Flag { name: "--epochs", value: "<n>", default: "150", set: |a, v| put(&mut a.epochs, v),
            help: "training epochs" },
        Flag { name: "--agg", value: "<n>", default: "10", set: |a, v| put(&mut a.agg, v),
            help: "aggregation interval for migration schemes" },
        Flag { name: "--lr", value: "<f>", default: "0.01", set: |a, v| put(&mut a.lr, v),
            help: "learning rate" },
        Flag { name: "--batch", value: "<n>", default: "32", set: |a, v| put(&mut a.batch, v),
            help: "mini-batch size" },
        Flag { name: "--eval", value: "<n>", default: "10", set: |a, v| put(&mut a.eval, v),
            help: "evaluation interval" },
        Flag { name: "--participation", value: "<f>", default: "1.0", set: |a, v| put(&mut a.participation, v),
            help: "client fraction per epoch" },
        Flag { name: "--codec", value: "<c>", default: "identity", set: |a, v| put(&mut a.codec, v),
            help: "wire codec: identity | int8 | int4 | stoch8 | topk:<frac> | topk-int8:<frac>, \
                   append ,noef to disable error feedback" },
        Flag { name: "--dp-eps", value: "<f>", default: "", set: |a, v| put_some(&mut a.dp_eps, v),
            help: "enable (eps, 1e-5)-LDP on transmitted models" },
        Flag { name: "--target", value: "<f>", default: "", set: |a, v| put_some(&mut a.target, v),
            help: "stop at this test accuracy" },
        Flag { name: "--dropout", value: "<f>", default: "", set: |a, v| put_some(&mut a.dropout, v),
            help: "inject edge churn at this dropout rate in [0, 1) (crashes, stragglers, \
                   link/WAN outages; default off)" },
        Flag { name: "--net-stress", value: "<f>", default: "", set: |a, v| put_some(&mut a.net_stress, v),
            help: "inject network stress at this level in [0, 1) (flapping links, burst loss, \
                   bandwidth collapse); composes with --dropout (default off)" },
        Flag { name: "--transport", value: "<t>", default: "lockstep", set: |a, v| put(&mut a.transport, v),
            help: "lockstep | flow. flow simulates every communication phase as concurrent \
                   transfers contending for link capacity, with AIMD congestion control, \
                   timeout/retransmission state machines, per-round upload deadlines and \
                   staleness-tolerant degraded aggregation" },
        Flag { name: "--attack", value: "<spec>", default: "", set: |a, v| put_some(&mut a.attack, v),
            help: "Byzantine adversary: signflip:<frac> | gauss:<frac>:<std> | \
                   scaled:<frac>:<mult> | nan:<frac> | labelflip:<frac> (schedule seeded by \
                   --fault-seed; default off)" },
        Flag { name: "--checkpoint-every", value: "<n>", default: "", set: |a, v| put_some(&mut a.checkpoint_every, v),
            help: "snapshot the complete run state every n rounds" },
        Flag { name: "--checkpoint-dir", value: "<d>", default: "", set: |a, v| put_some(&mut a.checkpoint_dir, v),
            help: "write each snapshot to <d>/latest.fmrs, replacing the one before it (atomic \
                   rename; no per-round copies are kept; implies --checkpoint-every 1 unless \
                   set)" },
        Flag { name: "--resume", value: "<path>", default: "", set: |a, v| put_some(&mut a.resume, v),
            help: "restore a snapshot and continue the run from the round after it; the \
                   completed run is byte-identical to one that was never interrupted" },
        Flag { name: "--kill-at", value: "<n>", default: "", set: |a, v| put_some(&mut a.kill_at, v),
            help: "simulate a crash right after round n completes (chaos testing; pair with \
                   --resume to recover)" },
        Flag { name: "--watchdog", value: "", default: "", set: |a, _| on(&mut a.watchdog),
            help: "enable the divergence watchdog: when the global model goes non-finite or \
                   the loss spikes beyond --spike-factor times the trailing mean, roll back to \
                   the last good snapshot and quarantine the implicated sources" },
        Flag { name: "--spike-factor", value: "<f>", default: "4.0", set: |a, v| put(&mut a.spike_factor, v),
            help: "watchdog loss-spike threshold as a multiple of the trailing-window mean loss" },
        Flag { name: "--max-rollbacks", value: "<n>", default: "3", set: |a, v| put(&mut a.max_rollbacks, v),
            help: "watchdog rollback budget per run" },
        Flag { name: "--fault-seed", value: "<n>", default: "13", set: |a, v| put(&mut a.fault_seed, v),
            help: "seed of the fault schedule" },
        Flag { name: "--fleet", value: "", default: "", set: |a, _| on(&mut a.fleet),
            help: "fleet mode: lazy sharded client state for large populations — clients live \
                   as compact dormant stubs, each aggregation block activates only a sampled \
                   cohort, so peak memory scales with the cohort, not the fleet. Supports \
                   fedavg/fedmigr, identity codec, lockstep transport; --samples becomes the \
                   per-client holding (10-class synthetic world)" },
        Flag { name: "--fleet-clients", value: "<n>", default: "10000", set: |a, v| put(&mut a.fleet_clients, v),
            help: "fleet size K (fleet mode only)" },
        Flag { name: "--fleet-lans", value: "<n>", default: "10", set: |a, v| put(&mut a.fleet_lans, v),
            help: "number of LANs in the fleet" },
        Flag { name: "--sample-frac", value: "<f>", default: "0.05", set: |a, v| put(&mut a.sample_frac, v),
            help: "fraction of the fleet sampled into each aggregation block's cohort (fleet \
                   mode only)" },
        Flag { name: "--top-m", value: "<n>", default: "8", set: |a, v| put(&mut a.top_m, v),
            help: "factored planner shortlist width: cross-LAN migration candidates per \
                   participant" },
        Flag { name: "--seed", value: "<n>", default: "7", set: |a, v| put(&mut a.seed, v),
            help: "master seed" },
        Flag { name: "--csv", value: "<path>", default: "", set: |a, v| put_some(&mut a.csv, v),
            help: "write the per-epoch curve as CSV" },
        Flag { name: "--diag", value: "", default: "", set: |a, _| on(&mut a.diag),
            help: "enable learning-dynamics diagnostics (EMD/drift/DRL gauges and \
                   per-migration EMD-delta logs); strictly observation-only — results are \
                   byte-identical" },
        Flag { name: "--flight-out", value: "<path>", default: "", set: |a, v| put_some(&mut a.flight_out, v),
            help: "record a JSONL flight recording of the run (implies the diagnostics; \
                   inspect with fedmigr report, gate with fedmigr diff)" },
        Flag { name: "--timeline-out", value: "<path>", default: "", set: |a, v| put_some(&mut a.timeline_out, v),
            help: "record the round timeline (JSONL): per-client \
                   train/wait/upload/migrate/idle/stale intervals plus, on the flow transport, \
                   per-flow lifecycle events and per-link utilization series; \
                   observation-only — results are byte-identical (validate and analyze with \
                   fedmigr netview)" },
    ];
    let profiling: [Flag<RunArgs>; 2] = [
        Flag { name: "--profile-out", value: "<path>", default: "", set: |a, v| put_some(&mut a.profile_out, v),
            help: "enable the in-process profiler and write a collapsed-stack report \
                   (flamegraph.pl / inferno input) at exit; observation-only — results are \
                   byte-identical with profiling on or off" },
        Flag { name: "--profile-alloc", value: "", default: "", set: |a, _| on(&mut a.profile_alloc),
            help: "also count allocations per profiled scope (needs --profile-out; writes \
                   <path>.alloc)" },
    ];
    flags.extend(observability_flags());
    flags.extend(profiling);
    let about = "federated learning with intelligent model migration (`run` may be omitted)";
    Command::new("run", "", about, flags, run)
}

/// Builds the [`RunConfig`] (and the dense data layout) from every flag at
/// once and holds it to [`RunConfig::validate`]. `Err` is a usage error.
fn compose(a: &RunArgs) -> Result<(RunConfig, Partition), String> {
    let scheme = match a.scheme.as_str() {
        "fedavg" => Scheme::FedAvg,
        "fedprox" => Scheme::fedprox(),
        "fedswap" => Scheme::FedSwap,
        "randmigr" => Scheme::RandMigr,
        "fedmigr" => Scheme::fedmigr(a.seed),
        "fedasync" => Scheme::fedasync(),
        other => return Err(format!("unknown scheme {other:?}")),
    };
    let partition = Partition::parse(&a.partition)?;
    let mut cfg = RunConfig::new(scheme, a.epochs);
    cfg.agg_interval = a.agg;
    cfg.lr = a.lr;
    cfg.batch_size = a.batch;
    cfg.eval_interval = a.eval;
    cfg.participation = a.participation;
    cfg.target_accuracy = a.target;
    cfg.dp = a.dp_eps.map(DpConfig::with_epsilon);
    cfg.codec = CodecConfig::parse(&a.codec).ok_or(format!("unknown codec {:?}", a.codec))?;
    if let Some(dropout) = a.dropout {
        if !(0.0..1.0).contains(&dropout) {
            return Err(format!("--dropout must be in [0, 1), got {dropout}"));
        }
        cfg.fault = FaultConfig::edge_churn(dropout, a.fault_seed);
    }
    if let Some(stress) = a.net_stress {
        if !(0.0..1.0).contains(&stress) {
            return Err(format!("--net-stress must be in [0, 1), got {stress}"));
        }
        cfg.fault.seed = a.fault_seed;
        cfg.fault = cfg.fault.with_network_stress(stress);
    }
    cfg.transport = match a.transport.as_str() {
        "lockstep" => TransportConfig::Lockstep,
        "flow" => TransportConfig::flow(a.seed),
        other => return Err(format!("unknown transport {other:?}")),
    };
    if let Some(spec) = &a.attack {
        cfg.attack = parse_attack(spec, a.fault_seed)?;
    }
    // A checkpoint directory without an explicit cadence snapshots every round.
    cfg.checkpoint_every = a.checkpoint_every.or(a.checkpoint_dir.as_ref().map(|_| 1));
    cfg.checkpoint_dir = a.checkpoint_dir.clone();
    cfg.resume = a.resume.clone();
    cfg.kill_at = a.kill_at;
    cfg.watchdog.enabled = a.watchdog;
    cfg.watchdog.spike_factor = a.spike_factor;
    cfg.watchdog.max_rollbacks = a.max_rollbacks;
    cfg.seed = a.seed;
    // Kernel accounting feeds the summary's per-phase GFLOP/s table.
    // Observation-only (results are byte-identical either way), so the CLI
    // always has it on.
    cfg.diag = DiagConfig {
        enabled: a.diag,
        flight_out: a.flight_out.clone(),
        timeline_out: a.timeline_out.clone(),
        kcount: true,
        profile: match (&a.profile_out, a.profile_alloc) {
            (None, _) => Profile::Off,
            (Some(_), false) => Profile::Frames,
            (Some(_), true) => Profile::FramesAndAllocs,
        },
    };
    // The world builders deal every LAN a client and every client a sample.
    if a.samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    if a.fleet && (a.fleet_lans == 0 || a.fleet_clients < a.fleet_lans) {
        return Err("--fleet needs at least one LAN and one client per LAN".into());
    }
    let clients: usize = a.lans.iter().sum();
    if !a.fleet && (clients == 0 || a.samples.saturating_mul(a.classes) < clients) {
        return Err("--lans needs a client, and --samples × --classes one sample per client".into());
    }
    if a.fleet {
        if a.partition != "shards" {
            return Err(
                "--fleet draws per-client label marginals itself; --partition is not supported"
                    .into(),
            );
        }
        if a.classes != 10 {
            return Err(
                "--fleet runs the 10-class synthetic world; --classes is not supported".into()
            );
        }
        cfg.fleet = Some(FleetOptions { sample_frac: a.sample_frac, top_m: a.top_m });
    }
    if a.profile_alloc && a.profile_out.is_none() {
        return Err("--profile-alloc needs --profile-out".into());
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok((cfg, partition))
}

fn parse_attack(spec: &str, seed: u64) -> Result<AttackConfig, String> {
    let bad = || format!("bad attack spec {spec:?}");
    let mut parts = spec.split(':');
    let kind = parts.next().ok_or_else(bad)?;
    let mut num = |what: &str| -> Result<f64, String> {
        let value = parts.next().and_then(|v| v.parse().ok());
        value.ok_or_else(|| format!("attack spec {spec:?}: bad or missing {what}"))
    };
    let cfg = match kind {
        "signflip" => AttackConfig::sign_flip(num("fraction")?, seed),
        "gauss" => {
            let frac = num("fraction")?;
            AttackConfig::gaussian(frac, num("std")?, seed)
        }
        "scaled" => {
            let frac = num("fraction")?;
            AttackConfig::scaled(frac, num("multiplier")?, seed)
        }
        "nan" => AttackConfig::nan_inject(num("fraction")?, seed),
        "labelflip" => AttackConfig::label_flip(num("fraction")?, seed),
        _ => return Err(bad()),
    };
    match parts.next() {
        Some(_) => Err(bad()),
        None => Ok(cfg),
    }
}

fn run(a: RunArgs) -> ExitCode {
    let (cfg, partition) = match compose(&a) {
        Ok(composed) => composed,
        Err(e) => return usage_error("run", &e),
    };
    // A checkpoint that cannot be resumed is refused before any world is
    // built; only the model is, for its parameter count.
    let model = zoo::c10_cnn(3, 8, NetScale::Small, a.seed);
    let clients = if a.fleet { a.fleet_clients } else { a.lans.iter().sum() };
    if let Err(e) = cfg.check_resume(clients, model.num_params()) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    // A dense deal that leaves a client without data is refused before any
    // instrument opens its output.
    let dense = match (!a.fleet).then(|| dense_data(&a, partition)).transpose() {
        Ok(dense) => dense,
        Err(e) => return usage_error("run", &e),
    };
    if let Err(e) = a.obs.init() {
        return usage_error("run", &e);
    }
    let metrics = match dense {
        Some(data) => run_dense(&a, &cfg, data, model),
        None => run_fleet(&a, &cfg, model),
    };
    print_summary(&metrics, a.fleet);

    // Every artifact is attempted; any failed write ends the run with 2.
    let mut failed = Vec::new();
    let mut write = |flag: &str, path: &str, body: Result<String, String>| match body
        .and_then(|body| std::fs::write(path, body).map_err(|e| e.to_string()))
    {
        Ok(()) => info!("cli", "wrote {path}"),
        Err(e) => failed.push(format!("failed to write {flag}{path}: {e}")),
    };
    if let Some(path) = &a.csv {
        write("--csv ", path, Ok(metrics.to_csv()));
    }
    // The run profiled on this thread, so its frames are in this thread's
    // ledger, its workers' merged in.
    if let Some(path) = &a.profile_out {
        write("--profile-out ", path, Ok(profiler::collapsed_report()));
        if a.profile_alloc {
            write("", &format!("{path}.alloc"), Ok(profiler::alloc_report()));
        }
    }
    failed.extend(a.obs.finish().err());
    failed.iter().for_each(|e| eprintln!("error: {e}"));
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn print_summary(metrics: &RunMetrics, fleet: bool) {
    println!("scheme:           {}", metrics.scheme);
    println!("epochs run:       {}", metrics.epochs());
    println!("best accuracy:    {:.2}%", 100.0 * metrics.best_accuracy());
    println!("final accuracy:   {:.2}%", 100.0 * metrics.final_accuracy());
    let t = metrics.traffic();
    println!(
        "traffic:          {:.2} MB total (C2S {:.2}, LAN C2C {:.2}, cross-LAN C2C {:.2})",
        t.total() as f64 / 1e6,
        t.c2s as f64 / 1e6,
        t.c2c_local as f64 / 1e6,
        t.c2c_global as f64 / 1e6
    );
    println!("virtual time:     {:.1} s", metrics.sim_time());
    if let Some(phases) = metrics.phase_summary() {
        println!("{phases}");
    }
    if let Some(table) = fedmigr_core::kernels::kernel_table() {
        print!("{table}");
    }
    println!(
        "migrations:       {} local, {} cross-LAN",
        metrics.migrations_local, metrics.migrations_global
    );
    if fleet {
        if let Some(rss) = fedmigr_telemetry::rss::peak_rss_bytes() {
            println!("peak RSS:         {:.1} MB", rss as f64 / 1e6);
        }
    }
    let summaries = [
        metrics.fault_summary(),
        metrics.robust_summary(),
        metrics.recovery_summary(),
        metrics.compression_summary(),
        metrics.transport_summary(),
    ];
    summaries.into_iter().flatten().for_each(|line| println!("{line}"));
    if metrics.target_reached {
        println!("stopped early:    target accuracy reached");
    }
    if metrics.budget_exhausted {
        println!("stopped early:    resource budget exhausted");
    }
}

/// The dense federation's data: the synthetic dataset and its deal. `Err`
/// when the deal leaves a client without data.
fn dense_data(
    a: &RunArgs,
    partition: Partition,
) -> Result<(SyntheticDataset, Vec<Vec<usize>>), String> {
    let data_cfg =
        SyntheticConfig { num_classes: a.classes, ..SyntheticConfig::c10_like(a.samples, a.seed) };
    let data = SyntheticDataset::generate(&data_cfg);
    let parts = partition.deal(&data.train, &a.lans, a.seed)?;
    Ok((data, parts))
}

/// Builds the dense federation (dataset, partition, full topology) and runs
/// the selected scheme over materialised clients.
fn run_dense(
    a: &RunArgs,
    cfg: &RunConfig,
    (data, parts): (SyntheticDataset, Vec<Vec<usize>>),
    model: Model,
) -> RunMetrics {
    let k: usize = a.lans.iter().sum();
    let topo = Topology::new(&TopologyConfig::default_edge(a.lans.clone(), a.seed));
    let exp =
        Experiment::new(data.train, data.test, parts, topo, ClientCompute::testbed_mix(k), model);
    info!(
        "cli",
        "running {} on {k} clients ({} classes, partition {}) for up to {} epochs...",
        cfg.scheme.name(),
        a.classes,
        a.partition,
        a.epochs
    );
    exp.run(cfg)
}

/// Builds the lazy sharded fleet (dormant stubs, O(LANs) topology) and runs
/// the selected scheme with per-block cohort activation.
fn run_fleet(a: &RunArgs, cfg: &RunConfig, model: Model) -> RunMetrics {
    info!(
        "cli",
        "running {} on a fleet of {} clients across {} LANs (cohort {:.1}%) for up to {} \
         epochs...",
        cfg.scheme.name(),
        a.fleet_clients,
        a.fleet_lans,
        100.0 * a.sample_frac,
        a.epochs
    );
    let mut exp =
        FleetExperiment::synthetic(a.fleet_clients, a.fleet_lans, a.samples, 16, a.seed, model);
    exp.run(cfg)
}
