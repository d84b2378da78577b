//! `fedmigr` — command-line front end for the FedMigr experiment runner.
//!
//! ```text
//! fedmigr --scheme fedmigr --partition shards --epochs 150 --csv run.csv
//! ```
//!
//! Builds a synthetic federation (dataset, partition, MEC topology,
//! devices), runs the selected scheme and prints a summary; `--csv` also
//! writes the per-epoch curve for external plotting. Run with `--help` for
//! the full flag list.

use fedmigr::core::{
    CodecConfig, DiagConfig, DpConfig, Experiment, FleetExperiment, FleetOptions, RunConfig,
    RunMetrics, Scheme,
};
use fedmigr::data::{
    partition_dirichlet, partition_dominant, partition_iid, partition_missing_classes,
    partition_shards, SyntheticConfig, SyntheticDataset,
};
use fedmigr::net::{
    AttackConfig, ClientCompute, FaultConfig, Topology, TopologyConfig, TransportConfig,
};
use fedmigr::nn::zoo::{self, NetScale};
use fedmigr_telemetry::{error, info, Filter};

/// Counting allocator behind `--profile-alloc`: forwards to the system
/// allocator and, only while alloc profiling is enabled, attributes
/// allocations to the innermost profiled scope.
#[global_allocator]
static ALLOC: fedmigr_telemetry::profiler::CountingAlloc =
    fedmigr_telemetry::profiler::CountingAlloc;

const HELP: &str = "\
fedmigr — federated learning with intelligent model migration

USAGE:
    fedmigr [OPTIONS]

OPTIONS:
    --scheme <s>         fedavg | fedprox | fedswap | randmigr | fedmigr | fedasync
                         (default fedmigr)
    --partition <p>      iid | shards | dominant:<frac> | missing:<frac> |
                         dirichlet:<alpha>   (default shards)
    --classes <n>        number of classes (default 10)
    --samples <n>        training samples per class (default 80)
    --lans <a,b,..>      clients per LAN (default 4,3,3)
    --epochs <n>         training epochs (default 150)
    --agg <n>            aggregation interval for migration schemes (default 10)
    --lr <f>             learning rate (default 0.01)
    --batch <n>          mini-batch size (default 32)
    --eval <n>           evaluation interval (default 10)
    --participation <f>  client fraction per epoch (default 1.0)
    --codec <c>          wire codec: identity | int8 | int4 | stoch8 |
                         topk:<frac> | topk-int8:<frac>, append ,noef to
                         disable error feedback (default identity)
    --dp-eps <f>         enable (eps, 1e-5)-LDP on transmitted models
    --target <f>         stop at this test accuracy
    --dropout <f>        inject edge churn at this dropout rate in [0, 1)
                         (crashes, stragglers, link/WAN outages; default off)
    --net-stress <f>     inject network stress at this level in [0, 1)
                         (flapping links, burst loss, bandwidth collapse);
                         composes with --dropout (default off)
    --transport <t>      lockstep | flow (default lockstep). flow simulates
                         every communication phase as concurrent transfers
                         contending for link capacity, with AIMD congestion
                         control, timeout/retransmission state machines,
                         per-round upload deadlines and staleness-tolerant
                         degraded aggregation
    --attack <spec>      Byzantine adversary: signflip:<frac> | gauss:<frac>:<std> |
                         scaled:<frac>:<mult> | nan:<frac> | labelflip:<frac>
                         (schedule seeded by --fault-seed; default off)
    --checkpoint-every <n>  snapshot the complete run state every n rounds
    --checkpoint-dir <d> write snapshots to <d> as ckpt_round_<r>.fmrs plus a
                         rolling latest.fmrs (atomic rename; implies
                         --checkpoint-every 1 unless set)
    --resume <path>      restore a snapshot and continue the run from the
                         round after it; the completed run is byte-identical
                         to one that was never interrupted
    --kill-at <n>        simulate a crash right after round n completes
                         (chaos testing; pair with --resume to recover)
    --watchdog           enable the divergence watchdog: when the global
                         model goes non-finite or the loss spikes beyond
                         --spike-factor times the trailing mean, roll back to
                         the last good snapshot and quarantine the implicated
                         sources
    --spike-factor <f>   watchdog loss-spike threshold as a multiple of the
                         trailing-window mean loss (default 4.0)
    --max-rollbacks <n>  watchdog rollback budget per run (default 3)
    --fault-seed <n>     seed of the fault schedule (default 13)
    --fleet              fleet mode: lazy sharded client state for large
                         populations — clients live as compact dormant stubs,
                         each aggregation block activates only a sampled
                         cohort, so peak memory scales with the cohort, not
                         the fleet. Supports fedavg/fedmigr, identity codec,
                         lockstep transport; --samples becomes the per-client
                         holding (10-class synthetic world)
    --fleet-clients <n>  fleet size K (default 10000; fleet mode only)
    --fleet-lans <n>     number of LANs in the fleet (default 10)
    --sample-frac <f>    fraction of the fleet sampled into each aggregation
                         block's cohort (default 0.05; fleet mode only)
    --top-m <n>          factored planner shortlist width: cross-LAN migration
                         candidates per participant (default 8)
    --seed <n>           master seed (default 7)
    --csv <path>         write the per-epoch curve as CSV
    --diag               enable learning-dynamics diagnostics (EMD/drift/DRL
                         gauges and per-migration EMD-delta logs); strictly
                         observation-only — results are byte-identical
    --flight-out <path>  record a JSONL flight recording of the run (implies
                         the diagnostics; inspect with fedmigr_report,
                         gate with fedmigr_diff)
    --timeline-out <path> record the round timeline (JSONL): per-client
                         train/wait/upload/migrate/idle/stale intervals plus,
                         on the flow transport, per-flow lifecycle events and
                         per-link utilization series; observation-only —
                         results are byte-identical (validate and analyze
                         with fedmigr_netview)
    --chrome-out <path>  also convert the timeline to Chrome trace-event
                         JSON viewable in Perfetto (needs --timeline-out)
    --log-level <spec>   log verbosity: error|warn|info|debug|trace, with
                         per-target overrides like debug,drl=trace,net=off
                         (default info; FEDMIGR_LOG is honoured too)
    --trace-out <path>   write a JSONL trace of spans and log events
    --metrics-out <path> write a Prometheus-style metrics dump at exit
    --profile-out <path> enable the in-process profiler and write a
                         collapsed-stack report (flamegraph.pl / inferno
                         input) at exit; observation-only — results are
                         byte-identical with profiling on or off
    --profile-alloc      also count allocations per profiled scope (needs
                         --profile-out; writes <path>.alloc)
    --no-kcount          disable kernel FLOP/byte accounting and the
                         per-phase kernel table in the summary
    --help               print this help
";

fn main() {
    let args = Args::parse();
    // Same precedence as the bench binaries: flag > FEDMIGR_LOG > default.
    let log_env = std::env::var("FEDMIGR_LOG").ok();
    match Filter::resolve(args.log_level.as_deref(), log_env.as_deref()) {
        Ok(f) => fedmigr_telemetry::set_filter(f),
        Err(e) if args.log_level.is_some() => die(&format!("--log-level: {e}")),
        Err(e) => error!("cli", "ignoring FEDMIGR_LOG: {e}"),
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = fedmigr_telemetry::set_trace_file(path) {
            die(&format!("--trace-out {path}: {e}"));
        }
    }
    // Kernel accounting feeds the per-phase GFLOP/s table. Observation-only
    // (results are byte-identical either way), so it defaults to on.
    fedmigr::tensor::kcount::set_enabled(!args.no_kcount);
    if args.profile_alloc && args.profile_out.is_none() {
        die("--profile-alloc needs --profile-out");
    }
    if args.profile_out.is_some() {
        fedmigr_telemetry::profiler::set_enabled(true);
        fedmigr_telemetry::profiler::set_alloc_enabled(args.profile_alloc);
    }
    let scheme = match args.scheme.as_str() {
        "fedavg" => Scheme::FedAvg,
        "fedprox" => Scheme::fedprox(),
        "fedswap" => Scheme::FedSwap,
        "randmigr" => Scheme::RandMigr,
        "fedmigr" => Scheme::fedmigr(args.seed),
        "fedasync" => Scheme::fedasync(),
        other => die(&format!("unknown scheme {other:?}")),
    };
    let mut cfg = RunConfig::new(scheme, args.epochs);
    cfg.agg_interval = args.agg;
    cfg.lr = args.lr;
    cfg.batch_size = args.batch;
    cfg.eval_interval = args.eval;
    cfg.participation = args.participation;
    cfg.target_accuracy = args.target;
    cfg.dp = args.dp_eps.map(DpConfig::with_epsilon);
    cfg.codec = CodecConfig::parse(&args.codec)
        .unwrap_or_else(|| die(&format!("unknown codec {:?} (try --help)", args.codec)));
    if let Some(dropout) = args.dropout {
        if !(0.0..1.0).contains(&dropout) {
            die(&format!("--dropout must be in [0, 1), got {dropout}"));
        }
        cfg.fault = FaultConfig::edge_churn(dropout, args.fault_seed);
    }
    if let Some(stress) = args.net_stress {
        if !(0.0..1.0).contains(&stress) {
            die(&format!("--net-stress must be in [0, 1), got {stress}"));
        }
        cfg.fault.seed = args.fault_seed;
        cfg.fault = cfg.fault.with_network_stress(stress);
    }
    cfg.transport = match args.transport.as_str() {
        "lockstep" => TransportConfig::Lockstep,
        "flow" => TransportConfig::flow(args.seed),
        other => die(&format!("unknown transport {other:?} (try --help)")),
    };
    if let Some(spec) = &args.attack {
        cfg.attack = parse_attack(spec, args.fault_seed);
    }
    // A checkpoint directory without an explicit cadence snapshots every round.
    cfg.checkpoint_every = args.checkpoint_every.or(args.checkpoint_dir.as_ref().map(|_| 1));
    cfg.checkpoint_dir = args.checkpoint_dir.clone();
    cfg.resume = args.resume.clone();
    cfg.kill_at = args.kill_at;
    cfg.watchdog.enabled = args.watchdog;
    if let Some(f) = args.spike_factor {
        cfg.watchdog.spike_factor = f;
    }
    if let Some(n) = args.max_rollbacks {
        cfg.watchdog.max_rollbacks = n;
    }
    cfg.seed = args.seed;
    if args.chrome_out.is_some() && args.timeline_out.is_none() {
        die("--chrome-out needs --timeline-out");
    }
    cfg.diag = DiagConfig {
        enabled: args.diag,
        flight_out: args.flight_out.clone(),
        timeline_out: args.timeline_out.clone(),
    };

    let metrics = if args.fleet { run_fleet(&args, cfg) } else { run_dense(&args, cfg) };

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
    if let Some(table) = fedmigr::core::kernels::kernel_table() {
        print!("{table}");
    }
    println!(
        "migrations:       {} local, {} cross-LAN",
        metrics.migrations_local, metrics.migrations_global
    );
    if args.fleet {
        if let Some(rss) = fedmigr_telemetry::rss::peak_rss_bytes() {
            println!("peak RSS:         {:.1} MB", rss as f64 / 1e6);
        }
    }
    if let Some(faults) = metrics.fault_summary() {
        println!("{faults}");
    }
    if let Some(recovery) = metrics.recovery_summary() {
        println!("{recovery}");
    }
    if let Some(compression) = metrics.compression_summary() {
        println!("{compression}");
    }
    if let Some(transport) = metrics.transport_summary() {
        println!("{transport}");
    }
    if metrics.target_reached {
        println!("stopped early:    target accuracy reached");
    }
    if metrics.budget_exhausted {
        println!("stopped early:    resource budget exhausted");
    }
    if let Some(path) = &args.csv {
        write_artifact("--csv ", path, std::fs::write(path, metrics.to_csv()));
    }
    if let Some(path) = &args.metrics_out {
        let dump = fedmigr_telemetry::render_metrics();
        write_artifact("--metrics-out ", path, std::fs::write(path, dump));
    }
    if let Some(path) = &args.profile_out {
        let report = fedmigr_telemetry::profiler::collapsed_report();
        write_artifact("--profile-out ", path, std::fs::write(path, report));
        if args.profile_alloc {
            let apath = format!("{path}.alloc");
            let report = fedmigr_telemetry::profiler::alloc_report();
            write_artifact("", &apath, std::fs::write(&apath, report));
        }
    }
    if let (Some(chrome), Some(timeline)) = (&args.chrome_out, &args.timeline_out) {
        let converted = std::fs::read_to_string(timeline)
            .map_err(|e| e.to_string())
            .and_then(|text| fedmigr::diag::TimelineRecording::parse(&text))
            .and_then(|rec| {
                std::fs::write(chrome, fedmigr::diag::chrome_trace(&rec)).map_err(|e| e.to_string())
            });
        write_artifact("--chrome-out ", chrome, converted);
    }
    if args.trace_out.is_some() {
        fedmigr_telemetry::close_trace();
    }
}

/// Builds the dense federation (dataset, partition, full topology) and runs
/// the selected scheme over materialised clients.
fn run_dense(args: &Args, cfg: RunConfig) -> RunMetrics {
    let data_cfg = SyntheticConfig {
        num_classes: args.classes,
        ..SyntheticConfig::c10_like(args.samples, args.seed)
    };
    let data = SyntheticDataset::generate(&data_cfg);
    let k: usize = args.lans.iter().sum();
    let parts = match args.partition.as_str() {
        "iid" => partition_iid(&data.train, k, args.seed),
        "shards" => {
            let per = (data.train.num_classes() / k).max(1);
            partition_shards(&data.train, k, per, args.seed)
        }
        p if p.starts_with("dominant:") => {
            partition_dominant(&data.train, k, parse_suffix(p), args.seed)
        }
        p if p.starts_with("missing:") => {
            partition_missing_classes(&data.train, k, parse_suffix(p), args.seed)
        }
        p if p.starts_with("dirichlet:") => {
            partition_dirichlet(&data.train, k, parse_suffix(p), args.seed)
        }
        other => die(&format!("unknown partition {other:?}")),
    };
    let topo = Topology::new(&TopologyConfig::default_edge(args.lans.clone(), args.seed));
    let exp = Experiment::new(
        data.train,
        data.test,
        parts,
        topo,
        ClientCompute::testbed_mix(k),
        zoo::c10_cnn(3, 8, NetScale::Small, args.seed),
    );
    info!(
        "cli",
        "running {} on {k} clients ({} classes, partition {}) for up to {} epochs...",
        cfg.scheme.name(),
        args.classes,
        args.partition,
        args.epochs
    );
    exp.run(&cfg)
}

/// Builds the lazy sharded fleet (dormant stubs, O(LANs) topology) and runs
/// the selected scheme with per-block cohort activation.
fn run_fleet(args: &Args, mut cfg: RunConfig) -> RunMetrics {
    if args.partition != "shards" {
        die("--fleet draws per-client label marginals itself; --partition is not supported");
    }
    if args.classes != 10 {
        die("--fleet runs the 10-class synthetic world; --classes is not supported");
    }
    if !(0.0..=1.0).contains(&args.sample_frac) || args.sample_frac <= 0.0 {
        die(&format!("--sample-frac must be in (0, 1], got {}", args.sample_frac));
    }
    cfg.fleet = Some(FleetOptions { sample_frac: args.sample_frac, top_m: args.top_m });
    info!(
        "cli",
        "running {} on a fleet of {} clients across {} LANs (cohort {:.1}%) for up to {} \
         epochs...",
        cfg.scheme.name(),
        args.fleet_clients,
        args.fleet_lans,
        100.0 * args.sample_frac,
        args.epochs
    );
    let mut exp = FleetExperiment::synthetic(
        args.fleet_clients,
        args.fleet_lans,
        args.samples,
        16,
        args.seed,
        zoo::c10_cnn(3, 8, NetScale::Small, args.seed),
    );
    exp.run(&cfg)
}

struct Args {
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
    spike_factor: Option<f64>,
    max_rollbacks: Option<usize>,
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
    chrome_out: Option<String>,
    log_level: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile_out: Option<String>,
    profile_alloc: bool,
    no_kcount: bool,
}

impl Args {
    fn parse() -> Self {
        let mut out = Self {
            scheme: "fedmigr".into(),
            partition: "shards".into(),
            classes: 10,
            samples: 80,
            lans: vec![4, 3, 3],
            epochs: 150,
            agg: 10,
            lr: 0.01,
            batch: 32,
            eval: 10,
            participation: 1.0,
            codec: "identity".into(),
            dp_eps: None,
            target: None,
            dropout: None,
            net_stress: None,
            transport: "lockstep".into(),
            attack: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            kill_at: None,
            watchdog: false,
            spike_factor: None,
            max_rollbacks: None,
            fault_seed: 13,
            fleet: false,
            fleet_clients: 10_000,
            fleet_lans: 10,
            sample_frac: 0.05,
            top_m: 8,
            seed: 7,
            csv: None,
            diag: false,
            flight_out: None,
            timeline_out: None,
            chrome_out: None,
            log_level: None,
            trace_out: None,
            metrics_out: None,
            profile_out: None,
            profile_alloc: false,
            no_kcount: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            if flag == "--help" || flag == "-h" {
                print!("{HELP}");
                std::process::exit(0);
            }
            if flag == "--diag" {
                out.diag = true;
                i += 1;
                continue;
            }
            if flag == "--watchdog" {
                out.watchdog = true;
                i += 1;
                continue;
            }
            if flag == "--fleet" {
                out.fleet = true;
                i += 1;
                continue;
            }
            if flag == "--profile-alloc" {
                out.profile_alloc = true;
                i += 1;
                continue;
            }
            if flag == "--no-kcount" {
                out.no_kcount = true;
                i += 1;
                continue;
            }
            let value =
                argv.get(i + 1).unwrap_or_else(|| die(&format!("flag {flag} needs a value")));
            match flag {
                "--scheme" => out.scheme = value.clone(),
                "--partition" => out.partition = value.clone(),
                "--classes" => out.classes = parse(value, flag),
                "--samples" => out.samples = parse(value, flag),
                "--lans" => {
                    out.lans = value.split(',').map(|v| parse::<usize>(v, flag)).collect();
                }
                "--epochs" => out.epochs = parse(value, flag),
                "--agg" => out.agg = parse(value, flag),
                "--lr" => out.lr = parse(value, flag),
                "--batch" => out.batch = parse(value, flag),
                "--eval" => out.eval = parse(value, flag),
                "--participation" => out.participation = parse(value, flag),
                "--codec" => out.codec = value.clone(),
                "--dp-eps" => out.dp_eps = Some(parse(value, flag)),
                "--target" => out.target = Some(parse(value, flag)),
                "--dropout" => out.dropout = Some(parse(value, flag)),
                "--net-stress" => out.net_stress = Some(parse(value, flag)),
                "--transport" => out.transport = value.clone(),
                "--attack" => out.attack = Some(value.clone()),
                "--checkpoint-every" => out.checkpoint_every = Some(parse(value, flag)),
                "--checkpoint-dir" => out.checkpoint_dir = Some(value.clone()),
                "--resume" => out.resume = Some(value.clone()),
                "--kill-at" => out.kill_at = Some(parse(value, flag)),
                "--spike-factor" => out.spike_factor = Some(parse(value, flag)),
                "--max-rollbacks" => out.max_rollbacks = Some(parse(value, flag)),
                "--fault-seed" => out.fault_seed = parse(value, flag),
                "--fleet-clients" => out.fleet_clients = parse(value, flag),
                "--fleet-lans" => out.fleet_lans = parse(value, flag),
                "--sample-frac" => out.sample_frac = parse(value, flag),
                "--top-m" => out.top_m = parse(value, flag),
                "--seed" => out.seed = parse(value, flag),
                "--csv" => out.csv = Some(value.clone()),
                "--flight-out" => out.flight_out = Some(value.clone()),
                "--timeline-out" => out.timeline_out = Some(value.clone()),
                "--chrome-out" => out.chrome_out = Some(value.clone()),
                "--log-level" => out.log_level = Some(value.clone()),
                "--trace-out" => out.trace_out = Some(value.clone()),
                "--metrics-out" => out.metrics_out = Some(value.clone()),
                "--profile-out" => out.profile_out = Some(value.clone()),
                other => die(&format!("unknown flag {other:?} (try --help)")),
            }
            i += 2;
        }
        out
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| die(&format!("bad value {value:?} for {flag}")))
}

fn parse_attack(spec: &str, seed: u64) -> AttackConfig {
    let bad = || -> ! { die(&format!("bad attack spec {spec:?} (try --help)")) };
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_else(|| bad());
    let mut num = |what: &str| -> f64 {
        parts
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("attack spec {spec:?}: bad or missing {what}")))
    };
    let cfg = match kind {
        "signflip" => AttackConfig::sign_flip(num("fraction"), seed),
        "gauss" => {
            let frac = num("fraction");
            AttackConfig::gaussian(frac, num("std"), seed)
        }
        "scaled" => {
            let frac = num("fraction");
            AttackConfig::scaled(frac, num("multiplier"), seed)
        }
        "nan" => AttackConfig::nan_inject(num("fraction"), seed),
        "labelflip" => AttackConfig::label_flip(num("fraction"), seed),
        _ => bad(),
    };
    if parts.next().is_some() {
        bad();
    }
    cfg
}

fn parse_suffix(spec: &str) -> f64 {
    let (_, v) = spec.split_once(':').expect("checked by caller");
    v.parse().unwrap_or_else(|_| die(&format!("bad numeric suffix in {spec:?}")))
}

/// Logs the outcome of writing the artifact behind `flag` (spelled with its
/// trailing space; empty for a sidecar that has no flag of its own) to
/// `path`; a failed write ends the process with status 2.
fn write_artifact<E: std::fmt::Display>(flag: &str, path: &str, written: Result<(), E>) {
    match written {
        Ok(()) => info!("cli", "wrote {path}"),
        Err(e) => {
            error!("cli", "error: failed to write {flag}{path}: {e}");
            std::process::exit(2);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
