//! Shared harness for `fedmigr_bench`, the one runner behind every table
//! and figure of the FedMigr paper (see DESIGN.md §4 for the index), and
//! for the `fedmigr_perf` ledger.
//!
//! `fedmigr_bench <experiment> [--scale smoke|paper]` runs one entry of
//! [`experiments::table`] (default scale `smoke`): `smoke` runs in
//! seconds-to-minutes on a laptop and preserves the qualitative shape of
//! each result; `paper` uses larger datasets, more epochs and the paper's
//! aggregation interval of 50.

pub mod experiments;
pub mod perf;

use fedmigr_core::{Experiment, RunConfig, Scheme};
use fedmigr_data::{
    partition_dominant, partition_iid, partition_lan_shards, partition_missing_classes,
    partition_shards, SyntheticConfig, SyntheticDataset,
};
use fedmigr_net::{ClientCompute, Topology, TopologyConfig};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Model;

/// Run scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-to-minutes runs preserving qualitative shape.
    Smoke,
    /// Longer runs approximating the paper's settings.
    Paper,
}

impl Scale {
    /// Training epochs for a standard accuracy experiment.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 150,
            Scale::Paper => 1000,
        }
    }

    /// Aggregation interval (`M + 1`).
    pub fn agg_interval(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Paper => 50,
        }
    }

    /// Training samples generated per class.
    pub fn train_per_class(self) -> usize {
        match self {
            Scale::Smoke => 120,
            Scale::Paper => 400,
        }
    }
}

/// Which dataset/model pairing an experiment uses: the paper's three
/// workloads, plus Fig. 3's AlexNet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// C10-CNN over the CIFAR-10 stand-in (10 clients, 3 LANs).
    C10,
    /// C100-CNN over the CIFAR-100 stand-in (20 clients, 5 LANs).
    C100,
    /// Residual network over the ImageNet-100 stand-in (20 clients, 5 LANs).
    ResImageNet,
    /// AlexNet-lite over the CIFAR-10 stand-in (Fig. 3; 10 clients, 3 LANs).
    AlexNetLite,
}

impl Workload {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::C10 => "C10-CNN",
            Workload::C100 => "C100-CNN",
            Workload::ResImageNet => "Res-ImageNet",
            Workload::AlexNetLite => "AlexNet-lite",
        }
    }

    /// Number of clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::C10 | Workload::AlexNetLite => 10,
            _ => 20,
        }
    }

    /// LAN layout.
    pub fn topology_config(self, seed: u64) -> TopologyConfig {
        match self {
            Workload::C10 | Workload::AlexNetLite => TopologyConfig::c10_sim(seed),
            _ => TopologyConfig::c100_sim(seed),
        }
    }

    /// Synthetic dataset config.
    pub fn data_config(self, scale: Scale, seed: u64) -> SyntheticConfig {
        let per_class = match self {
            Workload::C10 | Workload::AlexNetLite => scale.train_per_class(),
            // 100-class datasets keep the per-class count smaller so the
            // total stays tractable.
            _ => (scale.train_per_class() / 4).max(20),
        };
        match self {
            Workload::C10 | Workload::AlexNetLite => SyntheticConfig::c10_like(per_class, seed),
            Workload::C100 => SyntheticConfig::c100_like(per_class, seed),
            Workload::ResImageNet => SyntheticConfig::imagenet100_like(per_class, seed),
        }
    }

    /// Model template.
    pub fn model(self, seed: u64) -> Model {
        match self {
            Workload::C10 => zoo::c10_cnn(3, 8, NetScale::Small, seed),
            Workload::C100 => zoo::c100_cnn(3, 8, NetScale::Small, seed),
            Workload::ResImageNet => zoo::mini_resnet(3, 8, 100, 2, NetScale::Small, seed),
            Workload::AlexNetLite => zoo::alexnet_lite(3, 8, NetScale::Small, seed),
        }
    }
}

/// Data layout requested for an experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Partition {
    /// IID deal.
    Iid,
    /// Label shards (the simulation's non-IID layout): C10 gets one class
    /// per client; the 100-class workloads get 5 classes per client.
    Shards,
    /// `p`-dominant class per client (test-bed CIFAR-10 layout).
    Dominant(f64),
    /// Each client misses a fraction of classes (test-bed CIFAR-100 layout).
    MissingClasses(f64),
    /// The clients of each LAN share one label distribution (Fig. 3).
    LanShared,
}

/// Builds the standard [`Experiment`] for a workload, scale and layout,
/// optionally overriding the per-class training-sample count (used by the
/// non-IID-level sweeps, where scarcer data makes the dominant-class layout
/// genuinely deprive clients of minority classes).
pub fn build_experiment_with_samples(
    workload: Workload,
    partition: Partition,
    scale: Scale,
    seed: u64,
    per_class: Option<usize>,
) -> Experiment {
    let mut data_config = workload.data_config(scale, seed);
    if let Some(n) = per_class {
        data_config.train_per_class = n;
    }
    let data = SyntheticDataset::generate(&data_config);
    let k = workload.clients();
    let topo_config = workload.topology_config(seed);
    let parts = match partition {
        Partition::Iid => partition_iid(&data.train, k, seed),
        Partition::Shards => {
            let classes_per_client = data.train.num_classes() / k;
            partition_shards(&data.train, k, classes_per_client.max(1), seed)
        }
        Partition::Dominant(p) => partition_dominant(&data.train, k, p, seed),
        Partition::MissingClasses(p) => partition_missing_classes(&data.train, k, p, seed),
        Partition::LanShared => partition_lan_shards(&data.train, &topo_config.lan_sizes, seed),
    };
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&topo_config),
        ClientCompute::testbed_mix(k),
        workload.model(seed),
    )
}

/// The five schemes of the paper's evaluation, in table order.
pub fn all_schemes(seed: u64) -> Vec<Scheme> {
    vec![
        Scheme::FedAvg,
        Scheme::FedSwap,
        Scheme::RandMigr,
        Scheme::fedprox(),
        Scheme::fedmigr(seed),
    ]
}

/// Standard run configuration for a scale.
pub fn standard_config(scheme: Scheme, scale: Scale, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(scheme, scale.epochs());
    cfg.agg_interval = scale.agg_interval();
    cfg.eval_interval = match scale {
        Scale::Smoke => 10,
        Scale::Paper => 25,
    };
    // Calibrated so one local epoch neither freezes training (too small)
    // nor catastrophically overwrites a migrated model (too large).
    cfg.lr = 0.01;
    cfg.seed = seed;
    cfg
}

/// What `fedmigr_bench`'s command line asked for.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `--list`: print every experiment name, one per line.
    List,
    /// Run one experiment.
    Run(Options),
}

/// The options of one `fedmigr_bench <experiment>` run.
#[derive(Debug, PartialEq)]
pub struct Options {
    /// The table entry to run.
    pub experiment: String,
    /// `--scale smoke|paper` (default smoke).
    pub scale: Scale,
    /// `--timeline-out <path>`: the round timeline of Fig. 8's flow run.
    pub timeline_out: Option<String>,
    /// `--log-level <spec>`: same syntax as `FEDMIGR_LOG`
    /// (`debug,drl=trace,net=off`).
    pub log_level: Option<String>,
    /// `--trace-out <path>`: stream a JSONL span/log trace.
    pub trace_out: Option<String>,
    /// `--metrics-out <path>`: dump the Prometheus-style metrics exposition
    /// when the run ends.
    pub metrics_out: Option<String>,
}

/// Parses `fedmigr_bench`'s arguments (without the program name). An
/// unknown experiment, an unknown flag, a flag without its value, a bad
/// scale or an option the experiment cannot use is an error naming it.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--list"] {
        return Ok(Command::List);
    }
    let names = experiments::names();
    let mut opts = Options {
        experiment: String::new(),
        scale: Scale::Smoke,
        timeline_out: None,
        log_level: None,
        trace_out: None,
        metrics_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if !arg.starts_with("--") {
            if !opts.experiment.is_empty() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            if !names.contains(&arg) {
                return Err(format!("unknown experiment {arg:?}; one of: {}", names.join(", ")));
            }
            opts.experiment = arg.to_string();
            i += 1;
            continue;
        }
        let mut scale = None;
        let slot = match arg {
            "--scale" => &mut scale,
            "--timeline-out" => &mut opts.timeline_out,
            "--log-level" => &mut opts.log_level,
            "--trace-out" => &mut opts.trace_out,
            "--metrics-out" => &mut opts.metrics_out,
            other => return Err(format!("unknown flag {other:?}")),
        };
        *slot = Some(args.get(i + 1).ok_or_else(|| format!("flag {arg} needs a value"))?.clone());
        opts.scale = match scale.as_deref() {
            None => opts.scale,
            Some("smoke") => Scale::Smoke,
            Some("paper") => Scale::Paper,
            Some(other) => return Err(format!("unknown scale {other:?}; use smoke or paper")),
        };
        i += 2;
    }
    if opts.experiment.is_empty() {
        return Err(format!("no experiment given; one of: {}", names.join(", ")));
    }
    if opts.timeline_out.is_some() && opts.experiment != experiments::TIMELINE_EXPERIMENT {
        return Err(format!("--timeline-out applies only to {}", experiments::TIMELINE_EXPERIMENT));
    }
    Ok(Command::Run(opts))
}

/// Shared observability setup for `fedmigr_bench`, from the three shared
/// flags of [`Options`]: the log filter (flag > `FEDMIGR_LOG` > default),
/// the JSONL trace and the metrics dump.
///
/// Bind the guard for the whole run: it opens a `bench_main` span so
/// per-phase histograms nest under a stable root, and on drop it writes the
/// metrics dump and flushes the trace — logging failures instead of
/// panicking, so a full result table is never lost to a bad output path.
/// A bad `--log-level` or an unopenable `--trace-out` ends the process with
/// status 2.
pub fn init_observability(opts: &Options) -> ObservabilityGuard {
    let log_env = std::env::var("FEDMIGR_LOG").ok();
    match fedmigr_telemetry::Filter::resolve(opts.log_level.as_deref(), log_env.as_deref()) {
        Ok(f) => fedmigr_telemetry::set_filter(f),
        Err(e) if opts.log_level.is_some() => {
            fedmigr_telemetry::error!("bench", "error: bad --log-level: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            // A malformed environment spec must not kill a result run.
            fedmigr_telemetry::warn!("bench", "ignoring FEDMIGR_LOG: {e}");
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = fedmigr_telemetry::set_trace_file(path) {
            fedmigr_telemetry::error!("bench", "error: cannot open --trace-out {path}: {e}");
            std::process::exit(2);
        }
    }
    let bench = opts.experiment.clone();
    fedmigr_telemetry::debug!("bench", "starting {bench}");
    ObservabilityGuard {
        metrics_out: opts.metrics_out.clone(),
        span: Some(fedmigr_telemetry::global().span_labeled(
            "bench",
            "bench_main",
            vec![("bench".to_string(), bench.clone())],
        )),
        bench,
    }
}

/// RAII guard returned by [`init_observability`].
pub struct ObservabilityGuard {
    bench: String,
    metrics_out: Option<String>,
    span: Option<fedmigr_telemetry::Span<'static>>,
}

impl Drop for ObservabilityGuard {
    fn drop(&mut self) {
        drop(self.span.take());
        fedmigr_telemetry::debug!("bench", "finished {}", self.bench);
        if let Some(path) = self.metrics_out.take() {
            match std::fs::write(&path, fedmigr_telemetry::render_metrics()) {
                Ok(()) => fedmigr_telemetry::debug!("bench", "wrote {path}"),
                Err(e) => fedmigr_telemetry::error!(
                    "bench",
                    "error: failed to write --metrics-out {path}: {e}"
                ),
            }
        }
        fedmigr_telemetry::close_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_metadata() {
        assert_eq!(Workload::C10.clients(), 10);
        assert_eq!(Workload::C100.clients(), 20);
        assert_eq!(Workload::C10.name(), "C10-CNN");
    }

    #[test]
    fn build_experiment_smoke_c10() {
        let exp =
            build_experiment_with_samples(Workload::C10, Partition::Shards, Scale::Smoke, 3, None);
        assert_eq!(exp.num_clients(), 10);
    }

    #[test]
    fn all_schemes_has_five() {
        let schemes = all_schemes(0);
        assert_eq!(schemes.len(), 5);
        assert_eq!(schemes[0].name(), "FedAvg");
        assert_eq!(schemes[4].name(), "FedMigr");
    }

    fn parse(line: &str) -> Result<Command, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_an_experiment_with_every_option() {
        let Ok(Command::Run(opts)) = parse(
            "fig8_link_speed --scale paper --timeline-out t.jsonl --log-level debug \
             --trace-out t.json --metrics-out m.prom",
        ) else {
            panic!("a full command line parses");
        };
        assert_eq!(opts.experiment, "fig8_link_speed");
        assert_eq!(opts.scale, Scale::Paper);
        assert_eq!(opts.timeline_out.as_deref(), Some("t.jsonl"));
        assert_eq!(opts.log_level.as_deref(), Some("debug"));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert_eq!(opts.metrics_out.as_deref(), Some("m.prom"));
        // Flags may come first; the scale defaults to smoke.
        let Ok(Command::Run(opts)) = parse("--log-level info table1_motivation") else {
            panic!("flags before the experiment parse");
        };
        assert_eq!((opts.experiment.as_str(), opts.scale), ("table1_motivation", Scale::Smoke));
        assert_eq!(parse("--list"), Ok(Command::List));
    }

    #[test]
    fn rejects_an_unknown_or_missing_experiment_listing_the_names() {
        let names = experiments::names().join(", ");
        let err = parse("fig99_nothing --scale paper").unwrap_err();
        assert_eq!(err, format!("unknown experiment \"fig99_nothing\"; one of: {names}"));
        for line in ["", "--scale paper"] {
            assert_eq!(parse(line), Err(format!("no experiment given; one of: {names}")));
        }
        let err = parse("table1_motivation fig5_agg_freq").unwrap_err();
        assert_eq!(err, "unexpected argument \"fig5_agg_freq\"");
    }

    #[test]
    fn rejects_unknown_flags_including_the_removed_ones() {
        // `--scale=paper` used to run smoke silently; a trailing one too.
        for flags in ["--scale=paper", "--scale=paper --log-level info", "--smoke", "--reps 3"] {
            let err = parse(&format!("fig10_c10 {flags}")).expect_err(flags);
            assert!(err.starts_with("unknown flag"), "{flags}: {err}");
        }
        for flag in ["--target 0.5", "--eps 1", "--workload c100", "--list"] {
            let err = parse(&format!("table1_motivation {flag}")).expect_err(flag);
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn rejects_a_missing_value_or_a_bad_scale() {
        for flag in ["--scale", "--log-level", "--trace-out", "--metrics-out", "--timeline-out"] {
            let err = parse(&format!("fig10_c10 {flag}")).expect_err(flag);
            assert_eq!(err, format!("flag {flag} needs a value"));
        }
        assert!(parse("fig10_c10 --scale huge").unwrap_err().contains("unknown scale \"huge\""));
    }

    #[test]
    fn rejects_a_timeline_for_an_experiment_that_has_none() {
        let err = parse("table1_motivation --timeline-out t.jsonl").unwrap_err();
        assert!(err.contains(experiments::TIMELINE_EXPERIMENT), "{err}");
    }
}
