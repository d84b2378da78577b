//! Shared harness for `fedmigr bench`, the one runner behind every table
//! and figure of the FedMigr paper (see DESIGN.md §4 for the index), and
//! for the `fedmigr perf` ledger.
//!
//! `fedmigr bench <experiment> [--scale smoke|paper]` runs one entry of
//! [`experiments::table`] (default scale `smoke`): `smoke` runs in
//! seconds-to-minutes on a laptop and preserves the qualitative shape of
//! each result; `paper` uses larger datasets, more epochs and the paper's
//! aggregation interval of 50.

pub mod experiments;
pub mod perf;

use std::process::ExitCode;

use fedmigr_core::{Experiment, RunConfig, Scheme};
use fedmigr_data::{
    partition_dirichlet, partition_dominant, partition_iid, partition_lan_shards,
    partition_missing_classes, partition_shards, Dataset, SyntheticConfig, SyntheticDataset,
};
use fedmigr_net::{ClientCompute, Topology, TopologyConfig};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Model;
use fedmigr_telemetry::cli::{
    observability_flags, on, put, put_some, usage_error, Command, Flag, Observability,
};

/// Run scale selected on the command line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-to-minutes runs preserving qualitative shape.
    #[default]
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
    /// Per-client label mix drawn from a Dirichlet with this concentration.
    Dirichlet(f64),
    /// The clients of each LAN share one label distribution (Fig. 3).
    LanShared,
}

impl Partition {
    /// Reads the command-line spelling: `iid | shards | dominant:<frac> |
    /// missing:<frac> | dirichlet:<alpha>`, with `dominant` in [0, 1],
    /// `missing` in [0, 1) and `alpha` positive.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let suffix = |v: &str, ok: fn(f64) -> bool| match v.parse() {
            Ok(x) if ok(x) => Ok(x),
            Ok(_) => Err(format!("{spec:?} is out of range")),
            Err(_) => Err(format!("bad numeric suffix in {spec:?}")),
        };
        Ok(match spec.split_once(':') {
            None if spec == "iid" => Partition::Iid,
            None if spec == "shards" => Partition::Shards,
            Some(("dominant", v)) => Partition::Dominant(suffix(v, |p| (0.0..=1.0).contains(&p))?),
            Some(("missing", v)) => {
                Partition::MissingClasses(suffix(v, |p| (0.0..1.0).contains(&p))?)
            }
            Some(("dirichlet", v)) => Partition::Dirichlet(suffix(v, |a| a > 0.0)?),
            _ => return Err(format!("unknown partition {spec:?}")),
        })
    }

    /// Deals `train` to the clients of LANs of `lan_sizes`. `Err` names a
    /// client the deal left without a training sample (a layout can do
    /// that even when there are more samples than clients), or a
    /// missing-classes deal to a single client.
    pub fn deal(
        self,
        train: &Dataset,
        lan_sizes: &[usize],
        seed: u64,
    ) -> Result<Vec<Vec<usize>>, String> {
        let k = lan_sizes.iter().sum();
        let parts = match self {
            Partition::Iid => partition_iid(train, k, seed),
            Partition::Shards => {
                let classes_per_client = train.num_classes() / k;
                partition_shards(train, k, classes_per_client.max(1), seed)
            }
            Partition::Dominant(p) => partition_dominant(train, k, p, seed),
            Partition::MissingClasses(_) if k < 2 => {
                return Err("the missing-classes partition needs at least two clients".into())
            }
            Partition::MissingClasses(p) => partition_missing_classes(train, k, p, seed),
            Partition::Dirichlet(alpha) => partition_dirichlet(train, k, alpha, seed),
            Partition::LanShared => partition_lan_shards(train, lan_sizes, seed),
        };
        match parts.iter().position(Vec::is_empty) {
            Some(i) => Err(format!(
                "the {self:?} partition of {} training samples leaves client {i} of {k} with \
                 none",
                train.len()
            )),
            None => Ok(parts),
        }
    }
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
    let topo_config = workload.topology_config(seed);
    let parts = partition.deal(&data.train, &topo_config.lan_sizes, seed).expect("a dealt world");
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&topo_config),
        ClientCompute::testbed_mix(workload.clients()),
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

/// The options of one `fedmigr bench` run.
#[derive(Debug, Default, PartialEq)]
pub struct Options {
    /// The table entry to run.
    pub experiment: String,
    /// `--list`: print every experiment name instead of running one.
    pub list: bool,
    /// `--scale smoke|paper` (default smoke).
    pub scale: Scale,
    /// `--timeline-out <path>`: the round timeline of Fig. 8's flow run.
    pub timeline_out: Option<String>,
    /// `--log-level`, `--trace-out`, `--metrics-out`.
    pub obs: Observability,
}

impl AsMut<Observability> for Options {
    fn as_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }
}

/// `fedmigr bench <experiment>`: runs one entry of [`experiments::table`]
/// and prints its tables as Markdown; `--list` prints every name. Exit
/// status: 0 on success, 1 when a named check fails, 2 on bad input.
#[rustfmt::skip]
pub fn command() -> Command<Options> {
    let mut flags: Vec<Flag<Options>> = vec![
        Flag { name: "--list", value: "", default: "", set: |o, _| on(&mut o.list),
            help: "print every experiment name, one per line" },
        Flag { name: "--scale", value: "<smoke|paper>", default: "smoke",
            help: "smoke runs in seconds to minutes and keeps each result's shape; paper uses \
                   larger datasets, more epochs and the paper's aggregation interval of 50",
            set: |o, v| {
                o.scale = match v {
                    "smoke" => Scale::Smoke,
                    "paper" => Scale::Paper,
                    _ => return Err("use smoke or paper".into()),
                };
                Ok(())
            } },
        Flag { name: "--timeline-out", value: "<path>", default: "", set: |o, v| put_some(&mut o.timeline_out, v),
            help: "record the round timeline of the flow run (fig8_link_speed only)" },
    ];
    flags.extend(observability_flags());
    let about = "run one experiment of the paper's evaluation and print its tables as Markdown";
    Command {
        positional: |o, v| {
            let names = experiments::names();
            if !o.experiment.is_empty() {
                return Err(format!("unexpected argument {v:?}"));
            }
            if !names.contains(&v) {
                return Err(format!("unknown experiment {v:?}; one of: {}", names.join(", ")));
            }
            put(&mut o.experiment, v)
        },
        check: |o| match (o.list, o.experiment.as_str()) {
            (true, "") => Ok(()),
            (true, _) => Err("--list takes no experiment".into()),
            (false, "") => Err(format!("no experiment given; one of: {}", experiments::names().join(", "))),
            (false, e) if o.timeline_out.is_some() && e != experiments::TIMELINE_EXPERIMENT => {
                Err(format!("--timeline-out applies only to {}", experiments::TIMELINE_EXPERIMENT))
            }
            _ => Ok(()),
        },
        ..Command::new("bench", "<experiment>", about, flags, run)
    }
}

fn run(opts: Options) -> ExitCode {
    if opts.list {
        experiments::names().iter().for_each(|name| println!("{name}"));
        return ExitCode::SUCCESS;
    }
    if let Err(e) = opts.obs.init() {
        return usage_error("bench", &e);
    }
    // A stable root for the per-phase histograms.
    let span = fedmigr_telemetry::span!("bench", "bench_main", "bench" => opts.experiment);
    let mut code = match experiments::run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.experiment);
            ExitCode::from(1)
        }
    };
    drop(span);
    if let Err(e) = opts.obs.finish() {
        eprintln!("error: {e}");
        code = ExitCode::from(2);
    }
    code
}

#[cfg(test)]
mod tests {
    use fedmigr_telemetry::cli::Stop;

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

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        command().parse(&args).map_err(|stop| match stop {
            Stop::Usage(e) => e,
            Stop::Help(_) => panic!("{line}: unexpected --help"),
        })
    }

    #[test]
    fn parses_an_experiment_with_every_option() {
        let opts = parse(
            "fig8_link_speed --scale paper --timeline-out t.jsonl --log-level debug \
             --trace-out t.json --metrics-out m.prom",
        )
        .expect("a full command line parses");
        assert_eq!(opts.experiment, "fig8_link_speed");
        assert_eq!(opts.scale, Scale::Paper);
        assert_eq!(opts.timeline_out.as_deref(), Some("t.jsonl"));
        assert_eq!(opts.obs.log_level, Some("debug".parse().unwrap()));
        assert_eq!(opts.obs.trace_out.as_deref(), Some("t.json"));
        assert_eq!(opts.obs.metrics_out.as_deref(), Some("m.prom"));
        // Flags may come first; the scale defaults to smoke.
        let opts = parse("--log-level info table1_motivation").expect("flags first parse");
        assert_eq!((opts.experiment.as_str(), opts.scale), ("table1_motivation", Scale::Smoke));
        assert!(parse("--list").expect("--list alone parses").list);
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
        for flag in ["--target 0.5", "--eps 1", "--workload c100"] {
            let err = parse(&format!("table1_motivation {flag}")).expect_err(flag);
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
        let err = parse("table1_motivation --list").unwrap_err();
        assert_eq!(err, "--list takes no experiment");
    }

    #[test]
    fn rejects_a_missing_value_or_a_bad_scale() {
        for flag in ["--scale", "--log-level", "--trace-out", "--metrics-out", "--timeline-out"] {
            let err = parse(&format!("fig10_c10 {flag}")).expect_err(flag);
            assert_eq!(err, format!("flag {flag} needs a value"));
        }
        let err = parse("fig10_c10 --scale huge").unwrap_err();
        assert_eq!(err, "bad value \"huge\" for --scale: use smoke or paper");
    }

    #[test]
    fn rejects_a_timeline_for_an_experiment_that_has_none() {
        let err = parse("table1_motivation --timeline-out t.jsonl").unwrap_err();
        assert!(err.contains(experiments::TIMELINE_EXPERIMENT), "{err}");
    }
}
