//! What the benchmark runs and what it reports: the four workloads and the
//! metric tables. `BENCHMARK.json` at the repo root repeats the names,
//! units, directions and bounds; a unit test holds the two together.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "rounds_per_s", unit: "rounds/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_round", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "sim_time_s", unit: "sim_s", better: Lower, bound: 0.05 },
    EndToEnd { name: "wan_mb", unit: "MB", better: Lower, bound: 0.01 },
    EndToEnd { name: "final_err", unit: "fraction", better: Lower, bound: 0.25 },
];

/// Spans whose share of round time the traced run reports. The last three
/// belong to the fleet loop only, most others to the dense loop only; a span
/// the loop in use never opens is reported absent.
pub const PHASE_SPANS: &[&str] = &[
    "local_train",
    "decision",
    "communicate",
    "migration_plan",
    "migration_transfer",
    "quarantine_screen",
    "aggregate",
    "evaluate",
    "agent_update",
    "update",
    "bookkeeping",
    "diagnostics",
    "cohort_activate",
    "migrate",
    "retire",
];

/// Per-layer metrics other than the `phase.<span>_share` family:
/// `(name, unit, better)`. Layers are the crates.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // Probes: timed calls into each crate's public functions.
    ("tensor.matmul_128_gflops", "GFLOP/s", Higher),
    ("tensor.matmul_conv1_gflops", "GFLOP/s", Higher),
    ("tensor.transpose_gbps", "GB/s", Higher),
    ("tensor.l2_distance_gbps", "GB/s", Higher),
    ("nn.train_step_b32_ms", "ms", Lower),
    ("nn.train_step_b8_ms", "ms", Lower),
    ("nn.train_step_b32_allocs", "count", Lower),
    ("nn.eval_ms", "ms", Lower),
    ("nn.params_roundtrip_us", "us", Lower),
    ("nn.model_clone_us", "us", Lower),
    ("data.generate_ms", "ms", Lower),
    ("data.partition_shards_ms", "ms", Lower),
    ("data.world_materialize_us", "us", Lower),
    ("compress.int8_mbps", "MB/s", Higher),
    ("compress.topk_int8_mbps", "MB/s", Higher),
    ("compress.topk_int8_allocs", "count", Lower),
    ("compress.batch30_ms", "ms", Lower),
    ("net.c2s_wave_ms", "ms", Lower),
    ("net.migration_wave_ms", "ms", Lower),
    ("net.flow_contended_ms", "ms", Lower),
    ("net.flow_traced_ratio", "ratio", Lower),
    ("drl.select_k10_us", "us", Lower),
    ("drl.select_k30_us", "us", Lower),
    ("drl.update_k30_ms", "ms", Lower),
    ("drl.oracle_k30_ms", "ms", Lower),
    ("core.plan_greedy_k30_us", "us", Lower),
    ("core.aggregate_k30_ms", "ms", Lower),
    ("core.aggregate_k200_ms", "ms", Lower),
    ("core.quarantine_screen_us", "us", Lower),
    ("fleet.pool_build_ms", "ms", Lower),
    ("fleet.materialize_us", "us", Lower),
    ("fleet.plan_n200_ms", "ms", Lower),
    ("diag.emd_us", "us", Lower),
    ("diag.drift_ms", "ms", Lower),
    // Paired CLI runs (see `PAIR_EPOCHS`).
    ("core.checkpoint_ms", "ms", Lower),
    ("core.checkpoint_mb", "MB", Lower),
    ("observe_overhead_pct", "%", Lower),
    ("observe.artifact_mb", "MB", Lower),
    // The traced run of the workload itself.
    ("phase.cover", "fraction", Higher),
    ("round_ms_p50", "ms", Lower),
    ("round_ms_p90", "ms", Lower),
    ("kernel.gflop_per_round", "GFLOP", Lower),
    ("kernel.gb_per_round", "GB", Lower),
    ("kernel.matmul_gflops", "GFLOP/s", Higher),
    ("kernel.layout_share", "fraction", Lower),
    ("net.c2c_mb", "MB", Lower),
    ("net.retransmits", "count", Lower),
    ("net.late_uploads", "count", Lower),
    ("compress.saved_mb", "MB", Higher),
    ("trace_overhead_pct", "%", Lower),
];

/// Every per-layer metric, in reporting order: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let shares = PHASE_SPANS.iter().map(|s| (format!("phase.{s}_share"), "fraction", Lower));
    PER_LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)).chain(shares).collect()
}

/// Which instruments a workload's timed trials switch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instruments {
    /// None: the production path.
    Off,
    /// `--trace-out --metrics-out`: what the traced run adds.
    Trace,
    /// Only a snapshot of the run state every round, captured and encoded but
    /// kept in memory (`--checkpoint-every 1`, no `--checkpoint-dir`).
    Snapshots,
    /// Every instrument: `Trace`, `Snapshots`, diagnostics, flight, timeline
    /// and the profilers.
    All,
    /// One snapshot, after the last round, written to disk: how big it is.
    SnapshotToDisk,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// CLI flags other than `--seed`, `--epochs`, `--csv` and instruments.
    pub flags: &'static [&'static str],
    pub epochs: usize,
    /// What the timed, end-to-end trials run with.
    pub timed: Instruments,
}

const DENSE_COMM_FLAGS: &[&str] = &[
    "--lans",
    "10,10,10",
    "--samples",
    "30",
    "--batch",
    "10",
    "--agg",
    "5",
    "--codec",
    "topk-int8:0.25",
    "--transport",
    "flow",
    "--net-stress",
    "0.3",
    "--eval",
    "10",
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense_train",
        why: "Compute-bound: 10 clients, batch 32, identity codec, lockstep; local_train is \
              ~97% of round wall. Kernel and nn work shows here; comm work must not.",
        flags: &["--eval", "10"],
        epochs: 60,
        timed: Instruments::Off,
    },
    Workload {
        name: "dense_comm",
        why: "Comm-bound: the paper's 30 devices, one batch each, top-k+int8 codec, flow \
              transport under net stress; communicate is ~60% of round wall. Codec, flow-sim, \
              planner and aggregation work shows here.",
        flags: DENSE_COMM_FLAGS,
        epochs: 100,
        timed: Instruments::Off,
    },
    Workload {
        name: "dense_observed",
        why: "dense_comm with every instrument on and the run state snapshotted (in memory) \
              every round. Telemetry, diag and checkpoint cost shows here only; its CSV must \
              equal dense_comm's.",
        flags: DENSE_COMM_FLAGS,
        epochs: 100,
        timed: Instruments::All,
    },
    Workload {
        name: "fleet_sparse",
        why: "The second round loop: 10k stubs, 200-client cohorts, one batch-8 step on a \
              cloned model per client-epoch. Per-step overhead and allocation dominate; peak \
              RSS follows the cohort.",
        flags: &[
            "--fleet",
            "--fleet-clients",
            "10000",
            "--fleet-lans",
            "10",
            "--sample-frac",
            "0.02",
            "--samples",
            "8",
            "--batch",
            "8",
            "--agg",
            "3",
            "--eval",
            "15",
        ],
        epochs: 30,
        timed: Instruments::Off,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeds a workload sees per invocation: trial `t` runs seed `S + t % 4`.
pub const SEEDS_PER_RUN: u64 = 4;
/// One-epoch invocations behind `setup_s`.
pub const SETUP_RUNS: usize = 21;
/// Untraced trials the traced run is compared against.
pub const UNTRACED_TRIALS: usize = 3;
/// Epochs of the paired dense_comm runs behind `core.checkpoint_*` and
/// `observe*`; a multiple of the aggregation and evaluation intervals.
pub const PAIR_EPOCHS: usize = 30;
/// Repeats of each side of those pairs; the fastest is kept.
pub const PAIR_REPEATS: usize = 3;
/// `--quick`: epochs per trial.
pub const QUICK_EPOCHS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::trace::JsonValue;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, ..)| n));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(per_layer().iter().all(|(_, u, _)| valid_unit(u)));
        assert!(per_layer().len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup =
            END_TO_END.iter().find(|m| m.name == "setup_s").expect("contract needs setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the harness reads; these tables are what the
    /// binary reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect(path)).unwrap();
        let doc = doc.as_object().unwrap();
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let rows = |key: &str| -> Vec<Vec<String>> {
            let JsonValue::Array(items) = &doc[key] else { panic!("{key} is not an array") };
            items
                .iter()
                .map(|item| {
                    item.as_object()
                        .unwrap()
                        .values()
                        .map(|v| match v {
                            JsonValue::String(s) => s.clone(),
                            JsonValue::Number(n) => n.to_string(),
                            other => panic!("unexpected {other:?} in {key}"),
                        })
                        .collect()
                })
                .collect()
        };
        // Object keys iterate sorted: better, bound, name, unit / name, why.
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![m.better.as_str().into(), m.bound.to_string(), m.name.into(), m.unit.into()]
            })
            .collect();
        assert_eq!(rows("end_to_end"), e2e);
        let layers: Vec<Vec<String>> =
            per_layer().into_iter().map(|(n, u, b)| vec![b.as_str().into(), n, u.into()]).collect();
        assert_eq!(rows("per_layer"), layers);
        let workloads: Vec<Vec<String>> =
            WORKLOADS.iter().map(|w| vec![w.name.into(), w.why.into()]).collect();
        assert_eq!(rows("workloads"), workloads);
    }
}
