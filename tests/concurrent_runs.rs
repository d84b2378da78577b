//! Two runs in one process keep their instruments apart: a run's kernel
//! counts, profiler frames and metrics live in the ledger of the thread
//! that runs it, its workers' merged in at their join, so what it reads
//! back is what it reads back alone.

mod common;

use std::sync::{Arc, Barrier};

use fedmigr::core::{FleetExperiment, FleetOptions, RunConfig, Scheme};
use fedmigr::nn::zoo::{self, NetScale};
use fedmigr::tensor::kcount::{self, Kernel};
use fedmigr_telemetry::ledger::Profile;
use fedmigr_telemetry::{metrics, profiler};

/// What a run read back from its thread's ledger: `(kernel, calls, flops,
/// bytes)` per kernel that ran, `(path, calls)` per profiled path, the
/// seeded lines of its metrics dump (kernel calls, FLOPs and bytes, span
/// counts, DRL updates), and the phase, kernel, calls and GFLOP columns of
/// its kernel table.
#[derive(Debug, PartialEq)]
struct Ledger {
    kernels: Vec<(&'static str, u64, u64, u64)>,
    frames: Vec<(String, u64)>,
    series: Vec<String>,
    table: Vec<String>,
}

/// The dump lines whose values a seed fixes.
const SEEDED_SERIES: [&str; 5] = [
    "fedmigr_kernel_calls_total",
    "fedmigr_kernel_flops_total",
    "fedmigr_kernel_bytes_total",
    "fedmigr_phase_seconds_count",
    "fedmigr_drl_updates_total",
];

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
    let series = metrics::snapshot()
        .render_prometheus()
        .lines()
        .filter(|line| SEEDED_SERIES.iter().any(|name| line.starts_with(name)))
        .map(String::from)
        .collect();
    let table = fedmigr::core::kernels::kernel_table().expect("kernel accounting was on");
    // Rows sort by time inside a phase; the seeded columns sort by name.
    let mut table: Vec<String> = table
        .lines()
        .skip(2)
        .map(|row| row.split_whitespace().take(4).collect::<Vec<_>>().join(" "))
        .collect();
    table.sort();
    Ledger { kernels, frames, series, table }
}

/// A seeded dense FedMigr run, kernel accounting and profiler frames on.
fn dense() -> Ledger {
    let exp = common::experiment(3);
    let mut cfg = RunConfig::new(Scheme::fedmigr(9), 6);
    cfg.agg_interval = 3;
    cfg.batch_size = 16;
    cfg.diag.kcount = true;
    cfg.diag.profile = Profile::Frames;
    exp.run(&cfg);
    read_ledger()
}

/// A seeded fleet FedMigr run, kernel accounting on, profiler off, long
/// enough for its agent's first update.
fn fleet() -> Ledger {
    let model = zoo::c10_cnn(3, 8, NetScale::Small, 11);
    let mut cfg = RunConfig::new(Scheme::fedmigr(11), 12);
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
    for alone in [&dense_alone, &fleet_alone] {
        for name in &SEEDED_SERIES[..4] {
            let has = alone.series.iter().any(|line| line.starts_with(name));
            assert!(has, "{name} missing: {alone:?}");
        }
        assert!(alone.table.iter().any(|row| row.contains(" matmul ")), "{alone:?}");
    }
    let drl_updates = |l: &Ledger| l.series.iter().any(|s| s.starts_with(SEEDED_SERIES[4]));
    assert!(drl_updates(&fleet_alone), "the fleet run trains its agent: {fleet_alone:?}");

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
