//! Continuous performance benchmarks: a fixed matrix of kernel, codec,
//! planner, flow-simulation and end-to-end timings behind `fedmigr perf`,
//! which runs every benchmark with a warmup/repeat/median-of-N protocol and
//! writes a [`fedmigr_diag::perf::PerfReport`] (`BENCH_perf.json`). CI gates
//! that report against the checked-in `results/baselines/perf_baseline.json`
//! with `fedmigr diff`.
//!
//! ```text
//! fedmigr perf [--quick] [--out <path>] [--repeats <n>] [--filter <substr>]
//! ```
//!
//! Medians are compared, not means: one preempted repeat on a shared CI
//! runner should not fail the gate, a consistent slowdown should. Kernel
//! accounting and the profiler stay off here: this measures the
//! production-path cost, and the observability layers are benchmarked
//! implicitly by the e2e entries (which run exactly what the CLI runs).

use std::process::ExitCode;
use std::time::Instant;

use fedmigr_compress::{CodecConfig, Compressor};
use fedmigr_core::{FleetExperiment, FleetOptions, MigrationPlan, RunConfig, Scheme};
use fedmigr_diag::perf::{PerfEntry, PerfReport, PERF_SCHEMA_VERSION};
use fedmigr_fleet::{plan_migrations, FleetPlannerConfig};
use fedmigr_net::{FlowConfig, FlowSim, TransportConfig};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Sgd;
use fedmigr_telemetry::cli::{on, put, put_some, Command, Flag};
use fedmigr_telemetry::info;
use fedmigr_tensor::{l2_distance_slice, softmax_rows, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{build_experiment_with_samples, Partition, Scale, Workload};

/// The options of one `fedmigr perf` run.
#[derive(Debug, Default)]
pub struct Options {
    quick: bool,
    out: String,
    repeats: Option<u32>,
    filter: Option<String>,
}

/// `fedmigr perf`'s flag table and entry point. Exits 0 once the report is
/// written, 2 on a usage error or when it cannot be written.
#[rustfmt::skip]
pub fn command() -> Command<Options> {
    let flags: Vec<Flag<Options>> = vec![
        Flag { name: "--quick", value: "", default: "", set: |o, _| on(&mut o.quick),
            help: "CI mode: fewer repeats and smaller end-to-end workloads (compare only against \
                   quick baselines)" },
        Flag { name: "--out", value: "<path>", default: "BENCH_perf.json", set: |o, v| put(&mut o.out, v),
            help: "report path" },
        Flag { name: "--repeats", value: "<n>", default: "", set: |o, v| put_some(&mut o.repeats, v),
            help: "override the timed repeat count of every benchmark" },
        Flag { name: "--filter", value: "<substr>", default: "", set: |o, v| put_some(&mut o.filter, v),
            help: "run only benchmarks whose name contains this (the report then fails the \
                   vanished-benchmark check by design: for local iteration only)" },
    ];
    let about = "time the kernel, codec, planner, flow and end-to-end benchmark matrix and write \
                 a versioned report for `fedmigr diff`";
    Command::new("perf", "", about, flags, run)
}

/// Times `f` with `warmup` untimed then `repeats` timed invocations and
/// returns the median/min entry. `repeats` is clamped to at least 1.
fn measure<F: FnMut()>(name: &str, warmup: u32, repeats: u32, mut f: F) -> PerfEntry {
    for _ in 0..warmup {
        f();
    }
    let repeats = repeats.max(1);
    let mut times: Vec<u64> = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        times.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    times.sort_unstable();
    PerfEntry {
        name: name.to_string(),
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        repeats,
    }
}

fn run(opts: Options) -> ExitCode {
    // Micro repeats are cheap; e2e repeats dominate the wall clock.
    let micro_repeats = opts.repeats.unwrap_or(if opts.quick { 7 } else { 15 });
    let e2e_repeats = opts.repeats.unwrap_or(if opts.quick { 3 } else { 5 });
    let mut report =
        PerfReport { version: PERF_SCHEMA_VERSION, quick: opts.quick, benchmarks: Vec::new() };

    let mut run = |name: &str, repeats: u32, f: &mut dyn FnMut()| {
        if let Some(filter) = &opts.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let entry: PerfEntry = measure(name, 2, repeats, f);
        info!(
            "perf",
            "{name}: median {:.3} ms, min {:.3} ms over {} repeats",
            entry.median_ns as f64 / 1e6,
            entry.min_ns as f64 / 1e6,
            entry.repeats
        );
        report.benchmarks.push(entry);
    };

    let mut rng = StdRng::seed_from_u64(7);

    // --- Kernels ------------------------------------------------------
    {
        let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
        let b = Tensor::randn(&[128, 128], 1.0, &mut rng);
        run("kernel_matmul_128", micro_repeats, &mut || {
            std::hint::black_box(a.matmul(&b));
        });
    }
    {
        let a = Tensor::randn(&[32, 512], 1.0, &mut rng);
        let b = Tensor::randn(&[512, 64], 1.0, &mut rng);
        run("kernel_matmul_rect", micro_repeats, &mut || {
            std::hint::black_box(a.matmul(&b));
        });
    }
    {
        // One full CNN training step: conv padded copy/GEMM/col2im, pool, softmax and
        // the optimizer sweep in their production composition.
        let mut model = zoo::c10_cnn(3, 8, NetScale::Small, 7);
        let mut opt = Sgd::new(0.01);
        let batch = 16usize;
        let x = Tensor::randn(&[batch, 3, 8, 8], 1.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
        run("kernel_cnn_train_step", micro_repeats, &mut || {
            std::hint::black_box(model.train_step(&x, &labels, &mut opt));
        });
    }
    {
        let va: Vec<f32> = (0..100_000).map(|_| rng.random_range(-1.0..1.0)).collect();
        let vb: Vec<f32> = (0..100_000).map(|_| rng.random_range(-1.0..1.0)).collect();
        run("kernel_l2_distance_100k", micro_repeats, &mut || {
            std::hint::black_box(l2_distance_slice(&va, &vb));
        });
    }
    {
        let logits = Tensor::randn(&[256, 10], 1.0, &mut rng);
        run("kernel_softmax_rows", micro_repeats, &mut || {
            std::hint::black_box(softmax_rows(&logits));
        });
    }

    // --- Codecs -------------------------------------------------------
    let params: Vec<f32> = (0..100_000).map(|_| rng.random_range(-0.5..0.5)).collect();
    for (name, cfg) in [
        ("codec_int8_roundtrip", CodecConfig::int8()),
        ("codec_topk10_roundtrip", CodecConfig::topk(0.1)),
        ("codec_stoch8_roundtrip", CodecConfig::stochastic8(7)),
    ] {
        let mut comp = Compressor::new(&cfg, 1, 7);
        run(name, micro_repeats, &mut || {
            std::hint::black_box(comp.transmit(0, &params));
        });
    }
    {
        // The codec the paper-scale workloads run, at their model's size.
        let p = zoo::c10_cnn(3, 8, NetScale::Small, 7).num_params();
        let mut comp = Compressor::new(&CodecConfig::topk_int8(0.25), 1, 7);
        run("codec_topk_int8_roundtrip", micro_repeats, &mut || {
            std::hint::black_box(comp.transmit(0, &params[..p]));
        });
    }

    // --- Planners -----------------------------------------------------
    {
        let k = 64usize;
        let scores: Vec<Vec<f64>> =
            (0..k).map(|_| (0..k).map(|_| rng.random_range(0.0..1.0)).collect()).collect();
        let active = vec![true; k];
        run("planner_greedy_assignment_64", micro_repeats, &mut || {
            std::hint::black_box(MigrationPlan::greedy_assignment_masked(&scores, &active));
        });
    }
    {
        let n = 512usize;
        let num_lans = 10u32;
        let lans: Vec<u32> = (0..n).map(|i| (i as u32) % num_lans).collect();
        let margs: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let mut m: Vec<f32> = (0..10).map(|_| rng.random_range(0.0..1.0)).collect();
                let s: f32 = m.iter().sum();
                m.iter_mut().for_each(|v| *v /= s);
                m
            })
            .collect();
        let marginals: Vec<&[f32]> = margs.iter().map(Vec::as_slice).collect();
        let desired: Vec<u32> = (0..n).map(|i| ((i as u32) * 7 + 3) % num_lans).collect();
        let pcfg = FleetPlannerConfig { top_m: 8, lambda: 0.1, seed: 7 };
        run("planner_fleet_topm_512", micro_repeats, &mut || {
            std::hint::black_box(plan_migrations(&pcfg, 1, &lans, &marginals, &desired, |i, j| {
                1.0 + ((i * 31 + j * 17) % 97) as f64 / 97.0
            }));
        });
    }

    // --- Flow simulation ---------------------------------------------
    // The traced wave lets the 1.6x `fedmigr diff` gate bound the cost of
    // timeline observability relative to its own baseline run-to-run.
    for (name, traced) in [("flow_sim_contended_wave", false), ("flow_sim_traced", true)] {
        run(name, micro_repeats, &mut || {
            let mut sim = FlowSim::new(FlowConfig::standard(7));
            if traced {
                sim.enable_trace();
            }
            let links: Vec<_> =
                (0..16).map(|i| sim.add_link(1e6 + (i as f64) * 1e5, 0.01, 0.005, None)).collect();
            let backbone = sim.add_link(4e6, 0.02, 0.02, None);
            for f in 0..64 {
                let path = [links[f % links.len()], backbone];
                sim.add_flow(&path, 200_000 + (f as u64) * 1_000);
            }
            sim.run();
            std::hint::black_box(sim.makespan());
            if traced {
                std::hint::black_box(sim.take_trace());
            }
        });
    }

    // --- End-to-end ---------------------------------------------------
    let (samples, epochs) = if opts.quick { (16, 3) } else { (24, 5) };
    let e2e = |scheme: Scheme, transport: TransportConfig, fleet: bool| {
        let mut cfg = RunConfig::new(scheme, epochs);
        cfg.agg_interval = 2;
        cfg.eval_interval = 2;
        cfg.seed = 7;
        cfg.transport = transport;
        move || {
            if fleet {
                let mut exp = FleetExperiment::synthetic(
                    200,
                    5,
                    8,
                    8,
                    7,
                    zoo::c10_cnn(3, 8, NetScale::Small, 7),
                );
                let mut cfg = cfg.clone();
                cfg.fleet = Some(FleetOptions { sample_frac: 0.1, top_m: 8 });
                std::hint::black_box(exp.run(&cfg));
            } else {
                let exp = build_experiment_with_samples(
                    Workload::C10,
                    Partition::Shards,
                    Scale::Smoke,
                    7,
                    Some(samples),
                );
                std::hint::black_box(exp.run(&cfg));
            }
        }
    };
    for (name, transport, fleet) in [
        ("e2e_dense_lockstep", TransportConfig::Lockstep, false),
        ("e2e_dense_flow", TransportConfig::flow(7), false),
        ("e2e_fleet_lockstep", TransportConfig::Lockstep, true),
    ] {
        run(name, e2e_repeats, &mut e2e(Scheme::fedmigr(7), transport, fleet));
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        return ExitCode::from(2);
    }
    info!("perf", "wrote {} ({} benchmarks)", opts.out, report.benchmarks.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_ordering() {
        let e = measure("spin", 1, 5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(e.repeats, 5);
        assert!(e.min_ns <= e.median_ns);
        assert!(e.median_ns > 0);
    }
}
