//! Continuous benchmark harness: times a fixed matrix of kernel, codec,
//! planner, flow-simulation and end-to-end benchmarks and writes a
//! versioned `BENCH_perf.json` for the `fedmigr_diff` CI gate.
//!
//! ```text
//! fedmigr_perf [--quick] [--out <path>] [--repeats <n>] [--filter <substr>]
//! ```
//!
//! * `--quick`   — CI mode: fewer repeats and smaller e2e workloads. Quick
//!   reports only compare against quick baselines.
//! * `--out`     — report path (default `BENCH_perf.json`).
//! * `--repeats` — override the timed repeat count for every benchmark.
//! * `--filter`  — run only benchmarks whose name contains the substring
//!   (the report then fails the vanished-benchmark check by design; use for
//!   local iteration, not for refreshing baselines).
//!
//! Kernel accounting and the profiler stay off here: this binary measures
//! the production-path cost, and the observability layers are benchmarked
//! implicitly by the e2e entries (which run exactly what the CLI runs).

use fedmigr_bench::perf::measure;
use fedmigr_compress::{CodecConfig, Compressor};
use fedmigr_core::{MigrationPlan, RunConfig, Scheme};
use fedmigr_diag::perf::{PerfEntry, PerfReport, PERF_SCHEMA_VERSION};
use fedmigr_fleet::{plan_migrations, FleetPlannerConfig};
use fedmigr_net::{FlowConfig, FlowSim, TransportConfig};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::Sgd;
use fedmigr_telemetry::info;
use fedmigr_tensor::{l2_distance_slice, softmax_rows, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Opts {
    quick: bool,
    out: String,
    repeats: Option<u32>,
    filter: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts =
        Opts { quick: false, out: "BENCH_perf.json".into(), repeats: None, filter: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--out" => {
                opts.out = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--repeats" => {
                let v = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                opts.repeats = Some(v);
                i += 2;
            }
            "--filter" => {
                opts.filter = Some(argv.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    opts
}

fn usage() -> ! {
    eprintln!("usage: fedmigr_perf [--quick] [--out <path>] [--repeats <n>] [--filter <substr>]");
    std::process::exit(2)
}

fn main() {
    let opts = parse_opts();
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
        // One full CNN training step: conv im2col/col2im, pool, softmax and
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
    {
        run("flow_sim_contended_wave", micro_repeats, &mut || {
            let mut sim = FlowSim::new(FlowConfig::standard(7));
            let links: Vec<_> =
                (0..16).map(|i| sim.add_link(1e6 + (i as f64) * 1e5, 0.01, 0.005, None)).collect();
            let backbone = sim.add_link(4e6, 0.02, 0.02, None);
            for f in 0..64 {
                let path = [links[f % links.len()], backbone];
                sim.add_flow(&path, 200_000 + (f as u64) * 1_000);
            }
            sim.run();
            std::hint::black_box(sim.makespan());
        });
        // Same wave with the event trace recording, so the 1.6x
        // fedmigr_diff gate bounds the cost of timeline observability
        // relative to its own baseline run-to-run.
        run("flow_sim_traced", micro_repeats, &mut || {
            let mut sim = FlowSim::new(FlowConfig::standard(7));
            sim.enable_trace();
            let links: Vec<_> =
                (0..16).map(|i| sim.add_link(1e6 + (i as f64) * 1e5, 0.01, 0.005, None)).collect();
            let backbone = sim.add_link(4e6, 0.02, 0.02, None);
            for f in 0..64 {
                let path = [links[f % links.len()], backbone];
                sim.add_flow(&path, 200_000 + (f as u64) * 1_000);
            }
            sim.run();
            std::hint::black_box(sim.makespan());
            std::hint::black_box(sim.take_trace());
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
                let mut exp = fedmigr_core::FleetExperiment::synthetic(
                    200,
                    5,
                    8,
                    8,
                    7,
                    zoo::c10_cnn(3, 8, NetScale::Small, 7),
                );
                let mut cfg = cfg.clone();
                cfg.fleet = Some(fedmigr_core::FleetOptions { sample_frac: 0.1, top_m: 8 });
                std::hint::black_box(exp.run(&cfg));
            } else {
                let exp = fedmigr_bench::build_experiment_with_samples(
                    fedmigr_bench::Workload::C10,
                    fedmigr_bench::Partition::Shards,
                    fedmigr_bench::Scale::Smoke,
                    7,
                    Some(samples),
                );
                std::hint::black_box(exp.run(&cfg));
            }
        }
    };
    {
        let mut f = e2e(Scheme::fedmigr(7), TransportConfig::Lockstep, false);
        run("e2e_dense_lockstep", e2e_repeats, &mut f);
    }
    {
        let mut f = e2e(Scheme::fedmigr(7), TransportConfig::flow(7), false);
        run("e2e_dense_flow", e2e_repeats, &mut f);
    }
    {
        let mut f = e2e(Scheme::fedmigr(7), TransportConfig::Lockstep, true);
        run("e2e_fleet_lockstep", e2e_repeats, &mut f);
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(2);
    }
    info!("perf", "wrote {} ({} benchmarks)", opts.out, report.benchmarks.len());
}
