//! `fedbench_probe [--quick]`: per-layer probes. Times calls into each
//! crate's public functions — warm-up, then repeats until 30 reps and 50 ms
//! or 0.3 s, whichever comes first — and prints one JSON object: the metric
//! values (from the median repeat), each probe's median/min/reps, and a
//! span per probe.
//!
//! Shapes come from the model and the workloads, not from constants:
//! `P = c10_cnn(3, 8, Small).num_params()` is the vector every codec,
//! aggregation and screening probe handles, 30 clients is dense_comm's
//! federation, 10,000 stubs and 200-client cohorts are fleet_sparse's.
//! Allocation counts are exact, from the counting allocator below. The probe
//! flips none of the program's global switches (kernel accounting and the
//! profiler stay off, as in an uninstrumented run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fedbench::spans::Recorder;
use fedbench::stats::Summary;
use fedmigr_compress::{CodecConfig, Compressor};
use fedmigr_core::{Aggregator, MigrationPlan, Quarantine, QuarantineConfig, RobustStats};
use fedmigr_data::{partition_shards, SyntheticConfig, SyntheticDataset, SyntheticWorld};
use fedmigr_diag::{DriftSnapshot, EmdSnapshot};
use fedmigr_drl::qp::FlmmRelaxation;
use fedmigr_drl::{AgentConfig, DdpgAgent, MigrationState, Transition};
use fedmigr_fleet::{
    plan_migrations, ClientPool, FleetAssignment, FleetPlannerConfig, FleetTopology,
    FleetTopologyConfig,
};
use fedmigr_net::transport::{simulate_c2s, simulate_migrations};
use fedmigr_net::{FaultConfig, FaultModel, FlowConfig, FlowSim, Topology, TopologyConfig};
use fedmigr_nn::zoo::{self, NetScale};
use fedmigr_nn::{Layer, Sgd};
use fedmigr_telemetry::trace::{json_num, json_str};
use fedmigr_tensor::{l2_distance_slice, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts every allocation request (alloc, zeroed alloc, realloc) and
/// forwards to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic and
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation requests `f` makes, all threads.
fn count_allocs(mut f: impl FnMut()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    (ALLOCS.load(Ordering::Relaxed) - before) as f64
}

struct Probes {
    quick: bool,
    rec: Recorder,
    metrics: Vec<(String, f64)>,
    timings: BTreeMap<String, Summary>,
}

impl Probes {
    /// Times `f` and returns the median repeat in seconds; the probe is
    /// recorded under `name`, which is also its span.
    fn time(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let span = self.rec.open(name, "probe", None);
        let (warmup, min_reps, min_s, max_s) =
            if self.quick { (1, 3, 0.0, 0.0) } else { (2, 30, 0.05, 0.3) };
        for _ in 0..warmup {
            f();
        }
        let mut times = Vec::new();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_secs_f64());
            let elapsed = start.elapsed().as_secs_f64();
            let enough = times.len() >= min_reps && elapsed >= min_s;
            if enough || (times.len() >= 3 && elapsed >= max_s) {
                break;
            }
        }
        self.rec.close(span);
        let summary = Summary::of(&times).expect("at least one repeat");
        self.timings.insert(name.to_string(), summary);
        summary.median
    }

    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

fn main() {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(other) => {
            eprintln!(
                "fedbench_probe: unknown argument {other:?}; usage: fedbench_probe [--quick]"
            );
            std::process::exit(2);
        }
    };
    let mut p =
        Probes { quick, rec: Recorder::default(), metrics: Vec::new(), timings: BTreeMap::new() };
    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = zoo::c10_cnn(3, 8, NetScale::Small, seed);
    let num_params = model.num_params();
    let params = model.params();
    let noisy = |rng: &mut StdRng| -> Vec<f32> {
        params.iter().map(|v| v + rng.random_range(-0.01f32..0.01)).collect()
    };

    // --- tensor ---------------------------------------------------------
    {
        let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
        let b = Tensor::randn(&[128, 128], 1.0, &mut rng);
        let t = p.time("tensor.matmul_128_gflops", || {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        p.put("tensor.matmul_128_gflops", 2.0 * 128f64.powi(3) / t / 1e9);

        // The GEMM Conv2d issues for conv1 at dense_train's batch of 32:
        // im2col rows [B·H·W, C·k·k] (stride 1, same padding) times the
        // layer's weight, whose shape is read from the model.
        let mut conv1 = Vec::new();
        model.net_mut().visit_params(&mut |w, _| {
            if conv1.is_empty() {
                conv1 = w.shape().to_vec();
            }
        });
        let (patch, out_ch) = (conv1[0], conv1[1]);
        let rows = 32 * model.input_shape()[1] * model.input_shape()[2];
        let cols = Tensor::randn(&[rows, patch], 1.0, &mut rng);
        let weight = Tensor::randn(&[patch, out_ch], 1.0, &mut rng);
        let t = p.time("tensor.matmul_conv1_gflops", || {
            black_box(black_box(&cols).matmul(black_box(&weight)));
        });
        p.put("tensor.matmul_conv1_gflops", 2.0 * (rows * patch * out_ch) as f64 / t / 1e9);
        let t = p.time("tensor.transpose_gbps", || {
            black_box(black_box(&cols).transpose2());
        });
        p.put("tensor.transpose_gbps", 2.0 * (rows * patch * 4) as f64 / t / 1e9);

        let va: Vec<f32> = (0..100_000).map(|_| rng.random_range(-1.0..1.0)).collect();
        let vb: Vec<f32> = (0..100_000).map(|_| rng.random_range(-1.0..1.0)).collect();
        let t = p.time("tensor.l2_distance_gbps", || {
            black_box(l2_distance_slice(black_box(&va), black_box(&vb)));
        });
        p.put("tensor.l2_distance_gbps", 2.0 * (va.len() * 4) as f64 / t / 1e9);
    }

    // --- data and nn ------------------------------------------------------
    {
        // dense_train's dataset: c10_like(80).
        let cfg = SyntheticConfig::c10_like(80, seed);
        let t = p.time("data.generate_ms", || {
            black_box(SyntheticDataset::generate(black_box(&cfg)));
        });
        p.put("data.generate_ms", t * 1e3);
        let data = SyntheticDataset::generate(&cfg);

        // dense_comm's partition: c10_like(30) over 30 clients, one shard each.
        let comm = SyntheticDataset::generate(&SyntheticConfig::c10_like(30, seed));
        let t = p.time("data.partition_shards_ms", || {
            black_box(partition_shards(black_box(&comm.train), 30, 1, seed));
        });
        p.put("data.partition_shards_ms", t * 1e3);

        // fleet_sparse's holding: 8 samples, regenerated from the lazy world.
        let world = SyntheticWorld::new(&SyntheticConfig::c10_like(8, seed), 8);
        let mut start = 0u64;
        let t = p.time("data.world_materialize_us", || {
            start += 8;
            black_box(world.materialize(black_box(start), 8));
        });
        p.put("data.world_materialize_us", t * 1e6);

        let mut opt = Sgd::new(0.01);
        for (batch, name) in [(32usize, "nn.train_step_b32_ms"), (8, "nn.train_step_b8_ms")] {
            let idx: Vec<usize> = (0..batch).collect();
            let (x, labels) = data.train.batch(&idx);
            let t = p.time(name, || {
                black_box(model.train_step(black_box(&x), black_box(&labels), &mut opt));
            });
            p.put(name, t * 1e3);
            if batch == 32 {
                let allocs = count_allocs(|| {
                    black_box(model.train_step(&x, &labels, &mut opt));
                });
                p.put("nn.train_step_b32_allocs", allocs);
            }
        }
        let (x, labels) = data.test.full_batch();
        let t = p.time("nn.eval_ms", || {
            black_box(model.evaluate(black_box(&x), black_box(&labels)));
        });
        p.put("nn.eval_ms", t * 1e3);
        let t = p.time("nn.params_roundtrip_us", || {
            let v = model.params();
            model.set_params(black_box(&v));
        });
        p.put("nn.params_roundtrip_us", t * 1e6);
        let t = p.time("nn.model_clone_us", || {
            black_box(black_box(&model).clone());
        });
        p.put("nn.model_clone_us", t * 1e6);
    }

    // --- compress ---------------------------------------------------------
    let topk = CodecConfig::topk_int8(0.25);
    {
        let mb = (num_params * 4) as f64 / 1e6;
        for (name, cfg) in
            [("compress.int8_mbps", CodecConfig::int8()), ("compress.topk_int8_mbps", topk.clone())]
        {
            let mut comp = Compressor::new(&cfg, 1, seed);
            let t = p.time(name, || {
                black_box(comp.transmit(0, black_box(&params)));
            });
            p.put(name, mb / t);
        }
        let mut comp = Compressor::new(&topk, 30, seed);
        let allocs = count_allocs(|| {
            black_box(comp.transmit(0, &params));
        });
        p.put("compress.topk_int8_allocs", allocs);
        let models: Vec<Vec<f32>> = (0..30).map(|_| noisy(&mut rng)).collect();
        let t = p.time("compress.batch30_ms", || {
            let items = models.iter().cloned().enumerate().collect();
            black_box(comp.transmit_batch(items));
        });
        p.put("compress.batch30_ms", t * 1e3);
    }

    // --- net --------------------------------------------------------------
    {
        // dense_comm's network: three LANs of ten under --net-stress 0.3,
        // moving one encoded model per client.
        let topo = Topology::new(&TopologyConfig::default_edge(vec![10, 10, 10], seed));
        let fault = FaultModel::new(FaultConfig::none().with_network_stress(0.3), 30);
        let flow = FlowConfig::standard(seed);
        let bytes = Compressor::new(&topk, 1, seed).encoded_size(num_params);
        let clients: Vec<usize> = (0..30).collect();
        let mut epoch = 0;
        let t = p.time("net.c2s_wave_ms", || {
            epoch += 1;
            black_box(simulate_c2s(&topo, &fault, epoch, &flow, &clients, bytes));
        });
        p.put("net.c2s_wave_ms", t * 1e3);
        // A 30-move permutation that mixes same-LAN and cross-LAN hops.
        let moves: Vec<(usize, usize)> = (0..30).map(|i| (i, (i + 7) % 30)).collect();
        let mut epoch = 0;
        let t = p.time("net.migration_wave_ms", || {
            epoch += 1;
            black_box(simulate_migrations(&topo, &fault, epoch, &flow, &moves, bytes));
        });
        p.put("net.migration_wave_ms", t * 1e3);

        // 64 flows over 16 access links and a backbone, as fedmigr_perf's
        // flow_sim_contended_wave.
        let contended = |traced: bool| {
            let mut sim = FlowSim::new(FlowConfig::standard(7));
            if traced {
                sim.enable_trace();
            }
            let links: Vec<_> =
                (0..16).map(|i| sim.add_link(1e6 + (i as f64) * 1e5, 0.01, 0.005, None)).collect();
            let backbone = sim.add_link(4e6, 0.02, 0.02, None);
            for f in 0..64 {
                sim.add_flow(&[links[f % links.len()], backbone], 200_000 + (f as u64) * 1_000);
            }
            sim.run();
            black_box(sim.makespan());
            black_box(sim.take_trace());
        };
        let plain = p.time("net.flow_contended_ms", || contended(false));
        p.put("net.flow_contended_ms", plain * 1e3);
        let traced = p.time("net.flow_traced_ratio", || contended(true));
        p.put("net.flow_traced_ratio", traced / plain);
    }

    // --- drl --------------------------------------------------------------
    for (k, select_name) in [(10usize, "drl.select_k10_us"), (30, "drl.select_k30_us")] {
        let featurizer = MigrationState::new(k);
        let mut agent = DdpgAgent::new(AgentConfig::new(featurizer.dim(), k, seed));
        let row: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..1.0)).collect();
        let state = featurizer.build(0.5, 1.5, -0.01, 0.8, 0.8, &row);
        let t = p.time(select_name, || {
            black_box(agent.select_action(black_box(&state), None));
        });
        p.put(select_name, t * 1e6);
        if k == 30 {
            for i in 0..agent.config().warmup.max(agent.config().batch_size) * 2 {
                agent.observe(Transition {
                    state: state.clone(),
                    action: i % k,
                    reward: rng.random_range(-1.0f32..1.0),
                    next_state: state.clone(),
                    done: false,
                });
            }
            let t = p.time("drl.update_k30_ms", || {
                black_box(agent.update().expect("replay is past warm-up"));
            });
            p.put("drl.update_k30_ms", t * 1e3);
        }
    }
    let square = |rng: &mut StdRng, n: usize| -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..n).map(|_| rng.random_range(0.0..1.0)).collect()).collect()
    };
    {
        // The relaxed-FLMM solve as the runner configures it (40 steps of
        // 0.4): the paper's Fig. 6 decision time.
        let relax = FlmmRelaxation {
            benefit: square(&mut rng, 30),
            cost: square(&mut rng, 30),
            lambda: 0.1,
            entropy: 0.05,
        };
        let t = p.time("drl.oracle_k30_ms", || {
            black_box(FlmmRelaxation::round(&black_box(&relax).solve(40, 0.4)));
        });
        p.put("drl.oracle_k30_ms", t * 1e3);
    }

    // --- core -------------------------------------------------------------
    {
        let scores = square(&mut rng, 30);
        let active = vec![true; 30];
        let t = p.time("core.plan_greedy_k30_us", || {
            black_box(MigrationPlan::greedy_assignment_masked(black_box(&scores), &active));
        });
        p.put("core.plan_greedy_k30_us", t * 1e6);

        // FedAvg over dense_comm's 30 uploads and fleet_sparse's 200.
        let uploads: Vec<Vec<f32>> = (0..200).map(|_| noisy(&mut rng)).collect();
        for (k, name) in [(30usize, "core.aggregate_k30_ms"), (200, "core.aggregate_k200_ms")] {
            let entries: Vec<(&[f32], f64)> =
                uploads[..k].iter().map(|u| (u.as_slice(), 24.0)).collect();
            let mut stats = RobustStats::default();
            let t = p.time(name, || {
                black_box(Aggregator::FedAvg.aggregate(black_box(&entries), &params, &mut stats));
            });
            p.put(name, t * 1e3);
        }
        let mut quarantine = Quarantine::new(QuarantineConfig::default(), 30);
        let t = p.time("core.quarantine_screen_us", || {
            black_box(quarantine.screen(3, black_box(&uploads[0]), black_box(&params)));
        });
        p.put("core.quarantine_screen_us", t * 1e6);

        // --- diag (on the same 30 models) ---------------------------------
        let mix: Vec<Vec<f64>> =
            square(&mut rng, 30).into_iter().map(|r| r[..10].to_vec()).collect();
        let population = vec![0.1; 10];
        let t = p.time("diag.emd_us", || {
            black_box(EmdSnapshot::measure(black_box(&mix), &population));
        });
        p.put("diag.emd_us", t * 1e6);
        let weights = vec![24.0; 30];
        let t = p.time("diag.drift_ms", || {
            black_box(DriftSnapshot::measure(black_box(&uploads[..30]), &params, &weights));
        });
        p.put("diag.drift_ms", t * 1e3);
    }

    // --- fleet ------------------------------------------------------------
    {
        // The pool as `FleetExperiment::synthetic` builds it for fleet_sparse:
        // 10,000 clients, 10 LANs, 8 samples each.
        let (k, num_lans, samples) = (10_000usize, 10usize, 8usize);
        let build = || {
            let world =
                SyntheticWorld::new(&SyntheticConfig::c10_like(samples, seed), samples as u64);
            let assignment = FleetAssignment::build(k, samples, seed);
            let mut tcfg = FleetTopologyConfig::uniform(num_lans, 1, seed);
            tcfg.lan_sizes = vec![k / num_lans; num_lans];
            let topo = FleetTopology::new(tcfg);
            ClientPool::new(world, assignment, &topo, seed)
        };
        let t = p.time("fleet.pool_build_ms", || {
            black_box(build());
        });
        p.put("fleet.pool_build_ms", t * 1e3);
        let pool = build();
        let mut id = 0;
        let t = p.time("fleet.materialize_us", || {
            id = (id + 37) % k;
            black_box(pool.materialize(black_box(id)));
        });
        p.put("fleet.materialize_us", t * 1e6);

        // One round's plan over a 200-client cohort drawn across the pool.
        let cohort: Vec<usize> = (0..200).map(|i| i * (k / 200)).collect();
        let lans: Vec<u32> = cohort.iter().map(|&c| pool.stub(c).lan).collect();
        let marginals: Vec<&[f32]> =
            cohort.iter().map(|&c| pool.stub(c).marginal.as_slice()).collect();
        let desired: Vec<u32> = (0..200u32).map(|i| (i * 7 + 3) % num_lans as u32).collect();
        let pcfg = FleetPlannerConfig { top_m: 8, lambda: 0.1, seed };
        let mut round = 0;
        let t = p.time("fleet.plan_n200_ms", || {
            round += 1;
            black_box(plan_migrations(&pcfg, round, &lans, &marginals, &desired, |i, j| {
                1.0 + ((i * 31 + j * 17) % 97) as f64 / 97.0
            }));
        });
        p.put("fleet.plan_n200_ms", t * 1e3);
    }

    let metrics: Vec<String> =
        p.metrics.iter().map(|(n, v)| format!("{}:{}", json_str(n), json_num(*v))).collect();
    let timings: Vec<String> = p
        .timings
        .iter()
        .map(|(n, s)| {
            format!(
                "{}:{{\"median_s\":{},\"min_s\":{},\"reps\":{}}}",
                json_str(n),
                json_num(s.median),
                json_num(s.min),
                s.n
            )
        })
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"timings\":{{{}}},\"spans\":{}}}",
        metrics.join(","),
        timings.join(","),
        p.rec.to_json()
    );
}
