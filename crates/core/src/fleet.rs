//! The fleet world: federated learning over populations far beyond what a
//! dense [`crate::Experiment`] holds in memory, run by the same round body.
//!
//! A dense run materializes every client up front — dataset, model,
//! optimizer — plus `K × K` migration matrices, so memory and planning cost
//! scale with the fleet even when only a handful of clients participate per
//! round. [`FleetExperiment`] keeps the population in a [`ClientPool`] of
//! ~100-byte dormant stubs instead. A fleet run is the dense round
//! (`runner::Run`, from `sample` to `bookkeep`) over the other side of its
//! one seam, [`Fleet`]: at an aggregation block's first epoch a cohort
//! (`sample_frac · K` clients) is sampled, activated into full
//! [`FlClient`]s (their datasets regenerated deterministically from the
//! stub seed) and charged its C2S download; it trains, migrates and uploads
//! through the dense phases; after the aggregation round's bookkeeping it
//! retires back to stubs. Peak RSS scales with the cohort, not `K`.
//!
//! Planning is factored the same way: instead of the dense `K × K`
//! objective, the DDPG agent sees a pooled fixed-dimension state (per-LAN
//! aggregates, `6 + 3·L` features) and picks a destination *LAN*;
//! [`fedmigr_fleet::plan_migrations`] then shortlists same-LAN plus `top_m`
//! hash-sampled cross-LAN candidates per participant and commits greedily —
//! decision cost is `O(n · (lan_size + top_m))` per round rather than
//! `O(K²)`. Links are the O(LANs) [`FleetTopology`] at zero latency.
//!
//! The fleet's topology, assignment and sampling streams are seeded
//! independently of the dense world's. Checkpoints share the dense
//! container format under `mode = "fleet"`; the payload is the run state
//! both worlds share plus the pool's dormant stubs, and it is written only
//! at aggregation boundaries, where every client is dormant — a
//! killed-and-resumed fleet run replays bit for bit.

#![deny(clippy::too_many_lines)]

use std::collections::HashMap;
use std::sync::Arc;

use fedmigr_data::{Dataset, SyntheticConfig, SyntheticWorld};
use fedmigr_drl::PooledMigrationState;
use fedmigr_fleet::{ClientPool, FleetAssignment, FleetTopology, FleetTopologyConfig, LanProfile};
use fedmigr_net::ClientCompute;
use fedmigr_nn::Model;
use rand::rngs::StdRng;
use rand::Rng;

use crate::client::FlClient;
use crate::engine::{self, CommonState};
use crate::metrics::RunMetrics;
use crate::migration::{self, CohortProfile};
use crate::runner::{Links, Run, RunConfig};

/// Fleet-mode knobs, carried in [`RunConfig::fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Fraction of the fleet sampled into each aggregation block's cohort
    /// (at least one client). Replaces `RunConfig::participation`, which
    /// fleet mode requires to stay at 1.0.
    pub sample_frac: f64,
    /// Shortlist width of the factored migration planner: cross-LAN
    /// candidates sampled per participant, and the per-source cap on
    /// retained candidates.
    pub top_m: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self { sample_frac: 0.05, top_m: 8 }
    }
}

/// A fleet-scale experiment: the client population as a lazy pool, a
/// compact O(LANs) topology, the devices, a held-out test set and the model
/// template.
pub struct FleetExperiment {
    pub(crate) pool: ClientPool,
    pub(crate) topo: FleetTopology,
    /// Device speeds by client id: the test-bed mix, the tiers
    /// [`ClientPool::new`] gives its stubs.
    pub(crate) compute: ClientCompute,
    pub(crate) test: Dataset,
    pub(crate) template: Model,
}

impl FleetExperiment {
    /// Builds a fleet experiment from pre-built parts.
    ///
    /// # Panics
    /// Panics when the pool and topology disagree on fleet size.
    pub fn new(pool: ClientPool, topo: FleetTopology, test: Dataset, template: Model) -> Self {
        assert_eq!(pool.len(), topo.num_clients(), "pool/topology fleet size mismatch");
        let compute = ClientCompute::testbed_mix(pool.len());
        Self { pool, topo, compute, test, template }
    }

    /// Builds the standard synthetic fleet: `k` clients over `num_lans`
    /// LANs (sizes as even as possible), a blocked-shard label world whose
    /// run length equals `base_samples` (so each client holds one or two
    /// classes — the paper's non-IID shard partitioning, in closed form),
    /// and an interval assignment jittering each client's holding around
    /// `base_samples`.
    ///
    /// # Panics
    /// Panics when `k < num_lans` or any size is zero.
    pub fn synthetic(
        k: usize,
        num_lans: usize,
        base_samples: usize,
        test_per_class: usize,
        seed: u64,
        template: Model,
    ) -> Self {
        assert!(num_lans > 0 && k >= num_lans, "need at least one client per LAN");
        assert!(base_samples > 0 && test_per_class > 0);
        let cfg = SyntheticConfig::c10_like(base_samples, seed);
        let world = SyntheticWorld::new(&cfg, base_samples as u64);
        let test = world.test_split(test_per_class);
        let assignment = FleetAssignment::build(k, base_samples, seed);
        let mut tcfg = FleetTopologyConfig::uniform(num_lans, 1, seed);
        tcfg.lan_sizes =
            (0..num_lans).map(|l| k / num_lans + usize::from(l < k % num_lans)).collect();
        let topo = FleetTopology::new(tcfg);
        let pool = ClientPool::new(world, assignment, &topo, seed);
        Self::new(pool, topo, test, template)
    }

    /// Fleet size `K`.
    pub fn num_clients(&self) -> usize {
        self.pool.len()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topo
    }

    /// Executes `cfg` over the fleet and returns the collected metrics.
    /// `&mut self` because retiring participants banks their dormant state
    /// back into the pool.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`RunConfig::validate`] or does not select
    /// fleet mode (`cfg.fleet` unset).
    pub fn run(&mut self, cfg: &RunConfig) -> RunMetrics {
        engine::run(cfg, || Run::fleet(self, cfg))
    }
}

/// The fleet's links: the O(LANs) topology, priced at zero latency.
impl Links for FleetTopology {
    fn c2s_bandwidth(&self, epoch: usize) -> f64 {
        FleetTopology::c2s_bandwidth(self, epoch)
    }

    fn c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> f64 {
        FleetTopology::c2c_bandwidth(self, i, j, epoch)
    }

    fn same_lan(&self, i: usize, j: usize) -> bool {
        FleetTopology::same_lan(self, i, j)
    }
}

/// The fleet side of the round's seam (`runner::World::Fleet`): the pool a
/// block's cohort is drawn from and retired into, and the fixed inputs of
/// the pooled planner.
pub(crate) struct Fleet<'a> {
    /// Between blocks, the whole per-client state of a fleet run (and so
    /// of its checkpoint).
    pub pool: &'a mut ClientPool,
    pub topo: &'a FleetTopology,
    template: &'a Model,
    /// Shortlist width and hash seed of the cohort planner
    /// ([`fedmigr_fleet::plan_migrations`]).
    pub top_m: usize,
    pub plan_seed: u64,
    cohort_n: usize,
    /// Static share of fleet data per LAN (a pooled-state feature).
    lan_load: Vec<f64>,
    /// The pooled DRL state builder; the agent's actions are LANs.
    pub pooled: PooledMigrationState,
}

impl<'a> Fleet<'a> {
    /// The fleet side of a run over `pool`, and the fleet's sample-weighted
    /// label distribution.
    pub fn new(
        pool: &'a mut ClientPool,
        topo: &'a FleetTopology,
        template: &'a Model,
        opts: FleetOptions,
        seed: u64,
    ) -> (Self, Vec<f64>) {
        let (k, num_lans) = (pool.len(), topo.num_lans());
        let mut lan_load = vec![0.0f64; num_lans];
        let mut population = vec![0.0f64; pool.world().num_classes()];
        let mut total = 0.0f64;
        for id in 0..k {
            let stub = pool.stub(id);
            lan_load[stub.lan as usize] += stub.len as f64;
            for (p, &q) in population.iter_mut().zip(&stub.marginal) {
                *p += stub.len as f64 * q as f64;
            }
            total += stub.len as f64;
        }
        lan_load.iter_mut().chain(&mut population).for_each(|v| *v /= total);
        let fleet = Self {
            pool,
            topo,
            template,
            top_m: opts.top_m,
            plan_seed: seed ^ 0x00F1_EE75,
            cohort_n: ((opts.sample_frac * k as f64).ceil() as usize).clamp(1, k),
            lan_load,
            pooled: PooledMigrationState::new(num_lans),
        };
        (fleet, population)
    }

    /// Samples a block's cohort from the run's stream and activates it:
    /// datasets are rematerialized (in parallel — materialization
    /// dominates), and previously-activated clients resume their banked
    /// RNG stream and migration counter.
    pub fn activate(&self, rng: &mut StdRng, lr: f32) -> Vec<FlClient> {
        let ids = sample_cohort(rng, self.pool.len(), self.cohort_n);
        let pool = &*self.pool;
        // `Model` is Send but not Sync (boxed layers), so clone the models
        // here and hand them to the workers; only the pool is shared.
        let mut models: Vec<Option<Model>> =
            ids.iter().map(|_| Some(self.template.clone())).collect();
        fedmigr_telemetry::fan_out(&mut models, |first, part| {
            part.iter_mut()
                .zip(&ids[first..])
                .map(|(model, &id)| activate_one(pool, id, model.take().expect("taken once"), lr))
                .collect()
        })
    }

    /// The pooled DRL state of every cohort member, and the cohort profile
    /// they were built from (the planner reads it again).
    pub fn states(
        &self,
        cohort: &[FlClient],
        common: &CommonState,
        progress: f64,
        mean_loss: f32,
    ) -> (Vec<Vec<f32>>, CohortProfile) {
        let num_lans = self.topo.num_lans();
        let marginals = migration::cohort_marginals(self.pool, cohort);
        let lans: Vec<u32> = cohort.iter().map(|c| self.pool.stub(c.id()).lan).collect();
        let lan = LanProfile::build(&lans, &marginals, num_lans, self.pool.world().num_classes());
        let profile = CohortProfile { lans, lan };
        let mut active_frac = vec![0.0f64; num_lans];
        for &l in &profile.lans {
            active_frac[l as usize] += 1.0 / profile.lans.len() as f64;
        }
        let states = marginals
            .iter()
            .map(|marginal| {
                self.pooled.build(
                    progress,
                    mean_loss as f64,
                    common.loss_trend(mean_loss),
                    common.meter.bandwidth_remaining_frac(),
                    common.meter.compute_remaining_frac(),
                    1.0,
                    &profile.lan.distance_row(marginal),
                    &active_frac,
                    &self.lan_load,
                )
            })
            .collect();
        (states, profile)
    }
}

/// Activates one client: rematerializes its dataset from the stub range
/// and — if it has participated before — resumes its banked batch-order RNG
/// stream and migration counter (dormant clients keep no model; the run
/// installs the global one).
fn activate_one(pool: &ClientPool, id: usize, model: Model, lr: f32) -> FlClient {
    let stub = pool.stub(id);
    let data = Arc::new(pool.materialize(id));
    let indices: Vec<usize> = (0..stub.len as usize).collect();
    let mut client = FlClient::new(id, data, indices, model, lr, stub.seed);
    if let Some(saved) = stub.dormant.rng {
        client.rng = StdRng::from_state(saved);
        client.migrations_received = stub.dormant.migrations_received as usize;
    }
    client
}

/// Samples `n` distinct client ids from `0..k` — a partial Fisher–Yates
/// over a sparse swap map, `O(n)` time and memory regardless of `k`, so a
/// million-client fleet never allocates a fleet-sized scratch vector.
/// Returns ids in ascending order (the cohort's canonical order).
fn sample_cohort(rng: &mut StdRng, k: usize, n: usize) -> Vec<usize> {
    debug_assert!(n >= 1 && n <= k);
    let mut swapped: HashMap<usize, usize> = HashMap::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.random_range(i..k);
        let vi = *swapped.get(&i).unwrap_or(&i);
        let vj = *swapped.get(&j).unwrap_or(&j);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use crate::privacy::DpConfig;
    use crate::scheme::Scheme;
    use fedmigr_compress::CodecConfig;
    use fedmigr_nn::zoo::{c10_cnn, NetScale};
    use rand::SeedableRng;

    fn small_fleet(k: usize, lans: usize, seed: u64) -> FleetExperiment {
        FleetExperiment::synthetic(k, lans, 24, 4, seed, c10_cnn(3, 8, NetScale::Small, seed))
    }

    fn fleet_cfg(scheme: Scheme, epochs: usize) -> RunConfig {
        let mut cfg = RunConfig::new(scheme, epochs);
        cfg.agg_interval = 2;
        cfg.eval_interval = 2;
        cfg.batch_size = 8;
        cfg.max_batches_per_epoch = Some(2);
        cfg.fleet = Some(FleetOptions { sample_frac: 0.25, top_m: 4 });
        cfg
    }

    #[test]
    fn fedavg_fleet_run_completes() {
        let mut exp = small_fleet(40, 2, 11);
        let m = exp.run(&fleet_cfg(Scheme::FedAvg, 4));
        assert_eq!(m.records.len(), 4);
        assert!(m.records.last().unwrap().test_accuracy.is_some());
        assert_eq!(m.migrations_local + m.migrations_global, 0);
        assert!(m.traffic().total() > 0);
        assert!(m.sim_time() > 0.0);
    }

    #[test]
    fn fedmigr_fleet_migrates_and_is_deterministic() {
        let run = || {
            let mut exp = small_fleet(40, 4, 5);
            exp.run(&fleet_cfg(Scheme::fedmigr(5), 6))
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_csv(), b.to_csv(), "fleet runs must be deterministic in the seed");
        assert_eq!(a.migrations_local, b.migrations_local);
        assert_eq!(a.migrations_global, b.migrations_global);
        assert!(
            a.migrations_local + a.migrations_global > 0,
            "shard-non-IID cohorts should trigger migrations"
        );
        assert!(a.link_migrations.is_empty(), "no K × K table in fleet mode");
    }

    #[test]
    fn reactivated_clients_resume_their_rng_stream() {
        // With a 100% cohort and agg every epoch, every client re-activates
        // each round; determinism across two identical runs exercises the
        // retire/import path.
        let mut cfg = fleet_cfg(Scheme::FedAvg, 3);
        cfg.agg_interval = 1;
        cfg.fleet = Some(FleetOptions { sample_frac: 1.0, top_m: 2 });
        let a = small_fleet(10, 2, 3).run(&cfg);
        let b = small_fleet(10, 2, 3).run(&cfg);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn fleet_checkpoint_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("fedmigr_fleet_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = fleet_cfg(Scheme::fedmigr(9), 8);
        cfg.checkpoint_every = Some(2);
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());

        let full = small_fleet(24, 3, 9).run(&cfg);

        let mut killed_cfg = cfg.clone();
        killed_cfg.kill_at = Some(5);
        let _ = small_fleet(24, 3, 9).run(&killed_cfg);
        let mut resume_cfg = cfg.clone();
        resume_cfg.resume = Some(dir.join("latest.fmrs").to_string_lossy().into_owned());
        let resumed = small_fleet(24, 3, 9).run(&resume_cfg);

        assert_eq!(full.to_csv(), resumed.to_csv(), "kill + resume must replay bit for bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `cfg` twice on fresh fleets, asserts equal CSVs, and returns one.
    fn seeded_csv(cfg: &RunConfig) -> String {
        let a = small_fleet(24, 3, 4).run(cfg).to_csv();
        assert_eq!(a, small_fleet(24, 3, 4).run(cfg).to_csv(), "deterministic in the seed");
        a
    }

    #[test]
    fn fleet_runs_under_differential_privacy() {
        let plain = fleet_cfg(Scheme::fedmigr(4), 4);
        let mut cfg = plain.clone();
        cfg.dp = Some(DpConfig::with_epsilon(8.0));
        assert_ne!(seeded_csv(&cfg), seeded_csv(&plain), "DP noise reaches the uploads");
    }

    #[test]
    fn fleet_runs_under_a_robust_aggregator() {
        let plain = fleet_cfg(Scheme::FedAvg, 4);
        let mut cfg = plain.clone();
        cfg.aggregator = Aggregator::TrimmedMean { trim: 0.2 };
        assert_ne!(seeded_csv(&cfg), seeded_csv(&plain), "the trimmed mean aggregates");
    }

    #[test]
    fn fleet_runs_fedprox() {
        let plain = fleet_cfg(Scheme::FedAvg, 4);
        let cfg = fleet_cfg(Scheme::FedProx { mu: 0.5 }, 4);
        assert_ne!(seeded_csv(&cfg), seeded_csv(&plain), "the proximal term pulls training");
    }

    #[test]
    #[should_panic(expected = "fleet mode")]
    fn fleet_rejects_lossy_codecs() {
        let mut cfg = fleet_cfg(Scheme::FedAvg, 2);
        cfg.codec = CodecConfig::Uniform { bits: 8, error_feedback: false };
        small_fleet(10, 2, 1).run(&cfg);
    }

    #[test]
    fn sample_cohort_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let ids = sample_cohort(&mut rng, 100, 13);
            assert_eq!(ids.len(), 13);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(ids.iter().all(|&i| i < 100));
        }
    }
}
