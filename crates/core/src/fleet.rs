//! The fleet runner: federated learning over populations far beyond what
//! the dense [`crate::Experiment`] can hold in memory.
//!
//! The dense runner materializes every client up front — dataset, model,
//! optimizer — plus `K × K` topology and migration matrices, so memory and
//! planning cost scale with the fleet even when only a handful of clients
//! participate per round. [`FleetExperiment`] inverts that: the population
//! lives in a [`ClientPool`] of ~100-byte dormant stubs, each round samples
//! a cohort (`sample_frac · K` participants), activates only those into
//! full [`FlClient`]s (regenerating their datasets deterministically from
//! the stub seed), trains, migrates, aggregates, and retires them back to
//! stubs. Peak RSS scales with the cohort, not `K`.
//!
//! Migration planning is factored the same way: instead of the dense
//! `K × K` objective, the DDPG agent sees a pooled fixed-dimension state
//! (per-LAN aggregates, `6 + 3·L` features) and picks a destination *LAN*;
//! [`fedmigr_fleet::plan_migrations`] then shortlists same-LAN plus `top_m` hash-sampled
//! cross-LAN candidates per participant and commits greedily — decision
//! cost is `O(n · (lan_size + top_m))` per round rather than `O(K²)`.
//!
//! Fleet mode is a new opt-in world (`RunConfig::fleet`), not a replay of
//! the dense one: its topology, assignment and sampling streams are seeded
//! independently, and the dense path stays byte-identical whether or not
//! this module exists. Checkpoints share the dense container format under
//! `mode = "fleet"` (the payload is [`FleetState`]) and are written
//! only at aggregation boundaries, where every client is dormant — a
//! killed-and-resumed fleet run replays bit for bit.

#![deny(clippy::too_many_lines)]

use std::collections::HashMap;
use std::sync::Arc;

use fedmigr_data::{Dataset, SyntheticConfig, SyntheticWorld};
use fedmigr_drl::PooledMigrationState;
use fedmigr_fleet::{ClientPool, FleetAssignment, FleetTopology, FleetTopologyConfig};
use fedmigr_net::{transfer_time, FaultModel};
use fedmigr_nn::Model;
use fedmigr_telemetry::span;
use rand::rngs::StdRng;
use rand::Rng;

use crate::aggregate::Aggregator;
use crate::checkpoint::RunStamp;
use crate::client::FlClient;
use crate::engine::{self, CommonState, Exit, Observers, Outcome, RoundLoop, Totals};
use crate::kernels::KernelPhases;
use crate::metrics::{EpochRecord, RobustStats, RunMetrics};
use crate::migration::{self, CohortProfile, CohortRound, MigrationPlan};
use crate::runner::{aggregate_active, train_all, RunConfig, Upload, VPhase};
use crate::timeline_capture::TimelineCapture;

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
/// compact O(LANs) topology, a held-out test set and the model template.
pub struct FleetExperiment {
    pool: ClientPool,
    topo: FleetTopology,
    test: Dataset,
    template: Model,
}

impl FleetExperiment {
    /// Builds a fleet experiment from pre-built parts.
    ///
    /// # Panics
    /// Panics when the pool and topology disagree on fleet size.
    pub fn new(pool: ClientPool, topo: FleetTopology, test: Dataset, template: Model) -> Self {
        assert_eq!(pool.len(), topo.num_clients(), "pool/topology fleet size mismatch");
        Self { pool, topo, test, template }
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
        if let Err(e) = cfg.validate() {
            panic!("invalid run config: {e}");
        }
        let Some(opts) = cfg.fleet else {
            panic!("a FleetExperiment runs fleet mode: set RunConfig::fleet")
        };
        engine::run(cfg, || {
            let run = FleetRun::new(self, cfg, opts);
            fedmigr_telemetry::debug!(
                "core::fleet",
                "fleet run start: scheme={} K={} cohort={} lans={} epochs={} seed={}",
                cfg.scheme.name(),
                run.ctx.k,
                run.ctx.cohort_n,
                run.ctx.num_lans,
                cfg.epochs,
                cfg.seed
            );
            run
        })
    }
}

/// Everything a fleet round reads and writes that must survive a crash.
/// Deliberately small on the wire: per-client state lives in the pool's
/// dormant stubs (RNG stream, migration counter, participation count), so a
/// K = 100,000 checkpoint is a few megabytes, not a dense `K × num_params`
/// dump.
pub(crate) struct FleetState<'a> {
    pub common: CommonState,
    pub pool: &'a mut ClientPool,
    /// Active cohort, in sampled-id order; empty between blocks (and so at
    /// every checkpoint). Model distribution and upload charges are
    /// participant-scoped: dormant clients hold no model, so nothing is
    /// ever broadcast fleet-wide.
    pub cohort: Vec<FlClient>,
}

/// What a fleet run fixes once and never changes.
struct FleetCtx<'a> {
    cfg: &'a RunConfig,
    opts: FleetOptions,
    topo: &'a FleetTopology,
    test: &'a Dataset,
    template: &'a Model,
    k: usize,
    cohort_n: usize,
    num_lans: usize,
    model_bytes: u64,
    /// Static share of fleet data per LAN (a pooled-state feature).
    lan_load: Vec<f64>,
    pooled: PooledMigrationState,
    stamp: RunStamp,
}

struct FleetRun<'a> {
    ctx: FleetCtx<'a>,
    st: FleetState<'a>,
    obs: Observers,
    /// Model the evaluations load parameters into.
    scratch: Model,
}

/// What one fleet round computes on the way to its record.
struct Round {
    epoch: usize,
    traffic_before: u64,
    compute_before: f64,
    mean_loss: f32,
    states: Option<Vec<Vec<f32>>>,
    /// The cohort profile the states were built from, present with them.
    profile: Option<CohortProfile>,
    accuracy: Option<f64>,
}

impl<'a> FleetRun<'a> {
    fn new(exp: &'a mut FleetExperiment, cfg: &'a RunConfig, opts: FleetOptions) -> Self {
        let k = exp.pool.len();
        let num_lans = exp.topo.num_lans();
        let mut scratch = exp.template.clone();
        let mut lan_load = vec![0.0f64; num_lans];
        let mut total = 0.0f64;
        for id in 0..k {
            let stub = exp.pool.stub(id);
            lan_load[stub.lan as usize] += stub.len as f64;
            total += stub.len as f64;
        }
        lan_load.iter_mut().for_each(|v| *v /= total);
        let pooled = PooledMigrationState::new(num_lans);
        let ctx = FleetCtx {
            cfg,
            opts,
            topo: &exp.topo,
            test: &exp.test,
            template: &exp.template,
            k,
            cohort_n: ((opts.sample_frac * k as f64).ceil() as usize).clamp(1, k),
            num_lans,
            model_bytes: scratch.wire_bytes(),
            lan_load,
            stamp: RunStamp::of(cfg, k, scratch.num_params(), "fleet"),
            pooled,
        };
        let common = CommonState::new(cfg, scratch.params(), ctx.pooled.dim(), num_lans);
        // Sparse timeline: tail intervals only for clients that actually
        // appeared, so a 10k-client fleet round costs O(cohort) timeline
        // lines. Intervals are keyed by global client id; the fleet's
        // lockstep transfers land as coarse upload/migrate windows.
        let tcap = TimelineCapture::new(
            cfg.diag.timeline_out.as_deref(),
            "fleet",
            &cfg.scheme.name(),
            cfg.transport.name(),
            k,
            cfg.seed,
            true,
        );
        Self {
            ctx,
            st: FleetState { common, pool: &mut exp.pool, cohort: Vec::new() },
            obs: Observers { tcap, flight: None, kphases: KernelPhases::new() },
            scratch,
        }
    }

    /// Lockstep C2S pricing of one model transfer per client in `ids`.
    fn charge_c2s(&mut self, ids: &[usize], epoch: usize) {
        let common = &mut self.st.common;
        let n = ids.len();
        common.meter.record_c2s(n as u64 * self.ctx.model_bytes);
        let t0 = common.clock.now();
        let adv =
            n as f64 * transfer_time(self.ctx.model_bytes, self.ctx.topo.c2s_bandwidth(epoch));
        common.clock.advance(VPhase::C2s, adv);
        if self.obs.tcap.active() {
            for &id in ids {
                self.obs.tcap.upload(id, t0, adv, adv, false);
            }
        }
    }

    // --- Phases ----------------------------------------------------------

    /// (1) Cohort activation at each aggregation block's start: sample,
    /// charge the participant-scoped downlink, materialize.
    fn activate(&mut self, epoch: usize) {
        if self.st.cohort.is_empty() {
            let _activate = span!("core::fleet", "cohort_activate");
            let ids = sample_cohort(&mut self.st.common.rng, self.ctx.k, self.ctx.cohort_n);
            self.charge_c2s(&ids, epoch);
            self.st.cohort = activate(
                self.st.pool,
                self.ctx.template,
                &ids,
                &self.st.common.global,
                self.ctx.cfg.lr,
            );
        }
        self.obs.kphases.credit("cohort_activate");
    }

    /// (2) Local training, straggler-limited by device tier.
    fn train(&mut self, r: &mut Round) {
        let train_span = span!("core::fleet", "local_train");
        let (cfg, st) = (self.ctx.cfg, &mut self.st);
        let times: Vec<f64> = st
            .cohort
            .iter()
            .map(|c| c.num_samples() as f64 / st.pool.stub(c.id()).tier.samples_per_second())
            .collect();
        let compute: f64 = st.cohort.iter().map(|c| c.num_samples() as f64).sum();
        // Faults are rejected in fleet mode, so every client trains, and a
        // panicking one aborts the run.
        let all = vec![true; st.cohort.len()];
        let none = FaultModel::none(st.cohort.len());
        let (losses, _) = train_all(&mut st.cohort, cfg, None, &all, &none, r.epoch);
        let losses: Vec<f32> =
            losses.into_iter().map(|l| l.expect("fleet training panicked")).collect();
        st.common.meter.record_compute(compute);
        let train_t0 = st.common.clock.now();
        if self.obs.tcap.active() {
            let phase_end = train_t0 + times.iter().fold(0.0f64, |a, &b| a.max(b));
            for (c, &t) in st.cohort.iter().zip(&times) {
                self.obs.tcap.train(c.id(), train_t0, train_t0 + t, phase_end);
            }
        }
        st.common.clock.advance_parallel(VPhase::Train, times);
        let weighted: f64 =
            losses.iter().zip(&st.cohort).map(|(&l, c)| l as f64 * c.num_samples() as f64).sum();
        r.mean_loss = (weighted / compute) as f32;
        drop(train_span);
        self.obs.kphases.credit("local_train");
    }

    /// (3) Pooled DRL states for this round, and the reward for the
    /// previous round's pending decisions (Eq. 17).
    fn decide(&mut self, r: &mut Round) {
        let decision_span = span!("core::fleet", "decision");
        let (ctx, st) = (&self.ctx, &mut self.st);
        if st.common.agent.is_some() {
            let marginals = migration::cohort_marginals(st.pool, &st.cohort);
            let profile = CohortProfile::build(st.pool, &st.cohort, &marginals, ctx.num_lans);
            let mut active_frac = vec![0.0f64; ctx.num_lans];
            for &l in &profile.lans {
                active_frac[l as usize] += 1.0 / profile.lans.len() as f64;
            }
            let common = &st.common;
            let states: Vec<Vec<f32>> = marginals
                .iter()
                .map(|marginal| {
                    ctx.pooled.build(
                        r.epoch as f64 / ctx.cfg.epochs as f64,
                        r.mean_loss as f64,
                        common.loss_trend(r.mean_loss),
                        common.meter.bandwidth_remaining_frac(),
                        common.meter.compute_remaining_frac(),
                        1.0,
                        &profile.lan.distance_row(marginal),
                        &active_frac,
                        &ctx.lan_load,
                    )
                })
                .collect();
            st.common.settle(r.mean_loss, &states);
            r.states = Some(states);
            r.profile = Some(profile);
        }
        drop(decision_span);
        self.obs.kphases.credit("decision");
    }

    /// (4a) Block end: upload, aggregate, evaluate, retire the cohort.
    fn aggregate_block(&mut self, r: &mut Round, is_eval: bool) {
        let agg_span = span!("core::fleet", "aggregate");
        let ids: Vec<usize> = self.st.cohort.iter().map(|c| c.id()).collect();
        self.charge_c2s(&ids, r.epoch);
        self.st.common.global = self.cohort_fed_avg();
        let st = &mut self.st;
        drop(agg_span);
        self.obs.kphases.credit("aggregate");
        if is_eval {
            let _eval = span!("core::fleet", "evaluate");
            let global = &st.common.global;
            r.accuracy = Some(engine::evaluate(self.ctx.test, &mut self.scratch, global));
            self.obs.kphases.credit("evaluate");
        }
        let retire_span = span!("core::fleet", "retire");
        for c in st.cohort.drain(..) {
            st.pool.retire(c.id(), c.rng.state(), c.migrations_received as u64);
        }
        fedmigr_telemetry::rss::record_peak_rss();
        drop(retire_span);
        self.obs.kphases.credit("retire");
    }

    /// (4b) Between aggregations: C2C migration within the cohort (FedMigr),
    /// then a shadow evaluation if one is due.
    fn migrate_block(&mut self, r: &mut Round, is_eval: bool) {
        let migrate_span = span!("core::fleet", "migrate");
        if let (Some(states), Some(profile)) = (&r.states, &r.profile) {
            let (ctx, st) = (&self.ctx, &mut self.st);
            let round = CohortRound {
                topo: ctx.topo,
                pool: st.pool,
                cohort: &st.cohort,
                profile,
                epoch: r.epoch,
                model_bytes: ctx.model_bytes,
                top_m: ctx.opts.top_m,
                seed: ctx.cfg.seed ^ 0x00F1_EE75,
            };
            let agent = st.common.agent.as_mut().expect("states imply an agent");
            let plan = migration::plan_cohort(&round, states, agent);
            self.execute(r.epoch, &plan);
        }
        drop(migrate_span);
        self.obs.kphases.credit("migrate");
        if is_eval {
            // Shadow aggregation — observation only, the cohort's models
            // are untouched.
            let _eval = span!("core::fleet", "evaluate");
            let shadow = self.cohort_fed_avg();
            r.accuracy = Some(engine::evaluate(self.ctx.test, &mut self.scratch, &shadow));
            self.obs.kphases.credit("evaluate");
        }
    }

    /// FedAvg (Eq. 7) over the cohort, every member's model an upload.
    fn cohort_fed_avg(&mut self) -> Vec<f32> {
        let st = &mut self.st;
        let uploads: Vec<Upload> = st.cohort.iter_mut().map(FlClient::params).enumerate().collect();
        let mut stats = RobustStats::default();
        aggregate_active(&st.cohort, &uploads, &Aggregator::FedAvg, &st.common.global, &mut stats)
    }

    /// Executes the permutation: the model of position `i` lands on
    /// position `dest[i]`'s host.
    fn execute(&mut self, epoch: usize, plan: &MigrationPlan) {
        let (ctx, st) = (&self.ctx, &mut self.st);
        let moves: Vec<(usize, usize)> = plan.moves().collect();
        if moves.is_empty() {
            return;
        }
        let gids: Vec<usize> = st.cohort.iter().map(|c| c.id()).collect();
        let payloads: HashMap<usize, Vec<f32>> =
            moves.iter().map(|&(i, _)| (i, st.cohort[i].params())).collect();
        let mut move_times = Vec::with_capacity(moves.len());
        let mig_t0 = st.common.clock.now();
        for &(i, d) in &moves {
            let local = ctx.topo.same_lan(gids[i], gids[d]);
            st.common.meter.record_c2c(ctx.model_bytes, local);
            let bandwidth = ctx.topo.c2c_bandwidth(gids[i], gids[d], epoch);
            let time = transfer_time(ctx.model_bytes, bandwidth);
            self.obs.tcap.migrate(gids[i], mig_t0, time);
            move_times.push(time);
            if local {
                st.common.migrations_local += 1;
            } else {
                st.common.migrations_global += 1;
            }
        }
        st.common.clock.advance_parallel(VPhase::Migration, move_times);
        for &(i, d) in &moves {
            st.cohort[d].set_params(&payloads[&i], true);
        }
    }

    /// (5) Bookkeeping: the epoch record, usage accounting, agent learning.
    fn bookkeep(&mut self, r: &Round) {
        let _book = span!("core::fleet", "bookkeeping");
        let common = &mut self.st.common;
        let blank = common.blank_record(r.epoch, 0);
        common.records.push(EpochRecord {
            train_loss: r.mean_loss,
            test_accuracy: r.accuracy,
            ..blank
        });
        self.obs.tcap.round_end(common.clock.now());
        common.prev_loss = Some(r.mean_loss);
        common.note_usage(r.traffic_before, r.compute_before);
        common.learn();
    }
}

impl<'a> RoundLoop for FleetRun<'a> {
    type State = FleetState<'a>;

    fn stamp(&self) -> &RunStamp {
        &self.ctx.stamp
    }

    fn state(&mut self) -> &mut FleetState<'a> {
        &mut self.st
    }

    fn common(&mut self) -> &mut CommonState {
        &mut self.st.common
    }

    fn observers(&mut self) -> &mut Observers {
        &mut self.obs
    }

    fn round(&mut self, epoch: usize) -> Outcome {
        let cfg = self.ctx.cfg;
        let scheme = cfg.scheme.name();
        let _round =
            fedmigr_telemetry::span!("core::fleet", "round", "epoch" => epoch, "scheme" => scheme);
        let common = &mut self.st.common;
        self.obs.tcap.round_start(epoch, common.clock.now());
        // (0) Budget gate: a run whose budget is already spent records the
        // round it could not afford and stops.
        if common.meter.exhausted() {
            let blank = common.blank_record(epoch, 0);
            common.records.push(blank);
            self.obs.tcap.round_end(common.clock.now());
            return Outcome::Done(None);
        }
        let mut r = Round {
            epoch,
            traffic_before: common.meter.traffic().total(),
            compute_before: common.meter.compute_cost(),
            mean_loss: 0.0,
            states: None,
            profile: None,
            accuracy: None,
        };
        self.activate(epoch);
        self.train(&mut r);
        self.decide(&mut r);
        // (4) Communication: C2C migration between aggregations (FedMigr),
        // or upload + aggregate + retire on block ends.
        let is_agg = cfg.scheme.aggregates_at(epoch, cfg.agg_interval);
        let is_eval = epoch.is_multiple_of(cfg.eval_interval) || epoch == cfg.epochs;
        if is_agg {
            self.aggregate_block(&mut r, is_eval);
        } else {
            self.migrate_block(&mut r, is_eval);
        }
        self.bookkeep(&r);
        self.obs.kphases.credit("bookkeeping");
        Outcome::Done(r.accuracy)
    }

    fn finish(&mut self, _exit: &Exit) -> Totals {
        fedmigr_telemetry::rss::record_peak_rss();
        Totals::default()
    }
}

/// Activates `ids` into full clients: datasets are rematerialized (in
/// parallel — materialization dominates), the current global model is
/// installed, and previously-activated clients resume their banked RNG
/// stream and migration counter.
fn activate(
    pool: &ClientPool,
    template: &Model,
    ids: &[usize],
    global: &[f32],
    lr: f32,
) -> Vec<FlClient> {
    // `Model` is Send but not Sync (boxed layers), so clone the models
    // here and hand them to the workers; only the pool is shared.
    let mut models: Vec<Option<Model>> = ids.iter().map(|_| Some(template.clone())).collect();
    fedmigr_telemetry::fan_out(&mut models, |first, part| {
        part.iter_mut()
            .zip(&ids[first..])
            .map(|(model, &id)| {
                activate_one(pool, id, model.take().expect("taken once"), global, lr)
            })
            .collect()
    })
}

/// Activates one client: rematerializes its dataset from the stub range,
/// installs the current global model, and — if it has participated before —
/// resumes its banked batch-order RNG stream and migration counter
/// (dormant clients keep no model).
fn activate_one(pool: &ClientPool, id: usize, model: Model, global: &[f32], lr: f32) -> FlClient {
    let stub = pool.stub(id);
    let data = Arc::new(pool.materialize(id));
    let indices: Vec<usize> = (0..stub.len as usize).collect();
    let mut client = FlClient::new(id, data, indices, model, lr, stub.seed);
    client.set_params(global, false);
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
    use crate::scheme::Scheme;
    use fedmigr_compress::CodecConfig;
    use fedmigr_nn::zoo::{c10_cnn, NetScale};
    use rand::SeedableRng;

    impl<'a> FleetState<'a> {
        /// The state a run of `cfg` over `exp` starts from (a fixture for
        /// the checkpoint tests).
        pub(crate) fn fresh(exp: &'a mut FleetExperiment, cfg: &'a RunConfig) -> Self {
            FleetRun::new(exp, cfg, cfg.fleet.unwrap_or_default()).st
        }
    }

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
