#![deny(clippy::too_many_lines)]

use std::sync::Arc;

use fedmigr_compress::{CodecConfig, Compressor};
use fedmigr_data::distribution::{l1_distance, normalized_emd};
use fedmigr_data::Dataset;
use fedmigr_diag::{
    DiagConfig, DriftSnapshot, DrlSnapshot, EdgeOutcome, EmdSnapshot, FlightHeader, FlightRecorder,
    FlightSummary, GraphSnapshot, MigrationEdge, PhaseSeconds, RoundRecord, FLIGHT_VERSION,
};
use fedmigr_drl::MigrationState;
use fedmigr_net::{
    retry_backoff, simulate_c2s_traced, simulate_migrations_traced, transfer_time_with_latency,
    try_transfer_time_with_latency, upload_deadline, AttackConfig, AttackModel, ClientCompute,
    FaultConfig, FaultModel, FlowConfig, ResourceBudget, SimClock, Topology, TransportAccum,
    TransportConfig, MAX_RETRIES,
};
use fedmigr_nn::Model;
use fedmigr_tensor::kcount;
use rand::seq::SliceRandom;

use fedmigr_telemetry::{profiler, span, warn};

use crate::aggregate::{Aggregator, STALE_MAX_AGE};
use crate::checkpoint::{self, RunStamp};
use crate::client::FlClient;
use crate::engine::{self, CommonState, Exit, Observers, Outcome};
use crate::fleet::{Fleet, FleetExperiment, FleetOptions};
use crate::kernels::KernelPhases;
use crate::metrics::{EpochRecord, FaultStats, PhaseBreakdown, RobustStats, RunMetrics};
use crate::migration::{
    self, median, CohortProfile, DenseRound, MigrationPlan, Quarantine, QuarantineConfig,
};
use crate::privacy::DpConfig;
use crate::scheme::Scheme;
use crate::timeline_capture::TimelineCapture;

/// Configuration of one federated-learning run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The scheme to execute.
    pub scheme: Scheme,
    /// Maximum number of training epochs (one local epoch on every client
    /// per training epoch; the paper's τ = 1).
    pub epochs: usize,
    /// Global-aggregation interval in epochs for the migration-based
    /// schemes and FedSwap (the paper's `M + 1 = 50`). FedAvg/FedProx
    /// aggregate every epoch regardless.
    pub agg_interval: usize,
    /// Mini-batch size `b`.
    pub batch_size: usize,
    /// Optional cap on mini-batches per local epoch (speeds up large
    /// parameter sweeps; `None` = full local pass).
    pub max_batches_per_epoch: Option<usize>,
    /// SGD learning rate η.
    pub lr: f32,
    /// Evaluate the (shadow-)aggregated global model every this many epochs.
    pub eval_interval: usize,
    /// Computation/bandwidth budgets `B_c`, `B_b` (Eq. 16).
    pub budget: ResourceBudget,
    /// Stop as soon as an evaluation reaches this accuracy.
    pub target_accuracy: Option<f64>,
    /// Local differential privacy applied to every transmitted model.
    pub dp: Option<DpConfig>,
    /// Fraction α of clients participating each epoch (the FedAvg client
    /// sampling parameter; the paper's experiments use α = 1). Sampled
    /// uniformly without replacement every epoch; non-participants neither
    /// train nor communicate.
    pub participation: f64,
    /// Fault injection: client crashes/rejoins, stragglers, link outages
    /// and degradation. The default ([`FaultConfig::none`]) disables every
    /// fault process and is provably zero-cost (no extra randomness is
    /// consumed and no behaviour changes).
    pub fault: FaultConfig,
    /// Byzantine adversary: a seeded fraction of clients corrupts every
    /// model they transmit (uploads *and* migrations). The default
    /// ([`AttackConfig::none`]) marks nobody Byzantine and is provably
    /// zero-cost — corruption is hash-based and never consumes the run's
    /// RNG stream.
    pub attack: AttackConfig,
    /// Server-side aggregation rule. [`Aggregator::FedAvg`] (the default)
    /// is bit-identical to the pre-defense sample-weighted mean; the robust
    /// rules bound the influence of Byzantine uploads.
    pub aggregator: Aggregator,
    /// Wire codec applied to every model transfer (uploads, downloads, C2C
    /// migrations and their fallback paths). The default
    /// ([`CodecConfig::Identity`]) is byte-identical to uncompressed
    /// transfers; lossy codecs shrink every byte charge and genuinely
    /// distort the delivered models (receivers decode what the wire
    /// carried).
    pub codec: CodecConfig,
    /// How communication rounds are priced. [`TransportConfig::Lockstep`]
    /// (the default) keeps the nominal `bytes / bandwidth` accounting and
    /// stays byte-identical to the seeded baselines;
    /// [`TransportConfig::Flow`] simulates every phase's transfers as
    /// concurrent flows contending for link capacity, with
    /// timeout/retransmission state machines, per-round upload deadlines
    /// and staleness-tolerant degraded aggregation.
    pub transport: TransportConfig,
    /// Seed for client batch order, migration randomness and DP noise.
    pub seed: u64,
    /// Learning-dynamics diagnostics (EMD/drift/DRL introspection gauges
    /// and the flight recorder). Strictly observation-only: the default
    /// ([`DiagConfig::default`]) does no work, and enabling it never
    /// consumes the run's RNG stream or touches the virtual clock, so
    /// `RunMetrics` stays byte-identical either way.
    pub diag: DiagConfig,
    /// Capture a whole-run checkpoint every this many completed epochs
    /// (`None` disables the cadence). Capturing consumes no randomness and
    /// never touches the virtual clock, so a checkpointed run stays
    /// byte-identical to an unchekpointed one.
    pub checkpoint_every: Option<usize>,
    /// Directory to persist checkpoints into, as one rolling `latest.fmrs`
    /// that each snapshot replaces. `None` keeps snapshots in memory only —
    /// still enough for the divergence watchdog to roll back within the
    /// process.
    pub checkpoint_dir: Option<String>,
    /// Resume from a checkpoint file written by a previous (killed) run of
    /// the *same* configuration. The checkpoint's stamp (scheme, seed,
    /// epochs, clients, architecture, codec, transport, aggregation
    /// interval) is validated before any state is restored; training
    /// continues at the checkpoint's epoch + 1, byte-identical to a run
    /// that was never interrupted.
    pub resume: Option<String>,
    /// Simulate a crash: stop abruptly after this epoch's bookkeeping (no
    /// terminal DRL flush, no flight-recording summary). The chaos harness
    /// uses this to exercise kill-and-resume; `None` for real runs.
    pub kill_at: Option<usize>,
    /// Divergence watchdog: roll back to the last good checkpoint when the
    /// global model goes non-finite or the round loss spikes beyond a
    /// factor of its trailing window, excluding and quarantining the
    /// implicated upload sources on retry.
    pub watchdog: WatchdogConfig,
    /// Fleet mode: lazy sharded client state for populations far beyond
    /// what a dense [`Experiment`] can hold ([`crate::FleetExperiment`]). `None`
    /// (the default) keeps the dense path byte-identical to the seeded
    /// baselines; `Some` is what [`crate::FleetExperiment`] runs — the dense
    /// [`Experiment::run`] rejects it.
    pub fleet: Option<FleetOptions>,
}

/// A [`RunConfig`] that breaks one of [`RunConfig::validate`]'s rules; it
/// displays as the rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the divergence watchdog (see `DESIGN.md` §14). The
/// default is disabled and provably zero-cost: no snapshots are taken, no
/// upload is screened, and the run stays byte-identical to the seed.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Master switch.
    pub enabled: bool,
    /// Declare divergence when the round's mean training loss exceeds
    /// `spike_factor` times the mean over the trailing five rounds.
    pub spike_factor: f64,
    /// Retry budget: after this many rollbacks the watchdog gives up and
    /// lets the run continue (never an infinite replay loop).
    pub max_rollbacks: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { enabled: false, spike_factor: 4.0, max_rollbacks: 3 }
    }
}

/// Trailing-window length (completed rounds) of the watchdog's loss
/// baseline.
const WATCHDOG_WINDOW: usize = 5;

impl RunConfig {
    /// A configuration with evaluation-scale defaults.
    pub fn new(scheme: Scheme, epochs: usize) -> Self {
        Self {
            scheme,
            epochs,
            agg_interval: 10,
            batch_size: 32,
            max_batches_per_epoch: None,
            lr: 0.05,
            eval_interval: 10,
            budget: ResourceBudget::unlimited(),
            target_accuracy: None,
            dp: None,
            participation: 1.0,
            fault: FaultConfig::none(),
            attack: AttackConfig::none(),
            aggregator: Aggregator::FedAvg,
            codec: CodecConfig::Identity,
            transport: TransportConfig::Lockstep,
            seed: 7,
            diag: DiagConfig::default(),
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            kill_at: None,
            watchdog: WatchdogConfig::default(),
            fleet: None,
        }
    }

    /// Checks every rule a run configuration must keep, in one place: the
    /// CLI calls this before it builds the world (and exits 2 with the
    /// rule), the run shell before it builds a run (and panics with it).
    /// Fleet mode (`fleet` set) adds what the round cannot yet do over a
    /// cohort.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn rule(ok: bool, broken: impl Into<String>) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError(broken.into()))
            }
        }
        rule(self.epochs > 0, "epochs must be at least 1")?;
        rule(self.agg_interval > 0, "agg_interval must be at least 1")?;
        rule(self.eval_interval > 0, "eval_interval must be at least 1")?;
        rule(self.batch_size > 0, "batch_size must be at least 1")?;
        let p = self.participation;
        rule(p > 0.0 && p <= 1.0, format!("participation must be in (0, 1], got {p}"))?;
        rule(
            p >= 1.0 || !matches!(self.scheme, Scheme::Fixed(_)),
            "fixed migration strategies require full participation",
        )?;
        let Some(fleet) = self.fleet else { return Ok(()) };
        let frac = fleet.sample_frac;
        rule(
            frac > 0.0 && frac <= 1.0,
            format!("fleet sample_frac must be in (0, 1], got {frac}"),
        )?;
        rule(fleet.top_m > 0, "fleet top_m must be positive")?;
        // What the one round body cannot yet do over a cohort; DESIGN.md
        // §15 gives each rule's reason.
        rule(
            matches!(self.scheme, Scheme::FedAvg | Scheme::FedProx { .. } | Scheme::FedMigr(_)),
            format!("fleet mode supports FedAvg, FedProx and FedMigr, not {}", self.scheme.name()),
        )?;
        rule(
            matches!(self.codec, CodecConfig::Identity),
            "fleet mode requires the identity codec (per-client error-feedback residuals would \
             scale memory with K)",
        )?;
        rule(self.transport.name() == "lockstep", "fleet mode requires the lockstep transport")?;
        rule(self.fault.is_none(), "fleet mode does not support fault injection")?;
        rule(self.attack.is_none(), "fleet mode does not support Byzantine attacks")?;
        rule(!self.watchdog.enabled, "fleet mode does not support the divergence watchdog")?;
        rule(p >= 1.0, "fleet mode samples via fleet.sample_frac; leave participation at 1.0")?;
        // Only at block boundaries is the cohort retired, making the dormant
        // stubs the complete per-client state.
        rule(
            matches!(self.scheme, Scheme::FedAvg | Scheme::FedProx { .. })
                || self
                    .checkpoint_every
                    .is_none_or(|every| every.is_multiple_of(self.agg_interval)),
            "fleet checkpoints land on aggregation boundaries: checkpoint_every must be a \
             multiple of agg_interval",
        )
    }
}

/// A reusable experiment: datasets, partition, topology, devices and the
/// model architecture. `run` executes one scheme over this environment.
pub struct Experiment {
    train: Arc<Dataset>,
    test: Arc<Dataset>,
    partitions: Vec<Vec<usize>>,
    topology: Topology,
    compute: ClientCompute,
    template: Model,
}

impl Experiment {
    /// Builds an experiment.
    ///
    /// # Panics
    /// Panics if the partition count disagrees with the topology or device
    /// list, or any client has no data.
    pub fn new(
        train: Dataset,
        test: Dataset,
        partitions: Vec<Vec<usize>>,
        topology: Topology,
        compute: ClientCompute,
        template: Model,
    ) -> Self {
        assert_eq!(partitions.len(), topology.num_clients(), "partition/topology mismatch");
        assert_eq!(partitions.len(), compute.len(), "partition/device mismatch");
        assert!(partitions.iter().all(|p| !p.is_empty()), "every client needs data");
        Self {
            train: Arc::new(train),
            test: Arc::new(test),
            partitions,
            topology,
            compute,
            template,
        }
    }

    /// Number of clients `K`.
    pub fn num_clients(&self) -> usize {
        self.partitions.len()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Executes `cfg` and returns the collected metrics.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`RunConfig::validate`] or selects fleet
    /// mode.
    pub fn run(&self, cfg: &RunConfig) -> RunMetrics {
        assert!(cfg.fleet.is_none(), "fleet mode needs a FleetExperiment, not an Experiment");
        engine::run(cfg, || Run::dense(self, cfg))
    }
}

/// Decay of the *model mixture* estimate (see [`RoundState::mix`]).
const MIX_ALPHA: f64 = 0.3;

/// Everything a round reads and writes that must survive a crash: the
/// checkpoint payload *is* this struct (see `core::checkpoint`). Per-client
/// tables are indexed by resident slot (`clients[s]`); a dense run's slots
/// are its client ids.
pub(crate) struct RoundState<'a> {
    pub common: CommonState,
    /// Who is resident, and how the round plans migrations.
    pub world: World<'a>,
    /// The resident clients: every client of a dense run, a fleet block's
    /// cohort (none between blocks).
    pub clients: Vec<FlClient>,
    pub fault_stats: FaultStats,
    /// Exponential moving average of each client's observed downtime; the
    /// FedMigr oracle penalizes flaky destinations with it. Stays
    /// identically zero without fault injection.
    pub flaky: Vec<f64>,
    /// Flow-transport accounting (untouched under lockstep).
    pub taccum: TransportAccum,
    /// Uploads that completed after their round's deadline, held until an
    /// aggregation folds (or ages) them.
    pub late_buf: Vec<LateUpload>,
    /// Completed aggregations, so a buffered upload's staleness is measured
    /// in aggregation rounds.
    pub agg_seq: usize,
    /// The migration quarantine exists only under an active adversary: a
    /// benign run must stay byte-identical to the pre-defense path, and
    /// screening benign migrations risks false positives for nothing.
    pub quarantine: Option<Quarantine>,
    pub robust_total: RobustStats,
    /// The *model mixture*: an exponentially decayed estimate of the label
    /// distribution each model has recently trained on. Migration permutes
    /// it; aggregation resets it to the population (the global model
    /// reflects everyone's data). The distance matrix D_t the DRL state
    /// and oracle use is `d_t[i][j] = ||mix_i - q_j||_1` — "the
    /// differences of data distributions among the clients after t epochs"
    /// (Sec. III-C): migrating a model towards data it has not seen
    /// recently is what shrinks its divergence (Eq. 13).
    pub mix: Vec<Vec<f64>>,
    /// Diagnostic twin of `mix` that aggregation never resets: the label
    /// distribution of the data that actually generated each model
    /// replica's gradients, routed through migrations and swaps only.
    /// FedAvg keeps each replica pinned to its host's shard; migration is
    /// what drives this EMD down.
    pub train_mix: Vec<Vec<f64>>,
    /// One compressor per run: a residual lane per resident slot for
    /// egress transfers, seeded from the run seed (stochastic rounding
    /// never consumes the shared RNG stream).
    pub compressor: Compressor,
    /// `K x K` migration-count matrix of a dense run; empty in a fleet run,
    /// whose `K` is too large for it.
    pub link_migrations: Vec<u32>,
    /// Clients the watchdog implicated in a divergence sit rounds out.
    /// All-false in normal runs: a no-op, bit for bit.
    pub excluded: Vec<bool>,
}

/// What differs between a dense and a fleet run, as data behind one seam:
/// who is resident, and the planner with the DRL state it reads. The links
/// and device speeds are [`RunCtx::links`] and [`RunCtx::compute`].
pub(crate) enum World<'a> {
    /// Every client is resident from round 0. FedMigr plans with
    /// `plan_dense` over per-client states and `D_t`.
    Dense { topology: &'a Topology, featurizer: MigrationState },
    /// A cohort sampled from the pool is resident per aggregation block.
    /// FedMigr plans with `plan_cohort` over pooled LAN states.
    Fleet(Fleet<'a>),
}

/// Client links as a round prices them, by client id: a dense run's
/// [`Topology`], or a fleet's O(LANs) topology at the default zero latency.
pub(crate) trait Links {
    fn c2s_bandwidth(&self, epoch: usize) -> f64;
    fn c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> f64;
    fn same_lan(&self, i: usize, j: usize) -> bool;

    fn c2s_latency(&self) -> f64 {
        0.0
    }

    fn c2c_latency(&self, _i: usize, _j: usize) -> f64 {
        0.0
    }
}

impl Links for Topology {
    fn c2s_bandwidth(&self, epoch: usize) -> f64 {
        Topology::c2s_bandwidth(self, epoch)
    }

    fn c2s_latency(&self) -> f64 {
        Topology::c2s_latency(self)
    }

    fn c2c_bandwidth(&self, i: usize, j: usize, epoch: usize) -> f64 {
        Topology::c2c_bandwidth(self, i, j, epoch)
    }

    fn c2c_latency(&self, i: usize, j: usize) -> f64 {
        Topology::c2c_latency(self, i, j)
    }

    fn same_lan(&self, i: usize, j: usize) -> bool {
        Topology::same_lan(self, i, j)
    }
}

/// What a run fixes once and never changes.
pub(crate) struct RunCtx<'a> {
    cfg: &'a RunConfig,
    /// The population `K`: every client id is below it.
    k: usize,
    links: &'a dyn Links,
    /// Device speeds, by client id.
    compute: &'a ClientCompute,
    test: &'a Dataset,
    /// Wire cost of one model transfer — the codec's exact encoded size;
    /// under the identity codec it equals the uncompressed `8 + 4n` seed
    /// format, byte for byte.
    model_bytes: u64,
    saved_per_transfer: u64,
    /// `None` keeps every code path on the lockstep accounting,
    /// byte-identical to the seeded baselines. Only a dense run simulates
    /// flows (its slots are its client ids).
    flow: Option<(&'a FlowConfig, &'a Topology)>,
    fault: FaultModel,
    attack: AttackModel,
    /// Sample-weighted population label distribution.
    population: Vec<f64>,
    pub stamp: RunStamp,
}

/// One run: context, state, observers, and the scratch that is none of
/// those.
pub(crate) struct Run<'a> {
    pub ctx: RunCtx<'a>,
    pub st: RoundState<'a>,
    pub obs: Observers,
    /// Model the evaluations load parameters into.
    scratch: Model,
    /// The watchdog's rollback target: the last good snapshot and the epoch
    /// it was taken after. Only an armed watchdog keeps one.
    last_good: Option<(usize, Vec<u8>)>,
    /// Which resident clients transmitted a non-finite payload since the
    /// last good snapshot — the sources a rollback implicates.
    nan_sources: Vec<bool>,
}

/// What one round computes on the way from sampling to bookkeeping; every
/// per-client table is by resident slot.
#[derive(Default)]
struct Round {
    epoch: usize,
    traffic_before: u64,
    compute_before: f64,
    robust: RobustStats,
    /// Diagnostics: the round's migration edge list and executed source map
    /// (identity on non-migration rounds).
    edges: Vec<MigrationEdge>,
    src_of: Vec<usize>,
    alive: Vec<bool>,
    /// Sampled, alive, not excluded, and (after training) not panicked.
    active: Vec<bool>,
    /// Active clients that made the straggler deadline.
    arrived: Vec<bool>,
    dropped: usize,
    stale: usize,
    mean_loss: f32,
    /// `D_t`, built with a dense run's decision states.
    dmat: Vec<Vec<f64>>,
    suspicion: Vec<f64>,
    states: Option<Vec<Vec<f32>>>,
    /// The cohort profile a fleet run's states were built from.
    profile: Option<CohortProfile>,
    accuracy: Option<f64>,
}

/// What an experiment lends its run, besides its world.
struct Lent<'a> {
    links: &'a dyn Links,
    compute: &'a ClientCompute,
    test: &'a Dataset,
    template: &'a Model,
    flow: Option<(&'a FlowConfig, &'a Topology)>,
}

impl<'a> Run<'a> {
    /// A dense run: builds the clients, seeds them with the initial model,
    /// and charges the seed broadcast (timeline "round 0").
    fn dense(exp: &'a Experiment, cfg: &'a RunConfig) -> Self {
        let k = exp.num_clients();
        let mut clients: Vec<FlClient> = exp
            .partitions
            .iter()
            .enumerate()
            .map(|(i, part)| {
                FlClient::new(
                    i,
                    Arc::clone(&exp.train),
                    part.clone(),
                    exp.template.clone(),
                    cfg.lr,
                    cfg.seed.wrapping_add(1),
                )
            })
            .collect();
        let total_n: f64 = clients.iter().map(|c| c.num_samples() as f64).sum();
        let mut population = vec![0.0f64; clients[0].label_dist().len()];
        for c in &clients {
            let w = c.num_samples() as f64 / total_n;
            for (pi, qi) in population.iter_mut().zip(c.label_dist()) {
                *pi += w * qi;
            }
        }
        let featurizer = MigrationState::new(k);
        let dims = (featurizer.dim(), k);
        let lent = Lent {
            links: &exp.topology,
            compute: &exp.compute,
            test: &exp.test,
            template: &exp.template,
            flow: cfg.transport.flow_config().map(|fc| (fc, &exp.topology)),
        };
        let world = World::Dense { topology: &exp.topology, featurizer };
        let mut run = Self::new(cfg, world, lent, population, k, dims);
        run.st.link_migrations = vec![0; k * k];
        run.st.quarantine =
            run.ctx.attack.enabled().then(|| Quarantine::new(QuarantineConfig::default(), k));
        if run.ctx.attack.flips_labels() {
            let map = fedmigr_data::flip_label_map(clients[0].label_dist().len());
            for c in clients.iter_mut().filter(|c| run.ctx.attack.is_byzantine(c.id())) {
                c.set_label_map(map.clone());
            }
        }
        // The seed broadcast is timeline "round 0".
        run.obs.tcap.round_start(0, run.st.common.clock.now());
        run.arrive(clients, 0);
        run.obs.tcap.round_end(run.st.common.clock.now());
        run
    }

    /// A fleet run: nobody is resident until the first block activates its
    /// cohort.
    pub(crate) fn fleet(exp: &'a mut FleetExperiment, cfg: &'a RunConfig) -> Self {
        let opts = cfg.fleet.expect("a FleetExperiment runs fleet mode: set RunConfig::fleet");
        let FleetExperiment { pool, topo, compute, test, template } = exp;
        let (k, topo) = (pool.len(), &*topo);
        let (fleet, population) = Fleet::new(pool, topo, template, opts, cfg.seed);
        let dims = (fleet.pooled.dim(), topo.num_lans());
        let lent = Lent { links: topo, compute, test, template, flow: None };
        Self::new(cfg, World::Fleet(fleet), lent, population, k, dims)
    }

    /// The run of `cfg` over `world` and a population of `k`, with nobody
    /// seated yet; a FedMigr agent sees `dims = (state, action)` dimensions.
    fn new(
        cfg: &'a RunConfig,
        world: World<'a>,
        lent: Lent<'a>,
        population: Vec<f64>,
        k: usize,
        (state_dim, actions): (usize, usize),
    ) -> Self {
        let fleet = matches!(world, World::Fleet(_));
        let mode = if fleet { "fleet" } else { "dense" };
        let mut scratch = lent.template.clone();
        let num_params = scratch.num_params();
        let compressor = Compressor::new(&cfg.codec, k, cfg.seed);
        let model_bytes = compressor.encoded_size(num_params);
        let st = RoundState {
            common: CommonState::new(cfg, scratch.params(), state_dim, actions),
            world,
            clients: Vec::new(),
            fault_stats: FaultStats::default(),
            flaky: Vec::new(),
            taccum: TransportAccum::new(),
            late_buf: Vec::new(),
            agg_seq: 0,
            quarantine: None,
            robust_total: RobustStats::default(),
            mix: Vec::new(),
            train_mix: Vec::new(),
            compressor,
            link_migrations: Vec::new(),
            excluded: Vec::new(),
        };
        let ctx = RunCtx {
            cfg,
            k,
            links: lent.links,
            compute: lent.compute,
            test: lent.test,
            model_bytes,
            saved_per_transfer: scratch.wire_bytes().saturating_sub(model_bytes),
            flow: lent.flow,
            fault: FaultModel::new(cfg.fault.clone(), k),
            attack: AttackModel::new(cfg.attack.clone(), k),
            population,
            stamp: RunStamp::of(cfg, k, num_params, mode),
        };
        // A resumed run restarts the timeline file from scratch; unlike the
        // flight recording there is nothing to splice — the file stands
        // alone and the validator only needs the header plus monotone
        // rounds from wherever it begins. A fleet timeline is sparse: tail
        // intervals only for clients that appeared, so a 10k-client round
        // costs O(cohort) lines.
        let tcap = TimelineCapture::new(
            cfg.diag.timeline_out.as_deref(),
            mode,
            &cfg.scheme.name(),
            cfg.transport.name(),
            k,
            cfg.seed,
            fleet,
        );
        let obs = Observers { tcap, flight: None, kphases: KernelPhases::new() };
        fedmigr_telemetry::debug!(
            "core::runner",
            "{mode} run start: scheme={} clients={k} epochs={} agg={} seed={}",
            cfg.scheme.name(),
            cfg.epochs,
            cfg.agg_interval,
            cfg.seed
        );
        Self { ctx, st, obs, scratch, last_good: None, nan_sources: Vec::new() }
    }

    /// `clients` become resident at `epoch`: every client of a dense run
    /// at its start, a fleet block's cohort at the block's first epoch.
    /// Every slot's tables start fresh (no downtime seen, its own label
    /// marginal as its model mixture, nothing excluded or implicated); the
    /// global model goes down as one server-side encode, each client
    /// installs what the wire carried, and the download is charged. Under
    /// the flow transport the concurrent downloads contend for the WAN and
    /// a failed one only changes the round's cost accounting.
    fn arrive(&mut self, mut clients: Vec<FlClient>, epoch: usize) {
        let (st, n) = (&mut self.st, clients.len());
        let down = st.compressor.broadcast(&st.common.global);
        for c in &mut clients {
            c.set_params(&down, false);
        }
        st.mix = clients.iter().map(|c| c.label_dist().to_vec()).collect();
        st.train_mix = st.mix.clone();
        st.flaky = vec![0.0; n];
        st.excluded = vec![false; n];
        st.clients = clients;
        self.nan_sources = vec![false; n];
        let everyone = vec![true; n];
        if let Some(flow) = self.ctx.flow {
            self.flow_phase(flow, epoch, &everyone, false);
        } else {
            self.lockstep_c2s(&everyone, epoch, 1);
        }
    }

    /// Opens the flight recording: a resumed run keeps the recording's
    /// header and the rounds the checkpoint covers, byte for byte, and
    /// appends from there. Called once before the first round, after any
    /// resume.
    pub(crate) fn open_flight(&self, start_epoch: usize) -> Option<FlightRecorder> {
        let cfg = self.ctx.cfg;
        let path = cfg.diag.flight_out.as_deref()?;
        let opened = if start_epoch > 1 {
            FlightRecorder::resume(path, start_epoch - 1)
        } else {
            FlightRecorder::create(path).and_then(|mut rec| {
                rec.line(&mut FlightHeader {
                    version: FLIGHT_VERSION,
                    scheme: cfg.scheme.name(),
                    clients: self.ctx.k,
                    epochs: cfg.epochs,
                    seed: cfg.seed,
                    agg_interval: cfg.agg_interval,
                    codec: cfg.codec.name(),
                })?;
                Ok(rec)
            })
        };
        opened
            .map_err(|e| {
                fedmigr_telemetry::error!(
                    "core::diag",
                    "cannot open flight recording {path}: {e}; recording disabled"
                );
            })
            .ok()
    }

    // --- Phases ----------------------------------------------------------

    /// Samples the participating clients for this epoch (α of the
    /// residents), then intersects with the fault schedule — crashed
    /// clients neither train nor communicate until they rejoin — and the
    /// watchdog's exclusions. A fleet block's first epoch activates its
    /// cohort first. `None` when every resident is down (or sampled out):
    /// the round is a no-op, but the run survives it.
    fn sample(&mut self, epoch: usize) -> Option<Round> {
        let traffic_before = self.st.common.meter.traffic().total();
        let compute_before = self.st.common.meter.compute_cost();
        self.activate(epoch);
        let (cfg, n) = (self.ctx.cfg, self.st.clients.len());
        let st = &mut self.st;
        let mut active = vec![cfg.participation >= 1.0; n];
        if cfg.participation < 1.0 {
            let n_active = ((cfg.participation * n as f64).ceil() as usize).clamp(1, n);
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut st.common.rng);
            order.iter().take(n_active).for_each(|&i| active[i] = true);
        }
        let alive: Vec<bool> =
            st.clients.iter().map(|c| self.ctx.fault.is_alive(c.id(), epoch)).collect();
        for (i, a) in active.iter_mut().enumerate() {
            *a = *a && alive[i] && !st.excluded[i];
        }
        let dropped = alive.iter().filter(|&&up| !up).count();
        st.fault_stats.client_drops += dropped;
        for (f, &up) in st.flaky.iter_mut().zip(&alive) {
            *f = 0.9 * *f + if up { 0.0 } else { 0.1 };
        }
        if active.iter().all(|&a| !a) {
            // Nothing trained: the record carries the last round's loss.
            let record = self.record(epoch, self.st.common.prev_loss.unwrap_or(0.0), dropped);
            self.st.common.records.push(record);
            self.obs.tcap.round_end(self.st.common.clock.now());
            return None;
        }
        let src_of = (0..n).collect();
        Some(Round {
            epoch,
            traffic_before,
            compute_before,
            src_of,
            alive,
            active,
            dropped,
            ..Round::default()
        })
    }

    /// (0) A fleet block's first epoch: a cohort sampled from the pool
    /// arrives.
    fn activate(&mut self, epoch: usize) {
        let st = &mut self.st;
        let (World::Fleet(fleet), true) = (&st.world, st.clients.is_empty()) else { return };
        let activate_span = span!("core::runner", "cohort_activate");
        let cohort = fleet.activate(&mut st.common.rng, self.ctx.cfg.lr);
        self.arrive(cohort, epoch);
        drop(activate_span);
        self.obs.kphases.credit("cohort_activate");
    }

    /// (7) After a fleet block's aggregation round: the cohort retires to
    /// its stubs and nobody is resident until the next block arrives (its
    /// slots' tables stay until then; no checkpoint holds them).
    fn retire(&mut self, epoch: usize) {
        let cfg = self.ctx.cfg;
        let World::Fleet(fleet) = &mut self.st.world else { return };
        if !cfg.scheme.aggregates_at(epoch, cfg.agg_interval) {
            return;
        }
        let retire_span = span!("core::runner", "retire");
        // What survives dormancy is banked in each client's stub.
        for c in std::mem::take(&mut self.st.clients) {
            fleet.pool.retire(c.id(), c.rng.state(), c.migrations_received as u64);
        }
        fedmigr_telemetry::rss::record_peak_rss();
        drop(retire_span);
        self.obs.kphases.credit("retire");
    }

    /// (1) Local updating (Eq. 6), clients in parallel, then the virtual
    /// time the round's slowest on-time participant took.
    fn train(&mut self, r: &mut Round) {
        let train_span = span!("core::runner", "local_train");
        let (cfg, epoch) = (self.ctx.cfg, r.epoch);
        let st = &mut self.st;
        let prox = match cfg.scheme {
            Scheme::FedProx { mu } => Some((st.common.global.clone(), mu)),
            _ => None,
        };
        let (losses, panicked) =
            train_all(&mut st.clients, cfg, prox.as_ref(), &r.active, &self.ctx.fault, epoch);
        for (i, &p) in panicked.iter().enumerate() {
            if p {
                // A panicking client is a crashed client for this round: no
                // loss, no upload, no mix update. The run survives it.
                r.active[i] = false;
                st.fault_stats.client_panics += 1;
            }
        }
        r.robust.nan_batches +=
            st.clients.iter_mut().map(|c| c.drain_non_finite_batches()).sum::<u64>();
        decay_towards(&mut st.mix, &st.clients, &r.active);
        decay_towards(&mut st.train_mix, &st.clients, &r.active);
        let n = st.clients.len();
        let mut times = Vec::with_capacity(n);
        let mut per_client_time = vec![0.0f64; n];
        for (i, c) in st.clients.iter().enumerate().filter(|&(i, _)| r.active[i]) {
            let (id, held) = (c.id(), c.num_samples());
            let samples = cfg.max_batches_per_epoch.map_or(held, |b| held.min(b * cfg.batch_size));
            st.common.meter.record_compute(self.ctx.compute.epoch_cost(id, samples));
            let slowdown = self.ctx.fault.slowdown(id, epoch);
            per_client_time[i] = self.ctx.compute.epoch_time_slowed(id, samples, slowdown);
            times.push(per_client_time[i]);
        }
        // Straggler deadline: the server waits at most a configured
        // multiple of the *median* round time; later arrivals trained (and
        // burned compute) but miss this round's communication.
        r.arrived = r.active.clone();
        let round_time = times.iter().fold(0.0f64, |a, &b| a.max(b));
        let train_t0 = st.common.clock.now();
        let train_adv = match self.ctx.fault.deadline(median(&times)) {
            Some(deadline) => {
                for (arrived, &t) in r.arrived.iter_mut().zip(&per_client_time) {
                    if *arrived && t > deadline {
                        *arrived = false;
                        r.stale += 1;
                    }
                }
                round_time.min(deadline)
            }
            None => round_time,
        };
        st.common.clock.advance(VPhase::Train, train_adv);
        if self.obs.tcap.active() {
            for (i, c) in st.clients.iter().enumerate().filter(|&(i, _)| r.active[i]) {
                let done = train_t0 + per_client_time[i];
                self.obs.tcap.train(c.id(), train_t0, done, train_t0 + train_adv);
            }
        }
        let active_n: f32 = st
            .clients
            .iter()
            .enumerate()
            .filter(|&(i, _)| r.active[i])
            .map(|(_, c)| c.num_samples() as f32)
            .sum();
        r.mean_loss = st
            .clients
            .iter()
            .zip(&losses)
            .filter_map(|(c, l)| l.map(|l| l * (c.num_samples() as f32 / active_n)))
            .sum::<f32>();
        drop(train_span);
        self.obs.kphases.credit("local_train");
    }

    /// (2) Build decision states and settle last epoch's transitions: a
    /// dense run's per-client states over `D_t`, a fleet's pooled ones.
    fn decide(&mut self, r: &mut Round) {
        let decision_span = span!("core::runner", "decision");
        let cfg = self.ctx.cfg;
        let st = &mut self.st;
        let n = st.clients.len();
        r.suspicion =
            st.quarantine.as_ref().map_or_else(|| vec![0.0; n], |q| q.suspicion().to_vec());
        if st.common.agent.is_some() {
            let (common, progress) = (&st.common, r.epoch as f64 / cfg.epochs as f64);
            let states = match &st.world {
                World::Dense { featurizer, .. } => {
                    r.dmat = st
                        .mix
                        .iter()
                        .map(|m| {
                            st.clients.iter().map(|c| l1_distance(m, c.label_dist())).collect()
                        })
                        .collect();
                    (0..n)
                        .map(|i| {
                            featurizer.build_with_health(
                                progress,
                                r.mean_loss as f64,
                                common.loss_trend(r.mean_loss),
                                common.meter.bandwidth_remaining_frac(),
                                common.meter.compute_remaining_frac(),
                                &r.dmat[i],
                                &r.alive,
                                &r.suspicion,
                            )
                        })
                        .collect()
                }
                World::Fleet(fleet) => {
                    let (states, profile) =
                        fleet.states(&st.clients, common, progress, r.mean_loss);
                    r.profile = Some(profile);
                    states
                }
            };
            st.common.settle(r.mean_loss, &states);
            r.states = Some(states);
        }
        drop(decision_span);
        self.obs.kphases.credit("decision");
    }

    /// (3) Communication: aggregation, server-side swap, or C2C migration,
    /// depending on the scheme and epoch. A fleet round names the phase
    /// `migrate`: `benchmark/tests/quick.rs` pins which span names each
    /// world's trace opens (DESIGN.md §15).
    fn communicate(&mut self, r: &mut Round) {
        let name = match self.st.world {
            World::Dense { .. } => "communicate",
            World::Fleet(_) => "migrate",
        };
        let comm_span = span!("core::runner", name);
        let cfg = self.ctx.cfg;
        let is_agg = cfg.scheme.aggregates_at(r.epoch, cfg.agg_interval);
        if let Scheme::FedAsync { beta } = cfg.scheme {
            self.communicate_async(r, beta);
        } else if cfg.scheme.uploads_every_epoch() || is_agg {
            self.communicate_upload(r, is_agg);
        } else {
            self.communicate_migrate(r);
        }
        drop(comm_span);
        self.obs.kphases.credit(name);
    }

    /// FedAsync: one participating client uploads; the server mixes its
    /// model into the global model and sends the result back.
    fn communicate_async(&mut self, r: &mut Round, beta: f32) {
        let (cfg, n, epoch) = (self.ctx.cfg, self.st.clients.len(), r.epoch);
        let candidates: Vec<usize> = (0..n).filter(|&i| r.arrived[i]).collect();
        let Some(uploader) = candidates.first().map(|_| candidates[epoch % candidates.len()])
        else {
            return;
        };
        let mut only = vec![false; n];
        only[uploader] = true;
        let reach = self.c2s_reachable(&only, epoch);
        let synced = match (self.ctx.flow, reach[uploader]) {
            // A lone flow can still strike out on a flapped or collapsed
            // access link; it can never be late (the deadline is a multiple
            // of its own finish time).
            (Some(flow), true) => self.flow_phase(flow, epoch, &reach, true).on_time[uploader],
            (_, reached) => reached,
        };
        if !synced {
            // The uploader never reached the server this epoch.
            r.stale += 1;
            return;
        }
        if self.ctx.flow.is_none() {
            self.lockstep_c2s(&only, epoch, 2);
        }
        let upload = self.send(uploader, epoch);
        // The server sees what the wire carried: codec distortion (and
        // preserved NaN corruption) lands on the decoded payload, with the
        // uploader's error-feedback residual applied on egress.
        let st = &mut self.st;
        let upload = st.compressor.transmit(uploader, &upload);
        // FedAsync has no multi-upload round to robustify, but a
        // non-finite upload is still screened out whenever a robust
        // aggregator is configured.
        if cfg.aggregator == Aggregator::FedAvg || fedmigr_tensor::all_finite(&upload) {
            for (g, u) in st.common.global.iter_mut().zip(&upload) {
                *g = (1.0 - beta) * *g + beta * u;
            }
        } else {
            r.robust.nan_uploads += 1;
            r.robust.trimmed_clients += 1;
        }
        let down = st.compressor.transmit_down(uploader, &st.common.global);
        let delivered = match self.ctx.flow {
            Some(flow) => self.flow_phase(flow, epoch, &only, false).on_time[uploader],
            None => true,
        };
        if delivered {
            self.st.clients[uploader].set_params(&down, false);
            self.st.mix[uploader].clone_from(&self.ctx.population);
        }
    }

    /// Participating models go to the server — every epoch for
    /// FedAvg/FedProx/FedSwap, on aggregation epochs for the migration
    /// schemes — and come back aggregated (`is_agg`) or swapped (FedSwap
    /// between aggregations).
    fn communicate_upload(&mut self, r: &mut Round, is_agg: bool) {
        let (n, epoch) = (self.st.clients.len(), r.epoch);
        // Those that can reach the server, that is: WAN outages retry with
        // backoff and drop out of the round if they never get through.
        let synced = self.c2s_reachable(&r.arrived, epoch);
        r.stale += r.arrived.iter().zip(&synced).filter(|&(&a, &s)| a && !s).count();
        // Which uploads made the round, and at what cost, depends on the
        // transport: lockstep prices every synced transfer serially at
        // nominal bandwidth; the flow transport races concurrent uploads
        // against a per-round deadline.
        // A dense run's aggregate comes back down in the same round; a
        // fleet cohort retires after it, and the next one downloads at its
        // activation.
        let up = match self.ctx.flow {
            Some(flow) => self.flow_phase(flow, epoch, &synced, true),
            None => {
                let legs = if self.st.keeps_residents() { 2 } else { 1 };
                self.lockstep_c2s(&synced, epoch, legs);
                FlowOutcome { on_time: synced.clone(), late: vec![false; n], failed: 0 }
            }
        };
        r.stale += up.failed;
        // Only the clients whose bytes actually crossed the wire send, and
        // see the codec (error-feedback on client egress). A late upload
        // bound for a future aggregation was genuinely transmitted. Lanes
        // are per-client and therefore distinct, so the batch encode
        // parallelizes while staying byte-identical to the serial
        // per-client loop.
        let sent: Vec<usize> =
            (0..n).filter(|&i| up.on_time[i] || (up.late[i] && is_agg)).collect();
        let items = sent.iter().map(|&i| (i, self.send(i, epoch))).collect();
        let mut uploads = Vec::with_capacity(sent.len());
        for (i, params) in sent.into_iter().zip(self.st.compressor.transmit_batch(items)) {
            if up.on_time[i] {
                uploads.push((i, params));
            } else {
                self.st.late_buf.push(LateUpload { client: i, params, seq: self.st.agg_seq });
            }
        }
        if is_agg {
            self.aggregate(r, &uploads, &up.on_time);
        } else {
            self.swap(r, uploads, &up.on_time);
        }
    }

    /// Server-side aggregation and the broadcast of its result. Under the
    /// flow transport this is *degraded* aggregation: fold what arrived on
    /// time plus discounted stale uploads from earlier rounds — a round
    /// with zero on-time uploads can still make progress from the stale
    /// buffer alone.
    fn aggregate(&mut self, r: &mut Round, uploads: &[Upload], on_time: &[bool]) {
        let cfg = self.ctx.cfg;
        if let Some(flow) = self.ctx.flow {
            if !uploads.is_empty() || !self.st.late_buf.is_empty() {
                let _agg = span!("core::runner", "aggregate");
                if let Some(g) = self.st.fold_with_late(cfg, uploads, on_time, &mut r.robust) {
                    self.st.common.global = g;
                    self.st.agg_seq += 1;
                    let delivered = self.flow_phase(flow, r.epoch, on_time, false).on_time;
                    if delivered.iter().any(|&d| d) {
                        self.install_global(&delivered);
                    }
                }
            }
        } else if !uploads.is_empty() {
            let _agg = span!("core::runner", "aggregate");
            let st = &mut self.st;
            st.common.global = aggregate_active(
                &st.clients,
                uploads,
                &cfg.aggregator,
                &st.common.global,
                &mut r.robust,
            );
            if st.keeps_residents() {
                self.install_global(on_time);
            }
        }
    }

    /// One aggregated payload fans out to every client in `to`: a single
    /// server-side encode.
    fn install_global(&mut self, to: &[bool]) {
        let st = &mut self.st;
        let down = st.compressor.broadcast(&st.common.global);
        for (i, c) in st.clients.iter_mut().enumerate().filter(|&(i, _)| to[i]) {
            c.set_params(&down, false);
            st.mix[i].clone_from(&self.ctx.population);
        }
    }

    /// FedSwap: the server swaps models "between any two of all clients" —
    /// a few random disjoint pairs per round, so mixing is slower than a
    /// full migration permutation. Each on-time upload comes back down
    /// through the codec, as a distinct server-egress payload, to the
    /// client the plan sends it to (its own uploader unless swapped). A
    /// client that sent nothing receives nothing and keeps its model;
    /// under the flow transport a late upload simply sits the swap out.
    fn swap(&mut self, r: &Round, uploads: Vec<Upload>, on_time: &[bool]) {
        let st = &mut self.st;
        let plan =
            MigrationPlan::swap_pairs(on_time, on_time.len().div_ceil(4), &mut st.common.rng);
        st.mix = plan.apply(&st.mix);
        st.train_mix = plan.apply(&st.train_mix);
        if let Some(flow) = self.ctx.flow {
            // Price the return leg at flow cost (contention, retransmits).
            // Delivery itself stays unconditional for this baseline:
            // partial swap delivery is not modelled.
            self.flow_phase(flow, r.epoch, on_time, false);
        }
        let mut down: Vec<(usize, Vec<f32>)> =
            uploads.into_iter().map(|(i, p)| (plan.dest(i), p)).collect();
        down.sort_unstable_by_key(|&(j, _)| j);
        let st = &mut self.st;
        for (j, p) in down {
            let p = st.compressor.transmit_down(j, &p);
            st.clients[j].set_params(&p, plan.dest(j) != j);
        }
    }

    /// C2C migration epoch: plan, then move the models.
    fn communicate_migrate(&mut self, r: &mut Round) {
        let plan_span = span!("core::runner", "migration_plan");
        let st = &mut self.st;
        let (epoch, model_bytes) = (r.epoch, self.ctx.model_bytes);
        let plan = match &st.world {
            World::Dense { topology, .. } => {
                let round = DenseRound {
                    scheme: &self.ctx.cfg.scheme,
                    topology,
                    epoch,
                    model_bytes,
                    active: &r.arrived,
                    states: r.states.as_deref(),
                    dmat: &r.dmat,
                    flaky: &st.flaky,
                    suspicion: &r.suspicion,
                };
                migration::plan_dense(&round, &mut st.common.rng, st.common.agent.as_mut())
            }
            // FedMigr is the one fleet scheme that migrates.
            World::Fleet(fleet) => match (&r.states, &r.profile, st.common.agent.as_mut()) {
                (Some(states), Some(profile), Some(agent)) => migration::plan_cohort(
                    fleet,
                    &st.clients,
                    profile,
                    states,
                    epoch,
                    model_bytes,
                    agent,
                ),
                _ => MigrationPlan::identity(st.clients.len()),
            },
        };
        drop(plan_span);
        let _transfer = span!("core::runner", "migration_transfer");
        self.migrate(r, &plan);
    }

    /// Executes `plan`. Under the flow transport the whole migration wave
    /// runs as one simulation: moves contend for their pair links and the
    /// inter-LAN backbone, and a flow that strikes out falls back onto the
    /// retry/relay/C2S-bounce chain.
    fn migrate(&mut self, r: &mut Round, plan: &MigrationPlan) {
        let (k, epoch, model_bytes) = (self.ctx.k, r.epoch, self.ctx.model_bytes);
        let links = self.ctx.links;
        let ids: Vec<usize> = self.st.clients.iter().map(FlClient::id).collect();
        // `src_of[j]` is the slot whose model slot `j` hosts after this
        // round. A failed or rejected delivery leaves `j` on its own model
        // instead of breaking the permutation.
        let mut src_of: Vec<usize> = (0..ids.len()).collect();
        let mut move_times = Vec::new();
        let mut delivered = Vec::new();
        let mig_t0 = self.st.common.clock.now();
        let flow_frame = profiler::frame("transfer_flow");
        let wave = self.ctx.flow.map(|(fc, topology)| {
            let mv: Vec<(usize, usize)> = plan.moves().collect();
            let traced = self.obs.tcap.active();
            let sim = simulate_migrations_traced(
                topology,
                &self.ctx.fault,
                epoch,
                fc,
                &mv,
                model_bytes,
                traced,
            );
            self.st.taccum.absorb(&sim);
            self.st.common.meter.record_transfer_seconds(sim.makespan);
            sim
        });
        for (m, (i, j)) in plan.moves().enumerate() {
            let (outcome, time) = match wave.as_ref().map(|w| &w.outcomes[m]) {
                Some(o) if o.completed => {
                    self.st.common.meter.record_c2c(model_bytes, links.same_lan(ids[i], ids[j]));
                    self.st.common.meter.record_overhead(o.retransmit_bytes);
                    observe_link_time("direct", o.finish);
                    (EdgeOutcome::Direct, o.finish)
                }
                Some(o) => {
                    // The flow burned its wire bytes and struck out;
                    // resolve through the fallback chain with the elapsed
                    // flow time charged on top.
                    self.st.common.meter.record_overhead(o.wire_bytes);
                    self.st.fault_stats.wasted_bytes += model_bytes;
                    let (out, t) = self.deliver(&r.alive, &ids, i, j, epoch, false);
                    (out, o.finish + t)
                }
                None => self.deliver(&r.alive, &ids, i, j, epoch, true),
            };
            move_times.push(time);
            self.obs.tcap.migrate(ids[i], mig_t0, time);
            r.edges.push(MigrationEdge {
                src: i,
                dst: j,
                bytes: model_bytes,
                time_s: time,
                outcome,
            });
            if outcome.delivered() {
                delivered.push((i, j));
            }
        }
        drop(flow_frame);
        // Only transfers that completed send and encode: a cancelled
        // migration draws no DP noise and must not consume the sender's
        // error-feedback residual. A plan moves each model at most once, so
        // the wave's source lanes are distinct and it encodes as one batch,
        // sequence numbers in move order. Every source sends before any
        // destination adopts.
        let codec_frame = profiler::frame("transfer_codec");
        let items = delivered.iter().map(|&(i, _)| (i, self.send(i, epoch))).collect();
        let payloads = self.st.compressor.transmit_batch(items);
        drop(codec_frame);
        let install_frame = profiler::frame("transfer_install");
        let st = &mut self.st;
        for ((i, j), payload) in delivered.into_iter().zip(payloads) {
            // The receiver screens the *decoded* payload against its own
            // model before adoption. A rejected model was still transmitted
            // (the bytes are burned) but `j` keeps its own model and the
            // source's suspicion rises.
            if let Some(q) = st.quarantine.as_mut() {
                let _screen = span!("core::runner", "quarantine_screen");
                if !q.screen(i, &payload, &st.clients[j].params()) {
                    r.robust.rejected_migrations += 1;
                    continue;
                }
            }
            src_of[j] = i;
            st.clients[j].set_params(&payload, true);
            if !st.link_migrations.is_empty() {
                st.link_migrations[ids[i] * k + ids[j]] += 1;
            }
            if links.same_lan(ids[i], ids[j]) {
                st.common.migrations_local += 1;
            } else {
                st.common.migrations_global += 1;
            }
        }
        drop(install_frame);
        if self.ctx.cfg.diag.active() {
            // Attribute virtual-dataset EMD deltas to individual
            // migrations: slot `j` is about to adopt slot `src_of[j]`'s
            // mixture.
            for (j, &s) in src_of.iter().enumerate().filter(|&(j, &s)| s != j) {
                let before = normalized_emd(&st.mix[j], &self.ctx.population);
                let after = normalized_emd(&st.mix[s], &self.ctx.population);
                let (from, to) = (ids[s], ids[j]);
                fedmigr_telemetry::debug!(
                    "core::diag",
                    "migration {from}->{to}: virtual-dataset EMD {before:.4} -> {after:.4} ({:+.4})",
                    after - before
                );
            }
        }
        st.common.clock.advance_parallel(VPhase::Migration, move_times);
        if let Some(pt) = wave.as_ref().and_then(|w| w.trace.as_ref()) {
            // The wave's flow events all sit inside the charged parallel
            // window (every move's charged time is at least its own flow's
            // finish).
            self.obs.tcap.phase_trace("migration", mig_t0, st.common.clock.now(), pt);
        }
        st.mix = hosted(std::mem::take(&mut st.mix), &src_of);
        st.train_mix = hosted(std::mem::take(&mut st.train_mix), &src_of);
        r.src_of = src_of;
    }

    /// (4) Evaluation of the (shadow-)aggregated global model.
    fn evaluate(&mut self, r: &mut Round) {
        let eval_span = span!("core::runner", "evaluate");
        let cfg = self.ctx.cfg;
        if r.epoch.is_multiple_of(cfg.eval_interval) || r.epoch == cfg.epochs {
            let st = &mut self.st;
            let shadow = if cfg.scheme.is_async() {
                // FedAsync's global model lives on the server.
                st.common.global.clone()
            } else {
                // What clients would *transmit* if the server aggregated
                // now — Byzantine clients corrupt these shadow uploads
                // exactly like real ones, and the codec previews its
                // distortion (without touching residuals, counters or
                // stats: these transfers are hypothetical), so the measured
                // accuracy reflects both the aggregation rule's defense and
                // the wire's lossiness. Participation is full, except for
                // sources the watchdog has permanently excluded, which are
                // out of the run for good and must not poison the
                // measurement.
                let n = st.clients.len();
                let senders: Vec<usize> = (0..n).filter(|&i| !st.excluded[i]).collect();
                let items = senders
                    .iter()
                    .map(|&i| {
                        let c = &mut st.clients[i];
                        let mut p = c.params();
                        self.ctx.attack.corrupt_upload(c.id(), r.epoch, &mut p);
                        (i, p)
                    })
                    .collect();
                let uploads: Vec<Upload> =
                    senders.into_iter().zip(st.compressor.preview_batch(items)).collect();
                aggregate_active(
                    &st.clients,
                    &uploads,
                    &cfg.aggregator,
                    &st.common.global,
                    &mut r.robust,
                )
            };
            r.accuracy = Some(engine::evaluate(self.ctx.test, &mut self.scratch, &shadow));
        }
        drop(eval_span);
        self.obs.kphases.credit("evaluate");
    }

    /// (5) Agent learning.
    fn agent_update(&mut self) {
        if let Some(ctx) = self.st.common.agent.as_mut() {
            let _learn = span!("core::runner", "agent_update");
            ctx.agent.update();
        }
        self.obs.kphases.credit("agent_update");
    }

    /// (6) Bookkeeping: usage accounting, the watchdog, the epoch record
    /// and diagnostics. Returns the epoch a rollback rewound to, if any.
    fn bookkeep(&mut self, r: &mut Round) -> Option<usize> {
        let _book = span!("core::runner", "bookkeeping");
        let st = &mut self.st;
        st.common.note_usage(r.traffic_before, r.compute_before);
        st.fault_stats.stale_client_epochs += r.stale;
        if let Some(q) = st.quarantine.as_mut() {
            q.end_epoch();
        }
        if let Some(ck_epoch) = self.watchdog(r) {
            return Some(ck_epoch);
        }
        let record = EpochRecord {
            test_accuracy: r.accuracy,
            stale_clients: r.stale,
            rejected_migrations: r.robust.rejected_migrations,
            ..self.record(r.epoch, r.mean_loss, r.dropped)
        };
        let st = &mut self.st;
        st.common.records.push(record);
        self.obs.tcap.round_end(st.common.clock.now());
        st.robust_total.absorb(&r.robust);
        st.common.prev_loss = Some(r.mean_loss);
        if self.ctx.cfg.diag.active() {
            self.diagnostics(r);
        }
        None
    }

    /// The epoch record of a round as the meters and clock stand now. Every
    /// meter charge is a whole number of model transfers, so the cumulative
    /// wire-level saving is exact.
    fn record(&self, epoch: usize, train_loss: f32, dropped_clients: usize) -> EpochRecord {
        let (common, taccum) = (&self.st.common, &self.st.taccum);
        let traffic = common.meter.traffic();
        EpochRecord {
            epoch,
            train_loss,
            traffic,
            sim_time: common.clock.now(),
            dropped_clients,
            bytes_saved: (traffic.total() / self.ctx.model_bytes) * self.ctx.saved_per_transfer,
            phase: common.clock.phase(),
            retransmits: taccum.retransmits(),
            late_uploads: taccum.late_uploads(),
            ..EpochRecord::default()
        }
    }

    /// Divergence watchdog: a non-finite global model or loss, or a loss
    /// spike beyond `spike_factor` times the trailing-window baseline,
    /// rolls the run back to the last good checkpoint and retries with the
    /// implicated sources excluded and quarantined. Returns the epoch the
    /// run was rewound to.
    fn watchdog(&mut self, r: &Round) -> Option<usize> {
        let wd = self.ctx.cfg.watchdog;
        if !wd.enabled {
            return None;
        }
        let (epoch, mean_loss) = (r.epoch, r.mean_loss);
        let common = &self.st.common;
        let recent: Vec<f32> = common
            .records
            .iter()
            .rev()
            .take(WATCHDOG_WINDOW)
            .map(|r| r.train_loss)
            .filter(|l| l.is_finite())
            .collect();
        let baseline =
            (!recent.is_empty()).then(|| recent.iter().sum::<f32>() / recent.len() as f32);
        let spiked = matches!(baseline, Some(b) if b > 0.0
            && (mean_loss as f64) > wd.spike_factor * b as f64);
        let global_finite = fedmigr_tensor::all_finite(&common.global);
        if mean_loss.is_finite() && !spiked && global_finite {
            return None;
        }
        let (ck_epoch, bytes) = match self.last_good.take() {
            Some(good) if common.recovery.rollbacks < wd.max_rollbacks => good,
            other => {
                self.last_good = other;
                fedmigr_telemetry::error!(
                    "core::runner",
                    "watchdog: divergence at epoch {epoch} but no rollback available (budget \
                     {}/{} used); continuing",
                    common.recovery.rollbacks,
                    wd.max_rollbacks
                );
                return None;
            }
        };
        let implicated: Vec<usize> =
            (0..self.nan_sources.len()).filter(|&i| self.nan_sources[i]).collect();
        let ids: Vec<usize> = implicated.iter().map(|&i| self.st.clients[i].id()).collect();
        fedmigr_telemetry::error!(
            "core::runner",
            "watchdog: divergence at epoch {epoch} (loss {mean_loss}, global finite: \
             {global_finite}); rolling back to epoch {ck_epoch}, implicated sources {ids:?}"
        );
        // Recovery accounting and exclusions survive the rollback;
        // everything else rewinds.
        let st = &mut self.st;
        let survives = (st.common.recovery, std::mem::take(&mut st.excluded));
        checkpoint::restore(&bytes, &self.ctx.stamp, st).expect("in-memory checkpoint decodes");
        (st.common.recovery, st.excluded) = survives;
        for &i in &implicated {
            st.excluded[i] = true;
            if let Some(q) = st.quarantine.as_mut() {
                q.escalate(i);
            }
        }
        st.common.recovery.rollbacks += 1;
        st.common.recovery.checkpoints_loaded += 1;
        st.common.recovery.rounds_replayed += epoch - ck_epoch;
        self.nan_sources.fill(false);
        // Replayed rounds rewrite history: truncate the flight recording
        // back to the checkpoint.
        if self.obs.flight.take().is_some() {
            // (taking it flushed and closed the file first)
            let path = self.ctx.cfg.diag.flight_out.as_deref().expect("a recording has a path");
            self.obs.flight = FlightRecorder::resume(path, ck_epoch).ok();
        }
        // The timeline is append-only: a rollback marker notes the rewind
        // (and resets the validator's time watermark) instead of
        // truncating.
        self.obs.tcap.rollback(ck_epoch);
        self.last_good = Some((ck_epoch, bytes));
        Some(ck_epoch)
    }

    /// Learning-dynamics diagnostics (observation-only: nothing here may
    /// consume the run's RNG or advance its clock).
    fn diagnostics(&mut self, r: &mut Round) {
        let _diag = span!("core::runner", "diagnostics");
        let st = &mut self.st;
        let emd = EmdSnapshot::measure(&st.mix, &self.ctx.population);
        let train_emd = EmdSnapshot::measure(&st.train_mix, &self.ctx.population);
        // Read parameters directly: `send` applies DP noise and consumes
        // the shared RNG stream, which would break the diagnostics-off/on
        // byte-identity contract.
        let params_now: Vec<Vec<f32>> = st.clients.iter_mut().map(|c| c.params()).collect();
        let weights: Vec<f64> = st.clients.iter().map(|c| c.num_samples() as f64).collect();
        let drift = DriftSnapshot::measure(&params_now, &st.common.global, &weights);
        let drl = match (st.common.agent.as_mut(), r.states.as_ref()) {
            (Some(ctx), Some(states)) => {
                // Forward-only policy probes: RNG-free by design.
                let probs: Vec<Vec<f32>> =
                    states.iter().map(|s| ctx.agent.action_probs(s)).collect();
                Some(DrlSnapshot::collect(
                    &probs,
                    ctx.agent.last_update_stats(),
                    ctx.agent.replay_health(),
                ))
            }
            _ => None,
        };
        let graph = GraphSnapshot::measure(&r.edges, &r.src_of);
        let gauge = |name: &str, v: f64| {
            fedmigr_telemetry::metrics::set(name, &[], v);
        };
        gauge("fedmigr_diag_emd_mean", emd.mean);
        gauge("fedmigr_diag_emd_max", emd.max);
        gauge("fedmigr_diag_train_emd_mean", train_emd.mean);
        gauge("fedmigr_diag_train_emd_max", train_emd.max);
        gauge("fedmigr_diag_drift_mean_dist", drift.mean_dist);
        gauge("fedmigr_diag_drift_mean_cosine", drift.mean_cosine);
        gauge("fedmigr_diag_drift_mean_divergence", drift.mean_divergence);
        if let Some(d) = &drl {
            gauge("fedmigr_diag_policy_entropy", d.mean_entropy);
            gauge("fedmigr_diag_policy_saturation", d.mean_saturation);
            gauge("fedmigr_diag_critic_mean_q", d.mean_q);
            gauge("fedmigr_diag_td_error_mean_abs", d.mean_abs_td);
        }
        let Some(rec) = self.obs.flight.as_mut() else { return };
        let traffic = st.common.meter.traffic();
        let phase = st.common.clock.phase();
        let mut row = RoundRecord {
            epoch: r.epoch,
            train_loss: r.mean_loss as f64,
            test_accuracy: r.accuracy,
            sim_time: st.common.clock.now(),
            c2s_bytes: traffic.c2s,
            c2c_local_bytes: traffic.c2c_local,
            c2c_global_bytes: traffic.c2c_global,
            phase: PhaseSeconds {
                train_s: phase.train_s,
                c2s_s: phase.c2s_s,
                migration_s: phase.migration_s,
                backoff_s: phase.backoff_s,
            },
            emd,
            train_emd,
            drift: Some(drift),
            drl,
            graph,
            // The edges leave the round named by client id.
            migrations: std::mem::take(&mut r.edges)
                .into_iter()
                .map(|e| MigrationEdge {
                    src: st.clients[e.src].id(),
                    dst: st.clients[e.dst].id(),
                    ..e
                })
                .collect(),
        };
        if let Err(e) = rec.line(&mut row) {
            fedmigr_telemetry::error!(
                "core::diag",
                "flight round write failed: {e}; recording stopped"
            );
            self.obs.flight = None;
        }
    }

    // --- Transfers -------------------------------------------------------

    /// The one egress: what the client in slot `i` transmits at `epoch`. It reads the
    /// client's parameters, applies DP noise if configured, then any
    /// Byzantine corruption — a malicious client poisons *everything* it
    /// transmits, server uploads and C2C migrations alike, after the honest
    /// pipeline has finished with the payload — and marks a non-finite
    /// payload's source for the watchdog. Called once per payload the codec
    /// encodes; the client's own model is never touched.
    fn send(&mut self, i: usize, epoch: usize) -> Vec<f32> {
        let (cfg, st) = (self.ctx.cfg, &mut self.st);
        let c = &mut st.clients[i];
        let mut p = c.params();
        if let Some(dp) = &cfg.dp {
            dp.apply(&mut p, &mut st.common.rng);
        }
        self.ctx.attack.corrupt_upload(c.id(), epoch, &mut p);
        if cfg.watchdog.enabled && !fedmigr_tensor::all_finite(&p) {
            self.nan_sources[i] = true;
        }
        p
    }

    /// Lockstep C2S pricing: `legs` serialized transfers per client in
    /// `who`, each at nominal bandwidth — one coarse timeline interval per
    /// client spanning the whole window.
    fn lockstep_c2s(&mut self, who: &[bool], epoch: usize, legs: u64) {
        let n = who.iter().filter(|&&w| w).count() as u64;
        let common = &mut self.st.common;
        common.meter.record_c2s(legs * n * self.ctx.model_bytes);
        let links = self.ctx.links;
        let t0 = common.clock.now();
        let adv = legs as f64
            * n as f64
            * transfer_time_with_latency(
                self.ctx.model_bytes,
                links.c2s_bandwidth(epoch),
                links.c2s_latency(),
            );
        common.clock.advance(VPhase::C2s, adv);
        if self.obs.tcap.active() {
            for c in self.st.clients.iter().zip(who).filter(|&(_, &w)| w).map(|(c, _)| c) {
                self.obs.tcap.upload(c.id(), t0, adv, adv, false);
            }
        }
    }

    /// Determines which of the `arrived` clients can reach the server this
    /// epoch: WAN outages retry with exponential backoff (charged serially
    /// to the clock — the WAN is the shared bottleneck) and give up after
    /// the policy's retry budget. Transparent when fault injection is off.
    fn c2s_reachable(&mut self, arrived: &[bool], epoch: usize) -> Vec<bool> {
        let fault = &self.ctx.fault;
        if !fault.enabled() {
            return arrived.to_vec();
        }
        let stats = &mut self.st.fault_stats;
        let mut synced = vec![false; arrived.len()];
        let mut backoff_total = 0.0f64;
        for i in (0..arrived.len()).filter(|&i| arrived[i]) {
            let id = self.st.clients[i].id();
            if fault.c2s_up(id, epoch) {
                synced[i] = true;
                continue;
            }
            stats.wasted_bytes += self.ctx.model_bytes;
            for attempt in 1..=MAX_RETRIES {
                stats.transfer_retries += 1;
                count_net("fedmigr_net_transfer_retries_total", &[]);
                backoff_total += retry_backoff(attempt);
                if fault.retry_succeeds(id, usize::MAX, epoch, attempt) {
                    synced[i] = true;
                    break;
                }
                stats.wasted_bytes += self.ctx.model_bytes;
            }
        }
        self.st.common.clock.advance(VPhase::Backoff, backoff_total);
        synced
    }

    /// Delivers one planned migration from slot `i` to slot `j` (`ids` names
    /// each slot's client) under the fault model, charging bytes to the
    /// meter and returning `(outcome, seconds)` — the outcome names the path
    /// the transfer ended on and implies whether it delivered
    /// ([`EdgeOutcome::delivered`]). The policy is: (a) direct C2C, tried
    /// here when `direct` (a flow wave that struck out has tried it), then
    /// (b) bounded exponential-backoff retries, (c) a relay through the best
    /// live peer in the destination's LAN, (d) a C2S round-trip through the
    /// server, and finally (e) cancellation (the model stays where it is for
    /// one epoch).
    fn deliver(
        &mut self,
        alive: &[bool],
        ids: &[usize],
        i: usize,
        j: usize,
        epoch: usize,
        direct: bool,
    ) -> (EdgeOutcome, f64) {
        let (fault, topology) = (&self.ctx.fault, self.ctx.links);
        let (model_bytes, (i, j)) = (self.ctx.model_bytes, (ids[i], ids[j]));
        let eff = |a: usize, b: usize| effective_bandwidth(fault, topology, a, b, epoch);
        let (meter, stats) = (&mut self.st.common.meter, &mut self.st.fault_stats);
        if direct {
            let latency = topology.c2c_latency(i, j);
            if let Some(t) = try_transfer_time_with_latency(model_bytes, eff(i, j), latency) {
                meter.record_c2c(model_bytes, topology.same_lan(i, j));
                observe_link_time("direct", t);
                return (EdgeOutcome::Direct, t);
            }
            stats.wasted_bytes += model_bytes;
        }
        // (b) Bounded retries with exponential backoff on the same link.
        let mut elapsed = 0.0;
        for attempt in 1..=MAX_RETRIES {
            stats.transfer_retries += 1;
            count_net("fedmigr_net_transfer_retries_total", &[]);
            elapsed += retry_backoff(attempt);
            if fault.retry_succeeds(i, j, epoch, attempt) {
                meter.record_c2c(model_bytes, topology.same_lan(i, j));
                let bw = topology.c2c_bandwidth(i, j, epoch) * fault.link_quality(i, j, epoch);
                let latency = topology.c2c_latency(i, j);
                let t = elapsed + transfer_time_with_latency(model_bytes, bw, latency);
                observe_link_time("direct_retry", t);
                return (EdgeOutcome::DirectRetry, t);
            }
            stats.wasted_bytes += model_bytes;
        }
        // (c) Relay through the live same-LAN peer of `j` with the best
        // bottleneck bandwidth on the two-hop path.
        let relay = (0..ids.len())
            .filter(|&s| alive[s])
            .map(|s| ids[s])
            .filter(|&r| r != i && r != j && topology.same_lan(r, j))
            .filter(|&r| eff(i, r) > 0.0 && eff(r, j) > 0.0)
            .max_by(|&a, &b| eff(i, a).min(eff(a, j)).total_cmp(&eff(i, b).min(eff(b, j))));
        if let Some(r) = relay {
            meter.record_c2c(model_bytes, topology.same_lan(i, r));
            meter.record_c2c(model_bytes, true);
            stats.rerouted_migrations += 1;
            count_net("fedmigr_net_fallback_total", &[("kind", "relay")]);
            let t = transfer_time_with_latency(model_bytes, eff(i, r), topology.c2c_latency(i, r))
                + transfer_time_with_latency(model_bytes, eff(r, j), topology.c2c_latency(r, j));
            observe_link_time("relay", elapsed + t);
            return (EdgeOutcome::Relay, elapsed + t);
        }
        // (d) Last resort: bounce the model off the server over the WAN.
        if fault.c2s_up(i, epoch) && fault.c2s_up(j, epoch) {
            meter.record_c2s(2 * model_bytes);
            stats.rerouted_migrations += 1;
            count_net("fedmigr_net_fallback_total", &[("kind", "c2s_bounce")]);
            let t = 2.0
                * transfer_time_with_latency(
                    model_bytes,
                    topology.c2s_bandwidth(epoch),
                    topology.c2s_latency(),
                );
            observe_link_time("c2s_bounce", elapsed + t);
            return (EdgeOutcome::C2sBounce, elapsed + t);
        }
        // (e) Give up; the destination keeps its local copy this epoch.
        stats.cancelled_migrations += 1;
        count_net("fedmigr_net_fallback_total", &[("kind", "cancel")]);
        (EdgeOutcome::Cancelled, elapsed)
    }

    /// Runs one C2S phase under the flow transport over the clients in
    /// `who`: uploads (`upload`) or a download (a broadcast fan-out or a
    /// single FedAsync return leg). Completed flows pay their payload plus
    /// retransmission overhead; a struck-out flow pays its wire bytes and
    /// delivers nothing (an upload's payload is wasted; a receiver keeps
    /// its current model). Uploads race a per-round deadline (a multiple of
    /// the median completed finish time): one past it is late, and may
    /// still be folded into a later aggregation. The round advances by the
    /// earlier of the deadline and the last settled flow.
    fn flow_phase(
        &mut self,
        (fc, topology): (&FlowConfig, &Topology),
        epoch: usize,
        who: &[bool],
        upload: bool,
    ) -> FlowOutcome {
        let (n, model_bytes) = (who.len(), self.ctx.model_bytes);
        let mut out = FlowOutcome { on_time: vec![false; n], late: vec![false; n], failed: 0 };
        let senders: Vec<usize> = (0..n).filter(|&i| who[i]).collect();
        if senders.is_empty() {
            return out;
        }
        let (st, tcap) = (&mut self.st, &mut self.obs.tcap);
        let t0 = st.common.clock.now();
        let sim = simulate_c2s_traced(
            topology,
            &self.ctx.fault,
            epoch,
            fc,
            &senders,
            model_bytes,
            tcap.active(),
        );
        st.taccum.absorb(&sim);
        let deadline = if upload { upload_deadline(&sim.outcomes) } else { f64::INFINITY };
        let dur = sim.makespan.min(deadline);
        for (o, &c) in sim.outcomes.iter().zip(&senders) {
            if o.completed {
                st.common.meter.record_c2s(model_bytes);
                st.common.meter.record_overhead(o.retransmit_bytes);
                if o.finish <= deadline {
                    out.on_time[c] = true;
                } else {
                    out.late[c] = true;
                    st.taccum.note_late_upload();
                }
            } else {
                st.common.meter.record_overhead(o.wire_bytes);
                if upload {
                    st.fault_stats.wasted_bytes += model_bytes;
                }
                out.failed += 1;
            }
            tcap.upload(c, t0, o.finish, dur, o.completed && o.finish > deadline);
        }
        st.common.meter.record_transfer_seconds(dur);
        st.common.clock.advance(VPhase::C2s, dur);
        if let Some(pt) = &sim.trace {
            tcap.phase_trace(if upload { "upload" } else { "download" }, t0, t0 + dur, pt);
        }
        out
    }
}

/// What the run shell (`engine::run`) calls.
impl Run<'_> {
    /// One round, from `sample` to `bookkeep`: the dense round, over a
    /// fleet block's cohort too.
    pub(crate) fn round(&mut self, epoch: usize) -> Outcome {
        let scheme = self.ctx.cfg.scheme.name();
        let _round =
            fedmigr_telemetry::span!("core::runner", "round", "epoch" => epoch, "scheme" => scheme);
        self.obs.tcap.round_start(epoch, self.st.common.clock.now());
        let Some(mut r) = self.sample(epoch) else { return Outcome::Idle };
        self.train(&mut r);
        self.decide(&mut r);
        self.communicate(&mut r);
        self.evaluate(&mut r);
        self.agent_update();
        if let Some(ck_epoch) = self.bookkeep(&mut r) {
            return Outcome::RolledBack(ck_epoch);
        }
        self.obs.kphases.credit("bookkeeping");
        self.retire(epoch);
        Outcome::Done(r.accuracy)
    }

    /// Offers the run the snapshot taken after `epoch` (the watchdog's
    /// rollback target) and returns the buffer the next snapshot is encoded
    /// into: the one a kept snapshot displaced, or `bytes` itself when the
    /// run keeps nothing.
    pub(crate) fn keep_snapshot(&mut self, epoch: usize, bytes: Vec<u8>) -> Vec<u8> {
        self.nan_sources.fill(false);
        if !self.ctx.cfg.watchdog.enabled {
            return bytes;
        }
        self.last_good.replace((epoch, bytes)).map(|(_, displaced)| displaced).unwrap_or_default()
    }

    /// Closes the flight recording and logs where the time went.
    pub(crate) fn finish(&mut self, exit: &Exit) {
        let st = &self.st;
        let records = &st.common.records;
        if let Some(rec) = self.obs.flight.as_mut().filter(|_| !exit.killed) {
            let mut summary = FlightSummary {
                epochs_run: records.len(),
                final_accuracy: records.iter().rev().find_map(|r| r.test_accuracy).unwrap_or(0.0),
                best_accuracy: records.iter().filter_map(|r| r.test_accuracy).fold(0.0, f64::max),
                total_bytes: records.last().map(|r| r.traffic.total()).unwrap_or(0),
                sim_time: records.last().map(|r| r.sim_time).unwrap_or(0.0),
                migrations_local: st.common.migrations_local,
                migrations_global: st.common.migrations_global,
                final_emd_mean: EmdSnapshot::measure(&st.mix, &self.ctx.population).mean,
                target_reached: exit.target_reached,
                budget_exhausted: exit.budget_exhausted,
            };
            if let Err(e) = rec.line(&mut summary) {
                fedmigr_telemetry::error!("core::diag", "flight summary write failed: {e}");
            }
        }
        log_phase_hotspot(records.last().map(|r| r.phase).unwrap_or_default());
    }
}

impl RoundState<'_> {
    /// Whether the residents stay on after an aggregation: every client of
    /// a dense run does; a fleet cohort retires after its block's.
    fn keeps_residents(&self) -> bool {
        matches!(self.world, World::Dense { .. })
    }

    /// Staleness-tolerant degraded aggregation for the flow transport:
    /// folds the `on_time` uploads as fresh entries and the buffered late
    /// uploads as staleness-discounted entries. A buffered upload is
    /// dropped (not folded) when its client also delivered fresh this round
    /// — fresh supersedes stale — or when it aged past the policy window.
    /// Returns `None` (keep the previous global) only when there is nothing
    /// at all to fold. Always drains the buffer.
    fn fold_with_late(
        &mut self,
        cfg: &RunConfig,
        uploads: &[Upload],
        on_time: &[bool],
        stats: &mut RobustStats,
    ) -> Option<Vec<f32>> {
        let weight = |i: usize| self.clients[i].num_samples() as f64;
        let fresh: Vec<(&[f32], f64)> =
            uploads.iter().map(|(i, p)| (p.as_slice(), weight(*i))).collect();
        let mut stale_entries: Vec<(&[f32], f64, usize)> = Vec::new();
        let mut dropped = 0u64;
        for lu in &self.late_buf {
            // An upload buffered since `seq` aggregations had completed is
            // at least one aggregation round old by the time the next one
            // runs.
            let age = (self.agg_seq - lu.seq).max(1);
            if on_time[lu.client] || age > STALE_MAX_AGE {
                dropped += 1;
            } else {
                stale_entries.push((lu.params.as_slice(), weight(lu.client), age));
            }
        }
        self.taccum.note_stale_folded(stale_entries.len() as u64);
        self.taccum.note_stale_dropped(dropped);
        let out = if fresh.is_empty() && stale_entries.is_empty() {
            warn!(
                "core::runner",
                "fedmigr: degraded aggregation with zero fresh or stale uploads; keeping previous global"
            );
            None
        } else {
            Some(cfg.aggregator.aggregate_with_stale(
                &fresh,
                &stale_entries,
                &self.common.global,
                stats,
            ))
        };
        self.late_buf.clear();
        out
    }
}

/// Effective bandwidth of link `a -> b` under the fault model. A downed link
/// presents as zero, which the `try_` transfer API maps to `None` instead of
/// a panic.
fn effective_bandwidth(
    fault: &FaultModel,
    topo: &dyn Links,
    a: usize,
    b: usize,
    epoch: usize,
) -> f64 {
    if fault.link_up(a, b, epoch) {
        topo.c2c_bandwidth(a, b, epoch) * fault.link_quality(a, b, epoch)
    } else {
        0.0
    }
}

/// One exponential-decay step of each active client's mixture estimate
/// towards the data it just trained on.
fn decay_towards(mix: &mut [Vec<f64>], clients: &[FlClient], active: &[bool]) {
    for (i, (m, c)) in mix.iter_mut().zip(clients).enumerate() {
        if !active[i] {
            continue;
        }
        for (mi, qi) in m.iter_mut().zip(c.label_dist()) {
            *mi = (1.0 - MIX_ALPHA) * *mi + MIX_ALPHA * qi;
        }
    }
}

/// Which runner phase a virtual-clock advance belongs to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VPhase {
    /// Straggler-limited local training.
    Train,
    /// Client↔server transfers (distribution, uploads, downloads).
    C2s,
    /// Client-to-client model movement.
    Migration,
    /// Waiting out server-link outages.
    Backoff,
}

/// The simulation clock plus a deterministic per-phase attribution of every
/// advance. The attribution is part of the run result (`EpochRecord::phase`),
/// so it must not depend on telemetry being enabled — it never is: this is
/// plain arithmetic on the virtual clock.
pub(crate) struct PhasedClock {
    clock: SimClock,
    phase: PhaseBreakdown,
}

impl PhasedClock {
    pub(crate) fn new() -> Self {
        Self { clock: SimClock::new(), phase: PhaseBreakdown::default() }
    }

    /// A clock resumed from checkpointed time and phase attribution.
    pub(crate) fn at(now: f64, phase: PhaseBreakdown) -> Self {
        Self { clock: SimClock::at(now), phase }
    }

    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    pub(crate) fn phase(&self) -> PhaseBreakdown {
        self.phase
    }

    fn bucket(&mut self, phase: VPhase) -> &mut f64 {
        match phase {
            VPhase::Train => &mut self.phase.train_s,
            VPhase::C2s => &mut self.phase.c2s_s,
            VPhase::Migration => &mut self.phase.migration_s,
            VPhase::Backoff => &mut self.phase.backoff_s,
        }
    }

    pub(crate) fn advance(&mut self, phase: VPhase, seconds: f64) {
        self.clock.advance(seconds);
        *self.bucket(phase) += seconds;
    }

    /// Advances by the *maximum* of `times` (parallel transfers), charging
    /// the elapsed delta to `phase`.
    pub(crate) fn advance_parallel(&mut self, phase: VPhase, times: Vec<f64>) {
        let before = self.clock.now();
        self.clock.advance_parallel(times);
        *self.bucket(phase) += self.clock.now() - before;
    }
}

/// One-line hotspot log at run end: names the runner span that dominated
/// this run's instrumented wall time (the run records into a registry of
/// its own, so `fedmigr_phase_seconds` holds only its spans) and the phase
/// that dominated virtual time. The enclosing `round` span is excluded —
/// it envelops every other phase.
fn log_phase_hotspot(sim: PhaseBreakdown) {
    use fedmigr_telemetry::metrics::{self, label};
    let spans = metrics::snapshot().histogram_family(fedmigr_telemetry::PHASE_SECONDS);
    let deltas: Vec<(String, f64)> = spans
        .iter()
        .filter(|(labels, _)| label(labels, "target") == "core::runner")
        .map(|(labels, h)| (label(labels, "phase").to_string(), h.sum))
        .filter(|(phase, sum)| phase != "round" && *sum > 0.0)
        .collect();
    let wall_total: f64 = deltas.iter().map(|(_, d)| d).sum();
    let Some((hot, hot_s)) = deltas.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
        return;
    };
    let sim_total = sim.total();
    let sim_part = [
        ("train", sim.train_s),
        ("c2s", sim.c2s_s),
        ("migration", sim.migration_s),
        ("backoff", sim.backoff_s),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .filter(|_| sim_total > 0.0)
    .map(|(name, s)| format!("; sim time dominated by {name} ({:.0}%)", 100.0 * s / sim_total))
    .unwrap_or_default();
    fedmigr_telemetry::info!(
        "core::runner",
        "phase_hotspot: {hot} took {:.0}% of instrumented wall time ({hot_s:.3}s){sim_part}",
        100.0 * hot_s / wall_total
    );
}

/// Bumps a telemetry counter in the net metric families (side-channel only:
/// never feeds back into the run).
fn count_net(name: &str, labels: &[(&str, &str)]) {
    fedmigr_telemetry::metrics::add(name, labels, 1);
}

/// Records one migration delivery's virtual duration per resolution path.
fn observe_link_time(path: &'static str, seconds: f64) {
    fedmigr_telemetry::metrics::observe(
        "fedmigr_link_transfer_seconds",
        &[("path", path)],
        seconds,
    );
}

/// Trains the participating clients for one local epoch, in parallel.
/// Returns the per-client losses (`None` for clients that sat the epoch
/// out) plus a mask of clients whose training *panicked*. A panic —
/// whether injected by [`FaultConfig::panics`] or a genuine bug in one
/// client's training path — is contained per client (`catch_unwind`
/// inside the worker): the client is treated as crashed for the round,
/// its chunk-mates keep training, and the run survives.
///
/// Work is chunked by [`fedmigr_telemetry::fan_out`], one worker per core,
/// rather than one thread per client: oversubscribing cores makes each
/// kernel's *wall* time include descheduled gaps, which used to inflate
/// the summed `local_train` kernel time to several multiples of the
/// phase's process CPU time and wreck the attribution numbers.
fn train_all(
    clients: &mut [FlClient],
    cfg: &RunConfig,
    prox: Option<&(Vec<f32>, f32)>,
    active: &[bool],
    fault: &FaultModel,
    epoch: usize,
) -> (Vec<Option<f32>>, Vec<bool>) {
    let prox = prox.map(|(g, mu)| (g.as_slice(), *mu));
    let ids: Vec<usize> = clients.iter().map(FlClient::id).collect();
    let results = fedmigr_telemetry::fan_out(clients, |first, part| {
        let _busy = kcount::worker();
        part.iter_mut()
            .enumerate()
            .map(|(j, c)| {
                active[first + j].then(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let id = c.id();
                        if fault.client_panics(id, epoch) {
                            panic!("injected client panic (client {id}, epoch {epoch})");
                        }
                        c.train_epoch(cfg.batch_size, cfg.max_batches_per_epoch, prox)
                    }))
                })
            })
            .collect()
    });
    let mut panicked = vec![false; results.len()];
    let losses = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            None => None,
            Some(Ok(loss)) => Some(loss),
            Some(Err(_)) => {
                fedmigr_telemetry::error!(
                    "core::runner",
                    "client {} training panicked at epoch {epoch}; \
                     treating the client as crashed for this round",
                    ids[i]
                );
                panicked[i] = true;
                None
            }
        })
        .collect();
    (losses, panicked)
}

/// Server-side aggregation (Eq. 7 and its robust variants) of the uploads
/// that reached the server: weights are the senders' local sample counts
/// `n_k`. A round with *no* upload keeps the previous global model instead
/// of panicking on an empty average.
fn aggregate_active(
    clients: &[FlClient],
    uploads: &[Upload],
    aggregator: &Aggregator,
    prev_global: &[f32],
    stats: &mut RobustStats,
) -> Vec<f32> {
    let entries: Vec<(&[f32], f64)> =
        uploads.iter().map(|(i, p)| (p.as_slice(), clients[*i].num_samples() as f64)).collect();
    if entries.is_empty() {
        warn!(
            "core::runner",
            "fedmigr: aggregation round with zero active uploads; keeping previous global"
        );
        return prev_global.to_vec();
    }
    aggregator.aggregate(&entries, prev_global, stats)
}

/// One payload that reached the server: the sender and what the wire
/// delivered.
type Upload = (usize, Vec<f32>);

/// An upload that completed after its round's deadline, buffered until an
/// aggregation folds it with a staleness discount (or ages it out).
#[derive(Default)]
pub(crate) struct LateUpload {
    /// The uploading client.
    pub client: usize,
    /// The decoded payload the wire delivered (codec applied).
    pub params: Vec<f32>,
    /// Value of the aggregation counter when the upload was buffered;
    /// staleness age is measured against it in aggregation rounds.
    pub seq: usize,
}

/// Per-client result of one flow-transport C2S phase.
struct FlowOutcome {
    /// Transfers that completed within the round deadline (every completed
    /// download).
    on_time: Vec<bool>,
    /// Uploads that completed, but after the deadline.
    late: Vec<bool>,
    /// Transfers whose flow exhausted its timeout budget.
    failed: usize,
}

/// Row `j` of the result is row `src_of[j]` of `rows`: each source row
/// moves to the last slot hosting it and is cloned only for earlier ones
/// (a model whose own slot keeps it after a failed delivery has two).
fn hosted<T: Clone>(rows: Vec<T>, src_of: &[usize]) -> Vec<T> {
    let mut uses = vec![0usize; rows.len()];
    for &s in src_of {
        uses[s] += 1;
    }
    let mut rows: Vec<Option<T>> = rows.into_iter().map(Some).collect();
    let mut take = |s: usize| {
        uses[s] -= 1;
        let row = if uses[s] == 0 { rows[s].take() } else { rows[s].clone() };
        row.expect("a row moves out at its last use")
    };
    src_of.iter().map(|&s| take(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_data::{partition_iid, partition_shards, SyntheticConfig, SyntheticDataset};

    impl<'a> RoundState<'a> {
        /// The state a run of `cfg` over `exp` starts from (a fixture for
        /// the checkpoint tests).
        pub(crate) fn fresh(exp: &'a Experiment, cfg: &'a RunConfig) -> Self {
            Run::dense(exp, cfg).st
        }

        /// The state a fleet run of `cfg` over `exp` starts from.
        pub(crate) fn fresh_fleet(exp: &'a mut FleetExperiment, cfg: &'a RunConfig) -> Self {
            Run::fleet(exp, cfg).st
        }

        /// A fleet state's pool.
        pub(crate) fn pool(&mut self) -> &mut fedmigr_fleet::ClientPool {
            match &mut self.world {
                World::Fleet(fleet) => fleet.pool,
                World::Dense { .. } => panic!("a dense run has no pool"),
            }
        }
    }

    use fedmigr_net::{DeviceTier, TopologyConfig};
    use fedmigr_nn::zoo::{self, NetScale};

    fn small_experiment(non_iid: bool) -> Experiment {
        experiment_of(4, non_iid)
    }

    /// `k` clients over two LANs with 24 training samples each.
    fn experiment_of(k: usize, non_iid: bool) -> Experiment {
        let data = SyntheticDataset::generate(&SyntheticConfig {
            num_classes: 4,
            train_per_class: 6 * k,
            test_per_class: 8,
            channels: 1,
            hw: 8,
            noise_std: 0.6,
            class_sep: 1.0,
            atom_bank: 0,
            atoms_per_class: 0,
            private_frac: 0.0,
            seed: 11,
        });
        let parts = if non_iid {
            partition_shards(&data.train, k, 1, 5)
        } else {
            partition_iid(&data.train, k, 5)
        };
        let topo = Topology::new(&TopologyConfig::default_edge(vec![k / 2, k - k / 2], 5));
        let model = zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, 5);
        Experiment::new(
            data.train,
            data.test,
            parts,
            topo,
            ClientCompute::homogeneous(k, DeviceTier::Nx),
            model,
        )
    }

    fn quick_cfg(scheme: Scheme, epochs: usize) -> RunConfig {
        let mut cfg = RunConfig::new(scheme, epochs);
        cfg.agg_interval = 5;
        cfg.eval_interval = 5;
        cfg.batch_size = 16;
        cfg.lr = 0.05;
        cfg
    }

    #[test]
    fn hosted_moves_each_row_to_its_last_slot_and_clones_the_rest() {
        let rows = vec![vec![0.5], vec![1.5], vec![2.5]];
        // Slot 1 adopts model 0, whose own slot kept it; model 1 is gone.
        assert_eq!(hosted(rows.clone(), &[0, 0, 2]), vec![vec![0.5], vec![0.5], vec![2.5]]);
        assert_eq!(hosted(rows, &[2, 0, 1]), vec![vec![2.5], vec![0.5], vec![1.5]]);
    }

    #[test]
    fn fedavg_learns_on_iid_data() {
        let exp = small_experiment(false);
        let m = exp.run(&quick_cfg(Scheme::FedAvg, 20));
        assert_eq!(m.epochs(), 20);
        assert!(m.final_accuracy() > 0.5, "accuracy {}", m.final_accuracy());
        // FedAvg aggregates every epoch: 2K models + initial distribution.
        assert_eq!(m.migrations_local + m.migrations_global, 0);
        assert!(m.traffic().c2c_local == 0 && m.traffic().c2c_global == 0);
    }

    #[test]
    fn randmigr_moves_models_over_c2c() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::RandMigr, 10));
        assert!(m.migrations_local + m.migrations_global > 0);
        assert!(m.traffic().c2c_local + m.traffic().c2c_global > 0);
        // C2S only on aggregation epochs (plus initial distribution).
        assert!(m.traffic().c2s < exp.run(&quick_cfg(Scheme::FedAvg, 10)).traffic().c2s);
    }

    #[test]
    fn fedmigr_runs_and_trains_agent() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::fedmigr(3), 12));
        assert_eq!(m.scheme, "FedMigr");
        assert!(m.migrations_local + m.migrations_global > 0);
        assert!(m.final_accuracy() > 0.2);
    }

    #[test]
    fn budget_exhaustion_stops_early() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 50);
        // Enough for the initial distribution and a couple of epochs only.
        let bytes = 12.0 * 4.0 * 4.0 * 1000.0;
        cfg.budget = ResourceBudget::bandwidth_only(bytes);
        let m = exp.run(&cfg);
        assert!(m.budget_exhausted);
        assert!(m.epochs() < 50);
    }

    #[test]
    fn target_accuracy_stops_early() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 60);
        cfg.target_accuracy = Some(0.4);
        cfg.eval_interval = 2;
        let m = exp.run(&cfg);
        assert!(m.target_reached);
        assert!(m.epochs() < 60);
    }

    #[test]
    fn dp_noise_degrades_but_runs() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.dp = Some(DpConfig::with_epsilon(1.0)); // Very strong noise.
        let noisy = exp.run(&cfg);
        let clean = exp.run(&quick_cfg(Scheme::FedAvg, 10));
        assert!(noisy.final_accuracy() <= clean.final_accuracy() + 0.1);
    }

    #[test]
    fn fedasync_trades_traffic_for_accuracy() {
        let exp = small_experiment(true);
        let a_async = exp.run(&quick_cfg(Scheme::fedasync(), 16));
        let a_avg = exp.run(&quick_cfg(Scheme::FedAvg, 16));
        // One upload per epoch instead of K: much cheaper.
        assert!(a_async.traffic().c2s < a_avg.traffic().c2s / 2);
        // It still learns something, but non-IID hurts it (the paper's
        // critique of asynchronous optimization).
        assert!(a_async.final_accuracy() > 0.2);
        assert!(a_async.final_accuracy() <= a_avg.final_accuracy() + 0.1);
    }

    #[test]
    fn partial_participation_trains_a_subset_and_costs_less() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.participation = 0.5;
        let m_half = exp.run(&cfg);
        let m_full = exp.run(&quick_cfg(Scheme::FedAvg, 10));
        // Half the clients -> roughly half the per-epoch C2S traffic.
        assert!(m_half.traffic().c2s < m_full.traffic().c2s * 3 / 4);
        assert!(m_half.final_accuracy() > 0.3, "partial run failed to learn");
    }

    #[test]
    fn partial_participation_works_for_migration_schemes() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.participation = 0.75;
        let m = exp.run(&cfg);
        assert!(m.epochs() == 10);
        assert!(m.migrations_local + m.migrations_global > 0);
    }

    #[test]
    fn aggregate_active_with_no_survivors_keeps_previous_global() {
        let ds = Arc::new(
            SyntheticDataset::generate(&SyntheticConfig {
                num_classes: 4,
                train_per_class: 8,
                test_per_class: 2,
                channels: 1,
                hw: 8,
                noise_std: 0.6,
                class_sep: 1.0,
                atom_bank: 0,
                atoms_per_class: 0,
                private_frac: 0.0,
                seed: 11,
            })
            .train,
        );
        let parts = partition_iid(&ds, 2, 1);
        let mk = |i: usize| {
            FlClient::new(
                i,
                ds.clone(),
                parts[i].clone(),
                zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, 5),
                0.05,
                42,
            )
        };
        let mut clients = vec![mk(0), mk(1)];
        let uploads: Vec<Upload> = clients.iter_mut().map(FlClient::params).enumerate().collect();
        let prev_global = vec![0.25f32; uploads[0].1.len()];
        let mut stats = RobustStats::default();
        // A round with no upload must fall back to the previous global
        // model instead of averaging an empty set.
        let out = aggregate_active(&clients, &[], &Aggregator::FedAvg, &prev_global, &mut stats);
        assert_eq!(out, prev_global);
        assert!(!stats.any());
        // Sanity: with uploads the same call actually aggregates.
        let agg =
            aggregate_active(&clients, &uploads, &Aggregator::FedAvg, &prev_global, &mut stats);
        assert_ne!(agg, prev_global);
    }

    #[test]
    #[should_panic(expected = "full participation")]
    fn fixed_strategies_require_full_participation() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::Fixed(crate::MigrationStrategy::Random), 4);
        cfg.participation = 0.5;
        let _ = exp.run(&cfg);
    }

    #[test]
    fn phase_breakdown_accounts_for_all_sim_time() {
        let exp = small_experiment(true);
        let m = exp.run(&quick_cfg(Scheme::fedmigr(3), 10));
        let p = m.phase();
        assert!(p.train_s > 0.0, "training advances the clock");
        assert!(p.c2s_s > 0.0, "initial distribution + aggregation advance the clock");
        assert!(p.migration_s > 0.0, "migration epochs advance the clock");
        assert_eq!(p.backoff_s, 0.0, "no fault model, no backoff");
        let tol = 1e-9 * m.sim_time().max(1.0);
        assert!(
            (p.total() - m.sim_time()).abs() <= tol,
            "phase total {} vs sim_time {}",
            p.total(),
            m.sim_time()
        );
        // Per-epoch breakdowns are cumulative and monotone.
        for w in m.records.windows(2) {
            assert!(w[1].phase.total() >= w[0].phase.total());
        }
    }

    #[test]
    fn faulty_run_attributes_backoff_time() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.c2s_outage_prob = 0.6;
        cfg.fault.seed = 2;
        let m = exp.run(&cfg);
        let p = m.phase();
        assert!(p.backoff_s > 0.0, "60% WAN outage must show up as backoff: {p:?}");
        let tol = 1e-9 * m.sim_time().max(1.0);
        assert!((p.total() - m.sim_time()).abs() <= tol);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let exp = small_experiment(true);
        let a = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let b = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
    }

    #[test]
    fn explicit_no_fault_config_matches_default() {
        let exp = small_experiment(true);
        let base = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.seed = 99; // irrelevant: no fault process is enabled
        let m = exp.run(&cfg);
        assert_eq!(m.final_accuracy(), base.final_accuracy());
        assert_eq!(m.traffic(), base.traffic());
        assert_eq!(m.sim_time(), base.sim_time());
        assert!(!m.fault.any(), "no-fault run must observe zero faults");
        assert!(m.records.iter().all(|r| r.dropped_clients == 0 && r.stale_clients == 0));
    }

    #[test]
    fn faulty_migration_run_completes_and_accounts() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::RandMigr, 12);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.4, 17);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 12, "faults must not end the run early");
        assert!(m.fault.any(), "40% churn over 12 epochs should register");
        let recorded_drops: usize = m.records.iter().map(|r| r.dropped_clients).sum();
        assert_eq!(recorded_drops, m.fault.client_drops);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.3, 5);
        let a = exp.run(&cfg);
        let b = exp.run(&cfg);
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn flow_transport_runs_and_reports_stats() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 10);
        cfg.transport = TransportConfig::flow(cfg.seed);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 10, "flow transport must complete every round");
        assert_eq!(m.transport, "flow");
        assert!(m.transport_stats.any(), "flows must be recorded");
        assert!(m.transport_stats.failed_flows == 0, "clean links must not fail flows");
        assert!(m.transport_summary().is_some());
        assert!(m.final_accuracy() > 0.4, "flow accounting must not break learning");
        // Contention makes concurrent uploads slower than the serialized
        // lockstep pricing never is; time moved and traffic was charged.
        assert!(m.sim_time() > 0.0);
        assert!(m.traffic().c2s > 0);
    }

    #[test]
    fn flow_runs_are_deterministic() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::none().with_network_stress(0.3);
        cfg.fault.seed = 5;
        let a = exp.run(&cfg);
        let b = exp.run(&cfg);
        assert_eq!(a.final_accuracy(), b.final_accuracy());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.transport_stats, b.transport_stats);
        assert_eq!(a.sim_time(), b.sim_time());
    }

    #[test]
    fn lockstep_run_ignores_transport_state() {
        // A default (lockstep) run must be bit-identical whether or not the
        // transport is explicitly set: no flow code path may consume RNG,
        // clock, or meter state.
        let exp = small_experiment(true);
        let base = exp.run(&quick_cfg(Scheme::RandMigr, 8));
        let mut cfg = quick_cfg(Scheme::RandMigr, 8);
        cfg.transport = TransportConfig::Lockstep;
        let m = exp.run(&cfg);
        assert_eq!(m.final_accuracy(), base.final_accuracy());
        assert_eq!(m.traffic(), base.traffic());
        assert_eq!(m.sim_time(), base.sim_time());
        assert_eq!(m.transport, "lockstep");
        assert!(!m.transport_stats.any());
        assert!(m.records.iter().all(|r| r.retransmits == 0 && r.late_uploads == 0));
    }

    #[test]
    fn flow_under_network_stress_degrades_but_completes() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::none().with_network_stress(0.5);
        cfg.fault.seed = 3;
        let stressed = exp.run(&cfg);
        assert_eq!(stressed.epochs(), 12, "burst loss must not stall the run");
        assert!(
            stressed.transport_stats.retransmits > 0,
            "50% burst-loss stress must force retransmits: {:?}",
            stressed.transport_stats
        );
        let mut clean_cfg = quick_cfg(Scheme::FedAvg, 12);
        clean_cfg.transport = TransportConfig::flow(clean_cfg.seed);
        let clean = exp.run(&clean_cfg);
        assert!(
            stressed.final_accuracy() >= clean.final_accuracy() - 0.15,
            "staleness-tolerant aggregation should keep stressed accuracy close: {} vs {}",
            stressed.final_accuracy(),
            clean.final_accuracy()
        );
    }

    #[test]
    fn flow_migration_schemes_complete_under_stress() {
        let exp = small_experiment(true);
        let mut cfg = quick_cfg(Scheme::fedmigr(3), 10);
        cfg.transport = TransportConfig::flow(cfg.seed);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.3, 5).with_network_stress(0.3);
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 10);
        assert!(m.transport_stats.flows > 0);
        // Migration flows under churn + stress must exercise the fallback
        // accounting without losing the permutation invariant (the run
        // completing is the invariant check — a broken permutation panics
        // in set_params bookkeeping or diverges).
        assert!(m.final_accuracy() > 0.15);
    }

    #[test]
    fn fedavg_survives_wan_outages() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 12);
        cfg.fault = fedmigr_net::FaultConfig::none();
        cfg.fault.c2s_outage_prob = 0.6;
        cfg.fault.seed = 2;
        let m = exp.run(&cfg);
        assert_eq!(m.epochs(), 12);
        assert!(m.fault.transfer_retries > 0, "60% WAN outage should force retries: {:?}", m.fault);
        assert!(m.fault.wasted_bytes > 0);
    }

    #[test]
    fn only_an_armed_watchdog_holds_a_snapshot() {
        let exp = small_experiment(false);
        let mut cfg = quick_cfg(Scheme::FedAvg, 4);
        let mut run = Run::dense(&exp, &cfg);
        let bytes = vec![1u8; 64];
        let ptr = bytes.as_ptr();
        let back = run.keep_snapshot(1, bytes);
        assert_eq!(back.as_ptr(), ptr, "handed straight back");
        assert!(run.last_good.is_none());

        cfg.watchdog = WatchdogConfig { enabled: true, ..WatchdogConfig::default() };
        let mut run = Run::dense(&exp, &cfg);
        let (first, second) = (vec![1u8; 64], vec![2u8; 32]);
        let (first_ptr, second_ptr) = (first.as_ptr(), second.as_ptr());
        assert!(run.keep_snapshot(1, first).is_empty(), "nothing displaced yet");
        let displaced = run.keep_snapshot(2, second);
        assert_eq!((displaced.as_ptr(), displaced.len()), (first_ptr, 64));
        let (epoch, kept) = run.last_good.as_ref().expect("an armed watchdog keeps it");
        assert_eq!((*epoch, kept.as_ptr()), (2, second_ptr));
    }

    /// Round 1 of `cfg` up to the end of its communication, with every
    /// client's parameters (as bits) before and after that phase.
    fn first_communication<'a>(
        exp: &'a Experiment,
        cfg: &'a RunConfig,
    ) -> (Run<'a>, Round, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let mut run = Run::dense(exp, cfg);
        let bits = |run: &mut Run| -> Vec<Vec<u32>> {
            let params = run.st.clients.iter_mut().map(FlClient::params);
            params.map(|p| p.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let mut r = run.sample(1).expect("half the clients are sampled");
        run.train(&mut r);
        run.decide(&mut r);
        let before = bits(&mut run);
        run.communicate(&mut r);
        let after = bits(&mut run);
        (run, r, before, after)
    }

    #[test]
    fn a_client_no_payload_reached_keeps_its_model_bit_for_bit() {
        // DP noise and Byzantine corruption belong to what a client sends:
        // neither may land on a model that sat the round out, or on one
        // whose incoming migration never arrived.
        let exp = experiment_of(6, true);
        for scheme in [Scheme::RandMigr, Scheme::FedSwap] {
            for attacked in [false, true] {
                let mut cfg = quick_cfg(scheme.clone(), 4);
                cfg.participation = 0.5;
                if attacked {
                    cfg.attack = AttackConfig::sign_flip(0.5, 3);
                } else {
                    cfg.dp = Some(DpConfig::with_epsilon(1.0));
                }
                let (run, r, before, after) = first_communication(&exp, &cfg);
                let what = format!("{} attacked {attacked}", scheme.name());
                // A migration reaches the clients that adopt a model; a swap
                // every client that uploaded, which gets a model back.
                let reached = |j: usize| match scheme {
                    Scheme::FedSwap => r.active[j],
                    _ => r.src_of[j] != j,
                };
                let untouched: Vec<usize> = (0..6).filter(|&j| !reached(j)).collect();
                assert!(untouched.len() >= 3, "{what}: three clients sat out");
                if attacked {
                    let byzantine = untouched.iter().any(|&j| run.ctx.attack.is_byzantine(j));
                    assert!(byzantine, "{what}: a Byzantine client sat out");
                }
                for j in untouched {
                    assert!(before[j] == after[j], "{what}: client {j} changed");
                }
            }
        }
    }

    #[test]
    fn dp_draws_only_for_the_payloads_sent() {
        let exp = experiment_of(6, false);
        let dp = DpConfig::with_epsilon(1.0);
        let mut cfg = quick_cfg(Scheme::FedAvg, 4);
        cfg.participation = 0.5;
        cfg.dp = Some(dp);
        let mut run = Run::dense(&exp, &cfg);
        let mut r = run.sample(1).expect("half the clients are sampled");
        run.train(&mut r);
        run.decide(&mut r);
        let senders = r.arrived.iter().filter(|&&a| a).count();
        assert_eq!(senders, 3);
        let mut expected = run.st.common.rng.clone();
        let n = run.st.clients[0].num_params();
        for _ in 0..senders {
            dp.apply(&mut vec![0.0; n], &mut expected);
        }
        run.communicate(&mut r);
        assert_eq!(run.st.common.rng.state(), expected.state());
    }

    /// FNV-1a over an artifact's bytes: pins them without checking the
    /// artifact in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn migration_wave_with_screening_writes_the_serial_loops_artifacts() {
        // The digests were first taken at the commit before migrations were
        // batched, when each delivered move was encoded and screened inside
        // the outcome loop, and re-taken when the egress moved: since then
        // only senders corrupt, and the receiver screens against its own
        // model rather than its corrupted copy. Sign-flippers make the
        // quarantine reject moves mid-wave (and its distance window depends
        // on the order of the accepted ones), the lossy codec makes every
        // sequence number and residual matter, and under the flow transport
        // with churn some moves only arrive through the fallback chain.
        let exp = experiment_of(10, true);
        let pinned = [
            (false, 59, 0xda502b5c029df17du64, 0x1f7ac3cbb3469d76u64),
            (true, 23, 0x580779ac30b0d7d8, 0x5921fe8688055108),
        ];
        for (flow, rejected, csv_digest, flight_digest) in pinned {
            let flight = std::env::temp_dir()
                .join(format!("fedmigr-wave-{}-{flow}.jsonl", std::process::id()));
            let mut cfg = quick_cfg(Scheme::fedmigr(3), 20);
            cfg.codec = fedmigr_compress::CodecConfig::topk_int8(0.25);
            cfg.attack = AttackConfig::sign_flip(0.2, 13);
            cfg.diag.flight_out = Some(flight.to_string_lossy().into_owned());
            if flow {
                cfg.transport = TransportConfig::flow(cfg.seed);
                cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.1, 5).with_network_stress(0.5);
            }
            let m = exp.run(&cfg);
            let recorded = std::fs::read(&flight).expect("the run wrote its flight file");
            let _ = std::fs::remove_file(&flight);
            assert_eq!(m.robust.rejected_migrations, rejected, "flow {flow}");
            assert_eq!(fnv1a(m.to_csv().as_bytes()), csv_digest, "flow {flow}: CSV");
            assert_eq!(fnv1a(&recorded), flight_digest, "flow {flow}: flight file");
        }
    }
}
