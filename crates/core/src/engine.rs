//! What the dense and fleet round loops share: the state both checkpoint,
//! the observers neither checkpoints, and the run shell around the rounds —
//! resume, snapshot cadence, kill switch, stop conditions, terminal reward
//! flush and `RunMetrics` assembly.

use std::path::Path;

use fedmigr_compress::CompressionStats;
use fedmigr_data::Dataset;
use fedmigr_diag::FlightRecorder;
use fedmigr_drl::{AgentConfig, DdpgAgent, Transition};
use fedmigr_net::{ResourceMeter, TransportStats};
use fedmigr_nn::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{self, RunStamp, Wire};
use crate::kernels::KernelPhases;
use crate::metrics::{EpochRecord, FaultStats, RecoveryStats, RobustStats, RunMetrics};
use crate::reward::{step_reward, terminal_reward};
use crate::runner::{PhasedClock, RunConfig};
use crate::scheme::{FedMigrConfig, Scheme};
use crate::timeline_capture::TimelineCapture;

/// The FedMigr DRL coupling: the agent, its reward shaping, and the
/// decisions still waiting for their reward. Dense runs decide destination
/// *clients* from per-client states; fleet runs decide destination *LANs*
/// from pooled states, so the agent's cost is independent of fleet size.
pub(crate) struct AgentCtx {
    pub agent: DdpgAgent,
    pub fc: FedMigrConfig,
    /// Epochs up to this one take pure-oracle decisions the actor imitates.
    pub warmup_epochs: usize,
    /// Decisions awaiting their reward: `(state, executed destination,
    /// deciding client or cohort position)`.
    pub pending: Vec<(Vec<f32>, usize, usize)>,
}

impl AgentCtx {
    fn new(fc: &FedMigrConfig, state_dim: usize, actions: usize, epochs: usize) -> Self {
        let mut ac = AgentConfig::new(state_dim, actions, fc.agent_seed);
        ac.rho = fc.rho;
        ac.noise_std = 0.15;
        ac.xi = fc.replay_xi;
        Self {
            agent: DdpgAgent::new(ac),
            fc: fc.clone(),
            warmup_epochs: (fc.oracle_warmup_frac * epochs as f64) as usize,
            pending: Vec::new(),
        }
    }
}

/// Run state both round loops read and checkpoint.
pub(crate) struct CommonState {
    /// Last completed epoch; a restored run continues at `epoch + 1`.
    pub epoch: usize,
    /// Server-held global model parameters.
    pub global: Vec<f32>,
    /// The run's shared RNG stream (sampling, migration randomness, DP).
    pub rng: StdRng,
    pub meter: ResourceMeter,
    pub clock: PhasedClock,
    /// `None` for non-DRL schemes.
    pub agent: Option<AgentCtx>,
    pub records: Vec<EpochRecord>,
    pub migrations_local: usize,
    pub migrations_global: usize,
    /// Previous round's mean training loss.
    pub prev_loss: Option<f32>,
    /// Previous round's (compute, bandwidth) budget usage fractions.
    pub last_epoch_usage: (f64, f64),
    pub last_step_reward: f64,
    pub recovery: RecoveryStats,
}

impl CommonState {
    /// Fresh state for `cfg`; a FedMigr scheme gets an agent over
    /// `state_dim`-dimensional states and `actions` destinations.
    pub fn new(cfg: &RunConfig, global: Vec<f32>, state_dim: usize, actions: usize) -> Self {
        let agent = match &cfg.scheme {
            Scheme::FedMigr(fc) => Some(AgentCtx::new(fc, state_dim, actions, cfg.epochs)),
            _ => None,
        };
        Self {
            epoch: 0,
            global,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x5851_F42D).wrapping_add(3)),
            meter: ResourceMeter::new(cfg.budget),
            clock: PhasedClock::new(),
            agent,
            records: Vec::with_capacity(cfg.epochs),
            migrations_local: 0,
            migrations_global: 0,
            prev_loss: None,
            last_epoch_usage: (0.0, 0.0),
            last_step_reward: -1.0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Relative loss change against the previous round (a DRL state
    /// feature); 0 on the first round.
    pub fn loss_trend(&self, mean_loss: f32) -> f64 {
        self.prev_loss.map(|p| ((mean_loss - p) / p.max(1e-6)) as f64).unwrap_or(0.0)
    }

    /// Settles the previous round's pending decisions with this round's
    /// step reward (Eq. 17); `states[who]` is each decision's successor.
    pub fn settle(&mut self, mean_loss: f32, states: &[Vec<f32>]) {
        let Some(ctx) = self.agent.as_mut() else { return };
        let (cu, bu) = if ctx.fc.resource_reward { self.last_epoch_usage } else { (0.0, 0.0) };
        let reward = step_reward(
            ctx.fc.upsilon,
            self.prev_loss.map(|p| (mean_loss - p) as f64).unwrap_or(0.0),
            self.prev_loss.unwrap_or(mean_loss) as f64,
            cu,
            bu,
        );
        self.last_step_reward = reward;
        for (state, action, who) in ctx.pending.drain(..) {
            ctx.agent.observe(Transition {
                state,
                action,
                reward: reward as f32,
                next_state: states[who].clone(),
                done: false,
            });
        }
    }

    /// Runs the epoch's agent learning update.
    pub fn learn(&mut self) {
        if let Some(ctx) = self.agent.as_mut() {
            ctx.agent.update();
        }
    }

    /// Records the fraction of each budget this round consumed, given the
    /// meter readings at round start.
    pub fn note_usage(&mut self, traffic_before: u64, compute_before: f64) {
        let budget = self.meter.budget();
        let frac = |used: f64, cap: f64| if cap.is_finite() { used / cap } else { 0.0 };
        self.last_epoch_usage = (
            frac(self.meter.compute_cost() - compute_before, budget.compute),
            frac((self.meter.traffic().total() - traffic_before) as f64, budget.bandwidth),
        );
    }

    /// The record of a round in which nothing trained.
    pub fn blank_record(&self, epoch: usize, dropped_clients: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss: self.prev_loss.unwrap_or(0.0),
            traffic: self.meter.traffic(),
            sim_time: self.clock.now(),
            dropped_clients,
            phase: self.clock.phase(),
            ..EpochRecord::default()
        }
    }

    /// Terminal transition flush (Eq. 18).
    fn flush_terminal(&mut self, completed: bool) {
        let Some(ctx) = self.agent.as_mut() else { return };
        let terminal = terminal_reward(self.last_step_reward, completed);
        for (state, action, _) in ctx.pending.drain(..) {
            let next_state = state.clone();
            ctx.agent.observe(Transition {
                state,
                action,
                reward: terminal as f32,
                next_state,
                done: true,
            });
        }
    }
}

/// Per-run instruments. Observation-only and never checkpointed: a resumed
/// run reopens them.
pub(crate) struct Observers {
    pub tcap: TimelineCapture,
    pub flight: Option<FlightRecorder>,
    /// Attributes kernel FLOP/byte/time deltas to the phase that just
    /// closed; cheap no-op when accounting is off.
    pub kphases: KernelPhases,
}

/// How one call to [`RoundLoop::round`] ended.
pub(crate) enum Outcome {
    /// The round ran; carries the accuracy if it evaluated.
    Done(Option<f64>),
    /// Nobody participated: a no-op round, exempt from the stop checks.
    Idle,
    /// The watchdog rewound the run to the snapshot after this epoch.
    RolledBack(usize),
}

/// Why the run stopped.
#[derive(Default)]
pub(crate) struct Exit {
    pub target_reached: bool,
    pub budget_exhausted: bool,
    /// A simulated crash: no terminal credit, no summaries — exactly the
    /// state a real crash would leave behind for `--resume` to pick up.
    pub killed: bool,
}

/// Run totals only one of the loops accumulates.
#[derive(Default)]
pub(crate) struct Totals {
    pub link_migrations: Vec<u32>,
    pub fault: FaultStats,
    pub robust: RobustStats,
    pub compression: CompressionStats,
    pub transport_stats: TransportStats,
}

/// A round loop the shell can drive.
pub(crate) trait RoundLoop {
    /// The loop's live state, which is also its checkpoint payload.
    type State: Wire;
    fn stamp(&self) -> &RunStamp;
    fn state(&mut self) -> &mut Self::State;
    fn common(&mut self) -> &mut CommonState;
    fn observers(&mut self) -> &mut Observers;
    /// Called once before the first round, after any resume.
    fn begin(&mut self, _start_epoch: usize) {}
    fn round(&mut self, epoch: usize) -> Outcome;
    /// Offers the loop the snapshot taken after `epoch` (the dense
    /// watchdog's rollback target) and returns the buffer the next snapshot
    /// is encoded into: the one a kept snapshot displaced, or `bytes`
    /// itself when the loop keeps nothing.
    fn keep_snapshot(&mut self, _epoch: usize, bytes: Vec<u8>) -> Vec<u8> {
        bytes
    }
    /// Closes loop-specific outputs and reports loop-specific totals.
    fn finish(&mut self, exit: &Exit) -> Totals;
}

/// Builds a round loop with `build` and runs it from its first (or resumed)
/// round to the end of the run, setup included, under the run's instrument
/// switches (`cfg.diag`) and on a tally of its own, so the run reads back
/// only itself; the calling thread gets its switches back afterwards, and
/// the run's tally added into its own.
///
/// # Panics
/// Panics when `cfg.resume` names a checkpoint that cannot be read or does
/// not belong to this run.
pub(crate) fn run<L: RoundLoop>(cfg: &RunConfig, build: impl FnOnce() -> L) -> RunMetrics {
    use fedmigr_telemetry::ledger;
    ledger::with_switches(cfg.diag.switches(), || ledger::isolated(|| rounds(cfg, build())))
}

fn rounds(cfg: &RunConfig, mut lp: impl RoundLoop) -> RunMetrics {
    let stamp = lp.stamp().clone();
    // What the next snapshot is encoded into: a recycled buffer, never a
    // fresh one per round.
    let mut spare = Vec::new();
    let mut start_epoch = 1;
    if let Some(path) = cfg.resume.as_deref() {
        let loaded = std::fs::read(path).and_then(|bytes| {
            checkpoint::restore(&bytes, &stamp, lp.state())?;
            Ok(bytes)
        });
        let bytes = loaded.unwrap_or_else(|e| panic!("cannot resume from {path}: {e}"));
        let ck_epoch = lp.common().epoch;
        lp.common().recovery.checkpoints_loaded += 1;
        spare = lp.keep_snapshot(ck_epoch, bytes);
        start_epoch = ck_epoch + 1;
        fedmigr_telemetry::info!(
            "core::runner",
            "resumed from {path}: epoch {ck_epoch} restored, continuing at {start_epoch}"
        );
    } else if cfg.watchdog.enabled {
        // The watchdog always has somewhere to roll back to: a pristine
        // epoch-0 snapshot covers divergence in the very first round.
        checkpoint::encode_into(&mut spare, &stamp, lp.state());
        spare = lp.keep_snapshot(0, spare);
    }
    lp.begin(start_epoch);

    let mut exit = Exit::default();
    let mut epoch = start_epoch;
    while epoch <= cfg.epochs {
        match lp.round(epoch) {
            Outcome::RolledBack(to) => {
                epoch = to + 1;
                continue;
            }
            Outcome::Idle => {}
            Outcome::Done(accuracy) => {
                if matches!((cfg.target_accuracy, accuracy), (Some(t), Some(a)) if a >= t) {
                    exit.target_reached = true;
                    break;
                }
                if lp.common().meter.exhausted() {
                    exit.budget_exhausted = true;
                    break;
                }
            }
        }
        snapshot(cfg, &stamp, &mut lp, epoch, &mut spare);
        if cfg.kill_at == Some(epoch) {
            exit.killed = true;
            fedmigr_telemetry::warn!(
                "core::runner",
                "kill switch: aborting after epoch {epoch} (simulated crash)"
            );
            break;
        }
        epoch += 1;
    }

    if !exit.killed {
        lp.common().flush_terminal(!exit.budget_exhausted);
    }
    let totals = lp.finish(&exit);
    let common = lp.common();
    let (records, recovery) = (std::mem::take(&mut common.records), common.recovery);
    let (migrations_local, migrations_global) = (common.migrations_local, common.migrations_global);
    if !exit.killed {
        // A killed run leaves the timeline finish-less, like the flight
        // recording.
        lp.observers().tcap.finish(records.len());
    }
    if recovery.any() {
        let gauge = |name: &str, v: f64| {
            fedmigr_telemetry::metrics::set(name, &[], v);
        };
        gauge("fedmigr_recovery_checkpoints_written", recovery.checkpoints_written as f64);
        gauge("fedmigr_recovery_checkpoint_bytes", recovery.checkpoint_bytes as f64);
        gauge("fedmigr_recovery_checkpoints_loaded", recovery.checkpoints_loaded as f64);
        gauge("fedmigr_recovery_rollbacks", recovery.rollbacks as f64);
        gauge("fedmigr_recovery_rounds_replayed", recovery.rounds_replayed as f64);
    }
    RunMetrics {
        scheme: cfg.scheme.name(),
        records,
        migrations_local,
        migrations_global,
        link_migrations: totals.link_migrations,
        budget_exhausted: exit.budget_exhausted,
        target_reached: exit.target_reached,
        fault: totals.fault,
        robust: totals.robust,
        codec: cfg.codec.name(),
        compression: totals.compression,
        transport: cfg.transport.name().into(),
        transport_stats: totals.transport_stats,
        recovery,
    }
}

/// Snapshot cadence: every `checkpoint_every` completed epochs (every epoch
/// while the watchdog is armed), encoded into `buf` and persisted when a
/// directory is configured. Capturing consumes no randomness and never
/// touches the virtual clock.
fn snapshot(
    cfg: &RunConfig,
    stamp: &RunStamp,
    lp: &mut impl RoundLoop,
    epoch: usize,
    buf: &mut Vec<u8>,
) {
    let every = cfg.checkpoint_every.unwrap_or(1);
    let armed = cfg.checkpoint_every.is_some() || cfg.watchdog.enabled;
    if !armed || !epoch.is_multiple_of(every) {
        return;
    }
    lp.common().epoch = epoch;
    checkpoint::encode_into(buf, stamp, lp.state());
    let recovery = &mut lp.common().recovery;
    recovery.checkpoints_written += 1;
    recovery.checkpoint_bytes += buf.len() as u64;
    if let Some(dir) = cfg.checkpoint_dir.as_deref() {
        if let Err(e) = checkpoint::persist(Path::new(dir), buf) {
            fedmigr_telemetry::error!(
                "core::runner",
                "checkpoint write failed at epoch {epoch} in {dir}: {e}"
            );
        }
    }
    *buf = lp.keep_snapshot(epoch, std::mem::take(buf));
}

/// Test accuracy of `params` loaded into `scratch`, evaluated in batches
/// over the server-held test split.
pub(crate) fn evaluate(test: &Dataset, scratch: &mut Model, params: &[f32]) -> f64 {
    scratch.set_params(params);
    let indices: Vec<usize> = (0..test.len()).collect();
    let mut correct_weighted = 0.0f64;
    for chunk in indices.chunks(64) {
        let (x, labels) = test.batch(chunk);
        let (_, acc) = scratch.evaluate(&x, &labels);
        correct_weighted += acc * chunk.len() as f64;
    }
    correct_weighted / indices.len() as f64
}
