//! Versioned whole-run checkpoints: everything a round depends on, in one
//! magic-tagged, CRC-checked binary blob.
//!
//! The file is a [`fedmigr_telemetry::wire`] container carrying a *run*
//! under its own magic:
//!
//! ```text
//! [8]  magic  b"FEDMIGRR"
//! [4]  u32    format version (RUN_STATE_VERSION)
//! [..] stamp  identifying run configuration (scheme/seed/epochs/clients/
//!             num_params/codec/transport/agg_interval/mode) — validated
//!             against the resuming run before any live state is touched
//! [..] state  the round state (`RoundState`): in a dense run every
//!             resident client and its tables, in a fleet run the pool's
//!             dormant stubs
//! [4]  u32    CRC-32 (IEEE) over everything above
//! ```
//!
//! The payload *is* the live run state. Every checkpointed type implements
//! [`Wire`] in the module that declares it, over its own private fields —
//! the compressor in `fedmigr-compress`, the agent and its replay buffer in
//! `fedmigr-drl`, the meter and transport accumulator in `fedmigr-net`, the
//! stub pool in `fedmigr-fleet`, a model in `fedmigr-nn` — and this module
//! lists the fields of core's own types. Capture walks the live state into
//! a buffer ([`encode_into`]); resume and rollback walk the same fields
//! back in place ([`restore`]).
//!
//! Determinism contract: restoring a state and replaying rounds `epoch+1..`
//! must be *byte-identical* to never having stopped. That is only possible
//! because every source of run randomness is explicit state (the shared
//! `StdRng`, each client's private RNG, the DDPG agent's RNG and OU
//! process, the compressor's rounding counter) and every hash-based process
//! (faults, attacks) is a pure function of `(seed, epoch)`. The chaos
//! harness in `tests/chaos_resume.rs` enforces the contract.

use std::io;
use std::path::Path;

pub(crate) use fedmigr_telemetry::wire::Wire;
use fedmigr_telemetry::wire::{bad, Codec, Container};
use fedmigr_telemetry::wire_fields;

use crate::client::FlClient;
use crate::engine::{AgentCtx, CommonState};
use crate::metrics::{EpochRecord, FaultStats, PhaseBreakdown, RecoveryStats, RobustStats};
use crate::migration::Quarantine;
use crate::runner::{LateUpload, PhasedClock, RoundState, RunConfig, World};

/// Magic tag opening every run checkpoint.
pub const RUN_STATE_MAGIC: &[u8; 8] = b"FEDMIGRR";

/// Current run-checkpoint format version. Version 2 added the stamp's
/// `mode` field and the fleet payload; version 3 leads both payloads with
/// the fields a dense and a fleet run share.
pub const RUN_STATE_VERSION: u32 = 3;

const RUN_FILE: Container =
    Container { magic: RUN_STATE_MAGIC, version: RUN_STATE_VERSION, what: "run checkpoint" };

/// Identifying configuration a checkpoint is only valid for. Stamped into
/// every checkpoint and validated field by field on load: resuming a run
/// under a different scheme, seed, architecture, codec or transport is an
/// error, not a silent divergence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStamp {
    /// Scheme name.
    pub scheme: String,
    /// Run seed.
    pub seed: u64,
    /// Configured epoch budget.
    pub epochs: u64,
    /// Number of clients `K`.
    pub clients: u64,
    /// Scalar parameter count of the model architecture.
    pub num_params: u64,
    /// Wire-codec name.
    pub codec: String,
    /// Transport name.
    pub transport: String,
    /// Aggregation interval.
    pub agg_interval: u64,
    /// Runner mode: `"dense"` (every client materialized) or `"fleet"`
    /// (stub pool). Checked *before* the payload is decoded, so loading a
    /// fleet snapshot into a dense run (or vice versa) fails with a clear
    /// mismatch error instead of garbled state.
    pub mode: String,
}

impl RunStamp {
    /// The stamp of a `mode` run of `cfg` over `clients` clients.
    pub(crate) fn of(cfg: &RunConfig, clients: usize, num_params: usize, mode: &str) -> Self {
        Self {
            scheme: cfg.scheme.name(),
            seed: cfg.seed,
            epochs: cfg.epochs as u64,
            clients: clients as u64,
            num_params: num_params as u64,
            codec: cfg.codec.name(),
            transport: cfg.transport.name().into(),
            agg_interval: cfg.agg_interval as u64,
            mode: mode.into(),
        }
    }
}

/// Encodes `state` under `stamp` into the checkpoint wire format, replacing
/// what `buf` held and reusing its allocation.
pub(crate) fn encode_into(buf: &mut Vec<u8>, stamp: &RunStamp, state: &mut impl Wire) {
    RUN_FILE.seal_into(buf, |c| {
        stamp.clone().wire(c)?;
        state.wire(c)
    });
}

/// Restores `state` in place from a checkpoint. Magic, version, CRC and
/// every stamp field are validated against `expect` before any field of
/// `state` is overwritten; any corruption or mismatch yields
/// [`io::ErrorKind::InvalidData`] (after which `state` must not be used).
pub(crate) fn restore(bytes: &[u8], expect: &RunStamp, state: &mut impl Wire) -> io::Result<()> {
    RUN_FILE.open(bytes, |c| {
        let mut found = RunStamp::default();
        found.wire(c)?;
        check_stamp(&found, expect)?;
        state.wire(c)
    })
}

/// The rest of a payload, left unread: what [`RunConfig::check_resume`]
/// hands [`restore`] in place of a run's state.
struct Unread;

impl Wire for Unread {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        if let Codec::Read { b, pos } = c {
            *pos = b.len();
        }
        Ok(())
    }
}

impl RunConfig {
    /// Checks the checkpoint [`RunConfig::resume`] names, if any, as a
    /// resume would — it must read and pass [`restore`]'s frame and stamp
    /// rules for this run over `clients` clients of a `num_params`-parameter
    /// model — before anything is built. The error reads `cannot resume
    /// from <path>: <reason>`.
    pub fn check_resume(&self, clients: usize, num_params: usize) -> Result<(), String> {
        let Some(path) = self.resume.as_deref() else { return Ok(()) };
        let mode = if self.fleet.is_some() { "fleet" } else { "dense" };
        let stamp = RunStamp::of(self, clients, num_params, mode);
        std::fs::read(path)
            .and_then(|bytes| restore(&bytes, &stamp, &mut Unread))
            .map_err(|e| format!("cannot resume from {path}: {e}"))
    }
}

/// Writes an encoded checkpoint into `dir` as the rolling `latest.fmrs`,
/// atomically (sibling temp file, then rename): a crash mid-write never
/// leaves a torn checkpoint where a good one stood, and the directory never
/// holds more than the one snapshot a resume reads.
pub(crate) fn persist(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let latest = dir.join("latest.fmrs");
    let tmp = latest.with_extension("tmp");
    std::fs::create_dir_all(dir)?;
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, latest)
}

fn check_stamp(found: &RunStamp, expect: &RunStamp) -> io::Result<()> {
    macro_rules! field {
        ($name:ident) => {
            if found.$name != expect.$name {
                return Err(bad(&format!(
                    "run checkpoint {} mismatch: checkpoint has {:?}, run configured {:?}",
                    stringify!($name),
                    found.$name,
                    expect.$name
                )));
            }
        };
    }
    // Mode first: a fleet snapshot offered to a dense run (or vice versa)
    // should always fail with the mode message, whatever else differs.
    field!(mode);
    field!(scheme);
    field!(seed);
    field!(epochs);
    field!(clients);
    field!(num_params);
    field!(codec);
    field!(transport);
    field!(agg_interval);
    Ok(())
}

// ---------------------------------------------------------------------------
// Field lists: one per checkpointed type of this crate.

wire_fields!(RunStamp:
    scheme, seed, epochs, clients, num_params, codec, transport, agg_interval, mode
);

impl Wire for CommonState {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.epoch.wire(c)?;
        self.global.wire(c)?;
        self.rng.wire(c)?;
        self.meter.wire(c)?;
        self.clock.wire(c)?;
        c.in_place_opt(&mut self.agent, "scheme mismatch between checkpoint and run")?;
        self.records.wire(c)?;
        self.migrations_local.wire(c)?;
        self.migrations_global.wire(c)?;
        self.prev_loss.wire(c)?;
        self.last_epoch_usage.wire(c)?;
        self.last_step_reward.wire(c)?;
        self.recovery.wire(c)
    }
}

impl Wire for RoundState<'_> {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let k = self.clients.len();
        self.common.wire(c)?;
        if let World::Fleet(fleet) = &mut self.world {
            // A fleet checkpoint lands between blocks, when nobody is
            // resident: the pool's dormant stubs are every client's state.
            debug_assert!(self.clients.is_empty(), "fleet checkpoints land between blocks");
            return fleet.pool.wire(c);
        }
        c.in_place(&mut self.clients, "checkpoint client count")?;
        self.fault_stats.wire(c)?;
        self.flaky.wire(c)?;
        self.taccum.wire(c)?;
        self.late_buf.wire(c)?;
        self.agg_seq.wire(c)?;
        c.in_place_opt(
            &mut self.quarantine,
            "attack configuration mismatch between checkpoint and run",
        )?;
        self.robust_total.wire(c)?;
        self.mix.wire(c)?;
        self.train_mix.wire(c)?;
        self.compressor.wire(c)?;
        self.link_migrations.wire(c)?;
        self.excluded.wire(c)?;
        let per_client = [self.flaky.len(), self.mix.len(), self.train_mix.len()];
        if per_client.iter().any(|&n| n != k)
            || self.excluded.len() != k
            || self.link_migrations.len() != k * k
        {
            return Err(bad("checkpoint client count"));
        }
        Ok(())
    }
}

impl Wire for FlClient {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let num_samples = self.num_samples();
        self.model.wire(c)?;
        self.rng.wire(c)?;
        self.indices.wire(c)?;
        self.migrations_received.wire(c)?;
        if self.indices.len() != num_samples {
            return Err(bad("client partition size mismatch"));
        }
        Ok(())
    }
}

wire_fields!(LateUpload: client, params, seq);

impl Wire for Quarantine {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let k = self.suspicion.len();
        self.norms.wire(c)?;
        self.suspicion.wire(c)?;
        self.rejected.wire(c)?;
        if self.suspicion.len() != k {
            return Err(bad("quarantine client mismatch"));
        }
        Ok(())
    }
}

wire_fields!(AgentCtx: agent, pending);

impl Wire for PhasedClock {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let (mut now, mut phase) = (self.now(), self.phase());
        now.wire(c)?;
        phase.wire(c)?;
        if !(now >= 0.0 && now.is_finite()) {
            return Err(bad("invalid clock time"));
        }
        *self = PhasedClock::at(now, phase);
        Ok(())
    }
}

wire_fields!(PhaseBreakdown: train_s, c2s_s, migration_s, backoff_s);
wire_fields!(FaultStats:
    client_drops, stale_client_epochs, transfer_retries, rerouted_migrations,
    cancelled_migrations, wasted_bytes, client_panics
);
wire_fields!(RobustStats:
    rejected_migrations, trimmed_clients, clipped_norms, nan_uploads, nan_batches
);
wire_fields!(RecoveryStats:
    checkpoints_written, checkpoint_bytes, checkpoints_loaded, rollbacks, rounds_replayed
);
wire_fields!(EpochRecord:
    epoch, train_loss, test_accuracy, traffic, sim_time, dropped_clients, stale_clients,
    rejected_migrations, bytes_saved, phase, retransmits, late_uploads
);

#[cfg(test)]
mod tests {
    use fedmigr_compress::{CodecConfig, CompressionStats, Compressor};
    use fedmigr_data::{partition_iid, SyntheticConfig, SyntheticDataset};
    use fedmigr_drl::{AgentConfig, DdpgAgent, Transition};
    use fedmigr_fleet::DormantState;
    use fedmigr_net::{
        AttackConfig, ClientCompute, DeviceTier, FlowOutcome, PhaseSim, ResourceMeter, Topology,
        TopologyConfig, TrafficBreakdown, TransportStats,
    };
    use fedmigr_nn::zoo;
    use fedmigr_telemetry::wire::{decode as unraw, encode as raw};
    use rand::rngs::StdRng;

    use super::*;
    use crate::{Experiment, FleetExperiment, FleetOptions, RunConfig, Scheme};

    /// The codec law every `Wire` type must obey: decoding what `x` encodes
    /// into `blank` makes `blank` encode to the same bytes. Returns them.
    fn assert_round_trips<T: Wire>(x: &mut T, blank: &mut T) -> Vec<u8> {
        let bytes = raw(x);
        unraw(&bytes, blank).expect("own encoding decodes");
        assert_eq!(raw(blank), bytes, "encode(decode(encode(x))) must be byte-equal");
        bytes
    }

    /// A checkpoint encoded into a fresh buffer.
    fn encode(stamp: &RunStamp, state: &mut impl Wire) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_into(&mut buf, stamp, state);
        buf
    }

    /// [`assert_round_trips`] for plain values, which can also be compared.
    fn assert_value_round_trips<T: Wire + Default + PartialEq + std::fmt::Debug>(mut x: T) {
        let mut back = T::default();
        assert_round_trips(&mut x, &mut back);
        assert_eq!(back, x, "decode(encode(x)) must equal x");
    }

    fn phase() -> PhaseBreakdown {
        PhaseBreakdown { train_s: 6.0, c2s_s: 4.0, migration_s: 2.0, backoff_s: 0.5 }
    }

    /// Moves every field of a meter off zero.
    fn charge(meter: &mut ResourceMeter) {
        meter.record_c2s(100);
        meter.record_c2c(50, true);
        meter.record_c2c(25, false);
        meter.record_overhead(8);
        meter.record_transfer_seconds(1.5);
        meter.record_compute(240.0);
    }

    fn record() -> EpochRecord {
        EpochRecord {
            epoch: 6,
            train_loss: 1.25,
            test_accuracy: Some(0.5),
            traffic: TrafficBreakdown { c2s: 100, c2c_local: 50, c2c_global: 25 },
            sim_time: 12.5,
            dropped_clients: 1,
            stale_clients: 0,
            rejected_migrations: 2,
            bytes_saved: 0,
            phase: phase(),
            retransmits: 3,
            late_uploads: 1,
        }
    }

    fn transition() -> Transition {
        Transition {
            state: vec![1.0, 0.0],
            action: 1,
            reward: -0.5,
            next_state: vec![0.0, 1.0],
            done: false,
        }
    }

    #[test]
    fn every_value_type_round_trips() {
        // The primitives and collections are exercised beside the codec
        // (`fedmigr_telemetry::wire`); here, every plain value a run state
        // is made of.
        assert_value_round_trips(stamp());
        assert_value_round_trips(phase());
        assert_value_round_trips(FaultStats {
            client_drops: 2,
            client_panics: 1,
            ..Default::default()
        });
        assert_value_round_trips(RobustStats {
            nan_uploads: 4,
            nan_batches: 9,
            ..Default::default()
        });
        assert_value_round_trips(RecoveryStats {
            checkpoints_written: 2,
            checkpoint_bytes: 4096,
            checkpoints_loaded: 1,
            rollbacks: 3,
            rounds_replayed: 5,
        });
        assert_value_round_trips(TrafficBreakdown { c2s: 100, c2c_local: 50, c2c_global: 25 });
        assert_value_round_trips(TransportStats {
            flows: 12,
            retransmits: 3,
            ..Default::default()
        });
        assert_value_round_trips(CompressionStats {
            encodes: 19,
            coords: 57,
            ..Default::default()
        });
        assert_value_round_trips(record());
        assert_value_round_trips(transition());
        assert_value_round_trips(vec![
            DormantState { rng: Some([1, 2, 3, 4]), migrations_received: 2, participations: 3 },
            DormantState::default(),
        ]);
    }

    #[test]
    fn malformed_values_are_invalid_data() {
        // Bad bools, strings, lengths and RNG states are refused beside the
        // codec; the clock is the invariant-carrying value of this crate.
        for now in [-1.0f64, f64::NAN, f64::INFINITY] {
            let err = unraw(&raw(&mut (now, phase())), &mut PhasedClock::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "clock at {now}");
        }
    }

    // --- Live states -------------------------------------------------------

    fn experiment() -> Experiment {
        experiment_of(2)
    }

    fn experiment_of(k: usize) -> Experiment {
        let data = SyntheticDataset::generate(&SyntheticConfig {
            num_classes: 2,
            train_per_class: 8,
            test_per_class: 2,
            channels: 1,
            hw: 4,
            noise_std: 0.6,
            class_sep: 1.0,
            atom_bank: 0,
            atoms_per_class: 0,
            private_frac: 0.0,
            seed: 11,
        });
        let parts = partition_iid(&data.train, k, 5);
        Experiment::new(
            data.train,
            data.test,
            parts,
            Topology::new(&TopologyConfig::default_edge(vec![1, k - 1], 5)),
            ClientCompute::homogeneous(k, DeviceTier::Nx),
            zoo::mlp(16, &[3], 2, 5),
        )
    }

    /// FedMigr under an adversary with an error-feedback codec: every
    /// optional subsystem (agent, quarantine, residual lanes) is live.
    fn full_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(Scheme::fedmigr(7), 40);
        cfg.attack = AttackConfig::sign_flip(0.5, 9);
        cfg.codec = CodecConfig::parse("int8").unwrap();
        cfg
    }

    fn stamp() -> RunStamp {
        RunStamp {
            scheme: "FedMigr".into(),
            seed: 7,
            epochs: 40,
            clients: 2,
            num_params: 59,
            codec: "int8+ef".into(),
            transport: "lockstep".into(),
            agg_interval: 10,
            mode: "dense".into(),
        }
    }

    /// A live dense state with every field moved off its initial value.
    fn sample_state<'a>(exp: &'a Experiment, cfg: &'a RunConfig) -> RoundState<'a> {
        let mut s = RoundState::fresh(exp, cfg);
        s.common.epoch = 6;
        s.common.global.iter_mut().enumerate().for_each(|(i, g)| *g = i as f32 * 0.5 - 1.25);
        s.common.rng = StdRng::from_state([9, 10, 11, 12]);
        charge(&mut s.common.meter);
        s.common.clock = PhasedClock::at(12.5, phase());
        if let Some(ctx) = s.common.agent.as_mut() {
            let state: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
            ctx.agent.observe(Transition {
                state: state.clone(),
                next_state: state,
                ..transition()
            });
            ctx.pending = vec![(vec![1.0, 2.0], 0, 1)];
        }
        s.common.records = vec![record()];
        s.common.migrations_local = 2;
        s.common.migrations_global = 1;
        s.common.prev_loss = Some(1.25);
        s.common.last_epoch_usage = (0.1, 0.2);
        s.common.last_step_reward = -0.75;
        s.common.recovery = RecoveryStats { checkpoints_written: 2, ..Default::default() };
        s.clients[0].rng = StdRng::from_state([1, 2, 3, 4]);
        s.clients[0].indices.reverse();
        s.clients[1].set_params(&vec![0.5; 59], true);
        s.fault_stats = FaultStats { client_drops: 2, client_panics: 1, ..Default::default() };
        s.flaky = vec![0.1, 0.0];
        let flow = |queue_delay| FlowOutcome { retransmits: 3, queue_delay, ..Default::default() };
        s.taccum.absorb(&PhaseSim {
            outcomes: vec![flow(0.1), flow(0.4)],
            makespan: 2.0,
            mean_link_utilization: 0.8,
            trace: None,
        });
        s.late_buf = vec![LateUpload { client: 1, params: vec![1.0; 59], seq: 2 }];
        s.agg_seq = 3;
        if let Some(q) = s.quarantine.as_mut() {
            q.norms = vec![1.0, 1.5].into();
            q.suspicion = vec![0.0, 0.6];
            q.rejected = 2;
        }
        s.robust_total = RobustStats { nan_uploads: 4, ..Default::default() };
        s.mix = vec![vec![0.25, 0.75], vec![0.5, 0.5]];
        s.train_mix = vec![vec![0.3, 0.7], vec![0.6, 0.4]];
        s.compressor.transmit(0, &vec![0.123; 59]);
        s.link_migrations = vec![0, 1, 2, 0];
        s.excluded = vec![false, true];
        s
    }

    #[test]
    fn live_dense_state_round_trips_into_a_fresh_state() {
        let exp = experiment();
        for cfg in [full_cfg(), RunConfig::new(Scheme::FedAvg, 40)] {
            let mut state = sample_state(&exp, &cfg);
            let mut fresh = RoundState::fresh(&exp, &cfg);
            let bytes = assert_round_trips(&mut state, &mut fresh);
            assert_ne!(raw(&mut RoundState::fresh(&exp, &cfg)), bytes, "fixture moved the state");
            // The restored state is live, not just equal on the wire.
            assert_eq!(fresh.common.epoch, 6);
            assert_eq!(fresh.clients[1].params(), vec![0.5; 59]);
            assert_eq!(fresh.clients[1].migrations_received, 1);
            assert_eq!(fresh.excluded, [false, true]);
        }
    }

    #[test]
    fn live_subsystems_round_trip() {
        let (exp, cfg) = (experiment(), full_cfg());
        let mut s = sample_state(&exp, &cfg);
        let mut f = RoundState::fresh(&exp, &cfg);
        assert_round_trips(&mut s.common, &mut f.common);
        assert_round_trips(&mut s.common.rng, &mut StdRng::from_state([1; 4]));
        assert_round_trips(&mut s.common.clock, &mut PhasedClock::new());
        assert_round_trips(&mut s.common.meter, &mut f.common.meter);
        assert_round_trips(s.common.agent.as_mut().unwrap(), f.common.agent.as_mut().unwrap());
        assert_round_trips(&mut s.clients[0], &mut f.clients[0]);
        assert_round_trips(&mut s.taccum, &mut f.taccum);
        assert_round_trips(&mut s.late_buf, &mut f.late_buf);
        assert_round_trips(s.quarantine.as_mut().unwrap(), f.quarantine.as_mut().unwrap());
        assert_round_trips(&mut s.compressor, &mut f.compressor);
    }

    /// A federation small enough for tests but with a model that trains.
    fn trainable_experiment() -> Experiment {
        let data = SyntheticDataset::generate(&SyntheticConfig::c10_like(8, 3));
        let parts = partition_iid(&data.train, 4, 3);
        Experiment::new(
            data.train,
            data.test,
            parts,
            Topology::new(&TopologyConfig::default_edge(vec![2, 2], 3)),
            ClientCompute::testbed_mix(4),
            zoo::c10_cnn(3, 8, zoo::NetScale::Small, 3),
        )
    }

    #[test]
    fn restored_client_resumes_training_bit_for_bit() {
        let exp = trainable_experiment();
        let cfg = RunConfig::new(Scheme::FedAvg, 4);
        let mut a = RoundState::fresh(&exp, &cfg).clients.remove(0);
        a.train_epoch(16, Some(2), None);
        let mut probe = RoundState::fresh(&exp, &cfg).clients.remove(0);
        assert_round_trips(&mut a, &mut probe);
        // A fresh client restored from the snapshot must continue the exact
        // same trajectory (batch order included) as the original.
        a.train_epoch(16, Some(2), None);
        probe.train_epoch(16, Some(2), None);
        assert_eq!(a.params(), probe.params());
    }

    #[test]
    fn mismatched_live_shapes_are_invalid_data_not_panics() {
        let (exp, cfg) = (experiment(), full_cfg());
        let bytes = encode(&stamp(), &mut sample_state(&exp, &cfg));
        let into = |cfg: &RunConfig| {
            let err = restore(&bytes, &stamp(), &mut RoundState::fresh(&exp, cfg)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        // Resuming under a different --attack: the stamp cannot see it, the
        // quarantine's presence can.
        let benign = RunConfig { attack: AttackConfig::none(), ..full_cfg() };
        assert!(into(&benign).contains("attack configuration mismatch"));
        let no_agent = RunConfig { scheme: Scheme::RandMigr, ..full_cfg() };
        assert!(into(&no_agent).contains("scheme mismatch"));

        // A client whose model or partition disagrees with the snapshot.
        let mut donor = RoundState::fresh(&exp, &cfg);
        let mut wrong_model = raw(&mut donor.clients[0]);
        wrong_model[0] -= 1; // one parameter fewer announced
        wrong_model.drain(8..12);
        let err = unraw(&wrong_model, &mut donor.clients[0]).unwrap_err();
        assert!(err.to_string().contains("model shape mismatch"), "{err}");
        let mut small = Quarantine::new(crate::QuarantineConfig::default(), 1);
        let err = unraw(&raw(donor.quarantine.as_mut().unwrap()), &mut small).unwrap_err();
        assert!(err.to_string().contains("quarantine client mismatch"), "{err}");
        // The leaf crates refuse their own mismatches: a compressor with
        // other residual lanes, an agent whose replay buffer is too small.
        let refused = |err: io::Error, needle: &str| {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{needle}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        let mut three_lanes = Compressor::new(&cfg.codec, 3, cfg.seed);
        refused(
            unraw(&raw(&mut donor.compressor), &mut three_lanes).unwrap_err(),
            "lanes mismatch",
        );
        let agent = &mut sample_state(&exp, &cfg).common.agent.unwrap().agent;
        let ac = agent.config().clone();
        let state = vec![0.5; ac.state_dim];
        agent.observe(Transition { state: state.clone(), next_state: state, ..transition() });
        let snapshot = raw(agent);
        let mut tiny = DdpgAgent::new(AgentConfig { replay_capacity: 1, ..ac });
        refused(unraw(&snapshot, &mut tiny).unwrap_err(), "larger than capacity");
        // A population of a different size: the agent's networks notice
        // first, the client list when there is no agent.
        let three = experiment_of(3);
        let err = unraw(&raw(&mut donor), &mut RoundState::fresh(&three, &cfg)).unwrap_err();
        refused(err, "model shape mismatch");
        let cfg = RunConfig::new(Scheme::FedAvg, 40);
        let bytes = raw(&mut RoundState::fresh(&exp, &cfg));
        let err = unraw(&bytes, &mut RoundState::fresh(&three, &cfg)).unwrap_err();
        assert!(err.to_string().contains("checkpoint client count"), "{err}");
    }

    #[test]
    fn every_stamp_field_is_validated() {
        let (exp, cfg) = (experiment(), full_cfg());
        let bytes = encode(&stamp(), &mut sample_state(&exp, &cfg));
        type Mutation = Box<dyn Fn(&mut RunStamp)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("scheme", Box::new(|st| st.scheme = "FedAvg".into())),
            ("seed", Box::new(|st| st.seed = 8)),
            ("epochs", Box::new(|st| st.epochs = 41)),
            ("clients", Box::new(|st| st.clients = 3)),
            ("num_params", Box::new(|st| st.num_params = 4)),
            ("codec", Box::new(|st| st.codec = "identity".into())),
            ("transport", Box::new(|st| st.transport = "flow".into())),
            ("agg_interval", Box::new(|st| st.agg_interval = 5)),
            ("mode", Box::new(|st| st.mode = "fleet".into())),
        ];
        let mut target = RoundState::fresh(&exp, &cfg);
        let pristine = raw(&mut target);
        for (name, mutate) in mutations {
            let mut wrong = stamp();
            mutate(&mut wrong);
            let err = restore(&bytes, &wrong, &mut target).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
        assert_eq!(raw(&mut target), pristine, "a rejected stamp must leave live state untouched");
    }

    #[test]
    fn bit_flips_are_rejected_before_touching_live_state() {
        let (exp, cfg) = (experiment(), full_cfg());
        let bytes = encode(&stamp(), &mut sample_state(&exp, &cfg));
        let mut target = RoundState::fresh(&exp, &cfg);
        let pristine = raw(&mut target);
        for pos in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let err = restore(&corrupt, &stamp(), &mut target).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {pos}");
        }
        assert_eq!(raw(&mut target), pristine);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let exp = experiment();
        // Container level: every proper prefix fails (length, magic or CRC).
        let cfg = RunConfig::new(Scheme::FedAvg, 40);
        let lean_stamp = RunStamp { scheme: "FedAvg".into(), codec: "identity".into(), ..stamp() };
        let bytes = encode(&lean_stamp, &mut sample_state(&exp, &cfg));
        let mut target = RoundState::fresh(&exp, &cfg);
        for keep in 0..bytes.len() {
            let err = restore(&bytes[..keep], &lean_stamp, &mut target).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {keep}");
        }
        // Payload level, behind the CRC: the field decoders themselves must
        // report a short buffer, whichever field it ends in.
        let payload = raw(&mut sample_state(&exp, &cfg));
        for keep in 0..payload.len() {
            let err = unraw(&payload[..keep], &mut target).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "payload len {keep}");
        }
        // The full state (agent, quarantine, residual lanes) is larger;
        // sample its prefixes.
        let cfg = full_cfg();
        let payload = raw(&mut sample_state(&exp, &cfg));
        let mut target = RoundState::fresh(&exp, &cfg);
        for keep in (0..payload.len()).step_by(509) {
            let err = unraw(&payload[..keep], &mut target).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "full payload len {keep}");
        }
    }

    fn fleet() -> FleetExperiment {
        FleetExperiment::synthetic(4, 2, 8, 2, 11, zoo::mlp(16, &[3], 2, 5))
    }

    fn fleet_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(Scheme::fedmigr(7), 40);
        cfg.fleet = Some(FleetOptions::default());
        cfg
    }

    fn fleet_stamp() -> RunStamp {
        RunStamp { mode: "fleet".into(), clients: 4, codec: "identity".into(), ..stamp() }
    }

    /// A live fleet state between blocks, with banked dormant state.
    fn sample_fleet_state<'a>(exp: &'a mut FleetExperiment, cfg: &'a RunConfig) -> RoundState<'a> {
        let mut s = RoundState::fresh_fleet(exp, cfg);
        s.common.epoch = 3;
        s.common.global.fill(0.25);
        s.common.rng = StdRng::from_state([21, 22, 23, 24]);
        charge(&mut s.common.meter);
        s.common.clock = PhasedClock::at(7.5, phase());
        s.common.records = vec![EpochRecord { epoch: 3, test_accuracy: None, ..record() }];
        s.common.migrations_local = 1;
        s.common.migrations_global = 2;
        s.common.prev_loss = Some(2.0);
        s.common.last_epoch_usage = (0.3, 0.4);
        s.common.last_step_reward = 0.125;
        s.pool().retire(0, [1, 2, 3, 4], 2);
        s.pool().retire(3, [9, 8, 7, 6], 1);
        s.pool().retire(3, [9, 8, 7, 5], 1);
        s
    }

    #[test]
    fn live_fleet_state_round_trips_into_a_fresh_state() {
        let cfg = fleet_cfg();
        let (mut a, mut b) = (fleet(), fleet());
        let mut state = sample_fleet_state(&mut a, &cfg);
        let mut fresh = RoundState::fresh_fleet(&mut b, &cfg);
        assert_round_trips(&mut state, &mut fresh);
        for id in 0..4 {
            assert_eq!(fresh.pool().stub(id).dormant, state.pool().stub(id).dormant);
        }
        assert_eq!(fresh.pool().stub(3).dormant.participations, 2);
    }

    #[test]
    fn fleet_snapshot_into_dense_run_fails_on_mode() {
        // The cross-mode guard: a fleet checkpoint offered to a dense run
        // (and vice versa) dies on the stamp's mode field with a clear
        // InvalidData message, never a payload-decode panic — even when
        // every other stamp field matches.
        let (exp, cfg, fcfg) = (experiment(), full_cfg(), fleet_cfg());
        let (mut a, mut b) = (fleet(), fleet());
        let fleet_bytes = encode(&fleet_stamp(), &mut sample_fleet_state(&mut a, &fcfg));
        let dense_expect = RunStamp { mode: "dense".into(), ..fleet_stamp() };
        let err =
            restore(&fleet_bytes, &dense_expect, &mut RoundState::fresh(&exp, &cfg)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode mismatch"), "{err}");

        let dense_bytes = encode(&stamp(), &mut sample_state(&exp, &cfg));
        let fleet_expect = RunStamp { mode: "fleet".into(), ..stamp() };
        let err = restore(&dense_bytes, &fleet_expect, &mut RoundState::fresh_fleet(&mut b, &fcfg))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode mismatch"), "{err}");
    }

    #[test]
    fn fleet_size_mismatch_is_invalid_data() {
        let cfg = fleet_cfg();
        let mut a = fleet();
        let bytes = raw(&mut sample_fleet_state(&mut a, &cfg));
        let mut bigger = FleetExperiment::synthetic(6, 2, 8, 2, 11, zoo::mlp(16, &[3], 2, 5));
        let err = unraw(&bytes, &mut RoundState::fresh_fleet(&mut bigger, &cfg)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("client count"), "{err}");
    }

    #[test]
    fn persisted_checkpoints_restore_from_disk() {
        let (exp, cfg) = (experiment(), full_cfg());
        let dir = std::env::temp_dir().join(format!("fedmigr_ckpt_test_{}", std::process::id()));
        let bytes = encode(&stamp(), &mut sample_state(&exp, &cfg));
        persist(&dir, &bytes).unwrap();
        let read = std::fs::read(dir.join("latest.fmrs")).unwrap();
        assert_eq!(read, bytes);
        restore(&read, &stamp(), &mut RoundState::fresh(&exp, &cfg)).unwrap();
        let files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, ["latest.fmrs"], "one rolling file; the temp file is renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capture_of_a_real_run_survives_restore_and_recapture() {
        // A checkpoint written mid-run by the runner itself, restored into a
        // fresh state and captured again, must reproduce the file byte for
        // byte: any field the reader fails to put back where the writer
        // found it shows up here.
        let exp = trainable_experiment();
        let dir = std::env::temp_dir().join(format!("fedmigr_recapture_{}", std::process::id()));
        let mut cfg = RunConfig::new(Scheme::fedmigr(3), 5);
        cfg.agg_interval = 2;
        cfg.eval_interval = 5;
        cfg.batch_size = 16;
        cfg.max_batches_per_epoch = Some(1);
        cfg.codec = CodecConfig::parse("topk-int8:0.25").unwrap();
        cfg.attack = AttackConfig::sign_flip(0.25, 9);
        cfg.transport = fedmigr_net::TransportConfig::flow(3);
        cfg.fault = fedmigr_net::FaultConfig::edge_churn(0.2, 4).with_network_stress(0.3);
        cfg.checkpoint_every = Some(5);
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        exp.run(&cfg);
        let written = std::fs::read(dir.join("latest.fmrs")).unwrap();
        let mut fresh = RoundState::fresh(&exp, &cfg);
        let run_stamp = RunStamp::of(&cfg, 4, fresh.clients[0].num_params(), "dense");
        restore(&written, &run_stamp, &mut fresh).unwrap();
        assert_eq!(fresh.common.epoch, 5);
        assert_eq!(encode(&run_stamp, &mut fresh), written);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_recycled_buffer_carries_nothing_over() {
        let (exp, cfg) = (experiment(), full_cfg());
        let mut big = sample_state(&exp, &cfg);
        big.late_buf.push(LateUpload { client: 0, params: vec![2.5; 59], seq: 4 });
        let mut buf = encode(&stamp(), &mut big);
        let mut small = RoundState::fresh(&exp, &cfg);
        let fresh = encode(&stamp(), &mut small);
        assert!(buf.len() > fresh.len(), "the buffer holds a longer snapshot");
        encode_into(&mut buf, &stamp(), &mut small);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn snapshots_after_a_rollback_are_fresh_encodes() {
        // A NaN adversary makes the watchdog roll back: the state it
        // restores is smaller than the one the snapshot buffer last held.
        // Every checkpoint the run leaves behind must be the bytes a fresh
        // buffer would hold for the state it restores to.
        let exp = trainable_experiment();
        let dir = std::env::temp_dir().join(format!("fedmigr_rollback_{}", std::process::id()));
        let mut cfg = RunConfig::new(Scheme::FedAvg, 8);
        cfg.agg_interval = 1;
        cfg.eval_interval = 4;
        cfg.batch_size = 16;
        cfg.max_batches_per_epoch = Some(1);
        cfg.attack = AttackConfig::nan_inject(0.3, 7);
        cfg.watchdog = crate::WatchdogConfig { enabled: true, ..Default::default() };
        cfg.checkpoint_every = Some(1);
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        let m = exp.run(&cfg);
        assert!(m.recovery.rollbacks >= 1, "the adversary must force a rollback");
        let num_params = RoundState::fresh(&exp, &cfg).clients[0].num_params();
        let run_stamp = RunStamp::of(&cfg, 4, num_params, "dense");
        let written = std::fs::read(dir.join("latest.fmrs")).unwrap();
        let mut fresh = RoundState::fresh(&exp, &cfg);
        restore(&written, &run_stamp, &mut fresh).unwrap();
        assert_eq!(fresh.common.epoch, 8);
        assert_eq!(encode(&run_stamp, &mut fresh), written);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
