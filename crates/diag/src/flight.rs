//! The run flight recorder: a versioned JSONL record stream (see
//! [`fedmigr_telemetry::record`] for the stream contract) capturing one
//! run's learning dynamics round by round.
//!
//! Line kinds, in file order:
//!
//! 1. exactly one `header` ([`FlightHeader`]) — schema version plus the
//!    run's identifying configuration;
//! 2. one `round` ([`RoundRecord`]) per epoch — loss/accuracy/traffic plus
//!    the [`EmdSnapshot`], [`DriftSnapshot`], [`DrlSnapshot`] and
//!    [`GraphSnapshot`] diagnostics and the round's migration edge list;
//! 3. at most one `summary` ([`FlightSummary`]) — run-level outcome, the
//!    closing line;
//! 4. at most one `tolerances` ([`Tolerances`]) — regression budgets,
//!    present on checked-in baselines so `fedmigr diff` runs self-contained
//!    in CI.
//!
//! All numbers are written as JSON floats (integers gain `.0`), matching
//! the trace schema.

use fedmigr_telemetry::record::{self, Line, Row, Stream, StreamWriter};
use fedmigr_telemetry::record_fields;

use crate::drift::DriftSnapshot;
use crate::drl_probe::DrlSnapshot;
use crate::emd::EmdSnapshot;
use crate::gate::Tolerances;
use crate::graph::{GraphSnapshot, MigrationEdge};

/// Current flight-recording schema version.
pub const FLIGHT_VERSION: u64 = 1;

/// Identifying configuration of the recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightHeader {
    /// Schema version ([`FLIGHT_VERSION`] when written by this build).
    pub version: u64,
    /// Scheme name (`"FedMigr"`, `"FedAvg"`, ...).
    pub scheme: String,
    /// Number of clients.
    pub clients: usize,
    /// Configured epoch budget.
    pub epochs: usize,
    /// Run seed.
    pub seed: u64,
    /// Aggregation interval (`M + 1`).
    pub agg_interval: usize,
    /// Wire-codec name.
    pub codec: String,
}
record_fields!(FlightHeader as "header": version, scheme, clients, epochs, seed, agg_interval, codec);

/// Cumulative virtual seconds per clock phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Local training.
    pub train_s: f64,
    /// The client↔server path.
    pub c2s_s: f64,
    /// Migrating models.
    pub migration_s: f64,
    /// Stalled in backoff.
    pub backoff_s: f64,
}
record_fields!(PhaseSeconds: train_s, c2s_s, migration_s, backoff_s);

/// One epoch's diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundRecord {
    /// 1-based epoch.
    pub epoch: usize,
    /// Mean weighted local training loss.
    pub train_loss: f64,
    /// Test accuracy, when this was an evaluation epoch.
    pub test_accuracy: Option<f64>,
    /// Cumulative virtual seconds.
    pub sim_time: f64,
    /// Cumulative client↔server bytes.
    pub c2s_bytes: u64,
    /// Cumulative intra-LAN client-to-client bytes.
    pub c2c_local_bytes: u64,
    /// Cumulative cross-LAN client-to-client bytes.
    pub c2c_global_bytes: u64,
    /// Where the virtual clock went so far.
    pub phase: PhaseSeconds,
    /// Virtual-dataset EMD picture (the runner's mixture, which aggregation
    /// resets to the population: what the *next* round starts from).
    pub emd: EmdSnapshot,
    /// Training-history EMD picture: the same mixture tracked through the
    /// migration chain but never reset by aggregation — the label
    /// distribution of the data that actually generated each model
    /// replica's gradients. FedAvg keeps this pinned at the local
    /// distribution (each model only ever trains on its host's shard);
    /// migration is what drives it down.
    pub train_emd: EmdSnapshot,
    /// Client-drift picture (absent when parameters were not sampled).
    pub drift: Option<DriftSnapshot>,
    /// DDPG introspection (absent for non-DRL schemes).
    pub drl: Option<DrlSnapshot>,
    /// Migration-graph statistics.
    pub graph: GraphSnapshot,
    /// The round's migration edge list.
    pub migrations: Vec<MigrationEdge>,
}
record_fields!(RoundRecord as "round": epoch, train_loss, test_accuracy, sim_time, c2s_bytes,
    c2c_local_bytes, c2c_global_bytes, phase, emd, train_emd, drift, drl, graph, migrations);

/// Run-level outcome written when the run finishes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightSummary {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Last evaluated accuracy.
    pub final_accuracy: f64,
    /// Best evaluated accuracy.
    pub best_accuracy: f64,
    /// Total wire bytes.
    pub total_bytes: u64,
    /// Total virtual seconds.
    pub sim_time: f64,
    /// Intra-LAN migrations executed.
    pub migrations_local: usize,
    /// Cross-LAN migrations executed.
    pub migrations_global: usize,
    /// Fleet-mean virtual-dataset EMD at the final round.
    pub final_emd_mean: f64,
    /// Whether the run hit its target accuracy.
    pub target_reached: bool,
    /// Whether the run ran out of resource budget.
    pub budget_exhausted: bool,
}
record_fields!(FlightSummary as "summary": epochs_run, final_accuracy, best_accuracy, total_bytes,
    sim_time, migrations_local, migrations_global, final_emd_mean, target_reached,
    budget_exhausted);

/// Streaming JSONL writer for a flight recording: the header line first,
/// then `round` lines, then the `summary`. [`StreamWriter::resume`] reopens
/// an interrupted recording cut back, byte for byte, to a checkpoint.
pub type FlightRecorder = StreamWriter<FlightRecording>;

/// A parsed flight recording.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecording {
    /// The run's header.
    pub header: FlightHeader,
    /// Per-round diagnostics, in epoch order.
    pub rounds: Vec<RoundRecord>,
    /// Run-level summary, if the run finished cleanly.
    pub summary: Option<FlightSummary>,
    /// Regression budgets, when this recording is a tagged baseline.
    pub tolerances: Option<Tolerances>,
}

impl Stream for FlightRecording {
    const VERSION: u64 = FLIGHT_VERSION;
    const CLOSE: &'static str = FlightSummary::KIND;
    type Header = FlightHeader;

    fn version(header: &FlightHeader) -> u64 {
        header.version
    }

    fn open(header: FlightHeader) -> Self {
        FlightRecording { header, rounds: Vec::new(), summary: None, tolerances: None }
    }

    fn line(&mut self, row: &Row<'_>) -> Result<(), String> {
        match row.kind {
            RoundRecord::KIND => self.rounds.push(row.read()?),
            FlightSummary::KIND => self.summary = Some(row.read()?),
            Tolerances::KIND => self.tolerances = Some(row.read()?),
            _ => return Err(row.unknown()),
        }
        Ok(())
    }
}

impl FlightRecording {
    /// Reads and parses a recording from disk.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a recording from JSONL text under the stream contract of
    /// [`fedmigr_telemetry::record`].
    pub fn parse(text: &str) -> Result<Self, String> {
        record::read(text)
    }

    /// Last evaluated accuracy (summary, else scanned from rounds).
    pub fn final_accuracy(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.final_accuracy;
        }
        self.rounds.iter().rev().find_map(|r| r.test_accuracy).unwrap_or(0.0)
    }

    /// Best evaluated accuracy (summary, else scanned from rounds).
    pub fn best_accuracy(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.best_accuracy;
        }
        self.rounds.iter().filter_map(|r| r.test_accuracy).fold(0.0, f64::max)
    }

    /// Total wire bytes (summary, else from the last round).
    pub fn total_bytes(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.total_bytes;
        }
        self.rounds
            .last()
            .map(|r| r.c2s_bytes + r.c2c_local_bytes + r.c2c_global_bytes)
            .unwrap_or(0)
    }

    /// Total virtual seconds (summary, else from the last round).
    pub fn sim_time(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.sim_time;
        }
        self.rounds.last().map(|r| r.sim_time).unwrap_or(0.0)
    }

    /// Fleet-mean EMD at the final recorded round.
    pub fn final_emd_mean(&self) -> f64 {
        self.rounds.last().map(|r| r.emd.mean).unwrap_or(0.0)
    }

    /// Fleet-mean EMD averaged over every recorded round.
    pub fn mean_emd_over_run(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.emd.mean).sum::<f64>() / self.rounds.len() as f64
    }

    /// Fleet-mean *training-history* EMD averaged over every recorded round
    /// — the trajectory integral the FedMigr-vs-FedAvg comparison uses
    /// (never reset by aggregation, so it measures what migration alone
    /// buys).
    pub fn mean_train_emd_over_run(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.train_emd.mean).sum::<f64>() / self.rounds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeOutcome;
    use fedmigr_telemetry::record::MemorySink;

    fn sample_round(epoch: usize) -> RoundRecord {
        RoundRecord {
            epoch,
            train_loss: 2.25,
            test_accuracy: if epoch.is_multiple_of(2) {
                Some(0.5 + epoch as f64 / 100.0)
            } else {
                None
            },
            sim_time: epoch as f64 * 10.0,
            c2s_bytes: 1000 * epoch as u64,
            c2c_local_bytes: 500,
            c2c_global_bytes: 250,
            phase: PhaseSeconds { train_s: 6.0, c2s_s: 2.0, migration_s: 1.5, backoff_s: 0.5 },
            emd: EmdSnapshot { per_client: vec![0.4, 0.1], mean: 0.25, max: 0.4 },
            train_emd: EmdSnapshot { per_client: vec![0.5, 0.2], mean: 0.35, max: 0.5 },
            drift: Some(DriftSnapshot {
                dist: vec![1.0, 2.0],
                cosine: vec![0.9, -0.1],
                divergence: vec![0.5, 0.6],
                mean_dist: 1.5,
                max_dist: 2.0,
                mean_cosine: 0.4,
                mean_divergence: 0.55,
            }),
            drl: Some(DrlSnapshot {
                mean_entropy: 1.2,
                mean_saturation: 0.6,
                mean_q: 0.3,
                mean_abs_td: 0.05,
                max_abs_td: 0.2,
                critic_grad_norm: 1.1,
                actor_grad_norm: 0.7,
                replay_occupancy: 12,
                replay_capacity: 64,
                replay_priority_spread: 3.0,
                replay_mean_age: 4.5,
                replay_max_age: 11.0,
            }),
            graph: GraphSnapshot {
                attempted: 2,
                delivered: 2,
                fallbacks: 1,
                out_concentration: 0.5,
                in_concentration: 0.5,
                cycles: 1,
            },
            migrations: vec![
                MigrationEdge {
                    src: 0,
                    dst: 1,
                    bytes: 100,
                    time_s: 0.75,
                    outcome: EdgeOutcome::Direct,
                },
                MigrationEdge {
                    src: 1,
                    dst: 0,
                    bytes: 100,
                    time_s: 1.5,
                    outcome: EdgeOutcome::Relay,
                },
            ],
        }
    }

    fn sample_recording() -> FlightRecording {
        FlightRecording {
            header: FlightHeader {
                version: FLIGHT_VERSION,
                scheme: "FedMigr".into(),
                clients: 2,
                epochs: 4,
                seed: 47,
                agg_interval: 2,
                codec: "identity".into(),
            },
            rounds: vec![sample_round(1), sample_round(2)],
            summary: Some(FlightSummary {
                epochs_run: 2,
                final_accuracy: 0.52,
                best_accuracy: 0.52,
                total_bytes: 2750,
                sim_time: 20.0,
                migrations_local: 1,
                migrations_global: 1,
                final_emd_mean: 0.25,
                target_reached: false,
                budget_exhausted: false,
            }),
            tolerances: Some(Tolerances::default()),
        }
    }

    #[test]
    fn recording_round_trips_through_jsonl() {
        let mut sample = sample_recording();
        let sink = MemorySink::default();
        let mut rec = FlightRecorder::to_writer(Box::new(sink.clone()));
        rec.line(&mut sample.header).unwrap();
        sample.rounds.iter_mut().for_each(|r| rec.line(r).unwrap());
        rec.line(sample.summary.as_mut().unwrap()).unwrap();
        rec.line(sample.tolerances.as_mut().unwrap()).unwrap();
        drop(rec);

        let text = sink.text();
        assert_eq!(text.lines().count(), 5, "header + 2 rounds + summary + tolerances");
        let parsed = FlightRecording::parse(&text).unwrap();
        assert_eq!(parsed, sample);
        assert_eq!(parsed.final_accuracy(), 0.52);
        assert_eq!(parsed.total_bytes(), 2750);
        assert_eq!(parsed.final_emd_mean(), 0.25);
    }

    #[test]
    fn summary_accessors_fall_back_to_rounds() {
        let rec = FlightRecording { summary: None, tolerances: None, ..sample_recording() };
        assert_eq!(rec.final_accuracy(), 0.52);
        assert_eq!(rec.best_accuracy(), 0.52);
        assert_eq!(rec.total_bytes(), 2000 + 500 + 250);
        assert_eq!(rec.sim_time(), 20.0);
        assert_eq!(rec.mean_emd_over_run(), 0.25);
    }

    #[test]
    fn resume_truncates_to_checkpoint_and_appends() {
        let mut sample = sample_recording();
        let path = std::env::temp_dir()
            .join(format!("fedmigr-flight-resume-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut rec = FlightRecorder::create(&path).unwrap();
        rec.line(&mut sample.header).unwrap();
        sample.rounds.iter_mut().for_each(|r| rec.line(r).unwrap());
        rec.line(sample.summary.as_mut().unwrap()).unwrap();
        drop(rec);
        // Simulate a crash artifact on top: a torn trailing fragment.
        let before = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{before}{{\"kind\":\"round\",\"epo")).unwrap();
        // Resume keeping epoch 1: round 2, the summary and the torn
        // fragment all drop; the surviving prefix is byte-identical.
        let mut rec = FlightRecorder::resume(&path, 1).unwrap();
        rec.line(&mut sample_round(2)).unwrap();
        rec.line(sample.summary.as_mut().unwrap()).unwrap();
        drop(rec);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after, before, "round 2 and the summary re-recorded after resume");
        std::fs::remove_file(&path).unwrap();
    }
}
