use fedmigr_compress::CompressionStats;
use fedmigr_net::{TrafficBreakdown, TransportStats};

/// Fault-injection accounting for a run (all zero when the fault layer is
/// disabled — see `fedmigr_net::FaultModel::none`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Client-epochs lost to crashes/dropouts (client was down).
    pub client_drops: usize,
    /// Client-epochs where a live client missed the round — cut by the
    /// straggler deadline or unable to reach the server.
    pub stale_client_epochs: usize,
    /// Individual transfer retry attempts (successful or not).
    pub transfer_retries: usize,
    /// Migrations that fell back to a relay path (same-LAN peer or C2S).
    pub rerouted_migrations: usize,
    /// Migrations abandoned after every fallback failed; the model stayed
    /// local for the epoch.
    pub cancelled_migrations: usize,
    /// Bytes burned on transfer attempts that did not complete.
    pub wasted_bytes: u64,
    /// Client training threads that panicked mid-epoch (software crash
    /// injection or a genuine bug); the client sat the round out.
    pub client_panics: usize,
}

impl FaultStats {
    /// Whether any fault was observed at all.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

/// Crash-safety accounting for a run: checkpoints taken, resumes performed
/// and watchdog rollbacks executed. Deliberately kept out of
/// [`RunMetrics::to_csv`] and the flight recording — a killed-and-resumed
/// run accumulates different recovery counters than its uninterrupted twin
/// while every learning-relevant output stays byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Run-state snapshots taken (in memory and, when a checkpoint
    /// directory is configured, on disk).
    pub checkpoints_written: usize,
    /// Total encoded bytes across all snapshots taken.
    pub checkpoint_bytes: u64,
    /// Snapshots decoded back into a live run: one per `--resume`, plus one
    /// per watchdog rollback.
    pub checkpoints_loaded: usize,
    /// Divergence rollbacks executed by the watchdog.
    pub rollbacks: usize,
    /// Rounds re-executed after rollbacks (distance from the restored
    /// checkpoint to the round that tripped the watchdog).
    pub rounds_replayed: usize,
}

impl RecoveryStats {
    /// Whether any recovery machinery ran at all.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

/// Byzantine-defense accounting for a run (all zero when no adversary is
/// configured and the plain FedAvg aggregator is in use).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustStats {
    /// Migrated models rejected by the quarantine (non-finite or
    /// norm-anomalous); the receiver kept its own model instead.
    pub rejected_migrations: usize,
    /// Client updates excluded by the aggregation rule (trimmed by
    /// TrimmedMean, outside the Krum/MultiKrum selection, or screened for
    /// non-finiteness before a robust rule ran).
    pub trimmed_clients: usize,
    /// Client updates whose norm was clipped by NormClip.
    pub clipped_norms: usize,
    /// Uploads containing NaN/Inf coordinates seen at the aggregator.
    pub nan_uploads: usize,
    /// Local training batches skipped because the loss went NaN/Inf.
    pub nan_batches: u64,
}

impl RobustStats {
    /// Whether any defense fired at all.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }

    /// Accumulates another epoch's counters into this run total.
    pub fn absorb(&mut self, other: &RobustStats) {
        self.rejected_migrations += other.rejected_migrations;
        self.trimmed_clients += other.trimmed_clients;
        self.clipped_norms += other.clipped_norms;
        self.nan_uploads += other.nan_uploads;
        self.nan_batches += other.nan_batches;
    }
}

/// Deterministic attribution of the *virtual* simulation clock to runner
/// phases. Every `SimClock` advance in the runner is tagged with the phase
/// that caused it, so `total()` matches the run's `sim_time` (up to float
/// summation error) and the breakdown is byte-identical across reruns of
/// the same seed — with telemetry on or off. Real wall-clock profiling is
/// the telemetry side-channel's job; this struct is part of the result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Virtual seconds spent in local training (straggler-limited).
    pub train_s: f64,
    /// Virtual seconds on the client↔server path: initial distribution,
    /// uploads, downloads, FedAsync exchanges.
    pub c2s_s: f64,
    /// Virtual seconds moving models client-to-client (migration, FedSwap).
    pub migration_s: f64,
    /// Virtual seconds stalled waiting out server-link outages.
    pub backoff_s: f64,
}

impl PhaseBreakdown {
    /// Sum over all phases — tracks the run's `sim_time`.
    pub fn total(&self) -> f64 {
        self.train_s + self.c2s_s + self.migration_s + self.backoff_s
    }

    /// Fraction of total time spent in `phase_s` (0 when nothing elapsed).
    pub fn share(&self, phase_s: f64) -> f64 {
        let t = self.total();
        if t > 0.0 {
            phase_s / t
        } else {
            0.0
        }
    }
}

/// Per-epoch measurements of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochRecord {
    /// 1-based training epoch.
    pub epoch: usize,
    /// Mean local training loss across clients (weighted by `n_k`).
    pub train_loss: f32,
    /// Test accuracy of the (shadow-)aggregated global model, if this was
    /// an evaluation epoch.
    pub test_accuracy: Option<f64>,
    /// Cumulative traffic at the end of the epoch.
    pub traffic: TrafficBreakdown,
    /// Cumulative virtual time (seconds) at the end of the epoch.
    pub sim_time: f64,
    /// Clients down (crashed/dropped out) during this epoch.
    pub dropped_clients: usize,
    /// Live clients that missed this round (deadline-cut or unreachable).
    pub stale_clients: usize,
    /// Migrated models rejected by the quarantine during this epoch.
    pub rejected_migrations: usize,
    /// Cumulative wire bytes saved by the codec at the end of the epoch
    /// (uncompressed-equivalent traffic minus actual traffic; 0 under the
    /// identity codec).
    pub bytes_saved: u64,
    /// Cumulative per-phase attribution of `sim_time` at the end of the
    /// epoch (`phase.total() ≈ sim_time`).
    pub phase: PhaseBreakdown,
    /// Cumulative flow-transport retransmits at the end of the epoch
    /// (always 0 under the lockstep transport).
    pub retransmits: u64,
    /// Cumulative uploads that missed their round deadline at the end of
    /// the epoch (always 0 under the lockstep transport).
    pub late_uploads: u64,
}

/// Everything a run produced: per-epoch curves, migration statistics and
/// the stopping condition that ended it.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Scheme name (matches the paper's tables).
    pub scheme: String,
    /// Per-epoch records, in order.
    pub records: Vec<EpochRecord>,
    /// Number of intra-LAN model migrations executed.
    pub migrations_local: usize,
    /// Number of cross-LAN model migrations executed.
    pub migrations_global: usize,
    /// `K x K` matrix of migration counts per directed client pair
    /// (row-major), for the Fig. 8 link-frequency analysis.
    pub link_migrations: Vec<u32>,
    /// Whether the run ended because the resource budget ran out.
    pub budget_exhausted: bool,
    /// Whether the run ended because the target accuracy was reached.
    pub target_reached: bool,
    /// Fault-injection accounting (all zero without a fault model).
    pub fault: FaultStats,
    /// Byzantine-defense accounting (all zero without adversary/defenses).
    pub robust: RobustStats,
    /// Wire-codec name (e.g. `"identity"`, `"int8+ef"`).
    pub codec: String,
    /// Compression accounting across every model encode of the run.
    pub compression: CompressionStats,
    /// Transport name the run was charged through (`"lockstep"`/`"flow"`).
    pub transport: String,
    /// Flow-transport accounting (all zero under lockstep).
    pub transport_stats: TransportStats,
    /// Checkpoint/resume/rollback accounting (all zero when checkpointing
    /// and the watchdog are off).
    pub recovery: RecoveryStats,
}

impl RunMetrics {
    /// The last recorded test accuracy (0 if never evaluated).
    pub fn final_accuracy(&self) -> f64 {
        self.records.iter().rev().find_map(|r| r.test_accuracy).unwrap_or(0.0)
    }

    /// The best recorded test accuracy (0 if never evaluated).
    pub fn best_accuracy(&self) -> f64 {
        self.records.iter().filter_map(|r| r.test_accuracy).fold(0.0, f64::max)
    }

    /// Total traffic at the end of the run.
    pub fn traffic(&self) -> TrafficBreakdown {
        self.records.last().map(|r| r.traffic).unwrap_or_default()
    }

    /// Total virtual time in seconds.
    pub fn sim_time(&self) -> f64 {
        self.records.last().map(|r| r.sim_time).unwrap_or(0.0)
    }

    /// Number of epochs actually run.
    pub fn epochs(&self) -> usize {
        self.records.len()
    }

    /// First epoch whose evaluation reached `target` accuracy, if any.
    pub fn epochs_to_accuracy(&self, target: f64) -> Option<usize> {
        self.records.iter().find(|r| r.test_accuracy.is_some_and(|a| a >= target)).map(|r| r.epoch)
    }

    /// Cumulative traffic (bytes) when `target` accuracy was first reached.
    pub fn traffic_to_accuracy(&self, target: f64) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.test_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.traffic.total())
    }

    /// Virtual time (seconds) when `target` accuracy was first reached.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.test_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.sim_time)
    }

    /// Best accuracy among evaluations whose cumulative traffic stayed
    /// within `budget_bytes` (the Fig. 9 bandwidth sweep).
    pub fn accuracy_within_traffic(&self, budget_bytes: u64) -> f64 {
        self.records
            .iter()
            .filter(|r| r.traffic.total() <= budget_bytes)
            .filter_map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// Best accuracy among evaluations completed within `seconds` of
    /// virtual time (the Fig. 9 time sweep).
    pub fn accuracy_within_time(&self, seconds: f64) -> f64 {
        self.records
            .iter()
            .filter(|r| r.sim_time <= seconds)
            .filter_map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// Total client-epochs lost to dropouts across the run.
    pub fn total_drops(&self) -> usize {
        self.fault.client_drops
    }

    /// One-line human-readable fault summary for run logs, or `None` when
    /// no fault was observed.
    pub fn fault_summary(&self) -> Option<String> {
        if !self.fault.any() {
            return None;
        }
        let f = &self.fault;
        Some(format!(
            "faults: {} drop-epochs, {} stale, {} retries, {} rerouted, {} cancelled, {} panics, {} wasted bytes",
            f.client_drops,
            f.stale_client_epochs,
            f.transfer_retries,
            f.rerouted_migrations,
            f.cancelled_migrations,
            f.client_panics,
            f.wasted_bytes,
        ))
    }

    /// One-line human-readable recovery summary for run logs, or `None`
    /// when no checkpoint/rollback machinery ran.
    pub fn recovery_summary(&self) -> Option<String> {
        if !self.recovery.any() {
            return None;
        }
        let r = &self.recovery;
        Some(format!(
            "recovery: {} checkpoints written ({} bytes), {} loaded, {} rollbacks, {} rounds replayed",
            r.checkpoints_written,
            r.checkpoint_bytes,
            r.checkpoints_loaded,
            r.rollbacks,
            r.rounds_replayed,
        ))
    }

    /// Renders the run-level [`RecoveryStats`] as a one-row CSV. Kept
    /// separate from [`RunMetrics::to_csv`] on purpose: recovery counters
    /// legitimately differ between a killed-and-resumed run and its
    /// uninterrupted twin, while `to_csv` is part of the byte-identity
    /// contract.
    pub fn recovery_csv(&self) -> String {
        let r = &self.recovery;
        format!(
            "checkpoints_written,checkpoint_bytes,checkpoints_loaded,rollbacks,rounds_replayed\n{},{},{},{},{}\n",
            r.checkpoints_written,
            r.checkpoint_bytes,
            r.checkpoints_loaded,
            r.rollbacks,
            r.rounds_replayed,
        )
    }

    /// Final per-phase attribution of the run's virtual time.
    pub fn phase(&self) -> PhaseBreakdown {
        self.records.last().map(|r| r.phase).unwrap_or_default()
    }

    /// One-line human-readable phase breakdown for run logs, or `None`
    /// when no virtual time elapsed.
    pub fn phase_summary(&self) -> Option<String> {
        let p = self.phase();
        if p.total() <= 0.0 {
            return None;
        }
        Some(format!(
            "phases: train {:.1}s ({:.0}%), c2s {:.1}s ({:.0}%), migration {:.1}s ({:.0}%), backoff {:.1}s ({:.0}%)",
            p.train_s,
            p.share(p.train_s) * 100.0,
            p.c2s_s,
            p.share(p.c2s_s) * 100.0,
            p.migration_s,
            p.share(p.migration_s) * 100.0,
            p.backoff_s,
            p.share(p.backoff_s) * 100.0,
        ))
    }

    /// Total wire bytes the codec saved across the run (0 under identity).
    pub fn bytes_saved(&self) -> u64 {
        self.records.last().map(|r| r.bytes_saved).unwrap_or(0)
    }

    /// One-line human-readable compression summary for run logs, or `None`
    /// when nothing was encoded or the codec is the identity.
    pub fn compression_summary(&self) -> Option<String> {
        let c = &self.compression;
        if !c.any() || self.codec == "identity" {
            return None;
        }
        Some(format!(
            "compression[{}]: {:.2}x ratio, {} wire bytes saved, mean MSE {:.3e}, mean EF residual norm {:.3}",
            self.codec,
            c.ratio(),
            self.bytes_saved(),
            c.mean_mse(),
            c.mean_residual_norm(),
        ))
    }

    /// One-line human-readable defense summary for run logs, or `None`
    /// when no defense fired.
    pub fn robust_summary(&self) -> Option<String> {
        if !self.robust.any() {
            return None;
        }
        let r = &self.robust;
        Some(format!(
            "defenses: {} rejected migrations, {} trimmed clients, {} clipped norms, {} NaN uploads, {} NaN batches",
            r.rejected_migrations, r.trimmed_clients, r.clipped_norms, r.nan_uploads, r.nan_batches,
        ))
    }

    /// One-line human-readable transport summary for run logs, or `None`
    /// under the lockstep transport (no flows simulated).
    pub fn transport_summary(&self) -> Option<String> {
        let t = &self.transport_stats;
        if !t.any() {
            return None;
        }
        Some(format!(
            "transport[{}]: {} flows ({} failed), {} retransmits ({} bytes), {} timeouts, queue delay p50 {:.3}s / p99 {:.3}s, link util {:.0}%, {} late uploads ({} folded stale, {} dropped)",
            self.transport,
            t.flows,
            t.failed_flows,
            t.retransmits,
            t.retransmit_bytes,
            t.timeouts,
            t.queue_delay_p50,
            t.queue_delay_p99,
            t.mean_link_utilization * 100.0,
            t.late_uploads,
            t.stale_updates_folded,
            t.stale_updates_dropped,
        ))
    }

    /// Renders the per-epoch records as CSV (for external plotting). The
    /// accuracy column is empty on non-evaluation epochs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,train_loss,test_accuracy,c2s_bytes,c2c_local_bytes,c2c_global_bytes,sim_time_s,dropped_clients,stale_clients,rejected_migrations,bytes_saved,train_time_s,c2s_time_s,migration_time_s,backoff_time_s,retransmits,late_uploads\n",
        );
        for r in &self.records {
            let acc = r.test_accuracy.map(|a| format!("{a:.6}")).unwrap_or_default();
            out.push_str(&format!(
                "{},{:.6},{},{},{},{},{:.3},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{}\n",
                r.epoch,
                r.train_loss,
                acc,
                r.traffic.c2s,
                r.traffic.c2c_local,
                r.traffic.c2c_global,
                r.sim_time,
                r.dropped_clients,
                r.stale_clients,
                r.rejected_migrations,
                r.bytes_saved,
                r.phase.train_s,
                r.phase.c2s_s,
                r.phase.migration_s,
                r.phase.backoff_s,
                r.retransmits,
                r.late_uploads,
            ));
        }
        out
    }

    /// Renders the run-level `TransportStats` as a one-row CSV (bench
    /// outputs and the flow determinism tests).
    pub fn transport_csv(&self) -> String {
        let t = &self.transport_stats;
        format!(
            "transport,flows,failed_flows,retransmits,timeouts,retransmit_bytes,queue_delay_p50,queue_delay_p99,mean_link_utilization,late_uploads,stale_folded,stale_dropped\n{},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{}\n",
            self.transport,
            t.flows,
            t.failed_flows,
            t.retransmits,
            t.timeouts,
            t.retransmit_bytes,
            t.queue_delay_p50,
            t.queue_delay_p99,
            t.mean_link_utilization,
            t.late_uploads,
            t.stale_updates_folded,
            t.stale_updates_dropped,
        )
    }

    /// Renders the run-level `RobustStats` as a one-row CSV (used by the
    /// determinism tests: same attack seed ⇒ byte-identical output).
    pub fn robust_csv(&self) -> String {
        let r = &self.robust;
        format!(
            "rejected_migrations,trimmed_clients,clipped_norms,nan_uploads,nan_batches\n{},{},{},{},{}\n",
            r.rejected_migrations, r.trimmed_clients, r.clipped_norms, r.nan_uploads, r.nan_batches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: usize, acc: Option<f64>, bytes: u64, time: f64) -> EpochRecord {
        EpochRecord {
            epoch,
            train_loss: 1.0,
            test_accuracy: acc,
            traffic: TrafficBreakdown { c2s: bytes, c2c_local: 0, c2c_global: 0 },
            sim_time: time,
            dropped_clients: 0,
            stale_clients: 0,
            rejected_migrations: 0,
            bytes_saved: 0,
            phase: PhaseBreakdown { train_s: time * 0.5, c2s_s: time * 0.5, ..Default::default() },
            retransmits: 0,
            late_uploads: 0,
        }
    }

    fn metrics() -> RunMetrics {
        RunMetrics {
            scheme: "Test".into(),
            records: vec![
                record(1, None, 100, 1.0),
                record(2, Some(0.5), 200, 2.0),
                record(3, None, 300, 3.0),
                record(4, Some(0.8), 400, 4.0),
            ],
            migrations_local: 0,
            migrations_global: 0,
            link_migrations: vec![],
            budget_exhausted: false,
            target_reached: false,
            fault: FaultStats::default(),
            robust: RobustStats::default(),
            codec: "identity".into(),
            compression: CompressionStats::default(),
            transport: "lockstep".into(),
            transport_stats: TransportStats::default(),
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn accuracy_accessors() {
        let m = metrics();
        assert_eq!(m.final_accuracy(), 0.8);
        assert_eq!(m.best_accuracy(), 0.8);
        assert_eq!(m.epochs(), 4);
    }

    #[test]
    fn to_accuracy_queries() {
        let m = metrics();
        assert_eq!(m.epochs_to_accuracy(0.5), Some(2));
        assert_eq!(m.epochs_to_accuracy(0.7), Some(4));
        assert_eq!(m.epochs_to_accuracy(0.9), None);
        assert_eq!(m.traffic_to_accuracy(0.7), Some(400));
        assert_eq!(m.time_to_accuracy(0.5), Some(2.0));
    }

    #[test]
    fn budget_window_queries() {
        let m = metrics();
        assert_eq!(m.accuracy_within_traffic(250), 0.5);
        assert_eq!(m.accuracy_within_traffic(1000), 0.8);
        assert_eq!(m.accuracy_within_time(1.5), 0.0);
        assert_eq!(m.accuracy_within_time(4.0), 0.8);
    }

    #[test]
    fn csv_has_header_and_one_line_per_epoch() {
        let m = metrics();
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + m.records.len());
        assert!(lines[0].starts_with("epoch,train_loss"));
        assert!(lines[2].contains("0.500000"), "accuracy column present: {}", lines[2]);
        assert!(lines[1].split(',').nth(2).unwrap().is_empty(), "no accuracy -> empty cell");
    }

    #[test]
    fn empty_run_is_safe() {
        let m = RunMetrics {
            scheme: "Empty".into(),
            records: vec![],
            migrations_local: 0,
            migrations_global: 0,
            link_migrations: vec![],
            budget_exhausted: false,
            target_reached: false,
            fault: FaultStats::default(),
            robust: RobustStats::default(),
            codec: "identity".into(),
            compression: CompressionStats::default(),
            transport: "lockstep".into(),
            transport_stats: TransportStats::default(),
            recovery: RecoveryStats::default(),
        };
        assert_eq!(m.final_accuracy(), 0.0);
        assert_eq!(m.traffic().total(), 0);
        assert_eq!(m.sim_time(), 0.0);
        assert!(m.fault_summary().is_none());
    }

    #[test]
    fn fault_summary_reports_counters() {
        let mut m = metrics();
        assert!(m.fault_summary().is_none(), "clean run has no fault summary");
        m.fault = FaultStats {
            client_drops: 7,
            stale_client_epochs: 3,
            transfer_retries: 11,
            rerouted_migrations: 2,
            cancelled_migrations: 1,
            wasted_bytes: 4096,
            client_panics: 5,
        };
        assert!(m.fault.any());
        let s = m.fault_summary().unwrap();
        for needle in [
            "7 drop-epochs",
            "3 stale",
            "11 retries",
            "2 rerouted",
            "1 cancelled",
            "5 panics",
            "4096",
        ] {
            assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
        }
        assert_eq!(m.total_drops(), 7);
    }

    #[test]
    fn recovery_summary_and_csv_report_counters() {
        let mut m = metrics();
        assert!(m.recovery_summary().is_none(), "clean run has no recovery summary");
        m.recovery = RecoveryStats {
            checkpoints_written: 4,
            checkpoint_bytes: 8192,
            checkpoints_loaded: 2,
            rollbacks: 1,
            rounds_replayed: 3,
        };
        assert!(m.recovery.any());
        let s = m.recovery_summary().unwrap();
        for needle in ["4 checkpoints", "8192 bytes", "2 loaded", "1 rollbacks", "3 rounds"] {
            assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
        }
        assert_eq!(
            m.recovery_csv(),
            "checkpoints_written,checkpoint_bytes,checkpoints_loaded,rollbacks,rounds_replayed\n4,8192,2,1,3\n"
        );
    }

    #[test]
    fn csv_includes_fault_and_robust_columns() {
        let m = metrics();
        let csv = m.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(
            "dropped_clients,stale_clients,rejected_migrations,bytes_saved,train_time_s,c2s_time_s,migration_time_s,backoff_time_s,retransmits,late_uploads"
        ));
    }

    #[test]
    fn transport_summary_and_csv_report_flow_stats() {
        let mut m = metrics();
        assert!(m.transport_summary().is_none(), "lockstep runs carry no transport summary");
        m.transport = "flow".into();
        m.transport_stats = TransportStats {
            flows: 120,
            failed_flows: 3,
            retransmits: 40,
            timeouts: 7,
            retransmit_bytes: 65536,
            queue_delay_p50: 0.25,
            queue_delay_p99: 1.5,
            mean_link_utilization: 0.82,
            late_uploads: 5,
            stale_updates_folded: 4,
            stale_updates_dropped: 1,
        };
        let s = m.transport_summary().unwrap();
        for needle in
            ["flow", "120 flows (3 failed)", "40 retransmits", "7 timeouts", "5 late uploads"]
        {
            assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
        }
        let csv = m.transport_csv();
        assert!(csv.starts_with("transport,flows,"));
        assert!(csv.contains("flow,120,3,40,7,65536,"), "csv {csv:?}");
    }

    #[test]
    fn phase_breakdown_totals_and_summary() {
        let m = metrics();
        let p = m.phase();
        assert!((p.total() - m.sim_time()).abs() < 1e-9, "phase total tracks sim_time");
        let s = m.phase_summary().unwrap();
        assert!(s.contains("train 2.0s (50%)"), "summary {s:?}");
        assert!(s.contains("c2s 2.0s (50%)"), "summary {s:?}");
        let empty = PhaseBreakdown::default();
        assert_eq!(empty.total(), 0.0);
        assert_eq!(empty.share(1.0), 0.0, "empty breakdown yields zero shares");
    }

    #[test]
    fn compression_summary_reports_only_lossy_codecs() {
        let mut m = metrics();
        assert!(m.compression_summary().is_none(), "identity runs carry no summary");
        m.codec = "int8+ef".into();
        m.compression = CompressionStats {
            encodes: 10,
            uncompressed_bytes: 4000,
            compressed_bytes: 1000,
            sum_sq_error: 1.0,
            coords: 1000,
            residual_norm_sum: 5.0,
            ef_transmits: 10,
        };
        m.records.last_mut().unwrap().bytes_saved = 3000;
        assert_eq!(m.bytes_saved(), 3000);
        let s = m.compression_summary().unwrap();
        for needle in ["int8+ef", "4.00x", "3000 wire bytes saved"] {
            assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
        }
    }

    #[test]
    fn robust_summary_and_csv_report_counters() {
        let mut m = metrics();
        assert!(m.robust_summary().is_none(), "clean run has no defense summary");
        m.robust = RobustStats {
            rejected_migrations: 4,
            trimmed_clients: 9,
            clipped_norms: 2,
            nan_uploads: 1,
            nan_batches: 5,
        };
        assert!(m.robust.any());
        let s = m.robust_summary().unwrap();
        for needle in ["4 rejected", "9 trimmed", "2 clipped", "1 NaN uploads", "5 NaN batches"] {
            assert!(s.contains(needle), "summary {s:?} missing {needle:?}");
        }
        let csv = m.robust_csv();
        assert_eq!(
            csv,
            "rejected_migrations,trimmed_clients,clipped_norms,nan_uploads,nan_batches\n4,9,2,1,5\n"
        );
    }

    #[test]
    fn robust_stats_absorb_accumulates() {
        let mut total = RobustStats::default();
        let epoch = RobustStats {
            rejected_migrations: 1,
            trimmed_clients: 2,
            clipped_norms: 3,
            nan_uploads: 4,
            nan_batches: 5,
        };
        total.absorb(&epoch);
        total.absorb(&epoch);
        assert_eq!(total.rejected_migrations, 2);
        assert_eq!(total.trimmed_clients, 4);
        assert_eq!(total.clipped_norms, 6);
        assert_eq!(total.nan_uploads, 8);
        assert_eq!(total.nan_batches, 10);
    }
}
