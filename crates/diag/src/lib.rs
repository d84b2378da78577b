//! Learning-dynamics observability for FedMigr runs.
//!
//! Everything in this crate is *observation-only*: the diagnostics read the
//! runner's state (label-mixture vectors, client parameters, the DRL agent,
//! the migration edge list) and never feed anything back into the run. In
//! particular no function here consumes the run's RNG stream or advances the
//! virtual clock, so a seeded run produces byte-identical `RunMetrics`
//! whether diagnostics are on or off — the e2e tests assert exactly that.
//!
//! The crate has two halves:
//!
//! * **Per-round snapshots** — [`EmdSnapshot`] (how non-IID each client's
//!   *virtual dataset* still is, per the paper's Sec. II-C mixture
//!   argument), [`DriftSnapshot`] (classical client-drift numbers:
//!   `‖w_i − w_global‖`, update cosine alignment, divergence spread),
//!   [`DrlSnapshot`] (DDPG policy entropy/saturation, critic health,
//!   replay-buffer health) and [`GraphSnapshot`] (migration-graph
//!   analytics over the round's [`MigrationEdge`] list).
//! * **The run's record streams** — the flight recording
//!   ([`FlightRecorder`] writes, [`FlightRecording`] parses; rendered by
//!   `fedmigr_report`) and the round timeline ([`TimelineRecorder`],
//!   [`TimelineRecording`]; analyzed by `fedmigr_netview`), both schemas
//!   over [`fedmigr_telemetry::record`]; and the one regression gate behind
//!   `fedmigr_diff` (see [`gate`]).

#![warn(missing_docs)]

pub mod drift;
pub mod drl_probe;
pub mod emd;
pub mod flight;
pub mod gate;
pub mod graph;
pub mod netview;
pub mod perf;
pub mod report;
pub mod timeline;

pub use drift::DriftSnapshot;
pub use drl_probe::DrlSnapshot;
pub use emd::EmdSnapshot;
pub use flight::{
    FlightHeader, FlightRecorder, FlightRecording, FlightSummary, PhaseSeconds, RoundRecord,
    FLIGHT_VERSION,
};
pub use gate::{diff_recordings, Tolerances};
pub use graph::{permutation_cycles, EdgeOutcome, GraphSnapshot, MigrationEdge};
pub use report::render_report;
pub use timeline::{
    chrome_trace, IntervalState, TimelineHeader, TimelineRecorder, TimelineRecording,
    TIMELINE_VERSION,
};

/// Switches for the runner's learning-dynamics diagnostics.
///
/// Diagnostics are *active* when either flag is set: `enabled` exports the
/// per-round gauges and EMD-delta logs through the telemetry engine;
/// `flight_out` additionally streams the versioned JSONL flight recording
/// to the given path. Both are observation-only (see the crate docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiagConfig {
    /// Export per-round diagnostic gauges and logs.
    pub enabled: bool,
    /// Stream a flight recording (JSONL) to this path.
    pub flight_out: Option<String>,
    /// Stream a round timeline (JSONL) to this path. Independent of the
    /// learning-dynamics diagnostics: it does not imply [`Self::active`],
    /// so the per-round snapshot work stays off unless asked for.
    pub timeline_out: Option<String>,
}

impl DiagConfig {
    /// Whether any learning-dynamics diagnostic work should happen at all.
    pub fn active(&self) -> bool {
        self.enabled || self.flight_out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_config_activation() {
        assert!(!DiagConfig::default().active());
        assert!(DiagConfig { enabled: true, ..DiagConfig::default() }.active());
        assert!(DiagConfig { flight_out: Some("x".into()), ..DiagConfig::default() }.active());
        // A timeline alone does not switch the snapshot diagnostics on.
        assert!(!DiagConfig { timeline_out: Some("x".into()), ..DiagConfig::default() }.active());
    }
}
