//! Event-driven MEC network simulator for the FedMigr reproduction.
//!
//! The paper's evaluation runs on (a) a simulated topology of clients
//! grouped into LANs behind one edge server, and (b) a 30-device test-bed
//! whose parameter server sits across a ~50 Mbps WAN. Both reduce to the
//! same accounting: a transfer of `bytes` over a link of bandwidth `bw`
//! takes `bytes / bw` seconds, client-to-server (C2S) traffic crosses the
//! scarce WAN, and client-to-client (C2C) traffic is cheap inside a LAN and
//! of mixed speed across LANs. This crate implements that accounting:
//!
//! * [`Topology`] — LAN membership, C2S bandwidths, a seeded C2C bandwidth
//!   matrix with fast/moderate/slow speed classes (Fig. 8) and optional
//!   per-epoch jitter (the "time-varying wireless links" of Sec. III-B),
//! * [`ClientCompute`] — heterogeneous per-client training speeds (the
//!   test-bed's mix of Jetson TX2 and Xavier NX devices),
//! * [`ResourceMeter`] / [`ResourceBudget`] — the computation and bandwidth
//!   budgets `B_c`, `B_b` of the FLMM problem (Eq. 16), split into C2S and
//!   local/global C2C traffic,
//! * [`SimClock`] — virtual wall-clock time of a synchronous FL round,
//! * [`FlowSim`] / [`TransportConfig`] — an event-driven flow transport in
//!   which concurrent transfers share link capacity max-min fairly and
//!   run timeout/retransmission state machines with AIMD congestion
//!   control; the lockstep accounting above remains the default and stays
//!   byte-identical to the seeded baselines.

pub mod attack;
mod budget;
mod clock;
mod compute;
pub mod fault;
pub mod flow;
mod topology;
pub mod transport;

pub use attack::{AttackConfig, AttackKind, AttackModel};
pub use budget::{ResourceBudget, ResourceMeter, TrafficBreakdown};
pub use clock::SimClock;
pub use compute::{ClientCompute, DeviceTier};
pub use fault::{retry_backoff, FaultConfig, FaultModel, MAX_RETRIES};
pub use flow::{FlowConfig, FlowEvent, FlowEventKind, FlowOutcome, FlowSim, FlowTrace, LinkSeries};
pub use topology::{LinkClass, Topology, TopologyConfig};
pub use transport::{
    simulate_c2s, simulate_c2s_traced, simulate_migrations, simulate_migrations_traced,
    upload_deadline, PhaseSim, PhaseTrace, TransportAccum, TransportConfig, TransportStats,
};

/// Seconds to move `bytes` over a link of `bandwidth` bytes/second, or
/// `None` when the link is effectively down (`bandwidth` zero, negative, or
/// NaN — e.g. a fault-injected outage).
pub fn try_transfer_time(bytes: u64, bandwidth: f64) -> Option<f64> {
    if bandwidth > 0.0 {
        Some(bytes as f64 / bandwidth)
    } else {
        None
    }
}

/// Transfer time including a one-way propagation latency, or `None` when
/// the link is down. See [`try_transfer_time`].
pub fn try_transfer_time_with_latency(bytes: u64, bandwidth: f64, latency: f64) -> Option<f64> {
    assert!(latency >= 0.0, "latency must be non-negative");
    try_transfer_time(bytes, bandwidth).map(|t| latency + t)
}

/// Seconds to move `bytes` over a link of `bandwidth` bytes/second.
///
/// Convenience wrapper over [`try_transfer_time`] for call sites that never
/// see fault-injected links.
///
/// # Panics
/// Panics if `bandwidth` is not strictly positive.
pub fn transfer_time(bytes: u64, bandwidth: f64) -> f64 {
    try_transfer_time(bytes, bandwidth).expect("bandwidth must be positive")
}

/// Transfer time including a one-way propagation latency.
///
/// # Panics
/// Panics if `bandwidth` is not strictly positive.
pub fn transfer_time_with_latency(bytes: u64, bandwidth: f64, latency: f64) -> f64 {
    try_transfer_time_with_latency(bytes, bandwidth, latency).expect("bandwidth must be positive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_linear() {
        assert_eq!(transfer_time(100, 50.0), 2.0);
        assert_eq!(transfer_time(0, 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn transfer_time_rejects_zero_bandwidth() {
        let _ = transfer_time(1, 0.0);
    }

    #[test]
    fn latency_adds_a_constant() {
        assert_eq!(transfer_time_with_latency(100, 50.0, 0.5), 2.5);
        assert_eq!(transfer_time_with_latency(0, 50.0, 0.1), 0.1);
    }

    #[test]
    fn try_variants_signal_downed_links_instead_of_panicking() {
        assert_eq!(try_transfer_time(100, 50.0), Some(2.0));
        assert_eq!(try_transfer_time(100, 0.0), None);
        assert_eq!(try_transfer_time(100, -1.0), None);
        assert_eq!(try_transfer_time(100, f64::NAN), None);
        assert_eq!(try_transfer_time_with_latency(100, 50.0, 0.5), Some(2.5));
        assert_eq!(try_transfer_time_with_latency(100, 0.0, 0.5), None);
    }
}
