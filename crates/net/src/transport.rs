//! Transport selection and round-level orchestration of [`FlowSim`].
//!
//! The runner speaks to the network through one of two transports:
//!
//! * **Lockstep** — the original accounting: every transfer is priced at
//!   `bytes / bandwidth` with no contention. Byte-identical to the seeded
//!   baselines; the default.
//! * **Flow** — each communication phase (C2S uploads, broadcast
//!   downloads, a migration wave) becomes one [`FlowSim`] in which the
//!   phase's transfers contend for link capacity and run the transport
//!   state machines of [`crate::flow`].
//!
//! This module maps the static [`Topology`] and the epoch's [`FaultModel`]
//! draw onto a per-phase link graph: every client gets a private access
//! link (carrying its per-epoch burst-loss / flap / bandwidth-collapse
//! state) in series with the shared WAN; every migration pair gets its C2C
//! link, with cross-LAN pairs additionally traversing the shared inter-LAN
//! backbone. [`TransportAccum`] folds each phase's outcomes into the
//! run-level [`TransportStats`] and mirrors them to telemetry.

use crate::flow::{FlowConfig, FlowOutcome, FlowSim, FlowTrace};
use crate::{FaultModel, Topology};

/// Which transport the runner charges communication through.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum TransportConfig {
    /// Nominal `bytes / bandwidth` accounting, no contention (the seeded
    /// baseline path).
    #[default]
    Lockstep,
    /// Event-driven flow simulation with shared links, AIMD and
    /// timeout/retransmission state machines.
    Flow(FlowConfig),
}

impl TransportConfig {
    /// The flow transport with the standard profile.
    pub fn flow(seed: u64) -> Self {
        Self::Flow(FlowConfig::standard(seed))
    }

    /// The flow tuning when the flow transport is active.
    pub fn flow_config(&self) -> Option<&FlowConfig> {
        match self {
            Self::Lockstep => None,
            Self::Flow(cfg) => Some(cfg),
        }
    }

    /// `"lockstep"` or `"flow"` — the CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lockstep => "lockstep",
            Self::Flow(_) => "flow",
        }
    }
}

/// Result of simulating one C2S phase (uploads or downloads): per-client
/// outcomes in the order the clients were passed, plus phase aggregates.
#[derive(Clone, Debug)]
pub struct PhaseSim {
    /// Outcome per transfer, in input order.
    pub outcomes: Vec<FlowOutcome>,
    /// Time from phase start until the last flow settled.
    pub makespan: f64,
    /// Mean utilization of the links that carried traffic.
    pub mean_link_utilization: f64,
    /// Flow/link trace annotated with topology labels. `None` unless the
    /// phase ran through a `*_traced` entry point with tracing requested.
    pub trace: Option<PhaseTrace>,
}

/// A [`FlowTrace`] plus the topology-level naming the raw simulator cannot
/// know: which link index is the WAN versus which client's access link, and
/// which client (or migration source) owns each flow.
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    /// Stable label per link index: `"wan"`, `"access:<client>"`,
    /// `"backbone"` or `"pair:<src>-<dst>"`.
    pub link_labels: Vec<String>,
    /// Capacity (bytes/s) per link index, after fault scaling.
    pub link_capacity: Vec<f64>,
    /// Owning client per flow index: the uploader/downloader for C2S
    /// phases, the migration source for migration waves.
    pub flow_owners: Vec<usize>,
    /// Link indices each flow traverses, in path order.
    pub flow_paths: Vec<Vec<usize>>,
    /// The raw event/series trace from the simulator.
    pub flow: FlowTrace,
}

/// Simulates `clients`' same-direction C2S transfers of `bytes` each as
/// concurrent flows: private access links (carrying the per-client fault
/// state) in series with the shared WAN. Uploads and downloads are
/// separate phases, so one call covers one direction.
pub fn simulate_c2s(
    topo: &Topology,
    fault: &FaultModel,
    epoch: usize,
    cfg: &FlowConfig,
    clients: &[usize],
    bytes: u64,
) -> PhaseSim {
    simulate_c2s_traced(topo, fault, epoch, cfg, clients, bytes, false)
}

/// [`simulate_c2s`] with optional tracing: when `traced`, the returned
/// [`PhaseSim::trace`] carries labelled flow events and link time series.
/// The simulated outcomes are identical either way.
pub fn simulate_c2s_traced(
    topo: &Topology,
    fault: &FaultModel,
    epoch: usize,
    cfg: &FlowConfig,
    clients: &[usize],
    bytes: u64,
    traced: bool,
) -> PhaseSim {
    let mut sim = FlowSim::new(phase_cfg(cfg, epoch, 1));
    if traced {
        sim.enable_trace();
    }
    let mut pt = PhaseTrace::default();
    let wan_bw = topo.c2s_bandwidth(epoch);
    let wan = sim.add_link(wan_bw, 0.0, topo.c2s_latency(), None);
    if traced {
        pt.link_labels.push("wan".into());
        pt.link_capacity.push(wan_bw);
    }
    let flows: Vec<_> = clients
        .iter()
        .map(|&c| {
            let collapse = fault.link_bw_collapse(c, usize::MAX, epoch);
            let loss = fault.link_burst_loss(c, usize::MAX, epoch);
            let flap = fault.link_flap(c, usize::MAX, epoch);
            let access = sim.add_link(wan_bw * collapse, loss, 0.0, flap);
            if traced {
                pt.link_labels.push(format!("access:{c}"));
                pt.link_capacity.push(wan_bw * collapse);
                pt.flow_owners.push(c);
                pt.flow_paths.push(vec![access.index(), wan.index()]);
            }
            sim.add_flow(&[access, wan], bytes)
        })
        .collect();
    sim.run();
    PhaseSim {
        outcomes: flows.into_iter().map(|f| sim.outcome(f)).collect(),
        makespan: sim.makespan(),
        mean_link_utilization: sim.mean_link_utilization(),
        trace: sim.take_trace().map(|flow| {
            pt.flow = flow;
            pt
        }),
    }
}

/// Simulates a migration wave: each `(src, dst)` move is a flow over its
/// C2C pair link (per-epoch quality, collapse, burst loss and flap
/// applied; a fault-downed link becomes zero-capacity, so its flow stalls
/// into timeouts and fails deterministically). Cross-LAN moves additionally
/// share the inter-LAN backbone.
pub fn simulate_migrations(
    topo: &Topology,
    fault: &FaultModel,
    epoch: usize,
    cfg: &FlowConfig,
    moves: &[(usize, usize)],
    bytes: u64,
) -> PhaseSim {
    simulate_migrations_traced(topo, fault, epoch, cfg, moves, bytes, false)
}

/// [`simulate_migrations`] with optional tracing; see
/// [`simulate_c2s_traced`].
pub fn simulate_migrations_traced(
    topo: &Topology,
    fault: &FaultModel,
    epoch: usize,
    cfg: &FlowConfig,
    moves: &[(usize, usize)],
    bytes: u64,
    traced: bool,
) -> PhaseSim {
    let mut sim = FlowSim::new(phase_cfg(cfg, epoch, 2));
    if traced {
        sim.enable_trace();
    }
    let mut pt = PhaseTrace::default();
    let backbone_bw = topo.backbone_bandwidth(epoch);
    let backbone = sim.add_link(backbone_bw, 0.0, 0.0, None);
    if traced {
        pt.link_labels.push("backbone".into());
        pt.link_capacity.push(backbone_bw);
    }
    let mut pair_links = std::collections::HashMap::new();
    let flows: Vec<_> = moves
        .iter()
        .map(|&(src, dst)| {
            let key = (src.min(dst), src.max(dst));
            let pair = *pair_links.entry(key).or_insert_with(|| {
                let bw = if fault.link_up(src, dst, epoch) {
                    topo.c2c_bandwidth(src, dst, epoch)
                        * fault.link_quality(src, dst, epoch)
                        * fault.link_bw_collapse(src, dst, epoch)
                } else {
                    0.0
                };
                let loss = fault.link_burst_loss(src, dst, epoch);
                let flap = fault.link_flap(src, dst, epoch);
                let id = sim.add_link(bw, loss, topo.c2c_latency(src, dst), flap);
                if traced {
                    pt.link_labels.push(format!("pair:{}-{}", key.0, key.1));
                    pt.link_capacity.push(bw);
                }
                id
            });
            let path: Vec<_> =
                if topo.same_lan(src, dst) { vec![pair] } else { vec![pair, backbone] };
            if traced {
                pt.flow_owners.push(src);
                pt.flow_paths.push(path.iter().map(|l| l.index()).collect());
            }
            sim.add_flow(&path, bytes)
        })
        .collect();
    sim.run();
    PhaseSim {
        outcomes: flows.into_iter().map(|f| sim.outcome(f)).collect(),
        makespan: sim.makespan(),
        mean_link_utilization: sim.mean_link_utilization(),
        trace: sim.take_trace().map(|flow| {
            pt.flow = flow;
            pt
        }),
    }
}

/// Domain-separates the loss schedule per `(epoch, phase)` so each phase
/// rolls independent losses from the same configured seed.
fn phase_cfg(cfg: &FlowConfig, epoch: usize, phase: u64) -> FlowConfig {
    FlowConfig::standard(
        cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add((epoch as u64) << 8 | phase),
    )
}

/// Per-round upload deadline as a multiple of the *median* completed upload
/// time; uploads finishing later are folded in as stale on a later round.
const UPLOAD_DEADLINE_FACTOR: f64 = 3.0;

/// Per-round upload deadline: three times the median *completed* upload
/// time. Infinite when nothing completed (the round then
/// waits for every flow to settle).
pub fn upload_deadline(outcomes: &[FlowOutcome]) -> f64 {
    let mut finished: Vec<f64> =
        outcomes.iter().filter(|o| o.completed).map(|o| o.finish).collect();
    if finished.is_empty() {
        return f64::INFINITY;
    }
    finished.sort_by(f64::total_cmp);
    UPLOAD_DEADLINE_FACTOR * finished[finished.len() / 2]
}

/// Run-level transport aggregates, surfaced in `RunMetrics`. All zeros
/// under the lockstep transport. Byte fields satisfy the same conservation
/// rule as [`FlowOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransportStats {
    /// Transfers simulated as flows.
    pub flows: u64,
    /// Flows that exhausted their timeout budget and failed.
    pub failed_flows: u64,
    /// Segments lost and retransmitted.
    pub retransmits: u64,
    /// Retransmission timeouts fired (stalls with no capacity).
    pub timeouts: u64,
    /// Bytes burned by retransmissions.
    pub retransmit_bytes: u64,
    /// Median per-flow queueing delay in seconds.
    pub queue_delay_p50: f64,
    /// 99th-percentile per-flow queueing delay in seconds.
    pub queue_delay_p99: f64,
    /// Mean link utilization across simulated phases.
    pub mean_link_utilization: f64,
    /// Uploads that completed after their round's deadline.
    pub late_uploads: u64,
    /// Late uploads folded into a later aggregation with a staleness
    /// discount.
    pub stale_updates_folded: u64,
    /// Late uploads dropped because they aged past the staleness window.
    pub stale_updates_dropped: u64,
}

impl TransportStats {
    /// Whether any flow was simulated (false for lockstep runs).
    pub fn any(&self) -> bool {
        self.flows > 0
    }
}

fedmigr_telemetry::wire_fields!(TransportStats:
    flows, failed_flows, retransmits, timeouts, retransmit_bytes, queue_delay_p50,
    queue_delay_p99, mean_link_utilization, late_uploads, stale_updates_folded,
    stale_updates_dropped
);

/// Accumulates per-phase [`PhaseSim`] results into [`TransportStats`] over
/// a run, mirroring counters and gauges to telemetry as it goes.
#[derive(Clone, Debug, Default)]
pub struct TransportAccum {
    stats: TransportStats,
    queue_delays: Vec<f64>,
    utils: Vec<f64>,
}

impl TransportAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one simulated phase in.
    pub fn absorb(&mut self, phase: &PhaseSim) {
        use fedmigr_telemetry::{metrics, names};
        for o in &phase.outcomes {
            self.stats.flows += 1;
            self.stats.retransmits += o.retransmits;
            self.stats.timeouts += o.timeouts;
            self.stats.retransmit_bytes += o.retransmit_bytes;
            if !o.completed {
                self.stats.failed_flows += 1;
            }
            self.queue_delays.push(o.queue_delay);
            metrics::observe(names::QUEUE_DELAY_SECONDS, &[], o.queue_delay);
        }
        if !phase.outcomes.is_empty() {
            self.utils.push(phase.mean_link_utilization);
            metrics::set(names::LINK_UTILIZATION, &[], phase.mean_link_utilization);
            let retx: u64 = phase.outcomes.iter().map(|o| o.retransmits).sum();
            let touts: u64 = phase.outcomes.iter().map(|o| o.timeouts).sum();
            metrics::add(names::RETRANSMITS_TOTAL, &[], retx);
            metrics::add(names::FLOW_TIMEOUTS_TOTAL, &[], touts);
        }
    }

    /// Records an upload that finished after its round deadline.
    pub fn note_late_upload(&mut self) {
        self.stats.late_uploads += 1;
    }

    /// Records `n` stale updates folded into an aggregation.
    pub fn note_stale_folded(&mut self, n: u64) {
        self.stats.stale_updates_folded += n;
    }

    /// Records `n` stale updates dropped past the staleness window.
    pub fn note_stale_dropped(&mut self, n: u64) {
        self.stats.stale_updates_dropped += n;
    }

    /// Cumulative retransmits so far (for per-epoch bookkeeping).
    pub fn retransmits(&self) -> u64 {
        self.stats.retransmits
    }

    /// Cumulative late uploads so far (for per-epoch bookkeeping).
    pub fn late_uploads(&self) -> u64 {
        self.stats.late_uploads
    }

    /// Finalizes the run-level stats (computes the queue-delay percentiles
    /// and mean utilization).
    pub fn finish(&self) -> TransportStats {
        let mut out = self.stats;
        if !self.queue_delays.is_empty() {
            let mut d = self.queue_delays.clone();
            d.sort_by(f64::total_cmp);
            out.queue_delay_p50 = d[d.len() / 2];
            out.queue_delay_p99 = d[((d.len() as f64 * 0.99) as usize).min(d.len() - 1)];
        }
        if !self.utils.is_empty() {
            out.mean_link_utilization = self.utils.iter().sum::<f64>() / self.utils.len() as f64;
        }
        out
    }
}

// The running stats plus the raw per-flow queue-delay and per-phase
// utilization samples the final percentiles are computed from. A restore
// overwrites them directly, bypassing `absorb`, so it does not re-emit
// telemetry for phases already counted.
fedmigr_telemetry::wire_fields!(TransportAccum: stats, queue_delays, utils);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, TopologyConfig};

    fn topo() -> Topology {
        Topology::new(&TopologyConfig::c10_sim(42))
    }

    #[test]
    fn transport_config_names_and_default() {
        assert_eq!(TransportConfig::default().name(), "lockstep");
        assert_eq!(TransportConfig::flow(3).name(), "flow");
        assert!(TransportConfig::default().flow_config().is_none());
        assert!(TransportConfig::flow(3).flow_config().is_some());
    }

    #[test]
    fn concurrent_uploads_contend_for_the_wan() {
        let t = topo();
        let f = FaultModel::none(10);
        let cfg = FlowConfig::standard(5);
        let one = simulate_c2s(&t, &f, 0, &cfg, &[0], 1_000_000);
        let ten: Vec<usize> = (0..10).collect();
        let all = simulate_c2s(&t, &f, 0, &cfg, &ten, 1_000_000);
        assert!(one.outcomes[0].completed && all.outcomes.iter().all(|o| o.completed));
        assert!(
            all.makespan > 5.0 * one.makespan,
            "10 concurrent uploads must be far slower than one: {} vs {}",
            all.makespan,
            one.makespan
        );
    }

    #[test]
    fn faulted_migration_link_fails_its_flow_only() {
        let t = topo();
        // Crank link outages until a move lands on a downed link.
        let f = FaultModel::new(
            FaultConfig { link_outage_prob: 0.5, ..FaultConfig::edge_churn(0.3, 7) },
            10,
        );
        let cfg = FlowConfig::standard(5);
        let moves: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 5)).collect();
        let mut seen_fail = false;
        let mut seen_ok = false;
        for epoch in 0..20 {
            let sim = simulate_migrations(&t, &f, epoch, &cfg, &moves, 300_000);
            for (o, &(s, d)) in sim.outcomes.iter().zip(&moves) {
                if f.link_up(s, d, epoch) {
                    seen_ok |= o.completed;
                } else {
                    assert!(!o.completed, "downed link {s}<->{d} must fail its flow");
                    seen_fail = true;
                }
            }
        }
        assert!(seen_fail && seen_ok, "need both outcomes exercised");
    }

    #[test]
    fn cross_lan_moves_share_the_backbone() {
        let t = topo();
        let f = FaultModel::none(10);
        let cfg = FlowConfig::standard(5);
        // Many concurrent cross-LAN moves: per-pair links are disjoint, so
        // any slowdown beyond the slowest pair is backbone contention.
        let moves: Vec<(usize, usize)> = vec![(0, 4), (1, 5), (2, 6), (3, 7)];
        let together = simulate_migrations(&t, &f, 0, &cfg, &moves, 2_000_000);
        let solo_worst = moves
            .iter()
            .map(|&(s, d)| simulate_migrations(&t, &f, 0, &cfg, &[(s, d)], 2_000_000).makespan)
            .fold(0.0, f64::max);
        assert!(together.outcomes.iter().all(|o| o.completed));
        assert!(
            together.makespan > solo_worst * 1.05,
            "backbone sharing must slow the wave: {} vs {}",
            together.makespan,
            solo_worst
        );
    }

    #[test]
    fn traced_phases_match_untraced_and_label_every_link() {
        let t = topo();
        let f = FaultModel::new(FaultConfig::edge_churn(0.3, 7), 10);
        let cfg = FlowConfig::standard(5);
        let clients: Vec<usize> = (0..6).collect();

        let plain = simulate_c2s(&t, &f, 2, &cfg, &clients, 400_000);
        let traced = simulate_c2s_traced(&t, &f, 2, &cfg, &clients, 400_000, true);
        assert!(plain.trace.is_none());
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.makespan, traced.makespan);
        let pt = traced.trace.expect("trace requested");
        assert_eq!(pt.link_labels[0], "wan");
        assert_eq!(pt.link_labels.len(), clients.len() + 1);
        assert_eq!(pt.link_labels.len(), pt.link_capacity.len());
        assert_eq!(pt.flow_owners, clients);
        assert_eq!(pt.link_labels.len(), pt.flow.links.len());
        for (i, path) in pt.flow_paths.iter().enumerate() {
            assert_eq!(path, &[i + 1, 0], "client flow crosses access then wan");
        }
        assert!(!pt.flow.events.is_empty());

        let moves = vec![(0, 4), (1, 5), (2, 3)];
        let plain = simulate_migrations(&t, &f, 2, &cfg, &moves, 300_000);
        let traced = simulate_migrations_traced(&t, &f, 2, &cfg, &moves, 300_000, true);
        assert_eq!(plain.outcomes, traced.outcomes);
        let pt = traced.trace.expect("trace requested");
        assert_eq!(pt.link_labels[0], "backbone");
        assert!(pt.link_labels.iter().skip(1).all(|l| l.starts_with("pair:")));
        assert_eq!(pt.flow_owners, vec![0, 1, 2]);
        for path in &pt.flow_paths {
            assert!(pt.link_labels.len() > *path.iter().max().unwrap());
        }
    }

    #[test]
    fn deadline_is_a_median_multiple() {
        let mk = |finish: f64, completed: bool| FlowOutcome {
            completed,
            finish,
            ..FlowOutcome::default()
        };
        let outs = vec![mk(1.0, true), mk(2.0, true), mk(9.0, true), mk(50.0, false)];
        assert_eq!(upload_deadline(&outs), 6.0);
        assert_eq!(upload_deadline(&[mk(5.0, false)]), f64::INFINITY);
    }

    #[test]
    fn accum_summarizes_phases() {
        let mut acc = TransportAccum::new();
        let phase = PhaseSim {
            outcomes: vec![
                FlowOutcome {
                    completed: true,
                    retransmits: 2,
                    retransmit_bytes: 100,
                    queue_delay: 0.5,
                    ..FlowOutcome::default()
                },
                FlowOutcome { completed: false, timeouts: 3, ..FlowOutcome::default() },
            ],
            makespan: 1.0,
            mean_link_utilization: 0.8,
            trace: None,
        };
        acc.absorb(&phase);
        acc.note_late_upload();
        acc.note_stale_folded(2);
        acc.note_stale_dropped(1);
        let s = acc.finish();
        assert!(s.any());
        assert_eq!(s.flows, 2);
        assert_eq!(s.failed_flows, 1);
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.timeouts, 3);
        assert_eq!(s.retransmit_bytes, 100);
        assert_eq!(s.late_uploads, 1);
        assert_eq!(s.stale_updates_folded, 2);
        assert_eq!(s.stale_updates_dropped, 1);
        assert_eq!(s.queue_delay_p50, 0.5);
        assert!((s.mean_link_utilization - 0.8).abs() < 1e-12);
        assert!(!TransportStats::default().any());
    }
}
