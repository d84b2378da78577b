//! Deterministic event-driven flow simulator.
//!
//! The lockstep accounting in [`crate::transfer_time`] prices every
//! transfer at `bytes / bandwidth` as if it had the wire to itself. This
//! module replaces that with a fluid *flow* model: concurrent transfers
//! share link capacity max-min fairly (the fluid limit of per-flow fair
//! queueing), and every transfer runs a small transport state machine —
//! segments are lost to burst loss and retransmitted, an AIMD congestion
//! window throttles the send rate, and a flow that gets no capacity
//! (downed or flapping link) arms a retransmission timeout with bounded
//! exponential backoff before giving up. A transfer's completion time therefore depends on what else
//! is on the wire, not on a fixed nominal latency.
//!
//! The simulator is a *pure* function of its inputs: capacities, flows and
//! the loss seed. Loss rolls use the same SplitMix64 hash family as
//! [`crate::FaultModel`] (no shared RNG stream), event ties are broken by
//! flow index, and time only advances to explicitly computed event times —
//! so the same setup replays bit-identically, which the runner's
//! determinism contract relies on.

use crate::fault::hash_unit;

/// Segment size in bytes — the granularity of loss, retransmission and
/// congestion-window accounting.
const SEGMENT_BYTES: u64 = 16 * 1024;
/// Initial congestion window in segments.
const INIT_CWND: u32 = 4;
/// Slow-start threshold in segments; below it the window grows by one
/// segment per delivered segment, above it by roughly one per window.
const SSTHRESH: u32 = 32;
/// Congestion-window ceiling in segments.
const MAX_CWND: u32 = 256;
/// Round-trip-time floor in seconds; the window caps the send rate at
/// `cwnd * SEGMENT_BYTES / max(MIN_RTT_S, 2 * path_latency)`.
const MIN_RTT_S: f64 = 0.01;
/// Retransmission timeout armed when a flow receives no capacity, in
/// seconds.
const BASE_RTO_S: f64 = 0.25;
/// Multiplicative RTO growth per consecutive timeout.
const RTO_BACKOFF: f64 = 2.0;
/// Consecutive timeouts tolerated before the flow fails. Bounds how long a
/// flow can stall on a dead link, so rounds never hang.
const MAX_TIMEOUTS: u32 = 5;

/// Tuning of the flow transport: the seed of its loss schedule. The
/// TCP-like profile is fixed — 16 KiB segments, a 4-segment initial window,
/// a 10 ms RTT floor, a 250 ms base RTO doubling up to five timeouts — and
/// sized for model-scale transfers (hundreds of KB) on megabyte-per-second
/// edge links. Shared links split their capacity max-min fairly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowConfig {
    /// Seed of the per-segment loss schedule.
    pub seed: u64,
}

impl FlowConfig {
    /// The flow transport with loss schedule `seed`.
    pub fn standard(seed: u64) -> Self {
        Self { seed }
    }
}

/// Handle to a link added to a [`FlowSim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkId(usize);

impl LinkId {
    /// Admission-order index of the link; matches [`LinkSeries::link`].
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to a flow added to a [`FlowSim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowId(usize);

impl FlowId {
    /// Admission-order index of the flow; matches [`FlowEvent::flow`].
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Result of one flow after [`FlowSim::run`]. Byte accounting satisfies
/// `wire_bytes == delivered_bytes + retransmit_bytes` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowOutcome {
    /// Whether the whole payload was delivered.
    pub completed: bool,
    /// Completion (or failure) time in seconds from simulation start.
    pub finish: f64,
    /// Payload size requested.
    pub payload_bytes: u64,
    /// Payload bytes actually delivered (equals `payload_bytes` when
    /// completed; partial progress when failed).
    pub delivered_bytes: u64,
    /// Bytes put on the wire, including retransmitted segments.
    pub wire_bytes: u64,
    /// Bytes burned by retransmissions alone.
    pub retransmit_bytes: u64,
    /// Number of lost-and-retransmitted segments.
    pub retransmits: u64,
    /// Number of retransmission timeouts (stalls with no capacity).
    pub timeouts: u64,
    /// Seconds spent queued with zero allocated rate.
    pub queue_delay: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum FlowState {
    Running,
    Backoff { until: f64 },
    Done { at: f64 },
    Failed { at: f64 },
}

struct Link {
    capacity: f64,
    loss: f64,
    latency: f64,
    /// `Some((period, phase))` — up during the first half of each cycle.
    flap: Option<(f64, f64)>,
    served_bytes: f64,
}

impl Link {
    fn up_at(&self, t: f64) -> bool {
        match self.flap {
            None => true,
            Some((period, phase)) => ((t + phase) % period) < period / 2.0,
        }
    }

    /// Next flap boundary strictly after `t`, if the link flaps.
    fn next_toggle(&self, t: f64) -> Option<f64> {
        let (period, phase) = self.flap?;
        let half = period / 2.0;
        let pos = (t + phase) % half;
        Some(t + (half - pos).max(half * 1e-9))
    }
}

struct Flow {
    path: Vec<usize>,
    bytes: u64,
    remaining: f64,
    seg_size: f64,
    seg_sent: f64,
    tx_counter: u64,
    state: FlowState,
    cwnd: f64,
    ssthresh: f64,
    rto: f64,
    strikes: u32,
    stall_since: Option<f64>,
    retransmits: u64,
    timeouts: u64,
    wire_bytes: f64,
    retransmit_bytes: f64,
    queue_delay: f64,
    rtt: f64,
    rate: f64,
}

/// One traced flow lifecycle event. Every event carries the flow's
/// congestion window at emission time, so the event stream doubles as the
/// sampled cwnd trajectory (dense around losses and timeouts, sparse on
/// smooth stretches — [`FlowEventKind::Cwnd`] fills integer crossings).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowEvent {
    /// Simulation time of the event, seconds from phase start.
    pub t: f64,
    /// Flow index in admission order.
    pub flow: usize,
    /// What happened.
    pub kind: FlowEventKind,
    /// Congestion window (segments) right after the event applied.
    pub cwnd: f64,
}

/// The traced flow event taxonomy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowEventKind {
    /// Flow admitted with this payload.
    Start {
        /// Payload bytes requested.
        bytes: u64,
    },
    /// Allocated send rate changed to this value (bytes/second).
    Rate {
        /// New instantaneous rate.
        rate: f64,
    },
    /// A segment was lost and will be retransmitted (window halved).
    Retransmit,
    /// Retransmission timeout fired after a capacity stall.
    Timeout {
        /// Consecutive strike count after this timeout.
        strikes: u32,
    },
    /// Backoff expired; the flow resumed sending.
    BackoffEnd,
    /// Congestion window crossed an integer boundary while growing.
    Cwnd,
    /// Whole payload delivered.
    Done,
    /// Flow gave up (strike budget or horizon).
    Failed,
}

impl FlowEventKind {
    /// Stable lower-case label used in timeline exports.
    pub fn name(self) -> &'static str {
        match self {
            FlowEventKind::Start { .. } => "start",
            FlowEventKind::Rate { .. } => "rate",
            FlowEventKind::Retransmit => "retransmit",
            FlowEventKind::Timeout { .. } => "timeout",
            FlowEventKind::BackoffEnd => "backoff_end",
            FlowEventKind::Cwnd => "cwnd",
            FlowEventKind::Done => "done",
            FlowEventKind::Failed => "failed",
        }
    }
}

/// Step-function time series for one link: instantaneous utilization
/// (allocated rate over capacity) and queue depth (running flows on the
/// link holding zero rate), sampled at rate-assignment boundaries and
/// coalesced so consecutive identical samples collapse into one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkSeries {
    /// Link index in admission order.
    pub link: usize,
    /// Sample times, ascending.
    pub t: Vec<f64>,
    /// Utilization in `[0, 1]` at each sample time.
    pub util: Vec<f64>,
    /// Queued-flow count at each sample time.
    pub queue: Vec<u32>,
}

/// Everything recorded by a traced [`FlowSim::run`]: the time-ordered flow
/// event log and the per-link utilization/queue series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowTrace {
    /// Flow lifecycle events in non-decreasing time order.
    pub events: Vec<FlowEvent>,
    /// One series per link, indexed by link admission order.
    pub links: Vec<LinkSeries>,
}

/// Internal recorder state; boxed so the untraced simulator stays small
/// and the disabled path costs one `Option` branch per instrumentation
/// point.
struct TraceState {
    trace: FlowTrace,
    last_rate: Vec<f64>,
    last_cwnd_floor: Vec<f64>,
    last_util: Vec<f64>,
    last_queue: Vec<u32>,
}

impl TraceState {
    fn push(&mut self, t: f64, flow: usize, kind: FlowEventKind, cwnd: f64) {
        self.trace.events.push(FlowEvent { t, flow, kind, cwnd });
    }
}

const EPS_BYTES: f64 = 1e-6;
const EPS_RATE: f64 = 1e-6;
const EPS_TIME: f64 = 1e-9;
/// Hard horizon: any flow still in flight this far in is declared failed.
/// Unreachable in practice (timeout strikes fail flows much earlier); this
/// is the belt-and-braces guarantee that rounds terminate.
const HORIZON_S: f64 = 1e7;
const TAG_FLOW_LOSS: u64 = 101;

/// The event-driven simulator. Build one per communication phase: add the
/// links, add the flows, [`FlowSim::run`], then read the outcomes.
pub struct FlowSim {
    cfg: FlowConfig,
    links: Vec<Link>,
    flows: Vec<Flow>,
    now: f64,
    trace: Option<Box<TraceState>>,
}

impl FlowSim {
    /// An empty simulation at time zero.
    pub fn new(cfg: FlowConfig) -> Self {
        Self { cfg, links: Vec::new(), flows: Vec::new(), now: 0.0, trace: None }
    }

    /// Turns on event/series tracing. Strictly observation-only: traced and
    /// untraced runs of the same setup produce bit-identical outcomes (the
    /// recorder never touches rates, clocks or the loss hash stream).
    pub fn enable_trace(&mut self) {
        if self.trace.is_some() {
            return;
        }
        let mut st = Box::new(TraceState {
            trace: FlowTrace::default(),
            last_rate: vec![0.0; self.flows.len()],
            last_cwnd_floor: self.flows.iter().map(|f| f.cwnd.floor()).collect(),
            last_util: vec![0.0; self.links.len()],
            last_queue: vec![0; self.links.len()],
        });
        for (l, _) in self.links.iter().enumerate() {
            st.trace.links.push(LinkSeries { link: l, ..LinkSeries::default() });
        }
        for (i, f) in self.flows.iter().enumerate() {
            st.push(self.now, i, FlowEventKind::Start { bytes: f.bytes }, f.cwnd);
            if matches!(f.state, FlowState::Done { .. }) {
                st.push(self.now, i, FlowEventKind::Done, f.cwnd);
            }
        }
        self.trace = Some(st);
    }

    /// Takes the recording accumulated since [`FlowSim::enable_trace`] (or
    /// `None` if tracing was never enabled) and disables tracing.
    pub fn take_trace(&mut self) -> Option<FlowTrace> {
        self.trace.take().map(|st| st.trace)
    }

    /// Adds a link. `capacity` may be zero to model a hard outage (flows on
    /// it stall into timeouts and fail); `loss` is the per-segment loss
    /// rate in `[0, 1)`; `flap` is `Some((period, phase))` for a flapping
    /// link.
    pub fn add_link(
        &mut self,
        capacity: f64,
        loss: f64,
        latency: f64,
        flap: Option<(f64, f64)>,
    ) -> LinkId {
        assert!(capacity >= 0.0 && capacity.is_finite(), "bad capacity {capacity}");
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        assert!(latency >= 0.0, "latency must be non-negative");
        if let Some((period, phase)) = flap {
            assert!(period > 0.0 && (0.0..=period).contains(&phase), "bad flap cycle");
        }
        self.links.push(Link { capacity, loss, latency, flap, served_bytes: 0.0 });
        if let Some(st) = self.trace.as_deref_mut() {
            st.trace.links.push(LinkSeries { link: self.links.len() - 1, ..LinkSeries::default() });
            st.last_util.push(0.0);
            st.last_queue.push(0);
        }
        LinkId(self.links.len() - 1)
    }

    /// Adds a flow of `bytes` across `path` (all links traversed in
    /// series; the slowest governs).
    pub fn add_flow(&mut self, path: &[LinkId], bytes: u64) -> FlowId {
        assert!(!path.is_empty(), "flow needs at least one link");
        let path: Vec<usize> = path.iter().map(|l| l.0).collect();
        let latency: f64 = path.iter().map(|&l| self.links[l].latency).sum();
        let seg = (SEGMENT_BYTES as f64).min((bytes as f64).max(1.0));
        self.flows.push(Flow {
            path,
            bytes,
            remaining: bytes as f64,
            seg_size: seg,
            seg_sent: 0.0,
            tx_counter: 0,
            state: if bytes == 0 { FlowState::Done { at: 0.0 } } else { FlowState::Running },
            cwnd: INIT_CWND as f64,
            ssthresh: SSTHRESH as f64,
            rto: BASE_RTO_S,
            strikes: 0,
            stall_since: None,
            retransmits: 0,
            timeouts: 0,
            wire_bytes: 0.0,
            retransmit_bytes: 0.0,
            queue_delay: 0.0,
            rtt: MIN_RTT_S.max(2.0 * latency),
            rate: 0.0,
        });
        let i = self.flows.len() - 1;
        if let Some(st) = self.trace.as_deref_mut() {
            let f = &self.flows[i];
            st.last_rate.push(0.0);
            st.last_cwnd_floor.push(f.cwnd.floor());
            st.push(self.now, i, FlowEventKind::Start { bytes }, f.cwnd);
            if matches!(f.state, FlowState::Done { .. }) {
                st.push(self.now, i, FlowEventKind::Done, f.cwnd);
            }
        }
        FlowId(i)
    }

    /// Runs every flow to completion or failure. Guaranteed to terminate:
    /// stalls are bounded by the timeout-strike budget and everything else
    /// makes byte progress.
    pub fn run(&mut self) {
        while self.flows.iter().any(|f| !is_settled(f.state)) {
            self.assign_rates();
            let t_next = self.next_event_time();
            debug_assert!(t_next >= self.now - EPS_TIME, "event time went backwards");
            let dt = (t_next - self.now).max(0.0);
            self.integrate(dt);
            self.now = t_next;
            self.fire_events();
            if self.now > HORIZON_S {
                let now = self.now;
                let trace = &mut self.trace;
                for (i, f) in self.flows.iter_mut().enumerate() {
                    if !is_settled(f.state) {
                        f.state = FlowState::Failed { at: now };
                        if let Some(st) = trace.as_deref_mut() {
                            st.push(now, i, FlowEventKind::Failed, f.cwnd);
                        }
                    }
                }
            }
        }
    }

    /// Per-flow rate cap imposed by the congestion window.
    fn cwnd_cap(&self, f: &Flow) -> f64 {
        f.cwnd * SEGMENT_BYTES as f64 / f.rtt
    }

    /// Computes the instantaneous max-min fair rate of every flow
    /// (progressive filling), and starts/clears stall timers accordingly.
    fn assign_rates(&mut self) {
        let caps: Vec<f64> =
            self.links.iter().map(|l| if l.up_at(self.now) { l.capacity } else { 0.0 }).collect();
        let n = self.flows.len();
        let mut rates = vec![0.0f64; n];
        let mut unfrozen: Vec<usize> = (0..n)
            .filter(|&i| {
                let f = &self.flows[i];
                matches!(f.state, FlowState::Running) && f.path.iter().all(|&l| caps[l] > EPS_RATE)
            })
            .collect();
        let mut used = vec![0.0f64; self.links.len()];
        while !unfrozen.is_empty() {
            let mut crossing = vec![0usize; self.links.len()];
            for &i in &unfrozen {
                for &l in &self.flows[i].path {
                    crossing[l] += 1;
                }
            }
            let mut delta = f64::INFINITY;
            for (l, &c) in crossing.iter().enumerate() {
                if c > 0 {
                    delta = delta.min((caps[l] - used[l]).max(0.0) / c as f64);
                }
            }
            for &i in &unfrozen {
                delta = delta.min((self.cwnd_cap(&self.flows[i]) - rates[i]).max(0.0));
            }
            for &i in &unfrozen {
                rates[i] += delta;
                for &l in &self.flows[i].path {
                    used[l] += delta;
                }
            }
            // Freeze flows that hit their window cap or a saturated
            // link; at least one freezes per pass, so this halts.
            let before = unfrozen.len();
            unfrozen.retain(|&i| {
                rates[i] + EPS_RATE < self.cwnd_cap(&self.flows[i])
                    && self.flows[i].path.iter().all(|&l| used[l] + EPS_RATE < caps[l])
            });
            if unfrozen.len() == before {
                break;
            }
        }
        for (i, f) in self.flows.iter_mut().enumerate() {
            f.rate = rates[i];
            if matches!(f.state, FlowState::Running) {
                if f.rate > EPS_RATE {
                    f.stall_since = None;
                } else if f.path.iter().any(|&l| caps[l] <= EPS_RATE) {
                    // No capacity at all on the path (outage or flap-down):
                    // arm the retransmission timeout.
                    if f.stall_since.is_none() {
                        f.stall_since = Some(self.now);
                    }
                } else {
                    // Queued on a live link that has no rate left for it:
                    // waiting is queue delay, not a timeout.
                    f.stall_since = None;
                }
            }
        }
        if let Some(st) = self.trace.as_deref_mut() {
            for (i, f) in self.flows.iter().enumerate() {
                let r = if matches!(f.state, FlowState::Running) { f.rate } else { 0.0 };
                if (r - st.last_rate[i]).abs() > EPS_RATE {
                    st.push(self.now, i, FlowEventKind::Rate { rate: r }, f.cwnd);
                    st.last_rate[i] = r;
                }
            }
            // Per-link instantaneous utilization and queue depth, coalesced
            // into step samples whenever either changes.
            let mut rate_sum = vec![0.0f64; self.links.len()];
            let mut queued = vec![0u32; self.links.len()];
            for f in &self.flows {
                if !matches!(f.state, FlowState::Running) {
                    continue;
                }
                for &l in &f.path {
                    if f.rate > EPS_RATE {
                        rate_sum[l] += f.rate;
                    } else {
                        queued[l] += 1;
                    }
                }
            }
            for (l, link) in self.links.iter().enumerate() {
                let util =
                    if link.capacity > 0.0 { (rate_sum[l] / link.capacity).min(1.0) } else { 0.0 };
                if (util - st.last_util[l]).abs() > 1e-9 || queued[l] != st.last_queue[l] {
                    let s = &mut st.trace.links[l];
                    s.t.push(self.now);
                    s.util.push(util);
                    s.queue.push(queued[l]);
                    st.last_util[l] = util;
                    st.last_queue[l] = queued[l];
                }
            }
        }
    }

    fn next_event_time(&self) -> f64 {
        let mut t = f64::INFINITY;
        let mut any_active_link = vec![false; self.links.len()];
        for f in &self.flows {
            match f.state {
                FlowState::Running => {
                    for &l in &f.path {
                        any_active_link[l] = true;
                    }
                    if f.rate > EPS_RATE {
                        t = t.min(self.now + (f.seg_size - f.seg_sent).max(0.0) / f.rate);
                    } else if let Some(s) = f.stall_since {
                        t = t.min(s + f.rto);
                    }
                }
                FlowState::Backoff { until } => t = t.min(until),
                _ => {}
            }
        }
        for (l, link) in self.links.iter().enumerate() {
            if any_active_link[l] {
                if let Some(toggle) = link.next_toggle(self.now) {
                    t = t.min(toggle);
                }
            }
        }
        // All flows settled is handled by the caller; an active flow always
        // schedules either a segment boundary, an RTO or a backoff expiry.
        debug_assert!(t.is_finite(), "no next event for an active simulation");
        t
    }

    /// Advances byte progress and accounting across `[now, now + dt)`.
    fn integrate(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for f in &mut self.flows {
            if !matches!(f.state, FlowState::Running) {
                continue;
            }
            if f.rate > EPS_RATE {
                f.seg_sent = (f.seg_sent + f.rate * dt).min(f.seg_size);
                for &l in &f.path {
                    self.links[l].served_bytes += f.rate * dt;
                }
            } else {
                f.queue_delay += dt;
            }
        }
    }

    fn fire_events(&mut self) {
        let now = self.now;
        let Self { cfg, links, flows, trace, .. } = self;
        let mut tr = trace.as_deref_mut();
        for (i, f) in flows.iter_mut().enumerate() {
            match f.state {
                FlowState::Running if f.rate > EPS_RATE && f.seg_size - f.seg_sent <= EPS_BYTES => {
                    f.wire_bytes += f.seg_size;
                    let lost = hash_unit(cfg.seed, TAG_FLOW_LOSS, i as u64, f.tx_counter, 0)
                        < path_loss(&f.path, links);
                    f.tx_counter += 1;
                    if lost {
                        f.retransmits += 1;
                        f.retransmit_bytes += f.seg_size;
                        f.seg_sent = 0.0;
                        // Multiplicative decrease; keep at least one
                        // segment in flight.
                        f.cwnd = (f.cwnd / 2.0).max(1.0);
                        f.ssthresh = f.cwnd;
                        if let Some(st) = tr.as_deref_mut() {
                            st.last_cwnd_floor[i] = f.cwnd.floor();
                            st.push(now, i, FlowEventKind::Retransmit, f.cwnd);
                        }
                    } else {
                        f.remaining -= f.seg_size;
                        f.seg_sent = 0.0;
                        f.strikes = 0;
                        f.rto = BASE_RTO_S;
                        if f.cwnd < f.ssthresh {
                            f.cwnd += 1.0;
                        } else {
                            f.cwnd += 1.0 / f.cwnd;
                        }
                        f.cwnd = f.cwnd.min(MAX_CWND as f64);
                        if f.remaining <= EPS_BYTES {
                            f.remaining = 0.0;
                            f.state = FlowState::Done { at: now };
                            if let Some(st) = tr.as_deref_mut() {
                                st.push(now, i, FlowEventKind::Done, f.cwnd);
                            }
                        } else {
                            f.seg_size = (SEGMENT_BYTES as f64).min(f.remaining);
                            if let Some(st) = tr.as_deref_mut() {
                                if f.cwnd.floor() != st.last_cwnd_floor[i] {
                                    st.last_cwnd_floor[i] = f.cwnd.floor();
                                    st.push(now, i, FlowEventKind::Cwnd, f.cwnd);
                                }
                            }
                        }
                    }
                }
                FlowState::Running => {
                    if let Some(s) = f.stall_since {
                        if now >= s + f.rto - EPS_TIME {
                            f.timeouts += 1;
                            f.strikes += 1;
                            f.stall_since = None;
                            if f.strikes > MAX_TIMEOUTS {
                                f.state = FlowState::Failed { at: now };
                                if let Some(st) = tr.as_deref_mut() {
                                    st.push(now, i, FlowEventKind::Failed, f.cwnd);
                                }
                            } else {
                                f.state = FlowState::Backoff { until: now + f.rto };
                                f.rto *= RTO_BACKOFF;
                                f.cwnd = INIT_CWND as f64;
                                f.seg_sent = 0.0;
                                if let Some(st) = tr.as_deref_mut() {
                                    st.last_cwnd_floor[i] = f.cwnd.floor();
                                    st.push(
                                        now,
                                        i,
                                        FlowEventKind::Timeout { strikes: f.strikes },
                                        f.cwnd,
                                    );
                                }
                            }
                        }
                    }
                }
                FlowState::Backoff { until } if now >= until - EPS_TIME => {
                    f.state = FlowState::Running;
                    if let Some(st) = tr.as_deref_mut() {
                        st.push(now, i, FlowEventKind::BackoffEnd, f.cwnd);
                    }
                }
                _ => {}
            }
        }
    }

    /// Outcome of flow `id`; call after [`FlowSim::run`].
    pub fn outcome(&self, id: FlowId) -> FlowOutcome {
        let f = &self.flows[id.0];
        let (completed, finish) = match f.state {
            FlowState::Done { at } => (true, at),
            FlowState::Failed { at } => (false, at),
            _ => panic!("outcome read before run() settled the flow"),
        };
        FlowOutcome {
            completed,
            finish,
            payload_bytes: f.bytes,
            delivered_bytes: (f.bytes as f64 - f.remaining).round() as u64,
            wire_bytes: f.wire_bytes.round() as u64,
            retransmit_bytes: f.retransmit_bytes.round() as u64,
            retransmits: f.retransmits,
            timeouts: f.timeouts,
            queue_delay: f.queue_delay,
        }
    }

    /// Outcomes of every flow, in admission order.
    pub fn outcomes(&self) -> Vec<FlowOutcome> {
        (0..self.flows.len()).map(|i| self.outcome(FlowId(i))).collect()
    }

    /// Latest finish (or failure) time across all flows.
    pub fn makespan(&self) -> f64 {
        self.flows
            .iter()
            .map(|f| match f.state {
                FlowState::Done { at } | FlowState::Failed { at } => at,
                _ => panic!("makespan read before run() settled every flow"),
            })
            .fold(0.0, f64::max)
    }

    /// Mean utilization across links that carried any traffic: served bytes
    /// over `capacity * makespan`. Zero for an empty or instant simulation.
    pub fn mean_link_utilization(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        let utils: Vec<f64> = self
            .links
            .iter()
            .filter(|l| l.capacity > 0.0 && l.served_bytes > 0.0)
            .map(|l| (l.served_bytes / (l.capacity * span)).min(1.0))
            .collect();
        if utils.is_empty() {
            0.0
        } else {
            utils.iter().sum::<f64>() / utils.len() as f64
        }
    }
}

fn is_settled(s: FlowState) -> bool {
    matches!(s, FlowState::Done { .. } | FlowState::Failed { .. })
}

fn path_loss(path: &[usize], links: &[Link]) -> f64 {
    path.iter().map(|&l| links[l].loss).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FlowConfig {
        FlowConfig::standard(11)
    }

    fn run_one(capacity: f64, bytes: u64) -> (FlowOutcome, f64) {
        let mut sim = FlowSim::new(cfg());
        let l = sim.add_link(capacity, 0.0, 0.0, None);
        let f = sim.add_flow(&[l], bytes);
        sim.run();
        (sim.outcome(f), sim.makespan())
    }

    #[test]
    fn lone_flow_approaches_fluid_time() {
        let (o, span) = run_one(1.0e6, 1_000_000);
        assert!(o.completed);
        assert_eq!(o.delivered_bytes, 1_000_000);
        assert_eq!(o.wire_bytes, 1_000_000);
        assert_eq!(o.retransmits, 0);
        // Fluid time is 1 s; the AIMD ramp adds a little.
        assert!(o.finish >= 1.0 - 1e-9 && o.finish < 2.0, "finish {}", o.finish);
        assert_eq!(span, o.finish);
    }

    #[test]
    fn fair_share_splits_capacity_evenly() {
        let mut sim = FlowSim::new(cfg());
        let l = sim.add_link(1.0e6, 0.0, 0.0, None);
        let a = sim.add_flow(&[l], 500_000);
        let b = sim.add_flow(&[l], 500_000);
        sim.run();
        let (oa, ob) = (sim.outcome(a), sim.outcome(b));
        assert!(oa.completed && ob.completed);
        // Both contend for the whole run: each sees ~half the link.
        assert!((oa.finish - ob.finish).abs() < 0.05, "{} vs {}", oa.finish, ob.finish);
        assert!(oa.finish > 0.9, "contention must slow both flows: {}", oa.finish);
    }

    #[test]
    fn loss_burns_wire_bytes_but_conserves_accounting() {
        let mut sim = FlowSim::new(cfg());
        let l = sim.add_link(1.0e6, 0.3, 0.0, None);
        let f = sim.add_flow(&[l], 1_000_000);
        sim.run();
        let o = sim.outcome(f);
        assert!(o.completed);
        assert!(o.retransmits > 0, "30% loss must cost retransmits");
        assert_eq!(o.wire_bytes, o.delivered_bytes + o.retransmit_bytes);
        let (clean, _) = run_one(1.0e6, 1_000_000);
        assert!(o.finish > clean.finish, "loss must slow the flow down");
    }

    #[test]
    fn dead_link_fails_fast_instead_of_hanging() {
        let (o, span) = run_one(0.0, 1_000_000);
        assert!(!o.completed);
        assert!(o.timeouts as usize > 0);
        assert_eq!(o.delivered_bytes, 0);
        // Strikes bound the stall: base 0.25 s doubling six times.
        assert!(span < 60.0, "failure must be prompt, took {span}");
    }

    #[test]
    fn flapping_link_stalls_then_recovers() {
        let mut sim = FlowSim::new(cfg());
        // Up for [0, 0.5) of every 1 s cycle; 1.2 MB at 1 MB/s must cross
        // at least one down phase.
        let l = sim.add_link(1.0e6, 0.0, 0.0, Some((1.0, 0.0)));
        let f = sim.add_flow(&[l], 1_200_000);
        sim.run();
        let o = sim.outcome(f);
        assert!(o.completed, "half-duty flapping still drains the flow");
        assert!(o.timeouts > 0, "the down phase must trip the stall timer");
        let (clean, _) = run_one(1.0e6, 1_200_000);
        assert!(
            o.finish > clean.finish + 0.4,
            "down-time must show up in the finish time: {} vs {}",
            o.finish,
            clean.finish
        );
    }

    #[test]
    fn outcomes_are_bit_deterministic() {
        let build = || {
            let mut sim = FlowSim::new(cfg());
            let wan = sim.add_link(2.0e6, 0.2, 0.01, None);
            let lan = sim.add_link(1.0e7, 0.0, 0.0, Some((0.5, 0.1)));
            for i in 0..5 {
                let path = if i % 2 == 0 { vec![wan] } else { vec![lan, wan] };
                sim.add_flow(&path, 300_000 + i * 10_000);
            }
            sim.run();
            sim.outcomes()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "same setup must replay bit-identically");
        assert!(a.iter().all(|o| o.completed));
    }

    #[test]
    fn saturation_starves_no_flow() {
        let mut sim = FlowSim::new(cfg());
        let l = sim.add_link(1.0e6, 0.0, 0.0, None);
        let ids: Vec<FlowId> = (0..16).map(|_| sim.add_flow(&[l], 200_000)).collect();
        sim.run();
        for id in ids {
            assert!(sim.outcome(id).completed, "every flow must drain under saturation");
        }
        assert!(sim.mean_link_utilization() > 0.9, "{}", sim.mean_link_utilization());
    }

    #[test]
    fn two_hop_flows_are_governed_by_the_bottleneck() {
        let mut sim = FlowSim::new(cfg());
        let fast = sim.add_link(1.0e7, 0.0, 0.0, None);
        let slow = sim.add_link(1.0e6, 0.0, 0.0, None);
        let f = sim.add_flow(&[fast, slow], 1_000_000);
        sim.run();
        let o = sim.outcome(f);
        assert!(o.completed);
        assert!(o.finish >= 1.0 - 1e-9, "bottleneck link governs: {}", o.finish);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let (o, span) = run_one(1.0e6, 0);
        assert!(o.completed);
        assert_eq!(span, 0.0);
        assert_eq!(o.wire_bytes, 0);
    }

    /// The disabled trace path must stay near-free: the recorder is an
    /// `Option<Box<_>>`, so niche optimization keeps the field to one null
    /// pointer and every hot-path hook to a single discriminant branch
    /// (`if let Some(st) = self.trace`). The `flow_sim_traced` vs
    /// `flow_sim_contended_wave` perf pair bounds the *enabled* cost.
    #[test]
    fn disabled_trace_costs_one_word_and_one_branch() {
        assert_eq!(
            std::mem::size_of::<Option<Box<TraceState>>>(),
            std::mem::size_of::<usize>(),
            "disabled recorder must be a single (null) word"
        );
        let mut sim = FlowSim::new(cfg());
        let l = sim.add_link(1.0e6, 0.0, 0.01, None);
        sim.add_flow(&[l], 50_000);
        sim.run();
        assert!(sim.take_trace().is_none(), "nothing recorded unless enabled");
    }

    /// The observation contract of the tentpole: tracing must not change a
    /// single outcome bit, and the untraced simulator records nothing.
    #[test]
    fn tracing_does_not_change_outcomes() {
        let build = |traced: bool| {
            let mut sim = FlowSim::new(cfg());
            if traced {
                sim.enable_trace();
            }
            let wan = sim.add_link(2.0e6, 0.2, 0.01, None);
            let lan = sim.add_link(1.0e7, 0.0, 0.0, Some((0.5, 0.1)));
            for i in 0..5 {
                let path = if i % 2 == 0 { vec![wan] } else { vec![lan, wan] };
                sim.add_flow(&path, 300_000 + i * 10_000);
            }
            sim.run();
            let span = sim.makespan();
            (sim.outcomes(), span, sim.take_trace())
        };
        let (plain, span_plain, none) = build(false);
        let (traced, span_traced, trace) = build(true);
        assert!(none.is_none(), "untraced sim must record nothing");
        assert_eq!(plain, traced, "tracing must not perturb outcomes");
        assert_eq!(span_plain, span_traced);

        let trace = trace.expect("traced sim returns its recording");
        let starts =
            trace.events.iter().filter(|e| matches!(e.kind, FlowEventKind::Start { .. })).count();
        assert_eq!(starts, 5, "one start event per flow");
        let settled = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, FlowEventKind::Done | FlowEventKind::Failed))
            .count();
        assert_eq!(settled, 5, "every flow settles exactly once");
        let retransmits: usize =
            trace.events.iter().filter(|e| matches!(e.kind, FlowEventKind::Retransmit)).count();
        assert_eq!(
            retransmits as u64,
            plain.iter().map(|o| o.retransmits).sum::<u64>(),
            "one retransmit event per accounted retransmission"
        );
        for w in trace.events.windows(2) {
            assert!(w[0].t <= w[1].t + EPS_TIME, "events must be time-ordered");
        }
        assert_eq!(trace.links.len(), 2);
        for s in &trace.links {
            assert_eq!(s.t.len(), s.util.len());
            assert_eq!(s.t.len(), s.queue.len());
            assert!(s.t.windows(2).all(|w| w[0] <= w[1]), "series times ascend");
            assert!(s.util.iter().all(|&u| (0.0..=1.0).contains(&u)));
            assert!(!s.t.is_empty(), "contended links produce samples");
        }
    }
}
