//! Round-timeline capture for the runners: turns the dense/fleet round
//! structure and the flow transport's [`PhaseTrace`]s into the JSONL
//! timeline of [`fedmigr_diag::timeline`].
//!
//! Everything here is observation-only. The capture reads the virtual
//! clock and the already-simulated phase results; it never consumes the
//! run's RNG stream, never advances the clock, and a write failure only
//! disables further recording (mirroring the flight recorder's contract),
//! so a timeline-on run stays byte-identical on CSV and flight output.
//!
//! Interval semantics per client and round:
//!
//! * `train` — from round start to the earlier of the client's training
//!   time and the straggler deadline;
//! * `wait` — from its train (or upload) end to the end of the enclosing
//!   phase: time spent waiting for stragglers or the upload deadline;
//! * `upload` — from phase start until the client's flow settled or the
//!   phase was cut (covers both directions; lockstep phases record one
//!   coarse interval spanning the serialized transfer window);
//! * `migrate` — a migration source's transfer time within the wave;
//! * `stale_buffered` — a late uploader's result parked in the staleness
//!   buffer until the round closes;
//! * `idle` — whatever remains between a client's last activity and the
//!   round end.
//!
//! Flow events and link series are clipped to the virtual time the clock
//! actually charged for the phase (a deadline-cut upload phase ends at the
//! deadline), which keeps start timestamps globally monotone — the
//! invariant `TimelineRecording::validate` enforces.

use fedmigr_diag::timeline::{
    FlowRow, IntervalRow, IntervalState, LinkRow, SeriesRow, TimelineHeader, TimelineRecorder,
    TIMELINE_VERSION,
};
use fedmigr_net::PhaseTrace;
use fedmigr_telemetry::{metrics, names};

/// Minimum interval/series span worth recording, in virtual seconds.
const MIN_SPAN_S: f64 = 1e-12;

/// Per-run timeline capture state. Inert (all methods cheap no-ops) when
/// constructed without an output path.
pub(crate) struct TimelineCapture {
    rec: Option<TimelineRecorder>,
    epoch: usize,
    round_t0: f64,
    /// Sparse mode (fleet): closing tail intervals are only emitted for
    /// clients that appeared this round, so a 10k-client fleet round costs
    /// O(cohort), not O(K), timeline lines.
    sparse: bool,
    /// Per-client end of the last recorded activity this round.
    busy_until: Vec<f64>,
    /// Clients with any recorded activity this round.
    touched: Vec<bool>,
    /// Set for late uploaders: start of their stale-buffered span.
    stale_from: Vec<Option<f64>>,
}

impl TimelineCapture {
    /// Opens the recorder and writes the header, or returns an inert
    /// capture when `path` is `None` (or on any I/O error, which is
    /// logged and swallowed — recording must never fail the run).
    pub(crate) fn new(
        path: Option<&str>,
        mode: &str,
        scheme: &str,
        transport: &str,
        clients: usize,
        seed: u64,
        sparse: bool,
    ) -> Self {
        let rec = path.and_then(|p| match TimelineRecorder::create(p) {
            Ok(mut rec) => {
                let mut header = TimelineHeader {
                    version: TIMELINE_VERSION,
                    mode: mode.into(),
                    scheme: scheme.into(),
                    transport: transport.into(),
                    clients,
                    seed,
                };
                match rec.header(&mut header) {
                    Ok(()) => Some(rec),
                    Err(e) => {
                        fedmigr_telemetry::error!(
                            "core::timeline",
                            "timeline header write failed for {p}: {e}; timeline disabled"
                        );
                        None
                    }
                }
            }
            Err(e) => {
                fedmigr_telemetry::error!(
                    "core::timeline",
                    "cannot open timeline {p}: {e}; timeline disabled"
                );
                None
            }
        });
        TimelineCapture {
            rec,
            epoch: 0,
            round_t0: 0.0,
            sparse,
            busy_until: vec![0.0; clients],
            touched: vec![false; clients],
            stale_from: vec![None; clients],
        }
    }

    /// Whether anything is being recorded (drives the `traced` flag handed
    /// to the transport simulations).
    pub(crate) fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// Buffers one client interval `[t0, t1]` of the current round, unless
    /// its `span` is too short to be worth a line.
    fn interval(&mut self, span: f64, client: usize, state: IntervalState, t0: f64, t1: f64) {
        if let Some(rec) = self.rec.as_mut().filter(|_| span > MIN_SPAN_S) {
            rec.push(IntervalRow { epoch: self.epoch, client, state, t0, t1 });
        }
    }

    /// Starts a round at virtual time `t0`.
    pub(crate) fn round_start(&mut self, epoch: usize, t0: f64) {
        if self.rec.is_none() {
            return;
        }
        self.epoch = epoch;
        self.round_t0 = t0;
        self.busy_until.iter_mut().for_each(|t| *t = t0);
        self.touched.iter_mut().for_each(|t| *t = false);
        self.stale_from.iter_mut().for_each(|s| *s = None);
    }

    /// Records one client's training span: it trained until `train_end`
    /// and the phase (straggler-limited) released everyone at `phase_end`;
    /// the difference is `wait`.
    pub(crate) fn train(&mut self, client: usize, t0: f64, train_end: f64, phase_end: f64) {
        if self.rec.is_none() {
            return;
        }
        let cut = train_end.min(phase_end);
        self.interval(cut - t0, client, IntervalState::Train, t0, cut);
        self.interval(phase_end - cut, client, IntervalState::Wait, cut, phase_end);
        self.busy_until[client] = self.busy_until[client].max(phase_end);
        self.touched[client] = true;
    }

    /// Records one client's upload (or download) span inside a transport
    /// phase running `[t0, t0 + dur]`: its own flow settled at `t0 +
    /// finish` (clipped to the phase cut), the rest of the phase is `wait`.
    /// A `late` uploader is additionally parked in the staleness buffer
    /// from the phase cut until the round closes.
    pub(crate) fn upload(&mut self, client: usize, t0: f64, finish: f64, dur: f64, late: bool) {
        if self.rec.is_none() {
            return;
        }
        let cut = finish.min(dur);
        self.interval(cut, client, IntervalState::Upload, t0, t0 + cut);
        self.interval(dur - cut, client, IntervalState::Wait, t0 + cut, t0 + dur);
        self.busy_until[client] = self.busy_until[client].max(t0 + dur);
        self.touched[client] = true;
        if late {
            self.stale_from[client] = Some(t0 + dur);
        }
    }

    /// Records a migration source's transfer inside the wave starting at
    /// `t0`.
    pub(crate) fn migrate(&mut self, client: usize, t0: f64, dur: f64) {
        if self.rec.is_none() {
            return;
        }
        self.interval(dur, client, IntervalState::Migrate, t0, t0 + dur);
        self.busy_until[client] = self.busy_until[client].max(t0 + dur);
        self.touched[client] = true;
    }

    /// Streams a transport phase's labelled flow trace: link declarations,
    /// flow lifecycle events and link utilization/queue series, all
    /// offset to absolute virtual time (`t0` = phase start) and clipped at
    /// `t_end` — the virtual time the clock actually charged. Also feeds
    /// the `fedmigr_net_*` trace metric families.
    pub(crate) fn phase_trace(&mut self, phase: &str, t0: f64, t_end: f64, pt: &PhaseTrace) {
        let Some(rec) = self.rec.as_mut() else { return };
        let (epoch, phase) = (self.epoch, phase.to_string());
        for (id, &capacity) in pt.link_labels.iter().zip(&pt.link_capacity) {
            rec.push(LinkRow { epoch, phase: phase.clone(), id: id.clone(), capacity, t: t0 });
        }
        let fallback = String::new();
        for ev in &pt.flow.events {
            if t0 + ev.t > t_end + MIN_SPAN_S {
                continue;
            }
            let link = pt
                .flow_paths
                .get(ev.flow)
                .and_then(|path| path.first())
                .and_then(|&l| pt.link_labels.get(l))
                .unwrap_or(&fallback);
            let name = ev.kind.name();
            rec.push(FlowRow {
                epoch,
                phase: phase.clone(),
                flow: ev.flow,
                client: pt.flow_owners.get(ev.flow).copied().unwrap_or(usize::MAX),
                link: link.clone(),
                event: name.into(),
                t: t0 + ev.t,
                cwnd: ev.cwnd,
            });
            metrics::add(names::FLOW_EVENTS_TOTAL, &[("event", name)], 1);
        }
        for s in &pt.flow.links {
            let n = s.t.iter().take_while(|&&t| t0 + t <= t_end + MIN_SPAN_S).count();
            if n == 0 {
                continue;
            }
            let t_abs: Vec<f64> = s.t[..n].iter().map(|&t| t0 + t).collect();
            // Busy seconds: spans with positive utilization, the last one
            // running to the phase cut.
            let mut busy = 0.0;
            for (i, &u) in s.util[..n].iter().enumerate() {
                if u <= 0.0 {
                    continue;
                }
                let end = t_abs.get(i + 1).copied().unwrap_or(t_end);
                busy += (end - t_abs[i]).max(0.0);
            }
            if busy > 0.0 {
                metrics::observe(names::LINK_BUSY_SECONDS, &[], busy);
            }
            rec.push(SeriesRow {
                epoch,
                phase: phase.clone(),
                id: pt.link_labels.get(s.link).cloned().unwrap_or_default(),
                t: t_abs,
                util: s.util[..n].to_vec(),
                queue: s.queue[..n].to_vec(),
            });
        }
    }

    /// Closes the round at virtual time `t1`: tail `idle` /
    /// `stale_buffered` intervals per client, then the sorted flush behind
    /// the round marker. Clients that never appeared this round (inactive
    /// or sampled out) idle across the whole round.
    pub(crate) fn round_end(&mut self, t1: f64) {
        if self.rec.is_none() {
            return;
        }
        let epoch = self.epoch;
        for client in 0..self.busy_until.len() {
            if self.sparse && !self.touched[client] {
                continue;
            }
            let (from, state) = match self.stale_from[client] {
                Some(from) => (from, IntervalState::StaleBuffered),
                None => (self.busy_until[client], IntervalState::Idle),
            };
            self.interval(t1 - from, client, state, from, t1);
        }
        let t0 = self.round_t0;
        if let Some(rec) = self.rec.as_mut() {
            if let Err(e) = rec.round(epoch, t0, t1) {
                fedmigr_telemetry::error!(
                    "core::timeline",
                    "timeline round write failed: {e}; timeline stopped"
                );
                self.rec = None;
            }
        }
    }

    /// Notes a watchdog rollback to the end of `epoch`; the validator's
    /// time watermark restarts there.
    pub(crate) fn rollback(&mut self, epoch: usize) {
        if let Some(rec) = self.rec.as_mut() {
            if let Err(e) = rec.rollback(epoch) {
                fedmigr_telemetry::error!(
                    "core::timeline",
                    "timeline rollback write failed: {e}; timeline stopped"
                );
                self.rec = None;
            }
        }
    }

    /// Writes the finish line (skipped for killed runs, like the flight
    /// summary) and flushes.
    pub(crate) fn finish(&mut self, epochs: usize) {
        if let Some(rec) = self.rec.as_mut() {
            if let Err(e) = rec.finish(epochs) {
                fedmigr_telemetry::error!("core::timeline", "timeline finish write failed: {e}");
            }
            self.rec = None;
        }
    }
}
