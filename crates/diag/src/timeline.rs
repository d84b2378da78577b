//! The round timeline: a versioned JSONL record stream (see
//! [`fedmigr_telemetry::record`] for the stream contract) of per-client
//! round intervals, per-flow transport events and per-link utilization
//! series, written behind `--timeline-out`.
//!
//! The timeline answers the question the flight recorder cannot: *where did
//! the round's wall clock go, per client and per link?* Each round the
//! runner buffers payload rows — client intervals (train / wait / upload /
//! migrate / idle / stale_buffered), flow lifecycle events carried up from
//! [`fedmigr_net`'s flow tracer], link declarations and coalesced link
//! utilization/queue series — and flushes them sorted by start time behind
//! one `round` marker. All times are the run's *virtual* seconds, so a
//! seeded run produces a byte-identical timeline on every host.
//!
//! Line kinds, in file order:
//!
//! 1. exactly one `header` ([`TimelineHeader`]);
//! 2. per epoch: one `round` marker ([`RoundTimeline`]) followed by that
//!    round's payload sorted by start time — `link` declarations
//!    ([`LinkRow`]), `interval` client states ([`IntervalRow`]), `flow`
//!    transport events ([`FlowRow`]) and `link_series` sampled
//!    utilization/queue arrays ([`SeriesRow`]);
//! 3. a `rollback` marker whenever the divergence watchdog rewinds the run
//!    to the end of an epoch: the rounds after it are history, not outcome,
//!    and the time watermark restarts there;
//! 4. at most one `finish`, the closing line.
//!
//! Start timestamps are globally non-decreasing across the stream except
//! across a rollback marker — [`TimelineRecording::validate`] enforces
//! exactly that, plus closed intervals and flow events referencing declared
//! links. Everything here is observation-only: the recorder reads the
//! runner's state and never touches its RNG or virtual clock.
//!
//! [`fedmigr_net`'s flow tracer]: https://docs.rs/fedmigr-net

use std::collections::BTreeSet;

use fedmigr_telemetry::record::{self, Fault, Field, Line, Out, Row, Stream, StreamWriter};
use fedmigr_telemetry::record_fields;
use fedmigr_telemetry::trace::{json_num, json_str, JsonValue};

/// Current timeline schema version.
pub const TIMELINE_VERSION: u64 = 1;

/// What a client was doing over one interval of virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntervalState {
    /// Local training on the client's shard.
    Train,
    /// Finished training, waiting for the round's upload deadline.
    Wait,
    /// Uploading to (or downloading from) the server.
    Upload,
    /// Sending its model to a migration peer.
    Migrate,
    /// Nothing to do until the round closes.
    #[default]
    Idle,
    /// Upload missed the deadline; result parked in the staleness buffer.
    StaleBuffered,
}

impl IntervalState {
    /// Wire spelling of the state.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Train => "train",
            Self::Wait => "wait",
            Self::Upload => "upload",
            Self::Migrate => "migrate",
            Self::Idle => "idle",
            Self::StaleBuffered => "stale_buffered",
        }
    }

    /// Parses the wire spelling back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "train" => Self::Train,
            "wait" => Self::Wait,
            "upload" => Self::Upload,
            "migrate" => Self::Migrate,
            "idle" => Self::Idle,
            "stale_buffered" => Self::StaleBuffered,
            _ => return None,
        })
    }
}

impl Field for IntervalState {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.string(self.name());
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        v.as_str().and_then(Self::parse).ok_or_else(Fault::missing)
    }
}

/// Identifying configuration of the recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineHeader {
    /// Schema version ([`TIMELINE_VERSION`] when written by this build).
    pub version: u64,
    /// `"dense"` or `"fleet"`.
    pub mode: String,
    /// Scheme name.
    pub scheme: String,
    /// Transport name (`"lockstep"` or `"flow"`).
    pub transport: String,
    /// Number of clients.
    pub clients: usize,
    /// Run seed.
    pub seed: u64,
}
record_fields!(TimelineHeader as "header": version, mode, scheme, transport, clients, seed);

/// A payload row: buffered per round and flushed sorted by its start stamp.
pub trait Payload: Line + Default {
    /// The row's start, absolute virtual seconds.
    fn start(&self) -> f64;
}

/// One client interval `[t0, t1]` in virtual seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalRow {
    /// 1-based epoch.
    pub epoch: usize,
    /// Client index.
    pub client: usize,
    /// What the client was doing.
    pub state: IntervalState,
    /// Interval start, virtual seconds.
    pub t0: f64,
    /// Interval end, virtual seconds.
    pub t1: f64,
}
record_fields!(IntervalRow as "interval": epoch, client, state, t0, t1);

/// One flow lifecycle event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowRow {
    /// 1-based epoch.
    pub epoch: usize,
    /// Phase label (`"upload"`, `"download"`, `"migration"`).
    pub phase: String,
    /// Flow index within the phase.
    pub flow: usize,
    /// Owning client.
    pub client: usize,
    /// First link on the flow's path.
    pub link: String,
    /// Event name from the flow tracer.
    pub event: String,
    /// Absolute virtual time.
    pub t: f64,
    /// Congestion window at the event, in segments.
    pub cwnd: f64,
}
record_fields!(FlowRow as "flow": epoch, phase, flow, client, link, event, t, cwnd);

/// One link declaration, for the phase starting at virtual `t`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkRow {
    /// 1-based epoch.
    pub epoch: usize,
    /// Phase label.
    pub phase: String,
    /// Stable link label (`"wan"`, `"access:3"`, ...).
    pub id: String,
    /// Capacity in bytes/second.
    pub capacity: f64,
    /// Phase start, virtual seconds.
    pub t: f64,
}
record_fields!(LinkRow as "link": epoch, phase, id, capacity, t);

/// One link's sampled utilization/queue series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesRow {
    /// 1-based epoch.
    pub epoch: usize,
    /// Phase label.
    pub phase: String,
    /// Link label.
    pub id: String,
    /// Sample times, absolute virtual seconds (step-function breakpoints).
    pub t: Vec<f64>,
    /// Utilization in `[0, 1]` from each sample time to the next.
    pub util: Vec<f64>,
    /// Flows queued with zero rate over the same spans.
    pub queue: Vec<u32>,
}
record_fields!(SeriesRow as "link_series": epoch, phase, id, t, util, queue);

impl Payload for IntervalRow {
    fn start(&self) -> f64 {
        self.t0
    }
}
impl Payload for FlowRow {
    fn start(&self) -> f64 {
        self.t
    }
}
impl Payload for LinkRow {
    fn start(&self) -> f64 {
        self.t
    }
}
impl Payload for SeriesRow {
    fn start(&self) -> f64 {
        self.t.first().copied().unwrap_or_default()
    }
}

/// One round's slice of the timeline; on the wire, the `round` marker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTimeline {
    /// 1-based epoch.
    pub epoch: usize,
    /// Round start, virtual seconds.
    pub t0: f64,
    /// Round end, virtual seconds.
    pub t1: f64,
    /// A later `rollback` marker rewound the run past this round. Settled
    /// while reading, where line order is known.
    pub rewound: bool,
    /// Client intervals, in start order.
    pub intervals: Vec<IntervalRow>,
    /// Flow lifecycle events, in time order.
    pub flows: Vec<FlowRow>,
    /// Link declarations.
    pub links: Vec<LinkRow>,
    /// Link utilization/queue series.
    pub series: Vec<SeriesRow>,
}
record_fields!(RoundTimeline as "round": epoch, t0, t1);

/// The watchdog rewound the run to the end of `epoch`.
#[derive(Default)]
struct Rollback {
    epoch: usize,
}
record_fields!(Rollback as "rollback": epoch);

/// The run finished after `epochs` rounds.
#[derive(Default)]
struct Finish {
    epochs: usize,
}
record_fields!(Finish as "finish": epochs);

/// Streaming JSONL writer for a round timeline.
///
/// Payload rows are buffered per round and flushed, sorted by start time,
/// by [`TimelineRecorder::round`]. Mirrors [`crate::FlightRecorder`]'s
/// error contract: methods that hit the file return `io::Result` and the
/// caller disables recording on the first error.
pub struct TimelineRecorder {
    out: StreamWriter<TimelineStream>,
    buf: Vec<(f64, String)>,
}

impl TimelineRecorder {
    /// Opens (truncating) `path` for recording.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(TimelineRecorder { out: StreamWriter::create(path)?, buf: Vec::new() })
    }

    /// Records into an arbitrary writer.
    pub fn to_writer(w: Box<dyn std::io::Write + Send>) -> Self {
        TimelineRecorder { out: StreamWriter::to_writer(w), buf: Vec::new() }
    }

    /// Writes the header line. Call exactly once, first.
    pub fn header(&mut self, h: &mut TimelineHeader) -> std::io::Result<()> {
        self.out.line(h)
    }

    /// Buffers one payload row for the round in progress.
    pub fn push<T: Payload>(&mut self, mut row: T) {
        self.buf.push((row.start(), record::to_line(T::KIND, &mut row)));
    }

    /// Writes the round marker for `[t0, t1]` and flushes the buffered
    /// payload sorted by start time. Call once per completed round.
    pub fn round(&mut self, epoch: usize, t0: f64, t1: f64) -> std::io::Result<()> {
        self.out.line(&mut RoundTimeline { epoch, t0, t1, ..RoundTimeline::default() })?;
        let mut buf = std::mem::take(&mut self.buf);
        buf.sort_by(|a, b| a.0.total_cmp(&b.0));
        buf.iter().try_for_each(|(_, line)| self.out.formatted(line))
    }

    /// Writes a rollback marker: the watchdog rewound the run to the end
    /// of `epoch`, so the time watermark restarts there. Drops any payload
    /// buffered for the abandoned round.
    pub fn rollback(&mut self, epoch: usize) -> std::io::Result<()> {
        self.buf.clear();
        self.out.line(&mut Rollback { epoch })
    }

    /// Writes the finish line and flushes.
    pub fn finish(&mut self, epochs: usize) -> std::io::Result<()> {
        self.out.line(&mut Finish { epochs })
    }
}

/// A fully parsed timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineRecording {
    /// The header line.
    pub header: TimelineHeader,
    /// Rounds in file order. After a watchdog rollback the same epoch can
    /// appear again; analyzers usually want [`TimelineRecording::settled_rounds`].
    pub rounds: Vec<RoundTimeline>,
    /// Epochs named by rollback markers, in file order.
    pub rollbacks: Vec<usize>,
    /// Whether the finish line is present.
    pub finished: bool,
    /// Invariant violations met while reading (`line N: ...`), in file
    /// order; [`TimelineRecording::validate`] reports them.
    pub(crate) violations: Vec<String>,
}

/// The timeline schema: a [`TimelineRecording`] being read, with what only
/// the reader needs — line order is gone once rows sit in their rounds.
pub struct TimelineStream {
    rec: TimelineRecording,
    /// The start-stamp watermark, which a rollback marker legitimately
    /// rewinds.
    watermark: f64,
    /// Link ids declared so far.
    links: BTreeSet<String>,
}

impl TimelineStream {
    fn violation(&mut self, row: &Row<'_>, what: impl std::fmt::Display) {
        self.rec.violations.push(row.error(what));
    }

    /// Holds a start stamp against the watermark.
    fn stamp(&mut self, row: &Row<'_>, start: f64) {
        if start < self.watermark {
            let watermark = self.watermark;
            self.violation(row, format_args!("starts at {start}, below the watermark {watermark}"));
        } else {
            self.watermark = start;
        }
    }

    /// Reads a payload row and stamps it.
    fn payload<T: Payload>(&mut self, row: &Row<'_>) -> Result<T, String> {
        let payload: T = row.read()?;
        self.stamp(row, payload.start());
        Ok(payload)
    }

    /// The round a payload row belongs to.
    fn round(&mut self, row: &Row<'_>) -> Result<&mut RoundTimeline, String> {
        self.rec.rounds.last_mut().ok_or_else(|| row.error("before any round"))
    }
}

impl Stream for TimelineStream {
    const VERSION: u64 = TIMELINE_VERSION;
    const CLOSE: &'static str = Finish::KIND;
    type Header = TimelineHeader;

    fn version(header: &TimelineHeader) -> u64 {
        header.version
    }

    fn open(header: TimelineHeader) -> Self {
        let rec = TimelineRecording { header, ..TimelineRecording::default() };
        TimelineStream { rec, watermark: f64::NEG_INFINITY, links: BTreeSet::new() }
    }

    fn line(&mut self, row: &Row<'_>) -> Result<(), String> {
        if self.rec.finished {
            self.violation(row, "after the finish marker");
        }
        match row.kind {
            RoundTimeline::KIND => {
                let round: RoundTimeline = row.read()?;
                self.stamp(row, round.t0);
                self.rec.rounds.push(round);
            }
            IntervalRow::KIND => {
                let interval: IntervalRow = self.payload(row)?;
                if interval.t1 < interval.t0 {
                    self.violation(row, "not closed: t1 < t0");
                }
                self.round(row)?.intervals.push(interval);
            }
            LinkRow::KIND => {
                let link: LinkRow = self.payload(row)?;
                self.links.insert(link.id.clone());
                self.round(row)?.links.push(link);
            }
            FlowRow::KIND => {
                let flow: FlowRow = self.payload(row)?;
                if !self.links.contains(&flow.link) {
                    self.violation(row, format_args!("references undeclared link {:?}", flow.link));
                }
                self.round(row)?.flows.push(flow);
            }
            SeriesRow::KIND => {
                let series = self.payload(row)?;
                self.round(row)?.series.push(series);
            }
            Rollback::KIND => {
                let Rollback { epoch } = row.read()?;
                self.rec.rounds.iter_mut().for_each(|r| r.rewound |= r.epoch > epoch);
                self.rec.rollbacks.push(epoch);
                self.watermark = f64::NEG_INFINITY;
            }
            Finish::KIND => {
                row.read::<Finish>()?;
                self.rec.finished = true;
            }
            _ => return Err(row.unknown()),
        }
        Ok(())
    }
}

impl TimelineRecording {
    /// Parses a timeline written by [`TimelineRecorder`] under the stream
    /// contract of [`fedmigr_telemetry::record`].
    pub fn parse(text: &str) -> Result<Self, String> {
        record::read::<TimelineStream>(text).map(|stream| stream.rec)
    }

    /// Rounds that survived every rollback: those no later `rollback`
    /// marker rewound past. This is the view analyzers should use.
    pub fn settled_rounds(&self) -> Vec<&RoundTimeline> {
        self.rounds.iter().filter(|r| !r.rewound).collect()
    }

    /// Checks what a well-formed timeline holds beyond its syntax: start
    /// stamps never run backwards in file order (the watermark restarts at
    /// a `rollback`), every interval is closed, every flow event names a
    /// link declared before it, nothing follows `finish`, and there is at
    /// least one round. The violations are found while reading, where file
    /// order is known; this reports them, or a one-line summary.
    pub fn validate(&self) -> Result<String, Vec<String>> {
        let mut violations = self.violations.clone();
        if self.rounds.is_empty() {
            violations.push("no round markers".into());
        }
        if !violations.is_empty() {
            return Err(violations);
        }
        let count = |per: fn(&RoundTimeline) -> usize| self.rounds.iter().map(per).sum::<usize>();
        Ok(format!(
            "timeline v{} valid — {} round(s), {} interval(s), {} flow event(s), monotone \
             stamps, intervals closed, links declared",
            self.header.version,
            self.rounds.len(),
            count(|r| r.intervals.len()),
            count(|r| r.flows.len()),
        ))
    }
}

/// Converts a timeline into Chrome trace-event JSON (the `traceEvents`
/// array format), viewable in Perfetto or `chrome://tracing`.
///
/// Client intervals become `B`/`E` duration pairs on `pid` 1 with one
/// thread row per client (tid `client + 1`; round spans sit on tid 0);
/// flow lifecycle events become instant (`"ph":"i"`) events on `pid` 2.
/// Timestamps are virtual microseconds. Every `B` is closed by its `E`
/// before the next event on the same thread begins, so the stream is
/// well-nested by construction — the e2e test asserts it.
pub fn chrome_trace(rec: &TimelineRecording) -> String {
    let mut events: Vec<String> = Vec::new();
    let us = |t: f64| (t * 1e6).round();
    let pair = |events: &mut Vec<String>, name: &str, tid: usize, t0: f64, t1: f64| {
        events.push(format!(
            "{{\"name\":{},\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
            json_str(name),
            json_num(tid as f64),
            json_num(us(t0)),
        ));
        events.push(format!(
            "{{\"name\":{},\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
            json_str(name),
            json_num(tid as f64),
            json_num(us(t1)),
        ));
    };
    for round in &rec.rounds {
        pair(&mut events, &format!("round {}", round.epoch), 0, round.t0, round.t1);
        for iv in &round.intervals {
            pair(&mut events, iv.state.name(), iv.client + 1, iv.t0, iv.t1);
        }
        for f in &round.flows {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":{},\"ts\":{},\"args\":{{\"link\":{},\"phase\":{},\"cwnd\":{}}}}}",
                json_str(&f.event),
                json_num((f.client + 1) as f64),
                json_num(us(f.t)),
                json_str(&f.link),
                json_str(&f.phase),
                json_num(f.cwnd),
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::record::MemorySink;
    use std::collections::BTreeMap;

    fn interval(
        epoch: usize,
        client: usize,
        state: IntervalState,
        t0: f64,
        t1: f64,
    ) -> IntervalRow {
        IntervalRow { epoch, client, state, t0, t1 }
    }

    fn sample() -> String {
        let sink = MemorySink::default();
        let mut rec = TimelineRecorder::to_writer(Box::new(sink.clone()));
        rec.header(&mut TimelineHeader {
            version: TIMELINE_VERSION,
            mode: "dense".into(),
            scheme: "FedMigr".into(),
            transport: "flow".into(),
            clients: 2,
            seed: 7,
        })
        .unwrap();
        let (phase, id) = ("upload".to_string(), "wan".to_string());
        // Deliberately buffered out of order; round() must sort by start.
        rec.push(interval(1, 1, IntervalState::Wait, 2.0, 3.0));
        rec.push(interval(1, 0, IntervalState::Train, 0.0, 2.0));
        rec.push(LinkRow { epoch: 1, phase: phase.clone(), id: id.clone(), capacity: 1e6, t: 2.0 });
        rec.push(FlowRow {
            epoch: 1,
            phase: phase.clone(),
            flow: 0,
            client: 0,
            link: id.clone(),
            event: "retransmit".into(),
            t: 2.5,
            cwnd: 4.0,
        });
        let (t, util, queue) = (vec![2.0, 2.5], vec![0.5, 1.0], vec![0, 1]);
        rec.push(SeriesRow { epoch: 1, phase, id, t, util, queue });
        rec.round(1, 0.0, 3.0).unwrap();
        rec.rollback(1).unwrap();
        rec.push(interval(2, 0, IntervalState::Idle, 3.0, 4.0));
        rec.round(2, 3.0, 4.0).unwrap();
        rec.finish(2).unwrap();
        sink.text()
    }

    #[test]
    fn roundtrips_and_sorts_payload_by_start_time() {
        let rec = TimelineRecording::parse(&sample()).expect("parses");
        assert_eq!(rec.header.mode, "dense");
        assert_eq!(rec.rounds.len(), 2);
        assert_eq!(rec.rollbacks, vec![1]);
        assert!(rec.finished);
        let r1 = &rec.rounds[0];
        // Sorted: train (t0=0) before wait (t0=2).
        let states: Vec<IntervalState> = r1.intervals.iter().map(|iv| iv.state).collect();
        assert_eq!(states, [IntervalState::Train, IntervalState::Wait]);
        assert_eq!(r1.flows.len(), 1);
        assert_eq!(r1.flows[0].event, "retransmit");
        assert_eq!(r1.links.len(), 1);
        assert_eq!(r1.series[0].queue, vec![0, 1]);
        // The rollback rewound to the end of epoch 1: nothing is unsettled.
        assert_eq!(rec.settled_rounds().len(), 2);
        // Start stamps run forwards line by line, intervals are closed, the
        // flow's link was declared.
        assert!(rec.validate().unwrap().contains("2 round(s), 3 interval(s), 1 flow event(s)"));
    }

    #[test]
    fn rounds_rewound_and_never_rewritten_are_not_settled() {
        // The watchdog rewound to epoch 1 and the run was then killed (or
        // finished early) before rewriting rounds 2 and 3.
        let text = sample();
        let rewound = text.replace(
            "{\"kind\":\"finish\",\"epochs\":2.0}\n",
            "{\"kind\":\"round\",\"epoch\":3.0,\"t0\":4.0,\"t1\":5.0}\n\
             {\"kind\":\"rollback\",\"epoch\":1.0}\n",
        );
        assert_ne!(rewound, text);
        let rec = TimelineRecording::parse(&rewound).unwrap();
        assert_eq!(rec.rounds.len(), 3, "history keeps every round");
        let settled: Vec<usize> = rec.settled_rounds().iter().map(|r| r.epoch).collect();
        assert_eq!(settled, [1], "rounds 2 and 3 were rewound and never rewritten");
        // Once the run rewrites round 2, that copy is settled.
        let rewritten =
            format!("{rewound}{{\"kind\":\"round\",\"epoch\":2.0,\"t0\":3.0,\"t1\":3.5}}\n");
        let rec = TimelineRecording::parse(&rewritten).unwrap();
        let settled: Vec<(usize, f64)> =
            rec.settled_rounds().iter().map(|r| (r.epoch, r.t1)).collect();
        assert_eq!(settled, [(1, 3.0), (2, 3.5)]);
        rec.validate().expect("a rollback restarts the watermark");
    }

    #[test]
    fn validate_names_every_broken_invariant() {
        let good = sample();
        for (from, to, complaint) in [
            // An interval running backwards.
            (
                "\"state\":\"wait\",\"t0\":2.0,\"t1\":3.0",
                "\"state\":\"wait\",\"t0\":2.0,\"t1\":1.0",
                "not closed",
            ),
            // A flow on a link nobody declared.
            ("\"link\":\"wan\"", "\"link\":\"lan\"", "undeclared link"),
            // A start stamp below the one before it.
            (
                "\"event\":\"retransmit\",\"t\":2.5",
                "\"event\":\"retransmit\",\"t\":1.5",
                "below the watermark",
            ),
            // A line after the finish marker.
            (
                "\"epochs\":2.0}\n",
                "\"epochs\":2.0}\n{\"kind\":\"rollback\",\"epoch\":2.0}\n",
                "after the finish",
            ),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from}");
            let violations = TimelineRecording::parse(&bad).unwrap().validate().unwrap_err();
            assert!(
                violations.iter().any(|v| v.contains(complaint)),
                "{complaint}: {violations:?}"
            );
        }
        // A header alone has no rounds to analyze.
        let header = good.lines().next().unwrap();
        assert!(TimelineRecording::parse(header).unwrap().validate().is_err());
    }

    #[test]
    fn chrome_trace_is_json_with_nested_pairs() {
        let rec = TimelineRecording::parse(&sample()).unwrap();
        let trace = chrome_trace(&rec);
        let v = JsonValue::parse(&trace).expect("valid JSON");
        let events = match v.as_object().unwrap().get("traceEvents").unwrap() {
            JsonValue::Array(items) => items.clone(),
            _ => panic!("traceEvents must be an array"),
        };
        assert!(!events.is_empty());
        // Per (pid, tid): B/E strictly alternate and every B is closed.
        let mut depth: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for e in &events {
            let o = e.as_object().unwrap();
            let key = (
                o.get("pid").and_then(JsonValue::as_f64).unwrap() as u64,
                o.get("tid").and_then(JsonValue::as_f64).unwrap() as u64,
            );
            match o.get("ph").and_then(JsonValue::as_str).unwrap() {
                "B" => *depth.entry(key).or_insert(0) += 1,
                "E" => {
                    let d = depth.get_mut(&key).expect("E without B");
                    assert!(*d > 0, "E without open B on {key:?}");
                    *d -= 1;
                }
                "i" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unclosed B events: {depth:?}");
    }
}
