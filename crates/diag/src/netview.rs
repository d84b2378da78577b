//! Network & round-timeline analysis: critical path, makespan
//! decomposition, per-link utilization histograms and the overlap
//! opportunity estimate — the analysis layer behind `fedmigr_netview`.
//!
//! Everything works off a parsed [`TimelineRecording`] (see
//! [`crate::timeline`]); only settled rounds (the survivors of any
//! watchdog rollbacks) are analyzed. All figures are virtual seconds, so a
//! seeded run produces an identical report on every host.

use std::collections::BTreeMap;

use fedmigr_telemetry::record::{self, Fields, Record};
use fedmigr_telemetry::record_fields;

use crate::timeline::{IntervalState, RoundTimeline, TimelineRecording};

/// Number of utilization buckets in a link histogram (deciles of `[0, 1]`).
pub const UTIL_BUCKETS: usize = 10;

/// Client-seconds spent per activity class across the analyzed rounds.
///
/// `compute` is training; `comm` is upload/download plus migration wire
/// time; `wait` is post-activity blocking on stragglers or deadlines;
/// `idle` is the round tail with nothing to do; `stale` is time a late
/// upload sat in the staleness buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Decomposition {
    /// Training client-seconds.
    pub compute_s: f64,
    /// Communication (upload + migration) client-seconds.
    pub comm_s: f64,
    /// Blocking client-seconds (deadline/straggler waits).
    pub wait_s: f64,
    /// Idle client-seconds.
    pub idle_s: f64,
    /// Stale-buffered client-seconds.
    pub stale_s: f64,
}

impl Decomposition {
    fn add(&mut self, state: IntervalState, secs: f64) {
        match state {
            IntervalState::Train => self.compute_s += secs,
            IntervalState::Upload | IntervalState::Migrate => self.comm_s += secs,
            IntervalState::Wait => self.wait_s += secs,
            IntervalState::Idle => self.idle_s += secs,
            IntervalState::StaleBuffered => self.stale_s += secs,
        }
    }

    /// Total client-seconds across all classes.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s + self.wait_s + self.idle_s + self.stale_s
    }
}

impl Record for Decomposition {
    fn fields(&mut self, v: &mut Fields<'_>) {
        v.field("compute_s", &mut self.compute_s);
        v.field("comm_s", &mut self.comm_s);
        v.field("wait_s", &mut self.wait_s);
        v.field("idle_s", &mut self.idle_s);
        v.field("stale_s", &mut self.stale_s);
        // Derived: written for whoever reads the JSON, never stored.
        v.field("total_s", &mut self.total_s());
    }
}

/// The round's critical path: the client whose busy (train + comm) chain
/// dominates the round, and how its time splits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalRound {
    /// 1-based epoch (0 is the seed broadcast).
    pub epoch: usize,
    /// Round wall span `t1 - t0`, virtual seconds.
    pub round_s: f64,
    /// The critical client.
    pub client: usize,
    /// Its busy seconds (train + upload + migrate).
    pub busy_s: f64,
    /// Its training share of the busy time.
    pub compute_s: f64,
    /// Its communication share of the busy time.
    pub comm_s: f64,
}
record_fields!(CriticalRound: epoch, round_s, client, busy_s, compute_s, comm_s);

/// One link's utilization profile over the analyzed rounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkReport {
    /// Stable link label (`"wan"`, `"access:3"`, `"pair:1-4"`, ...).
    pub id: String,
    /// Number of sampled spans.
    pub spans: usize,
    /// Seconds covered by the samples.
    pub sampled_s: f64,
    /// Seconds with positive utilization.
    pub busy_s: f64,
    /// Time-weighted mean utilization over the sampled seconds.
    pub mean_util: f64,
    /// Time-weighted p95 utilization.
    pub p95_util: f64,
    /// Peak utilization.
    pub max_util: f64,
    /// Seconds per utilization decile (`[0,0.1)`, ..., `[0.9,1.0]`).
    pub hist_s: [f64; UTIL_BUCKETS],
}
record_fields!(LinkReport: id, spans, sampled_s, busy_s, mean_util, p95_util, max_util, hist_s);

/// The full netview report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetviewReport {
    /// Settled rounds analyzed (including the seed broadcast round 0).
    pub rounds: usize,
    /// Watchdog rollbacks seen in the stream.
    pub rollbacks: usize,
    /// Total wall makespan: sum of settled round spans, virtual seconds.
    pub makespan_s: f64,
    /// Client-seconds per activity class.
    pub decomposition: Decomposition,
    /// Per-round critical path, in epoch order.
    pub critical_path: Vec<CriticalRound>,
    /// Per-link utilization profiles, in label order.
    pub links: Vec<LinkReport>,
    /// Idle + wait seconds recoverable if finished uploaders trained
    /// ahead instead of blocking on the round close.
    pub overlap_opportunity_s: f64,
    /// Flow lifecycle event counts by event name.
    pub flow_events: BTreeMap<String, u64>,
}
record_fields!(NetviewReport: rounds, rollbacks, makespan_s, decomposition, overlap_opportunity_s,
    critical_path, links, flow_events);

/// Analyzes the settled rounds of a timeline.
pub fn analyze(rec: &TimelineRecording) -> NetviewReport {
    let mut report = NetviewReport { rollbacks: rec.rollbacks.len(), ..NetviewReport::default() };
    let mut links: BTreeMap<String, LinkAccum> = BTreeMap::new();
    for round in rec.settled_rounds() {
        report.rounds += 1;
        report.makespan_s += round.t1 - round.t0;
        report.critical_path.push(critical_round(round));
        for iv in &round.intervals {
            report.decomposition.add(iv.state, iv.t1 - iv.t0);
        }
        report.overlap_opportunity_s += overlap_opportunity(round);
        for f in &round.flows {
            *report.flow_events.entry(f.event.clone()).or_insert(0) += 1;
        }
        for s in &round.series {
            let acc = links.entry(s.id.clone()).or_default();
            for (i, &u) in s.util.iter().enumerate() {
                // Spans run breakpoint-to-breakpoint; the open tail after
                // the last sample is not attributable from the series
                // alone and is dropped.
                let Some(span) = s.t.get(i + 1).map(|&next| next - s.t[i]) else {
                    continue;
                };
                if span <= 0.0 {
                    continue;
                }
                acc.observe(u, span);
            }
        }
    }
    report.links = links.into_iter().map(|(id, acc)| acc.finish(id)).collect();
    report
}

/// The client whose busy chain (train + upload + migrate) dominates the
/// round. Ties break towards the lower client index.
fn critical_round(round: &RoundTimeline) -> CriticalRound {
    let mut busy: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new(); // (busy, compute, comm)
    for iv in &round.intervals {
        let secs = iv.t1 - iv.t0;
        let entry = busy.entry(iv.client).or_insert((0.0, 0.0, 0.0));
        match iv.state {
            IntervalState::Train => {
                entry.0 += secs;
                entry.1 += secs;
            }
            IntervalState::Upload | IntervalState::Migrate => {
                entry.0 += secs;
                entry.2 += secs;
            }
            _ => {}
        }
    }
    let mut out = CriticalRound {
        epoch: round.epoch,
        round_s: round.t1 - round.t0,
        ..CriticalRound::default()
    };
    for (client, (b, compute, comm)) in busy {
        if b > out.busy_s {
            out.client = client;
            out.busy_s = b;
            out.compute_s = compute;
            out.comm_s = comm;
        }
    }
    out
}

/// Wait + idle seconds, after their last upload settled, of clients whose
/// upload made the round (no stale-buffered tail): the time they could
/// have spent training ahead had the schedule overlapped compute with the
/// straggling uploads.
fn overlap_opportunity(round: &RoundTimeline) -> f64 {
    let mut upload_end: BTreeMap<usize, f64> = BTreeMap::new();
    let mut parked: BTreeMap<usize, bool> = BTreeMap::new();
    for iv in &round.intervals {
        match iv.state {
            IntervalState::Upload => {
                let e = upload_end.entry(iv.client).or_insert(f64::NEG_INFINITY);
                *e = e.max(iv.t1);
            }
            IntervalState::StaleBuffered => {
                parked.insert(iv.client, true);
            }
            _ => {}
        }
    }
    let mut recoverable = 0.0;
    for iv in &round.intervals {
        if !matches!(iv.state, IntervalState::Wait | IntervalState::Idle) {
            continue;
        }
        if parked.get(&iv.client).copied().unwrap_or(false) {
            continue;
        }
        let Some(&end) = upload_end.get(&iv.client) else { continue };
        if iv.t0 >= end - 1e-12 {
            recoverable += iv.t1 - iv.t0;
        }
    }
    recoverable
}

#[derive(Default)]
struct LinkAccum {
    spans: Vec<(f64, f64)>, // (util, seconds)
}

impl LinkAccum {
    fn observe(&mut self, util: f64, secs: f64) {
        self.spans.push((util, secs));
    }

    fn finish(mut self, id: String) -> LinkReport {
        // `+ 0.0` normalizes the empty sum's `-0.0` for display.
        let sampled_s: f64 = self.spans.iter().map(|&(_, s)| s).sum::<f64>() + 0.0;
        let busy_s: f64 =
            self.spans.iter().filter(|&&(u, _)| u > 0.0).map(|&(_, s)| s).sum::<f64>() + 0.0;
        let mean_util = if sampled_s > 0.0 {
            self.spans.iter().map(|&(u, s)| u * s).sum::<f64>() / sampled_s
        } else {
            0.0
        };
        let max_util = self.spans.iter().map(|&(u, _)| u).fold(0.0f64, f64::max);
        let mut hist_s = [0.0f64; UTIL_BUCKETS];
        for &(u, s) in &self.spans {
            let bucket = ((u * UTIL_BUCKETS as f64) as usize).min(UTIL_BUCKETS - 1);
            hist_s[bucket] += s;
        }
        // Time-weighted p95: the utilization below which 95% of the
        // sampled seconds sit.
        self.spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut acc = 0.0;
        let mut p95_util = max_util;
        for &(u, s) in &self.spans {
            acc += s;
            if acc >= 0.95 * sampled_s {
                p95_util = u;
                break;
            }
        }
        LinkReport {
            id,
            spans: self.spans.len(),
            sampled_s,
            busy_s,
            mean_util,
            p95_util,
            max_util,
            hist_s,
        }
    }
}

/// Renders the report as deterministic JSON (schema key order, numbers via
/// the telemetry JSON formatter).
pub fn render_json(r: &mut NetviewReport) -> String {
    record::to_json(r)
}

/// Renders a human-readable summary (what the bin prints to stdout).
pub fn render_text(r: &NetviewReport) -> String {
    let mut out = String::new();
    let d = &r.decomposition;
    let total = d.total_s().max(f64::MIN_POSITIVE);
    out.push_str(&format!(
        "netview: {} settled round(s), {} rollback(s), makespan {:.3}s (virtual)\n",
        r.rounds, r.rollbacks, r.makespan_s
    ));
    out.push_str(&format!(
        "decomposition (client-seconds): compute {:.3} ({:.1}%), comm {:.3} ({:.1}%), \
         wait {:.3} ({:.1}%), idle {:.3} ({:.1}%), stale {:.3} ({:.1}%)\n",
        d.compute_s,
        100.0 * d.compute_s / total,
        d.comm_s,
        100.0 * d.comm_s / total,
        d.wait_s,
        100.0 * d.wait_s / total,
        d.idle_s,
        100.0 * d.idle_s / total,
        d.stale_s,
        100.0 * d.stale_s / total,
    ));
    out.push_str(&format!(
        "overlap opportunity: {:.3}s recoverable if finished uploaders trained ahead\n",
        r.overlap_opportunity_s
    ));
    // The worst critical path, as the headline.
    if let Some(worst) = r.critical_path.iter().max_by(|a, b| a.busy_s.total_cmp(&b.busy_s)) {
        out.push_str(&format!(
            "worst critical path: epoch {} client {} busy {:.3}s of {:.3}s round \
             (compute {:.3}s, comm {:.3}s)\n",
            worst.epoch, worst.client, worst.busy_s, worst.round_s, worst.compute_s, worst.comm_s
        ));
    }
    for l in &r.links {
        out.push_str(&format!(
            "link {:<12} {:>5} spans, {:.3}s sampled, busy {:.3}s, util mean {:.3} p95 {:.3} max {:.3}\n",
            l.id, l.spans, l.sampled_s, l.busy_s, l.mean_util, l.p95_util, l.max_util
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{IntervalRow, SeriesRow};

    fn round(epoch: usize, t0: f64, t1: f64) -> RoundTimeline {
        RoundTimeline { epoch, t0, t1, ..RoundTimeline::default() }
    }

    fn iv(epoch: usize, client: usize, state: IntervalState, t0: f64, t1: f64) -> IntervalRow {
        IntervalRow { epoch, client, state, t0, t1 }
    }

    #[test]
    fn critical_path_decomposition_and_overlap() {
        let mut r = round(1, 0.0, 10.0);
        // Client 0: trains 2s, uploads 1s, then waits 3s and idles 4s —
        // its upload made it, so 7s are recoverable.
        r.intervals.push(iv(1, 0, IntervalState::Train, 0.0, 2.0));
        r.intervals.push(iv(1, 0, IntervalState::Upload, 2.0, 3.0));
        r.intervals.push(iv(1, 0, IntervalState::Wait, 3.0, 6.0));
        r.intervals.push(iv(1, 0, IntervalState::Idle, 6.0, 10.0));
        // Client 1: the straggler — trains 6s, uploads 3s, late; its
        // stale-buffered tail disqualifies it from the overlap estimate.
        r.intervals.push(iv(1, 1, IntervalState::Train, 0.0, 6.0));
        r.intervals.push(iv(1, 1, IntervalState::Upload, 6.0, 9.0));
        r.intervals.push(iv(1, 1, IntervalState::StaleBuffered, 9.0, 10.0));
        let rec = TimelineRecording { rounds: vec![r], ..TimelineRecording::default() };
        let report = analyze(&rec);
        assert_eq!(report.rounds, 1);
        assert!((report.makespan_s - 10.0).abs() < 1e-12);
        assert_eq!(report.critical_path.len(), 1);
        let c = &report.critical_path[0];
        assert_eq!(c.client, 1, "straggler dominates the critical path");
        assert!((c.busy_s - 9.0).abs() < 1e-12);
        assert!((c.compute_s - 6.0).abs() < 1e-12);
        assert!((c.comm_s - 3.0).abs() < 1e-12);
        let d = &report.decomposition;
        assert!((d.compute_s - 8.0).abs() < 1e-12);
        assert!((d.comm_s - 4.0).abs() < 1e-12);
        assert!((d.wait_s - 3.0).abs() < 1e-12);
        assert!((d.idle_s - 4.0).abs() < 1e-12);
        assert!((d.stale_s - 1.0).abs() < 1e-12);
        assert!((report.overlap_opportunity_s - 7.0).abs() < 1e-12);
    }

    #[test]
    fn link_histogram_is_time_weighted() {
        let mut r = round(1, 0.0, 4.0);
        r.series.push(SeriesRow {
            epoch: 1,
            phase: "upload".into(),
            id: "wan".into(),
            t: vec![0.0, 1.0, 4.0],
            util: vec![1.0, 0.5, 0.25], // last sample's tail is dropped
            queue: vec![0, 0, 0],
        });
        let rec = TimelineRecording { rounds: vec![r], ..TimelineRecording::default() };
        let report = analyze(&rec);
        assert_eq!(report.links.len(), 1);
        let l = &report.links[0];
        assert_eq!(l.id, "wan");
        assert_eq!(l.spans, 2);
        assert!((l.sampled_s - 4.0).abs() < 1e-12);
        assert!((l.busy_s - 4.0).abs() < 1e-12);
        // 1s at 1.0 + 3s at 0.5 over 4s = 0.625.
        assert!((l.mean_util - 0.625).abs() < 1e-12);
        assert!((l.max_util - 1.0).abs() < 1e-12);
        // 95% of 4s = 3.8s: the 3s at 0.5 then into the 1s at 1.0.
        assert!((l.p95_util - 1.0).abs() < 1e-12);
        assert!((l.hist_s[5] - 3.0).abs() < 1e-12);
        assert!((l.hist_s[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_report_reads_back_and_re_encodes_to_the_same_bytes() {
        let mut r = round(1, 0.0, 2.0);
        r.intervals.push(iv(1, 0, IntervalState::Train, 0.0, 1.0));
        r.intervals.push(iv(1, 0, IntervalState::Upload, 1.0, 2.0));
        let rec = TimelineRecording { rounds: vec![r], ..TimelineRecording::default() };
        let mut report = analyze(&rec);
        let json = render_json(&mut report);
        assert!(
            json.starts_with("{\"rounds\":1.0,\"rollbacks\":0.0,\"makespan_s\":2.0,"),
            "{json}"
        );
        let mut back: NetviewReport = record::from_json(&json).expect("netview JSON parses");
        assert_eq!(back, report);
        assert_eq!(render_json(&mut back), json);
        assert!(!render_text(&report).is_empty());
    }
}
