//! End-to-end contract for the round-timeline observability layer:
//! recording a timeline (`--timeline-out`) must not perturb a seeded run
//! by a single byte — CSV and flight recording alike, on both transports —
//! and the artifacts it produces (versioned JSONL, Chrome trace JSON, the
//! `fedmigr netview` report) must all be well-formed and agree with the
//! run they observed.
//!
//! One test per contract, each over both transports. Each runs on its own
//! test thread, whose metrics registry is its own, and writes files of its
//! own, so the tests run in parallel without reading each other.

mod common;

use common::experiment;
use fedmigr::core::{DiagConfig, RunConfig, RunMetrics, Scheme};
use fedmigr::diag::{chrome_trace, TimelineRecording, TIMELINE_VERSION};
use fedmigr::diag::{gate, netview};
use fedmigr::net::TransportConfig;
use fedmigr_telemetry::trace::JsonValue;

/// The two transports, by the name the timeline header gives them.
fn transports() -> [(&'static str, TransportConfig); 2] {
    [("lockstep", TransportConfig::Lockstep), ("flow", TransportConfig::flow(5))]
}

fn tmp(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("fedmigr-timeline-e2e-{tag}-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The seeded run on `transport` with the flight recorder on, and the
/// timeline recorder too when `timeline`; returns the run, its flight
/// recording's bytes and its timeline's text (empty without one). The
/// files are named after `tag` and removed again.
fn run(tag: &str, transport: TransportConfig, timeline: bool) -> (RunMetrics, Vec<u8>, String) {
    let mut cfg = RunConfig::new(Scheme::fedmigr(9), 10);
    cfg.agg_interval = 4;
    cfg.batch_size = 16;
    cfg.eval_interval = 5;
    cfg.transport = transport;
    let (flight, timeline_path) = (tmp(&format!("{tag}-flight")), tmp(&format!("{tag}-timeline")));
    cfg.diag = DiagConfig {
        enabled: true,
        flight_out: Some(flight.clone()),
        timeline_out: timeline.then(|| timeline_path.clone()),
        ..DiagConfig::default()
    };
    let metrics = experiment(3).run(&cfg);
    let flight_bytes = std::fs::read(&flight).expect("flight recording written");
    let text = if timeline {
        std::fs::read_to_string(&timeline_path).expect("timeline written")
    } else {
        String::new()
    };
    for p in [&flight, &timeline_path] {
        let _ = std::fs::remove_file(p);
    }
    (metrics, flight_bytes, text)
}

/// Per transport: its name, the run with a timeline and the timeline,
/// parsed (`test` keeps the files of concurrent tests apart).
fn timelines(test: &str) -> Vec<(&'static str, RunMetrics, TimelineRecording)> {
    let recorded = transports().into_iter().map(|(tag, transport)| {
        let (on, _, raw) = run(&format!("{test}-{tag}"), transport, true);
        (tag, on, TimelineRecording::parse(&raw).expect("timeline parses"))
    });
    recorded.collect()
}

/// Walks a Chrome trace's `traceEvents`, checking every `B` has a
/// matching same-name `E` on its `(pid, tid)` lane in LIFO order.
fn assert_well_nested(trace: &str) {
    let v = JsonValue::parse(trace).expect("chrome trace parses as JSON");
    let events = v
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|e| match e {
            JsonValue::Array(items) => Some(items),
            _ => None,
        })
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "chrome trace is empty");
    let mut stacks: std::collections::BTreeMap<(String, String), Vec<String>> =
        std::collections::BTreeMap::new();
    for ev in events {
        let obj = ev.as_object().expect("event is an object");
        let field = |k: &str| obj.get(k).map(|v| format!("{v:?}")).unwrap_or_default();
        let name = obj.get("name").and_then(|n| n.as_str()).unwrap_or_default().to_string();
        match obj.get("ph").and_then(|p| p.as_str()) {
            Some("B") => stacks.entry((field("pid"), field("tid"))).or_default().push(name),
            Some("E") => {
                let open = stacks
                    .entry((field("pid"), field("tid")))
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E {name:?} with no open B on its lane"));
                assert_eq!(open, name, "E must close the innermost open B");
            }
            Some("i") => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for ((pid, tid), stack) in &stacks {
        assert!(stack.is_empty(), "unclosed B events on pid {pid} tid {tid}: {stack:?}");
    }
}

#[test]
fn timeline_observes_without_perturbing() {
    for (tag, transport) in transports() {
        // Baseline: flight recorder on, timeline off; then the same seed
        // with the timeline recorder attached as well.
        let (off, flight_a, _) = run(&format!("identity-{tag}-off"), transport, false);
        let (on, flight_b, _) = run(&format!("identity-{tag}-on"), transport, true);
        // Byte-identity on BOTH exported artifacts.
        assert_eq!(
            off.to_csv(),
            on.to_csv(),
            "[{tag}] timeline recording must not perturb the CSV"
        );
        assert_eq!(flight_a, flight_b, "[{tag}] flight recordings must be byte-identical");
    }
}

#[test]
fn the_timeline_is_versioned_and_covers_every_epoch() {
    for (tag, on, rec) in timelines("cover") {
        assert_eq!(rec.header.version, TIMELINE_VERSION);
        assert_eq!(rec.header.transport, tag);
        assert_eq!(rec.header.clients, 4);
        assert!(rec.finished, "[{tag}] finish marker present");
        // Round 0 is the seed broadcast; then one settled round per epoch.
        assert_eq!(rec.settled_rounds().len(), on.epochs() + 1);
    }
}

#[test]
fn the_timeline_keeps_its_invariants() {
    for (tag, _, rec) in timelines("invariants") {
        // Start stamps never run backwards, every interval is closed, every
        // flow event rides a declared link (the same check `fedmigr
        // netview` applies in CI).
        rec.validate().unwrap_or_else(|v| panic!("[{tag}] timeline invariants broken: {v:?}"));
        for round in &rec.rounds {
            assert!(round.t1 >= round.t0, "[{tag}] round not closed");
            for iv in &round.intervals {
                assert!(iv.t0 >= round.t0 - 1e-9, "[{tag}] interval starts before round");
            }
            // Stricter than `validate()`, which accepts a link declared in
            // any earlier round: the runner re-declares its links each round.
            for f in &round.flows {
                assert!(
                    round.links.iter().any(|l| l.id == f.link),
                    "[{tag}] flow event references a link round {} did not declare: {:?}",
                    round.epoch,
                    f.link
                );
            }
        }
    }
}

#[test]
fn the_chrome_trace_is_valid_and_well_nested() {
    for (_, _, rec) in timelines("chrome") {
        assert_well_nested(&chrome_trace(&rec));
    }
}

#[test]
fn netview_digests_the_timeline_into_a_consistent_report() {
    for (_, _, rec) in timelines("netview") {
        let mut report = netview::analyze(&rec);
        assert_eq!(report.rounds, rec.settled_rounds().len());
        assert!(report.makespan_s > 0.0);
        let json = netview::render_json(&mut report);
        let parsed = JsonValue::parse(&json).expect("netview JSON parses");
        assert!(gate::diff_json(&parsed, &parsed, 1e-9).is_empty(), "report self-diffs clean");
    }
}

#[test]
fn only_the_flow_transport_records_flow_events() {
    // The flow transport must actually produce flow events; lockstep
    // reduces to coarse intervals only.
    for (tag, _, rec) in timelines("flows") {
        let flow_events: usize = rec.rounds.iter().map(|r| r.flows.len()).sum();
        if tag == "flow" {
            assert!(flow_events > 0, "flow transport records flow events");
        } else {
            assert_eq!(flow_events, 0, "lockstep records no flow events");
        }
    }
}
