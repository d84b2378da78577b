//! The record-stream contract, stated once and held against both schemas
//! (the flight recording and the round timeline), plus byte stability of
//! every checked-in baseline: what the one codec reads, it writes back to
//! the same bytes.

use fedmigr::diag::netview::{render_json, NetviewReport};
use fedmigr::diag::perf::PerfReport;
use fedmigr::diag::timeline::{
    FlowRow, IntervalRow, IntervalState, LinkRow, TimelineRecorder, TimelineStream,
};
use fedmigr::diag::{
    FlightHeader, FlightRecorder, FlightRecording, FlightSummary, RoundRecord, TimelineHeader,
    Tolerances, FLIGHT_VERSION, TIMELINE_VERSION,
};
use fedmigr_telemetry::record::{self, MemorySink, Stream};

/// A finished three-epoch flight recording with a baseline's tolerances.
fn flight_sample() -> String {
    let sink = MemorySink::default();
    let mut rec = FlightRecorder::to_writer(Box::new(sink.clone()));
    rec.line(&mut FlightHeader {
        version: FLIGHT_VERSION,
        scheme: "FedMigr".into(),
        clients: 2,
        epochs: 3,
        seed: 7,
        agg_interval: 2,
        codec: "identity".into(),
    })
    .unwrap();
    rec.line(&mut Tolerances::default()).unwrap();
    for epoch in 1..=3 {
        let c2s_bytes = 1000 * epoch as u64;
        rec.line(&mut RoundRecord { epoch, c2s_bytes, ..RoundRecord::default() }).unwrap();
    }
    rec.line(&mut FlightSummary { epochs_run: 3, ..FlightSummary::default() }).unwrap();
    drop(rec);
    sink.text()
}

/// A finished three-epoch timeline with every payload kind.
fn timeline_sample() -> String {
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
    for epoch in 1..=3 {
        let (t, phase, wan) = (epoch as f64, "upload".to_string(), "wan".to_string());
        rec.push(LinkRow { epoch, phase: phase.clone(), id: wan.clone(), capacity: 1e6, t });
        rec.push(IntervalRow { epoch, client: 0, state: IntervalState::Train, t0: t, t1: t + 0.5 });
        let event = "start".to_string();
        rec.push(FlowRow {
            epoch,
            phase,
            flow: 0,
            client: 0,
            link: wan,
            event,
            t: t + 0.5,
            cwnd: 2.0,
        });
        rec.round(epoch, t, t + 1.0).unwrap();
    }
    rec.finish(3).unwrap();
    sink.text()
}

/// What differs between the schemas, as far as the contract can tell.
struct Schema {
    /// A valid finished stream covering epochs 1..=3.
    sample: String,
    /// The kind of the closing line.
    close: &'static str,
    /// An integer field of some payload line, as spelled in `sample`, and
    /// the kind of that line.
    integer: (&'static str, &'static str, &'static str),
}

fn contract<S: Stream>(schema: &Schema) {
    let read = |text: &str| record::read::<S>(text).map(|_| ());
    let sample = schema.sample.as_str();
    let lines: Vec<&str> = sample.lines().collect();
    let (header, payload) = (lines[0], &lines[1..]);
    read(sample).expect("the sample reads");

    // Blank lines are skipped.
    read(&sample.replace('\n', "\n\n  \n")).expect("blank lines are skipped");

    // A torn line is tolerated as the last line only.
    read(&format!("{sample}{{\"kind\":\"rou")).expect("a torn tail is dropped");
    let torn_mid = format!("{header}\n{{\"kind\":\"rou\n{}\n", payload.join("\n"));
    let err = read(&torn_mid).unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");

    // A newer version is refused at the header, before any payload line —
    // here one of a kind this build has never heard of — is interpreted.
    let newer = header.replacen("\"version\":1.0", "\"version\":2.0", 1);
    assert_ne!(newer, header);
    let err = read(&format!("{newer}\n{{\"kind\":\"hologram\"}}\n")).unwrap_err();
    assert!(err.contains("newer"), "{err}");

    // The header is there, comes first, and comes once.
    assert!(read("").unwrap_err().contains("no header"));
    let err = read(&payload.join("\n")).unwrap_err();
    assert!(err.starts_with("line 1:") && err.contains("header"), "{err}");
    let err = read(&format!("{}\n{header}\n", payload.join("\n"))).unwrap_err();
    assert!(err.starts_with("line 1:") && err.contains("header"), "late header: {err}");
    let err = read(&format!("{header}\n{sample}")).unwrap_err();
    assert!(err.starts_with("line 2: header"), "repeated header: {err}");

    // An unknown kind is an error, wherever it sits.
    let err = read(&format!("{sample}{{\"kind\":\"hologram\"}}\n")).unwrap_err();
    assert!(err.contains("unknown kind \"hologram\""), "{err}");

    // One number policy: an integer field is a non-negative whole number.
    let (kind, key, spelled) = schema.integer;
    for bad in ["-3.0", "2.5", "1e999"] {
        let text = sample.replacen(spelled, &format!("\"{key}\":{bad}"), 1);
        assert_ne!(text, sample, "{spelled} occurs in the sample");
        let err = read(&text).unwrap_err();
        assert!(
            err.starts_with("line ") && err.contains(&format!("{kind} bad integer {key}")),
            "{bad}: {err}"
        );
    }
    // A missing field names line, kind and key the same way.
    let err = read(&sample.replacen(spelled, "\"renamed\":1.0", 1)).unwrap_err();
    assert!(err.starts_with("line ") && err.contains(&format!("{kind} missing {key}")), "{err}");

    // Resume truncation keeps the surviving lines byte for byte: the header
    // and every unstamped line, payload stamped up to the kept epoch; the
    // closing line, later epochs and the torn tail go.
    let stamp = |line: &str, epoch: usize| line.contains(&format!("\"epoch\":{epoch}.0"));
    let expected: String = lines
        .iter()
        .filter(|l| !l.contains(&format!("\"kind\":\"{}\"", schema.close)))
        .filter(|l| !stamp(l, 2) && !stamp(l, 3))
        .map(|l| format!("{l}\n"))
        .collect();
    let kept = record::truncate::<S>(&format!("{sample}{{\"kind\":\"rou"), 1).unwrap();
    assert_eq!(kept, expected);
    assert!(
        kept.lines().count() >= 2 && kept.len() < sample.len(),
        "something kept, something cut"
    );
    // Cutting a stream that is already short changes nothing but the close.
    assert_eq!(record::truncate::<S>(&kept, 1).unwrap(), kept);
    // What is not a stream of this schema is not silently emptied.
    assert!(record::truncate::<S>(&payload.join("\n"), 1).is_err());
}

#[test]
fn both_schemas_hold_the_stream_contract() {
    contract::<FlightRecording>(&Schema {
        sample: flight_sample(),
        close: "summary",
        integer: ("round", "c2s_bytes", "\"c2s_bytes\":2000.0"),
    });
    contract::<TimelineStream>(&Schema {
        sample: timeline_sample(),
        close: "finish",
        integer: ("interval", "client", "\"client\":0.0"),
    });
}

#[test]
fn nested_fields_are_named_by_path() {
    let sample = flight_sample();
    let err = FlightRecording::parse(&sample.replacen("\"cycles\":0.0", "\"cycles\":-1.0", 1))
        .unwrap_err();
    assert!(err.contains("round bad integer graph.cycles (-1)"), "{err}");
    let err = FlightRecording::parse(&sample.replacen("\"max\":", "\"most\":", 1)).unwrap_err();
    assert!(err.contains("round missing emd.max"), "{err}");
}

fn baseline(name: &str) -> String {
    let path = format!("{}/results/baselines/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn checked_in_baselines_re_encode_to_identical_bytes() {
    for name in ["smoke_fedmigr.jsonl", "smoke_fedmigr_flow.jsonl"] {
        let text = baseline(name);
        let mut rec = FlightRecording::parse(&text).expect(name);
        let sink = MemorySink::default();
        let mut out = FlightRecorder::to_writer(Box::new(sink.clone()));
        out.line(&mut rec.header).unwrap();
        rec.rounds.iter_mut().for_each(|r| out.line(r).unwrap());
        out.line(rec.summary.as_mut().expect("a baseline is a finished run")).unwrap();
        // A baseline is a run's raw output: with no `tolerances` line the
        // gate applies `Tolerances::default()`.
        if let Some(tolerances) = rec.tolerances.as_mut() {
            out.line(tolerances).unwrap();
        }
        drop(out);
        assert!(sink.text() == text, "{name} does not re-encode to its own bytes");
    }

    let text = baseline("perf_baseline.json");
    assert_eq!(PerfReport::parse(&text).unwrap().to_json(), text);

    let text = baseline("netview_smoke.json");
    let mut report: NetviewReport = record::from_json(&text).unwrap();
    assert!(!report.critical_path.is_empty() && !report.links.is_empty());
    assert!(format!("{}\n", render_json(&mut report)) == text, "netview_smoke.json re-encodes");
}
