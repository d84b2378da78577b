//! End-to-end contract for the round-timeline observability layer:
//! recording a timeline (`--timeline-out`) must not perturb a seeded run
//! by a single byte — CSV and flight recording alike, on both transports —
//! and the artifacts it produces (versioned JSONL, Chrome trace JSON, the
//! `fedmigr netview` report) must all be well-formed and agree with the
//! run they observed.
//!
//! Everything lives in ONE test function: the metrics registry and the
//! trace sink are the process's, so concurrent experiment runs in this
//! binary would interleave their counters.

use fedmigr::core::{DiagConfig, Experiment, RunConfig, Scheme};
use fedmigr::data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr::diag::{chrome_trace, TimelineRecording, TIMELINE_VERSION};
use fedmigr::diag::{gate, netview};
use fedmigr::net::{ClientCompute, DeviceTier, Topology, TopologyConfig, TransportConfig};
use fedmigr::nn::zoo::{self, NetScale};
use fedmigr_telemetry::trace::JsonValue;

fn experiment(seed: u64) -> Experiment {
    let data = SyntheticDataset::generate(&SyntheticConfig {
        num_classes: 4,
        train_per_class: 16,
        test_per_class: 8,
        channels: 1,
        hw: 8,
        noise_std: 0.8,
        class_sep: 1.0,
        atom_bank: 6,
        atoms_per_class: 2,
        private_frac: 0.5,
        seed,
    });
    let parts = partition_shards(&data.train, 4, 1, seed);
    Experiment::new(
        data.train,
        data.test,
        parts,
        Topology::new(&TopologyConfig::default_edge(vec![2, 2], seed)),
        ClientCompute::homogeneous(4, DeviceTier::Tx2),
        zoo::mini_resnet(1, 8, 4, 1, NetScale::Small, seed),
    )
}

fn tmp(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("fedmigr-timeline-e2e-{tag}-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned()
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
    for (tag, transport) in
        [("lockstep", TransportConfig::Lockstep), ("flow", TransportConfig::flow(5))]
    {
        let mut cfg = RunConfig::new(Scheme::fedmigr(9), 10);
        cfg.agg_interval = 4;
        cfg.batch_size = 16;
        cfg.eval_interval = 5;
        cfg.transport = transport;

        // Baseline: flight recorder on, timeline off.
        let flight_off = tmp(&format!("{tag}-flight-off"));
        cfg.diag = DiagConfig {
            enabled: true,
            flight_out: Some(flight_off.clone()),
            ..DiagConfig::default()
        };
        let off = experiment(3).run(&cfg);

        // Same seed with the timeline recorder attached as well.
        let flight_on = tmp(&format!("{tag}-flight-on"));
        let timeline = tmp(&format!("{tag}-timeline"));
        let mut cfg_on = cfg.clone();
        cfg_on.diag = DiagConfig {
            enabled: true,
            flight_out: Some(flight_on.clone()),
            timeline_out: Some(timeline.clone()),
            ..DiagConfig::default()
        };
        let on = experiment(3).run(&cfg_on);

        // 1. Byte-identity on BOTH exported artifacts.
        assert_eq!(
            off.to_csv(),
            on.to_csv(),
            "[{tag}] timeline recording must not perturb the CSV"
        );
        let flight_a = std::fs::read(&flight_off).expect("baseline flight exists");
        let flight_b = std::fs::read(&flight_on).expect("timeline-run flight exists");
        assert_eq!(flight_a, flight_b, "[{tag}] flight recordings must be byte-identical");

        // 2. The timeline parses, is versioned, and covers every epoch.
        let raw = std::fs::read_to_string(&timeline).expect("timeline written");
        let rec = TimelineRecording::parse(&raw).expect("timeline parses");
        assert_eq!(rec.header.version, TIMELINE_VERSION);
        assert_eq!(rec.header.transport, tag);
        assert_eq!(rec.header.clients, 4);
        assert!(rec.finished, "[{tag}] finish marker present");
        // Round 0 is the seed broadcast; then one settled round per epoch.
        assert_eq!(rec.settled_rounds().len(), on.epochs() + 1);

        // 3. Timeline invariants: start stamps never run backwards, every
        //    interval is closed, every flow event rides a declared link (the
        //    same check `fedmigr netview` applies in CI).
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

        // 4. The Chrome conversion is valid JSON with well-nested B/E.
        assert_well_nested(&chrome_trace(&rec));

        // 5. netview digests the recording into a consistent report.
        let mut report = netview::analyze(&rec);
        assert_eq!(report.rounds, rec.settled_rounds().len());
        assert!(report.makespan_s > 0.0);
        let json = netview::render_json(&mut report);
        let parsed = JsonValue::parse(&json).expect("netview JSON parses");
        assert!(gate::diff_json(&parsed, &parsed, 1e-9).is_empty(), "report self-diffs clean");

        // The flow transport must actually produce flow events; lockstep
        // reduces to coarse intervals only.
        let flow_events: usize = rec.rounds.iter().map(|r| r.flows.len()).sum();
        if tag == "flow" {
            assert!(flow_events > 0, "flow transport records flow events");
        } else {
            assert_eq!(flow_events, 0, "lockstep records no flow events");
        }

        for p in [&flight_off, &flight_on, &timeline] {
            let _ = std::fs::remove_file(p);
        }
    }
}
