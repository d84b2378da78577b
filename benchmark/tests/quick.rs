//! `--quick` smoke over all four workloads, through the real binaries.
//!
//! Needs the root release binary beside fedbench:
//! `cargo build --release --offline` at the repo root, then
//! `CARGO_TARGET_DIR=../target cargo test --release --offline` in `benchmark/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fedbench::report::Report;
use fedbench::run::Runner;
use fedbench::spec::{self, Instruments, END_TO_END, WORKLOADS};
use fedmigr_telemetry::trace::JsonValue;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

fn fedbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("fedbench runs")
}

fn scratch(name: &str) -> PathBuf {
    repo_root().join("benchmark/out/tmp").join(format!("test-{name}-{}", std::process::id()))
}

#[test]
fn quick_run_reports_every_metric_on_every_workload_and_the_contract_line() {
    let out = scratch("report.json");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let run = fedbench(&["--quick", "--seed", "5", "--out", out.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));

    let text = std::fs::read_to_string(&out).unwrap();
    let report = Report::parse(&text).unwrap();
    assert!(report.quick && report.seed == 5);
    let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
    let mut expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for w in &report.workloads {
        assert_eq!((w.failed, w.attempted > 10), (0, true), "{}", w.name);
        assert_eq!(w.end_to_end.len(), END_TO_END.len());
        for m in &w.end_to_end {
            assert!(
                m.value().is_finite() && m.value() > 0.0,
                "{} {} = {}",
                w.name,
                m.name,
                m.value()
            );
            assert!(stdout.contains(&m.name) && stdout.contains(&m.unit));
        }
        assert_eq!(w.csv_digests.keys().copied().collect::<Vec<_>>(), [5]);
    }
    // The observation-only promise, seen from outside: same seed, same flags
    // but for the instruments, same curve.
    let digests =
        |name: &str| &report.workloads.iter().find(|w| w.name == name).unwrap().csv_digests;
    assert_eq!(digests("dense_observed"), digests("dense_comm"));
    assert_ne!(digests("dense_train"), digests("dense_comm"));

    // Every per-layer metric is in the file, by name; only phase spans of
    // the other round loop may be absent.
    let doc = JsonValue::parse(&text).unwrap();
    for w in WORKLOADS {
        let layers = doc.as_object().unwrap()["workloads"].as_object().unwrap()[w.name]
            .as_object()
            .unwrap()["per_layer"]
            .as_object()
            .unwrap();
        for (name, _, _) in spec::per_layer() {
            let value = layers[&name].as_object().unwrap()["value"].as_f64();
            let other_loop = name.starts_with("phase.") && name.ends_with("_share");
            assert!(value.is_some() || other_loop, "{}: {name} is absent", w.name);
            assert!(stdout.contains(&name));
        }
        let present = |span: &str| {
            layers[&format!("phase.{span}_share")].as_object().unwrap()["value"].as_f64()
        };
        assert!(present("local_train").unwrap() > 0.0);
        assert_eq!(present("cohort_activate").is_some(), w.name == "fleet_sparse");
        assert_eq!(present("communicate").is_some(), w.name != "fleet_sparse");
        assert_eq!(present("diagnostics").is_some(), w.name == "dense_observed");
        assert!(repo_root().join(format!("benchmark/out/trace-{}.json", w.name)).is_file());
    }

    // A quick result is stamped, and compare refuses it.
    let out = out.to_str().unwrap();
    let refused = fedbench(&["compare", out, out]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("quick"));
    std::fs::remove_file(out).unwrap();

    // With --workload and --trace the last line is the harness's contract.
    // (Same test: the runs share benchmark/out/trace-fleet_sparse.json.)
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()),
        ("1", spec::per_layer().into_iter().map(|(n, ..)| n).collect()),
    ] {
        let run = fedbench(&[
            "--quick",
            "--workload",
            "fleet_sparse",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = JsonValue::parse(stdout.lines().last().unwrap()).unwrap();
        let line = line.as_object().unwrap();
        let keys: Vec<&str> = line.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(matches!(line["correct"], JsonValue::Bool(true)));
        assert_eq!(line["failed"].as_f64(), Some(0.0));
        assert!(line["attempted"].as_f64().unwrap() >= 1.0);
        let metrics = line["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), names.len());
        for name in names {
            let m = metrics[&name].as_object().unwrap();
            assert!(m["value"].as_f64().is_some() && m["unit"].as_str().is_some(), "{name}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "dense"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate", "1"],
        &["compare", "a.json"],
    ] {
        let run = fedbench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty());
    }
}

/// A child that panics — `fedmigr` asserts on `--epochs 0` — is a counted
/// failure with its stderr attached, not a panic or an error of the driver.
#[test]
fn a_panicking_child_is_counted_not_propagated() {
    let bin_dir = Path::new(env!("CARGO_BIN_EXE_fedbench")).parent().unwrap();
    let mut runner = Runner::new(bin_dir, scratch("panic"), true).unwrap();
    let root = runner.rec.open("test", "test", None);
    let w = spec::workload("dense_train").unwrap();
    let trial = runner.trial(w, 7, 0, Instruments::Off, "epochs-0", root).unwrap();
    assert_eq!(trial.child.exit_code, Some(101));
    let why = trial.check(None).unwrap_err();
    assert!(why.contains("dense_train/epochs-0") && why.contains("exit code 101"), "{why}");

    // The same trial with one epoch passes, and a digest of another run fails it.
    let ok = runner.trial(w, 7, 1, Instruments::Off, "epochs-1", root).unwrap();
    let digest = ok.check(None).unwrap().digest.clone();
    assert!(ok.check(Some(&digest)).is_ok());
    assert!(ok.check(Some("0000000000000000")).unwrap_err().contains("differs"));
    // Requesting more epochs than ran is caught from the CSV.
    let short = fedbench::run::Trial { epochs: 2, ..ok };
    assert!(short.check(None).unwrap_err().contains("ran 1 epochs, 2 requested"));
}
