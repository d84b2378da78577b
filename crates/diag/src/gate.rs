//! The regression gate: one comparison of a fresh artifact against its
//! checked-in baseline, behind `fedmigr diff`.
//!
//! The kind of artifact is recognised from the baseline's content and
//! decides the rule:
//!
//! * a **flight recording** — directional slack ([`diff_recordings`]):
//!   accuracy falling, virtual-dataset EMD rising, wire bytes or virtual
//!   time growing past the baseline's embedded [`Tolerances`] (else the
//!   defaults); improvements never fail;
//! * a **perf report** — ratio over a noise floor, plus vanished entries
//!   ([`diff_reports`]);
//! * a **netview report** — every numeric leaf within [`LEAF_TOLERANCE`],
//!   shapes and strings exact ([`diff_json`]).
//!
//! [`check`] returns an [`Outcome`] whose code is the process exit status:
//! 0 clean, 1 regressed, 2 unreadable or incomparable inputs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use fedmigr_telemetry::cli::Command;
use fedmigr_telemetry::record_fields;
use fedmigr_telemetry::trace::JsonValue;

use crate::flight::FlightRecording;
use crate::perf::{PerfEntry, PerfReport};

/// How far each flight metric may regress before the gate fails.
///
/// Accuracy and EMD budgets are absolute (both metrics live in `[0, 1]`);
/// bytes and time budgets are fractional since their scales vary with
/// config. The defaults absorb cross-platform float jitter on a seeded
/// smoke run while still catching real regressions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerances {
    /// Allowed absolute drop in final/best accuracy.
    pub accuracy_drop: f64,
    /// Allowed absolute rise in fleet-mean EMD (final and run-mean).
    pub emd_rise: f64,
    /// Allowed fractional rise in total wire bytes.
    pub bytes_rise_frac: f64,
    /// Allowed fractional rise in total virtual time.
    pub time_rise_frac: f64,
}
record_fields!(Tolerances as "tolerances": accuracy_drop, emd_rise, bytes_rise_frac, time_rise_frac);

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            accuracy_drop: 0.05,
            emd_rise: 0.05,
            bytes_rise_frac: 0.10,
            time_rise_frac: 0.25,
        }
    }
}

/// A benchmark regresses when `current_median > baseline_median *
/// MAX_RATIO`: an injected 2× slowdown must fail, one noisy CI scheduler
/// tick must not.
pub const MAX_RATIO: f64 = 1.6;

/// Benchmarks whose baseline *and* current medians are below this are never
/// flagged: sub-threshold timings are timer jitter, not signal.
pub const NOISE_FLOOR_NS: u64 = 20_000;

/// Relative tolerance of a netview report's numeric leaves (absolute for
/// magnitudes below 1).
pub const LEAF_TOLERANCE: f64 = 1e-6;

/// Compares `current` against `baseline` under `tol`.
///
/// Returns `Err` when the recordings are not comparable (different scheme,
/// client count or codec — a config change, not a regression); otherwise
/// one line per metric that moved past its budget in the *bad* direction,
/// none when the gate passes.
pub fn diff_recordings(
    baseline: &FlightRecording,
    current: &FlightRecording,
    tol: &Tolerances,
) -> Result<Vec<String>, String> {
    let (b, c) = (&baseline.header, &current.header);
    for (what, b, c) in [
        ("scheme", b.scheme.clone(), c.scheme.clone()),
        ("codec", b.codec.clone(), c.codec.clone()),
        ("clients", b.clients.to_string(), c.clients.to_string()),
    ] {
        if b != c {
            return Err(format!("recordings are not comparable: {what} {b} vs {c}"));
        }
    }
    let axis = |metric, worse: f64, of: fn(&FlightRecording) -> f64, slack: f64| {
        (metric, worse, of(baseline), of(current), slack)
    };
    let bytes: fn(&FlightRecording) -> f64 = |r| r.total_bytes() as f64;
    // `worse` is the sign of a regression: accuracy regresses downwards.
    // Bytes and time budgets are fractions of the baseline.
    let axes = [
        axis("final_accuracy", -1.0, FlightRecording::final_accuracy, tol.accuracy_drop),
        axis("best_accuracy", -1.0, FlightRecording::best_accuracy, tol.accuracy_drop),
        axis("final_emd_mean", 1.0, FlightRecording::final_emd_mean, tol.emd_rise),
        axis("mean_emd_over_run", 1.0, FlightRecording::mean_emd_over_run, tol.emd_rise),
        axis(
            "mean_train_emd_over_run",
            1.0,
            FlightRecording::mean_train_emd_over_run,
            tol.emd_rise,
        ),
        axis("total_bytes", 1.0, bytes, tol.bytes_rise_frac * bytes(baseline)),
        axis("sim_time", 1.0, FlightRecording::sim_time, tol.time_rise_frac * baseline.sim_time()),
    ];
    Ok(axes
        .iter()
        .filter(|(_, worse, b, c, slack)| worse * (c - b) > *slack)
        .map(|(metric, _, b, c, slack)| {
            format!("{metric}: baseline {b:.6} -> current {c:.6} (allowed slack {slack:.6})")
        })
        .collect())
}

/// Compares `current` against `baseline`: one line per benchmark whose
/// median slowed past [`MAX_RATIO`] (above the [`NOISE_FLOOR_NS`]) or that
/// vanished — a silently dropped benchmark is how coverage rots. New
/// benchmarks are fine; they get a baseline entry on the next refresh.
pub fn diff_reports(baseline: &PerfReport, current: &PerfReport) -> Result<Vec<String>, String> {
    if baseline.version != current.version {
        return Err(format!(
            "schema mismatch: baseline v{} vs current v{}; regenerate the baseline",
            baseline.version, current.version
        ));
    }
    if baseline.quick != current.quick {
        return Err(format!(
            "mode mismatch: baseline quick={} vs current quick={}; compare like with like",
            baseline.quick, current.quick
        ));
    }
    let cur: BTreeMap<&str, &PerfEntry> =
        current.benchmarks.iter().map(|b| (b.name.as_str(), b)).collect();
    let mut regs = Vec::new();
    for base in &baseline.benchmarks {
        let Some(c) = cur.get(base.name.as_str()) else {
            regs.push(format!("{}: present in baseline but missing from current run", base.name));
            continue;
        };
        if base.median_ns < NOISE_FLOOR_NS && c.median_ns < NOISE_FLOOR_NS {
            continue;
        }
        let ratio = c.median_ns as f64 / base.median_ns.max(1) as f64;
        if ratio > MAX_RATIO {
            regs.push(format!(
                "{}: {:.3} ms -> {:.3} ms ({ratio:.2}x slower)",
                base.name,
                base.median_ns as f64 / 1e6,
                c.median_ns as f64 / 1e6,
            ));
        }
    }
    Ok(regs)
}

/// Compares two JSON documents (baseline vs current) leaf by leaf. Numeric
/// leaves must agree within relative tolerance `tol` (absolute for
/// magnitudes below 1); strings and shapes must match exactly. Returns
/// human-readable mismatch descriptions, empty when the gate passes.
pub fn diff_json(baseline: &JsonValue, current: &JsonValue, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    diff_value("$", baseline, current, tol, &mut out);
    out
}

fn diff_value(path: &str, a: &JsonValue, b: &JsonValue, tol: f64, out: &mut Vec<String>) {
    // Cap the noise: a systematic mismatch floods every leaf.
    if out.len() >= 32 {
        return;
    }
    match (a, b) {
        (JsonValue::Object(ao), JsonValue::Object(bo)) => {
            for (k, av) in ao {
                match bo.get(k) {
                    Some(bv) => diff_value(&format!("{path}.{k}"), av, bv, tol, out),
                    None => out.push(format!("{path}.{k}: missing in current")),
                }
            }
            for k in bo.keys() {
                if !ao.contains_key(k) {
                    out.push(format!("{path}.{k}: unexpected in current"));
                }
            }
        }
        (JsonValue::Array(aa), JsonValue::Array(ba)) => {
            if aa.len() != ba.len() {
                out.push(format!("{path}: length {} vs {}", aa.len(), ba.len()));
                return;
            }
            for (i, (av, bv)) in aa.iter().zip(ba).enumerate() {
                diff_value(&format!("{path}[{i}]"), av, bv, tol, out);
            }
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let scale = x.abs().max(1.0);
                if (x - y).abs() > tol * scale {
                    out.push(format!("{path}: {x} vs {y} (tol {tol})"));
                }
            }
            _ => {
                if a.as_str() != b.as_str() || a.as_str().is_none() {
                    out.push(format!("{path}: {a:?} vs {b:?}"));
                }
            }
        },
    }
}

/// The kinds of artifact the gate knows, each with its own rule.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Flight,
    Perf,
    Netview,
}

impl Kind {
    /// Recognises an artifact from its content: a single JSON document
    /// with a `benchmarks` member is a perf report, one with a
    /// `critical_path` member a netview report; a file whose first line is
    /// an object with a `kind` is a flight recording.
    fn of(text: &str) -> Option<Kind> {
        let has = |json: &str, key| {
            JsonValue::parse(json.trim())
                .is_ok_and(|doc| doc.as_object().is_some_and(|o| o.contains_key(key)))
        };
        let first_line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or_default();
        if has(text, "benchmarks") {
            Some(Kind::Perf)
        } else if has(text, "critical_path") {
            Some(Kind::Netview)
        } else {
            has(first_line, "kind").then_some(Kind::Flight)
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Flight => "flight recording",
            Kind::Perf => "perf report",
            Kind::Netview => "netview report",
        }
    }
}

/// What a gate run concluded.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Nothing regressed; the line summarises what was compared.
    Pass(String),
    /// One line per regression.
    Regressed(Vec<String>),
    /// The inputs could not be read or compared.
    Error(String),
}

impl Outcome {
    /// The process exit status: 0 clean, 1 regressed, 2 error.
    pub fn code(&self) -> u8 {
        match self {
            Outcome::Pass(_) => 0,
            Outcome::Regressed(_) => 1,
            Outcome::Error(_) => 2,
        }
    }

    /// Prints `OK: ...` to stdout, or the `FAIL`/`error` lines to stderr.
    pub fn report(&self) {
        match self {
            Outcome::Pass(summary) => println!("OK: {summary}"),
            Outcome::Regressed(lines) => {
                eprintln!("FAIL: {} regression(s) past tolerance:", lines.len());
                lines.iter().for_each(|line| eprintln!("  {line}"));
            }
            Outcome::Error(e) => eprintln!("error: {e}"),
        }
    }
}

/// Gates the artifact at `current_path` against the baseline at
/// `baseline_path`. The baseline's content picks the kind and so the rule;
/// `current` is read as that same kind, so its faults are named in that
/// format's terms and a key it lost is a regression, not a read error. A
/// `current` that is recognisably another kind is an error.
pub fn check(baseline_path: &str, current_path: &str) -> Outcome {
    let compare = || {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let (base_text, cur_text) = (read(baseline_path)?, read(current_path)?);
        let kind = Kind::of(&base_text).ok_or_else(|| {
            format!("{baseline_path}: not a flight recording, perf report or netview report")
        })?;
        if let Some(other) = Kind::of(&cur_text).filter(|other| *other != kind) {
            return Err(format!("cannot gate a {} against a {}", other.name(), kind.name()));
        }
        let base_err = |e: String| format!("{baseline_path}: {e}");
        let cur_err = |e: String| format!("{current_path}: {e}");
        let (summary, regressions) = match kind {
            Kind::Flight => {
                let b = FlightRecording::parse(&base_text).map_err(base_err)?;
                let c = FlightRecording::parse(&cur_text).map_err(cur_err)?;
                let summary = format!(
                    "{} vs baseline — acc {:.4} (base {:.4}), run-mean EMD {:.4} (base {:.4}), \
                     {:.2} MB (base {:.2})",
                    c.header.scheme,
                    c.final_accuracy(),
                    b.final_accuracy(),
                    c.mean_emd_over_run(),
                    b.mean_emd_over_run(),
                    c.total_bytes() as f64 / 1e6,
                    b.total_bytes() as f64 / 1e6,
                );
                (summary, diff_recordings(&b, &c, &b.tolerances.unwrap_or_default())?)
            }
            Kind::Perf => {
                let b = PerfReport::parse(&base_text).map_err(base_err)?;
                let c = PerfReport::parse(&cur_text).map_err(cur_err)?;
                let summary = format!(
                    "{} benchmarks within {MAX_RATIO:.2}x of baseline ({} compared)",
                    c.benchmarks.len(),
                    b.benchmarks.len(),
                );
                (summary, diff_reports(&b, &c)?)
            }
            Kind::Netview => {
                let document = |text: &str| {
                    JsonValue::parse(text.trim()).map_err(|e| format!("netview report: {e}"))
                };
                let b = document(&base_text).map_err(base_err)?;
                let c = document(&cur_text).map_err(cur_err)?;
                let summary = format!("netview matches {baseline_path} (tol {LEAF_TOLERANCE})");
                (summary, diff_json(&b, &c, LEAF_TOLERANCE))
            }
        };
        Ok(if regressions.is_empty() {
            Outcome::Pass(summary)
        } else {
            Outcome::Regressed(regressions)
        })
    };
    compare().unwrap_or_else(Outcome::Error)
}

/// The options of one `fedmigr diff` run: the baseline, then the current.
#[derive(Debug, Default)]
pub struct Options {
    paths: Vec<String>,
}

/// `fedmigr diff <baseline> <current>`: gates the current artifact against
/// its baseline ([`check`]); the exit status is [`Outcome::code`].
pub fn command() -> Command<Options> {
    let about = "gate a fresh artifact against its checked-in baseline (exit 0 clean, 1 \
                 regressed, 2 unreadable)";
    Command {
        positional: |o, v| {
            o.paths.push(v.into());
            Ok(())
        },
        check: |o| match o.paths.len() {
            2 => Ok(()),
            _ => Err("want exactly two artifacts: <baseline> <current>".into()),
        },
        ..Command::new("diff", "<baseline> <current>", about, Vec::new(), |o| {
            let outcome = check(&o.paths[0], &o.paths[1]);
            outcome.report();
            ExitCode::from(outcome.code())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::EmdSnapshot;
    use crate::flight::{FlightHeader, FlightRecorder, RoundRecord, FLIGHT_VERSION};
    use crate::perf::PERF_SCHEMA_VERSION;

    fn recording(acc: f64, emd: f64, bytes: u64, time: f64) -> FlightRecording {
        let header = FlightHeader {
            version: FLIGHT_VERSION,
            scheme: "FedMigr".into(),
            clients: 4,
            epochs: 10,
            seed: 1,
            agg_interval: 5,
            codec: "identity".into(),
        };
        let round = RoundRecord {
            epoch: 10,
            train_loss: 1.0,
            test_accuracy: Some(acc),
            sim_time: time,
            c2s_bytes: bytes,
            emd: EmdSnapshot { per_client: vec![emd; 4], mean: emd, max: emd },
            train_emd: EmdSnapshot { per_client: vec![emd; 4], mean: emd, max: emd },
            ..RoundRecord::default()
        };
        FlightRecording { header, rounds: vec![round], summary: None, tolerances: None }
    }

    fn flight_regs(base: &FlightRecording, cur: &FlightRecording) -> Vec<String> {
        diff_recordings(base, cur, &Tolerances::default()).unwrap()
    }

    #[test]
    fn identical_and_improved_recordings_pass() {
        let base = recording(0.7, 0.2, 1000, 50.0);
        assert_eq!(flight_regs(&base, &base.clone()), Vec::<String>::new());
        let better = recording(0.9, 0.05, 500, 25.0);
        assert_eq!(flight_regs(&base, &better), Vec::<String>::new());
        // Inside every budget at once.
        let near = recording(0.66, 0.24, 1090, 60.0);
        assert_eq!(flight_regs(&base, &near), Vec::<String>::new());
    }

    /// One current recording per axis, each just past its default budget.
    fn one_axis_worse() -> [(&'static str, FlightRecording); 4] {
        let tol = Tolerances::default();
        [
            ("final_accuracy", recording(0.7 - tol.accuracy_drop - 0.01, 0.2, 1000, 50.0)),
            ("final_emd_mean", recording(0.7, 0.2 + tol.emd_rise + 0.01, 1000, 50.0)),
            ("total_bytes", recording(0.7, 0.2, 1200, 50.0)),
            ("sim_time", recording(0.7, 0.2, 1000, 70.0)),
        ]
    }

    #[test]
    fn each_flight_axis_trips_its_own_gate() {
        let base = recording(0.7, 0.2, 1000, 50.0);
        for (metric, worse) in one_axis_worse() {
            let regs = flight_regs(&base, &worse);
            assert!(regs.iter().any(|r| r.starts_with(metric)), "{metric}: {regs:?}");
        }
    }

    #[test]
    fn incomparable_flight_configs_error() {
        let base = recording(0.7, 0.2, 1000, 50.0);
        let mut other = base.clone();
        other.header.scheme = "FedAvg".into();
        assert!(diff_recordings(&base, &other, &Tolerances::default()).is_err());
        let mut other = base.clone();
        other.header.clients = 8;
        assert!(diff_recordings(&base, &other, &Tolerances::default()).is_err());
    }

    fn report(pairs: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            version: PERF_SCHEMA_VERSION,
            quick: false,
            benchmarks: pairs
                .iter()
                .map(|&(name, median_ns)| PerfEntry {
                    name: name.into(),
                    median_ns,
                    min_ns: median_ns / 2,
                    repeats: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn injected_2x_slowdown_is_caught_and_equal_runs_pass() {
        let base = report(&[
            ("kernel_matmul_128", 2_000_000),
            ("codec_int8_roundtrip", 5_000_000),
            ("e2e_dense_lockstep", 90_000_000),
        ]);
        assert!(diff_reports(&base, &base).unwrap().is_empty());

        // One benchmark slowed 2x: exactly that one is flagged.
        let mut slow = base.clone();
        slow.benchmarks[1].median_ns *= 2;
        let regs = diff_reports(&base, &slow).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].starts_with("codec_int8_roundtrip") && regs[0].contains("2.00x"));

        // Within-budget wobble (1.3x) passes.
        let mut wobble = base.clone();
        wobble.benchmarks[0].median_ns = wobble.benchmarks[0].median_ns * 13 / 10;
        assert!(diff_reports(&base, &wobble).unwrap().is_empty());
    }

    #[test]
    fn vanished_benchmark_and_noise_floor() {
        let base = report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 5_000)]);

        // Dropped benchmark fails the gate.
        let regs = diff_reports(&base, &report(&[("kernel_matmul_128", 2_000_000)])).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("missing"));

        // A 3x swing below the noise floor is ignored.
        let noisy = report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 15_000)]);
        assert!(diff_reports(&base, &noisy).unwrap().is_empty());

        // New benchmarks in current are not regressions.
        let extra =
            report(&[("kernel_matmul_128", 2_000_000), ("kernel_tiny", 5_000), ("new_one", 1)]);
        assert!(diff_reports(&base, &extra).unwrap().is_empty());
    }

    #[test]
    fn mode_and_version_mismatches_are_errors() {
        let base = report(&[("kernel_matmul_128", 1_000_000)]);
        let mut quick = base.clone();
        quick.quick = true;
        assert!(diff_reports(&base, &quick).is_err());
        let mut other = base.clone();
        other.version += 1;
        assert!(diff_reports(&base, &other).is_err());
    }

    const NETVIEW: &str = "{\"makespan_s\":2.0,\"critical_path\":[{\"epoch\":1.0}]}";

    #[test]
    fn json_leaves_are_gated_by_tolerance_and_shape() {
        let v = JsonValue::parse(NETVIEW).unwrap();
        assert!(diff_json(&v, &v, 1e-9).is_empty(), "self-diff is clean");
        let bumped = JsonValue::parse(&NETVIEW.replace("2.0", "2.5")).unwrap();
        let regs = diff_json(&v, &bumped, 1e-6);
        assert!(regs.iter().any(|r| r.contains("makespan_s")), "{regs:?}");
        assert!(diff_json(&v, &bumped, 0.5).is_empty(), "quiet within tolerance");
    }

    /// Writes `text` where [`check`] can load it.
    fn file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join(format!("fedmigr-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, text).unwrap();
        path
    }

    fn flight_file(name: &str, rec: &FlightRecording) -> String {
        let path = file(name, "");
        let mut out = FlightRecorder::create(&path).unwrap();
        out.line(&mut rec.header.clone()).unwrap();
        rec.rounds.iter().for_each(|r| out.line(&mut r.clone()).unwrap());
        path
    }

    #[test]
    fn exit_codes_cover_every_kind_of_baseline() {
        // Flight: clean, then each axis.
        let base = flight_file("base.jsonl", &recording(0.7, 0.2, 1000, 50.0));
        let outcome = check(&base, &base);
        assert_eq!(outcome.code(), 0, "{outcome:?}");
        for (metric, worse) in one_axis_worse() {
            let outcome = check(&base, &flight_file("worse.jsonl", &worse));
            assert_eq!(outcome.code(), 1, "{metric}: {outcome:?}");
        }

        // Perf: a 2x slowdown and a vanished entry.
        let perf = file("perf.json", &report(&[("a", 2_000_000), ("b", 4_000_000)]).to_json());
        assert_eq!(check(&perf, &perf).code(), 0);
        let slow = file("slow.json", &report(&[("a", 4_000_000), ("b", 4_000_000)]).to_json());
        assert_eq!(check(&perf, &slow).code(), 1);
        let gone = file("gone.json", &report(&[("a", 2_000_000)]).to_json());
        assert_eq!(check(&perf, &gone).code(), 1);

        // Netview: a leaf past tolerance and a missing key.
        let net = file("net.json", NETVIEW);
        assert_eq!(check(&net, &net).code(), 0);
        let leaf = file("leaf.json", &NETVIEW.replace("2.0", "2.1"));
        assert_eq!(check(&net, &leaf).code(), 1);
        let short = file("short.json", "{\"critical_path\":[{\"epoch\":1.0}]}");
        assert_eq!(check(&net, &short).code(), 1);
        // The baseline says what `current` is: without the key it would be
        // recognised by, a netview report is still gated as one.
        let outcome = check(&net, &file("lost.json", "{\"makespan_s\":2.0}"));
        let Outcome::Regressed(lines) = &outcome else { panic!("{outcome:?}") };
        assert_eq!(lines, &["$.critical_path: missing in current"]);

        // Unreadable file, unrecognisable baseline, mismatched kinds.
        assert_eq!(check(&base, "/nonexistent/flight.jsonl").code(), 2);
        assert_eq!(check(&file("junk.txt", "not an artifact\n"), &base).code(), 2);
        for (baseline, current) in [(&perf, &net), (&base, &perf), (&net, &base), (&net, &perf)] {
            let outcome = check(baseline, current);
            let Outcome::Error(e) = &outcome else { panic!("{outcome:?}") };
            assert!(e.starts_with("cannot gate a "), "{e}");
        }
        // A current file of no recognisable kind is read as the baseline's
        // kind, and its fault named in that format's terms.
        let torn = report(&[("a", 2_000_000)]).to_json();
        let outcome = check(&perf, &file("torn.json", &torn[..torn.len() / 2]));
        let Outcome::Error(e) = &outcome else { panic!("{outcome:?}") };
        assert!(e.contains("torn.json: perf report: "), "{e}");

        // A report from a newer schema is refused, not compared.
        let mut future = report(&[("a", 2_000_000), ("b", 4_000_000)]);
        future.version = PERF_SCHEMA_VERSION + 1;
        let outcome = check(&perf, &file("future.json", &future.to_json()));
        let Outcome::Error(e) = &outcome else { panic!("{outcome:?}") };
        assert!(e.contains("schema v2 is not the supported v1"), "{e}");
    }
}
