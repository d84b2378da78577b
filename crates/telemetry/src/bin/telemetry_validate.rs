//! CI validator for telemetry exports.
//!
//! ```text
//! telemetry_validate <trace.jsonl> [--metrics <file.prom>]
//!                    [--require <metric family>]... [--min-coverage <0..1>]
//!                    [--mode <dense|fleet>]
//! ```
//!
//! * Parses every line of the JSONL trace through the strict
//!   [`TraceEvent::parse`] schema; any malformed line fails the run.
//! * With `--metrics`, checks the Prometheus exposition dump declares a
//!   `# TYPE` line for each `--require`d family.
//! * With `--min-coverage`, computes what fraction of the total `round`
//!   span time is covered by its direct child phase spans and fails below
//!   the bound — the guard behind the "spans cover the round wall-clock"
//!   acceptance criterion.
//! * With `--mode`, checks every span name against that runner's whitelist
//!   and requires the core phases of the mode to appear at least once, so
//!   a renamed or silently-dropped phase span fails CI instead of shipping.
//!
//! (The round timeline is validated where it is read: `fedmigr_netview`.)

use std::collections::BTreeSet;
use std::process::ExitCode;

use fedmigr_telemetry::TraceEvent;

/// Span names each runner mode may emit.
const DENSE_SPANS: &[&str] = &[
    "round",
    "local_train",
    "decision",
    "communicate",
    "aggregate",
    "migration_plan",
    "migration_transfer",
    "quarantine_screen",
    "evaluate",
    "agent_update",
    "bookkeeping",
    "diagnostics",
    "update",
    "bench_main",
];

const FLEET_SPANS: &[&str] = &[
    "round",
    "cohort_activate",
    "local_train",
    "decision",
    "migrate",
    "aggregate",
    "evaluate",
    "retire",
    "bookkeeping",
    "update",
    "bench_main",
];

/// Span names that must appear at least once per mode.
const DENSE_REQUIRED: &[&str] = &["round", "local_train", "communicate", "evaluate"];
const FLEET_REQUIRED: &[&str] = &["round", "cohort_activate", "local_train", "aggregate"];

struct Args {
    trace: String,
    metrics: Option<String>,
    require: Vec<String>,
    min_coverage: Option<f64>,
    mode: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: telemetry_validate <trace.jsonl> [--metrics <file.prom>] \
         [--require <family>]... [--min-coverage <0..1>] [--mode <dense|fleet>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        trace: String::new(),
        metrics: None,
        require: Vec::new(),
        min_coverage: None,
        mode: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--require" => args.require.push(it.next().unwrap_or_else(|| usage())),
            "--mode" => {
                let raw = it.next().unwrap_or_else(|| usage());
                match raw.as_str() {
                    "dense" | "fleet" => args.mode = Some(raw),
                    _ => {
                        eprintln!("telemetry_validate: unknown --mode {raw:?}");
                        usage()
                    }
                }
            }
            "--min-coverage" => {
                let raw = it.next().unwrap_or_else(|| usage());
                match raw.parse::<f64>() {
                    Ok(v) if (0.0..=1.0).contains(&v) => args.min_coverage = Some(v),
                    _ => {
                        eprintln!("telemetry_validate: bad --min-coverage {raw:?}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if args.trace.is_empty() && !other.starts_with('-') => {
                args.trace = other.to_string();
            }
            other => {
                eprintln!("telemetry_validate: unknown argument {other:?}");
                usage()
            }
        }
    }
    if args.trace.is_empty() {
        usage()
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failed = false;

    let raw = match std::fs::read_to_string(&args.trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("telemetry_validate: cannot read {}: {e}", args.trace);
            return ExitCode::FAILURE;
        }
    };

    let mut events = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("telemetry_validate: {}:{}: {e}", args.trace, i + 1);
                failed = true;
            }
        }
    }
    let (mut spans, mut logs) = (0usize, 0usize);
    for ev in &events {
        match ev {
            TraceEvent::Span { .. } => spans += 1,
            TraceEvent::Log { .. } => logs += 1,
        }
    }
    println!("{}: {spans} span events, {logs} log events, all lines valid", args.trace);
    if events.is_empty() {
        eprintln!("telemetry_validate: trace is empty");
        failed = true;
    }

    if let Some(mode) = &args.mode {
        let (allowed, required) = match mode.as_str() {
            "dense" => (DENSE_SPANS, DENSE_REQUIRED),
            _ => (FLEET_SPANS, FLEET_REQUIRED),
        };
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut unknown: BTreeSet<String> = BTreeSet::new();
        for ev in &events {
            if let TraceEvent::Span { name, .. } = ev {
                if let Some(known) = allowed.iter().find(|a| *a == name) {
                    seen.insert(known);
                } else {
                    unknown.insert(name.clone());
                }
            }
        }
        for name in &unknown {
            eprintln!("telemetry_validate: span {name:?} is not in the {mode} whitelist");
            failed = true;
        }
        let mut missing = 0usize;
        for name in required {
            if !seen.contains(name) {
                eprintln!("telemetry_validate: required {mode} span {name:?} never appeared");
                failed = true;
                missing += 1;
            }
        }
        if unknown.is_empty() && missing == 0 {
            println!(
                "mode {mode}: {} distinct span names, all whitelisted, required set present",
                seen.len()
            );
        }
    }

    if let Some(min) = args.min_coverage {
        // Direct child phase spans (depth == round depth + 1) over the time
        // the `round` spans themselves measured.
        let mut round_total = 0.0;
        let mut round_depth = None;
        for ev in &events {
            if let TraceEvent::Span { name, dur, depth, .. } = ev {
                if name == "round" {
                    round_total += dur;
                    round_depth = Some(*depth);
                }
            }
        }
        let mut child_total = 0.0;
        if let Some(rd) = round_depth {
            for ev in &events {
                if let TraceEvent::Span { name, dur, depth, .. } = ev {
                    if name != "round" && *depth == rd + 1 {
                        child_total += dur;
                    }
                }
            }
        }
        if round_total <= 0.0 {
            eprintln!("telemetry_validate: no `round` spans found; cannot check coverage");
            failed = true;
        } else {
            let coverage = (child_total / round_total).min(1.0);
            println!("round coverage: {:.1}% (bound {:.1}%)", coverage * 100.0, min * 100.0);
            if coverage < min {
                eprintln!(
                    "telemetry_validate: phase spans cover {:.1}% of round time, below {:.1}%",
                    coverage * 100.0,
                    min * 100.0
                );
                failed = true;
            }
        }
    }

    if let Some(path) = &args.metrics {
        match std::fs::read_to_string(path) {
            Ok(dump) => {
                for family in &args.require {
                    if !dump.contains(&format!("# TYPE {family} ")) {
                        eprintln!("telemetry_validate: {path}: missing metric family {family}");
                        failed = true;
                    }
                }
                if !failed {
                    println!("{path}: all {} required families present", args.require.len());
                }
            }
            Err(e) => {
                eprintln!("telemetry_validate: cannot read {path}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
