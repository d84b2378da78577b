//! `fedmigr validate`: the CI validator for telemetry exports.
//!
//! ```text
//! fedmigr validate <trace.jsonl> [--metrics <file.prom>]
//!                  [--require <metric family>]... [--min-coverage <0..1>]
//!                  [--mode <dense|fleet>]
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
//! Exits 0 when every check passes, 1 when one fails, 2 on a usage error.
//! (The round timeline is validated where it is read: `fedmigr netview`.)

use std::collections::BTreeSet;
use std::process::ExitCode;

use crate::cli::{first, put_some, usage_error, Command, Flag};
use crate::TraceEvent;

/// Per runner mode: the span names it may emit, then those that must
/// appear at least once. Both modes run one round body; a fleet round also
/// opens `cohort_activate` and `retire` around its block, names its
/// communication phase `migrate`, and never screens a migration (fleet
/// mode runs no adversary).
#[rustfmt::skip]
const MODES: [(&str, &[&str], &[&str]); 2] = [
    ("dense",
     &["round", "local_train", "decision", "communicate", "aggregate", "migration_plan",
       "migration_transfer", "quarantine_screen", "evaluate", "agent_update", "bookkeeping",
       "diagnostics", "update", "bench_main"],
     &["round", "local_train", "communicate", "evaluate"]),
    ("fleet",
     &["round", "cohort_activate", "local_train", "decision", "migrate", "aggregate",
       "migration_plan", "migration_transfer", "evaluate", "agent_update", "bookkeeping",
       "retire", "diagnostics", "update", "bench_main"],
     &["round", "cohort_activate", "local_train", "migrate", "aggregate", "evaluate", "retire"]),
];

/// The options of one `fedmigr validate` run.
#[derive(Debug, Default)]
pub struct Options {
    trace: Option<String>,
    metrics: Option<String>,
    require: Vec<String>,
    min_coverage: Option<f64>,
    mode: Option<String>,
}

/// `fedmigr validate`'s flag table and entry point.
#[rustfmt::skip]
pub fn command() -> Command<Options> {
    let flags: Vec<Flag<Options>> = vec![
        Flag { name: "--metrics", value: "<file.prom>", default: "", set: |o, v| put_some(&mut o.metrics, v),
            help: "also check this Prometheus metrics dump" },
        Flag { name: "--require", value: "<family>", default: "", set: |o, v| { o.require.push(v.into()); Ok(()) },
            help: "a metric family the dump must declare (repeatable)" },
        Flag { name: "--min-coverage", value: "<0..1>", default: "",
            help: "least share of round time its direct child spans must cover",
            set: |o, v| match v.parse::<f64>() {
                Ok(c) if (0.0..=1.0).contains(&c) => put_some(&mut o.min_coverage, v),
                _ => Err("expected a fraction in [0, 1]".into()),
            } },
        Flag { name: "--mode", value: "<dense|fleet>", default: "",
            help: "check span names against this runner's whitelist and required set",
            set: |o, v| match MODES.iter().any(|m| m.0 == v) {
                true => put_some(&mut o.mode, v),
                false => Err("expected dense or fleet".into()),
            } },
    ];
    Command {
        positional: |o, v| first(&mut o.trace, v),
        ..Command::new("validate", "<trace.jsonl>",
            "check a JSONL trace (and a metrics dump) against the telemetry schema", flags, run)
    }
}

fn run(opts: Options) -> ExitCode {
    let Some(trace) = &opts.trace else {
        return usage_error("validate", "no trace given");
    };
    let raw = match std::fs::read_to_string(trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("validate: cannot read {trace}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    let mut events = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("validate: {trace}:{}: {e}", i + 1);
                failed = true;
            }
        }
    }
    let spans = events.iter().filter(|ev| matches!(ev, TraceEvent::Span { .. })).count();
    let logs = events.len() - spans;
    println!("{trace}: {spans} span events, {logs} log events, all lines valid");
    if events.is_empty() {
        eprintln!("validate: trace is empty");
        failed = true;
    }
    if let Some(mode) = &opts.mode {
        failed |= !check_mode(mode, &events);
    }
    if let Some(min) = opts.min_coverage {
        failed |= !check_coverage(min, &events);
    }
    if let Some(path) = &opts.metrics {
        match std::fs::read_to_string(path) {
            Ok(dump) => {
                for family in &opts.require {
                    if !dump.contains(&format!("# TYPE {family} ")) {
                        eprintln!("validate: {path}: missing metric family {family}");
                        failed = true;
                    }
                }
                if !failed {
                    println!("{path}: all {} required families present", opts.require.len());
                }
            }
            Err(e) => {
                eprintln!("validate: cannot read {path}: {e}");
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

/// Every span name is on the mode's whitelist and its required set appears.
fn check_mode(mode: &str, events: &[TraceEvent]) -> bool {
    let (_, allowed, required) = MODES.iter().find(|m| m.0 == mode).expect("checked by --mode");
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut unknown: BTreeSet<&str> = BTreeSet::new();
    for ev in events {
        if let TraceEvent::Span { name, .. } = ev {
            match allowed.iter().find(|a| *a == name) {
                Some(known) => seen.insert(known),
                None => unknown.insert(name),
            };
        }
    }
    for name in &unknown {
        eprintln!("validate: span {name:?} is not in the {mode} whitelist");
    }
    let missing: Vec<_> = required.iter().filter(|name| !seen.contains(*name)).collect();
    for name in &missing {
        eprintln!("validate: required {mode} span {name:?} never appeared");
    }
    if unknown.is_empty() && missing.is_empty() {
        println!(
            "mode {mode}: {} distinct span names, all whitelisted, required set present",
            seen.len()
        );
        return true;
    }
    false
}

/// Direct child phase spans (depth == round depth + 1) cover at least `min`
/// of the time the `round` spans themselves measured.
fn check_coverage(min: f64, events: &[TraceEvent]) -> bool {
    let spans: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Span { name, dur, depth, .. } => Some((name.as_str(), *dur, *depth)),
            TraceEvent::Log { .. } => None,
        })
        .collect();
    let mut rounds = spans.iter().filter(|(name, ..)| *name == "round");
    let round_total: f64 = rounds.clone().map(|s| s.1).sum();
    let child_total: f64 = match rounds.next_back() {
        Some(&(_, _, rd)) => {
            spans.iter().filter(|s| s.0 != "round" && s.2 == rd + 1).map(|s| s.1).sum()
        }
        None => 0.0,
    };
    if round_total <= 0.0 {
        eprintln!("validate: no `round` spans found; cannot check coverage");
        return false;
    }
    let coverage = (child_total / round_total).min(1.0);
    println!("round coverage: {:.1}% (bound {:.1}%)", coverage * 100.0, min * 100.0);
    if coverage < min {
        eprintln!(
            "validate: phase spans cover {:.1}% of round time, below {:.1}%",
            coverage * 100.0,
            min * 100.0
        );
        return false;
    }
    true
}
