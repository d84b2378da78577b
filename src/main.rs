//! `fedmigr` — the one front door of the FedMigr workspace.
//!
//! ```text
//! fedmigr [run] --scheme fedmigr --partition shards --epochs 150 --csv run.csv
//! fedmigr bench <experiment> [--scale smoke|paper]
//! fedmigr perf | report | diff | netview | validate ...
//! ```
//!
//! `run` is the default subcommand, so a command line that starts with a
//! flag runs an experiment. Each subcommand is one flag table and one entry
//! point in the crate that owns the tool; `fedmigr <subcommand> --help`
//! prints its flags.

use std::process::ExitCode;

/// Counting allocator behind `--profile-alloc`: forwards to the system
/// allocator and, only while alloc profiling is enabled, attributes
/// allocations to the innermost profiled scope.
#[global_allocator]
static ALLOC: fedmigr_telemetry::profiler::CountingAlloc =
    fedmigr_telemetry::profiler::CountingAlloc;

/// A subcommand beside `run`: its name, what it does and its entry point.
type Tool = (&'static str, &'static str, fn(&[String]) -> ExitCode);

const TOOLS: &[Tool] = &[
    ("bench", "run one experiment of the paper's evaluation (tables as Markdown)", |args| {
        fedmigr_bench::command().main(args)
    }),
    ("perf", "time the benchmark matrix and write BENCH_perf.json", |args| {
        fedmigr_bench::perf::command().main(args)
    }),
    ("report", "render a flight recording as a human-readable report", |args| {
        fedmigr::diag::report::command().main(args)
    }),
    ("diff", "gate an artifact against its baseline (exit 0 clean, 1 regressed)", |args| {
        fedmigr::diag::gate::command().main(args)
    }),
    ("netview", "validate and analyze a round timeline", |args| {
        fedmigr::diag::netview::command().main(args)
    }),
    ("validate", "check a JSONL trace and metrics dump against the telemetry schema", |args| {
        fedmigr_telemetry::validate::command().main(args)
    }),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if let Some((_, _, tool)) = TOOLS.iter().find(|(name, ..)| Some(*name) == first) {
        return tool(&args[1..]);
    }
    let rest = if first == Some("run") { &args[1..] } else { &args[..] };
    let mut run = fedmigr::run::command();
    run.about.push_str("\n\nSUBCOMMANDS:\n    run        run one experiment (the default)\n");
    for (name, about, _) in TOOLS {
        run.about.push_str(&format!("    {name:<10} {about}\n"));
    }
    run.about.push_str("\n`fedmigr <subcommand> --help` prints a subcommand's flags.");
    run.main(rest)
}
