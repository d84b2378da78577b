//! `fedbench`: the repo's benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! fedbench [--seed N] [--workload W] [--trace 0|1] [--seconds S] [--out F] [--quick]
//! fedbench compare <a.json> <b.json>
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedbench::compare::compare;
use fedbench::report::Report;
use fedbench::run::{contract_line, trace_json, Runner};
use fedbench::spans::Recorder;
use fedbench::spec::{self, Workload, WORKLOADS};

const USAGE: &str = "\
usage: fedbench [OPTIONS]            run the benchmark (from the repo root)
       fedbench compare <a> <b>      judge result file b against a; exit 1 on any `worse`

OPTIONS:
    --seed <u64>       workload seed; trial t runs the program with seed + t % 4 (default 7)
    --workload <name>  dense_train | dense_comm | dense_observed | fleet_sparse (default: all)
    --trace <0|1>      0: end-to-end metrics only, no trace flag anywhere; 1: per-layer
                       metrics only, from probes and one traced run (default: both)
    --seconds <s>      time budget of each workload's timed trials (default 20)
    --out <path>       also write the result as JSON
    --quick            1 trial, 5 epochs, probes at 3 reps: for the harness's own tests;
                       the result is stamped and `compare` refuses it

With both --workload and --trace the last line of stdout is one JSON object:
{\"correct\", \"attempted\", \"failed\", \"metrics\"}. Exit code 1 when any check failed.
";

/// Where the benchmark may write: trace files and per-child scratch.
const OUT_DIR: &str = "benchmark/out";

struct Opts {
    seed: u64,
    workload: Option<&'static Workload>,
    trace: Option<bool>,
    seconds: f64,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { seed: 7, workload: None, trace: None, seconds: 20.0, out: None, quick: false };
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--workload" => opts.workload = Some(spec::workload(value).ok_or_else(bad)?),
            "--trace" => {
                opts.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<bool, String> {
    if !Path::new("benchmark").is_dir() {
        return Err("no benchmark/ here: run from the repo root (benchmark/run.sh does)".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate fedbench: {e}"))?;
    let bin_dir = exe.parent().ok_or("fedbench has no parent directory")?;
    let scratch = Path::new(OUT_DIR).join("tmp").join(std::process::id().to_string());
    let mut runner = Runner::new(bin_dir, scratch, opts.quick)?;
    // --quick: a single trial whatever the budget.
    let seconds = if opts.quick { 0.0 } else { opts.seconds };

    let mut report = Report {
        quick: opts.quick,
        seed: opts.seed,
        seconds,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        workloads: Vec::new(),
    };
    let mut last_line = None;
    for w in WORKLOADS.iter().filter(|w| opts.workload.is_none_or(|only| only.name == w.name)) {
        // Each workload's trace file holds that workload's spans only.
        runner.rec = Recorder::default();
        let mut result = None;
        if opts.trace != Some(true) {
            eprintln!("fedbench: {} end to end…", w.name);
            result = Some(runner.end_to_end(w, opts.seed, seconds)?);
        }
        if opts.trace != Some(false) {
            eprintln!("fedbench: {} traced run and probes…", w.name);
            let (traced, probe_json) = runner.traced(w, opts.seed)?;
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
            let json = trace_json(&traced, opts.seed, opts.quick, &probe_json, &runner.rec);
            std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("fedbench: wrote {}", path.display());
            result = Some(match result {
                None => traced,
                Some(mut e2e) => {
                    e2e.attempted += traced.attempted;
                    e2e.failed += traced.failed;
                    e2e.failures.extend(traced.failures);
                    e2e.per_layer = traced.per_layer;
                    e2e
                }
            });
        }
        let result = result.expect("one mode always runs");
        if let (Some(_), Some(traced)) = (opts.workload, opts.trace) {
            last_line = Some(contract_line(&result, traced));
        }
        report.workloads.push(result);
    }

    print!("{}", report.to_table());
    if let Some(path) = &opts.out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("fedbench: wrote {}", path.display());
    }
    if let Some(line) = last_line {
        println!("{line}");
    }
    Ok(report.workloads.iter().all(|w| w.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => match &argv[1..] {
            [a, b] => (|| {
                let read = |p: &String| {
                    std::fs::read_to_string(p)
                        .map_err(|e| e.to_string())
                        .and_then(|t| Report::parse(&t))
                        .map_err(|e| format!("{p}: {e}"))
                };
                let (table, any_worse) = compare(&read(a)?, &read(b)?)?;
                print!("{table}");
                Ok(!any_worse)
            })(),
            _ => Err("compare takes two result files".to_string()),
        },
        _ => parse_opts(&argv).and_then(|opts| run(&opts)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fedbench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
