//! Validates and analyzes a round timeline (`--timeline-out` JSONL):
//! per-round critical path, makespan decomposition (compute vs comm vs
//! idle), per-link utilization histograms and the overlap-opportunity
//! estimate.
//!
//! ```text
//! fedmigr_netview <timeline.jsonl> [--json <out.json>] [--chrome-out <trace.json>]
//! ```
//!
//! The timeline is first held to its invariants
//! ([`TimelineRecording::validate`]): versioned header first, start stamps
//! monotone, intervals closed, flow events on declared links. Then the text
//! summary goes to stdout; `--json` writes the deterministic JSON report
//! (gate it with `fedmigr_diff <baseline.json> <out.json>`); `--chrome-out`
//! converts the timeline to Chrome trace-event JSON (Perfetto-viewable).
//! Exits 0 when clean, 1 when the timeline breaks an invariant, 2 on usage
//! or parse errors.

use fedmigr_diag::netview::{analyze, render_json, render_text};
use fedmigr_diag::TimelineRecording;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut timeline, mut json_out, mut chrome_out) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--json" => &mut json_out,
            "--chrome-out" => &mut chrome_out,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ if timeline.is_none() => {
                timeline = Some(arg);
                continue;
            }
            extra => usage(&format!("unexpected argument {extra:?}")),
        };
        *slot = Some(it.next().unwrap_or_else(|| usage(&format!("{arg} wants a value"))));
    }
    let Some(path) = timeline else { usage("no timeline given") };

    let rec = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| TimelineRecording::parse(&text).map_err(|e| format!("{path}: {e}")))
        .unwrap_or_else(|e| die(&e));
    match rec.validate() {
        Ok(summary) => println!("{path}: {summary}"),
        Err(violations) => {
            violations.iter().for_each(|v| eprintln!("{path}: {v}"));
            std::process::exit(1);
        }
    }
    let mut report = analyze(&rec);
    print!("{}", render_text(&report));

    if let Some(out) = json_out {
        write(out, format!("{}\n", render_json(&mut report)));
    }
    if let Some(out) = chrome_out {
        write(out, fedmigr_diag::chrome_trace(&rec));
    }
}

fn write(out: &str, body: String) {
    std::fs::write(out, body).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: fedmigr_netview <timeline.jsonl> [--json <out.json>] [--chrome-out <trace.json>]"
    );
    std::process::exit(2);
}
