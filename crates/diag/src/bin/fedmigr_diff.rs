//! Gates a fresh artifact against its checked-in baseline.
//!
//! ```text
//! fedmigr_diff <baseline> <current>
//! ```
//!
//! The baseline's content says what is being gated and under which rule
//! (see [`fedmigr_diag::gate`]): a flight recording (`--flight-out`), a
//! `fedmigr_perf` report or a `fedmigr_netview --json` report. Exits 0 when
//! nothing regressed past its budget, 1 on regressions, 2 on usage or
//! read errors.

use fedmigr_diag::gate::{check, Outcome};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match &args[..] {
        [baseline, current] if !baseline.starts_with('-') && !current.starts_with('-') => {
            check(baseline, current)
        }
        _ => Outcome::Error("usage: fedmigr_diff <baseline> <current>".into()),
    };
    outcome.report();
    std::process::exit(outcome.code().into());
}
