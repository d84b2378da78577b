//! Runs one experiment of the table in `fedmigr_bench::experiments` and
//! prints its tables as Markdown:
//!
//! ```text
//! fedmigr_bench <experiment> [--scale smoke|paper] [--timeline-out <path>]
//!               [--log-level <spec>] [--trace-out <path>] [--metrics-out <path>]
//! fedmigr_bench --list
//! ```
//!
//! `--list` prints every experiment name. Exit status: 0 on success, 1 when
//! a named check fails, 2 on bad input.

use std::process::ExitCode;

use fedmigr_bench::{experiments, init_observability, parse_args, Command};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::List) => {
            experiments::names().iter().for_each(|name| println!("{name}"));
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(opts)) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let _obs = init_observability(&opts);
    match experiments::run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.experiment);
            ExitCode::from(1)
        }
    }
}
