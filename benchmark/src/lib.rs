//! `fedbench`: the repo's benchmark.
//!
//! End-to-end numbers come from driving the release `fedmigr` CLI as a child
//! process, one at a time ([`child`]); per-layer numbers come from the
//! `fedbench_probe` binary, which times calls into each crate's public
//! functions, and from one traced CLI run per workload whose spans and
//! counters [`parse`] reads. [`spec`] holds the workloads and the metric
//! tables, [`report`] the result format, [`compare`] the A/A and
//! parent-vs-change verdicts. See `benchmark/README.md`.

pub mod child;
pub mod compare;
pub mod parse;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
