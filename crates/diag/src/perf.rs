//! The `fedmigr perf` report (`BENCH_perf.json`): one entry of median/min
//! wall nanoseconds per benchmark, as a versioned JSON document. The
//! `fedmigr perf` binary in `fedmigr-bench` writes it; the gate in
//! [`crate::gate`] compares it against `results/baselines/perf_baseline.json`.

use fedmigr_telemetry::record;
use fedmigr_telemetry::record_fields;

/// Bumped whenever the report layout or the benchmark matrix changes
/// incompatibly; the gate refuses to compare across versions.
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// One benchmark's measured timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfEntry {
    /// Stable benchmark name (`kernel_*`, `codec_*`, `planner_*`,
    /// `flow_*`, `e2e_*`).
    pub name: String,
    /// Median wall nanoseconds across the repeats.
    pub median_ns: u64,
    /// Fastest repeat, the low-noise floor.
    pub min_ns: u64,
    /// Number of timed repeats (after warmup).
    pub repeats: u32,
}
record_fields!(PerfEntry: name, median_ns, min_ns, repeats);

/// A full benchmark run: schema version plus one entry per benchmark.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Schema version of the report ([`PERF_SCHEMA_VERSION`] when written).
    pub version: u32,
    /// `true` when produced with `--quick` (fewer repeats, smaller e2e
    /// workloads) — quick reports are only comparable to quick baselines.
    pub quick: bool,
    /// Entries in execution order.
    pub benchmarks: Vec<PerfEntry>,
}
record_fields!(PerfReport: version, quick, benchmarks);

impl PerfReport {
    /// Serializes to the versioned JSON document checked in as the
    /// baseline (one benchmark object per line for reviewable diffs).
    pub fn to_json(&mut self) -> String {
        record::to_document(self)
    }

    /// Parses a report, rejecting unknown schema versions.
    pub fn parse(text: &str) -> Result<PerfReport, String> {
        let report: PerfReport =
            record::from_json(text).map_err(|e| format!("perf report: {e}"))?;
        if report.version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf report schema v{} is not the supported v{PERF_SCHEMA_VERSION}; \
                 regenerate the baseline",
                report.version
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerfReport {
        let entry =
            PerfEntry { name: "kernel_matmul_128".into(), median_ns: 9, min_ns: 7, repeats: 5 };
        PerfReport { version: PERF_SCHEMA_VERSION, quick: true, benchmarks: vec![entry] }
    }

    #[test]
    fn json_roundtrips() {
        let mut r = report();
        assert_eq!(PerfReport::parse(&r.to_json()).expect("own output parses"), r);
    }

    #[test]
    fn rejects_unknown_schema_version() {
        let mut r = report();
        r.version = PERF_SCHEMA_VERSION + 1;
        let err = PerfReport::parse(&r.to_json()).unwrap_err();
        assert!(err.contains("schema v2 is not the supported v1"), "{err}");
        // One number policy here too: the parent's `field_u64` already held it.
        let bad = report().to_json().replace("\"median_ns\": 9.0", "\"median_ns\": -9.0");
        let err = PerfReport::parse(&bad).unwrap_err();
        assert!(err.contains("bad integer benchmarks.median_ns"), "{err}");
    }
}
