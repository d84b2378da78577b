//! Continuous performance benchmarks: a fixed matrix of micro and
//! end-to-end timings behind the `fedmigr_perf` binary, which runs every
//! benchmark with a warmup/repeat/median-of-N protocol and writes a
//! [`fedmigr_diag::perf::PerfReport`] (`BENCH_perf.json`). CI gates that
//! report against the checked-in `results/baselines/perf_baseline.json`
//! with `fedmigr_diff`.
//!
//! Medians are compared, not means: one preempted repeat on a shared CI
//! runner should not fail the gate, a consistent slowdown should.

use std::time::Instant;

use fedmigr_diag::perf::PerfEntry;

/// Times `f` with `warmup` untimed then `repeats` timed invocations and
/// returns the median/min entry. `repeats` is clamped to at least 1.
pub fn measure<F: FnMut()>(name: &str, warmup: u32, repeats: u32, mut f: F) -> PerfEntry {
    for _ in 0..warmup {
        f();
    }
    let repeats = repeats.max(1);
    let mut times: Vec<u64> = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        times.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    times.sort_unstable();
    PerfEntry {
        name: name.to_string(),
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_ordering() {
        let e = measure("spin", 1, 5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(e.repeats, 5);
        assert!(e.min_ns <= e.median_ns);
        assert!(e.median_ns > 0);
    }
}
