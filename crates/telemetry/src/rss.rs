//! Peak-RSS probing via `/proc/self/status`.
//!
//! The fleet memory contract — peak RSS scales with participants-per-round,
//! not fleet size — is enforced by CI and charted by the Fig.-6 harness, so
//! the probe lives in telemetry where both can reach it. `VmHWM` is the
//! kernel's high-water mark of resident set size; it is monotone for the
//! process lifetime unless explicitly reset through `/proc/self/clear_refs`,
//! which lets a benchmark measure each configuration's own peak.
//!
//! Everything here is observation-only and Linux-specific: on platforms
//! without procfs the probe returns `None` and the gauge is simply never
//! set.

use std::io::Write;

/// Name of the peak-RSS gauge exported by [`record_peak_rss`].
pub const PEAK_RSS_BYTES: &str = "fedmigr_peak_rss_bytes";

/// The process's peak resident set size (`VmHWM`) in bytes, or `None`
/// when `/proc/self/status` is unavailable or unparseable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Resets the kernel's RSS high-water mark by writing `5` to
/// `/proc/self/clear_refs` (best-effort; returns whether the write
/// succeeded). After a successful reset, [`peak_rss_bytes`] reports the
/// peak *since the reset*, enabling per-configuration measurement.
pub fn reset_peak_rss() -> bool {
    std::fs::OpenOptions::new()
        .write(true)
        .open("/proc/self/clear_refs")
        .and_then(|mut f| f.write_all(b"5"))
        .is_ok()
}

/// Samples [`peak_rss_bytes`] into this thread's `fedmigr_peak_rss_bytes`
/// gauge and returns the sampled value.
pub fn record_peak_rss() -> Option<u64> {
    let peak = peak_rss_bytes()?;
    crate::metrics::set(PEAK_RSS_BYTES, &[], peak as f64);
    Some(peak)
}

/// Extracts `VmHWM` (reported by the kernel in kB) from a
/// `/proc/self/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tfedmigr\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123456 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn probe_reports_a_plausible_peak_on_linux() {
        if let Some(peak) = peak_rss_bytes() {
            // Any live test process resides in at least a few hundred kB.
            assert!(peak > 100 * 1024, "peak {peak} implausibly small");
            assert_eq!(record_peak_rss(), peak_rss_bytes());
        }
    }

    #[test]
    fn reset_is_best_effort() {
        // Must not panic whether or not the platform allows the write.
        let _ = reset_peak_rss();
    }
}
