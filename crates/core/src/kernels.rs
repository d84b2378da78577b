//! Per-phase kernel attribution and the run-summary kernel table.
//!
//! The tensor/nn kernels account FLOPs, bytes and outermost wall time into
//! the calling thread's ledger ([`fedmigr_tensor::kcount`]). Runners hold a
//! [`KernelPhases`] recorder and call [`KernelPhases::credit`] at each phase
//! boundary; the delta of the run thread's ledger since the previous
//! boundary lands in the run thread's `fedmigr_kernel_*` counter families
//! labelled `{kernel, phase}`. Because the runner's phases are sequential and
//! `fan_out` merges each worker's ledger at its join, inside the phase that
//! started it, the deltas partition the kernel totals exactly.
//!
//! [`kernel_table`] renders those counters (plus the `fedmigr_phase_seconds`
//! wall-clock histograms) from the calling thread's registry into the
//! per-phase GFLOP/s / arithmetic-intensity table shown in the run summary:
//! what the runs this thread ran recorded, and nothing another thread ran.
//! Everything here is observation-only: with accounting disabled no counter
//! series is ever registered and the table renders as `None`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use fedmigr_telemetry::metrics::{self, label};
use fedmigr_telemetry::{names, PHASE_SECONDS};
use fedmigr_tensor::kcount::{self, Kernel, KernelSnapshot};

/// Tracks the run thread's last kernel snapshot and attributes growth to
/// named phases.
pub struct KernelPhases {
    last: KernelSnapshot,
    last_wall: Instant,
}

impl Default for KernelPhases {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelPhases {
    /// Starts recording from the current kernel totals.
    pub fn new() -> Self {
        Self { last: kcount::snapshot(), last_wall: Instant::now() }
    }

    /// Credits everything the kernels did since the previous boundary to
    /// `phase`. Cheap and silent when nothing was recorded.
    pub fn credit(&mut self, phase: &'static str) {
        let now = kcount::snapshot();
        let delta = now.delta(&self.last);
        self.last = now;
        // The window must close at *every* boundary, or a kernel-free phase's
        // time would leak into the next phase's denominator. The counter is
        // only emitted for phases that ran kernels, so the family stays
        // absent whenever kernel accounting is off.
        let window = u64::try_from(self.last_wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_wall = Instant::now();
        if delta.is_empty() {
            return;
        }
        // Busy time is the workers' wall spans when the phase handed its work
        // to workers, else this thread's own window: the clock its kernel
        // scopes ran on.
        let busy = if delta.busy_nanos() > 0 { delta.busy_nanos() } else { window };
        metrics::add(names::PHASE_BUSY_NANOS_TOTAL, &[("phase", phase)], busy);
        for k in Kernel::ALL {
            let s = delta.get(k);
            if s.calls == 0 {
                continue;
            }
            let labels = [("kernel", k.name()), ("phase", phase)];
            metrics::add(names::KERNEL_CALLS_TOTAL, &labels, s.calls);
            metrics::add(names::KERNEL_FLOPS_TOTAL, &labels, s.flops);
            metrics::add(names::KERNEL_BYTES_TOTAL, &labels, s.bytes);
            metrics::add(names::KERNEL_NANOS_TOTAL, &labels, s.nanos);
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Row {
    calls: u64,
    flops: u64,
    bytes: u64,
    nanos: u64,
}

/// Renders the per-phase kernel table from this thread's registry, or `None`
/// when kernel accounting recorded nothing (a run with `kcount` off).
///
/// Columns: declared GFLOP, achieved GFLOP/s (declared FLOPs over outermost
/// kernel wall time), GB moved, arithmetic intensity (FLOP per byte), and
/// two attribution shares. `%busy` divides accounted kernel time by the
/// summed wall time of the threads that ran the phase's kernels (the
/// workers' [`kcount::worker`] spans, or the runner thread's window for a
/// phase without workers) — one clock on both sides, so the share holds
/// when workers share a core, and the one the CI 90–110% band gates on.
/// `%wall` divides by the phase's wall clock; kernel time is summed across
/// worker threads, so wall shares above 100% simply mean the phase ran
/// kernels on several threads at once. The trailing `total` row per phase
/// carries the phase-level shares.
pub fn kernel_table() -> Option<String> {
    let reg = metrics::snapshot();
    let nanos = reg.counter_family(names::KERNEL_NANOS_TOTAL);
    if nanos.is_empty() {
        return None;
    }

    let mut rows: BTreeMap<(String, String), Row> = BTreeMap::new();
    let mut fill = |family: &str, set: fn(&mut Row, u64)| {
        for (labels, v) in reg.counter_family(family) {
            let key = (label(&labels, "phase").to_string(), label(&labels, "kernel").to_string());
            set(rows.entry(key).or_default(), v);
        }
    };
    fill(names::KERNEL_CALLS_TOTAL, |r, v| r.calls = v);
    fill(names::KERNEL_FLOPS_TOTAL, |r, v| r.flops = v);
    fill(names::KERNEL_BYTES_TOTAL, |r, v| r.bytes = v);
    fill(names::KERNEL_NANOS_TOTAL, |r, v| r.nanos = v);

    // Wall seconds per phase from the span histograms, any target.
    let mut phase_wall: BTreeMap<String, f64> = BTreeMap::new();
    for (labels, snap) in reg.histogram_family(PHASE_SECONDS) {
        *phase_wall.entry(label(&labels, "phase").to_string()).or_insert(0.0) += snap.sum;
    }
    // Busy seconds per phase, recorded at the credit boundaries.
    let mut phase_busy: BTreeMap<String, f64> = BTreeMap::new();
    for (labels, v) in reg.counter_family(names::PHASE_BUSY_NANOS_TOTAL) {
        *phase_busy.entry(label(&labels, "phase").to_string()).or_insert(0.0) += v as f64 / 1e9;
    }

    let mut out = String::new();
    // The title names the GEMM build: GFLOP/s from an AVX-512, an AVX2 and
    // an SSE2 host do not compare.
    out.push_str(&format!(
        "kernel accounting by phase (gemm: {}; %busy = kernel time over the busy time of the \
         threads that ran it; %wall = over phase wall, >100% ⇒ parallel workers):\n",
        fedmigr_tensor::gemm_build()
    ));
    out.push_str(&format!(
        "  {:<14} {:<12} {:>9} {:>10} {:>8} {:>9} {:>7} {:>7} {:>7}\n",
        "phase", "kernel", "calls", "GFLOP", "GFLOP/s", "GB", "FLOP/B", "%wall", "%busy"
    ));

    let phases: BTreeSet<&String> = rows.keys().map(|(p, _)| p).collect();
    for phase in phases {
        let wall = phase_wall.get(phase).copied().unwrap_or(0.0);
        let busy = phase_busy.get(phase).copied().unwrap_or(0.0);
        let mut total = Row::default();
        let mut kernels: Vec<(&str, Row)> = rows
            .iter()
            .filter(|((p, _), _)| p == phase)
            .map(|((_, k), r)| (k.as_str(), *r))
            .collect();
        // Heaviest kernels first inside each phase.
        kernels.sort_by(|a, b| b.1.nanos.cmp(&a.1.nanos).then(a.0.cmp(b.0)));
        for (kernel, r) in &kernels {
            total.calls = total.calls.saturating_add(r.calls);
            total.flops = total.flops.saturating_add(r.flops);
            total.bytes = total.bytes.saturating_add(r.bytes);
            total.nanos = total.nanos.saturating_add(r.nanos);
            out.push_str(&row_line(phase, kernel, *r, wall, busy));
        }
        if kernels.len() > 1 {
            out.push_str(&row_line(phase, "total", total, wall, busy));
        }
    }
    Some(out)
}

fn row_line(phase: &str, kernel: &str, r: Row, phase_wall: f64, phase_busy: f64) -> String {
    let secs = r.nanos as f64 / 1e9;
    let gflop = r.flops as f64 / 1e9;
    let gflops = if secs > 0.0 { gflop / secs } else { 0.0 };
    let gb = r.bytes as f64 / 1e9;
    let intensity = if r.bytes > 0 { r.flops as f64 / r.bytes as f64 } else { 0.0 };
    let share = |of: f64| if of > 0.0 { 100.0 * secs / of } else { 0.0 };
    format!(
        "  {:<14} {:<12} {:>9} {:>10.3} {:>8.2} {:>9.3} {:>7.2} {:>6.1}% {:>6.1}%\n",
        phase,
        kernel,
        r.calls,
        gflop,
        gflops,
        gb,
        intensity,
        share(phase_wall),
        share(phase_busy)
    )
}

/// Seconds a nanosecond counter `family` of this thread holds for `phase`.
fn phase_secs(family: &str, phase: &str) -> f64 {
    let counters = metrics::snapshot().counter_family(family).into_iter();
    counters
        .filter(|(labels, _)| label(labels, "phase") == phase)
        .map(|(_, v)| v as f64 / 1e9)
        .sum()
}

/// Coverage of `phase`'s wall clock by accounted kernel time, in `[0, 1]`,
/// or `None` when either side recorded nothing. Drives the CI attribution
/// check without reparsing the rendered table.
pub fn phase_coverage(phase: &str) -> Option<f64> {
    let kernel = phase_secs(names::KERNEL_NANOS_TOTAL, phase);
    let spans = metrics::snapshot().histogram_family(PHASE_SECONDS);
    let of_phase = spans.into_iter().filter(|(labels, _)| label(labels, "phase") == phase);
    let wall: f64 = of_phase.map(|(_, snap)| snap.sum).sum();
    (wall > 0.0 && kernel > 0.0).then(|| (kernel / wall).min(1.0))
}

/// Accounted kernel time over the *busy time* of the threads that ran
/// `phase`'s kernels, uncapped, or `None` when either side recorded nothing.
/// Unlike [`phase_coverage`] this is an honest ratio on parallel phases —
/// both numerator and denominator sum across threads, on one clock — so
/// values should sit near 1.0 and the CI gate bands it at 90–110%. Values
/// persistently above ~1.1 would mean kernel scopes over-report (e.g. nested
/// scopes double-counted); below ~0.9, unaccounted compute.
pub fn phase_busy_coverage(phase: &str) -> Option<f64> {
    let kernel = phase_secs(names::KERNEL_NANOS_TOTAL, phase);
    let busy = phase_secs(names::PHASE_BUSY_NANOS_TOTAL, phase);
    (busy > 0.0 && kernel > 0.0).then(|| kernel / busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmigr_telemetry::ledger::{with_switches, Switches};

    #[test]
    fn table_renders_rows_and_coverage_reads_back() {
        // The kernel totals and the registry are this test thread's own.
        let mut phases = KernelPhases::new();
        with_switches(Switches { kcount: true, ..Switches::default() }, || {
            let _s = kcount::scope(Kernel::Matmul, 2_000_000, 1_000_000);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        phases.credit("unit_test_phase");

        let table = kernel_table().expect("kernel rows were credited");
        let build = fedmigr_tensor::gemm_build();
        assert!(table.starts_with(&format!("kernel accounting by phase (gemm: {build};")));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            let title = "kernel accounting by phase (gemm: avx512 (16-column panels; an 8-column \
                         rest transposed; avx2 other rests);";
            assert!(table.starts_with(title), "the title names the AVX-512 builds");
        }
        assert!(table.contains("unit_test_phase"));
        assert!(table.contains("matmul"));

        // Phase wall histogram present -> coverage is computable and sane.
        metrics::observe(PHASE_SECONDS, &[("target", "unit"), ("phase", "unit_test_phase")], 10.0);
        let cov = phase_coverage("unit_test_phase").expect("both sides recorded");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov} out of range");
    }
}
