//! Thread-local kernel accounting: FLOPs, bytes moved, and wall time per
//! named numeric kernel.
//!
//! Every hot kernel in `fedmigr-tensor` / `fedmigr-nn` opens a [`scope`]
//! guard declaring its arithmetic work (FLOPs) and memory traffic (bytes
//! read + written). The guard times the kernel body and folds the totals
//! into a thread-local table; when a worker thread exits, its table is
//! merged into a process-wide atomic table. Runners snapshot the totals
//! around each phase span and attribute the deltas to phases, which is what
//! turns "naive matmul dominates local_train" into a measured number.
//!
//! Determinism contract: accounting is observation-only. Counters never
//! influence kernel results, so seeded runs are byte-identical with
//! accounting on or off (asserted by `tests/telemetry_e2e.rs`).
//!
//! Cost contract: with accounting not enabled at runtime (`--no-kcount`),
//! the cost is one relaxed atomic load and a branch per kernel call.
//!
//! Nesting: only the outermost live scope on a thread accrues wall time, so
//! summed kernel seconds never double-count a kernel that calls another
//! (e.g. an optimizer step that scales a tensor). FLOPs and bytes are
//! always credited to the kernel that declared them.
//!
//! Busy time: a worker thread holds a [`worker`] span for as long as it runs
//! a phase's work. Its wall time is what that worker's kernel time is a
//! share of. Both are read from the same wall clock, so when workers share
//! a core, each side counts the sibling's timeslices alike and the share
//! stays honest.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of named kernels (length of [`Kernel::ALL`]).
pub const KERNEL_COUNT: usize = 9;

/// The named kernels with dedicated accounting slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Dense 2-D matrix multiply (`Tensor::matmul`).
    Matmul,
    /// Layout shuffles: `transpose2` of a weight, the NCHW → NHWC permute of
    /// an image batch entering a model, and `Flatten`'s NHWC ↔ channel-major
    /// reorder. Convolutions rearrange nothing: their activations are NHWC.
    Transpose,
    /// Elementwise maps/zips: add/sub/mul/axpy/scale/map/dot.
    Elementwise,
    /// The convolution's zero-padded NHWC input copy and offset tables,
    /// which its implicit-GEMM products read the im2col patches through
    /// (`Conv2d::patches`).
    Im2col,
    /// Gradient scatter back to image layout (`Conv2d::col2im`), and the
    /// channels-last `Wᵀ` whose product it scatters.
    Col2im,
    /// L2 norms and distances over flat parameter slices.
    Norm,
    /// Row-wise softmax / log-softmax.
    Softmax,
    /// Max-pool forward/backward window scans.
    Pool,
    /// SGD parameter-update sweeps.
    Optimizer,
}

impl Kernel {
    /// Every kernel, in stable display order.
    pub const ALL: [Kernel; KERNEL_COUNT] = [
        Kernel::Matmul,
        Kernel::Transpose,
        Kernel::Elementwise,
        Kernel::Im2col,
        Kernel::Col2im,
        Kernel::Norm,
        Kernel::Softmax,
        Kernel::Pool,
        Kernel::Optimizer,
    ];

    /// Stable lower-case label used in metric families and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::Transpose => "transpose",
            Kernel::Elementwise => "elementwise",
            Kernel::Im2col => "im2col",
            Kernel::Col2im => "col2im",
            Kernel::Norm => "norm",
            Kernel::Softmax => "softmax",
            Kernel::Pool => "pool",
            Kernel::Optimizer => "optimizer",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated accounting for one kernel. All additions saturate: a
/// pathological run overflows to `u64::MAX` instead of panicking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KStat {
    /// Number of kernel invocations.
    pub calls: u64,
    /// Floating-point operations declared by the invocations.
    pub flops: u64,
    /// Bytes read + written declared by the invocations.
    pub bytes: u64,
    /// Wall nanoseconds spent in outermost invocations.
    pub nanos: u64,
}

impl KStat {
    fn absorb(&mut self, calls: u64, flops: u64, bytes: u64, nanos: u64) {
        self.calls = self.calls.saturating_add(calls);
        self.flops = self.flops.saturating_add(flops);
        self.bytes = self.bytes.saturating_add(bytes);
        self.nanos = self.nanos.saturating_add(nanos);
    }
}

/// A point-in-time copy of all kernel totals (process-wide plus the calling
/// thread's unflushed local table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    stats: [KStat; KERNEL_COUNT],
    busy_nanos: u64,
}

impl KernelSnapshot {
    /// Accounting for one kernel.
    pub fn get(&self, kernel: Kernel) -> KStat {
        self.stats[kernel.index()]
    }

    /// Wall nanoseconds spent inside [`worker`] spans.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos
    }

    /// Per-kernel growth since `earlier` (saturating at zero per field).
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        let mut out = KernelSnapshot {
            busy_nanos: self.busy_nanos.saturating_sub(earlier.busy_nanos),
            ..KernelSnapshot::default()
        };
        for (i, slot) in out.stats.iter_mut().enumerate() {
            slot.calls = self.stats[i].calls.saturating_sub(earlier.stats[i].calls);
            slot.flops = self.stats[i].flops.saturating_sub(earlier.stats[i].flops);
            slot.bytes = self.stats[i].bytes.saturating_sub(earlier.stats[i].bytes);
            slot.nanos = self.stats[i].nanos.saturating_sub(earlier.stats[i].nanos);
        }
        out
    }

    /// Whether any kernel recorded any call.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.calls == 0)
    }
}

const FIELDS: usize = 4;
/// The slot of [`GLOBAL`] after the per-kernel fields: busy nanoseconds.
const BUSY: usize = KERNEL_COUNT * FIELDS;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: [AtomicU64; BUSY + 1] = [const { AtomicU64::new(0) }; BUSY + 1];

struct Local {
    stats: RefCell<[KStat; KERNEL_COUNT]>,
    depth: Cell<usize>,
    busy_nanos: Cell<u64>,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush(&self.stats.borrow());
        saturating_fetch_add(&GLOBAL[BUSY], self.busy_nanos.get());
    }
}

fn flush(stats: &[KStat; KERNEL_COUNT]) {
    for (i, s) in stats.iter().enumerate() {
        if s.calls == 0 {
            continue;
        }
        saturating_fetch_add(&GLOBAL[i * FIELDS], s.calls);
        saturating_fetch_add(&GLOBAL[i * FIELDS + 1], s.flops);
        saturating_fetch_add(&GLOBAL[i * FIELDS + 2], s.bytes);
        saturating_fetch_add(&GLOBAL[i * FIELDS + 3], s.nanos);
    }
}

fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

thread_local! {
    static LOCAL: Local = Local {
        stats: RefCell::new([KStat::default(); KERNEL_COUNT]),
        depth: Cell::new(0),
        busy_nanos: Cell::new(0),
    };
}

/// Turns runtime accounting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel accounting is currently active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens an accounting scope for one kernel invocation, declaring its
/// arithmetic work and memory traffic up front. Inert when accounting is
/// disabled.
#[inline]
pub fn scope(kernel: Kernel, flops: u64, bytes: u64) -> KScope {
    if !enabled() {
        return KScope { kernel, flops: 0, bytes: 0, start: None, outermost: false };
    }
    let outermost = LOCAL
        .try_with(|l| {
            let d = l.depth.get();
            l.depth.set(d + 1);
            d == 0
        })
        .unwrap_or(false);
    KScope { kernel, flops, bytes, start: Some(Instant::now()), outermost }
}

/// RAII guard returned by [`scope`]; records on drop.
pub struct KScope {
    kernel: Kernel,
    flops: u64,
    bytes: u64,
    start: Option<Instant>,
    outermost: bool,
}

impl Drop for KScope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = if self.outermost {
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        };
        let _ = LOCAL.try_with(|l| {
            l.depth.set(l.depth.get().saturating_sub(1));
            l.stats.borrow_mut()[self.kernel.index()].absorb(1, self.flops, self.bytes, nanos);
        });
    }
}

/// Opens a worker's busy span: the wall time until the guard drops is
/// credited as busy time. Inert when accounting is disabled.
pub fn worker() -> WorkerSpan {
    WorkerSpan { start: enabled().then(Instant::now) }
}

/// RAII guard returned by [`worker`]; records on drop.
pub struct WorkerSpan {
    start: Option<Instant>,
}

impl Drop for WorkerSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let _ = LOCAL.try_with(|l| l.busy_nanos.set(l.busy_nanos.get().saturating_add(nanos)));
    }
}

/// Current totals: the process-wide merged table plus the calling thread's
/// unflushed local table. Worker threads that have exited are fully
/// included; live sibling threads are not — snapshot after joining them.
pub fn snapshot() -> KernelSnapshot {
    let mut out = KernelSnapshot::default();
    for (i, slot) in out.stats.iter_mut().enumerate() {
        slot.calls = GLOBAL[i * FIELDS].load(Ordering::Relaxed);
        slot.flops = GLOBAL[i * FIELDS + 1].load(Ordering::Relaxed);
        slot.bytes = GLOBAL[i * FIELDS + 2].load(Ordering::Relaxed);
        slot.nanos = GLOBAL[i * FIELDS + 3].load(Ordering::Relaxed);
    }
    out.busy_nanos = GLOBAL[BUSY].load(Ordering::Relaxed);
    let _ = LOCAL.try_with(|l| {
        for (i, s) in l.stats.borrow().iter().enumerate() {
            out.stats[i].absorb(s.calls, s.flops, s.bytes, s.nanos);
        }
        out.busy_nanos = out.busy_nanos.saturating_add(l.busy_nanos.get());
    });
    out
}

/// Zeroes the process-wide table and the calling thread's local table.
/// Intended for benchmarks and tests; call only while no sibling thread is
/// accounting.
pub fn reset() {
    for cell in &GLOBAL {
        cell.store(0, Ordering::Relaxed);
    }
    let _ = LOCAL.try_with(|l| {
        *l.stats.borrow_mut() = [KStat::default(); KERNEL_COUNT];
        l.busy_nanos.set(0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The global table is process-wide, so every assertion that touches it
    // lives in this single test. While it has accounting switched on, sibling
    // tests' tensor ops record too; it therefore asserts only on kernels no
    // op of this crate opens (the `fedmigr-nn` ones).
    #[test]
    fn scopes_accumulate_and_merge_across_threads() {
        reset();
        assert!(snapshot().is_empty());

        // Disabled scopes record nothing.
        {
            let _s = scope(Kernel::Im2col, 100, 200);
        }
        assert!(snapshot().is_empty());

        set_enabled(true);
        {
            let _s = scope(Kernel::Im2col, 100, 200);
        }
        {
            let _outer = scope(Kernel::Optimizer, 10, 20);
            let _inner = scope(Kernel::Pool, 1, 2);
        }
        // Joined, not left to the scope: a scope only waits for the closure,
        // and the merge runs after it, when the thread's locals are dropped.
        std::thread::spawn(|| {
            let _busy = worker();
            let _s = scope(Kernel::Col2im, 7, 8);
        })
        .join()
        .unwrap();
        set_enabled(false);

        let snap = snapshot();
        let mm = snap.get(Kernel::Im2col);
        assert_eq!((mm.calls, mm.flops, mm.bytes), (1, 100, 200));
        // Nested scope keeps its flops but cedes wall time to the outer one.
        let inner = snap.get(Kernel::Pool);
        assert_eq!((inner.calls, inner.flops, inner.nanos), (1, 1, 0));
        assert!(snap.get(Kernel::Optimizer).nanos > 0);
        // Worker-thread stats and busy time merged on thread exit; the busy
        // span encloses the worker's kernel scope.
        assert_eq!(snap.get(Kernel::Col2im).flops, 7);
        assert!(snap.busy_nanos() >= snap.get(Kernel::Col2im).nanos);
        assert!(snap.busy_nanos() > 0);

        // Deltas subtract field-wise.
        let later = {
            set_enabled(true);
            let _s = scope(Kernel::Im2col, 50, 0);
            drop(_s);
            set_enabled(false);
            snapshot()
        };
        let d = later.delta(&snap);
        assert_eq!(d.get(Kernel::Im2col).flops, 50);
        assert_eq!(d.get(Kernel::Col2im).calls, 0);
        reset();
    }

    proptest! {
        // Saturation contract: no panic and monotone saturation however
        // large the declared work gets.
        #[test]
        fn kstat_absorb_never_overflows(
            seed in any::<u64>(),
            adds in prop::collection::vec(any::<u64>(), 0..32),
        ) {
            let mut s = KStat { calls: seed, flops: seed, bytes: seed, nanos: seed };
            for a in adds {
                let before = s;
                s.absorb(a, a.rotate_left(17), a.wrapping_mul(3), a | (1 << 63));
                prop_assert!(s.calls >= before.calls || s.calls == u64::MAX);
                prop_assert!(s.flops >= before.flops || s.flops == u64::MAX);
                prop_assert!(s.bytes >= before.bytes || s.bytes == u64::MAX);
                prop_assert!(s.nanos >= before.nanos || s.nanos == u64::MAX);
            }
        }

        #[test]
        fn snapshot_delta_saturates_at_zero(a in any::<u64>(), b in any::<u64>()) {
            let mut early = KernelSnapshot::default();
            let mut late = KernelSnapshot::default();
            early.stats[0] = KStat { calls: a, flops: a, bytes: a, nanos: a };
            late.stats[0] = KStat { calls: b, flops: b, bytes: b, nanos: b };
            let d = late.delta(&early);
            prop_assert_eq!(d.stats[0].calls, b.saturating_sub(a));
            prop_assert_eq!(d.stats[0].flops, b.saturating_sub(a));
        }
    }
}
