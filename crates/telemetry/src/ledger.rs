//! The thread's instrument ledger: kernel accounting slots, worker busy
//! time, profiler frames, allocation counters, span depth and the metrics
//! registry, plus the switches that say which of them record and the sink
//! (log filter, trace writer and its clock) that logs and spans write
//! through.
//!
//! A ledger belongs to a thread, and a run owns the ledger of the thread it
//! runs on. The run turns its switches on for its own length
//! ([`with_switches`]) and records into a tally of its own, which it adds
//! into its caller's when it ends ([`isolated`]). Every worker
//! [`crate::fan_out`] starts inherits the caller's switches and log filter,
//! and when a worker's closure returns, its tally travels back with its
//! results and is added into the caller's. Those are the merges. Nothing is
//! process-wide: two runs in one process never see each other's counts or
//! series, a worker writes no trace line (the trace writer stays with the
//! thread that opened it), and a thread started anywhere else keeps what it
//! records to itself.
//!
//! Cost contract: the switches sit in a destructor-free `const`
//! thread-local, so with a switch off a kernel scope, a profiler frame and a
//! counting-allocator call each cost one thread-local load and a branch.
//!
//! Kernel accounting ([`scope`], [`worker`]) is documented where the
//! kernels reach it, `fedmigr_tensor::kcount`; frames in [`profiler`];
//! series in [`crate::metrics`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::metrics::Registry;
use crate::profiler::{self, ScopeStat};
use crate::{Filter, MonotonicClock, TelemetryClock};

/// What the profiler records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Profile {
    /// Nothing.
    #[default]
    Off,
    /// Timer frames, aggregated by stack path.
    Frames,
    /// Frames, each also charged the allocations its thread made while it
    /// was open (data only under [`profiler::CountingAlloc`]).
    FramesAndAllocs,
}

/// Which instruments a thread's ledger records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Switches {
    /// Kernel FLOP/byte/time accounting and worker busy time.
    pub kcount: bool,
    /// Profiler frames, with or without allocations.
    pub profile: Profile,
}

/// Number of named kernels (length of [`Kernel::ALL`]).
const KERNEL_COUNT: usize = 9;

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
    fn absorb(&mut self, other: &KStat) {
        self.calls = self.calls.saturating_add(other.calls);
        self.flops = self.flops.saturating_add(other.flops);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.nanos = self.nanos.saturating_add(other.nanos);
    }
}

/// A copy of a ledger's kernel totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    stats: [KStat; KERNEL_COUNT],
    busy_nanos: u64,
}

impl KernelSnapshot {
    const EMPTY: KernelSnapshot = KernelSnapshot {
        stats: [KStat { calls: 0, flops: 0, bytes: 0, nanos: 0 }; KERNEL_COUNT],
        busy_nanos: 0,
    };

    /// Accounting for one kernel.
    pub fn get(&self, kernel: Kernel) -> KStat {
        self.stats[kernel as usize]
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

    fn absorb(&mut self, other: &KernelSnapshot) {
        self.stats.iter_mut().zip(&other.stats).for_each(|(s, o)| s.absorb(o));
        self.busy_nanos = self.busy_nanos.saturating_add(other.busy_nanos);
    }
}

/// What a thread's instruments recorded: the part of its ledger
/// [`crate::fan_out`] carries back from a worker into the caller's, and a
/// run adds into its caller's.
#[derive(Default)]
pub(crate) struct Tally {
    kernels: KernelSnapshot,
    /// Closed profiler frames by collapsed stack path.
    pub(crate) frames: BTreeMap<String, ScopeStat>,
    /// Counters, gauges and histograms by `(name, labels)`.
    pub(crate) metrics: Registry,
}

/// Where a thread's logs and spans go.
pub(crate) struct Sink {
    /// The log filter: `None` until the thread's first log reads
    /// `FEDMIGR_LOG`, unless the thread was given one.
    pub(crate) filter: Option<Filter>,
    /// The JSONL trace writer, on the thread that opened it only.
    pub(crate) trace: Option<Box<dyn Write>>,
    /// A clock set in place of the host's (tests inject a fake one).
    clock: Option<Box<dyn TelemetryClock>>,
    /// The host clock, anchored at this thread's first reading or the
    /// opening of its trace, whichever came first.
    host: Option<MonotonicClock>,
}

/// One thread's ledger: its [`Tally`] and the transient state that records
/// into it.
pub(crate) struct Ledger {
    pub(crate) tally: RefCell<Tally>,
    /// Open kernel scopes; only the outermost accrues wall time.
    kernel_depth: Cell<usize>,
    /// Open telemetry spans: the trace depth of the next one.
    span_depth: Cell<usize>,
    /// The profiler's open frames and allocation counters.
    pub(crate) stack: profiler::Stack,
    pub(crate) sink: RefCell<Sink>,
}

thread_local! {
    static SWITCHES: Cell<Switches> =
        const { Cell::new(Switches { kcount: false, profile: Profile::Off }) };
    static LEDGER: Ledger = const {
        Ledger {
            tally: RefCell::new(Tally {
                kernels: KernelSnapshot::EMPTY,
                frames: BTreeMap::new(),
                metrics: Registry::new(),
            }),
            kernel_depth: Cell::new(0),
            span_depth: Cell::new(0),
            stack: profiler::Stack::new(),
            sink: RefCell::new(Sink { filter: None, trace: None, clock: None, host: None }),
        }
    };
}

/// This thread's switches.
#[inline]
pub(crate) fn switches() -> Switches {
    SWITCHES.with(Cell::get)
}

/// Runs `f` with this thread's switches set to `switches`, then restores
/// the ones the thread had, also when `f` panics.
pub fn with_switches<R>(switches: Switches, f: impl FnOnce() -> R) -> R {
    struct Restore(Switches);
    impl Drop for Restore {
        fn drop(&mut self) {
            SWITCHES.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SWITCHES.with(|s| s.replace(switches)));
    f()
}

/// Runs `f` on this thread's ledger; `None` once the thread is tearing its
/// ledger down.
pub(crate) fn with<R>(f: impl FnOnce(&Ledger) -> R) -> Option<R> {
    LEDGER.try_with(f).ok()
}

/// Empties this thread's tally and hands it over: a worker's last act.
pub(crate) fn take() -> Tally {
    with(|l| std::mem::take(&mut *l.tally.borrow_mut())).unwrap_or_default()
}

/// Adds a worker's or a run's tally into this thread's. Runs under the
/// profiler's reentrancy guard, so the merge never counts its own
/// allocations.
pub(crate) fn merge(other: Tally) {
    with(|l| {
        let outer = l.stack.in_profiler.replace(true);
        let mut tally = l.tally.borrow_mut();
        tally.kernels.absorb(&other.kernels);
        for (path, stat) in other.frames {
            tally.frames.entry(path).or_default().absorb(&stat);
        }
        tally.metrics.absorb(other.metrics);
        drop(tally);
        l.stack.in_profiler.set(outer);
    });
}

/// Runs `run` on a fresh tally, then adds what it recorded into this
/// thread's, also when `run` panics: what `run` reads back is only its own.
pub fn isolated<R>(run: impl FnOnce() -> R) -> R {
    struct Rejoin(Tally);
    impl Drop for Rejoin {
        fn drop(&mut self) {
            let own = with(|l| l.tally.replace(std::mem::take(&mut self.0)));
            merge(own.unwrap_or_default());
        }
    }
    let _rejoin = Rejoin(take());
    run()
}

/// What a [`crate::fan_out`] worker inherits from its caller: the switches
/// and the log filter.
#[derive(Clone)]
pub(crate) struct Handoff {
    switches: Switches,
    filter: Option<Filter>,
}

/// This thread's switches and filter, to hand to a worker.
pub(crate) fn handoff() -> Handoff {
    let filter = with(|l| l.sink.borrow().filter.clone()).flatten();
    Handoff { switches: switches(), filter }
}

impl Handoff {
    /// Runs `f` on this (worker) thread under the caller's switches and
    /// filter, and returns its result with the tally it recorded.
    pub(crate) fn run<R>(self, f: impl FnOnce() -> R) -> (R, Tally) {
        if let Some(filter) = self.filter {
            set_filter(filter);
        }
        with_switches(self.switches, || (f(), take()))
    }
}

/// Replaces this thread's log filter; workers [`crate::fan_out`] starts
/// from now on inherit it.
pub fn set_filter(filter: Filter) {
    with(|l| l.sink.borrow_mut().filter = Some(filter));
}

/// Whether this thread has a log filter yet.
pub(crate) fn has_filter() -> bool {
    with(|l| l.sink.borrow().filter.is_some()).unwrap_or(false)
}

/// Whether this thread's log filter passes; `None` when it has none yet.
pub(crate) fn filter_passes(target: &str, level: crate::Level) -> Option<bool> {
    with(|l| l.sink.borrow().filter.as_ref().map(|f| f.enabled(target, level))).flatten()
}

/// Points this thread's JSONL trace at `writer`: later spans and passing
/// log records on this thread are appended to it. The host clock's
/// origin is set now, unless the thread read the clock already.
pub fn trace_to(writer: Box<dyn Write>) {
    with(|l| {
        let mut sink = l.sink.borrow_mut();
        sink.host.get_or_insert_with(MonotonicClock::new);
        sink.trace = Some(writer);
    });
}

/// Flushes and detaches this thread's trace writer, ending the stream.
pub fn close_trace() {
    if let Some(mut w) = with(|l| l.sink.borrow_mut().trace.take()).flatten() {
        let _ = w.flush();
    }
}

/// Whether this thread has a trace writer.
pub(crate) fn tracing() -> bool {
    with(|l| l.sink.borrow().trace.is_some()).unwrap_or(false)
}

/// Sets the clock this thread's spans and trace stamps read in place of
/// the host's (tests inject a [`crate::FakeClock`]).
#[cfg(test)]
pub(crate) fn set_clock(clock: Box<dyn TelemetryClock>) {
    with(|l| l.sink.borrow_mut().clock = Some(clock));
}

/// Seconds since this thread's clock origin.
pub(crate) fn now() -> f64 {
    let read = |sink: &mut Sink| match &sink.clock {
        Some(clock) => clock.now(),
        None => sink.host.get_or_insert_with(MonotonicClock::new).now(),
    };
    with(|l| read(&mut l.sink.borrow_mut())).unwrap_or(0.0)
}

/// Opens a span on this thread and returns its depth.
pub(crate) fn open_span() -> usize {
    with(|l| l.span_depth.replace(l.span_depth.get() + 1)).unwrap_or(0)
}

/// Closes the innermost span on this thread.
pub(crate) fn close_span() {
    with(|l| l.span_depth.set(l.span_depth.get().saturating_sub(1)));
}

/// Opens an accounting scope for one kernel invocation, declaring its
/// arithmetic work and memory traffic up front. Inert when this thread's
/// kernel accounting is off.
#[inline]
pub fn scope(kernel: Kernel, flops: u64, bytes: u64) -> KScope {
    if !switches().kcount {
        return KScope { kernel, flops: 0, bytes: 0, start: None, outermost: false };
    }
    let outermost = with(|l| l.kernel_depth.replace(l.kernel_depth.get() + 1) == 0);
    KScope { kernel, flops, bytes, start: Some(Instant::now()), outermost: outermost == Some(true) }
}

/// RAII guard returned by [`scope`]; records on drop.
pub struct KScope {
    kernel: Kernel,
    flops: u64,
    bytes: u64,
    start: Option<Instant>,
    outermost: bool,
}

impl KScope {
    fn record(&self, start: Instant) {
        let nanos = if self.outermost { elapsed_nanos(start) } else { 0 };
        let stat = KStat { calls: 1, flops: self.flops, bytes: self.bytes, nanos };
        with(|l| {
            l.kernel_depth.set(l.kernel_depth.get().saturating_sub(1));
            l.tally.borrow_mut().kernels.stats[self.kernel as usize].absorb(&stat);
        });
    }
}

impl Drop for KScope {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.record(start);
        }
    }
}

/// Opens a worker's busy span: the wall time until the guard drops is
/// credited as busy time. Inert when this thread's kernel accounting is
/// off.
pub fn worker() -> WorkerSpan {
    WorkerSpan { start: switches().kcount.then(Instant::now) }
}

/// RAII guard returned by [`worker`]; records on drop.
pub struct WorkerSpan {
    start: Option<Instant>,
}

impl Drop for WorkerSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        with(|l| {
            let kernels = &mut l.tally.borrow_mut().kernels;
            kernels.busy_nanos = kernels.busy_nanos.saturating_add(elapsed_nanos(start));
        });
    }
}

/// This thread's kernel totals, workers joined by [`crate::fan_out`]
/// included.
pub fn snapshot() -> KernelSnapshot {
    with(|l| l.tally.borrow().kernels).unwrap_or_default()
}

pub(crate) fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // A span's depth counts only its own thread's open spans.
    #[test]
    fn span_depth_counts_this_threads_open_spans() {
        assert_eq!(open_span(), 0);
        assert_eq!(std::thread::spawn(open_span).join().expect("thread"), 0);
        assert_eq!(open_span(), 1);
        close_span();
        close_span();
        assert_eq!(open_span(), 0);
    }

    #[test]
    fn isolated_reads_back_only_itself_then_joins_the_caller() {
        let runs = || crate::metrics::snapshot().counter_family("runs_total");
        crate::metrics::add("runs_total", &[], 1);
        let inside = isolated(|| {
            crate::metrics::add("runs_total", &[], 2);
            runs()
        });
        assert_eq!(inside, vec![(vec![], 2)], "the caller's count stays out");
        assert_eq!(runs(), vec![(vec![], 3)], "and the run's joins it at the end");
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
                let (flops, bytes) = (a.rotate_left(17), a.wrapping_mul(3));
                s.absorb(&KStat { calls: a, flops, bytes, nanos: a | (1 << 63) });
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
