//! In-process scoped profiler: thread-aware timer frames aggregated into a
//! flamegraph-compatible collapsed-stack report, with an opt-in counting
//! global allocator for per-scope allocation accounting.
//!
//! Frames nest: each thread keeps a stack of frame names, and when a frame
//! closes its *self time* (wall time minus time spent in child frames) is
//! credited to the full `outer;inner;leaf` path, which is exactly the
//! [collapsed-stack format] flamegraph tools consume (`path count`, one
//! line per path, counts here in integer microseconds). Telemetry [`Span`]s
//! open a frame automatically when profiling is on, so the report nests
//! under the same phase names as the JSONL trace; hot code can add finer
//! frames with [`frame`] directly.
//!
//! Frames record into the thread's [`ledger`](crate::ledger), under its
//! [`Profile`] switch, which a run sets for its own length. A worker of
//! [`crate::fan_out`] profiles under its caller's switch, roots its own
//! stack, and its frames join the caller's table when the worker is
//! joined; the reports read the calling thread's table.
//!
//! Allocation accounting requires two opt-ins: the binary must register
//! [`CountingAlloc`] as its `#[global_allocator]`, and the switch must be
//! [`Profile::FramesAndAllocs`] (the CLI's `--profile-alloc`). Each frame
//! then also records the allocations, allocated bytes, and peak net live
//! bytes observed on its thread while it was open.
//!
//! Determinism contract: like the rest of the telemetry crate, the
//! profiler is observation-only — it never touches an experiment's RNG or
//! simulated clock, so seeded runs are byte-identical with profiling on or
//! off (`tests/telemetry_e2e.rs` asserts this). Off, the cost is one
//! thread-local load per span/frame and per allocation.
//!
//! [collapsed-stack format]: https://github.com/brendangregg/FlameGraph
//! [`Span`]: crate::Span
//!
//! # Example
//!
//! ```
//! use fedmigr_telemetry::ledger::{self, Profile, Switches};
//! use fedmigr_telemetry::profiler;
//!
//! ledger::with_switches(Switches { profile: Profile::Frames, ..Switches::default() }, || {
//!     let _outer = profiler::frame("round");
//!     let _inner = profiler::frame("local_train");
//! });
//! let report = profiler::collapsed_report();
//! assert!(report.lines().any(|l| l.starts_with("round;local_train ")));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::ledger::{self, Profile};

/// Aggregated statistics for one stack path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStat {
    /// Times a frame closed at this path.
    pub count: u64,
    /// Self wall time (excluding child frames), nanoseconds.
    pub self_nanos: u64,
    /// Heap allocations made on the frame's thread while open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Peak net live bytes (allocated minus freed on this thread) observed
    /// above the level at frame entry.
    pub peak_bytes: u64,
}

impl ScopeStat {
    pub(crate) fn absorb(&mut self, other: &ScopeStat) {
        self.count = self.count.saturating_add(other.count);
        self.self_nanos = self.self_nanos.saturating_add(other.self_nanos);
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }
}

struct StackEntry {
    name: &'static str,
    /// Wall time already attributed to closed children, to subtract.
    child_nanos: u64,
    /// Alloc counters at entry, to delta on exit.
    allocs_at_entry: u64,
    bytes_at_entry: u64,
    /// Net live level at entry and the enclosing frame's running peak.
    level_at_entry: u64,
    saved_peak: u64,
}

/// A thread's open frames and allocation counters: the profiler's part of
/// the thread's ledger.
pub(crate) struct Stack {
    entries: RefCell<Vec<StackEntry>>,
    /// Reentrancy guard: the profiler's own bookkeeping allocates.
    pub(crate) in_profiler: Cell<bool>,
    /// Allocation counters fed by [`CountingAlloc`].
    alloc_count: Cell<u64>,
    alloc_bytes: Cell<u64>,
    live_bytes: Cell<u64>,
    live_peak: Cell<u64>,
}

impl Stack {
    pub(crate) const fn new() -> Self {
        Stack {
            entries: RefCell::new(Vec::new()),
            in_profiler: Cell::new(false),
            alloc_count: Cell::new(0),
            alloc_bytes: Cell::new(0),
            live_bytes: Cell::new(0),
            live_peak: Cell::new(0),
        }
    }
}

/// Opens a profiled frame named `name` on this thread. Inert (and
/// allocation-free) when this thread's profiling is off.
pub fn frame(name: &'static str) -> Frame {
    if ledger::switches().profile == Profile::Off {
        return Frame { start: None };
    }
    let start = Instant::now();
    ledger::with(|l| {
        let s = &l.stack;
        s.in_profiler.set(true);
        let entry = StackEntry {
            name,
            child_nanos: 0,
            allocs_at_entry: s.alloc_count.get(),
            bytes_at_entry: s.alloc_bytes.get(),
            level_at_entry: s.live_bytes.get(),
            saved_peak: s.live_peak.get(),
        };
        // Peak within this frame is measured from the current level.
        s.live_peak.set(s.live_bytes.get());
        s.entries.borrow_mut().push(entry);
        s.in_profiler.set(false);
    });
    Frame { start: Some(start) }
}

/// RAII guard returned by [`frame`]; records on drop.
#[must_use = "a frame measures until dropped; binding it to _ drops it immediately"]
pub struct Frame {
    start: Option<Instant>,
}

impl Drop for Frame {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = ledger::elapsed_nanos(start);
        ledger::with(|l| {
            let s = &l.stack;
            s.in_profiler.set(true);
            let mut stack = s.entries.borrow_mut();
            let Some(entry) = stack.pop() else {
                s.in_profiler.set(false);
                return;
            };
            let path = {
                let mut p = String::new();
                for e in stack.iter() {
                    p.push_str(e.name);
                    p.push(';');
                }
                p.push_str(entry.name);
                p
            };
            let frame_peak = s.live_peak.get();
            let stat = ScopeStat {
                count: 1,
                self_nanos: elapsed.saturating_sub(entry.child_nanos),
                allocs: s.alloc_count.get().saturating_sub(entry.allocs_at_entry),
                alloc_bytes: s.alloc_bytes.get().saturating_sub(entry.bytes_at_entry),
                peak_bytes: frame_peak.saturating_sub(entry.level_at_entry),
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(elapsed);
            }
            // The enclosing frame's peak must cover anything seen in here.
            s.live_peak.set(entry.saved_peak.max(frame_peak));
            drop(stack);
            l.tally.borrow_mut().frames.entry(path).or_default().absorb(&stat);
            s.in_profiler.set(false);
        });
    }
}

/// Renders one line per stack path of this thread's frame table (workers
/// joined by [`crate::fan_out`] included), sorted by path.
fn report(header: &str, line: impl Fn(&str, &ScopeStat) -> String) -> String {
    let mut out = String::from(header);
    ledger::with(|l| {
        for (path, stat) in &l.tally.borrow().frames {
            out.push_str(&line(path, stat));
        }
    });
    out
}

/// The collapsed-stack report: one `outer;inner;leaf <self-microseconds>`
/// line per observed stack path, sorted by path — directly consumable by
/// flamegraph tooling.
pub fn collapsed_report() -> String {
    report("", |path, stat| format!("{path} {}\n", stat.self_nanos / 1_000))
}

/// The allocation report: one line per stack path with call count,
/// allocations, allocated bytes, and peak net live bytes. Only meaningful
/// in binaries running under [`CountingAlloc`] with
/// [`Profile::FramesAndAllocs`]; otherwise all allocation columns are zero.
pub fn alloc_report() -> String {
    report("# scope calls allocs bytes peak_bytes\n", |path, stat| {
        format!("{path} {} {} {} {}\n", stat.count, stat.allocs, stat.alloc_bytes, stat.peak_bytes)
    })
}

#[inline]
fn note_alloc(size: usize) {
    if ledger::switches().profile != Profile::FramesAndAllocs {
        return;
    }
    ledger::with(|l| {
        let s = &l.stack;
        if s.in_profiler.get() {
            return;
        }
        s.alloc_count.set(s.alloc_count.get().saturating_add(1));
        s.alloc_bytes.set(s.alloc_bytes.get().saturating_add(size as u64));
        let live = s.live_bytes.get().saturating_add(size as u64);
        s.live_bytes.set(live);
        if live > s.live_peak.get() {
            s.live_peak.set(live);
        }
    });
}

#[inline]
fn note_dealloc(size: usize) {
    if ledger::switches().profile != Profile::FramesAndAllocs {
        return;
    }
    ledger::with(|l| {
        let s = &l.stack;
        if !s.in_profiler.get() {
            s.live_bytes.set(s.live_bytes.get().saturating_sub(size as u64));
        }
    });
}

/// A counting wrapper around the system allocator. Register it in a binary
/// with `#[global_allocator]`; it forwards every call to [`System`] and,
/// under [`Profile::FramesAndAllocs`], feeds the thread's allocation
/// counters the profiler samples at frame boundaries. Otherwise the
/// overhead is one thread-local load per allocator call.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the accounting side effects never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{with_switches, Switches};

    fn profiled<R>(profile: Profile, f: impl FnOnce() -> R) -> R {
        with_switches(Switches { profile, ..Switches::default() }, f)
    }

    fn stat(path: &str) -> Option<ScopeStat> {
        ledger::with(|l| l.tally.borrow().frames.get(path).copied()).flatten()
    }

    // Each test runs on its own thread, so the frame table it reads holds
    // exactly the frames it (and the workers it joined) opened.
    #[test]
    fn frames_nest_self_time_and_merge_across_threads() {
        // Frames opened with profiling off record nothing.
        {
            let _f = frame("ignored");
        }
        assert_eq!(collapsed_report(), "");

        profiled(Profile::Frames, || {
            let _outer = frame("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = frame("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = stat("outer").expect("outer frame recorded");
        let inner = stat("outer;inner").expect("nested path recorded");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_nanos >= 1_000_000, "inner slept ~2ms");
        // Self time: the outer frame's own time excludes the inner frame's,
        // which alone is the 2 ms the outer frame also slept.
        assert!(outer.self_nanos >= 1_000_000, "outer slept ~2ms itself");

        // Collapsed report: one "path micros" line per path, sorted.
        let report = collapsed_report();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2, "{report}");
        assert!(lines[0].starts_with("outer "));
        assert!(lines[1].starts_with("outer;inner "));
        for l in &lines {
            l.rsplit(' ').next().unwrap().parse::<u64>().expect("count column is an integer");
        }
        // Alloc report renders a row per path (zero columns without the
        // counting allocator installed in the test binary).
        let alloc = alloc_report();
        assert!(alloc.starts_with("# scope calls allocs bytes peak_bytes\n"));
        assert!(alloc.contains("\nouter 1 0 0 0\nouter;inner 1 0 0 0\n"), "{alloc}");

        // Workers profile under this thread's switch, and their frames join
        // its table at fan_out's join. A worker roots its own stack; on one
        // core the lone chunk runs here, with no frame open, so "worker" is
        // a root path either way.
        let mut items = [0u8; 5];
        profiled(Profile::Frames, || {
            crate::fan_out(&mut items, |_, part| {
                part.iter().map(|_| drop(frame("worker"))).collect()
            })
        });
        assert_eq!(stat("worker").map(|s| s.count), Some(5));
    }

    #[test]
    fn allocations_are_charged_only_under_frames_and_allocs() {
        // Drive note_alloc/note_dealloc directly (the test binary does not
        // install CountingAlloc), checking the per-frame delta plumbing.
        profiled(Profile::Frames, || {
            let _f = frame("frames_only");
            note_alloc(1000);
        });
        assert_eq!(stat("frames_only").map(|s| s.allocs), Some(0));
        profiled(Profile::FramesAndAllocs, || {
            let _f = frame("alloc_scope");
            note_alloc(1000);
            note_alloc(500);
            note_dealloc(500);
        });
        let s = stat("alloc_scope").expect("frame recorded");
        assert_eq!((s.allocs, s.alloc_bytes, s.peak_bytes), (2, 1500, 1500));
    }
}
