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
//! Allocation accounting requires two opt-ins: the binary must register
//! [`CountingAlloc`] as its `#[global_allocator]`, and
//! [`set_alloc_enabled`] must be turned on (the CLI's `--profile-alloc`).
//! Each frame then also records the allocations, allocated bytes, and peak
//! net live bytes observed on its thread while it was open.
//!
//! Determinism contract: like the rest of the telemetry crate, the
//! profiler is observation-only — it never touches an experiment's RNG or
//! simulated clock, so seeded runs are byte-identical with profiling on or
//! off (`tests/telemetry_e2e.rs` asserts this). Disabled, the cost is one
//! relaxed atomic load per span/frame and per allocation.
//!
//! [collapsed-stack format]: https://github.com/brendangregg/FlameGraph
//!
//! # Example
//!
//! ```
//! use fedmigr_telemetry::profiler;
//!
//! profiler::reset();
//! profiler::set_enabled(true);
//! {
//!     let _outer = profiler::frame("round");
//!     let _inner = profiler::frame("local_train");
//! }
//! profiler::set_enabled(false);
//! let report = profiler::collapsed_report();
//! assert!(report.lines().any(|l| l.starts_with("round;local_train ")));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOC_ENABLED: AtomicBool = AtomicBool::new(false);

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
    fn absorb(&mut self, other: &ScopeStat) {
        self.count = self.count.saturating_add(other.count);
        self.self_nanos = self.self_nanos.saturating_add(other.self_nanos);
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }
}

static GLOBAL: Mutex<Option<BTreeMap<String, ScopeStat>>> = Mutex::new(None);

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

struct Local {
    stack: RefCell<Vec<StackEntry>>,
    table: RefCell<BTreeMap<String, ScopeStat>>,
    /// Reentrancy guard: the profiler's own bookkeeping allocates.
    in_profiler: Cell<bool>,
    /// Thread-local allocation counters fed by [`CountingAlloc`].
    alloc_count: Cell<u64>,
    alloc_bytes: Cell<u64>,
    live_bytes: Cell<u64>,
    live_peak: Cell<u64>,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush_table(&self.table.borrow());
    }
}

fn flush_table(table: &BTreeMap<String, ScopeStat>) {
    if table.is_empty() {
        return;
    }
    let mut global = GLOBAL.lock().expect("profiler table poisoned");
    let global = global.get_or_insert_with(BTreeMap::new);
    for (path, stat) in table {
        global.entry(path.clone()).or_default().absorb(stat);
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            stack: RefCell::new(Vec::new()),
            table: RefCell::new(BTreeMap::new()),
            in_profiler: Cell::new(false),
            alloc_count: Cell::new(0),
            alloc_bytes: Cell::new(0),
            live_bytes: Cell::new(0),
            live_peak: Cell::new(0),
        }
    };
}

/// Turns frame timing on or off. Spans opened while enabled automatically
/// become frames.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether frame timing is active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns per-scope allocation accounting on or off. Only produces data in
/// binaries that register [`CountingAlloc`] as their global allocator.
pub fn set_alloc_enabled(on: bool) {
    ALLOC_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation accounting is active.
#[inline]
pub fn alloc_enabled() -> bool {
    ALLOC_ENABLED.load(Ordering::Relaxed)
}

/// Opens a profiled frame named `name` on this thread. Inert (and
/// allocation-free) when profiling is disabled.
pub fn frame(name: &'static str) -> Frame {
    if !enabled() {
        return Frame { start: None };
    }
    let start = Instant::now();
    let _ = LOCAL.try_with(|l| {
        l.in_profiler.set(true);
        let entry = StackEntry {
            name,
            child_nanos: 0,
            allocs_at_entry: l.alloc_count.get(),
            bytes_at_entry: l.alloc_bytes.get(),
            level_at_entry: l.live_bytes.get(),
            saved_peak: l.live_peak.get(),
        };
        // Peak within this frame is measured from the current level.
        l.live_peak.set(l.live_bytes.get());
        l.stack.borrow_mut().push(entry);
        l.in_profiler.set(false);
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
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let _ = LOCAL.try_with(|l| {
            l.in_profiler.set(true);
            let mut stack = l.stack.borrow_mut();
            let Some(entry) = stack.pop() else {
                l.in_profiler.set(false);
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
            let frame_peak = l.live_peak.get();
            let stat = ScopeStat {
                count: 1,
                self_nanos: elapsed.saturating_sub(entry.child_nanos),
                allocs: l.alloc_count.get().saturating_sub(entry.allocs_at_entry),
                alloc_bytes: l.alloc_bytes.get().saturating_sub(entry.bytes_at_entry),
                peak_bytes: frame_peak.saturating_sub(entry.level_at_entry),
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(elapsed);
            }
            // The enclosing frame's peak must cover anything seen in here.
            l.live_peak.set(entry.saved_peak.max(frame_peak));
            drop(stack);
            l.table.borrow_mut().entry(path).or_default().absorb(&stat);
            l.in_profiler.set(false);
        });
    }
}

fn merged_table() -> BTreeMap<String, ScopeStat> {
    let mut out = GLOBAL.lock().expect("profiler table poisoned").clone().unwrap_or_default();
    let _ = LOCAL.try_with(|l| {
        for (path, stat) in l.table.borrow().iter() {
            out.entry(path.clone()).or_default().absorb(stat);
        }
    });
    out
}

/// The collapsed-stack report: one `outer;inner;leaf <self-microseconds>`
/// line per observed stack path, sorted by path — directly consumable by
/// flamegraph tooling. Includes frames from exited threads and the calling
/// thread; live sibling threads contribute after they exit.
pub fn collapsed_report() -> String {
    let mut out = String::new();
    for (path, stat) in merged_table() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&(stat.self_nanos / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// The allocation report: one line per stack path with call count,
/// allocations, allocated bytes, and peak net live bytes. Only meaningful
/// in binaries running under [`CountingAlloc`] with [`set_alloc_enabled`]
/// on; otherwise all allocation columns are zero.
pub fn alloc_report() -> String {
    let table = merged_table();
    let mut out = String::from("# scope calls allocs bytes peak_bytes\n");
    for (path, stat) in table {
        out.push_str(&format!(
            "{path} {} {} {} {}\n",
            stat.count, stat.allocs, stat.alloc_bytes, stat.peak_bytes
        ));
    }
    out
}

/// Clears all recorded frames (global table and the calling thread's).
/// Call only while no sibling thread is profiling.
pub fn reset() {
    *GLOBAL.lock().expect("profiler table poisoned") = None;
    let _ = LOCAL.try_with(|l| {
        l.table.borrow_mut().clear();
    });
}

#[inline]
fn note_alloc(size: usize) {
    if !alloc_enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        if l.in_profiler.get() {
            return;
        }
        l.alloc_count.set(l.alloc_count.get().saturating_add(1));
        l.alloc_bytes.set(l.alloc_bytes.get().saturating_add(size as u64));
        let live = l.live_bytes.get().saturating_add(size as u64);
        l.live_bytes.set(live);
        if live > l.live_peak.get() {
            l.live_peak.set(live);
        }
    });
}

#[inline]
fn note_dealloc(size: usize) {
    if !alloc_enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        if l.in_profiler.get() {
            return;
        }
        l.live_bytes.set(l.live_bytes.get().saturating_sub(size as u64));
    });
}

/// A counting wrapper around the system allocator. Register it in a binary
/// with `#[global_allocator]`; it forwards every call to [`System`] and,
/// when [`set_alloc_enabled`] is on, feeds the thread-local allocation
/// counters the profiler samples at frame boundaries. Disabled, the
/// overhead is one relaxed atomic load per allocator call.
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

    // The profiler table and its on/off switch are process-global, and other
    // tests in this binary open spans (which double as frames) while this
    // one has the switch on. So every frame here has a name no other test
    // uses, and every assertion reads only those paths — never the size of
    // the table or of a report.
    #[test]
    fn frames_nest_self_time_and_merge_across_threads() {
        // Disabled frames record nothing.
        {
            let _f = frame("prof_ignored");
        }
        let stat = |path: &str| merged_table().into_iter().find(|(p, _)| p == path).map(|(_, s)| s);
        assert!(stat("prof_ignored").is_none());

        set_enabled(true);
        {
            let _outer = frame("prof_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = frame("prof_inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        // Joined, not merely scoped: a scope waits for the closure, the
        // join also waits for the thread-local destructor that merges.
        std::thread::spawn(|| {
            let _f = frame("prof_worker");
            std::thread::sleep(std::time::Duration::from_millis(1));
        })
        .join()
        .expect("worker thread");

        let outer = stat("prof_outer").expect("outer frame recorded");
        let inner = stat("prof_outer;prof_inner").expect("nested path recorded");
        let worker = stat("prof_worker").expect("worker thread flushed on exit");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.self_nanos >= 1_000_000, "inner slept ~2ms");
        assert!(worker.self_nanos >= 500_000, "worker slept ~1ms");
        // Self time: the outer frame's own time excludes the inner frame's,
        // which alone is the 2 ms the outer frame also slept.
        assert!(outer.self_nanos >= 1_000_000, "outer slept ~2ms itself");

        // Collapsed report: one "path micros" line per path, sorted.
        let report = collapsed_report();
        let ours: Vec<&str> = report.lines().filter(|l| l.starts_with("prof_")).collect();
        assert_eq!(ours.len(), 3, "{report}");
        assert!(ours[0].starts_with("prof_outer "));
        assert!(ours[1].starts_with("prof_outer;prof_inner "));
        assert!(ours[2].starts_with("prof_worker "));
        for l in &ours {
            let count = l.rsplit(' ').next().unwrap();
            count.parse::<u64>().expect("count column is an integer");
        }

        // Alloc report renders a row per path (zero columns without the
        // counting allocator installed in the test binary).
        let alloc = alloc_report();
        assert!(alloc.starts_with("# scope"));
        assert_eq!(alloc.lines().filter(|l| l.starts_with("prof_")).count(), 3, "{alloc}");

        // Drive note_alloc/note_dealloc directly (the test binary does not
        // install CountingAlloc), checking the per-frame delta plumbing.
        set_alloc_enabled(true);
        let f = frame("prof_alloc_scope");
        note_alloc(1000);
        note_alloc(500);
        note_dealloc(500);
        drop(f);
        set_alloc_enabled(false);
        set_enabled(false);
        let s = stat("prof_alloc_scope").expect("frame recorded");
        assert_eq!(s.allocs, 2);
        assert_eq!(s.alloc_bytes, 1500);
        assert_eq!(s.peak_bytes, 1500);

        reset();
        assert!(stat("prof_outer").is_none(), "reset clears the table");
    }
}
