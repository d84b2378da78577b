//! Structured observability for the FedMigr workspace, and — because this
//! is the one crate below every other — its two codecs: [`record`] (text,
//! every JSON artifact) and [`wire`] (binary, every checkpointed value).
//!
//! Three instruments share one [`Telemetry`] engine:
//!
//! * **Leveled, target-scoped logging** — [`error!`], [`warn!`], [`info!`],
//!   [`debug!`], [`trace!`] write through a global, silenceable sink.
//!   Verbosity comes from the `FEDMIGR_LOG` environment variable (or
//!   [`set_filter`]), e.g. `FEDMIGR_LOG=debug,drl=trace,net=off`. The
//!   default (`info`, plain message format, stderr) renders exactly the
//!   progress lines the pre-telemetry binaries printed, so existing result
//!   files stay byte-comparable.
//! * **A metrics registry** — counters, gauges and fixed-bucket histograms
//!   keyed by `(name, labels)` ([`metrics::Registry`]), rendered as a
//!   Prometheus-style text exposition dump ([`render_metrics`]).
//! * **RAII span timers** — [`span!`] opens a [`Span`] that, on drop,
//!   records its duration into the `fedmigr_phase_seconds{target,phase}`
//!   histogram and (when a trace writer is attached) appends a JSONL event
//!   to the trace stream ([`set_trace_file`]).
//!
//! # Determinism contract
//!
//! Telemetry is *observation only*: it never consumes an experiment's RNG
//! stream, never touches the simulated clock, and writes solely to its own
//! sinks. A seeded run therefore produces byte-identical `RunMetrics`
//! whether telemetry is enabled, disabled, or pointed at a trace file —
//! the workspace test `telemetry_e2e.rs` asserts exactly this. Span
//! *timings* read the host's monotonic clock and are naturally
//! non-deterministic; tests that golden-file trace output inject a
//! [`FakeClock`] instead.

#![warn(missing_docs)]

pub mod cli;
mod clock;
mod level;
pub mod metrics;
pub mod profiler;
pub mod record;
pub mod rss;
pub mod trace;
pub mod validate;
pub mod wire;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

pub use clock::{FakeClock, MonotonicClock, TelemetryClock};
pub use level::{Filter, Level};
pub use metrics::Registry;
pub use rss::{peak_rss_bytes, record_peak_rss, reset_peak_rss};
pub use trace::TraceEvent;

/// Name of the span-duration histogram family.
pub const PHASE_SECONDS: &str = "fedmigr_phase_seconds";

/// Canonical metric names shared across crates, so producers (the network
/// simulator, the runner) and consumers (`fedmigr validate`, dashboards)
/// agree on spelling.
pub mod names {
    /// Gauge: mean link utilization of the last simulated transport phase.
    pub const LINK_UTILIZATION: &str = "fedmigr_net_link_utilization";
    /// Histogram: per-flow queueing delay in seconds (time spent with zero
    /// allocated rate) under the flow transport.
    pub const QUEUE_DELAY_SECONDS: &str = "fedmigr_net_queue_delay_seconds";
    /// Counter: segments lost and retransmitted by the flow transport.
    pub const RETRANSMITS_TOTAL: &str = "fedmigr_net_retransmits_total";
    /// Counter: retransmission timeouts fired by the flow transport.
    pub const FLOW_TIMEOUTS_TOTAL: &str = "fedmigr_net_flow_timeouts_total";
    /// Counter: flow lifecycle events per `{event}` (start, rate,
    /// retransmit, timeout, ...), emitted only while the round timeline is
    /// recording.
    pub const FLOW_EVENTS_TOTAL: &str = "fedmigr_net_flow_events_total";
    /// Histogram: seconds each traced link spent busy (allocated rate
    /// above zero) during one transport phase, emitted only while the
    /// round timeline is recording.
    pub const LINK_BUSY_SECONDS: &str = "fedmigr_net_link_busy_seconds";
    /// Counter: declared FLOPs per `{kernel, phase}` (from `fedmigr-tensor`
    /// kernel accounting, attributed to phases by the runners).
    pub const KERNEL_FLOPS_TOTAL: &str = "fedmigr_kernel_flops_total";
    /// Counter: declared bytes moved per `{kernel, phase}`.
    pub const KERNEL_BYTES_TOTAL: &str = "fedmigr_kernel_bytes_total";
    /// Counter: kernel invocations per `{kernel, phase}`.
    pub const KERNEL_CALLS_TOTAL: &str = "fedmigr_kernel_calls_total";
    /// Counter: outermost kernel wall time per `{kernel, phase}`, in
    /// nanoseconds (a counter, not a histogram, so per-phase GFLOP/s is an
    /// exact ratio of two counters).
    pub const KERNEL_NANOS_TOTAL: &str = "fedmigr_kernel_nanos_total";
    /// Counter: busy wall time per `{phase}` of the threads that ran its
    /// kernels (worker spans, or the runner thread's window), in
    /// nanoseconds. The honest denominator for kernel attribution: kernel
    /// nanos are summed across worker threads, so dividing by the phase's
    /// wall clock overstates coverage on parallel phases.
    pub const PHASE_BUSY_NANOS_TOTAL: &str = "fedmigr_phase_busy_nanos_total";
}

/// One observability engine: clock + filter + registry + sinks.
///
/// Production code uses the process-wide [`global`] instance; tests build
/// their own (typically over a [`FakeClock`]) to stay isolated.
pub struct Telemetry {
    clock: Box<dyn TelemetryClock>,
    filter: RwLock<Filter>,
    registry: Registry,
    tracer: Mutex<Option<Box<dyn Write + Send>>>,
    trace_on: AtomicBool,
    depth: AtomicUsize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An engine over the monotonic real clock with default filtering.
    pub fn new() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// An engine over an explicit clock (tests inject [`FakeClock`] here).
    pub fn with_clock(clock: Box<dyn TelemetryClock>) -> Self {
        Self {
            clock,
            filter: RwLock::new(Filter::default()),
            registry: Registry::new(),
            tracer: Mutex::new(None),
            trace_on: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
        }
    }

    /// Seconds since this engine's clock origin.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Replaces the log filter.
    pub fn set_filter(&self, filter: Filter) {
        *self.filter.write().expect("telemetry filter poisoned") = filter;
    }

    /// Whether a record at `level` for `target` would be emitted.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        self.filter.read().expect("telemetry filter poisoned").enabled(target, level)
    }

    /// Emits one log record if the filter passes. Prefer the [`error!`] …
    /// [`trace!`] macros, which route here through the global engine.
    pub fn log(&self, level: Level, target: &str, args: std::fmt::Arguments<'_>) {
        if !self.enabled(target, level) {
            return;
        }
        let msg = args.to_string();
        eprintln!("{msg}");
        if self.trace_on.load(Ordering::Relaxed) {
            let ev = TraceEvent::Log { ts: self.now(), level, target: target.to_string(), msg };
            self.write_event(ev);
        }
    }

    /// Opens an unlabeled span. See [`Span`].
    pub fn span(&self, target: &'static str, name: &'static str) -> Span<'_> {
        self.span_labeled(target, name, Vec::new())
    }

    /// Opens a span carrying extra trace labels (labels enrich the JSONL
    /// stream only — the timing histogram is keyed by `(target, phase)` to
    /// keep series cardinality bounded).
    pub fn span_labeled(
        &self,
        target: &'static str,
        name: &'static str,
        labels: Vec<(String, String)>,
    ) -> Span<'_> {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed);
        // Spans double as profiler frames so the collapsed-stack report
        // nests under the same phase names as the trace (inert when
        // profiling is off).
        let frame = profiler::frame(name);
        Span { engine: self, target, name, start: self.now(), depth, labels, _frame: frame }
    }

    /// Attaches a JSONL trace writer; subsequent spans and passing log
    /// records are appended to it.
    pub fn set_trace_writer(&self, writer: Box<dyn Write + Send>) {
        *self.tracer.lock().expect("telemetry tracer poisoned") = Some(writer);
        self.trace_on.store(true, Ordering::Relaxed);
    }

    /// Opens (creates/truncates) `path` as the JSONL trace sink.
    pub fn set_trace_file(&self, path: &str) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.set_trace_writer(Box::new(std::io::BufWriter::new(file)));
        Ok(())
    }

    /// Flushes and detaches the trace writer, ending the stream.
    pub fn close_trace(&self) {
        self.trace_on.store(false, Ordering::Relaxed);
        if let Some(mut w) = self.tracer.lock().expect("telemetry tracer poisoned").take() {
            let _ = w.flush();
        }
    }

    /// Flushes the trace writer without detaching it.
    pub fn flush(&self) {
        if let Some(w) = self.tracer.lock().expect("telemetry tracer poisoned").as_mut() {
            let _ = w.flush();
        }
    }

    /// Renders the Prometheus-style exposition dump of the registry.
    pub fn render_metrics(&self) -> String {
        self.registry.render_prometheus()
    }

    fn write_event(&self, mut ev: TraceEvent) {
        let mut tracer = self.tracer.lock().expect("telemetry tracer poisoned");
        if let Some(w) = tracer.as_mut() {
            if writeln!(w, "{}", ev.to_jsonl()).is_err() {
                // A dead trace sink must never take the experiment down;
                // drop the writer and keep running.
                *tracer = None;
                self.trace_on.store(false, Ordering::Relaxed);
                eprintln!("fedmigr-telemetry: trace sink write failed; tracing disabled");
            }
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("trace_on", &self.trace_on.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// An RAII profiling span: created by [`Telemetry::span`] (usually via the
/// [`span!`] macro), it measures from construction to drop and then
/// records into the `fedmigr_phase_seconds` histogram and the trace.
#[must_use = "a span measures until dropped; binding it to _ drops it immediately"]
pub struct Span<'a> {
    engine: &'a Telemetry,
    target: &'static str,
    name: &'static str,
    start: f64,
    depth: usize,
    labels: Vec<(String, String)>,
    /// Closes (recording the profiler frame) after the span records.
    _frame: profiler::Frame,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let engine = self.engine;
        let dur = (engine.now() - self.start).max(0.0);
        engine.depth.fetch_sub(1, Ordering::Relaxed);
        engine
            .registry
            .histogram(PHASE_SECONDS, &[("target", self.target), ("phase", self.name)])
            .observe(dur);
        if engine.trace_on.load(Ordering::Relaxed) {
            let ev = TraceEvent::Span {
                ts: self.start,
                dur,
                target: self.target.to_string(),
                name: self.name.to_string(),
                depth: self.depth,
                labels: BTreeMap::from_iter(std::mem::take(&mut self.labels)),
            };
            engine.write_event(ev);
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide engine. First use initializes the filter from the
/// `FEDMIGR_LOG` environment variable, the one place that reads it: a
/// malformed spec is reported once, as a warning, and the default filter
/// applies (a bad environment never stops a run; `--log-level` replaces
/// the filter either way).
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let t = Telemetry::new();
        if let Ok(spec) = std::env::var("FEDMIGR_LOG") {
            match Filter::parse(&spec) {
                Ok(f) => t.set_filter(f),
                Err(e) => {
                    t.log(Level::Warn, "telemetry", format_args!("ignoring FEDMIGR_LOG: {e}"))
                }
            }
        }
        t
    })
}

/// Replaces the global log filter (e.g. from a `--log-level` flag).
pub fn set_filter(filter: Filter) {
    global().set_filter(filter);
}

/// Points the global JSONL trace stream at `path`.
pub fn set_trace_file(path: &str) -> std::io::Result<()> {
    global().set_trace_file(path)
}

/// Flushes and closes the global trace stream.
pub fn close_trace() {
    global().close_trace();
}

/// Renders the global registry as a Prometheus text exposition dump.
pub fn render_metrics() -> String {
    global().render_metrics()
}

/// The workspace's one parallel loop: cuts `items` into
/// `ceil(n / cores)`-sized chunks (cores = the affinity mask's width), runs
/// `work(first, chunk)` on one scoped thread per chunk, `first` being the
/// chunk's offset into `items`, and returns the results in item order. A
/// single chunk (one core, or at most one item) runs on the calling thread
/// and spawns nothing. Every worker is joined before this returns, so its
/// thread-local telemetry has been flushed; a worker's panic resumes on the
/// caller with its payload.
pub fn fan_out<T, R, F>(items: &mut [T], work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> Vec<R> + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let chunk = items.len().div_ceil(cores).max(1);
    if items.len() <= chunk {
        return work(0, items);
    }
    let work = &work;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, part)| s.spawn(move || work(c * chunk, part)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Logs at [`Level::Error`]: `error!("target", "format {}", args)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        $crate::global().log($crate::Level::Error, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`]: `warn!("target", "format {}", args)`.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::global().log($crate::Level::Warn, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`]: `info!("target", "format {}", args)`.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        $crate::global().log($crate::Level::Info, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`]: `debug!("target", "format {}", args)`.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::global().log($crate::Level::Debug, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Trace`]: `trace!("target", "format {}", args)`.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        $crate::global().log($crate::Level::Trace, $target, format_args!($($arg)*))
    };
}

/// Opens a span on the global engine. Bind it to a named guard:
///
/// ```
/// let _span = fedmigr_telemetry::span!("core", "local_train");
/// let _span = fedmigr_telemetry::span!("core", "migrate", "epoch" => 7);
/// ```
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr $(,)?) => {
        $crate::global().span($target, $name)
    };
    ($target:expr, $name:expr, $($k:expr => $v:expr),+ $(,)?) => {
        $crate::global().span_labeled($target, $name, vec![$(($k.to_string(), $v.to_string())),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_engine() -> (Telemetry, FakeClock) {
        let clock = FakeClock::new();
        let t = Telemetry::with_clock(Box::new(clock.clone()));
        (t, clock)
    }

    use crate::record::MemorySink as Buf;

    fn events(buf: &Buf) -> Vec<TraceEvent> {
        buf.text().lines().map(|l| TraceEvent::parse(l).expect("valid JSONL")).collect()
    }

    #[test]
    fn spans_nest_and_time_under_the_fake_clock() {
        let (t, clock) = fake_engine();
        let buf = Buf::default();
        t.set_trace_writer(Box::new(buf.clone()));
        {
            let _outer = t.span("core", "round");
            clock.advance(1.0);
            {
                let _inner = t.span("core", "local_train");
                clock.advance(2.0);
            }
            clock.advance(0.5);
        }
        t.close_trace();
        let evs = events(&buf);
        assert_eq!(evs.len(), 2, "inner closes first, then outer");
        match &evs[0] {
            TraceEvent::Span { name, ts, dur, depth, .. } => {
                assert_eq!(name, "local_train");
                assert!((ts - 1.0).abs() < 1e-9);
                assert!((dur - 2.0).abs() < 1e-9);
                assert_eq!(*depth, 1);
            }
            other => panic!("expected span, got {other:?}"),
        }
        match &evs[1] {
            TraceEvent::Span { name, ts, dur, depth, .. } => {
                assert_eq!(name, "round");
                assert_eq!(*ts, 0.0);
                assert!((dur - 3.5).abs() < 1e-9);
                assert_eq!(*depth, 0);
            }
            other => panic!("expected span, got {other:?}"),
        }
        // Both spans also landed in the phase histogram.
        let snap = t
            .registry()
            .histogram(PHASE_SECONDS, &[("target", "core"), ("phase", "round")])
            .snapshot();
        assert_eq!(snap.count, 1);
        assert!((snap.sum - 3.5).abs() < 1e-9);
    }

    #[test]
    fn log_respects_filter_and_mirrors_to_trace() {
        let (t, _clock) = fake_engine();
        let buf = Buf::default();
        t.set_trace_writer(Box::new(buf.clone()));
        t.set_filter(Filter::parse("warn,core=debug").unwrap());
        t.log(Level::Info, "net", format_args!("hidden"));
        t.log(Level::Debug, "core::runner", format_args!("shown {}", 42));
        t.log(Level::Error, "net", format_args!("also shown"));
        t.close_trace();
        let evs = events(&buf);
        assert_eq!(evs.len(), 2);
        assert!(
            matches!(&evs[0], TraceEvent::Log { level: Level::Debug, msg, .. } if msg == "shown 42")
        );
        assert!(
            matches!(&evs[1], TraceEvent::Log { level: Level::Error, msg, .. } if msg == "also shown")
        );
    }

    #[test]
    fn failed_trace_sink_disables_tracing_without_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (t, clock) = fake_engine();
        t.set_trace_writer(Box::new(Broken));
        {
            let _s = t.span("core", "round");
            clock.advance(1.0);
        }
        // Tracing is now off, but spans still feed the registry.
        {
            let _s = t.span("core", "round");
            clock.advance(1.0);
        }
        let snap = t
            .registry()
            .histogram(PHASE_SECONDS, &[("target", "core"), ("phase", "round")])
            .snapshot();
        assert_eq!(snap.count, 2);
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    #[test]
    fn fan_out_keeps_item_order_and_chunk_offsets() {
        let cores = cores();
        for n in 0..=2 * cores + 1 {
            let chunk = n.div_ceil(cores).max(1);
            let mut items: Vec<usize> = (0..n).collect();
            let out = fan_out(&mut items, |first, part| {
                part.iter_mut()
                    .enumerate()
                    .map(|(j, x)| {
                        assert_eq!(*x, first + j, "n = {n}: offset of a chunk item");
                        *x += 100;
                        (first, *x - 100)
                    })
                    .collect()
            });
            let order: Vec<usize> = out.iter().map(|&(_, x)| x).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "n = {n}: results in item order");
            for &(first, x) in &out {
                assert_eq!(first, x / chunk * chunk, "n = {n}: item {x} in the wrong chunk");
            }
            assert!(items.iter().enumerate().all(|(i, &x)| x == i + 100), "n = {n}: writes land");
        }
    }

    #[test]
    fn fan_out_runs_a_single_chunk_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut one = [0u8];
        let ids =
            fan_out(&mut one, |_, part| part.iter().map(|_| std::thread::current().id()).collect());
        assert_eq!(ids, vec![caller]);
        // No items is one empty chunk, too.
        let mut none: [u8; 0] = [];
        assert_eq!(fan_out(&mut none, |first, part| vec![(first, part.len())]), vec![(0, 0)]);
    }

    #[test]
    fn fan_out_resumes_a_worker_panic_on_the_caller() {
        let n = 2 * cores() + 1;
        let mut items: Vec<usize> = (0..n).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&mut items, |_, part| {
                if part.contains(&(n - 1)) {
                    std::panic::panic_any(n - 1);
                }
                part.to_vec()
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&(n - 1)));
    }

    #[test]
    fn global_macros_do_not_panic() {
        // The global engine writes to stderr by default; just exercise the
        // macro plumbing end to end.
        let _span = crate::span!("telemetry", "self_test", "k" => "v");
        crate::debug!("telemetry", "self test {}", 1);
    }
}
