//! Structured observability for the FedMigr workspace, and — because this
//! is the one crate below every other — its two codecs: [`record`] (text,
//! every JSON artifact) and [`wire`] (binary, every checkpointed value).
//!
//! Three instruments, each recording on the thread that uses it:
//!
//! * **Leveled, target-scoped logging** — [`error!`], [`warn!`], [`info!`],
//!   [`debug!`], [`trace!`] write to stderr through the thread's filter.
//!   Verbosity comes from the `FEDMIGR_LOG` environment variable (or
//!   [`ledger::set_filter`]), e.g. `FEDMIGR_LOG=debug,drl=trace,net=off`.
//!   The default (`info`, plain message format) renders exactly the
//!   progress lines the pre-telemetry binaries printed, so existing result
//!   files stay byte-comparable.
//! * **A metrics registry** — counters, gauges and fixed-bucket histograms
//!   keyed by `(name, labels)` ([`metrics`]), rendered as a
//!   Prometheus-style text exposition dump.
//! * **RAII span timers** — [`span!`] opens a [`Span`] that, on drop,
//!   records its duration into the `fedmigr_phase_seconds{target,phase}`
//!   histogram and (when the thread has a trace writer) appends a JSONL
//!   event to the trace stream ([`ledger::trace_to`]).
//!
//! Nothing here is process-wide. The filter, the trace writer with its
//! clock, and the registry live in the [`ledger`] of the thread, beside
//! its kernel counts, profiler frames and span depth; a run records into
//! a tally of its own that it adds into its caller's when it ends, and
//! [`fan_out`] hands its workers the caller's switches and filter and adds
//! their tallies into the caller's at the join. The CLI's
//! [`cli::Observability`] opens the sink and writes the dump on its own
//! thread, the one the run ran on.
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
//! [`FakeClock`] into their thread's ledger instead.

#![warn(missing_docs)]

pub mod cli;
mod clock;
pub mod ledger;
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

/// Whether a record at `level` for `target` passes this thread's filter.
/// A thread's first check reads `FEDMIGR_LOG`, unless the thread was given
/// a filter ([`ledger::set_filter`], or its [`fan_out`] caller's).
pub fn enabled(target: &str, level: Level) -> bool {
    read_env_filter();
    ledger::filter_passes(target, level).unwrap_or(false)
}

/// Unless this thread has a filter, gives it the one `FEDMIGR_LOG` spells,
/// the one place that reads it: a malformed spec is reported, as a
/// warning, and the default filter applies (a bad environment never stops
/// a run; `--log-level` replaces the filter either way).
pub(crate) fn read_env_filter() {
    if ledger::has_filter() {
        return;
    }
    let parsed = std::env::var("FEDMIGR_LOG").ok().map(|spec| Filter::parse(&spec)).transpose();
    ledger::set_filter(parsed.clone().ok().flatten().unwrap_or_default());
    if let Err(e) = parsed {
        log(Level::Warn, "telemetry", format_args!("ignoring FEDMIGR_LOG: {e}"));
    }
}

/// Emits one log record on this thread if its filter passes: to stderr,
/// and to the thread's trace when it has one. Prefer the [`error!`] …
/// [`trace!`] macros, which route here.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(target, level) {
        return;
    }
    let msg = args.to_string();
    eprintln!("{msg}");
    if ledger::tracing() {
        write_event(TraceEvent::Log { ts: ledger::now(), level, target: target.to_string(), msg });
    }
}

/// Opens an unlabeled span on this thread. See [`Span`].
pub fn span(target: &'static str, name: &'static str) -> Span {
    span_labeled(target, name, Vec::new())
}

/// Opens a span carrying extra trace labels (labels enrich the JSONL
/// stream only — the timing histogram is keyed by `(target, phase)` to
/// keep series cardinality bounded).
pub fn span_labeled(
    target: &'static str,
    name: &'static str,
    labels: Vec<(String, String)>,
) -> Span {
    let depth = ledger::open_span();
    // Spans double as profiler frames so the collapsed-stack report
    // nests under the same phase names as the trace (inert when
    // profiling is off).
    let frame = profiler::frame(name);
    Span { target, name, start: ledger::now(), depth, labels, _frame: frame }
}

/// Appends `ev` to this thread's trace. A dead trace sink must never take
/// the experiment down: a failed write drops the writer and the run goes
/// on.
fn write_event(mut ev: TraceEvent) {
    let failed = ledger::with(|l| {
        let mut sink = l.sink.borrow_mut();
        let failed = sink.trace.as_mut().is_some_and(|w| writeln!(w, "{}", ev.to_jsonl()).is_err());
        if failed {
            sink.trace = None;
        }
        failed
    });
    if failed == Some(true) {
        eprintln!("fedmigr-telemetry: trace sink write failed; tracing disabled");
    }
}

/// An RAII profiling span: created by [`span`] (usually via the [`span!`]
/// macro), it measures from construction to drop on its thread's clock
/// and then records into the thread's `fedmigr_phase_seconds` histogram
/// and trace.
#[must_use = "a span measures until dropped; binding it to _ drops it immediately"]
pub struct Span {
    target: &'static str,
    name: &'static str,
    start: f64,
    depth: usize,
    labels: Vec<(String, String)>,
    /// Closes (recording the profiler frame) after the span records.
    _frame: profiler::Frame,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = (ledger::now() - self.start).max(0.0);
        ledger::close_span();
        metrics::observe(PHASE_SECONDS, &[("target", self.target), ("phase", self.name)], dur);
        if ledger::tracing() {
            write_event(TraceEvent::Span {
                ts: self.start,
                dur,
                target: self.target.to_string(),
                name: self.name.to_string(),
                depth: self.depth,
                labels: BTreeMap::from_iter(std::mem::take(&mut self.labels)),
            });
        }
    }
}

/// The workspace's one parallel loop: cuts `items` into
/// `ceil(n / cores)`-sized chunks (cores = the affinity mask's width), runs
/// `work(first, chunk)` on one scoped thread per chunk, `first` being the
/// chunk's offset into `items`, and returns the results in item order. A
/// single chunk (one core, or at most one item) runs on the calling thread
/// and spawns nothing. Each worker runs under the caller's instrument
/// switches and log filter, and when its closure returns, its [`ledger`]'s
/// tally — kernel counts, frames, metrics — comes back with its results
/// and is added into the caller's. Every worker is joined before this
/// returns; a worker's panic resumes on the caller with its payload.
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
    let handoff = ledger::handoff();
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, part)| {
                let handoff = handoff.clone();
                s.spawn(move || handoff.run(|| work(c * chunk, part)))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                let (results, tally) =
                    w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                ledger::merge(tally);
                results
            })
            .collect()
    })
}

/// Logs at [`Level::Error`]: `error!("target", "format {}", args)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Error, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`]: `warn!("target", "format {}", args)`.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Warn, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`]: `info!("target", "format {}", args)`.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Info, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`]: `debug!("target", "format {}", args)`.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Debug, $target, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Trace`]: `trace!("target", "format {}", args)`.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Trace, $target, format_args!($($arg)*))
    };
}

/// Opens a span on this thread. Bind it to a named guard:
///
/// ```
/// let _span = fedmigr_telemetry::span!("core", "local_train");
/// let _span = fedmigr_telemetry::span!("core", "migrate", "epoch" => 7);
/// ```
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr $(,)?) => {
        $crate::span($target, $name)
    };
    ($target:expr, $name:expr, $($k:expr => $v:expr),+ $(,)?) => {
        $crate::span_labeled($target, $name, vec![$(($k.to_string(), $v.to_string())),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::record::MemorySink as Buf;

    // Each test runs on its own thread, so the ledger it reads — filter,
    // trace writer, clock, registry — is its own.

    /// Points this thread's trace at a buffer and its clock at a fake one.
    fn fake_sink() -> (Buf, FakeClock) {
        let (buf, clock) = (Buf::default(), FakeClock::new());
        ledger::set_clock(Box::new(clock.clone()));
        ledger::trace_to(Box::new(buf.clone()));
        (buf, clock)
    }

    fn events(buf: &Buf) -> Vec<TraceEvent> {
        buf.text().lines().map(|l| TraceEvent::parse(l).expect("valid JSONL")).collect()
    }

    fn phase_histogram(target: &str, phase: &str) -> metrics::Histogram {
        let family = metrics::snapshot().histogram_family(PHASE_SECONDS);
        let key = |l: &metrics::Labels| l.iter().any(|(k, v)| k == "phase" && v == phase);
        let of = family.into_iter().find(|(l, _)| key(l) && l.iter().any(|(_, v)| v == target));
        of.map(|(_, h)| h).unwrap_or_default()
    }

    #[test]
    fn spans_nest_and_time_under_the_fake_clock() {
        let (buf, clock) = fake_sink();
        {
            let _outer = span("core", "round");
            clock.advance(1.0);
            {
                let _inner = span("core", "local_train");
                clock.advance(2.0);
            }
            clock.advance(0.5);
        }
        ledger::close_trace();
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
        let snap = phase_histogram("core", "round");
        assert_eq!(snap.count, 1);
        assert!((snap.sum - 3.5).abs() < 1e-9);
    }

    #[test]
    fn log_respects_filter_and_mirrors_to_trace() {
        let (buf, _clock) = fake_sink();
        ledger::set_filter(Filter::parse("warn,core=debug").unwrap());
        log(Level::Info, "net", format_args!("hidden"));
        log(Level::Debug, "core::runner", format_args!("shown {}", 42));
        log(Level::Error, "net", format_args!("also shown"));
        ledger::close_trace();
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
        let clock = FakeClock::new();
        ledger::set_clock(Box::new(clock.clone()));
        ledger::trace_to(Box::new(Broken));
        {
            let _s = span("core", "round");
            clock.advance(1.0);
        }
        assert!(!ledger::tracing(), "the dead writer is dropped");
        // Tracing is now off, but spans still feed the registry.
        {
            let _s = span("core", "round");
            clock.advance(1.0);
        }
        assert_eq!(phase_histogram("core", "round").count, 2);
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

    const ALL_ON: ledger::Switches =
        ledger::Switches { kcount: true, profile: ledger::Profile::Frames };

    fn frame_count(path: &str) -> u64 {
        ledger::with(|l| l.tally.borrow().frames.get(path).map_or(0, |s| s.count)).unwrap_or(0)
    }

    /// Per item: one `Pool` scope declaring 1 FLOP and 2 bytes, one `name`
    /// frame, and the switches the item ran under.
    fn record_each(items: &mut [usize], name: &'static str) -> Vec<ledger::Switches> {
        fan_out(items, |_, part| {
            part.iter()
                .map(|_| {
                    let _f = profiler::frame(name);
                    drop(ledger::scope(ledger::Kernel::Pool, 1, 2));
                    ledger::switches()
                })
                .collect()
        })
    }

    // Each test runs on its own thread, so the ledger it reads is its own.
    #[test]
    fn fan_out_brings_every_workers_ledger_home_at_join() {
        let n = 2 * cores() + 1;
        let mut items: Vec<usize> = (0..n).collect();
        let seen = ledger::with_switches(ALL_ON, || record_each(&mut items, "fan_item"));
        assert!(seen.iter().all(|&s| s == ALL_ON), "every worker ran under the caller's switches");
        let pool = ledger::snapshot().get(ledger::Kernel::Pool);
        let n = n as u64;
        assert_eq!((pool.calls, pool.flops, pool.bytes), (n, n, 2 * n));
        assert_eq!(frame_count("fan_item"), n, "a worker roots its own stack");
    }

    #[test]
    fn fan_out_workers_stay_off_when_the_caller_is_off() {
        let mut items: Vec<usize> = (0..2 * cores() + 1).collect();
        let seen = record_each(&mut items, "fan_off");
        assert!(seen.iter().all(|&s| s == ledger::Switches::default()));
        assert!(ledger::snapshot().is_empty());
        assert_eq!(frame_count("fan_off"), 0);
    }

    #[test]
    fn fan_out_single_chunk_records_once_on_the_caller() {
        let mut one = [0usize];
        ledger::with_switches(ALL_ON, || {
            let _outer = profiler::frame("caller");
            (0..3).for_each(|_| drop(ledger::scope(ledger::Kernel::Pool, 1, 2)));
            record_each(&mut one, "fan_single");
        });
        let pool = ledger::snapshot().get(ledger::Kernel::Pool);
        assert_eq!((pool.calls, pool.bytes), (4, 8), "no copy of the caller's ledger merged back");
        // On the calling thread the item's frame nests under the caller's.
        assert_eq!(frame_count("caller;fan_single"), 1);
        assert_eq!(frame_count("fan_single"), 0);
    }

    #[test]
    fn a_thread_outside_fan_out_keeps_its_ledger_to_itself() {
        std::thread::spawn(|| {
            ledger::with_switches(ALL_ON, || {
                let _f = profiler::frame("stray");
                drop(ledger::scope(ledger::Kernel::Pool, 1, 2));
            });
            metrics::add("stray_total", &[], 1);
            metrics::observe("stray_seconds", &[], 1.0);
            metrics::set("stray_gauge", &[], 1.0);
        })
        .join()
        .expect("stray thread");
        assert!(ledger::snapshot().is_empty());
        assert_eq!(frame_count("stray"), 0);
        assert_eq!(metrics::snapshot(), metrics::Registry::new(), "its metrics stayed there");
    }

    /// Per item, on whichever thread runs it: one count, one observation
    /// and a gauge set to the item's value, one span and one log record
    /// that pass the filter; returns whether the item ran on `caller`.
    fn record_series(items: &mut [usize], caller: std::thread::ThreadId) -> Vec<bool> {
        fan_out(items, |_, part| {
            part.iter()
                .map(|&x| {
                    metrics::add("fan_total", &[], 1);
                    metrics::observe("fan_seconds", &[], x as f64);
                    metrics::set("fan_gauge", &[], x as f64);
                    drop(span("fan", "fan_span"));
                    error!("fan", "fan item {x}");
                    std::thread::current().id() == caller
                })
                .collect()
        })
    }

    #[test]
    fn fan_out_adds_every_workers_metrics_into_the_callers() {
        let n = 2 * cores() + 1;
        let mut items: Vec<usize> = (0..n).collect();
        ledger::set_filter(Filter::parse("off").unwrap());
        record_series(&mut items, std::thread::current().id());
        let reg = metrics::snapshot();
        assert_eq!(reg.counter_family("fan_total"), vec![(vec![], n as u64)], "n counts");
        let [(_, seconds)] = reg.histogram_family("fan_seconds")[..] else { panic!("one series") };
        assert_eq!((seconds.count, seconds.sum), (n as u64, (n * (n - 1) / 2) as f64));
        // Workers join in item order, so the gauge holds the last item's.
        let gauge = format!("fan_gauge {}.0\n", n - 1);
        assert!(reg.render_prometheus().contains(&gauge), "the last set wins: {gauge}");
        assert_eq!(phase_histogram("fan", "fan_span").count, n as u64, "spans count at home");
    }

    #[test]
    fn fan_out_workers_inherit_the_callers_filter() {
        let n = 2 * cores() + 1;
        let mut items: Vec<usize> = (0..n).collect();
        ledger::set_filter(Filter::parse("off,core=debug").unwrap());
        let seen = fan_out(&mut items, |_, part| {
            part.iter()
                .map(|_| (enabled("core", Level::Debug), enabled("net", Level::Error)))
                .collect()
        });
        assert!(seen.iter().all(|&s| s == (true, false)), "{seen:?}");
    }

    #[test]
    fn fan_out_workers_write_no_trace_line() {
        let n = 2 * cores() + 1;
        let mut items: Vec<usize> = (0..n).collect();
        let (buf, _clock) = fake_sink();
        ledger::set_filter(Filter::parse("off,fan=error").unwrap());
        let on_caller = record_series(&mut items, std::thread::current().id());
        ledger::close_trace();
        // Only what ran on the caller's thread — everything, for a single
        // chunk — reaches its trace: one span and one log per item.
        let at_home = on_caller.iter().filter(|&&home| home).count();
        assert_eq!(events(&buf).len(), 2 * at_home, "{on_caller:?}");
        assert_eq!(phase_histogram("fan", "fan_span").count, n as u64);
    }

    #[test]
    fn global_macros_do_not_panic() {
        // The macros write to this thread's stderr by default; just
        // exercise their plumbing end to end.
        let _span = crate::span!("telemetry", "self_test", "k" => "v");
        crate::debug!("telemetry", "self test {}", 1);
    }
}
