//! The driver: runs a workload's children one at a time (closed loop, one
//! process at a time, each using every core), checks every outcome, and
//! turns the trials into metrics.
//!
//! Two modes per workload. The end-to-end mode runs with no trace flag:
//! one untimed warm-up whose CSV becomes the reference, [`SETUP_RUNS`]
//! one-epoch invocations for `setup_s`, then timed trials over
//! [`SEEDS_PER_RUN`] seeds until the time budget is spent. The traced mode
//! is never counted in end-to-end numbers: a few untraced trials, one traced
//! one, the paired checkpoint/observe runs, and the probe binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fedmigr_telemetry::trace::{json_str, JsonValue};

use crate::child::{self, ChildRun};
use crate::parse::{self, CsvSummary};
use crate::report::{metric_entry, MetricResult, WorkloadResult};
use crate::spans::{spans_from_json, Recorder};
use crate::spec::{
    self, Instruments, Workload, END_TO_END, PAIR_EPOCHS, PAIR_REPEATS, PHASE_SPANS, QUICK_EPOCHS,
    SEEDS_PER_RUN, SETUP_RUNS, UNTRACED_TRIALS,
};
use crate::stats::{self, Summary};

/// Files an instrument set must leave behind, non-empty, relative to the
/// trial directory.
fn expected_artifacts(instruments: Instruments) -> &'static [&'static str] {
    match instruments {
        Instruments::Off => &[],
        Instruments::Trace => &["R.jsonl", "M.prom"],
        Instruments::Snapshots => &[],
        Instruments::All => &["F.jsonl", "T.jsonl", "R.jsonl", "M.prom", "P.txt", "P.txt.alloc"],
        Instruments::SnapshotToDisk => &["D/latest.fmrs"],
    }
}

/// One finished child and everything read from its scratch directory, which
/// is gone by the time this exists.
pub struct Trial {
    pub label: String,
    pub epochs: usize,
    pub child: ChildRun,
    pub csv: Result<CsvSummary, String>,
    /// `--trace-out` and `--metrics-out` texts, when those were requested.
    pub trace: Option<String>,
    pub metrics: Option<String>,
    /// Size of each expected artifact; 0 when missing.
    pub artifacts: Vec<(&'static str, u64)>,
    /// Last lines of the child's stderr, for failure reports.
    pub stderr_tail: String,
}

impl Trial {
    /// The trial-failure rules: non-zero exit (a panic is exit 101), epochs
    /// run ≠ requested, non-finite loss, an empty or missing artifact, or a
    /// CSV that differs from `reference` — another run of the same seed.
    pub fn check(&self, reference: Option<&str>) -> Result<&CsvSummary, String> {
        let fail = |why: String| Err(format!("{}: {why}", self.label));
        if !self.child.succeeded() {
            let how = self
                .child
                .exit_code
                .map_or("killed by a signal".into(), |c| format!("exit code {c}"));
            return fail(format!("{how}; stderr: {}", self.stderr_tail));
        }
        let csv = match &self.csv {
            Ok(csv) => csv,
            Err(e) => return fail(e.clone()),
        };
        if csv.epochs != self.epochs {
            return fail(format!("ran {} epochs, {} requested", csv.epochs, self.epochs));
        }
        if !csv.loss_finite {
            return fail("non-finite train_loss".into());
        }
        if let Some((name, _)) = self.artifacts.iter().find(|(_, size)| *size == 0) {
            return fail(format!("artifact {name} is empty or missing"));
        }
        match reference {
            Some(digest) if digest != csv.digest => {
                fail(format!("csv digest {} differs from {digest} for the same seed", csv.digest))
            }
            _ => Ok(csv),
        }
    }
}

pub struct Runner {
    fedmigr: PathBuf,
    probe: PathBuf,
    scratch: PathBuf,
    quick: bool,
    pub rec: Recorder,
    children: usize,
}

impl Runner {
    /// `bin_dir` holds `fedmigr` and `fedbench_probe`; `scratch` is created
    /// here and removed on drop.
    pub fn new(bin_dir: &Path, scratch: PathBuf, quick: bool) -> Result<Runner, String> {
        let fedmigr = bin_dir.join("fedmigr");
        let probe = bin_dir.join("fedbench_probe");
        for bin in [&fedmigr, &probe] {
            if !bin.is_file() {
                return Err(format!(
                    "{} not found: build the root binary and this package in release mode into \
                     one target directory (benchmark/run.sh does)",
                    bin.display()
                ));
            }
        }
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Runner { fedmigr, probe, scratch, quick, rec: Recorder::default(), children: 0 })
    }

    /// Runs `fedmigr` once in a fresh scratch directory and deletes it.
    pub fn trial(
        &mut self,
        w: &Workload,
        seed: u64,
        epochs: usize,
        instruments: Instruments,
        label: &str,
        parent: usize,
    ) -> Result<Trial, String> {
        self.children += 1;
        let dir = self.scratch.join(format!("child-{}", self.children));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mut args: Vec<String> = vec![
            "--seed".into(),
            seed.to_string(),
            "--epochs".into(),
            epochs.to_string(),
            "--csv".into(),
            path("run.csv"),
        ];
        args.extend(w.flags.iter().map(|f| f.to_string()));
        let trace = ["--trace-out".into(), path("R.jsonl"), "--metrics-out".into(), path("M.prom")];
        // No --checkpoint-dir: snapshot files replace one another by rename,
        // which makes ext4 flush each at once, and on this host a few hundred
        // MB of that slows every later child severalfold. Timed children
        // therefore keep snapshots in memory; `SnapshotToDisk` writes one.
        let snapshots = ["--checkpoint-every".into(), "1".into()];
        match instruments {
            Instruments::Off => {}
            Instruments::Trace => args.extend(trace),
            Instruments::Snapshots => args.extend(snapshots),
            Instruments::All => {
                args.extend(trace);
                args.extend(snapshots);
                args.extend([
                    "--diag".into(),
                    "--flight-out".into(),
                    path("F.jsonl"),
                    "--timeline-out".into(),
                    path("T.jsonl"),
                    "--profile-out".into(),
                    path("P.txt"),
                    "--profile-alloc".into(),
                ]);
            }
            Instruments::SnapshotToDisk => args.extend([
                "--checkpoint-every".into(),
                epochs.to_string(),
                "--checkpoint-dir".into(),
                path("D"),
            ]),
        }
        let label = format!("{}/{label}", w.name);
        let span = self.rec.open("child", &label, Some(parent));
        let child = child::run(&self.fedmigr, &args, &dir.join("stderr.txt"))
            .map_err(|e| format!("cannot run {}: {e}", self.fedmigr.display()))?;
        self.rec.close(span);

        let read = |name: &str| std::fs::read_to_string(dir.join(name)).ok();
        let csv =
            read("run.csv").ok_or("no csv written".to_string()).and_then(|t| parse::parse_csv(&t));
        let traced = matches!(instruments, Instruments::Trace | Instruments::All);
        let stderr = read("stderr.txt").unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        let trial = Trial {
            label,
            epochs,
            child,
            csv,
            trace: traced.then(|| read("R.jsonl")).flatten(),
            metrics: traced.then(|| read("M.prom")).flatten(),
            artifacts: expected_artifacts(instruments)
                .iter()
                .map(|&a| (a, std::fs::metadata(dir.join(a)).map_or(0, |m| m.len())))
                .collect(),
            stderr_tail: tail.into_iter().rev().collect::<Vec<_>>().join(" | "),
        };
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(trial)
    }

    fn epochs(&self, w: &Workload) -> usize {
        if self.quick {
            QUICK_EPOCHS
        } else {
            w.epochs
        }
    }

    /// The end-to-end mode: every [`END_TO_END`] metric, measured with no
    /// trace flag. `seconds` is the budget of the timed loop; at least one
    /// trial per seed runs regardless, so the virtual-clock means never
    /// depend on host speed.
    pub fn end_to_end(
        &mut self,
        w: &Workload,
        seed: u64,
        seconds: f64,
    ) -> Result<WorkloadResult, String> {
        let mut result = WorkloadResult { name: w.name.into(), ..WorkloadResult::default() };
        let root = self.rec.open("end_to_end", w.name, None);
        let epochs = self.epochs(w);
        let (setup_runs, min_trials) =
            if self.quick { (3, 1) } else { (SETUP_RUNS, SEEDS_PER_RUN as usize) };
        // First successful CSV per seed: the reference later runs of that
        // seed must reproduce, and the source of the virtual-clock metrics.
        let mut by_seed: BTreeMap<u64, CsvSummary> = BTreeMap::new();

        // Untimed warm-up with the instruments off. For a workload that is
        // timed with instruments on this is also the outside check of the
        // observation-only promise: its trials must reproduce this CSV.
        let warm = self.trial(w, seed, epochs, Instruments::Off, "warmup", root)?;
        let checked = warm.check(None).map(|csv| {
            by_seed.insert(seed, csv.clone());
        });
        result.tally(checked);

        let mut setup_s = Vec::new();
        for i in 0..setup_runs {
            let s = seed + i as u64 % SEEDS_PER_RUN;
            let t = self.trial(w, s, 1, w.timed, &format!("setup/{i}"), root)?;
            let checked = t.check(None).map(|_| setup_s.push(t.child.wall_s));
            result.tally(checked);
        }

        let (mut rounds_per_s, mut cpu_ms, mut rss_mb, mut walls) =
            (vec![], vec![], vec![], vec![]);
        let started = Instant::now();
        for i in 0.. {
            let spent = started.elapsed().as_secs_f64();
            if i >= min_trials && spent + stats::median(&walls).unwrap_or(0.0) / 2.0 >= seconds {
                break;
            }
            let s = seed + i as u64 % SEEDS_PER_RUN;
            let t = self.trial(w, s, epochs, w.timed, &format!("trial/{i}"), root)?;
            let checked = t.check(by_seed.get(&s).map(|c| c.digest.as_str())).map(|csv| {
                by_seed.entry(s).or_insert_with(|| csv.clone());
                walls.push(t.child.wall_s);
                rounds_per_s.push(epochs as f64 / t.child.wall_s);
                cpu_ms.push(1e3 * t.child.cpu_s / epochs as f64);
                rss_mb.push(t.child.peak_rss_mb);
            });
            let void = checked.is_err();
            result.tally(checked);
            if void {
                // The run is void already; do not spend the budget on it.
                break;
            }
        }
        self.rec.close(root);

        let seeds: Vec<&CsvSummary> = by_seed.values().collect();
        let mean = |f: &dyn Fn(&CsvSummary) -> Option<f64>| {
            let values: Vec<f64> = seeds.iter().filter_map(|c| f(c)).collect();
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        for m in END_TO_END {
            let measured = match m.name {
                "rounds_per_s" => Summary::of(&rounds_per_s),
                "cpu_ms_per_round" => Summary::of(&cpu_ms),
                "peak_rss_mb" => Summary::of(&rss_mb),
                "setup_s" => Summary::of(&setup_s),
                "sim_time_s" => {
                    mean(&|c| Some(c.sim_time_s)).map(|v| Summary::exact(v, seeds.len()))
                }
                "wan_mb" => {
                    mean(&|c| Some(c.c2s_bytes / 1e6)).map(|v| Summary::exact(v, seeds.len()))
                }
                "final_err" => {
                    mean(&|c| c.final_acc.map(|a| 1.0 - a)).map(|v| Summary::exact(v, seeds.len()))
                }
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            match measured {
                Some(summary) => result.end_to_end.push(MetricResult {
                    name: m.name.into(),
                    unit: m.unit.into(),
                    better: m.better,
                    bound: m.bound,
                    summary,
                }),
                None => result.tally(Err(format!("{}: no run yielded {}", w.name, m.name))),
            }
        }
        result.csv_digests = by_seed.into_iter().map(|(s, c)| (s, c.digest)).collect();
        Ok(result)
    }

    /// The traced mode: every per-layer metric, and the probe binary's
    /// output (a JSON object: its metrics, each probe's median/min/reps, its
    /// spans) as printed, or `null` if it printed none. Writes nothing; the
    /// caller owns the trace file.
    pub fn traced(&mut self, w: &Workload, seed: u64) -> Result<(WorkloadResult, String), String> {
        let mut result = WorkloadResult { name: w.name.into(), ..WorkloadResult::default() };
        let root = self.rec.open("traced", w.name, None);
        let epochs = self.epochs(w);
        let (untraced_trials, pair_epochs, pair_repeats) = if self.quick {
            (1, QUICK_EPOCHS, 1)
        } else {
            (UNTRACED_TRIALS, PAIR_EPOCHS, PAIR_REPEATS)
        };
        let mut values: BTreeMap<String, f64> = BTreeMap::new();

        // The workload itself: untraced trials, then the traced one. All run
        // one seed, so all must write one CSV.
        let mut reference: Option<String> = None;
        let mut untraced_walls = Vec::new();
        for i in 0..untraced_trials {
            let t =
                self.trial(w, seed, epochs, Instruments::Off, &format!("untraced/{i}"), root)?;
            let checked = t.check(reference.as_deref()).map(|csv| {
                reference.get_or_insert_with(|| csv.digest.clone());
                untraced_walls.push(t.child.wall_s);
            });
            result.tally(checked);
        }
        let instruments =
            if w.timed == Instruments::All { Instruments::All } else { Instruments::Trace };
        let t = self.trial(w, seed, epochs, instruments, "traced", root)?;
        let checked = t.check(reference.as_deref()).and_then(|csv| {
            let profile = parse::parse_spans(t.trace.as_deref().unwrap_or(""))?;
            let kernels =
                parse::kernel_totals(&parse::parse_prom(t.metrics.as_deref().unwrap_or(""))?);
            for span in PHASE_SPANS {
                if let Some(share) = profile.share(span) {
                    values.insert(format!("phase.{span}_share"), share);
                }
            }
            let round_ms: Vec<f64> = profile.rounds.iter().map(|r| r * 1e3).collect();
            let per_round = csv.epochs as f64;
            let mut put = |name: &str, v: f64| values.insert(name.into(), v);
            put("phase.cover", profile.cover());
            put("round_ms_p50", stats::percentile(&round_ms, 50.0).unwrap_or(0.0));
            put("round_ms_p90", stats::percentile(&round_ms, 90.0).unwrap_or(0.0));
            put("kernel.gflop_per_round", kernels.flops / per_round / 1e9);
            put("kernel.gb_per_round", kernels.bytes / per_round / 1e9);
            put("kernel.matmul_gflops", kernels.matmul_flops / kernels.matmul_nanos);
            put("kernel.layout_share", kernels.layout_nanos / kernels.nanos);
            put("net.c2c_mb", csv.c2c_bytes / 1e6);
            put("net.retransmits", csv.retransmits);
            put("net.late_uploads", csv.late_uploads);
            put("compress.saved_mb", csv.bytes_saved / 1e6);
            if let Some(untraced) = stats::median(&untraced_walls) {
                put("trace_overhead_pct", 100.0 * (t.child.wall_s / untraced - 1.0));
            }
            Ok(())
        });
        result.tally(checked);

        // Paired dense_comm runs: plain, every instrument on, snapshots only;
        // then one that writes its last snapshot. Alternated, fastest of each
        // kept; one seed, so again one CSV.
        let comm = spec::workload("dense_comm").expect("dense_comm is a workload");
        let sides = [Instruments::Off, Instruments::All, Instruments::Snapshots];
        let mut fastest = [f64::INFINITY; 3];
        let mut reference: Option<String> = None;
        let last = (pair_repeats, Instruments::SnapshotToDisk);
        let order = (0..pair_repeats).flat_map(|r| sides.map(|side| (r, side))).chain([last]);
        for (r, instruments) in order {
            let label = format!("pair/{r}/{instruments:?}");
            let t = self.trial(comm, seed, pair_epochs, instruments, &label, root)?;
            let checked = t.check(reference.as_deref()).map(|csv| {
                reference.get_or_insert_with(|| csv.digest.clone());
                if let Some(side) = sides.iter().position(|s| *s == instruments) {
                    fastest[side] = fastest[side].min(t.child.wall_s);
                }
                let mb = t.artifacts.iter().map(|(_, size)| *size as f64).sum::<f64>() / 1e6;
                match instruments {
                    Instruments::All => values.insert("observe.artifact_mb".into(), mb),
                    Instruments::SnapshotToDisk => values.insert("core.checkpoint_mb".into(), mb),
                    _ => None,
                };
            });
            result.tally(checked);
        }
        let [plain, observed, snapshotting] = fastest;
        if fastest.iter().all(|w| w.is_finite()) {
            values.insert("observe_overhead_pct".into(), 100.0 * (1.0 - plain / observed));
            values.insert(
                "core.checkpoint_ms".into(),
                1e3 * (snapshotting - plain) / pair_epochs as f64,
            );
        }

        // The probe binary: its metrics, and its spans under ours.
        let span = self.rec.open("probe", &format!("{}/probe", w.name), Some(root));
        let mut cmd = std::process::Command::new(&self.probe);
        if self.quick {
            cmd.arg("--quick");
        }
        let output =
            cmd.output().map_err(|e| format!("cannot run {}: {e}", self.probe.display()))?;
        self.rec.close(span);
        let stdout = String::from_utf8_lossy(&output.stdout).trim().to_string();
        let probed = (|| {
            if !output.status.success() {
                return Err(format!(
                    "{}; stderr: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let doc = JsonValue::parse(&stdout)?;
            let doc = doc.as_object().ok_or("output is not an object")?;
            let metrics =
                doc.get("metrics").and_then(JsonValue::as_object).ok_or("no \"metrics\"")?;
            for (name, v) in metrics {
                values.insert(name.clone(), v.as_f64().ok_or(format!("{name} is not a number"))?);
            }
            self.rec.adopt(span, spans_from_json(doc.get("spans").ok_or("no \"spans\"")?)?);
            Ok(())
        })();
        let probe_json = if probed.is_ok() { stdout } else { "null".to_string() };
        result.tally(probed.map_err(|e| format!("{}/probe: {e}", w.name)));
        self.rec.close(root);

        // Every per-layer metric, in table order. A phase span this
        // workload's loop never opens is absent; anything in `PER_LAYER` that
        // is missing is a failed check (unless one already explains it).
        for (name, unit, _) in spec::per_layer() {
            let value = values.get(&name).copied();
            let required = spec::PER_LAYER.iter().any(|(n, ..)| *n == name);
            if value.is_none() && required && result.failed == 0 {
                result.tally(Err(format!("{}: per-layer metric {name} was not measured", w.name)));
            }
            result.per_layer.push((name, unit, value));
        }
        Ok((result, probe_json))
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The trace file of one traced run: the per-layer values, the probe
/// binary's own output, and every span the benchmark recorded.
pub fn trace_json(
    w: &WorkloadResult,
    seed: u64,
    quick: bool,
    probe_json: &str,
    rec: &Recorder,
) -> String {
    let layers: Vec<String> = w
        .per_layer
        .iter()
        .map(|(n, unit, v)| format!("    {}", metric_entry(n, *v, unit)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"per_layer\": {{\n{}\n  }},\n  \"probe\": {probe_json},\n  \"spans\": {}\n}}\n",
        json_str(&w.name),
        layers.join(",\n"),
        rec.to_json()
    )
}

/// The line the harness reads: one JSON object, last on stdout. An absent
/// per-layer value (a span this workload never opens) reads 0 here, because
/// every value must be a number; the report and the trace file keep `null`.
pub fn contract_line(w: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        w.per_layer.iter().map(|(n, unit, v)| metric_entry(n, v.or(Some(0.0)), unit)).collect()
    } else {
        w.end_to_end.iter().map(|m| metric_entry(&m.name, Some(m.value()), &m.unit)).collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.failed == 0,
        w.attempted,
        w.failed,
        metrics.join(", ")
    )
}
