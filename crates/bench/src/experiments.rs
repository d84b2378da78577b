//! The experiment table behind `fedmigr bench`: every table and figure of
//! the paper, its ablations and extensions, as one list of [`Entry`]s.
//!
//! An entry is data: a name (also the stem of `results/<name>.txt`), its
//! seed(s), the federation it trains on, and its parts. A section part is a
//! title, an edit to the standard [`RunConfig`], rows (a label plus an edit
//! each), one of three shapes — a table with named columns, a per-epoch
//! accuracy curve or a budget sweep — and the named checks its runs must
//! pass. Column and check names resolve in one vocabulary each, so every
//! cell format is written once. Three kinds of code stay plain functions
//! registered as parts: code that times code (Fig. 6), code that kills and
//! resumes runs (Fig. R's recovery) and code that aggregates over the
//! topology (Fig. 8). Runs are seeded: an entry prints the same tables on
//! every host, except Fig. 6's wall-clock columns. What each entry should
//! show, and what it measured, is in EXPERIMENTS.md under the entry's name.

use std::rc::Rc;
use std::time::Instant;

use fedmigr_compress::{Codec, CodecConfig, WireCodec};
use fedmigr_core::{
    Aggregator, DpConfig, EpochRecord, Experiment, FedMigrConfig, FleetExperiment, FleetOptions,
    MigrationPlan, MigrationStrategy, RunConfig, RunMetrics, Scheme,
};
use fedmigr_data::{partition_shards, SyntheticConfig, SyntheticDataset};
use fedmigr_drl::qp::FlmmRelaxation;
use fedmigr_drl::{AgentConfig, DdpgAgent, MigrationState};
use fedmigr_fleet::{plan_migrations, FleetPlannerConfig, LanProfile};
use fedmigr_net::{
    AttackConfig, ClientCompute, FaultConfig, LinkClass, ResourceBudget, Topology, TopologyConfig,
    TransportConfig,
};
use fedmigr_nn::zoo::{self, NetScale};

use crate::{
    all_schemes, build_experiment_with_samples, standard_config, Options, Partition, Scale,
    Workload,
};

/// The one entry that takes `--timeline-out`: it streams the round timeline
/// of its flow-transport run for `fedmigr netview`.
pub const TIMELINE_EXPERIMENT: &str = "fig8_link_speed";

/// Seeds Fig. R's fault schedules and its NaN adversary.
const FAULT_SEED: u64 = 17;

/// The federation a run trains on.
#[derive(Clone, Copy)]
struct Fed {
    workload: Workload,
    partition: Partition,
    /// Overrides the scale's training samples per class.
    per_class: Option<usize>,
}

const fn fed(workload: Workload, partition: Partition, per_class: Option<usize>) -> Fed {
    Fed { workload, partition, per_class }
}

const C10: Fed = fed(Workload::C10, Partition::Shards, None);

/// One run's inputs, which section and row edits change.
#[derive(Clone)]
struct Setup {
    fed: Fed,
    /// The configuration; its seed also seeds the federation.
    cfg: RunConfig,
}

impl Setup {
    fn experiment(&self, scale: Scale) -> Experiment {
        let Fed { workload, partition, per_class } = self.fed;
        build_experiment_with_samples(workload, partition, scale, self.cfg.seed, per_class)
    }

    fn run(&self, scale: Scale) -> RunMetrics {
        self.experiment(scale).run(&self.cfg)
    }
}

type Edit = Rc<dyn Fn(&mut Setup)>;

/// A table row: its label cells and the edit that makes its run.
#[derive(Clone)]
struct Row {
    label: Vec<String>,
    edit: Edit,
}

fn row(label: impl Into<String>, edit: impl Fn(&mut Setup) + 'static) -> Row {
    Row { label: vec![label.into()], edit: Rc::new(edit) }
}

/// One row per element of `list(seed)`, labelled by `label` and applied by
/// `set`. The list is rebuilt from each run's own seed, so a seeded element
/// (FedMigr's agent, a stochastic codec) follows the entry's seeds.
fn each<T: 'static>(
    list: impl Fn(u64) -> Vec<T> + Clone + 'static,
    label: impl Fn(&T) -> String,
    set: fn(&mut Setup, T),
) -> Vec<Row> {
    let labels: Vec<String> = list(0).iter().map(label).collect();
    let rows = labels.into_iter().enumerate().map(|(i, l)| {
        let list = list.clone();
        row(l, move |s| set(s, list(s.cfg.seed).swap_remove(i)))
    });
    rows.collect()
}

fn schemes(list: impl Fn(u64) -> Vec<Scheme> + Clone + 'static) -> Vec<Row> {
    each(list, Scheme::name, |s, scheme| s.cfg.scheme = scheme)
}

fn five() -> Vec<Row> {
    schemes(all_schemes)
}

/// Every row of `a` followed by every row of `b`, `a` outermost: labels
/// concatenate and edits apply in order.
fn cross(a: &[Row], b: &[Row]) -> Vec<Row> {
    let pair = |x: &Row, y: &Row| {
        let (f, g) = (x.edit.clone(), y.edit.clone());
        let edit: Edit = Rc::new(move |s| {
            f(s);
            g(s);
        });
        Row { label: [&x.label[..], &y.label[..]].concat(), edit }
    };
    a.iter().flat_map(|x| b.iter().map(move |y| pair(x, y))).collect()
}

/// The FedMigr knobs of a configuration whose scheme is FedMigr.
fn fm(cfg: &mut RunConfig) -> &mut FedMigrConfig {
    match &mut cfg.scheme {
        Scheme::FedMigr(fc) => fc,
        other => unreachable!("{} has no FedMigr knobs", other.name()),
    }
}

/// Runs `times` the scale's epochs or until `accuracy`, evaluating every 5.
fn to_target(scale: Scale, accuracy: f64, times: usize) -> impl Fn(&mut Setup) {
    move |s| {
        s.cfg.epochs = scale.epochs() * times;
        s.cfg.eval_interval = 5;
        s.cfg.target_accuracy = Some(accuracy);
    }
}

/// What a column or a check sees of one run.
struct View<'a> {
    /// The run's results.
    m: &'a RunMetrics,
    /// The run's inputs.
    s: &'a Setup,
    /// The first run of this run's group, which "relative to" columns
    /// compare against; the run itself when it leads the group.
    base: &'a RunMetrics,
    /// The run under each of the entry's seeds.
    seeds: &'a [RunMetrics],
}

fn pct(fraction: f64) -> String {
    format!("{:.1}", 100.0 * fraction)
}

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// The run's target accuracy; a run without one never reaches it.
fn target(v: &View) -> f64 {
    v.s.cfg.target_accuracy.unwrap_or(f64::INFINITY)
}

/// The record where the run first reached its target, else its last.
fn at_target<'a>(v: &View<'a>) -> &'a EpochRecord {
    let reached = v.m.records.iter().find(|r| r.test_accuracy.is_some_and(|a| a >= target(v)));
    reached.or(v.m.records.last()).expect("a run records every epoch")
}

fn gap(v: &View) -> f64 {
    v.base.final_accuracy() - v.m.final_accuracy()
}

/// `f` of the run under each seed, in seed order.
fn per_seed(v: &View, f: fn(&RunMetrics) -> String) -> String {
    v.seeds.iter().map(f).collect::<Vec<_>>().join(" / ")
}

type Cell = fn(&View) -> String;

/// The column vocabulary: a column's extractor by its name. Every cell
/// format is written once, here; where the tables spell a column several
/// ways, the spellings share an arm. Traffic and time are read where the
/// run first reached its target accuracy, else at its end.
fn column(name: &str) -> Option<Cell> {
    Some(match name {
        "final acc" => |v| format!("{:.4}", v.m.final_accuracy()),
        "final %" => |v| pct(v.m.final_accuracy()),
        "best %" | "best accuracy (%)" | "Best accuracy (%)" => |v| pct(v.m.best_accuracy()),
        "traffic (MB)" | "Traffic (MB)" | "wire MB" | "MB" => |v| mb(at_target(v).traffic.total()),
        "C2S (MB)" | "  of which C2S (MB)" => |v| mb(at_target(v).traffic.c2s),
        "time (s)" | "Time (s)" | "Completion Time (s)" | "s" => {
            |v| format!("{:.0}", at_target(v).sim_time)
        }
        "time (h)" => |v| format!("{:.2}", at_target(v).sim_time / 3600.0),
        "epochs run" | "rounds" => |v| v.m.epochs().to_string(),
        "budget hit" => |v| v.m.budget_exhausted.to_string(),
        "Reached" => |v| match v.m.target_reached {
            true => "yes".into(),
            false => format!("no (best {}%)", pct(v.m.best_accuracy())),
        },
        "Epochs to target" => |v| match v.m.epochs_to_accuracy(target(v)) {
            Some(epoch) => epoch.to_string(),
            None => format!("> {}", v.m.epochs()),
        },
        // Relative to the first run of the row's group.
        "retention" => {
            |v| format!("{:.2}", v.m.final_accuracy() / v.base.final_accuracy().max(1e-9))
        }
        "acc delta" => |v| format!("{:+.4}", v.m.final_accuracy() - v.base.final_accuracy()),
        "acc gap" => |v| format!("{:+.4}", gap(v)),
        // Fault, robustness, transport, compression and recovery counters.
        "drop-epochs" => |v| v.m.fault.client_drops.to_string(),
        "stale" => |v| v.m.fault.stale_client_epochs.to_string(),
        "retries" => |v| v.m.fault.transfer_retries.to_string(),
        "rerouted" => |v| v.m.fault.rerouted_migrations.to_string(),
        "cancelled" => |v| v.m.fault.cancelled_migrations.to_string(),
        "wasted (MB)" => |v| mb(v.m.fault.wasted_bytes),
        "rejected" => |v| v.m.robust.rejected_migrations.to_string(),
        "trimmed" => |v| v.m.robust.trimmed_clients.to_string(),
        "clipped" => |v| v.m.robust.clipped_norms.to_string(),
        "nan-up" => |v| v.m.robust.nan_uploads.to_string(),
        "nan-batch" => |v| v.m.robust.nan_batches.to_string(),
        "retransmits" => |v| v.m.transport_stats.retransmits.to_string(),
        "timeouts" => |v| v.m.transport_stats.timeouts.to_string(),
        "late" => |v| v.m.transport_stats.late_uploads.to_string(),
        "stale folded" => |v| v.m.transport_stats.stale_updates_folded.to_string(),
        "stale dropped" => |v| v.m.transport_stats.stale_updates_dropped.to_string(),
        "queue p99 (s)" => |v| format!("{:.3}", v.m.transport_stats.queue_delay_p99),
        "saved MB" => |v| mb(v.m.bytes_saved()),
        "ratio" => |v| format!("{:.2}x", v.m.compression.ratio()),
        "mean MSE" => |v| format!("{:.2e}", v.m.compression.mean_mse()),
        "rollbacks" => |v| v.m.recovery.rollbacks.to_string(),
        "replayed" => |v| v.m.recovery.rounds_replayed.to_string(),
        // Across the entry's seeds.
        "mean best accuracy (%)" => |v| {
            let total: f64 = v.seeds.iter().map(RunMetrics::best_accuracy).sum();
            format!("{:.1}", 100.0 * total / v.seeds.len() as f64)
        },
        "best (%) per seed" => |v| per_seed(v, |m| pct(m.best_accuracy())),
        "final (%) per seed" => |v| per_seed(v, |m| pct(m.final_accuracy())),
        "local moves per seed" => |v| per_seed(v, |m| m.migrations_local.to_string()),
        "global moves per seed" => |v| per_seed(v, |m| m.migrations_global.to_string()),
        _ => return None,
    })
}

type Check = fn(&View) -> bool;

/// The check vocabulary: the acceptance bars a section's runs must pass,
/// by name.
fn check(name: &str) -> Option<Check> {
    Some(match name {
        "runs every epoch" => |v| v.m.epochs() == v.s.cfg.epochs,
        "clean runs reject nothing" => |v| {
            let r = &v.m.robust;
            v.s.cfg.attack.fraction > 0.0 || (r.rejected_migrations == 0 && r.nan_uploads == 0)
        },
        // Every meter charge is a whole number of encoded models.
        "per-path bytes are whole encoded models" => |v| {
            let params = v.s.fed.workload.model(v.s.cfg.seed).num_params();
            let size = Codec::from_config(&v.s.cfg.codec).encoded_size(params);
            let t = v.m.traffic();
            [t.c2s, t.c2c_local, t.c2c_global].iter().all(|bytes| bytes % size == 0)
        },
        "identity saves nothing" => {
            |v| v.s.cfg.codec != CodecConfig::Identity || v.m.bytes_saved() == 0
        }
        "int8+ef within 2 points of identity at 3x or better" => |v| {
            v.s.cfg.codec != CodecConfig::int8()
                || (gap(v) <= 0.02 && v.m.compression.ratio() >= 3.0)
        },
        "stressed within 2 points of clean" => |v| gap(v) <= 0.02,
        "rollback fires" => |v| !v.s.cfg.watchdog.enabled || v.m.recovery.rollbacks >= 1,
        "rollback rounds stay finite" => {
            |v| !v.s.cfg.watchdog.enabled || v.m.records.iter().all(|r| r.train_loss.is_finite())
        }
        _ => return None,
    })
}

/// `Ok` when the named check holds, else the failure naming it and the row.
fn verdict(name: &str, holds: bool, row: &str) -> Result<(), String> {
    match holds {
        true => Ok(()),
        false => Err(format!("check {name:?} failed on row {row:?}")),
    }
}

/// How a section prints its runs.
#[derive(Default)]
enum Shape {
    /// One line per row: its label cells, then its run's named columns.
    /// With a pivot, the row runs once per pivot row (whose edit applies
    /// last), and a column's header is the pivot label, followed by the
    /// column's name when there are several columns.
    #[default]
    Table,
    /// Per-epoch test accuracy, one column per row (Figs. 3 and 4).
    Curve,
    /// Best accuracy within growing bandwidth budgets, then within growing
    /// completion-time budgets under this title (Fig. 9).
    Budgets(&'static str),
}

/// A titled set of runs and how they print.
#[derive(Default)]
struct Section {
    title: String,
    shape: Shape,
    /// Label headers, then column names, `" | "`-separated (tables only).
    head: &'static str,
    rows: Vec<Row>,
    /// Applied to the standard configuration before each row's edit.
    edit: Option<Edit>,
    pivot: Vec<Row>,
    /// Consecutive rows form groups of this size, each measured against its
    /// first row; 0 or 1 makes every row its own base.
    group: usize,
    /// Caps each run's bandwidth at this fraction of the traffic of the
    /// section's run without row edits.
    cap: Option<f64>,
    /// Names of the checks every run must pass, `" | "`-separated.
    checks: &'static str,
    /// Prose printed under the table.
    note: Option<String>,
}

type Code = fn(&Entry, &Options) -> Result<(), String>;

enum Part {
    Runs(Section),
    /// A registered function; `Err` is a failed check.
    Code(Code),
}

/// One experiment of the table.
pub struct Entry {
    /// The experiment's name, also the stem of its `results/<name>.txt`.
    pub name: &'static str,
    seeds: Vec<u64>,
    fed: Fed,
    parts: Vec<Part>,
}

fn entry(name: &'static str, seeds: &[u64], fed: Fed) -> Entry {
    Entry { name, seeds: seeds.to_vec(), fed, parts: Vec::new() }
}

impl Entry {
    /// The standard setup under `seed`, before any edit.
    fn setup(&self, scale: Scale, seed: u64) -> Setup {
        Setup { fed: self.fed, cfg: standard_config(Scheme::fedmigr(seed), scale, seed) }
    }

    fn section(mut self, title: &str, shape: Shape, head: &'static str, rows: Vec<Row>) -> Self {
        let title = title.to_string();
        self.parts.push(Part::Runs(Section { title, shape, head, rows, ..Section::default() }));
        self
    }

    fn table(self, title: &str, head: &'static str, rows: Vec<Row>) -> Self {
        self.section(title, Shape::Table, head, rows)
    }

    fn code(mut self, code: Code) -> Self {
        self.parts.push(Part::Code(code));
        self
    }

    /// Changes the last section.
    fn and(mut self, change: impl FnOnce(&mut Section)) -> Self {
        match self.parts.last_mut() {
            Some(Part::Runs(section)) => change(section),
            _ => unreachable!("{}: only a section takes options", self.name),
        }
        self
    }

    fn edit(self, edit: impl Fn(&mut Setup) + 'static) -> Self {
        self.and(|s| s.edit = Some(Rc::new(edit)))
    }

    /// Groups rows for "relative to" columns (see `Section::group`).
    fn relative(self, group: usize) -> Self {
        self.and(|s| s.group = group)
    }

    /// Names the checks every run must pass, `" | "`-separated.
    fn checks(self, names: &'static str) -> Self {
        self.and(|s| s.checks = names)
    }

    fn note(self, note: impl Into<String>) -> Self {
        self.and(|s| s.note = Some(note.into()))
    }
}

fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row from its `" | "`-separated cells, and the rule.
fn print_header(head: &str) {
    println!("| {head} |");
    println!("|{}|", vec!["---"; head.split(" | ").count()].join("|"));
}

/// Every entry's name, in table order.
pub fn names() -> Vec<&'static str> {
    table(Scale::Smoke).iter().map(|e| e.name).collect()
}

/// Runs the entry `opts.experiment` and prints its tables; `Err` names the
/// first failed check.
pub fn run(opts: &Options) -> Result<(), String> {
    let entries = table(opts.scale);
    let Some(e) = entries.iter().find(|e| e.name == opts.experiment) else {
        return Err(format!("unknown experiment {:?}", opts.experiment));
    };
    for (i, part) in e.parts.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match part {
            Part::Runs(section) => section.run(e, opts.scale)?,
            Part::Code(code) => code(e, opts)?,
        }
    }
    Ok(())
}

impl Section {
    fn setup(&self, e: &Entry, scale: Scale, seed: u64, edits: &[&Edit]) -> Setup {
        let mut s = e.setup(scale, seed);
        self.edit.iter().chain(edits.iter().copied()).for_each(|f| f(&mut s));
        s
    }

    fn run(&self, e: &Entry, scale: Scale) -> Result<(), String> {
        let seeds: Vec<String> = e.seeds.iter().map(u64::to_string).collect();
        match seeds.len() {
            1 => println!("# {}\n", self.title),
            _ => println!("# {} (seeds {})\n", self.title, seeds.join(", ")),
        }
        match self.shape {
            Shape::Table => self.table(e, scale)?,
            _ => self.sweep(e, scale),
        }
        if let Some(note) = &self.note {
            println!("\n{note}");
        }
        Ok(())
    }

    fn table(&self, e: &Entry, scale: Scale) -> Result<(), String> {
        let unit = [Row { label: Vec::new(), edit: Rc::new(|_| {}) }];
        let pivot = if self.pivot.is_empty() { &unit[..] } else { &self.pivot[..] };
        let names: Vec<&str> = self.head.split(" | ").collect();
        let (labels, columns) = names.split_at(self.rows[0].label.len());
        let mut head: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        let mut cells: Vec<Cell> = Vec::new();
        for p in pivot {
            for &name in columns {
                head.push(match (p.label.join(" "), columns.len()) {
                    (l, _) if l.is_empty() => name.to_string(),
                    (l, 1) => l,
                    (l, _) => format!("{l} {name}"),
                });
                cells.push(column(name).expect("the table names only known columns"));
            }
        }
        let checks: Vec<(&str, Check)> = (self.checks.split(" | "))
            .filter(|name| !name.is_empty())
            .map(|name| (name, check(name).expect("the table names only known checks")))
            .collect();
        print_header(&head.join(" | "));
        let cap = |seed| {
            let probe = self.cap.map(|_| self.setup(e, scale, seed, &[]).run(scale));
            probe.zip(self.cap).map(|(m, frac)| m.traffic().total() as f64 * frac)
        };
        let caps: Vec<Option<f64>> = e.seeds.iter().map(|&seed| cap(seed)).collect();
        // Every run so far in (row, pivot) order, each under every seed.
        let mut done: Vec<(Vec<Setup>, Vec<RunMetrics>)> = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let first = done.len();
            for p in pivot {
                let setups: Vec<Setup> = (e.seeds.iter().zip(&caps))
                    .map(|(&seed, cap)| {
                        let mut s = self.setup(e, scale, seed, &[&row.edit, &p.edit]);
                        if let Some(bytes) = *cap {
                            s.cfg.budget = ResourceBudget::bandwidth_only(bytes);
                        }
                        s
                    })
                    .collect();
                let runs = setups.iter().map(|s| s.run(scale)).collect();
                done.push((setups, runs));
            }
            let base = first - (i % self.group.max(1)) * pivot.len();
            let view = |j: usize, k: usize| View {
                m: &done[first + j].1[k],
                s: &done[first + j].0[k],
                base: &done[base + j].1[k],
                seeds: &done[first + j].1,
            };
            let mut line = row.label.clone();
            for (c, cell) in cells.iter().enumerate() {
                line.push(cell(&view(c / columns.len(), 0)));
            }
            print_row(&line);
            for (j, k) in (0..pivot.len()).flat_map(|j| (0..e.seeds.len()).map(move |k| (j, k))) {
                for (name, holds) in &checks {
                    verdict(name, holds(&view(j, k)), &row.label.join(" / "))?;
                }
            }
        }
        Ok(())
    }

    /// A curve or budget sweep: each row's run is a column.
    fn sweep(&self, e: &Entry, scale: Scale) {
        let setup = |r: &Row| self.setup(e, scale, e.seeds[0], &[&r.edit]);
        let runs: Vec<RunMetrics> = self.rows.iter().map(|r| setup(r).run(scale)).collect();
        let labels: Vec<String> = self.rows.iter().map(|r| r.label.join(" ")).collect();
        // A table whose lines are points: the x label, then each run's accuracy.
        let print = |x: &str, points: Vec<(String, Vec<Option<f64>>)>| {
            print_header(&format!("{x} | {}", labels.join(" | ")));
            for (at, accs) in points {
                let cells = accs.into_iter().map(|a| a.map(pct).unwrap_or_default());
                print_row(&std::iter::once(at).chain(cells).collect::<Vec<_>>());
            }
        };
        const FRACTIONS: [f64; 6] = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
        if let Shape::Budgets(time_title) = self.shape {
            let max_traffic = runs.iter().map(|m| m.traffic().total()).max().unwrap_or(0);
            let traffic = FRACTIONS.iter().map(|f| (max_traffic as f64 * f) as u64).map(|b| {
                let accs = runs.iter().map(|m| Some(m.accuracy_within_traffic(b))).collect();
                (format!("{:.1}", b as f64 / 1e6), accs)
            });
            print("budget (MB)", traffic.collect());
            println!("\n# {time_title}\n");
            let max_time = runs.iter().map(RunMetrics::sim_time).fold(0.0f64, f64::max);
            let time = FRACTIONS.iter().map(|f| max_time * f).map(|b| {
                let accs = runs.iter().map(|m| Some(m.accuracy_within_time(b))).collect();
                (format!("{b:.0} s"), accs)
            });
            print("budget (s)", time.collect());
            return;
        }
        let accuracy = |m: &RunMetrics, epoch| {
            m.records.iter().find(|r| r.epoch == epoch).and_then(|r| r.test_accuracy)
        };
        let evaluated = runs[0].records.iter().filter(|r| r.test_accuracy.is_some());
        let points = evaluated
            .map(|r| (r.epoch.to_string(), runs.iter().map(|m| accuracy(m, r.epoch)).collect()));
        print("epoch", points.collect());
        println!();
        for (label, m) in labels.iter().zip(&runs) {
            println!("{label:>11}: best accuracy {}%", pct(m.best_accuracy()));
        }
    }
}

/// The experiment table at `scale`.
fn table(scale: Scale) -> Vec<Entry> {
    let levels = |list: fn(u64) -> Vec<f64>, set: fn(&mut Setup, f64)| {
        each(list, |p| format!("{p:.1}"), set)
    };
    let dominant = |s: &mut Setup, p| s.fed.partition = Partition::Dominant(p);
    let fig11_target = if scale == Scale::Paper { 0.70 } else { 0.60 };
    vec![
        entry("table1_motivation", &[31], C10)
            .table(
                "Table I: completion time and traffic at target accuracy 70%",
                "Scheme | Completion Time (s) | Traffic (MB) | Reached",
                schemes(|seed| vec![Scheme::FedAvg, Scheme::fedmigr(seed)]),
            )
            .edit(to_target(scale, 0.70, 3)),
        entry("table2_accuracy", &[17], C10)
            .table(
                "Table II: test accuracy (%) under IID and non-IID settings",
                "Scheme | Workload | final %",
                [Workload::C10, Workload::C100, Workload::ResImageNet]
                    .into_iter()
                    .flat_map(|w| cross(&five(), &[row(w.name(), move |s| s.fed.workload = w)]))
                    .collect(),
            )
            .and(|s| {
                s.pivot = vec![
                    row("IID", |s| s.fed.partition = Partition::Iid),
                    row("non-IID", |s| s.fed.partition = Partition::Shards),
                ]
            }),
        entry("table3_resources", &[61], C10)
            .table(
                "Table III: traffic and time to reach 70% accuracy (non-IID)",
                "Scheme | Traffic (MB) |   of which C2S (MB) | Time (s) | Reached",
                five(),
            )
            .edit(to_target(scale, 0.70, 2)),
        entry("fig3_strategies", &[23], fed(Workload::AlexNetLite, Partition::LanShared, None))
            .section(
                "Fig. 3: accuracy under fixed migration strategies (LAN-shared data)",
                Shape::Curve,
                "",
                each(
                    |_| {
                        use MigrationStrategy::*;
                        vec![CrossLan, Random, WithinLan]
                    },
                    |m| m.name().to_string(),
                    |s, m| s.cfg.scheme = Scheme::Fixed(m),
                ),
            ),
        // Accuracy degrades slightly as ε shrinks. The paper's ε ∈ {∞, 150,
        // 100} is for multi-million-parameter CNNs; the Gaussian noise is per
        // coordinate, so these ~25k-parameter models need a larger ε for the
        // same noise-to-signal regime.
        entry("fig4_privacy", &[37], C10).section(
            "Fig. 4: FedMigr accuracy under LDP privacy budgets",
            Shape::Curve,
            "",
            std::iter::once(row("eps=inf", |_| {}))
                .chain(each(
                    |_| vec![5000.0, 3000.0],
                    |eps| format!("eps={eps}"),
                    |s, eps| s.cfg.dp = Some(DpConfig::with_epsilon(eps)),
                ))
                .collect(),
        ),
        entry("fig5_agg_freq", &[41], C10).table(
            "Fig. 5: FedMigr accuracy vs aggregation interval",
            "agg interval | migrations per iter | best accuracy (%)",
            [2usize, 5, 10, 20, 50, 100][..if scale == Scale::Paper { 6 } else { 5 }]
                .iter()
                .map(|&n| Row {
                    label: vec![format!("agg{n}"), (n - 1).to_string()],
                    edit: Rc::new(move |s| s.cfg.agg_interval = n),
                })
                .collect(),
        ),
        entry("fig6_scalability", &[7], C10)
            .code(scop_vs_drl)
            .code(planner_scaling)
            .code(fleet_end_to_end),
        entry("fig7_convergence", &[47], C10)
            .table(
                "Fig. 7: epochs to reach 70% accuracy (one-class-per-client non-IID)",
                "Scheme | Epochs to target | Best accuracy (%)",
                five(),
            )
            .edit(to_target(scale, 0.70, 2)),
        entry(TIMELINE_EXPERIMENT, &[53], C10).code(link_classes),
        entry("fig9_budgets", &[59], C10).section(
            "Fig. 9 (left): accuracy vs bandwidth budget",
            Shape::Budgets("Fig. 9 (right): accuracy vs completion-time budget"),
            "",
            five(),
        ),
        // Scarce data makes a high dominant p genuinely starve clients of
        // minority classes, as on the paper's test-bed.
        entry("fig10_c10", &[67], fed(Workload::C10, Partition::Iid, Some(48)))
            .table(
                "Fig. 10: accuracy vs non-IID level (C10-CNN)",
                "dominant p | best %",
                levels(|_| vec![0.1, 0.2, 0.4, 0.6, 0.8], dominant),
            )
            .and(|s| s.pivot = five()),
        // 100-class workloads need as many samples per class as clients for
        // the round-robin deal to reach every holder.
        entry("fig10_c100", &[67], fed(Workload::C100, Partition::Iid, Some(24)))
            .table(
                "Fig. 10: accuracy vs non-IID level (C100-CNN)",
                "missing frac | best %",
                levels(
                    |_| vec![0.0, 0.1, 0.2, 0.3, 0.4],
                    |s, p| s.fed.partition = Partition::MissingClasses(p),
                ),
            )
            .edit(move |s| s.cfg.epochs = scale.epochs() * 2 / 3)
            .and(|s| s.pivot = five()),
        entry("fig11_noniid", &[71], fed(Workload::C10, Partition::Iid, Some(48)))
            .table(
                &format!(
                    "Fig. 11: traffic (MB) and time (s) to {:.0}% vs non-IID level",
                    100.0 * fig11_target
                ),
                "dominant p | MB | s",
                levels(|_| vec![0.2, 0.4, 0.6, 0.8], dominant),
            )
            .edit(to_target(scale, fig11_target, 2))
            .and(|s| s.pivot = five()),
        entry("ablation_policy", &[17, 29, 43], C10).table(
            "Ablation: FedMigr oracle rate rho vs RandMigr",
            "policy | best (%) per seed | final (%) per seed | local moves per seed \
             | global moves per seed | mean best accuracy (%)",
            std::iter::once(row("RandMigr", |s| s.cfg.scheme = Scheme::RandMigr))
                .chain(each(
                    |_| vec![1.0, 0.7],
                    |r| format!("FedMigr r{r}"),
                    |s, r| fm(&mut s.cfg).rho = r,
                ))
                .collect(),
        ),
        entry("ablation_replay", &[17, 29, 43], C10).table(
            "Ablation: prioritized vs uniform experience replay",
            "replay | mean best accuracy (%)",
            vec![
                row("prioritized (xi=0.6)", |s| fm(&mut s.cfg).replay_xi = 0.6),
                row("uniform (xi=0)", |s| fm(&mut s.cfg).replay_xi = 0.0),
            ],
        ),
        // The bandwidth budget bites partway through the run.
        entry("ablation_reward", &[73], C10)
            .table(
                "Ablation: reward with vs without resource terms (Eq. 17)",
                "reward | best accuracy (%) | traffic (MB) | epochs run | budget hit",
                vec![
                    row("loss + resources", |s| fm(&mut s.cfg).resource_reward = true),
                    row("loss only", |s| fm(&mut s.cfg).resource_reward = false),
                ],
            )
            .and(|s| s.cap = Some(0.6)),
        entry("ext_async", &[79], C10).table(
            "Extension: asynchronous FL baseline under non-IID data",
            "Scheme | best accuracy (%) | traffic (MB) | C2S (MB) | time (s)",
            schemes(|seed| vec![Scheme::FedAvg, Scheme::fedasync(), Scheme::fedmigr(seed)]),
        ),
        fault_tolerance(),
        byzantine("figB_byzantine", scale, false),
        byzantine("figB_byzantine_ci", scale, true),
        compression("figC_compression", scale, false),
        compression("figC_compression_ci", scale, true),
    ]
}

/// Fig. R: every scheme under edge churn, on the flow transport clean and
/// stressed, killed and resumed, and against a NaN adversary with and
/// without the divergence watchdog.
fn fault_tolerance() -> Entry {
    entry("figR_fault_tolerance", &[61], C10)
        .table(
            "Fig. R: fault tolerance under edge churn (dropout sweep)",
            "scheme | dropout | final acc | drop-epochs | stale | retries | rerouted | cancelled \
             | wasted (MB) | time (h)",
            cross(
                &five(),
                &each(
                    |_| vec![0.0, 0.1, 0.3, 0.5],
                    |d| format!("{d:.1}"),
                    |s, d| {
                        s.cfg.fault = match d {
                            0.0 => FaultConfig::none(),
                            _ => FaultConfig::edge_churn(d, FAULT_SEED),
                        }
                    },
                ),
            ),
        )
        .checks("runs every epoch")
        .note(format!(
            "Fault schedule seed {FAULT_SEED}; dropout 0.0 rows run with the fault layer \
             disabled and must show all-zero fault counters."
        ))
        .table(
            "Flow transport: clean vs. network stress 0.3",
            "scheme | condition | final acc | acc gap | retransmits | timeouts | late \
             | stale folded | stale dropped | queue p99 (s) | time (h)",
            cross(
                &five(),
                &[
                    row("clean", |_| {}),
                    row("stress", |s| {
                        s.cfg.fault.seed = FAULT_SEED;
                        s.cfg.fault = s.cfg.fault.clone().with_network_stress(0.3);
                    }),
                ],
            ),
        )
        .edit(|s| s.cfg.transport = TransportConfig::flow(s.cfg.seed))
        .relative(2)
        .checks("runs every epoch | stressed within 2 points of clean")
        .note(format!(
            "Flow rows use --transport=flow (seed 61); stress rows add \
             with_network_stress(0.3) on fault seed {FAULT_SEED}. Late uploads are folded \
             with a staleness discount, never stalled on."
        ))
        .code(crash_recovery)
        .table(
            "Divergence watchdog: 30% NaN-injection adversary vs. plain FedAvg",
            "watchdog | final acc | rollbacks | replayed | rounds",
            vec![row("off", |_| {}), row("armed", |s| s.cfg.watchdog.enabled = true)],
        )
        .edit(|s| {
            s.cfg.scheme = Scheme::FedAvg;
            s.cfg.epochs = RECOVERY_EPOCHS;
            s.cfg.agg_interval = 1;
            s.cfg.attack = AttackConfig::nan_inject(0.3, FAULT_SEED);
        })
        .checks("runs every epoch | rollback fires | rollback rounds stay finite")
        .note(format!(
            "Recovery rows checkpoint every {CHECKPOINT_EVERY} rounds under 10% churn; the \
             resumed CSV is asserted byte-identical to the uninterrupted run. Watchdog rows pit \
             AttackConfig::nan_inject(0.3) against the plain FedAvg mean: unarmed, the first \
             poisoned aggregation wrecks the model; armed, the run rolls back, excludes the \
             sources and recovers."
        ))
}

/// Fig. B: sign-flip attackers vs aggregation rules, on the dominant-class
/// layout: under one-class shards a rule like Krum, which picks one
/// client's model, knows one class, and that would drown the attack signal.
/// `ci` is the reduced matrix at 40 epochs.
fn byzantine(name: &'static str, scale: Scale, ci: bool) -> Entry {
    let schemes = match ci {
        true => schemes(|_| vec![Scheme::FedAvg, Scheme::RandMigr]),
        false => schemes(|seed| vec![Scheme::FedAvg, Scheme::RandMigr, Scheme::fedmigr(seed)]),
    };
    let rules = each(
        move |_| match ci {
            true => vec![Aggregator::FedAvg, Aggregator::trimmed_mean(), Aggregator::krum(2)],
            false => vec![
                Aggregator::FedAvg,
                Aggregator::trimmed_mean(),
                Aggregator::CoordinateMedian,
                Aggregator::krum(2),
                Aggregator::multi_krum(2, 5),
                Aggregator::norm_clip(),
            ],
        },
        |a| a.name().to_string(),
        |s, a| s.cfg.aggregator = a,
    );
    let fractions = each(
        move |_| if ci { vec![0.0, 0.2] } else { vec![0.0, 0.2, 0.4] },
        |f| format!("{:.0}%", 100.0 * f),
        |s, f| {
            s.cfg.attack = match f {
                0.0 => AttackConfig::none(),
                _ => AttackConfig::sign_flip(f, 23),
            }
        },
    );
    let epochs = if ci { 40 } else { scale.epochs() };
    entry(name, &[61], fed(Workload::C10, Partition::Dominant(0.4), None))
        .table(
            "Fig. B: Byzantine sign-flip attack vs aggregation defenses",
            "scheme | aggregator | attackers | final acc | retention | rejected | trimmed \
             | clipped | nan-up | nan-batch",
            cross(&cross(&schemes, &rules), &fractions),
        )
        .edit(move |s| s.cfg.epochs = epochs)
        .relative(fractions.len())
        .checks("runs every epoch | clean runs reject nothing")
        .note(
            "Attack seed 23 (sign-flip); retention is final accuracy relative to the same \
             scheme x rule with 0% attackers. Robust rules trim honest outliers too, so \
             `trimmed` > 0 is expected even at 0%.",
        )
}

/// Fig. C: wire codecs vs schemes, on the dominant-class layout, which keeps
/// runs non-IID while leaving codec deltas of tenths of a point legible
/// above seed noise. `ci` is the reduced matrix at 40 epochs.
fn compression(name: &'static str, scale: Scale, ci: bool) -> Entry {
    let schemes = match ci {
        true => schemes(|_| vec![Scheme::FedAvg, Scheme::RandMigr]),
        false => five(),
    };
    let codecs = each(
        move |seed| match ci {
            true => vec![CodecConfig::Identity, CodecConfig::int8(), CodecConfig::topk_int8(0.25)],
            false => vec![
                CodecConfig::Identity,
                CodecConfig::int8(),
                CodecConfig::int8().without_feedback(),
                CodecConfig::int4(),
                CodecConfig::stochastic8(seed),
                CodecConfig::topk(0.25),
                CodecConfig::topk_int8(0.25),
            ],
        },
        CodecConfig::name,
        |s, c| s.cfg.codec = c,
    );
    let epochs = if ci { 40 } else { scale.epochs() };
    entry(name, &[71], fed(Workload::C10, Partition::Dominant(0.4), None))
        .table(
            "Fig. C: wire compression vs schemes (codec sweep)",
            "scheme | codec | final acc | acc delta | wire MB | saved MB | ratio | mean MSE",
            cross(&schemes, &codecs),
        )
        .edit(move |s| s.cfg.epochs = epochs)
        .relative(codecs.len())
        .checks(
            "runs every epoch | per-path bytes are whole encoded models | identity saves \
             nothing | int8+ef within 2 points of identity at 3x or better",
        )
        .note(
            "acc delta is final accuracy relative to the same scheme under the identity codec \
             (seed 71); ratio is uncompressed/compressed bytes per encode; saved MB is \
             cumulative wire bytes avoided. Every per-path byte total divided exactly by its \
             codec's encoded model size.",
        )
}

/// Rounds of the recovery and watchdog runs: the contracts are
/// length-independent and shorter runs keep the bench affordable.
const RECOVERY_EPOCHS: usize = 60;
const CHECKPOINT_EVERY: usize = 5;

/// Fig. R crash recovery: every scheme runs under 10% churn uninterrupted,
/// killed right after a checkpointed round, and resumed from the latest
/// snapshot; the resumed CSV must be byte-identical to the uninterrupted
/// one (DESIGN.md §14), and the table reports what that costs in snapshots.
fn crash_recovery(e: &Entry, opts: &Options) -> Result<(), String> {
    let kill_at = 25;
    let standard = e.setup(opts.scale, e.seeds[0]);
    let exp = standard.experiment(opts.scale);
    println!("# Crash recovery: kill at round {kill_at}, resume from latest snapshot\n");
    print_header("scheme | rounds | ckpts | snapshot (MB) | loaded | replayed | csv identical");
    for scheme in all_schemes(standard.cfg.seed) {
        let name = scheme.name();
        let mut cfg = RunConfig { scheme, epochs: RECOVERY_EPOCHS, ..standard.cfg.clone() };
        cfg.fault = FaultConfig::edge_churn(0.1, FAULT_SEED);
        let baseline = exp.run(&cfg);

        let dir = std::env::temp_dir().join(format!("figR-ck-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|err| format!("checkpoint dir: {err}"))?;
        cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        cfg.kill_at = Some(kill_at);
        let killed = exp.run(&cfg);
        verdict("kill truncates the run", killed.epochs() < RECOVERY_EPOCHS, &name)?;

        cfg.resume = Some(dir.join("latest.fmrs").to_string_lossy().into_owned());
        cfg.kill_at = None;
        let resumed = exp.run(&cfg);
        let _ = std::fs::remove_dir_all(&dir);
        let identical = baseline.to_csv() == resumed.to_csv();
        let (k, r) = (&killed.recovery, &resumed.recovery);
        print_row(&[
            name.clone(),
            resumed.epochs().to_string(),
            (k.checkpoints_written + r.checkpoints_written).to_string(),
            mb(k.checkpoint_bytes + r.checkpoint_bytes),
            r.checkpoints_loaded.to_string(),
            r.rounds_replayed.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        verdict("resumed CSV byte-identical", identical, &name)?;
    }
    Ok(())
}

/// Fig. 8: migrations per C2C link by speed class. FedMigr's λ-weighted cost
/// term makes the agent prefer fast links, so fast links carry the most
/// migrations per link and slow links the fewest. The appendix reruns the
/// experiment on the flow transport, where migration waves share links and
/// queue; `--timeline-out` streams that run's round timeline.
fn link_classes(e: &Entry, opts: &Options) -> Result<(), String> {
    let standard = e.setup(opts.scale, e.seeds[0]);
    let exp = standard.experiment(opts.scale);
    let (k, topo, mut cfg) = (exp.num_clients(), exp.topology(), standard.cfg);
    // Emphasize link awareness as in the paper's Fig. 8 experiment.
    fm(&mut cfg).lambda = 0.3;
    let m = exp.run(&cfg);
    let links = || (0..k).flat_map(|i| (0..k).map(move |j| (i, j))).filter(|(i, j)| i != j);
    // (migrations, links) per class: fast, moderate, slow.
    let by_class = |m: &RunMetrics| {
        let mut by_class = [(0u64, 0u64); 3];
        for (i, j) in links() {
            let class = match topo.link_class(i, j) {
                LinkClass::Fast => 0,
                LinkClass::Moderate => 1,
                LinkClass::Slow => 2,
            };
            by_class[class].0 += m.link_migrations[i * k + j] as u64;
            by_class[class].1 += 1;
        }
        by_class
    };
    let per_link = |(migr, links): (u64, u64)| format!("{:.2}", migr as f64 / links.max(1) as f64);
    const CLASSES: [&str; 3] = ["fast", "moderate", "slow"];

    println!("# Fig. 8: migration frequency by C2C link speed class\n");
    print_header("link class | links | migrations | migrations per link");
    for (name, (migr, n)) in CLASSES.iter().zip(by_class(&m)) {
        print_row(&[name.to_string(), n.to_string(), migr.to_string(), per_link((migr, n))]);
    }
    // Per-link detail for the 15 busiest links (the paper samples 15).
    let mut busiest: Vec<(usize, usize, u32)> =
        links().map(|(i, j)| (i, j, m.link_migrations[i * k + j])).collect();
    busiest.sort_by_key(|&(_, _, c)| std::cmp::Reverse(c));
    println!("\nBusiest 15 links:");
    print_header("link | class | migrations");
    for (i, j, c) in busiest.into_iter().take(15) {
        print_row(&[format!("{i}->{j}"), format!("{:?}", topo.link_class(i, j)), c.to_string()]);
    }

    // Under contention, completion times and with them the link cost the
    // agent sees depend on queueing; the shape must survive.
    cfg.transport = TransportConfig::flow(cfg.seed);
    cfg.diag.timeline_out = opts.timeline_out.clone();
    let mf = exp.run(&cfg);
    verdict("flow run completes", mf.epochs() == cfg.epochs, "flow")?;
    println!("\n# Appendix: same experiment under flow-transport contention\n");
    print_header("link class | lockstep migr/link | flow migr/link");
    for (name, (lock, flow)) in CLASSES.iter().zip(by_class(&m).into_iter().zip(by_class(&mf))) {
        print_row(&[name.to_string(), per_link(lock), per_link(flow)]);
    }
    let t = mf.transport_stats;
    println!(
        "\nlockstep time {:.1}s vs. flow time {:.1}s; {} flows ({} failed), \
         {} retransmits, queue delay p50 {:.3}s / p99 {:.3}s, link util {:.0}%",
        m.sim_time(),
        mf.sim_time(),
        t.flows,
        t.failed_flows,
        t.retransmits,
        t.queue_delay_p50,
        t.queue_delay_p99,
        t.mean_link_utilization * 100.0,
    );
    Ok(())
}

/// Mean wall-clock milliseconds of `reps` calls of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    (0..reps).for_each(|_| f());
    t0.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

/// Fig. 6: wall-clock time to produce one round's migration policy by
/// (a) solving the relaxed FLMM convex program (S-COP, mirror descent at
/// solver-grade iteration counts) vs (b) DRL inference (one actor forward
/// per client plus the greedy assignment), for 10 to 100 clients.
fn scop_vs_drl(_: &Entry, _: &Options) -> Result<(), String> {
    const REPS: usize = 20;
    println!("# Fig. 6: decision-making time vs number of clients\n");
    print_header("clients | S-COP (ms) | DRL inference (ms) | speedup");
    for k in [10usize, 20, 40, 60, 80, 100] {
        // A synthetic but structured instance: block distance pattern.
        let benefit: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                (0..k).map(|j| if i == j { 0.0 } else { ((i + j) % 7) as f64 / 3.5 }).collect()
            })
            .collect();
        let cost: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..k).map(|j| ((i * 31 + j * 17) % 10) as f64 / 10.0).collect())
            .collect();
        let relax = FlmmRelaxation { benefit: benefit.clone(), cost, lambda: 0.1, entropy: 0.05 };
        let scop_ms = time_ms(REPS, || {
            std::hint::black_box(FlmmRelaxation::round(&relax.solve(300, 0.2)));
        });

        let featurizer = MigrationState::new(k);
        let mut agent = DdpgAgent::new(AgentConfig::new(featurizer.dim(), k, 1));
        let states: Vec<Vec<f32>> =
            (0..k).map(|i| featurizer.build(0.5, 1.0, -0.01, 0.9, 0.9, &benefit[i])).collect();
        let drl_ms = time_ms(REPS, || {
            let probs = states.iter().map(|s| agent.action_probs(s));
            let scores: Vec<Vec<f64>> =
                probs.map(|p| p.iter().map(|&p| p as f64).collect()).collect();
            std::hint::black_box(MigrationPlan::greedy_assignment(&scores));
        });
        print_row(&[
            k.to_string(),
            format!("{scop_ms:.2}"),
            format!("{drl_ms:.2}"),
            format!("{:.1}x", scop_ms / drl_ms),
        ]);
    }
    Ok(())
}

/// Deterministic per-client label marginal over `classes` classes.
fn synth_marginal(i: usize, classes: usize) -> Vec<f32> {
    let mut m = vec![0.05f32; classes];
    m[i % classes] += 0.6;
    m[(i / classes) % classes] += 0.3;
    let sum: f32 = m.iter().sum();
    m.iter().map(|v| v / sum).collect()
}

/// Fig. 6 appendix: dense vs factored planner decision time over a growing
/// participant set, past the paper's axis. Dense materialises the full
/// `n × n` score matrix (as the dense runner's per-pair policy does) and
/// runs the greedy assignment; factored builds LAN profiles and plans over
/// hash-sampled top-M shortlists. Dense is capped at 2000 participants —
/// past that the quadratic cost is the point.
fn planner_scaling(_: &Entry, _: &Options) -> Result<(), String> {
    const CLASSES: usize = 10;
    const LANS: usize = 10;
    println!("# Fig. 6 appendix: migration-planner decision time vs participants\n");
    print_header("participants | dense O(n^2) (ms) | factored top-M (ms) | speedup");
    for k in [100usize, 500, 1000, 2000, 5000, 10_000, 50_000] {
        let marginals: Vec<Vec<f32>> = (0..k).map(|i| synth_marginal(i, CLASSES)).collect();
        let marg_refs: Vec<&[f32]> = marginals.iter().map(|m| m.as_slice()).collect();
        let lans: Vec<u32> = (0..k).map(|i| (i % LANS) as u32).collect();
        let desired: Vec<u32> = (0..k).map(|i| ((i * 7 + 3) % LANS) as u32).collect();
        let cost = |i: usize, j: usize| ((i * 31 + j * 17) % 10) as f64 / 10.0;
        let score = |i: usize, j: usize| {
            let d: f32 = marginals[i].iter().zip(&marginals[j]).map(|(a, b)| (a - b).abs()).sum();
            0.5 * d as f64 - 0.1 * cost(i, j)
        };

        let dense_ms = (k <= 2000).then(|| {
            time_ms((4_000_000 / (k * k)).clamp(1, 20), || {
                let scores: Vec<Vec<f64>> =
                    (0..k).map(|i| (0..k).map(|j| score(i, j)).collect()).collect();
                std::hint::black_box(MigrationPlan::greedy_assignment(&scores));
            })
        });
        let cfg = FleetPlannerConfig { top_m: 8, lambda: 0.1, seed: 7 };
        let mut epoch = 0;
        let factored_ms = time_ms((500_000 / k).clamp(3, 50), || {
            std::hint::black_box(LanProfile::build(&lans, &marg_refs, LANS, CLASSES));
            std::hint::black_box(plan_migrations(&cfg, epoch, &lans, &marg_refs, &desired, cost));
            epoch += 1;
        });
        print_row(&[
            k.to_string(),
            dense_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
            format!("{factored_ms:.2}"),
            dense_ms.map_or("-".into(), |ms| format!("{:.1}x", ms / factored_ms)),
        ]);
    }
    Ok(())
}

/// Fig. 6 appendix: end-to-end fleet rounds/sec and peak RSS vs `K`, next
/// to a dense 1000-client baseline: 4 rounds of FedMigr with 2-epoch
/// aggregation blocks and truncated local training. Rows run coldest-first
/// (fleet ascending, dense last) so each configuration's `VmHWM` reset
/// captures its own allocations rather than a predecessor's
/// freed-but-resident heap.
fn fleet_end_to_end(e: &Entry, _: &Options) -> Result<(), String> {
    const EPOCHS: usize = 4;
    let seed = e.seeds[0];
    let cfg = RunConfig {
        agg_interval: 2,
        eval_interval: EPOCHS,
        batch_size: 8,
        max_batches_per_epoch: Some(2),
        lr: 0.05,
        seed,
        ..RunConfig::new(Scheme::fedmigr(seed), EPOCHS)
    };
    let model = || zoo::c10_cnn(3, 8, NetScale::Small, seed);
    // Read once the run's experiment is dropped, which the time excludes.
    let row = |mode: &str, k: usize, cohort: usize, (rounds, secs): (usize, f64)| {
        let rss = fedmigr_telemetry::rss::peak_rss_bytes();
        let rss = rss.map_or("-".into(), |b| format!("{:.1}", b as f64 / 1e6));
        let rate = format!("{:.2}", rounds as f64 / secs);
        print_row(&[mode.into(), k.to_string(), cohort.to_string(), rate, rss]);
    };
    let timed = |t0: Instant, m: RunMetrics| (m.epochs(), t0.elapsed().as_secs_f64());
    println!("# Fig. 6 appendix: end-to-end fleet rounds/sec and peak RSS vs K\n");
    if !fedmigr_telemetry::rss::reset_peak_rss() {
        println!("(peak-RSS reset unavailable on this platform; RSS is a process-wide high-water mark)\n");
    }
    print_header("mode | K | cohort | rounds/sec | peak RSS (MB)");
    for k in [1000usize, 5000, 10_000] {
        fedmigr_telemetry::rss::reset_peak_rss();
        let fleet = Some(FleetOptions { sample_frac: 0.05, top_m: 8 });
        let t0 = Instant::now();
        let mut exp = FleetExperiment::synthetic(k, 10, 24, 8, seed, model());
        let point = timed(t0, exp.run(&RunConfig { fleet, ..cfg.clone() }));
        drop(exp);
        row("fleet", k, (k as f64 * 0.05) as usize, point);
    }
    // Dense baseline: every client materialised, full K x K topology.
    let k = 1000;
    fedmigr_telemetry::rss::reset_peak_rss();
    let t0 = Instant::now();
    let data = SyntheticDataset::generate(&SyntheticConfig::c10_like(24 * k / 10, seed));
    let parts = partition_shards(&data.train, k, 1, seed);
    let topo = Topology::new(&TopologyConfig::default_edge(vec![k / 10; 10], seed));
    let compute = ClientCompute::testbed_mix(k);
    let exp = Experiment::new(data.train, data.test, parts, topo, compute, model());
    let point = timed(t0, exp.run(&cfg));
    drop(exp);
    row("dense", k, k, point);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate entry name in {names:?}");
    }

    #[test]
    fn the_table_and_results_cannot_drift_apart() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("results/ exists")
            .map(|f| f.expect("readable entry").file_name().to_string_lossy().into_owned())
            .filter_map(|f| f.strip_suffix(".txt").map(String::from))
            .collect();
        files.sort_unstable();
        let mut entries: Vec<String> =
            names().into_iter().filter(|n| !n.ends_with("_ci")).map(String::from).collect();
        entries.sort_unstable();
        assert_eq!(entries, files, "every non-_ci entry has results/<name>.txt and vice versa");
    }

    #[test]
    fn every_column_and_check_name_resolves() {
        for e in [Scale::Smoke, Scale::Paper].into_iter().flat_map(table) {
            for part in &e.parts {
                let Part::Runs(s) = part else { continue };
                if matches!(s.shape, Shape::Table) {
                    for name in s.head.split(" | ").skip(s.rows[0].label.len()) {
                        assert!(column(name).is_some(), "{}: unknown column {name:?}", e.name);
                    }
                }
                for name in s.checks.split(" | ").filter(|c| !c.is_empty()) {
                    assert!(check(name).is_some(), "{}: unknown check {name:?}", e.name);
                }
            }
        }
    }
}
