//! The result of one `fedbench` invocation: the JSON written by `--out`,
//! read back by `fedbench compare`, and the table printed for people.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fedmigr_telemetry::trace::{json_num, json_str, JsonValue};

use crate::spec::Better;
use crate::stats::Summary;

/// Bumped when the layout below changes; `compare` refuses other versions.
pub const REPORT_VERSION: u32 = 1;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricResult {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
    /// Over the timed trials for a timing metric. A virtual-clock metric is
    /// the mean over the seeds, known exactly: [`Summary::exact`].
    pub summary: Summary,
}

impl MetricResult {
    /// The headline: the median of the trials, or the exact value.
    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Child processes whose outcome was checked, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Empty when the invocation ran `--trace 1` only.
    pub end_to_end: Vec<MetricResult>,
    /// CSV digest per child seed: two commits that differ only in host speed
    /// agree on all of them.
    pub csv_digests: BTreeMap<u64, String>,
    /// Empty when the invocation ran `--trace 0` only. `None`: the span or
    /// counter does not exist on this workload.
    pub per_layer: Vec<(String, &'static str, Option<f64>)>,
}

impl WorkloadResult {
    /// Counts one checked outcome.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// `--quick` results are for the harness's own tests; `compare` refuses them.
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    /// `available_parallelism` of the host: every child used this many threads.
    pub threads: usize,
    pub workloads: Vec<WorkloadResult>,
}

/// `"name": {"value": …, "unit": "…"}`, as every output of the benchmark
/// writes a metric; an absent value is `null`.
pub fn metric_entry(name: &str, value: Option<f64>, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        value.map_or("null".to_string(), json_num),
        json_str(unit)
    )
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"fedbench\": {REPORT_VERSION},\n  \"quick\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"threads\": {},\n  \"workloads\": {{",
            self.quick,
            self.seed,
            json_num(self.seconds),
            self.threads
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\n      \"attempted\": {},\n      \"failed\": {},\n      \"failed_share\": {},\n      \"failures\": [{}],\n      \"end_to_end\": {{",
                json_str(&w.name),
                w.attempted,
                w.failed,
                json_num(w.failed_share()),
                w.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
            );
            for (j, m) in w.end_to_end.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let s = &m.summary;
                let _ = write!(
                    out,
                    "{sep}\n        {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}}}",
                    json_str(&m.name),
                    json_num(m.value()),
                    json_str(&m.unit),
                    json_str(m.better.as_str()),
                    json_num(m.bound),
                    s.n,
                    json_num(s.min),
                    json_num(s.q1),
                    json_num(s.q3),
                    json_num(s.max),
                );
            }
            out.push_str("\n      },\n      \"csv_digests\": {");
            let digests: Vec<String> = w
                .csv_digests
                .iter()
                .map(|(seed, d)| format!("\"{seed}\": {}", json_str(d)))
                .collect();
            out.push_str(&digests.join(", "));
            out.push_str("},\n      \"per_layer\": {");
            for (j, (name, unit, value)) in w.per_layer.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n        {}", metric_entry(name, *value, unit));
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Every metric by name and unit, one workload after another.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fedbench: seed {}, {} s per workload, {} threads per child{}",
            self.seed,
            self.seconds,
            self.threads,
            if self.quick { " [QUICK: not comparable]" } else { "" }
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} — {} of {} checked runs failed (failed_share {:.3})",
                w.name,
                w.failed,
                w.attempted,
                w.failed_share()
            );
            for f in &w.failures {
                let _ = writeln!(out, "   FAILED: {f}");
            }
            if !w.end_to_end.is_empty() {
                let _ = writeln!(
                    out,
                    "   {:<18} {:>12} {:<9} {:>12} {:>12} {:>12} {:>3}  better  bound",
                    "end-to-end", "value", "unit", "q1", "q3", "min", "n"
                );
            }
            for m in &w.end_to_end {
                let s = &m.summary;
                let _ = writeln!(
                    out,
                    "   {:<18} {:>12.4} {:<9} {:>12.4} {:>12.4} {:>12.4} {:>3}  {:<6}  {:.0}%",
                    m.name,
                    m.value(),
                    m.unit,
                    s.q1,
                    s.q3,
                    s.min,
                    s.n,
                    m.better.as_str(),
                    100.0 * m.bound
                );
            }
            if !w.csv_digests.is_empty() {
                let digests: Vec<String> =
                    w.csv_digests.iter().map(|(seed, d)| format!("{seed}:{d}")).collect();
                let _ = writeln!(out, "   csv digests        {}", digests.join(" "));
            }
            if !w.per_layer.is_empty() {
                let _ = writeln!(out, "   {:<30} {:>14} unit", "per-layer", "value");
            }
            for (name, unit, value) in &w.per_layer {
                let value = value.map_or("absent".to_string(), |v| format!("{v:.4}"));
                let _ = writeln!(out, "   {name:<30} {value:>14} {unit}");
            }
        }
        out
    }

    /// Reads back the parts of [`Report::to_json`] that `compare` needs:
    /// everything except the failure texts and the per-layer metrics.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = JsonValue::parse(text)?;
        let doc = doc.as_object().ok_or("report: not a JSON object")?;
        let num = |obj: &BTreeMap<String, JsonValue>, key: &str| {
            obj.get(key).and_then(JsonValue::as_f64).ok_or(format!("report: no number {key:?}"))
        };
        let text_of = |obj: &BTreeMap<String, JsonValue>, key: &str| {
            obj.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("report: no string {key:?}"))
        };
        let object = |obj: &BTreeMap<String, JsonValue>, key: &str| {
            obj.get(key)
                .and_then(JsonValue::as_object)
                .cloned()
                .ok_or(format!("report: no object {key:?}"))
        };
        let version = num(doc, "fedbench")?;
        if version != f64::from(REPORT_VERSION) {
            return Err(format!("report: version {version}, this fedbench reads {REPORT_VERSION}"));
        }
        let mut workloads = Vec::new();
        for (name, w) in object(doc, "workloads")? {
            let w = w.as_object().ok_or("report: workload is not an object")?;
            let mut end_to_end = Vec::new();
            for (metric, m) in object(w, "end_to_end")? {
                let m = m.as_object().ok_or("report: metric is not an object")?;
                end_to_end.push(MetricResult {
                    name: metric,
                    unit: text_of(m, "unit")?,
                    better: match text_of(m, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("report: better {other:?}")),
                    },
                    bound: num(m, "bound")?,
                    summary: Summary {
                        n: num(m, "n")? as usize,
                        min: num(m, "min")?,
                        q1: num(m, "q1")?,
                        median: num(m, "value")?,
                        q3: num(m, "q3")?,
                        max: num(m, "max")?,
                    },
                });
            }
            let mut csv_digests = BTreeMap::new();
            for (seed, digest) in object(w, "csv_digests")? {
                let seed = seed.parse::<u64>().map_err(|_| format!("report: seed {seed:?}"))?;
                csv_digests.insert(
                    seed,
                    digest.as_str().ok_or("report: digest is not a string")?.to_string(),
                );
            }
            workloads.push(WorkloadResult {
                name,
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                failures: Vec::new(),
                end_to_end,
                csv_digests,
                per_layer: Vec::new(),
            });
        }
        Ok(Report {
            quick: matches!(doc.get("quick"), Some(JsonValue::Bool(true))),
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            threads: num(doc, "threads")? as usize,
            workloads,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn metric(name: &str, better: Better, bound: f64, values: &[f64]) -> MetricResult {
        let summary = Summary::of(values).unwrap();
        MetricResult { name: name.into(), unit: "u".into(), better, bound, summary }
    }

    pub(crate) fn report(quick: bool, workloads: Vec<WorkloadResult>) -> Report {
        Report { quick, seed: 7, seconds: 20.0, threads: 2, workloads }
    }

    #[test]
    fn json_round_trips_what_compare_reads() {
        let w = WorkloadResult {
            name: "dense_train".into(),
            attempted: 9,
            failed: 1,
            failures: vec!["trial 3: exit code 101 \"quoted\"".into()],
            end_to_end: vec![
                metric("cpu_ms_per_round", Better::Lower, 0.1, &[70.0, 72.5, 71.0]),
                metric("rounds_per_s", Better::Higher, 0.1, &[19.5, 20.25]),
            ],
            csv_digests: BTreeMap::from([(7, "00ff".to_string()), (8, "abcd".to_string())]),
            per_layer: vec![
                ("phase.cover".into(), "fraction", Some(0.99)),
                ("phase.retire_share".into(), "fraction", None),
            ],
        };
        let r = report(false, vec![w.clone()]);
        let json = r.to_json();
        assert!(json.contains("\"phase.retire_share\": {\"value\": null"));
        assert!(json.contains("\"failed_share\": 0.1111111111111111"));
        let back = Report::parse(&json).unwrap();
        let expect = WorkloadResult { failures: Vec::new(), per_layer: Vec::new(), ..w };
        assert_eq!(back, report(false, vec![expect]));
        assert!(Report::parse(&report(true, Vec::new()).to_json()).unwrap().quick);
    }

    #[test]
    fn foreign_documents_are_refused() {
        assert!(Report::parse("[]").is_err());
        assert!(Report::parse("{\"fedbench\": 99.0}").unwrap_err().contains("version"));
        assert!(Report::parse("{\"version\": 1.0, \"benchmarks\": []}").is_err());
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let w = WorkloadResult {
            name: "fleet_sparse".into(),
            attempted: 4,
            end_to_end: vec![metric("peak_rss_mb", Better::Lower, 0.1, &[80.0, 82.0, 81.0])],
            per_layer: vec![("phase.retire_share".into(), "fraction", None)],
            ..WorkloadResult::default()
        };
        let table = report(true, vec![w]).to_table();
        assert!(table.contains("QUICK"));
        assert!(table.contains("peak_rss_mb") && table.contains("81.0000 u"));
        assert!(table.contains("phase.retire_share") && table.contains("absent fraction"));
    }
}
