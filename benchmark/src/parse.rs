//! Readers for what the `fedmigr` CLI already writes: the per-epoch CSV,
//! the span trace (JSONL) and the Prometheus-style metrics dump. Nothing
//! here adds to those outputs; a later change to their shape must fail
//! loudly here rather than yield silent zeros.

use std::collections::BTreeMap;

use fedmigr_telemetry::TraceEvent;

/// What the benchmark reads from one run's `--csv`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvSummary {
    /// Data rows, i.e. epochs the run completed.
    pub epochs: usize,
    /// FNV-1a 64 of the file's bytes, hex: equal digests mean equal curves.
    pub digest: String,
    /// Last non-empty `test_accuracy`.
    pub final_acc: Option<f64>,
    /// Whether every `train_loss` is finite.
    pub loss_finite: bool,
    // Cumulative columns, read from the last row.
    pub sim_time_s: f64,
    pub c2s_bytes: f64,
    pub c2c_bytes: f64,
    pub bytes_saved: f64,
    pub retransmits: f64,
    pub late_uploads: f64,
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Parses a `RunMetrics::to_csv` document. Columns are found by header name,
/// so added or reordered columns are fine and a removed one is an error.
pub fn parse_csv(text: &str) -> Result<CsvSummary, String> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().ok_or("csv: empty file")?.split(',').collect();
    let col = |name: &str| {
        header.iter().position(|h| *h == name).ok_or_else(|| format!("csv: no column {name:?}"))
    };
    let (loss, acc) = (col("train_loss")?, col("test_accuracy")?);
    let last_cols = [
        col("sim_time_s")?,
        col("c2s_bytes")?,
        col("c2c_local_bytes")?,
        col("c2c_global_bytes")?,
        col("bytes_saved")?,
        col("retransmits")?,
        col("late_uploads")?,
    ];
    let mut epochs = 0;
    let mut final_acc = None;
    let mut loss_finite = true;
    let mut last = [0.0f64; 7];
    for (row, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != header.len() {
            return Err(format!(
                "csv: row {} has {} cells, header {}",
                row + 1,
                cells.len(),
                header.len()
            ));
        }
        let num = |c: usize| {
            cells[c].parse::<f64>().map_err(|_| {
                format!("csv: row {} column {:?}: bad number {:?}", row + 1, header[c], cells[c])
            })
        };
        loss_finite &= num(loss)?.is_finite();
        if !cells[acc].is_empty() {
            final_acc = Some(num(acc)?);
        }
        for (slot, &c) in last.iter_mut().zip(&last_cols) {
            *slot = num(c)?;
        }
        epochs += 1;
    }
    if epochs == 0 {
        return Err("csv: no data rows".into());
    }
    Ok(CsvSummary {
        epochs,
        digest: format!("{:016x}", fnv1a64(text.as_bytes())),
        final_acc,
        loss_finite,
        sim_time_s: last[0],
        c2s_bytes: last[1],
        c2c_bytes: last[2] + last[3],
        bytes_saved: last[4],
        retransmits: last[5],
        late_uploads: last[6],
    })
}

/// Where the wall time of a traced run's rounds went, from its span JSONL.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    /// Duration of each `round` span, seconds, in order.
    pub rounds: Vec<f64>,
    /// Self time per span name below `round` (its duration minus the part
    /// its own children cover), summed over the run. A span the run never
    /// opened has no entry.
    pub self_time: BTreeMap<String, f64>,
    /// Summed duration of the spans directly below `round`.
    pub covered: f64,
}

impl PhaseProfile {
    pub fn round_total(&self) -> f64 {
        self.rounds.iter().sum()
    }

    /// Self time of `span` over summed round time; `None` when the run never
    /// opened that span (absent is not the same as zero).
    pub fn share(&self, span: &str) -> Option<f64> {
        self.self_time.get(span).map(|t| t / self.round_total())
    }

    /// Share of round time that the spans directly below `round` account for.
    pub fn cover(&self) -> f64 {
        self.covered / self.round_total()
    }
}

/// Reads a `--trace-out` stream. Spans are written when they close, so a
/// parent follows its children; `depth` says how they nest. Log lines are
/// skipped.
pub fn parse_spans(text: &str) -> Result<PhaseProfile, String> {
    let mut profile = PhaseProfile::default();
    // child_time[d]: duration of depth-d spans closed since their parent opened.
    let mut child_time: Vec<f64> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let TraceEvent::Span { dur, name, depth, .. } =
            TraceEvent::parse(line).map_err(|e| format!("trace line {}: {e}", n + 1))?
        else {
            continue;
        };
        if child_time.len() < depth + 2 {
            child_time.resize(depth + 2, 0.0);
        }
        let children = std::mem::take(&mut child_time[depth + 1]);
        child_time[depth] += dur;
        if depth == 0 {
            if name != "round" {
                return Err(format!(
                    "trace line {}: top-level span {name:?}, expected \"round\"",
                    n + 1
                ));
            }
            profile.rounds.push(dur);
            profile.covered += children;
            child_time[0] = 0.0;
        } else {
            *profile.self_time.entry(name).or_default() += (dur - children).max(0.0);
        }
    }
    if profile.rounds.is_empty() {
        return Err("trace: no round spans".into());
    }
    Ok(profile)
}

/// One sample of a Prometheus text dump.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: BTreeMap<String, String>,
    pub value: f64,
}

/// Parses the text exposition format as `render_metrics` writes it:
/// `name{k="v",…} value`, comments starting with `#`. Label values are read
/// up to the closing quote; the program writes none with escapes.
pub fn parse_prom(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("metrics line {}: cannot parse {line:?}", n + 1);
        let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse::<f64>().map_err(|_| bad())?,
        };
        let (name, labels) = match series.split_once('{') {
            None => (series, BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(bad)?;
                let mut labels = BTreeMap::new();
                let mut rest = body;
                while !rest.is_empty() {
                    let (key, tail) = rest.split_once("=\"").ok_or_else(bad)?;
                    let (val, tail) = tail.split_once('"').ok_or_else(bad)?;
                    labels.insert(key.to_string(), val.to_string());
                    rest = tail.strip_prefix(',').unwrap_or(tail);
                }
                (name, labels)
            }
        };
        out.push(PromSample { name: name.to_string(), labels, value });
    }
    Ok(out)
}

/// Kernel totals of one run, from its `fedmigr_kernel_*_total` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTotals {
    pub flops: f64,
    pub bytes: f64,
    pub nanos: f64,
    pub matmul_flops: f64,
    pub matmul_nanos: f64,
    /// Nanoseconds in the zero-FLOP layout kernels: transpose, im2col, col2im.
    pub layout_nanos: f64,
}

pub fn kernel_totals(samples: &[PromSample]) -> KernelTotals {
    let mut t = KernelTotals::default();
    for s in samples {
        let kernel = s.labels.get("kernel").map(String::as_str).unwrap_or("");
        match s.name.as_str() {
            "fedmigr_kernel_flops_total" => {
                t.flops += s.value;
                if kernel == "matmul" {
                    t.matmul_flops += s.value;
                }
            }
            "fedmigr_kernel_bytes_total" => t.bytes += s.value,
            "fedmigr_kernel_nanos_total" => {
                t.nanos += s.value;
                match kernel {
                    "matmul" => t.matmul_nanos += s.value,
                    "transpose" | "im2col" | "col2im" => t.layout_nanos += s.value,
                    _ => {}
                }
            }
            _ => {}
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "\
epoch,train_loss,test_accuracy,c2s_bytes,c2c_local_bytes,c2c_global_bytes,sim_time_s,dropped_clients,stale_clients,rejected_migrations,bytes_saved,train_time_s,c2s_time_s,migration_time_s,backoff_time_s,retransmits,late_uploads
1,2.302585,,0,100,20,0.153,0,0,0,10,0.133,0.000,0.020,0.000,1,0
2,2.250000,0.250000,345360,200,40,0.306,0,0,0,20,0.267,0.019,0.020,0.000,3,1
3,2.100000,,345360,300,60,0.459,0,0,0,30,0.400,0.019,0.040,0.000,7,1
";

    #[test]
    fn csv_reads_the_last_row_and_the_last_evaluation() {
        let s = parse_csv(CSV).unwrap();
        assert_eq!(s.epochs, 3);
        assert_eq!(s.final_acc, Some(0.25));
        assert!(s.loss_finite);
        assert_eq!((s.sim_time_s, s.c2s_bytes, s.c2c_bytes), (0.459, 345360.0, 360.0));
        assert_eq!((s.bytes_saved, s.retransmits, s.late_uploads), (30.0, 7.0, 1.0));
    }

    #[test]
    fn csv_digest_tracks_every_byte() {
        assert_eq!(format!("{:016x}", fnv1a64(b"")), "cbf29ce484222325");
        assert_eq!(format!("{:016x}", fnv1a64(b"a")), "af63dc4c8601ec8c");
        let a = parse_csv(CSV).unwrap();
        assert_eq!(a.digest, parse_csv(CSV).unwrap().digest);
        assert_eq!(a.digest.len(), 16);
        let b = parse_csv(&CSV.replace("0.459", "0.460")).unwrap();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn csv_flags_non_finite_loss_and_rejects_malformed_input() {
        assert!(!parse_csv(&CSV.replace("2.250000", "NaN")).unwrap().loss_finite);
        assert!(!parse_csv(&CSV.replace("2.100000", "inf")).unwrap().loss_finite);
        assert!(parse_csv("").is_err());
        assert!(parse_csv(CSV.lines().next().unwrap()).unwrap_err().contains("no data rows"));
        assert!(parse_csv(&CSV.replace("sim_time_s", "clock")).unwrap_err().contains("sim_time_s"));
        assert!(parse_csv(&CSV.replace("3,2.100000,,", "3,2.100000,")).is_err());
        assert!(parse_csv(&CSV.replace("0.306", "fast")).is_err());
    }

    fn span(name: &str, depth: usize, ts: f64, dur: f64) -> String {
        format!("{{\"kind\":\"span\",\"ts\":{ts},\"dur\":{dur},\"target\":\"t\",\"name\":\"{name}\",\"depth\":{depth}}}")
    }

    #[test]
    fn spans_give_self_time_cover_and_missing_spans() {
        let text = [
            "{\"kind\":\"log\",\"ts\":0.0,\"level\":\"info\",\"target\":\"cli\",\"msg\":\"go\"}"
                .to_string(),
            // Round 1: 10 s; local_train 6, communicate 3 of which migration_transfer 2.
            span("local_train", 1, 0.0, 6.0),
            span("migration_transfer", 2, 6.5, 2.0),
            span("communicate", 1, 6.0, 3.0),
            span("round", 0, 0.0, 10.0),
            // Round 2: 10 s; local_train 5, agent_update 1 wholly inside update.
            span("local_train", 1, 10.0, 5.0),
            span("update", 2, 15.0, 1.0),
            span("agent_update", 1, 15.0, 1.0),
            span("round", 0, 10.0, 10.0),
        ]
        .join("\n");
        let p = parse_spans(&text).unwrap();
        assert_eq!(p.rounds, vec![10.0, 10.0]);
        assert_eq!(p.share("local_train"), Some(0.55));
        assert_eq!(p.share("communicate"), Some(0.05));
        assert_eq!(p.share("migration_transfer"), Some(0.1));
        assert_eq!(p.share("update"), Some(0.05));
        assert_eq!(p.share("agent_update"), Some(0.0));
        assert_eq!(p.share("cohort_activate"), None);
        assert_eq!(p.cover(), 0.75);
    }

    #[test]
    fn spans_reject_garbage_and_roundless_traces() {
        assert!(parse_spans("").is_err());
        assert!(parse_spans(&span("local_train", 1, 0.0, 1.0)).unwrap_err().contains("no round"));
        assert!(parse_spans("{\"kind\":\"span\"").is_err());
        assert!(parse_spans(&span("epoch", 0, 0.0, 1.0)).unwrap_err().contains("expected"));
    }

    const PROM: &str = "\
# TYPE fedmigr_kernel_flops_total counter
fedmigr_kernel_flops_total{kernel=\"matmul\",phase=\"local_train\"} 3000000000
fedmigr_kernel_flops_total{kernel=\"col2im\",phase=\"local_train\"} 1000000000
# TYPE fedmigr_kernel_bytes_total counter
fedmigr_kernel_bytes_total{kernel=\"transpose\",phase=\"local_train\"} 5000
# TYPE fedmigr_kernel_nanos_total counter
fedmigr_kernel_nanos_total{kernel=\"matmul\",phase=\"local_train\"} 600
fedmigr_kernel_nanos_total{kernel=\"transpose\",phase=\"evaluate\"} 250
fedmigr_kernel_nanos_total{kernel=\"im2col\",phase=\"local_train\"} 100
fedmigr_kernel_nanos_total{kernel=\"col2im\",phase=\"local_train\"} 50
# TYPE fedmigr_peak_rss_bytes gauge
fedmigr_peak_rss_bytes 79626240.0
fedmigr_codec_transfer_seconds_bucket{codec=\"top25%+int8+ef\",le=\"+Inf\"} 302
";

    #[test]
    fn prom_parses_labels_and_sums_kernels() {
        let samples = parse_prom(PROM).unwrap();
        assert_eq!(samples.len(), 9);
        assert_eq!(samples[0].labels["kernel"], "matmul");
        assert_eq!(samples[7].labels.len(), 0);
        assert_eq!(samples[8].labels["codec"], "top25%+int8+ef");
        let k = kernel_totals(&samples);
        assert_eq!((k.flops, k.bytes, k.nanos), (4e9, 5000.0, 1000.0));
        assert_eq!((k.matmul_flops, k.matmul_nanos, k.layout_nanos), (3e9, 600.0, 400.0));
    }

    #[test]
    fn prom_without_kernel_counters_sums_to_zero_and_garbage_is_an_error() {
        let k =
            kernel_totals(&parse_prom("# TYPE x counter\nfedmigr_drl_updates_total 7\n").unwrap());
        assert_eq!(k, KernelTotals::default());
        assert!(parse_prom("fedmigr_x{a=\"b\" 1").is_err());
        assert!(parse_prom("fedmigr_x one").is_err());
        assert!(parse_prom("fedmigr_x").is_err());
    }
}
