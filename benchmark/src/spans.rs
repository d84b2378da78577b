//! The benchmark's own spans: one around every child process and every
//! probe call, kept in memory and written out once, at exit. They are
//! recorded from the benchmark's files only; the spans the program itself
//! emits are read by [`crate::parse`], not extended.

use std::time::Instant;

use fedmigr_telemetry::trace::{json_num, json_str, JsonValue};

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// What the span belongs to: a trial (`trial/3`), the probe process, ….
    /// Spans of one unit of work share it.
    pub run: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start_s: f64,
    pub end_s: f64,
}

/// An append-only list of spans; a span's id is its index.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &str, run: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.into(),
            run: run.into(),
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.end_s - span.start_s
    }

    /// Adopts spans recorded by another process: they become descendants of
    /// `parent`, on this recorder's clock (shifted to start when `parent`
    /// did).
    pub fn adopt(&mut self, parent: usize, foreign: Vec<Span>) {
        let base = self.spans.len();
        let shift = self.spans[parent].start_s;
        self.spans.extend(foreign.into_iter().map(|s| Span {
            parent: Some(s.parent.map_or(parent, |p| base + p)),
            start_s: s.start_s + shift,
            end_s: s.end_s + shift,
            ..s
        }));
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"parent\":{},\"name\":{},\"run\":{},\"start_s\":{},\"end_s\":{}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(&s.name),
                    json_str(&s.run),
                    json_num(s.start_s),
                    json_num(s.end_s),
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Reads back what [`Recorder::to_json`] wrote (ids are positions).
pub fn spans_from_json(value: &JsonValue) -> Result<Vec<Span>, String> {
    let JsonValue::Array(rows) = value else {
        return Err("spans: not an array".into());
    };
    rows.iter()
        .map(|row| {
            let obj = row.as_object().ok_or("spans: row is not an object")?;
            let text =
                |k: &str| obj.get(k).and_then(JsonValue::as_str).ok_or(format!("spans: no {k:?}"));
            let num =
                |k: &str| obj.get(k).and_then(JsonValue::as_f64).ok_or(format!("spans: no {k:?}"));
            Ok(Span {
                name: text("name")?.to_string(),
                run: text("run")?.to_string(),
                parent: obj.get("parent").and_then(JsonValue::as_f64).map(|p| p as usize),
                start_s: num("start_s")?,
                end_s: num("end_s")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_round_trip_and_adopt() {
        let mut rec = Recorder::default();
        let root = rec.open("workload", "dense_train", None);
        let child = rec.open("child", "trial/0", Some(root));
        assert!(rec.close(child) >= 0.0);
        rec.close(root);
        let s = &rec.spans;
        assert_eq!(s[child].parent, Some(root));
        assert!(s[root].start_s <= s[child].start_s && s[child].end_s <= s[root].end_s);

        let back = spans_from_json(&JsonValue::parse(&rec.to_json()).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            (back[1].name.as_str(), back[1].run.as_str(), back[1].parent),
            ("child", "trial/0", Some(0))
        );
        assert_eq!(back[0].parent, None);

        // A probe process's spans hang under the span of the process itself.
        let mut outer = Recorder::default();
        let a = outer.open("a", "x", None);
        let probe = outer.open("probe", "probe", Some(a));
        outer.adopt(probe, back);
        let s = &outer.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[2].parent, Some(probe));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[2].start_s >= s[probe].start_s);
    }

    #[test]
    fn malformed_span_json_is_an_error() {
        assert!(spans_from_json(&JsonValue::parse("{}").unwrap()).is_err());
        assert!(spans_from_json(&JsonValue::parse("[{\"name\":\"x\"}]").unwrap()).is_err());
    }
}
