//! The JSONL trace event stream: schema, serializer, and a minimal JSON
//! parser used for round-trip tests and CI validation of emitted traces.
//!
//! One event per line. Two kinds exist:
//!
//! ```json
//! {"kind":"span","ts":1.25,"dur":0.5,"target":"core","name":"local_train","depth":1,"labels":{"epoch":"3"}}
//! {"kind":"log","ts":1.30,"level":"info","target":"cli","msg":"running FedMigr..."}
//! ```
//!
//! `ts` is seconds since the telemetry clock's origin; a span's `ts` is its
//! *start* and `dur` its duration, so `[ts, ts + dur]` intervals nest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::level::Level;
use crate::record::{self, Fault, Field, Fields, Out, Record};

/// One record of the JSONL trace stream.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A closed profiling span.
    Span {
        /// Start time, seconds since clock origin.
        ts: f64,
        /// Duration in seconds.
        dur: f64,
        /// Instrumentation target (crate/module scope).
        target: String,
        /// Phase name, e.g. `local_train`.
        name: String,
        /// Nesting depth at open time (0 = top level).
        depth: usize,
        /// Extra context, e.g. `epoch`, `codec`.
        labels: BTreeMap<String, String>,
    },
    /// A log record mirrored into the trace.
    Log {
        /// Emission time, seconds since clock origin.
        ts: f64,
        /// Severity.
        level: Level,
        /// Instrumentation target.
        target: String,
        /// Rendered message.
        msg: String,
    },
}

impl TraceEvent {
    fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Span { .. } => "span",
            TraceEvent::Log { .. } => "log",
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_jsonl(&mut self) -> String {
        record::to_line(self.kind(), self)
    }

    /// Parses one JSONL line back into an event, validating the schema.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        let value = JsonValue::parse(line)?;
        let obj = value.as_object().ok_or("trace line is not a JSON object")?;
        let (ts, target) = (0.0, String::new());
        let mut event = match obj.get("kind").and_then(JsonValue::as_str).ok_or("missing kind")? {
            "span" => {
                let (name, labels) = (String::new(), BTreeMap::new());
                TraceEvent::Span { ts, dur: 0.0, target, name, depth: 0, labels }
            }
            "log" => TraceEvent::Log { ts, level: Level::Info, target, msg: String::new() },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        record::read_object(obj, &mut event).map_err(|f| format!("{} {f}", event.kind()))?;
        match event {
            TraceEvent::Span { dur, .. } if !(dur.is_finite() && dur >= 0.0) => {
                Err(format!("span has invalid dur {dur}"))
            }
            event => Ok(event),
        }
    }
}

impl Record for TraceEvent {
    fn fields(&mut self, v: &mut Fields<'_>) {
        match self {
            TraceEvent::Span { ts, dur, target, name, depth, labels } => {
                v.field("ts", ts);
                v.field("dur", dur);
                v.field("target", target);
                v.field("name", name);
                let mut bare = BareInt(*depth);
                v.field("depth", &mut bare);
                *depth = bare.0;
                // An unlabeled span carries no `labels` key at all.
                if v.reading() || !labels.is_empty() {
                    v.field("labels", labels);
                }
            }
            TraceEvent::Log { ts, level, target, msg } => {
                v.field("ts", ts);
                v.field("level", level);
                v.field("target", target);
                v.field("msg", msg);
            }
        }
    }
}

/// A count spelled without the `.0` every other number gains: the span
/// depth, which trace consumers index with.
struct BareInt(usize);

impl Field for BareInt {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.raw(self.0);
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        usize::absorb(v).map(BareInt)
    }
}

impl Field for Level {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.string(self.as_str());
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        v.as_str().and_then(|s| s.parse().ok()).ok_or_else(Fault::missing)
    }
}

/// Serializes an `f64` as a JSON number (shortest round-trippable form;
/// integers gain `.0` so the value stays typed as a float for downstream
/// tools; non-finite values clamp to `0.0` since JSON has no Inf/NaN).
/// The one number formatter of every JSON emitter in the workspace.
pub fn json_num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// [`json_num`], appended to `out`.
pub(crate) fn push_num(out: &mut String, v: f64) {
    let _ = if !v.is_finite() {
        write!(out, "0.0")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
    };
}

/// Serializes a string as a quoted, escaped JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

/// [`json_str`], appended to `out`.
pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A minimal JSON value: the subset the trace schema needs (objects,
/// strings, numbers, booleans, null; arrays accepted for forward
/// compatibility).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// JSON string, unescaped.
    String(String),
    /// JSON array.
    Array(Vec<JsonValue>),
    /// JSON object, key-sorted.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected byte {:?} at {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(JsonValue::Number).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trips_through_jsonl() {
        let mut labels = BTreeMap::new();
        labels.insert("epoch".to_string(), "12".to_string());
        labels.insert("codec".to_string(), "int8+ef".to_string());
        let mut ev = TraceEvent::Span {
            ts: 1.25,
            dur: 0.5,
            target: "core::runner".into(),
            name: "local_train".into(),
            depth: 1,
            labels,
        };
        let line = ev.to_jsonl();
        assert_eq!(TraceEvent::parse(&line).unwrap(), ev);
    }

    #[test]
    fn log_round_trips_with_awkward_characters() {
        let mut ev = TraceEvent::Log {
            ts: 0.0,
            level: Level::Warn,
            target: "cli".into(),
            msg: "path \"a\\b\"\nline2\ttab".into(),
        };
        let line = ev.to_jsonl();
        assert!(!line.contains('\n'), "JSONL lines must be newline-free: {line}");
        assert_eq!(TraceEvent::parse(&line).unwrap(), ev);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "{\"kind\":\"span\"}",
            "{\"kind\":\"warp\",\"ts\":0,\"target\":\"x\"}",
            "{\"kind\":\"log\",\"ts\":0,\"target\":\"x\",\"level\":\"loud\",\"msg\":\"m\"}",
            "{\"kind\":\"span\",\"ts\":0,\"dur\":-1,\"target\":\"t\",\"name\":\"n\",\"depth\":0}",
            "{} trailing",
        ] {
            assert!(TraceEvent::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = JsonValue::parse(
            "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\u0041\"}, \"d\": null, \"e\": true}",
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj["a"],
            JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0),
            ])
        );
        assert_eq!(obj["b"].as_object().unwrap()["c"].as_str(), Some("xA"));
        assert_eq!(obj["d"], JsonValue::Null);
        assert_eq!(obj["e"], JsonValue::Bool(true));
    }
}
