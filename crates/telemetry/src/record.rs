//! Record streams: the one text codec behind every JSON artifact a run
//! leaves — the flight recording, the round timeline, the span trace, the
//! `fedmigr_perf` report and the netview report.
//!
//! A [`Record`] lists its fields once, in wire order; [`Fields`] decides the
//! direction, writing `"key":value` pairs through the crate's one number and
//! string formatter or reading them back from a parsed object. It is the
//! text twin of the binary codec, [`crate::wire`].
//!
//! A *stream* is JSONL: one `{"kind":"header","version":N,...}` line, then
//! payload lines that carry the `epoch` they belong to, then at most one
//! closing line. [`read`] and [`truncate`] share one walker, so the rules
//! are decided once:
//!
//! * blank lines are skipped;
//! * the header comes first and its version is checked, before any payload
//!   line is interpreted, against [`Stream::VERSION`] (newer is refused);
//! * a line that is not valid JSON is tolerated only as the last line — a
//!   crash tore it mid-write — and is dropped with a WARN;
//! * every other fault is an error of the form `line N: <kind> missing
//!   <key>`;
//! * an integer field holds a non-negative whole number: a negative,
//!   fractional or non-finite value is `line N: <kind> bad integer <key>`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use crate::trace::{push_num, push_str, JsonValue};

type Object = BTreeMap<String, JsonValue>;

/// A type with a JSON object form. The one method visits the type's fields
/// in wire order; [`Fields`] decides the direction.
pub trait Record {
    /// Writes every field to, or overwrites every field from, `v`.
    fn fields(&mut self, v: &mut Fields<'_>);
}

/// A record that is one line kind of a stream.
pub trait Line: Record {
    /// The line's `"kind"` value.
    const KIND: &'static str;
}

/// Implements [`Record`] (and, given `as "kind"`, [`Line`]) for a struct
/// whose keys are its field names, listed in wire order.
#[macro_export]
macro_rules! record_fields {
    ($t:ty $(as $kind:literal)?: $($f:ident),+ $(,)?) => {
        impl $crate::record::Record for $t {
            fn fields(&mut self, v: &mut $crate::record::Fields<'_>) {
                $(v.field(stringify!($f), &mut self.$f);)+
            }
        }
        $(impl $crate::record::Line for $t {
            const KIND: &'static str = $kind;
        })?
    };
}

/// Why a value could not be read back: the dotted key path, and the
/// offending number when it broke the integer policy.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    path: String,
    bad_integer: Option<f64>,
}

impl Fault {
    /// The value is absent or has the wrong JSON type.
    pub fn missing() -> Self {
        Fault { path: String::new(), bad_integer: None }
    }

    fn under(mut self, key: &str) -> Self {
        self.path = if self.path.is_empty() { key.into() } else { format!("{key}.{}", self.path) };
        self
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_integer {
            Some(x) => write!(f, "bad integer {} ({x})", self.path),
            None => write!(f, "missing {}", self.path),
        }
    }
}

/// The text being written and how it is laid out.
pub struct Out<'a> {
    buf: &'a mut String,
    /// Document layout (the perf report): the top-level object's members
    /// and the elements of its arrays sit one per line, indented; anything
    /// deeper is inline with spaced separators. Otherwise compact.
    document: bool,
    depth: usize,
    first: bool,
}

impl Out<'_> {
    /// Appends a JSON string value.
    pub fn string(&mut self, s: &str) {
        push_str(self.buf, s);
    }

    /// Appends a value that is its own JSON spelling.
    pub(crate) fn raw(&mut self, text: impl fmt::Display) {
        let _ = write!(self.buf, "{text}");
    }

    /// In a document, starts a new line when `members` (the depth of the
    /// container's members) is one of the two outer levels.
    fn break_line(&mut self, members: usize, indent: usize) {
        if self.document && members <= 2 {
            self.buf.push('\n');
            (0..indent).for_each(|_| self.buf.push_str("  "));
        }
    }

    /// Starts the next member or element of the open container.
    fn next(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.buf.push(',');
            if self.document && self.depth > 2 {
                self.buf.push(' ');
            }
        }
        self.break_line(self.depth, self.depth);
    }

    /// Writes a container: `body` fills it one level deeper.
    fn nest(&mut self, brackets: [char; 2], body: impl FnOnce(Out<'_>)) {
        self.buf.push(brackets[0]);
        let depth = self.depth + 1;
        body(Out { buf: self.buf, document: self.document, depth, first: true });
        self.break_line(depth, self.depth);
        self.buf.push(brackets[1]);
    }

    fn key(&mut self, key: &str) {
        self.next();
        push_str(self.buf, key);
        self.buf.push_str(if self.document { ": " } else { ":" });
    }

    fn items<'t, T: Field + 't>(&mut self, items: impl Iterator<Item = &'t mut T>) {
        self.nest(['[', ']'], |mut out| {
            for item in items {
                out.next();
                item.emit(&mut out);
            }
        });
    }
}

/// A value that can be a record's field.
pub trait Field: Sized {
    /// Appends the value's JSON spelling.
    fn emit(&mut self, out: &mut Out<'_>);
    /// Reads the value back.
    fn absorb(v: &JsonValue) -> Result<Self, Fault>;
    /// What an absent key means; `None` makes it an error.
    fn absent() -> Option<Self> {
        None
    }
}

impl Field for f64 {
    fn emit(&mut self, out: &mut Out<'_>) {
        push_num(out.buf, *self);
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        v.as_f64().ok_or_else(Fault::missing)
    }
}

macro_rules! integer_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn emit(&mut self, out: &mut Out<'_>) {
                push_num(out.buf, *self as f64);
            }
            fn absorb(v: &JsonValue) -> Result<Self, Fault> {
                let x = f64::absorb(v)?;
                if x >= 0.0 && x.fract() == 0.0 && x <= <$t>::MAX as f64 {
                    Ok(x as $t)
                } else {
                    Err(Fault { path: String::new(), bad_integer: Some(x) })
                }
            }
        }
    )*};
}
integer_field!(u32, u64, usize);

impl Field for bool {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.raw(if *self { "true" } else { "false" });
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(Fault::missing()),
        }
    }
}

impl Field for String {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.string(self);
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        v.as_str().map(str::to_owned).ok_or_else(Fault::missing)
    }
}

/// `null` when `None`; an absent key reads as `None` too.
impl<T: Field> Field for Option<T> {
    fn emit(&mut self, out: &mut Out<'_>) {
        match self {
            Some(value) => value.emit(out),
            None => out.raw("null"),
        }
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::absorb(v).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.items(self.iter_mut());
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        match v {
            JsonValue::Array(items) => items.iter().map(T::absorb).collect(),
            _ => Err(Fault::missing()),
        }
    }
}

impl<T: Field, const N: usize> Field for [T; N] {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.items(self.iter_mut());
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        Vec::absorb(v)?.try_into().map_err(|_| Fault::missing())
    }
}

/// An object keyed by name; an absent key reads as the empty map.
impl<T: Field> Field for BTreeMap<String, T> {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.nest(['{', '}'], |mut out| {
            for (key, value) in self.iter_mut() {
                out.key(key);
                value.emit(&mut out);
            }
        });
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        let members = v.as_object().ok_or_else(Fault::missing)?;
        members
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::absorb(v).map_err(|f| f.under(k))?)))
            .collect()
    }
    fn absent() -> Option<Self> {
        Some(BTreeMap::new())
    }
}

impl<T: Record + Default> Field for T {
    fn emit(&mut self, out: &mut Out<'_>) {
        out.nest(['{', '}'], |out| self.fields(&mut Fields(Side::Write(out))));
    }
    fn absorb(v: &JsonValue) -> Result<Self, Fault> {
        from_object(v.as_object().ok_or_else(Fault::missing)?)
    }
}

/// One side of a record: the object being written, or the parsed object
/// being read. The first fault of a read is latched; later fields are left
/// alone.
pub struct Fields<'a>(Side<'a>);

enum Side<'a> {
    Write(Out<'a>),
    Read { object: &'a Object, fault: Option<Fault> },
}

impl Fields<'_> {
    /// Visits one field: writes `"key":value`, or overwrites `value` from
    /// the object's `key`.
    pub fn field<T: Field>(&mut self, key: &str, value: &mut T) {
        match &mut self.0 {
            Side::Write(out) => {
                out.key(key);
                value.emit(out);
            }
            Side::Read { fault: Some(_), .. } => {}
            Side::Read { object, fault } => {
                let read = match object.get(key) {
                    Some(v) => T::absorb(v),
                    None => T::absent().ok_or_else(Fault::missing),
                };
                match read {
                    Ok(v) => *value = v,
                    Err(f) => *fault = Some(f.under(key)),
                }
            }
        }
    }

    /// Whether this side reads; for fields that are written conditionally.
    pub fn reading(&self) -> bool {
        matches!(self.0, Side::Read { .. })
    }
}

/// Overwrites `record` from a parsed object.
pub fn read_object(object: &Object, record: &mut impl Record) -> Result<(), Fault> {
    let mut fields = Fields(Side::Read { object, fault: None });
    record.fields(&mut fields);
    match fields.0 {
        Side::Read { fault: Some(fault), .. } => Err(fault),
        _ => Ok(()),
    }
}

fn from_object<T: Record + Default>(object: &Object) -> Result<T, Fault> {
    let mut record = T::default();
    read_object(object, &mut record)?;
    Ok(record)
}

fn write_object(buf: &mut String, document: bool, kind: Option<&str>, record: &mut impl Record) {
    Out { buf, document, depth: 0, first: true }.nest(['{', '}'], |mut out| {
        if let Some(kind) = kind {
            out.key("kind");
            push_str(out.buf, kind);
        }
        record.fields(&mut Fields(Side::Write(out)));
    });
}

/// `{"kind":<kind>,<fields>}`: one stream line, without its newline.
pub fn to_line(kind: &str, record: &mut impl Record) -> String {
    let mut buf = String::with_capacity(256);
    write_object(&mut buf, false, Some(kind), record);
    buf
}

/// The record as one compact JSON object.
pub fn to_json(record: &mut impl Record) -> String {
    let mut buf = String::new();
    write_object(&mut buf, false, None, record);
    buf
}

/// The record as a reviewable multi-line document (see [`Out`]), newline
/// terminated.
pub fn to_document(record: &mut impl Record) -> String {
    let mut buf = String::new();
    write_object(&mut buf, true, None, record);
    buf.push('\n');
    buf
}

/// Parses a whole JSON document into a record.
pub fn from_json<T: Record + Default>(text: &str) -> Result<T, String> {
    T::absorb(&JsonValue::parse(text.trim())?).map_err(|f| f.to_string())
}

/// A stream schema: what its header is, and where each payload line goes.
pub trait Stream: Sized {
    /// The newest schema version this build reads.
    const VERSION: u64;
    /// The kind that closes a finished run; a resumed run drops it.
    const CLOSE: &'static str;
    /// The `header` line.
    type Header: Line + Default;

    /// The version a header declares.
    fn version(header: &Self::Header) -> u64;
    /// Starts a reading from its header.
    fn open(header: Self::Header) -> Self;
    /// Takes one payload line, in file order.
    fn line(&mut self, row: &Row<'_>) -> Result<(), String>;
}

/// One complete line of a stream being read.
pub struct Row<'a> {
    /// 1-based line number in the file.
    pub line: usize,
    /// The line's `"kind"`.
    pub kind: &'a str,
    object: &'a Object,
}

impl Row<'_> {
    /// Reads the line as a `T`.
    pub fn read<T: Record + Default>(&self) -> Result<T, String> {
        from_object(self.object).map_err(|f| self.error(f))
    }

    /// `line N: <kind> <what>`.
    pub fn error(&self, what: impl fmt::Display) -> String {
        format!("line {}: {} {what}", self.line, self.kind)
    }

    /// The error for a kind the schema does not have.
    pub fn unknown(&self) -> String {
        format!("line {}: unknown kind {:?}", self.line, self.kind)
    }

    /// Whether a run resumed after `keep_epoch` keeps this line: the
    /// closing line goes, a line stamped with a later epoch goes.
    fn survives<S: Stream>(&self, keep_epoch: u64) -> Result<bool, String> {
        let epoch = match self.object.get("epoch") {
            Some(v) => u64::absorb(v).map_err(|f| self.error(f.under("epoch")))?,
            None => 0,
        };
        Ok(self.kind != S::CLOSE && epoch <= keep_epoch)
    }
}

/// Walks the complete lines of a stream — header included, once it has
/// been checked — handing each to `each` with its verbatim text. The one
/// function that decides blank lines, the torn tail, header order and the
/// version rule.
fn walk<S: Stream>(
    text: &str,
    mut each: impl FnMut(&mut S, &Row<'_>, &str) -> Result<(), String>,
) -> Result<S, String> {
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut stream: Option<S> = None;
    for (pos, &(idx, raw)) in lines.iter().enumerate() {
        let line = idx + 1;
        let value = match JsonValue::parse(raw.trim()) {
            Ok(value) => value,
            Err(e) if pos + 1 == lines.len() => {
                crate::warn!("telemetry::record", "line {line}: skipping torn final line ({e})");
                break;
            }
            Err(e) => return Err(format!("line {line}: {e}")),
        };
        let object = value.as_object().ok_or_else(|| format!("line {line}: not an object"))?;
        let kind = object
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {line}: missing kind"))?;
        let row = Row { line, kind, object };
        match (&mut stream, kind == S::Header::KIND) {
            (None, true) => {
                let mut header = S::Header::default();
                let fault = read_object(object, &mut header);
                // The version is judged before any other complaint: a newer
                // schema may well have changed the header's fields.
                let version = S::version(&header);
                if version > S::VERSION {
                    return Err(row.error(format_args!(
                        "version {version} is newer than supported {}",
                        S::VERSION
                    )));
                }
                fault.map_err(|f| row.error(f))?;
                stream = Some(S::open(header));
            }
            (None, false) => return Err(row.error("before the header, which must come first")),
            (Some(_), true) => return Err(row.error("repeated")),
            (Some(_), false) => {}
        }
        each(stream.as_mut().expect("opened above"), &row, raw)?;
    }
    stream.ok_or_else(|| "no header line".to_string())
}

/// Reads a stream.
pub fn read<S: Stream>(text: &str) -> Result<S, String> {
    walk(
        text,
        |stream: &mut S, row, _| {
            if row.kind == S::Header::KIND {
                Ok(())
            } else {
                stream.line(row)
            }
        },
    )
}

/// The lines a run resumed after `keep_epoch` keeps, **byte for byte**
/// (re-encoding could perturb a float's spelling and break resume
/// byte-identity): the header, every line without an epoch stamp or stamped
/// `<= keep_epoch`; the closing line, later epochs and a torn tail go.
pub fn truncate<S: Stream>(text: &str, keep_epoch: u64) -> Result<String, String> {
    let mut kept = String::with_capacity(text.len());
    walk(text, |_: &mut S, row, raw| {
        if row.survives::<S>(keep_epoch)? {
            kept.push_str(raw);
            kept.push('\n');
        }
        Ok(())
    })?;
    Ok(kept)
}

/// Streaming JSONL writer for the stream `S`.
pub struct StreamWriter<S> {
    out: BufWriter<Box<dyn Write + Send>>,
    buf: String,
    schema: PhantomData<fn() -> S>,
}

impl<S: Stream> StreamWriter<S> {
    /// Opens (truncating) `path`.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(Self::to_writer(Box::new(std::fs::File::create(path)?)))
    }

    /// Writes into an arbitrary sink.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        StreamWriter { out: BufWriter::new(w), buf: String::new(), schema: PhantomData }
    }

    /// Reopens an interrupted stream for appending, cut back to
    /// `keep_epoch` by [`truncate`].
    pub fn resume(path: &str, keep_epoch: usize) -> io::Result<Self> {
        let kept = truncate::<S>(&std::fs::read_to_string(path)?, keep_epoch as u64)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}")))?;
        std::fs::write(path, kept)?;
        Ok(Self::to_writer(Box::new(std::fs::OpenOptions::new().append(true).open(path)?)))
    }

    /// Writes one line; the closing line also flushes.
    pub fn line<T: Line>(&mut self, row: &mut T) -> io::Result<()> {
        self.buf.clear();
        write_object(&mut self.buf, false, Some(T::KIND), row);
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())?;
        if T::KIND == S::CLOSE {
            self.out.flush()?;
        }
        Ok(())
    }

    /// Writes a line formatted earlier by [`to_line`].
    pub fn formatted(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }
}

/// A shared in-memory sink for [`StreamWriter::to_writer`] and the trace
/// writer: clones write to one buffer, so a test keeps one and reads back
/// what the writer it handed the other to produced.
#[derive(Clone, Default)]
pub struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl MemorySink {
    /// Everything written so far.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("memory sink poisoned")).into_owned()
    }
}

impl Write for MemorySink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("memory sink poisoned").extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
