//! The architecture rules: properties of the code's shape that the
//! simulator's bits and layering rest on (no FMA in the GEMM builds,
//! planning in one place, no process-wide instrument state, ...), checked
//! over the source tree.
//!
//! Each rule is a pure function from the tree — `(path, source)` pairs,
//! paths relative to the repository root — to its violations, one
//! `path:line: what` line each. Each rule's test runs it on the tree, which
//! must be clean, and on the tree with each of the rule's patterns planted,
//! which it must report.
//!
//! The scanner below reads Rust the way the rules need it read:
//! - a comment is not code, so no rule matches inside one (a rule that
//!   counts calls also reads the code blocks of doc comments: doctests);
//! - a string, raw-string, byte-string or char literal is code, and rules
//!   match inside it; a `'a` lifetime is not a char literal;
//! - an item under `#[cfg(test)]` is test code: the attribute, any further
//!   attributes and the item up to its `;` or its matching `}`, and no
//!   more. Rules that skip test code skip exactly those bytes.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Source files as `(path relative to the repository root, text)`.
type Tree = Vec<(String, String)>;

// ---------------------------------------------------------------------------
// The scanner.

/// What a byte of Rust source is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Code,
    /// Inside a string, byte-string, raw-string or char literal, quotes
    /// and prefix included.
    Literal,
    Comment,
}

/// One Rust source file, classified byte by byte.
struct Scan<'s> {
    src: &'s str,
    class: Vec<Class>,
    /// The bytes of each item a `#[cfg(test)]` covers, attribute included.
    test: Vec<Range<usize>>,
}

/// Whether `c` (a byte's char, in byte scans) can be part of an
/// identifier.
fn is_ident(c: impl Into<char>) -> bool {
    let c = c.into();
    c.is_ascii_alphanumeric() || c == '_'
}

impl<'s> Scan<'s> {
    fn new(src: &'s str) -> Self {
        let b = src.as_bytes();
        let mut class = vec![Class::Code; b.len()];
        let mut i = 0;
        while i < b.len() {
            let (kind, end) = token(b, i);
            class[i..end].fill(kind);
            i = end;
        }
        let mut scan = Scan { src, class, test: Vec::new() };
        scan.test = scan.test_items();
        scan
    }

    fn at(&self, k: usize) -> u8 {
        self.src.as_bytes().get(k).copied().unwrap_or(0)
    }

    fn is_code(&self, k: usize) -> bool {
        self.class.get(k) == Some(&Class::Code)
    }

    /// The source with every comment blanked (newlines kept, so lines keep
    /// their numbers).
    fn code(&self) -> String {
        self.view(&[])
    }

    /// [`Scan::code`] with every `#[cfg(test)]` item blanked too.
    fn non_test(&self) -> String {
        self.view(&self.test)
    }

    fn view(&self, blank: &[Range<usize>]) -> String {
        let mut out = self.src.as_bytes().to_vec();
        for (k, byte) in out.iter_mut().enumerate() {
            if self.class[k] == Class::Comment && *byte != b'\n' {
                *byte = b' ';
            }
        }
        for r in blank {
            out[r.clone()].iter_mut().filter(|b| **b != b'\n').for_each(|b| *b = b' ');
        }
        // Comments and items start and end at ASCII delimiters, so whole
        // characters are blanked.
        String::from_utf8(out).expect("blanking whole comments and items keeps UTF-8")
    }

    /// The Rust code blocks of the doc comments outside test items, one
    /// block after another, with their own comments blanked.
    fn doctests(&self) -> String {
        let mut code = String::new();
        let mut in_block = None;
        let mut start = 0;
        for line in self.src.split_inclusive('\n') {
            let at = start + (line.len() - line.trim_start().len());
            start += line.len();
            let text = line.trim_start();
            let doc =
                (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
            if !doc || self.class[at] != Class::Comment || self.in_test(at) {
                in_block = None;
                continue;
            }
            let text = text[3..].strip_prefix(' ').unwrap_or(&text[3..]);
            match (in_block, text.trim_start().strip_prefix("```")) {
                (None, Some(info)) => in_block = Some(is_rust(info.trim())),
                (Some(_), Some(_)) => in_block = None,
                (Some(true), None) => code.push_str(text),
                _ => {}
            }
        }
        Scan::new(&code).code()
    }

    fn in_test(&self, k: usize) -> bool {
        self.test.iter().any(|r| r.contains(&k))
    }

    /// Past whitespace and comments from `k`.
    fn skip_blank(&self, mut k: usize) -> usize {
        while k < self.class.len()
            && (self.class[k] == Class::Comment || self.at(k).is_ascii_whitespace())
        {
            k += 1;
        }
        k
    }

    /// The position after `tok` when the code at `k` (past blanks) is it.
    fn expect(&self, k: usize, tok: &str) -> Option<usize> {
        let k = self.skip_blank(k);
        let end = k + tok.len();
        let whole_word = !is_ident(tok.as_bytes()[0]) || !is_ident(self.at(end));
        let here = self.src.as_bytes().get(k..end) == Some(tok.as_bytes());
        (here && whole_word && (k..end).all(|j| self.is_code(j))).then_some(end)
    }

    /// The position after the group whose opening bracket is at `open`.
    fn group_end(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for k in open..self.class.len() {
            if !self.is_code(k) {
                continue;
            }
            match self.at(k) {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
        self.class.len()
    }

    /// The bytes of every item under `#[cfg(test)]`.
    fn test_items(&self) -> Vec<Range<usize>> {
        let mut items = Vec::new();
        let mut k = 0;
        while k < self.class.len() {
            let attr = (self.at(k) == b'#' && self.is_code(k)).then_some(k).and_then(|k| {
                ["#", "[", "cfg", "(", "test", ")", "]"]
                    .iter()
                    .try_fold(k, |at, tok| self.expect(at, tok))
            });
            match attr {
                Some(after) => {
                    let end = self.item_end(after);
                    items.push(k..end);
                    k = end;
                }
                _ => k += 1,
            }
        }
        items
    }

    /// Where the item that starts at `k` (past blanks and any further
    /// attributes) ends: after its `;` or its body's matching `}`. A field,
    /// arm or statement ends at its `,` too, and anything ends before the
    /// bracket that closes what encloses it.
    fn item_end(&self, mut k: usize) -> usize {
        while let Some(open) = self.expect(k, "#") {
            k = self.group_end(self.skip_blank(open));
        }
        let item = self.starts_item(k);
        let mut depth = 0usize;
        while k < self.class.len() {
            if self.is_code(k) {
                match self.at(k) {
                    b'{' if depth == 0 => return self.group_end(k),
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' if depth == 0 => return k,
                    b')' | b']' | b'}' => depth -= 1,
                    b';' if depth == 0 => return k + 1,
                    b',' if depth == 0 && !item => return k + 1,
                    _ => {}
                }
            }
            k += 1;
        }
        k
    }

    /// Whether the code at `k` opens an item or a `let` (whose generic
    /// arguments may hold top-level commas) rather than a field or an arm.
    fn starts_item(&self, k: usize) -> bool {
        let word = |k| word_at(self.src, self.skip_blank(k));
        let (mut item, end) = word(k);
        if item == "pub" {
            let next = self.skip_blank(end);
            item = word(if self.at(next) == b'(' { self.group_end(next) } else { next }).0;
        }
        const ITEMS: [&str; 16] = [
            "fn",
            "mod",
            "impl",
            "struct",
            "enum",
            "union",
            "trait",
            "type",
            "const",
            "static",
            "use",
            "extern",
            "unsafe",
            "async",
            "let",
            "macro_rules",
        ];
        ITEMS.contains(&item)
    }
}

/// The class of the token starting at byte `i`, and where it ends.
fn token(b: &[u8], i: usize) -> (Class, usize) {
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    match (at(i), at(i + 1)) {
        (b'/', b'/') => {
            (Class::Comment, b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n))
        }
        (b'/', b'*') => (Class::Comment, block_comment_end(b, i)),
        (b'"', _) => (Class::Literal, string_end(b, i + 1)),
        (b'\'', _) => char_end(b, i).map_or((Class::Code, i + 1), |end| (Class::Literal, end)),
        (b'r' | b'b', _) if i == 0 || !is_ident(b[i - 1]) => {
            prefixed_end(b, i).map_or((Class::Code, i + 1), |end| (Class::Literal, end))
        }
        _ => (Class::Code, i + 1),
    }
}

/// After the `*/` that closes the (nested) block comment opening at `i`.
fn block_comment_end(b: &[u8], i: usize) -> usize {
    let (mut depth, mut k) = (0usize, i);
    while k + 1 < b.len() {
        match (b[k], b[k + 1]) {
            (b'/', b'*') => (depth, k) = (depth + 1, k + 2),
            (b'*', b'/') => {
                (depth, k) = (depth - 1, k + 2);
                if depth == 0 {
                    return k;
                }
            }
            _ => k += 1,
        }
    }
    b.len()
}

/// After the `"` that closes a string whose contents start at `k`.
fn string_end(b: &[u8], mut k: usize) -> usize {
    while k < b.len() {
        match b[k] {
            b'\\' => k += 2,
            b'"' => return k + 1,
            _ => k += 1,
        }
    }
    b.len()
}

/// After the char literal opening at `i`, or `None` for a lifetime or a
/// loop label.
fn char_end(b: &[u8], i: usize) -> Option<usize> {
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    match at(i + 1) {
        b'\\' => b.get(i + 3..)?.iter().position(|&c| c == b'\'').map(|n| i + 3 + n + 1),
        0 | b'\n' => None,
        c => {
            let len = match c {
                0xF0.. => 4,
                0xE0.. => 3,
                0xC0.. => 2,
                _ => 1,
            };
            (at(i + 1 + len) == b'\'').then_some(i + 2 + len)
        }
    }
}

/// After the `b'…'`, `b"…"`, `r"…"`, `r#"…"#` or `br#"…"#` literal opening
/// at `i`, or `None` when `i` opens an identifier (`r#type` included).
fn prefixed_end(b: &[u8], i: usize) -> Option<usize> {
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    let k = if at(i) == b'b' { i + 1 } else { i };
    match at(k) {
        b'\'' if k > i => char_end(b, k),
        b'"' if k > i => Some(string_end(b, k + 1)),
        b'r' => {
            let hashes = b[k + 1..].iter().take_while(|&&c| c == b'#').count();
            if at(k + 1 + hashes) != b'"' {
                return None;
            }
            let close: Vec<u8> = std::iter::once(b'"').chain(vec![b'#'; hashes]).collect();
            let body = k + 2 + hashes;
            let end = b[body..].windows(close.len()).position(|w| w == close.as_slice());
            Some(end.map_or(b.len(), |n| body + n + close.len()))
        }
        _ => None,
    }
}

/// Whether a code fence's info string marks Rust, as rustdoc reads it.
fn is_rust(info: &str) -> bool {
    info.split([',', ' ']).filter(|t| !t.is_empty()).all(|t| {
        matches!(t, "rust" | "ignore" | "no_run" | "should_panic" | "compile_fail" | "test_harness")
            || t.starts_with("edition")
    })
}

// ---------------------------------------------------------------------------
// What the rules share.

/// Whether `path` is `dir` or lies under it.
fn under(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir).is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Whether `path` lies under `crates/<any>/<sub>`.
fn in_crates(path: &str, sub: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some(sub)
}

fn is_rs(path: &str) -> bool {
    path.ends_with(".rs")
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Whether a rule counts the test code of the files it reads.
#[derive(Clone, Copy)]
enum Tests {
    Count,
    Skip,
}

/// A Rust file as the rules read it.
struct Views {
    /// Its code, comments blanked.
    code: String,
    /// Its code outside test items.
    non_test: String,
    /// The code of its doctests.
    doctests: String,
}

/// The views of the Rust source `src`, scanned once per distinct text: a
/// plant changes one file, so the tests scan every other file once.
fn views(src: &str) -> Arc<Views> {
    static SEEN: OnceLock<Mutex<HashMap<String, Arc<Views>>>> = OnceLock::new();
    let seen = SEEN.get_or_init(Default::default);
    let cached = seen.lock().expect("no test panics holding the cache").get(src).cloned();
    cached.unwrap_or_else(|| {
        let scan = Scan::new(src);
        let (code, non_test, doctests) = (scan.code(), scan.non_test(), scan.doctests());
        let v = Arc::new(Views { code, non_test, doctests });
        seen.lock().expect("no test panics holding the cache").insert(src.to_string(), v.clone());
        v
    })
}

/// What a rule reads of a file: a Rust file's code, or its non-test code;
/// any other file as it is.
fn text(path: &str, src: &str, tests: Tests) -> String {
    if !is_rs(path) {
        return src.to_string();
    }
    let v = views(src);
    match tests {
        Tests::Count => v.code.clone(),
        Tests::Skip => v.non_test.clone(),
    }
}

/// The files of `tree` that `keep` picks, as rules read them.
fn read<'t>(
    tree: &'t Tree,
    tests: Tests,
    keep: impl Fn(&str) -> bool + 't,
) -> impl Iterator<Item = (&'t str, String)> + 't {
    tree.iter().filter(move |(p, _)| keep(p)).map(move |(p, s)| (p.as_str(), text(p, s, tests)))
}

fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// `path:line: needle` for every occurrence of `needle` in `text`.
fn hits(path: &str, text: &str, needle: &str) -> Vec<String> {
    let at = |(k, _)| format!("{path}:{}: {needle}", line_of(text, k));
    text.match_indices(needle).map(at).collect()
}

/// `path:line: line` for every line of `text` that `bad` picks.
fn bad_lines(path: &str, text: &str, bad: impl Fn(&str) -> bool) -> Vec<String> {
    let lines = text.lines().enumerate().filter(|(_, l)| bad(l));
    lines.map(|(n, l)| format!("{path}:{}: {}", n + 1, l.trim())).collect()
}

/// Every identifier in `text` with its byte range.
fn idents(text: &str) -> impl Iterator<Item = (Range<usize>, &str)> {
    let b = text.as_bytes();
    let mut k = 0;
    std::iter::from_fn(move || {
        while k < b.len() {
            let start = k;
            while k < b.len() && is_ident(b[k]) {
                k += 1;
            }
            if k == start {
                k += 1;
            } else if !b[start].is_ascii_digit() {
                return Some((start..k, &text[start..k]));
            }
        }
        None
    })
}

/// Whether `text` ends with the whole word `word`.
fn ends_with_word(text: &str, word: &str) -> bool {
    text.strip_suffix(word).is_some_and(|head| !head.ends_with(|c: char| is_ident(c)))
}

/// Whether `text` starts with the whole word `word`.
fn starts_with_word(text: &str, word: &str) -> bool {
    text.strip_prefix(word).is_some_and(|rest| !rest.starts_with(|c: char| is_ident(c)))
}

/// The identifier after the blanks at `k`, and where it ends; empty when
/// none follows.
fn word_at(text: &str, k: usize) -> (&str, usize) {
    let start = text.len() - text[k..].trim_start().len();
    let len = text[start..].bytes().take_while(|&b| is_ident(b)).count();
    (&text[start..start + len], start + len)
}

/// The kind and name of the item a `pub` ending at `after_pub` declares:
/// `pub fn x` and `pub const fn x` give `("fn", "x")`, `pub struct X`
/// gives `("struct", "X")`; `None` for `pub(crate)`, `pub use` and
/// `pub mod`.
fn pub_item(text: &str, after_pub: usize) -> Option<(&str, &str)> {
    if !text[after_pub..].starts_with(char::is_whitespace) {
        return None;
    }
    let (mut kind, end) = word_at(text, after_pub);
    let (mut name, end) = word_at(text, end);
    if matches!(kind, "const" | "unsafe" | "async") && name == "fn" {
        (kind, name) = ("fn", word_at(text, end).0);
    } else if kind == "static" && name == "mut" {
        name = word_at(text, end).0;
    }
    let item = matches!(kind, "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static");
    (item && !name.is_empty()).then_some((kind, name))
}

/// `text` with every `use` declaration blanked.
fn without_uses(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    for (r, w) in idents(text) {
        let head = text[..r.start].trim_end();
        let starts = head.is_empty()
            || head.ends_with([';', '{', '}', ']', ')'])
            || ends_with_word(head, "pub");
        if w == "use" && starts {
            let end = text[r.start..].find(';').map_or(text.len(), |n| r.start + n + 1);
            out[r.start..end].iter_mut().filter(|b| **b != b'\n').for_each(|b| *b = b' ');
        }
    }
    String::from_utf8(out).expect("blanking whole declarations keeps UTF-8")
}

/// How many arguments the call whose `(` opens `rest` passes: its commas
/// outside nested brackets, less a trailing one, plus one; 0 when `rest`
/// opens no call or an empty one.
fn args(rest: &str) -> usize {
    let Some(inner) = rest.strip_prefix('(') else { return 0 };
    let (mut depth, mut commas) = (0, 0);
    for (k, c) in inner.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => {
                let empty = inner[..k].trim().is_empty();
                return if empty { 0 } else { commas + 1 };
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 && !inner[k + 1..].trim_start().starts_with(')') => commas += 1,
            _ => {}
        }
    }
    0
}

/// Whether the identifier at `r` in `text` is in a call form — `name(`,
/// `name::<…>(`, `.name(` or `::name` — rather than its definition.
fn is_call(text: &str, r: &Range<usize>) -> bool {
    let head = &text[..r.start];
    if head.ends_with("::") {
        return true;
    }
    let mut rest = &text[r.end..];
    if let Some(generics) = rest.strip_prefix("::<") {
        let mut depth = 1;
        let close = generics.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        });
        let Some(n) = close else { return false };
        rest = &generics[n + 1..];
    }
    rest.starts_with('(') && !ends_with_word(head.trim_end(), "fn")
}

// ---------------------------------------------------------------------------
// The rules, one per architecture decision. Each keeps the file scope it
// had as a CI step, and whether it counts test code.

mod rules {
    use super::*;

    /// Instruments hold no process-wide state: outside the test items of
    /// `crates/tensor/src` and `crates/telemetry/src` the only `static` is
    /// `CRC32_TABLE`, and `thread_local!` occurs once, in the ledger
    /// module, whose statics are per thread. Kernel counts, profiler
    /// frames, span depth, the metrics registry, the log filter and the
    /// trace sink are merged only at `fan_out`'s join and a run's end.
    pub fn instruments_hold_no_process_wide_state(tree: &Tree) -> Vec<String> {
        const LEDGER: &str = "crates/telemetry/src/ledger.rs";
        let scope = |p: &str| {
            is_rs(p) && (under(p, "crates/tensor/src") || under(p, "crates/telemetry/src"))
        };
        let (mut v, mut crc_tables, mut ledger_blocks) = (Vec::new(), 0, 0);
        for (path, src) in tree.iter().filter(|(p, _)| scope(p)) {
            let scan = Scan::new(src);
            let code = scan.non_test();
            let mut thread_locals = Vec::new();
            for (r, w) in idents(&code) {
                if w != "thread_local" || !code[r.end..].starts_with('!') {
                    continue;
                }
                if path == LEDGER {
                    ledger_blocks += 1;
                } else {
                    v.push(format!("{path}:{}: thread_local!", line_of(&code, r.start)));
                }
                let open = code[r.end..].find(['{', '(']).map_or(code.len(), |n| r.end + n);
                thread_locals.push(r.start..scan.group_end(open));
            }
            for (r, w) in idents(&code) {
                let lifetime = code[..r.start].ends_with('\'');
                let per_thread = thread_locals.iter().any(|t| t.contains(&r.start));
                if w != "static" || lifetime || per_thread {
                    continue;
                }
                let (mut name, end) = word_at(&code, r.end);
                if name == "mut" {
                    name = word_at(&code, end).0;
                }
                if name == "CRC32_TABLE" {
                    crc_tables += 1;
                } else if !name.is_empty() {
                    v.push(format!("{path}:{}: static {name}", line_of(&code, r.start)));
                }
            }
        }
        if crc_tables != 1 {
            v.push(format!("CRC32_TABLE is declared {crc_tables} times, not once"));
        }
        if ledger_blocks != 1 {
            v.push(format!("{LEDGER} has {ledger_blocks} thread_local! blocks, not one"));
        }
        v
    }

    /// Planning in one place: outside test items under `crates/core/src`
    /// and `src`, `FlmmRelaxation` and `.solve(` occur nowhere, because the
    /// oracle is its objective, and `.select_action(` only in core's
    /// `migration.rs`, where both round loops' planners live.
    pub fn planning_in_one_place(tree: &Tree) -> Vec<String> {
        let scope = |p: &str| is_rs(p) && (under(p, "crates/core/src") || under(p, "src"));
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Skip, scope) {
            v.extend(hits(path, &code, "FlmmRelaxation"));
            v.extend(hits(path, &code, ".solve("));
            if path != "crates/core/src/migration.rs" {
                v.extend(hits(path, &code, ".select_action("));
            }
        }
        v
    }

    /// One codec, one state: no put/take twins or state macros in core; no
    /// `*State` mirror or export/import pair in any crate, `src` or
    /// `tests`; no `bytes` or `serde` dependency, shim or import anywhere.
    pub fn one_codec_one_state(tree: &Tree) -> Vec<String> {
        const SHIMS: [&str; 2] = ["bytes", "serde"];
        let mut v = Vec::new();
        let twins =
            ["macro_rules! restore_state", "macro_rules! capture_state", "fn put_", "fn take_"];
        for (path, code) in read(tree, Tests::Count, |p| under(p, "crates/core/src")) {
            twins.iter().for_each(|twin| v.extend(hits(path, &code, twin)));
        }
        let mirrors = ["export", "import"]
            .iter()
            .flat_map(|verb| ["state", "dormant"].map(|what| format!("fn {verb}_{what}")))
            .chain(
                ["Compressor", "Agent", "Replay", "Ou", "Meter", "TransportAccum"]
                    .map(|of| format!("pub struct {of}State")),
            )
            .collect::<Vec<_>>();
        let state_dirs = |p: &str| ["crates", "src", "tests"].iter().any(|d| under(p, d));
        for (path, code) in read(tree, Tests::Count, state_dirs) {
            mirrors.iter().for_each(|mirror| v.extend(hits(path, &code, mirror)));
        }
        let depends = |l: &str| {
            SHIMS.iter().any(|s| starts_with_word(l, s) || l.contains(&format!("shims/{s}")))
        };
        for (path, src) in tree.iter().filter(|(p, _)| file_name(p) == "Cargo.toml") {
            v.extend(bad_lines(path, src, depends));
        }
        let imports = |l: &str| {
            let l = l.trim_start();
            let l = l.strip_prefix("pub ").unwrap_or(l);
            l.strip_prefix("use ").is_some_and(|u| SHIMS.iter().any(|s| starts_with_word(u, s)))
        };
        let rust_dirs = |p: &str| {
            is_rs(p) && ["crates", "src", "tests", "shims", "examples"].iter().any(|d| under(p, d))
        };
        for (path, code) in read(tree, Tests::Count, rust_dirs) {
            v.extend(bad_lines(path, &code, imports));
        }
        v
    }

    /// No activation transpose feeding a GEMM in `nn` or `drl`:
    /// `x.transpose2().matmul(y)` is `x.matmul_tn(y)`.
    pub fn no_activation_transpose_feeding_a_gemm(tree: &Tree) -> Vec<String> {
        let scope = |p: &str| under(p, "crates/nn/src") || under(p, "crates/drl/src");
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Count, scope) {
            for (k, t) in code.match_indices("transpose2()") {
                if code[k + t.len()..].trim_start().starts_with(".matmul") {
                    v.push(format!("{path}:{}: transpose2().matmul", line_of(&code, k)));
                }
            }
        }
        v
    }

    /// No FMA, the source half: in the kernel crates no `mul_add` and no
    /// target feature but `avx2` and `avx512f`; no `target-cpu` or
    /// `target-feature` in any manifest or cargo config. These are the only
    /// ways left to move the GEMM bits; the binary half (no `vfmadd` in
    /// `objdump`) needs the build and stays in CI.
    pub fn no_fma_in_the_source(tree: &Tree) -> Vec<String> {
        const ALLOWED: [&str; 2] =
            [r#"#[target_feature(enable = "avx2")]"#, r#"#[target_feature(enable = "avx512f")]"#];
        let feature = |l: &str| {
            l.match_indices("target_feature")
                .any(|(k, t)| l[k + t.len()..].trim_start_matches(' ').starts_with(['(', '=']))
                && !ALLOWED.iter().any(|a| l.contains(a))
        };
        let kernels = |p: &str| under(p, "crates/tensor") || under(p, "crates/nn");
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Count, kernels) {
            v.extend(hits(path, &code, "mul_add"));
            v.extend(bad_lines(path, &code, feature));
        }
        let build = |p: &str| {
            file_name(p) == "Cargo.toml"
                || p.starts_with(".cargo/config")
                || p.contains("/.cargo/config")
        };
        let flags = |l: &str| l.contains("target-cpu") || l.contains("target-feature");
        for (path, src) in tree.iter().filter(|(p, _)| build(p)) {
            v.extend(bad_lines(path, src, flags));
        }
        v
    }

    /// No patch matrix: no `thread_local!` in `nn`, and `im2col` in
    /// `conv.rs` only inside its test items, as the reference.
    pub fn no_patch_matrix(tree: &Tree) -> Vec<String> {
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Count, |p| under(p, "crates/nn/src")) {
            v.extend(hits(path, &code, "thread_local!"));
        }
        for (path, code) in read(tree, Tests::Skip, |p| p == "crates/nn/src/conv.rs") {
            v.extend(hits(path, &code, "fn im2col"));
        }
        v
    }

    /// No activation rearrange: activations are NHWC, so `conv.rs` opens no
    /// `Kernel::Transpose` scope outside its test items.
    pub fn no_activation_rearrange(tree: &Tree) -> Vec<String> {
        let conv = read(tree, Tests::Skip, |p| p == "crates/nn/src/conv.rs");
        conv.flat_map(|(path, code)| hits(path, &code, "Kernel::Transpose")).collect()
    }

    /// Top-k selects in O(n): no sort in `sparse.rs` outside its test
    /// items, where the full sort is the reference.
    pub fn top_k_selects_in_linear_time(tree: &Tree) -> Vec<String> {
        let sorts = ["sort", "sort_unstable"]
            .iter()
            .flat_map(|s| ["", "_by", "_by_key"].map(|by| format!(".{s}{by}(")))
            .collect::<Vec<_>>();
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Skip, |p| p == "crates/compress/src/sparse.rs") {
            sorts.iter().for_each(|sort| v.extend(hits(path, &code, sort)));
        }
        v
    }

    /// Each record field once: no hand-formatted record line outside the
    /// record module and test code.
    pub fn each_record_field_once(tree: &Tree) -> Vec<String> {
        let dirs = ["crates/diag/src", "crates/core/src", "crates/bench/src", "src"];
        let files = ["crates/telemetry/src/cli.rs", "crates/telemetry/src/validate.rs"];
        let scope = |p: &str| is_rs(p) && (dirs.iter().any(|d| under(p, d)) || files.contains(&p));
        let mut v = Vec::new();
        for (path, code) in read(tree, Tests::Skip, scope) {
            v.extend(hits(path, &code, r#"{\"kind\""#));
        }
        v
    }

    /// One binary: no `src/bin` directory and no `[[bin]]` target under
    /// `crates/`.
    pub fn one_binary(tree: &Tree) -> Vec<String> {
        let mut v = Vec::new();
        for (path, src) in tree.iter().filter(|(p, _)| under(p, "crates")) {
            if path.contains("/src/bin/") {
                v.push(format!("{path}: a src/bin target"));
            }
            if file_name(path) == "Cargo.toml" {
                v.extend(bad_lines(path, src, |l| l.starts_with("[[bin]]")));
            }
        }
        v
    }

    /// One command-line parser: `std::env::args` occurs exactly once in
    /// the Rust of `crates`, `src`, `tests` and `examples` (`benchmark/`
    /// drives the binary with a parser of its own).
    pub fn one_command_line_parser(tree: &Tree) -> Vec<String> {
        let scope = |p: &str| {
            is_rs(p) && ["crates", "src", "tests", "examples"].iter().any(|d| under(p, d))
        };
        let found: Vec<String> = read(tree, Tests::Count, scope)
            .flat_map(|(path, code)| hits(path, &code, "std::env::args"))
            .collect();
        match found.len() {
            1 => Vec::new(),
            n => vec![format!("std::env::args occurs {n} times, not once: {found:?}")],
        }
    }

    /// Parallelism in one place: outside test items, `available_parallelism`
    /// and `thread::scope` each occur exactly once under `crates/*/src` and
    /// `src`, in `fedmigr_telemetry::fan_out`.
    pub fn parallelism_in_one_place(tree: &Tree) -> Vec<String> {
        let scope = |p: &str| is_rs(p) && (in_crates(p, "src") || under(p, "src"));
        let code: Vec<(&str, String)> = read(tree, Tests::Skip, scope).collect();
        let mut v = Vec::new();
        for word in ["available_parallelism", "thread::scope"] {
            let found: Vec<String> = code.iter().flat_map(|(p, c)| hits(p, c, word)).collect();
            if found.len() != 1 {
                v.push(format!("{word} occurs {} times, not once: {found:?}", found.len()));
            }
        }
        v
    }

    /// Egress in one place: DP noise and Byzantine corruption land on what
    /// a client transmits, in the dense runner's `send`, never on a model
    /// a client keeps. Outside test items, `crates/core/src` calls
    /// `DpConfig::apply` once (as `DpConfig::apply(` or as the one `.apply(`
    /// with two arguments; `MigrationPlan::apply` takes one), and
    /// `corrupt_upload` at most twice: in `send` and in `evaluate`'s
    /// hypothetical upload, which is never transmitted.
    pub fn egress_in_one_place(tree: &Tree) -> Vec<String> {
        let scope = |p: &str| is_rs(p) && under(p, "crates/core/src");
        let (mut dp, mut corrupt) = (Vec::new(), Vec::new());
        for (path, code) in read(tree, Tests::Skip, scope) {
            for (r, w) in idents(&code) {
                let (head, rest) = (&code[..r.start], &code[r.end..]);
                let at = || format!("{path}:{}: {w}", line_of(&code, r.start));
                if w == "corrupt_upload" && is_call(&code, &r) {
                    corrupt.push(at());
                } else if w == "apply"
                    && (head.ends_with("DpConfig::") || head.ends_with('.') && args(rest) == 2)
                {
                    dp.push(at());
                }
            }
        }
        let mut v = Vec::new();
        if dp.len() != 1 {
            v.push(format!("DpConfig::apply is called {} times, not once: {dp:?}", dp.len()));
        }
        if corrupt.len() > 2 {
            v.push(format!(
                "corrupt_upload is called {} times, not at most twice: {corrupt:?}",
                corrupt.len()
            ));
        }
        v
    }

    /// Every pub fn is called, and every pub struct, enum, trait, type,
    /// const and static is named, outside its own definition, comments and
    /// test items. A fn counts only call forms (`name(`, `name::<…>(`,
    /// `.name(`, `::name`), doctest code included; the others count any
    /// mention outside `use` declarations. Items are declared in
    /// `crates/*/src`; uses count there, in `src`, and in all of `tests`,
    /// `crates/*/tests`, `examples` and `benchmark`. Names are matched, not
    /// resolved: a name used anywhere keeps every item of that name.
    pub fn every_pub_item_is_used(tree: &Tree) -> Vec<String> {
        let lib = |p: &str| is_rs(p) && in_crates(p, "src");
        let own = |p: &str| lib(p) || is_rs(p) && under(p, "src");
        let others = ["tests", "examples", "benchmark"];
        let user =
            |p: &str| is_rs(p) && (others.iter().any(|d| under(p, d)) || in_crates(p, "tests"));
        // Each file as the rule reads it: its code, and its doctests.
        let mut files = Vec::new();
        for (path, src) in tree.iter().filter(|(p, _)| own(p) || user(p)) {
            let v = views(src);
            let code = if own(path) { &v.non_test } else { &v.code };
            files.push((path.as_str(), code.clone(), v.doctests.clone()));
        }
        let mut defs: BTreeMap<(bool, &str), Vec<String>> = BTreeMap::new();
        for (path, code, _) in files.iter().filter(|(p, ..)| lib(p)) {
            for (r, _) in idents(code).filter(|(_, w)| *w == "pub") {
                if let Some((kind, name)) = pub_item(code, r.end) {
                    let at = format!("{path}:{}: pub {kind} {name}", line_of(code, r.start));
                    defs.entry((kind == "fn", name)).or_default().push(at);
                }
            }
        }
        let mut calls: HashMap<&str, usize> = HashMap::new();
        let mut names: HashMap<&str, usize> = HashMap::new();
        for &(fun, name) in defs.keys() {
            let counts = if fun { &mut calls } else { &mut names };
            counts.insert(name, 0);
        }
        for (_, code, doctests) in &files {
            for text in [code, doctests] {
                for (_, w) in idents(text).filter(|(r, _)| is_call(text, r)) {
                    if let Some(n) = calls.get_mut(w) {
                        *n += 1;
                    }
                }
            }
            for (_, w) in idents(&without_uses(code)) {
                if let Some(n) = names.get_mut(w) {
                    *n += 1;
                }
            }
        }
        let mut v = Vec::new();
        for ((fun, name), at) in defs {
            let unused = if fun { calls[name] == 0 } else { names[name] <= at.len() };
            if unused {
                let why = if fun { "is never called" } else { "is never named" };
                v.extend(at.into_iter().map(|at| format!("{at} {why}")));
            }
        }
        v
    }
}

// ---------------------------------------------------------------------------
// The tree and the tests.

/// This file holds every rule's patterns and plants as data, so the rules
/// read the tree without it.
const RULES_FILE: &str = "tests/architecture.rs";

/// The repository's source tree: every Rust file, manifest and cargo
/// config, and every file under `crates`, `src` and `tests`, outside
/// `target` directories and hidden ones (`.cargo` excepted).
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut tree = Vec::new();
        walk(root, root, &mut tree);
        tree.sort();
        tree
    })
}

fn walk(root: &Path, dir: &Path, tree: &mut Tree) {
    for entry in fs::read_dir(dir).expect("a readable source directory") {
        let path = entry.expect("a readable directory entry").path();
        let rel =
            path.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/");
        let name = file_name(&rel);
        if path.is_dir() {
            if name != "target" && (name == ".cargo" || !name.starts_with('.')) {
                walk(root, &path, tree);
            }
            continue;
        }
        let wanted = is_rs(&rel)
            || name == "Cargo.toml"
            || rel.starts_with(".cargo/")
            || ["crates", "src", "tests"].iter().any(|d| under(&rel, d));
        if wanted && rel != RULES_FILE {
            let bytes = fs::read(&path).expect("a readable source file");
            tree.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
}

/// The tree with each `(path, text)` plant put at the top of the file at
/// `path`, which is created when the tree has none.
fn planted(plants: &[(&str, &str)]) -> Tree {
    let mut tree = tree().clone();
    for (path, text) in plants {
        match tree.iter_mut().find(|(p, _)| p == path) {
            Some((_, src)) => src.insert_str(0, text),
            None => tree.push((path.to_string(), text.to_string())),
        }
    }
    tree
}

/// Asserts that `rule` finds nothing in the tree, and that it reports each
/// of `plants` (one per file) in the tree with all of them planted.
fn holds(rule: fn(&Tree) -> Vec<String>, plants: &[(&str, &str)]) {
    let found = rule(tree());
    assert!(found.is_empty(), "violations:\n{}", found.join("\n"));
    let found = rule(&planted(plants));
    for (n, (path, text)) in plants.iter().enumerate() {
        assert!(plants[..n].iter().all(|(p, _)| p != path), "one plant per file");
        let reported = found.iter().any(|v| v.contains(path));
        assert!(reported, "planting {text:?} in {path} is not reported: {found:?}");
    }
}

#[test]
fn instruments_hold_no_process_wide_state() {
    holds(
        rules::instruments_hold_no_process_wide_state,
        &[
            ("crates/telemetry/src/planted.rs", "pub static PLANTED: u8 = 0;\n"),
            ("crates/tensor/src/kcount.rs", "thread_local! { static PLANTED: u8 = 0; }\n"),
        ],
    );
}

#[test]
fn planning_in_one_place() {
    holds(
        rules::planning_in_one_place,
        &[
            ("crates/core/src/planted.rs", "fn f(r: FlmmRelaxation) {}\n"),
            ("src/planted.rs", "fn f() { relaxation.solve(); }\n"),
            ("crates/core/src/engine.rs", "fn f() { agent.select_action(&state); }\n"),
        ],
    );
}

#[test]
fn one_codec_one_state() {
    holds(
        rules::one_codec_one_state,
        &[
            ("crates/core/src/planted.rs", "fn put_agent() {}\n"),
            ("crates/core/src/state.rs", "macro_rules! capture_state { () => {}; }\n"),
            ("tests/planted.rs", "pub struct AgentState;\n"),
            ("crates/fleet/src/planted.rs", "fn export_dormant() {}\n"),
            ("crates/core/Cargo.toml", "serde = \"1\"\n"),
            ("examples/planted.rs", "use serde::Serialize;\n"),
        ],
    );
}

#[test]
fn no_activation_transpose_feeding_a_gemm() {
    holds(
        rules::no_activation_transpose_feeding_a_gemm,
        &[("crates/drl/src/planted.rs", "fn f() { let _ = x.transpose2().matmul(&y); }\n")],
    );
}

#[test]
fn no_fma_in_the_source() {
    holds(
        rules::no_fma_in_the_source,
        &[
            ("crates/nn/src/planted.rs", "fn f(a: f32) -> f32 { a.mul_add(2.0, 1.0) }\n"),
            (
                "crates/tensor/src/planted.rs",
                "#[target_feature(enable = \"fma\")]\nunsafe fn f() {}\n",
            ),
            (".cargo/config.toml", "[build]\nrustflags = [\"-C\", \"target-cpu=native\"]\n"),
        ],
    );
}

#[test]
fn no_patch_matrix() {
    holds(
        rules::no_patch_matrix,
        &[
            ("crates/nn/src/planted.rs", "thread_local! { static PATCHES: u8 = 0; }\n"),
            ("crates/nn/src/conv.rs", "fn im2col() {}\n"),
        ],
    );
}

#[test]
fn no_activation_rearrange() {
    holds(
        rules::no_activation_rearrange,
        &[("crates/nn/src/conv.rs", "fn f() { let _k = Kernel::Transpose; }\n")],
    );
}

#[test]
fn top_k_selects_in_linear_time() {
    holds(
        rules::top_k_selects_in_linear_time,
        &[("crates/compress/src/sparse.rs", "fn f(v: &mut [u32]) { v.sort_unstable(); }\n")],
    );
}

#[test]
fn each_record_field_once() {
    holds(
        rules::each_record_field_once,
        &[("crates/diag/src/planted.rs", r#"const LINE: &str = "{\"kind\":\"round\"}";"#)],
    );
}

#[test]
fn one_binary() {
    holds(
        rules::one_binary,
        &[
            ("crates/core/src/bin/extra.rs", "fn main() {}\n"),
            ("crates/core/Cargo.toml", "[[bin]]\nname = \"extra\"\n"),
        ],
    );
}

#[test]
fn one_command_line_parser() {
    holds(
        rules::one_command_line_parser,
        &[("examples/planted.rs", "fn main() { let _ = std::env::args(); }\n")],
    );
}

#[test]
fn parallelism_in_one_place() {
    holds(
        rules::parallelism_in_one_place,
        &[
            ("src/planted.rs", "fn f() { let _ = std::thread::available_parallelism(); }\n"),
            ("crates/fleet/src/planted.rs", "fn f() { std::thread::scope(|_| {}); }\n"),
        ],
    );
}

#[test]
fn egress_in_one_place() {
    holds(
        rules::egress_in_one_place,
        &[
            ("crates/core/src/planted.rs", "fn f(dp: &DpConfig) { dp.apply(&mut p, &mut rng); }\n"),
            ("crates/core/src/fleet.rs", "fn f() {\n    DpConfig::apply(&dp, &mut p, rng);\n}\n"),
            (
                "crates/core/src/aggregate.rs",
                "fn f() { attack.corrupt_upload(i, epoch, &mut p); }\n",
            ),
        ],
    );
    // Neither a one-argument `apply` nor a test item counts.
    let plan = "fn f() { let _ = plan.apply(\n    &mix,\n); }\n";
    let test = "#[cfg(test)]\nfn t() { dp.apply(&mut p, &mut rng); }\n";
    let tree = planted(&[("crates/core/src/planted.rs", plan), ("crates/core/src/fleet.rs", test)]);
    assert_eq!(rules::egress_in_one_place(&tree), Vec::<String>::new());
}

#[test]
fn every_pub_item_is_used() {
    let rule = rules::every_pub_item_is_used;
    // Called only in a comment, an intra-doc link and a test item.
    let uncalled = "/// [`uncalled`]\npub fn uncalled() {}\n// uncalled();\n\
                    #[cfg(test)]\nmod tests {\n    fn t() {\n        super::uncalled();\n    }\n}\n";
    holds(
        rule,
        &[
            ("crates/core/src/planted.rs", "pub fn planted_and_never_called() {}\n"),
            ("crates/fleet/src/planted.rs", uncalled),
            ("crates/net/src/planted.rs", "pub struct PlantedAndNeverNamed;\n"),
            ("crates/nn/src/planted.rs", "pub const PLANTED: u8 = 0;\nuse self::PLANTED;\n"),
        ],
    );
    // A generic fn called once, and a fn called only in a doctest, are used.
    let used = "pub fn planted<R>(f: impl FnOnce() -> R) -> R {\n    f()\n}\n\
                pub fn run() -> u8 {\n    planted::<u8>(|| 1)\n}\n\
                /// ```\n/// fedmigr_core::documented();\n/// ```\npub fn documented() {}\n";
    assert_eq!(rule(&planted(&[("crates/core/src/planted.rs", used)])), Vec::<String>::new());
}

// ---------------------------------------------------------------------------
// The scanner's own tests: each fixes what is code and what is test.

/// `src`'s code and non-test code, each squeezed to single spaces.
fn squeezed(src: &str) -> (String, String) {
    let squeeze = |s: String| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let scan = Scan::new(src);
    (squeeze(scan.code()), squeeze(scan.non_test()))
}

#[test]
fn nested_block_comments_end_at_their_own_close() {
    let (code, _) = squeezed("a /* one /* two */ still one */ b /** doc */ c");
    assert_eq!(code, "a b c");
}

#[test]
fn raw_strings_hold_quotes_and_slashes() {
    let (code, _) = squeezed(
        r####"let s = r#"a " // b"#; // gone
let t = br##"x "# y"##; z"####,
    );
    assert_eq!(code, r####"let s = r#"a " // b"#; let t = br##"x "# y"##; z"####);
}

#[test]
fn a_quote_char_opens_no_string_and_a_lifetime_opens_no_char() {
    let (code, _) =
        squeezed("let q = '\"'; // gone\nfn f<'a>(x: &'a str) -> &'a str { x } // gone");
    assert_eq!(code, "let q = '\"'; fn f<'a>(x: &'a str) -> &'a str { x }");
    let (code, _) = squeezed(r"let e = '\''; let b = b'\\'; 'outer: loop {} // gone");
    assert_eq!(code, r"let e = '\''; let b = b'\\'; 'outer: loop {}");
}

#[test]
fn a_comment_marker_inside_a_string_is_string() {
    let (code, _) = squeezed("let u = \"http://x\"; y // gone\nlet e = \"\\\"//\"; z");
    assert_eq!(code, "let u = \"http://x\"; y let e = \"\\\"//\"; z");
}

#[test]
fn a_test_module_declaration_hides_only_itself() {
    let (code, non_test) = squeezed("mod pool;\n#[cfg(test)]\nmod reference;\nmod residual;\npub mod zoo;\n\npub use conv::Conv2d;\n");
    assert_eq!(
        code,
        "mod pool; #[cfg(test)] mod reference; mod residual; pub mod zoo; pub use conv::Conv2d;"
    );
    assert_eq!(non_test, "mod pool; mod residual; pub mod zoo; pub use conv::Conv2d;");
}

#[test]
fn a_mid_file_test_impl_hides_only_its_braces() {
    let src = "impl D { fn a() {} }\n\n#[cfg(test)]\nimpl D {\n    /// Tally.\n    pub(crate) fn counts(&self) -> Vec<usize> {\n        let s = \"}\";\n        vec![0; s.len()]\n    }\n}\n\n#[cfg(test)]\nmod tests {\n    use super::*;\n}\n\npub fn after() {}\n";
    let (_, non_test) = squeezed(src);
    assert_eq!(non_test, "impl D { fn a() {} } pub fn after() {}");
}

#[test]
fn a_test_only_crate_fn_hides_only_itself() {
    let src = "/// Doc.\n#[cfg(test)]\npub(crate) fn mean(q: &[Vec<f64>]) -> f64 {\n    if q.is_empty() {\n        return 0.0;\n    }\n    1.0\n}\n\n/// Population.\npub fn population(ds: &D) -> Vec<f64> { vec![] }\n";
    let (_, non_test) = squeezed(src);
    assert_eq!(non_test, "pub fn population(ds: &D) -> Vec<f64> { vec![] }");
}

#[test]
fn test_fields_arms_and_indented_items_end_at_their_own_end() {
    let src = "struct S {\n    #[cfg(test)]\n    seen: Vec<u8>,\n    kept: u8,\n}\nimpl L for S {\n    #[cfg(test)]\n    fn holds_cache(&self) -> bool {\n        true\n    }\n    fn forward(&self) {}\n}\n";
    let (_, non_test) = squeezed(src);
    assert_eq!(non_test, "struct S { kept: u8, } impl L for S { fn forward(&self) {} }");
}

#[test]
fn doctests_are_the_rust_blocks_of_doc_comments() {
    let src = "//! ```\n//! let a = lib::top(); // gone\n//! ```\n/// ```text\n/// not::code()\n/// ```\n/// ```no_run\n/// lib::run();\n/// ```\n// ```\n// lib::plain();\n// ```\nfn f() {}\n";
    let scan = Scan::new(src);
    let squeezed = scan.doctests().split_whitespace().collect::<Vec<_>>().join(" ");
    assert_eq!(squeezed, "let a = lib::top(); lib::run();");
}
