//! A dependency-free JSON document model.
//!
//! The workspace is built offline with no third-party crates, so the
//! machine-readable results layer hand-rolls its JSON: [`Json`] is the
//! document tree, [`Json::render`] the writer, and [`Json::parse`] a
//! small recursive-descent parser used to round-trip-validate every
//! file the harness writes (and to update `results/manifest.json` in
//! place).
//!
//! Numbers are carried as `f64`. Integral values with magnitude below
//! 2^53 render without a fractional part; non-finite values (which
//! JSON cannot represent) render as `null`.
//!
//! Checkpoint state is hundreds of kilobytes of string, so both string
//! scans step over eight bytes at a time, with one carry trick: the
//! writer over windows that hold nothing to escape, the parser over
//! windows that hold no `"` and no `\`. Each falls back to one byte at
//! a time only in the window that holds what it looks for. The writer
//! is generic over [`fmt::Write`], and a digest is the compact
//! rendering written into a sink, [`Fnv1a`], that folds each byte into
//! FNV-1a and keeps no text: [`Json::canonical_hash`] and a document's
//! seal ([`crate::document::seal`], [`crate::document::Fields::verify_seal`])
//! never build the compact string. The sink's one step,
//! [`Fnv1a::byte`], is public: a streamed seal
//! ([`crate::document::seal_streamed`],
//! [`crate::document::Fields::verify_seal_streamed`]) hands the sink to
//! the codec of one field, which folds that field's bytes in as its own
//! loop writes or reads them, so a checkpoint's state text is crossed
//! once on save and once on load, not once more for the seal.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (insertion order), which keeps
    /// rendered files stable across runs.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks a key up in an object (`None` for non-objects and missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            pairs.push((key.to_string(), value));
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — the format of every file under `results/`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0).expect("a String takes every write");
        out.push('\n');
        out
    }

    /// Renders the document on one line (no indentation).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out)
            .expect("a String takes every write");
        out
    }

    fn write<W: fmt::Write>(&self, out: &mut W, depth: usize) -> fmt::Result {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    out.write_str(if i == 0 { "\n" } else { ",\n" })?;
                    indent(out, depth + 1)?;
                    v.write(out, depth + 1)?;
                }
                out.write_char('\n')?;
                indent(out, depth)?;
                out.write_char(']')
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.write_str(if i == 0 { "\n" } else { ",\n" })?;
                    indent(out, depth + 1)?;
                    write_string(out, k)?;
                    out.write_str(": ")?;
                    v.write(out, depth + 1)?;
                }
                out.write_char('\n')?;
                indent(out, depth)?;
                out.write_char('}')
            }
            _ => self.write_compact(out),
        }
    }

    pub(crate) fn write_compact<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write_compact(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(out, k)?;
                    out.write_char(':')?;
                    v.write_compact(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// A canonical 64-bit content hash: FNV-1a over the compact
    /// rendering. Two documents hash equal iff they render identically
    /// — key *order* is significant (the codec layers above emit keys
    /// in a fixed order, so this is a stable identity for a scenario
    /// or result document).
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.json(self);
        h.finish()
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input (including
    /// trailing garbage after the document).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// 64-bit FNV-1a — the digest behind every hash a document carries —
/// as a [`fmt::Write`] sink: it folds in each byte written to it, one
/// after another, and keeps no text.
///
/// [`Fnv1a::byte`] is the one step every digest in the workspace is
/// made of. A codec that writes or reads a long string itself (the
/// checkpoint state text) folds each byte in as it goes, inside its own
/// loop, and a streamed seal ([`crate::document::seal_streamed`]) hands
/// it the digest to do so. The value is a `u64`, so a copy is a saved
/// position: a caller that must take back what it folded in restores
/// the copy.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The digest of nothing: FNV-1a's offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// The sink whose digest so far is `digest`: folding on from it
    /// continues the stream that `digest` is the digest of.
    #[must_use]
    pub const fn resume(digest: u64) -> Self {
        Self(digest)
    }

    /// Folds in one byte.
    #[inline(always)]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds in `value`'s compact rendering.
    pub fn json(&mut self, value: &Json) {
        value
            .write_compact(self)
            .expect("a digest takes every write");
    }

    /// The digest of everything folded in so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.byte(b);
        }
        Ok(())
    }
}

fn indent<W: fmt::Write>(out: &mut W, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_number<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        write!(out, "{}", v as i64)
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        write!(out, "{v}")
    }
}

pub(crate) fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs an escape is ASCII, so the clean runs
    // between them start and end on char boundaries and are copied
    // whole.
    let bytes = s.as_bytes();
    let (mut clean, mut at) = (0, 0);
    while at < bytes.len() {
        // A window of eight bytes with nothing to escape is stepped
        // over whole: checkpoint state is all such windows, and every
        // save renders it into the file.
        if let Some(window) = bytes.get(at..at + 8) {
            if !has_escape(u64::from_le_bytes(window.try_into().expect("eight bytes"))) {
                at += 8;
                continue;
            }
        }
        let b = bytes[at];
        at += 1;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "",
        };
        out.write_str(&s[clean..at - 1])?;
        out.write_str(escape)?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        }
        clean = at;
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of a lane of `window` is set if it borrowed when
/// `below` was subtracted from every byte: the carry trick, exact as a
/// yes/no over the window (a lane above a borrowing one may be marked
/// too, but only if some lane truly is below), and a byte ≥ `0x80`
/// never answers yes.
fn lanes_below(window: u64, below: u8) -> u64 {
    window.wrapping_sub(ONES * u64::from(below)) & !window & HIGH
}

/// [`lanes_below`]`(·, 1)` of `window` with `b` cleared out of it: a
/// lane is marked if some byte of the window equals `b`.
fn lanes_equal(window: u64, b: u8) -> u64 {
    lanes_below(window ^ (ONES * u64::from(b)), 1)
}

/// Whether any of the eight bytes packed in `window` is one
/// [`write_string`] escapes: below `0x20`, `"` or `\`.
fn has_escape(window: u64) -> bool {
    (lanes_below(window, 0x20) | lanes_equal(window, b'"') | lanes_equal(window, b'\\')) != 0
}

/// Whether any of the eight bytes packed in `window` ends a parsed
/// string's run of plain bytes: `"` or `\`.
fn ends_run(window: u64) -> bool {
    (lanes_equal(window, b'"') | lanes_equal(window, b'\\')) != 0
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain bytes up to the
                    // next quote or escape and append it as one slice:
                    // eight bytes a step while a window holds neither,
                    // then one at a time inside the window that does.
                    let start = self.pos;
                    while let Some(window) = self.bytes.get(self.pos..self.pos + 8) {
                        if ends_run(u64::from_le_bytes(window.try_into().expect("eight bytes"))) {
                            break;
                        }
                        self.pos += 8;
                    }
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    // The input is a `str`, and the run starts after and
                    // ends at an ASCII byte or the end: char boundaries,
                    // so the run is UTF-8 already.
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::from("fig3")),
            ("quick", Json::from(false)),
            ("points", Json::from(16u64)),
            ("saturation", Json::from(0.59)),
            ("note", Json::from("latency \"knee\" @ ~0.6\nsecond line")),
            (
                "loads",
                Json::arr([Json::from(0.05), Json::from(0.5), Json::from(0.9)]),
            ),
            (
                "nested",
                Json::obj([("empty_arr", Json::arr([])), ("n", Json::Null)]),
            ),
        ])
    }

    #[test]
    fn round_trips_pretty_and_compact() {
        let doc = sample();
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::from(16u64).render_compact(), "16");
        assert_eq!(Json::from(-3i64).render_compact(), "-3");
        assert_eq!(Json::from(0.59).render_compact(), "0.59");
    }

    #[test]
    fn non_finite_renders_as_null() {
        assert_eq!(Json::Num(f64::NAN).render_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render_compact(), "null");
    }

    #[test]
    fn escapes_round_trip() {
        let s = Json::from("tab\there \"quotes\" back\\slash\nnewline \u{1}ctl €");
        assert_eq!(Json::parse(&s.render_compact()).unwrap(), s);
    }

    /// The oracle for `write_string`: one match per character, no
    /// windows.
    fn write_string_per_byte(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[track_caller]
    fn assert_writes_like_the_per_byte_writer(s: &str) {
        let (mut windowed, mut per_byte) = (String::new(), String::new());
        write_string(&mut windowed, s).unwrap();
        write_string_per_byte(&mut per_byte, s);
        assert_eq!(windowed, per_byte, "{s:?}");
        assert_eq!(Json::parse(&windowed).unwrap(), Json::from(s));
    }

    #[test]
    fn the_windowed_string_writer_matches_the_per_byte_one() {
        // Every escape at every offset of a 16-byte stretch, with
        // 0..16 clean bytes after it — so it falls in the first window,
        // the second, and the per-byte tail.
        let escapes = [
            "\"", "\\", "\n", "\r", "\t", "\0", "\u{1}", "\u{1f}", "\"\\", "\n\n",
        ];
        // Not escaped, though each is one step from a byte that is.
        let clean = [
            " ", "!", "#", "[", "]", "\u{7f}", "é", "€", "😀", "\u{80}", "\u{ff}",
        ];
        for lead in 0..16 {
            for tail in 0..16 {
                for mid in escapes.iter().chain(&clean) {
                    let s = format!("{}{mid}{}", "a".repeat(lead), "z".repeat(tail));
                    assert_writes_like_the_per_byte_writer(&s);
                }
            }
        }
        // Multi-byte characters across the 8-byte window edge at every
        // phase, next to an escape on either side, and nothing but
        // bytes ≥ 0x80.
        for lead in 0..9 {
            let pad = "a".repeat(lead);
            for s in [
                format!("{pad}é€😀é€😀"),
                format!("{pad}€\"😀\\é\n€"),
                format!("{pad}😀😀😀😀{pad}\t"),
                format!("\u{1}{pad}€€€€€€"),
            ] {
                assert_writes_like_the_per_byte_writer(&s);
            }
        }
        assert_writes_like_the_per_byte_writer("");
        assert_writes_like_the_per_byte_writer(&"0 1f 6b726f7774656e ".repeat(500));
    }

    #[test]
    fn the_window_test_is_exact_for_every_byte_at_every_position() {
        // Each byte value in each lane, among fillers that sit on the
        // borrow edges of the three subtractions.
        for filler in [b'a', 0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xff] {
            for lane in 0..8 {
                for b in 0..=u8::MAX {
                    let mut window = [filler; 8];
                    window[lane] = b;
                    let want = b < 0x20 || b == b'"' || b == b'\\';
                    assert_eq!(
                        has_escape(u64::from_le_bytes(window)),
                        want,
                        "{b:#04x} in lane {lane} of {filler:#04x}s"
                    );
                }
            }
        }
    }

    #[test]
    fn the_windowed_string_scan_stops_at_every_offset() {
        // Each of these at every offset 0..24 of a string whose length
        // straddles a multiple of 8, so it sits in the first window, a
        // later one or the byte-at-a-time tail, and the closing quote
        // does too. `(spelled, value)`: the raw bytes in the document
        // and what they parse to.
        let specials = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\n", "\n"),
            ("\\u0001", "\u{1}"),
            ("\u{1}", "\u{1}"),
            ("\u{1f}", "\u{1f}"),
            ("é", "é"),
            ("€", "€"),
            ("😀", "😀"),
        ];
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33] {
            for at in 0..24.min(len + 1) {
                for (spelled, value) in specials {
                    let (head, tail) = ("a".repeat(at), "z".repeat(len - at));
                    let want = format!("{head}{value}{tail}");
                    // A value after the string: the scan stopped at
                    // its quote, not at the end of the input.
                    let doc = format!("[\"{head}{spelled}{tail}\",7]");
                    assert_eq!(
                        Json::parse(&doc),
                        Ok(Json::arr([Json::from(want.as_str()), Json::from(7u64)])),
                        "{doc:?}"
                    );
                }
            }
            // No special at all, and the quote never comes.
            let plain = "p".repeat(len);
            assert_eq!(
                Json::parse(&format!("\"{plain}\"")),
                Ok(Json::from(plain.as_str()))
            );
            let e = Json::parse(&format!("\"{plain}")).unwrap_err();
            assert_eq!((e.offset, &e.message[..]), (len + 1, "unterminated string"));
        }
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""€ 😀""#).unwrap(), Json::from("€ 😀"));
    }

    #[test]
    fn parses_multimegabyte_strings_in_linear_time() {
        // Checkpoint files carry multi-megabyte hex state strings; the
        // string scanner must stay linear (a per-character re-validation
        // of the remaining input turns this test into a multi-minute
        // hang rather than milliseconds).
        let big = "0123456789abcdef".repeat(128 * 1024); // 2 MiB
        let doc = format!("{{\"state\": \"{big}\", \"tail\": \"é\\n\"}}");
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some(&big[..]));
        assert_eq!(parsed.get("tail").and_then(Json::as_str), Some("é\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn get_and_set_manipulate_objects() {
        let mut doc = sample();
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(16.0));
        assert_eq!(doc.get("missing"), None);
        doc.set("points", Json::from(17u64));
        doc.set("new_key", Json::from("v"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(17.0));
        assert_eq!(doc.get("new_key").and_then(Json::as_str), Some("v"));
    }

    #[test]
    fn scientific_notation_parses() {
        assert_eq!(
            Json::parse("[1e3, -2.5E-2, 0.0]").unwrap(),
            Json::arr([Json::from(1000.0), Json::from(-0.025), Json::from(0.0)])
        );
    }
}
