//! The workspace's one JSON reader/writer.
//!
//! The workspace is dependency-free by policy, and its JSON needs are a
//! small, *total* subset. Three users share this module:
//!
//! * the serve protocol (`rtdc_serve::json` re-exports it): one request
//!   object parsed per line, one response object rendered per line;
//! * the JSONL trace format ([`crate::trace`]): [`crate::trace::parse_line`]
//!   reads every trace line through [`parse`], and the preamble writer
//!   escapes its free-form names with [`escape`];
//! * `benchguard`, which parses the `BENCH_*.json` reports.
//!
//! The parser is written for the fuzz batteries first — bounded
//! recursion depth, no panics on any byte sequence, every rejection a
//! typed [`JsonError`] — and for fidelity second (numbers are kept as
//! `f64`, and integral fields are range-checked at extraction time).

#![deny(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser. Requests are flat
/// objects; anything deeper is hostile or broken input, and a bound here
/// turns a stack overflow into a typed error.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; the protocol's integral fields are
    /// range-checked at extraction time).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. A `BTreeMap` so iteration (and thus any re-rendering)
    /// is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a non-negative integer below 2^53. Every integer in
    /// that range has its own `f64`; above it, distinct numerals (2^53
    /// and 2^53 + 1) parse to one value, so they are refused rather than
    /// silently rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n < 2f64.powi(53) && n.fract() == 0.0 => {
                // A whole number in [0, 2^53): the cast is exact.
                #[allow(clippy::cast_possible_truncation)]
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Why a byte sequence was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
    pub at: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value spanning all of `text` (trailing
/// whitespace allowed, trailing garbage rejected).
///
/// # Errors
///
/// [`JsonError`] naming the offset and reason of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing garbage after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte {c:#04x}"))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if map.insert(key, val).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits them.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte in one step. Those stop bytes are
                    // ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }
}

/// Escapes `s` into a JSON string literal (with the surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An incremental JSON-object writer with deterministic field order
/// (fields appear exactly in the order they are pushed).
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> ObjWriter {
        ObjWriter { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&escape(key));
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(&escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field rendered with `prec` decimal places.
    pub fn f64(&mut self, key: &str, value: f64, prec: usize) -> &mut Self {
        self.key(key);
        self.buf.push_str(&format!("{value:.prec$}"));
        self
    }

    /// Adds a bool field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a raw, already-rendered JSON value (e.g. a nested object).
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let v = parse(r#"{"op":"run","bench":"sort","scheme":"d+rf","max_insns":1000}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
        assert_eq!(v.get("max_insns").and_then(Json::as_u64), Some(1000));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_escapes() {
        let raw = "line1\nline2\t\"quoted\" \\ \u{1}";
        let rendered = escape(raw);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(raw));
    }

    #[test]
    fn rejects_depth_bombs_and_garbage() {
        let bomb = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&bomb).is_err());
        for bad in [
            "",
            "{",
            "}",
            "nul",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "1 2",
            "\"\\q\"",
            r#"{"a":1,"a":2}"#,
            "NaN",
            "1e999",
            "\"a\u{1}b\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"abc",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn obj_writer_is_deterministic_and_parseable() {
        let mut w = ObjWriter::new();
        w.str("op", "stats")
            .u64("n", 7)
            .bool("ok", true)
            .f64("x", 0.5, 4);
        let line = w.finish();
        assert_eq!(line, r#"{"op":"stats","n":7,"ok":true,"x":0.5000}"#);
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn numbers_out_of_integer_range_are_not_u64() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        // 2^53 + 1 parses to the same f64 as 2^53: neither is an integer
        // the codec can tell apart, so both are refused.
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn a_line_cap_sized_string_parses_in_linear_time() {
        // 1 MiB is the serve protocol's line cap. A per-character rescan
        // of the rest of the input made this quadratic (tens of seconds
        // in release); a linear scan takes milliseconds even in debug.
        let body = "é".repeat((1 << 20) / 2 - 1);
        let line = format!("\"{body}\"");
        let t0 = std::time::Instant::now();
        let v = parse(&line).unwrap();
        assert_eq!(v.as_str(), Some(body.as_str()));
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }
}
