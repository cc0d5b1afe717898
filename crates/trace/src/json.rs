//! A minimal JSON value tree, renderer, and parser.
//!
//! The workspace builds offline with zero external dependencies, so this
//! is hand-rolled. Numbers are emitted losslessly for integers; floats
//! use `{:?}` formatting (shortest round-trip representation). The
//! parser exists so that JSONL traces written by [`crate::write_jsonl`]
//! can be replayed (by `pms-analyze`); it accepts any standard JSON
//! document, preferring `UInt`/`Int` for integral numbers so that `u64`
//! values round-trip exactly.

use crate::event::Field;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A finite float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a JSON document (the whole string must be one value plus
    /// optional surrounding whitespace).
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
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (`UInt`, or a non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
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

/// A JSON parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            msg: msg.into(),
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

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
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
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next `"` or `\` (or
                    // the end of input). Both are ASCII, so the run ends
                    // on a char boundary of the &str input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if neg {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        // Fractional, exponent, or out-of-range integer: fall back to f64.
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError {
                offset: start,
                msg: format!("invalid number `{text}`"),
            })
    }
}

impl From<Field<'_>> for Json {
    fn from(v: Field<'_>) -> Json {
        match v {
            Field::U(x) => Json::UInt(x),
            Field::Label(s) => Json::str(s),
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::str("héllo").render(), "\"héllo\"");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.25").unwrap(), Json::Float(0.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing value must error");
        assert!(Json::parse("\"\\ud800\"").is_err(), "lone surrogate");
    }

    #[test]
    fn roundtrip_escapes_and_extremes() {
        // The satellite cases: quotes, backslashes, control characters,
        // and full-range u64 values must all survive render -> parse.
        let cases = vec![
            Json::str("quote \" backslash \\ slash / done"),
            Json::str("ctrl \u{1} \u{1f} tab\t nl\n cr\r"),
            Json::str("héllo → 🚀"),
            Json::UInt(u64::MAX),
            Json::UInt(0),
            Json::Int(i64::MIN),
            Json::obj([
                ("k\"ey", Json::Array(vec![Json::UInt(1), Json::Null])),
                ("nested", Json::obj([("f", Json::Float(1.5))])),
                ("big", Json::UInt(u64::MAX - 1)),
            ]),
        ];
        for v in cases {
            let rendered = v.render();
            let parsed = Json::parse(&rendered).unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(parsed, v, "round-trip failed for {rendered}");
            // Pretty rendering must parse back to the same value too.
            let parsed_pretty = Json::parse(&v.render_pretty()).unwrap();
            assert_eq!(parsed_pretty, v);
        }

        // A string over 1 MiB mixing multi-byte runs with escaped quotes,
        // backslashes, `\u` escapes and surrogate pairs: string lexing is
        // linear, so this parses in milliseconds.
        let unit_raw = r#"héllo → 🚀 \" \\ \u00e9\ud83d\ude80 ünï "#;
        let unit_val = "héllo → 🚀 \" \\ é🚀 ünï ";
        let reps = (1 << 20) / unit_raw.len() + 1;
        let raw = format!("\"{}\"", unit_raw.repeat(reps));
        assert!(raw.len() >= 1 << 20);
        let long = Json::str(unit_val.repeat(reps));
        assert_eq!(Json::parse(&raw).unwrap(), long);
        assert_eq!(Json::parse(&long.render()).unwrap(), long);

        // Errors inside or at the end of a multi-byte run keep their
        // byte offsets: end of input for an unterminated string, just
        // past the bad escape character for an invalid escape.
        for text in ["\"abc → 🚀ü", "[\"ok\", \"🚀🚀"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, text.len(), "{text}");
            assert_eq!(err.msg, "unterminated string");
        }
        let text = "\"ü🚀\\q\"";
        let err = Json::parse(text).unwrap_err();
        assert_eq!(err.offset, text.find("\\q").unwrap() + 2);
        assert_eq!(err.msg, "invalid escape");
        let unterminated_long = &raw[..raw.len() - 1];
        let err = Json::parse(unterminated_long).unwrap_err();
        assert_eq!(err.offset, unterminated_long.len());
    }

    #[test]
    fn fault_event_jsonl_roundtrips() {
        use crate::event::{FaultClass, TraceEvent, TraceRecord};
        use crate::sink::record_json;
        let recs = [
            TraceRecord {
                t_ns: 100,
                slot: 1,
                event: TraceEvent::FaultInjected {
                    fault: 7,
                    class: FaultClass::LinkDown,
                    src: 2,
                    dst: 3,
                },
            },
            TraceRecord {
                t_ns: 200,
                slot: 2,
                event: TraceEvent::FaultCleared {
                    fault: 7,
                    class: FaultClass::StuckRelease,
                    src: 2,
                    dst: 3,
                },
            },
            TraceRecord {
                t_ns: 300,
                slot: 3,
                event: TraceEvent::MsgRetried {
                    src: 0,
                    dst: 5,
                    msg: 42,
                    attempt: 2,
                },
            },
            TraceRecord {
                t_ns: 400,
                slot: 4,
                event: TraceEvent::MsgAbandoned {
                    src: 0,
                    dst: 5,
                    msg: 42,
                    retries: 8,
                },
            },
        ];
        for rec in &recs {
            let doc = record_json(rec);
            let line = doc.render();
            let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, doc, "JSONL round-trip failed for {line}");
            assert_eq!(
                parsed.get("kind").and_then(Json::as_str),
                Some(rec.event.kind())
            );
            assert_eq!(parsed.get("t_ns").and_then(Json::as_u64), Some(rec.t_ns));
        }
        // The fault class travels as its label and parses back to the enum.
        let injected = Json::parse(&record_json(&recs[0]).render()).unwrap();
        let label = injected.get("class").and_then(Json::as_str).unwrap();
        assert_eq!(FaultClass::from_label(label), Some(FaultClass::LinkDown));
        let retried = Json::parse(&record_json(&recs[2]).render()).unwrap();
        assert_eq!(retried.get("attempt").and_then(Json::as_u64), Some(2));
        let abandoned = Json::parse(&record_json(&recs[3]).render()).unwrap();
        assert_eq!(abandoned.get("retries").and_then(Json::as_u64), Some(8));
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::str("A"));
        // Surrogate pair for 🚀 (U+1F680).
        assert_eq!(
            Json::parse(r#""\ud83d\ude80""#).unwrap(),
            Json::str("\u{1f680}")
        );
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":-2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_u64), None, "negative");
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("a").is_none());
    }

    #[test]
    fn containers_render_compact_and_pretty() {
        let v = Json::obj([
            ("a", Json::Array(vec![Json::UInt(1), Json::UInt(2)])),
            ("b", Json::obj([("c", Json::Null)])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(v.render(), r#"{"a":[1,2],"b":{"c":null},"empty":[]}"#);
        let pretty = v.render_pretty();
        assert!(
            pretty.contains("  \"a\": [\n    1,\n    2\n  ]"),
            "{pretty}"
        );
        assert!(pretty.ends_with("}\n"));
    }
}
