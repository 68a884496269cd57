//! Minimal JSON reader/writer: the pulse-cache persistence format and
//! the daemon's wire codec.
//!
//! The build environment has no crates.io access, so the cache's on-disk
//! format and every protocol frame are produced by this self-contained
//! module instead of serde. It supports exactly what [`crate::PulseCache`]
//! and the daemon protocol need: objects, arrays, strings, `f64` numbers
//! (round-tripped exactly via Rust's shortest representation), booleans,
//! and `null`. Object key order is preserved, which keeps the emitted
//! cache and every frame byte-deterministic.
//!
//! Both directions are single-pass and linear in the document size:
//! [`parse`] copies each unescaped string run with one `push_str` (the
//! input is already a validated `&str`), and the writers format numbers
//! straight into the output buffer. Group keys travel as lowercase hex
//! ([`hex_encode`] / [`hex_decode`]).

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Self::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline,
    /// byte-deterministic for a given value.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes onto a single line with no trailing newline — the
    /// framing the newline-delimited daemon protocol needs (a pretty
    /// document would split one message across frames). Strings escape
    /// control characters, so the output never contains a raw `\n`.
    /// Byte-deterministic for a given value, and [`parse`] round-trips
    /// it exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::json::JsonValue;
    ///
    /// let doc = JsonValue::Object(vec![
    ///     ("ok".into(), JsonValue::Bool(true)),
    ///     ("ids".into(), JsonValue::Array(vec![JsonValue::Number(1.0)])),
    /// ]);
    /// let line = doc.to_compact();
    /// assert_eq!(line, r#"{"ok": true, "ids": [1]}"#);
    /// assert!(!line.contains('\n'));
    /// assert_eq!(accqoc::json::parse(&line).unwrap(), doc);
    /// ```
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Number(n) => write_number(out, *n),
            Self::String(s) => write_string(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Self::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Number(n) => write_number(out, *n),
            Self::String(s) => write_string(out, s),
            Self::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Flat arrays of scalars stay on one line; nested ones wrap.
                let scalar = items
                    .iter()
                    .all(|v| !matches!(v, Self::Array(_) | Self::Object(_)));
                if scalar {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write_pretty(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        push_indent(out, indent + 1);
                        v.write_pretty(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    push_indent(out, indent);
                    out.push(']');
                }
            }
            Self::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    // Writing into a `String` cannot fail, so the `fmt::Result`s below
    // are always `Ok`.
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 9.0e15 && !(n == 0.0 && n.is_sign_negative()) {
            // Integral values (counts, whole-ns latencies) print without
            // the `.0`; parsing "18" yields bit-identical 18.0.
            let _ = write!(out, "{}", n as i64);
        } else {
            // `{:?}` is Rust's shortest representation that parses back
            // to exactly the same f64 — the cache round-trips rely on it.
            let _ = write!(out, "{n:?}");
        }
    } else {
        // JSON has no Inf/NaN; the cache never stores them, but degrade
        // gracefully rather than emitting invalid JSON.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole. Every byte that needs an escape is
    // ASCII, so each run boundary is a char boundary of `s`.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lowercase hex spelling of `bytes` — how group keys travel in the
/// cache artifact, the WAL, and every protocol frame.
///
/// # Examples
///
/// ```
/// use accqoc::json::{hex_decode, hex_encode};
///
/// assert_eq!(hex_encode(&[0, 15, 255]), "000fff");
/// assert_eq!(hex_decode("000fff").unwrap(), vec![0, 15, 255]);
/// ```
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[usize::from(b >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Decodes [`hex_encode`] output (either letter case).
///
/// # Errors
///
/// [`JsonError`] when `text` has odd length or holds anything but ASCII
/// hex digits — including multi-byte characters, which are rejected
/// before any byte pair is read.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, JsonError> {
    let bytes = text.as_bytes();
    if let Some(offset) = bytes.iter().position(|b| !b.is_ascii_hexdigit()) {
        return Err(JsonError {
            message: "key is not a hex string".into(),
            offset,
        });
    }
    if !bytes.len().is_multiple_of(2) {
        return Err(JsonError {
            message: "key is an odd-length hex string".into(),
            offset: bytes.len(),
        });
    }
    let nibble = |b: u8| match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        _ => b - b'A' + 10,
    };
    Ok(bytes
        .chunks_exact(2)
        .map(|pair| nibble(pair[0]) << 4 | nibble(pair[1]))
        .collect())
}

/// Maximum container nesting the parser accepts (serde_json uses the
/// same default). The recursive-descent parser would otherwise overflow
/// the stack on adversarially nested input instead of erroring.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] with a byte offset on malformed input, including
/// trailing garbage after the top-level value and nesting deeper than
/// 128 containers.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after json value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_nested(Parser::parse_object),
            Some(b'[') => self.parse_nested(Parser::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_nested(
        &mut self,
        inner: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 containers"));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("numeric bytes are ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError {
                message: format!("invalid number `{text}`"),
                offset: start,
            })
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one go. Both are
            // ASCII, so the run ends on a char boundary of the (already
            // validated) input and needs no UTF-8 check of its own.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.error("truncated unicode escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid unicode escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::String("cache".into())),
            (
                "entries".into(),
                JsonValue::Array(vec![JsonValue::Object(vec![
                    ("latency".into(), JsonValue::Number(12.5)),
                    (
                        "amps".into(),
                        JsonValue::Array(vec![JsonValue::Number(-0.125), JsonValue::Number(3.0)]),
                    ),
                    ("ok".into(), JsonValue::Bool(true)),
                    ("none".into(), JsonValue::Null),
                ])]),
            ),
        ]);
        let text = doc.to_pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn f64_roundtrips_exactly() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7, 10.0] {
            let text = JsonValue::Number(v).to_pretty();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} reparsed as {back}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash \t end\u{1}";
        let text = JsonValue::String(s.into()).to_pretty();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn multibyte_runs_mixed_with_escapes_roundtrip() {
        let s = "日本語 \"café\" back\\slash ü\n🦀 end\u{7}é";
        let text = JsonValue::String(s.into()).to_compact();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
        // `\uXXXX` escapes decode between multi-byte runs.
        let doc = r#""ü\u00e9日\u0041\"\\🦀\/""#;
        assert_eq!(parse(doc).unwrap().as_str().unwrap(), "üé日A\"\\🦀/");
        // Keys go through the same string parser.
        let doc = parse(r#"{"clé \u00e9": "värde"}"#).unwrap();
        assert_eq!(doc.get("clé é").and_then(JsonValue::as_str), Some("värde"));
    }

    #[test]
    fn raw_control_bytes_are_accepted_and_bad_strings_error() {
        // Lenient on input: raw control bytes inside a string parse as-is
        // (the writer always escapes them).
        let raw = "\"tab\there\u{1}nul\u{0}\"";
        assert_eq!(
            parse(raw).unwrap().as_str().unwrap(),
            "tab\there\u{1}nul\u{0}"
        );
        for bad in [
            "\"open",
            "\"open é",
            "\"escape at end\\",
            "\"bad \\q escape\"",
            "\"short \\u00\"",
            "\"not hex \\uzzzz\"",
            "{\"k\": \"v}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse("[\"abc").unwrap_err();
        assert_eq!(err.message, "unterminated string");
        assert_eq!(err.offset, 5);
    }

    #[test]
    fn long_string_parses_in_linear_time() {
        // A 4 MiB hex string (a dim-4 key is 520 chars). Re-validating
        // the rest of the input per character would scan ~8 TB here.
        let body = "0123456789abcdef".repeat(1 << 18);
        let doc = format!("{{\"key\": \"{body}\", \"n\": 1}}");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.get("key").and_then(JsonValue::as_str), Some(&*body));
        assert!(elapsed.as_secs_f64() < 5.0, "parse took {elapsed:?}");
    }

    #[test]
    fn hex_codec_roundtrips_and_rejects_non_hex() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = hex_encode(&bytes);
        assert_eq!(text.len(), 512);
        assert_eq!(&text[..8], "00010203");
        assert_eq!(&text[text.len() - 4..], "feff");
        assert_eq!(hex_decode(&text).unwrap(), bytes);
        assert_eq!(hex_decode("ABcd").unwrap(), vec![0xab, 0xcd]);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("0").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex");
        assert!(hex_decode("+1").is_err(), "sign is not a digit");
        // Even byte length, but a multi-byte char straddles a pair
        // boundary: rejected, not sliced.
        let err = hex_decode("aé0").unwrap_err();
        assert_eq!(err.offset, 1);
        assert!(hex_decode("éé").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // 128 levels are accepted…
        let ok = format!("{}null{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&ok).is_ok());
        // …but adversarial input (e.g. a corrupted cache file) errors.
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let mixed = format!("{}{}", "[{\"k\": ".repeat(100_000), "0");
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
        let err = parse("[1, @]").unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\": [1, 2.5], \"b\": \"x\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[0].as_usize(),
            Some(1)
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_usize(), None);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_f64(), None);
    }

    #[test]
    fn compact_output_is_single_line_and_roundtrips() {
        let doc = JsonValue::Object(vec![
            ("s".into(), JsonValue::String("multi\nline \"q\"".into())),
            (
                "nested".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![("k".into(), JsonValue::Number(0.1))]),
                    JsonValue::Null,
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let line = doc.to_compact();
        assert!(!line.contains('\n'), "compact output must be one frame");
        assert_eq!(parse(&line).unwrap(), doc);
        // Compact and pretty agree on content, not on bytes.
        assert_eq!(parse(&doc.to_pretty()).unwrap(), parse(&line).unwrap());
        assert_eq!(JsonValue::Array(vec![]).to_compact(), "[]");
        assert_eq!(JsonValue::Object(vec![]).to_compact(), "{}");
    }

    #[test]
    fn deterministic_output() {
        let doc = JsonValue::Array(vec![JsonValue::Number(0.1), JsonValue::Number(0.2)]);
        assert_eq!(doc.to_pretty(), doc.to_pretty());
        assert_eq!(doc.to_pretty(), "[0.1, 0.2]\n");
    }
}
