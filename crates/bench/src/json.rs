//! Minimal std-only JSON reader/writer for the sweep store.
//!
//! The workspace is std-only by constraint, so the store's on-disk format
//! is parsed with this ~250-line module instead of serde. Two properties
//! matter more than generality:
//!
//! 1. **u64 precision.** Cache salts and seeds are full-range `u64`s; an
//!    f64 round-trip silently corrupts them above 2^53. Numbers are kept
//!    as raw token strings and converted on demand (`as_u64` / `as_i64` /
//!    `as_f64`), so a value survives parse → emit byte-exactly.
//! 2. **Never panic on malformed input.** Store files can be truncated or
//!    corrupted mid-write; [`parse`] returns `Err`, callers skip the cell.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their raw token text (see module docs);
/// objects use a [`BTreeMap`] so iteration — and re-emission — is canonical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw unparsed token (e.g. `"18446744073709551615"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes the value as compact single-line JSON.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    /// Serializes an object with one top-level member per line (each
    /// member compact), so a line diff of two documents names the member
    /// that moved. Anything but an object emits as [`Json::emit`] does.
    pub fn emit_lines(&self) -> String {
        let Json::Obj(m) = self else {
            return self.emit();
        };
        let mut out = String::from("{\n");
        for (i, (k, val)) in m.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            escape_into(k, &mut out);
            out.push(':');
            val.emit_into(&mut out);
        }
        out.push_str("\n}\n");
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, val)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    val.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience constructors for building values to emit.
impl Json {
    /// A number value from a `u64`.
    pub fn num_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// JSON-escapes `s` (with surrounding quotes) into `out`.
fn escape_into(s: &str, out: &mut String) {
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

/// Parses one JSON document. Trailing non-whitespace is an error, as is any
/// malformed construct — the store treats a failed parse as a corrupt cell.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("invalid number at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Validate it is a number (f64 accepts every JSON numeric form); the
    // raw token is what we keep.
    raw.parse::<f64>()
        .map_err(|_| format!("invalid number {raw:?} at byte {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs: only BMP escapes are emitted by
                        // this module; accept lone surrogates as U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the longest run of unescaped bytes in one chunk.
                // `"` and `\` are ASCII and never occur inside a multi-byte
                // UTF-8 sequence, so stopping at them cannot split a scalar
                // — the chunk is validated once, keeping parsing linear in
                // the document size (per-char validation of the remaining
                // suffix made multi-megabyte manifests quadratic to load).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip_is_exact() {
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let doc = format!("{{\"v\":{v}}}");
            let parsed = parse(&doc).unwrap();
            assert_eq!(parsed.get("v").unwrap().as_u64(), Some(v));
            assert_eq!(parsed.emit(), doc, "byte-exact re-emission");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a\"b\\c\nd\te\u{1}f — π";
        let doc = Json::obj([("s", Json::str(tricky))]).emit();
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = r#"{"a":[1,2,{"b":true,"c":null}],"d":-3.5,"e":[]}"#;
        let parsed = parse(doc).unwrap();
        assert_eq!(parsed.emit(), doc);
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(parsed.get("d").unwrap().as_f64(), Some(-3.5));
    }

    #[test]
    fn emit_lines_puts_one_top_level_member_per_line() {
        let doc = parse(r#"{"b":{"x":[1,2]},"a":"s","c":[{"y":true}]}"#).unwrap();
        let text = doc.emit_lines();
        assert_eq!(
            text,
            "{\n\"a\":\"s\",\n\"b\":{\"x\":[1,2]},\n\"c\":[{\"y\":true}]\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(Json::Arr(vec![]).emit_lines(), "[]");
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nul",
            "{\"a\":--3}",
            "\"bad\\escape\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail to parse");
        }
    }

    #[test]
    fn whitespace_tolerated_between_tokens() {
        let parsed = parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\" : \"x\" }\n").unwrap();
        assert_eq!(parsed.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(parsed.emit(), r#"{"a":[1,2],"b":"x"}"#);
    }
}
