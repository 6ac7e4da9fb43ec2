//! Minimal std-only JSON: one pull [`Reader`], a [`Json`] tree built on
//! it, the tree's emitter, and a streaming [`Writer`].
//!
//! The workspace is std-only by constraint, so every JSON document — the
//! canonical spec encoding ([`ScenarioSpec::canonical`](crate::scenario::ScenarioSpec::canonical)),
//! witness files, the sweep store's cells and manifests, reports — is read
//! and written by this module instead of serde. There is one lexer,
//! [`Reader`], with two consumers: [`parse`] builds a [`Json`] tree from it
//! (manifests, witness files, reports — documents read once), and the
//! store's cell decoder pulls a cell's fields straight off it, with no
//! tree in between (millions of lines per resumed campaign). On the way
//! out, [`Writer`] streams canonical text into any [`fmt::Write`] sink
//! with no tree either: the spec encoder writes through it into a `String`
//! or straight into the fingerprint hasher. Three properties matter more
//! than generality:
//!
//! 1. **u64 precision.** Cache salts and seeds are full-range `u64`s; an
//!    f64 round-trip silently corrupts them above 2^53. The reader hands
//!    out a number as its raw token ([`Reader::number`]) or as a `u64`
//!    parsed from that token ([`Reader::u64`]), and the tree keeps the raw
//!    token (`as_u64` / `as_f64` convert on demand), so a value survives
//!    parse → emit byte-exactly.
//! 2. **Never panic on malformed input.** Store files can be truncated or
//!    corrupted mid-write; every reader method returns `Err`, callers skip
//!    the cell. That includes hostile nesting: containers deeper than a
//!    fixed cap are an `Err`, not a stack overflow.
//! 3. **One grammar.** Both consumers accept exactly the same text, since
//!    both are the same lexer. It is RFC 8259 plus what the previous
//!    tree-only parser tolerated and run directories may therefore hold:
//!    number tokens are any run of `0-9 . e E + -` that `f64` can parse
//!    (so `+5`, `007`, `1.`), raw control characters may sit inside
//!    strings, and a lone surrogate escape reads as U+FFFD.

use std::collections::BTreeMap;
use std::fmt;

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

/// Typed member access for documents that are read once into a struct
/// (manifests, witness files): each accessor is `get` + `as_…` with an
/// `Err` that names the key and the type the caller wanted.
impl Json {
    /// The member `key` of an object.
    pub fn at(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    /// The member `key`, which must be a number that fits a `u64`.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.at(key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not a u64"))
    }

    /// The member `key`, which must be a string.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.at(key)?
            .as_str()
            .ok_or_else(|| format!("`{key}` is not a string"))
    }

    /// The member `key`, which must be a bool.
    pub fn bool_at(&self, key: &str) -> Result<bool, String> {
        self.at(key)?
            .as_bool()
            .ok_or_else(|| format!("`{key}` is not a bool"))
    }

    /// The member `key`, which must be an array.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], String> {
        self.at(key)?
            .as_arr()
            .ok_or_else(|| format!("`{key}` is not an array"))
    }

    /// The member `key`, decoded by `decode`; an error from inside it is
    /// prefixed with the key, so nested failures read as a path
    /// (`spec: adversary[0]: `pct` is 300 …`).
    pub fn decode_at<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        decode(self.at(key)?).map_err(|e| format!("{key}: {e}"))
    }

    /// Every element of the array member `key`, decoded by `decode`; an
    /// error is prefixed with `key[i]`.
    pub fn decode_each_at<T>(
        &self,
        key: &str,
        decode: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.arr_at(key)?
            .iter()
            .enumerate()
            .map(|(i, item)| decode(item).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
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

/// JSON-escapes `s` (with surrounding quotes) into `out`. Runs that need
/// no escape are copied as one chunk.
pub fn escape_into(s: &str, out: &mut impl fmt::Write) {
    // Writing to a `String` or a hasher cannot fail.
    let _ = out.write_str("\"");
    let mut chunk = 0;
    for (at, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        let _ = out.write_str(&s[chunk..at]);
        let _ = if escape.is_empty() {
            write!(out, "\\u{b:04x}")
        } else {
            out.write_str(escape)
        };
        chunk = at + 1;
    }
    let _ = out.write_str(&s[chunk..]);
    let _ = out.write_str("\"");
}

/// A streaming emitter of compact JSON into any [`fmt::Write`] sink — a
/// `String`, or a hasher that digests the text without keeping it
/// ([`fd_sim::Fnv1a64`]). It is driven like the [`Reader`] in reverse:
/// `begin_obj`, then [`key`](Writer::key) before each member's value, then
/// `end_obj`; `begin_arr`, then [`item`](Writer::item) before each element,
/// then `end_arr`. The writer places the commas; it does not check the
/// shape.
///
/// Output is canonical — byte-equal to [`Json::emit`] of its own parse —
/// when the caller writes each object's members in ascending key order.
/// Nothing is allocated.
#[derive(Debug)]
pub struct Writer<'w, W: fmt::Write> {
    out: &'w mut W,
    /// Set by `{` / `[`, cleared by the first `key` / `item` after it.
    fresh: bool,
}

impl<'w, W: fmt::Write> Writer<'w, W> {
    /// A writer appending to `out`.
    pub fn new(out: &'w mut W) -> Self {
        Writer { out, fresh: false }
    }

    fn put(&mut self, s: &str) {
        // Writing to a `String` or a hasher cannot fail.
        let _ = self.out.write_str(s);
    }

    fn open(&mut self, bracket: &str) {
        self.put(bracket);
        self.fresh = true;
    }

    fn close(&mut self, bracket: &str) {
        self.put(bracket);
        self.fresh = false;
    }

    fn separate(&mut self) {
        if !std::mem::replace(&mut self.fresh, false) {
            self.put(",");
        }
    }

    /// Writes `{`.
    pub fn begin_obj(&mut self) {
        self.open("{");
    }

    /// Writes `}`.
    pub fn end_obj(&mut self) {
        self.close("}");
    }

    /// Writes `[`.
    pub fn begin_arr(&mut self) {
        self.open("[");
    }

    /// Writes `]`.
    pub fn end_arr(&mut self) {
        self.close("]");
    }

    /// Starts the open object's next member: the comma before it (none
    /// before the first), `key` and `:`. Its value is written next. Keys
    /// are identifiers and are written as they are, unescaped.
    pub fn key(&mut self, key: &'static str) {
        debug_assert!(
            !key.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'),
            "{key:?} needs escaping"
        );
        self.separate();
        self.put("\"");
        self.put(key);
        self.put("\":");
    }

    /// Starts the open array's next element (the comma before it, none
    /// before the first). The element is written next.
    pub fn item(&mut self) {
        self.separate();
    }

    /// Writes a `u64` as its exact decimal token.
    pub fn u64(&mut self, v: u64) {
        const DIGITS: &str = "0123456789";
        if v < 10 {
            let v = v as usize;
            return self.put(&DIGITS[v..v + 1]);
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = v;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        // ASCII digits only.
        self.put(std::str::from_utf8(&digits[at..]).unwrap_or_default());
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.put(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.put("null");
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, v: &str) {
        escape_into(v, self.out);
    }
}

/// Parses one JSON document into a [`Json`] tree. Trailing non-whitespace
/// is an error, as is any malformed construct or nesting deeper than the
/// reader's cap — the store treats a failed parse as a corrupt cell.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut reader = Reader::new(input);
    let value = reader.tree(&mut String::new())?;
    reader.end()?;
    Ok(value)
}

/// Containers nested deeper than this are an `Err`, so the recursive
/// consumers ([`parse`], [`Reader::skip`]) use bounded stack on any input.
/// Manifests and witness files nest at most 6 deep.
const MAX_DEPTH: u32 = 128;

/// A pull reader over one JSON document: the module's only lexer.
///
/// The caller drives it with the shape it expects — `begin_obj`, then
/// `key` until it returns `None`, reading or [`skip`](Reader::skip)ping
/// one value after each key; `begin_arr`, then one value after each `true`
/// from `more` — and gets an `Err` wherever the text disagrees. Nothing is
/// allocated: strings without an escape are borrowed from the input, the
/// others are unescaped into a buffer the caller lends.
///
/// The reader is `Copy`: a caller that wants to retry a value under a
/// different shape saves the reader before the attempt and restores it.
///
/// Its lexing methods are `#[inline]`: the store's cell decoder calls them
/// once per token from another crate, and without LTO nothing else lets
/// them inline there.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: u32,
    /// Set by `{` / `[`, cleared by the first `key` / `more` after it:
    /// whether the next element is the container's first (no comma).
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        if self.peek() != Some(bracket) {
            return Err(format!(
                "expected '{}' at byte {}",
                bracket as char, self.pos
            ));
        }
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Consumes `{`.
    #[inline]
    pub fn begin_obj(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Consumes `[`.
    #[inline]
    pub fn begin_arr(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Steps to the open container's next element: consumes the comma
    /// before it (none before the first) and returns `true`, or consumes
    /// `close` and returns `false`.
    #[inline]
    fn next_element(&mut self, close: u8) -> Result<bool, String> {
        match (self.peek(), self.fresh) {
            (Some(b), _) if b == close && self.depth > 0 => {
                self.pos += 1;
                self.depth -= 1;
                self.fresh = false;
                Ok(false)
            }
            (Some(_), true) => {
                self.fresh = false;
                Ok(true)
            }
            (Some(b','), false) => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Whether the open array has another element; consumes `]` if not.
    #[inline]
    pub fn more(&mut self) -> Result<bool, String> {
        self.next_element(b']')
    }

    /// The open object's next key (with its `:` consumed), or `None` once
    /// `}` is consumed. `buf` is used as in [`Reader::str`].
    #[inline]
    pub fn key<'b>(&mut self, buf: &'b mut String) -> Result<Option<&'b str>, String>
    where
        'a: 'b,
    {
        if !self.next_element(b'}')? {
            return Ok(None);
        }
        let key = self.str(buf)?;
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Reads a string: borrowed from the input when it has no escape,
    /// unescaped into `buf` (cleared first) otherwise.
    #[inline]
    pub fn str<'b>(&mut self, buf: &'b mut String) -> Result<&'b str, String>
    where
        'a: 'b,
    {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let src = self.src;
        let bytes = src.as_bytes();
        // `"` and `\` are ASCII and never occur inside a multi-byte UTF-8
        // sequence, so every slice below starts and ends on a scalar
        // boundary. Unescaped runs are copied (or borrowed) as one chunk.
        let mut chunk = self.pos + 1;
        let mut at = chunk;
        let mut escaped = false;
        loop {
            match bytes.get(at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos = at + 1;
                    if !escaped {
                        return Ok(&src[chunk..at]);
                    }
                    buf.push_str(&src[chunk..at]);
                    return Ok(buf);
                }
                Some(b'\\') => {
                    if !escaped {
                        buf.clear();
                        escaped = true;
                    }
                    buf.push_str(&src[chunk..at]);
                    at += 2;
                    buf.push(match bytes.get(at - 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = src.get(at..at + 4).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            at += 4;
                            // Surrogate pairs: only BMP escapes are emitted by
                            // this module; accept lone surrogates as U+FFFD.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err("bad escape".into()),
                    });
                    chunk = at;
                }
                Some(_) => at += 1,
            }
        }
    }

    /// Reads a number and returns its raw token (see the module docs).
    #[inline]
    pub fn number(&mut self) -> Result<&'a str, String> {
        self.peek();
        let start = self.pos;
        let mut digits_only = true;
        for &b in &self.src.as_bytes()[start..] {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => digits_only = false,
                _ => break,
            }
            self.pos += 1;
        }
        let raw = &self.src[start..self.pos];
        // f64 accepts every JSON numeric form; a run of digits needs no
        // second look.
        if raw.is_empty() || (!digits_only && raw.parse::<f64>().is_err()) {
            return Err(format!("invalid number {raw:?} at byte {start}"));
        }
        Ok(raw)
    }

    /// Reads a number that is a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        let raw = self.number()?;
        raw.parse().map_err(|_| format!("{raw:?} is not a u64"))
    }

    /// Reads `null` as `None`, anything else as [`Reader::u64`].
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        if self.lit("null") {
            return Ok(None);
        }
        self.u64().map(Some)
    }

    /// Reads `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), String> {
        if self.lit("null") {
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        if self.lit("true") {
            Ok(true)
        } else if self.lit("false") {
            Ok(false)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Consumes `word` if the next token starts with it.
    #[inline]
    fn lit(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.src.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Reads one value of any shape and drops it, checking its syntax as
    /// [`parse`] would. `buf` is scratch for its strings.
    pub fn skip(&mut self, buf: &mut String) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_obj()?;
                while self.key(buf)?.is_some() {
                    self.skip(buf)?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_arr()?;
                while self.more()? {
                    self.skip(buf)?;
                }
                Ok(())
            }
            Some(b'"') => self.str(buf).map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.null(),
            Some(_) => self.number().map(drop),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Reads one value of any shape into a tree.
    fn tree(&mut self, buf: &mut String) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_obj()?;
                let mut map = BTreeMap::new();
                while let Some(key) = self.key(buf)? {
                    let key = key.to_owned();
                    map.insert(key, self.tree(buf)?);
                }
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                self.begin_arr()?;
                let mut items = Vec::new();
                while self.more()? {
                    items.push(self.tree(buf)?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.str(buf)?.to_owned())),
            Some(b't' | b'f') => self.bool().map(Json::Bool),
            Some(b'n') => self.null().map(|()| Json::Null),
            Some(_) => Ok(Json::Num(self.number()?.to_owned())),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Checks that only whitespace is left.
    #[inline]
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {}", self.pos)),
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
            "[1,]",
            "[,1]",
            "{,}",
            "{\"a\":1,}",
            "[1}",
            "{\"a\":1]",
            "]",
            "-",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail to parse");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 100,000 frames of the old recursive descent overflowed the 8 MB
        // main-thread stack, let alone a 2 MB test thread's.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            assert!(parse(&open.repeat(100_000)).is_err(), "{open:?} × 100000");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH as usize)).is_ok());
        assert!(parse(&nested(MAX_DEPTH as usize + 1)).is_err());
        let deep = "[".repeat(1 << 20);
        assert!(Reader::new(&deep).skip(&mut String::new()).is_err());
    }

    #[test]
    fn reader_pulls_a_document_without_a_tree() {
        let doc = r#" {"n": 18446744073709551615, "t": null, "s": "plain — π",
            "e": "a\"b\\c\/d\u00e9\n", "skip": {"x": [1, {"y": []}, "]"]}, "l": [true, false],
            "k\u0065y": 7} "#;
        let mut buf = String::new();
        let mut r = Reader::new(doc);
        r.begin_obj().unwrap();
        assert_eq!(r.key(&mut buf), Ok(Some("n")));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.key(&mut buf), Ok(Some("t")));
        assert_eq!(r.opt_u64(), Ok(None));
        assert_eq!(r.key(&mut buf), Ok(Some("s")));
        // No escape: the string is a slice of the input, `buf` untouched.
        let plain = r.str(&mut buf).unwrap();
        assert_eq!(plain, "plain — π");
        assert!(doc.as_bytes().as_ptr_range().contains(&plain.as_ptr()));
        assert_eq!(r.key(&mut buf), Ok(Some("e")));
        assert_eq!(r.str(&mut buf), Ok("a\"b\\c/dé\n"));
        assert_eq!(buf, "a\"b\\c/dé\n");
        assert_eq!(r.key(&mut buf), Ok(Some("skip")));
        r.skip(&mut buf).unwrap();
        assert_eq!(r.key(&mut buf), Ok(Some("l")));
        r.begin_arr().unwrap();
        assert_eq!(r.more(), Ok(true));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.more(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.more(), Ok(false));
        assert_eq!(r.key(&mut buf), Ok(Some("key")));
        assert_eq!(r.opt_u64(), Ok(Some(7)));
        assert_eq!(r.key(&mut buf), Ok(None));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn reader_rejects_what_the_caller_did_not_expect() {
        let buf = &mut String::new();
        assert!(Reader::new("[1]").begin_obj().is_err());
        assert!(Reader::new("{}").begin_arr().is_err());
        assert!(Reader::new("\"1\"").u64().is_err());
        assert!(Reader::new("1").str(buf).is_err());
        assert!(Reader::new("1").bool().is_err());
        assert!(Reader::new("{} x").skip(buf).is_ok());
        for (text, value) in [("1.0", None), ("-1", None), ("1e3", None), ("+5", Some(5))] {
            assert_eq!(Reader::new(text).u64().ok(), value, "{text}");
        }
        assert!(Reader::new("18446744073709551616").u64().is_err());
        // Closers are checked against the container they close, and none
        // is accepted with nothing open.
        assert!(Reader::new("]").more().is_err());
        assert!(Reader::new("}").key(buf).is_err());
        let mut r = Reader::new("[1}");
        r.begin_arr().unwrap();
        assert_eq!(r.more(), Ok(true));
        assert_eq!(r.u64(), Ok(1));
        assert!(r.more().is_err());
        // A value skipped is a value checked.
        for bad in ["[1,", "{\"a\":tru}", "\"\\q\"", "nul", "--1", "[1 2]"] {
            assert!(Reader::new(bad).skip(buf).is_err(), "{bad:?}");
        }
        // The reader is `Copy`: a failed attempt is undone by restoring it.
        let mut r = Reader::new("[\"x\", 2]");
        r.begin_arr().unwrap();
        assert_eq!(r.more(), Ok(true));
        let before = r;
        assert!(r.u64().is_err());
        r = before;
        assert_eq!(r.str(buf), Ok("x"));
    }

    #[test]
    fn writer_streams_what_the_tree_emits() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_obj();
        w.key("a");
        w.begin_arr();
        for v in [0, 7, u64::MAX] {
            w.item();
            w.u64(v);
        }
        w.item();
        w.begin_obj();
        w.end_obj();
        w.item();
        w.begin_arr();
        w.end_arr();
        w.end_arr();
        w.key("b");
        w.bool(true);
        w.key("c");
        w.null();
        w.key("d");
        w.str("x\n\u{1}—π");
        w.end_obj();
        assert_eq!(
            out,
            "{\"a\":[0,7,18446744073709551615,{},[]],\"b\":true,\"c\":null,\"d\":\"x\\n\\u0001—π\"}"
        );
        assert_eq!(parse(&out).unwrap().emit(), out);
        // A hasher is a sink like any other.
        let mut h = fd_sim::Fnv1a64::new();
        let mut w = Writer::new(&mut h);
        w.begin_arr();
        w.item();
        w.str("foobar");
        w.end_arr();
        assert_eq!(h.finish(), fd_sim::fnv1a64(b"[\"foobar\"]"));
    }

    #[test]
    fn whitespace_tolerated_between_tokens() {
        let parsed = parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\" : \"x\" }\n").unwrap();
        assert_eq!(parsed.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(parsed.emit(), r#"{"a":[1,2],"b":"x"}"#);
    }
}
