//! Minimal zero-dependency JSON: a value type with **sorted-key**
//! rendering, byte-level writers, a pull [`Reader`], and an artifact
//! writer that refuses nondeterministic output.
//!
//! Extracted from the bench harness (which re-exports it as
//! `delprop_bench::json`) so the serving daemon's wire protocol can
//! share the same grammar and number format without depending on the
//! harness.
//!
//! Bench artifacts (`artifacts/BENCH_*.json`) are diffed by the CI
//! bench gate, so their byte layout must be a pure function of the
//! measured values: object keys render in sorted order, numbers render
//! in Rust's shortest-round-trip form (so parsing a rendered file
//! recovers bit-identical values), and [`write_artifact`] rejects any
//! object with duplicate keys — the one way a caller could smuggle
//! order-dependence past the sort.
//!
//! Two ways in and out share one format:
//!
//! - **Trees.** [`Json`] values, [`Json::render`] and [`parse`] — what
//!   the artifacts and the `publish` instance specs use.
//! - **Streams.** [`write_str`], [`write_num`] and [`write_uint`]
//!   append one scalar to a byte buffer, so a typed encoder (the
//!   daemon's wire codec) writes its fields straight into a frame;
//!   [`Reader`] walks a document once, token by token, with no tree.
//!   [`Json::render`] is built on the writers and [`parse`] on the
//!   reader, so the workspace has one number format, one string
//!   escaping and one grammar.

use std::borrow::Cow;
use std::io::{self, Write as _};
use std::path::Path;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers included; i64 up to 2^53 round-trips).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as insertion-ordered pairs; **rendering sorts keys**.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An integer value.
    pub fn int(v: i64) -> Json {
        Json::Num(v as f64)
    }

    /// An unsigned integer value.
    pub fn uint(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// A float rounded to `decimals` places — keeps artifacts readable
    /// without hurting determinism (rounding is itself deterministic).
    pub fn rounded(v: f64, decimals: u32) -> Json {
        let scale = 10f64.powi(decimals as i32);
        Json::Num((v * scale).round() / scale)
    }

    /// A string value.
    pub fn str<S: Into<String>>(v: S) -> Json {
        Json::Str(v.into())
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object keys in sorted order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => {
                let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                keys
            }
            _ => Vec::new(),
        }
    }

    /// Render with sorted object keys. Top-level arrays of objects get
    /// one row per line (the layout the bench gate diffs); everything
    /// else is compact.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        match self {
            Json::Arr(rows) if rows.iter().all(|r| matches!(r, Json::Obj(_))) => {
                out.extend_from_slice(b"[\n");
                for (i, row) in rows.iter().enumerate() {
                    out.extend_from_slice(b"  ");
                    write_value(&mut out, row);
                    if i + 1 < rows.len() {
                        out.push(b',');
                    }
                    out.push(b'\n');
                }
                out.push(b']');
            }
            other => write_value(&mut out, other),
        }
        out.push(b'\n');
        // Every writer appends whole UTF-8 sequences, so the lossy
        // branch is never taken.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Depth-first check for duplicate keys inside any object. Returns
    /// the first offending key.
    fn find_duplicate_key(&self) -> Option<&str> {
        match self {
            Json::Obj(pairs) => {
                let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                for w in keys.windows(2) {
                    if let [a, b] = w {
                        if a == b {
                            return Some(a);
                        }
                    }
                }
                pairs.iter().find_map(|(_, v)| v.find_duplicate_key())
            }
            Json::Arr(items) => items.iter().find_map(|v| v.find_duplicate_key()),
            _ => None,
        }
    }
}

// -------------------------------------------------------------------
// Writers
// -------------------------------------------------------------------

/// Append `v` in compact form (`", "` and `": "` separators, sorted
/// object keys): what [`Json::render`] writes for anything but a
/// top-level array of objects, less the trailing newline.
pub fn write_value(out: &mut Vec<u8>, v: &Json) {
    match v {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Bool(b) => write_bool(out, *b),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                write_value(out, item);
            }
            out.push(b']');
        }
        Json::Obj(pairs) => {
            let mut sorted: Vec<&(String, Json)> = pairs.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push(b'{');
            for (i, (k, val)) in sorted.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                write_str(out, k);
                out.extend_from_slice(b": ");
                write_value(out, val);
            }
            out.push(b'}');
        }
    }
}

/// Append `true` or `false`.
#[inline]
pub fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Append a number. Integral values below 9e15 print as integers,
/// other finite values in Rust's shortest-round-trip form, and NaN and
/// ±inf as the quoted strings `"NaN"`, `"inf"`, `"-inf"`: JSON has no
/// such numbers, and an artifact holding one is a bug to show, not to
/// null out.
#[inline]
pub fn write_num(out: &mut Vec<u8>, n: f64) {
    if !n.is_finite() {
        let _ = write!(out, "\"{n}\"");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let i = n as i64;
        if i < 0 {
            out.push(b'-');
        }
        write_digits(out, i.unsigned_abs());
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append an unsigned integer exactly as [`write_num`] prints it as an
/// `f64` (what [`Json::uint`] holds), without the float: digits below
/// 9e15, the float form above.
#[inline]
pub fn write_uint(out: &mut Vec<u8>, v: u64) {
    if v < 9_000_000_000_000_000 {
        write_digits(out, v);
    } else {
        write_num(out, v as f64);
    }
}

#[inline]
fn write_digits(out: &mut Vec<u8>, mut v: u64) {
    // Least significant digit first, then reversed in place: single-byte
    // pushes beat copying a short run of unknown length.
    let start = out.len();
    loop {
        out.push(b'0' + (v % 10) as u8);
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Some(digits) = out.get_mut(start..) {
        digits.reverse();
    }
}

/// Append `s` as a string literal: quoted, with `"`, `\`, `\n`, `\t`,
/// `\r` escaped and other control characters as `\u00xx`. Everything
/// else, non-ASCII included, is copied as is.
#[inline]
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0; // start of the bytes not yet copied
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            b'\r' => b"\\r",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                hex_digit(b >> 4),
                hex_digit(b & 0xf),
            ],
            _ => continue,
        };
        out.extend_from_slice(bytes.get(run..i).unwrap_or_default());
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(bytes.get(run..).unwrap_or_default());
    out.push(b'"');
}

#[inline]
fn hex_digit(n: u8) -> u8 {
    if n < 10 {
        b'0' + n
    } else {
        b'a' + n - 10
    }
}

/// Render `json` (sorted keys) and write it to `path`, creating parent
/// directories. Refuses objects with duplicate keys — the only way the
/// sorted rendering could become order-dependent.
pub fn write_artifact<P: AsRef<Path>>(path: P, json: &Json) -> io::Result<String> {
    if let Some(key) = json.find_duplicate_key() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("refusing nondeterministic artifact: duplicate key {key:?}"),
        ));
    }
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json.render())?;
    Ok(path.display().to_string())
}

// -------------------------------------------------------------------
// Reading
// -------------------------------------------------------------------

/// Parse a JSON document into a tree: [`Reader::value`] over the whole
/// text, then [`Reader::finish`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// What the next value of a [`Reader`] is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number — and anything no other token claims, which then
    /// fails to read as one.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// Arrays and objects nested deeper than this are refused, so a hostile
/// document cannot exhaust the stack of a recursive reader.
pub const MAX_DEPTH: usize = 128;

/// Whether `b` continues the number being read.
#[inline]
fn number_goes_on(b: Option<u8>) -> bool {
    matches!(b, Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
}

/// A pull reader: walks one document once, value by value, without
/// building a tree.
///
/// The caller asks for what it expects next — [`Reader::peek`] tells
/// which value comes — and reads it with [`Reader::str`],
/// [`Reader::num`], [`Reader::bool`], [`Reader::null`], or steps into a
/// container with [`Reader::begin_object`] / [`Reader::next_key`] and
/// [`Reader::begin_array`] / [`Reader::next_item`]. After each key, and
/// each `true` from `next_item`, it reads exactly one value (or
/// [`Reader::skip`]s it, which still checks its syntax).
/// [`Reader::finish`] rejects trailing data.
///
/// What it accepts is what [`parse`] always accepted: standard JSON
/// with `\"`, `\\`, `\/`, `\n`, `\t`, `\r` and `\uXXXX` escapes (no
/// surrogate pairs), raw control characters inside strings, and any
/// run of `0-9 + - . e E` that Rust parses as an `f64` as a number.
/// Numbers are `f64`s: a run of at most 19 digits takes an integer fast
/// path, anything else (`3.0`, `3e0`, `-1`) goes through the float
/// parser.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// A container was just opened and has not been asked for its
    /// first item yet.
    fresh: bool,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`. The `&str` is the document's
    /// UTF-8 check: strings borrow from it.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            fresh: false,
            depth: 0,
        }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.text.len().saturating_sub(self.pos)
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn at(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn rest_starts_with(&self, lit: &[u8]) -> bool {
        self.bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The kind of the next value (whitespace skipped). `Err` at the
    /// end of the input.
    #[inline]
    pub fn peek(&mut self) -> Result<Token, String> {
        self.skip_ws();
        Ok(match self.at() {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => Token::Obj,
            Some(b'[') => Token::Arr,
            Some(b'"') => Token::Str,
            Some(b't') if self.rest_starts_with(b"true") => Token::Bool,
            Some(b'f') if self.rest_starts_with(b"false") => Token::Bool,
            Some(b'n') if self.rest_starts_with(b"null") => Token::Null,
            Some(_) => Token::Num,
        })
    }

    /// Step into an object; then call [`Reader::next_key`] until it
    /// returns `None`.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Step into an array; then call [`Reader::next_item`] until it
    /// returns `false`.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        if self.at() != Some(bracket) {
            return Err(format!(
                "expected '{}' at byte {}",
                bracket as char, self.pos
            ));
        }
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// The next key of the object being read, its `:` consumed; `None`
    /// once the object closes.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        if self.at() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether another item of the array being read follows; `false`
    /// once the array closes.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    /// Consume the `,` before the next item (none before the first), or
    /// the closing bracket.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.at() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Read a string. Borrowed from the document unless it holds an
    /// escape.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.at() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let text = self.text;
        let mut owned: Option<String> = None;
        let mut run = self.pos; // start of the bytes not yet copied
        loop {
            // `"` and `\` are ASCII, so every slice below starts and
            // ends on a char boundary of the `&str`.
            match self.at() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = text.get(run..self.pos).unwrap_or_default();
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(text.get(run..self.pos).unwrap_or_default());
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decode the escape at the `\` under the cursor and step past it.
    fn escape(&mut self) -> Result<char, String> {
        self.pos += 1;
        let c = match self.at() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let hex = self
                    .bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let mut code = 0u32;
                for &h in hex {
                    let digit = char::from(h)
                        .to_digit(16)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    code = code * 16 + digit;
                }
                self.pos += 4;
                char::from_u32(code).ok_or("bad \\u escape")?
            }
            other => return Err(format!("bad escape {:?}", other.map(char::from))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Read a number.
    #[inline]
    pub fn num(&mut self) -> Result<f64, String> {
        if let Some(int) = self.int() {
            return Ok(int as f64);
        }
        self.float()
    }

    /// The integer fast path of [`Reader::num`]: a number that is a run
    /// of at most 19 digits, which cannot overflow the `u64` and, as an
    /// `f64`, rounds exactly as parsing the text would. `None`, with
    /// only whitespace consumed, for any other number form.
    #[inline]
    fn int(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        let mut int = 0u64;
        while let Some(d @ b'0'..=b'9') = self.at() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if (1..=19).contains(&(self.pos - start)) && !number_goes_on(self.at()) {
            return Some(int);
        }
        self.pos = start;
        None
    }

    /// The rest of [`Reader::num`]: every number form but a plain run
    /// of at most 19 digits, parsed as an `f64`. Kept out of line so the
    /// integer path inlines into its callers.
    #[cold]
    #[inline(never)]
    fn float(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while number_goes_on(self.at()) {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    /// Read an array of exactly `N` numbers that take
    /// [`Reader::num`]'s integer fast path, such as `[3, 1024]`, with
    /// the steps of [`Reader::begin_array`] and [`Reader::next_item`].
    /// `None`, with the reader left where it was, for any other value,
    /// length or number form, which the caller then reads item by item.
    #[inline]
    pub fn uint_tuple<const N: usize>(&mut self) -> Option<[u64; N]> {
        let at = (self.pos, self.depth, self.fresh);
        let mut out = [0; N];
        let read = self.begin_array().is_ok()
            && out.iter_mut().all(|slot| {
                matches!(self.next_item(), Ok(true)) && self.int().map(|v| *slot = v).is_some()
            })
            && matches!(self.next_item(), Ok(false));
        if read {
            return Some(out);
        }
        (self.pos, self.depth, self.fresh) = at;
        None
    }

    /// Read `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (lit, value) in [(&b"true"[..], true), (&b"false"[..], false)] {
            if self.rest_starts_with(lit) {
                self.pos += lit.len();
                return Ok(value);
            }
        }
        Err(format!("expected true or false at byte {}", self.pos))
    }

    /// Read `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        if !self.rest_starts_with(b"null") {
            return Err(format!("expected null at byte {}", self.pos));
        }
        self.pos += 4;
        Ok(())
    }

    /// Step over the next value, checking its syntax.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            Token::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Token::Arr => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Token::Str => {
                self.str()?;
            }
            Token::Num => {
                self.num()?;
            }
            Token::Bool => {
                self.bool()?;
            }
            Token::Null => self.null()?,
        }
        Ok(())
    }

    /// Read the next value as a tree.
    pub fn value(&mut self) -> Result<Json, String> {
        Ok(match self.peek()? {
            Token::Obj => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Json::Obj(pairs)
            }
            Token::Arr => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Token::Str => Json::Str(self.str()?.into_owned()),
            Token::Num => Json::Num(self.num()?),
            Token::Bool => Json::Bool(self.bool()?),
            Token::Null => {
                self.null()?;
                Json::Null
            }
        })
    }

    /// Accept the end of the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_keys_regardless_of_insertion_order() {
        let a = Json::obj(vec![
            ("zebra", Json::int(1)),
            ("alpha", Json::int(2)),
            ("mid", Json::str("x")),
        ]);
        let b = Json::obj(vec![
            ("mid", Json::str("x")),
            ("alpha", Json::int(2)),
            ("zebra", Json::int(1)),
        ]);
        assert_eq!(a.render(), b.render(), "key order must not leak");
        assert_eq!(a.render(), "{\"alpha\": 2, \"mid\": \"x\", \"zebra\": 1}\n");
    }

    #[test]
    fn array_of_objects_renders_one_row_per_line() {
        let doc = Json::Arr(vec![
            Json::obj(vec![("b", Json::int(1)), ("a", Json::int(2))]),
            Json::obj(vec![("a", Json::int(3)), ("b", Json::int(4))]),
        ]);
        assert_eq!(
            doc.render(),
            "[\n  {\"a\": 2, \"b\": 1},\n  {\"a\": 3, \"b\": 4}\n]\n"
        );
    }

    #[test]
    fn numbers_round_trip_through_render_and_parse() {
        for v in [0.0, 1.0, -3.5, 123456.789, 0.1, 1e-9, 9.007e15] {
            let rendered = Json::Num(v).render();
            let parsed = parse(rendered.trim()).unwrap();
            assert_eq!(parsed.as_num(), Some(v), "{rendered}");
        }
        assert_eq!(Json::int(42).render(), "42\n");
        assert_eq!(Json::rounded(1.23456, 2).render(), "1.23\n");
    }

    #[test]
    fn parse_handles_objects_arrays_strings() {
        let doc =
            parse("[\n  {\"a\": 1, \"s\": \"x\\\"y\"},\n  {\"a\": 2.5, \"s\": \"\"}\n]").unwrap();
        let rows = doc.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("a").unwrap().as_num(), Some(1.0));
        assert_eq!(rows[0].get("s"), Some(&Json::Str("x\"y".into())));
        assert_eq!(rows[1].get("a").unwrap().as_num(), Some(2.5));
        assert!(parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn writers_match_the_formats_render_always_had() {
        let mut out = Vec::new();
        write_str(&mut out, "a\"b\\c\nd\te\rf\u{1}g\u{1f}é✓");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fé✓\""
        );
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (-42.0, "-42"),
            (0.1, "0.1"),
            (1e-9, "0.000000001"),
            (2876.0802634348534, "2876.0802634348534"),
            (9.0e15, "9000000000000000"),
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let mut out = Vec::new();
            write_num(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), text, "{n}");
        }
        for v in [
            0,
            7,
            1 << 53,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            u64::MAX,
        ] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_uint(&mut a, v);
            write_num(&mut b, v as f64);
            assert_eq!(a, b, "{v}");
        }
    }

    #[test]
    fn reader_walks_a_document_without_a_tree() {
        let mut r = Reader::new(
            r#" {"k": [1, 2.5e1, "s\u00e9"], "skip": {"x": [null, true]}, "b": false} "#,
        );
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.num().unwrap(), 1.0);
        assert!(r.next_item().unwrap());
        assert_eq!(r.peek().unwrap(), Token::Num);
        assert_eq!(r.num().unwrap(), 25.0);
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "sé"));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        assert!(!r.bool().unwrap());
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn uint_tuple_reads_integer_pairs_and_leaves_the_rest_in_place() {
        let mut r = Reader::new(" [ 3 ,\n1024 ] ");
        assert_eq!(r.uint_tuple::<2>(), Some([3, 1024]));
        r.finish().unwrap();
        // Any other form backs off untouched, so the item-by-item read
        // after it sees the whole value.
        for other in [
            "[3.0, 1]",
            "[3e0, 1]",
            "[-1, 2]",
            "[1]",
            "[1, 2, 3]",
            "[\"a\", 1]",
            "[[1, 2]]",
            "[1, 2",
            "[1 2]",
            "7",
            "{}",
            "[12345678901234567890, 1]",
        ] {
            let mut r = Reader::new(other);
            assert_eq!(r.uint_tuple::<2>(), None, "{other}");
            let mut whole = Reader::new(other);
            assert_eq!(r.value().ok(), whole.value().ok(), "{other}");
            assert_eq!(r.finish().is_ok(), whole.finish().is_ok(), "{other}");
        }
    }

    #[test]
    fn reader_borrows_unescaped_strings() {
        let mut r = Reader::new(r#""plain""#);
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
    }

    #[test]
    fn parse_rejects_what_it_always_rejected() {
        for bad in [
            "",
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "\"open",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "tru",
            "nul",
            "-",
            "1.2.3",
            "{} {}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
        assert_eq!(parse("{}").unwrap(), Json::Obj(Vec::new()));
        assert_eq!(parse("\"\\u0041\\/\"").unwrap(), Json::str("A/"));
        assert_eq!(parse("007").unwrap(), Json::Num(7.0));
        assert_eq!(parse("3e0").unwrap(), Json::Num(3.0));
        assert_eq!(
            parse("12345678901234567890123").unwrap(),
            Json::Num(1.2345678901234568e22)
        );
        // Either side of the integer path's 19-digit limit.
        for text in ["9999999999999999999", "18446744073709551616", "1-2"] {
            assert_eq!(parse(text).ok(), text.parse().ok().map(Json::Num), "{text}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        assert!(parse(&"[".repeat(1 << 19)).is_err());
        assert!(Reader::new(&"{\"a\":".repeat(1 << 19)).skip().is_err());
    }

    #[test]
    fn duplicate_keys_are_refused_by_write_artifact() {
        let bad = Json::Arr(vec![Json::Obj(vec![
            ("k".to_string(), Json::int(1)),
            ("k".to_string(), Json::int(2)),
        ])]);
        let dir = std::env::temp_dir().join("delprop_json_test");
        let err = write_artifact(dir.join("bad.json"), &bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn written_artifact_round_trips() {
        let doc = Json::Arr(vec![Json::obj(vec![
            ("chains", Json::int(64)),
            ("speedup", Json::rounded(4.56789, 3)),
            ("winner", Json::str("dp_tree")),
        ])]);
        let dir = std::env::temp_dir().join("delprop_json_test");
        let path = dir.join("ok.json");
        let written = write_artifact(&path, &doc).unwrap();
        let text = std::fs::read_to_string(&written).unwrap();
        let parsed = parse(&text).unwrap();
        let row = &parsed.as_arr().unwrap()[0];
        assert_eq!(row.get("chains").unwrap().as_num(), Some(64.0));
        assert_eq!(row.get("speedup").unwrap().as_num(), Some(4.568));
        assert_eq!(row.keys(), vec!["chains", "speedup", "winner"]);
    }
}
