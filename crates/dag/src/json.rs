//! A pull reader and a streaming writer for JSON text.
//!
//! [`Reader`] walks one JSON document front to back without building a
//! value tree: the caller asks for the next object key, array item,
//! string or integer, and skips what it does not want. Keys and
//! strings are borrowed from the input and only copied when they
//! contain an escape. Every byte is looked at a bounded number of
//! times, so a document costs time linear in its length, and nesting
//! is capped at [`MAX_DEPTH`] so hostile input cannot exhaust the
//! stack.
//!
//! The grammar is RFC 8259 JSON: no leading zeros, no raw control
//! characters in strings, surrogate pairs combined, and integers
//! written without a fraction or exponent must fit `u64` (or `i64`
//! when negative). [`Reader::skip`] checks all of this for the values
//! it passes over, so a document is fully validated even where the
//! caller ignores it.
//!
//! [`Writer`] is the inverse for the shapes this workspace emits:
//! objects, arrays, unsigned integers, booleans and strings, compact
//! or pretty-printed with a two-space indent.

use std::borrow::Cow;
use std::fmt;

/// Most arrays and objects that may be open at once.
pub const MAX_DEPTH: usize = 128;

/// Why a document was rejected, and the byte offset where it was
/// noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for Error {}

/// A cursor over one JSON document. See the [module docs](self).
///
/// Objects are read with [`Reader::object`] followed by
/// [`Reader::next_key`] until it returns `None`, reading or skipping
/// each value in between; arrays likewise with [`Reader::array`] and
/// [`Reader::next_item`]. Cloning the reader saves a position to
/// return to.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The last token opened a container, so its first element (or
    /// its close) needs no comma.
    open: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
            open: false,
        }
    }

    /// Byte offset of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The input from byte `from` up to the cursor.
    pub fn since(&self, from: usize) -> &'a str {
        &self.src[from..self.pos]
    }

    /// An error at the cursor.
    pub fn err(&self, msg: &'static str) -> Error {
        Error { msg, at: self.pos }
    }

    /// The next non-whitespace byte, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Check that only whitespace remains.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters")),
        }
    }

    /// Enter an object; its keys follow from [`Reader::next_key`].
    pub fn object(&mut self) -> Result<(), Error> {
        self.open_container(b'{', "expected object")
    }

    /// Enter an array; its items follow from [`Reader::next_item`].
    pub fn array(&mut self) -> Result<(), Error> {
        self.open_container(b'[', "expected array")
    }

    fn open_container(&mut self, open: u8, msg: &'static str) -> Result<(), Error> {
        if self.peek() != Some(open) {
            return Err(self.err(msg));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.depth += 1;
        self.open = true;
        Ok(())
    }

    /// Consume `close` if it is next; otherwise the separating comma
    /// an element after the first needs.
    fn next_element(&mut self, close: u8, msg: &'static str) -> Result<bool, Error> {
        let b = self.peek();
        if b == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.open = false;
            return Ok(false);
        }
        if !self.open {
            if b != Some(b',') {
                return Err(self.err(msg));
            }
            self.pos += 1;
        }
        self.open = false;
        Ok(true)
    }

    /// The next key of the current object, with the cursor left on its
    /// value, or `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_element(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key"));
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether the current array has another item (the cursor is then
    /// on it); `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, Error> {
        self.next_element(b']', "expected `,` or `]`")
    }

    /// Consume a `null` if one is next.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    fn literal(&mut self, word: &'static str) -> Result<(), Error> {
        if !self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected JSON value"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// A string, borrowed from the input unless it holds an escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                0..=0x1f => return Err(self.err("control character in string")),
                // Multi-byte characters pass through whole: every
                // byte that ends a run is ASCII, so runs are slices
                // on character boundaries.
                _ => self.pos += 1,
            }
        }
    }

    /// The character of the escape after a `\` (cursor past the `\`).
    fn escape(&mut self) -> Result<char, Error> {
        let Some(&b) = self.src.as_bytes().get(self.pos) else {
            return Err(self.err("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => {
                self.pos -= 1;
                return Err(self.err("invalid escape"));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self
                .src
                .as_bytes()
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// A non-negative integer. Anything else — a negative number, a
    /// fraction, an exponent, another type — is an error.
    pub fn u64(&mut self) -> Result<u64, Error> {
        match self.peek() {
            Some(b'0'..=b'9') => match self.number()? {
                Some(x) => Ok(x),
                None => Err(self.err("expected a non-negative integer")),
            },
            _ => Err(self.err("expected a non-negative integer")),
        }
    }

    /// A non-negative integer that fits `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.peek();
        let at = self.err("integer out of range");
        u32::try_from(self.u64()?).map_err(|_| at)
    }

    /// `x`, read earlier, as a `u32`; out of range is an error at the
    /// cursor.
    pub fn narrow(&self, x: u64) -> Result<u32, Error> {
        u32::try_from(x).map_err(|_| self.err("integer out of range"))
    }

    /// An array, each item decoded by `item`.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        self.array()?;
        while self.next_item()? {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// An array of exactly `N` non-negative integers.
    pub fn u64_array<const N: usize>(&mut self) -> Result<[u64; N], Error> {
        let mut out = [0; N];
        let mut n = 0;
        self.array()?;
        while self.next_item()? {
            if n == N {
                return Err(self.err("too many items"));
            }
            out[n] = self.u64()?;
            n += 1;
        }
        if n < N {
            return Err(self.err("too few items"));
        }
        Ok(out)
    }

    /// Walk an object, handing the first occurrence of each key in
    /// `keys` to `read` with the key's index; other keys and repeats
    /// are skipped. Every key is required: one that never appears
    /// fails the object with "missing field" at its end.
    pub fn fields<const N: usize>(
        &mut self,
        keys: [&str; N],
        mut read: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut seen = [false; N];
        self.object()?;
        while let Some(key) = self.next_key()? {
            match keys.iter().position(|k| *k == key) {
                Some(i) if !seen[i] => {
                    seen[i] = true;
                    read(self, i)?;
                }
                _ => self.skip()?,
            }
        }
        if seen.contains(&false) {
            return Err(self.err("missing field"));
        }
        Ok(())
    }

    /// An object of non-negative integers: the value of each key in
    /// `keys`, in that order (see [`Reader::fields`]).
    pub fn u64_fields<const N: usize>(&mut self, keys: [&str; N]) -> Result<[u64; N], Error> {
        let mut out = [0; N];
        self.fields(keys, |r, i| {
            out[i] = r.u64()?;
            Ok(())
        })?;
        Ok(out)
    }

    /// Read a number at the cursor (known to start with `-` or a
    /// digit). Returns its value when it is a non-negative integer.
    fn number(&mut self) -> Result<Option<u64>, Error> {
        let bytes = self.src.as_bytes();
        let negative = bytes[self.pos] == b'-';
        if negative {
            self.pos += 1;
        }
        // The magnitude of the integer part; `None` once it overflows.
        let mut value = Some(0u64);
        match bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(&d) = bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
                    value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut float = false;
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
            float = true;
        }
        if matches!(bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            float = true;
        }
        match (float, negative, value) {
            (true, ..) => Ok(None),
            (false, false, Some(v)) => Ok(Some(v)),
            (false, true, Some(v)) if v <= 1 << 63 => Ok(None),
            _ => Err(self.err("integer out of range")),
        }
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), Error> {
        let n = self.src.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if n == 0 {
            return Err(self.err("invalid number"));
        }
        self.pos += n;
        Ok(())
    }

    /// Pass over one value of any type, checking its syntax.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            _ => Err(self.err("expected JSON value")),
        }
    }
}

/// Append `s` to `out` as a JSON string literal, escaped as
/// [`Writer::str`] says; `fastsched_trace::json_string` escapes by the
/// same rules.
fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every byte that ends a run is ASCII, so runs are slices on
        // character boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        let _ = match b {
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            b'"' | b'\\' => write!(out, "\\{}", char::from(b)),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A streaming JSON writer for objects, arrays, unsigned integers,
/// booleans and strings.
///
/// The caller opens and closes containers and writes keys and values
/// in document order; the writer places the commas and, in pretty
/// mode, the line breaks. Pretty output puts every array item and
/// object entry on its own line, indented two spaces per level, with
/// `": "` after a key; an empty container stays `[]` or `{}`. Compact
/// output has no whitespace at all.
#[derive(Debug, Clone)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Containers currently open.
    depth: usize,
    /// Nothing has been written into the innermost open container yet.
    first: bool,
    /// A key was just written, so its value follows with no separator.
    after_key: bool,
}

impl Writer {
    /// A writer with no whitespace between tokens.
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer that indents two spaces per nesting level.
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// The separator before a value or key: nothing after a key or at
    /// the top level, else a comma after the first element and, when
    /// pretty, a fresh indented line.
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.newline(self.depth);
    }

    fn newline(&mut self, depth: usize) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * depth));
        }
    }

    fn open(&mut self, c: char) -> &mut Self {
        self.element();
        self.out.push(c);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, c: char) -> &mut Self {
        self.depth -= 1;
        if !std::mem::replace(&mut self.first, false) {
            self.newline(self.depth);
        }
        self.out.push(c);
        self
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// The next key of the innermost object; its value is written next.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.element();
        write_str(&mut self.out, k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        use std::fmt::Write as _;
        self.element();
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{x}");
        self
    }

    /// A string: `"`, `\`, newline, carriage return and tab get
    /// backslash escapes, other control characters `\u00xx`, and all
    /// else is copied as is.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.element();
        write_str(&mut self.out, s);
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.element();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// An array of unsigned integers.
    pub fn u64s(&mut self, xs: impl IntoIterator<Item = u64>) -> &mut Self {
        self.begin_array();
        for x in xs {
            self.u64(x);
        }
        self.end_array()
    }

    /// A `key` followed by an unsigned integer value.
    pub fn field(&mut self, k: &str, x: u64) -> &mut Self {
        self.key(k).u64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skip one whole document, as a validity check.
    fn valid(text: &str) -> bool {
        let mut r = Reader::new(text);
        r.skip().and_then(|()| r.end()).is_ok()
    }

    #[test]
    fn walks_objects_and_arrays() {
        let mut r = Reader::new(r#" {"a": [1, 2], "b\u0021": "x", "c": null} "#);
        r.object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.array().unwrap();
        let mut items = Vec::new();
        while r.next_item().unwrap() {
            items.push(r.u64().unwrap());
        }
        assert_eq!(items, [1, 2]);
        let key = r.next_key().unwrap().unwrap();
        assert_eq!(key, "b!");
        assert!(matches!(key, Cow::Owned(_)), "escaped keys are decoded");
        let value = r.str().unwrap();
        assert!(matches!(value, Cow::Borrowed("x")), "plain strings borrow");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert!(r.null().unwrap());
        assert_eq!(r.next_key().unwrap(), None);
        r.end().unwrap();
    }

    #[test]
    fn decodes_escapes_and_multibyte_text() {
        let mut r = Reader::new(r#""é😀\"\\\/\b\f\n\r\té😀 end""#);
        assert_eq!(r.str().unwrap(), "é😀\"\\/\u{8}\u{c}\n\r\té😀 end");
        for bad in [
            r#""\ud83d""#,
            r#""\udc00""#,
            r#""\x""#,
            r#""\u12""#,
            "\"a\tb\"",
            "\"abc",
        ] {
            assert!(Reader::new(bad).str().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_are_checked() {
        let read = |s: &str| Reader::new(s).u64();
        assert_eq!(read("0"), Ok(0));
        assert_eq!(read(" 18446744073709551615"), Ok(u64::MAX));
        assert!(read("18446744073709551616").is_err());
        for not_u64 in ["-1", "-0", "1.0", "1e3", "\"1\"", "null", "01"] {
            let mut r = Reader::new(not_u64);
            let parsed = r.u64().and_then(|_| r.end());
            assert!(parsed.is_err(), "accepted {not_u64:?}");
        }
    }

    #[test]
    fn skip_validates_what_it_passes_over() {
        for good in [
            "null",
            "true",
            "[]",
            "{}",
            "[1,-2,3.5e-1,\"s\",{\"k\":[false]}]",
            "-9223372036854775808",
            "1e400",
            " { \"a\" : { } } ",
        ] {
            assert!(valid(good), "rejected {good:?}");
        }
        for bad in [
            "",
            "[1,]",
            "{,}",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
            "[",
            "nul",
            "tru",
            "01",
            "-",
            "1.",
            "1e",
            "-9223372036854775809",
            "18446744073709551616",
            "{1:2}",
            "[] []",
        ] {
            assert!(!valid(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(valid(&nested(MAX_DEPTH)));
        assert!(!valid(&nested(MAX_DEPTH + 1)));
        let err = Reader::new(&"[".repeat(200_000)).skip().unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
    }

    #[test]
    fn since_returns_the_raw_span() {
        let mut r = Reader::new(r#"{"comm": {"model":"ideal"} }"#);
        r.object().unwrap();
        r.next_key().unwrap();
        r.peek();
        let start = r.pos();
        r.skip().unwrap();
        assert_eq!(r.since(start), r#"{"model":"ideal"}"#);
    }

    #[test]
    fn writer_layouts() {
        let doc = |w: &mut Writer| {
            w.begin_object().key("a").u64s([1, 2]).key("b");
            w.begin_array().begin_object().field("n", 0).end_object();
            w.begin_array().end_array().end_array();
            w.key("e").begin_object().end_object();
            w.key("s").str("x").key("t").bool(true).end_object();
        };
        let mut w = Writer::compact();
        doc(&mut w);
        assert_eq!(
            w.finish(),
            r#"{"a":[1,2],"b":[{"n":0},[]],"e":{},"s":"x","t":true}"#
        );
        let mut w = Writer::pretty();
        doc(&mut w);
        assert_eq!(
            w.finish(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": [\n    {\n      \"n\": 0\n    },\n    \
             []\n  ],\n  \"e\": {},\n  \"s\": \"x\",\n  \"t\": true\n}"
        );
        let mut w = Writer::pretty();
        w.u64s([]);
        assert_eq!(w.finish(), "[]");
    }

    #[test]
    fn written_strings_read_back() {
        let text = "q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f}é😀/";
        let mut out = String::new();
        write_str(&mut out, text);
        assert_eq!(out, "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\u{7f}é😀/\"");
        assert_eq!(Reader::new(&out).str().unwrap(), text);
    }

    #[test]
    fn u32_and_list() {
        let mut r = Reader::new("[1, 4294967295]");
        assert_eq!(r.list(Reader::u32), Ok(vec![1, u32::MAX]));
        let err = Reader::new("[4294967296]").list(Reader::u32).unwrap_err();
        assert_eq!((err.msg, err.at), ("integer out of range", 1));
    }

    #[test]
    fn fields_by_name() {
        let read = |s: &str| Reader::new(s).u64_fields(["a", "b"]);
        assert_eq!(read(r#"{"b":2,"x":[-1],"a":1,"a":"later"}"#), Ok([1, 2]));
        let err = read(r#"{"a":1}"#).unwrap_err();
        assert_eq!((err.msg, err.at), ("missing field", 7));
        assert!(read(r#"{"a":1,"b":"2"}"#).is_err());
    }

    #[test]
    fn fixed_length_arrays() {
        let read = |s: &str| Reader::new(s).u64_array::<3>();
        assert_eq!(read("[1, 2 ,3]"), Ok([1, 2, 3]));
        assert_eq!(read("[1,2]").unwrap_err().msg, "too few items");
        assert_eq!(read("[1,2,3,4]").unwrap_err().msg, "too many items");
        assert!(read("[1,2,-3]").is_err());
        assert!(read("{}").is_err());
    }
}
