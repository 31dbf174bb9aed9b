//! The suite's one JSON codec: every escape, read and write of the
//! documents it exports and of the job protocol's lines.
//!
//! Writing: [`object`] and [`document`] hand a [`Writer`] to a closure; it
//! owns quoting, escaping, separators and `null`, in the [`Layout`]s the
//! documents use. Reading: [`parse`] is the one reader, strict RFC 8259
//! (see [`JsonError`] for what it rejects); a number keeps its text, so a
//! `u64` digest survives. [`Fields`] is the flat view the job protocol is
//! read through, with typed getters.
//!
//! A module of the core crate rather than a crate of its own: every crate
//! that speaks JSON already depends on `mempool`.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};

/// Escapes `s` for the inside of a JSON string (`"`, `\` and control
/// characters); everything else is copied as it is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out`. Every byte that needs escaping is ASCII,
/// so the runs between them are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut clean_from = 0;
    for (at, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[clean_from..at]);
        clean_from = at + 1;
        let _ = match byte {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{byte:04x}"),
        };
    }
    out.push_str(&s[clean_from..]);
}

/// Reverses [`escape`], and reads every other escape RFC 8259 defines
/// (`\/`, `\b`, `\f`, UTF-16 surrogate pairs); `None` on a malformed
/// escape or a lone surrogate.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut clean_from = 0;
    while let Some(at) = s[clean_from..].find('\\').map(|i| clean_from + i) {
        out.push_str(&s[clean_from..at]);
        clean_from = unescape_one(s.as_bytes(), at, &mut out)?;
    }
    out.push_str(&s[clean_from..]);
    Some(out)
}

/// Decodes the escape whose backslash is `bytes[at]` into `out`; returns
/// where it ends (an escape is ASCII, so that is a character boundary).
fn unescape_one(bytes: &[u8], at: usize, out: &mut String) -> Option<usize> {
    let next = *bytes.get(at + 1)?;
    if let Some(i) = b"\"\\/bfnrt".iter().position(|&c| c == next) {
        out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        return Some(at + 2);
    }
    let mut code = hex4(bytes, at + 2).filter(|_| next == b'u')?;
    let mut end = at + 6;
    if (0xd800..0xdc00).contains(&code) {
        // A high surrogate is half a character: `\udc00`–`\udfff` follows.
        let is_low = |low: &u32| bytes[end..end + 2] == *b"\\u" && (0xdc00..0xe000).contains(low);
        let low = hex4(bytes, end + 2).filter(is_low)?;
        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        end += 6;
    }
    // A lone low surrogate is no `char`.
    out.push(char::from_u32(code)?);
    Some(end)
}

/// The four hex digits at `bytes[at..]`, exactly: no sign, no fewer.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[1,2]}`: protocol lines, Chrome events, histogram buckets.
    Compact,
    /// `{"a": 1, "b": [1, 2]}`: the one-line values inside the documents.
    Inline,
    /// `{ "a": 1, "b": 2 }`: inline, padded inside its brackets.
    Padded,
    /// One member per line at this indent, the closing bracket two spaces out.
    Block(usize),
}

/// An object or array being written. Each method writes one member (the
/// `push_*` ones, one element) and hands the writer back, so calls chain
/// and a loop is a fold.
pub struct Writer<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

/// A [`Writer`] of an object's members.
pub type Obj<'a> = Writer<'a>;
/// A [`Writer`] of an array's elements.
pub type Arr<'a> = Writer<'a>;

fn write(out: &mut String, layout: Layout, brackets: [char; 2], f: impl FnOnce(Writer) -> Writer) {
    out.push(brackets[0]);
    let w = f(Writer {
        out,
        layout,
        empty: true,
    });
    match layout {
        Layout::Block(indent) => newline(w.out, indent.saturating_sub(2)),
        Layout::Padded => w.out.push(' '),
        _ => {}
    }
    w.out.push(brackets[1]);
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

impl Writer<'_> {
    /// Writes what separates the next member from the last.
    fn next(&mut self) -> &mut String {
        let first = std::mem::take(&mut self.empty);
        match (self.layout, first) {
            (Layout::Block(indent), _) => {
                if !first {
                    self.out.push(',');
                }
                newline(self.out, indent);
            }
            (Layout::Compact, false) => self.out.push(','),
            (_, false) => self.out.push_str(", "),
            (Layout::Padded, true) => self.out.push(' '),
            _ => {}
        }
        self.out
    }

    fn key(&mut self, key: &str) -> &mut String {
        let colon = if self.layout == Layout::Compact {
            ":"
        } else {
            ": "
        };
        let out = self.next();
        push_string(out, key);
        out.push_str(colon);
        out
    }

    /// A string member, quoted and escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        push_string(self.key(key), value);
        self
    }

    /// A number member, written as its `Display`: an integer or a finite
    /// float (`format_args!` fixes a precision).
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A `true`/`false` member.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.num(key, value)
    }

    /// A number member, or `null` for `None`.
    pub fn opt_num(self, key: &str, value: Option<impl Display>) -> Self {
        match value {
            Some(value) => self.num(key, value),
            None => self.raw(key, "null"),
        }
    }

    /// A member whose value is JSON already (an embedded document).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key).push_str(json);
        self
    }

    /// An object member; `f` writes its members.
    pub fn obj(mut self, key: &str, layout: Layout, f: impl FnOnce(Obj) -> Obj) -> Self {
        write(self.key(key), layout, ['{', '}'], f);
        self
    }

    /// An array member; `f` writes its elements.
    pub fn arr(mut self, key: &str, layout: Layout, f: impl FnOnce(Arr) -> Arr) -> Self {
        write(self.key(key), layout, ['[', ']'], f);
        self
    }

    /// A string element.
    pub fn push_str(mut self, value: &str) -> Self {
        push_string(self.next(), value);
        self
    }

    /// A number element (see [`Writer::num`]).
    pub fn push_num(mut self, value: impl Display) -> Self {
        let _ = write!(self.next(), "{value}");
        self
    }

    /// An object element.
    pub fn push_obj(mut self, layout: Layout, f: impl FnOnce(Obj) -> Obj) -> Self {
        write(self.next(), layout, ['{', '}'], f);
        self
    }
}

/// One object in `layout`; `f` writes its members.
pub fn object(layout: Layout, f: impl FnOnce(Obj) -> Obj) -> String {
    let mut out = String::new();
    write(&mut out, layout, ['{', '}'], f);
    out
}

/// An exported document: one member per line, then a newline.
pub fn document(f: impl FnOnce(Obj) -> Obj) -> String {
    let mut out = object(Layout::Block(2), f);
    out.push('\n');
    out
}

/// Containers nested deeper are [`JsonError::TooDeep`], so no input can
/// exhaust the stack (the suite's deepest document nests 8).
pub const MAX_DEPTH: usize = 64;

/// Why a text is not the JSON asked for; offsets count bytes. Besides
/// truncation, the reader rejects anything after the value, trailing
/// commas, bare words, raw control characters in strings, malformed
/// escapes and lone surrogates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// The text ends inside a value.
    Truncated,
    /// This byte cannot start or continue what is being read.
    Unexpected(usize),
    /// A malformed escape, or a lone surrogate.
    BadEscape(usize),
    /// A container opening past [`MAX_DEPTH`].
    TooDeep(usize),
    /// Something other than whitespace after the value.
    Trailing(usize),
}

impl Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, at) = match *self {
            JsonError::Truncated => return f.write_str("the text ends inside a value"),
            JsonError::Unexpected(at) => ("unexpected byte", at),
            JsonError::BadEscape(at) => ("malformed escape", at),
            JsonError::TooDeep(at) => ("value nested too deep", at),
            JsonError::Trailing(at) => ("trailing characters", at),
        };
        write!(f, "{what} at offset {at}")
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as the text it was written as.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; of a repeated key, the last value counts.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        if let Value::String(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        if let Value::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        if let Value::Number(text) = self {
            text.parse().ok()
        } else {
            None
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        if let Value::Number(text) = self {
            text.parse().ok()
        } else {
            None
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        if let Value::Array(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        if let Value::Object(members) = self {
            Some(members)
        } else {
            None
        }
    }
}

static NULL: Value = Value::Null;

/// `value["key"]`: the member, or `null` when there is none.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.as_object()
            .and_then(|members| members.get(key))
            .unwrap_or(&NULL)
    }
}

/// `value[i]`: the element, or `null` when there is none.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.as_array()
            .and_then(|items| items.get(i))
            .unwrap_or(&NULL)
    }
}

/// Parses one JSON text.
///
/// # Errors
///
/// Where the text stops being JSON.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    read(text, MAX_DEPTH)
}

fn read(text: &str, max_depth: usize) -> Result<Value, JsonError> {
    let mut reader = Reader {
        text,
        at: 0,
        max_depth,
    };
    let value = reader.value(0)?;
    match reader.next_byte() {
        Ok(_) => Err(JsonError::Trailing(reader.at)),
        Err(_) => Ok(value),
    }
}

struct Reader<'a> {
    text: &'a str,
    at: usize,
    max_depth: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn unexpected(&self) -> JsonError {
        self.peek()
            .map_or(JsonError::Truncated, |_| JsonError::Unexpected(self.at))
    }

    /// The next byte that is not whitespace, not consumed.
    fn next_byte(&mut self) -> Result<u8, JsonError> {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.peek().ok_or(JsonError::Truncated)
    }

    /// Consumes one of `bytes`, if it is next.
    fn eat(&mut self, bytes: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| bytes.contains(&b));
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.next_byte()? != byte {
            return Err(JsonError::Unexpected(self.at));
        }
        self.at += 1;
        Ok(())
    }

    /// A container's comma-separated items, through its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.next_byte()? != close {
            item(self)?;
            while self.next_byte()? == b',' {
                self.at += 1;
                item(self)?;
            }
        }
        self.expect(close)
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        let first = self.next_byte()?;
        if matches!(first, b'{' | b'[') && depth >= self.max_depth {
            return Err(JsonError::TooDeep(self.at));
        }
        self.at += usize::from(matches!(first, b'{' | b'[' | b'"'));
        match first {
            b'{' => {
                let mut members = BTreeMap::new();
                self.items(b'}', |r| {
                    r.expect(b'"')?;
                    let key = r.string()?;
                    r.expect(b':')?;
                    members.insert(key, r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b']', |r| r.value(depth + 1).map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            b'"' => self.string().map(Value::String),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(JsonError::Unexpected(self.at)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        for &byte in word.as_bytes() {
            if !self.eat(&[byte]) {
                return Err(self.unexpected());
            }
        }
        Ok(value)
    }

    /// The rest of a string whose opening quote was read, unescaped in one
    /// pass that copies the runs between escapes whole.
    fn string(&mut self) -> Result<String, JsonError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut out = String::new();
        let (mut at, mut clean_from) = (self.at, self.at);
        loop {
            match *bytes.get(at).ok_or(JsonError::Truncated)? {
                b'"' => break,
                b'\\' => {
                    out.push_str(&text[clean_from..at]);
                    at = unescape_one(bytes, at, &mut out).ok_or(JsonError::BadEscape(at))?;
                    clean_from = at;
                }
                byte if byte < 0x20 => return Err(JsonError::Unexpected(at)),
                _ => at += 1,
            }
        }
        out.push_str(&text[clean_from..at]);
        self.at = at + 1;
        Ok(out)
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as its text.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.at;
        self.eat(b"-");
        if !self.eat(b"0") {
            self.digits()?;
        }
        if self.eat(b".") {
            self.digits()?;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            self.digits()?;
        }
        Ok(Value::Number(self.text[start..self.at].to_owned()))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.at;
        while self.eat(b"0123456789") {}
        (self.at > start)
            .then_some(())
            .ok_or_else(|| self.unexpected())
    }
}

/// A parsed object of scalars (strings, numbers, booleans, `null`): the
/// shape of every job-protocol line. The getters are typed, and name the
/// field in their error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields(BTreeMap<String, Value>);

impl Fields {
    /// Parses a flat object.
    ///
    /// # Errors
    ///
    /// What [`parse`] rejects, [`JsonError::TooDeep`] for a member that is a
    /// container, and [`JsonError::Unexpected`] for a text that is no object.
    pub fn parse(line: &str) -> Result<Fields, JsonError> {
        match read(line, 1)? {
            Value::Object(members) => Ok(Fields(members)),
            _ => Err(JsonError::Unexpected(line.len() - line.trim_start().len())),
        }
    }

    /// Member `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Member `key` as `read` takes it; an error naming `what` it is not.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: impl Display,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .0
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        read(value).ok_or_else(|| format!("field `{key}` is not {what}"))
    }

    /// String member `key`; an error when missing or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Value::as_str)
    }

    /// Integer member `key`; an error when missing, not one, or out of range.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let what = format_args!("a {}", std::any::type_name::<T>());
        self.typed(key, what, |v| T::try_from(v.as_u64()?).ok())
    }

    /// [`Fields::int`], with `None` for a missing or `null` member.
    pub fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.int(key).map(Some),
        }
    }

    /// Number member `key`; an error when missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Value::as_f64)
    }

    /// Boolean member `key`; an error when missing or not `true`/`false`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "true or false", Value::as_bool)
    }

    /// Every member as text: strings unescaped, other scalars as written.
    pub fn into_strings(self) -> BTreeMap<String, String> {
        let text = |value| match value {
            Value::String(s) | Value::Number(s) => s,
            Value::Bool(b) => b.to_string(),
            _ => "null".to_owned(),
        };
        self.0
            .into_iter()
            .map(|(key, value)| (key, text(value)))
            .collect()
    }
}

/// A flat object as `key -> text` ([`Fields::into_strings`]); `None` where
/// [`Fields::parse`] fails.
pub fn parse_flat_json(line: &str) -> Option<BTreeMap<String, String>> {
    Fields::parse(line).ok().map(Fields::into_strings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_rng::{Rng, SeedableRng, StdRng};

    /// The former `json_escape`, one `char` at a time.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// RFC 8259's escapes, one `char` at a time.
    fn unescape_by_chars(s: &str) -> Option<String> {
        fn hex(chars: &mut std::str::Chars) -> Option<u32> {
            let digits: String = chars.by_ref().take(4).collect();
            if digits.len() != 4 || !digits.chars().all(|c| c.is_ascii_hexdigit()) {
                return None;
            }
            u32::from_str_radix(&digits, 16).ok()
        }
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = hex(&mut chars)?;
                    if (0xd800..0xdc00).contains(&code) {
                        if (chars.next()?, chars.next()?) != ('\\', 'u') {
                            return None;
                        }
                        let low = hex(&mut chars)?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return None;
                        }
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
        }
        Some(out)
    }

    #[test]
    fn run_copying_codec_is_the_char_loop_on_a_seeded_corpus() {
        // Clean runs, every escape, control bytes, two- to four-byte
        // characters next to each of them, surrogate pairs, and escapes
        // that are malformed in every way the decoder tells apart.
        let pieces = [
            "plain run of text",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "→",
            "𝄞",
            "\\u00e9",
            "\\u12",
            "\\uzzzz",
            "\\u+041",
            "\\uéé",
            "\\x",
            "\\n",
            "\\/",
            "\\b",
            "\\f",
            "\\ud83d\\ude00",
            "\\uD834\\uDD1E",
            "\\ud83d",
            "\\ude00",
            "\\ud83d\\u0041",
            "{\"k\":1}",
        ];
        let mut rng = StdRng::seed_from_u64(24);
        let (mut decoded, mut rejected) = (0, 0);
        for _ in 0..4_000 {
            let text: String = (0..rng.gen_range(0usize..12))
                .map(|_| pieces[rng.gen_range(0..pieces.len())])
                .collect();
            let escaped = escape(&text);
            assert_eq!(escaped, escape_by_chars(&text), "{text:?}");
            assert_eq!(unescape(&escaped).as_deref(), Some(text.as_str()));
            let unescaped = unescape(&text);
            assert_eq!(unescaped, unescape_by_chars(&text), "{text:?}");
            match unescaped {
                Some(_) => decoded += 1,
                None => rejected += 1,
            }
            // The reader's string scan finds the same closing quote.
            let line = format!("{{\"doc\":\"{escaped}\",\"n\":7}}");
            let fields = parse_flat_json(&line).expect("a rendered line parses");
            assert_eq!(
                (fields["doc"].as_str(), fields["n"].as_str()),
                (text.as_str(), "7")
            );
        }
        assert!(
            decoded > 500 && rejected > 500,
            "{decoded} decoded, {rejected} rejected"
        );
    }

    #[test]
    fn reader_takes_rfc_8259_and_keeps_number_text() {
        let doc = parse(
            " \n{\"a\" : [1, -2.5e+3, 0, true, false, null, \"é\\/\\b\\f\\ud83d\\ude00\"],\
             \"b\": {}, \"d\": 18446744073709551615, \"k\": 1, \"k\": 2}\r\n",
        )
        .expect("valid JSON");
        assert_eq!(doc["a"][1], Value::Number("-2.5e+3".to_owned()));
        assert_eq!(doc["a"][1].as_f64(), Some(-2500.0));
        assert_eq!(doc["a"][3].as_bool(), Some(true));
        assert_eq!(doc["a"][5], Value::Null);
        assert_eq!(doc["a"][6].as_str(), Some("é/\u{8}\u{c}😀"));
        assert_eq!(doc["b"].as_object().map(BTreeMap::len), Some(0));
        assert_eq!(doc["d"].as_u64(), Some(u64::MAX), "a digest survives");
        assert_eq!(
            doc["k"].as_u64(),
            Some(2),
            "the last of a repeated key counts"
        );
        assert_eq!(doc["missing"][3], Value::Null);
        // Python's default `json.dumps`: spaced separators, ASCII escapes.
        let python = parse("{\"tenant\": \"t\\ud83d\\ude00\", \"n\": 1}").expect("valid JSON");
        assert_eq!(python["tenant"].as_str(), Some("t😀"));
    }

    #[test]
    fn reader_rejects_what_is_not_json_with_a_typed_error() {
        use JsonError::*;
        let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
        for (text, error) in [
            ("{\"op\":\"shutdown\" xyz}", Unexpected(17)),
            ("{\"a\":1,}", Unexpected(7)),
            ("[1,]", Unexpected(3)),
            ("{\"a\":1} x", Trailing(8)),
            ("{\"a\" 1}", Unexpected(5)),
            ("{a:1}", Unexpected(1)),
            ("\"raw\ttab\"", Unexpected(4)),
            ("01", Trailing(1)),
            ("-", Truncated),
            ("1.", Truncated),
            ("1e", Truncated),
            (".5", Unexpected(0)),
            ("+1", Unexpected(0)),
            ("tru", Truncated),
            ("trux", Unexpected(3)),
            ("NaN", Unexpected(0)),
            ("\"\\ud83d\"", BadEscape(1)),
            ("\"\\ude00\"", BadEscape(1)),
            ("\"\\ud83d\\u0041\"", BadEscape(1)),
            ("\"\\u+041\"", BadEscape(1)),
            ("\"\\x\"", BadEscape(1)),
            ("", Truncated),
            ("  ", Truncated),
            ("{\"a\":\"unterminated}", Truncated),
            (&deep, TooDeep(MAX_DEPTH)),
        ] {
            assert_eq!(parse(text), Err(error), "{text:?}");
        }
        assert_eq!(Fields::parse("{\"a\":{\"b\":1},\"c\":2}"), Err(TooDeep(5)));
        assert_eq!(Fields::parse(" [1]"), Err(Unexpected(1)));
        assert_eq!(Fields::parse("5"), Err(Unexpected(0)));
    }

    #[test]
    fn flat_fields_are_typed() {
        let fields = Fields::parse(
            "{\"s\":\"x\",\"n\":4294967297,\"b\":true,\"z\":null,\"f\":0.5,\"neg\":-1,\"t\":\"true\"}",
        )
        .expect("flat");
        assert_eq!(fields.str("s"), Ok("x"));
        assert_eq!(
            fields.str("missing"),
            Err("missing field `missing`".to_owned())
        );
        assert_eq!(fields.str("n"), Err("field `n` is not a string".to_owned()));
        assert_eq!(fields.int::<u64>("n"), Ok(4_294_967_297));
        assert_eq!(
            fields.int::<u32>("n"),
            Err("field `n` is not a u32".to_owned())
        );
        for not_unsigned in ["neg", "f", "s", "z"] {
            assert!(fields.int::<u64>(not_unsigned).is_err(), "{not_unsigned}");
        }
        assert_eq!(fields.opt_int::<u64>("z"), Ok(None));
        assert_eq!(fields.opt_int::<u64>("missing"), Ok(None));
        assert!(fields.opt_int::<u64>("s").is_err());
        assert_eq!(fields.f64("f"), Ok(0.5));
        assert!(fields.f64("s").is_err());
        assert_eq!(fields.bool("b"), Ok(true));
        for not_bool in ["t", "n", "z", "missing"] {
            assert!(fields.bool(not_bool).is_err(), "{not_bool}");
        }
        let strings = fields.clone().into_strings();
        assert_eq!(
            [
                &strings["s"],
                &strings["n"],
                &strings["b"],
                &strings["z"],
                &strings["t"]
            ],
            ["x", "4294967297", "true", "null", "true"]
        );
    }

    #[test]
    fn writer_owns_quoting_separators_and_null() {
        let line = object(Layout::Compact, |o| {
            o.str("s", "a\"b\n")
                .num("n", 7)
                .bool("t", true)
                .opt_num("none", None::<u64>)
                .opt_num("some", Some(3))
                .obj("o", Layout::Compact, |o| o)
                .arr("a", Layout::Compact, |a| {
                    a.push_num(1)
                        .push_str("x")
                        .push_obj(Layout::Compact, |e| e.raw("r", "[]"))
                })
        });
        assert_eq!(
            line,
            "{\"s\":\"a\\\"b\\n\",\"n\":7,\"t\":true,\"none\":null,\"some\":3,\"o\":{},\
             \"a\":[1,\"x\",{\"r\":[]}]}"
        );
        let inline = object(Layout::Inline, |o| {
            o.num("a", format_args!("{:.3}", 0.5))
                .arr("b", Layout::Inline, |b| b.push_num(1).push_num(2))
                .obj("p", Layout::Padded, |p| p.num("x", 1).num("y", 2))
                .obj("e", Layout::Padded, |e| e)
        });
        assert_eq!(
            inline,
            "{\"a\": 0.500, \"b\": [1, 2], \"p\": { \"x\": 1, \"y\": 2 }, \"e\": { }}"
        );
        let doc = document(|d| {
            d.num("a", 1)
                .arr("e", Layout::Block(4), |e| e)
                .arr("l", Layout::Block(4), |l| {
                    l.push_obj(Layout::Inline, |o| o.num("x", 1)).push_str("y")
                })
        });
        assert_eq!(
            doc,
            "{\n  \"a\": 1,\n  \"e\": [\n  ],\n  \"l\": [\n    {\"x\": 1},\n    \"y\"\n  ]\n}\n"
        );
        assert_eq!(parse(&doc).expect("valid")["l"][1].as_str(), Some("y"));
    }

    /// Documents the suite renders, each in its layout.
    fn rendered_documents() -> Vec<String> {
        use crate::obs::{MetricScope, MetricsRegistry, TimelineTrace, TraceSpan};
        use crate::{HistogramSnapshot, LatencyStats};
        let mut registry = MetricsRegistry::new("TopH".to_owned(), 2, 8, 4);
        let mut cluster = MetricScope::new("cluster".to_owned());
        let mut latency = LatencyStats::new();
        for v in [1, 3, 5, 70] {
            latency.record(v);
        }
        cluster
            .counter_entry("cycles", 100)
            .histogram_entry("latency", HistogramSnapshot::from(&latency));
        registry.push_scope(cluster);
        let metrics = registry.to_json();
        let span = |core, tile| TraceSpan {
            core,
            tile,
            issued_at: 10,
            latency: 5,
        };
        let trace = TimelineTrace {
            spans: vec![span(4, 1), span(0, 0)],
            dropped_spans: 2,
        };
        let line = object(Layout::Compact, |o| {
            o.str("outcome", "completed")
                .num("cycles", 477)
                .str("state_digest", "0x00ff")
                .str("metrics", &metrics)
        });
        let padded = document(|d| {
            d.str("s", "é → 𝄞 \"q\"\n")
                .opt_num("z", None::<u8>)
                .obj("w", Layout::Padded, |w| w.num("f", -0.25).bool("b", false))
        });
        vec![metrics, trace.to_chrome_json(), line, padded]
    }

    /// Structure-aware garbage: rendered documents truncated, spliced with
    /// JSON's own punctuation and escapes, and crossed with each other. The
    /// reader must answer every one with a value or a typed error.
    #[test]
    fn reader_never_panics_on_truncations_and_splices_of_rendered_documents() {
        let docs = rendered_documents();
        for doc in &docs {
            parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        }
        let splices = [
            "\"", ",", ":", "\\", "{", "}", "[", "]", "\\u", "\\ud83d", "-", "0", "1e999999", ".",
            "\u{0}", "é", "null", "tru", " ", "\n",
        ];
        let mut rng = StdRng::seed_from_u64(0x6a73_6f6e);
        let (mut values, mut errors) = (0, 0);
        for _ in 0..4_000 {
            let mut bytes = docs[rng.gen_range(0..docs.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len() + 1);
                match rng.gen_range(0..4u32) {
                    0 => bytes.truncate(at),
                    1 => {
                        let piece = splices[rng.gen_range(0..splices.len())].as_bytes();
                        bytes.splice(at..at, piece.iter().copied());
                    }
                    2 => {
                        let other = docs[rng.gen_range(0..docs.len())].as_bytes();
                        let from = rng.gen_range(0..other.len());
                        let to = (from + rng.gen_range(1..64)).min(other.len());
                        bytes.splice(at..at, other[from..to].iter().copied());
                    }
                    _ => {
                        if at < bytes.len() {
                            bytes.remove(at);
                        }
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match parse(&text) {
                Ok(_) => values += 1,
                Err(
                    JsonError::Unexpected(at)
                    | JsonError::BadEscape(at)
                    | JsonError::TooDeep(at)
                    | JsonError::Trailing(at),
                ) => {
                    assert!(at < text.len(), "{at} past the end of {text:?}");
                    errors += 1;
                }
                Err(JsonError::Truncated) => errors += 1,
            }
            let _ = Fields::parse(&text);
        }
        assert!(
            values > 100 && errors > 2_000,
            "{values} values, {errors} errors"
        );
    }
}
