//! Workspace-local JSON codec over the serde shim's [`Value`] tree.
//!
//! Provides `to_string`, `to_string_pretty` and `from_str` with the
//! `serde_json::Error` type the workspace names. The parser is a
//! recursive-descent JSON reader (escapes, `\uXXXX` with surrogate
//! pairs, nesting-depth cap); the writer emits compact or two-space
//! indented JSON. A [`Value`] is written and parsed in place, never
//! copied, and a string is copied run by run, so parsing is linear in
//! the input.
//!
//! For codecs that skip the tree, [`read`] hands a one-pass
//! [`Reader`] over the text (strings borrowed unless escaped, unread
//! values validated and skipped), and [`write_string`] /
//! [`write_float`] are the writer's own escaping and number format.

use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 128;

/// A JSON encoding or decoding failure.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl fmt::Display) -> Error {
        Error {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error::new(e)
    }
}

/// Serialises `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_root(value, None))
}

/// Serialises `value` as two-space indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_root(value, Some(2)))
}

/// Parses `text` into a `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_complete(text)?;
    Ok(T::from_owned(value)?)
}

/// Writes `value`, reading a [`Value`] in place rather than rendering
/// a copy of it.
fn write_root<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::new();
    match value.as_value() {
        Some(tree) => write_value(tree, &mut out, indent, 0),
        None => write_value(&value.to_value(), &mut out, indent, 0),
    }
    out
}

// ---- writer ----------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => write_seq(items.iter(), out, indent, level, ('[', ']'), |v, o, l| {
            write_value(v, o, indent, l)
        }),
        Value::Obj(pairs) => write_seq(
            pairs.iter(),
            out,
            indent,
            level,
            ('{', '}'),
            |(k, v), o, l| {
                write_string(k, o);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(v, o, indent, l);
            },
        ),
    }
}

fn write_seq<I, F>(
    items: I,
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    brackets: (char, char),
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(I::Item, &mut String, usize),
{
    out.push(brackets.0);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(item, out, level + 1);
    }
    if !empty {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(brackets.1);
}

/// Writes `f` as a JSON number; JSON has no NaN or infinity, so a
/// non-finite float is written as `null`.
pub fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- reader ----------------------------------------------------------

/// One JSON value as [`Reader::value`] reads it: a scalar decoded in
/// place, a string borrowed from the text unless it holds an escape,
/// and an array or object known by its kind only (the reader has
/// validated and skipped it).
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Integers representable as `i64`.
    Int(i64),
    /// Integers above `i64::MAX`.
    UInt(u64),
    /// All other JSON numbers.
    Float(f64),
    /// JSON strings.
    Str(Cow<'a, str>),
    /// An array, skipped.
    Arr,
    /// An object, skipped.
    Obj,
}

impl Scalar<'_> {
    /// A short human-readable name of the value's kind, as
    /// [`Value::kind`] names it.
    pub fn kind(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "boolean",
            Scalar::Int(_) | Scalar::UInt(_) | Scalar::Float(_) => "number",
            Scalar::Str(_) => "string",
            Scalar::Arr => "array",
            Scalar::Obj => "object",
        }
    }

    fn into_value(self) -> Value {
        match self {
            Scalar::Null => Value::Null,
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(n) => Value::Int(n),
            Scalar::UInt(n) => Value::UInt(n),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::Str(s.into_owned()),
            Scalar::Arr | Scalar::Obj => unreachable!("composites are read, not tokens"),
        }
    }
}

/// A one-pass JSON reader over borrowed text: the caller pulls the
/// values it keeps straight out of the frame, and everything else is
/// validated and skipped without building a [`Value`]. It accepts
/// and rejects exactly what [`from_str`] does, with the same error
/// messages, since the tree parser is built on it.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The nesting depth of the next value the public API reads.
    depth: usize,
}

/// Reads `text` as one JSON document: `read` reads (at most) the one
/// top-level value, which is skipped if `read` leaves it, and only
/// whitespace may follow it.
pub fn read<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut reader = Reader::new(text);
    reader.skip_ws();
    let value = reader.visit(read)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing characters after JSON value"));
    }
    Ok(value)
}

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    read(text, |reader| reader.parse_value(0))
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Reads the next value; an array or object is skipped and
    /// reported by its kind.
    ///
    /// # Errors
    ///
    /// The syntax error [`from_str`] reports for the same text.
    pub fn value(&mut self) -> Result<Scalar<'a>, Error> {
        let depth = self.depth;
        match self.open(depth)? {
            Scalar::Arr => self.items(|r| r.skip(depth + 1)).map(|()| Scalar::Arr),
            Scalar::Obj => self.pairs(|r, _| r.skip(depth + 1)).map(|()| Scalar::Obj),
            scalar => Ok(scalar),
        }
    }

    /// Reads the next value, handing each key of an object to `field`
    /// with the reader at that key's value. `field` reads at most that
    /// one value (through [`Reader::value`], [`Reader::object`] or
    /// [`Reader::array`]); a value it leaves is skipped. Returns
    /// `None` for an object, and any other value as
    /// [`Reader::value`] reads it.
    ///
    /// # Errors
    ///
    /// The syntax error [`from_str`] reports, or `field`'s error.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), Error>,
    ) -> Result<Option<Scalar<'a>>, Error> {
        let depth = self.depth;
        match self.open(depth)? {
            Scalar::Obj => self
                .pairs(|r, key| r.nested(depth, |r| field(r, &key)))
                .map(|()| None),
            Scalar::Arr => self
                .items(|r| r.skip(depth + 1))
                .map(|()| Some(Scalar::Arr)),
            scalar => Ok(Some(scalar)),
        }
    }

    /// Reads the next value, handing each element of an array to
    /// `item` as [`Reader::object`] hands it each field. Returns
    /// `None` for an array, and any other value as [`Reader::value`]
    /// reads it.
    ///
    /// # Errors
    ///
    /// The syntax error [`from_str`] reports, or `item`'s error.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<Option<Scalar<'a>>, Error> {
        let depth = self.depth;
        match self.open(depth)? {
            Scalar::Arr => self.items(|r| r.nested(depth, &mut item)).map(|()| None),
            Scalar::Obj => self
                .pairs(|r, _| r.skip(depth + 1))
                .map(|()| Some(Scalar::Obj)),
            scalar => Ok(Some(scalar)),
        }
    }

    /// Runs `visit` on the value at `depth + 1`, skipping it if
    /// `visit` reads nothing.
    fn nested(
        &mut self,
        depth: usize,
        visit: impl FnOnce(&mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.depth = depth + 1;
        let value = self.visit(visit);
        self.depth = depth;
        value
    }

    /// Runs `visit` on the value at the current depth, skipping it if
    /// `visit` reads nothing (a value is never empty, so a read always
    /// moves the position).
    fn visit<T>(
        &mut self,
        visit: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let start = self.pos;
        let value = visit(self)?;
        if self.pos == start {
            self.skip(self.depth)?;
        }
        Ok(value)
    }

    fn error(&self, message: impl fmt::Display) -> Error {
        Error::new(format!("{} at byte {}", message, self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    #[inline]
    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Reads a scalar, or the opening bracket of an array or object
    /// (returned as [`Scalar::Arr`] / [`Scalar::Obj`]).
    #[inline]
    fn open(&mut self, depth: usize) -> Result<Scalar<'a>, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Scalar::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Scalar::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Scalar::Bool(false)),
            Some(b'"') => self.parse_string().map(Scalar::Str),
            Some(b'[') => {
                self.pos += 1;
                Ok(Scalar::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                Ok(Scalar::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads the elements of an opened array, each through `item`.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads the pairs of an opened object, each value through `field`.
    fn pairs(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    /// Validates and skips one value at `depth`.
    fn skip(&mut self, depth: usize) -> Result<(), Error> {
        match self.open(depth)? {
            Scalar::Arr => self.items(|r| r.skip(depth + 1)),
            Scalar::Obj => self.pairs(|r, _| r.skip(depth + 1)),
            _ => Ok(()),
        }
    }

    /// Builds the [`Value`] tree of one value at `depth`.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.open(depth)? {
            Scalar::Arr => {
                let mut items = Vec::new();
                self.items(|r| {
                    items.push(r.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Scalar::Obj => {
                let mut pairs = Vec::new();
                self.pairs(|r, key| {
                    pairs.push((key.into_owned(), r.parse_value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(pairs))
            }
            scalar => Ok(scalar.into_value()),
        }
    }

    /// Reads a string, borrowing it from the text when it holds no
    /// escape.
    #[inline]
    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        // Both delimiters are ASCII, so every run ends on a character
        // boundary of the input `&str`.
        let run_end = |from: usize, bytes: &[u8]| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(bytes.len(), |run| from + run)
        };
        let end = run_end(self.pos, self.bytes);
        if self.bytes.get(end) == Some(&b'"') {
            let text = &self.text[self.pos..end];
            self.pos = end + 1;
            return Ok(Cow::Borrowed(text));
        }
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require a low one.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(self.error("lone high surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(unit)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash.
                    let end = run_end(self.pos, self.bytes);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    #[inline]
    fn parse_number(&mut self) -> Result<Scalar<'a>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Scalar::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Scalar::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        parse_value_complete(text).unwrap()
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Value::Null);
        assert_eq!(parse("true"), Value::Bool(true));
        assert_eq!(parse("-42"), Value::Int(-42));
        assert_eq!(parse("18446744073709551615"), Value::UInt(u64::MAX));
        assert_eq!(parse("2.5"), Value::Float(2.5));
        assert_eq!(parse("1e3"), Value::Float(1000.0));
        assert_eq!(parse("\"a\\nb\\u00e9\""), Value::Str("a\nbé".to_string()));
    }

    #[test]
    fn compounds_parse() {
        let v = parse(r#"{"xs": [1, 2], "nested": {"k": "v"}, "empty": []}"#);
        assert_eq!(
            v.get("xs"),
            Some(&Value::Arr(vec![Value::Int(1), Value::Int(2)]))
        );
        assert_eq!(
            v.get("nested").and_then(|n| n.get("k")),
            Some(&Value::Str("v".into()))
        );
        assert_eq!(v.get("empty"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud834\\udd1e\""), Value::Str("𝄞".to_string()));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_value_complete("{").is_err());
        assert!(parse_value_complete("[1,]").is_err());
        assert!(parse_value_complete("1 2").is_err());
        assert!(parse_value_complete("\"\\q\"").is_err());
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse_value_complete(&deep).is_err());
    }

    #[test]
    fn write_round_trips() {
        let value = Value::Obj(vec![
            (
                "a".to_string(),
                Value::Arr(vec![Value::Int(1), Value::Float(0.5)]),
            ),
            ("s".to_string(), Value::Str("q\"\\\n".to_string())),
            ("big".to_string(), Value::UInt(u64::MAX)),
            ("none".to_string(), Value::Null),
        ]);
        let mut compact = String::new();
        write_value(&value, &mut compact, None, 0);
        assert_eq!(parse(&compact), value);
        let mut pretty = String::new();
        write_value(&value, &mut pretty, Some(2), 0);
        assert_eq!(parse(&pretty), value);
        assert!(pretty.contains('\n'));
    }

    /// A string is copied run by run: a 1 MiB string (sixteen times the
    /// largest frame the daemon accepts) parses well inside the bound,
    /// where decoding the rest of the input for every character took
    /// minutes.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let body = r#"ab\u00e9\\"#.repeat(1 << 18);
        let text = format!("\"{body}\"");
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        let Value::Str(parsed) = parse(&text) else {
            panic!("a string parses to a string");
        };
        let elapsed = start.elapsed();
        assert_eq!(parsed, "abé\\".repeat(1 << 18));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn a_value_is_written_and_read_in_place() {
        let value = parse(r#"{"op":"ping","n":[-1,18446744073709551615,2.5,-0.125]}"#);
        let text = to_string(&value).unwrap();
        assert_eq!(
            text,
            r#"{"op":"ping","n":[-1,18446744073709551615,2.5,-0.125]}"#
        );
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn typed_round_trip_through_text() {
        let spec: (Vec<u64>, Option<String>) = (vec![1, 2, 3], None);
        let text = to_string(&spec).unwrap();
        let back: (Vec<u64>, Option<String>) = from_str(&text).unwrap();
        assert_eq!(back, spec);
    }
}
