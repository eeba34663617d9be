//! The one-pass JSON reader every document is read through.

use std::borrow::Cow;
use std::fmt;

use crate::{Error, Value};

/// Maximum nesting depth accepted by the reader.
const MAX_DEPTH: usize = 128;

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
/// values it keeps straight out of the text, and everything else is
/// validated and skipped without building a [`Value`]. Every read goes
/// through it (the [`Deserialize`](crate::Deserialize) impls and the
/// [`Value`] tree alike), so all of them accept and reject the same
/// text with the same syntax errors. A clone is a mark to read a value
/// again from.
#[derive(Clone)]
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

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
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
    /// The syntax error the text holds.
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
    /// The syntax error of the text, or `field`'s error.
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
    /// The syntax error of the text, or `item`'s error.
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

    /// Whether the next value is `null`, without reading it.
    pub fn is_null(&self) -> bool {
        let rest = &self.bytes[self.pos..];
        let start = rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
        rest[start..].starts_with(b"null")
    }

    /// Reads the next value as a [`Value`] tree.
    pub(crate) fn tree(&mut self) -> Result<Value, Error> {
        self.parse_value(self.depth)
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
        Error::syntax(format!("{} at byte {}", message, self.pos))
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
