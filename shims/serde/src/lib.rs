//! Workspace-local shim of the `serde` data model (no crates.io
//! access in this build environment).
//!
//! As in upstream serde, a type streams itself through the text: a
//! [`Deserialize`] type reads its one value straight from a one-pass
//! JSON [`Reader`], and a [`Serialize`] type writes its value straight
//! into one `String`, so no intermediate tree is built. The companion
//! `serde_json` shim wraps both as `from_str` / `to_string`. The
//! `derive` feature re-exports `#[derive(Serialize, Deserialize)]`
//! macros (from the workspace's `serde_derive` shim) that understand
//! the attribute subset used in this repository: `rename_all =
//! "kebab-case"`, `untagged`, `default`, and `default = "path"`; the
//! code they generate calls the helpers in [`de`].
//!
//! A [`Value`] is the tree form of a document, for callers that want
//! one as data (reports, tests): it is read by building the tree and
//! written compact, or pretty through `serde_json::to_string_pretty`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

pub use read::{read, Reader, Scalar};
pub use write::{write_float, write_string, write_value};

/// The self-describing data tree of a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Integers representable as `i64`.
    Int(i64),
    /// Integers above `i64::MAX` (e.g. `u64::MAX` tuple costs).
    UInt(u64),
    /// All other JSON numbers.
    Float(f64),
    /// JSON strings.
    Str(String),
    /// JSON arrays.
    Arr(Vec<Value>),
    /// JSON objects, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A short human-readable name of the value's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// A (de)serialization failure: a *syntax* error (the text is not
/// JSON, reported by the [`Reader`] with its byte offset) or a *type*
/// error (well-formed JSON of the wrong shape).
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
    syntax: bool,
}

impl Error {
    /// A type error with a free-form message.
    pub fn custom(message: impl fmt::Display) -> Error {
        Error {
            message: message.to_string(),
            syntax: false,
        }
    }

    fn syntax(message: String) -> Error {
        Error {
            message,
            syntax: true,
        }
    }

    /// "expected X, found Y" error.
    pub fn expected(what: &str, found: &Scalar<'_>) -> Error {
        Error::custom(format!("expected {what}, found {}", found.kind()))
    }

    /// Missing required field error.
    pub fn missing_field(field: &str, container: &str) -> Error {
        Error::custom(format!("missing field `{field}` in {container}"))
    }

    /// Adds field context to a type error; a syntax error is returned
    /// as it is.
    pub fn in_field(self, field: &str) -> Error {
        if self.syntax {
            return self;
        }
        Error::custom(format!("{}: {}", field, self.message))
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self` to `out` as compact JSON.
    fn serialize(&self, out: &mut String);
}

/// Types that read themselves from JSON.
///
/// An implementation reads one value through the reader. A syntax
/// error ends the whole read at once; after a type error the reader
/// must stand past the value or still at its start (where the caller
/// skips it), so that reading goes on and a syntax error later in the
/// text still wins.
pub trait Deserialize: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// The reader's syntax error, or a type error naming what was
    /// expected.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// The value of a struct field whose key is absent: `None` for an
    /// `Option`, and no value, a missing field, for every other type.
    fn absent() -> Option<Self> {
        None
    }
}

/// The helpers the derived impls are written in.
pub mod de {
    use super::{Deserialize, Error, Reader, Scalar};

    /// Splits a read's outcome: `Err` is a syntax error, which ends the
    /// read, and `Ok(Err)` a type error, after which reading goes on.
    ///
    /// # Errors
    ///
    /// The syntax error.
    pub fn typed<T>(read: Result<T, Error>) -> Result<Result<T, Error>, Error> {
        match read {
            Err(e) if e.syntax => Err(e),
            read => Ok(read),
        }
    }

    /// A struct field as read (its error names the field), or, if the
    /// key was absent, its [`Deserialize::absent`] value, else a
    /// missing field.
    ///
    /// # Errors
    ///
    /// The field's type error, or the missing field.
    pub fn field<T: Deserialize>(
        read: Option<Result<T, Error>>,
        name: &str,
        container: &str,
    ) -> Result<T, Error> {
        match read {
            Some(read) => read.map_err(|e| e.in_field(name)),
            None => T::absent().ok_or_else(|| Error::missing_field(name, container)),
        }
    }

    /// A struct field with a `#[serde(default)]`: as read, or
    /// `default()` if the key was absent.
    ///
    /// # Errors
    ///
    /// The field's type error.
    pub fn field_or<T>(
        read: Option<Result<T, Error>>,
        name: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match read {
            Some(read) => read.map_err(|e| e.in_field(name)),
            None => Ok(default()),
        }
    }

    /// Reads an externally tagged enum: a bare tag string, which
    /// `unit` names a unit variant for, or an object with exactly one
    /// key, whose payload `variant` reads given the tag. Either
    /// returns `None` for a tag it does not know.
    ///
    /// # Errors
    ///
    /// The syntax error, the payload's type error, an unknown variant
    /// of `container`, or any other value.
    pub fn tagged<'a, T>(
        r: &mut Reader<'a>,
        container: &str,
        unit: impl FnOnce(&str) -> Option<T>,
        mut variant: impl FnMut(&mut Reader<'a>, &str) -> Option<Result<T, Error>>,
    ) -> Result<T, Error> {
        let unknown = |tag: &str| Error::custom(format!("unknown variant `{tag}` of {container}"));
        let mut tags = 0;
        let mut value = None;
        let other = r.object(|r, tag| {
            tags += 1;
            if tags == 1 {
                value = Some(match variant(r, tag) {
                    Some(read) => typed(read)?,
                    None => Err(unknown(tag)),
                });
            }
            Ok(())
        })?;
        match (other, value) {
            (None, Some(value)) if tags == 1 => value,
            (Some(Scalar::Str(tag)), _) => unit(&tag).ok_or_else(|| unknown(&tag)),
            (other, _) => Err(Error::expected(
                "variant name or single-key object",
                &other.unwrap_or(Scalar::Obj),
            )),
        }
    }

    /// A reader of one value, as an untagged enum's variant is read.
    pub type ReadFn<'a, T> = fn(&mut Reader<'a>) -> Result<T, Error>;

    /// Reads an untagged enum: the first of `variants` that reads the
    /// value without a type error, each trying it from the start.
    ///
    /// # Errors
    ///
    /// The syntax error, or no variant of `container` matched.
    pub fn untagged<'a, T>(
        r: &mut Reader<'a>,
        container: &str,
        variants: &[ReadFn<'a, T>],
    ) -> Result<T, Error> {
        let start = r.clone();
        for variant in variants {
            *r = start.clone();
            if let Ok(value) = typed(variant(r))? {
                return Ok(value);
            }
        }
        Err(Error::custom(format!(
            "no untagged variant of {container} matched the input"
        )))
    }
}

use de::typed;

// ---- primitive impls -------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<bool, Error> {
        match r.value()? {
            Scalar::Bool(b) => Ok(b),
            other => Err(Error::expected("boolean", &other)),
        }
    }
}

/// Reads an integer token, or a float with no fractional part, as an
/// `i128`, which holds every `i64` and `u64` exactly; a float beyond
/// `i128` (an infinite one too) saturates, and is still out of range
/// for every integer type.
fn integer(r: &mut Reader<'_>) -> Result<i128, Error> {
    match r.value()? {
        Scalar::Int(n) => Ok(n.into()),
        Scalar::UInt(n) => Ok(n.into()),
        Scalar::Float(f) if f.fract() == 0.0 || f.is_infinite() => Ok(f as i128),
        other => Err(Error::expected("integer", &other)),
    }
}

macro_rules! impl_integer {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<$t, Error> {
                let n = integer(r)?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(if n < 0 && <$t>::MIN == 0 {
                        "negative integer for unsigned field"
                    } else {
                        "integer out of range"
                    })
                })
            }
        }
    )*};
}

impl_integer!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                write_float(*self as f64, out);
            }
        }

        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<$t, Error> {
                match r.value()? {
                    Scalar::Int(n) => Ok(n as $t),
                    Scalar::UInt(n) => Ok(n as $t),
                    Scalar::Float(f) => Ok(f as $t),
                    other => Err(Error::expected("number", &other)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<String, Error> {
        match r.value()? {
            Scalar::Str(s) => Ok(s.into_owned()),
            other => Err(Error::expected("string", &other)),
        }
    }
}

impl Serialize for Arc<str> {
    fn serialize(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl Deserialize for Arc<str> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Arc<str>, Error> {
        String::deserialize(r).map(Arc::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Option<T>, Error> {
        if r.is_null() {
            r.value()?;
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Vec<T>, Error> {
        let mut items = Ok(Vec::new());
        let other = r.array(|r| {
            // After the first bad element the rest are only skipped.
            if let Ok(list) = &mut items {
                match typed(T::deserialize(r))? {
                    Ok(item) => list.push(item),
                    Err(e) => items = Err(e),
                }
            }
            Ok(())
        })?;
        match other {
            Some(other) => Err(Error::expected("array", &other)),
            None => items,
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<[T; N], Error> {
        let items = Vec::<T>::deserialize(r)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of {N} elements, found {len}")))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(k, out);
            out.push(':');
            v.serialize(out);
        }
        out.push('}');
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<BTreeMap<String, V>, Error> {
        let mut map = Ok(BTreeMap::new());
        let other = r.object(|r, key| {
            // A repeated key's later value replaces the earlier one;
            // after the first bad entry the rest are only skipped.
            if let Ok(entries) = &mut map {
                match typed(V::deserialize(r))? {
                    Ok(value) => {
                        entries.insert(key.to_string(), value);
                    }
                    Err(e) => map = Err(e.in_field(key)),
                }
            }
            Ok(())
        })?;
        match other {
            Some(other) => Err(Error::expected("object", &other)),
            None => map,
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+ ; $len:expr) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut String) {
                [$(&self.$idx as &dyn Serialize),+].serialize(out);
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let mut items: ($(Option<Result<$name, Error>>,)+) = Default::default();
                let mut len = 0;
                let other = r.array(|r| {
                    match len {
                        $($idx => items.$idx = Some(typed($name::deserialize(r))?),)+
                        _ => {}
                    }
                    len += 1;
                    Ok(())
                })?;
                match other {
                    None if len == $len => Ok(($(items.$idx.expect("an element read")?,)+)),
                    other => Err(Error::expected(
                        concat!("array of ", stringify!($len), " elements"),
                        &other.unwrap_or(Scalar::Arr),
                    )),
                }
            }
        }
    };
}

impl_tuple!(A:0; 1);
impl_tuple!(A:0, B:1; 2);
impl_tuple!(A:0, B:1, C:2; 3);
impl_tuple!(A:0, B:1, C:2, D:3; 4);

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        write_value(self, out, None);
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Value, Error> {
        r.tree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `text` as a `T`, type errors included.
    fn parse<T: Deserialize>(text: &str) -> Result<T, Error> {
        read(text, |r| typed(T::deserialize(r)))?
    }

    fn render<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut out);
        out
    }

    #[test]
    fn primitives_round_trip() {
        assert!(parse::<bool>(&render(&true)).unwrap());
        assert_eq!(parse::<i64>(&render(&-7i64)).unwrap(), -7);
        assert_eq!(parse::<u64>(&render(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(parse::<f64>(&render(&1.5f64)).unwrap(), 1.5);
        assert_eq!(parse::<String>(&render("h\"i")).unwrap(), "h\"i");
    }

    #[test]
    fn numbers_cross_convert() {
        assert_eq!(parse::<f64>("3").unwrap(), 3.0);
        assert_eq!(parse::<i64>("4.0").unwrap(), 4);
        assert_eq!(
            parse::<i64>("4.5").unwrap_err().message(),
            "expected integer, found number"
        );
        assert_eq!(
            parse::<u32>("-1").unwrap_err().message(),
            "negative integer for unsigned field"
        );
        assert_eq!(
            parse::<u8>("256").unwrap_err().message(),
            "integer out of range"
        );
    }

    #[test]
    fn integral_floats_read_exactly_or_out_of_range() {
        assert_eq!(parse::<i64>("-9.223372036854775808e18").unwrap(), i64::MIN);
        assert_eq!(parse::<u64>("1e19").unwrap(), 10_000_000_000_000_000_000);
        assert_eq!(parse::<u32>("2.0").unwrap(), 2);
        assert_eq!(parse::<u64>("-0.0").unwrap(), 0);
        for (text, message) in [
            ("1e300", "integer out of range"),
            ("1e19", "integer out of range"),
            ("-1e300", "integer out of range"),
            ("9.223372036854775808e18", "integer out of range"),
            ("1e400", "integer out of range"),
        ] {
            assert_eq!(parse::<i64>(text).unwrap_err().message(), message, "{text}");
        }
        for (text, message) in [
            ("1e300", "integer out of range"),
            ("1.8446744073709551616e19", "integer out of range"),
            ("-1.0", "negative integer for unsigned field"),
            ("-1e300", "negative integer for unsigned field"),
            ("-1e400", "negative integer for unsigned field"),
            ("-1.5", "expected integer, found number"),
        ] {
            assert_eq!(parse::<u64>(text).unwrap_err().message(), message, "{text}");
        }
        assert_eq!(
            parse::<u32>("4294967296.0").unwrap_err().message(),
            "integer out of range"
        );
    }

    #[test]
    fn options_use_null() {
        assert_eq!(parse::<Option<i64>>(" null").unwrap(), None);
        assert_eq!(parse::<Option<i64>>("2").unwrap(), Some(2));
        assert_eq!(render(&None::<i64>), "null");
    }

    #[test]
    fn compounds_round_trip() {
        let v = vec![(vec![1i64, 2], 0.5f64)];
        assert_eq!(render(&v), "[[[1,2],0.5]]");
        assert_eq!(parse::<Vec<(Vec<i64>, f64)>>(&render(&v)).unwrap(), v);

        let arr: [i64; 3] = [1, 2, 3];
        assert_eq!(parse::<[i64; 3]>(&render(&arr)).unwrap(), arr);
        assert_eq!(
            parse::<[i64; 2]>(&render(&arr)).unwrap_err().message(),
            "expected array of 2 elements, found 3"
        );

        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 9u64);
        assert_eq!(render(&map), r#"{"k":9}"#);
        assert_eq!(parse::<BTreeMap<String, u64>>(&render(&map)).unwrap(), map);
    }

    #[test]
    fn a_type_error_waits_for_the_rest_of_the_text() {
        assert_eq!(
            parse::<Vec<i64>>(r#"["a", 2"#).unwrap_err().message(),
            "expected `,` or `]` in array at byte 7"
        );
        assert_eq!(
            parse::<Vec<i64>>(r#"["a", true]"#).unwrap_err().message(),
            "expected integer, found string"
        );
        assert_eq!(
            parse::<BTreeMap<String, i64>>(r#"{"a": 1, "b": "x", "c": null}"#)
                .unwrap_err()
                .message(),
            "b: expected integer, found string"
        );
        assert_eq!(
            parse::<(i64, f64)>("[1, 2, 3]").unwrap_err().message(),
            "expected array of 2 elements, found array"
        );
    }
}
