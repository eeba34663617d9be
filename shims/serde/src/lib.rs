//! Workspace-local shim of the `serde` data model (no crates.io
//! access in this build environment).
//!
//! Instead of serde's visitor architecture, this shim centres on a
//! concrete JSON-like [`Value`] tree: [`Serialize`] renders into it,
//! [`Deserialize`] reads from it, and the companion `serde_json` shim
//! converts it to and from JSON text. The `derive` feature re-exports
//! `#[derive(Serialize, Deserialize)]` macros (from the workspace's
//! `serde_derive` shim) that understand the attribute subset used in
//! this repository: `rename_all = "kebab-case"`, `untagged`,
//! `default`, and `default = "path"`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data tree both traits plug into.
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

/// A (de)serialization failure.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error with a free-form message.
    pub fn custom(message: impl fmt::Display) -> Error {
        Error {
            message: message.to_string(),
        }
    }

    /// "expected X, found Y" error.
    pub fn expected(what: &str, found: &Value) -> Error {
        Error::custom(format!("expected {what}, found {}", found.kind()))
    }

    /// Missing required field error.
    pub fn missing_field(field: &str, container: &str) -> Error {
        Error::custom(format!("missing field `{field}` in {container}"))
    }

    /// Adds field context to an existing error.
    pub fn in_field(self, field: &str) -> Error {
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

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a data tree.
    fn to_value(&self) -> Value;

    /// `self` as an existing data tree, for a writer to read in place
    /// of rendering a copy; `None` (the default) for every type that
    /// is not a [`Value`] itself.
    fn as_value(&self) -> Option<&Value> {
        None
    }
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses a data tree into `Self`.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Parses a data tree the caller no longer needs; a [`Value`]
    /// takes it as is instead of copying it.
    fn from_owned(value: Value) -> Result<Self, Error> {
        Self::from_value(&value)
    }
}

// ---- primitive impls -------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<bool, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("boolean", other)),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let n: i64 = match value {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range"))?,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(n) => Value::Int(n),
                    Err(_) => Value::UInt(wide),
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let n: u64 = match value {
                    Value::Int(n) => u64::try_from(*n)
                        .map_err(|_| Error::custom("negative integer for unsigned field"))?,
                    Value::UInt(n) => *n,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                match value {
                    Value::Int(n) => Ok(*n as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Float(f) => Ok(*f as $t),
                    other => Err(Error::expected("number", other)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<String, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Arc<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Arc<str> {
    fn from_value(value: &Value) -> Result<Arc<str>, Error> {
        String::from_value(value).map(Arc::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Option<&Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Vec<T>, Error> {
        match value {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<[T; N], Error> {
        let items = Vec::<T>::from_value(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of {N} elements, found {len}")))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<BTreeMap<String, V>, Error> {
        match value {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.in_field(k))?)))
                .collect(),
            other => Err(Error::expected("object", other)),
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+ ; $len:expr) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Arr(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected(
                        concat!("array of ", stringify!($len), " elements"),
                        other,
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
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Option<&Value> {
        Some(self)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Value, Error> {
        Ok(value.clone())
    }

    fn from_owned(value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn numbers_cross_convert() {
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
        assert_eq!(i64::from_value(&Value::Float(4.0)).unwrap(), 4);
        assert!(i64::from_value(&Value::Float(4.5)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }

    #[test]
    fn options_use_null() {
        assert_eq!(Option::<i64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<i64>::from_value(&Value::Int(2)).unwrap(), Some(2));
        assert_eq!(None::<i64>.to_value(), Value::Null);
    }

    #[test]
    fn compounds_round_trip() {
        let v = vec![(vec![1i64, 2], 0.5f64)];
        let round = Vec::<(Vec<i64>, f64)>::from_value(&v.to_value()).unwrap();
        assert_eq!(round, v);

        let arr: [i64; 3] = [1, 2, 3];
        assert_eq!(<[i64; 3]>::from_value(&arr.to_value()).unwrap(), arr);
        assert!(<[i64; 2]>::from_value(&arr.to_value()).is_err());

        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 9u64);
        assert_eq!(
            BTreeMap::<String, u64>::from_value(&map.to_value()).unwrap(),
            map
        );
    }
}
