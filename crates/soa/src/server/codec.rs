//! The wire codec's mechanics: frames are written straight into one
//! buffer and read in one pass over the text, with no `serde::Value`
//! tree between.
//!
//! Every value is written by its `serde::Serialize` impl, so a frame's
//! bytes are exactly what the serde shim writes (a non-finite float
//! renders as `null`). The request and reply envelopes are read field
//! by field here: the first occurrence of a key wins, unknown keys are
//! ignored, and a frame that is not valid JSON is rejected with the
//! reader's own error. [`Fields`] defers the typed checks until the
//! whole frame has been read, so `protocol` runs them in a fixed order,
//! with the wire protocol's messages. The payload types (`OfferShape`,
//! `QosOffer`) read and write themselves through their derived impls.

use std::borrow::Cow;

use serde::Serialize;
use serde_json::{Reader, Scalar};

/// Room for a typical frame and its terminator, so that rendering one
/// allocates once; longer text grows the buffer.
const FRAME_CAPACITY: usize = 320;

/// Renders one JSON object frame payload: `write` writes its fields.
pub(super) fn render(write: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::with_capacity(FRAME_CAPACITY);
    let mut obj = ObjWriter::open(&mut out);
    write(&mut obj);
    obj.close();
    out
}

/// A JSON object written field by field into a buffer.
pub(super) struct ObjWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjWriter<'o> {
    pub(super) fn open(out: &'o mut String) -> ObjWriter<'o> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Starts the field `key` (a plain identifier: nothing to escape)
    /// and returns the buffer its value is written to.
    pub(super) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    pub(super) fn field(
        &mut self,
        key: &str,
        value: &(impl Serialize + ?Sized),
    ) -> &mut ObjWriter<'o> {
        value.serialize(self.key(key));
        self
    }

    pub(super) fn close(self) {
        self.out.push('}');
    }
}

/// Builds the [`Fields`] of the listed keys. A key's slot is found by
/// comparing it with each literal in turn, which compiles to
/// fixed-length compares, where searching a table of names calls
/// `memcmp` for every candidate (about a tenth of a request parse).
macro_rules! fields {
    ($($key:literal),+ $(,)?) => {
        $crate::server::codec::Fields::<{ [$($key),+].len() }>::new(|key| {
            let mut slot = 0;
            $(
                if key == $key {
                    return Some(slot);
                }
                slot += 1;
            )+
            let _ = slot;
            None
        })
    };
}

pub(super) use fields;

/// The first occurrence of each of `N` keys in one object, read in
/// place; any other key is left for the reader to skip. The typed
/// getters take a field out and give the wire protocol's errors. Build
/// one with [`fields!`].
pub(super) struct Fields<'a, const N: usize> {
    slot: fn(&str) -> Option<usize>,
    values: [Option<Scalar<'a>>; N],
}

impl<'a, const N: usize> Fields<'a, N> {
    pub(super) fn new(slot: fn(&str) -> Option<usize>) -> Fields<'a, N> {
        Fields {
            slot,
            values: std::array::from_fn(|_| None),
        }
    }

    /// Reads the value of `key` if it is one of the keys and its first
    /// occurrence.
    pub(super) fn read(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), serde_json::Error> {
        if let Some(i) = (self.slot)(key) {
            if self.values[i].is_none() {
                self.values[i] = Some(r.value()?);
            }
        }
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<Scalar<'a>> {
        let i = (self.slot)(key).expect("a declared key");
        self.values[i].take()
    }

    pub(super) fn str(&mut self, key: &str) -> Result<Cow<'a, str>, String> {
        match self.take(key) {
            Some(Scalar::Str(s)) => Ok(s),
            Some(other) => Err(format!(
                "field `{key}`: expected string, got {}",
                other.kind()
            )),
            None => Err(format!("missing field `{key}`")),
        }
    }

    pub(super) fn string(&mut self, key: &str) -> Result<String, String> {
        self.str(key).map(Cow::into_owned)
    }

    pub(super) fn opt_string(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            None | Some(Scalar::Null) => Ok(None),
            Some(Scalar::Str(s)) => Ok(Some(s.into_owned())),
            Some(other) => Err(format!(
                "field `{key}`: expected string or null, got {}",
                other.kind()
            )),
        }
    }

    pub(super) fn opt_u32(&mut self, key: &str) -> Result<Option<u32>, String> {
        let range = |_| format!("field `{key}`: out of range");
        match self.take(key) {
            None | Some(Scalar::Null) => Ok(None),
            Some(Scalar::Int(i)) => u32::try_from(i).map(Some).map_err(range),
            Some(Scalar::UInt(u)) => u32::try_from(u).map(Some).map_err(range),
            Some(other) => Err(format!(
                "field `{key}`: expected unsigned integer or null, got {}",
                other.kind()
            )),
        }
    }

    pub(super) fn f64(&mut self, key: &str) -> Result<f64, String> {
        self.take(key)
            .as_ref()
            .and_then(number)
            .ok_or_else(|| format!("field `{key}`: expected number"))
    }

    pub(super) fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take(key) {
            None | Some(Scalar::Null) => Ok(None),
            Some(v) => number(&v)
                .map(Some)
                .ok_or_else(|| format!("field `{key}`: expected number or null")),
        }
    }

    pub(super) fn i64(&mut self, key: &str) -> Result<i64, String> {
        match self.take(key) {
            Some(Scalar::Int(i)) => Ok(i),
            Some(Scalar::UInt(u)) => {
                i64::try_from(u).map_err(|_| format!("field `{key}`: overflow"))
            }
            _ => Err(format!("field `{key}`: expected integer")),
        }
    }

    pub(super) fn opt_i64(&mut self, key: &str) -> Result<Option<i64>, String> {
        match self.take(key) {
            None | Some(Scalar::Null) => Ok(None),
            Some(Scalar::Int(i)) => Ok(Some(i)),
            Some(Scalar::UInt(u)) => i64::try_from(u)
                .map(Some)
                .map_err(|_| format!("field `{key}`: overflow")),
            Some(other) => Err(format!(
                "field `{key}`: expected integer or null, got {}",
                other.kind()
            )),
        }
    }

    pub(super) fn u64(&mut self, key: &str) -> Result<u64, String> {
        match self.take(key) {
            Some(Scalar::Int(i)) => {
                u64::try_from(i).map_err(|_| format!("field `{key}`: negative"))
            }
            Some(Scalar::UInt(u)) => Ok(u),
            _ => Err(format!("field `{key}`: expected unsigned integer")),
        }
    }

    pub(super) fn bool(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key) {
            Some(Scalar::Bool(b)) => Ok(b),
            _ => Err(format!("field `{key}`: expected boolean")),
        }
    }
}

fn number(value: &Scalar<'_>) -> Option<f64> {
    match value {
        Scalar::Int(i) => Some(*i as f64),
        Scalar::UInt(u) => Some(*u as f64),
        Scalar::Float(f) => Some(*f),
        _ => None,
    }
}
