//! The wire codec's mechanics: frames are written straight into one
//! buffer and read in one pass over the text, with no `serde::Value`
//! tree between.
//!
//! The writer uses the `serde_json` shim's own string escaping and
//! float format, so a frame's bytes are exactly what rendering the tree
//! produced (a non-finite float still renders as `null`). The readers
//! keep the tree's rules: the first occurrence of a key wins, unknown
//! keys are ignored, integers and floats are typed as before, and a
//! frame that is not valid JSON is rejected with the parser's own
//! error. [`Fields`] defers the typed checks until the whole frame has
//! been read, so `protocol` runs them in the tree codec's order, with
//! its messages. `OfferShape`, `QosOffer` and `Attribute` are written
//! and read here by hand, following the rules of their derived
//! `Serialize` / `Deserialize`. The tree codec survives only as the
//! oracle of `tests/codec_properties.rs`.

use std::borrow::Cow;
use std::fmt::Write as _;

use serde_json::{Reader, Scalar};
use softsoa_dependability::Attribute;

use crate::qos::{OfferShape, QosOffer};

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

/// A value the codec writes as JSON.
pub(super) trait Json {
    fn write(&self, out: &mut String);
}

impl Json for str {
    fn write(&self, out: &mut String) {
        serde_json::write_string(self, out);
    }
}

impl Json for String {
    fn write(&self, out: &mut String) {
        serde_json::write_string(self, out);
    }
}

impl Json for f64 {
    fn write(&self, out: &mut String) {
        serde_json::write_float(*self, out);
    }
}

macro_rules! json_integer {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

json_integer!(i64, u64, u32);

impl Json for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<T: Json> Json for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(value) => value.write(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for [T] {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
}

impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }
}

impl Json for OfferShape {
    fn write(&self, out: &mut String) {
        let tag = match self {
            OfferShape::Linear { .. } => "Linear",
            OfferShape::Piecewise { .. } => "Piecewise",
            OfferShape::Constant { .. } => "Constant",
            OfferShape::Range { .. } => "Range",
        };
        let mut tagged = ObjWriter::open(out);
        let mut fields = ObjWriter::open(tagged.key(tag));
        match self {
            OfferShape::Linear { slope, intercept } => {
                fields.field("slope", slope).field("intercept", intercept);
            }
            OfferShape::Piecewise { points } => {
                fields.field("points", points.as_slice());
            }
            OfferShape::Constant { level } => {
                fields.field("level", level);
            }
            OfferShape::Range { min, max } => {
                fields.field("min", min).field("max", max);
            }
        }
        fields.close();
        tagged.close();
    }
}

impl Json for QosOffer {
    fn write(&self, out: &mut String) {
        let mut obj = ObjWriter::open(out);
        obj.field("attribute", attribute_name(self.attribute))
            .field("variable", &self.variable)
            .field("shape", &self.shape);
        obj.close();
    }
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

    pub(super) fn field(&mut self, key: &str, value: &(impl Json + ?Sized)) -> &mut ObjWriter<'o> {
        value.write(self.key(key));
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

    /// A field of a type with a derived `Deserialize` (an
    /// [`OfferShape`] variant or a [`QosOffer`]), with the derive's
    /// errors: `convert` reads a present value.
    fn derived<T>(
        &mut self,
        key: &str,
        container: &str,
        convert: impl FnOnce(Scalar<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        in_field(key, container, self.take(key).map(convert))
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

// The rules of the serde shim's derived and primitive `Deserialize`
// impls, which `OfferShape`, `QosOffer` and `Attribute` were read with.

fn expected(what: &str, found: &str) -> String {
    format!("expected {what}, found {found}")
}

/// A derived field: the error of a present value names the field; an
/// absent one (none of these fields is optional) is missing.
fn in_field<T>(key: &str, container: &str, read: Option<Result<T, String>>) -> Result<T, String> {
    match read {
        Some(value) => value.map_err(|e| format!("{key}: {e}")),
        None => Err(format!("missing field `{key}` in {container}")),
    }
}

fn derived_f64(value: Scalar<'_>) -> Result<f64, String> {
    number(&value).ok_or_else(|| expected("number", value.kind()))
}

fn derived_i64(value: Scalar<'_>) -> Result<i64, String> {
    match value {
        Scalar::Int(n) => Ok(n),
        Scalar::UInt(n) => i64::try_from(n).map_err(|_| "integer out of range".to_string()),
        Scalar::Float(f) if f.fract() == 0.0 => Ok(f as i64),
        other => Err(expected("integer", other.kind())),
    }
}

/// The wire name of an attribute (its variant name).
fn attribute_name(attribute: Attribute) -> &'static str {
    match attribute {
        Attribute::Availability => "Availability",
        Attribute::Reliability => "Reliability",
        Attribute::Safety => "Safety",
        Attribute::Confidentiality => "Confidentiality",
        Attribute::Integrity => "Integrity",
        Attribute::Maintainability => "Maintainability",
    }
}

/// Reads an externally tagged enum value: an object with exactly one
/// key, whose payload `variant` reads (given the tag), or a bare tag
/// string, which `unit` reads. The outer `Result` is the frame's
/// syntax; the inner one the value's type.
fn read_tagged<'a, T>(
    r: &mut Reader<'a>,
    mut variant: impl FnMut(&mut Reader<'a>, &str) -> Result<Result<T, String>, serde_json::Error>,
    unit: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Result<T, String>, serde_json::Error> {
    let mut tags = 0;
    let mut value = None;
    let other = r.object(|r, tag| {
        tags += 1;
        if tags == 1 {
            value = Some(variant(r, tag)?);
        }
        Ok(())
    })?;
    let single_key = "variant name or single-key object";
    Ok(match (other, value) {
        (None, Some(value)) if tags == 1 => value,
        (Some(Scalar::Str(tag)), _) => unit(&tag),
        (other, _) => Err(expected(single_key, other.map_or("object", |o| o.kind()))),
    })
}

/// Reads an [`OfferShape`] as its derived `Deserialize` did.
pub(super) fn read_shape(
    r: &mut Reader<'_>,
) -> Result<Result<OfferShape, String>, serde_json::Error> {
    read_tagged(r, read_shape_variant, |tag| {
        Err(format!("unknown variant `{tag}` of OfferShape"))
    })
}

fn read_shape_variant(
    r: &mut Reader<'_>,
    tag: &str,
) -> Result<Result<OfferShape, String>, serde_json::Error> {
    // The fields of every variant that are plain numbers.
    let mut f = fields!("slope", "intercept", "level", "min", "max");
    let mut points = None;
    let piecewise = tag == "Piecewise";
    let other = r.object(|r, key| match key {
        "points" if piecewise && points.is_none() => {
            points = Some(read_points(r)?);
            Ok(())
        }
        _ => f.read(r, key),
    })?;
    let shape = |other: Option<Scalar<'_>>| -> Result<OfferShape, String> {
        let known = ["Linear", "Piecewise", "Constant", "Range"];
        if !known.contains(&tag) {
            return Err(format!("unknown variant `{tag}` of OfferShape"));
        }
        if let Some(other) = other {
            let what = format!("object payload for variant `{tag}`");
            return Err(expected(&what, other.kind()));
        }
        Ok(match tag {
            "Linear" => OfferShape::Linear {
                slope: f.derived("slope", "OfferShape", derived_f64)?,
                intercept: f.derived("intercept", "OfferShape", derived_f64)?,
            },
            "Piecewise" => OfferShape::Piecewise {
                points: in_field("points", "OfferShape", points)?,
            },
            "Constant" => OfferShape::Constant {
                level: f.derived("level", "OfferShape", derived_f64)?,
            },
            _ => OfferShape::Range {
                min: f.derived("min", "OfferShape", derived_i64)?,
                max: f.derived("max", "OfferShape", derived_i64)?,
            },
        })
    };
    Ok(shape(other))
}

/// Reads `Piecewise` points: an array of `[x, level]` pairs.
fn read_points(r: &mut Reader<'_>) -> Result<Result<Vec<(i64, f64)>, String>, serde_json::Error> {
    let mut points = Ok(Vec::new());
    let other = r.array(|r| {
        let mut pair = [None, None];
        let mut len = 0;
        let item = r.array(|r| {
            if len < 2 {
                pair[len] = Some(r.value()?);
            }
            len += 1;
            Ok(())
        })?;
        if let Ok(list) = &mut points {
            let point = match (item, pair) {
                (None, [Some(x), Some(level)]) if len == 2 => {
                    derived_i64(x).and_then(|x| Ok((x, derived_f64(level)?)))
                }
                (other, _) => Err(expected(
                    "array of 2 elements",
                    other.map_or("array", |o| o.kind()),
                )),
            };
            match point {
                Ok(point) => list.push(point),
                Err(e) => points = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(match other {
        None => points,
        Some(other) => Err(expected("array", other.kind())),
    })
}

/// Reads a [`QosOffer`] as its derived `Deserialize` did.
pub(super) fn read_offer(
    r: &mut Reader<'_>,
) -> Result<Result<QosOffer, String>, serde_json::Error> {
    let mut f = fields!("attribute", "variable");
    let mut attribute = None;
    let mut shape = None;
    let other = r.object(|r, key| match key {
        "attribute" if attribute.is_none() => {
            attribute = Some(read_attribute(r)?);
            Ok(())
        }
        "shape" if shape.is_none() => {
            shape = Some(read_shape(r)?);
            Ok(())
        }
        _ => f.read(r, key),
    })?;
    let offer = || -> Result<QosOffer, String> {
        if let Some(other) = other {
            return Err(expected("object", other.kind()));
        }
        Ok(QosOffer {
            attribute: in_field("attribute", "QosOffer", attribute)?,
            variable: f.derived("variable", "QosOffer", |value| match value {
                Scalar::Str(s) => Ok(s.into_owned()),
                other => Err(expected("string", other.kind())),
            })?,
            shape: in_field("shape", "QosOffer", shape)?,
        })
    };
    Ok(offer())
}

/// Reads an [`Attribute`] (a unit-only enum) as its derived
/// `Deserialize` did.
fn read_attribute(r: &mut Reader<'_>) -> Result<Result<Attribute, String>, serde_json::Error> {
    let unknown = |tag: &str| format!("unknown variant `{tag}` of Attribute");
    read_tagged(
        r,
        |_, tag| Ok(Err(unknown(tag))),
        |tag| {
            Attribute::ALL
                .into_iter()
                .find(|a| attribute_name(*a) == tag)
                .ok_or_else(|| unknown(tag))
        },
    )
}
