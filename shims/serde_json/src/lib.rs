//! Workspace-local JSON text layer over the serde shim.
//!
//! [`from_str`] reads a document in one pass: the target type pulls
//! its values straight out of the text through the shim's [`Reader`],
//! and the text must hold exactly one value. [`to_string`] has the
//! value write itself into one `String`; [`to_string_pretty`] re-reads
//! that text as a [`Value`] tree and writes it two-space indented. A
//! syntax error anywhere in the text beats any type error, so a
//! document that is not JSON is always reported as such.
//!
//! The reader ([`read`], [`Reader`], [`Scalar`]), the writer's own
//! escaping and number format ([`write_string`], [`write_float`]) and
//! the [`Error`] type live in the serde shim and are re-exported here
//! under the paths the workspace names.

pub use serde::{read, write_float, write_string, Error, Reader, Scalar};
use serde::{Deserialize, Serialize, Value};

/// Serialises `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Serialises `value` as two-space indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree: Value = from_str(&to_string(value)?)?;
    let mut out = String::new();
    serde::write_value(&tree, &mut out, Some(2));
    Ok(out)
}

/// Parses `text` into a `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    read(text, |r| serde::de::typed(T::deserialize(r)))?
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        from_str(text).unwrap()
    }

    fn parse_value_complete(text: &str) -> Result<Value, Error> {
        from_str(text)
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
        let compact = to_string(&value).unwrap();
        assert_eq!(parse(&compact), value);
        let pretty = to_string_pretty(&value).unwrap();
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
