//! The JSON writer: the string escaping and number format every
//! [`Serialize`](crate::Serialize) impl writes with.

use std::fmt::Write as _;

use crate::Value;

/// Writes `value` as JSON: compact, or with `indent` spaces per
/// nesting level.
pub fn write_value(value: &Value, out: &mut String, indent: Option<usize>) {
    write_nested(value, out, indent, 0);
}

fn write_nested(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
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
            write_nested(v, o, indent, l)
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
                write_nested(v, o, indent, l);
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
