//! `Value` → JSON text.

use serde::value::{Number, Value};
use std::fmt::Write;

pub(crate) fn compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => number(n, out),
        Value::String(s) => string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(k, out);
                out.push(':');
                compact(v, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn pretty(value: &Value, depth: usize, out: &mut String) {
    let indent = |out: &mut String, depth: usize| {
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(out, depth + 1);
                pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(out, depth);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(out, depth + 1);
                string(k, out);
                out.push_str(": ");
                pretty(v, depth + 1, out);
            }
            out.push('\n');
            indent(out, depth);
            out.push('}');
        }
        scalar_or_empty => compact(scalar_or_empty, out),
    }
}

fn number(n: &Number, out: &mut String) {
    if let Some(u) = n.as_u64() {
        write!(out, "{u}").expect("writing to a String cannot fail");
    } else if let Some(i) = n.as_i64() {
        write!(out, "{i}").expect("writing to a String cannot fail");
    } else {
        float(n.as_f64().expect("every number reads as f64"), out);
    }
}

/// Shortest round-trip digits, laid out the way `ryu` (and so serde_json)
/// does: plain decimal with at least one fractional digit for magnitudes in
/// `[1e-5, 1e16)`, otherwise `d.ddde±x`. Rust's `{:?}` already agrees except
/// on `[1e-5, 1e-4)`, where it switches to an exponent one decade early.
fn float(f: f64, out: &mut String) {
    debug_assert!(f.is_finite(), "non-finite floats are written as null");
    let magnitude = f.abs();
    if (1e-5..1e-4).contains(&magnitude) {
        write!(out, "{f}").expect("writing to a String cannot fail");
    } else {
        write!(out, "{f:?}").expect("writing to a String cannot fail");
    }
}

fn string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            0x00..=0x1F => None,
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}
