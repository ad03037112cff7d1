//! The compact JSON writer behind [`Serialize::write_json`](crate::Serialize::write_json).
//!
//! Typed writers and the [`Value`] writer share these helpers, so a
//! type writes the same bytes directly as through its `Value` tree.

use crate::Value;
use std::fmt::Write;

/// Append `x`: Rust's shortest round-trip `{:?}` form, which always
/// keeps a fraction or exponent (`3.0`, `1e300`); non-finite values
/// become `null` (JSON has no NaN or infinity).
pub(crate) fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Append the decimal digits of `x`.
pub(crate) fn write_u64(mut x: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).unwrap_or_default());
}

/// Append `x` in decimal.
pub(crate) fn write_i64(x: i64, out: &mut String) {
    if x < 0 {
        out.push('-');
    }
    write_u64(x.unsigned_abs(), out);
}

/// Append `s` as a JSON string: unescaped runs are copied whole;
/// `"`, `\` and control characters are escaped (`\n`, `\r`, `\t`,
/// `\b`, `\f`, else `\u00xx`).
pub fn write_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slice ends are char
        // boundaries.
        out.push_str(s.get(run..i).unwrap_or_default());
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Append a [`Value`] tree as compact JSON.
pub fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(x) => write_i64(*x, out),
        Value::U64(x) => write_u64(*x, out),
        Value::F64(x) => write_f64(*x, out),
        Value::String(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl Fn(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn integers_match_display() {
        for x in [0, 7, -7, 10, i64::MIN, i64::MAX] {
            assert_eq!(written(|o| write_i64(x, o)), x.to_string());
        }
        for x in [0, 9, 10, 99, 100, u64::MAX] {
            assert_eq!(written(|o| write_u64(x, o)), x.to_string());
        }
    }

    #[test]
    fn floats_keep_their_dot_and_drop_non_finite() {
        for (x, text) in [
            (3.0, "3.0"),
            (-0.0, "-0.0"),
            (0.1, "0.1"),
            (1e300, "1e300"),
            (1e-7, "1e-7"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(written(|o| write_f64(x, o)), text);
        }
    }

    #[test]
    fn strings_escape_exactly_the_control_set() {
        let s = "a\"b\\c\nd\re\tf\u{8}g\u{c}h\u{1}i\u{1f}j\u{7f}ü😀";
        assert_eq!(
            written(|o| write_str(s, o)),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\\u001fj\u{7f}ü😀\""
        );
    }
}
