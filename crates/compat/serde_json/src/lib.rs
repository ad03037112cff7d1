//! Offline `serde_json` shim: JSON text over the vendored serde facade.
//!
//! [`to_string`] and [`from_str`] take the facade's direct path
//! ([`serde::Serialize::write_json`], [`serde::Deserialize::read_json`]
//! over a depth-bounded [`serde::Reader`]) and build no [`Value`] tree;
//! they serve the wire. [`to_value`], [`from_value`] and [`parse`] keep
//! the [`Value`] path: `parse` is an independent recursive-descent
//! parser with the same [`serde::MAX_DEPTH`] bound, and the two paths
//! serve as each other's differential oracle (`tests/json_codec.rs`).
//! [`to_string_pretty`] renders through the tree.
//!
//! Matches the serde_json conventions the workspace relies on:
//!
//! * floats always render with a fraction or exponent (`3.0`, not `3`),
//!   via Rust's shortest-roundtrip `{:?}` formatting,
//! * non-finite floats render as `null` (JSON has no NaN/inf),
//! * `from_str` requires the whole input to be one JSON document,
//! * errors carry a byte offset for malformed documents.

pub use serde::Value;

/// Encode or decode failure.
#[derive(Clone, Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }

    fn at(message: impl std::fmt::Display, pos: usize) -> Error {
        Error::new(format!("{message} at byte {pos}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Serialize a value to compact JSON.
///
/// # Errors
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's
/// signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    // Room for a typical reply line up front: growing from empty costs
    // six reallocations before a ~300 B reply fits.
    let mut out = String::with_capacity(512);
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
///
/// # Errors
/// Never fails for tree-shaped data.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.serialize(), &mut out, 0);
    Ok(out)
}

/// Convert a value into the facade's [`Value`] tree.
///
/// # Errors
/// Never fails; mirrors serde_json's signature.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Rebuild a typed value from a [`Value`] tree.
///
/// # Errors
/// Propagates facade deserialization errors.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(value).map_err(|e| Error::new(e.to_string()))
}

/// Parse one JSON document into a typed value.
///
/// # Errors
/// Malformed JSON, trailing garbage, or a shape mismatch with `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = serde::Reader::new(s);
    let value = T::read_json(&mut reader).map_err(|e| Error::new(e.to_string()))?;
    reader.finish().map_err(|e| Error::new(e.to_string()))?;
    Ok(value)
}

/// Parse one JSON document into a raw [`Value`].
///
/// # Errors
/// Malformed JSON, nesting deeper than [`serde::MAX_DEPTH`], or
/// trailing garbage.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at("trailing characters", p.pos));
    }
    Ok(v)
}

// ----------------------------------------------------------------- writer

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                serde::write_str(k, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => serde::write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open, bounded by [`serde::MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::at(
                format!("unexpected character `{}`", c as char),
                self.pos,
            )),
            None => Err(Error::at("unexpected end of input", self.pos)),
        }
    }

    /// Open one more container, refusing to nest past the bound.
    fn enter(&mut self, open: u8) -> Result<(), Error> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > serde::MAX_DEPTH {
            return Err(Error::at(
                format!("nesting deeper than {} levels", serde::MAX_DEPTH),
                self.pos,
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.enter(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.enter(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a clean UTF-8 run without escapes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::at("invalid UTF-8", start))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(Error::at("control character in string", self.pos)),
                None => return Err(Error::at("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = self
            .peek()
            .ok_or_else(|| Error::at("unterminated escape", self.pos))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a low surrogate escape next.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(Error::at("invalid low surrogate", self.pos));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(Error::at("unpaired surrogate", self.pos));
                    }
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| Error::at("invalid unicode escape", self.pos))?,
                );
            }
            other => {
                return Err(Error::at(
                    format!("invalid escape `\\{}`", other as char),
                    self.pos,
                ))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| Error::at("truncated \\u escape", self.pos))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(Error::at("invalid hex digit", self.pos)),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at("invalid number", start))?;
        if !is_float {
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Value::I64(x));
            }
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::U64(x));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for json in [
            "null", "true", "false", "3", "-41", "3.5", "1e300", "\"hi\"",
        ] {
            let v = parse(json).unwrap();
            let back = parse(&to_string(&v).unwrap()).unwrap();
            assert_eq!(v, back, "{json}");
        }
    }

    #[test]
    fn floats_keep_their_dot() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Value::F64(3.0));
        assert_eq!(parse("3").unwrap(), Value::I64(3));
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn nested_structures() {
        let json = r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": true}"#;
        let v = parse(json).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn string_escapes() {
        let s = "line\nquote\"backslash\\tab\tüñî";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        let surrogate: String = from_str(r#""😀""#).unwrap();
        assert_eq!(surrogate, "\u{1F600}");
    }

    #[test]
    fn malformed_documents_error() {
        for bad in ["", "{", "[1,", "tru", "\"open", "{\"a\":}", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn typed_entry_points() {
        let v: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(from_str::<Vec<u32>>("[1,-2]").is_err());
        assert_eq!(to_string(&vec![1u32, 2]).unwrap(), "[1,2]");
    }

    #[test]
    fn hostile_nesting_is_an_error_on_both_paths() {
        let half = 1 << 19;
        let hostile = [
            "[".repeat(1 << 20),
            format!("{}1{}", "{\"a\":[".repeat(100_000), "]}".repeat(100_000)),
            format!(
                "{{\"id\":3,\"pad\":{}{}}}",
                "[".repeat(half),
                "]".repeat(half)
            ),
        ];
        for doc in &hostile {
            assert!(from_str::<Value>(doc).is_err());
            assert!(parse(doc).is_err());
        }
        let deepest = format!(
            "{}{}",
            "[".repeat(serde::MAX_DEPTH),
            "]".repeat(serde::MAX_DEPTH)
        );
        assert!(from_str::<Value>(&deepest).is_ok());
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn direct_and_tree_paths_agree() {
        let json = r#"{"a": [1, -0, 2.5, 1e400, "x\u00e9"], "b": {"c": null}, "a": true}"#;
        let direct: Value = from_str(json).unwrap();
        assert_eq!(direct, parse(json).unwrap());
        assert_eq!(
            to_string(&direct).unwrap(),
            r#"{"a":[1,0,2.5,null,"xé"],"b":{"c":null},"a":true}"#
        );
    }
}
