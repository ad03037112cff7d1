//! The pull reader behind [`Deserialize::read_json`](crate::Deserialize::read_json).
//!
//! A [`Reader`] walks JSON text once, front to back, and hands typed
//! readers one token at a time: no [`Value`] tree is built unless the
//! target type *is* a [`Value`]. It accepts exactly the documents the
//! `Value` parser in `serde_json` accepts, with one bound added:
//!
//! * **Depth.** Every `[` and `{` counts one level, whether the value
//!   is read into a type or skipped; entering level [`MAX_DEPTH`] + 1
//!   is a syntax error. Skipping is iterative, so no input can grow
//!   the call stack past the bound.
//! * **Numbers.** Scanned and classified like `serde_json`'s parser:
//!   integer text tries `i64`, then `u64`, then falls back to `f64`
//!   (see [`Number`]).
//! * **Strings and keys.** Borrowed from the input unless they hold an
//!   escape, so a key without `\` is compared without allocating.
//!
//! Field rules (first key wins, unknown keys skipped, missing fields
//! read as `null`) live in the derive output, which drives this reader
//! through [`Reader::next_key`] and [`Reader::skip_value`].

use crate::{DeError, Value};
use std::borrow::Cow;
use std::fmt::Display;

/// Deepest container nesting a document may have. The protocol's
/// deepest real document (a batch step's perturbation list inside an
/// envelope) nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as the `Value` parser classifies it: text without
/// `.`, `e`, `E`, `+` or an inner `-` is an integer and becomes `I64`
/// if it fits, else `U64`, else `F64`; any other text is an `F64`. So
/// `-0` is the integer 0 and `01` the integer 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Integer text that fits `i64`.
    I64(i64),
    /// Integer text that fits only `u64`.
    U64(u64),
    /// Everything else, including integers beyond `u64`.
    F64(f64),
}

impl Number {
    /// Signed view; floats are rejected (as `Value::as_i64`).
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::I64(x) => Some(x),
            Number::U64(x) => i64::try_from(x).ok(),
            Number::F64(_) => None,
        }
    }

    /// Unsigned view; floats are rejected (as `Value::as_u64`).
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(x) => Some(x),
            Number::I64(x) => u64::try_from(x).ok(),
            Number::F64(_) => None,
        }
    }

    /// Any-number view, coerced to `f64` (as `Value::as_f64`).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::I64(x) => x as f64,
            Number::U64(x) => x as f64,
            Number::F64(x) => x,
        }
    }
}

/// A single-pass, depth-bounded JSON reader over one document.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// Set by entering a container, cleared by the first
    /// [`Reader::next_key`]/[`Reader::next_element`]: the first entry
    /// needs no comma.
    open: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
            open: false,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, after whitespace.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// A syntax error at the current position.
    fn error(&self, message: impl Display) -> DeError {
        DeError::new(format!("{message} at byte {}", self.pos))
    }

    /// "expected `what`, found …" for the next token.
    pub fn expected(&mut self, what: &str) -> DeError {
        let found = match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "a boolean",
            Some(b'"') => "a string",
            Some(b'[') => "an array",
            Some(b'{') => "a map",
            Some(b'-' | b'0'..=b'9') => "a number",
            Some(_) => "an unexpected character",
            None => "the end of input",
        };
        self.error(format_args!("expected {what}, found {found}"))
    }

    /// Require that only whitespace is left.
    ///
    /// # Errors
    /// Trailing characters after the document.
    pub fn finish(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), DeError> {
        let rest = self.src.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{word}`")))
        }
    }

    /// Consume a `null` if one is next, and say whether it was.
    ///
    /// # Errors
    /// A malformed literal starting with `n`.
    pub fn read_null(&mut self) -> Result<bool, DeError> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Read `true` or `false`.
    ///
    /// # Errors
    /// Any other token.
    pub fn read_bool(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.expected("a boolean")),
        }
    }

    /// Read a number, classified as [`Number`] describes; anything else
    /// is an error naming `what` was expected.
    ///
    /// # Errors
    /// A non-number token or number text no parse accepts (`1-2`, `-`).
    pub fn read_number(&mut self, what: &str) -> Result<Number, DeError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected(what));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).unwrap_or_default();
        if !is_float {
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Number::I64(x));
            }
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Number::U64(x));
            }
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| DeError::new(format!("invalid number `{text}` at byte {start}")))
    }

    /// Advance past bytes that need no unescaping: up to `"`, `\` or a
    /// control character.
    fn scan_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = self.src.as_bytes().get(start..).unwrap_or_default();
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        self.pos += len;
        // The run ends at an ASCII byte or the end of input, both char
        // boundaries of `src`.
        self.src.get(start..self.pos).unwrap_or_default()
    }

    /// Read a string: borrowed from the input unless it holds an
    /// escape.
    ///
    /// # Errors
    /// A non-string token, a bad escape, a raw control character or an
    /// unterminated string.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("a string"));
        }
        self.pos += 1;
        let run = self.scan_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
            out.push_str(self.scan_run());
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), DeError> {
        let c = self
            .byte()
            .ok_or_else(|| self.error("unterminated escape"))?;
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
                    // A high surrogate must be followed by a low one.
                    if self.byte() != Some(b'\\') {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.byte() != Some(b'u') {
                        return Err(self.error("expected `u`"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?);
            }
            other => {
                return Err(self.error(format_args!("invalid escape `\\{}`", char::from(other))))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.byte() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                Some(_) => return Err(self.error("invalid hex digit")),
                None => return Err(self.error("truncated \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Step into the container whose opening byte is next.
    fn enter(&mut self) -> Result<(), DeError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.open = true;
        Ok(())
    }

    fn leave(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
    }

    /// Consume the `[` of an array; anything else is an error naming
    /// `what` was expected. Follow with [`Reader::next_element`].
    ///
    /// # Errors
    /// A non-array token, or nesting past [`MAX_DEPTH`].
    pub fn begin_array(&mut self, what: &str) -> Result<(), DeError> {
        if self.peek() != Some(b'[') {
            return Err(self.expected(what));
        }
        self.enter()
    }

    /// Move to the next element of the open array: `true` when one
    /// follows, `false` once the closing `]` is consumed.
    ///
    /// # Errors
    /// A missing `,` or `]`.
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.open, false);
        match self.byte() {
            Some(b']') => {
                self.leave();
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.error("expected `,` or `]`")),
        }
    }

    /// Consume the `{` of an object; anything else is an error naming
    /// `what` was expected. Follow with [`Reader::next_key`].
    ///
    /// # Errors
    /// A non-object token, or nesting past [`MAX_DEPTH`].
    pub fn begin_object(&mut self, what: &str) -> Result<(), DeError> {
        if self.peek() != Some(b'{') {
            return Err(self.expected(what));
        }
        self.enter()
    }

    /// The next key of the open object, with its `:` consumed, or
    /// `None` once the closing `}` is consumed. The caller reads or
    /// skips the key's value before asking again.
    ///
    /// # Errors
    /// A missing `,`, `}`, key string or `:`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.open, false);
        match self.byte() {
            Some(b'}') => {
                self.leave();
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => return Err(self.error("expected `,` or `}`")),
        }
        let key = self.read_str()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Skip one value of any shape, checking its syntax and its depth
    /// against [`MAX_DEPTH`] without recursing.
    ///
    /// # Errors
    /// Any syntax error inside the value.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        let base = self.depth;
        // Bit `d` is set while the container `d + 1` levels below
        // `base` is an object; MAX_DEPTH levels fit in 128 bits.
        let mut objects: u128 = 0;
        loop {
            match self.peek() {
                Some(b'[') => {
                    self.enter()?;
                    objects &= !(1u128 << (self.depth - base - 1));
                }
                Some(b'{') => {
                    self.enter()?;
                    objects |= 1u128 << (self.depth - base - 1);
                }
                Some(b'"') => {
                    self.read_str()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.read_number("a number")?;
                }
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(c) => {
                    return Err(self.error(format_args!("unexpected character `{}`", char::from(c))))
                }
                None => return Err(self.error("unexpected end of input")),
            }
            // Close finished containers until one has another entry.
            loop {
                if self.depth <= base {
                    return Ok(());
                }
                let in_object = objects >> (self.depth - base - 1) & 1 == 1;
                let more = if in_object {
                    self.next_key()?.is_some()
                } else {
                    self.next_element()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Skip the next value and return a reader over exactly its text,
    /// at this reader's depth, so each variant of an untagged enum can
    /// be tried on its own copy.
    ///
    /// # Errors
    /// Any syntax error inside the value.
    pub fn capture(&mut self) -> Result<Reader<'a>, DeError> {
        self.skip_ws();
        let start = self.pos;
        self.skip_value()?;
        Ok(Reader {
            src: self.src.get(start..self.pos).unwrap_or_default(),
            pos: 0,
            depth: self.depth,
            open: false,
        })
    }

    /// Read any value into a [`Value`] tree (recursion bounded by
    /// [`MAX_DEPTH`]).
    pub(crate) fn read_value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.read_bool().map(Value::Bool),
            Some(b'"') => self.read_str().map(|s| Value::String(s.into_owned())),
            Some(b'[') => {
                self.enter()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.read_value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.enter()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.read_value()?;
                    pairs.push((key.into_owned(), value));
                }
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => Ok(match self.read_number("a number")? {
                Number::I64(x) => Value::I64(x),
                Number::U64(x) => Value::U64(x),
                Number::F64(x) => Value::F64(x),
            }),
            Some(c) => Err(self.error(format_args!("unexpected character `{}`", char::from(c)))),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip_all(s: &str) -> Result<(), DeError> {
        let mut r = Reader::new(s);
        r.skip_value()?;
        r.finish()
    }

    #[test]
    fn numbers_classify_like_the_value_parser() {
        let num = |s: &str| Reader::new(s).read_number("a number").unwrap();
        assert_eq!(num("-0"), Number::I64(0));
        assert_eq!(num("01"), Number::I64(1));
        assert_eq!(num("18446744073709551615"), Number::U64(u64::MAX));
        assert_eq!(
            num("18446744073709551616"),
            Number::F64(18446744073709551616.0)
        );
        assert_eq!(num("1."), Number::F64(1.0));
        assert_eq!(num("1e400"), Number::F64(f64::INFINITY));
        assert!(Reader::new("1-2").read_number("a number").is_err());
        assert!(Reader::new("-").read_number("a number").is_err());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#""plain""#);
        assert!(matches!(r.read_str().unwrap(), Cow::Borrowed("plain")));
        let mut r = Reader::new(r#""a\nb😀""#);
        assert_eq!(r.read_str().unwrap(), "a\nb\u{1F600}");
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\x""#,
            "\"\u{1}\"",
            r#""open"#,
        ] {
            assert!(Reader::new(bad).read_str().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded_when_reading_and_skipping() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(skip_all(&ok).is_ok());
        assert!(Reader::new(&ok).read_value().is_ok());
        assert!(skip_all(&deep).is_err());
        assert!(Reader::new(&deep).read_value().is_err());
        let flood = "[".repeat(1 << 20);
        assert!(skip_all(&flood).is_err());
        let objects = "{\"a\":".repeat(1 << 16);
        assert!(skip_all(&objects).is_err());
    }

    #[test]
    fn skipping_checks_syntax() {
        for good in [r#"{"a":[1,{"b":null}],"c":"A"}"#, "[]", "{}", " 3 "] {
            assert!(skip_all(good).is_ok(), "{good:?}");
        }
        for bad in [
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "tru",
            "1-2",
            "{,}",
            "[",
            "",
        ] {
            assert!(skip_all(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn capture_spans_exactly_one_value() {
        let mut r = Reader::new(r#"[ {"a": [1, 2]} , 3]"#);
        r.begin_array("an array").unwrap();
        assert!(r.next_element().unwrap());
        let mut span = r.capture().unwrap();
        assert_eq!(span.src, r#"{"a": [1, 2]}"#);
        assert!(span.read_value().is_ok());
        assert!(r.next_element().unwrap());
        assert_eq!(r.read_number("a number").unwrap(), Number::I64(3));
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
    }
}
