//! Scalar values and data types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The data type of a [`crate::Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 64-bit IEEE-754 float.
    Float,
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
}

impl DType {
    /// Short lowercase name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DType::Float => "f64",
            DType::Int => "i64",
            DType::Bool => "bool",
            DType::Str => "str",
        }
    }

    /// Whether the type is numeric (float or int).
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Float | DType::Int)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single dynamically-typed cell value.
///
/// `Value` is the lingua franca between rows, CSV cells and the JSON
/// protocol layer. Columns store values natively (structure-of-arrays);
/// `Value` only materializes at API boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// Missing value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The dtype this value would naturally live in, or `None` for null.
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DType::Bool),
            Value::Int(_) => Some(DType::Int),
            Value::Float(_) => Some(DType::Float),
            Value::Str(_) => Some(DType::Str),
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and bools coerce to `f64`; strings and nulls do not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(x) => Some(*x as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (no float truncation — floats return `None`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(*x),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(x) => write!(f, "{x}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names() {
        assert_eq!(DType::Float.name(), "f64");
        assert_eq!(DType::Int.name(), "i64");
        assert_eq!(DType::Bool.name(), "bool");
        assert_eq!(DType::Str.name(), "str");
        assert!(DType::Float.is_numeric());
        assert!(DType::Int.is_numeric());
        assert!(!DType::Bool.is_numeric());
        assert!(!DType::Str.is_numeric());
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);

        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Float(3.0).as_i64(), None, "no silent truncation");
        assert_eq!(Value::Bool(true).as_i64(), Some(1));

        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(1).as_bool(), None);

        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn value_dtype_and_null() {
        assert_eq!(Value::Null.dtype(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Float(0.0).dtype(), Some(DType::Float));
        assert_eq!(Value::Str("a".into()).dtype(), Some(DType::Str));
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::Str("s".into()).to_string(), "s");
    }

    #[test]
    fn value_from_impls() {
        assert_eq!(Value::from(1.0), Value::Float(1.0));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("a"), Value::Str("a".into()));
        assert_eq!(Value::from(String::from("b")), Value::Str("b".into()));
    }
}
