//! Offline `serde` facade.
//!
//! The build environment has no network access, so the workspace vendors
//! a minimal serde replacement with two paths through JSON:
//!
//! * **The direct path serves the wire.** [`Serialize::write_json`]
//!   appends compact JSON straight to a buffer, and
//!   [`Deserialize::read_json`] reads a type from a [`Reader`], a
//!   single-pass, depth-bounded pull reader over the text. Neither
//!   builds a [`Value`] tree. `serde_json::{to_string, from_str}` use
//!   this path.
//! * **The [`Value`] path serves `to_value`/`from_value` and the
//!   oracle.** [`Serialize::serialize`] renders a type into a
//!   JSON-shaped [`Value`] tree and [`Deserialize::deserialize`]
//!   rebuilds it from one. Both paths agree byte for byte and value for
//!   value; `tests/json_codec.rs` checks the direct path against this
//!   one.
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`) come from the
//! vendored `serde_derive` proc-macro crate, emit both paths, and
//! follow real serde's wire conventions: structs are maps, enums are
//! externally tagged (`"Variant"` / `{"Variant": content}`),
//! `#[serde(untagged)]` and `#[serde(default)]` behave as in serde
//! proper.

pub use read::{Number, Reader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
use write::{write_f64, write_i64, write_u64};
pub use write::{write_str, write_value};

mod read;
mod write;

/// A JSON-shaped dynamic value: the facade's entire data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered (stable output, linear lookup).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
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
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object view (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Any-number view, coerced to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(x) => Some(*x as f64),
            Value::U64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (floats are rejected, matching serde_json).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(*x),
            Value::U64(x) => i64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Unsigned integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Human-readable kind name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::I64(_) | Value::U64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "a map",
        }
    }
}

/// Ordered-object field lookup used by generated `Deserialize` impls.
pub fn find_field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error: a message plus a reverse field path.
#[derive(Clone, Debug)]
pub struct DeError {
    message: String,
    path: Vec<String>,
}

impl DeError {
    /// A bare error message.
    pub fn new(message: String) -> DeError {
        DeError {
            message,
            path: Vec::new(),
        }
    }

    /// "expected X, found Y" error.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError::new(format!("expected {what}, found {}", got.type_name()))
    }

    /// A required field was absent.
    pub fn missing_field(field: &str, ty: &str) -> DeError {
        DeError::new(format!("missing field `{field}` for {ty}"))
    }

    /// An enum tag matched no variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> DeError {
        DeError::new(format!("unknown variant `{variant}` of {ty}"))
    }

    /// Push a field onto the error path (innermost first).
    pub fn in_field(mut self, field: &str) -> DeError {
        self.path.push(field.to_string());
        self
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            return f.write_str(&self.message);
        }
        let mut path: Vec<&str> = self.path.iter().map(String::as_str).collect();
        path.reverse();
        write!(f, "{}: {}", path.join("."), self.message)
    }
}

impl std::error::Error for DeError {}

/// Render `self` as JSON, directly or through the [`Value`] data model.
pub trait Serialize {
    /// Produce the value tree.
    fn serialize(&self) -> Value;

    /// Append `self` as compact JSON: the bytes [`write_value`] writes
    /// for [`Serialize::serialize`]'s tree, without building it.
    fn write_json(&self, out: &mut String);
}

/// Rebuild `Self` from JSON, directly or through the [`Value`] data
/// model.
pub trait Deserialize: Sized {
    /// Parse the value tree.
    fn deserialize(v: &Value) -> Result<Self, DeError>;

    /// Read one value from `r`: the result (or failure) that
    /// [`Deserialize::deserialize`] gives for the same text parsed into
    /// a tree, without building it.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

// ------------------------------------------------------------ primitives

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("a boolean", v))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.read_bool()
    }
}

macro_rules! signed_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::I64(*self as i64)
            }

            fn write_json(&self, out: &mut String) {
                write_i64(*self as i64, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let x = v.as_i64().ok_or_else(|| DeError::expected("an integer", v))?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }

            fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r.read_number("an integer")?;
                let x = n.as_i64().ok_or_else(|| {
                    DeError::new(format!("expected an integer, found {n:?}"))
                })?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
signed_impls!(i8, i16, i32, i64, isize);

macro_rules! unsigned_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }

            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let x = v.as_u64().ok_or_else(|| {
                    DeError::expected("a non-negative integer", v)
                })?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }

            fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r.read_number("a non-negative integer")?;
                let x = n.as_u64().ok_or_else(|| {
                    DeError::new(format!("expected a non-negative integer, found {n:?}"))
                })?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
unsigned_impls!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }

    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        // `null` maps to NaN: non-finite floats serialize as null (JSON
        // has no NaN/inf literals), so this keeps such payloads readable.
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| DeError::expected("a number", v))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.read_null()? {
            return Ok(f64::NAN);
        }
        r.read_number("a number").map(Number::as_f64)
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F64(f64::from(*self))
    }

    fn write_json(&self, out: &mut String) {
        write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|x| x as f32)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        f64::read_json(r).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("a string", v))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.read_str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_owned())
    }

    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for &'static str {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        // Intentionally leaks the parsed string: this impl exists only
        // for `&'static str` fields in static instrument tables (study
        // questionnaires), which deserialize a handful of times per
        // process at most.
        v.as_str()
            .map(|s| &*Box::leak(s.to_owned().into_boxed_str()))
            .ok_or_else(|| DeError::expected("a string", v))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        // Leaks, as `deserialize` does.
        r.read_str()
            .map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

fn one_char(s: &str) -> Result<char, DeError> {
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(DeError::new(format!("expected one character, got {s:?}"))),
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        one_char(v.as_str().ok_or_else(|| DeError::expected("a string", v))?)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        one_char(&r.read_str()?)
    }
}

// ------------------------------------------------------------ containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        self.as_slice().serialize()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

fn exact_array<T, const N: usize>(items: Vec<T>) -> Result<[T; N], DeError> {
    let got = items.len();
    <[T; N]>::try_from(items)
        .map_err(|_| DeError::new(format!("expected a {N}-element array, got {got}")))
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        exact_array(Vec::<T>::deserialize(v)?)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        exact_array(Vec::<T>::read_json(r)?)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        self.as_slice().serialize()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::expected("an array", v))?;
        arr.iter().map(Deserialize::deserialize).collect()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_array("an array")?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        if v.is_null() {
            return Ok(None);
        }
        T::deserialize(v).map(Some)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.read_null()? {
            return Ok(None);
        }
        T::read_json(r).map(Some)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        T::deserialize(v).map(Box::new)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::read_json(r).map(Box::new)
    }
}

macro_rules! tuple_impls {
    ($(($($t:ident : $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }

            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| DeError::expected("an array", v))?;
                let n = [$($idx),+].len();
                if arr.len() != n {
                    return Err(DeError::new(format!(
                        "expected a {n}-element array, got {}", arr.len()
                    )));
                }
                Ok(($($t::deserialize(&arr[$idx])?,)+))
            }

            fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = [$($idx),+].len();
                let arity = || DeError::new(format!("expected a {n}-element array"));
                r.begin_array("an array")?;
                let tuple = ($(
                    if r.next_element()? { $t::read_json(r)? } else { return Err(arity()) },
                )+);
                if r.next_element()? {
                    return Err(arity());
                }
                Ok(tuple)
            }
        }
    )*};
}
tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        write_value(self, out);
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.read_value()
    }
}

/// `{"key":value,…}` for map entries in the given order.
fn write_map<'a, K, V>(entries: impl Iterator<Item = (&'a K, &'a V)>, out: &mut String)
where
    K: std::fmt::Display + 'a,
    V: Serialize + 'a,
{
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&k.to_string(), out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// Map entries in document order; a repeated key keeps its last value,
/// as collecting the tree's pairs does.
fn read_map<V: Deserialize, M: Default + Extend<(String, V)>>(
    r: &mut Reader<'_>,
) -> Result<M, DeError> {
    r.begin_object("a map")?;
    let mut map = M::default();
    while let Some(key) = r.next_key()? {
        let value = V::read_json(r)?;
        map.extend(Some((key.into_owned(), value)));
    }
    Ok(map)
}

impl<K, V> Serialize for std::collections::BTreeMap<K, V>
where
    K: std::fmt::Display,
    V: Serialize,
{
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("a map", v))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

/// Hash-map entries sorted by key, so iteration order can't leak into
/// payloads.
fn sorted<K: Ord, V, S>(map: &std::collections::HashMap<K, V, S>) -> Vec<(&K, &V)> {
    let mut pairs: Vec<(&K, &V)> = map.iter().collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    pairs
}

impl<K, V, S> Serialize for std::collections::HashMap<K, V, S>
where
    K: std::fmt::Display + Ord,
    V: Serialize,
{
    fn serialize(&self) -> Value {
        Value::Object(
            sorted(self)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) {
        write_map(sorted(self).into_iter(), out);
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("a map", v))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert!(bool::deserialize(&true.serialize()).unwrap());
        assert_eq!(i64::deserialize(&(-7i64).serialize()).unwrap(), -7);
        assert_eq!(u64::deserialize(&7u64.serialize()).unwrap(), 7);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert_eq!(String::deserialize(&"hi".serialize()).unwrap(), "hi");
    }

    #[test]
    fn integer_cross_width() {
        // u64 payloads feed i64 fields and vice versa when in range.
        assert_eq!(i64::deserialize(&Value::U64(5)).unwrap(), 5);
        assert_eq!(u64::deserialize(&Value::I64(5)).unwrap(), 5);
        assert!(u64::deserialize(&Value::I64(-1)).is_err());
        assert!(
            i64::deserialize(&Value::F64(5.0)).is_err(),
            "no float truncation"
        );
    }

    #[test]
    fn float_accepts_integers_and_null() {
        assert_eq!(f64::deserialize(&Value::I64(3)).unwrap(), 3.0);
        assert!(f64::deserialize(&Value::Null).unwrap().is_nan());
        assert!(f64::deserialize(&Value::Bool(true)).is_err());
    }

    #[test]
    fn options_and_vecs() {
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::I64(4)).unwrap(), Some(4));
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::deserialize(&v.serialize()).unwrap(), v);
    }

    #[test]
    fn tuples() {
        let t = ("a".to_string(), 2u64);
        assert_eq!(<(String, u64)>::deserialize(&t.serialize()).unwrap(), t);
        assert!(<(String, u64)>::deserialize(&Value::Array(vec![])).is_err());
    }

    #[test]
    fn error_paths_render() {
        let e = DeError::expected("a map", &Value::I64(1))
            .in_field("inner")
            .in_field("outer");
        assert_eq!(
            e.to_string(),
            "outer.inner: expected a map, found an integer"
        );
    }
}
