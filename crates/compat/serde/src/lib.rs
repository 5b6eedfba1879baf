//! Offline-compatible subset of `serde`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the serialization surface the workspace needs: a JSON-shaped
//! [`Value`] tree, [`Serialize`]/[`Deserialize`] traits converting to
//! and from it, impls for the std types used in the codebase, and
//! re-exported derive macros (from the sibling `serde_derive` stub).
//!
//! Differences from upstream serde worth knowing:
//! * the data model is the concrete [`Value`] tree, not a visitor API;
//! * object key order is preserved (declaration order from derives), so
//!   serialized output is byte-stable;
//! * `Option<T>` fields tolerate a missing key (deserialized as `None`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the serialization data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative integer (JSON number without fraction/exponent).
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with preserved key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object, if this is one.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Deserialization error: a human-readable path + expectation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error for an unexpected value kind.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, found {}", got.kind()))
    }

    /// Prefix the error with a field/variant context.
    pub fn in_context(self, ctx: &str) -> DeError {
        DeError(format!("{ctx}: {}", self.0))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Convert `self` into a [`Value`] tree.
pub trait Serialize {
    /// Build the value tree.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Helper used by derived code: fetch and deserialize a struct field.
/// A missing key deserializes from `Null` (so `Option` fields default
/// to `None`); non-optional types then produce a clear error.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| e.in_context(name)),
        None => T::from_value(&Value::Null).map_err(|_| DeError(format!("missing field '{name}'"))),
    }
}

/// Like [`field`], but a missing key yields `T::default()` — the
/// behaviour of `#[serde(default)]` on a field.
pub fn field_or_default<T: Deserialize + Default>(
    obj: &[(String, Value)],
    name: &str,
) -> Result<T, DeError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| e.in_context(name)),
        None => Ok(T::default()),
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: u64 = match *v {
                    Value::UInt(u) => u,
                    Value::Int(i) if i >= 0 => i as u64,
                    Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                        f as u64
                    }
                    ref other => return Err(DeError::expected("unsigned integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match *v {
                    Value::Int(i) => i,
                    Value::UInt(u) if u <= i64::MAX as u64 => u as i64,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => f as i64,
                    ref other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Float(f) => Ok(f as $t),
                    Value::Int(i) => Ok(i as $t),
                    Value::UInt(u) => Ok(u as $t),
                    ref other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::expected("char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single char, found '{s}'"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_arr()
            .ok_or_else(|| DeError::expected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError(format!("expected array of {N} elements, found {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_arr().ok_or_else(|| DeError::expected("tuple array", v))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError(format!(
                        "expected tuple of {expected}, found array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_obj()
            .ok_or_else(|| DeError::expected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic regardless of hash order.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(fields)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_obj()
            .ok_or_else(|| DeError::expected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
        let t = (1u64, 2.5f64);
        assert_eq!(<(u64, f64)>::from_value(&t.to_value()).unwrap(), t);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&o.to_value()).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_value(&Some(3u64).to_value()).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn field_helper_handles_missing_optionals() {
        let obj = vec![("a".to_string(), Value::UInt(1))];
        assert_eq!(field::<u64>(&obj, "a").unwrap(), 1);
        assert_eq!(field::<Option<u64>>(&obj, "b").unwrap(), None);
        assert!(field::<u64>(&obj, "b").is_err());
    }

    #[test]
    fn type_mismatches_are_reported() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(bool::from_value(&Value::UInt(1)).is_err());
        assert!(Vec::<u64>::from_value(&Value::Bool(true)).is_err());
        assert!(u8::from_value(&Value::UInt(300)).is_err());
    }
}
