//! Property values.
//!
//! The paper assumes a set `Vals` of scalar values together with a function
//! `values : Scalars → 2^Vals` assigning a value space to every scalar type,
//! and notes (citing Bonifati et al.) that the value of a property "can only
//! be a simple atomic value or a list of such values". [`Value`] mirrors
//! that: the five built-in GraphQL scalar kinds, enum symbols, and flat
//! lists thereof. Nested lists are representable (GraphQL's `[[t]]`) but the
//! schema layer never produces types that permit them, matching the paper's
//! restriction of wrapping types to `t!`, `[t]`, `[t!]`, `[t!]!`.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A property value stored in a Property Graph.
///
/// `Value` implements `Eq`, `Ord` and `Hash` so it can participate directly
/// in `@key`-constraint hash sets; floating-point values are compared by
/// their IEEE-754 bit pattern with all NaNs identified (so `Value` equality
/// is a genuine equivalence relation).
#[derive(Debug, Clone)]
pub enum Value {
    /// A signed 64-bit integer (GraphQL `Int`; we use the full i64 range).
    Int(i64),
    /// A 64-bit IEEE-754 floating point number (GraphQL `Float`).
    Float(f64),
    /// A UTF-8 string (GraphQL `String`).
    String(String),
    /// A boolean (GraphQL `Boolean`).
    Bool(bool),
    /// An opaque identifier (GraphQL `ID`). Serialised as a string.
    Id(String),
    /// A symbol of some enumeration type, e.g. `METER`.
    Enum(String),
    /// A finite list of values (the paper: "an array of values of the
    /// wrapped type").
    List(Vec<Value>),
    /// The special `null` value of the GraphQL type system. A *stored*
    /// property is normally non-null (absent properties are simply not in
    /// `dom(σ)`), but `null` may appear inside lists of nullable element
    /// type, and keeping it in the value space lets `valuesW` be
    /// implemented exactly as in §4.1 of the paper.
    Null,
}

impl Value {
    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if this is a list value.
    pub fn is_list(&self) -> bool {
        matches!(self, Value::List(_))
    }

    /// If this is a list, its elements.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// If this is an `Int`, the integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// If this is a `String`, `Id` or `Enum`, the underlying text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) | Value::Id(s) | Value::Enum(s) => Some(s),
            _ => None,
        }
    }

    /// If this is a `Bool`, the boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Canonical bit pattern for floats: all NaNs are identified so that
    /// equality/hashing form a proper equivalence.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            // +0.0 and -0.0 compare equal; normalise the bit pattern too.
            0
        } else {
            f.to_bits()
        }
    }

    /// A small integer discriminant used for cross-kind ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::String(_) => 4,
            Value::Id(_) => 5,
            Value::Enum(_) => 6,
            Value::List(_) => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Id(a), Value::Id(b)) => a == b,
            (Value::Enum(a), Value::Enum(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                // Total order via canonical bits after handling sign:
                // enough for deterministic sorting; not a numeric order
                // across NaN, which never occurs in schema-valid data.
                a.partial_cmp(b)
                    .unwrap_or_else(|| Value::float_bits(*a).cmp(&Value::float_bits(*b)))
            }
            (Value::String(a), Value::String(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Id(a), Value::Id(b)) => a.cmp(b),
            (Value::Enum(a), Value::Enum(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => Value::float_bits(*f).hash(state),
            Value::String(s) | Value::Id(s) | Value::Enum(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::List(items) => {
                items.len().hash(state);
                for item in items {
                    item.hash(state);
                }
            }
            Value::Null => {}
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Id(s) => write!(f, "{s:?}"),
            Value::Enum(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// A value handed to a value pool owned: moved in if new.
impl From<Value> for Cow<'_, Value> {
    fn from(v: Value) -> Self {
        Cow::Owned(v)
    }
}
/// A value handed to a value pool borrowed: cloned if new.
impl<'a> From<&'a Value> for Cow<'a, Value> {
    fn from(v: &'a Value) -> Self {
        Cow::Borrowed(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_values_are_equal_and_hash_alike() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn signed_zero_is_identified() {
        let a = Value::Float(0.0);
        let b = Value::Float(-0.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn string_and_id_are_distinct_values() {
        assert_ne!(Value::from("x"), Value::Id("x".into()));
        assert_ne!(Value::from("x"), Value::Enum("x".into()));
    }

    #[test]
    fn list_equality_is_elementwise() {
        let a = Value::from(vec![1i64, 2, 3]);
        let b = Value::from(vec![1i64, 2, 3]);
        let c = Value::from(vec![1i64, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut vals = [
            Value::from("b"),
            Value::Null,
            Value::Int(3),
            Value::Bool(false),
            Value::from("a"),
            Value::Float(1.5),
        ];
        vals.sort();
        vals.sort(); // idempotent
        assert_eq!(vals[0], Value::Null);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::from(vec![1i64, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Enum("METER".into()).to_string(), "METER");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
