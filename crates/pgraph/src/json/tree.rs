//! The parsed JSON tree, [`Json`]: a thin builder over the
//! [`Reader`], plus the tree → [`Value`] mapping and the shape errors
//! the streaming decoders share.

use std::fmt;

use super::reader::{Kind, Reader};
use super::write::{print_json, JsonWriter};
use super::JsonError;
use crate::Value;

/// Parsed JSON value. Object member order is preserved.
///
/// Decoders that know their shape read the text with a [`Reader`]
/// instead — the graph and delta documents and every request body the
/// server reads do. The tree is for harnesses that read *responses*,
/// parsed once with [`Json::parse`] and picked apart with
/// [`Json::get`]/[`Json::as_str`]; a graph inside one decodes with
/// [`graph_from_value`](super::graph_from_value).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole-number token that fits `i64`.
    Int(i64),
    /// Any other numeric token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, with member order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut reader = Reader::new(text);
        let value = Json::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Reads the value at the reader's cursor into a tree. Recursion
    /// follows the reader's depth, so it stops at
    /// [`MAX_DEPTH`](super::MAX_DEPTH).
    pub fn read(reader: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match reader.peek()? {
            Kind::Object => {
                reader.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = reader.next_key()? {
                    members.push((key.into_owned(), Json::read(reader)?));
                }
                Json::Object(members)
            }
            Kind::Array => {
                reader.begin_array()?;
                let mut items = Vec::new();
                while reader.next_item()? {
                    items.push(Json::read(reader)?);
                }
                Json::Array(items)
            }
            _ => reader.scalar()?,
        })
    }

    /// The value's JSON type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Member lookup on an object (`None` for missing keys and for
    /// non-objects). The first of duplicate members wins.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a whole-number token.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Pretty-prints with the module's canonical two-space indentation —
    /// the same layout [`to_json`](super::to_json) emits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        print_json(&mut JsonWriter::new(&mut out), self);
        f.write_str(&out)
    }
}

pub(super) fn value_from_json(v: &Json) -> Result<Value, JsonError> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::String(s.clone())),
        Json::Array(items) => Ok(Value::List(
            items
                .iter()
                .map(value_from_json)
                .collect::<Result<_, _>>()?,
        )),
        Json::Object(members) => {
            if let [(key, Json::Str(s))] = members.as_slice() {
                if key == "$id" {
                    return Ok(Value::Id(s.clone()));
                }
                if key == "$enum" {
                    return Ok(Value::Enum(s.clone()));
                }
            }
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            Err(untagged_object(&keys))
        }
    }
}

/// The error for an object property value that is not an `$id`/`$enum`
/// tag.
pub(super) fn untagged_object(keys: &[impl fmt::Debug]) -> JsonError {
    JsonError::BadValue(format!(
        "objects other than $id/$enum tags are not property values: keys {keys:?}"
    ))
}

/// The error for a member of the wrong type.
pub(super) fn wrong_kind(ctx: &str, key: &str, want: &str, got: &str) -> JsonError {
    JsonError::Parse(format!("{ctx}: field {key:?} must be {want}, got {got}"))
}

/// The error for a missing member.
pub(super) fn missing(ctx: &str, key: &str) -> JsonError {
    JsonError::Parse(format!("{ctx}: missing field {key:?}"))
}

/// The error for a value of the wrong type where a container is due.
pub(super) fn expected(ctx: &str, want: &str, got: &str) -> JsonError {
    JsonError::Parse(format!("{ctx}: expected {want}, got {got}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;

    #[test]
    fn nesting_is_bounded_with_a_located_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            )),
            "{err}"
        );
        // Siblings do not count, only what is open around the cursor.
        let wide = format!("[{}[]]", "[[]],".repeat(MAX_DEPTH));
        assert!(Json::parse(&wide).is_ok());
        // What used to overflow the stack: unclosed openers by the
        // hundred thousand, arrays, objects, and through every decoder
        // that starts from text.
        let arrays = "[".repeat(400_000);
        let objects = "{\"a\":".repeat(400_000);
        assert!(Json::parse(&arrays).is_err());
        assert!(Json::parse(&objects).is_err());
        assert!(crate::json::from_json(&arrays).is_err());
        assert!(crate::json::from_json(&objects).is_err());
        assert!(crate::json::delta_from_json(&format!("{{\"ops\": {arrays}")).is_err());
    }

    #[test]
    fn syntax_errors_name_a_position() {
        let err = crate::json::from_json("{\"nodes\": [,]}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid graph JSON"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }
}
