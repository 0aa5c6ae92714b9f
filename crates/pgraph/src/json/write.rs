//! The writer side: the one string escaper and the one streaming
//! pretty printer that [`to_json`](super::to_json),
//! [`delta_to_json`](super::delta_to_json) and [`Json`]'s `Display` all
//! drive.

use std::fmt::Write as _;

use super::Json;
use crate::Value;

/// Appends `s` JSON-escaped, without the surrounding quotes. The one
/// string escaper of the workspace: graph documents, reports, server
/// bodies and the request log all write strings through it.
pub fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 sequences and copy over as slices.
    let mut run = 0;
    for (ix, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            _ => "",
        };
        out.push_str(&s[run..ix]);
        run = ix + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
}

/// Writes `f` so it re-parses as a float: Rust's shortest-roundtrip
/// `Display`, plus a forced `.0` when that prints a bare integer.
fn push_float(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "non-finite floats have no JSON form");
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// The module's canonical layout, in one place: a streaming pretty-printer
/// over a caller's buffer. Two-space indentation, one member per line,
/// `": "` after keys, `{}` / `[]` for empty containers. The writer owns
/// the commas and the indentation; callers only say what comes next.
/// [`to_json`](super::to_json) and [`delta_to_json`](super::delta_to_json)
/// (straight from the graph or delta) and [`Json`]'s `Display` (from a
/// tree) all drive it, so their bytes cannot drift apart.
pub(super) struct JsonWriter<'a> {
    out: &'a mut String,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no member yet. One flag is enough
    /// for any depth: a container is itself a member of its parent, so
    /// closing it leaves the parent non-empty.
    fresh: bool,
    /// A key was just written; the next value belongs on the same line.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    pub(super) fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            depth: 0,
            fresh: false,
            after_key: false,
        }
    }

    /// Starts a new line indented to the current depth, after a comma if
    /// `comma`. Separator, line break and indentation are one slice of a
    /// static string, never built per line.
    fn newline(&mut self, comma: bool) {
        /// `,`, a newline, then 64 spaces.
        const BREAK: &str = ",\n                                                                ";
        let spaces = self.depth * 2;
        self.out
            .push_str(&BREAK[usize::from(!comma)..2 + spaces.min(64)]);
        for _ in 64..spaces {
            self.out.push(' ');
        }
    }

    /// Starts the line of the innermost container's next member, after a
    /// comma when it already holds one.
    fn member(&mut self) {
        self.newline(!self.fresh);
        self.fresh = false;
    }

    /// Positions the output for a value: on the key's line inside an
    /// object, on a line of its own inside an array, in place at the top.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.member();
        }
    }

    fn open(&mut self, bracket: char) {
        self.value();
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.fresh {
            self.newline(false);
        }
        self.fresh = false;
        self.out.push(bracket);
    }

    pub(super) fn begin_object(&mut self) {
        self.open('{');
    }

    pub(super) fn end_object(&mut self) {
        self.close('}');
    }

    pub(super) fn begin_array(&mut self) {
        self.open('[');
    }

    pub(super) fn end_array(&mut self) {
        self.close(']');
    }

    pub(super) fn key(&mut self, key: &str) {
        self.member();
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str("\": ");
        self.after_key = true;
    }

    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub(super) fn int(&mut self, i: i64) {
        self.value();
        // Ids make integers the most frequent scalar of a graph document;
        // digits are peeled into a stack buffer instead of going through
        // the `fmt` machinery.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = i.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if i < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn float(&mut self, f: f64) {
        self.value();
        push_float(self.out, f);
    }

    pub(super) fn string(&mut self, s: &str) {
        self.value();
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
    }
}

pub(super) fn print_json(w: &mut JsonWriter<'_>, v: &Json) {
    match v {
        Json::Null => w.null(),
        Json::Bool(b) => w.bool(*b),
        Json::Int(i) => w.int(*i),
        Json::Float(f) => w.float(*f),
        Json::Str(s) => w.string(s),
        Json::Array(items) => {
            w.begin_array();
            for item in items {
                print_json(w, item);
            }
            w.end_array();
        }
        Json::Object(members) => {
            w.begin_object();
            for (k, val) in members {
                w.key(k);
                print_json(w, val);
            }
            w.end_object();
        }
    }
}

/// The `{"$id": …}` / `{"$enum": …}` wrapper.
fn write_tagged(w: &mut JsonWriter<'_>, tag: &str, s: &str) {
    w.begin_object();
    w.key(tag);
    w.string(s);
    w.end_object();
}

/// A property value, streamed: `Id` and `Enum` as tagged objects, and a
/// float JSON cannot hold (NaN, ±∞) as `null`.
pub(super) fn write_value(w: &mut JsonWriter<'_>, v: &Value) {
    match v {
        Value::Int(i) => w.int(*i),
        Value::Float(f) if f.is_finite() => w.float(*f),
        Value::Float(_) | Value::Null => w.null(),
        Value::String(s) => w.string(s),
        Value::Bool(b) => w.bool(*b),
        Value::Id(s) => write_tagged(w, "$id", s),
        Value::Enum(s) => write_tagged(w, "$enum", s),
        Value::List(items) => {
            w.begin_array();
            for item in items {
                write_value(w, item);
            }
            w.end_array();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_two_space_pretty_with_compact_empties() {
        let doc = Json::Object(vec![
            ("a".to_owned(), Json::Array(Vec::new())),
            ("b".to_owned(), Json::Object(Vec::new())),
            (
                "c".to_owned(),
                Json::Array(vec![
                    Json::Int(1),
                    Json::Array(vec![Json::Null, Json::Object(Vec::new())]),
                    Json::Object(vec![("d\n".to_owned(), Json::Float(2.0))]),
                ]),
            ),
            ("e".to_owned(), Json::Bool(false)),
        ]);
        let expected = "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    [\n      null,\n      {}\n    ],\n    {\n      \"d\\n\": 2.0\n    }\n  ],\n  \"e\": false\n}";
        assert_eq!(doc.to_string(), expected);
        assert_eq!(Json::parse(expected).unwrap(), doc);
        assert_eq!(Json::Array(Vec::new()).to_string(), "[]");
        assert_eq!(Json::Str("x".to_owned()).to_string(), "\"x\"");
        for i in [0, 7, -7, 10, -100, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).to_string(), i.to_string());
        }
        // Deeper than the static pad is wide.
        let deep = (0..40).fold(Json::Int(0), |inner, _| Json::Array(vec![inner]));
        let text = deep.to_string();
        assert!(text.contains(&format!("\n{}0\n", " ".repeat(80))), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), deep);
    }
}
