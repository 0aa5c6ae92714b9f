//! JSON interchange for Property Graphs.
//!
//! The format is deliberately simple and GraphQL-value-shaped:
//!
//! ```json
//! {
//!   "nodes": [ {"id": 0, "label": "User", "properties": {"login": "alice"}} ],
//!   "edges": [ {"id": 0, "label": "user", "source": 1, "target": 0,
//!               "properties": {"certainty": 0.9}} ]
//! }
//! ```
//!
//! Two lossy aspects are made explicit and controlled:
//!
//! * JSON has no `ID`/`Enum` kinds — they are encoded as tagged objects
//!   `{"$id": "..."}` / `{"$enum": "..."}` so decode(encode(g)) == g.
//! * Integers are kept exact: whole-number tokens parse as `i64`, and the
//!   printer always writes floats with a `.` or exponent so the
//!   `Int`/`Float` distinction survives a roundtrip.
//!
//! The reader/printer below is self-contained (no external JSON crate):
//! a recursive-descent parser over bytes, bounded to [`MAX_DEPTH`] nested
//! containers, and one streaming two-space pretty printer that both
//! [`to_json`] (straight from the graph) and [`Json`]'s `Display` drive.
//! The parsed tree type [`Json`] and the value-level codecs
//! ([`graph_to_value`]/[`graph_from_value`],
//! [`delta_to_value`]/[`delta_from_value`]) are public, so consumers that
//! embed graphs or deltas inside larger documents (the `pg-server` HTTP
//! bodies) reuse this machinery instead of parsing twice.
//!
//! Mutation logs ([`GraphDelta`]) share the machinery: a delta document is
//! `{"ops": [...]}` where each op is a tagged object such as
//! `{"op": "set-node-property", "node": 0, "name": "login", "value": "al"}`
//! — see [`delta_to_json`] / [`delta_from_json`]. Element ids in a delta
//! refer to the graph the delta will be applied to, i.e. the `id` fields
//! of a graph document written by [`to_json`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::delta::{DeltaOp, GraphDelta};
use crate::{EdgeId, NodeId, PropertyGraph, Value};

/// Errors raised while decoding a JSON graph document.
#[derive(Debug)]
pub enum JsonError {
    /// The document was not syntactically valid JSON / did not match the
    /// expected shape. The payload describes the problem and its byte
    /// offset.
    Parse(String),
    /// An edge referenced a node id that does not appear in `nodes`.
    DanglingEdge {
        /// The edge's position in the `edges` array.
        edge_index: usize,
        /// The missing node id.
        node: u32,
    },
    /// A property value used a JSON feature the Value model cannot hold
    /// (e.g. a nested object that is not an `$id`/`$enum` tag).
    BadValue(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse(e) => write!(f, "invalid graph JSON: {e}"),
            JsonError::DanglingEdge { edge_index, node } => {
                write!(f, "edge #{edge_index} references unknown node {node}")
            }
            JsonError::BadValue(msg) => write!(f, "unsupported property value: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Generic JSON tree
// ---------------------------------------------------------------------------

/// Parsed JSON value. Object member order is preserved.
///
/// This is the tree every (de)serializer in this module works over; it is
/// public so consumers with composite payloads — e.g. an HTTP body
/// `{"schema": "...", "graph": {...}}` — can parse once with
/// [`Json::parse`], pick members apart with [`Json::get`]/[`Json::as_str`],
/// and hand sub-trees to [`graph_from_value`] / [`delta_from_value`]
/// instead of re-implementing a JSON parser.
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
        Parser::new(text).parse_document()
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
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => get(members, key),
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
    /// the same layout [`to_json`] emits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        print_json(&mut JsonWriter::new(&mut out), self);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest container nesting [`Json::parse`] accepts. The parser (and
/// everything that later walks or drops the tree) recurses once per
/// level, so without a bound one request body of `[[[[…` overflows the
/// stack of whichever thread parses it. A graph document nests five deep
/// plus its list values; 128 leaves two orders of magnitude of headroom.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl fmt::Display) -> JsonError {
        JsonError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}", b as char)))
        }
    }

    fn parse_document(mut self) -> Result<Json, JsonError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format_args!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one level down, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format_args!("expected {word:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uHHHH\uLLLL.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("lone surrogate escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format_args!("bad escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
        if !is_float {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            // Whole number outside i64: degrade to float like serde_json's
            // lossy path.
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format_args!("bad number token {token:?}")))
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

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
/// Both [`to_json`] (straight from the graph) and [`Json`]'s `Display`
/// (from a tree) drive it, so their bytes cannot drift apart.
struct JsonWriter<'a> {
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
    fn new(out: &'a mut String) -> Self {
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

    fn begin_object(&mut self) {
        self.open('{');
    }

    fn end_object(&mut self) {
        self.close('}');
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn key(&mut self, key: &str) {
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

    fn int(&mut self, i: i64) {
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

    fn string(&mut self, s: &str) {
        self.value();
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
    }
}

fn print_json(w: &mut JsonWriter<'_>, v: &Json) {
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

// ---------------------------------------------------------------------------
// Graph <-> JSON mapping
// ---------------------------------------------------------------------------

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => {
            if f.is_finite() {
                Json::Float(*f)
            } else {
                Json::Null
            }
        }
        Value::String(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Id(s) => Json::Object(vec![("$id".to_owned(), Json::Str(s.clone()))]),
        Value::Enum(s) => Json::Object(vec![("$enum".to_owned(), Json::Str(s.clone()))]),
        Value::List(items) => Json::Array(items.iter().map(value_to_json).collect()),
        Value::Null => Json::Null,
    }
}

fn value_from_json(v: &Json) -> Result<Value, JsonError> {
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
            if members.len() == 1 {
                if let (key, Json::Str(s)) = &members[0] {
                    if key == "$id" {
                        return Ok(Value::Id(s.clone()));
                    }
                    if key == "$enum" {
                        return Ok(Value::Enum(s.clone()));
                    }
                }
            }
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            Err(JsonError::BadValue(format!(
                "objects other than $id/$enum tags are not property values: keys {keys:?}"
            )))
        }
    }
}

/// Field lookup in a parsed object (serde-style: unknown members are
/// ignored, missing required members are an error).
fn get<'j>(members: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u32(members: &[(String, Json)], key: &str, ctx: &str) -> Result<u32, JsonError> {
    match get(members, key) {
        Some(Json::Int(i)) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field {key:?} must be a u32, got {}",
            other.kind()
        ))),
        None => Err(JsonError::Parse(format!("{ctx}: missing field {key:?}"))),
    }
}

fn get_str<'j>(members: &'j [(String, Json)], key: &str, ctx: &str) -> Result<&'j str, JsonError> {
    match get(members, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field {key:?} must be a string, got {}",
            other.kind()
        ))),
        None => Err(JsonError::Parse(format!("{ctx}: missing field {key:?}"))),
    }
}

fn get_properties<'j>(
    members: &'j [(String, Json)],
    ctx: &str,
) -> Result<&'j [(String, Json)], JsonError> {
    match get(members, "properties") {
        Some(Json::Object(props)) => Ok(props),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field \"properties\" must be an object, got {}",
            other.kind()
        ))),
        None => Ok(&[]),
    }
}

fn as_object<'j>(v: &'j Json, ctx: &str) -> Result<&'j [(String, Json)], JsonError> {
    match v {
        Json::Object(members) => Ok(members),
        other => Err(JsonError::Parse(format!(
            "{ctx}: expected an object, got {}",
            other.kind()
        ))),
    }
}

fn as_array<'j>(v: &'j Json, ctx: &str) -> Result<&'j [Json], JsonError> {
    match v {
        Json::Array(items) => Ok(items),
        other => Err(JsonError::Parse(format!(
            "{ctx}: expected an array, got {}",
            other.kind()
        ))),
    }
}

/// The `{"$id": …}` / `{"$enum": …}` wrapper.
fn write_tagged(w: &mut JsonWriter<'_>, tag: &str, s: &str) {
    w.begin_object();
    w.key(tag);
    w.string(s);
    w.end_object();
}

/// [`value_to_json`], streamed.
fn write_value(w: &mut JsonWriter<'_>, v: &Value) {
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

/// One node (`ends` absent) or edge object. `props` arrive in name order
/// — the graph keeps them sorted — and an element without any gets no
/// `"properties"` member.
fn write_element<'g>(
    w: &mut JsonWriter<'_>,
    id: usize,
    label: &str,
    ends: Option<(NodeId, NodeId)>,
    props: impl Iterator<Item = (&'g str, &'g Value)>,
) {
    w.begin_object();
    w.key("id");
    w.int(id as i64);
    w.key("label");
    w.string(label);
    if let Some((source, target)) = ends {
        w.key("source");
        w.int(source.index() as i64);
        w.key("target");
        w.int(target.index() as i64);
    }
    let mut props = props.peekable();
    if props.peek().is_some() {
        w.key("properties");
        w.begin_object();
        for (name, value) in props {
            w.key(name);
            write_value(w, value);
        }
        w.end_object();
    }
    w.end_object();
}

/// Serialises a graph to its canonical (pretty) JSON document.
///
/// Properties are emitted in sorted key order so the output is
/// deterministic regardless of insertion order. The document is streamed
/// from the graph into one buffer — no [`Json`] tree is built — and is
/// byte-identical to `graph_to_value(g).to_string()`, the tree-based
/// reference the tests compare it against.
pub fn to_json(g: &PropertyGraph) -> String {
    // A pretty-printed element with a property or two is ~130 bytes.
    let mut out = String::with_capacity(64 + 128 * g.node_count() + 160 * g.edge_count());
    let mut w = JsonWriter::new(&mut out);
    w.begin_object();
    w.key("nodes");
    w.begin_array();
    for n in g.nodes() {
        write_element(&mut w, n.id.index(), n.label(), None, n.properties());
    }
    w.end_array();
    w.key("edges");
    w.begin_array();
    for e in g.edges() {
        let ends = Some((e.source(), e.target()));
        write_element(&mut w, e.id.index(), e.label(), ends, e.properties());
    }
    w.end_array();
    w.end_object();
    out
}

/// Builds the [`Json`] tree of a graph document — [`to_json`] without the
/// final rendering, for embedding a graph inside a larger payload.
pub fn graph_to_value(g: &PropertyGraph) -> Json {
    fn props_json<'a>(props: impl Iterator<Item = (&'a str, &'a Value)>) -> Json {
        let sorted: BTreeMap<&str, &Value> = props.collect();
        Json::Object(
            sorted
                .into_iter()
                .map(|(k, v)| (k.to_owned(), value_to_json(v)))
                .collect(),
        )
    }
    let nodes = Json::Array(
        g.nodes()
            .map(|n| {
                let mut members = vec![
                    ("id".to_owned(), Json::Int(n.id.index() as i64)),
                    ("label".to_owned(), Json::Str(n.label().to_owned())),
                ];
                let props = props_json(n.properties());
                if !matches!(&props, Json::Object(m) if m.is_empty()) {
                    members.push(("properties".to_owned(), props));
                }
                Json::Object(members)
            })
            .collect(),
    );
    let edges = Json::Array(
        g.edges()
            .map(|e| {
                let mut members = vec![
                    ("id".to_owned(), Json::Int(e.id.index() as i64)),
                    ("label".to_owned(), Json::Str(e.label().to_owned())),
                    ("source".to_owned(), Json::Int(e.source().index() as i64)),
                    ("target".to_owned(), Json::Int(e.target().index() as i64)),
                ];
                let props = props_json(e.properties());
                if !matches!(&props, Json::Object(m) if m.is_empty()) {
                    members.push(("properties".to_owned(), props));
                }
                Json::Object(members)
            })
            .collect(),
    );
    Json::Object(vec![
        ("nodes".to_owned(), nodes),
        ("edges".to_owned(), edges),
    ])
}

/// Parses a graph from its JSON document. Node ids in the document are
/// arbitrary distinct numbers; they are remapped to dense ids.
pub fn from_json(text: &str) -> Result<PropertyGraph, JsonError> {
    graph_from_value(&Json::parse(text)?)
}

/// Decodes a graph from an already-parsed [`Json`] tree — [`from_json`]
/// without the parsing step, for graphs embedded in a larger document.
pub fn graph_from_value(doc: &Json) -> Result<PropertyGraph, JsonError> {
    let root = as_object(doc, "document")?;
    let nodes = as_array(
        get(root, "nodes")
            .ok_or_else(|| JsonError::Parse("document: missing field \"nodes\"".into()))?,
        "nodes",
    )?;
    let edges = as_array(
        get(root, "edges")
            .ok_or_else(|| JsonError::Parse("document: missing field \"edges\"".into()))?,
        "edges",
    )?;

    let mut g = PropertyGraph::with_capacity(nodes.len(), edges.len());
    let mut remap = std::collections::HashMap::with_capacity(nodes.len());
    for (ix, n) in nodes.iter().enumerate() {
        let ctx = format!("node #{ix}");
        let members = as_object(n, &ctx)?;
        let doc_id = get_u32(members, "id", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let id = g.add_node(label.to_owned());
        remap.insert(doc_id, id);
        for (k, v) in get_properties(members, &ctx)? {
            g.set_node_property(id, k.clone(), value_from_json(v)?);
        }
    }
    for (ix, e) in edges.iter().enumerate() {
        let ctx = format!("edge #{ix}");
        let members = as_object(e, &ctx)?;
        let source = get_u32(members, "source", &ctx)?;
        let target = get_u32(members, "target", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let src = *remap.get(&source).ok_or(JsonError::DanglingEdge {
            edge_index: ix,
            node: source,
        })?;
        let dst: NodeId = *remap.get(&target).ok_or(JsonError::DanglingEdge {
            edge_index: ix,
            node: target,
        })?;
        let eid = g.add_edge(src, dst, label.to_owned()).expect("remapped");
        for (k, v) in get_properties(members, &ctx)? {
            g.set_edge_property(eid, k.clone(), value_from_json(v)?);
        }
    }
    Ok(g)
}

// ---------------------------------------------------------------------------
// Delta <-> JSON mapping
// ---------------------------------------------------------------------------

fn op_to_json(op: &DeltaOp) -> Json {
    fn tag(name: &str) -> (String, Json) {
        ("op".to_owned(), Json::Str(name.to_owned()))
    }
    fn node(id: NodeId) -> (String, Json) {
        ("node".to_owned(), Json::Int(id.index() as i64))
    }
    fn edge(id: EdgeId) -> (String, Json) {
        ("edge".to_owned(), Json::Int(id.index() as i64))
    }
    fn label(l: &str) -> (String, Json) {
        ("label".to_owned(), Json::Str(l.to_owned()))
    }
    fn name(n: &str) -> (String, Json) {
        ("name".to_owned(), Json::Str(n.to_owned()))
    }
    Json::Object(match op {
        DeltaOp::AddNode { label: l } => vec![tag("add-node"), label(l)],
        DeltaOp::RemoveNode { node: n } => vec![tag("remove-node"), node(*n)],
        DeltaOp::AddEdge {
            source,
            target,
            label: l,
        } => vec![
            tag("add-edge"),
            ("source".to_owned(), Json::Int(source.index() as i64)),
            ("target".to_owned(), Json::Int(target.index() as i64)),
            label(l),
        ],
        DeltaOp::RemoveEdge { edge: e } => vec![tag("remove-edge"), edge(*e)],
        DeltaOp::SetNodeProperty {
            node: n,
            name: k,
            value,
        } => vec![
            tag("set-node-property"),
            node(*n),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveNodeProperty { node: n, name: k } => {
            vec![tag("remove-node-property"), node(*n), name(k)]
        }
        DeltaOp::SetEdgeProperty {
            edge: e,
            name: k,
            value,
        } => vec![
            tag("set-edge-property"),
            edge(*e),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveEdgeProperty { edge: e, name: k } => {
            vec![tag("remove-edge-property"), edge(*e), name(k)]
        }
        DeltaOp::SetNodeLabel { node: n, label: l } => {
            vec![tag("set-node-label"), node(*n), label(l)]
        }
    })
}

fn op_from_json(v: &Json, ctx: &str) -> Result<DeltaOp, JsonError> {
    let members = as_object(v, ctx)?;
    let tag = get_str(members, "op", ctx)?;
    let node = |key: &str| get_u32(members, key, ctx).map(|i| NodeId::from_index(i as usize));
    let edge = |key: &str| get_u32(members, key, ctx).map(|i| EdgeId::from_index(i as usize));
    let string = |key: &str| get_str(members, key, ctx).map(str::to_owned);
    let value = || {
        get(members, "value")
            .ok_or_else(|| JsonError::Parse(format!("{ctx}: missing field \"value\"")))
            .and_then(value_from_json)
    };
    match tag {
        "add-node" => Ok(DeltaOp::AddNode {
            label: string("label")?,
        }),
        "remove-node" => Ok(DeltaOp::RemoveNode {
            node: node("node")?,
        }),
        "add-edge" => Ok(DeltaOp::AddEdge {
            source: node("source")?,
            target: node("target")?,
            label: string("label")?,
        }),
        "remove-edge" => Ok(DeltaOp::RemoveEdge {
            edge: edge("edge")?,
        }),
        "set-node-property" => Ok(DeltaOp::SetNodeProperty {
            node: node("node")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-node-property" => Ok(DeltaOp::RemoveNodeProperty {
            node: node("node")?,
            name: string("name")?,
        }),
        "set-edge-property" => Ok(DeltaOp::SetEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-edge-property" => Ok(DeltaOp::RemoveEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
        }),
        "set-node-label" => Ok(DeltaOp::SetNodeLabel {
            node: node("node")?,
            label: string("label")?,
        }),
        other => Err(JsonError::Parse(format!("{ctx}: unknown op {other:?}"))),
    }
}

/// Serialises a mutation log to its JSON document (`{"ops": [...]}`).
pub fn delta_to_json(delta: &GraphDelta) -> String {
    delta_to_value(delta).to_string()
}

/// Builds the [`Json`] tree of a mutation log (`{"ops": [...]}`).
pub fn delta_to_value(delta: &GraphDelta) -> Json {
    let ops = Json::Array(delta.ops().iter().map(op_to_json).collect());
    Json::Object(vec![("ops".to_owned(), ops)])
}

/// Parses a mutation log from its JSON document.
///
/// Element ids are taken literally (no remapping): they must denote
/// elements of the graph the delta will be applied to, or elements the
/// delta itself creates (dense continuation ids, see
/// [`DeltaOp`]).
pub fn delta_from_json(text: &str) -> Result<GraphDelta, JsonError> {
    delta_from_value(&Json::parse(text)?)
}

/// Decodes a mutation log from an already-parsed [`Json`] tree.
pub fn delta_from_value(doc: &Json) -> Result<GraphDelta, JsonError> {
    let root = as_object(doc, "document")?;
    let ops = as_array(
        get(root, "ops")
            .ok_or_else(|| JsonError::Parse("document: missing field \"ops\"".into()))?,
        "ops",
    )?;
    let parsed = ops
        .iter()
        .enumerate()
        .map(|(ix, op)| op_from_json(op, &format!("op #{ix}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GraphDelta::from_ops(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .prop("u", "age", 30i64)
            .node("s", "UserSession")
            .edge("s", "u", "user")
            .edge_prop("certainty", 0.75)
            .build()
            .unwrap();
        let u = g.node_ids().next().unwrap();
        g.set_node_property(u, "id", Value::Id("u-17".into()));
        g.set_node_property(u, "nicknames", Value::from(vec!["al", "lice"]));
        g.set_node_property(u, "unit", Value::Enum("METER".into()));
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let text = to_json(&g);
        let g2 = from_json(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn id_and_enum_survive_roundtrip() {
        let g = sample();
        let g2 = from_json(&to_json(&g)).unwrap();
        let u = g2.nodes().find(|n| n.label() == "User").unwrap();
        assert_eq!(u.property("id"), Some(&Value::Id("u-17".into())));
        assert_eq!(u.property("unit"), Some(&Value::Enum("METER".into())));
    }

    #[test]
    fn large_integers_are_exact() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let big = (1i64 << 60) + 7;
        g.set_node_property(n, "big", Value::Int(big));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("big"), Some(&Value::Int(big)));
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        g.set_node_property(n, "f", Value::Float(120_000_000_000.0));
        g.set_node_property(n, "g", Value::Float(-3.0));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("f"), Some(&Value::Float(120_000_000_000.0)));
        assert_eq!(n2.property("g"), Some(&Value::Float(-3.0)));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let tricky = "quote\" slash\\ newline\n tab\t ctrl\u{1} π❤";
        g.set_node_property(n, "s", Value::String(tricky.into()));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("s"), Some(&Value::String(tricky.into())));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let text = r#"{"nodes":[{"id":0,"label":"A",
                        "properties":{"s":"\ud83d\ude00ok"}}],"edges":[]}"#;
        let g = from_json(text).unwrap();
        let n = g.nodes().next().unwrap();
        assert_eq!(n.property("s"), Some(&Value::String("😀ok".into())));
    }

    #[test]
    fn dangling_edge_is_reported() {
        let text = r#"{"nodes":[{"id":0,"label":"A"}],
                       "edges":[{"id":0,"label":"rel","source":0,"target":9}]}"#;
        match from_json(text) {
            Err(JsonError::DanglingEdge {
                edge_index: 0,
                node: 9,
            }) => {}
            other => panic!("expected dangling edge error, got {other:?}"),
        }
    }

    #[test]
    fn arbitrary_objects_are_rejected() {
        let text = r#"{"nodes":[{"id":0,"label":"A",
                        "properties":{"bad":{"x":1}}}],"edges":[]}"#;
        assert!(matches!(from_json(text), Err(JsonError::BadValue(_))));
    }

    #[test]
    fn syntax_errors_name_a_position() {
        let err = from_json("{\"nodes\": [,]}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid graph JSON"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }

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
        assert!(from_json(&arrays).is_err());
        assert!(delta_from_json(&format!("{{\"ops\": {arrays}")).is_err());
    }

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

    #[test]
    fn sparse_document_ids_are_remapped() {
        let text = r#"{"nodes":[{"id":100,"label":"A"},{"id":7,"label":"B"}],
                       "edges":[{"id":3,"label":"rel","source":100,"target":7}]}"#;
        let g = from_json(text).unwrap();
        assert_eq!(g.node_count(), 2);
        let e = g.edges().next().unwrap();
        assert_eq!(g.node_label(e.source()), Some("A"));
        assert_eq!(g.node_label(e.target()), Some("B"));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = PropertyGraph::new();
        assert_eq!(from_json(&to_json(&g)).unwrap(), g);
    }

    #[test]
    fn delta_roundtrip_covers_every_op() {
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let e0 = EdgeId::from_index(0);
        let delta = GraphDelta::new()
            .add_node("User")
            .remove_node(n1)
            .add_edge(n0, n1, "follows")
            .remove_edge(e0)
            .set_node_property(n0, "login", Value::from("alice"))
            .remove_node_property(n0, "login")
            .set_edge_property(e0, "w", Value::Float(0.5))
            .remove_edge_property(e0, "w")
            .set_node_label(n0, "Admin");
        let text = delta_to_json(&delta);
        let back = delta_from_json(&text).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_values_keep_tagged_kinds() {
        let n0 = NodeId::from_index(0);
        let delta = GraphDelta::new()
            .set_node_property(n0, "id", Value::Id("u-17".into()))
            .set_node_property(n0, "unit", Value::Enum("METER".into()))
            .set_node_property(n0, "xs", Value::from(vec![1i64, 2]));
        let back = delta_from_json(&delta_to_json(&delta)).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_parse_errors_are_located() {
        assert!(delta_from_json("{}").is_err());
        let err = delta_from_json(r#"{"ops": [{"op": "warp"}]}"#).unwrap_err();
        assert!(err.to_string().contains("unknown op"), "{err}");
        let err = delta_from_json(r#"{"ops": [{"op": "add-node"}]}"#).unwrap_err();
        assert!(err.to_string().contains("op #0"), "{err}");
    }

    #[test]
    fn embedded_graph_and_delta_decode_from_value_trees() {
        // The server's request shape: graph and delta nested in an
        // envelope, decoded via the public value-level API.
        let g = sample();
        let delta = GraphDelta::new().set_node_property(
            g.node_ids().next().unwrap(),
            "age",
            Value::Int(31),
        );
        let envelope = Json::Object(vec![
            (
                "schema".to_owned(),
                Json::Str("type User { x: Int }".to_owned()),
            ),
            ("graph".to_owned(), graph_to_value(&g)),
            ("delta".to_owned(), delta_to_value(&delta)),
        ]);
        let text = envelope.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("type User { x: Int }")
        );
        let g2 = graph_from_value(parsed.get("graph").unwrap()).unwrap();
        assert_eq!(g, g2);
        let d2 = delta_from_value(parsed.get("delta").unwrap()).unwrap();
        assert_eq!(delta, d2);
        assert!(parsed.get("missing").is_none());
        assert!(parsed.get("schema").unwrap().get("x").is_none());
    }

    #[test]
    fn delta_applies_after_roundtrip() {
        let mut g = sample();
        let u = g.nodes().find(|n| n.label() == "User").unwrap().id;
        let delta = GraphDelta::new()
            .set_node_property(u, "age", Value::Int(31))
            .add_node("UserSession");
        let delta = delta_from_json(&delta_to_json(&delta)).unwrap();
        let eff = delta.apply_to(&mut g).unwrap();
        assert_eq!(g.node_property(u, "age"), Some(&Value::Int(31)));
        assert_eq!(eff.added_nodes.len(), 1);
    }
}
