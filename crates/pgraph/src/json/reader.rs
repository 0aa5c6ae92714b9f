//! The pull reader: the workspace's one JSON tokenizer.
//!
//! A [`Reader`] walks a `&str` body one token at a time. Its caller asks
//! what comes next ([`peek`](Reader::peek)), opens containers
//! ([`begin_object`](Reader::begin_object) /
//! [`begin_array`](Reader::begin_array)), steps through their members
//! ([`next_key`](Reader::next_key) / [`next_item`](Reader::next_item)),
//! takes strings and scalars ([`string`](Reader::string),
//! [`scalar`](Reader::scalar)) and skips what it does not
//! want ([`skip_value`](Reader::skip_value)) — so a decoder builds its own
//! structure straight from the text, with no tree in between.
//!
//! Nesting is an explicit counter bounded by [`MAX_DEPTH`], with one bit
//! per open level recording whether it is an object; nothing here
//! recurses. Strings without escapes are borrowed from the body; only an
//! escaped string is copied. A reader is a small `Clone` value, so a
//! clone taken before [`skip_value`](Reader::skip_value) is a bookmark
//! that re-reads the skipped value later.

use std::borrow::Cow;
use std::fmt;

use super::{Json, JsonError, MAX_DEPTH};

// One bit per open level.
const _: () = assert!(MAX_DEPTH <= u128::BITS as usize);

/// The JSON type of the value at the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A numeric token.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Kind {
    /// The type's name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::Str => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A pull reader over one JSON text. See the module docs.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
    /// Bit `d` is set when the container open at depth `d + 1` is an
    /// object.
    objects: u128,
    /// The innermost open container has no member yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            fresh: false,
        }
    }

    /// A syntax error located at the cursor.
    fn error(&self, msg: impl fmt::Display) -> JsonError {
        JsonError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The type of the value at the cursor (after whitespace), without
    /// consuming it.
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            Some(c) => Err(self.error(format_args!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Opens the object at the cursor; its members follow through
    /// [`next_key`](Self::next_key).
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', true)
    }

    /// Opens the array at the cursor; its items follow through
    /// [`next_item`](Self::next_item).
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', false)
    }

    fn open(&mut self, bracket: u8, object: bool) -> Result<(), JsonError> {
        self.skip_ws();
        if self.byte() != Some(bracket) {
            return Err(self.error(format_args!("expected {:?}", bracket as char)));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        let bit = 1u128 << self.depth;
        if object {
            self.objects |= bit;
        } else {
            self.objects &= !bit;
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// True when the innermost open container is an object.
    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects & (1u128 << (self.depth - 1)) != 0
    }

    /// Moves past the separator before the innermost container's next
    /// member: `true` when one follows, `false` when the container
    /// closed instead.
    fn step(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                // The closed container is a member of its parent.
                self.fresh = false;
                return Ok(false);
            }
            Some(b',') if !self.fresh => self.pos += 1,
            _ if self.fresh => {}
            _ => {
                return Err(self.error(format_args!(
                    "expected ',' or '{}' in {what}",
                    close as char
                )))
            }
        }
        self.fresh = false;
        Ok(true)
    }

    /// The key of the open object's next member, with the cursor left on
    /// its value (which the caller must read or skip); `None` once the
    /// object closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        debug_assert!(self.in_object(), "next_key outside an object");
        if !self.step(b'}', "object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// `true` with the cursor on the open array's next item (which the
    /// caller must read or skip); `false` once the array closed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        debug_assert!(!self.in_object(), "next_item outside an array");
        self.step(b']', "array")
    }

    /// Reads the scalar at the cursor; a container is an error.
    pub fn scalar(&mut self) -> Result<Json, JsonError> {
        match self.peek()? {
            Kind::Str => Ok(Json::Str(self.string()?.into_owned())),
            Kind::Number => self.number(),
            Kind::Null => self.keyword("null", Json::Null),
            Kind::Bool if self.byte() == Some(b't') => self.keyword("true", Json::Bool(true)),
            Kind::Bool => self.keyword("false", Json::Bool(false)),
            Kind::Array | Kind::Object => Err(self.error("expected a scalar")),
        }
    }

    /// Reads past the value at the cursor, checking its syntax (and its
    /// depth) like any other read.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let base = self.depth;
        loop {
            match self.peek()? {
                Kind::Object => self.begin_object()?,
                Kind::Array => self.begin_array()?,
                Kind::Str => {
                    self.string()?;
                }
                _ => {
                    self.scalar()?;
                }
            }
            // Close what has ended until a value is due (or the skipped
            // value itself has ended).
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let more = if self.in_object() {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Reads past the value at the cursor and returns, for each of
    /// `names`, a bookmark on the value of its first member so named, as
    /// [`Json::get`] looks members up; every other member is skipped with
    /// a syntax check. A value that is not an object has no members.
    pub fn members<const N: usize>(
        &mut self,
        names: [&str; N],
    ) -> Result<[Option<Reader<'a>>; N], JsonError> {
        let mut marks = [(); N].map(|()| None);
        if self.peek()? != Kind::Object {
            return self.skip_value().map(|()| marks);
        }
        self.begin_object()?;
        while let Some(key) = self.next_key()? {
            match names.iter().position(|name| *name == key) {
                Some(ix) if marks[ix].is_none() => marks[ix] = Some(self.clone()),
                _ => {}
            }
            self.skip_value()?;
        }
        Ok(marks)
    }

    /// Ends the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format_args!("expected {word:?}")))
        }
    }

    /// Reads the string at the cursor.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        // Quote and backslash are ASCII, so every cut below falls on a
        // UTF-8 boundary of the `&str` body.
        let Some(run) = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
        else {
            self.pos = self.text.len();
            return Err(self.error("unterminated string"));
        };
        self.pos = start + run;
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..start + run]));
        }
        let mut out = String::with_capacity(run + 16);
        out.push_str(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .byte()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    out.push(self.escape(esc)?);
                }
                Some(_) => {
                    let from = self.pos;
                    while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    /// The character of the escape `\<esc>`, the cursor after `esc`.
    fn escape(&mut self, esc: u8) -> Result<char, JsonError> {
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: \uHHHH\uLLLL.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("lone surrogate escape"))?
                }
            }
            other => return Err(self.error(format_args!("bad escape \\{}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(r.byte(), Some(c) if c.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let token = &self.text[start..self.pos];
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
            .map_err(|_| self.error(format_args!("bad number token {token:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unescaped_strings_are_borrowed_and_escaped_ones_decoded() {
        let mut r = Reader::new(r#"["plain π", "a\"bé😀c"]"#);
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain π")));
        assert!(r.next_item().unwrap());
        assert_eq!(r.string().unwrap(), "a\"bé😀c");
        assert!(!r.next_item().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn skip_checks_syntax_and_a_bookmark_rereads() {
        let text = r#"{"a": [1, {"b": [true, null]}, "x"], "c": 2}"#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        let mut mark = r.clone();
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.scalar().unwrap(), Json::Int(2));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
        mark.begin_array().unwrap();
        assert!(mark.next_item().unwrap());
        assert_eq!(mark.scalar().unwrap(), Json::Int(1));

        for bad in [
            "[1 2]",
            "{\"a\" 1}",
            "[1,]",
            "[,1]",
            "{,}",
            "{,\"a\":1}",
            "[",
            "{\"a\":1,}",
            "[1]]",
        ] {
            let mut r = Reader::new(bad);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert!(skipped.is_err(), "{bad}");
        }
    }
}
