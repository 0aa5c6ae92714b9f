//! The source-text core both schema languages share.
//!
//! GraphQL SDL (this crate) and PG-Schema (`pg-pgschema`) read text the
//! same way, so the machinery lives here once: [`Pos`]/[`Span`], one
//! character [`Scanner`] with one line model, one located [`ParseError`]
//! with one caret [`render`](ParseError::render), one token [`Cursor`]
//! for recursive-descent parsers, and the [`MAX_DEPTH`] nesting guard.
//! A language supplies only its [`Lexicon`] — token kinds, ignored
//! tokens, punctuator dispatch — and its grammar productions.
//!
//! The line model: LF, CRLF and a bare CR are each one line terminator
//! (spec §2.1.2). Lines and columns are 1-based, columns count Unicode
//! scalar values, offsets are 0-based bytes.

use std::fmt;
use std::marker::PhantomData;

/// A position in the source text (1-based line/column, 0-based byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in Unicode scalar values).
    pub column: u32,
    /// Byte offset into the source.
    pub offset: usize,
}

impl Pos {
    /// The position of the first character.
    pub fn start() -> Self {
        Pos {
            line: 1,
            column: 1,
            offset: 0,
        }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A half-open source range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Start of the range.
    pub start: Pos,
    /// End of the range (exclusive).
    pub end: Pos,
}

impl Span {
    /// A zero-width span at `pos`.
    pub fn at(pos: Pos) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

/// The characters that end a line; a CR directly followed by LF ends
/// only one.
const LINE_ENDS: [char; 2] = ['\n', '\r'];

/// Deepest nesting of a recursive production (SDL list types and
/// list/object constant values) a parser accepts. Each level recurses
/// once, so without a bound one document of `[[[[…` overflows the stack
/// of whichever thread parses it; no real schema nests more than a
/// handful deep.
pub const MAX_DEPTH: usize = 64;

/// What went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A character with no role in the language's lexical grammar.
    UnexpectedCharacter(char),
    /// A string literal ran to end-of-line or end-of-input.
    UnterminatedString,
    /// An invalid `\\`-escape or `\\u` sequence inside a string.
    BadEscape(String),
    /// A malformed numeric literal (e.g. `01`, `1.`, `1e`).
    BadNumber(String),
    /// The parser expected one construct and found another.
    Unexpected {
        /// What was expected, e.g. "`{`" or "a type definition".
        expected: String,
        /// What was found (token description).
        found: String,
    },
    /// Something valid only in executable GraphQL documents (e.g. a
    /// fragment or a variable).
    ExecutableOnly(String),
    /// A construct that is valid PG-Schema but outside the supported
    /// subset, with the documented policy message (DESIGN §PG-Schema
    /// frontend). Raised by the parser or by the lowering pass.
    UnsupportedConstruct(String),
    /// A name resolution or well-formedness failure during PG-Schema
    /// lowering, e.g. an edge endpoint naming an undeclared node type.
    Invalid(String),
    /// A production nested past [`MAX_DEPTH`] (carried here).
    TooDeep(usize),
}

/// A lexing, parsing or lowering failure, with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Where in the source it happened.
    pub pos: Pos,
}

impl ParseError {
    /// Builds an error at `pos`.
    pub fn new(kind: ParseErrorKind, pos: Pos) -> Self {
        ParseError { kind, pos }
    }

    /// Renders the error with a source snippet and caret, e.g.
    ///
    /// ```text
    /// error: expected a name, found `:`
    ///   --> 2:12
    ///    |
    ///  2 |     field : : Int
    ///    |            ^
    /// ```
    ///
    /// The line is found from the byte offset under the scanner's line
    /// model, and tabs in front of the column are copied into the caret
    /// pad so the caret lines up however a terminal expands them.
    pub fn render(&self, source: &str) -> String {
        let before = source.get(..self.pos.offset).unwrap_or(source);
        let start = before.rfind(LINE_ENDS).map_or(0, |i| i + 1);
        let end = source[start..]
            .find(LINE_ENDS)
            .map_or(source.len(), |i| start + i);
        let line = &source[start..end];
        let line_no = self.pos.line as usize;
        let gutter = line_no.to_string().len().max(2);
        let caret_pad: String = line
            .chars()
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .chain(std::iter::repeat(' '))
            .take(self.pos.column.saturating_sub(1) as usize)
            .collect();
        format!(
            "error: {self}\n{pad}--> {}:{}\n{pad} |\n{line_no:>gutter$} | {line}\n{pad} | {caret_pad}^\n",
            self.pos.line,
            self.pos.column,
            pad = " ".repeat(gutter),
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.pos)?;
        match &self.kind {
            ParseErrorKind::UnexpectedCharacter(c) => {
                write!(f, "unexpected character {c:?}")
            }
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string literal"),
            ParseErrorKind::BadEscape(s) => write!(f, "invalid escape sequence `{s}`"),
            ParseErrorKind::BadNumber(s) => write!(f, "malformed number `{s}`"),
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseErrorKind::ExecutableOnly(what) => {
                write!(f, "{what} is not supported in schema documents")
            }
            ParseErrorKind::UnsupportedConstruct(what) => {
                write!(f, "{what} is not supported by the PG-Schema frontend")
            }
            ParseErrorKind::Invalid(what) => f.write_str(what),
            ParseErrorKind::TooDeep(limit) => {
                write!(f, "nesting deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A language's lexicon: its token kinds and what the shared scanner and
/// cursor need to know about them.
pub trait Lexicon: PartialEq + Sized {
    /// The end-of-input token.
    const EOF: Self;
    /// Characters ignored besides white space and line terminators.
    const IGNORED: &'static [char];
    /// Openers of a comment that runs to the end of the line.
    const COMMENTS: &'static [&'static str];

    /// Lexes the token that starts with `c`, the scanner's next character.
    fn lex(s: &mut Scanner<'_, Self>, c: char) -> Result<Self, ParseError>;

    /// The spelling, if this is a name token.
    fn as_name(&self) -> Option<&str>;

    /// A short description used in error messages.
    fn describe(&self) -> String;
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<K> {
    /// The token kind and payload.
    pub kind: K,
    /// Where it came from.
    pub span: Span,
}

/// A character scanner over one source text, tokenising it with the
/// rules of the lexicon `K`. A leading byte-order mark is skipped.
pub struct Scanner<'a, K> {
    src: &'a str,
    chars: std::str::CharIndices<'a>,
    /// One-char lookahead: (byte offset, char).
    peeked: Option<(usize, char)>,
    line: u32,
    column: u32,
    lexicon: PhantomData<K>,
}

impl<'a, K: Lexicon> Scanner<'a, K> {
    /// Creates a scanner over `src`.
    pub fn new(src: &'a str) -> Self {
        let mut chars = src.char_indices();
        let mut s = Scanner {
            src,
            peeked: chars.next(),
            chars,
            line: 1,
            column: 1,
            lexicon: PhantomData,
        };
        if s.peek() == Some('\u{FEFF}') {
            s.bump();
        }
        s
    }

    /// Tokenises the whole input, ending with a `K::EOF` token.
    pub fn tokenize(mut self) -> Result<Vec<Token<K>>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ignored();
            let start = self.pos();
            let Some(c) = self.peek() else {
                out.push(Token {
                    kind: K::EOF,
                    span: Span::at(start),
                });
                return Ok(out);
            };
            let kind = K::lex(&mut self, c)?;
            out.push(Token {
                kind,
                span: Span {
                    start,
                    end: self.pos(),
                },
            });
        }
    }

    /// The position of the next character (or of the end of input).
    pub fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            column: self.column,
            offset: self.offset(),
        }
    }

    fn offset(&self) -> usize {
        self.peeked.map_or(self.src.len(), |(o, _)| o)
    }

    fn rest(&self) -> &'a str {
        &self.src[self.offset()..]
    }

    /// The next character.
    pub fn peek(&self) -> Option<char> {
        self.peeked.map(|(_, c)| c)
    }

    /// The character after the next one.
    pub fn peek2(&self) -> Option<char> {
        self.chars.clone().next().map(|(_, c)| c)
    }

    /// Consumes the next character, advancing the line/column.
    pub fn bump(&mut self) -> Option<char> {
        let (_, c) = self.peeked?;
        self.peeked = self.chars.next();
        // A CR directly before an LF leaves the line break to the LF.
        if c == '\n' || (c == '\r' && self.peek() != Some('\n')) {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    /// Consumes `text` if the input continues with it (`text` holds no
    /// line terminator).
    pub fn eat(&mut self, text: &str) -> bool {
        if !self.rest().starts_with(text) {
            return false;
        }
        for _ in text.chars() {
            self.bump();
        }
        true
    }

    /// Consumes a name, `/[_A-Za-z][_0-9A-Za-z]*/`, and returns its
    /// spelling.
    pub fn name(&mut self) -> &'a str {
        let start = self.offset();
        while self
            .peek()
            .is_some_and(|c| c == '_' || c.is_ascii_alphanumeric())
        {
            self.bump();
        }
        &self.src[start..self.offset()]
    }

    fn skip_ignored(&mut self) {
        while let Some(c) = self.peek() {
            if matches!(c, ' ' | '\t') || LINE_ENDS.contains(&c) || K::IGNORED.contains(&c) {
                self.bump();
            } else if K::COMMENTS.iter().any(|open| self.rest().starts_with(open)) {
                while self.peek().is_some_and(|c| !LINE_ENDS.contains(&c)) {
                    self.bump();
                }
            } else {
                return;
            }
        }
    }
}

/// A recursive-descent parser's cursor over the tokens of one source
/// text, with the [`MAX_DEPTH`] guard for recursive productions.
pub struct Cursor<K> {
    /// Never empty: the last token is `K::EOF`, where the cursor stops.
    tokens: Vec<Token<K>>,
    at: usize,
    /// Open levels of recursive productions around the cursor.
    depth: usize,
}

impl<K: Lexicon> Cursor<K> {
    /// Lexes `source` eagerly; lexical errors surface here.
    pub fn new(source: &str) -> Result<Self, ParseError> {
        Ok(Cursor {
            tokens: Scanner::new(source).tokenize()?,
            at: 0,
            depth: 0,
        })
    }

    /// The token under the cursor.
    pub fn peek(&self) -> &Token<K> {
        &self.tokens[self.at]
    }

    /// The tokens from the cursor to the end of input, for lookahead.
    pub fn rest(&self) -> &[Token<K>] {
        &self.tokens[self.at..]
    }

    /// Where the token under the cursor starts.
    pub fn pos(&self) -> Pos {
        self.peek().span.start
    }

    /// Steps past the token under the cursor (never past end of input)
    /// and returns its span.
    pub fn bump(&mut self) -> Span {
        let span = self.peek().span;
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        span
    }

    /// An error at the cursor: `expected`, and the token found instead.
    pub fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::Unexpected {
                expected: expected.to_owned(),
                found: self.peek().kind.describe(),
            },
            self.pos(),
        )
    }

    /// Consumes a token of `kind`, or fails.
    pub fn expect(&mut self, kind: K) -> Result<Span, ParseError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    /// Consumes a token of `kind` if it is next.
    pub fn eat(&mut self, kind: K) -> bool {
        let hit = self.peek().kind == kind;
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes a name token with any spelling, or fails with `expected`.
    pub fn name(&mut self, expected: &str) -> Result<(String, Span), ParseError> {
        match self.peek().kind.as_name() {
            Some(n) => {
                let n = n.to_owned();
                Ok((n, self.bump()))
            }
            None => Err(self.unexpected(expected)),
        }
    }

    /// True if the next token is the name `kw`.
    pub fn at_keyword(&self, kw: &str) -> bool {
        self.peek().kind.as_name() == Some(kw)
    }

    /// Consumes the name `kw` if it is next.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.at_keyword(kw);
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes the name `kw`, or fails.
    pub fn keyword(&mut self, kw: &str) -> Result<Span, ParseError> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    /// Parses one level of a recursive production (the cursor is on its
    /// opener), refusing to open more than [`MAX_DEPTH`].
    pub fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::new(
                ParseErrorKind::TooDeep(MAX_DEPTH),
                self.pos(),
            ));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Renders the error parsing `src` raises.
    fn rendered(src: &str) -> String {
        parse(src).unwrap_err().render(src)
    }

    #[test]
    fn render_points_at_the_offending_column() {
        assert_eq!(
            rendered("type T {\n    field : : Int\n}"),
            "error: 2:13: expected a name, found `:`\n  --> 2:13\n   |\n \
             2 |     field : : Int\n   |             ^\n"
        );
    }

    #[test]
    fn render_finds_the_line_under_every_line_terminator() {
        let lf = rendered("type T {\n    field : : Int\n}");
        for eol in ["\r\n", "\r"] {
            let src = format!("type T {{{eol}    field : : Int{eol}}}");
            assert_eq!(rendered(&src), lf, "{eol:?}");
        }
    }

    #[test]
    fn render_copies_tabs_into_the_caret_pad() {
        let r = rendered("type T {\n\tfield: : Int\n}");
        assert!(r.ends_with(" 2 | \tfield: : Int\n   | \t       ^\n"), "{r}");
    }

    #[test]
    fn render_at_end_of_input_after_a_trailing_newline() {
        let r = rendered("type T {\n");
        assert!(r.ends_with("  --> 2:1\n   |\n 2 | \n   | ^\n"), "{r}");
    }

    #[test]
    fn render_survives_out_of_range_positions() {
        let err = parse("type").unwrap_err(); // EOF error past the last char
        assert!(err.render("type").contains("error: "));
        let at = |line, column, offset| {
            ParseError::new(
                ParseErrorKind::Invalid("x".into()),
                Pos {
                    line,
                    column,
                    offset,
                },
            )
        };
        assert!(at(99, 40, 10_000).render("a\nb").contains("99 | b\n"));
        assert!(at(1, 2, 1).render("é").contains("^"), "inside a char");
    }
}
