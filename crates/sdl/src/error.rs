//! Parse errors with source locations.

use std::fmt;

use crate::token::Pos;

/// What went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A character outside the GraphQL source character set / an unknown
    /// punctuator.
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
    /// Something valid only in executable documents (e.g. a fragment).
    UnsupportedConstruct(String),
    /// A list type or constant value nested past the parser's limit
    /// ([`crate::MAX_DEPTH`], carried here).
    TooDeep(usize),
}

/// A lexing or parsing failure, with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Where in the source it happened.
    pub pos: Pos,
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, pos: Pos) -> Self {
        ParseError { kind, pos }
    }
}

impl ParseError {
    /// Renders the error with a source snippet and caret, e.g.
    ///
    /// ```text
    /// error: expected a name, found `:`
    ///   --> 2:12
    ///    |
    ///  2 |     field : : Int
    ///    |            ^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let line_no = self.pos.line as usize;
        let line = source.lines().nth(line_no.saturating_sub(1)).unwrap_or("");
        let gutter = line_no.to_string().len().max(2);
        let caret_pad = " ".repeat(self.pos.column.saturating_sub(1) as usize);
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
            ParseErrorKind::UnsupportedConstruct(what) => {
                write!(f, "{what} is not supported in schema documents")
            }
            ParseErrorKind::TooDeep(limit) => {
                write!(f, "nesting deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use crate::parse;

    #[test]
    fn render_points_at_the_offending_column() {
        let src = "type T {\n    field : : Int\n}";
        let err = parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("error: "), "{rendered}");
        assert!(rendered.contains("--> 2:"), "{rendered}");
        assert!(rendered.contains("field : : Int"), "{rendered}");
        // The caret line ends at the error column.
        let caret_line = rendered.lines().last().unwrap();
        assert!(caret_line.trim_end().ends_with('^'), "{rendered}");
    }

    #[test]
    fn render_survives_out_of_range_positions() {
        let err = parse("type").unwrap_err(); // EOF error past the last char
        let rendered = err.render("type");
        assert!(rendered.contains("error: "));
    }
}
