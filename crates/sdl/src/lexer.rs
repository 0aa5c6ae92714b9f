//! The GraphQL lexical analyser (spec §2.1, June 2018 edition).
//!
//! Whitespace, line terminators, commas, comments and a leading BOM are
//! *ignored tokens*; everything else becomes a [`Token`](crate::Token).
//! The scanner and its line model are [`crate::source`]'s, shared with
//! the PG-Schema frontend; this module is SDL's [`Lexicon`]: the
//! ignored comma, the punctuators, and the string and number rules.

use crate::source::{Lexicon, ParseError, ParseErrorKind, Pos, Scanner};
use crate::token::TokenKind;

/// Streaming tokenizer. Usually used through [`crate::parse`], but exposed
/// for tooling (syntax highlighting, token-level tests).
pub type Lexer<'a> = Scanner<'a, TokenKind>;

impl Lexicon for TokenKind {
    const EOF: Self = TokenKind::Eof;
    const IGNORED: &'static [char] = &[','];
    const COMMENTS: &'static [&'static str] = &["#"];

    fn lex(s: &mut Lexer<'_>, c: char) -> Result<Self, ParseError> {
        let start = s.pos();
        let kind = match c {
            '"' if s.eat("\"\"\"") => return s.block_string(start),
            '"' => return s.string(start),
            '.' if s.eat("...") => return Ok(TokenKind::Spread),
            c if c == '_' || c.is_ascii_alphabetic() => {
                return Ok(TokenKind::Name(s.name().to_owned()))
            }
            c if c == '-' || c.is_ascii_digit() => return s.number(start),
            '!' => TokenKind::Bang,
            '$' => TokenKind::Dollar,
            '&' => TokenKind::Amp,
            '(' => TokenKind::ParenL,
            ')' => TokenKind::ParenR,
            ':' => TokenKind::Colon,
            '=' => TokenKind::Eq,
            '@' => TokenKind::At,
            '[' => TokenKind::BracketL,
            ']' => TokenKind::BracketR,
            '{' => TokenKind::BraceL,
            '}' => TokenKind::BraceR,
            '|' => TokenKind::Pipe,
            other => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedCharacter(other),
                    start,
                ))
            }
        };
        s.bump();
        Ok(kind)
    }

    fn as_name(&self) -> Option<&str> {
        match self {
            TokenKind::Name(n) => Some(n),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            TokenKind::Name(n) => format!("name `{n}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Float(x) => format!("float `{x}`"),
            TokenKind::Str { .. } => "string literal".to_owned(),
            TokenKind::Bang => "`!`".to_owned(),
            TokenKind::Dollar => "`$`".to_owned(),
            TokenKind::Amp => "`&`".to_owned(),
            TokenKind::ParenL => "`(`".to_owned(),
            TokenKind::ParenR => "`)`".to_owned(),
            TokenKind::Spread => "`...`".to_owned(),
            TokenKind::Colon => "`:`".to_owned(),
            TokenKind::Eq => "`=`".to_owned(),
            TokenKind::At => "`@`".to_owned(),
            TokenKind::BracketL => "`[`".to_owned(),
            TokenKind::BracketR => "`]`".to_owned(),
            TokenKind::BraceL => "`{`".to_owned(),
            TokenKind::BraceR => "`}`".to_owned(),
            TokenKind::Pipe => "`|`".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
        }
    }
}

impl Lexer<'_> {
    fn number(&mut self, start: Pos) -> Result<TokenKind, ParseError> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push('-');
            self.bump();
        }
        // IntegerPart: 0 | NonZeroDigit Digit*
        match self.peek() {
            Some('0') => {
                text.push('0');
                self.bump();
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.bad_number(text, start));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            _ => return Err(self.bad_number(text, start)),
        }
        let mut is_float = false;
        if self.peek() == Some('.') {
            // Only a FractionalPart if a digit follows; `1.` is malformed,
            // and `1...` would be a spread after an int (not valid SDL
            // anyway, but the lexer must not eat the dots).
            if matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                text.push('.');
                self.bump();
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else {
                text.push('.');
                self.bump();
                return Err(self.bad_number(text, start));
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            is_float = true;
            text.push('e');
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                text.push(self.bump().unwrap());
            }
            let mut any = false;
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    any = true;
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            if !any {
                return Err(self.bad_number(text, start));
            }
        }
        // Spec: a number may not be immediately followed by a name start.
        if matches!(self.peek(), Some(c) if c == '_' || c.is_ascii_alphabetic()) {
            text.push(self.peek().unwrap());
            return Err(self.bad_number(text, start));
        }
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| self.bad_number(text.clone(), start))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| self.bad_number(text.clone(), start))
        }
    }

    fn bad_number(&self, text: String, start: Pos) -> ParseError {
        ParseError::new(ParseErrorKind::BadNumber(text), start)
    }

    fn string(&mut self, start: Pos) -> Result<TokenKind, ParseError> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.peek() {
                None | Some('\n') | Some('\r') => {
                    return Err(ParseError::new(ParseErrorKind::UnterminatedString, start));
                }
                Some('"') => {
                    self.bump();
                    return Ok(TokenKind::Str {
                        value,
                        block: false,
                    });
                }
                Some('\\') => {
                    self.bump();
                    let esc = self.bump().ok_or_else(|| {
                        ParseError::new(ParseErrorKind::UnterminatedString, start)
                    })?;
                    match esc {
                        '"' => value.push('"'),
                        '\\' => value.push('\\'),
                        '/' => value.push('/'),
                        'b' => value.push('\u{0008}'),
                        'f' => value.push('\u{000C}'),
                        'n' => value.push('\n'),
                        'r' => value.push('\r'),
                        't' => value.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            let mut digits = String::new();
                            for _ in 0..4 {
                                let d = self.bump().ok_or_else(|| {
                                    ParseError::new(ParseErrorKind::UnterminatedString, start)
                                })?;
                                digits.push(d);
                                code = code * 16
                                    + d.to_digit(16).ok_or_else(|| {
                                        ParseError::new(
                                            ParseErrorKind::BadEscape(format!("\\u{digits}")),
                                            start,
                                        )
                                    })?;
                            }
                            value.push(char::from_u32(code).ok_or_else(|| {
                                ParseError::new(
                                    ParseErrorKind::BadEscape(format!("\\u{digits}")),
                                    start,
                                )
                            })?);
                        }
                        other => {
                            return Err(ParseError::new(
                                ParseErrorKind::BadEscape(format!("\\{other}")),
                                start,
                            ));
                        }
                    }
                }
                Some(c) => {
                    value.push(c);
                    self.bump();
                }
            }
        }
    }

    /// The body of a `"""block string"""`; the opening fence is consumed.
    fn block_string(&mut self, start: Pos) -> Result<TokenKind, ParseError> {
        let mut raw = String::new();
        loop {
            if self.eat("\"\"\"") {
                return Ok(TokenKind::Str {
                    value: dedent_block(&raw),
                    block: true,
                });
            }
            // Only `\"""` is an escape in block strings.
            if self.eat("\\\"\"\"") {
                raw.push_str("\"\"\"");
                continue;
            }
            match self.bump() {
                Some(c) => raw.push(c),
                None => return Err(ParseError::new(ParseErrorKind::UnterminatedString, start)),
            }
        }
    }
}

/// Implements the spec's `BlockStringValue` algorithm: strip the common
/// indentation of all lines but the first, then drop leading/trailing blank
/// lines.
fn dedent_block(raw: &str) -> String {
    let lines: Vec<&str> = raw
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .collect();
    let mut common: Option<usize> = None;
    for line in lines.iter().skip(1) {
        let indent = line.len() - line.trim_start_matches([' ', '\t']).len();
        if indent < line.len() {
            common = Some(common.map_or(indent, |c| c.min(indent)));
        }
    }
    let mut out: Vec<String> = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if i == 0 {
            out.push((*line).to_owned());
        } else {
            let cut = common.unwrap_or(0).min(line.len());
            out.push(line[cut..].to_owned());
        }
    }
    while out.first().is_some_and(|l| l.trim().is_empty()) {
        out.remove(0);
    }
    while out.last().is_some_and(|l| l.trim().is_empty()) {
        out.pop();
    }
    out.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn punctuators() {
        let ks = kinds("! $ & ( ) ... : = @ [ ] { } |");
        assert_eq!(
            ks,
            vec![
                TokenKind::Bang,
                TokenKind::Dollar,
                TokenKind::Amp,
                TokenKind::ParenL,
                TokenKind::ParenR,
                TokenKind::Spread,
                TokenKind::Colon,
                TokenKind::Eq,
                TokenKind::At,
                TokenKind::BracketL,
                TokenKind::BracketR,
                TokenKind::BraceL,
                TokenKind::BraceR,
                TokenKind::Pipe,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn names_and_keywords_are_names() {
        assert_eq!(
            kinds("type User implements Node"),
            vec![
                TokenKind::Name("type".into()),
                TokenKind::Name("User".into()),
                TokenKind::Name("implements".into()),
                TokenKind::Name("Node".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn commas_and_comments_are_ignored() {
        assert_eq!(
            kinds("a, b # trailing comment\n , ,c"),
            vec![
                TokenKind::Name("a".into()),
                TokenKind::Name("b".into()),
                TokenKind::Name("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn bom_is_skipped() {
        assert_eq!(
            kinds("\u{FEFF}x"),
            vec![TokenKind::Name("x".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn integers() {
        assert_eq!(
            kinds("0 -0 42 -17"),
            vec![
                TokenKind::Int(0),
                TokenKind::Int(0),
                TokenKind::Int(42),
                TokenKind::Int(-17),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn leading_zero_is_rejected() {
        assert!(matches!(
            Lexer::new("017").tokenize(),
            Err(ParseError {
                kind: ParseErrorKind::BadNumber(_),
                ..
            })
        ));
    }

    #[test]
    fn floats() {
        assert_eq!(
            kinds("1.5 -0.25 2e3 1.5e-2"),
            vec![
                TokenKind::Float(1.5),
                TokenKind::Float(-0.25),
                TokenKind::Float(2000.0),
                TokenKind::Float(0.015),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn dangling_dot_or_exponent_is_rejected() {
        assert!(Lexer::new("1.").tokenize().is_err());
        assert!(Lexer::new("1e").tokenize().is_err());
        assert!(Lexer::new("1eX").tokenize().is_err());
    }

    #[test]
    fn number_followed_by_name_is_rejected() {
        assert!(Lexer::new("1x").tokenize().is_err());
    }

    #[test]
    fn simple_strings() {
        assert_eq!(
            kinds(r#""hello" "" "a\"b""#),
            vec![
                TokenKind::Str {
                    value: "hello".into(),
                    block: false
                },
                TokenKind::Str {
                    value: "".into(),
                    block: false
                },
                TokenKind::Str {
                    value: "a\"b".into(),
                    block: false
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""\t\n\\A""#),
            vec![
                TokenKind::Str {
                    value: "\t\n\\A".into(),
                    block: false
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bad_escape_is_rejected() {
        assert!(matches!(
            Lexer::new(r#""\q""#).tokenize(),
            Err(ParseError {
                kind: ParseErrorKind::BadEscape(_),
                ..
            })
        ));
        assert!(Lexer::new(r#""\uZZZZ""#).tokenize().is_err());
    }

    #[test]
    fn newline_in_string_is_rejected() {
        assert!(matches!(
            Lexer::new("\"ab\ncd\"").tokenize(),
            Err(ParseError {
                kind: ParseErrorKind::UnterminatedString,
                ..
            })
        ));
    }

    #[test]
    fn block_strings_dedent() {
        let src = "\"\"\"\n    Hello,\n      World!\n\n    Yours,\n      GraphQL.\n  \"\"\"";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Str {
                    value: "Hello,\n  World!\n\nYours,\n  GraphQL.".into(),
                    block: true
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn block_string_triple_quote_escape() {
        let src = r#""""contains \""" fence""""#;
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Str {
                    value: "contains \"\"\" fence".into(),
                    block: true
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = Lexer::new("a\n  bb").tokenize().unwrap();
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[0].span.start.column, 1);
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[1].span.start.column, 3);
    }

    #[test]
    fn crlf_advances_lines() {
        let toks = Lexer::new("a\r\nb\rc").tokenize().unwrap();
        assert_eq!(toks[1].span.start.line, 2);
        assert_eq!(toks[2].span.start.line, 3);
    }

    #[test]
    fn unknown_character_is_reported_with_position() {
        let err = Lexer::new("a ^").tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedCharacter('^'));
        assert_eq!(err.pos.column, 3);
    }

    #[test]
    fn lone_dots_are_rejected() {
        assert!(Lexer::new("..").tokenize().is_err());
        assert!(Lexer::new(".").tokenize().is_err());
    }
}
