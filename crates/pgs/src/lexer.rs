//! The PG-Schema lexical rules.
//!
//! The scanner, its line model and the located error are the shared
//! source core's ([`gql_sdl::source`]); this module is PG-Schema's
//! [`Lexicon`]. Whitespace, line terminators and comments are ignored —
//! both `//` (PG-Schema/GQL style) and `#` (GraphQL style) line
//! comments, so schemas can carry either convention — and commas are
//! tokens, unlike in SDL. Compound punctuators are `..` and `->`.

use gql_sdl::source::{Lexicon, Scanner};
use gql_sdl::{ParseError, ParseErrorKind};

use crate::token::TokenKind;

/// Streaming tokenizer. Usually used through [`crate::parse`], but
/// exposed for tooling and token-level tests.
pub type Lexer<'a> = Scanner<'a, TokenKind>;

impl Lexicon for TokenKind {
    const EOF: Self = TokenKind::Eof;
    const IGNORED: &'static [char] = &[];
    const COMMENTS: &'static [&'static str] = &["#", "//"];

    fn lex(s: &mut Lexer<'_>, c: char) -> Result<Self, ParseError> {
        let kind = match c {
            c if c == '_' || c.is_ascii_alphabetic() => {
                return Ok(TokenKind::Name(s.name().to_owned()))
            }
            c if c.is_ascii_digit() => return Ok(number(s)),
            '-' if s.eat("->") => return Ok(TokenKind::Arrow),
            '.' if s.eat("..") => return Ok(TokenKind::DotDot),
            '(' => TokenKind::ParenL,
            ')' => TokenKind::ParenR,
            '{' => TokenKind::BraceL,
            '}' => TokenKind::BraceR,
            '[' => TokenKind::BracketL,
            ']' => TokenKind::BracketR,
            ':' => TokenKind::Colon,
            ',' => TokenKind::Comma,
            '&' => TokenKind::Amp,
            '*' => TokenKind::Star,
            '-' => TokenKind::Dash,
            '.' => TokenKind::Dot,
            other => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedCharacter(other),
                    s.pos(),
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
            TokenKind::ParenL => "`(`".to_owned(),
            TokenKind::ParenR => "`)`".to_owned(),
            TokenKind::BraceL => "`{`".to_owned(),
            TokenKind::BraceR => "`}`".to_owned(),
            TokenKind::BracketL => "`[`".to_owned(),
            TokenKind::BracketR => "`]`".to_owned(),
            TokenKind::Colon => "`:`".to_owned(),
            TokenKind::Comma => "`,`".to_owned(),
            TokenKind::Amp => "`&`".to_owned(),
            TokenKind::Dot => "`.`".to_owned(),
            TokenKind::DotDot => "`..`".to_owned(),
            TokenKind::Dash => "`-`".to_owned(),
            TokenKind::Arrow => "`->`".to_owned(),
            TokenKind::Star => "`*`".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
        }
    }
}

/// A non-negative integer (a cardinality bound), saturating at `u64::MAX`.
fn number(s: &mut Lexer<'_>) -> TokenKind {
    let mut n: u64 = 0;
    while let Some(c) = s.peek() {
        if let Some(d) = c.to_digit(10) {
            n = n.saturating_mul(10).saturating_add(u64::from(d));
            s.bump();
        } else {
            break;
        }
    }
    TokenKind::Int(n)
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
    fn punctuation_and_compounds() {
        assert_eq!(
            kinds("( ) { } [ ] : , & * - -> . .."),
            vec![
                TokenKind::ParenL,
                TokenKind::ParenR,
                TokenKind::BraceL,
                TokenKind::BraceR,
                TokenKind::BracketL,
                TokenKind::BracketR,
                TokenKind::Colon,
                TokenKind::Comma,
                TokenKind::Amp,
                TokenKind::Star,
                TokenKind::Dash,
                TokenKind::Arrow,
                TokenKind::Dot,
                TokenKind::DotDot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn edge_arrow_splits_into_tokens() {
        assert_eq!(
            kinds("(:A)-[:r]->(:B)"),
            vec![
                TokenKind::ParenL,
                TokenKind::Colon,
                TokenKind::Name("A".into()),
                TokenKind::ParenR,
                TokenKind::Dash,
                TokenKind::BracketL,
                TokenKind::Colon,
                TokenKind::Name("r".into()),
                TokenKind::BracketR,
                TokenKind::Arrow,
                TokenKind::ParenL,
                TokenKind::Colon,
                TokenKind::Name("B".into()),
                TokenKind::ParenR,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn cardinality_tokens() {
        assert_eq!(
            kinds("1..* 0..1"),
            vec![
                TokenKind::Int(1),
                TokenKind::DotDot,
                TokenKind::Star,
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Int(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn both_comment_styles_are_ignored() {
        assert_eq!(
            kinds("// line one\nA # trailing\nB"),
            vec![
                TokenKind::Name("A".into()),
                TokenKind::Name("B".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_one_based_and_crlf_is_one_terminator() {
        let toks = Lexer::new("A\r\nB\rC").tokenize().unwrap();
        let spans: Vec<(u32, u32)> = toks
            .iter()
            .map(|t| (t.span.start.line, t.span.start.column))
            .collect();
        assert_eq!(spans, vec![(1, 1), (2, 1), (3, 1), (3, 2)]);
    }

    #[test]
    fn unexpected_character_carries_its_position() {
        let err = Lexer::new("A\n  %").tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedCharacter('%'));
        assert_eq!((err.pos.line, err.pos.column), (2, 3));
    }

    #[test]
    fn a_lone_slash_is_an_error_not_a_comment() {
        let err = Lexer::new("/").tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedCharacter('/'));
    }
}
