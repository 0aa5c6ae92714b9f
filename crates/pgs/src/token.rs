//! PG-Schema token kinds. Positions, spans and the token wrapper are the
//! shared source core's ([`gql_sdl::source`]), so spans are
//! interchangeable between the two frontends.

pub use gql_sdl::{Pos, Span};

/// The kind (and payload) of a lexical PG-Schema token.
///
/// Keywords (`CREATE`, `OPTIONAL`, `ABSTRACT`, …) are lexed as
/// [`TokenKind::Name`]; the parser matches them by spelling, which keeps
/// the lexer oblivious to the keyword set and lets identifiers reuse
/// keyword spellings in positions where no keyword is expected.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `/[_A-Za-z][_0-9A-Za-z]*/`
    Name(String),
    /// A non-negative integer literal (cardinality bound).
    Int(u64),
    /// `(`
    ParenL,
    /// `)`
    ParenR,
    /// `{`
    BraceL,
    /// `}`
    BraceR,
    /// `[`
    BracketL,
    /// `]`
    BracketR,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `&`
    Amp,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `-`
    Dash,
    /// `->`
    Arrow,
    /// `*`
    Star,
    /// End of input.
    Eof,
}

/// A PG-Schema token with its source span.
pub type Token = gql_sdl::source::Token<TokenKind>;
