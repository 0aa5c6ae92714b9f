//! SDL token kinds; positions and the token wrapper are
//! [`crate::source`]'s.

/// The kind (and payload) of a lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `/[_A-Za-z][_0-9A-Za-z]*/`
    Name(String),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A string literal (already unescaped). `block` records whether it was
    /// a `"""block string"""`, which matters only for printing fidelity.
    Str {
        /// The decoded string value.
        value: String,
        /// True if the source used block-string syntax.
        block: bool,
    },
    /// `!`
    Bang,
    /// `$`
    Dollar,
    /// `&`
    Amp,
    /// `(`
    ParenL,
    /// `)`
    ParenR,
    /// `...`
    Spread,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `@`
    At,
    /// `[`
    BracketL,
    /// `]`
    BracketR,
    /// `{`
    BraceL,
    /// `}`
    BraceR,
    /// `|`
    Pipe,
    /// End of input.
    Eof,
}

/// An SDL token with its source span.
pub type Token = crate::source::Token<TokenKind>;
