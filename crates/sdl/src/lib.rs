//! # gql-sdl — GraphQL Schema Definition Language front-end
//!
//! A from-scratch implementation of the type-system half of the GraphQL
//! *June 2018* specification — the edition the paper targets ("The GraphQL
//! schema definition language (SDL) … has been officially introduced in the
//! June 2018 Edition of the GraphQL specification"). It covers:
//!
//! * the full lexical grammar (§2.1 of the spec): names, int/float/string
//!   and block-string literals, punctuators, comments, and the
//!   insignificant-comma rule;
//! * type-system definitions (spec §3): `schema`, `scalar`, `type`,
//!   `interface`, `union`, `enum`, `input`, and `directive` definitions,
//!   descriptions, field arguments with default values, `implements`
//!   clauses, and directive applications with constant arguments;
//! * wrapping types `T!`, `[T]`, `[T!]`, `[T!]!` and nesting up to
//!   [`MAX_DEPTH`] lists deep (the formal schema layer later enforces the
//!   paper's restriction to the four wrappings of §4.1);
//! * a canonical pretty-printer ([`print_document`]) such that
//!   `parse(print(doc)) == doc` (round-tripping is property-tested);
//! * the [`source`] core the PG-Schema frontend (`pg-pgschema`) reads
//!   text with too: positions, the character scanner and its line model,
//!   the located [`ParseError`] and its caret render, the token cursor
//!   and the [`MAX_DEPTH`] guard. Each language keeps only its token
//!   kinds, lexical rules and grammar.
//!
//! Executable-definition syntax (queries, mutations, fragments) is out of
//! scope: the paper repurposes only the *schema* language.
//!
//! ```
//! let doc = gql_sdl::parse(r#"
//!     type User @key(fields: ["id"]) {
//!         id: ID! @required
//!         nicknames: [String!]!
//!     }
//! "#).unwrap();
//! assert_eq!(doc.definitions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod extensions;
mod lexer;
mod parser;
mod printer;
pub mod source;
mod token;

pub use lexer::Lexer;
pub use printer::print_document;
pub use source::{ParseError, ParseErrorKind, Pos, Span, MAX_DEPTH};
pub use token::{Token, TokenKind};

/// Parses an SDL document.
pub fn parse(source: &str) -> Result<ast::Document, ParseError> {
    source::Cursor::new(source)?.parse_document()
}
