//! PG-Schema frontend for the property-graph validation suite.
//!
//! The paper defines property-graph schemas through the GraphQL SDL;
//! PG-Schema (Angles et al., "PG-Schema: Schemas for Property Graphs")
//! is the community's ISO-GQL-adjacent schema language for the same job.
//! This crate makes the rule kernels *language*-agnostic: the
//! [`lexer`] rules and [`parser`] grammar of a practical PG-Schema
//! subset — the scanner, token cursor and located [`ParseError`] they
//! run on are `gql-sdl`'s shared source core ([`gql_sdl::source`]) — a
//! [`lower`]ing compiler onto the existing [`pg_schema::PgSchema`] core
//! (so all four engines, metrics, sessions, durability and replication
//! just work), and a [`mod@print`]er rendering SDL documents back as
//! PG-Schema over the overlapping fragment. [`load_schema`] is the one
//! "(text, language) → (schema, canonical text)" function the CLI and the
//! server share.
//!
//! # Where the mode lives
//!
//! `STRICT`/`LOOSE` is a property of the schema, so it is a field of
//! it: lowering a `LOOSE` graph type yields an open-world
//! [`PgSchema`], and every engine skips the strong rule family for
//! such a schema whatever its options say. Nothing downstream of the
//! schema re-derives the mode.
//!
//! # The language pragma
//!
//! Persisted schema text (session WAL records, `SchemaChange` bodies,
//! snapshots, replication) stays SDL: a compiled PG-Schema document is
//! stored as its lowered SDL prefixed with a one-line comment pragma,
//!
//! ```text
//! # schema-language: pgschema loose
//! ```
//!
//! `#` comments are ignored tokens in SDL, so every existing store and
//! wire path handles the tagged text unchanged. The pragma is only the
//! *persisted encoding* of the mode: [`parse_persisted`] is the single
//! reader that turns it back into an open-world schema — which is how a
//! `LOOSE` session keeps its strong rule family off across restarts,
//! replicas and cross-language migration windows.

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod print;
pub mod token;

pub mod corpus;

pub use ast::TypeMode;
/// The located error both frontends raise, from the shared source core.
pub use gql_sdl::{ParseError, ParseErrorKind};
pub use lexer::Lexer;
pub use lower::{compile, Compiled};
pub use parser::parse;
pub use print::{print_pgschema, PrintError};

use pg_schema::{PgSchema, ValidationOptions};

/// Which schema language a text is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemaLanguage {
    /// The paper's GraphQL SDL dialect.
    #[default]
    Sdl,
    /// The PG-Schema subset this crate compiles.
    PgSchema,
}

impl SchemaLanguage {
    /// The accepted `--lang` / `?lang=` spellings.
    pub const NAMES: &'static [&'static str] = &["sdl", "pgschema"];

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SchemaLanguage::Sdl => "sdl",
            SchemaLanguage::PgSchema => "pgschema",
        }
    }

    /// Infers the language from a file extension: `.pgs`/`.pgschema` →
    /// PG-Schema, anything else (`.graphql`, `.sdl`, …) → SDL.
    pub fn detect(path: &std::path::Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("pgs") | Some("pgschema") => SchemaLanguage::PgSchema,
            _ => SchemaLanguage::Sdl,
        }
    }
}

impl std::fmt::Display for SchemaLanguage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemaLanguage {
    type Err = pgraph::ParseEnumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sdl" => Ok(SchemaLanguage::Sdl),
            "pgschema" => Ok(SchemaLanguage::PgSchema),
            other => Err(pgraph::ParseEnumError::new(
                "schema language",
                other,
                Self::NAMES,
            )),
        }
    }
}

/// The prefix of the language pragma comment (first line of persisted
/// schema text compiled from a non-SDL frontend). Quoted verbatim by
/// docs/replication.md's SchemaChange section and pinned by the
/// spec-parity tests.
pub const PRAGMA_PREFIX: &str = "# schema-language:";

/// The pragma line recorded for a compiled PG-Schema document.
pub fn pragma_line(mode: TypeMode) -> String {
    format!("{PRAGMA_PREFIX} pgschema {}", mode.name())
}

/// Recovers the source language and type mode from persisted schema
/// text. Returns `None` for plain SDL (no pragma, or one that does not
/// parse — unknown future tags are deliberately ignored, not errors).
pub fn pragma_of(sdl: &str) -> Option<(SchemaLanguage, TypeMode)> {
    let first = sdl.lines().find(|l| !l.trim().is_empty())?;
    let rest = first.trim().strip_prefix(PRAGMA_PREFIX)?;
    let mut words = rest.split_whitespace();
    let lang: SchemaLanguage = words.next()?.parse().ok()?;
    let mode: TypeMode = words.next()?.parse().ok()?;
    words.next().is_none().then_some((lang, mode))
}

/// Reads persisted schema text — SDL, pragma-tagged when it was lowered
/// from PG-Schema — into the schema it denotes, mode included. The only
/// place the pragma turns into behaviour: recovery, follower hydration
/// and SDL input all come through here.
pub fn parse_persisted(sdl: &str) -> Result<PgSchema, Box<dyn std::error::Error>> {
    let schema = PgSchema::parse(sdl)?;
    Ok(match pragma_of(sdl) {
        Some((_, TypeMode::Loose)) => schema.into_open_world(),
        _ => schema,
    })
}

/// Loads schema text in either language: the classified schema plus the
/// canonical SDL text that gets persisted. PG-Schema input lowers to SDL
/// prefixed with the language pragma, so sessions, WAL records and
/// replication carry the source language with no format change; SDL
/// input is its own canonical text. A parse failure in either language
/// is a [`ParseError`] (downcast to render its caret snippet).
pub fn load_schema(
    source: &str,
    lang: SchemaLanguage,
) -> Result<(PgSchema, String), Box<dyn std::error::Error>> {
    match lang {
        SchemaLanguage::Sdl => Ok((parse_persisted(source)?, source.to_owned())),
        SchemaLanguage::PgSchema => {
            let compiled = compile(source)?;
            Ok((compiled.schema, compiled.sdl))
        }
    }
}

/// The options an engine holding only the *text* would need to honour
/// its pragma: `LOOSE` switches the strong family off. Redundant for
/// callers holding the schema ([`parse_persisted`], [`compile`]) — an
/// open-world schema skips that family by itself.
pub fn apply_pragma(options: &ValidationOptions, sdl: &str) -> ValidationOptions {
    let mut out = *options;
    if let Some((_, TypeMode::Loose)) = pragma_of(sdl) {
        out.strong = false;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_names_parse_via_the_shared_enum_error() {
        assert_eq!(
            "sdl".parse::<SchemaLanguage>().unwrap(),
            SchemaLanguage::Sdl
        );
        assert_eq!(
            "pgschema".parse::<SchemaLanguage>().unwrap(),
            SchemaLanguage::PgSchema
        );
        let err = "gql".parse::<SchemaLanguage>().unwrap_err();
        assert!(err.to_string().contains("schema language"), "{err}");
        assert!(err.to_string().contains("sdl"), "{err}");
        let err = "open".parse::<TypeMode>().unwrap_err();
        assert!(err.to_string().contains("strict"), "{err}");
    }

    #[test]
    fn detection_by_extension() {
        use std::path::Path;
        assert_eq!(
            SchemaLanguage::detect(Path::new("a/b.pgs")),
            SchemaLanguage::PgSchema
        );
        assert_eq!(
            SchemaLanguage::detect(Path::new("b.pgschema")),
            SchemaLanguage::PgSchema
        );
        assert_eq!(
            SchemaLanguage::detect(Path::new("c.graphql")),
            SchemaLanguage::Sdl
        );
        assert_eq!(
            SchemaLanguage::detect(Path::new("noext")),
            SchemaLanguage::Sdl
        );
    }

    #[test]
    fn pragma_round_trips() {
        let line = pragma_line(TypeMode::Loose);
        assert_eq!(
            pragma_of(&format!("{line}\ntype T {{ x: Int! }}")),
            Some((SchemaLanguage::PgSchema, TypeMode::Loose))
        );
        assert_eq!(pragma_of("type T { x: Int! }"), None);
        assert_eq!(pragma_of("# just a comment\ntype T { x: Int! }"), None);
        // Unknown tags in a pragma-shaped line are ignored, not errors.
        assert_eq!(pragma_of("# schema-language: cypher strict\n"), None);
        assert_eq!(
            pragma_of("# schema-language: pgschema strict extra\n"),
            None
        );
    }

    #[test]
    fn loose_pragma_switches_off_the_strong_family() {
        let base = ValidationOptions::default();
        assert!(base.strong);
        let loose = apply_pragma(&base, &format!("{}\n", pragma_line(TypeMode::Loose)));
        assert!(!loose.strong && loose.weak && loose.directives);
        let strict = apply_pragma(&base, &format!("{}\n", pragma_line(TypeMode::Strict)));
        assert!(strict.strong);
        let sdl = apply_pragma(&base, "type T { x: Int! }");
        assert!(sdl.strong);
    }
}
