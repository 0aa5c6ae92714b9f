//! Parser robustness: `pg_pgschema::compile` on mutated valid inputs
//! (truncations, token swaps, character noise) must never panic, and
//! every rejection must carry a usable 1-based line/column position —
//! the error contract DESIGN §PG-Schema frontend promises tooling. The
//! same mutations of the corpus's SDL text go through `gql_sdl::parse`
//! and `PgSchema::parse`, the other surface of the shared source core.
//!
//! Lowering equivalence: every *acceptance* must be rehydratable. The
//! compiler builds its schema straight from the lowered document and
//! only prints the persisted text, so nothing at run time checks that
//! the text reads back; these tests do, on the corpus in both modes
//! and on every mutation that still compiles.

use pg_pgschema::{
    compile, corpus::corpus_sdl, parse_persisted, print_pgschema, Compiled, ParseError, TypeMode,
};
use pg_schema::PgSchema;
use proptest::prelude::*;

/// A valid PG-Schema text: the bilingual corpus schema for `seed`,
/// rendered through the printer (the same path `pgschema translate`
/// takes). Odd seeds render `LOOSE`, so the mutation tests cover both
/// modes.
fn corpus_pgs(seed: u64) -> String {
    let mode = if seed & 1 == 0 {
        TypeMode::Strict
    } else {
        TypeMode::Loose
    };
    corpus_pgs_as(seed, mode)
}

fn corpus_pgs_as(seed: u64, mode: TypeMode) -> String {
    let sdl = corpus_sdl(seed);
    let doc = gql_sdl::parse(&sdl).expect("corpus SDL parses");
    print_pgschema(&doc, "Corpus", mode).expect("corpus stays inside the PG-Schema fragment")
}

/// What the deleted print-and-reparse used to enforce on every compile:
/// (a) the persisted text reads back into a schema equal in
/// classification and mode — an accepted session can always rehydrate;
/// (b) rendering the lowered document as PG-Schema is a fixpoint.
fn assert_rehydrates(compiled: &Compiled) {
    let back = parse_persisted(&compiled.sdl)
        .unwrap_or_else(|e| panic!("accepted schema does not rehydrate: {e}\n{}", compiled.sdl));
    let (a, b) = (&compiled.schema, &back);
    assert_eq!(a.is_open_world(), compiled.mode == TypeMode::Loose);
    assert_eq!(a.is_open_world(), b.is_open_world());
    assert_eq!(a.keys(), b.keys());
    assert_eq!(a.constraint_sites(), b.constraint_sites());
    let types = |s: &PgSchema| -> Vec<_> {
        let s = s.schema();
        (s.object_types().chain(s.interface_types()))
            .map(|t| (t, s.type_name(t).to_owned()))
            .collect()
    };
    assert_eq!(types(a), types(b));
    for (t, _) in types(a) {
        assert_eq!(a.attributes(t), b.attributes(t));
        assert_eq!(a.relationships(t), b.relationships(t));
    }

    let printed = print_pgschema(&compiled.document, &compiled.name, compiled.mode)
        .expect("a lowered document stays inside the fragment");
    let again = compile(&printed).unwrap_or_else(|e| panic!("{}", e.render(&printed)));
    assert_eq!(
        print_pgschema(&again.document, &again.name, again.mode).unwrap(),
        printed
    );
    assert_eq!(again.sdl, compiled.sdl);
}

/// Every error must point into (or just past) the source it was raised
/// on, with 1-based coordinates, and must render a caret snippet
/// without panicking.
fn assert_error_is_located(err: &ParseError, source: &str) {
    assert!(err.pos.line >= 1, "0-based line in {err}");
    assert!(err.pos.column >= 1, "0-based column in {err}");
    let lines = source.lines().count().max(1) as u32;
    assert!(
        err.pos.line <= lines + 1,
        "line {} beyond the {}-line source",
        err.pos.line,
        lines
    );
    assert!(
        err.pos.offset <= source.len(),
        "offset {} beyond the {}-byte source",
        err.pos.offset,
        source.len()
    );
    let rendered = err.render(source);
    assert!(rendered.contains('^'), "no caret in:\n{rendered}");
    assert!(
        rendered.contains(&format!("{}:{}", err.pos.line, err.pos.column)),
        "no position in:\n{rendered}"
    );
}

/// Compile arbitrary (possibly mangled) text: no panic, and a located
/// error on rejection. Acceptance is fine — some mutations stay valid —
/// as long as what was accepted rehydrates.
fn check(text: &str) {
    match compile(text) {
        Ok(compiled) => assert_rehydrates(&compiled),
        Err(err) => assert_error_is_located(&err, text),
    }
}

/// The same discipline for SDL text, through both of its readers: the
/// parser alone, and the parser plus schema classification.
fn check_sdl(text: &str) {
    if let Err(err) = gql_sdl::parse(text) {
        assert_error_is_located(&err, text);
    }
    if let Err(err) = PgSchema::parse(text) {
        if let Some(err) = err.downcast_ref::<ParseError>() {
            assert_error_is_located(err, text);
        }
    }
}

/// `text` cut at byte `cut` (modulo its length, on a char boundary).
fn truncate(text: &str, cut: usize) -> &str {
    &text[..char_floor(text, cut % (text.len() + 1))]
}

/// `text` with whitespace-delimited tokens `a` and `b` (modulo their
/// count) swapped, re-joined by single spaces.
fn swap_tokens(text: &str, a: usize, b: usize) -> String {
    let mut tokens: Vec<&str> = text.split_whitespace().collect();
    if !tokens.is_empty() {
        let n = tokens.len();
        tokens.swap(a % n, b % n);
    }
    tokens.join(" ")
}

/// `text` with a grammar-significant character inserted at `at`, or —
/// for `which` past the noise table — the character there deleted.
fn noise(text: &str, at: usize, which: usize) -> String {
    const NOISE: [char; 11] = ['(', ')', '{', '}', '[', ']', ':', ',', '.', '-', '\u{e9}'];
    let at = char_floor(text, at % (text.len() + 1));
    let (head, rest) = text.split_at(at);
    match NOISE.get(which) {
        Some(c) => format!("{head}{c}{rest}"),
        // Delete the character at `at` (no-op at end of input).
        None => {
            let skip = rest.chars().next().map_or(0, char::len_utf8);
            format!("{head}{}", &rest[skip..])
        }
    }
}

/// Clamp `at` to the nearest char boundary at or below it.
fn char_floor(text: &str, at: usize) -> usize {
    let mut i = at.min(text.len());
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    i
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The unmutated corpus rendering always compiles, in both modes,
    /// to a schema its persisted text reproduces.
    #[test]
    fn corpus_renderings_compile_and_rehydrate(seed in 0u64..64, loose in any::<bool>()) {
        let mode = if loose { TypeMode::Loose } else { TypeMode::Strict };
        let text = corpus_pgs_as(seed, mode);
        let compiled = compile(&text).expect("valid rendering must compile");
        prop_assert_eq!(compiled.mode, mode);
        assert_rehydrates(&compiled);
    }

    /// Truncation at any byte: never a panic, always a located error
    /// (or acceptance, for cuts landing after the closing brace).
    #[test]
    fn truncations_never_panic(seed in 0u64..24, cut in 0usize..4096) {
        check(truncate(&corpus_pgs(seed), cut));
        check_sdl(truncate(&corpus_sdl(seed), cut));
    }

    /// Swapping two whitespace-delimited tokens: never a panic, and
    /// rejections stay located.
    #[test]
    fn token_swaps_never_panic(seed in 0u64..24, a in 0usize..256, b in 0usize..256) {
        check(&swap_tokens(&corpus_pgs(seed), a, b));
        check_sdl(&swap_tokens(&corpus_sdl(seed), a, b));
    }

    /// Single-character noise — insertion of a grammar-significant
    /// character, or deletion of one in place: never a panic.
    #[test]
    fn character_noise_never_panics(seed in 0u64..24, at in 0usize..4096, which in 0usize..12) {
        check(&noise(&corpus_pgs(seed), at, which));
        check_sdl(&noise(&corpus_sdl(seed), at, which));
    }
}
