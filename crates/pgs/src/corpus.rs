//! Deterministic generator of *overlapping-fragment* schemas.
//!
//! The translation-parity suite needs schemas expressible in both
//! languages: every construct must sit inside the fragment the
//! [`crate::print`]er accepts (the canonical shapes of the lowering
//! table), unlike `pg_datagen::SchemaGen` output, which freely uses
//! wrappings such as bare `T @required` that PG-Schema cannot render
//! losslessly. Generation is seeded and uses a local LCG, so corpus
//! membership is stable across runs and platforms.

use std::fmt::Write as _;

/// A tiny splitmix-style generator — enough entropy for corpus shaping,
/// no dependency on the vendored `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

const SCALARS: &[&str] = &["String", "Int", "Float", "Boolean", "ID"];

/// Generates one fragment-corpus schema as SDL text.
///
/// The output always parses, builds a consistent schema, and renders to
/// PG-Schema without errors; it exercises all four property shapes, all
/// four edge cardinalities, the five constraint directives, edge
/// properties, interface inheritance with redeclared copies, keys (on
/// any number of the types), and a custom scalar.
pub fn corpus_sdl(seed: u64) -> String {
    let mut rng = Rng(seed.wrapping_mul(2).wrapping_add(1));
    let n_types = 3 + rng.below(3) as usize; // T0..T{n-1}
    let with_iface = rng.chance(60);
    let custom_scalar = rng.chance(40);

    let mut out = String::new();

    // Interface: one or two attributes, sometimes a constrained edge.
    let mut iface_fields: Vec<String> = Vec::new();
    if with_iface {
        iface_fields.push(attr_field(&mut rng, "i0", custom_scalar));
        if rng.chance(50) {
            iface_fields.push(attr_field(&mut rng, "i1", custom_scalar));
        }
        if rng.chance(50) {
            let target = format!("T{}", rng.below(n_types as u64));
            let dir = *rng.pick(&[" @uniqueForTarget", " @requiredForTarget", ""]);
            iface_fields.push(format!("iref: [{target}]{dir}"));
        }
        out.push_str("interface I {\n");
        for f in &iface_fields {
            let _ = writeln!(out, "    {f}");
        }
        out.push_str("}\n\n");
    }

    for t in 0..n_types {
        let implements = with_iface && t < 2 && rng.chance(70);
        // Any type may be keyed, so renderings carry several consecutive
        // `FOR … KEY` items.
        let keyed = rng.chance(50);
        let head = if implements {
            format!("type T{t} implements I")
        } else {
            format!("type T{t}")
        };
        if keyed {
            let _ = writeln!(out, "{head} @key(fields: [\"a{t}_0\"]) {{");
        } else {
            let _ = writeln!(out, "{head} {{");
        }
        if implements {
            // SDL requires implementors to redeclare interface fields.
            for f in &iface_fields {
                let _ = writeln!(out, "    {f}");
            }
        }
        // Attributes: the four canonical shapes.
        let n_attrs = 1 + rng.below(3);
        for a in 0..n_attrs {
            let name = format!("a{t}_{a}");
            let field = if keyed && a == 0 {
                // Key fields are mandatory ID properties.
                format!("{name}: ID! @required")
            } else {
                attr_field(&mut rng, &name, custom_scalar)
            };
            let _ = writeln!(out, "    {field}");
        }
        // Relationships: canonical cardinality shapes plus directives.
        let n_rels = rng.below(3);
        for r in 0..n_rels {
            let target = format!("T{}", rng.below(n_types as u64));
            let args = match rng.below(3) {
                0 => String::new(),
                1 => "(w: Float!)".to_owned(),
                _ => "(w: Float! note: String)".to_owned(),
            };
            let (ty, required) = match rng.below(4) {
                0 => (target.clone(), false),
                1 => (format!("{target}!"), true),
                2 => (format!("[{target}]"), false),
                _ => (format!("[{target}]"), true),
            };
            let mut dirs = String::new();
            if required {
                dirs.push_str(" @required");
            }
            if rng.chance(30) {
                dirs.push_str(" @distinct");
            }
            if rng.chance(20) {
                dirs.push_str(" @noLoops");
            }
            if rng.chance(20) {
                dirs.push_str(" @uniqueForTarget");
            }
            if rng.chance(15) {
                dirs.push_str(" @requiredForTarget");
            }
            let _ = writeln!(out, "    r{t}_{r}{args}: {ty}{dirs}");
        }
        out.push_str("}\n\n");
    }
    // Declared only when used: the PG-Schema rendering re-materialises
    // custom scalars from use sites, so an unused declaration would not
    // survive the round trip.
    if out.contains(": Stamp") || out.contains("[Stamp") {
        out.push_str("scalar Stamp\n");
    }
    out
}

/// One attribute in a canonical shape: `T!`, `T! @required`, `[T!]!`, or
/// `[T!]! @required`.
fn attr_field(rng: &mut Rng, name: &str, custom_scalar: bool) -> String {
    let scalar = if custom_scalar && rng.chance(15) {
        "Stamp"
    } else {
        rng.pick(SCALARS)
    };
    let array = rng.chance(25);
    let required = rng.chance(50);
    let ty = if array {
        format!("[{scalar}!]!")
    } else {
        format!("{scalar}!")
    };
    let req = if required { " @required" } else { "" };
    format!("{name}: {ty}{req}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TypeMode;

    #[test]
    fn every_corpus_schema_is_bilingual() {
        let mut most_keys = 0;
        for seed in 0..50 {
            let sdl = corpus_sdl(seed);
            most_keys = most_keys.max(sdl.matches("@key").count());
            let doc = gql_sdl::parse(&sdl).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sdl}"));
            let schema = pg_schema::PgSchema::from_document(&doc)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sdl}"));
            drop(schema);
            let pgs = crate::print_pgschema(&doc, "G", TypeMode::Strict)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sdl}"));
            let compiled =
                crate::compile(&pgs).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{pgs}"));
            // Lowering the rendering reproduces the same classified
            // schema: same types, same attribute/relationship shapes.
            let lowered = gql_sdl::print_document(&compiled.document);
            let direct = gql_sdl::print_document(&doc);
            assert_eq!(
                sorted_lines(&lowered),
                sorted_lines(&direct),
                "seed {seed}:\n--- sdl\n{direct}\n--- via pgs\n{lowered}"
            );
        }
        assert!(most_keys >= 3, "the corpus must cover consecutive keys");
    }

    /// Field order may differ (PG-Schema groups properties before
    /// edges); the *set* of printed lines must not.
    fn sorted_lines(s: &str) -> Vec<&str> {
        let mut v: Vec<&str> = s.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        v.sort_unstable();
        v
    }
}
