//! Random schema generation.
//!
//! Emits SDL text (so the whole front-end is exercised) describing a
//! consistent schema with `num_types` object types, a band of scalar
//! attribute fields, and a band of relationship fields whose directive
//! flags are drawn with the configured probabilities.
//!
//! Fields that carry `@uniqueForTarget`/`@requiredForTarget` create
//! cross-node obligations that make random *graph* generation a
//! constraint-satisfaction problem; [`SchemaGenParams::benchmarkable`]
//! zeroes those probabilities, which guarantees [`crate::GraphGen`]
//! succeeds on the first attempt (used by the scaling benchmarks).

use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters for [`SchemaGen`].
#[derive(Debug, Clone, Copy)]
pub struct SchemaGenParams {
    /// Number of object types.
    pub num_types: usize,
    /// Scalar attribute fields per type.
    pub attrs_per_type: usize,
    /// Relationship fields per type.
    pub rels_per_type: usize,
    /// Probability an attribute/relationship is `@required`.
    pub p_required: f64,
    /// Probability a relationship field is list-typed.
    pub p_list: f64,
    /// Probability of `@distinct` on a list relationship.
    pub p_distinct: f64,
    /// Probability of `@noLoops` on a self-targeting relationship.
    pub p_noloops: f64,
    /// Probability of `@uniqueForTarget`.
    pub p_unique_for_target: f64,
    /// Probability of `@requiredForTarget`.
    pub p_required_for_target: f64,
    /// Probability a type gets a single-field `@key`.
    pub p_key: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SchemaGenParams {
    fn default() -> Self {
        SchemaGenParams {
            num_types: 8,
            attrs_per_type: 4,
            rels_per_type: 2,
            p_required: 0.4,
            p_list: 0.6,
            p_distinct: 0.3,
            p_noloops: 0.5,
            p_unique_for_target: 0.15,
            p_required_for_target: 0.1,
            p_key: 0.3,
            seed: 0,
        }
    }
}

impl SchemaGenParams {
    /// A parameterisation whose schemas admit straightforward conforming
    /// graph generation (no target-side obligations).
    pub fn benchmarkable(num_types: usize, seed: u64) -> Self {
        SchemaGenParams {
            num_types,
            p_unique_for_target: 0.0,
            p_required_for_target: 0.0,
            seed,
            ..Default::default()
        }
    }
}

/// The random schema generator.
pub struct SchemaGen {
    params: SchemaGenParams,
}

const SCALARS: [&str; 5] = ["Int", "Float", "String", "Boolean", "ID"];

impl SchemaGen {
    /// Creates a generator.
    pub fn new(params: SchemaGenParams) -> Self {
        SchemaGen { params }
    }

    /// Emits the SDL text of one random schema.
    pub fn generate(&self) -> String {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut out = String::new();
        for t in 0..p.num_types {
            let keyed = rng.gen_bool(p.p_key);
            if keyed {
                out.push_str(&format!("type T{t} @key(fields: [\"a{t}_0\"]) {{\n"));
            } else {
                out.push_str(&format!("type T{t} {{\n"));
            }
            for a in 0..p.attrs_per_type {
                let scalar = SCALARS[rng.gen_range(0..SCALARS.len())];
                // Key fields must exist and should be high-entropy: force
                // attribute 0 to be a required ID when keyed.
                let (scalar, required) = if a == 0 && keyed {
                    ("ID", true)
                } else {
                    (scalar, rng.gen_bool(p.p_required))
                };
                let listy = scalar != "Boolean" && rng.gen_bool(0.2);
                let ty = if listy {
                    format!("[{scalar}!]!")
                } else {
                    format!("{scalar}!")
                };
                out.push_str(&format!(
                    "    a{t}_{a}: {ty}{}\n",
                    if required { " @required" } else { "" }
                ));
            }
            for r in 0..p.rels_per_type {
                let target = rng.gen_range(0..p.num_types);
                let list = rng.gen_bool(p.p_list);
                let ty = if list {
                    format!("[T{target}]")
                } else {
                    format!("T{target}")
                };
                let mut directives = String::new();
                if rng.gen_bool(p.p_required) {
                    directives.push_str(" @required");
                }
                if list && rng.gen_bool(p.p_distinct) {
                    directives.push_str(" @distinct");
                }
                if target == t && rng.gen_bool(p.p_noloops) {
                    directives.push_str(" @noLoops");
                }
                if rng.gen_bool(p.p_unique_for_target) {
                    directives.push_str(" @uniqueForTarget");
                }
                if rng.gen_bool(p.p_required_for_target) {
                    directives.push_str(" @requiredForTarget");
                }
                // Edge properties on some relationships.
                let args = if rng.gen_bool(0.3) {
                    "(weight: Float! note: String)"
                } else {
                    ""
                };
                out.push_str(&format!("    r{t}_{r}{args}: {ty}{directives}\n"));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// A fixed, hand-designed schema used across examples and benchmarks: a
/// small social-network catalogue exercising every §3 feature.
pub fn social_schema() -> &'static str {
    r#"
    type User @key(fields: ["id"]) {
        id: ID! @required
        login: String! @required
        nicknames: [String!]!
        follows(since: Int! weight: Float): [User] @distinct @noLoops
        authored: [Post]
    }
    type Post @key(fields: ["id"]) {
        id: ID! @required
        title: String! @required
        tags: [String!]!
        inThread: Thread
    }
    type Thread {
        topic: String! @required
        posts: [Post] @distinct
    }
    "#
}

/// A second fixed schema combining Examples 3.6 and 3.8: it carries the
/// target-side directives (`@uniqueForTarget`, `@requiredForTarget`) and a
/// `@required` relationship that [`social_schema`] deliberately avoids, so
/// the two together give every defect class of `crate::inject` a site.
pub fn library_schema() -> &'static str {
    r#"
    type Author {
        name: String! @required
        favoriteBook: Book
        relatedAuthor: [Author] @distinct @noLoops
    }
    type Book @key(fields: ["isbn"]) {
        isbn: ID! @required
        title: String! @required
        author(role: String!): [Author] @required @distinct
    }
    type BookSeries {
        seriesTitle: String! @required
        contains: [Book] @uniqueForTarget
    }
    type Publisher {
        name: String! @required
        published: [Book] @uniqueForTarget @requiredForTarget
    }
    "#
}

/// A ring of `num_types` otherwise-identical types `T0 … T{n-1}`, each
/// with an optional `name` and a `@distinct` list `next` to its
/// successor. The two flags change only `T0`: `tighten` makes its `name`
/// `@required`, `extend` adds an optional `zmig` attribute. Migration
/// planning's workload: a change to `T0` leaves every other type
/// untouched, however many there are.
pub fn ring_schema(num_types: usize, tighten: bool, extend: bool) -> String {
    let mut s = String::new();
    for t in 0..num_types {
        let req = if tighten && t == 0 { " @required" } else { "" };
        s.push_str(&format!("type T{t} {{\n    name: String{req}\n"));
        if extend && t == 0 {
            s.push_str("    zmig: String\n");
        }
        let next = (t + 1) % num_types;
        s.push_str(&format!("    next: [T{next}] @distinct\n}}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_schema::PgSchema;

    #[test]
    fn generated_schemas_parse_build_and_are_consistent() {
        for seed in 0..20 {
            let sdl = SchemaGen::new(SchemaGenParams {
                seed,
                ..Default::default()
            })
            .generate();
            let schema =
                PgSchema::parse(&sdl).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sdl}"));
            assert_eq!(schema.schema().object_types().count(), 8);
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let p = SchemaGenParams::default();
        let a = SchemaGen::new(p).generate();
        let b = SchemaGen::new(p).generate();
        assert_eq!(a, b);
        let c = SchemaGen::new(SchemaGenParams { seed: 1, ..p }).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn benchmarkable_schemas_have_no_target_obligations() {
        let sdl = SchemaGen::new(SchemaGenParams::benchmarkable(6, 3)).generate();
        assert!(!sdl.contains("uniqueForTarget"));
        assert!(!sdl.contains("requiredForTarget"));
        let schema = PgSchema::parse(&sdl).unwrap();
        assert!(schema
            .constraint_sites()
            .iter()
            .all(|s| !s.rel.unique_for_target && !s.rel.required_for_target));
    }

    #[test]
    fn size_parameters_are_respected() {
        let sdl = SchemaGen::new(SchemaGenParams {
            num_types: 3,
            attrs_per_type: 2,
            rels_per_type: 1,
            ..Default::default()
        })
        .generate();
        let schema = PgSchema::parse(&sdl).unwrap();
        for t in schema.schema().object_types().collect::<Vec<_>>() {
            assert_eq!(schema.attributes(t).len(), 2);
            assert_eq!(schema.relationships(t).len(), 1);
        }
    }

    #[test]
    fn social_schema_is_valid() {
        let schema = PgSchema::parse(social_schema()).unwrap();
        assert_eq!(schema.schema().object_types().count(), 3);
        assert_eq!(schema.keys().len(), 2);
    }
}
