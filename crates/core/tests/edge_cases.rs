//! Edge cases of the §5 semantics that the main rule tests don't reach:
//! constraints sited on interfaces, keys over subtype hierarchies,
//! scalar-basetype WS3, empty schemas/graphs, and null-bearing values.

use pg_schema::{validate, Engine, PgSchema, Rule, ValidationOptions};
use pgraph::{GraphBuilder, PropertyGraph, Value};

fn both(g: &PropertyGraph, s: &PgSchema) -> pg_schema::ValidationReport {
    let naive = validate(g, s, &ValidationOptions::with_engine(Engine::Naive));
    let indexed = validate(g, s, &ValidationOptions::with_engine(Engine::Indexed));
    assert_eq!(naive, indexed, "engines disagree:\n{naive}\n{indexed}");
    naive
}

#[test]
fn empty_schema_accepts_only_the_empty_graph() {
    let s = PgSchema::parse("").unwrap();
    assert!(pg_schema::strongly_satisfies(&PropertyGraph::new(), &s));
    let mut g = PropertyGraph::new();
    g.add_node("Anything");
    let report = both(&g, &s);
    assert_eq!(
        report.counts().keys().copied().collect::<Vec<_>>(),
        vec![Rule::SS1]
    );
}

#[test]
fn key_on_interface_spans_implementing_types() {
    // DS7 with an interface site: nodes of *different* object types below
    // the same interface must still differ on the key.
    let s = PgSchema::parse(
        r#"
        interface Entity @key(fields: ["uid"]) { uid: ID! @required }
        type A implements Entity { uid: ID! @required }
        type B implements Entity { uid: ID! @required }
        "#,
    )
    .unwrap();
    let g = GraphBuilder::new()
        .node("a", "A")
        .prop("a", "uid", Value::Id("same".into()))
        .node("b", "B")
        .prop("b", "uid", Value::Id("same".into()))
        .build()
        .unwrap();
    let report = both(&g, &s);
    assert_eq!(report.by_rule(Rule::DS7).count(), 1, "{report}");
    // Distinct uids conform.
    let g = GraphBuilder::new()
        .node("a", "A")
        .prop("a", "uid", Value::Id("one".into()))
        .node("b", "B")
        .prop("b", "uid", Value::Id("two".into()))
        .build()
        .unwrap();
    assert!(both(&g, &s).conforms());
}

#[test]
fn distinct_on_interface_reaches_implementor_edges() {
    let s = PgSchema::parse(
        r#"
        interface Owner { owns: [Thing] @distinct }
        type Person implements Owner { owns: [Thing] }
        type Thing { x: Int }
        "#,
    )
    .unwrap();
    // Person's own field has no @distinct, but the interface site (t=Owner)
    // constrains all sources ⊑ Owner.
    let g = GraphBuilder::new()
        .node("p", "Person")
        .node("t", "Thing")
        .edge("p", "t", "owns")
        .edge("p", "t", "owns")
        .build()
        .unwrap();
    let report = both(&g, &s);
    assert!(report.by_rule(Rule::DS1).next().is_some(), "{report}");
}

#[test]
fn ws3_with_scalar_base_rejects_any_target() {
    // An edge labelled like an attribute field: WS3's subtype condition
    // λ(v2) ⊑ basetype can never hold for a scalar base.
    let s = PgSchema::parse("type T { size: Int }").unwrap();
    let g = GraphBuilder::new()
        .node("a", "T")
        .node("b", "T")
        .edge("a", "b", "size")
        .build()
        .unwrap();
    let report = both(&g, &s);
    let mut rules: Vec<Rule> = report.counts().keys().copied().collect();
    rules.sort();
    assert_eq!(rules, vec![Rule::WS3, Rule::SS4], "{report}");
}

#[test]
fn null_property_value_conforms_to_nullable_types_only() {
    // A *stored* null: member of valuesW(t) for nullable t (WS1 passes),
    // but DS5 still fires for required fields whose stored value is null?
    // DS5 clause 1 only demands (v,f) ∈ dom(σ) — a stored null satisfies
    // it. Faithful to the paper: the null is in dom(σ).
    let s = PgSchema::parse("type T { a: Int b: Int! @required }").unwrap();
    let g = GraphBuilder::new()
        .node("t", "T")
        .prop("t", "a", Value::Null)
        .prop("t", "b", Value::Null)
        .build()
        .unwrap();
    let report = both(&g, &s);
    // a: Int admits null (WS1 ok); b: Int! rejects it (WS1), while DS5 is
    // satisfied by presence.
    assert_eq!(report.len(), 1, "{report}");
    assert_eq!(report.violations()[0].rule(), Rule::WS1);
}

#[test]
fn parallel_edges_without_distinct_are_fine_for_list_fields() {
    let s = PgSchema::parse("type A { rel: [B] } type B { x: Int }").unwrap();
    let g = GraphBuilder::new()
        .node("a", "A")
        .node("b", "B")
        .edge("a", "b", "rel")
        .edge("a", "b", "rel")
        .edge("a", "b", "rel")
        .build()
        .unwrap();
    assert!(both(&g, &s).conforms());
}

#[test]
fn required_for_target_counts_only_sources_below_site() {
    // An incoming edge from the WRONG source type does not discharge DS4.
    let s = PgSchema::parse(
        r#"
        type Publisher { published: [Book] @requiredForTarget }
        type Pirate { published: [Book] }
        type Book { title: String! }
        "#,
    )
    .unwrap();
    let g = GraphBuilder::new()
        .node("b", "Book")
        .prop("b", "title", "Dune")
        .node("p", "Pirate")
        .edge("p", "b", "published")
        .build()
        .unwrap();
    let report = both(&g, &s);
    assert!(report.by_rule(Rule::DS4).next().is_some(), "{report}");
    // A real publisher discharges it.
    let g = GraphBuilder::new()
        .node("b", "Book")
        .prop("b", "title", "Dune")
        .node("p", "Publisher")
        .edge("p", "b", "published")
        .build()
        .unwrap();
    assert!(both(&g, &s).conforms());
}

#[test]
fn unique_for_target_ignores_sources_outside_the_site() {
    let s = PgSchema::parse(
        r#"
        type Publisher { published: [Book] @uniqueForTarget }
        type Pirate { published: [Book] }
        type Book { title: String! }
        "#,
    )
    .unwrap();
    // One publisher + one pirate edge: only one source is ⊑ Publisher, so
    // DS3 is satisfied.
    let g = GraphBuilder::new()
        .node("b", "Book")
        .prop("b", "title", "Dune")
        .node("p", "Publisher")
        .node("q", "Pirate")
        .edge("p", "b", "published")
        .edge("q", "b", "published")
        .build()
        .unwrap();
    assert!(both(&g, &s).conforms());
    // Two publishers violate it.
    let g = GraphBuilder::new()
        .node("b", "Book")
        .prop("b", "title", "Dune")
        .node("p1", "Publisher")
        .node("p2", "Publisher")
        .edge("p1", "b", "published")
        .edge("p2", "b", "published")
        .build()
        .unwrap();
    assert!(both(&g, &s).by_rule(Rule::DS3).next().is_some());
}

#[test]
fn enum_property_values_are_checked_against_symbols() {
    let s = PgSchema::parse("enum Unit { METER FEET } type M { unit: Unit! @required }").unwrap();
    let ok = GraphBuilder::new()
        .node("m", "M")
        .prop("m", "unit", Value::Enum("METER".into()))
        .build()
        .unwrap();
    assert!(both(&ok, &s).conforms());
    let bad = GraphBuilder::new()
        .node("m", "M")
        .prop("m", "unit", Value::Enum("MILE".into()))
        .build()
        .unwrap();
    assert!(both(&bad, &s).by_rule(Rule::WS1).next().is_some());
    // A string is not an enum symbol.
    let string = GraphBuilder::new()
        .node("m", "M")
        .prop("m", "unit", Value::from("METER"))
        .build()
        .unwrap();
    assert!(both(&string, &s).by_rule(Rule::WS1).next().is_some());
}

#[test]
fn custom_scalars_accept_any_atomic_value() {
    let s = PgSchema::parse("scalar Time type E { at: Time! @required }").unwrap();
    for v in [
        Value::from("2019-06-30"),
        Value::Int(1_561_852_800),
        Value::Float(1.5),
        Value::Bool(true),
    ] {
        let g = GraphBuilder::new()
            .node("e", "E")
            .prop("e", "at", v.clone())
            .build()
            .unwrap();
        assert!(both(&g, &s).conforms(), "{v:?} rejected for custom scalar");
    }
    let g = GraphBuilder::new()
        .node("e", "E")
        .prop("e", "at", Value::List(vec![Value::Int(1)]))
        .build()
        .unwrap();
    assert!(both(&g, &s).by_rule(Rule::WS1).next().is_some());
}

#[test]
fn huge_int_values_violate_32_bit_int() {
    let s = PgSchema::parse("type T { n: Int }").unwrap();
    let g = GraphBuilder::new()
        .node("t", "T")
        .prop("t", "n", Value::Int(i64::from(i32::MAX) + 1))
        .build()
        .unwrap();
    assert!(both(&g, &s).by_rule(Rule::WS1).next().is_some());
}

#[test]
fn self_loop_is_fine_without_noloops() {
    let s = PgSchema::parse("type A { peer: [A] }").unwrap();
    let g = GraphBuilder::new()
        .node("a", "A")
        .edge("a", "a", "peer")
        .build()
        .unwrap();
    assert!(both(&g, &s).conforms());
}

#[test]
fn multiple_keys_are_all_enforced() {
    let s = PgSchema::parse(
        r#"type U @key(fields: ["a"]) @key(fields: ["b"]) {
            a: Int @required
            b: Int @required
        }"#,
    )
    .unwrap();
    // Differ on a but collide on b → DS7 via the second key.
    let g = GraphBuilder::new()
        .node("u", "U")
        .prop("u", "a", 1i64)
        .prop("u", "b", 9i64)
        .node("v", "U")
        .prop("v", "a", 2i64)
        .prop("v", "b", 9i64)
        .build()
        .unwrap();
    let report = both(&g, &s);
    assert_eq!(report.by_rule(Rule::DS7).count(), 1, "{report}");
}

/// `validate_columns` trusts only columns on the schema's symbol space:
/// columns frozen onto their own table (where `User` may be symbol 0 and
/// mean nothing to the schema) get the report the rows get, on every
/// engine, and so do columns decoded straight into the schema's builder.
#[test]
fn columns_on_a_foreign_symbol_space_are_never_misread() {
    let s = PgSchema::parse(
        r#"
        type User @key(fields: ["login"]) {
            login: String! @required
            follows: [User] @noLoops
        }
        "#,
    )
    .unwrap();
    let g = GraphBuilder::new()
        .node("a", "User")
        .prop("a", "login", "al")
        .node("b", "User")
        .prop("b", "login", "al")
        .node("c", "Stranger")
        .prop("c", "shoe", 7i64)
        .edge("a", "a", "follows")
        .edge("b", "c", "follows")
        .edge("c", "a", "haunts")
        .build()
        .unwrap();
    let foreign = pgraph::ColumnarGraph::freeze(&g);
    let mut decoded = s.columns_builder();
    let text = pgraph::json::to_json(&g);
    pgraph::json::read_graph(&mut pgraph::json::Reader::new(&text), &mut decoded).unwrap();
    let decoded = decoded.finish();
    for engine in [
        Engine::Naive,
        Engine::Indexed,
        Engine::Parallel,
        Engine::Incremental,
    ] {
        let options = ValidationOptions::with_engine(engine);
        let want = validate(&g, &s, &options);
        assert!(!want.conforms());
        assert_eq!(
            pg_schema::validate_columns(&foreign, &s, &options),
            want,
            "{engine:?}"
        );
        assert_eq!(
            pg_schema::validate_columns(&decoded, &s, &options),
            want,
            "{engine:?}"
        );
    }
}
