//! Interpreting a GraphQL schema as a Property Graph schema (paper §3).
//!
//! [`PgSchema`] wraps a consistent [`gql_schema::Schema`] and precomputes
//! the tables the validators need:
//!
//! * the classification of every field of every object/interface type into
//!   **attribute definitions** (scalar/enum-based — they specify node
//!   properties, §3.2) and **relationship definitions** (object/interface/
//!   union-based — they specify outgoing edges, §3.3);
//! * per relationship definition: the constraint flags contributed by the
//!   directives, the edge-property table from the field's arguments
//!   (§3.5), and list-ness (the WS4 cardinality discriminator);
//! * key constraints from `@key` (§3.2 / DS7);
//! * the set of [`ConstraintSite`]s — `(t, f)` pairs carrying directives,
//!   where `t` may be an interface whose constraints then apply to all
//!   implementing source types (cf. Example 6.1).

use std::collections::HashMap;
use std::sync::OnceLock;

use gql_schema::{
    consistency, directives as dir, subtype, AppliedDirective, FieldInfo, Schema, TypeId,
    WrappedType,
};
use pgraph::{ColumnarGraph, ColumnsBuilder, PropertyGraph, SymbolTable, Value};

use crate::rules::symschema::SymSchema;

/// An error constructing a [`PgSchema`].
#[derive(Debug)]
pub enum PgSchemaError {
    /// The SDL document did not build (unknown types, bad wrappings, …).
    Build(Vec<gql_schema::Diagnostic>),
    /// The schema is not consistent per Definition 4.5. The paper assumes
    /// consistency; validation over an inconsistent schema is undefined.
    Inconsistent(Vec<consistency::ConsistencyViolation>),
}

impl std::fmt::Display for PgSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgSchemaError::Build(ds) => {
                writeln!(f, "schema failed to build:")?;
                for d in ds {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            PgSchemaError::Inconsistent(vs) => {
                writeln!(f, "schema is inconsistent (Definition 4.5):")?;
                for v in vs {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PgSchemaError {}

/// How a field is classified (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    /// Scalar/enum-based: specifies a node property.
    Attribute,
    /// Object/interface/union-based: specifies outgoing edges.
    Relationship,
}

/// An attribute definition: the field specifies that nodes of the type may
/// have a property with the field's name (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// The property name (= the field name).
    pub name: String,
    /// The property's value type (scalar-based, possibly wrapped).
    pub ty: WrappedType,
    /// True if `@required` applies (DS5).
    pub required: bool,
}

/// A relationship definition: the field specifies that nodes of the type
/// may have outgoing edges with the field's name as label (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct RelationshipDef {
    /// The edge label (= the field name).
    pub name: String,
    /// The field's declared type (object/interface/union base).
    pub ty: WrappedType,
    /// `basetype(ty)` — targets must satisfy `λ(target) ⊑ base`.
    pub target_base: TypeId,
    /// True if the type is a list type → multiple outgoing edges allowed;
    /// false → at most one (WS4).
    pub multi: bool,
    /// `@required` (DS6): at least one outgoing edge per source node.
    pub required: bool,
    /// `@distinct` (DS1): parallel edges collapse.
    pub distinct: bool,
    /// `@noLoops` (DS2): no self-loops.
    pub no_loops: bool,
    /// `@uniqueForTarget` (DS3): targets have at most one incoming edge.
    pub unique_for_target: bool,
    /// `@requiredForTarget` (DS4): targets need at least one incoming edge.
    pub required_for_target: bool,
    /// Edge-property definitions from the field's scalar-based arguments
    /// (§3.5): name, type, and whether the property is mandatory
    /// (non-null argument type).
    pub edge_props: Vec<EdgePropDef>,
}

/// One edge-property definition (a scalar-based field argument, §3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePropDef {
    /// The property name (= the argument name).
    pub name: String,
    /// The property's value type.
    pub ty: WrappedType,
    /// True if the argument type is non-null → the edge property is
    /// mandatory (§3.5: "if the type in the field argument definition is
    /// marked as non-nullable, then the specified edge property is
    /// mandatory").
    pub mandatory: bool,
}

/// A key constraint from `@key(fields: [...])` on an object type (DS7).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyConstraint {
    /// The type the directive is attached to.
    pub site: TypeId,
    /// The property names forming the key.
    pub fields: Vec<String>,
}

/// A `(t, f)` pair carrying relationship directives; `t` may be an object
/// or an interface type. Its constraints apply to every source node whose
/// label is `⊑ t` (and, for DS3/DS4, targets `⊑ typeS(t, f)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintSite {
    /// The type carrying the field definition.
    pub site: TypeId,
    /// The relationship definition (with its directive flags).
    pub rel: RelationshipDef,
}

/// A GraphQL schema interpreted as a Property Graph schema.
#[derive(Debug)]
pub struct PgSchema {
    schema: Schema,
    /// Per object/interface type: classified fields.
    attributes: HashMap<TypeId, Vec<AttributeDef>>,
    relationships: HashMap<TypeId, Vec<RelationshipDef>>,
    /// All directive-bearing relationship sites (objects *and* interfaces).
    constraint_sites: Vec<ConstraintSite>,
    /// All key constraints.
    keys: Vec<KeyConstraint>,
    /// Open-world schemas (PG-Schema `LOOSE`) leave undeclared elements
    /// alone: the strong rule family (SS1–SS4) never runs for them.
    open_world: bool,
    /// The symbol-keyed form the kernels read, built on first use.
    compiled: OnceLock<Compiled>,
}

/// A schema compiled onto its own, schema-only symbol space: every name
/// it mentions interned, one [`SymSchema`] row per symbol. Built once per
/// [`PgSchema`]; each full pass freezes its graph into a clone of
/// `symbols`, so graph-only strings land after the schema's and get the
/// empty row (the `symschema` module docs say why that is sound).
pub(crate) struct Compiled {
    pub(crate) symbols: SymbolTable,
    pub(crate) sym: SymSchema,
}

impl Compiled {
    /// Freezes `g` into this schema's symbol space.
    pub(crate) fn freeze(&self, g: &PropertyGraph) -> ColumnarGraph {
        ColumnarGraph::freeze_into(g, self.symbols.clone())
    }

    /// True when `cols` sit on this schema's symbol space: their table
    /// starts with the schema's names, in order, so every symbol the
    /// compiled schema holds means the same string in the columns.
    pub(crate) fn holds(&self, cols: &ColumnarGraph) -> bool {
        let (ours, theirs) = (&self.symbols, cols.symbols());
        theirs.len() >= ours.len() && ours.strings().zip(theirs.strings()).all(|(a, b)| a == b)
    }
}

impl std::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiled")
            .field("symbols", &self.symbols.len())
            .finish_non_exhaustive()
    }
}

impl PgSchema {
    /// Parses, builds, consistency-checks and classifies an SDL document.
    pub fn from_document(doc: &gql_sdl::ast::Document) -> Result<Self, PgSchemaError> {
        let schema = gql_schema::build_schema(doc).map_err(PgSchemaError::Build)?;
        Self::from_schema(schema)
    }

    /// Convenience: parse SDL text straight into a `PgSchema`.
    pub fn parse(sdl: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let doc = gql_sdl::parse(sdl)?;
        Ok(Self::from_document(&doc)?)
    }

    /// Wraps an already-built schema (must be consistent).
    pub fn from_schema(schema: Schema) -> Result<Self, PgSchemaError> {
        let violations = consistency::check(&schema);
        if !violations.is_empty() {
            return Err(PgSchemaError::Inconsistent(violations));
        }
        let mut attributes = HashMap::new();
        let mut relationships = HashMap::new();
        let mut constraint_sites = Vec::new();
        let mut keys = Vec::new();

        let obj_and_iface: Vec<TypeId> = schema
            .object_types()
            .chain(schema.interface_types())
            .collect();
        for t in obj_and_iface {
            let mut attrs = Vec::new();
            let mut rels = Vec::new();
            for f in schema.fields(t) {
                match classify(&schema, f) {
                    FieldClass::Attribute => attrs.push(AttributeDef {
                        name: f.name.clone(),
                        ty: f.ty,
                        required: has(&f.directives, dir::REQUIRED),
                    }),
                    FieldClass::Relationship => {
                        let rel = RelationshipDef {
                            name: f.name.clone(),
                            ty: f.ty,
                            target_base: f.ty.base,
                            multi: f.ty.is_list(),
                            required: has(&f.directives, dir::REQUIRED),
                            distinct: has(&f.directives, dir::DISTINCT),
                            no_loops: has(&f.directives, dir::NO_LOOPS),
                            unique_for_target: has(&f.directives, dir::UNIQUE_FOR_TARGET),
                            required_for_target: has(&f.directives, dir::REQUIRED_FOR_TARGET),
                            edge_props: f
                                .args
                                .iter()
                                .filter(|a| a.scalar_based)
                                .map(|a| EdgePropDef {
                                    name: a.name.clone(),
                                    ty: a.ty,
                                    mandatory: a.ty.wrap.outer_non_null(),
                                })
                                .collect(),
                        };
                        if rel.distinct
                            || rel.no_loops
                            || rel.unique_for_target
                            || rel.required_for_target
                            || rel.required
                        {
                            constraint_sites.push(ConstraintSite {
                                site: t,
                                rel: rel.clone(),
                            });
                        }
                        rels.push(rel);
                    }
                }
            }
            attributes.insert(t, attrs);
            relationships.insert(t, rels);
            for d in schema.type_directives(t) {
                if d.name == dir::KEY {
                    if let Some(Value::List(items)) = d.arg("fields") {
                        let fields = items
                            .iter()
                            .filter_map(|v| v.as_str().map(str::to_owned))
                            .collect();
                        keys.push(KeyConstraint { site: t, fields });
                    }
                }
            }
        }
        Ok(PgSchema {
            schema,
            attributes,
            relationships,
            constraint_sites,
            keys,
            open_world: false,
            compiled: OnceLock::new(),
        })
    }

    /// A column builder on this schema's symbol space: the columns it
    /// builds go to [`validate_columns`](crate::validate_columns) as they
    /// are, a graph decoded into it never becoming rows.
    pub fn columns_builder(&self) -> ColumnsBuilder {
        ColumnsBuilder::new(self.compiled().symbols.clone())
    }

    /// The schema compiled onto its own symbol space, built by the first
    /// caller and shared by every later one (and every thread).
    pub(crate) fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| {
            let mut symbols = SymbolTable::new();
            let sym = SymSchema::build(self, &mut symbols);
            Compiled { symbols, sym }
        })
    }

    /// Makes the schema open-world (a PG-Schema `LOOSE` graph type).
    /// Schemas are closed-world unless a frontend says otherwise.
    pub fn into_open_world(mut self) -> Self {
        self.open_world = true;
        self
    }

    /// True for an open-world schema: whatever the options select, no
    /// engine runs the strong (closed-world) rule family against it.
    pub fn is_open_world(&self) -> bool {
        self.open_world
    }

    /// The underlying formal schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Attribute definitions of a type (empty for unknown/scalar types).
    pub fn attributes(&self, t: TypeId) -> &[AttributeDef] {
        self.attributes.get(&t).map_or(&[], Vec::as_slice)
    }

    /// Relationship definitions of a type.
    pub fn relationships(&self, t: TypeId) -> &[RelationshipDef] {
        self.relationships.get(&t).map_or(&[], Vec::as_slice)
    }

    /// All directive-bearing relationship sites.
    pub fn constraint_sites(&self) -> &[ConstraintSite] {
        &self.constraint_sites
    }

    /// All key constraints.
    pub fn keys(&self) -> &[KeyConstraint] {
        &self.keys
    }

    /// Resolves a node label to a type id.
    pub fn label_type(&self, label: &str) -> Option<TypeId> {
        self.schema.type_id(label)
    }

    /// True if `label ⊑S t` — the label names a type that is a subtype of
    /// `t` (Definition rules 1–3; labels are named types).
    pub fn label_subtype(&self, label: &str, t: TypeId) -> bool {
        self.label_type(label)
            .is_some_and(|l| subtype::named_subtype(&self.schema, l, t))
    }

    /// True if `label ⊑S ty` for a possibly wrapped `ty` (used by DS3/DS4
    /// where the field type may be `[B]` etc. — rule 5 lets a named type
    /// sit below a list type).
    pub fn label_subtype_wrapped(&self, label: &str, ty: &WrappedType) -> bool {
        self.label_type(label)
            .is_some_and(|l| subtype::wrapped_subtype(&self.schema, &WrappedType::bare(l), ty))
    }

    /// The attribute definition `(t, name)` if `label` is a type with that
    /// attribute field.
    pub fn attribute(&self, label: &str, name: &str) -> Option<&AttributeDef> {
        let t = self.label_type(label)?;
        self.attributes(t).iter().find(|a| a.name == name)
    }

    /// The relationship definition `(t, name)` if `label` is a type with
    /// that relationship field.
    pub fn relationship(&self, label: &str, name: &str) -> Option<&RelationshipDef> {
        let t = self.label_type(label)?;
        self.relationships(t).iter().find(|r| r.name == name)
    }

    /// True if `label` names an object type (SS1).
    pub fn is_object_label(&self, label: &str) -> bool {
        self.label_type(label)
            .is_some_and(|t| self.schema.is_object(t))
    }

    /// Renders a wrapped type for reports.
    pub fn display_type(&self, ty: &WrappedType) -> String {
        self.schema.display_type(ty)
    }
}

/// §3.1: attribute definitions have scalar/enum (possibly list-wrapped)
/// types; relationship definitions have object/interface/union types.
pub(crate) fn classify(schema: &Schema, f: &FieldInfo) -> FieldClass {
    if schema.is_scalar(f.ty.base) {
        FieldClass::Attribute
    } else {
        FieldClass::Relationship
    }
}

fn has(directives: &[AppliedDirective], name: &str) -> bool {
    directives.iter().any(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pg(src: &str) -> PgSchema {
        PgSchema::parse(src).unwrap()
    }

    #[test]
    fn example_3_2_classification() {
        let s = pg(r#"
            type UserSession {
                id: ID! @required
                user: User! @required
                startTime: Time! @required
                endTime: Time!
            }
            type User { id: ID! login: String! nicknames: [String!]! }
            scalar Time
            "#);
        let session = s.label_type("UserSession").unwrap();
        let attrs: Vec<_> = s
            .attributes(session)
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(attrs, vec!["id", "startTime", "endTime"]);
        let rels: Vec<_> = s
            .relationships(session)
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(rels, vec!["user"]);
        let user_rel = &s.relationships(session)[0];
        assert!(!user_rel.multi);
        assert!(user_rel.required);
        assert_eq!(s.schema().type_name(user_rel.target_base), "User");
    }

    #[test]
    fn example_3_6_cardinalities() {
        let s = pg(r#"
            type Author {
                favoriteBook: Book
                relatedAuthor: [Author]
            }
            type Book {
                title: String!
                author: [Author] @required
            }
            "#);
        let author = s.label_type("Author").unwrap();
        let fav = &s.relationships(author)[0];
        assert!(!fav.multi && !fav.required);
        let rel = &s.relationships(author)[1];
        assert!(rel.multi && !rel.required);
        let book = s.label_type("Book").unwrap();
        let a = &s.relationships(book)[0];
        assert!(a.multi && a.required);
    }

    #[test]
    fn directive_flags_are_read() {
        let s = pg(r#"
            type BookSeries { contains: [Book] @required @uniqueForTarget @distinct }
            type Book { title: String! }
            type Author { relatedAuthor: [Author] @distinct @noloops }
            type Publisher { published: [Book] @uniqueForTarget @requiredForTarget }
            "#);
        let series = s.label_type("BookSeries").unwrap();
        let c = &s.relationships(series)[0];
        assert!(c.required && c.unique_for_target && c.distinct);
        let author = s.label_type("Author").unwrap();
        let r = &s.relationships(author)[0];
        assert!(r.distinct && r.no_loops);
        let publisher = s.label_type("Publisher").unwrap();
        let p = &s.relationships(publisher)[0];
        assert!(p.unique_for_target && p.required_for_target && !p.required);
        assert_eq!(s.constraint_sites().len(), 3);
    }

    #[test]
    fn edge_properties_from_example_3_12() {
        let s = pg(r#"
            type UserSession {
                user(certainty: Float! comment: String): User! @required
            }
            type User { id: ID! }
            "#);
        let rel = s.relationship("UserSession", "user").unwrap();
        assert_eq!(rel.edge_props.len(), 2);
        assert!(rel.edge_props[0].mandatory); // certainty: Float!
        assert!(!rel.edge_props[1].mandatory); // comment: String
    }

    #[test]
    fn keys_from_example_3_4() {
        let s = pg(r#"type User @key(fields: ["id"]) @key(fields: ["login"]) {
                id: ID! @required
                login: String! @required
            }"#);
        assert_eq!(s.keys().len(), 2);
        assert_eq!(s.keys()[0].fields, vec!["id"]);
        assert_eq!(s.keys()[1].fields, vec!["login"]);
    }

    #[test]
    fn interface_sites_are_constraint_sites() {
        // Example 6.1, adjusted: the paper prints the interface field as
        // `hasOT1: OT1`, but then `[OT1] ⊑ OT1` would be required by
        // Definition 4.3 and is not derivable — the example as printed is
        // interface-inconsistent. Using `[OT1]` on the interface preserves
        // the intended satisfiability conflict (see pg-reason fixtures).
        let s = pg(r#"
            type OT1 { }
            interface IT { hasOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
            type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
            "#);
        // Sites: IT (unique), OT2 (requiredForTarget), OT3 (requiredForTarget).
        assert_eq!(s.constraint_sites().len(), 3);
        let it = s.label_type("IT").unwrap();
        assert!(s.label_subtype("OT2", it));
        assert!(s.label_subtype("OT3", it));
        assert!(!s.label_subtype("OT1", it));
    }

    #[test]
    fn label_subtype_wrapped_handles_lists() {
        let s = pg(r#"
            type A { bs: [B] }
            type B { x: Int }
            "#);
        let a = s.label_type("A").unwrap();
        let rel = &s.relationships(a)[0];
        assert!(s.label_subtype_wrapped("B", &rel.ty));
        assert!(!s.label_subtype_wrapped("A", &rel.ty));
        assert!(!s.label_subtype_wrapped("Nope", &rel.ty));
    }

    #[test]
    fn inconsistent_schema_is_rejected() {
        let err =
            PgSchema::parse("interface I { f: Int } type T implements I { g: Int }").unwrap_err();
        assert!(err.to_string().contains("inconsistent"));
    }

    #[test]
    fn union_typed_fields_are_relationships() {
        let s = pg(r#"
            type Person { favoriteFood: Food name: String! }
            union Food = Pizza | Pasta
            type Pizza { name: String! }
            type Pasta { name: String! }
            "#);
        let rel = s.relationship("Person", "favoriteFood").unwrap();
        assert_eq!(s.schema().type_name(rel.target_base), "Food");
        assert!(s.label_subtype_wrapped("Pizza", &rel.ty));
        assert!(s.label_subtype_wrapped("Pasta", &rel.ty));
        assert!(!s.label_subtype_wrapped("Person", &rel.ty));
    }

    #[test]
    fn is_object_label() {
        let s = pg("type A { x: Int } interface I { x: Int } union U = A");
        assert!(s.is_object_label("A"));
        assert!(!s.is_object_label("I"));
        assert!(!s.is_object_label("U"));
        assert!(!s.is_object_label("Int"));
        assert!(!s.is_object_label("Ghost"));
    }
}
