//! Lowering: PG-Schema AST → SDL document → [`PgSchema`].
//!
//! The compiler translates the PG-Schema subset into an SDL
//! [`Document`] — the structure both languages share — and builds the
//! *existing* schema core from it with [`PgSchema::from_document`], the
//! same call the SDL frontend ends in, so every engine, metric and
//! durability path works for PG-Schema inputs with zero kernel changes.
//! A `LOOSE` graph type marks the schema open-world. The document is
//! printed exactly once, as [`Compiled::sdl`], for persistence; nothing
//! in this crate reads that text back. The lowering table (DESIGN
//! §PG-Schema frontend):
//!
//! | PG-Schema                        | SDL                              |
//! |----------------------------------|----------------------------------|
//! | `name T`                         | `name: T! @required`             |
//! | `OPTIONAL name T`                | `name: T!`                       |
//! | `name T ARRAY`                   | `name: [T!]! @required`          |
//! | `OPTIONAL name T ARRAY`          | `name: [T!]!`                    |
//! | `ABSTRACT (L {…})`               | `interface L {…}`                |
//! | `(: P & L {…})`                  | `type L implements P {…}`        |
//! | edge, `OUTGOING 0..1`            | `label: Tgt`                     |
//! | edge, `OUTGOING 1..1`            | `label: Tgt! @required`          |
//! | edge, `OUTGOING 0..*` (default)  | `label: [Tgt]`                   |
//! | edge, `OUTGOING 1..*`            | `label: [Tgt] @required`         |
//! | `INCOMING 0..1`                  | `@uniqueForTarget`               |
//! | `INCOMING 1..*`                  | `@requiredForTarget`             |
//! | `INCOMING 1..1`                  | both of the above                |
//! | `DISTINCT` / `NO LOOPS`          | `@distinct` / `@noLoops`         |
//! | edge prop `p T` / `OPTIONAL p T` | argument `p: T!` / `p: T`        |
//! | `FOR (x : L) KEY x.a, x.b`       | `@key(fields: ["a", "b"])` on L  |
//!
//! Constructs outside the subset (per-type `OPEN`, other cardinality
//! bounds, inheritance between abstract types) fail with explicit
//! [`ParseErrorKind::UnsupportedConstruct`] errors carrying spans.

use std::collections::HashMap;

use gql_schema::directives as dir;
use gql_sdl::ast::{
    ConstValue, Definition, DirectiveUse, Document, FieldDef, InputValueDef, InterfaceTypeDef,
    ObjectTypeDef, ScalarTypeDef, Type, TypeDef,
};
use gql_sdl::{ParseError, ParseErrorKind};
use pg_schema::PgSchema;

use crate::ast::{Cardinality, EdgeType, GraphType, NodeType, PropDef, TypeMode};
use crate::token::{Pos, Span};

/// The five SDL builtin scalars and their PG-Schema keyword spellings.
/// Any other property type name is carried verbatim as a custom scalar.
pub const SCALAR_MAP: &[(&str, &str)] = &[
    ("STRING", "String"),
    ("INT", "Int"),
    ("FLOAT", "Float"),
    ("BOOL", "Boolean"),
    ("BOOLEAN", "Boolean"),
    ("ID", "ID"),
];

/// A compiled PG-Schema document: the lowered SDL document, its
/// canonical text (pragma line first — see [`crate::pragma_line`]), and
/// the schema the validation engines consume.
#[derive(Debug)]
pub struct Compiled {
    /// The schema, identical in behaviour to one built from SDL.
    pub schema: PgSchema,
    /// The lowered SDL document.
    pub document: Document,
    /// Canonical lowered SDL text, first line the language pragma. This
    /// is the form sessions persist (WAL, snapshots, replication);
    /// [`crate::parse_persisted`] reads it back into an equal schema, so
    /// a PG-Schema session rehydrates with the same semantics anywhere.
    pub sdl: String,
    /// The graph type's mode; `Loose` makes `schema` open-world.
    pub mode: TypeMode,
    /// The graph type's name (SDL has no equivalent; kept for tooling).
    pub name: String,
}

/// Compiles PG-Schema source text.
pub fn compile(source: &str) -> Result<Compiled, ParseError> {
    lower(&crate::parser::parse(source)?)
}

/// Lowers a parsed graph type.
pub fn lower(gt: &GraphType) -> Result<Compiled, ParseError> {
    Lowerer::new(gt)?.run()
}

fn err(kind: ParseErrorKind, span: Span) -> ParseError {
    ParseError::new(kind, span.start)
}

fn unsupported(what: impl Into<String>, span: Span) -> ParseError {
    err(ParseErrorKind::UnsupportedConstruct(what.into()), span)
}

fn invalid(what: impl Into<String>, span: Span) -> ParseError {
    err(ParseErrorKind::Invalid(what.into()), span)
}

fn span0() -> gql_sdl::Span {
    gql_sdl::Span::at(Pos::start())
}

fn mark(name: &str) -> DirectiveUse {
    DirectiveUse {
        name: name.to_owned(),
        args: Vec::new(),
        span: span0(),
    }
}

/// One resolved node: its label, supertypes, and declaration.
struct Resolved<'a> {
    node: &'a NodeType,
    label: String,
    parents: Vec<String>,
}

struct Lowerer<'a> {
    gt: &'a GraphType,
    nodes: Vec<Resolved<'a>>,
    /// label → (index into `nodes`, is_abstract)
    by_label: HashMap<String, (usize, bool)>,
    /// Custom scalar names in first-use order.
    scalars: Vec<String>,
    /// label → its edges, in declaration order.
    edges: HashMap<String, Vec<&'a EdgeType>>,
}

impl<'a> Lowerer<'a> {
    /// Resolves label conjunctions. Conjuncts naming a previously
    /// declared node type are supertype references (the referent must be
    /// `ABSTRACT`); exactly one conjunct must be fresh — it becomes the
    /// label, which doubles as the SDL type name.
    fn new(gt: &'a GraphType) -> Result<Self, ParseError> {
        let mut nodes = Vec::new();
        let mut by_label: HashMap<String, (usize, bool)> = HashMap::new();
        for node in &gt.nodes {
            if node.open {
                return Err(unsupported(
                    "a per-type OPEN marker (make the whole graph type LOOSE instead)",
                    node.span,
                ));
            }
            let mut parents = Vec::new();
            let mut fresh = Vec::new();
            for l in &node.labels {
                match by_label.get(l) {
                    Some((_, true)) => parents.push(l.clone()),
                    Some((_, false)) => {
                        return Err(invalid(
                            format!(
                                "label `{l}` names a non-abstract node type; only \
                                 ABSTRACT types can appear as extra conjuncts"
                            ),
                            node.span,
                        ))
                    }
                    None => fresh.push(l.clone()),
                }
            }
            let label = match fresh.len() {
                1 => fresh.remove(0),
                0 => {
                    return Err(invalid(
                        format!(
                            "node type `{}` declares no new label — every conjunct \
                             names an existing type",
                            node.labels.join(" & ")
                        ),
                        node.span,
                    ))
                }
                _ => {
                    return Err(invalid(
                        format!(
                            "label conjunction `{}` declares {} new labels; exactly \
                             one conjunct may be new, the rest must name previously \
                             declared ABSTRACT types",
                            node.labels.join(" & "),
                            fresh.len()
                        ),
                        node.span,
                    ))
                }
            };
            if node.is_abstract && !parents.is_empty() {
                return Err(unsupported(
                    "an ABSTRACT node type inheriting other types (SDL interfaces \
                     cannot implement interfaces)",
                    node.span,
                ));
            }
            by_label.insert(label.clone(), (nodes.len(), node.is_abstract));
            nodes.push(Resolved {
                node,
                label,
                parents,
            });
        }
        Ok(Lowerer {
            gt,
            nodes,
            by_label,
            scalars: Vec::new(),
            edges: HashMap::new(),
        })
    }

    fn run(mut self) -> Result<Compiled, ParseError> {
        self.index_edges()?;
        let mut definitions = Vec::new();
        for i in 0..self.nodes.len() {
            definitions.push(self.lower_node(i)?);
        }
        self.attach_keys(&mut definitions)?;
        for s in &self.scalars {
            definitions.push(Definition::Type(TypeDef::Scalar(ScalarTypeDef {
                description: None,
                name: s.clone(),
                directives: Vec::new(),
                span: span0(),
            })));
        }
        let document = Document { definitions };
        let mut schema = PgSchema::from_document(&document).map_err(|e| {
            invalid(
                format!("lowered schema rejected by the SDL core: {e}"),
                self.gt.span,
            )
        })?;
        if self.gt.mode == TypeMode::Loose {
            schema = schema.into_open_world();
        }
        let sdl = format!(
            "{}\n{}",
            crate::pragma_line(self.gt.mode),
            gql_sdl::print_document(&document)
        );
        Ok(Compiled {
            schema,
            document,
            sdl,
            mode: self.gt.mode,
            name: self.gt.name.clone(),
        })
    }

    fn index_edges(&mut self) -> Result<(), ParseError> {
        for edge in &self.gt.edges {
            for endpoint in [&edge.source, &edge.target] {
                if !self.by_label.contains_key(endpoint) {
                    return Err(invalid(
                        format!("edge endpoint `{endpoint}` is not a declared node type"),
                        edge.span,
                    ));
                }
            }
            let sibs = self.edges.entry(edge.source.clone()).or_default();
            if sibs.iter().any(|e| e.label == edge.label) {
                return Err(invalid(
                    format!(
                        "duplicate edge label `{}` on source `{}`",
                        edge.label, edge.source
                    ),
                    edge.span,
                ));
            }
            sibs.push(edge);
        }
        Ok(())
    }

    fn scalar(&mut self, prop: &PropDef) -> String {
        for (kw, sdl) in SCALAR_MAP {
            if prop.ty == *kw {
                return (*sdl).to_owned();
            }
        }
        if !self.scalars.contains(&prop.ty) {
            self.scalars.push(prop.ty.clone());
        }
        prop.ty.clone()
    }

    /// `name T` → `name: T! @required`; `OPTIONAL name T` → `name: T!`;
    /// `ARRAY` wraps as `[T!]!`. The non-null inner/outer wrapping means
    /// a present property value must conform to the scalar (no nulls),
    /// while presence itself is governed by `@required` — exactly the
    /// paper's reading of mandatory vs optional properties.
    fn node_prop(&mut self, prop: &PropDef) -> FieldDef {
        let base = Type::NonNull(Box::new(Type::Named(self.scalar(prop))));
        let ty = if prop.array {
            Type::NonNull(Box::new(Type::List(Box::new(base))))
        } else {
            base
        };
        FieldDef {
            description: None,
            name: prop.name.clone(),
            args: Vec::new(),
            ty,
            directives: if prop.optional {
                Vec::new()
            } else {
                vec![mark(dir::REQUIRED)]
            },
            span: span0(),
        }
    }

    /// Edge properties become field arguments; §3.5 marks a property
    /// mandatory iff the argument's outer type is non-null.
    fn edge_prop(&mut self, prop: &PropDef) -> InputValueDef {
        let inner = Type::NonNull(Box::new(Type::Named(self.scalar(prop))));
        let ty = match (prop.array, prop.optional) {
            (false, false) => inner,
            (false, true) => Type::Named(self.scalar(prop)),
            (true, false) => Type::NonNull(Box::new(Type::List(Box::new(inner)))),
            (true, true) => Type::List(Box::new(inner)),
        };
        InputValueDef {
            description: None,
            name: prop.name.clone(),
            ty,
            default: None,
            directives: Vec::new(),
            span: span0(),
        }
    }

    fn edge_field(&mut self, edge: &EdgeType) -> Result<FieldDef, ParseError> {
        let target = Type::Named(edge.target.clone());
        let out = edge.outgoing.unwrap_or(Cardinality {
            min: 0,
            max: None,
            span: edge.span,
        });
        let (ty, required) = match (out.min, out.max) {
            (0, Some(1)) => (target, false),
            (1, Some(1)) => (Type::NonNull(Box::new(target)), true),
            (0, None) => (Type::List(Box::new(target)), false),
            (1, None) => (Type::List(Box::new(target)), true),
            (min, max) => {
                return Err(unsupported(
                    format!(
                        "OUTGOING cardinality {min}..{} (supported: 0..1, 1..1, 0..*, 1..*)",
                        max.map_or("*".to_owned(), |m| m.to_string())
                    ),
                    out.span,
                ))
            }
        };
        let mut directives = Vec::new();
        if required {
            directives.push(mark(dir::REQUIRED));
        }
        if edge.distinct {
            directives.push(mark(dir::DISTINCT));
        }
        if edge.no_loops {
            directives.push(mark(dir::NO_LOOPS));
        }
        if let Some(inc) = edge.incoming {
            match (inc.min, inc.max) {
                (0, None) => {}
                (0, Some(1)) => directives.push(mark(dir::UNIQUE_FOR_TARGET)),
                (1, None) => directives.push(mark(dir::REQUIRED_FOR_TARGET)),
                (1, Some(1)) => {
                    directives.push(mark(dir::UNIQUE_FOR_TARGET));
                    directives.push(mark(dir::REQUIRED_FOR_TARGET));
                }
                (min, max) => {
                    return Err(unsupported(
                        format!(
                            "INCOMING cardinality {min}..{} (supported: 0..1, 1..1, 0..*, 1..*)",
                            max.map_or("*".to_owned(), |m| m.to_string())
                        ),
                        inc.span,
                    ))
                }
            }
        }
        let args = edge.props.iter().map(|p| self.edge_prop(p)).collect();
        Ok(FieldDef {
            description: None,
            name: edge.label.clone(),
            args,
            ty,
            directives,
            span: span0(),
        })
    }

    /// The fields a type contributes: its props, then its edges.
    fn own_fields(&mut self, i: usize) -> Result<Vec<FieldDef>, ParseError> {
        let props = self.nodes[i].node.props.clone();
        let label = self.nodes[i].label.clone();
        let mut fields: Vec<FieldDef> = props.iter().map(|p| self.node_prop(p)).collect();
        let edges: Vec<EdgeType> = self
            .edges
            .get(&label)
            .map(|es| es.iter().map(|e| (*e).clone()).collect())
            .unwrap_or_default();
        for edge in &edges {
            fields.push(self.edge_field(edge)?);
        }
        Ok(fields)
    }

    fn lower_node(&mut self, i: usize) -> Result<Definition, ParseError> {
        let label = self.nodes[i].label.clone();
        let parents = self.nodes[i].parents.clone();
        let is_abstract = self.nodes[i].node.is_abstract;
        let own = self.own_fields(i)?;
        if is_abstract {
            return Ok(Definition::Type(TypeDef::Interface(InterfaceTypeDef {
                description: None,
                name: label,
                directives: Vec::new(),
                fields: own,
                span: span0(),
            })));
        }
        // SDL requires implementors to redeclare every interface field:
        // inherited copies come first (in parent order), with same-named
        // own fields — overrides, e.g. a subtype tightening an edge
        // cardinality — substituted in place.
        let mut fields: Vec<FieldDef> = Vec::new();
        for p in &parents {
            let pi = self.by_label[p].0;
            for f in self.own_fields(pi)? {
                match own.iter().find(|o| o.name == f.name) {
                    Some(over) => fields.push(over.clone()),
                    None => fields.push(f),
                }
            }
        }
        for f in own {
            if !fields.iter().any(|g| g.name == f.name) {
                fields.push(f);
            }
        }
        Ok(Definition::Type(TypeDef::Object(ObjectTypeDef {
            description: None,
            name: label,
            implements: parents,
            directives: Vec::new(),
            fields,
            span: span0(),
        })))
    }

    fn attach_keys(&self, definitions: &mut [Definition]) -> Result<(), ParseError> {
        for key in &self.gt.keys {
            let Some((i, _)) = self.by_label.get(&key.label) else {
                return Err(invalid(
                    format!("KEY constraint names undeclared node type `{}`", key.label),
                    key.span,
                ));
            };
            let fields = ConstValue::List(
                key.fields
                    .iter()
                    .map(|f| ConstValue::String(f.clone()))
                    .collect(),
            );
            let use_ = DirectiveUse {
                name: dir::KEY.to_owned(),
                args: vec![("fields".to_owned(), fields)],
                span: span0(),
            };
            match &mut definitions[*i] {
                Definition::Type(TypeDef::Object(o)) => o.directives.push(use_),
                Definition::Type(TypeDef::Interface(d)) => d.directives.push(use_),
                _ => unreachable!("node indices point at object/interface defs"),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdl_of(src: &str) -> String {
        let c = compile(src).unwrap();
        c.sdl
    }

    #[test]
    fn the_four_property_shapes() {
        let sdl = sdl_of(
            "CREATE GRAPH TYPE G {\n\
               (Person {\n\
                 name STRING,\n\
                 OPTIONAL nick STRING,\n\
                 tags STRING ARRAY,\n\
                 OPTIONAL alts STRING ARRAY\n\
               })\n\
             }",
        );
        assert!(sdl.contains("name: String! @required"), "{sdl}");
        assert!(sdl.contains("nick: String!\n"), "{sdl}");
        assert!(sdl.contains("tags: [String!]! @required"), "{sdl}");
        assert!(sdl.contains("alts: [String!]!\n"), "{sdl}");
    }

    #[test]
    fn edge_cardinalities_and_clauses() {
        let sdl = sdl_of(
            "CREATE GRAPH TYPE G {\n\
               (A), (B),\n\
               (:A)-[:one]->(:B) OUTGOING 0..1,\n\
               (:A)-[:must]->(:B) OUTGOING 1..1,\n\
               (:A)-[:many]->(:B),\n\
               (:A)-[:some]->(:B) OUTGOING 1..* DISTINCT NO LOOPS INCOMING 1..1\n\
             }",
        );
        assert!(sdl.contains("one: B\n"), "{sdl}");
        assert!(sdl.contains("must: B! @required"), "{sdl}");
        assert!(sdl.contains("many: [B]\n"), "{sdl}");
        assert!(
            sdl.contains(
                "some: [B] @required @distinct @noLoops @uniqueForTarget @requiredForTarget"
            ),
            "{sdl}"
        );
    }

    #[test]
    fn edge_props_become_arguments() {
        let sdl = sdl_of(
            "CREATE GRAPH TYPE G {\n\
               (A), (B),\n\
               (:A)-[:r { weight FLOAT, OPTIONAL note STRING }]->(:B)\n\
             }",
        );
        assert!(
            sdl.contains("r(weight: Float!, note: String): [B]"),
            "{sdl}"
        );
    }

    #[test]
    fn abstract_types_lower_to_interfaces_with_field_copies() {
        let c = compile(
            "CREATE GRAPH TYPE G {\n\
               ABSTRACT (Message { body STRING }),\n\
               (: Message & Post { title STRING }),\n\
               (U)\n\
             }",
        )
        .unwrap();
        assert!(c.sdl.contains("interface Message {"), "{}", c.sdl);
        assert!(
            c.sdl.contains("type Post implements Message {"),
            "{}",
            c.sdl
        );
        // The implementor redeclares the inherited field before its own.
        let post = c.sdl.split("type Post").nth(1).unwrap();
        let body_at = post.find("body: String!").unwrap();
        let title_at = post.find("title: String!").unwrap();
        assert!(body_at < title_at);
    }

    #[test]
    fn subtype_edge_overrides_the_inherited_one() {
        let sdl = sdl_of(
            "CREATE GRAPH TYPE G {\n\
               (T),\n\
               ABSTRACT (IT),\n\
               (: IT & O),\n\
               (:IT)-[:f]->(:T) INCOMING 0..1,\n\
               (:O)-[:f]->(:T) INCOMING 1..*\n\
             }",
        );
        let iface = sdl.split("interface IT").nth(1).unwrap();
        assert!(iface.contains("f: [T] @uniqueForTarget"), "{sdl}");
        let obj = sdl.split("type O implements IT").nth(1).unwrap();
        assert!(obj.contains("f: [T] @requiredForTarget"), "{sdl}");
    }

    #[test]
    fn keys_and_custom_scalars() {
        let sdl = sdl_of(
            "CREATE GRAPH TYPE G {\n\
               (S { id ID, at Time }),\n\
               FOR (x : S) KEY x.id\n\
             }",
        );
        assert!(sdl.contains("type S @key(fields: [\"id\"])"), "{sdl}");
        assert!(sdl.contains("at: Time! @required"), "{sdl}");
        assert!(sdl.contains("scalar Time"), "{sdl}");
    }

    #[test]
    fn the_pragma_is_the_first_line_and_survives_reparsing() {
        let c = compile("CREATE GRAPH TYPE G LOOSE { (A { x STRING }) }").unwrap();
        assert!(c.sdl.starts_with(crate::PRAGMA_PREFIX), "{}", c.sdl);
        assert_eq!(c.mode, TypeMode::Loose);
        assert!(c.schema.is_open_world());
        // The pragma rides in the SDL as a comment; the persisted-text
        // reader recovers the mode from it.
        assert!(crate::parse_persisted(&c.sdl).unwrap().is_open_world());
        let strict = compile("CREATE GRAPH TYPE G { (A { x STRING }) }").unwrap();
        assert!(!strict.schema.is_open_world());
        assert!(!crate::parse_persisted(&strict.sdl).unwrap().is_open_world());
    }

    #[test]
    fn open_marker_is_rejected_with_policy_message() {
        let e = compile("CREATE GRAPH TYPE G { (A OPEN { x STRING }) }").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnsupportedConstruct(_)));
        assert!(e.to_string().contains("LOOSE"), "{e}");
    }

    #[test]
    fn out_of_range_cardinality_is_rejected_with_span() {
        let e = compile("CREATE GRAPH TYPE G {\n  (A), (B),\n  (:A)-[:r]->(:B) OUTGOING 2..5\n}")
            .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnsupportedConstruct(_)));
        assert_eq!(e.pos.line, 3);
    }

    #[test]
    fn unknown_endpoints_and_duplicate_labels_are_invalid() {
        let e = compile("CREATE GRAPH TYPE G { (A), (:A)-[:r]->(:Nope) }").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Invalid(_)));
        let e = compile("CREATE GRAPH TYPE G { (A), (B), (: A & B) }").unwrap_err();
        assert!(e.to_string().contains("non-abstract"), "{e}");
    }

    #[test]
    fn validation_goes_through_the_existing_core() {
        use pgraph::PropertyGraph;
        let c = compile(
            "CREATE GRAPH TYPE G {\n\
               (Person { name STRING })\n\
             }",
        )
        .unwrap();
        let mut g = PropertyGraph::new();
        g.add_node("Person"); // missing mandatory `name`
        let report = pg_schema::validate(&g, &c.schema, &pg_schema::ValidationOptions::default());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.to_string().contains("name")));
    }
}
