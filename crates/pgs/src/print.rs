//! Rendering SDL documents as PG-Schema — the reverse of [`crate::lower`].
//!
//! The printer covers exactly the *overlapping fragment*: the canonical
//! shapes the lowering table produces. On that fragment it is lossless —
//! `lower ∘ print` reproduces the same classified schema, which is what
//! the translation-parity suite asserts (byte-identical canonical
//! reports across languages on all engines). Everything outside the
//! fragment fails with an explicit [`PrintError`] naming the construct
//! and the documented policy, never a silent approximation: a silently
//! altered wrap shape would change the `expected` strings embedded in
//! violation reports and break parity.

use std::collections::{HashMap, HashSet};

use gql_schema::directives as dir;
use gql_sdl::ast::{ConstValue, Definition, Document, FieldDef, InputValueDef, Type, TypeDef};

use crate::ast::TypeMode;
use crate::lower::SCALAR_MAP;

/// A construct the PG-Schema fragment cannot represent.
#[derive(Debug, Clone, PartialEq)]
pub struct PrintError {
    /// What could not be rendered, and why.
    pub message: String,
}

impl std::fmt::Display for PrintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} — outside the PG-Schema fragment (DESIGN §PG-Schema frontend)",
            self.message
        )
    }
}

impl std::error::Error for PrintError {}

fn bail<T>(message: impl Into<String>) -> Result<T, PrintError> {
    Err(PrintError {
        message: message.into(),
    })
}

/// Renders `doc` as a `CREATE GRAPH TYPE` statement named `name`.
///
/// `mode` selects the printed type mode; pass the mode recovered from a
/// pragma ([`crate::pragma_of`]) to round-trip a lowered document, or
/// [`TypeMode::Strict`] for plain SDL.
pub fn print_pgschema(doc: &Document, name: &str, mode: TypeMode) -> Result<String, PrintError> {
    Printer::new(doc)?.run(name, mode)
}

/// Scalar name SDL → PG-Schema keyword; custom scalars pass verbatim.
fn scalar_keyword(sdl_name: &str) -> String {
    for (kw, sdl) in SCALAR_MAP {
        // BOOL is the canonical spelling for Boolean (BOOLEAN also parses).
        if *sdl == sdl_name && *kw != "BOOLEAN" {
            return (*kw).to_owned();
        }
    }
    sdl_name.to_owned()
}

struct Printer<'a> {
    doc: &'a Document,
    /// Object/interface names — relationship targets must be one.
    node_names: HashSet<&'a str>,
    /// Interface name → its fields (for inherited-copy elision).
    interfaces: HashMap<&'a str, &'a [FieldDef]>,
}

impl<'a> Printer<'a> {
    fn new(doc: &'a Document) -> Result<Self, PrintError> {
        let mut node_names = HashSet::new();
        let mut interfaces = HashMap::new();
        for d in &doc.definitions {
            match d {
                Definition::Type(TypeDef::Object(o)) => {
                    node_names.insert(o.name.as_str());
                }
                Definition::Type(TypeDef::Interface(i)) => {
                    node_names.insert(i.name.as_str());
                    interfaces.insert(i.name.as_str(), i.fields.as_slice());
                }
                Definition::Type(TypeDef::Scalar(_)) => {}
                Definition::Type(t) => {
                    return bail(format!(
                        "{} type `{}`",
                        match t {
                            TypeDef::Union(_) => "union",
                            TypeDef::Enum(_) => "enum",
                            TypeDef::InputObject(_) => "input",
                            _ => unreachable!(),
                        },
                        t.name()
                    ))
                }
                Definition::Schema(_) => return bail("a `schema` block"),
                Definition::Extend(t) => return bail(format!("`extend type {}`", t.name())),
                Definition::Directive(d) => {
                    return bail(format!("directive definition `@{}`", d.name))
                }
            }
        }
        Ok(Printer {
            doc,
            node_names,
            interfaces,
        })
    }

    fn run(&self, name: &str, mode: TypeMode) -> Result<String, PrintError> {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut keys = Vec::new();
        for d in &self.doc.definitions {
            let (type_name, is_abstract, implements, fields, directives) = match d {
                Definition::Type(TypeDef::Object(o)) => (
                    o.name.as_str(),
                    false,
                    o.implements.as_slice(),
                    o.fields.as_slice(),
                    o.directives.as_slice(),
                ),
                Definition::Type(TypeDef::Interface(i)) => (
                    i.name.as_str(),
                    true,
                    [].as_slice(),
                    i.fields.as_slice(),
                    i.directives.as_slice(),
                ),
                _ => continue,
            };
            let mut props = Vec::new();
            for f in fields {
                if self.inherited_copy(implements, f) {
                    continue;
                }
                if self.is_relationship(f) {
                    edges.push(self.edge(type_name, f)?);
                } else {
                    props.push(self.prop(type_name, f)?);
                }
            }
            for du in directives {
                if du.name == dir::KEY {
                    keys.push(self.key(type_name, du)?);
                } else {
                    return bail(format!("directive `@{}` on type `{type_name}`", du.name));
                }
            }
            let head = if implements.is_empty() {
                type_name.to_owned()
            } else {
                format!(": {} & {}", implements.join(" & "), type_name)
            };
            let head = if is_abstract {
                format!("ABSTRACT ({head}")
            } else {
                format!("({head}")
            };
            if props.is_empty() {
                nodes.push(format!("    {head})"));
            } else {
                nodes.push(format!(
                    "    {head} {{\n        {}\n    }})",
                    props.join(",\n        ")
                ));
            }
        }
        let mut out = format!("CREATE GRAPH TYPE {name} {} {{\n", keyword(mode));
        let elements: Vec<String> = nodes.into_iter().chain(edges).chain(keys).collect();
        out.push_str(&elements.join(",\n"));
        out.push_str("\n}\n");
        Ok(out)
    }

    /// True if `f` is byte-for-byte (modulo spans) one of the fields an
    /// implemented interface declares — the redeclared copy SDL requires,
    /// which PG-Schema expresses by inheritance and must not re-print.
    fn inherited_copy(&self, implements: &[String], f: &FieldDef) -> bool {
        implements.iter().any(|i| {
            self.interfaces
                .get(i.as_str())
                .is_some_and(|fs| fs.iter().any(|g| fields_eq(f, g)))
        })
    }

    fn is_relationship(&self, f: &FieldDef) -> bool {
        self.node_names.contains(f.ty.base_name())
    }

    /// One property: the four canonical shapes of the lowering table.
    fn prop(&self, type_name: &str, f: &FieldDef) -> Result<String, PrintError> {
        let at = format!("field `{type_name}.{}`", f.name);
        if !f.args.is_empty() {
            return bail(format!("{at}: arguments on a scalar-typed field"));
        }
        let mut required = false;
        for du in &f.directives {
            if du.name == dir::REQUIRED && du.args.is_empty() {
                required = true;
            } else {
                return bail(format!("{at}: directive `@{}`", du.name));
            }
        }
        let (ty, array) = match &f.ty {
            Type::NonNull(inner) => match &**inner {
                Type::Named(n) => (n, false),
                Type::List(item) => match &**item {
                    Type::NonNull(base) => match &**base {
                        Type::Named(n) => (n, true),
                        _ => return bail(format!("{at}: type `{}`", f.ty)),
                    },
                    _ => return bail(format!("{at}: type `{}`", f.ty)),
                },
                _ => return bail(format!("{at}: type `{}`", f.ty)),
            },
            _ => {
                return bail(format!(
                    "{at}: type `{}` (properties must be `T!` or `[T!]!`)",
                    f.ty
                ))
            }
        };
        let mut line = String::new();
        if !required {
            line.push_str("OPTIONAL ");
        }
        line.push_str(&f.name);
        line.push(' ');
        line.push_str(&scalar_keyword(ty));
        if array {
            line.push_str(" ARRAY");
        }
        Ok(line)
    }

    /// One edge element from a relationship field.
    fn edge(&self, type_name: &str, f: &FieldDef) -> Result<String, PrintError> {
        let at = format!("field `{type_name}.{}`", f.name);
        let mut required = false;
        let mut distinct = false;
        let mut no_loops = false;
        let mut unique = false;
        let mut required_for_target = false;
        for du in &f.directives {
            if !du.args.is_empty() {
                return bail(format!("{at}: directive `@{}` with arguments", du.name));
            }
            match du.name.as_str() {
                dir::REQUIRED => required = true,
                dir::DISTINCT => distinct = true,
                // The paper writes both @noloops (§3) and @noLoops (§4.3).
                dir::NO_LOOPS | "noloops" => no_loops = true,
                dir::UNIQUE_FOR_TARGET => unique = true,
                dir::REQUIRED_FOR_TARGET => required_for_target = true,
                other => return bail(format!("{at}: directive `@{other}`")),
            }
        }
        // A relationship's outgoing cardinality is list-ness (WS4) ×
        // `@required` (DS6), and `1..1` reads back as `T! @required`,
        // `0..1` as `T`. So `T @required` and `T!` print too — unless the
        // field constrains its targets: DS3/DS4 match a target's label
        // against the *wrapped* type, no label is below a non-null type,
        // and moving the `!` would switch those two rules on or off.
        let (nullable, non_null) = match &f.ty {
            Type::NonNull(inner) => (&**inner, true),
            ty => (ty, false),
        };
        let (target, outgoing) = match nullable {
            Type::Named(_) if non_null != required && (unique || required_for_target) => {
                return bail(format!(
                    "{at}: type `{}` with{} @required beside a target-side directive (only \
                     `T` and `T! @required` keep @uniqueForTarget / @requiredForTarget as they are)",
                    f.ty,
                    if required { "" } else { "out" },
                ))
            }
            Type::Named(n) => (n, Some(if required { "1..1" } else { "0..1" })),
            Type::List(item) if !non_null => match &**item {
                Type::Named(n) => (n, required.then_some("1..*")),
                _ => return bail(format!("{at}: type `{}`", f.ty)),
            },
            _ => return bail(format!("{at}: type `{}`", f.ty)),
        };
        let mut props = Vec::new();
        for a in &f.args {
            props.push(self.edge_prop(&at, a)?);
        }
        let props = if props.is_empty() {
            String::new()
        } else {
            format!(" {{ {} }}", props.join(", "))
        };
        let mut line = format!("    (:{type_name})-[:{}{props}]->(:{target})", f.name);
        if let Some(card) = outgoing {
            line.push_str(" OUTGOING ");
            line.push_str(card);
        }
        match (unique, required_for_target) {
            (false, false) => {}
            (true, false) => line.push_str(" INCOMING 0..1"),
            (false, true) => line.push_str(" INCOMING 1..*"),
            (true, true) => line.push_str(" INCOMING 1..1"),
        }
        if distinct {
            line.push_str(" DISTINCT");
        }
        if no_loops {
            line.push_str(" NO LOOPS");
        }
        Ok(line)
    }

    fn edge_prop(&self, at: &str, a: &InputValueDef) -> Result<String, PrintError> {
        if a.default.is_some() {
            return bail(format!("{at}: argument `{}` with a default value", a.name));
        }
        if !a.directives.is_empty() {
            return bail(format!("{at}: directives on argument `{}`", a.name));
        }
        let (ty, array, optional) = match &a.ty {
            Type::Named(n) => (n, false, true),
            Type::NonNull(inner) => match &**inner {
                Type::Named(n) => (n, false, false),
                Type::List(item) => match &**item {
                    Type::NonNull(base) => match &**base {
                        Type::Named(n) => (n, true, false),
                        _ => return bail(format!("{at}: argument type `{}`", a.ty)),
                    },
                    _ => return bail(format!("{at}: argument type `{}`", a.ty)),
                },
                _ => return bail(format!("{at}: argument type `{}`", a.ty)),
            },
            Type::List(item) => match &**item {
                Type::NonNull(base) => match &**base {
                    Type::Named(n) => (n, true, true),
                    _ => return bail(format!("{at}: argument type `{}`", a.ty)),
                },
                _ => return bail(format!("{at}: argument type `{}`", a.ty)),
            },
        };
        if self.node_names.contains(ty.as_str()) {
            return bail(format!(
                "{at}: argument `{}` typed by node type `{ty}`",
                a.name
            ));
        }
        let mut line = String::new();
        if optional {
            line.push_str("OPTIONAL ");
        }
        line.push_str(&a.name);
        line.push(' ');
        line.push_str(&scalar_keyword(ty));
        if array {
            line.push_str(" ARRAY");
        }
        Ok(line)
    }

    fn key(&self, type_name: &str, du: &gql_sdl::ast::DirectiveUse) -> Result<String, PrintError> {
        let Some(ConstValue::List(items)) = du.arg("fields") else {
            return bail(format!("`@key` on `{type_name}` without a `fields` list"));
        };
        let mut fields = Vec::new();
        for v in items {
            match v {
                ConstValue::String(s) => fields.push(format!("x.{s}")),
                _ => return bail(format!("`@key` on `{type_name}` with a non-string field")),
            }
        }
        Ok(format!(
            "    FOR (x : {type_name}) KEY {}",
            fields.join(", ")
        ))
    }
}

fn keyword(mode: TypeMode) -> &'static str {
    match mode {
        TypeMode::Strict => "STRICT",
        TypeMode::Loose => "LOOSE",
    }
}

/// Structural field equality ignoring spans and descriptions.
fn fields_eq(a: &FieldDef, b: &FieldDef) -> bool {
    a.name == b.name
        && a.ty == b.ty
        && a.args.len() == b.args.len()
        && a.args
            .iter()
            .zip(&b.args)
            .all(|(x, y)| x.name == y.name && x.ty == y.ty && x.default == y.default)
        && a.directives.len() == b.directives.len()
        && a.directives
            .iter()
            .zip(&b.directives)
            .all(|(x, y)| x.name == y.name && x.args == y.args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    fn roundtrip(pgs: &str) -> String {
        let c = compile(pgs).unwrap();
        print_pgschema(&c.document, &c.name, c.mode).unwrap()
    }

    #[test]
    fn print_after_lower_is_a_fixpoint() {
        let src = "CREATE GRAPH TYPE Social STRICT {\n\
                   \x20   ABSTRACT (Message {\n\
                   \x20       body STRING,\n\
                   \x20       OPTIONAL score INT\n\
                   \x20   }),\n\
                   \x20   (: Message & Post),\n\
                   \x20   (Person {\n\
                   \x20       name STRING,\n\
                   \x20       OPTIONAL nick STRING ARRAY\n\
                   \x20   }),\n\
                   \x20   (:Person)-[:follows { since INT, OPTIONAL note STRING }]->(:Person) DISTINCT NO LOOPS,\n\
                   \x20   (:Person)-[:wrote]->(:Post) OUTGOING 0..1 INCOMING 1..1,\n\
                   \x20   FOR (x : Person) KEY x.name\n\
                   }\n";
        let once = roundtrip(src);
        let c2 = compile(&once).unwrap();
        let twice = print_pgschema(&c2.document, &c2.name, c2.mode).unwrap();
        assert_eq!(once, twice, "printing is idempotent:\n{once}");
        // And the canonical form equals the (already canonical) input.
        assert_eq!(once, src);
    }

    /// The printer separates elements with commas, and consecutive key
    /// constraints are elements; the parser used to read that comma as
    /// "another field of this key" and reject `FOR` as a key variable.
    #[test]
    fn several_keyed_types_print_to_a_fixpoint() {
        for keyed in [2usize, 3] {
            let sdl: String = (0..3)
                .map(|t| {
                    let key = if t < keyed {
                        format!(" @key(fields: [\"a{t}\", \"b{t}\"])")
                    } else {
                        String::new()
                    };
                    format!("type T{t}{key} {{\n    a{t}: ID! @required\n    b{t}: Int! @required\n}}\n")
                })
                .collect();
            let doc = gql_sdl::parse(&sdl).unwrap();
            let printed = print_pgschema(&doc, "G", TypeMode::Strict).unwrap();
            assert_eq!(printed.matches("FOR (x : ").count(), keyed, "{printed}");
            let parsed =
                crate::parser::parse(&printed).unwrap_or_else(|e| panic!("{}", e.render(&printed)));
            assert_eq!(parsed.keys.len(), keyed);
            assert!(parsed.keys.iter().all(|k| k.fields.len() == 2));
            assert_eq!(roundtrip(&printed), printed);
        }
    }

    #[test]
    fn sdl_to_pgschema_to_sdl_preserves_the_schema() {
        let sdl = "interface Message {\n    body: String! @required\n}\n\n\
                   type Post implements Message {\n    body: String! @required\n}\n\n\
                   type Person @key(fields: [\"name\"]) {\n\
                   \x20   name: String! @required\n\
                   \x20   follows(since: Int!): [Person] @distinct @noLoops\n\
                   \x20   wrote: Post @uniqueForTarget\n}\n";
        let doc = gql_sdl::parse(sdl).unwrap();
        let pgs = print_pgschema(&doc, "G", TypeMode::Strict).unwrap();
        let c = compile(&pgs).unwrap();
        let lowered = gql_sdl::print_document(&c.document);
        assert_eq!(lowered, gql_sdl::print_document(&doc), "via:\n{pgs}");
    }

    /// Outgoing cardinality is list-ness × `@required`; the `!` matters
    /// only to the target-side rules, where moving it is refused.
    #[test]
    fn to_one_relationships_print_with_or_without_the_bang() {
        let edge = |field: &str| {
            let sdl =
                format!("type A {{\n    r: {field}\n}}\ntype B {{\n    x: Int! @required\n}}");
            print_pgschema(&gql_sdl::parse(&sdl).unwrap(), "G", TypeMode::Strict)
        };
        for (field, printed) in [
            ("B", "->(:B) OUTGOING 0..1"),
            ("B!", "->(:B) OUTGOING 0..1"),
            ("B @required", "->(:B) OUTGOING 1..1"),
            ("B! @required", "->(:B) OUTGOING 1..1"),
            (
                "B! @required @uniqueForTarget",
                "OUTGOING 1..1 INCOMING 0..1",
            ),
        ] {
            let pgs = edge(field).unwrap_or_else(|e| panic!("`{field}`: {e}"));
            assert!(pgs.contains(printed), "`{field}` printed as:\n{pgs}");
        }
        for field in [
            "B @required @uniqueForTarget",
            "B! @requiredForTarget",
            "[B]!",
        ] {
            let e = edge(field).expect_err(field);
            assert!(e.message.contains("`A.r`"), "{e}");
        }
    }

    #[test]
    fn out_of_fragment_wrapping_is_an_explicit_error() {
        let doc = gql_sdl::parse("type T { x: Int }").unwrap();
        let e = print_pgschema(&doc, "G", TypeMode::Strict).unwrap_err();
        assert!(e.message.contains("`T.x`"), "{e}");
        assert!(
            e.to_string().contains("outside the PG-Schema fragment"),
            "{e}"
        );
    }

    #[test]
    fn unions_and_enums_are_explicit_errors() {
        let doc = gql_sdl::parse("type A { x: Int! @required }\nunion U = A").unwrap();
        assert!(print_pgschema(&doc, "G", TypeMode::Strict)
            .unwrap_err()
            .message
            .contains("union type `U`"));
        let doc = gql_sdl::parse("enum E { A B }").unwrap();
        assert!(print_pgschema(&doc, "G", TypeMode::Strict)
            .unwrap_err()
            .message
            .contains("enum type `E`"));
    }

    #[test]
    fn bare_nonnull_scalar_prints_as_optional() {
        // `endTime: Time!` without @required is an optional property in
        // the paper's reading — PG-Schema renders it as OPTIONAL.
        let doc = gql_sdl::parse("type S { endTime: Time! }\nscalar Time").unwrap();
        let pgs = print_pgschema(&doc, "G", TypeMode::Strict).unwrap();
        assert!(pgs.contains("OPTIONAL endTime Time"), "{pgs}");
    }
}
