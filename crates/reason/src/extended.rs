//! Satisfiability of the remaining schema components (§6.2, closing
//! paragraph):
//!
//! > "The satisfiability of interface and union types is directly linked
//! > to the satisfiability of their implementing object types and union
//! > components. The satisfiability problem for properties is trivial
//! > because of the consistency requirements. Finally, the satisfiability
//! > of edge definitions is reducible to the problem of type
//! > satisfiability: add the @required to the field definition and check
//! > if the type of the field definition is satisfiable."

use gql_sdl::ast::{ConstValue, Definition, DirectiveUse, TypeDef};
use gql_sdl::{Pos, Span};
use pg_schema::PgSchema;

use crate::{check_object_type, ReasonerConfig, Satisfiability};

/// Satisfiability for *any* named type: object types directly; interface
/// and union types via their implementors/members (satisfiable iff some
/// member is); scalar types are trivially satisfiable (a lone node with a
/// property cannot even mention them — we report the best fitting member
/// semantics: a scalar is "populated" by any property using it, which
/// consistency makes trivially possible).
pub fn check_type_satisfiable(
    schema: &PgSchema,
    type_name: &str,
    config: &ReasonerConfig,
) -> Satisfiability {
    let s = schema.schema();
    let Some(t) = s.type_id(type_name) else {
        return Satisfiability::Unsatisfiable;
    };
    if s.is_object(t) {
        return check_object_type(schema, type_name, config);
    }
    let members: Vec<&str> = if s.interface_type(t).is_some() {
        s.implementors(t).iter().map(|&m| s.type_name(m)).collect()
    } else if !s.union_members(t).is_empty() {
        s.union_members(t).iter().map(|&m| s.type_name(m)).collect()
    } else {
        // Scalar/enum: trivially satisfiable (paper: "trivial because of
        // the consistency requirements"). Witness: the empty graph plus
        // nothing — represent with a one-node-free witness if any object
        // type exists, else an empty graph.
        return Satisfiability::Satisfiable {
            witness: pgraph::PropertyGraph::new(),
            size: 0,
        };
    };
    let mut best: Option<Satisfiability> = None;
    for m in members {
        match check_object_type(schema, m, config) {
            sat @ Satisfiability::Satisfiable { .. } => return sat,
            Satisfiability::Unsatisfiable => {
                best.get_or_insert(Satisfiability::Unsatisfiable);
            }
            inconclusive @ Satisfiability::NoFiniteModelFound { .. } => {
                best = Some(inconclusive);
            }
        }
    }
    best.unwrap_or(Satisfiability::Unsatisfiable)
}

/// Satisfiability of an *edge definition* `(type_name, field_name)` — the
/// paper's reduction: force the field with `@required` and ask whether
/// the *source* type is satisfiable (every witness then contains an
/// instance of the edge).
///
/// Works on the schema's document form ([`gql_schema::emit`]), so the
/// directive is inserted into the definition the schema was built from.
pub fn check_field_satisfiable(
    schema: &PgSchema,
    type_name: &str,
    field_name: &str,
    config: &ReasonerConfig,
) -> Result<Satisfiability, String> {
    let mut doc = gql_schema::emit::schema_to_document(schema.schema());
    let mut found = false;
    for def in &mut doc.definitions {
        let Definition::Type(td) = def else { continue };
        let fields = match td {
            TypeDef::Object(o) if o.name == type_name => &mut o.fields,
            TypeDef::Interface(i) if i.name == type_name => &mut i.fields,
            _ => continue,
        };
        for f in fields {
            if f.name == field_name {
                found = true;
                if !f.directives.iter().any(|d| d.name == "required") {
                    f.directives.push(DirectiveUse {
                        name: "required".to_owned(),
                        args: Vec::<(String, ConstValue)>::new(),
                        span: Span::at(Pos::start()),
                    });
                }
            }
        }
    }
    if !found {
        return Err(format!("no field {type_name}.{field_name} in the schema"));
    }
    let forced = PgSchema::from_document(&doc).map_err(|e| e.to_string())?;
    // For an interface-sited field, any implementor carrying the required
    // edge suffices; check_type_satisfiable handles both cases.
    Ok(check_type_satisfiable(&forced, type_name, config))
}

/// The check behind `pgschema check-sat` and `POST /check-sat`: the type
/// `type_name`, or with `field` its edge definition. `Err` names a field
/// the type does not declare.
pub fn check(
    schema: &PgSchema,
    type_name: &str,
    field: Option<&str>,
    config: &ReasonerConfig,
) -> Result<Satisfiability, String> {
    match field {
        Some(field) => check_field_satisfiable(schema, type_name, field, config),
        None => Ok(check_type_satisfiable(schema, type_name, config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReasonerConfig {
        ReasonerConfig::default()
    }

    #[test]
    fn interface_satisfiable_iff_some_implementor_is() {
        let schema = PgSchema::parse(
            r#"
            interface I { x: Int }
            type A implements I { x: Int }
            type B implements I { x: Int }
            "#,
        )
        .unwrap();
        assert!(check_type_satisfiable(&schema, "I", &cfg()).is_satisfiable());
    }

    #[test]
    fn interface_with_no_implementors_is_unsatisfiable() {
        let schema = PgSchema::parse("interface I { x: Int } type A { x: Int }").unwrap();
        assert!(check_type_satisfiable(&schema, "I", &cfg()).is_unsatisfiable());
    }

    #[test]
    fn union_satisfiability_via_members() {
        let schema = PgSchema::parse(
            r#"
            union U = A | B
            type A { x: Int }
            type B { x: Int }
            "#,
        )
        .unwrap();
        assert!(check_type_satisfiable(&schema, "U", &cfg()).is_satisfiable());
    }

    #[test]
    fn union_of_unsatisfiable_members_is_unsatisfiable() {
        // Every A needs an incoming edge from a B and vice versa, with
        // uniqueness forcing the conflict of diagram (c).
        let schema = PgSchema::parse(
            r#"
            type OT1 { }
            interface IT { f: [OT1] @uniqueForTarget }
            type OT2 implements IT { f: [OT1] @required }
            type OT3 implements IT { f: [OT1] @requiredForTarget }
            union U = OT2
            "#,
        )
        .unwrap();
        assert!(check_type_satisfiable(&schema, "U", &cfg()).is_unsatisfiable());
    }

    #[test]
    fn unknown_type_is_unsatisfiable() {
        let schema = PgSchema::parse("type A { x: Int }").unwrap();
        assert!(check_type_satisfiable(&schema, "Ghost", &cfg()).is_unsatisfiable());
    }

    #[test]
    fn scalars_are_trivially_satisfiable() {
        let schema = PgSchema::parse("scalar Time type A { t: Time }").unwrap();
        assert!(check_type_satisfiable(&schema, "Time", &cfg()).is_satisfiable());
    }

    #[test]
    fn field_satisfiability_follows_the_paper_recipe() {
        let doc = PgSchema::parse(
            r#"
            type A { toB: B }
            type B { x: Int }
            "#,
        )
        .unwrap();
        // A.toB is satisfiable: a witness with the edge exists.
        let sat = check_field_satisfiable(&doc, "A", "toB", &cfg()).unwrap();
        let Satisfiability::Satisfiable { witness, .. } = sat else {
            panic!("expected satisfiable, got {sat:?}");
        };
        assert!(witness.edges().any(|e| e.label() == "toB"));
    }

    #[test]
    fn field_on_unsatisfiable_source_type_is_unsatisfiable() {
        let doc = PgSchema::parse(
            r#"
            type OT1 { }
            interface IT { f: [OT1] @uniqueForTarget }
            type OT2 implements IT { f: [OT1] @required }
            type OT3 implements IT { f: [OT1] @requiredForTarget }
            "#,
        )
        .unwrap();
        // OT2 itself is unsatisfiable (diagram (c)), hence so is its
        // edge definition.
        let sat = check_field_satisfiable(&doc, "OT2", "f", &cfg()).unwrap();
        assert!(sat.is_unsatisfiable());
    }

    #[test]
    fn unsatisfiable_edge_on_satisfiable_type() {
        // C.toD is declared but D requires an incoming edge from E, and E
        // can never exist (E needs an incoming from a Ghost-like
        // unsatisfiable chain)… simpler: D is only reachable via toD but
        // D itself is fine; instead make the edge unsatisfiable by making
        // its target type unsatisfiable.
        let doc = PgSchema::parse(
            r#"
            type C { toD: D }
            type D { back: [C] @required @uniqueForTarget f: [D1] @required }
            type D1 { }
            interface IT { f: [D1] @uniqueForTarget }
            type D2 implements IT { f: [D1] @requiredForTarget }
            type D3 implements IT { f: [D1] @requiredForTarget }
            "#,
        )
        .unwrap();
        // D requires an f-edge to a D1, but any D1 node needs incoming f
        // from both a D2 and a D3 (diagram (a)) — impossible. So no D can
        // exist, and C.toD is unsatisfiable even though C is satisfiable.
        let sat = check_field_satisfiable(&doc, "C", "toD", &cfg()).unwrap();
        assert!(!sat.is_satisfiable(), "{sat:?}");
        assert!(check_type_satisfiable(&doc, "C", &cfg()).is_satisfiable());
    }

    #[test]
    fn missing_field_is_an_error() {
        let doc = PgSchema::parse("type A { x: Int }").unwrap();
        assert!(check_field_satisfiable(&doc, "A", "ghost", &cfg()).is_err());
        assert!(check_field_satisfiable(&doc, "Ghost", "x", &cfg()).is_err());
    }
}
