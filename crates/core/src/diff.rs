//! Schema evolution: diffing two Property Graph schemas.
//!
//! [`diff`] compares an old and a new schema and reports every change,
//! classified by **instance compatibility**: a change is *breaking* if
//! some Property Graph that strongly satisfies the old schema may violate
//! the new one, and *compatible* if every old-conforming instance still
//! conforms (data never has to migrate). The classification is per
//! change, conservative (when in doubt, breaking), and documented on each
//! variant. The overall verdict of a migration is
//! [`SchemaDiff::is_breaking`].
//!
//! This is the operational payoff of having a *schema* at all — the gap
//! the paper's introduction describes ("rigid forms of logical schemas
//! that define exactly how a valid instance … has to look like").

use std::collections::BTreeSet;
use std::fmt;

use gql_schema::TypeId;

use crate::pgschema::{PgSchema, RelationshipDef};

/// Compatibility of one change with existing conforming instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compat {
    /// Every old-conforming graph still conforms.
    Compatible,
    /// Some old-conforming graph may now violate the schema.
    Breaking,
}

/// One observed change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaChange {
    /// The schema switched between closed- and open-world (PG-Schema
    /// `STRICT` ↔ `LOOSE`), turning the whole strong rule family on or
    /// off. Opening is compatible; closing is breaking: every undeclared
    /// label, property and edge loses its justification (SS1–SS4).
    WorldChanged {
        /// True if the new schema is open-world.
        open: bool,
    },
    /// A new object type. Compatible: old instances have no such nodes.
    TypeAdded {
        /// The type's name.
        name: String,
    },
    /// An object type was removed. Breaking: its nodes lose justification
    /// (SS1).
    TypeRemoved {
        /// The type's name.
        name: String,
    },
    /// An attribute/relationship field was added. Compatible unless
    /// `@required`-style obligations come with it (reported separately).
    FieldAdded {
        /// The enclosing type.
        ty: String,
        /// The field's name.
        field: String,
    },
    /// A field was removed. Breaking: properties/edges using it lose
    /// justification (SS2/SS4).
    FieldRemoved {
        /// The enclosing type.
        ty: String,
        /// The field's name.
        field: String,
    },
    /// A field's type changed. Breaking unless the new value space
    /// contains the old one (e.g. `Int! → Int`); `relaxed` records the
    /// contains-check outcome.
    FieldTypeChanged {
        /// The enclosing type.
        ty: String,
        /// The field's name.
        field: String,
        /// Rendered old type.
        old: String,
        /// Rendered new type.
        new: String,
        /// True if every old-legal value/target is still legal.
        relaxed: bool,
    },
    /// A constraining directive (`@required`, `@distinct`, `@noLoops`,
    /// `@uniqueForTarget`, `@requiredForTarget`) was added. Breaking.
    ConstraintAdded {
        /// The enclosing type.
        ty: String,
        /// The field's name.
        field: String,
        /// The directive's name.
        directive: String,
    },
    /// A constraining directive was removed. Compatible.
    ConstraintRemoved {
        /// The enclosing type.
        ty: String,
        /// The field's name.
        field: String,
        /// The directive's name.
        directive: String,
    },
    /// A `@key` was added. Breaking: old instances may collide.
    KeyAdded {
        /// The keyed type.
        ty: String,
        /// The key's property names.
        fields: Vec<String>,
    },
    /// A `@key` was removed. Compatible.
    KeyRemoved {
        /// The keyed type.
        ty: String,
        /// The key's property names.
        fields: Vec<String>,
    },
    /// An edge-property argument was added/removed/retyped. Removal is
    /// breaking (SS3); addition is compatible; retyping follows the
    /// value-space check.
    EdgePropChanged {
        /// The enclosing type.
        ty: String,
        /// The relationship field.
        field: String,
        /// The property/argument name.
        prop: String,
        /// What happened, e.g. "added", "removed", "Float! → String".
        what: String,
        /// The classification.
        compat: Compat,
    },
}

impl SchemaChange {
    /// The change's instance-compatibility class.
    pub fn compat(&self) -> Compat {
        match self {
            SchemaChange::TypeAdded { .. }
            | SchemaChange::FieldAdded { .. }
            | SchemaChange::ConstraintRemoved { .. }
            | SchemaChange::KeyRemoved { .. } => Compat::Compatible,
            SchemaChange::TypeRemoved { .. }
            | SchemaChange::FieldRemoved { .. }
            | SchemaChange::ConstraintAdded { .. }
            | SchemaChange::KeyAdded { .. } => Compat::Breaking,
            SchemaChange::FieldTypeChanged { relaxed, .. } => {
                if *relaxed {
                    Compat::Compatible
                } else {
                    Compat::Breaking
                }
            }
            SchemaChange::EdgePropChanged { compat, .. } => *compat,
            SchemaChange::WorldChanged { open: true } => Compat::Compatible,
            SchemaChange::WorldChanged { open: false } => Compat::Breaking,
        }
    }

    /// The human-readable description, without the compatibility tag
    /// ([`Display`](fmt::Display) prepends it).
    pub fn describe(&self) -> String {
        match self {
            SchemaChange::WorldChanged { open: true } => {
                "schema opened (closed-world → open-world)".to_owned()
            }
            SchemaChange::WorldChanged { open: false } => {
                "schema closed (open-world → closed-world)".to_owned()
            }
            SchemaChange::TypeAdded { name } => format!("type {name} added"),
            SchemaChange::TypeRemoved { name } => format!("type {name} removed"),
            SchemaChange::FieldAdded { ty, field } => format!("field {ty}.{field} added"),
            SchemaChange::FieldRemoved { ty, field } => {
                format!("field {ty}.{field} removed")
            }
            SchemaChange::FieldTypeChanged {
                ty,
                field,
                old,
                new,
                ..
            } => format!("field {ty}.{field}: {old} → {new}"),
            SchemaChange::ConstraintAdded {
                ty,
                field,
                directive,
            } => {
                format!("@{directive} added on {ty}.{field}")
            }
            SchemaChange::ConstraintRemoved {
                ty,
                field,
                directive,
            } => {
                format!("@{directive} removed from {ty}.{field}")
            }
            SchemaChange::KeyAdded { ty, fields } => {
                format!("@key({}) added on {ty}", fields.join(", "))
            }
            SchemaChange::KeyRemoved { ty, fields } => {
                format!("@key({}) removed from {ty}", fields.join(", "))
            }
            SchemaChange::EdgePropChanged {
                ty,
                field,
                prop,
                what,
                ..
            } => format!("edge property {ty}.{field}({prop}:) {what}"),
        }
    }
}

impl fmt::Display for SchemaChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.compat() {
            Compat::Compatible => "compatible",
            Compat::Breaking => "BREAKING",
        };
        write!(f, "[{tag}] {}", self.describe())
    }
}

/// The result of [`diff`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaDiff {
    /// All changes, old-schema order.
    pub changes: Vec<SchemaChange>,
}

impl SchemaDiff {
    /// True if any change is breaking.
    pub fn is_breaking(&self) -> bool {
        self.changes.iter().any(|c| c.compat() == Compat::Breaking)
    }

    /// Only the breaking changes.
    pub fn breaking(&self) -> impl Iterator<Item = &SchemaChange> {
        self.changes
            .iter()
            .filter(|c| c.compat() == Compat::Breaking)
    }

    /// True if the schemas are identical under the diff.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Renders the diff as a JSON document for machine consumption
    /// (`pgschema diff --json`), following the report JSON conventions:
    ///
    /// ```json
    /// {"equivalent": false, "breaking": true,
    ///  "changes": [{"change": "type T removed", "compat": "breaking"}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"equivalent\": {}, \"breaking\": {}, \"changes\": [",
            self.is_empty(),
            self.is_breaking()
        );
        for (i, c) in self.changes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let compat = match c.compat() {
                Compat::Compatible => "compatible",
                Compat::Breaking => "breaking",
            };
            out.push_str("{\"change\": \"");
            pgraph::json::escape_into(&mut out, &c.describe());
            out.push_str(&format!("\", \"compat\": \"{compat}\"}}"));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for SchemaDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.changes.is_empty() {
            return writeln!(f, "schemas are equivalent");
        }
        for c in &self.changes {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

/// `valuesW(old) ⊆ valuesW(new)`-style check on wrapped types: true when
/// every old-legal value (or edge multiset) remains legal.
fn type_relaxed(
    old_s: &PgSchema,
    new_s: &PgSchema,
    old: &gql_schema::WrappedType,
    new: &gql_schema::WrappedType,
) -> bool {
    // Base types must have the same name (structural identity across the
    // two schemas).
    if old_s.schema().type_name(old.base) != new_s.schema().type_name(new.base) {
        return false;
    }
    use gql_schema::Wrap;
    match (old.wrap, new.wrap) {
        (a, b) if a == b => true,
        // Dropping an outer/inner non-null only widens.
        (Wrap::NonNull, Wrap::Bare) => true,
        (
            Wrap::List {
                inner_non_null: i1,
                outer_non_null: o1,
            },
            Wrap::List {
                inner_non_null: i2,
                outer_non_null: o2,
            },
        ) => (i1 || !i2) && (o1 || !o2),
        // Non-list → list relaxes WS4 for relationships, but *changes*
        // the value space for attributes (scalar vs array) — breaking
        // for attributes; for relationships it widens. The caller knows
        // which; be conservative here and let relationship diffs handle
        // multiplicity via this same rule (single edges remain legal).
        (Wrap::Bare | Wrap::NonNull, Wrap::List { .. }) => {
            // Only relaxing for relationship fields; attribute values
            // would change shape. Conservatively breaking unless both
            // bases are object-like (checked by the caller via
            // `is_relationship`).
            !old_s.schema().is_scalar(old.base)
        }
        _ => false,
    }
}

const CONSTRAINT_DIRECTIVES: [&str; 5] = [
    "required",
    "distinct",
    "noLoops",
    "uniqueForTarget",
    "requiredForTarget",
];

fn rel_flags(rel: &RelationshipDef) -> Vec<&'static str> {
    let mut out = Vec::new();
    if rel.required {
        out.push("required");
    }
    if rel.distinct {
        out.push("distinct");
    }
    if rel.no_loops {
        out.push("noLoops");
    }
    if rel.unique_for_target {
        out.push("uniqueForTarget");
    }
    if rel.required_for_target {
        out.push("requiredForTarget");
    }
    out
}

/// Computes the change set from `old` to `new`.
pub fn diff(old: &PgSchema, new: &PgSchema) -> SchemaDiff {
    let mut changes = Vec::new();
    if old.is_open_world() != new.is_open_world() {
        changes.push(SchemaChange::WorldChanged {
            open: new.is_open_world(),
        });
    }
    let old_types: Vec<TypeId> = old.schema().object_types().collect();
    let new_types: Vec<TypeId> = new.schema().object_types().collect();
    let old_names: BTreeSet<&str> = old_types
        .iter()
        .map(|&t| old.schema().type_name(t))
        .collect();
    let new_names: BTreeSet<&str> = new_types
        .iter()
        .map(|&t| new.schema().type_name(t))
        .collect();

    for &name in new_names.difference(&old_names) {
        changes.push(SchemaChange::TypeAdded {
            name: name.to_owned(),
        });
    }
    for &name in old_names.difference(&new_names) {
        changes.push(SchemaChange::TypeRemoved {
            name: name.to_owned(),
        });
    }

    for &name in old_names.intersection(&new_names) {
        let ot = old.label_type(name).unwrap();
        let nt = new.label_type(name).unwrap();
        diff_fields(old, new, name, ot, nt, &mut changes);
    }

    // Keys (compared by (type name, field list)).
    let key_set = |s: &PgSchema| -> BTreeSet<(String, Vec<String>)> {
        s.keys()
            .iter()
            .map(|k| (s.schema().type_name(k.site).to_owned(), k.fields.clone()))
            .collect()
    };
    let old_keys = key_set(old);
    let new_keys = key_set(new);
    for (ty, fields) in new_keys.difference(&old_keys) {
        changes.push(SchemaChange::KeyAdded {
            ty: ty.clone(),
            fields: fields.clone(),
        });
    }
    for (ty, fields) in old_keys.difference(&new_keys) {
        changes.push(SchemaChange::KeyRemoved {
            ty: ty.clone(),
            fields: fields.clone(),
        });
    }
    SchemaDiff { changes }
}

fn diff_fields(
    old: &PgSchema,
    new: &PgSchema,
    name: &str,
    ot: TypeId,
    nt: TypeId,
    changes: &mut Vec<SchemaChange>,
) {
    let old_fields: Vec<&str> = old.schema().fields(ot).map(|f| f.name.as_str()).collect();
    let new_fields: Vec<&str> = new.schema().fields(nt).map(|f| f.name.as_str()).collect();
    for f in &new_fields {
        if !old_fields.contains(f) {
            changes.push(SchemaChange::FieldAdded {
                ty: name.to_owned(),
                field: (*f).to_owned(),
            });
            // A new @required attribute/relationship immediately breaks
            // old instances of the type (they lack it).
            if has_node_instances_obligation(new, name, f) {
                changes.push(SchemaChange::ConstraintAdded {
                    ty: name.to_owned(),
                    field: (*f).to_owned(),
                    directive: "required".to_owned(),
                });
            }
        }
    }
    for f in &old_fields {
        if !new_fields.contains(f) {
            changes.push(SchemaChange::FieldRemoved {
                ty: name.to_owned(),
                field: (*f).to_owned(),
            });
        }
    }
    for f in old_fields.iter().filter(|f| new_fields.contains(f)) {
        let of = old.schema().field(ot, f).unwrap();
        let nf = new.schema().field(nt, f).unwrap();
        if of.ty.wrap != nf.ty.wrap
            || old.schema().type_name(of.ty.base) != new.schema().type_name(nf.ty.base)
        {
            changes.push(SchemaChange::FieldTypeChanged {
                ty: name.to_owned(),
                field: (*f).to_owned(),
                old: old.schema().display_type(&of.ty),
                new: new.schema().display_type(&nf.ty),
                relaxed: type_relaxed(old, new, &of.ty, &nf.ty),
            });
        }
        // Constraint flags (relationships; @required also applies to
        // attributes).
        let old_flags = constraint_flags(old, name, f);
        let new_flags = constraint_flags(new, name, f);
        for d in CONSTRAINT_DIRECTIVES {
            let was = old_flags.contains(&d);
            let is = new_flags.contains(&d);
            if !was && is {
                changes.push(SchemaChange::ConstraintAdded {
                    ty: name.to_owned(),
                    field: (*f).to_owned(),
                    directive: d.to_owned(),
                });
            } else if was && !is {
                changes.push(SchemaChange::ConstraintRemoved {
                    ty: name.to_owned(),
                    field: (*f).to_owned(),
                    directive: d.to_owned(),
                });
            }
        }
        // Edge properties.
        diff_edge_props(old, new, name, f, changes);
    }
}

fn constraint_flags(s: &PgSchema, ty: &str, field: &str) -> Vec<&'static str> {
    if let Some(rel) = s.relationship(ty, field) {
        rel_flags(rel)
    } else if s.attribute(ty, field).is_some_and(|a| a.required) {
        vec!["required"]
    } else {
        Vec::new()
    }
}

fn has_node_instances_obligation(s: &PgSchema, ty: &str, field: &str) -> bool {
    !constraint_flags(s, ty, field).is_empty()
        && constraint_flags(s, ty, field).contains(&"required")
}

fn diff_edge_props(
    old: &PgSchema,
    new: &PgSchema,
    ty: &str,
    field: &str,
    changes: &mut Vec<SchemaChange>,
) {
    let (Some(or), Some(nr)) = (old.relationship(ty, field), new.relationship(ty, field)) else {
        return;
    };
    for p in &nr.edge_props {
        if !or.edge_props.iter().any(|x| x.name == p.name) {
            changes.push(SchemaChange::EdgePropChanged {
                ty: ty.to_owned(),
                field: field.to_owned(),
                prop: p.name.clone(),
                what: "added".to_owned(),
                compat: Compat::Compatible,
            });
        }
    }
    for p in &or.edge_props {
        match nr.edge_props.iter().find(|x| x.name == p.name) {
            None => changes.push(SchemaChange::EdgePropChanged {
                ty: ty.to_owned(),
                field: field.to_owned(),
                prop: p.name.clone(),
                what: "removed".to_owned(),
                compat: Compat::Breaking,
            }),
            Some(np) if np.ty != p.ty => {
                let relaxed = type_relaxed(old, new, &p.ty, &np.ty);
                changes.push(SchemaChange::EdgePropChanged {
                    ty: ty.to_owned(),
                    field: field.to_owned(),
                    prop: p.name.clone(),
                    what: format!(
                        "{} → {}",
                        old.schema().display_type(&p.ty),
                        new.schema().display_type(&np.ty)
                    ),
                    compat: if relaxed {
                        Compat::Compatible
                    } else {
                        Compat::Breaking
                    },
                });
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(old: &str, new: &str) -> SchemaDiff {
        diff(
            &PgSchema::parse(old).unwrap(),
            &PgSchema::parse(new).unwrap(),
        )
    }

    #[test]
    fn identical_schemas_are_equivalent() {
        let s = r#"type U @key(fields: ["id"]) { id: ID! @required n: [U] @distinct }"#;
        let diff = d(s, s);
        assert!(diff.is_empty(), "{diff}");
        assert!(!diff.is_breaking());
    }

    #[test]
    fn added_type_and_field_are_compatible() {
        let diff = d(
            "type A { x: Int }",
            "type A { x: Int y: Float } type B { z: Int }",
        );
        assert!(!diff.is_breaking(), "{diff}");
        assert_eq!(diff.changes.len(), 2);
    }

    #[test]
    fn removed_type_and_field_break() {
        let diff = d(
            "type A { x: Int y: Int } type B { z: Int }",
            "type A { x: Int }",
        );
        assert!(diff.is_breaking());
        assert_eq!(diff.breaking().count(), 2);
    }

    #[test]
    fn adding_required_field_is_breaking() {
        let diff = d("type A { x: Int }", "type A { x: Int y: Int @required }");
        assert!(diff.is_breaking(), "{diff}");
        assert!(diff
            .changes
            .iter()
            .any(|c| matches!(c, SchemaChange::ConstraintAdded { directive, .. } if directive == "required")));
    }

    #[test]
    fn nullability_relaxation_is_compatible_narrowing_is_breaking() {
        let relax = d("type A { x: Int! }", "type A { x: Int }");
        assert!(!relax.is_breaking(), "{relax}");
        let narrow = d("type A { x: Int }", "type A { x: Int! }");
        assert!(narrow.is_breaking(), "{narrow}");
        // List inner-null relaxation.
        let relax = d("type A { xs: [Int!]! }", "type A { xs: [Int] }");
        assert!(!relax.is_breaking(), "{relax}");
    }

    #[test]
    fn relationship_list_promotion_is_compatible() {
        // B → [B] lifts WS4; every old single edge stays legal.
        let diff = d(
            "type A { b: B } type B { x: Int }",
            "type A { b: [B] } type B { x: Int }",
        );
        assert!(!diff.is_breaking(), "{diff}");
        // [B] → B is breaking.
        let diff = d(
            "type A { b: [B] } type B { x: Int }",
            "type A { b: B } type B { x: Int }",
        );
        assert!(diff.is_breaking());
    }

    #[test]
    fn attribute_scalar_to_list_is_breaking() {
        let diff = d("type A { x: Int }", "type A { x: [Int] }");
        assert!(diff.is_breaking(), "{diff}");
    }

    #[test]
    fn directive_changes_classify() {
        let add = d("type A { r: [A] }", "type A { r: [A] @distinct @noLoops }");
        assert!(add.is_breaking());
        assert_eq!(add.breaking().count(), 2);
        let remove = d("type A { r: [A] @distinct @noLoops }", "type A { r: [A] }");
        assert!(!remove.is_breaking(), "{remove}");
        assert_eq!(remove.changes.len(), 2);
    }

    #[test]
    fn key_changes_classify() {
        let add = d(
            "type A { id: ID! }",
            r#"type A @key(fields: ["id"]) { id: ID! }"#,
        );
        assert!(add.is_breaking());
        let remove = d(
            r#"type A @key(fields: ["id"]) { id: ID! }"#,
            "type A { id: ID! }",
        );
        assert!(!remove.is_breaking());
    }

    #[test]
    fn edge_property_changes_classify() {
        let base = "type A { r(w: Float!): B } type B { x: Int }";
        let added = d("type A { r: B } type B { x: Int }", base);
        assert!(!added.is_breaking(), "{added}");
        let removed = d(base, "type A { r: B } type B { x: Int }");
        assert!(removed.is_breaking());
        let relaxed = d(base, "type A { r(w: Float): B } type B { x: Int }");
        assert!(!relaxed.is_breaking(), "{relaxed}");
        let retyped = d(base, "type A { r(w: String!): B } type B { x: Int }");
        assert!(retyped.is_breaking());
    }

    #[test]
    fn base_type_change_is_breaking() {
        let diff = d("type A { x: Int }", "type A { x: Float }");
        assert!(diff.is_breaking(), "{diff}");
    }

    #[test]
    fn display_tags_changes() {
        let diff = d("type A { x: Int }", "type A { x: Int! }");
        let text = diff.to_string();
        assert!(text.contains("[BREAKING]"), "{text}");
        assert!(text.contains("Int → Int!"), "{text}");
        assert!(d("type A { x: Int }", "type A { x: Int }")
            .to_string()
            .contains("equivalent"));
    }
}
