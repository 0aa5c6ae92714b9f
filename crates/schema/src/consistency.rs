//! Schema consistency (Definitions 4.3–4.5).
//!
//! A schema is **consistent** iff it is *interface consistent* (every
//! object type implementing an interface carries at least the interface's
//! fields, at subtypes, with identical argument types, and adds only
//! nullable extra arguments) and *directives consistent* (every applied
//! directive supplies all non-null declared arguments and only declared
//! arguments, with values in `valuesW` of the declared types).
//!
//! The paper assumes all schemas are consistent; [`check`] makes that
//! assumption checkable, and the validation/reasoning layers require an
//! empty violation list before running.

use std::fmt;

use crate::model::{AppliedDirective, Schema, TypeKind};
use crate::subtype::wrapped_subtype;

/// Where an applied directive sits (used in violation reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveSite {
    /// On a type definition.
    Type {
        /// The type's name.
        ty: String,
    },
    /// On a field definition.
    Field {
        /// The enclosing type's name.
        ty: String,
        /// The field's name.
        field: String,
    },
    /// On a field argument definition.
    Arg {
        /// The enclosing type's name.
        ty: String,
        /// The field's name.
        field: String,
        /// The argument's name.
        arg: String,
    },
}

impl fmt::Display for DirectiveSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectiveSite::Type { ty } => write!(f, "type {ty}"),
            DirectiveSite::Field { ty, field } => write!(f, "field {ty}.{field}"),
            DirectiveSite::Arg { ty, field, arg } => {
                write!(f, "argument {ty}.{field}({arg}:)")
            }
        }
    }
}

/// A violation of Definition 4.3 or 4.4.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsistencyViolation {
    /// Def 4.3 (1): implementing object type misses an interface field.
    MissingInterfaceField {
        /// The object type.
        object: String,
        /// The interface it implements.
        interface: String,
        /// The missing field.
        field: String,
    },
    /// Def 4.3 (1): the object's field type is not a subtype of the
    /// interface's field type.
    FieldTypeNotSubtype {
        /// The object type.
        object: String,
        /// The interface.
        interface: String,
        /// The field.
        field: String,
        /// Rendered object field type.
        object_ty: String,
        /// Rendered interface field type.
        interface_ty: String,
    },
    /// Def 4.3 (2): an interface field argument is missing on the object.
    MissingInterfaceArg {
        /// The object type.
        object: String,
        /// The interface.
        interface: String,
        /// The field.
        field: String,
        /// The missing argument.
        arg: String,
    },
    /// Def 4.3 (2): the object's argument type differs from the
    /// interface's (must be *equal*, not merely a subtype).
    ArgTypeMismatch {
        /// The object type.
        object: String,
        /// The interface.
        interface: String,
        /// The field.
        field: String,
        /// The argument.
        arg: String,
        /// Rendered object argument type.
        object_ty: String,
        /// Rendered interface argument type.
        interface_ty: String,
    },
    /// Def 4.3 (3): an extra argument on the object's field is non-null.
    ExtraArgNonNull {
        /// The object type.
        object: String,
        /// The interface.
        interface: String,
        /// The field.
        field: String,
        /// The offending argument.
        arg: String,
    },
    /// Def 4.4 (1): a non-null declared directive argument was not
    /// supplied.
    MissingDirectiveArg {
        /// Where the directive is applied.
        site: DirectiveSite,
        /// The directive.
        directive: String,
        /// The missing argument.
        arg: String,
    },
    /// Def 4.4 (2): a supplied argument is not declared for the directive
    /// (then `typeAD(d, a)` is undefined).
    UndeclaredDirectiveArg {
        /// Where the directive is applied.
        site: DirectiveSite,
        /// The directive.
        directive: String,
        /// The undeclared argument.
        arg: String,
    },
    /// Def 4.4 (2): a supplied value is outside `valuesW(typeAD(d, a))`.
    DirectiveArgValueMismatch {
        /// Where the directive is applied.
        site: DirectiveSite,
        /// The directive.
        directive: String,
        /// The argument.
        arg: String,
        /// The declared (rendered) type.
        declared_ty: String,
        /// The supplied (rendered) value.
        value: String,
    },
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConsistencyViolation as V;
        match self {
            V::MissingInterfaceField {
                object,
                interface,
                field,
            } => write!(
                f,
                "type {object} implements {interface} but lacks field `{field}`"
            ),
            V::FieldTypeNotSubtype {
                object,
                interface,
                field,
                object_ty,
                interface_ty,
            } => write!(
                f,
                "{object}.{field}: {object_ty} is not a subtype of {interface}.{field}: {interface_ty}"
            ),
            V::MissingInterfaceArg {
                object,
                interface,
                field,
                arg,
            } => write!(
                f,
                "{object}.{field} lacks argument `{arg}` required by {interface}.{field}"
            ),
            V::ArgTypeMismatch {
                object,
                interface,
                field,
                arg,
                object_ty,
                interface_ty,
            } => write!(
                f,
                "{object}.{field}({arg}:): type {object_ty} differs from {interface}'s {interface_ty}"
            ),
            V::ExtraArgNonNull {
                object,
                interface,
                field,
                arg,
            } => write!(
                f,
                "{object}.{field}({arg}:) is non-null but absent from {interface}.{field}"
            ),
            V::MissingDirectiveArg {
                site,
                directive,
                arg,
            } => write!(f, "{site}: @{directive} misses required argument `{arg}`"),
            V::UndeclaredDirectiveArg {
                site,
                directive,
                arg,
            } => write!(f, "{site}: @{directive} has undeclared argument `{arg}`"),
            V::DirectiveArgValueMismatch {
                site,
                directive,
                arg,
                declared_ty,
                value,
            } => write!(
                f,
                "{site}: @{directive}({arg}: {value}) does not conform to {declared_ty}"
            ),
        }
    }
}

/// Checks Definitions 4.3 and 4.4; an empty result means the schema is
/// consistent (Definition 4.5).
pub fn check(schema: &Schema) -> Vec<ConsistencyViolation> {
    let mut out = Vec::new();
    check_interfaces(schema, &mut out);
    check_directives(schema, &mut out);
    out
}

fn check_interfaces(schema: &Schema, out: &mut Vec<ConsistencyViolation>) {
    for it in schema.interface_types() {
        let iface = schema.interface_type(it).expect("interface payload");
        for &ot in schema.implementors(it) {
            let obj = schema.object_type(ot).expect("object payload");
            for ifield in &iface.fields {
                let Some(ofield) = obj.field(&ifield.name) else {
                    out.push(ConsistencyViolation::MissingInterfaceField {
                        object: schema.type_name(ot).to_owned(),
                        interface: schema.type_name(it).to_owned(),
                        field: ifield.name.clone(),
                    });
                    continue;
                };
                // (1) typeS(f, ot) ⊑S typeS(f, it)
                if !wrapped_subtype(schema, &ofield.ty, &ifield.ty) {
                    out.push(ConsistencyViolation::FieldTypeNotSubtype {
                        object: schema.type_name(ot).to_owned(),
                        interface: schema.type_name(it).to_owned(),
                        field: ifield.name.clone(),
                        object_ty: schema.display_type(&ofield.ty),
                        interface_ty: schema.display_type(&ifield.ty),
                    });
                }
                // (2) every interface arg exists with the *same* type.
                for iarg in &ifield.args {
                    match ofield.arg(&iarg.name) {
                        None => out.push(ConsistencyViolation::MissingInterfaceArg {
                            object: schema.type_name(ot).to_owned(),
                            interface: schema.type_name(it).to_owned(),
                            field: ifield.name.clone(),
                            arg: iarg.name.clone(),
                        }),
                        Some(oarg) if oarg.ty != iarg.ty => {
                            out.push(ConsistencyViolation::ArgTypeMismatch {
                                object: schema.type_name(ot).to_owned(),
                                interface: schema.type_name(it).to_owned(),
                                field: ifield.name.clone(),
                                arg: iarg.name.clone(),
                                object_ty: schema.display_type(&oarg.ty),
                                interface_ty: schema.display_type(&iarg.ty),
                            });
                        }
                        Some(_) => {}
                    }
                }
                // (3) extra args on the object's field must be nullable.
                for oarg in &ofield.args {
                    if ifield.arg(&oarg.name).is_none() && oarg.ty.wrap.outer_non_null() {
                        out.push(ConsistencyViolation::ExtraArgNonNull {
                            object: schema.type_name(ot).to_owned(),
                            interface: schema.type_name(it).to_owned(),
                            field: ifield.name.clone(),
                            arg: oarg.name.clone(),
                        });
                    }
                }
            }
        }
    }
}

fn check_directives(schema: &Schema, out: &mut Vec<ConsistencyViolation>) {
    for t in schema.type_ids() {
        let ty_name = schema.type_name(t).to_owned();
        for d in schema.type_directives(t) {
            check_one_directive(
                schema,
                d,
                DirectiveSite::Type {
                    ty: ty_name.clone(),
                },
                out,
            );
        }
        let fields: Vec<_> = match &schema.type_info(t).kind {
            TypeKind::Object(o) | TypeKind::Interface(o) => o.fields.iter().collect(),
            _ => Vec::new(),
        };
        for f in fields {
            for d in &f.directives {
                check_one_directive(
                    schema,
                    d,
                    DirectiveSite::Field {
                        ty: ty_name.clone(),
                        field: f.name.clone(),
                    },
                    out,
                );
            }
            for a in &f.args {
                for d in &a.directives {
                    check_one_directive(
                        schema,
                        d,
                        DirectiveSite::Arg {
                            ty: ty_name.clone(),
                            field: f.name.clone(),
                            arg: a.name.clone(),
                        },
                        out,
                    );
                }
            }
        }
    }
}

fn check_one_directive(
    schema: &Schema,
    applied: &AppliedDirective,
    site: DirectiveSite,
    out: &mut Vec<ConsistencyViolation>,
) {
    let decl = schema.directive_decl(&applied.name);
    // (2) supplied arguments must be declared and well-typed. An unknown
    // directive *with no arguments* is vacuously consistent (it is simply
    // ignored, §3.6); with arguments, typeAD(d, a) is undefined → violation.
    for (name, value) in &applied.args {
        match decl.and_then(|d| d.arg(name)) {
            None => out.push(ConsistencyViolation::UndeclaredDirectiveArg {
                site: site.clone(),
                directive: applied.name.clone(),
                arg: name.clone(),
            }),
            Some(arg_decl) => {
                if !schema.value_conforms(value, &arg_decl.ty) {
                    out.push(ConsistencyViolation::DirectiveArgValueMismatch {
                        site: site.clone(),
                        directive: applied.name.clone(),
                        arg: name.clone(),
                        declared_ty: schema.display_type(&arg_decl.ty),
                        value: value.to_string(),
                    });
                }
            }
        }
    }
    // (1) every non-null declared argument must be supplied.
    if let Some(decl) = decl {
        for arg_decl in &decl.args {
            if arg_decl.ty.wrap.outer_non_null() && applied.arg(&arg_decl.name).is_none() {
                out.push(ConsistencyViolation::MissingDirectiveArg {
                    site: site.clone(),
                    directive: applied.name.clone(),
                    arg: arg_decl.name.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_schema;

    fn violations(src: &str) -> Vec<ConsistencyViolation> {
        check(&build_schema(&gql_sdl::parse(src).unwrap()).unwrap())
    }

    #[test]
    fn example_3_10_is_consistent() {
        let v = violations(
            r#"
            type Person { name: String! favoriteFood: Food }
            interface Food { name: String! }
            type Pizza implements Food { name: String! toppings: [String!]! }
            type Pasta implements Food { name: String! }
            "#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_interface_field_is_caught() {
        let v = violations("interface I { f: Int } type T implements I { g: Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::MissingInterfaceField { object, field, .. }]
                if object == "T" && field == "f"
        ));
    }

    #[test]
    fn field_type_must_be_subtype() {
        // Int vs String: unrelated.
        let v = violations("interface I { f: Int } type T implements I { f: String }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::FieldTypeNotSubtype { .. }]
        ));
        // Narrowing to an implementing type is fine.
        let v = violations(
            r#"
            interface Node { self: Node }
            type Doc implements Node { self: Doc }
            "#,
        );
        assert!(v.is_empty(), "{v:?}");
        // Non-null narrowing is fine (rule 6/7): f: Int! ⊑ f: Int.
        let v = violations("interface I { f: Int } type T implements I { f: Int! }");
        assert!(v.is_empty(), "{v:?}");
        // Widening from non-null to nullable is NOT.
        let v = violations("interface I { f: Int! } type T implements I { f: Int }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn interface_args_must_match_exactly() {
        let v =
            violations("interface I { f(a: Int): Int } type T implements I { f(a: Int!): Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::ArgTypeMismatch { .. }]
        ));
        let v = violations("interface I { f(a: Int): Int } type T implements I { f: Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::MissingInterfaceArg { .. }]
        ));
    }

    #[test]
    fn extra_args_must_be_nullable() {
        let v = violations("interface I { f: Int } type T implements I { f(extra: String!): Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::ExtraArgNonNull { arg, .. }] if arg == "extra"
        ));
        let v = violations("interface I { f: Int } type T implements I { f(extra: String): Int }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn key_directive_needs_its_fields_argument() {
        let v = violations("type T @key { f: Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::MissingDirectiveArg { arg, .. }] if arg == "fields"
        ));
        let v = violations(r#"type T @key(fields: ["f"]) { f: Int }"#);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn key_fields_value_must_be_string_list() {
        let v = violations("type T @key(fields: 3) { f: Int }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::DirectiveArgValueMismatch { .. }]
        ));
        let v = violations(r#"type T @key(fields: ["a", 3]) { a: Int }"#);
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::DirectiveArgValueMismatch { .. }]
        ));
    }

    #[test]
    fn built_in_directives_take_no_arguments() {
        let v = violations("type U {} type T { r: U @required(hard: true) }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::UndeclaredDirectiveArg { arg, .. }] if arg == "hard"
        ));
    }

    #[test]
    fn unknown_directive_without_args_is_consistent() {
        assert!(violations("type T { f: Int @fancy }").is_empty());
        let v = violations("type T { f: Int @fancy(x: 1) }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::UndeclaredDirectiveArg { .. }]
        ));
    }

    #[test]
    fn directives_on_args_are_checked_too() {
        let v = violations("type U {} type T { r(w: Float @fancy(x: 1)): U }");
        assert!(matches!(
            v.as_slice(),
            [ConsistencyViolation::UndeclaredDirectiveArg {
                site: DirectiveSite::Arg { .. },
                ..
            }]
        ));
    }

    #[test]
    fn violations_display() {
        let v = violations("interface I { f: Int } type T implements I { g: Int }");
        assert_eq!(v[0].to_string(), "type T implements I but lacks field `f`");
    }
}
