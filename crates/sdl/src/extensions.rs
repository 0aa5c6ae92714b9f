//! Folding type extensions (spec §3.4.3) into their base definitions.
//!
//! `extend type T { … }` adds fields, interfaces and directives to a
//! previously defined `T`; likewise for the other definition kinds.
//! [`merge_extensions`] rewrites a document into an extension-free
//! equivalent, which is what the schema builder consumes.

use std::fmt;

use crate::ast::*;
use crate::source::Span;

/// A failure while folding extensions.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The extension targets a type that is not defined in the document.
    UnknownTarget {
        /// The extension target's name.
        name: String,
        /// The extension's source location.
        span: Span,
    },
    /// The extension's kind does not match the base definition (e.g.
    /// `extend enum X` where `X` is an object type).
    KindMismatch {
        /// The extension target's name.
        name: String,
        /// The extension's source location.
        span: Span,
    },
    /// The extension re-declares a field/member/value the base (or an
    /// earlier extension) already has.
    Duplicate {
        /// The target type.
        name: String,
        /// The duplicated item.
        item: String,
        /// The extension's source location.
        span: Span,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::UnknownTarget { name, span } => {
                write!(f, "{span}: extension of unknown type `{name}`")
            }
            MergeError::KindMismatch { name, span } => {
                write!(
                    f,
                    "{span}: extension kind does not match definition of `{name}`"
                )
            }
            MergeError::Duplicate { name, item, span } => {
                write!(f, "{span}: extension of `{name}` re-declares `{item}`")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Returns an extension-free document equivalent to `doc`, or the first
/// merge error. A document without extensions is returned unchanged
/// (cheaply cloned).
pub fn merge_extensions(doc: &Document) -> Result<Document, MergeError> {
    let mut out = Document {
        definitions: doc
            .definitions
            .iter()
            .filter(|d| !matches!(d, Definition::Extend(_)))
            .cloned()
            .collect(),
    };
    for def in &doc.definitions {
        let Definition::Extend(ext) = def else {
            continue;
        };
        let name = ext.name().to_owned();
        let span = ext.span();
        let base = out
            .definitions
            .iter_mut()
            .find_map(|d| match d {
                Definition::Type(t) if t.name() == name => Some(t),
                _ => None,
            })
            .ok_or_else(|| MergeError::UnknownTarget {
                name: name.clone(),
                span,
            })?;
        match (base, ext) {
            (TypeDef::Object(b), TypeDef::Object(e)) => {
                for i in &e.implements {
                    if b.implements.contains(i) {
                        return Err(MergeError::Duplicate {
                            name,
                            item: format!("implements {i}"),
                            span,
                        });
                    }
                    b.implements.push(i.clone());
                }
                merge_fields(&mut b.fields, &e.fields, &name, span)?;
                b.directives.extend(e.directives.iter().cloned());
            }
            (TypeDef::Interface(b), TypeDef::Interface(e)) => {
                merge_fields(&mut b.fields, &e.fields, &name, span)?;
                b.directives.extend(e.directives.iter().cloned());
            }
            (TypeDef::Union(b), TypeDef::Union(e)) => {
                for m in &e.members {
                    if b.members.contains(m) {
                        return Err(MergeError::Duplicate {
                            name,
                            item: m.clone(),
                            span,
                        });
                    }
                    b.members.push(m.clone());
                }
                b.directives.extend(e.directives.iter().cloned());
            }
            (TypeDef::Enum(b), TypeDef::Enum(e)) => {
                for v in &e.values {
                    if b.values.iter().any(|x| x.name == v.name) {
                        return Err(MergeError::Duplicate {
                            name,
                            item: v.name.clone(),
                            span,
                        });
                    }
                    b.values.push(v.clone());
                }
                b.directives.extend(e.directives.iter().cloned());
            }
            (TypeDef::Scalar(b), TypeDef::Scalar(e)) => {
                b.directives.extend(e.directives.iter().cloned());
            }
            (TypeDef::InputObject(b), TypeDef::InputObject(e)) => {
                for f in &e.fields {
                    if b.fields.iter().any(|x| x.name == f.name) {
                        return Err(MergeError::Duplicate {
                            name,
                            item: f.name.clone(),
                            span,
                        });
                    }
                    b.fields.push(f.clone());
                }
                b.directives.extend(e.directives.iter().cloned());
            }
            _ => return Err(MergeError::KindMismatch { name, span }),
        }
    }
    Ok(out)
}

fn merge_fields(
    base: &mut Vec<FieldDef>,
    ext: &[FieldDef],
    name: &str,
    span: Span,
) -> Result<(), MergeError> {
    for f in ext {
        if base.iter().any(|x| x.name == f.name) {
            return Err(MergeError::Duplicate {
                name: name.to_owned(),
                item: f.name.clone(),
                span,
            });
        }
        base.push(f.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn object_extension_adds_fields_and_interfaces() {
        let doc = parse(
            r#"
            interface Node { id: ID! }
            type User { id: ID! }
            extend type User implements Node { email: String }
            "#,
        )
        .unwrap();
        let merged = merge_extensions(&doc).unwrap();
        assert_eq!(merged.definitions.len(), 2);
        let user = merged.object_types().find(|o| o.name == "User").unwrap();
        assert_eq!(user.implements, vec!["Node"]);
        assert_eq!(user.fields.len(), 2);
        assert_eq!(user.fields[1].name, "email");
    }

    #[test]
    fn enum_union_scalar_extensions() {
        let doc = parse(
            r#"
            enum Unit { METER }
            extend enum Unit { FEET }
            union Food = Pizza
            extend union Food = Pasta
            type Pizza { n: Int }
            type Pasta { n: Int }
            scalar Time
            extend scalar Time @fancy
            "#,
        )
        .unwrap();
        let merged = merge_extensions(&doc).unwrap();
        let TypeDef::Enum(unit) = merged.type_def("Unit").unwrap() else {
            panic!();
        };
        assert_eq!(unit.values.len(), 2);
        let TypeDef::Union(food) = merged.type_def("Food").unwrap() else {
            panic!();
        };
        assert_eq!(food.members, vec!["Pizza", "Pasta"]);
        let TypeDef::Scalar(time) = merged.type_def("Time").unwrap() else {
            panic!();
        };
        assert_eq!(time.directives.len(), 1);
    }

    #[test]
    fn merge_errors() {
        let unknown = parse("extend type Ghost { x: Int }").unwrap();
        assert!(matches!(
            merge_extensions(&unknown),
            Err(MergeError::UnknownTarget { .. })
        ));
        let mismatch = parse("type T { x: Int } extend enum T { A }").unwrap();
        assert!(matches!(
            merge_extensions(&mismatch),
            Err(MergeError::KindMismatch { .. })
        ));
        let dup = parse("type T { x: Int } extend type T { x: Float }").unwrap();
        assert!(matches!(
            merge_extensions(&dup),
            Err(MergeError::Duplicate { .. })
        ));
        let dup_enum = parse("enum E { A } extend enum E { A }").unwrap();
        assert!(matches!(
            merge_extensions(&dup_enum),
            Err(MergeError::Duplicate { .. })
        ));
    }

    #[test]
    fn extension_free_documents_pass_through() {
        let doc = parse("type T { x: Int }").unwrap();
        assert_eq!(merge_extensions(&doc).unwrap(), doc);
    }

    #[test]
    fn extensions_chain() {
        let doc =
            parse("type T { a: Int } extend type T { b: Int } extend type T { c: Int }").unwrap();
        let merged = merge_extensions(&doc).unwrap();
        let t = merged.object_types().next().unwrap();
        let names: Vec<&str> = t.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn extensions_print_and_roundtrip() {
        let doc = parse("type T { a: Int }\nextend type T { b: Int }").unwrap();
        let printed = crate::print_document(&doc);
        assert!(printed.contains("extend type T"), "{printed}");
        let reparsed = parse(&printed).unwrap();
        // Compare span-insensitively via the canonical printer.
        assert_eq!(
            crate::print_document(&merge_extensions(&reparsed).unwrap()),
            crate::print_document(&merge_extensions(&doc).unwrap())
        );
    }
}
