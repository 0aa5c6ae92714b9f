//! Abstract syntax of SDL documents (spec §3, type-system definitions).
//!
//! Spans are recorded on every definition and field so that later layers
//! (schema building, consistency checking) can point diagnostics at source
//! locations. Span values are ignored by `PartialEq` comparisons of the
//! *printer round-trip tests* by re-parsing, so they do not obstruct
//! structural equality where it matters.

use std::fmt;

use crate::source::Span;

/// A parsed SDL document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// All type-system definitions in source order.
    pub definitions: Vec<Definition>,
}

impl Document {
    /// All object type definitions.
    pub fn object_types(&self) -> impl Iterator<Item = &ObjectTypeDef> {
        self.definitions.iter().filter_map(|d| match d {
            Definition::Type(TypeDef::Object(o)) => Some(o),
            _ => None,
        })
    }

    /// All interface type definitions.
    pub fn interface_types(&self) -> impl Iterator<Item = &InterfaceTypeDef> {
        self.definitions.iter().filter_map(|d| match d {
            Definition::Type(TypeDef::Interface(i)) => Some(i),
            _ => None,
        })
    }

    /// All union type definitions.
    pub fn union_types(&self) -> impl Iterator<Item = &UnionTypeDef> {
        self.definitions.iter().filter_map(|d| match d {
            Definition::Type(TypeDef::Union(u)) => Some(u),
            _ => None,
        })
    }

    /// Finds a type definition by name.
    pub fn type_def(&self, name: &str) -> Option<&TypeDef> {
        self.definitions.iter().find_map(|d| match d {
            Definition::Type(t) if t.name() == name => Some(t),
            _ => None,
        })
    }
}

/// A top-level definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Definition {
    /// A `schema { query: ... }` block (root operation types). Recognised
    /// and representable, but the Property-Graph-schema semantics ignores
    /// it (§3.6 of the paper).
    Schema(SchemaDef),
    /// A named type definition.
    Type(TypeDef),
    /// A type extension, e.g. `extend type User { … }` (spec §3.4.3).
    /// The payload reuses [`TypeDef`]; its name is the extension target.
    /// Fold extensions away with [`crate::extensions::merge_extensions`].
    Extend(TypeDef),
    /// A `directive @name(...) on ...` definition.
    Directive(DirectiveDef),
}

/// A `schema` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaDef {
    /// Directives applied to the schema block.
    pub directives: Vec<DirectiveUse>,
    /// `(operation, type name)` pairs: `query`, `mutation`, `subscription`.
    pub operations: Vec<(OperationKind, String)>,
    /// Source location.
    pub span: Span,
}

/// One of the three root operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperationKind {
    /// `query`
    Query,
    /// `mutation`
    Mutation,
    /// `subscription`
    Subscription,
}

impl fmt::Display for OperationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OperationKind::Query => "query",
            OperationKind::Mutation => "mutation",
            OperationKind::Subscription => "subscription",
        })
    }
}

/// Any named type definition.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDef {
    /// `scalar Time`
    Scalar(ScalarTypeDef),
    /// `type User { ... }`
    Object(ObjectTypeDef),
    /// `interface Food { ... }`
    Interface(InterfaceTypeDef),
    /// `union Food = Pizza | Pasta`
    Union(UnionTypeDef),
    /// `enum LenUnit { METER FEET }`
    Enum(EnumTypeDef),
    /// `input Point { x: Float y: Float }`
    InputObject(InputObjectTypeDef),
}

impl TypeDef {
    /// The defined type's name.
    pub fn name(&self) -> &str {
        match self {
            TypeDef::Scalar(d) => &d.name,
            TypeDef::Object(d) => &d.name,
            TypeDef::Interface(d) => &d.name,
            TypeDef::Union(d) => &d.name,
            TypeDef::Enum(d) => &d.name,
            TypeDef::InputObject(d) => &d.name,
        }
    }

    /// The definition's source location.
    pub fn span(&self) -> Span {
        match self {
            TypeDef::Scalar(d) => d.span,
            TypeDef::Object(d) => d.span,
            TypeDef::Interface(d) => d.span,
            TypeDef::Union(d) => d.span,
            TypeDef::Enum(d) => d.span,
            TypeDef::InputObject(d) => d.span,
        }
    }
}

/// `scalar Name`
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The scalar's name.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// Source location.
    pub span: Span,
}

/// `type Name implements A & B @dir { fields }`
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The object type's name.
    pub name: String,
    /// Names of implemented interfaces.
    pub implements: Vec<String>,
    /// Applied directives (e.g. `@key(fields: ["id"])`).
    pub directives: Vec<DirectiveUse>,
    /// Field definitions.
    pub fields: Vec<FieldDef>,
    /// Source location.
    pub span: Span,
}

/// `interface Name { fields }`
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The interface's name.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// Field definitions.
    pub fields: Vec<FieldDef>,
    /// Source location.
    pub span: Span,
}

/// `union Name = A | B`
#[derive(Debug, Clone, PartialEq)]
pub struct UnionTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The union's name.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// The member type names (must be object types).
    pub members: Vec<String>,
    /// Source location.
    pub span: Span,
}

/// `enum Name { VALUES }`
#[derive(Debug, Clone, PartialEq)]
pub struct EnumTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The enum's name.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// The enum's values.
    pub values: Vec<EnumValueDef>,
    /// Source location.
    pub span: Span,
}

/// One value of an enum type.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumValueDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The symbol, e.g. `METER`.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
}

/// `input Name { fields }` — representable but ignored by the
/// Property-Graph-schema semantics (paper §3.6 / §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct InputObjectTypeDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The input type's name.
    pub name: String,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// Input field definitions.
    pub fields: Vec<InputValueDef>,
    /// Source location.
    pub span: Span,
}

/// A field definition: `name(args): Type @directives`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The field's name.
    pub name: String,
    /// Argument definitions.
    pub args: Vec<InputValueDef>,
    /// The field's (possibly wrapped) type.
    pub ty: Type,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// Source location.
    pub span: Span,
}

/// An input value definition: `name: Type = default @directives`.
#[derive(Debug, Clone, PartialEq)]
pub struct InputValueDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The argument's name.
    pub name: String,
    /// The argument's (possibly wrapped) type.
    pub ty: Type,
    /// Optional default value.
    pub default: Option<ConstValue>,
    /// Applied directives.
    pub directives: Vec<DirectiveUse>,
    /// Source location.
    pub span: Span,
}

/// `directive @name(args) repeatable? on LOCATION | ...`
#[derive(Debug, Clone, PartialEq)]
pub struct DirectiveDef {
    /// Optional description string.
    pub description: Option<String>,
    /// The directive's name (without `@`).
    pub name: String,
    /// Argument definitions.
    pub args: Vec<InputValueDef>,
    /// Declared locations, e.g. `FIELD_DEFINITION`.
    pub locations: Vec<String>,
    /// Source location.
    pub span: Span,
}

/// A type reference: named, list-wrapped, or non-null-wrapped.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `Name`
    Named(String),
    /// `[T]`
    List(Box<Type>),
    /// `T!` (the inner type is never itself `NonNull`).
    NonNull(Box<Type>),
}

impl Type {
    /// The underlying named type — the paper's `basetype` function.
    pub fn base_name(&self) -> &str {
        match self {
            Type::Named(n) => n,
            Type::List(t) | Type::NonNull(t) => t.base_name(),
        }
    }

    /// True if a list type occurs anywhere in the wrapping.
    pub fn contains_list(&self) -> bool {
        match self {
            Type::Named(_) => false,
            Type::List(_) => true,
            Type::NonNull(t) => t.contains_list(),
        }
    }

    /// True if the outermost type is non-null.
    pub fn is_non_null(&self) -> bool {
        matches!(self, Type::NonNull(_))
    }

    /// Wrapping depth (number of `List`/`NonNull` layers).
    pub fn depth(&self) -> usize {
        match self {
            Type::Named(_) => 0,
            Type::List(t) | Type::NonNull(t) => 1 + t.depth(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Named(n) => f.write_str(n),
            Type::List(t) => write!(f, "[{t}]"),
            Type::NonNull(t) => write!(f, "{t}!"),
        }
    }
}

/// A constant value (no variables in SDL).
#[derive(Debug, Clone, PartialEq)]
pub enum ConstValue {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    String(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
    /// Enum symbol, e.g. `METER`.
    Enum(String),
    /// List literal.
    List(Vec<ConstValue>),
    /// Input object literal.
    Object(Vec<(String, ConstValue)>),
}

impl fmt::Display for ConstValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstValue::Int(i) => write!(f, "{i}"),
            ConstValue::Float(x) => {
                // Ensure a float round-trips as a float token.
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            ConstValue::String(s) => write!(f, "{s:?}"),
            ConstValue::Bool(b) => write!(f, "{b}"),
            ConstValue::Null => f.write_str("null"),
            ConstValue::Enum(n) => f.write_str(n),
            ConstValue::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            ConstValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// An applied directive: `@name(arg: value, ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectiveUse {
    /// The directive's name (without `@`).
    pub name: String,
    /// Supplied arguments in source order.
    pub args: Vec<(String, ConstValue)>,
    /// Source location.
    pub span: Span,
}

impl DirectiveUse {
    /// The value of argument `name`, if supplied.
    pub fn arg(&self, name: &str) -> Option<&ConstValue> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{Pos, Span};

    fn span() -> Span {
        Span::at(Pos::start())
    }

    #[test]
    fn type_display_covers_the_four_paper_wrappings() {
        let t = Type::Named("T".into());
        assert_eq!(t.to_string(), "T");
        assert_eq!(Type::NonNull(Box::new(t.clone())).to_string(), "T!");
        assert_eq!(Type::List(Box::new(t.clone())).to_string(), "[T]");
        let inner_nn = Type::List(Box::new(Type::NonNull(Box::new(t.clone()))));
        assert_eq!(inner_nn.to_string(), "[T!]");
        assert_eq!(Type::NonNull(Box::new(inner_nn)).to_string(), "[T!]!");
    }

    #[test]
    fn base_name_unwraps() {
        let t = Type::NonNull(Box::new(Type::List(Box::new(Type::NonNull(Box::new(
            Type::Named("X".into()),
        ))))));
        assert_eq!(t.base_name(), "X");
        assert!(t.contains_list());
        assert!(t.is_non_null());
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn const_value_display() {
        assert_eq!(ConstValue::Int(3).to_string(), "3");
        assert_eq!(ConstValue::Float(2.0).to_string(), "2.0");
        assert_eq!(ConstValue::Float(2.5).to_string(), "2.5");
        assert_eq!(ConstValue::String("a\"b".into()).to_string(), r#""a\"b""#);
        assert_eq!(
            ConstValue::List(vec![ConstValue::Int(1), ConstValue::Enum("E".into())]).to_string(),
            "[1, E]"
        );
        assert_eq!(
            ConstValue::Object(vec![("x".into(), ConstValue::Null)]).to_string(),
            "{x: null}"
        );
    }

    #[test]
    fn directive_arg_lookup() {
        let d = DirectiveUse {
            name: "key".into(),
            args: vec![(
                "fields".into(),
                ConstValue::List(vec![ConstValue::String("id".into())]),
            )],
            span: span(),
        };
        assert!(d.arg("fields").is_some());
        assert!(d.arg("other").is_none());
    }
}
