//! The schema data model (Definition 4.1).

use std::collections::HashMap;

use pgraph::Value;

use crate::wrap::WrappedType;

/// Index of a named type in a [`Schema`] (an element of `T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(u32);

impl TypeId {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Constructs from a raw index (used by tests and generators).
    pub fn from_index(ix: usize) -> Self {
        TypeId(ix as u32)
    }
}

/// The five built-in scalar types (§3.5 of the GraphQL spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinScalar {
    /// 32-bit signed integers (spec §3.5.1).
    Int,
    /// IEEE-754 doubles (spec §3.5.2).
    Float,
    /// UTF-8 strings (spec §3.5.3).
    String,
    /// Booleans (spec §3.5.4).
    Boolean,
    /// Identifiers (spec §3.5.5); serialised as strings, also accepting
    /// integer input.
    Id,
}

impl BuiltinScalar {
    /// The scalar's SDL name.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinScalar::Int => "Int",
            BuiltinScalar::Float => "Float",
            BuiltinScalar::String => "String",
            BuiltinScalar::Boolean => "Boolean",
            BuiltinScalar::Id => "ID",
        }
    }

    /// All five built-ins.
    pub const ALL: [BuiltinScalar; 5] = [
        BuiltinScalar::Int,
        BuiltinScalar::Float,
        BuiltinScalar::String,
        BuiltinScalar::Boolean,
        BuiltinScalar::Id,
    ];
}

/// Detail of a scalar type (an element of `S`). Following footnote 1 of
/// the paper, enums are folded into the scalars: an enum is a scalar whose
/// `values(t)` is its symbol set.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarInfo {
    /// One of the five built-ins.
    Builtin(BuiltinScalar),
    /// A user-declared `scalar` type. Its value set is unconstrained
    /// (any atomic value), which is the only sound reading of an opaque
    /// scalar like `scalar Time` in the paper's Example 3.1.
    Custom,
    /// An enum type; the payload is its symbol set.
    Enum(Vec<String>),
}

/// An applied directive — a pair `(d, argvals) ∈ D × AV` (Definition 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedDirective {
    /// The directive name `d`.
    pub name: String,
    /// The partial function `argvals : A ⇀ values`.
    pub args: Vec<(String, Value)>,
}

impl AppliedDirective {
    /// Value of argument `name`, if supplied.
    pub fn arg(&self, name: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A field argument definition (one entry of `typeAF`).
#[derive(Debug, Clone, PartialEq)]
pub struct ArgInfo {
    /// The argument's name (an element of `A`).
    pub name: String,
    /// The argument's type — an element of `S ∪ W_S` if the argument is
    /// usable as an edge-property specification; arguments whose declared
    /// type is not scalar-based are recorded with `scalar_based == false`
    /// and ignored by the Property-Graph semantics (paper §3.6).
    pub ty: WrappedType,
    /// True if `ty`'s base is a scalar (incl. enum) type.
    pub scalar_based: bool,
    /// Default value, if declared (kept for SDL fidelity; the paper's
    /// semantics does not use defaults).
    pub default: Option<Value>,
    /// Directives applied to the argument (`directivesAF`).
    pub directives: Vec<AppliedDirective>,
}

/// A field definition (one entry of `typeF`).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// The field's name (an element of `F`).
    pub name: String,
    /// The field's (possibly wrapped) type.
    pub ty: WrappedType,
    /// Argument definitions.
    pub args: Vec<ArgInfo>,
    /// Directives applied to the field (`directivesF`).
    pub directives: Vec<AppliedDirective>,
}

impl FieldInfo {
    /// The argument named `name`, if declared.
    pub fn arg(&self, name: &str) -> Option<&ArgInfo> {
        self.args.iter().find(|a| a.name == name)
    }

    /// True if a directive with this name is applied to the field.
    pub fn has_directive(&self, name: &str) -> bool {
        self.directives.iter().any(|d| d.name == name)
    }
}

/// Data common to object and interface types: an ordered field list with
/// an index by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectInfo {
    /// Interfaces this object type implements (object types only; always
    /// empty for interfaces — interface hierarchies don't exist in the
    /// June 2018 SDL).
    pub implements: Vec<TypeId>,
    /// Field definitions in declaration order.
    pub fields: Vec<FieldInfo>,
    pub(crate) field_index: HashMap<String, usize>,
}

impl ObjectInfo {
    /// The field named `name` (the paper's `fieldsS(t)` membership +
    /// `typeF` lookup in one).
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.field_index.get(name).map(|&ix| &self.fields[ix])
    }
}

/// What a named type is (partition of `T` into `OT ∪ IT ∪ UT ∪ S`).
#[derive(Debug, Clone, PartialEq)]
pub enum TypeKind {
    /// An object type (element of `OT`).
    Object(ObjectInfo),
    /// An interface type (element of `IT`).
    Interface(ObjectInfo),
    /// A union type (element of `UT`) with its member object types.
    Union(Vec<TypeId>),
    /// A scalar or enum type (element of `S`).
    Scalar(ScalarInfo),
}

/// One named type with its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeInfo {
    /// The type's name.
    pub name: String,
    /// The type's kind and payload.
    pub kind: TypeKind,
    /// Directives applied to the type definition (`directivesT`), e.g.
    /// `@key(fields: ["id"])`.
    pub directives: Vec<AppliedDirective>,
}

/// A directive declaration — one row of `typeAD` per argument.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectiveDecl {
    /// The directive's name (without `@`).
    pub name: String,
    /// Declared arguments with their (scalar-based) types.
    pub args: Vec<ArgInfo>,
    /// Declared locations (upper-case SDL location names). Empty means
    /// "anywhere" (used for the built-ins, which the paper declares
    /// without location restrictions).
    pub locations: Vec<String>,
}

impl DirectiveDecl {
    /// The declared argument named `name`.
    pub fn arg(&self, name: &str) -> Option<&ArgInfo> {
        self.args.iter().find(|a| a.name == name)
    }
}

/// A consistent-by-construction GraphQL schema over `(F, A, T, S, D)`.
///
/// Build one with [`crate::build_schema`]; query it through the accessor
/// methods. Type ids are dense indexes, so downstream engines can use
/// plain vectors keyed by `TypeId`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    pub(crate) types: Vec<TypeInfo>,
    pub(crate) by_name: HashMap<String, TypeId>,
    pub(crate) directive_decls: Vec<DirectiveDecl>,
    pub(crate) dir_by_name: HashMap<String, usize>,
    /// implementors\[it.index()\] = object types implementing `it`
    /// (empty vec for non-interfaces).
    pub(crate) implementors: Vec<Vec<TypeId>>,
    /// Names of input object types that were present in the SDL document
    /// but are ignored by the Property-Graph semantics (paper §3.6).
    pub(crate) ignored_input_types: Vec<String>,
}

impl Schema {
    /// Looks a type up by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// The type's name.
    pub fn type_name(&self, id: TypeId) -> &str {
        &self.types[id.index()].name
    }

    /// The type's full metadata.
    pub fn type_info(&self, id: TypeId) -> &TypeInfo {
        &self.types[id.index()]
    }

    /// All type ids.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.types.len() as u32).map(TypeId)
    }

    /// All object types (`OT`).
    pub fn object_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.type_ids()
            .filter(|id| matches!(self.types[id.index()].kind, TypeKind::Object(_)))
    }

    /// All interface types (`IT`).
    pub fn interface_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.type_ids()
            .filter(|id| matches!(self.types[id.index()].kind, TypeKind::Interface(_)))
    }

    /// All union types (`UT`).
    pub fn union_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.type_ids()
            .filter(|id| matches!(self.types[id.index()].kind, TypeKind::Union(_)))
    }

    /// The object payload if `id` is an object type.
    pub fn object_type(&self, id: TypeId) -> Option<&ObjectInfo> {
        match &self.types[id.index()].kind {
            TypeKind::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The interface payload if `id` is an interface type.
    pub fn interface_type(&self, id: TypeId) -> Option<&ObjectInfo> {
        match &self.types[id.index()].kind {
            TypeKind::Interface(o) => Some(o),
            _ => None,
        }
    }

    /// The fields of an object or interface type (`fieldsS(t)`), empty for
    /// other kinds.
    pub fn fields(&self, id: TypeId) -> impl Iterator<Item = &FieldInfo> {
        let obj = match &self.types[id.index()].kind {
            TypeKind::Object(o) | TypeKind::Interface(o) => Some(o),
            _ => None,
        };
        obj.into_iter().flat_map(|o| o.fields.iter())
    }

    /// `typeF(t, f)` together with the rest of the field definition.
    pub fn field(&self, t: TypeId, name: &str) -> Option<&FieldInfo> {
        match &self.types[t.index()].kind {
            TypeKind::Object(o) | TypeKind::Interface(o) => o.field(name),
            _ => None,
        }
    }

    /// `unionS(t)` — member object types of a union.
    pub fn union_members(&self, id: TypeId) -> &[TypeId] {
        match &self.types[id.index()].kind {
            TypeKind::Union(ms) => ms,
            _ => &[],
        }
    }

    /// `implementationS(t)` — object types implementing interface `t`.
    pub fn implementors(&self, id: TypeId) -> &[TypeId] {
        self.implementors.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// True if `id` is a scalar (including enum) type — membership in `S`.
    pub fn is_scalar(&self, id: TypeId) -> bool {
        matches!(self.types[id.index()].kind, TypeKind::Scalar(_))
    }

    /// True if `id` is an object type — membership in `OT`.
    pub fn is_object(&self, id: TypeId) -> bool {
        matches!(self.types[id.index()].kind, TypeKind::Object(_))
    }

    /// The scalar payload if `id` is a scalar type.
    pub fn scalar_info(&self, id: TypeId) -> Option<&ScalarInfo> {
        match &self.types[id.index()].kind {
            TypeKind::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Directives applied to a type definition (`directivesT(t)`).
    pub fn type_directives(&self, id: TypeId) -> &[AppliedDirective] {
        &self.types[id.index()].directives
    }

    /// The declaration of directive `name` (`typeAD` rows).
    pub fn directive_decl(&self, name: &str) -> Option<&DirectiveDecl> {
        self.dir_by_name
            .get(name)
            .map(|&ix| &self.directive_decls[ix])
    }

    /// All declared directives (the set `D`).
    pub fn directive_decls(&self) -> &[DirectiveDecl] {
        &self.directive_decls
    }

    /// Input object types that appeared in the source document but are not
    /// part of the formal schema (paper §3.6).
    pub fn ignored_input_types(&self) -> &[String] {
        &self.ignored_input_types
    }

    /// Renders a wrapped type using this schema's names.
    pub fn display_type(&self, ty: &WrappedType) -> String {
        let name = self.type_name(ty.base);
        match ty.wrap {
            crate::Wrap::Bare => name.to_owned(),
            crate::Wrap::NonNull => format!("{name}!"),
            crate::Wrap::List {
                inner_non_null,
                outer_non_null,
            } => format!(
                "[{name}{}]{}",
                if inner_non_null { "!" } else { "" },
                if outer_non_null { "!" } else { "" }
            ),
        }
    }
}
