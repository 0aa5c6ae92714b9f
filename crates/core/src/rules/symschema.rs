//! The schema, compiled onto a symbol space.
//!
//! The columnar kernels identify labels and property keys by [`Sym`], so
//! every per-element schema question ("is this label a subtype of the
//! site?", "which attribute backs this property?") must be answerable
//! without touching strings. [`SymSchema::build`] interns every name the
//! schema mentions into the graph's [`SymbolTable`] and then compiles one
//! [`LabelRow`] **per symbol in the table** — graph labels, property
//! keys and schema names alike — with:
//!
//! * the resolved [`TypeId`] (if the symbol names a schema type) and its
//!   sorted named-supertype set, turning `λ(v) ⊑ t` into a binary search
//!   over `u32`s;
//! * symbol-keyed attribute / relationship / field tables with the
//!   violation-report strings (`display_type` renderings, base type
//!   names) precomputed, so emitting a violation allocates exactly the
//!   strings the report needs and nothing else;
//! * per constraint site, the precomputed wrapped-subtype bit DS4 asks
//!   for.
//!
//! Rows cover every symbol interned before the build; a symbol interned
//! afterwards gets the empty row. **Schema first, graph after** is
//! therefore sound: the build interns every name the schema mentions, so
//! a later symbol names no schema type, `label_type` is `None` for it,
//! and every row bit (`is_object`, the supertypes, the DS4 site bits, the
//! field tables) is false or empty — exactly the empty row. That is what
//! lets a [`PgSchema`] compile itself once onto a schema-only table
//! ([`PgSchema::compiled`]): the full-pass engines freeze each graph into
//! a clone of that table, and the migration preview freezes its
//! [`RegionCols`](super::region::RegionCols) into one. The incremental
//! engine compiles onto its own growing table, because a migration window
//! compiles a second schema onto the same symbols; each delta's region
//! borrows that table by value and hands it back.

use gql_schema::TypeId;
use pgraph::{Sym, SymbolTable};

use crate::pgschema::PgSchema;

use super::directives::ds7_scalar_fields;

/// One attribute definition, symbol-keyed (WS1, DS5, SS2).
pub(crate) struct AttrSlot {
    /// The declared value type.
    pub(crate) ty: gql_schema::WrappedType,
    /// `display_type(ty)` — the report's `expected` string, precomputed.
    pub(crate) expected: String,
}

/// One edge-property definition of a relationship (WS2, SS3).
pub(crate) struct EdgePropSlot {
    pub(crate) ty: gql_schema::WrappedType,
    pub(crate) expected: String,
}

/// One relationship definition, symbol-keyed (WS2, SS3, SS4).
pub(crate) struct RelSlot {
    /// Edge properties sorted by name symbol.
    edge_props: Vec<(Sym, EdgePropSlot)>,
}

impl RelSlot {
    /// The edge-property definition for a property-key symbol.
    pub(crate) fn edge_prop(&self, prop: Sym) -> Option<&EdgePropSlot> {
        self.edge_props
            .binary_search_by_key(&prop, |&(k, _)| k)
            .ok()
            .map(|i| &self.edge_props[i].1)
    }
}

/// One field definition (attribute *or* relationship) of a type —
/// WS3/WS4 consult all fields.
pub(crate) struct FieldSlot {
    /// `basetype` of the field's declared type.
    pub(crate) base: TypeId,
    /// Whether the declared type is a list type (WS4).
    pub(crate) is_list: bool,
    /// `type_name(base)` — WS3's `expected` string, precomputed.
    pub(crate) base_name: String,
}

/// Everything the kernels ask about one label symbol.
pub(crate) struct LabelRow {
    /// True when the symbol names an object type (SS1).
    pub(crate) is_object: bool,
    /// Named supertypes of `ty`, sorted — `⊑` is a binary search.
    supers: Vec<TypeId>,
    /// Per constraint site (index into [`SymSchema::sites`]): whether
    /// this label sits below the site's wrapped field type (DS4). Empty
    /// for a symbol that names no schema type.
    site_target_ok: Vec<bool>,
    /// Attribute definitions sorted by name symbol.
    attrs: Vec<(Sym, AttrSlot)>,
    /// Relationship definitions sorted by name symbol.
    rels: Vec<(Sym, RelSlot)>,
    /// All field definitions sorted by name symbol.
    fields: Vec<(Sym, FieldSlot)>,
}

impl LabelRow {
    /// `λ(v) ⊑ t` for this label.
    #[inline]
    pub(crate) fn subtype(&self, t: TypeId) -> bool {
        self.supers.binary_search(&t).is_ok()
    }

    /// The attribute definition backing a property-key symbol.
    pub(crate) fn attr(&self, prop: Sym) -> Option<&AttrSlot> {
        self.attrs
            .binary_search_by_key(&prop, |&(k, _)| k)
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// The relationship definition backing an edge-label symbol.
    pub(crate) fn rel(&self, name: Sym) -> Option<&RelSlot> {
        self.rels
            .binary_search_by_key(&name, |&(k, _)| k)
            .ok()
            .map(|i| &self.rels[i].1)
    }

    /// The field definition (any class) for a field-name symbol.
    pub(crate) fn field(&self, name: Sym) -> Option<&FieldSlot> {
        self.fields
            .binary_search_by_key(&name, |&(k, _)| k)
            .ok()
            .map(|i| &self.fields[i].1)
    }

    /// DS4's `label ⊑ wrapped(site.rel.ty)` bit for site index `si`.
    #[inline]
    pub(crate) fn site_target_ok(&self, si: usize) -> bool {
        self.site_target_ok.get(si).copied().unwrap_or(false)
    }
}

fn empty_row() -> &'static LabelRow {
    static EMPTY: LabelRow = LabelRow {
        is_object: false,
        supers: Vec::new(),
        site_target_ok: Vec::new(),
        attrs: Vec::new(),
        rels: Vec::new(),
        fields: Vec::new(),
    };
    &EMPTY
}

/// One directive-bearing relationship site (DS1–DS4, DS6), with the
/// relationship name interned and the report strings precomputed.
pub(crate) struct SiteSlot {
    /// The type carrying the field definition.
    pub(crate) site: TypeId,
    /// `type_name(site)` (DS4's `site` report field).
    pub(crate) site_name: String,
    /// The relationship name's symbol.
    pub(crate) rel_sym: Sym,
    /// The relationship name (report `field`).
    pub(crate) rel_name: String,
    /// `@distinct` (DS1).
    pub(crate) distinct: bool,
    /// `@noLoops` (DS2).
    pub(crate) no_loops: bool,
    /// `@uniqueForTarget` (DS3).
    pub(crate) unique_for_target: bool,
    /// `@requiredForTarget` (DS4).
    pub(crate) required_for_target: bool,
    /// `@required` (DS6).
    pub(crate) required: bool,
}

/// One required attribute site (DS5), in the schedule's fixed order
/// (object types then interface types, field order within a type).
pub(crate) struct Ds5Site {
    /// The type declaring the required attribute.
    pub(crate) t: TypeId,
    /// The attribute name (report `field`).
    pub(crate) name: String,
    /// Its symbol.
    pub(crate) sym: Sym,
    /// Whether the declared type is a list (empty-list check).
    pub(crate) is_list: bool,
}

/// One `@key` constraint (DS7) with its scalar fields interned.
pub(crate) struct KeySlot {
    /// The key's site type.
    pub(crate) site: TypeId,
    /// `type_name(site)` (report `ty`).
    pub(crate) ty_name: String,
    /// All declared key fields (report `fields`).
    pub(crate) fields: Vec<String>,
    /// Symbols of the scalar key fields (tuple columns).
    pub(crate) scalar_syms: Vec<Sym>,
}

/// The compiled, symbol-keyed view of a [`PgSchema`]. See module docs.
pub(crate) struct SymSchema {
    rows: Vec<LabelRow>,
    /// Constraint sites in schema order.
    pub(crate) sites: Vec<SiteSlot>,
    /// DS5 sites in schedule order.
    pub(crate) ds5_sites: Vec<Ds5Site>,
    /// Key constraints in schema order.
    pub(crate) keys: Vec<KeySlot>,
}

impl SymSchema {
    /// Interns every schema name into `symbols` and compiles one row per
    /// symbol currently in the table. Symbols interned later get the
    /// empty row (see module docs).
    pub(crate) fn build(s: &PgSchema, symbols: &mut SymbolTable) -> SymSchema {
        let schema = s.schema();

        // Phase 1: intern every name the kernels may look up, so phase 2
        // resolves them and the row table covers schema-named labels.
        for t in schema.type_ids() {
            symbols.intern(schema.type_name(t));
            for f in schema.fields(t) {
                symbols.intern(&f.name);
                for a in &f.args {
                    symbols.intern(&a.name);
                }
            }
        }

        let sites: Vec<SiteSlot> = s
            .constraint_sites()
            .iter()
            .map(|cs| SiteSlot {
                site: cs.site,
                site_name: schema.type_name(cs.site).to_owned(),
                rel_sym: symbols.intern(&cs.rel.name),
                rel_name: cs.rel.name.clone(),
                distinct: cs.rel.distinct,
                no_loops: cs.rel.no_loops,
                unique_for_target: cs.rel.unique_for_target,
                required_for_target: cs.rel.required_for_target,
                required: cs.rel.required,
            })
            .collect();

        let ds5_types: Vec<TypeId> = schema
            .object_types()
            .chain(schema.interface_types())
            .collect();
        let mut ds5_sites = Vec::new();
        for t in ds5_types {
            for a in s.attributes(t).iter().filter(|a| a.required) {
                ds5_sites.push(Ds5Site {
                    t,
                    name: a.name.clone(),
                    sym: symbols.intern(&a.name),
                    is_list: a.ty.is_list(),
                });
            }
        }

        let keys: Vec<KeySlot> = s
            .keys()
            .iter()
            .map(|key| KeySlot {
                site: key.site,
                ty_name: schema.type_name(key.site).to_owned(),
                fields: key.fields.clone(),
                scalar_syms: ds7_scalar_fields(s, key)
                    .into_iter()
                    .map(|f| symbols.intern(f))
                    .collect(),
            })
            .collect();

        // Phase 2: one row per symbol. Nothing is interned here, so row
        // index == symbol index for every symbol the kernels can see.
        let count = symbols.len();
        let mut rows = Vec::with_capacity(count);
        for ix in 0..count {
            let name = symbols.resolve(Sym::from_index(ix));
            let ty = s.label_type(name);
            let supers: Vec<TypeId> = match ty {
                Some(_) => {
                    let mut v: Vec<TypeId> = schema
                        .type_ids()
                        .filter(|&t| s.label_subtype(name, t))
                        .collect();
                    v.sort_unstable();
                    v
                }
                None => Vec::new(),
            };
            // Only a type name can sit below a site's field type; every
            // other row keeps no bits and reads false for each site.
            let site_target_ok: Vec<bool> = match ty {
                Some(_) => s
                    .constraint_sites()
                    .iter()
                    .map(|cs| s.label_subtype_wrapped(name, &cs.rel.ty))
                    .collect(),
                None => Vec::new(),
            };
            let mut attrs = Vec::new();
            let mut rels = Vec::new();
            let mut fields = Vec::new();
            if let Some(t) = ty {
                for a in s.attributes(t) {
                    let sym = symbols.lookup(&a.name).expect("interned in phase 1");
                    attrs.push((
                        sym,
                        AttrSlot {
                            ty: a.ty,
                            expected: s.display_type(&a.ty),
                        },
                    ));
                }
                attrs.sort_unstable_by_key(|&(k, _)| k);
                for r in s.relationships(t) {
                    let sym = symbols.lookup(&r.name).expect("interned in phase 1");
                    let mut edge_props: Vec<(Sym, EdgePropSlot)> = r
                        .edge_props
                        .iter()
                        .map(|ep| {
                            (
                                symbols.lookup(&ep.name).expect("interned in phase 1"),
                                EdgePropSlot {
                                    ty: ep.ty,
                                    expected: s.display_type(&ep.ty),
                                },
                            )
                        })
                        .collect();
                    edge_props.sort_unstable_by_key(|&(k, _)| k);
                    rels.push((sym, RelSlot { edge_props }));
                }
                rels.sort_unstable_by_key(|&(k, _)| k);
                for f in schema.fields(t) {
                    let sym = symbols.lookup(&f.name).expect("interned in phase 1");
                    fields.push((
                        sym,
                        FieldSlot {
                            base: f.ty.base,
                            is_list: f.ty.is_list(),
                            base_name: schema.type_name(f.ty.base).to_owned(),
                        },
                    ));
                }
                fields.sort_unstable_by_key(|&(k, _)| k);
            }
            rows.push(LabelRow {
                is_object: s.is_object_label(name),
                supers,
                site_target_ok,
                attrs,
                rels,
                fields,
            });
        }

        SymSchema {
            rows,
            sites,
            ds5_sites,
            keys,
        }
    }

    /// The row for a label symbol; symbols interned after the build get
    /// the unknown-label row.
    #[inline]
    pub(crate) fn row(&self, sym: Sym) -> &LabelRow {
        self.rows.get(sym.index()).unwrap_or_else(|| empty_row())
    }

    /// `λ(v) ⊑ t` by symbol.
    #[inline]
    pub(crate) fn label_subtype(&self, label: Sym, t: TypeId) -> bool {
        self.row(label).subtype(t)
    }

    /// `λ(v) ⊑ t` for a possibly-unknown label (edge endpoints).
    #[inline]
    pub(crate) fn label_subtype_opt(&self, label: Option<Sym>, t: TypeId) -> bool {
        label.is_some_and(|l| self.label_subtype(l, t))
    }

    /// The relationship definition `(λ(src), name)`, tolerating an
    /// unknown source label.
    #[inline]
    pub(crate) fn relationship(&self, label: Option<Sym>, name: Sym) -> Option<&RelSlot> {
        self.row(label?).rel(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pg(src: &str) -> PgSchema {
        PgSchema::parse(src).unwrap()
    }

    #[test]
    fn rows_cover_graph_symbols_interned_first() {
        let mut syms = SymbolTable::new();
        // Graph side interned first: a label the schema knows, one it
        // does not, and a property key.
        let user = syms.intern("User");
        let ghost = syms.intern("Ghost");
        let login = syms.intern("login");
        let s = pg(r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User] @distinct
            }
        "#);
        let ss = SymSchema::build(&s, &mut syms);
        let user_t = s.label_type("User").unwrap();
        assert!(ss.row(user).is_object);
        assert!(ss.label_subtype(user, user_t));
        assert!(!ss.row(ghost).is_object);
        assert!(!ss.label_subtype(ghost, user_t));
        // Attribute lookup by property-key symbol.
        let attr = ss.row(user).attr(login).unwrap();
        assert_eq!(attr.expected, "String!");
        assert!(ss.row(ghost).attr(login).is_none());
        // Relationship lookup via the site table.
        assert_eq!(ss.sites.len(), 1);
        assert!(ss.sites[0].distinct);
        assert!(ss.relationship(Some(user), ss.sites[0].rel_sym).is_some());
        assert!(ss.relationship(None, ss.sites[0].rel_sym).is_none());
        // Key slots carry interned scalar fields.
        assert_eq!(ss.keys.len(), 1);
        assert_eq!(ss.keys[0].scalar_syms, vec![login]);
        assert_eq!(ss.keys[0].ty_name, "User");
    }

    #[test]
    fn foreign_symbols_get_the_empty_row() {
        let mut syms = SymbolTable::new();
        let s = pg("type A { x: Int }");
        let ss = SymSchema::build(&s, &mut syms);
        let late = syms.intern("interned-after-build");
        assert!(ss.row(late).attr(late).is_none());
        assert!(!ss.row(late).is_object);
        assert!(!ss.row(late).site_target_ok(0));
    }

    /// Schema first, graph after answers every kernel question the way
    /// graph first, schema after does — the memo's interning order.
    #[test]
    fn schema_first_order_gives_the_same_rows() {
        let s = pg(r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User] @distinct @requiredForTarget
            }
        "#);
        let user_t = s.label_type("User").unwrap();
        let graph_names = ["Ghost", "User", "login", "follows", "haunts"];
        let mut graph_first = SymbolTable::new();
        for name in graph_names {
            graph_first.intern(name);
        }
        let a = SymSchema::build(&s, &mut graph_first);
        let mut schema_first = SymbolTable::new();
        let b = SymSchema::build(&s, &mut schema_first);
        for name in graph_names {
            schema_first.intern(name);
        }
        for name in graph_names {
            let (ta, tb) = (&graph_first, &schema_first);
            let (ra, rb) = (
                a.row(ta.lookup(name).unwrap()),
                b.row(tb.lookup(name).unwrap()),
            );
            assert_eq!(ra.is_object, rb.is_object, "{name}");
            assert_eq!(ra.subtype(user_t), rb.subtype(user_t), "{name}");
            assert_eq!(ra.site_target_ok(0), rb.site_target_ok(0), "{name}");
            for field in ["login", "follows"] {
                let (fa, fb) = (ta.lookup(field).unwrap(), tb.lookup(field).unwrap());
                assert_eq!(
                    ra.attr(fa).is_some(),
                    rb.attr(fb).is_some(),
                    "{name}.{field}"
                );
                assert_eq!(ra.rel(fa).is_some(), rb.rel(fb).is_some(), "{name}.{field}");
                assert_eq!(
                    ra.field(fa).is_some(),
                    rb.field(fb).is_some(),
                    "{name}.{field}"
                );
            }
        }
        // Only the graph-only names were interned after the build.
        assert!(schema_first.lookup("Ghost").unwrap().index() >= b.rows.len());
        assert!(schema_first.lookup("User").unwrap().index() < b.rows.len());
    }

    #[test]
    fn interface_supertypes_are_searchable() {
        let mut syms = SymbolTable::new();
        let s = pg(r#"
            interface IT { x: Int }
            type A implements IT { x: Int }
            type B { y: Int }
        "#);
        let ss = SymSchema::build(&s, &mut syms);
        let a = syms.lookup("A").unwrap();
        let b = syms.lookup("B").unwrap();
        let it = s.label_type("IT").unwrap();
        assert!(ss.label_subtype(a, it));
        assert!(!ss.label_subtype(b, it));
        assert!(ss.label_subtype_opt(Some(a), it));
        assert!(!ss.label_subtype_opt(None, it));
    }
}
