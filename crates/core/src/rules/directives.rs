//! Kernels for directive satisfaction — rules DS1–DS7 (Definition 5.2).
//!
//! DS7 (`@key`) is the one rule relating *pairs* of nodes, so its kernel
//! is split into a tuple-collect and a pair-emit phase. The three
//! [`Ds7Plan`](super::Ds7Plan)s compose them differently: [`ds7`] runs
//! both inline, [`ds7_map`] collects shard-local tables for a later
//! cross-shard [`ds7_emit`] reduce, and [`ds7_recheck`] maintains the
//! persistent [`KeyTable`]s of an incremental session.
//!
//! The collect phase is allocation-free per node: a key tuple is the
//! vector of `Option<u32>` *value-class ids* over the key's scalar fields
//! ([`ValueTable::eq_rep`](pgraph::ValueTable) collapses ids to one
//! representative per `Value`-equal class), so tuple equality coincides
//! with the `Value`-tuple equality the paper's "agree" relation asks for
//! — including across shards, because the ids are global to the columns
//! scanned.

use std::collections::{BTreeSet, HashMap};

use pgraph::{NodeId, PropertyGraph, Value};

use crate::pgschema::{KeyConstraint, PgSchema};
use crate::report::{Rule, Violation};
use crate::ValidationOptions;

use super::symschema::KeySlot;
use super::{Scope, Sink};

/// DS1 (`@distinct`): no parallel edges between the same endpoints with
/// the same label — via the parallel-edge groups whose source the scope
/// owns.
pub(crate) fn ds1(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS1, |sink| {
        let ss = scope.ss;
        for site in &ss.sites {
            if !site.distinct {
                continue;
            }
            scope.for_parallel_runs(site.rel_sym, &mut |src, dst, edges| {
                if sink.at_limit() {
                    return false;
                }
                sink.group_visited();
                if edges.len() < 2 {
                    return true;
                }
                if ss.label_subtype_opt(scope.label_sym(src), site.site) {
                    sink.push(Violation::DistinctViolated {
                        source: src,
                        target: dst,
                        field: site.rel_name.clone(),
                        count: edges.len(),
                    });
                }
                true
            });
        }
    });
}

/// DS2 (`@noLoops`): no self-loops — one scan over the scope's edges per
/// run (all loop sites checked in the same pass).
pub(crate) fn ds2(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS2, |sink| {
        let ss = scope.ss;
        let loop_sites: Vec<_> = ss.sites.iter().filter(|site| site.no_loops).collect();
        if loop_sites.is_empty() {
            return;
        }
        for e in scope.edges() {
            if sink.at_limit() {
                return;
            }
            sink.edge_visited();
            if e.src != e.dst {
                continue;
            }
            for site in &loop_sites {
                if e.label == site.rel_sym
                    && ss.label_subtype_opt(scope.label_sym(e.src), site.site)
                {
                    sink.push(Violation::LoopViolated {
                        node: e.src,
                        field: site.rel_name.clone(),
                    });
                }
            }
        }
    });
}

/// DS3 (`@uniqueForTarget`): at most one incoming edge per target — via
/// the `(target, label)` in-groups whose target the scope owns, counting
/// only edges whose source is below the constraint site (cf. the DS3
/// reading note in the naive engine).
pub(crate) fn ds3(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS3, |sink| {
        let ss = scope.ss;
        for site in &ss.sites {
            if !site.unique_for_target {
                continue;
            }
            scope.for_in_runs(site.rel_sym, &mut |target, edges| {
                if sink.at_limit() {
                    return false;
                }
                sink.group_visited();
                if edges.len() < 2 {
                    return true;
                }
                let count = edges
                    .iter()
                    .filter(|&e| {
                        let src = scope.edge_source(e);
                        src.is_some_and(|v| ss.label_subtype_opt(scope.label_sym(v), site.site))
                    })
                    .count();
                if count > 1 {
                    sink.push(Violation::UniqueForTargetViolated {
                        target,
                        field: site.rel_name.clone(),
                        count,
                    });
                }
                true
            });
        }
    });
}

/// DS4 (`@requiredForTarget`): at least one incoming edge per target —
/// via the label index: for every owned node whose label is below the
/// field type, check the incoming `(target, label)` group.
pub(crate) fn ds4(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS4, |sink| {
        let ss = scope.ss;
        for (si, site) in ss.sites.iter().enumerate() {
            if !site.required_for_target {
                continue;
            }
            for &label in scope.labels() {
                if sink.at_limit() {
                    return;
                }
                if !ss.row(label).site_target_ok(si) {
                    continue;
                }
                for n in scope.nodes_with_label(label) {
                    if !scope.owns(n) {
                        continue;
                    }
                    sink.group_visited();
                    let ok = scope.in_edges_labelled(n, site.rel_sym).iter().any(|e| {
                        scope.edge_source(e).is_some_and(|src| {
                            ss.label_subtype_opt(scope.label_sym(src), site.site)
                        })
                    });
                    if !ok {
                        sink.push(Violation::RequiredForTargetViolated {
                            target: n,
                            field: site.rel_name.clone(),
                            site: site.site_name.clone(),
                        });
                    }
                }
            }
        }
    });
}

/// DS5 (`@required` on attributes): required properties are present and
/// non-empty — via the label index, over owned nodes.
pub(crate) fn ds5(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS5, |sink| {
        let ss = scope.ss;
        for site in &ss.ds5_sites {
            for &label in scope.labels() {
                if sink.at_limit() {
                    return;
                }
                if !ss.label_subtype(label, site.t) {
                    continue;
                }
                for n in scope.nodes_with_label(label) {
                    if !scope.owns(n) {
                        continue;
                    }
                    sink.group_visited();
                    match scope.node_prop(n, site.sym) {
                        None => sink.push(Violation::RequiredPropertyMissing {
                            node: n,
                            field: site.name.clone(),
                            empty_list: false,
                        }),
                        Some(Value::List(items)) if site.is_list && items.is_empty() => {
                            sink.push(Violation::RequiredPropertyMissing {
                                node: n,
                                field: site.name.clone(),
                                empty_list: true,
                            });
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    });
}

/// DS6 (`@required` on relationships): required outgoing edges exist —
/// via the label index and out-groups, over owned nodes.
pub(crate) fn ds6(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS6, |sink| {
        let ss = scope.ss;
        for site in &ss.sites {
            if !site.required {
                continue;
            }
            for &label in scope.labels() {
                if sink.at_limit() {
                    return;
                }
                if !ss.label_subtype(label, site.site) {
                    continue;
                }
                for n in scope.nodes_with_label(label) {
                    if !scope.owns(n) {
                        continue;
                    }
                    sink.group_visited();
                    if scope.out_edges_labelled(n, site.rel_sym).is_empty() {
                        sink.push(Violation::RequiredEdgeMissing {
                            node: n,
                            field: site.rel_name.clone(),
                        });
                    }
                }
            }
        }
    });
}

/// The scalar fields of a key (only those participate in DS7; condition
/// `typeS(t, fi) ∈ S∪WS`). String-keyed helper for the persistent
/// incremental tables; the columnar collect uses the precompiled
/// [`KeySlot::scalar_syms`].
pub(crate) fn ds7_scalar_fields<'s>(s: &'s PgSchema, key: &'s KeyConstraint) -> Vec<&'s str> {
    key.fields
        .iter()
        .filter(|f| {
            s.schema()
                .field(key.site, f)
                .is_some_and(|fi| s.schema().is_scalar(fi.ty.base))
        })
        .map(String::as_str)
        .collect()
}

/// One key's groups: nodes by their tuple of value-class ids.
pub(crate) type KeyGroups = HashMap<Vec<Option<u32>>, Vec<NodeId>>;

/// DS7 map phase: groups the owned nodes below the key's site by their
/// key tuple of value-class ids.
///
/// DS7's "agree" relation (both lack the property, or both have equal
/// values) is exactly tuple equality, so tables from disjoint shards
/// merge by appending the node lists.
fn ds7_collect(scope: &Scope<'_>, sink: &mut Sink<'_>, key: &KeySlot) -> KeyGroups {
    let ss = scope.ss;
    let cols = scope.cols;
    let vt = cols.values();
    let mut groups = KeyGroups::new();
    for &label in scope.labels() {
        if !ss.label_subtype(label, key.site) {
            continue;
        }
        for n in scope.nodes_with_label(label) {
            if !scope.owns(n) {
                continue;
            }
            sink.group_visited();
            let tuple: Vec<Option<u32>> = key
                .scalar_syms
                .iter()
                .map(|&f| cols.node_prop_vid(n, f).map(|vid| vt.eq_rep(vid)))
                .collect();
            groups.entry(tuple).or_default().push(n);
        }
    }
    groups
}

/// DS7 reduce phase: emits one violation per unordered pair of nodes
/// sharing a key tuple, in sorted node order. Used inline by [`ds7`] and
/// by the parallel engine's cross-shard merge.
pub(crate) fn ds7_emit(ty: &str, fields: &[String], groups: KeyGroups, sink: &mut Sink<'_>) {
    for mut nodes in groups.into_values() {
        if nodes.len() < 2 {
            continue;
        }
        if sink.at_limit() {
            return;
        }
        nodes.sort();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in nodes.iter().skip(i + 1) {
                sink.push(Violation::KeyViolated {
                    a,
                    b,
                    ty: ty.to_owned(),
                    fields: fields.to_vec(),
                });
            }
        }
    }
}

/// DS7 (`@key`), inline plan: collect and emit per key (serial
/// full-graph engines, and the region revalidation of migrations).
pub(crate) fn ds7(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::DS7, |sink| {
        for key in &scope.ss.keys {
            if sink.at_limit() {
                return;
            }
            let groups = ds7_collect(scope, sink, key);
            ds7_emit(&key.ty_name, &key.fields, groups, sink);
        }
    });
}

/// DS7, map plan: collect one shard-local tuple table per key (in schema
/// key order) for the caller's cross-shard reduce. Emits no violations
/// itself; the recorded DS7 timing covers the map side only — the
/// planner adds the reduce time after the join.
pub(crate) fn ds7_map(scope: &Scope<'_>, sink: &mut Sink<'_>, tables: &mut Vec<KeyGroups>) {
    sink.rule(Rule::DS7, |sink| {
        for key in &scope.ss.keys {
            tables.push(ds7_collect(scope, sink, key));
        }
    });
}

/// Per-`@key` persistent state of an incremental session: each node's
/// current key tuple and the groups of nodes sharing one — the durable
/// form of the DS7 collect phase. Tuples stay `Value`-based here: the
/// tables outlive any one frozen columnar view, so value-class ids
/// (which are per-freeze) cannot name them.
pub(crate) struct KeyTable {
    scalar_fields: Vec<String>,
    tuples: HashMap<NodeId, Vec<Option<Value>>>,
    groups: HashMap<Vec<Option<Value>>, Vec<NodeId>>,
}

/// Seeds one tuple table per key constraint (directives only) from a
/// full pass over the graph.
pub(crate) fn build_key_tables(
    s: &PgSchema,
    g: &PropertyGraph,
    options: &ValidationOptions,
) -> Vec<KeyTable> {
    if !options.directives {
        return Vec::new();
    }
    s.keys()
        .iter()
        .map(|key| {
            let scalar_fields: Vec<String> = ds7_scalar_fields(s, key)
                .into_iter()
                .map(str::to_owned)
                .collect();
            let mut table = KeyTable {
                scalar_fields,
                tuples: HashMap::new(),
                groups: HashMap::new(),
            };
            for n in g.nodes() {
                if s.label_subtype(n.label(), key.site) {
                    let tuple: Vec<Option<Value>> = table
                        .scalar_fields
                        .iter()
                        .map(|f| g.node_property(n.id, f).cloned())
                        .collect();
                    table.groups.entry(tuple.clone()).or_default().push(n.id);
                    table.tuples.insert(n.id, tuple);
                }
            }
            table
        })
        .collect()
}

/// DS7, recheck plan: move each dirty node of `g` between tuple groups
/// and re-emit the pairs it now participates in. Pairs between two
/// non-dirty nodes were never dropped and stay valid (their tuples did
/// not change). The pairs carry `g`'s ids, so they go to the report
/// directly, past the sink's region translation.
pub(crate) fn ds7_recheck(
    scope: &Scope<'_>,
    sink: &mut Sink<'_>,
    tables: &mut [KeyTable],
    g: &PropertyGraph,
    dirty: &BTreeSet<NodeId>,
) {
    sink.rule(Rule::DS7, |sink| {
        let s = scope.s;
        for (key, table) in s.keys().iter().zip(tables) {
            for &v in dirty {
                sink.group_visited();
                if let Some(old) = table.tuples.remove(&v) {
                    if let Some(group) = table.groups.get_mut(&old) {
                        group.retain(|&n| n != v);
                        if group.is_empty() {
                            table.groups.remove(&old);
                        }
                    }
                }
                let Some(label) = g.node_label(v) else {
                    continue; // removed node: it only leaves its group
                };
                if !s.label_subtype(label, key.site) {
                    continue;
                }
                let tuple: Vec<Option<Value>> = table
                    .scalar_fields
                    .iter()
                    .map(|f| g.node_property(v, f).cloned())
                    .collect();
                table.groups.entry(tuple.clone()).or_default().push(v);
                table.tuples.insert(v, tuple);
            }
            // Emit the pairs involving dirty members of their (new) groups.
            for &v in dirty {
                let Some(tuple) = table.tuples.get(&v) else {
                    continue;
                };
                for &w in &table.groups[tuple] {
                    if w == v {
                        continue;
                    }
                    let (a, b) = if v < w { (v, w) } else { (w, v) };
                    sink.report.push(Violation::KeyViolated {
                        a,
                        b,
                        ty: s.schema().type_name(key.site).to_owned(),
                        fields: key.fields.clone(),
                    });
                }
            }
        }
    });
}
