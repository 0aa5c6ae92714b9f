//! Kernels for weak satisfaction — rules WS1–WS4 (Definition 5.1).
//!
//! All lookups are symbol-keyed: labels and property keys arrive as
//! [`Sym`](pgraph::Sym)s from the scope's columnar scan and are resolved
//! against the compiled [`SymSchema`](super::symschema::SymSchema) rows,
//! so the hot loops compare `u32`s and only allocate when a violation is
//! actually emitted.

use crate::report::{Rule, Violation};

use super::{Scope, Sink};

/// WS1: node property values conform to their declared attribute types —
/// one scan over the scope's nodes.
pub(crate) fn ws1(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::WS1, |sink| {
        let (s, ss) = (scope.s, scope.ss);
        for n in scope.nodes() {
            if sink.at_limit() {
                return;
            }
            sink.node_visited();
            let row = ss.row(n.label);
            for (prop, value) in n.props.iter() {
                if let Some(attr) = row.attr(prop) {
                    if !s.schema().value_conforms(value, &attr.ty) {
                        sink.push(Violation::NodePropertyType {
                            node: n.id,
                            field: scope.syms.resolve(prop).to_owned(),
                            value: value.to_string(),
                            expected: attr.expected.clone(),
                        });
                    }
                }
            }
        }
    });
}

/// WS2: edge property values conform to their declared argument types
/// (relationship fields only; attribute field arguments are ignored per
/// §3.6) — one scan over the scope's edges.
pub(crate) fn ws2(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::WS2, |sink| {
        let (s, ss) = (scope.s, scope.ss);
        for e in scope.edges() {
            if sink.at_limit() {
                return;
            }
            sink.edge_visited();
            let Some(rel) = ss.relationship(scope.label_sym(e.src), e.label) else {
                continue;
            };
            for (prop, value) in e.props.iter() {
                if let Some(ep) = rel.edge_prop(prop) {
                    if !s.schema().value_conforms(value, &ep.ty) {
                        sink.push(Violation::EdgePropertyType {
                            edge: e.id,
                            prop: scope.syms.resolve(prop).to_owned(),
                            value: value.to_string(),
                            expected: ep.expected.clone(),
                        });
                    }
                }
            }
        }
    });
}

/// WS3: an edge's target label is a subtype of the field's base type —
/// checked over *all* field definitions of the source type, in one scan
/// over the scope's edges.
pub(crate) fn ws3(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::WS3, |sink| {
        let ss = scope.ss;
        for e in scope.edges() {
            if sink.at_limit() {
                return;
            }
            sink.edge_visited();
            let Some(src_label) = scope.label_sym(e.src) else {
                continue;
            };
            let Some(field) = ss.row(src_label).field(e.label) else {
                continue;
            };
            let target_label = scope.label_sym(e.dst);
            if !ss.label_subtype_opt(target_label, field.base) {
                sink.push(Violation::EdgeTargetType {
                    edge: e.id,
                    target: e.dst,
                    target_label: target_label
                        .map_or_else(String::new, |l| scope.syms.resolve(l).to_owned()),
                    expected: field.base_name.clone(),
                });
            }
        }
    });
}

/// WS4: at most one outgoing edge per non-list relationship field — via
/// the `(source, label)` out-groups whose source the scope owns.
pub(crate) fn ws4(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::WS4, |sink| {
        let ss = scope.ss;
        scope.for_out_groups(&mut |source, label, edges| {
            if sink.at_limit() {
                return false;
            }
            if edges.len() < 2 {
                return true;
            }
            sink.group_visited();
            let Some(src_label) = scope.label_sym(source) else {
                return true;
            };
            let Some(field) = ss.row(src_label).field(label) else {
                return true;
            };
            if !field.is_list {
                sink.push(Violation::NonListFieldMultiEdge {
                    source,
                    field: scope.syms.resolve(label).to_owned(),
                    count: edges.len(),
                });
            }
            true
        });
    });
}
