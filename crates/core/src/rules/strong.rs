//! Kernels for strong satisfaction — rules SS1–SS4 (Definition 5.3).
//!
//! Like the weak kernels, these run entirely over interned symbols; the
//! per-label "is this justified?" questions are precompiled into
//! [`SymSchema`](super::symschema::SymSchema) rows.

use crate::report::{Rule, Violation};

use super::{Scope, Sink};

/// SS1: every node label is an object type of the schema — one scan over
/// the scope's nodes.
pub(crate) fn ss1(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::SS1, |sink| {
        let ss = scope.ss;
        for n in scope.nodes() {
            if sink.at_limit() {
                return;
            }
            sink.node_visited();
            if !ss.row(n.label).is_object {
                sink.push(Violation::UnjustifiedNode {
                    node: n.id,
                    label: scope.syms.resolve(n.label).to_owned(),
                });
            }
        }
    });
}

/// SS2: every node property is backed by an attribute definition — one
/// scan over the scope's nodes.
pub(crate) fn ss2(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::SS2, |sink| {
        let ss = scope.ss;
        for n in scope.nodes() {
            if sink.at_limit() {
                return;
            }
            sink.node_visited();
            let row = ss.row(n.label);
            for (prop, _) in n.props.iter() {
                if row.attr(prop).is_none() {
                    sink.push(Violation::UnjustifiedNodeProperty {
                        node: n.id,
                        prop: scope.syms.resolve(prop).to_owned(),
                    });
                }
            }
        }
    });
}

/// SS3: every edge property is backed by a relationship argument — one
/// scan over the scope's edges.
pub(crate) fn ss3(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::SS3, |sink| {
        let ss = scope.ss;
        for e in scope.edges() {
            if sink.at_limit() {
                return;
            }
            sink.edge_visited();
            let rel = ss.relationship(scope.label_sym(e.src), e.label);
            for (prop, _) in e.props.iter() {
                let justified = rel.is_some_and(|rd| rd.edge_prop(prop).is_some());
                if !justified {
                    sink.push(Violation::UnjustifiedEdgeProperty {
                        edge: e.id,
                        prop: scope.syms.resolve(prop).to_owned(),
                    });
                }
            }
        }
    });
}

/// SS4: every edge is backed by a relationship definition — one scan
/// over the scope's edges.
pub(crate) fn ss4(scope: &Scope<'_>, sink: &mut Sink<'_>) {
    sink.rule(Rule::SS4, |sink| {
        let ss = scope.ss;
        for e in scope.edges() {
            if sink.at_limit() {
                return;
            }
            sink.edge_visited();
            let src_label = scope.label_sym(e.src);
            if ss.relationship(src_label, e.label).is_none() {
                sink.push(Violation::UnjustifiedEdge {
                    edge: e.id,
                    label: scope.syms.resolve(e.label).to_owned(),
                    source_label: src_label
                        .map_or_else(String::new, |l| scope.syms.resolve(l).to_owned()),
                });
            }
        }
    });
}
