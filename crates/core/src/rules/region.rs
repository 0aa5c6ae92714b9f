//! A dirty region of a graph, frozen into its own small
//! [`ColumnarGraph`].
//!
//! The incremental engine and the migration preview revalidate a region:
//! a node set `D` and the live edges `L` incident to it. [`RegionCols`]
//! pushes that region through the one column assembler
//! ([`ColumnsBuilder`]), so the kernels scan it exactly as they scan a
//! whole graph, in a local id space:
//!
//! * the live nodes of `D`, in ascending id order, become local slots
//!   `0..k` — the slots a region [`Scope`](super::Scope) owns. Local
//!   order matches global order, so DS7's `(smaller, larger)` pairs keep
//!   their order through translation;
//! * each endpoint of an edge of `L` that is not in `D` follows as a
//!   *boundary* slot: labelled (the edge rules classify both endpoints),
//!   without properties, and not owned;
//! * the live edges of `L` follow in id order.
//!
//! Groups keyed by an owned node are complete in the region, because
//! every edge incident to a node of `D` is in `L`. The kernels emit
//! local ids; a [`Sink`](super::Sink) over the region maps each one back
//! through the id columns ([`RegionCols::translate`]).

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use pgraph::{ColumnarGraph, ColumnsBuilder, EdgeId, NodeId, PropertyGraph, SymbolTable};

use crate::report::Violation;

/// The frozen region plus its local → global id columns.
pub(crate) struct RegionCols {
    pub(crate) cols: ColumnarGraph,
    /// Global id of each local node slot: the owned ones, then boundary.
    nodes: Vec<NodeId>,
    /// Global id of each local edge slot.
    edges: Vec<EdgeId>,
    /// Number of owned node slots.
    owned: usize,
}

impl RegionCols {
    /// Freezes the region of `g` spanned by `dirty` and `local_edges`
    /// (ids no longer live are skipped), interning into `symbols` — taken
    /// by value and handed back by [`into_symbols`](Self::into_symbols),
    /// so a session's growing table is never copied per delta.
    pub(crate) fn build(
        g: &PropertyGraph,
        dirty: &BTreeSet<NodeId>,
        local_edges: &BTreeSet<EdgeId>,
        symbols: SymbolTable,
    ) -> RegionCols {
        let mut b = ColumnsBuilder::new(symbols);
        let mut nodes = Vec::new();
        let mut slot: HashMap<NodeId, u32> = HashMap::new();
        for &id in dirty {
            let Some(n) = g.node(id) else { continue };
            slot.insert(id, nodes.len() as u32);
            nodes.push(id);
            b.push_node(true, n.label(), n.properties());
        }
        let owned = nodes.len();
        let mut edges = Vec::new();
        for &id in local_edges {
            let Some(e) = g.edge(id) else { continue };
            let mut local = |v: NodeId| {
                *slot.entry(v).or_insert_with(|| {
                    let label = g.node_label(v).expect("a live edge's endpoint is live");
                    b.push_node(true, label, std::iter::empty::<(&str, pgraph::Value)>());
                    nodes.push(v);
                    nodes.len() as u32 - 1
                })
            };
            let ends = (local(e.source()), local(e.target()));
            b.push_edge(true, e.label(), ends, e.properties());
            edges.push(id);
        }
        RegionCols {
            cols: b.finish(),
            nodes,
            edges,
            owned,
        }
    }

    /// The node slots a region scope owns: the live nodes of `D`.
    pub(crate) fn owned(&self) -> Range<usize> {
        0..self.owned
    }

    /// Rewrites every id of a violation from local slots to the graph's
    /// ids.
    pub(crate) fn translate(&self, v: &mut Violation) {
        let node = |n: &mut NodeId| *n = self.nodes[n.index()];
        let edge = |e: &mut EdgeId| *e = self.edges[e.index()];
        match v {
            Violation::NodePropertyType { node: n, .. }
            | Violation::LoopViolated { node: n, .. }
            | Violation::RequiredPropertyMissing { node: n, .. }
            | Violation::RequiredEdgeMissing { node: n, .. }
            | Violation::UnjustifiedNode { node: n, .. }
            | Violation::UnjustifiedNodeProperty { node: n, .. }
            | Violation::NonListFieldMultiEdge { source: n, .. }
            | Violation::UniqueForTargetViolated { target: n, .. }
            | Violation::RequiredForTargetViolated { target: n, .. } => node(n),
            Violation::EdgePropertyType { edge: e, .. }
            | Violation::UnjustifiedEdgeProperty { edge: e, .. }
            | Violation::UnjustifiedEdge { edge: e, .. } => edge(e),
            Violation::EdgeTargetType {
                edge: e, target, ..
            } => {
                edge(e);
                node(target);
            }
            Violation::DistinctViolated { source, target, .. } => {
                node(source);
                node(target);
            }
            Violation::KeyViolated { a, b, .. } => {
                node(a);
                node(b);
            }
        }
    }

    /// Drops the region, handing its symbol table back.
    pub(crate) fn into_symbols(self) -> SymbolTable {
        self.cols.into_symbols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Rule;
    use pgraph::Value;

    /// `a` (dirty, with a property) → `b`, `b` (twice), `c`; only `a`
    /// is dirty, so `b` and `c` are boundary slots.
    #[test]
    fn boundary_endpoints_are_labelled_unowned_and_bare() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("User");
        let b = g.add_node("User");
        let c = g.add_node("Org");
        g.set_node_property(a, "login", Value::from("a"));
        g.set_node_property(b, "login", Value::from("b"));
        let e1 = g.add_edge(a, b, "follows").unwrap();
        let e2 = g.add_edge(a, b, "follows").unwrap();
        let e3 = g.add_edge(a, c, "member").unwrap();

        let r = RegionCols::build(&g, &[a].into(), &[e1, e2, e3].into(), SymbolTable::new());
        let syms = r.cols.symbols();
        let (user, org) = (syms.lookup("User").unwrap(), syms.lookup("Org").unwrap());
        let (follows, login) = (
            syms.lookup("follows").unwrap(),
            syms.lookup("login").unwrap(),
        );
        let local = |ix: usize| NodeId::from_index(ix);
        assert_eq!(r.owned(), 0..1);
        assert_eq!(r.nodes, vec![a, b, c]);
        assert_eq!(r.edges, vec![e1, e2, e3]);
        assert_eq!(r.cols.node_prop(local(0), login), Some(&Value::from("a")));
        for (slot, label) in [(1, user), (2, org)] {
            assert_eq!(r.cols.node_label_sym(local(slot)), label);
            assert!(r.cols.node_prop_syms(local(slot)).is_empty());
        }
        assert_eq!(r.cols.out_edges_labelled(local(0), follows), &[0, 1]);
        assert_eq!(r.cols.in_edges_labelled(local(1), follows), &[0, 1]);
    }

    #[test]
    fn tombstoned_ids_are_skipped() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("T");
        let b = g.add_node("T");
        let e = g.add_edge(a, b, "r").unwrap();
        g.remove_node(b).unwrap(); // removes e too
        let r = RegionCols::build(&g, &[a, b].into(), &[e].into(), SymbolTable::new());
        assert_eq!(r.owned(), 0..1);
        assert_eq!(r.nodes, vec![a]);
        assert!(r.edges.is_empty());
        assert_eq!(r.cols.edge_slots(), 0);
    }

    #[test]
    fn owned_slots_come_in_ascending_id_order() {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..6).map(|_| g.add_node("T")).collect();
        let e = g.add_edge(ids[5], ids[0], "r").unwrap();
        let dirty: BTreeSet<NodeId> = [ids[4], ids[1], ids[5]].into();
        let r = RegionCols::build(&g, &dirty, &[e].into(), SymbolTable::new());
        assert_eq!(r.owned(), 0..3);
        assert_eq!(r.nodes, vec![ids[1], ids[4], ids[5], ids[0]]);
    }

    /// One violation of every variant, its node ids `n0 < n1` and edge
    /// id `e` placed in every id field.
    fn every_variant(n0: NodeId, n1: NodeId, e: EdgeId) -> Vec<Violation> {
        let s = String::new;
        vec![
            Violation::NodePropertyType {
                node: n0,
                field: s(),
                value: s(),
                expected: s(),
            },
            Violation::EdgePropertyType {
                edge: e,
                prop: s(),
                value: s(),
                expected: s(),
            },
            Violation::EdgeTargetType {
                edge: e,
                target: n1,
                target_label: s(),
                expected: s(),
            },
            Violation::NonListFieldMultiEdge {
                source: n0,
                field: s(),
                count: 2,
            },
            Violation::DistinctViolated {
                source: n0,
                target: n1,
                field: s(),
                count: 2,
            },
            Violation::LoopViolated {
                node: n0,
                field: s(),
            },
            Violation::UniqueForTargetViolated {
                target: n0,
                field: s(),
                count: 2,
            },
            Violation::RequiredForTargetViolated {
                target: n0,
                field: s(),
                site: s(),
            },
            Violation::RequiredPropertyMissing {
                node: n0,
                field: s(),
                empty_list: false,
            },
            Violation::RequiredEdgeMissing {
                node: n0,
                field: s(),
            },
            Violation::KeyViolated {
                a: n0,
                b: n1,
                ty: s(),
                fields: Vec::new(),
            },
            Violation::UnjustifiedNode {
                node: n0,
                label: s(),
            },
            Violation::UnjustifiedNodeProperty {
                node: n0,
                prop: s(),
            },
            Violation::UnjustifiedEdgeProperty { edge: e, prop: s() },
            Violation::UnjustifiedEdge {
                edge: e,
                label: s(),
                source_label: s(),
            },
        ]
    }

    #[test]
    fn translate_maps_every_id_field_of_every_variant() {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node("T")).collect();
        g.add_edge(ids[0], ids[1], "r").unwrap();
        let e = g.add_edge(ids[2], ids[3], "r").unwrap();
        let r = RegionCols::build(
            &g,
            &[ids[2], ids[3]].into(),
            &[e].into(),
            SymbolTable::new(),
        );
        let (l0, l1) = (NodeId::from_index(0), NodeId::from_index(1));
        let mut local = every_variant(l0, l1, EdgeId::from_index(0));
        let rules: BTreeSet<Rule> = local.iter().map(Violation::rule).collect();
        assert_eq!(rules.len(), Rule::ALL.len(), "one violation per rule");
        for v in &mut local {
            r.translate(v);
        }
        assert_eq!(local, every_variant(ids[2], ids[3], e));
    }
}
