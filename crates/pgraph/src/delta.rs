//! Mutation logs over Property Graphs.
//!
//! The paper treats validation as a decision problem over a *fixed* graph
//! `G`; a deployed store, by contrast, evolves by small mutations. This
//! module captures such an evolution step as a first-class value: a
//! [`GraphDelta`] is an ordered log of [`DeltaOp`]s — add/remove vertex,
//! add/remove edge, set/unset property, relabel — that can be applied to a
//! [`PropertyGraph`] as one unit.
//!
//! Applying a delta yields a [`DeltaEffect`]: the precise set of elements
//! the delta created, destroyed or modified, with edge endpoints captured
//! *at mutation time* (a removed edge's endpoints are no longer readable
//! from the graph afterwards). The incremental revalidation engine in the
//! `pg-schema` crate consumes this effect to compute the dirty region it
//! must re-check — see that crate's `incremental` module for the rule
//! dependency analysis.
//!
//! Deltas have two wire forms: the JSON document (`{"ops": [...]}`,
//! [`crate::json::delta_to_json`] / [`crate::json::delta_from_json`]),
//! which clients send and the CLI's `validate --watch-delta` reads, and
//! the binary body of the store's WAL records
//! ([`crate::binary::delta_to_bytes`] / [`crate::binary::delta_from_bytes`]).
//! Their shared layout lives here, once: one tag table (the binary tag
//! byte is the index of the JSON `"op"` name) and one encode and one
//! decode match over [`DeltaOp`], each generic over a small field
//! writer or reader that the two codecs implement. A codec owns only its
//! framing, its tag lookup and its errors. `docs/replication.md`
//! (§Delta body) specifies the layout.
//!
//! ```
//! use pgraph::{GraphDelta, PropertyGraph, Value};
//!
//! let mut g = PropertyGraph::new();
//! let u = g.add_node("User");
//!
//! let delta = GraphDelta::new()
//!     .set_node_property(u, "login", Value::from("alice"))
//!     .add_node("UserSession");
//! let effect = delta.apply_to(&mut g).unwrap();
//!
//! assert_eq!(effect.added_nodes.len(), 1);
//! assert_eq!(g.node_property(u, "login"), Some(&Value::from("alice")));
//! assert_eq!(g.node_count(), 2);
//! ```

use crate::{EdgeId, GraphError, NodeId, PropertyGraph, Value};

/// One primitive mutation of a Property Graph.
///
/// Ops refer to elements by their ids in the target graph. Nodes and
/// edges created *earlier in the same delta* can be referenced too: ids
/// are assigned densely, so the `k`-th `AddNode` of a delta gets id
/// `NodeId::from_index(g.node_index_bound() + k)` (and analogously for
/// edges) — [`GraphDelta::apply_to`] reports the assigned ids in the
/// returned [`DeltaEffect`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Add a vertex with the given label.
    AddNode {
        /// The new node's label, `λ(v)`.
        label: String,
    },
    /// Remove a vertex and (cascading) all its incident edges.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
    /// Add an edge `source --label--> target`.
    AddEdge {
        /// Source endpoint.
        source: NodeId,
        /// Target endpoint.
        target: NodeId,
        /// The new edge's label.
        label: String,
    },
    /// Remove an edge.
    RemoveEdge {
        /// The edge to remove.
        edge: EdgeId,
    },
    /// Set `σ(v, name) = value`, replacing any previous value.
    SetNodeProperty {
        /// The node.
        node: NodeId,
        /// Property name.
        name: String,
        /// New value.
        value: Value,
    },
    /// Remove `(v, name)` from `dom(σ)` (a no-op if absent).
    RemoveNodeProperty {
        /// The node.
        node: NodeId,
        /// Property name.
        name: String,
    },
    /// Set `σ(e, name) = value`, replacing any previous value.
    SetEdgeProperty {
        /// The edge.
        edge: EdgeId,
        /// Property name.
        name: String,
        /// New value.
        value: Value,
    },
    /// Remove `(e, name)` from `dom(σ)` (a no-op if absent).
    RemoveEdgeProperty {
        /// The edge.
        edge: EdgeId,
        /// Property name.
        name: String,
    },
    /// Relabel a node.
    SetNodeLabel {
        /// The node.
        node: NodeId,
        /// The new label.
        label: String,
    },
}

/// The op tags of both wire forms: entry `i` is the JSON `"op"` name of
/// the op whose binary tag byte is `i`.
pub(crate) const OP_TAGS: [&str; 9] = [
    "add-node",
    "remove-node",
    "add-edge",
    "remove-edge",
    "set-node-property",
    "remove-node-property",
    "set-edge-property",
    "remove-edge-property",
    "set-node-label",
];

/// A wire form's side of [`DeltaOp::encode`]: the op's tag, then its
/// fields in layout order. Keys are the JSON member names; the binary
/// form writes fields by position and ignores them.
pub(crate) trait OpWriter {
    /// The op's tag, an index into [`OP_TAGS`].
    fn tag(&mut self, tag: u8);
    /// A node or edge id.
    fn id(&mut self, key: &'static str, index: usize);
    /// A label or property name.
    fn string(&mut self, key: &'static str, s: &str);
    /// The property value, member `"value"`.
    fn value(&mut self, v: &Value);
}

/// A wire form's side of [`DeltaOp::decode`]: the fields of an op whose
/// tag the codec has already read, asked for in layout order.
pub(crate) trait OpReader {
    /// The codec's decode error.
    type Error;
    /// A node or edge id.
    fn id(&mut self, key: &'static str) -> Result<usize, Self::Error>;
    /// A label or property name.
    fn string(&mut self, key: &'static str) -> Result<String, Self::Error>;
    /// The property value, member `"value"`.
    fn value(&mut self) -> Result<Value, Self::Error>;
}

impl DeltaOp {
    /// Writes the op in its wire layout: the one place that says which
    /// tag an op has and which fields follow it, in what order.
    pub(crate) fn encode(&self, w: &mut impl OpWriter) {
        match self {
            DeltaOp::AddNode { label } => {
                w.tag(0);
                w.string("label", label);
            }
            DeltaOp::RemoveNode { node } => {
                w.tag(1);
                w.id("node", node.index());
            }
            DeltaOp::AddEdge {
                source,
                target,
                label,
            } => {
                w.tag(2);
                w.id("source", source.index());
                w.id("target", target.index());
                w.string("label", label);
            }
            DeltaOp::RemoveEdge { edge } => {
                w.tag(3);
                w.id("edge", edge.index());
            }
            DeltaOp::SetNodeProperty { node, name, value } => {
                w.tag(4);
                w.id("node", node.index());
                w.string("name", name);
                w.value(value);
            }
            DeltaOp::RemoveNodeProperty { node, name } => {
                w.tag(5);
                w.id("node", node.index());
                w.string("name", name);
            }
            DeltaOp::SetEdgeProperty { edge, name, value } => {
                w.tag(6);
                w.id("edge", edge.index());
                w.string("name", name);
                w.value(value);
            }
            DeltaOp::RemoveEdgeProperty { edge, name } => {
                w.tag(7);
                w.id("edge", edge.index());
                w.string("name", name);
            }
            DeltaOp::SetNodeLabel { node, label } => {
                w.tag(8);
                w.id("node", node.index());
                w.string("label", label);
            }
        }
    }

    /// Reads the fields of the op tagged `tag` in the order
    /// [`encode`](Self::encode) writes them. `None` for a tag past
    /// [`OP_TAGS`], before any field is read.
    pub(crate) fn decode<R: OpReader>(tag: u8, r: &mut R) -> Result<Option<DeltaOp>, R::Error> {
        let node = |r: &mut R, key| r.id(key).map(NodeId::from_index);
        let edge = |r: &mut R| r.id("edge").map(EdgeId::from_index);
        Ok(Some(match tag {
            0 => DeltaOp::AddNode {
                label: r.string("label")?,
            },
            1 => DeltaOp::RemoveNode {
                node: node(r, "node")?,
            },
            2 => DeltaOp::AddEdge {
                source: node(r, "source")?,
                target: node(r, "target")?,
                label: r.string("label")?,
            },
            3 => DeltaOp::RemoveEdge { edge: edge(r)? },
            4 => DeltaOp::SetNodeProperty {
                node: node(r, "node")?,
                name: r.string("name")?,
                value: r.value()?,
            },
            5 => DeltaOp::RemoveNodeProperty {
                node: node(r, "node")?,
                name: r.string("name")?,
            },
            6 => DeltaOp::SetEdgeProperty {
                edge: edge(r)?,
                name: r.string("name")?,
                value: r.value()?,
            },
            7 => DeltaOp::RemoveEdgeProperty {
                edge: edge(r)?,
                name: r.string("name")?,
            },
            8 => DeltaOp::SetNodeLabel {
                node: node(r, "node")?,
                label: r.string("label")?,
            },
            _ => return Ok(None),
        }))
    }
}

/// An edge together with the endpoints it had when the delta touched it.
///
/// Endpoint capture matters for removals: after `apply_to` returns, a
/// removed edge's endpoints can no longer be read from the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTouch {
    /// The edge.
    pub edge: EdgeId,
    /// Its source node at mutation time.
    pub source: NodeId,
    /// Its target node at mutation time.
    pub target: NodeId,
}

/// What a delta did to the graph, element by element.
///
/// Every vector lists ids in op order; an element can appear in more than
/// one list (e.g. a node added and then relabelled by the same delta).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaEffect {
    /// Nodes created, in op order (ids are dense continuations).
    pub added_nodes: Vec<NodeId>,
    /// Nodes tombstoned.
    pub removed_nodes: Vec<NodeId>,
    /// Live nodes whose label changed.
    pub relabelled_nodes: Vec<NodeId>,
    /// Live nodes whose property map changed.
    pub node_prop_changes: Vec<NodeId>,
    /// Edges created.
    pub added_edges: Vec<EdgeTouch>,
    /// Edges tombstoned — including edges cascaded away by `RemoveNode`.
    pub removed_edges: Vec<EdgeTouch>,
    /// Live edges whose property map changed.
    pub edge_prop_changes: Vec<EdgeTouch>,
}

impl DeltaEffect {
    /// True if the delta changed nothing (it was empty or all ops were
    /// property removals of absent properties).
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty()
            && self.removed_nodes.is_empty()
            && self.relabelled_nodes.is_empty()
            && self.node_prop_changes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.edge_prop_changes.is_empty()
    }
}

/// An ordered log of mutations, built fluently and applied as one unit.
///
/// The builder methods mirror [`PropertyGraph`]'s mutation API one-to-one
/// and consume `self` (like [`crate::GraphBuilder`]); [`push`](Self::push)
/// offers the non-consuming form for generators that assemble ops in a
/// loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Creates a delta from raw ops.
    pub fn from_ops(ops: Vec<DeltaOp>) -> Self {
        GraphDelta { ops }
    }

    /// Appends one op (non-consuming form of the builder methods).
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the delta holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Logs an `AddNode` op.
    pub fn add_node(mut self, label: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::AddNode {
            label: label.into(),
        });
        self
    }

    /// Logs a `RemoveNode` op.
    pub fn remove_node(mut self, node: NodeId) -> Self {
        self.ops.push(DeltaOp::RemoveNode { node });
        self
    }

    /// Logs an `AddEdge` op.
    pub fn add_edge(mut self, source: NodeId, target: NodeId, label: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::AddEdge {
            source,
            target,
            label: label.into(),
        });
        self
    }

    /// Logs a `RemoveEdge` op.
    pub fn remove_edge(mut self, edge: EdgeId) -> Self {
        self.ops.push(DeltaOp::RemoveEdge { edge });
        self
    }

    /// Logs a `SetNodeProperty` op.
    pub fn set_node_property(
        mut self,
        node: NodeId,
        name: impl Into<String>,
        value: Value,
    ) -> Self {
        self.ops.push(DeltaOp::SetNodeProperty {
            node,
            name: name.into(),
            value,
        });
        self
    }

    /// Logs a `RemoveNodeProperty` op.
    pub fn remove_node_property(mut self, node: NodeId, name: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::RemoveNodeProperty {
            node,
            name: name.into(),
        });
        self
    }

    /// Logs a `SetEdgeProperty` op.
    pub fn set_edge_property(
        mut self,
        edge: EdgeId,
        name: impl Into<String>,
        value: Value,
    ) -> Self {
        self.ops.push(DeltaOp::SetEdgeProperty {
            edge,
            name: name.into(),
            value,
        });
        self
    }

    /// Logs a `RemoveEdgeProperty` op.
    pub fn remove_edge_property(mut self, edge: EdgeId, name: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::RemoveEdgeProperty {
            edge,
            name: name.into(),
        });
        self
    }

    /// Logs a `SetNodeLabel` op.
    pub fn set_node_label(mut self, node: NodeId, label: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::SetNodeLabel {
            node,
            label: label.into(),
        });
        self
    }

    /// Applies the ops in order, reporting everything they touched.
    ///
    /// On error the graph keeps the effects of the ops that preceded the
    /// failing one (the returned error names the missing element). Callers
    /// that need all-or-nothing semantics should apply to a clone.
    pub fn apply_to(&self, g: &mut PropertyGraph) -> Result<DeltaEffect, GraphError> {
        let mut eff = DeltaEffect::default();
        for op in &self.ops {
            match op {
                DeltaOp::AddNode { label } => {
                    eff.added_nodes.push(g.add_node(label.clone()));
                }
                DeltaOp::RemoveNode { node } => {
                    // Capture the cascade before the graph forgets it. A
                    // self-loop is in both lists; record it as an out-edge.
                    // An absent or tombstoned node has empty lists, so
                    // nothing is captured and `remove_node` reports it.
                    let incoming = g.in_edges(*node).filter(|e| e.source() != *node);
                    for e in g.out_edges(*node).chain(incoming) {
                        eff.removed_edges.push(EdgeTouch {
                            edge: e.id,
                            source: e.source(),
                            target: e.target(),
                        });
                    }
                    g.remove_node(*node)?;
                    eff.removed_nodes.push(*node);
                }
                DeltaOp::AddEdge {
                    source,
                    target,
                    label,
                } => {
                    let edge = g.add_edge(*source, *target, label.clone())?;
                    eff.added_edges.push(EdgeTouch {
                        edge,
                        source: *source,
                        target: *target,
                    });
                }
                DeltaOp::RemoveEdge { edge } => {
                    let (source, target) = g
                        .edge_endpoints(*edge)
                        .ok_or(GraphError::MissingEdge(*edge))?;
                    g.remove_edge(*edge)?;
                    eff.removed_edges.push(EdgeTouch {
                        edge: *edge,
                        source,
                        target,
                    });
                }
                DeltaOp::SetNodeProperty { node, name, value } => {
                    if !g.contains_node(*node) {
                        return Err(GraphError::MissingNode(*node));
                    }
                    g.set_node_property(*node, name.clone(), value.clone());
                    eff.node_prop_changes.push(*node);
                }
                DeltaOp::RemoveNodeProperty { node, name } => {
                    if !g.contains_node(*node) {
                        return Err(GraphError::MissingNode(*node));
                    }
                    if g.remove_node_property(*node, name).is_some() {
                        eff.node_prop_changes.push(*node);
                    }
                }
                DeltaOp::SetEdgeProperty { edge, name, value } => {
                    if !g.contains_edge(*edge) {
                        return Err(GraphError::MissingEdge(*edge));
                    }
                    let (source, target) = g.edge_endpoints(*edge).expect("checked live");
                    g.set_edge_property(*edge, name.clone(), value.clone());
                    eff.edge_prop_changes.push(EdgeTouch {
                        edge: *edge,
                        source,
                        target,
                    });
                }
                DeltaOp::RemoveEdgeProperty { edge, name } => {
                    let (source, target) = g
                        .edge_endpoints(*edge)
                        .ok_or(GraphError::MissingEdge(*edge))?;
                    if g.remove_edge_property(*edge, name).is_some() {
                        eff.edge_prop_changes.push(EdgeTouch {
                            edge: *edge,
                            source,
                            target,
                        });
                    }
                }
                DeltaOp::SetNodeLabel { node, label } => {
                    g.set_node_label(*node, label.clone())?;
                    eff.relabelled_nodes.push(*node);
                }
            }
        }
        Ok(eff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (PropertyGraph, NodeId, NodeId, EdgeId) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let e = g.add_edge(a, b, "rel").unwrap();
        (g, a, b, e)
    }

    #[test]
    fn add_ops_assign_dense_ids() {
        let (mut g, a, _, _) = seeded();
        let next_node = NodeId::from_index(g.node_index_bound());
        let delta = GraphDelta::new()
            .add_node("C")
            .add_edge(a, next_node, "to_c");
        let eff = delta.apply_to(&mut g).unwrap();
        assert_eq!(eff.added_nodes, vec![next_node]);
        assert_eq!(eff.added_edges.len(), 1);
        assert_eq!(g.node_label(next_node), Some("C"));
        assert_eq!(
            g.edge_endpoints(eff.added_edges[0].edge),
            Some((a, next_node))
        );
    }

    #[test]
    fn remove_node_captures_cascaded_edges() {
        let (mut g, a, b, e) = seeded();
        let back = g.add_edge(b, a, "back").unwrap();
        let loop_e = g.add_edge(a, a, "self").unwrap();
        let parallel = g.add_edge(a, b, "rel").unwrap();
        let eff = GraphDelta::new().remove_node(a).apply_to(&mut g).unwrap();
        assert_eq!(eff.removed_nodes, vec![a]);
        // Out-edges first, then in-edges, each in ascending id order; the
        // self-loop is listed once despite being in both lists, and the
        // parallel edge is a distinct edge with the same endpoints.
        let removed: Vec<EdgeId> = eff.removed_edges.iter().map(|t| t.edge).collect();
        assert_eq!(removed, vec![e, loop_e, parallel, back]);
        assert_eq!(eff.removed_edges[0].source, a);
        assert_eq!(eff.removed_edges[2].target, b);
        assert!(!g.contains_node(a));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_edges(b).count(), 0);
        assert_eq!(g.in_edges(b).count(), 0);
    }

    #[test]
    fn property_ops_report_changes_and_noops() {
        let (mut g, a, _, e) = seeded();
        let eff = GraphDelta::new()
            .set_node_property(a, "x", Value::Int(1))
            .remove_node_property(a, "absent")
            .set_edge_property(e, "w", Value::Float(0.5))
            .remove_edge_property(e, "w")
            .apply_to(&mut g)
            .unwrap();
        assert_eq!(eff.node_prop_changes, vec![a]);
        assert_eq!(eff.edge_prop_changes.len(), 2); // set + remove
        assert_eq!(g.node_property(a, "x"), Some(&Value::Int(1)));
        assert_eq!(g.edge_property(e, "w"), None);
    }

    #[test]
    fn errors_name_the_missing_element() {
        let (mut g, a, ..) = seeded();
        let ghost = NodeId::from_index(99);
        let err = GraphDelta::new()
            .set_node_property(ghost, "x", Value::Int(1))
            .apply_to(&mut g)
            .unwrap_err();
        assert_eq!(err, GraphError::MissingNode(ghost));
        // Ops preceding the failure stay applied.
        let partial = GraphDelta::new()
            .set_node_property(a, "ok", Value::Bool(true))
            .remove_node(ghost);
        assert!(partial.apply_to(&mut g).is_err());
        assert_eq!(g.node_property(a, "ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn relabel_is_reported() {
        let (mut g, a, ..) = seeded();
        let eff = GraphDelta::new()
            .set_node_label(a, "Admin")
            .apply_to(&mut g)
            .unwrap();
        assert_eq!(eff.relabelled_nodes, vec![a]);
        assert_eq!(g.node_label(a), Some("Admin"));
        assert!(!eff.is_empty());
        assert!(GraphDelta::new().apply_to(&mut g).unwrap().is_empty());
    }
}
