//! The core Property Graph structure (Definition 2.1).

use std::collections::BTreeMap;
use std::fmt;

use crate::columnar::{GraphSink, Props};
use crate::Value;

/// Identifier of a node (an element of `V`).
///
/// Ids are dense indexes into the graph's node table; they are stable for
/// the lifetime of the graph (removal tombstones rather than reindexes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge (an element of `E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Builds a `NodeId` from a raw index. Intended for deserialisation and
    /// generators; an out-of-range id is simply absent from the graph.
    pub fn from_index(ix: usize) -> Self {
        NodeId(ix as u32)
    }
}

impl EdgeId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Builds an `EdgeId` from a raw index.
    pub fn from_index(ix: usize) -> Self {
        EdgeId(ix as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors raised by graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An operation referred to a node id that is not (or no longer) in `V`.
    MissingNode(NodeId),
    /// An operation referred to an edge id that is not (or no longer) in `E`.
    MissingEdge(EdgeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingNode(n) => write!(f, "node {n} does not exist"),
            GraphError::MissingEdge(e) => write!(f, "edge {e} does not exist"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Properties are kept sorted by name; graphs typically carry a handful of
/// properties per element, for which a sorted map beats hashing and gives
/// deterministic iteration (important for reproducible reports and JSON).
pub(crate) type PropMap = BTreeMap<String, Value>;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeData {
    pub label: String,
    pub props: PropMap,
    pub alive: bool,
    /// The node's live outgoing / incoming edges in ascending id order (a
    /// self-loop is in both). Derived from the edge table, never
    /// serialised; empty once the node is tombstoned.
    pub out: Vec<EdgeId>,
    pub inc: Vec<EdgeId>,
}

impl NodeData {
    /// A node slot with empty incidence lists; edges pushed after it fill
    /// them.
    fn new(label: String, props: PropMap, alive: bool) -> NodeData {
        NodeData {
            label,
            props,
            alive,
            out: Vec::new(),
            inc: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeData {
    pub label: String,
    pub src: NodeId,
    pub dst: NodeId,
    pub props: PropMap,
    pub alive: bool,
}

/// A borrowed view of one node: its id, label (`λ`) and properties (`σ`).
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'g> {
    /// The node's id.
    pub id: NodeId,
    pub(crate) data: &'g NodeData,
}

impl<'g> NodeRef<'g> {
    /// The node's label, `λ(v)`.
    pub fn label(&self) -> &'g str {
        &self.data.label
    }
    /// The value of property `name`, i.e. `σ(v, name)` if defined.
    pub fn property(&self, name: &str) -> Option<&'g Value> {
        self.data.props.get(name)
    }
    /// All properties of the node in name order.
    pub fn properties(&self) -> impl Iterator<Item = (&'g str, &'g Value)> {
        self.data.props.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A borrowed view of one edge: its id, label, endpoints (`ρ`) and
/// properties.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRef<'g> {
    /// The edge's id.
    pub id: EdgeId,
    pub(crate) data: &'g EdgeData,
}

impl<'g> EdgeRef<'g> {
    /// The edge's label, `λ(e)`.
    pub fn label(&self) -> &'g str {
        &self.data.label
    }
    /// The source node, first component of `ρ(e)`.
    pub fn source(&self) -> NodeId {
        self.data.src
    }
    /// The target node, second component of `ρ(e)`.
    pub fn target(&self) -> NodeId {
        self.data.dst
    }
    /// The value of property `name`, i.e. `σ(e, name)` if defined.
    pub fn property(&self, name: &str) -> Option<&'g Value> {
        self.data.props.get(name)
    }
    /// All properties of the edge in name order.
    pub fn properties(&self) -> impl Iterator<Item = (&'g str, &'g Value)> {
        self.data.props.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A directed, labelled multigraph with node and edge properties —
/// the tuple `(V, E, ρ, λ, σ)` of Definition 2.1.
///
/// The graph owns the unlabelled incidence of `ρ`: each node keeps its live
/// out- and in-edge ids in ascending order, maintained by every mutation, so
/// [`out_edges`](Self::out_edges), [`in_edges`](Self::in_edges) and
/// [`remove_node`](Self::remove_node) cost the node's degree. Labelled
/// adjacency (CSR rows grouped by label) and label indexes belong to
/// [`crate::ColumnarGraph::freeze`]. The naive validation engine of the paper
/// deliberately reads neither: it quantifies over `E` directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropertyGraph {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) edges: Vec<EdgeData>,
    live_nodes: usize,
    live_edges: usize,
}

impl PropertyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        PropertyGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Number of live nodes, `|V|`.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges, `|E|`.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) on raw node indexes: every live node id
    /// satisfies `id.index() < node_index_bound()`. Includes tombstones,
    /// so it can exceed [`node_count`](Self::node_count); use
    /// [`node`](Self::node) to skip them. It equals the frozen columns'
    /// [`node_slots`](crate::ColumnarGraph::node_slots), which the
    /// parallel engine cuts into per-worker ranges.
    pub fn node_index_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on raw edge indexes; see
    /// [`node_index_bound`](Self::node_index_bound).
    pub fn edge_index_bound(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes (and therefore no edges).
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        self.push_node(true, label.into(), PropMap::new())
    }

    /// Adds an edge `src --label--> dst` and returns its id.
    ///
    /// Fails if either endpoint does not exist: `ρ` must be total on `E`.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
    ) -> Result<EdgeId, GraphError> {
        self.require_node(src)?;
        self.require_node(dst)?;
        Ok(self.push_edge(true, src, dst, label.into(), PropMap::new()))
    }

    /// Appends the next node slot.
    fn push_node(&mut self, alive: bool, label: String, props: PropMap) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData::new(label, props, alive));
        self.live_nodes += alive as usize;
        id
    }

    /// Appends the next edge slot between two appended node slots, both
    /// live if the edge is.
    fn push_edge(
        &mut self,
        alive: bool,
        src: NodeId,
        dst: NodeId,
        label: String,
        props: PropMap,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            label,
            src,
            dst,
            props,
            alive,
        });
        if alive {
            // The new id is the largest, so pushing keeps both lists
            // ascending.
            self.nodes[src.index()].out.push(id);
            self.nodes[dst.index()].inc.push(id);
            self.live_edges += 1;
        }
        id
    }

    /// Removes a node and all its incident edges. Ids of other elements are
    /// unaffected (tombstoning).
    pub fn remove_node(&mut self, id: NodeId) -> Result<(), GraphError> {
        self.require_node(id)?;
        let node = &mut self.nodes[id.index()];
        node.alive = false;
        let out = std::mem::take(&mut node.out);
        let inc = std::mem::take(&mut node.inc);
        for e in out.into_iter().chain(inc) {
            // A self-loop is in both lists; the first visit removes it.
            if self.edges[e.index()].alive {
                self.detach(e);
            }
        }
        self.live_nodes -= 1;
        Ok(())
    }

    /// Removes an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<(), GraphError> {
        self.require_edge(id)?;
        self.detach(id);
        Ok(())
    }

    /// Tombstones a live edge and drops it from its endpoints' lists.
    fn detach(&mut self, id: EdgeId) {
        let e = &mut self.edges[id.index()];
        e.alive = false;
        let (src, dst) = (e.src, e.dst);
        unlist(&mut self.nodes[src.index()].out, id);
        unlist(&mut self.nodes[dst.index()].inc, id);
        self.live_edges -= 1;
    }

    /// True if `id` denotes a live node.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.alive)
    }

    /// True if `id` denotes a live edge.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| e.alive)
    }

    /// `λ(v)` — the label of a node.
    pub fn node_label(&self, id: NodeId) -> Option<&str> {
        self.node(id).map(|n| n.label())
    }

    /// `λ(e)` — the label of an edge.
    pub fn edge_label(&self, id: EdgeId) -> Option<&str> {
        self.edge(id).map(|e| e.label())
    }

    /// `ρ(e)` — the (source, target) pair of an edge.
    pub fn edge_endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edge(id).map(|e| (e.source(), e.target()))
    }

    /// Relabels a node. Mostly used by the violation injector.
    pub fn set_node_label(
        &mut self,
        id: NodeId,
        label: impl Into<String>,
    ) -> Result<(), GraphError> {
        self.require_node(id)?;
        self.nodes[id.index()].label = label.into();
        Ok(())
    }

    /// Sets `σ(v, name) = value`, replacing any previous value.
    pub fn set_node_property(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        value: Value,
    ) -> Option<Value> {
        assert!(
            self.contains_node(id),
            "set_node_property: {id} not in graph"
        );
        self.nodes[id.index()].props.insert(name.into(), value)
    }

    /// Removes `(v, name)` from `dom(σ)`, returning the old value.
    pub fn remove_node_property(&mut self, id: NodeId, name: &str) -> Option<Value> {
        self.nodes.get_mut(id.index())?.props.remove(name)
    }

    /// Sets `σ(e, name) = value`, replacing any previous value.
    pub fn set_edge_property(
        &mut self,
        id: EdgeId,
        name: impl Into<String>,
        value: Value,
    ) -> Option<Value> {
        assert!(
            self.contains_edge(id),
            "set_edge_property: {id} not in graph"
        );
        self.edges[id.index()].props.insert(name.into(), value)
    }

    /// Removes `(e, name)` from `dom(σ)`, returning the old value.
    pub fn remove_edge_property(&mut self, id: EdgeId, name: &str) -> Option<Value> {
        self.edges.get_mut(id.index())?.props.remove(name)
    }

    /// `σ(v, name)` for a node.
    pub fn node_property(&self, id: NodeId, name: &str) -> Option<&Value> {
        self.node(id)?.property(name)
    }

    /// `σ(e, name)` for an edge.
    pub fn edge_property(&self, id: EdgeId, name: &str) -> Option<&Value> {
        self.edge(id)?.property(name)
    }

    /// A full view of one node.
    pub fn node(&self, id: NodeId) -> Option<NodeRef<'_>> {
        self.nodes
            .get(id.index())
            .filter(|n| n.alive)
            .map(|data| NodeRef { id, data })
    }

    /// A full view of one edge.
    pub fn edge(&self, id: EdgeId) -> Option<EdgeRef<'_>> {
        self.edges
            .get(id.index())
            .filter(|e| e.alive)
            .map(|data| EdgeRef { id, data })
    }

    /// Iterates over all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(ix, data)| NodeRef {
                id: NodeId(ix as u32),
                data,
            })
    }

    /// Iterates over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_>> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(ix, data)| EdgeRef {
                id: EdgeId(ix as u32),
                data,
            })
    }

    /// Iterates over all live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().map(|n| n.id)
    }

    /// Iterates over all live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges().map(|e| e.id)
    }

    /// Live outgoing edges of `v` in ascending id order (none for an absent
    /// or tombstoned node). Costs the out-degree; use
    /// [`crate::ColumnarGraph`] for edges grouped by label.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef<'_>> {
        self.incident(v.index(), |n| &n.out)
    }

    /// Live incoming edges of `v` in ascending id order; see
    /// [`out_edges`](Self::out_edges).
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef<'_>> {
        self.incident(v.index(), |n| &n.inc)
    }

    fn incident(
        &self,
        ix: usize,
        list: fn(&NodeData) -> &[EdgeId],
    ) -> impl Iterator<Item = EdgeRef<'_>> {
        let ids = self.nodes.get(ix).map_or(&[][..], list);
        ids.iter().map(move |&id| EdgeRef {
            id,
            data: &self.edges[id.index()],
        })
    }

    /// Compacts tombstoned elements away, producing a graph whose ids are
    /// dense again. Returns the rebuilt graph (ids are *not* preserved).
    pub fn compacted(&self) -> PropertyGraph {
        let mut out = PropertyGraph::with_capacity(self.live_nodes, self.live_edges);
        let mut remap = vec![None; self.nodes.len()];
        for (ix, n) in self.nodes.iter().enumerate() {
            if n.alive {
                remap[ix] = Some(out.push_node(true, n.label.clone(), n.props.clone()));
            }
        }
        for e in self.edges.iter().filter(|e| e.alive) {
            let (Some(src), Some(dst)) = (remap[e.src.index()], remap[e.dst.index()]) else {
                continue;
            };
            out.push_edge(true, src, dst, e.label.clone(), e.props.clone());
        }
        out
    }

    fn require_node(&self, id: NodeId) -> Result<(), GraphError> {
        if self.contains_node(id) {
            Ok(())
        } else {
            Err(GraphError::MissingNode(id))
        }
    }

    fn require_edge(&self, id: EdgeId) -> Result<(), GraphError> {
        if self.contains_edge(id) {
            Ok(())
        } else {
            Err(GraphError::MissingEdge(id))
        }
    }
}

/// The rows as a source's target: each call pushes one slot, so a source
/// that preserves an id space (the binary and `PGCS` decoders,
/// [`crate::ColumnarGraph::thaw`]) reproduces it exactly, tombstones
/// included, with the live counts and incidence lists kept as it goes.
impl GraphSink for PropertyGraph {
    fn node(&mut self, alive: bool, label: &str, props: &mut Props<'_>) {
        self.push_node(alive, label.to_owned(), own_props(props));
    }

    fn edge(&mut self, alive: bool, ends: (u32, u32), label: &str, props: &mut Props<'_>) {
        let [src, dst] = [ends.0, ends.1].map(|n| {
            let node = self.nodes.get(n as usize);
            assert!(node.is_some(), "edge to a node slot not appended");
            assert!(
                !alive || node.is_some_and(|n| n.alive),
                "live edge to a tombstoned node"
            );
            NodeId(n)
        });
        let props = own_props(props);
        self.push_edge(alive, src, dst, label.to_owned(), props);
    }
}

fn own_props(props: &mut Props<'_>) -> PropMap {
    props.drain(..).map(|(k, v)| (k.into_owned(), v)).collect()
}

/// Removes `e` from an ascending incidence list, if present.
fn unlist(list: &mut Vec<EdgeId>, e: EdgeId) {
    if let Ok(at) = list.binary_search(&e) {
        list.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_graph() -> (PropertyGraph, NodeId, NodeId, EdgeId) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let e = g.add_edge(a, b, "rel").unwrap();
        (g, a, b, e)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, a, b, e) = two_node_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_label(a), Some("A"));
        assert_eq!(g.node_label(b), Some("B"));
        assert_eq!(g.edge_label(e), Some("rel"));
        assert_eq!(g.edge_endpoints(e), Some((a, b)));
    }

    #[test]
    fn edges_require_live_endpoints() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let ghost = NodeId::from_index(42);
        assert_eq!(
            g.add_edge(a, ghost, "rel"),
            Err(GraphError::MissingNode(ghost))
        );
    }

    #[test]
    fn properties_roundtrip() {
        let (mut g, a, _, e) = two_node_graph();
        assert_eq!(g.set_node_property(a, "x", Value::Int(1)), None);
        assert_eq!(
            g.set_node_property(a, "x", Value::Int(2)),
            Some(Value::Int(1))
        );
        assert_eq!(g.node_property(a, "x"), Some(&Value::Int(2)));
        g.set_edge_property(e, "w", Value::Float(0.5));
        assert_eq!(g.edge_property(e, "w"), Some(&Value::Float(0.5)));
        assert_eq!(g.remove_node_property(a, "x"), Some(Value::Int(2)));
        assert_eq!(g.node_property(a, "x"), None);
    }

    #[test]
    fn removing_node_removes_incident_edges() {
        let (mut g, a, b, e) = two_node_graph();
        let e2 = g.add_edge(b, a, "back").unwrap();
        g.remove_node(a).unwrap();
        assert!(!g.contains_node(a));
        assert!(!g.contains_edge(e));
        assert!(!g.contains_edge(e2));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn tombstoned_ids_do_not_resurrect() {
        let (mut g, a, _, _) = two_node_graph();
        g.remove_node(a).unwrap();
        assert_eq!(g.node_label(a), None);
        assert!(g.remove_node(a).is_err());
        // New nodes get fresh ids.
        let c = g.add_node("C");
        assert_ne!(c, a);
    }

    #[test]
    fn self_loops_and_parallel_edges_are_allowed() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let l1 = g.add_edge(a, a, "self").unwrap();
        let l2 = g.add_edge(a, a, "self").unwrap();
        assert_ne!(l1, l2);
        assert_eq!(g.out_edges(a).count(), 2);
        assert_eq!(g.in_edges(a).count(), 2);
    }

    #[test]
    fn out_and_in_edges_scan() {
        let (mut g, a, b, _) = two_node_graph();
        g.add_edge(a, b, "rel2").unwrap();
        g.add_edge(b, a, "back").unwrap();
        assert_eq!(g.out_edges(a).count(), 2);
        assert_eq!(g.in_edges(b).count(), 2);
        assert_eq!(g.out_edges(b).count(), 1);
        assert_eq!(g.in_edges(a).count(), 1);
    }

    #[test]
    fn compaction_preserves_structure() {
        let (mut g, a, b, _) = two_node_graph();
        let c = g.add_node("C");
        g.add_edge(b, c, "next").unwrap();
        g.set_node_property(c, "p", Value::Int(7));
        g.remove_node(a).unwrap();
        let compact = g.compacted();
        assert_eq!(compact.node_count(), 2);
        assert_eq!(compact.edge_count(), 1);
        assert_eq!(compact.nodes.len(), 2); // dense again
        let labels: Vec<_> = compact.nodes().map(|n| n.label().to_owned()).collect();
        assert_eq!(labels, vec!["B", "C"]);
        let e = compact.edges().next().unwrap();
        assert_eq!(e.label(), "next");
        let c_new = compact.nodes().find(|n| n.label() == "C").unwrap().id;
        assert_eq!(compact.node_property(c_new, "p"), Some(&Value::Int(7)));
    }

    #[test]
    fn node_ref_iteration_is_ordered() {
        let (g, a, b, _) = two_node_graph();
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn display_of_ids_and_errors() {
        let (g, a, _, e) = two_node_graph();
        assert_eq!(a.to_string(), "n0");
        assert_eq!(e.to_string(), "e0");
        assert_eq!(
            GraphError::MissingNode(NodeId::from_index(9)).to_string(),
            "node n9 does not exist"
        );
        drop(g);
    }
}
