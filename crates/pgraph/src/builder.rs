//! A fluent bulk-construction API.
//!
//! [`GraphBuilder`] lets tests, examples and generators describe graphs by
//! *names* instead of ids, so fixture code reads like the figures in the
//! paper:
//!
//! ```
//! use pgraph::{GraphBuilder, Value};
//!
//! let g = GraphBuilder::new()
//!     .node("alice", "User")
//!     .prop("alice", "login", "alice")
//!     .node("s1", "UserSession")
//!     .edge("s1", "alice", "user")
//!     .build()
//!     .unwrap();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! let _ = Value::Null; // silence unused import in doctest
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::{EdgeId, NodeId, PropertyGraph, Value};

/// Errors raised when a builder script is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two `node` calls used the same name.
    DuplicateNode(String),
    /// A `prop`/`edge` call referred to a node name never declared.
    UnknownNode(String),
    /// An `edge_prop` call referred to an edge index that does not exist.
    UnknownEdge(usize),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateNode(n) => write!(f, "duplicate node name {n:?}"),
            BuildError::UnknownNode(n) => write!(f, "unknown node name {n:?}"),
            BuildError::UnknownEdge(i) => write!(f, "unknown edge #{i}"),
        }
    }
}

impl std::error::Error for BuildError {}

enum Op {
    Node {
        name: String,
        label: String,
    },
    NodeProp {
        name: String,
        key: String,
        value: Value,
    },
    Edge {
        src: String,
        dst: String,
        label: String,
    },
    EdgeProp {
        edge: usize,
        key: String,
        value: Value,
    },
}

/// Collects a graph description and materialises it with [`build`].
///
/// [`build`]: GraphBuilder::build
#[derive(Default)]
pub struct GraphBuilder {
    ops: Vec<Op>,
    edge_count: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a node with a unique `name` and a label.
    pub fn node(mut self, name: impl Into<String>, label: impl Into<String>) -> Self {
        self.ops.push(Op::Node {
            name: name.into(),
            label: label.into(),
        });
        self
    }

    /// Sets a property on a previously declared node.
    pub fn prop(
        mut self,
        name: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<Value>,
    ) -> Self {
        self.ops.push(Op::NodeProp {
            name: name.into(),
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// Declares an edge between two named nodes. Edges are numbered in
    /// declaration order for use with [`edge_prop`].
    ///
    /// [`edge_prop`]: GraphBuilder::edge_prop
    pub fn edge(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        label: impl Into<String>,
    ) -> Self {
        self.ops.push(Op::Edge {
            src: src.into(),
            dst: dst.into(),
            label: label.into(),
        });
        self.edge_count += 1;
        self
    }

    /// Sets a property on the most recently declared edge.
    pub fn edge_prop(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        let edge = self.edge_count.saturating_sub(1);
        self.ops.push(Op::EdgeProp {
            edge,
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// Materialises the graph, resolving names to ids.
    pub fn build(self) -> Result<PropertyGraph, BuildError> {
        let mut g = PropertyGraph::new();
        let mut names: HashMap<String, NodeId> = HashMap::new();
        let mut edges: Vec<EdgeId> = Vec::with_capacity(self.edge_count);
        // First pass: create all nodes so that forward edge references work.
        for op in &self.ops {
            if let Op::Node { name, label } = op {
                if names.contains_key(name) {
                    return Err(BuildError::DuplicateNode(name.clone()));
                }
                let id = g.add_node(label.clone());
                names.insert(name.clone(), id);
            }
        }
        for op in self.ops {
            match op {
                Op::Node { .. } => {}
                Op::NodeProp { name, key, value } => {
                    let id = *names
                        .get(&name)
                        .ok_or_else(|| BuildError::UnknownNode(name.clone()))?;
                    g.set_node_property(id, key, value);
                }
                Op::Edge { src, dst, label } => {
                    let s = *names
                        .get(&src)
                        .ok_or_else(|| BuildError::UnknownNode(src.clone()))?;
                    let d = *names
                        .get(&dst)
                        .ok_or_else(|| BuildError::UnknownNode(dst.clone()))?;
                    let e = g.add_edge(s, d, label).expect("endpoints exist");
                    edges.push(e);
                }
                Op::EdgeProp { edge, key, value } => {
                    let id = *edges.get(edge).ok_or(BuildError::UnknownEdge(edge))?;
                    g.set_edge_property(id, key, value);
                }
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_named_graph() {
        let g = GraphBuilder::new()
            .node("a", "A")
            .node("b", "B")
            .edge("a", "b", "rel")
            .edge_prop("weight", 3i64)
            .prop("a", "name", "first")
            .build()
            .unwrap();
        assert_eq!(g.node_count(), 2);
        let e = g.edges().next().unwrap();
        assert_eq!(e.property("weight"), Some(&Value::Int(3)));
        let a = g.nodes().find(|n| n.label() == "A").unwrap();
        assert_eq!(a.property("name"), Some(&Value::from("first")));
    }

    #[test]
    fn forward_edge_references_work() {
        let g = GraphBuilder::new()
            .edge("x", "y", "rel")
            .node("x", "X")
            .node("y", "Y")
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = GraphBuilder::new()
            .node("a", "A")
            .node("a", "A2")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateNode("a".into()));
    }

    #[test]
    fn unknown_names_rejected() {
        let err = GraphBuilder::new()
            .node("a", "A")
            .edge("a", "ghost", "rel")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownNode("ghost".into()));
        let err = GraphBuilder::new()
            .prop("ghost", "k", 1i64)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownNode("ghost".into()));
    }

    #[test]
    fn edge_prop_without_edge_is_rejected() {
        let err = GraphBuilder::new()
            .node("a", "A")
            .edge_prop("k", 1i64)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownEdge(0));
    }
}
