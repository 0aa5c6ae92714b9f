//! # pgraph — a Property Graph engine
//!
//! This crate implements the Property Graph data model of Angles et al.
//! exactly as adopted by Hartig & Hidders (Definition 2.1):
//!
//! > A Property Graph is a tuple `(V, E, ρ, λ, σ)` where `V` is a finite set
//! > of vertices, `E` a finite set of edges with `V ∩ E = ∅`,
//! > `ρ : E → (V × V)` a total function assigning endpoints,
//! > `λ : (V ∪ E) → Labels` a total labelling function, and
//! > `σ : (V ∪ E) × Props ⇀ Values` a partial function assigning property
//! > values to nodes and edges.
//!
//! The central type is [`PropertyGraph`]. Nodes and edges are addressed by
//! the copyable ids [`NodeId`] and [`EdgeId`]; labels are strings; property
//! values are the GraphQL-compatible [`Value`] type (scalars or flat lists
//! of scalars — exactly the value space the paper's schemas can constrain).
//!
//! Beyond the bare model the crate provides what a validation engine needs
//! from its substrate:
//!
//! * mutation and bulk-construction APIs ([`PropertyGraph`], [`GraphBuilder`]);
//!   the graph keeps per-node incidence lists, so a node's edges cost its
//!   degree,
//! * mutation logs ([`delta::GraphDelta`]) that capture an evolution step
//!   as a value and report exactly what they touched — the substrate for
//!   incremental revalidation,
//! * an immutable columnar view with a label index and out/in CSR
//!   adjacency grouped by edge label ([`ColumnarGraph`]),
//! * a stable JSON interchange format ([`json`]).
//!
//! ```
//! use pgraph::{PropertyGraph, Value};
//!
//! let mut g = PropertyGraph::new();
//! let alice = g.add_node("User");
//! g.set_node_property(alice, "login", Value::from("alice"));
//! let session = g.add_node("UserSession");
//! let e = g.add_edge(session, alice, "user").unwrap();
//! g.set_edge_property(e, "certainty", Value::from(0.9));
//!
//! assert_eq!(g.node_label(alice), Some("User"));
//! assert_eq!(g.edge_endpoints(e), Some((session, alice)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
mod value;

pub mod binary;
pub mod columnar;
pub mod csv;
pub mod delta;
pub mod dot;
pub mod json;
pub mod parse;
pub mod snapshot;
pub mod symbols;

pub use builder::{BuildError, GraphBuilder};
pub use columnar::{ColumnarGraph, ColumnsBuilder, GraphSink, Props, ValueTable};
pub use delta::{DeltaEffect, DeltaOp, EdgeTouch, GraphDelta};
pub use graph::{EdgeId, EdgeRef, GraphError, NodeId, NodeRef, PropertyGraph};
pub use parse::ParseEnumError;
pub use symbols::{Sym, SymbolTable};
pub use value::Value;
