//! JSON interchange for Property Graphs.
//!
//! The format is deliberately simple and GraphQL-value-shaped:
//!
//! ```json
//! {
//!   "nodes": [ {"id": 0, "label": "User", "properties": {"login": "alice"}} ],
//!   "edges": [ {"id": 0, "label": "user", "source": 1, "target": 0,
//!               "properties": {"certainty": 0.9}} ]
//! }
//! ```
//!
//! Two lossy aspects are made explicit and controlled:
//!
//! * JSON has no `ID`/`Enum` kinds — they are encoded as tagged objects
//!   `{"$id": "..."}` / `{"$enum": "..."}` so decode(encode(g)) == g.
//! * Integers are kept exact: whole-number tokens parse as `i64`, and the
//!   printer always writes floats with a `.` or exponent so the
//!   `Int`/`Float` distinction survives a roundtrip.
//!
//! The module is self-contained (no external JSON crate) and split along
//! its seams:
//!
//! * `reader` — [`Reader`], the one tokenizer: a pull reader over a
//!   `&str` with an explicit depth counter bounded by [`MAX_DEPTH`] and
//!   escape-free strings borrowed from the body;
//! * `tree` — the parsed tree [`Json`], a thin builder on the reader,
//!   for the reference graph codec and for harnesses that read
//!   responses; no request body is decoded through it;
//! * `write` — the string escaper [`escape_into`] and the one streaming
//!   two-space pretty printer behind [`to_json`] and [`Json`]'s
//!   `Display`;
//! * `graph` — the graph document. [`read_graph`] decodes it straight
//!   from the text into a [`GraphSink`](crate::GraphSink): rows
//!   ([`from_json`]) or columns ([`ColumnsBuilder`](crate::ColumnsBuilder),
//!   what `POST /validate` decodes into). [`graph_from_value`] is the
//!   reference decoder over a parsed tree that the streaming one is
//!   tested against;
//! * `delta` — mutation logs ([`GraphDelta`](crate::GraphDelta)): a
//!   delta document is `{"ops": [...]}` where each op is a tagged object
//!   such as `{"op": "set-node-property", "node": 0, "name": "login",
//!   "value": "al"}` — streamed out by [`delta_to_json`] and read by
//!   [`delta_from_json`] with the reader, no tree either way.
//!   Element ids in a delta refer to the graph the delta will be applied
//!   to, i.e. the `id` fields of a graph document written by [`to_json`].

use std::fmt;

mod delta;
mod graph;
mod reader;
mod tree;
mod write;

pub use delta::{delta_from_json, delta_to_json};
pub use graph::{from_json, graph_from_value, read_graph, to_json};
pub use reader::{Kind, Reader};
pub use tree::Json;
pub use write::escape_into;

/// Deepest container nesting the [`Reader`] accepts. Decoders that build
/// nested values (the [`Json`] tree, property lists) recurse once per
/// level, and so does dropping what they built, so without a bound one
/// request body of `[[[[…` overflows the stack of whichever thread parses
/// it. A graph document nests five deep plus its list values; 128 leaves
/// two orders of magnitude of headroom.
pub const MAX_DEPTH: usize = 128;

/// Errors raised while decoding a JSON graph document.
#[derive(Debug)]
pub enum JsonError {
    /// The document was not syntactically valid JSON / did not match the
    /// expected shape. The payload describes the problem and its byte
    /// offset.
    Parse(String),
    /// An edge referenced a node id that does not appear in `nodes`.
    DanglingEdge {
        /// The edge's position in the `edges` array.
        edge_index: usize,
        /// The missing node id.
        node: u32,
    },
    /// Two nodes carry the same document id, so edges naming it would be
    /// ambiguous.
    DuplicateNode {
        /// The later node's position in the `nodes` array.
        node_index: usize,
        /// The repeated id.
        id: u32,
    },
    /// A property value used a JSON feature the Value model cannot hold
    /// (e.g. a nested object that is not an `$id`/`$enum` tag).
    BadValue(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse(e) => write!(f, "invalid graph JSON: {e}"),
            JsonError::DanglingEdge { edge_index, node } => {
                write!(f, "edge #{edge_index} references unknown node {node}")
            }
            JsonError::DuplicateNode { node_index, id } => {
                write!(f, "node #{node_index} repeats node id {id}")
            }
            JsonError::BadValue(msg) => write!(f, "unsupported property value: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}
