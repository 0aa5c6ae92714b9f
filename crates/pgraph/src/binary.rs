//! Compact binary codec for graphs and deltas.
//!
//! The JSON interchange form ([`crate::json`]) is the *wire* format: it is
//! human-readable and, for graphs, intentionally re-densifies ids on load.
//! The write-ahead log and snapshot files of `pg-store` need the opposite
//! trade-offs — small records, cheap encode/decode, and **exact** id-space
//! preservation (tombstones included), because replaying a logged
//! [`GraphDelta`] only produces the original graph if every `AddNode` /
//! `AddEdge` continuation id lands on the same index it did the first time.
//!
//! The encoding is little-endian throughout, with length-prefixed strings
//! and one tag byte per [`Value`] / [`DeltaOp`] variant. A delta's op
//! layout — which tag, which fields in which order — is not spelled out
//! here: [`crate::delta`] owns it for both wire forms, and this codec
//! writes and reads its fields by position. It carries no
//! framing, checksums or versioning of its own: the store wraps every
//! record in a length+CRC frame and owns corruption detection, so a
//! payload handed to [`graph_from_bytes`] / [`delta_from_bytes`] is
//! expected to be intact — decoding still validates structurally (no
//! edge, live or tombstoned, to a node slot out of range, no live edge
//! to a dead node, list values nested at most [`MAX_DEPTH`] deep) and
//! fails with a [`BinError`] rather than panicking or overflowing the
//! stack on adversarial input. A graph decodes slot by slot into the
//! rows' [`GraphSink`], the one builder every graph source feeds.
//!
//! ```
//! use pgraph::{binary, GraphDelta};
//!
//! let mut g = pgraph::PropertyGraph::new();
//! let u = g.add_node("User");
//! g.remove_node(u).unwrap(); // tombstone survives the round-trip
//! let bytes = binary::graph_to_bytes(&g);
//! assert_eq!(binary::graph_from_bytes(&bytes).unwrap(), g);
//!
//! let delta = GraphDelta::new().add_node("User");
//! let bytes = binary::delta_to_bytes(&delta);
//! assert_eq!(binary::delta_from_bytes(&bytes).unwrap(), delta);
//! ```

use std::borrow::Cow;
use std::fmt;

use crate::columnar::{sort_props, GraphSink, Props};
use crate::delta::{OpReader, OpWriter};
use crate::graph::PropMap;
use crate::json::MAX_DEPTH;
use crate::{DeltaOp, GraphDelta, NodeId, PropertyGraph, Value};

/// Errors raised when decoding binary payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The payload ended before the announced structure was complete.
    Truncated {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// An unknown tag byte for the named kind of structure.
    BadTag {
        /// What was being decoded (`"value"`, `"op"`).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string payload.
        at: usize,
    },
    /// An edge referenced a node slot that is out of range, or a live
    /// edge one that is dead.
    DanglingEdge {
        /// Index of the offending edge slot.
        edge_index: usize,
    },
    /// The payload decoded cleanly but trailing bytes remained.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A list value opened more than [`MAX_DEPTH`] levels deep.
    TooDeep {
        /// Byte offset of the list tag that went one level too far.
        at: usize,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { at } => write!(f, "payload truncated at byte {at}"),
            BinError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            BinError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            BinError::DanglingEdge { edge_index } => {
                write!(f, "edge slot {edge_index} references a missing node")
            }
            BinError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after payload")
            }
            BinError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(2);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Id(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Enum(s) => {
            out.push(5);
            put_str(out, s);
        }
        Value::List(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Null => out.push(7),
    }
}

/// Encodes one value in the tagged binary form — shared with the columnar
/// snapshot codec ([`crate::snapshot`]), whose value heap is a
/// concatenation of exactly these encodings.
pub(crate) fn encode_value(out: &mut Vec<u8>, v: &Value) {
    put_value(out, v);
}

/// Decodes `count` consecutive values, requiring the buffer to be fully
/// consumed. Inverse of `count` × [`encode_value`].
pub(crate) fn decode_values(buf: &[u8], count: usize) -> Result<Vec<Value>, BinError> {
    let mut c = Cursor { buf, pos: 0 };
    let mut values = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        values.push(c.value()?);
    }
    c.finish()?;
    Ok(values)
}

fn put_props(out: &mut Vec<u8>, props: &PropMap) {
    put_u32(out, props.len() as u32);
    for (name, value) in props {
        put_str(out, name);
        put_value(out, value);
    }
}

/// Serialises a delta to the binary form: a `u32` op count, then each
/// op's tag byte and fields in [`crate::delta`]'s layout.
pub fn delta_to_bytes(delta: &GraphDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * delta.len() + 4);
    put_u32(&mut out, delta.len() as u32);
    for op in delta.ops() {
        op.encode(&mut out);
    }
    out
}

/// Fields by position: ids are `u32`, names length-prefixed.
impl OpWriter for Vec<u8> {
    fn tag(&mut self, tag: u8) {
        self.push(tag);
    }

    fn id(&mut self, _key: &'static str, index: usize) {
        put_u32(self, index as u32);
    }

    fn string(&mut self, _key: &'static str, s: &str) {
        put_str(self, s);
    }

    fn value(&mut self, v: &Value) {
        put_value(self, v);
    }
}

/// Serialises a graph to the binary form, preserving the full id space:
/// every slot of the node and edge tables is written, tombstones included,
/// so the decoded graph is [`PartialEq`]-identical to the original and
/// fresh ids continue from the same indexes.
pub fn graph_to_bytes(g: &PropertyGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 * (g.node_index_bound() + g.edge_index_bound()) + 8);
    put_u32(&mut out, g.node_index_bound() as u32);
    for n in &g.nodes {
        out.push(n.alive as u8);
        put_str(&mut out, &n.label);
        put_props(&mut out, &n.props);
    }
    put_u32(&mut out, g.edge_index_bound() as u32);
    for e in &g.edges {
        out.push(e.alive as u8);
        put_u32(&mut out, e.src.index() as u32);
        put_u32(&mut out, e.dst.index() as u32);
        put_str(&mut out, &e.label);
        put_props(&mut out, &e.props);
    }
    out
}

// ---------------------------------------------------------------- decoding

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.buf.len() - self.pos < n {
            return Err(BinError::Truncated { at: self.buf.len() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, BinError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| BinError::BadUtf8 { at })
    }

    fn string(&mut self) -> Result<String, BinError> {
        self.str().map(str::to_owned)
    }

    fn value(&mut self) -> Result<Value, BinError> {
        self.value_within(0)
    }

    /// One value inside `depth` enclosing lists. Decoding recurses once
    /// per list, so a list opens only below [`MAX_DEPTH`] — the JSON
    /// reader's bound, so every value that arrived as JSON decodes here
    /// too, while a CRC-valid frame of nested list tags cannot overflow
    /// the stack.
    fn value_within(&mut self, depth: usize) -> Result<Value, BinError> {
        let at = self.pos;
        let tag = self.u8()?;
        Ok(match tag {
            0 => Value::Int(self.u64()? as i64),
            1 => Value::Float(f64::from_bits(self.u64()?)),
            2 => Value::String(self.string()?),
            3 => Value::Bool(self.u8()? != 0),
            4 => Value::Id(self.string()?),
            5 => Value::Enum(self.string()?),
            6 => {
                if depth == MAX_DEPTH {
                    return Err(BinError::TooDeep { at });
                }
                let len = self.u32()? as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.value_within(depth + 1)?);
                }
                Value::List(items)
            }
            7 => Value::Null,
            tag => return Err(BinError::BadTag { what: "value", tag }),
        })
    }

    /// One element's properties into `props`, in name order, the last
    /// of a repeated name winning.
    fn props(&mut self, props: &mut Props<'a>) -> Result<(), BinError> {
        let len = self.u32()? as usize;
        for _ in 0..len {
            let name = self.str()?;
            let value = self.value()?;
            props.push((Cow::Borrowed(name), value));
        }
        sort_props(props);
        Ok(())
    }

    fn finish(self) -> Result<(), BinError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(BinError::TrailingBytes {
                count: self.buf.len() - self.pos,
            })
        }
    }
}

impl OpReader for Cursor<'_> {
    type Error = BinError;

    fn id(&mut self, _key: &'static str) -> Result<usize, BinError> {
        Ok(self.u32()? as usize)
    }

    fn string(&mut self, _key: &'static str) -> Result<String, BinError> {
        Cursor::string(self)
    }

    fn value(&mut self) -> Result<Value, BinError> {
        Cursor::value(self)
    }
}

/// Decodes a delta written by [`delta_to_bytes`].
pub fn delta_from_bytes(bytes: &[u8]) -> Result<GraphDelta, BinError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let count = c.u32()? as usize;
    let mut ops = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let tag = c.u8()?;
        ops.push(DeltaOp::decode(tag, &mut c)?.ok_or(BinError::BadTag { what: "op", tag })?);
    }
    c.finish()?;
    Ok(GraphDelta::from_ops(ops))
}

/// Decodes a graph written by [`graph_to_bytes`], slot by slot into
/// the rows' [`GraphSink`].
///
/// Validates structurally: every edge must point at in-range node slots,
/// and a *live* edge at live ones (tombstoned edges may reference
/// tombstoned nodes — that is exactly the state `remove_node`'s cascade
/// leaves behind).
pub fn graph_from_bytes(bytes: &[u8]) -> Result<PropertyGraph, BinError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let mut props = Props::new();
    let node_slots = c.u32()? as usize;
    let mut g = PropertyGraph::with_capacity(node_slots.min(1 << 20), 0);
    for _ in 0..node_slots {
        let alive = c.u8()? != 0;
        let label = c.str()?;
        c.props(&mut props)?;
        GraphSink::node(&mut g, alive, label, &mut props);
    }
    let edge_slots = c.u32()? as usize;
    g.edges.reserve(edge_slots.min(1 << 20));
    for ix in 0..edge_slots {
        let alive = c.u8()? != 0;
        let ends = (c.u32()?, c.u32()?);
        let label = c.str()?;
        c.props(&mut props)?;
        let joins = |n: u32| {
            (n as usize) < g.node_index_bound()
                && (!alive || g.contains_node(NodeId::from_index(n as usize)))
        };
        if !joins(ends.0) || !joins(ends.1) {
            return Err(BinError::DanglingEdge { edge_index: ix });
        }
        GraphSink::edge(&mut g, alive, ends, label, &mut props);
    }
    c.finish()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    fn sample_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node("User");
        let b = g.add_node("UserSession");
        let c = g.add_node("Doomed");
        g.set_node_property(a, "login", Value::from("alice"));
        g.set_node_property(
            a,
            "scores",
            Value::List(vec![Value::Int(1), Value::Null, Value::Float(f64::NAN)]),
        );
        g.set_node_property(b, "id", Value::Id("s-1".into()));
        let e = g.add_edge(b, a, "user").unwrap();
        g.set_edge_property(e, "certainty", Value::Float(0.9));
        g.set_edge_property(e, "unit", Value::Enum("METER".into()));
        let doomed_edge = g.add_edge(c, a, "rel").unwrap();
        g.remove_edge(doomed_edge).unwrap();
        g.remove_node(c).unwrap(); // tombstones a node and leaves a dead edge slot
        g
    }

    #[test]
    fn graph_round_trip_preserves_tombstones() {
        let g = sample_graph();
        let bytes = graph_to_bytes(&g);
        let back = graph_from_bytes(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.node_index_bound(), g.node_index_bound());
        assert_eq!(back.node_count(), g.node_count());
        // Fresh ids continue from the same index.
        let mut g2 = g.clone();
        let mut back2 = back;
        assert_eq!(g2.add_node("X"), back2.add_node("X"));
    }

    #[test]
    fn delta_round_trip_all_ops() {
        let n = NodeId::from_index(3);
        let e = EdgeId::from_index(5);
        let delta = GraphDelta::new()
            .add_node("User")
            .remove_node(n)
            .add_edge(n, NodeId::from_index(4), "rel")
            .remove_edge(e)
            .set_node_property(n, "x", Value::Int(-7))
            .remove_node_property(n, "x")
            .set_edge_property(e, "w", Value::Bool(true))
            .remove_edge_property(e, "w")
            .set_node_label(n, "Admin");
        let bytes = delta_to_bytes(&delta);
        assert_eq!(delta_from_bytes(&bytes).unwrap(), delta);
    }

    #[test]
    fn truncation_is_detected_at_every_prefix() {
        let bytes = graph_to_bytes(&sample_graph());
        for cut in 0..bytes.len() {
            assert!(
                graph_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let bytes = delta_to_bytes(&GraphDelta::new().add_node("User"));
        for cut in 0..bytes.len() {
            assert!(delta_from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = delta_to_bytes(&GraphDelta::new());
        bytes.push(0);
        assert_eq!(
            delta_from_bytes(&bytes),
            Err(BinError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        // One op announced, tag 200.
        let bytes = [1, 0, 0, 0, 200];
        assert_eq!(
            delta_from_bytes(&bytes),
            Err(BinError::BadTag {
                what: "op",
                tag: 200
            })
        );
    }

    #[test]
    fn live_edge_to_dead_node_is_rejected() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge(a, b, "rel").unwrap();
        let mut bytes = graph_to_bytes(&g);
        // Flip node b's alive byte (offset: 4 count + [1 alive + 4 len + 1 'A'
        // + 4 props] = byte 14) without touching the edge.
        assert_eq!(bytes[14], 1);
        bytes[14] = 0;
        assert_eq!(
            graph_from_bytes(&bytes),
            Err(BinError::DanglingEdge { edge_index: 0 })
        );
    }

    /// One `SetNodeProperty` op whose value is `levels` nested one-item
    /// lists around a `Null`.
    fn nested_delta_bytes(levels: usize) -> Vec<u8> {
        let mut bytes = vec![1, 0, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 0, b'x'];
        for _ in 0..levels {
            bytes.extend_from_slice(&[6, 1, 0, 0, 0]);
        }
        bytes.push(7);
        bytes
    }

    #[test]
    fn list_nesting_is_bounded_with_a_located_error() {
        let nested =
            |levels: usize| (0..levels).fold(Value::Null, |inner, _| Value::List(vec![inner]));
        let delta =
            GraphDelta::new().set_node_property(NodeId::from_index(0), "x", nested(MAX_DEPTH));
        assert_eq!(delta_to_bytes(&delta), nested_delta_bytes(MAX_DEPTH));
        assert_eq!(
            delta_from_bytes(&nested_delta_bytes(MAX_DEPTH)).unwrap(),
            delta
        );
        // The op header is 14 bytes and each level 5: the list one level
        // too deep opens at byte 14 + 5 * MAX_DEPTH.
        assert_eq!(
            delta_from_bytes(&nested_delta_bytes(MAX_DEPTH + 1)),
            Err(BinError::TooDeep {
                at: 14 + 5 * MAX_DEPTH
            })
        );
        // What used to recurse once per level until the stack ran out.
        let err = delta_from_bytes(&nested_delta_bytes(1_000_000)).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("nesting deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
    }

    /// The deepest value the JSON delta reader accepts survives the
    /// binary codec — the WAL can log whatever a client could send.
    #[test]
    fn the_deepest_json_value_round_trips() {
        let parse = |levels: usize| {
            crate::json::delta_from_json(&format!(
                "{{\"ops\": [{{\"op\": \"set-node-property\", \"node\": 0, \"name\": \"x\", \
                 \"value\": {}1{}}}]}}",
                "[".repeat(levels),
                "]".repeat(levels)
            ))
        };
        let deepest = (1..=MAX_DEPTH + 1)
            .take_while(|&levels| parse(levels).is_ok())
            .last()
            .unwrap();
        assert!(
            deepest > MAX_DEPTH - 8,
            "JSON accepted only {deepest} levels"
        );
        let delta = parse(deepest).unwrap();
        assert_eq!(delta_from_bytes(&delta_to_bytes(&delta)).unwrap(), delta);
    }

    #[test]
    fn errors_display() {
        assert!(BinError::Truncated { at: 3 }.to_string().contains("byte 3"));
        assert!(BinError::BadUtf8 { at: 9 }.to_string().contains("UTF-8"));
    }
}
