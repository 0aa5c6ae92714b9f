//! The mutation-log document `{"ops": [...]}`: each op a tagged object
//! such as `{"op": "set-node-property", "node": 0, "name": "login",
//! "value": "al"}`, written by the [`JsonWriter`] and read by the
//! [`Reader`], with no [`Json`](super::Json) tree either way.

use std::borrow::Cow;

use super::graph::{begin_array, begin_object, read_str, read_u32, read_value};
use super::reader::{Kind, Reader};
use super::tree::{expected, missing};
use super::write::{write_value, JsonWriter};
use super::JsonError;
use crate::delta::{DeltaOp, GraphDelta};
use crate::{EdgeId, NodeId};

/// Serialises a mutation log to its JSON document (`{"ops": [...]}`),
/// streamed in the module's canonical layout.
pub fn delta_to_json(delta: &GraphDelta) -> String {
    let mut out = String::with_capacity(32 + 96 * delta.len());
    let mut w = JsonWriter::new(&mut out);
    w.begin_object();
    w.key("ops");
    w.begin_array();
    for op in delta.ops() {
        write_op(&mut w, op);
    }
    w.end_array();
    w.end_object();
    out
}

fn write_op(w: &mut JsonWriter<'_>, op: &DeltaOp) {
    fn id(w: &mut JsonWriter<'_>, key: &str, index: usize) {
        w.key(key);
        w.int(index as i64);
    }
    fn text(w: &mut JsonWriter<'_>, key: &str, s: &str) {
        w.key(key);
        w.string(s);
    }
    w.begin_object();
    match op {
        DeltaOp::AddNode { label } => {
            text(w, "op", "add-node");
            text(w, "label", label);
        }
        DeltaOp::RemoveNode { node } => {
            text(w, "op", "remove-node");
            id(w, "node", node.index());
        }
        DeltaOp::AddEdge {
            source,
            target,
            label,
        } => {
            text(w, "op", "add-edge");
            id(w, "source", source.index());
            id(w, "target", target.index());
            text(w, "label", label);
        }
        DeltaOp::RemoveEdge { edge } => {
            text(w, "op", "remove-edge");
            id(w, "edge", edge.index());
        }
        DeltaOp::SetNodeProperty { node, name, value } => {
            text(w, "op", "set-node-property");
            id(w, "node", node.index());
            text(w, "name", name);
            w.key("value");
            write_value(w, value);
        }
        DeltaOp::RemoveNodeProperty { node, name } => {
            text(w, "op", "remove-node-property");
            id(w, "node", node.index());
            text(w, "name", name);
        }
        DeltaOp::SetEdgeProperty { edge, name, value } => {
            text(w, "op", "set-edge-property");
            id(w, "edge", edge.index());
            text(w, "name", name);
            w.key("value");
            write_value(w, value);
        }
        DeltaOp::RemoveEdgeProperty { edge, name } => {
            text(w, "op", "remove-edge-property");
            id(w, "edge", edge.index());
            text(w, "name", name);
        }
        DeltaOp::SetNodeLabel { node, label } => {
            text(w, "op", "set-node-label");
            id(w, "node", node.index());
            text(w, "label", label);
        }
    }
    w.end_object();
}

/// Parses a mutation log from its JSON document.
///
/// Element ids are taken literally (no remapping): they must denote
/// elements of the graph the delta will be applied to, or elements the
/// delta itself creates (dense continuation ids, see
/// [`DeltaOp`]).
///
/// No [`Json`](super::Json) tree is built, and the outcome is a tree
/// decoder's, messages included: the first `ops`, and in each op the
/// first of each member, count; unknown members are skipped with a
/// syntax check; and a syntax error anywhere outranks a shape error met
/// before it, so a failed decode re-scans the text for one.
pub fn delta_from_json(text: &str) -> Result<GraphDelta, JsonError> {
    let mut reader = Reader::new(text);
    let ops = read_ops(&mut reader).and_then(|ops| reader.finish().map(|()| ops));
    ops.map(GraphDelta::from_ops).map_err(|first| {
        let mut scan = Reader::new(text);
        let syntax = scan.skip_value().and_then(|()| scan.finish());
        syntax.err().unwrap_or(first)
    })
}

fn read_ops(r: &mut Reader<'_>) -> Result<Vec<DeltaOp>, JsonError> {
    begin_object(r, || "document".to_owned())?;
    let mut ops = None;
    while let Some(key) = r.next_key()? {
        if key != "ops" || ops.is_some() {
            r.skip_value()?;
            continue;
        }
        begin_array(r, "ops")?;
        let mut list = Vec::new();
        while r.next_item()? {
            list.push(read_op(r, list.len())?);
        }
        ops = Some(list);
    }
    ops.ok_or_else(|| missing("document", "ops"))
}

/// The op object at the cursor: the first of each member it may carry is
/// bookmarked, then the tag's fields are read in their declared order.
fn read_op<'a>(r: &mut Reader<'a>, ix: usize) -> Result<DeltaOp, JsonError> {
    let ctx = move || format!("op #{ix}");
    let kind = r.peek()?;
    if kind != Kind::Object {
        return Err(expected(&ctx(), "an object", kind.name()));
    }
    let [op, node, edge, source, target, label, name, value] = r.members([
        "op", "node", "edge", "source", "target", "label", "name", "value",
    ])?;
    let field = |mark: Option<Reader<'a>>, key| mark.ok_or_else(|| missing(&ctx(), key));
    let id = |mark, key| read_u32(&mut field(mark, key)?, key, ctx).map(|i| i as usize);
    let node_id = |mark, key| id(mark, key).map(NodeId::from_index);
    let edge_id = |mark| id(mark, "edge").map(EdgeId::from_index);
    let string = |mark, key| read_str(&mut field(mark, key)?, key, ctx).map(Cow::into_owned);
    let property_value = || read_value(&mut field(value, "value")?);
    let tag = read_str(&mut field(op, "op")?, "op", ctx)?;
    Ok(match &*tag {
        "add-node" => DeltaOp::AddNode {
            label: string(label, "label")?,
        },
        "remove-node" => DeltaOp::RemoveNode {
            node: node_id(node, "node")?,
        },
        "add-edge" => DeltaOp::AddEdge {
            source: node_id(source, "source")?,
            target: node_id(target, "target")?,
            label: string(label, "label")?,
        },
        "remove-edge" => DeltaOp::RemoveEdge {
            edge: edge_id(edge)?,
        },
        "set-node-property" => DeltaOp::SetNodeProperty {
            node: node_id(node, "node")?,
            name: string(name, "name")?,
            value: property_value()?,
        },
        "remove-node-property" => DeltaOp::RemoveNodeProperty {
            node: node_id(node, "node")?,
            name: string(name, "name")?,
        },
        "set-edge-property" => DeltaOp::SetEdgeProperty {
            edge: edge_id(edge)?,
            name: string(name, "name")?,
            value: property_value()?,
        },
        "remove-edge-property" => DeltaOp::RemoveEdgeProperty {
            edge: edge_id(edge)?,
            name: string(name, "name")?,
        },
        "set-node-label" => DeltaOp::SetNodeLabel {
            node: node_id(node, "node")?,
            label: string(label, "label")?,
        },
        other => return Err(JsonError::Parse(format!("{}: unknown op {other:?}", ctx()))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, PropertyGraph, Value};

    fn sample() -> PropertyGraph {
        GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .prop("u", "age", 30i64)
            .node("s", "UserSession")
            .edge("s", "u", "user")
            .build()
            .unwrap()
    }

    #[test]
    fn delta_roundtrip_covers_every_op() {
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let e0 = EdgeId::from_index(0);
        let delta = GraphDelta::new()
            .add_node("User")
            .remove_node(n1)
            .add_edge(n0, n1, "follows")
            .remove_edge(e0)
            .set_node_property(n0, "login", Value::from("alice"))
            .remove_node_property(n0, "login")
            .set_edge_property(e0, "w", Value::Float(0.5))
            .remove_edge_property(e0, "w")
            .set_node_label(n0, "Admin");
        let text = delta_to_json(&delta);
        let back = delta_from_json(&text).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_values_keep_tagged_kinds() {
        let n0 = NodeId::from_index(0);
        let delta = GraphDelta::new()
            .set_node_property(n0, "id", Value::Id("u-17".into()))
            .set_node_property(n0, "unit", Value::Enum("METER".into()))
            .set_node_property(n0, "xs", Value::from(vec![1i64, 2]));
        let back = delta_from_json(&delta_to_json(&delta)).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_parse_errors_are_located() {
        assert!(delta_from_json("{}").is_err());
        let err = delta_from_json(r#"{"ops": [{"op": "warp"}]}"#).unwrap_err();
        assert!(err.to_string().contains("unknown op"), "{err}");
        let err = delta_from_json(r#"{"ops": [{"op": "add-node"}]}"#).unwrap_err();
        assert!(err.to_string().contains("op #0"), "{err}");
    }

    #[test]
    fn delta_applies_after_roundtrip() {
        let mut g = sample();
        let u = g.nodes().find(|n| n.label() == "User").unwrap().id;
        let delta = GraphDelta::new()
            .set_node_property(u, "age", Value::Int(31))
            .add_node("UserSession");
        let delta = delta_from_json(&delta_to_json(&delta)).unwrap();
        let eff = delta.apply_to(&mut g).unwrap();
        assert_eq!(g.node_property(u, "age"), Some(&Value::Int(31)));
        assert_eq!(eff.added_nodes.len(), 1);
    }
}
