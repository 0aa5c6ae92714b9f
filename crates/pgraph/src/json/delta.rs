//! The mutation-log document `{"ops": [...]}`: each op a tagged object
//! such as `{"op": "set-node-property", "node": 0, "name": "login",
//! "value": "al"}`, encoded and decoded through the [`Json`] tree.

use super::tree::{as_object, get_str, get_u32, get_value, root_array, value_to_json};
use super::{Json, JsonError};
use crate::delta::{DeltaOp, GraphDelta};
use crate::{EdgeId, NodeId};

fn op_to_json(op: &DeltaOp) -> Json {
    fn tag(name: &str) -> (String, Json) {
        ("op".to_owned(), Json::Str(name.to_owned()))
    }
    fn node(id: NodeId) -> (String, Json) {
        ("node".to_owned(), Json::Int(id.index() as i64))
    }
    fn edge(id: EdgeId) -> (String, Json) {
        ("edge".to_owned(), Json::Int(id.index() as i64))
    }
    fn label(l: &str) -> (String, Json) {
        ("label".to_owned(), Json::Str(l.to_owned()))
    }
    fn name(n: &str) -> (String, Json) {
        ("name".to_owned(), Json::Str(n.to_owned()))
    }
    Json::Object(match op {
        DeltaOp::AddNode { label: l } => vec![tag("add-node"), label(l)],
        DeltaOp::RemoveNode { node: n } => vec![tag("remove-node"), node(*n)],
        DeltaOp::AddEdge {
            source,
            target,
            label: l,
        } => vec![
            tag("add-edge"),
            ("source".to_owned(), Json::Int(source.index() as i64)),
            ("target".to_owned(), Json::Int(target.index() as i64)),
            label(l),
        ],
        DeltaOp::RemoveEdge { edge: e } => vec![tag("remove-edge"), edge(*e)],
        DeltaOp::SetNodeProperty {
            node: n,
            name: k,
            value,
        } => vec![
            tag("set-node-property"),
            node(*n),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveNodeProperty { node: n, name: k } => {
            vec![tag("remove-node-property"), node(*n), name(k)]
        }
        DeltaOp::SetEdgeProperty {
            edge: e,
            name: k,
            value,
        } => vec![
            tag("set-edge-property"),
            edge(*e),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveEdgeProperty { edge: e, name: k } => {
            vec![tag("remove-edge-property"), edge(*e), name(k)]
        }
        DeltaOp::SetNodeLabel { node: n, label: l } => {
            vec![tag("set-node-label"), node(*n), label(l)]
        }
    })
}

fn op_from_json(v: &Json, ctx: &str) -> Result<DeltaOp, JsonError> {
    let members = as_object(v, ctx)?;
    let tag = get_str(members, "op", ctx)?;
    let node = |key: &str| get_u32(members, key, ctx).map(|i| NodeId::from_index(i as usize));
    let edge = |key: &str| get_u32(members, key, ctx).map(|i| EdgeId::from_index(i as usize));
    let string = |key: &str| get_str(members, key, ctx).map(str::to_owned);
    let value = || get_value(members, "value", ctx);
    match tag {
        "add-node" => Ok(DeltaOp::AddNode {
            label: string("label")?,
        }),
        "remove-node" => Ok(DeltaOp::RemoveNode {
            node: node("node")?,
        }),
        "add-edge" => Ok(DeltaOp::AddEdge {
            source: node("source")?,
            target: node("target")?,
            label: string("label")?,
        }),
        "remove-edge" => Ok(DeltaOp::RemoveEdge {
            edge: edge("edge")?,
        }),
        "set-node-property" => Ok(DeltaOp::SetNodeProperty {
            node: node("node")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-node-property" => Ok(DeltaOp::RemoveNodeProperty {
            node: node("node")?,
            name: string("name")?,
        }),
        "set-edge-property" => Ok(DeltaOp::SetEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-edge-property" => Ok(DeltaOp::RemoveEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
        }),
        "set-node-label" => Ok(DeltaOp::SetNodeLabel {
            node: node("node")?,
            label: string("label")?,
        }),
        other => Err(JsonError::Parse(format!("{ctx}: unknown op {other:?}"))),
    }
}

/// Serialises a mutation log to its JSON document (`{"ops": [...]}`).
pub fn delta_to_json(delta: &GraphDelta) -> String {
    delta_to_value(delta).to_string()
}

/// Builds the [`Json`] tree of a mutation log (`{"ops": [...]}`).
pub fn delta_to_value(delta: &GraphDelta) -> Json {
    let ops = Json::Array(delta.ops().iter().map(op_to_json).collect());
    Json::Object(vec![("ops".to_owned(), ops)])
}

/// Parses a mutation log from its JSON document.
///
/// Element ids are taken literally (no remapping): they must denote
/// elements of the graph the delta will be applied to, or elements the
/// delta itself creates (dense continuation ids, see
/// [`DeltaOp`]).
pub fn delta_from_json(text: &str) -> Result<GraphDelta, JsonError> {
    delta_from_value(&Json::parse(text)?)
}

/// Decodes a mutation log from an already-parsed [`Json`] tree.
pub fn delta_from_value(doc: &Json) -> Result<GraphDelta, JsonError> {
    let root = as_object(doc, "document")?;
    let parsed = root_array(root, "ops")?
        .iter()
        .enumerate()
        .map(|(ix, op)| op_from_json(op, &format!("op #{ix}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GraphDelta::from_ops(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{graph_from_value, graph_to_value};
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
    fn embedded_graph_and_delta_decode_from_value_trees() {
        // A composite payload: graph and delta nested in an envelope,
        // decoded via the public value-level API.
        let g = sample();
        let delta = GraphDelta::new().set_node_property(
            g.node_ids().next().unwrap(),
            "age",
            Value::Int(31),
        );
        let envelope = Json::Object(vec![
            (
                "schema".to_owned(),
                Json::Str("type User { x: Int }".to_owned()),
            ),
            ("graph".to_owned(), graph_to_value(&g)),
            ("delta".to_owned(), delta_to_value(&delta)),
        ]);
        let text = envelope.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("type User { x: Int }")
        );
        let g2 = graph_from_value(parsed.get("graph").unwrap()).unwrap();
        assert_eq!(g, g2);
        let d2 = delta_from_value(parsed.get("delta").unwrap()).unwrap();
        assert_eq!(delta, d2);
        assert!(parsed.get("missing").is_none());
        assert!(parsed.get("schema").unwrap().get("x").is_none());
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
