//! The mutation-log document `{"ops": [...]}`: each op a tagged object
//! such as `{"op": "set-node-property", "node": 0, "name": "login",
//! "value": "al"}`, written by the [`JsonWriter`] and read by the
//! [`Reader`], with no [`Json`](super::Json) tree either way.
//!
//! Which tag an op has and which members follow it, in what order, is
//! [`crate::delta`]'s layout, shared with the binary WAL codec: this
//! module names the tag by its `"op"` string, writes fields as members,
//! and reads them from the op object's member bookmarks.

use std::borrow::Cow;

use super::graph::{begin_array, begin_object, read_str, read_u32, read_value};
use super::reader::{Kind, Reader};
use super::tree::{expected, missing};
use super::write::{write_value, JsonWriter};
use super::JsonError;
use crate::delta::{DeltaOp, GraphDelta, OpReader, OpWriter, OP_TAGS};
use crate::Value;

/// Serialises a mutation log to its JSON document (`{"ops": [...]}`),
/// streamed in the module's canonical layout.
pub fn delta_to_json(delta: &GraphDelta) -> String {
    let mut out = String::with_capacity(32 + 96 * delta.len());
    let mut w = JsonWriter::new(&mut out);
    w.begin_object();
    w.key("ops");
    w.begin_array();
    for op in delta.ops() {
        w.begin_object();
        op.encode(&mut w);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    out
}

/// Fields by name: the tag is the `"op"` member, ids are integers.
impl OpWriter for JsonWriter<'_> {
    fn tag(&mut self, tag: u8) {
        self.key("op");
        self.string(OP_TAGS[tag as usize]);
    }

    fn id(&mut self, key: &'static str, index: usize) {
        self.key(key);
        self.int(index as i64);
    }

    fn string(&mut self, key: &'static str, s: &str) {
        self.key(key);
        JsonWriter::string(self, s);
    }

    fn value(&mut self, v: &Value) {
        self.key("value");
        write_value(self, v);
    }
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

/// The members an op object may carry: the tag, then every field key
/// of the layout.
const MEMBERS: [&str; 8] = [
    "op", "node", "edge", "source", "target", "label", "name", "value",
];

/// The op object at the cursor: the first of each member it may carry is
/// bookmarked, then the tag is looked up and its fields are read in
/// layout order.
fn read_op(r: &mut Reader<'_>, ix: usize) -> Result<DeltaOp, JsonError> {
    let ctx = move || format!("op #{ix}");
    let kind = r.peek()?;
    if kind != Kind::Object {
        return Err(expected(&ctx(), "an object", kind.name()));
    }
    let mut fields = OpFields {
        marks: r.members(MEMBERS)?,
        ctx,
    };
    let name = read_str(&mut fields.member("op")?, "op", ctx)?;
    let op = match OP_TAGS.iter().position(|&tag| tag == name) {
        Some(tag) => DeltaOp::decode(tag as u8, &mut fields)?,
        None => None,
    };
    op.ok_or_else(|| JsonError::Parse(format!("{}: unknown op {:?}", ctx(), &*name)))
}

/// One op object's bookmarked [`MEMBERS`], each read at most once.
struct OpFields<'a, C> {
    marks: [Option<Reader<'a>>; MEMBERS.len()],
    ctx: C,
}

impl<'a, C: Fn() -> String + Copy> OpFields<'a, C> {
    fn member(&mut self, key: &str) -> Result<Reader<'a>, JsonError> {
        let ix = MEMBERS.iter().position(|&m| m == key);
        ix.and_then(|ix| self.marks[ix].take())
            .ok_or_else(|| missing(&(self.ctx)(), key))
    }
}

impl<C: Fn() -> String + Copy> OpReader for OpFields<'_, C> {
    type Error = JsonError;

    fn id(&mut self, key: &'static str) -> Result<usize, JsonError> {
        read_u32(&mut self.member(key)?, key, self.ctx).map(|i| i as usize)
    }

    fn string(&mut self, key: &'static str) -> Result<String, JsonError> {
        read_str(&mut self.member(key)?, key, self.ctx).map(Cow::into_owned)
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        read_value(&mut self.member("value")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeId, GraphBuilder, NodeId, PropertyGraph};

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
