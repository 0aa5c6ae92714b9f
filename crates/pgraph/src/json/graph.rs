//! The graph document: written straight from a [`PropertyGraph`]
//! ([`to_json`]), read straight from the text into any [`GraphSink`]
//! ([`read_graph`], behind [`from_json`]), plus the tree-level reference
//! decoder [`graph_from_value`] that the streaming one is tested against.

use std::collections::HashMap;

use super::reader::{Kind, Reader};
use super::tree::{
    as_object, expected, get_properties, get_str, get_u32, missing, root_array, untagged_object,
    value_from_json, wrong_kind,
};
use super::write::{write_value, JsonWriter};
use super::{Json, JsonError};
use crate::columnar::{GraphSink, Props};
use crate::{NodeId, PropertyGraph, Value};

/// One node (`ends` absent) or edge object. `props` arrive in name order
/// — the graph keeps them sorted — and an element without any gets no
/// `"properties"` member.
fn write_element<'g>(
    w: &mut JsonWriter<'_>,
    id: usize,
    label: &str,
    ends: Option<(NodeId, NodeId)>,
    props: impl Iterator<Item = (&'g str, &'g Value)>,
) {
    w.begin_object();
    w.key("id");
    w.int(id as i64);
    w.key("label");
    w.string(label);
    if let Some((source, target)) = ends {
        w.key("source");
        w.int(source.index() as i64);
        w.key("target");
        w.int(target.index() as i64);
    }
    let mut props = props.peekable();
    if props.peek().is_some() {
        w.key("properties");
        w.begin_object();
        for (name, value) in props {
            w.key(name);
            write_value(w, value);
        }
        w.end_object();
    }
    w.end_object();
}

/// Serialises a graph to its canonical (pretty) JSON document.
///
/// Properties are emitted in sorted key order so the output is
/// deterministic regardless of insertion order. The document is streamed
/// from the graph into one buffer — no [`Json`] tree is built — and is
/// byte-identical to printing the same document as a tree, the
/// reference the tests compare it against.
pub fn to_json(g: &PropertyGraph) -> String {
    // A pretty-printed element with a property or two is ~130 bytes.
    let mut out = String::with_capacity(64 + 128 * g.node_count() + 160 * g.edge_count());
    let mut w = JsonWriter::new(&mut out);
    w.begin_object();
    w.key("nodes");
    w.begin_array();
    for n in g.nodes() {
        write_element(&mut w, n.id.index(), n.label(), None, n.properties());
    }
    w.end_array();
    w.key("edges");
    w.begin_array();
    for e in g.edges() {
        let ends = Some((e.source(), e.target()));
        write_element(&mut w, e.id.index(), e.label(), ends, e.properties());
    }
    w.end_array();
    w.end_object();
    out
}

/// Parses a graph from its JSON document. Node ids in the document are
/// arbitrary distinct numbers; they are remapped to dense ids.
pub fn from_json(text: &str) -> Result<PropertyGraph, JsonError> {
    let mut reader = Reader::new(text);
    let mut g = PropertyGraph::new();
    read_graph(&mut reader, &mut g)?;
    reader.finish()?;
    Ok(g)
}

/// Decodes a graph from an already-parsed [`Json`] tree — the reference
/// decoder [`read_graph`] is tested against, for graphs embedded in a
/// document that was parsed whole.
pub fn graph_from_value(doc: &Json) -> Result<PropertyGraph, JsonError> {
    let root = as_object(doc, "document")?;
    let nodes = root_array(root, "nodes")?;
    let edges = root_array(root, "edges")?;

    let mut g = PropertyGraph::with_capacity(nodes.len(), edges.len());
    let mut remap = HashMap::with_capacity(nodes.len());
    for (ix, n) in nodes.iter().enumerate() {
        let ctx = format!("node #{ix}");
        let members = as_object(n, &ctx)?;
        let doc_id = get_u32(members, "id", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let id = g.add_node(label.to_owned());
        if remap.insert(doc_id, id).is_some() {
            return Err(JsonError::DuplicateNode {
                node_index: ix,
                id: doc_id,
            });
        }
        for (k, v) in get_properties(members, &ctx)? {
            g.set_node_property(id, k.clone(), value_from_json(v)?);
        }
    }
    for (ix, e) in edges.iter().enumerate() {
        let ctx = format!("edge #{ix}");
        let members = as_object(e, &ctx)?;
        let source = get_u32(members, "source", &ctx)?;
        let target = get_u32(members, "target", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let end = |node| {
            remap.get(&node).copied().ok_or(JsonError::DanglingEdge {
                edge_index: ix,
                node,
            })
        };
        let eid = g
            .add_edge(end(source)?, end(target)?, label.to_owned())
            .expect("remapped");
        for (k, v) in get_properties(members, &ctx)? {
            g.set_edge_property(eid, k.clone(), value_from_json(v)?);
        }
    }
    Ok(g)
}

/// Decodes the graph document at the reader's cursor into `sink`,
/// streaming: no [`Json`] tree is built, and the sink sees each element
/// once, nodes first, in document order.
///
/// It accepts exactly what [`graph_from_value`] accepts over the parsed
/// text and hands the sink the same graph: the first `nodes`, `edges`,
/// `id`, `label`, `source`, `target` and `properties` member counts, as
/// [`Json::get`] does; inside `properties` the last of a repeated key
/// wins; unknown members are skipped with a syntax check. An `edges`
/// member that comes before `nodes` is skipped the same way and re-read
/// once the nodes are known.
pub fn read_graph<'a, S: GraphSink>(
    reader: &mut Reader<'a>,
    sink: &mut S,
) -> Result<(), JsonError> {
    Decoder::default().document(reader, sink)
}

#[derive(Default)]
struct Decoder<'a> {
    /// Document node id → dense index.
    remap: HashMap<u32, u32>,
    /// The current element's properties.
    props: Props<'a>,
}

impl<'a> Decoder<'a> {
    fn document<S: GraphSink>(
        &mut self,
        r: &mut Reader<'a>,
        sink: &mut S,
    ) -> Result<(), JsonError> {
        begin_object(r, || "document".to_owned())?;
        let mut nodes_read = false;
        // The first `edges` member: unseen, read, or bookmarked because
        // it came before `nodes`.
        let mut edges: Option<Option<Reader<'a>>> = None;
        while let Some(key) = r.next_key()? {
            match &*key {
                "nodes" if !nodes_read => {
                    self.nodes(r, sink)?;
                    nodes_read = true;
                }
                "edges" if edges.is_none() => {
                    let kind = r.peek()?;
                    if kind != Kind::Array {
                        return Err(expected("edges", "an array", kind.name()));
                    }
                    if nodes_read {
                        self.edges(r, sink)?;
                        edges = Some(None);
                    } else {
                        edges = Some(Some(r.clone()));
                        r.skip_value()?;
                    }
                }
                _ => r.skip_value()?,
            }
        }
        if !nodes_read {
            return Err(missing("document", "nodes"));
        }
        match edges {
            None => Err(missing("document", "edges")),
            Some(Some(mut mark)) => self.edges(&mut mark, sink),
            Some(None) => Ok(()),
        }
    }

    fn nodes<S: GraphSink>(&mut self, r: &mut Reader<'a>, sink: &mut S) -> Result<(), JsonError> {
        begin_array(r, "nodes")?;
        let mut node_index = 0;
        while r.next_item()? {
            let ctx = || format!("node #{node_index}");
            begin_object(r, ctx)?;
            self.props.clear();
            let (mut id, mut label, mut props) = (None, None, false);
            while let Some(key) = r.next_key()? {
                match &*key {
                    "id" if id.is_none() => id = Some(read_u32(r, "id", ctx)?),
                    "label" if label.is_none() => label = Some(read_str(r, "label", ctx)?),
                    "properties" if !props => {
                        props = true;
                        self.properties(r, ctx)?;
                    }
                    _ => r.skip_value()?,
                }
            }
            let id = id.ok_or_else(|| missing(&ctx(), "id"))?;
            let label = label.ok_or_else(|| missing(&ctx(), "label"))?;
            let dense = self.remap.len() as u32;
            if self.remap.insert(id, dense).is_some() {
                return Err(JsonError::DuplicateNode { node_index, id });
            }
            sort_props(&mut self.props);
            sink.node(&label, &mut self.props);
            node_index += 1;
        }
        Ok(())
    }

    fn edges<S: GraphSink>(&mut self, r: &mut Reader<'a>, sink: &mut S) -> Result<(), JsonError> {
        begin_array(r, "edges")?;
        let mut edge_index = 0;
        while r.next_item()? {
            let ctx = || format!("edge #{edge_index}");
            begin_object(r, ctx)?;
            self.props.clear();
            let (mut source, mut target, mut label, mut props) = (None, None, None, false);
            while let Some(key) = r.next_key()? {
                match &*key {
                    "source" if source.is_none() => source = Some(read_u32(r, "source", ctx)?),
                    "target" if target.is_none() => target = Some(read_u32(r, "target", ctx)?),
                    "label" if label.is_none() => label = Some(read_str(r, "label", ctx)?),
                    "properties" if !props => {
                        props = true;
                        self.properties(r, ctx)?;
                    }
                    _ => r.skip_value()?,
                }
            }
            let source = source.ok_or_else(|| missing(&ctx(), "source"))?;
            let target = target.ok_or_else(|| missing(&ctx(), "target"))?;
            let label = label.ok_or_else(|| missing(&ctx(), "label"))?;
            let end = |node| {
                self.remap
                    .get(&node)
                    .copied()
                    .ok_or(JsonError::DanglingEdge { edge_index, node })
            };
            let (src, dst) = (end(source)?, end(target)?);
            sort_props(&mut self.props);
            sink.edge(src, dst, &label, &mut self.props);
            edge_index += 1;
        }
        Ok(())
    }

    /// The `properties` object at the cursor, appended to `self.props`
    /// in document order.
    fn properties(
        &mut self,
        r: &mut Reader<'a>,
        ctx: impl FnOnce() -> String,
    ) -> Result<(), JsonError> {
        match r.peek()? {
            Kind::Object => r.begin_object()?,
            other => return Err(wrong_kind(&ctx(), "properties", "an object", other.name())),
        }
        while let Some(key) = r.next_key()? {
            let value = read_value(r)?;
            self.props.push((key, value));
        }
        Ok(())
    }
}

/// Puts an element's properties in name order, the last of a repeated
/// key winning (the stable sort keeps repeats in document order).
fn sort_props(props: &mut Props<'_>) {
    props.sort_by(|a, b| a.0.cmp(&b.0));
    props.dedup_by(|later, kept| {
        let repeat = later.0 == kept.0;
        if repeat {
            std::mem::swap(&mut later.1, &mut kept.1);
        }
        repeat
    });
}

pub(super) fn begin_object(
    r: &mut Reader<'_>,
    ctx: impl FnOnce() -> String,
) -> Result<(), JsonError> {
    match r.peek()? {
        Kind::Object => r.begin_object(),
        other => Err(expected(&ctx(), "an object", other.name())),
    }
}

pub(super) fn begin_array(r: &mut Reader<'_>, ctx: &str) -> Result<(), JsonError> {
    match r.peek()? {
        Kind::Array => r.begin_array(),
        other => Err(expected(ctx, "an array", other.name())),
    }
}

pub(super) fn read_u32(
    r: &mut Reader<'_>,
    key: &str,
    ctx: impl FnOnce() -> String,
) -> Result<u32, JsonError> {
    let kind = r.peek()?;
    if kind == Kind::Number {
        if let Json::Int(i) = r.scalar()? {
            if let Ok(id) = u32::try_from(i) {
                return Ok(id);
            }
        }
    }
    Err(wrong_kind(&ctx(), key, "a u32", kind.name()))
}

pub(super) fn read_str<'a>(
    r: &mut Reader<'a>,
    key: &str,
    ctx: impl FnOnce() -> String,
) -> Result<std::borrow::Cow<'a, str>, JsonError> {
    match r.peek()? {
        Kind::Str => r.string(),
        other => Err(wrong_kind(&ctx(), key, "a string", other.name())),
    }
}

/// A property value at the cursor. Lists recurse, bounded by the
/// reader's depth limit.
pub(super) fn read_value(r: &mut Reader<'_>) -> Result<Value, JsonError> {
    Ok(match r.peek()? {
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(read_value(r)?);
            }
            Value::List(items)
        }
        Kind::Object => return read_tagged(r),
        Kind::Str => Value::String(r.string()?.into_owned()),
        _ => return value_from_json(&r.scalar()?),
    })
}

/// A `{"$id": …}` / `{"$enum": …}` tag at the cursor; any other object is
/// a [`JsonError::BadValue`] naming its keys.
fn read_tagged(r: &mut Reader<'_>) -> Result<Value, JsonError> {
    r.begin_object()?;
    let mut keys = Vec::new();
    let mut tagged = None;
    while let Some(key) = r.next_key()? {
        if keys.is_empty() && (key == "$id" || key == "$enum") && r.peek()? == Kind::Str {
            let s = r.string()?.into_owned();
            tagged = Some(if key == "$id" {
                Value::Id(s)
            } else {
                Value::Enum(s)
            });
        } else {
            r.skip_value()?;
        }
        keys.push(key);
    }
    match tagged {
        Some(value) if keys.len() == 1 => Ok(value),
        _ => Err(untagged_object(&keys)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .prop("u", "age", 30i64)
            .node("s", "UserSession")
            .edge("s", "u", "user")
            .edge_prop("certainty", 0.75)
            .build()
            .unwrap();
        let u = g.node_ids().next().unwrap();
        g.set_node_property(u, "id", Value::Id("u-17".into()));
        g.set_node_property(u, "nicknames", Value::from(vec!["al", "lice"]));
        g.set_node_property(u, "unit", Value::Enum("METER".into()));
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let text = to_json(&g);
        assert_eq!(from_json(&text).unwrap(), g);
        assert_eq!(graph_from_value(&Json::parse(&text).unwrap()).unwrap(), g);
    }

    #[test]
    fn embedded_graph_decodes_from_a_value_tree() {
        // A composite payload: a graph nested in an envelope, decoded via
        // the public value-level API.
        let g = sample();
        let envelope = Json::Object(vec![
            (
                "schema".to_owned(),
                Json::Str("type User { x: Int }".to_owned()),
            ),
            ("graph".to_owned(), Json::parse(&to_json(&g)).unwrap()),
        ]);
        let parsed = Json::parse(&envelope.to_string()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("type User { x: Int }")
        );
        assert_eq!(graph_from_value(parsed.get("graph").unwrap()).unwrap(), g);
        assert!(parsed.get("missing").is_none());
        assert!(parsed.get("schema").unwrap().get("x").is_none());
    }

    #[test]
    fn id_and_enum_survive_roundtrip() {
        let g = sample();
        let g2 = from_json(&to_json(&g)).unwrap();
        let u = g2.nodes().find(|n| n.label() == "User").unwrap();
        assert_eq!(u.property("id"), Some(&Value::Id("u-17".into())));
        assert_eq!(u.property("unit"), Some(&Value::Enum("METER".into())));
    }

    #[test]
    fn large_integers_are_exact() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let big = (1i64 << 60) + 7;
        g.set_node_property(n, "big", Value::Int(big));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("big"), Some(&Value::Int(big)));
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        g.set_node_property(n, "f", Value::Float(120_000_000_000.0));
        g.set_node_property(n, "g", Value::Float(-3.0));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("f"), Some(&Value::Float(120_000_000_000.0)));
        assert_eq!(n2.property("g"), Some(&Value::Float(-3.0)));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let tricky = "quote\" slash\\ newline\n tab\t ctrl\u{1} π❤";
        g.set_node_property(n, "s", Value::String(tricky.into()));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("s"), Some(&Value::String(tricky.into())));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let text = r#"{"nodes":[{"id":0,"label":"A",
                        "properties":{"s":"\ud83d\ude00ok"}}],"edges":[]}"#;
        let g = from_json(text).unwrap();
        let n = g.nodes().next().unwrap();
        assert_eq!(n.property("s"), Some(&Value::String("😀ok".into())));
    }

    #[test]
    fn dangling_edge_is_reported() {
        let text = r#"{"nodes":[{"id":0,"label":"A"}],
                       "edges":[{"id":0,"label":"rel","source":0,"target":9}]}"#;
        match from_json(text) {
            Err(JsonError::DanglingEdge {
                edge_index: 0,
                node: 9,
            }) => {}
            other => panic!("expected dangling edge error, got {other:?}"),
        }
    }

    #[test]
    fn arbitrary_objects_are_rejected() {
        for bad in [
            r#"{"x":1}"#,
            r#"{}"#,
            r#"{"$id":"a","$id":"b"}"#,
            r#"{"$id":7}"#,
        ] {
            let text = format!(
                r#"{{"nodes":[{{"id":0,"label":"A","properties":{{"bad":{bad}}}}}],"edges":[]}}"#
            );
            assert!(
                matches!(from_json(&text), Err(JsonError::BadValue(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn sparse_document_ids_are_remapped() {
        let text = r#"{"nodes":[{"id":100,"label":"A"},{"id":7,"label":"B"}],
                       "edges":[{"id":3,"label":"rel","source":100,"target":7}]}"#;
        let g = from_json(text).unwrap();
        assert_eq!(g.node_count(), 2);
        let e = g.edges().next().unwrap();
        assert_eq!(g.node_label(e.source()), Some("A"));
        assert_eq!(g.node_label(e.target()), Some("B"));
    }

    #[test]
    fn edges_before_nodes_and_repeated_members_decode_like_the_tree() {
        let text = r#"{"edges":[{"label":"rel","source":7,"target":100,"source":"x"}],
                       "extra":[1,{"a":null}],
                       "nodes":[{"id":100,"label":"A","properties":{"p":1,"p":2},"properties":3},
                                {"label":"B","id":7,"id":"x"}],
                       "nodes":{}, "edges":0}"#;
        let g = from_json(text).unwrap();
        assert_eq!(g, graph_from_value(&Json::parse(text).unwrap()).unwrap());
        let e = g.edges().next().unwrap();
        assert_eq!(g.node_label(e.source()), Some("B"));
        let a = g.nodes().next().unwrap();
        assert_eq!(a.property("p"), Some(&Value::Int(2)));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = PropertyGraph::new();
        assert_eq!(from_json(&to_json(&g)).unwrap(), g);
    }
}
