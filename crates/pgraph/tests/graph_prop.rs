//! Property tests for the Property Graph substrate: JSON round-trips,
//! streamed-vs-tree JSON byte identity, compaction invariants, incidence
//! lists against the edge table, index/scan agreement, and
//! columnar/snapshot round-trips (tombstoned id space preserved bit for
//! bit; `==` compares the incidence lists too, so every decoder's rebuild
//! of them is checked), the streaming graph and delta decoders against
//! the tree ones, and the bytes of a delta document.

use pg_datagen::{DeltaGen, DeltaGenParams, GraphGen, GraphGenParams, SchemaGen, SchemaGenParams};
use pg_schema::PgSchema;
use pgraph::json::{self, Json};
use pgraph::{
    binary, snapshot, ColumnarGraph, ColumnsBuilder, EdgeId, EdgeRef, GraphDelta, NodeId,
    PropertyGraph, Sym, SymbolTable, Value,
};
use proptest::prelude::*;

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,10}".prop_map(Value::String),
        any::<bool>().prop_map(Value::Bool),
        "[a-z0-9-]{1,8}".prop_map(Value::Id),
        "[A-Z]{1,6}".prop_map(Value::Enum),
        Just(Value::Null),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
    .boxed()
}

/// A property value as a [`Json`] tree: the tree twin of the streamed
/// printer's value case.
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(_) | Value::Null => Json::Null,
        Value::String(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Id(s) => Json::Object(vec![("$id".to_owned(), Json::Str(s.clone()))]),
        Value::Enum(s) => Json::Object(vec![("$enum".to_owned(), Json::Str(s.clone()))]),
        Value::List(items) => Json::Array(items.iter().map(value_to_json).collect()),
    }
}

/// The graph document as a [`Json`] tree, built element by element: the
/// reference `json::to_json`'s streamed bytes are held to, and the input
/// the decoders are fed after re-rendering and mutating it.
fn graph_to_value(g: &PropertyGraph) -> Json {
    let element =
        |id: usize, label: &str, ends: Option<(NodeId, NodeId)>, props: Vec<(&str, &Value)>| {
            let mut members = vec![
                ("id".to_owned(), Json::Int(id as i64)),
                ("label".to_owned(), Json::Str(label.to_owned())),
            ];
            if let Some((source, target)) = ends {
                members.push(("source".to_owned(), Json::Int(source.index() as i64)));
                members.push(("target".to_owned(), Json::Int(target.index() as i64)));
            }
            if !props.is_empty() {
                let props = props
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), value_to_json(v)));
                members.push(("properties".to_owned(), Json::Object(props.collect())));
            }
            Json::Object(members)
        };
    let nodes = g
        .nodes()
        .map(|n| element(n.id.index(), n.label(), None, n.properties().collect()));
    let edges = g.edges().map(|e| {
        let ends = Some((e.source(), e.target()));
        element(e.id.index(), e.label(), ends, e.properties().collect())
    });
    Json::Object(vec![
        ("nodes".to_owned(), Json::Array(nodes.collect())),
        ("edges".to_owned(), Json::Array(edges.collect())),
    ])
}

/// Text that takes every branch of the JSON string escaper: all of
/// ASCII — control characters, `"`, `\\`, DEL — plus two- to four-byte
/// UTF-8, and the empty string.
const HOSTILE: &str = "[\u{0}-\u{7f}\u{e9}\u{2764}\u{1f600}]{0,8}";

/// Every `Value` kind the printer has a case for, including the floats
/// JSON cannot hold (printed as `null`).
fn hostile_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(1e300),
        ]
        .prop_map(Value::Float),
        HOSTILE.prop_map(Value::String),
        any::<bool>().prop_map(Value::Bool),
        HOSTILE.prop_map(Value::Id),
        HOSTILE.prop_map(Value::Enum),
        Just(Value::Null),
    ];
    leaf.prop_recursive(3, 12, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
    .boxed()
}

#[derive(Debug, Clone)]
struct GraphSpec {
    labels: Vec<String>,
    edges: Vec<(usize, usize, String)>,
    node_props: Vec<(usize, String, Value)>,
    edge_props: Vec<(usize, String, Value)>,
    edge_removals: Vec<usize>,
    removals: Vec<usize>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    graph_spec_over("[A-Z][a-z]{0,5}", "[a-z]{1,6}", "[a-z]{1,5}", value)
}

/// Graphs whose labels, property names and values are all hostile to a
/// JSON printer.
fn hostile_graph_spec() -> impl Strategy<Value = GraphSpec> {
    graph_spec_over(HOSTILE, HOSTILE, HOSTILE, hostile_value)
}

fn graph_spec_over(
    node_label: &'static str,
    edge_label: &'static str,
    prop_name: &'static str,
    value: fn() -> BoxedStrategy<Value>,
) -> impl Strategy<Value = GraphSpec> {
    (1usize..12).prop_flat_map(move |n| {
        (
            prop::collection::vec(node_label, n..=n),
            prop::collection::vec((0..n, 0..n, edge_label), 0..20),
            prop::collection::vec((0..n, prop_name, value()), 0..10),
            prop::collection::vec((0..20usize, prop_name, value()), 0..6),
            prop::collection::vec(0..20usize, 0..6),
            prop::collection::vec(0..n, 0..3),
        )
            .prop_map(
                |(labels, edges, node_props, edge_props, edge_removals, removals)| GraphSpec {
                    labels,
                    edges,
                    node_props,
                    edge_props,
                    edge_removals,
                    removals,
                },
            )
    })
}

fn build(spec: &GraphSpec) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = spec.labels.iter().map(|l| g.add_node(l.clone())).collect();
    let mut edges = Vec::new();
    for (s, t, label) in &spec.edges {
        edges.push(g.add_edge(nodes[*s], nodes[*t], label.clone()).unwrap());
    }
    for (n, key, v) in &spec.node_props {
        g.set_node_property(nodes[*n], key.clone(), v.clone());
    }
    for (e, key, v) in &spec.edge_props {
        if let Some(&id) = edges.get(*e) {
            g.set_edge_property(id, key.clone(), v.clone());
        }
    }
    for &e in &spec.edge_removals {
        if let Some(&id) = edges.get(e) {
            let _ = g.remove_edge(id);
        }
    }
    for &r in &spec.removals {
        let _ = g.remove_node(nodes[r]);
    }
    g
}

fn ids<'g>(edges: impl Iterator<Item = EdgeRef<'g>>) -> Vec<EdgeId> {
    edges.map(|e| e.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_roundtrip_is_identity_after_compaction(spec in graph_spec()) {
        let g = build(&spec).compacted();
        let text = json::to_json(&g);
        let back = json::from_json(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    /// pgbench's graph oracle compares the daemon's bytes with
    /// `to_json(mirror)` — the same function — so the streamed printer
    /// is held to the tree printer here, on tombstoned id spaces and on
    /// every value kind and escape.
    #[test]
    fn streamed_json_is_the_tree_printers_bytes(spec in hostile_graph_spec()) {
        let g = build(&spec);
        let text = json::to_json(&g);
        prop_assert_eq!(&text, &graph_to_value(&g).to_string());
        // Decoding renumbers the live elements densely, in id order — as
        // compaction does — and loses nothing else the document holds.
        let back = json::from_json(&text).unwrap();
        prop_assert_eq!(json::to_json(&back), json::to_json(&g.compacted()));
    }

    #[test]
    fn compaction_preserves_counts_and_multisets(spec in graph_spec()) {
        let g = build(&spec);
        let c = g.compacted();
        prop_assert_eq!(g.node_count(), c.node_count());
        prop_assert_eq!(g.edge_count(), c.edge_count());
        let mut a: Vec<String> = g.nodes().map(|n| n.label().to_owned()).collect();
        let mut b: Vec<String> = c.nodes().map(|n| n.label().to_owned()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn index_agrees_with_scans(spec in graph_spec()) {
        let g = build(&spec);
        let cols = ColumnarGraph::freeze(&g);
        let sym = |s: &str| cols.symbols().lookup(s).unwrap();
        for v in g.node_ids() {
            let label = sym(g.node_label(v).unwrap());
            prop_assert!(cols.nodes_with_label(label).contains(&(v.index() as u32)));
            // Per-label CSR groups must partition the out-edges.
            let scan: usize = g.out_edges(v).count();
            let mut labels: Vec<String> =
                g.out_edges(v).map(|e| e.label().to_owned()).collect();
            labels.sort();
            labels.dedup();
            let grouped: usize = labels
                .iter()
                .map(|l| cols.out_edges_labelled(v, sym(l)).len())
                .sum();
            prop_assert_eq!(scan, grouped);
        }
    }

    /// The graph's incidence lists are the edge table's answer: for every
    /// node slot (and one id past the last), `out_edges`/`in_edges` yield
    /// exactly the live edges with that source/target, in ascending id
    /// order — none for a tombstoned or absent node, so removing a node
    /// removed its incident edges.
    #[test]
    fn incidence_lists_equal_the_edge_table(spec in graph_spec()) {
        let g = build(&spec);
        for e in g.edges() {
            prop_assert!(g.contains_node(e.source()));
            prop_assert!(g.contains_node(e.target()));
        }
        for ix in 0..g.node_index_bound() + 1 {
            let v = NodeId::from_index(ix);
            let out = ids(g.out_edges(v));
            let inc = ids(g.in_edges(v));
            prop_assert_eq!(&out, &ids(g.edges().filter(|e| e.source() == v)));
            prop_assert_eq!(&inc, &ids(g.edges().filter(|e| e.target() == v)));
            if !g.contains_node(v) {
                prop_assert!(out.is_empty() && inc.is_empty());
            }
        }
    }

    #[test]
    fn columnar_freeze_thaw_is_identity(spec in graph_spec()) {
        // Not compacted: `removals` leave tombstoned node/edge slots,
        // and the columnar form must carry them so ids keep meaning the
        // same elements after a round-trip.
        let g = build(&spec);
        let cols = ColumnarGraph::freeze(&g);
        let back = cols.thaw();
        prop_assert_eq!(g.node_ids().collect::<Vec<_>>(), back.node_ids().collect::<Vec<_>>());
        prop_assert_eq!(g.edge_ids().collect::<Vec<_>>(), back.edge_ids().collect::<Vec<_>>());
        prop_assert_eq!(g, back);
    }

    /// Freezing onto a pre-seeded symbol table (a compiled schema's
    /// names, some shared with the graph, some not) keeps every seeded
    /// symbol, thaws to the same graph, and leaves the snapshot walk
    /// alone: the image of the thawed graph is byte-equal to `freeze`'s.
    #[test]
    fn freeze_into_a_seeded_table_round_trips(
        spec in graph_spec(),
        seeds in prop::collection::vec("[A-Za-z][a-z]{0,5}", 0..12),
    ) {
        let g = build(&spec);
        let mut table = SymbolTable::new();
        let seeded: Vec<Sym> = seeds.iter().map(|s| table.intern(s)).collect();
        let cols = ColumnarGraph::freeze_into(&g, table);
        for (name, sym) in seeds.iter().zip(&seeded) {
            prop_assert_eq!(cols.symbols().lookup(name), Some(*sym));
        }
        let back = cols.thaw();
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(
            snapshot::graph_to_snapshot_bytes(&back),
            snapshot::encode(&ColumnarGraph::freeze(&g))
        );
    }

    #[test]
    fn snapshot_bytes_roundtrip_and_are_canonical(spec in graph_spec()) {
        let g = build(&spec);
        let bytes = snapshot::graph_to_snapshot_bytes(&g);
        let view = snapshot::SnapshotView::parse(&bytes).unwrap();
        let back = view.thaw().unwrap();
        prop_assert_eq!(g.node_ids().collect::<Vec<_>>(), back.node_ids().collect::<Vec<_>>());
        prop_assert_eq!(g.edge_ids().collect::<Vec<_>>(), back.edge_ids().collect::<Vec<_>>());
        prop_assert_eq!(&g, &back);
        // Freeze→encode is deterministic: re-encoding the thawed graph
        // reproduces the file bytes exactly, so snapshots of equal
        // graphs are byte-comparable.
        prop_assert_eq!(bytes, snapshot::graph_to_snapshot_bytes(&back));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every source that keeps the id space — the binary codec, a `PGCS`
    /// image, the columns — rebuilds the rows slot for slot through the
    /// one `GraphSink`, tombstones and hostile names included. `==`
    /// compares every slot, the live counts and the incidence lists.
    #[test]
    fn slot_exact_sources_rebuild_the_rows(spec in hostile_graph_spec()) {
        let g = build(&spec);
        let image = snapshot::graph_to_snapshot_bytes(&g);
        let rebuilt = [
            binary::graph_from_bytes(&binary::graph_to_bytes(&g)).unwrap(),
            snapshot::SnapshotView::parse(&image).unwrap().thaw().unwrap(),
            ColumnarGraph::freeze(&g).thaw(),
        ];
        for back in rebuilt {
            prop_assert_eq!(&back, &g);
        }
    }
}

#[test]
fn the_empty_graph_streams_the_tree_printers_bytes() {
    let g = PropertyGraph::new();
    let text = json::to_json(&g);
    assert_eq!(text, "{\n  \"nodes\": [],\n  \"edges\": []\n}");
    assert_eq!(text, graph_to_value(&g).to_string());
    assert_eq!(json::to_json(&json::from_json(&text).unwrap()), text);
}

/// SplitMix64: the mutations one decode-equivalence case applies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Stands for an integer token no `i64` holds; swapped in after
/// rendering.
const BIG: &str = "@BIG@";

/// Any JSON value, nested up to `depth`.
fn junk(rng: &mut Rng, depth: usize) -> Json {
    match rng.below(if depth == 0 { 5 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(50)),
        2 => Json::Int(rng.next() as i64 % 1000),
        3 => Json::Float(0.5),
        4 => Json::Str(["j", "π", "😀", BIG][rng.below(4)].to_owned()),
        5 => Json::Array((0..rng.below(3)).map(|_| junk(rng, depth - 1)).collect()),
        6 => Json::Object(vec![(
            ["$id", "$enum", "k"][rng.below(3)].to_owned(),
            junk(rng, depth - 1),
        )]),
        _ => Json::Object(vec![
            ("$id".to_owned(), Json::Str("a".to_owned())),
            ("$enum".to_owned(), Json::Str("B".to_owned())),
        ]),
    }
}

/// The members of a document `mutate` knows by name.
struct Shape {
    /// The root's array members.
    lists: &'static [&'static str],
    /// The members of a list item that hold element ids.
    ids: &'static [&'static str],
}

const GRAPH: Shape = Shape {
    lists: &["nodes", "edges"],
    ids: &["id", "source", "target"],
};

const DELTA: Shape = Shape {
    lists: &["ops"],
    ids: &["node", "edge", "source", "target"],
};

/// Rewrites a graph or delta document the ways a client may legally or
/// illegally write one: members reordered (`edges` before `nodes`) and
/// repeated, unknown members, members of the wrong type, repeated
/// property keys, repeated or out-of-range element ids, values no
/// property can hold.
fn mutate(doc: &mut Json, shape: &Shape, rng: &mut Rng) {
    let Json::Object(root) = doc else { return };
    if rng.chance(15) {
        let name = shape.lists[rng.below(shape.lists.len())].to_owned();
        root.push((name, junk(rng, 2)));
    }
    if rng.chance(30) {
        root.reverse();
    }
    if rng.chance(15) {
        let at = rng.below(root.len() + 1);
        root.insert(at, ("extra".to_owned(), junk(rng, 3)));
    }
    let node_ids: Vec<Json> = root
        .iter()
        .filter(|(k, _)| k == "nodes")
        .flat_map(|(_, v)| v.as_array().unwrap_or(&[]))
        .filter_map(|n| n.get("id").cloned())
        .collect();
    for (_, list) in root.iter_mut() {
        let Json::Array(items) = list else { continue };
        for item in items {
            let Json::Object(members) = item else {
                continue;
            };
            if rng.chance(10) && !members.is_empty() {
                // A repeat: the first occurrence counts.
                let name = members[rng.below(members.len())].0.clone();
                members.push((name, junk(rng, 2)));
            }
            if rng.chance(10) {
                let at = rng.below(members.len() + 1);
                members.insert(at, ("unknown".to_owned(), junk(rng, 3)));
            }
            if rng.chance(5) {
                // Duplicate or out-of-range ids and endpoints.
                let field = shape.ids[rng.below(shape.ids.len())];
                let value = match rng.below(3) {
                    0 if !node_ids.is_empty() => node_ids[rng.below(node_ids.len())].clone(),
                    1 => Json::Str(BIG.to_owned()),
                    _ => Json::Int(-1),
                };
                if let Some(slot) = members.iter_mut().find(|(k, _)| k == field) {
                    slot.1 = value;
                }
            }
            if rng.chance(8) && !members.is_empty() {
                // A member of the wrong type.
                let at = rng.below(members.len());
                members[at].1 = junk(rng, 2);
            }
            if rng.chance(10) {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i + 1));
                }
            }
            let Some((_, Json::Object(props))) =
                members.iter_mut().find(|(k, _)| k == "properties")
            else {
                continue;
            };
            if rng.chance(20) && !props.is_empty() {
                // A repeated key: the last occurrence counts.
                let name = props[rng.below(props.len())].0.clone();
                let at = rng.below(props.len() + 1);
                let value = match rng.below(3) {
                    0 => Json::Int(7),
                    1 => Json::Object(vec![("$enum".to_owned(), Json::Str("E".to_owned()))]),
                    _ => junk(rng, 2),
                };
                props.insert(at, (name, value));
            }
            if rng.chance(10) {
                let value = Json::Array(vec![Json::Str(BIG.to_owned()), junk(rng, 3)]);
                props.push(("big".to_owned(), value));
            }
        }
    }
}

/// Compact JSON, each string character written plainly or — with
/// `escapes` — sometimes as `\uXXXX` (a surrogate pair beyond the BMP).
fn compact(out: &mut String, v: &Json, escapes: bool, rng: &mut Rng) {
    let string = |out: &mut String, s: &str, rng: &mut Rng| {
        out.push('"');
        for c in s.chars() {
            if escapes && c != '@' && (!c.is_ascii() || rng.chance(20)) {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            } else {
                json::escape_into(out, c.encode_utf8(&mut [0; 4]));
            }
        }
        out.push('"');
    };
    match v {
        Json::Str(s) => string(out, s, rng),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(out, item, escapes, rng);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(out, k, rng);
                out.push(':');
                compact(out, item, escapes, rng);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
}

/// One document for a decode-equivalence property: `doc`, perhaps
/// mutated as a document of `shape`, written pretty or compact, perhaps
/// escaped, truncated or with one character swapped.
fn document(mut doc: Json, shape: &Shape, seed: u64) -> String {
    let mut rng = Rng(seed);
    if rng.chance(70) {
        mutate(&mut doc, shape, &mut rng);
    }
    let mut text = match rng.below(3) {
        0 => doc.to_string(),
        mode => {
            let mut out = String::new();
            compact(&mut out, &doc, mode == 2, &mut rng);
            out
        }
    };
    let big = ["18446744073709551616", "-9223372036854775809", "4294967296"][rng.below(3)];
    text = text.replace(&format!("\"{BIG}\""), big);
    let cut = |text: &str, at: usize| (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap();
    if rng.chance(8) {
        let at = cut(&text, rng.below(text.len()));
        text.truncate(at);
    } else if rng.chance(8) {
        let at = cut(&text, rng.below(text.len()));
        let len = text[at..].chars().next().map_or(0, char::len_utf8);
        let swap = ["{", "}", "[", "]", ",", ":", "\"", "\\", "1", "-", "x", " "][rng.below(12)];
        text.replace_range(at..at + len, swap);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The streaming decoder is the tree decoder without the tree: over
    /// pretty, compact, escaped, mutated and broken documents it accepts
    /// exactly what `tree::graph(&Json::parse(t))` accepts and builds the
    /// same rows; decoded into a `ColumnsBuilder` it builds columns that
    /// thaw to those rows and encode to the snapshot bytes of freezing
    /// them — the assembler interns in `freeze`'s order. The public
    /// `graph_from_value` agrees with the tree decoder on every parsed
    /// document: the same rows, or an error from both. (Not always the
    /// same error: the tree decoder finds a missing `edges` member before
    /// a broken node, the streaming one the other way round.)
    #[test]
    fn streaming_decode_matches_the_tree_decoder(spec in hostile_graph_spec(), seed in any::<u64>()) {
        let text = document(graph_to_value(&build(&spec)), &GRAPH, seed);
        let parsed = Json::parse(&text);
        if let Ok(doc) = &parsed {
            prop_assert_eq!(json::graph_from_value(doc).ok(), tree::graph(doc).ok(), "on {}", text);
        }
        let reference = parsed.and_then(|doc| tree::graph(&doc));
        let rows = json::from_json(&text);
        let mut builder = ColumnsBuilder::new(SymbolTable::new());
        let mut reader = json::Reader::new(&text);
        let cols = json::read_graph(&mut reader, &mut builder)
            .and_then(|()| reader.finish())
            .map(|()| builder.finish());
        match (&reference, &rows, &cols) {
            (Ok(want), Ok(got), Ok(cols)) => {
                prop_assert_eq!(want, got);
                prop_assert_eq!(&cols.thaw(), want);
                prop_assert_eq!(snapshot::encode(cols), snapshot::graph_to_snapshot_bytes(want));
            }
            (Err(_), Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "tree {:?} / rows {:?} / columns {:?} on {}",
                reference.as_ref().err(),
                rows.as_ref().err(),
                cols.as_ref().err(),
                text
            ),
        }
    }
}

/// A document that repeats a node id is refused by both decoders: the
/// edges naming the id would otherwise bind to whichever node came last.
#[test]
fn repeated_node_ids_are_refused() {
    let text = r#"{"nodes":[{"id":7,"label":"A"},{"id":7,"label":"B"},{"id":8,"label":"C"}],
                   "edges":[{"label":"e","source":7,"target":8}]}"#;
    let doc = Json::parse(text).unwrap();
    for result in [
        tree::graph(&doc),
        json::graph_from_value(&doc),
        json::from_json(text),
    ] {
        match result {
            Err(json::JsonError::DuplicateNode {
                node_index: 1,
                id: 7,
            }) => {}
            other => panic!("expected a repeated-id error, got {other:?}"),
        }
    }
    let message = json::from_json(text).unwrap_err().to_string();
    assert_eq!(message, "node #1 repeats node id 7");
}

/// The tree decoders `json::from_json` and `json::delta_from_json` were
/// before they read the text with the pull reader: `Json::parse`, then a
/// walk over the tree. Kept here, on the public `Json` API only, as the
/// references the streaming decoders are compared against.
mod tree {
    use std::collections::HashMap;

    use pgraph::json::{Json, JsonError};
    use pgraph::{DeltaOp, EdgeId, GraphDelta, NodeId, PropertyGraph, Value};

    type Members = [(String, Json)];

    fn shape(msg: String) -> JsonError {
        JsonError::Parse(msg)
    }

    fn expected(ctx: &str, want: &str, got: &str) -> JsonError {
        shape(format!("{ctx}: expected {want}, got {got}"))
    }

    fn missing(ctx: &str, key: &str) -> JsonError {
        shape(format!("{ctx}: missing field {key:?}"))
    }

    fn wrong_kind(ctx: &str, key: &str, want: &str, got: &str) -> JsonError {
        shape(format!("{ctx}: field {key:?} must be {want}, got {got}"))
    }

    fn get<'j>(members: &'j Members, key: &str) -> Option<&'j Json> {
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_u32(members: &Members, key: &str, ctx: &str) -> Result<u32, JsonError> {
        match get(members, key) {
            Some(Json::Int(i)) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
            Some(other) => Err(wrong_kind(ctx, key, "a u32", other.kind())),
            None => Err(missing(ctx, key)),
        }
    }

    fn get_str<'j>(members: &'j Members, key: &str, ctx: &str) -> Result<&'j str, JsonError> {
        match get(members, key) {
            Some(Json::Str(s)) => Ok(s),
            Some(other) => Err(wrong_kind(ctx, key, "a string", other.kind())),
            None => Err(missing(ctx, key)),
        }
    }

    fn get_properties<'j>(members: &'j Members, ctx: &str) -> Result<&'j Members, JsonError> {
        match get(members, "properties") {
            Some(Json::Object(props)) => Ok(props),
            Some(other) => Err(wrong_kind(ctx, "properties", "an object", other.kind())),
            None => Ok(&[]),
        }
    }

    fn as_object<'j>(v: &'j Json, ctx: &str) -> Result<&'j Members, JsonError> {
        match v {
            Json::Object(members) => Ok(members),
            other => Err(expected(ctx, "an object", other.kind())),
        }
    }

    /// The array member `key` of the document root, required.
    fn root_array<'j>(root: &'j Members, key: &str) -> Result<&'j [Json], JsonError> {
        match get(root, key) {
            Some(Json::Array(items)) => Ok(items),
            Some(other) => Err(expected(key, "an array", other.kind())),
            None => Err(missing("document", key)),
        }
    }

    fn value(v: &Json) -> Result<Value, JsonError> {
        Ok(match v {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Int(i) => Value::Int(*i),
            Json::Float(f) => Value::Float(*f),
            Json::Str(s) => Value::String(s.clone()),
            Json::Array(items) => Value::List(items.iter().map(value).collect::<Result<_, _>>()?),
            Json::Object(members) => match members.as_slice() {
                [(key, Json::Str(s))] if key == "$id" => Value::Id(s.clone()),
                [(key, Json::Str(s))] if key == "$enum" => Value::Enum(s.clone()),
                _ => {
                    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                    return Err(JsonError::BadValue(format!(
                        "objects other than $id/$enum tags are not property values: keys {keys:?}"
                    )));
                }
            },
        })
    }

    fn op(v: &Json, ctx: &str) -> Result<DeltaOp, JsonError> {
        let Json::Object(members) = v else {
            return Err(expected(ctx, "an object", v.kind()));
        };
        let tag = get_str(members, "op", ctx)?;
        let node = |key: &str| get_u32(members, key, ctx).map(|i| NodeId::from_index(i as usize));
        let edge = |key: &str| get_u32(members, key, ctx).map(|i| EdgeId::from_index(i as usize));
        let string = |key: &str| get_str(members, key, ctx).map(str::to_owned);
        let value = || {
            get(members, "value")
                .ok_or_else(|| missing(ctx, "value"))
                .and_then(value)
        };
        Ok(match tag {
            "add-node" => DeltaOp::AddNode {
                label: string("label")?,
            },
            "remove-node" => DeltaOp::RemoveNode {
                node: node("node")?,
            },
            "add-edge" => DeltaOp::AddEdge {
                source: node("source")?,
                target: node("target")?,
                label: string("label")?,
            },
            "remove-edge" => DeltaOp::RemoveEdge {
                edge: edge("edge")?,
            },
            "set-node-property" => DeltaOp::SetNodeProperty {
                node: node("node")?,
                name: string("name")?,
                value: value()?,
            },
            "remove-node-property" => DeltaOp::RemoveNodeProperty {
                node: node("node")?,
                name: string("name")?,
            },
            "set-edge-property" => DeltaOp::SetEdgeProperty {
                edge: edge("edge")?,
                name: string("name")?,
                value: value()?,
            },
            "remove-edge-property" => DeltaOp::RemoveEdgeProperty {
                edge: edge("edge")?,
                name: string("name")?,
            },
            "set-node-label" => DeltaOp::SetNodeLabel {
                node: node("node")?,
                label: string("label")?,
            },
            other => return Err(shape(format!("{ctx}: unknown op {other:?}"))),
        })
    }

    /// A graph document: its nodes get dense ids in document order and
    /// its edges name them by document id.
    pub fn graph(doc: &Json) -> Result<PropertyGraph, JsonError> {
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
                g.set_node_property(id, k.clone(), value(v)?);
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
                g.set_edge_property(eid, k.clone(), value(v)?);
            }
        }
        Ok(g)
    }

    pub fn delta(text: &str) -> Result<GraphDelta, JsonError> {
        let doc = Json::parse(text)?;
        let Json::Object(root) = &doc else {
            return Err(expected("document", "an object", doc.kind()));
        };
        let ops = match get(root, "ops") {
            Some(Json::Array(items)) => items,
            Some(other) => return Err(expected("ops", "an array", other.kind())),
            None => return Err(missing("document", "ops")),
        };
        let ops = ops
            .iter()
            .enumerate()
            .map(|(ix, v)| op(v, &format!("op #{ix}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GraphDelta::from_ops(ops))
    }
}

/// A `deltagen` delta of one to twelve ops against a generated schema
/// and graph: ids, enums, lists, every op kind.
fn generated_delta(seed: u64) -> GraphDelta {
    let sdl = SchemaGen::new(SchemaGenParams {
        num_types: 3,
        attrs_per_type: 3,
        rels_per_type: 2,
        seed: seed % 8,
        ..Default::default()
    })
    .generate();
    let schema = PgSchema::parse(&sdl).expect("generated schemas build");
    let graph = GraphGen::new(
        &schema,
        GraphGenParams {
            nodes_per_type: 3,
            seed,
            ..Default::default()
        },
    )
    .generate();
    DeltaGen::new(
        &schema,
        DeltaGenParams {
            ops: 1 + (seed % 12) as usize,
            p_structural: 0.5,
            ..Default::default()
        },
    )
    .generate_seeded(&graph, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The streaming delta decoder is the tree decoder without the tree:
    /// over pretty, compact, escaped, mutated and broken delta documents
    /// it accepts exactly what the tree decoder accepts, decodes the same
    /// delta, and refuses the rest with the same message.
    #[test]
    fn streaming_delta_decode_matches_the_tree_decoder(delta_seed in any::<u64>(), seed in any::<u64>()) {
        let delta = generated_delta(delta_seed);
        let written = json::delta_to_json(&delta);
        prop_assert_eq!(tree::delta(&written).ok(), Some(delta));
        let text = document(Json::parse(&written).unwrap(), &DELTA, seed);
        let reference = tree::delta(&text).map_err(|e| e.to_string());
        let streamed = json::delta_from_json(&text).map_err(|e| e.to_string());
        prop_assert_eq!(streamed, reference, "on {}", text);
    }
}

/// The bytes of `delta_to_json`, pinned: every op, `$id` / `$enum` tags,
/// lists, escapes, and a float JSON cannot hold (written `null`).
#[test]
fn delta_documents_keep_their_bytes() {
    let (n0, n7, e3) = (
        NodeId::from_index(0),
        NodeId::from_index(7),
        EdgeId::from_index(3),
    );
    let list = Value::List(vec![
        Value::Int(-1),
        Value::Float(0.5),
        Value::Null,
        Value::from("π"),
    ]);
    let delta = GraphDelta::new()
        .add_node("User")
        .remove_node(n7)
        .add_edge(n0, n7, "follows")
        .remove_edge(e3)
        .set_node_property(n0, "id", Value::Id("u-\"17\"".into()))
        .set_node_property(n0, "unit", Value::Enum("METER".into()))
        .set_node_property(n0, "xs", list)
        .remove_node_property(n0, "login")
        .set_edge_property(e3, "w", Value::Float(f64::INFINITY))
        .set_edge_property(e3, "ok", Value::Bool(true))
        .set_edge_property(e3, "empty", Value::List(Vec::new()))
        .remove_edge_property(e3, "w")
        .set_node_label(n0, "Admin");
    let expected = "{\n  \"ops\": [\n    {\n      \"op\": \"add-node\",\n      \"label\": \"User\"\n    },\n    {\n      \"op\": \"remove-node\",\n      \"node\": 7\n    },\n    {\n      \"op\": \"add-edge\",\n      \"source\": 0,\n      \"target\": 7,\n      \"label\": \"follows\"\n    },\n    {\n      \"op\": \"remove-edge\",\n      \"edge\": 3\n    },\n    {\n      \"op\": \"set-node-property\",\n      \"node\": 0,\n      \"name\": \"id\",\n      \"value\": {\n        \"$id\": \"u-\\\"17\\\"\"\n      }\n    },\n    {\n      \"op\": \"set-node-property\",\n      \"node\": 0,\n      \"name\": \"unit\",\n      \"value\": {\n        \"$enum\": \"METER\"\n      }\n    },\n    {\n      \"op\": \"set-node-property\",\n      \"node\": 0,\n      \"name\": \"xs\",\n      \"value\": [\n        -1,\n        0.5,\n        null,\n        \"π\"\n      ]\n    },\n    {\n      \"op\": \"remove-node-property\",\n      \"node\": 0,\n      \"name\": \"login\"\n    },\n    {\n      \"op\": \"set-edge-property\",\n      \"edge\": 3,\n      \"name\": \"w\",\n      \"value\": null\n    },\n    {\n      \"op\": \"set-edge-property\",\n      \"edge\": 3,\n      \"name\": \"ok\",\n      \"value\": true\n    },\n    {\n      \"op\": \"set-edge-property\",\n      \"edge\": 3,\n      \"name\": \"empty\",\n      \"value\": []\n    },\n    {\n      \"op\": \"remove-edge-property\",\n      \"edge\": 3,\n      \"name\": \"w\"\n    },\n    {\n      \"op\": \"set-node-label\",\n      \"node\": 0,\n      \"label\": \"Admin\"\n    }\n  ]\n}";
    assert_eq!(json::delta_to_json(&delta), expected);
    assert_eq!(
        json::delta_to_json(&GraphDelta::new()),
        "{\n  \"ops\": []\n}"
    );
}
