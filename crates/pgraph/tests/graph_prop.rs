//! Property tests for the Property Graph substrate: JSON round-trips,
//! streamed-vs-tree JSON byte identity, compaction invariants, incidence
//! lists against the edge table, index/scan agreement, and
//! columnar/snapshot round-trips (tombstoned id space preserved bit for
//! bit; `==` compares the incidence lists too, so every decoder's rebuild
//! of them is checked).

use pgraph::{
    json, snapshot, ColumnarGraph, EdgeId, EdgeRef, NodeId, PropertyGraph, Sym, SymbolTable, Value,
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
        prop_assert_eq!(&text, &json::graph_to_value(&g).to_string());
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
        prop_assert_eq!(cols.live_node_count(), g.node_count());
        prop_assert_eq!(cols.live_edge_count(), g.edge_count());
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
        prop_assert_eq!(cols.live_node_count(), g.node_count());
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

#[test]
fn the_empty_graph_streams_the_tree_printers_bytes() {
    let g = PropertyGraph::new();
    let text = json::to_json(&g);
    assert_eq!(text, "{\n  \"nodes\": [],\n  \"edges\": []\n}");
    assert_eq!(text, json::graph_to_value(&g).to_string());
    assert_eq!(json::to_json(&json::from_json(&text).unwrap()), text);
}
