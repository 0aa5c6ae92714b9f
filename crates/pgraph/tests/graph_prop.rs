//! Property tests for the Property Graph substrate: JSON round-trips,
//! compaction invariants, index/scan agreement, and columnar/snapshot
//! round-trips (tombstoned id space preserved bit for bit).

use pgraph::{json, snapshot, ColumnarGraph, NodeId, PropertyGraph, Value};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Value> {
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
}

#[derive(Debug, Clone)]
struct GraphSpec {
    labels: Vec<String>,
    edges: Vec<(usize, usize, String)>,
    node_props: Vec<(usize, String, Value)>,
    edge_props: Vec<(usize, String, Value)>,
    removals: Vec<usize>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (1usize..12).prop_flat_map(|n| {
        (
            prop::collection::vec("[A-Z][a-z]{0,5}", n..=n),
            prop::collection::vec((0..n, 0..n, "[a-z]{1,6}".prop_map(String::from)), 0..20),
            prop::collection::vec((0..n, "[a-z]{1,5}".prop_map(String::from), value()), 0..10),
            prop::collection::vec(
                (0..20usize, "[a-z]{1,5}".prop_map(String::from), value()),
                0..6,
            ),
            prop::collection::vec(0..n, 0..3),
        )
            .prop_map(
                |(labels, edges, node_props, edge_props, removals)| GraphSpec {
                    labels,
                    edges,
                    node_props,
                    edge_props,
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
    for &r in &spec.removals {
        let _ = g.remove_node(nodes[r]);
    }
    g
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

    #[test]
    fn removing_nodes_removes_incident_edges(spec in graph_spec()) {
        let g = build(&spec);
        for e in g.edges() {
            prop_assert!(g.contains_node(e.source()));
            prop_assert!(g.contains_node(e.target()));
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

    #[test]
    fn stats_totals_are_consistent(spec in graph_spec()) {
        let g = build(&spec);
        let s = pgraph::stats::GraphStats::compute(&g);
        prop_assert_eq!(s.nodes, g.node_count());
        prop_assert_eq!(s.edges, g.edge_count());
        prop_assert_eq!(s.nodes_per_label.values().sum::<usize>(), s.nodes);
        prop_assert_eq!(s.edges_per_label.values().sum::<usize>(), s.edges);
    }
}
