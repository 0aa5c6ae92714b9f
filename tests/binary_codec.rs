//! Property-based tests of the binary graph/delta codec (`pg-store`'s
//! on-disk payload format) against the JSON (de)serialisers: on random
//! generated schemas, graphs and mutation sequences, both codecs must
//! describe the same object — with the one designed divergence that the
//! binary graph form preserves the raw id space (tombstones included)
//! while the JSON form re-densifies ids on load. The columnar value pool
//! is checked against a reference built on the same binary encoding.

use std::collections::HashMap;

use pg_datagen::{DeltaGen, DeltaGenParams, GraphGen, GraphGenParams, SchemaGen, SchemaGenParams};
use pg_schema::PgSchema;
use pgraph::binary::{self, BinError};
use pgraph::{json, EdgeId, GraphDelta, NodeId, PropertyGraph, Value, ValueTable};
use proptest::prelude::*;

fn schema_for(seed: u64) -> PgSchema {
    let sdl = SchemaGen::new(SchemaGenParams {
        num_types: 4,
        attrs_per_type: 3,
        rels_per_type: 2,
        seed,
        ..Default::default()
    })
    .generate();
    PgSchema::parse(&sdl).expect("generated schemas build")
}

/// A graph with history: generated, then mutated so that tombstones and
/// non-dense ids exist — the case the binary codec exists for.
fn evolved_graph(schema: &PgSchema, graph_seed: u64, steps: u64) -> PropertyGraph {
    let gen = GraphGen::new(
        schema,
        GraphGenParams {
            nodes_per_type: 5,
            seed: graph_seed,
            ..Default::default()
        },
    );
    let mut graph = gen.generate();
    let deltas = DeltaGen::new(
        schema,
        DeltaGenParams {
            ops: 6,
            p_structural: 0.6,
            ..Default::default()
        },
    );
    for step in 0..steps {
        let delta = deltas.generate_seeded(&graph, graph_seed ^ step);
        delta.apply_to(&mut graph).expect("generated deltas apply");
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary graph round-trip is the identity — including tombstones,
    /// the live-element views, and id continuation — and agrees with the
    /// JSON codec on the live subgraph.
    #[test]
    fn graph_binary_round_trip(schema_seed in 0u64..12, graph_seed in 0u64..12, steps in 0u64..4) {
        let schema = schema_for(schema_seed);
        let graph = evolved_graph(&schema, graph_seed, steps);

        let bytes = binary::graph_to_bytes(&graph);
        let decoded = binary::graph_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &graph);
        prop_assert_eq!(decoded.node_index_bound(), graph.node_index_bound());
        prop_assert_eq!(decoded.edge_index_bound(), graph.edge_index_bound());

        // Both codecs agree on the live subgraph: JSON re-densifies ids,
        // so compare after compaction (which the JSON round-trip equals
        // structurally by construction).
        let via_json = json::from_json(&json::to_json(&graph)).unwrap();
        prop_assert_eq!(&via_json, &graph.compacted());
        prop_assert_eq!(
            json::to_json(&binary::graph_from_bytes(&bytes).unwrap()),
            json::to_json(&graph)
        );
    }

    /// Binary delta round-trip is the identity, agrees with the JSON
    /// round-trip, and both decoded forms replay to the same graph.
    #[test]
    fn delta_binary_round_trip(schema_seed in 0u64..12, graph_seed in 0u64..12, delta_seed in 0u64..6) {
        let schema = schema_for(schema_seed);
        let base = evolved_graph(&schema, graph_seed, 1);
        let delta = DeltaGen::new(&schema, DeltaGenParams {
            ops: 10,
            p_structural: 0.5,
            ..Default::default()
        })
        .generate_seeded(&base, delta_seed);

        let bytes = binary::delta_to_bytes(&delta);
        let decoded = binary::delta_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &delta);

        let via_json = json::delta_from_json(&json::delta_to_json(&delta)).unwrap();
        prop_assert_eq!(&via_json, &decoded);

        let mut replayed_bin = base.clone();
        let mut replayed_json = base.clone();
        decoded.apply_to(&mut replayed_bin).unwrap();
        via_json.apply_to(&mut replayed_json).unwrap();
        prop_assert_eq!(&replayed_bin, &replayed_json);
    }

    /// Decoding never panics and never fabricates data: any truncation
    /// of a valid encoding is rejected.
    #[test]
    fn truncated_payloads_are_rejected(schema_seed in 0u64..6, cut_frac in 0u64..97) {
        let schema = schema_for(schema_seed);
        let graph = evolved_graph(&schema, schema_seed, 2);
        let bytes = binary::graph_to_bytes(&graph);
        let cut = (bytes.len() as u64 * cut_frac / 97) as usize;
        if cut < bytes.len() {
            prop_assert!(binary::graph_from_bytes(&bytes[..cut]).is_err());
        }
        let delta = GraphDelta::new().add_node("User");
        let dbytes = binary::delta_to_bytes(&delta);
        for cut in 0..dbytes.len() {
            prop_assert!(binary::delta_from_bytes(&dbytes[..cut]).is_err());
        }
    }
}

/// One delta holding every op and every value kind, with the float bit
/// patterns (`-0.0`, a NaN payload), the empty string, non-ASCII text and
/// a nested list that a layout change would be likeliest to disturb.
fn every_op_delta() -> GraphDelta {
    let (n, e) = (NodeId::from_index(3), EdgeId::from_index(258));
    let nan = Value::Float(f64::from_bits(0x7ff8_0000_dead_beef));
    let nested = Value::List(vec![
        Value::Int(-2),
        Value::List(vec![Value::Null, Value::Bool(true)]),
        Value::from(""),
    ]);
    GraphDelta::new()
        .add_node("Überweisung")
        .remove_node(n)
        .add_edge(n, NodeId::from_index(70_000), "rel")
        .remove_edge(e)
        .set_node_property(n, "z", Value::Float(-0.0))
        .set_node_property(n, "nan", nan)
        .set_node_property(n, "xs", nested)
        .remove_node_property(n, "")
        .set_edge_property(e, "id", Value::Id("u-1".into()))
        .set_edge_property(e, "unit", Value::Enum("METER".into()))
        .remove_edge_property(e, "w")
        .set_node_label(n, "日本")
}

/// The WAL bytes of [`every_op_delta`], one hex string per op after the
/// `u32` op count: tag byte, then the op's fields in order (ids `u32`,
/// strings `u32`-length-prefixed UTF-8, values tagged). Records already
/// on disk decode only while these stay put.
const EVERY_OP_BYTES: [&str; 13] = [
    // 12 ops
    "0c000000",
    "000c000000c39c62657277656973756e67", // add-node "Überweisung"
    "0103000000",                         // remove-node 3
    "0203000000701101000300000072656c",   // add-edge 3 -> 70000 "rel"
    "0302010000",                         // remove-edge 258
    "0403000000010000007a010000000000000080", // set-node-property 3 "z" -0.0
    "0403000000030000006e616e01efbeadde0000f87f", // set-node-property 3 "nan" NaN payload
    "0403000000020000007873060300000000feffffffffffffff06020000000703010200000000", // set-node-property 3 "xs" [-2, [null, true], ""]
    "050300000000000000",                     // remove-node-property 3 ""
    "06020100000200000069640403000000752d31", // set-edge-property 258 "id" Id("u-1")
    "060201000004000000756e697405050000004d45544552", // set-edge-property 258 "unit" Enum("METER")
    "07020100000100000077",                   // remove-edge-property 258 "w"
    "080300000006000000e697a5e69cac",         // set-node-label 3 "日本"
];

#[test]
fn delta_bytes_keep_their_layout() {
    let hex = EVERY_OP_BYTES.concat();
    let golden: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let delta = every_op_delta();
    assert_eq!(binary::delta_to_bytes(&delta), golden);
    // Decoding is the inverse bit for bit (`Value`'s `==` would let
    // `-0.0` and `0.0`, or two NaN payloads, pass for each other).
    let decoded = binary::delta_from_bytes(&golden).unwrap();
    assert_eq!(decoded, delta);
    assert_eq!(binary::delta_to_bytes(&decoded), golden);

    // Tag 9 is the first one past the table.
    assert_eq!(
        binary::delta_from_bytes(&[1, 0, 0, 0, 9]),
        Err(BinError::BadTag { what: "op", tag: 9 })
    );
    for cut in 0..golden.len() {
        assert!(
            matches!(
                binary::delta_from_bytes(&golden[..cut]),
                Err(BinError::Truncated { .. })
            ),
            "prefix of {cut} bytes"
        );
    }
}

/// A value's binary encoding behind a fixed prefix: the bytes of the
/// one-op delta that sets it.
fn value_bytes(v: &Value) -> Vec<u8> {
    let set = GraphDelta::new().set_node_property(NodeId::from_index(0), "", v.clone());
    binary::delta_to_bytes(&set)
}

/// The value pool with two maps: storage identity by binary encoding,
/// comparison identity by `Value`'s `Eq`, each value cloned into both.
/// [`ValueTable`] must assign the ids it does.
#[derive(Default)]
struct TwoMapTable {
    exact: Vec<Value>,
    eq_rep: Vec<u32>,
    by_bytes: HashMap<Vec<u8>, u32>,
    by_eq: HashMap<Value, u32>,
}

impl TwoMapTable {
    fn intern(&mut self, v: &Value) -> u32 {
        let bytes = value_bytes(v);
        if let Some(&id) = self.by_bytes.get(&bytes) {
            return id;
        }
        let id = self.exact.len() as u32;
        self.by_bytes.insert(bytes, id);
        let rep = *self.by_eq.entry(v.clone()).or_insert(id);
        self.exact.push(v.clone());
        self.eq_rep.push(rep);
        id
    }
}

/// Values from a small pool, so a sequence repeats them: the float bit
/// patterns `Value`'s `Eq` identifies (`±0.0`, NaN payloads), `Int(0)`
/// beside `Float(0.0)`, one text as `String`, `Id` and `Enum`, and
/// nested lists holding floats.
fn pooled_value() -> impl Strategy<Value = Value> {
    let nan = f64::NAN.to_bits();
    let float_bits = [
        0,
        1 << 63,
        1.5f64.to_bits(),
        nan,
        nan | 1,
        nan | 0xbeef,
        (1 << 63) | nan,
    ];
    let leaf = prop_oneof![
        (0..float_bits.len()).prop_map(move |i| Value::Float(f64::from_bits(float_bits[i]))),
        (0i64..2).prop_map(Value::Int),
        (0u8..3, 0u8..2).prop_map(|(kind, text)| {
            let text = ["a", "b"][text as usize].to_owned();
            [Value::String, Value::Id, Value::Enum][kind as usize](text)
        }),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 0..3).prop_map(Value::List)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interning assigns the ids, class representatives and stored bits
    /// the two-map table does, whether a value arrives owned or borrowed.
    #[test]
    fn value_table_matches_the_two_map_reference(values in prop::collection::vec(pooled_value(), 0..48)) {
        let (mut table, mut reference) = (ValueTable::default(), TwoMapTable::default());
        for (at, v) in values.iter().enumerate() {
            let id = if at % 2 == 0 { table.intern(v.clone()) } else { table.intern(v) };
            prop_assert_eq!(id, reference.intern(v), "id at position {}", at);
            prop_assert_eq!(table.eq_rep(id), reference.eq_rep[id as usize], "eq_rep at position {}", at);
            prop_assert_eq!(value_bytes(table.value(id)), value_bytes(v), "stored bits at position {}", at);
        }
        prop_assert_eq!(table.len(), reference.exact.len());
    }
}
