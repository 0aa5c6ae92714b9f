//! Allocation guards, pinned as counts of heap allocations over doubling
//! inputs — deterministic, so they hold on any machine and in a debug
//! build:
//!
//! * (i) decoding a delta document allocates a constant number of times
//!   per op, and no more than the ceiling below: the pull reader builds
//!   no tree, so what is left is the op's own strings and the list;
//! * (ii) a one-op delta on a resident [`IncrementalEngine`] allocates
//!   the same whatever the size of the graph it lands on, and no more
//!   than its ceiling;
//! * (iii) decoding a graph document with [`json::read_graph`] into a
//!   schema's [`ColumnsBuilder`](pgraph::ColumnsBuilder), `finish`
//!   included, allocates a constant number of times per element, and no
//!   more than its ceiling: each decoded value is moved into the pool.
//!
//! Every allocation of the process is counted by the global allocator
//! below, so the file holds one `#[test]` that takes its cases serially:
//! no other test's allocations leak into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pg_schema::{IncrementalEngine, PgSchema, ValidationOptions};
use pgraph::{json, EdgeId, GraphDelta, NodeId, PropertyGraph, Value};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Largest allowed max/min of a per-unit count across the sizes, as in
/// `tests/complexity.rs`.
const FLAT: f64 = 1.25;

/// Allocations per op of `delta_from_json` on [`mixed_delta`]: the
/// measured 1.81 at 2⁴ ops (falling to 1.63 at 2¹⁰ as the list's growth
/// amortises) × 1.25. A decoder that builds a `Json` tree first makes
/// about 10.
const DECODE_CEILING: f64 = 1.8125 * 1.25;

/// Allocations of a one-op property toggle on [`ring`]: the measured 40
/// at every size × 1.25. A value pool that clones each new value into
/// two maps besides its column measured 46.
const DELTA_CEILING: f64 = 40.0 * 1.25;

/// Allocations per element of decoding [`ring`]'s document into a
/// schema's columns: the measured 1.676 at 2¹⁰ elements (falling to
/// 1.515 at 2¹⁴) × 1.25, with each decoded value moved into the value
/// pool. A pool that encodes each value to bytes and clones it into two
/// maps besides its column measured 4.679 (4.516).
const COLUMNS_CEILING: f64 = 1.676 * 1.25;

fn spread(xs: &[f64]) -> f64 {
    let (min, max) = xs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    max / min
}

/// `n` ops cycling through every op kind and value shape a client sends:
/// strings, ids, enums, lists, numbers.
fn mixed_delta(n: usize) -> GraphDelta {
    let (node, edge) = (NodeId::from_index, EdgeId::from_index);
    (0..n).fold(GraphDelta::new(), |d, i| match i % 8 {
        0 => d.set_node_property(node(i), "login", Value::String(format!("user-{i}"))),
        1 => d.add_node("User"),
        2 => d.add_edge(node(i), node(i + 1), "follows"),
        3 => d.set_node_property(node(i), "id", Value::Id(format!("u{i}"))),
        4 => d.set_edge_property(edge(i), "weight", Value::Float(0.5)),
        5 => d.set_node_property(node(i), "unit", Value::Enum("METER".into())),
        6 => d.set_node_property(node(i), "scores", Value::from(vec![1i64, 2, 3])),
        _ => d.remove_edge(edge(i)),
    })
}

const RING_SDL: &str = r#"
type User @key(fields: ["id"]) {
    id: ID! @required
    login: String
    follows: [User] @distinct @noLoops
}
"#;

/// `n` users in a `follows` ring: every node has degree two, keys are
/// distinct, and the graph conforms at every size, so neither a delta's
/// region nor the standing violations grow with `n`.
fn ring(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let users: Vec<NodeId> = (0..n)
        .map(|i| {
            let u = g.add_node("User");
            g.set_node_property(u, "id", Value::Id(format!("u{i}")));
            g.set_node_property(u, "login", Value::String(format!("user-{i}")));
            u
        })
        .collect();
    for i in 0..n {
        g.add_edge(users[i], users[(i + 1) % n], "follows")
            .expect("both ends exist");
    }
    g
}

#[test]
fn allocations_stay_within_budget() {
    // (i) Delta decode, 2⁴ … 2¹⁰ ops.
    let mut per_op = Vec::new();
    for n in (4..=10).map(|k| 1usize << k) {
        let delta = mixed_delta(n);
        let text = json::delta_to_json(&delta);
        let (decoded, allocations) = counted(|| json::delta_from_json(&text));
        assert_eq!(decoded.expect("written deltas decode"), delta);
        per_op.push(allocations as f64 / n as f64);
    }
    assert!(
        spread(&per_op) <= FLAT,
        "delta decode allocations per op grow with the delta: {per_op:.3?} over 2^4..2^10 ops"
    );
    assert!(
        per_op.iter().all(|&x| x <= DECODE_CEILING),
        "delta decode allocates more than {DECODE_CEILING} times per op: {per_op:.3?}"
    );

    // (ii) A one-op delta on a resident session, 2¹⁰ … 2¹⁴ elements.
    let schema = PgSchema::parse(RING_SDL).unwrap();
    let options = ValidationOptions::default();
    let mut per_delta = Vec::new();
    for users in (9..=13).map(|k| 1usize << k) {
        let mut engine = IncrementalEngine::new(ring(users), &schema, &options);
        assert_eq!(engine.report().violations().len(), 0, "the ring conforms");
        let target = NodeId::from_index(users / 2);
        let mut total = 0;
        for login in ["toggle-a", "toggle-b", "toggle-a"] {
            let delta = GraphDelta::new().set_node_property(target, "login", Value::from(login));
            let (outcome, allocations) = counted(|| engine.apply(&delta));
            outcome.expect("1-op delta applies");
            total += allocations;
        }
        per_delta.push(total as f64 / 3.0);
    }
    assert!(
        spread(&per_delta) <= FLAT,
        "a 1-op delta's allocations grow with the graph: {per_delta:.1?} per delta over 2^10..2^14 elements"
    );
    assert!(
        per_delta.iter().all(|&x| x <= DELTA_CEILING),
        "a 1-op delta allocates more than {DELTA_CEILING} times: {per_delta:.1?}"
    );

    // (iii) A graph document decoded into columns, 2¹⁰ … 2¹⁴ elements.
    let mut per_element = Vec::new();
    for users in (9..=13).map(|k| 1usize << k) {
        let text = json::to_json(&ring(users));
        let (cols, allocations) = counted(|| {
            let mut builder = schema.columns_builder();
            json::read_graph(&mut json::Reader::new(&text), &mut builder).map(|()| builder.finish())
        });
        assert_eq!(cols.expect("written graphs decode").node_slots(), users);
        per_element.push(allocations as f64 / (2 * users) as f64);
    }
    assert!(
        spread(&per_element) <= FLAT,
        "decoding a graph into columns allocates more per element as it grows: {per_element:.3?} over 2^10..2^14 elements"
    );
    assert!(
        per_element.iter().all(|&x| x <= COLUMNS_CEILING),
        "decoding a graph into columns allocates more than {COLUMNS_CEILING} times per element: {per_element:.3?}"
    );
}
