//! Criterion benches for the incremental revalidation engine (E2i):
//! per-delta absorption cost vs a full indexed pass, across graph sizes
//! and delta shapes.
//!
//! The claim under test is the one the `IncrementalEngine` module docs
//! make: absorbing a delta costs `O(k·d)` in the dirty-region size, not
//! `O(|V| + |E|)`. So `incremental/1op` should stay flat as the graph
//! grows while `full_indexed` scales linearly — the gap at the largest
//! size is the E2i headline number. `seed` measures the one-off cost of
//! opening a session (a full pass plus the key-table builds; adjacency is
//! the graph's own incidence lists, built with the graph), which
//! amortizes over the deltas that follow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pg_datagen::{DeltaGen, DeltaGenParams, GraphGen, GraphGenParams};
use pg_schema::{validate, Engine, IncrementalEngine, PgSchema, ValidationOptions};
use pgraph::{GraphDelta, NodeId, PropertyGraph, Value};

fn social_graph(nodes_per_type: usize) -> (PgSchema, PropertyGraph) {
    let schema = PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap();
    let graph = GraphGen::new(
        &schema,
        GraphGenParams {
            nodes_per_type,
            ..Default::default()
        },
    )
    .generate_conforming(5)
    .expect("generable");
    (schema, graph)
}

/// A 1-op delta toggling one declared attribute of `node`.
fn toggle_delta(schema: &PgSchema, g: &PropertyGraph, node: NodeId, flip: bool) -> GraphDelta {
    let attr = g
        .node_label(node)
        .and_then(|l| schema.label_type(l))
        .and_then(|t| schema.attributes(t).first())
        .map_or_else(|| "x".to_owned(), |a| a.name.clone());
    let v = Value::String(if flip { "bench-a" } else { "bench-b" }.to_owned());
    GraphDelta::new().set_node_property(node, attr, v)
}

/// E2i: full pass vs 1-op and 16-op incremental absorption per size.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2i_incremental_vs_full");
    group.sample_size(10);
    for npt in [400usize, 1600, 6400] {
        let (schema, graph) = social_graph(npt);
        let elements = (graph.node_count() + graph.edge_count()) as u64;
        group.throughput(Throughput::Elements(elements));
        group.bench_with_input(
            BenchmarkId::new("full_indexed", graph.node_count()),
            &graph,
            |b, g| {
                b.iter(|| validate(g, &schema, &ValidationOptions::with_engine(Engine::Indexed)))
            },
        );

        let options = ValidationOptions::default();
        let target = graph.node_ids().next().expect("non-empty");
        let mut engine = IncrementalEngine::new(graph.clone(), &schema, &options);
        let mut flip = false;
        group.bench_function(
            BenchmarkId::new("incremental/1op", graph.node_count()),
            |b| {
                b.iter(|| {
                    flip = !flip;
                    engine
                        .apply(&toggle_delta(&schema, &graph, target, flip))
                        .expect("applies")
                })
            },
        );

        // Pre-generate a long conflict-free random sequence so delta
        // generation (which scans the graph) stays out of the timing.
        let gen = DeltaGen::new(
            &schema,
            DeltaGenParams {
                ops: 16,
                ..Default::default()
            },
        );
        let mut scratch = graph.clone();
        let deltas: Vec<GraphDelta> = (0..256u64)
            .map(|seed| {
                let d = gen.generate_seeded(&scratch, seed);
                d.apply_to(&mut scratch).expect("conflict-free");
                d
            })
            .collect();
        let mut batch_engine = IncrementalEngine::new(graph.clone(), &schema, &options);
        let mut i = 0;
        group.bench_function(
            BenchmarkId::new("incremental/16op", graph.node_count()),
            |b| {
                b.iter(|| {
                    let d = &deltas[i % deltas.len()];
                    i += 1;
                    // The sequence is conflict-free only on its first
                    // replay; later laps may hit ids the sequence
                    // already removed. A failed apply reseeds the
                    // engine (a full pass) — rare enough to stay noise,
                    // and exactly the recovery path a long-running
                    // session would take.
                    let _ = batch_engine.apply(d);
                })
            },
        );
    }
    group.finish();
}

/// Session-opening cost: `IncrementalEngine::new` is a full pass plus
/// key-table construction (the graph already holds its incidence lists).
fn bench_seed_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2i_seed_cost");
    group.sample_size(10);
    for npt in [400usize, 1600] {
        let (schema, graph) = social_graph(npt);
        let options = ValidationOptions::default();
        group.bench_with_input(
            BenchmarkId::new("seed", graph.node_count()),
            &graph,
            |b, g| b.iter(|| IncrementalEngine::new(g.clone(), &schema, &options)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_full, bench_seed_cost);
criterion_main!(benches);
