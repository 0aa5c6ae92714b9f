//! Asymptotic guards, pinned as ratios of deterministic work counters
//! over doubling inputs — never as times, so they hold on any machine
//! and in a debug build:
//!
//! * (a) Theorem 1's practical form: every rule kernel of the indexed
//!   and parallel engines examines a number of elements proportional to
//!   `|V| + |E|` (`RuleMetrics::elements_scanned`);
//! * (b) revalidation costs in proportion to the change, not the graph
//!   (`DeltaOutcome::elements_rechecked` of a one-op delta, and the
//!   kernels' `nodes_scanned + edges_scanned` over its region);
//! * (c) migration planning's dirty region is the changed type's, not
//!   the schema's (`MigrationPlan::{dirty_nodes, dirty_edges}`);
//! * (d) recovery replays the WAL written since the last compaction, not
//!   the whole history (`RecoveryInfo::records_replayed`).

use pg_datagen::schemagen::{library_schema, ring_schema, social_schema};
use pg_datagen::{GraphGen, GraphGenParams};
use pg_schema::{migrate, validate, Engine, IncrementalEngine, PgSchema, Rule, ValidationOptions};
use pg_store::{FsyncPolicy, SessionMeta, Store};
use pgraph::{GraphDelta, PropertyGraph, Value};

/// Nodes per type: six doublings, ≈ 2⁹ … 2¹⁴ elements on the fixtures.
const NODES_PER_TYPE: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// Largest allowed max/min of a per-element ratio across the sizes.
/// Over five doublings an `n log n` kernel drifts by ≥ log₂(2¹⁴) / log₂(2⁹)
/// ≈ 1.5, an `n²` one by 32.
const FLAT: f64 = 1.25;

fn conforming(schema: &PgSchema, nodes_per_type: usize) -> PropertyGraph {
    GraphGen::new(
        schema,
        GraphGenParams {
            nodes_per_type,
            ..Default::default()
        },
    )
    .generate_conforming(5)
    .expect("fixture admits conforming graphs")
}

fn elements(g: &PropertyGraph) -> usize {
    g.node_count() + g.edge_count()
}

#[test]
fn every_kernel_scans_a_constant_number_of_elements_per_element() {
    let schema = PgSchema::parse(library_schema()).unwrap();
    let graphs: Vec<PropertyGraph> = NODES_PER_TYPE
        .iter()
        .map(|&n| conforming(&schema, n))
        .collect();
    for (engine, threads) in [(Engine::Indexed, 1), (Engine::Parallel, 2)] {
        let options = ValidationOptions::builder()
            .engine(engine)
            .threads(threads)
            .collect_metrics(true)
            .build();
        // ratios[k][i]: kernel k's elements_scanned / (|V| + |E|) at size i.
        let mut ratios = vec![Vec::new(); Rule::ALL.len()];
        for g in &graphs {
            let report = validate(g, &schema, &options);
            let metrics = report.metrics().expect("metrics were requested");
            for (k, rule) in Rule::ALL.iter().enumerate() {
                let scanned: u64 = metrics
                    .rules
                    .iter()
                    .filter(|m| m.rule == *rule)
                    .map(|m| m.elements_scanned)
                    .sum();
                ratios[k].push(scanned as f64 / elements(g) as f64);
            }
        }
        let sizes: Vec<usize> = graphs.iter().map(elements).collect();
        for (rule, r) in Rule::ALL.iter().zip(&ratios) {
            let (min, max) = r
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            assert!(
                min > 0.0,
                "{rule} on {engine:?} scanned nothing at some size; per element {r:.3?} over {sizes:?}"
            );
            assert!(
                max / min <= FLAT,
                "{rule} on {engine:?} is not linear: scanned per element {r:.3?} over {sizes:?}"
            );
        }
    }
}

#[test]
fn a_one_op_delta_rechecks_a_constant_region() {
    let schema = PgSchema::parse(social_schema()).unwrap();
    let options = ValidationOptions::builder().collect_metrics(true).build();
    // scanned[i]: kernel node + edge visits per re-checked element over
    // the three deltas at size i (the first node's degree, and so the
    // region, differs between the fixtures).
    let mut scanned = Vec::new();
    for &n in &NODES_PER_TYPE {
        let graph = conforming(&schema, n);
        let target = graph.node_ids().next().expect("non-empty graph");
        let attr = graph
            .node_label(target)
            .and_then(|l| schema.label_type(l))
            .and_then(|t| schema.attributes(t).first())
            .map(|a| a.name.clone())
            .expect("the first node's type declares an attribute");
        let mut engine = IncrementalEngine::new(graph, &schema, &options);
        let (mut visits, mut rechecked) = (0, 0);
        for value in ["toggle-a", "toggle-b", "toggle-a"] {
            let delta = GraphDelta::new().set_node_property(
                target,
                attr.clone(),
                Value::String(value.to_owned()),
            );
            let outcome = engine.apply(&delta).expect("1-op delta applies");
            assert!(
                (1..=16).contains(&outcome.elements_rechecked),
                "a 1-op toggle re-checked {} of {} elements",
                outcome.elements_rechecked,
                outcome.elements_total
            );
            let report = engine.report();
            let m = report.metrics().expect("metrics were requested");
            visits += m.nodes_scanned + m.edges_scanned;
            rechecked += m.elements_rechecked;
        }
        scanned.push(visits as f64 / rechecked as f64);
    }
    let (min, max) = scanned
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(
        min > 0.0 && max / min <= FLAT,
        "the kernels' scans of a 1-op delta grow with the graph: {scanned:.3?} per re-checked element over {NODES_PER_TYPE:?} nodes per type"
    );
}

#[test]
fn migration_plans_touch_only_the_changed_type() {
    let nodes_per_type = 16;
    for (tighten, extend) in [(true, false), (false, true)] {
        let mut regions = Vec::new();
        for num_types in [4, 8, 16, 32, 64] {
            let old = PgSchema::parse(&ring_schema(num_types, false, false)).unwrap();
            let new = PgSchema::parse(&ring_schema(num_types, tighten, extend)).unwrap();
            let graph = conforming(&old, nodes_per_type);
            let plan = migrate::plan(&graph, &old, &new, &ValidationOptions::default());
            regions.push((plan.dirty_nodes + plan.dirty_edges, plan.elements_total));
        }
        assert!(
            regions
                .iter()
                .all(|&(dirty, _)| dirty == regions[0].0 && dirty > 0),
            "tighten={tighten} extend={extend}: dirty region of total, by type count: {regions:?}"
        );
    }
}

#[test]
fn recovery_replays_only_the_records_since_compaction() {
    const AFTER: u64 = 24;
    let sdl = "type User { login: String }";
    for before in [32u64, 64, 128, 256] {
        let dir = std::env::temp_dir().join(format!(
            "pg-complexity-replay-{}-{before}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut graph = PropertyGraph::new();
        let user = graph.add_node("User");
        let mut delta_no = 0i64;
        let mut next_delta = |graph: &mut PropertyGraph| {
            delta_no += 1;
            let d = GraphDelta::new().set_node_property(user, "login", Value::Int(delta_no));
            d.apply_to(graph).expect("delta applies");
            d
        };
        {
            let (store, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            let mut meta =
                SessionMeta::created(sdl.to_owned(), store.append_create(1, sdl, &graph).unwrap());
            for _ in 0..before {
                let d = next_delta(&mut graph);
                meta.last_seq = store.append_delta(1, &d).unwrap();
                meta.delta_ran(true);
            }
            let mut compaction = store.try_begin_compaction().unwrap().expect("idle store");
            compaction.capture().add_session(1, &meta, &graph);
            compaction.finish(2).unwrap();
            for _ in 0..AFTER {
                let d = next_delta(&mut graph);
                store.append_delta(1, &d).unwrap();
            }
        }
        let (_store, recovered) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        let info = &recovered.info;
        assert_eq!(
            (info.records_replayed, info.records_skipped),
            (AFTER, 0),
            "{before} records, a compaction, then {AFTER}: {info:?}"
        );
        let session = &recovered.sessions[0];
        assert_eq!(session.meta.deltas_applied, before + AFTER);
        assert_eq!(&session.graph.clone().into_graph().unwrap(), &graph);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
