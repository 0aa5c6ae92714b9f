//! Property-based tests: the naive, indexed, parallel and incremental
//! validation engines decide the same relation, on random schemas ×
//! random (possibly mutated) graphs, across worker counts, and — for
//! the incremental engine — after every step of arbitrary mutation
//! sequences; generated conforming graphs conform; injected defects are
//! caught. Agreement is checked down to per-rule violation multisets
//! and byte-identical canonical renderings, with and without
//! `max_violations` truncation — the naive oracle versus the shared
//! rule kernels (CI job `kernel-parity`).

use pg_datagen::{DeltaGen, DeltaGenParams, GraphGen, GraphGenParams, SchemaGen, SchemaGenParams};
use pg_schema::{
    validate, Engine, IncrementalEngine, PgSchema, Rule, ValidationOptions, ValidationReport,
};
use proptest::prelude::*;

/// Every engine configuration the agreement suite compares against the
/// naive oracle: serial kernels, the stateless incremental path, and the
/// parallel planner at 1 (degenerate shard), 2 (cross-shard merge) and 8
/// (shards smaller than some label groups) workers.
const KERNEL_CONFIGS: [(Engine, usize); 5] = [
    (Engine::Indexed, 1),
    (Engine::Incremental, 1),
    (Engine::Parallel, 1),
    (Engine::Parallel, 2),
    (Engine::Parallel, 8),
];

fn schema_for(seed: u64) -> PgSchema {
    let sdl = SchemaGen::new(SchemaGenParams {
        num_types: 5,
        attrs_per_type: 3,
        rels_per_type: 2,
        seed,
        ..Default::default()
    })
    .generate();
    PgSchema::parse(&sdl).expect("generated schemas build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engines agree violation-for-violation on arbitrary (conforming or
    /// not) generated graphs — four ways (a bare validate through
    /// `Engine::Incremental` takes the delta engine's full-pass path),
    /// and for the parallel engine across worker counts (1 exercises the
    /// degenerate shard, 2 the cross-shard merge, 8 shards smaller than
    /// some label groups).
    #[test]
    fn engines_agree(schema_seed in 0u64..30, graph_seed in 0u64..30) {
        let schema = schema_for(schema_seed);
        let gen = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 6,
            seed: graph_seed,
            ..Default::default()
        });
        // Raw generate — may or may not conform (target obligations).
        let graph = gen.generate();
        let naive = validate(&graph, &schema, &ValidationOptions::with_engine(Engine::Naive));
        let indexed = validate(&graph, &schema, &ValidationOptions::with_engine(Engine::Indexed));
        prop_assert_eq!(&naive, &indexed, "naive:\n{}indexed:\n{}", naive, indexed);
        let incremental =
            validate(&graph, &schema, &ValidationOptions::with_engine(Engine::Incremental));
        prop_assert_eq!(
            &incremental, &indexed,
            "incremental:\n{}indexed:\n{}", incremental, indexed
        );
        for threads in [1usize, 2, 8] {
            let opts = ValidationOptions::builder()
                .engine(Engine::Parallel)
                .threads(threads)
                .build();
            let parallel = validate(&graph, &schema, &opts);
            prop_assert_eq!(
                &parallel, &indexed,
                "parallel ({} threads):\n{}indexed:\n{}", threads, parallel, indexed
            );
        }
    }

    /// Conforming generation + injection: each applicable defect is
    /// caught by its rule, on both engines.
    #[test]
    fn injected_defects_are_caught(schema_seed in 0u64..12, defect_ix in 0usize..15) {
        let sdl = SchemaGen::new(SchemaGenParams::benchmarkable(5, schema_seed)).generate();
        let schema = PgSchema::parse(&sdl).unwrap();
        let Some(base) = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 6,
            ..Default::default()
        }).generate_conforming(5) else {
            return Ok(()); // schema obligations unsatisfiable — skip
        };
        let defect = pg_datagen::Defect::ALL[defect_ix];
        let mut g = base.clone();
        if !pg_datagen::inject(&mut g, &schema, defect) {
            return Ok(()); // defect not applicable to this schema
        }
        for engine in [
            Engine::Naive,
            Engine::Indexed,
            Engine::Parallel,
            Engine::Incremental,
        ] {
            let report = validate(&g, &schema, &ValidationOptions::with_engine(engine));
            prop_assert!(
                report.by_rule(defect.rule()).next().is_some(),
                "{:?} not caught by {:?}; report:\n{}", defect, engine, report
            );
        }
        // Injected defects survive sharding at any worker count.
        for threads in [2usize, 8] {
            let opts = ValidationOptions::builder()
                .engine(Engine::Parallel)
                .threads(threads)
                .build();
            let report = validate(&g, &schema, &opts);
            prop_assert!(
                report.by_rule(defect.rule()).next().is_some(),
                "{:?} lost at {} threads; report:\n{}", defect, threads, report
            );
        }
    }

    /// The incremental engine's patched report equals a full
    /// revalidation after **every** step of an arbitrary mutation
    /// sequence — the agreement property closes over deltas, not just
    /// static graphs. Sequences are drawn by [`DeltaGen`] against the
    /// engine's own evolving graph, so they mix structural ops
    /// (add/remove node/edge, cascading removals), property churn
    /// (well-typed and deliberately ill-typed writes) and relabels.
    #[test]
    fn incremental_agrees_after_mutation_sequences(
        schema_seed in 0u64..16,
        graph_seed in 0u64..8,
        delta_seed in 0u64..1_000,
    ) {
        let schema = schema_for(schema_seed);
        let graph = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 5,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(graph, &schema, &options);
        let gen = DeltaGen::new(&schema, DeltaGenParams {
            ops: 8,
            p_structural: 0.5,
            ..Default::default()
        });
        for step in 0..6u64 {
            let seed = delta_seed.wrapping_mul(31).wrapping_add(step);
            let delta = gen.generate_seeded(engine.graph(), seed);
            engine.apply(&delta).expect("conflict-free by construction");
            let patched = engine.report();
            let full = validate(
                engine.graph(),
                &schema,
                &ValidationOptions::with_engine(Engine::Indexed),
            );
            prop_assert_eq!(
                &patched, &full,
                "step {}:\npatched:\n{}full:\n{}", step, patched, full
            );
        }
        // The end state also agrees with the reference transcription of
        // the paper's formulas.
        let naive = validate(
            engine.graph(),
            &schema,
            &ValidationOptions::with_engine(Engine::Naive),
        );
        let patched = engine.report();
        prop_assert_eq!(
            &patched, &naive,
            "end state:\npatched:\n{}naive:\n{}", patched, naive
        );
    }

    /// Per-rule violation multisets agree across all four engines. Full
    /// report equality already implies this; asserting it per rule keeps
    /// the failure signal sharp (which kernel diverged) and pins the
    /// property the kernel layer promises: each of the fifteen rules has
    /// exactly one implementation, so no engine can disagree on any
    /// rule's violation set.
    #[test]
    fn per_rule_multisets_agree(schema_seed in 0u64..16, graph_seed in 0u64..16) {
        let schema = schema_for(schema_seed);
        let graph = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 6,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        let oracle = validate(&graph, &schema, &ValidationOptions::with_engine(Engine::Naive));
        for (engine, threads) in KERNEL_CONFIGS {
            let opts = ValidationOptions::builder()
                .engine(engine)
                .threads(threads)
                .build();
            let got = validate(&graph, &schema, &opts);
            prop_assert_eq!(got.counts(), oracle.counts(), "{:?}/{}", engine, threads);
            for rule in Rule::ALL {
                let a: Vec<_> = got.by_rule(rule).collect();
                let b: Vec<_> = oracle.by_rule(rule).collect();
                prop_assert_eq!(
                    a, b,
                    "{:?} multiset diverged on {:?} at {} threads", rule, engine, threads
                );
            }
        }
        // Under truncation identical subsets are not promised (engines
        // reach the limit along different scan orders), but every engine
        // must stay within the limit, flag the truncation, and return
        // only genuine violations.
        let total = oracle.len();
        if total > 1 {
            let limit = total / 2;
            for (engine, threads) in KERNEL_CONFIGS {
                let opts = ValidationOptions::builder()
                    .engine(engine)
                    .threads(threads)
                    .max_violations(limit)
                    .build();
                let got = validate(&graph, &schema, &opts);
                prop_assert!(got.truncated(), "{:?}/{} not flagged truncated", engine, threads);
                prop_assert!(!got.conforms());
                prop_assert!(got.len() <= limit, "{:?}/{} exceeded limit", engine, threads);
                for v in got.violations() {
                    prop_assert!(
                        oracle.violations().contains(v),
                        "{:?}/{} fabricated {} under truncation", engine, threads, v
                    );
                }
            }
        }
    }

    /// Canonical ordering makes reports byte-comparable: re-serialising
    /// each engine's violation stream (minus the engine/metrics
    /// identity) yields the identical JSON document and the identical
    /// rendered lines.
    #[test]
    fn reports_render_byte_identically(schema_seed in 0u64..12, graph_seed in 0u64..12) {
        let schema = schema_for(schema_seed);
        let graph = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 6,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        let render = |opts: &ValidationOptions| {
            let r = validate(&graph, &schema, opts);
            let canonical = ValidationReport::new(r.violations().to_vec());
            (canonical.to_json(), canonical.to_string())
        };
        let (oracle_json, oracle_text) =
            render(&ValidationOptions::with_engine(Engine::Naive));
        for (engine, threads) in KERNEL_CONFIGS {
            let opts = ValidationOptions::builder()
                .engine(engine)
                .threads(threads)
                .build();
            let (json, text) = render(&opts);
            prop_assert_eq!(&json, &oracle_json, "{:?}/{} JSON diverged", engine, threads);
            prop_assert_eq!(&text, &oracle_text, "{:?}/{} text diverged", engine, threads);
        }
    }

    /// Per-rule metrics attribute every violation to the kernel that
    /// found it: for each engine the recorded `RuleMetrics.violations`
    /// equals the report's per-rule count, and timing entries stay in
    /// rule order.
    #[test]
    fn rule_metrics_match_report(schema_seed in 0u64..8, graph_seed in 0u64..8) {
        let schema = schema_for(schema_seed);
        let graph = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 6,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        for (engine, threads) in KERNEL_CONFIGS {
            let opts = ValidationOptions::builder()
                .engine(engine)
                .threads(threads)
                .collect_metrics(true)
                .build();
            let report = validate(&graph, &schema, &opts);
            let m = report.metrics().expect("metrics requested");
            prop_assert_eq!(m.rules.len(), Rule::ALL.len(), "{:?}/{}", engine, threads);
            prop_assert!(m.rules.windows(2).all(|w| w[0].rule < w[1].rule));
            for rm in &m.rules {
                // Kernel counts are pre-canonicalization, so duplicate
                // emissions (e.g. one loop edge matching two @noLoops
                // sites) may inflate them — but never fabricate or lose
                // a rule's violations.
                let canonical = report.by_rule(rm.rule).count();
                prop_assert!(
                    rm.violations >= canonical,
                    "{:?} undercounted on {:?} at {} threads: {} < {}",
                    rm.rule, engine, threads, rm.violations, canonical
                );
                prop_assert_eq!(
                    rm.violations == 0,
                    canonical == 0,
                    "{:?} misattributed on {:?} at {} threads", rm.rule, engine, threads
                );
            }
        }
    }

    /// The language axis: a bilingual corpus schema compiled through
    /// the SDL frontend and through its PG-Schema rendering yields
    /// byte-identical canonical violation reports on every engine. This
    /// is the end-to-end translation-parity property — the PG-Schema
    /// compiler lowers onto the same `PgSchema` the SDL path builds, so
    /// no engine can tell which language a schema arrived in.
    ///
    /// The graph type's mode is drawn too: the oracle is the closed-world
    /// SDL schema with the strong family switched off by *options* for
    /// `LOOSE`, the subject is the compiled schema under default options
    /// — so "LOOSE ⇒ no SS*" holds on every engine because the schema
    /// says so, not because a caller remembered to.
    #[test]
    fn languages_agree_across_engines(
        corpus_seed in 0u64..24,
        graph_seed in 0u64..8,
        loose in any::<bool>(),
    ) {
        let mode = if loose { pg_pgschema::TypeMode::Loose } else { pg_pgschema::TypeMode::Strict };
        let sdl = pg_pgschema::corpus::corpus_sdl(corpus_seed);
        let via_sdl = PgSchema::parse(&sdl).expect("corpus SDL builds");
        let doc = gql_sdl::parse(&sdl).expect("corpus SDL parses");
        let pgs = pg_pgschema::print_pgschema(&doc, "Corpus", mode)
            .expect("corpus stays inside the PG-Schema fragment");
        let via_pgs = pg_pgschema::compile(&pgs).expect("rendering compiles back").schema;
        let mut graph = GraphGen::new(&via_sdl, GraphGenParams {
            nodes_per_type: 6,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        // Undeclared label, property and edge: one SS1, SS2 and SS4 each
        // under STRICT, nothing under LOOSE.
        let ghost = graph.add_node("Ghost");
        graph.set_node_property(ghost, "ectoplasm", pgraph::Value::Int(1));
        let first = graph.node_ids().next().expect("ghost exists");
        graph.set_node_property(first, "ectoplasm", pgraph::Value::Int(1));
        graph.add_edge(first, ghost, "haunts").expect("both endpoints live");
        let render = |schema: &PgSchema, opts: &ValidationOptions| {
            let r = validate(&graph, schema, opts);
            let canonical = ValidationReport::new(r.violations().to_vec());
            (canonical.to_json(), canonical.to_string())
        };
        let (oracle_json, oracle_text) = render(
            &via_sdl,
            &ValidationOptions::builder()
                .engine(Engine::Naive)
                .families(true, true, !loose)
                .build(),
        );
        prop_assert_eq!(oracle_text.contains("[SS"), !loose);
        for (engine, threads) in
            std::iter::once((Engine::Naive, 1)).chain(KERNEL_CONFIGS)
        {
            let opts = ValidationOptions::builder()
                .engine(engine)
                .threads(threads)
                .build();
            let (json, text) = render(&via_pgs, &opts);
            prop_assert_eq!(
                &json, &oracle_json,
                "pgschema-compiled JSON diverged on {:?}/{}", engine, threads
            );
            prop_assert_eq!(
                &text, &oracle_text,
                "pgschema-compiled text diverged on {:?}/{}", engine, threads
            );
        }
        // And the rendering itself is stable: PG-Schema → SDL → PG-Schema
        // reaches a fixpoint, so the two languages stay in lockstep.
        let reprinted = pg_pgschema::print_pgschema(
            &pg_pgschema::compile(&pgs).unwrap().document,
            "Corpus",
            mode,
        )
        .unwrap();
        prop_assert_eq!(&reprinted, &pgs, "PG-Schema rendering is not a fixpoint");
    }

    /// Graphs round-tripped through JSON validate identically.
    #[test]
    fn json_roundtrip_preserves_validation(schema_seed in 0u64..10, graph_seed in 0u64..10) {
        let schema = schema_for(schema_seed);
        let graph = GraphGen::new(&schema, GraphGenParams {
            nodes_per_type: 5,
            seed: graph_seed,
            ..Default::default()
        }).generate();
        let roundtripped = pgraph::json::from_json(&pgraph::json::to_json(&graph)).unwrap();
        let a = validate(&graph, &schema, &ValidationOptions::default());
        let b = validate(&roundtripped, &schema, &ValidationOptions::default());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.counts(), b.counts());
    }
}

/// Weak ⊆ strong: a strong-conforming graph is weak-conforming, and
/// violations found in weak-only mode are a subset of the full run.
/// `SchemaGen` writes a required to-one relationship as bare
/// `T @required` — which the PG-Schema printer used to refuse, so hardly
/// any generated schema could be served in the second language. A
/// relationship's outgoing cardinality is list-ness (WS4) × `@required`
/// (DS6), so the field prints as `OUTGOING 1..1`: every generated schema
/// that prints re-parses and judges a defect-salted instance
/// byte-identically to the SDL original on all four engines. The one
/// thing the `!` it gains would change is the target side (DS3/DS4 match
/// against the wrapped type), so beside `@uniqueForTarget` /
/// `@requiredForTarget` the printer still refuses, and says so.
#[test]
fn schemagen_schemas_survive_the_pgschema_round_trip() {
    let (mut printed, mut bare_required) = (0, 0);
    for seed in 0..50u64 {
        let sdl = SchemaGen::new(SchemaGenParams {
            num_types: 5,
            attrs_per_type: 3,
            rels_per_type: 2,
            seed,
            ..Default::default()
        })
        .generate();
        let via_sdl = PgSchema::parse(&sdl).expect("generated schemas build");
        let doc = gql_sdl::parse(&sdl).expect("generated schemas parse");
        let to_one_required = |line: &&str| line.contains(": T") && line.contains(" @required");
        let pgs = match pg_pgschema::print_pgschema(&doc, "Gen", pg_pgschema::TypeMode::Strict) {
            Ok(pgs) => pgs,
            Err(e) => {
                let refused = sdl.lines().filter(to_one_required);
                assert!(
                    e.to_string().contains("target-side directive")
                        && refused.into_iter().any(|line| line.contains("ForTarget")),
                    "seed {seed} does not print: {e}\n{sdl}"
                );
                continue;
            }
        };
        printed += 1;
        bare_required += sdl.lines().filter(to_one_required).count();
        let via_pgs = pg_pgschema::compile(&pgs)
            .unwrap_or_else(|e| panic!("seed {seed} does not re-parse: {e}\n{pgs}"))
            .schema;
        let params = GraphGenParams {
            nodes_per_type: 6,
            seed,
            ..Default::default()
        };
        let mut graph = GraphGen::new(&via_sdl, params).generate();
        for defect in pg_datagen::Defect::ALL {
            pg_datagen::inject(&mut graph, &via_sdl, defect);
        }
        for (engine, threads) in std::iter::once((Engine::Naive, 1)).chain(KERNEL_CONFIGS) {
            let opts = ValidationOptions::builder()
                .engine(engine)
                .threads(threads)
                .build();
            let render = |schema: &PgSchema| {
                let report = validate(&graph, schema, &opts);
                ValidationReport::new(report.violations().to_vec()).to_json()
            };
            let (original, round_tripped) = (render(&via_sdl), render(&via_pgs));
            assert!(
                original.contains("\"violations\": [{"),
                "seed {seed} has defects"
            );
            assert_eq!(
                round_tripped, original,
                "seed {seed} diverged on {engine:?}/{threads}"
            );
        }
    }
    assert!(printed >= 30, "only {printed} of 50 schemas print");
    assert!(bare_required > 0, "the seeds exercise bare `T @required`");
}

/// A `PgSchema` compiles its symbol space once and every later pass
/// freezes its graph into a copy of it, so graph strings the schema never
/// names are interned *after* the schema's and read the empty row. One
/// schema instance therefore validates graph after graph — salted with
/// unknown labels, unknown keys, an edge labelled with a type name and a
/// node labelled with a schema *field* name — and on every engine each
/// canonical report is byte-equal to the naive oracle's and to the one a
/// freshly parsed schema (a memo of its own) gives.
#[test]
fn schema_memo_is_reused_across_graphs() {
    let render = |report: &ValidationReport| {
        let canonical = ValidationReport::new(report.violations().to_vec());
        (canonical.to_json(), canonical.to_string())
    };
    for schema_seed in 0..10u64 {
        let sdl = SchemaGen::new(SchemaGenParams {
            num_types: 5,
            attrs_per_type: 3,
            rels_per_type: 2,
            seed: schema_seed,
            ..Default::default()
        })
        .generate();
        let shared = PgSchema::parse(&sdl).expect("generated schemas build");
        let t = shared
            .schema()
            .object_types()
            .next()
            .expect("an object type");
        let type_name = shared.schema().type_name(t).to_owned();
        let attr = shared.attributes(t)[0].name.clone();
        for graph_seed in 0..4u64 {
            let mut graph = GraphGen::new(
                &shared,
                GraphGenParams {
                    nodes_per_type: 4 + graph_seed as usize,
                    seed: graph_seed,
                    ..Default::default()
                },
            )
            .generate();
            let first = graph.node_ids().next().expect("generated nodes");
            let field_named = graph.add_node(attr.clone());
            graph.set_node_property(field_named, attr.clone(), pgraph::Value::Int(1));
            let ghost = graph.add_node(format!("Ghost{graph_seed}"));
            graph.set_node_property(ghost, format!("ecto{graph_seed}"), pgraph::Value::Int(2));
            graph.set_node_property(first, format!("ecto{graph_seed}"), pgraph::Value::Int(3));
            graph
                .add_edge(first, field_named, type_name.clone())
                .unwrap();
            graph.add_edge(ghost, first, attr.clone()).unwrap();
            graph.add_edge(field_named, ghost, "haunts").unwrap();

            let oracle = render(&validate(
                &graph,
                &shared,
                &ValidationOptions::with_engine(Engine::Naive),
            ));
            assert!(
                oracle.1.contains("[SS1]"),
                "the salt is visible: {}",
                oracle.1
            );
            let fresh = PgSchema::parse(&sdl).unwrap();
            assert_eq!(
                render(&validate(&graph, &fresh, &ValidationOptions::default())),
                oracle,
                "schema {schema_seed}, graph {graph_seed}: fresh schema"
            );
            for (engine, threads) in KERNEL_CONFIGS {
                let opts = ValidationOptions::builder()
                    .engine(engine)
                    .threads(threads)
                    .build();
                assert_eq!(
                    render(&validate(&graph, &shared, &opts)),
                    oracle,
                    "schema {schema_seed}, graph {graph_seed}: {engine:?}/{threads}"
                );
            }
            let session = IncrementalEngine::new(graph, &shared, &ValidationOptions::default());
            assert_eq!(
                render(&session.report()),
                oracle,
                "schema {schema_seed}, graph {graph_seed}: session"
            );
        }
    }
}

#[test]
fn weak_violations_are_a_subset_of_strong() {
    for seed in 0..10u64 {
        let schema = schema_for(seed);
        let graph = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: 6,
                seed,
                ..Default::default()
            },
        )
        .generate();
        let weak = validate(&graph, &schema, &ValidationOptions::weak_only());
        let full = validate(&graph, &schema, &ValidationOptions::default());
        for v in weak.violations() {
            assert!(
                full.violations().contains(v),
                "weak-only violation missing from full run: {v}"
            );
        }
    }
}
