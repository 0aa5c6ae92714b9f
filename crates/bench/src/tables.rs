//! Table generators for EXPERIMENTS.md — one function per experiment id.
//!
//! Each generator returns a Markdown table as a `String`; the
//! `experiments` binary prints them, and the unit tests smoke-run scaled-
//! down versions so the harness cannot rot.

use std::fmt::Write as _;
use std::time::Duration;

use dpll::KsatParams;
use pg_datagen::schemagen::ring_schema;
use pg_datagen::{
    inject, Defect, DeltaGen, DeltaGenParams, GraphGen, GraphGenParams, SchemaGen, SchemaGenParams,
};
use pg_reason::{check_object_type, ReasonerConfig, Satisfiability};
use pg_schema::{validate, Engine, IncrementalEngine, PgSchema, ValidationOptions};
use pgraph::{GraphDelta, Value};

use crate::{fit_exponent, fmt_duration, time_median};

/// E1 — the §3.3 cardinality table, with measured verdicts.
pub fn cardinality_table() -> String {
    let mut out = String::from(
        "| rel is a | definition in A | fan-out (1 A → 2 Bs) | fan-in (2 As → 1 B) |\n\
         |---|---|---|---|\n",
    );
    let rows = [
        ("1:1", "rel: B @uniqueForTarget"),
        ("1:N", "rel: B"),
        ("N:1", "rel: [B] @uniqueForTarget"),
        ("N:M", "rel: [B]"),
    ];
    for (kind, def) in rows {
        let schema = PgSchema::parse(&format!("type A {{ {def} }}\ntype B {{ x: Int }}")).unwrap();
        let fan_out = pgraph::GraphBuilder::new()
            .node("a", "A")
            .node("b1", "B")
            .node("b2", "B")
            .edge("a", "b1", "rel")
            .edge("a", "b2", "rel")
            .build()
            .unwrap();
        let fan_in = pgraph::GraphBuilder::new()
            .node("a1", "A")
            .node("a2", "A")
            .node("b", "B")
            .edge("a1", "b", "rel")
            .edge("a2", "b", "rel")
            .build()
            .unwrap();
        let verdict = |g: &pgraph::PropertyGraph| {
            let r = validate(g, &schema, &ValidationOptions::default());
            if r.conforms() {
                "allowed".to_owned()
            } else {
                let rules: Vec<String> = r.counts().keys().map(|k| k.to_string()).collect();
                format!("rejected ({})", rules.join(", "))
            }
        };
        let _ = writeln!(
            out,
            "| {kind} | `{def}` | {} | {} |",
            verdict(&fan_out),
            verdict(&fan_in)
        );
    }
    out
}

/// E2 — validation wall-time vs graph size, naive vs indexed engine.
///
/// `sizes` are nodes-per-type over the 3-type social schema;
/// `naive_cap` bounds the sizes the quadratic engine is run on.
pub fn validation_scaling(sizes: &[usize], naive_cap: usize, iters: usize) -> String {
    let schema = PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap();
    let mut out = String::from(
        "| nodes | edges | indexed | naive | naive/indexed |\n|---|---|---|---|---|\n",
    );
    let mut indexed_pts = Vec::new();
    let mut naive_pts = Vec::new();
    for &npt in sizes {
        let graph = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: npt,
                ..Default::default()
            },
        )
        .generate_conforming(5)
        .expect("social schema generable");
        let n = graph.node_count();
        let e = graph.edge_count();
        let t_indexed = time_median(iters, || {
            validate(
                &graph,
                &schema,
                &ValidationOptions::with_engine(Engine::Indexed),
            )
        });
        indexed_pts.push((n as f64, t_indexed.as_secs_f64()));
        let (naive_cell, ratio_cell) = if npt <= naive_cap {
            let t_naive = time_median(iters, || {
                validate(
                    &graph,
                    &schema,
                    &ValidationOptions::with_engine(Engine::Naive),
                )
            });
            naive_pts.push((n as f64, t_naive.as_secs_f64()));
            (
                fmt_duration(t_naive),
                format!("{:.1}×", t_naive.as_secs_f64() / t_indexed.as_secs_f64()),
            )
        } else {
            ("—".to_owned(), "—".to_owned())
        };
        let _ = writeln!(
            out,
            "| {n} | {e} | {} | {naive_cell} | {ratio_cell} |",
            fmt_duration(t_indexed)
        );
    }
    let _ = writeln!(
        out,
        "\nfitted growth exponent: indexed ≈ n^{:.2}, naive ≈ n^{:.2}",
        fit_exponent(&indexed_pts),
        fit_exponent(&naive_pts)
    );
    out
}

/// E2i — incremental revalidation vs full re-validation, per delta.
///
/// For each graph size, a full indexed pass is timed against an
/// [`IncrementalEngine`] absorbing (a) a single-op delta toggling one
/// node property and (b) a pre-generated 16-op random [`DeltaGen`]
/// batch. The `re-checked` column is the dirty-region size the 1-op
/// delta actually touched, out of all live elements.
pub fn incremental_scaling(sizes: &[usize], iters: usize) -> String {
    let schema = PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap();
    let mut out = String::from(
        "| nodes | edges | full indexed | 1-op delta | speedup | 16-op delta | re-checked (1-op) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for &npt in sizes {
        let graph = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: npt,
                ..Default::default()
            },
        )
        .generate_conforming(5)
        .expect("social schema generable");
        let n = graph.node_count();
        let e = graph.edge_count();
        let t_full = time_median(iters, || {
            validate(
                &graph,
                &schema,
                &ValidationOptions::with_engine(Engine::Indexed),
            )
        });

        // (a) Single-op deltas: toggle one declared attribute of the
        // first node between two well-typed values.
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(graph.clone(), &schema, &options);
        let target = graph.node_ids().next().expect("non-empty graph");
        let attr = graph
            .node_label(target)
            .and_then(|l| schema.label_type(l))
            .and_then(|t| schema.attributes(t).first())
            .map_or_else(|| "x".to_owned(), |a| a.name.clone());
        let outcome = engine
            .apply(&GraphDelta::new().set_node_property(
                target,
                attr.clone(),
                Value::String("e2i-prime".to_owned()),
            ))
            .expect("1-op delta applies");
        let mut flip = false;
        let t_one = time_median(iters.max(20) * 5, || {
            flip = !flip;
            let v = Value::String(if flip { "e2i-a" } else { "e2i-b" }.to_owned());
            engine
                .apply(&GraphDelta::new().set_node_property(target, attr.clone(), v))
                .expect("1-op delta applies");
        });

        // (b) 16-op random batches, pre-generated against a scratch
        // clone so generation cost stays out of the timing.
        let gen = DeltaGen::new(
            &schema,
            DeltaGenParams {
                ops: 16,
                ..Default::default()
            },
        );
        let mut scratch = graph.clone();
        let deltas: Vec<GraphDelta> = (0..iters.max(10) as u64)
            .map(|seed| {
                let d = gen.generate_seeded(&scratch, seed);
                d.apply_to(&mut scratch)
                    .expect("conflict-free by construction");
                d
            })
            .collect();
        let mut batch_engine = IncrementalEngine::new(graph.clone(), &schema, &options);
        let mut i = 0;
        let t_batch = time_median(deltas.len(), || {
            batch_engine.apply(&deltas[i]).expect("applies");
            i += 1;
        });

        let _ = writeln!(
            out,
            "| {n} | {e} | {} | {} | {:.0}× | {} | {} of {} |",
            fmt_duration(t_full),
            fmt_duration(t_one),
            t_full.as_secs_f64() / t_one.as_secs_f64(),
            fmt_duration(t_batch),
            outcome.elements_rechecked,
            outcome.elements_total,
        );
    }
    out
}

/// E2c — the columnar graph core: freeze and CSR adjacency cost, and
/// snapshot recovery time through the mmap'd zero-copy `PGS2` path.
///
/// The adjacency workload: for every live node and every edge label,
/// the labelled out- and in-edge groups are fetched and their lengths
/// summed. The recovery workload times
/// `Store::open` on a one-session data directory whose snapshot holds
/// the same graph; the `materialize` column is the deferred first-use
/// cost of thawing the mapped columnar image. (The retired eager `PGS1`
/// decoder this was first measured against is gone; EXPERIMENTS §E2c
/// keeps that row.)
pub fn columnar_core(sizes: &[usize], iters: usize) -> String {
    use pgraph::ColumnarGraph;

    let schema = PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap();
    let mut out = String::from(
        "| nodes | edges | freeze | CSR scan |\n\
         |---|---|---|---|\n",
    );
    let mut recovery = String::from(
        "| elements | snapshot bytes | open (PGS2 mmap) | materialize |\n\
         |---|---|---|---|\n",
    );
    for &npt in sizes {
        let graph = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: npt,
                ..Default::default()
            },
        )
        .generate_conforming(5)
        .expect("social schema generable");
        let n = graph.node_count();
        let e = graph.edge_count();

        // --- adjacency: the labelled-neighbourhood sweep.
        let mut edge_labels: Vec<String> = graph.edges().map(|e| e.label().to_owned()).collect();
        edge_labels.sort();
        edge_labels.dedup();
        let t_freeze = time_median(iters, || ColumnarGraph::freeze(&graph));
        let cols = ColumnarGraph::freeze(&graph);
        let syms: Vec<pgraph::Sym> = edge_labels
            .iter()
            .filter_map(|l| cols.symbols().lookup(l))
            .collect();
        let nodes: Vec<pgraph::NodeId> = graph.node_ids().collect();
        let t_csr = time_median(iters, || {
            let mut total = 0usize;
            for &v in &nodes {
                for &l in &syms {
                    total += cols.out_edges_labelled(v, l).len();
                    total += cols.in_edges_labelled(v, l).len();
                }
            }
            total
        });
        let _ = writeln!(
            out,
            "| {n} | {e} | {} | {} |",
            fmt_duration(t_freeze),
            fmt_duration(t_csr),
        );

        // --- recovery: one compacted session, opened through the map.
        let sdl = pg_datagen::schemagen::social_schema();
        let mapped_dir =
            std::env::temp_dir().join(format!("pgbench-e2c-v2-{}-{npt}", std::process::id()));
        let _ = std::fs::remove_dir_all(&mapped_dir);
        {
            let (store, _) = pg_store::Store::open(&mapped_dir, pg_store::FsyncPolicy::Never)
                .expect("store opens");
            store.append_create(1, sdl, &graph).unwrap();
            let mut compaction = store.try_begin_compaction().unwrap().unwrap();
            let meta = pg_store::SessionMeta::created(sdl.to_owned(), 1);
            compaction.capture().add_session(1, &meta, &graph);
            compaction.finish(2).unwrap();
        }
        let snap_bytes = std::fs::read_dir(&mapped_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .map(|e| e.metadata().unwrap().len())
            .max()
            .unwrap();
        let t_mmap = time_median(iters, || {
            pg_store::Store::open(&mapped_dir, pg_store::FsyncPolicy::Never).expect("reopens")
        });
        let (_store, recovered) =
            pg_store::Store::open(&mapped_dir, pg_store::FsyncPolicy::Never).unwrap();
        assert!(
            recovered.sessions[0].graph.is_mapped(),
            "PGS2 recovery must be zero-copy"
        );
        let t_thaw = time_median(iters, || {
            recovered.sessions[0].graph.clone().into_graph().unwrap()
        });
        let _ = writeln!(
            recovery,
            "| {} | {snap_bytes} | {} | {} |",
            n + e,
            fmt_duration(t_mmap),
            fmt_duration(t_thaw),
        );
        let _ = std::fs::remove_dir_all(&mapped_dir);
    }
    let _ = writeln!(out, "\nrecovery (one session, WAL fully compacted):\n");
    out.push_str(&recovery);
    out
}

/// E4m — migration planning: dirty-region impact preview vs a full
/// revalidation under the candidate schema.
///
/// The schema is [`ring_schema`] over `num_types` types; the two
/// candidates change only `T0` (an added optional attribute and an
/// `@required` tightening), so `migrate::plan`'s dirty region is one
/// type's nodes plus their incident edges while the full pass touches
/// everything.
pub fn migration_planning(num_types: usize, nodes_per_type: usize, iters: usize) -> String {
    let old = PgSchema::parse(&ring_schema(num_types, false, false)).unwrap();
    let graph = GraphGen::new(
        &old,
        GraphGenParams {
            nodes_per_type,
            ..Default::default()
        },
    )
    .generate_conforming(10)
    .expect("constraint-free ring schema admits conforming graphs");
    let options = ValidationOptions::default();
    let mut out = String::from(
        "| candidate | nodes | edges | full revalidation | `migrate plan` | speedup | dirty region |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (label, tighten, extend) in [
        ("add optional `T0.zmig`", false, true),
        ("tighten `T0.name @required`", true, false),
    ] {
        let candidate = PgSchema::parse(&ring_schema(num_types, tighten, extend)).unwrap();
        let t_full = time_median(iters, || {
            validate(
                &graph,
                &candidate,
                &ValidationOptions::with_engine(Engine::Indexed),
            )
        });
        let t_plan = time_median(iters.max(5), || {
            pg_schema::migrate::plan(&graph, &old, &candidate, &options)
        });
        let p = pg_schema::migrate::plan(&graph, &old, &candidate, &options);
        let _ = writeln!(
            out,
            "| {label} | {} | {} | {} | {} | {:.0}× | {} nodes + {} edges of {} |",
            graph.node_count(),
            graph.edge_count(),
            fmt_duration(t_full),
            fmt_duration(t_plan),
            t_full.as_secs_f64() / t_plan.as_secs_f64(),
            p.dirty_nodes,
            p.dirty_edges,
            p.elements_total,
        );
    }
    out
}

/// E3 — validation time vs schema size at (roughly) constant graph size.
pub fn schema_scaling(type_counts: &[usize], total_nodes: usize, iters: usize) -> String {
    let mut out =
        String::from("| object types | nodes | edges | indexed validation |\n|---|---|---|---|\n");
    for &nt in type_counts {
        let sdl = SchemaGen::new(SchemaGenParams::benchmarkable(nt, 42)).generate();
        let schema = PgSchema::parse(&sdl).unwrap();
        let graph = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: (total_nodes / nt).max(1),
                ..Default::default()
            },
        )
        .generate();
        let t = time_median(iters, || {
            validate(&graph, &schema, &ValidationOptions::default())
        });
        let _ = writeln!(
            out,
            "| {nt} | {} | {} | {} |",
            graph.node_count(),
            graph.edge_count(),
            fmt_duration(t)
        );
    }
    out
}

/// E4a — the classic random 3-SAT phase transition, via the DPLL oracle.
pub fn phase_transition(num_vars: usize, instances: u64) -> String {
    let mut out =
        String::from("| clause/var ratio | SAT fraction | median decisions |\n|---|---|---|\n");
    for ratio10 in [10u32, 20, 30, 38, 43, 48, 60, 80] {
        let ratio = ratio10 as f64 / 10.0;
        let mut sat = 0u64;
        let mut decisions: Vec<u64> = Vec::new();
        for seed in 0..instances {
            let f = dpll::random_ksat(&KsatParams::three_sat(num_vars, ratio, seed));
            let (model, stats) = dpll::solve_with_stats(&f);
            if model.is_some() {
                sat += 1;
            }
            decisions.push(stats.decisions);
        }
        decisions.sort();
        let _ = writeln!(
            out,
            "| {ratio:.1} | {:.2} | {} |",
            sat as f64 / instances as f64,
            decisions[decisions.len() / 2]
        );
    }
    out
}

/// E4b — the Theorem 2 pipeline: DPLL verdict vs reduction + finite
/// search, with wall time, as formula size grows.
pub fn reduction_scaling(var_counts: &[usize], ratio: f64, seeds: u64) -> String {
    let mut out = String::from(
        "| vars | clauses | agree | median oracle | median reduction pipeline |\n\
         |---|---|---|---|---|\n",
    );
    for &n in var_counts {
        let clauses = (n as f64 * ratio).round() as usize;
        let mut oracle_times = Vec::new();
        let mut pipeline_times = Vec::new();
        let mut agree = true;
        for seed in 0..seeds {
            let f = dpll::random_ksat(&KsatParams {
                num_vars: n,
                num_clauses: clauses,
                k: 2,
                seed,
            });
            let t0 = std::time::Instant::now();
            let oracle = dpll::solve(&f).is_some();
            oracle_times.push(t0.elapsed());
            let t1 = std::time::Instant::now();
            let via = pg_reason::reduction::decide_via_reduction(&f).is_some();
            pipeline_times.push(t1.elapsed());
            agree &= oracle == via;
        }
        oracle_times.sort();
        pipeline_times.sort();
        let _ = writeln!(
            out,
            "| {n} | {clauses} | {} | {} | {} |",
            if agree { "yes" } else { "NO" },
            fmt_duration(oracle_times[oracle_times.len() / 2]),
            fmt_duration(pipeline_times[pipeline_times.len() / 2]),
        );
    }
    out
}

/// E5 — tableau scaling on required-chain schemas of growing depth.
pub fn reasoner_scaling(depths: &[usize], iters: usize) -> String {
    let mut out =
        String::from("| chain depth | types | tableau verdict | time |\n|---|---|---|---|\n");
    for &d in depths {
        let mut sdl = String::new();
        for i in 0..d {
            let _ = writeln!(sdl, "type C{i} {{ next: C{} @required }}", i + 1);
        }
        let _ = writeln!(sdl, "type C{d} {{ x: Int }}");
        let schema = PgSchema::parse(&sdl).unwrap();
        let tbox = pg_reason::translate::translate(&schema);
        let config = ReasonerConfig::default();
        let outcome = pg_reason::tableau::check_concept_by_name(&tbox, "C0", &config);
        let t = time_median(iters, || {
            pg_reason::tableau::check_concept_by_name(&tbox, "C0", &config)
        });
        let _ = writeln!(
            out,
            "| {d} | {} | {outcome:?} | {} |",
            d + 1,
            fmt_duration(t)
        );
    }
    out
}

/// E6 — the §6.2 satisfiability verdicts (Example 6.1 / diagrams a–c).
pub fn satisfiability_verdicts() -> String {
    let cases: [(&str, &str, &str); 4] = [
        (
            "diagram (a) / Example 6.1",
            r#"
            type OT1 { }
            interface IT { hasOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
            type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
            "#,
            "OT1",
        ),
        (
            "diagram (b): infinite chain",
            r#"
            type OT1 { toOT3: [OT3] @required @uniqueForTarget }
            interface IT { toOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { toOT1: [OT1] @required }
            type OT3 implements IT { toOT1: [OT1] @required }
            "#,
            "OT2",
        ),
        (
            "diagram (c): forced coincidence",
            r#"
            type OT1 { }
            interface IT { f: [OT1] @uniqueForTarget }
            type OT2 implements IT { f: [OT1] @required }
            type OT3 implements IT { f: [OT1] @requiredForTarget }
            "#,
            "OT2",
        ),
        (
            "control (satisfiable)",
            r#"
            type Author { favoriteBook: Book }
            type Book { title: String! author: [Author] @required }
            "#,
            "Book",
        ),
    ];
    let mut out = String::from("| schema | queried type | verdict |\n|---|---|---|\n");
    for (name, sdl, ty) in cases {
        let schema = PgSchema::parse(sdl).unwrap();
        let verdict = match check_object_type(&schema, ty, &ReasonerConfig::default()) {
            Satisfiability::Satisfiable { size, .. } => {
                format!("satisfiable (witness: {size} nodes)")
            }
            Satisfiability::Unsatisfiable => "UNSATISFIABLE".to_owned(),
            Satisfiability::NoFiniteModelFound {
                bound,
                tableau_satisfiable,
            } => match tableau_satisfiable {
                Some(true) => format!("no finite model ≤ {bound}; infinite model exists"),
                _ => format!("no finite model ≤ {bound}; tableau inconclusive"),
            },
        };
        let _ = writeln!(out, "| {name} | {ty} | {verdict} |");
    }
    out
}

/// E9 — consistency-checking time vs schema size.
pub fn consistency_scaling(type_counts: &[usize], iters: usize) -> String {
    let mut out = String::from("| object types | check time |\n|---|---|\n");
    for &nt in type_counts {
        let sdl = SchemaGen::new(SchemaGenParams::benchmarkable(nt, 7)).generate();
        let doc = gql_sdl::parse(&sdl).unwrap();
        let schema = gql_schema::build_schema(&doc).unwrap();
        let t = time_median(iters, || gql_schema::consistency::check(&schema));
        let _ = writeln!(out, "| {nt} | {} |", fmt_duration(t));
    }
    out
}

/// E10 — the defect-detection matrix. Defects are injected into the
/// social schema's graph where applicable, falling back to the library
/// schema (Examples 3.6 + 3.8) whose target-side directives give the
/// remaining defects a site.
pub fn detection_matrix() -> String {
    let fixtures: Vec<(&str, PgSchema)> = vec![
        (
            "social",
            PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap(),
        ),
        (
            "library",
            PgSchema::parse(pg_datagen::schemagen::library_schema()).unwrap(),
        ),
    ];
    let bases: Vec<pgraph::PropertyGraph> = fixtures
        .iter()
        .map(|(name, schema)| {
            GraphGen::new(
                schema,
                GraphGenParams {
                    nodes_per_type: 30,
                    ..Default::default()
                },
            )
            .generate_conforming(10)
            .unwrap_or_else(|| panic!("{name} schema generable"))
        })
        .collect();
    let mut out = String::from(
        "| injected defect | target rule | schema | detected | total violations |\n\
         |---|---|---|---|---|\n",
    );
    for defect in Defect::ALL {
        let mut placed = false;
        for ((name, schema), base) in fixtures.iter().zip(&bases) {
            let mut g = base.clone();
            if !inject(&mut g, schema, defect) {
                continue;
            }
            placed = true;
            let report = validate(&g, schema, &ValidationOptions::default());
            let caught = report.by_rule(defect.rule()).next().is_some();
            let _ = writeln!(
                out,
                "| {defect:?} | {} | {name} | {} | {} |",
                defect.rule(),
                if caught { "yes" } else { "MISSED" },
                report.len()
            );
            break;
        }
        if !placed {
            let _ = writeln!(
                out,
                "| {defect:?} | {} | — | n/a (no site) | — |",
                defect.rule()
            );
        }
    }
    out
}

/// E11 — ablation: the symmetry-breaking clauses of the bounded
/// finite-model search (DESIGN.md design-choice index), measured on the
/// Theorem 2 reduction of an UNSAT formula (worst case: the whole space
/// must be refuted).
pub fn symmetry_ablation(var_counts: &[usize]) -> String {
    use pg_reason::finite::{find_model_with_options, FiniteSearchOptions};
    let mut out =
        String::from("| vars | clauses | with symmetry breaking | without |\n|---|---|---|---|\n");
    for &n in var_counts {
        // Pigeonhole-flavoured UNSAT: x1 … xn all true, plus pairwise
        // exclusion of the first two — guaranteed UNSAT, structured.
        let mut f = dpll::Cnf::new(n);
        for v in 0..n {
            f.add_clause([dpll::Lit::pos(v)]);
        }
        f.add_clause([dpll::Lit::neg(0), dpll::Lit::neg(1)]);
        let red = pg_reason::reduction::reduce_cnf(&f);
        let schema = PgSchema::parse(&red.sdl).unwrap();
        let mut cells = Vec::new();
        for sb in [true, false] {
            let options = FiniteSearchOptions {
                symmetry_breaking: sb,
            };
            let t = time_median(1, || {
                for k in 1..=red.bound {
                    if find_model_with_options(&schema, &red.object_type, k, &options).is_some() {
                        panic!("UNSAT formula produced a model");
                    }
                }
            });
            cells.push(fmt_duration(t));
        }
        let _ = writeln!(
            out,
            "| {n} | {} | {} | {} |",
            f.num_clauses(),
            cells[0],
            cells[1]
        );
    }
    out
}

/// E12 — solver ablation: plain DPLL vs CDCL on random 3-SAT around the
/// phase transition.
pub fn solver_ablation(num_vars: &[usize], instances: u64) -> String {
    let mut out = String::from(
        "| vars (ratio 4.3) | agree | median DPLL | median CDCL |\n|---|---|---|---|\n",
    );
    for &n in num_vars {
        let mut dpll_times = Vec::new();
        let mut cdcl_times = Vec::new();
        let mut agree = true;
        for seed in 0..instances {
            let f = dpll::random_ksat(&KsatParams::three_sat(n, 4.3, seed));
            let t0 = std::time::Instant::now();
            let a = dpll::solve(&f).is_some();
            dpll_times.push(t0.elapsed());
            let t1 = std::time::Instant::now();
            let b = matches!(
                dpll::solve_cdcl(&f, &mut dpll::Budget::new(u64::MAX)),
                Ok(Some(_))
            );
            cdcl_times.push(t1.elapsed());
            agree &= a == b;
        }
        dpll_times.sort();
        cdcl_times.sort();
        let _ = writeln!(
            out,
            "| {n} | {} | {} | {} |",
            if agree { "yes" } else { "NO" },
            fmt_duration(dpll_times[dpll_times.len() / 2]),
            fmt_duration(cdcl_times[cdcl_times.len() / 2]),
        );
    }
    out
}

/// Validation throughput in elements/second for one large instance —
/// headline number for the README.
pub fn throughput(nodes_per_type: usize) -> (usize, usize, Duration) {
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
    let t = time_median(3, || {
        validate(&graph, &schema, &ValidationOptions::default())
    });
    (graph.node_count(), graph.edge_count(), t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_table_matches_paper() {
        let t = cardinality_table();
        assert!(
            t.contains("| 1:1 | `rel: B @uniqueForTarget` | rejected (WS4) | rejected (DS3) |"),
            "{t}"
        );
        assert!(
            t.contains("| N:M | `rel: [B]` | allowed | allowed |"),
            "{t}"
        );
    }

    #[test]
    fn validation_scaling_smoke() {
        let t = validation_scaling(&[20, 40], 40, 1);
        assert!(t.contains("fitted growth exponent"), "{t}");
    }

    #[test]
    fn incremental_scaling_smoke() {
        let t = incremental_scaling(&[20], 1);
        assert!(t.contains("of "), "{t}");
        assert_eq!(t.lines().count(), 3, "{t}");
    }

    #[test]
    fn columnar_core_smoke() {
        let t = columnar_core(&[30], 1);
        assert!(t.contains("CSR scan"), "{t}");
        assert!(t.contains("| open (PGS2 mmap) | materialize |"), "{t}");
        // Header, separator and one recovery row for the single size.
        let recovery = t.split("recovery (one session").nth(1).unwrap();
        assert_eq!(recovery.matches("\n|").count(), 3, "{t}");
    }

    #[test]
    fn migration_planning_smoke() {
        let t = migration_planning(4, 20, 1);
        assert!(t.contains("tighten `T0.name @required`"), "{t}");
        assert_eq!(t.lines().count(), 4, "{t}");
    }

    #[test]
    fn schema_scaling_smoke() {
        let t = schema_scaling(&[3, 6], 60, 1);
        assert_eq!(t.lines().count(), 4, "{t}");
    }

    #[test]
    fn phase_transition_smoke() {
        let t = phase_transition(10, 4);
        assert!(t.contains("| 4.3 |"), "{t}");
    }

    #[test]
    fn reduction_scaling_smoke() {
        let t = reduction_scaling(&[3], 1.5, 2);
        assert!(t.contains("| yes |") || t.contains("| 3 |"), "{t}");
        assert!(!t.contains("| NO |"), "oracle disagreement:\n{t}");
    }

    #[test]
    fn reasoner_scaling_smoke() {
        let t = reasoner_scaling(&[1, 3], 1);
        assert!(t.contains("Satisfiable"), "{t}");
    }

    #[test]
    fn satisfiability_verdicts_match_section_6_2() {
        let t = satisfiability_verdicts();
        assert!(t.contains("| OT1 | UNSATISFIABLE |"), "{t}");
        assert!(t.contains("infinite model exists"), "{t}");
        assert!(t.contains("| Book | satisfiable"), "{t}");
    }

    #[test]
    fn consistency_scaling_smoke() {
        let t = consistency_scaling(&[3], 1);
        assert_eq!(t.lines().count(), 3, "{t}");
    }

    #[test]
    fn symmetry_ablation_smoke() {
        let t = symmetry_ablation(&[2]);
        assert!(t.contains("| 2 |"), "{t}");
    }

    #[test]
    fn solver_ablation_smoke() {
        let t = solver_ablation(&[10], 3);
        assert!(t.contains("| yes |"), "{t}");
    }

    #[test]
    fn detection_matrix_has_no_misses() {
        let t = detection_matrix();
        assert!(!t.contains("MISSED"), "{t}");
        assert!(t.contains("| yes |"), "{t}");
    }
}
