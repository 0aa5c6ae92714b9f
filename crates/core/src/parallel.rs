//! The parallel validation engine — a sharding planner over the rule
//! kernels.
//!
//! Takes the graph as a [`ColumnarGraph`] on the schema's memoised
//! symbol space (frozen once, serially, by [`crate::validate`], or
//! decoded straight into columns by the caller of
//! [`crate::validate_columns`]), then partitions the node and edge slot
//! spaces into one contiguous shard per worker ([`even_ranges`]) and
//! runs the
//! shared rule kernels ([`crate::rules`]) shard-locally on scoped
//! threads ([`std::thread::scope`] — no dependencies beyond std). Each
//! worker evaluates every kernel over a shard [`Scope`] — a contiguous
//! slice of the shared columnar tables — which assigns work so every
//! violation is produced by exactly one worker:
//!
//! * element-local rules (WS1–WS3, DS2, DS5, DS6, SS1–SS4) run over the
//!   shard's own live nodes and edges;
//! * group-keyed rules read the shared CSR rows but only process groups
//!   whose key element the shard owns — WS4 and DS1 key on the source
//!   node, DS3 and DS4 on the target node;
//! * the one genuinely cross-shard rule, `@key` (DS7), is split
//!   map-reduce style ([`Ds7Plan::Map`]): each worker builds shard-local
//!   key-tuple tables over graph-global value-class ids, the main thread
//!   merges them (tables from disjoint shards merge by appending node
//!   lists — equal tuples carry equal ids regardless of shard) and emits
//!   the violations in one pass.
//!
//! Workers never synchronise: columnar view and schema are borrowed
//! immutably and each worker writes its own [`ValidationReport`].
//! Reports are merged in shard order and canonicalised by the caller,
//! so the outcome is deterministic for any thread count and agrees
//! violation-for-violation with the serial engines (property-tested
//! three ways in `tests/engine_agreement.rs`). Per-rule metrics merge as
//! the critical path: wall time is the slowest worker's, elements and
//! violations are summed, and the DS7 entry additionally absorbs the
//! reduce.

use std::ops::Range;
use std::thread;
use std::time::Instant;

use pgraph::ColumnarGraph;

use crate::metrics::MetricsRecorder;
use crate::pgschema::PgSchema;
use crate::report::{Rule, RuleMetrics, ValidationReport};
use crate::rules::directives::{self, KeyGroups};
use crate::rules::symschema::SymSchema;
use crate::rules::{self, Ds7Plan, Scope, Sink};
use crate::ValidationOptions;

/// Upper bound on workers — far above any plausible CPU count, it only
/// guards against absurd `--threads` requests spawning thousands of OS
/// threads.
const MAX_THREADS: usize = 256;

fn effective_threads(requested: usize) -> usize {
    let t = if requested == 0 {
        thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    } else {
        requested
    };
    t.clamp(1, MAX_THREADS)
}

/// What one worker sends back: its shard-local report, per-rule metrics,
/// the shard-local DS7 key tables (one per `@key`, in schema order,
/// tuples as value-class ids), and its scan counters.
struct WorkerOutput {
    report: ValidationReport,
    rules: Vec<RuleMetrics>,
    key_tables: Vec<KeyGroups>,
    nodes_scanned: u64,
    edges_scanned: u64,
    elements: u64,
}

/// Validates columns already on the schema's symbol space, shared
/// read-only by all workers; `index_build_nanos` is what building them
/// cost the caller.
pub(crate) fn run(
    cols: &ColumnarGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    index_build_nanos: u64,
) -> ValidationReport {
    let threads = effective_threads(options.threads);
    let mut rec = MetricsRecorder::new(options.collect_metrics, "parallel", threads);
    rec.index_build(index_build_nanos);
    let ss = &s.compiled().sym;

    // Contiguous slot ranges (rather than `id % k` striping) keep each
    // worker's accesses sequential over the columns.
    let node_ranges = even_ranges(cols.node_slots(), threads);
    let edge_ranges = even_ranges(cols.edge_slots(), threads);
    let outputs: Vec<WorkerOutput> = thread::scope(|scope| {
        let handles: Vec<_> = node_ranges
            .into_iter()
            .zip(edge_ranges)
            .map(|(nodes, edges)| scope.spawn(move || worker(s, cols, ss, options, nodes, edges)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("validation worker panicked"))
            .collect()
    });

    merge(ss, options, outputs, rec)
}

/// Splits `0..bound` into `k` near-equal contiguous ranges (the first
/// `bound % k` ranges are one longer). Always returns exactly `k` ranges;
/// trailing ones are empty when `bound < k`.
fn even_ranges(bound: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "shard count must be positive");
    let (base, extra) = (bound / k, bound % k);
    let mut start = 0;
    (0..k)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Validates one shard: the node and edge slots in `nodes` and `edges`
/// (tombstones included — with them present the live populations of
/// equal-width ranges differ, which `shard_elements` reports).
fn worker(
    s: &PgSchema,
    cols: &ColumnarGraph,
    ss: &SymSchema,
    options: &ValidationOptions,
    nodes: Range<usize>,
    edges: Range<usize>,
) -> WorkerOutput {
    let mut r = ValidationReport::with_limit(options.max_violations);
    let mut key_tables = Vec::new();
    let elements = if options.collect_metrics {
        let live_nodes = nodes.clone().filter(|&ix| cols.node_is_live(ix)).count();
        let live_edges = edges.clone().filter(|&ix| cols.edge_is_live(ix)).count();
        (live_nodes + live_edges) as u64
    } else {
        0
    };

    let scope = Scope::new(s, ss, cols, nodes, edges);
    let mut sink = Sink::new(&mut r, options.collect_metrics);
    rules::run(&scope, options, &mut sink, Ds7Plan::Map(&mut key_tables));
    let out = sink.finish();

    let (rules, nodes_scanned, edges_scanned) = match out {
        Some(o) => (o.rules, o.nodes_scanned, o.edges_scanned),
        None => (Vec::new(), 0, 0),
    };
    WorkerOutput {
        report: r,
        rules,
        key_tables,
        nodes_scanned,
        edges_scanned,
        elements,
    }
}

/// Merges the worker outputs in shard order: violations first, then the
/// DS7 reduce, then the metrics (per-rule wall time is the slowest
/// worker — the critical path — with the reduce time and violations
/// added to the DS7 entry).
fn merge(
    ss: &SymSchema,
    options: &ValidationOptions,
    mut outputs: Vec<WorkerOutput>,
    mut rec: MetricsRecorder,
) -> ValidationReport {
    let mut merged = ValidationReport::with_limit(options.max_violations);
    let mut worker_truncated = false;
    let mut elements = Vec::with_capacity(outputs.len());
    let mut nodes_scanned = 0u64;
    let mut edges_scanned = 0u64;
    for out in &mut outputs {
        worker_truncated |= out.report.truncated();
        for v in out.report.take_violations() {
            merged.push(v);
        }
        nodes_scanned += out.nodes_scanned;
        edges_scanned += out.edges_scanned;
        elements.push(out.elements);
    }

    // DS7 reduce: merge the shard-local key tables (value-class-id
    // tuples are graph-global, so equal tuples collide), then emit as
    // the serial engine would.
    let start = Instant::now();
    let mut ds7_violations = 0;
    if options.directives {
        let before = merged.len();
        let mut sink = Sink::new(&mut merged, false);
        for (ki, key) in ss.keys.iter().enumerate() {
            let mut table = KeyGroups::new();
            for out in &mut outputs {
                if let Some(local) = out.key_tables.get_mut(ki) {
                    for (tuple, mut nodes) in local.drain() {
                        table.entry(tuple).or_default().append(&mut nodes);
                    }
                }
            }
            directives::ds7_emit(&key.ty_name, &key.fields, table, &mut sink);
        }
        ds7_violations = merged.len() - before;
    }
    let reduce_nanos = start.elapsed().as_nanos() as u64;

    if worker_truncated {
        merged.set_truncated(true);
    }

    if options.collect_metrics {
        let mut rules_merged: Vec<RuleMetrics> = Vec::new();
        for rule in Rule::ALL {
            let per_worker: Vec<&RuleMetrics> = outputs
                .iter()
                .flat_map(|o| o.rules.iter())
                .filter(|m| m.rule == rule)
                .collect();
            if per_worker.is_empty() {
                continue;
            }
            rules_merged.push(RuleMetrics {
                rule,
                nanos: per_worker.iter().map(|m| m.nanos).max().unwrap_or(0),
                elements_scanned: per_worker.iter().map(|m| m.elements_scanned).sum(),
                violations: per_worker.iter().map(|m| m.violations).sum(),
            });
        }
        if options.directives {
            match rules_merged.iter_mut().find(|m| m.rule == Rule::DS7) {
                Some(m) => {
                    m.nanos += reduce_nanos;
                    m.violations += ds7_violations;
                }
                // All workers early-exited before DS7: attribute the
                // reduce alone, keeping rule order.
                None => {
                    let at = rules_merged
                        .iter()
                        .position(|m| m.rule > Rule::DS7)
                        .unwrap_or(rules_merged.len());
                    rules_merged.insert(
                        at,
                        RuleMetrics {
                            rule: Rule::DS7,
                            nanos: reduce_nanos,
                            elements_scanned: 0,
                            violations: ds7_violations,
                        },
                    );
                }
            }
        }
        rec.rules_record(rules_merged);
    }
    rec.scanned(nodes_scanned, edges_scanned);
    rec.shard_elements(elements);
    rec.finish(&mut merged);
    merged
}

#[cfg(test)]
mod tests {
    use pgraph::{GraphBuilder, PropertyGraph, Value};

    use crate::report::Rule;
    use crate::{validate, Engine, PgSchema, ValidationOptions};

    fn schema() -> PgSchema {
        let doc = gql_sdl::parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User] @noLoops
                bestFriend: User
            }
            "#,
        )
        .unwrap();
        PgSchema::from_document(&doc).unwrap()
    }

    /// A graph whose defects span the whole id space, so any shard split
    /// cuts through violation groups.
    fn defective_graph(n: usize) -> PropertyGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            let id = format!("u{i}");
            b = b.node(&id, "User");
            // Duplicate logins (DS7 pairs across distant ids), a missing
            // one every 7th node (DS5), a mistyped one every 11th (WS1).
            if i % 7 != 0 {
                if i % 11 == 0 {
                    b = b.prop(&id, "login", Value::Int(9));
                } else {
                    b = b.prop(&id, "login", format!("login-{}", i % 5));
                }
            }
        }
        for i in 0..n {
            // Self-loops every 13th node (DS2), stray labels (SS4).
            if i % 13 == 0 {
                b = b.edge(format!("u{i}"), format!("u{i}"), "follows");
            }
            if i % 17 == 0 {
                b = b.edge(format!("u{i}"), format!("u{}", (i + 1) % n), "mystery");
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn even_ranges_cover_and_balance() {
        for (bound, k) in [(10, 3), (0, 4), (7, 7), (3, 8), (100, 1)] {
            let ranges = super::even_ranges(bound, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), bound);
            // Contiguous and ordered.
            let mut pos = 0;
            for r in &ranges {
                assert_eq!(r.start, pos);
                pos = r.end;
            }
            // Balanced within one element.
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(hi - lo <= 1, "{lens:?}");
        }
    }

    /// Shards are cut over slots, tombstones included; what a worker
    /// counts (and validates) is the live part of its slice.
    #[test]
    fn shards_skip_tombstones() {
        let s = schema();
        let mut g = defective_graph(10);
        let victim = g.node_ids().nth(4).unwrap();
        g.remove_node(victim).unwrap();
        let cols = pgraph::ColumnarGraph::freeze(&g);
        assert_eq!(cols.node_slots(), 10, "the tombstone keeps its slot");
        assert!(!cols.node_is_live(victim.index()));
        let opts = ValidationOptions::builder()
            .engine(Engine::Parallel)
            .threads(3)
            .collect_metrics(true)
            .build();
        let report = validate(&g, &s, &opts);
        let shard_elements = &report.metrics().unwrap().shard_elements;
        assert_eq!(
            shard_elements.iter().sum::<u64>(),
            (g.node_count() + g.edge_count()) as u64
        );
        // Ten node slots over three shards; the one owning the victim's
        // slot is a live node short of its width.
        for nodes in super::even_ranges(cols.node_slots(), 3) {
            let live = nodes.clone().filter(|&ix| cols.node_is_live(ix)).count();
            let dead = usize::from(nodes.contains(&victim.index()));
            assert_eq!(live, nodes.len() - dead, "{nodes:?}");
        }
        assert_eq!(report, validate(&g, &s, &ValidationOptions::default()));
    }

    #[test]
    fn parallel_matches_indexed_across_thread_counts() {
        let s = schema();
        let g = defective_graph(120);
        let expected = validate(&g, &s, &ValidationOptions::default());
        assert!(!expected.conforms());
        for threads in [1, 2, 3, 8, 64] {
            let opts = ValidationOptions::builder()
                .engine(Engine::Parallel)
                .threads(threads)
                .build();
            let got = validate(&g, &s, &opts);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_collects_metrics() {
        let s = schema();
        let g = defective_graph(60);
        let opts = ValidationOptions::builder()
            .engine(Engine::Parallel)
            .threads(4)
            .collect_metrics(true)
            .build();
        let report = validate(&g, &s, &opts);
        let m = report.metrics().expect("metrics requested");
        assert_eq!(m.engine, "parallel");
        assert_eq!(m.threads, 4);
        assert_eq!(m.shard_elements.len(), 4);
        assert_eq!(
            m.shard_elements.iter().sum::<u64>(),
            (g.node_count() + g.edge_count()) as u64
        );
        assert!(m.nodes_scanned >= g.node_count() as u64);
        assert_eq!(m.families.len(), 3);
        assert!(m.shard_skew().unwrap() >= 1.0);
        // One merged entry per rule, in rule order, with violations
        // attributed to the right rule across shards.
        assert_eq!(m.rules.len(), Rule::ALL.len());
        assert!(m.rules.windows(2).all(|w| w[0].rule < w[1].rule));
        let by_rule = |rule| m.rules.iter().find(|r| r.rule == rule).unwrap();
        assert_eq!(
            by_rule(Rule::DS7).violations,
            report.by_rule(Rule::DS7).count()
        );
        assert_eq!(
            by_rule(Rule::DS5).violations,
            report.by_rule(Rule::DS5).count()
        );
    }

    #[test]
    fn parallel_honors_max_violations() {
        let s = schema();
        let g = defective_graph(120);
        let opts = ValidationOptions::builder()
            .engine(Engine::Parallel)
            .threads(4)
            .max_violations(5)
            .build();
        let report = validate(&g, &s, &opts);
        assert!(report.truncated());
        assert!(report.len() <= 5);
        assert!(!report.conforms());
    }

    #[test]
    fn zero_threads_means_auto() {
        let s = schema();
        let g = defective_graph(30);
        let opts = ValidationOptions::builder()
            .engine(Engine::Parallel)
            .build();
        assert_eq!(
            validate(&g, &s, &opts),
            validate(&g, &s, &ValidationOptions::default())
        );
    }

    #[test]
    fn empty_graph_with_more_threads_than_elements() {
        let s = schema();
        let g = PropertyGraph::new();
        let opts = ValidationOptions::builder()
            .engine(Engine::Parallel)
            .threads(16)
            .collect_metrics(true)
            .build();
        let report = validate(&g, &s, &opts);
        assert!(report.conforms());
        assert_eq!(report.metrics().unwrap().shard_elements.len(), 16);
    }
}
