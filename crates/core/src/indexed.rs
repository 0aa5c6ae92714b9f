//! The indexed validation engine — a thin planner over the rule kernels.
//!
//! One `O(|V| + |E|)` pass freezes the graph into a
//! [`ColumnarGraph`](pgraph::ColumnarGraph) (interned symbols,
//! struct-of-arrays element tables, CSR adjacency in both directions plus
//! a label-index CSR) on top of the schema's own symbol space — the
//! schema was compiled onto it once
//! ([`SymSchema`](crate::rules::symschema::SymSchema), memoised in the
//! [`PgSchema`]), so a call pays for its graph only; the
//! [`rules`](crate::rules) layer then evaluates every enabled kernel over
//! a whole-graph [`Scope`](crate::rules::Scope):
//!
//! * WS1/SS1/SS2 are single contiguous scans over the node columns,
//! * WS2/WS3/DS2/SS3/SS4 are single contiguous scans over the edge
//!   columns,
//! * WS4/DS1/DS3 walk label/target runs of the CSR rows,
//! * DS4–DS6 scan label buckets of the label-index CSR,
//! * DS7 builds one hash map from value-class-id key tuples to nodes per
//!   `@key` ([`Ds7Plan::Inline`]).
//!
//! The result is near-linear in `|V| + |E|` for a fixed schema — the
//! practical counterpart of the paper's AC0/`O(n²)` analysis — and is
//! property-tested to agree violation-for-violation with the naive
//! engine.

use std::time::Instant;

use pgraph::PropertyGraph;

use crate::metrics::MetricsRecorder;
use crate::pgschema::PgSchema;
use crate::report::ValidationReport;
use crate::rules::{self, Ds7Plan, Scope, Sink};
use crate::ValidationOptions;

pub(crate) fn run(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
) -> ValidationReport {
    run_named(g, s, options, "indexed")
}

/// The full indexed pass under a caller-chosen engine name — the
/// incremental engine's seeding run and the stateless
/// `Engine::Incremental` path report themselves as `"incremental"` while
/// running exactly this code.
pub(crate) fn run_named(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    engine_name: &'static str,
) -> ValidationReport {
    let mut r = ValidationReport::with_limit(options.max_violations);
    let mut rec = MetricsRecorder::new(options.collect_metrics, engine_name, 1);

    // The schema is compiled once, onto its own symbols; the graph is
    // frozen into a copy of them, its own strings landing after.
    let start = Instant::now();
    let compiled = s.compiled();
    let cols = compiled.freeze(g);
    rec.index_build(start.elapsed().as_nanos() as u64);

    let scope = Scope::full(g, s, &compiled.sym, &cols);
    let mut sink = Sink::new(&mut r, options.collect_metrics);
    rules::run(&scope, options, &mut sink, Ds7Plan::Inline);
    rec.absorb(sink.finish());

    rec.finish(&mut r);
    r
}
