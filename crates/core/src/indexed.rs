//! The indexed validation engine — a thin planner over the rule kernels.
//!
//! The graph arrives as a [`ColumnarGraph`] (interned symbols,
//! struct-of-arrays element tables, CSR adjacency in both directions plus
//! a label-index CSR) on top of the schema's own symbol space — frozen
//! from rows in one `O(|V| + |E|)` pass ([`run_rows`]) or decoded
//! straight into columns by the caller. The schema was compiled onto that
//! space once ([`SymSchema`](crate::rules::symschema::SymSchema),
//! memoised in the [`PgSchema`]), so a call pays for its graph only; the
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

use pgraph::{ColumnarGraph, PropertyGraph};

use crate::metrics::MetricsRecorder;
use crate::pgschema::PgSchema;
use crate::report::ValidationReport;
use crate::rules::{self, Ds7Plan, Scope, Sink};
use crate::ValidationOptions;

/// The full indexed pass over columns already on the schema's symbol
/// space, reported under `engine_name` — the incremental engine's seeding
/// run and the stateless `Engine::Incremental` path report themselves as
/// `"incremental"` while running exactly this code. `index_build_nanos`
/// is what building the columns cost the caller.
pub(crate) fn run(
    cols: &ColumnarGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    engine_name: &'static str,
    index_build_nanos: u64,
) -> ValidationReport {
    let mut r = ValidationReport::with_limit(options.max_violations);
    let mut rec = MetricsRecorder::new(options.collect_metrics, engine_name, 1);
    rec.index_build(index_build_nanos);

    let scope = Scope::full(s, &s.compiled().sym, cols);
    let mut sink = Sink::new(&mut r, options.collect_metrics);
    rules::run(&scope, options, &mut sink, Ds7Plan::Inline);
    rec.absorb(sink.finish());

    rec.finish(&mut r);
    r
}

/// [`run`] over rows: the graph is frozen into a copy of the schema's
/// symbols first, the freeze timed as the index build.
pub(crate) fn run_rows(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    engine_name: &'static str,
) -> ValidationReport {
    let start = Instant::now();
    let cols = s.compiled().freeze(g);
    run(
        &cols,
        s,
        options,
        engine_name,
        start.elapsed().as_nanos() as u64,
    )
}
