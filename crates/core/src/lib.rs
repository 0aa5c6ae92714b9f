//! # pg-schema — GraphQL SDL schemas for Property Graphs
//!
//! The primary contribution of Hartig & Hidders: interpreting a GraphQL
//! schema as a schema *for Property Graphs* and deciding whether a graph
//! satisfies it.
//!
//! The semantics (paper §5) is split into three nested notions, all
//! implemented here rule-by-rule:
//!
//! * **weak satisfaction** — rules [`Rule::WS1`]–[`Rule::WS4`]: typed
//!   node/edge properties, typed edge targets, at-most-one edge for
//!   non-list relationship fields;
//! * **directives satisfaction** — rules [`Rule::DS1`]–[`Rule::DS7`]:
//!   `@distinct`, `@noLoops`, `@uniqueForTarget`, `@requiredForTarget`,
//!   `@required` (for properties and for edges), and `@key`;
//! * **strong satisfaction** — rules [`Rule::SS1`]–[`Rule::SS4`]: every
//!   node, property and edge must be *justified* by a schema element.
//!
//! Four interchangeable engines decide the same relation:
//!
//! * [`Engine::Naive`] transcribes the paper's first-order formulas
//!   directly (nested loops; the `O(n²)`–`O(n³)` algorithm discussed after
//!   Theorem 1),
//! * [`Engine::Indexed`] is the serial production engine: one
//!   `O(|V| + |E|)` indexing pass plus hash-group checks, near-linear in
//!   practice,
//! * [`Engine::Parallel`] shards the node/edge id spaces over worker
//!   threads running the indexed engine's rule checks, merging shard
//!   reports deterministically, and
//! * [`Engine::Incremental`] is the stateless face of the
//!   [`IncrementalEngine`], which keeps a report up to date across
//!   [`pgraph::GraphDelta`] mutations by re-checking only the dirty
//!   region (see the [`incremental`] module for the rule dependency
//!   analysis).
//!
//! [`validate`] takes the mutable rows ([`pgraph::PropertyGraph`]);
//! [`validate_columns`] takes a graph already in columns — decoded
//! straight into [`PgSchema::columns_builder`], as the validation server
//! does — and skips the freeze.
//!
//! Four-way engine agreement is property-tested — including agreement of
//! the incremental engine with full revalidation after arbitrary mutation
//! sequences; benchmarks E2 and E2i in EXPERIMENTS.md measure the
//! separations.
//!
//! ```
//! use pg_schema::{PgSchema, validate, ValidationOptions};
//! use pgraph::GraphBuilder;
//!
//! let doc = gql_sdl::parse(r#"
//!     type User { id: ID! @required login: String! @required }
//! "#).unwrap();
//! let schema = PgSchema::from_document(&doc).unwrap();
//! let graph = GraphBuilder::new()
//!     .node("u", "User")
//!     .prop("u", "id", "u-1")
//!     .prop("u", "login", "alice")
//!     .build()
//!     .unwrap();
//! let report = validate(&graph, &schema, &ValidationOptions::default());
//! assert!(report.conforms());
//! ```
//!
//! Non-default runs are configured through the builder:
//!
//! ```
//! use pg_schema::{Engine, ValidationOptions};
//!
//! let options = ValidationOptions::builder()
//!     .engine(Engine::Parallel)
//!     .threads(4)
//!     .max_violations(100)
//!     .collect_metrics(true)
//!     .build();
//! assert_eq!(options.engine, Engine::Parallel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api_extension;
pub mod diff;
pub mod incremental;
mod indexed;
mod metrics;
pub mod migrate;
mod naive;
mod parallel;
mod pgschema;
pub mod report;
mod rules;

use std::time::Instant;

use pgraph::ColumnarGraph;

pub use api_extension::ApiExtensionError;
pub use incremental::{DeltaOutcome, IncrementalEngine};
pub use migrate::{ChangeImpact, MigrationPlan};
pub use pgschema::{
    AttributeDef, ConstraintSite, FieldClass, KeyConstraint, PgSchema, PgSchemaError,
    RelationshipDef,
};
pub use report::{
    FamilyMetrics, Rule, RuleFamily, RuleMetrics, ValidationMetrics, ValidationReport, Violation,
};

/// Which implementation decides satisfaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Direct transcription of the paper's first-order rules
    /// (quadratic/cubic nested loops). Reference implementation.
    Naive,
    /// Index-assisted serial engine (near-linear). Default.
    #[default]
    Indexed,
    /// Sharded multi-threaded engine: the id space is partitioned into
    /// per-worker slices running the indexed checks; cross-shard rules
    /// (`@key`) aggregate shard-local tables in one merge pass. Worker
    /// count comes from [`ValidationOptions::threads`].
    Parallel,
    /// Delta-driven engine. A bare [`validate`] call has no prior report
    /// to patch, so this degenerates to one full indexed-library pass;
    /// the speedup comes from holding an [`IncrementalEngine`] session
    /// and feeding it [`pgraph::GraphDelta`]s.
    Incremental,
}

impl Engine {
    /// The engine's wire name, as reported by
    /// [`ValidationReport::engine`] and the CLI's `--engine` flag.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Indexed => "indexed",
            Engine::Parallel => "parallel",
            Engine::Incremental => "incremental",
        }
    }

    /// The accepted spellings of [`FromStr`](std::str::FromStr), in
    /// declaration order.
    pub const NAMES: &'static [&'static str] = &["naive", "indexed", "parallel", "incremental"];
}

/// Parses a wire name back into an engine — the inverse of
/// [`Engine::name`], shared by the CLI's `--engine` flag and the
/// validation server's `?engine=` query parameter. The error lists the
/// accepted spellings.
impl std::str::FromStr for Engine {
    type Err = pgraph::ParseEnumError;

    fn from_str(name: &str) -> Result<Engine, Self::Err> {
        match name {
            "naive" => Ok(Engine::Naive),
            "indexed" => Ok(Engine::Indexed),
            "parallel" => Ok(Engine::Parallel),
            "incremental" => Ok(Engine::Incremental),
            _ => Err(pgraph::ParseEnumError::new("engine", name, Engine::NAMES)),
        }
    }
}

/// Which rule families to check, with which engine, and under which
/// resource limits.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ValidationOptions::builder`] (or the [`Default`]/
/// [`with_engine`](Self::with_engine)/[`weak_only`](Self::weak_only)
/// shorthands) rather than a struct literal, so adding options stays a
/// compatible change.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOptions {
    /// The engine to use.
    pub engine: Engine,
    /// Check weak satisfaction (WS1–WS4). Default true.
    pub weak: bool,
    /// Check directive satisfaction (DS1–DS7). Default true.
    pub directives: bool,
    /// Check strong satisfaction (SS1–SS4). Default true. An open-world
    /// schema ([`PgSchema::is_open_world`]) skips the family regardless.
    pub strong: bool,
    /// Worker threads for [`Engine::Parallel`]; `0` (default) means one
    /// per available CPU. Serial engines ignore this.
    pub threads: usize,
    /// Stop collecting after this many violations and mark the report
    /// [`truncated`](ValidationReport::truncated). `None` (default)
    /// reports everything.
    pub max_violations: Option<usize>,
    /// Record [`ValidationMetrics`] (per-family wall time, scan counters,
    /// shard sizes) on the report. Default false.
    pub collect_metrics: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            engine: Engine::Indexed,
            weak: true,
            directives: true,
            strong: true,
            threads: 0,
            max_violations: None,
            collect_metrics: false,
        }
    }
}

impl ValidationOptions {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ValidationOptionsBuilder {
        ValidationOptionsBuilder {
            options: ValidationOptions::default(),
        }
    }

    /// All rule families with the given engine.
    pub fn with_engine(engine: Engine) -> Self {
        ValidationOptions {
            engine,
            ..Default::default()
        }
    }

    /// Only weak satisfaction (Definition 5.1).
    pub fn weak_only() -> Self {
        ValidationOptions {
            weak: true,
            directives: false,
            strong: false,
            ..Default::default()
        }
    }
}

/// Builder for [`ValidationOptions`].
///
/// ```
/// use pg_schema::{Engine, ValidationOptions};
///
/// // Weak + directives only, naive engine, stop after 10 violations.
/// let options = ValidationOptions::builder()
///     .engine(Engine::Naive)
///     .families(true, true, false)
///     .max_violations(10)
///     .build();
/// assert!(!options.strong);
/// assert_eq!(options.max_violations, Some(10));
/// ```
#[derive(Debug, Clone)]
pub struct ValidationOptionsBuilder {
    options: ValidationOptions,
}

impl ValidationOptionsBuilder {
    /// Selects the engine (default [`Engine::Indexed`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.options.engine = engine;
        self
    }

    /// Selects the rule families to check: weak (WS1–WS4), directives
    /// (DS1–DS7), strong (SS1–SS4). Default all three.
    pub fn families(mut self, weak: bool, directives: bool, strong: bool) -> Self {
        self.options.weak = weak;
        self.options.directives = directives;
        self.options.strong = strong;
        self
    }

    /// Worker threads for [`Engine::Parallel`] (`0` = one per CPU).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Stops collecting after `max` violations; the report is then marked
    /// [`truncated`](ValidationReport::truncated).
    pub fn max_violations(mut self, max: usize) -> Self {
        self.options.max_violations = Some(max);
        self
    }

    /// Records [`ValidationMetrics`] on the report.
    pub fn collect_metrics(mut self, collect: bool) -> Self {
        self.options.collect_metrics = collect;
        self
    }

    /// Finishes, yielding the configuration.
    pub fn build(self) -> ValidationOptions {
        self.options
    }
}

/// Validates `graph` against `schema` — the Schema Validation Problem of
/// §6.1 ("Does G strongly satisfy S?"), with per-rule violation reporting.
///
/// The naive engine reads the rows; the others freeze them into the
/// schema's symbol space and run [`validate_columns`]' pass.
pub fn validate(
    graph: &pgraph::PropertyGraph,
    schema: &PgSchema,
    options: &ValidationOptions,
) -> ValidationReport {
    if options.engine == Engine::Naive {
        return finish(naive::run(graph, schema, options), options);
    }
    let start = Instant::now();
    let cols = schema.compiled().freeze(graph);
    run_columns(&cols, schema, options, start.elapsed().as_nanos() as u64)
}

/// [`validate`] over a graph already in columns — what a caller that
/// decodes straight into [`PgSchema::columns_builder`] holds, with no
/// rows ever built. Columns on another symbol space (frozen or built
/// without the schema's names first) are never read against this
/// schema's symbols: they are thawed and re-frozen onto them, and the
/// naive engine, which reads rows, gets them thawed.
pub fn validate_columns(
    cols: &ColumnarGraph,
    schema: &PgSchema,
    options: &ValidationOptions,
) -> ValidationReport {
    if options.engine == Engine::Naive || !schema.compiled().holds(cols) {
        return validate(&cols.thaw(), schema, options);
    }
    run_columns(cols, schema, options, 0)
}

/// The columnar engines' dispatch, then [`finish`].
fn run_columns(
    cols: &ColumnarGraph,
    schema: &PgSchema,
    options: &ValidationOptions,
    index_build_nanos: u64,
) -> ValidationReport {
    let report = match options.engine {
        Engine::Parallel => parallel::run(cols, schema, options, index_build_nanos),
        engine => indexed::run(cols, schema, options, engine.name(), index_build_nanos),
    };
    finish(report, options)
}

/// Names the engine, marks truncation and canonicalises: what every
/// engine's report goes through before it reaches the caller.
fn finish(mut report: ValidationReport, options: &ValidationOptions) -> ValidationReport {
    report.set_engine(options.engine.name());
    // Once the limit is reached the engines stop scanning, so whether
    // further violations exist is unknown — that is what `truncated`
    // reports. Checked before canonicalisation, which may dedup the
    // report back below the limit.
    if report.at_limit() {
        report.set_truncated(true);
    }
    report.canonicalize();
    report
}

/// Convenience: true iff `graph` strongly satisfies `schema`
/// (Definition 5.3).
pub fn strongly_satisfies(graph: &pgraph::PropertyGraph, schema: &PgSchema) -> bool {
    validate(graph, schema, &ValidationOptions::default()).conforms()
}
