//! Incremental revalidation — re-check only the dirty region.
//!
//! Theorem 1 bounds *full* validation; a production store revalidates
//! after small mutations, where almost all of the previous
//! [`ValidationReport`] is still correct. [`IncrementalEngine`] keeps the
//! graph (which owns its per-node incidence lists), the last report
//! (each violation beside its encoded JSON, so writing the report is a
//! copy) and per-`@key` tuple tables, enough to re-derive, after a
//! [`GraphDelta`], exactly the violations that could have changed.
//!
//! # Rule dependency analysis
//!
//! Every violation is *anchored* at one element (two for DS7), and each
//! rule's truth at an anchor depends on a bounded neighbourhood:
//!
//! * **element-local rules** — WS1/DS5/SS1/SS2 read one node's label and
//!   properties; WS2/WS3/SS3/SS4 read one edge plus its endpoints'
//!   labels;
//! * **group-keyed rules** — WS4/DS1/DS2/DS6 read a node's out-edge
//!   groups, DS3/DS4 a node's in-edge groups *and the labels of those
//!   edges' sources*;
//! * **key-grouped rule** — DS7 reads the key tuples of all nodes below
//!   the key's site.
//!
//! The engine therefore closes the mutated element set under "endpoint of
//! a touched edge" and "neighbour of a relabelled node": the resulting
//! dirty node set `D` and the set `L` of live edges incident to `D` cover
//! every anchor whose rule inputs the mutation can have changed.
//! Violations anchored in `D ∪ L` (or at removed elements) are dropped,
//! and the shared rule kernels (the crate-private `rules` module) are
//! re-run over `D ∪ L` frozen into a small columnar graph of its own
//! (`rules::region::RegionCols`, assembled by the same
//! `pgraph::ColumnsBuilder` as every full pass). Its scope owns exactly
//! the nodes of `D` and the edges of `L` — the same ownership mechanism
//! the sharded `parallel` engine uses, with "shard" = the dirty set
//! (groups keyed by a node of `D` are complete in the region, because
//! *all* of that node's incident edges are in `L`) — and its sink maps
//! the region's local ids back to the graph's. DS7 is maintained as a
//! persistent tuple table per key (`Ds7Plan::Recheck` — the durable form
//! of the parallel engine's map side), so only affected key groups are
//! re-emitted.
//!
//! Soundness rests on a symmetry invariant: *everything dropped is
//! re-derivable, and everything re-derived was dropped* — node-anchored
//! violations are dropped at exactly the nodes the restricted rules
//! re-check, edge-anchored ones at exactly the edges they re-scan, DS7
//! pairs at exactly the dirty participants. The merged report therefore
//! equals a from-scratch run, an equality enforced per-mutation by the
//! four-way engine-agreement proptest in `tests/engine_agreement.rs`.
//!
//! Costs: a delta touching `k` elements of maximum degree `d` re-checks
//! `O(k·d)` elements plus one pass over the stored violations —
//! independent of `|V| + |E|`. Experiment E2i (EXPERIMENTS.md) measures
//! the resulting speedup over full indexed validation.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use pgraph::{DeltaEffect, EdgeId, GraphDelta, GraphError, NodeId, PropertyGraph, SymbolTable};

use crate::indexed;
use crate::metrics::families_from_rules;
use crate::migrate;
use crate::pgschema::PgSchema;
use crate::report::{
    self, write_violation_json, ReportEntry, ValidationMetrics, ValidationReport, Violation,
};
use crate::rules::region::RegionCols;
use crate::rules::symschema::SymSchema;
use crate::rules::{self, Ds7Plan, KeyTable, Scope, Sink, SinkOutput};
use crate::ValidationOptions;

/// What one [`apply`](IncrementalEngine::apply) call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Dirty elements re-checked (nodes + incident edges).
    pub elements_rechecked: usize,
    /// Live elements in the graph after the delta (`|V| + |E|`).
    pub elements_total: usize,
    /// Net new violations introduced by the delta.
    pub violations_added: usize,
    /// Net violations retracted by the delta.
    pub violations_removed: usize,
}

/// A validation session that keeps its report up to date across
/// [`GraphDelta`]s by re-checking only the dirty region.
///
/// The engine owns the graph (mutations must flow through
/// [`apply`](Self::apply) so the derived state stays in sync) and holds
/// the schema through any `S: Borrow<PgSchema>` — a plain `&PgSchema`
/// for the scoped, single-owner sessions the CLI runs, or an owning
/// handle such as `Arc<PgSchema>` for long-lived server sessions that
/// outlive the scope the schema was parsed in.
/// [`report`](Self::report) is always equal to what a full
/// [`validate`](crate::validate) of the current graph would produce.
///
/// Two options are interpreted specially: `engine` is ignored (this *is*
/// the engine), and `max_violations` is ignored because incremental
/// repair needs the complete violation set as its state — a truncated
/// report cannot be patched soundly.
///
/// ```
/// use pg_schema::{IncrementalEngine, PgSchema, ValidationOptions};
/// use pgraph::{GraphBuilder, GraphDelta, Value};
///
/// let doc = gql_sdl::parse("type User { login: String! @required }").unwrap();
/// let schema = PgSchema::from_document(&doc).unwrap();
/// let graph = GraphBuilder::new()
///     .node("u", "User")
///     .prop("u", "login", "alice")
///     .build()
///     .unwrap();
/// let u = graph.node_ids().next().unwrap();
///
/// let mut engine = IncrementalEngine::new(graph, &schema, &ValidationOptions::default());
/// assert!(engine.report().conforms());
///
/// // Breaking the type of `login` is caught by re-checking one node.
/// let outcome = engine
///     .apply(&GraphDelta::new().set_node_property(u, "login", Value::Int(3)))
///     .unwrap();
/// assert_eq!(outcome.violations_added, 1);
/// assert!(!engine.report().conforms());
///
/// // Repairing it retracts the violation again.
/// engine
///     .apply(&GraphDelta::new().set_node_property(u, "login", Value::from("bob")))
///     .unwrap();
/// assert!(engine.report().conforms());
/// ```
pub struct IncrementalEngine<S: Borrow<PgSchema>> {
    graph: PropertyGraph,
    schema: S,
    options: ValidationOptions,
    /// Canonical (sorted, deduped) violations of the current graph, each
    /// beside its JSON object bytes, so a report is written by copying.
    violations: Vec<Encoded>,
    /// One table per `schema.keys()` entry, in order; empty when
    /// directives are not checked.
    key_tables: Vec<KeyTable>,
    /// Metrics of the last apply (or the seeding run), when requested.
    metrics: Option<ValidationMetrics>,
    /// Shared symbol space for the per-delta regions, with the primary
    /// schema compiled onto it. Cached across deltas (each region takes
    /// it by value and hands it back): the table is append-only, and a
    /// graph symbol interned after the compile falls back to the
    /// `SymSchema` empty row — the unknown-label answer, which is exactly
    /// what a symbol the schema never mentioned deserves (see the
    /// `symschema` module docs).
    symbols: SymbolTable,
    sym_schema: SymSchema,
    /// An open dual-schema migration window, if any — the candidate
    /// schema's own violation set and key tables, patched by every
    /// [`apply`](Self::apply) alongside the primary side.
    window: Option<Box<WindowState>>,
}

/// A standing violation beside its JSON object bytes — exactly what
/// [`write_violation_json`] renders for it, encoded once when the
/// violation is found and copied into every report written after.
struct Encoded {
    violation: Violation,
    json: Box<str>,
}

impl ReportEntry for Encoded {
    fn violation(&self) -> &Violation {
        &self.violation
    }

    fn from_violation(violation: Violation) -> Self {
        let mut json = String::with_capacity(192);
        write_violation_json(&mut json, &violation);
        Encoded {
            violation,
            json: json.into_boxed_str(),
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.json);
    }
}

/// The candidate side of an open migration window: everything the
/// primary side keeps, re-derived under the candidate schema. Its
/// violations stay plain — no served route writes the candidate's
/// report.
struct WindowState {
    schema: PgSchema,
    /// The candidate compiled onto the engine's shared symbol table.
    sym_schema: SymSchema,
    violations: Vec<Violation>,
    key_tables: Vec<KeyTable>,
}

impl<S: Borrow<PgSchema>> IncrementalEngine<S> {
    /// Seeds the session: one full indexed-engine pass over `graph`, plus
    /// the key tables later deltas are checked against. Adjacency is the
    /// graph's own: deltas read its incidence lists.
    pub fn new(graph: PropertyGraph, schema: S, options: &ValidationOptions) -> Self {
        let mut options = *options;
        options.max_violations = None;
        let mut symbols = SymbolTable::new();
        let sym_schema = SymSchema::build(schema.borrow(), &mut symbols);
        let mut engine = IncrementalEngine {
            graph,
            schema,
            options,
            violations: Vec::new(),
            key_tables: Vec::new(),
            metrics: None,
            symbols,
            sym_schema,
            window: None,
        };
        engine.reseed();
        engine
    }

    /// Rebuilds every piece of derived state — report and key tables —
    /// from the current graph with one full indexed pass. Used to seed a
    /// new session and to recover from a partially applied delta (the
    /// graph's incidence lists are exact after every op, failed or not).
    fn reseed(&mut self) {
        let schema = self.schema.borrow();
        let mut report = indexed::run_rows(&self.graph, schema, &self.options, "incremental");
        report.canonicalize();
        let seed_metrics = report.metrics().cloned();
        self.violations = encode_all(report.take_violations());

        self.key_tables = rules::directives::build_key_tables(schema, &self.graph, &self.options);
        self.metrics = None;
        if self.options.collect_metrics {
            let total = (self.graph.node_count() + self.graph.edge_count()) as u64;
            let mut m = seed_metrics.unwrap_or_default();
            m.elements_rechecked = total;
            m.elements_total = total;
            self.metrics = Some(m);
        }
        // An open window is re-seeded the same way, under its schema.
        if let Some(w) = &mut self.window {
            let mut report =
                indexed::run_rows(&self.graph, &w.schema, &self.options, "incremental");
            report.canonicalize();
            w.violations = report.take_violations();
            w.key_tables =
                rules::directives::build_key_tables(&w.schema, &self.graph, &self.options);
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// The schema the session validates against.
    pub fn schema(&self) -> &PgSchema {
        self.schema.borrow()
    }

    /// The options the session validates under.
    pub fn options(&self) -> &ValidationOptions {
        &self.options
    }

    /// The current report — equal to a full revalidation of
    /// [`graph`](Self::graph) under the session's options.
    pub fn report(&self) -> ValidationReport {
        let violations = self.violations.iter().map(|e| e.violation.clone());
        let mut r = ValidationReport::new(violations.collect());
        r.set_engine("incremental");
        if let Some(m) = &self.metrics {
            r.set_metrics(m.clone());
        }
        r
    }

    /// Appends the JSON document of [`report`](Self::report) to `out`,
    /// byte for byte, without building the report: the violations array
    /// is the stored bytes of the standing violations, joined.
    pub fn write_report_json(&self, out: &mut String) {
        // The stored bytes with their separators, plus estimates for the
        // header and `rule_counts` (256 B) and a metrics block (512 B
        // and about 96 B per rule).
        let joined: usize = self.violations.iter().map(|e| e.json.len() + 2).sum();
        let metrics = self
            .metrics
            .as_ref()
            .map_or(0, |m| 512 + 96 * m.rules.len());
        out.reserve(joined + 256 + metrics);
        report::write_report_json(
            out,
            Some("incremental"),
            false,
            &self.violations,
            self.metrics.as_ref(),
        );
    }

    /// Metrics of the last apply (or of the seeding run), when the
    /// session collects them — what [`report`](Self::report) carries.
    pub fn metrics(&self) -> Option<&ValidationMetrics> {
        self.metrics.as_ref()
    }

    /// Applies `delta` to the graph and patches the report by re-checking
    /// only the affected elements.
    ///
    /// On a [`GraphError`] (an op referenced a missing element) the delta
    /// may have been partially applied; the engine then re-seeds itself
    /// from the resulting graph with a full pass, so the session stays
    /// sound — only the incremental speedup is lost for that call.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DeltaOutcome, GraphError> {
        let effect = match delta.apply_to(&mut self.graph) {
            Ok(eff) => eff,
            Err(e) => {
                self.reseed();
                return Err(e);
            }
        };
        Ok(self.absorb(&effect))
    }

    /// Patches report + derived state from a delta's effect. The graph
    /// has already applied the delta, incidence lists included.
    fn absorb(&mut self, effect: &DeltaEffect) -> DeltaOutcome {
        // -- 1. dirty closure -------------------------------------------
        // D = mutated nodes ∪ endpoints of touched edges ∪ neighbours of
        // relabelled nodes (their DS3/DS4 groups filter by the old label).
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();
        dirty.extend(effect.added_nodes.iter().copied());
        dirty.extend(effect.removed_nodes.iter().copied());
        dirty.extend(effect.relabelled_nodes.iter().copied());
        dirty.extend(effect.node_prop_changes.iter().copied());
        for t in effect
            .added_edges
            .iter()
            .chain(&effect.removed_edges)
            .chain(&effect.edge_prop_changes)
        {
            dirty.insert(t.source);
            dirty.insert(t.target);
        }
        let g = &self.graph;
        for &v in &effect.relabelled_nodes {
            for e in g.out_edges(v).chain(g.in_edges(v)) {
                dirty.insert(e.source());
                dirty.insert(e.target());
            }
        }

        // L = live edges incident to D (complete per dirty endpoint).
        let mut local_edges: BTreeSet<EdgeId> = BTreeSet::new();
        for &v in &dirty {
            local_edges.extend(g.out_edges(v).chain(g.in_edges(v)).map(|e| e.id));
        }
        let removed_edge_ids: BTreeSet<EdgeId> =
            effect.removed_edges.iter().map(|t| t.edge).collect();

        // -- 2..4. drop, re-derive, merge — once per live schema --------
        // The frozen region is schema-independent, so an open migration
        // window reuses it: the candidate side is patched through the
        // same kernels against its own violation set and key tables.
        // Schema compilation happened once at construction; every
        // schema-known name is already in the table, and a graph symbol
        // first seen here resolves to the SymSchema empty row — the
        // unknown-label answer.
        let symbols = std::mem::take(&mut self.symbols);
        let region = RegionCols::build(&self.graph, &dirty, &local_edges, symbols);
        let (added, removed, sink_out) = repatch(
            &self.graph,
            self.schema.borrow(),
            &self.options,
            &self.sym_schema,
            &region,
            &dirty,
            &local_edges,
            &removed_edge_ids,
            &mut self.violations,
            &mut self.key_tables,
            self.options.collect_metrics,
        );
        if let Some(w) = &mut self.window {
            let WindowState {
                schema,
                sym_schema,
                violations,
                key_tables,
            } = &mut **w;
            repatch(
                &self.graph,
                schema,
                &self.options,
                sym_schema,
                &region,
                &dirty,
                &local_edges,
                &removed_edge_ids,
                violations,
                key_tables,
                false,
            );
        }
        self.symbols = region.into_symbols();

        let rechecked = (dirty.len() + local_edges.len()) as u64;
        let total = (self.graph.node_count() + self.graph.edge_count()) as u64;
        if self.options.collect_metrics {
            let mut m = ValidationMetrics {
                engine: "incremental",
                threads: 1,
                elements_rechecked: rechecked,
                elements_total: total,
                ..ValidationMetrics::default()
            };
            if let Some(out) = sink_out {
                m.families = families_from_rules(&out.rules);
                m.rules = out.rules;
                m.nodes_scanned = out.nodes_scanned;
                m.edges_scanned = out.edges_scanned;
            }
            self.metrics = Some(m);
        }
        DeltaOutcome {
            elements_rechecked: rechecked as usize,
            elements_total: total as usize,
            violations_added: added,
            violations_removed: removed,
        }
    }

    /// Opens a dual-schema migration window: from now on every
    /// [`apply`](Self::apply) keeps a second violation set up to date
    /// under `candidate`, alongside the primary schema's. Returns the
    /// [`MigrationPlan`](migrate::MigrationPlan) — the exact violation
    /// preview of migrating the *current* graph.
    ///
    /// The candidate side is seeded from the dirty region the schema
    /// diff maps to, not a full pass: outside that region the two
    /// schemas decide every rule identically, so the primary violations
    /// carry over (see the [`migrate`] module docs). A previously open
    /// window is replaced.
    pub fn begin_migration(&mut self, candidate: PgSchema) -> migrate::MigrationPlan {
        let schema = self.schema.borrow();
        let sdiff = crate::diff::diff(schema, &candidate);
        let all_labels = migrate::graph_labels(&self.graph);
        let (changes, affected) = migrate::impacts(schema, &candidate, &sdiff, &all_labels);
        let region = migrate::region_of(&self.graph, &affected, true);
        // Partition the live violations by region anchoring — the kept
        // part seeds the window, the in-region part is the preview's old
        // side (no old-schema region run needed).
        let mut kept = Vec::new();
        let mut in_region = Vec::new();
        for v in self.violations.iter().map(|e| &e.violation) {
            let (node_anchor, edge_anchor, pair) = anchors(v);
            let hit = node_anchor.is_some_and(|n| region.nodes.contains(&n))
                || edge_anchor.is_some_and(|e| region.edges.contains(&e))
                || pair
                    .is_some_and(|(a, b)| region.nodes.contains(&a) || region.nodes.contains(&b));
            if hit {
                in_region.push(v.clone());
            } else {
                kept.push(v.clone());
            }
        }
        let fresh = migrate::region_run(&self.graph, &candidate, &self.options, &region);
        let (added, removed) = migrate::diff_violations(&in_region, &fresh);
        let mut violations = kept;
        violations.extend(fresh);
        violations.sort();
        violations.dedup();
        let key_tables =
            rules::directives::build_key_tables(&candidate, &self.graph, &self.options);
        let plan = migrate::MigrationPlan {
            changes,
            dirty_nodes: region.nodes.len(),
            dirty_edges: region.edges.len(),
            elements_total: self.graph.node_count() + self.graph.edge_count(),
            added,
            removed,
        };
        // Compile the candidate onto the shared symbol table once; names
        // only it introduces extend the table, and the primary SymSchema
        // answers them with its unknown-label row.
        let sym_schema = SymSchema::build(&candidate, &mut self.symbols);
        self.window = Some(Box::new(WindowState {
            schema: candidate,
            sym_schema,
            violations,
            key_tables,
        }));
        plan
    }

    /// True while a migration window is open.
    pub fn migration_active(&self) -> bool {
        self.window.is_some()
    }

    /// The candidate side's report — equal to a full validation of the
    /// current graph under the candidate schema.
    pub fn migration_report(&self) -> Option<ValidationReport> {
        self.window.as_ref().map(|w| {
            let mut r = ValidationReport::new(w.violations.clone());
            r.set_engine("incremental");
            r
        })
    }

    /// Violations present under the candidate schema but not the
    /// current one — what committing *now* would newly break. Empty
    /// means the window can close clean.
    pub fn migration_regressions(&self) -> Option<Vec<Violation>> {
        self.window
            .as_ref()
            .map(|w| migrate::diff_violations(&self.violations, &w.violations).0)
    }

    /// Closes the window without switching schemas. Returns false when
    /// no window was open.
    pub fn abort_migration(&mut self) -> bool {
        self.window.take().is_some()
    }

    /// Consumes the engine, handing back its graph (used when a session
    /// is demoted to a dormant state).
    pub fn into_graph(self) -> PropertyGraph {
        self.graph
    }
}

impl<S: Borrow<PgSchema> + From<PgSchema>> IncrementalEngine<S> {
    /// Atomically swaps the engine onto the open window's candidate
    /// schema: its violation set and key tables — kept exact across
    /// every delta since [`begin_migration`](Self::begin_migration) —
    /// become the live ones. Returns false (and changes nothing) when
    /// no window is open.
    ///
    /// Only schema handles that can own a freshly built schema (e.g.
    /// `Arc<PgSchema>`) support committing; a `&PgSchema`-holding
    /// engine can still plan and track a window, but the swap would
    /// dangle.
    pub fn commit_migration(&mut self) -> bool {
        let Some(w) = self.window.take() else {
            return false;
        };
        let w = *w;
        self.schema = S::from(w.schema);
        self.sym_schema = w.sym_schema;
        self.violations = encode_all(w.violations);
        self.key_tables = w.key_tables;
        self.metrics = None;
        true
    }
}

/// Drops every violation anchored in the dirty region, re-derives over
/// it through the shared kernels under one schema, and merges — steps
/// 2–4 of [`IncrementalEngine::absorb`], factored out so an open
/// migration window patches its candidate side identically (with plain
/// violations, where the primary side keeps [`Encoded`] ones).
///
/// `kept` and the re-derived set have disjoint anchor spaces by the
/// symmetry invariant; both are sorted, so one merge restores canonical
/// order, encoding only the fresh violations. Dedup absorbs duplicate
/// emissions within the fresh set (e.g. one loop edge matching two
/// `@noLoops` sites), and the merge keeps one of any violation both
/// runs hold.
#[allow(clippy::too_many_arguments)]
fn repatch<E: ReportEntry>(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    ss: &SymSchema,
    region: &RegionCols,
    dirty: &BTreeSet<NodeId>,
    local_edges: &BTreeSet<EdgeId>,
    removed_edge_ids: &BTreeSet<EdgeId>,
    violations: &mut Vec<E>,
    key_tables: &mut [KeyTable],
    collect_metrics: bool,
) -> (usize, usize, Option<SinkOutput>) {
    let old = std::mem::take(violations);
    let mut kept = Vec::with_capacity(old.len());
    let mut dropped = Vec::new();
    for e in old {
        let (node_anchor, edge_anchor, pair) = anchors(e.violation());
        let hit = node_anchor.is_some_and(|n| dirty.contains(&n))
            || edge_anchor
                .is_some_and(|id| local_edges.contains(&id) || removed_edge_ids.contains(&id))
            || pair.is_some_and(|(a, b)| dirty.contains(&a) || dirty.contains(&b));
        if hit {
            dropped.push(e);
        } else {
            kept.push(e);
        }
    }

    let mut fresh = ValidationReport::default();
    let scope = Scope::region(s, ss, region);
    let mut sink = Sink::for_region(&mut fresh, collect_metrics, region);
    let ds7 = Ds7Plan::Recheck {
        tables: key_tables,
        g,
        dirty,
    };
    rules::run(&scope, options, &mut sink, ds7);
    let sink_out = sink.finish();

    let mut fresh_v = fresh.take_violations();
    fresh_v.sort();
    fresh_v.dedup();
    let (added, removed) = diff_counts(&dropped, &fresh_v);
    *violations = merge(kept, fresh_v);
    (added, removed, sink_out)
}

/// Merges two sorted, deduped runs into one, keeping `kept`'s entry of
/// a violation both hold and making an entry of each fresh one.
fn merge<E: ReportEntry>(kept: Vec<E>, fresh: Vec<Violation>) -> Vec<E> {
    let mut merged = Vec::with_capacity(kept.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for e in kept {
        while let Some(v) = fresh.next_if(|v| v < e.violation()) {
            merged.push(E::from_violation(v));
        }
        fresh.next_if(|v| v == e.violation());
        merged.push(e);
    }
    merged.extend(fresh.map(E::from_violation));
    merged
}

/// Each violation of a canonical list beside its bytes.
fn encode_all(violations: Vec<Violation>) -> Vec<Encoded> {
    violations
        .into_iter()
        .map(Encoded::from_violation)
        .collect()
}

/// Counts `(|new \ old|, |old \ new|)` over two sorted, deduped slices.
fn diff_counts<E: ReportEntry>(old: &[E], new: &[Violation]) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    let (mut added, mut removed) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].violation().cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (added + new.len() - j, removed + old.len() - i)
}

/// The elements a violation is anchored at: `(node, edge, ds7 pair)`.
/// Exactly one of the three is `Some` for every variant.
#[allow(clippy::type_complexity)]
pub(crate) fn anchors(v: &Violation) -> (Option<NodeId>, Option<EdgeId>, Option<(NodeId, NodeId)>) {
    match v {
        Violation::NodePropertyType { node, .. }
        | Violation::LoopViolated { node, .. }
        | Violation::RequiredPropertyMissing { node, .. }
        | Violation::RequiredEdgeMissing { node, .. }
        | Violation::UnjustifiedNode { node, .. }
        | Violation::UnjustifiedNodeProperty { node, .. } => (Some(*node), None, None),
        Violation::NonListFieldMultiEdge { source, .. }
        | Violation::DistinctViolated { source, .. } => (Some(*source), None, None),
        Violation::UniqueForTargetViolated { target, .. }
        | Violation::RequiredForTargetViolated { target, .. } => (Some(*target), None, None),
        Violation::EdgePropertyType { edge, .. }
        | Violation::EdgeTargetType { edge, .. }
        | Violation::UnjustifiedEdgeProperty { edge, .. }
        | Violation::UnjustifiedEdge { edge, .. } => (None, Some(*edge), None),
        Violation::KeyViolated { a, b, .. } => (None, None, Some((*a, *b))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, Engine, ValidationOptions};
    use pgraph::{GraphBuilder, Value};

    fn schema() -> PgSchema {
        let doc = gql_sdl::parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User] @noLoops @distinct
                session: UserSession
            }
            type UserSession {
                user: User! @uniqueForTarget
            }
            "#,
        )
        .unwrap();
        PgSchema::from_document(&doc).unwrap()
    }

    fn conforming() -> PropertyGraph {
        GraphBuilder::new()
            .node("u1", "User")
            .prop("u1", "login", "alice")
            .node("u2", "User")
            .prop("u2", "login", "bob")
            .node("s", "UserSession")
            .edge("u1", "u2", "follows")
            .edge("s", "u1", "user")
            .build()
            .unwrap()
    }

    /// Assert that the engine's written report is, byte for byte, the
    /// document its [`report`](IncrementalEngine::report) renders.
    fn assert_written_matches<S: Borrow<PgSchema>>(engine: &IncrementalEngine<S>) {
        let mut written = String::new();
        engine.write_report_json(&mut written);
        assert_eq!(written, engine.report().to_json());
    }

    /// Assert that the engine agrees with a full indexed run after every
    /// delta in `deltas`.
    fn check_sequence(schema: &PgSchema, graph: PropertyGraph, deltas: &[GraphDelta]) {
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(graph, schema, &options);
        let full = validate(engine.graph(), schema, &options);
        assert_eq!(engine.report(), full, "seed disagrees");
        assert_written_matches(&engine);
        for (i, delta) in deltas.iter().enumerate() {
            engine.apply(delta).unwrap();
            assert_written_matches(&engine);
            let full = validate(engine.graph(), schema, &options);
            assert_eq!(
                engine.report(),
                full,
                "delta #{i} diverged\nincremental:\n{}\nfull:\n{}",
                engine.report(),
                full
            );
        }
    }

    #[test]
    fn property_break_and_repair() {
        let s = schema();
        let g = conforming();
        let u1 = g.node_ids().next().unwrap();
        check_sequence(
            &s,
            g,
            &[
                GraphDelta::new().set_node_property(u1, "login", Value::Int(3)),
                GraphDelta::new().remove_node_property(u1, "login"),
                GraphDelta::new().set_node_property(u1, "login", Value::from("alice")),
            ],
        );
    }

    #[test]
    fn key_collisions_track_group_moves() {
        let s = schema();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (u1, u2) = (ids[0], ids[1]);
        let next = NodeId::from_index(g.node_index_bound());
        check_sequence(
            &s,
            g,
            &[
                // u2 collides with u1, then a third node joins the group,
                // then u1 leaves it again.
                GraphDelta::new().set_node_property(u2, "login", Value::from("alice")),
                GraphDelta::new().add_node("User").set_node_property(
                    next,
                    "login",
                    Value::from("alice"),
                ),
                GraphDelta::new().set_node_property(u1, "login", Value::from("carol")),
            ],
        );
    }

    #[test]
    fn structural_ops_close_over_endpoints() {
        let s = schema();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (u1, u2) = (ids[0], ids[1]);
        let first_edge = g.edge_ids().next().unwrap();
        check_sequence(
            &s,
            g,
            &[
                // Second parallel follows edge: DS1 at u1.
                GraphDelta::new().add_edge(u1, u2, "follows"),
                // Self-loop: DS2 at u2.
                GraphDelta::new().add_edge(u2, u2, "follows"),
                // Remove the original follows edge (DS1 shrinks back).
                GraphDelta::new().remove_edge(first_edge),
                // Remove u2 entirely: cascades the loop + parallel edge.
                GraphDelta::new().remove_node(u2),
            ],
        );
    }

    #[test]
    fn relabel_dirties_neighbours() {
        let s = schema();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        check_sequence(
            &s,
            g,
            &[
                // u1 stops being a User: the session edge into it now has
                // a mistyped target, its own edges are unjustified, and
                // it leaves the @key table.
                GraphDelta::new().set_node_label(ids[0], "Ghost"),
                GraphDelta::new().set_node_label(ids[0], "User"),
            ],
        );
    }

    #[test]
    fn failed_apply_reseeds_soundly() {
        let s = schema();
        let g = conforming();
        let u1 = g.node_ids().next().unwrap();
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(g, &s, &options);
        let ghost = NodeId::from_index(99);
        let bad = GraphDelta::new()
            .set_node_property(u1, "login", Value::Int(7)) // applies
            .remove_node(ghost); // fails
        assert!(engine.apply(&bad).is_err());
        // The partial mutation is reflected and the report is still exact.
        let full = validate(engine.graph(), &s, &options);
        assert_eq!(engine.report(), full);
        assert!(!engine.report().conforms());
    }

    /// The stored bytes follow the two paths that replace the whole
    /// violation set: a conflicting delta's reseed, and a migration
    /// commit adopting the candidate's plain violations.
    #[test]
    fn written_report_survives_reseed_and_commit() {
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let options = ValidationOptions::builder().collect_metrics(true).build();
        let mut engine = IncrementalEngine::new(g, std::sync::Arc::new(schema()), &options);
        engine
            .apply(&GraphDelta::new().set_node_property(ids[0], "login", Value::Int(3)))
            .unwrap();
        assert_written_matches(&engine);
        let conflicting = GraphDelta::new()
            .set_node_property(ids[1], "we\"ird\n", Value::from("x"))
            .remove_node(NodeId::from_index(99));
        assert!(engine.apply(&conflicting).is_err());
        assert_written_matches(&engine);
        assert_eq!(engine.report().len(), 2, "WS1 at u1, SS2 at u2");

        engine.begin_migration(candidate());
        engine
            .apply(&GraphDelta::new().add_edge(ids[2], ids[1], "follows"))
            .unwrap();
        assert_written_matches(&engine);
        assert!(engine.commit_migration());
        assert_written_matches(&engine);
        assert_eq!(
            engine.report(),
            validate(engine.graph(), &candidate(), &options)
        );
        engine
            .apply(&GraphDelta::new().set_node_property(ids[0], "login", Value::from("alice")))
            .unwrap();
        assert_written_matches(&engine);
    }

    /// The merge orders two sorted runs as `sort` + `dedup` of their
    /// concatenation would, keeps the stored entry of a violation both
    /// runs hold, and encodes each fresh one.
    #[test]
    fn merge_is_sort_and_dedup_of_both_runs() {
        let v = |ix| Violation::UnjustifiedNode {
            node: NodeId::from_index(ix),
            label: "X".into(),
        };
        let stored = |ix| Encoded {
            violation: v(ix),
            json: "stored".into(),
        };
        let merged = merge(
            vec![stored(1), stored(3), stored(5)],
            vec![v(0), v(3), v(4), v(6)],
        );
        let order: Vec<&Violation> = merged.iter().map(|e| &e.violation).collect();
        assert_eq!(order, [&v(0), &v(1), &v(3), &v(4), &v(5), &v(6)]);
        for e in &merged {
            let mut rendered = String::new();
            write_violation_json(&mut rendered, &e.violation);
            let from_kept = [v(1), v(3), v(5)].contains(&e.violation);
            assert_eq!(&*e.json, if from_kept { "stored" } else { &rendered });
        }
    }

    #[test]
    fn outcome_reports_recheck_scope() {
        let s = schema();
        let g = conforming();
        let u1 = g.node_ids().next().unwrap();
        let options = ValidationOptions::builder().collect_metrics(true).build();
        let mut engine = IncrementalEngine::new(g, &s, &options);
        let outcome = engine
            .apply(&GraphDelta::new().set_node_property(u1, "login", Value::Int(3)))
            .unwrap();
        assert!(outcome.elements_rechecked < outcome.elements_total);
        assert_eq!(outcome.violations_added, 1);
        assert_eq!(outcome.violations_removed, 0);
        let report = engine.report();
        let m = report.metrics().expect("metrics requested");
        assert_eq!(m.engine, "incremental");
        assert_eq!(m.elements_rechecked, outcome.elements_rechecked as u64);
        assert_eq!(m.elements_total, outcome.elements_total as u64);
    }

    #[test]
    fn stateless_incremental_engine_is_a_full_pass() {
        let s = schema();
        let mut g = conforming();
        let u1 = g.node_ids().next().unwrap();
        g.set_node_property(u1, "login", Value::Int(3));
        let a = validate(&g, &s, &ValidationOptions::with_engine(Engine::Incremental));
        let b = validate(&g, &s, &ValidationOptions::with_engine(Engine::Indexed));
        assert_eq!(a, b);
        assert_eq!(a.engine(), Some("incremental"));
    }

    /// [`schema`] tightened: at most one incoming `follows` edge per
    /// `User` (`@uniqueForTarget`).
    fn candidate() -> PgSchema {
        let doc = gql_sdl::parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User] @noLoops @distinct @uniqueForTarget
                session: UserSession
            }
            type UserSession {
                user: User! @uniqueForTarget
            }
            "#,
        )
        .unwrap();
        PgSchema::from_document(&doc).unwrap()
    }

    /// After every delta, both sides of an open window must equal a
    /// full validation under their respective schemas — and modes: an
    /// open-world primary keeps its strong family off while the
    /// closed-world candidate runs it.
    #[test]
    fn window_tracks_deltas_on_both_sides() {
        window_tracks_deltas(schema());
        window_tracks_deltas(schema().into_open_world());
    }

    fn window_tracks_deltas(old: PgSchema) {
        let new = candidate();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (u1, u2) = (ids[0], ids[1]);
        let options = ValidationOptions::default();
        let u3 = NodeId::from_index(g.node_index_bound());
        let mut engine = IncrementalEngine::new(g, &old, &options);
        let plan = engine.begin_migration(candidate());
        assert!(
            plan.compatible(),
            "clean graph, tightening is compatible here"
        );
        let deltas = [
            // a second follower of u2: clean under old, breaks the new
            // @uniqueForTarget on follows
            GraphDelta::new()
                .add_node("User")
                .set_node_property(u3, "login", Value::from("carol"))
                .add_edge(u3, u2, "follows"),
            GraphDelta::new().set_node_property(u1, "login", Value::Int(7)),
            GraphDelta::new().set_node_property(u1, "login", Value::from("alice")),
            // undeclared: SS2 wherever the schema is closed-world
            GraphDelta::new().set_node_property(u1, "nickname", Value::from("al")),
        ];
        for (i, d) in deltas.iter().enumerate() {
            engine.apply(d).unwrap();
            let full_old = validate(engine.graph(), &old, &options);
            let full_new = validate(engine.graph(), &new, &options);
            assert_eq!(engine.report(), full_old, "delta #{i}: primary diverged");
            assert_eq!(
                engine.migration_report().unwrap(),
                full_new,
                "delta #{i}: window diverged"
            );
        }
        let regressions = engine.migration_regressions().unwrap();
        assert!(
            regressions
                .iter()
                .any(|v| matches!(v, Violation::UniqueForTargetViolated { .. })),
            "u2's second follower regresses under @uniqueForTarget"
        );
    }

    #[test]
    fn commit_swaps_to_the_candidate_schema() {
        let old = std::sync::Arc::new(schema());
        let new = candidate();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(g, std::sync::Arc::clone(&old), &options);
        engine.begin_migration(candidate());
        engine
            .apply(&GraphDelta::new().set_node_property(ids[1], "login", Value::from("alice")))
            .unwrap();
        assert!(engine.commit_migration());
        assert!(!engine.migration_active());
        assert_eq!(engine.report(), validate(engine.graph(), &new, &options));
        // committed state keeps absorbing deltas exactly
        engine
            .apply(&GraphDelta::new().set_node_property(ids[1], "login", Value::from("bob")))
            .unwrap();
        assert_eq!(engine.report(), validate(engine.graph(), &new, &options));
        assert!(!engine.commit_migration(), "no window left to commit");
    }

    #[test]
    fn abort_keeps_the_old_schema() {
        let old = schema();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(g, &old, &options);
        engine.begin_migration(candidate());
        engine
            .apply(&GraphDelta::new().set_node_property(ids[1], "login", Value::from("alice")))
            .unwrap();
        assert!(engine.abort_migration());
        assert!(!engine.abort_migration());
        assert!(engine.migration_report().is_none());
        assert_eq!(engine.report(), validate(engine.graph(), &old, &options));
    }

    /// A failed delta re-seeds the primary side — the open window must
    /// be re-seeded with it, not left tracking a stale graph.
    #[test]
    fn failed_apply_reseeds_the_window_too() {
        let old = schema();
        let new = candidate();
        let g = conforming();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let options = ValidationOptions::default();
        let mut engine = IncrementalEngine::new(g, &old, &options);
        engine.begin_migration(candidate());
        let bogus = NodeId::from_index(1_000_000);
        let err = engine.apply(
            &GraphDelta::new()
                .set_node_property(ids[1], "login", Value::from("alice"))
                .set_node_property(bogus, "login", Value::from("x")),
        );
        assert!(err.is_err());
        assert_eq!(engine.report(), validate(engine.graph(), &old, &options));
        assert_eq!(
            engine.migration_report().unwrap(),
            validate(engine.graph(), &new, &options)
        );
    }
}
