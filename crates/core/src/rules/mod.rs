//! The rule-kernel layer: each of the paper's fifteen rules, implemented
//! exactly once — over the *columnar* graph core.
//!
//! The paper defines one set of semantics — [`Rule::WS1`]–[`Rule::WS4`]
//! (Definition 5.1), [`Rule::DS1`]–[`Rule::DS7`] (Definition 5.2) and
//! [`Rule::SS1`]–[`Rule::SS4`] (Definition 5.3) — while the crate ships
//! several execution strategies for it. This module separates the two
//! concerns:
//!
//! * a **kernel** is the single implementation of one rule, written
//!   against an abstract evaluation [`Scope`] and a result [`Sink`]
//!   (modules [`weak`], [`directives`], [`strong`], one per family);
//! * an **engine** is a *planner*: it decides which kernels to run over
//!   which scope and merges the results. `indexed.rs`, `parallel.rs` and
//!   `incremental.rs` contain only this planning/scoping logic;
//!   `naive.rs` deliberately stays outside the layer as the independent
//!   oracle the kernels are property-tested against
//!   (`tests/engine_agreement.rs`).
//!
//! # The columnar scope
//!
//! Kernels never touch the pointer-rich [`PropertyGraph`]. A [`Scope`]
//! pairs one symbol-keyed data path with a symbol-keyed compilation of
//! the *schema*:
//!
//! * the data is a frozen [`ColumnarGraph`] — struct-of-arrays element
//!   tables plus CSR adjacency, so an element scan is a walk over
//!   contiguous `u32` columns and a "parallel edges of `v` under label
//!   `l`" query is a binary-searched subslice of one CSR row — plus the
//!   node and edge slot ranges the scope owns;
//! * every label/field question goes through the
//!   [`SymSchema`](symschema::SymSchema) — one row per interned symbol,
//!   making `λ(v) ⊑ t` a binary search over `u32`s and putting the
//!   report strings (expected types, site names) behind precomputed
//!   fields, so the hot loops never hash or compare strings.
//!
//! The planners choose the columns and the ranges:
//!
//! * **full** — every slot of the whole graph (the serial indexed
//!   engine, and the seeding pass of an incremental session); benchmark
//!   E2 runs kernels under this scope;
//! * **shard** — one contiguous slot range of the whole graph (parallel
//!   engine, E2p); element scans walk the shard's own slots and
//!   group-keyed kernels process exactly the groups whose key element
//!   the shard owns, so every violation is derived by exactly one worker;
//! * **region** — the dirty region of a
//!   [`GraphDelta`](pgraph::GraphDelta) closure (incremental engine,
//!   E2i) or of a schema change (migration preview), frozen into columns
//!   of its own ([`region`]): its dirty nodes are local slots `0..k`,
//!   which the scope owns, followed by unowned boundary endpoints, and
//!   every edge is owned. Its [`Sink`] translates the local ids back.
//!
//! Kernels never ask which kind they run under: element scans iterate
//! [`Scope::nodes`]/[`Scope::edges`], group-keyed kernels walk
//! [`Scope::for_out_groups`]/[`Scope::for_parallel_runs`]/
//! [`Scope::for_in_runs`] and filter through [`Scope::owns`]. That one
//! predicate is what makes the same kernel body correct in all three
//! plans.
//!
//! # Sink
//!
//! A [`Sink`] is the uniform write side: kernels push [`Violation`]s
//! through it. It centralises
//!
//! * `max_violations` early-exit ([`Sink::at_limit`] short-circuits both
//!   within and between kernels),
//! * the region's id translation, when the kernels scan a region,
//! * per-rule observability — wall time, elements examined and
//!   violations per kernel, recorded as [`RuleMetrics`] when metrics
//!   are requested and zero-cost (a dead branch per element) when not,
//! * deterministic ordering: kernels themselves emit in a
//!   domain-dependent order, so every planner canonicalises its merged
//!   report (sort by the derived `Ord` on [`Violation`] = (rule, anchor
//!   element id, payload), then dedup) before it reaches the caller —
//!   [`validate`](crate::validate) and
//!   [`IncrementalEngine::report`](crate::IncrementalEngine::report)
//!   both guarantee this canonical order, which is why reports from all
//!   four engines compare byte-identically.
//!
//! # DS7 and the three plans
//!
//! `@key` (DS7) is the one rule whose violations pair *two* elements, so
//! its kernel is split into a tuple-collect and a pair-emit phase
//! (see [`directives`]). [`Ds7Plan`] selects how the planner composes
//! them: inline (collect + emit in one go), map (collect only, as
//! interned value-class tuples; the parallel engine reduces the
//! shard-local tables after join), or recheck (the incremental engine's
//! persistent [`KeyTable`]s are updated for the dirty nodes and only
//! affected pairs re-emitted).

pub(crate) mod directives;
pub(crate) mod region;
pub(crate) mod strong;
pub(crate) mod symschema;
pub(crate) mod weak;

use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;

use pgraph::{ColumnarGraph, EdgeId, NodeId, PropertyGraph, Sym, SymbolTable, Value, ValueTable};

use crate::pgschema::PgSchema;
use crate::report::{Rule, RuleMetrics, ValidationReport, Violation};
use crate::ValidationOptions;

pub(crate) use directives::KeyTable;
use region::RegionCols;
use symschema::SymSchema;

/// Everything a rule kernel reads: the schema in both its string-keyed
/// and symbol-compiled forms, the symbol table for rendering report
/// strings, and the columns with the slot ranges the scope owns. See the
/// module docs for how the planners choose the ranges.
pub(crate) struct Scope<'a> {
    /// The schema validated against, string-keyed.
    pub(crate) s: &'a PgSchema,
    /// The schema compiled onto the symbol space.
    pub(crate) ss: &'a SymSchema,
    /// The shared symbol table — resolves [`Sym`]s into report strings.
    pub(crate) syms: &'a SymbolTable,
    /// The columns scanned: a whole graph or a frozen region.
    pub(crate) cols: &'a ColumnarGraph,
    /// Owned node slots.
    nodes: Range<usize>,
    /// Owned edge slots.
    edges: Range<usize>,
}

/// A node under the cursor of a scope scan.
pub(crate) struct NodeCur<'a> {
    pub(crate) id: NodeId,
    pub(crate) label: Sym,
    pub(crate) props: PropsRef<'a>,
}

/// An edge under the cursor of a scope scan.
pub(crate) struct EdgeCur<'a> {
    pub(crate) id: EdgeId,
    pub(crate) label: Sym,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) props: PropsRef<'a>,
}

/// An element's property list, interned: key symbols in name order plus
/// value ids into the shared [`ValueTable`].
pub(crate) struct PropsRef<'a> {
    keys: &'a [Sym],
    vids: &'a [u32],
    vt: &'a ValueTable,
}

impl<'a> PropsRef<'a> {
    /// Iterates `(key symbol, value)` in property-name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Sym, &'a Value)> + 'a {
        let vt = self.vt;
        self.keys
            .iter()
            .zip(self.vids)
            .map(move |(&k, &vid)| (k, vt.value(vid)))
    }
}

/// Live-node scan over a slot range, in ascending id order.
pub(crate) struct NodeIter<'a> {
    cols: &'a ColumnarGraph,
    range: Range<usize>,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = NodeCur<'a>;
    fn next(&mut self) -> Option<NodeCur<'a>> {
        let cols = self.cols;
        let ix = self.range.find(|&ix| cols.node_is_live(ix))?;
        let id = NodeId::from_index(ix);
        Some(NodeCur {
            id,
            label: cols.node_label_sym(id),
            props: PropsRef {
                keys: cols.node_prop_syms(id),
                vids: cols.node_prop_vids(id),
                vt: cols.values(),
            },
        })
    }
}

/// Live-edge scan over a slot range, in ascending id order.
pub(crate) struct EdgeIter<'a> {
    cols: &'a ColumnarGraph,
    range: Range<usize>,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = EdgeCur<'a>;
    fn next(&mut self) -> Option<EdgeCur<'a>> {
        let cols = self.cols;
        let ix = self.range.find(|&ix| cols.edge_is_live(ix))?;
        let id = EdgeId::from_index(ix);
        Some(EdgeCur {
            id,
            label: cols.edge_label_sym(id),
            src: cols.edge_source(id),
            dst: cols.edge_target(id),
            props: PropsRef {
                keys: cols.edge_prop_syms(id),
                vids: cols.edge_prop_vids(id),
                vt: cols.values(),
            },
        })
    }
}

/// One adjacency group: a subslice of a CSR row, as edge slots.
#[derive(Clone, Copy)]
pub(crate) struct EdgeRun<'a>(&'a [u32]);

impl<'a> EdgeRun<'a> {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = EdgeId> + 'a {
        self.0.iter().map(|&ix| EdgeId::from_index(ix as usize))
    }
}

impl<'a> Scope<'a> {
    /// Whole-graph scope (indexed engine, incremental seeding): every
    /// slot is owned.
    pub(crate) fn full(s: &'a PgSchema, ss: &'a SymSchema, cols: &'a ColumnarGraph) -> Self {
        Self::new(s, ss, cols, 0..cols.node_slots(), 0..cols.edge_slots())
    }

    /// A frozen dirty region (incremental engine, migration preview): the
    /// region's own nodes and every edge are owned, boundary nodes not.
    pub(crate) fn region(s: &'a PgSchema, ss: &'a SymSchema, region: &'a RegionCols) -> Self {
        let cols = &region.cols;
        Self::new(s, ss, cols, region.owned(), 0..cols.edge_slots())
    }

    /// A scope owning the given contiguous slot ranges of `cols` — one
    /// worker's shard of the parallel engine.
    pub(crate) fn new(
        s: &'a PgSchema,
        ss: &'a SymSchema,
        cols: &'a ColumnarGraph,
        nodes: Range<usize>,
        edges: Range<usize>,
    ) -> Self {
        Scope {
            s,
            ss,
            syms: cols.symbols(),
            cols,
            nodes,
            edges,
        }
    }

    /// Does this scope own the given node? Group-keyed kernels process
    /// exactly the groups whose key element is owned, which is what
    /// makes shard and region evaluation partition-exact.
    #[inline]
    pub(crate) fn owns(&self, n: NodeId) -> bool {
        self.nodes.contains(&n.index())
    }

    /// The owned live nodes, in ascending id order.
    pub(crate) fn nodes(&self) -> NodeIter<'a> {
        NodeIter {
            cols: self.cols,
            range: self.nodes.clone(),
        }
    }

    /// The owned live edges, in ascending id order.
    pub(crate) fn edges(&self) -> EdgeIter<'a> {
        EdgeIter {
            cols: self.cols,
            range: self.edges.clone(),
        }
    }

    /// The label symbol of any live node of the columns.
    #[inline]
    pub(crate) fn label_sym(&self, n: NodeId) -> Option<Sym> {
        let cols = self.cols;
        cols.node_is_live(n.index()).then(|| cols.node_label_sym(n))
    }

    /// The distinct labels with at least one live node in the columns,
    /// sorted by symbol.
    pub(crate) fn labels(&self) -> &'a [Sym] {
        self.cols.labels_present()
    }

    /// Live nodes of the columns carrying `label`, ascending id order.
    pub(crate) fn nodes_with_label(&self, label: Sym) -> impl Iterator<Item = NodeId> + 'a {
        let run = self.cols.nodes_with_label(label);
        run.iter().map(|&ix| NodeId::from_index(ix as usize))
    }

    /// Out-edges of `v` labelled `label`, ascending id order.
    pub(crate) fn out_edges_labelled(&self, v: NodeId, label: Sym) -> EdgeRun<'a> {
        EdgeRun(self.cols.out_edges_labelled(v, label))
    }

    /// In-edges of `v` labelled `label`, ascending id order.
    pub(crate) fn in_edges_labelled(&self, v: NodeId, label: Sym) -> EdgeRun<'a> {
        EdgeRun(self.cols.in_edges_labelled(v, label))
    }

    /// The source endpoint of a live edge.
    #[inline]
    pub(crate) fn edge_source(&self, e: EdgeId) -> Option<NodeId> {
        let cols = self.cols;
        cols.edge_is_live(e.index()).then(|| cols.edge_source(e))
    }

    /// A node's property by key symbol.
    #[inline]
    pub(crate) fn node_prop(&self, n: NodeId, key: Sym) -> Option<&'a Value> {
        self.cols.node_prop(n, key)
    }

    /// The owned live node slots, as ids.
    fn owned_nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let cols = self.cols;
        self.nodes
            .clone()
            .filter(move |&ix| cols.node_is_live(ix))
            .map(NodeId::from_index)
    }

    /// Walks every `(source, edge label, edges)` out-group whose source
    /// the scope owns (WS4's groups): each owned out row, split into
    /// label runs (the row is sorted by label first). `f` returns
    /// `false` to stop early.
    pub(crate) fn for_out_groups(&self, f: &mut dyn FnMut(NodeId, Sym, EdgeRun<'a>) -> bool) {
        let cols = self.cols;
        for v in self.owned_nodes() {
            let row = cols.out_row(v);
            let label_at = |i: usize| cols.edge_label_sym(EdgeId::from_index(row[i] as usize));
            let mut start = 0;
            while start < row.len() {
                let label = label_at(start);
                let end = (start + 1..row.len())
                    .find(|&i| label_at(i) != label)
                    .unwrap_or(row.len());
                if !f(v, label, EdgeRun(&row[start..end])) {
                    return;
                }
                start = end;
            }
        }
    }

    /// Walks every `(source, target, edges)` parallel-edge group under
    /// `label` whose source the scope owns (DS1's groups): each owned
    /// labelled out run, split into same-target runs (sorted by target
    /// within a label run).
    pub(crate) fn for_parallel_runs(
        &self,
        label: Sym,
        f: &mut dyn FnMut(NodeId, NodeId, EdgeRun<'a>) -> bool,
    ) {
        let cols = self.cols;
        for v in self.owned_nodes() {
            let run = cols.out_edges_labelled(v, label);
            let dst_at = |i: usize| cols.edge_target(EdgeId::from_index(run[i] as usize));
            let mut start = 0;
            while start < run.len() {
                let dst = dst_at(start);
                let end = (start + 1..run.len())
                    .find(|&i| dst_at(i) != dst)
                    .unwrap_or(run.len());
                if !f(v, dst, EdgeRun(&run[start..end])) {
                    return;
                }
                start = end;
            }
        }
    }

    /// Walks every non-empty `(target, edges)` in-group under `label`
    /// whose target the scope owns (DS3's groups).
    pub(crate) fn for_in_runs(&self, label: Sym, f: &mut dyn FnMut(NodeId, EdgeRun<'a>) -> bool) {
        for v in self.owned_nodes() {
            let run = self.cols.in_edges_labelled(v, label);
            if !run.is_empty() && !f(v, EdgeRun(run)) {
                return;
            }
        }
    }
}

/// Per-rule instrumentation accumulated by a [`Sink`], handed back to
/// the planner by [`Sink::finish`].
pub(crate) struct SinkOutput {
    /// One entry per kernel that ran, in execution order.
    pub(crate) rules: Vec<RuleMetrics>,
    /// Node visits summed over all kernels.
    pub(crate) nodes_scanned: u64,
    /// Edge visits summed over all kernels.
    pub(crate) edges_scanned: u64,
}

struct SinkMetrics {
    rules: Vec<RuleMetrics>,
    nodes_scanned: u64,
    edges_scanned: u64,
    /// Elements examined by the kernel currently running.
    current: u64,
}

/// The uniform write side of every kernel: violations, `max_violations`
/// early-exit and per-rule metrics flow through here. See module docs.
pub(crate) struct Sink<'r> {
    report: &'r mut ValidationReport,
    metrics: Option<SinkMetrics>,
    /// The region whose local ids the kernels emit, when they scan one.
    region: Option<&'r RegionCols>,
}

impl<'r> Sink<'r> {
    /// Wraps a report; with `collect` set, per-rule [`RuleMetrics`] are
    /// recorded around every [`rule`](Self::rule) invocation.
    pub(crate) fn new(report: &'r mut ValidationReport, collect: bool) -> Self {
        Sink {
            report,
            metrics: collect.then(|| SinkMetrics {
                rules: Vec::with_capacity(Rule::ALL.len()),
                nodes_scanned: 0,
                edges_scanned: 0,
                current: 0,
            }),
            region: None,
        }
    }

    /// A sink for kernels scanning `region`: every pushed violation is
    /// translated from the region's local ids to the graph's.
    pub(crate) fn for_region(
        report: &'r mut ValidationReport,
        collect: bool,
        region: &'r RegionCols,
    ) -> Self {
        Sink {
            region: Some(region),
            ..Sink::new(report, collect)
        }
    }

    /// Emits one violation (dropped, marking the report truncated, once
    /// the limit is reached).
    #[inline]
    pub(crate) fn push(&mut self, mut v: Violation) {
        if let Some(region) = self.region {
            region.translate(&mut v);
        }
        self.report.push(v);
    }

    /// True once `max_violations` is reached — kernels return early and
    /// [`rule`](Self::rule) skips kernels entirely.
    #[inline]
    pub(crate) fn at_limit(&self) -> bool {
        self.report.at_limit()
    }

    /// Counts one node visit for the running kernel.
    #[inline]
    pub(crate) fn node_visited(&mut self) {
        if let Some(m) = &mut self.metrics {
            m.current += 1;
            m.nodes_scanned += 1;
        }
    }

    /// Counts one edge visit for the running kernel.
    #[inline]
    pub(crate) fn edge_visited(&mut self) {
        if let Some(m) = &mut self.metrics {
            m.current += 1;
            m.edges_scanned += 1;
        }
    }

    /// Counts one index-group (or per-site bucket entry) visit for the
    /// running kernel.
    #[inline]
    pub(crate) fn group_visited(&mut self) {
        if let Some(m) = &mut self.metrics {
            m.current += 1;
        }
    }

    /// Runs one kernel, timing it and attributing elements/violations to
    /// `rule` when metrics are collected. Skipped entirely once the
    /// violation limit is reached.
    pub(crate) fn rule(&mut self, rule: Rule, kernel: impl FnOnce(&mut Self)) {
        if self.at_limit() {
            return;
        }
        if self.metrics.is_none() {
            kernel(self);
            return;
        }
        if let Some(m) = &mut self.metrics {
            m.current = 0;
        }
        let before = self.report.len();
        let start = Instant::now();
        kernel(self);
        let nanos = start.elapsed().as_nanos() as u64;
        let violations = self.report.len() - before;
        if let Some(m) = &mut self.metrics {
            m.rules.push(RuleMetrics {
                rule,
                nanos,
                elements_scanned: m.current,
                violations,
            });
        }
    }

    /// Ends the sink, releasing the report borrow and handing the
    /// per-rule metrics (if collected) to the planner.
    pub(crate) fn finish(self) -> Option<SinkOutput> {
        self.metrics.map(|m| SinkOutput {
            rules: m.rules,
            nodes_scanned: m.nodes_scanned,
            edges_scanned: m.edges_scanned,
        })
    }
}

/// How a planner executes DS7 (`@key`) — the one rule whose collect and
/// emit phases engines compose differently. See module docs.
pub(crate) enum Ds7Plan<'p> {
    /// Collect and emit in one pass (serial full-graph engines).
    Inline,
    /// Map phase only: one shard-local tuple table per key is pushed for
    /// the caller's cross-shard reduce (parallel engine). Tuples are
    /// graph-global value-class ids, so equal tuples collide across
    /// shards exactly as their [`Value`] counterparts would.
    Map(&'p mut Vec<directives::KeyGroups>),
    /// Move the `dirty` nodes of `g` between the persistent per-key
    /// tables and re-emit exactly the pairs they participate in
    /// (incremental engine). Their partners lie outside any region, so
    /// this plan reads the graph itself and emits its ids.
    Recheck {
        tables: &'p mut [KeyTable],
        g: &'p PropertyGraph,
        dirty: &'p BTreeSet<NodeId>,
    },
}

/// Runs every enabled kernel over `scope` in rule order (WS1–WS4,
/// DS1–DS7, SS1–SS4), with `max_violations` early-exit between and
/// within kernels. This is the entire rule schedule; the engines differ
/// only in the scope they build and the [`Ds7Plan`] they pass.
pub(crate) fn run(
    scope: &Scope<'_>,
    options: &ValidationOptions,
    sink: &mut Sink<'_>,
    ds7: Ds7Plan<'_>,
) {
    if options.weak {
        weak::ws1(scope, sink);
        weak::ws2(scope, sink);
        weak::ws3(scope, sink);
        weak::ws4(scope, sink);
    }
    if options.directives {
        directives::ds1(scope, sink);
        directives::ds2(scope, sink);
        directives::ds3(scope, sink);
        directives::ds4(scope, sink);
        directives::ds5(scope, sink);
        directives::ds6(scope, sink);
        match ds7 {
            Ds7Plan::Inline => directives::ds7(scope, sink),
            Ds7Plan::Map(tables) => directives::ds7_map(scope, sink, tables),
            Ds7Plan::Recheck { tables, g, dirty } => {
                directives::ds7_recheck(scope, sink, tables, g, dirty)
            }
        }
    }
    if options.strong && !scope.s.is_open_world() {
        strong::ss1(scope, sink);
        strong::ss2(scope, sink);
        strong::ss3(scope, sink);
        strong::ss4(scope, sink);
    }
}
