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
//! Kernels no longer touch the pointer-rich [`PropertyGraph`] directly.
//! A [`Scope`] pairs a symbol-keyed view of the *data* with a
//! symbol-keyed compilation of the *schema*:
//!
//! * full and shard scopes scan a frozen
//!   [`ColumnarGraph`](pgraph::ColumnarGraph) — struct-of-arrays element
//!   tables plus CSR adjacency, so an element scan is a walk over
//!   contiguous `u32` columns and a "parallel edges of `v` under label
//!   `l`" query is a binary-searched subslice of one CSR row;
//! * the dirty scope of the incremental engine scans a small
//!   [`PartialCols`](partial::PartialCols) interned over just the dirty
//!   region, sharing the same symbol space;
//! * every label/field question goes through the
//!   [`SymSchema`](symschema::SymSchema) — one row per interned symbol,
//!   making `λ(v) ⊑ t` a binary search over `u32`s and putting the
//!   report strings (expected types, site names) behind precomputed
//!   fields, so the hot loops never hash or compare strings.
//!
//! The three scope variants answer the same questions:
//!
//! * **full** — the whole graph (the serial indexed engine, and the
//!   seeding pass of an incremental session); benchmark E2 runs kernels
//!   under this scope;
//! * **shard** — one contiguous raw-index range of the columnar tables
//!   (parallel engine, E2p); element scans walk the shard's own slots
//!   and group-keyed kernels process exactly the groups whose key
//!   element the shard owns, so every violation is derived by exactly
//!   one worker;
//! * **dirty** — the dirty region computed from a
//!   [`GraphDelta`](pgraph::GraphDelta) closure by the incremental
//!   engine: a set of dirty nodes plus the live edges incident to them
//!   (E2i).
//!
//! Kernels never ask which variant they run under: element scans iterate
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
pub(crate) mod partial;
pub(crate) mod strong;
pub(crate) mod symschema;
pub(crate) mod weak;

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::slice;
use std::time::Instant;

use pgraph::{ColumnarGraph, EdgeId, NodeId, PropertyGraph, Sym, SymbolTable, Value, ValueTable};

use crate::pgschema::PgSchema;
use crate::report::{Rule, RuleMetrics, ValidationReport, Violation};
use crate::ValidationOptions;

pub(crate) use directives::KeyTable;
use partial::{PartialCols, PartialNode};
use symschema::SymSchema;

/// The slice of the graph a kernel invocation derives violations for.
enum View<'a, 'g> {
    /// Every slot of the frozen columnar tables.
    Full { cols: &'a ColumnarGraph },
    /// One contiguous raw-index range of the columnar tables (parallel
    /// engine).
    Shard {
        cols: &'a ColumnarGraph,
        nodes: Range<usize>,
        edges: Range<usize>,
    },
    /// The interned dirty region of a delta (incremental engine):
    /// `nodes` is the dirty-node closure driving ownership, `g` the
    /// *whole* graph the region was cut from (the region restricts which
    /// elements are scanned, not what lookups can see).
    Dirty {
        g: &'g PropertyGraph,
        pc: &'a PartialCols<'g>,
        nodes: &'a BTreeSet<NodeId>,
    },
}

/// Everything a rule kernel reads: the schema in both its string-keyed
/// and symbol-compiled forms, the symbol table for rendering report
/// strings, and the evaluation view. See the module docs for the three
/// view variants and how the planners instantiate them.
pub(crate) struct Scope<'a, 'g> {
    /// The schema validated against (string-keyed; DS7 recheck only).
    pub(crate) s: &'a PgSchema,
    /// The schema compiled onto the symbol space.
    pub(crate) ss: &'a SymSchema,
    /// The shared symbol table — resolves [`Sym`]s into report strings.
    pub(crate) syms: &'a SymbolTable,
    view: View<'a, 'g>,
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
/// the values (columnar: value ids into the shared [`ValueTable`];
/// dirty: borrowed values).
pub(crate) enum PropsRef<'a> {
    Cols {
        keys: &'a [Sym],
        vids: &'a [u32],
        vt: &'a ValueTable,
    },
    Slice(&'a [(Sym, &'a Value)]),
}

impl<'a> PropsRef<'a> {
    /// Iterates `(key symbol, value)` in property-name order.
    pub(crate) fn iter(&self) -> PropsIter<'a> {
        match *self {
            PropsRef::Cols { keys, vids, vt } => PropsIter::Cols {
                keys: keys.iter(),
                vids: vids.iter(),
                vt,
            },
            PropsRef::Slice(s) => PropsIter::Slice(s.iter()),
        }
    }
}

/// Iterator over a [`PropsRef`].
pub(crate) enum PropsIter<'a> {
    Cols {
        keys: slice::Iter<'a, Sym>,
        vids: slice::Iter<'a, u32>,
        vt: &'a ValueTable,
    },
    Slice(slice::Iter<'a, (Sym, &'a Value)>),
}

impl<'a> Iterator for PropsIter<'a> {
    type Item = (Sym, &'a Value);
    fn next(&mut self) -> Option<(Sym, &'a Value)> {
        match self {
            PropsIter::Cols { keys, vids, vt } => {
                let k = *keys.next()?;
                let vid = *vids.next()?;
                Some((k, vt.value(vid)))
            }
            PropsIter::Slice(it) => it.next().map(|&(k, v)| (k, v)),
        }
    }
}

/// Live-node scan over a scope's view, in ascending id order.
pub(crate) enum NodeIter<'a> {
    Cols {
        cols: &'a ColumnarGraph,
        range: Range<usize>,
    },
    Partial(slice::Iter<'a, PartialNode<'a>>),
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = NodeCur<'a>;
    fn next(&mut self) -> Option<NodeCur<'a>> {
        match self {
            NodeIter::Cols { cols, range } => loop {
                let ix = range.next()?;
                if !cols.node_is_live(ix) {
                    continue;
                }
                let id = NodeId::from_index(ix);
                return Some(NodeCur {
                    id,
                    label: cols.node_label_sym(id),
                    props: PropsRef::Cols {
                        keys: cols.node_prop_syms(id),
                        vids: cols.node_prop_vids(id),
                        vt: cols.values(),
                    },
                });
            },
            NodeIter::Partial(it) => it.next().map(|n| NodeCur {
                id: n.id,
                label: n.label,
                props: PropsRef::Slice(&n.props),
            }),
        }
    }
}

/// Live-edge scan over a scope's view, in ascending id order.
pub(crate) enum EdgeIter<'a> {
    Cols {
        cols: &'a ColumnarGraph,
        range: Range<usize>,
    },
    Partial(slice::Iter<'a, partial::PartialEdge<'a>>),
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = EdgeCur<'a>;
    fn next(&mut self) -> Option<EdgeCur<'a>> {
        match self {
            EdgeIter::Cols { cols, range } => loop {
                let ix = range.next()?;
                if !cols.edge_is_live(ix) {
                    continue;
                }
                let id = EdgeId::from_index(ix);
                return Some(EdgeCur {
                    id,
                    label: cols.edge_label_sym(id),
                    src: cols.edge_source(id),
                    dst: cols.edge_target(id),
                    props: PropsRef::Cols {
                        keys: cols.edge_prop_syms(id),
                        vids: cols.edge_prop_vids(id),
                        vt: cols.values(),
                    },
                });
            },
            EdgeIter::Partial(it) => it.next().map(|e| EdgeCur {
                id: e.id,
                label: e.label,
                src: e.src,
                dst: e.dst,
                props: PropsRef::Slice(&e.props),
            }),
        }
    }
}

/// Node ids from a per-label index: raw `u32` slots (columnar) or
/// materialised ids (dirty view).
pub(crate) enum NodeIdIter<'a> {
    Raw(slice::Iter<'a, u32>),
    Ids(slice::Iter<'a, NodeId>),
}

impl Iterator for NodeIdIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        match self {
            NodeIdIter::Raw(it) => it.next().map(|&ix| NodeId::from_index(ix as usize)),
            NodeIdIter::Ids(it) => it.next().copied(),
        }
    }
}

/// One adjacency group: a run of edge ids, either a CSR subslice (raw
/// `u32` slots) or a materialised id list (dirty view).
#[derive(Clone, Copy)]
pub(crate) enum EdgeRun<'a> {
    Raw(&'a [u32]),
    Ids(&'a [EdgeId]),
}

impl<'a> EdgeRun<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            EdgeRun::Raw(r) => r.len(),
            EdgeRun::Ids(r) => r.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn iter(&self) -> EdgeRunIter<'a> {
        match *self {
            EdgeRun::Raw(r) => EdgeRunIter::Raw(r.iter()),
            EdgeRun::Ids(r) => EdgeRunIter::Ids(r.iter()),
        }
    }
}

/// Iterator over an [`EdgeRun`], yielding [`EdgeId`]s.
pub(crate) enum EdgeRunIter<'a> {
    Raw(slice::Iter<'a, u32>),
    Ids(slice::Iter<'a, EdgeId>),
}

impl Iterator for EdgeRunIter<'_> {
    type Item = EdgeId;
    fn next(&mut self) -> Option<EdgeId> {
        match self {
            EdgeRunIter::Raw(it) => it.next().map(|&ix| EdgeId::from_index(ix as usize)),
            EdgeRunIter::Ids(it) => it.next().copied(),
        }
    }
}

impl<'a, 'g: 'a> Scope<'a, 'g> {
    /// Whole-graph scope (indexed engine, incremental seeding) over a
    /// frozen columnar view.
    pub(crate) fn full(s: &'a PgSchema, ss: &'a SymSchema, cols: &'a ColumnarGraph) -> Self {
        Scope {
            s,
            ss,
            syms: cols.symbols(),
            view: View::Full { cols },
        }
    }

    /// One worker's contiguous slot ranges of the parallel engine.
    pub(crate) fn shard(
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
            view: View::Shard { cols, nodes, edges },
        }
    }

    /// The dirty region of the incremental engine: `nodes` is the dirty
    /// node closure, `pc` the interned view of it and its incident live
    /// edges (sharing `syms` with `ss`).
    pub(crate) fn dirty(
        g: &'g PropertyGraph,
        s: &'a PgSchema,
        ss: &'a SymSchema,
        syms: &'a SymbolTable,
        pc: &'a PartialCols<'g>,
        nodes: &'a BTreeSet<NodeId>,
    ) -> Self {
        Scope {
            s,
            ss,
            syms,
            view: View::Dirty { g, pc, nodes },
        }
    }

    /// Does this scope own the given node? Group-keyed kernels process
    /// exactly the groups whose key element is owned, which is what
    /// makes shard/dirty evaluation partition-exact.
    #[inline]
    pub(crate) fn owns(&self, n: NodeId) -> bool {
        match &self.view {
            View::Full { .. } => true,
            View::Shard { nodes, .. } => nodes.contains(&n.index()),
            View::Dirty { nodes, .. } => nodes.contains(&n),
        }
    }

    /// The live nodes of the view, in ascending id order.
    pub(crate) fn nodes(&self) -> NodeIter<'a> {
        match &self.view {
            View::Full { cols } => NodeIter::Cols {
                cols,
                range: 0..cols.node_slots(),
            },
            View::Shard { cols, nodes, .. } => NodeIter::Cols {
                cols,
                range: nodes.clone(),
            },
            View::Dirty { pc, .. } => NodeIter::Partial(pc.nodes.iter()),
        }
    }

    /// The live edges of the view, in ascending id order.
    pub(crate) fn edges(&self) -> EdgeIter<'a> {
        match &self.view {
            View::Full { cols } => EdgeIter::Cols {
                cols,
                range: 0..cols.edge_slots(),
            },
            View::Shard { cols, edges, .. } => EdgeIter::Cols {
                cols,
                range: edges.clone(),
            },
            View::Dirty { pc, .. } => EdgeIter::Partial(pc.edges.iter()),
        }
    }

    /// The label symbol of a live node — any node of the graph for the
    /// columnar views; dirty nodes and local-edge endpoints for the
    /// dirty one (exactly the nodes its kernels classify).
    #[inline]
    pub(crate) fn label_sym(&self, n: NodeId) -> Option<Sym> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => {
                if cols.node_is_live(n.index()) {
                    Some(cols.node_label_sym(n))
                } else {
                    None
                }
            }
            View::Dirty { pc, .. } => pc.label_of(n),
        }
    }

    /// The distinct labels with at least one live node in the view's
    /// population, sorted by symbol.
    pub(crate) fn labels(&self) -> &'a [Sym] {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => cols.labels_present(),
            View::Dirty { pc, .. } => pc.labels(),
        }
    }

    /// Live nodes carrying `label` (the whole graph for columnar views,
    /// the dirty set for the dirty one), ascending id order.
    pub(crate) fn nodes_with_label(&self, label: Sym) -> NodeIdIter<'a> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => {
                NodeIdIter::Raw(cols.nodes_with_label(label).iter())
            }
            View::Dirty { pc, .. } => NodeIdIter::Ids(pc.nodes_with_label(label).iter()),
        }
    }

    /// Out-edges of `v` labelled `label` (local edges only under the
    /// dirty view), ascending id order.
    pub(crate) fn out_edges_labelled(&self, v: NodeId, label: Sym) -> EdgeRun<'a> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => {
                EdgeRun::Raw(cols.out_edges_labelled(v, label))
            }
            View::Dirty { pc, .. } => EdgeRun::Ids(pc.out_edges_labelled(v, label)),
        }
    }

    /// In-edges of `v` labelled `label`, ascending id order.
    pub(crate) fn in_edges_labelled(&self, v: NodeId, label: Sym) -> EdgeRun<'a> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => {
                EdgeRun::Raw(cols.in_edges_labelled(v, label))
            }
            View::Dirty { pc, .. } => EdgeRun::Ids(pc.in_edges_labelled(v, label)),
        }
    }

    /// The source endpoint of a live edge.
    #[inline]
    pub(crate) fn edge_source(&self, e: EdgeId) -> Option<NodeId> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => {
                if cols.edge_is_live(e.index()) {
                    Some(cols.edge_source(e))
                } else {
                    None
                }
            }
            View::Dirty { g, .. } => g.edge_endpoints(e).map(|(s, _)| s),
        }
    }

    /// A node's property by key symbol (columnar lookup or dirty-region
    /// lookup).
    #[inline]
    pub(crate) fn node_prop(&self, n: NodeId, key: Sym) -> Option<&'a Value> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => cols.node_prop(n, key),
            View::Dirty { pc, .. } => pc.node_prop(n, key),
        }
    }

    /// The columnar view, when this scope has one (DS7's tuple collect
    /// interns against its value table).
    pub(crate) fn cols(&self) -> Option<&'a ColumnarGraph> {
        match &self.view {
            View::Full { cols } | View::Shard { cols, .. } => Some(cols),
            View::Dirty { .. } => None,
        }
    }

    /// The whole graph behind the dirty view — `None` under the columnar
    /// ones, which read only the columns. DS7 reads `Value` tuples from
    /// it where no value table exists.
    pub(crate) fn graph(&self) -> Option<&'g PropertyGraph> {
        match &self.view {
            View::Dirty { g, .. } => Some(g),
            _ => None,
        }
    }

    /// The dirty node set — `Some` only under the dirty view. DS7's
    /// recheck plan uses this to move exactly the dirty nodes between
    /// key groups.
    pub(crate) fn dirty_nodes(&self) -> Option<&'a BTreeSet<NodeId>> {
        match &self.view {
            View::Dirty { nodes, .. } => Some(nodes),
            _ => None,
        }
    }

    /// Walks every `(source, edge label, edges)` out-group whose source
    /// the scope owns (WS4's groups). `f` returns `false` to stop early.
    pub(crate) fn for_out_groups(&self, f: &mut dyn FnMut(NodeId, Sym, EdgeRun<'a>) -> bool) {
        match &self.view {
            View::Full { cols } => out_groups_cols(cols, 0..cols.node_slots(), f),
            View::Shard { cols, nodes, .. } => out_groups_cols(cols, nodes.clone(), f),
            View::Dirty { pc, nodes, .. } => {
                for (src, label, run) in pc.out_groups() {
                    if !nodes.contains(&src) {
                        continue;
                    }
                    if !f(src, label, EdgeRun::Ids(run)) {
                        return;
                    }
                }
            }
        }
    }

    /// Walks every `(source, target, edges)` parallel-edge group under
    /// `label` whose source the scope owns (DS1's groups).
    pub(crate) fn for_parallel_runs(
        &self,
        label: Sym,
        f: &mut dyn FnMut(NodeId, NodeId, EdgeRun<'a>) -> bool,
    ) {
        match &self.view {
            View::Full { cols } => parallel_runs_cols(cols, 0..cols.node_slots(), label, f),
            View::Shard { cols, nodes, .. } => parallel_runs_cols(cols, nodes.clone(), label, f),
            View::Dirty { pc, nodes, .. } => {
                for (src, dst, run) in pc.parallel_runs(label) {
                    if !nodes.contains(&src) {
                        continue;
                    }
                    if !f(src, dst, EdgeRun::Ids(run)) {
                        return;
                    }
                }
            }
        }
    }

    /// Walks every `(target, edges)` in-group under `label` whose target
    /// the scope owns (DS3's groups).
    pub(crate) fn for_in_runs(&self, label: Sym, f: &mut dyn FnMut(NodeId, EdgeRun<'a>) -> bool) {
        match &self.view {
            View::Full { cols } => in_runs_cols(cols, 0..cols.node_slots(), label, f),
            View::Shard { cols, nodes, .. } => in_runs_cols(cols, nodes.clone(), label, f),
            View::Dirty { pc, nodes, .. } => {
                for (dst, run) in pc.in_runs(label) {
                    if !nodes.contains(&dst) {
                        continue;
                    }
                    if !f(dst, EdgeRun::Ids(run)) {
                        return;
                    }
                }
            }
        }
    }
}

/// CSR walk behind [`Scope::for_out_groups`]: each live node slot's out
/// row, split into label runs (the row is sorted by label first).
fn out_groups_cols<'a>(
    cols: &'a ColumnarGraph,
    range: Range<usize>,
    f: &mut dyn FnMut(NodeId, Sym, EdgeRun<'a>) -> bool,
) {
    for ix in range {
        if !cols.node_is_live(ix) {
            continue;
        }
        let v = NodeId::from_index(ix);
        let row = cols.out_row(v);
        let mut start = 0;
        while start < row.len() {
            let label = cols.edge_label_sym(EdgeId::from_index(row[start] as usize));
            let mut end = start + 1;
            while end < row.len()
                && cols.edge_label_sym(EdgeId::from_index(row[end] as usize)) == label
            {
                end += 1;
            }
            if !f(v, label, EdgeRun::Raw(&row[start..end])) {
                return;
            }
            start = end;
        }
    }
}

/// CSR walk behind [`Scope::for_parallel_runs`]: each live node slot's
/// labelled out run, split into same-target runs (sorted by target
/// within a label run).
fn parallel_runs_cols<'a>(
    cols: &'a ColumnarGraph,
    range: Range<usize>,
    label: Sym,
    f: &mut dyn FnMut(NodeId, NodeId, EdgeRun<'a>) -> bool,
) {
    for ix in range {
        if !cols.node_is_live(ix) {
            continue;
        }
        let v = NodeId::from_index(ix);
        let run = cols.out_edges_labelled(v, label);
        let mut start = 0;
        while start < run.len() {
            let dst = cols.edge_target(EdgeId::from_index(run[start] as usize));
            let mut end = start + 1;
            while end < run.len() && cols.edge_target(EdgeId::from_index(run[end] as usize)) == dst
            {
                end += 1;
            }
            if !f(v, dst, EdgeRun::Raw(&run[start..end])) {
                return;
            }
            start = end;
        }
    }
}

/// CSR walk behind [`Scope::for_in_runs`]: each live node slot's
/// labelled in run (non-empty runs only — a group exists only where an
/// edge does).
fn in_runs_cols<'a>(
    cols: &'a ColumnarGraph,
    range: Range<usize>,
    label: Sym,
    f: &mut dyn FnMut(NodeId, EdgeRun<'a>) -> bool,
) {
    for ix in range {
        if !cols.node_is_live(ix) {
            continue;
        }
        let v = NodeId::from_index(ix);
        let run = cols.in_edges_labelled(v, label);
        if run.is_empty() {
            continue;
        }
        if !f(v, EdgeRun::Raw(run)) {
            return;
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
        }
    }

    /// Emits one violation (dropped, marking the report truncated, once
    /// the limit is reached).
    #[inline]
    pub(crate) fn push(&mut self, v: Violation) {
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
    Map(&'p mut Vec<HashMap<Vec<Option<u32>>, Vec<NodeId>>>),
    /// Move the scope's dirty nodes between the persistent per-key
    /// tables and re-emit exactly the pairs they participate in
    /// (incremental engine). Requires a dirty scope.
    Recheck(&'p mut [KeyTable]),
}

/// Runs every enabled kernel over `scope` in rule order (WS1–WS4,
/// DS1–DS7, SS1–SS4), with `max_violations` early-exit between and
/// within kernels. This is the entire rule schedule; the engines differ
/// only in the scope they build and the [`Ds7Plan`] they pass.
pub(crate) fn run(
    scope: &Scope<'_, '_>,
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
            Ds7Plan::Recheck(tables) => directives::ds7_recheck(scope, sink, tables),
        }
    }
    if options.strong && !scope.s.is_open_world() {
        strong::ss1(scope, sink);
        strong::ss2(scope, sink);
        strong::ss3(scope, sink);
        strong::ss4(scope, sink);
    }
}
