//! Columnar (struct-of-arrays) graph representation with CSR adjacency.
//!
//! [`PropertyGraph`] is the *mutable* element store: a `Vec` of per-element
//! structs whose properties live in `BTreeMap<String, Value>`, with
//! unlabelled per-node incidence lists. That shape is right for deltas but
//! wrong for validation, where the 15 rule kernels are dominated by label
//! comparisons, property lookups and labelled neighbourhood scans — every
//! one of which pays pointer chasing and string hashing in the map-shaped
//! form.
//!
//! [`ColumnarGraph`] holds a graph as dense parallel columns. One
//! assembler, [`ColumnsBuilder`], appends to them: [`ColumnarGraph::freeze`]
//! walks a graph's rows into it, and the JSON decoder
//! ([`crate::json::read_graph`]) feeds it straight from the text through
//! [`GraphSink`], with no rows in between. [`GraphSink`] is the one way
//! any source builds a graph: its other sink is the rows, which
//! [`ColumnarGraph::thaw`], `PGCS` images, the binary codec and CSV
//! feed slot by slot. Either way:
//!
//! * labels and property keys become [`Sym`]s in one [`SymbolTable`];
//! * property values are deduplicated into a [`ValueTable`] and referred
//!   to by `u32` value ids;
//! * per-element property lists are flattened into `(start, keys, vals)`
//!   prefix-sum columns, sorted by key symbol so lookup is a binary
//!   search over a handful of `u32`s;
//! * adjacency is CSR (compressed sparse row) in **both** directions,
//!   each row sorted by `(label, neighbour, edge id)` so "edges of `v`
//!   labelled `l`" is a subslice and parallel-edge groups are contiguous
//!   runs;
//! * a label index CSR maps each label symbol to the sorted slice of
//!   live nodes carrying it.
//!
//! Tombstoned slots keep their label and properties in the columns (the
//! id space must round-trip exactly — see [`crate::binary`]) but are
//! excluded from the CSR and label indexes. The frozen form is immutable;
//! [`ColumnarGraph::thaw`] rebuilds an identical [`PropertyGraph`].
//!
//! The columns (not the derived CSR) are also the on-disk snapshot
//! layout — see [`crate::snapshot`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::symbols::{Sym, SymbolTable};
use crate::{EdgeId, NodeId, PropertyGraph, Value};

/// Interned property values, deduplicated two ways.
///
/// *Storage identity* is bit-exact: two values share a value id iff they
/// are the same variant with the same bits (floats by `to_bits`, lists
/// item by item), so NaN payloads and `-0.0` survive a round-trip
/// untouched. One index finds them: a keyed hash of a value's exact bits
/// maps to the newest id with that hash, and `prev` chains each id to the
/// next older one with the same hash.
///
/// *Comparison identity* follows [`Value`]'s `Eq` (which canonicalises
/// floats: every NaN is equal to every NaN, `-0.0 == 0.0`):
/// [`ValueTable::eq_rep`] maps each value id to the id of the first value
/// in its equivalence class, so kernels that ask "do these two properties
/// agree?" (DS7) compare two `u32`s. A value with no float in it is the
/// only member of its class; only float-bearing values consult a class
/// map, which holds one clone per class.
#[derive(Debug, Clone, Default)]
pub struct ValueTable {
    exact: Vec<Value>,
    eq_rep: Vec<u32>,
    /// Keyed hash of a value's exact bits → the newest id with that hash.
    by_bits: HashMap<u64, u32>,
    /// Per id, the next older id with the same hash; [`NO_ID`] ends it.
    prev: Vec<u32>,
    /// `Value`-equality class → its first id, for float-bearing values.
    float_classes: HashMap<Value, u32>,
}

/// The end of a `prev` chain.
const NO_ID: u32 = u32::MAX;

impl ValueTable {
    /// Interns a value, returning its (bit-exact) value id. A new value
    /// is moved in if owned and cloned once if borrowed; a value already
    /// held is dropped.
    pub fn intern<'v>(&mut self, v: impl Into<Cow<'v, Value>>) -> u32 {
        let v = v.into();
        let hash = self.by_bits.hasher().hash_one(ExactBits(&v));
        let head = self.by_bits.entry(hash).or_insert(NO_ID);
        let mut at = *head;
        while at != NO_ID {
            if same_bits(&self.exact[at as usize], &v) {
                return at;
            }
            at = self.prev[at as usize];
        }
        let id = self.exact.len() as u32;
        self.prev.push(std::mem::replace(head, id));
        let rep = if holds_float(&v) {
            *self.float_classes.entry((*v).clone()).or_insert(id)
        } else {
            id
        };
        self.exact.push(v.into_owned());
        self.eq_rep.push(rep);
        id
    }

    /// The exact stored value behind an id.
    pub fn value(&self, id: u32) -> &Value {
        &self.exact[id as usize]
    }

    /// The representative id of `id`'s `Value`-equality class.
    pub fn eq_rep(&self, id: u32) -> u32 {
        self.eq_rep[id as usize]
    }

    /// Number of distinct (bit-exact) values.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// All stored values in id order.
    pub fn values(&self) -> &[Value] {
        &self.exact
    }
}

/// Hashes a value by its exact bits: the identity [`same_bits`] decides.
struct ExactBits<'a>(&'a Value);

impl Hash for ExactBits<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self.0).hash(h);
        match self.0 {
            Value::Int(i) => i.hash(h),
            Value::Float(f) => f.to_bits().hash(h),
            Value::String(s) | Value::Id(s) | Value::Enum(s) => s.hash(h),
            Value::Bool(b) => b.hash(h),
            Value::List(items) => {
                items.len().hash(h);
                items.iter().for_each(|item| ExactBits(item).hash(h));
            }
            Value::Null => {}
        }
    }
}

/// Same variant, same bits: floats by `to_bits`, lists item by item.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Whether `Value`'s `Eq` can identify `v` with other bits: a float, or a
/// list with one inside.
fn holds_float(v: &Value) -> bool {
    match v {
        Value::Float(_) => true,
        Value::List(items) => items.iter().any(holds_float),
        _ => false,
    }
}

/// The frozen, columnar form of a [`PropertyGraph`].
///
/// All columns are parallel to the raw id space (tombstones included);
/// derived CSR indexes cover live elements only. See the module docs for
/// the layout.
#[derive(Debug, Clone)]
pub struct ColumnarGraph {
    pub(crate) symbols: SymbolTable,
    pub(crate) values: ValueTable,

    pub(crate) node_alive: Vec<bool>,
    pub(crate) node_label: Vec<Sym>,
    pub(crate) node_prop_start: Vec<u32>,
    pub(crate) node_prop_keys: Vec<Sym>,
    pub(crate) node_prop_vals: Vec<u32>,

    pub(crate) edge_alive: Vec<bool>,
    pub(crate) edge_label: Vec<Sym>,
    pub(crate) edge_src: Vec<u32>,
    pub(crate) edge_dst: Vec<u32>,
    pub(crate) edge_prop_start: Vec<u32>,
    pub(crate) edge_prop_keys: Vec<Sym>,
    pub(crate) edge_prop_vals: Vec<u32>,

    // Derived — built by `ColumnsBuilder::finish`, never serialised.
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    in_start: Vec<u32>,
    in_edges: Vec<u32>,
    label_start: Vec<u32>,
    label_nodes: Vec<u32>,
    labels_present: Vec<Sym>,
}

impl ColumnarGraph {
    /// Freezes a graph into columns. Deterministic: symbols and value ids
    /// are assigned by one fixed walk (node slots in id order — label
    /// first, then property keys in name order — then edge slots), so the
    /// same graph always freezes to the same bytes.
    pub fn freeze(g: &PropertyGraph) -> ColumnarGraph {
        Self::freeze_into(g, SymbolTable::new())
    }

    /// Freezes a graph onto a symbol table that already holds other
    /// strings (a compiled schema's names): the same walk as
    /// [`freeze`](Self::freeze), with graph strings the table already
    /// knows keeping their symbol and the rest appended after it. The
    /// result thaws to the same graph; only the symbol numbering differs.
    pub fn freeze_into(g: &PropertyGraph, symbols: SymbolTable) -> ColumnarGraph {
        let mut b = ColumnsBuilder::new(symbols);
        for data in &g.nodes {
            b.push_node(data.alive, &data.label, &data.props);
        }
        for data in &g.edges {
            let ends = (data.src.index() as u32, data.dst.index() as u32);
            b.push_edge(data.alive, &data.label, ends, &data.props);
        }
        b.finish()
    }

    /// Empty columns over `symbols`, derived indexes not yet built.
    fn empty(symbols: SymbolTable) -> ColumnarGraph {
        ColumnarGraph {
            symbols,
            values: ValueTable::default(),
            node_alive: Vec::new(),
            node_label: Vec::new(),
            node_prop_start: vec![0],
            node_prop_keys: Vec::new(),
            node_prop_vals: Vec::new(),
            edge_alive: Vec::new(),
            edge_label: Vec::new(),
            edge_src: Vec::new(),
            edge_dst: Vec::new(),
            edge_prop_start: vec![0],
            edge_prop_keys: Vec::new(),
            edge_prop_vals: Vec::new(),
            out_start: Vec::new(),
            out_edges: Vec::new(),
            in_start: Vec::new(),
            in_edges: Vec::new(),
            label_start: Vec::new(),
            label_nodes: Vec::new(),
            labels_present: Vec::new(),
        }
    }

    /// Builds the CSR adjacency and label indexes from the columns.
    fn rebuild_derived(&mut self) {
        let n = self.node_alive.len();

        // Out-CSR: live edge ids sorted by (src, label, dst, id); rows are
        // then label-runs, and within a label, target-runs (= parallel
        // edge groups).
        let mut out: Vec<u32> = (0..self.edge_alive.len() as u32)
            .filter(|&e| self.edge_alive[e as usize])
            .collect();
        out.sort_unstable_by_key(|&e| {
            let ix = e as usize;
            (self.edge_src[ix], self.edge_label[ix], self.edge_dst[ix], e)
        });
        self.out_start = prefix_counts(n, out.iter().map(|&e| self.edge_src[e as usize]));
        self.out_edges = out;

        let mut inc: Vec<u32> = (0..self.edge_alive.len() as u32)
            .filter(|&e| self.edge_alive[e as usize])
            .collect();
        inc.sort_unstable_by_key(|&e| {
            let ix = e as usize;
            (self.edge_dst[ix], self.edge_label[ix], self.edge_src[ix], e)
        });
        self.in_start = prefix_counts(n, inc.iter().map(|&e| self.edge_dst[e as usize]));
        self.in_edges = inc;

        // Label index: live node ids grouped by label symbol.
        let mut by_label: Vec<u32> = (0..n as u32)
            .filter(|&v| self.node_alive[v as usize])
            .collect();
        by_label.sort_unstable_by_key(|&v| (self.node_label[v as usize], v));
        self.label_start = prefix_counts(
            self.symbols.len(),
            by_label.iter().map(|&v| self.node_label[v as usize].0),
        );
        self.labels_present = {
            let mut syms: Vec<Sym> = by_label
                .iter()
                .map(|&v| self.node_label[v as usize])
                .collect();
            syms.dedup();
            syms
        };
        self.label_nodes = by_label;
    }

    /// Rebuilds the mutable [`PropertyGraph`] the columns were frozen
    /// from, `PartialEq`-identical to the original (tombstones included):
    /// every slot goes through the rows' [`GraphSink`] in slot order.
    pub fn thaw(&self) -> PropertyGraph {
        let mut g = PropertyGraph::with_capacity(self.node_slots(), self.edge_slots());
        let mut props = Props::new();
        for ix in 0..self.node_slots() {
            let (a, b) = (self.node_prop_start[ix], self.node_prop_start[ix + 1]);
            self.element_props(&mut props, a..b, &self.node_prop_keys, &self.node_prop_vals);
            let label = self.symbols.resolve(self.node_label[ix]);
            GraphSink::node(&mut g, self.node_alive[ix], label, &mut props);
        }
        for ix in 0..self.edge_slots() {
            let (a, b) = (self.edge_prop_start[ix], self.edge_prop_start[ix + 1]);
            self.element_props(&mut props, a..b, &self.edge_prop_keys, &self.edge_prop_vals);
            let ends = (self.edge_src[ix], self.edge_dst[ix]);
            let label = self.symbols.resolve(self.edge_label[ix]);
            GraphSink::edge(&mut g, self.edge_alive[ix], ends, label, &mut props);
        }
        g
    }

    /// One element's properties, put in name order for a [`GraphSink`]:
    /// the columns hold them in symbol order.
    fn element_props<'s>(
        &'s self,
        props: &mut Props<'s>,
        range: std::ops::Range<u32>,
        keys: &[Sym],
        vals: &[u32],
    ) {
        props.extend(range.map(|i| {
            let i = i as usize;
            let name = self.symbols.resolve(keys[i]);
            (Cow::Borrowed(name), self.values.value(vals[i]).clone())
        }));
        sort_props(props);
    }

    // ------------------------------------------------------------ access

    /// The intern table (labels, property keys).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Hands the intern table back, dropping the columns.
    pub fn into_symbols(self) -> SymbolTable {
        self.symbols
    }

    /// The value pool.
    pub fn values(&self) -> &ValueTable {
        &self.values
    }

    /// Raw node slot count (tombstones included).
    pub fn node_slots(&self) -> usize {
        self.node_alive.len()
    }

    /// Raw edge slot count (tombstones included).
    pub fn edge_slots(&self) -> usize {
        self.edge_alive.len()
    }

    /// Whether node slot `ix` is live.
    pub fn node_is_live(&self, ix: usize) -> bool {
        self.node_alive.get(ix).copied().unwrap_or(false)
    }

    /// Whether edge slot `ix` is live.
    pub fn edge_is_live(&self, ix: usize) -> bool {
        self.edge_alive.get(ix).copied().unwrap_or(false)
    }

    /// Label symbol of a node slot (live or tombstoned).
    pub fn node_label_sym(&self, n: NodeId) -> Sym {
        self.node_label[n.index()]
    }

    /// Label symbol of an edge slot.
    pub fn edge_label_sym(&self, e: EdgeId) -> Sym {
        self.edge_label[e.index()]
    }

    /// Source of an edge slot.
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_src[e.index()] as usize)
    }

    /// Target of an edge slot.
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_dst[e.index()] as usize)
    }

    /// Property key symbols of a node, sorted.
    pub fn node_prop_syms(&self, n: NodeId) -> &[Sym] {
        let (a, b) = self.node_prop_range(n);
        &self.node_prop_keys[a..b]
    }

    /// Property value ids of a node, parallel to
    /// [`node_prop_syms`](Self::node_prop_syms).
    pub fn node_prop_vids(&self, n: NodeId) -> &[u32] {
        let (a, b) = self.node_prop_range(n);
        &self.node_prop_vals[a..b]
    }

    /// Property key symbols of an edge, sorted.
    pub fn edge_prop_syms(&self, e: EdgeId) -> &[Sym] {
        let (a, b) = self.edge_prop_range(e);
        &self.edge_prop_keys[a..b]
    }

    /// Property value ids of an edge.
    pub fn edge_prop_vids(&self, e: EdgeId) -> &[u32] {
        let (a, b) = self.edge_prop_range(e);
        &self.edge_prop_vals[a..b]
    }

    /// `σ(v, key)` by symbol — binary search over the node's key column.
    pub fn node_prop(&self, n: NodeId, key: Sym) -> Option<&Value> {
        self.node_prop_vid(n, key).map(|vid| self.values.value(vid))
    }

    /// The value id of `σ(v, key)`, if defined.
    pub fn node_prop_vid(&self, n: NodeId, key: Sym) -> Option<u32> {
        let (a, b) = self.node_prop_range(n);
        let keys = &self.node_prop_keys[a..b];
        keys.binary_search(&key)
            .ok()
            .map(|i| self.node_prop_vals[a + i])
    }

    fn node_prop_range(&self, n: NodeId) -> (usize, usize) {
        let ix = n.index();
        (
            self.node_prop_start[ix] as usize,
            self.node_prop_start[ix + 1] as usize,
        )
    }

    fn edge_prop_range(&self, e: EdgeId) -> (usize, usize) {
        let ix = e.index();
        (
            self.edge_prop_start[ix] as usize,
            self.edge_prop_start[ix + 1] as usize,
        )
    }

    /// Out-CSR row of `v`: live out-edge ids sorted by
    /// `(label, target, id)`. Empty for out-of-range ids.
    pub fn out_row(&self, v: NodeId) -> &[u32] {
        csr_row(&self.out_start, &self.out_edges, v.index())
    }

    /// In-CSR row of `v`: live in-edge ids sorted by `(label, source, id)`.
    pub fn in_row(&self, v: NodeId) -> &[u32] {
        csr_row(&self.in_start, &self.in_edges, v.index())
    }

    /// Live out-edges of `v` labelled `label` — a subslice of
    /// [`out_row`](Self::out_row), found by binary search. Zero
    /// allocation.
    pub fn out_edges_labelled(&self, v: NodeId, label: Sym) -> &[u32] {
        label_run(self.out_row(v), &self.edge_label, label)
    }

    /// Live in-edges of `v` labelled `label`.
    pub fn in_edges_labelled(&self, v: NodeId, label: Sym) -> &[u32] {
        label_run(self.in_row(v), &self.edge_label, label)
    }

    /// Sorted live node ids labelled `label`. Empty for symbols no live
    /// node carries (e.g. seeded schema names) and for foreign symbols.
    pub fn nodes_with_label(&self, label: Sym) -> &[u32] {
        csr_row(&self.label_start, &self.label_nodes, label.index())
    }

    /// Sorted distinct label symbols with at least one live node.
    pub fn labels_present(&self) -> &[Sym] {
        &self.labels_present
    }
}

/// A property list handed to a [`GraphSink`]: keys in name order, no key
/// twice.
pub type Props<'a> = Vec<(Cow<'a, str>, Value)>;

/// Puts an element's properties in name order, the last of a repeated
/// key winning (the stable sort keeps repeats in source order): how a
/// source whose keys arrive in another order meets [`Props`]' contract.
pub(crate) fn sort_props(props: &mut Props<'_>) {
    props.sort_by(|a, b| a.0.cmp(&b.0));
    props.dedup_by(|later, kept| {
        let repeat = later.0 == kept.0;
        if repeat {
            std::mem::swap(&mut later.1, &mut kept.1);
        }
        repeat
    });
}

/// Where every graph source puts what it reads: one call per slot, nodes
/// first, each slot given the next dense id in call order, tombstones
/// included, so a source that preserves an id space reproduces it
/// exactly. The two sinks are the mutable rows ([`PropertyGraph`]) and
/// the frozen columns ([`ColumnsBuilder`]); the sources are the JSON
/// document ([`crate::json::read_graph`]), the binary codec
/// ([`crate::binary::graph_from_bytes`]), `PGCS` images
/// ([`crate::snapshot::SnapshotView::thaw`]), the columns themselves
/// ([`ColumnarGraph::thaw`]) and CSV ([`crate::csv::from_csv`]).
///
/// The contract: an edge joins node slots already appended, and a live
/// edge joins live nodes. Sources check it and refuse their input
/// otherwise; the sinks assert it.
pub trait GraphSink {
    /// Appends the next node slot. The sink takes the properties out of
    /// `props`, leaving it empty for the next element.
    fn node(&mut self, alive: bool, label: &str, props: &mut Props<'_>);
    /// Appends the next edge slot, from node slot `ends.0` to `ends.1`.
    fn edge(&mut self, alive: bool, ends: (u32, u32), label: &str, props: &mut Props<'_>);
}

/// The one column assembler: elements are appended in slot order and the
/// CSR adjacency and label index are built once, in
/// [`finish`](Self::finish).
///
/// Labels, keys and values are interned as they arrive — for each
/// element its label, then its keys (with their values) in name order —
/// so [`ColumnarGraph::freeze_into`], which walks the rows into a
/// builder, and a decoder that feeds one the same graph produce the same
/// columns.
#[derive(Debug)]
pub struct ColumnsBuilder {
    cols: ColumnarGraph,
    /// One element's `(key, value id)` pairs, for the sort by symbol.
    scratch: Vec<(Sym, u32)>,
}

impl ColumnsBuilder {
    /// Starts empty columns over `symbols`, which may already hold other
    /// strings (a compiled schema's names).
    pub fn new(symbols: SymbolTable) -> ColumnsBuilder {
        ColumnsBuilder {
            cols: ColumnarGraph::empty(symbols),
            scratch: Vec::new(),
        }
    }

    /// Appends the next node slot. `props` must be in name order with no
    /// key twice; each value is moved in if owned and new, cloned if
    /// borrowed and new, and dropped if the pool already holds it.
    pub fn push_node<'v>(
        &mut self,
        alive: bool,
        label: &str,
        props: impl IntoIterator<Item = (impl AsRef<str>, impl Into<Cow<'v, Value>>)>,
    ) {
        let sym = self.cols.symbols.intern(label);
        self.cols.node_alive.push(alive);
        self.cols.node_label.push(sym);
        self.intern_props(props);
        let c = &mut self.cols;
        c.node_prop_keys
            .extend(self.scratch.iter().map(|&(k, _)| k));
        c.node_prop_vals
            .extend(self.scratch.iter().map(|&(_, v)| v));
        c.node_prop_start.push(c.node_prop_keys.len() as u32);
    }

    /// Appends the next edge slot between two node slots already
    /// appended, both live if the edge is; `props` as for
    /// [`push_node`](Self::push_node).
    pub fn push_edge<'v>(
        &mut self,
        alive: bool,
        label: &str,
        (source, target): (u32, u32),
        props: impl IntoIterator<Item = (impl AsRef<str>, impl Into<Cow<'v, Value>>)>,
    ) {
        for n in [source, target] {
            let node = self.cols.node_alive.get(n as usize);
            assert!(node.is_some(), "edge to a node slot not appended");
            assert!(
                !alive || node == Some(&true),
                "live edge to a tombstoned node"
            );
        }
        let sym = self.cols.symbols.intern(label);
        self.cols.edge_alive.push(alive);
        self.cols.edge_label.push(sym);
        self.cols.edge_src.push(source);
        self.cols.edge_dst.push(target);
        self.intern_props(props);
        let c = &mut self.cols;
        c.edge_prop_keys
            .extend(self.scratch.iter().map(|&(k, _)| k));
        c.edge_prop_vals
            .extend(self.scratch.iter().map(|&(_, v)| v));
        c.edge_prop_start.push(c.edge_prop_keys.len() as u32);
    }

    /// Interns one element's properties (in name order, keys and values
    /// interleaved) into `scratch`, sorted by key symbol — not by name:
    /// lookup binary-searches symbols.
    fn intern_props<'v>(
        &mut self,
        props: impl IntoIterator<Item = (impl AsRef<str>, impl Into<Cow<'v, Value>>)>,
    ) {
        let (symbols, values) = (&mut self.cols.symbols, &mut self.cols.values);
        self.scratch.clear();
        self.scratch.extend(
            props
                .into_iter()
                .map(|(name, value)| (symbols.intern(name.as_ref()), values.intern(value))),
        );
        self.scratch.sort_unstable_by_key(|&(k, _)| k);
    }

    /// Builds the derived indexes and hands over the columns.
    pub fn finish(mut self) -> ColumnarGraph {
        self.cols.rebuild_derived();
        self.cols
    }
}

/// Hands each decoded value over owned, so a new one is moved into the
/// pool rather than cloned.
impl GraphSink for ColumnsBuilder {
    fn node(&mut self, alive: bool, label: &str, props: &mut Props<'_>) {
        self.push_node(alive, label, props.drain(..));
    }

    fn edge(&mut self, alive: bool, ends: (u32, u32), label: &str, props: &mut Props<'_>) {
        self.push_edge(alive, label, ends, props.drain(..));
    }
}

/// Builds a CSR `start` array of length `bins + 1` from an iterator of
/// bin keys that is sorted ascending.
fn prefix_counts(bins: usize, sorted_keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; bins + 1];
    for k in sorted_keys {
        start[k as usize + 1] += 1;
    }
    for i in 0..bins {
        start[i + 1] += start[i];
    }
    start
}

fn csr_row<'a>(start: &[u32], items: &'a [u32], ix: usize) -> &'a [u32] {
    if ix + 1 >= start.len() {
        return &[];
    }
    &items[start[ix] as usize..start[ix + 1] as usize]
}

/// The `(label == l)` run inside a row sorted by label-first order.
fn label_run<'a>(row: &'a [u32], edge_label: &[Sym], label: Sym) -> &'a [u32] {
    let lo = row.partition_point(|&e| edge_label[e as usize] < label);
    let hi = row.partition_point(|&e| edge_label[e as usize] <= label);
    &row[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("a", "User")
            .prop("a", "login", "alice")
            .prop("a", "age", 30i64)
            .node("b", "User")
            .prop("b", "login", "bob")
            .node("s", "Session")
            .edge("a", "b", "follows")
            .edge("a", "b", "follows")
            .edge("s", "a", "user")
            .build()
            .unwrap();
        let doomed = g.add_node("Doomed");
        g.set_node_property(doomed, "x", Value::Int(1));
        g.remove_node(doomed).unwrap();
        g
    }

    #[test]
    fn freeze_thaw_round_trips_including_tombstones() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        assert_eq!(cg.thaw(), g);
        assert_eq!(cg.node_slots(), g.node_index_bound());
    }

    #[test]
    fn label_index_covers_live_nodes_only() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let user = cg.symbols().lookup("User").unwrap();
        assert_eq!(cg.nodes_with_label(user).len(), 2);
        let doomed = cg.symbols().lookup("Doomed").unwrap();
        assert_eq!(cg.nodes_with_label(doomed).len(), 0);
        // A seeded symbol no node carries, and one past the table, both
        // resolve to an empty slice.
        let mut seed = SymbolTable::new();
        let fresh = seed.intern("Fresh");
        let cg = ColumnarGraph::freeze_into(&g, seed);
        assert_eq!(cg.nodes_with_label(fresh).len(), 0);
        assert_eq!(cg.nodes_with_label(Sym::from_index(10_000)).len(), 0);
        assert_eq!(cg.out_row(NodeId::from_index(9999)).len(), 0);
    }

    #[test]
    fn csr_rows_group_labels_and_parallels() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let a = NodeId::from_index(0);
        let follows = cg.symbols().lookup("follows").unwrap();
        let user = cg.symbols().lookup("user").unwrap();
        assert_eq!(cg.out_edges_labelled(a, follows).len(), 2);
        assert_eq!(cg.out_edges_labelled(a, user).len(), 0);
        assert_eq!(cg.in_edges_labelled(a, user).len(), 1);
        // The two parallel follows edges are adjacent in the row.
        let row = cg.out_row(a);
        assert_eq!(row.len(), 2);
        assert_eq!(
            cg.edge_target(EdgeId::from_index(row[0] as usize)),
            cg.edge_target(EdgeId::from_index(row[1] as usize))
        );
    }

    #[test]
    fn property_lookup_by_symbol() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let a = NodeId::from_index(0);
        let login = cg.symbols().lookup("login").unwrap();
        assert_eq!(cg.node_prop(a, login), Some(&Value::from("alice")));
        let age = cg.symbols().lookup("age").unwrap();
        assert_eq!(cg.node_prop(a, age), Some(&Value::Int(30)));
        let absent = Sym::from_index(10_000);
        assert_eq!(cg.node_prop(a, absent), None);
    }

    #[test]
    fn value_table_separates_exact_and_eq_identity() {
        let mut t = ValueTable::default();
        // Owned and borrowed values intern alike.
        let (zero, neg) = (t.intern(Value::Float(0.0)), Value::Float(-0.0));
        let neg_zero = t.intern(&neg);
        // Bit-distinct → distinct ids; Value-equal → same representative.
        assert_ne!(zero, neg_zero);
        assert_eq!(t.eq_rep(zero), t.eq_rep(neg_zero));
        assert_eq!(t.value(neg_zero).to_string(), neg.to_string());
        // Identical bits → identical id.
        assert_eq!(t.intern(Value::Float(0.0)), zero);
        let i = t.intern(Value::Int(0));
        assert_ne!(t.eq_rep(i), t.eq_rep(zero));
    }

    #[test]
    fn bit_distinct_nans_hash_apart_and_share_one_class() {
        // A hash that canonicalised floats would put every NaN payload in
        // one chain and make interning them quadratic.
        let mut t = ValueTable::default();
        let nan = f64::NAN.to_bits() & !0xFFFF;
        let nans: Vec<u32> = (0..1u64 << 16)
            .map(|payload| t.intern(Value::Float(f64::from_bits(nan | payload))))
            .collect();
        let zeros = [0.0, -0.0].map(|z| t.intern(Value::Float(z)));
        assert_eq!(t.len(), nans.len() + 2, "every payload is its own value");
        assert!(
            t.prev.iter().all(|&older| older == NO_ID),
            "a chain holds two ids"
        );
        assert!(nans.iter().all(|&id| t.eq_rep(id) == nans[0]));
        assert_eq!(t.eq_rep(zeros[1]), zeros[0]);
        assert_ne!(zeros[0], nans[0]);
    }

    #[test]
    fn empty_graph_freezes() {
        let g = PropertyGraph::new();
        let cg = ColumnarGraph::freeze(&g);
        assert_eq!(cg.thaw(), g);
        assert!(cg.labels_present().is_empty());
    }
}
