//! A symbol-keyed columnar view over a *dirty region* of a graph.
//!
//! The incremental planner revalidates only the elements a delta
//! touched. Freezing the whole graph into a
//! [`ColumnarGraph`](pgraph::ColumnarGraph) for a handful of dirty
//! nodes would invert the cost model, so the dirty path builds this
//! small interned view instead: the same symbol space and the same
//! adjacency questions the full columnar kernels ask, but materialised
//! only for the dirty nodes and their locally-incident edges.
//!
//! The build interns graph-side strings into a [`SymbolTable`] that
//! already holds the compiled schema's names; strings the schema never
//! mentions land after them and read the `SymSchema` empty row (see the
//! `symschema` module docs for why that is the right answer).

use std::collections::{BTreeSet, HashMap};

use pgraph::{EdgeId, NodeId, PropertyGraph, Sym, SymbolTable, Value};

/// One live dirty node, interned.
pub(crate) struct PartialNode<'g> {
    pub(crate) id: NodeId,
    pub(crate) label: Sym,
    /// Properties in name order (the graph stores them in a `BTreeMap`).
    pub(crate) props: Vec<(Sym, &'g Value)>,
}

/// One live local edge, interned.
pub(crate) struct PartialEdge<'g> {
    pub(crate) id: EdgeId,
    pub(crate) label: Sym,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) props: Vec<(Sym, &'g Value)>,
}

/// The interned dirty-region view. All group maps are keyed the same way
/// the full CSR exposes its runs, so the kernels can treat both
/// uniformly through [`Scope`](super::Scope).
pub(crate) struct PartialCols<'g> {
    /// Live dirty nodes in id order.
    pub(crate) nodes: Vec<PartialNode<'g>>,
    /// Live local edges in id order.
    pub(crate) edges: Vec<PartialEdge<'g>>,
    node_pos: HashMap<NodeId, usize>,
    by_label: HashMap<Sym, Vec<NodeId>>,
    /// `(v, label) → out-edges of v with that label`, id order.
    out: HashMap<(NodeId, Sym), Vec<EdgeId>>,
    /// `(v, label) → in-edges of v with that label`, id order.
    inc: HashMap<(NodeId, Sym), Vec<EdgeId>>,
    /// `(src, label, dst) → parallel edges`, id order (DS1 groups).
    parallel: HashMap<(NodeId, Sym, NodeId), Vec<EdgeId>>,
    /// Labels of dirty nodes *and* of every endpoint of a local edge —
    /// DS1/DS3/DS4 and the weak/strong edge rules classify endpoints
    /// that may themselves be outside the dirty set.
    label_of: HashMap<NodeId, Sym>,
    /// Distinct labels of live dirty nodes, sorted by symbol.
    labels: Vec<Sym>,
}

impl<'g> PartialCols<'g> {
    /// Interns the dirty region of `g`. `dirty` are the nodes to
    /// revalidate; `local_edges` the edges incident to them (both may
    /// contain ids that are no longer live — tombstones are skipped).
    pub(crate) fn build(
        g: &'g PropertyGraph,
        dirty: &BTreeSet<NodeId>,
        local_edges: &BTreeSet<EdgeId>,
        symbols: &mut SymbolTable,
    ) -> PartialCols<'g> {
        let mut pc = PartialCols {
            nodes: Vec::new(),
            edges: Vec::new(),
            node_pos: HashMap::new(),
            by_label: HashMap::new(),
            out: HashMap::new(),
            inc: HashMap::new(),
            parallel: HashMap::new(),
            label_of: HashMap::new(),
            labels: Vec::new(),
        };
        for &id in dirty {
            let Some(n) = g.node(id) else { continue };
            let label = symbols.intern(n.label());
            let props: Vec<(Sym, &'g Value)> = n
                .properties()
                .map(|(k, v)| (symbols.intern(k), v))
                .collect();
            pc.node_pos.insert(id, pc.nodes.len());
            pc.by_label.entry(label).or_default().push(id);
            pc.label_of.insert(id, label);
            pc.nodes.push(PartialNode { id, label, props });
        }
        for &id in local_edges {
            let Some(e) = g.edge(id) else { continue };
            let label = symbols.intern(e.label());
            let (src, dst) = (e.source(), e.target());
            for end in [src, dst] {
                if let Some(l) = g.node_label(end) {
                    let sym = symbols.intern(l);
                    pc.label_of.entry(end).or_insert(sym);
                }
            }
            let props: Vec<(Sym, &'g Value)> = e
                .properties()
                .map(|(k, v)| (symbols.intern(k), v))
                .collect();
            pc.out.entry((src, label)).or_default().push(id);
            pc.inc.entry((dst, label)).or_default().push(id);
            pc.parallel.entry((src, label, dst)).or_default().push(id);
            pc.edges.push(PartialEdge {
                id,
                label,
                src,
                dst,
                props,
            });
        }
        pc.labels = pc.by_label.keys().copied().collect();
        pc.labels.sort_unstable();
        pc
    }

    /// Live dirty nodes with this label, in insertion (= id) order.
    pub(crate) fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        self.by_label.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Local out-edges of `v` with `label`, in id order.
    pub(crate) fn out_edges_labelled(&self, v: NodeId, label: Sym) -> &[EdgeId] {
        self.out.get(&(v, label)).map_or(&[], Vec::as_slice)
    }

    /// Local in-edges of `v` with `label`, in id order.
    pub(crate) fn in_edges_labelled(&self, v: NodeId, label: Sym) -> &[EdgeId] {
        self.inc.get(&(v, label)).map_or(&[], Vec::as_slice)
    }

    /// The label symbol of a dirty node or a local-edge endpoint.
    pub(crate) fn label_of(&self, v: NodeId) -> Option<Sym> {
        self.label_of.get(&v).copied()
    }

    /// A dirty node's property by key symbol.
    pub(crate) fn node_prop(&self, v: NodeId, key: Sym) -> Option<&'g Value> {
        let &pos = self.node_pos.get(&v)?;
        self.nodes[pos]
            .props
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Distinct labels of the live dirty nodes, sorted by symbol.
    pub(crate) fn labels(&self) -> &[Sym] {
        &self.labels
    }

    /// All `(src, label, run)` out-groups among local edges (WS4's
    /// groups). Order is unspecified; callers canonicalise.
    pub(crate) fn out_groups(&self) -> impl Iterator<Item = (NodeId, Sym, &[EdgeId])> {
        self.out
            .iter()
            .map(|(&(src, label), run)| (src, label, run.as_slice()))
    }

    /// All `(src, dst, run)` parallel groups with `label` (DS1's groups).
    pub(crate) fn parallel_runs(
        &self,
        label: Sym,
    ) -> impl Iterator<Item = (NodeId, NodeId, &[EdgeId])> {
        self.parallel
            .iter()
            .filter(move |(&(_, l, _), _)| l == label)
            .map(|(&(src, _, dst), run)| (src, dst, run.as_slice()))
    }

    /// All `(target, run)` in-groups with `label` (DS3's groups).
    pub(crate) fn in_runs(&self, label: Sym) -> impl Iterator<Item = (NodeId, &[EdgeId])> {
        self.inc
            .iter()
            .filter(move |(&(_, l), _)| l == label)
            .map(|(&(dst, _), run)| (dst, run.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_interns_dirty_region_and_endpoint_labels() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("User");
        let b = g.add_node("User");
        let c = g.add_node("Org");
        g.set_node_property(a, "login", Value::from("a"));
        let e1 = g.add_edge(a, b, "follows").unwrap();
        let e2 = g.add_edge(a, b, "follows").unwrap();
        let e3 = g.add_edge(a, c, "member").unwrap();

        // Only `a` is dirty; b and c are reachable endpoints only.
        let dirty: BTreeSet<NodeId> = [a].into();
        let local: BTreeSet<EdgeId> = [e1, e2, e3].into();
        let mut syms = SymbolTable::new();
        let pc = PartialCols::build(&g, &dirty, &local, &mut syms);

        let user = syms.lookup("User").unwrap();
        let org = syms.lookup("Org").unwrap();
        let follows = syms.lookup("follows").unwrap();
        assert_eq!(pc.nodes.len(), 1);
        assert_eq!(pc.edges.len(), 3);
        assert_eq!(pc.nodes_with_label(user), &[a]);
        assert_eq!(pc.out_edges_labelled(a, follows), &[e1, e2]);
        assert_eq!(pc.in_edges_labelled(b, follows), &[e1, e2]);
        // Non-dirty endpoints still classify.
        assert_eq!(pc.label_of(b), Some(user));
        assert_eq!(pc.label_of(c), Some(org));
        // Parallel groups.
        let runs: Vec<_> = pc.parallel_runs(follows).collect();
        assert_eq!(runs, vec![(a, b, &[e1, e2][..])]);
        // Property lookup by symbol.
        let login = syms.lookup("login").unwrap();
        assert_eq!(pc.node_prop(a, login), Some(&Value::from("a")));
        assert_eq!(pc.node_prop(b, login), None);
    }

    #[test]
    fn tombstoned_ids_are_skipped() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("T");
        let b = g.add_node("T");
        let e = g.add_edge(a, b, "r").unwrap();
        g.remove_node(b).unwrap(); // removes e too
        let dirty: BTreeSet<NodeId> = [a, b].into();
        let local: BTreeSet<EdgeId> = [e].into();
        let mut syms = SymbolTable::new();
        let pc = PartialCols::build(&g, &dirty, &local, &mut syms);
        assert_eq!(pc.nodes.len(), 1);
        assert!(pc.edges.is_empty());
        assert_eq!(pc.labels().len(), 1);
    }
}
