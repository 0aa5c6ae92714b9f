//! Structural statistics, used by the benchmark harness to characterise
//! generated workloads (the "workload parameters" columns of
//! EXPERIMENTS.md).

use std::collections::BTreeMap;

use crate::PropertyGraph;

/// A summary of one Property Graph instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub nodes: usize,
    /// `|E|`.
    pub edges: usize,
    /// Count of nodes per label.
    pub nodes_per_label: BTreeMap<String, usize>,
    /// Count of edges per label.
    pub edges_per_label: BTreeMap<String, usize>,
    /// Total node properties (`|dom(σ) ∩ (V × Props)|`).
    pub node_properties: usize,
    /// Total edge properties.
    pub edge_properties: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of weakly connected components.
    pub components: usize,
}

impl GraphStats {
    /// Computes statistics in `O(|V| + |E|)`; weakly connected
    /// components by union-find over node slots.
    pub fn compute(g: &PropertyGraph) -> Self {
        let mut nodes_per_label = BTreeMap::new();
        let mut edges_per_label = BTreeMap::new();
        let mut node_properties = 0usize;
        let mut edge_properties = 0usize;
        for n in g.nodes() {
            *nodes_per_label.entry(n.label().to_owned()).or_insert(0) += 1;
            node_properties += n.property_count();
        }
        let slots = g.node_ids().map(|n| n.index() + 1).max().unwrap_or(0);
        let (mut out_degree, mut in_degree) = (vec![0usize; slots], vec![0usize; slots]);
        let mut parent: Vec<usize> = (0..slots).collect();
        for e in g.edges() {
            *edges_per_label.entry(e.label().to_owned()).or_insert(0) += 1;
            edge_properties += e.property_count();
            let (s, t) = (e.source().index(), e.target().index());
            out_degree[s] += 1;
            in_degree[t] += 1;
            let (a, b) = (root(&mut parent, s), root(&mut parent, t));
            parent[a] = b;
        }
        GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            nodes_per_label,
            edges_per_label,
            node_properties,
            edge_properties,
            max_out_degree: out_degree.into_iter().max().unwrap_or(0),
            max_in_degree: in_degree.into_iter().max().unwrap_or(0),
            components: g
                .node_ids()
                .filter(|n| root(&mut parent, n.index()) == n.index())
                .count(),
        }
    }

    /// A one-line summary for bench logs.
    pub fn summary(&self) -> String {
        format!(
            "|V|={} |E|={} labels={} props={}+{} maxdeg={}/{} wcc={}",
            self.nodes,
            self.edges,
            self.nodes_per_label.len(),
            self.node_properties,
            self.edge_properties,
            self.max_out_degree,
            self.max_in_degree,
            self.components
        )
    }
}

/// The representative of slot `i`'s component (halving the path to it).
fn root(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Value};

    #[test]
    fn stats_of_small_graph() {
        let mut g = GraphBuilder::new()
            .node("a", "A")
            .node("b", "A")
            .node("c", "B")
            .edge("a", "c", "rel")
            .edge("b", "c", "rel")
            .edge("a", "b", "peer")
            .build()
            .unwrap();
        let a = g.node_ids().next().unwrap();
        g.set_node_property(a, "k", Value::Int(1));
        let e = g.edge_ids().next().unwrap();
        g.set_edge_property(e, "w", Value::Int(2));

        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.nodes_per_label["A"], 2);
        assert_eq!(s.nodes_per_label["B"], 1);
        assert_eq!(s.edges_per_label["rel"], 2);
        assert_eq!(s.node_properties, 1);
        assert_eq!(s.edge_properties, 1);
        assert_eq!(s.max_out_degree, 2); // a
        assert_eq!(s.max_in_degree, 2); // c
        assert_eq!(s.components, 1);
        assert!(s.summary().contains("|V|=3"));

        // An island is a second weak component; edge direction is ignored.
        g.add_node("I");
        let c = g.nodes().find(|n| n.label() == "B").unwrap().id;
        g.add_edge(c, a, "back").unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!((s.components, s.max_out_degree, s.max_in_degree), (2, 2, 2));
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&crate::PropertyGraph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!((s.max_out_degree, s.max_in_degree), (0, 0));
        assert_eq!(s.components, 0);
    }
}
