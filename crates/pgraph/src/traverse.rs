//! Traversal helpers: neighbourhoods, reachability, degree sequences.
//!
//! The satisfiability witness checker and the workload generator both need
//! basic graph traversal; everything here works on the plain
//! [`PropertyGraph`].

use std::collections::{HashSet, VecDeque};

use crate::{NodeId, PropertyGraph};

/// Nodes reachable from `start` along outgoing edges (including `start`),
/// in BFS order.
pub fn reachable_from(g: &PropertyGraph, start: NodeId) -> Vec<NodeId> {
    if !g.contains_node(start) {
        return Vec::new();
    }
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let mut succ: std::collections::HashMap<NodeId, Vec<NodeId>> = std::collections::HashMap::new();
    for e in g.edges() {
        succ.entry(e.source()).or_default().push(e.target());
    }
    queue.push_back(start);
    seen.insert(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        if let Some(nexts) = succ.get(&v) {
            for &n in nexts {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
    }
    order
}

/// Out-degree of every node, indexed by `NodeId::index()`. Dead slots are 0.
pub fn out_degrees(g: &PropertyGraph) -> Vec<usize> {
    let mut deg = vec![0usize; g.node_ids().map(|n| n.index() + 1).max().unwrap_or(0)];
    for e in g.edges() {
        deg[e.source().index()] += 1;
    }
    deg
}

/// In-degree of every node, indexed by `NodeId::index()`.
pub fn in_degrees(g: &PropertyGraph) -> Vec<usize> {
    let mut deg = vec![0usize; g.node_ids().map(|n| n.index() + 1).max().unwrap_or(0)];
    for e in g.edges() {
        deg[e.target().index()] += 1;
    }
    deg
}

/// True if the graph contains a directed cycle (self-loops count).
pub fn has_cycle(g: &PropertyGraph) -> bool {
    // Kahn's algorithm: a cycle exists iff topological elimination stalls.
    let mut indeg = in_degrees(g);
    let mut succ: std::collections::HashMap<NodeId, Vec<NodeId>> = std::collections::HashMap::new();
    for e in g.edges() {
        succ.entry(e.source()).or_default().push(e.target());
    }
    let mut queue: VecDeque<NodeId> = g.node_ids().filter(|n| indeg[n.index()] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = queue.pop_front() {
        removed += 1;
        if let Some(nexts) = succ.get(&v) {
            for &n in nexts {
                indeg[n.index()] -= 1;
                if indeg[n.index()] == 0 {
                    queue.push_back(n);
                }
            }
        }
    }
    removed < g.node_count()
}

/// Number of weakly connected components.
pub fn weakly_connected_components(g: &PropertyGraph) -> usize {
    let mut adj: std::collections::HashMap<NodeId, Vec<NodeId>> = std::collections::HashMap::new();
    for e in g.edges() {
        adj.entry(e.source()).or_default().push(e.target());
        adj.entry(e.target()).or_default().push(e.source());
    }
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut components = 0usize;
    for start in g.node_ids() {
        if !seen.insert(start) {
            continue;
        }
        components += 1;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            if let Some(nexts) = adj.get(&v) {
                for &n in nexts {
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain() -> PropertyGraph {
        GraphBuilder::new()
            .node("a", "A")
            .node("b", "B")
            .node("c", "C")
            .node("island", "I")
            .edge("a", "b", "next")
            .edge("b", "c", "next")
            .build()
            .unwrap()
    }

    #[test]
    fn reachability_follows_direction() {
        let g = chain();
        let a = g.node_ids().next().unwrap();
        let reach = reachable_from(&g, a);
        assert_eq!(reach.len(), 3);
        let c = g.nodes().find(|n| n.label() == "C").unwrap().id;
        let back = reachable_from(&g, c);
        assert_eq!(back, vec![c]);
    }

    #[test]
    fn reachable_from_missing_node_is_empty() {
        let g = chain();
        assert!(reachable_from(&g, crate::NodeId::from_index(99)).is_empty());
    }

    #[test]
    fn degrees() {
        let g = chain();
        let outd = out_degrees(&g);
        let ind = in_degrees(&g);
        assert_eq!(outd.iter().sum::<usize>(), 2);
        assert_eq!(ind.iter().sum::<usize>(), 2);
        assert_eq!(outd[0], 1); // a
        assert_eq!(ind[2], 1); // c
    }

    #[test]
    fn cycle_detection() {
        let mut g = chain();
        assert!(!has_cycle(&g));
        let a = g.node_ids().next().unwrap();
        let c = g.nodes().find(|n| n.label() == "C").unwrap().id;
        g.add_edge(c, a, "loop").unwrap();
        assert!(has_cycle(&g));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("A");
        assert!(!has_cycle(&g));
        g.add_edge(a, a, "self").unwrap();
        assert!(has_cycle(&g));
    }

    #[test]
    fn component_count() {
        let g = chain();
        assert_eq!(weakly_connected_components(&g), 2); // chain + island
        assert_eq!(weakly_connected_components(&PropertyGraph::new()), 0);
    }
}
