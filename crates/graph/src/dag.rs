//! DAG utilities: topological ordering, levels, longest paths and
//! reachability.
//!
//! The paper's problem graphs are *precedence graphs* — directed acyclic
//! graphs whose edges are data dependencies. Its scheduling algorithms
//! ("do the following until all tasks have been visited", §4.1) are
//! worklist formulations of a topological traversal; we implement the
//! traversal once here and reuse it for the ideal-graph derivation, the
//! assignment evaluator and the simulator.

use crate::bitset::BitSet;
use crate::digraph::WeightedDigraph;
use crate::error::GraphError;
use crate::{NodeId, Time};
use std::collections::VecDeque;

/// A topological order of a [`WeightedDigraph`], computed with Kahn's
/// algorithm. Construction fails with [`GraphError::CycleDetected`] when
/// the graph is not acyclic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    /// `position[v]` = index of `v` within `order`.
    position: Vec<usize>,
}

impl TopoOrder {
    /// Compute a topological order (smallest-id-first among ready nodes,
    /// so the order is deterministic).
    pub fn new(g: &WeightedDigraph) -> Result<Self, GraphError> {
        let n = g.node_count();
        let mut indeg: Vec<usize> = (0..n).map(|v| g.in_degree(v)).collect();
        // Min-heap of ready nodes: popping the smallest id first makes
        // the order deterministic, in O(E + V log V).
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..n)
            .filter(|&v| indeg[v] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            order.push(u);
            for &(v, _) in g.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(std::cmp::Reverse(v));
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::CycleDetected);
        }
        let mut position = vec![0; n];
        for (idx, &v) in order.iter().enumerate() {
            position[v] = idx;
        }
        Ok(TopoOrder { order, position })
    }

    /// The nodes in topological order.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Index of `v` within the order.
    #[inline]
    pub fn position(&self, v: NodeId) -> usize {
        self.position[v]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// `true` iff `g` contains no directed cycle.
pub fn is_acyclic(g: &WeightedDigraph) -> bool {
    TopoOrder::new(g).is_ok()
}

/// Per-node *level*: sources are level 0 and every other node is one more
/// than the maximum level of its predecessors. Lee & Aggarwal's phase
/// decomposition groups communications by these levels.
pub fn levels(g: &WeightedDigraph) -> Result<Vec<usize>, GraphError> {
    let topo = TopoOrder::new(g)?;
    let mut level = vec![0usize; g.node_count()];
    for &v in topo.order() {
        level[v] = g
            .predecessors(v)
            .iter()
            .map(|&(u, _)| level[u] + 1)
            .max()
            .unwrap_or(0);
    }
    Ok(level)
}

/// Length of the longest path where node `v` contributes `node_cost[v]`
/// and each edge contributes its weight — the critical-path length of a
/// task DAG when communication always costs one hop (i.e. the ideal-graph
/// lower bound, which `mimd-core::ideal` recomputes with cluster-aware
/// weights).
pub fn longest_path(g: &WeightedDigraph, node_cost: &[Time]) -> Result<Time, GraphError> {
    if g.node_count() != node_cost.len() {
        return Err(GraphError::SizeMismatch {
            left: g.node_count(),
            right: node_cost.len(),
        });
    }
    let topo = TopoOrder::new(g)?;
    let mut finish = vec![0 as Time; g.node_count()];
    for &v in topo.order() {
        let start = g
            .predecessors(v)
            .iter()
            .map(|&(u, w)| finish[u] + w)
            .max()
            .unwrap_or(0);
        finish[v] = start + node_cost[v];
    }
    Ok(finish.into_iter().max().unwrap_or(0))
}

/// Reachability: `out[u].contains(v)` iff there is a directed path
/// `u ->* v` (including `u == v`). Computed with one BFS per node over the
/// successor lists; adequate for np ≤ a few thousand.
pub fn reachability(g: &WeightedDigraph) -> Vec<BitSet> {
    let n = g.node_count();
    let mut out = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for s in 0..n {
        let mut seen = BitSet::new(n);
        seen.insert(s);
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.successors(u) {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        out.push(seen);
    }
    out
}

/// `true` iff adding the edge `from -> to` would keep `g` acyclic
/// (i.e. `to` cannot already reach `from`). Used by DAG generators.
pub fn edge_keeps_acyclic(g: &WeightedDigraph, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return false;
    }
    // BFS from `to` looking for `from`.
    let n = g.node_count();
    let mut seen = BitSet::new(n);
    let mut queue = VecDeque::new();
    seen.insert(to);
    queue.push_back(to);
    while let Some(u) = queue.pop_front() {
        if u == from {
            return false;
        }
        for &(v, _) in g.successors(u) {
            if seen.insert(v) {
                queue.push_back(v);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedDigraph {
        WeightedDigraph::from_edges(4, &[(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 5)]).unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let t = TopoOrder::new(&g).unwrap();
        for (u, v, _) in g.edges() {
            assert!(t.position(u) < t.position(v), "{u} before {v}");
        }
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn topo_is_deterministic_smallest_first() {
        // Two independent sources 0 and 1; 0 must come first.
        let g = WeightedDigraph::from_edges(3, &[(1, 2, 1)]).unwrap();
        let t = TopoOrder::new(&g).unwrap();
        assert_eq!(t.order(), &[0, 1, 2]);
    }

    #[test]
    fn cycle_is_detected() {
        let g = WeightedDigraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]).unwrap();
        assert_eq!(TopoOrder::new(&g), Err(GraphError::CycleDetected));
        assert!(!is_acyclic(&g));
        assert!(is_acyclic(&diamond()));
    }

    #[test]
    fn levels_are_longest_hop_depth() {
        let g = diamond();
        assert_eq!(levels(&g).unwrap(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn longest_path_includes_node_and_edge_costs() {
        let g = diamond();
        // Paths: 0(1) -2-> 1(1) -4-> 3(1) = 1+2+1+4+1 = 9
        //        0(1) -3-> 2(1) -5-> 3(1) = 1+3+1+5+1 = 11
        assert_eq!(longest_path(&g, &[1, 1, 1, 1]).unwrap(), 11);
    }

    #[test]
    fn longest_path_checks_sizes() {
        let g = diamond();
        assert!(matches!(
            longest_path(&g, &[1, 1]),
            Err(GraphError::SizeMismatch { left: 4, right: 2 })
        ));
    }

    #[test]
    fn reachability_closure() {
        let g = diamond();
        let r = reachability(&g);
        assert!(r[0].contains(3));
        assert!(r[0].contains(0));
        assert!(!r[1].contains(2));
        assert!(!r[3].contains(0));
    }

    #[test]
    fn edge_keeps_acyclic_detects_back_edges() {
        let g = diamond();
        assert!(!edge_keeps_acyclic(&g, 3, 0), "3 -> 0 closes a cycle");
        assert!(edge_keeps_acyclic(&g, 1, 2), "1 -> 2 is fine");
        assert!(!edge_keeps_acyclic(&g, 2, 2), "self loop rejected");
    }
}
