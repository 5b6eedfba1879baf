//! Directed graphs with positive integer edge weights.
//!
//! A [`WeightedDigraph`] models the paper's *problem graph*, *clustered
//! problem graph* and *ideal graph*: a set of tasks (nodes) and directed
//! communication edges whose weight is the message transfer time in time
//! units. The weight matrix convention follows the paper exactly — entry
//! `(i, j) > 0` means "edge from i to j with that weight", `0` means
//! "no edge".

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::matrix::SquareMatrix;
use crate::{NodeId, Weight};

/// A directed graph with positive edge weights, stored both as adjacency
/// lists (for fast traversal) and reconstructible as the paper's dense
/// weight matrix (via [`WeightedDigraph::to_matrix`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedDigraph {
    n: usize,
    /// `succs[u]` = sorted list of `(v, w)` with an edge `u -> v` of weight `w`.
    succs: Vec<Vec<(NodeId, Weight)>>,
    /// `preds[v]` = sorted list of `(u, w)` with an edge `u -> v` of weight `w`.
    preds: Vec<Vec<(NodeId, Weight)>>,
    edge_count: usize,
}

impl WeightedDigraph {
    /// Create a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        WeightedDigraph {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Build a graph from an edge list strictly ascending by `(from, to)`
    /// — the order [`WeightedDigraph::edges`] yields. Every edge passes
    /// the same validation as [`WeightedDigraph::add_edge`]; input that
    /// is out of order or repeats an edge is rejected, because rows are
    /// pushed as they come. Each row is allocated once at its final
    /// length, so construction is `O(n + edges)` and rows built back to
    /// back sit back to back in memory.
    pub fn from_sorted_edges(
        n: usize,
        edges: &[(NodeId, NodeId, Weight)],
    ) -> Result<Self, GraphError> {
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        let mut previous = None;
        for &(from, to, w) in edges {
            check_edge(n, from, to, w)?;
            if let Some((pf, pt)) = previous.filter(|&p| p >= (from, to)) {
                return Err(GraphError::InvalidParameter(format!(
                    "edge ({from},{to}) does not sort after ({pf},{pt}); \
                     edges must strictly ascend by (from, to)"
                )));
            }
            previous = Some((from, to));
            out_degree[from] += 1;
            in_degree[to] += 1;
        }
        let rows = |degrees: &[usize]| -> Vec<Vec<(NodeId, Weight)>> {
            degrees.iter().map(|&d| Vec::with_capacity(d)).collect()
        };
        let (mut succs, mut preds) = (rows(&out_degree), rows(&in_degree));
        for &(from, to, w) in edges {
            succs[from].push((to, w));
            preds[to].push((from, w));
        }
        Ok(WeightedDigraph {
            n,
            succs,
            preds,
            edge_count: edges.len(),
        })
    }

    /// Add (or overwrite) the edge `from -> to` with positive weight `w`.
    ///
    /// Errors on out-of-range endpoints, self-loops and zero weights (zero
    /// encodes absence in the paper's matrices, so it is not a legal
    /// weight).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, w: Weight) -> Result<(), GraphError> {
        check_edge(self.n, from, to, w)?;
        match self.succs[from].binary_search_by_key(&to, |&(v, _)| v) {
            Ok(pos) => {
                self.succs[from][pos].1 = w;
                let ppos = self.preds[to]
                    .binary_search_by_key(&from, |&(u, _)| u)
                    .unwrap();
                self.preds[to][ppos].1 = w;
            }
            Err(pos) => {
                self.succs[from].insert(pos, (to, w));
                let ppos = self.preds[to]
                    .binary_search_by_key(&from, |&(u, _)| u)
                    .unwrap_err();
                self.preds[to].insert(ppos, (from, w));
                self.edge_count += 1;
            }
        }
        Ok(())
    }

    /// Remove the edge `from -> to` if present; returns its weight.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Option<Weight> {
        let pos = self.succs[from]
            .binary_search_by_key(&to, |&(v, _)| v)
            .ok()?;
        let (_, w) = self.succs[from].remove(pos);
        let ppos = self.preds[to]
            .binary_search_by_key(&from, |&(u, _)| u)
            .ok()?;
        self.preds[to].remove(ppos);
        self.edge_count -= 1;
        Some(w)
    }

    /// Weight of the edge `from -> to`, or `None` if absent.
    #[inline]
    pub fn weight(&self, from: NodeId, to: NodeId) -> Option<Weight> {
        self.succs[from]
            .binary_search_by_key(&to, |&(v, _)| v)
            .ok()
            .map(|p| self.succs[from][p].1)
    }

    /// `true` iff the edge `from -> to` exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.weight(from, to).is_some()
    }

    /// Successors of `u` with weights, sorted by node id.
    #[inline]
    pub fn successors(&self, u: NodeId) -> &[(NodeId, Weight)] {
        &self.succs[u]
    }

    /// Predecessors of `v` with weights, sorted by node id.
    ///
    /// This is the paper's "scan column `v` of `prob_edge`" operation.
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[(NodeId, Weight)] {
        &self.preds[v]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succs[u].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.preds[v].len()
    }

    /// Total degree (in + out) of `u` — the paper compares problem-node
    /// degrees against system-node degrees (its Bokhari discussion).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.in_degree(u) + self.out_degree(u)
    }

    /// Iterate over all edges as `(from, to, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&(v, w)| (u, v, w)))
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> Weight {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Build from the paper's dense weight-matrix representation, where
    /// entry `(i, j) > 0` is the weight of edge `i -> j`.
    pub fn from_matrix(m: &SquareMatrix<Weight>) -> Result<Self, GraphError> {
        let mut g = WeightedDigraph::new(m.n());
        for i in 0..m.n() {
            for j in 0..m.n() {
                let w = m.get(i, j);
                if w > 0 {
                    g.add_edge(i, j, w)?;
                }
            }
        }
        Ok(g)
    }

    /// Convert to the paper's dense weight matrix (0 = no edge).
    pub fn to_matrix(&self) -> SquareMatrix<Weight> {
        let mut m = SquareMatrix::new(self.n);
        for (u, v, w) in self.edges() {
            m.set(u, v, w);
        }
        m
    }

    /// Sum of the weights of all edges incident to `u` (in either
    /// direction). For the clustered problem graph aggregated per cluster
    /// this is the paper's `mca` "communication intensity".
    pub fn incident_weight(&self, u: NodeId) -> Weight {
        let out: Weight = self.succs[u].iter().map(|&(_, w)| w).sum();
        let inc: Weight = self.preds[u].iter().map(|&(_, w)| w).sum();
        out + inc
    }

    /// Nodes with no predecessors (the tasks that can start at time 0).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.n).filter(|&v| self.preds[v].is_empty()).collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.n).filter(|&u| self.succs[u].is_empty()).collect()
    }
}

/// What every stored edge must satisfy: endpoints in `0..n`, no
/// self-loop, positive weight.
#[inline]
fn check_edge(n: usize, from: NodeId, to: NodeId, w: Weight) -> Result<(), GraphError> {
    for node in [from, to] {
        if node >= n {
            return Err(GraphError::NodeOutOfRange { node, len: n });
        }
    }
    if from == to {
        return Err(GraphError::SelfLoop(from));
    }
    if w == 0 {
        return Err(GraphError::ZeroWeight { from, to });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedDigraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = WeightedDigraph::new(4);
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(0, 2, 3).unwrap();
        g.add_edge(1, 3, 4).unwrap();
        g.add_edge(2, 3, 5).unwrap();
        g
    }

    #[test]
    fn add_and_query_edges() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(0, 1), Some(2));
        assert_eq!(g.weight(1, 0), None);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
    }

    #[test]
    fn overwrite_keeps_edge_count() {
        let mut g = diamond();
        g.add_edge(0, 1, 9).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(0, 1), Some(9));
        assert_eq!(g.predecessors(1), &[(0, 9)]);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut g = diamond();
        assert_eq!(g.remove_edge(0, 1), Some(2));
        assert_eq!(g.remove_edge(0, 1), None);
        assert_eq!(g.edge_count(), 3);
        assert!(g.predecessors(1).is_empty());
        assert!(!g.successors(0).iter().any(|&(v, _)| v == 1));
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut g = WeightedDigraph::new(3);
        assert_eq!(
            g.add_edge(0, 3, 1),
            Err(GraphError::NodeOutOfRange { node: 3, len: 3 })
        );
        assert_eq!(g.add_edge(1, 1, 1), Err(GraphError::SelfLoop(1)));
        assert_eq!(
            g.add_edge(0, 1, 0),
            Err(GraphError::ZeroWeight { from: 0, to: 1 })
        );
    }

    #[test]
    fn from_sorted_edges_equals_the_add_edge_build_on_random_dags() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..24usize);
            // Forward edges only (u < v): a DAG, listed in sorted order.
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_range(0..4) == 0 {
                        edges.push((u, v, rng.gen_range(1..=9)));
                    }
                }
            }
            let mut expected = WeightedDigraph::new(n);
            for &(u, v, w) in &edges {
                expected.add_edge(u, v, w).unwrap();
            }
            let bulk = WeightedDigraph::from_sorted_edges(n, &edges).unwrap();
            assert_eq!(bulk, expected, "seed {seed}");
            assert_eq!(bulk.edge_count(), edges.len());
            assert_eq!(bulk.edges().collect::<Vec<_>>(), edges);
        }
    }

    #[test]
    fn from_sorted_edges_rejects_what_add_edge_rejects_and_disorder() {
        let build = |edges: &[(NodeId, NodeId, Weight)]| {
            WeightedDigraph::from_sorted_edges(3, edges).unwrap_err()
        };
        let via_add_edge = |from, to, w| WeightedDigraph::new(3).add_edge(from, to, w).unwrap_err();
        assert_eq!(build(&[(0, 1, 1), (3, 1, 1)]), via_add_edge(3, 1, 1));
        assert_eq!(build(&[(0, 3, 1)]), via_add_edge(0, 3, 1));
        assert_eq!(build(&[(1, 1, 1)]), via_add_edge(1, 1, 1));
        assert_eq!(build(&[(0, 1, 0)]), via_add_edge(0, 1, 0));
        for disorder in [
            [(0, 2, 1), (0, 1, 1)], // `to` descends within a row
            [(1, 2, 1), (0, 1, 1)], // `from` descends
            [(0, 1, 1), (0, 1, 2)], // duplicate
        ] {
            match build(&disorder) {
                GraphError::InvalidParameter(msg) => assert!(msg.contains("ascend"), "{msg}"),
                other => panic!("{disorder:?}: {other:?}"),
            }
        }
        // An invalid edge is reported before the disorder after it.
        assert_eq!(build(&[(0, 2, 1), (0, 0, 1)]), GraphError::SelfLoop(0));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.successors(0), &[(1, 2), (2, 3)]);
        assert_eq!(g.predecessors(3), &[(1, 4), (2, 5)]);
    }

    #[test]
    fn matrix_roundtrip() {
        let g = diamond();
        let m = g.to_matrix();
        assert_eq!(m.get(0, 2), 3);
        assert_eq!(m.get(2, 0), 0);
        let g2 = WeightedDigraph::from_matrix(&m).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn sources_sinks_incident_weight() {
        let g = diamond();
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.incident_weight(1), 2 + 4);
        assert_eq!(g.total_edge_weight(), 2 + 3 + 4 + 5);
    }

    #[test]
    fn edges_iterates_all() {
        let g = diamond();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 5)]);
    }
}
