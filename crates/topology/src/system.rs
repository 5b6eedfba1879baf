//! [`SystemGraph`]: a validated, connected processor topology together
//! with the cached matrices the mapping algorithms read on every
//! evaluation.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mimd_graph::apsp::DistanceMatrix;
use mimd_graph::error::GraphError;
use mimd_graph::{Csr, NodeId};

use crate::builders::all_pairs;

/// A connected MIMD interconnection topology with precomputed shortest
/// paths.
///
/// The paper's evaluator multiplies every clustered-edge weight by
/// `shortest[vs_l][vs_m]` (§4.3.4 Algorithm I); caching the BFS results
/// here keeps each total-time evaluation at the paper's `O(np²)`. The
/// links are one frozen [`Csr`]: a processor's degree is its row length,
/// and no code on the mapping path reads a link's weight.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemGraph {
    name: String,
    graph: Csr,
    /// Shared, so cloning a machine (level 0 of a `SystemHierarchy`)
    /// does not copy `ns²` hop counts.
    distances: Arc<DistanceMatrix>,
}

impl SystemGraph {
    /// Wrap a topology, validating that it is connected and non-empty.
    pub fn new(name: impl Into<String>, graph: Csr) -> Result<Self, GraphError> {
        if graph.node_count() == 0 {
            return Err(GraphError::InvalidParameter(
                "system graph needs >= 1 node".into(),
            ));
        }
        let distances = Arc::new(DistanceMatrix::bfs_all_pairs(&graph)?);
        Ok(SystemGraph {
            name: name.into(),
            graph,
            distances,
        })
    }

    /// Human-readable topology name (e.g. `"hypercube(d=3)"`), used in
    /// reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors `ns`.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// `true` iff the system has zero processors (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// The underlying adjacency structure (the paper's `sys_edge`).
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The all-pairs hop-count matrix (the paper's `shortest[ns][ns]`).
    #[inline]
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Hop count between processors `u` and `v`.
    #[inline]
    pub fn hops(&self, u: NodeId, v: NodeId) -> u32 {
        self.distances.hops(u, v)
    }

    /// Degree of processor `u` (the paper's `deg[u]`): its row length.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.graph.neighbors(u).len()
    }

    /// `true` iff processors `u` and `v` share a physical link.
    #[inline]
    pub fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.graph.weight(u, v).is_some()
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> u32 {
        self.distances.diameter()
    }

    /// The closure of this topology (complete graph on the same
    /// processors) — mapping onto it yields the paper's *ideal graph*.
    pub fn closure(&self) -> SystemGraph {
        let links: Vec<_> = all_pairs(self.len()).map(|(u, v)| (u, v, 1)).collect();
        let complete = Csr::from_contributions(self.len(), &links);
        SystemGraph::new(format!("{}-closure", self.name), complete)
            .expect("closure of a nonempty graph is connected")
    }

    /// Processor ids sorted by descending degree, ties by ascending id —
    /// the order in which the initial assignment consumes processors.
    pub fn by_descending_degree(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.len()).collect();
        ids.sort_by_key(|&u| (std::cmp::Reverse(self.degree(u)), u));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(n: usize, links: &[(NodeId, NodeId)]) -> Csr {
        let links: Vec<_> = links.iter().map(|&(u, v)| (u, v, 1)).collect();
        Csr::from_contributions(n, &links)
    }

    fn ring4() -> SystemGraph {
        SystemGraph::new("ring4", links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])).unwrap()
    }

    #[test]
    fn caches_match_paper_fig21() {
        let s = ring4();
        assert_eq!(s.len(), 4);
        assert!((0..4).all(|u| s.degree(u) == 2));
        assert_eq!(s.hops(0, 2), 2);
        assert_eq!(s.hops(0, 1), 1);
        assert_eq!(s.diameter(), 2);
        assert!(s.adjacent(3, 0));
        assert!(!s.adjacent(0, 2));
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        assert!(matches!(
            SystemGraph::new("bad", links(3, &[(0, 1)])),
            Err(GraphError::Disconnected)
        ));
        assert!(SystemGraph::new("empty", links(0, &[])).is_err());
    }

    #[test]
    fn closure_has_unit_distances() {
        let c = ring4().closure();
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(c.hops(u, v), u32::from(u != v));
            }
        }
        assert!(c.name().contains("closure"));
    }

    #[test]
    fn descending_degree_order() {
        let s = SystemGraph::new("t", links(4, &[(0, 1), (1, 2), (1, 3), (2, 3)])).unwrap();
        // degrees: 0->1, 1->3, 2->2, 3->2
        assert_eq!(s.by_descending_degree(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn a_link_listed_twice_is_one_link() {
        let s = SystemGraph::new("2-ring", links(2, &[(0, 1), (1, 0)])).unwrap();
        assert_eq!(
            (s.degree(0), s.graph().edge_count(), s.hops(0, 1)),
            (1, 1, 1)
        );
    }

    #[test]
    fn singleton_system_is_valid() {
        let s = SystemGraph::new("one", links(1, &[])).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.diameter(), 0);
    }
}
