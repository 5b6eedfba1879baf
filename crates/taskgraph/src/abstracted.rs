//! The *abstract graph* (Fig 4): one node per cluster, multi-edges
//! between cluster pairs collapsed into one.
//!
//! "The main purpose of the abstract graph is to be able to talk about
//! all edges between two clusters as one" (§2.1). The mapper's step 3
//! ranks abstract nodes by the `mca` communication intensity and walks
//! abstract adjacency; both are precomputed here. The paper's 0/1
//! `abs_edge[na][na]` and the combined pair weights are one sparse
//! [`Csr`]: a row lists a cluster's neighbors in ascending id with the
//! summed weights beside them, and every consumer (initial assignment,
//! gain table, coarsening, the embedding baseline) walks those rows.

use serde::{Deserialize, Serialize};

use mimd_graph::{Csr, Weight};

use crate::clustered::ClusteredProblemGraph;
use crate::ClusterId;

/// The collapsed cluster-level view of a clustered problem graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbstractGraph {
    /// Cluster adjacency with the combined weight of each pair (sum
    /// over both edge directions of the clustered weights).
    adjacency: Csr,
    /// Per-cluster total incident cross weight (the paper's `mca[na]`)
    /// — the row sums of `adjacency`.
    mca: Vec<Weight>,
}

impl AbstractGraph {
    /// Collapse a clustered problem graph. Row `a` is filled from the
    /// edges of `a`'s own tasks, in both directions, so every cross edge
    /// is met once from each of its clusters and nothing but the rows is
    /// built.
    pub fn new(clustered: &ClusteredProblemGraph) -> Self {
        let (problem, clustering) = (clustered.problem(), clustered.clustering());
        let adjacency = Csr::from_rows(clustered.num_clusters(), |a, row| {
            for &t in clustering.members(a) {
                for (v, w) in problem.successors(t).chain(problem.predecessors(t)) {
                    let b = clustering.cluster_of(v);
                    if b != a {
                        row.add(b, w);
                    }
                }
            }
        });
        AbstractGraph::from_adjacency(adjacency)
    }

    /// The abstract graph of the clustering merged by `map` (`map[a]` =
    /// coarse cluster absorbing cluster `a`, `m` coarse clusters),
    /// contracted from this one's rows without reading a task edge,
    /// together with the weight the merge internalized. Equal to
    /// [`AbstractGraph::new`] of the coarsened clustered graph.
    pub fn contract(&self, map: &[ClusterId], m: usize) -> (AbstractGraph, Weight) {
        let (adjacency, internalized) = self.adjacency.contract(map, m);
        (AbstractGraph::from_adjacency(adjacency), internalized)
    }

    fn from_adjacency(adjacency: Csr) -> Self {
        let mca = (0..adjacency.node_count())
            .map(|a| adjacency.weights(a).iter().sum())
            .collect();
        AbstractGraph { adjacency, mca }
    }

    /// The cluster adjacency itself.
    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adjacency
    }

    /// Number of abstract nodes `na`.
    #[inline]
    pub fn len(&self) -> usize {
        self.mca.len()
    }

    /// `true` iff there are no clusters (impossible via constructor).
    pub fn is_empty(&self) -> bool {
        self.mca.is_empty()
    }

    /// `true` iff clusters `a` and `b` exchange any communication.
    #[inline]
    pub fn adjacent(&self, a: ClusterId, b: ClusterId) -> bool {
        self.adjacency.weight(a, b).is_some()
    }

    /// Abstract neighbors of cluster `a`, ascending.
    #[inline]
    pub fn neighbors(&self, a: ClusterId) -> &[ClusterId] {
        self.adjacency.neighbors(a)
    }

    /// Combined weights towards [`AbstractGraph::neighbors`]`(a)`, in
    /// the same order.
    #[inline]
    pub fn weights(&self, a: ClusterId) -> &[Weight] {
        self.adjacency.weights(a)
    }

    /// `(neighbor, combined weight)` pairs of cluster `a`, ascending.
    #[inline]
    pub fn row(&self, a: ClusterId) -> impl Iterator<Item = (ClusterId, Weight)> + '_ {
        self.adjacency.row(a)
    }

    /// Every abstract edge once, as `(a, b, combined weight)` with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (ClusterId, ClusterId, Weight)> + '_ {
        self.adjacency.edges()
    }

    /// Combined communication weight between clusters `a` and `b`
    /// (both directions summed); 0 when not adjacent. A binary search —
    /// loops over a cluster's partners walk [`AbstractGraph::row`].
    #[inline]
    pub fn pair_weight(&self, a: ClusterId, b: ClusterId) -> Weight {
        self.adjacency.weight(a, b).unwrap_or(0)
    }

    /// The paper's `mca[a]`: total cross weight incident to cluster `a`.
    #[inline]
    pub fn mca(&self, a: ClusterId) -> Weight {
        self.mca[a]
    }

    /// All communication intensities (the `mca[na]` vector, Fig 20-c).
    pub fn mca_vector(&self) -> &[Weight] {
        &self.mca
    }

    /// Clusters sorted by descending `mca`, ties by ascending id — the
    /// consumption order of initial-assignment step 3.
    pub fn by_descending_mca(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = (0..self.len()).collect();
        ids.sort_by_key(|&a| (std::cmp::Reverse(self.mca[a]), a));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::problem::ProblemGraph;

    /// Tasks 1..6 in clusters {1,2}, {3,4}, {5,6}; edges:
    /// 1->3 (w2), 2->4 (w3), 3->5 (w4), 2->1 would be cyclic; 4->6 (w1),
    /// 1->2 intra (w9).
    fn fixture() -> AbstractGraph {
        let p = ProblemGraph::from_paper_edges(
            &[1, 1, 1, 1, 1, 1],
            &[(1, 3, 2), (2, 4, 3), (3, 5, 4), (4, 6, 1), (1, 2, 9)],
        )
        .unwrap();
        let c = Clustering::new(vec![0, 0, 1, 1, 2, 2]).unwrap();
        AbstractGraph::new(&ClusteredProblemGraph::new(p, c).unwrap())
    }

    #[test]
    fn collapses_pairs() {
        let a = fixture();
        assert_eq!(a.len(), 3);
        assert!(a.adjacent(0, 1));
        assert!(a.adjacent(1, 2));
        assert!(!a.adjacent(0, 2));
        assert_eq!(a.neighbors(1), &[0, 2]);
    }

    #[test]
    fn pair_weights_sum_multi_edges() {
        let a = fixture();
        // Cluster 0 -> 1 via (1,3,2) and (2,4,3): combined 5, symmetric.
        assert_eq!(a.pair_weight(0, 1), 5);
        assert_eq!(a.pair_weight(1, 0), 5);
        assert_eq!(a.pair_weight(1, 2), 5);
        assert_eq!(a.pair_weight(0, 2), 0);
    }

    #[test]
    fn intra_edges_do_not_count() {
        let a = fixture();
        // Edge (1,2,9) is inside cluster 0: absent from mca.
        assert_eq!(a.mca_vector(), &[5, 10, 5]);
    }

    #[test]
    fn mca_ordering() {
        let a = fixture();
        assert_eq!(a.by_descending_mca(), vec![1, 0, 2]);
    }

    #[test]
    fn contraction_equals_collapsing_the_merged_clustering() {
        let p = ProblemGraph::from_paper_edges(
            &[1, 1, 1, 1, 1, 1],
            &[(1, 3, 2), (2, 4, 3), (3, 5, 4), (4, 6, 1), (1, 2, 9)],
        )
        .unwrap();
        let fine = ClusteredProblemGraph::new(p, Clustering::new(vec![0, 0, 1, 1, 2, 2]).unwrap())
            .unwrap();
        // Clusters 0 and 1 merge: their combined weight 5 goes internal.
        let (coarse, internalized) = fixture().contract(&[0, 0, 1], 2);
        assert_eq!(internalized, 5);
        assert_eq!(
            coarse,
            AbstractGraph::new(&fine.coarsen(&[0, 0, 1]).unwrap())
        );
        assert_eq!(coarse.mca_vector(), &[5, 5]);
    }
}
