//! The *clustered problem graph* (Fig 3): the problem graph with
//! intra-cluster edge weights removed.
//!
//! The paper's subtlety (§4.1): a task's *predecessors* are still those
//! of the original problem graph, while *communication weights* are zero
//! within a cluster. No clustered matrix is stored: a
//! [`ClusteredProblemGraph`] pairs the problem graph's rows with a
//! clustering, and a clustered weight is the weight of the row entry
//! read, or 0 inside a cluster.

use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use mimd_graph::error::GraphError;
use mimd_graph::Weight;

use crate::abstracted::AbstractGraph;
use crate::clustering::Clustering;
use crate::problem::ProblemGraph;
use crate::{ClusterId, TaskId};

/// A problem graph together with a clustering; the pair the mapping
/// algorithms consume. The problem graph is shared: clones and the
/// coarser members of a multilevel hierarchy ([`Self::coarsen`]) differ
/// only in the clustering, so one job holds one copy of its tasks and
/// of the position rows they were frozen into. Its abstract graph is
/// collapsed at most once ([`Self::abstract_graph`]); equality and
/// serde see only the problem graph and the clustering.
#[derive(Clone, Debug)]
pub struct ClusteredProblemGraph {
    problem: Arc<ProblemGraph>,
    clustering: Clustering,
    /// The abstract graph, filled by the first reader or by the
    /// contraction that built this graph ([`Self::contract`]).
    abstract_graph: OnceLock<Arc<AbstractGraph>>,
}

impl PartialEq for ClusteredProblemGraph {
    fn eq(&self, other: &Self) -> bool {
        self.problem == other.problem && self.clustering == other.clustering
    }
}

impl Serialize for ClusteredProblemGraph {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("problem".into(), self.problem.to_value()),
            ("clustering".into(), self.clustering.to_value()),
        ])
    }
}

impl Deserialize for ClusteredProblemGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| DeError::expected("object for ClusteredProblemGraph", v))?;
        Ok(ClusteredProblemGraph {
            problem: serde::field(obj, "problem")?,
            clustering: serde::field(obj, "clustering")?,
            abstract_graph: OnceLock::new(),
        })
    }
}

impl ClusteredProblemGraph {
    /// Pair a problem graph with a clustering of the same task count.
    pub fn new(problem: ProblemGraph, clustering: Clustering) -> Result<Self, GraphError> {
        if problem.len() != clustering.num_tasks() {
            return Err(GraphError::SizeMismatch {
                left: problem.len(),
                right: clustering.num_tasks(),
            });
        }
        Ok(ClusteredProblemGraph {
            problem: Arc::new(problem),
            clustering,
            abstract_graph: OnceLock::new(),
        })
    }

    /// The abstract graph of this clustering (Fig 4), collapsed from the
    /// task edges by the first call and shared by every later one and
    /// by every clone made after it.
    pub fn abstract_graph(&self) -> &Arc<AbstractGraph> {
        self.abstract_graph
            .get_or_init(|| Arc::new(AbstractGraph::new(self)))
    }

    /// The underlying problem graph (for predecessor lookups).
    #[inline]
    pub fn problem(&self) -> &ProblemGraph {
        &self.problem
    }

    /// The clustering.
    #[inline]
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Number of tasks `np`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.problem.len()
    }

    /// Number of clusters `na`.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// Cluster owning task `t`.
    #[inline]
    pub fn cluster_of(&self, t: TaskId) -> ClusterId {
        self.clustering.cluster_of(t)
    }

    /// The clustered communication weight `clus_edge[u][v]`: the problem
    /// edge weight if `u -> v` crosses clusters, 0 if they share a
    /// cluster (or there is no edge), found by a search of `u`'s row.
    #[inline]
    pub fn clus_weight(&self, u: TaskId, v: TaskId) -> Weight {
        if self.clustering.same_cluster(u, v) {
            0
        } else {
            self.problem.weight(u, v).unwrap_or(0)
        }
    }

    /// Iterate over cross-cluster edges `(u, v, weight)` — the edges that
    /// survive into the clustered problem graph.
    pub fn cross_edges(&self) -> impl Iterator<Item = (TaskId, TaskId, Weight)> + '_ {
        self.problem
            .edges()
            .filter(move |&(u, v, _)| !self.clustering.same_cluster(u, v))
    }

    /// Total weight crossing clusters — the communication volume the
    /// mapping must place on the network.
    pub fn total_cut_weight(&self) -> Weight {
        self.cross_edges().map(|(_, _, w)| w).sum()
    }

    /// The next-coarser member of a multilevel hierarchy: the same
    /// problem graph under the clustering merged by `map` (`map[c]` =
    /// coarse cluster absorbing fine cluster `c`). Total task weight is
    /// conserved exactly (tasks never merge); cross-cluster edge weight
    /// splits into the coarse cut plus the weight internalized by the
    /// merge, so `self.total_cut_weight() == coarse.total_cut_weight()
    /// + internalized`.
    pub fn coarsen(&self, map: &[crate::ClusterId]) -> Result<ClusteredProblemGraph, GraphError> {
        Ok(ClusteredProblemGraph {
            problem: Arc::clone(&self.problem),
            clustering: self.clustering.coarsen(map)?,
            abstract_graph: OnceLock::new(),
        })
    }

    /// The next-coarser member of a multilevel hierarchy with its
    /// abstract graph in hand: [`Self::coarsen`] along `map`, holding
    /// this graph's abstract graph contracted along the same map (no
    /// task edge is read), and the cut weight the merge internalized.
    /// This graph's abstract graph moves into the contraction, so a
    /// chain of contractions holds one level's at a time; a later read
    /// here collapses it afresh.
    pub fn contract(
        &mut self,
        map: &[crate::ClusterId],
    ) -> Result<(ClusteredProblemGraph, Weight), GraphError> {
        let coarse = self.coarsen(map)?;
        let fine = Arc::clone(self.abstract_graph());
        self.abstract_graph.take();
        let (abs, internalized) = fine.contract(map, coarse.num_clusters());
        coarse.abstract_graph.get_or_init(|| Arc::new(abs));
        Ok((coarse, internalized))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 tasks: 1 -> 2 (w5), 1 -> 3 (w2), 2 -> 4 (w1), 3 -> 4 (w7);
    /// clusters {1,2} and {3,4} (0-based {0,1}, {2,3}).
    fn fixture() -> ClusteredProblemGraph {
        let p = ProblemGraph::from_paper_edges(
            &[1, 1, 1, 1],
            &[(1, 2, 5), (1, 3, 2), (2, 4, 1), (3, 4, 7)],
        )
        .unwrap();
        let c = Clustering::new(vec![0, 0, 1, 1]).unwrap();
        ClusteredProblemGraph::new(p, c).unwrap()
    }

    #[test]
    fn intra_cluster_weights_vanish() {
        let g = fixture();
        assert_eq!(g.clus_weight(0, 1), 0, "same cluster");
        assert_eq!(g.clus_weight(2, 3), 0, "same cluster");
        assert_eq!(g.clus_weight(0, 2), 2, "cross keeps weight");
        assert_eq!(g.clus_weight(1, 3), 1);
        assert_eq!(g.clus_weight(3, 0), 0, "no such edge");
    }

    #[test]
    fn cross_edges_and_cut_weight() {
        let g = fixture();
        let mut cross: Vec<_> = g.cross_edges().collect();
        cross.sort_unstable();
        assert_eq!(cross, vec![(0, 2, 2), (1, 3, 1)]);
        assert_eq!(g.total_cut_weight(), 3);
    }

    #[test]
    fn coarsen_conserves_cut_weight_split() {
        let g = fixture();
        // Merge both clusters into one: everything becomes internal.
        let coarse = g.coarsen(&[0, 0]).unwrap();
        assert_eq!(coarse.num_clusters(), 1);
        assert_eq!(coarse.num_tasks(), g.num_tasks());
        assert_eq!(coarse.total_cut_weight(), 0);
        // Identity map changes nothing.
        let same = g.coarsen(&[0, 1]).unwrap();
        assert_eq!(same.total_cut_weight(), g.total_cut_weight());
        assert_eq!(same.clustering(), g.clustering());
    }

    #[test]
    fn the_abstract_graph_is_collapsed_once_and_shared() -> Result<(), Box<dyn std::error::Error>> {
        let g = fixture();
        let before = g.clone();
        let abs = g.abstract_graph();
        assert_eq!(**abs, AbstractGraph::new(&g));
        assert!(Arc::ptr_eq(abs, g.abstract_graph()));
        assert!(Arc::ptr_eq(abs, g.clone().abstract_graph()));
        // A coarser graph collapses its own.
        let coarse = g.coarsen(&[0, 0])?;
        assert_eq!(coarse.abstract_graph().len(), 1);
        // Equality and serde see only the problem and the clustering.
        assert_eq!(before, g);
        let json = serde_json::to_string(&g)?;
        assert_eq!(json, serde_json::to_string(&before)?);
        let back: ClusteredProblemGraph = serde_json::from_str(&json)?;
        assert_eq!(back, g);
        Ok(())
    }

    #[test]
    fn a_contraction_holds_the_collapse_of_its_clustering() -> Result<(), Box<dyn std::error::Error>>
    {
        let mut g = fixture();
        for map in [[0, 1], [1, 0], [0, 0]] {
            let (coarse, internalized) = g.contract(&map)?;
            assert_eq!(coarse, g.coarsen(&map)?);
            assert_eq!(**coarse.abstract_graph(), AbstractGraph::new(&coarse));
            assert_eq!(
                internalized,
                g.total_cut_weight() - coarse.total_cut_weight()
            );
        }
        Ok(())
    }

    #[test]
    fn size_mismatch_rejected() {
        let p = ProblemGraph::from_paper_edges(&[1, 1], &[(1, 2, 1)]).unwrap();
        let c = Clustering::new(vec![0, 1, 1]).unwrap();
        assert!(matches!(
            ClusteredProblemGraph::new(p, c),
            Err(GraphError::SizeMismatch { .. })
        ));
    }
}
