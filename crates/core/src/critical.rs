//! Critical problem edges, critical abstract edges and critical degrees
//! (§2.1 terms 2–5, §4.2 algorithms I–III).
//!
//! An ideal edge is **critical** when any increase of the corresponding
//! clustered weight must lengthen the total time: by Theorems 1–2 that is
//! exactly the zero-slack (`i_edge == clus_edge`) edges lying on a
//! zero-slack path to a *latest task*, found by backwards propagation
//! from the latest-task set. Summing critical problem edges per cluster
//! pair yields the **critical abstract edges** (the paper's
//! `c_abs_edge[na][na+1]`, here the rows of a sparse [`Csr`]); the row
//! sums are the **critical degrees** that rank clusters during the
//! initial assignment.

use serde::{Deserialize, Serialize};

use mimd_graph::{Csr, Weight};
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph, TaskId};

use crate::ideal::IdealSchedule;

/// How criticality propagates backwards from the latest tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CriticalityMode {
    /// §4.2 Algorithm I verbatim: from a task in the worklist, examine
    /// only its predecessors *in the clustered problem graph* (i.e.
    /// across clusters). Zero-slack intra-cluster chains do not
    /// propagate.
    PaperExact,
    /// Extension (ablation A2): zero-slack *intra-cluster* precedence
    /// also propagates the worklist (delays travel through a cluster's
    /// internal chain just as surely), potentially marking more
    /// cross-cluster edges critical.
    Extended,
}

/// The output of the critical-edge analysis.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalAnalysis {
    mode: CriticalityMode,
    /// Critical problem edges `(u, v, clustered weight)`.
    critical_edges: Vec<(TaskId, TaskId, Weight)>,
    /// Symmetric `c_abs_edge[na][na]` in sparse form (without the
    /// paper's appended degree column; see
    /// [`CriticalAnalysis::critical_degree`]).
    c_abs: Csr,
    /// Row sums of `c_abs` — the paper's last column of
    /// `c_abs_edge[na][na+1]`.
    degrees: Vec<Weight>,
}

impl CriticalAnalysis {
    /// Run §4.2 algorithms I–III on an ideal schedule.
    pub fn analyze(
        graph: &ClusteredProblemGraph,
        ideal: &IdealSchedule,
        mode: CriticalityMode,
    ) -> Self {
        let problem = graph.problem();
        let clustering = graph.clustering();
        let mut in_worklist = vec![false; problem.len()];
        let mut stack: Vec<TaskId> = Vec::new();
        for t in ideal.latest_tasks() {
            in_worklist[t] = true;
            stack.push(t);
        }
        // Each task enters the worklist once and the rows list each
        // predecessor once, so every edge `(u, v)` is examined once.
        let mut critical_edges = Vec::new();
        while let Some(v) = stack.pop() {
            for (u, w) in problem.predecessors(v) {
                if !clustering.same_cluster(u, v) {
                    // Cross-cluster edge: critical iff zero slack.
                    if ideal.ideal_edge(u, v) == w {
                        critical_edges.push((u, v, w));
                        if !in_worklist[u] {
                            in_worklist[u] = true;
                            stack.push(u);
                        }
                    }
                } else if mode == CriticalityMode::Extended
                    && ideal.ideal_edge(u, v) == 0
                    && !in_worklist[u]
                {
                    // Zero-slack intra-cluster dependency: propagate the
                    // worklist without marking an edge (it has no
                    // clustered weight to be critical).
                    in_worklist[u] = true;
                    stack.push(u);
                }
            }
        }
        critical_edges.sort_unstable();

        // Algorithm II: sum critical problem edges per cluster pair into
        // the rows of the critical abstract graph.
        let na = graph.num_clusters();
        let contributions: Vec<_> = critical_edges
            .iter()
            .map(|&(u, v, w)| (graph.cluster_of(u), graph.cluster_of(v), w))
            .collect();
        let c_abs = Csr::from_contributions(na, &contributions);
        // Algorithm III: critical degrees = row sums.
        let degrees: Vec<Weight> = (0..na).map(|a| c_abs.weights(a).iter().sum()).collect();

        CriticalAnalysis {
            mode,
            critical_edges,
            c_abs,
            degrees,
        }
    }

    /// The propagation mode used.
    pub fn mode(&self) -> CriticalityMode {
        self.mode
    }

    /// Critical problem edges, sorted by `(u, v)` (the paper's
    /// `crit_edge[np][np]` matrix in sparse form).
    pub fn critical_edges(&self) -> &[(TaskId, TaskId, Weight)] {
        &self.critical_edges
    }

    /// `true` iff the edge `u -> v` is critical.
    pub fn is_critical_edge(&self, u: TaskId, v: TaskId) -> bool {
        self.critical_edges
            .binary_search_by(|&(a, b, _)| (a, b).cmp(&(u, v)))
            .is_ok()
    }

    /// Weight of the critical abstract edge between clusters `a` and `b`
    /// (0 when not critical) — the paper's `c_abs_edge[a][b]`. A binary
    /// search; loops walk [`CriticalAnalysis::critical_abstract_row`].
    #[inline]
    pub fn critical_abstract_weight(&self, a: ClusterId, b: ClusterId) -> Weight {
        self.c_abs.weight(a, b).unwrap_or(0)
    }

    /// `true` iff clusters `a` and `b` share a critical abstract edge.
    #[inline]
    pub fn is_critical_abstract_edge(&self, a: ClusterId, b: ClusterId) -> bool {
        self.c_abs.weight(a, b).is_some()
    }

    /// The critical abstract edges at cluster `a` as `(neighbor,
    /// weight)` pairs, ascending by neighbor.
    #[inline]
    pub fn critical_abstract_row(
        &self,
        a: ClusterId,
    ) -> impl Iterator<Item = (ClusterId, Weight)> + '_ {
        self.c_abs.row(a)
    }

    /// Critical degree of cluster `a` (§2.1 term 4; last column of the
    /// paper's `c_abs_edge[na][na+1]`).
    #[inline]
    pub fn critical_degree(&self, a: ClusterId) -> Weight {
        self.degrees[a]
    }

    /// All critical degrees.
    pub fn critical_degrees(&self) -> &[Weight] {
        &self.degrees
    }

    /// Clusters that touch at least one critical abstract edge — step 2
    /// of the initial assignment must visit exactly these.
    pub fn clusters_with_critical_edges(&self) -> Vec<ClusterId> {
        (0..self.degrees.len())
            .filter(|&a| self.degrees[a] > 0)
            .collect()
    }

    /// Clusters sorted by descending critical degree, ties by ascending
    /// id.
    pub fn by_descending_critical_degree(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = (0..self.degrees.len()).collect();
        ids.sort_by_key(|&a| (std::cmp::Reverse(self.degrees[a]), a));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;

    fn analyzed(mode: CriticalityMode) -> (ClusteredProblemGraph, CriticalAnalysis) {
        let g = paper::worked_example();
        let ideal = IdealSchedule::derive(&g);
        let a = CriticalAnalysis::analyze(&g, &ideal, mode);
        (g, a)
    }

    #[test]
    fn worked_example_critical_edges_match_fig22c() {
        let (_, a) = analyzed(CriticalityMode::PaperExact);
        assert_eq!(a.critical_edges(), &paper::WORKED_CRITICAL_EDGES);
        assert!(a.is_critical_edge(6, 8), "ei79");
        assert!(!a.is_critical_edge(4, 8), "ei59 has slack 2");
    }

    #[test]
    fn worked_example_cabs_matches_fig20b() {
        let (_, a) = analyzed(CriticalityMode::PaperExact);
        assert_eq!(a.critical_abstract_weight(0, 1), 3);
        assert_eq!(a.critical_abstract_weight(0, 2), 6);
        assert_eq!(a.critical_abstract_weight(1, 2), 0);
        assert_eq!(a.critical_abstract_weight(2, 0), 6, "symmetric");
        assert!(a.is_critical_abstract_edge(0, 1));
        assert!(!a.is_critical_abstract_edge(1, 3));
    }

    #[test]
    fn worked_example_degrees_match() {
        let (_, a) = analyzed(CriticalityMode::PaperExact);
        assert_eq!(a.critical_degrees(), &paper::WORKED_CRITICAL_DEGREES);
        assert_eq!(a.by_descending_critical_degree(), vec![0, 2, 1, 3]);
        assert_eq!(a.clusters_with_critical_edges(), vec![0, 1, 2]);
    }

    #[test]
    fn extended_mode_finds_superset() {
        let (_, exact) = analyzed(CriticalityMode::PaperExact);
        let (_, ext) = analyzed(CriticalityMode::Extended);
        for &(u, v, _) in exact.critical_edges() {
            assert!(ext.is_critical_edge(u, v), "({u},{v}) lost in Extended");
        }
        assert_eq!(ext.mode(), CriticalityMode::Extended);
    }

    #[test]
    fn extended_mode_propagates_through_clusters() {
        // Chain: 1 -(cross w2)-> 2 -(intra)-> 3 -(cross w1)-> 4 (latest).
        // PaperExact: from 4, pred 3's cross edge (3,4) is tight ->
        // critical; from 3, pred 2 is intra so clus_weight = 0 and the
        // worklist stalls — (1,2) is never examined. Extended follows the
        // tight intra edge and marks (1,2).
        use mimd_taskgraph::{Clustering, ProblemGraph};
        let p = ProblemGraph::from_paper_edges(&[1, 1, 1, 1], &[(1, 2, 2), (2, 3, 9), (3, 4, 1)])
            .unwrap();
        let c = Clustering::new(vec![0, 1, 1, 2]).unwrap();
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        let ideal = IdealSchedule::derive(&g);
        let exact = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
        let ext = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::Extended);
        assert!(exact.is_critical_edge(2, 3));
        assert!(
            !exact.is_critical_edge(0, 1),
            "paper-exact stalls at the cluster"
        );
        assert!(ext.is_critical_edge(0, 1), "extended propagates through");
    }

    #[test]
    fn no_critical_edges_when_no_cross_edges() {
        use mimd_taskgraph::{Clustering, ProblemGraph};
        let p = ProblemGraph::from_paper_edges(&[1, 1], &[(1, 2, 3)]).unwrap();
        // Both tasks in cluster 0 of 2 — need a second non-empty cluster,
        // so use a 3-task variant.
        let p3 = ProblemGraph::from_paper_edges(&[1, 1, 5], &[(1, 2, 3)]).unwrap();
        let c = Clustering::new(vec![0, 0, 1]).unwrap();
        let g = ClusteredProblemGraph::new(p3, c).unwrap();
        let ideal = IdealSchedule::derive(&g);
        let a = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
        assert!(a.critical_edges().is_empty());
        assert_eq!(a.critical_degrees(), &[0, 0]);
        assert!(a.clusters_with_critical_edges().is_empty());
        drop(p);
    }
}
