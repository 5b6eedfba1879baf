//! Reconstructions of the paper's concrete instances.
//!
//! The ICS TR 91-35 scan is partially illegible, so these instances were
//! *reconstructed* by constraint search: every artifact the paper's text
//! states is enforced exactly; the remaining degrees of freedom were
//! solved so the derived matrices match the printed figures. Deviations
//! that proved mathematically unavoidable are listed in EXPERIMENTS.md.
//!
//! * [`worked_example`] — Figs 2–6 and 18–24: 11 tasks, 4 clusters, a
//!   ring-of-4 system graph. Reproduces the printed start/end times
//!   (Fig 22-b), critical problem edges (Fig 22-c), critical abstract
//!   matrix (Fig 20-b), `mca[0..=2]` (Fig 20-c), lower bound 14, and the
//!   Fig 23-b assignment achieving the bound (Fig 24).
//! * [`bokhari_counterexample`] — Figs 7–12: cardinality-optimal ≠
//!   time-optimal (totals 23 vs 21 on a degree-3 8-node system).
//! * [`lee_counterexample`] — Figs 13–17: comm-cost-optimal ≠
//!   time-optimal (cost 11 / total 23 vs cost 15 / total 21).

use mimd_graph::{Time, Weight};

use crate::clustered::ClusteredProblemGraph;
use crate::clustering::Clustering;
use crate::problem::ProblemGraph;

/// The worked example of Figs 2–6 / 18–24.
///
/// Tasks are the paper's 1–11 shifted to 0–10. Clusters (abstract
/// nodes): `{1,4,7,10}`, `{2,5,11}`, `{3,6,9}`, `{8}` in paper numbering.
/// The expected artifacts are exposed as constants below so tests and
/// examples can assert against the published figures.
pub fn worked_example() -> ClusteredProblemGraph {
    // Task sizes from Fig 22-b (i_end - i_start), paper tasks 1..=11.
    let sizes: [Time; 11] = [1, 1, 2, 3, 3, 1, 3, 2, 2, 3, 1];
    let edges = [
        (1, 2, 1),
        (1, 3, 2),
        (1, 4, 2), // intra-cluster in Fig 3 (tasks 1 and 4 share Va0)
        (2, 8, 4),
        (3, 5, 1),
        (3, 7, 2),
        (4, 6, 3),
        (5, 9, 1), // the paper's slack-2 example edge ec59
        (6, 9, 2), // intra-cluster: 9's second predecessor
        (6, 11, 1),
        (7, 9, 2),  // the paper's canonical critical edge ei79
        (7, 10, 1), // intra-cluster
        (7, 11, 3),
        (8, 9, 1),
    ];
    let problem = ProblemGraph::from_paper_edges(&sizes, &edges)
        .expect("worked example is a valid problem graph");
    let clustering = Clustering::from_members(
        vec![
            vec![0, 3, 6, 9], // paper tasks 1, 4, 7, 10
            vec![1, 4, 10],   // paper tasks 2, 5, 11
            vec![2, 5, 8],    // paper tasks 3, 6, 9
            vec![7],          // paper task 8
        ],
        11,
    )
    .expect("worked example clustering is valid");
    ClusteredProblemGraph::new(problem, clustering).expect("sizes match")
}

/// Published ideal start times (Fig 22-b, `i_start[11]`), index = paper
/// task − 1.
pub const WORKED_IDEAL_START: [Time; 11] = [0, 2, 3, 1, 6, 7, 7, 7, 12, 10, 13];

/// Published ideal end times (Fig 22-b, `i_end[11]`).
pub const WORKED_IDEAL_END: [Time; 11] = [1, 3, 5, 4, 9, 8, 10, 9, 14, 13, 14];

/// Published lower bound (total time of the ideal graph, Fig 6).
pub const WORKED_LOWER_BOUND: Time = 14;

/// Published critical problem edges (Fig 22-c), 0-based `(from, to,
/// weight)`.
pub const WORKED_CRITICAL_EDGES: [(usize, usize, u64); 4] =
    [(0, 2, 2), (2, 6, 2), (6, 8, 2), (6, 10, 3)];

/// Published critical-degree vector (row sums of Fig 20-b's
/// `c_abs_edge`): clusters 0..=3.
pub const WORKED_CRITICAL_DEGREES: [u64; 4] = [9, 3, 6, 0];

/// Published `mca` communication-intensity vector (Fig 20-c). The first
/// three entries are printed legibly / stated in the text; `mca[3]` is
/// garbled in the scan and our reconstruction yields 5 there (see
/// EXPERIMENTS.md).
pub const WORKED_MCA: [u64; 4] = [13, 11, 13, 5];

/// The Fig 23-b assignment: `sys_of_cluster[c]` = system node hosting
/// abstract node `c` (paper matrix `assi = (0 1 3 2)` inverted into
/// cluster-major order — cluster 2 on system node 3, cluster 3 on system
/// node 2). Under the ring-of-4 this assignment achieves the lower bound
/// 14 (Fig 24), so refinement terminates immediately.
pub const WORKED_OPTIMAL_ASSIGNMENT: [usize; 4] = [0, 1, 3, 2];

/// A §2.2 counterexample instance with named assignments.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The problem graph (np = ns = 8, so the clustered problem graph
    /// equals the problem graph with singleton clusters).
    pub problem: ProblemGraph,
    /// First named assignment (`A1` / `A3`): optimal under the *indirect*
    /// measure. `assignment[task] = system node` (0-based).
    pub indirect_optimal: Vec<usize>,
    /// Second named assignment (`A2` / `A4`): worse under the indirect
    /// measure but better in total time.
    pub time_better: Vec<usize>,
    /// Expected total time of `indirect_optimal` (paper: 23).
    pub indirect_total: Time,
    /// Expected total time of `time_better` (paper: 21).
    pub better_total: Time,
}

impl Counterexample {
    /// Singleton clustering (np = na), as the paper uses for §2.2.
    pub fn singleton_clustered(&self) -> ClusteredProblemGraph {
        let n = self.problem.len();
        let clustering = Clustering::new((0..n).collect()).expect("identity clustering");
        ClusteredProblemGraph::new(self.problem.clone(), clustering).expect("sizes match")
    }
}

/// Figs 7–12: Bokhari's cardinality measure mis-ranks assignments.
///
/// 8 tasks, 9 edges, task 3 with degree 4, mapped onto a degree-3
/// 8-node system (the 3-cube). The cardinality-optimal assignment
/// (8 of 9 edges on single system links — 9 is impossible since the
/// system degree is 3) has total time 23, while an assignment with
/// lower cardinality finishes in 21.
pub fn bokhari_counterexample() -> Counterexample {
    let sizes: [Time; 8] = [5, 2, 2, 2, 4, 1, 4, 3];
    let edges = [
        (1, 3, 2),
        (2, 3, 2),
        (3, 4, 1),
        (3, 5, 2),
        (2, 7, 1),
        (4, 6, 1),
        (5, 8, 3),
        (6, 8, 3),
        (4, 7, 1),
    ];
    let problem =
        ProblemGraph::from_paper_edges(&sizes, &edges).expect("bokhari instance is valid");
    Counterexample {
        problem,
        // Found by exhaustive search over all 8! assignments onto the
        // 3-cube: cardinality 8 (the maximum), total 23.
        indirect_optimal: vec![0, 3, 1, 5, 2, 4, 7, 6],
        // Global time optimum, total 21 (lower cardinality).
        time_better: vec![0, 1, 2, 3, 6, 5, 4, 7],
        indirect_total: 23,
        better_total: 21,
    }
}

/// Figs 13–17: Lee & Aggarwal's phased communication cost mis-ranks
/// assignments.
///
/// Edge weights are recovered exactly from Figs 15/17; node weights are
/// solved to reproduce the printed totals. Assignment A3 minimizes the
/// phased communication cost (11 units) yet takes 23 time units;
/// assignment A4 costs 15 units but finishes in 21.
pub fn lee_counterexample() -> Counterexample {
    let sizes: [Time; 8] = [1, 1, 2, 3, 5, 3, 2, 5];
    let edges = [
        (1, 3, 3),
        (2, 3, 3),
        (2, 7, 2),
        (3, 4, 4),
        (3, 5, 2),
        (4, 6, 1),
        (5, 8, 3),
    ];
    let problem = ProblemGraph::from_paper_edges(&sizes, &edges).expect("lee instance is valid");
    Counterexample {
        problem,
        // A3 on the 3-cube: only (3,5) spans 2 hops.
        indirect_optimal: vec![0b100, 0b001, 0b000, 0b010, 0b011, 0b110, 0b101, 0b111],
        // A4: only (3,4) spans 2 hops.
        time_better: vec![0b100, 0b001, 0b000, 0b011, 0b010, 0b111, 0b101, 0b110],
        indirect_total: 23,
        better_total: 21,
    }
}

/// The paper's Lee-phase grouping for [`lee_counterexample`] (Fig 15):
/// phase `k` lists 0-based `(from, to, weight)` communications assumed
/// simultaneous, each with its edge's weight (every edge crosses the
/// instance's singleton clusters).
pub fn lee_paper_phases() -> Vec<Vec<(usize, usize, Weight)>> {
    vec![
        vec![(0, 2, 3), (1, 2, 3), (1, 6, 2)],
        vec![(2, 3, 4), (2, 4, 2)],
        vec![(3, 5, 1)],
        vec![(4, 7, 3)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstracted::AbstractGraph;

    #[test]
    fn worked_example_structure() {
        let g = worked_example();
        assert_eq!(g.num_tasks(), 11);
        assert_eq!(g.num_clusters(), 4);
        // Paper tasks 1 and 4 share cluster 0; task 9 is the 3rd member
        // of cluster 2 (paper §3.2(b): clus_pnode[2][3] = 9).
        assert!(g.clustering().same_cluster(0, 3));
        assert_eq!(g.clustering().members(2), &[2, 5, 8]);
        assert_eq!(g.clustering().members(2)[2] + 1, 9);
    }

    #[test]
    fn worked_example_mca_matches_fig20c() {
        let g = worked_example();
        assert_eq!(AbstractGraph::new(&g).mca_vector(), &WORKED_MCA);
    }

    #[test]
    fn worked_example_clustered_weights() {
        let g = worked_example();
        // ec79 = 2 (paper: clus_edge[7][9] = 2).
        assert_eq!(g.clus_weight(6, 8), 2);
        // ec59 = 1 (the slack-2 example).
        assert_eq!(g.clus_weight(4, 8), 1);
        // (1,4) and (7,10) lose their weights (same cluster).
        assert_eq!(g.clus_weight(0, 3), 0);
        assert_eq!(g.clus_weight(6, 9), 0);
        // (6,9) is intra-cluster: weight removed.
        assert_eq!(g.clus_weight(5, 8), 0);
    }

    /// In- plus out-degree of task `t`.
    fn degree(p: &ProblemGraph, t: usize) -> usize {
        p.predecessors(t).len() + p.successors(t).len()
    }

    #[test]
    fn counterexample_shapes() {
        let b = bokhari_counterexample();
        assert_eq!(b.problem.len(), 8);
        assert_eq!(b.problem.graph().edge_count(), 9);
        // Task 3 (0-based 2) has degree 4, exceeding the system degree 3.
        assert_eq!(degree(&b.problem, 2), 4);

        let l = lee_counterexample();
        assert_eq!(l.problem.len(), 8);
        assert_eq!(l.problem.graph().edge_count(), 7);
        assert_eq!(degree(&l.problem, 2), 4);
    }

    #[test]
    fn counterexample_assignments_are_permutations() {
        for ce in [bokhari_counterexample(), lee_counterexample()] {
            for assign in [&ce.indirect_optimal, &ce.time_better] {
                let mut sorted = assign.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..8).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn lee_phases_cover_all_edges() {
        let l = lee_counterexample();
        let phases = lee_paper_phases();
        let mut covered: Vec<(usize, usize, Weight)> = phases.concat();
        covered.sort_unstable();
        assert_eq!(covered, l.problem.edges().collect::<Vec<_>>());
    }

    #[test]
    fn singleton_clustering_preserves_weights() {
        let ce = lee_counterexample();
        let g = ce.singleton_clustered();
        assert_eq!(g.num_clusters(), 8);
        assert_eq!(
            g.clus_weight(2, 3),
            4,
            "cross singleton clusters keep weights"
        );
        assert_eq!(g.total_cut_weight(), 3 + 3 + 2 + 4 + 2 + 1 + 3);
    }
}
