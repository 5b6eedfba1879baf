//! Sarkar-style edge-zeroing clustering.
//!
//! The classic internalization algorithm behind the paper's clustering
//! citations (Gerasoulis et al. \[8\], Sarkar 1989) walks the edges by
//! decreasing weight and merges the endpoint clusters unless that
//! lengthens the DAG's *parallel time* (the ideal makespan with
//! intra-cluster edges free). Under this crate's precedence model
//! (tasks in one cluster may overlap) a merge only zeroes edges, which
//! never lengthens a longest path: the test is vacuous. So the front-end
//! is heavy-edge union — edges by `(weight descending, u, v)`, each
//! putting `v`'s cluster under `u`'s, until `na` clusters remain — then,
//! if the edges ran out first, smallest-pair compaction: the two smallest
//! clusters by `(size, label)` merge into the smaller label until `na`
//! remain (the pipeline needs `na = ns`). ROADMAP item 13(b) is a real
//! merge test, under the serialized model.

use std::cmp::Reverse;

use mimd_graph::error::GraphError;
use mimd_graph::Weight;

use crate::clustering::{Clustering, UnionFind};
use crate::problem::ProblemGraph;

/// Edge-zeroing clustering into exactly `na` clusters.
pub fn sarkar_clustering(problem: &ProblemGraph, na: usize) -> Result<Clustering, GraphError> {
    let np = problem.len();
    if na == 0 || na > np {
        return Err(GraphError::InvalidParameter(format!(
            "need 1 <= na <= np, got na={na}, np={np}"
        )));
    }
    let mut edges: Vec<(usize, usize, Weight)> = problem.edges().collect();
    edges.sort_by_key(|&(u, v, w)| (Reverse(w), u, v));
    let mut clusters = UnionFind::new(np);
    for (u, v, _) in edges {
        if clusters.roots() <= na {
            break;
        }
        let (cu, cv) = (clusters.find(u), clusters.find(v));
        if cu != cv {
            clusters.link(cu, cv);
        }
    }
    clusters.merge_smallest(na, |a, b| (a.min(b), a.max(b)));
    clusters.into_clustering()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::ClusteredProblemGraph;
    use crate::clustering::random::random_clustering;
    use crate::generator::{GeneratorConfig, LayeredDagGenerator};
    use mimd_graph::Time;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Parallel time of `problem` under a cluster assignment (edges
    /// inside one cluster cost zero).
    fn parallel_time(problem: &ProblemGraph, cluster_of: &[usize]) -> Time {
        let rows = problem.graph();
        let inside = |u: usize, v: usize| cluster_of[rows.task(u)] == cluster_of[rows.task(v)];
        rows.longest_path(|u, v, w| if inside(u, v) { 0 } else { w })
    }

    fn problem(np: usize, seed: u64) -> ProblemGraph {
        let cfg = GeneratorConfig {
            tasks: np,
            ..GeneratorConfig::default()
        };
        LayeredDagGenerator::new(cfg)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn produces_exactly_na_clusters() {
        let p = problem(60, 1);
        for na in [2, 6, 15, 60] {
            let c = sarkar_clustering(&p, na).unwrap();
            assert_eq!(c.num_clusters(), na, "na={na}");
        }
    }

    #[test]
    fn zeroing_heavy_chain_is_beneficial() {
        // A chain with heavy edges: Sarkar should fuse it entirely
        // (parallel time = sum of sizes, no comm).
        let p =
            ProblemGraph::from_paper_edges(&[2, 2, 2, 2], &[(1, 2, 50), (2, 3, 50), (3, 4, 50)])
                .unwrap();
        let c = sarkar_clustering(&p, 1).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(parallel_time(&p, c.assignments()), 8);
    }

    #[test]
    fn fork_join_is_not_over_merged() {
        // Fork: 1 -> {2,3,4} -> 5, light edges, heavy tasks. Merging all
        // into one cluster would NOT change precedence-model time (tasks
        // may overlap), so Sarkar may merge freely — but with na = 3 the
        // compaction must still deliver 3 clusters.
        let p = ProblemGraph::from_paper_edges(
            &[1, 9, 9, 9, 1],
            &[
                (1, 2, 1),
                (1, 3, 1),
                (1, 4, 1),
                (2, 5, 1),
                (3, 5, 1),
                (4, 5, 1),
            ],
        )
        .unwrap();
        let c = sarkar_clustering(&p, 3).unwrap();
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    fn beats_random_clustering_on_cut_weight_or_time(// both, usually
    ) {
        let p = problem(80, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let sarkar = sarkar_clustering(&p, 8).unwrap();
        let random = random_clustering(&p, 8, &mut rng).unwrap();
        let t_sarkar = parallel_time(&p, sarkar.assignments());
        let t_random = parallel_time(&p, random.assignments());
        assert!(
            t_sarkar <= t_random,
            "sarkar {t_sarkar} vs random {t_random}"
        );
        let cut_s = ClusteredProblemGraph::new(p.clone(), sarkar)
            .unwrap()
            .total_cut_weight();
        let cut_r = ClusteredProblemGraph::new(p, random)
            .unwrap()
            .total_cut_weight();
        assert!(cut_s < cut_r);
    }

    #[test]
    fn rejects_bad_na() {
        let p = problem(5, 4);
        assert!(sarkar_clustering(&p, 0).is_err());
        assert!(sarkar_clustering(&p, 6).is_err());
    }
}
