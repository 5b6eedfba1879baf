//! Communication-greedy clustering by edge contraction.
//!
//! Start from `np` singleton clusters and repeatedly merge the pair of
//! clusters joined by the heaviest total inter-cluster communication,
//! subject to a balance cap, until `na` clusters remain — the classic
//! "internalize the heaviest edges" idea behind the clustering
//! literature the paper cites (Gerasoulis et al. \[8\], Efe \[9\]).
//! Internalized weight becomes free in the clustered problem graph, so
//! this front-end minimizes the communication the mapper must place.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mimd_graph::error::GraphError;
use mimd_graph::Weight;

use crate::clustering::{Clustering, UnionFind};
use crate::problem::ProblemGraph;

/// Merge-heaviest-edge clustering into `na` clusters.
///
/// `balance_factor` caps cluster size at
/// `ceil(balance_factor * np / na)` tasks (use e.g. `1.5`); values
/// `< 1.0` are rejected since they make `na` clusters unreachable.
/// Ties between equally heavy pairs go to the smaller `(a, b)` root
/// pair, and the pair merges into `a`. When no communicating pair fits
/// under the cap, no later merge can make one fit, so the two smallest
/// clusters by `(size, root)` merge into the smaller until `na` remain.
pub fn comm_greedy_clustering(
    problem: &ProblemGraph,
    na: usize,
    balance_factor: f64,
) -> Result<Clustering, GraphError> {
    let np = problem.len();
    if na == 0 || na > np {
        return Err(GraphError::InvalidParameter(format!(
            "need 1 <= na <= np, got na={na}, np={np}"
        )));
    }
    if balance_factor < 1.0 {
        return Err(GraphError::InvalidParameter(format!(
            "balance_factor {balance_factor} must be >= 1.0"
        )));
    }
    let cap = ((balance_factor * np as f64 / na as f64).ceil() as usize).max(1);

    // `pairs[a][b]`: weight between the clusters rooted at `a` and `b`
    // (at first one edge: no two edges join the same tasks). The heap
    // holds `(weight, (a, b))`, `a < b`, for every pair, and stale
    // entries: a live one names two roots and the pair's weight.
    let mut pairs: Vec<HashMap<usize, Weight>> = vec![HashMap::new(); np];
    let mut heap = BinaryHeap::new();
    for (u, v, w) in problem.edges() {
        pairs[u].insert(v, w);
        pairs[v].insert(u, w);
        heap.push((w, Reverse((u.min(v), u.max(v)))));
    }
    let mut clusters = UnionFind::new(np);
    while clusters.roots() > na {
        let Some((w, Reverse((a, b)))) = heap.pop() else {
            break;
        };
        let live = clusters.find(a) == a && clusters.find(b) == b && pairs[a].get(&b) == Some(&w);
        // Sizes only grow, so a pair over the cap stays over it.
        if !live || clusters.size(a) + clusters.size(b) > cap {
            continue;
        }
        clusters.link(a, b);
        // Any order: the heap pops by value, not by insertion.
        for (c, wc) in std::mem::take(&mut pairs[b]) {
            pairs[c].remove(&b);
            if c != a {
                let total = *pairs[a].entry(c).and_modify(|x| *x += wc).or_insert(wc);
                pairs[c].insert(a, total);
                heap.push((total, Reverse((a.min(c), a.max(c)))));
            }
        }
    }
    clusters.merge_smallest(na, |a, b| (a, b));
    clusters.into_clustering()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, LayeredDagGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem(np: usize) -> ProblemGraph {
        let cfg = GeneratorConfig {
            tasks: np,
            ..GeneratorConfig::default()
        };
        LayeredDagGenerator::new(cfg)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(21))
    }

    /// Total weight of edges crossing clusters.
    fn cut_weight(p: &ProblemGraph, c: &Clustering) -> u64 {
        p.edges()
            .filter(|&(u, v, _)| !c.same_cluster(u, v))
            .map(|(_, _, w)| w)
            .sum()
    }

    #[test]
    fn produces_na_clusters_and_respects_cap() {
        let p = problem(48);
        let c = comm_greedy_clustering(&p, 6, 1.5).unwrap();
        assert_eq!(c.num_clusters(), 6);
        let cap = (1.5f64 * 48.0 / 6.0).ceil() as usize;
        assert!(c.max_cluster_size() <= cap + 1, "near cap");
    }

    #[test]
    fn internalizes_more_weight_than_round_robin() {
        let p = problem(60);
        let greedy = comm_greedy_clustering(&p, 6, 1.5).unwrap();
        let rr = crate::clustering::round_robin::round_robin_clustering(&p, 6).unwrap();
        assert!(
            cut_weight(&p, &greedy) < cut_weight(&p, &rr),
            "greedy {} !< round-robin {}",
            cut_weight(&p, &greedy),
            cut_weight(&p, &rr)
        );
    }

    #[test]
    fn handles_edgeless_graph() {
        // All merges fall back to smallest-pair merging.
        let p = ProblemGraph::new(vec![1; 6], &[]).unwrap();
        let c = comm_greedy_clustering(&p, 2, 2.0).unwrap();
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn rejects_bad_parameters() {
        let p = problem(5);
        assert!(comm_greedy_clustering(&p, 0, 1.5).is_err());
        assert!(comm_greedy_clustering(&p, 6, 1.5).is_err());
        assert!(comm_greedy_clustering(&p, 2, 0.5).is_err());
    }

    #[test]
    fn na_equals_np_is_identity_partition() {
        let p = problem(7);
        let c = comm_greedy_clustering(&p, 7, 1.0).unwrap();
        assert_eq!(c.max_cluster_size(), 1);
    }
}
