//! Communication-greedy clustering by edge contraction.
//!
//! Start from `np` singleton clusters and repeatedly merge the pair of
//! clusters joined by the heaviest total inter-cluster communication,
//! subject to a balance cap, until `na` clusters remain — the classic
//! "internalize the heaviest edges" idea behind the clustering
//! literature the paper cites (Gerasoulis et al. \[8\], Efe \[9\]).
//! Internalized weight becomes free in the clustered problem graph, so
//! this front-end minimizes the communication the mapper must place.

use std::collections::HashMap;

use mimd_graph::error::GraphError;
use mimd_graph::Weight;

use crate::clustering::Clustering;
use crate::problem::ProblemGraph;

/// Merge-heaviest-edge clustering into `na` clusters.
///
/// `balance_factor` caps cluster size at
/// `ceil(balance_factor * np / na)` tasks (use e.g. `1.5`); values
/// `< 1.0` are rejected since they make `na` clusters unreachable.
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

    // Union-find over tasks; roots represent clusters.
    let mut parent: Vec<usize> = (0..np).collect();
    let mut size: Vec<usize> = vec![1; np];
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }

    let mut clusters = np;
    while clusters > na {
        // Aggregate inter-cluster weights, then merge the heaviest pair
        // that respects the cap. Rebuilding per round is O(E) and np is
        // paper-scale; total O(np·E).
        let mut agg: HashMap<(usize, usize), Weight> = HashMap::new();
        for (u, v, w) in problem.edges() {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                let key = (ru.min(rv), ru.max(rv));
                *agg.entry(key).or_insert(0) += w;
            }
        }
        let candidate = agg
            .iter()
            .filter(|&(&(a, b), _)| size[a] + size[b] <= cap)
            .max_by_key(|&(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
            .map(|(&k, _)| k);
        let (a, b) = match candidate {
            Some(pair) => pair,
            None => {
                // No joinable communicating pair: merge the two smallest
                // clusters under the cap; if even that fails, merge the
                // two smallest outright (guarantees termination).
                let mut roots: Vec<usize> =
                    (0..np).filter(|&x| find(&mut parent, x) == x).collect();
                roots.sort_by_key(|&r| (size[r], r));
                (roots[0], roots[1])
            }
        };
        parent[b] = a;
        size[a] += size[b];
        clusters -= 1;
    }

    // Compact root ids to 0..na.
    let mut id_of_root: HashMap<usize, usize> = HashMap::new();
    let mut cluster_of = vec![0usize; np];
    for (t, cluster) in cluster_of.iter_mut().enumerate() {
        let r = find(&mut parent, t);
        let next = id_of_root.len();
        *cluster = *id_of_root.entry(r).or_insert(next);
    }
    Clustering::new(cluster_of)
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
