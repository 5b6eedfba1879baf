//! Linear-chain clustering.
//!
//! Greedily peel maximal dependency chains off the DAG (always following
//! the heaviest outgoing edge to an unclaimed task) and deal the chains
//! to clusters round-robin. Chains internalize the sequential backbone of
//! the program — the structure the paper's Gaussian-elimination citation
//! \[11\] exploits — while keeping cluster counts exact.

use mimd_graph::error::GraphError;

use crate::clustering::Clustering;
use crate::problem::ProblemGraph;
use crate::TaskId;

/// Chain-peeling clustering into `na` clusters. Requires `na <= np`.
pub fn chain_clustering(problem: &ProblemGraph, na: usize) -> Result<Clustering, GraphError> {
    let np = problem.len();
    if na == 0 || na > np {
        return Err(GraphError::InvalidParameter(format!(
            "need 1 <= na <= np, got na={na}, np={np}"
        )));
    }
    let mut claimed = vec![false; np];
    let mut chains: Vec<Vec<TaskId>> = Vec::new();
    // Start chains from tasks in topological order so heads are sources
    // first; extend each chain along the heaviest edge to an unclaimed
    // successor.
    for &start in problem.topo_order() {
        if claimed[start] {
            continue;
        }
        let mut chain = vec![start];
        claimed[start] = true;
        let mut cur = start;
        loop {
            let next = problem
                .successors(cur)
                .filter(|&(v, _)| !claimed[v])
                .max_by_key(|&(v, w)| (w, std::cmp::Reverse(v)))
                .map(|(v, _)| v);
            match next {
                Some(v) => {
                    claimed[v] = true;
                    chain.push(v);
                    cur = v;
                }
                None => break,
            }
        }
        chains.push(chain);
    }
    // Deal chains to clusters, longest chains first so sizes stay even.
    chains.sort_by_key(|ch| std::cmp::Reverse(ch.len()));
    let mut cluster_of = vec![0usize; np];
    let mut load = vec![0usize; na];
    let mut used = vec![false; na];
    for (rank, chain) in chains.iter().enumerate() {
        let c = if rank < na {
            let c = used.iter().position(|&u| !u).expect("rank < na");
            used[c] = true;
            c
        } else {
            (0..na).min_by_key(|&c| (load[c], c)).expect("na >= 1")
        };
        for &t in chain {
            cluster_of[t] = c;
        }
        load[c] += chain.len();
    }
    // If fewer chains than clusters, split the largest clusters to fill
    // the empty ones (each split moves one task).
    loop {
        let mut counts = vec![0usize; na];
        for &c in &cluster_of {
            counts[c] += 1;
        }
        let Some(empty) = counts.iter().position(|&n| n == 0) else {
            break;
        };
        let donor = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &n)| n)
            .map(|(c, _)| c)
            .unwrap();
        let victim = cluster_of
            .iter()
            .rposition(|&c| c == donor)
            .expect("donor non-empty");
        cluster_of[victim] = empty;
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
            .generate(&mut StdRng::seed_from_u64(33))
    }

    #[test]
    fn produces_exactly_na_clusters() {
        let p = problem(50);
        for na in [2, 5, 10, 25] {
            let c = chain_clustering(&p, na).unwrap();
            assert_eq!(c.num_clusters(), na, "na={na}");
        }
    }

    #[test]
    fn pure_chain_stays_together() {
        // 1 -> 2 -> 3 -> 4 with one extra cluster demanded: the chain is
        // split only as much as the fill-up repair requires.
        let p = ProblemGraph::from_paper_edges(&[1, 1, 1, 1], &[(1, 2, 5), (2, 3, 5), (3, 4, 5)])
            .unwrap();
        let c = chain_clustering(&p, 2).unwrap();
        assert_eq!(c.num_clusters(), 2);
        // Three of the four tasks stay in the chain's cluster.
        assert_eq!(c.max_cluster_size(), 3);
    }

    #[test]
    fn follows_heaviest_successor() {
        // 1 -> 2 (w1), 1 -> 3 (w9): the chain from 1 should claim 3.
        let p = ProblemGraph::from_paper_edges(&[1, 1, 1], &[(1, 2, 1), (1, 3, 9)]).unwrap();
        let c = chain_clustering(&p, 2).unwrap();
        assert!(c.same_cluster(0, 2), "heavy edge internalized");
        assert!(!c.same_cluster(0, 1));
    }

    #[test]
    fn rejects_bad_na() {
        let p = problem(4);
        assert!(chain_clustering(&p, 0).is_err());
        assert!(chain_clustering(&p, 5).is_err());
    }
}
