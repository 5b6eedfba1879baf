//! Structural graph-embedding baselines.
//!
//! Before iterative mapping heuristics, machines shipped with fixed
//! embedding recipes: lay the program's clusters out as a linear order
//! and embed that order into the topology so consecutive clusters land
//! on adjacent processors — a Gray-code walk on hypercubes, a
//! boustrophedon ("snake") walk on meshes. These are the classic
//! dilation-1 chain embeddings; they ignore edge weights and the DAG
//! entirely, which is exactly what makes them an instructive baseline
//! for the paper's weight- and criticality-aware strategy.

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

use mimd_core::Assignment;

/// How the cluster chain order is derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChainOrder {
    /// Clusters in id order (the naive recipe).
    ById,
    /// Greedy heavy-edge walk over the abstract graph: start from the
    /// heaviest cluster (by `mca`), repeatedly append the unvisited
    /// neighbor with the heaviest pair weight (fall back to the
    /// heaviest unvisited cluster when stuck).
    HeavyWalk,
}

/// Compute the cluster chain for [`ChainOrder`].
pub fn cluster_chain(graph: &ClusteredProblemGraph, order: ChainOrder) -> Vec<ClusterId> {
    let na = graph.num_clusters();
    match order {
        ChainOrder::ById => (0..na).collect(),
        ChainOrder::HeavyWalk => {
            let abs = graph.abstract_graph();
            let mut visited = vec![false; na];
            let mut chain = Vec::with_capacity(na);
            let mut cur = abs.by_descending_mca()[0];
            visited[cur] = true;
            chain.push(cur);
            while chain.len() < na {
                let next = abs
                    .row(cur)
                    .filter(|&(b, _)| !visited[b])
                    .max_by_key(|&(b, w)| (w, std::cmp::Reverse(b)))
                    .map(|(b, _)| b)
                    .or_else(|| abs.by_descending_mca().into_iter().find(|&b| !visited[b]))
                    .expect("some cluster remains unvisited");
                visited[next] = true;
                chain.push(next);
                cur = next;
            }
            chain
        }
    }
}

/// The reflected binary Gray code of length `2^dim`: consecutive entries
/// differ in exactly one bit, i.e. they are hypercube neighbors.
pub fn gray_code(dim: u32) -> Vec<usize> {
    let n = 1usize << dim;
    (0..n).map(|i| i ^ (i >> 1)).collect()
}

/// The snake (boustrophedon) order of a `rows × cols` mesh: consecutive
/// entries are mesh neighbors.
pub fn snake_order(rows: usize, cols: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        if r % 2 == 0 {
            order.extend((0..cols).map(|c| r * cols + c));
        } else {
            order.extend((0..cols).rev().map(|c| r * cols + c));
        }
    }
    order
}

/// Embed the cluster chain onto a processor walk: chain position `k`
/// goes to `walk[k]`. The walk must be a permutation of the processors
/// (checked) — use [`gray_code`] for hypercubes, [`snake_order`] for
/// meshes, or identity for rings/chains.
pub fn embed_chain(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    order: ChainOrder,
    walk: &[usize],
) -> Result<Assignment, GraphError> {
    let na = graph.num_clusters();
    if na != system.len() {
        return Err(GraphError::SizeMismatch {
            left: na,
            right: system.len(),
        });
    }
    if walk.len() != na {
        return Err(GraphError::SizeMismatch {
            left: walk.len(),
            right: na,
        });
    }
    let chain = cluster_chain(graph, order);
    let mut sys_of = vec![usize::MAX; na];
    for (k, &cluster) in chain.iter().enumerate() {
        sys_of[cluster] = walk[k];
    }
    Assignment::from_sys_of(sys_of)
}

/// Pick the natural walk for a topology by name: Gray code for
/// `hypercube(d=...)`, snake for `mesh(RxC)`, identity otherwise.
pub fn natural_walk(system: &SystemGraph) -> Vec<usize> {
    let name = system.name();
    if let Some(dim) = name
        .strip_prefix("hypercube(d=")
        .and_then(|s| s.strip_suffix(')').and_then(|d| d.parse::<u32>().ok()))
    {
        return gray_code(dim);
    }
    if let Some(body) = name.strip_prefix("mesh(").and_then(|s| s.strip_suffix(')')) {
        if let Some((r, c)) = body.split_once('x') {
            if let (Ok(rows), Ok(cols)) = (r.parse(), c.parse()) {
                return snake_order(rows, cols);
            }
        }
    }
    (0..system.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::schedule::EvaluationModel;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{hypercube, mesh2d, ring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(ns: usize, seed: u64) -> ClusteredProblemGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 64,
            locality_window: Some(1),
            ..GeneratorConfig::default()
        })
        .unwrap();
        let p = gen.generate(&mut rng);
        let c = random_region_clustering(&p, ns, &mut rng).unwrap();
        ClusteredProblemGraph::new(p, c).unwrap()
    }

    #[test]
    fn gray_code_neighbors_differ_by_one_bit() {
        for dim in 1..=5u32 {
            let code = gray_code(dim);
            assert_eq!(code.len(), 1 << dim);
            let mut sorted = code.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..1 << dim).collect::<Vec<_>>(), "permutation");
            for w in code.windows(2) {
                assert_eq!((w[0] ^ w[1]).count_ones(), 1, "dim {dim}");
            }
        }
    }

    #[test]
    fn snake_consecutives_are_mesh_neighbors() {
        let sys = mesh2d(3, 4).unwrap();
        let order = snake_order(3, 4);
        assert_eq!(order.len(), 12);
        for w in order.windows(2) {
            assert!(sys.adjacent(w[0], w[1]), "{} - {}", w[0], w[1]);
        }
    }

    #[test]
    fn heavy_walk_visits_every_cluster_once() {
        let g = instance(8, 1);
        for order in [ChainOrder::ById, ChainOrder::HeavyWalk] {
            let chain = cluster_chain(&g, order);
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn embedding_gives_valid_assignments() {
        let g = instance(8, 2);
        let sys = hypercube(3).unwrap();
        let a = embed_chain(&g, &sys, ChainOrder::HeavyWalk, &gray_code(3)).unwrap();
        let eval = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
        assert!(eval.total() > 0);
        // Chain-consecutive clusters sit on adjacent processors.
        let chain = cluster_chain(&g, ChainOrder::HeavyWalk);
        for w in chain.windows(2) {
            assert!(sys.adjacent(a.sys_of(w[0]), a.sys_of(w[1])));
        }
    }

    #[test]
    fn natural_walks_by_name() {
        assert_eq!(natural_walk(&hypercube(3).unwrap()), gray_code(3));
        assert_eq!(natural_walk(&mesh2d(2, 3).unwrap()), snake_order(2, 3));
        assert_eq!(natural_walk(&ring(5).unwrap()), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn size_mismatches_rejected() {
        let g = instance(8, 3);
        let sys = ring(8).unwrap();
        assert!(embed_chain(&g, &sys, ChainOrder::ById, &[0, 1]).is_err());
        let sys7 = ring(7).unwrap();
        assert!(embed_chain(&g, &sys7, ChainOrder::ById, &(0..7).collect::<Vec<_>>()).is_err());
    }
}
