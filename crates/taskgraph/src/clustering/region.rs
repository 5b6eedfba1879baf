//! Random *contiguous-region* clustering.
//!
//! The paper's "random clustering program" (§5) is unpublished. A
//! clustering front-end exists to internalize communication, so the
//! natural reading is a randomized partition into *connected regions* of
//! the problem graph (random seeds, random growth) rather than an
//! i.i.d. assignment of tasks to clusters: regions keep neighborhoods
//! together, leaving a sparse abstract graph for the mapper — the regime
//! in which the paper's reported numbers (strategy near the lower bound,
//! random mapping 30–80 points above) are reachable at all. The i.i.d.
//! variant remains available in [`crate::clustering::random`] and the
//! two are compared by the `ablation_clustering` binary.

use rand::Rng;

use mimd_graph::error::GraphError;

use crate::clustering::Clustering;
use crate::problem::ProblemGraph;
use crate::TaskId;

/// Partition tasks into `na` randomly grown regions of roughly equal
/// size over the undirected support of the dependency graph.
///
/// Each region starts from a random unassigned seed and repeatedly
/// absorbs a random unassigned neighbor of the region (restarting from a
/// fresh random seed when the frontier dries up) until it reaches
/// `ceil(np / na)` tasks, leaving at least one unassigned task for each
/// region still to grow; the last region takes every task left.
pub fn random_region_clustering(
    problem: &ProblemGraph,
    na: usize,
    rng: &mut impl Rng,
) -> Result<Clustering, GraphError> {
    let np = problem.len();
    if na == 0 || na > np {
        return Err(GraphError::InvalidParameter(format!(
            "need 1 <= na <= np, got na={na}, np={np}"
        )));
    }
    // Undirected neighbors, read from the rows in the order of the
    // edges `(from, to)`: predecessors below `t`, successors, then
    // predecessors above `t`.
    let adj = |t: TaskId| {
        let preds = problem.predecessors(t).map(|(u, _)| u);
        let succs = problem.successors(t).map(|(v, _)| v);
        (preds.clone().filter(move |&u| u < t))
            .chain(succs)
            .chain(preds.filter(move |&u| u > t))
    };
    let target = np.div_ceil(na);
    let mut cluster_of = vec![usize::MAX; np];
    // The unassigned tasks in draw order, and each one's index in it
    // (`slot[t]`), so a task leaves in O(1): `swap_remove` moves the
    // last task into the hole, whose slot is then fixed up.
    let mut unassigned: Vec<TaskId> = (0..np).collect();
    let mut slot: Vec<usize> = (0..np).collect();
    let mut remove_unassigned = |unassigned: &mut Vec<TaskId>, t: TaskId| {
        let k = slot[t];
        unassigned.swap_remove(k);
        if let Some(&moved) = unassigned.get(k) {
            slot[moved] = k;
        }
    };

    for c in 0..na {
        // Leave enough tasks for the remaining clusters to be non-empty.
        let remaining_clusters = na - c - 1;
        let budget = target.min(unassigned.len() - remaining_clusters);
        // Seed.
        let seed = unassigned[rng.gen_range(0..unassigned.len())];
        cluster_of[seed] = c;
        remove_unassigned(&mut unassigned, seed);
        let mut frontier: Vec<TaskId> =
            adj(seed).filter(|&t| cluster_of[t] == usize::MAX).collect();
        let mut size = 1;
        while size < budget && !unassigned.is_empty() {
            frontier.retain(|&t| cluster_of[t] == usize::MAX);
            let next = if frontier.is_empty() {
                // Region is boxed in: jump to a fresh random seed.
                unassigned[rng.gen_range(0..unassigned.len())]
            } else {
                frontier[rng.gen_range(0..frontier.len())]
            };
            cluster_of[next] = c;
            remove_unassigned(&mut unassigned, next);
            size += 1;
            frontier.extend(adj(next).filter(|&t| cluster_of[t] == usize::MAX));
        }
    }
    Clustering::new(cluster_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::ClusteredProblemGraph;
    use crate::clustering::random::random_clustering;
    use crate::generator::{GeneratorConfig, LayeredDagGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn produces_na_balanced_clusters() {
        let p = problem(64, 1);
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_region_clustering(&p, 8, &mut rng).unwrap();
            assert_eq!(c.num_clusters(), 8, "seed {seed}");
            assert!(
                c.max_cluster_size() <= 2 * 8,
                "roughly balanced, seed {seed}"
            );
        }
    }

    #[test]
    fn internalizes_more_weight_than_iid_random() {
        let p = problem(120, 2);
        let mut cut_region = 0u64;
        let mut cut_iid = 0u64;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let region = random_region_clustering(&p, 8, &mut rng).unwrap();
            let iid = random_clustering(&p, 8, &mut rng).unwrap();
            cut_region += ClusteredProblemGraph::new(p.clone(), region)
                .unwrap()
                .total_cut_weight();
            cut_iid += ClusteredProblemGraph::new(p.clone(), iid)
                .unwrap()
                .total_cut_weight();
        }
        assert!(
            cut_region < cut_iid,
            "regions should internalize more: {cut_region} !< {cut_iid}"
        );
    }

    #[test]
    fn na_equals_np_gives_singletons() {
        let p = problem(9, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let c = random_region_clustering(&p, 9, &mut rng).unwrap();
        assert_eq!(c.max_cluster_size(), 1);
    }

    #[test]
    fn rejects_bad_na() {
        let p = problem(5, 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_region_clustering(&p, 0, &mut rng).is_err());
        assert!(random_region_clustering(&p, 6, &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(40, 5);
        let a = random_region_clustering(&p, 5, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = random_region_clustering(&p, 5, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn handles_edgeless_graphs() {
        let p = ProblemGraph::new(vec![1; 10], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let c = random_region_clustering(&p, 3, &mut rng).unwrap();
        assert_eq!(c.num_clusters(), 3);
    }
}
