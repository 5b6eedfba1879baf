//! Seeded random undirected graph generators.
//!
//! Table 3 / Fig 27 of the paper map problem graphs onto "randomly
//! produced system architectures". The paper does not publish its
//! generator; we use the standard construction for *connected* random
//! graphs: a uniform random spanning tree (random-walk / random parent
//! attachment) plus independent extra edges with probability `p`. This
//! guarantees connectivity (the cost model needs finite hop counts) while
//! letting edge density vary, which is all the experiment requires.

use rand::Rng;

use crate::csr::Csr;
use crate::error::GraphError;

/// Generate a connected random graph on `n` nodes, every edge of
/// weight 1.
///
/// Construction: a random spanning tree (each node `i > 0` attaches to a
/// uniformly random earlier node, then node labels are shuffled so the
/// tree is not biased toward low ids), followed by adding each remaining
/// pair as an edge independently with probability `extra_edge_prob`.
pub fn random_connected(
    n: usize,
    extra_edge_prob: f64,
    rng: &mut impl Rng,
) -> Result<Csr, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "random graph needs n >= 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&extra_edge_prob) {
        return Err(GraphError::InvalidParameter(format!(
            "extra_edge_prob {extra_edge_prob} not in [0,1]"
        )));
    }
    // Random permutation of labels so the spanning tree's shape is not
    // correlated with node ids.
    let mut labels: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        labels.swap(i, j);
    }
    let mut tree: Vec<(usize, usize)> = (1..n)
        .map(|i| {
            let (a, b) = (labels[i], labels[rng.gen_range(0..i)]);
            (a.min(b), a.max(b))
        })
        .collect();
    tree.sort_unstable();
    let mut links: Vec<_> = tree.iter().map(|&(u, v)| (u, v, 1)).collect();
    // Pairs are visited in ascending `(u, v)`, so the tree edges they
    // skip come off the sorted list in order.
    let mut tree = tree.into_iter().peekable();
    for u in 0..n {
        for v in (u + 1)..n {
            if tree.next_if_eq(&(u, v)).is_none() && rng.gen_bool(extra_edge_prob) {
                links.push((u, v, 1));
            }
        }
    }
    Ok(Csr::from_contributions(n, &links))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_connected_is_connected_for_many_seeds() {
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_connected(17, 0.1, &mut rng).unwrap();
            assert!(is_connected(&g), "seed {seed}");
            assert!(g.edge_count() >= 16, "at least a spanning tree");
            assert!(g.edges().all(|(_, _, w)| w == 1), "no pair is drawn twice");
        }
    }

    #[test]
    fn zero_probability_yields_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_connected(12, 0.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 11);
        assert!(is_connected(&g));
    }

    #[test]
    fn full_probability_yields_complete() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_connected(6, 1.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 15);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_connected(10, 0.3, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = random_connected(10, 0.3, &mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_connected(0, 0.5, &mut rng).is_err());
        assert!(random_connected(3, 1.5, &mut rng).is_err());
    }

    #[test]
    fn singleton_graph_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_connected(1, 0.9, &mut rng).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
