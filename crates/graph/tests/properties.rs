//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use mimd_graph::apsp::{floyd_warshall, DistanceMatrix};
use mimd_graph::bitset::BitSet;
use mimd_graph::generators::random_connected;
use mimd_graph::matrix::SquareMatrix;
use mimd_graph::properties::{connected_components, is_connected};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random upper-triangular weight matrix (a DAG in the paper's
/// `prob_edge` form): entry `(i, j)`, `i < j`, is set with probability
/// `density`.
fn random_dag_matrix(n: usize, seed: u64, density: f64) -> SquareMatrix<u64> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SquareMatrix::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(density) {
                m.set(i, j, rng.gen_range(1..=9));
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(seed in 0u64..1000, n in 1usize..15) {
        let m = random_dag_matrix(n, seed, 0.4);
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn bfs_apsp_matches_floyd_warshall(seed in 0u64..500, n in 2usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(n, 0.2, &mut rng).unwrap();
        let bfs = DistanceMatrix::bfs_all_pairs(&g).unwrap();
        let fw = floyd_warshall(&g.to_matrix()).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(u64::from(bfs.hops(i, j)), fw.get(i, j));
            }
        }
        prop_assert!(u64::from(bfs.diameter()) < n as u64);
    }

    #[test]
    fn random_connected_is_connected(seed in 0u64..500, n in 1usize..40, p in 0.0f64..0.5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(n, p, &mut rng).unwrap();
        prop_assert!(is_connected(&g));
        prop_assert_eq!(connected_components(&g).len(), 1);
        prop_assert!(g.edge_count() >= n.saturating_sub(1));
    }

    #[test]
    fn bitset_behaves_like_a_set(values in prop::collection::vec(0usize..200, 0..50)) {
        let mut bs = BitSet::new(200);
        let mut reference = std::collections::BTreeSet::new();
        for &v in &values {
            prop_assert_eq!(bs.insert(v), reference.insert(v));
        }
        prop_assert_eq!(bs.count(), reference.len());
        let collected: Vec<usize> = bs.iter().collect();
        let expected: Vec<usize> = reference.iter().copied().collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn ungraph_edges_are_symmetric(seed in 0u64..500, n in 2usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(n, 0.3, &mut rng).unwrap();
        for u in 0..n {
            for &v in g.neighbors(u) {
                prop_assert_eq!(g.weight(v, u), Some(1));
            }
        }
        let m = g.to_matrix();
        prop_assert!(m.is_symmetric());
        prop_assert_eq!(m.count_nonzero(), 2 * g.edge_count());
    }

    #[test]
    fn square_matrix_rows_and_columns_agree(n in 1usize..12, fill in 0u64..100) {
        let mut m = SquareMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, fill + (i * n + j) as u64);
            }
        }
        for i in 0..n {
            let row = m.row(i).to_vec();
            let col = m.column(i);
            for j in 0..n {
                prop_assert_eq!(row[j], m.get(i, j));
                prop_assert_eq!(col[j], m.get(j, i));
            }
        }
    }
}
