//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use mimd_graph::apsp::{floyd_warshall, DistanceMatrix};
use mimd_graph::bitset::BitSet;
use mimd_graph::dag::{edge_keeps_acyclic, is_acyclic, levels, longest_path, TopoOrder};
use mimd_graph::digraph::WeightedDigraph;
use mimd_graph::generators::random_connected;
use mimd_graph::matrix::SquareMatrix;
use mimd_graph::properties::{connected_components, is_connected};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random DAG built by only adding forward edges (i < j).
fn random_dag(n: usize, seed: u64, density: f64) -> WeightedDigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    use rand::Rng;
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(density) {
                edges.push((i, j, rng.gen_range(1..=9)));
            }
        }
    }
    WeightedDigraph::from_edges(n, &edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_roundtrips_through_digraph(seed in 0u64..1000, n in 2usize..20) {
        let g = random_dag(n, seed, 0.3);
        let m = g.to_matrix();
        let entries: Vec<_> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| m.get(i, j) > 0)
            .map(|(i, j)| (i, j, m.get(i, j)))
            .collect();
        let g2 = WeightedDigraph::from_edges(n, &entries).unwrap();
        prop_assert_eq!(&g, &g2);
        prop_assert_eq!(m.count_nonzero(), g.edge_count());
    }

    #[test]
    fn transpose_is_involutive(seed in 0u64..1000, n in 1usize..15) {
        let m = random_dag(n, seed, 0.4).to_matrix();
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn topo_order_is_a_valid_linearization(seed in 0u64..1000, n in 1usize..40) {
        let g = random_dag(n, seed, 0.2);
        prop_assert!(is_acyclic(&g));
        let topo = TopoOrder::new(&g).unwrap();
        for (u, v, _) in g.edges() {
            prop_assert!(topo.position(u) < topo.position(v));
        }
    }

    #[test]
    fn levels_increase_along_edges(seed in 0u64..1000, n in 2usize..30) {
        let g = random_dag(n, seed, 0.25);
        let lvl = levels(&g).unwrap();
        for (u, v, _) in g.edges() {
            prop_assert!(lvl[u] < lvl[v]);
        }
    }

    #[test]
    fn longest_path_bounds(seed in 0u64..1000, n in 1usize..25) {
        let g = random_dag(n, seed, 0.25);
        let costs: Vec<u64> = (0..n as u64).map(|i| 1 + i % 5).collect();
        let lp = longest_path(&g, &costs).unwrap();
        let max_cost = costs.iter().copied().max().unwrap_or(0);
        let total: u64 = costs.iter().sum::<u64>() + g.total_edge_weight();
        prop_assert!(lp >= max_cost, "at least the heaviest single task");
        prop_assert!(lp <= total, "at most everything serialized");
    }

    #[test]
    fn back_edge_detection_is_sound(seed in 0u64..1000, n in 2usize..20) {
        let g = random_dag(n, seed, 0.3);
        // Any forward pair keeps acyclicity; any existing edge reversed
        // that closes a path does not.
        for (u, v, _) in g.edges() {
            prop_assert!(!edge_keeps_acyclic(&g, v, u), "reversing ({u},{v})");
        }
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
