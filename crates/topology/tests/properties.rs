//! Property-based tests for topology builders.

use proptest::prelude::*;

use mimd_graph::properties::{is_connected, regularity};
use mimd_topology::{
    binary_tree, chain, complete, cube_connected_cycles, de_bruijn, hypercube, mesh2d, ring, star,
    torus2d, SystemGraph, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hypercubes_are_regular_with_log_diameter(dim in 0u32..8) {
        let h = hypercube(dim).unwrap();
        prop_assert_eq!(h.len(), 1usize << dim);
        prop_assert_eq!(regularity(h.graph()), Some(dim as usize));
        prop_assert_eq!(h.diameter(), dim);
        prop_assert_eq!(h.graph().edge_count(), (dim as usize) << dim.saturating_sub(1));
    }

    #[test]
    fn meshes_have_manhattan_distances(rows in 1usize..7, cols in 1usize..7) {
        let m = mesh2d(rows, cols).unwrap();
        prop_assert_eq!(m.len(), rows * cols);
        prop_assert_eq!(u64::from(m.diameter()), (rows + cols - 2) as u64);
        // Distance between two nodes equals Manhattan distance.
        for r1 in 0..rows {
            for c1 in 0..cols {
                let a = r1 * cols + c1;
                let b = (rows - 1) * cols + (cols - 1);
                let manhattan = (rows - 1 - r1) + (cols - 1 - c1);
                prop_assert_eq!(m.hops(a, b) as usize, manhattan);
            }
        }
    }

    #[test]
    fn torus_diameter_halves_the_mesh(rows in 3usize..7, cols in 3usize..7) {
        let t = torus2d(rows, cols).unwrap();
        prop_assert_eq!(u64::from(t.diameter()), (rows / 2 + cols / 2) as u64);
        prop_assert_eq!(regularity(t.graph()), Some(4));
    }

    #[test]
    fn rings_chains_stars_trees(n in 3usize..40) {
        let r = ring(n).unwrap();
        prop_assert_eq!(regularity(r.graph()), Some(2));
        prop_assert_eq!(u64::from(r.diameter()), (n / 2) as u64);

        let c = chain(n).unwrap();
        prop_assert_eq!(u64::from(c.diameter()), (n - 1) as u64);

        let s = star(n).unwrap();
        prop_assert_eq!(s.degree(0), n - 1);
        prop_assert!(s.diameter() <= 2);

        let t = binary_tree(n).unwrap();
        prop_assert_eq!(t.graph().edge_count(), n - 1);
        prop_assert!(is_connected(t.graph()));

        let k = complete(n).unwrap();
        prop_assert_eq!(k.diameter(), 1);
        prop_assert!(k.graph().is_complete());
    }

    #[test]
    fn specs_build_what_they_promise(seed in 0u64..200, n in 2usize..30, p in 0.0f64..0.4) {
        let mut rng = StdRng::seed_from_u64(seed);
        for spec in [
            TopologySpec::Ring { n: n.max(3) },
            TopologySpec::Chain { n },
            TopologySpec::Star { n },
            TopologySpec::BinaryTree { n },
            TopologySpec::Complete { n },
            TopologySpec::Random { n, p },
        ] {
            let sys = spec.build(&mut rng).unwrap();
            prop_assert_eq!(sys.len(), spec.node_count(), "{}", spec);
            prop_assert!(is_connected(sys.graph()), "{}", spec);
        }
    }

    #[test]
    fn closure_distances_are_one(n in 2usize..20) {
        let sys = ring(n.max(3)).unwrap().closure();
        for u in 0..sys.len() {
            for v in 0..sys.len() {
                prop_assert_eq!(sys.hops(u, v), u32::from(u != v));
            }
        }
    }

    #[test]
    fn degree_order_is_sorted(seed in 0u64..200, n in 2usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = TopologySpec::Random { n, p: 0.2 }.build(&mut rng).unwrap();
        let order = sys.by_descending_degree();
        for w in order.windows(2) {
            prop_assert!(sys.degree(w[0]) >= sys.degree(w[1]));
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

/// One queue BFS per source: the definition the 64-source sweeps of
/// `DistanceMatrix::bfs_all_pairs` must reproduce entry for entry.
fn assert_hops_equal_per_source_bfs(sys: &SystemGraph) {
    let n = sys.len();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        let mut dist = vec![u32::MAX; n];
        dist[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in sys.graph().neighbors(u) {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(
            sys.distances().as_matrix().row(s),
            &dist[..],
            "{} row {s}",
            sys.name()
        );
    }
}

#[test]
fn every_family_matches_a_bfs_per_source() {
    // Sizes straddle the 64-source word boundaries (63..=65, 127..=129,
    // partial last words) and stay <= 512 nodes.
    let specs = [
        TopologySpec::Hypercube { dim: 9 },
        TopologySpec::Hypercube { dim: 6 },
        TopologySpec::Mesh { rows: 13, cols: 5 },
        TopologySpec::Mesh { rows: 16, cols: 32 },
        TopologySpec::Torus { rows: 16, cols: 16 },
        TopologySpec::Torus { rows: 3, cols: 43 },
        TopologySpec::Ring { n: 127 },
        TopologySpec::Chain { n: 193 },
        TopologySpec::Star { n: 65 },
        TopologySpec::BinaryTree { n: 511 },
        TopologySpec::Complete { n: 130 },
        TopologySpec::FatTree {
            levels: 4,
            arity: 5,
        },
        TopologySpec::ClusteredComplete {
            groups: 16,
            group_size: 32,
        },
        TopologySpec::Random { n: 300, p: 0.0 },
        TopologySpec::Random { n: 512, p: 0.008 },
        TopologySpec::Random { n: 129, p: 0.3 },
    ];
    let mut rng = StdRng::seed_from_u64(16);
    for spec in &specs {
        assert!(spec.node_count() <= 512, "{spec:?}");
        assert_hops_equal_per_source_bfs(&spec.build(&mut rng).unwrap());
    }
    assert_hops_equal_per_source_bfs(&cube_connected_cycles(6).unwrap());
    assert_hops_equal_per_source_bfs(&de_bruijn(9).unwrap());
}
