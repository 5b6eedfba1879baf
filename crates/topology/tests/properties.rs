//! Property-based tests for topology builders.

use proptest::prelude::*;

use mimd_graph::properties::{is_connected, regularity};
use mimd_multilevel::SystemHierarchy;
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
        prop_assert_eq!(k.graph().edge_count(), n * (n - 1) / 2);
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
        let row = sys.distances().as_matrix().row(s);
        assert_eq!(
            row.iter().map(|&h| u32::from(h)).collect::<Vec<_>>(),
            dist,
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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV of a machine's links `{u, v}`, `u < v`, ascending.
fn links_fnv(sys: &SystemGraph) -> u64 {
    fnv(sys
        .graph()
        .edges()
        .flat_map(|(u, v, _)| [u as u64, v as u64]))
}

/// `(len, edge count, FNV of the links, FNV of the hop matrix)`.
type MachinePin = (usize, usize, u64, u64);
/// One coarse level of the machine's `SystemHierarchy`: `(len, edge
/// count, FNV of the links, FNV of the proc_map onto it)`.
type LevelPin = (usize, usize, u64, u64);

/// Recorded from the builders that grew an adjacency list one
/// `add_edge` at a time and contracted each hierarchy level edge by
/// edge; the frozen builders and `Csr::contract` must reproduce every
/// value.
#[rustfmt::skip]
const MACHINE_PINS: &[(&str, MachinePin, &[LevelPin])] = &[
    ("hypercube:0", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("hypercube:5", (32, 80, 0x2316428ca310b225, 0xcbffd9598d57e325), &[(16, 32, 0xf4fc6966eb4943a5, 0xf9c322a63d0eec25), (8, 12, 0x2a5f6e989eea99e5, 0x62d4b2eafe02c3a5), (4, 4, 0xecc526d62a684a45, 0xfcb9ff7e38e6a465), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("mesh:3x7", (21, 32, 0x615031bbc33d61e1, 0x3d2bde3f9d7e0845), &[(11, 16, 0xf950c7fc617236c0, 0x8c13a63b163a826f), (6, 8, 0x162a16bdaa07c8c6, 0xfd0cf05b2318f960), (4, 4, 0x964eeb591781ca46, 0x02f861243ca8d2e4), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("mesh:1x9", (9, 8, 0x8cc3412a77b8e4ad, 0x70b6b18c068e1fc5), &[(5, 4, 0x7668c739314783e1, 0xfb81bbe041ce3a81), (3, 2, 0x72ce0b16b914b7c7, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("torus:1x1", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("torus:1x6", (6, 6, 0xa7bd1ca512489aa5, 0x10ccc78701b13b85), &[(3, 3, 0x605965bd22109505, 0x21f3282d47981d05), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("torus:2x2", (4, 4, 0xecc526d62a684a45, 0x9877bf1b510695a5), &[(2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("torus:2x7", (14, 21, 0x87b737b20206dcc4, 0x1ea6cb51f652b345), &[(7, 11, 0x20e80b431d725c41, 0xd58058f871e8d545), (4, 5, 0xbea107d22676efc6, 0xbfcbbbe3879979c6), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("torus:5x6", (30, 60, 0xa86b2fc8e40dd345, 0x6e49f84f57695585), &[(15, 30, 0xfb76845eea1df025, 0x7bbe9685482b5c45), (8, 13, 0xed4244124393d000, 0xa44696dd912b4cc2), (4, 5, 0x2b914ad79d96bb87, 0xfcb9ff7e38e6a465), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("ring:3", (3, 3, 0x605965bd22109505, 0x2f6d0c1d37fe4e45), &[(2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("ring:10", (10, 10, 0x840aaacf7ae733e5, 0xab4f4dbb4c8f4385), &[(5, 5, 0xf325ee4bd6ca1a65, 0x7096fa6cecaafd25), (3, 3, 0x605965bd22109505, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("chain:1", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("chain:9", (9, 8, 0x8cc3412a77b8e4ad, 0x70b6b18c068e1fc5), &[(5, 4, 0x7668c739314783e1, 0xfb81bbe041ce3a81), (3, 2, 0x72ce0b16b914b7c7, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("star:1", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("star:8", (8, 7, 0x320e60ce22f5d9e5, 0x452c0f917f9eb5a5), &[(7, 6, 0xde6e36dd5f330b02, 0xbcfe01a4633d8f22), (6, 5, 0xe6f831e7f63bae44, 0xf126d598e2065ee4), (5, 4, 0x39cf45bbbb4dcfa1, 0x1dab01feb5e42a61), (4, 3, 0x305616fe19eac6e5, 0x993059584ec75845), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("btree:1", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("btree:12", (12, 11, 0x61c8bc835028a560, 0x38589e8b89cce1e5), &[(8, 7, 0xa84e7a65156529a4, 0x5c9e714a7c6cff45), (5, 4, 0x39cf45bbbb4dcfa1, 0xa401597d7287a1c2), (4, 3, 0x305616fe19eac6e5, 0x993059584ec75845), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("complete:1", (1, 0, 0xcbf29ce484222325, 0xa8c7f832281a39c5), &[]),
    ("complete:7", (7, 21, 0x028e937d839b0c05, 0x3db439a331d234c5), &[(4, 6, 0x277e6f1a1f8f6ee5, 0xbfcbbbe3879979c6), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("fattree:3x3", (13, 24, 0x97b2a1bd125d0e29, 0xebeb1f84ed5a5545), &[(8, 10, 0xb1e347d0f8f84ac4, 0x9c00d74aa25652a4), (4, 3, 0x305616fe19eac6e5, 0xfcb9ff7e38e6a465), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("fattree:3x1", (3, 2, 0x72ce0b16b914b7c7, 0xaa8f97fe65242f45), &[(2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("clusters:4x5", (20, 46, 0xeae76eb9511c0a2d, 0x525b2f63030125a5), &[(12, 18, 0xa5bb16bf0542344b, 0xe08fba2060d81b21), (8, 10, 0x4548d5599ed63da5, 0x812b08868c0dede5), (4, 6, 0x277e6f1a1f8f6ee5, 0xfcb9ff7e38e6a465), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("clusters:3x1", (3, 3, 0x605965bd22109505, 0x2f6d0c1d37fe4e45), &[(2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:16@0.1#1", (16, 26, 0x14b6295bb8cf266c, 0x95a0f6d26d7d89c5), &[(9, 16, 0xb6a504caa5151862, 0x5d908bc53119d4ee), (6, 8, 0xfc83590ca19de4c4, 0x00008863a1fb4606), (4, 3, 0x305616fe19eac6e5, 0xd78bac34f77fe727), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:16@0.1#2", (16, 22, 0x8dfe870b1b95f1ad, 0xed85f266c1a2d305), &[(10, 16, 0x700c434cbd0ee06a, 0xb0b1005e108e746b), (6, 10, 0xa04de56dcc93bb45, 0x6e2af160909240e3), (4, 5, 0x5eaae1f9953a4784, 0x02f861243ca8d2e4), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:16@0.1#3", (16, 28, 0xeb0a4b5856de1782, 0x4112010c733ea3e5), &[(8, 16, 0x71a92ce2961cd5a6, 0x2dfbaf853858ee05), (5, 7, 0xd71f5772711d0bc1, 0x8d01e8484b5be7a0), (3, 3, 0x605965bd22109505, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:16@0.1#4", (16, 27, 0x53f50513908adc2a, 0x20395b8efbf189c5), &[(10, 17, 0xd97f23e34a7a33e1, 0xf6541481f23c84a5), (6, 8, 0x5daa9f7a2b44f223, 0xb858dd8011df58e4), (4, 3, 0x305616fe19eac6e5, 0xd78bac34f77fe727), (3, 2, 0x23cff54ea5ff9f86, 0xfb7988c2505471a6), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:16@0.1#5", (16, 25, 0x235afd1b33451769, 0x79e67c3668c3f845), &[(9, 16, 0x6c1516599a9f900a, 0x855082a37156878b), (5, 9, 0xc25d7f26998c23a3, 0x94a7a83e9dde0e41), (3, 3, 0x605965bd22109505, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("random:257@0.01#1", (257, 566, 0xe6ab026250417c78, 0xfe8635f2978d1ec5), &[(148, 448, 0xa8ace3acd3e13bab, 0x36c3808cc1abc3d4), (93, 378, 0x0c0338719d3b869a, 0x2ae722402690714e), (64, 297, 0xca9ab0d716d6a32f, 0x6406892fd471be08), (50, 191, 0x14a65ebb87ee344d, 0x7e651a6ebf52818f), (44, 119, 0x0ad07778a9d18f68, 0x550d8bfb4e5908e6)]),
    ("random:257@0.01#2", (257, 587, 0x55d354915ac63a44, 0x9b8957663849e685), &[(149, 469, 0xa8da81fbcea81823, 0x56d17736975bb3b1), (94, 390, 0x6822554f31361b7b, 0xd97726d2adba1672), (67, 314, 0xc7c39121dd796d16, 0x7c03b12e81d02eb2), (53, 207, 0x814c40bd24f3b80e, 0x1958f08461dc1ced), (45, 135, 0x1409f8988f72c272, 0x441d8d3484342704), (40, 88, 0x24de058d79dd143c, 0xadd5dd086841bfa2)]),
    ("random:257@0.01#3", (257, 561, 0x7b68ded3e4bf797e, 0x7c1a15d7f1cb6185), &[(142, 437, 0x2a6a28736b13437d, 0xe9fcac66a60698d7), (89, 368, 0x6cb42744140e3b51, 0xb783374609005f87), (61, 295, 0x54b411d9f029880b, 0xe9192a5c0820c3d4), (46, 199, 0x8c4952fa5739220e, 0xff70050f11166556), (38, 122, 0xd0060d7459c72b33, 0x15db6a47b32e8c2b), (34, 73, 0x1a0af908c58fcc01, 0xbaad8573bfb96ae4)]),
    ("random:257@0.01#4", (257, 555, 0x4825f4f8dc1a3194, 0x4661c0d58926a785), &[(150, 439, 0x7ac7dce793e68c42, 0x87dbc247da10b5cc), (93, 364, 0x3edda1856de4de51, 0x85f969eb3e163ce7), (63, 286, 0x025eb5dd45ba9cac, 0xce286e2b41f34792), (47, 185, 0x7505b4a3542bed8a, 0xebf36415eaa49a21), (38, 103, 0x3a5c97447787535a, 0x1673bf61f3e55c96), (33, 63, 0xc4b11d63d84c59e8, 0xe7f784adbd11e3cb)]),
    ("random:257@0.01#5", (257, 606, 0x386d6c52dde8b61b, 0xd6dd7685ca734fc5), &[(144, 483, 0x1b8617bb207d1dd2, 0x722c050fb2fad19d), (88, 396, 0x6234a99a256f9d21, 0xe606ad8d2b8b4572), (62, 312, 0x970481ed26875614, 0xf4e01c78e9e49f43), (48, 191, 0xc1512bf134716430, 0xac75748f669c8540), (41, 120, 0xb3d9b80db482276d, 0xb5366f392d8254c8)]),
    ("ccc:3", (24, 36, 0xaf37c081a5a91465, 0xf798d61afca8d425), &[(12, 16, 0xda030ab698c546c5, 0x674adc72f7503865), (6, 9, 0x54d5fc55fffcb364, 0xcb4f2ad57971b7c5), (3, 3, 0x605965bd22109505, 0x21f3282d47981d05), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("ccc:4", (64, 96, 0xe9c32816dfb04925, 0xcbee96e4566ab325), &[(32, 48, 0xf90b337400a22325, 0xf66e5f20d6e9d525), (16, 32, 0xf4fc6966eb4943a5, 0xf9c322a63d0eec25), (8, 12, 0x2a5f6e989eea99e5, 0x62d4b2eafe02c3a5), (4, 4, 0xecc526d62a684a45, 0xfcb9ff7e38e6a465), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("debruijn:2", (4, 5, 0xbea107d22676efc6, 0xe51ea695ae79fc85), &[(2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("debruijn:3", (8, 13, 0x4b422f704fa42122, 0x8a02f90170344be5), &[(4, 5, 0xbea107d22676efc6, 0x95fd556208c2fe85), (2, 1, 0x692558b056101a44, 0xdc7ec1b945652785), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
    ("debruijn:5", (32, 61, 0x4abe157f8181e6ba, 0xe3f20ed229292fe5), &[(17, 39, 0x4ee62842f2c6ceca, 0xca2164eea7ae3058), (9, 21, 0xd64eb8b4addc9225, 0x9f80188868607dad), (5, 7, 0xfb714a2274f18fe2, 0xa5df5db1232318a1), (3, 2, 0x72ce0b16b914b7c7, 0xa72298ab5c801e67), (2, 1, 0x692558b056101a44, 0x62d778cdf54cd8e4), (1, 0, 0xcbf29ce484222325, 0x88201fb960ff6465)]),
];

fn pinned_machines() -> Vec<(String, SystemGraph)> {
    use TopologySpec as T;
    let specs = [
        ("hypercube:0", T::Hypercube { dim: 0 }),
        ("hypercube:5", T::Hypercube { dim: 5 }),
        ("mesh:3x7", T::Mesh { rows: 3, cols: 7 }),
        ("mesh:1x9", T::Mesh { rows: 1, cols: 9 }),
        ("torus:1x1", T::Torus { rows: 1, cols: 1 }),
        ("torus:1x6", T::Torus { rows: 1, cols: 6 }),
        ("torus:2x2", T::Torus { rows: 2, cols: 2 }),
        ("torus:2x7", T::Torus { rows: 2, cols: 7 }),
        ("torus:5x6", T::Torus { rows: 5, cols: 6 }),
        ("ring:3", T::Ring { n: 3 }),
        ("ring:10", T::Ring { n: 10 }),
        ("chain:1", T::Chain { n: 1 }),
        ("chain:9", T::Chain { n: 9 }),
        ("star:1", T::Star { n: 1 }),
        ("star:8", T::Star { n: 8 }),
        ("btree:1", T::BinaryTree { n: 1 }),
        ("btree:12", T::BinaryTree { n: 12 }),
        ("complete:1", T::Complete { n: 1 }),
        ("complete:7", T::Complete { n: 7 }),
        (
            "fattree:3x3",
            T::FatTree {
                levels: 3,
                arity: 3,
            },
        ),
        (
            "fattree:3x1",
            T::FatTree {
                levels: 3,
                arity: 1,
            },
        ),
        (
            "clusters:4x5",
            T::ClusteredComplete {
                groups: 4,
                group_size: 5,
            },
        ),
        (
            "clusters:3x1",
            T::ClusteredComplete {
                groups: 3,
                group_size: 1,
            },
        ),
    ];
    let mut machines: Vec<(String, SystemGraph)> = specs
        .into_iter()
        .map(|(label, spec)| {
            let sys = spec.build(&mut StdRng::seed_from_u64(0)).unwrap();
            (label.to_string(), sys)
        })
        .collect();
    for (n, p) in [(16, 0.1), (257, 0.01)] {
        for seed in 1..=5u64 {
            let sys = T::Random { n, p }
                .build(&mut StdRng::seed_from_u64(seed))
                .unwrap();
            machines.push((format!("random:{n}@{p}#{seed}"), sys));
        }
    }
    for d in [3, 4] {
        machines.push((format!("ccc:{d}"), cube_connected_cycles(d).unwrap()));
    }
    for d in [2, 3, 5] {
        machines.push((format!("debruijn:{d}"), de_bruijn(d).unwrap()));
    }
    machines
}

#[test]
fn frozen_builders_and_contractions_reproduce_the_pinned_machines() {
    let machines = pinned_machines();
    assert_eq!(machines.len(), MACHINE_PINS.len());
    for ((label, sys), &(pinned_label, machine, levels)) in machines.iter().zip(MACHINE_PINS) {
        assert_eq!(label, pinned_label);
        let hops = sys.distances().as_matrix().as_slice().iter();
        let got = (
            sys.len(),
            sys.graph().edge_count(),
            links_fnv(sys),
            fnv(hops.map(|&h| u64::from(h))),
        );
        assert_eq!(got, machine, "{label}");
        let hierarchy = SystemHierarchy::build(sys).unwrap();
        let got: Vec<LevelPin> = hierarchy
            .steps()
            .iter()
            .zip(&hierarchy.systems()[1..])
            .map(|(step, coarse)| {
                (
                    coarse.len(),
                    coarse.graph().edge_count(),
                    links_fnv(coarse),
                    fnv(step.proc_map.iter().map(|&g| g as u64)),
                )
            })
            .collect();
        assert_eq!(got, levels, "{label}");
    }
}
