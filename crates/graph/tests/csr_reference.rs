//! Differential tests of the CSR row builder and of heavy-edge matching
//! against the implementations they replaced, kept here verbatim as
//! references: rows pushed in fill order and then sorted, and edges
//! ordered by a stable comparison sort on their weight. Random
//! contributions (repeated pairs, any order, isolated nodes, node
//! counts off a multiple of 64 and large ones) must give equal rows from
//! `from_rows`, `from_contributions` and `contract`, and random weights
//! (ties, and weights past 2⁸, 2¹⁶ and 2⁴⁰) equal matchings.

use mimd_graph::matching::heavy_edge_matching;
use mimd_graph::{Csr, NodeId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The row builder as it was, laying rows out in a plain struct (the
/// symmetry check it ended with is left out).
mod reference {
    use mimd_graph::{Csr, NodeId, Weight};

    /// A graph's three arrays, as [`Csr`] holds them.
    #[derive(Debug, PartialEq)]
    pub struct Rows {
        pub offsets: Vec<usize>,
        pub neighbors: Vec<NodeId>,
        pub weights: Vec<Weight>,
    }

    impl Rows {
        fn row(&self, a: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
            let (lo, hi) = (self.offsets[a], self.offsets[a + 1]);
            self.neighbors[lo..hi]
                .iter()
                .copied()
                .zip(self.weights[lo..hi].iter().copied())
        }

        fn node_count(&self) -> usize {
            self.offsets.len() - 1
        }
    }

    pub fn from_contributions(n: usize, contributions: &[(NodeId, NodeId, Weight)]) -> Rows {
        // Counting sort: both orientations of every contribution,
        // bucketed by row.
        let mut start = vec![0usize; n + 1];
        for &(a, b, _) in contributions {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for a in 0..n {
            start[a + 1] += start[a];
        }
        let mut cursor = start[..n].to_vec();
        let mut bucketed = vec![(0, 0); 2 * contributions.len()];
        for &(a, b, w) in contributions {
            bucketed[cursor[a]] = (b, w);
            cursor[a] += 1;
            bucketed[cursor[b]] = (a, w);
            cursor[b] += 1;
        }
        from_rows(n, |a, row| {
            for &(b, w) in &bucketed[start[a]..start[a + 1]] {
                row.add(b, w);
            }
        })
    }

    pub fn from_rows(n: usize, mut fill: impl FnMut(NodeId, &mut Row<'_>)) -> Rows {
        // Per row: sum duplicates in a dense accumulator (`seen_in[b] ==
        // a` marks `acc[b]` as belonging to the current row), then emit
        // the distinct neighbors in ascending order.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
        let mut acc: Vec<Weight> = vec![0; n];
        let mut seen_in = vec![usize::MAX; n];
        for a in 0..n {
            let start = neighbors.len();
            fill(
                a,
                &mut Row {
                    a,
                    acc: &mut acc,
                    seen_in: &mut seen_in,
                    neighbors: &mut neighbors,
                },
            );
            neighbors[start..].sort_unstable();
            weights.extend(neighbors[start..].iter().map(|&b| acc[b]));
            offsets.push(neighbors.len());
        }
        Rows {
            offsets,
            neighbors,
            weights,
        }
    }

    pub fn contract(fine: &Rows, map: &[NodeId], m: usize) -> (Rows, Weight) {
        let n = fine.node_count();
        assert_eq!(map.len(), n, "the contraction map must cover every node");
        // Counting sort: the members of every coarse node, ascending.
        let mut start = vec![0usize; m + 1];
        for &c in map {
            start[c + 1] += 1;
        }
        for c in 0..m {
            start[c + 1] += start[c];
        }
        let mut cursor = start[..m].to_vec();
        let mut members = vec![0; n];
        for (a, &c) in map.iter().enumerate() {
            members[cursor[c]] = a;
            cursor[c] += 1;
        }
        let mut internal = 0;
        let coarse = from_rows(m, |c, row| {
            for &a in &members[start[c]..start[c + 1]] {
                for (b, w) in fine.row(a) {
                    if map[b] == c {
                        internal += w;
                    } else {
                        row.add(map[b], w);
                    }
                }
            }
        });
        (coarse, internal / 2)
    }

    pub struct Row<'a> {
        a: NodeId,
        acc: &'a mut [Weight],
        seen_in: &'a mut [usize],
        neighbors: &'a mut Vec<NodeId>,
    }

    impl Row<'_> {
        /// Add `w` to this row's edge towards `b`.
        #[inline]
        pub fn add(&mut self, b: NodeId, w: Weight) {
            assert!(b != self.a, "self-loop on node {b}");
            if self.seen_in[b] != self.a {
                self.seen_in[b] = self.a;
                self.acc[b] = 0;
                self.neighbors.push(b);
            }
            self.acc[b] += w;
        }
    }

    /// `heavy_edge_matching` as it was.
    pub fn heavy_edge_matching(g: &Csr) -> Vec<(NodeId, NodeId)> {
        let n = g.node_count();
        // `edges()` ascends by `(u, v)`, so a stable sort by weight alone
        // leaves ties in that order.
        let mut sorted: Vec<_> = g.edges().collect();
        sorted.sort_by_key(|&(_, _, w)| std::cmp::Reverse(w));
        let mut matched = vec![false; n];
        let mut pairs = Vec::with_capacity(n / 2);
        for (u, v, _) in sorted {
            if !matched[u] && !matched[v] {
                matched[u] = true;
                matched[v] = true;
                pairs.push((u, v));
            }
        }
        pairs
    }
}

/// `g`'s arrays, read back through its accessors.
fn rows_of(g: &Csr) -> reference::Rows {
    let n = g.node_count();
    let mut offsets = vec![0];
    let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
    for a in 0..n {
        neighbors.extend_from_slice(g.neighbors(a));
        weights.extend_from_slice(g.weights(a));
        offsets.push(neighbors.len());
    }
    reference::Rows {
        offsets,
        neighbors,
        weights,
    }
}

/// Node counts: tiny, around one and two bitset words, and past the
/// 8192-node cap.
const SIZES: [usize; 14] = [0, 1, 2, 3, 63, 64, 65, 100, 128, 129, 300, 4096, 4097, 9000];

/// `count` random contributions on `n` nodes, with pairs repeated in
/// both orientations and weights below `top`.
fn contributions(
    n: usize,
    count: usize,
    top: Weight,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId, Weight)> {
    let mut out: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    if n < 2 {
        return out;
    }
    // Confine the endpoints to a random window, so some nodes stay
    // isolated and rows cluster in a few words.
    let span = rng.gen_range(2..=n);
    let base = rng.gen_range(0..=n - span);
    for _ in 0..count {
        let w = rng.gen_range(1..top);
        if !out.is_empty() && rng.gen_range(0..4) == 0 {
            let (a, b, _) = out[rng.gen_range(0..out.len())];
            out.push(if rng.gen_range(0..2) == 0 {
                (a, b, w)
            } else {
                (b, a, w)
            });
            continue;
        }
        let a = base + rng.gen_range(0..span);
        let mut b = base + rng.gen_range(0..span - 1);
        if b >= a {
            b += 1;
        }
        out.push((a, b, w));
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[test]
fn builders_match_their_reference() {
    let mut rng = StdRng::seed_from_u64(40);
    for n in SIZES {
        for _ in 0..12 {
            let count = rng.gen_range(0..=3 * n.min(400));
            let list = contributions(n, count, 9, &mut rng);
            let expected = reference::from_contributions(n, &list);
            let g = Csr::from_contributions(n, &list);
            assert_eq!(rows_of(&g), expected, "from_contributions n={n}");

            // Each row's contributions, both orientations, shuffled.
            let mut per_row = vec![Vec::new(); n];
            for &(a, b, w) in &list {
                per_row[a].push((b, w));
                per_row[b].push((a, w));
            }
            for row in &mut per_row {
                shuffle(row, &mut rng);
            }
            let g = Csr::from_rows(n, |a, row| {
                for &(b, w) in &per_row[a] {
                    row.add(b, w);
                }
            });
            assert_eq!(rows_of(&g), expected, "from_rows n={n}");

            // A random map onto `m` coarse nodes, some with no members.
            let m = rng.gen_range(1..=n.max(1));
            let map: Vec<NodeId> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let (coarse, internal) = g.contract(&map, m);
            let (expected_coarse, expected_internal) = reference::contract(&expected, &map, m);
            assert_eq!(rows_of(&coarse), expected_coarse, "contract n={n} m={m}");
            assert_eq!(internal, expected_internal, "contract n={n} m={m}");
        }
    }
}

#[test]
fn heavy_edge_matching_matches_its_reference() {
    let mut rng = StdRng::seed_from_u64(41);
    // Weight ceilings: ties galore, then one, two, three and six bytes.
    let tops: [Weight; 6] = [3, 1 << 8, (1 << 8) + 2, 1 << 16, 1 << 24, 1 << 40];
    for n in SIZES {
        for top in tops {
            for _ in 0..4 {
                let count = rng.gen_range(0..=3 * n.min(400));
                let mut list = contributions(n, count, top, &mut rng);
                // A few weights just past a byte boundary.
                for c in list.iter_mut().step_by(5) {
                    c.2 = top + rng.gen_range(0..3u64);
                }
                let g = Csr::from_contributions(n, &list);
                assert_eq!(
                    heavy_edge_matching(&g),
                    reference::heavy_edge_matching(&g),
                    "n={n} top={top}"
                );
            }
        }
    }
}
