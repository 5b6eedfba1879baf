//! All-pairs shortest paths.
//!
//! The mapping algorithm needs the paper's `shortest[ns][ns]` matrix: the
//! hop count of the shortest path between every pair of system nodes
//! (§3.4(b)). System graphs are unweighted, so breadth-first search is
//! both simpler and asymptotically better (`O(ns·(ns+es))`) than
//! Floyd–Warshall; we also provide Floyd–Warshall for weighted digraphs
//! because the simulator's contention models route over weighted links.
//!
//! [`DistanceMatrix::bfs_all_pairs`] runs the searches 64 sources at a
//! time: a node carries one `u64` whose bit `b` says "the search from
//! source `base + b` has reached me", so one pass over a node's
//! neighbour list advances all 64 searches with a word OR instead of 64
//! queue pushes behind an unpredictable branch each. A bit first appears
//! at a node in exactly the level the single-source BFS would dequeue
//! it, so the matrix is entry for entry the one a BFS per source
//! produces (the test module keeps that BFS as its oracle and a
//! differential property test holds the two equal). The graph is
//! undirected, so `d(base + b, v) = d(v, base + b)` and the 64
//! distances a batch finds for a node are one contiguous segment of
//! that node's own row.
//!
//! Hop counts are stored as `u16`: no shortest path in a graph of `n`
//! nodes is longer than `n − 1` hops, so any graph of at most
//! [`MAX_HOP_NODES`] nodes fits, and every machine
//! [`crate::MAX_NODES`] admits does with room to spare. That halves the
//! `ns × ns` matrix, the largest thing a machine holds (32 MiB at
//! ns = 4096 instead of 64 MiB). The accessors widen to `u32`; a
//! larger graph is refused before anything is allocated.

use serde::{Deserialize, Serialize};

use crate::csr::Csr;
use crate::error::GraphError;
use crate::matrix::SquareMatrix;
use crate::{NodeId, Weight};

/// The most nodes [`DistanceMatrix::bfs_all_pairs`] accepts: every hop
/// count of a connected graph this size is at most `u16::MAX`.
pub const MAX_HOP_NODES: usize = u16::MAX as usize + 1;

/// Hop-count distance matrix between all node pairs of a connected graph.
///
/// Entry `(i, i)` is 0; all other entries are ≥ 1. Each is one `u16`
/// (2 bytes a pair; see the module docs). Constructed via
/// [`DistanceMatrix::bfs_all_pairs`], which fails with
/// [`GraphError::InvalidParameter`] above [`MAX_HOP_NODES`] nodes and
/// with [`GraphError::Disconnected`] when some pair is unreachable (a
/// mapping target must be connected for the cost model to be defined).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    dist: SquareMatrix<u16>,
}

impl DistanceMatrix {
    /// Compute hop counts by breadth-first search from every node, 64
    /// sources per sweep (see the module docs). A graph of more than
    /// [`MAX_HOP_NODES`] nodes is refused before anything is allocated,
    /// connected or not.
    pub fn bfs_all_pairs(g: &Csr) -> Result<Self, GraphError> {
        let n = g.node_count();
        if n > MAX_HOP_NODES {
            return Err(GraphError::InvalidParameter(format!(
                "{n} nodes is more than the {MAX_HOP_NODES} a u16 hop matrix holds"
            )));
        }
        let mut dist = SquareMatrix::new(n);
        // Bit `b` of a node's word = the search from source `base + b`.
        let mut seen = vec![0u64; n];
        let mut frontier = vec![0u64; n];
        let mut next = vec![0u64; n];
        let mut active: Vec<NodeId> = Vec::with_capacity(n);
        let mut touched: Vec<NodeId> = Vec::with_capacity(n);
        // `levels[64 * v + b]` = level at which bit `b` reached `v` in
        // this batch. Collected here and copied into `row(v)` once per
        // batch: writing the matrix as bits arrive would revisit a
        // different page of it per node per level (rows are `2n` bytes
        // apart), which costs more than the whole search on
        // large-diameter machines.
        let mut levels = vec![0u16; 64 * n];
        for base in (0..n).step_by(64) {
            let width = (n - base).min(64);
            let full_mask = u64::MAX >> (64 - width);
            seen.fill(0);
            for b in 0..width {
                let source = base + b;
                seen[source] = 1 << b;
                frontier[source] = 1 << b;
                levels[64 * source + b] = 0; // stale from the last batch
                active.push(source);
            }
            let mut level = 0u16;
            while !active.is_empty() {
                // A node is at most `n − 1 ≤ u16::MAX` hops away. Only
                // the pass after the farthest one, which finds nothing,
                // can wrap.
                level = level.wrapping_add(1);
                for u in active.drain(..) {
                    let reached = std::mem::take(&mut frontier[u]);
                    for &v in g.neighbors(u) {
                        if next[v] == 0 {
                            touched.push(v);
                        }
                        next[v] |= reached;
                    }
                }
                for v in touched.drain(..) {
                    let new = std::mem::take(&mut next[v]) & !seen[v];
                    if new == 0 {
                        continue;
                    }
                    seen[v] |= new;
                    frontier[v] = new;
                    active.push(v);
                    let reached_at = &mut levels[64 * v..64 * (v + 1)];
                    let mut bits = new;
                    while bits != 0 {
                        reached_at[bits.trailing_zeros() as usize] = level;
                        bits &= bits - 1;
                    }
                }
            }
            if seen.iter().any(|&s| s != full_mask) {
                return Err(GraphError::Disconnected);
            }
            // `d(base + b, v) = d(v, base + b)`: the batch's columns are
            // one contiguous segment of every row.
            for (v, reached_at) in levels.chunks_exact(64).enumerate() {
                dist.row_mut(v)[base..base + width].copy_from_slice(&reached_at[..width]);
            }
        }
        Ok(DistanceMatrix { dist })
    }

    /// Hop count between `u` and `v`.
    #[inline]
    pub fn hops(&self, u: NodeId, v: NodeId) -> u32 {
        u32::from(self.dist.get(u, v))
    }

    /// Side length (number of nodes).
    #[inline]
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// Greatest distance between any pair — the graph's diameter.
    pub fn diameter(&self) -> u32 {
        u32::from(self.dist.as_slice().iter().copied().max().unwrap_or(0))
    }

    /// Borrow the underlying matrix (the paper's `shortest[ns][ns]`).
    pub fn as_matrix(&self) -> &SquareMatrix<u16> {
        &self.dist
    }

    /// For node `u`, the nearest node among `candidates` (smallest hop
    /// count, ties broken by lowest id). Returns `None` when `candidates`
    /// is empty. Used by the initial-assignment fallback step (c).
    pub fn nearest_of<'a, I>(&self, u: NodeId, candidates: I) -> Option<NodeId>
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        candidates
            .into_iter()
            .copied()
            .min_by_key(|&c| (self.hops(u, c), c))
    }
}

/// Floyd–Warshall over a weighted adjacency matrix where 0 encodes "no
/// edge" (except the diagonal, which is distance 0). Returns the matrix of
/// shortest *weighted* distances, or `Err(Disconnected)` when some pair is
/// unreachable.
pub fn floyd_warshall(weights: &SquareMatrix<Weight>) -> Result<SquareMatrix<Weight>, GraphError> {
    let n = weights.n();
    const INF: Weight = Weight::MAX / 4;
    let mut d = SquareMatrix::filled(n, INF);
    for i in 0..n {
        d.set(i, i, 0);
    }
    for i in 0..n {
        for j in 0..n {
            let w = weights.get(i, j);
            if w > 0 && w < d.get(i, j) {
                d.set(i, j, w);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d.get(i, k);
            if dik == INF {
                continue;
            }
            for j in 0..n {
                let alt = dik + d.get(k, j);
                if alt < d.get(i, j) {
                    d.set(i, j, alt);
                }
            }
        }
    }
    if d.as_slice().iter().any(|&v| v >= INF) {
        return Err(GraphError::Disconnected);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_connected;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference the 64-source kernel is held to: one queue BFS per
    /// source node, in `u32`, row-major.
    fn bfs_per_source(g: &Csr) -> Result<Vec<u32>, GraphError> {
        let n = g.node_count();
        let mut dist = vec![u32::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            let row = &mut dist[s * n..(s + 1) * n];
            row[s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in g.neighbors(u) {
                    if row[v] == u32::MAX {
                        row[v] = row[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if row.contains(&u32::MAX) {
                return Err(GraphError::Disconnected);
            }
        }
        Ok(dist)
    }

    /// Every hop count of `d`, widened to `u32`, row-major.
    fn widened(d: &DistanceMatrix) -> Vec<u32> {
        d.as_matrix()
            .as_slice()
            .iter()
            .map(|&h| u32::from(h))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The 64-source kernel against one BFS per source, entry for
        /// entry, at sizes on both sides of every word boundary.
        #[test]
        fn batched_bfs_equals_per_source_bfs(seed in 0u64..1 << 32) {
            for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 300] {
                for p in [0.0, 0.01, 0.3] {
                    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
                    let g = random_connected(n, p, &mut rng).unwrap();
                    let batched = DistanceMatrix::bfs_all_pairs(&g).unwrap();
                    let reference = bfs_per_source(&g).unwrap();
                    prop_assert!(widened(&batched) == reference, "n = {}, p = {}", n, p);
                }
            }
        }
    }

    /// `n` nodes linked by chains over each `lo..hi` (no edges
    /// elsewhere).
    fn chains(n: usize, spans: &[(usize, usize)]) -> Csr {
        let links: Vec<_> = spans
            .iter()
            .flat_map(|&(lo, hi)| (lo + 1..hi).map(|v| (v - 1, v, 1)))
            .collect();
        Csr::from_contributions(n, &links)
    }

    #[test]
    fn a_stray_in_any_word_is_disconnected_on_both_kernels() {
        // n = 130: words [0, 64), [64, 128) and the 2-bit tail {128, 129}.
        for g in [
            chains(130, &[(0, 129)]),             // node 129 isolated
            chains(130, &[(0, 128), (128, 130)]), // {128, 129} on its own
            chains(130, &[(1, 130)]),             // node 0 isolated
            chains(130, &[(0, 3), (3, 130)]),     // {0, 1, 2} on its own
        ] {
            assert_eq!(
                DistanceMatrix::bfs_all_pairs(&g),
                Err(GraphError::Disconnected)
            );
            assert_eq!(bfs_per_source(&g), Err(GraphError::Disconnected));
        }
    }

    fn ring(n: usize) -> Csr {
        let links: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
        Csr::from_contributions(n, &links)
    }

    #[test]
    fn ring4_matches_paper_fig21b() {
        // Fig 21-b: the 4-ring's shortest path matrix has rows
        // (0 1 2 1), (1 0 1 2), (2 1 0 1), (1 2 1 0).
        let d = DistanceMatrix::bfs_all_pairs(&ring(4)).unwrap();
        let expect = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &hops) in row.iter().enumerate() {
                assert_eq!(d.hops(i, j), hops, "({i},{j})");
            }
        }
        assert_eq!(d.diameter(), 2);
    }

    #[test]
    fn more_nodes_than_u16_hops_hold_are_refused_before_connectivity() {
        // Edgeless, so also disconnected: the size check comes first.
        let g = Csr::from_contributions(MAX_HOP_NODES + 1, &[]);
        assert!(matches!(
            DistanceMatrix::bfs_all_pairs(&g),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn disconnected_is_rejected() {
        let g = chains(4, &[(0, 2), (2, 4)]);
        assert_eq!(
            DistanceMatrix::bfs_all_pairs(&g),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn distances_are_symmetric_metric() {
        let d = DistanceMatrix::bfs_all_pairs(&ring(7)).unwrap();
        for i in 0..7 {
            assert_eq!(d.hops(i, i), 0);
            for j in 0..7 {
                assert_eq!(d.hops(i, j), d.hops(j, i));
                for k in 0..7 {
                    assert!(
                        d.hops(i, j) <= d.hops(i, k) + d.hops(k, j),
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_of_prefers_smallest_distance_then_id() {
        let d = DistanceMatrix::bfs_all_pairs(&ring(6)).unwrap();
        // Distances from node 0 on a 6-ring: [0,1,2,3,2,1].
        assert_eq!(d.nearest_of(0, &[3, 2, 4]), Some(2));
        assert_eq!(
            d.nearest_of(0, &[1, 5]),
            Some(1),
            "tie at distance 1 broken by id"
        );
        assert_eq!(d.nearest_of(0, &[]), None);
    }

    #[test]
    fn floyd_warshall_weighted_path() {
        // 0 -2-> 1 -3-> 2, plus direct 0 -9-> 2: shortest 0->2 is 5.
        let mut m = SquareMatrix::new(3);
        m.set(0, 1, 2u64);
        m.set(1, 2, 3u64);
        m.set(0, 2, 9u64);
        m.set(1, 0, 2u64);
        m.set(2, 1, 3u64);
        m.set(2, 0, 9u64);
        let d = floyd_warshall(&m).unwrap();
        assert_eq!(d.get(0, 2), 5);
        assert_eq!(d.get(0, 0), 0);
    }

    #[test]
    fn floyd_warshall_detects_disconnection() {
        let m = SquareMatrix::new(2);
        assert_eq!(floyd_warshall(&m), Err(GraphError::Disconnected));
    }

    #[test]
    fn bfs_agrees_with_floyd_warshall_on_unweighted() {
        let g = ring(9);
        let bfs = DistanceMatrix::bfs_all_pairs(&g).unwrap();
        let fw = floyd_warshall(&g.to_matrix()).unwrap();
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(bfs.hops(i, j) as Weight, fw.get(i, j));
            }
        }
    }
}
