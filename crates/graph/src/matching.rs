//! Greedy matchings — the coarsening primitive of multilevel mapping.
//!
//! A multilevel V-cycle (VieM-style) contracts matched node pairs to
//! halve a graph per level. Two deterministic greedy variants cover the
//! two sides of the mapping problem: [`greedy_matching`] for the system
//! graph (processor pairing, link weights ignored) and
//! [`heavy_edge_matching`] for the weighted abstract graph (cluster
//! merging, heaviest communication first, so the heaviest edges become
//! internal and vanish from the coarse cut). Both sides then turn their
//! pairs into a map with [`contraction_map`] and contract along it with
//! [`Csr::contract`].

use crate::csr::Csr;
use crate::{NodeId, Weight};

/// Maximal matching on an undirected graph, ignoring edge weights.
///
/// Deterministic rule: scan nodes in ascending id; an unmatched node is
/// matched to its lowest-id unmatched neighbor. The result is maximal
/// (no edge has both endpoints unmatched) and each pair is reported as
/// `(u, v)` with `u < v`, in discovery order.
pub fn greedy_matching(g: &Csr) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let mut matched = vec![false; n];
    let mut pairs = Vec::with_capacity(n / 2);
    for u in 0..n {
        if matched[u] {
            continue;
        }
        if let Some(&v) = g.neighbors(u).iter().find(|&&v| !matched[v]) {
            matched[u] = true;
            matched[v] = true;
            pairs.push((u.min(v), u.max(v)));
        }
    }
    pairs
}

/// Heavy-edge matching on a weighted graph.
///
/// Edges are considered by descending weight (ties: ascending `(u, v)`
/// with `u < v`), and an edge is taken when both endpoints are still
/// unmatched — the classic multilevel-coarsening heuristic that
/// internalizes as much edge weight as possible. `O(n + E·b)` for `b`
/// the significant bytes of the heaviest weight (one at the finest
/// level of a V-cycle, where pair weights stay below 256).
pub fn heavy_edge_matching(g: &Csr) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    // `edges()` ascends by `(u, v)`, so a stable sort by weight alone
    // leaves ties in that order.
    let sorted = by_descending_weight(g);
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

/// The edges of `g` by descending weight, equal weights ascending by
/// `(u, v)` as [`Csr::edges`] lists them: a least-significant-digit
/// radix sort, one stable counting pass per byte up to the heaviest
/// weight's highest non-zero byte (at least one), each pass ordering its
/// byte descending. The first pass scatters straight from the rows, so
/// a one-byte sort (the finest level of a V-cycle) fills one edge
/// buffer; each later pass moves the edges to a second one and back.
fn by_descending_weight(g: &Csr) -> Vec<(NodeId, NodeId, Weight)> {
    // Every edge lies in both of its rows with one weight: the rows'
    // weights count each edge twice.
    let (mut count, mut heaviest) = ([0usize; 256], 0);
    for a in 0..g.node_count() {
        for &w in g.weights(a) {
            count[digit(w, 0)] += 1;
            heaviest = heaviest.max(w);
        }
    }
    let mut sorted = vec![(0, 0, 0); g.edge_count()];
    scatter(g.edges(), count.map(|c| c / 2), 0, &mut sorted);
    let bytes = (Weight::BITS - heaviest.leading_zeros()).div_ceil(8);
    let mut spare = Vec::new();
    for byte in 1..bytes {
        let mut count = [0usize; 256];
        for &(_, _, w) in &sorted {
            count[digit(w, byte)] += 1;
        }
        spare.resize(sorted.len(), (0, 0, 0));
        scatter(sorted.iter().copied(), count, byte, &mut spare);
        std::mem::swap(&mut sorted, &mut spare);
    }
    sorted
}

/// Digit `d` of a weight's byte `byte` is its value `255 - d`, so
/// digits ascend as weights descend.
#[inline]
fn digit(w: Weight, byte: u32) -> usize {
    255 - ((w >> (8 * byte)) & 0xff) as usize
}

/// One stable counting pass: `edges` into `out` by ascending digit of
/// byte `byte`, where `count[d]` of them have digit `d`.
fn scatter(
    edges: impl Iterator<Item = (NodeId, NodeId, Weight)>,
    count: [usize; 256],
    byte: u32,
    out: &mut [(NodeId, NodeId, Weight)],
) {
    let mut next = [0usize; 256];
    for d in 1..256 {
        next[d] = next[d - 1] + count[d - 1];
    }
    for edge in edges {
        let d = digit(edge.2, byte);
        out[next[d]] = edge;
        next[d] += 1;
    }
}

/// The contraction map of a matching on `n` nodes: the two ends of a
/// pair share a coarse node, an unmatched node stays alone, and coarse
/// ids ascend with each group's smallest member. Returns the map
/// (`map[a]` = coarse node absorbing `a`) and the coarse node count
/// `n - pairs.len()`.
pub fn contraction_map(n: usize, pairs: &[(NodeId, NodeId)]) -> (Vec<NodeId>, usize) {
    // `mate[a] == a`: unmatched.
    let mut mate: Vec<NodeId> = (0..n).collect();
    for &(a, b) in pairs {
        mate[a] = b;
        mate[b] = a;
    }
    let mut map = vec![usize::MAX; n];
    let mut m = 0;
    for a in 0..n {
        if map[a] == usize::MAX {
            map[a] = m;
            map[mate[a]] = m;
            m += 1;
        }
    }
    (map, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_links(n: usize, links: &[(NodeId, NodeId)]) -> Csr {
        let links: Vec<_> = links.iter().map(|&(u, v)| (u, v, 1)).collect();
        Csr::from_contributions(n, &links)
    }

    fn path(n: usize) -> Csr {
        unit_links(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>())
    }

    fn assert_is_matching(n: usize, pairs: &[(NodeId, NodeId)]) {
        let mut seen = vec![false; n];
        for &(u, v) in pairs {
            assert!(u < v, "pairs normalized");
            assert!(!seen[u] && !seen[v], "node matched twice");
            seen[u] = true;
            seen[v] = true;
        }
    }

    #[test]
    fn greedy_matching_on_paths_pairs_neighbors() {
        let pairs = greedy_matching(&path(6));
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5)]);
        let pairs = greedy_matching(&path(5));
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
        assert_is_matching(5, &pairs);
    }

    #[test]
    fn greedy_matching_is_maximal() {
        // 4x4 grid.
        let mut links = Vec::new();
        for id in 0..16 {
            if id % 4 + 1 < 4 {
                links.push((id, id + 1));
            }
            if id / 4 + 1 < 4 {
                links.push((id, id + 4));
            }
        }
        let g = unit_links(16, &links);
        let pairs = greedy_matching(&g);
        assert_is_matching(16, &pairs);
        let mut matched = [false; 16];
        for &(u, v) in &pairs {
            matched[u] = true;
            matched[v] = true;
        }
        for (u, v, _) in g.edges() {
            assert!(
                matched[u] || matched[v],
                "edge ({u},{v}) violates maximality"
            );
        }
        // A grid matches perfectly under the ascending-id rule.
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn greedy_matching_star_matches_one_pair() {
        let g = unit_links(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(greedy_matching(&g), vec![(0, 1)]);
    }

    #[test]
    fn greedy_matching_empty_graph() {
        assert!(greedy_matching(&unit_links(4, &[])).is_empty());
        assert!(greedy_matching(&unit_links(0, &[])).is_empty());
    }

    #[test]
    fn contraction_maps_number_groups_by_their_smallest_member() {
        assert_eq!(contraction_map(0, &[]), (vec![], 0));
        assert_eq!(contraction_map(3, &[]), (vec![0, 1, 2], 3));
        // Pairs in any order and orientation; 2 stays alone.
        let (map, m) = contraction_map(7, &[(6, 3), (4, 0), (1, 5)]);
        assert_eq!((map, m), (vec![0, 1, 2, 3, 0, 1, 3], 4));
    }

    #[test]
    fn heavy_edge_matching_prefers_heavy_edges() {
        // Triangle 0-1 (w5), 1-2 (w9), 0-2 (w1): the w9 edge wins.
        let g = Csr::from_contributions(3, &[(0, 1, 5), (1, 2, 9), (0, 2, 1)]);
        assert_eq!(heavy_edge_matching(&g), vec![(1, 2)]);
    }

    #[test]
    fn heavy_edge_matching_breaks_ties_by_id() {
        let g = Csr::from_contributions(4, &[(3, 2, 7), (0, 1, 7)]);
        assert_eq!(heavy_edge_matching(&g), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn heavy_edge_matching_is_deterministic() {
        let g = Csr::from_contributions(4, &[(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3)]);
        assert_eq!(heavy_edge_matching(&g), heavy_edge_matching(&g));
        assert_eq!(heavy_edge_matching(&g), vec![(0, 1), (2, 3)]);
    }

    /// The matching as it was computed over an explicit edge list: one
    /// sort by descending weight, then ascending `u`, then `v`.
    fn comparator_reference(g: &Csr) -> Vec<(NodeId, NodeId)> {
        let mut sorted: Vec<_> = g.edges().collect();
        sorted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        let mut matched = vec![false; g.node_count()];
        let mut pairs = Vec::new();
        for (u, v, _) in sorted {
            if !matched[u] && !matched[v] {
                matched[u] = true;
                matched[v] = true;
                pairs.push((u, v));
            }
        }
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The stable weight-only sort over the rows against the
        /// three-key comparator, on graphs where most weights tie.
        #[test]
        fn heavy_edge_matching_equals_the_comparator_sort(
            n in 2usize..60,
            m in 0usize..240,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let contributions: Vec<_> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..4)))
                .filter(|&(a, b, _)| a != b)
                .collect();
            let g = Csr::from_contributions(n, &contributions);
            let pairs = heavy_edge_matching(&g);
            assert_is_matching(n, &pairs);
            prop_assert_eq!(pairs, comparator_reference(&g));
        }
    }
}
