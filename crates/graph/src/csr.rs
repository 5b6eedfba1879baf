//! Symmetric weighted compressed-sparse-row adjacency — the one
//! representation of every undirected graph: the machine (`sys_edge`)
//! and the cluster-level graph (`abs_edge`, `c_abs_edge`).
//!
//! The paper declares `sys_edge[ns][ns]`, `abs_edge[na][na]` and
//! `c_abs_edge[na][na+1]` as dense arrays; at `na = 4096` the abstract
//! graph fills 11 % of such a matrix. [`Csr`] stores an undirected
//! weighted graph as three flat arrays (row offsets, neighbor ids,
//! weights) with every row sorted by ascending neighbor id, so consumers
//! walk a node's neighbors in `O(deg)` and in the same order a dense row
//! scan would visit them.
//! Neighbor ids and weights are parallel slices (struct of arrays): most
//! walks need only the ids.
//!
//! Every constructor goes through one row builder ([`Csr::from_rows`]):
//! a row's contributions are summed in a dense accumulator while a
//! bitset marks its distinct neighbors, and walking the set bits emits
//! them ascending — no row is ever sorted. [`Csr::contract`] builds a
//! coarse graph from the fine one's rows, so a multilevel hierarchy reads
//! its task edges once, at the finest level, and contracts the machine
//! the same way. A machine's links carry weight 1 each; a link a builder
//! lists twice (the wraparound of a 2-wide torus) weighs 2, and a
//! contracted machine's link weighs the fine links it merges. Hop
//! counts read only the rows, never the weights.

use serde::{Deserialize, Serialize};

use crate::matrix::SquareMatrix;
use crate::{NodeId, Weight};

/// An undirected weighted graph in CSR form: each edge `{a, b}` is
/// stored in both rows with the same weight, rows ascending by neighbor.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets[a]..offsets[a + 1]` is row `a` of the two arrays below.
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Build the graph on `n` nodes from an unordered list of
    /// contributions `(a, b, w)`: orientation is ignored and
    /// contributions to the same pair are summed. Costs what
    /// [`Csr::from_rows`] does, however many contributions share a
    /// pair — coarse levels of a hierarchy collapse hundreds of problem
    /// edges into each entry.
    ///
    /// # Panics
    /// On a self-loop or an endpoint `>= n` — the caller's bug.
    pub fn from_contributions(n: usize, contributions: &[(NodeId, NodeId, Weight)]) -> Self {
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
        Csr::from_rows(n, |a, row| {
            for &(b, w) in &bucketed[start[a]..start[a + 1]] {
                row.add(b, w);
            }
        })
    }

    /// Build the graph on `n` nodes one row at a time: `fill(a, row)`
    /// calls [`Row::add`] for every contribution to row `a`, in any
    /// order; contributions to the same neighbor are summed. The caller
    /// owns symmetry — every `{a, b}` must be added from both rows with
    /// the same total — which is what lets a row be filled from whatever
    /// `a` owns (its tasks, its fine rows) without an edge list.
    /// `O(n·⌈n/64⌉ + contributions + edges)`: a row costs its
    /// contributions, its distinct neighbors and one bitset word per 64
    /// ids, with no sort (at the 8192-node cap, 128 words a row).
    ///
    /// # Panics
    /// On a self-loop or a neighbor `>= n` — the caller's bug.
    pub fn from_rows(n: usize, mut fill: impl FnMut(NodeId, &mut Row<'_>)) -> Self {
        // Per row: sum duplicates in a dense accumulator whose live
        // entries are the set bits of `members` (bit `b % 64` of word
        // `b / 64`). The row is emitted by draining the words in
        // ascending order, which leaves them clear for the next row.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
        let mut acc: Vec<Weight> = vec![0; n];
        let mut members = vec![0u64; n.div_ceil(64)];
        for a in 0..n {
            fill(
                a,
                &mut Row {
                    a,
                    acc: &mut acc,
                    members: &mut members,
                },
            );
            for (k, word) in members.iter_mut().enumerate() {
                for b in drain_bits(word) {
                    let b = k * 64 + b;
                    neighbors.push(b);
                    weights.push(acc[b]);
                }
            }
            offsets.push(neighbors.len());
        }
        let g = Csr {
            offsets,
            neighbors,
            weights,
        };
        debug_assert!(
            g.edges().all(|(a, b, w)| g.weight(b, a) == Some(w))
                && g.edges().count() * 2 == g.neighbors.len(),
            "rows are not symmetric"
        );
        g
    }

    /// Contract the graph along `map` (`map[a]` = coarse node absorbing
    /// node `a`, every value `< m`): coarse row `c` is the sum of the
    /// rows of `c`'s members, minus the edges between them. Returns the
    /// coarse graph and the weight those internal edges carried, so
    /// `total weight = coarse total weight + internalized`. Reads every
    /// row once; each internal edge is met from both of its rows, which
    /// is why their sum is halved.
    ///
    /// # Panics
    /// If `map` does not cover every node or maps one to `>= m`.
    pub fn contract(&self, map: &[NodeId], m: usize) -> (Csr, Weight) {
        let n = self.node_count();
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
        let coarse = Csr::from_rows(m, |c, row| {
            for &a in &members[start[c]..start[c + 1]] {
                for (b, w) in self.row(a) {
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

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (each `{a, b}` once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbors of `a`, ascending; their count is `a`'s degree.
    #[inline]
    pub fn neighbors(&self, a: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[a]..self.offsets[a + 1]]
    }

    /// Edge weights of row `a`, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, a: NodeId) -> &[Weight] {
        &self.weights[self.offsets[a]..self.offsets[a + 1]]
    }

    /// Row `a` as `(neighbor, weight)` pairs, ascending by neighbor.
    #[inline]
    pub fn row(&self, a: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let weights = self.weights(a).iter().copied();
        self.neighbors(a).iter().copied().zip(weights)
    }

    /// Weight of edge `{a, b}` by binary search over row `a`; `None`
    /// when the nodes are not adjacent. For random access only — loops
    /// over a node's neighbors walk [`Csr::row`].
    pub fn weight(&self, a: NodeId, b: NodeId) -> Option<Weight> {
        let k = self.neighbors(a).binary_search(&b).ok()?;
        Some(self.weights(a)[k])
    }

    /// Every edge once, as `(a, b, w)` with `a < b`, ascending `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        (0..self.node_count()).flat_map(move |a| {
            // A row ascends and holds no self-loop: its upper half is
            // the suffix past `a`.
            let k = self.neighbors(a).partition_point(|&b| b < a);
            let weights = self.weights(a)[k..].iter();
            self.neighbors(a)[k..]
                .iter()
                .zip(weights)
                .map(move |(&b, &w)| (a, b, w))
        })
    }

    /// The dense symmetric matrix (0 where not adjacent) — the paper's
    /// array form, for figure exports and as a test reference.
    pub fn to_matrix(&self) -> SquareMatrix<Weight> {
        let mut m = SquareMatrix::new(self.node_count());
        for a in 0..self.node_count() {
            for (b, w) in self.row(a) {
                m.set(a, b, w);
            }
        }
        m
    }
}

/// The row [`Csr::from_rows`] is filling: a dense accumulator over the
/// neighbor ids and the bitset of the ids it holds, reused from row to
/// row.
pub struct Row<'a> {
    a: NodeId,
    acc: &'a mut [Weight],
    members: &'a mut [u64],
}

impl Row<'_> {
    /// Add `w` to this row's edge towards `b`.
    #[inline]
    pub fn add(&mut self, b: NodeId, w: Weight) {
        assert!(b != self.a, "self-loop on node {b}");
        let (member, bit) = (&mut self.members[b / 64], 1 << (b % 64));
        if *member & bit == 0 {
            *member |= bit;
            self.acc[b] = w;
        } else {
            self.acc[b] += w;
        }
    }
}

/// The indices of the set bits of `word`, ascending, clearing it.
#[inline]
fn drain_bits(word: &mut u64) -> impl Iterator<Item = usize> {
    let mut bits = std::mem::take(word);
    std::iter::from_fn(move || {
        let i = bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0–1–2 plus 1–3, with the 0–1 weight split over three
    /// contributions in both orientations; node 4 is isolated.
    fn sample() -> Csr {
        Csr::from_contributions(5, &[(1, 3, 7), (1, 0, 2), (2, 1, 5), (0, 1, 3), (1, 0, 1)])
    }

    #[test]
    fn contributions_sum_into_sorted_symmetric_rows() {
        let g = sample();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.weights(1), &[6, 5, 7]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.weights(0), &[6]);
        assert_eq!(g.row(3).collect::<Vec<_>>(), vec![(1, 7)]);
        assert_eq!(g.weight(0, 1), Some(6));
        assert_eq!(g.weight(1, 0), Some(6));
        assert_eq!(g.weight(0, 2), None);
    }

    #[test]
    fn edges_enumerate_everything() {
        let g = sample();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 6), (1, 2, 5), (1, 3, 7)]);
        // Rebuilding from the edge list is the identity.
        assert_eq!(Csr::from_contributions(5, &edges), g);
    }

    #[test]
    fn matrix_agrees_with_random_access() {
        let g = sample();
        let m = g.to_matrix();
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(m.get(a, b), g.weight(a, b).unwrap_or(0), "({a},{b})");
            }
        }
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g = Csr::from_contributions(3, &[]);
        assert_eq!(g.node_count(), 3);
        assert!(g.neighbors(1).is_empty());
        assert!(g.weights(2).is_empty());
        assert_eq!(g.edges().count(), 0);
        assert!(sample().neighbors(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        Csr::from_contributions(2, &[(1, 1, 3)]);
    }

    fn total_weight(g: &Csr) -> Weight {
        g.edges().map(|(_, _, w)| w).sum()
    }

    #[test]
    fn contracting_along_the_identity_changes_nothing() {
        let g = sample();
        assert_eq!(g.contract(&[0, 1, 2, 3, 4], 5), (g.clone(), 0));
        // A relabelling permutes the rows and keeps every weight.
        let (h, internal) = g.contract(&[4, 3, 2, 1, 0], 5);
        assert_eq!(internal, 0);
        assert_eq!(
            h.edges().collect::<Vec<_>>(),
            vec![(1, 3, 7), (2, 3, 5), (3, 4, 6)]
        );
    }

    #[test]
    fn contracting_everything_into_one_node_internalizes_everything() {
        let g = sample();
        let (one, internal) = g.contract(&[0; 5], 1);
        assert_eq!(one, Csr::from_contributions(1, &[]));
        assert_eq!(internal, total_weight(&g));
    }

    #[test]
    fn contraction_sums_rows_beside_singletons_and_isolated_nodes() {
        let g = sample();
        // {0, 1} and {2, 3} merge, isolated node 4 stays alone.
        let (h, internal) = g.contract(&[0, 0, 1, 1, 2], 3);
        assert_eq!(internal, 6);
        assert_eq!(h, Csr::from_contributions(3, &[(0, 1, 12)]));
        assert!(h.neighbors(2).is_empty());
        assert_eq!(total_weight(&g), total_weight(&h) + internal);
        // Singletons beside a pair: only the pair's edge vanishes.
        let (h, internal) = g.contract(&[0, 1, 2, 1, 3], 4);
        assert_eq!(internal, 7);
        assert_eq!(h, Csr::from_contributions(4, &[(0, 1, 6), (1, 2, 5)]));
        // A coarse node no fine node maps to is an isolated row.
        let (h, internal) = g.contract(&[0, 1, 2, 3, 5], 6);
        assert_eq!(internal, 0);
        assert!(h.neighbors(4).is_empty() && h.neighbors(5).is_empty());
        assert_eq!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn rows_filled_in_any_order_sum_like_contributions() {
        let g = Csr::from_rows(5, |a, row| {
            for (b, w) in sample().row(a).collect::<Vec<_>>().into_iter().rev() {
                row.add(b, w - 1);
                row.add(b, 1);
            }
        });
        assert_eq!(g, sample());
    }
}
