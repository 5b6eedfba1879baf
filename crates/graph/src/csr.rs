//! Symmetric weighted compressed-sparse-row adjacency — the one
//! representation of the cluster-level graph.
//!
//! The paper declares `abs_edge[na][na]` and `c_abs_edge[na][na+1]` as
//! dense arrays; at `na = 4096` the abstract graph fills 11 % of such a
//! matrix. [`Csr`] stores an undirected weighted graph as three flat
//! arrays (row offsets, neighbor ids, weights) with every row sorted by
//! ascending neighbor id, so consumers walk a cluster's neighbors in
//! `O(deg)` and in the same order a dense row scan would visit them.
//! Neighbor ids and weights are parallel slices (struct of arrays): most
//! walks need only the ids.

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
    /// contributions to the same pair are summed. `O(E + Σ deg·log deg)`
    /// however many contributions share a pair — coarse levels of a
    /// hierarchy collapse hundreds of problem edges into each entry.
    ///
    /// # Panics
    /// On a self-loop or an endpoint `>= n` — the caller's bug.
    pub fn from_contributions(n: usize, contributions: &[(NodeId, NodeId, Weight)]) -> Self {
        // Counting sort: both orientations of every contribution,
        // bucketed by row.
        let mut start = vec![0usize; n + 1];
        for &(a, b, _) in contributions {
            assert!(a != b, "self-loop on node {a}");
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
        // Per row: sum duplicates in a dense accumulator (`seen_in[b] ==
        // a` marks `acc[b]` as belonging to the current row), then emit
        // the distinct neighbors in ascending order.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
        let mut acc: Vec<Weight> = vec![0; n];
        let mut seen_in = vec![usize::MAX; n];
        for a in 0..n {
            let row = neighbors.len();
            for &(b, w) in &bucketed[start[a]..start[a + 1]] {
                if seen_in[b] != a {
                    seen_in[b] = a;
                    acc[b] = 0;
                    neighbors.push(b);
                }
                acc[b] += w;
            }
            neighbors[row..].sort_unstable();
            weights.extend(neighbors[row..].iter().map(|&b| acc[b]));
            offsets.push(neighbors.len());
        }
        Csr {
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `a`, ascending.
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
            self.row(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, w)| (a, b, w))
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
}
