//! KL/FM-style gain table for pairwise-exchange refinement.
//!
//! A [`GainTable`] maintains, per cluster, the *external communication
//! cost* `ext[c] = Σ_x W[c][x] · hops(s_c, s_x)` over the cluster-level
//! (abstract) adjacency — the weighted-comm-volume part of the
//! objective. Swapping two clusters changes only the terms incident to
//! them, so the table prices an exchange in `O(deg a + deg b)` and
//! repairs itself per accepted move without ever rescanning the graph —
//! the trick that lets VieM-style mappers afford wide exchange pools.
//! The adjacency is the [`AbstractGraph`]'s own sparse rows; the table
//! keeps no copy of it.
//!
//! The table's gain is a **proxy**: the real objective is the schedule
//! makespan, which comm volume only approximates. The exchange pass in
//! [`refine`](crate::refine::refine) therefore uses the table to *rank*
//! candidate swaps and the exact [`DeltaEvaluator`](crate::DeltaEvaluator)
//! to accept them, so the proxy can only ever cost ordering quality,
//! never correctness.
//!
//! Movability and boundary membership are bit-packed ([`BitSet`]), in
//! the spirit of the bitboard representations chess engines use for
//! exactly this kind of hot membership test.

use mimd_graph::{BitSet, Weight};
use mimd_taskgraph::{AbstractGraph, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;

/// Incrementally maintained per-cluster external costs plus the
/// movable/boundary sets driving exchange candidate generation.
#[derive(Clone, Debug)]
pub struct GainTable {
    /// The cluster-level graph whose rows `W[c][·]` the table walks.
    abstract_graph: AbstractGraph,
    /// `ext[c] = Σ_x W[c][x] · hops(s_c, s_x)` under the tracked
    /// assignment.
    ext: Vec<u64>,
    /// Clusters refinement may move (the unpinned ones).
    movable: BitSet,
    /// Movable clusters with at least one neighbor further than one hop
    /// — the only ones whose own external cost an exchange can shrink.
    boundary: BitSet,
}

impl GainTable {
    /// Build the table for `assignment` with per-cluster pin flags
    /// (`pinned[c]` ⇒ not movable). `respect_pins: false` callers pass
    /// all-false flags.
    pub fn new(
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        assignment: &Assignment,
        pinned: &[bool],
    ) -> Self {
        let abstract_graph = AbstractGraph::new(graph);
        let na = abstract_graph.len();
        let mut table = GainTable {
            abstract_graph,
            ext: vec![0; na],
            movable: BitSet::new(na),
            boundary: BitSet::new(na),
        };
        for (c, &p) in pinned.iter().enumerate() {
            if !p {
                table.movable.insert(c);
            }
        }
        for c in 0..na {
            table.ext[c] = table.compute_ext(c, assignment, system);
            table.refresh_boundary(c, assignment, system);
        }
        table
    }

    /// The abstract neighbors of `c` with summed cross weights.
    #[inline]
    pub fn neighbors(&self, c: usize) -> impl Iterator<Item = (usize, Weight)> + '_ {
        self.abstract_graph.row(c)
    }

    /// Current external cost of `c`.
    #[inline]
    pub fn ext(&self, c: usize) -> u64 {
        self.ext[c]
    }

    /// The movable-cluster set.
    #[inline]
    pub fn movable(&self) -> &BitSet {
        &self.movable
    }

    /// The boundary set (movable, with some neighbor beyond one hop).
    #[inline]
    pub fn boundary(&self) -> &BitSet {
        &self.boundary
    }

    fn compute_ext(&self, c: usize, assignment: &Assignment, system: &SystemGraph) -> u64 {
        let sc = assignment.sys_of(c);
        self.neighbors(c)
            .map(|(x, w)| w * u64::from(system.hops(sc, assignment.sys_of(x))))
            .sum()
    }

    fn refresh_boundary(&mut self, c: usize, assignment: &Assignment, system: &SystemGraph) {
        let sc = assignment.sys_of(c);
        let far = self.movable.contains(c)
            && self
                .neighbors(c)
                .any(|(x, _)| system.hops(sc, assignment.sys_of(x)) > 1);
        if far {
            self.boundary.insert(c);
        } else {
            self.boundary.remove(c);
        }
    }

    /// Proxy gain of exchanging `a` and `b` under `assignment` (their
    /// *current* hosts): the drop in total external cost, positive when
    /// the swap reduces weighted comm volume. The `a`–`b` edge itself is
    /// unaffected (its endpoints trade places). `O(deg a + deg b)`.
    pub fn swap_gain(
        &self,
        a: usize,
        b: usize,
        assignment: &Assignment,
        system: &SystemGraph,
    ) -> i64 {
        let (sa, sb) = (assignment.sys_of(a), assignment.sys_of(b));
        let mut gain = 0i64;
        for (x, w) in self.neighbors(a) {
            if x == b {
                continue;
            }
            let sx = assignment.sys_of(x);
            gain += w as i64 * (i64::from(system.hops(sa, sx)) - i64::from(system.hops(sb, sx)));
        }
        for (x, w) in self.neighbors(b) {
            if x == a {
                continue;
            }
            let sx = assignment.sys_of(x);
            gain += w as i64 * (i64::from(system.hops(sb, sx)) - i64::from(system.hops(sa, sx)));
        }
        gain
    }

    /// Repair the table after clusters `a` and `b` exchanged hosts —
    /// `assignment` is the **post-swap** state. Recomputes `ext[a]`,
    /// `ext[b]` and adjusts each neighbor's entry by its hop delta
    /// (`O(deg a + deg b)`), then refreshes boundary membership of the
    /// touched clusters.
    pub fn apply_swap(
        &mut self,
        a: usize,
        b: usize,
        assignment: &Assignment,
        system: &SystemGraph,
    ) {
        // Post-swap hosts; pre-swap hosts are the mirrored pair.
        let (sa_new, sb_new) = (assignment.sys_of(a), assignment.sys_of(b));
        let (sa_old, sb_old) = (sb_new, sa_new);
        for endpoint in [(a, sa_old, sa_new), (b, sb_old, sb_new)] {
            let (c, s_old, s_new) = endpoint;
            for k in 0..self.abstract_graph.neighbors(c).len() {
                let (x, w) = (
                    self.abstract_graph.neighbors(c)[k],
                    self.abstract_graph.weights(c)[k],
                );
                if x == a || x == b {
                    continue;
                }
                let sx = assignment.sys_of(x);
                let delta = w as i64
                    * (i64::from(system.hops(s_new, sx)) - i64::from(system.hops(s_old, sx)));
                self.ext[x] = (self.ext[x] as i64 + delta) as u64;
                self.refresh_boundary(x, assignment, system);
            }
            self.ext[c] = self.compute_ext(c, assignment, system);
            self.refresh_boundary(c, assignment, system);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;

    fn setup() -> (ClusteredProblemGraph, SystemGraph, Assignment) {
        (
            paper::worked_example(),
            ring(4).unwrap(),
            Assignment::identity(4),
        )
    }

    fn rebuilt_ext(
        table: &GainTable,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        assignment: &Assignment,
    ) -> Vec<u64> {
        let fresh = GainTable::new(graph, system, assignment, &vec![false; table.ext.len()]);
        fresh.ext.clone()
    }

    #[test]
    fn ext_matches_weighted_cut() {
        let (g, sys, a) = setup();
        let table = GainTable::new(&g, &sys, &a, &[false; 4]);
        // Cross-check each cluster against a direct edge scan.
        for c in 0..4 {
            let mut expect = 0u64;
            for (u, v, w) in g.cross_edges() {
                let (cu, cv) = (g.cluster_of(u), g.cluster_of(v));
                if cu == c || cv == c {
                    expect += w * u64::from(sys.hops(a.sys_of(cu), a.sys_of(cv)));
                }
            }
            assert_eq!(table.ext(c), expect, "cluster {c}");
        }
    }

    #[test]
    fn swap_gain_predicts_ext_change_exactly() {
        let (g, sys, mut a) = setup();
        let table = GainTable::new(&g, &sys, &a, &[false; 4]);
        let total_before: i64 = (0..4).map(|c| table.ext(c) as i64).sum();
        for x in 0..4 {
            for y in (x + 1)..4 {
                let gain = table.swap_gain(x, y, &a, &sys);
                a.swap_clusters(x, y);
                let total_after: i64 = rebuilt_ext(&table, &g, &sys, &a).iter().sum::<u64>() as i64;
                // ext double-counts every edge (once per endpoint), so
                // the predicted drop appears twice in the sum.
                assert_eq!(total_before - total_after, 2 * gain, "swap {x}<->{y}");
                a.swap_clusters(x, y);
            }
        }
    }

    #[test]
    fn apply_swap_matches_rebuild() {
        let (g, sys, mut a) = setup();
        let mut table = GainTable::new(&g, &sys, &a, &[false; 4]);
        for (x, y) in [(0, 3), (1, 2), (0, 1), (2, 3), (0, 2)] {
            a.swap_clusters(x, y);
            table.apply_swap(x, y, &a, &sys);
            assert_eq!(
                table.ext,
                rebuilt_ext(&table, &g, &sys, &a),
                "after swap {x}<->{y}"
            );
        }
    }

    #[test]
    fn pins_shape_movable_and_boundary() {
        let (g, sys, a) = setup();
        let table = GainTable::new(&g, &sys, &a, &[true, false, true, false]);
        assert!(!table.movable().contains(0));
        assert!(table.movable().contains(1));
        assert!(!table.movable().contains(2));
        assert!(table.movable().contains(3));
        // Boundary is a subset of movable.
        for c in table.boundary().iter() {
            assert!(table.movable().contains(c));
        }
    }
}
