//! KL/FM-style gain table for pairwise-exchange refinement.
//!
//! A [`GainTable`] maintains, per cluster `c` and processor `s`, the
//! *placed cost* `placed[c][s] = Σ_x W[c][x] · hops(s, s_x)` over the
//! cluster-level (abstract) adjacency: what `c`'s edges would cost with
//! `c` hosted on `s` and every neighbor where it is. Its entry at `c`'s
//! own host is the *external communication cost* `ext[c]` — the
//! weighted-comm-volume part of the objective. An exchange of `a` and
//! `b` is then priced from four entries and the `a`–`b` weight, whatever
//! the clusters' degrees, and an accepted one shifts only the rows of
//! `a`'s and `b`'s neighbors (`O((deg a + deg b) · ns)`, never a rescan
//! of the graph) — the trick that lets VieM-style mappers afford wide
//! exchange pools: a ranking round over every candidate pair costs the
//! pairs, not the pairs times their degrees. The adjacency is the
//! [`AbstractGraph`]'s own sparse rows, shared with the clustered graph
//! that collapsed them: the table neither copies nor rebuilds it.
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

use std::sync::Arc;

use mimd_graph::{BitSet, Weight};
use mimd_taskgraph::{AbstractGraph, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;

/// Incrementally maintained placed and external costs plus the
/// movable/boundary sets driving exchange candidate generation.
#[derive(Clone, Debug)]
pub struct GainTable {
    /// The cluster-level graph whose rows `W[c][·]` the table walks.
    abstract_graph: Arc<AbstractGraph>,
    /// Processor count: the row length of `placed`.
    ns: usize,
    /// `placed[c * ns + s] = Σ_x W[c][x] · hops(s, s_x)` under the
    /// tracked assignment. Row `c` depends on where `c`'s neighbors
    /// are, never on `c`'s own host.
    placed: Vec<u64>,
    /// `ext[c] = placed[c][s_c]`: the row's entry at `c`'s own host.
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
        let abstract_graph = Arc::clone(graph.abstract_graph());
        let (na, ns) = (abstract_graph.len(), system.len());
        let mut table = GainTable {
            abstract_graph,
            ns,
            placed: vec![0; na * ns],
            ext: vec![0; na],
            movable: BitSet::new(na),
            boundary: BitSet::new(na),
        };
        for (c, &p) in pinned.iter().enumerate() {
            if !p {
                table.movable.insert(c);
            }
        }
        // Hop counts are symmetric, so `hops(·, s_x)` is row `s_x`.
        let hops = system.distances().as_matrix();
        for c in 0..na {
            let row = &mut table.placed[c * ns..(c + 1) * ns];
            for (x, w) in table.abstract_graph.row(c) {
                for (cost, &h) in row.iter_mut().zip(hops.row(assignment.sys_of(x))) {
                    *cost += w * u64::from(h);
                }
            }
            table.refresh(c, assignment, system);
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

    /// What `c`'s edges would cost with `c` hosted on `s`.
    #[inline]
    fn placed(&self, c: usize, s: usize) -> i64 {
        self.placed[c * self.ns + s] as i64
    }

    /// Re-read `ext[c]` and `c`'s boundary membership after `c` or one
    /// of its neighbors moved (`c`'s placed row already repaired).
    fn refresh(&mut self, c: usize, assignment: &Assignment, system: &SystemGraph) {
        let sc = assignment.sys_of(c);
        self.ext[c] = self.placed[c * self.ns + sc];
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
    /// the swap reduces weighted comm volume. Each cluster's edges are
    /// re-read at the other's host; the `a`–`b` edge itself is unaffected
    /// (its endpoints trade places), so what the two placed costs count
    /// for it — `hops(s_a, s_b)` at the own host, 0 at the other's — is
    /// taken out again. Four table entries and one weight lookup,
    /// whatever the degrees.
    pub fn swap_gain(
        &self,
        a: usize,
        b: usize,
        assignment: &Assignment,
        system: &SystemGraph,
    ) -> i64 {
        let (sa, sb) = (assignment.sys_of(a), assignment.sys_of(b));
        let shared = self.abstract_graph.pair_weight(a, b) as i64 * i64::from(system.hops(sa, sb));
        self.placed(a, sa) - self.placed(a, sb) + self.placed(b, sb)
            - self.placed(b, sa)
            - 2 * shared
    }

    /// [`swap_gain`](GainTable::swap_gain) of every pair in `pairs` —
    /// pair `(a, b)`, `a < b`, being element `a * na + b` — handed to
    /// `emit` as `(gain, a, b)` in ascending pair order. What a round of
    /// the exchange pass spends on ranking: everything that depends on
    /// `a` alone is read once per row, and each `a`–`b` weight comes
    /// from one walk along `a`'s neighbor row beside its ascending
    /// partners instead of a search per pair.
    pub fn swap_gains(
        &self,
        pairs: &BitSet,
        assignment: &Assignment,
        system: &SystemGraph,
        mut emit: impl FnMut((i64, usize, usize)),
    ) {
        let (na, ns) = (self.ext.len(), self.ns);
        let hops = system.distances().as_matrix();
        let mut pairs = pairs.iter().peekable();
        while let Some(&first) = pairs.peek() {
            let a = first / na;
            let sa = assignment.sys_of(a);
            let (placed_a, hops_a) = (&self.placed[a * ns..(a + 1) * ns], hops.row(sa));
            let mut shared = self.neighbors(a).peekable();
            while let Some(pair) = pairs.next_if(|&pair| pair < (a + 1) * na) {
                let b = pair - a * na;
                let sb = assignment.sys_of(b);
                while shared.next_if(|&(x, _)| x < b).is_some() {}
                let w = shared
                    .peek()
                    .map_or(0, |&(x, w)| if x == b { w } else { 0 });
                let gain = self.ext[a] as i64 - placed_a[sb] as i64 + self.ext[b] as i64
                    - self.placed[b * ns + sa] as i64
                    - 2 * w as i64 * i64::from(hops_a[sb]);
                emit((gain, a, b));
            }
        }
    }

    /// Repair the table after clusters `a` and `b` exchanged hosts —
    /// `assignment` is the **post-swap** state. A cluster that moved
    /// from `s_old` to `s_new` shifts every neighbor's placed row by
    /// `W × (hops(·, s_new) − hops(·, s_old))`
    /// (`O((deg a + deg b) · ns)`); then `ext` and boundary membership
    /// of the touched clusters are re-read.
    pub fn apply_swap(
        &mut self,
        a: usize,
        b: usize,
        assignment: &Assignment,
        system: &SystemGraph,
    ) {
        // Post-swap hosts; pre-swap hosts are the mirrored pair.
        let (sa_new, sb_new) = (assignment.sys_of(a), assignment.sys_of(b));
        let (hops, ns) = (system.distances().as_matrix(), self.ns);
        for (c, s_old, s_new) in [(a, sb_new, sa_new), (b, sa_new, sb_new)] {
            for (x, w) in self.abstract_graph.row(c) {
                let shift = hops.row(s_new).iter().zip(hops.row(s_old));
                for (cost, (&new, &old)) in self.placed[x * ns..(x + 1) * ns].iter_mut().zip(shift)
                {
                    // The row holds `w × old` already: no underflow.
                    *cost = *cost + w * u64::from(new) - w * u64::from(old);
                }
            }
        }
        for c in [a, b] {
            for k in 0..self.abstract_graph.neighbors(c).len() {
                self.refresh(self.abstract_graph.neighbors(c)[k], assignment, system);
            }
            self.refresh(c, assignment, system);
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

    fn rebuilt(
        table: &GainTable,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        assignment: &Assignment,
    ) -> GainTable {
        GainTable::new(graph, system, assignment, &vec![false; table.ext.len()])
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
                let total_after: i64 = rebuilt(&table, &g, &sys, &a).ext.iter().sum::<u64>() as i64;
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
            let fresh = rebuilt(&table, &g, &sys, &a);
            assert_eq!(table.ext, fresh.ext, "after swap {x}<->{y}");
            assert_eq!(table.placed, fresh.placed, "after swap {x}<->{y}");
        }
    }

    #[test]
    fn placed_is_the_cost_of_a_cluster_at_every_processor() {
        let (g, sys, a) = setup();
        let table = GainTable::new(&g, &sys, &a, &[false; 4]);
        for c in 0..4 {
            for s in 0..4 {
                let expect: u64 = table
                    .neighbors(c)
                    .map(|(x, w)| w * u64::from(sys.hops(s, a.sys_of(x))))
                    .sum();
                assert_eq!(table.placed(c, s), expect as i64, "cluster {c} on {s}");
            }
            assert_eq!(table.ext(c), table.placed(c, a.sys_of(c)) as u64);
        }
    }

    #[test]
    fn swap_gains_is_swap_gain_of_every_pair_in_order() {
        let (g, sys, a) = setup();
        let table = GainTable::new(&g, &sys, &a, &[false; 4]);
        // Adjacent and non-adjacent pairs, a skipped row, an empty one.
        let chosen = [(0, 1), (0, 3), (2, 3)];
        let mut pairs = BitSet::new(16);
        for (x, y) in chosen {
            pairs.insert(x * 4 + y);
        }
        let mut batched = Vec::new();
        table.swap_gains(&pairs, &a, &sys, |swap| batched.push(swap));
        assert_eq!(
            batched,
            chosen.map(|(x, y)| (table.swap_gain(x, y, &a, &sys), x, y))
        );
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
