//! Deterministic shortest-path routing tables.
//!
//! Store-and-forward machines of the paper's era (hypercubes, meshes)
//! used fixed shortest-path routing; we precompute, for every
//! `(current, destination)` pair, the next hop — the lowest-numbered
//! neighbor that strictly decreases the remaining distance, giving
//! deterministic, loop-free routes (e-cube-like on hypercubes).

use serde::{Deserialize, Serialize};

use mimd_graph::matrix::SquareMatrix;
use mimd_graph::NodeId;
use mimd_topology::SystemGraph;

/// Next-hop table: `next(cur, dst)` is the neighbor to forward to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    /// `next[(cur, dst)]` = next hop; `cur` itself when `cur == dst`.
    /// A node id fits `u16`: a machine's hop matrix holds at most
    /// `u16::MAX + 1` nodes (`mimd_graph::apsp::MAX_HOP_NODES`).
    next: SquareMatrix<u16>,
}

impl RoutingTable {
    /// Build from a system graph's BFS distances.
    pub fn new(system: &SystemGraph) -> Self {
        let n = system.len();
        let dist = system.distances().as_matrix();
        let mut next = SquareMatrix::filled(n, u16::MAX);
        for cur in 0..n {
            let here = dist.row(cur);
            let row = next.row_mut(cur);
            // Neighbours in descending id: the last writer of an entry
            // is the lowest-numbered distance-decreasing neighbour. A
            // select rather than a conditional store, so the row loop
            // vectorises (4x faster at ns = 1024). Hops widen to `u32`
            // first, so `via + 1` cannot wrap.
            for &nb in system.graph().neighbors(cur).iter().rev() {
                for ((slot, &via), &direct) in row.iter_mut().zip(dist.row(nb)).zip(here) {
                    let improves = u32::from(via) + 1 == u32::from(direct);
                    *slot = if improves { nb as u16 } else { *slot };
                }
            }
            row[cur] = cur as u16;
            // (At n = 2^16 the sentinel is also the last node's id.)
            debug_assert!(
                n > usize::from(u16::MAX) || !row.contains(&u16::MAX),
                "connected graph always has a distance-decreasing neighbor"
            );
        }
        RoutingTable { next }
    }

    /// The next hop from `cur` toward `dst` (`cur` when already there).
    #[inline]
    pub fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        NodeId::from(self.next.get(cur, dst))
    }

    /// The full route from `src` to `dst` as the sequence of nodes
    /// visited after `src` (empty when `src == dst`).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut route = Vec::new();
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            route.push(cur);
        }
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_topology::{hypercube, ring};

    #[test]
    fn routes_have_shortest_length() {
        let sys = hypercube(3).unwrap();
        let table = RoutingTable::new(&sys);
        for s in 0..8 {
            for d in 0..8 {
                let route = table.route(s, d);
                assert_eq!(route.len() as u32, sys.hops(s, d), "{s}->{d}");
                // Route ends at the destination and uses real links.
                let mut prev = s;
                for &n in &route {
                    assert!(sys.adjacent(prev, n), "{prev}-{n} not a link");
                    prev = n;
                }
                if s != d {
                    assert_eq!(*route.last().unwrap(), d);
                }
            }
        }
    }

    #[test]
    fn routing_is_deterministic_lowest_neighbor() {
        // Ring 0-1-2-3: from 0 to 2 both ways are length 2; the
        // lowest-id improving neighbor (1) must be chosen.
        let sys = ring(4).unwrap();
        let table = RoutingTable::new(&sys);
        assert_eq!(table.next_hop(0, 2), 1);
        assert_eq!(table.route(0, 2), vec![1, 2]);
    }

    /// The table's definition, entry by entry: the lowest-numbered
    /// neighbour that strictly decreases the remaining distance.
    fn lowest_improving_neighbor(sys: &SystemGraph, cur: NodeId, dst: NodeId) -> NodeId {
        if cur == dst {
            return cur;
        }
        let improving = |&nb: &NodeId| sys.hops(nb, dst) + 1 == sys.hops(cur, dst);
        let candidates = sys.graph().neighbors(cur).iter().copied();
        candidates.filter(improving).min().unwrap()
    }

    #[test]
    fn streamed_rows_equal_the_definition_on_every_family() {
        use mimd_topology::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(16);
        let systems = [
            hypercube(7).unwrap(),
            mesh2d(9, 13).unwrap(),
            torus2d(16, 16).unwrap(),
            ring(97).unwrap(),
            chain(64).unwrap(),
            star(65).unwrap(),
            complete(33).unwrap(),
            binary_tree(127).unwrap(),
            fat_tree(4, 3).unwrap(),
            clustered_complete(16, 16).unwrap(),
            cube_connected_cycles(5).unwrap(),
            de_bruijn(8).unwrap(),
            random_topology(200, 0.02, &mut rng).unwrap(),
            random_topology(256, 0.0, &mut rng).unwrap(),
        ];
        for sys in &systems {
            assert!(sys.len() <= 256, "{}", sys.name());
            let table = RoutingTable::new(sys);
            for cur in 0..sys.len() {
                for dst in 0..sys.len() {
                    assert_eq!(
                        table.next_hop(cur, dst),
                        lowest_improving_neighbor(sys, cur, dst),
                        "{} {cur}->{dst}",
                        sys.name()
                    );
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let sys = ring(4).unwrap();
        let table = RoutingTable::new(&sys);
        assert!(table.route(2, 2).is_empty());
        assert_eq!(table.next_hop(2, 2), 2);
    }
}
