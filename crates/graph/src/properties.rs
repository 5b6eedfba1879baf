//! Structural predicates on undirected graphs: connectivity, regularity,
//! component counts. The experiment harness uses these to validate
//! generated system topologies before mapping onto them.

use crate::bitset::BitSet;
use crate::csr::Csr;
use crate::NodeId;
use std::collections::VecDeque;

/// `true` iff `g` is connected (the empty graph and singletons count as
/// connected). The paper's cost model is undefined on disconnected system
/// graphs, so generators must guarantee this.
pub fn is_connected(g: &Csr) -> bool {
    connected_components(g).len() <= 1
}

/// The connected components of `g`, each a sorted list of nodes; the
/// component list itself is sorted by smallest member.
pub fn connected_components(g: &Csr) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut seen = BitSet::new(n);
    let mut comps = Vec::new();
    let mut queue = VecDeque::new();
    for s in 0..n {
        if seen.contains(s) {
            continue;
        }
        let mut comp = vec![s];
        seen.insert(s);
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if seen.insert(v) {
                    comp.push(v);
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// `true` iff every node has the same degree `k`; returns that `k`.
/// Hypercubes and rings are regular; the paper notes "every node in the
/// system graph [Fig 8] has degree 3".
pub fn regularity(g: &Csr) -> Option<usize> {
    let degree = |u| g.neighbors(u).len();
    let n = g.node_count();
    if n == 0 {
        return Some(0);
    }
    let k = degree(0);
    (1..n).all(|u| degree(u) == k).then_some(k)
}

/// Maximum degree over all nodes (0 for the empty graph).
pub fn max_degree(g: &Csr) -> usize {
    (0..g.node_count())
        .map(|u| g.neighbors(u).len())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_links(n: usize, links: &[(NodeId, NodeId)]) -> Csr {
        let links: Vec<_> = links.iter().map(|&(u, v)| (u, v, 1)).collect();
        Csr::from_contributions(n, &links)
    }

    #[test]
    fn connectivity_of_path_and_split() {
        let g = unit_links(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
        assert!(is_connected(&unit_links(4, &[(0, 1), (2, 3), (1, 2)])));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(is_connected(&unit_links(0, &[])));
        assert!(is_connected(&unit_links(1, &[])));
        let two = unit_links(2, &[]);
        assert!(!is_connected(&two), "two isolated nodes are disconnected");
    }

    #[test]
    fn regularity_detects_rings() {
        let ring = unit_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(regularity(&ring), Some(2));
        let path = unit_links(3, &[(0, 1), (1, 2)]);
        assert_eq!(regularity(&path), None);
    }

    #[test]
    fn degree_extremes() {
        let g = unit_links(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(max_degree(&g), 3);
        assert_eq!(max_degree(&unit_links(0, &[])), 0);
        // A link listed twice is one neighbor.
        assert_eq!(max_degree(&unit_links(2, &[(0, 1), (1, 0)])), 1);
    }
}
