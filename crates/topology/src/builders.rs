//! Constructors for the standard interconnection topologies.
//!
//! Table 1 maps onto hypercubes, Table 2 onto meshes, Table 3 onto random
//! connected graphs; the remaining shapes (ring, chain, star, tree, torus,
//! complete) round out the library for examples and ablations. Every
//! builder lists its links and freezes them into a validated
//! [`SystemGraph`] in one step.

use rand::Rng;

use mimd_graph::error::GraphError;
use mimd_graph::{generators, Csr, NodeId};

use crate::system::SystemGraph;

/// Freeze the links `{u, v}` of an `n`-processor machine: one unit
/// contribution each, so a link listed twice weighs 2 (see [`Csr`]).
fn machine(
    name: String,
    n: usize,
    links: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> Result<SystemGraph, GraphError> {
    let links: Vec<_> = links.into_iter().map(|(u, v)| (u, v, 1)).collect();
    SystemGraph::new(name, Csr::from_contributions(n, &links))
}

/// Every pair of `0..n` once.
pub(crate) fn all_pairs(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> {
    (0..n).flat_map(move |u| (u + 1..n).map(move |v| (u, v)))
}

/// `d`-dimensional binary hypercube on `2^d` processors: nodes are bit
/// strings, edges join strings at Hamming distance 1. The paper's Table 1
/// systems (ns ∈ {4, 8, 16, 32}) are hypercubes of dimension 2–5.
pub fn hypercube(dim: u32) -> Result<SystemGraph, GraphError> {
    if dim > 16 {
        return Err(GraphError::InvalidParameter(format!(
            "hypercube dim {dim} too large"
        )));
    }
    let n = 1usize << dim;
    let links = (0..n).flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b))));
    machine(
        format!("hypercube(d={dim})"),
        n,
        links.filter(|&(u, v)| u < v),
    )
}

/// `rows × cols` 2-D mesh (grid without wraparound); node `(r, c)` has id
/// `r * cols + c`. The paper's Table 2 systems.
pub fn mesh2d(rows: usize, cols: usize) -> Result<SystemGraph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameter(
            "mesh needs rows, cols >= 1".into(),
        ));
    }
    let n = rows * cols;
    let right = (0..n)
        .filter(|id| id % cols + 1 < cols)
        .map(|id| (id, id + 1));
    let down = (0..n.saturating_sub(cols)).map(|id| (id, id + cols));
    machine(format!("mesh({rows}x{cols})"), n, right.chain(down))
}

/// `rows × cols` 2-D torus (mesh with wraparound links). In a dimension
/// of 2 both neighbours along it are the same node, so that link is
/// listed twice; in a dimension of 1 the wraparound is a self-loop and
/// is dropped.
pub fn torus2d(rows: usize, cols: usize) -> Result<SystemGraph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameter(
            "torus needs rows, cols >= 1".into(),
        ));
    }
    let links = (0..rows * cols).flat_map(|id| {
        let (r, c) = (id / cols, id % cols);
        let right = r * cols + (c + 1) % cols;
        let down = ((r + 1) % rows) * cols + c;
        [(id, right), (id, down)]
    });
    machine(
        format!("torus({rows}x{cols})"),
        rows * cols,
        links.filter(|&(u, v)| u != v),
    )
}

/// Ring (cycle) of `n >= 3` processors. The paper's worked example (Figs
/// 5-a, 21) runs on `ring(4)`.
pub fn ring(n: usize) -> Result<SystemGraph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "ring needs n >= 3, got {n}"
        )));
    }
    machine(format!("ring({n})"), n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// Chain (path) of `n >= 1` processors.
pub fn chain(n: usize) -> Result<SystemGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter("chain needs n >= 1".into()));
    }
    machine(format!("chain({n})"), n, (1..n).map(|i| (i - 1, i)))
}

/// Star: processor 0 is the hub connected to all `n - 1` leaves.
pub fn star(n: usize) -> Result<SystemGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter("star needs n >= 1".into()));
    }
    machine(format!("star({n})"), n, (1..n).map(|leaf| (0, leaf)))
}

/// Complete binary tree on `n >= 1` processors in heap order
/// (children of `i` are `2i + 1`, `2i + 2`).
pub fn binary_tree(n: usize) -> Result<SystemGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter("tree needs n >= 1".into()));
    }
    machine(format!("btree({n})"), n, (1..n).map(|i| (i, (i - 1) / 2)))
}

/// Complete graph on `n` processors — the closure topology itself; every
/// assignment onto it achieves the ideal-graph lower bound.
pub fn complete(n: usize) -> Result<SystemGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "complete graph needs n >= 1".into(),
        ));
    }
    machine(format!("complete({n})"), n, all_pairs(n))
}

/// Fat-tree-style hierarchical topology on `(arity^levels - 1)/(arity-1)`
/// processors: a complete `arity`-ary tree of `levels` levels where, in
/// addition to the parent links, every sibling group forms a clique. The
/// sibling cliques stand in for the fat intra-pod bandwidth of real
/// fat-trees (cf. the PERCS/fat-tree mapping literature) while keeping
/// the unweighted-link model; the result has strong hierarchical
/// locality, which makes it a natural multilevel coarsening target.
pub fn fat_tree(levels: u32, arity: usize) -> Result<SystemGraph, GraphError> {
    if levels == 0 || arity == 0 {
        return Err(GraphError::InvalidParameter(
            "fat tree needs levels, arity >= 1".into(),
        ));
    }
    // n = 1 + arity + arity^2 + ... + arity^(levels-1), overflow-checked.
    let mut n: usize = 0;
    let mut layer: usize = 1;
    let mut layer_starts = Vec::with_capacity(levels as usize);
    for _ in 0..levels {
        layer_starts.push(n);
        n = n
            .checked_add(layer)
            .filter(|&total| total <= 1 << 20)
            .ok_or_else(|| {
                GraphError::InvalidParameter(format!("fat_tree(l={levels},a={arity}) too large"))
            })?;
        layer = layer.saturating_mul(arity);
    }
    let mut links = Vec::new();
    for level in 1..levels as usize {
        let start = layer_starts[level];
        let end = layer_starts.get(level + 1).copied().unwrap_or(n);
        for v in start..end {
            // Parent link: nodes of a layer are ordered by parent.
            links.push((v, layer_starts[level - 1] + (v - start) / arity));
            // Sibling clique within the same parent's child group.
            let group_first = start + ((v - start) / arity) * arity;
            links.extend((group_first..v).map(|u| (u, v)));
        }
    }
    machine(format!("fattree(l={levels},a={arity})"), n, links)
}

/// PERCS-style two-level "clustered complete" topology on
/// `groups × group_size` processors: every group is a clique (supernode
/// local links), and every pair of groups is joined by exactly one
/// direct link (the D-link of Chakaravarthy et al., *Mapping Strategies
/// for the PERCS Architecture*). Group `a`'s member `b mod group_size`
/// connects to group `b`'s member `a mod group_size`, spreading the
/// inter-group links across members.
pub fn clustered_complete(groups: usize, group_size: usize) -> Result<SystemGraph, GraphError> {
    if groups == 0 || group_size == 0 {
        return Err(GraphError::InvalidParameter(
            "clustered complete needs groups, group_size >= 1".into(),
        ));
    }
    let n = groups
        .checked_mul(group_size)
        .filter(|&total| total <= 1 << 20)
        .ok_or_else(|| {
            GraphError::InvalidParameter(format!("clusters({groups}x{group_size}) too large"))
        })?;
    let local = (0..groups).flat_map(|a| {
        let base = a * group_size;
        all_pairs(group_size).map(move |(i, j)| (base + i, base + j))
    });
    let global = all_pairs(groups).map(|(a, b)| {
        (
            a * group_size + b % group_size,
            b * group_size + a % group_size,
        )
    });
    machine(
        format!("clusters({groups}x{group_size})"),
        n,
        local.chain(global),
    )
}

/// Random connected topology on `n` processors: spanning tree plus each
/// extra edge with probability `extra_edge_prob` (Table 3 / Fig 27).
pub fn random_topology(
    n: usize,
    extra_edge_prob: f64,
    rng: &mut impl Rng,
) -> Result<SystemGraph, GraphError> {
    let g = generators::random_connected(n, extra_edge_prob, rng)?;
    SystemGraph::new(format!("random({n},p={extra_edge_prob})"), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_graph::properties::regularity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hypercube_structure() {
        let h = hypercube(3).unwrap();
        assert_eq!(h.len(), 8);
        assert_eq!(h.graph().edge_count(), 12);
        assert_eq!(regularity(h.graph()), Some(3));
        assert_eq!(h.diameter(), 3);
        // Hamming-distance property: 0b000 adjacent to 0b001, 0b010, 0b100.
        assert!(h.adjacent(0, 1) && h.adjacent(0, 2) && h.adjacent(0, 4));
        assert!(!h.adjacent(0, 3));
    }

    #[test]
    fn hypercube_dim0_is_single_node() {
        let h = hypercube(0).unwrap();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn mesh_structure() {
        let m = mesh2d(3, 4).unwrap();
        assert_eq!(m.len(), 12);
        // Edge count: rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17.
        assert_eq!(m.graph().edge_count(), 17);
        assert_eq!(m.diameter(), (3 - 1) + (4 - 1));
        // Corner degree 2, edge degree 3, interior degree 4.
        assert_eq!(m.degree(0), 2);
        assert_eq!(m.degree(1), 3);
        assert_eq!(m.degree(5), 4);
    }

    #[test]
    fn torus_is_4_regular_when_big_enough() {
        let t = torus2d(3, 3).unwrap();
        assert_eq!(regularity(t.graph()), Some(4));
        assert_eq!(t.graph().edge_count(), 18);
        // Degenerate sizes still build.
        assert!(torus2d(1, 5).is_ok());
        assert!(torus2d(2, 2).is_ok());
        assert_eq!(torus2d(1, 1).unwrap().len(), 1);
    }

    #[test]
    fn ring_chain_star_tree_complete() {
        assert_eq!(ring(5).unwrap().graph().edge_count(), 5);
        assert!(ring(2).is_err());
        assert_eq!(chain(5).unwrap().graph().edge_count(), 4);
        assert_eq!(chain(5).unwrap().diameter(), 4);
        let s = star(6).unwrap();
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.diameter(), 2);
        let t = binary_tree(7).unwrap();
        assert_eq!(t.graph().edge_count(), 6);
        assert_eq!(t.degree(0), 2);
        let k = complete(5).unwrap();
        assert_eq!(k.graph().edge_count(), 10);
        assert_eq!(k.diameter(), 1);
    }

    #[test]
    fn fat_tree_structure() {
        // 3 levels, arity 2: 1 + 2 + 4 = 7 nodes.
        let t = fat_tree(3, 2).unwrap();
        assert_eq!(t.len(), 7);
        // Tree edges (6) + one sibling edge per 2-child group (3).
        assert_eq!(t.graph().edge_count(), 9);
        // Siblings are directly linked: children of the root are 1 and 2.
        assert!(t.adjacent(1, 2));
        // Leaves 3,4 share parent 1; leaves 5,6 share parent 2.
        assert!(t.adjacent(3, 4) && t.adjacent(3, 1));
        assert!(!t.adjacent(3, 5), "different pods are not linked");
        assert_eq!(fat_tree(1, 4).unwrap().len(), 1);
        // Arity 1 degenerates to a chain.
        let chain3 = fat_tree(3, 1).unwrap();
        assert_eq!(chain3.len(), 3);
        assert_eq!(chain3.diameter(), 2);
    }

    #[test]
    fn clustered_complete_structure() {
        let c = clustered_complete(4, 8).unwrap();
        assert_eq!(c.len(), 32);
        // Local cliques: 4 * C(8,2) = 112; inter-group: C(4,2) = 6.
        assert_eq!(c.graph().edge_count(), 112 + 6);
        // Everything within a group is one hop.
        assert_eq!(c.hops(0, 7), 1);
        // Any two processors are at most 3 hops apart (local, D-link, local).
        assert!(c.diameter() <= 3);
        assert_eq!(clustered_complete(1, 1).unwrap().len(), 1);
        assert_eq!(clustered_complete(3, 1).unwrap().graph().edge_count(), 3);
    }

    #[test]
    fn hierarchical_builders_reject_bad_parameters() {
        assert!(fat_tree(0, 2).is_err());
        assert!(fat_tree(2, 0).is_err());
        assert!(fat_tree(30, 8).is_err(), "size cap");
        assert!(clustered_complete(0, 4).is_err());
        assert!(clustered_complete(4, 0).is_err());
        assert!(clustered_complete(1 << 12, 1 << 12).is_err(), "size cap");
    }

    #[test]
    fn random_topology_connected_and_named() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = random_topology(15, 0.2, &mut rng).unwrap();
        assert_eq!(r.len(), 15);
        assert!(r.name().starts_with("random("));
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(mesh2d(0, 3).is_err());
        assert!(torus2d(3, 0).is_err());
        assert!(chain(0).is_err());
        assert!(star(0).is_err());
        assert!(binary_tree(0).is_err());
        assert!(complete(0).is_err());
        assert!(hypercube(40).is_err());
    }
}
