//! Serializable topology descriptions, so experiment configurations can
//! be written down (and re-run) as data. Each [`TopologySpec`] builds the
//! corresponding [`SystemGraph`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;

use crate::builders;
use crate::system::SystemGraph;

/// The most processors [`TopologySpec::build`] will build.
pub use mimd_graph::MAX_NODES;

/// A declarative description of a system topology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TopologySpec {
    /// Binary hypercube of the given dimension (`2^dim` processors).
    Hypercube {
        /// Dimension `d`; the system has `2^d` nodes.
        dim: u32,
    },
    /// 2-D mesh.
    Mesh {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// 2-D torus.
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Cycle of `n` processors.
    Ring {
        /// Node count (≥ 3).
        n: usize,
    },
    /// Path of `n` processors.
    Chain {
        /// Node count (≥ 1).
        n: usize,
    },
    /// Hub-and-spokes on `n` processors.
    Star {
        /// Node count (≥ 1).
        n: usize,
    },
    /// Complete binary tree on `n` processors.
    BinaryTree {
        /// Node count (≥ 1).
        n: usize,
    },
    /// Fully connected system (the closure itself).
    Complete {
        /// Node count (≥ 1).
        n: usize,
    },
    /// Fat-tree-style hierarchical topology: complete `arity`-ary tree
    /// of `levels` levels with sibling cliques.
    FatTree {
        /// Number of tree levels (≥ 1).
        levels: u32,
        /// Children per internal node (≥ 1).
        arity: usize,
    },
    /// PERCS-style two-level topology: `groups` cliques of `group_size`
    /// processors, every pair of groups joined by one direct link.
    ClusteredComplete {
        /// Number of groups (≥ 1).
        groups: usize,
        /// Processors per group (≥ 1).
        group_size: usize,
    },
    /// Random connected graph: spanning tree + extra edges w.p. `p`.
    Random {
        /// Node count (≥ 1).
        n: usize,
        /// Probability of each additional edge beyond the spanning tree.
        p: f64,
    },
}

impl TopologySpec {
    /// Number of processors this spec will produce, saturating at
    /// `usize::MAX` for specs too large to build.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Hypercube { dim } => 1usize.checked_shl(dim).unwrap_or(usize::MAX),
            TopologySpec::Mesh { rows, cols } | TopologySpec::Torus { rows, cols } => {
                rows.saturating_mul(cols)
            }
            TopologySpec::Ring { n }
            | TopologySpec::Chain { n }
            | TopologySpec::Star { n }
            | TopologySpec::BinaryTree { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Random { n, .. } => n,
            TopologySpec::FatTree { levels, arity } => {
                // 1 + arity + ... + arity^(levels-1), saturating.
                let mut n = 0usize;
                let mut layer = 1usize;
                for _ in 0..levels {
                    n = n.saturating_add(layer);
                    layer = layer.saturating_mul(arity);
                }
                n
            }
            TopologySpec::ClusteredComplete { groups, group_size } => {
                groups.saturating_mul(group_size)
            }
        }
    }

    /// `true` iff building this spec consumes the RNG (and therefore
    /// different seeds yield different machines). Kept next to
    /// [`TopologySpec::build`] so a new stochastic variant updates both
    /// or fails review in one place; topology caches key on this.
    pub fn is_stochastic(&self) -> bool {
        matches!(*self, TopologySpec::Random { .. })
    }

    /// Build the topology. Only [`TopologySpec::Random`] consumes the RNG;
    /// the deterministic shapes ignore it. A spec of more than
    /// [`MAX_NODES`] processors is refused before anything is allocated.
    pub fn build(&self, rng: &mut impl Rng) -> Result<SystemGraph, GraphError> {
        if self.node_count() > MAX_NODES {
            return Err(GraphError::InvalidParameter(format!(
                "{self} has more than {MAX_NODES} processors"
            )));
        }
        match *self {
            TopologySpec::Hypercube { dim } => builders::hypercube(dim),
            TopologySpec::Mesh { rows, cols } => builders::mesh2d(rows, cols),
            TopologySpec::Torus { rows, cols } => builders::torus2d(rows, cols),
            TopologySpec::Ring { n } => builders::ring(n),
            TopologySpec::Chain { n } => builders::chain(n),
            TopologySpec::Star { n } => builders::star(n),
            TopologySpec::BinaryTree { n } => builders::binary_tree(n),
            TopologySpec::Complete { n } => builders::complete(n),
            TopologySpec::FatTree { levels, arity } => builders::fat_tree(levels, arity),
            TopologySpec::ClusteredComplete { groups, group_size } => {
                builders::clustered_complete(groups, group_size)
            }
            TopologySpec::Random { n, p } => builders::random_topology(n, p, rng),
        }
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopologySpec::Hypercube { dim } => write!(f, "hypercube(d={dim})"),
            TopologySpec::Mesh { rows, cols } => write!(f, "mesh({rows}x{cols})"),
            TopologySpec::Torus { rows, cols } => write!(f, "torus({rows}x{cols})"),
            TopologySpec::Ring { n } => write!(f, "ring({n})"),
            TopologySpec::Chain { n } => write!(f, "chain({n})"),
            TopologySpec::Star { n } => write!(f, "star({n})"),
            TopologySpec::BinaryTree { n } => write!(f, "btree({n})"),
            TopologySpec::Complete { n } => write!(f, "complete({n})"),
            TopologySpec::FatTree { levels, arity } => write!(f, "fattree(l={levels},a={arity})"),
            TopologySpec::ClusteredComplete { groups, group_size } => {
                write!(f, "clusters({groups}x{group_size})")
            }
            TopologySpec::Random { n, p } => write!(f, "random({n},p={p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn node_counts_match_builds() {
        let mut rng = StdRng::seed_from_u64(1);
        let specs = [
            TopologySpec::Hypercube { dim: 3 },
            TopologySpec::Mesh { rows: 2, cols: 5 },
            TopologySpec::Torus { rows: 3, cols: 3 },
            TopologySpec::Ring { n: 6 },
            TopologySpec::Chain { n: 4 },
            TopologySpec::Star { n: 7 },
            TopologySpec::BinaryTree { n: 9 },
            TopologySpec::Complete { n: 5 },
            TopologySpec::FatTree {
                levels: 3,
                arity: 3,
            },
            TopologySpec::ClusteredComplete {
                groups: 3,
                group_size: 4,
            },
            TopologySpec::Random { n: 11, p: 0.25 },
        ];
        for spec in specs {
            let built = spec.build(&mut rng).unwrap();
            assert_eq!(built.len(), spec.node_count(), "{spec}");
        }
    }

    #[test]
    fn oversized_specs_are_refused_before_they_are_built() {
        let mut rng = StdRng::seed_from_u64(1);
        for spec in [
            TopologySpec::Mesh {
                rows: 100_000,
                cols: 100_000,
            },
            TopologySpec::Torus {
                rows: usize::MAX,
                cols: 3,
            },
            TopologySpec::Hypercube { dim: 64 },
            TopologySpec::Hypercube { dim: 14 },
            TopologySpec::Ring { n: usize::MAX },
            TopologySpec::Random { n: 1 << 20, p: 0.5 },
            TopologySpec::FatTree {
                levels: 40,
                arity: 40,
            },
        ] {
            let err = spec.build(&mut rng).unwrap_err().to_string();
            assert!(err.contains("8192"), "{spec}: {err}");
        }
        assert_eq!(TopologySpec::Hypercube { dim: 64 }.node_count(), usize::MAX);
        assert_eq!(TopologySpec::Hypercube { dim: 13 }.node_count(), MAX_NODES);
        let largest = TopologySpec::Ring { n: MAX_NODES };
        assert_eq!(largest.node_count(), MAX_NODES);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(
            TopologySpec::Hypercube { dim: 4 }.to_string(),
            "hypercube(d=4)"
        );
        assert_eq!(
            TopologySpec::Mesh { rows: 4, cols: 10 }.to_string(),
            "mesh(4x10)"
        );
        assert_eq!(
            TopologySpec::FatTree {
                levels: 3,
                arity: 4
            }
            .to_string(),
            "fattree(l=3,a=4)"
        );
        assert_eq!(
            TopologySpec::ClusteredComplete {
                groups: 8,
                group_size: 32
            }
            .to_string(),
            "clusters(8x32)"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let spec = TopologySpec::Random { n: 12, p: 0.3 };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("random"));
        let back: TopologySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
