//! System-graph topologies for the MIMD mapping reproduction.
//!
//! The paper evaluates its strategy by mapping random problem graphs onto
//! **hypercubes** (Table 1 / Fig 25), **meshes** (Table 2 / Fig 26) and
//! **randomly produced topologies** (Table 3 / Fig 27), using 4–40
//! processors. This crate builds those topologies — plus rings, chains,
//! stars, trees, tori and complete graphs for wider coverage — and wraps
//! each in a [`SystemGraph`] that caches exactly the auxiliary structures
//! the paper's algorithms consume (§3.4):
//!
//! * `sys_edge[ns][ns]` — adjacency ([`SystemGraph::graph`]),
//! * `shortest[ns][ns]` — all-pairs hop counts ([`SystemGraph::distances`]),
//! * `deg[ns]` — node degrees ([`SystemGraph::degree`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
pub mod exotic;
pub mod spec;
mod system;

pub use builders::{
    binary_tree, chain, clustered_complete, complete, fat_tree, hypercube, mesh2d, random_topology,
    ring, star, torus2d,
};
pub use exotic::{cube_connected_cycles, de_bruijn};
pub use spec::{TopologySpec, MAX_NODES};
pub use system::SystemGraph;
