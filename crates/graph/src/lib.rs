//! Graph substrate for the MIMD mapping-strategy reproduction.
//!
//! The 1991 paper ("A Mapping Strategy for MIMD Computers", Yang, Bic &
//! Nicolau) declares every structure — problem graphs, clustered problem
//! graphs, abstract graphs, ideal graphs and system graphs — as a dense
//! array (`prob_edge[np][np]`, `abs_edge[na][na]`, `sys_edge[ns][ns]`,
//! `shortest[ns][ns]`, ...). The pipeline here runs on sparse forms,
//! each built once from an edge list and never changed afterwards: the
//! machine and the cluster-level (abstract and critical abstract) graph
//! as one [`Csr`] each. The problem graph's DAG is laid out once, in
//! topological position order, by `mimd_taskgraph`'s `ProblemGraph`.
//! Dense matrices remain where the algorithm needs random access (the
//! system-side `shortest[ns][ns]`) and as exports that reproduce the
//! paper's figures ([`Csr::to_matrix`]). The crate provides:
//!
//! * [`SquareMatrix`] — the dense row-major matrix behind the distance
//!   matrix and the figure exports.
//! * [`Csr`] — symmetric weighted CSR adjacency (system graphs, abstract
//!   graph, critical abstract edges), rows ascending by neighbor id.
//! * [`apsp`] — all-pairs shortest paths (unweighted BFS and
//!   Floyd–Warshall), producing the paper's `shortest[ns][ns]` matrix.
//! * [`matching`] — deterministic greedy / heavy-edge matchings, the
//!   contraction primitive of multilevel coarsening.
//! * [`generators`] — seeded random undirected connected graphs for the
//!   "randomly produced topologies" experiments (Table 3 / Fig 27).
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! All algorithms are deterministic; stochastic constructions take an
//! explicit [`rand::Rng`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apsp;
pub mod bitset;
pub mod csr;
pub mod dot;
pub mod error;
pub mod generators;
pub mod matching;
pub mod matrix;
pub mod properties;

pub use apsp::DistanceMatrix;
pub use bitset::BitSet;
pub use csr::Csr;
pub use error::GraphError;
pub use matrix::SquareMatrix;

/// The most processors a machine may have: twice the largest machine (a
/// 64 × 64 torus) anything in this workspace maps onto. A machine holds
/// an `ns × ns` hop matrix of `u16`, so the cap bounds what one request
/// can make a server allocate (128 MiB here), and no path in an
/// admitted machine is longer than `MAX_NODES − 1` hops, which bounds
/// every schedule time (`mimd_taskgraph::problem::MAX_TOTAL_WEIGHT`).
pub const MAX_NODES: usize = 8192;

/// Node identifier. The paper indexes tasks from 1 and processors from 0;
/// internally everything is 0-based.
pub type NodeId = usize;

/// Discrete time unit used for task execution times, communication times,
/// start/end times and makespans. The paper measures everything in integer
/// "time units"; we follow suit so all schedules are exact.
pub type Time = u64;

/// Edge/communication weight, in the same time units as [`Time`].
pub type Weight = u64;
