//! Problem graphs, clustering and the paper's benchmark instances.
//!
//! The paper's pipeline (Fig 1) starts from a **problem graph** — a
//! precedence DAG whose nodes are tasks (weight = execution time) and
//! whose edges are data dependencies (weight = communication time). A
//! *clustering* step groups the `np` tasks into `na = ns` clusters,
//! removing intra-cluster edge weights; collapsing multi-edges between
//! cluster pairs yields the **abstract graph**. This crate provides:
//!
//! * [`ProblemGraph`] — validated task DAGs ([`problem`]).
//! * [`generator`] — the seeded random layered-DAG generator standing in
//!   for the paper's unpublished "random problem graph generator"
//!   (np ∈ \[30, 300\], random node/edge weights, §5).
//! * [`clustering`] — the paper's random clustering plus round-robin,
//!   load-balanced and communication-greedy front-ends.
//! * [`ClusteredProblemGraph`] / [`AbstractGraph`] — the derived
//!   structures the mapping algorithms consume ([`clustered`],
//!   [`abstracted`]).
//! * [`paper`] — reconstructions of the paper's worked example
//!   (Figs 2–6 / 18–24) and the §2.2 counterexample instances
//!   (Figs 7–12, 13–17).
//! * [`workloads`] — structured DAG families from the paper's domain:
//!   Gaussian elimination, stencils, FFT butterflies, divide & conquer,
//!   pipelines — plus the synthetic churn-trace generator for dynamic
//!   workloads.
//! * [`trace`] — the dynamic-workload delta model: [`TraceEvent`]s
//!   mutating a [`DynamicWorkload`], the mutable counterpart of
//!   [`ClusteredProblemGraph`] that `mimd-online` remaps incrementally.
//! * [`rows`] — [`PositionRows`], a task DAG laid out in topological
//!   position order (the one form of a [`ProblemGraph`]), and
//!   [`ClusterRows`](rows::ClusterRows), a clustering of it: what the
//!   delta evaluator sweeps, and the one copy of a [`DynamicWorkload`]'s
//!   graph.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abstracted;
pub mod clustered;
pub mod clustering;
pub mod generator;
pub mod paper;
pub mod problem;
pub mod rows;
pub mod trace;
pub mod workloads;

pub use abstracted::AbstractGraph;
pub use clustered::ClusteredProblemGraph;
pub use clustering::Clustering;
pub use generator::{GeneratorConfig, LayeredDagGenerator};
pub use problem::ProblemGraph;
pub use rows::PositionRows;
pub use trace::{DynamicWorkload, EventImpact, TraceEvent, WorkloadSnapshot};

/// Identifier of a cluster / abstract node (`0..na`).
pub type ClusterId = usize;

/// Identifier of a task (problem node, `0..np`).
pub type TaskId = usize;
