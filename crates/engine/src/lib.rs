//! `mimd-engine` — a concurrent batch-mapping engine.
//!
//! The paper maps one problem graph onto one machine. Production
//! mapping services (supercomputer resource managers, schedulers) run
//! the same computation over *streams* of jobs, amortizing expensive
//! per-machine precomputation across requests. This crate is that
//! layer:
//!
//! * [`spec`] — the serde job model ([`JobSpec`] in, [`JobResult`] out,
//!   JSONL framing in [`io`]);
//! * [`cache`] — the interning [`TopologyCache`] sharing APSP matrices
//!   and system hierarchies across jobs on the same machine;
//! * [`registry`] — the one table of algorithms and the one dispatch,
//!   [`AlgorithmSpec::run`], to the paper pipeline (`mimd-core::Mapper`),
//!   the multilevel V-cycle, the incremental remapper's cold start and
//!   every `mimd-baselines` algorithm;
//! * [`engine`] — the worker pool with bounded queueing, deterministic
//!   per-job seeding, cancellation, and in-order streaming.
//!
//! Determinism: a batch's output is byte-identical for any worker
//! count, because each job's randomness flows only from its own seed
//! and results are emitted in input order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod io;
pub mod registry;
pub mod spec;

pub use cache::{CacheStats, TopologyArtifacts, TopologyCache};
pub use engine::{execute_job, CancelToken, Engine, EngineConfig};
pub use io::{job_lines, read_jobs, sweep_jobs, write_result};
pub use registry::{algorithm_catalog, AlgorithmOutcome};
pub use spec::{AlgorithmSpec, ClusteringSpec, JobResult, JobSpec, TopologySpec, WorkloadSpec};
