//! The paper's mapping strategy (Yang, Bic & Nicolau, ICPP 1991).
//!
//! Pipeline (the paper's Fig 1), given a clustered problem graph and a
//! system graph with `na = ns`:
//!
//! 1. **Ideal graph** ([`ideal`]) — schedule the clustered problem graph
//!    on the system graph *closure* (fully connected). Its makespan is a
//!    **lower bound** on every real assignment (Theorem 3).
//! 2. **Critical edges** ([`critical`]) — zero-slack edges on paths to
//!    the latest tasks (Theorems 1–2), aggregated per cluster pair into
//!    the critical abstract edge matrix and per-cluster critical degrees.
//! 3. **Initial assignment** ([`initial`]) — greedy constructive
//!    placement seeded by the most critical cluster on the best-connected
//!    processor, growing along critical abstract edges, finishing by
//!    communication intensity (§4.3.2).
//! 4. **Refinement** ([`mod@refine`]) — keep critical clusters pinned,
//!    randomly re-place the rest `ns` times, keep improvements, and stop
//!    the moment the total equals the lower bound (§4.3.3).
//! 5. **Evaluation** ([`evaluate`]) — total execution time under an
//!    assignment: `comm = clus_edge × hops` then a precedence schedule
//!    (§4.3.4), the same sweep of the [`delta`] kernel as the ideal
//!    graph. [`EvaluationModel`] also selects a processor-serialized
//!    variant for the model ablation.
//!
//! [`Mapper`] bundles the whole pipeline behind one call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod critical;
pub mod delta;
pub mod evaluate;
pub mod gain;
pub mod ideal;
pub mod initial;
pub mod mapper;
pub mod parallel;
pub mod refine;
pub mod schedule;
pub mod shuffle;
pub mod validate;

pub use assignment::Assignment;
pub use critical::{CriticalAnalysis, CriticalityMode};
pub use delta::{DeltaEvaluator, DeltaWorkspace};
pub use evaluate::{evaluate_assignment, evaluate_total, Evaluation};
pub use gain::GainTable;
pub use ideal::IdealSchedule;
pub use initial::initial_assignment;
pub use mapper::{Mapper, MapperConfig, MappingResult};
pub use refine::{refine, refine_with, RefineConfig, RefineOutcome};
pub use schedule::{EvaluationModel, Schedule};
pub use shuffle::fisher_yates;
pub use validate::{validate_schedule, Violation};
