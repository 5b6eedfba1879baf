//! Reporting: the paper's tables and figures as terminal output.
//!
//! Tables 1–3 list, per experiment, the percentage of the total time
//! over the lower bound for the strategy and for averaged random
//! mappings, plus the improvement; Figs 25–27 plot the same data as
//! dashed-line histograms. [`table`] and [`histogram`] regenerate both
//! forms; [`stats`] provides the aggregates; [`records`] serializes raw
//! experiment rows to JSON for machine-readable archival (and
//! [`fnv64_hex`] digests output bytes); [`profile`]
//! renders telemetry snapshots as the `--profile` phase breakdown.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod explain;
pub mod gantt;
pub mod histogram;
pub mod profile;
pub mod records;
pub mod stats;
pub mod table;

pub use batch::BatchSummary;
pub use explain::render_explain;
pub use gantt::{Gantt, GanttTask};
pub use histogram::{BucketChart, Histogram};
pub use profile::render_profile;
pub use records::{fnv64_hex, ExperimentRecord};
pub use stats::Summary;
pub use table::Table;
