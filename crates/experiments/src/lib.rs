//! Experiment harness regenerating every table and figure of the paper.
//!
//! Binaries (README.md, "Experiments", shows how to run them):
//!
//! | target | artifact |
//! |---|---|
//! | `table1_hypercube` | Table 1 + Fig 25 |
//! | `table2_mesh` | Table 2 + Fig 26 |
//! | `table3_random` | Table 3 + Fig 27 |
//! | `fig_bokhari_case` | Figs 7–12 (§2.2 cardinality case) |
//! | `fig_lee_case` | Figs 13–17 (§2.2 comm-cost case) |
//! | `fig24_walkthrough` | Figs 2–6 / 18–24 worked example |
//! | `ablation_refinement` | A1: refinement strategies |
//! | `ablation_criticality` | A2: criticality propagation |
//! | `ablation_sim_model` | A3: analytic vs DES models |
//! | `ablation_clustering` | A4: clustering front-ends |
//! | `ablation_initial` | A5: initial assignment vs refinement |
//!
//! All binaries accept `--seed <u64>` (default 1991), `--reps <n>`
//! (random-mapping repetitions, default 32) and `--json <path>` (write
//! JSON-lines records); the table binaries also take `--clustering`,
//! any `ClusteringSpec` name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;

pub use cli::CliArgs;
pub use harness::{run_series, RowSpec, SeriesConfig, SeriesResult};
