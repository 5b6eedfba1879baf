//! Baseline mappers the paper compares against (or mentions).
//!
//! * [`random_map`] — random mapping, the paper's §5 baseline.
//! * [`bokhari`] — Bokhari's cardinality measure and a
//!   pairwise-exchange-with-jumps optimizer \[1\] (§2.2, Figs 7–12).
//! * [`lee`] — Lee & Aggarwal's phased communication cost \[2\]
//!   (§2.2, Figs 13–17).
//! * [`pairwise`] — pairwise-exchange hill climbing on *total time*, the
//!   refinement alternative the paper says its random re-placement beats
//!   (§4.3.3).
//! * [`annealing`] — simulated annealing on total time, slow schedule and
//!   quenching (refs \[3\], \[14\]).
//! * [`exhaustive`] — exact optimum by enumeration for small `ns`
//!   (ground truth for tests and the §2.2 case studies).
//! * [`embedding`] — classic dilation-1 chain embeddings (Gray code on
//!   hypercubes, snake on meshes) as structural baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod bokhari;
pub mod embedding;
pub mod exhaustive;
pub mod lee;
pub mod pairwise;
pub mod random_map;

pub use annealing::{simulated_annealing, AnnealingSchedule};
pub use bokhari::{bokhari_mapping, cardinality};
pub use embedding::{embed_chain, gray_code, snake_order, ChainOrder};
pub use exhaustive::{exhaustive_optimum, for_each_assignment};
pub use lee::{lee_cost, lee_mapping, phases_by_level};
pub use pairwise::pairwise_exchange;
pub use random_map::{best_of_random, random_baseline};
