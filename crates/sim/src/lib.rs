//! Discrete-event message-passing MIMD simulator.
//!
//! The paper evaluates mappings *analytically*: communication costs
//! `weight × hops` and a task starts when all messages have arrived
//! (§4.3.4). The authors validated on a SUN-4 what we validate with this
//! simulator substrate: an event-driven machine model whose default
//! configuration (store-and-forward routing, unlimited link bandwidth,
//! non-exclusive processors) provably reproduces the analytic schedule
//! event for event — and which can then be made *more* realistic than
//! the 1991 model for the ablations:
//!
//! * [`SimConfig::serialize_processors`] — processors execute one task
//!   at a time (matches
//!   [`EvaluationModel::Serialized`](mimd_core::schedule::EvaluationModel::Serialized)).
//! * [`SimConfig::link_contention`] — each directed channel carries one
//!   message at a time; messages queue per hop (store-and-forward).
//!
//! Modules: [`routing`] (deterministic shortest-path next-hop tables),
//! [`engine`] (the event queue and machine state), [`report`]
//! (per-run statistics), [`explain`] (the exact quality-attribution
//! [`ExplainReport`] behind `mimd explain`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod explain;
pub mod report;
pub mod routing;

pub use engine::{simulate, simulate_heterogeneous, SimConfig};
pub use explain::{CriticalStep, ExplainReport, HopBin, LinkTraffic};
pub use report::SimReport;
pub use routing::RoutingTable;
