//! `mimd-online` — incremental remapping for dynamic workloads.
//!
//! The paper maps a static problem graph once. Real MIMD machines and
//! their resource managers face workloads that *change*: tasks arrive
//! and finish, communication weights drift. Remapping from scratch per
//! change throws away two things the previous solve already paid for —
//! the system-side multilevel hierarchy (topology-only, cached by the
//! batch engine) and the previous assignment (almost right after a
//! small delta). This crate keeps both alive:
//!
//! * the **delta model** ([`TraceEvent`], [`DynamicWorkload`],
//!   re-exported from `mimd-taskgraph::trace`) expresses workload
//!   change as a JSONL trace;
//! * [`mapper`] — [`IncrementalMapper`] / [`OnlineSession`]: per event,
//!   migration-cost-aware group-local refinement around the touched
//!   clusters (each move is charged [`OnlineConfig::migration_penalty`]
//!   against its predicted gain), falling back to a full
//!   `mimd-multilevel` V-cycle when accumulated drift crosses
//!   [`OnlineConfig::staleness_threshold`]. A session holds its graph
//!   once, as the position-space rows of its [`DynamicWorkload`], which
//!   each event edits in place and `mimd-core`'s delta evaluator sweeps
//!   directly: one sweep from the touched positions repairs the
//!   committed total and the event's lower bound, the ideal schedule
//!   kept beside it. The whole graph is materialized only for a
//!   V-cycle (at `begin` and on a full remap). Sessions are
//!   precedence-model only. [`SessionConfig`] is the one
//!   resolution of optional overrides against [`OnlineConfig`]'s
//!   defaults;
//! * [`refine`] — the penalized objective handed to the multilevel
//!   group smoother;
//! * [`replay`] — the trace wire format ([`TraceHeader`] + events) and
//!   the [`replay_trace`] driver emitting per-event [`ReplayRecord`]
//!   JSONL (the `mimd replay` subcommand).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mapper;
pub mod refine;
pub mod replay;

pub use mapper::{IncrementalMapper, OnlineConfig, OnlineSession, SessionConfig};
pub use refine::{count_moves, migration_cost};
pub use replay::{
    read_trace, replay_trace, synthesize_trace, write_trace, ReplayRecord, ReplaySummary,
    TraceHeader,
};

// The delta model is defined next to the task-graph types it mutates;
// re-export it so `mimd_online` presents the whole online surface.
pub use mimd_taskgraph::trace::{DynamicWorkload, EventImpact, TraceEvent, WorkloadSnapshot};
