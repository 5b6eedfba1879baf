//! `mimd-service` — the unified `MappingService` front door.
//!
//! The workspace grew three divergent entry points to the paper's
//! pipeline: `Engine::run` over [`JobSpec`](mimd_engine::JobSpec)
//! batches, `MultilevelMapper::map_with_hierarchy`, and
//! `IncrementalMapper::begin` / `OnlineSession::apply`. This crate puts
//! one typed request/response protocol in front of all of them — the
//! shape process-mapping libraries (VieM) and resource-manager mapping
//! components expose: one front door, many strategies behind it.
//!
//! * [`protocol`] — serde [`Request`] (`MapOnce`, `OpenSession`,
//!   `Apply`, `CloseSession`, `Catalog`, `Stats`) and [`Response`]
//!   (results + records + cache counters, or a structured
//!   [`ServiceError`] with an [`ErrorCode`]);
//! * [`service`] — [`MappingService`]: sessions multiplexed in one
//!   process, ids allocated deterministically, topology artifacts
//!   (`SystemHierarchy`, APSP) shared through one
//!   `TopologyCache` across one-shot *and* session traffic;
//! * [`serve`] — the one request path behind `mimd serve`:
//!   [`serve_lines`] frames and decodes a connection, [`handle_timed`]
//!   handles one decoded request, and [`serve_jsonl`] composes them
//!   for stdin (one request per line in, one response per line out);
//!   plus [`trace_requests`], the trace → request-stream converter
//!   used to prove served traces byte-identical to `mimd replay`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;
pub mod serve;
pub mod service;

pub use protocol::{
    CatalogEntry, ErrorCode, ErrorCounters, Request, Response, ServerGauges, ServiceError,
    ServiceStats, SessionConfig,
};
pub use serve::{
    handle_timed, serve_jsonl, serve_lines, stats_line, trace_requests, ConnectionSummary,
    MAX_LINE_BYTES,
};
pub use service::{MappingService, ServerGaugeSource, ServiceConfig};
