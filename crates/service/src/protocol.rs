//! The service wire protocol: one serde [`Request`] per JSONL line in,
//! one serde [`Response`] per line out.
//!
//! The protocol is the union of the workspace's existing wire formats —
//! a [`MapOnce`](Request::MapOnce) carries the batch engine's
//! [`JobSpec`] and answers with its [`JobResult`]; a session opened
//! from a trace [`TraceHeader`] answers every
//! [`Apply`](Request::Apply)d [`TraceEvent`] with the replay driver's
//! [`ReplayRecord`] — so existing batch files and traces convert
//! line-for-line. Failures come back as a structured [`ServiceError`]
//! with a machine-readable [`ErrorCode`], never as a dropped line: every
//! request produces exactly one response.

use serde::{Deserialize, Serialize};

use mimd_engine::{CacheStats, JobResult, JobSpec};
/// Per-session overrides of the online defaults — the same knobs
/// `mimd replay` exposes as flags, resolved the same way.
pub use mimd_online::SessionConfig;
use mimd_online::{ReplayRecord, TraceEvent, TraceHeader};
use mimd_telemetry::{JournalStats, TelemetrySnapshot};

/// One request line of the service protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// Map one instance, batch-engine style: the job's topology
    /// artifacts come from the same shared cache session traffic uses.
    MapOnce {
        /// The engine job to run.
        job: JobSpec,
    },
    /// Open an incremental remapping session from a trace header
    /// (topology + initial workload snapshot). The service allocates
    /// session ids deterministically: 1, 2, 3, … in open order.
    OpenSession {
        /// Target machine and initial workload (a trace file's first
        /// line, verbatim).
        header: TraceHeader,
        /// Session seed. A session opened with the same header, seed
        /// and config as a `mimd replay` run emits byte-identical
        /// records for the same events.
        seed: u64,
        /// Optional overrides of the online defaults.
        config: Option<SessionConfig>,
    },
    /// Apply one trace event to an open session.
    Apply {
        /// The session id returned by `OpenSession`.
        session: u64,
        /// The delta to apply.
        event: TraceEvent,
    },
    /// Close a session, freeing its state.
    CloseSession {
        /// The session id to close.
        session: u64,
    },
    /// List every registry algorithm with its description.
    Catalog,
    /// Report service statistics (shared topology cache counters,
    /// session counts).
    Stats,
}

impl Request {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("Request serializes")
    }

    /// Parse from one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The wire-format op name (the serde `op` tag) — used for
    /// slow-request diagnostics without re-serializing the request.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::MapOnce { .. } => "map_once",
            Request::OpenSession { .. } => "open_session",
            Request::Apply { .. } => "apply",
            Request::CloseSession { .. } => "close_session",
            Request::Catalog => "catalog",
            Request::Stats => "stats",
        }
    }

    /// The session id the request targets, if the op names one.
    pub fn session_id(&self) -> Option<u64> {
        match self {
            Request::Apply { session, .. } | Request::CloseSession { session } => Some(*session),
            _ => None,
        }
    }
}

/// One response line of the service protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Response {
    /// Answer to [`Request::MapOnce`]: the engine's result line
    /// (assignment, bounds, quality metrics) verbatim.
    MapResult {
        /// The job result.
        result: JobResult,
    },
    /// Answer to [`Request::OpenSession`]: the initial full mapping.
    SessionOpened {
        /// The allocated session id (deterministic: 1, 2, 3, …).
        session: u64,
        /// The index-0 record of the initial mapping — byte-identical
        /// to the first line `mimd replay` would emit.
        record: ReplayRecord,
        /// The current cluster → processor assignment.
        assignment: Vec<usize>,
    },
    /// Answer to [`Request::Apply`]: how the event was served. Invalid
    /// events come back here too, as `record.action = "error"` with the
    /// session state unchanged — exactly like replay.
    Applied {
        /// The session id.
        session: u64,
        /// The per-event record — byte-identical to the corresponding
        /// `mimd replay` line.
        record: ReplayRecord,
        /// The current cluster → processor assignment.
        assignment: Vec<usize>,
    },
    /// Answer to [`Request::CloseSession`].
    SessionClosed {
        /// The closed session id.
        session: u64,
        /// Events the session served (excluding the initial mapping).
        events: usize,
    },
    /// Answer to [`Request::Catalog`].
    Catalog {
        /// Every registry algorithm.
        algorithms: Vec<CatalogEntry>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Current service statistics.
        stats: ServiceStats,
    },
    /// Any failed request (including unparseable lines).
    Error {
        /// What went wrong.
        error: ServiceError,
    },
}

impl Response {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("Response serializes")
    }

    /// Parse from one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The per-event record carried by session responses, if any —
    /// extracting these from a served trace reproduces the `mimd
    /// replay` output stream.
    pub fn record(&self) -> Option<&ReplayRecord> {
        match self {
            Response::SessionOpened { record, .. } | Response::Applied { record, .. } => {
                Some(record)
            }
            _ => None,
        }
    }

    /// `true` for error responses.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// One algorithm of the registry catalog.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Stable machine-readable name (accepted by `AlgorithmSpec::parse`).
    pub name: String,
    /// One-line description.
    pub description: String,
}

/// Service-wide statistics.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Shared topology-cache counters — one cache across one-shot and
    /// session traffic, so mixed workloads show hierarchy hits here.
    pub cache: CacheStats,
    /// Sessions currently open.
    pub open_sessions: usize,
    /// Sessions opened over the service lifetime.
    pub sessions_opened: usize,
    /// `MapOnce` requests served.
    pub map_once_served: usize,
    /// Session events applied (excluding initial mappings).
    pub events_applied: usize,
    /// Requests handled over the service lifetime (every [`Request`]
    /// dispatched through `handle`, plus malformed serve lines).
    pub requests_served: usize,
    /// Error responses tallied per [`ErrorCode`].
    pub errors: ErrorCounters,
    /// Telemetry counters and latency histograms — empty unless the
    /// service was built with telemetry enabled.
    pub telemetry: TelemetrySnapshot,
    /// Event-journal gauges (resident events, dropped-event count, ring
    /// capacity) — all zero unless the service was built with the
    /// journal enabled.
    #[serde(default)]
    pub journal: JournalStats,
    /// Concurrent-server gauges (active connections, queued requests,
    /// inflight requests) — all zero unless a `mimd-server` front end
    /// is driving the service.
    #[serde(default)]
    pub server: ServerGauges,
}

/// Point-in-time gauges a concurrent server front end maintains on the
/// service (see `mimd-server`): how many transport connections are
/// open, how many admitted requests are waiting in shard queues, and
/// how many are being handled right now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerGauges {
    /// Transport connections currently open.
    pub active_connections: usize,
    /// Requests admitted to shard queues and not yet picked up.
    pub queue_depth: usize,
    /// Requests a shard worker is handling right now.
    pub inflight: usize,
}

/// Error responses tallied per [`ErrorCode`] category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorCounters {
    /// [`ErrorCode::BadRequest`] responses (including malformed lines).
    pub bad_request: usize,
    /// [`ErrorCode::InvalidJob`] responses.
    pub invalid_job: usize,
    /// [`ErrorCode::Topology`] responses.
    pub topology: usize,
    /// [`ErrorCode::Workload`] responses.
    pub workload: usize,
    /// [`ErrorCode::UnknownSession`] responses.
    pub unknown_session: usize,
    /// [`ErrorCode::SessionLimit`] responses.
    pub session_limit: usize,
    /// [`ErrorCode::Overloaded`] responses (admission-control
    /// rejections; defaults so stats written before the concurrent
    /// server existed still deserialize).
    #[serde(default)]
    pub overloaded: usize,
    /// [`ErrorCode::TooLarge`] responses (request lines over the read
    /// cap; defaults so older stats still deserialize).
    #[serde(default)]
    pub too_large: usize,
}

impl ErrorCounters {
    /// Total error responses across all categories.
    pub fn total(&self) -> usize {
        self.bad_request
            + self.invalid_job
            + self.topology
            + self.workload
            + self.unknown_session
            + self.session_limit
            + self.overloaded
            + self.too_large
    }

    /// The tally for one error code.
    pub fn of(&self, code: ErrorCode) -> usize {
        match code {
            ErrorCode::BadRequest => self.bad_request,
            ErrorCode::InvalidJob => self.invalid_job,
            ErrorCode::Topology => self.topology,
            ErrorCode::Workload => self.workload,
            ErrorCode::UnknownSession => self.unknown_session,
            ErrorCode::SessionLimit => self.session_limit,
            ErrorCode::Overloaded => self.overloaded,
            ErrorCode::TooLarge => self.too_large,
        }
    }
}

/// Machine-readable failure category.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorCode {
    /// The request line did not parse as a [`Request`].
    BadRequest,
    /// A `MapOnce` job failed (bad workload, np < ns, …).
    InvalidJob,
    /// The topology spec could not be built.
    Topology,
    /// The workload snapshot was invalid or mismatched the machine.
    Workload,
    /// The session id is not open.
    UnknownSession,
    /// The per-service session cap would be exceeded.
    SessionLimit,
    /// The concurrent server refused admission: the target shard's
    /// bounded queue was full, or the server was draining for shutdown.
    /// Back off and retry; the request was never handled.
    Overloaded,
    /// The request line was longer than
    /// [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES); it was read past and
    /// dropped, unparsed, and the connection keeps serving.
    TooLarge,
}

/// A structured failure: every failed request maps to exactly one of
/// these, never to a dropped or half-written line.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
        }
    }

    /// Wrap into the response envelope.
    pub fn into_response(self) -> Response {
        Response::Error { error: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_engine::{AlgorithmSpec, TopologySpec, WorkloadSpec};
    use mimd_online::{DynamicWorkload, OnlineConfig};
    use mimd_taskgraph::{ClusteredProblemGraph, Clustering, ProblemGraph};

    fn sample_header() -> TraceHeader {
        let p = ProblemGraph::from_paper_edges(&[2, 3, 1, 4], &[(1, 2, 5), (3, 4, 7)]).unwrap();
        let c = Clustering::new(vec![0, 1, 2, 3]).unwrap();
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        TraceHeader {
            topology: TopologySpec::Ring { n: 4 },
            topology_seed: None,
            snapshot: DynamicWorkload::from_clustered(&g).snapshot(),
        }
    }

    #[test]
    fn requests_roundtrip_through_serde_json() {
        let requests = vec![
            Request::MapOnce {
                job: JobSpec {
                    id: None,
                    workload: WorkloadSpec::Fft { log2n: 3 },
                    clustering: None,
                    topology: TopologySpec::Ring { n: 4 },
                    topology_seed: None,
                    algorithm: AlgorithmSpec::Random { k: 4 },
                    seed: 7,
                },
            },
            Request::OpenSession {
                header: sample_header(),
                seed: 11,
                config: Some(SessionConfig {
                    migration_penalty: Some(3),
                    ..SessionConfig::default()
                }),
            },
            Request::Apply {
                session: 1,
                event: TraceEvent::SetTaskSize { task: 0, size: 9 },
            },
            Request::CloseSession { session: 1 },
            Request::Catalog,
            Request::Stats,
        ];
        for request in requests {
            let line = request.to_json_line();
            assert!(!line.contains('\n'));
            assert!(line.contains("\"op\""), "{line}");
            assert_eq!(Request::from_json_line(&line).unwrap(), request);
        }
    }

    #[test]
    fn error_responses_roundtrip_with_snake_case_codes() {
        let response = ServiceError::new(ErrorCode::UnknownSession, "session 9").into_response();
        let line = response.to_json_line();
        assert!(line.contains("unknown_session"), "{line}");
        assert_eq!(Response::from_json_line(&line).unwrap(), response);
        assert!(response.is_error());
        assert!(response.record().is_none());
    }

    #[test]
    fn session_config_resolves_against_online_defaults() {
        let defaults = OnlineConfig::default();
        assert_eq!(SessionConfig::default().resolve(), defaults);
        let custom = SessionConfig {
            migration_penalty: Some(9),
            staleness_threshold: Some(0.5),
            local_rounds: None,
            region_size: Some(16),
        };
        let resolved = custom.resolve();
        assert_eq!(resolved.migration_penalty, 9);
        assert_eq!(resolved.staleness_threshold, 0.5);
        assert_eq!(resolved.local_rounds, defaults.local_rounds);
        assert_eq!(resolved.region_size, 16);
    }
}
