//! [`MappingService`]: the single front door over the engine, the
//! multilevel V-cycle and the online remapper.
//!
//! One service instance owns one [`Engine`] (and therefore one
//! [`TopologyCache`]) plus a table of live [`OnlineSession`]s. Every
//! request kind — one-shot [`Request::MapOnce`] jobs, whole batches via
//! [`MappingService::run_stream`], and session traffic — resolves its
//! topology artifacts (the `SystemGraph` with its APSP matrix, the
//! system-side `SystemHierarchy`) through that one cache, so a
//! multilevel `MapOnce` arriving while a session is open on the same
//! machine pays zero setup, and vice versa.
//!
//! Determinism: session ids are allocated 1, 2, 3, … in open order, and
//! all per-session randomness flows from the `OpenSession` seed — a
//! served trace is byte-identical to `mimd replay` on the same header,
//! events, seed and config.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mimd_engine::engine::execute_job;
use mimd_engine::{
    algorithm_catalog, CacheStats, CancelToken, Engine, EngineConfig, JobResult, JobSpec,
    TopologyCache,
};
use mimd_online::{
    replay_trace, DynamicWorkload, IncrementalMapper, OnlineConfig, OnlineSession, ReplayRecord,
    ReplaySummary, TraceEvent, TraceHeader,
};
use mimd_telemetry::{Journal, JournalSnapshot, Recorder, DEFAULT_JOURNAL_CAPACITY};

use crate::protocol::{
    CatalogEntry, ErrorCode, Request, Response, ServiceError, ServiceStats, SessionConfig,
};

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The embedded batch engine's configuration (worker threads, queue
    /// bound) — used by [`MappingService::run_stream`] /
    /// [`MappingService::run_batch`].
    pub engine: EngineConfig,
    /// Maximum concurrently open sessions; `OpenSession` beyond this
    /// answers [`ErrorCode::SessionLimit`].
    pub max_sessions: usize,
    /// Enable the telemetry recorder: per-op latency histograms, engine
    /// job/queue timings and `vcycle.*`/`online.*` phase spans, all
    /// surfaced through [`ServiceStats::telemetry`]. Off by default —
    /// the disabled recorder is a no-op and reads no clocks.
    pub telemetry: bool,
    /// Enable the structured event journal: every op span, engine job
    /// span and counter lands in a bounded ring of typed events, with
    /// per-request/per-session context, exportable as JSONL or a Chrome
    /// trace via [`MappingService::journal_snapshot`]. Off by default —
    /// the disabled journal is a strict no-op.
    pub journal: bool,
    /// Journal ring capacity when enabled; events beyond this evict the
    /// oldest and show up in [`ServiceStats::journal`] as `dropped`.
    pub journal_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            max_sessions: 64,
            telemetry: false,
            journal: false,
            journal_capacity: DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

/// A live session plus its bookkeeping.
struct SessionEntry {
    session: OnlineSession,
    events: usize,
    /// Tombstone set by `close_session`: an `Apply` that cloned the
    /// entry out of the table but lost the entry-lock race to a close
    /// must not serve the event after the final count was reported.
    closed: bool,
}

/// Lock-free per-[`ErrorCode`] tallies (one atomic per category).
#[derive(Default)]
struct ErrorTallies([AtomicUsize; 8]);

impl ErrorTallies {
    fn slot(code: ErrorCode) -> usize {
        match code {
            ErrorCode::BadRequest => 0,
            ErrorCode::InvalidJob => 1,
            ErrorCode::Topology => 2,
            ErrorCode::Workload => 3,
            ErrorCode::UnknownSession => 4,
            ErrorCode::SessionLimit => 5,
            ErrorCode::Overloaded => 6,
            ErrorCode::TooLarge => 7,
        }
    }

    fn bump(&self, code: ErrorCode) {
        self.0[ErrorTallies::slot(code)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> crate::protocol::ErrorCounters {
        let of = |code| self.0[ErrorTallies::slot(code)].load(Ordering::Relaxed);
        crate::protocol::ErrorCounters {
            bad_request: of(ErrorCode::BadRequest),
            invalid_job: of(ErrorCode::InvalidJob),
            topology: of(ErrorCode::Topology),
            workload: of(ErrorCode::Workload),
            unknown_session: of(ErrorCode::UnknownSession),
            session_limit: of(ErrorCode::SessionLimit),
            overloaded: of(ErrorCode::Overloaded),
            too_large: of(ErrorCode::TooLarge),
        }
    }
}

/// The live atomics behind [`crate::protocol::ServerGauges`]: a
/// concurrent server front end (`mimd-server`) updates them as
/// connections open, requests queue and shard workers run, and
/// [`MappingService::stats`] snapshots them — so `stats` responses and
/// the periodic [`crate::stats_line`] reflect the server without the
/// service depending on it.
#[derive(Debug, Default)]
pub struct ServerGaugeSource {
    active_connections: AtomicUsize,
    queue_depth: AtomicUsize,
    inflight: AtomicUsize,
}

impl ServerGaugeSource {
    /// A transport connection was accepted.
    pub fn connection_opened(&self) {
        self.active_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A transport connection ended.
    pub fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request was admitted to a shard queue.
    pub fn enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A shard worker picked a queued request up and is handling it.
    pub fn dequeued_inflight(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// The handled request's response was written.
    pub fn inflight_done(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot for [`crate::protocol::ServiceStats`].
    pub fn snapshot(&self) -> crate::protocol::ServerGauges {
        crate::protocol::ServerGauges {
            active_connections: self.active_connections.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }
}

/// The unified mapping service (see module docs).
pub struct MappingService {
    config: ServiceConfig,
    engine: Engine,
    recorder: Recorder,
    /// Live sessions behind per-session locks: the table lock is held
    /// only for lookup/insert/remove, never across a remap.
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionEntry>>>>,
    next_session: AtomicU64,
    sessions_opened: AtomicUsize,
    map_once_served: AtomicUsize,
    events_applied: AtomicUsize,
    requests_served: AtomicUsize,
    errors: ErrorTallies,
    server_gauges: Arc<ServerGaugeSource>,
}

impl Default for MappingService {
    fn default() -> Self {
        MappingService::new(ServiceConfig::default())
    }
}

impl MappingService {
    /// Service with a fresh topology cache.
    pub fn new(config: ServiceConfig) -> Self {
        let cache = Arc::new(TopologyCache::new());
        MappingService::with_cache(config, cache)
    }

    /// Service sharing an existing topology cache (e.g. with another
    /// service or a co-resident engine).
    pub fn with_cache(config: ServiceConfig, cache: Arc<TopologyCache>) -> Self {
        let mut recorder = Recorder::new(config.telemetry);
        if config.journal {
            recorder = recorder.with_journal(Journal::with_capacity(config.journal_capacity));
        }
        MappingService {
            engine: Engine::with_telemetry(config.engine.clone(), cache, recorder.clone()),
            recorder,
            config,
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            sessions_opened: AtomicUsize::new(0),
            map_once_served: AtomicUsize::new(0),
            events_applied: AtomicUsize::new(0),
            requests_served: AtomicUsize::new(0),
            errors: ErrorTallies::default(),
            server_gauges: Arc::new(ServerGaugeSource::default()),
        }
    }

    /// The service's telemetry recorder — shared with the embedded
    /// engine and every session; disabled (no-op) unless
    /// [`ServiceConfig::telemetry`] is set.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The service's event journal — disabled (a strict no-op) unless
    /// [`ServiceConfig::journal`] is set.
    pub fn journal(&self) -> &Journal {
        self.recorder.journal()
    }

    /// Freeze the journal ring for export (`--trace-out` JSONL,
    /// `--chrome-trace` viewer files). Empty when the journal is off.
    pub fn journal_snapshot(&self) -> JournalSnapshot {
        self.recorder.journal().snapshot()
    }

    /// The shared topology cache.
    pub fn cache(&self) -> &TopologyCache {
        self.engine.cache()
    }

    /// Shared-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The embedded engine's cancellation handle (affects batch/stream
    /// traffic only; session requests are always served).
    pub fn cancel_token(&self) -> CancelToken {
        self.engine.cancel_token()
    }

    /// Current service statistics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache_stats(),
            open_sessions: self.sessions.lock().len(),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            map_once_served: self.map_once_served.load(Ordering::Relaxed),
            events_applied: self.events_applied.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            errors: self.errors.snapshot(),
            telemetry: self.recorder.snapshot(),
            journal: self.recorder.journal().stats(),
            server: self.server_gauges.snapshot(),
        }
    }

    /// The live server-gauge atomics a concurrent front end updates;
    /// [`MappingService::stats`] snapshots them into
    /// [`ServiceStats::server`].
    pub fn server_gauges(&self) -> Arc<ServerGaugeSource> {
        Arc::clone(&self.server_gauges)
    }

    /// Serve one request. Never panics on bad input: every failure maps
    /// to a structured [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        self.handle_reserved(request, None)
    }

    /// Pre-allocate the session id the *next* `OpenSession` handled
    /// with it will get (see [`MappingService::handle_reserved`]).
    ///
    /// A concurrent front end reserves the id at intake — the moment it
    /// reads an `OpenSession` line off a connection — so (a) the shard
    /// the session hashes to is known before the open is handled and
    /// every later request for that session queues FIFO behind it, and
    /// (b) ids stay deterministic in *intake* order (1, 2, 3, …) even
    /// though shards handle opens concurrently. A reserved id is burned
    /// if its open later fails — deterministic from the request stream,
    /// exactly like a failed open consuming no id is on the serial
    /// path.
    pub fn reserve_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// [`MappingService::handle`] with an optional pre-reserved session
    /// id (from [`MappingService::reserve_session_id`]) that an
    /// `OpenSession` request will be registered under instead of
    /// allocating a fresh one. Ops other than `OpenSession` ignore it.
    pub fn handle_reserved(&self, request: Request, reserved: Option<u64>) -> Response {
        let request_id = self.requests_served.fetch_add(1, Ordering::Relaxed) as u64 + 1;
        // One latency histogram per op kind; the span name is fixed
        // before dispatch so the clock covers the whole handler. The op
        // span carries the request id (and the session id, when the op
        // names one) into the journal.
        let mut scoped = self.recorder.clone().with_request(request_id);
        if let Some(session) = request.session_id() {
            scoped = scoped.with_session(session);
        }
        let _span = scoped.span(op_span_name(&request));
        let response = match request {
            Request::MapOnce { job } => self.map_once(&job),
            Request::OpenSession {
                header,
                seed,
                config,
            } => self.open_session(&header, seed, config.unwrap_or_default(), reserved),
            Request::Apply { session, event } => self.apply(session, &event),
            Request::CloseSession { session } => self.close_session(session),
            Request::Catalog => Response::Catalog {
                algorithms: algorithm_catalog()
                    .iter()
                    .map(|&(name, description, _)| CatalogEntry {
                        name: name.to_string(),
                        description: description.to_string(),
                    })
                    .collect(),
            },
            Request::Stats => Response::Stats {
                stats: self.stats(),
            },
        };
        if let Response::Error { error } = &response {
            self.errors.bump(error.code);
        }
        response
    }

    /// Count a line read off connection `conn` that failed to decode as
    /// a [`Request`]: it still consumed a request slot and answered
    /// `code` ([`ErrorCode::BadRequest`], or [`ErrorCode::TooLarge`] for
    /// a line over the read cap), so the stats reflect it even though
    /// `handle` never saw it. The journal event carries the connection
    /// id (stdin is connection 1).
    pub fn note_malformed_line(&self, conn: u64, code: ErrorCode) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.errors.bump(code);
        self.recorder
            .clone()
            .with_conn(conn)
            .incr("serve.malformed_lines");
    }

    /// Count a request rejected at admission — the shard queue it
    /// hashed to was full (or draining), so it consumed a request slot
    /// and answered [`ErrorCode::Overloaded`] without `handle` ever
    /// seeing it.
    pub fn note_overloaded(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.errors.bump(ErrorCode::Overloaded);
        self.recorder.incr("serve.overloaded");
    }

    /// Run one job against the shared cache (the engine's single-job
    /// code path; the batch engine and `MapOnce` behave identically).
    pub fn map_job(&self, spec: &JobSpec) -> JobResult {
        self.map_once_served.fetch_add(1, Ordering::Relaxed);
        execute_job(spec, 0, self.cache(), &self.recorder)
    }

    /// Run a stream of jobs on the embedded engine (shared cache,
    /// in-order emission) — the `mimd batch` / `mimd sweep` path.
    pub fn run_stream<I, F>(&self, jobs: I, sink: F) -> usize
    where
        I: IntoIterator<Item = JobSpec>,
        F: FnMut(JobResult),
    {
        self.engine.run_stream(jobs, sink)
    }

    /// Run a batch of jobs on the embedded engine, results in input
    /// order.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        self.engine.run_batch(specs)
    }

    /// Replay a whole trace through a private session against the
    /// shared cache — the `mimd replay` path. Equivalent to
    /// `OpenSession` + one `Apply` per event + `CloseSession`, without
    /// touching the session table.
    pub fn replay(
        &self,
        header: &TraceHeader,
        events: &[TraceEvent],
        config: &OnlineConfig,
        seed: u64,
        sink: impl FnMut(&ReplayRecord),
    ) -> Result<ReplaySummary, String> {
        let artifacts = self
            .cache()
            .get_or_build(&header.topology, header.topology_seed())
            .map_err(|e| format!("topology: {e}"))?;
        let hierarchy = self
            .cache()
            .system_hierarchy(&artifacts)
            .map_err(|e| format!("hierarchy: {e}"))?;
        replay_trace(
            header,
            events,
            config,
            Some(hierarchy),
            seed,
            &self.recorder,
            sink,
        )
    }

    fn map_once(&self, job: &JobSpec) -> Response {
        let result = self.map_job(job);
        match &result.error {
            Some(message) => {
                ServiceError::new(ErrorCode::InvalidJob, message.clone()).into_response()
            }
            None => Response::MapResult { result },
        }
    }

    fn open_session(
        &self,
        header: &TraceHeader,
        seed: u64,
        config: SessionConfig,
        reserved: Option<u64>,
    ) -> Response {
        // Cheap fast-path rejection before paying for a V-cycle; the
        // authoritative check happens again under the lock at insert.
        if let Some(response) = self.session_limit_error() {
            return response;
        }
        let artifacts = match self
            .cache()
            .get_or_build(&header.topology, header.topology_seed())
        {
            Ok(artifacts) => artifacts,
            Err(e) => {
                return ServiceError::new(ErrorCode::Topology, format!("topology: {e}"))
                    .into_response()
            }
        };
        let hierarchy = match self.cache().system_hierarchy(&artifacts) {
            Ok(hierarchy) => hierarchy,
            Err(e) => {
                return ServiceError::new(ErrorCode::Topology, format!("hierarchy: {e}"))
                    .into_response()
            }
        };
        let workload = match DynamicWorkload::from_snapshot(&header.snapshot) {
            Ok(workload) => workload,
            Err(e) => {
                return ServiceError::new(ErrorCode::Workload, format!("snapshot: {e}"))
                    .into_response()
            }
        };
        let (session, record) = match IncrementalMapper::with_config(config.resolve())
            .with_recorder(self.recorder.clone())
            .begin(workload, hierarchy, seed)
        {
            Ok(begun) => begun,
            Err(e) => {
                return ServiceError::new(ErrorCode::Workload, format!("begin: {e}"))
                    .into_response()
            }
        };
        let assignment = session.assignment().sys_of_vec().to_vec();
        let id = {
            // Limit check, id allocation and insert are one atomic
            // step, so concurrent opens can never exceed the cap and
            // ids are 1, 2, 3, … in insert order.
            let mut sessions = self.sessions.lock();
            if sessions.len() >= self.config.max_sessions {
                return ServiceError::new(
                    ErrorCode::SessionLimit,
                    format!("{} sessions already open", sessions.len()),
                )
                .into_response();
            }
            let id = reserved.unwrap_or_else(|| self.next_session.fetch_add(1, Ordering::Relaxed));
            sessions.insert(
                id,
                Arc::new(Mutex::new(SessionEntry {
                    session,
                    events: 0,
                    closed: false,
                })),
            );
            id
        };
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Response::SessionOpened {
            session: id,
            record,
            assignment,
        }
    }

    /// A [`ErrorCode::SessionLimit`] response if the table is full.
    fn session_limit_error(&self) -> Option<Response> {
        let open = self.sessions.lock().len();
        (open >= self.config.max_sessions).then(|| {
            ServiceError::new(
                ErrorCode::SessionLimit,
                format!("{open} sessions already open"),
            )
            .into_response()
        })
    }

    fn apply(&self, id: u64, event: &TraceEvent) -> Response {
        // Hold the table lock only for the lookup: one session's remap
        // (possibly a full V-cycle) must not block the others.
        let Some(entry) = self.sessions.lock().get(&id).cloned() else {
            return ServiceError::new(ErrorCode::UnknownSession, format!("session {id} not open"))
                .into_response();
        };
        let mut entry = entry.lock();
        if entry.closed {
            // A racing CloseSession won the entry lock first: the
            // reported final event count must stay final.
            return ServiceError::new(ErrorCode::UnknownSession, format!("session {id} not open"))
                .into_response();
        }
        // Invalid events come back as `action = "error"` records with
        // the session state unchanged — replay semantics, not a
        // protocol error, so served and replayed streams stay aligned.
        let record = entry.session.apply(event);
        entry.events += 1;
        self.events_applied.fetch_add(1, Ordering::Relaxed);
        let assignment = entry.session.assignment().sys_of_vec().to_vec();
        Response::Applied {
            session: id,
            record,
            assignment,
        }
    }

    fn close_session(&self, id: u64) -> Response {
        // Drop the table guard before touching the entry lock, so a
        // close waiting on an in-flight apply never stalls the table.
        let removed = self.sessions.lock().remove(&id);
        match removed {
            Some(entry) => {
                // Waits for an in-flight apply to finish, then tombstones
                // the entry: the reported event count is final (a racing
                // apply that lost the entry lock answers UnknownSession).
                let mut entry = entry.lock();
                entry.closed = true;
                Response::SessionClosed {
                    session: id,
                    events: entry.events,
                }
            }
            None => ServiceError::new(ErrorCode::UnknownSession, format!("session {id} not open"))
                .into_response(),
        }
    }
}

/// The per-op latency-histogram key of a request.
fn op_span_name(request: &Request) -> &'static str {
    match request {
        Request::MapOnce { .. } => "service.map_once",
        Request::OpenSession { .. } => "service.open_session",
        Request::Apply { .. } => "service.apply",
        Request::CloseSession { .. } => "service.close_session",
        Request::Catalog => "service.catalog",
        Request::Stats => "service.stats",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_engine::{AlgorithmSpec, TopologySpec, WorkloadSpec};
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn torus_header(seed: u64) -> (TraceHeader, ClusteredProblemGraph) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 128,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, 64, &mut rng).unwrap();
        let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
        let header = TraceHeader {
            topology: TopologySpec::Torus { rows: 8, cols: 8 },
            topology_seed: None,
            snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
        };
        (header, base)
    }

    fn map_once_job(seed: u64) -> JobSpec {
        JobSpec {
            id: None,
            workload: WorkloadSpec::Layered {
                tasks: 128,
                width: None,
            },
            clustering: None,
            topology: TopologySpec::Torus { rows: 8, cols: 8 },
            topology_seed: None,
            algorithm: AlgorithmSpec::Multilevel {
                direct_threshold: Some(16),
                refine_rounds: None,
                refine_batch: None,
                refine_threads: None,
            },
            seed,
        }
    }

    #[test]
    fn session_lifecycle_allocates_deterministic_ids() {
        let service = MappingService::default();
        let (header, _) = torus_header(1);
        for expected in 1..=3u64 {
            let response = service.handle(Request::OpenSession {
                header: header.clone(),
                seed: expected,
                config: None,
            });
            match response {
                Response::SessionOpened {
                    session, record, ..
                } => {
                    assert_eq!(session, expected);
                    assert_eq!(record.index, 0);
                    assert_eq!(record.action, "full");
                }
                other => panic!("expected SessionOpened, got {other:?}"),
            }
        }
        assert_eq!(service.stats().open_sessions, 3);

        let response = service.handle(Request::Apply {
            session: 2,
            event: TraceEvent::SetTaskSize { task: 0, size: 5 },
        });
        match response {
            Response::Applied {
                session,
                record,
                assignment,
            } => {
                assert_eq!(session, 2);
                assert_eq!(record.index, 1);
                assert!(record.error.is_none());
                assert_eq!(assignment.len(), 64);
            }
            other => panic!("expected Applied, got {other:?}"),
        }

        assert_eq!(
            service.handle(Request::CloseSession { session: 2 }),
            Response::SessionClosed {
                session: 2,
                events: 1
            }
        );
        // Re-closing or applying to a closed session is an error.
        assert!(service
            .handle(Request::CloseSession { session: 2 })
            .is_error());
        assert!(service
            .handle(Request::Apply {
                session: 2,
                event: TraceEvent::SetTaskSize { task: 0, size: 5 },
            })
            .is_error());
        // Ids are never reused.
        match service.handle(Request::OpenSession {
            header,
            seed: 9,
            config: None,
        }) {
            Response::SessionOpened { session, .. } => assert_eq!(session, 4),
            other => panic!("expected SessionOpened, got {other:?}"),
        }
    }

    #[test]
    fn reserved_ids_open_deterministically_and_burn_on_skip() {
        let service = MappingService::default();
        let (header, _) = torus_header(3);
        // Intake-order reservation: ids come out 1, 2, … regardless of
        // which shard eventually handles the open.
        let first = service.reserve_session_id();
        let skipped = service.reserve_session_id();
        assert_eq!((first, skipped), (1, 2));
        match service.handle_reserved(
            Request::OpenSession {
                header: header.clone(),
                seed: 1,
                config: None,
            },
            Some(first),
        ) {
            Response::SessionOpened { session, .. } => assert_eq!(session, first),
            other => panic!("expected SessionOpened, got {other:?}"),
        }
        // A reservation whose open never lands is burned: the serial
        // path allocates past it, never reusing the id.
        match service.handle(Request::OpenSession {
            header,
            seed: 2,
            config: None,
        }) {
            Response::SessionOpened { session, .. } => assert_eq!(session, 3),
            other => panic!("expected SessionOpened, got {other:?}"),
        }
    }

    #[test]
    fn admission_notes_count_as_served_errors() {
        let service = MappingService::default();
        service.note_overloaded();
        service.note_malformed_line(7, ErrorCode::BadRequest);
        service.note_malformed_line(7, ErrorCode::TooLarge);
        let stats = service.stats();
        assert_eq!(stats.requests_served, 3);
        assert_eq!(stats.errors.overloaded, 1);
        assert_eq!(stats.errors.of(ErrorCode::Overloaded), 1);
        assert_eq!(stats.errors.of(ErrorCode::BadRequest), 1);
        assert_eq!(stats.errors.too_large, 1);
        assert_eq!(stats.errors.total(), 3);
    }

    #[test]
    fn server_gauges_surface_in_stats() {
        let service = MappingService::default();
        let gauges = service.server_gauges();
        gauges.connection_opened();
        gauges.connection_opened();
        gauges.enqueued();
        gauges.enqueued();
        gauges.dequeued_inflight();
        let server = service.stats().server;
        assert_eq!(server.active_connections, 2);
        assert_eq!(server.queue_depth, 1);
        assert_eq!(server.inflight, 1);
        gauges.inflight_done();
        gauges.connection_closed();
        let server = service.stats().server;
        assert_eq!(server.active_connections, 1);
        assert_eq!(server.inflight, 0);
    }

    #[test]
    fn concurrent_session_traffic_is_isolated() {
        // The table lock is per-lookup only: two sessions served from
        // two threads make progress independently and end in the same
        // state a serial run reaches.
        let service = MappingService::default();
        let (header, _) = torus_header(8);
        for _ in 0..2 {
            assert!(!service
                .handle(Request::OpenSession {
                    header: header.clone(),
                    seed: 8,
                    config: None,
                })
                .is_error());
        }
        std::thread::scope(|scope| {
            for id in [1u64, 2] {
                let service = &service;
                scope.spawn(move || {
                    for step in 0..5u64 {
                        let response = service.handle(Request::Apply {
                            session: id,
                            event: TraceEvent::SetTaskSize {
                                task: step as usize,
                                size: step + 2,
                            },
                        });
                        assert!(!response.is_error(), "{response:?}");
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.events_applied, 10);
        assert_eq!(stats.open_sessions, 2);
        // Both sessions saw all five of their events.
        for id in [1u64, 2] {
            match service.handle(Request::CloseSession { session: id }) {
                Response::SessionClosed { events, .. } => assert_eq!(events, 5),
                other => panic!("expected SessionClosed, got {other:?}"),
            }
        }
    }

    #[test]
    fn session_limit_is_enforced() {
        let service = MappingService::new(ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        });
        let (header, _) = torus_header(2);
        assert!(!service
            .handle(Request::OpenSession {
                header: header.clone(),
                seed: 1,
                config: None,
            })
            .is_error());
        let denied = service.handle(Request::OpenSession {
            header,
            seed: 2,
            config: None,
        });
        match denied {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::SessionLimit),
            other => panic!("expected session-limit error, got {other:?}"),
        }
    }

    #[test]
    fn mixed_map_once_and_session_traffic_share_the_hierarchy() {
        let service = MappingService::default();
        // A multilevel one-shot job builds the torus hierarchy...
        let response = service.handle(Request::MapOnce {
            job: map_once_job(3),
        });
        assert!(!response.is_error(), "{response:?}");
        // ...and the session opened on the same machine reuses it.
        let (header, _) = torus_header(3);
        let response = service.handle(Request::OpenSession {
            header,
            seed: 3,
            config: None,
        });
        assert!(!response.is_error(), "{response:?}");
        let stats = service.stats();
        assert_eq!(stats.cache.hierarchy_misses, 1, "{stats:?}");
        assert!(stats.cache.hierarchy_hits > 0, "{stats:?}");
        assert_eq!(stats.cache.entries, 1, "one interned torus");
        assert_eq!(stats.map_once_served, 1);
        assert_eq!(stats.sessions_opened, 1);
    }

    #[test]
    fn invalid_requests_map_to_structured_error_codes() {
        let service = MappingService::default();
        // np < ns fails as an invalid job.
        let mut bad_job = map_once_job(1);
        bad_job.workload = WorkloadSpec::Fft { log2n: 2 };
        match service.handle(Request::MapOnce { job: bad_job }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::InvalidJob);
                assert!(error.message.contains("np >= ns"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
        // A bad topology spec.
        let (mut header, _) = torus_header(4);
        header.topology = TopologySpec::Ring { n: 0 };
        match service.handle(Request::OpenSession {
            header,
            seed: 1,
            config: None,
        }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::Topology),
            other => panic!("expected error, got {other:?}"),
        }
        // A snapshot that mismatches the machine size.
        let (header, _) = torus_header(5);
        let mut mismatched = header.clone();
        mismatched.topology = TopologySpec::Ring { n: 8 };
        match service.handle(Request::OpenSession {
            header: mismatched,
            seed: 1,
            config: None,
        }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::Workload),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn catalog_and_stats_answer() {
        let service = MappingService::default();
        match service.handle(Request::Catalog) {
            Response::Catalog { algorithms } => {
                assert_eq!(algorithms.len(), algorithm_catalog().len());
                assert!(algorithms.iter().any(|a| a.name == "multilevel"));
            }
            other => panic!("expected catalog, got {other:?}"),
        }
        match service.handle(Request::Stats) {
            Response::Stats { stats } => {
                assert_eq!(stats.open_sessions, 0);
                assert_eq!(stats.cache.entries, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
