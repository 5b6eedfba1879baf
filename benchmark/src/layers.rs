//! The measured surface: every call the benchmark makes into the
//! product goes through this module, and this is the only file that
//! names the `mimd` facade. Each function wraps exactly one public,
//! un-suffixed entry point (never a `*_with` / `*_recorded` /
//! `*_reserved` variant, which ROADMAP schedules for deletion), so the
//! list below *is* the surface a later PR must keep — README.md
//! repeats it. Product failures come back as `String`s; the workloads
//! count them as failed ops.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd::core::{
    evaluate_assignment, initial_assignment, refine, validate_schedule, CriticalAnalysis,
    IdealSchedule, Mapper,
};
use mimd::engine::EngineConfig;
use mimd::multilevel::{Hierarchy, MultilevelMapper};
use mimd::online::IncrementalMapper;
use mimd::server::{ListenAddr, Server};
use mimd::service::ServiceConfig;
use mimd::sim::RoutingTable;
use mimd::taskgraph::workloads::{churn_trace, ChurnRegime};

pub use mimd::core::initial::InitialAssignment;
pub use mimd::core::{
    Assignment, Evaluation, EvaluationModel, MapperConfig, MappingResult, RefineConfig,
    RefineOutcome,
};
pub use mimd::engine::{
    AlgorithmSpec, CacheStats, ClusteringSpec, JobResult, JobSpec, TopologyArtifacts, TopologySpec,
    WorkloadSpec,
};
pub use mimd::multilevel::{MultilevelConfig, MultilevelResult, SystemHierarchy};
pub use mimd::online::{
    DynamicWorkload, OnlineConfig, OnlineSession, ReplayRecord, TraceEvent, TraceHeader,
};
pub use mimd::server::{ServerConfig, ServerHandle, ServerSummary};
pub use mimd::service::{MappingService, Request, Response};
pub use mimd::taskgraph::{AbstractGraph, ClusteredProblemGraph, Clustering, ProblemGraph};
pub use mimd::telemetry::TelemetrySnapshot;
pub use mimd::topology::SystemGraph;

/// The generator type the product's entry points draw from.
pub type JobRng = StdRng;

/// The product's generator, seeded the way `try_execute` seeds a job.
pub fn job_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---- mimd-service --------------------------------------------------------

/// `MappingService::new` with `threads` engine workers (0 = all cores)
/// and telemetry on or off; the journal stays off.
pub fn service_new(threads: usize, telemetry: bool) -> Arc<MappingService> {
    Arc::new(MappingService::new(ServiceConfig {
        engine: EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        telemetry,
        ..ServiceConfig::default()
    }))
}

/// `MappingService::map_job`.
pub fn map_job(service: &MappingService, spec: &JobSpec) -> JobResult {
    service.map_job(spec)
}

/// `MappingService::run_batch`.
pub fn run_batch(service: &MappingService, specs: &[JobSpec]) -> Vec<JobResult> {
    service.run_batch(specs)
}

/// `Request::to_json_line` — how the benchmark writes its request
/// inputs.
pub fn request_line(request: &Request) -> String {
    request.to_json_line()
}

/// The JSON of one trace event — the `event` member of an `apply`
/// request line.
pub fn event_json(event: &TraceEvent) -> String {
    serde_json::to_string(event).expect("TraceEvent serializes")
}

/// The JSON of one job spec: the canonical form the input-determinism
/// tests compare.
#[cfg(test)]
pub fn job_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("JobSpec serializes")
}

/// `Request::from_json_line`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    Request::from_json_line(line).map_err(|e| e.to_string())
}

/// `MappingService::handle`.
pub fn handle(service: &MappingService, request: Request) -> Response {
    service.handle(request)
}

/// `Response::to_json_line`.
pub fn response_line(response: &Response) -> String {
    response.to_json_line()
}

/// `Response::from_json_line` — verification only, never timed.
pub fn parse_response(line: &str) -> Result<Response, String> {
    Response::from_json_line(line).map_err(|e| e.to_string())
}

/// `MappingService::replay` with the default online configuration,
/// collecting every record (initial mapping first).
pub fn replay(
    service: &MappingService,
    header: &TraceHeader,
    events: &[TraceEvent],
    seed: u64,
) -> Result<Vec<ReplayRecord>, String> {
    let mut records = Vec::with_capacity(events.len() + 1);
    service.replay(header, events, &OnlineConfig::default(), seed, |r| {
        records.push(r.clone())
    })?;
    Ok(records)
}

/// `MappingService::cache_stats` (`TopologyCache::stats`).
pub fn cache_stats(service: &MappingService) -> CacheStats {
    service.cache_stats()
}

/// Error responses the service has tallied, over every error code.
pub fn error_count(service: &MappingService) -> usize {
    service.stats().errors.total()
}

/// The service recorder's counters and histograms (empty when
/// telemetry is off).
pub fn telemetry(service: &MappingService) -> TelemetrySnapshot {
    service.recorder().snapshot()
}

// ---- mimd-engine: the topology cache ------------------------------------

/// `TopologyCache::get_or_build` on the service's cache.
pub fn cache_get_or_build(
    service: &MappingService,
    spec: &TopologySpec,
    topology_seed: u64,
) -> Result<Arc<TopologyArtifacts>, String> {
    service
        .cache()
        .get_or_build(spec, topology_seed)
        .map_err(|e| format!("topology: {e}"))
}

/// `TopologyCache::system_hierarchy` on the service's cache.
pub fn cache_system_hierarchy(
    service: &MappingService,
    artifacts: &TopologyArtifacts,
) -> Result<Arc<SystemHierarchy>, String> {
    service
        .cache()
        .system_hierarchy(artifacts)
        .map_err(|e| format!("hierarchy: {e}"))
}

// ---- mimd-topology, mimd-sim --------------------------------------------

/// `TopologySpec::build` (the system graph with its APSP matrix),
/// seeded the way `TopologyArtifacts::build` seeds it.
pub fn topology_build(spec: &TopologySpec, topology_seed: u64) -> Result<SystemGraph, String> {
    spec.build(&mut StdRng::seed_from_u64(topology_seed))
        .map_err(|e| format!("topology: {e}"))
}

/// Processors a topology spec will produce.
pub fn node_count(spec: &TopologySpec) -> usize {
    spec.node_count()
}

/// Processors of a built machine.
pub fn system_len(system: &SystemGraph) -> usize {
    system.len()
}

/// `RoutingTable::new`.
pub fn routing_table(system: &SystemGraph) -> RoutingTable {
    RoutingTable::new(system)
}

// ---- mimd-taskgraph -----------------------------------------------------

/// `WorkloadSpec::build`.
pub fn workload_build(spec: &WorkloadSpec, rng: &mut StdRng) -> Result<ProblemGraph, String> {
    spec.build(rng).map_err(|e| format!("workload: {e}"))
}

/// `ClusteringSpec::build`.
pub fn clustering_build(
    spec: ClusteringSpec,
    problem: &ProblemGraph,
    ns: usize,
    rng: &mut StdRng,
) -> Result<Clustering, String> {
    spec.build(problem, ns, rng)
        .map_err(|e| format!("clustering: {e}"))
}

/// `ClusteredProblemGraph::new`.
pub fn clustered_new(
    problem: ProblemGraph,
    clustering: Clustering,
) -> Result<ClusteredProblemGraph, String> {
    ClusteredProblemGraph::new(problem, clustering).map_err(|e| format!("instance: {e}"))
}

/// `AbstractGraph::new`.
pub fn abstract_new(graph: &ClusteredProblemGraph) -> AbstractGraph {
    AbstractGraph::new(graph)
}

/// Tasks and precedence edges of an instance.
pub fn graph_size(graph: &ClusteredProblemGraph) -> (usize, usize) {
    (graph.num_tasks(), graph.problem().graph().edge_count())
}

/// `churn_trace` in the `mixed` regime.
pub fn churn(base: &ClusteredProblemGraph, events: usize, rng: &mut StdRng) -> Vec<TraceEvent> {
    churn_trace(base, events, ChurnRegime::Mixed, rng)
}

/// The trace header a session on `topology` opens with:
/// `DynamicWorkload::from_clustered(base).snapshot()`.
pub fn trace_header(topology: TopologySpec, base: &ClusteredProblemGraph) -> TraceHeader {
    TraceHeader {
        topology,
        topology_seed: None,
        snapshot: DynamicWorkload::from_clustered(base).snapshot(),
    }
}

/// `DynamicWorkload::from_snapshot`.
pub fn snapshot_load(header: &TraceHeader) -> Result<DynamicWorkload, String> {
    DynamicWorkload::from_snapshot(&header.snapshot).map_err(|e| format!("snapshot: {e}"))
}

/// `DynamicWorkload::apply`.
pub fn event_apply(workload: &mut DynamicWorkload, event: &TraceEvent) -> Result<(), String> {
    workload
        .apply(event)
        .map(|_| ())
        .map_err(|e| format!("event: {e}"))
}

/// `DynamicWorkload::materialize`.
pub fn materialize(workload: &DynamicWorkload) -> Result<ClusteredProblemGraph, String> {
    workload
        .materialize()
        .map_err(|e| format!("materialize: {e}"))
}

// ---- mimd-core ----------------------------------------------------------

/// `IdealSchedule::derive`.
pub fn ideal_derive(graph: &ClusteredProblemGraph) -> IdealSchedule {
    IdealSchedule::derive(graph)
}

/// `IdealSchedule::lower_bound`.
pub fn lower_bound(ideal: &IdealSchedule) -> u64 {
    ideal.lower_bound()
}

/// `CriticalAnalysis::analyze` in the mode `config` names.
pub fn critical_analyze(
    graph: &ClusteredProblemGraph,
    ideal: &IdealSchedule,
    config: &MapperConfig,
) -> CriticalAnalysis {
    CriticalAnalysis::analyze(graph, ideal, config.criticality)
}

/// `initial_assignment`.
pub fn initial(
    graph: &ClusteredProblemGraph,
    abstract_graph: &AbstractGraph,
    critical: &CriticalAnalysis,
    system: &SystemGraph,
) -> Result<InitialAssignment, String> {
    initial_assignment(graph, abstract_graph, critical, system).map_err(|e| format!("initial: {e}"))
}

/// `refine`.
pub fn refine_pass(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    start: &Assignment,
    pinned: &[bool],
    lower_bound: u64,
    config: &RefineConfig,
    rng: &mut StdRng,
) -> Result<RefineOutcome, String> {
    refine(graph, system, start, pinned, lower_bound, config, rng)
        .map_err(|e| format!("refine: {e}"))
}

/// `Mapper::map` under `config`.
pub fn mapper_map(
    config: &MapperConfig,
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    rng: &mut StdRng,
) -> Result<MappingResult, String> {
    Mapper::with_config(config.clone())
        .map(graph, system, rng)
        .map_err(|e| format!("paper: {e}"))
}

/// `Assignment::random`.
pub fn assignment_random(ns: usize, rng: &mut StdRng) -> Assignment {
    Assignment::random(ns, rng)
}

/// `Assignment::from_sys_of`: rejects anything but a bijection.
pub fn assignment_from(sys_of: &[usize]) -> Result<Assignment, String> {
    Assignment::from_sys_of(sys_of.to_vec()).map_err(|e| format!("assignment: {e}"))
}

/// The cluster → processor vector of an assignment.
pub fn sys_of(assignment: &Assignment) -> &[usize] {
    assignment.sys_of_vec()
}

/// `evaluate_assignment` under the paper's precedence model.
pub fn evaluate(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
) -> Result<Evaluation, String> {
    evaluate_assignment(graph, system, assignment, EvaluationModel::Precedence)
        .map_err(|e| format!("evaluate: {e}"))
}

/// The total time of an evaluation.
pub fn total_time(evaluation: &Evaluation) -> u64 {
    evaluation.total()
}

/// `validate_schedule` on an evaluation: the number of violations.
pub fn validate(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    evaluation: &Evaluation,
) -> usize {
    validate_schedule(
        graph,
        system,
        &evaluation.assignment,
        &evaluation.schedule,
        evaluation.model,
    )
    .len()
}

// ---- mimd-multilevel ----------------------------------------------------

/// `Hierarchy::from_system_hierarchy` down to `config.direct_threshold`.
pub fn coarsen(
    graph: &ClusteredProblemGraph,
    system_hierarchy: &SystemHierarchy,
    config: &MultilevelConfig,
) -> Result<Hierarchy, String> {
    Hierarchy::from_system_hierarchy(graph, system_hierarchy, config.direct_threshold)
        .map_err(|e| format!("coarsen: {e}"))
}

/// The coarsest level of a hierarchy: what the flat mapper solves.
pub fn hierarchy_top(hierarchy: &Hierarchy) -> (&ClusteredProblemGraph, &SystemGraph) {
    let top = hierarchy.top();
    (&top.graph, &top.system)
}

/// `MultilevelMapper::map_with_hierarchy` under `config`.
pub fn multilevel_map(
    config: &MultilevelConfig,
    graph: &ClusteredProblemGraph,
    system_hierarchy: &SystemHierarchy,
    rng: &mut StdRng,
) -> Result<MultilevelResult, String> {
    MultilevelMapper::with_config(config.clone())
        .map_with_hierarchy(graph, system_hierarchy, rng)
        .map_err(|e| format!("multilevel: {e}"))
}

// ---- mimd-online --------------------------------------------------------

/// `IncrementalMapper::begin` with the default online configuration.
pub fn session_begin(
    workload: DynamicWorkload,
    hierarchy: Arc<SystemHierarchy>,
    seed: u64,
) -> Result<(OnlineSession, ReplayRecord), String> {
    IncrementalMapper::new()
        .begin(workload, hierarchy, seed)
        .map_err(|e| format!("begin: {e}"))
}

/// `OnlineSession::apply`, returning the record and the assignment
/// that `Response::Applied` would carry.
pub fn session_apply(
    session: &mut OnlineSession,
    event: &TraceEvent,
) -> (ReplayRecord, Vec<usize>) {
    let record = session.apply(event);
    (record, session.assignment().sys_of_vec().to_vec())
}

/// The current assignment of a session.
pub fn session_assignment(session: &OnlineSession) -> Vec<usize> {
    session.assignment().sys_of_vec().to_vec()
}

// ---- mimd-server --------------------------------------------------------

/// `Server::bind` on a Unix socket at `socket`.
pub fn server_bind(
    service: Arc<MappingService>,
    socket: &Path,
    shards: usize,
) -> Result<Server, String> {
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    Server::bind(service, &ListenAddr::Unix(socket.to_path_buf()), config)
        .map_err(|e| format!("bind {}: {e}", socket.display()))
}

/// `Server::spawn`.
pub fn server_spawn(server: Server) -> ServerHandle {
    server.spawn()
}

/// `ServerHandle::stop`: drain and join.
pub fn server_stop(handle: ServerHandle) -> Result<ServerSummary, String> {
    handle.stop().map_err(|e| format!("drain: {e}"))
}

#[cfg(test)]
mod tests {
    /// The fence: this is the only source file that names the facade.
    #[test]
    fn no_other_module_names_the_product() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let facade = ["mimd", "::"].concat();
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "layers.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains(&facade),
                "{} reaches into the product without going through layers.rs",
                path.display()
            );
        }
    }
}
