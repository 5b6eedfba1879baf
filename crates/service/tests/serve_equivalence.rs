//! The ISSUE's acceptance contract for `mimd serve`:
//!
//! * a 64-node-torus churn trace served request-by-request emits
//!   per-event JSONL records **byte-identical** to `mimd replay` on the
//!   same trace (same seed, same config);
//! * a mixed batch of `MapOnce` and session requests on one service
//!   instance shares `SystemHierarchy` artifacts through the one
//!   topology cache (hierarchy hits > 0 across request kinds).

use std::io::sink;

use mimd_online::{replay_trace, DynamicWorkload, OnlineConfig, TraceHeader};
use mimd_service::{serve_jsonl, trace_requests, MappingService, Request, Response};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, TraceEvent};
use mimd_telemetry::Recorder;
use mimd_topology::TopologySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 128-task instance on the 64-node torus plus a mixed churn trace.
fn torus_trace(seed: u64, events: usize) -> (TraceHeader, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 128,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, 64, &mut rng).unwrap();
    let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
    let trace = churn_trace(&base, events, ChurnRegime::Mixed, &mut rng);
    let header = TraceHeader {
        topology: TopologySpec::Torus { rows: 8, cols: 8 },
        topology_seed: None,
        snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
    };
    (header, trace)
}

#[test]
fn served_records_are_byte_identical_to_replay() {
    let (header, events) = torus_trace(1991, 60);
    let seed = 7;

    // The replay side: one JSONL line per record.
    let mut replayed: Vec<String> = Vec::new();
    replay_trace(
        &header,
        &events,
        &OnlineConfig::default(),
        None,
        seed,
        &Recorder::disabled(),
        |record| replayed.push(record.to_json_line()),
    )
    .unwrap();
    assert_eq!(replayed.len(), events.len() + 1, "init + one per event");

    // The served side: the same trace as a request stream through the
    // JSONL loop on a fresh service (first session id is 1).
    let service = MappingService::default();
    let input: String = trace_requests(&header, &events, seed, None, 1)
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    let mut output = Vec::new();
    let summary = serve_jsonl(&service, input.as_bytes(), &mut output, sink(), None).unwrap();
    assert_eq!(summary.requests, events.len() as u64 + 2, "open + applies");
    assert_eq!(summary.malformed_lines, 0);
    assert_eq!(service.stats().errors.total(), 0);

    let responses: Vec<Response> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| Response::from_json_line(line).unwrap())
        .collect();
    assert_eq!(responses.len(), events.len() + 2);
    let served: Vec<String> = responses
        .iter()
        .filter_map(|r| r.record().map(|record| record.to_json_line()))
        .collect();

    assert_eq!(served, replayed, "served records must equal replay bytes");
    assert!(matches!(
        responses.last(),
        Some(Response::SessionClosed { events: n, .. }) if *n == events.len()
    ));
}

#[test]
fn serve_and_replay_share_one_hierarchy_via_the_service_cache() {
    let (header, events) = torus_trace(5, 10);
    let service = MappingService::default();

    // Replay through the service builds (misses) the hierarchy once...
    let mut sink = |_record: &_| {};
    service
        .replay(&header, &events, &OnlineConfig::default(), 3, &mut sink)
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.cache.hierarchy_misses, 1, "{stats:?}");

    // ...and a session opened afterwards on the same machine hits it.
    let response = service.handle(Request::OpenSession {
        header,
        seed: 3,
        config: None,
    });
    assert!(!response.is_error(), "{response:?}");
    let stats = service.stats();
    assert_eq!(stats.cache.hierarchy_misses, 1, "{stats:?}");
    assert!(stats.cache.hierarchy_hits >= 1, "{stats:?}");
}
