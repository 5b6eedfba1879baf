//! Integration tests for the telemetry surface: structural counters
//! are asserted exactly against a known 64-node torus replay, timing
//! fields only for shape (counts, monotonicity) — wall-clock values are
//! never part of the contract. Also proves the determinism contract:
//! enabling telemetry changes no emitted record.

use std::io::sink;

use mimd_online::{replay_trace, OnlineConfig, TraceHeader};
use mimd_service::{serve_jsonl, MappingService, Request, Response, ServiceConfig, SessionConfig};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{
    ClusteredProblemGraph, DynamicWorkload, GeneratorConfig, LayeredDagGenerator, TraceEvent,
};
use mimd_telemetry::{Recorder, TelemetrySnapshot};
use mimd_topology::TopologySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EVENTS: usize = 60;
const SEED: u64 = 7;

/// A fixed 128-task workload on a 64-node (8×8) torus plus a 60-event
/// mixed churn trace — the same shape the CI replay smoke test drives.
fn torus_trace() -> (TraceHeader, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 128,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, 64, &mut rng).unwrap();
    let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
    let events = churn_trace(&base, EVENTS, ChurnRegime::Mixed, &mut rng);
    let header = TraceHeader {
        topology: TopologySpec::Torus { rows: 8, cols: 8 },
        topology_seed: None,
        snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
    };
    (header, events)
}

fn telemetry_service() -> MappingService {
    MappingService::new(ServiceConfig {
        telemetry: true,
        ..ServiceConfig::default()
    })
}

#[test]
fn replay_counters_match_the_summary_exactly() {
    let (header, events) = torus_trace();
    let service = telemetry_service();
    let mut lines = Vec::new();
    let summary = service
        .replay(&header, &events, &OnlineConfig::default(), SEED, |r| {
            lines.push(r.to_json_line())
        })
        .unwrap();
    assert_eq!(summary.events, EVENTS);
    assert_eq!(summary.errors, 0);
    assert!(summary.incremental > 0, "{summary:?}");
    assert!(summary.full_remaps > 0, "{summary:?}");

    let t = service.stats().telemetry;
    // Structural counters: exact matches against the replay summary.
    assert_eq!(t.counter("online.events"), EVENTS as u64);
    assert_eq!(t.counter("online.fallbacks"), summary.full_remaps as u64);
    assert_eq!(t.counter("online.incremental"), summary.incremental as u64);
    assert_eq!(t.counter("online.errors"), 0);
    assert_eq!(t.counter("online.migrations"), summary.total_moves as u64);
    // One V-cycle per fallback plus the initial mapping, each recording
    // the same hierarchy depth (one machine, one hierarchy).
    let runs = t.counter("vcycle.runs");
    assert_eq!(runs, summary.full_remaps as u64 + 1);
    let levels = t.counter("vcycle.levels");
    assert_eq!(levels % runs, 0, "per-run depth is constant: {t:?}");
    assert!(levels / runs > 1, "a 64-node torus needs a real V-cycle");

    // Timing series: shape and monotonicity only.
    let refine = &t.histograms["online.region_refine"];
    assert_eq!(refine.count, summary.incremental as u64);
    let vcycle = &t.histograms["online.full_vcycle"];
    assert_eq!(vcycle.count, summary.full_remaps as u64);
    assert_eq!(t.histograms["online.initial_map"].count, 1);
    for (name, h) in &t.histograms {
        assert_eq!(h.bucket_total(), h.count, "{name}: {h:?}");
        assert!(h.min_ns <= h.max_ns, "{name}: {h:?}");
        assert!(h.sum_ns >= h.max_ns, "{name}: {h:?}");
        assert!(h.mean_ns() >= h.min_ns as f64, "{name}: {h:?}");
    }

    // The determinism contract: the same replay without telemetry
    // emits byte-identical records.
    let mut plain = Vec::new();
    replay_trace(
        &header,
        &events,
        &OnlineConfig::default(),
        None,
        SEED,
        &Recorder::disabled(),
        |r| plain.push(r.to_json_line()),
    )
    .unwrap();
    assert_eq!(lines, plain);
}

#[test]
fn served_sessions_record_per_op_latency_histograms() {
    let (header, events) = torus_trace();
    let service = telemetry_service();
    let open = service.handle(Request::OpenSession {
        header,
        seed: SEED,
        config: Some(SessionConfig::default()),
    });
    let Response::SessionOpened { session, .. } = open else {
        panic!("expected SessionOpened, got {open:?}");
    };
    for event in &events[..10] {
        let response = service.handle(Request::Apply {
            session,
            event: event.clone(),
        });
        assert!(!response.is_error(), "{response:?}");
    }
    service.handle(Request::CloseSession { session });

    let stats = service.stats();
    // open + 10 applies + close; the Stats request that *returns* this
    // snapshot is not part of it.
    assert_eq!(stats.requests_served, 12);
    assert_eq!(stats.events_applied, 10);
    assert_eq!(stats.errors.total(), 0);
    let t = &stats.telemetry;
    assert_eq!(t.histograms["service.open_session"].count, 1);
    assert_eq!(t.histograms["service.apply"].count, 10);
    assert_eq!(t.histograms["service.close_session"].count, 1);
    assert_eq!(t.counter("online.events"), 10);

    // The snapshot round-trips through the stats response JSON.
    let response = service.handle(Request::Stats);
    let line = response.to_json_line();
    let back = Response::from_json_line(&line).unwrap();
    let Response::Stats { stats: served } = back else {
        panic!("expected Stats, got {back:?}");
    };
    assert_eq!(served.requests_served, 13, "stats counts itself");
    assert!(served.telemetry.histograms.contains_key("service.apply"));
}

#[test]
fn serve_loop_counts_malformed_lines_and_error_codes() {
    let service = telemetry_service();
    let input = "# comment\n{oops\n{\"op\":\"catalog\"}\n{\"op\":\"stats\"}\n";
    let mut output = Vec::new();
    let summary = serve_jsonl(&service, input.as_bytes(), &mut output, sink(), None).unwrap();
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.malformed_lines, 1);

    let stats = service.stats();
    // The malformed line consumed a request slot too.
    assert_eq!(stats.requests_served, 3);
    assert_eq!(stats.errors.bad_request, 1);
    assert_eq!(stats.errors.total(), 1);
    assert_eq!(stats.telemetry.counter("serve.malformed_lines"), 1);

    // The served stats line carries the same counters.
    let text = String::from_utf8(output).unwrap();
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"serve.malformed_lines\""), "{last}");
    assert!(last.contains("\"bad_request\":1"), "{last}");
    assert!(last.contains("\"requests_served\""), "{last}");
}

#[test]
fn disabled_telemetry_stays_empty_but_counts_requests() {
    let service = MappingService::default();
    service.handle(Request::Catalog);
    service.handle(Request::Catalog);
    let stats = service.stats();
    assert_eq!(stats.requests_served, 2);
    assert!(stats.telemetry.is_empty(), "{:?}", stats.telemetry);
    assert_eq!(stats.telemetry, TelemetrySnapshot::default());
    assert_eq!(stats.errors.total(), 0);
}
