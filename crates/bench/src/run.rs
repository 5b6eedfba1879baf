//! Executing a suite: min-of-k repetitions through the existing
//! engine/service entry points.
//!
//! Every repetition runs on a *fresh* [`MappingService`] with telemetry
//! enabled, so caches start cold, repetitions are independent, and the
//! report's percentiles come from the same recorder production traffic
//! uses. The structural half of each repetition (quality, item counts)
//! must be identical across repetitions — a mismatch fails the run,
//! because a nondeterministic benchmark cannot gate anything.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_engine::{ClusteringSpec, JobSpec};
use mimd_online::{OnlineConfig, TraceHeader};
use mimd_server::{run_loadgen, ListenAddr, LoadgenConfig, Server, ServerConfig};
use mimd_service::{MappingService, Request, Response, ServiceConfig};
use mimd_taskgraph::workloads::ChurnRegime;
use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
use mimd_telemetry::TelemetrySnapshot;

use crate::report::{BenchReport, LatencyPercentiles, ScenarioReport};
use crate::suite::{BenchSuite, Scenario, ScenarioKind};

/// What one repetition produced, minus the clock: the structural half
/// the runner asserts identical across repetitions.
#[derive(Clone, Debug, PartialEq)]
struct RepOutcome {
    items: usize,
    quality: Option<f64>,
    metrics: BTreeMap<String, f64>,
}

/// Run every scenario of `suite`, `reps` repetitions each (min-of-k
/// wall-clock), producing an unstamped report — callers add git/time
/// metadata via [`BenchReport::with_environment`].
pub fn run_suite(suite: &BenchSuite, reps: usize) -> Result<BenchReport, String> {
    let reps = reps.max(1);
    let mut scenarios = Vec::with_capacity(suite.scenarios.len());
    for scenario in &suite.scenarios {
        scenarios.push(run_scenario(scenario, reps)?);
    }
    Ok(BenchReport::new(
        suite.name.clone(),
        suite.fingerprint(),
        scenarios,
    ))
}

/// Run one scenario min-of-`reps`.
fn run_scenario(scenario: &Scenario, reps: usize) -> Result<ScenarioReport, String> {
    let fail = |what: String| format!("scenario '{}': {what}", scenario.name);
    // Build the scenario's fixed inputs once, outside the clock.
    let prepared = prepare(scenario).map_err(&fail)?;

    let mut rep_wall_ns = Vec::with_capacity(reps);
    let mut first: Option<RepOutcome> = None;
    let mut telemetry = TelemetrySnapshot::default();
    let mut cache = None;
    for rep in 0..reps {
        let service = Arc::new(MappingService::new(ServiceConfig {
            telemetry: true,
            ..ServiceConfig::default()
        }));
        let started = Instant::now();
        let outcome = prepared.execute(&service).map_err(&fail)?;
        rep_wall_ns.push((started.elapsed().as_nanos() as u64).max(1));
        telemetry.merge(&service.recorder().snapshot());
        cache = Some(service.cache_stats());
        match &first {
            None => first = Some(outcome),
            Some(expected) if *expected != outcome => {
                return Err(fail(format!(
                    "nondeterministic across repetitions (rep 0: {expected:?}, rep {rep}: {outcome:?})"
                )));
            }
            Some(_) => {}
        }
    }
    let outcome = first.expect("reps >= 1");
    let wall_ns = *rep_wall_ns.iter().min().expect("reps >= 1");
    Ok(ScenarioReport {
        name: scenario.name.clone(),
        kind: scenario.kind_label(),
        reps,
        items: outcome.items,
        wall_ns,
        items_per_sec: outcome.items as f64 / (wall_ns as f64 / 1e9),
        rep_wall_ns,
        quality_percent_over: outcome.quality,
        cache,
        latency: latency_summary(&telemetry, prepared.latency_prefixes()),
        metrics: outcome.metrics,
    })
}

/// p50/p90/p99 of every histogram whose key starts with one of
/// `prefixes` (the scenario's own entry points, not unrelated phases).
fn latency_summary(
    snapshot: &TelemetrySnapshot,
    prefixes: &[&str],
) -> BTreeMap<String, LatencyPercentiles> {
    snapshot
        .histograms
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(name, h)| (name.clone(), LatencyPercentiles::from_snapshot(h)))
        .collect()
}

/// A scenario with its inputs materialized, ready to execute per rep.
enum Prepared {
    Job(JobSpec),
    Replay {
        header: TraceHeader,
        events: Vec<mimd_online::TraceEvent>,
        config: OnlineConfig,
        seed: u64,
    },
    ServiceStream(Vec<Request>),
    ServiceLoad {
        header: TraceHeader,
        events: Vec<mimd_online::TraceEvent>,
        sessions: usize,
        connections: usize,
        shards: usize,
        queue_depth: usize,
        seed: u64,
    },
}

/// Distinguishes concurrently-running scenarios' socket paths within
/// one process.
static LOAD_SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

impl Prepared {
    fn latency_prefixes(&self) -> &'static [&'static str] {
        match self {
            Prepared::Job(_) => &["engine."],
            Prepared::Replay { .. } => &["online.", "vcycle."],
            Prepared::ServiceStream(_) => &["service."],
            Prepared::ServiceLoad { .. } => &["service."],
        }
    }

    fn execute(&self, service: &Arc<MappingService>) -> Result<RepOutcome, String> {
        match self {
            Prepared::Job(job) => {
                let result = service.map_job(job);
                if let Some(message) = &result.error {
                    return Err(format!("job failed: {message}"));
                }
                let metrics = BTreeMap::from([
                    ("np".to_string(), result.np as f64),
                    ("ns".to_string(), result.ns as f64),
                    ("lower_bound".to_string(), result.lower_bound as f64),
                    ("total_time".to_string(), result.total_time as f64),
                    ("evaluations".to_string(), result.evaluations as f64),
                ]);
                Ok(RepOutcome {
                    items: result.evaluations.max(1),
                    quality: Some(result.percent_over_lower_bound),
                    metrics,
                })
            }
            Prepared::Replay {
                header,
                events,
                config,
                seed,
            } => {
                let mut records = 0usize;
                let summary =
                    service.replay(header, events, config, *seed, |_record| records += 1)?;
                let metrics = BTreeMap::from([
                    ("records".to_string(), records as f64),
                    ("incremental".to_string(), summary.incremental as f64),
                    ("full_remaps".to_string(), summary.full_remaps as f64),
                    ("errors".to_string(), summary.errors as f64),
                    ("migrations".to_string(), summary.total_moves as f64),
                ]);
                Ok(RepOutcome {
                    items: summary.events.max(1),
                    quality: Some(summary.mean_percent_over()),
                    metrics,
                })
            }
            Prepared::ServiceStream(requests) => {
                let mut percents = Vec::new();
                for request in requests {
                    let response = service.handle(request.clone());
                    match response {
                        Response::Error { error } => {
                            return Err(format!(
                                "request failed ({:?}): {}",
                                error.code, error.message
                            ));
                        }
                        Response::MapResult { result } => {
                            percents.push(result.percent_over_lower_bound);
                        }
                        Response::SessionOpened { record, .. }
                        | Response::Applied { record, .. }
                            if record.error.is_none() =>
                        {
                            percents.push(record.percent_over_lower_bound);
                        }
                        _ => {}
                    }
                }
                let quality = (!percents.is_empty())
                    .then(|| percents.iter().sum::<f64>() / percents.len() as f64);
                let metrics = BTreeMap::from([
                    ("requests".to_string(), requests.len() as f64),
                    ("mapped_results".to_string(), percents.len() as f64),
                ]);
                Ok(RepOutcome {
                    items: requests.len(),
                    quality,
                    metrics,
                })
            }
            Prepared::ServiceLoad {
                header,
                events,
                sessions,
                connections,
                shards,
                queue_depth,
                seed,
            } => {
                // An in-process server on a unique Unix socket, the
                // real loadgen client against it, then a drain. Counts
                // are the structural outcome; any error or admission
                // reject would make repetitions diverge, so both are
                // hard failures.
                let socket = std::env::temp_dir().join(format!(
                    "mimd-bench-{}-{}.sock",
                    std::process::id(),
                    LOAD_SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let addr = ListenAddr::Unix(socket);
                let server = Server::bind(
                    Arc::clone(service),
                    &addr,
                    ServerConfig {
                        shards: *shards,
                        queue_depth: *queue_depth,
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| format!("bind {addr}: {e}"))?;
                let handle = server.spawn();
                let load = run_loadgen(
                    &addr,
                    &LoadgenConfig {
                        sessions: *sessions,
                        connections: *connections,
                        header: header.clone(),
                        events: events.clone(),
                        seed: *seed,
                        rate: None,
                    },
                );
                let summary = handle.stop().map_err(|e| format!("drain: {e}"))?;
                let load = load.map_err(|e| format!("loadgen: {e}"))?;
                if load.errors > 0 {
                    return Err(format!("{} error responses under load", load.errors));
                }
                if summary.rejected > 0 {
                    return Err(format!(
                        "{} admission rejects; raise queue_depth for a deterministic rep",
                        summary.rejected
                    ));
                }
                let metrics = BTreeMap::from([
                    ("sessions".to_string(), load.sessions as f64),
                    ("connections".to_string(), load.connections as f64),
                    ("requests".to_string(), load.requests as f64),
                    ("sessions_closed".to_string(), load.sessions_closed as f64),
                    ("shards".to_string(), *shards as f64),
                ]);
                Ok(RepOutcome {
                    items: load.responses as usize,
                    quality: None,
                    metrics,
                })
            }
        }
    }
}

/// Materialize a scenario's inputs (workload generation, churn traces,
/// request streams) — deterministic per seed, run once per scenario.
fn prepare(scenario: &Scenario) -> Result<Prepared, String> {
    match &scenario.kind {
        ScenarioKind::Job { job } => Ok(Prepared::Job(job.clone())),
        ScenarioKind::Replay {
            tasks,
            topology,
            events,
            regime,
            scratch,
            seed,
        } => {
            let (header, trace) =
                synthesize_trace(*tasks, topology.clone(), *events, regime, *seed)?;
            let defaults = OnlineConfig::default();
            let config = OnlineConfig {
                staleness_threshold: if *scratch {
                    0.0
                } else {
                    defaults.staleness_threshold
                },
                ..defaults
            };
            Ok(Prepared::Replay {
                header,
                events: trace,
                config,
                seed: *seed,
            })
        }
        ScenarioKind::ServiceStream {
            jobs,
            session_tasks,
            session_topology,
            session_events,
            seed,
        } => {
            let (header, trace) = synthesize_trace(
                *session_tasks,
                session_topology.clone(),
                *session_events,
                "mixed",
                *seed,
            )?;
            let mut requests: Vec<Request> = jobs
                .iter()
                .map(|job| Request::MapOnce { job: job.clone() })
                .collect();
            // A fresh service allocates session id 1 to the first open.
            requests.extend(mimd_service::trace_requests(
                &header, &trace, *seed, None, 1,
            ));
            requests.push(Request::Stats);
            Ok(Prepared::ServiceStream(requests))
        }
        ScenarioKind::ServiceLoad {
            sessions,
            connections,
            shards,
            queue_depth,
            tasks,
            topology,
            events,
            seed,
        } => {
            let (header, trace) =
                synthesize_trace(*tasks, topology.clone(), *events, "mixed", *seed)?;
            Ok(Prepared::ServiceLoad {
                header,
                events: trace,
                sessions: *sessions,
                connections: *connections,
                shards: *shards,
                queue_depth: *queue_depth,
                seed: *seed,
            })
        }
    }
}

/// Generate a churn trace the way `mimd loadgen` does: a layered DAG
/// from `GeneratorConfig { tasks, ..default() }` (not the
/// locality-window `layered` workload `mimd trace` builds), region
/// clustering sized to the machine, then valid churn events.
fn synthesize_trace(
    tasks: usize,
    topology: mimd_engine::TopologySpec,
    events: usize,
    regime: &str,
    seed: u64,
) -> Result<(TraceHeader, Vec<mimd_online::TraceEvent>), String> {
    let regime = ChurnRegime::parse(regime)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let system = topology.build(&mut rng).map_err(|e| e.to_string())?;
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks,
        ..GeneratorConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let base = ClusteringSpec::Region.instance(gen.generate(&mut rng), system.len(), &mut rng)?;
    Ok(mimd_online::synthesize_trace(
        topology, seed, &base, events, regime, &mut rng,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_engine::{AlgorithmSpec, TopologySpec, WorkloadSpec};

    /// A miniature suite, one scenario per kind, sized for debug-mode
    /// unit tests.
    fn mini_suite() -> BenchSuite {
        BenchSuite {
            name: "mini".into(),
            reps: 2,
            scenarios: vec![
                Scenario {
                    name: "job_fft_ring4".into(),
                    kind: ScenarioKind::Job {
                        job: JobSpec {
                            id: None,
                            workload: WorkloadSpec::Fft { log2n: 3 },
                            clustering: None,
                            topology: TopologySpec::Ring { n: 4 },
                            topology_seed: None,
                            algorithm: AlgorithmSpec::Paper {
                                refine_iterations: None,
                                exchange_pool: 0,
                            },
                            seed: 5,
                        },
                    },
                },
                Scenario {
                    name: "replay_ring4".into(),
                    kind: ScenarioKind::Replay {
                        tasks: 24,
                        topology: TopologySpec::Ring { n: 4 },
                        events: 6,
                        regime: "mixed".into(),
                        scratch: false,
                        seed: 3,
                    },
                },
                Scenario {
                    name: "stream_ring4".into(),
                    kind: ScenarioKind::ServiceStream {
                        jobs: vec![JobSpec {
                            id: None,
                            workload: WorkloadSpec::Fft { log2n: 3 },
                            clustering: None,
                            topology: TopologySpec::Ring { n: 4 },
                            topology_seed: None,
                            algorithm: AlgorithmSpec::Random { k: 4 },
                            seed: 5,
                        }],
                        session_tasks: 24,
                        session_topology: TopologySpec::Ring { n: 4 },
                        session_events: 4,
                        seed: 3,
                    },
                },
                Scenario {
                    name: "load_ring4".into(),
                    kind: ScenarioKind::ServiceLoad {
                        sessions: 4,
                        connections: 2,
                        shards: 2,
                        queue_depth: 64,
                        tasks: 24,
                        topology: TopologySpec::Ring { n: 4 },
                        events: 3,
                        seed: 3,
                    },
                },
            ],
        }
    }

    #[test]
    fn mini_suite_runs_every_kind_and_measures() {
        let suite = mini_suite();
        let report = run_suite(&suite, 2).unwrap();
        assert_eq!(report.suite, "mini");
        assert_eq!(report.fingerprint, suite.fingerprint());
        assert_eq!(report.scenarios.len(), 4);
        for s in &report.scenarios {
            assert_eq!(s.reps, 2, "{}", s.name);
            assert_eq!(s.rep_wall_ns.len(), 2, "{}", s.name);
            assert!(s.wall_ns > 0 && s.items > 0, "{}", s.name);
            assert_eq!(s.wall_ns, *s.rep_wall_ns.iter().min().unwrap());
            assert!(s.items_per_sec > 0.0, "{}", s.name);
            if s.kind == "service_load" {
                // Throughput scenario: no mapping-quality score.
                assert!(s.quality_percent_over.is_none(), "{}", s.name);
            } else {
                let q = s.quality_percent_over.expect("mapping scenarios score");
                assert!(q >= 100.0, "{}: {q}", s.name);
            }
            assert!(s.cache.is_some(), "{}", s.name);
            assert!(!s.latency.is_empty(), "{}: telemetry captured", s.name);
        }
        assert_eq!(report.scenarios[0].kind, "job:paper");
        assert_eq!(report.scenarios[1].kind, "replay");
        assert_eq!(report.scenarios[2].kind, "service_stream");
        assert_eq!(report.scenarios[3].kind, "service_load");
        // The stream answered its map + session traffic.
        let stream = &report.scenarios[2];
        assert_eq!(stream.items, 1 + (4 + 2) + 1, "jobs + session + stats");
        // The load scenario answered every session chain in full.
        let load = &report.scenarios[3];
        assert_eq!(
            load.items,
            4 * (3 + 2),
            "sessions x (open + events + close)"
        );
        assert_eq!(load.metrics["sessions_closed"], 4.0);
    }

    #[test]
    fn quality_is_deterministic_across_runs() {
        let suite = mini_suite();
        let a = run_suite(&suite, 1).unwrap();
        let b = run_suite(&suite, 1).unwrap();
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.quality_percent_over, y.quality_percent_over, "{}", x.name);
            assert_eq!(x.items, y.items, "{}", x.name);
            assert_eq!(x.metrics, y.metrics, "{}", x.name);
            assert_eq!(x.cache, y.cache, "{}", x.name);
        }
    }

    #[test]
    fn impossible_scenarios_fail_with_context() {
        let suite = BenchSuite {
            name: "bad".into(),
            reps: 1,
            scenarios: vec![Scenario {
                name: "too_small".into(),
                kind: ScenarioKind::Replay {
                    tasks: 2,
                    topology: TopologySpec::Ring { n: 8 },
                    events: 1,
                    regime: "mixed".into(),
                    scratch: false,
                    seed: 1,
                },
            }],
        };
        let err = run_suite(&suite, 1).unwrap_err();
        assert!(err.contains("too_small"), "{err}");
        let mut suite = suite;
        suite.scenarios[0].kind = ScenarioKind::Replay {
            tasks: 24,
            topology: TopologySpec::Ring { n: 4 },
            events: 1,
            regime: "wat".into(),
            scratch: false,
            seed: 1,
        };
        assert!(run_suite(&suite, 1).is_err(), "bad regime");
    }
}
