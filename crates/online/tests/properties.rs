//! Property tests for the online invariants: incremental assignments
//! always pass `mimd_core::validate_schedule`, the recorded totals and
//! lower bounds match independent derivations, the live instance a
//! session repairs prices every candidate as a fresh attach to the
//! materialized graph would, and same-seed replay of the same trace is
//! bit-for-bit reproducible.

use std::sync::Arc;

use proptest::prelude::*;

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{validate_schedule, Assignment, IdealSchedule};
use mimd_multilevel::SystemHierarchy;
use mimd_online::{
    replay_trace, DynamicWorkload, IncrementalMapper, OnlineConfig, OnlineSession, TraceEvent,
    TraceHeader,
};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, TaskId};
use mimd_telemetry::Recorder;
use mimd_topology::{SystemGraph, TopologySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Machines big enough to force real V-cycles and meaningful regions.
fn topology(index: usize) -> (TopologySpec, SystemGraph) {
    let specs = [
        TopologySpec::Mesh { rows: 6, cols: 8 },
        TopologySpec::Torus { rows: 7, cols: 7 },
        TopologySpec::Hypercube { dim: 6 },
        TopologySpec::FatTree {
            levels: 3,
            arity: 6,
        },
    ];
    let spec = specs[index % specs.len()].clone();
    let mut rng = StdRng::seed_from_u64(index as u64);
    let system = spec.build(&mut rng).expect("pool specs are valid");
    (spec, system)
}

fn instance(extra: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: ns + extra,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// After an event, the session's live instance agrees with the graph
/// its workload materializes: the committed total with
/// `evaluate_assignment`, the bound with `IdealSchedule::derive`, and a
/// random candidate priced on the live instance with the same
/// candidate staged on a fresh attach.
fn assert_live_matches_fresh(
    session: &mut OnlineSession,
    system: &SystemGraph,
    total: u64,
    bound: u64,
    rng: &mut StdRng,
) {
    let graph = session.workload().materialize().unwrap();
    let eval = evaluate_assignment(
        &graph,
        system,
        session.assignment(),
        EvaluationModel::Precedence,
    )
    .unwrap();
    assert_eq!(total, eval.total(), "committed total");
    assert_eq!(bound, IdealSchedule::derive(&graph).lower_bound(), "bound");
    let committed = session.assignment().clone();
    assert_eq!(session.price(&committed).unwrap(), total);
    let candidate = Assignment::random(system.len(), rng);
    let mut ws = DeltaWorkspace::new();
    let mut fresh = DeltaEvaluator::attach(
        &mut ws,
        &graph,
        system,
        EvaluationModel::Precedence,
        session.assignment(),
    )
    .unwrap();
    assert_eq!(
        session.price(&candidate).unwrap(),
        fresh.stage_candidate(&candidate),
        "staged candidate"
    );
}

/// A trace a churn generator never writes: arrivals wired *into* older
/// tasks (edges against the id order, which renumber the workload's
/// rows) as well as out of them, departures until
/// a cluster is down to one task (the next one is refused), weight
/// changes and removals of live edges, and global rescales. Events are
/// drawn against a shadow workload so most apply; the cycle-closing
/// and cluster-emptying ones come back as error records.
fn hand_written_trace(base: &ClusteredProblemGraph, len: usize, seed: u64) -> Vec<TraceEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow = DynamicWorkload::from_clustered(base);
    let mut events = Vec::with_capacity(len);
    while events.len() < len {
        let tasks: Vec<TaskId> = shadow.task_ids().collect();
        let edges: Vec<(TaskId, TaskId, u64)> = shadow.edge_list().collect();
        let pick = |rng: &mut StdRng| tasks[rng.gen_range(0..tasks.len())];
        let event = match rng.gen_range(0..9) {
            0 => TraceEvent::AddTask {
                task: shadow.next_task_id(),
                size: rng.gen_range(1..=20),
                cluster: rng.gen_range(0..shadow.num_clusters()),
            },
            // The newest task feeds an older one: against the order.
            1 => TraceEvent::AddEdge {
                from: *tasks.last().unwrap(),
                to: pick(&mut rng),
                weight: rng.gen_range(1..=12),
            },
            2 => TraceEvent::AddEdge {
                from: pick(&mut rng),
                to: pick(&mut rng),
                weight: rng.gen_range(1..=12),
            },
            // Departures from cluster 0 until it has one task left.
            3 | 4 => {
                let in_zero: Vec<TaskId> = tasks
                    .iter()
                    .copied()
                    .filter(|&t| shadow.cluster_of(t) == Some(0))
                    .collect();
                TraceEvent::RemoveTask {
                    task: in_zero[rng.gen_range(0..in_zero.len())],
                }
            }
            5 => TraceEvent::RemoveTask {
                task: pick(&mut rng),
            },
            6 if !edges.is_empty() => {
                let (from, to, _) = edges[rng.gen_range(0..edges.len())];
                TraceEvent::SetEdgeWeight {
                    from,
                    to,
                    weight: rng.gen_range(1..=40),
                }
            }
            7 if !edges.is_empty() => {
                let (from, to, _) = edges[rng.gen_range(0..edges.len())];
                TraceEvent::RemoveEdge { from, to }
            }
            8 if rng.gen_range(0..4) == 0 => TraceEvent::ScaleEdgeWeights {
                percent: rng.gen_range(50..=180),
            },
            _ => TraceEvent::SetTaskSize {
                task: pick(&mut rng),
                size: rng.gen_range(1..=30),
            },
        };
        let _ = shadow.apply(&event);
        events.push(event);
    }
    events
}

/// Replay `trace` and check the live instance after every event.
/// Returns the session's telemetry.
fn replay_checking_the_live_instance(
    system: &SystemGraph,
    base: &ClusteredProblemGraph,
    trace: &[TraceEvent],
    config: OnlineConfig,
    seed: u64,
) -> mimd_telemetry::TelemetrySnapshot {
    let recorder = Recorder::enabled();
    let hierarchy = Arc::new(SystemHierarchy::build(system).unwrap());
    let (mut session, init) = IncrementalMapper::with_config(config)
        .with_recorder(recorder.clone())
        .begin(DynamicWorkload::from_clustered(base), hierarchy, seed)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    assert_live_matches_fresh(
        &mut session,
        system,
        init.total_time,
        init.lower_bound,
        &mut rng,
    );
    for event in trace {
        let before = (session.assignment().clone(), session.workload().clone());
        let record = session.apply(event);
        if record.error.is_some() {
            assert_eq!(session.assignment(), &before.0, "{event:?}");
            assert_eq!(session.workload(), &before.1, "{event:?}");
        }
        assert_live_matches_fresh(
            &mut session,
            system,
            record.total_time,
            record.lower_bound,
            &mut rng,
        );
    }
    recorder.snapshot()
}

#[test]
fn hand_written_traces_keep_the_live_instance_exact() {
    for (topo, seed) in [(0usize, 1u64), (1, 2), (2, 3), (3, 4)] {
        let (_, system) = topology(topo);
        let base = instance(40, system.len(), seed);
        let trace = hand_written_trace(&base, 120, seed);
        // Every local event incremental (edges against the order
        // renumber the rows), then the default drift meter.
        for staleness_threshold in [f64::INFINITY, 0.25] {
            let config = OnlineConfig {
                staleness_threshold,
                ..OnlineConfig::default()
            };
            let t = replay_checking_the_live_instance(&system, &base, &trace, config, seed);
            assert!(
                t.counter("online.errors") > 0,
                "the trace has refused events"
            );
            assert_eq!(
                t.counter("online.materializations"),
                t.counter("online.fallbacks") + 1,
                "only V-cycles materialize, not edges against the order: {t:?}"
            );
            assert!(
                t.counter("online.compactions") > 0,
                "edges against the order renumber: {t:?}"
            );
        }
    }
}

#[test]
fn a_replay_churn_shaped_trace_materializes_only_on_full_remaps() {
    // `replay_churn`'s shape: a layered DAG of 2 tasks per processor on
    // a torus, region clustering, mixed churn (edges old -> new only).
    let system = TopologySpec::Torus { rows: 8, cols: 8 }
        .build(&mut StdRng::seed_from_u64(0))
        .unwrap();
    let base = instance(64, 64, 29);
    let mut rng = StdRng::seed_from_u64(29);
    let trace = churn_trace(&base, 120, ChurnRegime::Mixed, &mut rng);
    let t = replay_checking_the_live_instance(&system, &base, &trace, OnlineConfig::default(), 29);
    assert!(t.counter("online.incremental") > 0);
    assert!(t.counter("online.fallbacks") > 0);
    // One rebuild at begin, one per full remap, none per local event.
    assert_eq!(
        t.counter("online.materializations"),
        t.counter("online.fallbacks") + 1
    );
}

#[test]
fn a_full_permutation_prices_exactly_on_a_patched_instance() {
    // Every cluster moves, so the candidate takes the delta evaluator's
    // dense sweep — on a live instance that patches have left with
    // tombstones and rows moved to their pools' tails, never
    // re-attached since `begin`.
    for topo in 0..4 {
        let (_, system) = topology(topo);
        let ns = system.len();
        let base = instance(40, ns, 50 + topo as u64);
        let recorder = Recorder::enabled();
        let config = OnlineConfig {
            staleness_threshold: f64::INFINITY,
            ..OnlineConfig::default()
        };
        let (mut session, _) = IncrementalMapper::with_config(config)
            .with_recorder(recorder.clone())
            .begin(
                DynamicWorkload::from_clustered(&base),
                Arc::new(SystemHierarchy::build(&system).unwrap()),
                7,
            )
            .unwrap();
        let mut rng = StdRng::seed_from_u64(topo as u64);
        for _ in 0..12 {
            let workload = session.workload();
            let tasks: Vec<TaskId> = workload.task_ids().collect();
            let mut owned = vec![0; ns];
            for &t in &tasks {
                owned[workload.cluster_of(t).unwrap()] += 1;
            }
            let shared: Vec<TaskId> = tasks
                .iter()
                .copied()
                .filter(|&t| owned[workload.cluster_of(t).unwrap()] >= 2)
                .collect();
            let new = workload.next_task_id();
            // An arrival fed by an older task, whose successor row
            // moves to its pool's tail, and a departure, which leaves a
            // tombstone.
            let events = [
                TraceEvent::AddTask {
                    task: new,
                    size: rng.gen_range(1..=20),
                    cluster: rng.gen_range(0..ns),
                },
                TraceEvent::AddEdge {
                    from: tasks[rng.gen_range(0..tasks.len())],
                    to: new,
                    weight: rng.gen_range(1..=12),
                },
                TraceEvent::RemoveTask {
                    task: shared[rng.gen_range(0..shared.len())],
                },
            ];
            for event in &events {
                let record = session.apply(event);
                assert_eq!(record.error, None, "{event:?}");
            }
        }
        let t = recorder.snapshot();
        assert_eq!(t.counter("online.materializations"), 1, "patched only");
        assert_eq!(t.counter("online.fallbacks"), 0);

        let committed = session.assignment().clone();
        let rotated =
            Assignment::from_sys_of((0..ns).map(|c| (committed.sys_of(c) + 1) % ns).collect())
                .unwrap();
        let graph = session.workload().materialize().unwrap();
        let mut ws = DeltaWorkspace::new();
        let mut fresh = DeltaEvaluator::attach(
            &mut ws,
            &graph,
            &system,
            EvaluationModel::Precedence,
            &committed,
        )
        .unwrap();
        let priced = session.price(&rotated).unwrap();
        assert_eq!(priced, fresh.stage_candidate(&rotated), "topology {topo}");
        let full = evaluate_assignment(&graph, &system, &rotated, EvaluationModel::Precedence);
        assert_eq!(priced, full.unwrap().total(), "topology {topo}");
        assert_eq!(session.assignment(), &committed, "pricing changes nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// In every churn regime, the live instance agrees with a fresh
    /// attach to the materialized workload after every event.
    #[test]
    fn live_instance_matches_a_fresh_attach_on_every_event(
        topo in 0usize..4,
        extra in 16usize..96,
        events in 5usize..40,
        regime in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (_, system) = topology(topo);
        let base = instance(extra, system.len(), seed);
        let regime = [ChurnRegime::Arrivals, ChurnRegime::Drift, ChurnRegime::Mixed][regime];
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = churn_trace(&base, events, regime, &mut rng);
        let t = replay_checking_the_live_instance(
            &system,
            &base,
            &trace,
            OnlineConfig::default(),
            seed,
        );
        prop_assert_eq!(
            t.counter("online.materializations"),
            t.counter("online.fallbacks") + 1
        );
    }

    /// After every event the session's assignment is a bijection whose
    /// derived schedule passes the core validator, and the record's
    /// total matches an independent evaluation.
    #[test]
    fn incremental_assignments_always_validate(
        topo in 0usize..4,
        extra in 16usize..96,
        events in 5usize..40,
        regime in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (_, system) = topology(topo);
        let ns = system.len();
        let base = instance(extra, ns, seed);
        let regime = [ChurnRegime::Arrivals, ChurnRegime::Drift, ChurnRegime::Mixed][regime];
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = churn_trace(&base, events, regime, &mut rng);

        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let (mut session, init) = IncrementalMapper::new()
            .begin(DynamicWorkload::from_clustered(&base), hierarchy, seed)
            .unwrap();
        prop_assert!(init.total_time >= init.lower_bound);
        for event in &trace {
            let record = session.apply(event);
            prop_assert!(record.error.is_none(), "{:?}", record.error);
            let graph = session.workload().materialize().unwrap();
            // Bijection: re-validation through the constructor.
            let rebuilt = mimd_core::Assignment::from_sys_of(
                session.assignment().sys_of_vec().to_vec(),
            )
            .unwrap();
            prop_assert_eq!(&rebuilt, session.assignment());
            // Recorded total matches an independent evaluation, and the
            // schedule is feasible.
            let eval = evaluate_assignment(
                &graph,
                &system,
                session.assignment(),
                EvaluationModel::Precedence,
            )
            .unwrap();
            prop_assert_eq!(eval.total(), record.total_time);
            prop_assert!(record.total_time >= record.lower_bound);
            let violations = validate_schedule(
                &graph,
                &system,
                session.assignment(),
                &eval.schedule,
                EvaluationModel::Precedence,
            );
            prop_assert!(violations.is_empty(), "{:?}", violations);
        }
    }

    /// Every record's lower bound is the ideal schedule of the workload
    /// as it stands after that event (the init record too); a rejected
    /// event leaves the recorded bound where it was.
    #[test]
    fn incremental_bound_equals_scratch_on_every_event(
        topo in 0usize..4,
        extra in 16usize..96,
        events in 5usize..40,
        regime in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (_, system) = topology(topo);
        let ns = system.len();
        let base = instance(extra, ns, seed);
        let regime = [ChurnRegime::Arrivals, ChurnRegime::Drift, ChurnRegime::Mixed][regime];
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = churn_trace(&base, events, regime, &mut rng);

        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let (mut session, init) = IncrementalMapper::new()
            .begin(DynamicWorkload::from_clustered(&base), hierarchy, seed)
            .unwrap();
        prop_assert_eq!(init.lower_bound, IdealSchedule::derive(&base).lower_bound());
        let mut bound = init.lower_bound;
        for event in &trace {
            let record = session.apply(event);
            if record.error.is_some() {
                prop_assert_eq!(record.lower_bound, bound, "{:?}", event);
                continue;
            }
            let scratch = IdealSchedule::derive(&session.workload().materialize().unwrap())
                .lower_bound();
            prop_assert_eq!(record.lower_bound, scratch, "{:?}", event);
            bound = record.lower_bound;
        }
    }

    /// Replaying the same trace with the same seed is bit-for-bit
    /// reproducible (records and final assignment alike).
    #[test]
    fn same_seed_replay_is_reproducible(
        topo in 0usize..4,
        extra in 16usize..64,
        events in 5usize..30,
        seed in 0u64..1_000_000,
    ) {
        let (spec, system) = topology(topo);
        let ns = system.len();
        let base = instance(extra, ns, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let trace = churn_trace(&base, events, ChurnRegime::Mixed, &mut rng);
        let header = TraceHeader {
            topology: spec,
            topology_seed: Some(topo as u64),
            snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
        };
        let run = || {
            let mut lines = String::new();
            let summary = replay_trace(
                &header,
                &trace,
                &OnlineConfig::default(),
                Some(Arc::new(SystemHierarchy::build(&system).unwrap())),
                seed,
                &Recorder::disabled(),
                |r| {
                    lines.push_str(&r.to_json_line());
                    lines.push('\n');
                },
            )
            .unwrap();
            (lines, summary)
        };
        let (lines_a, summary_a) = run();
        let (lines_b, summary_b) = run();
        prop_assert_eq!(lines_a, lines_b);
        prop_assert_eq!(summary_a, summary_b);
    }
}
