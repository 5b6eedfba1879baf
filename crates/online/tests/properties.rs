//! Property tests for the online invariants: incremental assignments
//! always pass `mimd_core::validate_schedule`, the recorded totals and
//! lower bounds match independent derivations, and same-seed replay of
//! the same trace is bit-for-bit reproducible.

use std::sync::Arc;

use proptest::prelude::*;

use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{validate_schedule, IdealSchedule};
use mimd_multilevel::SystemHierarchy;
use mimd_online::{replay_trace, DynamicWorkload, IncrementalMapper, OnlineConfig, TraceHeader};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_telemetry::Recorder;
use mimd_topology::{SystemGraph, TopologySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
