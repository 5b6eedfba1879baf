//! Determinism guarantees: identical seeds reproduce identical results
//! through every stochastic component, and the deterministic components
//! are pure functions.

use mimd::baselines::annealing::{simulated_annealing, AnnealingSchedule};
use mimd::baselines::bokhari::bokhari_mapping;
use mimd::baselines::lee::{lee_mapping, phases_by_level};
use mimd::baselines::random_map::random_baseline;
use mimd::core::schedule::EvaluationModel;
use mimd::core::{Mapper, MapperConfig};
use mimd::taskgraph::clustering::region::random_region_clustering;
use mimd::taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd::topology::{hypercube, random_topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 60,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let p = gen.generate(&mut rng);
    let c = random_region_clustering(&p, 8, &mut rng).unwrap();
    ClusteredProblemGraph::new(p, c).unwrap()
}

#[test]
fn generator_and_clustering_reproduce() {
    assert_eq!(instance(5), instance(5));
    assert_ne!(instance(5), instance(6));
}

#[test]
fn random_topologies_reproduce() {
    let a = random_topology(12, 0.2, &mut StdRng::seed_from_u64(9)).unwrap();
    let b = random_topology(12, 0.2, &mut StdRng::seed_from_u64(9)).unwrap();
    assert_eq!(a.graph(), b.graph());
}

#[test]
fn mapper_reproduces_per_seed() {
    let graph = instance(1);
    let system = hypercube(3).unwrap();
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Mapper::new().map(&graph, &system, &mut rng).unwrap()
    };
    let (a, b) = (run(3), run(3));
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.refinement.iterations_used, b.refinement.iterations_used);
}

#[test]
fn mapper_config_changes_results_not_invariants() {
    let graph = instance(2);
    let system = hypercube(3).unwrap();
    for config in [
        MapperConfig::default(),
        MapperConfig {
            refine_iterations: Some(0),
            ..MapperConfig::default()
        },
        MapperConfig {
            respect_pins: false,
            ..MapperConfig::default()
        },
        MapperConfig {
            unpinned_fallback: false,
            ..MapperConfig::default()
        },
        MapperConfig {
            model: EvaluationModel::Serialized,
            ..MapperConfig::default()
        },
    ] {
        let mut rng = StdRng::seed_from_u64(4);
        let r = Mapper::with_config(config)
            .map(&graph, &system, &mut rng)
            .unwrap();
        assert!(r.total_time >= r.lower_bound);
    }
}

#[test]
fn baselines_reproduce_per_seed() {
    let graph = instance(3);
    let system = hypercube(3).unwrap();
    let phases = phases_by_level(&graph);

    let b1 = bokhari_mapping(&graph, &system, 10, &mut StdRng::seed_from_u64(1)).unwrap();
    let b2 = bokhari_mapping(&graph, &system, 10, &mut StdRng::seed_from_u64(1)).unwrap();
    assert_eq!(b1, b2);

    let l1 = lee_mapping(&graph, &system, &phases, 5, &mut StdRng::seed_from_u64(2)).unwrap();
    let l2 = lee_mapping(&graph, &system, &phases, 5, &mut StdRng::seed_from_u64(2)).unwrap();
    assert_eq!(l1, l2);

    let s1 = simulated_annealing(
        &graph,
        &system,
        None,
        0,
        &AnnealingSchedule::quench(8),
        EvaluationModel::Precedence,
        &mut StdRng::seed_from_u64(3),
    )
    .unwrap();
    let s2 = simulated_annealing(
        &graph,
        &system,
        None,
        0,
        &AnnealingSchedule::quench(8),
        EvaluationModel::Precedence,
        &mut StdRng::seed_from_u64(3),
    )
    .unwrap();
    assert_eq!(s1.total, s2.total);

    let r1 = random_baseline(
        &graph,
        &system,
        EvaluationModel::Precedence,
        16,
        &mut StdRng::seed_from_u64(4),
    )
    .unwrap();
    let r2 = random_baseline(
        &graph,
        &system,
        EvaluationModel::Precedence,
        16,
        &mut StdRng::seed_from_u64(4),
    )
    .unwrap();
    assert_eq!(r1, r2);
}
