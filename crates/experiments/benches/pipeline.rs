//! B2: cost of each pipeline stage and of the full mapping.
//!
//! Ideal-graph derivation, critical-edge analysis, initial assignment,
//! paper refinement, and the end-to-end `Mapper::map`, at the paper's
//! operating points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::ideal::IdealSchedule;
use mimd_core::initial::initial_assignment;
use mimd_core::refine::{refine, RefineConfig};
use mimd_core::Mapper;
use mimd_experiments::harness::build_instance;
use mimd_taskgraph::AbstractGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_stages(c: &mut Criterion) {
    let system = mimd_topology::hypercube(4).unwrap(); // ns = 16
    let mut rng = StdRng::seed_from_u64(2);
    let graph = build_instance(200, system.len(), &mut rng);
    let ideal = IdealSchedule::derive(&graph);
    let critical = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);
    let abstract_graph = AbstractGraph::new(&graph);
    let init = initial_assignment(&graph, &abstract_graph, &critical, &system).unwrap();

    let mut group = c.benchmark_group("pipeline_stages_np200_ns16");
    group.bench_function("ideal_schedule", |b| {
        b.iter(|| IdealSchedule::derive(&graph))
    });
    group.bench_function("critical_analysis", |b| {
        b.iter(|| CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact))
    });
    group.bench_function("abstract_graph", |b| b.iter(|| AbstractGraph::new(&graph)));
    group.bench_function("initial_assignment", |b| {
        b.iter(|| initial_assignment(&graph, &abstract_graph, &critical, &system).unwrap())
    });
    group.bench_function("refinement_ns_iters", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            refine(
                &graph,
                &system,
                &init.assignment,
                &init.critical,
                ideal.lower_bound(),
                &RefineConfig::paper(system.len()),
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_full_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper_full");
    for (np, dim) in [(60usize, 3u32), (150, 4), (300, 5)] {
        let system = mimd_topology::hypercube(dim).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let graph = build_instance(np, system.len(), &mut rng);
        group.bench_with_input(
            BenchmarkId::new("map", format!("np{np}_ns{}", system.len())),
            &np,
            |b, _| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(5);
                    Mapper::new().map(&graph, &system, &mut rng).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stages, bench_full_map);
criterion_main!(benches);
