//! Refinement hot path: candidate-evaluation throughput, flat
//! (from-scratch `evaluate_total`) vs the incremental `DeltaEvaluator`.
//!
//! The candidate kind is the pairwise exchange — the unit of the
//! gain-guided exchange pass and of every KL/FM-style smoother: swap
//! two clusters, price the result, roll back. The flat arm re-evaluates
//! the whole schedule per candidate; the delta arm recomputes only the
//! disturbed scheduling cone, allocation-free. Both arms price the
//! *same* seeded candidate list and their summed totals are asserted
//! equal, so the speedup is measured on bit-identical work.
//!
//! Besides the criterion group this writes `BENCH_refine.json` at the
//! workspace root — a versioned [`mimd_bench::BenchReport`] with one
//! `micro:refine` scenario per machine size (min-of-N delta wall
//! times; flat wall times and the delta-vs-flat speedup ride along in
//! `metrics`; acceptance target: ≥ 5× at ns = 1024) — and appends the
//! same report to `BENCH_history.jsonl`. Random full re-placements
//! (the paper's §4.3.3 rounds) disturb every cluster at once, so they
//! gain far less from delta evaluation — the exchange path is where
//! the cone locality pays.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::evaluate::evaluate_total;
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::{torus2d, SystemGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One benchmark machine size: a 2-D torus and a layered DAG with
/// `2 × ns` tasks region-clustered onto it.
struct Case {
    ns: usize,
    graph: ClusteredProblemGraph,
    system: SystemGraph,
    start: Assignment,
    /// Seeded swap candidates `(a, b)`, identical for both arms.
    pairs: Vec<(usize, usize)>,
}

fn case(side: usize, candidates: usize) -> Case {
    let ns = side * side;
    let mut rng = StdRng::seed_from_u64(ns as u64);
    // Wide, locality-windowed layers: the stencil-/FEM-like shape the
    // paper's workloads have at machine scale. Width grows with the
    // machine so the DAG stays shallow instead of degenerating into a
    // deep chain where any swap disturbs every downstream layer.
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 4 * ns,
        avg_width: (ns / 4).max(6),
        locality_window: Some(8),
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
    let graph = ClusteredProblemGraph::new(problem, clustering).unwrap();
    let system = torus2d(side, side).unwrap();
    let start = Assignment::random(ns, &mut rng);
    let pairs = (0..candidates)
        .map(|_| {
            let a = rng.gen_range(0..ns);
            let b = (a + 1 + rng.gen_range(0..ns - 1)) % ns;
            (a, b)
        })
        .collect();
    Case {
        ns,
        graph,
        system,
        start,
        pairs,
    }
}

/// Flat arm: apply the swap, evaluate from scratch, swap back.
fn flat_arm(case: &Case) -> u64 {
    let mut assignment = case.start.clone();
    let mut checksum = 0u64;
    for &(a, b) in &case.pairs {
        assignment.swap_clusters(a, b);
        checksum = checksum.wrapping_add(
            evaluate_total(
                &case.graph,
                &case.system,
                &assignment,
                EvaluationModel::Precedence,
            )
            .unwrap(),
        );
        assignment.swap_clusters(a, b);
    }
    checksum
}

/// Delta arm: stage the swap, read the total, roll back — only the
/// disturbed cone is recomputed, nothing is allocated.
fn delta_arm(case: &Case, ws: &mut DeltaWorkspace) -> u64 {
    let mut evaluator = DeltaEvaluator::attach(
        ws,
        &case.graph,
        &case.system,
        EvaluationModel::Precedence,
        &case.start,
    )
    .unwrap();
    let mut checksum = 0u64;
    for &(a, b) in &case.pairs {
        checksum = checksum.wrapping_add(evaluator.stage_swap(a, b));
        evaluator.discard();
    }
    checksum
}

fn bench_refine_candidates(c: &mut Criterion) {
    const CANDIDATES: usize = 200;
    const REPS: usize = 5;

    let mut group = c.benchmark_group("refine_candidate_throughput_torus");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CANDIDATES as u64));

    let mut scenarios = Vec::new();
    for side in [8usize, 16, 32] {
        let case = case(side, CANDIDATES);
        let mut ws = DeltaWorkspace::new();

        // The arms must price identical candidates identically.
        assert_eq!(
            flat_arm(&case),
            delta_arm(&case, &mut ws),
            "delta totals diverged from full evaluation at ns={}",
            case.ns
        );

        let mut flat_reps = Vec::with_capacity(REPS);
        let mut delta_reps = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(flat_arm(&case));
            flat_reps.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            std::hint::black_box(delta_arm(&case, &mut ws));
            delta_reps.push(t.elapsed().as_nanos() as u64);
        }
        let flat_ns = *flat_reps.iter().min().unwrap();
        let delta_ns = *delta_reps.iter().min().unwrap();
        let per_sec = |total_ns: u64| CANDIDATES as f64 / (total_ns as f64 / 1e9);
        scenarios.push(mimd_bench::ScenarioReport {
            name: format!("refine_delta_torus{side}x{side}"),
            kind: "micro:refine".into(),
            reps: REPS,
            items: CANDIDATES,
            wall_ns: delta_ns,
            rep_wall_ns: delta_reps,
            items_per_sec: per_sec(delta_ns),
            quality_percent_over: None,
            cache: None,
            latency: Default::default(),
            metrics: [
                ("flat_ns".to_string(), flat_ns as f64),
                ("flat_candidates_per_sec".to_string(), per_sec(flat_ns)),
                ("speedup".to_string(), flat_ns as f64 / delta_ns as f64),
            ]
            .into_iter()
            .collect(),
        });

        group.bench_with_input(BenchmarkId::new("flat", case.ns), &case, |b, case| {
            b.iter(|| flat_arm(case))
        });
        group.bench_with_input(BenchmarkId::new("delta", case.ns), &case, |b, case| {
            b.iter(|| delta_arm(case, &mut ws))
        });
    }
    group.finish();

    let fingerprint = mimd_bench::fnv64_hex(
        format!("micro_refine:pairwise_exchange:precedence:sides=8,16,32:candidates={CANDIDATES}")
            .as_bytes(),
    );
    let report =
        mimd_bench::BenchReport::new("micro_refine", &fingerprint, scenarios).with_environment();
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_refine.json"),
        report.to_json_pretty() + "\n",
    )
    .expect("write BENCH_refine.json");
    mimd_bench::append_history(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl"),
        &report,
    )
    .expect("append BENCH_history.jsonl");
}

criterion_group!(benches, bench_refine_candidates);
criterion_main!(benches);
