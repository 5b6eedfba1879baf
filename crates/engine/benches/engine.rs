//! Batch throughput: the engine's thread pool + topology cache against
//! a naive per-job serial loop that rebuilds the topology every time.
//!
//! The acceptance target: on ≥ 4 threads the engine sustains ≥ 2× the
//! naive serial throughput on a 100-job batch (10 workloads × 10 seeds
//! on one 16-node hypercube).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mimd_engine::{
    execute_job, AlgorithmSpec, Engine, EngineConfig, JobSpec, TopologyCache, TopologySpec,
    WorkloadSpec,
};
use mimd_telemetry::Recorder;

/// 10 workloads × 10 seeds on one 16-node hypercube = 100 jobs.
fn batch_100() -> Vec<JobSpec> {
    let workloads = [
        WorkloadSpec::Layered {
            tasks: 64,
            width: None,
        },
        WorkloadSpec::Layered {
            tasks: 96,
            width: None,
        },
        WorkloadSpec::PaperRegime { tasks: 80 },
        WorkloadSpec::PaperRegime { tasks: 120 },
        WorkloadSpec::GaussianElimination { n: 12 },
        WorkloadSpec::Stencil {
            width: 16,
            steps: 6,
        },
        WorkloadSpec::Fft { log2n: 4 },
        WorkloadSpec::DivideAndConquer { depth: 5 },
        WorkloadSpec::Pipeline {
            stages: 4,
            tasks: 16,
        },
        WorkloadSpec::Layered {
            tasks: 128,
            width: None,
        },
    ];
    let mut jobs = Vec::with_capacity(100);
    for workload in &workloads {
        for seed in 0..10u64 {
            jobs.push(JobSpec {
                id: None,
                workload: workload.clone(),
                clustering: None,
                topology: TopologySpec::Hypercube { dim: 4 },
                topology_seed: None,
                algorithm: AlgorithmSpec::Paper {
                    refine_iterations: None,
                    exchange_pool: 0,
                },
                seed,
            });
        }
    }
    jobs
}

/// The baseline a resource manager would write first: map each job in
/// sequence, recomputing topology artifacts per job (fresh cache).
fn naive_serial(jobs: &[JobSpec]) -> usize {
    let mut completed = 0;
    for (i, job) in jobs.iter().enumerate() {
        let fresh_cache = TopologyCache::new();
        let result = execute_job(job, i, &fresh_cache, &Recorder::disabled());
        assert!(result.error.is_none());
        completed += 1;
    }
    completed
}

fn bench_batch_throughput(c: &mut Criterion) {
    let jobs = batch_100();
    let mut group = c.benchmark_group("engine_batch_100jobs_hypercube16");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));

    group.bench_function("naive_serial_loop", |b| b.iter(|| naive_serial(&jobs)));

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("engine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let engine = Engine::new(EngineConfig {
                        threads,
                        ..EngineConfig::default()
                    });
                    let results = engine.run_batch(&jobs);
                    assert!(results.iter().all(|r| r.error.is_none()));
                    results.len()
                })
            },
        );
    }
    group.finish();
}

/// Where the engine wins even on one core: a batch against a large
/// machine, where per-job topology precomputation (APSP + routing
/// table) rivals the mapping itself. The naive loop pays it per job;
/// the engine pays it once.
fn bench_cache_amortization(c: &mut Criterion) {
    let jobs: Vec<JobSpec> = (0..40u64)
        .map(|seed| JobSpec {
            id: None,
            workload: WorkloadSpec::Pipeline {
                stages: 2,
                tasks: 300,
            },
            clustering: None,
            topology: TopologySpec::Ring { n: 512 },
            topology_seed: None,
            algorithm: AlgorithmSpec::Random { k: 1 },
            seed,
        })
        .collect();

    let mut group = c.benchmark_group("engine_cache_amortization_ring512_40jobs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("naive_serial_loop", |b| b.iter(|| naive_serial(&jobs)));
    group.bench_with_input(BenchmarkId::new("engine", 4), &4usize, |b, &threads| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let results = engine.run_batch(&jobs);
            assert!(results.iter().all(|r| r.error.is_none()));
            results.len()
        })
    });
    group.finish();
}

/// Recorder overhead: the 100-job batch on one thread with a no-op
/// recorder vs an enabled one. The enabled recorder pays one counter
/// bump, one queue-wait sample, one job span, and a few cache-lookup
/// spans per job — the acceptance target is < 2% over the no-op run.
///
/// Besides the criterion group, this writes `BENCH_telemetry.json` at
/// the workspace root — a versioned [`mimd_bench::BenchReport`] with
/// one `micro:telemetry` scenario (min-of-N enabled-recorder wall
/// times; the disabled baseline and relative overhead ride along in
/// `metrics`) — and appends the same report to `BENCH_history.jsonl`;
/// the in-tree criterion stub has no file output of its own.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let jobs = batch_100();
    let run = |recorder: &Recorder| {
        let engine = Engine::with_telemetry(
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            Arc::new(TopologyCache::new()),
            recorder.clone(),
        );
        let results = engine.run_batch(&jobs);
        assert!(results.iter().all(|r| r.error.is_none()));
        results.len()
    };

    const REPS: usize = 10;
    let once = |recorder: &Recorder| {
        let start = Instant::now();
        run(recorder);
        start.elapsed().as_nanos() as u64
    };
    run(&Recorder::disabled()); // warm-up

    // Interleave the two arms so clock drift and cache state hit both
    // equally; best-of-REPS filters scheduler noise.
    let mut disabled_reps = Vec::with_capacity(REPS);
    let mut enabled_reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        disabled_reps.push(once(&Recorder::disabled()));
        enabled_reps.push(once(&Recorder::enabled()));
    }
    let disabled_ns = *disabled_reps.iter().min().unwrap();
    let enabled_ns = *enabled_reps.iter().min().unwrap();
    let overhead = enabled_ns as f64 / disabled_ns as f64 - 1.0;
    let scenario = mimd_bench::ScenarioReport {
        name: "telemetry_overhead_batch100_hypercube16".into(),
        kind: "micro:telemetry".into(),
        reps: REPS,
        items: jobs.len(),
        wall_ns: enabled_ns,
        rep_wall_ns: enabled_reps,
        items_per_sec: jobs.len() as f64 / (enabled_ns as f64 / 1e9),
        quality_percent_over: None,
        cache: None,
        latency: Default::default(),
        metrics: [
            ("disabled_ns".to_string(), disabled_ns as f64),
            ("overhead_percent".to_string(), overhead * 100.0),
        ]
        .into_iter()
        .collect(),
    };
    let fingerprint = mimd_bench::fnv64_hex(
        format!("micro_telemetry:batch100:hypercube16:threads=1:reps={REPS}").as_bytes(),
    );
    let report = mimd_bench::BenchReport::new("micro_telemetry", &fingerprint, vec![scenario])
        .with_environment();
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json"),
        report.to_json_pretty() + "\n",
    )
    .expect("write BENCH_telemetry.json");
    mimd_bench::append_history(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl"),
        &report,
    )
    .expect("append BENCH_history.jsonl");

    let mut group = c.benchmark_group("engine_telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("recorder_disabled", |b| {
        b.iter(|| run(&Recorder::disabled()))
    });
    group.bench_function("recorder_enabled", |b| b.iter(|| run(&Recorder::enabled())));
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_throughput,
    bench_cache_amortization,
    bench_telemetry_overhead
);
criterion_main!(benches);
