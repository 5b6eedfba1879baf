//! The engine's determinism contract, extending the invariant asserted
//! for `mimd-core::parallel` in the workspace-level `tests/determinism.rs`:
//! the same JSONL batch with the same seeds produces byte-identical
//! output regardless of worker-thread count.

use mimd_engine::{
    read_jobs, AlgorithmSpec, Engine, EngineConfig, JobSpec, TopologySpec, WorkloadSpec,
};

/// A portfolio batch mixing workloads, topologies and all algorithms.
fn portfolio_batch() -> Vec<JobSpec> {
    let algorithms = [
        AlgorithmSpec::Paper {
            refine_iterations: None,
            exchange_pool: 0,
        },
        AlgorithmSpec::Random { k: 8 },
        AlgorithmSpec::Bokhari { jumps: 3 },
        AlgorithmSpec::Lee { restarts: 2 },
        AlgorithmSpec::Annealing { slow: false },
        AlgorithmSpec::Pairwise {
            max_evaluations: 64,
        },
        AlgorithmSpec::Multilevel {
            direct_threshold: None,
            refine_rounds: None,
            refine_batch: None,
            refine_threads: None,
        },
        AlgorithmSpec::Incremental {
            migration_penalty: None,
            staleness_threshold: None,
            local_rounds: None,
            region_size: None,
        },
    ];
    let instances = [
        (
            WorkloadSpec::Layered {
                tasks: 40,
                width: None,
            },
            TopologySpec::Hypercube { dim: 3 },
        ),
        (
            WorkloadSpec::GaussianElimination { n: 8 },
            TopologySpec::Mesh { rows: 2, cols: 4 },
        ),
        (
            WorkloadSpec::PaperRegime { tasks: 48 },
            TopologySpec::Random { n: 8, p: 0.3 },
        ),
    ];
    let mut jobs = Vec::new();
    for (workload, topology) in &instances {
        for algorithm in &algorithms {
            for seed in 0..3u64 {
                jobs.push(JobSpec {
                    id: None,
                    workload: workload.clone(),
                    clustering: None,
                    topology: topology.clone(),
                    topology_seed: Some(5),
                    algorithm: algorithm.clone(),
                    seed,
                });
            }
        }
    }
    // The small instances above exercise multilevel's direct path only;
    // add jobs big enough (ns = 64 > direct_threshold 32) for real
    // V-cycles, so the determinism contract covers coarsen + prolong +
    // group-local refinement too — including the batched refiner with
    // nested worker threads (whose output must not depend on either the
    // engine's or the refiner's thread count).
    for seed in 0..3u64 {
        for refine_threads in [None, Some(4)] {
            jobs.push(JobSpec {
                id: None,
                workload: WorkloadSpec::Layered {
                    tasks: 160,
                    width: None,
                },
                clustering: None,
                topology: TopologySpec::Torus { rows: 8, cols: 8 },
                topology_seed: None,
                algorithm: AlgorithmSpec::Multilevel {
                    direct_threshold: Some(8),
                    refine_rounds: Some(6),
                    refine_batch: Some(3),
                    refine_threads,
                },
                seed,
            });
        }
        jobs.push(JobSpec {
            id: None,
            workload: WorkloadSpec::Layered {
                tasks: 160,
                width: None,
            },
            clustering: None,
            topology: TopologySpec::Torus { rows: 8, cols: 8 },
            topology_seed: None,
            algorithm: AlgorithmSpec::Incremental {
                migration_penalty: Some(1),
                staleness_threshold: None,
                local_rounds: None,
                region_size: None,
            },
            seed,
        });
    }
    jobs
}

fn run_to_jsonl(jobs: &[JobSpec], threads: usize) -> String {
    let engine = Engine::new(EngineConfig {
        threads,
        queue_capacity: 7, // deliberately smaller than the batch
    });
    let mut out = String::new();
    engine.run_stream(jobs.to_vec(), |result| {
        out.push_str(&result.to_json_line());
        out.push('\n');
    });
    out
}

#[test]
fn batch_output_is_byte_identical_across_thread_counts() {
    let jobs = portfolio_batch();
    let reference = run_to_jsonl(&jobs, 1);
    assert_eq!(reference.lines().count(), jobs.len());
    for threads in [2, 4, 8] {
        let output = run_to_jsonl(&jobs, threads);
        assert_eq!(output, reference, "thread count {threads} changed output");
    }
}

#[test]
fn batch_output_is_stable_across_runs_of_the_same_engine_shape() {
    let jobs = portfolio_batch();
    assert_eq!(run_to_jsonl(&jobs, 4), run_to_jsonl(&jobs, 4));
}

#[test]
fn refine_thread_count_never_changes_multilevel_output() {
    // Same jobs, only the refiner's worker count differs: the emitted
    // JSONL must be byte-identical (the batch, not the thread count, is
    // the unit of acceptance).
    let jobs_with = |refine_threads: Option<usize>| -> Vec<JobSpec> {
        (0..3u64)
            .map(|seed| JobSpec {
                id: None,
                workload: WorkloadSpec::Layered {
                    tasks: 192,
                    width: None,
                },
                clustering: None,
                topology: TopologySpec::Mesh { rows: 8, cols: 12 },
                topology_seed: None,
                algorithm: AlgorithmSpec::Multilevel {
                    direct_threshold: Some(8),
                    refine_rounds: Some(12),
                    refine_batch: Some(4),
                    refine_threads,
                },
                seed,
            })
            .collect()
    };
    let reference = run_to_jsonl(&jobs_with(None), 2);
    for threads in [2, 8] {
        assert_eq!(
            run_to_jsonl(&jobs_with(Some(threads)), 2),
            reference,
            "refine_threads {threads} changed the mapping"
        );
    }
}

/// FNV-1a over the assignment's processors as little-endian `u64`s.
fn fnv(assignment: &[usize]) -> u64 {
    assignment.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
        (s as u64)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// `(total_time, evaluations, fnv(assignment))` of every job of
/// [`portfolio_batch`], in batch order.
#[rustfmt::skip]
const PORTFOLIO_PINS: [(u64, usize, u64); 81] = [
    (65, 16, 0x389f47754298e2e5),
    (87, 16, 0x85fbc874d6902765),
    (82, 16, 0xd89198b5f7bf4d05),
    (68, 8, 0xedc022b63acf1105),
    (87, 8, 0x08043a4dceaf8045),
    (84, 8, 0x65187a4732513325),
    (75, 10, 0x687e1c58ce0ffea5),
    (97, 9, 0xe2f0ca8be4433225),
    (85, 8, 0xec900ccd0a1ed725),
    (69, 12, 0x29d0bbc6625f3fa5),
    (90, 8, 0xbadfa54a62317385),
    (88, 9, 0xea54539b9c1fdaa5),
    (63, 129, 0xd99cd581861e5aa5),
    (86, 129, 0xdb90d4d2b15c7185),
    (80, 129, 0x8ffe13cd81875805),
    (64, 64, 0xf14f39c2b9ad78c5),
    (86, 57, 0x028d9af1f1d13fc5),
    (79, 64, 0xa777fda7f1e11cc5),
    (65, 16, 0x389f47754298e2e5),
    (87, 16, 0x85fbc874d6902765),
    (82, 16, 0xd89198b5f7bf4d05),
    (65, 16, 0x389f47754298e2e5),
    (88, 16, 0xf2cca9b6d64d14c5),
    (80, 16, 0xd04b62a6da1c8545),
    (78, 16, 0xd8fa1982e449ff65),
    (85, 16, 0xdff6beee12081045),
    (77, 16, 0x75d8ee5de1b996a5),
    (82, 8, 0x9c0dbb6bd5a8b485),
    (87, 8, 0x3cac5fe8c24bfc85),
    (87, 8, 0xf4b9b7c377490665),
    (87, 10, 0x6b20cc626078c7a5),
    (83, 11, 0xc93ca82280df9185),
    (80, 10, 0x2f0d62f435407f25),
    (81, 10, 0xb20ecf7cc6cca485),
    (81, 9, 0x7a923ad51d01b405),
    (77, 10, 0x860f938e08403445),
    (78, 129, 0xa2548a65c4344025),
    (82, 129, 0x34667a7506890ea5),
    (77, 129, 0x7fddf357c7a8bb65),
    (77, 64, 0x49c7c215d3dabde5),
    (82, 64, 0xf11cc53309ac6585),
    (75, 64, 0xe48cc17c6a1b0445),
    (78, 16, 0xd8fa1982e449ff65),
    (85, 16, 0xdff6beee12081045),
    (77, 16, 0x75d8ee5de1b996a5),
    (83, 16, 0x40a9f64b7c89ffa5),
    (89, 16, 0x2d2519cee2b78225),
    (77, 16, 0x75d8ee5de1b996a5),
    (215, 16, 0x653a3cfc2502d325),
    (243, 16, 0x21d39fc1a43ffc45),
    (263, 16, 0xcec819e15bdb86e5),
    (216, 8, 0x18a8010d5d12b905),
    (256, 8, 0x508f5a587a9bec45),
    (270, 8, 0x864cda1e38b41145),
    (206, 10, 0x7f5a4d167a55eae5),
    (267, 9, 0xb5641e124ae26945),
    (278, 11, 0xe96027f920909445),
    (208, 11, 0x22c1c37b54953c85),
    (244, 13, 0x45802b0bbfae03a5),
    (257, 15, 0x8f18ccb2936252e5),
    (200, 129, 0x3a8a733b9bfbc865),
    (239, 129, 0xde4664df15597aa5),
    (247, 129, 0x647b1a6a0cd81625),
    (208, 64, 0x9d38ac8fe20b70c5),
    (238, 64, 0x2414fcfd9f771e25),
    (255, 64, 0xf2d7ae42fc6519e5),
    (215, 16, 0x653a3cfc2502d325),
    (243, 16, 0x21d39fc1a43ffc45),
    (263, 16, 0xcec819e15bdb86e5),
    (212, 16, 0x5ae95fe4d1cc5e25),
    (251, 16, 0x024874c2f30bf045),
    (263, 16, 0xcec819e15bdb86e5),
    (142, 34, 0xf5764582fc0c96c5),
    (142, 34, 0xf5764582fc0c96c5),
    (130, 80, 0x744e98e9e45858c5),
    (157, 34, 0xb6191566ae579f65),
    (157, 34, 0xb6191566ae579f65),
    (176, 80, 0x8b4eeabfe7b625a5),
    (168, 34, 0xb0557e7660c93ca5),
    (168, 34, 0xb0557e7660c93ca5),
    (168, 80, 0xc89cac78978b3185),
];

#[test]
fn portfolio_results_are_pinned() {
    let results = Engine::new(EngineConfig::default()).run_batch(&portfolio_batch());
    assert_eq!(results.len(), PORTFOLIO_PINS.len());
    for (result, &pin) in results.iter().zip(&PORTFOLIO_PINS) {
        assert_eq!(
            (
                result.total_time,
                result.evaluations,
                fnv(&result.assignment)
            ),
            pin,
            "job {} ({} on {}, seed {})",
            result.index,
            result.algorithm,
            result.topology,
            result.seed
        );
    }
}

#[test]
fn jsonl_roundtrip_preserves_the_batch() {
    let jobs = portfolio_batch();
    let lines: String = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap() + "\n")
        .collect();
    let parsed = read_jobs(lines.as_bytes()).unwrap();
    assert_eq!(parsed, jobs);
}

#[test]
fn results_are_consumable_and_sane() {
    let jobs = portfolio_batch();
    let output = run_to_jsonl(&jobs, 4);
    for line in output.lines() {
        let result = mimd_engine::JobResult::from_json_line(line).unwrap();
        assert!(result.error.is_none(), "{:?}", result.error);
        assert!(result.total_time >= result.lower_bound);
        assert!(result.percent_over_lower_bound >= 100.0);
        assert_eq!(result.optimal, result.total_time == result.lower_bound);
        // The assignment is a bijection clusters -> processors.
        let mut seen = vec![false; result.ns];
        for &s in &result.assignment {
            assert!(!seen[s]);
            seen[s] = true;
        }
    }
}
