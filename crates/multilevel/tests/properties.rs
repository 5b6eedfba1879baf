//! Property tests for the multilevel invariants the ISSUE pins down:
//! coarsening conserves total node/edge weight, the cluster graph it
//! contracts level to level equals a fresh collapse, every prolonged
//! assignment is valid (feasible schedule under `mimd_core::validate`),
//! and results are identical across repeated runs of the same seed.
//! (Thread-count invariance lives in `mimd-engine`'s determinism suite,
//! which batches multilevel jobs through the worker pool.)

use proptest::prelude::*;

use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::validate_schedule;
use mimd_graph::apsp::floyd_warshall;
use mimd_multilevel::{Hierarchy, MultilevelConfig, MultilevelMapper, SystemHierarchy};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads;
use mimd_taskgraph::{
    AbstractGraph, ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
};
use mimd_topology::{SystemGraph, TopologySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pool of machines big enough to force real V-cycles (every ns is
/// above the default direct threshold of 32).
fn topology(index: usize) -> SystemGraph {
    let specs = [
        TopologySpec::Mesh { rows: 6, cols: 8 },
        TopologySpec::Torus { rows: 7, cols: 7 },
        TopologySpec::Hypercube { dim: 6 },
        TopologySpec::FatTree {
            levels: 3,
            arity: 6,
        },
        TopologySpec::ClusteredComplete {
            groups: 6,
            group_size: 7,
        },
        TopologySpec::Random { n: 48, p: 0.08 },
    ];
    let spec = &specs[index % specs.len()];
    let mut rng = StdRng::seed_from_u64(index as u64);
    spec.build(&mut rng).expect("pool specs are valid")
}

fn instance(extra_tasks: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: ns + extra_tasks,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// The same DAG with task `t` renamed `perm[t]`, so ids no longer follow
/// a topological order.
fn relabelled(problem: &ProblemGraph, rng: &mut StdRng) -> ProblemGraph {
    let np = problem.len();
    let mut perm: Vec<usize> = (0..np).collect();
    for i in (1..np).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let edges: Vec<_> = problem
        .edges()
        .map(|(u, v, w)| (perm[u], perm[v], w))
        .collect();
    let mut sizes = vec![0; np];
    for (t, &s) in problem.sizes().iter().enumerate() {
        sizes[perm[t]] = s;
    }
    ProblemGraph::new(sizes, &edges).unwrap()
}

/// A clustered instance on `ns` clusters from one of three families:
/// `layered` with its task ids shuffled, `ge:` and `dnc:`.
fn family_instance(family: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = match family {
        0 => {
            let gen = LayeredDagGenerator::new(GeneratorConfig {
                tasks: 2 * ns,
                ..GeneratorConfig::default()
            })
            .unwrap();
            relabelled(&gen.generate(&mut rng), &mut rng)
        }
        1 => {
            let n = (2..).find(|n| n * (n + 1) / 2 > 2 * ns).unwrap();
            workloads::gaussian_elimination(n, 4, 2, 3).unwrap()
        }
        _ => {
            let depth = (1..).find(|d| 3 * (1 << d) - 2 >= 2 * ns).unwrap();
            workloads::divide_and_conquer(depth, 2, 5, 3, 4).unwrap()
        }
    };
    let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Coarsening contracts the cluster graph level to level instead of
    /// re-reading the task edges: at every level, on every machine and
    /// workload family, the contraction equals the abstract graph
    /// collapsed from that level's clustering, and the internalized
    /// weight equals the sum over the task edges the merge made internal.
    #[test]
    fn contracted_cluster_graphs_equal_fresh_collapses(seed in 0u64..1_000_000) {
        let specs = [
            TopologySpec::Torus { rows: 6, cols: 6 },
            TopologySpec::Hypercube { dim: 6 },
            TopologySpec::Mesh { rows: 5, cols: 7 },
            TopologySpec::FatTree { levels: 3, arity: 4 },
            TopologySpec::Random { n: 40, p: 0.1 },
        ];
        for spec in &specs {
            let system = spec.build(&mut StdRng::seed_from_u64(seed)).unwrap();
            for family in 0..3 {
                let graph = family_instance(family, system.len(), seed);
                let hierarchy = Hierarchy::build(&graph, &system, 1).unwrap();
                prop_assert!(hierarchy.depth() >= 2, "{} should coarsen", system.name());
                let mut abs = AbstractGraph::new(&graph);
                for (k, coarsening) in hierarchy.coarsenings().iter().enumerate() {
                    let fine = &hierarchy.levels()[k].graph;
                    let coarse = &hierarchy.levels()[k + 1].graph;
                    let map = &coarsening.cluster_map;
                    let (contracted, internalized) = abs.contract(map, coarse.num_clusters());
                    prop_assert_eq!(&contracted, &AbstractGraph::new(coarse), "level {}", k + 1);
                    let reference: u64 = fine
                        .cross_edges()
                        .filter(|&(u, v, _)| map[fine.cluster_of(u)] == map[fine.cluster_of(v)])
                        .map(|(_, _, w)| w)
                        .sum();
                    prop_assert_eq!(internalized, reference);
                    prop_assert_eq!(coarsening.internalized_weight, reference);
                    abs = contracted;
                }
            }
        }
    }

    #[test]
    fn coarsening_conserves_node_and_edge_weight(
        topo in 0usize..6,
        extra in 8usize..96,
        seed in 0u64..1_000_000,
    ) {
        let system = topology(topo);
        let ns = system.len();
        let graph = instance(extra, ns, seed);
        let hierarchy = Hierarchy::build(&graph, &system, 8).unwrap();
        prop_assert!(hierarchy.depth() >= 2, "{} should coarsen", system.name());

        for (k, coarsening) in hierarchy.coarsenings().iter().enumerate() {
            let fine = &hierarchy.levels()[k];
            let coarse = &hierarchy.levels()[k + 1];
            // na == ns at every level.
            prop_assert_eq!(fine.graph.num_clusters(), fine.system.len());
            prop_assert_eq!(coarse.graph.num_clusters(), coarse.system.len());
            // Node weight (total task time) is conserved exactly.
            prop_assert_eq!(
                fine.graph.problem().sequential_time(),
                coarse.graph.problem().sequential_time()
            );
            // Edge weight splits exactly into coarse cut + internalized.
            prop_assert_eq!(
                fine.graph.total_cut_weight(),
                coarse.graph.total_cut_weight() + coarsening.internalized_weight
            );
            // The processor groups partition the fine machine and are
            // connected (singletons or adjacent pairs).
            let mut covered = vec![false; fine.system.len()];
            for members in coarsening.groups() {
                for &s in members {
                    prop_assert!(!covered[s], "processor {} in two groups", s);
                    covered[s] = true;
                }
                if let [a, b] = members[..] {
                    prop_assert!(fine.system.adjacent(a, b));
                }
            }
            prop_assert!(covered.iter().all(|&c| c));
            // The cluster map is a weight-conserving projection: every
            // fine cluster lands in exactly one coarse cluster.
            prop_assert_eq!(coarsening.cluster_map.len(), fine.graph.num_clusters());
            for &c in &coarsening.cluster_map {
                prop_assert!(c < coarse.graph.num_clusters());
            }
        }
    }

    #[test]
    fn prolonged_assignments_are_valid(
        topo in 0usize..6,
        extra in 8usize..96,
        seed in 0u64..1_000_000,
        rounds in 1usize..12,
    ) {
        let system = topology(topo);
        let ns = system.len();
        let graph = instance(extra, ns, seed);
        let mapper = MultilevelMapper::with_config(MultilevelConfig {
            direct_threshold: 8,
            refine_rounds: rounds,
            ..MultilevelConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let result = mapper.map(&graph, &system, &mut rng).unwrap();
        prop_assert!(result.levels >= 2);
        prop_assert!(result.total_time >= result.lower_bound);
        // The assignment is a bijection (from_sys_of re-validates it).
        let rebuilt =
            mimd_core::Assignment::from_sys_of(result.assignment.sys_of_vec().to_vec()).unwrap();
        prop_assert_eq!(&rebuilt, &result.assignment);
        // The derived schedule is feasible per mimd_core::validate.
        let eval = evaluate_assignment(
            &graph,
            &system,
            &result.assignment,
            EvaluationModel::Precedence,
        )
        .unwrap();
        prop_assert_eq!(eval.total(), result.total_time);
        let violations = validate_schedule(
            &graph,
            &system,
            &result.assignment,
            &eval.schedule,
            EvaluationModel::Precedence,
        );
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    #[test]
    fn repeated_runs_with_one_seed_are_identical(
        topo in 0usize..6,
        extra in 8usize..64,
        seed in 0u64..1_000_000,
    ) {
        let system = topology(topo);
        let graph = instance(extra, system.len(), seed);
        let run = || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
            MultilevelMapper::new().map(&graph, &system, &mut rng).unwrap()
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second);
    }
}

/// FNV-1a 64-bit over the little-endian bytes of each id.
fn fnv1a(ids: &[usize]) -> u64 {
    ids.iter()
        .flat_map(|&s| (s as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One pinned V-cycle at a size where coarsening walks sparse abstract
/// graphs (`na = 1024` at level 0): any change to row order, tie-breaks
/// or the RNG stream shows up here.
#[test]
fn golden_vcycle_is_stable() {
    let system = mimd_topology::torus2d(32, 32).unwrap();
    let graph = instance(1024, 1024, 2024);
    let mut rng = StdRng::seed_from_u64(7);
    let r = MultilevelMapper::new()
        .map(&graph, &system, &mut rng)
        .unwrap();
    let got = (
        r.total_time,
        r.lower_bound,
        r.levels,
        r.top_ns,
        r.evaluations,
        r.improvements,
        fnv1a(r.assignment.sys_of_vec()),
    );
    assert_eq!(got, (21795, 3350, 6, 32, 144, 13, 0xf6ea_747b_5526_2911));
}

/// Every contracted machine's hop matrix (built by the 64-source BFS
/// sweeps in `SystemGraph::new`) against Floyd–Warshall on the same
/// level's adjacency.
#[test]
fn every_system_hierarchy_level_has_true_shortest_paths() {
    let specs = [
        TopologySpec::Torus { rows: 16, cols: 16 },
        TopologySpec::Hypercube { dim: 8 },
        TopologySpec::Random { n: 256, p: 0.02 },
    ];
    for spec in &specs {
        let system = spec.build(&mut StdRng::seed_from_u64(16)).unwrap();
        let hierarchy = SystemHierarchy::build(&system).unwrap();
        assert!(hierarchy.depth() > 2, "{spec:?}");
        for level in hierarchy.systems() {
            // A contracted link weighs the fine links it merges; a hop
            // is a hop.
            let adjacency = level.graph().to_matrix().map(|&w| u64::from(w > 0));
            let expected = floyd_warshall(&adjacency).unwrap();
            let hops = level.distances().as_matrix().map(|&h| u64::from(h));
            assert!(hops == expected, "{}", level.name());
        }
    }
}
