//! Property-based tests (proptest) on the core invariants.
//!
//! Strategy: generate random layered DAGs + clusterings + topologies from
//! seeds, then check the theorems the paper proves and the invariants the
//! implementation relies on.

use proptest::prelude::*;

use mimd::baselines::lee::levels;
use mimd::core::critical::{CriticalAnalysis, CriticalityMode};
use mimd::core::evaluate::evaluate_assignment;
use mimd::core::ideal::IdealSchedule;
use mimd::core::schedule::EvaluationModel;
use mimd::core::{Assignment, Mapper};
use mimd::engine::WorkloadSpec;
use mimd::graph::SquareMatrix;
use mimd::sim::{simulate, SimConfig};
use mimd::taskgraph::clustering::random::random_clustering;
use mimd::taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, ProblemGraph};
use mimd::topology::{hypercube, mesh2d, ring, SystemGraph, TopologySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(np: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: np,
        avg_width: 5,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let p = gen.generate(&mut rng);
    let c = random_clustering(&p, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(p, c).unwrap()
}

fn some_system(pick: u8, ns_pow: u32) -> SystemGraph {
    match pick % 3 {
        0 => hypercube(ns_pow).unwrap(),
        1 => ring(1 << ns_pow).unwrap(),
        _ => mesh2d(2, (1 << ns_pow) / 2).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3: no assignment on any topology beats the ideal-graph
    /// lower bound.
    #[test]
    fn lower_bound_dominates_all_assignments(
        seed in 0u64..5000,
        pick in 0u8..3,
        assign_seed in 0u64..5000,
    ) {
        let ns = 8usize;
        let graph = instance(40, ns, seed);
        let system = some_system(pick, 3);
        let ideal = IdealSchedule::derive(&graph);
        let a = Assignment::random(ns, &mut StdRng::seed_from_u64(assign_seed));
        let eval = evaluate_assignment(&graph, &system, &a, EvaluationModel::Precedence).unwrap();
        prop_assert!(eval.total() >= ideal.lower_bound());
    }

    /// The serialized model never finishes earlier than the precedence
    /// model, per task and in total.
    #[test]
    fn serialization_is_monotone(seed in 0u64..5000, assign_seed in 0u64..5000) {
        let graph = instance(36, 6, seed);
        let system = ring(6).unwrap();
        let a = Assignment::random(6, &mut StdRng::seed_from_u64(assign_seed));
        let p = evaluate_assignment(&graph, &system, &a, EvaluationModel::Precedence).unwrap();
        let s = evaluate_assignment(&graph, &system, &a, EvaluationModel::Serialized).unwrap();
        prop_assert!(s.total() >= p.total());
        for t in 0..graph.num_tasks() {
            prop_assert!(s.schedule.start(t) >= p.schedule.start(t));
        }
    }

    /// The DES with paper switches reproduces the analytic schedule
    /// exactly — start times, end times and total.
    #[test]
    fn des_equals_analytic(seed in 0u64..5000, assign_seed in 0u64..5000) {
        let graph = instance(32, 8, seed);
        let system = hypercube(3).unwrap();
        let a = Assignment::random(8, &mut StdRng::seed_from_u64(assign_seed));
        let eval = evaluate_assignment(&graph, &system, &a, EvaluationModel::Precedence).unwrap();
        let des = simulate(&graph, &system, &a, SimConfig::paper()).unwrap();
        prop_assert_eq!(des.total, eval.total());
        prop_assert_eq!(des.start.as_slice(), eval.schedule.starts());
        prop_assert_eq!(des.end.as_slice(), eval.schedule.ends());
    }

    /// Theorem 1/2 operationally: increasing a critical edge's weight by
    /// one increases the lower bound; increasing an edge with slack >= 1
    /// does not.
    #[test]
    fn critical_edges_control_the_lower_bound(seed in 0u64..2000) {
        let graph = instance(30, 5, seed);
        let ideal = IdealSchedule::derive(&graph);
        let crit = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::Extended);
        let lb = ideal.lower_bound();

        // The sparse critical abstract rows equal a dense `c_abs_edge`
        // summed from the critical edge list, which names no edge twice.
        for pair in crit.critical_edges().windows(2) {
            prop_assert!((pair[0].0, pair[0].1) < (pair[1].0, pair[1].1), "duplicate or unsorted");
        }
        let na = graph.num_clusters();
        let mut c_abs = SquareMatrix::<u64>::new(na);
        for &(u, v, w) in crit.critical_edges() {
            let (a, b) = (graph.cluster_of(u), graph.cluster_of(v));
            c_abs.set(a, b, c_abs.get(a, b) + w);
            c_abs.set(b, a, c_abs.get(b, a) + w);
        }
        for a in 0..na {
            for b in 0..na {
                prop_assert_eq!(crit.critical_abstract_weight(a, b), c_abs.get(a, b));
                prop_assert_eq!(crit.is_critical_abstract_edge(a, b), c_abs.get(a, b) > 0);
            }
            let row: Vec<_> = (0..na)
                .map(|b| (b, c_abs.get(a, b)))
                .filter(|&(_, w)| w > 0)
                .collect();
            prop_assert_eq!(crit.critical_abstract_row(a).collect::<Vec<_>>(), row);
            prop_assert_eq!(crit.critical_degree(a), c_abs.row(a).iter().sum::<u64>());
        }

        for (u, v, w) in graph.cross_edges().collect::<Vec<_>>() {
            // Bump edge (u, v) by 1 and re-derive the ideal schedule.
            let bumped: Vec<_> = graph
                .problem()
                .edges()
                .map(|(a, b, x)| (a, b, if (a, b) == (u, v) { w + 1 } else { x }))
                .collect();
            let p2 = ProblemGraph::new(graph.problem().sizes().to_vec(), &bumped).unwrap();
            let graph2 =
                ClusteredProblemGraph::new(p2, graph.clustering().clone()).unwrap();
            let lb2 = IdealSchedule::derive(&graph2).lower_bound();
            if crit.is_critical_edge(u, v) {
                prop_assert!(lb2 > lb, "critical edge ({u},{v}) must raise the bound");
            } else if ideal.slack(&graph, u, v) >= 1 {
                prop_assert_eq!(lb2, lb, "slack edge ({}, {}) must not raise the bound", u, v);
            }
        }
    }

    /// The mapper's result is always: lower_bound <= total <= initial
    /// total, with a valid bijection.
    #[test]
    fn mapper_invariants(seed in 0u64..5000, spec in 0u8..4) {
        let topo = match spec % 4 {
            0 => TopologySpec::Hypercube { dim: 3 },
            1 => TopologySpec::Mesh { rows: 2, cols: 4 },
            2 => TopologySpec::Ring { n: 8 },
            _ => TopologySpec::Random { n: 8, p: 0.2 },
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let system = topo.build(&mut rng).unwrap();
        let graph = instance(48, 8, seed ^ 0xabcd);
        let result = Mapper::new().map(&graph, &system, &mut rng).unwrap();
        prop_assert!(result.total_time >= result.lower_bound);
        prop_assert!(result.total_time <= result.initial_total);
        let mut seen = [false; 8];
        for c in 0..8 {
            let s = result.assignment.sys_of(c);
            prop_assert!(!seen[s]);
            seen[s] = true;
        }
        if result.refinement.reached_lower_bound {
            prop_assert_eq!(result.total_time, result.lower_bound);
        }
    }

    /// Schedules respect precedence: every task starts no earlier than
    /// each predecessor's end plus the charged communication.
    #[test]
    fn schedules_respect_precedence(seed in 0u64..5000, assign_seed in 0u64..5000) {
        let graph = instance(40, 8, seed);
        let system = hypercube(3).unwrap();
        let a = Assignment::random(8, &mut StdRng::seed_from_u64(assign_seed));
        let eval = evaluate_assignment(&graph, &system, &a, EvaluationModel::Precedence).unwrap();
        for t in 0..graph.num_tasks() {
            for (u, _) in graph.problem().predecessors(t) {
                let w = graph.clus_weight(u, t);
                let comm = if w == 0 {
                    0
                } else {
                    let su = a.sys_of(graph.cluster_of(u));
                    let sv = a.sys_of(graph.cluster_of(t));
                    w * u64::from(system.hops(su, sv))
                };
                prop_assert!(eval.schedule.start(t) >= eval.schedule.end(u) + comm);
            }
        }
    }

    /// Ideal schedules are the closure case of evaluation: evaluating on
    /// a complete topology matches `IdealSchedule` exactly.
    #[test]
    fn ideal_is_evaluation_on_closure(seed in 0u64..5000) {
        let graph = instance(36, 6, seed);
        let closure = mimd::topology::complete(6).unwrap();
        let ideal = IdealSchedule::derive(&graph);
        let a = Assignment::random(6, &mut StdRng::seed_from_u64(seed));
        let eval = evaluate_assignment(&graph, &closure, &a, EvaluationModel::Precedence).unwrap();
        prop_assert_eq!(eval.total(), ideal.lower_bound());
    }

    /// Adding a constant to every edge weight never makes any task of
    /// the ideal schedule start earlier (monotonicity of the schedule
    /// operator in communication).
    #[test]
    fn schedule_monotone_in_comm(seed in 0u64..5000, bump in 1u64..4) {
        let graph = instance(30, 5, seed);
        let problem = graph.problem();
        let edges: Vec<_> = (problem.edges())
            .map(|(u, v, w)| (u, v, w + bump))
            .collect();
        let heavier = ProblemGraph::new(problem.sizes().to_vec(), &edges).unwrap();
        let heavier = ClusteredProblemGraph::new(heavier, graph.clustering().clone()).unwrap();
        let base = IdealSchedule::derive(&graph);
        let bumped = IdealSchedule::derive(&heavier);
        for t in 0..graph.num_tasks() {
            prop_assert!(bumped.schedule().start(t) >= base.schedule().start(t));
        }
        prop_assert!(bumped.lower_bound() >= base.lower_bound());
    }
}

type Edge = (usize, usize, u64);

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Sizes and edges of a random DAG on `n` tasks whose ids are not
/// topological: forward edges over a shuffled ranking of the tasks.
fn random_dag(n: usize, density: f64, rng: &mut StdRng) -> (Vec<u64>, Vec<Edge>) {
    let mut rank: Vec<usize> = (0..n).collect();
    shuffle(&mut rank, rng);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(density) {
                edges.push((rank[i], rank[j], rng.gen_range(1..=9)));
            }
        }
    }
    let sizes = (0..n).map(|_| rng.gen_range(1..=6)).collect();
    (sizes, edges)
}

/// Kahn's algorithm in task space, the smallest ready id first, by
/// rescanning the edge list.
fn smallest_first_kahn(n: usize, edges: &[Edge]) -> Vec<usize> {
    let mut indeg = vec![0; n];
    for &(_, v, _) in edges {
        indeg[v] += 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut done = vec![false; n];
    while let Some(t) = (0..n).find(|&t| !done[t] && indeg[t] == 0) {
        done[t] = true;
        order.push(t);
        for &(_, v, _) in edges.iter().filter(|e| e.0 == t) {
            indeg[v] -= 1;
        }
    }
    order
}

/// The longest path in task space, relaxing every edge until nothing
/// moves: a task ends its size after its latest predecessor's end plus
/// the edge weight.
fn task_space_longest_path(sizes: &[u64], edges: &[Edge]) -> u64 {
    let mut end = sizes.to_vec();
    let mut moved = true;
    while moved {
        moved = false;
        for &(u, v, w) in edges {
            if end[u] + w + sizes[v] > end[v] {
                end[v] = end[u] + w + sizes[v];
                moved = true;
            }
        }
    }
    end.into_iter().max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A problem graph built from any workload's edges, or from a random
    /// edge list, in shuffled order reads its input back in task space:
    /// sorted edges, ascending and mirrored neighbor rows with the input
    /// weights, the smallest-id-first topological order, the task-space
    /// longest path, and identical JSON bytes after a round trip.
    #[test]
    fn problem_graphs_read_their_edge_list_back(kind in 0usize..8, scale in 0usize..40, seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = match kind {
            0 => Some(WorkloadSpec::Layered { tasks: 10 + 4 * scale, width: None }),
            1 => Some(WorkloadSpec::PaperRegime { tasks: 10 + 4 * scale }),
            2 => Some(WorkloadSpec::GaussianElimination { n: 2 + scale % 9 }),
            3 => Some(WorkloadSpec::Stencil { width: 1 + scale % 9, steps: 1 + scale / 5 }),
            4 => Some(WorkloadSpec::Fft { log2n: 1 + (scale % 5) as u32 }),
            5 => Some(WorkloadSpec::DivideAndConquer { depth: 1 + (scale % 5) as u32 }),
            6 => Some(WorkloadSpec::Pipeline { stages: 1 + scale % 6, tasks: 1 + scale / 4 }),
            _ => None,
        };
        let (sizes, mut edges) = match spec {
            Some(spec) => {
                let p = spec.build(&mut rng).unwrap();
                (p.sizes().to_vec(), p.edges().collect::<Vec<_>>())
            }
            None => random_dag(scale, 0.2, &mut rng),
        };
        let n = sizes.len();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        shuffle(&mut edges, &mut rng);
        let p = ProblemGraph::new(sizes.clone(), &edges).unwrap();

        prop_assert_eq!(p.edges().collect::<Vec<_>>(), sorted.clone());
        prop_assert_eq!(p.graph().edge_count(), edges.len());
        let mut mirrored = 0;
        for t in 0..n {
            let succs: Vec<_> = p.successors(t).collect();
            let preds: Vec<_> = p.predecessors(t).collect();
            prop_assert_eq!(p.successors(t).len(), succs.len());
            prop_assert_eq!(p.predecessors(t).is_empty(), preds.is_empty());
            prop_assert!(succs.windows(2).all(|w| w[0].0 < w[1].0), "successors of {} ascend", t);
            prop_assert!(preds.windows(2).all(|w| w[0].0 < w[1].0), "predecessors of {} ascend", t);
            for &(v, w) in &succs {
                prop_assert!(p.predecessors(v).any(|back| back == (t, w)), "{} -> {} mirrored", t, v);
                prop_assert_eq!(p.weight(t, v), Some(w));
                prop_assert!(sorted.binary_search(&(t, v, w)).is_ok());
            }
            mirrored += preds.len();
        }
        prop_assert_eq!(mirrored, edges.len());
        prop_assert_eq!(p.topo_order(), &smallest_first_kahn(n, &edges)[..]);
        prop_assert_eq!(p.critical_path(), task_space_longest_path(&sizes, &edges));

        let json = serde_json::to_string(&p).unwrap();
        let back: ProblemGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn levels_increase_along_edges(seed in 0u64..1000, n in 2usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sizes, edges) = random_dag(n, 0.25, &mut rng);
        let p = ProblemGraph::new(sizes, &edges).unwrap();
        let lvl = levels(&p);
        for (u, v, _) in p.edges() {
            prop_assert!(lvl[u] < lvl[v]);
        }
        // Each level is exactly one past the deepest predecessor.
        for t in 0..n {
            let deepest = p.predecessors(t).map(|(u, _)| lvl[u] + 1).max();
            prop_assert_eq!(lvl[t], deepest.unwrap_or(0));
        }
    }
}
