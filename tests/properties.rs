//! Property-based tests (proptest) on the core invariants.
//!
//! Strategy: generate random layered DAGs + clusterings + topologies from
//! seeds, then check the theorems the paper proves and the invariants the
//! implementation relies on.

use proptest::prelude::*;

use mimd::core::critical::{CriticalAnalysis, CriticalityMode};
use mimd::core::evaluate::evaluate_assignment;
use mimd::core::ideal::IdealSchedule;
use mimd::core::schedule::EvaluationModel;
use mimd::core::{Assignment, Mapper};
use mimd::graph::{SquareMatrix, WeightedDigraph};
use mimd::sim::{simulate, SimConfig};
use mimd::taskgraph::clustering::random::random_clustering;
use mimd::taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, ProblemGraph};
use mimd::topology::{hypercube, mesh2d, ring, SystemGraph, TopologySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
                .graph()
                .edges()
                .map(|(a, b, x)| (a, b, if (a, b) == (u, v) { w + 1 } else { x }))
                .collect();
            let g2 = WeightedDigraph::from_edges(graph.num_tasks(), &bumped).unwrap();
            let p2 = ProblemGraph::new(g2, graph.problem().sizes().to_vec()).unwrap();
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
            for &(u, _) in graph.problem().predecessors(t) {
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
        let edges: Vec<_> = (problem.graph().edges())
            .map(|(u, v, w)| (u, v, w + bump))
            .collect();
        let heavier = WeightedDigraph::from_edges(problem.len(), &edges).unwrap();
        let heavier = ProblemGraph::new(heavier, problem.sizes().to_vec()).unwrap();
        let heavier = ClusteredProblemGraph::new(heavier, graph.clustering().clone()).unwrap();
        let base = IdealSchedule::derive(&graph);
        let bumped = IdealSchedule::derive(&heavier);
        for t in 0..graph.num_tasks() {
            prop_assert!(bumped.schedule().start(t) >= base.schedule().start(t));
        }
        prop_assert!(bumped.lower_bound() >= base.lower_bound());
    }
}
