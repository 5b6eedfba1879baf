//! Simulator consistency: the DES agrees with the analytic evaluator on
//! every topology family, and its extended models respect monotonicity.

use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_engine::{TopologyCache, TopologySpec};
use mimd_sim::{simulate, simulate_heterogeneous, RoutingTable, SimConfig};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::{
    binary_tree, chain, cube_connected_cycles, de_bruijn, hypercube, mesh2d, ring, star, torus2d,
    SystemGraph,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(ns: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: ns * 6,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let p = gen.generate(&mut rng);
    let c = random_region_clustering(&p, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(p, c).unwrap()
}

fn all_topologies() -> Vec<SystemGraph> {
    vec![
        hypercube(3).unwrap(),
        mesh2d(2, 4).unwrap(),
        torus2d(2, 4).unwrap(),
        ring(8).unwrap(),
        chain(8).unwrap(),
        star(8).unwrap(),
        binary_tree(8).unwrap(),
        de_bruijn(3).unwrap(),
        cube_connected_cycles(3).unwrap(),
    ]
}

#[test]
fn des_equals_analytic_on_every_topology_family() {
    for (i, sys) in all_topologies().into_iter().enumerate() {
        let graph = instance(sys.len(), 100 + i as u64);
        let mut rng = StdRng::seed_from_u64(i as u64);
        for _ in 0..3 {
            let a = Assignment::random(sys.len(), &mut rng);
            let ana = evaluate_assignment(&graph, &sys, &a, EvaluationModel::Precedence).unwrap();
            let des = simulate(&graph, &sys, &a, SimConfig::paper()).unwrap();
            assert_eq!(des.total, ana.total(), "{}", sys.name());
            assert_eq!(
                des.start.as_slice(),
                ana.schedule.starts(),
                "{}",
                sys.name()
            );
        }
    }
}

#[test]
fn serialized_des_equals_serialized_analytic_everywhere() {
    for (i, sys) in all_topologies().into_iter().enumerate() {
        let graph = instance(sys.len(), 200 + i as u64);
        let mut rng = StdRng::seed_from_u64(50 + i as u64);
        let a = Assignment::random(sys.len(), &mut rng);
        let ana = evaluate_assignment(&graph, &sys, &a, EvaluationModel::Serialized).unwrap();
        let des = simulate(
            &graph,
            &sys,
            &a,
            SimConfig {
                serialize_processors: true,
                link_contention: false,
            },
        )
        .unwrap();
        assert_eq!(des.total, ana.total(), "{}", sys.name());
    }
}

#[test]
fn model_extensions_are_monotone() {
    // paper <= +serialization, paper <= +contention, each <= realistic
    // is NOT guaranteed pairwise in general, but every extension is >=
    // the paper model and realistic >= each single extension... the only
    // universally safe claims are: every model >= paper.
    for (i, sys) in all_topologies().into_iter().enumerate() {
        let graph = instance(sys.len(), 300 + i as u64);
        let mut rng = StdRng::seed_from_u64(80 + i as u64);
        let a = Assignment::random(sys.len(), &mut rng);
        let base = simulate(&graph, &sys, &a, SimConfig::paper())
            .unwrap()
            .total;
        for config in [
            SimConfig {
                serialize_processors: true,
                link_contention: false,
            },
            SimConfig {
                serialize_processors: false,
                link_contention: true,
            },
            SimConfig::realistic(),
        ] {
            let t = simulate(&graph, &sys, &a, config).unwrap().total;
            assert!(t >= base, "{} with {config:?}: {t} < {base}", sys.name());
        }
    }
}

#[test]
fn uniform_slowdown_scales_compute_only() {
    // With zero communication (one cluster impossible — use all-local
    // clustering via a single-cluster... na must equal ns). Instead:
    // uniform slowdown by k multiplies every task duration; the total
    // must grow by at most k (comm does not scale).
    let sys = ring(4).unwrap();
    let graph = instance(4, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let a = Assignment::random(4, &mut rng);
    let base = simulate(&graph, &sys, &a, SimConfig::paper())
        .unwrap()
        .total;
    for k in [2u32, 3] {
        let slow = vec![k; 4];
        let t = simulate_heterogeneous(&graph, &sys, &a, SimConfig::paper(), &slow)
            .unwrap()
            .total;
        assert!(t >= base, "slowdown {k}");
        assert!(t <= u64::from(k) * base, "slowdown {k}: {t} > {k}x{base}");
    }
}

#[test]
fn message_accounting_is_exact() {
    for (i, sys) in all_topologies().into_iter().enumerate() {
        let graph = instance(sys.len(), 400 + i as u64);
        let mut rng = StdRng::seed_from_u64(90 + i as u64);
        let a = Assignment::random(sys.len(), &mut rng);
        let rep = simulate(&graph, &sys, &a, SimConfig::paper()).unwrap();
        assert_eq!(
            rep.messages_sent,
            graph.cross_edges().count(),
            "{}",
            sys.name()
        );
        // Total hops = sum over cross edges of the assigned distance.
        let expected: u64 = graph
            .cross_edges()
            .map(|(u, v, _)| {
                let su = a.sys_of(graph.cluster_of(u));
                let sv = a.sys_of(graph.cluster_of(v));
                u64::from(sys.hops(su, sv))
            })
            .sum();
        assert_eq!(rep.hops_total, expected, "{}", sys.name());
    }
}

/// The topology cache holds no routing table; a simulation builds its
/// own from the cached machine, and that must be the table a fresh
/// build of the same spec yields.
#[test]
fn routing_from_cached_artifacts_equals_a_fresh_build() {
    let cache = TopologyCache::new();
    for spec in [
        TopologySpec::Mesh { rows: 3, cols: 4 },
        TopologySpec::Hypercube { dim: 5 },
        TopologySpec::Random { n: 40, p: 0.05 },
    ] {
        let cached = cache.get_or_build(&spec, 7).unwrap();
        let fresh = spec.build(&mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(
            RoutingTable::new(&cached.system),
            RoutingTable::new(&fresh),
            "{spec:?}"
        );
    }
}
