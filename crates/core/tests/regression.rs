//! Golden regression tests: fixed seeds must keep producing the same
//! mapping results. If an intentional algorithm change shifts these
//! numbers, update them consciously — the git diff of this file then
//! documents the behavioural change.
//!
//! Pinned against the workspace's in-tree deterministic `rand` stub
//! (xoshiro256** StdRng, crates/compat/rand): the build environment has
//! no crates.io access, so upstream rand's ChaCha12 stream — and the
//! constants originally derived from it — are not reproducible here.

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::ideal::IdealSchedule;
use mimd_core::{Mapper, MapperConfig};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::{
    ClusteredProblemGraph, Clustering, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
};
use mimd_topology::{hypercube, mesh2d, random_topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn golden_instance(seed: u64, np: usize, ns: usize) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: np,
        avg_width: 8,
        p_forward: 0.3,
        p_skip: 0.02,
        task_weight: (2, 12),
        edge_weight: (1, 6),
        connect_layers: true,
        locality_window: Some(1),
    })
    .unwrap();
    let p = gen.generate(&mut rng);
    let c = random_region_clustering(&p, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(p, c).unwrap()
}

/// Two disjoint copies of `golden_instance(seed, np, ns)` side by side:
/// both halves finish at the same instant, so the critical subgraph has
/// at least two components and the initial assignment's step-2 restart
/// fires.
fn twin_instance(seed: u64, np: usize, ns: usize) -> ClusteredProblemGraph {
    let half = golden_instance(seed, np, ns);
    let edges: Vec<_> = half
        .problem()
        .edges()
        .flat_map(|(u, v, w)| [(u, v, w), (u + np, v + np, w)])
        .collect();
    let sizes = [half.problem().sizes(), half.problem().sizes()].concat();
    let cluster_of = (0..2 * np)
        .map(|t| half.cluster_of(t % np) + ns * (t / np))
        .collect();
    ClusteredProblemGraph::new(
        ProblemGraph::new(sizes, &edges).unwrap(),
        Clustering::new(cluster_of).unwrap(),
    )
    .unwrap()
}

/// FNV-1a 64-bit over the little-endian bytes of each id.
fn fnv1a(ids: &[usize]) -> u64 {
    ids.iter()
        .flat_map(|&s| (s as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn golden_instance_shape_is_stable() {
    let g = golden_instance(2024, 96, 8);
    // These constants pin the generator + clustering byte-for-byte.
    assert_eq!(g.num_tasks(), 96);
    assert_eq!(g.num_clusters(), 8);
    assert_eq!(g.problem().graph().edge_count(), 171);
    assert_eq!(g.problem().sequential_time(), 679);
    assert_eq!(g.cross_edges().count(), 85);
    assert_eq!(g.total_cut_weight(), 310);
}

#[test]
fn golden_ideal_and_critical_are_stable() {
    let g = golden_instance(2024, 96, 8);
    let ideal = IdealSchedule::derive(&g);
    assert_eq!(ideal.lower_bound(), 125);
    let crit = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
    assert_eq!(crit.critical_edges().len(), 1);
    let ext = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::Extended);
    assert!(ext.critical_edges().len() >= crit.critical_edges().len());
}

#[test]
fn golden_mapping_results_are_stable() {
    let g = golden_instance(2024, 96, 8);
    let cube = hypercube(3).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let r = Mapper::new().map(&g, &cube, &mut rng).unwrap();
    assert_eq!(r.lower_bound, 125);
    assert_eq!(r.total_time, 140);
    assert!(!r.refinement.reached_lower_bound);

    let mesh = mesh2d(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let r = Mapper::new().map(&g, &mesh, &mut rng).unwrap();
    assert_eq!(r.total_time, 153);

    // 64 clusters: the sizes where the initial assignment's row walks
    // decide something. Step 3(c) `closest_choice` fires in every case
    // below, step 2(c) in the `wide` ones on the mesh and the sparse
    // machine, the disconnected-critical-subgraph restart on the twin
    // instance, and `wide` builds a `GainTable` for its exchange pass.
    let sparse = random_topology(64, 0.03, &mut StdRng::seed_from_u64(11)).unwrap();
    let machines = [hypercube(6).unwrap(), mesh2d(8, 8).unwrap(), sparse];
    let graphs = [golden_instance(2024, 512, 64), twin_instance(2024, 256, 32)];
    let wide = MapperConfig {
        exchange_pool: 64,
        criticality: CriticalityMode::Extended,
        ..MapperConfig::default()
    };
    // (graph, machine, wide?) -> (total_time, initial_total, pinned
    // clusters, FNV-1a of sys_of).
    let pins = [
        (0, 0, false, (687, 743, 11, 0x9fca_1689_fa44_01c5)),
        (0, 0, true, (604, 636, 37, 0x9b41_0b51_143d_54a5)),
        (0, 1, false, (1008, 1149, 11, 0x1a29_fe0d_6b86_48c5)),
        (0, 1, true, (885, 990, 26, 0x51f4_b0e8_4b8f_d7a5)),
        (0, 2, false, (719, 772, 11, 0x6f03_2956_305f_c665)),
        (0, 2, true, (610, 679, 30, 0x080b_b750_2795_9065)),
        (1, 1, true, (382, 436, 24, 0xe078_e845_d891_2005)),
        (1, 2, true, (306, 322, 34, 0x86bf_80de_0b20_62e5)),
    ];
    for (graph, machine, is_wide, want) in pins {
        let config = if is_wide {
            wide.clone()
        } else {
            MapperConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let r = Mapper::with_config(config)
            .map(&graphs[graph], &machines[machine], &mut rng)
            .unwrap();
        let got = (
            r.total_time,
            r.initial_total,
            r.pinned.iter().filter(|&&p| p).count(),
            fnv1a(r.assignment.sys_of_vec()),
        );
        assert_eq!(
            got,
            want,
            "graph {graph} on {} (wide: {is_wide})",
            machines[machine].name()
        );
    }
}

#[test]
fn golden_results_depend_on_config_not_luck() {
    let g = golden_instance(2024, 96, 8);
    let cube = hypercube(3).unwrap();
    // Zero refinement: the initial assignment alone.
    let mapper = Mapper::with_config(MapperConfig {
        refine_iterations: Some(0),
        unpinned_fallback: false,
        ..MapperConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(7);
    let r0 = mapper.map(&g, &cube, &mut rng).unwrap();
    assert_eq!(r0.total_time, r0.initial_total, "no refinement applied");

    // Full config can only improve on it.
    let mut rng = StdRng::seed_from_u64(7);
    let r1 = Mapper::new().map(&g, &cube, &mut rng).unwrap();
    assert!(r1.total_time <= r0.total_time);
}
