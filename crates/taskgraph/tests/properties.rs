//! Property-based tests for problem graphs, the generator, clusterings
//! and the derived clustered/abstract structures.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use mimd_graph::error::GraphError;
use mimd_graph::{SquareMatrix, Time};
use mimd_taskgraph::clustering::chains::chain_clustering;
use mimd_taskgraph::clustering::comm_greedy::comm_greedy_clustering;
use mimd_taskgraph::clustering::load_balance::load_balanced_clustering;
use mimd_taskgraph::clustering::random::random_clustering;
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::clustering::round_robin::round_robin_clustering;
use mimd_taskgraph::trace::{EdgeInit, TaskInit};
use mimd_taskgraph::workloads::{self, churn_trace, ChurnRegime};
use mimd_taskgraph::{
    AbstractGraph, ClusteredProblemGraph, Clustering, DynamicWorkload, GeneratorConfig,
    LayeredDagGenerator, ProblemGraph, TaskId, TraceEvent, WorkloadSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generated(np: usize, seed: u64, locality: Option<usize>) -> mimd_taskgraph::ProblemGraph {
    let cfg = GeneratorConfig {
        tasks: np,
        locality_window: locality,
        ..GeneratorConfig::default()
    };
    LayeredDagGenerator::new(cfg)
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// Every edge runs forward in the topological order.
fn is_acyclic(p: &ProblemGraph) -> bool {
    p.edges().all(|(u, v, _)| p.position(u) < p.position(v))
}

/// Sum of every edge weight.
fn total_edge_weight(p: &ProblemGraph) -> u64 {
    p.edges().map(|(_, _, w)| w).sum()
}

/// A random DAG on `n` tasks whose ids are not topological: forward
/// edges over a shuffled ranking, listed in shuffled order.
fn random_dag(n: usize, seed: u64, density: f64) -> ProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rank: Vec<TaskId> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(density) {
                edges.push((rank[i], rank[j], rng.gen_range(1..=9)));
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let sizes = (0..n as Time).map(|i| 1 + i % 5).collect();
    ProblemGraph::new(sizes, &edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topo_order_is_a_valid_linearization(seed in 0u64..1000, n in 1usize..40) {
        let g = random_dag(n, seed, 0.2);
        prop_assert_eq!(g.topo_order().len(), n);
        for (p, &t) in g.topo_order().iter().enumerate() {
            prop_assert_eq!(g.position(t), p);
        }
        prop_assert!(is_acyclic(&g));
    }

    #[test]
    fn longest_path_bounds(seed in 0u64..1000, n in 1usize..25) {
        let g = random_dag(n, seed, 0.25);
        let lp = g.critical_path();
        let max_cost = g.sizes().iter().copied().max().unwrap_or(0);
        prop_assert!(lp >= max_cost, "at least the heaviest single task");
        prop_assert!(lp <= g.sequential_time() + total_edge_weight(&g), "at most everything serialized");
        for (u, v, w) in g.edges() {
            prop_assert!(lp >= g.size(u) + w + g.size(v), "at least any one edge");
        }
    }

    #[test]
    fn generated_graphs_are_valid_dags(np in 1usize..120, seed in 0u64..500) {
        let p = generated(np, seed, None);
        prop_assert_eq!(p.len(), np);
        prop_assert!(is_acyclic(&p));
        prop_assert!(p.sizes().iter().all(|&s| s >= 1));
        prop_assert!(p.sequential_time() >= p.len() as u64);
        prop_assert!(p.critical_path() <= p.sequential_time() + total_edge_weight(&p));
    }

    #[test]
    fn locality_reduces_or_keeps_edge_span(np in 20usize..80, seed in 0u64..200) {
        // With a locality window, generated graphs never have MORE edges
        // than the unrestricted version at the same seed parameters in
        // expectation; verify the hard guarantee instead: edges exist
        // and the DAG is valid.
        let local = generated(np, seed, Some(1));
        prop_assert!(is_acyclic(&local));
        prop_assert!(local.graph().edge_count() >= 1);
    }

    #[test]
    fn every_clustering_front_end_is_a_partition(
        np in 8usize..80,
        na_frac in 2usize..8,
        seed in 0u64..300,
    ) {
        let p = generated(np, seed, None);
        let na = (np / na_frac).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let clusterings: Vec<Clustering> = vec![
            random_clustering(&p, na, &mut rng).unwrap(),
            random_region_clustering(&p, na, &mut rng).unwrap(),
            round_robin_clustering(&p, na).unwrap(),
            load_balanced_clustering(&p, na).unwrap(),
            comm_greedy_clustering(&p, na, 1.5).unwrap(),
            chain_clustering(&p, na).unwrap(),
        ];
        for c in clusterings {
            prop_assert_eq!(c.num_clusters(), na);
            prop_assert_eq!(c.num_tasks(), np);
            // Partition: member lists are disjoint and cover 0..np.
            let mut seen = vec![false; np];
            for cl in 0..na {
                for &t in c.members(cl) {
                    prop_assert!(!seen[t], "task {t} in two clusters");
                    seen[t] = true;
                    prop_assert_eq!(c.cluster_of(t), cl);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn clustered_weights_are_consistent(np in 8usize..60, seed in 0u64..300) {
        let p = generated(np, seed, Some(2));
        let na = (np / 4).max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_clustering(&p, na, &mut rng).unwrap();
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        // clus_weight is the problem weight iff cross-cluster, else 0.
        for (u, v, w) in g.problem().edges() {
            if g.clustering().same_cluster(u, v) {
                prop_assert_eq!(g.clus_weight(u, v), 0);
            } else {
                prop_assert_eq!(g.clus_weight(u, v), w);
            }
        }
        // The cross edges are exactly the edges with a clustered weight.
        let weighted: Vec<_> = (g.problem().edges())
            .filter(|&(u, v, _)| g.clus_weight(u, v) != 0)
            .collect();
        prop_assert_eq!(g.cross_edges().collect::<Vec<_>>(), weighted);
        // Cut weight = sum of mca / 2 (each cross edge counted twice).
        let mca: u64 = AbstractGraph::new(&g).mca_vector().iter().sum();
        prop_assert_eq!(mca, 2 * g.total_cut_weight());
    }

    #[test]
    fn abstract_graph_is_consistent(np in 8usize..60, seed in 0u64..300, coarse in 0usize..2) {
        let p = generated(np, seed, None);
        // Few clusters (`coarse`) put several problem edges, in both
        // directions, between one pair of clusters.
        let na = if coarse == 1 { 3 } else { (np / 5).max(2) };
        let mut rng = StdRng::seed_from_u64(seed);
        let c = if coarse == 1 {
            random_clustering(&p, na, &mut rng).unwrap()
        } else {
            random_region_clustering(&p, na, &mut rng).unwrap()
        };
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        let a = AbstractGraph::new(&g);
        prop_assert_eq!(a.len(), na);
        // Dense reference: the paper's `na x na` array summed straight
        // from the cross edges.
        let mut dense = SquareMatrix::<u64>::new(na);
        for (u, v, w) in g.cross_edges() {
            let (x, y) = (g.cluster_of(u), g.cluster_of(v));
            dense.set(x, y, dense.get(x, y) + w);
            dense.set(y, x, dense.get(y, x) + w);
        }
        let mut upper = Vec::new();
        for x in 0..na {
            for y in 0..na {
                prop_assert_eq!(a.pair_weight(x, y), dense.get(x, y));
                prop_assert_eq!(a.adjacent(x, y), dense.get(x, y) > 0);
            }
            // Rows list exactly the non-zero entries, ascending, with
            // the weights alongside; mca is the row sum.
            let row: Vec<(usize, u64)> = (0..na)
                .map(|y| (y, dense.get(x, y)))
                .filter(|&(_, w)| w > 0)
                .collect();
            prop_assert_eq!(a.neighbors(x), row.iter().map(|&(y, _)| y).collect::<Vec<_>>());
            prop_assert_eq!(a.weights(x), row.iter().map(|&(_, w)| w).collect::<Vec<_>>());
            prop_assert_eq!(a.mca(x), dense.row(x).iter().sum::<u64>());
            upper.extend(row.iter().filter(|&&(y, _)| x < y).map(|&(y, w)| (x, y, w)));
            prop_assert_eq!(a.row(x).collect::<Vec<_>>(), row);
        }
        prop_assert_eq!(a.edges().collect::<Vec<_>>(), upper);
    }

    #[test]
    fn comm_greedy_never_cuts_more_than_random(np in 12usize..60, seed in 0u64..200) {
        let p = generated(np, seed, Some(1));
        let na = (np / 6).max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let random = ClusteredProblemGraph::new(
            p.clone(),
            random_clustering(&p, na, &mut rng).unwrap(),
        )
        .unwrap();
        let greedy = ClusteredProblemGraph::new(
            p.clone(),
            comm_greedy_clustering(&p, na, 2.0).unwrap(),
        )
        .unwrap();
        // Not a theorem for adversarial graphs, but holds for these
        // generator settings; failures would flag a regression in the
        // merge heuristic.
        prop_assert!(greedy.total_cut_weight() <= random.total_cut_weight() + total_edge_weight(&p) / 10);
    }
}

/// Reference for [`DynamicWorkload::from_snapshot`]: the edge-by-edge
/// load it replaced, which re-derives the successor map and searches it
/// for a cycle before *every* insertion (quadratic, but obviously "the
/// first offending edge in snapshot order decides"). Returns the
/// canonical (sorted) snapshot of the accepted state.
fn oracle_from_snapshot(snapshot: &WorkloadSnapshot) -> Result<WorkloadSnapshot, GraphError> {
    if snapshot.num_clusters == 0 {
        return Err(GraphError::InvalidParameter(
            "workload needs >= 1 cluster".into(),
        ));
    }
    let mut tasks: BTreeMap<TaskId, TaskInit> = BTreeMap::new();
    let mut cluster_sizes = vec![0usize; snapshot.num_clusters];
    for task in &snapshot.tasks {
        if task.size == 0 {
            return Err(GraphError::InvalidParameter(format!(
                "task {} has zero execution time",
                task.id
            )));
        }
        if task.cluster >= snapshot.num_clusters {
            return Err(GraphError::NodeOutOfRange {
                node: task.cluster,
                len: snapshot.num_clusters,
            });
        }
        if tasks.insert(task.id, task.clone()).is_some() {
            return Err(GraphError::InvalidParameter(format!(
                "task {} appears twice in the snapshot",
                task.id
            )));
        }
        cluster_sizes[task.cluster] += 1;
    }
    if let Some(empty) = cluster_sizes.iter().position(|&n| n == 0) {
        return Err(GraphError::InvalidParameter(format!(
            "cluster {empty} is empty; every cluster must own >= 1 task"
        )));
    }
    let mut edges: BTreeMap<(TaskId, TaskId), EdgeInit> = BTreeMap::new();
    for edge in &snapshot.edges {
        let (from, to) = (edge.from, edge.to);
        if from == to {
            return Err(GraphError::InvalidParameter(format!(
                "self-loop on task {from}"
            )));
        }
        if edge.weight == 0 {
            return Err(GraphError::InvalidParameter(format!(
                "edge {from} -> {to} needs weight >= 1"
            )));
        }
        for t in [from, to] {
            if !tasks.contains_key(&t) {
                return Err(GraphError::InvalidParameter(format!(
                    "task {t} does not exist"
                )));
            }
        }
        if edges.contains_key(&(from, to)) {
            return Err(GraphError::InvalidParameter(format!(
                "edge {from} -> {to} already exists"
            )));
        }
        let mut successors: BTreeMap<TaskId, Vec<TaskId>> = BTreeMap::new();
        for &(u, v) in edges.keys() {
            successors.entry(u).or_default().push(v);
        }
        let mut stack = vec![to];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if t == from {
                return Err(GraphError::CycleDetected);
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = successors.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        edges.insert((from, to), edge.clone());
    }
    Ok(WorkloadSnapshot {
        num_clusters: snapshot.num_clusters,
        tasks: tasks.into_values().collect(),
        edges: edges.into_values().collect(),
    })
}

/// Everything a [`DynamicWorkload`] stores twice must agree: every edge
/// of `edge_list()` (the successor rows) with `edge_weight` (a scan of
/// the predecessor rows) and with the edge count, the state with a
/// rebuild from its own snapshot, and `materialize()` with the graph
/// frozen from `edge_list()` renumbered densely. Every edge runs
/// forward in position order, the order the delta evaluator sweeps in.
fn assert_consistent(state: &DynamicWorkload) {
    let mut count = 0;
    for (u, v, w) in state.edge_list() {
        assert_eq!(state.edge_weight(u, v), Some(w));
        count += 1;
    }
    assert_eq!(count, state.num_edges());
    let (rows, _) = state.rows();
    for p in 0..rows.len() {
        assert!(rows.succs(p).0.iter().all(|&v| v as usize > p), "{p}");
    }

    let snapshot = state.snapshot();
    assert_eq!(&DynamicWorkload::from_snapshot(&snapshot).unwrap(), state);

    let index: BTreeMap<TaskId, usize> = state.task_ids().zip(0..).collect();
    let edges: Vec<_> = state
        .edge_list()
        .map(|(u, v, w)| (index[&u], index[&v], w))
        .collect();
    let sizes = snapshot.tasks.iter().map(|t| t.size).collect();
    let clusters = snapshot.tasks.iter().map(|t| t.cluster).collect();
    let expected = ClusteredProblemGraph::new(
        ProblemGraph::new(sizes, &edges).unwrap(),
        Clustering::new(clusters).unwrap(),
    )
    .unwrap();
    assert_eq!(state.materialize().unwrap(), expected);
}

/// An event drawn without regard for validity: dead and duplicate ids,
/// zero sizes and weights, self-loops, edges in either orientation.
fn hostile_event(state: &DynamicWorkload, rng: &mut StdRng) -> TraceEvent {
    let ids: Vec<TaskId> = state.task_ids().collect();
    let task = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0 => state.next_task_id() + rng.gen_range(0..3usize),
        _ => ids[rng.gen_range(0..ids.len())],
    };
    match rng.gen_range(0..10) {
        0..=3 => TraceEvent::AddEdge {
            from: task(rng),
            to: task(rng),
            weight: rng.gen_range(0..4),
        },
        4 => TraceEvent::RemoveTask { task: task(rng) },
        5 => TraceEvent::RemoveEdge {
            from: task(rng),
            to: task(rng),
        },
        6 => TraceEvent::AddTask {
            task: task(rng),
            size: rng.gen_range(0..3),
            cluster: rng.gen_range(0..state.num_clusters() + 1),
        },
        7 => TraceEvent::SetEdgeWeight {
            from: task(rng),
            to: task(rng),
            weight: rng.gen_range(0..3),
        },
        8 => TraceEvent::SetTaskSize {
            task: task(rng),
            size: rng.gen_range(0..3),
        },
        _ => TraceEvent::ScaleEdgeWeights {
            percent: rng.gen_range(0..3u32) * 90,
        },
    }
}

fn churn_instance(np: usize, na_frac: usize, seed: u64) -> (ClusteredProblemGraph, StdRng) {
    let p = generated(np, seed, Some(1));
    let na = (np / na_frac).max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let clustering = random_region_clustering(&p, na, &mut rng).unwrap();
    (ClusteredProblemGraph::new(p, clustering).unwrap(), rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Applying a churn trace delta-by-delta ends in exactly the state
    /// rebuilt from the final snapshot — i.e. the same
    /// `ClusteredProblemGraph` — and every intermediate state stays a
    /// valid instance with the cluster count pinned. After every event,
    /// accepted (the trace's) or possibly rejected (a hostile probe on a
    /// copy), the stored adjacency, the snapshot rebuild and the bulk
    /// `materialize` agree with their references, and an `AddEdge` is
    /// answered exactly as the per-edge oracle answers it.
    #[test]
    fn trace_deltas_commute_with_snapshot_rebuild(
        np in 16usize..64,
        na_frac in 2usize..6,
        events in 10usize..80,
        regime in 0usize..3,
        seed in 0u64..100_000,
    ) {
        let (base, mut rng) = churn_instance(np, na_frac, seed);
        let na = base.num_clusters();

        let regime = [ChurnRegime::Arrivals, ChurnRegime::Drift, ChurnRegime::Mixed][regime];
        let trace = churn_trace(&base, events, regime, &mut rng);
        prop_assert_eq!(trace.len(), events);

        let mut state = DynamicWorkload::from_clustered(&base);
        for event in &trace {
            let impact = state.apply(event).unwrap();
            prop_assert!(impact.touched_clusters.iter().all(|&c| c < na));
            let graph = state.materialize().unwrap();
            prop_assert_eq!(graph.num_clusters(), na);
            prop_assert!(is_acyclic(graph.problem()));
            assert_consistent(&state);

            let hostile = hostile_event(&state, &mut rng);
            let mut probe = state.clone();
            let outcome = probe.apply(&hostile);
            if let TraceEvent::AddEdge { from, to, weight } = hostile {
                let mut extended = state.snapshot();
                extended.edges.push(EdgeInit { from, to, weight });
                prop_assert_eq!(
                    outcome.as_ref().err(),
                    oracle_from_snapshot(&extended).as_ref().err(),
                    "{:?}", hostile
                );
            }
            if outcome.is_err() {
                prop_assert_eq!(&probe, &state, "{:?} mutated the state", hostile);
            }
            assert_consistent(&probe);
        }

        // Delta-by-delta == rebuild-from-final-state.
        let rebuilt = DynamicWorkload::from_snapshot(&state.snapshot()).unwrap();
        prop_assert_eq!(&rebuilt, &state);
        prop_assert_eq!(
            rebuilt.materialize().unwrap(),
            state.materialize().unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `from_snapshot` answers every snapshot — valid, or seeded with
    /// cycles, duplicates, dead endpoints, zero weights and self-loops
    /// at random positions of a shuffled edge list over sparse ids —
    /// exactly as the per-edge oracle does: same state, or the same
    /// `GraphError` variant and message.
    #[test]
    fn from_snapshot_matches_the_per_edge_oracle(
        np in 6usize..40,
        na_frac in 2usize..5,
        faults in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (base, mut rng) = churn_instance(np, na_frac, seed);
        let mut snapshot = DynamicWorkload::from_clustered(&base).snapshot();
        // Sparse, still topologically ascending ids.
        let (stride, offset) = (rng.gen_range(1..1000usize), rng.gen_range(0..50usize));
        let sparse = |id: TaskId| id * stride + offset;
        for task in &mut snapshot.tasks {
            task.id = sparse(task.id);
        }
        for edge in &mut snapshot.edges {
            (edge.from, edge.to) = (sparse(edge.from), sparse(edge.to));
        }
        // Snapshot order is the client's: shuffle it.
        for i in (1..snapshot.edges.len()).rev() {
            snapshot.edges.swap(i, rng.gen_range(0..=i));
        }
        for _ in 0..faults {
            let live = |rng: &mut StdRng| sparse(rng.gen_range(0..np));
            let some_edge = |rng: &mut StdRng, edges: &[EdgeInit]| match edges.len() {
                0 => EdgeInit { from: sparse(0), to: sparse(1), weight: 1 },
                n => edges[rng.gen_range(0..n)].clone(),
            };
            let fault = match rng.gen_range(0..7) {
                // Reversal of a live edge: closes a 2-cycle.
                0 => {
                    let e = some_edge(&mut rng, &snapshot.edges);
                    EdgeInit { from: e.to, to: e.from, weight: 1 }
                }
                // Backward edge: closes a longer cycle iff a path exists.
                1 => {
                    let (a, b) = (live(&mut rng), live(&mut rng));
                    EdgeInit { from: a.max(b), to: a.min(b), weight: 2 }
                }
                2 => some_edge(&mut rng, &snapshot.edges), // duplicate
                3 => EdgeInit { from: live(&mut rng), to: sparse(np) + 1, weight: 1 },
                4 => EdgeInit { from: sparse(np) + 1, to: live(&mut rng), weight: 1 },
                5 => EdgeInit { weight: 0, ..some_edge(&mut rng, &snapshot.edges) },
                _ => {
                    let t = live(&mut rng) + rng.gen_range(0..2usize);
                    EdgeInit { from: t, to: t, weight: rng.gen_range(0..2) }
                }
            };
            let at = rng.gen_range(0..=snapshot.edges.len());
            snapshot.edges.insert(at, fault);
        }
        // Now and then a task-level fault ahead of the edges.
        match rng.gen_range(0..12) {
            0 => snapshot.tasks[0].size = 0,
            1 => snapshot.tasks[0].cluster = snapshot.num_clusters,
            2 => snapshot.tasks.push(snapshot.tasks[0].clone()),
            _ => {}
        }

        let expected = oracle_from_snapshot(&snapshot);
        let loaded = DynamicWorkload::from_snapshot(&snapshot);
        if let Ok(state) = &loaded {
            assert_consistent(state);
        }
        prop_assert_eq!(loaded.map(|state| state.snapshot()), expected);
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The layered generator as each workload spec configures it.
fn layered_spec(tasks: usize, avg_width: usize, rng: &mut StdRng) -> ProblemGraph {
    let cfg = GeneratorConfig {
        tasks,
        avg_width,
        locality_window: Some(1),
        ..GeneratorConfig::default()
    };
    LayeredDagGenerator::new(cfg).unwrap().generate(rng)
}

fn paper_regime_spec(tasks: usize, rng: &mut StdRng) -> ProblemGraph {
    let cfg = GeneratorConfig {
        tasks,
        avg_width: (tasks / 8).clamp(3, 16),
        p_forward: 0.45,
        p_skip: 0.01,
        task_weight: (3, 24),
        edge_weight: (4, 16),
        connect_layers: true,
        locality_window: Some(1),
    };
    LayeredDagGenerator::new(cfg).unwrap().generate(rng)
}

/// Every workload kind, built with the parameters its spec passes.
fn pinned_workload(label: &str, rng: &mut StdRng) -> ProblemGraph {
    match label {
        "layered:60" => layered_spec(60, 7, rng),
        "layered:200/5" => layered_spec(200, 5, rng),
        "paper:80" => paper_regime_spec(80, rng),
        "ge:7" => workloads::gaussian_elimination(7, 3, 5, 2).unwrap(),
        "stencil:6x5" => workloads::stencil_1d(6, 5, 5, 2).unwrap(),
        "fft:4" => workloads::fft_butterfly(4, 3, 2).unwrap(),
        "dnc:3" => workloads::divide_and_conquer(3, 1, 6, 2, 2).unwrap(),
        "pipe:3x5" => workloads::pipeline(3, 5, 4, 2).unwrap(),
        other => panic!("no workload {other}"),
    }
}

/// `(np, FNV of edges(), FNV of the sizes, FNV of the topological
/// order)`.
type WorkloadPin = (usize, u64, u64, u64);

/// `(label, seed, pin)`, recorded from generators that grew the graph
/// one `add_edge` insert at a time: freezing an edge list must
/// reproduce every graph and every RNG draw.
#[rustfmt::skip]
const WORKLOAD_PINS: &[(&str, u64, WorkloadPin)] = &[
    ("layered:60", 1, (60, 0xe4917fb8605985e9, 0xcf76da0c2184952f, 0xd823ee269a8105e5)),
    ("layered:60", 2, (60, 0xf9d075975934c0ff, 0x79ca17d2838330e8, 0xd823ee269a8105e5)),
    ("layered:200/5", 1, (200, 0x66b3812ca7068635, 0x16bfcb74f8516aab, 0xa0cfc4c21fcfff25)),
    ("layered:200/5", 2, (200, 0x91c9b03e2c016302, 0x37ed63c3d46edb47, 0xa0cfc4c21fcfff25)),
    ("paper:80", 1, (80, 0xd9d38274776db887, 0x734a8b4140edf990, 0x5acb94b422a3cd25)),
    ("paper:80", 2, (80, 0x94be0856b2803bb7, 0x58cfbb52a0f86e39, 0x5acb94b422a3cd25)),
    ("ge:7", 1, (27, 0xd61c9c4900e88be0, 0x532fdc07898a6b80, 0x878986652c920cde)),
    ("ge:7", 2, (27, 0xd61c9c4900e88be0, 0x532fdc07898a6b80, 0x878986652c920cde)),
    ("stencil:6x5", 1, (30, 0x02ee0e7d258858a5, 0x5527551de9657a85, 0xad3f3e0237073944)),
    ("stencil:6x5", 2, (30, 0x02ee0e7d258858a5, 0x5527551de9657a85, 0xad3f3e0237073944)),
    ("fft:4", 1, (80, 0xff23706b53b31a25, 0x1c90f3272f2eaa25, 0x5acb94b422a3cd25)),
    ("fft:4", 2, (80, 0xff23706b53b31a25, 0x1c90f3272f2eaa25, 0x5acb94b422a3cd25)),
    ("dnc:3", 1, (22, 0x27045dafcedd1cc3, 0xef405d271ab3dc86, 0x2e20d1dfb4829344)),
    ("dnc:3", 2, (22, 0x27045dafcedd1cc3, 0xef405d271ab3dc86, 0x2e20d1dfb4829344)),
    ("pipe:3x5", 1, (15, 0xd5427451391311e3, 0x8e9f25482bad6681, 0x65332cec4b3cfc8a)),
    ("pipe:3x5", 2, (15, 0xd5427451391311e3, 0x8e9f25482bad6681, 0x65332cec4b3cfc8a)),
];

#[test]
fn frozen_generators_reproduce_the_pinned_workloads() {
    for &(label, seed, pin) in WORKLOAD_PINS {
        let p = pinned_workload(label, &mut StdRng::seed_from_u64(seed));
        let edges = p.edges().flat_map(|(u, v, w)| [u as u64, v as u64, w]);
        let got = (
            p.len(),
            fnv(edges),
            fnv(p.sizes().iter().copied()),
            fnv(p.topo_order().iter().map(|&t| t as u64)),
        );
        assert_eq!(got, pin, "{label} seed {seed}");
        // The JSON form round-trips through `ProblemGraph::new`.
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<ProblemGraph>(&json).unwrap(), p);
    }
}
