//! Property tests for the schedule kernel, against the task-space
//! recurrence of `reference/`: on a replayed refinement run, every
//! candidate the [`DeltaEvaluator`] prices must equal the reference
//! total of the candidate — bit-for-bit, under both models, with and
//! without pins, on both sides of the dense cut, on graphs whose task
//! ids are and are not numbered topologically; `evaluate_assignment`
//! and `IdealSchedule::derive`, one from-scratch sweep each, must equal
//! the reference task by task; and the [`GainTable`] must stay equal to
//! a from-scratch rebuild after every accepted swap.

mod reference;

use proptest::prelude::*;

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace, DENSE_CUT};
use mimd_core::evaluate::{evaluate_assignment, evaluate_total};
use mimd_core::gain::GainTable;
use mimd_core::schedule::EvaluationModel;
use mimd_core::validate::validate_schedule;
use mimd_core::{fisher_yates, Assignment, IdealSchedule};
use mimd_graph::BitSet;
use mimd_taskgraph::clustering::random::random_clustering;
use mimd_taskgraph::{
    workloads, ClusteredProblemGraph, Clustering, GeneratorConfig, LayeredDagGenerator,
    ProblemGraph,
};
use mimd_topology::{hypercube, ring, torus2d, SystemGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODELS: [EvaluationModel; 2] = [EvaluationModel::Precedence, EvaluationModel::Serialized];

fn topology(index: usize, ns_hint: usize) -> SystemGraph {
    match index % 3 {
        0 => ring(ns_hint.max(3)).unwrap(),
        1 => hypercube(3).unwrap(),
        _ => torus2d(3, 3).unwrap(),
    }
}

fn layered(tasks: usize, rng: &mut StdRng) -> ProblemGraph {
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks,
        ..GeneratorConfig::default()
    })
    .unwrap();
    gen.generate(rng)
}

fn instance(ns: usize, extra: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = layered(ns + extra, &mut rng);
    let clustering = random_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// The same DAG under a random renumbering of its tasks.
fn relabelled(problem: &ProblemGraph, rng: &mut StdRng) -> ProblemGraph {
    let n = problem.len();
    let mut new_id: Vec<usize> = (0..n).collect();
    fisher_yates(&mut new_id, rng);
    let edges: Vec<_> = problem
        .edges()
        .map(|(u, v, w)| (new_id[u], new_id[v], w))
        .collect();
    let mut sizes = vec![0; n];
    for t in 0..n {
        sizes[new_id[t]] = problem.size(t);
    }
    ProblemGraph::new(sizes, &edges).unwrap()
}

/// An instance whose topological order is *not* `0, 1, 2, …` — the
/// generators' `layered` graphs number tasks layer by layer, so only
/// these can tell a task id from a topological position. 65 to 300
/// tasks on `ns` clusters.
fn unordered_instance(kind: usize, ns: usize, scale: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = match kind % 3 {
        0 => workloads::gaussian_elimination(11 + scale % 14, 3, 5, 2).unwrap(),
        1 => workloads::divide_and_conquer(5 + (scale % 2) as u32, 1, 6, 2, 2).unwrap(),
        _ => relabelled(&layered(65 + scale, &mut rng), &mut rng),
    };
    let identity: Vec<usize> = (0..problem.len()).collect();
    assert_ne!(problem.topo_order(), identity, "kind {kind}");
    let clustering = random_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// The reference total of `assignment`.
fn full_total(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> u64 {
    reference::on_machine(graph, system, assignment, model).total
}

/// Replay a refinement-shaped run — alternating random subset
/// re-placements and pairwise swaps, greedily accepting improvements
/// so the committed base keeps moving — and check every staged
/// candidate and every committed state against the full evaluator.
fn replay_against_full_evaluation(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    model: EvaluationModel,
    with_pins: bool,
    seed: u64,
) {
    let ns = system.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let start = Assignment::random(ns, &mut rng);

    // Pins shrink the movable pool the way `refine` would.
    let movable: Vec<usize> = if with_pins {
        (0..ns).filter(|c| c % 3 != 0).collect()
    } else {
        (0..ns).collect()
    };
    prop_assert!(movable.len() >= 2);
    let free_sys: Vec<usize> = movable.iter().map(|&c| start.sys_of(c)).collect();

    let mut ws = DeltaWorkspace::new();
    let mut evaluator = DeltaEvaluator::attach(&mut ws, graph, system, model, &start).unwrap();
    prop_assert_eq!(evaluator.total(), full_total(graph, system, &start, model));

    let mut perm: Vec<usize> = (0..movable.len()).collect();
    let mut best = evaluator.total();
    for round in 0..15 {
        let (staged_total, expected) = if round % 2 == 0 {
            // Subset re-placement, exactly like the flat refine loop.
            fisher_yates(&mut perm, &mut rng);
            let mut expected = evaluator.assignment().clone();
            expected.place_subset(&movable, &free_sys, &perm);
            (evaluator.stage_place(&movable, &free_sys, &perm), expected)
        } else {
            // Pairwise swap between two movable clusters.
            let a = movable[rng.gen_range(0..movable.len())];
            let mut b = movable[rng.gen_range(0..movable.len())];
            if a == b {
                b = movable[(movable.iter().position(|&c| c == a).unwrap() + 1) % movable.len()];
            }
            let mut expected = evaluator.assignment().clone();
            expected.swap_clusters(a, b);
            (evaluator.stage_swap(a, b), expected)
        };
        // The staged total must equal a from-scratch evaluation of
        // the staged placement.
        prop_assert_eq!(staged_total, full_total(graph, system, &expected, model));

        if staged_total < best {
            evaluator.commit();
            best = staged_total;
            prop_assert_eq!(evaluator.assignment(), &expected);
        } else {
            evaluator.discard();
        }
        // Commit or rollback, the evaluator's committed state stays
        // exact.
        prop_assert_eq!(
            evaluator.total(),
            full_total(graph, system, evaluator.assignment(), model)
        );
    }
}

/// Stage candidates on both sides of the dense cut and check each
/// against the full evaluator: in a random order of the movable
/// clusters, the shortest prefix owning at least 1/[`DENSE_CUT`] of all
/// tasks (swept densely) and that prefix without its last cluster
/// (swept sparsely), each rotated among its own processors so every
/// cluster in it moves. Discarding restores the committed state; after
/// committing the dense candidate, the sparse one is priced again from
/// there.
fn stage_both_sides_of_the_dense_cut(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    model: EvaluationModel,
    with_pins: bool,
    seed: u64,
) {
    let ns = system.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
    let start = Assignment::random(ns, &mut rng);
    let mut owned = vec![0; ns];
    for t in 0..graph.num_tasks() {
        owned[graph.cluster_of(t)] += 1;
    }
    let mut order: Vec<usize> = (0..ns).filter(|c| !with_pins || c % 3 != 0).collect();
    fisher_yates(&mut order, &mut rng);
    let cut = graph.num_tasks().div_ceil(DENSE_CUT);
    let mut moved = 0;
    let at = 1 + order
        .iter()
        .position(|&c| {
            moved += owned[c];
            moved >= cut
        })
        .expect("the movable clusters own a quarter of the tasks");
    prop_assert!(at >= 3, "the sparse side moves at least two clusters");
    let (below, dense) = (&order[..at - 1], &order[..at]);

    let mut ws = DeltaWorkspace::new();
    let mut evaluator = DeltaEvaluator::attach(&mut ws, graph, system, model, &start).unwrap();
    let committed = evaluator.total();
    let stage = |evaluator: &mut DeltaEvaluator, clusters: &[usize]| {
        let processors: Vec<usize> = clusters
            .iter()
            .map(|&c| evaluator.assignment().sys_of(c))
            .collect();
        let rotation: Vec<usize> = (1..=clusters.len()).map(|i| i % clusters.len()).collect();
        let mut expected = evaluator.assignment().clone();
        expected.place_subset(clusters, &processors, &rotation);
        let staged = evaluator.stage_place(clusters, &processors, &rotation);
        (staged, full_total(graph, system, &expected, model))
    };
    for clusters in [below, dense] {
        let (staged, expected) = stage(&mut evaluator, clusters);
        prop_assert_eq!(staged, expected, "{} clusters", clusters.len());
        evaluator.discard();
        prop_assert_eq!(evaluator.total(), committed);
        prop_assert_eq!(evaluator.assignment(), &start);
    }
    stage(&mut evaluator, dense);
    evaluator.commit();
    prop_assert_eq!(
        evaluator.total(),
        full_total(graph, system, evaluator.assignment(), model)
    );
    let (staged, expected) = stage(&mut evaluator, below);
    prop_assert_eq!(staged, expected, "sparse after a dense commit");
}

/// Two source tasks alone in cluster 0 feed clusters 1 and 2; cluster
/// 5 holds one task with no edges at all.
fn sources_only_cluster() -> ClusteredProblemGraph {
    let problem = ProblemGraph::from_paper_edges(
        &[3, 3, 2, 2, 1, 4],
        &[(1, 3, 5), (2, 4, 1), (3, 5, 2), (4, 5, 2)],
    )
    .unwrap();
    let clustering = Clustering::new(vec![0, 0, 1, 2, 3, 4]).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// Swapping a cluster of sources with a cluster of one isolated task
/// shifts no moved task's end time — sources start at 0 wherever they
/// run — yet every message the sources send changes cost, so their
/// successors in the *unmoved* clusters must be re-priced.
#[test]
fn moving_only_source_tasks_reprices_their_successors() {
    let graph = sources_only_cluster();
    let system = ring(5).unwrap();
    let start = Assignment::identity(5);
    for model in MODELS {
        let mut ws = DeltaWorkspace::new();
        let mut evaluator =
            DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        let mut swapped = start.clone();
        swapped.swap_clusters(0, 4);
        let expected = full_total(&graph, &system, &swapped, model);
        assert_ne!(
            expected,
            evaluator.total(),
            "{model:?}: the move must matter"
        );
        assert_eq!(evaluator.stage_swap(0, 4), expected, "{model:?}");
        evaluator.discard();
        assert_eq!(
            evaluator.stage_swap(0, 4),
            expected,
            "{model:?} after discard"
        );
        evaluator.commit();
        assert_eq!(evaluator.total(), expected);
        assert_eq!(evaluator.assignment(), &swapped);
    }
}

/// One workspace across instances of different sizes, each attachment
/// leaving a discarded candidate — or a still-staged one — behind: no
/// flag, window bound or undo entry of an earlier instance may leak
/// into a later one.
#[test]
fn one_workspace_reattached_large_small_large_prices_exactly() {
    let large = unordered_instance(2, 64, 200, 11);
    let small = instance(8, 12, 12);
    let (sys_large, sys_small) = (torus2d(8, 8).unwrap(), hypercube(3).unwrap());
    let mut ws = DeltaWorkspace::new();
    let mut rng = StdRng::seed_from_u64(13);
    for model in MODELS {
        for (round, (graph, system)) in [
            (&large, &sys_large),
            (&small, &sys_small),
            (&large, &sys_large),
            (&small, &sys_small),
        ]
        .into_iter()
        .enumerate()
        {
            let ns = system.len();
            let start = Assignment::random(ns, &mut rng);
            let mut evaluator =
                DeltaEvaluator::attach(&mut ws, graph, system, model, &start).unwrap();
            assert_eq!(evaluator.total(), full_total(graph, system, &start, model));
            let candidate = Assignment::random(ns, &mut rng);
            let expected = full_total(graph, system, &candidate, model);
            assert_eq!(evaluator.stage_candidate(&candidate), expected);
            evaluator.discard();
            let mut swapped = start.clone();
            swapped.swap_clusters(0, ns - 1);
            assert_eq!(
                evaluator.stage_swap(0, ns - 1),
                full_total(graph, system, &swapped, model)
            );
            // Odd rounds drop the evaluator with the swap still staged.
            if round % 2 == 0 {
                evaluator.discard();
                assert_eq!(evaluator.total(), full_total(graph, system, &start, model));
            }
        }
    }
}

/// Staging is repeatable, and a candidate equal to the committed
/// assignment is the committed total.
#[test]
fn restaging_a_candidate_and_staging_the_committed_assignment() {
    let graph = unordered_instance(0, 16, 9, 21);
    let system = hypercube(4).unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    for model in MODELS {
        let start = Assignment::random(16, &mut rng);
        let candidate = Assignment::random(16, &mut rng);
        let mut ws = DeltaWorkspace::new();
        let mut evaluator =
            DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        let committed = evaluator.total();
        let first = evaluator.stage_candidate(&candidate);
        evaluator.discard();
        assert_eq!(evaluator.stage_candidate(&candidate), first);
        evaluator.discard();
        assert_eq!(evaluator.stage_candidate(&start), committed);
        assert!(evaluator.is_staged());
        evaluator.commit();
        assert_eq!(evaluator.total(), committed);
        assert_eq!(evaluator.assignment(), &start);
        assert_eq!(evaluator.stage_candidate(&candidate), first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One from-scratch sweep is the reference schedule, task by task:
    /// an evaluation under either model on the machine, and the ideal
    /// schedule on the closure. Each is feasible where it claims to be.
    #[test]
    fn evaluations_and_the_ideal_schedule_equal_the_reference_per_task(
        kind in 0usize..4,
        topo in 0usize..3,
        scale in 0usize..120,
        seed in 0u64..1_000_000,
    ) {
        let system = topology(topo, 6);
        let ns = system.len();
        let graph = if kind == 3 {
            instance(ns, 8 + scale, seed)
        } else {
            unordered_instance(kind, ns, scale, seed)
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let assignment = Assignment::random(ns, &mut rng);
        for model in MODELS {
            let eval = evaluate_assignment(&graph, &system, &assignment, model).unwrap();
            let expected = reference::on_machine(&graph, &system, &assignment, model);
            prop_assert_eq!(eval.schedule.starts(), &expected.start[..]);
            prop_assert_eq!(eval.schedule.ends(), &expected.end[..]);
            prop_assert_eq!(eval.total(), expected.total);
            let total = evaluate_total(&graph, &system, &assignment, model).unwrap();
            prop_assert_eq!(total, expected.total);
            let violations = validate_schedule(&graph, &system, &assignment, &eval.schedule, model);
            prop_assert!(violations.is_empty(), "{:?}: {:?}", model, violations);
        }
        let ideal = IdealSchedule::derive(&graph);
        let expected = reference::ideal(&graph);
        prop_assert_eq!(ideal.schedule().starts(), &expected.start[..]);
        prop_assert_eq!(ideal.schedule().ends(), &expected.end[..]);
        prop_assert_eq!(ideal.lower_bound(), expected.total);
        let closure = system.closure();
        let precedence = EvaluationModel::Precedence;
        let violations = validate_schedule(&graph, &closure, &assignment, ideal.schedule(), precedence);
        prop_assert!(violations.is_empty(), "ideal: {:?}", violations);
    }

    #[test]
    fn delta_totals_match_full_evaluation_on_every_candidate(
        topo in 0usize..3,
        extra in 8usize..64,
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = topology(topo, 6);
        let graph = instance(system.len(), extra, seed);
        replay_against_full_evaluation(&graph, &system, MODELS[model_ix], with_pins == 1, seed);
    }

    /// The same replay where a task's id is not its topological
    /// position, at machine sizes where a swap's cone is a small part
    /// of the graph.
    #[test]
    fn delta_totals_match_full_evaluation_when_ids_are_not_topological(
        kind in 0usize..3,
        topo in 0usize..2,
        scale in 0usize..236,
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = if topo == 0 { torus2d(8, 8) } else { hypercube(6) }.unwrap();
        let graph = unordered_instance(kind, 64, scale, seed);
        replay_against_full_evaluation(&graph, &system, MODELS[model_ix], with_pins == 1, seed);
    }

    /// Candidates just below and just at the dense cut price exactly,
    /// on graphs whose ids are and are not topological positions.
    #[test]
    fn candidates_on_both_sides_of_the_dense_cut_match_full_evaluation(
        kind in 0usize..4,
        topo in 0usize..2,
        scale in 0usize..236,
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = if topo == 0 { torus2d(8, 8) } else { hypercube(6) }.unwrap();
        let graph = if kind == 3 {
            instance(64, 8 + scale, seed)
        } else {
            unordered_instance(kind, 64, scale, seed)
        };
        stage_both_sides_of_the_dense_cut(&graph, &system, MODELS[model_ix], with_pins == 1, seed);
    }

    /// After any sequence of accepted swaps, the incrementally repaired
    /// gain table equals a from-scratch rebuild, its boundary predicate
    /// holds, and `swap_gain` predicts the external-cost drop exactly.
    #[test]
    fn gain_table_matches_rebuild_after_accepted_swaps(
        topo in 0usize..3,
        extra in 8usize..48,
        seed in 0u64..1_000_000,
        swaps in 1usize..12,
    ) {
        let system = topology(topo, 5);
        let ns = system.len();
        let graph = instance(ns, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut assignment = Assignment::random(ns, &mut rng);
        let pinned: Vec<bool> = (0..ns).map(|c| c % 4 == 0).collect();
        let mut table = GainTable::new(&graph, &system, &assignment, &pinned);

        for _ in 0..swaps {
            let a = rng.gen_range(0..ns);
            let b = (a + 1 + rng.gen_range(0..ns - 1)) % ns;
            let ext_before: i64 = (0..ns).map(|c| table.ext(c) as i64).sum();
            let gain = table.swap_gain(a, b, &assignment, &system);

            assignment.swap_clusters(a, b);
            table.apply_swap(a, b, &assignment, &system);

            let fresh = GainTable::new(&graph, &system, &assignment, &pinned);
            let ext_after: i64 = (0..ns).map(|c| fresh.ext(c) as i64).sum();
            #[allow(clippy::needless_range_loop)]
            for c in 0..ns {
                prop_assert_eq!(table.ext(c), fresh.ext(c), "ext[{}] diverged", c);
                prop_assert_eq!(
                    table.boundary().contains(c),
                    fresh.boundary().contains(c),
                    "boundary[{}] diverged",
                    c
                );
                prop_assert_eq!(table.movable().contains(c), !pinned[c]);
                if table.boundary().contains(c) {
                    prop_assert!(table.movable().contains(c));
                }
            }
            // ext sums count each cross edge at both endpoints, so the
            // predicted drop appears twice.
            prop_assert_eq!(ext_before - ext_after, 2 * gain);

            // A round's batched gains are the per-pair ones, pair by
            // pair in ascending order, on the repaired table too.
            let mut pairs = BitSet::new(ns * ns);
            let mut expect = Vec::new();
            for x in 0..ns {
                for y in x + 1..ns {
                    if rng.gen_bool(0.4) {
                        pairs.insert(x * ns + y);
                        expect.push((table.swap_gain(x, y, &assignment, &system), x, y));
                    }
                }
            }
            let mut batched = Vec::new();
            table.swap_gains(&pairs, &assignment, &system, |swap| batched.push(swap));
            prop_assert_eq!(batched, expect);
        }
    }
}
