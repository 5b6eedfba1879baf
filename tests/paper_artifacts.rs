//! Every number the paper publishes, asserted in one place.
//!
//! EXPERIMENTS.md references this file as the machine-checked record of
//! paper-vs-reproduction fidelity for the worked example (Figs 2–6,
//! 18–24) and the §2.2 counterexamples (Figs 7–17).

use mimd::baselines::bokhari::cardinality;
use mimd::baselines::exhaustive::{exhaustive_optimum, for_each_assignment};
use mimd::baselines::lee::lee_cost;
use mimd::core::critical::{CriticalAnalysis, CriticalityMode};
use mimd::core::evaluate::evaluate_assignment;
use mimd::core::ideal::IdealSchedule;
use mimd::core::schedule::EvaluationModel;
use mimd::core::{Assignment, Mapper};
use mimd::taskgraph::{paper, AbstractGraph};
use mimd::topology::{hypercube, ring};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ------------------------- worked example -------------------------------

#[test]
fn fig22b_ideal_start_end_times() {
    let g = paper::worked_example();
    let ideal = IdealSchedule::derive(&g);
    assert_eq!(ideal.schedule().starts(), &paper::WORKED_IDEAL_START);
    assert_eq!(ideal.schedule().ends(), &paper::WORKED_IDEAL_END);
}

#[test]
fn fig6_lower_bound_and_latest_tasks() {
    let g = paper::worked_example();
    let ideal = IdealSchedule::derive(&g);
    assert_eq!(ideal.lower_bound(), 14);
    // "tasks 9 and 11 are the latest tasks" (§2.1).
    assert_eq!(ideal.latest_tasks(), vec![8, 10]);
}

#[test]
fn fig22c_critical_problem_edges() {
    let g = paper::worked_example();
    let ideal = IdealSchedule::derive(&g);
    let crit = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
    assert_eq!(crit.critical_edges(), &paper::WORKED_CRITICAL_EDGES);
}

#[test]
fn fig20b_critical_abstract_matrix() {
    let g = paper::worked_example();
    let ideal = IdealSchedule::derive(&g);
    let crit = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
    // Row 0: (0 3 6 0 | 9); rows 1/2 mirror; row 3 zero.
    assert_eq!(crit.critical_abstract_weight(0, 1), 3);
    assert_eq!(crit.critical_abstract_weight(0, 2), 6);
    assert_eq!(crit.critical_abstract_weight(0, 3), 0);
    assert_eq!(crit.critical_degrees(), &[9, 3, 6, 0]);
}

#[test]
fn fig20c_mca_vector() {
    let g = paper::worked_example();
    // mca[2] = 13 is stated in the §3.3(c) text; 13/11 printed for
    // clusters 0/1. mca[3] is garbled in the scan; our reconstruction
    // yields 5 (documented in EXPERIMENTS.md).
    assert_eq!(AbstractGraph::new(&g).mca_vector(), &paper::WORKED_MCA);
}

#[test]
fn paper_text_slack_statements() {
    let g = paper::worked_example();
    let ideal = IdealSchedule::derive(&g);
    // "i_edge[7][9] = clus_edge[7][9]" — tight.
    assert_eq!(ideal.slack(&g, 6, 8), 0);
    // ec59: critical only if increased "by more than 2" — slack 2.
    assert_eq!(ideal.slack(&g, 4, 8), 2);
    // Task 4 (paper) starts at 1: i_start[4] = i_end[1] + 0, same cluster.
    assert_eq!(ideal.schedule().start(3), 1);
    // "task 9 has three predecessors, 5, 6, and 7" — the reconstruction
    // carries one extra slack predecessor (task 8, the mca[2] filler; see
    // EXPERIMENTS.md), but the paper's derivation is preserved: the
    // stated predecessors exist and max(end_j + clus_edge[j][9]) = 12.
    let preds: Vec<usize> = g.problem().predecessors(8).map(|(u, _)| u + 1).collect();
    for stated in [5, 6, 7] {
        assert!(preds.contains(&stated), "predecessor {stated} missing");
    }
    let start9 = g
        .problem()
        .predecessors(8)
        .map(|(u, _)| ideal.schedule().end(u) + g.clus_weight(u, 8))
        .max()
        .unwrap();
    assert_eq!(start9, 12, "§4.1's worked derivation of i_start[9]");
}

#[test]
fn fig23_assignment_is_optimal_and_fig24_terminates() {
    let g = paper::worked_example();
    let sys = ring(4).unwrap();
    let fig23 = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
    let eval = evaluate_assignment(&g, &sys, &fig23, EvaluationModel::Precedence).unwrap();
    assert_eq!(
        eval.total(),
        14,
        "Fig 24: the assignment meets the lower bound"
    );
    // The pipeline reproduces it with zero refinement iterations.
    let mut rng = StdRng::seed_from_u64(0);
    let result = Mapper::new().map(&g, &sys, &mut rng).unwrap();
    assert!(result.is_provably_optimal());
    assert_eq!(result.refinement.iterations_used, 0);
}

#[test]
fn worked_example_exhaustive_optimum_is_14() {
    let g = paper::worked_example();
    let sys = ring(4).unwrap();
    let (_, t) = exhaustive_optimum(&g, &sys, EvaluationModel::Precedence).unwrap();
    assert_eq!(t, 14);
}

// ------------------------- §2.2 Bokhari case -----------------------------

#[test]
fn bokhari_case_full_claims() {
    let ce = paper::bokhari_counterexample();
    let g = ce.singleton_clustered();
    let sys = hypercube(3).unwrap();
    // System graph: 8 nodes, every node degree 3 (paper Fig 8).
    assert_eq!(sys.len(), 8);
    assert!((0..sys.len()).all(|s| sys.degree(s) == 3));
    // Problem node 3 has degree 4 > 3, so cardinality 9 is impossible.
    assert_eq!(
        g.problem().predecessors(2).len() + g.problem().successors(2).len(),
        4
    );

    let a1 = Assignment::from_sys_of(ce.indirect_optimal.clone()).unwrap();
    let a2 = Assignment::from_sys_of(ce.time_better.clone()).unwrap();
    assert_eq!(
        cardinality(&g, &sys, &a1),
        8,
        "A1 maps 8 of 9 edges on system edges"
    );
    let t1 = evaluate_assignment(&g, &sys, &a1, EvaluationModel::Precedence)
        .unwrap()
        .total();
    let t2 = evaluate_assignment(&g, &sys, &a2, EvaluationModel::Precedence)
        .unwrap()
        .total();
    assert_eq!((t1, t2), (23, 21), "paper: 23 vs 21 time units");

    // Exhaustive: 8 is the best cardinality; no cardinality-8 assignment
    // beats 23; the global optimum is 21.
    let mut best_card = 0;
    let mut best_t_at_8 = u64::MAX;
    let mut global = u64::MAX;
    for_each_assignment(8, |perm| {
        let a = Assignment::from_sys_of(perm.to_vec()).unwrap();
        let c = cardinality(&g, &sys, &a);
        let t = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence)
            .unwrap()
            .total();
        best_card = best_card.max(c);
        if c == 8 {
            best_t_at_8 = best_t_at_8.min(t);
        }
        global = global.min(t);
    });
    assert_eq!(best_card, 8);
    assert_eq!(best_t_at_8, 23);
    assert_eq!(global, 21);
}

// ------------------------- §2.2 Lee case ---------------------------------

#[test]
fn lee_case_full_claims() {
    let ce = paper::lee_counterexample();
    let g = ce.singleton_clustered();
    let sys = hypercube(3).unwrap();
    let phases = paper::lee_paper_phases();

    let a3 = Assignment::from_sys_of(ce.indirect_optimal.clone()).unwrap();
    let a4 = Assignment::from_sys_of(ce.time_better.clone()).unwrap();

    // Fig 15: phases cost 3 + 4 + 1 + 3 = 11; Fig 17: 3 + 8 + 3 + 1 = 15.
    assert_eq!(lee_cost(&g, &sys, &a3, &phases), 11);
    assert_eq!(lee_cost(&g, &sys, &a4, &phases), 15);
    let t3 = evaluate_assignment(&g, &sys, &a3, EvaluationModel::Precedence)
        .unwrap()
        .total();
    let t4 = evaluate_assignment(&g, &sys, &a4, EvaluationModel::Precedence)
        .unwrap()
        .total();
    assert_eq!((t3, t4), (23, 21));

    // "It is easy to prove that assignment A3 has the minimum
    // communication cost" — by exhaustion.
    let mut min_cost = u64::MAX;
    for_each_assignment(8, |perm| {
        let a = Assignment::from_sys_of(perm.to_vec()).unwrap();
        min_cost = min_cost.min(lee_cost(&g, &sys, &a, &phases));
    });
    assert_eq!(min_cost, 11);

    // Per-edge weights recovered from Figs 15/17.
    let w = |u: usize, v: usize| g.problem().weight(u - 1, v - 1).unwrap();
    assert_eq!(w(1, 3), 3);
    assert_eq!(w(2, 3), 3);
    assert_eq!(w(2, 7), 2);
    assert_eq!(w(3, 4), 4);
    assert_eq!(w(3, 5), 2);
    assert_eq!(w(4, 6), 1);
    assert_eq!(w(5, 8), 3);
}
