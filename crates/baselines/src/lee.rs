//! Lee & Aggarwal's phased communication-cost mapping \[2\]
//! (S.-Y. Lee, J. K. Aggarwal, "A Mapping Strategy for Parallel
//! Processing", IEEE ToC 1987).
//!
//! Communications are grouped into *phases*; all communications in a
//! phase are assumed to start simultaneously, so a phase costs its most
//! expensive message (`weight × hops`) and the objective is the sum of
//! phase costs. The paper's §2.2 (Figs 13–17) shows the measure
//! mis-ranking assignments: cost 11 with total time 23 versus cost 15
//! with total 21.
//!
//! Phase construction: Lee & Aggarwal derive phases from the precedence
//! structure; we default to grouping each communication edge by the DAG
//! level of its *receiving* task ([`phases_by_level`]), and accept an
//! explicit phase list for instances (like the reconstructed Fig 13)
//! where the paper's grouping is finer.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::{ClusteredProblemGraph, ProblemGraph, TaskId};
use mimd_topology::SystemGraph;

use mimd_core::Assignment;

/// Phases as lists of `(from, to, weight)` communications, each with
/// its clustered weight (`clus_edge[from][to]`).
pub type Phases = Vec<Vec<(TaskId, TaskId, Weight)>>;

/// Per-task DAG level: sources are level 0 and every other task is one
/// more than its deepest predecessor — one sweep over the problem's
/// rows in position order.
pub fn levels(problem: &ProblemGraph) -> Vec<usize> {
    let rows = problem.graph();
    let mut level = vec![0; rows.len()];
    for p in 0..rows.len() {
        let deepest = rows.preds(p).0.iter().map(|&u| level[u as usize] + 1).max();
        level[p] = deepest.unwrap_or(0);
    }
    (0..problem.len())
        .map(|t| level[problem.position(t)])
        .collect()
}

/// Group the clustered (cross) edges by the DAG level of the receiving
/// task: every message arriving at a level-`k` task belongs to phase
/// `k - 1`.
pub fn phases_by_level(graph: &ClusteredProblemGraph) -> Phases {
    let lvl = levels(graph.problem());
    let max_level = lvl.iter().copied().max().unwrap_or(0);
    let mut phases: Phases = vec![Vec::new(); max_level];
    for (u, v, w) in graph.cross_edges() {
        debug_assert!(lvl[v] >= 1, "a task with a predecessor has level >= 1");
        phases[lvl[v] - 1].push((u, v, w));
    }
    phases.retain(|p| !p.is_empty());
    phases
}

/// Lee's objective: `Σ_phase max_{(u,v,w) ∈ phase} w × hops(s_u, s_v)`,
/// `w` the clustered weight `clus_edge[u][v]` each phase carries.
pub fn lee_cost(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    phases: &Phases,
) -> Time {
    phases
        .iter()
        .map(|phase| {
            phase
                .iter()
                .map(|&(u, v, w)| {
                    let su = assignment.sys_of(graph.cluster_of(u));
                    let sv = assignment.sys_of(graph.cluster_of(v));
                    w * Time::from(system.hops(su, sv))
                })
                .max()
                .unwrap_or(0)
        })
        .sum()
}

/// Outcome of the Lee search.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeeResult {
    /// Best assignment found under the phased-cost measure.
    pub assignment: Assignment,
    /// Its phased communication cost.
    pub cost: Time,
    /// Hill-climbing passes performed.
    pub passes: usize,
}

/// Minimize the phased communication cost by best-improvement pairwise
/// exchange with `restarts` random restarts (Lee & Aggarwal's iterative
/// improvement was pairwise exchange — the very technique the paper's
/// §4.3.3 measures its random re-placement against).
pub fn lee_mapping(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    phases: &Phases,
    restarts: usize,
    rng: &mut impl Rng,
) -> Result<LeeResult, GraphError> {
    let n = system.len();
    if graph.num_clusters() != n {
        return Err(GraphError::SizeMismatch {
            left: graph.num_clusters(),
            right: n,
        });
    }
    let mut best: Option<(Assignment, Time)> = None;
    let mut passes = 0;
    for _ in 0..=restarts {
        let mut current = Assignment::random(n, rng);
        loop {
            passes += 1;
            let cur = lee_cost(graph, system, &current, phases);
            let mut improvement: Option<(usize, usize, Time)> = None;
            for a in 0..n {
                for b in (a + 1)..n {
                    current.swap_clusters(a, b);
                    let c = lee_cost(graph, system, &current, phases);
                    current.swap_clusters(a, b);
                    if c < cur && improvement.is_none_or(|(_, _, ic)| c < ic) {
                        improvement = Some((a, b, c));
                    }
                }
            }
            match improvement {
                Some((a, b, _)) => current.swap_clusters(a, b),
                None => break,
            }
        }
        let cost = lee_cost(graph, system, &current, phases);
        if best.as_ref().is_none_or(|&(_, bc)| cost < bc) {
            best = Some((current, cost));
        }
    }
    let (assignment, cost) = best.expect("at least one restart ran");
    Ok(LeeResult {
        assignment,
        cost,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::schedule::EvaluationModel;
    use mimd_taskgraph::paper;
    use mimd_topology::hypercube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (ClusteredProblemGraph, SystemGraph, Phases) {
        let ce = paper::lee_counterexample();
        let g = ce.singleton_clustered();
        let sys = hypercube(3).unwrap();
        let phases = paper::lee_paper_phases();
        (g, sys, phases)
    }

    #[test]
    fn a3_costs_11_and_runs_23() {
        // Fig 15: phase costs 3 + 4 + 1 + 3 = 11; total time 23.
        let ce = paper::lee_counterexample();
        let (g, sys, phases) = fixture();
        let a3 = Assignment::from_sys_of(ce.indirect_optimal.clone()).unwrap();
        assert_eq!(lee_cost(&g, &sys, &a3, &phases), 11);
        let t = evaluate_assignment(&g, &sys, &a3, EvaluationModel::Precedence)
            .unwrap()
            .total();
        assert_eq!(t, 23);
    }

    #[test]
    fn a4_costs_15_but_runs_21() {
        // Fig 17: phase costs 3 + 8 + 3 + 1 = 15; total time 21.
        let ce = paper::lee_counterexample();
        let (g, sys, phases) = fixture();
        let a4 = Assignment::from_sys_of(ce.time_better.clone()).unwrap();
        assert_eq!(lee_cost(&g, &sys, &a4, &phases), 15);
        let t = evaluate_assignment(&g, &sys, &a4, EvaluationModel::Precedence)
            .unwrap()
            .total();
        assert_eq!(t, 21);
    }

    #[test]
    fn a3_is_cost_optimal() {
        // "It is easy to prove that assignment A3 has the minimum
        // communication cost" — verify by exhaustion.
        let ce = paper::lee_counterexample();
        let (g, sys, phases) = fixture();
        let mut min_cost = Time::MAX;
        crate::exhaustive::for_each_assignment(8, |perm| {
            let a = Assignment::from_sys_of(perm.to_vec()).unwrap();
            min_cost = min_cost.min(lee_cost(&g, &sys, &a, &phases));
        });
        let a3 = Assignment::from_sys_of(ce.indirect_optimal.clone()).unwrap();
        assert_eq!(lee_cost(&g, &sys, &a3, &phases), min_cost);
        assert_eq!(min_cost, 11);
    }

    #[test]
    fn levels_are_longest_hop_depth() -> Result<(), GraphError> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, and 4 -> 3 from a second source.
        let edges = [(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 5), (4, 3, 1)];
        let p = ProblemGraph::new(vec![1; 5], &edges)?;
        assert_eq!(levels(&p), vec![0, 1, 1, 2, 0]);
        // Ids that are not topological: 3 -> 2 -> 1 -> 0.
        let chain = ProblemGraph::new(vec![1; 4], &[(3, 2, 1), (2, 1, 1), (1, 0, 1)])?;
        assert_eq!(levels(&chain), vec![3, 2, 1, 0]);
        Ok(())
    }

    #[test]
    fn level_phases_cover_cross_edges() {
        let (g, _, _) = fixture();
        let phases = phases_by_level(&g);
        let count: usize = phases.iter().map(Vec::len).sum();
        assert_eq!(count, g.cross_edges().count());
        // Levels: {3,7} then {4,5} then {6,8} → 3 phases.
        assert_eq!(phases.len(), 3);
    }

    #[test]
    fn search_approaches_the_optimum() {
        let (g, sys, phases) = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        let res = lee_mapping(&g, &sys, &phases, 10, &mut rng).unwrap();
        assert!(
            res.cost <= 13,
            "pairwise exchange should get close to 11, got {}",
            res.cost
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let (g, _, phases) = fixture();
        let sys = hypercube(2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(lee_mapping(&g, &sys, &phases, 1, &mut rng).is_err());
    }
}
