//! Evaluating the total time of an assignment (§4.3.4).
//!
//! Under an assignment, a clustered edge `u -> v` costs
//! `clus_edge[u][v] × shortest[s_u][s_v]` where `s_u`, `s_v` are the
//! processors hosting the two clusters (§4.3.4 Algorithm I: the
//! communication matrix `comm[np][np]`, never materialized). The
//! start/end times then follow from the same sweep as the ideal graph:
//! the schedule kernel of [`delta`](crate::delta) over the problem's
//! frozen rows, under the machine's hop matrix instead of the closure.

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::delta::machine_schedule;
use crate::schedule::{EvaluationModel, Schedule};

/// The result of evaluating one assignment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The evaluated assignment.
    pub assignment: Assignment,
    /// The derived schedule (start/end per task).
    pub schedule: Schedule,
    /// The model used.
    pub model: EvaluationModel,
}

impl Evaluation {
    /// The total time (makespan) of the assignment.
    #[inline]
    pub fn total(&self) -> Time {
        self.schedule.total()
    }
}

/// Evaluate `assignment` of `graph`'s clusters onto `system` under
/// `model`. Errors when the cluster count and processor count differ
/// (the paper requires `na = ns`) or the assignment has the wrong size.
pub fn evaluate_assignment(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> Result<Evaluation, GraphError> {
    Ok(Evaluation {
        schedule: machine_schedule(graph, system, assignment, model)?,
        assignment: assignment.clone(),
        model,
    })
}

/// Total time of `assignment` without materializing an [`Evaluation`]:
/// skips the assignment clone and returns just the makespan. The
/// entry point for every caller that throws the schedule away
/// (random-mapping baselines, bound checks); totals and error cases are
/// identical to [`evaluate_assignment`]`(..)?.total()`.
pub fn evaluate_total(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> Result<Time, GraphError> {
    Ok(machine_schedule(graph, system, assignment, model)?.total())
}

/// Mean total time over `reps` uniformly random assignments — the
/// paper's baseline ("we performed several random mappings of the same
/// problem graph to the same system graph and take the average", §5).
/// Returns `(mean, minimum, maximum)`.
pub fn random_mapping_average(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    model: EvaluationModel,
    reps: usize,
    rng: &mut impl rand::Rng,
) -> Result<(f64, Time, Time), GraphError> {
    if reps == 0 {
        return Err(GraphError::InvalidParameter("need reps >= 1".into()));
    }
    let mut sum = 0u128;
    let mut min = Time::MAX;
    let mut max = 0;
    for _ in 0..reps {
        let a = Assignment::random(system.len(), rng);
        let total = evaluate_total(graph, system, &a, model)?;
        sum += u128::from(total);
        min = min.min(total);
        max = max.max(total);
    }
    Ok((sum as f64 / reps as f64, min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig23_assignment_reaches_lower_bound() {
        // Fig 24: mapping the worked example onto the 4-ring with the
        // Fig 23-b assignment gives total time 14 = lower bound.
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let a = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        let eval = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
        assert_eq!(eval.total(), paper::WORKED_LOWER_BOUND);
    }

    #[test]
    fn closure_assignment_equals_ideal() {
        // On the closure every assignment achieves the ideal total.
        let g = paper::worked_example();
        let closure = ring(4).unwrap().closure();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let a = Assignment::random(4, &mut rng);
            let eval = evaluate_assignment(&g, &closure, &a, EvaluationModel::Precedence).unwrap();
            assert_eq!(eval.total(), paper::WORKED_LOWER_BOUND);
        }
    }

    #[test]
    fn no_assignment_beats_lower_bound() {
        // Theorem 3, verified exhaustively for the worked example.
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        // All 24 permutations of 4 clusters.
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 1 {
                return vec![vec![0]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for i in 0..n {
                    let mut q: Vec<usize> = p.iter().map(|&x| x + usize::from(x >= i)).collect();
                    q.insert(0, i);
                    out.push(q);
                }
            }
            out
        }
        for p in perms(4) {
            let a = Assignment::from_sys_of(p).unwrap();
            let eval = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
            assert!(eval.total() >= paper::WORKED_LOWER_BOUND);
        }
    }

    #[test]
    fn size_mismatches_rejected() {
        let g = paper::worked_example();
        let sys5 = ring(5).unwrap();
        let a = Assignment::identity(5);
        assert!(matches!(
            evaluate_assignment(&g, &sys5, &a, EvaluationModel::Precedence),
            Err(GraphError::SizeMismatch { .. })
        ));
        let sys4 = ring(4).unwrap();
        let a5 = Assignment::identity(5);
        assert!(evaluate_assignment(&g, &sys4, &a5, EvaluationModel::Precedence).is_err());
    }

    #[test]
    fn random_average_bounds() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (mean, min, max) =
            random_mapping_average(&g, &sys, EvaluationModel::Precedence, 64, &mut rng).unwrap();
        assert!(min >= paper::WORKED_LOWER_BOUND);
        assert!(f64::from(u32::try_from(min).unwrap()) <= mean);
        assert!(mean <= f64::from(u32::try_from(max).unwrap()));
        assert!(
            random_mapping_average(&g, &sys, EvaluationModel::Precedence, 0, &mut rng).is_err()
        );
    }

    #[test]
    fn evaluate_total_matches_full_evaluation() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            for _ in 0..10 {
                let a = Assignment::random(4, &mut rng);
                assert_eq!(
                    evaluate_total(&g, &sys, &a, model).unwrap(),
                    evaluate_assignment(&g, &sys, &a, model).unwrap().total()
                );
            }
        }
        // Same error cases.
        assert!(evaluate_total(
            &g,
            &ring(5).unwrap(),
            &Assignment::identity(5),
            EvaluationModel::Precedence
        )
        .is_err());
        assert!(evaluate_total(
            &g,
            &sys,
            &Assignment::identity(5),
            EvaluationModel::Precedence
        )
        .is_err());
    }

    #[test]
    fn every_evaluator_agrees_where_task_ids_are_not_topological() {
        use crate::delta::{DeltaEvaluator, DeltaWorkspace};
        use mimd_taskgraph::clustering::random::random_clustering;
        use mimd_taskgraph::workloads;
        let mut rng = StdRng::seed_from_u64(23);
        let sys = mimd_topology::hypercube(4).unwrap();
        let mut ws = DeltaWorkspace::new();
        for problem in [
            workloads::gaussian_elimination(9, 3, 5, 2).unwrap(),
            workloads::divide_and_conquer(4, 1, 6, 2, 2).unwrap(),
        ] {
            let clustering = random_clustering(&problem, 16, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(problem, clustering).unwrap();
            for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
                for _ in 0..5 {
                    let a = Assignment::random(16, &mut rng);
                    let total = evaluate_total(&g, &sys, &a, model).unwrap();
                    assert_eq!(
                        total,
                        evaluate_assignment(&g, &sys, &a, model).unwrap().total()
                    );
                    let delta = DeltaEvaluator::attach(&mut ws, &g, &sys, model, &a).unwrap();
                    assert_eq!(total, delta.total());
                }
            }
        }
    }

    #[test]
    fn serialized_model_is_never_faster() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = Assignment::random(4, &mut rng);
            let p = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
            let s = evaluate_assignment(&g, &sys, &a, EvaluationModel::Serialized).unwrap();
            assert!(s.total() >= p.total());
        }
    }
}
