//! Lower bounds beyond the paper's ideal graph.
//!
//! The paper's only bound is the closure (ideal-graph) makespan, which
//! is exact for the precedence model on a complete machine. Under the
//! *serialized* model two more classical bounds apply and can exceed it:
//!
//! * the **work bound** `⌈Σ task_size / ns⌉` — ns processors cannot do
//!   W units of work faster than W/ns;
//! * the **zero-comm critical path** — even infinite processors cannot
//!   beat the dependency chain.
//!
//! [`serialized_lower_bound`] combines all three; the experiment
//! binaries use it when reporting percentages for the serialized model
//! so the denominators stay honest.

use mimd_graph::Time;
use mimd_taskgraph::ClusteredProblemGraph;

use crate::ideal::IdealSchedule;
use crate::schedule::Schedule;

/// `⌈Σ task_size / ns⌉`: the machine-capacity bound (serialized model).
pub fn work_lower_bound(graph: &ClusteredProblemGraph, ns: usize) -> Time {
    let work: Time = graph.problem().sizes().iter().sum();
    work.div_ceil(ns as Time)
}

/// The dependency-only bound: makespan with all communication free.
pub fn zero_comm_critical_path(graph: &ClusteredProblemGraph) -> Time {
    Schedule::precedence(graph, |_, _, _| 0).total()
}

/// The tightest combination valid for the serialized model:
/// `max(ideal bound, work bound, zero-comm critical path)`.
pub fn serialized_lower_bound(graph: &ClusteredProblemGraph, ns: usize) -> Time {
    let ideal = IdealSchedule::derive(graph).lower_bound();
    ideal
        .max(work_lower_bound(graph, ns))
        .max(zero_comm_critical_path(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_assignment;
    use crate::schedule::EvaluationModel;
    use crate::Assignment;
    use mimd_taskgraph::clustering::random::random_clustering;
    use mimd_taskgraph::paper;
    use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn work_bound_is_ceiling_division() {
        let g = paper::worked_example();
        // Total work = 22 time units over 4 processors -> ceil = 6.
        let work: u64 = g.problem().sizes().iter().sum();
        assert_eq!(work, 22);
        assert_eq!(work_lower_bound(&g, 4), 6);
        assert_eq!(work_lower_bound(&g, 3), 8);
    }

    #[test]
    fn zero_comm_path_ignores_weights() {
        let g = paper::worked_example();
        // Chain 1(1) -> 3(2) -> 7(3) -> 9/11 dominates; with zero comm
        // the makespan shrinks below the ideal bound of 14.
        let z = zero_comm_critical_path(&g);
        assert!(z <= 14);
        assert!(z >= 8, "the dependency chain alone takes time, got {z}");
    }

    #[test]
    fn serialized_bound_dominates_ideal() {
        let g = paper::worked_example();
        let lb = serialized_lower_bound(&g, 4);
        assert!(lb >= IdealSchedule::derive(&g).lower_bound().min(lb));
        assert!(lb >= work_lower_bound(&g, 4));
    }

    #[test]
    fn serialized_schedules_respect_the_combined_bound() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 40,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = ring(5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 5, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let lb = serialized_lower_bound(&g, 5);
            let a = Assignment::random(5, &mut rng);
            let eval = evaluate_assignment(&g, &sys, &a, EvaluationModel::Serialized).unwrap();
            assert!(
                eval.total() >= lb,
                "serialized total {} below combined bound {lb}",
                eval.total()
            );
        }
    }
}
