//! Schedules: start/end times of every task and the makespan.
//!
//! The paper's §4.1 algorithm ("derive start and end time of each
//! task") runs in one place: the schedule kernel of
//! [`delta`](crate::delta), swept in position order over the rows
//! [`ProblemGraph::new`](mimd_taskgraph::ProblemGraph::new) froze. The
//! *ideal graph* (the system graph closure) and *assignment evaluation*
//! (clustered weight × hop count, §4.3.4) are that one sweep under two
//! distances. Predecessors come from the **problem graph**, while an
//! edge inside a cluster costs nothing, both of its tasks sharing a
//! host: the subtlety the paper demonstrates with task 4 (§4.1). A
//! [`Schedule`] is what a sweep hands back, mapped to task ids.

use serde::{Deserialize, Serialize};

use mimd_graph::Time;
use mimd_taskgraph::rows::PositionRows;
use mimd_taskgraph::TaskId;

/// Which execution model the schedule uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvaluationModel {
    /// The paper's model: a task starts as soon as every predecessor has
    /// finished and its message has arrived. Tasks sharing a processor
    /// may overlap; only precedence and communication constrain starts.
    Precedence,
    /// Extension (ablation A3): additionally, each processor executes at
    /// most one task at a time (greedy list scheduling, earliest-startable
    /// first, ties by task id).
    Serialized,
}

/// Start/end times for every task plus the makespan (the paper's *total
/// time*).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    start: Vec<Time>,
    end: Vec<Time>,
    total: Time,
}

impl Schedule {
    /// The schedule whose position `p` of `rows` ends at `end[p]`:
    /// every task starts its size before it ends.
    pub(crate) fn from_ends(rows: &PositionRows, end_at: &[Time]) -> Self {
        let mut start = vec![0; rows.len()];
        let mut end = vec![0; rows.len()];
        for (p, &e) in end_at.iter().enumerate() {
            let t = rows.task(p);
            (start[t], end[t]) = (e - rows.size(p), e);
        }
        let total = end.iter().copied().max().unwrap_or(0);
        Schedule { start, end, total }
    }

    /// Start time of task `t`.
    #[inline]
    pub fn start(&self, t: TaskId) -> Time {
        self.start[t]
    }

    /// End time of task `t`.
    #[inline]
    pub fn end(&self, t: TaskId) -> Time {
        self.end[t]
    }

    /// All start times (the paper's `start[np]` / `i_start[np]`).
    pub fn starts(&self) -> &[Time] {
        &self.start
    }

    /// All end times (the paper's `end[np]` / `i_end[np]`).
    pub fn ends(&self) -> &[Time] {
        &self.end
    }

    /// The makespan — the paper's *total time*.
    #[inline]
    pub fn total(&self) -> Time {
        self.total
    }

    /// The *latest tasks*: those ending at the total time (§2.1 term 1).
    pub fn latest_tasks(&self) -> Vec<TaskId> {
        (0..self.end.len())
            .filter(|&t| self.end[t] == self.total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate_assignment, evaluate_total};
    use crate::{Assignment, IdealSchedule};
    use mimd_graph::error::GraphError;
    use mimd_taskgraph::clustering::random::random_clustering;
    use mimd_taskgraph::{
        ClusteredProblemGraph, Clustering, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
    };
    use mimd_topology::{chain, ring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Result<T = ()> = std::result::Result<T, GraphError>;

    /// Two independent 3-unit tasks in one cluster feeding a sink in
    /// another; cross edge weight 2.
    fn fixture() -> Result<ClusteredProblemGraph> {
        let p = ProblemGraph::from_paper_edges(&[3, 3, 1], &[(1, 3, 2), (2, 3, 2)])?;
        ClusteredProblemGraph::new(p, Clustering::new(vec![0, 0, 1])?)
    }

    /// `g`'s two clusters on the two processors of a chain, one hop
    /// apart: every cross edge costs its clustered weight.
    fn on_two(g: &ClusteredProblemGraph, model: EvaluationModel) -> Result<Schedule> {
        let a = Assignment::identity(2);
        Ok(evaluate_assignment(g, &chain(2)?, &a, model)?.schedule)
    }

    /// The same problem graph with every task in one cluster.
    fn one_cluster(g: &ClusteredProblemGraph) -> Result<ClusteredProblemGraph> {
        let c = Clustering::new(vec![0; g.num_tasks()])?;
        ClusteredProblemGraph::new(g.problem().clone(), c)
    }

    #[test]
    fn precedence_allows_same_processor_overlap() -> Result {
        let g = fixture()?;
        let s = on_two(&g, EvaluationModel::Precedence)?;
        // Both sources start at 0 despite sharing cluster 0.
        assert_eq!(s.start(0), 0);
        assert_eq!(s.start(1), 0);
        assert_eq!(s.start(2), 5);
        assert_eq!(s.total(), 6);
        assert_eq!(s.latest_tasks(), vec![2]);
        assert_eq!(&s, IdealSchedule::derive(&g).schedule());
        Ok(())
    }

    #[test]
    fn serialized_forbids_overlap() -> Result {
        let s = on_two(&fixture()?, EvaluationModel::Serialized)?;
        // Cluster 0 runs tasks 0 then 1 back to back.
        assert_eq!(s.start(0), 0);
        assert_eq!(s.start(1), 3);
        assert_eq!(s.end(1), 6);
        // Sink waits for the later message: end(1)=6 + comm 2 = 8.
        assert_eq!(s.start(2), 8);
        assert_eq!(s.total(), 9);
        Ok(())
    }

    #[test]
    fn serialized_never_beats_precedence() -> Result {
        let g = fixture()?;
        let p = on_two(&g, EvaluationModel::Precedence)?;
        let s = on_two(&g, EvaluationModel::Serialized)?;
        assert!(s.total() >= p.total());
        for t in 0..3 {
            assert!(s.start(t) >= p.start(t), "task {t}");
        }
        Ok(())
    }

    #[test]
    fn serialized_schedules_respect_the_combined_bound() -> Result {
        // No schedule running one task at a time per processor beats the
        // ideal graph, the machine's capacity (⌈work / ns⌉) or the
        // zero-communication critical path.
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 40,
            ..GeneratorConfig::default()
        })?;
        let sys = ring(5)?;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 5, &mut rng)?;
            let g = ClusteredProblemGraph::new(p, c)?;
            let work: Time = g.problem().sizes().iter().sum();
            let bound = IdealSchedule::derive(&g)
                .lower_bound()
                .max(work.div_ceil(5))
                .max(IdealSchedule::derive(&one_cluster(&g)?).lower_bound());
            let a = Assignment::random(5, &mut rng);
            let total = evaluate_total(&g, &sys, &a, EvaluationModel::Serialized)?;
            assert!(
                total >= bound,
                "serialized total {total} below bound {bound}"
            );
        }
        Ok(())
    }

    #[test]
    fn comm_sees_every_problem_edge_once_with_its_weight() -> Result {
        // Distinct weights, cross- and intra-cluster edges alike: each
        // start is at least the latest predecessor end plus that edge's
        // weight across clusters (one hop), plus nothing within one.
        let p = ProblemGraph::from_paper_edges(
            &[3, 3, 1, 2],
            &[(1, 3, 2), (2, 3, 5), (1, 4, 7), (3, 4, 1)],
        )?;
        let g = ClusteredProblemGraph::new(p, Clustering::new(vec![0, 0, 1, 1])?)?;
        let problem = g.problem();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let s = on_two(&g, model)?;
            for t in 0..4 {
                let ready = (problem.predecessors(t))
                    .map(|(u, _)| s.end(u) + g.clus_weight(u, t))
                    .max()
                    .unwrap_or(0);
                assert!(s.start(t) >= ready, "{model:?} task {t}");
                assert_eq!(s.end(t), s.start(t) + problem.size(t));
            }
        }
        // Task 3 (paper task 4) hears from task 0 across clusters and
        // from task 2 inside one: 3 + 7 = 10 beats end(2) + 0 = 9.
        assert_eq!(on_two(&g, EvaluationModel::Precedence)?.start(3), 10);
        Ok(())
    }

    #[test]
    fn zero_comm_reduces_to_critical_path() -> Result {
        let s = IdealSchedule::derive(&one_cluster(&fixture()?)?);
        assert_eq!(s.lower_bound(), 4, "3-unit source + 1-unit sink");
        Ok(())
    }

    #[test]
    fn single_task_schedule() -> Result {
        let p = ProblemGraph::from_paper_edges(&[7], &[])?;
        let g = ClusteredProblemGraph::new(p, Clustering::new(vec![0])?)?;
        let s = IdealSchedule::derive(&g);
        assert_eq!(s.lower_bound(), 7);
        assert_eq!(s.latest_tasks(), vec![0]);
        Ok(())
    }
}
