//! Schedule derivation: start/end times of every task given a
//! communication-cost function.
//!
//! This is the paper's §4.1 algorithm ("derive start and end time of each
//! task") factored out so the *ideal graph* (communication = clustered
//! weight) and *assignment evaluation* (communication = clustered weight
//! × hop count, §4.3.4) share one implementation. Predecessors are taken
//! from the **problem graph** while weights come from the **clustered**
//! view — the subtlety the paper demonstrates with task 4 (§4.1): the
//! walk hands every problem edge's weight to the caller's cost function,
//! which zeroes it inside a cluster.

use serde::{Deserialize, Serialize};

use mimd_graph::{Time, Weight};
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};

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
    /// Compute a precedence-model schedule. `comm(u, v, w)` is called
    /// once per problem edge `u -> v` with that edge's weight `w` (read
    /// from the adjacency row being walked, so no caller has to look it
    /// up again) and must return the communication delay charged on the
    /// edge (already multiplied by hops if applicable; 0 for
    /// intra-cluster edges).
    pub fn precedence<F>(graph: &ClusteredProblemGraph, mut comm: F) -> Self
    where
        F: FnMut(TaskId, TaskId, Weight) -> Time,
    {
        let problem = graph.problem();
        let n = problem.len();
        let mut start = vec![0 as Time; n];
        let mut end = vec![0 as Time; n];
        for &t in problem.topo_order() {
            let s = problem
                .predecessors(t)
                .iter()
                .map(|&(u, w)| end[u] + comm(u, t, w))
                .max()
                .unwrap_or(0);
            start[t] = s;
            end[t] = s + problem.size(t);
        }
        let total = end.iter().copied().max().unwrap_or(0);
        Schedule { start, end, total }
    }

    /// Compute a serialized schedule: one task at a time per cluster
    /// (processor). Greedy list scheduling — among tasks whose
    /// predecessors are all finished, repeatedly start the one with the
    /// earliest feasible start (`max(data ready, processor free)`), ties
    /// by task id. `comm` as in [`Schedule::precedence`].
    pub fn serialized<F>(graph: &ClusteredProblemGraph, comm: F) -> Self
    where
        F: FnMut(TaskId, TaskId, Weight) -> Time,
    {
        let mut scratch = ListScratch::default();
        let total = scratch.run(graph, comm);
        let start = scratch.start;
        let end = start
            .iter()
            .zip(graph.problem().sizes())
            .map(|(&s, &size)| s + size)
            .collect();
        Schedule { start, end, total }
    }

    /// Dispatch on [`EvaluationModel`].
    pub fn compute<F>(graph: &ClusteredProblemGraph, model: EvaluationModel, comm: F) -> Self
    where
        F: FnMut(TaskId, TaskId, Weight) -> Time,
    {
        match model {
            EvaluationModel::Precedence => Schedule::precedence(graph, comm),
            EvaluationModel::Serialized => Schedule::serialized(graph, comm),
        }
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

/// `ListScratch::start` of a task the list scheduler has not placed.
const UNSCHEDULED: Time = Time::MAX;

/// The buffers of the serialized model's list scheduler, reusable
/// across runs: [`Schedule::serialized`] runs it on fresh scratch, the
/// delta evaluator on the scratch its workspace keeps, so pricing a
/// candidate allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct ListScratch {
    /// Start time per task; [`UNSCHEDULED`] until the task is placed.
    start: Vec<Time>,
    /// Unfinished predecessor count per task.
    remaining: Vec<usize>,
    /// Data-ready time per task: its latest message arrival so far.
    ready: Vec<Time>,
    /// Time each cluster's processor falls free.
    free: Vec<Time>,
}

impl ListScratch {
    /// The list schedule [`Schedule::serialized`] describes. Leaves
    /// every task's start time in the scratch and returns the makespan.
    pub(crate) fn run<F>(&mut self, graph: &ClusteredProblemGraph, mut comm: F) -> Time
    where
        F: FnMut(TaskId, TaskId, Weight) -> Time,
    {
        let problem = graph.problem();
        let n = problem.len();
        self.start.clear();
        self.start.resize(n, UNSCHEDULED);
        self.remaining.clear();
        self.remaining
            .extend((0..n).map(|t| problem.predecessors(t).len()));
        self.ready.clear();
        self.ready.resize(n, 0);
        self.free.clear();
        self.free.resize(graph.num_clusters(), 0);
        let mut total: Time = 0;
        for _ in 0..n {
            let mut best: Option<(Time, TaskId)> = None;
            for t in 0..n {
                if self.start[t] != UNSCHEDULED || self.remaining[t] > 0 {
                    continue;
                }
                let feasible = self.ready[t].max(self.free[graph.cluster_of(t)]);
                if best.is_none_or(|(bt, bid)| (feasible, t) < (bt, bid)) {
                    best = Some((feasible, t));
                }
            }
            let (s, t) = best.expect("DAG always has a ready task");
            self.start[t] = s;
            let e = s + problem.size(t);
            self.free[graph.cluster_of(t)] = e;
            total = total.max(e);
            for &(v, w) in problem.successors(t) {
                self.remaining[v] -= 1;
                self.ready[v] = self.ready[v].max(e + comm(t, v, w));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_total;
    use crate::{Assignment, IdealSchedule};
    use mimd_taskgraph::clustering::random::random_clustering;
    use mimd_taskgraph::{Clustering, GeneratorConfig, LayeredDagGenerator, ProblemGraph};
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two independent 3-unit tasks in one cluster feeding a sink in
    /// another; cross edge weight 2.
    fn fixture() -> ClusteredProblemGraph {
        let p = ProblemGraph::from_paper_edges(&[3, 3, 1], &[(1, 3, 2), (2, 3, 2)]).unwrap();
        let c = Clustering::new(vec![0, 0, 1]).unwrap();
        ClusteredProblemGraph::new(p, c).unwrap()
    }

    #[test]
    fn precedence_allows_same_processor_overlap() {
        let g = fixture();
        let s = Schedule::precedence(&g, |u, v, _| g.clus_weight(u, v));
        // Both sources start at 0 despite sharing cluster 0.
        assert_eq!(s.start(0), 0);
        assert_eq!(s.start(1), 0);
        assert_eq!(s.start(2), 5);
        assert_eq!(s.total(), 6);
        assert_eq!(s.latest_tasks(), vec![2]);
    }

    #[test]
    fn serialized_forbids_overlap() {
        let g = fixture();
        let s = Schedule::serialized(&g, |u, v, _| g.clus_weight(u, v));
        // Cluster 0 runs tasks 0 then 1 back to back.
        assert_eq!(s.start(0), 0);
        assert_eq!(s.start(1), 3);
        assert_eq!(s.end(1), 6);
        // Sink waits for the later message: end(1)=6 + comm 2 = 8.
        assert_eq!(s.start(2), 8);
        assert_eq!(s.total(), 9);
    }

    #[test]
    fn serialized_never_beats_precedence() {
        let g = fixture();
        let p = Schedule::precedence(&g, |u, v, _| g.clus_weight(u, v));
        let s = Schedule::serialized(&g, |u, v, _| g.clus_weight(u, v));
        assert!(s.total() >= p.total());
        for t in 0..3 {
            assert!(s.start(t) >= p.start(t), "task {t}");
        }
    }

    #[test]
    fn serialized_schedules_respect_the_combined_bound() {
        // No schedule running one task at a time per processor beats the
        // ideal graph, the machine's capacity (⌈work / ns⌉) or the
        // zero-communication critical path.
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
            let work: Time = g.problem().sizes().iter().sum();
            let bound = IdealSchedule::derive(&g)
                .lower_bound()
                .max(work.div_ceil(5))
                .max(Schedule::precedence(&g, |_, _, _| 0).total());
            let a = Assignment::random(5, &mut rng);
            let total = evaluate_total(&g, &sys, &a, EvaluationModel::Serialized).unwrap();
            assert!(
                total >= bound,
                "serialized total {total} below bound {bound}"
            );
        }
    }

    #[test]
    fn compute_dispatches() {
        let g = fixture();
        assert_eq!(
            Schedule::compute(&g, EvaluationModel::Precedence, |u, v, _| g
                .clus_weight(u, v)),
            Schedule::precedence(&g, |u, v, _| g.clus_weight(u, v))
        );
        assert_eq!(
            Schedule::compute(&g, EvaluationModel::Serialized, |u, v, _| g
                .clus_weight(u, v)),
            Schedule::serialized(&g, |u, v, _| g.clus_weight(u, v))
        );
    }

    #[test]
    fn comm_sees_every_problem_edge_once_with_its_weight() {
        // Distinct weights, cross- and intra-cluster edges alike.
        let p = ProblemGraph::from_paper_edges(
            &[3, 3, 1, 2],
            &[(1, 3, 2), (2, 3, 5), (1, 4, 7), (3, 4, 1)],
        )
        .unwrap();
        let g = ClusteredProblemGraph::new(p, Clustering::new(vec![0, 0, 1, 1]).unwrap()).unwrap();
        let problem = g.problem();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut seen = Vec::new();
            Schedule::compute(&g, model, |u, v, w| {
                assert_eq!(Some(w), problem.graph().weight(u, v), "{model:?} {u}->{v}");
                seen.push((u, v, w));
                0
            });
            seen.sort_unstable();
            let edges: Vec<_> = problem.graph().edges().collect();
            assert_eq!(seen, edges, "{model:?}");
        }
    }

    #[test]
    fn zero_comm_reduces_to_critical_path() {
        let g = fixture();
        let s = Schedule::precedence(&g, |_, _, _| 0);
        assert_eq!(s.total(), 4, "3-unit source + 1-unit sink");
    }

    #[test]
    fn single_task_schedule() {
        let p = ProblemGraph::from_paper_edges(&[7], &[]).unwrap();
        let c = Clustering::new(vec![0]).unwrap();
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        let s = Schedule::precedence(&g, |_, _, _| 0);
        assert_eq!(s.total(), 7);
        assert_eq!(s.latest_tasks(), vec![0]);
    }
}
