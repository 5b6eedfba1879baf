//! The *ideal graph* (§2.1, §4.1): the clustered problem graph scheduled
//! on the system graph closure, yielding the lower bound on total time.
//!
//! On the closure every pair of processors is one hop apart, so each
//! cross-cluster message costs exactly its clustered weight. The
//! resulting makespan can never be beaten by a real assignment
//! (Theorem 3) — it is the termination target of the refinement loop.
//! The *ideal edge* weight `i_edge[u][v] = i_start[v] − i_end[u]`
//! (always ≥ the clustered weight; the difference is slack created by
//! other dependencies) feeds the critical-edge analysis.

use serde::{Deserialize, Serialize};

use mimd_graph::Time;
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};

use crate::delta::{from_scratch, Closure};
use crate::schedule::{EvaluationModel, Schedule};

/// The ideal schedule plus the derived ideal-edge weights.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdealSchedule {
    schedule: Schedule,
}

impl IdealSchedule {
    /// Derive the ideal graph of a clustered problem graph (§4.1
    /// algorithms I–III): one from-scratch sweep of the schedule kernel
    /// over the system graph closure.
    pub fn derive(graph: &ClusteredProblemGraph) -> Self {
        let (model, hosts) = (EvaluationModel::Precedence, graph.num_clusters());
        let schedule = from_scratch(graph, model, &Closure, hosts, |c| c as u32);
        IdealSchedule { schedule }
    }

    /// The underlying schedule (the paper's `i_start` / `i_end`).
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The lower bound on any assignment's total time (§4.1 algorithm II:
    /// `lower_bound = i_end[l]` for the latest task `l`).
    #[inline]
    pub fn lower_bound(&self) -> Time {
        self.schedule.total()
    }

    /// Ideal edge weight `i_edge[u][v] = i_start[v] − i_end[u]` for an
    /// existing problem edge `u -> v`; the paper only defines it for
    /// clustered (cross-cluster) edges, but the same expression is the
    /// scheduling slack + weight for any edge.
    #[inline]
    pub fn ideal_edge(&self, u: TaskId, v: TaskId) -> Time {
        self.schedule.start(v) - self.schedule.end(u)
    }

    /// Slack of a clustered edge: how much its weight could grow before
    /// (possibly) delaying `v`. Zero slack = "tight". The paper's ec59
    /// example: slack 2.
    pub fn slack(&self, graph: &ClusteredProblemGraph, u: TaskId, v: TaskId) -> Time {
        self.ideal_edge(u, v) - graph.clus_weight(u, v)
    }

    /// The latest tasks (set `LS` seeding the critical-edge search).
    pub fn latest_tasks(&self) -> Vec<TaskId> {
        self.schedule.latest_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;

    #[test]
    fn worked_example_matches_fig22b() {
        let g = paper::worked_example();
        let ideal = IdealSchedule::derive(&g);
        assert_eq!(ideal.schedule().starts(), &paper::WORKED_IDEAL_START);
        assert_eq!(ideal.schedule().ends(), &paper::WORKED_IDEAL_END);
    }

    #[test]
    fn worked_example_lower_bound_is_14() {
        let g = paper::worked_example();
        assert_eq!(
            IdealSchedule::derive(&g).lower_bound(),
            paper::WORKED_LOWER_BOUND
        );
    }

    #[test]
    fn worked_example_latest_tasks_are_9_and_11() {
        let g = paper::worked_example();
        // Paper tasks 9 and 11 = 0-based 8 and 10.
        assert_eq!(IdealSchedule::derive(&g).latest_tasks(), vec![8, 10]);
    }

    #[test]
    fn ec59_has_slack_2() {
        // §2.1: "edge ei59 is not critical ... Only when the increase is
        // by more than 2, will the ideal graph edge be affected".
        let g = paper::worked_example();
        let ideal = IdealSchedule::derive(&g);
        assert_eq!(ideal.slack(&g, 4, 8), 2);
        assert_eq!(ideal.ideal_edge(4, 8), 3);
        assert_eq!(g.clus_weight(4, 8), 1);
    }

    #[test]
    fn ei79_is_tight() {
        // §3.6(c): "the edge i_edge[7][9] is critical, since task 9
        // terminates last and i_edge[7][9] = clus_edge[7][9]".
        let g = paper::worked_example();
        let ideal = IdealSchedule::derive(&g);
        assert_eq!(ideal.slack(&g, 6, 8), 0);
        assert_eq!(ideal.ideal_edge(6, 8), 2);
    }

    #[test]
    fn intra_cluster_edge_weight_0_in_ideal() {
        // Task 4 starts right when task 1 ends (same cluster, §4.1's
        // worked derivation: i_start[4] = i_end[1] + 0 = 1).
        let g = paper::worked_example();
        let ideal = IdealSchedule::derive(&g);
        assert_eq!(ideal.schedule().start(3), 1);
        assert_eq!(ideal.ideal_edge(0, 3), 0);
    }
}
