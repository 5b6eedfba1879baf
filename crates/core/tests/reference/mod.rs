//! The paper's task-space recurrence, kept as an independent reference
//! for the schedule kernel, which the library runs instead. Tasks are
//! walked in the problem graph's topological order; predecessors come
//! from the problem graph and each edge costs what the caller's `comm`
//! charges (§4.1). The serialized model's greedy list scheduler works
//! on task ids: among the tasks whose predecessors have all finished,
//! start the one with the earliest feasible start, `max(data ready,
//! processor free)`, ties by task id.

use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};
use mimd_topology::SystemGraph;

/// Start and end per task, and the makespan.
#[derive(Debug, PartialEq)]
pub struct Times {
    pub start: Vec<Time>,
    pub end: Vec<Time>,
    pub total: Time,
}

/// The schedule of `assignment` (§4.3.4): an edge between clusters
/// costs `w × hops` between their processors, one inside a cluster
/// nothing.
pub fn on_machine(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> Times {
    let comm = |u: TaskId, v: TaskId, w: Weight| {
        let (cu, cv) = (graph.cluster_of(u), graph.cluster_of(v));
        let hops = system.hops(assignment.sys_of(cu), assignment.sys_of(cv));
        if cu == cv {
            0
        } else {
            w * Time::from(hops)
        }
    };
    match model {
        EvaluationModel::Precedence => precedence(graph, comm),
        EvaluationModel::Serialized => serialized(graph, comm),
    }
}

/// The ideal schedule (§4.1): the precedence schedule where an edge
/// between clusters costs its weight once.
pub fn ideal(graph: &ClusteredProblemGraph) -> Times {
    precedence(graph, |u, v, w| {
        if graph.clustering().same_cluster(u, v) {
            0
        } else {
            w
        }
    })
}

fn precedence(
    graph: &ClusteredProblemGraph,
    comm: impl Fn(TaskId, TaskId, Weight) -> Time,
) -> Times {
    let problem = graph.problem();
    let n = problem.len();
    let (mut start, mut end) = (vec![0; n], vec![0; n]);
    for &t in problem.topo_order() {
        let s = (problem.predecessors(t))
            .map(|(u, w)| end[u] + comm(u, t, w))
            .max()
            .unwrap_or(0);
        (start[t], end[t]) = (s, s + problem.size(t));
    }
    let total = end.iter().copied().max().unwrap_or(0);
    Times { start, end, total }
}

fn serialized(
    graph: &ClusteredProblemGraph,
    comm: impl Fn(TaskId, TaskId, Weight) -> Time,
) -> Times {
    let problem = graph.problem();
    let n = problem.len();
    let mut start: Vec<Option<Time>> = vec![None; n];
    let mut remaining: Vec<usize> = (0..n).map(|t| problem.predecessors(t).len()).collect();
    let mut ready = vec![0; n];
    let mut free = vec![0; graph.num_clusters()];
    for _ in 0..n {
        let (s, t) = (0..n)
            .filter(|&t| start[t].is_none() && remaining[t] == 0)
            .map(|t| (ready[t].max(free[graph.cluster_of(t)]), t))
            .min()
            .expect("a DAG always has a ready task");
        start[t] = Some(s);
        let e = s + problem.size(t);
        free[graph.cluster_of(t)] = e;
        for (v, w) in problem.successors(t) {
            remaining[v] -= 1;
            ready[v] = ready[v].max(e + comm(t, v, w));
        }
    }
    let start: Vec<Time> = start
        .into_iter()
        .map(|s| s.expect("every task ran"))
        .collect();
    let end: Vec<Time> = (0..n).map(|t| start[t] + problem.size(t)).collect();
    let total = end.iter().copied().max().unwrap_or(0);
    Times { start, end, total }
}
