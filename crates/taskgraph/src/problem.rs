//! The paper's *problem graph*: a precedence DAG with task execution
//! times (`task_size[np]`) and communication times (`prob_edge[np][np]`).
//!
//! [`ProblemGraph::new`] validates the graph and freezes it, once, into
//! the [`PositionRows`] every schedule of every clustering of it is
//! swept over.

use serde::{DeError, Deserialize, Serialize, Value};

use mimd_graph::dag::{self, TopoOrder};
use mimd_graph::digraph::WeightedDigraph;
use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight, MAX_NODES};

use crate::rows::{fit_u32, PositionRows};
use crate::TaskId;

/// The largest total weight — task sizes plus edge weights — a problem
/// graph or a dynamic workload may carry. Any schedule time (an end, a
/// message arrival `end + w × hops`, a makespan) is at most the total
/// size plus edge weights times the hops of a path, and no admitted
/// machine has a path of [`MAX_NODES`] hops, so this keeps every one
/// inside `u64`. [`ProblemGraph::new`] (generated, loaded and
/// materialized graphs) and every workload snapshot and event check it
/// ([`check_total_weight`]) before any schedule is computed.
pub const MAX_TOTAL_WEIGHT: u64 = u64::MAX / MAX_NODES as u64;

/// Refuse a total weight above [`MAX_TOTAL_WEIGHT`].
pub fn check_total_weight(total: u128) -> Result<(), GraphError> {
    if total > u128::from(MAX_TOTAL_WEIGHT) {
        return Err(GraphError::InvalidParameter(format!(
            "total task size plus edge weight {total} exceeds {MAX_TOTAL_WEIGHT}, \
             the most whose schedules on {MAX_NODES} processors fit u64"
        )));
    }
    Ok(())
}

/// A parallel program: tasks with execution times connected by weighted
/// data-dependency edges (Fig 2). Internally 0-based; the paper's figures
/// number tasks from 1.
///
/// Invariants enforced at construction:
/// * the dependency graph is acyclic,
/// * every task has a positive execution time (the paper measures tasks
///   in whole time units; a zero-time task would make "latest task"
///   ambiguous),
/// * the task and edge counts fit the `u32` indices of the rows, and
///   the total weight is at most [`MAX_TOTAL_WEIGHT`].
///
/// Deserializing goes through [`ProblemGraph::new`], so a loaded file
/// meets the same invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemGraph {
    graph: WeightedDigraph,
    task_size: Vec<Time>,
    topo: Vec<TaskId>,
    /// The DAG frozen in `topo` order: a function of the other fields.
    rows: PositionRows,
}

impl ProblemGraph {
    /// Build from a dependency digraph and per-task execution times.
    pub fn new(graph: WeightedDigraph, task_size: Vec<Time>) -> Result<Self, GraphError> {
        if graph.node_count() != task_size.len() {
            return Err(GraphError::SizeMismatch {
                left: graph.node_count(),
                right: task_size.len(),
            });
        }
        if let Some(t) = task_size.iter().position(|&s| s == 0) {
            return Err(GraphError::InvalidParameter(format!(
                "task {t} has zero execution time; tasks take >= 1 time unit"
            )));
        }
        let topo = TopoOrder::new(&graph)?.order().to_vec();
        fit_u32("np", task_size.len())?;
        fit_u32("edge count", graph.edge_count())?;
        let sizes: u128 = task_size.iter().map(|&s| u128::from(s)).sum();
        let weights: u128 = graph.edges().map(|(_, _, w)| u128::from(w)).sum();
        check_total_weight(sizes + weights)?;
        let rows = PositionRows::freeze(&graph, &task_size, &topo);
        Ok(ProblemGraph {
            graph,
            task_size,
            topo,
            rows,
        })
    }

    /// Convenience constructor from 1-based `(from, to, weight)` edge
    /// triples, matching the paper's figures. `sizes` stays 0-based
    /// (element `k` is the weight of the task the paper calls `k + 1`).
    pub fn from_paper_edges(
        sizes: &[Time],
        edges_1based: &[(usize, usize, Weight)],
    ) -> Result<Self, GraphError> {
        let edges = edges_1based
            .iter()
            .map(|&(i, j, w)| match (i.checked_sub(1), j.checked_sub(1)) {
                (Some(u), Some(v)) => Ok((u, v, w)),
                _ => Err(GraphError::InvalidParameter(
                    "paper edges are 1-based; 0 is not a valid endpoint".into(),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        ProblemGraph::new(
            WeightedDigraph::from_edges(sizes.len(), &edges)?,
            sizes.to_vec(),
        )
    }

    /// Number of tasks `np`.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// `true` iff the program has no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execution time of task `t` (the paper's `task_size[t]`).
    #[inline]
    pub fn size(&self, t: TaskId) -> Time {
        self.task_size[t]
    }

    /// All execution times.
    pub fn sizes(&self) -> &[Time] {
        &self.task_size
    }

    /// The dependency digraph (the paper's `prob_edge` matrix as a graph).
    #[inline]
    pub fn graph(&self) -> &WeightedDigraph {
        &self.graph
    }

    /// A topological order of the tasks, fixed at construction. All
    /// schedule derivations iterate tasks in this order, which realizes
    /// the paper's "repeat until all tasks have been visited" loops in a
    /// single pass.
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Predecessors of `t` with communication weights — the paper scans
    /// column `t` of `prob_edge` for this.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[(TaskId, Weight)] {
        self.graph.predecessors(t)
    }

    /// Successors of `t` with communication weights.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[(TaskId, Weight)] {
        self.graph.successors(t)
    }

    /// The DAG laid out by position in [`Self::topo_order`].
    #[inline]
    pub fn rows(&self) -> &PositionRows {
        &self.rows
    }

    /// The frozen DAG, for a workload that edits its own copy.
    pub(crate) fn into_rows(self) -> PositionRows {
        self.rows
    }

    /// Total execution time if run sequentially (sum of task sizes) — a
    /// trivial upper bound on any mapping's usefulness and the
    /// denominator of speedup metrics.
    pub fn sequential_time(&self) -> Time {
        self.task_size.iter().sum()
    }

    /// Critical-path length through the *problem* graph, counting every
    /// communication at its full weight (i.e. as if every edge crossed
    /// one system link).
    pub fn critical_path(&self) -> Time {
        dag::longest_path(&self.graph, &self.task_size)
            .expect("problem graphs are DAGs by construction")
    }
}

/// The JSON form `{graph, task_size, topo}`: the rows are derived, so
/// a file does not carry them.
impl Serialize for ProblemGraph {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("graph".into(), self.graph.to_value()),
            ("task_size".into(), self.task_size.to_value()),
            ("topo".into(), self.topo.to_value()),
        ])
    }
}

/// Rebuilds through [`ProblemGraph::new`] and refuses a `topo` that is
/// not the order `new` derives.
impl Deserialize for ProblemGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_obj().ok_or_else(|| DeError::expected("object", v))?;
        let graph = serde::field(obj, "graph")?;
        let task_size = serde::field(obj, "task_size")?;
        let topo: Vec<TaskId> = serde::field(obj, "topo")?;
        let p = ProblemGraph::new(graph, task_size).map_err(|e| DeError(e.to_string()))?;
        if topo != p.topo {
            return Err(DeError("topo is not the topological order of graph".into()));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ProblemGraph {
        // 1 -> 2 (w1), 1 -> 3 (w2), 2 -> 4 (w1), 3 -> 4 (w3); sizes 1,2,1,1.
        ProblemGraph::from_paper_edges(&[1, 2, 1, 1], &[(1, 2, 1), (1, 3, 2), (2, 4, 1), (3, 4, 3)])
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = small();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.size(1), 2);
        assert_eq!(p.sizes(), &[1, 2, 1, 1]);
        assert_eq!(p.predecessors(3), &[(1, 1), (2, 3)]);
        assert_eq!(p.successors(0), &[(1, 1), (2, 2)]);
        assert_eq!(p.sequential_time(), 5);
    }

    #[test]
    fn paper_edges_are_one_based() {
        let p = small();
        // Paper edge (1,2,1) becomes 0 -> 1 internally.
        assert_eq!(p.graph().weight(0, 1), Some(1));
        assert!(ProblemGraph::from_paper_edges(&[1], &[(0, 1, 1)]).is_err());
    }

    #[test]
    fn rejects_cycles_zero_sizes_and_mismatches() {
        let g = WeightedDigraph::from_edges(2, &[(0, 1, 1), (1, 0, 1)]).unwrap();
        assert_eq!(
            ProblemGraph::new(g, vec![1, 1]),
            Err(GraphError::CycleDetected)
        );

        let g2 = WeightedDigraph::from_edges(2, &[]).unwrap();
        assert!(ProblemGraph::new(g2.clone(), vec![1, 0]).is_err());
        assert!(matches!(
            ProblemGraph::new(g2, vec![1]),
            Err(GraphError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn topo_order_is_valid() {
        let p = small();
        let pos: Vec<usize> = {
            let mut pos = vec![0; p.len()];
            for (i, &t) in p.topo_order().iter().enumerate() {
                pos[t] = i;
            }
            pos
        };
        for (u, v, _) in p.graph().edges() {
            assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn critical_path_counts_nodes_and_edges() {
        let p = small();
        // 1(1) -2-> 3(1) -3-> 4(1): 1 + 2 + 1 + 3 + 1 = 8.
        assert_eq!(p.critical_path(), 8);
    }

    #[test]
    fn json_round_trips_and_refuses_what_new_refuses() {
        let p = small();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<ProblemGraph>(&json).unwrap(), p);
        let refused = |from: &str, to: &str| {
            assert!(json.contains(from), "{from}");
            let edited = json.replacen(from, to, 1);
            serde_json::from_str::<ProblemGraph>(&edited)
                .unwrap_err()
                .to_string()
        };
        // A back edge 4 -> 1 in both row lists: the graph is cyclic.
        let cyclic = json
            .replacen("[[3,3]],[]]", "[[3,3]],[[0,1]]]", 1)
            .replacen("\"preds\":[[]", "\"preds\":[[[3,1]]", 1)
            .replacen("\"edge_count\":4", "\"edge_count\":5", 1);
        let err = serde_json::from_str::<ProblemGraph>(&cyclic).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{cyclic}: {err}");
        assert!(refused("\"task_size\":[1,", "\"task_size\":[0,").contains("zero"));
        assert!(refused(",3]}", "]}").contains("topo"));
        assert!(refused("\"topo\":[0,1,2,3]", "\"topo\":[0,2,1,3]").contains("topo"));
    }

    #[test]
    fn totals_past_the_schedule_range_are_refused() -> Result<(), GraphError> {
        // The largest total admitted, then one past it, reached by a
        // task size and by an edge weight alike.
        let g = WeightedDigraph::from_edges(2, &[(0, 1, 1)])?;
        assert!(ProblemGraph::new(g.clone(), vec![1, MAX_TOTAL_WEIGHT - 2]).is_ok());
        let refused = ProblemGraph::new(g, vec![1, MAX_TOTAL_WEIGHT - 1]);
        assert!(
            matches!(&refused, Err(e) if e.to_string().contains("exceeds")),
            "{refused:?}"
        );
        let heavy = WeightedDigraph::from_edges(2, &[(0, 1, u64::MAX)])?;
        assert!(ProblemGraph::new(heavy, vec![1, 1]).is_err());
        // (total + 1) × MAX_NODES would not fit u64.
        let limit = u128::from(MAX_TOTAL_WEIGHT);
        assert!(limit * MAX_NODES as u128 <= u128::from(u64::MAX));
        assert!((limit + 1) * MAX_NODES as u128 > u128::from(u64::MAX));
        Ok(())
    }
}
