//! The paper's *problem graph*: a precedence DAG with task execution
//! times (`task_size[np]`) and communication times (`prob_edge[np][np]`).
//!
//! A problem graph *is* its [`PositionRows`]: [`ProblemGraph::new`]
//! checks a task-size vector and an edge list, orders the tasks
//! topologically and lays the DAG out by position, once. Every
//! task-space query (predecessors, successors, edges, weights, the
//! critical path) is read back from those rows through one task →
//! position table, and every schedule of every clustering of the graph
//! is swept over them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Zip;
use std::slice;

use serde::{DeError, Deserialize, Serialize, Value};

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
/// * the dependency graph is acyclic, with positive edge weights, no
///   self-loop and no edge listed twice,
/// * every task has a positive execution time (the paper measures tasks
///   in whole time units; a zero-time task would make "latest task"
///   ambiguous),
/// * the task and edge counts fit the `u32` indices of the rows, and
///   the total weight is at most [`MAX_TOTAL_WEIGHT`].
///
/// Deserializing goes through the same checks, so a loaded file meets
/// the same invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemGraph {
    /// The DAG laid out in topological position order.
    rows: PositionRows,
    /// Execution time per task.
    task_size: Vec<Time>,
    /// Position of each task in `rows`.
    pos: Vec<u32>,
}

impl ProblemGraph {
    /// Build from per-task execution times and `(from, to, weight)`
    /// dependency edges in any order. Refuses, in this order: a zero
    /// task size; the first edge in input order with an endpoint out of
    /// range, a self-loop or a zero weight (zero encodes absence in the
    /// paper's matrices); an edge listed twice; a cycle; counts past the
    /// rows' `u32` range; a total past [`MAX_TOTAL_WEIGHT`].
    /// `O(n + E + Σ deg·log deg)` plus the heap of ready tasks.
    pub fn new(
        task_size: Vec<Time>,
        edges: &[(TaskId, TaskId, Weight)],
    ) -> Result<Self, GraphError> {
        check_sizes(task_size.len(), &task_size)?;
        let succ = Successors::new(task_size.len(), edges)?;
        ProblemGraph::freeze(task_size, &succ)
    }

    /// Order the checked successor rows topologically and lay them out,
    /// refusing a cycle, counts past `u32` and too great a total.
    fn freeze(task_size: Vec<Time>, succ: &Successors) -> Result<Self, GraphError> {
        let (topo, pos) = succ.topo_order()?;
        fit_u32("np", task_size.len())?;
        fit_u32("edge count", succ.adj.len())?;
        let sizes: u128 = task_size.iter().map(|&s| u128::from(s)).sum();
        let weights: u128 = succ.adj.iter().map(|&(_, w)| u128::from(w)).sum();
        check_total_weight(sizes + weights)?;
        let rows = PositionRows::freeze(&task_size, topo, &pos, |t| succ.row(t));
        Ok(ProblemGraph {
            rows,
            task_size,
            pos,
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
        ProblemGraph::new(sizes.to_vec(), &edges)
    }

    /// Number of tasks `np`.
    #[inline]
    pub fn len(&self) -> usize {
        self.task_size.len()
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

    /// The dependency DAG (the paper's `prob_edge` matrix), laid out by
    /// position in [`Self::topo_order`].
    #[inline]
    pub fn graph(&self) -> &PositionRows {
        &self.rows
    }

    /// Task `t`'s position in [`Self::topo_order`] and in [`Self::graph`].
    #[inline]
    pub fn position(&self, t: TaskId) -> usize {
        self.pos[t] as usize
    }

    /// A topological order of the tasks, fixed at construction (the
    /// smallest ready id first): the task at each position of the rows.
    /// All schedule derivations sweep tasks in this order, which
    /// realizes the paper's "repeat until all tasks have been visited"
    /// loops in a single pass.
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        self.rows.tasks()
    }

    /// Predecessors of `t` with communication weights, ascending by
    /// task id — the paper scans column `t` of `prob_edge` for this.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> Neighbors<'_> {
        self.neighbors(self.rows.preds(self.position(t)))
    }

    /// Successors of `t` with communication weights, ascending by task
    /// id.
    #[inline]
    pub fn successors(&self, t: TaskId) -> Neighbors<'_> {
        self.neighbors(self.rows.succs(self.position(t)))
    }

    #[inline]
    fn neighbors<'a>(&'a self, (at, w): (&'a [u32], &'a [Weight])) -> Neighbors<'a> {
        let task = self.rows.tasks();
        Neighbors {
            row: at.iter().zip(w),
            task,
        }
    }

    /// Every edge as `(from, to, weight)`, ascending by `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, Weight)> + '_ {
        (0..self.len()).flat_map(move |u| self.successors(u).map(move |(v, w)| (u, v, w)))
    }

    /// Weight of the edge `from -> to`, or `None` if absent: a binary
    /// search of `from`'s successor row.
    pub fn weight(&self, from: TaskId, to: TaskId) -> Option<Weight> {
        let p = self.position(from);
        let k = self.rows.succ_slot(p, to).ok()?;
        Some(self.rows.succs(p).1[k])
    }

    /// The DAG, for a workload that edits its own copy.
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
        self.rows.longest_path(|_, _, w| w)
    }
}

/// A task's predecessors or successors with their edge weights,
/// ascending by task id: one row of the DAG read back in task space.
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    row: Zip<slice::Iter<'a, u32>, slice::Iter<'a, Weight>>,
    task: &'a [TaskId],
}

impl Neighbors<'_> {
    /// `true` iff no neighbor is left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for Neighbors<'_> {
    type Item = (TaskId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(TaskId, Weight)> {
        let (&p, &w) = self.row.next()?;
        Some((self.task[p as usize], w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.row.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Refuse `task_size` unless it holds one positive size for each of `n`
/// tasks.
fn check_sizes(n: usize, task_size: &[Time]) -> Result<(), GraphError> {
    if n != task_size.len() {
        let (left, right) = (n, task_size.len());
        return Err(GraphError::SizeMismatch { left, right });
    }
    match task_size.iter().position(|&s| s == 0) {
        Some(t) => Err(GraphError::InvalidParameter(format!(
            "task {t} has zero execution time; tasks take >= 1 time unit"
        ))),
        None => Ok(()),
    }
}

/// Successor rows by task, each ascending by task id: the scratch a
/// problem graph's edges are checked into and ordered from, dropped
/// once the rows are laid out.
struct Successors {
    /// `off[u]..off[u + 1]` is `u`'s row of `adj`.
    off: Vec<usize>,
    adj: Vec<(TaskId, Weight)>,
}

impl Successors {
    /// Check every edge in input order (endpoints in `0..n`, no
    /// self-loop, positive weight), bucket the edges by `from`, sort
    /// each row and refuse an edge listed twice.
    fn new(n: usize, edges: &[(TaskId, TaskId, Weight)]) -> Result<Self, GraphError> {
        let mut off = vec![0usize; n + 1];
        for &(from, to, w) in edges {
            if let Some(node) = [from, to].into_iter().find(|&node| node >= n) {
                return Err(GraphError::NodeOutOfRange { node, len: n });
            }
            if from == to {
                return Err(GraphError::SelfLoop(from));
            }
            if w == 0 {
                return Err(GraphError::ZeroWeight { from, to });
            }
            off[from + 1] += 1;
        }
        for u in 0..n {
            off[u + 1] += off[u];
        }
        let (mut adj, mut at) = (vec![(0, 0); edges.len()], off.clone());
        for &(from, to, w) in edges {
            adj[at[from]] = (to, w);
            at[from] += 1;
        }
        let mut succ = Successors { off, adj };
        for u in 0..n {
            let row = &mut succ.adj[succ.off[u]..succ.off[u + 1]];
            row.sort_unstable_by_key(|&(v, _)| v);
            if let Some(twice) = row.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(GraphError::InvalidParameter(format!(
                    "edge ({u},{}) is listed twice",
                    twice[0].0
                )));
            }
        }
        Ok(succ)
    }

    fn len(&self) -> usize {
        self.off.len() - 1
    }

    fn row(&self, u: TaskId) -> &[(TaskId, Weight)] {
        &self.adj[self.off[u]..self.off[u + 1]]
    }

    /// Kahn's algorithm, the smallest ready id first so the order is
    /// deterministic, in `O(E + V log V)`: the order and each task's
    /// position in it. A cycle leaves tasks unordered.
    fn topo_order(&self) -> Result<(Vec<TaskId>, Vec<u32>), GraphError> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        self.adj.iter().for_each(|&(v, _)| indeg[v] += 1);
        let mut ready: BinaryHeap<_> = (0..n).filter(|&v| indeg[v] == 0).map(Reverse).collect();
        let (mut order, mut pos) = (Vec::with_capacity(n), vec![0; n]);
        while let Some(Reverse(u)) = ready.pop() {
            pos[u] = order.len() as u32;
            order.push(u);
            for &(v, _) in self.row(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::CycleDetected);
        }
        Ok((order, pos))
    }
}

/// The JSON form `{graph: {n, succs, preds, edge_count}, task_size,
/// topo}`: both row lists in task space, as files written before the
/// graph was laid out by position spell it.
impl Serialize for ProblemGraph {
    fn to_value(&self) -> Value {
        let rows = |row: fn(&Self, TaskId) -> Neighbors<'_>| {
            let list = (0..self.len()).map(|t| row(self, t).collect::<Vec<_>>().to_value());
            Value::Arr(list.collect())
        };
        let graph = Value::Obj(vec![
            ("n".into(), self.len().to_value()),
            ("succs".into(), rows(Self::successors)),
            ("preds".into(), rows(Self::predecessors)),
            ("edge_count".into(), self.rows.edge_count().to_value()),
        ]);
        Value::Obj(vec![
            ("graph".into(), graph),
            ("task_size".into(), self.task_size.to_value()),
            ("topo".into(), self.topo_order().to_value()),
        ])
    }
}

/// The `graph` member: the edges of `succs`, checked, with `preds` and
/// `edge_count` refused unless they describe those edges.
impl Deserialize for Successors {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_obj().ok_or_else(|| DeError::expected("object", v))?;
        let n: usize = serde::field(obj, "n")?;
        let succs: Vec<Vec<(TaskId, Weight)>> = serde::field(obj, "succs")?;
        let preds: Vec<Vec<(TaskId, Weight)>> = serde::field(obj, "preds")?;
        let edge_count: usize = serde::field(obj, "edge_count")?;
        if succs.len() != n {
            return Err(DeError(format!(
                "succs: {} rows for {n} nodes",
                succs.len()
            )));
        }
        let edges: Vec<_> = (succs.iter().enumerate())
            .flat_map(|(u, row)| row.iter().map(move |&(v, w)| (u, v, w)))
            .collect();
        let succ = Successors::new(n, &edges).map_err(|e| DeError(e.to_string()))?;
        let listed = succ.adj.len();
        if edge_count != listed {
            return Err(DeError(format!(
                "edge_count {edge_count}, but succs lists {listed} edges"
            )));
        }
        let mut mirror = vec![Vec::new(); n];
        for &(u, v, w) in &edges {
            mirror[v].push((u, w));
        }
        if preds != mirror {
            return Err(DeError("preds do not mirror succs".into()));
        }
        Ok(succ)
    }
}

/// Rebuilds through the checks of [`ProblemGraph::new`] and refuses a
/// `topo` that is not the order they derive.
impl Deserialize for ProblemGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_obj().ok_or_else(|| DeError::expected("object", v))?;
        let succ: Successors = serde::field(obj, "graph")?;
        let task_size: Vec<Time> = serde::field(obj, "task_size")?;
        let topo: Vec<TaskId> = serde::field(obj, "topo")?;
        let refused = |e: GraphError| DeError(e.to_string());
        check_sizes(succ.len(), &task_size).map_err(refused)?;
        let p = ProblemGraph::freeze(task_size, &succ).map_err(refused)?;
        if topo != p.topo_order() {
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

    /// 0 -> 1 -> 3, 0 -> 2 -> 3 with unit sizes, listed out of order.
    fn diamond() -> ProblemGraph {
        ProblemGraph::new(vec![1; 4], &[(2, 3, 5), (0, 2, 3), (1, 3, 4), (0, 1, 2)]).unwrap()
    }

    fn build(n: usize, edges: &[(TaskId, TaskId, Weight)]) -> Result<ProblemGraph, GraphError> {
        ProblemGraph::new(vec![1; n], edges)
    }

    #[test]
    fn construction_and_accessors() {
        let p = small();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.size(1), 2);
        assert_eq!(p.sizes(), &[1, 2, 1, 1]);
        assert_eq!(p.predecessors(3).collect::<Vec<_>>(), [(1, 1), (2, 3)]);
        assert_eq!(p.successors(0).collect::<Vec<_>>(), [(1, 1), (2, 2)]);
        assert_eq!(p.sequential_time(), 5);
    }

    #[test]
    fn paper_edges_are_one_based() {
        let p = small();
        // Paper edge (1,2,1) becomes 0 -> 1 internally.
        assert_eq!(p.weight(0, 1), Some(1));
        assert!(ProblemGraph::from_paper_edges(&[1], &[(0, 1, 1)]).is_err());
    }

    #[test]
    fn add_and_query_edges() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.graph().edge_count(), 4);
        assert_eq!(g.weight(0, 1), Some(2));
        assert_eq!(g.weight(1, 0), None);
        assert_eq!(g.weight(2, 3), Some(5));
        assert_eq!(g.weight(3, 2), None);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.successors(0).len(), 2);
        assert_eq!(g.predecessors(3).len(), 2);
        assert_eq!(g.successors(0).collect::<Vec<_>>(), [(1, 2), (2, 3)]);
        assert_eq!(g.predecessors(3).collect::<Vec<_>>(), [(1, 4), (2, 5)]);
        assert!(g.predecessors(0).is_empty() && g.successors(3).is_empty());
        let total: Weight = g.edges().map(|(_, _, w)| w).sum();
        assert_eq!(total, 2 + 3 + 4 + 5);
    }

    #[test]
    fn sources_sinks_incident_weight() {
        let g = diamond();
        let sources: Vec<_> = (0..4).filter(|&v| g.predecessors(v).is_empty()).collect();
        let sinks: Vec<_> = (0..4).filter(|&u| g.successors(u).is_empty()).collect();
        assert_eq!((sources, sinks), (vec![0], vec![3]));
        let incident = |u| -> Weight {
            let rows = g.successors(u).chain(g.predecessors(u));
            rows.map(|(_, w)| w).sum()
        };
        assert_eq!(incident(1), 2 + 4);
    }

    #[test]
    fn edges_iterates_all() {
        let es: Vec<_> = diamond().edges().collect();
        assert_eq!(es, vec![(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 5)]);
    }

    #[test]
    fn rejects_invalid_edges() {
        let refused = |edges: &[(TaskId, TaskId, Weight)]| build(3, edges).unwrap_err();
        assert_eq!(
            refused(&[(0, 3, 1)]),
            GraphError::NodeOutOfRange { node: 3, len: 3 }
        );
        assert_eq!(refused(&[(1, 1, 1)]), GraphError::SelfLoop(1));
        assert_eq!(
            refused(&[(0, 1, 0)]),
            GraphError::ZeroWeight { from: 0, to: 1 }
        );
        // The first invalid edge in input order is the one reported,
        // ahead of any duplicate.
        assert_eq!(
            refused(&[(0, 1, 1), (0, 1, 2), (2, 2, 1), (0, 5, 1)]),
            GraphError::SelfLoop(2)
        );
        match refused(&[(0, 2, 1), (0, 1, 1), (0, 2, 4)]) {
            GraphError::InvalidParameter(msg) => assert!(msg.contains("(0,2)"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn from_edges_refuses_a_repeated_edge_in_any_order() {
        // Disorder is no error: descending `to` or `from` builds the graph.
        for disorder in [[(0, 2, 1), (0, 1, 1)], [(1, 2, 1), (0, 1, 1)]] {
            assert_eq!(build(3, &disorder).unwrap().graph().edge_count(), 2);
        }
        // A repeated edge is refused whether its copies are adjacent or not,
        // and whatever weights they carry.
        for twice in [
            vec![(0, 1, 1), (0, 1, 2)],
            vec![(0, 1, 1), (1, 2, 1), (0, 1, 1)],
        ] {
            match build(3, &twice).unwrap_err() {
                GraphError::InvalidParameter(msg) => assert!(msg.contains("(0,1)"), "{msg}"),
                other => panic!("{twice:?}: {other:?}"),
            }
        }
        // An out-of-range `from` is reported, not indexed.
        assert_eq!(
            build(3, &[(0, 1, 1), (3, 1, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 3, len: 3 }
        );
        // An invalid edge is reported ahead of a repeat listed before it.
        assert_eq!(
            build(3, &[(0, 2, 1), (0, 2, 1), (0, 0, 1)]).unwrap_err(),
            GraphError::SelfLoop(0)
        );
    }

    #[test]
    fn any_edge_order_builds_the_same_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..24usize);
            // Forward edges only (u < v): a DAG, listed in sorted order.
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_range(0..4) == 0 {
                        edges.push((u, v, rng.gen_range(1..=9)));
                    }
                }
            }
            let sorted = build(n, &edges).unwrap();
            assert_eq!(sorted.edges().collect::<Vec<_>>(), edges, "seed {seed}");
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            let shuffled = build(n, &edges).unwrap();
            assert_eq!(shuffled, sorted, "seed {seed}");
            for v in 0..n {
                let mut column: Vec<_> = edges
                    .iter()
                    .filter(|e| e.1 == v)
                    .map(|&(u, _, w)| (u, w))
                    .collect();
                column.sort_unstable();
                assert_eq!(sorted.predecessors(v).collect::<Vec<_>>(), column);
            }
        }
    }

    #[test]
    fn rejects_cycles_zero_sizes_and_mismatches() {
        assert_eq!(
            build(2, &[(0, 1, 1), (1, 0, 1)]),
            Err(GraphError::CycleDetected)
        );
        assert!(ProblemGraph::new(vec![1, 0], &[]).is_err());
        // A zero size is reported ahead of an invalid edge.
        match ProblemGraph::new(vec![0, 1], &[(0, 0, 1)]) {
            Err(GraphError::InvalidParameter(msg)) => assert!(msg.contains("zero"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // A file whose sizes do not match its tasks is refused.
        let json = serde_json::to_string(&build(2, &[(0, 1, 1)]).unwrap()).unwrap();
        let edited = json.replacen("\"task_size\":[1,1]", "\"task_size\":[1]", 1);
        let err = serde_json::from_str::<ProblemGraph>(&edited).unwrap_err();
        assert!(err.to_string().contains("size mismatch"), "{err}");
    }

    #[test]
    fn cycle_is_detected() {
        assert_eq!(
            build(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            Err(GraphError::CycleDetected)
        );
        // A cycle among some tasks is found whatever else is acyclic.
        assert_eq!(
            build(5, &[(0, 1, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)]),
            Err(GraphError::CycleDetected)
        );
    }

    #[test]
    fn topo_is_deterministic_smallest_first() {
        // Two independent sources 0 and 1; 0 must come first.
        assert_eq!(build(3, &[(1, 2, 1)]).unwrap().topo_order(), &[0, 1, 2]);
        // Task 3 is ready before 2 and 1 are, yet waits its turn by id.
        let p = build(4, &[(3, 1, 1), (3, 2, 1), (0, 2, 1)]).unwrap();
        assert_eq!(p.topo_order(), &[0, 3, 1, 2]);
    }

    #[test]
    fn topo_order_is_valid() {
        let p = small();
        for (p_pos, &t) in p.topo_order().iter().enumerate() {
            assert_eq!(p.position(t), p_pos);
        }
        for (u, v, _) in p.edges() {
            assert!(p.position(u) < p.position(v), "{u} before {v}");
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let p = diamond();
        for (u, v, _) in p.edges() {
            assert!(p.position(u) < p.position(v), "{u} before {v}");
        }
        assert_eq!(p.topo_order().len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn critical_path_counts_nodes_and_edges() {
        let p = small();
        // 1(1) -2-> 3(1) -3-> 4(1): 1 + 2 + 1 + 3 + 1 = 8.
        assert_eq!(p.critical_path(), 8);
    }

    #[test]
    fn longest_path_includes_node_and_edge_costs() {
        // Paths: 0(1) -2-> 1(1) -4-> 3(1) = 1+2+1+4+1 = 9
        //        0(1) -3-> 2(1) -5-> 3(1) = 1+3+1+5+1 = 11
        let g = diamond();
        assert_eq!(g.critical_path(), 11);
        // Zero inside a cluster: with 0, 2 and 3 together only 0 -> 1 and
        // 1 -> 3 still cost, and 1 + 2 + 1 + 4 + 1 = 9 wins.
        let rows = g.graph();
        let cluster = [0, 1, 0, 0];
        let inside = |u: usize, v: usize| cluster[rows.task(u)] == cluster[rows.task(v)];
        assert_eq!(
            rows.longest_path(|u, v, w| if inside(u, v) { 0 } else { w }),
            9
        );
    }

    #[test]
    fn longest_path_checks_sizes() {
        // The sweep counts each task's own size, read by position even
        // where task ids are not topological: growing a task on the
        // longest path lengthens it by as much, one off it does not.
        let edges = [(3, 1, 2), (3, 2, 3), (1, 0, 4), (2, 0, 5)];
        let path = |sizes: Vec<Time>| ProblemGraph::new(sizes, &edges).unwrap().critical_path();
        assert_eq!(path(vec![1; 4]), 11);
        assert_eq!(path(vec![1, 1, 4, 1]), 14);
        assert_eq!(path(vec![1, 3, 1, 1]), 11);
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
    fn json_keeps_both_row_lists_and_refuses_inconsistent_ones() {
        let g = diamond();
        let value = g.to_value();
        let graph = value.get("graph").unwrap();
        let keys: Vec<_> = graph
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["n", "succs", "preds", "edge_count"]);
        assert_eq!(ProblemGraph::from_value(&value).unwrap(), g);
        let with = |key: &str, field: Value| {
            let mut rows = graph.as_obj().unwrap().to_vec();
            rows.iter_mut().find(|(k, _)| k == key).unwrap().1 = field;
            let mut obj = value.as_obj().unwrap().to_vec();
            obj[0].1 = Value::Obj(rows);
            ProblemGraph::from_value(&Value::Obj(obj)).unwrap_err().0
        };
        // A back edge in `succs` only, so `preds` no longer mirror it.
        let mut succs: Vec<Vec<(TaskId, Weight)>> =
            (0..4).map(|u| g.successors(u).collect()).collect();
        succs[3].push((0, 1));
        assert!(with("succs", succs.to_value()).contains("edge_count"));
        assert!(with("edge_count", 5usize.to_value()).contains("edge_count"));
        let preds: Vec<Vec<(TaskId, Weight)>> = vec![vec![]; 4];
        assert!(with("preds", preds.to_value()).contains("preds"));
        let mut swapped: Vec<Vec<(TaskId, Weight)>> =
            (0..4).map(|v| g.predecessors(v).collect()).collect();
        swapped[3].reverse();
        assert!(with("preds", swapped.to_value()).contains("preds"));
        assert!(with("n", 9usize.to_value()).contains("rows"));
        succs[3] = vec![(3, 1)];
        assert!(with("succs", succs.to_value()).contains("self-loop"));
    }

    #[test]
    fn totals_past_the_schedule_range_are_refused() -> Result<(), GraphError> {
        // The largest total admitted, then one past it, reached by a
        // task size and by an edge weight alike.
        let edge = [(0, 1, 1)];
        assert!(ProblemGraph::new(vec![1, MAX_TOTAL_WEIGHT - 2], &edge).is_ok());
        let refused = ProblemGraph::new(vec![1, MAX_TOTAL_WEIGHT - 1], &edge);
        assert!(
            matches!(&refused, Err(e) if e.to_string().contains("exceeds")),
            "{refused:?}"
        );
        assert!(ProblemGraph::new(vec![1, 1], &[(0, 1, u64::MAX)]).is_err());
        // (total + 1) × MAX_NODES would not fit u64.
        let limit = u128::from(MAX_TOTAL_WEIGHT);
        assert!(limit * MAX_NODES as u128 <= u128::from(u64::MAX));
        assert!((limit + 1) * MAX_NODES as u128 > u128::from(u64::MAX));
        Ok(())
    }
}
