//! The dynamic-workload delta model: [`TraceEvent`]s mutating a
//! [`DynamicWorkload`], the mutable counterpart of a
//! [`ClusteredProblemGraph`].
//!
//! The paper maps a static problem graph once; online workloads change
//! — tasks arrive and finish, communication weights drift. A trace is a
//! sequence of small deltas against a running clustered problem graph.
//! [`DynamicWorkload`] keeps that state mutable (tasks and edges keyed
//! by *stable* external ids, so removals never renumber survivors),
//! validates every delta (sizes ≥ 1, clusters never emptied — the
//! paper's `na = ns` invariant — and the dependency graph stays
//! acyclic), and [`DynamicWorkload::materialize`]s back into the
//! immutable [`ClusteredProblemGraph`] the mapping algorithms consume.
//! Each applied event reports an [`EventImpact`] (touched clusters and
//! moved weight) that the incremental remapper in `mimd-online` uses to
//! scope refinement and meter staleness.
//!
//! The session's problem graph is stored once, here: edge weights in
//! one ordered map and, per task, its sorted successor and predecessor
//! ids. Every operation costs what it touches — with `V` tasks, `E`
//! edges and `log` the ordered-map lookup:
//!
//! | operation | cost |
//! |---|---|
//! | [`DynamicWorkload::from_snapshot`] | `O((V + E) log V)`: shape checks in snapshot order, then one topological pass |
//! | `AddEdge` | the cone reachable from `to` (the cycle check) |
//! | `RemoveTask` | `deg(task)` map entries |
//! | other local events | `O(log)` |
//! | [`DynamicWorkload::total_weight`] | `O(1)`: a running `u128` total every change keeps |
//! | [`DynamicWorkload::materialize`] | `O(V + E log V)`, rows built in bulk |
//!
//! An online session materializes only to (re)attach its live
//! instance — at its start, on a full remap, and for an edge against
//! the instance's order; every other event reaches that instance as a
//! patch.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use mimd_graph::dag::is_acyclic;
use mimd_graph::digraph::WeightedDigraph;
use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};

use crate::clustering::Clustering;
use crate::problem::ProblemGraph;
use crate::{ClusterId, ClusteredProblemGraph, TaskId};

/// One delta of a dynamic-workload trace (one JSONL line after the
/// header). Task ids are stable external identifiers: they survive
/// removals and are never recycled by the generator.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TraceEvent {
    /// A task arrives in `cluster` with execution time `size`.
    AddTask {
        /// Fresh external task id (must be unused).
        task: TaskId,
        /// Execution time (≥ 1).
        size: Time,
        /// Cluster receiving the task (`0..na`).
        cluster: ClusterId,
    },
    /// A task finishes and leaves, taking its incident edges with it.
    /// Rejected if it would empty its cluster (`na = ns` must hold).
    RemoveTask {
        /// The departing task.
        task: TaskId,
    },
    /// A new data dependency `from -> to` appears. Rejected if it would
    /// create a cycle.
    AddEdge {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
        /// Communication weight (≥ 1).
        weight: Weight,
    },
    /// A data dependency disappears.
    RemoveEdge {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
    },
    /// A task's execution time changes.
    SetTaskSize {
        /// The task.
        task: TaskId,
        /// New execution time (≥ 1).
        size: Time,
    },
    /// An edge's communication weight changes.
    SetEdgeWeight {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
        /// New weight (≥ 1).
        weight: Weight,
    },
    /// Global drift: every edge weight is rescaled to
    /// `max(1, w × percent / 100)`.
    ScaleEdgeWeights {
        /// Scale factor in percent (≥ 1; 100 is a no-op).
        percent: u32,
    },
}

impl TraceEvent {
    /// Short machine-readable label (the `kind` tag of the wire format).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::AddTask { .. } => "add_task",
            TraceEvent::RemoveTask { .. } => "remove_task",
            TraceEvent::AddEdge { .. } => "add_edge",
            TraceEvent::RemoveEdge { .. } => "remove_edge",
            TraceEvent::SetTaskSize { .. } => "set_task_size",
            TraceEvent::SetEdgeWeight { .. } => "set_edge_weight",
            TraceEvent::ScaleEdgeWeights { .. } => "scale_edge_weights",
        }
    }
}

/// What one applied event disturbed — the locality information the
/// incremental remapper keys on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventImpact {
    /// Clusters whose content changed (sorted, deduplicated). Empty for
    /// a no-op event.
    pub touched_clusters: Vec<ClusterId>,
    /// Total task/edge weight moved by the event (sum of absolute
    /// changes, saturating) — the numerator of the remapper's drift
    /// fraction.
    pub weight_delta: u64,
    /// `true` for events without locality (global weight scaling):
    /// every cluster is affected.
    pub global: bool,
}

/// Per-task mutable state, adjacency included: `succs`/`preds` hold the
/// far endpoints of the task's live edges, ascending, so they are a
/// function of the edge map and a state reached delta-by-delta equals
/// one rebuilt from its snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TaskState {
    size: Time,
    cluster: ClusterId,
    succs: Vec<TaskId>,
    preds: Vec<TaskId>,
}

impl TaskState {
    fn new(size: Time, cluster: ClusterId) -> TaskState {
        TaskState {
            size,
            cluster,
            succs: Vec::new(),
            preds: Vec::new(),
        }
    }
}

/// Insert `id` into an ascending row (an append when ids arrive in
/// order, as they do from a sorted snapshot).
fn insert_sorted(row: &mut Vec<TaskId>, id: TaskId) {
    if let Err(pos) = row.binary_search(&id) {
        row.insert(pos, id);
    }
}

/// Remove `id` from an ascending row.
fn remove_sorted(row: &mut Vec<TaskId>, id: TaskId) {
    if let Ok(pos) = row.binary_search(&id) {
        row.remove(pos);
    }
}

/// One task of a [`WorkloadSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskInit {
    /// Stable external task id.
    pub id: TaskId,
    /// Execution time.
    pub size: Time,
    /// Owning cluster.
    pub cluster: ClusterId,
}

/// One edge of a [`WorkloadSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeInit {
    /// Producer task id.
    pub from: TaskId,
    /// Consumer task id.
    pub to: TaskId,
    /// Communication weight.
    pub weight: Weight,
}

/// The serializable image of a [`DynamicWorkload`] — the header of a
/// trace file (the initial state the events mutate).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSnapshot {
    /// Number of clusters `na` (fixed for the whole trace; `na = ns`).
    pub num_clusters: usize,
    /// All tasks, ascending by id.
    pub tasks: Vec<TaskInit>,
    /// All edges, ascending by `(from, to)`.
    pub edges: Vec<EdgeInit>,
}

/// A mutable clustered problem graph under a fixed cluster count.
///
/// Tasks and edges are keyed by stable external ids in ordered maps
/// (ids are sparse user input: nothing here is sized by the largest
/// id), so a state reached delta-by-delta is structurally identical to
/// one rebuilt from the final snapshot — the reproducibility property
/// the trace format relies on.
#[derive(Clone, Debug)]
pub struct DynamicWorkload {
    tasks: BTreeMap<TaskId, TaskState>,
    edges: BTreeMap<(TaskId, TaskId), Weight>,
    /// `cluster_sizes[c]` = number of tasks currently in cluster `c`.
    cluster_sizes: Vec<usize>,
    /// High-water mark for [`DynamicWorkload::next_task_id`]: one past
    /// the largest id ever seen (saturating at `usize::MAX`), so removed
    /// ids are never recycled even after the current maximum departs.
    /// Generator bookkeeping only — excluded from equality (a snapshot
    /// does not record history).
    next_id: TaskId,
    /// Total task weight plus total edge weight, kept by every change
    /// (wide enough that no `u64` weights can overflow it). A function
    /// of the state, so excluded from equality too.
    total_weight: u128,
}

impl PartialEq for DynamicWorkload {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks
            && self.edges == other.edges
            && self.cluster_sizes == other.cluster_sizes
    }
}

impl Eq for DynamicWorkload {}

impl DynamicWorkload {
    /// Start from an existing clustered problem graph; external ids are
    /// the graph's task indices `0..np`.
    pub fn from_clustered(graph: &ClusteredProblemGraph) -> DynamicWorkload {
        let mut state = DynamicWorkload {
            tasks: BTreeMap::new(),
            edges: BTreeMap::new(),
            cluster_sizes: vec![0; graph.num_clusters()],
            next_id: graph.num_tasks(),
            total_weight: 0,
        };
        for t in 0..graph.num_tasks() {
            let cluster = graph.cluster_of(t);
            let size = graph.problem().size(t);
            state.tasks.insert(t, TaskState::new(size, cluster));
            state.cluster_sizes[cluster] += 1;
            state.total_weight += u128::from(size);
        }
        for (u, v, w) in graph.problem().graph().edges() {
            state.insert_edge(u, v, w);
        }
        state
    }

    /// Rebuild from a snapshot (the trace-file header). Validates the
    /// same invariants `apply` maintains, and reports what inserting
    /// the edges one by one in snapshot order would report: the first
    /// edge that is malformed *or* closes a cycle decides the error.
    pub fn from_snapshot(snapshot: &WorkloadSnapshot) -> Result<DynamicWorkload, GraphError> {
        if snapshot.num_clusters == 0 {
            return Err(GraphError::InvalidParameter(
                "workload needs >= 1 cluster".into(),
            ));
        }
        let mut state = DynamicWorkload {
            tasks: BTreeMap::new(),
            edges: BTreeMap::new(),
            cluster_sizes: vec![0; snapshot.num_clusters],
            next_id: 0,
            total_weight: 0,
        };
        for task in &snapshot.tasks {
            if task.size == 0 {
                return Err(GraphError::InvalidParameter(format!(
                    "task {} has zero execution time",
                    task.id
                )));
            }
            if task.cluster >= snapshot.num_clusters {
                return Err(GraphError::NodeOutOfRange {
                    node: task.cluster,
                    len: snapshot.num_clusters,
                });
            }
            if state
                .tasks
                .insert(task.id, TaskState::new(task.size, task.cluster))
                .is_some()
            {
                return Err(GraphError::InvalidParameter(format!(
                    "task {} appears twice in the snapshot",
                    task.id
                )));
            }
            state.cluster_sizes[task.cluster] += 1;
            state.total_weight += u128::from(task.size);
            state.note_id(task.id);
        }
        if let Some(empty) = state.cluster_sizes.iter().position(|&n| n == 0) {
            return Err(GraphError::InvalidParameter(format!(
                "cluster {empty} is empty; every cluster must own >= 1 task"
            )));
        }
        // Shape checks need only the edges before them; acyclicity is
        // proved once for the whole prefix they accepted. A cycle among
        // the edges before a malformed one was closed first, so it wins.
        let mut malformed = None;
        for edge in &snapshot.edges {
            if let Err(e) = state.check_edge_shape(edge.from, edge.to, edge.weight) {
                malformed = Some(e);
                break;
            }
            state.insert_edge(edge.from, edge.to, edge.weight);
        }
        if !is_acyclic(&state.digraph()?) {
            return Err(GraphError::CycleDetected);
        }
        malformed.map_or(Ok(state), Err)
    }

    /// The serializable image of the current state.
    pub fn snapshot(&self) -> WorkloadSnapshot {
        WorkloadSnapshot {
            num_clusters: self.cluster_sizes.len(),
            tasks: self
                .tasks
                .iter()
                .map(|(&id, state)| TaskInit {
                    id,
                    size: state.size,
                    cluster: state.cluster,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|(&(from, to), &weight)| EdgeInit { from, to, weight })
                .collect(),
        }
    }

    /// Number of live tasks `np`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of clusters `na` (constant for the workload's lifetime).
    pub fn num_clusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff external task id `t` is live.
    pub fn has_task(&self, t: TaskId) -> bool {
        self.tasks.contains_key(&t)
    }

    /// Cluster owning live task `t`.
    pub fn cluster_of(&self, t: TaskId) -> Option<ClusterId> {
        self.tasks.get(&t).map(|s| s.cluster)
    }

    /// Execution time of live task `t`.
    pub fn task_size(&self, t: TaskId) -> Option<Time> {
        self.tasks.get(&t).map(|s| s.size)
    }

    /// Tasks `t` feeds, ascending (empty for an unknown task).
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        self.tasks.get(&t).map_or(&[], |s| &s.succs)
    }

    /// Tasks feeding `t`, ascending (empty for an unknown task).
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        self.tasks.get(&t).map_or(&[], |s| &s.preds)
    }

    /// Weight of the live edge `from -> to`.
    pub fn edge_weight(&self, from: TaskId, to: TaskId) -> Option<Weight> {
        self.edges.get(&(from, to)).copied()
    }

    /// A fresh external task id: one past the largest id ever seen
    /// (monotone high-water mark, so departed ids are never reissued).
    pub fn next_task_id(&self) -> TaskId {
        self.next_id
    }

    /// Live task ids, ascending.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.keys().copied()
    }

    /// Live edges `(from, to, weight)`, ascending by key.
    pub fn edge_list(&self) -> impl Iterator<Item = (TaskId, TaskId, Weight)> + '_ {
        self.edges.iter().map(|(&(u, v), &w)| (u, v, w))
    }

    /// Number of tasks currently in cluster `c`.
    pub fn cluster_size(&self, c: ClusterId) -> usize {
        self.cluster_sizes[c]
    }

    /// Total task weight plus total edge weight — the denominator of
    /// the remapper's drift fraction. Kept up to date by every change,
    /// so reading it costs nothing.
    pub fn total_weight(&self) -> u128 {
        self.total_weight
    }

    /// Apply one event, returning its impact. On error the state is
    /// unchanged.
    pub fn apply(&mut self, event: &TraceEvent) -> Result<EventImpact, GraphError> {
        match *event {
            TraceEvent::AddTask {
                task,
                size,
                cluster,
            } => {
                if self.tasks.contains_key(&task) {
                    return Err(GraphError::InvalidParameter(format!(
                        "task {task} already exists"
                    )));
                }
                if size == 0 {
                    return Err(GraphError::InvalidParameter(format!(
                        "task {task} has zero execution time"
                    )));
                }
                if cluster >= self.num_clusters() {
                    return Err(GraphError::NodeOutOfRange {
                        node: cluster,
                        len: self.num_clusters(),
                    });
                }
                self.tasks.insert(task, TaskState::new(size, cluster));
                self.cluster_sizes[cluster] += 1;
                self.total_weight += u128::from(size);
                self.note_id(task);
                Ok(EventImpact {
                    touched_clusters: vec![cluster],
                    weight_delta: size,
                    global: false,
                })
            }
            TraceEvent::RemoveTask { task } => {
                let state = self.tasks.get(&task).ok_or_else(|| {
                    GraphError::InvalidParameter(format!("task {task} does not exist"))
                })?;
                let cluster = state.cluster;
                if self.cluster_sizes[cluster] <= 1 {
                    return Err(GraphError::InvalidParameter(format!(
                        "removing task {task} would empty cluster {cluster} (na = ns must hold)"
                    )));
                }
                let state = self.tasks.remove(&task).expect("looked up above");
                self.cluster_sizes[cluster] -= 1;
                let mut delta = state.size;
                let mut removed = u128::from(state.size);
                let mut touched = vec![cluster];
                for &succ in &state.succs {
                    let w = self.edges.remove(&(task, succ)).expect("row mirrors map");
                    delta = delta.saturating_add(w);
                    removed += u128::from(w);
                    let partner = self.tasks.get_mut(&succ).expect("endpoints are live");
                    remove_sorted(&mut partner.preds, task);
                    touched.push(partner.cluster);
                }
                for &pred in &state.preds {
                    let w = self.edges.remove(&(pred, task)).expect("row mirrors map");
                    delta = delta.saturating_add(w);
                    removed += u128::from(w);
                    let partner = self.tasks.get_mut(&pred).expect("endpoints are live");
                    remove_sorted(&mut partner.succs, task);
                    touched.push(partner.cluster);
                }
                self.total_weight -= removed;
                touched.sort_unstable();
                touched.dedup();
                Ok(EventImpact {
                    touched_clusters: touched,
                    weight_delta: delta,
                    global: false,
                })
            }
            TraceEvent::AddEdge { from, to, weight } => {
                self.check_edge_shape(from, to, weight)?;
                if self.reaches(to, from) {
                    return Err(GraphError::CycleDetected);
                }
                self.insert_edge(from, to, weight);
                Ok(EventImpact {
                    touched_clusters: self.clusters_of_pair(from, to),
                    weight_delta: weight,
                    global: false,
                })
            }
            TraceEvent::RemoveEdge { from, to } => {
                let w = self.edges.remove(&(from, to)).ok_or_else(|| {
                    GraphError::InvalidParameter(format!("edge {from} -> {to} does not exist"))
                })?;
                remove_sorted(&mut self.task_mut(from).succs, to);
                remove_sorted(&mut self.task_mut(to).preds, from);
                self.total_weight -= u128::from(w);
                Ok(EventImpact {
                    touched_clusters: self.clusters_of_pair(from, to),
                    weight_delta: w,
                    global: false,
                })
            }
            TraceEvent::SetTaskSize { task, size } => {
                if size == 0 {
                    return Err(GraphError::InvalidParameter(format!(
                        "task {task} cannot shrink to zero execution time"
                    )));
                }
                let state = self.tasks.get_mut(&task).ok_or_else(|| {
                    GraphError::InvalidParameter(format!("task {task} does not exist"))
                })?;
                let delta = state.size.abs_diff(size);
                self.total_weight = self.total_weight - u128::from(state.size) + u128::from(size);
                state.size = size;
                Ok(EventImpact {
                    touched_clusters: vec![state.cluster],
                    weight_delta: delta,
                    global: false,
                })
            }
            TraceEvent::SetEdgeWeight { from, to, weight } => {
                if weight == 0 {
                    return Err(GraphError::InvalidParameter(format!(
                        "edge {from} -> {to} cannot have zero weight"
                    )));
                }
                let slot = self.edges.get_mut(&(from, to)).ok_or_else(|| {
                    GraphError::InvalidParameter(format!("edge {from} -> {to} does not exist"))
                })?;
                let delta = slot.abs_diff(weight);
                self.total_weight = self.total_weight - u128::from(*slot) + u128::from(weight);
                *slot = weight;
                Ok(EventImpact {
                    touched_clusters: self.clusters_of_pair(from, to),
                    weight_delta: delta,
                    global: false,
                })
            }
            TraceEvent::ScaleEdgeWeights { percent } => {
                if percent == 0 {
                    return Err(GraphError::InvalidParameter(
                        "scale percent must be >= 1".into(),
                    ));
                }
                let mut delta = 0u64;
                for w in self.edges.values_mut() {
                    // Widen before multiplying: traces are user input,
                    // and a near-u64::MAX weight must scale saturating,
                    // not wrapping.
                    let scaled = (u128::from(*w) * u128::from(percent) / 100)
                        .min(u128::from(u64::MAX)) as u64;
                    let scaled = scaled.max(1);
                    delta = delta.saturating_add(w.abs_diff(scaled));
                    self.total_weight = self.total_weight - u128::from(*w) + u128::from(scaled);
                    *w = scaled;
                }
                Ok(EventImpact {
                    touched_clusters: (0..self.num_clusters()).collect(),
                    weight_delta: delta,
                    global: true,
                })
            }
        }
    }

    /// Build the immutable [`ClusteredProblemGraph`] for the current
    /// state: tasks densely renumbered in ascending external-id order.
    pub fn materialize(&self) -> Result<ClusteredProblemGraph, GraphError> {
        let sizes: Vec<Time> = self.tasks.values().map(|s| s.size).collect();
        let problem = ProblemGraph::new(self.digraph()?, sizes)?;
        let clustering = Clustering::new(self.tasks.values().map(|s| s.cluster).collect())?;
        ClusteredProblemGraph::new(problem, clustering)
    }

    /// The dependency graph over dense indices `0..np` (ascending
    /// external-id order), built in bulk from the edge map.
    fn digraph(&self) -> Result<WeightedDigraph, GraphError> {
        let ids: Vec<TaskId> = self.tasks.keys().copied().collect();
        let mut from_dense = 0;
        let edges: Vec<(usize, usize, Weight)> = self
            .edges
            .iter()
            .map(|(&(u, v), &w)| {
                // Keys ascend by `from`, so its index only ever advances.
                while ids[from_dense] != u {
                    from_dense += 1;
                }
                let to_dense = ids.binary_search(&v).expect("endpoints are live");
                (from_dense, to_dense, w)
            })
            .collect();
        WeightedDigraph::from_edges(ids.len(), &edges)
    }

    /// Raise the id high-water mark past `id`.
    fn note_id(&mut self, id: TaskId) {
        self.next_id = self.next_id.max(id.saturating_add(1));
    }

    fn task_mut(&mut self, t: TaskId) -> &mut TaskState {
        self.tasks.get_mut(&t).expect("endpoints are live")
    }

    /// Store a validated edge: its weight and both adjacency entries.
    fn insert_edge(&mut self, from: TaskId, to: TaskId, weight: Weight) {
        self.edges.insert((from, to), weight);
        self.total_weight += u128::from(weight);
        insert_sorted(&mut self.task_mut(from).succs, to);
        insert_sorted(&mut self.task_mut(to).preds, from);
    }

    /// The clusters of an edge's two endpoints (sorted, deduplicated).
    fn clusters_of_pair(&self, from: TaskId, to: TaskId) -> Vec<ClusterId> {
        let mut touched = vec![self.tasks[&from].cluster, self.tasks[&to].cluster];
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Validate the shape of an edge about to be inserted: not a
    /// self-loop, non-zero weight, live endpoints, not a duplicate.
    /// Whether it closes a cycle is the caller's separate question.
    fn check_edge_shape(&self, from: TaskId, to: TaskId, weight: Weight) -> Result<(), GraphError> {
        if from == to {
            return Err(GraphError::InvalidParameter(format!(
                "self-loop on task {from}"
            )));
        }
        if weight == 0 {
            return Err(GraphError::InvalidParameter(format!(
                "edge {from} -> {to} needs weight >= 1"
            )));
        }
        for t in [from, to] {
            if !self.tasks.contains_key(&t) {
                return Err(GraphError::InvalidParameter(format!(
                    "task {t} does not exist"
                )));
            }
        }
        if self.edges.contains_key(&(from, to)) {
            return Err(GraphError::InvalidParameter(format!(
                "edge {from} -> {to} already exists"
            )));
        }
        Ok(())
    }

    /// `true` iff `target` is reachable from `start` along live edges
    /// (depth-first over the successor rows: only `start`'s cone is
    /// visited). A new edge `from -> to` closes a cycle iff `to`
    /// already reaches `from`.
    fn reaches(&self, start: TaskId, target: TaskId) -> bool {
        let mut stack = vec![start];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if t == target {
                return true;
            }
            if seen.insert(t) {
                stack.extend_from_slice(&self.tasks[&t].succs);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;

    /// 4 tasks in 2 clusters: 0 -> 1 (w5), 0 -> 2 (w2), 1 -> 3 (w1),
    /// 2 -> 3 (w7); clusters {0,1} and {2,3}.
    fn base() -> ClusteredProblemGraph {
        let p = ProblemGraph::from_paper_edges(
            &[2, 3, 1, 4],
            &[(1, 2, 5), (1, 3, 2), (2, 4, 1), (3, 4, 7)],
        )
        .unwrap();
        let c = Clustering::new(vec![0, 0, 1, 1]).unwrap();
        ClusteredProblemGraph::new(p, c).unwrap()
    }

    #[test]
    fn from_clustered_roundtrips_through_materialize() {
        let graph = base();
        let state = DynamicWorkload::from_clustered(&graph);
        assert_eq!(state.num_tasks(), 4);
        assert_eq!(state.num_clusters(), 2);
        assert_eq!(state.num_edges(), 4);
        assert_eq!(state.total_weight(), 2 + 3 + 1 + 4 + 5 + 2 + 1 + 7);
        assert_eq!(state.next_task_id(), 4);
        let back = state.materialize().unwrap();
        assert_eq!(back, graph);
    }

    #[test]
    fn snapshot_roundtrips_through_serde_and_rebuild() {
        let state = DynamicWorkload::from_clustered(&base());
        let snapshot = state.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let parsed: WorkloadSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snapshot);
        let rebuilt = DynamicWorkload::from_snapshot(&parsed).unwrap();
        assert_eq!(rebuilt, state);
    }

    #[test]
    fn add_and_remove_tasks_track_clusters_and_edges() {
        let mut state = DynamicWorkload::from_clustered(&base());
        let impact = state
            .apply(&TraceEvent::AddTask {
                task: 4,
                size: 6,
                cluster: 1,
            })
            .unwrap();
        assert_eq!(impact.touched_clusters, vec![1]);
        assert_eq!(impact.weight_delta, 6);
        state
            .apply(&TraceEvent::AddEdge {
                from: 3,
                to: 4,
                weight: 9,
            })
            .unwrap();
        assert_eq!(state.num_tasks(), 5);
        assert_eq!(state.num_edges(), 5);

        // Removing task 3 takes its three incident edges along and
        // touches both endpoint clusters.
        let impact = state.apply(&TraceEvent::RemoveTask { task: 3 }).unwrap();
        assert_eq!(impact.touched_clusters, vec![0, 1]);
        assert_eq!(impact.weight_delta, 4 + 1 + 7 + 9);
        assert_eq!(state.predecessors(4), &[] as &[TaskId]);
        assert_eq!(state.successors(1), &[] as &[TaskId]);
        assert_eq!(state.num_edges(), 2);
        let graph = state.materialize().unwrap();
        assert_eq!(graph.num_tasks(), 4);
        assert_eq!(graph.num_clusters(), 2);
    }

    #[test]
    fn weight_changes_report_absolute_deltas() {
        let mut state = DynamicWorkload::from_clustered(&base());
        let impact = state
            .apply(&TraceEvent::SetTaskSize { task: 1, size: 8 })
            .unwrap();
        assert_eq!(impact.weight_delta, 5);
        let impact = state
            .apply(&TraceEvent::SetEdgeWeight {
                from: 0,
                to: 1,
                weight: 2,
            })
            .unwrap();
        assert_eq!(impact.weight_delta, 3);
        assert_eq!(impact.touched_clusters, vec![0]);
        let impact = state
            .apply(&TraceEvent::ScaleEdgeWeights { percent: 200 })
            .unwrap();
        assert!(impact.global);
        assert_eq!(impact.touched_clusters, vec![0, 1]);
        // Edges were 2, 2, 1, 7 -> 4, 4, 2, 14: delta 12.
        assert_eq!(impact.weight_delta, 12);
        // Scaling far down clamps at 1 instead of dropping to 0.
        state
            .apply(&TraceEvent::ScaleEdgeWeights { percent: 1 })
            .unwrap();
        let graph = state.materialize().unwrap();
        assert!(graph.problem().graph().edges().all(|(_, _, w)| w == 1));
    }

    #[test]
    fn invalid_events_leave_the_state_unchanged() {
        let mut state = DynamicWorkload::from_clustered(&base());
        let before = state.clone();
        for event in [
            TraceEvent::AddTask {
                task: 0,
                size: 1,
                cluster: 0,
            }, // duplicate id
            TraceEvent::AddTask {
                task: 9,
                size: 0,
                cluster: 0,
            }, // zero size
            TraceEvent::AddTask {
                task: 9,
                size: 1,
                cluster: 5,
            }, // bad cluster
            TraceEvent::RemoveTask { task: 42 },
            TraceEvent::AddEdge {
                from: 3,
                to: 0,
                weight: 1,
            }, // cycle
            TraceEvent::AddEdge {
                from: 0,
                to: 1,
                weight: 1,
            }, // duplicate
            TraceEvent::AddEdge {
                from: 2,
                to: 2,
                weight: 1,
            }, // self-loop
            TraceEvent::RemoveEdge { from: 1, to: 0 },
            TraceEvent::SetTaskSize { task: 7, size: 1 },
            TraceEvent::SetEdgeWeight {
                from: 1,
                to: 0,
                weight: 2,
            },
            TraceEvent::ScaleEdgeWeights { percent: 0 },
        ] {
            assert!(state.apply(&event).is_err(), "{event:?} should fail");
            assert_eq!(state, before, "{event:?} mutated the state");
        }

        // Emptying a cluster is rejected: shrink cluster 0 to one task
        // first.
        state.apply(&TraceEvent::RemoveTask { task: 1 }).unwrap();
        assert!(state.apply(&TraceEvent::RemoveTask { task: 0 }).is_err());
    }

    #[test]
    fn departed_task_ids_are_never_reissued() {
        let mut state = DynamicWorkload::from_clustered(&base());
        assert_eq!(state.next_task_id(), 4);
        state
            .apply(&TraceEvent::AddTask {
                task: 4,
                size: 2,
                cluster: 0,
            })
            .unwrap();
        // Remove the current maximum: the high-water mark must not drop.
        state.apply(&TraceEvent::RemoveTask { task: 4 }).unwrap();
        assert_eq!(state.next_task_id(), 5);
        // A sparse id raises the mark past itself.
        state
            .apply(&TraceEvent::AddTask {
                task: 17,
                size: 2,
                cluster: 0,
            })
            .unwrap();
        assert_eq!(state.next_task_id(), 18);
        // Equality ignores the mark (a snapshot records no history)...
        let rebuilt = DynamicWorkload::from_snapshot(&state.snapshot()).unwrap();
        assert_eq!(rebuilt, state);
        // ...but a rebuilt state still never reissues a live-max id.
        assert_eq!(rebuilt.next_task_id(), 18);
    }

    #[test]
    fn largest_task_id_saturates_the_high_water_mark() {
        // Ids are client input: `usize::MAX` must neither panic (debug)
        // nor wrap the mark to 0 (release) — in a header or in an event.
        let mut snapshot = DynamicWorkload::from_clustered(&base()).snapshot();
        snapshot.tasks.push(TaskInit {
            id: usize::MAX,
            size: 1,
            cluster: 0,
        });
        snapshot.edges.push(EdgeInit {
            from: 3,
            to: usize::MAX,
            weight: 2,
        });
        let opened = DynamicWorkload::from_snapshot(&snapshot).unwrap();
        assert_eq!(opened.next_task_id(), usize::MAX);
        assert_eq!(opened.materialize().unwrap().num_tasks(), 5);

        let mut state = DynamicWorkload::from_clustered(&base());
        state
            .apply(&TraceEvent::AddTask {
                task: usize::MAX,
                size: 1,
                cluster: 0,
            })
            .unwrap();
        assert_eq!(state.next_task_id(), usize::MAX);
        state
            .apply(&TraceEvent::AddEdge {
                from: 3,
                to: usize::MAX,
                weight: 2,
            })
            .unwrap();
        assert_eq!(state, opened);
    }

    #[test]
    fn scaling_huge_weights_saturates_instead_of_wrapping() {
        let mut state = DynamicWorkload::from_clustered(&base());
        state
            .apply(&TraceEvent::SetEdgeWeight {
                from: 0,
                to: 1,
                weight: u64::MAX - 1,
            })
            .unwrap();
        state
            .apply(&TraceEvent::ScaleEdgeWeights { percent: 300 })
            .unwrap();
        let snapshot = state.snapshot();
        let scaled = snapshot
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1)
            .unwrap()
            .weight;
        assert_eq!(scaled, u64::MAX, "saturated, not wrapped");
    }

    /// The total weight recounted from the state, the way it was
    /// computed before the workload kept it.
    fn recount(state: &DynamicWorkload) -> u128 {
        let tasks: u128 = state
            .task_ids()
            .map(|t| u128::from(state.task_size(t).unwrap()))
            .sum();
        let edges: u128 = state.edge_list().map(|(_, _, w)| u128::from(w)).sum();
        tasks + edges
    }

    #[test]
    fn max_weight_edges_neither_overflow_the_total_nor_the_delta() {
        // An intra-cluster edge of weight u64::MAX used to overflow the
        // recount: a panic in debug, a wrapped drift denominator in
        // release.
        let mut snapshot = DynamicWorkload::from_clustered(&base()).snapshot();
        snapshot.edges[0].weight = u64::MAX; // 0 -> 1, inside cluster 0
        let mut state = DynamicWorkload::from_snapshot(&snapshot).unwrap();
        let expected = u128::from(u64::MAX) + (2 + 3 + 1 + 4) + (2 + 1 + 7);
        assert_eq!(state.total_weight(), expected);
        assert_eq!(state.total_weight(), recount(&state));
        // Both of task 1's edges leave with it: u64::MAX + 1 + 3.
        let impact = state.apply(&TraceEvent::RemoveTask { task: 1 }).unwrap();
        assert_eq!(impact.weight_delta, u64::MAX, "saturated, not wrapped");
        assert_eq!(state.total_weight(), recount(&state));
        for (from, to) in [(0, 2), (2, 3)] {
            state
                .apply(&TraceEvent::SetEdgeWeight {
                    from,
                    to,
                    weight: u64::MAX,
                })
                .unwrap();
        }
        assert_eq!(state.total_weight(), recount(&state));
        let impact = state
            .apply(&TraceEvent::ScaleEdgeWeights { percent: 1 })
            .unwrap();
        assert_eq!(impact.weight_delta, u64::MAX, "saturated, not wrapped");
        assert_eq!(state.total_weight(), recount(&state));
    }

    #[test]
    fn running_total_weight_matches_a_recount_in_every_regime() {
        use crate::workloads::{churn_trace, ChurnRegime};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let problem = crate::workloads::stencil_1d(6, 5, 3, 2).unwrap();
        let clustering = Clustering::new((0..30).map(|t| t % 5).collect()).unwrap();
        let graph = ClusteredProblemGraph::new(problem, clustering).unwrap();
        for regime in [
            ChurnRegime::Arrivals,
            ChurnRegime::Drift,
            ChurnRegime::Mixed,
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let trace = churn_trace(&graph, 120, regime, &mut rng);
            let mut state = DynamicWorkload::from_clustered(&graph);
            assert_eq!(state.total_weight(), recount(&state));
            for event in &trace {
                state.apply(event).unwrap();
                assert_eq!(
                    state.total_weight(),
                    recount(&state),
                    "{regime:?} {event:?}"
                );
            }
            let rebuilt = DynamicWorkload::from_snapshot(&state.snapshot()).unwrap();
            assert_eq!(rebuilt.total_weight(), state.total_weight());
        }
    }

    #[test]
    fn events_serde_roundtrip_as_tagged_jsonl() {
        let events = vec![
            TraceEvent::AddTask {
                task: 12,
                size: 3,
                cluster: 2,
            },
            TraceEvent::RemoveTask { task: 4 },
            TraceEvent::AddEdge {
                from: 1,
                to: 12,
                weight: 6,
            },
            TraceEvent::RemoveEdge { from: 1, to: 2 },
            TraceEvent::SetTaskSize { task: 3, size: 9 },
            TraceEvent::SetEdgeWeight {
                from: 0,
                to: 5,
                weight: 2,
            },
            TraceEvent::ScaleEdgeWeights { percent: 110 },
        ];
        for event in events {
            let line = serde_json::to_string(&event).unwrap();
            assert!(line.contains("\"kind\""), "{line}");
            assert!(!line.contains('\n'));
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
            assert!(line.contains(event.kind()), "{line}");
        }
    }
}
