//! The dynamic-workload delta model: [`TraceEvent`]s mutating a
//! [`DynamicWorkload`], the mutable counterpart of a
//! [`ClusteredProblemGraph`].
//!
//! The paper maps a static problem graph once; online workloads change
//! — tasks arrive and finish, communication weights drift. A trace is a
//! sequence of small deltas against a running clustered problem graph.
//! [`DynamicWorkload`] keeps that state mutable (tasks addressed by
//! *stable* external ids, so removals never renumber survivors),
//! validates every delta (sizes ≥ 1, clusters never emptied — the
//! paper's `na = ns` invariant — and the dependency graph stays
//! acyclic), and [`DynamicWorkload::materialize`]s back into the
//! immutable [`ClusteredProblemGraph`] the mapping algorithms consume.
//! Each applied event reports an [`EventImpact`]: the touched clusters
//! and moved weight that the incremental remapper in `mimd-online` uses
//! to scope refinement and meter staleness, and the touched positions
//! it repairs its schedules from.
//!
//! The graph is stored once, as [`PositionRows`] and [`ClusterRows`] —
//! the layout the delta evaluator sweeps, so an online session's live
//! instance *is* its workload — plus one ordered `id → position` table
//! (the rows map positions back to ids). [`DynamicWorkload::apply`]
//! edits a copy of the rows its problem graph was frozen into in place.
//! Every operation costs what it touches — with `V` tasks, `E` edges
//! and `log` the ordered-map lookup:
//!
//! | operation | cost |
//! |---|---|
//! | [`DynamicWorkload::from_snapshot`] | `O((V + E) log V)`: checks in snapshot order, a sort for repeated edges, one topological layout |
//! | `AddEdge` along the position order | `O(log + deg)`: ascending position is topological, so it cannot close a cycle |
//! | `AddEdge` against the position order | the positions between its endpoints (the cycle check), then a renumber, `O(V + E)` |
//! | `RemoveTask` | `deg(task)` row entries |
//! | other local events | `O(log + deg)` |
//! | compaction | `O(V + E)`, once dead entries outnumber live ones and pass [`MIN_DEAD`](crate::rows::MIN_DEAD) |
//! | [`DynamicWorkload::total_weight`] | `O(1)`: a running `u128` total every change keeps |
//! | [`DynamicWorkload::materialize`] | `O(V + E log V)`, the graph built in bulk from the rows |
//!
//! A renumber — for an edge against the order, or a compaction — lays
//! the live positions out again in a topological order and packs every
//! row, dropping the tombstones departures leave and the slots of rows
//! that moved to grow. No event materializes the graph: an online
//! session does so only to run a full V-cycle.

use std::collections::BTreeMap;
use std::mem::size_of;

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};

use crate::clustering::Clustering;
use crate::problem::{check_total_weight, ProblemGraph};
use crate::rows::{fit_u32, ClusterRows, PositionRows};
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventImpact {
    /// Clusters whose content changed (sorted, deduplicated). Empty for
    /// a no-op event.
    pub touched_clusters: Vec<ClusterId>,
    /// Total task/edge weight moved by the event (sum of absolute
    /// changes) — the numerator of the remapper's drift fraction.
    pub weight_delta: u64,
    /// `true` for events without locality (global weight scaling):
    /// every cluster is affected.
    pub global: bool,
    /// Positions the event changed directly — an arrival, a new size, a
    /// predecessor row that gained, lost or re-weighted an edge, a
    /// departure and its successors. A schedule swept from them
    /// repairs everything downstream. Empty for a global event and
    /// when `renumbered`.
    pub touched_positions: Vec<u32>,
    /// `true` when the event renumbered the positions — an edge against
    /// the position order, or a compaction — so a schedule kept per
    /// position must be swept again from scratch.
    pub renumbered: bool,
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
/// The graph is its [`PositionRows`] and [`ClusterRows`], addressed by
/// stable external ids
/// through one ordered `id → position` table (ids are sparse user
/// input: nothing here is sized by the largest id). Equality compares
/// the canonical state — tasks and edges by id — so a state reached
/// delta-by-delta equals one rebuilt from its snapshot whatever the
/// positions: the reproducibility property the trace format relies on.
#[derive(Clone, Debug)]
pub struct DynamicWorkload {
    rows: PositionRows,
    clusters: ClusterRows,
    /// Position of every live task id.
    index: BTreeMap<TaskId, u32>,
    /// High-water mark for [`DynamicWorkload::next_task_id`]: one past
    /// the largest id ever seen (saturating at `usize::MAX`), so removed
    /// ids are never recycled even after the current maximum departs.
    /// Generator bookkeeping only — excluded from equality (a snapshot
    /// does not record history).
    next_id: TaskId,
    /// Total task weight plus total edge weight, kept and checked
    /// ([`check_total_weight`]) by every change. A function of the
    /// state, so excluded from equality too.
    total_weight: u128,
}

impl PartialEq for DynamicWorkload {
    fn eq(&self, other: &Self) -> bool {
        self.num_clusters() == other.num_clusters()
            && self.tasks().eq(other.tasks())
            && self.edge_list().eq(other.edge_list())
    }
}

impl Eq for DynamicWorkload {}

/// The error of a refused event or snapshot.
fn invalid(message: String) -> GraphError {
    GraphError::InvalidParameter(message)
}

/// The positions of an edge's endpoints, after the checks every new edge
/// passes first: not a self-loop, non-zero weight, live endpoints.
fn endpoints(
    index: &BTreeMap<TaskId, u32>,
    from: TaskId,
    to: TaskId,
    weight: Weight,
) -> Result<(u32, u32), GraphError> {
    if from == to {
        return Err(invalid(format!("self-loop on task {from}")));
    }
    if weight == 0 {
        return Err(invalid(format!("edge {from} -> {to} needs weight >= 1")));
    }
    let at =
        |t| (index.get(&t).copied()).ok_or_else(|| invalid(format!("task {t} does not exist")));
    Ok((at(from)?, at(to)?))
}

impl DynamicWorkload {
    /// Start from an existing clustered problem graph; external ids are
    /// the graph's task indices `0..np`.
    pub fn from_clustered(graph: &ClusteredProblemGraph) -> DynamicWorkload {
        let rows = graph.problem().graph().clone();
        DynamicWorkload::laid_out(rows, graph.clustering(), (0..graph.num_tasks()).collect())
    }

    /// The workload on `rows`, the rows a problem graph was frozen into,
    /// under `clustering`; task `t` of that graph has external id
    /// `ids[t]` (ids ascend with the tasks).
    fn laid_out(
        mut rows: PositionRows,
        clustering: &Clustering,
        ids: Vec<TaskId>,
    ) -> DynamicWorkload {
        let mut clusters = ClusterRows::default();
        clusters.fill(&rows, clustering);
        rows.relabel(&ids);
        let weight = |p| {
            let edges = rows.preds(p).1.iter().map(|&w| u128::from(w));
            u128::from(rows.size(p)) + edges.sum::<u128>()
        };
        DynamicWorkload {
            total_weight: (0..rows.len()).map(weight).sum(),
            index: (0..rows.len()).map(|p| (rows.task(p), p as u32)).collect(),
            rows,
            clusters,
            next_id: ids.last().map_or(0, |id| id.saturating_add(1)),
        }
    }

    /// Rebuild from a snapshot (the trace-file header). Validates the
    /// same invariants `apply` maintains, and reports what inserting
    /// the tasks and then the edges one by one in snapshot order would
    /// report: the first task at fault, else the first cluster no task
    /// owns, else the first edge that is malformed *or* closes a cycle.
    /// A cycle or a total past [`check_total_weight`] before a malformed
    /// edge wins. Nothing is sized by `num_clusters` before the tasks
    /// are checked against it.
    pub fn from_snapshot(snapshot: &WorkloadSnapshot) -> Result<DynamicWorkload, GraphError> {
        let na = snapshot.num_clusters;
        if na == 0 {
            return Err(invalid("workload needs >= 1 cluster".into()));
        }
        let mut index = BTreeMap::new();
        for task in &snapshot.tasks {
            if task.size == 0 {
                return Err(invalid(format!("task {} has zero execution time", task.id)));
            }
            if task.cluster >= na {
                return Err(GraphError::NodeOutOfRange {
                    node: task.cluster,
                    len: na,
                });
            }
            if index.insert(task.id, 0).is_some() {
                return Err(invalid(format!(
                    "task {} appears twice in the snapshot",
                    task.id
                )));
            }
        }
        fit_u32("np", index.len())?;
        let mut owned: Vec<ClusterId> = snapshot.tasks.iter().map(|t| t.cluster).collect();
        owned.sort_unstable();
        owned.dedup();
        if owned.len() < na {
            let empty = (0..owned.len())
                .find(|&c| owned[c] != c)
                .unwrap_or(owned.len());
            return Err(invalid(format!(
                "cluster {empty} is empty; every cluster must own >= 1 task"
            )));
        }
        // Dense task indices ascend with the ids.
        for (t, slot) in index.values_mut().enumerate() {
            *slot = t as u32;
        }
        let (mut sizes, mut clusters) = (vec![0; index.len()], vec![0; index.len()]);
        for task in &snapshot.tasks {
            let t = index[&task.id] as usize;
            (sizes[t], clusters[t]) = (task.size, task.cluster);
        }
        let mut edges = Vec::with_capacity(snapshot.edges.len());
        let mut malformed = None;
        for e in &snapshot.edges {
            match endpoints(&index, e.from, e.to, e.weight) {
                Ok((u, v)) => edges.push((u as usize, v as usize, e.weight)),
                Err(error) => {
                    malformed = Some(error);
                    break;
                }
            }
        }
        // An edge is refused at its second occurrence: sorted, the first
        // repeat in snapshot order is the smallest index right after an
        // equal pair.
        let mut keys: Vec<_> = (edges.iter().enumerate())
            .map(|(i, &(u, v, _))| (u, v, i))
            .collect();
        keys.sort_unstable();
        let repeats = keys
            .windows(2)
            .filter(|k| (k[0].0, k[0].1) == (k[1].0, k[1].1));
        if let Some(i) = repeats.map(|k| k[1].2).min() {
            let EdgeInit { from, to, .. } = snapshot.edges[i];
            malformed = Some(invalid(format!("edge {from} -> {to} already exists")));
            edges.truncate(i);
        }
        // Acyclicity and the total are proved once for the prefix the
        // shape checks accepted; a cycle among the edges before a
        // malformed one was closed first, so it wins.
        let problem = ProblemGraph::new(sizes, &edges)?;
        let (rows, ids) = (problem.into_rows(), index.into_keys().collect());
        let clustering = Clustering::new(clusters)?;
        match malformed {
            Some(e) => Err(e),
            None => Ok(DynamicWorkload::laid_out(rows, &clustering, ids)),
        }
    }

    /// The serializable image of the current state.
    pub fn snapshot(&self) -> WorkloadSnapshot {
        let edges = self
            .edge_list()
            .map(|(from, to, weight)| EdgeInit { from, to, weight });
        WorkloadSnapshot {
            num_clusters: self.num_clusters(),
            tasks: self.tasks().collect(),
            edges: edges.collect(),
        }
    }

    /// Live tasks, ascending by id.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = TaskInit> + '_ {
        self.index.iter().map(|(&id, &p)| TaskInit {
            id,
            size: self.rows.size(p as usize),
            cluster: self.cluster(p),
        })
    }

    /// The position-space rows — the graph itself, in the layout the
    /// delta evaluator sweeps — and their clustering.
    pub fn rows(&self) -> (&PositionRows, &ClusterRows) {
        (&self.rows, &self.clusters)
    }

    /// Bytes held by the rows and the id table (capacities; the table
    /// counted at one entry per live task).
    pub fn resident_bytes(&self) -> usize {
        self.rows.resident_bytes()
            + self.clusters.resident_bytes()
            + self.index.len() * size_of::<(TaskId, u32)>()
    }

    /// Number of live tasks `np`.
    pub fn num_tasks(&self) -> usize {
        self.index.len()
    }

    /// Number of clusters `na` (constant for the workload's lifetime).
    pub fn num_clusters(&self) -> usize {
        self.clusters.num_clusters()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.rows.edge_count()
    }

    /// Cluster owning live task `t`.
    pub fn cluster_of(&self, t: TaskId) -> Option<ClusterId> {
        self.index.get(&t).map(|&p| self.cluster(p))
    }

    /// Execution time of live task `t`.
    pub fn task_size(&self, t: TaskId) -> Option<Time> {
        self.index.get(&t).map(|&p| self.rows.size(p as usize))
    }

    /// Weight of the live edge `from -> to`: a search of `from`'s
    /// successor row.
    pub fn edge_weight(&self, from: TaskId, to: TaskId) -> Option<Weight> {
        self.edge(from, to).ok().map(|(_, _, w)| w)
    }

    /// A fresh external task id: one past the largest id ever seen
    /// (monotone high-water mark, so departed ids are never reissued).
    pub fn next_task_id(&self) -> TaskId {
        self.next_id
    }

    /// Live task ids, ascending.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.index.keys().copied()
    }

    /// Live edges `(from, to, weight)`, ascending by `(from, to)`: each
    /// task's successor row in id order, gathered at their exact count.
    pub fn edge_list(&self) -> impl ExactSizeIterator<Item = (TaskId, TaskId, Weight)> {
        let mut edges = Vec::with_capacity(self.num_edges());
        for (&from, &p) in &self.index {
            let (succs, weights) = self.rows.succs(p as usize);
            let row = succs.iter().zip(weights);
            edges.extend(row.map(|(&v, &w)| (from, self.rows.task(v as usize), w)));
        }
        edges.into_iter()
    }

    /// The `k`-th edge of [`DynamicWorkload::edge_list`], found by
    /// walking the successor row lengths: nothing is copied.
    pub fn nth_edge(&self, mut k: usize) -> Option<(TaskId, TaskId, Weight)> {
        for (&from, &p) in &self.index {
            let (succs, weights) = self.rows.succs(p as usize);
            if let (Some(&v), Some(&w)) = (succs.get(k), weights.get(k)) {
                return Some((from, self.rows.task(v as usize), w));
            }
            k -= succs.len();
        }
        None
    }

    /// Number of tasks currently in cluster `c`.
    pub fn cluster_size(&self, c: ClusterId) -> usize {
        self.clusters.positions(c).len()
    }

    /// Total task weight plus total edge weight — the denominator of
    /// the remapper's drift fraction. Kept up to date by every change,
    /// so reading it costs nothing.
    pub fn total_weight(&self) -> u128 {
        self.total_weight
    }

    /// Apply one event to the rows in place, returning its impact. On
    /// error — [`check_total_weight`] included — the state is unchanged.
    pub fn apply(&mut self, event: &TraceEvent) -> Result<EventImpact, GraphError> {
        let mut impact = EventImpact::default();
        match *event {
            TraceEvent::AddTask {
                task,
                size,
                cluster,
            } => {
                if self.index.contains_key(&task) {
                    return Err(invalid(format!("task {task} already exists")));
                }
                if size == 0 {
                    return Err(invalid(format!("task {task} has zero execution time")));
                }
                if cluster >= self.num_clusters() {
                    return Err(GraphError::NodeOutOfRange {
                        node: cluster,
                        len: self.num_clusters(),
                    });
                }
                let total = self.total_weight + u128::from(size);
                check_total_weight(total)?;
                let p = self.rows.push_task(task, size)?;
                self.clusters.push(p, cluster);
                self.index.insert(task, p);
                self.total_weight = total;
                self.next_id = self.next_id.max(task.saturating_add(1));
                impact.touched_clusters = vec![cluster];
                (impact.weight_delta, impact.touched_positions) = (size, vec![p]);
            }
            TraceEvent::RemoveTask { task } => {
                let p = self.position(task)?;
                let cluster = self.cluster(p);
                if self.cluster_size(cluster) <= 1 {
                    return Err(invalid(format!(
                        "removing task {task} would empty cluster {cluster} (na = ns must hold)"
                    )));
                }
                let mut removed = u128::from(self.rows.size(p as usize));
                impact.touched_clusters.push(cluster);
                let ((preds, pw), (succs, sw)) =
                    (self.rows.preds(p as usize), self.rows.succs(p as usize));
                for (&q, &w) in preds.iter().zip(pw).chain(succs.iter().zip(sw)) {
                    removed += u128::from(w);
                    impact.touched_clusters.push(self.cluster(q));
                }
                impact.touched_clusters.sort_unstable();
                impact.touched_clusters.dedup();
                impact.touched_positions = succs.to_vec();
                impact.touched_positions.push(p);
                // At most the total weight, which fits `u64`.
                impact.weight_delta = removed as u64;
                self.rows.remove_task(p);
                self.clusters.remove(p);
                self.index.remove(&task);
                self.total_weight -= removed;
            }
            TraceEvent::AddEdge { from, to, weight } => {
                let (u, v) = endpoints(&self.index, from, to, weight)?;
                let exists = || invalid(format!("edge {from} -> {to} already exists"));
                let at = self
                    .rows
                    .succ_slot(u as usize, to)
                    .err()
                    .ok_or_else(exists)?;
                // Ascending position is topological, so only an edge
                // against it can close a cycle: search between its ends.
                let cone = match u > v {
                    true => Some(self.rows.cone(v, u).ok_or(GraphError::CycleDetected)?),
                    false => None,
                };
                let total = self.total_weight + u128::from(weight);
                check_total_weight(total)?;
                self.rows.insert_edge(u, v, at, weight)?;
                self.total_weight = total;
                impact.touched_clusters = self.clusters_of_pair(u, v);
                (impact.weight_delta, impact.touched_positions) = (weight, vec![v]);
                if let Some(cone) = cone {
                    // What `to` reaches moves after the rest of the
                    // window; the order stays topological elsewhere.
                    let (lo, hi) = (v as usize, u as usize);
                    let order: Vec<usize> = (0..lo)
                        .chain((lo..=hi).filter(|&p| !cone[p - lo]))
                        .chain((lo..=hi).filter(|&p| cone[p - lo]))
                        .chain(hi + 1..self.rows.len())
                        .collect();
                    self.relayout(&order, &mut impact);
                }
            }
            TraceEvent::RemoveEdge { from, to } => {
                let (u, v, _) = self.edge(from, to)?;
                let w = self.rows.delete_edge(u, v);
                self.total_weight -= u128::from(w);
                impact.touched_clusters = self.clusters_of_pair(u, v);
                (impact.weight_delta, impact.touched_positions) = (w, vec![v]);
            }
            TraceEvent::SetTaskSize { task, size } => {
                if size == 0 {
                    return Err(invalid(format!(
                        "task {task} cannot shrink to zero execution time"
                    )));
                }
                let p = self.position(task)?;
                let old = self.rows.size(p as usize);
                let total = self.total_weight - u128::from(old) + u128::from(size);
                check_total_weight(total)?;
                self.rows.set_size(p, size);
                self.total_weight = total;
                impact.touched_clusters = vec![self.cluster(p)];
                (impact.weight_delta, impact.touched_positions) = (old.abs_diff(size), vec![p]);
            }
            TraceEvent::SetEdgeWeight { from, to, weight } => {
                if weight == 0 {
                    return Err(invalid(format!(
                        "edge {from} -> {to} cannot have zero weight"
                    )));
                }
                let (u, v, old) = self.edge(from, to)?;
                let total = self.total_weight - u128::from(old) + u128::from(weight);
                check_total_weight(total)?;
                self.rows.set_weight(u, v, weight);
                self.total_weight = total;
                impact.touched_clusters = self.clusters_of_pair(u, v);
                (impact.weight_delta, impact.touched_positions) = (old.abs_diff(weight), vec![v]);
            }
            TraceEvent::ScaleEdgeWeights { percent } => {
                if percent == 0 {
                    return Err(invalid("scale percent must be >= 1".into()));
                }
                // Widen before multiplying: traces are user input, and a
                // scaled total must be checked, not wrapped.
                let scale = |w: Weight| (u128::from(w) * u128::from(percent) / 100).max(1);
                let (mut before, mut after, mut delta) = (0u128, 0u128, 0u128);
                for (_, _, w) in self.edge_list() {
                    let (w, scaled) = (u128::from(w), scale(w));
                    (before, after) = (before + w, after + scaled);
                    delta += w.abs_diff(scaled);
                }
                let total = self.total_weight - before + after;
                check_total_weight(total)?;
                // Each scaled weight and the delta are at most the
                // checked totals, which fit `u64`.
                self.rows.scale_weights(|w| scale(w) as Weight);
                self.total_weight = total;
                impact.weight_delta = delta as u64;
                impact.touched_clusters = (0..self.num_clusters()).collect();
                impact.global = true;
            }
        }
        if !impact.renumbered && self.rows.is_sparse() {
            let order: Vec<usize> = (0..self.rows.len()).collect();
            self.relayout(&order, &mut impact);
        }
        Ok(impact)
    }

    /// Renumber the live positions of `order` (every position once, in a
    /// topological order; tombstones are dropped) and compact the rows.
    fn relayout(&mut self, order: &[usize], impact: &mut EventImpact) {
        let live = order.iter().filter(|&&p| self.rows.size(p) != 0);
        let live: Vec<u32> = live.map(|&p| p as u32).collect();
        self.rows.relayout(&live);
        self.clusters.relayout(&live);
        for p in self.index.values_mut() {
            *p = self.rows.relaid(*p);
        }
        impact.renumbered = true;
        impact.touched_positions.clear();
    }

    /// Build the immutable [`ClusteredProblemGraph`] for the current
    /// state: tasks densely renumbered in ascending external-id order.
    pub fn materialize(&self) -> Result<ClusteredProblemGraph, GraphError> {
        let rows = &self.rows;
        let mut dense = vec![0; rows.len()];
        for (t, &p) in self.index.values().enumerate() {
            dense[p as usize] = t;
        }
        let mut edges = Vec::with_capacity(rows.edge_count());
        for (t, &p) in self.index.values().enumerate() {
            let (succs, weights) = rows.succs(p as usize);
            edges.extend((succs.iter().zip(weights)).map(|(&v, &w)| (t, dense[v as usize], w)));
        }
        let sizes = self.index.values().map(|&p| rows.size(p as usize));
        let clusters = self.index.values().map(|&p| self.cluster(p));
        let problem = ProblemGraph::new(sizes.collect(), &edges)?;
        ClusteredProblemGraph::new(problem, Clustering::new(clusters.collect())?)
    }

    /// The cluster of position `p`.
    fn cluster(&self, p: u32) -> ClusterId {
        self.clusters.cluster(p as usize)
    }

    /// The position of live task `t`.
    fn position(&self, t: TaskId) -> Result<u32, GraphError> {
        let missing = || invalid(format!("task {t} does not exist"));
        self.index.get(&t).copied().ok_or_else(missing)
    }

    /// The endpoint positions and the weight of the live edge
    /// `from -> to`.
    fn edge(&self, from: TaskId, to: TaskId) -> Result<(u32, u32, Weight), GraphError> {
        let missing = || invalid(format!("edge {from} -> {to} does not exist"));
        let (&u, &v) = (self.index.get(&from).zip(self.index.get(&to))).ok_or_else(missing)?;
        let at = (self.rows.succ_slot(u as usize, to)).map_err(|_| missing())?;
        Ok((u, v, self.rows.succs(u as usize).1[at]))
    }

    /// The clusters of an edge's two endpoint positions (sorted,
    /// deduplicated).
    fn clusters_of_pair(&self, u: u32, v: u32) -> Vec<ClusterId> {
        let mut touched = vec![self.cluster(u), self.cluster(v)];
        touched.sort_unstable();
        touched.dedup();
        touched
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
        assert!(state.edge_list().all(|(u, v, _)| u != 3 && v != 3));
        assert_eq!(state.edge_weight(3, 4), None);
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
        assert!(graph.problem().edges().all(|(_, _, w)| w == 1));
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
    fn a_huge_cluster_count_is_refused_before_anything_is_sized_by_it() {
        // `num_clusters` is client input: the first cluster no task owns
        // is named without allocating one counter per cluster.
        for (num_clusters, owned, empty) in [
            (1_000_000_000_000_000_000, vec![0], 1),
            (3, vec![0, 2, 2], 1),
            (4, vec![1, 0, 2], 3),
        ] {
            let snapshot = WorkloadSnapshot {
                num_clusters,
                tasks: (owned.iter().enumerate())
                    .map(|(id, &cluster)| TaskInit {
                        id,
                        size: 2,
                        cluster,
                    })
                    .collect(),
                edges: Vec::new(),
            };
            let expected = format!("cluster {empty} is empty; every cluster must own >= 1 task");
            assert_eq!(
                DynamicWorkload::from_snapshot(&snapshot),
                Err(GraphError::InvalidParameter(expected))
            );
        }
    }

    #[test]
    fn edges_against_the_order_and_sparse_rows_renumber() -> Result<(), GraphError> {
        let mut state = DynamicWorkload::from_clustered(&base());
        // Task 3 is the sink: an edge out of it into a fresh arrival
        // runs along the order; one from the arrival into task 1 runs
        // against it.
        for (event, renumbered) in [
            (
                TraceEvent::AddTask {
                    task: 4,
                    size: 1,
                    cluster: 0,
                },
                false,
            ),
            (
                TraceEvent::AddEdge {
                    from: 4,
                    to: 1,
                    weight: 2,
                },
                true,
            ),
            (TraceEvent::SetTaskSize { task: 1, size: 5 }, false),
        ] {
            let impact = state.apply(&event)?;
            assert_eq!(impact.renumbered, renumbered, "{event:?}");
            assert_eq!(impact.touched_positions.is_empty(), renumbered);
        }
        let rebuilt = DynamicWorkload::from_snapshot(&state.snapshot())?;
        assert_eq!(rebuilt, state);
        assert_eq!(rebuilt.materialize()?, state.materialize()?);
        // Departures leave tombstones and dead row slots until some kind
        // outnumbers the living and passes `MIN_DEAD`.
        let mut relaid = 0;
        for _ in 0..=crate::rows::MIN_DEAD {
            let task = state.next_task_id();
            let size = 1;
            for event in [
                TraceEvent::AddTask {
                    task,
                    size,
                    cluster: 1,
                },
                TraceEvent::RemoveTask { task },
            ] {
                relaid += usize::from(state.apply(&event)?.renumbered);
            }
        }
        assert!(relaid >= 1);
        assert!(state.rows().0.len() < state.num_tasks() + crate::rows::MIN_DEAD);
        assert_eq!(DynamicWorkload::from_snapshot(&state.snapshot())?, state);
        Ok(())
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
    fn scaling_huge_weights_saturates_instead_of_wrapping() -> Result<(), GraphError> {
        use crate::problem::MAX_TOTAL_WEIGHT;
        // Scaling widens before it multiplies. Since the total-weight
        // cap, a scaled weight past it is refused rather than clamped;
        // either way it never wraps.
        let mut state = DynamicWorkload::from_clustered(&base());
        let rest = (2 + 3 + 1 + 4) + (2 + 1 + 7);
        let huge = MAX_TOTAL_WEIGHT - rest;
        state.apply(&TraceEvent::SetEdgeWeight {
            from: 0,
            to: 1,
            weight: huge,
        })?;
        let before = state.clone();
        let refused = state.apply(&TraceEvent::ScaleEdgeWeights { percent: 300 });
        assert!(
            matches!(&refused, Err(e) if e.to_string().contains("exceeds")),
            "{refused:?}"
        );
        assert_eq!(state, before, "a refused scale left the state as it was");
        state.apply(&TraceEvent::ScaleEdgeWeights { percent: 50 })?;
        let scaled: Vec<_> = state
            .edge_list()
            .filter(|&(from, to, _)| from == 0 && to == 1)
            .map(|(_, _, w)| w)
            .collect();
        assert_eq!(scaled, [huge / 2], "scaled exactly, not wrapped");
        assert_eq!(state.total_weight(), recount(&state));
        Ok(())
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
        use crate::problem::MAX_TOTAL_WEIGHT;
        // A u64::MAX edge used to wrap every schedule over it; the
        // largest weights the schedule range admits are kept exactly,
        // and anything past it is refused, in a snapshot and by every
        // event that raises the total.
        let mut snapshot = DynamicWorkload::from_clustered(&base()).snapshot();
        snapshot.edges[0].weight = u64::MAX; // 0 -> 1, inside cluster 0
        assert!(DynamicWorkload::from_snapshot(&snapshot).is_err());
        let rest = (2 + 3 + 1 + 4) + (2 + 1 + 7);
        snapshot.edges[0].weight = MAX_TOTAL_WEIGHT - rest;
        let mut state = DynamicWorkload::from_snapshot(&snapshot).unwrap();
        assert_eq!(state.total_weight(), u128::from(MAX_TOTAL_WEIGHT));
        assert_eq!(state.total_weight(), recount(&state));
        let before = state.clone();
        for event in [
            TraceEvent::AddTask {
                task: 9,
                size: 1,
                cluster: 0,
            },
            TraceEvent::AddEdge {
                from: 1,
                to: 2,
                weight: 1,
            },
            TraceEvent::SetTaskSize { task: 0, size: 3 },
            TraceEvent::SetEdgeWeight {
                from: 2,
                to: 3,
                weight: 8,
            },
            TraceEvent::ScaleEdgeWeights { percent: 101 },
        ] {
            let refused = state.apply(&event).unwrap_err();
            assert!(refused.to_string().contains("exceeds"), "{event:?}");
            assert_eq!(state, before, "{event:?} mutated the state");
            assert_eq!(state.total_weight(), before.total_weight());
        }
        // Both of task 1's edges leave with it, and its size.
        let impact = state.apply(&TraceEvent::RemoveTask { task: 1 }).unwrap();
        assert_eq!(impact.weight_delta, MAX_TOTAL_WEIGHT - rest + 1 + 3);
        assert_eq!(state.total_weight(), recount(&state));
        // Sizes 2 + 1 + 4 and the 2 -> 3 edge's 7 leave room for one
        // edge of MAX_TOTAL_WEIGHT - 14.
        let heavy = MAX_TOTAL_WEIGHT - 14;
        state
            .apply(&TraceEvent::SetEdgeWeight {
                from: 0,
                to: 2,
                weight: heavy,
            })
            .unwrap();
        assert_eq!(state.total_weight(), u128::from(MAX_TOTAL_WEIGHT));
        let impact = state
            .apply(&TraceEvent::ScaleEdgeWeights { percent: 1 })
            .unwrap();
        assert_eq!(impact.weight_delta, heavy - heavy / 100 + 6);
        assert_eq!(state.total_weight(), recount(&state));
    }

    /// A 30-task stencil in five clusters: the churn tests' base.
    fn stencil_in_five() -> ClusteredProblemGraph {
        let problem = crate::workloads::stencil_1d(6, 5, 3, 2).unwrap();
        let clustering = Clustering::new((0..30).map(|t| t % 5).collect()).unwrap();
        ClusteredProblemGraph::new(problem, clustering).unwrap()
    }

    #[test]
    fn running_total_weight_matches_a_recount_in_every_regime() {
        use crate::workloads::{churn_trace, ChurnRegime};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let graph = stencil_in_five();
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
    fn nth_edge_walks_the_edge_list_in_order() {
        use crate::workloads::{churn_trace, ChurnRegime};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let graph = stencil_in_five();
        let trace = churn_trace(
            &graph,
            60,
            ChurnRegime::Mixed,
            &mut StdRng::seed_from_u64(3),
        );
        let mut state = DynamicWorkload::from_clustered(&graph);
        for event in &trace {
            assert!(state.apply(event).is_ok(), "{event:?}");
            let by_rank: Vec<_> = (0..=state.num_edges()).map(|k| state.nth_edge(k)).collect();
            let listed: Vec<_> = state.edge_list().map(Some).chain([None]).collect();
            assert_eq!(by_rank, listed, "{event:?}");
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
