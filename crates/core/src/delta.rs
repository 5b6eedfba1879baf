//! Incremental (delta) evaluation of assignment changes — the
//! refinement hot path.
//!
//! Every refinement loop in the repo asks the same question thousands of
//! times: *what would the total time be if these few clusters moved?*
//! Answering it with [`evaluate_assignment`](crate::evaluate_assignment)
//! costs a from-scratch schedule over the whole task graph plus an
//! assignment clone per candidate. [`DeltaEvaluator`] instead keeps the
//! committed schedule alive and, per candidate, recomputes only the
//! *disturbed cone*: the tasks whose communication costs changed and
//! everything downstream of an actually-shifted end time, repaired by
//! worklist propagation in topological order (the same technique as
//! `mimd-online`'s `IncrementalBound`). A segment max-tree over the task
//! end times maintains the makespan under both increases and decreases
//! in `O(log np)` per shifted task, so a candidate whose cone is small
//! costs almost nothing — independent of graph size.
//!
//! Exactness contract: every staged total equals
//! `evaluate_assignment(graph, system, candidate, model)?.total()`
//! **bit for bit** (property-tested in `tests/delta.rs` for both models,
//! pins on and off). The precedence model is repaired incrementally; the
//! serialized model's greedy list schedule reorders globally under any
//! move, so it is recomputed in full — but allocation-free, into
//! workspace scratch.
//!
//! All buffers live in a caller-owned [`DeltaWorkspace`] so batch loops
//! (flat refinement, the multilevel V-cycle, online sessions) reuse one
//! workspace across attachments — zero allocation per candidate, and
//! none per level either once the buffers have grown to size.

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::schedule::EvaluationModel;

/// Reusable buffer bag for [`DeltaEvaluator`]. Create once, pass to
/// every [`DeltaEvaluator::attach`]; buffers are resized (never shrunk
/// below capacity) on attach and reused across candidates and
/// attachments.
#[derive(Clone, Debug, Default)]
pub struct DeltaWorkspace {
    /// Committed start time per task (precedence model).
    start: Vec<Time>,
    /// Committed end time per task (precedence model).
    end: Vec<Time>,
    /// Segment max-tree over `end` (1-indexed, `2 * tree_cap` slots);
    /// `tree[1]` is the makespan.
    tree: Vec<Time>,
    tree_cap: usize,
    /// Topological position per task.
    topo_pos: Vec<usize>,
    /// Binary min-heap of topological positions (the worklist).
    heap: Vec<usize>,
    /// Per-task queued flag backing the worklist.
    in_queue: Vec<bool>,
    /// Undo log of `(task, old_start, old_end)` for staged schedule
    /// repairs.
    undo_sched: Vec<(TaskId, Time, Time)>,
    /// Undo log of `(cluster, old_processor)` for staged moves; also the
    /// seed list for the disturbed cone.
    undo_moves: Vec<(usize, usize)>,
    /// CSR offsets of `cluster_tasks` (one slice per cluster).
    cluster_task_off: Vec<usize>,
    /// Task ids grouped by owning cluster.
    cluster_tasks: Vec<TaskId>,
    /// Serialized-model scratch: scheduled flag per task.
    ser_scheduled: Vec<bool>,
    /// Serialized-model scratch: unfinished predecessor count per task.
    ser_remaining: Vec<usize>,
    /// Serialized-model scratch: data-ready time per task.
    ser_ready: Vec<Time>,
    /// Serialized-model scratch: processor-free time per cluster.
    ser_free: Vec<Time>,
}

impl DeltaWorkspace {
    /// An empty workspace; buffers grow on first
    /// [`DeltaEvaluator::attach`].
    pub fn new() -> Self {
        DeltaWorkspace::default()
    }
}

/// Update leaf `t` of the max-tree to `value` and re-aggregate its
/// root path.
#[inline]
fn tree_update(tree: &mut [Time], cap: usize, t: usize, value: Time) {
    let mut i = cap + t;
    tree[i] = value;
    i >>= 1;
    while i >= 1 {
        tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        if i == 1 {
            break;
        }
        i >>= 1;
    }
}

#[inline]
fn heap_push(heap: &mut Vec<usize>, pos: usize) {
    heap.push(pos);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent] <= heap[i] {
            break;
        }
        heap.swap(parent, i);
        i = parent;
    }
}

#[inline]
fn heap_pop(heap: &mut Vec<usize>) -> Option<usize> {
    let last = heap.len().checked_sub(1)?;
    heap.swap(0, last);
    let top = heap.pop();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < heap.len() && heap[l] < heap[smallest] {
            smallest = l;
        }
        if r < heap.len() && heap[r] < heap[smallest] {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
    top
}

/// Incremental evaluator over one `(graph, system, model)` triple.
///
/// Owns the committed assignment and schedule; candidates are *staged*
/// (moves applied, cone repaired, total read) and then either
/// [`commit`](DeltaEvaluator::commit)ted — the candidate becomes the new
/// committed state — or [`discard`](DeltaEvaluator::discard)ed, rolling
/// every touched buffer back via the undo logs.
pub struct DeltaEvaluator<'a, 'w> {
    graph: &'a ClusteredProblemGraph,
    system: &'a SystemGraph,
    model: EvaluationModel,
    ws: &'w mut DeltaWorkspace,
    assignment: Assignment,
    total: Time,
    staged: Option<Time>,
}

impl<'a, 'w> DeltaEvaluator<'a, 'w> {
    /// Attach `ws` to an instance and build the committed schedule of
    /// `start`. Validation (and the error cases) are identical to
    /// [`evaluate_assignment`](crate::evaluate_assignment).
    pub fn attach(
        ws: &'w mut DeltaWorkspace,
        graph: &'a ClusteredProblemGraph,
        system: &'a SystemGraph,
        model: EvaluationModel,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        if graph.num_clusters() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: system.len(),
            });
        }
        if start.len() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: start.len(),
                right: system.len(),
            });
        }
        let problem = graph.problem();
        let n = problem.len();
        let nc = graph.num_clusters();

        ws.topo_pos.clear();
        ws.topo_pos.resize(n, 0);
        for (pos, &t) in problem.topo_order().iter().enumerate() {
            ws.topo_pos[t] = pos;
        }
        // Tasks grouped by cluster (CSR), the seed source for moves.
        ws.cluster_task_off.clear();
        ws.cluster_task_off.resize(nc + 1, 0);
        for t in 0..n {
            ws.cluster_task_off[graph.cluster_of(t) + 1] += 1;
        }
        for c in 0..nc {
            ws.cluster_task_off[c + 1] += ws.cluster_task_off[c];
        }
        ws.cluster_tasks.clear();
        ws.cluster_tasks.resize(n, 0);
        let mut cursor = ws.cluster_task_off.clone();
        for t in 0..n {
            let c = graph.cluster_of(t);
            ws.cluster_tasks[cursor[c]] = t;
            cursor[c] += 1;
        }

        ws.heap.clear();
        ws.in_queue.clear();
        ws.in_queue.resize(n, false);
        ws.undo_sched.clear();
        ws.undo_moves.clear();
        ws.start.clear();
        ws.start.resize(n, 0);
        ws.end.clear();
        ws.end.resize(n, 0);
        let cap = n.next_power_of_two().max(1);
        ws.tree_cap = cap;
        ws.tree.clear();
        ws.tree.resize(2 * cap, 0);
        ws.ser_scheduled.clear();
        ws.ser_remaining.clear();
        ws.ser_ready.clear();
        ws.ser_free.clear();

        let mut evaluator = DeltaEvaluator {
            graph,
            system,
            model,
            ws,
            assignment: start.clone(),
            total: 0,
            staged: None,
        };
        evaluator.rebuild_committed();
        Ok(evaluator)
    }

    /// Full (re)build of the committed schedule — attach-time only;
    /// staged candidates repair instead.
    fn rebuild_committed(&mut self) {
        match self.model {
            EvaluationModel::Precedence => {
                let ws = &mut *self.ws;
                let problem = self.graph.problem();
                let graph = self.graph;
                let system = self.system;
                let assignment = &self.assignment;
                for &t in problem.topo_order() {
                    let mut s: Time = 0;
                    for &(u, w) in problem.predecessors(t) {
                        let arrive = ws.end[u] + comm(graph, system, assignment, u, t, w);
                        s = s.max(arrive);
                    }
                    ws.start[t] = s;
                    ws.end[t] = s + problem.size(t);
                }
                for t in 0..problem.len() {
                    ws.tree[ws.tree_cap + t] = ws.end[t];
                }
                for i in (1..ws.tree_cap).rev() {
                    ws.tree[i] = ws.tree[2 * i].max(ws.tree[2 * i + 1]);
                }
                self.total = ws.tree[1];
            }
            EvaluationModel::Serialized => {
                self.total = self.eval_serialized();
            }
        }
    }

    /// The committed total time.
    #[inline]
    pub fn total(&self) -> Time {
        self.total
    }

    /// The committed assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The evaluation model.
    #[inline]
    pub fn model(&self) -> EvaluationModel {
        self.model
    }

    /// `true` while a candidate is staged (awaiting commit/discard).
    #[inline]
    pub fn is_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Move cluster `a` to processor `s` if that is an actual change,
    /// recording the undo entry.
    #[inline]
    fn push_move(&mut self, a: usize, s: usize) {
        let old = self.assignment.sys_of(a);
        if old != s {
            self.ws.undo_moves.push((a, old));
            self.assignment.place(a, s);
        }
    }

    /// Stage the same re-placement as
    /// [`Assignment::place_subset`](crate::Assignment::place_subset):
    /// `clusters[i]` goes to `processors[perm[i]]`. Returns the
    /// candidate's total time; the evaluator stays staged until
    /// [`commit`](DeltaEvaluator::commit) or
    /// [`discard`](DeltaEvaluator::discard).
    pub fn stage_place(
        &mut self,
        clusters: &[usize],
        processors: &[usize],
        perm: &[usize],
    ) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        assert_eq!(clusters.len(), processors.len(), "subset sizes must match");
        assert_eq!(clusters.len(), perm.len(), "permutation size must match");
        for (i, &a) in clusters.iter().enumerate() {
            self.push_move(a, processors[perm[i]]);
        }
        self.eval_staged()
    }

    /// Stage a full candidate assignment (diffed against the committed
    /// one — only actual moves cost anything). `candidate` must have the
    /// committed assignment's length.
    pub fn stage_candidate(&mut self, candidate: &Assignment) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        assert_eq!(candidate.len(), self.assignment.len(), "candidate size");
        for a in 0..candidate.len() {
            self.push_move(a, candidate.sys_of(a));
        }
        self.eval_staged()
    }

    /// Stage the pairwise exchange of clusters `a` and `b`.
    pub fn stage_swap(&mut self, a: usize, b: usize) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        let (sa, sb) = (self.assignment.sys_of(a), self.assignment.sys_of(b));
        self.push_move(a, sb);
        self.push_move(b, sa);
        self.eval_staged()
    }

    /// Evaluate the staged moves; cone repair for precedence,
    /// allocation-free full recompute for serialized.
    fn eval_staged(&mut self) -> Time {
        let total = match self.model {
            EvaluationModel::Precedence => self.eval_precedence(),
            EvaluationModel::Serialized => self.eval_serialized(),
        };
        self.staged = Some(total);
        total
    }

    /// Worklist repair of the precedence schedule: seed every task with
    /// a potentially-changed incoming communication cost, then pop in
    /// topological order, recomputing starts and pushing successors only
    /// when an end time actually shifted. Monotone pops guarantee each
    /// task is recomputed at most once per candidate.
    fn eval_precedence(&mut self) -> Time {
        let ws = &mut *self.ws;
        let graph = self.graph;
        let system = self.system;
        let assignment = &self.assignment;
        let problem = graph.problem();
        let topo = problem.topo_order();

        // Seed: tasks of moved clusters (their in-edges changed cost)
        // and their successors (out-edges changed cost).
        for i in 0..ws.undo_moves.len() {
            let c = ws.undo_moves[i].0;
            let (lo, hi) = (ws.cluster_task_off[c], ws.cluster_task_off[c + 1]);
            for k in lo..hi {
                let t = ws.cluster_tasks[k];
                if !problem.predecessors(t).is_empty() && !ws.in_queue[t] {
                    ws.in_queue[t] = true;
                    heap_push(&mut ws.heap, ws.topo_pos[t]);
                }
                for &(v, _) in problem.successors(t) {
                    if !ws.in_queue[v] {
                        ws.in_queue[v] = true;
                        heap_push(&mut ws.heap, ws.topo_pos[v]);
                    }
                }
            }
        }

        while let Some(pos) = heap_pop(&mut ws.heap) {
            let t = topo[pos];
            ws.in_queue[t] = false;
            let mut s: Time = 0;
            for &(u, w) in problem.predecessors(t) {
                let arrive = ws.end[u] + comm(graph, system, assignment, u, t, w);
                s = s.max(arrive);
            }
            if s == ws.start[t] {
                continue;
            }
            let e = s + problem.size(t);
            ws.undo_sched.push((t, ws.start[t], ws.end[t]));
            ws.start[t] = s;
            ws.end[t] = e;
            tree_update(&mut ws.tree, ws.tree_cap, t, e);
            for &(v, _) in problem.successors(t) {
                if !ws.in_queue[v] {
                    ws.in_queue[v] = true;
                    heap_push(&mut ws.heap, ws.topo_pos[v]);
                }
            }
        }
        ws.tree[1]
    }

    /// Allocation-free recompute of the serialized (greedy list
    /// scheduling) total — the algorithm of `Schedule::serialized`
    /// verbatim, against workspace scratch instead of fresh vectors.
    fn eval_serialized(&mut self) -> Time {
        let ws = &mut *self.ws;
        let graph = self.graph;
        let system = self.system;
        let assignment = &self.assignment;
        let problem = graph.problem();
        let n = problem.len();
        ws.ser_scheduled.clear();
        ws.ser_scheduled.resize(n, false);
        ws.ser_ready.clear();
        ws.ser_ready.resize(n, 0);
        ws.ser_free.clear();
        ws.ser_free.resize(graph.num_clusters(), 0);
        ws.ser_remaining.clear();
        ws.ser_remaining
            .extend((0..n).map(|t| problem.predecessors(t).len()));
        let mut total: Time = 0;
        for _ in 0..n {
            let mut best: Option<(Time, TaskId)> = None;
            for t in 0..n {
                if ws.ser_scheduled[t] || ws.ser_remaining[t] > 0 {
                    continue;
                }
                let feasible = ws.ser_ready[t].max(ws.ser_free[graph.cluster_of(t)]);
                if best.is_none_or(|(bt, bid)| (feasible, t) < (bt, bid)) {
                    best = Some((feasible, t));
                }
            }
            let (s, t) = best.expect("DAG always has a ready task");
            ws.ser_scheduled[t] = true;
            let e = s + problem.size(t);
            ws.ser_free[graph.cluster_of(t)] = e;
            total = total.max(e);
            for &(v, w) in problem.successors(t) {
                ws.ser_remaining[v] -= 1;
                ws.ser_ready[v] = ws.ser_ready[v].max(e + comm(graph, system, assignment, t, v, w));
            }
        }
        total
    }

    /// Accept the staged candidate: it becomes the committed state. The
    /// undo logs are simply dropped.
    pub fn commit(&mut self) {
        let total = self.staged.take().expect("no candidate staged");
        self.ws.undo_sched.clear();
        self.ws.undo_moves.clear();
        self.total = total;
    }

    /// Reject the staged candidate: every touched buffer is rolled back
    /// via the undo logs (`O(cone)`, like the evaluation itself).
    pub fn discard(&mut self) {
        assert!(self.staged.take().is_some(), "no candidate staged");
        while let Some((t, s, e)) = self.ws.undo_sched.pop() {
            self.ws.start[t] = s;
            self.ws.end[t] = e;
            tree_update(&mut self.ws.tree, self.ws.tree_cap, t, e);
        }
        while let Some((a, old)) = self.ws.undo_moves.pop() {
            self.assignment.place(a, old);
        }
    }
}

/// The per-edge communication cost — the exact arithmetic of
/// [`evaluate_assignment`](crate::evaluate_assignment)'s closure
/// (`clus_weight × hops`, 0 intra-cluster), with the edge weight taken
/// from the adjacency list instead of a matrix probe.
#[inline]
fn comm(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    u: TaskId,
    t: TaskId,
    w: Weight,
) -> Time {
    let (cu, ct) = (graph.cluster_of(u), graph.cluster_of(t));
    if cu == ct || w == 0 {
        0
    } else {
        w * Time::from(system.hops(assignment.sys_of(cu), assignment.sys_of(ct)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_assignment;
    use crate::shuffle::fisher_yates;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn worked() -> (ClusteredProblemGraph, SystemGraph) {
        (paper::worked_example(), ring(4).unwrap())
    }

    fn full_total(
        g: &ClusteredProblemGraph,
        sys: &SystemGraph,
        a: &Assignment,
        model: EvaluationModel,
    ) -> Time {
        evaluate_assignment(g, sys, a, model).unwrap().total()
    }

    #[test]
    fn attach_matches_full_evaluation() {
        let (g, sys) = worked();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut ws = DeltaWorkspace::new();
            let a = Assignment::identity(4);
            let ev = DeltaEvaluator::attach(&mut ws, &g, &sys, model, &a).unwrap();
            assert_eq!(ev.total(), full_total(&g, &sys, &a, model));
            assert_eq!(ev.assignment(), &a);
            assert_eq!(ev.model(), model);
        }
    }

    #[test]
    fn swaps_match_full_evaluation_and_roll_back() {
        let (g, sys) = worked();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut ws = DeltaWorkspace::new();
            let a = Assignment::identity(4);
            let mut ev = DeltaEvaluator::attach(&mut ws, &g, &sys, model, &a).unwrap();
            let committed = ev.total();
            for x in 0..4 {
                for y in 0..4 {
                    if x == y {
                        continue;
                    }
                    let mut swapped = a.clone();
                    swapped.swap_clusters(x, y);
                    assert_eq!(
                        ev.stage_swap(x, y),
                        full_total(&g, &sys, &swapped, model),
                        "{model:?} swap {x}<->{y}"
                    );
                    ev.discard();
                    // Rollback restored the committed state.
                    assert_eq!(ev.total(), committed);
                    assert_eq!(ev.assignment(), &a);
                    assert_eq!(ev.stage_candidate(&a), committed);
                    ev.discard();
                }
            }
        }
    }

    #[test]
    fn apply_commits_and_further_deltas_stack() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let mut current = Assignment::identity(4);
        let mut ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &current)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let candidate = Assignment::random(4, &mut rng);
            let total = ev.stage_candidate(&candidate);
            ev.commit();
            current = candidate;
            assert_eq!(
                total,
                full_total(&g, &sys, &current, EvaluationModel::Precedence)
            );
            assert_eq!(ev.assignment(), &current);
            assert_eq!(ev.total(), total);
        }
    }

    #[test]
    fn stage_place_matches_place_subset() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let base = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let mut ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &base).unwrap();
        let clusters = [0, 2, 3];
        let processors = [3, 1, 0];
        let mut rng = StdRng::seed_from_u64(9);
        let mut perm: Vec<usize> = (0..3).collect();
        for _ in 0..30 {
            fisher_yates(&mut perm, &mut rng);
            let mut reference = base.clone();
            reference.place_subset(&clusters, &processors, &perm);
            assert_eq!(
                ev.stage_place(&clusters, &processors, &perm),
                full_total(&g, &sys, &reference, EvaluationModel::Precedence)
            );
            ev.discard();
            assert_eq!(ev.assignment(), &base);
        }
    }

    #[test]
    fn validation_matches_evaluate_assignment() {
        let (g, _) = worked();
        let sys5 = ring(5).unwrap();
        let mut ws = DeltaWorkspace::new();
        assert!(matches!(
            DeltaEvaluator::attach(
                &mut ws,
                &g,
                &sys5,
                EvaluationModel::Precedence,
                &Assignment::identity(5)
            ),
            Err(GraphError::SizeMismatch { .. })
        ));
        let sys4 = ring(4).unwrap();
        assert!(DeltaEvaluator::attach(
            &mut ws,
            &g,
            &sys4,
            EvaluationModel::Precedence,
            &Assignment::identity(5)
        )
        .is_err());
    }

    #[test]
    fn workspace_reuse_across_instances() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        {
            let mut ev = DeltaEvaluator::attach(
                &mut ws,
                &g,
                &sys,
                EvaluationModel::Serialized,
                &Assignment::identity(4),
            )
            .unwrap();
            ev.stage_swap(0, 3);
            ev.commit();
        }
        // Re-attach with stale buffers: totals still exact.
        let a = Assignment::from_sys_of(vec![1, 0, 3, 2]).unwrap();
        let ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &a).unwrap();
        assert_eq!(
            ev.total(),
            full_total(&g, &sys, &a, EvaluationModel::Precedence)
        );
    }

    #[test]
    #[should_panic(expected = "still staged")]
    fn double_stage_panics() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let mut ev = DeltaEvaluator::attach(
            &mut ws,
            &g,
            &sys,
            EvaluationModel::Precedence,
            &Assignment::identity(4),
        )
        .unwrap();
        ev.stage_swap(0, 1);
        ev.stage_swap(1, 2);
    }
}
