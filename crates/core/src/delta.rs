//! Incremental (delta) evaluation of assignment changes — the
//! refinement hot path.
//!
//! Every refinement loop in the repo asks the same question thousands of
//! times: *what would the total time be if these clusters moved?*
//! [`DeltaEvaluator`] keeps the committed schedule alive and answers it
//! at the cost of the edges the candidate actually disturbs.
//!
//! **Position space.** [`DeltaEvaluator::attach`] freezes the instance
//! into flat arrays indexed by a task's *position in
//! `problem.topo_order()`*: task sizes, a predecessor CSR carrying the
//! edge weights, a successor CSR, the positions of every cluster, the
//! processor hosting each position's cluster, and the committed end
//! times. Ascending position *is* topological order, so no candidate
//! ever sorts, queues or looks a weight up.
//!
//! **Flag window.** Staging a candidate marks the moved clusters'
//! positions in a byte-per-position flag array and notes the window
//! `[lo, hi]` they span. One ascending sweep of the window recomputes
//! each flagged position from its predecessor row (`end[u] + w ×
//! hops`, the hop count read from the distance row of the position's
//! own processor), logs the old end time if it shifted, and flags its
//! successors — raising `hi` — iff it shifted *or* its cluster moved
//! (its out-edges changed cost even when its own end did not). The
//! total is a flat `max` over the end times.
//!
//! **One loop.** The flat and V-cycle refinements permute every movable
//! cluster per candidate, so there every position is flagged and the
//! sweep degenerates to a branch-predictable linear pass; a pairwise
//! swap flags two clusters and the sweep is a scan of `hi − lo` bytes
//! plus the disturbed cone. Both are the same code — there is no
//! density threshold and no second path.
//!
//! Exactness contract: every staged total equals
//! `evaluate_assignment(graph, system, candidate, model)?.total()`
//! **bit for bit** (property-tested in `tests/delta.rs` for both models,
//! pins on and off, on graphs whose task ids are not topologically
//! numbered). The precedence model is repaired incrementally; the
//! serialized model's greedy list schedule reorders globally under any
//! move, so every candidate reruns the one list scheduler
//! (`Schedule::serialized`'s) in full — allocation-free, on scratch the
//! workspace keeps.
//!
//! All buffers live in a caller-owned [`DeltaWorkspace`] so batch loops
//! (flat refinement, the multilevel V-cycle, online sessions) reuse one
//! workspace across attachments — zero allocation per candidate, and
//! none per level either once the buffers have grown to size.

use mimd_graph::error::GraphError;
use mimd_graph::matrix::SquareMatrix;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::evaluate::{check_sizes, edge_cost};
use crate::schedule::{EvaluationModel, ListScratch};

/// Flag: the position must be recomputed by the current sweep.
const DIRTY: u8 = 1;
/// Flag: the position's cluster moved, so its out-edges changed cost
/// and its successors are dirty whether or not its own end shifted.
const MOVED: u8 = 2;

/// Reusable buffer bag for [`DeltaEvaluator`]. Create once, pass to
/// every [`DeltaEvaluator::attach`]; buffers are resized (never shrunk
/// below capacity) on attach and reused across candidates and
/// attachments. Everything indexed "per position" is indexed by
/// position in the attached problem's topological order.
#[derive(Clone, Debug, Default)]
pub struct DeltaWorkspace {
    /// Attach-time scratch: position per task id.
    pos_of: Vec<u32>,
    /// Execution time per position.
    size: Vec<Time>,
    /// Predecessor CSR: row `p` is `pred_off[p]..pred_off[p + 1]` of
    /// the parallel `pred_pos` / `pred_w` arrays.
    pred_off: Vec<u32>,
    pred_pos: Vec<u32>,
    pred_w: Vec<Weight>,
    /// Successor CSR (positions only). Rows follow the problem graph's
    /// successor lists, which ascend by task id, not by position.
    succ_off: Vec<u32>,
    succ_pos: Vec<u32>,
    /// Positions grouped by owning cluster, ascending within a cluster;
    /// cluster `c` owns `cluster_pos[cluster_off[c]..cluster_off[c + 1]]`.
    cluster_off: Vec<u32>,
    cluster_pos: Vec<u32>,
    /// Processor hosting each position's cluster under the committed
    /// assignment plus the staged moves (precedence model).
    proc: Vec<u32>,
    /// End time per position (precedence model), same state as `proc`.
    end: Vec<Time>,
    /// `DIRTY | MOVED` bits per position; all zero between sweeps.
    flags: Vec<u8>,
    /// Undo log of `(position, old_end)` for the staged sweep.
    undo_end: Vec<(u32, Time)>,
    /// Undo log of `(cluster, old_processor)` for staged moves; also the
    /// list of clusters the sweep starts from.
    undo_moves: Vec<(usize, usize)>,
    /// The serialized model's list-scheduler buffers.
    list: ListScratch,
}

impl DeltaWorkspace {
    /// An empty workspace; buffers grow on first
    /// [`DeltaEvaluator::attach`].
    pub fn new() -> Self {
        DeltaWorkspace::default()
    }

    /// Freeze `graph` into the position-space arrays and host every
    /// position on its cluster's processor under `assignment`. Sizes
    /// were checked to fit `u32` by the caller.
    fn freeze(&mut self, graph: &ClusteredProblemGraph, assignment: &Assignment) {
        let problem = graph.problem();
        let topo = problem.topo_order();
        let (n, nc) = (problem.len(), graph.num_clusters());
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        for (p, &t) in topo.iter().enumerate() {
            self.pos_of[t] = p as u32;
        }
        self.size.clear();
        self.proc.clear();
        self.pred_off.clear();
        self.pred_pos.clear();
        self.pred_w.clear();
        self.succ_off.clear();
        self.succ_pos.clear();
        // Counting sort of positions by cluster. Cluster `c` is counted
        // into slot `c + 2`, so after the prefix sum slot `c + 1` is
        // its first index — and, once the fill below has advanced it
        // past the cluster's positions, the first index of `c + 1`.
        self.cluster_off.clear();
        self.cluster_off.resize(nc + 2, 0);
        self.pred_off.push(0);
        self.succ_off.push(0);
        for &t in topo {
            let c = graph.cluster_of(t);
            self.cluster_off[c + 2] += 1;
            self.size.push(problem.size(t));
            self.proc.push(assignment.sys_of(c) as u32);
            for &(u, w) in problem.predecessors(t) {
                self.pred_pos.push(self.pos_of[u]);
                self.pred_w.push(w);
            }
            self.pred_off.push(self.pred_pos.len() as u32);
            let pos_of = &self.pos_of;
            self.succ_pos
                .extend(problem.successors(t).iter().map(|&(v, _)| pos_of[v]));
            self.succ_off.push(self.succ_pos.len() as u32);
        }
        for c in 0..nc {
            self.cluster_off[c + 2] += self.cluster_off[c + 1];
        }
        self.cluster_pos.clear();
        self.cluster_pos.resize(n, 0);
        for (p, &t) in topo.iter().enumerate() {
            let slot = &mut self.cluster_off[graph.cluster_of(t) + 1];
            self.cluster_pos[*slot as usize] = p as u32;
            *slot += 1;
        }
        self.cluster_off.truncate(nc + 1);
        self.end.clear();
        self.end.resize(n, 0);
        self.flags.clear();
        self.flags.resize(n, 0);
        self.undo_end.clear();
        self.undo_moves.clear();
    }

    /// The positions cluster `c` owns, ascending.
    #[inline]
    fn positions_of(&self, c: usize) -> std::ops::Range<usize> {
        self.cluster_off[c] as usize..self.cluster_off[c + 1] as usize
    }

    /// The schedule kernel: recompute every flagged position of
    /// `lo..hi` in ascending (= topological) order, propagating flags
    /// downstream, and return the makespan. Shifted end times land in
    /// `undo_end`; every flag is clear again on return.
    fn sweep(&mut self, hops: &SquareMatrix<u32>, lo: usize, mut hi: usize) -> Time {
        let mut p = lo;
        while p < hi {
            let flag = std::mem::take(&mut self.flags[p]);
            if flag != 0 {
                let row = hops.row(self.proc[p] as usize);
                let preds = self.pred_off[p] as usize..self.pred_off[p + 1] as usize;
                let mut s: Time = 0;
                for (&u, &w) in self.pred_pos[preds.clone()].iter().zip(&self.pred_w[preds]) {
                    let u = u as usize;
                    s = s.max(self.end[u] + w * Time::from(row[self.proc[u] as usize]));
                }
                let e = s + self.size[p];
                let shifted = e != self.end[p];
                if shifted {
                    self.undo_end.push((p as u32, self.end[p]));
                    self.end[p] = e;
                }
                if shifted || flag & MOVED != 0 {
                    let succs = self.succ_off[p] as usize..self.succ_off[p + 1] as usize;
                    for &v in &self.succ_pos[succs] {
                        self.flags[v as usize] |= DIRTY;
                        hi = hi.max(v as usize + 1);
                    }
                }
            }
            p += 1;
        }
        self.end.iter().copied().max().unwrap_or(0)
    }
}

/// Positions, processor ids and CSR offsets are stored as `u32`: the
/// error [`DeltaEvaluator::attach`] answers a count that would wrap
/// with.
fn fit_u32(what: &str, n: usize) -> Result<(), GraphError> {
    match u32::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(GraphError::InvalidParameter(format!(
            "{what} = {n} exceeds the delta evaluator's u32 index range"
        ))),
    }
}

/// Incremental evaluator over one `(graph, system, model)` triple.
///
/// Owns the committed assignment and schedule; candidates are *staged*
/// (moves applied, schedule swept, total read) and then either
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
    /// [`evaluate_assignment`](crate::evaluate_assignment), plus
    /// `InvalidParameter` for an instance whose task, processor or edge
    /// count does not fit the `u32` indices of the frozen arrays.
    pub fn attach(
        ws: &'w mut DeltaWorkspace,
        graph: &'a ClusteredProblemGraph,
        system: &'a SystemGraph,
        model: EvaluationModel,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        check_sizes(graph, system, start)?;
        fit_u32("np", graph.num_tasks())?;
        fit_u32("ns", system.len())?;
        fit_u32("edge count", graph.problem().graph().edge_count())?;
        ws.freeze(graph, start);
        let mut evaluator = DeltaEvaluator {
            graph,
            system,
            model,
            ws,
            assignment: start.clone(),
            total: 0,
            staged: None,
        };
        evaluator.total = match model {
            EvaluationModel::Precedence => {
                // With every position dirty the sweep is the
                // from-scratch schedule; what it logs is no candidate's.
                let ws = &mut *evaluator.ws;
                ws.flags.fill(DIRTY);
                let total = ws.sweep(system.distances().as_matrix(), 0, ws.flags.len());
                ws.undo_end.clear();
                total
            }
            EvaluationModel::Serialized => evaluator.list_schedule(),
        };
        Ok(evaluator)
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

    /// Evaluate the staged moves; one sweep of the flag window for
    /// precedence, allocation-free full recompute for serialized.
    fn eval_staged(&mut self) -> Time {
        let total = match self.model {
            EvaluationModel::Precedence => self.eval_precedence(),
            EvaluationModel::Serialized => self.list_schedule(),
        };
        self.staged = Some(total);
        total
    }

    /// Re-host the moved clusters' positions, flag them, and sweep the
    /// window they span.
    fn eval_precedence(&mut self) -> Time {
        let ws = &mut *self.ws;
        let (mut lo, mut hi) = (usize::MAX, 0);
        for i in 0..ws.undo_moves.len() {
            let c = ws.undo_moves[i].0;
            let s = self.assignment.sys_of(c) as u32;
            let owned = ws.positions_of(c);
            for &p in &ws.cluster_pos[owned.clone()] {
                ws.proc[p as usize] = s;
                ws.flags[p as usize] = DIRTY | MOVED;
            }
            // Clusters are never empty and their positions ascend.
            lo = lo.min(ws.cluster_pos[owned.start] as usize);
            hi = hi.max(ws.cluster_pos[owned.end - 1] as usize + 1);
        }
        if lo >= hi {
            return self.total; // nothing moved
        }
        ws.sweep(self.system.distances().as_matrix(), lo, hi)
    }

    /// The serialized total of the current assignment: the one list
    /// scheduler, run on the workspace's scratch.
    fn list_schedule(&mut self) -> Time {
        let (graph, system, assignment) = (self.graph, self.system, &self.assignment);
        self.ws.list.run(graph, |u, v, w| {
            edge_cost(graph, system, assignment, u, v, w)
        })
    }

    /// Accept the staged candidate: it becomes the committed state. The
    /// undo logs are simply dropped.
    pub fn commit(&mut self) {
        let total = self.staged.take().expect("no candidate staged");
        self.ws.undo_end.clear();
        self.ws.undo_moves.clear();
        self.total = total;
    }

    /// Reject the staged candidate: every touched buffer is rolled back
    /// via the undo logs (`O(cone)`, like the evaluation itself).
    pub fn discard(&mut self) {
        assert!(self.staged.take().is_some(), "no candidate staged");
        let ws = &mut *self.ws;
        for (p, e) in ws.undo_end.drain(..) {
            ws.end[p as usize] = e;
        }
        while let Some((a, old)) = ws.undo_moves.pop() {
            self.assignment.place(a, old);
            if self.model == EvaluationModel::Precedence {
                let owned = ws.positions_of(a);
                for &p in &ws.cluster_pos[owned] {
                    ws.proc[p as usize] = old as u32;
                }
            }
        }
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
    #[cfg(target_pointer_width = "64")]
    fn sizes_beyond_u32_are_rejected_not_truncated() {
        assert_eq!(fit_u32("np", u32::MAX as usize), Ok(()));
        for what in ["np", "ns", "edge count"] {
            match fit_u32(what, u32::MAX as usize + 1) {
                Err(GraphError::InvalidParameter(message)) => {
                    assert!(message.starts_with(what), "{message}");
                }
                other => panic!("{what}: {other:?}"),
            }
        }
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
