//! Incremental (delta) evaluation of assignment changes — the
//! refinement hot path — and the live instance an online session
//! patches event by event.
//!
//! Every refinement loop in the repo asks the same question thousands of
//! times: *what would the total time be if these clusters moved?*
//! [`DeltaEvaluator`] keeps the committed schedule alive and answers it
//! at the cost of the edges the candidate actually disturbs.
//!
//! **Position space.** [`DeltaEvaluator::attach`] freezes the instance
//! into flat arrays indexed by a task's *position in
//! `problem.topo_order()`*: task sizes, predecessor rows carrying the
//! edge weights, successor rows, the positions of every cluster, the
//! processor hosting each position's cluster, and the committed end
//! times. Every row is a `(start, end)` range into one pool per kind,
//! packed back to back by the attach. Ascending position *is*
//! topological order, so no candidate ever sorts, queues or looks a
//! weight up.
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
//! **One loop, two densities.** Propagation is a compile-time parameter
//! of the one sweep. A candidate whose moved clusters own at least
//! 1/[`DENSE_CUT`] (¼) of all positions flags every position from its
//! first moved one to the end and sweeps them without propagating:
//! its cone is the whole tail anyway, and pushing flags through every
//! successor row was 35–50 % of such a sweep. Flat refinement
//! candidates (87–100 % of positions), the V-cycle's group permutations
//! (40–100 % at `layered:4096` on 1024 nodes) and the from-scratch
//! sweeps of [`DeltaEvaluator::attach`] and
//! [`DeltaEvaluator::track_bound`] land there. Pairwise swaps, every
//! [`patch`](DeltaEvaluator::patch) and a session's region candidates
//! stay below: 1–6 % of positions on a 256-node torus. Region
//! candidates of an event that touches many regions (up to 47 %), or
//! of a region that is most of a small machine, go dense. The cut is
//! the measured break-even with margin. Timing both forms on the same
//! candidates (release build, 2 vCPUs), the sparse one is ahead below
//! 4 % of positions on a 256-node torus and below 17 % on a 64-node
//! one, whose region candidates have small cones; from 18 % up the
//! dense one never loses — 0.5–0.7× on flat, V-cycle and 256-node
//! session candidates, 0.95–1.0× on a 64-node session. The kernel
//! takes its distance as a parameter: the machine's hop matrix, or the
//! system graph closure of §4.1 (one hop between clusters, none
//! within), under which the same sweep yields the ideal schedule and
//! its lower bound.
//!
//! **Live instance.** An online session keeps one attached precedence
//! instance across trace events instead of rebuilding it per event:
//! [`DeltaEvaluator::track_bound`] adds a second set of end times, the
//! ideal schedule, and [`DeltaEvaluator::patch`] — the one entry point
//! through which the instance changes shape — applies an event's
//! effect in place (an arrival appends a position, a departure leaves a
//! tombstone with size 0 and no rows, a removed edge is swap-removed
//! from its rows, a row that outgrows its range moves to the tail of
//! its pool) and repairs the total and the bound with one sweep each
//! from the positions the event touched.
//! [`DeltaEvaluator::resume`] picks the instance up again without a
//! graph. An edge against the position order is refused: the caller
//! re-attaches from a materialized graph, which also compacts the
//! pools.
//!
//! Exactness contract: every staged total equals
//! `evaluate_assignment(graph, system, candidate, model)?.total()`
//! **bit for bit** (property-tested in `tests/delta.rs` for both models,
//! pins on and off, on graphs whose task ids are not topologically
//! numbered), and a patched instance prices every candidate, and
//! reports the bound, exactly as a fresh attach to the materialized
//! graph would (`mimd-online`'s `tests/properties.rs`). The precedence
//! model is repaired incrementally; the serialized model's greedy list
//! schedule reorders globally under any move, so every candidate reruns
//! the one list scheduler (`Schedule::serialized`'s) in full —
//! allocation-free, on scratch the workspace keeps.
//!
//! All buffers live in a caller-owned [`DeltaWorkspace`] so batch loops
//! (flat refinement, the multilevel V-cycle, online sessions) reuse one
//! workspace across attachments — zero allocation per candidate, and
//! none per level either once the buffers have grown to size.

use std::ops::Range;

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

/// A staged candidate whose moved clusters own at least one in
/// `DENSE_CUT` of all positions (tombstones included) is swept densely:
/// every position from the first moved one on is flagged and recomputed,
/// and nothing propagates. Below the cut the sweep follows the flags
/// downstream. The module's "One loop, two densities" gives the
/// break-even this comes from.
pub const DENSE_CUT: usize = 4;

/// One row of a pool: `pool[start..end]`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// An empty row at `at`.
    fn empty(at: usize) -> Span {
        Span {
            start: at as u32,
            end: at as u32,
        }
    }

    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Append `item` to row `span` of `pool`, moving the row to the pool's
/// tail first unless it already ends there; returns the row's new
/// span. The slots a moved row leaves are dead until the next attach.
fn push_row<T: Copy>(pool: &mut Vec<T>, span: Span, item: T) -> Span {
    let start = if span.end as usize == pool.len() {
        span.start as usize
    } else {
        let start = pool.len();
        pool.extend_from_within(span.range());
        start
    };
    pool.push(item);
    Span {
        start: start as u32,
        end: u32::try_from(pool.len()).expect("a row pool outgrew the u32 index range"),
    }
}

/// The index in `pool` of `item` within row `span`.
fn find_in_row(pool: &[u32], span: Span, item: u32) -> usize {
    span.range()
        .find(|&i| pool[i] == item)
        .expect("a patched edge is in its rows")
}

/// Drop slot `i` of row `span` by moving the row's last entry into it
/// (rows are unordered: the sweep takes a max and ORs flags); returns
/// the row's new span.
fn swap_remove_row<T: Copy>(pool: &mut [T], span: Span, i: usize) -> Span {
    pool[i] = pool[span.end as usize - 1];
    Span {
        start: span.start,
        end: span.end - 1,
    }
}

/// A distance the schedule kernel charges edges by: a predecessor edge
/// of weight `w` into a position hosted on `host` costs `w ×
/// hops(row_of(host), host of the predecessor)`. The row is read once
/// per position.
trait Distance {
    type Row<'d>: Copy
    where
        Self: 'd;
    fn row_of(&self, host: u32) -> Self::Row<'_>;
    fn hops(row: Self::Row<'_>, other: u32) -> Time;
}

/// The machine: hosts are processors, hops come from the distance
/// matrix.
impl Distance for SquareMatrix<u32> {
    type Row<'d> = &'d [u32];

    #[inline]
    fn row_of(&self, host: u32) -> &[u32] {
        self.row(host as usize)
    }

    #[inline]
    fn hops(row: &[u32], other: u32) -> Time {
        Time::from(row[other as usize])
    }
}

/// The system graph closure of the ideal schedule (§4.1): hosts are
/// clusters, every cross-cluster message costs its weight once and an
/// intra-cluster one nothing.
struct Closure;

impl Distance for Closure {
    type Row<'d> = u32;

    #[inline]
    fn row_of(&self, host: u32) -> u32 {
        host
    }

    #[inline]
    fn hops(row: u32, other: u32) -> Time {
        Time::from(row != other)
    }
}

/// One schedule over the frozen rows: the host of every position and
/// its end time.
#[derive(Clone, Debug, Default)]
struct Track {
    host: Vec<u32>,
    end: Vec<Time>,
}

/// The arrays the schedule kernel sweeps, all per position except the
/// pools.
#[derive(Clone, Debug, Default)]
struct Kernel {
    /// Execution time per position (0 for a tombstone).
    size: Vec<Time>,
    /// Predecessor row per position into the parallel `pred_pos` /
    /// `pred_w` pools.
    pred: Vec<Span>,
    pred_pos: Vec<u32>,
    pred_w: Vec<Weight>,
    /// Successor row per position into `succ_pos`. Rows are unordered.
    succ: Vec<Span>,
    succ_pos: Vec<u32>,
    /// `DIRTY | MOVED` bits per position; all zero between sweeps.
    flags: Vec<u8>,
    /// Undo log of `(position, old_end)` for the staged sweep.
    undo_end: Vec<(u32, Time)>,
}

impl Kernel {
    /// The schedule kernel: recompute every flagged position of
    /// `lo..hi` of `track` in ascending (= topological) order under
    /// `dist`, and return the makespan. With `PROPAGATE` a recomputed
    /// position flags its successors — raising `hi` — when it shifted
    /// or its cluster moved; without it the caller has flagged every
    /// position that can change, and the sweep only recomputes them.
    /// Shifted end times land in `undo_end`; every flag is clear again
    /// on return.
    fn sweep<const PROPAGATE: bool, D: Distance>(
        &mut self,
        track: &mut Track,
        dist: &D,
        lo: usize,
        mut hi: usize,
    ) -> Time {
        let mut p = lo;
        while p < hi {
            let flag = std::mem::take(&mut self.flags[p]);
            if flag != 0 {
                let row = dist.row_of(track.host[p]);
                let preds = self.pred[p].range();
                let mut s: Time = 0;
                for (&u, &w) in self.pred_pos[preds.clone()].iter().zip(&self.pred_w[preds]) {
                    let u = u as usize;
                    s = s.max(track.end[u] + w * D::hops(row, track.host[u]));
                }
                let e = s + self.size[p];
                let shifted = e != track.end[p];
                if shifted {
                    self.undo_end.push((p as u32, track.end[p]));
                    track.end[p] = e;
                }
                if PROPAGATE && (shifted || flag & MOVED != 0) {
                    for &v in &self.succ_pos[self.succ[p].range()] {
                        self.flags[v as usize] |= DIRTY;
                        hi = hi.max(v as usize + 1);
                    }
                }
            }
            p += 1;
        }
        debug_assert!(
            self.flags.iter().all(|&f| f == 0),
            "a sweep left a flag set"
        );
        track.end.iter().copied().max().unwrap_or(0)
    }

    /// Flag the `touched` positions and sweep the window they span,
    /// propagating from there.
    fn sweep_from<D: Distance>(&mut self, touched: &[u32], track: &mut Track, dist: &D) -> Time {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &p in touched {
            self.flags[p as usize] |= DIRTY;
            lo = lo.min(p as usize);
            hi = hi.max(p as usize + 1);
        }
        self.sweep::<true, D>(track, dist, lo.min(hi), hi)
    }

    /// Flag every position from `lo` on and recompute them all, with no
    /// propagation: the sweep for a change that disturbs most of the
    /// schedule from `lo` on, and, from 0, the from-scratch schedule.
    fn sweep_tail<D: Distance>(&mut self, track: &mut Track, dist: &D, lo: usize) -> Time {
        let n = self.flags.len();
        self.flags[lo..].fill(DIRTY);
        self.sweep::<false, D>(track, dist, lo, n)
    }
}

/// Reusable buffer bag for [`DeltaEvaluator`]. Create once, pass to
/// every [`DeltaEvaluator::attach`]; buffers are resized (never shrunk
/// below capacity) on attach and reused across candidates and
/// attachments. Everything indexed "per position" is indexed by
/// position in the attached problem's topological order. The workspace
/// also holds the committed state — assignment, total and, once
/// tracked, the lower bound — so a precedence instance can be
/// [resumed](DeltaEvaluator::resume) after its evaluator is gone.
#[derive(Clone, Debug, Default)]
pub struct DeltaWorkspace {
    /// Position per task id of the attached graph.
    pos_of: Vec<u32>,
    kernel: Kernel,
    /// Positions grouped by owning cluster, ascending within a cluster;
    /// cluster `c` owns `cluster_pos[clusters[c]]`. Tombstones belong to
    /// no cluster.
    clusters: Vec<Span>,
    cluster_pos: Vec<u32>,
    /// The machine schedule (precedence model): the processor hosting
    /// each position's cluster under the committed assignment plus the
    /// staged moves, and the end times of the same state.
    machine: Track,
    /// The ideal schedule of a tracked bound: each position's cluster
    /// and its end time on the system graph closure.
    ideal: Track,
    /// Patch scratch: the positions an event touched.
    touched: Vec<u32>,
    /// Undo log of `(cluster, old_processor)` for staged moves; also the
    /// list of clusters the sweep starts from.
    undo_moves: Vec<(usize, usize)>,
    /// The serialized model's list-scheduler buffers.
    list: ListScratch,
    /// The committed assignment (plus the staged moves while a
    /// candidate is staged).
    assignment: Assignment,
    /// The committed total.
    total: Time,
    /// The ideal-graph lower bound, once tracked.
    bound: Option<Time>,
    /// `true` while the workspace holds a precedence instance, which
    /// [`DeltaEvaluator::resume`] can pick up.
    live: bool,
}

impl DeltaWorkspace {
    /// An empty workspace; buffers grow on first
    /// [`DeltaEvaluator::attach`].
    pub fn new() -> Self {
        DeltaWorkspace::default()
    }

    /// The committed assignment of the instance last attached (and
    /// patched or committed to since).
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
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
        let k = &mut self.kernel;
        k.size.clear();
        k.pred.clear();
        k.pred_pos.clear();
        k.pred_w.clear();
        k.succ.clear();
        k.succ_pos.clear();
        self.machine.host.clear();
        // Counting sort of positions by cluster: count into each span's
        // `end`, turn the counts into empty spans at their offsets, then
        // let the fill below advance every `end` past its positions.
        self.clusters.clear();
        self.clusters.resize(nc, Span::default());
        for &t in topo {
            let c = graph.cluster_of(t);
            self.clusters[c].end += 1;
            k.size.push(problem.size(t));
            self.machine.host.push(assignment.sys_of(c) as u32);
            let start = k.pred_pos.len();
            for &(u, w) in problem.predecessors(t) {
                k.pred_pos.push(self.pos_of[u]);
                k.pred_w.push(w);
            }
            k.pred.push(Span {
                start: start as u32,
                end: k.pred_pos.len() as u32,
            });
            let start = k.succ_pos.len();
            let pos_of = &self.pos_of;
            k.succ_pos
                .extend(problem.successors(t).iter().map(|&(v, _)| pos_of[v]));
            k.succ.push(Span {
                start: start as u32,
                end: k.succ_pos.len() as u32,
            });
        }
        let mut offset = 0;
        for span in &mut self.clusters {
            let count = span.end as usize;
            *span = Span::empty(offset);
            offset += count;
        }
        self.cluster_pos.clear();
        self.cluster_pos.resize(n, 0);
        for (p, &t) in topo.iter().enumerate() {
            let span = &mut self.clusters[graph.cluster_of(t)];
            self.cluster_pos[span.end as usize] = p as u32;
            span.end += 1;
        }
        self.machine.end.clear();
        self.machine.end.resize(n, 0);
        k.flags.clear();
        k.flags.resize(n, 0);
        k.undo_end.clear();
        self.undo_moves.clear();
        self.assignment.clone_from(assignment);
        self.bound = None;
        self.live = false;
    }
}

/// Positions, processor ids and row offsets are stored as `u32`: the
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

/// One event's effect on a live instance, in position space: what
/// [`DeltaEvaluator::patch`] applies. Positions name tasks as the
/// instance knows them; the caller maps its own task ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Patch {
    /// A task of execution time `size` arrives in `cluster`. It takes
    /// the position [`DeltaEvaluator::positions`] reported before the
    /// patch.
    AddTask {
        /// Execution time.
        size: Time,
        /// Owning cluster.
        cluster: usize,
    },
    /// The task at `pos` leaves with its edges. The position stays, as
    /// a tombstone: size 0, no rows, in no cluster.
    RemoveTask {
        /// The departing task.
        pos: u32,
    },
    /// Edge `from -> to` appears.
    AddEdge {
        /// Producer.
        from: u32,
        /// Consumer.
        to: u32,
        /// Communication weight.
        weight: Weight,
    },
    /// Edge `from -> to` disappears.
    RemoveEdge {
        /// Producer.
        from: u32,
        /// Consumer.
        to: u32,
    },
    /// The task at `pos` changes execution time.
    SetSize {
        /// The task.
        pos: u32,
        /// New execution time.
        size: Time,
    },
    /// Edge `from -> to` changes weight.
    SetWeight {
        /// Producer.
        from: u32,
        /// Consumer.
        to: u32,
        /// New weight.
        weight: Weight,
    },
}

/// Incremental evaluator over one `(graph, system, model)` triple.
///
/// Owns the committed assignment and schedule (kept in its workspace);
/// candidates are *staged* (moves applied, schedule swept, total read)
/// and then either [`commit`](DeltaEvaluator::commit)ted — the
/// candidate becomes the new committed state — or
/// [`discard`](DeltaEvaluator::discard)ed, rolling every touched buffer
/// back via the undo logs.
pub struct DeltaEvaluator<'a, 'w> {
    /// The attached graph; only the serialized model's list scheduler
    /// reads it, so a resumed precedence instance has none.
    graph: Option<&'a ClusteredProblemGraph>,
    system: &'a SystemGraph,
    model: EvaluationModel,
    ws: &'w mut DeltaWorkspace,
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
            graph: Some(graph),
            system,
            model,
            ws,
            staged: None,
        };
        evaluator.ws.total = match model {
            EvaluationModel::Precedence => {
                // The from-scratch schedule; what it logs is no
                // candidate's.
                let ws = &mut *evaluator.ws;
                let total =
                    ws.kernel
                        .sweep_tail(&mut ws.machine, system.distances().as_matrix(), 0);
                ws.kernel.undo_end.clear();
                ws.live = true;
                total
            }
            EvaluationModel::Serialized => evaluator.list_schedule(),
        };
        Ok(evaluator)
    }

    /// Pick up the precedence instance `ws` holds — as its last attach
    /// left it, with every commit and patch since — on `system`, the
    /// machine it was attached on. Needs no graph: the frozen rows, the
    /// committed assignment and the end times all live in the
    /// workspace. Panics if the workspace holds no precedence instance
    /// or `system` has another size.
    pub fn resume(ws: &'w mut DeltaWorkspace, system: &'a SystemGraph) -> Self {
        assert!(
            ws.live,
            "resume needs a workspace attached under the precedence model"
        );
        assert!(
            ws.undo_moves.is_empty(),
            "an evaluator left a candidate staged"
        );
        assert_eq!(
            ws.assignment.len(),
            system.len(),
            "resumed on another machine"
        );
        DeltaEvaluator {
            graph: None,
            system,
            model: EvaluationModel::Precedence,
            ws,
            staged: None,
        }
    }

    /// The committed total time.
    #[inline]
    pub fn total(&self) -> Time {
        self.ws.total
    }

    /// The committed assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.ws.assignment
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

    /// The number of positions, tombstones included: the position the
    /// next [`Patch::AddTask`] takes.
    pub fn positions(&self) -> usize {
        self.ws.kernel.size.len()
    }

    /// The position of every task of the graph last attached, by task
    /// index (patches since do not update it).
    pub fn attached_positions(&self) -> &[u32] {
        &self.ws.pos_of
    }

    /// The tracked ideal-graph lower bound (`None` until
    /// [`track_bound`](DeltaEvaluator::track_bound)).
    pub fn lower_bound(&self) -> Option<Time> {
        self.ws.bound
    }

    /// Derive the ideal schedule (§4.1) in the instance's second set of
    /// end times — the schedule kernel swept over the system graph
    /// closure — and keep it: from here on every
    /// [`patch`](DeltaEvaluator::patch) repairs the lower bound along
    /// with the total. Returns the bound. Batch refinement never calls
    /// this, so its attach does no extra work. Precedence model only.
    pub fn track_bound(&mut self) -> Time {
        assert_eq!(
            self.model,
            EvaluationModel::Precedence,
            "bounds track the precedence model"
        );
        assert!(self.staged.is_none(), "candidate still staged");
        let ws = &mut *self.ws;
        let n = ws.kernel.size.len();
        ws.ideal.host.clear();
        ws.ideal.host.resize(n, 0);
        for (c, span) in ws.clusters.iter().enumerate() {
            for &p in &ws.cluster_pos[span.range()] {
                ws.ideal.host[p as usize] = c as u32;
            }
        }
        ws.ideal.end.clear();
        ws.ideal.end.resize(n, 0);
        let bound = ws.kernel.sweep_tail(&mut ws.ideal, &Closure, 0);
        ws.kernel.undo_end.clear();
        ws.bound = Some(bound);
        bound
    }

    /// Apply one event's effect to the instance in place, then repair
    /// the committed total and the tracked bound with one sweep each,
    /// started from the positions the event touched. Returns `false`,
    /// changing nothing, for an [`Patch::AddEdge`] that runs against
    /// the position order (`from` at or after `to`): the caller
    /// re-attaches from a materialized graph, whose topological order
    /// places it. Every other patch must describe a change the
    /// instance can take — an existing edge, a live position. Panics
    /// while a candidate is staged or before
    /// [`track_bound`](DeltaEvaluator::track_bound).
    pub fn patch(&mut self, patch: Patch) -> bool {
        assert!(self.staged.is_none(), "candidate still staged");
        assert!(self.ws.bound.is_some(), "patching needs a tracked bound");
        let ws = &mut *self.ws;
        let k = &mut ws.kernel;
        ws.touched.clear();
        match patch {
            Patch::AddTask { size, cluster } => {
                let p = k.size.len();
                assert!(
                    p < u32::MAX as usize,
                    "positions exceed the u32 index range"
                );
                k.size.push(size);
                k.pred.push(Span::empty(k.pred_pos.len()));
                k.succ.push(Span::empty(k.succ_pos.len()));
                k.flags.push(0);
                ws.machine.host.push(ws.assignment.sys_of(cluster) as u32);
                ws.machine.end.push(0);
                ws.ideal.host.push(cluster as u32);
                ws.ideal.end.push(0);
                ws.clusters[cluster] =
                    push_row(&mut ws.cluster_pos, ws.clusters[cluster], p as u32);
                ws.touched.push(p as u32);
            }
            Patch::RemoveTask { pos } => {
                let p = pos as usize;
                for i in k.pred[p].range() {
                    let u = k.pred_pos[i] as usize;
                    let j = find_in_row(&k.succ_pos, k.succ[u], pos);
                    k.succ[u] = swap_remove_row(&mut k.succ_pos, k.succ[u], j);
                }
                for i in k.succ[p].range() {
                    let v = k.succ_pos[i];
                    let row = k.pred[v as usize];
                    let j = find_in_row(&k.pred_pos, row, pos);
                    swap_remove_row(&mut k.pred_w, row, j);
                    k.pred[v as usize] = swap_remove_row(&mut k.pred_pos, row, j);
                    ws.touched.push(v);
                }
                k.pred[p].end = k.pred[p].start;
                k.succ[p].end = k.succ[p].start;
                k.size[p] = 0;
                let c = ws.ideal.host[p] as usize;
                let span = ws.clusters[c];
                let i = find_in_row(&ws.cluster_pos, span, pos);
                // Cluster rows stay ascending: shift rather than swap.
                ws.cluster_pos.copy_within(i + 1..span.end as usize, i);
                ws.clusters[c].end -= 1;
                ws.touched.push(pos);
            }
            Patch::AddEdge { from, to, weight } => {
                if from >= to {
                    return false;
                }
                let row = k.pred[to as usize];
                push_row(&mut k.pred_w, row, weight);
                k.pred[to as usize] = push_row(&mut k.pred_pos, row, from);
                let f = from as usize;
                k.succ[f] = push_row(&mut k.succ_pos, k.succ[f], to);
                ws.touched.push(to);
            }
            Patch::RemoveEdge { from, to } => {
                let row = k.pred[to as usize];
                let i = find_in_row(&k.pred_pos, row, from);
                swap_remove_row(&mut k.pred_w, row, i);
                k.pred[to as usize] = swap_remove_row(&mut k.pred_pos, row, i);
                let f = from as usize;
                let j = find_in_row(&k.succ_pos, k.succ[f], to);
                k.succ[f] = swap_remove_row(&mut k.succ_pos, k.succ[f], j);
                ws.touched.push(to);
            }
            Patch::SetSize { pos, size } => {
                k.size[pos as usize] = size;
                ws.touched.push(pos);
            }
            Patch::SetWeight { from, to, weight } => {
                let i = find_in_row(&k.pred_pos, k.pred[to as usize], from);
                k.pred_w[i] = weight;
                ws.touched.push(to);
            }
        }
        let hops = self.system.distances().as_matrix();
        ws.total = k.sweep_from(&ws.touched, &mut ws.machine, hops);
        ws.bound = Some(k.sweep_from(&ws.touched, &mut ws.ideal, &Closure));
        k.undo_end.clear();
        true
    }

    /// Move cluster `a` to processor `s` if that is an actual change,
    /// recording the undo entry.
    #[inline]
    fn push_move(&mut self, a: usize, s: usize) {
        let old = self.ws.assignment.sys_of(a);
        if old != s {
            self.ws.undo_moves.push((a, old));
            self.ws.assignment.place(a, s);
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
        assert_eq!(candidate.len(), self.ws.assignment.len(), "candidate size");
        for a in 0..candidate.len() {
            self.push_move(a, candidate.sys_of(a));
        }
        self.eval_staged()
    }

    /// Stage the pairwise exchange of clusters `a` and `b`.
    pub fn stage_swap(&mut self, a: usize, b: usize) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        let (sa, sb) = (self.ws.assignment.sys_of(a), self.ws.assignment.sys_of(b));
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
    /// window they span — or, when they own at least
    /// 1/[`DENSE_CUT`] of all positions, every position from the first
    /// of them on.
    fn eval_precedence(&mut self) -> Time {
        let ws = &mut *self.ws;
        let (mut lo, mut hi, mut moved) = (usize::MAX, 0, 0);
        for i in 0..ws.undo_moves.len() {
            let c = ws.undo_moves[i].0;
            let s = ws.assignment.sys_of(c) as u32;
            let owned = ws.clusters[c].range();
            for &p in &ws.cluster_pos[owned.clone()] {
                ws.machine.host[p as usize] = s;
                ws.kernel.flags[p as usize] = DIRTY | MOVED;
            }
            // Clusters are never empty and their positions ascend.
            lo = lo.min(ws.cluster_pos[owned.start] as usize);
            hi = hi.max(ws.cluster_pos[owned.end - 1] as usize + 1);
            moved += owned.len();
        }
        if lo >= hi {
            return ws.total; // nothing moved
        }
        let hops = self.system.distances().as_matrix();
        if moved >= ws.kernel.size.len().div_ceil(DENSE_CUT) {
            ws.kernel.sweep_tail(&mut ws.machine, hops, lo)
        } else {
            ws.kernel.sweep::<true, _>(&mut ws.machine, hops, lo, hi)
        }
    }

    /// The serialized total of the current assignment: the one list
    /// scheduler, run on the workspace's scratch.
    fn list_schedule(&mut self) -> Time {
        let graph = self
            .graph
            .expect("a serialized evaluator is attached to its graph");
        let system = self.system;
        let ws = &mut *self.ws;
        let assignment = &ws.assignment;
        ws.list.run(graph, |u, v, w| {
            edge_cost(graph, system, assignment, u, v, w)
        })
    }

    /// Accept the staged candidate: it becomes the committed state. The
    /// undo logs are simply dropped.
    pub fn commit(&mut self) {
        let total = self.staged.take().expect("no candidate staged");
        self.ws.kernel.undo_end.clear();
        self.ws.undo_moves.clear();
        self.ws.total = total;
    }

    /// Reject the staged candidate: every touched buffer is rolled back
    /// via the undo logs (`O(cone)`, like the evaluation itself).
    pub fn discard(&mut self) {
        assert!(self.staged.take().is_some(), "no candidate staged");
        let ws = &mut *self.ws;
        for (p, e) in ws.kernel.undo_end.drain(..) {
            ws.machine.end[p as usize] = e;
        }
        while let Some((a, old)) = ws.undo_moves.pop() {
            ws.assignment.place(a, old);
            if self.model == EvaluationModel::Precedence {
                for &p in &ws.cluster_pos[ws.clusters[a].range()] {
                    ws.machine.host[p as usize] = old as u32;
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
    fn patches_match_a_fresh_attach_and_refuse_edges_against_the_order() {
        use crate::ideal::IdealSchedule;
        use mimd_taskgraph::{DynamicWorkload, TraceEvent};
        let (g, sys) = worked();
        let a = Assignment::from_sys_of(vec![1, 3, 0, 2]).unwrap();
        let mut ws = DeltaWorkspace::new();
        let mut ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &a).unwrap();
        assert_eq!(ev.lower_bound(), None);
        assert_eq!(ev.track_bound(), IdealSchedule::derive(&g).lower_bound());
        let mut pos = ev.attached_positions().to_vec();
        let mut workload = DynamicWorkload::from_clustered(&g);
        let events = [
            (TraceEvent::SetTaskSize { task: 6, size: 5 }, None),
            (
                TraceEvent::SetEdgeWeight {
                    from: 6,
                    to: 8,
                    weight: 7,
                },
                None,
            ),
            (TraceEvent::RemoveEdge { from: 2, to: 4 }, None),
            (
                TraceEvent::AddTask {
                    task: 11,
                    size: 4,
                    cluster: 3,
                },
                Some(Patch::AddTask {
                    size: 4,
                    cluster: 3,
                }),
            ),
            (
                TraceEvent::AddEdge {
                    from: 7,
                    to: 11,
                    weight: 5,
                },
                None,
            ),
            (
                TraceEvent::AddEdge {
                    from: 0,
                    to: 4,
                    weight: 3,
                },
                None,
            ),
            (TraceEvent::RemoveTask { task: 3 }, None),
            (TraceEvent::RemoveTask { task: 11 }, None),
        ];
        for (event, appended) in events {
            workload.apply(&event).unwrap();
            let patch = match (event, appended) {
                (_, Some(patch)) => {
                    pos.push(ev.positions() as u32);
                    patch
                }
                (TraceEvent::SetTaskSize { task, size }, _) => Patch::SetSize {
                    pos: pos[task],
                    size,
                },
                (TraceEvent::SetEdgeWeight { from, to, weight }, _) => Patch::SetWeight {
                    from: pos[from],
                    to: pos[to],
                    weight,
                },
                (TraceEvent::RemoveEdge { from, to }, _) => Patch::RemoveEdge {
                    from: pos[from],
                    to: pos[to],
                },
                (TraceEvent::AddEdge { from, to, weight }, _) => Patch::AddEdge {
                    from: pos[from],
                    to: pos[to],
                    weight,
                },
                (TraceEvent::RemoveTask { task }, _) => Patch::RemoveTask { pos: pos[task] },
                (other, _) => unreachable!("{other:?}"),
            };
            assert!(ev.patch(patch), "{patch:?}");
            let fresh = workload.materialize().unwrap();
            let model = EvaluationModel::Precedence;
            assert_eq!(ev.total(), full_total(&fresh, &sys, &a, model), "{patch:?}");
            assert_eq!(
                ev.lower_bound(),
                Some(IdealSchedule::derive(&fresh).lower_bound()),
                "{patch:?}"
            );
            let mut swapped = a.clone();
            swapped.swap_clusters(0, 2);
            assert_eq!(
                ev.stage_swap(0, 2),
                full_total(&fresh, &sys, &swapped, model)
            );
            ev.discard();
        }
        // Task 10 sits after task 2: an edge from it into task 2 runs
        // against the order and changes nothing.
        let (total, bound) = (ev.total(), ev.lower_bound());
        assert!(!ev.patch(Patch::AddEdge {
            from: pos[10],
            to: pos[2],
            weight: 1
        }));
        assert_eq!((ev.total(), ev.lower_bound()), (total, bound));
        assert_eq!(ev.positions(), 12, "the departed arrival is a tombstone");
    }

    #[test]
    fn a_precedence_instance_resumes_without_its_graph() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let committed = {
            let mut ev = DeltaEvaluator::attach(
                &mut ws,
                &g,
                &sys,
                EvaluationModel::Precedence,
                &Assignment::identity(4),
            )
            .unwrap();
            ev.stage_swap(1, 3);
            ev.commit();
            (ev.assignment().clone(), ev.total())
        };
        assert_eq!(ws.assignment(), &committed.0);
        let mut ev = DeltaEvaluator::resume(&mut ws, &sys);
        assert_eq!((ev.assignment().clone(), ev.total()), committed);
        let mut swapped = committed.0.clone();
        swapped.swap_clusters(0, 2);
        assert_eq!(
            ev.stage_swap(0, 2),
            full_total(&g, &sys, &swapped, EvaluationModel::Precedence)
        );
    }

    #[test]
    #[should_panic(expected = "precedence model")]
    fn a_serialized_instance_does_not_resume() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        DeltaEvaluator::attach(
            &mut ws,
            &g,
            &sys,
            EvaluationModel::Serialized,
            &Assignment::identity(4),
        )
        .unwrap();
        DeltaEvaluator::resume(&mut ws, &sys);
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
