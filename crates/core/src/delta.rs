//! Incremental (delta) evaluation of assignment changes — the
//! refinement hot path — and the live instance an online session
//! repairs event by event.
//!
//! Every refinement loop in the repo asks the same question thousands of
//! times: *what would the total time be if these clusters moved?*
//! [`DeltaEvaluator`] keeps the committed schedule alive and answers it
//! at the cost of the edges the candidate actually disturbs.
//!
//! **Position space.** The evaluator sweeps [`PositionRows`], the DAG
//! laid out by position in a topological order (sizes, predecessor rows
//! carrying the edge weights, successor rows), beside [`ClusterRows`],
//! the positions of each cluster. A problem graph is frozen into its
//! rows once, when it is built; [`DeltaEvaluator::attach`] borrows them
//! and fills only the `O(np)` cluster rows, in the workspace. An online
//! session's evaluator borrows both from its workload. Per position the
//! evaluator keeps the host of the position's cluster and the committed
//! end time. Ascending position *is* topological order, so no candidate
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
//! [`repair`](DeltaEvaluator::repair) and a session's region candidates
//! stay below: 1–6 % of positions on a 256-node torus. Region
//! candidates of an event that touches many regions (up to 47 %), or
//! of a region that is most of a small machine, go dense. The cut is
//! the measured break-even with margin (README, "Performance").
//!
//! **One recurrence.** The kernel takes its distance as a parameter:
//! the machine's hop matrix, or the system graph closure of §4.1 (one
//! hop between clusters, none within). It is the only place a
//! precedence schedule is derived: swept once from scratch, it is
//! [`evaluate_assignment`](crate::evaluate_assignment) under the hop
//! matrix and [`IdealSchedule::derive`](crate::IdealSchedule::derive)
//! under the closure, mapped back to task ids. The serialized model has
//! one list scheduler, on the same rows and hosts.
//!
//! **Live instance.** An online session's evaluator runs on the rows
//! of its `DynamicWorkload`, which are the session's only copy of the
//! graph: [`DeltaEvaluator::attach_rows`] — the constructor
//! [`DeltaEvaluator::attach`] shares — hosts them under an assignment
//! and sweeps the machine's schedule from scratch, and
//! [`DeltaEvaluator::track_bound`] adds a second one, the ideal
//! schedule, whose makespan is the lower bound. The workload edits
//! its rows in place per event and reports the positions it touched;
//! [`DeltaEvaluator::resume`] picks the instance up again on the edited
//! rows, and [`DeltaEvaluator::repair`] hosts the new positions and
//! repairs the total and the bound with one sweep each from the touched
//! ones. When the workload renumbers its positions (an edge against
//! the order, or a compaction), the session attaches to the rows again;
//! neither path builds a graph.
//!
//! Exactness contract: every staged total equals the total of the
//! paper's task-space recurrence — an independent reference kept under
//! `tests/reference/` — **bit for bit**, and each from-scratch
//! evaluation and ideal schedule equals it task by task
//! (property-tested in `tests/delta.rs` for both models, pins on and
//! off, on graphs whose task ids are not topologically numbered). A
//! repaired instance prices every candidate, and reports the bound,
//! exactly as a fresh attach to the materialized graph would
//! (`mimd-online`'s `tests/properties.rs`). The precedence model is
//! repaired incrementally; the serialized model's greedy list schedule
//! reorders globally under any move, so every candidate reruns the list
//! scheduler in full — allocation-free, on scratch the workspace keeps.
//!
//! All buffers live in a caller-owned [`DeltaWorkspace`] so batch loops
//! (flat refinement, the multilevel V-cycle, online sessions) reuse one
//! workspace across attachments — zero allocation per candidate, and
//! none per level either once the buffers have grown to size.

use mimd_graph::error::GraphError;
use mimd_graph::matrix::SquareMatrix;
use mimd_graph::Time;
use mimd_taskgraph::rows::{bytes, fit_u32, ClusterRows, PositionRows};
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::schedule::{EvaluationModel, Schedule};

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

/// A distance the schedule kernel charges edges by: a predecessor edge
/// of weight `w` into a position hosted on `host` costs `w ×
/// hops(row_of(host), host of the predecessor)`. The row is read once
/// per position.
pub(crate) trait Distance {
    type Row<'d>: Copy
    where
        Self: 'd;
    fn row_of(&self, host: u32) -> Self::Row<'_>;
    fn hops(row: Self::Row<'_>, other: u32) -> Time;
}

/// The machine: hosts are processors, hops come from the distance
/// matrix.
impl Distance for SquareMatrix<u16> {
    type Row<'d> = &'d [u16];

    #[inline]
    fn row_of(&self, host: u32) -> &[u16] {
        self.row(host as usize)
    }

    #[inline]
    fn hops(row: &[u16], other: u32) -> Time {
        Time::from(row[other as usize])
    }
}

/// The system graph closure of the ideal schedule (§4.1): hosts are
/// clusters, every cross-cluster message costs its weight once and an
/// intra-cluster one nothing.
pub(crate) struct Closure;

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

/// The schedule kernel's scratch: flags and the undo log of one sweep.
#[derive(Clone, Debug, Default)]
struct Kernel {
    /// `DIRTY | MOVED` bits per position; all zero between sweeps.
    flags: Vec<u8>,
    /// Undo log of `(position, old_end)` for the staged sweep.
    undo_end: Vec<(u32, Time)>,
}

impl Kernel {
    /// The schedule kernel: recompute every flagged position of
    /// `lo..hi` of `track` over `rows` in ascending (= topological)
    /// order under `dist`, and return the makespan. With `PROPAGATE` a
    /// recomputed position flags its successors — raising `hi` — when
    /// it shifted or its cluster moved; without it the caller has
    /// flagged every position that can change, and the sweep only
    /// recomputes them. Shifted end times land in `undo_end`; every
    /// flag is clear again on return.
    fn sweep<const PROPAGATE: bool, D: Distance>(
        &mut self,
        rows: &PositionRows,
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
                let (preds, weights) = rows.preds(p);
                let mut s: Time = 0;
                for (&u, &w) in preds.iter().zip(weights) {
                    let u = u as usize;
                    s = s.max(track.end[u] + w * D::hops(row, track.host[u]));
                }
                let e = s + rows.size(p);
                let shifted = e != track.end[p];
                if shifted {
                    self.undo_end.push((p as u32, track.end[p]));
                    track.end[p] = e;
                }
                if PROPAGATE && (shifted || flag & MOVED != 0) {
                    for &v in rows.succs(p).0 {
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
    fn sweep_from<D: Distance>(
        &mut self,
        rows: &PositionRows,
        touched: &[u32],
        track: &mut Track,
        dist: &D,
    ) -> Time {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &p in touched {
            self.flags[p as usize] |= DIRTY;
            lo = lo.min(p as usize);
            hi = hi.max(p as usize + 1);
        }
        self.sweep::<true, D>(rows, track, dist, lo.min(hi), hi)
    }

    /// Flag every position from `lo` on and recompute them all, with no
    /// propagation: the sweep for a change that disturbs most of the
    /// schedule from `lo` on, and, from 0, the from-scratch schedule.
    fn sweep_tail<D: Distance>(
        &mut self,
        rows: &PositionRows,
        track: &mut Track,
        dist: &D,
        lo: usize,
    ) -> Time {
        let n = self.flags.len();
        self.flags[lo..].fill(DIRTY);
        self.sweep::<false, D>(rows, track, dist, lo, n)
    }
}

/// `Track::end` of a position the list scheduler has not placed.
const UNSCHEDULED: Time = Time::MAX;

/// The serialized model's list scheduler (ablation A3): each host runs
/// one task at a time. Among the positions whose predecessors have all
/// finished it repeatedly starts the one with the earliest feasible
/// start, `max(data ready, host free)`, ties by *task id*, so the
/// schedule does not depend on the layout. The workspace keeps its
/// buffers.
#[derive(Clone, Debug, Default)]
struct ListScratch {
    /// Unfinished predecessor count per position.
    remaining: Vec<u32>,
    /// Data-ready time per position: its latest message arrival so far.
    ready: Vec<Time>,
    /// Time each host falls free.
    free: Vec<Time>,
}

impl ListScratch {
    /// List-schedule `rows` with position `p` on `track.host[p]` (one of
    /// `hosts`) under `dist`; leaves every end time in `track.end` and
    /// returns the makespan.
    fn run<D: Distance>(
        &mut self,
        rows: &PositionRows,
        track: &mut Track,
        dist: &D,
        hosts: usize,
    ) -> Time {
        let n = rows.len();
        self.remaining.clear();
        (self.remaining).extend((0..n).map(|p| rows.preds(p).0.len() as u32));
        self.ready.clear();
        self.ready.resize(n, 0);
        self.free.clear();
        self.free.resize(hosts, 0);
        track.end.clear();
        track.end.resize(n, UNSCHEDULED);
        for _ in 0..n {
            let mut best = None;
            for p in 0..n {
                if track.end[p] != UNSCHEDULED || self.remaining[p] > 0 {
                    continue;
                }
                let feasible = self.ready[p].max(self.free[track.host[p] as usize]);
                let key = (feasible, rows.task(p));
                if best.is_none_or(|(best, _)| key < best) {
                    best = Some((key, p));
                }
            }
            let ((s, _), p) = best.expect("a DAG always has a ready task");
            let e = s + rows.size(p);
            track.end[p] = e;
            self.free[track.host[p] as usize] = e;
            let row = dist.row_of(track.host[p]);
            let (succs, weights) = rows.succs(p);
            for (&v, &w) in succs.iter().zip(weights) {
                let v = v as usize;
                self.remaining[v] -= 1;
                self.ready[v] = self.ready[v].max(e + w * D::hops(row, track.host[v]));
            }
        }
        track.end.iter().copied().max().unwrap_or(0)
    }
}

/// The paper's `na = ns` for `clusters` clusters, and the assignment's
/// size: the one validation every evaluator entry point runs.
fn check_sizes(
    clusters: usize,
    system: &SystemGraph,
    assignment: &Assignment,
) -> Result<(), GraphError> {
    for left in [clusters, assignment.len()] {
        if left != system.len() {
            let right = system.len();
            return Err(GraphError::SizeMismatch { left, right });
        }
    }
    Ok(())
}

/// One schedule of `graph` from scratch: every position of its frozen
/// rows on `host_of` its cluster (one of `hosts`), swept once under
/// `dist` — by the kernel under the precedence model, by the list
/// scheduler under the serialized one.
pub(crate) fn from_scratch<D: Distance>(
    graph: &ClusteredProblemGraph,
    model: EvaluationModel,
    dist: &D,
    hosts: usize,
    host_of: impl Fn(ClusterId) -> u32,
) -> Schedule {
    let rows = graph.problem().graph();
    let n = rows.len();
    let host = (0..n).map(|p| host_of(graph.cluster_of(rows.task(p))));
    let mut track = Track {
        host: host.collect(),
        end: vec![0; n],
    };
    if model == EvaluationModel::Precedence {
        // Every position shifts once from 0: room for the whole log.
        let (flags, undo_end) = (vec![0; n], Vec::with_capacity(n));
        Kernel { flags, undo_end }.sweep_tail(rows, &mut track, dist, 0);
    } else {
        ListScratch::default().run(rows, &mut track, dist, hosts);
    }
    Schedule::from_ends(rows, &track.end)
}

/// The schedule of `assignment` (§4.3.4): each cluster on its processor,
/// each edge charged `w × hops`.
pub(crate) fn machine_schedule(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> Result<Schedule, GraphError> {
    check_sizes(graph.num_clusters(), system, assignment)?;
    let hops = system.distances().as_matrix();
    let host_of = |c| assignment.sys_of(c) as u32;
    Ok(from_scratch(graph, model, hops, system.len(), host_of))
}

/// Reusable buffer bag for [`DeltaEvaluator`]. Create once, pass to
/// every [`DeltaEvaluator::attach`]; buffers are resized (never shrunk
/// below capacity) on attach and reused across candidates and
/// attachments. Everything indexed "per position" is indexed by
/// position in the rows the evaluator sweeps; every buffer is `O(np +
/// ns)`, and none holds an edge. The workspace also holds the committed
/// state — assignment, total and, once tracked, the lower bound — so a
/// precedence instance can be [resumed](DeltaEvaluator::resume) after
/// its evaluator is gone.
#[derive(Clone, Debug, Default)]
pub struct DeltaWorkspace {
    /// The cluster rows a batch [`attach`](DeltaEvaluator::attach) fills
    /// (an evaluator on a workload's rows borrows the workload's).
    clusters: ClusterRows,
    state: State,
}

/// Everything of a workspace but the cluster rows, so an evaluator can
/// borrow them from elsewhere.
#[derive(Clone, Debug, Default)]
struct State {
    kernel: Kernel,
    /// The machine schedule (precedence model): the processor hosting
    /// each position's cluster under the committed assignment plus the
    /// staged moves, and the end times of the same state.
    machine: Track,
    /// The ideal schedule of a tracked bound: each position's cluster
    /// and its end time on the system graph closure.
    ideal: Track,
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
    /// repaired or committed to since).
    pub fn assignment(&self) -> &Assignment {
        &self.state.assignment
    }

    /// Bytes held by the buffers that grow with the instance: the
    /// cluster rows and the per-position schedules, flags and undo logs
    /// (capacities).
    pub fn resident_bytes(&self) -> usize {
        let s = &self.state;
        let tracks = [&s.machine, &s.ideal].map(|t| bytes(&t.host) + bytes(&t.end));
        self.clusters.resident_bytes()
            + tracks.iter().sum::<usize>()
            + bytes(&s.kernel.flags)
            + bytes(&s.kernel.undo_end)
            + bytes(&s.undo_moves)
    }
}

/// Incremental evaluator over one `(rows, system, model)` triple.
///
/// Owns the committed assignment and schedule (kept in its workspace);
/// candidates are *staged* (moves applied, schedule swept, total read)
/// and then either [`commit`](DeltaEvaluator::commit)ted — the
/// candidate becomes the new committed state — or
/// [`discard`](DeltaEvaluator::discard)ed, rolling every touched buffer
/// back via the undo logs.
pub struct DeltaEvaluator<'a, 'w> {
    system: &'a SystemGraph,
    model: EvaluationModel,
    rows: &'w PositionRows,
    clusters: &'w ClusterRows,
    ws: &'w mut State,
    staged: Option<Time>,
}

impl<'a, 'w> DeltaEvaluator<'a, 'w> {
    /// Attach `ws` to an instance and build the committed schedule of
    /// `start`: the problem's frozen rows, borrowed, under the graph's
    /// clustering, filled into the workspace. Validation (and the error
    /// cases) are identical to
    /// [`evaluate_assignment`](crate::evaluate_assignment), plus
    /// `InvalidParameter` for a machine whose processor count does not
    /// fit the `u32` hosts.
    pub fn attach(
        ws: &'w mut DeltaWorkspace,
        graph: &'w ClusteredProblemGraph,
        system: &'a SystemGraph,
        model: EvaluationModel,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        let DeltaWorkspace { clusters, state } = ws;
        let rows = graph.problem().graph();
        clusters.fill(rows, graph.clustering());
        DeltaEvaluator::new(state, rows, clusters, system, model, start)
    }

    /// Attach `ws` to a precedence instance whose rows the caller keeps
    /// — an online session's workload — and build the committed
    /// schedule of `start` from scratch. `clusters` must have one
    /// cluster per processor of `system`.
    pub fn attach_rows(
        ws: &'w mut DeltaWorkspace,
        (rows, clusters): (&'w PositionRows, &'w ClusterRows),
        system: &'a SystemGraph,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        let model = EvaluationModel::Precedence;
        DeltaEvaluator::new(&mut ws.state, rows, clusters, system, model, start)
    }

    /// The one constructor: validate, host every position under
    /// `start` and build the committed schedule.
    fn new(
        ws: &'w mut State,
        rows: &'w PositionRows,
        clusters: &'w ClusterRows,
        system: &'a SystemGraph,
        model: EvaluationModel,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        check_sizes(clusters.num_clusters(), system, start)?;
        fit_u32("ns", system.len())?;
        let mut evaluator = DeltaEvaluator {
            system,
            model,
            rows,
            clusters,
            ws,
            staged: None,
        };
        evaluator.host(start);
        Ok(evaluator)
    }

    /// Host every position on its cluster's processor under `start` and
    /// build the committed schedule from scratch.
    fn host(&mut self, start: &Assignment) {
        let (rows, ws) = (self.rows, &mut *self.ws);
        let n = rows.len();
        ws.machine.host.clear();
        (ws.machine.host).extend((0..n).map(|p| start.sys_of(self.clusters.cluster(p)) as u32));
        ws.machine.end.clear();
        ws.machine.end.resize(n, 0);
        ws.kernel.flags.clear();
        ws.kernel.flags.resize(n, 0);
        ws.kernel.undo_end.clear();
        ws.undo_moves.clear();
        ws.assignment.clone_from(start);
        ws.bound = None;
        ws.live = false;
        let hops = self.system.distances().as_matrix();
        ws.total = match self.model {
            EvaluationModel::Precedence => {
                // The from-scratch schedule; what it logs is no
                // candidate's.
                let total = ws.kernel.sweep_tail(rows, &mut ws.machine, hops, 0);
                ws.kernel.undo_end.clear();
                ws.live = true;
                total
            }
            EvaluationModel::Serialized => {
                (ws.list).run(rows, &mut ws.machine, hops, self.system.len())
            }
        };
    }

    /// Pick up the precedence instance `ws` holds on `rows` and
    /// `clusters` — the rows it was last attached to, edited since only
    /// as the workload edits them (call
    /// [`repair`](DeltaEvaluator::repair) before pricing) — on `system`,
    /// the machine it was attached on. Needs no graph: the committed
    /// assignment and the end times live in the workspace. Panics if the
    /// workspace holds no precedence instance or `system` has another
    /// size.
    pub fn resume(
        ws: &'w mut DeltaWorkspace,
        (rows, clusters): (&'w PositionRows, &'w ClusterRows),
        system: &'a SystemGraph,
    ) -> Self {
        assert!(
            ws.state.live,
            "resume needs a workspace attached under the precedence model"
        );
        assert!(
            ws.state.undo_moves.is_empty(),
            "an evaluator left a candidate staged"
        );
        assert_eq!(
            ws.state.assignment.len(),
            system.len(),
            "resumed on another machine"
        );
        DeltaEvaluator {
            system,
            model: EvaluationModel::Precedence,
            rows,
            clusters,
            ws: &mut ws.state,
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

    /// The tracked ideal-graph lower bound (`None` until
    /// [`track_bound`](DeltaEvaluator::track_bound)).
    pub fn lower_bound(&self) -> Option<Time> {
        self.ws.bound
    }

    /// Derive the ideal schedule (§4.1) in the instance's second set of
    /// end times — the schedule kernel swept over the system graph
    /// closure — and keep it: from here on every
    /// [`repair`](DeltaEvaluator::repair) repairs the lower bound along
    /// with the total. Returns the bound. Batch refinement never calls
    /// this, so its attach does no extra work. Precedence model only.
    pub fn track_bound(&mut self) -> Time {
        assert_eq!(
            self.model,
            EvaluationModel::Precedence,
            "bounds track the precedence model"
        );
        assert!(self.staged.is_none(), "candidate still staged");
        let (rows, ws) = (self.rows, &mut *self.ws);
        ws.ideal.host.clear();
        (ws.ideal.host).extend((0..rows.len()).map(|p| self.clusters.cluster(p) as u32));
        ws.ideal.end.clear();
        ws.ideal.end.resize(rows.len(), 0);
        let bound = ws.kernel.sweep_tail(rows, &mut ws.ideal, &Closure, 0);
        ws.kernel.undo_end.clear();
        ws.bound = Some(bound);
        bound
    }

    /// Bring the instance up to rows the workload edited in place: host
    /// the positions appended since (arrivals), then repair the
    /// committed total and the tracked bound with one sweep each, started
    /// from the `touched` positions (an event's
    /// `EventImpact::touched_positions`). Panics while a candidate is
    /// staged or without a tracked bound.
    pub fn repair(&mut self, touched: &[u32]) {
        assert!(self.staged.is_none(), "candidate still staged");
        assert!(self.ws.bound.is_some(), "repairing needs a tracked bound");
        let (rows, ws) = (self.rows, &mut *self.ws);
        for p in ws.machine.host.len()..rows.len() {
            let c = self.clusters.cluster(p);
            ws.machine.host.push(ws.assignment.sys_of(c) as u32);
            ws.ideal.host.push(c as u32);
        }
        for v in [&mut ws.machine.end, &mut ws.ideal.end] {
            v.resize(rows.len(), 0);
        }
        ws.kernel.flags.resize(rows.len(), 0);
        let hops = self.system.distances().as_matrix();
        ws.total = ws.kernel.sweep_from(rows, touched, &mut ws.machine, hops);
        ws.bound = Some(ws.kernel.sweep_from(rows, touched, &mut ws.ideal, &Closure));
        ws.kernel.undo_end.clear();
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

    /// Re-host the moved clusters' positions and price the staged
    /// assignment. Under the precedence model the positions are flagged
    /// and the window they span is swept — or, when they own at least
    /// 1/[`DENSE_CUT`] of all positions, every position from the first
    /// of them on; under the serialized model the list scheduler reruns
    /// in full, allocation-free.
    fn eval_staged(&mut self) -> Time {
        let (rows, ws) = (self.rows, &mut *self.ws);
        let precedence = self.model == EvaluationModel::Precedence;
        let (mut lo, mut hi, mut moved) = (usize::MAX, 0, 0);
        for &(c, _) in &ws.undo_moves {
            let s = ws.assignment.sys_of(c) as u32;
            let owned = self.clusters.positions(c);
            for &p in owned {
                ws.machine.host[p as usize] = s;
                if precedence {
                    ws.kernel.flags[p as usize] = DIRTY | MOVED;
                }
            }
            // Clusters are never empty and their positions ascend.
            lo = lo.min(owned[0] as usize);
            hi = hi.max(owned[owned.len() - 1] as usize + 1);
            moved += owned.len();
        }
        let hops = self.system.distances().as_matrix();
        let total = if lo >= hi {
            ws.total // nothing moved
        } else if !precedence {
            (ws.list).run(rows, &mut ws.machine, hops, self.system.len())
        } else if moved >= rows.len().div_ceil(DENSE_CUT) {
            ws.kernel.sweep_tail(rows, &mut ws.machine, hops, lo)
        } else {
            (ws.kernel).sweep::<true, _>(rows, &mut ws.machine, hops, lo, hi)
        };
        self.staged = Some(total);
        total
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
            for &p in self.clusters.positions(a) {
                ws.machine.host[p as usize] = old as u32;
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
    fn a_batch_attach_holds_no_edge_rows() -> Result<(), GraphError> {
        // The same tasks and clusters with and without their edges: the
        // workspace borrows the frozen rows, so it holds the same bytes.
        use mimd_taskgraph::ProblemGraph;
        let (g, sys) = worked();
        let problem = ProblemGraph::new(g.problem().sizes().to_vec(), &[])?;
        let bare = ClusteredProblemGraph::new(problem, g.clustering().clone())?;
        assert!(g.problem().graph().edge_count() > 0);
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut bytes = Vec::new();
            for graph in [&g, &bare] {
                let mut ws = DeltaWorkspace::new();
                DeltaEvaluator::attach(&mut ws, graph, &sys, model, &Assignment::identity(4))?;
                bytes.push(ws.resident_bytes());
            }
            assert_eq!(bytes[0], bytes[1], "{model:?}");
        }
        Ok(())
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
    fn repairs_match_a_fresh_attach_and_renumbers_re_attach() -> Result<(), GraphError> {
        use crate::ideal::IdealSchedule;
        use mimd_taskgraph::{DynamicWorkload, TraceEvent};
        let (g, sys) = worked();
        let a = Assignment::from_sys_of(vec![1, 3, 0, 2]).unwrap();
        let mut workload = DynamicWorkload::from_clustered(&g);
        let mut ws = DeltaWorkspace::new();
        let mut ev = DeltaEvaluator::attach_rows(&mut ws, workload.rows(), &sys, &a)?;
        assert_eq!(ev.lower_bound(), None);
        assert_eq!(ev.track_bound(), IdealSchedule::derive(&g).lower_bound());
        let events = [
            TraceEvent::SetTaskSize { task: 6, size: 5 },
            TraceEvent::SetEdgeWeight {
                from: 6,
                to: 8,
                weight: 7,
            },
            TraceEvent::RemoveEdge { from: 2, to: 4 },
            TraceEvent::AddTask {
                task: 11,
                size: 4,
                cluster: 3,
            },
            TraceEvent::AddEdge {
                from: 7,
                to: 11,
                weight: 5,
            },
            TraceEvent::AddEdge {
                from: 0,
                to: 4,
                weight: 3,
            },
            // Task 9 sits after task 1, which does not reach it: an
            // edge against the order that closes no cycle.
            TraceEvent::AddEdge {
                from: 9,
                to: 1,
                weight: 1,
            },
            TraceEvent::RemoveTask { task: 3 },
            TraceEvent::RemoveTask { task: 11 },
        ];
        let mut renumbered = 0;
        for event in events {
            let impact = workload.apply(&event)?;
            if impact.renumbered {
                renumbered += 1;
                DeltaEvaluator::attach_rows(&mut ws, workload.rows(), &sys, &a)?.track_bound();
            }
            let mut ev = DeltaEvaluator::resume(&mut ws, workload.rows(), &sys);
            ev.repair(&impact.touched_positions);
            let fresh = workload.materialize()?;
            let model = EvaluationModel::Precedence;
            assert_eq!(ev.total(), full_total(&fresh, &sys, &a, model), "{event:?}");
            assert_eq!(
                ev.lower_bound(),
                Some(IdealSchedule::derive(&fresh).lower_bound()),
                "{event:?}"
            );
            let mut swapped = a.clone();
            swapped.swap_clusters(0, 2);
            assert_eq!(
                ev.stage_swap(0, 2),
                full_total(&fresh, &sys, &swapped, model)
            );
            ev.discard();
        }
        assert!(renumbered >= 1, "the edge against the order renumbers");
        Ok(())
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
        let mut clusters = ClusterRows::default();
        clusters.fill(g.problem().graph(), g.clustering());
        let mut ev = DeltaEvaluator::resume(&mut ws, (g.problem().graph(), &clusters), &sys);
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
        let (rows, clusters) = (PositionRows::default(), ClusterRows::default());
        DeltaEvaluator::resume(&mut ws, (&rows, &clusters), &sys);
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
