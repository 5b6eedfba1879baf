//! Position-space rows: a task DAG laid out by *position* in a
//! topological order, so a sweep in position order meets every
//! predecessor first — the one layout the schedule kernel sweeps and an
//! online session edits. It comes in two parts:
//!
//! * [`PositionRows`], the DAG: per position the task's size and id, a
//!   predecessor row and a successor row (positions with edge weights,
//!   each ascending by task id once frozen), each row a range into one
//!   pool per kind. The kernel reads only this part. A
//!   [`ProblemGraph`](crate::ProblemGraph) *is* these rows:
//!   [`ProblemGraph::new`](crate::ProblemGraph::new) lays them out
//!   straight from its edge list, every task-space query reads them, and
//!   every clustering of the graph shares them.
//! * [`ClusterRows`], one clustering of it (`O(np)`): the cluster at each
//!   position and each cluster's positions, ascending.
//!
//! A [`DynamicWorkload`](crate::DynamicWorkload) edits a copy of both in
//! place. A row that grows moves to the tail of its pool unless it
//! already ends there, leaving its old slots dead; a departed task leaves
//! a *tombstone* (size 0, no rows, in no cluster). A relayout renumbers
//! the live positions into a new topological order and packs every pool
//! again, which drops the tombstones and the dead slots.

use std::mem::size_of;
use std::ops::Range;

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};

use crate::{ClusterId, Clustering, TaskId};

/// A layout keeps its dead entries — tombstones, and pool slots no live
/// row covers — until, in positions or in any pool, they outnumber its
/// live ones `DEAD_PER_LIVE` to one and number more than [`MIN_DEAD`];
/// then the workload relays it out. A relayout costs `O(V + E)` and
/// follows at least as many deaths, so it is amortized into the
/// events, and a layout holds at most about twice its live entries (or
/// `MIN_DEAD` dead ones beside a small workload).
pub const DEAD_PER_LIVE: usize = 1;

/// The dead entries a layout may always keep, so a workload of a few
/// dozen tasks is not relaid out every few events.
pub const MIN_DEAD: usize = 64;

/// Positions, cluster ids and row offsets are stored as `u32`: the error
/// a count that would wrap is answered with.
pub fn fit_u32(what: &str, n: usize) -> Result<(), GraphError> {
    match u32::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(GraphError::InvalidParameter(format!(
            "{what} = {n} exceeds the u32 index range of position rows"
        ))),
    }
}

/// `true` once `dead` entries are too many beside `live` ones
/// ([`DEAD_PER_LIVE`], [`MIN_DEAD`]).
fn sparse(dead: usize, live: usize) -> bool {
    dead > (DEAD_PER_LIVE * live).max(MIN_DEAD)
}

/// Bytes allocated by `v`.
pub fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// One row of a pool: the slot range `(start, end)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span(u32, u32);

impl Span {
    #[inline]
    fn range(self) -> Range<usize> {
        self.0 as usize..self.1 as usize
    }
}

/// Rows sharing one pool: row `i` is `pos[span[i]]`, with a weight per
/// entry in `w`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Pool {
    span: Vec<Span>,
    pos: Vec<u32>,
    w: Vec<Weight>,
}

impl Pool {
    /// An empty pool with room for `rows` rows of `entries` entries.
    fn with_capacity(rows: usize, entries: usize) -> Pool {
        Pool {
            span: Vec::with_capacity(rows),
            pos: Vec::with_capacity(entries),
            w: Vec::with_capacity(entries),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.pos[self.span[i].range()]
    }

    #[inline]
    fn weighted(&self, i: usize) -> (&[u32], &[Weight]) {
        let r = self.span[i].range();
        (&self.pos[r.clone()], &self.w[r])
    }

    /// Append a row holding `entries` at the pool's end.
    fn push_row(&mut self, entries: impl Iterator<Item = (u32, Weight)>) {
        let start = self.pos.len() as u32;
        for (p, w) in entries {
            self.pos.push(p);
            self.w.push(w);
        }
        self.span.push(Span(start, self.pos.len() as u32));
    }

    /// Refuse growing row `i` by one past the `u32` index range.
    fn room(&self, i: usize) -> Result<(), GraphError> {
        fit_u32("row pool", self.pos.len() + self.span[i].range().len() + 1)
    }

    /// Insert `(p, w)` at offset `at` of row `i`, first moving the row to
    /// the pool's tail unless it already ends there. [`Pool::room`]
    /// has been checked.
    fn insert(&mut self, i: usize, at: usize, p: u32, w: Weight) {
        let span = self.span[i];
        if span.1 as usize != self.pos.len() {
            let start = self.pos.len() as u32;
            self.pos.extend_from_within(span.range());
            self.w.extend_from_within(span.range());
            self.span[i] = Span(start, self.pos.len() as u32);
        }
        self.pos.push(p);
        self.w.push(w);
        self.span[i].1 += 1;
        let slots = self.span[i].0 as usize + at..self.pos.len();
        self.pos[slots.clone()].rotate_right(1);
        self.w[slots].rotate_right(1);
    }

    /// The pool index of `p` in row `i`.
    fn slot(&self, i: usize, p: u32) -> usize {
        (self.span[i].range())
            .find(|&k| self.pos[k] == p)
            .expect("an entry is in its rows")
    }

    /// Remove `p` from row `i`, keeping the rest in order; returns its
    /// weight.
    fn remove(&mut self, i: usize, p: u32) -> Weight {
        let (k, end) = (self.slot(i, p), self.span[i].1 as usize);
        let w = self.w[k];
        self.pos.copy_within(k + 1..end, k);
        self.w.copy_within(k + 1..end, k);
        self.span[i].1 -= 1;
        w
    }

    /// `true` once the slots no row covers pass the `live` ones
    /// ([`sparse`]).
    fn is_sparse(&self, live: usize) -> bool {
        sparse(self.pos.len() - live, live)
    }

    fn bytes(&self) -> usize {
        bytes(&self.span) + bytes(&self.pos) + bytes(&self.w)
    }
}

/// The task DAG in position space (module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PositionRows {
    /// Execution time per position; 0 marks a tombstone.
    size: Vec<Time>,
    /// Task per position: the graph's task index after a freeze, the
    /// external id in a workload.
    task: Vec<TaskId>,
    /// Predecessor rows per position: ascending by task when frozen,
    /// unordered once a workload appends to them.
    pred: Pool,
    /// Successor rows per position, ascending by task.
    succ: Pool,
    /// Live (not tombstoned) positions and live edges.
    live: usize,
    edges: usize,
    /// Relayout scratch: the new position of each old one.
    scratch: Vec<u32>,
}

impl PositionRows {
    /// Lay the tasks out in the topological order `topo` (`pos[t]` is
    /// task `t`'s position), with execution times `sizes` and successor
    /// rows `succ(t)` ascending by task id, as both row kinds come out.
    /// [`ProblemGraph::new`](crate::ProblemGraph::new) has fit the task
    /// and edge counts to `u32`.
    pub(crate) fn freeze<'a>(
        sizes: &[Time],
        topo: Vec<TaskId>,
        pos: &[u32],
        succ: impl Fn(TaskId) -> &'a [(TaskId, Weight)],
    ) -> PositionRows {
        let n = topo.len();
        let e = (0..n).map(|t| succ(t).len()).sum();
        let mut rows = PositionRows {
            size: topo.iter().map(|&t| sizes[t]).collect(),
            pred: Pool {
                span: Vec::with_capacity(n),
                pos: vec![0; e],
                w: vec![0; e],
            },
            succ: Pool::with_capacity(n, e),
            live: n,
            edges: e,
            ..PositionRows::default()
        };
        let mut in_degree = vec![0u32; n];
        for &t in &topo {
            rows.succ
                .push_row(succ(t).iter().map(|&(v, w)| (pos[v], w)));
            for &(v, _) in succ(t) {
                in_degree[pos[v] as usize] += 1;
            }
        }
        // Predecessor rows are filled walking the tasks by ascending id,
        // so each ascends by task too.
        let mut end = 0;
        for d in in_degree {
            rows.pred.span.push(Span(end, end));
            end += d;
        }
        for u in 0..n {
            for &(v, w) in succ(u) {
                let span = &mut rows.pred.span[pos[v] as usize];
                rows.pred.pos[span.1 as usize] = pos[u];
                rows.pred.w[span.1 as usize] = w;
                span.1 += 1;
            }
        }
        rows.task = topo;
        rows
    }

    /// Number of positions, tombstones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// `true` iff there are no positions.
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Execution time at position `p` (0 for a tombstone).
    #[inline]
    pub fn size(&self, p: usize) -> Time {
        self.size[p]
    }

    /// Task at position `p`.
    #[inline]
    pub fn task(&self, p: usize) -> TaskId {
        self.task[p]
    }

    /// Task per position: a topological order of the tasks.
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.task
    }

    /// Predecessor row of position `p`: positions and edge weights,
    /// ascending by task in a frozen layout.
    #[inline]
    pub fn preds(&self, p: usize) -> (&[u32], &[Weight]) {
        self.pred.weighted(p)
    }

    /// Successor row of position `p`: positions and edge weights,
    /// ascending by task.
    #[inline]
    pub fn succs(&self, p: usize) -> (&[u32], &[Weight]) {
        self.succ.weighted(p)
    }

    /// The longest path through the DAG, one sweep in position order:
    /// each position costs its size, and an edge `u -> v` of weight `w`
    /// (positions) costs `cost(u, v, w)` — its weight, or 0 inside a
    /// cluster.
    pub fn longest_path(&self, cost: impl Fn(usize, usize, Weight) -> Weight) -> Time {
        let mut end = vec![0 as Time; self.len()];
        for p in 0..self.len() {
            let (preds, weights) = self.preds(p);
            let ready = preds.iter().zip(weights);
            let ready = ready.map(|(&u, &w)| end[u as usize] + cost(u as usize, p, w));
            end[p] = ready.max().unwrap_or(0) + self.size[p];
        }
        end.into_iter().max().unwrap_or(0)
    }

    /// Bytes held by the layout's buffers (capacities, not lengths).
    pub fn resident_bytes(&self) -> usize {
        bytes(&self.size)
            + bytes(&self.task)
            + bytes(&self.scratch)
            + self.pred.bytes()
            + self.succ.bytes()
    }

    /// Rename every task through `ids` (task `t` becomes `ids[t]`).
    pub(crate) fn relabel(&mut self, ids: &[TaskId]) {
        for t in &mut self.task {
            *t = ids[*t];
        }
    }

    /// Where successor row `p` holds (`Ok`) or would hold (`Err`) the
    /// edge to `task`, as an offset into the row.
    pub(crate) fn succ_slot(&self, p: usize, task: TaskId) -> Result<usize, usize> {
        self.succ
            .row(p)
            .binary_search_by_key(&task, |&v| self.task[v as usize])
    }

    /// Append a task at a new last position; returns it.
    pub(crate) fn push_task(&mut self, task: TaskId, size: Time) -> Result<u32, GraphError> {
        let p = self.size.len();
        fit_u32("positions", p + 1)?;
        self.size.push(size);
        self.task.push(task);
        self.pred.push_row(std::iter::empty());
        self.succ.push_row(std::iter::empty());
        self.live += 1;
        Ok(p as u32)
    }

    /// Make position `p` a tombstone: its edges leave its partners'
    /// rows.
    pub(crate) fn remove_task(&mut self, p: u32) {
        let at = p as usize;
        for k in self.pred.span[at].range() {
            self.succ.remove(self.pred.pos[k] as usize, p);
        }
        for k in self.succ.span[at].range() {
            self.pred.remove(self.succ.pos[k] as usize, p);
        }
        for pool in [&mut self.pred, &mut self.succ] {
            self.edges -= pool.span[at].range().len();
            pool.span[at].1 = pool.span[at].0;
        }
        self.size[at] = 0;
        self.live -= 1;
    }

    /// Add the edge `from -> to` of weight `w` at offset `at` of
    /// `from`'s successor row (the `Err` of [`Self::succ_slot`]).
    pub(crate) fn insert_edge(
        &mut self,
        from: u32,
        to: u32,
        at: usize,
        w: Weight,
    ) -> Result<(), GraphError> {
        let (f, t) = (from as usize, to as usize);
        self.succ.room(f)?;
        self.pred.room(t)?;
        self.succ.insert(f, at, to, w);
        self.pred.insert(t, self.pred.row(t).len(), from, w);
        self.edges += 1;
        Ok(())
    }

    /// Remove the live edge `from -> to`; returns its weight.
    pub(crate) fn delete_edge(&mut self, from: u32, to: u32) -> Weight {
        self.pred.remove(to as usize, from);
        self.edges -= 1;
        self.succ.remove(from as usize, to)
    }

    /// Set the weight of the live edge `from -> to`.
    pub(crate) fn set_weight(&mut self, from: u32, to: u32, w: Weight) {
        let k = self.pred.slot(to as usize, from);
        self.pred.w[k] = w;
        let k = self.succ.slot(from as usize, to);
        self.succ.w[k] = w;
    }

    /// Set the execution time at live position `p`.
    pub(crate) fn set_size(&mut self, p: u32, size: Time) {
        self.size[p as usize] = size;
    }

    /// Rewrite every edge weight `w` as `scale(w)` (dead slots too:
    /// nothing reads them).
    pub(crate) fn scale_weights(&mut self, scale: impl Fn(Weight) -> Weight) {
        for w in self.pred.w.iter_mut().chain(&mut self.succ.w) {
            *w = scale(*w);
        }
    }

    /// The positions of `lo..=hi` reachable from `lo`, as a mask over
    /// that window, or `None` if `hi` is one of them — the edge
    /// `hi -> lo` would close a cycle. Positions past `hi` cannot lead
    /// back into the window, so the search stays inside it.
    pub(crate) fn cone(&self, lo: u32, hi: u32) -> Option<Vec<bool>> {
        let (lo, hi) = (lo as usize, hi as usize);
        let mut seen = vec![false; hi - lo + 1];
        seen[0] = true;
        let mut stack = vec![lo];
        while let Some(p) = stack.pop() {
            if p == hi {
                return None;
            }
            for &v in self.succ.row(p) {
                let v = v as usize;
                if v <= hi && !seen[v - lo] {
                    seen[v - lo] = true;
                    stack.push(v);
                }
            }
        }
        Some(seen)
    }

    /// `true` once dead entries are too many beside live ones
    /// ([`DEAD_PER_LIVE`], [`MIN_DEAD`]) in positions or in either edge
    /// pool.
    pub(crate) fn is_sparse(&self) -> bool {
        sparse(self.size.len() - self.live, self.live)
            || self.pred.is_sparse(self.edges)
            || self.succ.is_sparse(self.edges)
    }

    /// Renumber: the live position `order[i]` becomes position `i`, and
    /// both edge pools are packed again in the new order. `order` lists
    /// every live position once, in a topological order. Each buffer
    /// keeps its capacity, so a layout's bytes follow its high-water
    /// size rather than rising and falling with every relayout.
    pub(crate) fn relayout(&mut self, order: &[u32]) {
        let mut old = std::mem::take(self);
        old.scratch.resize(old.size.len(), 0);
        for (new, &p) in order.iter().enumerate() {
            old.scratch[p as usize] = new as u32;
        }
        self.size = Vec::with_capacity(old.size.capacity());
        self.task = Vec::with_capacity(old.task.capacity());
        let like = |pool: &Pool| Pool::with_capacity(pool.span.capacity(), pool.pos.capacity());
        (self.pred, self.succ) = (like(&old.pred), like(&old.succ));
        let new_pos = &old.scratch;
        for &p in order {
            let p = p as usize;
            self.size.push(old.size[p]);
            self.task.push(old.task[p]);
            for (pool, rows) in [(&mut self.pred, &old.pred), (&mut self.succ, &old.succ)] {
                let (at, w) = rows.weighted(p);
                pool.push_row(at.iter().zip(w).map(|(&u, &w)| (new_pos[u as usize], w)));
            }
        }
        (self.live, self.edges) = (old.live, old.edges);
        self.scratch = old.scratch;
    }

    /// The position live position `p` had before the last relayout
    /// moved to.
    pub(crate) fn relaid(&self, p: u32) -> u32 {
        self.scratch[p as usize]
    }
}

/// One clustering of a [`PositionRows`] (module docs): the cluster at
/// each position and the positions of each cluster, ascending.
#[derive(Clone, Debug, Default)]
pub struct ClusterRows {
    /// Owning cluster per position.
    cluster: Vec<u32>,
    /// Positions per cluster, ascending (never a tombstone).
    members: Vec<Vec<u32>>,
}

impl ClusterRows {
    /// Lay `clustering` out over the positions of `rows`, reusing this
    /// layout's buffers.
    pub fn fill(&mut self, rows: &PositionRows, clustering: &Clustering) {
        let clusters = (0..rows.len()).map(|p| clustering.cluster_of(rows.task(p)));
        self.set(clustering.num_clusters(), clusters);
    }

    /// Put position `p` in cluster `clusters[p]` (of `nc`).
    fn set(&mut self, nc: usize, clusters: impl Iterator<Item = ClusterId>) {
        self.cluster.clear();
        self.cluster.extend(clusters.map(|c| c as u32));
        self.members.resize_with(nc, Vec::new);
        self.members.iter_mut().for_each(Vec::clear);
        for (p, &c) in self.cluster.iter().enumerate() {
            self.members[c as usize].push(p as u32);
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Cluster of position `p`.
    #[inline]
    pub fn cluster(&self, p: usize) -> ClusterId {
        self.cluster[p] as usize
    }

    /// Positions of cluster `c`, ascending (never a tombstone).
    #[inline]
    pub fn positions(&self, c: ClusterId) -> &[u32] {
        &self.members[c]
    }

    /// Bytes held by the layout's buffers (capacities, not lengths).
    pub fn resident_bytes(&self) -> usize {
        let members: usize = self.members.iter().map(bytes).sum();
        bytes(&self.cluster) + bytes(&self.members) + members
    }

    /// Put the new last position `p` in cluster `c`.
    pub(crate) fn push(&mut self, p: u32, c: ClusterId) {
        self.cluster.push(c as u32);
        self.members[c].push(p);
    }

    /// Take position `p` out of its cluster (it becomes a tombstone).
    pub(crate) fn remove(&mut self, p: u32) {
        let members = &mut self.members[self.cluster[p as usize] as usize];
        members.retain(|&q| q != p);
    }

    /// Renumber as [`PositionRows::relayout`] does with the same
    /// `order`.
    pub(crate) fn relayout(&mut self, order: &[u32]) {
        let clusters: Vec<ClusterId> = order.iter().map(|&p| self.cluster(p as usize)).collect();
        self.set(self.num_clusters(), clusters.into_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// The worked example's frozen DAG and its clustering's rows.
    fn worked() -> (PositionRows, ClusterRows) {
        let graph = paper::worked_example();
        let rows = graph.problem().graph().clone();
        let mut clusters = ClusterRows::default();
        clusters.fill(&rows, graph.clustering());
        (rows, clusters)
    }

    /// Every edge sits in both of its rows with one weight, successor
    /// rows ascend by task, cluster rows list exactly the live
    /// positions of their cluster in ascending order, every edge runs
    /// forward, and the counts match.
    fn assert_rows_agree(rows: &PositionRows, clusters: &ClusterRows) {
        let mut edges = 0;
        for p in 0..rows.len() {
            let (succs, weights) = rows.succs(p);
            edges += succs.len();
            let ids: Vec<TaskId> = succs.iter().map(|&v| rows.task(v as usize)).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "row {p} ascends");
            for (&v, &w) in succs.iter().zip(weights) {
                assert!(p < v as usize, "edge {p} -> {v} runs forward");
                let (preds, pw) = rows.preds(v as usize);
                let back = preds
                    .iter()
                    .zip(pw)
                    .any(|(&u, &x)| (u as usize, x) == (p, w));
                assert!(back, "edge {p} -> {v} is in both rows");
            }
            let in_degree = (0..rows.len())
                .filter(|&u| rows.succs(u).0.contains(&(p as u32)))
                .count();
            assert_eq!(rows.preds(p).0.len(), in_degree);
        }
        assert_eq!(edges, rows.edge_count());
        for c in 0..clusters.num_clusters() {
            let expected: Vec<u32> = (0..rows.len())
                .filter(|&p| rows.size(p) != 0 && clusters.cluster(p) == c)
                .map(|p| p as u32)
                .collect();
            assert_eq!(clusters.positions(c), expected, "cluster {c}");
        }
    }

    #[test]
    fn edits_and_relayouts_keep_the_rows_consistent() -> Result<(), GraphError> {
        let (mut rows, mut clusters) = worked();
        assert_rows_agree(&rows, &clusters);
        let n = rows.len() as u32;
        let new = rows.push_task(99, 4)?;
        clusters.push(new, 2);
        assert_eq!(new, n);
        for (from, w) in [(0, 3), (1, 5)] {
            let at = rows.succ_slot(from, 99);
            assert!(at.is_err(), "the edge is new");
            rows.insert_edge(from as u32, new, at.unwrap_or_else(|at| at), w)?;
        }
        assert_rows_agree(&rows, &clusters);
        assert_eq!(rows.preds(new as usize), (&[0, 1][..], &[3, 5][..]));
        rows.set_weight(0, new, 7);
        assert_eq!(rows.delete_edge(0, new), 7);
        rows.remove_task(1);
        clusters.remove(1);
        assert_rows_agree(&rows, &clusters);
        assert_eq!(rows.preds(new as usize).0, &[] as &[u32]);
        // Dead entries now exceed live ones in the successor pool.
        let order: Vec<u32> = (0..rows.len() as u32)
            .filter(|&p| rows.size(p as usize) != 0)
            .collect();
        rows.relayout(&order);
        clusters.relayout(&order);
        assert_rows_agree(&rows, &clusters);
        assert_eq!(rows.len(), order.len());
        assert_eq!(rows.relaid(new), new - 1, "one tombstone before it");
        Ok(())
    }

    #[test]
    fn the_frozen_dag_holds_every_problem_edge_once_with_its_weight() -> Result<(), GraphError> {
        // Task ids that are not topologically numbered: the rows are laid
        // out by position, and map back to the graph's task ids.
        let problem = crate::workloads::gaussian_elimination(6, 3, 5, 2)?;
        let rows = problem.graph();
        let mut seen = Vec::new();
        for p in 0..rows.len() {
            assert_eq!(problem.topo_order()[p], rows.task(p));
            assert_eq!(rows.size(p), problem.size(rows.task(p)));
            let (preds, weights) = rows.preds(p);
            for (&u, &w) in preds.iter().zip(weights) {
                seen.push((rows.task(u as usize), rows.task(p), w));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, problem.edges().collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn cluster_rows_hold_no_edge() -> Result<(), GraphError> {
        // The cluster part is the same size for a graph with no edges.
        let graph = paper::worked_example();
        let sizes = graph.problem().sizes().to_vec();
        let bare = crate::ProblemGraph::new(sizes, &[])?;
        let (mut full, mut none) = (ClusterRows::default(), ClusterRows::default());
        full.fill(graph.problem().graph(), graph.clustering());
        none.fill(bare.graph(), graph.clustering());
        assert_eq!(full.resident_bytes(), none.resident_bytes());
        Ok(())
    }

    #[test]
    fn the_cone_is_the_forward_reach_inside_the_window() {
        let (rows, _) = worked();
        let n = rows.len();
        let reach = |from: usize| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(p) = stack.pop() {
                if !std::mem::replace(&mut seen[p], true) {
                    stack.extend(rows.succs(p).0.iter().map(|&v| v as usize));
                }
            }
            seen
        };
        for lo in 0..n {
            let seen = reach(lo);
            for hi in lo + 1..n {
                match rows.cone(lo as u32, hi as u32) {
                    None => assert!(seen[hi], "{lo} reaches {hi}"),
                    Some(cone) => {
                        assert!(!seen[hi]);
                        let expected: Vec<bool> = (lo..=hi).map(|p| seen[p]).collect();
                        assert_eq!(cone, expected, "{lo}..={hi}");
                    }
                }
            }
        }
    }
}
