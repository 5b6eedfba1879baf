//! Structured task-graph families from the paper's motivating domain.
//!
//! The paper's citations study mapping for concrete parallel programs:
//! finite-element graphs (Sadayappan & Ercal \[7\]), linear-algebra DAGs
//! (Gerasoulis & Nelken \[10\]) and Gaussian elimination on MIMD
//! machines (Cosnard et al. \[11\]). These constructors build those
//! graphs (plus the other classic shapes: stencil sweeps, FFT
//! butterflies, divide-and-conquer trees, fork–join chains) so the
//! examples and ablations can exercise the mapper on *recognizable*
//! workloads instead of only random DAGs.

use rand::Rng;

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};

use crate::problem::ProblemGraph;
use crate::trace::{DynamicWorkload, TraceEvent};
use crate::{ClusteredProblemGraph, TaskId};

/// Gaussian elimination on an `n × n` matrix (column-oriented, as in
/// Cosnard et al. \[11\]): task `(k)` is the pivot step on column `k`,
/// task `(k, j)` (k < j) updates column `j` with pivot `k`. The pivot of
/// step `k+1` depends on update `(k, k+1)`; update `(k, j)` depends on
/// pivot `k` and on update `(k-1, j)`.
///
/// `pivot_time`/`update_time` are per-task weights and `msg` the
/// communication weight of every edge.
pub fn gaussian_elimination(
    n: usize,
    pivot_time: Time,
    update_time: Time,
    msg: Weight,
) -> Result<ProblemGraph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter(
            "gaussian elimination needs n >= 2".into(),
        ));
    }
    if pivot_time == 0 || update_time == 0 || msg == 0 {
        return Err(GraphError::InvalidParameter("weights must be >= 1".into()));
    }
    // Task ids: pivot k (k in 0..n-1) first, then updates (k, j) for
    // k < j <= n-1, laid out row-major.
    let pivots = n - 1;
    let update_id = {
        // Prefix offsets for updates of pivot k: updates are (k, j),
        // j in k+1..n.
        let mut offsets = vec![0usize; pivots];
        let mut acc = pivots;
        for (k, slot) in offsets.iter_mut().enumerate() {
            *slot = acc;
            acc += n - 1 - k;
        }
        move |k: usize, j: usize| offsets[k] + (j - k - 1)
    };
    let total = pivots + (n - 1) * n / 2;
    let mut edges = Vec::new();
    let mut sizes = vec![update_time; total];
    sizes[..pivots].fill(pivot_time);
    for k in 0..pivots {
        for j in (k + 1)..n {
            let u = update_id(k, j);
            // Pivot k feeds update (k, j).
            edges.push((k, u, msg));
            // Update (k-1, j) feeds update (k, j).
            if k > 0 {
                edges.push((update_id(k - 1, j), u, msg));
            }
            // Update (k, k+1) produces the next pivot column.
            if j == k + 1 && k + 1 < pivots {
                edges.push((u, k + 1, msg));
            }
        }
    }
    ProblemGraph::new(sizes, &edges)
}

/// A 1-D stencil sweep: `width` cells iterated for `steps` time steps;
/// each cell depends on itself and its two neighbors from the previous
/// step — the communication pattern of finite-difference codes (and the
/// locality the paper's citation \[7\] maps onto meshes).
pub fn stencil_1d(
    width: usize,
    steps: usize,
    task_time: Time,
    msg: Weight,
) -> Result<ProblemGraph, GraphError> {
    if width == 0 || steps == 0 {
        return Err(GraphError::InvalidParameter(
            "stencil needs width, steps >= 1".into(),
        ));
    }
    if task_time == 0 || msg == 0 {
        return Err(GraphError::InvalidParameter("weights must be >= 1".into()));
    }
    let id = |t: usize, x: usize| t * width + x;
    let mut edges = Vec::new();
    for t in 1..steps {
        for x in 0..width {
            // Cells x - 1, x and x + 1 of the previous step, where they exist.
            for from in x.saturating_sub(1)..(x + 2).min(width) {
                edges.push((id(t - 1, from), id(t, x), msg));
            }
        }
    }
    ProblemGraph::new(vec![task_time; width * steps], &edges)
}

/// FFT butterfly: `2^log2n` points over `log2n` stages; stage `s` task
/// `i` depends on stage `s-1` tasks `i` and `i ^ 2^(s-1)` — the
/// communication skeleton that hypercubes were built for.
pub fn fft_butterfly(log2n: u32, task_time: Time, msg: Weight) -> Result<ProblemGraph, GraphError> {
    if log2n == 0 || log2n > 12 {
        return Err(GraphError::InvalidParameter(
            "fft needs 1 <= log2n <= 12".into(),
        ));
    }
    if task_time == 0 || msg == 0 {
        return Err(GraphError::InvalidParameter("weights must be >= 1".into()));
    }
    let n = 1usize << log2n;
    let stages = log2n as usize + 1; // data stage 0 + log2n butterfly stages
    let id = |s: usize, i: usize| s * n + i;
    let mut edges = Vec::with_capacity(2 * n * log2n as usize);
    for s in 1..stages {
        let stride = 1usize << (s - 1);
        for i in 0..n {
            edges.push((id(s - 1, i), id(s, i), msg));
            edges.push((id(s - 1, i ^ stride), id(s, i), msg));
        }
    }
    ProblemGraph::new(vec![task_time; n * stages], &edges)
}

/// Divide-and-conquer: a binary splitting tree of depth `depth`, leaf
/// computations, then a binary combining tree — the fork/join skeleton
/// of recursive algorithms.
pub fn divide_and_conquer(
    depth: u32,
    split_time: Time,
    leaf_time: Time,
    merge_time: Time,
    msg: Weight,
) -> Result<ProblemGraph, GraphError> {
    if depth == 0 || depth > 10 {
        return Err(GraphError::InvalidParameter(
            "divide&conquer needs 1 <= depth <= 10".into(),
        ));
    }
    if split_time == 0 || leaf_time == 0 || merge_time == 0 || msg == 0 {
        return Err(GraphError::InvalidParameter("weights must be >= 1".into()));
    }
    // Split tree: nodes 0..2^depth - 1 (heap order). Leaves of the split
    // tree do the leaf work; merge tree mirrors the split tree.
    let inner = (1usize << depth) - 1; // split nodes
    let leaves = 1usize << depth;
    let total = inner + leaves + inner; // splits + leaves + merges
    let merge_base = inner + leaves;
    let mut edges = Vec::new();
    let mut sizes = vec![split_time; total];
    for s in sizes.iter_mut().skip(inner).take(leaves) {
        *s = leaf_time;
    }
    for s in sizes.iter_mut().skip(merge_base) {
        *s = merge_time;
    }
    // Split edges.
    for i in 0..inner {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        for child in [l, r] {
            if child < inner {
                edges.push((i, child, msg));
            } else {
                // Child is a leaf: leaf ids are inner..inner+leaves in
                // left-to-right order of the last tree level.
                let leaf = inner + (child - inner);
                edges.push((i, leaf, msg));
            }
        }
    }
    // Leaf -> merge leaves' parents; merge tree mirrors split tree ids.
    for i in (0..inner).rev() {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        for child in [l, r] {
            if child < inner {
                edges.push((merge_base + child, merge_base + i, msg));
            } else {
                let leaf = inner + (child - inner);
                edges.push((leaf, merge_base + i, msg));
            }
        }
    }
    ProblemGraph::new(sizes, &edges)
}

/// A pipeline of `stages` sequential stages, each a chain of `tasks`
/// tasks, stage `s` feeding stage `s+1` task-by-task — the simplest
/// macro-dataflow program.
pub fn pipeline(
    stages: usize,
    tasks: usize,
    task_time: Time,
    msg: Weight,
) -> Result<ProblemGraph, GraphError> {
    if stages == 0 || tasks == 0 {
        return Err(GraphError::InvalidParameter(
            "pipeline needs stages, tasks >= 1".into(),
        ));
    }
    if task_time == 0 || msg == 0 {
        return Err(GraphError::InvalidParameter("weights must be >= 1".into()));
    }
    let id = |s: usize, t: usize| s * tasks + t;
    let mut edges = Vec::new();
    for s in 0..stages {
        for t in 0..tasks {
            if t + 1 < tasks {
                edges.push((id(s, t), id(s, t + 1), msg));
            }
            if s + 1 < stages {
                edges.push((id(s, t), id(s + 1, t), msg));
            }
        }
    }
    ProblemGraph::new(vec![task_time; stages * tasks], &edges)
}

/// Which kind of churn a synthetic trace exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnRegime {
    /// Tasks arrive (wired to existing producers) and finish — the
    /// job-stream shape of a resource manager.
    Arrivals,
    /// Structure is stable but communication/computation weights drift
    /// (including occasional global rescaling).
    Drift,
    /// A 50/50 blend of the two.
    Mixed,
}

impl ChurnRegime {
    /// Parse a CLI name: `arrivals`, `drift` or `mixed`.
    pub fn parse(s: &str) -> Result<ChurnRegime, String> {
        match s {
            "arrivals" | "tasks" => Ok(ChurnRegime::Arrivals),
            "drift" | "weights" => Ok(ChurnRegime::Drift),
            "mixed" => Ok(ChurnRegime::Mixed),
            other => Err(format!(
                "unknown churn regime '{other}' (arrivals|drift|mixed)"
            )),
        }
    }
}

/// Generate a synthetic churn trace of `events` valid deltas against
/// `initial`. The generator simulates the trace on a private
/// [`DynamicWorkload`], so every emitted event applies cleanly in order
/// (no emptied clusters, no cycles, no dangling references); proposals
/// the simulation rejects are simply re-drawn. Tasks and edges are
/// drawn by rank, so no proposal copies the graph; a rank past the end
/// (which the counts rule out) would be a `None` proposal, re-drawn
/// the same way. Deterministic for a fixed `rng` state.
pub fn churn_trace(
    initial: &ClusteredProblemGraph,
    events: usize,
    regime: ChurnRegime,
    rng: &mut impl Rng,
) -> Vec<TraceEvent> {
    let mut state = DynamicWorkload::from_clustered(initial);
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let drift_turn = match regime {
            ChurnRegime::Arrivals => false,
            ChurnRegime::Drift => true,
            ChurnRegime::Mixed => rng.gen_range(0..2) == 0,
        };
        let candidate = if drift_turn {
            propose_drift(&state, rng)
        } else {
            propose_arrival(&state, rng)
        };
        if let Some(candidate) = candidate.filter(|c| state.apply(c).is_ok()) {
            out.push(candidate);
        }
    }
    out
}

/// A uniformly drawn live task, by rank: the task list is not copied.
fn draw_task(state: &DynamicWorkload, rng: &mut impl Rng) -> Option<TaskId> {
    state.task_ids().nth(rng.gen_range(0..state.num_tasks()))
}

/// The endpoints of a uniformly drawn live edge, by rank: the edge
/// list is not copied.
fn draw_edge(state: &DynamicWorkload, rng: &mut impl Rng) -> Option<(TaskId, TaskId)> {
    let (from, to, _) = state.nth_edge(rng.gen_range(0..state.num_edges()))?;
    Some((from, to))
}

/// Two uniformly drawn live tasks, oriented old -> new.
fn draw_forward_pair(state: &DynamicWorkload, rng: &mut impl Rng) -> Option<(TaskId, TaskId)> {
    let (a, b) = (draw_task(state, rng)?, draw_task(state, rng)?);
    Some((a.min(b), a.max(b)))
}

/// A fresh task of random size in a random cluster.
fn arrival(state: &DynamicWorkload, rng: &mut impl Rng) -> TraceEvent {
    TraceEvent::AddTask {
        task: state.next_task_id(),
        size: rng.gen_range(3..=24),
        cluster: rng.gen_range(0..state.num_clusters()),
    }
}

/// Propose one arrivals-regime event: a task arrival, a wiring edge
/// into a recent arrival, or a departure.
fn propose_arrival(state: &DynamicWorkload, rng: &mut impl Rng) -> Option<TraceEvent> {
    let roll = rng.gen_range(0..100);
    if roll < 45 || state.num_tasks() <= state.num_clusters() + 1 {
        return Some(arrival(state, rng));
    }
    if roll < 75 {
        // Wire a dependency between two live tasks, oriented old -> new
        // (the common case for fresh arrivals; the simulation rejects
        // the rare proposal that would close a cycle).
        let (from, to) = draw_forward_pair(state, rng)?;
        return Some(TraceEvent::AddEdge {
            from,
            to,
            weight: rng.gen_range(2..=16),
        });
    }
    // Departure of a task whose cluster keeps at least one member.
    let removable = || {
        (state.tasks())
            .filter(|task| state.cluster_size(task.cluster) >= 2)
            .map(|task| task.id)
    };
    match removable().count() {
        0 => Some(arrival(state, rng)),
        count => {
            (removable().nth(rng.gen_range(0..count))).map(|task| TraceEvent::RemoveTask { task })
        }
    }
}

/// Propose one drift-regime event: a weight change, an edge flip, or a
/// rare global rescale.
fn propose_drift(state: &DynamicWorkload, rng: &mut impl Rng) -> Option<TraceEvent> {
    let roll = rng.gen_range(0..100);
    if roll < 40 && state.num_edges() > 0 {
        let (from, to) = draw_edge(state, rng)?;
        return Some(TraceEvent::SetEdgeWeight {
            from,
            to,
            weight: rng.gen_range(1..=32),
        });
    }
    if roll < 70 {
        return Some(TraceEvent::SetTaskSize {
            task: draw_task(state, rng)?,
            size: rng.gen_range(1..=24),
        });
    }
    if roll < 82 && state.num_edges() > 4 {
        let (from, to) = draw_edge(state, rng)?;
        return Some(TraceEvent::RemoveEdge { from, to });
    }
    if roll < 95 {
        let (from, to) = draw_forward_pair(state, rng)?;
        return Some(TraceEvent::AddEdge {
            from,
            to,
            weight: rng.gen_range(2..=16),
        });
    }
    Some(TraceEvent::ScaleEdgeWeights {
        percent: rng.gen_range(85..=120),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every edge runs forward in the topological order.
    fn is_acyclic(p: &ProblemGraph) -> bool {
        p.edges().all(|(u, v, _)| p.position(u) < p.position(v))
    }

    #[test]
    fn gaussian_elimination_structure() {
        let p = gaussian_elimination(4, 2, 3, 1).unwrap();
        // 3 pivots + 3+2+1 updates = 9 tasks.
        assert_eq!(p.len(), 9);
        assert!(is_acyclic(&p));
        // Pivot 0 has no predecessors; the last update column feeds
        // nothing.
        assert!(p.predecessors(0).is_empty());
        // Pivot 1 depends on update (0,1).
        assert_eq!(p.predecessors(1).len(), 1);
        // Critical path grows with n.
        let p6 = gaussian_elimination(6, 2, 3, 1).unwrap();
        assert!(p6.critical_path() > p.critical_path());
    }

    #[test]
    fn gaussian_elimination_rejects_bad_params() {
        assert!(gaussian_elimination(1, 1, 1, 1).is_err());
        assert!(gaussian_elimination(4, 0, 1, 1).is_err());
        assert!(gaussian_elimination(4, 1, 1, 0).is_err());
    }

    #[test]
    fn stencil_shape() {
        let p = stencil_1d(5, 3, 2, 1).unwrap();
        assert_eq!(p.len(), 15);
        assert!(is_acyclic(&p));
        // Interior cell at step 1 has 3 predecessors; border has 2.
        assert_eq!(p.predecessors(5 + 2).len(), 3);
        assert_eq!(p.predecessors(5).len(), 2);
        // Edge count: per step, width self + 2*(width-1) neighbor edges.
        assert_eq!(p.graph().edge_count(), 2 * (5 + 2 * 4));
        assert!(stencil_1d(0, 3, 1, 1).is_err());
    }

    #[test]
    fn fft_shape() {
        let p = fft_butterfly(3, 1, 2).unwrap();
        // 8 points, 4 stages.
        assert_eq!(p.len(), 32);
        assert!(is_acyclic(&p));
        // Every stage >= 1 task has exactly 2 predecessors.
        for s in 1..4 {
            for i in 0..8 {
                assert_eq!(p.predecessors(s * 8 + i).len(), 2, "stage {s} task {i}");
            }
        }
        assert!(fft_butterfly(0, 1, 1).is_err());
        assert!(fft_butterfly(13, 1, 1).is_err());
    }

    #[test]
    fn divide_and_conquer_shape() {
        let p = divide_and_conquer(2, 1, 5, 2, 1).unwrap();
        // 3 splits + 4 leaves + 3 merges.
        assert_eq!(p.len(), 10);
        assert!(is_acyclic(&p));
        assert!(p.predecessors(0).is_empty(), "root split starts");
        // Root merge is the unique sink.
        let sinks: Vec<_> = (0..p.len())
            .filter(|&t| p.successors(t).is_empty())
            .collect();
        assert_eq!(sinks, vec![7]);
        assert!(divide_and_conquer(0, 1, 1, 1, 1).is_err());
    }

    #[test]
    fn pipeline_shape() {
        let p = pipeline(3, 4, 2, 1).unwrap();
        assert_eq!(p.len(), 12);
        assert!(is_acyclic(&p));
        // First task of first stage is the only source.
        let sources: Vec<_> = (0..p.len())
            .filter(|&t| p.predecessors(t).is_empty())
            .collect();
        assert_eq!(sources, vec![0]);
        // Sequential time = 24; critical path includes comm.
        assert_eq!(p.sequential_time(), 24);
        assert!(pipeline(0, 1, 1, 1).is_err());
    }

    #[test]
    fn workloads_have_positive_weights() {
        for p in [
            gaussian_elimination(5, 2, 3, 2).unwrap(),
            stencil_1d(6, 4, 3, 2).unwrap(),
            fft_butterfly(2, 2, 3).unwrap(),
            divide_and_conquer(3, 1, 4, 2, 2).unwrap(),
            pipeline(4, 5, 3, 2).unwrap(),
        ] {
            assert!(p.sizes().iter().all(|&s| s > 0));
            assert!(p.edges().all(|(_, _, w)| w > 0));
        }
    }

    fn churn_base() -> ClusteredProblemGraph {
        use crate::clustering::Clustering;
        let problem = stencil_1d(4, 4, 3, 2).unwrap();
        let clustering = Clustering::new((0..16).map(|t| t % 4).collect()).unwrap();
        ClusteredProblemGraph::new(problem, clustering).unwrap()
    }

    #[test]
    fn churn_traces_apply_cleanly_in_every_regime() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (regime, seed) in [
            (ChurnRegime::Arrivals, 1u64),
            (ChurnRegime::Drift, 2),
            (ChurnRegime::Mixed, 3),
        ] {
            let base = churn_base();
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = churn_trace(&base, 60, regime, &mut rng);
            assert_eq!(trace.len(), 60, "{regime:?}");
            let mut state = DynamicWorkload::from_clustered(&base);
            for (i, event) in trace.iter().enumerate() {
                state
                    .apply(event)
                    .unwrap_or_else(|e| panic!("{regime:?} event {i} ({event:?}) failed: {e}"));
                let graph = state.materialize().unwrap();
                assert_eq!(graph.num_clusters(), 4, "na is pinned to ns");
                assert!(is_acyclic(graph.problem()));
            }
        }
    }

    #[test]
    fn churn_traces_are_seed_deterministic_and_regime_shaped() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let base = churn_base();
        let run = |seed: u64, regime| {
            let mut rng = StdRng::seed_from_u64(seed);
            churn_trace(&base, 80, regime, &mut rng)
        };
        assert_eq!(run(7, ChurnRegime::Mixed), run(7, ChurnRegime::Mixed));
        // Drift never changes the task set; arrivals do.
        let drift = run(9, ChurnRegime::Drift);
        assert!(drift.iter().all(|e| !matches!(
            e,
            TraceEvent::AddTask { .. } | TraceEvent::RemoveTask { .. }
        )));
        let arrivals = run(9, ChurnRegime::Arrivals);
        assert!(arrivals
            .iter()
            .any(|e| matches!(e, TraceEvent::AddTask { .. })));
    }

    #[test]
    fn churn_regime_parse_accepts_names_and_aliases() {
        assert_eq!(
            ChurnRegime::parse("arrivals").unwrap(),
            ChurnRegime::Arrivals
        );
        assert_eq!(ChurnRegime::parse("tasks").unwrap(), ChurnRegime::Arrivals);
        assert_eq!(ChurnRegime::parse("drift").unwrap(), ChurnRegime::Drift);
        assert_eq!(ChurnRegime::parse("weights").unwrap(), ChurnRegime::Drift);
        assert_eq!(ChurnRegime::parse("mixed").unwrap(), ChurnRegime::Mixed);
        assert!(ChurnRegime::parse("storm").is_err());
    }
}
