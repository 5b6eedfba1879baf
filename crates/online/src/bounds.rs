//! Delta-aware ideal-schedule lower bounds.
//!
//! Every replayed event needs the ideal-graph lower bound of the
//! post-event instance for its [`ReplayRecord`](crate::ReplayRecord)
//! and as the refiner's early-stop target. Deriving it from scratch
//! ([`IdealSchedule::derive`]) walks the whole graph per event; after a
//! local delta only the tasks downstream of the disturbed ones can
//! change rank. [`IncrementalBound`] keeps the ideal start/end times
//! alive across events (keyed by *stable external* task ids) and
//! repairs them by worklist propagation from the tasks the event's
//! [`EventImpact::rerank`] names, so the per-event cost is proportional
//! to the disturbed cone, not the graph.
//!
//! It stores ranks only. Sizes, clusters, edge weights and adjacency
//! are read from the [`DynamicWorkload`] it is handed — the session's
//! one copy of the graph.
//!
//! Exactness contract: after [`IncrementalBound::apply`] the bound
//! equals `IdealSchedule::derive(&workload.materialize()?).lower_bound()`
//! — the property test in `tests/properties.rs` replays churn traces
//! asserting equality on every event.

use std::collections::{BTreeMap, BTreeSet};

use mimd_graph::Time;
use mimd_taskgraph::{DynamicWorkload, EventImpact, TaskId, TraceEvent};

/// Incrementally maintained ideal schedule over a [`DynamicWorkload`].
///
/// The ideal graph schedules the clustered problem graph on the system
/// closure: a task starts when every predecessor has finished and its
/// message (clustered weight; 0 intra-cluster) has arrived. The maximum
/// end time is the lower bound on any real assignment's total time
/// (paper Theorem 3).
#[derive(Clone, Debug)]
pub struct IncrementalBound {
    /// Ideal start time per task (the paper's `i_start`).
    start: BTreeMap<TaskId, Time>,
    /// Ideal end time per task (the paper's `i_end`).
    end: BTreeMap<TaskId, Time>,
}

impl IncrementalBound {
    /// Build the full ideal schedule of the workload's current state.
    pub fn new(workload: &DynamicWorkload) -> Self {
        let mut bound = IncrementalBound {
            start: BTreeMap::new(),
            end: BTreeMap::new(),
        };
        // Every task is dirty: one propagation pass is a full (re)build.
        bound.propagate(workload.task_ids().collect(), workload);
        bound
    }

    /// The current lower bound (`max i_end` over live tasks; 0 when
    /// empty).
    pub fn lower_bound(&self) -> Time {
        self.end.values().copied().max().unwrap_or(0)
    }

    /// Repair the schedule after `event` was **successfully** applied to
    /// `workload` (the post-event state) and reported `impact`. Must be
    /// called once per accepted event, in order; rejected events must
    /// not be passed.
    ///
    /// Local events repair only the cone below `impact.rerank`; a
    /// global one ([`TraceEvent::ScaleEdgeWeights`]) rebuilds (it forces
    /// a full remap downstream anyway).
    pub fn apply(&mut self, event: &TraceEvent, impact: &EventImpact, workload: &DynamicWorkload) {
        if impact.global {
            *self = IncrementalBound::new(workload);
            return;
        }
        if let TraceEvent::RemoveTask { task } = *event {
            self.start.remove(&task);
            self.end.remove(&task);
        }
        self.propagate(impact.rerank.iter().copied().collect(), workload);
    }

    /// Worklist repair: recompute each dirty task's rank from its
    /// predecessors' current ranks; when a rank changes, its successors
    /// become dirty. On a DAG this reaches the exact fixpoint — the
    /// schedule a from-scratch topological pass would produce — while
    /// touching only the disturbed cone.
    fn propagate(&mut self, mut dirty: BTreeSet<TaskId>, workload: &DynamicWorkload) {
        while let Some(task) = dirty.pop_first() {
            let cluster = workload.cluster_of(task);
            let new_start = workload
                .predecessors(task)
                .iter()
                .map(|&p| {
                    // Communication delay on the ideal graph: the
                    // clustered weight (0 intra-cluster).
                    let comm = if workload.cluster_of(p) == cluster {
                        0
                    } else {
                        workload.edge_weight(p, task).expect("row mirrors map")
                    };
                    // A pred not ranked yet (first pass, non-topo pop
                    // order) counts as 0; its own recompute re-dirties
                    // this task, so the fixpoint is still exact.
                    self.end.get(&p).copied().unwrap_or(0) + comm
                })
                .max()
                .unwrap_or(0);
            let new_end = new_start + workload.task_size(task).expect("dirty tasks are live");
            let start_changed = self.start.insert(task, new_start) != Some(new_start);
            let end_changed = self.end.insert(task, new_end) != Some(new_end);
            if start_changed || end_changed {
                dirty.extend(workload.successors(task));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::IdealSchedule;
    use mimd_taskgraph::{ClusteredProblemGraph, Clustering, ProblemGraph};

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

    fn scratch(workload: &DynamicWorkload) -> Time {
        IdealSchedule::derive(&workload.materialize().unwrap()).lower_bound()
    }

    #[test]
    fn initial_bound_matches_from_scratch_derivation() {
        let graph = base();
        let workload = DynamicWorkload::from_clustered(&graph);
        let bound = IncrementalBound::new(&workload);
        assert_eq!(
            bound.lower_bound(),
            IdealSchedule::derive(&graph).lower_bound()
        );
    }

    #[test]
    fn every_event_kind_repairs_to_the_scratch_bound() {
        let mut workload = DynamicWorkload::from_clustered(&base());
        let mut bound = IncrementalBound::new(&workload);
        let events = [
            TraceEvent::AddTask {
                task: 4,
                size: 6,
                cluster: 1,
            },
            TraceEvent::AddEdge {
                from: 3,
                to: 4,
                weight: 9,
            },
            TraceEvent::SetTaskSize { task: 1, size: 8 },
            TraceEvent::SetEdgeWeight {
                from: 0,
                to: 1,
                weight: 2,
            },
            TraceEvent::ScaleEdgeWeights { percent: 150 },
            TraceEvent::RemoveEdge { from: 0, to: 2 },
            TraceEvent::RemoveTask { task: 3 },
        ];
        for event in &events {
            let impact = workload.apply(event).unwrap();
            bound.apply(event, &impact, &workload);
            assert_eq!(bound.lower_bound(), scratch(&workload), "{event:?}");
        }
    }

    #[test]
    fn rank_decreases_propagate_downstream() {
        // Shrinking the weight of the edge into the bottleneck must
        // lower the bound, not just local ranks.
        let mut workload = DynamicWorkload::from_clustered(&base());
        let mut bound = IncrementalBound::new(&workload);
        let before = bound.lower_bound();
        // base(): 0 -> 2 is the cross-cluster edge feeding the heavy
        // 2 -> 3 chain; shrinking it lowers ranks two hops downstream.
        for (event, shrinks) in [
            (
                TraceEvent::SetEdgeWeight {
                    from: 0,
                    to: 2,
                    weight: 9,
                },
                false,
            ),
            (
                TraceEvent::SetEdgeWeight {
                    from: 0,
                    to: 2,
                    weight: 1,
                },
                true,
            ),
        ] {
            let impact = workload.apply(&event).unwrap();
            bound.apply(&event, &impact, &workload);
            assert_eq!(bound.lower_bound(), scratch(&workload));
            if shrinks {
                assert!(bound.lower_bound() <= before);
            }
        }
    }
}
