//! The incremental mapper: a long-lived session that keeps the previous
//! assignment, the (cached) system-side multilevel hierarchy and one
//! live position-space instance of the workload alive across trace
//! events.
//!
//! The session holds its graph once: the rows of its
//! [`DynamicWorkload`], which the delta evaluator sweeps directly, plus
//! the evaluator's per-position schedules. Per event the workload
//! validates the delta and edits its rows in place, then the session
//! chooses between two paths:
//!
//! * **Incremental** (the common case): repair the live instance — one
//!   sweep from the positions the event touched repairs the committed
//!   total and the ideal-graph lower bound — and re-run
//!   migration-cost-aware group-local refinement on it, only inside the
//!   *regions* around the touched clusters: the smallest hierarchy
//!   groups of at least [`OnlineConfig::region_size`] processors
//!   containing the touched clusters' hosts, looked up in a table built
//!   once per session. Everything else keeps its placement, so an event
//!   costs its cone plus a handful of candidate sweeps instead of a
//!   V-cycle. When the event renumbered the rows (an edge against the
//!   position order, or a compaction of what departures and grown rows
//!   left behind), both schedules are swept again from scratch instead.
//! * **Full V-cycle**: when accumulated drift (moved weight divided by
//!   total weight since the last full map) crosses
//!   [`OnlineConfig::staleness_threshold`], or the event has no
//!   locality (global weight scaling), the session remaps from scratch
//!   with [`MultilevelMapper::map_with_hierarchy`] — still reusing the
//!   shared system-side hierarchy — and resets the drift meter.
//!
//! The whole graph is materialized only for a V-cycle: at `begin` and
//! on a full remap. Sessions evaluate under the precedence model, the
//! one the live instance repairs incrementally.
//!
//! All randomness flows from the session seed in event order, so a
//! replay of the same trace with the same seed is bit-identical.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_graph::error::GraphError;
use mimd_graph::{NodeId, Time};
use mimd_multilevel::{
    refine_within_groups, LocalRefineConfig, MultilevelConfig, MultilevelMapper, MultilevelResult,
    SystemHierarchy,
};
use mimd_taskgraph::{ClusterId, DynamicWorkload, TraceEvent};
use mimd_telemetry::Recorder;

use crate::refine::{count_moves, migration_cost};
use crate::replay::ReplayRecord;

/// Tuning knobs of the incremental remapper.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineConfig {
    /// The V-cycle used for the initial mapping and staleness resets
    /// (its `mapper.model` is also the incremental objective; sessions
    /// take only the precedence model).
    pub multilevel: MultilevelConfig,
    /// Cost charged per migrated cluster when weighing an incremental
    /// move against its predicted gain.
    pub migration_penalty: Time,
    /// Accumulated drift fraction (moved weight / total weight) that
    /// triggers a full V-cycle instead of local refinement.
    pub staleness_threshold: f64,
    /// Candidate evaluations per incremental event.
    pub local_rounds: usize,
    /// Minimum processors per refinement region: each touched cluster's
    /// host is widened to its smallest hierarchy group of at least this
    /// size.
    pub region_size: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            multilevel: MultilevelConfig::default(),
            migration_penalty: 2,
            staleness_threshold: 0.25,
            local_rounds: 6,
            region_size: 8,
        }
    }
}

/// Optional overrides of the [`OnlineConfig`] defaults: the knobs a
/// served session, an `incremental` job and `mimd replay`'s flags all
/// expose, resolved in one place so the three agree.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Cost charged per migrated cluster; `None` uses the online
    /// default.
    pub migration_penalty: Option<u64>,
    /// Drift fraction triggering a full V-cycle; `None` uses the online
    /// default.
    pub staleness_threshold: Option<f64>,
    /// Candidate evaluations per incremental event; `None` uses the
    /// online default.
    pub local_rounds: Option<usize>,
    /// Minimum processors per refinement region; `None` uses the online
    /// default.
    pub region_size: Option<usize>,
}

impl SessionConfig {
    /// Resolve against the online defaults.
    pub fn resolve(&self) -> OnlineConfig {
        let defaults = OnlineConfig::default();
        OnlineConfig {
            migration_penalty: self.migration_penalty.unwrap_or(defaults.migration_penalty),
            staleness_threshold: self
                .staleness_threshold
                .unwrap_or(defaults.staleness_threshold),
            local_rounds: self.local_rounds.unwrap_or(defaults.local_rounds),
            region_size: self.region_size.unwrap_or(defaults.region_size),
            multilevel: defaults.multilevel,
        }
    }
}

/// The incremental mapper: a factory for [`OnlineSession`]s.
#[derive(Clone, Debug, Default)]
pub struct IncrementalMapper {
    config: OnlineConfig,
    /// Telemetry sink passed down to sessions (and to the V-cycles they
    /// run); disabled (no-op) unless a caller attaches a live recorder.
    recorder: Recorder,
}

impl IncrementalMapper {
    /// Mapper with the default configuration.
    pub fn new() -> Self {
        IncrementalMapper::default()
    }

    /// Mapper with a custom configuration.
    pub fn with_config(config: OnlineConfig) -> Self {
        IncrementalMapper {
            config,
            recorder: Recorder::default(),
        }
    }

    /// Attach a telemetry recorder: sessions started by this mapper
    /// record the structural counters `online.events`,
    /// `online.incremental`, `online.fallbacks`, `online.errors`,
    /// `online.migrations`, `online.materializations` (whole-graph
    /// rebuilds, one per V-cycle) and `online.compactions` (events that
    /// renumbered the workload's rows), plus latency spans
    /// `online.initial_map`, `online.region_refine` and
    /// `online.full_vcycle` (and, through
    /// the embedded V-cycle, the `vcycle.*` series). Recording never
    /// changes results.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Start a session: map the initial workload with a full V-cycle
    /// against the (typically cached) system hierarchy. Returns the
    /// session plus the record of the initial mapping (index 0). A
    /// configuration evaluating under the serialized model is refused
    /// with `InvalidParameter`: a session's live instance repairs the
    /// precedence schedule.
    pub fn begin(
        &self,
        workload: DynamicWorkload,
        hierarchy: Arc<SystemHierarchy>,
        seed: u64,
    ) -> Result<(OnlineSession, ReplayRecord), GraphError> {
        if self.config.multilevel.mapper.model != EvaluationModel::Precedence {
            return Err(GraphError::InvalidParameter(
                "online sessions evaluate under the precedence model".into(),
            ));
        }
        let ns = hierarchy.finest().len();
        if workload.num_clusters() != ns {
            return Err(GraphError::SizeMismatch {
                left: workload.num_clusters(),
                right: ns,
            });
        }
        let mut session = OnlineSession {
            config: self.config.clone(),
            recorder: self.recorder.clone(),
            regions: RegionTable::build(&hierarchy, self.config.region_size),
            hierarchy,
            workload,
            live: DeltaWorkspace::new(),
            rng: StdRng::seed_from_u64(seed),
            drift: 0.0,
            events_applied: 0,
            last_lower_bound: 0,
            last_total: 0,
        };
        let result = session.remap("online.initial_map")?;
        // Everything is placed for the first time.
        let record = session.record("init", "full", ns, result.evaluations, None);
        Ok((session, record))
    }
}

/// The refinement region of every processor: the smallest hierarchy
/// group containing it with at least `region_size` members, or the
/// whole machine where the hierarchy stalls first (e.g. a star). The
/// hierarchy is fixed, so a session builds this once.
struct RegionTable {
    /// Index into `members` per processor.
    of: Vec<usize>,
    /// The distinct regions, members ascending.
    members: Vec<Vec<NodeId>>,
}

impl RegionTable {
    fn build(hierarchy: &SystemHierarchy, region_size: usize) -> RegionTable {
        let ns = hierarchy.finest().len();
        let target = region_size.max(2);
        let mut of = vec![usize::MAX; ns];
        let mut members = Vec::new();
        // Levels ascend, so a processor keeps the first (smallest)
        // group big enough; the groups of one level are disjoint.
        for level in 0..hierarchy.depth() {
            for group in hierarchy.members_at(level) {
                if group.len() < target || group.iter().all(|&s| of[s] != usize::MAX) {
                    continue;
                }
                for &s in &group {
                    if of[s] == usize::MAX {
                        of[s] = members.len();
                    }
                }
                members.push(group);
            }
        }
        if of.contains(&usize::MAX) {
            for slot in of.iter_mut().filter(|slot| **slot == usize::MAX) {
                *slot = members.len();
            }
            members.push((0..ns).collect());
        }
        RegionTable { of, members }
    }

    /// The region of processor `host`.
    fn region_of(&self, host: NodeId) -> &[NodeId] {
        &self.members[self.of[host]]
    }
}

/// A live remapping session: the mutable workload (the graph, once),
/// the evaluator state on its rows (which holds the current
/// assignment), the drift meter and the shared system hierarchy.
pub struct OnlineSession {
    config: OnlineConfig,
    recorder: Recorder,
    hierarchy: Arc<SystemHierarchy>,
    workload: DynamicWorkload,
    /// The live instance on the workload's rows: the committed
    /// assignment, and the hosts and end times of both its machine
    /// schedule and its ideal schedule.
    live: DeltaWorkspace,
    /// Refinement region per processor.
    regions: RegionTable,
    rng: StdRng,
    /// Moved weight since the last full map, as a fraction of total
    /// weight (summed per event).
    drift: f64,
    events_applied: usize,
    last_lower_bound: Time,
    last_total: Time,
}

impl OnlineSession {
    /// The current cluster→processor assignment.
    pub fn assignment(&self) -> &Assignment {
        self.live.assignment()
    }

    /// The current workload state.
    pub fn workload(&self) -> &DynamicWorkload {
        &self.workload
    }

    /// Accumulated drift fraction since the last full V-cycle.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Bytes held by the session's buffers that grow with its workload:
    /// the workload's rows and id table, and the evaluator's
    /// per-position state (capacities).
    pub fn resident_bytes(&self) -> usize {
        self.workload.resident_bytes() + self.live.resident_bytes()
    }

    /// The total `candidate` would reach on the current workload,
    /// priced on the session's live instance and discarded again: the
    /// session is unchanged.
    pub fn price(&mut self, candidate: &Assignment) -> Result<Time, GraphError> {
        let ns = self.hierarchy.finest().len();
        if candidate.len() != ns {
            return Err(GraphError::SizeMismatch {
                left: candidate.len(),
                right: ns,
            });
        }
        let mut live = DeltaEvaluator::resume(
            &mut self.live,
            self.workload.rows(),
            self.hierarchy.finest(),
        );
        let total = live.stage_candidate(candidate);
        live.discard();
        Ok(total)
    }

    /// Apply one trace event and remap. Never fails: an invalid event
    /// (or an impossible instance) comes back as an `action = "error"`
    /// record with the state unchanged.
    pub fn apply(&mut self, event: &TraceEvent) -> ReplayRecord {
        self.events_applied += 1;
        self.recorder.incr("online.events");
        self.try_apply(event).unwrap_or_else(|e| {
            self.recorder.incr("online.errors");
            self.record(event.kind(), "error", 0, 0, Some(e.to_string()))
        })
    }

    fn try_apply(&mut self, event: &TraceEvent) -> Result<ReplayRecord, GraphError> {
        let impact = self.workload.apply(event)?;
        let total_weight = self.workload.total_weight().max(1);
        self.drift += impact.weight_delta as f64 / total_weight as f64;

        if impact.renumbered {
            self.recorder.incr("online.compactions");
        }
        let stale = impact.global || self.drift >= self.config.staleness_threshold;
        let previous = self.live.assignment().clone();
        // A local handle keeps the timing closures free to borrow the
        // rest of `self` mutably.
        let recorder = self.recorder.clone();
        let (action, evaluations) = if stale {
            recorder.incr("online.fallbacks");
            let result = self.remap("online.full_vcycle")?;
            self.drift = 0.0;
            ("full", result.evaluations)
        } else {
            recorder.incr("online.incremental");
            if impact.renumbered {
                self.attach(&previous)?;
            }
            let regions = self.regions_for(&impact.touched_clusters);
            let mut live = DeltaEvaluator::resume(
                &mut self.live,
                self.workload.rows(),
                self.hierarchy.finest(),
            );
            live.repair(&impact.touched_positions);
            let config = LocalRefineConfig {
                lower_bound: live
                    .lower_bound()
                    .expect("the live instance tracks its bound"),
                rounds: self.config.local_rounds,
                batch: self.config.multilevel.refine_batch,
            };
            // Region repair runs on the finest level; ledger entries
            // attribute to the online pass rather than `local.refine`.
            let scoped = recorder.clone().with_gain_scope("online.region", 0);
            let out = recorder.time("online.region_refine", || {
                refine_within_groups(
                    &mut live,
                    &regions,
                    &config,
                    migration_cost(&previous, self.config.migration_penalty),
                    &scoped,
                    &mut self.rng,
                )
            });
            self.last_total = out.total;
            self.last_lower_bound = config.lower_bound;
            ("incremental", out.rounds_used)
        };
        let moves = count_moves(self.live.assignment(), &previous);
        recorder.add("online.migrations", moves as u64);
        Ok(self.record(event.kind(), action, moves, evaluations, None))
    }

    /// The record of the session as it stands after the latest event.
    fn record(
        &self,
        kind: &str,
        action: &str,
        moves: usize,
        evaluations: usize,
        error: Option<String>,
    ) -> ReplayRecord {
        let (lower_bound, total_time) = (self.last_lower_bound, self.last_total);
        ReplayRecord {
            index: self.events_applied,
            kind: kind.into(),
            action: action.into(),
            np: self.workload.num_tasks(),
            ns: self.hierarchy.finest().len(),
            lower_bound,
            total_time,
            percent_over_lower_bound: percent_over(total_time, lower_bound),
            moves,
            evaluations,
            drift: self.drift,
            error,
        }
    }

    /// The one place a session materializes its workload: a V-cycle of
    /// the whole graph against the shared hierarchy, timed as `span`,
    /// whose assignment the live instance is attached under.
    fn remap(&mut self, span: &str) -> Result<MultilevelResult, GraphError> {
        self.recorder.incr("online.materializations");
        let graph = self.workload.materialize()?;
        let vcycle = MultilevelMapper::with_config(self.config.multilevel.clone())
            .with_recorder(self.recorder.clone());
        let result = self.recorder.time(span, || {
            vcycle.map_with_hierarchy(&graph, &self.hierarchy, &mut self.rng)
        })?;
        self.attach(&result.assignment)?;
        Ok(result)
    }

    /// Attach the live instance to the workload's rows under
    /// `assignment`, sweeping both of its schedules from scratch.
    fn attach(&mut self, assignment: &Assignment) -> Result<(), GraphError> {
        let mut live = DeltaEvaluator::attach_rows(
            &mut self.live,
            self.workload.rows(),
            self.hierarchy.finest(),
            assignment,
        )?;
        self.last_lower_bound = live.track_bound();
        self.last_total = live.total();
        Ok(())
    }

    /// The refinement regions around `touched` clusters: each touched
    /// cluster's processor widened to its region, deduplicated to a
    /// disjoint family (hierarchy groups are laminar: overlapping
    /// regions nest, and the larger one wins).
    fn regions_for(&self, touched: &[ClusterId]) -> Vec<Vec<NodeId>> {
        let assignment = self.live.assignment();
        let mut candidates: Vec<&[NodeId]> = touched
            .iter()
            .map(|&cluster| self.regions.region_of(assignment.sys_of(cluster)))
            .collect();
        candidates.sort_by_key(|r| std::cmp::Reverse(r.len()));
        let ns = self.hierarchy.finest().len();
        let mut covered = vec![false; ns];
        let mut regions = Vec::new();
        for region in candidates {
            let first = region[0];
            if covered[first] {
                continue; // nested inside an already-kept region
            }
            for &s in region {
                covered[s] = true;
            }
            regions.push(region.to_vec());
        }
        regions
    }
}

fn percent_over(total: Time, lower_bound: Time) -> f64 {
    if lower_bound == 0 {
        0.0
    } else {
        100.0 * total as f64 / lower_bound as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::IdealSchedule;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
    use mimd_taskgraph::{
        ClusteredProblemGraph, Clustering, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
    };
    use mimd_topology::{chain, hypercube, star, torus2d};
    use rand::Rng;

    fn instance(np: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: np,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
        ClusteredProblemGraph::new(problem, clustering).unwrap()
    }

    fn session(seed: u64) -> (OnlineSession, ReplayRecord, ClusteredProblemGraph) {
        let system = torus2d(8, 8).unwrap();
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let base = instance(128, 64, seed);
        let workload = DynamicWorkload::from_clustered(&base);
        let (session, record) = IncrementalMapper::new()
            .begin(workload, hierarchy, seed)
            .unwrap();
        (session, record, base)
    }

    #[test]
    fn begin_produces_a_full_initial_mapping() {
        let (session, record, base) = session(1);
        assert_eq!(record.index, 0);
        assert_eq!(record.action, "full");
        assert_eq!(record.ns, 64);
        assert!(record.total_time >= record.lower_bound);
        // The recorded total matches an independent evaluation.
        let system = torus2d(8, 8).unwrap();
        let eval = evaluate_assignment(
            &base,
            &system,
            session.assignment(),
            EvaluationModel::Precedence,
        )
        .unwrap();
        assert_eq!(eval.total(), record.total_time);
    }

    #[test]
    fn incremental_events_touch_few_processors_and_stay_valid() {
        let (mut session, _, base) = session(2);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = churn_trace(&base, 30, ChurnRegime::Mixed, &mut rng);
        let system = torus2d(8, 8).unwrap();
        for event in &trace {
            let before = session.assignment().clone();
            let record = session.apply(event);
            assert!(record.error.is_none(), "{:?}", record.error);
            assert!(record.total_time >= record.lower_bound);
            if record.action == "incremental" {
                // Incremental moves stay inside the touched regions.
                assert!(
                    record.moves <= 4 * session.config.region_size,
                    "{} moves",
                    record.moves
                );
                assert_eq!(record.moves, count_moves(session.assignment(), &before));
            }
            // The recorded total matches an independent evaluation of
            // the current state.
            let graph = session.workload().materialize().unwrap();
            let eval = evaluate_assignment(
                &graph,
                &system,
                session.assignment(),
                EvaluationModel::Precedence,
            )
            .unwrap();
            assert_eq!(eval.total(), record.total_time);
        }
    }

    #[test]
    fn global_events_force_a_full_remap_and_reset_drift() {
        let (mut session, _, _) = session(4);
        let record = session.apply(&TraceEvent::ScaleEdgeWeights { percent: 150 });
        assert_eq!(record.action, "full");
        assert_eq!(record.drift, 0.0);
    }

    #[test]
    fn staleness_threshold_triggers_full_remaps() {
        let system = torus2d(8, 8).unwrap();
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let base = instance(128, 64, 5);
        let config = OnlineConfig {
            staleness_threshold: 0.0, // every event is already stale
            ..OnlineConfig::default()
        };
        let (mut session, _) = IncrementalMapper::with_config(config)
            .begin(DynamicWorkload::from_clustered(&base), hierarchy, 5)
            .unwrap();
        let record = session.apply(&TraceEvent::SetTaskSize { task: 0, size: 9 });
        assert_eq!(record.action, "full");
    }

    #[test]
    fn invalid_events_report_errors_without_corrupting_state() {
        let (mut session, init, _) = session(6);
        let before = session.assignment().clone();
        let record = session.apply(&TraceEvent::RemoveTask { task: 100_000 });
        assert_eq!(record.action, "error");
        assert!(record.error.is_some());
        assert_eq!(record.total_time, init.total_time);
        assert_eq!(session.assignment(), &before);
        // The session keeps going after an error.
        let record = session.apply(&TraceEvent::SetTaskSize { task: 0, size: 4 });
        assert!(record.error.is_none());
        assert_eq!(record.index, 2);
    }

    #[test]
    fn mismatched_machine_is_rejected_at_begin() {
        let system = torus2d(4, 4).unwrap();
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let base = instance(128, 64, 7);
        assert!(IncrementalMapper::new()
            .begin(DynamicWorkload::from_clustered(&base), hierarchy, 7)
            .is_err());
    }

    /// 4 tasks in 2 clusters: 0 -> 1 (w5), 0 -> 2 (w2), 1 -> 3 (w1),
    /// 2 -> 3 (w7); clusters {0,1} and {2,3}.
    fn two_clusters() -> ClusteredProblemGraph {
        let p = ProblemGraph::from_paper_edges(
            &[2, 3, 1, 4],
            &[(1, 2, 5), (1, 3, 2), (2, 4, 1), (3, 4, 7)],
        )
        .unwrap();
        let c = Clustering::new(vec![0, 0, 1, 1]).unwrap();
        ClusteredProblemGraph::new(p, c).unwrap()
    }

    fn two_cluster_session() -> (OnlineSession, ReplayRecord) {
        let hierarchy = Arc::new(SystemHierarchy::build(&chain(2).unwrap()).unwrap());
        let workload = DynamicWorkload::from_clustered(&two_clusters());
        IncrementalMapper::new()
            .begin(workload, hierarchy, 1)
            .unwrap()
    }

    fn scratch(session: &OnlineSession) -> Time {
        IdealSchedule::derive(&session.workload().materialize().unwrap()).lower_bound()
    }

    #[test]
    fn initial_bound_matches_from_scratch_derivation() {
        let (session, record) = two_cluster_session();
        assert_eq!(
            record.lower_bound,
            IdealSchedule::derive(&two_clusters()).lower_bound()
        );
        assert_eq!(record.lower_bound, scratch(&session));
    }

    #[test]
    fn every_event_kind_records_the_scratch_bound() {
        let (mut session, _) = two_cluster_session();
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
            let record = session.apply(event);
            assert!(record.error.is_none(), "{event:?}: {:?}", record.error);
            assert_eq!(record.lower_bound, scratch(&session), "{event:?}");
        }
    }

    #[test]
    fn a_max_weight_edge_neither_panics_nor_forces_remaps() {
        // The per-event weight recount overflowed on a u64::MAX edge
        // (debug: a panic; release: a wrapped denominator that drove
        // every event into a full V-cycle). Such a snapshot is refused
        // now; the heaviest edge admitted leaves room for the event's
        // +4 and no more.
        use mimd_taskgraph::problem::MAX_TOTAL_WEIGHT;
        let mut snapshot = DynamicWorkload::from_clustered(&two_clusters()).snapshot();
        snapshot.edges[0].weight = u64::MAX; // 0 -> 1, inside cluster 0
        assert!(DynamicWorkload::from_snapshot(&snapshot).is_err());
        let rest = (2 + 3 + 1 + 4) + (2 + 1 + 7);
        snapshot.edges[0].weight = MAX_TOTAL_WEIGHT - rest - 4;
        let hierarchy = Arc::new(SystemHierarchy::build(&chain(2).unwrap()).unwrap());
        let workload = DynamicWorkload::from_snapshot(&snapshot).unwrap();
        let (mut session, _) = IncrementalMapper::new()
            .begin(workload, hierarchy, 1)
            .unwrap();
        let record = session.apply(&TraceEvent::SetTaskSize { task: 2, size: 5 });
        assert!(record.error.is_none(), "{:?}", record.error);
        assert_eq!(record.action, "incremental");
        assert!(record.drift < 1e-9, "drift {}", record.drift);
        assert_eq!(record.lower_bound, scratch(&session));
    }

    #[test]
    fn rank_decreases_lower_the_recorded_bound() {
        // 0 -> 2 is the cross-cluster edge feeding the heavy 2 -> 3
        // chain: raising it raises the bound; shrinking it again lowers
        // ranks two hops downstream, and the bound with them.
        let (mut session, init) = two_cluster_session();
        let raised = session.apply(&TraceEvent::SetEdgeWeight {
            from: 0,
            to: 2,
            weight: 9,
        });
        assert_eq!(raised.lower_bound, scratch(&session));
        assert!(raised.lower_bound > init.lower_bound);
        let lowered = session.apply(&TraceEvent::SetEdgeWeight {
            from: 0,
            to: 2,
            weight: 1,
        });
        assert_eq!(lowered.lower_bound, scratch(&session));
        assert!(lowered.lower_bound < raised.lower_bound);
        assert!(lowered.lower_bound <= init.lower_bound);
    }

    /// The per-event lookup the region table replaced: scan the
    /// hierarchy's levels for the first group around `host` with at
    /// least `region_size` members, rebuilding each level's image.
    fn region_around(hierarchy: &SystemHierarchy, region_size: usize, host: NodeId) -> Vec<NodeId> {
        let target = region_size.max(2);
        for level in 0..hierarchy.depth() {
            let image = hierarchy.image_at(level);
            let members: Vec<NodeId> = (0..image.len())
                .filter(|&s| image[s] == image[host])
                .collect();
            if members.len() >= target {
                return members;
            }
        }
        (0..hierarchy.finest().len()).collect()
    }

    #[test]
    fn region_table_matches_the_per_event_lookup() {
        // A torus and a hypercube coarsen level by level; a star's
        // hierarchy stalls, so its regions are the whole machine.
        for system in [
            torus2d(8, 8).unwrap(),
            hypercube(6).unwrap(),
            star(12).unwrap(),
        ] {
            let hierarchy = SystemHierarchy::build(&system).unwrap();
            for region_size in [1, 4, 8, 20] {
                let table = RegionTable::build(&hierarchy, region_size);
                for host in 0..system.len() {
                    assert_eq!(
                        table.region_of(host),
                        region_around(&hierarchy, region_size, host),
                        "{} region_size {region_size} host {host}",
                        system.name()
                    );
                }
            }
        }
    }

    #[test]
    fn serialized_configs_are_refused_at_begin() {
        let mut config = OnlineConfig::default();
        config.multilevel.mapper.model = EvaluationModel::Serialized;
        let hierarchy = Arc::new(SystemHierarchy::build(&chain(2).unwrap()).unwrap());
        let workload = DynamicWorkload::from_clustered(&two_clusters());
        match IncrementalMapper::with_config(config).begin(workload, hierarchy, 1) {
            Err(GraphError::InvalidParameter(message)) => {
                assert!(message.contains("precedence"), "{message}");
            }
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("a serialized session was opened"),
        }
    }

    #[test]
    fn a_session_that_never_remaps_keeps_its_memory_bounded() -> Result<(), GraphError> {
        // 100 000 balanced arrivals and departures with no V-cycle and
        // no refinement: what grows is the workload's rows and the
        // evaluator's per-position state, and compaction alone holds
        // both near the live size (every edge runs along the position
        // order, so nothing else renumbers). Each arrival is fed by a
        // task of the base graph, whose successor row moves to its
        // pool's tail.
        let hierarchy = Arc::new(SystemHierarchy::build(&torus2d(4, 4)?)?);
        let base = instance(64, 16, 9);
        let config = OnlineConfig {
            staleness_threshold: f64::INFINITY,
            local_rounds: 0,
            ..OnlineConfig::default()
        };
        let recorder = Recorder::enabled();
        let (mut session, _) = IncrementalMapper::with_config(config)
            .with_recorder(recorder.clone())
            .begin(DynamicWorkload::from_clustered(&base), hierarchy, 9)?;
        let mut rng = StdRng::seed_from_u64(9);
        let mut arrivals = std::collections::VecDeque::new();
        let (mut applied, mut at_1000) = (0, 0);
        while applied < 100_000 {
            let task = session.workload().next_task_id();
            let mut events = vec![
                TraceEvent::AddTask {
                    task,
                    size: rng.gen_range(1..=20),
                    cluster: rng.gen_range(0..16),
                },
                TraceEvent::AddEdge {
                    from: rng.gen_range(0..64),
                    to: task,
                    weight: rng.gen_range(1..=12),
                },
            ];
            arrivals.push_back(task);
            if arrivals.len() > 32 {
                let oldest = arrivals.pop_front();
                events.extend(oldest.map(|task| TraceEvent::RemoveTask { task }));
            }
            for event in events.iter().take(100_000 - applied) {
                let record = session.apply(event);
                assert_eq!(record.error, None, "{event:?}");
                applied += 1;
                if applied == 1_000 {
                    at_1000 = session.resident_bytes();
                }
            }
        }
        let t = recorder.snapshot();
        assert_eq!(t.counter("online.materializations"), 1);
        assert!(t.counter("online.compactions") > 100, "{t:?}");
        let at_end = session.resident_bytes();
        assert!(
            at_end <= 2 * at_1000,
            "{at_end} bytes after 100 000 events, {at_1000} after 1 000"
        );
        Ok(())
    }

    #[test]
    fn pricing_a_candidate_leaves_the_session_unchanged() {
        let (mut session, _, _) = session(8);
        let system = torus2d(8, 8).unwrap();
        let before = session.assignment().clone();
        let mut rng = StdRng::seed_from_u64(8);
        let candidate = Assignment::random(64, &mut rng);
        let graph = session.workload().materialize().unwrap();
        let expected =
            evaluate_assignment(&graph, &system, &candidate, EvaluationModel::Precedence)
                .unwrap()
                .total();
        assert_eq!(session.price(&candidate).unwrap(), expected);
        assert_eq!(session.assignment(), &before);
        assert!(matches!(
            session.price(&Assignment::identity(3)),
            Err(GraphError::SizeMismatch { .. })
        ));
    }
}
