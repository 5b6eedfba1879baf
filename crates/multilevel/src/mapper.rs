//! The V-cycle: coarsen, map at the top, prolong + refine back down.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::{Assignment, IdealSchedule, Mapper, MapperConfig};
use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph};
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

use crate::hierarchy::{Coarsening, Hierarchy, SystemHierarchy};
use crate::refine::{refine_within_groups, LocalRefineConfig};

/// Multilevel configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultilevelConfig {
    /// Machine size at or below which the flat paper pipeline runs
    /// directly (also the top-level target of the coarsening loop).
    pub direct_threshold: usize,
    /// Group-local refinement rounds (candidate evaluations) per level
    /// during uncoarsening.
    pub refine_rounds: usize,
    /// Candidates drawn per refinement batch. The batch is the unit of
    /// acceptance (best improving candidate wins, ties to the earliest),
    /// so output depends on this value. 1 reproduces the classic
    /// sequential accept-first-improvement loop.
    pub refine_batch: usize,
    /// Configuration of the flat mapper used at the top level (and for
    /// direct solves); its `model` is also the refinement objective.
    pub mapper: MapperConfig,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            direct_threshold: 32,
            refine_rounds: 16,
            refine_batch: 1,
            mapper: MapperConfig::default(),
        }
    }
}

/// What the V-cycle produced.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultilevelResult {
    /// The final cluster→processor placement on the original machine.
    pub assignment: Assignment,
    /// Total execution time of the final placement.
    pub total_time: Time,
    /// The finest-level ideal-graph lower bound (Theorem 3 target).
    pub lower_bound: Time,
    /// Hierarchy depth including the finest level (1 = solved flat).
    pub levels: usize,
    /// Machine size the flat mapper actually solved.
    pub top_ns: usize,
    /// Flat-mapper refinement iterations plus group-local rounds spent.
    pub evaluations: usize,
    /// Improving rounds during uncoarsening.
    pub improvements: usize,
    /// `true` iff the final total equals the lower bound (provably
    /// optimal).
    pub reached_lower_bound: bool,
}

impl MultilevelResult {
    /// The paper's headline metric: `100 × total / lower_bound`.
    pub fn percent_over_lower_bound(&self) -> f64 {
        100.0 * self.total_time as f64 / self.lower_bound as f64
    }
}

/// The multilevel mapper: a coarsen–map–refine V-cycle with the paper's
/// pipeline as its top-level kernel and its §4.3.3 refinement
/// (restricted to processor groups) as the uncoarsening smoother.
#[derive(Clone, Debug, Default)]
pub struct MultilevelMapper {
    config: MultilevelConfig,
    /// Telemetry sink for V-cycle phase spans; disabled (no-op) unless
    /// a caller attaches a live recorder. Not part of the serde config:
    /// recorders are process-local handles, not tuning knobs.
    recorder: Recorder,
}

impl MultilevelMapper {
    /// Mapper with the default configuration.
    pub fn new() -> Self {
        MultilevelMapper::default()
    }

    /// Mapper with a custom configuration.
    pub fn with_config(config: MultilevelConfig) -> Self {
        MultilevelMapper {
            config,
            recorder: Recorder::default(),
        }
    }

    /// Attach a telemetry recorder: V-cycle runs record per-phase spans
    /// (`vcycle.coarsen`, `vcycle.initial_map`, `vcycle.prolong`,
    /// `vcycle.refine`) and the structural counters `vcycle.runs` /
    /// `vcycle.levels` into it. Recording never changes results.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }

    /// Map `graph` onto `system` (requires `na == ns`, like the flat
    /// pipeline). All randomness flows from `rng` in a fixed order
    /// (top-level mapper first, then one refinement pass per level), so
    /// a seed fully determines the result. Builds a fresh system-side
    /// hierarchy; callers mapping repeatedly on one machine should
    /// build a [`SystemHierarchy`] once (or fetch it from the engine's
    /// topology cache) and call [`MultilevelMapper::map_with_hierarchy`].
    pub fn map(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        rng: &mut impl Rng,
    ) -> Result<MultilevelResult, GraphError> {
        if graph.num_clusters() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: system.len(),
            });
        }
        if system.len() <= self.config.direct_threshold.max(1) {
            return self.map_direct(graph, system, rng);
        }
        let sys = SystemHierarchy::build(system)?;
        self.map_with_hierarchy(graph, &sys, rng)
    }

    /// Map against a prebuilt (typically cached) system-side hierarchy,
    /// skipping the per-topology matchings, contractions and APSP
    /// sweeps. Produces exactly the result of [`MultilevelMapper::map`]
    /// on `sys.finest()`.
    pub fn map_with_hierarchy(
        &self,
        graph: &ClusteredProblemGraph,
        sys: &SystemHierarchy,
        rng: &mut impl Rng,
    ) -> Result<MultilevelResult, GraphError> {
        let system = sys.finest();
        if graph.num_clusters() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: system.len(),
            });
        }
        if system.len() <= self.config.direct_threshold.max(1) {
            return self.map_direct(graph, system, rng);
        }
        let lower_bound = IdealSchedule::derive(graph).lower_bound();
        let hierarchy = self.recorder.time("vcycle.coarsen", || {
            Hierarchy::from_system_hierarchy(graph, sys, self.config.direct_threshold)
        })?;
        self.recorder.incr("vcycle.runs");
        self.recorder.add("vcycle.levels", hierarchy.depth() as u64);
        let top = hierarchy.top();
        // The top-level flat solve reports its ledger gains as the
        // V-cycle's initial map, at the level index above the finest
        // coarsening (levels count down to 0 = input graph).
        let flat = Mapper::with_config(self.config.mapper.clone()).with_recorder(
            self.recorder
                .clone()
                .with_gain_scope("vcycle.initial_map", hierarchy.coarsenings().len() as u32),
        );
        let top_result = self.recorder.time("vcycle.initial_map", || {
            flat.map(&top.graph, &top.system, rng)
        })?;
        let mut assignment = top_result.assignment;
        // The result's total is level 0's committed total — the input
        // graph on the finest machine, and delta totals are exact — or
        // the top-level map's when nothing was coarsened.
        let mut total_time = top_result.total_time;
        let mut evaluations = top_result.refinement.iterations_used;
        let mut improvements = 0;

        // One delta workspace serves every level's refinement pass; its
        // buffers grow once to the finest level's size and are reused.
        let mut refine_ws = DeltaWorkspace::new();
        for k in (0..hierarchy.coarsenings().len()).rev() {
            let level = &hierarchy.levels()[k];
            let coarsening = &hierarchy.coarsenings()[k];
            assignment = self.recorder.time("vcycle.prolong", || {
                prolong(coarsening, &assignment, &level.system)
            })?;
            let config = LocalRefineConfig {
                // Level 0 is the input graph, whose bound is in hand —
                // don't re-derive the ideal schedule of the largest level.
                lower_bound: if k == 0 {
                    lower_bound
                } else {
                    IdealSchedule::derive(&level.graph).lower_bound()
                },
                rounds: self.config.refine_rounds,
                batch: self.config.refine_batch,
            };
            let scoped = self
                .recorder
                .clone()
                .with_gain_scope("vcycle.refine", k as u32);
            let out = self.recorder.time("vcycle.refine", || {
                let mut evaluator = DeltaEvaluator::attach(
                    &mut refine_ws,
                    &level.graph,
                    &level.system,
                    self.config.mapper.model,
                    &assignment,
                )?;
                Ok::<_, GraphError>(refine_within_groups(
                    &mut evaluator,
                    coarsening.groups(),
                    &config,
                    |_, total| u128::from(total),
                    &scoped,
                    rng,
                ))
            })?;
            assignment = out.assignment;
            total_time = out.total;
            evaluations += out.rounds_used;
            improvements += out.improvements;
        }

        Ok(MultilevelResult {
            assignment,
            total_time,
            lower_bound,
            levels: hierarchy.depth(),
            top_ns: top.system.len(),
            evaluations,
            improvements,
            reached_lower_bound: total_time == lower_bound,
        })
    }

    /// The direct path: machines at or below the threshold are solved
    /// by the unmodified flat pipeline.
    fn map_direct(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        rng: &mut impl Rng,
    ) -> Result<MultilevelResult, GraphError> {
        self.recorder.incr("vcycle.runs");
        self.recorder.add("vcycle.levels", 1);
        let flat =
            Mapper::with_config(self.config.mapper.clone()).with_recorder(self.recorder.clone());
        let result = self
            .recorder
            .time("vcycle.initial_map", || flat.map(graph, system, rng))?;
        Ok(MultilevelResult {
            reached_lower_bound: result.total_time == result.lower_bound,
            assignment: result.assignment,
            total_time: result.total_time,
            lower_bound: result.lower_bound,
            levels: 1,
            top_ns: system.len(),
            evaluations: result.refinement.iterations_used,
            improvements: result.refinement.improvements,
        })
    }
}

/// Expand a coarse assignment one level down: each fine cluster tries
/// the fine processors of the group its coarse host maps to (ascending
/// member order); when a group is oversubscribed — cluster merges and
/// processor matches need not agree in size — the leftovers spill to
/// the free processor nearest to the group (by the fine machine's hop
/// matrix, ties to the lowest id). Counts match globally, so the result
/// is always a bijection.
fn prolong(
    coarsening: &Coarsening,
    coarse: &Assignment,
    fine_system: &SystemGraph,
) -> Result<Assignment, GraphError> {
    let groups = coarsening.groups();
    let m = groups.len();
    let fine_n = coarsening.cluster_map.len();
    let mut members_of: Vec<Vec<ClusterId>> = vec![Vec::new(); m];
    for (a, &c) in coarsening.cluster_map.iter().enumerate() {
        members_of[c].push(a);
    }

    let mut sys_of = vec![usize::MAX; fine_n];
    let mut next_free = vec![0usize; m];
    let mut spill = Vec::new();
    for (c, members) in members_of.iter().enumerate() {
        let g = coarse.sys_of(c);
        for &a in members {
            let group = &groups[g];
            if next_free[g] < group.len() {
                sys_of[a] = group[next_free[g]];
                next_free[g] += 1;
            } else {
                spill.push((a, g));
            }
        }
    }
    let mut free_procs: Vec<usize> = (0..m)
        .flat_map(|g| groups[g][next_free[g]..].iter().copied())
        .collect();
    for (a, g) in spill {
        let anchor = groups[g][0];
        let s = fine_system
            .distances()
            .nearest_of(anchor, free_procs.iter())
            .expect("spilled clusters have free processors (counts match)");
        free_procs.retain(|&x| x != s);
        sys_of[a] = s;
    }
    Assignment::from_sys_of(sys_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::schedule::EvaluationModel;
    use mimd_core::validate_schedule;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{fat_tree, hypercube, mesh2d, ring, torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn small_machines_take_the_direct_path() {
        let system = ring(4).unwrap();
        let graph = mimd_taskgraph::paper::worked_example();
        let mut rng = StdRng::seed_from_u64(0);
        let result = MultilevelMapper::new()
            .map(&graph, &system, &mut rng)
            .unwrap();
        assert_eq!(result.levels, 1);
        assert_eq!(result.top_ns, 4);
        assert!(result.reached_lower_bound);
        assert_eq!(result.total_time, 14);
    }

    #[test]
    fn vcycle_produces_valid_schedules_on_large_machines() {
        for (system, seed) in [
            (mesh2d(8, 16).unwrap(), 11u64),
            (torus2d(12, 12).unwrap(), 12),
            (hypercube(7).unwrap(), 13),
            (fat_tree(4, 4).unwrap(), 14),
        ] {
            let ns = system.len();
            let graph = instance(2 * ns, ns, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let result = MultilevelMapper::new()
                .map(&graph, &system, &mut rng)
                .unwrap();
            assert!(
                result.levels > 1,
                "{}: expected a real V-cycle",
                system.name()
            );
            assert!(result.top_ns <= 32);
            assert!(result.total_time >= result.lower_bound);
            // The prolonged assignment is a bijection and its schedule
            // is feasible.
            let eval = evaluate_assignment(
                &graph,
                &system,
                &result.assignment,
                EvaluationModel::Precedence,
            )
            .unwrap();
            assert_eq!(eval.total(), result.total_time);
            let violations = validate_schedule(
                &graph,
                &system,
                &result.assignment,
                &eval.schedule,
                EvaluationModel::Precedence,
            );
            assert!(violations.is_empty(), "{}: {violations:?}", system.name());
        }
    }

    #[test]
    fn same_seed_same_result() {
        let system = mesh2d(8, 8).unwrap();
        let graph = instance(128, 64, 5);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            MultilevelMapper::new()
                .map(&graph, &system, &mut rng)
                .unwrap()
        };
        assert_eq!(run(3), run(3));
        // Config is plumbed through.
        let config = MultilevelConfig {
            direct_threshold: 16,
            refine_rounds: 4,
            ..MultilevelConfig::default()
        };
        let mapper = MultilevelMapper::with_config(config.clone());
        assert_eq!(mapper.config(), &config);
        let mut rng = StdRng::seed_from_u64(3);
        let r = mapper.map(&graph, &system, &mut rng).unwrap();
        assert!(r.top_ns <= 16);
    }

    #[test]
    fn cached_hierarchy_map_matches_fresh_map() {
        let system = torus2d(8, 8).unwrap();
        let graph = instance(128, 64, 17);
        let sys = SystemHierarchy::build(&system).unwrap();
        let mapper = MultilevelMapper::new();
        let mut rng = StdRng::seed_from_u64(4);
        let fresh = mapper.map(&graph, &system, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cached = mapper.map_with_hierarchy(&graph, &sys, &mut rng).unwrap();
        assert_eq!(fresh, cached);
        // The cached path rejects mismatched problem sizes too.
        let small = instance(40, 8, 1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(mapper.map_with_hierarchy(&small, &sys, &mut rng).is_err());
    }

    #[test]
    fn multilevel_quality_is_close_to_flat_at_64() {
        // The acceptance bar: within 10% of the flat pipeline's total
        // at ns = 64 (checked in the bench across topologies; this is
        // the in-tree guard for one fixed instance).
        let system = mesh2d(8, 8).unwrap();
        let graph = instance(128, 64, 21);
        let mut rng = StdRng::seed_from_u64(2);
        let flat = Mapper::new().map(&graph, &system, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let multi = MultilevelMapper::new()
            .map(&graph, &system, &mut rng)
            .unwrap();
        let ratio = multi.total_time as f64 / flat.total_time as f64;
        assert!(
            ratio <= 1.10,
            "multilevel {} vs flat {} (ratio {ratio:.3})",
            multi.total_time,
            flat.total_time
        );
    }

    #[test]
    fn na_ns_mismatch_rejected() {
        let system = mesh2d(4, 4).unwrap();
        let graph = instance(40, 8, 1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MultilevelMapper::new()
            .map(&graph, &system, &mut rng)
            .is_err());
    }

    #[test]
    fn config_serde_roundtrip() {
        let config = MultilevelConfig {
            direct_threshold: 24,
            refine_rounds: 9,
            refine_batch: 4,
            ..MultilevelConfig::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: MultilevelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
