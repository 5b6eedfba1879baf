//! The end-to-end mapping pipeline (the paper's Fig 1 in one call).

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::critical::{CriticalAnalysis, CriticalityMode};
use crate::delta::DeltaWorkspace;
use crate::ideal::IdealSchedule;
use crate::initial::initial_assignment;
use crate::refine::{refine_with, RefineConfig, RefineOutcome};
use crate::schedule::EvaluationModel;

/// Pipeline configuration. [`MapperConfig::default`] is the paper's
/// setup: paper-exact criticality, precedence model, `ns` refinement
/// iterations, pinned critical clusters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Critical-edge propagation mode (default: paper-exact).
    pub criticality: CriticalityMode,
    /// Evaluation model (default: precedence).
    pub model: EvaluationModel,
    /// Refinement budget; `None` uses the paper's `ns`.
    pub refine_iterations: Option<usize>,
    /// Keep critical clusters pinned during refinement (default: true).
    pub respect_pins: bool,
    /// After the pinned refinement, run a second, unpinned pass with the
    /// same budget and keep the better result (default: true). The
    /// paper's pins occasionally lock a bad critical placement in place
    /// on sparse irregular topologies; this documented robustness pass
    /// guarantees the strategy never loses to its own initial mistakes
    /// (a pass of ours, not the paper's; the golden tests in
    /// `tests/regression.rs` turn it off to see the initial assignment
    /// alone).
    pub unpinned_fallback: bool,
    /// Gain-ranked pairwise-exchange budget appended to each refinement
    /// pass ([`RefineConfig::exchange_pool`]; default 0 = off, the
    /// paper's exact behaviour).
    #[serde(default)]
    pub exchange_pool: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            criticality: CriticalityMode::PaperExact,
            model: EvaluationModel::Precedence,
            refine_iterations: None,
            respect_pins: true,
            unpinned_fallback: true,
            exchange_pool: 0,
        }
    }
}

/// Everything the pipeline produced, including the intermediate
/// artifacts needed by reports and ablations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MappingResult {
    /// The final cluster→processor placement.
    pub assignment: Assignment,
    /// Total execution time of the final placement.
    pub total_time: Time,
    /// The ideal-graph lower bound (Theorem 3 target).
    pub lower_bound: Time,
    /// Total time of the greedy initial assignment (before refinement).
    pub initial_total: Time,
    /// Refinement statistics.
    pub refinement: RefineOutcome,
    /// Critical degrees per cluster (diagnostic).
    pub critical_degrees: Vec<u64>,
    /// Which clusters were pinned as critical abstract nodes.
    pub pinned: Vec<bool>,
}

impl MappingResult {
    /// The paper's headline metric: `100 × total / lower_bound`
    /// ("percentage over lower bound"; 100.0 means provably optimal).
    pub fn percent_over_lower_bound(&self) -> f64 {
        100.0 * self.total_time as f64 / self.lower_bound as f64
    }

    /// `true` iff the mapping is provably optimal (total == lower bound).
    pub fn is_provably_optimal(&self) -> bool {
        self.total_time == self.lower_bound
    }
}

/// The mapping strategy: ideal graph → critical edges → initial
/// assignment → refinement with the termination condition.
#[derive(Clone, Debug, Default)]
pub struct Mapper {
    config: MapperConfig,
    recorder: Recorder,
}

impl Mapper {
    /// Mapper with the paper's default configuration.
    pub fn new() -> Self {
        Mapper::default()
    }

    /// Mapper with a custom configuration.
    pub fn with_config(config: MapperConfig) -> Self {
        Mapper {
            config,
            recorder: Recorder::default(),
        }
    }

    /// Attach a telemetry recorder (refinement candidate/acceptance
    /// counters land on it).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Map `graph` onto `system` (requires `na == ns`). The RNG drives
    /// only the refinement's random re-placements.
    pub fn map(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        rng: &mut impl Rng,
    ) -> Result<MappingResult, GraphError> {
        let ideal = IdealSchedule::derive(graph);
        let critical = CriticalAnalysis::analyze(graph, &ideal, self.config.criticality);
        let init = initial_assignment(graph, graph.abstract_graph(), &critical, system)?;
        let refine_config = RefineConfig {
            iterations: self.config.refine_iterations.unwrap_or(system.len()),
            model: self.config.model,
            respect_pins: self.config.respect_pins,
            exchange_pool: self.config.exchange_pool,
        };
        // One workspace serves both refinement passes.
        let mut ws = DeltaWorkspace::new();
        let mut outcome = refine_with(
            graph,
            system,
            &init.assignment,
            &init.critical,
            ideal.lower_bound(),
            &refine_config,
            &self.recorder,
            &mut ws,
            rng,
        )?;
        if self.config.unpinned_fallback && !outcome.reached_lower_bound {
            let free_config = RefineConfig {
                respect_pins: false,
                ..refine_config
            };
            let second = refine_with(
                graph,
                system,
                &outcome.assignment,
                &init.critical,
                ideal.lower_bound(),
                &free_config,
                &self.recorder,
                &mut ws,
                rng,
            )?;
            if second.total < outcome.total {
                outcome = RefineOutcome {
                    initial_total: outcome.initial_total,
                    iterations_used: outcome.iterations_used + second.iterations_used,
                    improvements: outcome.improvements + second.improvements,
                    ..second
                };
            } else {
                outcome.iterations_used += second.iterations_used;
            }
        }
        Ok(MappingResult {
            assignment: outcome.assignment.clone(),
            total_time: outcome.total,
            lower_bound: ideal.lower_bound(),
            initial_total: outcome.initial_total,
            refinement: outcome,
            critical_degrees: critical.critical_degrees().to_vec(),
            pinned: init.critical,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::clustering::random::random_clustering;
    use mimd_taskgraph::paper;
    use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{hypercube, ring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn worked_example_is_provably_optimal_without_refinement() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let result = Mapper::new().map(&g, &sys, &mut rng).unwrap();
        assert!(result.is_provably_optimal());
        assert_eq!(result.total_time, 14);
        assert_eq!(result.initial_total, 14);
        assert_eq!(result.refinement.iterations_used, 0);
        assert_eq!(result.percent_over_lower_bound(), 100.0);
        assert_eq!(
            result.critical_degrees,
            paper::WORKED_CRITICAL_DEGREES.to_vec()
        );
    }

    #[test]
    fn random_instances_beat_or_match_random_mapping_on_average() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 60,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = hypercube(3).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut ours_sum = 0.0;
        let mut rand_sum = 0.0;
        for _ in 0..5 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 8, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let result = Mapper::new().map(&g, &sys, &mut rng).unwrap();
            let (avg, _, _) = crate::evaluate::random_mapping_average(
                &g,
                &sys,
                EvaluationModel::Precedence,
                16,
                &mut rng,
            )
            .unwrap();
            ours_sum += result.total_time as f64;
            rand_sum += avg;
            assert!(result.total_time as f64 >= result.lower_bound as f64);
        }
        assert!(
            ours_sum <= rand_sum,
            "strategy ({ours_sum}) should beat random mapping ({rand_sum}) on average"
        );
    }

    #[test]
    fn result_total_never_below_lower_bound() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 40,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = ring(5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 5, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let r = Mapper::new().map(&g, &sys, &mut rng).unwrap();
            assert!(r.total_time >= r.lower_bound);
            assert!(r.total_time <= r.initial_total);
        }
    }

    #[test]
    fn custom_config_is_respected() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let cfg = MapperConfig {
            criticality: CriticalityMode::Extended,
            refine_iterations: Some(0),
            ..MapperConfig::default()
        };
        let mapper = Mapper::with_config(cfg.clone());
        assert_eq!(mapper.config(), &cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let r = mapper.map(&g, &sys, &mut rng).unwrap();
        assert!(r.refinement.iterations_used <= 1);
    }

    #[test]
    fn na_ns_mismatch_rejected() {
        let g = paper::worked_example();
        let sys = ring(5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(Mapper::new().map(&g, &sys, &mut rng).is_err());
    }
}
