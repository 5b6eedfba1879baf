//! The algorithm registry: one dispatch point from a declarative
//! [`AlgorithmSpec`] to the paper's `mimd-core` pipeline, the
//! multilevel V-cycle, the online incremental remapper (cold-started),
//! or any `mimd-baselines` algorithm, all behind the uniform
//! [`MappingAlgorithm`] trait surface. Hierarchy-consuming algorithms
//! (multilevel, incremental) are handed the topology cache's shared
//! [`SystemHierarchy`] by [`instantiate`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngCore;

use mimd_baselines::algorithm::{
    AlgorithmOutcome, Annealing, Bokhari, LeeAggarwal, MappingAlgorithm, PairwiseExchange,
    RandomSearch,
};
use mimd_baselines::AnnealingSchedule;
use mimd_core::{Mapper, MapperConfig};
use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_multilevel::{MultilevelConfig, MultilevelMapper, SystemHierarchy};
use mimd_online::{DynamicWorkload, IncrementalMapper, OnlineConfig};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

use crate::spec::AlgorithmSpec;

/// The paper's pipeline adapted to the uniform trait surface.
#[derive(Clone, Debug, Default)]
pub struct PaperStrategy {
    /// Pipeline configuration (paper defaults unless overridden).
    pub config: MapperConfig,
    /// Telemetry sink for refinement counters; disabled by default.
    pub recorder: Recorder,
}

impl MappingAlgorithm for PaperStrategy {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn run(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        _lower_bound: Time,
        rng: &mut StdRng,
    ) -> Result<AlgorithmOutcome, GraphError> {
        let result = Mapper::with_config(self.config.clone())
            .with_recorder(self.recorder.clone())
            .map(graph, system, rng)?;
        Ok(AlgorithmOutcome {
            assignment: result.assignment,
            total: result.total_time,
            evaluations: result.refinement.iterations_used,
        })
    }
}

/// The multilevel V-cycle (`mimd-multilevel`) adapted to the uniform
/// trait surface. When the engine hands it the topology cache's shared
/// hierarchy, the per-job system-side setup (matchings, contractions,
/// per-level APSP) is skipped entirely; the result is identical either
/// way.
#[derive(Clone, Debug, Default)]
pub struct MultilevelStrategy {
    /// V-cycle configuration (multilevel defaults unless overridden).
    pub config: MultilevelConfig,
    /// Shared system-side hierarchy; `None` builds one per run.
    pub hierarchy: Option<Arc<SystemHierarchy>>,
    /// Telemetry sink handed to the V-cycle (no-op by default).
    pub recorder: Recorder,
}

impl MappingAlgorithm for MultilevelStrategy {
    fn name(&self) -> &'static str {
        "multilevel"
    }

    fn run(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        _lower_bound: Time,
        rng: &mut StdRng,
    ) -> Result<AlgorithmOutcome, GraphError> {
        let mapper =
            MultilevelMapper::with_config(self.config.clone()).with_recorder(self.recorder.clone());
        let result = match &self.hierarchy {
            // Small machines take the direct path either way; only use
            // the shared hierarchy when it actually matches the target.
            Some(hierarchy) if hierarchy.finest().len() == system.len() => {
                mapper.map_with_hierarchy(graph, hierarchy, rng)?
            }
            _ => mapper.map(graph, system, rng)?,
        };
        Ok(AlgorithmOutcome {
            assignment: result.assignment,
            total: result.total_time,
            evaluations: result.evaluations,
        })
    }
}

/// The online incremental remapper (`mimd-online`), cold-started: a
/// one-shot job plays the role of a session's initial mapping (a full
/// V-cycle against the shared hierarchy). Trace replay — the warm path
/// where increments actually pay off — lives behind `mimd replay`.
#[derive(Clone, Debug, Default)]
pub struct IncrementalStrategy {
    /// Online configuration (defaults unless overridden).
    pub config: OnlineConfig,
    /// Shared system-side hierarchy; `None` builds one per run.
    pub hierarchy: Option<Arc<SystemHierarchy>>,
    /// Telemetry sink handed to the session (no-op by default).
    pub recorder: Recorder,
}

impl MappingAlgorithm for IncrementalStrategy {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn run(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        _lower_bound: Time,
        rng: &mut StdRng,
    ) -> Result<AlgorithmOutcome, GraphError> {
        let hierarchy = match &self.hierarchy {
            Some(hierarchy) if hierarchy.finest().len() == system.len() => Arc::clone(hierarchy),
            _ => Arc::new(SystemHierarchy::build(system)?),
        };
        let seed = rng.next_u64();
        let (session, record) = IncrementalMapper::with_config(self.config.clone())
            .with_recorder(self.recorder.clone())
            .begin(DynamicWorkload::from_clustered(graph), hierarchy, seed)?;
        Ok(AlgorithmOutcome {
            assignment: session.assignment().clone(),
            total: record.total_time,
            evaluations: record.evaluations,
        })
    }
}

/// Every algorithm the registry can instantiate, with a one-line
/// description — the source of the `mimd algorithms` listing. Kept next
/// to [`instantiate`] so a new variant updates both or fails the
/// round-trip test below.
pub fn algorithm_catalog() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "paper",
            "the paper's pipeline: ideal schedule, critical edges, greedy placement, randomized refinement",
        ),
        (
            "multilevel",
            "coarsen-map-refine V-cycle: heavy-edge coarsening, flat mapping at the top, group-local refinement while prolonging",
        ),
        (
            "incremental",
            "online remapper cold start: full V-cycle against the cached hierarchy (trace replay: mimd replay)",
        ),
        ("random", "best of k uniformly random placements (the paper's baseline)"),
        ("bokhari", "Bokhari's cardinality maximization with probabilistic jumps"),
        ("lee", "Lee & Aggarwal's phased communication-cost minimization with restarts"),
        ("annealing", "simulated annealing on total time (quench or slow schedule)"),
        ("pairwise", "best-improvement pairwise exchange under an evaluation budget"),
    ]
}

/// Instantiate the algorithm a spec names. `ns` sizes schedule-dependent
/// defaults (the annealing schedules scale with the machine).
/// Hierarchy-consuming algorithms (multilevel, incremental) use the
/// shared system-side `hierarchy` when given one (the engine passes the
/// topology cache's) and build their own otherwise; instrumented
/// algorithms (paper, multilevel, incremental) record into `recorder`.
/// The flat baselines run unrecorded — their cost is visible as the
/// whole job span. Neither argument ever changes a result.
pub fn instantiate(
    spec: &AlgorithmSpec,
    ns: usize,
    hierarchy: Option<Arc<SystemHierarchy>>,
    recorder: &Recorder,
) -> Box<dyn MappingAlgorithm> {
    match *spec {
        AlgorithmSpec::Paper {
            refine_iterations,
            exchange_pool,
        } => Box::new(PaperStrategy {
            config: MapperConfig {
                refine_iterations,
                exchange_pool,
                ..MapperConfig::default()
            },
            recorder: recorder.clone(),
        }),
        AlgorithmSpec::Random { k } => Box::new(RandomSearch { k }),
        AlgorithmSpec::Bokhari { jumps } => Box::new(Bokhari { jumps }),
        AlgorithmSpec::Lee { restarts } => Box::new(LeeAggarwal { restarts }),
        AlgorithmSpec::Annealing { slow } => Box::new(Annealing {
            schedule: if slow {
                AnnealingSchedule::slow(ns)
            } else {
                AnnealingSchedule::quench(ns)
            },
        }),
        AlgorithmSpec::Pairwise { max_evaluations } => {
            Box::new(PairwiseExchange { max_evaluations })
        }
        AlgorithmSpec::Multilevel {
            direct_threshold,
            refine_rounds,
            refine_batch,
            // Accepted on the wire for old job files; it never changed
            // a result and refinement is sequential.
            refine_threads: _,
        } => Box::new(MultilevelStrategy {
            config: multilevel_config(direct_threshold, refine_rounds, refine_batch),
            hierarchy,
            recorder: recorder.clone(),
        }),
        AlgorithmSpec::Incremental {
            migration_penalty,
            staleness_threshold,
            local_rounds,
            region_size,
        } => {
            let defaults = OnlineConfig::default();
            Box::new(IncrementalStrategy {
                config: OnlineConfig {
                    migration_penalty: migration_penalty.unwrap_or(defaults.migration_penalty),
                    staleness_threshold: staleness_threshold
                        .unwrap_or(defaults.staleness_threshold),
                    local_rounds: local_rounds.unwrap_or(defaults.local_rounds),
                    region_size: region_size.unwrap_or(defaults.region_size),
                    multilevel: defaults.multilevel,
                },
                hierarchy,
                recorder: recorder.clone(),
            })
        }
    }
}

/// Resolve optional spec fields against the multilevel defaults.
fn multilevel_config(
    direct_threshold: Option<usize>,
    refine_rounds: Option<usize>,
    refine_batch: Option<usize>,
) -> MultilevelConfig {
    let defaults = MultilevelConfig::default();
    MultilevelConfig {
        direct_threshold: direct_threshold.unwrap_or(defaults.direct_threshold),
        refine_rounds: refine_rounds.unwrap_or(defaults.refine_rounds),
        refine_batch: refine_batch.unwrap_or(defaults.refine_batch),
        mapper: defaults.mapper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgorithmSpec;
    use mimd_core::IdealSchedule;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::SeedableRng;

    #[test]
    fn every_spec_instantiates_with_a_matching_name() {
        let specs = [
            AlgorithmSpec::Paper {
                refine_iterations: None,
                exchange_pool: 0,
            },
            AlgorithmSpec::Random { k: 4 },
            AlgorithmSpec::Bokhari { jumps: 2 },
            AlgorithmSpec::Lee { restarts: 2 },
            AlgorithmSpec::Annealing { slow: false },
            AlgorithmSpec::Pairwise {
                max_evaluations: 32,
            },
            AlgorithmSpec::Multilevel {
                direct_threshold: None,
                refine_rounds: None,
                refine_batch: None,
                refine_threads: None,
            },
            AlgorithmSpec::Incremental {
                migration_penalty: None,
                staleness_threshold: None,
                local_rounds: None,
                region_size: None,
            },
        ];
        for spec in &specs {
            assert_eq!(
                instantiate(spec, 4, None, &Recorder::disabled()).name(),
                spec.name()
            );
        }
    }

    #[test]
    fn catalog_round_trips_with_the_parser() {
        // Every catalog entry parses, and its parse has the same name.
        for &(name, description) in algorithm_catalog() {
            let spec = AlgorithmSpec::parse(name)
                .unwrap_or_else(|e| panic!("catalog name '{name}' does not parse: {e}"));
            assert_eq!(spec.name(), name);
            assert!(!description.is_empty());
        }
        // Conversely, every spec the parser knows appears in the catalog.
        for name in [
            "paper",
            "random",
            "bokhari",
            "lee",
            "annealing",
            "pairwise",
            "multilevel",
            "incremental",
        ] {
            assert!(
                algorithm_catalog().iter().any(|&(n, _)| n == name),
                "'{name}' missing from the catalog"
            );
        }
    }

    fn vcycle_instance() -> (ClusteredProblemGraph, SystemGraph) {
        use mimd_taskgraph::clustering::region::random_region_clustering;
        use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
        let mut rng = StdRng::seed_from_u64(8);
        let system = mimd_topology::torus2d(8, 8).unwrap();
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 128,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, 64, &mut rng).unwrap();
        (
            ClusteredProblemGraph::new(problem, clustering).unwrap(),
            system,
        )
    }

    #[test]
    fn multilevel_strategy_runs_a_real_vcycle() {
        let (graph, system) = vcycle_instance();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        let spec = AlgorithmSpec::Multilevel {
            direct_threshold: Some(16),
            refine_rounds: Some(8),
            refine_batch: None,
            refine_threads: None,
        };
        let algo = instantiate(&spec, 64, None, &Recorder::disabled());
        let mut rng = StdRng::seed_from_u64(8);
        let out = algo.run(&graph, &system, lb, &mut rng).unwrap();
        assert!(out.total >= lb);
        assert_eq!(out.assignment.len(), 64);

        // A cached hierarchy produces the identical result.
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let cached = instantiate(&spec, 64, Some(hierarchy), &Recorder::disabled());
        let mut rng = StdRng::seed_from_u64(8);
        let out2 = cached.run(&graph, &system, lb, &mut rng).unwrap();
        assert_eq!(out2.assignment, out.assignment);
        assert_eq!(out2.total, out.total);
    }

    #[test]
    fn incremental_strategy_cold_starts_with_a_full_vcycle() {
        let (graph, system) = vcycle_instance();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let algo = instantiate(
            &AlgorithmSpec::parse("incremental").unwrap(),
            64,
            Some(hierarchy),
            &Recorder::disabled(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let out = algo.run(&graph, &system, lb, &mut rng).unwrap();
        assert!(out.total >= lb);
        assert_eq!(out.assignment.len(), 64);
        assert!(out.evaluations > 0);
    }

    #[test]
    fn paper_strategy_reaches_the_worked_example_optimum() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        let algo = instantiate(
            &AlgorithmSpec::Paper {
                refine_iterations: None,
                exchange_pool: 0,
            },
            4,
            None,
            &Recorder::disabled(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let out = algo.run(&graph, &system, lb, &mut rng).unwrap();
        assert_eq!(out.total, lb);
    }
}
