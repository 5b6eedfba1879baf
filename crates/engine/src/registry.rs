//! The algorithm registry: one table of every algorithm a job can name
//! ([`algorithm_catalog`]) and one dispatch from an [`AlgorithmSpec`] to
//! the function that runs it ([`AlgorithmSpec::run`]) — the paper's
//! `mimd-core` pipeline, the multilevel V-cycle, the online incremental
//! remapper (cold-started) or a `mimd-baselines` algorithm.

use std::cmp::Ordering;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngCore;

use mimd_baselines::{
    best_of_random, bokhari_mapping, lee_mapping, pairwise_exchange, phases_by_level,
    simulated_annealing, AnnealingSchedule,
};
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{Assignment, Mapper, MapperConfig};
use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_multilevel::{MultilevelConfig, MultilevelMapper, SystemHierarchy};
use mimd_online::{DynamicWorkload, IncrementalMapper, SessionConfig};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

use crate::spec::AlgorithmSpec;

/// Every algorithm, in `mimd algorithms` order: its name, a one-line
/// description and the spec [`AlgorithmSpec::parse`] gives the name.
/// The only list of algorithms — parsing, its error text, the CLI
/// listing and the served catalog all read it.
static ALGORITHMS: &[(&str, &str, AlgorithmSpec)] = &[
    (
        "paper",
        "the paper's pipeline: ideal schedule, critical edges, greedy placement, randomized refinement",
        AlgorithmSpec::Paper {
            refine_iterations: None,
            exchange_pool: 0,
        },
    ),
    (
        "multilevel",
        "coarsen-map-refine V-cycle: heavy-edge coarsening, flat mapping at the top, group-local refinement while prolonging",
        AlgorithmSpec::Multilevel {
            direct_threshold: None,
            refine_rounds: None,
            refine_batch: None,
            refine_threads: None,
        },
    ),
    (
        "incremental",
        "online remapper cold start: full V-cycle against the cached hierarchy (trace replay: mimd replay)",
        AlgorithmSpec::Incremental {
            migration_penalty: None,
            staleness_threshold: None,
            local_rounds: None,
            region_size: None,
        },
    ),
    (
        "random",
        "best of k uniformly random placements (the paper's baseline)",
        AlgorithmSpec::Random { k: 32 },
    ),
    (
        "bokhari",
        "Bokhari's cardinality maximization with probabilistic jumps",
        AlgorithmSpec::Bokhari { jumps: 10 },
    ),
    (
        "lee",
        "Lee & Aggarwal's phased communication-cost minimization with restarts",
        AlgorithmSpec::Lee { restarts: 5 },
    ),
    (
        "annealing",
        "simulated annealing on total time (quench or slow schedule)",
        AlgorithmSpec::Annealing { slow: false },
    ),
    (
        "pairwise",
        "best-improvement pairwise exchange under an evaluation budget",
        AlgorithmSpec::Pairwise {
            max_evaluations: 256,
        },
    ),
];

/// Every algorithm a job can name: `(name, description, default spec)`.
pub fn algorithm_catalog() -> &'static [(&'static str, &'static str, AlgorithmSpec)] {
    ALGORITHMS
}

/// What every algorithm reports back: a placement, its paper-model
/// total time, and how much work was spent finding it.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgorithmOutcome {
    /// The cluster→processor placement found.
    pub assignment: Assignment,
    /// Total execution time of the placement under the precedence model.
    pub total: Time,
    /// Schedule evaluations (or equivalent unit of search effort) spent.
    pub evaluations: usize,
}

impl AlgorithmSpec {
    /// Stable machine-readable name (the first column of
    /// [`algorithm_catalog`]).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Paper { .. } => "paper",
            AlgorithmSpec::Random { .. } => "random",
            AlgorithmSpec::Bokhari { .. } => "bokhari",
            AlgorithmSpec::Lee { .. } => "lee",
            AlgorithmSpec::Annealing { .. } => "annealing",
            AlgorithmSpec::Pairwise { .. } => "pairwise",
            AlgorithmSpec::Multilevel { .. } => "multilevel",
            AlgorithmSpec::Incremental { .. } => "incremental",
        }
    }

    /// Parse a CLI name into its default spec.
    pub fn parse(s: &str) -> Result<Self, String> {
        match ALGORITHMS.iter().find(|&&(name, ..)| name == s) {
            Some((.., spec)) => Ok(spec.clone()),
            None => {
                // Listed in the enum's declaration order, which the derived
                // `PartialOrd` compares first (each variant is in the table
                // once).
                let mut entries: Vec<_> = ALGORITHMS.iter().collect();
                entries.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(Ordering::Equal));
                let names: Vec<&str> = entries.iter().map(|&&(name, ..)| name).collect();
                Err(format!("unknown algorithm '{s}' ({})", names.join("|")))
            }
        }
    }

    /// Run the algorithm on one instance. `lower_bound` is the
    /// ideal-graph bound, for algorithms with early-termination
    /// conditions. `hierarchy` yields the machine's system hierarchy and
    /// is called only by the algorithms that read it — a V-cycle above
    /// its direct threshold and every incremental cold start — and its
    /// error is returned verbatim; an algorithm's own failure comes back
    /// as `"<name>: <error>"`. The instrumented algorithms (paper,
    /// multilevel, incremental) record into `recorder`; the flat
    /// baselines run unrecorded. The result depends only on the
    /// arguments and the RNG, never on the recorder.
    pub fn run(
        &self,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        lower_bound: Time,
        hierarchy: &dyn Fn() -> Result<Arc<SystemHierarchy>, String>,
        recorder: &Recorder,
        rng: &mut StdRng,
    ) -> Result<AlgorithmOutcome, String> {
        let failed = |e: GraphError| format!("{}: {e}", self.name());
        let ns = system.len();
        // The baselines optimise their own objectives; re-price their
        // placement under the precedence model so every total compares.
        let precedence_total = |assignment: &Assignment| {
            evaluate_assignment(graph, system, assignment, EvaluationModel::Precedence)
                .map(|eval| eval.total())
                .map_err(failed)
        };
        let outcome = |assignment: Assignment, total: Time, evaluations: usize| AlgorithmOutcome {
            assignment,
            total,
            evaluations,
        };
        Ok(match *self {
            AlgorithmSpec::Paper {
                refine_iterations,
                exchange_pool,
            } => {
                let result = Mapper::with_config(MapperConfig {
                    refine_iterations,
                    exchange_pool,
                    ..MapperConfig::default()
                })
                .with_recorder(recorder.clone())
                .map(graph, system, rng)
                .map_err(failed)?;
                outcome(
                    result.assignment,
                    result.total_time,
                    result.refinement.iterations_used,
                )
            }
            AlgorithmSpec::Random { k } => {
                let (assignment, total) =
                    best_of_random(graph, system, EvaluationModel::Precedence, k, rng)
                        .map_err(failed)?;
                outcome(assignment, total, k)
            }
            AlgorithmSpec::Bokhari { jumps } => {
                let result = bokhari_mapping(graph, system, jumps, rng).map_err(failed)?;
                let total = precedence_total(&result.assignment)?;
                outcome(result.assignment, total, result.passes)
            }
            AlgorithmSpec::Lee { restarts } => {
                let phases = phases_by_level(graph);
                let result = lee_mapping(graph, system, &phases, restarts, rng).map_err(failed)?;
                let total = precedence_total(&result.assignment)?;
                outcome(result.assignment, total, result.passes)
            }
            AlgorithmSpec::Annealing { slow } => {
                let schedule = if slow {
                    AnnealingSchedule::slow(ns)
                } else {
                    AnnealingSchedule::quench(ns)
                };
                let out = simulated_annealing(
                    graph,
                    system,
                    None,
                    lower_bound,
                    &schedule,
                    EvaluationModel::Precedence,
                    rng,
                )
                .map_err(failed)?;
                outcome(out.assignment, out.total, out.evaluations)
            }
            AlgorithmSpec::Pairwise { max_evaluations } => {
                let start = Assignment::random(ns, rng);
                let out = pairwise_exchange(
                    graph,
                    system,
                    &start,
                    &vec![false; ns],
                    lower_bound,
                    max_evaluations,
                    EvaluationModel::Precedence,
                )
                .map_err(failed)?;
                outcome(out.assignment, out.total, out.evaluations)
            }
            AlgorithmSpec::Multilevel {
                direct_threshold,
                refine_rounds,
                refine_batch,
                // Accepted on the wire for old job files; it never changed
                // a result and refinement is sequential.
                refine_threads: _,
            } => {
                let defaults = MultilevelConfig::default();
                let mapper = MultilevelMapper::with_config(MultilevelConfig {
                    direct_threshold: direct_threshold.unwrap_or(defaults.direct_threshold),
                    refine_rounds: refine_rounds.unwrap_or(defaults.refine_rounds),
                    refine_batch: refine_batch.unwrap_or(defaults.refine_batch),
                    mapper: defaults.mapper,
                })
                .with_recorder(recorder.clone());
                // The mapper's own test: machines at or below the direct
                // threshold never read a hierarchy.
                let result = if ns > mapper.config().direct_threshold.max(1) {
                    mapper.map_with_hierarchy(graph, &*hierarchy()?, rng)
                } else {
                    mapper.map(graph, system, rng)
                }
                .map_err(failed)?;
                outcome(result.assignment, result.total_time, result.evaluations)
            }
            AlgorithmSpec::Incremental {
                migration_penalty,
                staleness_threshold,
                local_rounds,
                region_size,
            } => {
                let config = SessionConfig {
                    migration_penalty,
                    staleness_threshold,
                    local_rounds,
                    region_size,
                }
                .resolve();
                let hierarchy = hierarchy()?;
                let seed = rng.next_u64();
                let (session, record) = IncrementalMapper::with_config(config)
                    .with_recorder(recorder.clone())
                    .begin(DynamicWorkload::from_clustered(graph), hierarchy, seed)
                    .map_err(failed)?;
                outcome(
                    session.assignment().clone(),
                    record.total_time,
                    record.evaluations,
                )
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::IdealSchedule;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::SeedableRng;

    /// A hierarchy source that builds from `system` on demand.
    fn build(system: &SystemGraph) -> impl Fn() -> Result<Arc<SystemHierarchy>, String> + '_ {
        move || {
            SystemHierarchy::build(system)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        }
    }

    /// Run `spec` on `graph`/`system` from `seed`, unrecorded.
    fn run(
        spec: &AlgorithmSpec,
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        lower_bound: Time,
        seed: u64,
    ) -> AlgorithmOutcome {
        spec.run(
            graph,
            system,
            lower_bound,
            &build(system),
            &Recorder::disabled(),
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()))
    }

    #[test]
    fn catalog_round_trips_with_the_parser() {
        for (name, description, spec) in algorithm_catalog() {
            assert_eq!(AlgorithmSpec::parse(name).as_ref(), Ok(spec));
            assert_eq!(spec.name(), *name);
            assert!(!description.is_empty());
        }
        assert_eq!(
            AlgorithmSpec::parse("nope").unwrap_err(),
            "unknown algorithm 'nope' \
             (paper|random|bokhari|lee|annealing|pairwise|multilevel|incremental)"
        );
    }

    #[test]
    fn every_algorithm_runs_and_respects_the_lower_bound() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        for (_, _, spec) in algorithm_catalog() {
            let out = run(spec, &graph, &system, lb, 11);
            assert!(out.total >= lb, "{}", spec.name());
            assert_eq!(out.assignment.len(), 4, "{}", spec.name());
        }
    }

    #[test]
    fn dispatch_is_deterministic_per_seed() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        for (_, _, spec) in algorithm_catalog() {
            assert_eq!(
                run(spec, &graph, &system, 0, 5),
                run(spec, &graph, &system, 0, 5),
                "{}",
                spec.name()
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
        let multilevel = |direct_threshold| AlgorithmSpec::Multilevel {
            direct_threshold: Some(direct_threshold),
            refine_rounds: Some(8),
            refine_batch: None,
            refine_threads: None,
        };
        let out = run(&multilevel(16), &graph, &system, lb, 8);
        assert!(out.total >= lb);
        assert_eq!(out.assignment.len(), 64);

        // A shared prebuilt hierarchy produces the identical result.
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let shared = multilevel(16)
            .run(
                &graph,
                &system,
                lb,
                &|| Ok(Arc::clone(&hierarchy)),
                &Recorder::disabled(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert_eq!(shared, out);

        // At or below the direct threshold the hierarchy is never read.
        let direct = multilevel(64)
            .run(
                &graph,
                &system,
                lb,
                &|| panic!("a direct map read the hierarchy"),
                &Recorder::disabled(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert!(direct.total >= lb);
    }

    #[test]
    fn incremental_strategy_cold_starts_with_a_full_vcycle() {
        let (graph, system) = vcycle_instance();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        let out = run(
            &AlgorithmSpec::parse("incremental").unwrap(),
            &graph,
            &system,
            lb,
            3,
        );
        assert!(out.total >= lb);
        assert_eq!(out.assignment.len(), 64);
        assert!(out.evaluations > 0);
    }

    #[test]
    fn paper_strategy_reaches_the_worked_example_optimum() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let lb = IdealSchedule::derive(&graph).lower_bound();
        let out = run(
            &AlgorithmSpec::parse("paper").unwrap(),
            &graph,
            &system,
            lb,
            0,
        );
        assert_eq!(out.total, lb);
    }
}
