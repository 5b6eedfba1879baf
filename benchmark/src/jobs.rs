//! The three job workloads (`flat_batch`, `vcycle_scale`, `topo_cold`):
//! a list of job specs mapped one at a time through `map_job`, closed
//! loop, one client. They differ only in their inputs and in whether
//! the service (and so the topology cache) survives from rep to rep.

use std::sync::Arc;
use std::time::Instant;

use crate::inputs::{self, JobInputs};
use crate::layers::{
    self, AlgorithmSpec, ClusteredProblemGraph, ClusteringSpec, JobResult, JobRng, JobSpec,
    MapperConfig, MappingService, MultilevelConfig, RefineConfig,
};
use crate::procstat::cpu_seconds;
use crate::spans::Tracer;
use crate::stats::{is_bijection, sample_indices, Fnv};
use crate::workload::{
    nproc, Counters, Kind, LayerValues, Rep, RunContext, Verification, Workload,
};

/// A job workload after set-up.
pub struct JobWorkload {
    kind: Kind,
    context: RunContext,
    inputs: JobInputs,
    telemetry: bool,
    /// The warmed service the reps share; `None` on `topo_cold`, whose
    /// every rep starts from a fresh service and an empty cache.
    warm: Option<Arc<MappingService>>,
}

/// What a job rep keeps: every result, and the counters of the service
/// that produced them.
pub struct JobOutputs {
    results: Vec<JobResult>,
    counters: Counters,
}

/// A fresh service with every warm-up job run on it.
fn warmed_service(
    inputs: &JobInputs,
    threads: usize,
    telemetry: bool,
) -> Result<Arc<MappingService>, String> {
    let service = layers::service_new(threads, telemetry);
    for spec in &inputs.warmup {
        if let Some(error) = layers::map_job(&service, spec).error {
            return Err(format!("warm-up job failed: {error}"));
        }
    }
    Ok(service)
}

impl Workload for JobWorkload {
    type Outputs = JobOutputs;

    fn setup(kind: Kind, context: &RunContext, telemetry: bool) -> Result<Self, String> {
        let inputs = match kind {
            Kind::FlatBatch => inputs::flat_batch(context.seed, context.scale),
            Kind::VcycleScale => inputs::vcycle_scale(context.seed, context.scale),
            Kind::TopoCold => inputs::topo_cold(context.seed, context.scale),
            other => return Err(format!("{} is not a job workload", other.name())),
        };
        let service = warmed_service(&inputs, 0, telemetry)?;
        Ok(JobWorkload {
            kind,
            context: context.clone(),
            warm: (kind != Kind::TopoCold).then_some(service),
            inputs,
            telemetry,
        })
    }

    fn rep(&mut self, mut tracer: Option<&mut Tracer>) -> Result<(Rep, JobOutputs), String> {
        let jobs = &self.inputs.jobs;
        let mut op_ms = Vec::with_capacity(jobs.len());
        let mut results = Vec::with_capacity(jobs.len());
        let cpu_start = cpu_seconds();
        let started = Instant::now();
        let service = match &self.warm {
            Some(service) => Arc::clone(service),
            None => layers::service_new(0, self.telemetry),
        };
        for (index, spec) in jobs.iter().enumerate() {
            let sent = Instant::now();
            let result = layers::map_job(&service, spec);
            let answered = Instant::now();
            op_ms.push((answered - sent).as_secs_f64() * 1e3);
            results.push(result);
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record("rep.op", index as u64, sent, answered);
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_start;

        let mut digest = Fnv::default();
        let mut quality = Vec::with_capacity(results.len());
        let mut failed = 0;
        for result in &results {
            digest.word(result.total_time);
            digest.assignment(&result.assignment);
            match result.error {
                None => quality.push(result.percent_over_lower_bound),
                Some(_) => failed += 1,
            }
        }
        let rep = Rep {
            wall_s,
            cpu_s,
            op_ms,
            open_ms: Vec::new(),
            digest: digest.0,
            quality,
            attempted: results.len(),
            failed,
        };
        let outputs = JobOutputs {
            results,
            counters: Counters::of(&service),
        };
        Ok((rep, outputs))
    }

    fn verify(&self, outputs: &JobOutputs, mut tracer: Option<&mut Tracer>) -> Verification {
        // A verifier of its own, so checking never touches the measured
        // service's cache counters.
        let verifier = layers::service_new(1, false);
        let mut verification = Verification::default();
        for (index, (spec, result)) in self.inputs.jobs.iter().zip(&outputs.results).enumerate() {
            let outcome = verify_job(&verifier, spec, result, index as u64, tracer.as_deref_mut());
            verification.check(outcome.map_err(|e| format!("job {index}: {e}")));
        }
        verification
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        traced: &(Rep, JobOutputs),
        _reference_ops_per_s: f64,
    ) -> Result<LayerValues, String> {
        let (_, outputs) = traced;
        let cold = self.kind == Kind::TopoCold;
        let jobs = &self.inputs.jobs;
        // topo_cold replays every job (each needs its own cold build);
        // the warm workloads replay an even sample.
        let sample = match self.kind {
            Kind::TopoCold => sample_indices(jobs.len(), jobs.len()),
            Kind::FlatBatch => sample_indices(jobs.len(), 8),
            _ => sample_indices(jobs.len(), 2),
        };
        // Each sampled job runs twice, back to back, on two services in
        // the same cache state: once whole through `map_job` (the
        // `engine.job` span) and once layer by layer. Pairing them keeps
        // this host's speed swings out of the difference between the two.
        let whole_service = self.service_as_for_a_rep(0)?;
        let stepwise_service = self.service_as_for_a_rep(0)?;
        let mut totals = StepTotals::default();
        for &index in &sample {
            let op = index as u64;
            let expected = &outputs.results[index];
            let whole = tracer.span("engine.job", op, |_| {
                layers::map_job(&whole_service, &jobs[index])
            });
            let step = stepwise_job(tracer, &stepwise_service, &jobs[index], op, cold)?;
            let agree = |total: u64, assignment: &[usize]| {
                total == expected.total_time && assignment == expected.assignment.as_slice()
            };
            if !agree(whole.total_time, &whole.assignment)
                || !agree(step.total_time, &step.assignment)
            {
                return Err(format!(
                    "job {index}: the rep gave total {}, a second map_job {}, the stepwise replay {}",
                    expected.total_time, whole.total_time, step.total_time
                ));
            }
            totals.add(&step);
        }

        let mut values = LayerValues::new();
        let spans = tracer.totals();
        let seconds = |name: &str| spans.seconds(name);
        let per_call_us = |name: &str| spans.per_call_us(name);

        // Wall-clock of the sampled jobs run whole, and how much of it
        // the stepwise children account for.
        let job_s = seconds("engine.job");
        let stepwise = spans.of("stepwise.job");
        let accounted_s = (stepwise.total_ns - stepwise.self_ns) as f64 / 1e9;
        values.insert("trace.sampled_ops", sample.len() as f64);
        values.insert("engine.job_s", job_s);
        values.insert("engine.unaccounted_s", job_s - accounted_s);
        values.insert("engine.unaccounted_share", (job_s - accounted_s) / job_s);

        outputs.counters.insert_into(&mut values);
        values.insert("engine.cache_build_s", seconds("engine.cache_build"));
        values.insert("engine.cache_hit_us", per_call_us("engine.cache_hit"));

        values.insert("topology.build_s", seconds("topology.build"));
        values.insert("topology.nodes", totals.topology_nodes as f64);
        values.insert("sim.routing_table_s", seconds("sim.routing_table"));

        values.insert("taskgraph.generate_s", seconds("taskgraph.generate"));
        values.insert("taskgraph.cluster_s", seconds("taskgraph.cluster"));
        values.insert(
            "taskgraph.clustered_new_s",
            seconds("taskgraph.clustered_new"),
        );
        values.insert("taskgraph.abstract_s", seconds("taskgraph.abstract"));
        values.insert("taskgraph.tasks", totals.tasks as f64);
        values.insert("taskgraph.edges", totals.edges as f64);

        values.insert("core.ideal_s", seconds("core.ideal"));
        values.insert("core.critical_s", seconds("core.critical"));
        values.insert("core.initial_s", seconds("core.initial"));
        values.insert("core.refine_s", seconds("core.refine"));
        values.insert(
            "core.map_s",
            seconds("core.map") + seconds("multilevel.top_map"),
        );
        values.insert("core.evaluate_us", per_call_us("core.evaluate"));
        values.insert("core.validate_s", seconds("core.validate"));
        values.insert(
            "core.candidates_per_s",
            match seconds("core.refine") {
                s if s > 0.0 => totals.flat_candidates as f64 / s,
                _ => 0.0,
            },
        );

        values.insert(
            "multilevel.system_hierarchy_s",
            seconds("multilevel.system_hierarchy"),
        );
        values.insert("multilevel.coarsen_s", seconds("multilevel.coarsen"));
        values.insert("multilevel.top_map_s", seconds("multilevel.top_map"));
        values.insert("multilevel.map_s", seconds("multilevel.map"));
        values.insert(
            "multilevel.uncoarsen_s",
            match seconds("multilevel.map") {
                map if map > 0.0 => {
                    map - seconds("multilevel.coarsen")
                        - seconds("multilevel.top_map")
                        - totals.multilevel_ideal_s
                }
                _ => 0.0,
            },
        );
        values.insert("multilevel.levels", totals.levels as f64);
        values.insert("multilevel.evaluations", totals.evaluations as f64);
        values.insert("multilevel.improvements", totals.improvements as f64);
        values.insert(
            "multilevel.improve_ratio",
            totals.improvements as f64 / (totals.evaluations.max(1)) as f64,
        );

        values.insert("engine.pool_efficiency", self.pool_efficiency()?);
        if self.kind == Kind::VcycleScale && self.context.scale == inputs::Scale::Full {
            let (seconds, rss_mb) = huge_job(self.context.seed)?;
            values.insert("multilevel.map_4096_s", seconds);
            values.insert("multilevel.rss_4096_mb", rss_mb);
        }
        Ok(values)
    }
}

impl JobWorkload {
    /// A service in the cache state a rep starts from, telemetry off:
    /// warmed where the reps share a warm service, empty on `topo_cold`.
    fn service_as_for_a_rep(&self, threads: usize) -> Result<Arc<MappingService>, String> {
        match self.warm {
            Some(_) => warmed_service(&self.inputs, threads, false),
            None => Ok(layers::service_new(threads, false)),
        }
    }

    /// `run_batch` on a prefix of the rep at one engine thread and at
    /// `nproc`: T1 / (n * Tn). Diagnostic: it predicts how `mimd batch`
    /// scales, which no end-to-end workload here exercises.
    fn pool_efficiency(&self) -> Result<f64, String> {
        let nproc = nproc();
        let prefix = match self.kind {
            Kind::FlatBatch => 16,
            Kind::TopoCold => 12,
            _ => 4,
        };
        let jobs = &self.inputs.jobs[..prefix.min(self.inputs.jobs.len())];
        let time = |threads: usize| -> Result<f64, String> {
            let service = self.service_as_for_a_rep(threads)?;
            let started = Instant::now();
            let results = layers::run_batch(&service, jobs);
            let elapsed = started.elapsed().as_secs_f64();
            match results.iter().find_map(|r| r.error.clone()) {
                Some(error) => Err(format!("run_batch job failed: {error}")),
                None => Ok(elapsed),
            }
        };
        let serial = time(1)?;
        let parallel = time(nproc)?;
        Ok(serial / (nproc as f64 * parallel))
    }
}

/// One `layered:8192` job on `torus:64x64` (ns = 4096), cache warm:
/// seconds for the job and the process's peak RSS after it. Diagnostic
/// only — between repeats it differs by up to 2x today.
fn huge_job(seed: u64) -> Result<(f64, f64), String> {
    let mut spec = inputs::vcycle_scale(seed, inputs::Scale::Full).jobs[0].clone();
    spec.workload = layers::WorkloadSpec::Layered {
        tasks: 8192,
        width: None,
    };
    spec.topology = layers::TopologySpec::Torus { rows: 64, cols: 64 };
    let service = layers::service_new(0, false);
    let artifacts = layers::cache_get_or_build(&service, &spec.topology, 0)?;
    layers::cache_system_hierarchy(&service, &artifacts)?;
    let started = Instant::now();
    let result = layers::map_job(&service, &spec);
    let seconds = started.elapsed().as_secs_f64();
    match result.error {
        Some(error) => Err(format!("ns=4096 job failed: {error}")),
        None => Ok((seconds, crate::procstat::peak_rss_mb())),
    }
}

/// Rebuild the instance a job spec describes, exactly as the engine's
/// `try_execute` does: workload, then clustering, from one generator
/// seeded with the job seed.
fn rebuild(spec: &JobSpec, ns: usize) -> Result<ClusteredProblemGraph, String> {
    let mut rng = layers::job_rng(spec.seed);
    let problem = layers::workload_build(&spec.workload, &mut rng)?;
    let clustering = layers::clustering_build(
        spec.clustering.unwrap_or(ClusteringSpec::Region),
        &problem,
        ns,
        &mut rng,
    )?;
    layers::clustered_new(problem, clustering)
}

/// Every check a job result must pass (ISSUE satellite 1).
fn verify_job(
    verifier: &MappingService,
    spec: &JobSpec,
    result: &JobResult,
    op: u64,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    if let Some(error) = &result.error {
        return Err(format!("errored: {error}"));
    }
    let artifacts =
        layers::cache_get_or_build(verifier, &spec.topology, spec.topology_seed.unwrap_or(0))?;
    let system = &artifacts.system;
    let ns = layers::system_len(system);
    if result.assignment.len() != ns || !is_bijection(&result.assignment) {
        return Err(format!("assignment is not a bijection on 0..{ns}"));
    }
    let graph = rebuild(spec, ns)?;
    let assignment = layers::assignment_from(&result.assignment)?;
    let mut scratch = Tracer::default();
    let tracer = tracer.unwrap_or(&mut scratch);
    let evaluation = tracer.span("core.evaluate", op, |_| {
        layers::evaluate(&graph, system, &assignment)
    })?;
    let violations = tracer.span("core.validate", op, |_| {
        layers::validate(&graph, system, &evaluation)
    });
    let total = layers::total_time(&evaluation);
    if total != result.total_time {
        return Err(format!(
            "total_time {} but the assignment evaluates to {total}",
            result.total_time
        ));
    }
    if violations != 0 {
        return Err(format!("{violations} schedule violations"));
    }
    let bound = layers::lower_bound(&layers::ideal_derive(&graph));
    if bound != result.lower_bound || result.total_time < bound {
        return Err(format!(
            "lower bound {} reported, {bound} derived, total {}",
            result.lower_bound, result.total_time
        ));
    }
    Ok(())
}

/// What one stepwise replay returns beside its spans.
#[derive(Default)]
struct Step {
    total_time: u64,
    assignment: Vec<usize>,
    tasks: usize,
    edges: usize,
    topology_nodes: usize,
    flat_candidates: usize,
    levels: usize,
    evaluations: usize,
    improvements: usize,
    multilevel_ideal_s: f64,
}

/// Sums (and one maximum) over the sampled steps.
#[derive(Default)]
struct StepTotals {
    tasks: usize,
    edges: usize,
    topology_nodes: usize,
    flat_candidates: usize,
    levels: usize,
    evaluations: usize,
    improvements: usize,
    multilevel_ideal_s: f64,
}

impl StepTotals {
    fn add(&mut self, step: &Step) {
        self.tasks += step.tasks;
        self.edges += step.edges;
        self.topology_nodes += step.topology_nodes;
        self.flat_candidates += step.flat_candidates;
        self.levels = self.levels.max(step.levels);
        self.evaluations += step.evaluations;
        self.improvements += step.improvements;
        self.multilevel_ideal_s += step.multilevel_ideal_s;
    }
}

/// What the side probes need once the `stepwise.job` root has closed.
enum Probe {
    None,
    Multilevel {
        graph: ClusteredProblemGraph,
        hierarchy: Arc<layers::SystemHierarchy>,
        rng: JobRng,
    },
}

/// Re-run one job by calling each layer's public functions in
/// `try_execute`'s order and generator order, every call inside a span
/// under one `stepwise.job` root. The side probes (`topology.build`,
/// `sim.routing_table`, `multilevel.coarsen`, `multilevel.top_map`)
/// time pieces the product only runs *inside* one of those calls, so
/// they run after the root has closed, as roots of their own.
fn stepwise_job(
    tracer: &mut Tracer,
    service: &MappingService,
    spec: &JobSpec,
    op: u64,
    cold: bool,
) -> Result<Step, String> {
    let topology_seed = spec.topology_seed.unwrap_or(0);
    let lookup = if cold {
        "engine.cache_build"
    } else {
        "engine.cache_hit"
    };
    let (mut step, probe) = tracer.span("stepwise.job", op, |t| {
        let artifacts = t.span(lookup, op, |_| {
            layers::cache_get_or_build(service, &spec.topology, topology_seed)
        })?;
        let system = &artifacts.system;
        let ns = layers::system_len(system);
        let mut rng = layers::job_rng(spec.seed);
        let problem = t.span("taskgraph.generate", op, |_| {
            layers::workload_build(&spec.workload, &mut rng)
        })?;
        let clustering = t.span("taskgraph.cluster", op, |_| {
            layers::clustering_build(
                spec.clustering.unwrap_or(ClusteringSpec::Region),
                &problem,
                ns,
                &mut rng,
            )
        })?;
        let graph = t.span("taskgraph.clustered_new", op, |_| {
            layers::clustered_new(problem, clustering)
        })?;
        let (ideal, ideal_s) = t.timed("core.ideal", op, |_| layers::ideal_derive(&graph));
        let bound = layers::lower_bound(&ideal);
        let (tasks, edges) = layers::graph_size(&graph);
        let mut step = Step {
            tasks,
            edges,
            ..Step::default()
        };
        let mut probe = Probe::None;
        match &spec.algorithm {
            AlgorithmSpec::Paper {
                refine_iterations,
                exchange_pool,
            } => {
                let config = MapperConfig {
                    refine_iterations: *refine_iterations,
                    exchange_pool: *exchange_pool,
                    ..MapperConfig::default()
                };
                let flat = t.span("core.map", op, |t| {
                    stepwise_paper(t, &config, &graph, system, &mut rng, op)
                })?;
                step.total_time = flat.total;
                step.assignment = flat.assignment;
                step.flat_candidates = flat.candidates;
            }
            AlgorithmSpec::Multilevel { .. } => {
                let hierarchy = t.span("multilevel.system_hierarchy", op, |_| {
                    layers::cache_system_hierarchy(service, &artifacts)
                })?;
                // The top-map probe must see the generator exactly as
                // the real top-level map does.
                let probe_rng = rng.clone();
                let result = t.span("multilevel.map", op, |_| {
                    layers::multilevel_map(
                        &MultilevelConfig::default(),
                        &graph,
                        &hierarchy,
                        &mut rng,
                    )
                })?;
                step.total_time = result.total_time;
                step.assignment = layers::sys_of(&result.assignment).to_vec();
                step.levels = result.levels;
                step.evaluations = result.evaluations;
                step.improvements = result.improvements;
                // map_with_hierarchy derives the ideal schedule of the
                // same graph once more; charge it what that just cost.
                step.multilevel_ideal_s = ideal_s;
                probe = Probe::Multilevel {
                    graph,
                    hierarchy,
                    rng: probe_rng,
                };
            }
            AlgorithmSpec::Random { k: 1 } => {
                let assignment = t.span("core.random_place", op, |_| {
                    layers::assignment_random(ns, &mut rng)
                });
                let evaluation = t.span("core.evaluate", op, |_| {
                    layers::evaluate(&graph, system, &assignment)
                })?;
                step.total_time = layers::total_time(&evaluation);
                step.assignment = layers::sys_of(&assignment).to_vec();
            }
            other => return Err(format!("no stepwise replay for {other:?}")),
        }
        if step.total_time < bound {
            return Err(format!(
                "stepwise total {} below the bound {bound}",
                step.total_time
            ));
        }
        Ok::<_, String>((step, probe))
    })?;

    if let Probe::Multilevel {
        graph,
        hierarchy,
        mut rng,
    } = probe
    {
        let config = MultilevelConfig::default();
        let coarse = tracer.span("multilevel.coarsen", op, |_| {
            layers::coarsen(&graph, &hierarchy, &config)
        })?;
        let (top_graph, top_system) = layers::hierarchy_top(&coarse);
        tracer.span("multilevel.top_map", op, |_| {
            layers::mapper_map(&config.mapper, top_graph, top_system, &mut rng)
        })?;
    }
    if cold {
        // What get_or_build spent its time on, called directly.
        let built = tracer.span("topology.build", op, |_| {
            layers::topology_build(&spec.topology, topology_seed)
        })?;
        tracer.span("sim.routing_table", op, |_| layers::routing_table(&built));
        step.topology_nodes = layers::system_len(&built);
    }
    Ok(step)
}

struct Flat {
    total: u64,
    assignment: Vec<usize>,
    candidates: usize,
}

/// `Mapper::map` spelled out: ideal schedule, critical analysis,
/// abstract graph, initial assignment, pinned refinement, then the
/// unpinned fallback pass when the bound was not reached.
fn stepwise_paper(
    t: &mut Tracer,
    config: &MapperConfig,
    graph: &ClusteredProblemGraph,
    system: &layers::SystemGraph,
    rng: &mut JobRng,
    op: u64,
) -> Result<Flat, String> {
    let ideal = t.span("core.ideal", op, |_| layers::ideal_derive(graph));
    let bound = layers::lower_bound(&ideal);
    let critical = t.span("core.critical", op, |_| {
        layers::critical_analyze(graph, &ideal, config)
    });
    let abstract_graph = t.span("taskgraph.abstract", op, |_| layers::abstract_new(graph));
    let init = t.span("core.initial", op, |_| {
        layers::initial(graph, &abstract_graph, &critical, system)
    })?;
    let pinned = RefineConfig {
        iterations: config
            .refine_iterations
            .unwrap_or(layers::system_len(system)),
        model: config.model,
        respect_pins: config.respect_pins,
        exchange_pool: config.exchange_pool,
    };
    let mut outcome = t.span("core.refine", op, |_| {
        layers::refine_pass(
            graph,
            system,
            &init.assignment,
            &init.critical,
            bound,
            &pinned,
            rng,
        )
    })?;
    let mut candidates = outcome.iterations_used;
    if config.unpinned_fallback && !outcome.reached_lower_bound {
        let free = RefineConfig {
            respect_pins: false,
            ..pinned
        };
        let second = t.span("core.refine", op, |_| {
            layers::refine_pass(
                graph,
                system,
                &outcome.assignment,
                &init.critical,
                bound,
                &free,
                rng,
            )
        })?;
        candidates += second.iterations_used;
        if second.total < outcome.total {
            outcome = second;
        }
    }
    Ok(Flat {
        total: outcome.total,
        assignment: layers::sys_of(&outcome.assignment).to_vec(),
        candidates,
    })
}
