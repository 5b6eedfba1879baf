//! The serde job model: what a mapping request looks like on the wire.
//!
//! A [`JobSpec`] is one line of a JSONL batch: a workload, a clustering
//! front-end, a target topology, an algorithm and a seed. A
//! [`JobResult`] is the one-line answer. Both round-trip through
//! `serde_json`, and field order is stable, so batch output is
//! byte-reproducible.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_taskgraph::clustering::comm_greedy::comm_greedy_clustering;
use mimd_taskgraph::clustering::random::random_clustering;
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::clustering::sarkar::sarkar_clustering;
use mimd_taskgraph::clustering::Clustering;
use mimd_taskgraph::{
    workloads, ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
};
pub use mimd_topology::TopologySpec;

/// Declarative description of a problem graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadSpec {
    /// Random layered DAG (the CLI's default generator regime).
    Layered {
        /// Number of tasks.
        tasks: usize,
        /// Average layer width; `None` picks `(tasks/8).clamp(3, 16)`.
        width: Option<usize>,
    },
    /// Random layered DAG in the paper's §5 experiment regime
    /// (compute-dominated critical paths, light communication).
    PaperRegime {
        /// Number of tasks.
        tasks: usize,
    },
    /// Gaussian elimination on an `n × n` system.
    GaussianElimination {
        /// Matrix dimension (≥ 2).
        n: usize,
    },
    /// 1-D stencil, `width` cells × `steps` time steps.
    Stencil {
        /// Cells per step.
        width: usize,
        /// Time steps.
        steps: usize,
    },
    /// FFT butterfly on `2^log2n` points.
    Fft {
        /// log2 of the point count.
        log2n: u32,
    },
    /// Binary divide-and-conquer of the given depth.
    DivideAndConquer {
        /// Tree depth.
        depth: u32,
    },
    /// Software pipeline: `stages` stages × `tasks` tasks per stage.
    Pipeline {
        /// Stage count.
        stages: usize,
        /// Tasks per stage.
        tasks: usize,
    },
}

impl WorkloadSpec {
    /// Build the problem graph. Only the random workloads consume the RNG.
    pub fn build(&self, rng: &mut StdRng) -> Result<ProblemGraph, GraphError> {
        match *self {
            WorkloadSpec::Layered { tasks, width } => {
                let avg_width = width.unwrap_or((tasks / 8).clamp(3, 16));
                let gen = LayeredDagGenerator::new(GeneratorConfig {
                    tasks,
                    avg_width,
                    locality_window: Some(1),
                    ..GeneratorConfig::default()
                })?;
                Ok(gen.generate(rng))
            }
            WorkloadSpec::PaperRegime { tasks } => {
                let gen = LayeredDagGenerator::new(GeneratorConfig {
                    tasks,
                    avg_width: (tasks / 8).clamp(3, 16),
                    p_forward: 0.45,
                    p_skip: 0.01,
                    task_weight: (3, 24),
                    edge_weight: (4, 16),
                    connect_layers: true,
                    locality_window: Some(1),
                })?;
                Ok(gen.generate(rng))
            }
            WorkloadSpec::GaussianElimination { n } => workloads::gaussian_elimination(n, 3, 5, 2),
            WorkloadSpec::Stencil { width, steps } => workloads::stencil_1d(width, steps, 5, 2),
            WorkloadSpec::Fft { log2n } => workloads::fft_butterfly(log2n, 3, 2),
            WorkloadSpec::DivideAndConquer { depth } => {
                workloads::divide_and_conquer(depth, 1, 6, 2, 2)
            }
            WorkloadSpec::Pipeline { stages, tasks } => workloads::pipeline(stages, tasks, 4, 2),
        }
    }

    /// Parse the CLI mini-language: `tasks:96`, `paper:120`, `ge:12`,
    /// `stencil:16x8`, `fft:5`, `dnc:4`, `pipe:4x16`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or("workload must look like 'kind:params'")?;
        let bad = |what: &str| format!("bad {what} in workload '{spec}'");
        match kind {
            "tasks" | "layered" => Ok(WorkloadSpec::Layered {
                tasks: rest.parse().map_err(|_| bad("tasks"))?,
                width: None,
            }),
            "paper" => Ok(WorkloadSpec::PaperRegime {
                tasks: rest.parse().map_err(|_| bad("tasks"))?,
            }),
            "ge" => Ok(WorkloadSpec::GaussianElimination {
                n: rest.parse().map_err(|_| bad("n"))?,
            }),
            "stencil" => {
                let (w, s) = rest.split_once('x').ok_or_else(|| bad("width x steps"))?;
                Ok(WorkloadSpec::Stencil {
                    width: w.parse().map_err(|_| bad("width"))?,
                    steps: s.parse().map_err(|_| bad("steps"))?,
                })
            }
            "fft" => Ok(WorkloadSpec::Fft {
                log2n: rest.parse().map_err(|_| bad("log2n"))?,
            }),
            "dnc" => Ok(WorkloadSpec::DivideAndConquer {
                depth: rest.parse().map_err(|_| bad("depth"))?,
            }),
            "pipe" => {
                let (s, t) = rest.split_once('x').ok_or_else(|| bad("stages x tasks"))?;
                Ok(WorkloadSpec::Pipeline {
                    stages: s.parse().map_err(|_| bad("stages"))?,
                    tasks: t.parse().map_err(|_| bad("tasks"))?,
                })
            }
            other => Err(format!("unknown workload kind '{other}'")),
        }
    }

    /// Short human-readable label for reports.
    pub fn label(&self) -> String {
        match *self {
            WorkloadSpec::Layered { tasks, .. } => format!("layered({tasks})"),
            WorkloadSpec::PaperRegime { tasks } => format!("paper({tasks})"),
            WorkloadSpec::GaussianElimination { n } => format!("ge({n})"),
            WorkloadSpec::Stencil { width, steps } => format!("stencil({width}x{steps})"),
            WorkloadSpec::Fft { log2n } => format!("fft({log2n})"),
            WorkloadSpec::DivideAndConquer { depth } => format!("dnc({depth})"),
            WorkloadSpec::Pipeline { stages, tasks } => format!("pipe({stages}x{tasks})"),
        }
    }
}

/// Which clustering front-end groups tasks into `ns` clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ClusteringSpec {
    /// Randomly grown contiguous regions (default).
    Region,
    /// I.i.d. random task assignment.
    Iid,
    /// Sarkar edge-zeroing.
    Sarkar,
    /// Communication-greedy merging.
    CommGreedy,
}

impl ClusteringSpec {
    /// Cluster `problem` into `ns` clusters.
    pub fn build(
        &self,
        problem: &ProblemGraph,
        ns: usize,
        rng: &mut StdRng,
    ) -> Result<Clustering, GraphError> {
        match self {
            ClusteringSpec::Region => random_region_clustering(problem, ns, rng),
            ClusteringSpec::Iid => random_clustering(problem, ns, rng),
            ClusteringSpec::Sarkar => sarkar_clustering(problem, ns),
            ClusteringSpec::CommGreedy => comm_greedy_clustering(problem, ns, 1.5),
        }
    }

    /// Derive the instance a job maps: reject `np < ns`, then cluster
    /// `problem` with [`ClusteringSpec::build`] — the engine's order,
    /// workload then clustering, when `problem` came from the same RNG.
    /// The errors are the ones a failed batch job reports.
    pub fn instance(
        self,
        problem: ProblemGraph,
        ns: usize,
        rng: &mut StdRng,
    ) -> Result<ClusteredProblemGraph, String> {
        if problem.len() < ns {
            return Err(format!(
                "workload has {} tasks but the machine has {ns} processors; need np >= ns",
                problem.len()
            ));
        }
        let clustering = self
            .build(&problem, ns, rng)
            .map_err(|e| format!("clustering: {e}"))?;
        ClusteredProblemGraph::new(problem, clustering).map_err(|e| format!("instance: {e}"))
    }

    /// Parse a CLI name. Accepts the JSONL wire names (snake_case of
    /// the variants) plus common aliases.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "region" => Ok(ClusteringSpec::Region),
            "iid" | "random" => Ok(ClusteringSpec::Iid),
            "sarkar" => Ok(ClusteringSpec::Sarkar),
            "comm_greedy" | "greedy" | "comm-greedy" => Ok(ClusteringSpec::CommGreedy),
            other => Err(format!(
                "unknown clustering '{other}' (region|iid|sarkar|comm_greedy)"
            )),
        }
    }
}

/// Which mapping algorithm to run; its names, parsing and dispatch live
/// in [`crate::registry`].
#[derive(Clone, Debug, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AlgorithmSpec {
    /// The paper's full pipeline (ideal schedule → critical edges →
    /// initial placement → refinement).
    Paper {
        /// Refinement budget; `None` uses the paper's `ns`.
        refine_iterations: Option<usize>,
        /// Gain-ranked pairwise-exchange budget appended to each
        /// refinement pass (0 = off, the paper's exact behaviour).
        #[serde(default)]
        exchange_pool: usize,
    },
    /// Best of `k` uniformly random placements.
    Random {
        /// Number of draws.
        k: usize,
    },
    /// Bokhari's cardinality maximization with jumps.
    Bokhari {
        /// Jump rounds.
        jumps: usize,
    },
    /// Lee & Aggarwal's phased communication cost.
    Lee {
        /// Random restarts.
        restarts: usize,
    },
    /// Simulated annealing on total time.
    Annealing {
        /// `true` for the slow schedule, `false` for quenching.
        slow: bool,
    },
    /// Best-improvement pairwise exchange.
    Pairwise {
        /// Evaluation budget.
        max_evaluations: usize,
    },
    /// Multilevel coarsen–map–refine V-cycle around the paper pipeline.
    Multilevel {
        /// Machine size at/below which the flat mapper runs directly;
        /// `None` uses the multilevel default (32).
        direct_threshold: Option<usize>,
        /// Group-local refinement rounds per uncoarsening level;
        /// `None` uses the multilevel default (16).
        refine_rounds: Option<usize>,
        /// Refinement candidates per acceptance batch; `None` uses the
        /// multilevel default (1 = classic sequential).
        refine_batch: Option<usize>,
        /// Accepted and ignored: older job files carry it, it never
        /// changed a result, and refinement is sequential.
        refine_threads: Option<usize>,
    },
    /// The online incremental remapper (`mimd-online`), cold-started:
    /// one initial full V-cycle against the cached system hierarchy —
    /// the entry point a trace replay session begins from.
    Incremental {
        /// Cost charged per migrated cluster; `None` uses the online
        /// default (2).
        migration_penalty: Option<u64>,
        /// Drift fraction triggering a full V-cycle; `None` uses the
        /// online default (0.25).
        staleness_threshold: Option<f64>,
        /// Candidate evaluations per incremental event; `None` uses
        /// the online default (6).
        local_rounds: Option<usize>,
        /// Minimum processors per refinement region; `None` uses the
        /// online default (8).
        region_size: Option<usize>,
    },
}

/// One mapping request: a line of a JSONL batch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Caller-chosen identifier; defaults to the job's batch index.
    pub id: Option<String>,
    /// The problem graph.
    pub workload: WorkloadSpec,
    /// Clustering front-end; defaults to [`ClusteringSpec::Region`].
    pub clustering: Option<ClusteringSpec>,
    /// The target machine.
    pub topology: TopologySpec,
    /// Seed for stochastic topologies ([`TopologySpec::Random`]);
    /// defaults to 0. Part of the topology-cache key only for stochastic
    /// topologies, so deterministic machines are shared batch-wide.
    pub topology_seed: Option<u64>,
    /// The algorithm to run.
    pub algorithm: AlgorithmSpec,
    /// Seed driving workload generation, clustering and the algorithm.
    pub seed: u64,
}

impl JobSpec {
    /// The effective clustering front-end.
    pub fn clustering(&self) -> ClusteringSpec {
        self.clustering.unwrap_or(ClusteringSpec::Region)
    }

    /// The effective topology seed.
    pub fn topology_seed(&self) -> u64 {
        self.topology_seed.unwrap_or(0)
    }
}

/// One mapping answer: a line of the JSONL output stream.
///
/// A failed job carries its message in `error` with zeroed metrics, so
/// a batch always emits exactly one line per input job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job's id (caller-supplied or batch index).
    pub id: String,
    /// Position in the input batch.
    pub index: usize,
    /// Workload label (e.g. `ge(8)`).
    pub workload: String,
    /// Topology label (e.g. `hypercube(d=4)`).
    pub topology: String,
    /// Algorithm name (e.g. `paper`).
    pub algorithm: String,
    /// The job seed.
    pub seed: u64,
    /// Number of tasks np.
    pub np: usize,
    /// Number of processors ns.
    pub ns: usize,
    /// Ideal-graph lower bound.
    pub lower_bound: u64,
    /// Total time of the produced placement.
    pub total_time: u64,
    /// `100 × total / lower_bound` (the paper's headline metric).
    pub percent_over_lower_bound: f64,
    /// `true` iff the placement is provably optimal.
    pub optimal: bool,
    /// Search effort spent (iterations / evaluations).
    pub evaluations: usize,
    /// The final cluster→processor placement.
    pub assignment: Vec<usize>,
    /// Failure message, if the job errored.
    pub error: Option<String>,
}

impl JobResult {
    /// A result line describing a failed job.
    pub fn failed(spec: &JobSpec, index: usize, message: String) -> Self {
        JobResult {
            id: spec.id.clone().unwrap_or_else(|| index.to_string()),
            index,
            workload: spec.workload.label(),
            topology: spec.topology.to_string(),
            algorithm: spec.algorithm.name().to_string(),
            seed: spec.seed,
            np: 0,
            ns: 0,
            lower_bound: 0,
            total_time: 0,
            percent_over_lower_bound: 0.0,
            optimal: false,
            evaluations: 0,
            assignment: Vec::new(),
            error: Some(message),
        }
    }

    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("JobResult serializes")
    }

    /// Parse from one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_spec() -> JobSpec {
        JobSpec {
            id: Some("j1".into()),
            workload: WorkloadSpec::GaussianElimination { n: 8 },
            clustering: None,
            topology: TopologySpec::Hypercube { dim: 3 },
            topology_seed: None,
            algorithm: AlgorithmSpec::Paper {
                refine_iterations: None,
                exchange_pool: 0,
            },
            seed: 7,
        }
    }

    #[test]
    fn job_spec_roundtrips_through_serde_json() {
        let spec = sample_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn job_spec_accepts_minimal_json() {
        let json = r#"{"workload":{"kind":"fft","log2n":3},
            "topology":{"kind":"ring","n":4},
            "algorithm":{"kind":"random","k":4},"seed":1}"#;
        let spec: JobSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.id, None);
        assert_eq!(spec.clustering(), ClusteringSpec::Region);
        assert_eq!(spec.topology_seed(), 0);
        assert_eq!(spec.algorithm.name(), "random");
    }

    #[test]
    fn workload_parse_matches_build() {
        let mut rng = StdRng::seed_from_u64(1);
        for (s, len) in [
            ("ge:6", 20),
            ("stencil:4x3", 12),
            ("fft:3", 32),
            ("dnc:3", 22),
            ("pipe:2x3", 6),
        ] {
            let w = WorkloadSpec::parse(s).unwrap();
            assert_eq!(w.build(&mut rng).unwrap().len(), len, "{s}");
        }
        // Parses, but a 1×1 elimination has no work to schedule.
        assert!(WorkloadSpec::parse("ge:1")
            .unwrap()
            .build(&mut rng)
            .is_err());
        assert_eq!(
            WorkloadSpec::parse("tasks:40").unwrap(),
            WorkloadSpec::Layered {
                tasks: 40,
                width: None
            }
        );
        assert!(WorkloadSpec::parse("wat:1").is_err());
        assert!(WorkloadSpec::parse("nocolon").is_err());
    }

    #[test]
    fn algorithm_parse_covers_the_portfolio() {
        assert_eq!(crate::algorithm_catalog().len(), 8);
        for (name, ..) in crate::algorithm_catalog() {
            assert_eq!(AlgorithmSpec::parse(name).unwrap().name(), *name);
        }
        assert!(AlgorithmSpec::parse("magic").is_err());
    }

    #[test]
    fn job_result_roundtrips_and_is_one_line() {
        let r = JobResult::failed(&sample_spec(), 3, "boom".into());
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(JobResult::from_json_line(&line).unwrap(), r);
    }
}
