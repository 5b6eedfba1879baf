//! The concurrent batch engine: a bounded work queue over a thread
//! pool, deterministic per-job seeding, cancellation, and in-order
//! streaming of results.
//!
//! Determinism contract: for a given list of [`JobSpec`]s, the emitted
//! [`JobResult`] sequence is byte-identical whatever the worker-thread
//! count, because every job derives all randomness from its own seed
//! and results are re-ordered to input order before emission.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_core::parallel::deterministic_map;
use mimd_core::IdealSchedule;
use mimd_telemetry::Recorder;

use crate::cache::{CacheStats, TopologyCache};
use crate::spec::{JobResult, JobSpec};

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; 0 picks the available parallelism.
    pub threads: usize,
    /// Bound on jobs held in memory at once while streaming.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            queue_capacity: 1024,
        }
    }
}

impl EngineConfig {
    /// The effective worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Cooperative cancellation handle shared with callers.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: jobs not yet started report as cancelled.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The batch-mapping engine.
pub struct Engine {
    config: EngineConfig,
    cache: Arc<TopologyCache>,
    cancel: CancelToken,
    recorder: Recorder,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Engine with a fresh topology cache and no telemetry.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_telemetry(config, Arc::new(TopologyCache::new()), Recorder::default())
    }

    /// Engine sharing a topology cache and a telemetry recorder. When
    /// the recorder is enabled, every job records `engine.jobs`, a
    /// queue-wait histogram (`engine.queue_wait`: batch submission to
    /// job start), a run-time histogram (`engine.job`), cache-lookup
    /// spans (`engine.cache_lookup`), and whatever the instrumented
    /// algorithms emit (`vcycle.*`, `online.*`). Results are unaffected.
    pub fn with_telemetry(
        config: EngineConfig,
        cache: Arc<TopologyCache>,
        recorder: Recorder,
    ) -> Self {
        Engine {
            config,
            cache,
            cancel: CancelToken::new(),
            recorder,
        }
    }

    /// The shared topology cache.
    pub fn cache(&self) -> &TopologyCache {
        &self.cache
    }

    /// The engine's telemetry recorder (disabled unless constructed
    /// via [`Engine::with_telemetry`] with an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Topology-cache statistics for this engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A cancellation handle; `cancel()` makes not-yet-started jobs
    /// finish immediately with a "cancelled" error result.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Run a batch, returning results in input order.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        self.run_indexed(specs, 0)
    }

    /// Run a stream of jobs, emitting each result (in input order) to
    /// `sink` as soon as its prefix of the stream has completed. Holds
    /// at most `queue_capacity` jobs in memory.
    pub fn run_stream<I, F>(&self, jobs: I, mut sink: F) -> usize
    where
        I: IntoIterator<Item = JobSpec>,
        F: FnMut(JobResult),
    {
        let capacity = self.config.queue_capacity.max(1);
        let mut jobs = jobs.into_iter();
        let mut emitted = 0usize;
        loop {
            let window: Vec<JobSpec> = jobs.by_ref().take(capacity).collect();
            if window.is_empty() {
                break;
            }
            for result in self.run_indexed(&window, emitted) {
                sink(result);
            }
            emitted += window.len();
        }
        emitted
    }

    /// Run `specs`, labelling jobs `base_index..`. Jobs fan out over
    /// `threads` workers; results come back indexed by job position, so
    /// output order never depends on scheduling.
    fn run_indexed(&self, specs: &[JobSpec], base_index: usize) -> Vec<JobResult> {
        let batch_start = Instant::now();
        deterministic_map(specs.len(), self.config.effective_threads(), |offset| {
            self.execute_or_cancel(&specs[offset], base_index + offset, batch_start)
        })
    }

    fn execute_or_cancel(&self, spec: &JobSpec, index: usize, batch_start: Instant) -> JobResult {
        if self.cancel.is_cancelled() {
            return JobResult::failed(spec, index, "cancelled".to_string());
        }
        // Journal events from this job carry its batch index as the
        // job id; counters and histograms are shared.
        let recorder = self.recorder.clone().with_job(index as u64);
        recorder.incr("engine.jobs");
        // Time from batch submission to this job leaving the queue.
        recorder.record_duration("engine.queue_wait", batch_start.elapsed());
        let _span = recorder.span("engine.job");
        execute_job(spec, index, &self.cache, &recorder)
    }
}

/// Execute one job against a shared topology cache. This is the single
/// code path for batch, stream and any embedding caller; it never
/// panics on bad specs — failures come back as error results. Cache
/// lookups are timed under `engine.cache_lookup` and instrumented
/// algorithms record their own series into `recorder`; the result never
/// depends on it.
pub fn execute_job(
    spec: &JobSpec,
    index: usize,
    cache: &TopologyCache,
    recorder: &Recorder,
) -> JobResult {
    match try_execute(spec, cache, recorder) {
        Ok(mut result) => {
            result.index = index;
            if result.id.is_empty() {
                result.id = index.to_string();
            }
            result
        }
        Err(message) => JobResult::failed(spec, index, message),
    }
}

fn try_execute(
    spec: &JobSpec,
    cache: &TopologyCache,
    recorder: &Recorder,
) -> Result<JobResult, String> {
    let artifacts = recorder
        .time("engine.cache_lookup", || {
            cache.get_or_build(&spec.topology, spec.topology_seed())
        })
        .map_err(|e| format!("topology: {e}"))?;
    let system = &artifacts.system;
    let ns = system.len();

    // All job randomness flows from the job seed, in a fixed order:
    // workload generation, then clustering, then the algorithm.
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let problem = spec
        .workload
        .build(&mut rng)
        .map_err(|e| format!("workload: {e}"))?;
    let graph = spec.clustering().instance(problem, ns, &mut rng)?;
    let np = graph.num_tasks();

    let lower_bound = IdealSchedule::derive(&graph).lower_bound();
    // Hierarchy-consuming algorithms share the per-topology system
    // hierarchy, looked up only when the algorithm asks for it.
    let hierarchy = || {
        recorder
            .time("engine.cache_lookup", || cache.system_hierarchy(&artifacts))
            .map_err(|e| format!("hierarchy: {e}"))
    };
    let outcome =
        spec.algorithm
            .run(&graph, system, lower_bound, &hierarchy, recorder, &mut rng)?;

    Ok(JobResult {
        id: spec.id.clone().unwrap_or_default(),
        index: 0,
        workload: spec.workload.label(),
        topology: system.name().to_string(),
        algorithm: spec.algorithm.name().to_string(),
        seed: spec.seed,
        np,
        ns,
        lower_bound,
        total_time: outcome.total,
        percent_over_lower_bound: if lower_bound > 0 {
            100.0 * outcome.total as f64 / lower_bound as f64
        } else {
            0.0
        },
        optimal: outcome.total == lower_bound,
        evaluations: outcome.evaluations,
        assignment: outcome.assignment.sys_of_vec().to_vec(),
        error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, TopologySpec, WorkloadSpec};

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: None,
                workload: WorkloadSpec::Layered {
                    tasks: 24 + (i % 3) * 8,
                    width: None,
                },
                clustering: None,
                topology: TopologySpec::Hypercube { dim: 3 },
                topology_seed: None,
                algorithm: AlgorithmSpec::Paper {
                    refine_iterations: None,
                    exchange_pool: 0,
                },
                seed: i as u64,
            })
            .collect()
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let results = engine.run_batch(&jobs(12));
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.id, i.to_string());
            assert_eq!(r.seed, i as u64);
            assert!(r.error.is_none(), "{:?}", r.error);
            assert!(r.total_time >= r.lower_bound);
        }
    }

    #[test]
    fn shared_topology_is_computed_once_per_batch() {
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        engine.run_batch(&jobs(10));
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 9, "{stats:?}");
    }

    #[test]
    fn stream_emits_in_order_with_small_queue() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            queue_capacity: 3,
        });
        let mut seen = Vec::new();
        let emitted = engine.run_stream(jobs(8), |r| seen.push(r.index));
        assert_eq!(emitted, 8);
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn bad_jobs_fail_without_poisoning_the_batch() {
        let mut batch = jobs(3);
        batch[1].topology = TopologySpec::Ring { n: 64 }; // np < ns
        let engine = Engine::default();
        let results = engine.run_batch(&batch);
        assert!(results[0].error.is_none());
        assert!(results[1].error.as_deref().unwrap().contains("np >= ns"));
        assert!(results[2].error.is_none());
    }

    #[test]
    fn direct_multilevel_jobs_build_no_hierarchy() {
        // `direct_threshold: 0` on a one-node machine: the mapper takes
        // its direct path (`ns <= direct_threshold.max(1)`), so the job
        // must not build the machine's hierarchy either.
        let job = JobSpec {
            id: None,
            workload: WorkloadSpec::Layered {
                tasks: 8,
                width: None,
            },
            clustering: None,
            topology: TopologySpec::Hypercube { dim: 0 },
            topology_seed: None,
            algorithm: AlgorithmSpec::Multilevel {
                direct_threshold: Some(0),
                refine_rounds: None,
                refine_batch: None,
                refine_threads: None,
            },
            seed: 1,
        };
        let engine = Engine::default();
        let result = &engine.run_batch(&[job])[0];
        assert!(result.error.is_none(), "{:?}", result.error);
        let stats = engine.cache_stats();
        assert_eq!(stats.hierarchy_misses, 0, "{stats:?}");
        assert_eq!(stats.hierarchy_entries, 0, "{stats:?}");
    }

    #[test]
    fn cancellation_short_circuits_remaining_jobs() {
        let engine = Engine::default();
        engine.cancel_token().cancel();
        let results = engine.run_batch(&jobs(4));
        assert!(results
            .iter()
            .all(|r| r.error.as_deref() == Some("cancelled")));
    }
}
