//! What every workload has in common: its name and reason, what one
//! rep yields, and the interface the runner drives.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::inputs::Scale;
use crate::layers::{self, CacheStats, MappingService, TelemetrySnapshot};
use crate::spans::Tracer;

/// The five workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm flat paper pipeline at ns = 256.
    FlatBatch,
    /// Warm multilevel V-cycle at ns = 1024.
    VcycleScale,
    /// Cold topology cache: every job names a new machine.
    TopoCold,
    /// In-process session churn at ns = 256.
    ReplayChurn,
    /// Many small sessions through the socket server.
    ServeSmall,
}

impl Kind {
    /// Every workload, in the order they run and print.
    pub const ALL: [Kind; 5] = [
        Kind::FlatBatch,
        Kind::VcycleScale,
        Kind::TopoCold,
        Kind::ReplayChurn,
        Kind::ServeSmall,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FlatBatch => "flat_batch",
            Kind::VcycleScale => "vcycle_scale",
            Kind::TopoCold => "topo_cold",
            Kind::ReplayChurn => "replay_churn",
            Kind::ServeSmall => "serve_small",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one op is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Kind::FlatBatch | Kind::VcycleScale | Kind::TopoCold => "job",
            Kind::ReplayChurn => "apply",
            Kind::ServeSmall => "request",
        }
    }

    /// `true` where the run confines itself to one CPU before it starts
    /// (so [`nproc`] reads 1 there: one connection thread, one shard).
    /// `serve_small` hands every request from thread to thread three
    /// times; across the CPUs of a shared virtual machine each hand-off
    /// wakes a halted vCPU, which costs more than the request and moves
    /// with the host's load, and two CPUs served no more requests a
    /// second than one does (README.md, "Steadiness"). The other
    /// workloads run on one thread and gain nothing from it.
    pub fn one_cpu(self) -> bool {
        self == Kind::ServeSmall
    }

    /// The percentiles `op_p95_ms` and `op_p99_ms` are read at on this
    /// workload. Fixed per workload, never per run, so a metric cannot
    /// jump because one more rep fitted in the budget; README.md,
    /// "Steadiness", has the measurements behind each choice.
    ///
    /// * Job workloads: a rep has 4 to 32 ops of two or three kinds, and
    ///   its upper percentiles are boundaries between kinds, not a
    ///   latency tail. Both repeat the median.
    /// * `replay_churn`: p99 lies among the full V-cycle fallbacks
    ///   (2.5 % of events, ~15 ms) and repeats; p95 lies in the nearly
    ///   empty gap between those and the incremental applies (~1 ms)
    ///   and moves 16-30 % with the seed, so it repeats the median.
    /// * `serve_small`: the p99 of socket round trips moved 30-64 %
    ///   between identical runs; it is read at p95 and reported as the
    ///   diagnostic `server.roundtrip_p99_us`.
    pub fn tail_rungs(self) -> (f64, f64) {
        match self {
            Kind::FlatBatch | Kind::VcycleScale | Kind::TopoCold => (0.50, 0.50),
            Kind::ReplayChurn => (0.50, 0.99),
            Kind::ServeSmall => (0.95, 0.95),
        }
    }

    /// The one-line reason recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Kind::FlatBatch => {
                "32 warm layered:512 paper jobs a rep at ns=256: the flat mimd-core pipeline does all the work, the cache only hits, multilevel is idle"
            }
            Kind::VcycleScale => {
                "4 warm layered:4096 multilevel jobs a rep at ns=1024: coarsening, top-level map and group refinement dominate; the flat mapper runs only at <=32 nodes"
            }
            Kind::TopoCold => {
                "24 jobs a rep, each on a machine the cache has never seen: APSP, routing-table and SystemHierarchy builds dominate, so the cache is only missed"
            }
            Kind::ReplayChurn => {
                "5 sessions x 200 churn events a rep at ns=256 as in-process JSON lines, one client: online region refinement and large-header parse, no socket"
            }
            Kind::ServeSmall => {
                "200 tiny sessions x 203 requests a rep over the Unix-socket server on one CPU, one connection x 8 in flight: read/route/queue/write overhead is 40% of each request"
            }
        }
    }
}

/// Where and how large a workload runs.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Full size or smoke size.
    pub scale: Scale,
    /// Directory (inside the checkout) for sockets and trace files.
    pub out_dir: PathBuf,
}

/// What one rep measured. Timings cover the rep's timed phase only;
/// verification happens afterwards on the outputs returned beside it.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall-clock seconds of the timed phase.
    pub wall_s: f64,
    /// User + system CPU seconds of the timed phase, every thread.
    pub cpu_s: f64,
    /// Latency of every completed op, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of every completed `open_session`, in ms.
    pub open_ms: Vec<f64>,
    /// FNV digest of every assignment (or response line) produced.
    pub digest: u64,
    /// `100 * total_time / lower_bound` of every mapping produced.
    pub quality: Vec<f64>,
    /// Ops and opens sent to the product.
    pub attempted: usize,
    /// Of those, how many errored, were refused or never answered.
    pub failed: usize,
}

/// The outcome of checking one rep's outputs.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// Outputs checked.
    pub checked: usize,
    /// Outputs that failed a check.
    pub failed: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Verification {
    /// Count one checked output; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.checked += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Per-layer metric values by name; names absent here print as 0.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// CPUs this process may run on (1 after [`Kind::one_cpu`] took
/// effect): the shard count, the cap on client threads, and the `n` of
/// `engine.pool_efficiency`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A service's own counters, read right after a rep (so they cover its
/// warm-up and that rep and nothing later). The service itself is not
/// kept: on `topo_cold` it owns a few hundred MB of cache that must be
/// gone before the next rep.
pub struct Counters {
    /// The recorder's counters (empty with telemetry off).
    pub telemetry: TelemetrySnapshot,
    /// Topology-cache statistics.
    pub cache: CacheStats,
    /// Error responses tallied, over every error code.
    pub errors: usize,
}

impl Counters {
    /// Snapshot `service` now.
    pub fn of(service: &MappingService) -> Counters {
        Counters {
            telemetry: layers::telemetry(service),
            cache: layers::cache_stats(service),
            errors: layers::error_count(service),
        }
    }

    /// The per-layer values every workload reads off these counters:
    /// cache traffic (artifact and hierarchy lookups together) and the
    /// refinement counters.
    pub fn insert_into(&self, values: &mut LayerValues) {
        let cache = &self.cache;
        let hits = (cache.hits + cache.hierarchy_hits) as f64;
        let misses = (cache.misses + cache.hierarchy_misses) as f64;
        values.insert("engine.cache_hits", hits);
        values.insert("engine.cache_misses", misses);
        values.insert("engine.cache_hit_ratio", hits / (hits + misses).max(1.0));
        values.insert(
            "engine.cache_resident_mb",
            cache.resident_bytes as f64 / (1024.0 * 1024.0),
        );
        let candidates = self.telemetry.counter("refine.candidates") as f64;
        let accepted = self.telemetry.counter("refine.accepted") as f64;
        values.insert("core.refine_candidates", candidates);
        values.insert("core.refine_accepted", accepted);
        values.insert("core.refine_accept_ratio", accepted / candidates.max(1.0));
        values.insert("service.errors", self.errors as f64);
    }
}

/// The interface the runner drives. `Outputs` is whatever a rep must
/// keep for verification and the stepwise replay.
pub trait Workload: Sized {
    /// What a rep keeps beside its timings.
    type Outputs;

    /// Generate inputs from the seed, build the service (telemetry on
    /// or off), warm it up. Everything here is `setup_s`.
    fn setup(kind: Kind, context: &RunContext, telemetry: bool) -> Result<Self, String>;

    /// Run one rep. With a tracer, each op is also recorded as a span
    /// (the traced run); without, only the clock is read.
    fn rep(&mut self, tracer: Option<&mut Tracer>) -> Result<(Rep, Self::Outputs), String>;

    /// Check a rep's outputs, outside any timed phase. With a tracer,
    /// the evaluation and validation calls are recorded as spans.
    fn verify(&self, outputs: &Self::Outputs, tracer: Option<&mut Tracer>) -> Verification;

    /// The traced run's second half: re-run a sample of the rep's ops
    /// layer by layer inside spans, check the result equals the
    /// end-to-end one, run the layer probes, and return every
    /// per-layer value. `reference_ops_per_s` is the untraced median.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        traced: &(Rep, Self::Outputs),
        reference_ops_per_s: f64,
    ) -> Result<LayerValues, String>;
}
