//! The `mimd` subcommands.

use std::io::{self, Write};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_core::evaluate::{evaluate_assignment, random_mapping_average};
use mimd_core::schedule::EvaluationModel;
use mimd_core::{Assignment, Mapper};
use mimd_engine::{AlgorithmOutcome, AlgorithmSpec, ClusteringSpec, WorkloadSpec};
use mimd_graph::{dot, Time};
use mimd_multilevel::SystemHierarchy;
use mimd_report::{Gantt, GanttTask, Table};
use mimd_sim::{simulate, SimConfig};
use mimd_taskgraph::workloads::ChurnRegime;
use mimd_taskgraph::{
    paper, ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, ProblemGraph,
};
use mimd_telemetry::{GainLedger, Journal, JournalSnapshot, Recorder};
use mimd_topology::SystemGraph;

use crate::args::{
    build_topology, parse_topology, render_commands, Command, FlagSpec, Flags, Stop,
};

const TASKS: FlagSpec = ("tasks", Some("<n>"));
const WORKLOAD: FlagSpec = ("workload", Some("<kind:params>"));
const LOAD: FlagSpec = ("load", Some("<file.json>"));
const WIDTH: FlagSpec = ("width", Some("<n>"));
const SPEC: FlagSpec = ("spec", Some("<kind:params>"));
const SEED: FlagSpec = ("seed", Some("<u64>"));
const EVENTS: FlagSpec = ("events", Some("<n>"));
const REGIME: FlagSpec = ("regime", Some("arrivals|drift|mixed"));
const CLUSTERING: FlagSpec = ("clustering", Some("region|iid|sarkar|comm_greedy"));
const THREADS: FlagSpec = ("threads", Some("<n>"));
const SUMMARY: FlagSpec = ("summary", None);
const OUT: FlagSpec = ("out", Some("<file>"));
const PROFILE: FlagSpec = ("profile", None);
const PROFILE_JSON: FlagSpec = ("profile-json", Some("<file|->"));
const TRACE_OUT: FlagSpec = ("trace-out", Some("<file>"));
const CHROME_TRACE: FlagSpec = ("chrome-trace", Some("<file>"));

/// Every `mimd` subcommand: the only statement of which flags exist,
/// and the source of the usage text.
static COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        positional: None,
        flags: &[TASKS, WORKLOAD, WIDTH, SEED, ("dot", None), ("json", None)],
        about: "print a problem graph (a --tasks/--width layered DAG or a \
                --workload spec): a one-line summary, --json or --dot",
        run: cmd_generate,
    },
    Command {
        name: "topology",
        positional: None,
        flags: &[SPEC, SEED, ("dot", None)],
        about: "build the --spec machine and print its size, links, diameter \
                and degrees (or --dot)",
        run: cmd_topology,
    },
    Command {
        name: "map",
        positional: None,
        flags: &[
            TASKS,
            WORKLOAD,
            LOAD,
            WIDTH,
            SPEC,
            SEED,
            ("reps", Some("<n>")),
            ("algorithm", Some("<name>")),
            ("direct-threshold", Some("<n>")),
            ("refine-rounds", Some("<n>")),
            ("refine-batch", Some("<n>")),
            ("greedy-clustering", None),
            ("serialized", None),
            ("gantt", None),
        ],
        about: "map one problem (--tasks, --workload or --load) onto the \
                --spec machine with --algorithm (default paper) and compare \
                it with random mappings; the --direct-threshold and --refine-* \
                knobs need --algorithm multilevel",
        run: cmd_map,
    },
    Command {
        name: "simulate",
        positional: None,
        flags: &[
            TASKS,
            WORKLOAD,
            WIDTH,
            SPEC,
            SEED,
            ("contention", None),
            ("serialize", None),
        ],
        about: "map with the paper strategy, then run the schedule through \
                the discrete-event simulator",
        run: cmd_simulate,
    },
    Command {
        name: "explain",
        positional: None,
        flags: &[
            TASKS,
            WORKLOAD,
            SPEC,
            SEED,
            ("algorithm", Some("<name>")),
            CLUSTERING,
            TRACE_OUT,
            CHROME_TRACE,
        ],
        about: "map once, then attribute the mapping's quality: JSON report \
                (loads, link traffic, hop histogram, critical path, refinement \
                gain ledger) on stdout, human tables on stderr",
        run: cmd_explain,
    },
    Command {
        name: "batch",
        positional: Some("<jobs.jsonl | ->"),
        flags: &[
            THREADS,
            SUMMARY,
            OUT,
            PROFILE,
            PROFILE_JSON,
            TRACE_OUT,
            CHROME_TRACE,
        ],
        about: "run a JSONL stream of JobSpecs through the engine, emitting one \
                JobResult JSONL line per job (stdin with -); --profile prints \
                the telemetry phase breakdown to stderr",
        run: cmd_batch,
    },
    Command {
        name: "sweep",
        positional: None,
        flags: &[
            ("workloads", Some("<w1,w2,..>")),
            ("specs", Some("<t1,t2,..>")),
            ("algos", Some("<a1,a2,..>")),
            ("seeds", Some("<n>")),
            THREADS,
            CLUSTERING,
            SUMMARY,
            OUT,
            PROFILE,
            PROFILE_JSON,
            TRACE_OUT,
            CHROME_TRACE,
        ],
        about: "run the cross-product workloads × topologies × algorithms × \
                seeds through the engine",
        run: cmd_sweep,
    },
    Command {
        name: "trace",
        positional: None,
        flags: &[
            TASKS, WORKLOAD, LOAD, WIDTH, SPEC, EVENTS, REGIME, SEED, OUT,
        ],
        about: "generate a synthetic churn trace (JSONL: header + events)",
        run: cmd_trace,
    },
    Command {
        name: "replay",
        positional: None,
        flags: &[
            ("trace", Some("<file|->")),
            SEED,
            ("migration-penalty", Some("<t>")),
            ("staleness", Some("<f>")),
            ("local-rounds", Some("<n>")),
            ("region-size", Some("<n>")),
            ("scratch", None),
            SUMMARY,
            OUT,
            PROFILE,
            PROFILE_JSON,
            TRACE_OUT,
            CHROME_TRACE,
        ],
        about: "replay a trace through the incremental remapper, one JSONL \
                record per event (--scratch forces a full V-cycle per event \
                for comparison); --profile prints phase timing to stderr, \
                never touching the stdout record stream; \
                --trace-out/--chrome-trace export the event journal",
        run: cmd_replay,
    },
    Command {
        name: "serve",
        positional: None,
        flags: &[
            ("max-sessions", Some("<n>")),
            ("telemetry", None),
            ("slow-ms", Some("<n>")),
            ("stats-interval", Some("<secs>")),
            ("listen", Some("<host:port|socket-path>")),
            ("shards", Some("<n>")),
            ("queue-depth", Some("<k>")),
            TRACE_OUT,
            CHROME_TRACE,
        ],
        about: "long-running MappingService loop: one JSONL Request per stdin \
                line (map_once | open_session | apply | close_session | \
                catalog | stats), one JSONL Response per stdout line; sessions \
                share topology artifacts with one-shot jobs through one cache; \
                --telemetry records spans/counters served back by the stats \
                op; --slow-ms logs slow requests to stderr (stdin and --listen \
                alike); --stats-interval prints a one-line stats snapshot to \
                stderr every n seconds; --trace-out/--chrome-trace export the \
                event journal on exit; --listen serves concurrent connections \
                on a TCP address or Unix socket path instead of stdin — \
                sessions hash to --shards worker shards (per-session FIFO \
                kept), a full per-shard queue (--queue-depth) answers \
                overloaded, and stdin EOF drains gracefully",
        run: cmd_serve,
    },
    Command {
        name: "loadgen",
        positional: None,
        flags: &[
            ("connect", Some("<host:port|socket-path>")),
            ("sessions", Some("<n>")),
            ("connections", Some("<n>")),
            EVENTS,
            TASKS,
            SPEC,
            REGIME,
            SEED,
            ("rate", Some("<opens/sec>")),
            ("json", None),
        ],
        about: "drive concurrent open/apply/close sessions against a listening \
                `mimd serve --listen` and report sustained req/s plus \
                p50/p90/p99 latency (human line on stderr, JSON report on \
                stdout with --json)",
        run: cmd_loadgen,
    },
    Command {
        name: "algorithms",
        positional: None,
        flags: &[],
        about: "list every registry algorithm with a one-line description",
        run: cmd_algorithms,
    },
    Command {
        name: "paper",
        positional: None,
        flags: &[],
        about: "reproduce the worked example's artifacts",
        run: cmd_paper,
    },
];

/// The spec and algorithm names usage lists after the commands.
const SPEC_LINES: &str = "\
topology specs : hypercube:3  mesh:3x4  torus:3x4  ring:8  chain:8
                 star:8  tree:15  complete:8  fattree:4x4  clusters:8x32
                 random:16@0.1
workload specs : ge:12  stencil:16x8  fft:5  dnc:4  pipe:4x16
                 tasks:96  paper:120
algorithms     : paper  multilevel  incremental  random  bokhari  lee
                 annealing  pairwise  (see `mimd algorithms`)";

/// Usage text printed on errors, rendered from [`COMMANDS`].
pub fn usage() -> String {
    format!(
        "usage: mimd <command> [flags]\n\ncommands:\n{}\n{SPEC_LINES}",
        render_commands(COMMANDS)
    )
}

/// Route a command line to its handler, which prints to `out`.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let Some((name, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    (command.run)(&Flags::parse(command, rest)?, out)
}

/// The workload `--workload` names, else the `--tasks`/`--width`
/// layered DAG.
fn workload_from_flags(flags: &Flags) -> Result<WorkloadSpec, String> {
    match flags.get("workload") {
        Some(spec) => WorkloadSpec::parse(spec),
        None => Ok(WorkloadSpec::Layered {
            tasks: flags.num("tasks", 96)?,
            width: flags.opt("width")?,
        }),
    }
}

/// The problem graph: the `--load` file, else [`workload_from_flags`]
/// built from `rng`.
fn problem_from_flags(flags: &Flags, rng: &mut StdRng) -> Result<ProblemGraph, String> {
    if let Some(path) = flags.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"));
    }
    workload_from_flags(flags)?
        .build(rng)
        .map_err(|e| e.to_string())
}

fn cmd_generate(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let mut rng = StdRng::seed_from_u64(flags.num("seed", 1991u64)?);
    let p = problem_from_flags(flags, &mut rng)?;
    if flags.has("dot") {
        let label = |v: usize| Some(format!("{} (w={})", v + 1, p.size(v)));
        write!(
            out,
            "{}",
            dot::digraph_to_dot(p.len(), p.edges(), "problem", label)
        )?;
        return Ok(());
    }
    if flags.has("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&p).map_err(|e| e.to_string())?
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "problem graph: {} tasks, {} edges, sequential {}, critical path {}",
        p.len(),
        p.graph().edge_count(),
        p.sequential_time(),
        p.critical_path()
    )?;
    Ok(())
}

fn cmd_topology(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let spec = flags.get("spec").ok_or("topology needs --spec")?;
    let mut rng = StdRng::seed_from_u64(flags.num("seed", 1991u64)?);
    let sys = build_topology(spec, &mut rng)?;
    if flags.has("dot") {
        write!(out, "{}", dot::ungraph_to_dot(sys.graph(), "system"))?;
        return Ok(());
    }
    writeln!(
        out,
        "{}: {} processors, {} links, diameter {}, degrees {:?}",
        sys.name(),
        sys.len(),
        sys.graph().edge_count(),
        sys.diameter(),
        (0..sys.len()).map(|s| sys.degree(s)).collect::<Vec<_>>()
    )?;
    Ok(())
}

fn cmd_map(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let spec = flags.get("spec").ok_or("map needs --spec")?;
    let mut rng = StdRng::seed_from_u64(flags.num("seed", 1991u64)?);
    let system = build_topology(spec, &mut rng)?;
    let problem = problem_from_flags(flags, &mut rng)?;
    let clustering = if flags.has("greedy-clustering") {
        ClusteringSpec::CommGreedy
    } else {
        ClusteringSpec::Region
    };
    let clustered = clustering.instance(problem, system.len(), &mut rng)?;
    let algorithm = flags.get("algorithm").unwrap_or("paper");
    if algorithm != "multilevel" {
        for only_multilevel in ["direct-threshold", "refine-rounds", "refine-batch"] {
            if flags.has(only_multilevel) {
                return Err(format!("--{only_multilevel} requires --algorithm multilevel").into());
            }
        }
    }
    if algorithm != "paper" {
        return map_via_registry(algorithm, &clustered, &system, flags, &mut rng, out);
    }
    let model = if flags.has("serialized") {
        EvaluationModel::Serialized
    } else {
        EvaluationModel::Precedence
    };
    let mapper = Mapper::with_config(mimd_core::MapperConfig {
        model,
        ..mimd_core::MapperConfig::default()
    });
    let result = mapper
        .map(&clustered, &system, &mut rng)
        .map_err(|e| e.to_string())?;
    let report = MapReport {
        title: format!("mapping onto {}", system.name()),
        model,
        lower_bound: result.lower_bound,
        initial_total: Some(result.initial_total),
        outcome: AlgorithmOutcome {
            evaluations: result.refinement.iterations_used,
            total: result.total_time,
            assignment: result.assignment,
        },
    };
    report.print(&clustered, &system, flags, &mut rng, out)
}

/// The non-paper `mimd map` path: run any registry algorithm (selected
/// with `--algorithm`) on the already-built instance. Multilevel accepts
/// `--direct-threshold` and `--refine-*`; every algorithm reports
/// precedence-model totals.
fn map_via_registry(
    algorithm: &str,
    clustered: &ClusteredProblemGraph,
    system: &SystemGraph,
    flags: &Flags,
    rng: &mut StdRng,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    if flags.has("serialized") {
        return Err("--serialized only applies to --algorithm paper".into());
    }
    // cmd_map already rejected the multilevel-only flags for every
    // other algorithm.
    let spec = if algorithm == "multilevel" {
        AlgorithmSpec::Multilevel {
            direct_threshold: flags.opt("direct-threshold")?,
            refine_rounds: flags.opt("refine-rounds")?,
            refine_batch: flags.opt("refine-batch")?,
            refine_threads: None,
        }
    } else {
        AlgorithmSpec::parse(algorithm)?
    };
    let lower_bound = mimd_core::IdealSchedule::derive(clustered).lower_bound();
    let hierarchy = || {
        SystemHierarchy::build(system)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    };
    let outcome = spec.run(
        clustered,
        system,
        lower_bound,
        &hierarchy,
        &Recorder::disabled(),
        rng,
    )?;
    let report = MapReport {
        title: format!("{} mapping onto {}", spec.name(), system.name()),
        model: EvaluationModel::Precedence,
        lower_bound,
        initial_total: None,
        outcome,
    };
    report.print(clustered, system, flags, rng, out)
}

/// One mapping as `mimd map` reports it, whichever algorithm found it.
struct MapReport {
    title: String,
    /// The model `outcome.total` was priced under.
    model: EvaluationModel,
    lower_bound: Time,
    /// The paper pipeline's greedy start; `Some` selects the paper's
    /// rows ("initial assignment total", "refinement iterations").
    initial_total: Option<Time>,
    outcome: AlgorithmOutcome,
}

impl MapReport {
    /// Print the metric table (against `--reps` random mappings drawn
    /// from `rng`), the assignment line and, with `--gantt`, the
    /// schedule as the paper-style horizontal Gantt chart.
    fn print(
        &self,
        clustered: &ClusteredProblemGraph,
        system: &SystemGraph,
        flags: &Flags,
        rng: &mut StdRng,
        out: &mut dyn Write,
    ) -> Result<(), Stop> {
        let reps = flags.num("reps", 32usize)?;
        let (rand_mean, rand_min, rand_max) =
            random_mapping_average(clustered, system, self.model, reps, rng)
                .map_err(|e| e.to_string())?;
        let AlgorithmOutcome {
            assignment,
            total,
            evaluations,
        } = &self.outcome;
        let paper = self.initial_total.is_some();
        let mut rows = vec![("lower bound".to_string(), self.lower_bound.to_string())];
        if let Some(initial) = self.initial_total {
            rows.push(("initial assignment total".into(), initial.to_string()));
        }
        rows.push(("final total".into(), total.to_string()));
        rows.push((
            "% over lower bound".into(),
            format!("{:.1}", 100.0 * *total as f64 / self.lower_bound as f64),
        ));
        if paper {
            rows.push(("refinement iterations".into(), evaluations.to_string()));
        }
        rows.push((
            "provably optimal".into(),
            (*total == self.lower_bound).to_string(),
        ));
        if !paper {
            rows.push((
                "search effort (evaluations)".into(),
                evaluations.to_string(),
            ));
        }
        rows.push((
            format!("random mapping mean (x{reps})"),
            format!("{rand_mean:.1} (min {rand_min}, max {rand_max})"),
        ));
        let mut table = Table::new(self.title.clone(), &["metric", "value"]);
        for (metric, value) in rows {
            table.push_row(vec![metric, value]);
        }
        writeln!(out, "{}", table.render())?;
        writeln!(
            out,
            "assignment (cluster -> processor): {:?}",
            assignment.sys_of_vec()
        )?;
        if flags.has("gantt") {
            let eval = evaluate_assignment(clustered, system, assignment, self.model)
                .map_err(|e| e.to_string())?;
            let mut gantt = Gantt::new("schedule (paper Figs 6/24 style, horizontal)");
            for t in 0..clustered.num_tasks() {
                gantt.push(GanttTask {
                    label: (t + 1).to_string(),
                    processor: assignment.sys_of(clustered.cluster_of(t)),
                    start: eval.schedule.start(t),
                    end: eval.schedule.end(t),
                });
            }
            writeln!(out, "{}", gantt.render(100))?;
        }
        Ok(())
    }
}

/// `mimd trace`: generate a synthetic churn trace (header + events) for
/// `mimd replay` and the online benchmarks.
fn cmd_trace(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let spec_text = flags.get("spec").ok_or("trace needs --spec")?;
    let topology = parse_topology(spec_text)?;
    let seed = flags.num("seed", 1991u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let system = topology.build(&mut rng).map_err(|e| e.to_string())?;
    let problem = problem_from_flags(flags, &mut rng)?;
    let base = ClusteringSpec::Region.instance(problem, system.len(), &mut rng)?;
    let events = flags.num("events", 100usize)?;
    let regime = ChurnRegime::parse(flags.get("regime").unwrap_or("mixed"))?;
    let (header, trace) =
        mimd_online::synthesize_trace(topology, seed, &base, events, regime, &mut rng);
    let mut sink = output(flags, out)?;
    let write_error = mimd_online::write_trace(&mut sink, &header, &trace).err();
    finish_stream(sink, write_error, "trace")?;
    eprintln!(
        "trace: {} events ({regime:?}) on {} ({} tasks, {} clusters)",
        trace.len(),
        system.name(),
        base.num_tasks(),
        base.num_clusters()
    );
    Ok(())
}

/// `mimd replay`: feed a trace through the incremental remapper,
/// emitting one JSONL record per event.
fn cmd_replay(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    if flags.has("scratch") && flags.has("staleness") {
        return Err(
            "--scratch forces full V-cycles per event and overrides --staleness; \
                    pass only one of them"
                .into(),
        );
    }
    let (header, events) =
        mimd_online::read_trace(input(flags.get("trace").ok_or("replay needs --trace")?)?)?;

    let config = mimd_online::SessionConfig {
        migration_penalty: flags.opt("migration-penalty")?,
        // --scratch forces a full V-cycle per event (the from-scratch
        // baseline the incremental path is measured against).
        staleness_threshold: if flags.has("scratch") {
            Some(0.0)
        } else {
            flags.opt("staleness")?
        },
        local_rounds: flags.opt("local-rounds")?,
        region_size: flags.opt("region-size")?,
    }
    .resolve();

    // Replay through the unified MappingService: topology artifacts
    // come from its shared cache, so replay and any co-resident
    // batch/session traffic share the hierarchy (and its counters).
    let service = mimd_service::MappingService::new(mimd_service::ServiceConfig {
        telemetry: profiling(flags),
        journal: journaling(flags),
        ..mimd_service::ServiceConfig::default()
    });

    let mut sink = output(flags, out)?;
    let seed = flags.num("seed", 1991u64)?;
    let mut write_error: Option<io::Error> = None;
    let summary = service.replay(&header, &events, &config, seed, |record| {
        if write_error.is_none() {
            if let Err(e) = writeln!(sink, "{}", record.to_json_line()) {
                write_error = Some(e);
            }
        }
    })?;
    finish_stream(sink, write_error, "records")?;

    // Cache counters as the canonical serde CacheStats object, not
    // ad-hoc counter prose — the same shape `Response::Stats` serves.
    let stats = service.cache_stats();
    eprintln!(
        "replay: {} events ({} incremental, {} full, {} errors), \
         {} migrations, mean {:.1}% over lower bound; cache: {}",
        summary.events,
        summary.incremental,
        summary.full_remaps,
        summary.errors,
        summary.total_moves,
        summary.mean_percent_over(),
        serde_json::to_string(&stats).map_err(|e| e.to_string())?,
    );
    if flags.has("summary") {
        let mut table = Table::new("replay summary", &["metric", "value"]);
        table.push_row(vec!["events".into(), summary.events.to_string()]);
        table.push_row(vec!["incremental".into(), summary.incremental.to_string()]);
        table.push_row(vec!["full remaps".into(), summary.full_remaps.to_string()]);
        table.push_row(vec!["errors".into(), summary.errors.to_string()]);
        table.push_row(vec!["migrations".into(), summary.total_moves.to_string()]);
        table.push_row(vec![
            "mean % over lower bound".into(),
            format!("{:.1}", summary.mean_percent_over()),
        ]);
        eprintln!("{}", table.render());
    }
    emit_profile(&service, flags)?;
    emit_journal(&service.journal_snapshot(), flags)?;
    Ok(())
}

/// `mimd serve`: the long-running MappingService loop — one JSONL
/// [`mimd_service::Request`] per line in, one JSONL
/// [`mimd_service::Response`] per line out. Without `--listen` the
/// lines are stdin/stdout, served as one connection until EOF; with it
/// they are concurrent socket connections and stdin EOF is the drain
/// signal (one a sidecar can deliver without signal handling). Both
/// modes run the same request path and end in the same summary, and a
/// served trace is byte-identical to `mimd replay` on the same trace.
fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let slow_ms: Option<u64> = flags.opt("slow-ms")?;
    let stats_interval: Option<u64> = flags.opt("stats-interval")?;
    if stats_interval == Some(0) {
        return Err("--stats-interval must be at least 1 second".into());
    }
    if !flags.has("listen") {
        for concurrent_only in ["shards", "queue-depth"] {
            if flags.has(concurrent_only) {
                return Err(format!("--{concurrent_only} needs --listen").into());
            }
        }
    }
    let defaults = mimd_service::ServiceConfig::default();
    let service = Arc::new(mimd_service::MappingService::new(
        mimd_service::ServiceConfig {
            max_sessions: flags.num("max-sessions", defaults.max_sessions)?,
            // --slow-ms and --stats-interval imply telemetry so the
            // serve.slow_requests / serve.stats_emitted counters land in
            // the stats line printed on exit.
            telemetry: flags.has("telemetry") || slow_ms.is_some() || stats_interval.is_some(),
            journal: journaling(flags),
            ..defaults
        },
    ));
    // Bind (and reject bad --listen flags) before any thread starts.
    let server = flags
        .get("listen")
        .map(|listen| bind_server(flags, &service, listen, slow_ms))
        .transpose()?;

    let stop = Arc::new(AtomicBool::new(false));
    let emitter = stats_interval
        .map(|secs| spawn_stats_emitter(Arc::clone(&service), Arc::clone(&stop), secs));
    let result = match server {
        Some(server) => {
            // Drain trigger: stdin EOF. The watcher stays detached — if
            // the server dies on its own the process exits and takes it
            // along.
            let eof = Arc::clone(&stop);
            std::thread::spawn(move || {
                use std::io::Read;
                let mut sink = [0u8; 4096];
                let mut stdin = std::io::stdin().lock();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                eof.store(true, Ordering::Relaxed);
            });
            server.run(Arc::clone(&stop))
        }
        None => mimd_service::serve_jsonl(&service, io::stdin().lock(), out, io::stderr(), slow_ms)
            // Stdin mode is a run of one connection.
            .map(|conn| mimd_server::ServerSummary {
                connections: 1,
                requests: conn.requests,
                rejected: 0,
                per_connection: vec![conn],
            }),
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = emitter {
        let _ = handle.join();
    }
    let summary = match result {
        Ok(summary) => summary,
        // Consumer closed the pipe: conventional clean stop.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return Err(Stop::Closed),
        Err(e) => return Err(format!("serve: {e}").into()),
    };

    let stats = service.stats();
    eprintln!(
        "serve: drained; {} requests ({} rejected, {} malformed) over {} connections; {}",
        summary.requests,
        summary.rejected,
        summary.malformed_lines(),
        summary.connections,
        serde_json::to_string(&stats).map_err(|e| e.to_string())?,
    );
    for conn in summary
        .per_connection
        .iter()
        .filter(|c| c.malformed_lines > 0)
    {
        eprintln!(
            "serve: conn {}: {} malformed of {} requests",
            conn.conn, conn.malformed_lines, conn.requests
        );
    }
    if flags.has("telemetry") {
        eprint!("{}", mimd_report::render_profile(&stats.telemetry));
    }
    Ok(emit_journal(&service.journal_snapshot(), flags)?)
}

/// Bind the `--listen` front end and announce where.
fn bind_server(
    flags: &Flags,
    service: &std::sync::Arc<mimd_service::MappingService>,
    listen: &str,
    slow_ms: Option<u64>,
) -> Result<mimd_server::Server, String> {
    let addr = mimd_server::ListenAddr::parse(listen)?;
    let shards = flags.positive("shards", 4)?;
    let queue_depth = flags.positive("queue-depth", 256)?;
    let config = mimd_server::ServerConfig {
        shards,
        queue_depth,
        slow_ms,
    };
    let server = mimd_server::Server::bind(std::sync::Arc::clone(service), &addr, config)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    // The bound address resolves TCP port 0 — clients (and tests)
    // parse this line to know where to connect.
    eprintln!(
        "listening on {} ({shards} shards, queue depth {queue_depth})",
        server.local_display()
    );
    Ok(server)
}

/// The `--stats-interval` emitter: one [`mimd_service::stats_line`] on
/// stderr every `secs` seconds until `stop` — strictly off the protocol
/// stream, which stays byte-identical with or without it.
fn spawn_stats_emitter(
    service: std::sync::Arc<mimd_service::MappingService>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    secs: u64,
) -> std::thread::JoinHandle<()> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    let started = std::time::Instant::now();
    std::thread::spawn(move || {
        let period = Duration::from_secs(secs);
        let tick = Duration::from_millis(50);
        let mut next = period;
        loop {
            while started.elapsed() < next {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(tick.min(next.saturating_sub(started.elapsed())));
            }
            if stop.load(Ordering::Relaxed) {
                return;
            }
            service.recorder().incr("serve.stats_emitted");
            eprintln!(
                "{}",
                mimd_service::stats_line(&service.stats(), started.elapsed().as_secs())
            );
            next += period;
        }
    })
}

/// `mimd loadgen`: synthesize one small trace and drive it through
/// many concurrent sessions against a listening `mimd serve --listen`,
/// reporting sustained requests/sec and tail latency.
fn cmd_loadgen(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let connect = flags.get("connect").ok_or("loadgen needs --connect")?;
    let addr = mimd_server::ListenAddr::parse(connect)?;
    let sessions = flags.positive("sessions", 64)?;
    let connections = flags.positive("connections", 8)?;
    let rate: Option<f64> = flags.opt("rate")?;
    if let Some(rate) = rate {
        if rate.is_nan() || rate <= 0.0 {
            return Err("--rate must be a positive opens/sec".into());
        }
    }

    // Every session replays the same synthesized trace with its own
    // seed, so the per-session work is identical and the measured
    // spread is the server's.
    let seed = flags.num("seed", 1991u64)?;
    let topology = parse_topology(flags.get("spec").unwrap_or("torus:4x4"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let system = topology.build(&mut rng).map_err(|e| e.to_string())?;
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: flags.num("tasks", 64)?,
        ..GeneratorConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let base = ClusteringSpec::Region.instance(gen.generate(&mut rng), system.len(), &mut rng)?;
    let events = flags.num("events", 6usize)?;
    let regime = ChurnRegime::parse(flags.get("regime").unwrap_or("mixed"))?;
    let (header, trace) =
        mimd_online::synthesize_trace(topology, seed, &base, events, regime, &mut rng);

    let report = mimd_server::run_loadgen(
        &addr,
        &mimd_server::LoadgenConfig {
            sessions,
            connections,
            header,
            events: trace,
            seed,
            rate,
        },
    )
    .map_err(|e| format!("loadgen: {e}"))?;
    eprintln!("{}", report.human_line());
    if flags.has("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        )?;
    }
    if report.errors > 0 {
        return Err(format!("loadgen: {} error responses", report.errors).into());
    }
    Ok(())
}

fn cmd_algorithms(_: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let mut table = Table::new(
        "algorithm registry (mimd map --algorithm, batch/sweep job specs)",
        &["name", "description"],
    );
    for &(name, description, _) in mimd_engine::algorithm_catalog() {
        table.push_row(vec![name.into(), description.into()]);
    }
    writeln!(out, "{}", table.render())?;
    Ok(())
}

fn cmd_simulate(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let spec = flags.get("spec").ok_or("simulate needs --spec")?;
    let mut rng = StdRng::seed_from_u64(flags.num("seed", 1991u64)?);
    let system = build_topology(spec, &mut rng)?;
    let problem = problem_from_flags(flags, &mut rng)?;
    let clustered = ClusteringSpec::Region.instance(problem, system.len(), &mut rng)?;
    let result = Mapper::new()
        .map(&clustered, &system, &mut rng)
        .map_err(|e| e.to_string())?;

    let config = SimConfig {
        serialize_processors: flags.has("serialize"),
        link_contention: flags.has("contention"),
    };
    let report =
        simulate(&clustered, &system, &result.assignment, config).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "simulated {} on {}:",
        if config == SimConfig::paper() {
            "(paper model)"
        } else {
            "(extended model)"
        },
        system.name()
    )?;
    writeln!(out, "  makespan       : {}", report.total)?;
    writeln!(
        out,
        "  analytic total : {} (paper model)",
        result.total_time
    )?;
    writeln!(out, "  messages       : {}", report.messages_sent)?;
    writeln!(out, "  mean hops      : {:.2}", report.mean_hops())?;
    writeln!(out, "  link wait total: {}", report.link_wait_total)?;
    if config == SimConfig::paper() {
        assert_eq!(report.total, result.total_time);
        writeln!(out, "  (DES reproduces the analytic model exactly)")?;
    }
    Ok(())
}

/// The `--out` file, else `out` (stdout).
fn output<'o>(flags: &Flags, out: &'o mut dyn Write) -> Result<Box<dyn Write + 'o>, String> {
    Ok(match flags.get("out") {
        Some(path) => Box::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?),
        None => Box::new(out),
    })
}

/// The file at `path`, or stdin for `-`.
fn input(path: &str) -> Result<Box<dyn std::io::BufRead>, String> {
    Ok(if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    })
}

/// Flush a JSONL record stream unless writing it already failed, so a
/// closed pipe shows before anything goes to stderr. [`Stop::Closed`]
/// means the consumer closed the pipe (e.g. `mimd batch ... | head`):
/// a conventional clean stop, like any line-oriented unix tool, after
/// which nothing else is reported.
fn finish_stream(
    mut sink: Box<dyn Write + '_>,
    write_error: Option<io::Error>,
    what: &str,
) -> Result<(), Stop> {
    match write_error.map_or_else(|| sink.flush(), Err) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Err(Stop::Closed),
        Err(e) => Err(format!("writing {what}: {e}").into()),
    }
}

/// `true` iff a profiling flag asked for telemetry collection.
fn profiling(flags: &Flags) -> bool {
    flags.has("profile") || flags.has("profile-json")
}

/// Shared tail of `--profile` / `--profile-json`: print the phase
/// breakdown to stderr and/or dump the raw snapshot as JSON (stderr
/// with `-`). Stdout stays reserved for the command's record stream.
fn emit_profile(service: &mimd_service::MappingService, flags: &Flags) -> Result<(), String> {
    let snapshot = service.recorder().snapshot();
    if flags.has("profile") {
        eprint!("{}", mimd_report::render_profile(&snapshot));
    }
    if let Some(path) = flags.get("profile-json") {
        let json = serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?;
        if path == "-" {
            eprintln!("{json}");
        } else {
            std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

/// `true` iff a journal-export flag asked for event capture.
fn journaling(flags: &Flags) -> bool {
    flags.has("trace-out") || flags.has("chrome-trace")
}

/// Shared tail of `--trace-out` / `--chrome-trace`: write the frozen
/// journal ring as JSONL events and/or a Chrome `trace_event` file.
/// Exports always go to files — stdout stays reserved for the
/// command's record stream, which is byte-identical with or without
/// the journal enabled.
fn emit_journal(snapshot: &JournalSnapshot, flags: &Flags) -> Result<(), String> {
    if let Some(path) = flags.get("trace-out") {
        std::fs::write(path, snapshot.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = flags.get("chrome-trace") {
        std::fs::write(path, snapshot.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// `mimd explain`: run one job with the gain ledger (and optionally the
/// event journal) enabled, then attribute the finished mapping —
/// per-processor loads, per-link routed traffic, the hop histogram,
/// the schedule critical path and the per-pass refinement gain ledger.
/// The JSON report goes to stdout; the human tables go to stderr, so
/// the report stays machine-consumable.
fn cmd_explain(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let spec_text = flags.get("spec").ok_or("explain needs --spec")?;
    let clustering = flags
        .get("clustering")
        .map(ClusteringSpec::parse)
        .transpose()?;
    let job = mimd_engine::JobSpec {
        id: None,
        workload: workload_from_flags(flags)?,
        clustering,
        topology: parse_topology(spec_text)?,
        topology_seed: None,
        algorithm: AlgorithmSpec::parse(flags.get("algorithm").unwrap_or("paper"))?,
        seed: flags.num("seed", 1991u64)?,
    };

    // The ledger is the whole point of explain; the journal only rides
    // along when an export was requested.
    let mut recorder = Recorder::disabled().with_ledger(GainLedger::enabled());
    if journaling(flags) {
        recorder = recorder.with_journal(Journal::enabled());
    }
    let cache = mimd_engine::TopologyCache::new();
    let result = mimd_engine::execute_job(&job, 0, &cache, &recorder);
    if let Some(message) = &result.error {
        return Err(message.clone().into());
    }

    // Rebuild the instance the engine mapped — same seed, and the same
    // derivation (`ClusteringSpec::instance`) as the engine's own
    // execution path — so the report attributes the assignment against
    // the exact graph it was computed for.
    let artifacts = cache
        .get_or_build(&job.topology, job.topology_seed())
        .map_err(|e| format!("topology: {e}"))?;
    let system = &artifacts.system;
    let mut rng = StdRng::seed_from_u64(job.seed);
    let problem = job
        .workload
        .build(&mut rng)
        .map_err(|e| format!("workload: {e}"))?;
    let graph = job.clustering().instance(problem, system.len(), &mut rng)?;
    let assignment =
        Assignment::from_sys_of(result.assignment.clone()).map_err(|e| e.to_string())?;
    let routing = mimd_sim::RoutingTable::new(system);
    let report = mimd_sim::ExplainReport::compute(
        &graph,
        system,
        &routing,
        &assignment,
        EvaluationModel::Precedence,
        recorder.ledger().snapshot(),
    )
    .map_err(|e| e.to_string())?;
    report
        .validate()
        .map_err(|e| format!("internal: inconsistent explain report: {e}"))?;

    eprint!("{}", mimd_report::render_explain(&report));
    writeln!(
        out,
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    )?;
    emit_journal(&recorder.journal().snapshot(), flags)?;
    Ok(())
}

/// Shared tail of `batch` and `sweep`, a thin client of the unified
/// [`mimd_service::MappingService`]: run the jobs, stream JSONL
/// results (to stdout or `--out`), and optionally print the aggregate
/// summary table plus cache statistics. Jobs come in as a lazy
/// iterator so large stdin batches are never fully buffered; an input
/// parse error stops intake (already-emitted results stand) and is
/// reported after the run.
fn run_jobs_and_emit(
    jobs: impl IntoIterator<Item = Result<mimd_engine::JobSpec, String>>,
    flags: &Flags,
    what: &str,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let threads = flags.num("threads", 0usize)?;
    let service = mimd_service::MappingService::new(mimd_service::ServiceConfig {
        engine: mimd_engine::EngineConfig {
            threads,
            ..mimd_engine::EngineConfig::default()
        },
        telemetry: profiling(flags),
        journal: journaling(flags),
        ..mimd_service::ServiceConfig::default()
    });

    let mut sink = output(flags, out)?;

    let mut input_error: Option<String> = None;
    let jobs = jobs.into_iter().map_while(|job| match job {
        Ok(job) => Some(job),
        Err(e) => {
            input_error = Some(e);
            None
        }
    });

    let mut summary = mimd_report::BatchSummary::new();
    let mut failures = 0usize;
    let mut write_error: Option<io::Error> = None;
    let cancel = service.cancel_token();
    let total = service.run_stream(jobs, |result| {
        if result.error.is_some() {
            failures += 1;
            summary.add_error(&result.algorithm, &result.topology);
        } else {
            summary.add(
                &result.algorithm,
                &result.topology,
                result.percent_over_lower_bound,
                result.optimal,
            );
        }
        if write_error.is_none() {
            if let Err(e) = mimd_engine::write_result(&mut sink, &result) {
                // Stop computing jobs nobody will read.
                cancel.cancel();
                write_error = Some(e);
            }
        }
    });
    finish_stream(sink, write_error, "results")?;

    let stats = service.cache_stats();
    eprintln!(
        "{what}: {total} jobs ({failures} failed); topology cache: {}",
        serde_json::to_string(&stats).map_err(|e| e.to_string())?
    );
    if flags.has("summary") {
        eprintln!(
            "{}",
            summary.render_table(format!("{what} summary")).render()
        );
    }
    emit_profile(&service, flags)?;
    emit_journal(&service.journal_snapshot(), flags)?;
    match input_error {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

fn cmd_batch(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let jobs = input(flags.positional().expect("batch takes a positional input"))?;
    run_jobs_and_emit(mimd_engine::job_lines(jobs), flags, "batch", out)
}

fn cmd_sweep(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let parse_list = |name: &str| -> Result<Vec<String>, String> {
        let raw = flags
            .get(name)
            .ok_or_else(|| format!("sweep needs --{name}"))?;
        Ok(raw.split(',').map(str::to_string).collect())
    };
    let workloads = parse_list("workloads")?
        .iter()
        .map(|s| WorkloadSpec::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let topologies = parse_list("specs")?
        .iter()
        .map(|s| parse_topology(s))
        .collect::<Result<Vec<_>, _>>()?;
    let algorithms = match flags.get("algos") {
        Some(raw) => raw
            .split(',')
            .map(AlgorithmSpec::parse)
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![AlgorithmSpec::parse("paper")?],
    };
    let seeds: Vec<u64> = (0..flags.positive("seeds", 1)? as u64).collect();
    let clustering = flags
        .get("clustering")
        .map(ClusteringSpec::parse)
        .transpose()?;
    let jobs = mimd_engine::sweep_jobs(&workloads, &topologies, &algorithms, &seeds, clustering);
    run_jobs_and_emit(jobs.into_iter().map(Ok), flags, "sweep", out)
}

fn cmd_paper(_: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let g = paper::worked_example();
    let system = mimd_topology::ring(4).map_err(|e| e.to_string())?;
    let ideal = mimd_core::IdealSchedule::derive(&g);
    writeln!(
        out,
        "worked example (Figs 2-6, 18-24): 11 tasks, 4 clusters, ring(4)"
    )?;
    writeln!(out, "  lower bound     : {}", ideal.lower_bound())?;
    writeln!(
        out,
        "  latest tasks    : {:?}",
        ideal
            .latest_tasks()
            .iter()
            .map(|&t| t + 1)
            .collect::<Vec<_>>()
    )?;
    let crit =
        mimd_core::CriticalAnalysis::analyze(&g, &ideal, mimd_core::CriticalityMode::PaperExact);
    writeln!(
        out,
        "  critical edges  : {:?}",
        crit.critical_edges()
            .iter()
            .map(|&(u, v, w)| format!("({},{})={w}", u + 1, v + 1))
            .collect::<Vec<_>>()
    )?;
    let fig23 = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec())
        .map_err(|e| e.to_string())?;
    let eval = evaluate_assignment(&g, &system, &fig23, EvaluationModel::Precedence)
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  Fig 23 mapping  : {:?} -> total {} (= lower bound)",
        paper::WORKED_OPTIMAL_ASSIGNMENT,
        eval.total()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv, &mut io::sink()).map_err(|stop| match stop {
            Stop::Failed(message) => message,
            Stop::Closed => "stdout closed".into(),
        })
    }

    #[test]
    fn generate_and_topology_run() {
        run(&["generate", "--tasks", "30", "--seed", "1"]).unwrap();
        run(&["generate", "--tasks", "12", "--json"]).unwrap();
        run(&["generate", "--tasks", "10", "--dot"]).unwrap();
        run(&["topology", "--spec", "hypercube:3"]).unwrap();
        run(&["topology", "--spec", "mesh:2x3", "--dot"]).unwrap();
    }

    #[test]
    fn map_and_simulate_run() {
        run(&[
            "map", "--tasks", "40", "--spec", "ring:5", "--seed", "2", "--reps", "4",
        ])
        .unwrap();
        run(&[
            "map",
            "--workload",
            "ge:8",
            "--spec",
            "hypercube:3",
            "--reps",
            "4",
        ])
        .unwrap();
        run(&[
            "map",
            "--workload",
            "fft:3",
            "--spec",
            "ring:4",
            "--reps",
            "2",
            "--gantt",
        ])
        .unwrap();
        run(&[
            "simulate",
            "--tasks",
            "40",
            "--spec",
            "mesh:2x3",
            "--contention",
        ])
        .unwrap();
        run(&["paper"]).unwrap();
    }

    #[test]
    fn map_with_registry_algorithms_runs() {
        run(&[
            "map",
            "--tasks",
            "80",
            "--spec",
            "mesh:6x6",
            "--algorithm",
            "multilevel",
            "--direct-threshold",
            "8",
            "--refine-rounds",
            "4",
            "--reps",
            "2",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&[
            "map",
            "--workload",
            "fft:3",
            "--spec",
            "fattree:3x3",
            "--algorithm",
            "random",
            "--reps",
            "2",
        ])
        .unwrap();
        run(&[
            "map",
            "--tasks",
            "40",
            "--spec",
            "clusters:4x4",
            "--reps",
            "2",
            "--seed",
            "1",
        ])
        .unwrap();
        // Misuse is rejected.
        assert!(run(&[
            "map",
            "--tasks",
            "40",
            "--spec",
            "ring:8",
            "--algorithm",
            "bogus"
        ])
        .is_err());
        assert!(run(&[
            "map",
            "--tasks",
            "40",
            "--spec",
            "ring:8",
            "--direct-threshold",
            "4"
        ])
        .is_err());
        assert!(run(&[
            "map",
            "--tasks",
            "40",
            "--spec",
            "ring:8",
            "--algorithm",
            "random",
            "--refine-rounds",
            "4"
        ])
        .is_err());
        assert!(run(&[
            "map",
            "--tasks",
            "40",
            "--spec",
            "ring:8",
            "--algorithm",
            "multilevel",
            "--serialized"
        ])
        .is_err());
        // The removed thread knob is an unknown flag like any other.
        assert_eq!(
            run(&[
                "map",
                "--tasks",
                "80",
                "--spec",
                "mesh:6x6",
                "--algorithm",
                "multilevel",
                "--refine-threads",
                "2"
            ]),
            Err("unknown flag --refine-threads".to_string())
        );
    }

    #[test]
    fn algorithms_lists_the_registry() {
        run(&["algorithms"]).unwrap();
        assert!(run(&["algorithms", "--verbose"]).is_err());
    }

    #[test]
    fn serve_stats_interval_is_validated() {
        // Each misuse is rejected before the serve loop touches stdin.
        assert!(run(&["serve", "--stats-interval"]).is_err());
        assert!(run(&["serve", "--stats-interval", "0"]).is_err());
        assert!(run(&["serve", "--stats-interval", "two"]).is_err());
    }

    #[test]
    fn serve_listen_flags_are_validated() {
        // Concurrency knobs make no sense on the stdin loop…
        assert!(run(&["serve", "--shards", "4"]).is_err());
        assert!(run(&["serve", "--queue-depth", "64"]).is_err());
        // …and each misuse below is rejected before anything binds.
        assert!(run(&["serve", "--listen", "not-an-address"]).is_err());
        assert!(run(&["serve", "--listen", "127.0.0.1:0", "--shards", "0"]).is_err());
        assert!(run(&["serve", "--listen", "127.0.0.1:0", "--queue-depth", "0"]).is_err());
        assert!(run(&["serve", "--listen", "127.0.0.1:0", "--slow-ms", "five"]).is_err());
    }

    #[test]
    fn loadgen_flags_are_validated() {
        assert!(run(&["loadgen"]).is_err()); // needs --connect
        assert!(run(&["loadgen", "--connect", "not-an-address"]).is_err());
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--sessions", "0"]).is_err());
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--connections", "0"]).is_err());
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--rate", "0"]).is_err());
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--rate", "fast"]).is_err());
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--bogus"]).is_err());
        // A 4x4 torus needs at least 16 tasks.
        assert!(run(&["loadgen", "--connect", "127.0.0.1:1", "--tasks", "8"]).is_err());
    }

    #[test]
    fn batch_and_sweep_run() {
        let dir = std::env::temp_dir().join("mimd-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        let out = dir.join("results.jsonl");
        std::fs::write(
            &jobs,
            "# demo batch\n\
             {\"workload\":{\"kind\":\"fft\",\"log2n\":3},\
              \"topology\":{\"kind\":\"ring\",\"n\":4},\
              \"algorithm\":{\"kind\":\"paper\"},\"seed\":1}\n\
             {\"workload\":{\"kind\":\"pipeline\",\"stages\":2,\"tasks\":4},\
              \"topology\":{\"kind\":\"ring\",\"n\":4},\
              \"algorithm\":{\"kind\":\"random\",\"k\":4},\"seed\":2}\n",
        )
        .unwrap();
        run(&[
            "batch",
            jobs.to_str().unwrap(),
            "--threads",
            "2",
            "--summary",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let result = mimd_engine::JobResult::from_json_line(line).unwrap();
            assert!(result.error.is_none(), "{:?}", result.error);
        }

        let out2 = dir.join("sweep.jsonl");
        run(&[
            "sweep",
            "--workloads",
            "fft:3,ge:6",
            "--specs",
            "ring:4",
            "--algos",
            "paper,random",
            "--seeds",
            "2",
            "--out",
            out2.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out2).unwrap();
        assert_eq!(text.lines().count(), 2 * 2 * 2);

        // --profile/--profile-json collect telemetry without touching
        // the result stream.
        let out3 = dir.join("profiled.jsonl");
        let prof = dir.join("profile.json");
        run(&[
            "batch",
            jobs.to_str().unwrap(),
            "--out",
            out3.to_str().unwrap(),
            "--profile",
            "--profile-json",
            prof.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out3).unwrap().lines().count(),
            2,
            "profiling leaves the JSONL stream intact"
        );
        let profile = std::fs::read_to_string(&prof).unwrap();
        assert!(profile.contains("engine.jobs"), "{profile}");
        assert!(profile.contains("engine.queue_wait"), "{profile}");
        // A valueless --profile-json is rejected before any work runs.
        assert!(run(&["batch", jobs.to_str().unwrap(), "--profile-json"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("mimd-cli-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let records = dir.join("records.jsonl");
        run(&[
            "trace",
            "--tasks",
            "96",
            "--spec",
            "torus:6x6",
            "--events",
            "25",
            "--regime",
            "mixed",
            "--seed",
            "5",
            "--out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(text.lines().count(), 26, "header + 25 events");

        run(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "5",
            "--summary",
            "--out",
            records.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&records).unwrap();
        assert_eq!(text.lines().count(), 26, "init + 25 events");
        let mut incremental = 0;
        for line in text.lines() {
            let record = mimd_online::ReplayRecord::from_json_line(line).unwrap();
            assert!(record.error.is_none(), "{:?}", record.error);
            assert!(record.total_time >= record.lower_bound);
            incremental += usize::from(record.action == "incremental");
        }
        assert!(incremental > 0, "expected incremental events");

        // --scratch forces full V-cycles everywhere.
        let scratch = dir.join("scratch.jsonl");
        run(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "5",
            "--scratch",
            "--out",
            scratch.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&scratch).unwrap();
        for line in text.lines() {
            let record = mimd_online::ReplayRecord::from_json_line(line).unwrap();
            assert_eq!(record.action, "full");
        }

        // --profile records telemetry without changing a single record
        // byte: the profiled run's output matches the plain run's.
        let profiled = dir.join("profiled.jsonl");
        let prof = dir.join("profile.json");
        run(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "5",
            "--out",
            profiled.to_str().unwrap(),
            "--profile",
            "--profile-json",
            prof.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&profiled).unwrap(),
            std::fs::read_to_string(&records).unwrap(),
            "telemetry never changes replay output"
        );
        let profile = std::fs::read_to_string(&prof).unwrap();
        assert!(profile.contains("\"online.events\": 25"), "{profile}");
        assert!(profile.contains("online.region_refine"), "{profile}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_runs_and_exports_journals() {
        let dir = std::env::temp_dir().join("mimd-cli-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        run(&[
            "explain",
            "--tasks",
            "64",
            "--spec",
            "torus:4x4",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&[
            "explain",
            "--workload",
            "fft:4",
            "--spec",
            "hypercube:3",
            "--algorithm",
            "multilevel",
        ])
        .unwrap();
        let events = dir.join("events.jsonl");
        let chrome = dir.join("chrome.json");
        run(&[
            "explain",
            "--tasks",
            "48",
            "--spec",
            "ring:6",
            "--trace-out",
            events.to_str().unwrap(),
            "--chrome-trace",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(!jsonl.trim().is_empty(), "journal export has events");
        for line in jsonl.lines() {
            let event: mimd_telemetry::Event = serde_json::from_str(line).unwrap();
            assert!(!event.name.is_empty());
        }
        let trace = std::fs::read_to_string(&chrome).unwrap();
        let parsed = serde_json::parse_value(&trace).unwrap();
        assert!(trace.contains("traceEvents"), "{parsed:?}");
        // Misuse is rejected.
        assert!(
            run(&["explain", "--tasks", "40"]).is_err(),
            "missing --spec"
        );
        assert!(
            run(&[
                "explain",
                "--tasks",
                "40",
                "--spec",
                "ring:4",
                "--trace-out"
            ])
            .is_err(),
            "valueless --trace-out"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_stdout_is_byte_identical_with_trace_out() {
        let dir = std::env::temp_dir().join("mimd-cli-traceout-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        run(&[
            "trace",
            "--tasks",
            "64",
            "--spec",
            "mesh:4x4",
            "--events",
            "12",
            "--seed",
            "9",
            "--out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let plain = dir.join("plain.jsonl");
        run(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "9",
            "--out",
            plain.to_str().unwrap(),
        ])
        .unwrap();
        let journaled = dir.join("journaled.jsonl");
        let events = dir.join("events.jsonl");
        run(&[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "9",
            "--out",
            journaled.to_str().unwrap(),
            "--trace-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&journaled).unwrap(),
            "the journal never changes replay output"
        );
        assert!(!std::fs::read_to_string(&events).unwrap().trim().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_and_replay_errors() {
        assert!(run(&["trace", "--tasks", "40"]).is_err(), "missing --spec");
        assert!(
            run(&["trace", "--tasks", "4", "--spec", "ring:8"]).is_err(),
            "np < ns"
        );
        assert!(run(&["trace", "--tasks", "40", "--spec", "ring:8", "--regime", "storm"]).is_err());
        assert!(run(&["replay"]).is_err(), "missing --trace");
        assert!(run(&["replay", "--trace", "/nonexistent/t.jsonl"]).is_err());
        assert!(
            run(&[
                "replay",
                "--trace",
                "t.jsonl",
                "--scratch",
                "--staleness",
                "0.5"
            ])
            .is_err(),
            "--scratch conflicts with --staleness"
        );
    }

    #[test]
    fn batch_and_sweep_errors() {
        assert!(run(&["batch"]).is_err(), "missing input");
        assert!(run(&["batch", "/nonexistent/x.jsonl"]).is_err());
        assert!(
            run(&["sweep", "--specs", "ring:4"]).is_err(),
            "missing workloads"
        );
        assert!(run(&[
            "sweep",
            "--workloads",
            "fft:3",
            "--specs",
            "ring:4",
            "--seeds",
            "0"
        ])
        .is_err());
        assert!(run(&["sweep", "--workloads", "wat:3", "--specs", "ring:4"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus"]).is_err());
        assert!(run(&["map", "--tasks", "40"]).is_err(), "missing --spec");
        assert!(
            run(&["map", "--tasks", "4", "--spec", "ring:8"]).is_err(),
            "np < ns"
        );
        assert!(run(&["topology", "--spec", "nope:1"]).is_err());
        assert!(run(&["generate", "--frobnicate"]).is_err());
        // Flag validation fails before `serve` ever touches stdin.
        assert!(run(&["serve", "--frobnicate"]).is_err());
    }

    #[test]
    fn flag_misuse_is_rejected_before_any_work() {
        // A value flag given no value does not fall back to its default…
        assert_eq!(
            run(&["generate", "--tasks", "--seed", "3"]),
            Err("--tasks needs <n>".to_string())
        );
        // …a repeated flag is not first-wins…
        assert!(run(&["generate", "--tasks", "30", "--tasks", "50"]).is_err());
        // …and a boolean flag does not swallow the next token.
        assert!(run(&["generate", "--json", "nonsense"]).is_err());
        // A flag of another command is as unknown as a typo.
        assert_eq!(
            run(&["generate", "--listen", "127.0.0.1:0"]),
            Err("unknown flag --listen".to_string())
        );
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        let text = usage();
        for (i, command) in COMMANDS.iter().enumerate() {
            let header = format!("\n  {:<10} ", command.name);
            let start = text.find(&header).unwrap_or_else(|| panic!("{header}"));
            let end = match COMMANDS.get(i + 1) {
                Some(next) => text.find(&format!("\n  {:<10} ", next.name)).unwrap(),
                None => text.find("\n\ntopology specs").unwrap(),
            };
            let section = &text[start..end];
            for (flag, placeholder) in command.flags {
                let shown = match placeholder {
                    Some(placeholder) => format!("[--{flag} {placeholder}]"),
                    None => format!("[--{flag}]"),
                };
                assert!(section.contains(&shown), "{} lacks {shown}", command.name);
            }
        }
    }

    #[test]
    fn documented_workload_specs_are_accepted() {
        run(&[
            "map",
            "--workload",
            "paper:64",
            "--spec",
            "ring:8",
            "--reps",
            "2",
        ])
        .unwrap();
        run(&["simulate", "--workload", "tasks:40", "--spec", "ring:8"]).unwrap();
        let dir = std::env::temp_dir().join("mimd-cli-workload-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        run(&[
            "trace",
            "--workload",
            "paper:48",
            "--spec",
            "ring:8",
            "--events",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(std::fs::read_to_string(&trace).unwrap().lines().count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_reports_np_below_ns_as_the_engine_does() {
        let dir = std::env::temp_dir().join("mimd-cli-np-ns-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        let out = dir.join("results.jsonl");
        std::fs::write(
            &jobs,
            "{\"workload\":{\"kind\":\"layered\",\"tasks\":4},\
              \"topology\":{\"kind\":\"ring\",\"n\":8},\
              \"algorithm\":{\"kind\":\"paper\"},\"seed\":3}\n",
        )
        .unwrap();
        run(&[
            "batch",
            jobs.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        let line = std::fs::read_to_string(&out).unwrap();
        let result = mimd_engine::JobResult::from_json_line(line.trim()).unwrap();
        assert_eq!(
            result.error.as_deref(),
            Some("workload has 4 tasks but the machine has 8 processors; need np >= ns")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
