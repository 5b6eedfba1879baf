//! The trace wire format and the replay driver.
//!
//! A trace file is JSONL: the first non-comment line is the
//! [`TraceHeader`] (target topology plus the initial workload
//! snapshot), every following line one
//! [`TraceEvent`](mimd_taskgraph::TraceEvent). Blank lines and
//! `#`-comments are skipped. Replaying a trace produces one
//! [`ReplayRecord`] JSONL line per event (plus the index-0 record of
//! the initial mapping) — same framing conventions as the batch
//! engine's job streams.

use std::io::{BufRead, Write};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use serde::{Deserialize, Serialize};

use mimd_multilevel::SystemHierarchy;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, DynamicWorkload, TraceEvent, WorkloadSnapshot};
use mimd_telemetry::Recorder;
use mimd_topology::TopologySpec;

use crate::mapper::{IncrementalMapper, OnlineConfig};

/// The first line of a trace file: where to map and what the workload
/// looks like before the first event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// The target machine; its size must equal the snapshot's cluster
    /// count (`na = ns`).
    pub topology: TopologySpec,
    /// Seed for stochastic topologies; `None` = 0.
    pub topology_seed: Option<u64>,
    /// The initial workload state.
    pub snapshot: WorkloadSnapshot,
}

impl TraceHeader {
    /// The effective topology seed.
    pub fn topology_seed(&self) -> u64 {
        self.topology_seed.unwrap_or(0)
    }
}

/// One line of replay output: what happened at one trace position.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayRecord {
    /// 0 for the initial mapping, then the 1-based event position.
    pub index: usize,
    /// Event kind (`init` for the initial mapping).
    pub kind: String,
    /// How the event was served: `full` (V-cycle), `incremental`
    /// (region-local refinement) or `error`.
    pub action: String,
    /// Live tasks after the event.
    pub np: usize,
    /// Machine size.
    pub ns: usize,
    /// Ideal-graph lower bound of the post-event instance.
    pub lower_bound: u64,
    /// Total time of the current assignment on the post-event instance.
    pub total_time: u64,
    /// `100 × total / lower_bound`.
    pub percent_over_lower_bound: f64,
    /// Clusters that changed processor while serving this event.
    pub moves: usize,
    /// Search effort spent (candidate/refinement evaluations).
    pub evaluations: usize,
    /// Accumulated drift fraction after the event (0 right after a full
    /// remap).
    pub drift: f64,
    /// Failure message for `action = "error"` records.
    pub error: Option<String>,
}

impl ReplayRecord {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("ReplayRecord serializes")
    }

    /// Parse from one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// Write a trace file: header line, then one event per line.
pub fn write_trace(
    mut writer: impl Write,
    header: &TraceHeader,
    events: &[TraceEvent],
) -> std::io::Result<()> {
    writeln!(
        writer,
        "{}",
        serde_json::to_string(header).expect("TraceHeader serializes")
    )?;
    for event in events {
        writeln!(
            writer,
            "{}",
            serde_json::to_string(event).expect("TraceEvent serializes")
        )?;
    }
    Ok(())
}

/// Read a trace file: the first non-blank, non-`#` line is the header,
/// the rest are events. Errors carry the 1-based line number.
pub fn read_trace(reader: impl BufRead) -> Result<(TraceHeader, Vec<TraceEvent>), String> {
    let mut header: Option<TraceHeader> = None;
    let mut events = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if header.is_none() {
            header = Some(
                serde_json::from_str(trimmed).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        } else {
            events.push(
                serde_json::from_str(trimmed).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
    }
    match header {
        Some(header) => Ok((header, events)),
        None => Err("trace has no header line".into()),
    }
}

/// Synthesize a trace over `base`: `events` valid churn events of
/// `regime` drawn from `rng`, behind a header that maps `base`'s
/// snapshot onto `topology` built with `topology_seed`. The one trace
/// generator behind `mimd trace`, `mimd loadgen` and the bench suites.
pub fn synthesize_trace(
    topology: TopologySpec,
    topology_seed: u64,
    base: &ClusteredProblemGraph,
    events: usize,
    regime: ChurnRegime,
    rng: &mut StdRng,
) -> (TraceHeader, Vec<TraceEvent>) {
    let events = churn_trace(base, events, regime, rng);
    let header = TraceHeader {
        topology,
        topology_seed: Some(topology_seed),
        snapshot: DynamicWorkload::from_clustered(base).snapshot(),
    };
    (header, events)
}

/// Aggregate statistics of one replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplaySummary {
    /// Events served (records emitted minus the initial mapping).
    pub events: usize,
    /// Events served by a full V-cycle (including forced globals).
    pub full_remaps: usize,
    /// Events served by region-local refinement.
    pub incremental: usize,
    /// Events rejected as invalid.
    pub errors: usize,
    /// Total clusters migrated across all events.
    pub total_moves: usize,
    /// Sum of per-event `100 × total / lower_bound` over clean events
    /// (divide by `events - errors` for the mean).
    pub percent_sum: f64,
}

impl ReplaySummary {
    /// Mean `% over lower bound` across clean events.
    pub fn mean_percent_over(&self) -> f64 {
        let clean = self.events - self.errors;
        if clean == 0 {
            0.0
        } else {
            self.percent_sum / clean as f64
        }
    }
}

/// Replay `events` against the snapshot in `header`, emitting every
/// record (initial mapping first) to `sink`. The system hierarchy is
/// built from the header's topology unless a prebuilt (cached) one is
/// supplied. The session records its `online.*` counters and spans (and
/// the `vcycle.*` series of every full remap) into `recorder`; the
/// emitted records never depend on it.
pub fn replay_trace(
    header: &TraceHeader,
    events: &[TraceEvent],
    config: &OnlineConfig,
    hierarchy: Option<Arc<SystemHierarchy>>,
    seed: u64,
    recorder: &Recorder,
    mut sink: impl FnMut(&ReplayRecord),
) -> Result<ReplaySummary, String> {
    let hierarchy = match hierarchy {
        Some(h) => h,
        None => {
            let mut rng = StdRng::seed_from_u64(header.topology_seed());
            let system = header.topology.build(&mut rng).map_err(|e| e.to_string())?;
            Arc::new(SystemHierarchy::build(&system).map_err(|e| e.to_string())?)
        }
    };
    let workload = DynamicWorkload::from_snapshot(&header.snapshot).map_err(|e| e.to_string())?;
    let (mut session, init) = IncrementalMapper::with_config(config.clone())
        .with_recorder(recorder.clone())
        .begin(workload, hierarchy, seed)
        .map_err(|e| e.to_string())?;
    sink(&init);
    let mut summary = ReplaySummary::default();
    for event in events {
        let record = session.apply(event);
        summary.events += 1;
        match record.action.as_str() {
            "full" => summary.full_remaps += 1,
            "incremental" => summary.incremental += 1,
            _ => summary.errors += 1,
        }
        if record.error.is_none() {
            summary.total_moves += record.moves;
            summary.percent_sum += record.percent_over_lower_bound;
        }
        sink(&record);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
    use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};

    fn header_and_events(seed: u64, events: usize) -> (TraceHeader, Vec<TraceEvent>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 96,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, 36, &mut rng).unwrap();
        let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
        let trace = churn_trace(&base, events, ChurnRegime::Mixed, &mut rng);
        let header = TraceHeader {
            topology: TopologySpec::Torus { rows: 6, cols: 6 },
            topology_seed: None,
            snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
        };
        (header, trace)
    }

    #[test]
    fn trace_files_roundtrip_through_the_wire_format() {
        let (header, events) = header_and_events(1, 12);
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &header, &events).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text.lines().count(), 13);
        let (back_header, back_events) = read_trace(text.as_bytes()).unwrap();
        assert_eq!(back_header, header);
        assert_eq!(back_events, events);
        // Comments and blanks are tolerated.
        let commented = format!("# trace\n\n{text}");
        let (h2, e2) = read_trace(commented.as_bytes()).unwrap();
        assert_eq!(h2, header);
        assert_eq!(e2, events);
    }

    #[test]
    fn read_trace_reports_errors_with_line_numbers() {
        assert!(read_trace("".as_bytes()).unwrap_err().contains("header"));
        let err = read_trace("{bad\n".as_bytes()).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let (header, _) = header_and_events(2, 1);
        let text = format!("{}\n{{oops\n", serde_json::to_string(&header).unwrap());
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn replay_emits_one_record_per_event_plus_init() {
        let (header, events) = header_and_events(3, 20);
        let mut records = Vec::new();
        let summary = replay_trace(
            &header,
            &events,
            &OnlineConfig::default(),
            None,
            7,
            &Recorder::disabled(),
            |r| records.push(r.clone()),
        )
        .unwrap();
        assert_eq!(records.len(), 21);
        assert_eq!(summary.events, 20);
        assert_eq!(
            summary.full_remaps + summary.incremental + summary.errors,
            20
        );
        assert_eq!(summary.errors, 0);
        assert!(summary.mean_percent_over() >= 100.0);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.index, i);
            let line = record.to_json_line();
            assert_eq!(ReplayRecord::from_json_line(&line).unwrap(), *record);
        }
    }

    #[test]
    fn same_seed_replays_are_identical() {
        let (header, events) = header_and_events(4, 25);
        let run = |seed: u64| {
            let mut lines = String::new();
            replay_trace(
                &header,
                &events,
                &OnlineConfig::default(),
                None,
                seed,
                &Recorder::disabled(),
                |r| {
                    lines.push_str(&r.to_json_line());
                    lines.push('\n');
                },
            )
            .unwrap();
            lines
        };
        assert_eq!(run(9), run(9));
        // A prebuilt hierarchy changes nothing.
        let mut rng = StdRng::seed_from_u64(0);
        let system = header.topology.build(&mut rng).unwrap();
        let hierarchy = Arc::new(SystemHierarchy::build(&system).unwrap());
        let mut cached = String::new();
        replay_trace(
            &header,
            &events,
            &OnlineConfig::default(),
            Some(hierarchy),
            9,
            &Recorder::disabled(),
            |r| {
                cached.push_str(&r.to_json_line());
                cached.push('\n');
            },
        )
        .unwrap();
        assert_eq!(cached, run(9));
    }
}
