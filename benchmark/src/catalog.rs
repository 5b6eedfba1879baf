//! Every metric the benchmark prints, with its unit, direction and —
//! for the end-to-end ones — the bound `BENCHMARK.json` fixes. A test
//! holds this table and `BENCHMARK.json` equal, so neither drifts.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// The name printed and gated on.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// `true` for values that repeat exactly for a seed; `aa.sh`
    /// requires those equal, not merely within the bound.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, in print order. README.md defines each.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("wall_s", "s", Better::Lower, 0.25, false),
    e2e("cpu_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "ops/s", Better::Higher, 0.25, false),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("op_p95_ms", "ms", Better::Lower, 0.25, false),
    e2e("op_p99_ms", "ms", Better::Lower, 0.25, false),
    e2e("open_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("quality_pct_over_lb", "%", Better::Lower, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
];

/// One per-layer (diagnostic, unbounded) metric.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// The name printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by the crate they measure. A layer
/// a workload never reaches prints 0.
pub const PER_LAYER: [Layer; 69] = [
    // mimd-topology, mimd-sim
    lower("topology.build_s", "s"),
    lower("topology.nodes", "count"),
    lower("sim.routing_table_s", "s"),
    // mimd-engine
    lower("engine.cache_build_s", "s"),
    lower("engine.cache_hit_us", "us"),
    higher("engine.cache_hits", "count"),
    lower("engine.cache_misses", "count"),
    higher("engine.cache_hit_ratio", "ratio"),
    lower("engine.cache_resident_mb", "MB"),
    lower("engine.job_s", "s"),
    lower("engine.unaccounted_s", "s"),
    lower("engine.unaccounted_share", "ratio"),
    higher("engine.pool_efficiency", "ratio"),
    // mimd-taskgraph
    lower("taskgraph.generate_s", "s"),
    lower("taskgraph.cluster_s", "s"),
    lower("taskgraph.clustered_new_s", "s"),
    lower("taskgraph.abstract_s", "s"),
    lower("taskgraph.tasks", "count"),
    lower("taskgraph.edges", "count"),
    lower("taskgraph.snapshot_load_s", "s"),
    lower("taskgraph.materialize_s", "s"),
    lower("taskgraph.event_apply_us", "us"),
    // mimd-core
    lower("core.ideal_s", "s"),
    lower("core.critical_s", "s"),
    lower("core.initial_s", "s"),
    lower("core.refine_s", "s"),
    lower("core.map_s", "s"),
    lower("core.evaluate_us", "us"),
    lower("core.validate_s", "s"),
    lower("core.refine_candidates", "count"),
    higher("core.refine_accepted", "count"),
    higher("core.refine_accept_ratio", "ratio"),
    higher("core.candidates_per_s", "1/s"),
    // mimd-multilevel
    lower("multilevel.system_hierarchy_s", "s"),
    lower("multilevel.coarsen_s", "s"),
    lower("multilevel.top_map_s", "s"),
    lower("multilevel.map_s", "s"),
    lower("multilevel.uncoarsen_s", "s"),
    lower("multilevel.levels", "count"),
    lower("multilevel.evaluations", "count"),
    higher("multilevel.improvements", "count"),
    higher("multilevel.improve_ratio", "ratio"),
    lower("multilevel.map_4096_s", "s"),
    lower("multilevel.rss_4096_mb", "MB"),
    // mimd-online
    lower("online.begin_s", "s"),
    lower("online.apply_us", "us"),
    higher("online.incremental", "count"),
    lower("online.full_remaps", "count"),
    lower("online.fallback_ratio", "ratio"),
    lower("online.migrations", "count"),
    // mimd-service
    lower("service.parse_us", "us"),
    lower("service.handle_us", "us"),
    lower("service.serialize_us", "us"),
    lower("service.request_bytes", "B"),
    lower("service.response_bytes", "B"),
    lower("service.errors", "count"),
    higher("service.inproc_req_per_s", "1/s"),
    // mimd-server
    lower("server.roundtrip_us", "us"),
    lower("server.roundtrip_p99_us", "us"),
    lower("server.overhead_share", "ratio"),
    lower("server.rejected", "count"),
    higher("server.requests", "count"),
    lower("server.bind_s", "s"),
    lower("server.drain_s", "s"),
    // mimd-telemetry, and the traced run itself
    lower("telemetry.overhead_share", "ratio"),
    higher("trace.sampled_ops", "count"),
    lower("trace.rep_wall_s", "s"),
    lower("trace.reference_wall_s", "s"),
    lower("run.failed_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| valid_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(Kind::ALL
            .iter()
            .all(|k| k.why().len() <= 200 && !k.why().contains('\n')));
    }

    #[test]
    fn setup_time_is_gated_with_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root must say exactly what this
    /// table says. (Skipped where the file is absent, e.g. a vendored
    /// copy of this directory alone.)
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(|v| v.as_arr()).expect(key).to_vec();
        let text_of = |v: &serde_json::Value, key: &str| {
            v.get(key).and_then(|s| s.as_str()).expect(key).to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Kind::ALL.len());
        for (entry, kind) in workloads.iter().zip(Kind::ALL) {
            assert_eq!(text_of(entry, "name"), kind.name());
            assert_eq!(text_of(entry, "why"), kind.why());
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(entry, "name"), metric.name);
            assert_eq!(text_of(entry, "unit"), metric.unit);
            assert_eq!(text_of(entry, "better"), metric.better.word());
            let bound = match entry.get("bound") {
                Some(serde_json::Value::Float(f)) => *f,
                Some(serde_json::Value::UInt(u)) => *u as f64,
                other => panic!("bound of {}: {other:?}", metric.name),
            };
            assert_eq!(bound, metric.bound, "{}", metric.name);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(entry, "name"), metric.name);
            assert_eq!(text_of(entry, "unit"), metric.unit);
            assert_eq!(text_of(entry, "better"), metric.better.word());
        }
    }
}
