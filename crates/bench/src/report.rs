//! The versioned serde benchmark report.
//!
//! A [`BenchReport`] is one measurement of one suite: schema version,
//! suite name + fingerprint, the environment it ran in ([`GitMeta`],
//! creation time) and one [`ScenarioReport`] per scenario. Wall-clock
//! fields vary run to run; everything the runner asserts across
//! repetitions (quality, item counts, cache counters) is structural
//! and deterministic per seed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mimd_engine::CacheStats;
use mimd_telemetry::HistogramSnapshot;

/// Current `BenchReport` schema version. Bump on breaking layout
/// changes; [`BenchReport::from_json`] rejects mismatches so a compare
/// never silently crosses schemas.
pub const SCHEMA_VERSION: u32 = 1;

/// Where a report was produced: best-effort git metadata, all `None`
/// outside a repository (or without a `git` binary).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GitMeta {
    /// `git rev-parse HEAD`.
    pub commit: Option<String>,
    /// `git rev-parse --abbrev-ref HEAD`.
    pub branch: Option<String>,
    /// `true` iff `git status --porcelain` reported changes.
    pub dirty: Option<bool>,
}

impl GitMeta {
    /// Capture the current repository state (best effort; never fails).
    pub fn capture() -> GitMeta {
        fn git(args: &[&str]) -> Option<String> {
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        }
        GitMeta {
            commit: git(&["rev-parse", "HEAD"]),
            branch: git(&["rev-parse", "--abbrev-ref", "HEAD"]),
            dirty: git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
        }
    }
}

/// Tail-latency summary of one telemetry histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Observations behind the estimates.
    pub count: u64,
    /// Median estimate (bucket upper bound, clamped to observed range).
    pub p50_ns: u64,
    /// 90th percentile estimate.
    pub p90_ns: u64,
    /// 99th percentile estimate.
    pub p99_ns: u64,
}

impl LatencyPercentiles {
    /// Summarize a histogram snapshot.
    pub fn from_snapshot(h: &HistogramSnapshot) -> LatencyPercentiles {
        LatencyPercentiles {
            count: h.count,
            p50_ns: h.p50_ns(),
            p90_ns: h.p90_ns(),
            p99_ns: h.p99_ns(),
        }
    }
}

/// One scenario's measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario's suite-unique name.
    pub name: String,
    /// Scenario kind label (`job:paper`, `job:multilevel`, `replay`,
    /// `service_stream`; `micro:*` only in history lines the former
    /// cargo-bench micro-harnesses appended).
    pub kind: String,
    /// Repetitions measured.
    pub reps: usize,
    /// Work items per repetition (candidate evaluations for jobs,
    /// events for replays, requests for service streams) — the
    /// numerator of `items_per_sec`.
    pub items: usize,
    /// Min-of-reps wall-clock nanoseconds (the headline time).
    pub wall_ns: u64,
    /// Every repetition's wall-clock, in run order — the compare
    /// classifier calibrates its noise floor from this spread.
    pub rep_wall_ns: Vec<u64>,
    /// `items / (wall_ns / 1e9)`.
    pub items_per_sec: f64,
    /// Mean `100 × total / lower_bound` of the scenario's results —
    /// deterministic per seed, so the compare gate holds it to a tight
    /// tolerance. `None` for scenarios with no mapping quality.
    #[serde(default)]
    pub quality_percent_over: Option<f64>,
    /// Topology-cache counters after the last repetition.
    #[serde(default)]
    pub cache: Option<CacheStats>,
    /// p50/p90/p99 per relevant telemetry histogram (merged across
    /// repetitions).
    #[serde(default)]
    pub latency: BTreeMap<String, LatencyPercentiles>,
    /// Harness-specific extras (speedups, overhead percentages,
    /// structural event counts) — informational, never gated.
    #[serde(default)]
    pub metrics: BTreeMap<String, f64>,
}

impl ScenarioReport {
    /// Relative spread of the repetition wall-clocks,
    /// `(max - min) / min` — 0.0 with fewer than two repetitions.
    pub fn rep_spread(&self) -> f64 {
        let (Some(&min), Some(&max)) =
            (self.rep_wall_ns.iter().min(), self.rep_wall_ns.iter().max())
        else {
            return 0.0;
        };
        if min == 0 || self.rep_wall_ns.len() < 2 {
            0.0
        } else {
            (max - min) as f64 / min as f64
        }
    }
}

/// One measurement of one suite (see module docs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub version: u32,
    /// Suite name (`quick`, `full`, or a harness name).
    pub suite: String,
    /// The suite definition's fingerprint
    /// ([`BenchSuite::fingerprint`](crate::BenchSuite::fingerprint)):
    /// two reports are comparable only when these match.
    pub fingerprint: String,
    /// Unix seconds when the report was stamped; `None` for unstamped
    /// (test-constructed) reports.
    #[serde(default)]
    pub created_unix: Option<u64>,
    /// Repository state at measurement time.
    #[serde(default)]
    pub git: GitMeta,
    /// Per-scenario measurements, in suite order.
    pub scenarios: Vec<ScenarioReport>,
}

impl BenchReport {
    /// An unstamped report (no git metadata, no timestamp) — what the
    /// runner produces before [`BenchReport::with_environment`], and
    /// what deterministic tests construct.
    pub fn new(
        suite: impl Into<String>,
        fingerprint: impl Into<String>,
        scenarios: Vec<ScenarioReport>,
    ) -> BenchReport {
        BenchReport {
            version: SCHEMA_VERSION,
            suite: suite.into(),
            fingerprint: fingerprint.into(),
            created_unix: None,
            git: GitMeta::default(),
            scenarios,
        }
    }

    /// Stamp the report with the current environment: git metadata and
    /// the wall-clock creation time.
    pub fn with_environment(mut self) -> BenchReport {
        self.git = GitMeta::capture();
        self.created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .map(|d| d.as_secs());
        self
    }

    /// Look up a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serialize as pretty JSON (the `--out` file format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("BenchReport serializes")
    }

    /// Serialize as one compact JSONL line (the history format).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("BenchReport serializes")
    }

    /// Parse a report, rejecting schema mismatches.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("bench report: {e}"))?;
        if report.version != SCHEMA_VERSION {
            return Err(format!(
                "bench report schema v{} unsupported (this build reads v{SCHEMA_VERSION})",
                report.version
            ));
        }
        Ok(report)
    }
}

/// FNV-1a 64-bit over `bytes`, formatted as fixed-width hex — the
/// suite-fingerprint hash (stable across platforms and runs, cheap, and
/// in-tree: no external hashing dependency).
pub fn fnv64_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> ScenarioReport {
        ScenarioReport {
            name: "flat_paper_mesh6x6".into(),
            kind: "job:paper".into(),
            reps: 3,
            items: 1200,
            wall_ns: 5_000_000,
            rep_wall_ns: vec![5_500_000, 5_000_000, 5_250_000],
            items_per_sec: 240_000.0,
            quality_percent_over: Some(112.5),
            cache: None,
            latency: BTreeMap::from([(
                "engine.job".to_string(),
                LatencyPercentiles {
                    count: 3,
                    p50_ns: 5_000_000,
                    p90_ns: 5_500_000,
                    p99_ns: 5_500_000,
                },
            )]),
            metrics: BTreeMap::from([("evaluations".to_string(), 1200.0)]),
        }
    }

    #[test]
    fn report_roundtrips_through_serde_json() {
        let report = BenchReport::new("quick", "deadbeefdeadbeef", vec![sample_scenario()]);
        let back = BenchReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
        let back = BenchReport::from_json(&report.to_json_line()).unwrap();
        assert_eq!(back, report);
        assert!(!report.to_json_line().contains('\n'));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut report = BenchReport::new("quick", "f", vec![]);
        report.version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json_line()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn rep_spread_is_relative_max_minus_min() {
        let mut s = sample_scenario();
        assert!((s.rep_spread() - 0.1).abs() < 1e-12, "{}", s.rep_spread());
        s.rep_wall_ns = vec![7];
        assert_eq!(s.rep_spread(), 0.0, "single rep has no spread");
        s.rep_wall_ns.clear();
        assert_eq!(s.rep_spread(), 0.0, "empty is spreadless");
    }

    #[test]
    fn fnv64_hex_is_stable_and_input_sensitive() {
        assert_eq!(fnv64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv64_hex(b"a"), fnv64_hex(b"a"));
        assert_ne!(fnv64_hex(b"a"), fnv64_hex(b"b"));
        assert_eq!(fnv64_hex(b"mimd").len(), 16);
    }

    #[test]
    fn unstamped_report_has_no_environment() {
        let report = BenchReport::new("quick", "f", vec![]);
        assert_eq!(report.created_unix, None);
        assert_eq!(report.git, GitMeta::default());
    }
}
