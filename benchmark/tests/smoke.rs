//! The whole suite at smoke size: every workload, untraced and traced,
//! must exit 0, emit every metric name, and finish in well under the
//! time a full run takes.

use std::process::Command;
use std::time::Instant;

/// Every metric name the suite must print, read from `BENCHMARK.json`
/// so this test also fails when the file and the output disagree.
fn metric_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .to_vec()
        })
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_suite_emits_every_metric() {
    // A short relative out-dir under the test's own scratch directory:
    // the serve_small socket path must stay under the 108-byte limit.
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&scratch).unwrap();
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_mimd-benchmark"))
        .args(["--smoke", "--seed", "3", "--out-dir", "out"])
        .current_dir(&scratch)
        .output()
        .expect("the benchmark binary runs");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{stderr}",
        output.status
    );
    assert!(elapsed.as_secs() < 20, "smoke took {elapsed:?}");

    let workloads = [
        "flat_batch",
        "vcycle_scale",
        "topo_cold",
        "replay_churn",
        "serve_small",
    ];
    let names = metric_names();
    assert!(names.len() > 70);
    for workload in workloads {
        for name in names.iter().map(String::as_str).chain(["failed_share"]) {
            let found = stdout
                .lines()
                .any(|l| l.starts_with(workload) && l.split_whitespace().nth(1) == Some(name));
            assert!(found, "{workload} did not print {name}\n{stdout}");
        }
        assert!(scratch.join(format!("out/trace-{workload}.jsonl")).exists());
    }
    let results = std::fs::read_to_string(scratch.join("out/results.json")).unwrap();
    let results = serde_json::parse_value(&results).expect("results.json parses");
    assert_eq!(results.get("correct"), Some(&serde_json::Value::Bool(true)));
    assert_eq!(results.get("smoke"), Some(&serde_json::Value::Bool(true)));
}
