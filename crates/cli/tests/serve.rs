//! End-to-end `mimd serve` acceptance: a 64-node-torus churn trace
//! piped through the real binary produces per-event JSONL records
//! byte-identical to `mimd replay` on the same trace.

use std::io::Write;
use std::process::{Command, Stdio};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_online::{write_trace, DynamicWorkload, TraceHeader};
use mimd_service::{trace_requests, Response};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator, TraceEvent};
use mimd_topology::TopologySpec;

fn torus_trace(seed: u64, events: usize) -> (TraceHeader, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 128,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, 64, &mut rng).unwrap();
    let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
    let trace = churn_trace(&base, events, ChurnRegime::Mixed, &mut rng);
    let header = TraceHeader {
        topology: TopologySpec::Torus { rows: 8, cols: 8 },
        topology_seed: None,
        snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
    };
    (header, trace)
}

/// Run the `mimd` binary with `args`, feeding `stdin`, returning stdout.
fn run_mimd(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("mimd binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "mimd {args:?} failed");
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn stats_interval_emits_periodic_stderr_lines() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(["serve", "--stats-interval", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mimd binary spawns");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"op\":\"catalog\"}\n").unwrap();
    stdin.flush().unwrap();
    // Hold stdin open across two emitter periods, then EOF.
    std::thread::sleep(std::time::Duration::from_millis(2300));
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());

    let stderr = String::from_utf8(output.stderr).unwrap();
    let snapshots: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("stats uptime_s="))
        .collect();
    assert!(snapshots.len() >= 2, "want >=2 snapshots in:\n{stderr}");
    assert!(
        snapshots.iter().all(|l| l.contains("requests_served=1")),
        "{stderr}"
    );

    // stdout stays pure protocol: exactly one parseable response.
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<Response> = stdout
        .lines()
        .map(|line| Response::from_json_line(line).unwrap_or_else(|e| panic!("{line}: {e}")))
        .collect();
    assert_eq!(responses.len(), 1, "{stdout}");
}

/// `mimd serve --listen <socket> --shards 4 <extra>` driven by
/// `mimd loadgen` (16 sessions × (open + 3 events + close) over 4
/// connections), then drained by closing the server's stdin. Returns
/// the loadgen report and the server's stdout and stderr.
fn listen_serve_under_loadgen(
    tag: &str,
    extra: &[&str],
) -> (mimd_server::LoadReport, String, String) {
    let socket = std::env::temp_dir().join(format!("mimd-cli-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut server = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args([
            "serve",
            "--listen",
            socket.to_str().unwrap(),
            "--shards",
            "4",
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mimd binary spawns");
    // The socket file appearing is the bind signal.
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "server never bound {}", socket.display());

    let loadgen = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args([
            "loadgen",
            "--connect",
            socket.to_str().unwrap(),
            "--sessions",
            "16",
            "--connections",
            "4",
            "--events",
            "3",
            "--json",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("loadgen spawns");
    let loadgen_err = String::from_utf8(loadgen.stderr).unwrap();
    assert!(loadgen.status.success(), "loadgen failed:\n{loadgen_err}");
    assert!(loadgen_err.contains("req/s="), "{loadgen_err}");
    let report: mimd_server::LoadReport =
        serde_json::from_str(String::from_utf8(loadgen.stdout).unwrap().trim()).unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(report.sessions_closed, 16);
    // open + 3 events + close, per session.
    assert_eq!(report.responses, 16 * 5);
    assert!(report.requests_per_sec > 0.0);

    // EOF on the server's stdin is the drain signal.
    drop(server.stdin.take());
    let output = server.wait_with_output().unwrap();
    assert!(output.status.success());
    assert!(!socket.exists(), "drain removes the socket file");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("listening on"), "{stderr}");
    assert!(
        stderr.contains("serve: drained; 80 requests (0 rejected, 0 malformed) over 4 connections"),
        "{stderr}"
    );
    (report, String::from_utf8(output.stdout).unwrap(), stderr)
}

#[test]
fn listen_serve_with_loadgen_drains_cleanly() {
    let (_, stdout, stderr) = listen_serve_under_loadgen("listen", &[]);
    assert!(stdout.is_empty(), "socket mode answers on the sockets");
    // No threshold: the shard workers never read the clock.
    assert!(!stderr.contains("slow_request"), "{stderr}");
}

#[test]
fn listen_serve_reports_slow_requests_per_handled_request() {
    let (report, stdout, stderr) = listen_serve_under_loadgen("slow", &["--slow-ms", "0"]);
    // Diagnostics are stderr only: what clients and stdout see is what
    // they see without the flag.
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(report.responses, 80);

    // A 0 ms threshold flags every handled request, once.
    let slow: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("slow_request "))
        .collect();
    assert_eq!(slow.len(), 80, "{stderr}");
    for (op, per_session) in [("open_session", 1), ("apply", 3), ("close_session", 1)] {
        for session in 1..=16 {
            let prefix = format!("slow_request op={op} session={session} ms=");
            let seen = slow.iter().filter(|l| l.starts_with(&prefix)).count();
            assert_eq!(seen, per_session, "{prefix} in:\n{stderr}");
        }
    }

    // The final stats count the same 80.
    let drained = stderr
        .lines()
        .find(|line| line.starts_with("serve: drained;"))
        .unwrap();
    let stats: mimd_service::ServiceStats =
        serde_json::from_str(&drained[drained.find('{').unwrap()..]).unwrap();
    assert_eq!(stats.telemetry.counter("serve.slow_requests"), 80);
    assert_eq!(stats.requests_served, 80);
}

#[test]
fn served_trace_is_byte_identical_to_replay() {
    let seed = 7;
    let (header, events) = torus_trace(1991, 60);

    // `mimd replay` over the trace file format on stdin.
    let mut trace_file = Vec::new();
    write_trace(&mut trace_file, &header, &events).unwrap();
    let replayed = run_mimd(
        &["replay", "--trace", "-", "--seed", &seed.to_string()],
        &String::from_utf8(trace_file).unwrap(),
    );
    let replayed: Vec<&str> = replayed.lines().collect();
    assert_eq!(replayed.len(), events.len() + 1, "init + one per event");

    // `mimd serve` over the same trace converted to protocol requests
    // (fresh service: the first session id is 1).
    let requests: String = trace_requests(&header, &events, seed, None, 1)
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    let served = run_mimd(&["serve"], &requests);
    let records: Vec<String> = served
        .lines()
        .map(|line| Response::from_json_line(line).unwrap_or_else(|e| panic!("{line}: {e}")))
        .filter_map(|response| response.record().map(|r| r.to_json_line()))
        .collect();

    assert_eq!(records, replayed, "served records must equal replay bytes");
}
