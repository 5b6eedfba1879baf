//! The concurrent server must be observationally identical to the
//! stdin serve loop, per session: same responses for a single
//! connection, same per-session records under sharded interleaving,
//! and byte-identical to `replay` for every session's record stream.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_online::{DynamicWorkload, TraceEvent, TraceHeader};
use mimd_server::{ListenAddr, LoadgenConfig, Server, ServerConfig, ServerSummary};
use mimd_service::{
    serve_jsonl, trace_requests, MappingService, Response, ServiceConfig, ServiceStats,
    SessionConfig, MAX_LINE_BYTES,
};
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::TopologySpec;

/// A small deterministic trace: 64 tasks on a torus, `events` mixed
/// churn events.
fn small_trace(events: usize, seed: u64) -> (TraceHeader, Vec<TraceEvent>) {
    let topology = TopologySpec::Torus { rows: 4, cols: 4 };
    let mut rng = StdRng::seed_from_u64(seed);
    let system = topology.build(&mut rng).unwrap();
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: 64,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, system.len(), &mut rng).unwrap();
    let base = ClusteredProblemGraph::new(problem, clustering).unwrap();
    let trace = churn_trace(&base, events, ChurnRegime::Mixed, &mut rng);
    let header = TraceHeader {
        topology,
        topology_seed: Some(seed),
        snapshot: DynamicWorkload::from_clustered(&base).snapshot(),
    };
    (header, trace)
}

/// The record stream `mimd replay` emits for this trace, serialized.
fn replay_records(header: &TraceHeader, events: &[TraceEvent], seed: u64) -> Vec<String> {
    let service = MappingService::default();
    let mut records = Vec::new();
    service
        .replay(
            header,
            events,
            &SessionConfig::default().resolve(),
            seed,
            |record| records.push(serde_json::to_string(record).unwrap()),
        )
        .unwrap();
    records
}

fn unique_socket(tag: &str) -> ListenAddr {
    ListenAddr::Unix(
        std::env::temp_dir().join(format!("mimd-eq-{tag}-{}.sock", std::process::id())),
    )
}

/// Drive raw lines over one connection, reading one response line per
/// request (closed loop). Blank and `#`-comment lines are framing, not
/// requests: nothing comes back for them.
fn roundtrip<L: AsRef<[u8]>>(addr: &ListenAddr, lines: &[L]) -> Vec<String> {
    let stream = addr.connect().unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        let line = line.as_ref();
        writer.write_all(line).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let text = String::from_utf8_lossy(line);
        if text.trim().is_empty() || text.trim().starts_with('#') {
            continue;
        }
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        responses.push(response.trim_end().to_string());
    }
    responses
}

/// Serve `lines` through the stdin loop and through a 4-shard socket
/// server, each on a fresh telemetry-enabled service, and assert the
/// two agree: responses line for line, error and malformed-line
/// counters, per-connection summary. Returns what both said.
fn serve_both_ways(tag: &str, lines: &[Vec<u8>]) -> (Vec<String>, ServiceStats, ServerSummary) {
    let telemetry = ServiceConfig {
        telemetry: true,
        ..ServiceConfig::default()
    };

    // (a) the stdin loop.
    let stdin_service = MappingService::new(telemetry.clone());
    let input = [lines.join(&b'\n'), b"\n".to_vec()].concat();
    let mut output = Vec::new();
    let stdin_summary = serve_jsonl(
        &stdin_service,
        &input[..],
        &mut output,
        std::io::sink(),
        None,
    )
    .unwrap();
    let stdin_lines: Vec<String> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();

    // (b) the socket server, sharded.
    let socket_service = Arc::new(MappingService::new(telemetry));
    let addr = unique_socket(tag);
    let config = ServerConfig {
        shards: 4,
        queue_depth: 64,
        ..ServerConfig::default()
    };
    let handle = Server::bind(Arc::clone(&socket_service), &addr, config)
        .unwrap()
        .spawn();
    let socket_lines = roundtrip(&addr, lines);
    let summary = handle.stop().unwrap();

    assert_eq!(socket_lines, stdin_lines, "socket must match stdin serve");
    let (stdin_stats, stats) = (stdin_service.stats(), socket_service.stats());
    assert_eq!(stats.errors, stdin_stats.errors);
    assert_eq!(stats.requests_served, stdin_stats.requests_served);
    assert_eq!(
        stats.telemetry.counter("serve.malformed_lines"),
        stdin_stats.telemetry.counter("serve.malformed_lines")
    );
    assert_eq!(summary.per_connection, vec![stdin_summary]);
    assert_eq!(summary.requests, stdin_summary.requests);
    (socket_lines, stats, summary)
}

#[test]
fn socket_serve_matches_stdin_serve_and_replay() {
    let seed = 7;
    let (header, events) = small_trace(6, seed);
    let requests = trace_requests(&header, &events, seed, None, 1);
    let lines: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| r.to_json_line().into_bytes())
        .collect();

    let (responses, _, summary) = serve_both_ways("stdin", &lines);
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, lines.len() as u64);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.malformed_lines(), 0);

    // The session's records must be replay's bytes.
    let expected = replay_records(&header, &events, seed);
    let records: Vec<String> = responses
        .iter()
        .filter_map(|line| {
            Response::from_json_line(line)
                .unwrap()
                .record()
                .map(|r| serde_json::to_string(r).unwrap())
        })
        .collect();
    assert_eq!(records, expected, "served records must equal replay bytes");

    // The same trace with framing noise and four kinds of bad line
    // around it: both modes run one framing function, so they answer
    // the same bytes (down to the `line N:` in each error) and count
    // the same things. The line over the read cap is dropped unread,
    // and the session's close right after it is still served.
    let (open, rest) = lines.split_first().unwrap();
    let (close, applies) = rest.split_last().unwrap();
    let mut mixed: Vec<Vec<u8>> = vec![b"".to_vec(), b"# a comment".to_vec(), b"{oops".to_vec()];
    mixed.extend([open.clone(), b"\xff\xfe not utf-8".to_vec()]);
    mixed.extend_from_slice(applies);
    mixed.extend([
        b"{\"op\":\"no_such_op\"}".to_vec(),
        b"   ".to_vec(),
        vec![b'{'; MAX_LINE_BYTES + 1],
        close.clone(),
    ]);
    let bad = 4;

    let (responses, stats, summary) = serve_both_ways("mixed", &mixed);
    assert_eq!(responses.len(), lines.len() + bad);
    let errors: Vec<&String> = responses
        .iter()
        .filter(|line| Response::from_json_line(line).unwrap().is_error())
        .collect();
    assert_eq!(errors.len(), bad);
    assert!(errors[0].contains("line 3: "), "{}", errors[0]);
    assert!(errors[1].contains("line 5: invalid utf-8"), "{}", errors[1]);
    assert!(errors[3].contains("\"too_large\""), "{}", errors[3]);
    assert_eq!(stats.errors.bad_request, bad - 1);
    assert_eq!(stats.errors.too_large, 1);
    assert_eq!(stats.errors.total(), bad);
    assert_eq!(stats.telemetry.counter("serve.malformed_lines"), bad as u64);
    assert_eq!(summary.malformed_lines(), bad as u64);
}

#[test]
fn interleaved_sharded_sessions_stay_fifo_and_replay_identical() {
    let seed = 11;
    let (header, events) = small_trace(5, seed);
    let expected = replay_records(&header, &events, seed);

    let addr = unique_socket("interleave");
    let server = Server::bind(
        Arc::new(MappingService::default()),
        &addr,
        ServerConfig {
            shards: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();

    // Two connections, two sessions each, all with the same seed so
    // every session must produce the same record stream no matter how
    // the shards interleave.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let header = header.clone();
            let events = events.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = addr.connect().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                // Pipeline both opens, then interleave applies as the
                // responses come back — the reply order across the two
                // sessions is up to the shards.
                for _ in 0..2 {
                    let open = mimd_service::Request::OpenSession {
                        header: header.clone(),
                        seed,
                        config: None,
                    };
                    writeln!(writer, "{}", open.to_json_line()).unwrap();
                }
                writer.flush().unwrap();
                let mut per_session: std::collections::BTreeMap<u64, Vec<String>> =
                    Default::default();
                let mut applied: std::collections::BTreeMap<u64, usize> = Default::default();
                let mut closed = 0;
                while closed < 2 {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
                    let response = Response::from_json_line(line.trim_end()).unwrap();
                    match &response {
                        Response::SessionOpened { session, .. }
                        | Response::Applied { session, .. } => {
                            per_session
                                .entry(*session)
                                .or_default()
                                .push(serde_json::to_string(response.record().unwrap()).unwrap());
                            let done = applied.entry(*session).or_insert(0);
                            let next = if *done < events.len() {
                                let event = events[*done].clone();
                                *done += 1;
                                mimd_service::Request::Apply {
                                    session: *session,
                                    event,
                                }
                            } else {
                                mimd_service::Request::CloseSession { session: *session }
                            };
                            writeln!(writer, "{}", next.to_json_line()).unwrap();
                            writer.flush().unwrap();
                        }
                        Response::SessionClosed { .. } => closed += 1,
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                assert_eq!(per_session.len(), 2, "two sessions on this connection");
                for (session, records) in per_session {
                    // FIFO per session: records arrive in event order,
                    // so the stream equals replay byte-for-byte.
                    assert_eq!(records, expected, "session {session} diverged");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let summary = handle.stop().unwrap();
    assert_eq!(summary.connections, 2);
    // 4 sessions × (open + events + close) request lines.
    assert_eq!(summary.requests, 4 * (events.len() as u64 + 2));
    assert_eq!(summary.rejected, 0);
}

#[test]
fn loadgen_drives_concurrent_sessions_over_tcp() {
    let seed = 3;
    let (header, events) = small_trace(3, seed);
    let addr = ListenAddr::parse("127.0.0.1:0").unwrap();
    let server = Server::bind(
        Arc::new(MappingService::default()),
        &addr,
        ServerConfig {
            shards: 2,
            queue_depth: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let bound = ListenAddr::parse(handle.addr()).unwrap();

    let report = mimd_server::run_loadgen(
        &bound,
        &LoadgenConfig {
            sessions: 16,
            connections: 4,
            header,
            events,
            seed,
            rate: None,
        },
    )
    .unwrap();
    let summary = handle.stop().unwrap();

    let expected_requests = 16 * (3 + 2) as u64;
    assert_eq!(report.errors, 0);
    assert_eq!(report.sessions_closed, 16);
    assert_eq!(report.requests, expected_requests);
    assert_eq!(report.responses, expected_requests);
    assert_eq!(report.latency.count, expected_requests);
    assert!(report.requests_per_sec > 0.0);
    assert_eq!(summary.connections, 4);
    assert_eq!(summary.requests, expected_requests);
    assert_eq!(summary.rejected, 0);
}

#[test]
fn malformed_lines_are_accounted_per_connection() {
    let (header, events) = small_trace(1, 5);
    let addr = unique_socket("malformed");
    let server = Server::bind(
        Arc::new(MappingService::default()),
        &addr,
        ServerConfig::default(),
    )
    .unwrap();
    let handle = server.spawn();

    // Connection 1: a clean session. Connection 2: two garbage lines
    // (plus a comment and a blank, which are skipped, not malformed).
    let requests = trace_requests(&header, &events, 5, None, 1);
    let clean: Vec<String> = requests.iter().map(|r| r.to_json_line()).collect();
    let clean_responses = roundtrip(&addr, &clean);
    assert!(clean_responses
        .iter()
        .all(|l| !Response::from_json_line(l).unwrap().is_error()));

    let dirty = vec![
        "# comment".to_string(),
        "".to_string(),
        "not json".to_string(),
        "{\"op\":\"no_such_op\"}".to_string(),
    ];
    let stream = addr.connect().unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for line in &dirty {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    for _ in 0..2 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let response = Response::from_json_line(line.trim_end()).unwrap();
        assert!(response.is_error(), "garbage must answer an error");
    }
    drop((writer, reader));

    let summary = handle.stop().unwrap();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.malformed_lines(), 2);
    let by_conn: Vec<(u64, u64)> = summary
        .per_connection
        .iter()
        .map(|c| (c.conn, c.malformed_lines))
        .collect();
    assert_eq!(by_conn, vec![(1, 0), (2, 2)]);
}
