//! `serve_small`: an in-process `Server` on a Unix socket and the
//! benchmark's own closed-loop client. Each connection thread keeps up
//! to eight sessions in flight with one request outstanding per
//! session; a session is `open_session`, one `map_once`, every
//! `apply`, `close_session`. Latency runs from just before a request
//! line is written to the arrival of its matching response line and is
//! kept as exact samples (not `run_loadgen`, whose histogram quantizes
//! to powers of two).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::inputs::{self, apply_line, close_line, SessionInput};
use crate::layers::{self, MappingService, ServerHandle, ServerSummary};
use crate::procstat::cpu_seconds;
use crate::sessions::{
    check_against_replay, check_session, drive_inproc, session_layer_values, stepwise_session,
    SessionSteps,
};
use crate::spans::Tracer;
use crate::stats::{sample_indices, tail, Fnv};
use crate::workload::{
    nproc, Counters, Kind, LayerValues, Rep, RunContext, Verification, Workload,
};

/// Sessions one connection keeps in flight.
const IN_FLIGHT: usize = 8;
/// Sessions per rep whose full response stream is kept and later
/// compared with `MappingService::replay`.
const REPLAYED: usize = 12;

/// Connection threads: `min(nproc, 4)`, stated with every result.
pub fn connections() -> usize {
    nproc().min(4)
}

/// What the client saw of one session.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// Digest of the response lines with the session id blanked, so it
    /// repeats across reps although ids do not.
    pub digest: u64,
    /// Responses received (complete = events + 3).
    pub responses: usize,
    /// `applied` responses whose assignment was not a bijection.
    pub bad_assignments: usize,
    /// The raw lines, kept only for the sampled sessions.
    pub lines: Option<Vec<String>>,
}

/// The head of a response line, read without building a value tree.
#[derive(Debug, PartialEq, Eq)]
enum Head<'a> {
    Opened(u64),
    Applied(u64),
    Closed(u64),
    /// `map_result` whose job id is `m<index>`.
    Mapped(usize),
    /// An error response, or anything unexpected.
    Other(&'a str),
}

/// Read `"key":<digits>` after `at`.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    line[start..start + digits].parse().ok()
}

fn head(line: &str) -> Head<'_> {
    let Some(rest) = line.strip_prefix("{\"kind\":\"") else {
        return Head::Other(line);
    };
    let kind = &rest[..rest.find('"').unwrap_or(0)];
    let session = || number_after(line, "\"session\":");
    match kind {
        "applied" => session().map_or(Head::Other(line), Head::Applied),
        "session_opened" => session().map_or(Head::Other(line), Head::Opened),
        "session_closed" => session().map_or(Head::Other(line), Head::Closed),
        "map_result" => {
            number_after(line, "\"id\":\"m").map_or(Head::Other(line), |k| Head::Mapped(k as usize))
        }
        _ => Head::Other(line),
    }
}

/// Fold a response line into a session digest, skipping the digits of
/// its `"session":<id>` member.
fn fold_line(digest: &mut Fnv, line: &str) {
    match line.find("\"session\":") {
        Some(at) => {
            let start = at + "\"session\":".len();
            let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
            digest.bytes(&line.as_bytes()[..start]);
            digest.bytes(&line.as_bytes()[start + digits..]);
        }
        None => digest.bytes(line.as_bytes()),
    }
}

/// `true` iff the line's `"assignment":[…]` member is a bijection on
/// `0..len` (machines of at most 64 processors, which is all this
/// workload opens sessions on).
fn assignment_is_bijection(line: &str) -> bool {
    let Some(at) = line.find("\"assignment\":[") else {
        return false;
    };
    let body = &line[at + "\"assignment\":[".len()..];
    let Some(end) = body.find(']') else {
        return false;
    };
    let (mut seen, mut count) = (0u64, 0u32);
    for item in body[..end].split(',') {
        match item.parse::<u32>() {
            Ok(s) if s < 64 && seen & (1 << s) == 0 => seen |= 1 << s,
            _ => return false,
        }
        count += 1;
    }
    seen == (1u64 << count) - 1
}

/// A session in flight on a connection.
struct Flight {
    index: usize,
    id: u64,
    /// Events applied so far; `events.len()` once the close is out.
    next_event: usize,
    sent: Instant,
    digest: Fnv,
    responses: usize,
    bad_assignments: usize,
    lines: Option<Vec<String>>,
}

/// What one connection thread measured.
#[derive(Default)]
struct ConnOutcome {
    op_ms: Vec<f64>,
    open_ms: Vec<f64>,
    /// `(session index, outcome)` of every session this connection drove.
    sessions: Vec<(usize, SessionOutcome)>,
    /// Requests written.
    sent: usize,
    /// Round trips of the sampled sessions, for the trace file.
    spans: Vec<(u64, Instant, Instant)>,
    /// The error that ended the connection early, if any.
    error: Option<String>,
}

/// Drive `mine` (indices into `sessions`) over one connection. Only
/// one `open_session` is outstanding per connection at a time, so the
/// `session_opened` that arrives is that one's; everything after is
/// matched by session id (or job id for `map_once`).
fn drive_connection(
    socket: &Path,
    sessions: &[SessionInput],
    mine: &[usize],
    keep: &[usize],
) -> ConnOutcome {
    let mut outcome = ConnOutcome::default();
    if let Err(error) = drive(socket, sessions, mine, keep, &mut outcome) {
        outcome.error = Some(error);
    }
    outcome
}

fn drive(
    socket: &Path,
    sessions: &[SessionInput],
    mine: &[usize],
    keep: &[usize],
    outcome: &mut ConnOutcome,
) -> Result<(), String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str, buffer: &mut Vec<u8>| -> Result<Instant, String> {
        buffer.clear();
        buffer.extend_from_slice(line.as_bytes());
        buffer.push(b'\n');
        let sent = Instant::now();
        writer
            .write_all(buffer)
            .map_err(|e| format!("write: {e}"))?;
        Ok(sent)
    };

    let mut buffer = Vec::with_capacity(4096);
    let mut queue: VecDeque<usize> = mine.iter().copied().collect();
    // Sessions waiting to send their open (at most one is outstanding).
    let mut opening: Option<Flight> = None;
    let mut by_id: HashMap<u64, Flight> = HashMap::new();
    let mut by_job: HashMap<usize, Flight> = HashMap::new();
    let mut line = String::new();

    loop {
        // Start sessions while there is room and no open outstanding.
        if opening.is_none() && by_id.len() + by_job.len() < IN_FLIGHT {
            if let Some(index) = queue.pop_front() {
                let sent = send(&sessions[index].open_line, &mut buffer)?;
                outcome.sent += 1;
                opening = Some(Flight {
                    index,
                    id: 0,
                    next_event: 0,
                    sent,
                    digest: Fnv::default(),
                    responses: 0,
                    bad_assignments: 0,
                    lines: keep.contains(&index).then(Vec::new),
                });
            }
        }
        if opening.is_none() && by_id.is_empty() && by_job.is_empty() {
            return Ok(());
        }

        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("server closed the connection mid-run".into());
        }
        let arrived = Instant::now();
        let text = line.trim_end();
        let kind = head(text);
        let mut flight = match kind {
            Head::Opened(id) => {
                let mut flight = opening
                    .take()
                    .ok_or("session_opened with no open outstanding")?;
                flight.id = id;
                flight
            }
            Head::Mapped(index) => by_job
                .remove(&index)
                .ok_or("map_result for an unknown job")?,
            Head::Applied(id) | Head::Closed(id) => {
                by_id.remove(&id).ok_or("response for an unknown session")?
            }
            Head::Other(text) => return Err(format!("unexpected response: {text}")),
        };
        let is_open = matches!(kind, Head::Opened(_));
        let ms = (arrived - flight.sent).as_secs_f64() * 1e3;
        if is_open {
            outcome.open_ms.push(ms);
        } else {
            outcome.op_ms.push(ms);
        }
        fold_line(&mut flight.digest, text);
        flight.responses += 1;
        if matches!(kind, Head::Applied(_)) && !assignment_is_bijection(text) {
            flight.bad_assignments += 1;
        }
        if let Some(lines) = &mut flight.lines {
            lines.push(text.to_string());
            outcome
                .spans
                .push((flight.index as u64, flight.sent, arrived));
        }

        let input = &sessions[flight.index];
        if matches!(kind, Head::Closed(_)) {
            outcome.sessions.push((
                flight.index,
                SessionOutcome {
                    digest: flight.digest.0,
                    responses: flight.responses,
                    bad_assignments: flight.bad_assignments,
                    lines: flight.lines,
                },
            ));
            continue;
        }
        // The session's next request: map_once right after the open,
        // then every apply, then the close.
        if is_open {
            let request = input
                .map_once_line
                .as_deref()
                .ok_or("serve sessions carry a map_once")?;
            flight.sent = send(request, &mut buffer)?;
            outcome.sent += 1;
            by_job.insert(flight.index, flight);
            continue;
        }
        let request = match input.event_json.get(flight.next_event) {
            Some(event) => apply_line(flight.id, event),
            None => close_line(flight.id),
        };
        flight.next_event += 1;
        flight.sent = send(&request, &mut buffer)?;
        outcome.sent += 1;
        by_id.insert(flight.id, flight);
    }
}

/// What one pass of the socket client over all sessions measured.
pub struct SocketRun {
    wall_s: f64,
    cpu_s: f64,
    op_ms: Vec<f64>,
    open_ms: Vec<f64>,
    /// One outcome per session, `None` where the session never closed.
    sessions: Vec<Option<SessionOutcome>>,
    sent: usize,
    spans: Vec<(u64, Instant, Instant)>,
    errors: Vec<String>,
    /// The served service's counters right after the pass.
    counters: Option<Counters>,
}

/// Run every session through the socket: session `k` belongs to
/// connection `k % connections`.
fn drive_socket(socket: &Path, sessions: &[SessionInput], keep: &[usize]) -> SocketRun {
    let connections = connections();
    let cpu_start = cpu_seconds();
    let started = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<usize> = (c..sessions.len()).step_by(connections).collect();
                scope.spawn(move || drive_connection(socket, sessions, &mine, keep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnOutcome {
                    error: Some("client thread panicked".into()),
                    ..ConnOutcome::default()
                })
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_start;
    let mut run = SocketRun {
        wall_s,
        cpu_s,
        op_ms: Vec::new(),
        open_ms: Vec::new(),
        sessions: vec![None; sessions.len()],
        sent: 0,
        spans: Vec::new(),
        errors: Vec::new(),
        counters: None,
    };
    for outcome in outcomes {
        run.op_ms.extend(outcome.op_ms);
        run.open_ms.extend(outcome.open_ms);
        run.sent += outcome.sent;
        run.spans.extend(outcome.spans);
        run.errors.extend(outcome.error);
        for (index, session) in outcome.sessions {
            run.sessions[index] = Some(session);
        }
    }
    run
}

/// `serve_small` after set-up.
pub struct ServeWorkload {
    sessions: Vec<SessionInput>,
    service: Arc<MappingService>,
    server: Option<ServerHandle>,
    socket: PathBuf,
    /// Seconds `Server::bind` took during set-up.
    bind_s: f64,
    /// Sessions whose lines are kept and replayed, fixed by the seed.
    keep: Vec<usize>,
}

impl ServeWorkload {
    /// Stop the server and report how long the drain took.
    fn stop(&mut self) -> Result<(ServerSummary, f64), String> {
        let handle = self.server.take().ok_or("server already stopped")?;
        let started = Instant::now();
        let summary = layers::server_stop(handle)?;
        Ok((summary, started.elapsed().as_secs_f64()))
    }
}

impl Drop for ServeWorkload {
    fn drop(&mut self) {
        if let Some(handle) = self.server.take() {
            let _ = layers::server_stop(handle);
        }
    }
}

impl Workload for ServeWorkload {
    type Outputs = SocketRun;

    fn setup(_kind: Kind, context: &RunContext, telemetry: bool) -> Result<Self, String> {
        let sessions = inputs::serve_small(context.seed, context.scale);
        std::fs::create_dir_all(&context.out_dir)
            .map_err(|e| format!("{}: {e}", context.out_dir.display()))?;
        // One socket per set-up: a traced run has two servers alive.
        static SOCKETS: AtomicUsize = AtomicUsize::new(0);
        let socket = context.out_dir.join(format!(
            "serve-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        ));
        let service = layers::service_new(0, telemetry);
        let bind_started = Instant::now();
        let server = layers::server_bind(Arc::clone(&service), &socket, nproc())?;
        let bind_s = bind_started.elapsed().as_secs_f64();
        let server = layers::server_spawn(server);
        let keep = sample_indices(sessions.len(), REPLAYED);
        let workload = ServeWorkload {
            sessions,
            service,
            server: Some(server),
            socket,
            bind_s,
            keep,
        };
        // Warm-up: one connection's worth of sessions over the socket.
        let warm = &workload.sessions[..(2 * IN_FLIGHT).min(workload.sessions.len())];
        let run = drive_socket(&workload.socket, warm, &[]);
        match run.errors.first() {
            Some(error) => Err(format!("warm-up failed: {error}")),
            None => Ok(workload),
        }
    }

    fn rep(&mut self, _tracer: Option<&mut Tracer>) -> Result<(Rep, SocketRun), String> {
        let mut run = drive_socket(&self.socket, &self.sessions, &self.keep);
        run.counters = Some(Counters::of(&self.service));
        let expected: usize = self.sessions.iter().map(|s| s.events.len() + 3).sum();
        let answered = run.op_ms.len() + run.open_ms.len();
        let mut digest = Fnv::default();
        for outcome in run.sessions.iter().flatten() {
            digest.word(outcome.digest);
        }
        let rep = Rep {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            op_ms: run.op_ms.clone(),
            open_ms: run.open_ms.clone(),
            digest: digest.0,
            quality: self.quality(&run),
            attempted: expected,
            failed: expected - answered.min(expected),
        };
        Ok((rep, run))
    }

    fn verify(&self, outputs: &SocketRun, _tracer: Option<&mut Tracer>) -> Verification {
        let verifier = layers::service_new(1, false);
        let mut verification = Verification::default();
        for error in &outputs.errors {
            verification.check(Err(format!("connection: {error}")));
        }
        for (k, (input, outcome)) in self.sessions.iter().zip(&outputs.sessions).enumerate() {
            let outcome = match outcome {
                None => Err("never closed".to_string()),
                Some(o) if o.responses != input.events.len() + 3 => Err(format!(
                    "{} responses for {} requests",
                    o.responses,
                    input.events.len() + 3
                )),
                Some(o) if o.bad_assignments > 0 => Err(format!(
                    "{} assignments are not bijections",
                    o.bad_assignments
                )),
                Some(o) => match &o.lines {
                    // The seeded sample: full shape check, then the
                    // served stream against MappingService::replay.
                    Some(lines) => check_session(input, lines)
                        .and_then(|stream| check_against_replay(&verifier, input, &stream)),
                    None => Ok(()),
                },
            };
            verification.check(outcome.map_err(|e| format!("session {k}: {e}")));
        }
        verification
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        traced: &(Rep, SocketRun),
        reference_ops_per_s: f64,
    ) -> Result<LayerValues, String> {
        let (rep, run) = traced;
        for &(op, sent, arrived) in &run.spans {
            tracer.record("server.roundtrip", op, sent, arrived);
        }
        let mut values = LayerValues::new();
        let mean_us = |ms: &[f64]| ms.iter().sum::<f64>() * 1e3 / ms.len().max(1) as f64;
        values.insert("server.roundtrip_us", mean_us(&rep.op_ms));
        let mut sorted = rep.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        values.insert("server.roundtrip_p99_us", tail(&sorted, 0.99).value * 1e3);

        // The same request stream on one thread, no socket: a sample of
        // the sessions through parse -> handle -> serialize.
        let probe_service = layers::service_new(0, false);
        let sample: Vec<&SessionInput> =
            sample_indices(self.sessions.len(), (self.sessions.len() / 10).max(1))
                .into_iter()
                .map(|k| &self.sessions[k])
                .collect();
        drive_inproc(&probe_service, &sample[..1], 1, None);
        let probe = drive_inproc(&probe_service, &sample, 2, Some(tracer));
        let inproc_per_s = probe.requests() as f64 / probe.wall_s;
        values.insert("service.inproc_req_per_s", inproc_per_s);
        let ops = probe.apply_ms.len() + probe.other_ms.len();
        values.insert(
            "service.request_bytes",
            probe.request_bytes as f64 / ops.max(1) as f64,
        );
        values.insert(
            "service.response_bytes",
            probe.response_bytes as f64 / ops.max(1) as f64,
        );
        // shards = nproc, so min(shards, nproc) is nproc.
        values.insert(
            "server.overhead_share",
            1.0 - reference_ops_per_s / (inproc_per_s * nproc() as f64),
        );

        // Stepwise: two of the kept sessions through the online layer.
        let mut steps = SessionSteps::default();
        for &k in self.keep.iter().take(2) {
            let lines = run.sessions[k]
                .as_ref()
                .and_then(|o| o.lines.as_ref())
                .ok_or("a kept session has no lines")?;
            let id = check_session(&self.sessions[k], lines)?.id;
            steps.events += stepwise_session(
                tracer,
                &probe_service,
                &self.sessions[k],
                id,
                lines,
                k as u64,
            )?
            .events;
        }
        let counters = run
            .counters
            .as_ref()
            .ok_or("a rep always reads the counters")?;
        session_layer_values(tracer, counters, &steps, &mut values);

        let (summary, drain_s) = self.stop()?;
        values.insert("server.requests", summary.requests as f64);
        values.insert("server.rejected", summary.rejected as f64);
        values.insert("server.bind_s", self.bind_s);
        values.insert("server.drain_s", drain_s);
        Ok(values)
    }
}

impl ServeWorkload {
    /// `percent_over_lower_bound` of every mapping in the kept
    /// sessions' streams (the unkept ones are only digested).
    fn quality(&self, run: &SocketRun) -> Vec<f64> {
        let mut quality = Vec::new();
        for &k in &self.keep {
            let Some(lines) = run.sessions[k].as_ref().and_then(|o| o.lines.as_ref()) else {
                continue;
            };
            if let Ok(stream) = check_session(&self.sessions[k], lines) {
                quality.extend(
                    stream
                        .records
                        .iter()
                        .map(|(r, _)| r.percent_over_lower_bound),
                );
            }
        }
        quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_are_read_without_parsing() {
        assert_eq!(
            head(r#"{"kind":"applied","session":12,"record":{"index":3},"assignment":[1,0]}"#),
            Head::Applied(12)
        );
        assert_eq!(
            head(r#"{"kind":"session_opened","session":7,"record":{}}"#),
            Head::Opened(7)
        );
        assert_eq!(
            head(r#"{"kind":"session_closed","session":7,"events":200}"#),
            Head::Closed(7)
        );
        assert_eq!(
            head(r#"{"kind":"map_result","result":{"id":"m41","index":0}}"#),
            Head::Mapped(41)
        );
        let error = r#"{"kind":"error","error":{"code":"overloaded","message":"x"}}"#;
        assert_eq!(head(error), Head::Other(error));
        assert_eq!(head("garbage"), Head::Other("garbage"));
    }

    #[test]
    fn assignments_are_checked_in_place() {
        let line = |a: &str| {
            format!(r#"{{"kind":"applied","session":1,"record":{{}},"assignment":[{a}]}}"#)
        };
        assert!(assignment_is_bijection(&line("2,0,1,3")));
        assert!(assignment_is_bijection(&line("0")));
        assert!(!assignment_is_bijection(&line("0,0,1")));
        assert!(!assignment_is_bijection(&line("0,1,3")));
        assert!(!assignment_is_bijection(&line("")));
        assert!(!assignment_is_bijection(
            r#"{"kind":"applied","session":1}"#
        ));
    }

    #[test]
    fn digests_ignore_the_session_id_only() {
        let digest = |line: &str| {
            let mut d = Fnv::default();
            fold_line(&mut d, line);
            d.0
        };
        let a = r#"{"kind":"applied","session":12,"record":{"index":3}}"#;
        let b = r#"{"kind":"applied","session":977,"record":{"index":3}}"#;
        let c = r#"{"kind":"applied","session":12,"record":{"index":4}}"#;
        assert_eq!(digest(a), digest(b));
        assert_ne!(digest(a), digest(c));
    }
}
