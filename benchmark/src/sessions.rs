//! `replay_churn`, and what it shares with `serve_small`: the
//! in-process request loop (`Request::from_json_line` →
//! `MappingService::handle` → `Response::to_json_line`, the stdin-serve
//! path without a transport), session verification, and the stepwise
//! replay of a session through the online layer.

use std::sync::Arc;
use std::time::Instant;

use crate::inputs::{self, close_line, SessionInput};
use crate::layers::{self, MappingService, ReplayRecord, Request, Response};
use crate::procstat::cpu_seconds;
use crate::spans::Tracer;
use crate::stats::{is_bijection, sample_indices, Fnv};
use crate::workload::{Counters, Kind, LayerValues, Rep, RunContext, Verification, Workload};

/// Span names of the three phases of one in-process request.
struct Phases {
    root: &'static str,
    parse: &'static str,
    handle: &'static str,
    serialize: &'static str,
}

const OP: Phases = Phases {
    root: "service.request",
    parse: "service.parse",
    handle: "service.handle",
    serialize: "service.serialize",
};
const OPEN: Phases = Phases {
    root: "service.open",
    parse: "service.open.parse",
    handle: "service.open.handle",
    serialize: "service.open.serialize",
};

/// What one pass of the in-process loop over some sessions measured.
#[derive(Default)]
pub struct InprocRun {
    /// Wall-clock seconds of the whole pass.
    pub wall_s: f64,
    /// CPU seconds of the whole pass.
    pub cpu_s: f64,
    /// Latency of every `apply`, ms.
    pub apply_ms: Vec<f64>,
    /// Latency of every `open_session`, ms.
    pub open_ms: Vec<f64>,
    /// Latency of every `map_once` and `close_session`, ms.
    pub other_ms: Vec<f64>,
    /// Response lines per session, in request order.
    pub lines: Vec<Vec<String>>,
    /// Bytes of every op request line / response line.
    pub request_bytes: usize,
    /// See `request_bytes`.
    pub response_bytes: usize,
}

impl InprocRun {
    /// Requests sent.
    pub fn requests(&self) -> usize {
        self.apply_ms.len() + self.open_ms.len() + self.other_ms.len()
    }
}

/// One request through parse → handle → serialize; the latency covers
/// all three. With a tracer, each phase is a child span.
fn roundtrip(
    service: &MappingService,
    line: &str,
    tracer: Option<&mut Tracer>,
    phases: &Phases,
    op: u64,
) -> (String, f64) {
    let started = Instant::now();
    let out = match tracer {
        None => match layers::parse_request(line) {
            Ok(request) => layers::response_line(&layers::handle(service, request)),
            Err(error) => format!("{{\"kind\":\"unparsed\",\"error\":{error:?}}}"),
        },
        Some(tracer) => tracer.span(phases.root, op, |t| {
            match t.span(phases.parse, op, |_| layers::parse_request(line)) {
                Ok(request) => {
                    let response = t.span(phases.handle, op, |_| layers::handle(service, request));
                    t.span(phases.serialize, op, |_| layers::response_line(&response))
                }
                Err(error) => format!("{{\"kind\":\"unparsed\",\"error\":{error:?}}}"),
            }
        }),
    };
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Drive `sessions` one after another, one request outstanding, on a
/// service whose next session id is `first_id`: open, the optional
/// `map_once`, every `apply`, close. Request lines are built before
/// the clock starts (ids are deterministic in process).
pub fn drive_inproc(
    service: &MappingService,
    sessions: &[&SessionInput],
    first_id: u64,
    mut tracer: Option<&mut Tracer>,
) -> InprocRun {
    let apply_lines: Vec<Vec<String>> = sessions
        .iter()
        .enumerate()
        .map(|(k, s)| {
            (0..s.events.len())
                .map(|i| s.apply_line(first_id + k as u64, i))
                .collect()
        })
        .collect();
    let mut run = InprocRun::default();
    let mut op = 0u64;
    let cpu_start = cpu_seconds();
    let started = Instant::now();
    for (k, session) in sessions.iter().enumerate() {
        let mut lines = Vec::with_capacity(session.events.len() + 3);
        let (out, ms) = roundtrip(
            service,
            &session.open_line,
            tracer.as_deref_mut(),
            &OPEN,
            k as u64,
        );
        run.open_ms.push(ms);
        lines.push(out);
        if let Some(line) = &session.map_once_line {
            let (out, ms) = roundtrip(service, line, tracer.as_deref_mut(), &OP, op);
            op += 1;
            run.request_bytes += line.len();
            run.response_bytes += out.len();
            run.other_ms.push(ms);
            lines.push(out);
        }
        for line in &apply_lines[k] {
            let (out, ms) = roundtrip(service, line, tracer.as_deref_mut(), &OP, op);
            op += 1;
            run.request_bytes += line.len();
            run.response_bytes += out.len();
            run.apply_ms.push(ms);
            lines.push(out);
        }
        let line = close_line(first_id + k as u64);
        let (out, ms) = roundtrip(service, &line, tracer.as_deref_mut(), &OP, op);
        op += 1;
        run.request_bytes += line.len();
        run.response_bytes += out.len();
        run.other_ms.push(ms);
        lines.push(out);
        run.lines.push(lines);
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run.cpu_s = cpu_seconds() - cpu_start;
    run
}

/// The responses of one session, split by what they answer.
pub struct SessionStream {
    /// The id the service gave the session.
    pub id: u64,
    /// The `session_opened` record and assignment, then one per
    /// `applied` response.
    pub records: Vec<(ReplayRecord, Vec<usize>)>,
}

/// Parse a session's response lines and check their shape: one
/// `session_opened`, an optional `map_result` (when the session sent a
/// `map_once`), one `applied` per event with no error record, one
/// `session_closed` counting every event; every assignment a
/// bijection and no total below its bound.
pub fn check_session(input: &SessionInput, lines: &[String]) -> Result<SessionStream, String> {
    let expected = input.events.len() + 2 + usize::from(input.map_once_line.is_some());
    if lines.len() != expected {
        return Err(format!("{} responses for {expected} requests", lines.len()));
    }
    let mut remaining = lines.iter();
    let mut next = || layers::parse_response(remaining.next().expect("length checked above"));
    let Response::SessionOpened {
        session: id,
        record,
        assignment,
    } = next()?
    else {
        return Err(format!("open answered with {}", lines[0]));
    };
    let mut records = vec![(record, assignment)];
    if input.map_once_line.is_some() {
        let Response::MapResult { result } = next()? else {
            return Err("map_once did not answer with a map_result".into());
        };
        if !is_bijection(&result.assignment) || result.total_time < result.lower_bound {
            return Err("map_once result is not a feasible bijection".into());
        }
    }
    for index in 0..input.events.len() {
        match next()? {
            Response::Applied {
                session,
                record,
                assignment,
            } if session == id => records.push((record, assignment)),
            other => return Err(format!("event {index} answered with {other:?}")),
        }
    }
    match next()? {
        Response::SessionClosed { session, events }
            if session == id && events == input.events.len() => {}
        other => return Err(format!("close answered with {other:?}")),
    }
    for (index, (record, assignment)) in records.iter().enumerate() {
        if let Some(error) = &record.error {
            return Err(format!("record {index} is an error record: {error}"));
        }
        if record.index != index || !is_bijection(assignment) || assignment.len() != record.ns {
            return Err(format!("record {index} carries a bad index or assignment"));
        }
        if record.total_time < record.lower_bound {
            return Err(format!("record {index}: total below the lower bound"));
        }
    }
    Ok(SessionStream { id, records })
}

/// The served record stream must equal `MappingService::replay` of the
/// same header, events and seed, and the last assignment must evaluate
/// to the last record's total on the end state of the workload.
pub fn check_against_replay(
    verifier: &MappingService,
    input: &SessionInput,
    stream: &SessionStream,
) -> Result<(), String> {
    let replayed = layers::replay(verifier, &input.header, &input.events, input.seed)?;
    let served: Vec<&ReplayRecord> = stream.records.iter().map(|(r, _)| r).collect();
    if served.len() != replayed.len() || served.iter().zip(&replayed).any(|(a, b)| *a != b) {
        return Err("served records differ from MappingService::replay".into());
    }
    let mut workload = layers::snapshot_load(&input.header)?;
    for event in &input.events {
        layers::event_apply(&mut workload, event)?;
    }
    let graph = layers::materialize(&workload)?;
    let artifacts = layers::cache_get_or_build(verifier, &input.header.topology, 0)?;
    let (last, assignment) = stream.records.last().expect("at least the open record");
    let total = layers::total_time(&layers::evaluate(
        &graph,
        &artifacts.system,
        &layers::assignment_from(assignment)?,
    )?);
    if total != last.total_time {
        return Err(format!(
            "final total {} but the assignment evaluates to {total}",
            last.total_time
        ));
    }
    Ok(())
}

/// Counts returned by [`stepwise_session`].
#[derive(Default)]
pub struct SessionSteps {
    /// Events replayed.
    pub events: usize,
}

/// Re-run one session layer by layer: parse the open line, look the
/// machine and its hierarchy up, load the snapshot, `begin`, serialize;
/// then per event parse, `OnlineSession::apply`, serialize. Every
/// response line built this way must equal the end-to-end one. A side
/// copy of the workload times `DynamicWorkload::apply` and
/// `materialize`, which the session runs inside `apply`.
pub fn stepwise_session(
    tracer: &mut Tracer,
    service: &MappingService,
    input: &SessionInput,
    id: u64,
    expected: &[String],
    op: u64,
) -> Result<SessionSteps, String> {
    // With a map_once in the stream the applies start one line later.
    let skip = 1 + usize::from(input.map_once_line.is_some());
    let mut session = tracer.span("stepwise.open", op, |t| {
        let request = t.span("step.parse", op, |_| {
            layers::parse_request(&input.open_line)
        })?;
        let Request::OpenSession { header, seed, .. } = request else {
            return Err("open line is not an open_session".to_string());
        };
        let artifacts = t.span("engine.cache_hit", op, |_| {
            layers::cache_get_or_build(service, &header.topology, header.topology_seed.unwrap_or(0))
        })?;
        let hierarchy = t.span("multilevel.system_hierarchy", op, |_| {
            layers::cache_system_hierarchy(service, &artifacts)
        })?;
        let workload = t.span("taskgraph.snapshot_load", op, |_| {
            layers::snapshot_load(&header)
        })?;
        let (session, record) = t.span("online.begin", op, |_| {
            layers::session_begin(workload, hierarchy, seed)
        })?;
        let response = Response::SessionOpened {
            session: id,
            record,
            assignment: layers::session_assignment(&session),
        };
        let line = t.span("step.serialize", op, |_| layers::response_line(&response));
        if line != expected[0] {
            return Err("stepwise open differs from the end-to-end response".to_string());
        }
        Ok(session)
    })?;
    let mut shadow = layers::snapshot_load(&input.header)?;
    for (index, event) in input.events.iter().enumerate() {
        let line = input.apply_line(id, index);
        tracer.span("stepwise.apply", op, |t| {
            let request = t.span("step.parse", op, |_| layers::parse_request(&line))?;
            let Request::Apply { event, .. } = request else {
                return Err("apply line is not an apply".to_string());
            };
            let (record, assignment) = t.span("online.apply", op, |_| {
                layers::session_apply(&mut session, &event)
            });
            let response = Response::Applied {
                session: id,
                record,
                assignment,
            };
            let out = t.span("step.serialize", op, |_| layers::response_line(&response));
            if out != expected[skip + index] {
                return Err(format!(
                    "stepwise event {index} differs from the end-to-end response"
                ));
            }
            Ok(())
        })?;
        tracer.span("taskgraph.event_apply", op, |_| {
            layers::event_apply(&mut shadow, event)
        })?;
        tracer.span("taskgraph.materialize", op, |_| {
            layers::materialize(&shadow).map(drop)
        })?;
    }
    Ok(SessionSteps {
        events: input.events.len(),
    })
}

/// Per-layer values every session workload reports from its spans and
/// from the traced service's counters.
pub fn session_layer_values(
    tracer: &Tracer,
    counters: &Counters,
    steps: &SessionSteps,
    values: &mut LayerValues,
) {
    let spans = tracer.totals();
    let seconds = |name: &str| spans.seconds(name);
    let per_call_us = |name: &str| spans.per_call_us(name);
    values.insert("service.parse_us", per_call_us("service.parse"));
    values.insert("service.handle_us", per_call_us("service.handle"));
    values.insert("service.serialize_us", per_call_us("service.serialize"));
    values.insert("engine.cache_hit_us", per_call_us("engine.cache_hit"));
    values.insert(
        "multilevel.system_hierarchy_s",
        seconds("multilevel.system_hierarchy"),
    );
    values.insert(
        "taskgraph.snapshot_load_s",
        seconds("taskgraph.snapshot_load"),
    );
    values.insert("taskgraph.materialize_s", seconds("taskgraph.materialize"));
    values.insert(
        "taskgraph.event_apply_us",
        per_call_us("taskgraph.event_apply"),
    );
    values.insert("online.begin_s", seconds("online.begin"));
    values.insert("online.apply_us", per_call_us("online.apply"));
    values.insert("trace.sampled_ops", steps.events as f64);

    let telemetry = &counters.telemetry;
    let events = telemetry.counter("online.events") as f64;
    let fallbacks = telemetry.counter("online.fallbacks") as f64;
    values.insert(
        "online.incremental",
        telemetry.counter("online.incremental") as f64,
    );
    values.insert("online.full_remaps", fallbacks);
    values.insert("online.fallback_ratio", fallbacks / events.max(1.0));
    values.insert(
        "online.migrations",
        telemetry.counter("online.migrations") as f64,
    );
    counters.insert_into(values);
}

/// `replay_churn` after set-up.
pub struct ReplayWorkload {
    sessions: Vec<SessionInput>,
    service: Arc<MappingService>,
    /// The id the service will give the next session it opens.
    next_id: u64,
}

/// Open the first session, apply a few events, close: fills the
/// topology cache and its hierarchy and warms the online path.
fn warm_up(service: &MappingService, session: &SessionInput) -> Result<(), String> {
    let mut short = session.clone();
    short.events.truncate(10);
    short.event_json.truncate(10);
    let run = drive_inproc(service, &[&short], 1, None);
    check_session(&short, &run.lines[0]).map(drop)
}

/// What a `replay_churn` rep keeps: the raw pass and each session's
/// parsed, shape-checked stream (or why it failed the check).
pub struct ReplayOutputs {
    run: InprocRun,
    streams: Vec<Result<SessionStream, String>>,
    counters: Counters,
}

impl Workload for ReplayWorkload {
    type Outputs = ReplayOutputs;

    fn setup(_kind: Kind, context: &RunContext, telemetry: bool) -> Result<Self, String> {
        let sessions = inputs::replay_churn(context.seed, context.scale);
        let service = layers::service_new(0, telemetry);
        warm_up(&service, &sessions[0])?;
        Ok(ReplayWorkload {
            sessions,
            service,
            next_id: 2,
        })
    }

    fn rep(&mut self, tracer: Option<&mut Tracer>) -> Result<(Rep, ReplayOutputs), String> {
        let sessions: Vec<&SessionInput> = self.sessions.iter().collect();
        let run = drive_inproc(&self.service, &sessions, self.next_id, tracer);
        self.next_id += sessions.len() as u64;
        let mut rep = Rep {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            op_ms: run.apply_ms.clone(),
            open_ms: run.open_ms.clone(),
            attempted: run.apply_ms.len() + run.open_ms.len(),
            ..Rep::default()
        };
        // Session ids grow from rep to rep, so the digest folds each
        // record and assignment rather than the raw lines.
        let mut digest = Fnv::default();
        let streams: Vec<_> = self
            .sessions
            .iter()
            .zip(&run.lines)
            .map(|(input, lines)| check_session(input, lines))
            .collect();
        for (input, stream) in self.sessions.iter().zip(&streams) {
            match stream {
                Ok(stream) => {
                    for (record, assignment) in &stream.records {
                        digest.word(record.total_time);
                        digest.assignment(assignment);
                        rep.quality.push(record.percent_over_lower_bound);
                    }
                }
                Err(_) => rep.failed += input.events.len() + 1,
            }
        }
        rep.digest = digest.0;
        let counters = Counters::of(&self.service);
        let outputs = ReplayOutputs {
            run,
            streams,
            counters,
        };
        Ok((rep, outputs))
    }

    fn verify(&self, outputs: &ReplayOutputs, _tracer: Option<&mut Tracer>) -> Verification {
        let verifier = layers::service_new(1, false);
        let mut verification = Verification::default();
        let replayed = sample_indices(self.sessions.len(), 2);
        for (k, (input, stream)) in self.sessions.iter().zip(&outputs.streams).enumerate() {
            let outcome = stream.as_ref().map_err(String::clone).and_then(|stream| {
                if replayed.contains(&k) {
                    check_against_replay(&verifier, input, stream)?;
                }
                Ok(())
            });
            verification.check(outcome.map_err(|e| format!("session {k}: {e}")));
        }
        verification
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        traced: &(Rep, ReplayOutputs),
        _reference_ops_per_s: f64,
    ) -> Result<LayerValues, String> {
        let ReplayOutputs {
            run,
            streams,
            counters,
        } = &traced.1;
        let stepwise_service = layers::service_new(0, false);
        warm_up(&stepwise_service, &self.sessions[0])?;
        let mut steps = SessionSteps::default();
        for k in sample_indices(self.sessions.len(), 2) {
            let input = &self.sessions[k];
            let id = streams[k].as_ref().map_err(String::clone)?.id;
            steps.events += stepwise_session(
                tracer,
                &stepwise_service,
                input,
                id,
                &run.lines[k],
                k as u64,
            )?
            .events;
        }
        let mut values = LayerValues::new();
        session_layer_values(tracer, counters, &steps, &mut values);
        let ops = run.apply_ms.len() + run.other_ms.len();
        values.insert(
            "service.request_bytes",
            run.request_bytes as f64 / ops.max(1) as f64,
        );
        values.insert(
            "service.response_bytes",
            run.response_bytes as f64 / ops.max(1) as f64,
        );
        Ok(values)
    }
}
