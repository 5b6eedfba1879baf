//! The one request path behind `mimd serve`: one [`Request`] per line
//! in, one [`Response`] per line out, on stdin or a server connection.
//!
//! [`serve_lines`] frames and decodes a connection: blank lines and
//! `#`-comments are skipped, and a line that is not a request (bad
//! JSON, unknown op, invalid UTF-8) is *not* fatal — it answers
//! [`ErrorCode::BadRequest`], is counted against its connection, and the
//! loop keeps serving, because a resource-manager sidecar must outlive
//! one bad client line. A line longer than [`MAX_LINE_BYTES`] is read
//! past without being held and answers [`ErrorCode::TooLarge`] the same
//! way. [`handle_timed`] handles one decoded request.
//!
//! The two modes differ only in the *dispatch* between them.
//! [`serve_jsonl`] (stdin) dispatches inline: the reader handles each
//! request itself, so responses stay in request order and a piped file
//! is back-pressured, never rejected. `mimd-server` dispatches onto
//! shard queues whose workers call the same [`handle_timed`].

use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

use mimd_online::{TraceEvent, TraceHeader};

use crate::protocol::{ErrorCode, Request, Response, ServiceError, SessionConfig};
use crate::service::MappingService;

/// The longest request line [`serve_lines`] holds, newline included:
/// about 3.6× the largest request the benchmark sends (a 2.2 MB
/// session header, 2 048 tasks on `torus:32x32`). A longer line costs
/// the connection this many bytes of buffer, not its length.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Read one line of at most [`MAX_LINE_BYTES`] into `line`. `Ok(None)`
/// at end of input; `Ok(Some(true))` when the line was over the cap, in
/// which case the rest of it, up to and including the next `\n`, has
/// been read and dropped a cap's worth at a time.
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    let mut too_large = false;
    loop {
        line.clear();
        let read = reader
            .by_ref()
            .take(MAX_LINE_BYTES as u64)
            .read_until(b'\n', line)?;
        if read == 0 && !too_large {
            return Ok(None);
        }
        if read < MAX_LINE_BYTES || line.ends_with(b"\n") {
            return Ok(Some(too_large));
        }
        too_large = true;
    }
}

/// What one connection (a server socket, or stdin as connection 1)
/// read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnectionSummary {
    /// Connection id (1, 2, 3, … in accept order).
    pub conn: u64,
    /// Requests read off this connection (including malformed lines).
    pub requests: u64,
    /// Lines that failed to decode as a request.
    pub malformed_lines: u64,
}

/// Frame and decode `reader` line by line until it ends, handing each
/// decoded request to `dispatch`. A `Some` response — from `dispatch`,
/// or the `bad_request` a malformed line produces here — goes to
/// `respond`; `None` means the dispatch queued the request and its
/// response is written elsewhere.
///
/// Returns the connection's counts together with why the loop ended:
/// `Ok` at end of input, or the first I/O error from `reader` or
/// `respond` (a broken pipe is the caller's clean-shutdown signal).
pub fn serve_lines(
    service: &MappingService,
    conn: u64,
    mut reader: impl BufRead,
    mut dispatch: impl FnMut(Request) -> Option<Response>,
    mut respond: impl FnMut(&Response) -> io::Result<()>,
) -> (ConnectionSummary, io::Result<()>) {
    let mut summary = ConnectionSummary {
        conn,
        ..ConnectionSummary::default()
    };
    let mut line = Vec::new();
    let mut lineno = 0u64;
    let ended = loop {
        let too_large = match read_line(&mut reader, &mut line) {
            Ok(None) => break Ok(()),
            Ok(Some(too_large)) => too_large,
            Err(e) => break Err(e),
        };
        lineno += 1;
        let decoded = if too_large {
            Err((
                ErrorCode::TooLarge,
                format!("longer than {MAX_LINE_BYTES} bytes"),
            ))
        } else {
            // Bytes, not `lines()`: a line that is not UTF-8 is one bad
            // request, not the end of the connection.
            match std::str::from_utf8(&line) {
                Ok(text) => {
                    let text = text.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    Request::from_json_line(text)
                        .map_err(|e| (ErrorCode::BadRequest, e.to_string()))
                }
                Err(e) => Err((ErrorCode::BadRequest, e.to_string())),
            }
        };
        summary.requests += 1;
        let response = match decoded {
            Ok(request) => dispatch(request),
            Err((code, reason)) => {
                summary.malformed_lines += 1;
                service.note_malformed_line(conn, code);
                let error = ServiceError::new(code, format!("line {lineno}: {reason}"));
                Some(error.into_response())
            }
        };
        if let Some(response) = response {
            if let Err(e) = respond(&response) {
                break Err(e);
            }
        }
    };
    (summary, ended)
}

/// Handle one decoded request (`reserved` as in
/// [`MappingService::handle_reserved`]). With `slow_ms` set, a request
/// taking at least that many milliseconds emits one structured
/// `slow_request op=… session=… ms=…` line on `diag` and counts under
/// `serve.slow_requests`; `None` never reads the clock.
pub fn handle_timed(
    service: &MappingService,
    request: Request,
    reserved: Option<u64>,
    slow_ms: Option<u64>,
    mut diag: impl Write,
) -> Response {
    let Some(limit) = slow_ms else {
        return service.handle_reserved(request, reserved);
    };
    let op = request.op_name();
    let mut session = request.session_id();
    let started = Instant::now();
    let response = service.handle_reserved(request, reserved);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    if elapsed_ms >= limit {
        if let Response::SessionOpened { session: id, .. } = &response {
            session = Some(*id);
        }
        service.recorder().incr("serve.slow_requests");
        let session = session.map_or_else(|| "-".to_string(), |id| id.to_string());
        // A lost diagnostic must not cost the client its response.
        let _ = writeln!(
            diag,
            "slow_request op={op} session={session} ms={elapsed_ms}"
        );
    }
    response
}

/// Serve `reader` as connection 1 with the inline dispatch (stdin mode).
/// Protocol lines go to `writer`, flushed per response so a co-process
/// on pipes never waits on buffered output; slow-request diagnostics go
/// to `diag` (stderr in the CLI) — the two never mix.
pub fn serve_jsonl(
    service: &MappingService,
    reader: impl BufRead,
    mut writer: impl Write,
    mut diag: impl Write,
    slow_ms: Option<u64>,
) -> io::Result<ConnectionSummary> {
    let (summary, ended) = serve_lines(
        service,
        1,
        reader,
        |request| Some(handle_timed(service, request, None, slow_ms, &mut diag)),
        |response| {
            writeln!(writer, "{}", response.to_json_line())?;
            writer.flush()
        },
    );
    ended.map(|()| summary)
}

/// One periodic `--stats-interval` snapshot as a single diagnostic
/// line: uptime, request/error totals and the journal gauges. The
/// format is `stats k=v k=v …` — greppable, one line per emission, and
/// strictly off the protocol stream (the serve loop prints it on its
/// diagnostic writer, stderr in the CLI).
pub fn stats_line(stats: &crate::protocol::ServiceStats, uptime_secs: u64) -> String {
    format!(
        "stats uptime_s={} requests_served={} errors={} open_sessions={} \
         sessions_opened={} map_once_served={} events_applied={} \
         journal_events={} journal_dropped={} active_connections={} \
         queue_depth={} inflight={}",
        uptime_secs,
        stats.requests_served,
        stats.errors.total(),
        stats.open_sessions,
        stats.sessions_opened,
        stats.map_once_served,
        stats.events_applied,
        stats.journal.events,
        stats.journal.dropped,
        stats.server.active_connections,
        stats.server.queue_depth,
        stats.server.inflight,
    )
}

/// Convert a trace (header + events) into the request stream that
/// serves it: `OpenSession`, one `Apply` per event, `CloseSession`.
///
/// `session` must be the id the service will allocate — 1 for the first
/// session of a fresh service instance (ids are deterministic: 1, 2, 3,
/// … in open order). Feeding the result to [`serve_jsonl`] on a fresh
/// service yields records byte-identical to `mimd replay` with the same
/// seed and config.
pub fn trace_requests(
    header: &TraceHeader,
    events: &[TraceEvent],
    seed: u64,
    config: Option<SessionConfig>,
    session: u64,
) -> Vec<Request> {
    let mut requests = Vec::with_capacity(events.len() + 2);
    requests.push(Request::OpenSession {
        header: header.clone(),
        seed,
        config,
    });
    for event in events {
        requests.push(Request::Apply {
            session,
            event: event.clone(),
        });
    }
    requests.push(Request::CloseSession { session });
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;

    #[test]
    fn malformed_lines_answer_bad_request_and_keep_serving() {
        let service = MappingService::default();
        let input = b"# comment\n\n{oops\n\xff\xfe\n{\"op\":\"catalog\"}\n{\"op\":\"nope\"}\n";
        let mut output = Vec::new();
        let summary = serve_jsonl(&service, &input[..], &mut output, io::sink(), None).unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(
            summary.malformed_lines, 3,
            "bad JSON, bad UTF-8, unknown op"
        );
        assert_eq!(service.stats().errors.total(), 3);
        let lines: Vec<Response> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Response::from_json_line(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4, "one response per request");
        assert!(lines[0].is_error());
        assert!(
            matches!(&lines[1], Response::Error { error } if error.message.starts_with("line 4: ")),
            "a line that is not UTF-8 is one bad request, not the end of the loop"
        );
        assert!(matches!(lines[2], Response::Catalog { .. }));
        assert!(lines[3].is_error(), "unknown op is a bad request");
    }

    #[test]
    fn an_oversized_line_answers_too_large_and_the_next_line_is_served() {
        let service = MappingService::default();
        let mut input = vec![b'{'; MAX_LINE_BYTES + 10];
        input.extend_from_slice(b"\n{\"op\":\"catalog\"}\n");
        let mut output = Vec::new();
        let summary = serve_jsonl(&service, &input[..], &mut output, io::sink(), None).unwrap();
        assert_eq!((summary.requests, summary.malformed_lines), (2, 1));
        let stats = service.stats();
        assert_eq!(stats.requests_served, 2);
        assert_eq!((stats.errors.too_large, stats.errors.total()), (1, 1));
        let lines: Vec<Response> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Response::from_json_line(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "one response per request");
        assert!(
            matches!(&lines[0], Response::Error { error }
                if error.code == ErrorCode::TooLarge && error.message.starts_with("line 1: ")),
            "{:?}",
            lines[0]
        );
        assert!(matches!(lines[1], Response::Catalog { .. }));
    }

    #[test]
    fn a_snapshot_with_a_huge_cluster_count_is_refused_and_the_next_line_is_served(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let service = MappingService::default();
        let open = r#"{"op":"open_session","header":{"topology":{"kind":"ring","n":4},"topology_seed":null,"snapshot":{"num_clusters":1000000000000000000,"tasks":[{"id":0,"size":2,"cluster":0}],"edges":[]}},"seed":11,"config":null}"#;
        let input = format!("{open}\n{{\"op\":\"catalog\"}}\n");
        let mut output = Vec::new();
        serve_jsonl(&service, input.as_bytes(), &mut output, io::sink(), None)?;
        let output = String::from_utf8(output)?;
        let lines: Vec<Response> =
            (output.lines().map(Response::from_json_line)).collect::<Result<_, _>>()?;
        assert_eq!(lines.len(), 2, "one response per request");
        assert!(
            matches!(&lines[0], Response::Error { error }
                if error.code == ErrorCode::Workload && error.message.contains("cluster 1 is empty")),
            "{:?}",
            lines[0]
        );
        assert!(matches!(lines[1], Response::Catalog { .. }));
        Ok(())
    }

    #[test]
    fn weights_past_the_schedule_range_are_refused_and_the_next_line_is_served(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // Two u64::MAX cross edges used to wrap the served bound and total
        // (both answered 6); an event that raises a weight that far is
        // refused the same way, with the session unchanged.
        let service = MappingService::default();
        let header = |weight: u64| {
            format!(
                r#"{{"op":"open_session","header":{{"topology":{{"kind":"ring","n":4}},"topology_seed":null,"snapshot":{{"num_clusters":4,"tasks":[{{"id":0,"size":2,"cluster":0}},{{"id":1,"size":3,"cluster":1}},{{"id":2,"size":1,"cluster":2}},{{"id":3,"size":4,"cluster":3}}],"edges":[{{"from":0,"to":1,"weight":{weight}}},{{"from":2,"to":3,"weight":{weight}}}]}}}},"seed":11,"config":null}}"#
            )
        };
        let apply = format!(
            r#"{{"op":"apply","session":1,"event":{{"kind":"set_edge_weight","from":0,"to":1,"weight":{}}}}}"#,
            u64::MAX
        );
        let input = format!(
            "{}\n{}\n{apply}\n{{\"op\":\"catalog\"}}\n",
            header(u64::MAX),
            header(5)
        );
        let mut output = Vec::new();
        serve_jsonl(&service, input.as_bytes(), &mut output, io::sink(), None)?;
        let output = String::from_utf8(output)?;
        let lines: Vec<Response> =
            (output.lines().map(Response::from_json_line)).collect::<Result<_, _>>()?;
        assert_eq!(lines.len(), 4, "one response per request");
        assert!(
            matches!(&lines[0], Response::Error { error }
                if error.code == ErrorCode::Workload && error.message.contains("exceeds")),
            "{:?}",
            lines[0]
        );
        assert!(
            matches!(lines[1], Response::SessionOpened { .. }),
            "{:?}",
            lines[1]
        );
        assert!(
            matches!(&lines[2], Response::Applied { record, .. }
                if record.error.as_deref().is_some_and(|e| e.contains("exceeds"))),
            "{:?}",
            lines[2]
        );
        assert!(matches!(lines[3], Response::Catalog { .. }));
        Ok(())
    }

    #[test]
    fn a_line_over_the_cap_is_dropped_without_being_held() {
        // Three caps of bytes with no newline, then a short line: the
        // buffer never outgrows the cap, and the short line is next.
        let endless = io::repeat(b'x').take(3 * MAX_LINE_BYTES as u64);
        let mut reader = io::BufReader::new(endless.chain(&b"\nnext\nlast"[..]));
        let mut line = Vec::new();
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Some(true));
        assert!(line.capacity() <= MAX_LINE_BYTES, "{}", line.capacity());
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Some(false));
        assert_eq!(line, b"next\n");
        // A final line without a newline is a line; a line of exactly
        // the cap, newline included, is not too large.
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), Some(false));
        assert_eq!(line, b"last");
        assert_eq!(read_line(&mut reader, &mut line).unwrap(), None);
        let mut exact = vec![b'x'; MAX_LINE_BYTES - 1];
        exact.push(b'\n');
        assert_eq!(read_line(&mut &exact[..], &mut line).unwrap(), Some(false));
        assert_eq!(line.len(), MAX_LINE_BYTES);
    }

    #[test]
    fn slow_threshold_zero_flags_every_parsed_request() {
        let config = crate::service::ServiceConfig {
            telemetry: true,
            ..Default::default()
        };
        let service = MappingService::new(config);
        let input = "{oops\n{\"op\":\"catalog\"}\n{\"op\":\"stats\"}\n";
        let (mut output, mut diag) = (Vec::new(), Vec::new());
        let summary =
            serve_jsonl(&service, input.as_bytes(), &mut output, &mut diag, Some(0)).unwrap();
        // The malformed line never reaches the clock; both parsed
        // requests cross a 0 ms threshold.
        assert_eq!(summary.requests, 3);
        let diag = String::from_utf8(diag).unwrap();
        let lines: Vec<&str> = diag.lines().collect();
        assert_eq!(lines.len(), 2, "{diag}");
        assert!(lines[0].starts_with("slow_request op=catalog session=- ms="));
        assert!(lines[1].starts_with("slow_request op=stats session=- ms="));
        assert_eq!(
            service.stats().telemetry.counter("serve.slow_requests"),
            2,
            "slow requests are counted"
        );
    }

    #[test]
    fn unset_threshold_emits_no_diagnostics() {
        let service = MappingService::default();
        let input = "{\"op\":\"catalog\"}\n";
        let (mut output, mut diag) = (Vec::new(), Vec::new());
        serve_jsonl(&service, input.as_bytes(), &mut output, &mut diag, None).unwrap();
        assert!(diag.is_empty(), "no threshold, no diagnostic lines");
    }

    #[test]
    fn journal_captures_op_spans_with_request_context() {
        let config = crate::service::ServiceConfig {
            journal: true,
            ..Default::default()
        };
        let service = MappingService::new(config);
        let input = "{\"op\":\"catalog\"}\n{\"op\":\"stats\"}\n";
        let mut output = Vec::new();
        serve_jsonl(&service, input.as_bytes(), &mut output, io::sink(), None).unwrap();
        let stats = service.stats();
        assert!(stats.journal.enabled);
        assert!(stats.journal.events >= 4, "two spans = four events");
        assert_eq!(stats.journal.dropped, 0);
        let snapshot = service.journal_snapshot();
        let catalog_begin = snapshot
            .events
            .iter()
            .find(|e| e.name == "service.catalog")
            .expect("catalog op span journaled");
        assert_eq!(catalog_begin.request, Some(1), "first request's context");
        assert!(
            snapshot
                .events
                .iter()
                .any(|e| e.name == "service.stats" && e.request == Some(2)),
            "second request's context"
        );
    }

    #[test]
    fn stats_line_is_one_greppable_line() {
        let config = crate::service::ServiceConfig {
            telemetry: true,
            ..Default::default()
        };
        let service = MappingService::new(config);
        let input = "{\"op\":\"catalog\"}\n{oops\n";
        let mut output = Vec::new();
        serve_jsonl(&service, input.as_bytes(), &mut output, io::sink(), None).unwrap();
        service.recorder().incr("serve.stats_emitted");
        service.recorder().incr("serve.stats_emitted");
        let line = stats_line(&service.stats(), 12);
        assert!(!line.contains('\n'));
        assert!(
            line.starts_with("stats uptime_s=12 requests_served=2 "),
            "{line}"
        );
        assert!(line.contains("errors=1"), "{line}");
        assert!(line.contains("open_sessions=0"), "{line}");
        assert!(
            line.contains("journal_events=0 journal_dropped=0"),
            "{line}"
        );
        assert_eq!(
            service.stats().telemetry.counter("serve.stats_emitted"),
            2,
            "emissions are counted"
        );
    }

    #[test]
    fn stats_request_round_trips_through_the_loop() {
        let service = MappingService::default();
        let input = format!("{}\n", Request::Stats.to_json_line());
        let mut output = Vec::new();
        serve_jsonl(&service, input.as_bytes(), &mut output, io::sink(), None).unwrap();
        let text = String::from_utf8(output).unwrap();
        let response = Response::from_json_line(text.trim()).unwrap();
        assert!(matches!(response, Response::Stats { .. }), "{response:?}");
    }
}
