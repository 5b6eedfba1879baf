//! The concurrent server: accept loop, per-connection reader threads,
//! shard routing, admission control and graceful drain.
//!
//! This is the queued dispatch of the one request path in
//! [`mimd_service::serve`] (stdin is its inline dispatch): each
//! connection gets a reader thread running the same [`serve_lines`],
//! and shard workers handle requests through the same
//! [`handle_timed`]. Decoded requests route to shards:
//!
//! * `OpenSession` — the reader *reserves* the session id at intake
//!   ([`MappingService::reserve_session_id`]), so ids stay 1, 2, 3, …
//!   in intake order and the shard (`id % shards`) is known before the
//!   open is handled;
//! * `Apply` / `CloseSession` — `session % shards`, i.e. the same
//!   shard as the open, so per-session FIFO order is a queue property,
//!   not a locking discipline;
//! * `MapOnce` — round-robin across shards (stateless, any shard);
//! * `Catalog` / `Stats` — answered inline on the reader thread so
//!   introspection stays responsive when every shard queue is deep.
//!
//! Admission: a full (or draining) shard queue rejects the request
//! with [`ErrorCode::Overloaded`](mimd_service::ErrorCode::Overloaded)
//! written straight back on the connection — the request is never
//! handled, and the client should back off and retry.
//!
//! Drain: the run loop polls a stop flag (no signal handlers — the CLI
//! trips it on stdin EOF). On stop it closes the listener, drains the
//! shard pool (queued work finishes, responses flush), shuts the
//! connection sockets to unblock parked readers, joins them, and
//! returns a [`ServerSummary`] with per-connection malformed-line
//! accounting.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use mimd_service::ConnectionSummary;
use mimd_service::{
    handle_timed, serve_lines, ErrorCode, MappingService, Request, Response, ServerGaugeSource,
    ServiceError,
};

use crate::shard::{EnqueueError, ShardPool, ShardSender};
use crate::transport::{ListenAddr, Listener, Stream};

/// How often the accept loop polls for new connections and checks the
/// stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Concurrency knobs for [`Server`] (the `mimd serve --listen` flags).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker shards (`--shards`); sessions hash to `id % shards`.
    pub shards: usize,
    /// Bounded per-shard queue depth (`--queue-depth`); a full queue
    /// answers `Overloaded`.
    pub queue_depth: usize,
    /// Slow-request threshold in milliseconds (`--slow-ms`), as in
    /// [`handle_timed`]; diagnostics go to stderr. `None` (the default)
    /// never reads the clock.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 256,
            slow_ms: None,
        }
    }
}

/// What one server run did, returned after the drain completes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted over the lifetime of the run.
    pub connections: u64,
    /// Requests read across all connections (including malformed and
    /// rejected ones).
    pub requests: u64,
    /// Requests rejected at admission with `Overloaded`.
    pub rejected: u64,
    /// Per-connection accounting, in connection-id order.
    pub per_connection: Vec<ConnectionSummary>,
}

impl ServerSummary {
    /// Total malformed lines across all connections.
    pub fn malformed_lines(&self) -> u64 {
        self.per_connection.iter().map(|c| c.malformed_lines).sum()
    }
}

/// One unit of shard work: a decoded request plus where its response
/// goes.
struct Job {
    request: Request,
    reserved: Option<u64>,
    writer: Arc<Mutex<Stream>>,
}

/// State shared between the accept loop, reader threads and shard
/// workers.
struct Shared {
    service: Arc<MappingService>,
    gauges: Arc<ServerGaugeSource>,
    /// Live connection streams, for shutdown at drain (reader threads
    /// parked in `read` need the socket closed under them).
    live: Mutex<BTreeMap<u64, Stream>>,
    rejected: AtomicU64,
    round_robin: AtomicUsize,
    slow_ms: Option<u64>,
}

impl Shared {
    /// Handle one request where it stands — a shard worker, or the
    /// reader thread for introspection — with slow-request diagnostics
    /// on stderr.
    fn handle(&self, request: Request, reserved: Option<u64>) -> Response {
        handle_timed(&self.service, request, reserved, self.slow_ms, io::stderr())
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write one response line and flush. Errors are ignored: the client
/// may already be gone, and a dead connection must not take the shard
/// worker down with it.
fn write_response(writer: &Mutex<Stream>, response: &Response) {
    let mut stream = lock(writer);
    let _ = writeln!(stream, "{}", response.to_json_line());
    let _ = stream.flush();
}

/// A bound, not-yet-running server. [`Server::run`] blocks until the
/// stop flag trips; [`Server::spawn`] runs it on its own thread.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` and prepare to serve `service`. Nothing runs until
    /// [`Server::run`] / [`Server::spawn`].
    pub fn bind(
        service: Arc<MappingService>,
        addr: &ListenAddr,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = addr.bind()?;
        let gauges = service.server_gauges();
        Ok(Server {
            listener,
            config,
            shared: Arc::new(Shared {
                service,
                gauges,
                live: Mutex::new(BTreeMap::new()),
                rejected: AtomicU64::new(0),
                round_robin: AtomicUsize::new(0),
                slow_ms: config.slow_ms,
            }),
        })
    }

    /// The address actually bound (resolves TCP port 0).
    pub fn local_display(&self) -> String {
        self.listener.local_display()
    }

    /// Accept and serve until `stop` is set, then drain: stop
    /// accepting, finish queued work, close connections, join readers.
    pub fn run(self, stop: Arc<AtomicBool>) -> io::Result<ServerSummary> {
        let Server {
            listener,
            config,
            shared,
        } = self;
        listener.set_nonblocking(true)?;

        let pool: ShardPool<Job> = {
            let shared = Arc::clone(&shared);
            ShardPool::new(
                config.shards,
                config.queue_depth,
                move |_shard, job: Job| {
                    shared.gauges.dequeued_inflight();
                    let response = shared.handle(job.request, job.reserved);
                    write_response(&job.writer, &response);
                    shared.gauges.inflight_done();
                },
            )
        };
        let sender = pool.sender();

        let mut readers: Vec<JoinHandle<ConnectionSummary>> = Vec::new();
        let mut connections: u64 = 0;
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => {
                    connections += 1;
                    let conn = connections;
                    match stream.try_clone() {
                        Ok(handle) => {
                            lock(&shared.live).insert(conn, handle);
                        }
                        Err(_) => continue, // connection already dead
                    }
                    let shared = Arc::clone(&shared);
                    let sender = sender.clone();
                    readers.push(std::thread::spawn(move || {
                        let summary = serve_connection(conn, stream, &shared, &sender);
                        lock(&shared.live).remove(&conn);
                        summary
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    listener.cleanup();
                    return Err(e);
                }
            }
        }

        // Drain: queued work finishes and its responses flush before
        // any socket is closed; new intake is rejected as Draining.
        pool.join();
        for (_, stream) in lock(&shared.live).iter() {
            let _ = stream.shutdown();
        }
        // Each reader hands back its connection's counts when it ends
        // (accept order is connection-id order).
        let per_connection: Vec<ConnectionSummary> = readers
            .into_iter()
            .filter_map(|reader| reader.join().ok())
            .collect();
        listener.cleanup();

        Ok(ServerSummary {
            connections,
            requests: per_connection.iter().map(|c| c.requests).sum(),
            rejected: shared.rejected.load(Ordering::Relaxed),
            per_connection,
        })
    }

    /// Run on a background thread; the returned handle stops and joins
    /// it.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.local_display();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || self.run(flag));
        ServerHandle { stop, thread, addr }
    }
}

/// Handle to a [`Server::spawn`]ed server: its bound address, and a
/// stop-and-join.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServerSummary>>,
    addr: String,
}

impl ServerHandle {
    /// The address clients connect to (resolves TCP port 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Trip the stop flag, drain, and return the summary.
    pub fn stop(self) -> io::Result<ServerSummary> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

/// One connection's reader: [`serve_lines`] with the shard-queue
/// dispatch. Write errors are not reported back to it — see
/// [`write_response`] — so only a read error ends the connection early.
fn serve_connection(
    conn: u64,
    stream: Stream,
    shared: &Shared,
    sender: &ShardSender<Job>,
) -> ConnectionSummary {
    let Ok(clone) = stream.try_clone() else {
        return ConnectionSummary {
            conn,
            ..ConnectionSummary::default()
        };
    };
    let writer = Arc::new(Mutex::new(clone));
    shared.gauges.connection_opened();
    let (summary, _ended) = serve_lines(
        &shared.service,
        conn,
        BufReader::new(stream),
        |request| route(request, shared, sender, &writer),
        |response| {
            write_response(&writer, response);
            Ok(())
        },
    );
    shared.gauges.connection_closed();
    summary
}

/// Route one decoded request: answer it inline (`Some`), or put it on
/// its shard queue for a worker to answer (`None`).
fn route(
    request: Request,
    shared: &Shared,
    sender: &ShardSender<Job>,
    writer: &Arc<Mutex<Stream>>,
) -> Option<Response> {
    // Introspection answers inline on the reader thread — responsive
    // even when every shard queue is deep.
    if matches!(request, Request::Catalog | Request::Stats) {
        return Some(shared.handle(request, None));
    }
    let (shard, reserved) = match &request {
        Request::OpenSession { .. } => {
            // Reserve at intake: deterministic ids in intake order, and
            // later requests for this session hash to the same shard.
            let id = shared.service.reserve_session_id();
            (id as usize, Some(id))
        }
        Request::Apply { session, .. } | Request::CloseSession { session } => {
            (*session as usize, None)
        }
        // MapOnce (and anything stateless): round-robin.
        _ => (shared.round_robin.fetch_add(1, Ordering::Relaxed), None),
    };
    let job = Job {
        request,
        reserved,
        writer: Arc::clone(writer),
    };
    match sender.try_enqueue(shard, job) {
        Ok(()) => {
            shared.gauges.enqueued();
            None
        }
        Err(reason) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.service.note_overloaded();
            let detail = match reason {
                EnqueueError::Full { shard, depth } => {
                    format!("shard {shard} queue full ({depth} deep); back off and retry")
                }
                EnqueueError::Draining => "server draining; request rejected".to_string(),
            };
            Some(ServiceError::new(ErrorCode::Overloaded, detail).into_response())
        }
    }
}
