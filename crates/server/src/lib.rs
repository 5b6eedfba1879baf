//! `mimd-server` — the concurrent front end for
//! [`MappingService`](mimd_service::MappingService).
//!
//! `mimd serve` started as one blocking JSONL loop over stdin: one slow
//! `map_once` stalls every session queued behind it. That loop is now
//! the *inline* dispatch of the one request path in
//! [`mimd_service::serve`] (framing in `serve_lines`, handling in
//! `handle_timed`); this crate is its *queued* dispatch — the same two
//! functions behind the concurrent shape a real resource manager needs:
//!
//! * [`transport`] — [`ListenAddr`] (Unix-domain socket path or TCP
//!   `host:port`) plus listener/stream enums that make both transports
//!   look the same to the rest of the crate. The wire protocol is
//!   unchanged: one JSON request per line in, one JSON response per
//!   line out.
//! * [`shard`] — [`ShardPool`]: N worker shards, each a bounded FIFO
//!   queue plus one worker thread. `try_enqueue` never blocks — a full
//!   (or draining) shard rejects immediately, which is what admission
//!   control turns into an [`ErrorCode::Overloaded`] response.
//! * [`server`] — [`Server`]: accepts connections, runs `serve_lines`
//!   on a reader thread per connection, routes sessions to shards by
//!   `session_id % shards` (per-session FIFO preserved; session ids
//!   are reserved at intake so routing is deterministic), load-
//!   balances `map_once` round-robin, and drains gracefully — finish
//!   inflight, reject new, then report per-connection accounting.
//! * [`loadgen`] — [`run_loadgen`]: a client that drives many
//!   concurrent open/apply/close sessions against a listening server
//!   and reports sustained requests/sec plus p50/p90/p99 latency.
//!
//! Ordering contract: responses for one session arrive in request
//! order (a session lives on exactly one shard queue). Ordering
//! *across* sessions on different connections is not defined —
//! concurrency is the point. `Catalog` and `Stats` are answered inline
//! on the reader thread so they stay responsive under load.
//!
//! [`ErrorCode::Overloaded`]: mimd_service::ErrorCode::Overloaded

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod loadgen;
pub mod server;
pub mod shard;
pub mod transport;

pub use loadgen::{run_loadgen, LoadReport, LoadgenConfig};
pub use server::{ConnectionSummary, Server, ServerConfig, ServerHandle, ServerSummary};
pub use shard::{EnqueueError, ShardPool, ShardSender};
pub use transport::{ListenAddr, Listener, Stream};
