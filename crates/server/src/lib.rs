//! # cache-server
//!
//! A Memcached-text-protocol TCP server backed by the Cliffhanger-managed
//! cache, plus a blocking client. This is the piece the paper's
//! micro-benchmarks exercise (Tables 6 and 7): the protocol and connection
//! handling are the fixed cost, and the question is how much latency and
//! throughput overhead the shadow queues and the two algorithms add on top.
//!
//! The server's I/O path is event-driven: a handful of epoll event-loop
//! threads (the shape pelikan and Memcached use in production) each
//! multiplex many non-blocking connections, so connection count is bounded
//! by the `max_connections` accept gate and by fds — not by the thread
//! count — and idle sessions cost buffers, not parked OS threads. The
//! workload itself stays memory-bound (the paper makes the same point
//! about Memcachier and Facebook in §5.6), which is exactly why a few
//! loops are enough to saturate the cache.
//!
//! The served request path is *shared-nothing*: each epoll event loop owns
//! the shards assigned to it (`shard % loops`) outright, requests are routed
//! by key hash at the connection layer before touching any engine, and an
//! op for a shard another loop owns is forwarded over that loop's mailbox
//! instead of taking a lock. Admin commands (`stats`, `flush_all`,
//! `app_create`, `app_list`) and the budget-moving rounds run on a single
//! control thread that converses with the loops by message, so they never
//! head-of-line-block a serving loop. See `ARCHITECTURE.md` at the
//! repository root for the full request lifecycle and message protocol.
//!
//! * [`protocol`] — parsing and serialising the Memcached ASCII protocol,
//!   including the multi-tenant `app <name>` session selector and the
//!   `app_create` / `app_list` live-onboarding admin commands. The
//!   resumable [`protocol::Parser`] lets a connection pick a `set` back up
//!   mid-value when the data block trickles in.
//! * [`reactor`] — the epoll event loops, their mailboxes and the
//!   eventfd wake-up (thin unsafe FFI against the system libc; no
//!   crates).
//! * [`server`] — the TCP listener, accept gate and lifecycle; its serving
//!   side is the data plane in `plane` (exposed as [`PlaneHandle`], the
//!   in-process view of a running server). [`SharedCache`] runs the same
//!   routing and engine code in the caller's thread, with no reactor, for
//!   the overhead measurements of Tables 6–7.
//! * [`client`] — a blocking client for tests, benches and examples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod client;
mod conn;
mod engine;
mod hotkey;
mod plane;
pub mod protocol;
pub mod reactor;
pub mod server;
mod stats;

pub use client::CacheClient;
pub use engine::{detect_shards, BackendConfig, BackendMode, TenantSpec};
pub use hotkey::HotKeyConfig;
pub use plane::{PlaneHandle, SharedCache};
pub use protocol::{Command, Response, StatsFormat};
pub use reactor::ConnTelemetry;
pub use server::{default_event_loops, CacheServer, ServerConfig};
