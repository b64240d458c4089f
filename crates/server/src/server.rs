//! The TCP listener and the event-driven serving front end.
//!
//! The acceptor thread owns the listener; every accepted socket is checked
//! against the `max_connections` gate (shed with `SERVER_ERROR out of
//! connections` past it, instead of queueing unboundedly) and handed
//! round-robin to one of `workers` reactor event loops (see
//! [`crate::reactor`]). Connection count is bounded by the gate and by fds
//! — not by the worker count: a 2-loop server happily serves hundreds of
//! concurrent connections.
//!
//! The cache behind the loops is the data plane (`crate::plane`): the
//! shards behind a lock each, every loop running every key of its own
//! connections, and [`CacheServer::cache`] hands out a [`PlaneHandle`]
//! whose data calls take the same locks in the caller's thread.

use crate::engine::BackendConfig;
use crate::handle::PlaneHandle;
use crate::plane::Plane;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: String,
    /// Number of event-loop worker threads. Each loop multiplexes many
    /// connections, so size this to the CPUs you want serving traffic (see
    /// [`default_event_loops`]), not to the connection count. Must be at
    /// least 1; [`CacheServer::start`] rejects 0 with
    /// [`std::io::ErrorKind::InvalidInput`].
    pub workers: usize,
    /// Maximum concurrently served connections. The acceptor sheds
    /// connections past it with `SERVER_ERROR out of connections`; shed
    /// attempts are counted in the `rejected_connections` stat. Must be at
    /// least 1.
    pub max_connections: usize,
    /// Close connections that have been silent this long (`None` — the
    /// default — never reaps). With the `max_connections` gate, a leaked
    /// client fleet would otherwise pin the gate shut forever; reaped
    /// connections are counted in the `idle_closed_connections` stat.
    /// Connections with an operation in flight are never reaped.
    pub idle_timeout: Option<Duration>,
    /// Service-time threshold, in microseconds, above which an operation
    /// counts as *slow*: it increments the `plane:slow_ops` stat and (one
    /// in every few) lands in the flight-recorder journal with its event
    /// loop, command class and duration. `0` (the default) disables the
    /// slow-op log entirely — the histograms still record every operation.
    pub slow_op_micros: u64,
    /// Backend (cache) configuration.
    pub backend: BackendConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_connections: 4096,
            idle_timeout: None,
            slow_op_micros: 0,
            backend: BackendConfig::default(),
        }
    }
}

/// Event-loop count auto-detection: one loop per available CPU, capped at
/// 8 — loops are CPU-bound multiplexers, and past the core count extra
/// loops only add context switching.
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// A running cache server.
pub struct CacheServer {
    local_addr: SocketAddr,
    plane: Plane,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl CacheServer {
    /// Binds and starts serving in background threads.
    ///
    /// Returns `InvalidInput` if `config.workers == 0` or
    /// `config.max_connections == 0` — a silent clamp would hide a
    /// misconfigured deployment.
    pub fn start(config: ServerConfig) -> std::io::Result<CacheServer> {
        if config.workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "ServerConfig::workers must be at least 1 (got 0); \
                 each event loop serves many connections, so one per CPU is plenty",
            ));
        }
        if config.max_connections == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "ServerConfig::max_connections must be at least 1 (got 0)",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let plane = Plane::start(&config)?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_loops = Arc::clone(&plane.loops);
        let accept_plane = Arc::clone(&plane.handle);
        let max_connections = config.max_connections as u64;
        let accept_thread = std::thread::Builder::new()
            .name("cache-acceptor".to_string())
            .spawn(move || {
                let mut next_loop = 0usize;
                let accept_telemetry = &accept_plane.shared.telemetry;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            if accept_telemetry.curr() >= max_connections {
                                accept_telemetry.on_reject();
                                accept_plane.note_connection_shed();
                                shed(stream);
                                continue;
                            }
                            // Round-robin, failing over past any loop that
                            // has stopped serving (a loop that died on a
                            // hard epoll error must not black-hole 1/N of
                            // all new connections). The per-loop count goes
                            // up before the hand-off so the gate above can
                            // never over-admit, and comes back on refusal.
                            let mut stream = Some(stream);
                            for _ in 0..accept_loops.len() {
                                let index = next_loop % accept_loops.len();
                                next_loop = next_loop.wrapping_add(1);
                                accept_telemetry.on_accept(index);
                                match accept_loops[index].dispatch(stream.take().unwrap()) {
                                    Ok(()) => break,
                                    Err(refused) => {
                                        accept_telemetry.on_dispatch_refused(index);
                                        stream = Some(refused);
                                    }
                                }
                            }
                            // Every loop refused: the server is tearing
                            // down (or fully wedged); drop the connection.
                            drop(stream);
                        }
                        Err(_) => {
                            // accept() errors are almost always transient
                            // (EMFILE under an fd spike, ECONNABORTED from
                            // a client that gave up in the backlog) —
                            // treating them as fatal would silently kill
                            // the acceptor while the server looks healthy.
                            // Back off briefly and keep accepting; shutdown
                            // still exits via the flag check above.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })?;

        Ok(CacheServer {
            local_addr,
            plane,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The data-plane handle (e.g. for out-of-band statistics in
    /// benchmarks). Every call runs in the caller's thread: a data call
    /// under the key's shard lock, a round or an admin call under the
    /// control lock.
    pub fn cache(&self) -> &Arc<PlaneHandle> {
        &self.plane.handle
    }

    /// Stops accepting connections, closes live connections after the
    /// readiness pass they are currently in, and joins every server thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The acceptor is gone, so no new dispatches can race the plane's
        // teardown: the control thread exits, then each loop closes every
        // connection it owns and exits.
        self.plane.shutdown();
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Refuses a connection at the accept gate: tell the client why, then
/// close. Best-effort with a short timeout — a blocked write here would
/// stall the acceptor for everyone.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(b"SERVER_ERROR out of connections\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CacheClient;
    use crate::engine::{BackendMode, TenantSpec};
    use std::io::{BufRead, BufReader};

    fn start_test_server(mode: BackendMode) -> CacheServer {
        CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backend: BackendConfig {
                total_bytes: 8 << 20,
                mode,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start")
    }

    #[test]
    fn end_to_end_set_get_delete() {
        let server = start_test_server(BackendMode::Cliffhanger);
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        assert!(client.set(b"greeting", 5, b"hello world").unwrap());
        let got = client.get(b"greeting").unwrap().expect("hit");
        assert_eq!(got.0, 5);
        assert_eq!(got.1, b"hello world");
        assert!(client.delete(b"greeting").unwrap());
        assert!(client.get(b"greeting").unwrap().is_none());
        assert!(!client.delete(b"greeting").unwrap());
    }

    #[test]
    fn stats_and_version_and_flush() {
        let server = start_test_server(BackendMode::Default);
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        client.set(b"a", 0, b"1").unwrap();
        client.get(b"a").unwrap();
        let version = client.version().unwrap();
        assert!(version.contains("cliffhanger"));
        let stats = client.stats().unwrap();
        let map: std::collections::HashMap<_, _> = stats.into_iter().collect();
        assert_eq!(map["cmd_set"], "1");
        assert_eq!(map["get_hits"], "1");
        assert!(map.contains_key("shard_count"));
        assert!(map.contains_key("plane:event_loops"));
        client.flush_all().unwrap();
        assert!(client.get(b"a").unwrap().is_none());
    }

    #[test]
    fn stats_report_connection_counters() {
        let server = start_test_server(BackendMode::Default);
        let mut a = CacheClient::connect(server.local_addr()).unwrap();
        let mut b = CacheClient::connect(server.local_addr()).unwrap();
        a.set(b"k", 0, b"v").unwrap();
        // Round-trip on `b` too, so both registrations have fully landed
        // before the counters are sampled (an in-flight on_accept could
        // otherwise race the stats reads).
        b.set(b"k2", 0, b"v").unwrap();
        let stats: std::collections::HashMap<_, _> = a.stats().unwrap().into_iter().collect();
        let curr: u64 = stats["curr_connections"].parse().unwrap();
        let total: u64 = stats["total_connections"].parse().unwrap();
        assert!(curr >= 2);
        assert!(total >= curr);
        assert_eq!(stats["rejected_connections"], "0");
        assert_eq!(stats["max_connections"], "4096");
        let per_loop: u64 = (0..2)
            .map(|i| stats[&format!("conns:loop:{i}")].parse::<u64>().unwrap())
            .sum();
        assert_eq!(per_loop, curr);
    }

    #[test]
    fn acceptor_sheds_past_max_connections() {
        let server = CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: 2,
            backend: BackendConfig {
                total_bytes: 8 << 20,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start");
        // Round-trips guarantee both connections are registered before the
        // third arrives, so the gate's view of `curr` is deterministic.
        let mut a = CacheClient::connect(server.local_addr()).unwrap();
        let mut b = CacheClient::connect(server.local_addr()).unwrap();
        assert!(a.set(b"a", 0, b"1").unwrap());
        assert!(b.set(b"b", 0, b"1").unwrap());
        let shed = TcpStream::connect(server.local_addr()).unwrap();
        let mut line = String::new();
        BufReader::new(shed).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "SERVER_ERROR out of connections");
        // The admitted connections keep working, and the shed one counted.
        assert!(a.get(b"a").unwrap().is_some());
        let stats: std::collections::HashMap<_, _> = b.stats().unwrap().into_iter().collect();
        assert_eq!(stats["rejected_connections"], "1");
        assert_eq!(stats["max_connections"], "2");
        // Once a slot frees up, new connections are admitted again.
        drop(a);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if let Ok(mut c) = CacheClient::connect(server.local_addr()) {
                if c.get(b"b").is_ok() {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "a freed slot must re-open the gate"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn multiple_clients_share_the_cache() {
        let server = start_test_server(BackendMode::HillClimbing);
        let mut writer = CacheClient::connect(server.local_addr()).unwrap();
        let mut reader = CacheClient::connect(server.local_addr()).unwrap();
        writer.set(b"shared", 1, b"data").unwrap();
        let got = reader
            .get(b"shared")
            .unwrap()
            .expect("visible across connections");
        assert_eq!(got.1, b"data");
    }

    #[test]
    fn concurrent_load_is_consistent() {
        let server = start_test_server(BackendMode::Cliffhanger);
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = CacheClient::connect(addr).unwrap();
                    for i in 0..200 {
                        let key = format!("t{t}-k{i}");
                        let value = format!("value-{t}-{i}");
                        assert!(client.set(key.as_bytes(), 0, value.as_bytes()).unwrap());
                        let got = client
                            .get(key.as_bytes())
                            .unwrap()
                            .expect("own write visible");
                        assert_eq!(got.1, value.as_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats: std::collections::HashMap<_, _> = server.cache().stats().into_iter().collect();
        let sets: u64 = stats["cmd_set"].parse().unwrap();
        assert_eq!(sets, 800);
    }

    #[test]
    fn binary_values_survive_the_wire() {
        let server = start_test_server(BackendMode::Cliffhanger);
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(4_096).collect();
        assert!(client.set(b"binary", 0, &payload).unwrap());
        let got = client.get(b"binary").unwrap().expect("hit");
        assert_eq!(got.1, payload);
    }

    #[test]
    fn idle_connections_are_reaped_but_active_ones_survive() {
        let server = CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            idle_timeout: Some(Duration::from_millis(200)),
            backend: BackendConfig {
                total_bytes: 8 << 20,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start");
        let mut active = CacheClient::connect(server.local_addr()).unwrap();
        let mut leaked = CacheClient::connect(server.local_addr()).unwrap();
        assert!(leaked.set(b"leak", 0, b"1").unwrap());
        // Keep `active` busy past the timeout while `leaked` goes silent.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(active.set(b"ping", 0, b"1").unwrap());
            let stats: std::collections::HashMap<_, _> =
                active.stats().unwrap().into_iter().collect();
            if stats["idle_closed_connections"].parse::<u64>().unwrap() >= 1 {
                assert_eq!(stats["plane:idle_timeout_ms"], "200");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the idle reaper must close the silent connection"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // The active connection was never reaped; the leaked one is dead.
        assert!(active.get(b"ping").unwrap().is_some());
        assert!(leaked.get(b"leak").is_err());
    }

    fn start_tenant_server() -> CacheServer {
        CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Fewer event loops than concurrent test clients on purpose:
            // connections no longer pin a worker for life, so this is the
            // configuration the reactor exists to serve.
            workers: 2,
            backend: BackendConfig {
                total_bytes: 12 << 20,
                mode: BackendMode::Cliffhanger,
                shards: 2,
                tenants: vec![TenantSpec::new("alpha", 1), TenantSpec::new("beta", 1)],
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start")
    }

    #[test]
    fn app_selector_scopes_sessions_end_to_end() {
        let server = start_tenant_server();
        let mut alpha = CacheClient::connect(server.local_addr()).unwrap();
        let mut beta = CacheClient::connect(server.local_addr()).unwrap();
        let mut plain = CacheClient::connect(server.local_addr()).unwrap();
        assert!(alpha.app("alpha").unwrap());
        assert!(beta.app("beta").unwrap());
        // The same wire key is independent per namespace.
        assert!(alpha.set(b"k", 1, b"from-alpha").unwrap());
        assert!(beta.set(b"k", 2, b"from-beta").unwrap());
        assert!(plain.set(b"k", 3, b"from-default").unwrap());
        assert_eq!(alpha.get(b"k").unwrap().unwrap().1, b"from-alpha");
        assert_eq!(beta.get(b"k").unwrap().unwrap().1, b"from-beta");
        assert_eq!(plain.get(b"k").unwrap().unwrap().1, b"from-default");
        // Stats carry per-tenant sections.
        let stats: std::collections::HashMap<_, _> = plain.stats().unwrap().into_iter().collect();
        assert_eq!(stats["tenant_count"], "3");
        assert_eq!(stats["tenant:alpha:cmd_set"], "1");
        assert_eq!(stats["tenant:beta:cmd_set"], "1");
        assert_eq!(stats["tenant:default:cmd_set"], "1");
    }

    #[test]
    fn unknown_app_is_a_client_error_and_keeps_the_session_tenant() {
        let server = start_tenant_server();
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        assert!(client.app("alpha").unwrap());
        assert!(client.set(b"k", 0, b"v").unwrap());
        assert!(!client.app("nope").unwrap(), "unknown app must be refused");
        // Still scoped to alpha after the failed switch.
        assert_eq!(client.get(b"k").unwrap().unwrap().1, b"v");
    }

    #[test]
    fn app_create_onboards_a_tenant_live() {
        let server = start_tenant_server();
        let mut admin = CacheClient::connect(server.local_addr()).unwrap();
        let mut other = CacheClient::connect(server.local_addr()).unwrap();
        assert!(
            !admin.app("gamma").unwrap(),
            "gamma must not exist before app_create"
        );
        assert!(admin.app_create("gamma", 2).unwrap());
        // Visible to every session, immediately, without a restart.
        assert!(other.app("gamma").unwrap());
        assert!(other.set(b"k", 9, b"gamma-v").unwrap());
        assert_eq!(other.get(b"k").unwrap().unwrap().1, b"gamma-v");
        // The new namespace is isolated from the default one.
        assert!(admin.get(b"k").unwrap().is_none());
        // The carve-out gave it a real budget and the listing shows it.
        let apps = admin.app_list().unwrap();
        let gamma = apps
            .iter()
            .find(|(name, _, _)| name == "gamma")
            .expect("gamma listed");
        assert_eq!(gamma.1, 2, "weight echoed");
        assert!(gamma.2 > 0, "carved budget must be nonzero: {apps:?}");
        let total: u64 = apps.iter().map(|(_, _, b)| b).sum();
        assert_eq!(total, 12 << 20, "carve-out conserves the total budget");
        // Duplicates and invalid names are CLIENT_ERRORs.
        assert!(!admin.app_create("gamma", 1).unwrap());
        assert!(!admin.app_create("bad:name", 1).unwrap());
        let stats: std::collections::HashMap<_, _> = admin.stats().unwrap().into_iter().collect();
        assert_eq!(stats["tenant_count"], "4");
        assert!(stats.contains_key("tenant:gamma:budget"));
    }

    #[test]
    fn flush_all_is_tenant_scoped() {
        let server = start_tenant_server();
        let mut alpha = CacheClient::connect(server.local_addr()).unwrap();
        let mut plain = CacheClient::connect(server.local_addr()).unwrap();
        assert!(alpha.app("alpha").unwrap());
        assert!(alpha.set(b"a", 0, b"1").unwrap());
        assert!(plain.set(b"d", 0, b"1").unwrap());
        alpha.flush_all().unwrap();
        assert!(alpha.get(b"a").unwrap().is_none(), "alpha flushed itself");
        assert_eq!(
            plain.get(b"d").unwrap().unwrap().1,
            b"1",
            "alpha's flush must not touch the default namespace"
        );
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = start_test_server(BackendMode::Default);
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn zero_workers_is_rejected_with_a_clear_error() {
        let err = match CacheServer::start(ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        }) {
            Ok(_) => panic!("workers = 0 must be rejected"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("workers"));
        let err = match CacheServer::start(ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        }) {
            Ok(_) => panic!("max_connections = 0 must be rejected"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("max_connections"));
    }

    #[test]
    fn shutdown_unblocks_idle_connections() {
        let mut server = start_test_server(BackendMode::Default);
        let mut client = CacheClient::connect(server.local_addr()).unwrap();
        assert!(client.set(b"live", 0, b"1").unwrap());
        // The client is idle (its connection parked in the event loop);
        // shutdown must not hang waiting for it to disconnect.
        server.shutdown();
        // The connection is now closed from the server side.
        assert!(client.get(b"live").is_err());
    }
}
