//! The reactor at scale: connections ≫ event loops.
//!
//! These are the configurations the thread-per-connection front end could
//! not serve at all (PR 4 hit a real deadlock from `workers < clients`):
//!
//! * a soak with 256+ mostly-idle connections multiplexed on 2 event
//!   loops, active traffic interleaved, and a clean shutdown with every
//!   connection still open mid-flight;
//! * write backpressure — a client that requests far more response bytes
//!   than it reads must be throttled by TCP while its event loop keeps
//!   serving its siblings, and must eventually receive every byte intact;
//! * the completion ring's failure and backpressure paths — a client that
//!   vanishes with a ring full of forwarded ops leaks nothing and its late
//!   replies are dropped, and one that pipelines far more remote reads than
//!   it ever reads back is held to the output watermark plus one ring;
//! * retained input capacity — 200 connections that each send a 1 MB
//!   pipelined burst and go idle give the burst's buffers back;
//! * bytes per resident item — what the process's resident set grows by
//!   per stored item, beyond the item's own key and data, is held;
//! * the shared-shard contract — every data op executes on the loop of
//!   the connection that sent it, whichever loop the key's shard is homed
//!   on, `flush_all` and tenant-table growth ride the control plane without
//!   corrupting in-flight traffic, and message-based budget transfers
//!   conserve the configured total at every observable instant.

use bytes::Bytes;
use cache_server::{
    BackendConfig, BackendMode, CacheClient, CacheServer, ServerConfig, TenantSpec,
};
use cliffhanger::ShardBalanceConfig;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn start_server(workers: usize, max_connections: usize) -> CacheServer {
    CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        max_connections,
        backend: BackendConfig {
            total_bytes: 32 << 20,
            mode: BackendMode::Cliffhanger,
            shards: 2,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start")
}

fn stats_map(client: &mut CacheClient) -> HashMap<String, String> {
    client.stats().unwrap().into_iter().collect()
}

/// ≥ 256 concurrent live connections on 2 event loops: idle sessions cost
/// buffers, not threads; traffic keeps flowing around them; shutdown closes
/// every one of them mid-flight without hanging.
#[test]
fn soak_256_idle_connections_on_two_loops() {
    const IDLE: usize = 260;
    let mut server = start_server(2, 1024);
    let addr = server.local_addr();

    // Open the idle fleet. Each connection does one round-trip, so it is
    // fully registered with its event loop (not just sitting in a backlog)
    // before we count it.
    let mut idle: Vec<CacheClient> = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut client = CacheClient::connect(addr).expect("connect idle");
        assert!(client
            .set(format!("idle-{i}").as_bytes(), 0, b"parked")
            .unwrap());
        idle.push(client);
    }

    // Active traffic interleaves with the parked fleet on the same 2 loops.
    let workers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).expect("connect active");
                for i in 0..300 {
                    let key = format!("active-{t}-{}", i % 16);
                    let value = format!("v-{t}-{i}");
                    assert!(client.set(key.as_bytes(), 0, value.as_bytes()).unwrap());
                    let got = client.get(key.as_bytes()).unwrap().expect("own write");
                    assert_eq!(got.1, value.as_bytes());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("active worker must not panic");
    }

    // The idle fleet is still fully connected and still works.
    let mut probe = CacheClient::connect(addr).unwrap();
    let stats = stats_map(&mut probe);
    let curr: u64 = stats["curr_connections"].parse().unwrap();
    assert!(
        curr > IDLE as u64,
        "all {IDLE} idle connections plus the probe must be live, got {curr}"
    );
    let total: u64 = stats["total_connections"].parse().unwrap();
    assert!(total >= IDLE as u64 + 5, "accept total counts everyone");
    assert_eq!(stats["rejected_connections"], "0");
    // Round-robin spread the fleet across both loops.
    let loop0: u64 = stats["conns:loop:0"].parse().unwrap();
    let loop1: u64 = stats["conns:loop:1"].parse().unwrap();
    assert_eq!(loop0 + loop1, curr);
    assert!(
        loop0 >= 100 && loop1 >= 100,
        "round-robin must spread connections: {loop0} / {loop1}"
    );
    for (i, client) in idle.iter_mut().enumerate().step_by(37) {
        let got = client
            .get(format!("idle-{i}").as_bytes())
            .unwrap()
            .expect("parked connection still serves");
        assert_eq!(got.1, b"parked");
    }

    // Clean shutdown with all 260+ connections open and traffic mid-flight.
    let disconnected = Arc::new(AtomicU64::new(0));
    let in_flight: Vec<_> = (0..3)
        .map(|t| {
            let disconnected = Arc::clone(&disconnected);
            std::thread::spawn(move || {
                let mut client = match CacheClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        disconnected.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                for i in 0u64.. {
                    let key = format!("flight-{t}-{}", i % 8);
                    if client
                        .set(key.as_bytes(), 0, b"x")
                        .and_then(|_| client.get(key.as_bytes()).map(|_| ()))
                        .is_err()
                    {
                        disconnected.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    for h in in_flight {
        h.join().expect("mid-flight worker must not panic");
    }
    assert_eq!(disconnected.load(Ordering::Relaxed), 3);
    // Every parked connection was closed by the teardown.
    for (i, client) in idle.iter_mut().enumerate() {
        assert!(
            client.get(format!("idle-{i}").as_bytes()).is_err(),
            "idle connection {i} must observe the shutdown"
        );
    }
}

/// A reader that stalls mid-response parks its connection on write
/// backpressure; the event loop (there is only one) keeps serving a
/// sibling connection the whole time, and the stalled reader eventually
/// receives every response byte-exact.
#[test]
fn write_backpressure_does_not_block_the_loop() {
    const VALUE_BYTES: usize = 200 * 1024;
    const GETS: usize = 120; // ~24 MB of responses, far past every buffer
    let server = start_server(1, 64);
    let addr = server.local_addr();

    let mut setup = CacheClient::connect(addr).unwrap();
    let payload: Vec<u8> = (0..VALUE_BYTES).map(|i| (i % 251) as u8).collect();
    assert!(setup.set(b"big", 0, &payload).unwrap());

    // The stalling reader: pipeline GETS requests, read nothing yet.
    let stalled = TcpStream::connect(addr).unwrap();
    stalled.set_nodelay(true).unwrap();
    let mut stalled_writer = stalled.try_clone().unwrap();
    let request: Vec<u8> = b"get big\r\n".repeat(GETS);
    stalled_writer.write_all(&request).unwrap();
    // Let the server fill the socket buffers and hit the watermark.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // The sibling on the same (only) event loop must be fully responsive
    // while the stalled connection is parked on EPOLLOUT.
    let mut sibling = CacheClient::connect(addr).unwrap();
    for i in 0..100 {
        let key = format!("sib-{i}");
        assert!(sibling.set(key.as_bytes(), 0, b"quick").unwrap());
        assert_eq!(sibling.get(key.as_bytes()).unwrap().unwrap().1, b"quick");
    }

    // Now drain the stalled connection: every one of the GETS responses
    // must arrive, framed exactly, with the payload intact.
    let mut reader = BufReader::with_capacity(64 * 1024, stalled);
    for response in 0..GETS {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "EOF before response {response}"
        );
        assert_eq!(
            line.trim_end(),
            format!("VALUE big 0 {VALUE_BYTES}"),
            "response {response} header"
        );
        let mut data = vec![0u8; VALUE_BYTES + 2];
        reader.read_exact(&mut data).unwrap();
        assert_eq!(&data[VALUE_BYTES..], b"\r\n");
        assert_eq!(&data[..VALUE_BYTES], &payload[..], "payload {response}");
        let mut end = String::new();
        reader.read_line(&mut end).unwrap();
        assert_eq!(end.trim_end(), "END", "response {response} END");
    }
}

fn plane_stat(server: &CacheServer, name: &str) -> u64 {
    let stats: HashMap<String, String> = server.cache().stats().into_iter().collect();
    stats[name].parse().unwrap()
}

/// Opens a raw connection and finds a key whose shard the *other* loop
/// owns: a GET of it is the one that moves `plane:remote_ops`.
fn connect_with_remote_key(server: &CacheServer) -> (TcpStream, String) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let key = (0..64)
        .map(|i| format!("far-{i}"))
        .find(|key| {
            let before = plane_stat(server, "plane:remote_ops");
            stream
                .write_all(format!("get {key}\r\n").as_bytes())
                .unwrap();
            let mut reply = [0u8; 5];
            stream.read_exact(&mut reply).unwrap();
            assert_eq!(&reply, b"END\r\n");
            plane_stat(server, "plane:remote_ops") > before
        })
        .expect("half of all keys are remote on 2 loops x 2 shards");
    (stream, key)
}

/// A client that pipelines a ring's worth (and more) of remote GETs and
/// disconnects without reading a byte: the replies come back to a token
/// that no longer exists and are dropped, the connection count returns to
/// where it was, and the loops keep serving.
#[test]
fn a_client_that_vanishes_mid_ring_leaks_nothing() {
    let server = start_server(2, 64);
    let mut probe = CacheClient::connect(server.local_addr()).unwrap();
    // A round trip first: `connect` returns before the acceptor has counted
    // the probe, and a baseline of 0 could never be returned to.
    assert!(probe.set(b"still", 0, b"serving").unwrap());
    let baseline = plane_stat(&server, "curr_connections");
    for _ in 0..20 {
        let (mut stream, key) = connect_with_remote_key(&server);
        let request = format!("get {key}\r\n").repeat(256);
        stream.write_all(request.as_bytes()).unwrap();
        drop(stream);
        // The loops are alive while the orphaned ops are in flight.
        assert!(probe.set(b"still", 0, b"serving").unwrap());
        assert_eq!(probe.get(b"still").unwrap().unwrap().1, b"serving");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while plane_stat(&server, "curr_connections") != baseline {
        assert!(
            std::time::Instant::now() < deadline,
            "vanished connections must all be closed: {} live, {baseline} before",
            plane_stat(&server, "curr_connections")
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(probe.get(b"still").unwrap().unwrap().1, b"serving");
}

/// Bytes the kernel holds on the way from the server to a client that is
/// not reading: the server socket's send queue plus the client socket's
/// receive queue, from `/proc/net/tcp` (`tx_queue:rx_queue`, hex).
fn kernel_held_bytes(client_port: u16, server_port: u16) -> u64 {
    let table = std::fs::read_to_string("/proc/net/tcp").expect("procfs is mounted");
    let port = |address: &str| u16::from_str_radix(address.rsplit(':').next().unwrap(), 16);
    let mut held = 0;
    for line in table.lines().skip(1) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Ok(local), Ok(remote)) = (port(fields[1]), port(fields[2])) else {
            continue;
        };
        let (tx, rx) = fields[4].split_once(':').unwrap();
        if (local, remote) == (server_port, client_port) {
            held += u64::from_str_radix(tx, 16).unwrap();
        } else if (local, remote) == (client_port, server_port) {
            held += u64::from_str_radix(rx, 16).unwrap();
        }
    }
    held
}

/// A client pipelines 10k remote GETs of a 4 KB value (~41 MB of replies)
/// and does not read. The ring must not become a queue the socket can grow
/// without limit: what the server has fetched beyond what the kernel took
/// stays within the output watermark plus one ring of replies. Siblings on
/// both loops are answered promptly meanwhile, and when the client finally
/// reads, every reply arrives, in order.
#[test]
fn remote_reads_nobody_reads_back_are_held_to_the_watermark() {
    const VALUE_BYTES: usize = 4096;
    const GETS: usize = 10_000;
    // conn.rs: OUT_HIGH_WATERMARK, and MAX_IN_FLIGHT replies on top of it.
    const WATERMARK: u64 = 256 * 1024;
    const RING: u64 = 128;
    let server = start_server(2, 64);
    let (mut stalled, key) = connect_with_remote_key(&server);
    let payload: Vec<u8> = (0..VALUE_BYTES).map(|i| (i % 251) as u8).collect();
    let mut setup = CacheClient::connect(server.local_addr()).unwrap();
    assert!(setup.set(key.as_bytes(), 0, &payload).unwrap());
    let mut reply = format!("VALUE {key} 0 {VALUE_BYTES}\r\n").into_bytes();
    reply.extend_from_slice(&payload);
    reply.extend_from_slice(b"\r\nEND\r\n");

    let forwarded_before = plane_stat(&server, "plane:remote_ops");
    let request = format!("get {key}\r\n").repeat(GETS);
    stalled.write_all(request.as_bytes()).unwrap();
    // Wait for the server to stop fetching: the count of forwarded ops
    // holds still once backpressure has stalled the connection.
    let mut forwarded = 0;
    let mut quiet = 0;
    while quiet < 5 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = plane_stat(&server, "plane:remote_ops") - forwarded_before;
        quiet = if now == forwarded { quiet + 1 } else { 0 };
        forwarded = now;
    }
    let client_port = stalled.local_addr().unwrap().port();
    let in_kernel = kernel_held_bytes(client_port, server.local_addr().port());
    let buffered = (forwarded * reply.len() as u64).saturating_sub(in_kernel);
    assert!(
        buffered <= WATERMARK + (RING + 1) * reply.len() as u64,
        "{forwarded} replies fetched, {in_kernel} bytes in the kernel: \
         the server buffers {buffered} bytes for a client that reads nothing"
    );
    assert!((forwarded as usize) < GETS, "backpressure never engaged");

    // One sibling per loop (the acceptor round-robins), so one of them
    // shares the stalled connection's loop.
    let started = std::time::Instant::now();
    for s in 0..2 {
        let mut sibling = CacheClient::connect(server.local_addr()).unwrap();
        for i in 0..50 {
            let key = format!("sib-{s}-{i}");
            assert!(sibling.set(key.as_bytes(), 0, b"quick").unwrap());
            assert_eq!(sibling.get(key.as_bytes()).unwrap().unwrap().1, b"quick");
        }
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(1),
        "siblings took {:?} beside a stalled pipeline",
        started.elapsed()
    );

    // Drain: `quit` closes only after everything outstanding was answered.
    stalled.write_all(b"quit\r\n").unwrap();
    let mut replies = Vec::with_capacity(GETS * reply.len());
    stalled.read_to_end(&mut replies).unwrap();
    assert_eq!(replies.len(), GETS * reply.len(), "every reply arrives");
    assert!(
        replies.chunks(reply.len()).all(|chunk| chunk == reply),
        "replies arrive framed and in order"
    );
}

/// The process's resident set, in bytes.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb << 10
}

/// Resident memory belongs to the process, and this binary's other tests
/// run beside the one that measures it: the parent re-executes the binary
/// for test `name` alone, checks that it passed and returns `false`; in that
/// child this returns `true`, and the caller measures.
fn measured_alone(name: &str) -> bool {
    const ALONE: &str = "REACTOR_SCALE_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--nocapture"])
        .env(ALONE, "1")
        .status()
        .expect("re-executing the test binary");
    assert!(status.success(), "the measurement run failed");
    false
}

/// A burst must not pin memory: a fill pass reads up to 256 KB into a
/// connection's input buffer (and one value may be 16 MB), so the buffer
/// grows under a pipelined burst — and has to fall back to a few read
/// chunks once the burst is parsed, or every connection that ever burst
/// keeps its high-water mark for life. 200 connections send 1 MB of
/// pipelined `noreply` stores each (no replies, a handful of keys: neither
/// output buffers nor the cache grow) and go idle; the process's resident
/// set may end at most 32 MB above where it started — 13 MB is what 200
/// idle connections may keep (64 KB each), the rest is allocator slack. A
/// buffer that kept its burst capacity holds about 100 MB here.
#[test]
fn idle_connections_give_their_burst_buffers_back() {
    if !measured_alone("idle_connections_give_their_burst_buffers_back") {
        return;
    }
    const CONNECTIONS: usize = 200;
    let server = start_server(2, 1024);
    let mut burst = Vec::with_capacity(1 << 20);
    for i in 0.. {
        let store = format!("set burst-{} 0 0 1000 noreply\r\n", i % 8);
        if burst.len() + store.len() + 1002 + 9 > 1 << 20 {
            break;
        }
        burst.extend_from_slice(store.as_bytes());
        burst.extend_from_slice(&[b'b'; 1000]);
        burst.extend_from_slice(b"\r\n");
    }
    burst.extend_from_slice(b"version\r\n");
    let round_trip = |stream: &mut TcpStream, request: &[u8]| {
        stream.write_all(request).unwrap();
        let mut reply = String::new();
        BufReader::new(&*stream).read_line(&mut reply).unwrap();
        assert!(reply.starts_with("VERSION "), "{reply:?}");
    };
    let mut fleet: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    for stream in &mut fleet {
        round_trip(stream, b"version\r\n");
    }
    let before = resident_bytes();
    for stream in &mut fleet {
        // The `version` behind the burst answers once all of it is parsed.
        round_trip(stream, &burst);
    }
    let grown = resident_bytes().saturating_sub(before);
    println!("resident set grew by {} KB", grown >> 10);
    assert!(
        grown <= 32 << 20,
        "{CONNECTIONS} idle connections hold {} MB more than before their bursts",
        grown >> 20
    );
}

/// A budget byte should be a real byte: what a resident item costs the
/// process beyond its own key and data — the item's header and malloc
/// chunk, its index bucket, LRU node, and its share of the shadow queues and
/// estimators — is held under a pinned constant. 100,000 items of 12-byte
/// keys and 200-byte values go into a 1-loop, 1-shard server roomy enough to
/// evict none, over loopback, and the server's own `process:*` stats are
/// read before and after. With key and data in two `Bytes` behind a 64-byte
/// index entry this read 179 bytes an item; as one buffer behind a 40-byte
/// entry and a 32-byte LRU node, 117 to 119; with the entry at 32 bytes (the
/// class in 16 bits beside the partition side) and the node at 24 (the
/// charge in 32 bits), 100. `ITEM_BYTES_ITEMS` overrides the count;
/// nightly.yml runs 800,000, which fill the index's next power of two
/// exactly as far (0.76 of its buckets; 1 M items sit in a table twice the
/// size at 0.48 and read 146 with the wider records).
#[test]
fn a_resident_item_costs_a_bounded_number_of_bytes_beyond_its_own() {
    if !measured_alone("a_resident_item_costs_a_bounded_number_of_bytes_beyond_its_own") {
        return;
    }
    /// The measured 100 and a tenth.
    const OVERHEAD_LIMIT: u64 = 110;
    const BATCH: usize = 500;
    let items: usize = std::env::var("ITEM_BYTES_ITEMS")
        .ok()
        .and_then(|items| items.parse().ok())
        .unwrap_or(100_000);
    let server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        backend: BackendConfig {
            total_bytes: (64 << 20) * (items as u64).div_ceil(100_000),
            shards: 1,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let mut process = |field: &str| -> u64 {
        stats_map(&mut client)[&format!("process:{field}")]
            .parse()
            .unwrap()
    };
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut request = Vec::with_capacity(BATCH * 256);
    let mut replies = vec![0u8; BATCH * b"STORED\r\n".len()];
    let before = process("rss_bytes");
    for first in (0..items).step_by(BATCH) {
        request.clear();
        let batch = first..(first + BATCH).min(items);
        let stored = batch.len() * b"STORED\r\n".len();
        for i in batch {
            request.extend_from_slice(format!("set item:{i:07} 0 0 200\r\n").as_bytes());
            request.extend_from_slice(&[b'v'; 200]);
            request.extend_from_slice(b"\r\n");
        }
        stream.write_all(&request).unwrap();
        stream.read_exact(&mut replies[..stored]).unwrap();
    }
    let growth = process("rss_bytes").saturating_sub(before);
    let (resident, payload) = (process("items"), process("item_payload_bytes"));
    assert_eq!(
        (resident, payload),
        (items as u64, items as u64 * 212),
        "every item resident, its key and data counted"
    );
    let overhead = growth.saturating_sub(payload) / resident;
    println!(
        "{resident} items: resident set grew by {growth} bytes for {payload} of keys and \
         data, {overhead} bytes of overhead an item"
    );
    assert!(
        overhead <= OVERHEAD_LIMIT,
        "a resident item costs {overhead} bytes beyond its key and data; \
         the limit is {OVERHEAD_LIMIT}"
    );
}

/// Every data op runs on the loop of the connection that sent it. A single
/// client (pinned to one loop by the round-robin acceptor) drives keys that
/// hash to both shards; its loop must run all of them itself, counting the
/// ops on its home shard as local and the rest as `remote_out`, while the
/// other loop runs none. The per-loop ledgers must account for every op.
#[test]
fn keys_execute_on_the_loop_that_owns_their_shard() {
    const OPS: u64 = 200; // 100 sets + 100 gets, all from one connection
    let server = start_server(2, 64);
    let mut client = CacheClient::connect(server.local_addr()).unwrap();

    for i in 0..100 {
        let key = format!("aff-{i}");
        assert!(client.set(key.as_bytes(), 0, b"pinned").unwrap());
    }
    for i in 0..100 {
        let key = format!("aff-{i}");
        assert_eq!(client.get(key.as_bytes()).unwrap().unwrap().1, b"pinned");
    }

    let stats = stats_map(&mut client);
    assert_eq!(stats["plane:event_loops"], "2");
    // Static homes: shard s is homed on loop s % loops, and with two
    // shards on two loops the homes are disjoint.
    assert_eq!(stats["shard:0:owner_loop"], "0");
    assert_eq!(stats["shard:1:owner_loop"], "1");

    let ledger = |l: usize| -> (u64, u64, u64) {
        (
            stats[&format!("loop:{l}:local_ops")].parse().unwrap(),
            stats[&format!("loop:{l}:remote_in")].parse().unwrap(),
            stats[&format!("loop:{l}:remote_out")].parse().unwrap(),
        )
    };
    // The client sits on exactly one loop; find it by who ran ops.
    let home = if ledger(0).0 + ledger(0).2 > 0 { 0 } else { 1 };
    let other = 1 - home;
    let (home_local, home_in, home_out) = ledger(home);

    // The client's loop ran every op: its home shard's as local, the other
    // shard's as remote. The other loop ran none, and nothing is forwarded.
    assert_eq!(home_local + home_out, OPS, "the client's loop ran all ops");
    assert_eq!(ledger(other), (0, 0, 0), "no client on the other loop");
    assert_eq!(home_in, 0, "no loop runs ops for another");
    assert!(home_local > 0, "some keys hash to the loop's home shard");
    assert!(home_out > 0, "some keys hash to the other shard");
    // Plane-wide rollups agree with the per-loop ledgers.
    assert_eq!(stats["plane:local_ops"].parse::<u64>().unwrap(), home_local);
    assert_eq!(stats["plane:remote_ops"].parse::<u64>().unwrap(), home_out);
}

/// `flush_all` is a control-plane conversation fanned out to every loop
/// while data traffic keeps flowing. Readers must only ever observe their
/// own exact bytes or a clean miss — never a torn or foreign value — and
/// the final flush must leave the cache verifiably empty.
#[test]
fn flush_all_during_traffic_never_corrupts_a_read() {
    let server = start_server(2, 64);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).expect("connect writer");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("fl-{t}-{}", i % 32);
                    let value = format!("writer-{t}-round-{i}");
                    assert!(client.set(key.as_bytes(), 0, value.as_bytes()).unwrap());
                    match client.get(key.as_bytes()).unwrap() {
                        // A flush may race between the set and the get.
                        None => {}
                        Some((_, bytes)) => assert_eq!(
                            bytes,
                            value.as_bytes(),
                            "read must be byte-exact or a clean miss"
                        ),
                    }
                    i += 1;
                }
            })
        })
        .collect();

    let mut flusher = CacheClient::connect(addr).unwrap();
    for _ in 0..25 {
        flusher.flush_all().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer must not panic");
    }

    flusher.flush_all().unwrap();
    let stats = stats_map(&mut flusher);
    assert_eq!(stats["curr_items"], "0", "final flush empties every shard");
    assert_eq!(stats["bytes"], "0");
    assert!(
        stats["plane:admin_msgs"].parse::<u64>().unwrap() >= 26,
        "each flush_all is served by the control thread"
    );
}

/// Tenant-table growth races live traffic. A new tenant's name enters the
/// roster only once every shard holds its cells, so traffic keeps running
/// on the tenants it has, and each new tenant is servable on every shard,
/// through the handle and over the wire, once its create returns. The
/// request path takes only its key's shard lock.
#[test]
fn tenant_table_growth_races_live_traffic() {
    const NEW_TENANTS: usize = 8;
    let server = start_server(2, 64);
    let addr = server.local_addr();
    let cache = server.cache().clone();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).expect("connect writer");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("race-{t}-{}", i % 16);
                    let value = format!("w{t}-gen-{i}");
                    assert!(client.set(key.as_bytes(), 0, value.as_bytes()).unwrap());
                    match client.get(key.as_bytes()).unwrap() {
                        // Re-carving budgets for a new tenant may evict.
                        None => {}
                        Some((_, bytes)) => assert_eq!(bytes, value.as_bytes()),
                    }
                    i += 1;
                }
            })
        })
        .collect();

    // Grow the tenant table under fire, and prove each new tenant is
    // servable on every shard as soon as its create returns: its eight
    // keys spread over both shards, each served under its shard's lock.
    for n in 0..NEW_TENANTS {
        let name = format!("app-{n}");
        let id = cache
            .create_tenant(&name, 1)
            .unwrap_or_else(|e| panic!("create {name}: {e}"));
        for k in 0..8 {
            let key = format!("seed-{n}-{k}");
            assert!(cache.set_for(id, key.as_bytes(), 0, Bytes::from_static(b"fresh")));
            assert_eq!(
                cache.get_for(id, key.as_bytes()).expect("own write").1,
                Bytes::from_static(b"fresh")
            );
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer must survive every table mutation");
    }

    // The wire protocol sees the grown table too.
    let mut client = CacheClient::connect(addr).unwrap();
    let apps = client.app_list().unwrap();
    assert_eq!(apps.len(), 1 + NEW_TENANTS);
    assert!(client.app("app-3").unwrap());
    assert!(client.set(b"wired", 0, b"up").unwrap());
    assert_eq!(client.get(b"wired").unwrap().unwrap().1, b"up");

    let stats = stats_map(&mut client);
    assert_eq!(
        stats["tenant_count"],
        (1 + NEW_TENANTS).to_string(),
        "every app_create committed"
    );
    // Each create is an admin command run under the control lock, and
    // counted as one.
    assert!(stats["plane:admin_msgs"].parse::<u64>().unwrap() >= NEW_TENANTS as u64);
}

/// A budget transfer shrinks the loser's engines, each under its shard's
/// lock, then grows the winner's; concurrency must never let the budget
/// vector sum past the configured total, and skewed demand must still move
/// bytes toward the needy tenant while traffic runs on the same shards.
#[test]
fn message_based_transfers_conserve_the_budget_total() {
    const TOTAL: u64 = 16 << 20;
    let server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 64,
        backend: BackendConfig {
            total_bytes: TOTAL,
            mode: BackendMode::Cliffhanger,
            shards: 2,
            tenants: vec![TenantSpec::new("greedy", 1), TenantSpec::new("modest", 1)],
            tenant_balance: ShardBalanceConfig {
                interval_requests: 1_024,
                credit_bytes: 256 << 10,
                min_shard_bytes: 1 << 20,
                min_gradient_gap: 4,
                hysteresis: 0.05,
                ..ShardBalanceConfig::tenant_default()
            },
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let cache = server.cache().clone();
    let greedy = cache.tenant_index("greedy").unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Greedy's demand: disjoint key ranges whose combined population lands
    // past the physical capacity of each engine but inside its shadow
    // window, so reuse distances register as shadow hits (the gradient
    // signal) instead of physical hits or silence (the geometry
    // `plane_control.rs` derives). Every op here runs in its worker's
    // thread under its key's shard lock.
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let cache = cache.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let payload = Bytes::from(vec![b'g'; 200]);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("g{w}-{}", i % 6_600);
                    cache.set_for(greedy, key.as_bytes(), 0, payload.clone());
                    cache.get_for(greedy, key.as_bytes());
                    i += 1;
                }
            })
        })
        .collect();

    // Force arbitration rounds concurrently with the traffic.
    let poker = {
        let cache = cache.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache.arbitrate_now();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        })
    };
    // Audit conservation at every observable instant: shrink-then-grow
    // means the sum may briefly dip below the total mid-transfer, but it
    // must never exceed it.
    let violations = Arc::new(AtomicU64::new(0));
    let auditor = {
        let cache = cache.clone();
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let sum: u64 = cache.tenant_budgets().iter().sum();
                if sum > TOTAL {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    // Wait until a transfer has actually happened (bounded), so the
    // conservation assertions below are about a plane that really moved
    // budget, not one that sat still.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let transfers = loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let stats: HashMap<String, String> = cache.stats().into_iter().collect();
        let transfers: u64 = stats["arbiter:transfers"].parse().unwrap();
        if transfers > 0 || std::time::Instant::now() >= deadline {
            break transfers;
        }
    };
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("traffic worker must not panic");
    }
    poker.join().unwrap();
    auditor.join().unwrap();

    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "budget sum exceeded the configured total mid-transfer"
    );
    assert!(transfers > 0, "skewed demand must have moved budget");
    let budgets = cache.tenant_budgets();
    assert_eq!(budgets.iter().sum::<u64>(), TOTAL, "quiescent sum is exact");
    let modest = cache.tenant_index("modest").unwrap();
    assert!(
        budgets[greedy] > budgets[modest],
        "bytes must flow toward the loaded tenant: {budgets:?}"
    );
}
