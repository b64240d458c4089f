//! Every loop serves every shard, each shard behind one lock: what the
//! locks must keep true while rounds move budget and admin calls flush
//! and onboard tenants under the same locks.
//!
//! Four loops serve eight shards; eight clients pipeline writes and reads
//! over the wire, every one of them to keys on every shard, while a thread
//! runs rebalancing and arbitration rounds, flushes the default tenant and
//! creates tenants. A client's own keys are written by it alone: a read
//! returns the last write of the key the server acknowledged before it, or
//! a miss (evicted or flushed), never an older write. Keys every client writes return, on a
//! hit, a value some client wrote to that key. Once quiet, the tenants'
//! budgets sum to the configured total. A watchdog fails the test if
//! anything hangs.

use cache_server::{BackendConfig, BackendMode, CacheServer, ServerConfig, TenantSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const ROUNDS: usize = 300;
const OWN_KEYS: usize = 40;
const SHARED_KEYS: usize = 32;
const TOTAL_BYTES: u64 = 16 << 20;

/// One reply as the test reads it: a GET's hit (flags, data), a miss, or a
/// store's status line.
#[derive(Debug)]
enum Reply {
    Hit(u32, Vec<u8>),
    Miss,
    Status(String),
}

fn read_reply(reader: &mut impl BufRead, get: bool) -> Reply {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    let line = line.trim_end().to_string();
    if !get {
        return Reply::Status(line);
    }
    if line == "END" {
        return Reply::Miss;
    }
    let fields: Vec<&str> = line.split(' ').collect();
    assert_eq!(fields[0], "VALUE", "a GET reply: {line}");
    let (flags, len): (u32, usize) = (fields[2].parse().unwrap(), fields[3].parse().unwrap());
    let mut data = vec![0; len + 2];
    reader.read_exact(&mut data).unwrap();
    data.truncate(len);
    let mut end = String::new();
    reader.read_line(&mut end).unwrap();
    assert_eq!(end.trim_end(), "END");
    Reply::Hit(flags, data)
}

/// A value of a few hundred to a few thousand bytes that names its key and
/// its writer's `n`th write.
fn value(key: &str, client: usize, n: u64) -> String {
    let pad = "x".repeat(200 + (n as usize * 37 + client * 101) % 2500);
    format!("{key}|{client}|{n}|{pad}")
}

/// One client: rounds of one pipelined batch each — a write and a read of
/// some own keys, a write and a read of some shared ones — checked as the
/// replies come back. `issued[c]` counts the writes client `c` has sent.
/// Returns how many reads of its own keys hit.
fn client(addr: SocketAddr, c: usize, issued: &[AtomicU64]) -> u64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // The last write to each own key the server acknowledged.
    let mut acked: HashMap<String, u64> = HashMap::new();
    let (mut n, mut own_hits) = (0u64, 0);
    for round in 0..ROUNDS {
        let mut wire = String::new();
        // Each command's key, and the write's number for a `set`.
        let mut sent: Vec<(String, Option<u64>)> = Vec::new();
        for i in 0..12 {
            let own = format!("c{c}-k{}", (round * 7 + i * 31) % OWN_KEYS);
            let shared = format!("shared-{}", (round + i * 5) % SHARED_KEYS);
            for key in [own, shared] {
                if i % 3 == 2 {
                    wire.push_str(&format!("get {key}\r\n"));
                    sent.push((key, None));
                    continue;
                }
                n += 1;
                issued[c].fetch_max(n, Ordering::SeqCst);
                let data = value(&key, c, n);
                wire.push_str(&format!("set {key} {c} 0 {}\r\n{data}\r\n", data.len()));
                sent.push((key, Some(n)));
            }
        }
        stream.write_all(wire.as_bytes()).unwrap();
        // Replies come in program order, so `acked` holds, at each GET's
        // reply, every earlier write's outcome.
        for (key, write) in sent {
            match read_reply(&mut reader, write.is_none()) {
                Reply::Status(status) if status == "STORED" => {
                    if key.starts_with('c') {
                        acked.insert(key, write.unwrap());
                    }
                }
                Reply::Status(status) => {
                    assert_eq!(status, "NOT_STORED", "client {c}: set {key}");
                }
                Reply::Miss => {}
                Reply::Hit(flags, data) => {
                    let data = String::from_utf8(data).unwrap();
                    let fields: Vec<&str> = data.splitn(4, '|').collect();
                    let (writer, nth): (usize, u64) =
                        (fields[1].parse().unwrap(), fields[2].parse().unwrap());
                    assert_eq!(fields[0], key, "client {c}: a hit of another key");
                    assert_eq!(flags as usize, writer, "client {c}: {key}'s flags");
                    assert_eq!(data, value(&key, writer, nth), "client {c}: {key} torn");
                    if key.starts_with('c') {
                        assert_eq!(
                            Some(&nth),
                            acked.get(&key),
                            "client {c}: {key} is not its last acknowledged write"
                        );
                        own_hits += 1;
                    } else {
                        assert!(
                            nth <= issued[writer].load(Ordering::SeqCst),
                            "client {c}: {key} holds a write nobody sent"
                        );
                    }
                }
            }
        }
    }
    stream.write_all(b"quit\r\n").unwrap();
    own_hits
}

fn shared_shards_under_every_control_operation() {
    let server = CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        backend: BackendConfig {
            total_bytes: TOTAL_BYTES,
            mode: BackendMode::Cliffhanger,
            shards: 8,
            tenants: vec![TenantSpec::new("other", 1)],
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    assert_eq!(server.cache().shard_count(), 8);
    let addr = server.local_addr();
    let issued: Arc<Vec<AtomicU64>> = Arc::new((0..CLIENTS).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let admin = {
        let (cache, stop) = (Arc::clone(server.cache()), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut created = 0;
            for step in 0.. {
                // Every tenant is created, if the clients finish first.
                if stop.load(Ordering::SeqCst) && created == 3 {
                    break;
                }
                // Mostly rounds; now and then a flush, which empties the
                // clients' keys, and a new tenant.
                match step % 16 {
                    14 => cache.flush_tenant(0),
                    15 if created < 3 => {
                        cache
                            .create_tenant(&format!("new{created}"), 1)
                            .expect("room for a small tenant");
                        created += 1;
                    }
                    15 => {}
                    odd if odd % 2 == 1 => cache.arbitrate_now(),
                    _ => cache.rebalance_now(),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            created
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || client(addr, c, &issued))
        })
        .collect();
    let own_hits: u64 = clients
        .into_iter()
        .map(|client| client.join().expect("a client's reads held"))
        .sum();
    assert!(
        own_hits > 1_000,
        "too few reads hit to mean anything: {own_hits}"
    );
    stop.store(true, Ordering::SeqCst);
    assert_eq!(admin.join().expect("the admin thread"), 3);

    let cache = server.cache();
    assert_eq!(cache.tenant_count(), 5);
    let budgets = cache.tenant_budgets();
    assert_eq!(
        budgets.iter().sum::<u64>(),
        TOTAL_BYTES,
        "budgets must sum to the total once quiet: {budgets:?}"
    );
    let stats: HashMap<String, String> = cache.stats().into_iter().collect();
    for l in 0..4 {
        assert_eq!(stats[&format!("loop:{l}:remote_in")], "0");
    }
    assert!(stats["plane:remote_ops"].parse::<u64>().unwrap() > 0);
}

#[test]
fn every_loop_serves_every_shard_under_rounds_flushes_and_new_tenants() {
    let (done, finished) = channel();
    let body = std::thread::spawn(move || {
        shared_shards_under_every_control_operation();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => body.join().unwrap(),
        // The body panicked: re-raise its failure.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = body.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("no progress in 30 s: a lock or a reply hangs"),
    }
}
