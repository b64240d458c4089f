//! End-to-end hot-key replication consistency.
//!
//! A promoted key is served from per-loop replica caches, so the sharp
//! question is staleness: a GET issued *after* a SET was acknowledged must
//! never return the overwritten value, no matter which loop serves it and
//! no matter how the promotion set churns mid-flight. The protocol under
//! test: the owning loop bumps the key's version slot before the write is
//! acknowledged, and a replica entry serves only while its captured
//! version equals the live slot.
//!
//! Four angles:
//! * promotion end-to-end — heat a key over TCP, force a control round,
//!   and require the promoted set, replica hits and the `stats json`
//!   `hot_keys` block to all show it;
//! * a concurrent SET storm on a promoted key with readers spread across
//!   all four loops, every read asserting version >= the last write that
//!   was acknowledged before the read began, while promotion rounds churn
//!   the key in and out of the hot set;
//! * demotion under churn — once the traffic moves on, the key must leave
//!   the promoted set;
//! * read-your-writes inside one pipeline — a GET pipelined behind a SET of
//!   the same promoted key is issued *before* that SET is acknowledged (the
//!   connection no longer waits for remote acks), so it must bypass the
//!   replica, whose version the owner has not bumped yet.

use cache_server::{BackendConfig, CacheClient, CacheServer, HotKeyConfig, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const WORKERS: usize = 4;

fn start_server(hot_key: HotKeyConfig) -> CacheServer {
    CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        backend: BackendConfig {
            total_bytes: 32 << 20,
            shards: 8,
            hot_key,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start")
}

/// Parses the probe payload `v:<n>:<padding>` back to `n`.
fn probe_version(data: &[u8]) -> u64 {
    let text = std::str::from_utf8(data).expect("probe payload is ASCII");
    let mut parts = text.splitn(3, ':');
    assert_eq!(parts.next(), Some("v"), "unexpected probe payload {text:?}");
    parts
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable probe payload {text:?}"))
}

fn probe_payload(n: u64) -> Vec<u8> {
    format!("v:{n}:{}", "x".repeat(64)).into_bytes()
}

fn replica_hits(server: &CacheServer) -> u64 {
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let doc: serde_json::Value =
        serde_json::from_str(&client.stats_json().unwrap()).expect("stats json must parse");
    doc.get("hot_keys")
        .and_then(|h| h.get("replica_hits"))
        .and_then(serde_json::Value::as_u64)
        .expect("hot_keys block must be present when the feature is on")
}

#[test]
fn promotion_serves_replica_hits_and_shows_in_stats() {
    let server = start_server(HotKeyConfig::aggressive());
    let mut heater = CacheClient::connect(server.local_addr()).unwrap();
    assert!(heater.set(b"viral", 7, b"payload").unwrap());
    for _ in 0..200 {
        assert!(heater.get(b"viral").unwrap().is_some());
    }
    server.cache().hot_round_now();
    let promoted = server.cache().promoted_keys();
    assert!(
        promoted.contains(&("default".to_string(), "viral".to_string())),
        "200 tracked GETs must promote the key: {promoted:?}"
    );

    // Eight connections round-robin across four loops: at least six sit on
    // loops that do not own the key, and their second GET must be a local
    // replica hit (the first rides the forward and fills).
    let mut clients: Vec<CacheClient> = (0..2 * WORKERS)
        .map(|_| CacheClient::connect(server.local_addr()).unwrap())
        .collect();
    for client in &mut clients {
        for _ in 0..2 {
            let (flags, data) = client.get(b"viral").unwrap().expect("promoted key hit");
            assert_eq!(flags, 7);
            assert_eq!(data, b"payload");
        }
    }
    let hits = replica_hits(&server);
    assert!(hits > 0, "non-owning loops must serve locally: {hits}");

    // The document shows the full observability block.
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&client.stats_json().unwrap()).unwrap();

    // Replica-served GETs must not vanish from the tenant's wire counters:
    // every GET issued so far was a hit, locally served or not.
    let issued = 200 + 2 * clients.len() as u64;
    let tenant = doc
        .get("tenants")
        .and_then(serde_json::Value::as_array)
        .and_then(|t| t.first())
        .expect("default tenant doc");
    let tenant_hits = tenant
        .get("get_hits")
        .and_then(serde_json::Value::as_u64)
        .unwrap();
    assert!(
        tenant_hits >= issued,
        "tenant get_hits ({tenant_hits}) must include the {hits} \
         replica-served GETs of the {issued} issued"
    );
    let hot = doc.get("hot_keys").expect("hot_keys block");
    let counter = |name: &str| hot.get(name).and_then(serde_json::Value::as_u64).unwrap();
    assert!(counter("promotions") >= 1);
    assert!(counter("rounds") >= 1);
    assert!(counter("replica_fills") >= 1);
    let entry_field = |e: &serde_json::Value, name: &str| {
        e.get(name)
            .and_then(serde_json::Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let tracked = hot
        .get("tracked")
        .and_then(serde_json::Value::as_array)
        .unwrap();
    assert!(
        tracked.iter().any(|e| {
            entry_field(e, "app") == "default"
                && entry_field(e, "key") == "viral"
                && e.get("ops").and_then(serde_json::Value::as_u64).unwrap() > 0
        }),
        "the tracker must expose the hot key: {tracked:?}"
    );
    let promoted_doc = hot
        .get("promoted")
        .and_then(serde_json::Value::as_array)
        .unwrap();
    assert!(promoted_doc
        .iter()
        .any(|e| entry_field(e, "key") == "viral"));

    // And the Prometheus exposition carries the per-key series.
    let prom = client.stats_prom().unwrap();
    assert!(prom.contains("cliffhanger_hot_key_ops{app=\"default\",key=\"viral\"}"));
    assert!(prom.contains("cliffhanger_hot_key_replica_hits_total"));
}

#[test]
fn no_stale_reads_while_promotion_churns_under_a_set_storm() {
    // Small window + tiny thresholds + max_promoted 2 with competing keys:
    // the probe key is repeatedly displaced and re-promoted while the storm
    // runs, which is exactly when a stale replica would slip through.
    let server = start_server(HotKeyConfig {
        enabled: true,
        sample: 1,
        window: 512,
        promote_threshold: 16,
        demote_threshold: 4,
        max_promoted: 2,
        interval_requests: 4096,
        ..HotKeyConfig::aggressive()
    });
    let addr = server.local_addr();

    // Seed and heat the probe key so the first round promotes it.
    let mut seed = CacheClient::connect(addr).unwrap();
    assert!(seed.set(b"probe", 0, &probe_payload(0)).unwrap());
    for _ in 0..64 {
        seed.get(b"probe").unwrap();
    }
    server.cache().hot_round_now();
    assert!(
        server
            .cache()
            .promoted_keys()
            .contains(&("default".to_string(), "probe".to_string())),
        "the probe key must start promoted"
    );

    let last_acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // The writer: acknowledge-then-publish. `last_acked` only moves after
    // the server said STORED, so any reader snapshot is a write whose
    // version bump is already observable.
    let writer = {
        let last_acked = Arc::clone(&last_acked);
        std::thread::spawn(move || {
            let mut client = CacheClient::connect(addr).unwrap();
            for n in 1..=1_500u64 {
                assert!(client.set(b"probe", 0, &probe_payload(n)).unwrap());
                last_acked.store(n, Ordering::Release);
            }
        })
    };

    // The churn actor: heats two competitor keys (displacing the probe from
    // the top-2) and alternates with probe-only heat, forcing rounds the
    // whole time so promotion state flips mid-storm.
    let churn = {
        let stop = Arc::clone(&stop);
        let cache = Arc::clone(server.cache());
        std::thread::spawn(move || {
            let mut client = CacheClient::connect(addr).unwrap();
            client.set(b"rival-a", 0, b"a").unwrap();
            client.set(b"rival-b", 0, b"b").unwrap();
            let mut flips = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..48 {
                    client.get(b"rival-a").unwrap();
                    client.get(b"rival-b").unwrap();
                }
                cache.hot_round_now();
                flips += 1;
            }
            flips
        })
    };

    // Readers across all loops: snapshot the acknowledged frontier, read,
    // and require the observed version to be at or past the snapshot.
    let readers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let last_acked = Arc::clone(&last_acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).unwrap();
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let floor = last_acked.load(Ordering::Acquire);
                    let (_, data) = client
                        .get(b"probe")
                        .unwrap()
                        .expect("the probe key is never deleted or evicted");
                    let seen = probe_version(&data);
                    assert!(
                        seen >= floor,
                        "stale read: observed v{seen} after v{floor} was acknowledged"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    writer.join().expect("writer must not panic");
    stop.store(true, Ordering::Relaxed);
    let flips = churn.join().expect("churn actor must not panic");
    let reads: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader must not panic"))
        .sum();
    assert!(flips >= 2, "promotion rounds must have churned: {flips}");
    assert!(
        reads > 100,
        "readers must have exercised the storm: {reads}"
    );
    assert_eq!(
        last_acked.load(Ordering::Acquire),
        1_500,
        "the writer must have completed the storm"
    );

    // Final read on a fresh connection: exactly the last acknowledged
    // write, on every loop.
    let mut clients: Vec<CacheClient> = (0..2 * WORKERS)
        .map(|_| CacheClient::connect(addr).unwrap())
        .collect();
    for client in &mut clients {
        let (_, data) = client.get(b"probe").unwrap().expect("probe survives");
        assert_eq!(probe_version(&data), 1_500);
    }
}

#[test]
fn flush_all_is_never_shadowed_by_stale_replicas() {
    // `flush_all` rebuilds the tenant's engines without being able to
    // enumerate its keys, so it bumps every version slot before
    // acknowledging: a replica's next read finds its slot moved and drops
    // the entry. A GET on any loop after the ack must miss — a replica
    // serving the pre-flush value here is exactly the
    // acknowledged-mutation-shadowed bug.
    let server = start_server(HotKeyConfig::aggressive());
    let addr = server.local_addr();
    let mut heater = CacheClient::connect(addr).unwrap();
    assert!(heater.set(b"viral", 7, b"pre-flush").unwrap());
    for _ in 0..200 {
        assert!(heater.get(b"viral").unwrap().is_some());
    }
    server.cache().hot_round_now();
    assert!(server
        .cache()
        .promoted_keys()
        .contains(&("default".to_string(), "viral".to_string())));

    // Warm a replica on every loop: two clients per loop, two GETs each
    // (the first forwards and fills, the second hits locally).
    let mut clients: Vec<CacheClient> = (0..2 * WORKERS)
        .map(|_| CacheClient::connect(addr).unwrap())
        .collect();
    for client in &mut clients {
        for _ in 0..2 {
            assert_eq!(client.get(b"viral").unwrap().unwrap().1, b"pre-flush");
        }
    }
    assert!(replica_hits(&server) > 0, "replicas must be warm pre-flush");

    heater.flush_all().unwrap();
    for client in &mut clients {
        assert_eq!(
            client.get(b"viral").unwrap(),
            None,
            "an acknowledged flush_all must not be shadowed by a replica"
        );
    }

    // The subsystem still works after the slot-wide bump: a fresh value
    // promotes and replicates again.
    assert!(heater.set(b"viral", 7, b"post-flush").unwrap());
    for _ in 0..200 {
        assert!(heater.get(b"viral").unwrap().is_some());
    }
    server.cache().hot_round_now();
    for client in &mut clients {
        for _ in 0..2 {
            assert_eq!(client.get(b"viral").unwrap().unwrap().1, b"post-flush");
        }
    }
}

#[test]
fn failed_mutations_do_not_invalidate_replicas() {
    // `add` on a present key and `delete` of a missing key change nothing,
    // so they must not bump the version slot: every warmed replica keeps
    // serving without a refill round-trip.
    let server = start_server(HotKeyConfig::aggressive());
    let addr = server.local_addr();
    let mut heater = CacheClient::connect(addr).unwrap();
    assert!(heater.set(b"viral", 0, b"payload").unwrap());
    for _ in 0..200 {
        assert!(heater.get(b"viral").unwrap().is_some());
    }
    server.cache().hot_round_now();
    assert!(server
        .cache()
        .promoted_keys()
        .contains(&("default".to_string(), "viral".to_string())));

    // Warm every loop's replica, then settle the baseline hit counter.
    let mut clients: Vec<CacheClient> = (0..2 * WORKERS)
        .map(|_| CacheClient::connect(addr).unwrap())
        .collect();
    for client in &mut clients {
        for _ in 0..2 {
            assert!(client.get(b"viral").unwrap().is_some());
        }
    }
    let before = replica_hits(&server);

    // Both failed mutations: NOT_STORED and NOT_FOUND.
    assert!(!heater.add(b"viral", 0, b"usurper").unwrap());
    assert!(!heater.delete(b"never-stored").unwrap());

    // One GET per client: every one on a non-owning loop must still be a
    // replica hit (at least 2 * WORKERS - 2 of the 2 * WORKERS clients).
    // Had the failed mutations bumped the version, each loop's first GET
    // would have evicted the replica and forwarded instead.
    for client in &mut clients {
        assert_eq!(client.get(b"viral").unwrap().unwrap().1, b"payload");
    }
    let delta = replica_hits(&server) - before;
    assert!(
        delta >= (2 * WORKERS - 2) as u64,
        "failed mutations must not evict valid replicas: only {delta} of \
         {} GETs hit locally",
        2 * WORKERS
    );
}

#[test]
fn a_cooled_key_is_demoted_once_traffic_moves_on() {
    let server = start_server(HotKeyConfig {
        enabled: true,
        sample: 1,
        window: 256,
        promote_threshold: 16,
        demote_threshold: 4,
        interval_requests: 1 << 20,
        ..HotKeyConfig::aggressive()
    });
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    assert!(client.set(b"fad", 0, b"v").unwrap());
    for _ in 0..64 {
        client.get(b"fad").unwrap();
    }
    server.cache().hot_round_now();
    assert!(
        server
            .cache()
            .promoted_keys()
            .contains(&("default".to_string(), "fad".to_string())),
        "the fad must first be promoted"
    );

    // Traffic moves on: thousands of distinct keys slide every loop's
    // sample window past the fad's entries, so its merged count decays
    // below the demotion threshold.
    for i in 0..2_000u64 {
        let key = format!("long-tail-{i}");
        client.set(key.as_bytes(), 0, b"t").unwrap();
        client.get(key.as_bytes()).unwrap();
    }
    server.cache().hot_round_now();
    let promoted = server.cache().promoted_keys();
    assert!(
        !promoted.contains(&("default".to_string(), "fad".to_string())),
        "a cooled key must be demoted: {promoted:?}"
    );
    // The value itself is untouched — demotion only drops replicas.
    assert_eq!(client.get(b"fad").unwrap().unwrap().1, b"v");
}

/// A raw connection, so the test controls what shares one `write`.
struct Pipe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Pipe {
    /// Sends `get` once per key in one write and reads the replies.
    fn get_each(&mut self, keys: &[&str]) -> Vec<Option<Vec<u8>>> {
        let request: String = keys.iter().map(|key| format!("get {key}\r\n")).collect();
        self.writer.write_all(request.as_bytes()).unwrap();
        keys.iter().map(|_| self.read_get_reply()).collect()
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line
    }

    fn read_get_reply(&mut self) -> Option<Vec<u8>> {
        let header = self.read_line();
        if header == "END\r\n" {
            return None;
        }
        let len: usize = header
            .trim_end()
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected get reply {header:?}"));
        let mut data = vec![0u8; len + 2];
        self.reader.read_exact(&mut data).unwrap();
        data.truncate(len);
        assert_eq!(self.read_line(), "END\r\n");
        Some(data)
    }

    /// `set key v:n` and `get key` in one write — the GET reaches the
    /// server with its SET still un-acked. Returns the version read back.
    fn set_then_get(&mut self, key: &str, n: u64) -> u64 {
        let payload = probe_payload(n);
        let mut request = format!("set {key} 0 0 {}\r\n", payload.len()).into_bytes();
        request.extend_from_slice(&payload);
        request.extend_from_slice(format!("\r\nget {key}\r\n").as_bytes());
        self.writer.write_all(&request).unwrap();
        assert_eq!(self.read_line(), "STORED\r\n");
        probe_version(&self.read_get_reply().expect("the key was just set"))
    }
}

#[test]
fn a_get_pipelined_behind_a_set_of_a_promoted_key_reads_that_set() {
    const ROUNDS: u64 = 10_000;
    let server = start_server(HotKeyConfig::aggressive());
    let writer = TcpStream::connect(server.local_addr()).unwrap();
    writer.set_nodelay(true).unwrap();
    let reader = BufReader::new(writer.try_clone().unwrap());
    let mut pipe = Pipe { writer, reader };

    // Find a key another loop owns (3 in 4 are) and warm this loop's
    // replica of it: promoted, filled, and serving local hits.
    let key = (0..64)
        .map(|i| format!("ryw-{i}"))
        .find(|key| {
            for _ in 0..200 {
                pipe.set_then_get(key, 0);
            }
            server.cache().hot_round_now();
            // A forwarded GET's reply fills the freshly promoted key's
            // replica, whatever an automatic round left there before.
            pipe.set_then_get(key, 0);
            let before = replica_hits(&server);
            assert!(pipe.get_each(&[key, key]).iter().all(Option::is_some));
            replica_hits(&server) > before
        })
        .expect("some candidate key is remote to this connection");

    for n in 1..=ROUNDS {
        let seen = pipe.set_then_get(&key, n);
        assert_eq!(seen, n, "stale read: v{seen} right behind the set of v{n}");
    }
    assert!(
        server
            .cache()
            .promoted_keys()
            .contains(&("default".to_string(), key.clone())),
        "{key} must have stayed promoted for the whole run"
    );
}
