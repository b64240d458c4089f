//! Differential property test: the completion ring changes scheduling,
//! never bytes.
//!
//! The same pipelined script goes, in one `write_all`, to a 2-loop ×
//! 4-shard server — half the keys are remote to whichever loop the
//! connection lands on, so commands resolve through the in-order completion
//! ring — and to a 1-loop server, where every key is local and every
//! response is encoded inline. Scripts mix `get`, multi-key `get`,
//! `set`/`add`/`replace`/`delete` with and without `noreply`, `app` switches
//! (valid and not), `flush_all` barriers and garbage lines over a key space
//! small enough that order decides what a read returns; depths run from 1
//! to well past the ring's in-flight cap. Every script ends in `quit`, so
//! the server closes only once everything outstanding has been answered,
//! and the two reply streams must be byte-identical.
//!
//! A 3-loop x 6-shard server runs the same scripts: there a connection's
//! remote keys have two owners, whose batches come back in either order, so
//! a reply can resolve an entry that is not at the ring's head and its bytes
//! are spliced into the staging buffer where the entry sits. Fixed scripts
//! cover what the random ones reach only by luck: values that push the
//! output past the 16 KB a connection holds back while its ring is
//! unanswered, and `quit` or the peer's EOF directly behind a remote op with
//! held bytes ahead of it (everything drains, then the server closes).
//!
//! A script starts by flushing every namespace, so a case depends on its
//! seed alone: a failure names the seed, and `PIPELINE_ORDER_SEED=<seed>`
//! replays that one case. `PIPELINE_ORDER_CASES` sets how many seeds run
//! (the nightly job runs 20× the default).

use cache_server::{BackendConfig, CacheClient, CacheServer, ServerConfig, TenantSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DEFAULT_CASES: u64 = 64;
const TENANTS: [&str; 2] = ["alpha", "beta"];
const STORE_VERBS: [&str; 3] = ["set", "add", "replace"];

fn start_server(workers: usize, shards: usize) -> CacheServer {
    CacheServer::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        backend: BackendConfig {
            total_bytes: 48 << 20,
            shards,
            tenants: TENANTS.iter().map(|t| TenantSpec::new(*t, 1)).collect(),
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start")
}

/// One wire command of a script.
fn command() -> impl Strategy<Value = String> {
    let key = || (0usize..12).prop_map(|k| format!("k{k}"));
    let noreply = || any::<bool>().prop_map(|on| if on { " noreply" } else { "" });
    prop_oneof![
        key().prop_map(|k| format!("get {k}\r\n")),
        key().prop_map(|k| format!("get {k}\r\n")),
        prop::collection::vec(key(), 2..6).prop_map(|keys| format!("get {}\r\n", keys.join(" "))),
        // The random flags come back with every hit, so they tell the
        // writes of one key apart.
        (0usize..3, key(), any::<u16>(), 0usize..48, noreply()).prop_map(
            |(verb, k, flags, len, tail)| {
                let (verb, data) = (STORE_VERBS[verb], "v".repeat(len));
                format!("{verb} {k} {flags} 0 {len}{tail}\r\n{data}\r\n")
            }
        ),
        (key(), noreply()).prop_map(|(k, tail)| format!("delete {k}{tail}\r\n")),
        (0usize..4).prop_map(|t| format!("app {}\r\n", ["default", "alpha", "beta", "nope"][t])),
        Just("flush_all\r\n".to_string()),
        Just("version\r\n".to_string()),
        Just("bogus line\r\n".to_string()),
    ]
}

/// The script of `seed`: a flush of every namespace (each case starts from
/// an empty cache whatever ran before it), the generated commands, `quit`.
fn script(seed: u64) -> (usize, Vec<u8>) {
    let mut rng = TestRng::from_seed(seed);
    let depth = prop_oneof![1usize..4, 4usize..64, 120usize..140, 140usize..400].generate(&mut rng);
    let mut wire = String::from("flush_all\r\n");
    for tenant in TENANTS {
        wire.push_str(&format!("app {tenant}\r\nflush_all\r\n"));
    }
    wire.push_str("app default\r\n");
    for _ in 0..depth {
        wire.push_str(&command().generate(&mut rng));
    }
    wire.push_str("quit\r\n");
    (depth, wire.into_bytes())
}

/// Writes the whole script at once and reads replies until the server
/// closes the connection.
fn exchange(addr: SocketAddr, script: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(script).unwrap();
    let mut replies = Vec::new();
    stream
        .read_to_end(&mut replies)
        .expect("the server answers everything, then closes on quit");
    replies
}

fn env_u64(name: &str) -> Option<u64> {
    let value = std::env::var(name).ok()?;
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{name}={value} is not a number")),
    )
}

/// Runs the seeded scripts against a `workers`-loop x `shards`-shard server
/// and a 1-loop one; the reply streams must be byte-identical.
fn loops_answer_byte_for_byte_like_one(workers: usize, shards: usize) {
    let ringed = start_server(workers, shards);
    let inline = start_server(1, 1);
    let replay = env_u64("PIPELINE_ORDER_SEED");
    let cases = if replay.is_some() {
        1
    } else {
        env_u64("PIPELINE_ORDER_CASES").unwrap_or(DEFAULT_CASES)
    };
    let mut seeds = TestRng::deterministic();
    let mut deepest = 0;
    for _ in 0..cases {
        let seed = replay.unwrap_or_else(|| seeds.next_u64());
        let (depth, wire) = script(seed);
        deepest = deepest.max(depth);
        let expected = exchange(inline.local_addr(), &wire);
        let got = exchange(ringed.local_addr(), &wire);
        assert!(
            got == expected,
            "reply streams differ at depth {depth}; replay with PIPELINE_ORDER_SEED={seed}\n\
             --- script\n{}\n--- one loop\n{}\n--- {workers} loops\n{}",
            String::from_utf8_lossy(&wire),
            String::from_utf8_lossy(&expected),
            String::from_utf8_lossy(&got),
        );
    }
    if replay.is_none() {
        assert!(
            deepest > 128,
            "no script ran past the in-flight cap: {deepest}"
        );
    }

    // The comparison meant something: one side crossed loops, one never did.
    assert!(remote_ops(&ringed) > 0);
    assert_eq!(remote_ops(&inline), 0);
}

fn remote_ops(server: &CacheServer) -> u64 {
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let stats: std::collections::HashMap<_, _> = client.stats().unwrap().into_iter().collect();
    stats["plane:remote_ops"].parse().unwrap()
}

#[test]
fn two_loops_answer_byte_for_byte_like_one() {
    loops_answer_byte_for_byte_like_one(2, 4);
}

#[test]
fn three_loops_answer_byte_for_byte_like_one() {
    loops_answer_byte_for_byte_like_one(3, 6);
}

/// Like [`exchange`], but the script ends with the client closing its
/// writing half instead of `quit`.
fn exchange_until_eof(addr: SocketAddr, script: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(script).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    stream
        .read_to_end(&mut replies)
        .expect("the server answers everything, then closes on EOF");
    replies
}

#[test]
fn held_bytes_leave_in_order_past_the_limit_and_before_the_close() {
    const KEYS: usize = 12;
    let inline = start_server(1, 1);
    for (workers, shards) in [(2, 4), (3, 6)] {
        let ringed = start_server(workers, shards);

        // 12 x 3000-byte values, read back by multi-gets whose remote keys
        // keep the ring unanswered while the local hits between them carry
        // `out` far past the hold limit.
        let mut big = String::new();
        for k in 0..KEYS {
            big.push_str(&format!("set k{k} {k} 0 3000\r\n{}\r\n", "x".repeat(3000)));
        }
        let all: Vec<String> = (0..KEYS).map(|k| format!("k{k}")).collect();
        for _ in 0..6 {
            big.push_str(&format!("get {}\r\n", all.join(" ")));
        }
        big.push_str("quit\r\n");
        let expected = exchange(inline.local_addr(), big.as_bytes());
        assert!(expected.len() > 6 * KEYS * 3000);
        let got = exchange(ringed.local_addr(), big.as_bytes());
        assert!(got == expected, "{workers} loops: big replies differ");

        // Every key takes a turn at being the last op before `quit` / EOF,
        // whichever loop the connection lands on: in some turn that op is
        // remote with a local hit's bytes held ahead of it.
        for last in 0..KEYS {
            let mut wire = String::new();
            for k in (0..KEYS).map(|k| (last + 1 + k) % KEYS) {
                wire.push_str(&format!("get k{k}\r\n"));
            }
            let expected = exchange_until_eof(inline.local_addr(), wire.as_bytes());
            assert!(expected.len() > KEYS * 3000, "every key hits");
            let got = exchange_until_eof(ringed.local_addr(), wire.as_bytes());
            assert!(
                got == expected,
                "{workers} loops: replies before EOF differ"
            );
            wire.push_str("quit\r\n");
            let got = exchange(ringed.local_addr(), wire.as_bytes());
            assert!(
                got == expected,
                "{workers} loops: replies before quit differ"
            );
        }
        assert!(remote_ops(&ringed) > 0);
    }
}
