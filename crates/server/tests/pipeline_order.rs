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
//! The connection executes a *window* of parsed-ahead commands at a time, so
//! the same discipline is applied to delivery: one seeded stream — `app`
//! switches between the keys of two tenants, multi-gets over every owner,
//! `noreply` writes, an invalid line and an oversized value between data
//! commands, a `flush_all` barrier, `quit` with garbage behind it — arrives
//! in one write, one command per write, and cut at random byte offsets, on
//! one loop and on 2 loops x 4 shards; all six reply streams and the wire
//! counters they leave in `stats` must be identical. A stall case pushes
//! `out` past the high watermark in the middle of a window (the window's
//! tail is rewound and parsed again): every reply arrives once, in order.
//! And keys that are not UTF-8 come back byte for byte through a window and
//! across the hop.
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
    deliver(addr, &[script])
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

/// Sends `pieces`, each in a write of its own, then reads replies until the
/// server closes. Pieces behind a `quit` may meet a closed socket, and the
/// reset that earns may end the reading: what arrived before it is kept.
fn deliver(addr: SocketAddr, pieces: &[&[u8]]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    for piece in pieces {
        if stream.write_all(piece).is_err() {
            break;
        }
    }
    let mut replies = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return replies,
            Ok(n) => replies.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return replies,
            Err(e) => panic!("the server stopped answering: {e}"),
        }
    }
}

/// The window script of `seed`, command by command: the flush of every
/// namespace, `ops` generated commands with the fixed features spread among
/// them, `quit`, and garbage the server must never parse.
fn window_script(seed: u64, ops: usize) -> Vec<Vec<u8>> {
    let mut rng = TestRng::from_seed(seed);
    let all_keys = (0..12).map(|k| format!("k{k}")).collect::<Vec<_>>();
    let mut commands = vec!["flush_all\r\n".to_string()];
    for tenant in TENANTS {
        commands.push(format!("app {tenant}\r\n"));
        commands.push("flush_all\r\n".to_string());
    }
    commands.push("app default\r\n".to_string());
    for op in 0..ops {
        commands.push(command().generate(&mut rng));
        // Every eighth of the way, one run of the features a window must
        // not smear: data commands on both sides of each.
        if op % (ops / 8).max(1) == 0 {
            let k = op % 12;
            commands.extend([
                format!("set k{k} {op} 0 2 noreply\r\nab\r\n"),
                format!("get {}\r\n", all_keys.join(" ")),
                "app alpha\r\n".to_string(),
                format!("add k{k} {op} 0 3\r\nxyz\r\n"),
                format!("get k{k} k{}\r\n", (k + 5) % 12),
                "this is no command\r\n".to_string(),
                format!("get k{k}\r\n"),
                "app beta\r\n".to_string(),
                format!("delete k{k} noreply\r\n"),
                format!("get {}\r\n", all_keys.join(" ")),
                "app default\r\n".to_string(),
            ]);
        }
    }
    // A value no slab class takes, with reads of its key on either side, a
    // barrier with writes on either side, and the end.
    let big = (1 << 20) + 1;
    commands.extend([
        "set k1 7 0 1\r\nx\r\n".to_string(),
        format!("set k1 8 0 {big}\r\n{}\r\n", "B".repeat(big)),
        format!("get k1 k2\r\nget {}\r\n", all_keys.join(" ")),
        "set k2 9 0 1 noreply\r\ny\r\n".to_string(),
        "flush_all\r\n".to_string(),
        "add k2 10 0 1\r\nz\r\n".to_string(),
        "get k2\r\n".to_string(),
        "quit\r\n".to_string(),
        "get k2\r\n".to_string(),
        "garbage behind quit\r\n".to_string(),
    ]);
    commands.into_iter().map(String::into_bytes).collect()
}

type Counters = Vec<(String, String)>;

/// The wire counters a script leaves behind, whole-server and per tenant.
fn wire_counters(server: &CacheServer) -> Counters {
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let wanted = |name: &str| {
        let counter = name.rsplit(':').next().unwrap();
        ["cmd_get", "get_hits", "cmd_set", "cmd_delete"].contains(&counter)
            && (name == counter || name.starts_with("tenant:"))
    };
    let mut counters: Vec<_> = client.stats().unwrap();
    counters.retain(|(name, _)| wanted(name));
    assert_eq!(counters.len(), 4 * (1 + 1 + TENANTS.len()), "{counters:?}");
    counters
}

#[test]
fn a_stream_is_answered_and_counted_alike_however_it_is_cut() {
    let replay = env_u64("PIPELINE_ORDER_SEED");
    let cases = match replay {
        Some(_) => 1,
        None => (env_u64("PIPELINE_ORDER_CASES").unwrap_or(DEFAULT_CASES) / 8).max(1),
    };
    let mut seeds = TestRng::deterministic();
    for _ in 0..cases {
        let seed = replay.unwrap_or_else(|| seeds.next_u64());
        let commands = window_script(seed, 200);
        let whole = commands.concat();
        // Cuts anywhere: inside a line, a data block, a CRLF.
        let mut rng = TestRng::from_seed(seed ^ 0xC075);
        let mut cuts: Vec<usize> = (0..commands.len())
            .map(|_| rng.next_below(whole.len() as u64) as usize)
            .collect();
        cuts.extend([0, whole.len()]);
        cuts.sort_unstable();
        let pieces: Vec<&[u8]> = cuts.windows(2).map(|w| &whole[w[0]..w[1]]).collect();
        let per_command: Vec<&[u8]> = commands.iter().map(|c| &c[..]).collect();
        let deliveries: [(&str, &[&[u8]]); 3] = [
            ("one write", &[&whole]),
            ("a write per command", &per_command),
            ("random cuts", &pieces),
        ];

        let mut reference: Option<(Vec<u8>, Counters)> = None;
        for (workers, shards) in [(1, 1), (2, 4)] {
            for (how, pieces) in deliveries {
                // A server per delivery: its counters are the script's.
                let server = start_server(workers, shards);
                let replies = deliver(server.local_addr(), pieces);
                let counters = wire_counters(&server);
                assert_eq!(remote_ops(&server) > 0, workers > 1);
                let (expected, counted) =
                    reference.get_or_insert((replies.clone(), counters.clone()));
                assert!(
                    replies == *expected,
                    "{workers} loop(s), {how}: replies differ from one loop's to one write; \
                     replay with PIPELINE_ORDER_SEED={seed}\n--- expected\n{}\n--- got\n{}",
                    String::from_utf8_lossy(expected),
                    String::from_utf8_lossy(&replies),
                );
                assert_eq!(
                    counters, *counted,
                    "{workers} loop(s), {how}: counters differ; PIPELINE_ORDER_SEED={seed}"
                );
            }
        }
        let (replies, counters) = reference.unwrap();
        // The script did what it was written to do.
        let text = String::from_utf8_lossy(&replies);
        assert!(text.contains("CLIENT_ERROR") && text.contains("NOT_STORED"));
        assert!(
            text.ends_with("VALUE k2 10 1\r\nz\r\nEND\r\n"),
            "quit ends it"
        );
        assert!(
            counters.iter().all(|(_, count)| count != "0"),
            "{counters:?}"
        );
    }
}

#[test]
fn a_window_the_output_stalls_rewinds_and_loses_or_repeats_nothing() {
    const BIG: usize = 100 << 10;
    const ROUNDS: usize = 100;
    for (workers, shards) in [(1, 1), (2, 4)] {
        let server = start_server(workers, shards);
        let payload = "p".repeat(BIG);
        let mut wire = format!("set big 0 0 {BIG}\r\n{payload}\r\n");
        let mut expected = "STORED\r\n".to_string();
        let hit = format!("VALUE big 0 {BIG}\r\n{payload}\r\nEND\r\n");
        // Three hits carry `out` over the watermark, so wherever a window
        // starts, some `set` in it sits behind the stall and is rewound: its
        // version (in `flags`, as the benchmark's writes carry theirs) must
        // be what the `get` behind it reads, and an `add` runs once or its
        // reply would say otherwise.
        for round in 0..ROUNDS {
            wire.push_str(&format!(
                "get big\r\nset v {round} 0 1\r\nx\r\nget big\r\nget v\r\n\
                 add once{round} 0 0 1\r\ny\r\nget big\r\n"
            ));
            expected.push_str(&format!(
                "{hit}STORED\r\n{hit}VALUE v {round} 1\r\nx\r\nEND\r\nSTORED\r\n{hit}"
            ));
        }
        wire.push_str("quit\r\n");
        // 30 MB of replies: far more than the socket's buffers hold, so
        // the server does stall on a peer that is not reading yet.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(wire.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let mut replies = Vec::new();
        stream.read_to_end(&mut replies).unwrap();
        assert!(
            replies == expected.as_bytes(),
            "{workers} loop(s): {} bytes of replies, {} expected",
            replies.len(),
            expected.len()
        );
        let counters = wire_counters(&server);
        let sets = &counters
            .iter()
            .find(|(name, _)| name == "cmd_set")
            .unwrap()
            .1;
        assert_eq!(*sets, (1 + 2 * ROUNDS).to_string(), "each write ran once");
    }
}

#[test]
fn keys_that_are_not_utf8_come_back_byte_for_byte() {
    for (workers, shards) in [(1, 1), (2, 4)] {
        let server = start_server(workers, shards);
        // Invalid UTF-8 of several kinds: a stray continuation byte, an
        // overlong form, a lone surrogate, 0xFF.
        let keys: Vec<Vec<u8>> = (0u8..8)
            .map(|i| vec![b'k', 0x80 | i, 0xC0, 0xAF, 0xED, 0xA0, 0x80, 0xFF, b'0' + i])
            .collect();
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (flags, key) in keys.iter().enumerate() {
            wire.extend_from_slice(b"set ");
            wire.extend_from_slice(key);
            wire.extend_from_slice(format!(" {flags} 0 2\r\nok\r\n").as_bytes());
            expected.extend_from_slice(b"STORED\r\n");
        }
        // One window: single gets, a multi-get, a delete and its miss.
        for (flags, key) in keys.iter().enumerate() {
            wire.extend_from_slice(b"get ");
            wire.extend_from_slice(key);
            wire.extend_from_slice(b"\r\n");
            expected.extend_from_slice(b"VALUE ");
            expected.extend_from_slice(key);
            expected.extend_from_slice(format!(" {flags} 2\r\nok\r\nEND\r\n").as_bytes());
        }
        wire.extend_from_slice(b"get");
        for (flags, key) in keys.iter().enumerate() {
            wire.push(b' ');
            wire.extend_from_slice(key);
            expected.extend_from_slice(b"VALUE ");
            expected.extend_from_slice(key);
            expected.extend_from_slice(format!(" {flags} 2\r\nok\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\ndelete ");
        wire.extend_from_slice(&keys[3]);
        wire.extend_from_slice(b"\r\nget ");
        wire.extend_from_slice(&keys[3]);
        wire.extend_from_slice(b"\r\nquit\r\n");
        expected.extend_from_slice(b"END\r\nDELETED\r\nEND\r\n");
        let replies = exchange(server.local_addr(), &wire);
        assert!(
            replies == expected,
            "{workers} loop(s): got {:?}",
            String::from_utf8_lossy(&replies)
        );
        assert_eq!(
            remote_ops(&server) > 0,
            workers > 1,
            "the keys' owners differ"
        );
    }
}
