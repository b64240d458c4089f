//! Allocation and copy budgets of the connection's byte path.
//!
//! A request byte is copied once by the kernel into the connection's input
//! buffer and consumed there through a cursor; a GET hit's payload is copied
//! once from the stored item onto the output buffer. Nothing on that path
//! allocates for a GET, and in the steady state nothing for a SET either:
//! the item, its key and data copied out of the input buffer into one
//! buffer, is built in the buffer the loop last freed in its size class
//! (the loop's magazine), which an overwrite or an eviction refills. Before
//! the magazine a SET allocated once, its item (twice, key and data, until
//! the item became one). This test holds the server to those figures with a
//! counting global allocator: counts, not timings, so the budgets hold on
//! any host.
//!
//! A readiness pass itself allocates nothing either (the once-a-second
//! history sample is the `cache-control` thread's `Control::observe`: a
//! few allocations a second, which the allocator counts with the rest), so
//! the GET budget is one allocation per 200 GETs — two orders of magnitude
//! under the 1/64 a per-pass `Vec` cost, and far under what the path cost
//! when every command `split_to`-copied the unparsed rest of the buffer: 7
//! allocations per GET and per SET, and ≈ 1.3 GB allocated to serve one
//! 256 KB pipelined write.
//!
//! The same budgets hold a 2-loop x 2-shard server, where half the keys are
//! homed on the loop the connection is not on: the connection's loop runs
//! them under their shard's lock as it runs its own, so no op crosses a
//! loop, and a pipeline whose every GET is the other loop's is held once
//! more. While such an op crossed to its home loop (one boxed `DataOp` with
//! an owned key out, one `DataReply` back, a `Vec` per staged response,
//! mailbox `Vec`s regrown every pass) that section read 2.12 allocations
//! per GET, 2.67 per SET and 5.2 MB for the 256 KB burst. Its GET budget is
//! 0.05, not 0.005: two shards switch the cross-shard rebalancer on, and
//! its rounds are the ≈ 0.006 per GET (0.007 on the all-remote pipeline)
//! that section reads — none of it on the request path. Each few thousand
//! ops a loop runs a round at the end of its pass, reading the engines'
//! shadow-hit counters and budgets under each shard's lock; one round is
//! held to 8 KiB allocated and reads 280 bytes (343 while it copied the
//! tenant roster, budgets and all, and wrote it back; 1.2 KB while a round
//! was a message to the control thread, ≈ 3 KB while it asked each loop for
//! the counters). While a round asked each loop for the whole snapshot the
//! `stats` document is built from, its MRC histograms cloned, one round
//! allocated 52 KB and the section read ≈ 0.017 per GET (0.020). Its SET
//! budget is 0.75, not 0.05, from when a SET of the other loop's key was
//! freed, when overwritten, into that loop's magazine, so the origin's
//! magazine never got those buffers back (it read ≈ 0.58); the item is now
//! built and freed on the connection's loop, and the section reads about
//! 0.01.
//!
//! The connection parses a window of up to 32 keys ahead of executing it;
//! the window is one buffer the connection keeps, so the figures are what
//! they were when commands were parsed one at a time, and a 32-deep pipeline
//! (one window exactly) is held to the GET budget too.
//!
//! A SET that evicts allocates nothing either: the engine keeps one buffer
//! for the keys its queues hand back as evicted, and the victim's item
//! buffer goes to the magazine the next SET of its class takes from. A
//! server whose budget holds fewer items than one pipeline writes, so that
//! every counted SET evicts, is held to 0.05 allocations per SET; it read
//! 1.0 (the item) before the magazine and 3.0 while the queues returned a
//! fresh `Vec` of evicted keys from each layer.
//!
//! One `#[test]` on purpose: the allocator counts every thread of the
//! process, so nothing else may run while it is armed. The client half
//! pre-builds its request bytes and pre-sizes its read buffer, and allocates
//! nothing while counting.

use cache_server::{BackendConfig, CacheClient, CacheServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and newly allocated bytes while
/// armed. A growing `realloc` is one call and its growth in bytes.
struct Counting;

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator,
        // which only ever hands out `System`'s blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `run` with the allocator armed; returns `(calls, bytes)`.
fn counted(run: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    run();
    ARMED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

const KEYS: usize = 64;
const VALUE: [u8; 64] = [b'v'; 64];
const DEPTH: usize = 64;
/// Rounds each steady-state measurement runs uncounted first.
const WARM_UP: usize = 20;
/// Bytes one rebalancing round of the 2-loop server may allocate.
const ROUND_BYTES: u64 = 8 << 10;

/// Counted rounds per verb: 200 per push, `BYTE_PATH_ROUNDS` overrides
/// (nightly.yml runs 20 x that).
fn rounds() -> usize {
    std::env::var("BYTE_PATH_ROUNDS")
        .ok()
        .and_then(|rounds| rounds.parse().ok())
        .unwrap_or(200)
}

fn key(i: usize) -> String {
    format!("byte-path-key-{:04}", i % KEYS)
}

/// The bytes of a hit on `key(i)`.
fn hit(i: usize) -> Vec<u8> {
    let mut reply = format!("VALUE {} 0 {}\r\n", key(i), VALUE.len()).into_bytes();
    reply.extend_from_slice(&VALUE);
    reply.extend_from_slice(b"\r\nEND\r\n");
    reply
}

/// Sends `request` and reads `reply.len()` bytes back `rounds` times over,
/// checking the last reply, with the allocator armed. Returns the
/// allocations per operation at `depth` operations per round.
fn steady_state(
    stream: &mut TcpStream,
    request: &[u8],
    reply: &[u8],
    rounds: usize,
    depth: usize,
) -> f64 {
    let mut got = vec![0u8; reply.len()];
    let round = |stream: &mut TcpStream, got: &mut [u8]| {
        stream.write_all(request).unwrap();
        stream.read_exact(got).unwrap();
    };
    // Buffers, maps and the history ring reach their steady size first.
    for _ in 0..WARM_UP {
        round(stream, &mut got);
    }
    let (allocs, _) = counted(|| {
        for _ in 0..rounds {
            round(stream, &mut got);
        }
    });
    assert_eq!(got, reply, "the counted replies must be the expected ones");
    allocs as f64 / (rounds * depth) as f64
}

/// GETs of the keys of `0..KEYS` another loop owns than the one `stream` is
/// on (found by watching `plane:remote_ops` move), and their hits.
fn remote_gets(stream: &mut TcpStream, client: &mut CacheClient) -> (Vec<u8>, Vec<u8>, usize) {
    let mut remote_ops = || -> u64 {
        let stats: HashMap<_, _> = client.stats().unwrap().into_iter().collect();
        stats["plane:remote_ops"].parse().unwrap()
    };
    let (mut gets, mut hits, mut keys) = (Vec::new(), Vec::new(), 0);
    for i in 0..KEYS {
        let (get, before) = (format!("get {}\r\n", key(i)).into_bytes(), remote_ops());
        let mut got = vec![0u8; hit(i).len()];
        stream.write_all(&get).unwrap();
        stream.read_exact(&mut got).unwrap();
        if remote_ops() > before {
            gets.extend_from_slice(&get);
            hits.extend_from_slice(&got);
            keys += 1;
        }
    }
    (gets, hits, keys)
}

/// Holds a `workers`-loop x `shards`-shard server to `get_budget`
/// allocations per pipelined GET hit (and per GET hit that crosses loops),
/// `set_budget` per overwriting SET and twice the bytes crossed for a 256 KB
/// burst. Returns the ops that crossed loops.
fn hold_to_budgets(workers: usize, shards: usize, get_budget: f64, set_budget: f64) -> u64 {
    let server = CacheServer::start(ServerConfig {
        workers,
        backend: BackendConfig {
            shards,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    for i in 0..KEYS {
        assert!(client.set(key(i).as_bytes(), 0, &VALUE).unwrap());
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // (a) 64-deep pipelined single-key GET hits, then SETs of the same keys.
    let gets: Vec<u8> = (0..DEPTH)
        .flat_map(|i| format!("get {}\r\n", key(i)).into_bytes())
        .collect();
    let hits: Vec<u8> = (0..DEPTH).flat_map(hit).collect();
    let per_get = steady_state(&mut stream, &gets, &hits, rounds(), DEPTH);
    assert!(
        per_get <= get_budget,
        "{workers} loop(s): a pipelined GET hit costs {per_get:.4} allocations; \
         the budget is {get_budget}"
    );
    // 32 deep: exactly one window, which its own size closes, not the end
    // of the input. The window is a buffer the connection keeps, so the
    // budget is the same.
    let window = |bytes: &[u8]| bytes[..bytes.len() / 2].to_vec();
    let per_get_32 = steady_state(&mut stream, &window(&gets), &window(&hits), rounds(), 32);
    assert!(
        per_get_32 <= get_budget,
        "{workers} loop(s): a GET hit in a 32-deep pipeline costs {per_get_32:.4} \
         allocations; the budget is {get_budget}"
    );
    let sets: Vec<u8> = (0..DEPTH)
        .flat_map(|i| {
            let mut set = format!("set {} 0 0 {}\r\n", key(i), VALUE.len()).into_bytes();
            set.extend_from_slice(&VALUE);
            set.extend_from_slice(b"\r\n");
            set
        })
        .collect();
    let stored = b"STORED\r\n".repeat(DEPTH);
    let per_set = steady_state(&mut stream, &sets, &stored, rounds(), DEPTH);
    assert!(
        per_set <= set_budget,
        "{workers} loop(s): a pipelined SET costs {per_set:.3} allocations; \
         the budget is {set_budget} (an overwrite frees the buffer the next SET \
         of its class takes, on the loop that owns the key; a SET of a key \
         another loop owns is built on its origin loop and freed on its owner, \
         so the origin allocates it)"
    );
    // Every GET of the pipeline a remote hit: its data comes back in the
    // batch's own recycled bytes, not in an allocation or a shared handle.
    if workers > 1 {
        let (gets, hits, keys) = remote_gets(&mut stream, &mut client);
        assert!(keys > KEYS / 4, "only {keys} of {KEYS} keys are remote");
        let per_remote_get = steady_state(&mut stream, &gets, &hits, rounds(), keys);
        println!("{workers} loop(s): allocations per remote GET hit {per_remote_get:.4}");
        assert!(
            per_remote_get <= get_budget,
            "{workers} loop(s): a GET hit that crosses loops costs {per_remote_get:.4} \
             allocations; the budget is {get_budget}"
        );
    }

    // A balancing round asks each loop for its engines' shadow-hit counters
    // and nothing else: what one allocates is its messages and its
    // decision, not a snapshot of every loop. The first rounds size what
    // the balancers keep.
    if shards > 1 {
        let cache = server.cache();
        (0..3).for_each(|_| cache.rebalance_now());
        let (_, round_bytes) = counted(|| cache.rebalance_now());
        println!("{workers} loop(s): one rebalancing round allocated {round_bytes} bytes");
        assert!(
            round_bytes <= ROUND_BYTES,
            "{workers} loop(s): one rebalancing round allocated {round_bytes} bytes; \
             the budget is {ROUND_BYTES} (a round reads counters, not loop snapshots)"
        );
    }

    // (b) One 256 KB write of pipelined GETs: what the server allocates to
    // serve it is bounded by the bytes that cross the socket, not by the
    // number of commands times the bytes still unparsed behind each.
    let commands = (256 << 10) / (gets.len() / DEPTH);
    let burst: Vec<u8> = (0..commands)
        .flat_map(|i| format!("get {}\r\n", key(i)).into_bytes())
        .collect();
    let expected: Vec<u8> = (0..commands).flat_map(hit).collect();
    let mut got = vec![0u8; expected.len()];
    let start = Barrier::new(2);
    let writer = stream.try_clone().unwrap();
    let (_, bytes) = std::thread::scope(|scope| {
        // The writer is spawned (which allocates) before counting starts.
        scope.spawn(|| {
            start.wait();
            (&writer).write_all(&burst).unwrap();
        });
        counted(|| {
            start.wait();
            stream.read_exact(&mut got).unwrap();
        })
    });
    assert!(got == expected, "every pipelined GET must hit, in order");
    let budget = 2 * (burst.len() + expected.len()) as u64;
    println!(
        "{workers} loop(s): allocations per GET {per_get:.4} (32 deep: {per_get_32:.4}), \
         per SET {per_set:.3}; \
         burst of {commands} GETs allocated {bytes} of {budget} bytes"
    );
    assert!(
        bytes <= budget,
        "{workers} loop(s): serving {} pipelined GETs in one {} KB write allocated {bytes} \
         bytes; the budget is {budget} (2 x the bytes sent plus received)",
        commands,
        burst.len() >> 10
    );
    let stats: HashMap<_, _> = client.stats().unwrap().into_iter().collect();
    // What the script's 64 items are charged is their keys and data and the
    // queues' 48 bytes each, whatever the buffers that hold them weigh.
    let charged = KEYS as u64 * ((key(0).len() + VALUE.len()) as u64 + cache_core::ITEM_OVERHEAD);
    assert_eq!(stats["bytes"], charged.to_string(), "accounted bytes");
    stats["plane:remote_ops"].parse().unwrap()
}

/// Holds a one-loop server whose budget holds fewer than `DEPTH` of the
/// pipeline's items to 0.05 allocations per SET, every one of which evicts.
fn hold_evicting_sets_to_budget() {
    const LARGE: [u8; 400] = [b'v'; 400];
    let server = CacheServer::start(ServerConfig {
        workers: 1,
        backend: BackendConfig {
            total_bytes: 16 << 10,
            shards: 1,
            ..BackendConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server must start");
    let mut client = CacheClient::connect(server.local_addr()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let sets: Vec<u8> = (0..DEPTH)
        .flat_map(|i| {
            let mut set = format!("set {} 0 0 {}\r\n", key(i), LARGE.len()).into_bytes();
            set.extend_from_slice(&LARGE);
            set.extend_from_slice(b"\r\n");
            set
        })
        .collect();
    let mut evictions = || -> u64 {
        let stats: HashMap<_, _> = client.stats().unwrap().into_iter().collect();
        stats["evictions"].parse().unwrap()
    };
    let before = evictions();
    let stored = b"STORED\r\n".repeat(DEPTH);
    let per_set = steady_state(&mut stream, &sets, &stored, rounds(), DEPTH);
    let evicted = evictions() - before;
    println!("evicting SETs: allocations per SET {per_set:.3}, {evicted} evictions");
    // Only the first round's SETs find room.
    assert!(
        evicted >= ((WARM_UP + rounds() - 1) * DEPTH) as u64,
        "only {evicted} evictions: the counted SETs must all evict"
    );
    assert!(
        per_set <= 0.05,
        "a pipelined SET that evicts costs {per_set:.3} allocations; \
         the budget is 0.05 (the victim's buffer is the next item's)"
    );
}

#[test]
fn the_byte_path_stays_inside_its_allocation_and_copy_budgets() {
    hold_evicting_sets_to_budget();
    assert_eq!(hold_to_budgets(1, 1, 0.005, 0.05), 0);
    // The 64 keys split across both owners, whichever loop the counted
    // connection landed on.
    let crossed = hold_to_budgets(2, 2, 0.05, 0.75);
    assert!(crossed as usize > KEYS, "only {crossed} ops crossed loops");
}
