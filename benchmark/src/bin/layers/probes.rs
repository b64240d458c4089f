//! Probes of each layer's public functions in isolation. This is the only
//! file of the benchmark that calls the server's internal Rust APIs; when a
//! refactor renames or removes one, re-point the probe here — the
//! end-to-end binary does not link this file and keeps building.
//!
//! Every probe records one span per call, named `<layer>.<operation>`, with
//! the counting allocator armed for the length of the span.

use benchkit::alloc;
use benchkit::gen::{Inputs, Kind, Op, Stream};
use benchkit::spans::{Recorder, NO_PARENT};
use benchkit::workload::Spec;
use bytes::{Bytes, BytesMut};
use cache_core::store::AllocationMode;
use cache_core::{hash_bytes, Key, PolicyKind, SlabCache, SlabCacheConfig};
use cache_server::protocol::{self, encode_response, ParseOutcome, Parser, Response};
use cache_server::{BackendConfig, BackendMode, CacheClient, PlaneHandle, SharedCache};
use cliffhanger::{Cliffhanger, CliffhangerConfig};
use std::hint::black_box;
use std::net::SocketAddr;

/// A category with fewer stream samples than this is probed with the
/// supplement (GETs of keys never written, DELETEs of resident keys).
const MIN_SAMPLES: usize = 200;
const SUPPLEMENT: u32 = 2_000;
/// The eviction probe: a cache of this size, written to twice over, then
/// timed while every SET of a new key must evict.
const EVICT_PROBE_BYTES: u64 = 8 << 20;
const EVICT_SAMPLES: u32 = 4_000;
/// Calls per control-round probe.
const CONTROL_ROUNDS: u32 = 15;

/// The operations every isolated probe replays: the first `ops` operations
/// of connection 0's stream (cache-aside fills are issued by the replay).
pub struct Replay<'a> {
    pub inputs: &'a Inputs,
    pub spec: &'a Spec,
    pub seed: u64,
    pub ops: Vec<Op>,
}

impl<'a> Replay<'a> {
    pub fn new(inputs: &'a Inputs, spec: &'a Spec, seed: u64, ops: u32) -> Replay<'a> {
        let mut stream = Stream::new(inputs, 0, seed);
        Replay {
            inputs,
            spec,
            seed,
            ops: (0..ops).map(|_| stream.next_op()).collect(),
        }
    }

    fn key(&self, key: u32) -> &'a [u8] {
        self.inputs.conns[0].keys.name(key)
    }

    fn value(&self, key: u32, len: u32) -> Bytes {
        Bytes::copy_from_slice(self.inputs.value(0, key, 1, len))
    }

    fn stream(&self) -> Stream<'a> {
        Stream::new(self.inputs, 0, self.seed)
    }
}

/// Runs `call` inside a span called `name`, allocator armed.
fn span<T>(rec: &mut Recorder, id: u32, name: &'static str, call: impl FnOnce() -> T) -> T {
    let name = rec.name(name);
    alloc::arm();
    let start = rec.now();
    let out = black_box(call());
    let end = rec.now();
    let counted = alloc::disarm();
    rec.record_counted(id, name, NO_PARENT, (start, end), counted);
    out
}

/// Cost of reading the clock twice, which every span includes.
pub fn clock(rec: &mut Recorder) {
    for id in 0..SUPPLEMENT {
        span(rec, id, "trace.clock", || ());
    }
}

/// `Parser::parse` of each request and `encode_response` of a hit for each
/// GET, one request in the buffer at a time. A stream without SETs (its
/// fills are the only writes) gets the fills of its first keys parsed
/// instead. Returns how many requests did not parse to a complete command.
pub fn protocol(replay: &Replay<'_>, rec: &mut Recorder) -> u64 {
    let mut parser = Parser::new();
    let mut buffer = BytesMut::with_capacity(8 << 10);
    let mut out = Vec::with_capacity(8 << 10);
    let mut unparsed = 0;
    let stream = replay.stream();
    let mut parse = |rec: &mut Recorder, id: u32, op: Op| {
        let key = replay.key(op.key);
        let (verb, name): (&[u8], _) = match op.kind {
            Kind::Get => (b"get ", "protocol.parse_get"),
            Kind::Set => (b"set ", "protocol.parse_set"),
            Kind::Delete => (b"delete ", "protocol.parse_delete"),
        };
        buffer.extend_from_slice(verb);
        buffer.extend_from_slice(key);
        if op.kind == Kind::Set {
            buffer.extend_from_slice(format!(" 1 0 {}\r\n", op.len).as_bytes());
            buffer.extend_from_slice(replay.inputs.value(0, op.key, 1, op.len));
        }
        buffer.extend_from_slice(b"\r\n");
        let outcome = span(rec, id, name, || parser.parse(&mut buffer));
        if !matches!(outcome, ParseOutcome::Complete(_)) || !buffer.is_empty() {
            unparsed += 1;
            buffer.clear();
        }
    };
    let mut sets = 0;
    for (id, &op) in replay.ops.iter().enumerate() {
        parse(rec, id as u32, op);
        sets += usize::from(op.kind == Kind::Set);
        if op.kind == Kind::Get {
            let hit = Response::Values(vec![protocol::Value {
                key: Bytes::copy_from_slice(replay.key(op.key)),
                flags: 1,
                data: replay.value(op.key, stream.fill_len(op.key)),
            }]);
            out.clear();
            span(rec, id as u32, "protocol.encode_hit", || {
                encode_response(&hit, &mut out)
            });
        }
    }
    if sets < MIN_SAMPLES {
        let keys = replay.inputs.conns[0].keys.len() as u32;
        for key in 0..SUPPLEMENT.min(keys) {
            let len = stream.fill_len(key);
            parse(
                rec,
                key,
                Op {
                    kind: Kind::Set,
                    key,
                    len,
                },
            );
        }
    }
    unparsed
}

/// `hash_bytes` of each operation's key.
pub fn hash_key(replay: &Replay<'_>, rec: &mut Recorder) {
    for (id, op) in replay.ops.iter().enumerate() {
        let key = replay.key(op.key);
        span(rec, id as u32, "cache_core.hash_key", || {
            hash_bytes(black_box(key))
        });
    }
}

/// What a key-value layer must offer to be replayed against.
pub trait Kv {
    fn get(&mut self, key: &[u8]) -> bool;
    fn set(&mut self, key: &[u8], data: Bytes) -> bool;
    fn delete(&mut self, key: &[u8]) -> bool;
}

/// Span names of one layer.
pub struct Names {
    pub get_hit: &'static str,
    pub get_miss: &'static str,
    pub set: &'static str,
    pub delete: &'static str,
    pub set_evict: &'static str,
}

macro_rules! names {
    ($layer:literal) => {
        Names {
            get_hit: concat!($layer, ".get_hit"),
            get_miss: concat!($layer, ".get_miss"),
            set: concat!($layer, ".set"),
            delete: concat!($layer, ".delete"),
            set_evict: concat!($layer, ".set_evict"),
        }
    };
}

pub const ENGINE: Names = names!("engine");
pub const ENGINE_DEFAULT: Names = names!("engine_default");
pub const CLIFFHANGER: Names = names!("cliffhanger");
pub const SLAB: Names = names!("slab");
pub const PLANE: Names = names!("plane");
pub const WIRE: Names = names!("wire");

/// Stores the workload's preload keys, replays the stream against `kv`
/// (with cache-aside fills), then tops up the categories the stream left
/// short.
pub fn replay_kv(replay: &Replay<'_>, kv: &mut dyn Kv, n: &Names, rec: &mut Recorder) {
    let stream = replay.stream();
    for key in stream.preload_order() {
        kv.set(replay.key(key), replay.value(key, stream.fill_len(key)));
    }
    let fill = replay.inputs.conns[0].spec.fill_on_miss;
    let (mut misses, mut deletes) = (0usize, 0usize);
    for (id, op) in replay.ops.iter().enumerate() {
        let (id, key) = (id as u32, replay.key(op.key));
        match op.kind {
            Kind::Get => {
                alloc::arm();
                let start = rec.now();
                let hit = black_box(kv.get(key));
                let end = rec.now();
                let counted = alloc::disarm();
                let name = rec.name(if hit { n.get_hit } else { n.get_miss });
                rec.record_counted(id, name, NO_PARENT, (start, end), counted);
                if !hit {
                    misses += 1;
                    if fill {
                        let data = replay.value(op.key, stream.fill_len(op.key));
                        span(rec, id, n.set, || kv.set(key, data));
                    }
                }
            }
            Kind::Set => {
                let data = replay.value(op.key, op.len);
                span(rec, id, n.set, || kv.set(key, data));
            }
            Kind::Delete => {
                deletes += 1;
                span(rec, id, n.delete, || kv.delete(key));
            }
        }
    }
    if misses < MIN_SAMPLES {
        for id in 0..SUPPLEMENT {
            let key = format!("absent:{id:012}");
            span(rec, id, n.get_miss, || kv.get(key.as_bytes()));
        }
    }
    if deletes < MIN_SAMPLES {
        let keys = replay.inputs.conns[0].keys.len() as u32;
        for id in 0..SUPPLEMENT.min(keys) {
            let key = replay.key(id);
            let len = stream.fill_len(id);
            kv.set(key, replay.value(id, len));
            span(rec, id, n.delete, || kv.delete(key));
            kv.set(key, replay.value(id, len));
        }
    }
}

/// Fills `kv` (a cache of [`EVICT_PROBE_BYTES`]) to twice its size with the
/// workload's value sizes, then times SETs of new keys: each must evict.
pub fn evict_probe(replay: &Replay<'_>, kv: &mut dyn Kv, n: &Names, rec: &mut Recorder) {
    let stream = replay.stream();
    let keys = replay.inputs.conns[0].keys.len() as u32;
    let mut written = 0u64;
    let mut timed = 0;
    for next in 0u32.. {
        let key = format!("evict:{next:012}");
        let len = stream.fill_len(next % keys);
        let data = replay.value(next % keys, len);
        if written < 2 * EVICT_PROBE_BYTES {
            written += u64::from(len) + key.len() as u64;
            kv.set(key.as_bytes(), data);
        } else if timed < EVICT_SAMPLES {
            timed += 1;
            span(rec, next, n.set_evict, || kv.set(key.as_bytes(), data));
        } else {
            break;
        }
    }
}

/// `SharedCache::{get_for, set_for, delete_for}`: `route_key` plus the
/// engine, uncontended.
pub struct Embedded {
    cache: SharedCache,
    tenant: usize,
}

impl Embedded {
    pub fn new(config: BackendConfig, tenant: Option<&str>) -> Embedded {
        let cache = SharedCache::new(config);
        let tenant = tenant
            .and_then(|name| cache.tenant_index(name))
            .unwrap_or(0);
        Embedded { cache, tenant }
    }

    /// The workload's backend in `mode`.
    pub fn for_workload(spec: &Spec, mode: BackendMode) -> Embedded {
        let mut config = spec.server_config().backend;
        config.mode = mode;
        Embedded::new(config, spec.streams[0].tenant)
    }

    pub fn for_evict_probe() -> Embedded {
        let config = BackendConfig {
            total_bytes: EVICT_PROBE_BYTES,
            shards: 1,
            ..BackendConfig::default()
        };
        Embedded::new(config, None)
    }
}

impl Kv for Embedded {
    fn get(&mut self, key: &[u8]) -> bool {
        self.cache.get_for(self.tenant, key).is_some()
    }
    fn set(&mut self, key: &[u8], data: Bytes) -> bool {
        self.cache.set_for(self.tenant, key, 1, data)
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        self.cache.delete_for(self.tenant, key)
    }
}

/// What the direct probes store: the key (for the exact-match check the
/// server's engine makes) and the payload.
#[derive(Clone)]
pub struct Stored {
    key: Bytes,
    data: Bytes,
}

fn stored(key: &[u8], data: Bytes) -> (Key, u64, Stored) {
    let id = Key::new(hash_bytes(key));
    let size = (key.len() + data.len()) as u64;
    let key = Bytes::copy_from_slice(key);
    (id, size, Stored { key, data })
}

/// `Cliffhanger::{get_untyped, value, set, delete}` called directly, the
/// way the server's engine calls them.
pub struct DirectCliffhanger(pub Cliffhanger<Stored>);

impl DirectCliffhanger {
    pub fn new(total_bytes: u64) -> DirectCliffhanger {
        DirectCliffhanger(Cliffhanger::new(CliffhangerConfig {
            total_bytes,
            enable_hill_climbing: true,
            enable_cliff_scaling: true,
            ..CliffhangerConfig::default()
        }))
    }

    pub fn for_evict_probe() -> DirectCliffhanger {
        DirectCliffhanger::new(EVICT_PROBE_BYTES)
    }
}

impl Kv for DirectCliffhanger {
    fn get(&mut self, key: &[u8]) -> bool {
        let id = Key::new(hash_bytes(key));
        let (_, event) = self.0.get_untyped(id);
        event.hit
            && matches!(self.0.value(id).cloned(), Some(s) if s.key == key && !s.data.is_empty())
    }
    fn set(&mut self, key: &[u8], data: Bytes) -> bool {
        let (id, size, value) = stored(key, data);
        matches!(self.0.set(id, size, value), Some((_, true)))
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        self.0.delete(Key::new(hash_bytes(key)))
    }
}

/// `SlabCache::{get_untyped, value, set, delete}` called directly, set up
/// as the server's `Default` mode sets it up.
pub struct DirectSlab(SlabCache<Stored>);

impl DirectSlab {
    pub fn new(total_bytes: u64) -> DirectSlab {
        DirectSlab(SlabCache::new(SlabCacheConfig {
            total_bytes,
            policy: PolicyKind::Lru,
            mode: AllocationMode::FirstComeFirstServe { page_size: 1 << 20 },
            shadow_bytes: 0,
            tail_region_items: 0,
            ..SlabCacheConfig::default()
        }))
    }

    pub fn for_evict_probe() -> DirectSlab {
        DirectSlab::new(EVICT_PROBE_BYTES)
    }
}

impl Kv for DirectSlab {
    fn get(&mut self, key: &[u8]) -> bool {
        let id = Key::new(hash_bytes(key));
        self.0.get_untyped(id).result.hit
            && matches!(self.0.value(id).cloned(), Some(s) if s.key == key && !s.data.is_empty())
    }
    fn set(&mut self, key: &[u8], data: Bytes) -> bool {
        let (id, size, value) = stored(key, data);
        matches!(self.0.set(id, size, value), Some((_, r)) if r.admitted)
    }
    fn delete(&mut self, key: &[u8]) -> bool {
        self.0.delete(Key::new(hash_bytes(key)))
    }
}

/// `PlaneHandle::get_for` against the live server: a message round trip to
/// the loop that owns the key's shard.
pub fn plane_gets(replay: &Replay<'_>, plane: &PlaneHandle, rec: &mut Recorder) {
    let tenant = replay.spec.streams[0]
        .tenant
        .and_then(|name| plane.tenant_index(name))
        .unwrap_or(0);
    for (id, op) in replay.ops.iter().enumerate() {
        let key = replay.key(op.key);
        let start = rec.now();
        let hit = black_box(plane.get_for(tenant, key)).is_some();
        let end = rec.now();
        let name = rec.name(if hit { PLANE.get_hit } else { PLANE.get_miss });
        rec.record(id as u32, name, NO_PARENT, start, end);
    }
}

/// One `rebalance_now`, `arbitrate_now` and `stats_json` per round on the
/// live server's control thread.
pub fn control_rounds(plane: &PlaneHandle, rec: &mut Recorder) {
    for id in 0..CONTROL_ROUNDS {
        span(rec, id, "control.rebalance_round", || plane.rebalance_now());
        span(rec, id, "control.arbitrate_round", || plane.arbitrate_now());
        span(rec, id, "control.stats_json", || plane.stats_json().len());
    }
}

/// `CacheClient::get` against the live server, one request outstanding.
pub fn wire_gets(replay: &Replay<'_>, addr: SocketAddr, rec: &mut Recorder) -> std::io::Result<()> {
    let mut client = CacheClient::connect(addr)?;
    if let Some(tenant) = replay.spec.streams[0].tenant {
        client.app(tenant)?;
    }
    for (id, op) in replay.ops.iter().enumerate() {
        let key = replay.key(op.key);
        let start = rec.now();
        let hit = black_box(client.get(key)?).is_some();
        let end = rec.now();
        let name = rec.name(if hit { WIRE.get_hit } else { WIRE.get_miss });
        rec.record(id as u32, name, NO_PARENT, start, end);
    }
    Ok(())
}
