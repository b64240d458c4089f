//! The load-generation engine: N worker threads, one TCP connection each,
//! driving the server in closed-loop (memtier/mutilate style: a fixed
//! concurrency, each connection keeps `pipeline` requests in flight) or
//! open-loop mode (a target arrival rate with latencies measured from the
//! *scheduled* send time, so queueing delay is charged to the server — the
//! coordinated-omission correction wrk2 popularised).
//!
//! Workers share only two pieces of state: an atomic request budget they
//! claim batches from, and a start barrier. All telemetry is recorded into
//! per-worker histograms and merged after the workers join.

use crate::report::{LoadReport, TenantSection, WorkloadEcho, LOAD_SCHEMA};
use crate::workload::{GenOp, RequestGen, TenantLoad, WorkloadSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use telemetry::Histogram;
use workloads::{KeyPopularity, SizeDistribution};

/// Closed- vs open-loop driving.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadMode {
    /// Fixed concurrency: every connection keeps `pipeline` requests in
    /// flight and sends the next batch as soon as the previous one is
    /// answered. Measures capacity.
    Closed,
    /// Fixed arrival rate (requests/sec across all connections), one
    /// request outstanding per connection. Measures latency at a load
    /// point; latencies include any backlog the server builds up.
    Open {
        /// Total target arrival rate across every connection.
        target_rps: f64,
    },
}

/// Everything a run needs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Worker threads, one TCP connection each.
    pub connections: usize,
    /// Requests in the measured window (split across workers on demand).
    pub requests: u64,
    /// Untimed SETs of the hottest keys issued before the window, so GETs
    /// in the window see a populated cache.
    pub warmup_keys: u64,
    /// Requests per pipelined batch in closed-loop mode.
    pub pipeline: usize,
    /// Closed- or open-loop.
    pub mode: LoadMode,
    /// Traffic shape (of the single tenant when `tenants` is empty).
    pub workload: WorkloadSpec,
    /// Multi-tenant mode: drive several application namespaces at once, each
    /// with its own workload and a connection/budget share proportional to
    /// its weight. Empty (the default) is the single-tenant run over
    /// `workload`; non-empty ignores `workload` and requires at least one
    /// connection per tenant.
    pub tenants: Vec<TenantLoad>,
    /// Cache-aside demand fill: every GET miss is followed by a SET of the
    /// missed key, the way a real application repopulates its cache. In
    /// closed loop the fill rides in the next pipelined batch; in open loop
    /// it occupies the *next scheduled arrival slot* and its latency is
    /// measured from that scheduled time — a fill is part of the
    /// application's offered load, so sending it out-of-band would hide the
    /// queueing it causes (coordinated omission by another name). Fill SETs
    /// ride on top of the request budget — `requests` counts the generated
    /// stream, the report counts everything completed, and fills also get
    /// their own `fills` / `fill_latency` report section. Off by default:
    /// the stream is then the generated GETs and SETs and nothing else.
    pub fill_on_miss: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:11211".to_string(),
            connections: 4,
            requests: 100_000,
            warmup_keys: 10_000,
            pipeline: 16,
            mode: LoadMode::Closed,
            workload: WorkloadSpec::default(),
            tenants: Vec::new(),
            fill_on_miss: false,
        }
    }
}

/// Payloads are slices of one shared pattern buffer; sizes beyond it clamp.
pub(crate) const PAYLOAD_POOL_BYTES: usize = 1 << 20;

/// The open-loop arrival schedule: a deadline chain at a fixed spacing,
/// the anchor of the coordinated-omission correction (latencies are
/// measured from the *scheduled* arrival, so server backlog shows up in
/// the tail instead of silently stretching the send times).
///
/// Rate changes mid-run (a diurnal scenario crossing a phase boundary)
/// must continue the chain: the first arrival at the new rate is the old
/// schedule's boundary plus the *new* interval. The two tempting
/// alternatives are both wrong — recomputing the schedule from the run
/// start at the new rate teleports the chain, and re-anchoring to the
/// wall clock forgives whatever backlog the server had built, which is
/// coordinated omission reintroduced at every phase boundary.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    next: Instant,
    interval: Duration,
}

impl Pacer {
    /// A schedule starting at `start`, spacing arrivals at `per_conn_rps`
    /// per second (clamped below at one). The first arrival is one interval
    /// after `start`.
    pub fn new(start: Instant, per_conn_rps: f64) -> Pacer {
        let interval = Duration::from_secs_f64(1.0 / per_conn_rps.max(1.0));
        Pacer {
            next: start + interval,
            interval,
        }
    }

    /// Changes the arrival rate without breaking the chain: the schedule
    /// continues from the last claimed slot (the phase boundary), spaced
    /// at the new interval. `next` was pre-committed one *old* interval
    /// past that boundary, so it is rebased rather than kept — keeping it
    /// would leak one old-rate gap into the new phase.
    pub fn set_rate(&mut self, per_conn_rps: f64) {
        let boundary = self.next - self.interval;
        self.interval = Duration::from_secs_f64(1.0 / per_conn_rps.max(1.0));
        self.next = boundary + self.interval;
    }

    /// Claims the next scheduled arrival slot and advances the chain.
    pub fn next_arrival(&mut self) -> Instant {
        let slot = self.next;
        self.next += self.interval;
        slot
    }
}

/// Per-worker telemetry, merged after the run.
#[derive(Default)]
pub(crate) struct WorkerStats {
    pub(crate) all: Histogram,
    pub(crate) get: Histogram,
    pub(crate) set: Histogram,
    pub(crate) fill: Histogram,
    pub(crate) gets: u64,
    pub(crate) hits: u64,
    pub(crate) sets: u64,
    pub(crate) fills: u64,
    pub(crate) errors: u64,
}

impl WorkerStats {
    pub(crate) fn merge(&mut self, other: &WorkerStats) {
        self.all.merge(&other.all);
        self.get.merge(&other.get);
        self.set.merge(&other.set);
        self.fill.merge(&other.fill);
        self.gets += other.gets;
        self.hits += other.hits;
        self.sets += other.sets;
        self.fills += other.fills;
        self.errors += other.errors;
    }
}

/// One pipelined connection: buffered reads, raw writes.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
    line: String,
}

impl Conn {
    pub(crate) fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    pub(crate) fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-run",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    /// Reads one GET response (`VALUE …\r\n<data>\r\nEND\r\n` or `END\r\n`).
    /// Returns whether it was a hit.
    pub(crate) fn read_get_response(&mut self) -> std::io::Result<Option<bool>> {
        let line = self.read_line()?;
        if line == "END" {
            return Ok(Some(false));
        }
        let Some(rest) = line.strip_prefix("VALUE ") else {
            return Ok(None); // protocol surprise; caller counts an error
        };
        // Strict `<key> <flags> <bytes>` header: guessing at the payload
        // length would desynchronize every later response in the pipeline,
        // so an unparseable header is a framing error, not a miscount.
        let len: usize = match rest.split_ascii_whitespace().nth(2).map(str::parse) {
            Some(Ok(len)) => len,
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable VALUE header: VALUE {rest}"),
                ));
            }
        };
        // Payload + CRLF, then the END line.
        let mut sink = vec![0u8; len + 2];
        self.reader.read_exact(&mut sink)?;
        let end = self.read_line()?;
        Ok(if end == "END" { Some(true) } else { None })
    }

    /// Reads one SET response. Returns whether the server stored it.
    pub(crate) fn read_set_response(&mut self) -> std::io::Result<Option<bool>> {
        match self.read_line()? {
            "STORED" => Ok(Some(true)),
            "NOT_STORED" => Ok(Some(false)),
            _ => Ok(None),
        }
    }
}

/// Appends the wire encoding of `op` to `buf`.
pub(crate) fn encode_op(op: &GenOp, buf: &mut Vec<u8>, payload_pool: &[u8]) {
    match op {
        GenOp::Get { key } => {
            buf.extend_from_slice(b"get ");
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(b"\r\n");
        }
        GenOp::Set { key, size } => {
            let size = (*size).min(payload_pool.len());
            // write! straight into the batch buffer — no temporary String
            // per request in the measurement hot path.
            let _ = write!(buf, "set {key} 0 0 {size}\r\n");
            buf.extend_from_slice(&payload_pool[..size]);
            buf.extend_from_slice(b"\r\n");
        }
    }
}

/// Claims up to `want` requests from the shared budget; 0 means done.
pub(crate) fn claim(budget: &AtomicU64, want: u64) -> u64 {
    let mut current = budget.load(Ordering::Relaxed);
    loop {
        if current == 0 {
            return 0;
        }
        let take = want.min(current);
        match budget.compare_exchange_weak(
            current,
            current - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(actual) => current = actual,
        }
    }
}

/// What a completed request was, for telemetry purposes.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum OpKind {
    Get,
    Set,
    /// A demand-fill SET: counted as a SET *and* in its own section, so
    /// fill latencies are separable from the generated stream's.
    Fill,
}

/// Records one completed request into the worker's histograms.
pub(crate) fn record(
    stats: &mut WorkerStats,
    kind: OpKind,
    latency_ns: u64,
    outcome: Option<bool>,
) {
    stats.all.record(latency_ns);
    match kind {
        OpKind::Get => {
            stats.get.record(latency_ns);
            stats.gets += 1;
            match outcome {
                Some(true) => stats.hits += 1,
                Some(false) => {}
                None => stats.errors += 1,
            }
        }
        OpKind::Set | OpKind::Fill => {
            stats.set.record(latency_ns);
            stats.sets += 1;
            if outcome != Some(true) {
                stats.errors += 1;
            }
            if kind == OpKind::Fill {
                stats.fill.record(latency_ns);
                stats.fills += 1;
            }
        }
    }
}

/// Where a worker's requests come from: the stationary [`RequestGen`] of a
/// plain run, or a scenario phase's generator.
pub(crate) trait OpSource {
    /// Draws the next request.
    fn next_op(&mut self) -> GenOp;

    /// The SET that stores `rank`: a warm-up write, or the demand fill of a
    /// GET that missed.
    fn fill_for(&self, rank: u64) -> GenOp;

    /// Tells a source whose traffic changes over its budget how much of it
    /// has been claimed (`progress` in `[0, 1]`).
    fn advance(&mut self, _progress: f64) {}
}

/// Untimed warm-up: SETs `ranks` (the worker's stripe of the hottest keys)
/// 64 to a batch, so that portion of the universe is resident before the
/// measured window opens.
pub(crate) fn warmup(
    conn: &mut Conn,
    gen: &impl OpSource,
    ranks: impl Iterator<Item = u64>,
    payload_pool: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut ranks = ranks.peekable();
    while ranks.peek().is_some() {
        buf.clear();
        let mut pending = 0;
        for rank in ranks.by_ref().take(64) {
            encode_op(&gen.fill_for(rank), &mut buf, payload_pool);
            pending += 1;
        }
        conn.writer.write_all(&buf)?;
        for _ in 0..pending {
            conn.read_set_response()?;
        }
    }
    Ok(())
}

/// How far a budget of `total` requests has been claimed.
fn progress(budget: &AtomicU64, total: u64) -> f64 {
    1.0 - budget.load(Ordering::Relaxed) as f64 / total.max(1) as f64
}

/// The demand fill a completed op calls for: the SET of a GET that missed,
/// when the run fills on miss.
fn demand_fill(gen: &impl OpSource, op: &GenOp, outcome: Option<bool>) -> Option<GenOp> {
    if !matches!(op, GenOp::Get { .. }) || outcome != Some(false) {
        return None;
    }
    RequestGen::rank_for_key(op.key()).map(|rank| gen.fill_for(rank))
}

/// Runs one connection closed-loop until `budget` (of `total` requests) is
/// spent: claim up to `pipeline` requests, send them as one batch behind the
/// demand fills the previous batch discovered, read every response.
pub(crate) fn run_closed(
    conn: &mut Conn,
    gen: &mut impl OpSource,
    (budget, total): (&AtomicU64, u64),
    pipeline: u64,
    payload_pool: &[u8],
    fill_on_miss: bool,
) -> std::io::Result<WorkerStats> {
    let mut stats = WorkerStats::default();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut ops: Vec<GenOp> = Vec::with_capacity(pipeline as usize);
    // Demand fills discovered in the previous batch, sent with the next.
    let mut fills: Vec<GenOp> = Vec::new();
    loop {
        let batch = claim(budget, pipeline);
        if batch == 0 && fills.is_empty() {
            return Ok(stats);
        }
        gen.advance(progress(budget, total));
        buf.clear();
        ops.clear();
        // Fills go first, so the first `batch_fills` responses are theirs.
        let batch_fills = fills.len();
        ops.append(&mut fills);
        ops.extend((0..batch).map(|_| gen.next_op()));
        for op in &ops {
            encode_op(op, &mut buf, payload_pool);
        }
        let sent = Instant::now();
        conn.writer.write_all(&buf)?;
        for (i, op) in ops.iter().enumerate() {
            let (kind, outcome) = match op {
                GenOp::Get { .. } => (OpKind::Get, conn.read_get_response()?),
                GenOp::Set { .. } if i < batch_fills => (OpKind::Fill, conn.read_set_response()?),
                GenOp::Set { .. } => (OpKind::Set, conn.read_set_response()?),
            };
            if fill_on_miss {
                fills.extend(demand_fill(gen, op, outcome));
            }
            // Pipelined latency: from batch send to this response parsed,
            // i.e. queueing behind earlier responses in the batch counts.
            record(&mut stats, kind, sent.elapsed().as_nanos() as u64, outcome);
        }
    }
}

/// Runs one connection open-loop until `budget` (of `total` requests) is
/// spent, one request per arrival slot of `pacer`. The caller keeps the
/// pacer, so a scenario's consecutive open phases continue one arrival
/// chain through their rate changes (see [`Pacer::set_rate`]).
pub(crate) fn run_open(
    conn: &mut Conn,
    gen: &mut impl OpSource,
    (budget, total): (&AtomicU64, u64),
    pacer: &mut Pacer,
    payload_pool: &[u8],
    fill_on_miss: bool,
) -> std::io::Result<WorkerStats> {
    let mut stats = WorkerStats::default();
    let mut buf = Vec::with_capacity(16 * 1024);
    // Demand fills waiting for their arrival slot. A fill is part of the
    // application's offered load, so it occupies the *next scheduled slot*:
    // sent out of band it would exceed the configured arrival rate and hide
    // the queueing it causes from the schedule-anchored latencies
    // (coordinated omission, reinvented).
    let mut fills: std::collections::VecDeque<GenOp> = std::collections::VecDeque::new();
    loop {
        let (op, kind) = match fills.pop_front() {
            Some(op) => (op, OpKind::Fill),
            None => {
                if claim(budget, 1) == 0 {
                    return Ok(stats);
                }
                gen.advance(progress(budget, total));
                let op = gen.next_op();
                let kind = match op {
                    GenOp::Get { .. } => OpKind::Get,
                    GenOp::Set { .. } => OpKind::Set,
                };
                (op, kind)
            }
        };
        let scheduled = pacer.next_arrival();
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        buf.clear();
        encode_op(&op, &mut buf, payload_pool);
        conn.writer.write_all(&buf)?;
        let outcome = match op {
            GenOp::Get { .. } => conn.read_get_response()?,
            GenOp::Set { .. } => conn.read_set_response()?,
        };
        // Measured from the *scheduled* time: if the server falls behind the
        // arrival rate, the backlog shows up in the tail (no coordinated
        // omission).
        record(
            &mut stats,
            kind,
            scheduled.elapsed().as_nanos() as u64,
            outcome,
        );
        if fill_on_miss {
            fills.extend(demand_fill(gen, &op, outcome));
        }
    }
}

/// Selects the connection's application namespace (`app <name>`). The
/// `default` tenant sends nothing — it exercises the exact path of a
/// pre-extension client.
pub(crate) fn select_app(conn: &mut Conn, name: &str) -> std::io::Result<()> {
    if name == "default" {
        return Ok(());
    }
    conn.writer
        .write_all(format!("app {name}\r\n").as_bytes())?;
    let line = conn.read_line()?;
    if line != "OK" {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("server refused `app {name}`: {line}"),
        ));
    }
    Ok(())
}

/// Splits `connections` across the tenants proportionally to their weights,
/// every tenant getting at least one (largest-remainder rounding).
fn allocate_connections(connections: usize, tenants: &[TenantLoad]) -> Vec<usize> {
    let total_weight: u64 = tenants.iter().map(|t| t.weight.max(1)).sum();
    // Start everyone at 1 connection, distribute the rest by weight.
    let mut counts = vec![1usize; tenants.len()];
    let mut spare = connections - tenants.len();
    // Fractional entitlements to the spare pool, floor first.
    let entitlements: Vec<f64> = tenants
        .iter()
        .map(|t| spare as f64 * t.weight.max(1) as f64 / total_weight as f64)
        .collect();
    for (count, entitlement) in counts.iter_mut().zip(&entitlements) {
        let floor = entitlement.floor() as usize;
        *count += floor;
        spare -= floor;
    }
    // Hand the remainder out by descending fractional part (ties: order).
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = entitlements[a].fract();
        let fb = entitlements[b].fract();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &t in order.iter().take(spare) {
        counts[t] += 1;
    }
    counts
}

/// Splits the request budget across tenants by weight (remainder on the
/// first tenant), so traffic shares follow weights even in closed loop.
fn allocate_requests(requests: u64, tenants: &[TenantLoad]) -> Vec<u64> {
    let total_weight: u64 = tenants.iter().map(|t| t.weight.max(1)).sum();
    let mut shares: Vec<u64> = tenants
        .iter()
        .map(|t| (requests as u128 * t.weight.max(1) as u128 / total_weight as u128) as u64)
        .collect();
    let assigned: u64 = shares.iter().sum();
    shares[0] += requests - assigned;
    shares
}

fn describe_keys(keys: &KeyPopularity) -> (String, u64) {
    match keys {
        KeyPopularity::Uniform { num_keys } => ("uniform".to_string(), *num_keys),
        KeyPopularity::Zipf { num_keys, exponent } => (format!("zipf:{exponent}"), *num_keys),
        KeyPopularity::HotSet {
            num_keys,
            hot_keys,
            hot_fraction,
        } => (format!("hotset:{hot_keys}:{hot_fraction}"), *num_keys),
    }
}

fn describe_sizes(sizes: &SizeDistribution) -> String {
    match sizes {
        SizeDistribution::Fixed(n) => format!("fixed:{n}"),
        SizeDistribution::Uniform { min, max } => format!("uniform:{min}-{max}"),
        SizeDistribution::LogNormal { mu, sigma, cap } => {
            format!("lognormal:mu={mu},sigma={sigma},cap={cap}")
        }
        SizeDistribution::GeneralizedPareto {
            scale, shape, cap, ..
        } => {
            format!("pareto:scale={scale},shape={shape},cap={cap}")
        }
        SizeDistribution::Mixture(parts) => format!("mixture:{}", parts.len()),
    }
}

fn workload_echo(spec: &WorkloadSpec) -> WorkloadEcho {
    let (keys_desc, num_keys) = describe_keys(&spec.keys);
    WorkloadEcho {
        keys: keys_desc,
        num_keys,
        get_fraction: spec.get_fraction,
        sizes: describe_sizes(&spec.sizes),
        seed: spec.seed,
    }
}

/// Runs one load-generation pass and returns its report.
///
/// Fails fast on connection or protocol-framing errors (including a refused
/// `app` selector); per-request rejections (`NOT_STORED`, unexpected status
/// lines) are counted in `errors` instead. With `config.tenants` set, each
/// tenant gets a weight-proportional share of the connections and request
/// budget, every connection pins itself to its tenant's namespace before
/// warm-up, and the report carries one [`TenantSection`] per tenant.
pub fn run_load(config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    if config.connections == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "loadgen needs at least one connection",
        ));
    }
    if config.pipeline == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "pipeline depth must be at least 1",
        ));
    }
    // A single-tenant run is a multi-tenant run with one implicit tenant —
    // the default namespace, no `app` command, the whole budget.
    let tenants: Vec<TenantLoad> = if config.tenants.is_empty() {
        vec![TenantLoad::new("default", 1, config.workload.clone())]
    } else {
        config.tenants.clone()
    };
    if config.connections < tenants.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} tenants need at least {} connections (got {})",
                tenants.len(),
                tenants.len(),
                config.connections
            ),
        ));
    }
    let payload_pool: Arc<Vec<u8>> = Arc::new(
        (0..PAYLOAD_POOL_BYTES)
            .map(|i| b'a' + (i % 26) as u8)
            .collect(),
    );
    let tenant_connections = allocate_connections(config.connections, &tenants);
    let tenant_requests = allocate_requests(config.requests, &tenants);
    let budgets: Vec<Arc<AtomicU64>> = tenant_requests
        .iter()
        .map(|&r| Arc::new(AtomicU64::new(r)))
        .collect();
    // worker -> (tenant, index within the tenant's workers).
    let assignments: Vec<(usize, usize)> = tenant_connections
        .iter()
        .enumerate()
        .flat_map(|(t, &count)| (0..count).map(move |i| (t, i)))
        .collect();
    // connections workers + the coordinating thread.
    let start_gate = Arc::new(Barrier::new(config.connections + 1));
    let tenants = Arc::new(tenants);
    let tenant_connections = Arc::new(tenant_connections);

    let handles: Vec<_> = assignments
        .iter()
        .map(|&(tenant, tw)| {
            let config = config.clone();
            let tenants = Arc::clone(&tenants);
            let tenant_connections = Arc::clone(&tenant_connections);
            let budget = Arc::clone(&budgets[tenant]);
            let total = tenant_requests[tenant];
            let start_gate = Arc::clone(&start_gate);
            let payload_pool = Arc::clone(&payload_pool);
            std::thread::Builder::new()
                .name(format!("loadgen-{}-{tw}", tenants[tenant].name))
                .spawn(move || -> std::io::Result<WorkerStats> {
                    let load = &tenants[tenant];
                    let siblings = tenant_connections[tenant];
                    // Connect + warm up, but *always* reach the barrier —
                    // an early return here would strand the coordinator.
                    let setup = (|| -> std::io::Result<(Conn, RequestGen)> {
                        let mut conn = Conn::connect(&config.addr)?;
                        select_app(&mut conn, &load.name)?;
                        let gen = RequestGen::new(&load.spec, tw as u64);
                        // Warm-up stripes each tenant's hottest keys across
                        // that tenant's own workers (the namespaces are
                        // independent, so cross-tenant striping would leave
                        // gaps).
                        let capped_warmup = config.warmup_keys.min(load.spec.keys.num_keys());
                        let stripe = (tw as u64..capped_warmup).step_by(siblings);
                        warmup(&mut conn, &gen, stripe, &payload_pool)?;
                        Ok((conn, gen))
                    })();
                    start_gate.wait();
                    let (mut conn, mut gen) = setup?;
                    let budget = (&*budget, total);
                    match config.mode {
                        LoadMode::Closed => run_closed(
                            &mut conn,
                            &mut gen,
                            budget,
                            config.pipeline as u64,
                            &payload_pool,
                            config.fill_on_miss,
                        ),
                        LoadMode::Open { target_rps } => {
                            let per_conn = (target_rps / config.connections as f64).max(1.0);
                            let mut pacer = Pacer::new(Instant::now(), per_conn);
                            run_open(
                                &mut conn,
                                &mut gen,
                                budget,
                                &mut pacer,
                                &payload_pool,
                                config.fill_on_miss,
                            )
                        }
                    }
                })
                .expect("failed to spawn loadgen worker")
        })
        .collect();

    // Every worker has finished warming up once the barrier releases; the
    // measured window is from here to the last join.
    start_gate.wait();
    let window_start = Instant::now();
    let mut total = WorkerStats::default();
    let mut per_tenant: Vec<WorkerStats> =
        (0..tenants.len()).map(|_| WorkerStats::default()).collect();
    let mut first_error: Option<std::io::Error> = None;
    for (handle, &(tenant, _)) in handles.into_iter().zip(&assignments) {
        match handle.join() {
            Ok(Ok(stats)) => {
                total.merge(&stats);
                per_tenant[tenant].merge(&stats);
            }
            Ok(Err(err)) => first_error = first_error.or(Some(err)),
            Err(_) => {
                first_error =
                    first_error.or_else(|| Some(std::io::Error::other("a loadgen worker panicked")))
            }
        }
    }
    let elapsed = window_start.elapsed().as_secs_f64().max(f64::EPSILON);
    if let Some(err) = first_error {
        return Err(err);
    }

    let tenant_sections: Vec<TenantSection> = if config.tenants.is_empty() {
        Vec::new()
    } else {
        tenants
            .iter()
            .zip(&per_tenant)
            .zip(tenant_connections.iter())
            .map(|((load, stats), &conns)| TenantSection {
                tenant: load.name.clone(),
                connections: conns as u64,
                requests: stats.gets + stats.sets,
                gets: stats.gets,
                get_hits: stats.hits,
                hit_rate: if stats.gets > 0 {
                    stats.hits as f64 / stats.gets as f64
                } else {
                    0.0
                },
                sets: stats.sets,
                fills: stats.fills,
                errors: stats.errors,
                latency: stats.all.summarize_us(),
                get_latency: stats.get.summarize_us(),
                set_latency: stats.set.summarize_us(),
                fill_latency: stats.fill.summarize_us(),
                workload: workload_echo(&load.spec),
                budget_bytes: 0,
                shadow_hits: 0,
                evictions: 0,
            })
            .collect()
    };

    let completed = total.gets + total.sets;
    Ok(LoadReport {
        schema: LOAD_SCHEMA.to_string(),
        mode: match config.mode {
            LoadMode::Closed => "closed".to_string(),
            LoadMode::Open { .. } => "open".to_string(),
        },
        addr: config.addr.clone(),
        connections: config.connections as u64,
        pipeline: match config.mode {
            LoadMode::Closed => config.pipeline as u64,
            LoadMode::Open { .. } => 1,
        },
        target_rps: match config.mode {
            LoadMode::Closed => 0.0,
            LoadMode::Open { target_rps } => target_rps,
        },
        requests: completed,
        warmup_requests: tenants
            .iter()
            .map(|t| config.warmup_keys.min(t.spec.keys.num_keys()))
            .sum(),
        elapsed_secs: elapsed,
        throughput_rps: completed as f64 / elapsed,
        gets: total.gets,
        get_hits: total.hits,
        hit_rate: if total.gets > 0 {
            total.hits as f64 / total.gets as f64
        } else {
            0.0
        },
        sets: total.sets,
        fills: total.fills,
        errors: total.errors,
        latency: total.all.summarize_us(),
        get_latency: total.get.summarize_us(),
        set_latency: total.set.summarize_us(),
        fill_latency: total.fill.summarize_us(),
        workload: workload_echo(&config.workload),
        server: None,
        server_stats: None,
        tenants: tenant_sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_server::{BackendConfig, CacheServer, ServerConfig};

    fn test_server(shards: usize) -> CacheServer {
        CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Fewer event loops than loadgen connections, on purpose.
            workers: 2,
            backend: BackendConfig {
                total_bytes: 32 << 20,
                shards,
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start")
    }

    fn small_config(addr: String) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            connections: 2,
            requests: 2_000,
            warmup_keys: 500,
            pipeline: 8,
            workload: WorkloadSpec {
                keys: KeyPopularity::Zipf {
                    num_keys: 1_000,
                    exponent: 0.99,
                },
                sizes: SizeDistribution::Fixed(128),
                ..WorkloadSpec::default()
            },
            ..LoadgenConfig::default()
        }
    }

    /// Drives one shared worker loop, filling on miss, over each kind of op
    /// source against an unwarmed server: every claimed request is recorded,
    /// and each demand fill counts once as a SET and once as a fill.
    fn both_sources_account_for_every_request(server: &CacheServer, open: bool) {
        let spec = small_config(String::new()).workload;
        let phase = crate::scenario::Phase::steady("steady", 300, 1_000, 0.99);
        drive(server, &mut RequestGen::new(&spec, 0), open);
        // Another seed: the same one draws the first source's keys again,
        // all of them hits by then.
        let mut phased = crate::scenario::PhaseGen::new(&phase, 0, 1, !spec.seed);
        drive(server, &mut phased, open);
    }

    fn drive(server: &CacheServer, gen: &mut impl OpSource, open: bool) {
        let mut conn = Conn::connect(&server.local_addr().to_string()).unwrap();
        let pool = vec![b'x'; 1 << 10];
        let budget = AtomicU64::new(300);
        let stats = if open {
            let mut pacer = Pacer::new(Instant::now(), 50_000.0);
            run_open(&mut conn, gen, (&budget, 300), &mut pacer, &pool, true)
        } else {
            run_closed(&mut conn, gen, (&budget, 300), 8, &pool, true)
        }
        .unwrap();
        let generated_sets = stats.sets - stats.fills;
        assert_eq!(stats.gets + generated_sets, 300, "claimed = recorded");
        assert_eq!(stats.fills, stats.gets - stats.hits, "a fill per miss");
        assert!(stats.fills > 0 && generated_sets > 0);
        assert_eq!(stats.fill.count(), stats.fills);
        assert_eq!(stats.set.count(), stats.sets);
        assert_eq!(stats.all.count(), stats.gets + stats.sets);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn closed_loop_completes_the_budget_and_reports() {
        let server = test_server(2);
        let report = run_load(&small_config(server.local_addr().to_string())).unwrap();
        assert_eq!(report.requests, 2_000);
        assert_eq!(report.gets + report.sets, 2_000);
        assert!(report.throughput_rps > 0.0);
        assert!(
            report.hit_rate > 0.5,
            "warmed Zipf run: {}",
            report.hit_rate
        );
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.count, 2_000);
        assert!(report.latency.p50_us > 0.0);
        assert!(report.latency.p999_us >= report.latency.p99_us);
        assert_eq!(report.schema, LOAD_SCHEMA);
        both_sources_account_for_every_request(&test_server(1), false);
    }

    #[test]
    fn open_loop_respects_the_budget_and_measures_from_schedule() {
        let server = test_server(1);
        let mut config = small_config(server.local_addr().to_string());
        config.requests = 400;
        config.mode = LoadMode::Open {
            target_rps: 4_000.0,
        };
        let report = run_load(&config).unwrap();
        assert_eq!(report.requests, 400);
        assert_eq!(report.mode, "open");
        assert_eq!(report.pipeline, 1);
        // 400 requests at 4k rps should take roughly 0.1 s of schedule.
        assert!(report.elapsed_secs < 5.0);
        both_sources_account_for_every_request(&test_server(1), true);
    }

    #[test]
    fn fill_on_miss_repopulates_the_cache() {
        // A pure-GET stream over an unwarmed cache: without demand fill the
        // hit rate is zero forever; with it, every miss SETs the key and the
        // hot Zipf ranks become resident inside the run.
        let server = test_server(1);
        let mut config = small_config(server.local_addr().to_string());
        config.requests = 6_000;
        config.warmup_keys = 0;
        config.fill_on_miss = true;
        config.workload.get_fraction = 1.0;
        let report = run_load(&config).unwrap();
        assert_eq!(report.gets, 6_000, "the budget counts the generated GETs");
        assert!(report.sets > 0, "misses must demand-fill");
        assert_eq!(
            report.requests,
            report.gets + report.sets,
            "fills ride on top of the budget"
        );
        assert!(
            report.hit_rate > 0.3,
            "demand fill must lift the hit rate off zero: {}",
            report.hit_rate
        );
        assert_eq!(report.errors, 0);
        // A pure-GET stream: every SET is a fill, and the fill section is a
        // real histogram over exactly those SETs.
        assert_eq!(report.fills, report.sets);
        assert_eq!(report.fill_latency.count, report.fills);
        assert!(report.fill_latency.p50_us > 0.0);
    }

    #[test]
    fn open_loop_fills_are_scheduled_arrivals() {
        // Open-loop with fills: each fill consumes an arrival slot, so the
        // run's wall clock stretches to cover (requests + fills) at the
        // configured rate, and fill latencies are schedule-anchored.
        let server = test_server(1);
        let mut config = small_config(server.local_addr().to_string());
        config.requests = 600;
        config.warmup_keys = 0;
        config.fill_on_miss = true;
        config.workload.get_fraction = 1.0;
        config.mode = LoadMode::Open {
            target_rps: 6_000.0,
        };
        let report = run_load(&config).unwrap();
        assert_eq!(report.gets, 600, "the budget counts the generated GETs");
        assert!(report.fills > 0, "an unwarmed pure-GET stream must fill");
        assert_eq!(report.fills, report.sets);
        assert_eq!(report.requests, report.gets + report.fills);
        assert_eq!(report.fill_latency.count, report.fills);
        assert_eq!(report.errors, 0);
        // The schedule covered every completed request (fills included): at
        // an aggregate 6k rps, (gets + fills) arrivals need at least
        // requests/6000 seconds of schedule — out-of-band fills (the old
        // behaviour) would finish in roughly gets/6000 alone and fail this.
        let min_schedule = report.requests as f64 / 6_000.0;
        assert!(
            report.elapsed_secs >= min_schedule * 0.9,
            "fills must stretch the schedule: {} < {}",
            report.elapsed_secs,
            min_schedule
        );
    }

    /// |a - b| as a Duration, for schedule assertions with a tolerance.
    fn delta(a: Instant, b: Instant) -> Duration {
        if a > b {
            a.duration_since(b)
        } else {
            b.duration_since(a)
        }
    }

    #[test]
    fn pacer_spaces_arrivals_at_the_configured_interval() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(t0, 1_000.0); // 1 ms spacing
        for k in 1..=5u32 {
            let slot = pacer.next_arrival();
            let want = t0 + Duration::from_millis(k as u64);
            assert!(delta(slot, want) < Duration::from_micros(2), "slot {k}");
        }
    }

    #[test]
    fn pacer_rate_change_continues_the_chain_from_the_boundary() {
        // Regression test for the diurnal phase-boundary bug: after a rate
        // change, the schedule must continue from where the old schedule
        // ended — 5 arrivals at 1 ms then arrivals every 100 µs — not be
        // recomputed from the run start at the new rate (which would
        // teleport the chain to t0 + 600 µs, in the past) and not re-anchor
        // to the wall clock (which would forgive server backlog:
        // coordinated omission at every phase boundary).
        let t0 = Instant::now();
        let mut pacer = Pacer::new(t0, 1_000.0);
        let mut boundary = t0;
        for _ in 0..5 {
            boundary = pacer.next_arrival();
        }
        assert!(delta(boundary, t0 + Duration::from_millis(5)) < Duration::from_micros(2));
        pacer.set_rate(10_000.0);
        let first = pacer.next_arrival();
        let second = pacer.next_arrival();
        let want_first = t0 + Duration::from_millis(5) + Duration::from_micros(100);
        assert!(
            delta(first, want_first) < Duration::from_micros(2),
            "first new-rate arrival must extend the old boundary by the new interval"
        );
        assert!(delta(second, want_first + Duration::from_micros(100)) < Duration::from_micros(2));
        // The new slots are nowhere near a from-scratch schedule at the new
        // rate (t0 + 600 µs / 700 µs): the chain kept its history.
        assert!(first > t0 + Duration::from_millis(4));
    }

    #[test]
    fn connection_and_request_allocation_follow_weights() {
        let tenants = vec![
            TenantLoad::new("a", 3, WorkloadSpec::default()),
            TenantLoad::new("b", 1, WorkloadSpec::default()),
        ];
        assert_eq!(allocate_connections(8, &tenants), vec![6, 2]);
        // Every tenant keeps at least one connection even when outweighed.
        assert_eq!(allocate_connections(2, &tenants), vec![1, 1]);
        let requests = allocate_requests(100_000, &tenants);
        assert_eq!(requests, vec![75_000, 25_000]);
        assert_eq!(requests.iter().sum::<u64>(), 100_000);
        let lone = vec![TenantLoad::new("only", 5, WorkloadSpec::default())];
        assert_eq!(allocate_connections(3, &lone), vec![3]);
        assert_eq!(allocate_requests(7, &lone), vec![7]);
    }

    fn tenant_server() -> CacheServer {
        CacheServer::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backend: BackendConfig {
                total_bytes: 32 << 20,
                shards: 2,
                tenants: vec![
                    cache_server::TenantSpec::new("hot", 1),
                    cache_server::TenantSpec::new("cold", 1),
                ],
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server must start")
    }

    #[test]
    fn multi_tenant_run_reports_per_tenant_sections() {
        let server = tenant_server();
        let mut config = small_config(server.local_addr().to_string());
        config.connections = 4;
        config.requests = 4_000;
        config.tenants = vec![
            TenantLoad::new(
                "hot",
                3,
                WorkloadSpec {
                    keys: KeyPopularity::Zipf {
                        num_keys: 500,
                        exponent: 1.1,
                    },
                    sizes: SizeDistribution::Fixed(128),
                    ..WorkloadSpec::default()
                },
            ),
            TenantLoad::new(
                "cold",
                1,
                WorkloadSpec {
                    keys: KeyPopularity::Uniform { num_keys: 2_000 },
                    sizes: SizeDistribution::Fixed(64),
                    ..WorkloadSpec::default()
                },
            ),
        ];
        let report = run_load(&config).unwrap();
        assert_eq!(report.requests, 4_000);
        assert_eq!(report.errors, 0);
        assert_eq!(report.tenants.len(), 2);
        let hot = &report.tenants[0];
        let cold = &report.tenants[1];
        assert_eq!(hot.tenant, "hot");
        assert_eq!(cold.tenant, "cold");
        // Weighted budget split: 3:1.
        assert_eq!(hot.requests, 3_000);
        assert_eq!(cold.requests, 1_000);
        assert_eq!(hot.connections, 3);
        assert_eq!(cold.connections, 1);
        assert_eq!(hot.requests + cold.requests, report.requests);
        assert_eq!(hot.gets + cold.gets, report.gets);
        assert_eq!(hot.latency.count, 3_000);
        assert!(hot.hit_rate > 0.5, "warmed Zipf tenant: {}", hot.hit_rate);
        assert_eq!(hot.workload.keys, "zipf:1.1");
        assert_eq!(cold.workload.keys, "uniform");
        // Section latencies are real measurements.
        assert!(hot.latency.p50_us > 0.0);
        assert!(cold.latency.p50_us > 0.0);
    }

    #[test]
    fn unknown_tenant_fails_the_run() {
        let server = tenant_server();
        let mut config = small_config(server.local_addr().to_string());
        config.tenants = vec![TenantLoad::new("nope", 1, WorkloadSpec::default())];
        let err = run_load(&config).expect_err("unknown app must fail fast");
        assert!(err.to_string().contains("app nope"), "{err}");
    }

    #[test]
    fn more_tenants_than_connections_rejected() {
        let mut config = small_config("127.0.0.1:1".to_string());
        config.connections = 1;
        config.tenants = vec![
            TenantLoad::new("a", 1, WorkloadSpec::default()),
            TenantLoad::new("b", 1, WorkloadSpec::default()),
        ];
        assert!(run_load(&config).is_err());
    }

    #[test]
    fn unreachable_server_is_an_error() {
        let config = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            ..LoadgenConfig::default()
        };
        assert!(run_load(&config).is_err());
    }

    #[test]
    fn zero_connections_rejected() {
        let config = LoadgenConfig {
            connections: 0,
            ..LoadgenConfig::default()
        };
        assert!(run_load(&config).is_err());
    }
}
