//! One client connection: its operation stream, the model of what the
//! server must hold for its keys, and the loops that drive it — untimed
//! preload and warm-up, the closed-loop capacity phase, the open-loop paced
//! phase and the pipeline-1 traced pass.
//!
//! Every reply is checked. Each key belongs to exactly one connection, and
//! a connection's requests are answered in order, so at the moment a GET is
//! sent the client knows the only value a hit may carry: the last one it
//! wrote. A miss is always acceptable (the cache may evict) except that a
//! deleted key must stay gone.

use crate::gen::{mix64, Inputs, Kind, Op, Stream, MAX_VALUE};
use crate::maths::Windowed;
use crate::procfs::thread_cpu_ns;
use crate::spans::{Recorder, NO_PARENT};
use crate::wire::{Conn, Reply};
use crate::workload::StreamSpec;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Latency recorded for an operation that failed: beyond any limit.
pub const FAILED_LATENCY: u32 = u32::MAX;
/// An open-loop phase this far behind its schedule has a growing backlog;
/// what is left of it is counted as failed instead of waited for.
const BACKLOG_LIMIT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations answered (or lost with the connection).
    pub ops: u64,
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub sets_refused: u64,
    /// Errored operations, hits whose bytes are not the last acknowledged
    /// write, hits on deleted keys, and operations lost to a dropped
    /// connection.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.gets += other.gets;
        self.hits += other.hits;
        self.sets += other.sets;
        self.sets_refused += other.sets_refused;
        self.failed += other.failed;
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            ops: self.ops - earlier.ops,
            gets: self.gets - earlier.gets,
            hits: self.hits - earlier.hits,
            sets: self.sets - earlier.sets,
            sets_refused: self.sets_refused - earlier.sets_refused,
            failed: self.failed - earlier.failed,
        }
    }
}

/// What the server must hold for one key.
#[derive(Clone, Copy, Default)]
struct KeyState {
    /// Bumped on every SET, never reused, sent as the item's flags.
    version: u32,
    len: u32,
    present: bool,
    /// The version of the last SET the server answered `NOT_STORED`.
    refused: u32,
}

/// A request in flight, with the expectation captured when it was sent.
struct Pending {
    kind: Kind,
    key: u32,
    expect: KeyState,
}

/// An open-loop request sent no later than this after it was due was sent
/// on time. When something outside the benchmark keeps the client thread
/// off the CPU (the hypervisor, another process), requests go out late and
/// in bursts, each queueing behind the other connection's; what those take
/// says nothing about the server.
const ON_TIME: Duration = Duration::from_micros(20);

/// What one open-loop phase records.
pub struct PacedLog {
    /// From the time each request was *due* to its checked reply, so a stall
    /// charges every request it delays.
    pub latency: Windowed,
    /// From the time each request was *sent* to its checked reply, in ns, of
    /// the answered requests that were sent on time.
    pub service: Vec<u32>,
    /// How late each request was sent, in ns.
    pub lag: Vec<u32>,
}

impl PacedLog {
    pub fn new(windows: usize) -> PacedLog {
        PacedLog {
            latency: Windowed::new(windows),
            service: Vec::new(),
            lag: Vec::new(),
        }
    }

    pub fn merge(&mut self, other: PacedLog) {
        self.latency.merge(other.latency);
        self.service.extend(other.service);
        self.lag.extend(other.lag);
    }
}

pub struct Worker<'a> {
    index: usize,
    inputs: &'a Inputs,
    stream: Stream<'a>,
    conn: Conn,
    model: Vec<KeyState>,
    /// Keys whose GET missed and that cache-aside will now store.
    fills: VecDeque<u32>,
    inflight: VecDeque<Pending>,
    pub tally: Tally,
    /// Yardstick samples since the list was last taken (see
    /// `harness::Speed`): CPU ns this thread spent per operation sending a
    /// closed-loop batch, or on a whole open-loop request.
    yardstick: Vec<u32>,
}

impl<'a> Worker<'a> {
    pub fn connect(
        inputs: &'a Inputs,
        index: usize,
        seed: u64,
        addr: SocketAddr,
    ) -> io::Result<Worker<'a>> {
        let mut conn = Conn::connect(addr)?;
        let spec = &inputs.conns[index].spec;
        // A round trip before the next connection is opened also pins the
        // order in which the acceptor hands connections to event loops.
        match spec.tenant {
            Some(tenant) => conn.push_line(&format!("app {tenant}")),
            None => conn.push_line("app default"),
        }
        conn.flush()?;
        if conn.reply()? != Reply::Ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server refused the app selector",
            ));
        }
        Ok(Worker {
            index,
            inputs,
            stream: Stream::new(inputs, index, seed),
            conn,
            model: vec![KeyState::default(); inputs.conns[index].keys.len()],
            fills: VecDeque::new(),
            inflight: VecDeque::new(),
            tally: Tally::default(),
            yardstick: Vec::new(),
        })
    }

    /// The next operation: a pending cache-aside fill, else the stream's.
    fn next_op(&mut self) -> Op {
        match self.fills.pop_front() {
            Some(key) => Op {
                kind: Kind::Set,
                key,
                len: self.stream.fill_len(key),
            },
            None => self.stream.next_op(),
        }
    }

    /// Encodes `op` into the write buffer and records what its reply must be.
    fn push(&mut self, op: Op) {
        let name = self.inputs.conns[self.index].keys.name(op.key);
        let state = &mut self.model[op.key as usize];
        match op.kind {
            Kind::Get => self.conn.push_get(name),
            Kind::Set => {
                *state = KeyState {
                    version: state.version + 1,
                    len: op.len,
                    present: true,
                    refused: state.refused,
                };
                let value = self.inputs.value(self.index, op.key, state.version, op.len);
                self.conn.push_set(name, state.version, value);
            }
            Kind::Delete => {
                state.present = false;
                self.conn.push_delete(name);
            }
        }
        self.inflight.push_back(Pending {
            kind: op.kind,
            key: op.key,
            expect: *state,
        });
    }

    /// Checks `reply` against the oldest request in flight. Returns whether
    /// the operation succeeded.
    fn check(&mut self, reply: Reply) -> bool {
        let sent = self
            .inflight
            .pop_front()
            .expect("a reply is only read for a request in flight");
        self.tally.ops += 1;
        let ok = match (sent.kind, reply) {
            (Kind::Get, Reply::Miss) => {
                self.tally.gets += 1;
                if self.inputs.conns[self.index].spec.fill_on_miss {
                    self.fills.push_back(sent.key);
                }
                true
            }
            (Kind::Get, Reply::Hit { flags, at, len }) => {
                self.tally.gets += 1;
                self.tally.hits += 1;
                let e = sent.expect;
                // If the server refused the last write, what it holds is
                // for it to say: an older version of ours, or nothing.
                let refused = self.model[sent.key as usize].refused == e.version;
                let current = flags == e.version && len == e.len as usize;
                e.present
                    && (current || (refused && flags < e.version && len <= MAX_VALUE))
                    && self.conn.payload(at, len)
                        == self.inputs.value(self.index, sent.key, flags, len as u32)
            }
            (Kind::Set, Reply::Stored) => {
                self.tally.sets += 1;
                true
            }
            // The cache may decline to admit an item. That costs hits, not
            // correctness: it is counted, and reported as
            // `client.set_refused_share`, but it is not a failed operation.
            (Kind::Set, Reply::NotStored) => {
                self.tally.sets += 1;
                self.tally.sets_refused += 1;
                self.model[sent.key as usize].refused = sent.expect.version;
                true
            }
            (Kind::Delete, Reply::Deleted | Reply::NotFound) => true,
            _ => false,
        };
        if !ok {
            self.tally.failed += 1;
        }
        ok
    }

    fn settle(&mut self) -> io::Result<bool> {
        let reply = self.conn.reply()?;
        Ok(self.check(reply))
    }

    /// Generates, encodes and sends `batch` operations at once.
    fn send(&mut self, batch: usize) -> io::Result<()> {
        for _ in 0..batch {
            let op = self.next_op();
            self.push(op);
        }
        self.conn.flush()
    }

    fn receive(&mut self, batch: usize) -> io::Result<()> {
        for _ in 0..batch {
            self.settle()?;
        }
        Ok(())
    }

    /// Sends `batch` operations at once, then reads their replies.
    fn round(&mut self, batch: usize) -> io::Result<()> {
        self.send(batch)?;
        self.receive(batch)
    }

    /// [`Worker::round`], with the CPU time of its sending half recorded as
    /// a yardstick sample. That half is the same work whatever the server
    /// does with the batch, so how long it takes says how fast the machine
    /// is at that moment.
    fn metered_round(&mut self, batch: usize) -> io::Result<()> {
        let before = thread_cpu_ns();
        let sent = self.send(batch);
        let cost = thread_cpu_ns() - before;
        self.yardstick.push((cost / batch as u64) as u32);
        sent?;
        self.receive(batch)
    }

    /// The yardstick samples recorded since the last call.
    pub fn take_yardstick(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.yardstick)
    }

    pub fn spec(&self) -> &'a StreamSpec {
        &self.inputs.conns[self.index].spec
    }

    /// Counts everything still in flight, plus `unsent` operations that
    /// will now never be sent, as failed: the connection is gone.
    fn abandon(&mut self, unsent: u64) {
        let lost = self.inflight.len() as u64 + unsent;
        self.inflight.clear();
        self.tally.ops += lost;
        self.tally.failed += lost;
    }

    /// Untimed: stores the preload keys, then runs `warmup_ops` operations
    /// of the real stream, all at `pipeline` depth.
    pub fn preload_and_warm(&mut self, warmup_ops: usize, pipeline: usize) -> io::Result<()> {
        let order = self.stream.preload_order();
        for chunk in order.chunks(pipeline) {
            for &key in chunk {
                let len = self.stream.fill_len(key);
                self.push(Op {
                    kind: Kind::Set,
                    key,
                    len,
                });
            }
            self.conn.flush()?;
            for _ in chunk {
                self.settle()?;
            }
        }
        for _ in 0..warmup_ops.div_ceil(pipeline) {
            self.metered_round(pipeline)?;
        }
        Ok(())
    }

    /// Closed loop: `pipeline` requests out, `pipeline` replies in, until
    /// `length` has passed since `start`.
    pub fn closed_loop(&mut self, start: Instant, length: Duration, pipeline: usize) {
        while start.elapsed() < length {
            if self.metered_round(pipeline).is_err() {
                self.abandon(0);
                return;
            }
        }
    }

    /// Open loop: request `i` is due `offset_ns + i * interval_ns` after
    /// `start`, one request outstanding.
    pub fn paced(
        &mut self,
        start: Instant,
        (offset_ns, interval_ns, count): (u64, u64, u64),
        log: &mut PacedLog,
    ) {
        let PacedLog {
            latency,
            service,
            lag,
        } = log;
        let clamp = |ns: u64| ns.min(u64::from(FAILED_LATENCY - 1)) as u32;
        let due_ns = |i: u64| offset_ns + i * interval_ns;
        for i in 0..count {
            // Half of the requests are yardstick samples (if sent on time)
            // instead of latency samples: their CPU time is read before and
            // after, and a clock read inside a timed request would lengthen
            // it. Picked by hash, not by parity, which a GET-miss/SET-fill
            // alternation follows.
            let yardstick = mix64(i) & 1 == 1;
            let due = Duration::from_nanos(due_ns(i));
            // Every thread is pinned to one CPU. Waiting by handing that CPU
            // to whoever wants it sends on time to within a few us; sleeping
            // instead costs a timer wake-up whose jitter (p99 ~100 us in
            // this VM) would be reported as the server's tail latency.
            while start.elapsed() < due {
                std::thread::yield_now();
            }
            let late = start.elapsed() - due;
            let sent = if late > BACKLOG_LIMIT {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "backlog is growing",
                ))
            } else {
                lag.push(clamp(late.as_nanos() as u64));
                let before = (yardstick && late < ON_TIME).then(thread_cpu_ns);
                let op = self.next_op();
                self.push(op);
                let answered = self.conn.flush().and_then(|()| self.settle());
                if let Some(before) = before {
                    self.yardstick.push((thread_cpu_ns() - before) as u32);
                }
                answered
            };
            match sent {
                Ok(true) if yardstick => {}
                Ok(true) => {
                    let took = start.elapsed().saturating_sub(due);
                    latency.record(due_ns(i), clamp(took.as_nanos() as u64));
                    if late < ON_TIME {
                        service.push(clamp((took - late).as_nanos() as u64));
                    }
                }
                Ok(false) => latency.record(due_ns(i), FAILED_LATENCY),
                Err(_) => {
                    // Nothing more will be answered: this request and every
                    // later one miss any latency limit.
                    for lost in i..count {
                        latency.record(due_ns(lost), FAILED_LATENCY);
                    }
                    self.abandon(count - i - self.inflight.len() as u64);
                    return;
                }
            }
        }
    }

    /// Pipeline 1, `ops` operations, as fast as replies come. With a
    /// recorder, each request leaves a `request` span with four children;
    /// without one, no clock is read inside the loop.
    pub fn traced(&mut self, ops: u32, spans: Option<&mut Recorder>) -> io::Result<()> {
        let Some(rec) = spans else {
            for _ in 0..ops {
                self.round(1)?;
            }
            return Ok(());
        };
        let request = rec.name("request");
        let children = [
            "client.encode",
            "client.write",
            "client.wait_read",
            "client.verify",
        ]
        .map(|name| rec.name(name));
        for i in 0..ops {
            let t0 = rec.now();
            let op = self.next_op();
            self.push(op);
            let t1 = rec.now();
            self.conn.flush()?;
            let t2 = rec.now();
            let reply = self.conn.reply()?;
            let t3 = rec.now();
            self.check(reply);
            let t4 = rec.now();
            rec.record(i, request, NO_PARENT, t0, t4);
            for (name, (from, to)) in children
                .iter()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
            {
                rec.record(i, *name, request, from, to);
            }
        }
        Ok(())
    }

    /// Fetches the server's `stats json` document over this connection.
    pub fn stats_json(&mut self) -> io::Result<String> {
        self.conn.blob("stats json")
    }
}
