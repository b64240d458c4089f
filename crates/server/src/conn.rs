//! The per-connection state machine the reactor drives.
//!
//! Each connection owns a non-blocking socket, a read buffer, a resumable
//! [`Parser`] and a pending-output buffer. The reactor calls
//! [`Connection::on_ready`] with the epoll readiness it observed; the
//! connection reads whatever the socket has, executes every complete
//! command, and writes as much of the accumulated response bytes as the
//! socket accepts. Nothing here ever blocks:
//!
//! * a *read* that would block simply ends the fill pass — the loop's
//!   level-triggered `EPOLLIN` re-arms it;
//! * a *write* that would block parks the unsent bytes and switches the
//!   connection onto `EPOLLOUT` (write backpressure) — and once more than
//!   [`OUT_HIGH_WATERMARK`] bytes are parked, the connection also stops
//!   reading and parsing, so a client that requests faster than it reads
//!   responses is throttled by TCP instead of ballooning server memory.
//!
//! # Routing and the completion ring
//!
//! This is where the shared-nothing data plane routes: every key is hashed
//! to its shard *before* any engine is touched. A key whose shard the
//! connection's own loop owns executes inline — plain field accesses on
//! loop-owned state, zero shared locks. A key owned by another loop is
//! forwarded as a [`DataOp`] message, and the connection *keeps parsing*:
//! the command takes an [`Entry`] in the connection's in-order completion
//! ring (entry `seq` sits at index `seq - head_seq`), later commands queue
//! their finished responses behind it, and a
//! [`crate::plane::LoopMsg::DataReply`] fills its entry whenever it
//! arrives. Responses leave the head of the ring in program order, so the
//! wire is byte-identical to inline execution while a pipelined batch
//! crosses the mailbox as one message batch and one wake-up per target
//! loop. With the ring empty (every key local) responses encode straight
//! into `out`, exactly as before the ring existed.
//!
//! # The byte path
//!
//! A request byte is copied once, by the kernel, into `inbuf`; commands are
//! parsed in place and consumed by moving a cursor, a local `get` looks its
//! keys up while they still sit in `inbuf` and copies a hit's payload from
//! the engine's stored item onto `out` (the payload's one copy), and a
//! store's key and data are copied once into the `Bytes` that then move
//! into the engine. Only a key another loop owns is copied out to cross
//! threads. ARCHITECTURE.md has the table; `tests/byte_path.rs` holds the
//! allocation counts.
//!
//! * **Same-key order** needs no mechanism of its own: shard ownership is
//!   static and mailboxes are FIFO, so every op on a key reaches its one
//!   owner in program order.
//! * **Admin commands** (`stats`, `flush_all`, `app_create`, `app_list`) are
//!   barriers. They go to the control thread at once, while forwarded data
//!   ops wait in the loop's outbound batch, so one is sent only when the
//!   ring ahead of it has drained, and nothing is parsed past it until its
//!   [`crate::plane::LoopMsg::AdminDone`] — the event loop keeps serving
//!   every sibling connection meanwhile.
//! * **Replica bypass**: while a forwarded write is un-acked its owner has
//!   not bumped the key's version yet, so remote GETs skip the hot-key
//!   replica cache and forward; FIFO to the owner restores read-your-writes.
//! * **Bounds**: at most [`MAX_IN_FLIGHT`] entries, and finished responses
//!   waiting in the ring count toward [`OUT_HIGH_WATERMARK`]; at either
//!   limit the connection stops parsing and reading until replies drain it.
//!
//! The command semantics (and every byte on the wire) are identical to the
//! old blocking handler; only the scheduling changed.

use crate::plane::{
    AdminOp, AdminResult, DataOp, DataOutcome, DataReplyTo, DataVerb, LoopMsg, LoopState,
};
use crate::protocol::{
    encode_response, encode_value, Command, ParseOutcome, Parser, Request, Response,
};
use bytes::{Bytes, BytesMut};
use cache_core::Key;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::reactor::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Pending-output bytes above which the connection stops reading and
/// parsing until the socket drains (and above which a pipelined batch is
/// cut, matching the old handler's flush threshold).
pub(crate) const OUT_HIGH_WATERMARK: usize = 256 * 1024;
/// Ring entries a connection may hold before it stops parsing: deep enough
/// that a pipelined batch crosses the mailbox in one piece, small enough to
/// bound what one socket can queue on other loops.
const MAX_IN_FLIGHT: usize = 128;
/// Spare input capacity a fill pass starts with, and what a connection's
/// two buffers are born with.
const READ_CHUNK: usize = 16 * 1024;
/// Input capacity an idle connection may keep: a burst's buffer (up to
/// [`IN_FILL_BUDGET`] of pipelined commands, or one value of up to
/// [`crate::protocol::MAX_DATA_BYTES`]) goes back to the allocator once it
/// is parsed, the way `flush` trims `out`.
const IN_RETAIN: usize = 4 * READ_CHUNK;
/// Bytes buffered per fill pass before yielding back to the loop, so one
/// fire-hosing connection cannot starve its siblings (level-triggered
/// epoll re-schedules it immediately).
const IN_FILL_BUDGET: usize = 256 * 1024;

/// What a connection needs from its event loop to execute commands: the
/// loop-owned state (engines, tenant table, outbound queues) and its own
/// token, so forwarded operations can find their way back.
pub(crate) struct Ctx<'a> {
    pub(crate) state: &'a mut LoopState,
    pub(crate) token: u64,
}

/// What the reactor should do with the connection after a readiness pass.
pub(crate) enum Drive {
    /// Keep it registered with this interest set.
    Keep {
        /// Desired epoll interest bits.
        interest: u32,
        /// Whether they differ from the currently registered set.
        changed: bool,
    },
    /// Deregister and drop it.
    Close,
}

/// How an I/O pass left the socket.
#[derive(PartialEq, Debug)]
enum Flow {
    /// Still usable.
    Open,
    /// The peer closed its writing half (serve what is buffered, then
    /// close).
    Eof,
    /// Hard I/O error: close now.
    Broken,
}

/// Ends a `read_to_end` as soon as the socket has been read dry. A read that
/// returns fewer bytes than it was offered emptied the socket's buffer, so
/// the `recv` after it could only say `EAGAIN`; this reports end-of-input
/// there instead of paying for that call on every pass (level-triggered
/// epoll re-arms the connection if more has arrived since). `eof` tells the
/// peer's real end of input — a read of zero bytes — from that.
struct UntilShort<R> {
    inner: R,
    short: bool,
    eof: bool,
}

impl<R: Read> Read for UntilShort<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.short {
            return Ok(0);
        }
        let n = self.inner.read(buf)?;
        self.eof = n == 0;
        self.short = n < buf.len();
        Ok(n)
    }
}

/// One fill pass: appends what `socket` has to `inbuf`, up to
/// [`IN_FILL_BUDGET`] bytes, stopping after the first short read. Bytes read
/// before an error are kept.
fn fill_from(inbuf: &mut BytesMut, socket: impl Read) -> Flow {
    inbuf.reserve(READ_CHUNK);
    let mut socket = UntilShort {
        inner: socket,
        short: false,
        eof: false,
    };
    match inbuf.read_from(&mut (&mut socket).take(IN_FILL_BUDGET as u64)) {
        Ok(_) if socket.eof => Flow::Eof,
        // The budget's end or the socket's: either way there may be more.
        Ok(_) => Flow::Open,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Flow::Open,
        Err(_) => Flow::Broken,
    }
}

/// One command whose response is not on `out` yet, in program order.
enum Entry {
    /// One key of a `get`, forwarded to the loop that owns it; the key is
    /// kept for the `VALUE` line of a hit. A (multi-)get is one entry per
    /// remote key with its local hits as `Done` bytes between them, so the
    /// ring's order is the reply's order. `end`: the command's `END`
    /// follows this key (no later key of it produced bytes).
    Get { key: Bytes, end: bool },
    /// A store or delete forwarded to the owning loop. A `noreply` one
    /// keeps its place in the order and emits nothing.
    Write { delete: bool, noreply: bool },
    /// An admin command: `Some` until the ring ahead of it drains and it is
    /// sent to the control thread, `None` while that thread runs it.
    Admin(Option<AdminOp>),
    /// Finished response bytes waiting for the entries ahead of them.
    Done(Vec<u8>),
}

/// What closes a `get` reply.
const END: &[u8] = b"END\r\n";

/// The reply to a store (`delete == false`) or delete verb.
fn flag_response(delete: bool, outcome: &DataOutcome) -> Response {
    match (delete, matches!(outcome, DataOutcome::Flag(true))) {
        (false, true) => Response::Stored,
        (false, false) => Response::NotStored,
        (true, true) => Response::Deleted,
        (true, false) => Response::NotFound,
    }
}

/// One client connection: socket, buffers, parser and session state.
pub(crate) struct Connection {
    stream: TcpStream,
    parser: Parser,
    inbuf: BytesMut,
    out: Vec<u8>,
    /// Bytes of `out` already written to the socket.
    out_pos: usize,
    /// The session's tenant namespace (`app <name>` switches it; index 0 —
    /// the default tenant — until then).
    tenant: usize,
    /// The interest set currently registered with epoll.
    interest: u32,
    /// Quit or EOF observed: flush the remaining output, then close.
    draining: bool,
    /// The in-order completion ring; empty whenever every key so far was
    /// local.
    ring: VecDeque<Entry>,
    /// Sequence number of `ring[0]`. Replies carry their entry's number, so
    /// one that no longer (or never) maps into the ring is dropped.
    head_seq: u64,
    /// Bytes held by the ring's `Done` entries.
    ring_bytes: usize,
    /// Forwarded writes not yet acknowledged (the replica bypass).
    unacked_writes: usize,
    /// Last time the peer gave us bytes or an operation resolved — the
    /// idle reaper's clock.
    last_activity: Instant,
}

/// What one parse-and-execute pass produced.
enum Step {
    /// Number of commands executed before the input ran dry.
    Dry(usize),
    /// Number of commands executed before the connection stalled.
    Stalled(usize),
    /// The client sent `quit`.
    Quit,
}

impl Connection {
    /// Takes ownership of a freshly accepted socket, making it non-blocking.
    pub(crate) fn adopt(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            parser: Parser::new(),
            inbuf: BytesMut::with_capacity(READ_CHUNK),
            out: Vec::with_capacity(READ_CHUNK),
            out_pos: 0,
            tenant: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            draining: false,
            ring: VecDeque::new(),
            head_seq: 0,
            ring_bytes: 0,
            unacked_writes: 0,
            last_activity: Instant::now(),
        })
    }

    /// The socket's fd, for epoll registration.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The currently desired epoll interest set.
    pub(crate) fn interest(&self) -> u32 {
        self.interest
    }

    /// Whether a command is still waiting on another thread.
    pub(crate) fn in_flight(&self) -> bool {
        !self.ring.is_empty()
    }

    /// How long the connection has been silent, for the idle reaper.
    pub(crate) fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether parsing must wait: output (unsent, or finished but still in
    /// the ring) is past the watermark, the ring is full, or an admin
    /// barrier is up.
    fn stalled(&self) -> bool {
        self.pending_out() + self.ring_bytes >= OUT_HIGH_WATERMARK
            || self.ring.len() >= MAX_IN_FLIGHT
            || matches!(self.ring.back(), Some(Entry::Admin(_)))
    }

    /// One readiness pass: flush, then parse/execute/flush — with one fill
    /// from the socket in between — until quiescent or stalled.
    pub(crate) fn on_ready(&mut self, readable: bool, writable: bool, ctx: &mut Ctx<'_>) -> Drive {
        if readable || writable {
            self.last_activity = Instant::now();
        }
        // Always flush first, not only on `EPOLLOUT`: replies that resolved
        // ring entries since the last pass put bytes on `out`, and `process`
        // may only find the watermark in its way when the socket is full.
        if self.flush() == Flow::Broken {
            return Drive::Close;
        }
        // Parsing can be resumed by a flush that drains the output below
        // the watermark, so alternate the two until neither makes progress.
        // The socket is read once per pass, and only when the parser has
        // run the buffer dry: a connection held at the watermark executes
        // what it already holds instead of buffering more behind it.
        let mut read = readable;
        loop {
            let (parsed, dry) = match self.process(ctx) {
                Step::Dry(n) => (n, true),
                Step::Stalled(n) => (n, false),
                Step::Quit => {
                    // Commands pipelined after `quit` are never parsed,
                    // exactly like the blocking handler's early return.
                    self.draining = true;
                    self.inbuf.clear();
                    (0, false)
                }
            };
            if self.flush() == Flow::Broken {
                return Drive::Close;
            }
            if dry && read && !self.draining && !self.stalled() {
                read = false;
                match self.fill() {
                    Flow::Broken => return Drive::Close,
                    Flow::Eof => self.draining = true,
                    Flow::Open => {}
                }
                continue;
            }
            if parsed == 0 || self.pending_out() > 0 {
                break;
            }
        }
        if self.draining && self.pending_out() == 0 && self.ring.is_empty() {
            return Drive::Close;
        }
        let mut want = 0;
        if self.pending_out() > 0 {
            want |= EPOLLOUT;
        }
        // A stalled connection reads nothing: there is no point waking on
        // (and buffering) input we would not parse. A ring that is merely
        // non-empty keeps `EPOLLIN`, so a pipelined stream costs no
        // `epoll_ctl` per batch.
        if !self.draining && !self.stalled() {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        let changed = want != self.interest;
        self.interest = want;
        Drive::Keep {
            interest: want,
            changed,
        }
    }

    /// A [`DataOutcome`] arrived for a forwarded operation: resolve its
    /// entry. A reply whose entry has left the ring is dropped.
    pub(crate) fn on_data_reply(&mut self, seq: u64, outcome: DataOutcome) {
        self.last_activity = Instant::now();
        let Some(index) = self.index_of(seq) else {
            return;
        };
        match std::mem::replace(&mut self.ring[index], Entry::Done(Vec::new())) {
            Entry::Get { key, end } => self.complete(index, |out| {
                if let DataOutcome::Value(Some((flags, data))) = &outcome {
                    encode_value(&key, *flags, data, out);
                }
                if end {
                    out.extend_from_slice(END);
                }
            }),
            Entry::Write { delete, noreply } => {
                self.unacked_writes -= 1;
                self.complete(index, |out| {
                    if !noreply {
                        encode_response(&flag_response(delete, &outcome), out);
                    }
                });
            }
            other => self.ring[index] = other,
        }
    }

    /// The control thread finished the admin command at the head of the
    /// ring.
    pub(crate) fn on_admin_done(&mut self, seq: u64, result: AdminResult) {
        self.last_activity = Instant::now();
        if self.index_of(seq) != Some(0) || !matches!(self.ring[0], Entry::Admin(None)) {
            return;
        }
        let response = match result {
            AdminResult::Stats(lines) => Response::Stats(lines),
            AdminResult::Blob(payload) => Response::Blob(payload),
            AdminResult::Flushed => Response::Ok,
            AdminResult::Created(Ok(_)) => Response::Ok,
            AdminResult::Created(Err(reason)) => Response::ClientError(reason),
            AdminResult::Apps(apps) => Response::Apps(
                apps.into_iter()
                    .map(|(name, weight, budget_bytes)| crate::protocol::AppEntry {
                        name,
                        weight,
                        budget_bytes,
                    })
                    .collect(),
            ),
        };
        self.complete(0, |out| encode_response(&response, out));
    }

    /// The ring index of entry `seq`, if it is still in the ring.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let index = usize::try_from(seq.checked_sub(self.head_seq)?).ok()?;
        (index < self.ring.len()).then_some(index)
    }

    /// Entry `index` resolved to the bytes `write` produces (none for
    /// `noreply` or a miss). At the head they go out, followed by every
    /// finished entry behind them; elsewhere they wait as `Done` bytes for
    /// the entries ahead.
    fn complete(&mut self, index: usize, write: impl FnOnce(&mut Vec<u8>)) {
        if index > 0 {
            let mut bytes = Vec::new();
            write(&mut bytes);
            self.ring_bytes += bytes.len();
            self.ring[index] = Entry::Done(bytes);
            return;
        }
        self.ring.pop_front();
        self.head_seq += 1;
        write(&mut self.out);
        while let Some(Entry::Done(bytes)) = self.ring.front() {
            self.out.extend_from_slice(bytes);
            self.ring_bytes -= bytes.len();
            self.ring.pop_front();
            self.head_seq += 1;
        }
    }

    /// Lets `write` append the response of a command that executed inline:
    /// straight onto `out` when nothing is ahead of it, else behind the ring.
    fn emit(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        if self.ring.is_empty() {
            return write(&mut self.out);
        }
        if !matches!(self.ring.back(), Some(Entry::Done(_))) {
            self.ring.push_back(Entry::Done(Vec::new()));
        }
        if let Some(Entry::Done(bytes)) = self.ring.back_mut() {
            let before = bytes.len();
            write(bytes);
            self.ring_bytes += bytes.len() - before;
        }
    }

    fn respond(&mut self, response: &Response) {
        self.emit(|out| encode_response(response, out));
    }

    /// Reads whatever the socket has (bounded per pass) straight into
    /// `inbuf`: the kernel's copy is the only one a request byte gets.
    fn fill(&mut self) -> Flow {
        fill_from(&mut self.inbuf, &self.stream)
    }

    /// Parses and executes buffered commands until the input runs dry, the
    /// connection stalls (see [`Connection::stalled`]), or the client quits.
    fn process(&mut self, ctx: &mut Ctx<'_>) -> Step {
        self.launch_admin(ctx);
        // A `get`'s keys borrow the input while the rest of the connection
        // is mutated around them, so the buffer steps out of `self`.
        let mut inbuf = std::mem::take(&mut self.inbuf);
        let mut input = &inbuf[..];
        let mut parsed = 0;
        let step = loop {
            if self.stalled() {
                break Step::Stalled(parsed);
            }
            match self.parser.next_request(&mut input) {
                ParseOutcome::Complete(Request::Other(Command::Quit)) => break Step::Quit,
                ParseOutcome::Complete(Request::Get(keys)) => self.get(keys, ctx),
                ParseOutcome::Complete(Request::Other(command)) => self.dispatch(command, ctx),
                ParseOutcome::Invalid(message) => self.respond(&Response::ClientError(message)),
                ParseOutcome::Incomplete => break Step::Dry(parsed),
            }
            parsed += 1;
        };
        let used = inbuf.len() - input.len();
        inbuf.advance(used);
        if inbuf.is_empty() {
            inbuf.shrink_to(IN_RETAIN);
        }
        self.inbuf = inbuf;
        step
    }

    /// Forwards one key's op to the loop that owns it, addressed to the
    /// ring entry the caller pushes next.
    fn forward(
        &self,
        ctx: &mut Ctx<'_>,
        (shard, id, owner): (usize, Key, usize),
        key: Bytes,
        verb: DataVerb,
        hot_fill: bool,
    ) {
        let op = DataOp {
            shard,
            tenant: self.tenant,
            id,
            key,
            verb,
            enqueued: Instant::now(),
            reply: DataReplyTo::Conn {
                origin: ctx.state.index,
                token: ctx.token,
                seq: self.head_seq + self.ring.len() as u64,
            },
            hot_fill,
        };
        ctx.state.forward(owner, LoopMsg::Data(op));
    }

    /// A (multi-)get, key by key: route by hash, and answer a key this
    /// loop owns straight from the engine's stored item — its payload's one
    /// copy is the one onto `out`. A key another loop owns takes a ring
    /// entry, so the hits reach the wire in request order whatever mix of
    /// owners the keys have.
    fn get<'k>(&mut self, keys: impl Iterator<Item = &'k [u8]>, ctx: &mut Ctx<'_>) {
        for key in keys {
            let (shard, id, route) = ctx.state.route(self.tenant, key);
            match route {
                Ok(local) => {
                    let started = Instant::now();
                    let hit = ctx.state.get(local, self.tenant, id, key);
                    let took = started.elapsed();
                    if let Some(item) = hit {
                        self.emit(|out| encode_value(key, item.flags, &item.data, out));
                    }
                    ctx.state.note_local(took);
                }
                Err(owner) => {
                    // Promoted hot keys serve from the loop-local replica
                    // cache: no forward, no ring entry. Not behind an
                    // un-acked write, whose version bump the replica check
                    // could not see yet.
                    let replica = (self.unacked_writes == 0)
                        .then(|| ctx.state.replica_get(shard, self.tenant, id, key));
                    if let Some(Some((flags, data))) = replica {
                        self.emit(|out| encode_value(key, flags, &data, out));
                        continue;
                    }
                    // A replica miss on a promoted key rides the normal
                    // forward but asks the owner to fill us.
                    let hot_fill = ctx.state.wants_hot_fill(self.tenant, id);
                    let key = Bytes::copy_from_slice(key);
                    let route = (shard, id, owner);
                    self.forward(ctx, route, key.clone(), DataVerb::Get, hot_fill);
                    self.ring.push_back(Entry::Get { key, end: false });
                }
            }
        }
        // Between commands every `Get` entry has `end` set, so an unset
        // one at the back is this command's, with nothing emitted since.
        match self.ring.back_mut() {
            Some(Entry::Get { end, .. }) if !*end => *end = true,
            _ => self.emit(|out| out.extend_from_slice(END)),
        }
    }

    /// Executes one command other than a parsed `get`.
    fn dispatch(&mut self, command: Command, ctx: &mut Ctx<'_>) {
        match command {
            Command::Get { keys } => self.get(keys.iter().map(|key| &key[..]), ctx),
            Command::Store {
                verb,
                key,
                flags,
                data,
                noreply,
                ..
            } => self.write(key, DataVerb::Store { verb, flags, data }, noreply, ctx),
            Command::Delete { key, noreply } => self.write(key, DataVerb::Delete, noreply, ctx),
            Command::App { id } => {
                let response = match std::str::from_utf8(&id)
                    .ok()
                    .and_then(|name| ctx.state.tenant_lookup(name))
                {
                    Some(index) => {
                        self.tenant = index;
                        Response::Ok
                    }
                    None => Response::ClientError(format!(
                        "unknown app {:?} (hosted: {})",
                        String::from_utf8_lossy(&id),
                        ctx.state.tenant_names().join(", ")
                    )),
                };
                self.respond(&response);
            }
            Command::AppCreate { name, weight } => match std::str::from_utf8(&name) {
                Ok(name) => self.admin(
                    AdminOp::CreateTenant {
                        name: name.to_string(),
                        weight,
                    },
                    ctx,
                ),
                Err(_) => self.respond(&Response::ClientError(
                    "app names must be UTF-8".to_string(),
                )),
            },
            Command::AppList => self.admin(AdminOp::AppList, ctx),
            Command::Stats { format } => self.admin(AdminOp::Stats { format }, ctx),
            Command::Version => {
                self.respond(&Response::Version("cliffhanger-cache 0.1.0".to_string()))
            }
            Command::FlushAll => {
                // Tenant-scoped: one application flushing its namespace
                // must never wipe another application's working set. On a
                // single-tenant server this clears everything, as before.
                self.admin(
                    AdminOp::FlushTenant {
                        tenant: self.tenant,
                    },
                    ctx,
                )
            }
            Command::Quit => self.respond(&Response::Ok),
        }
    }

    /// A store or delete: inline when this loop owns the key — the parsed
    /// key and data move into the engine — else forwarded. A forwarded
    /// `noreply` still takes a ring entry: program order, drain-before-close
    /// and the replica bypass all hang on it.
    fn write(&mut self, key: Bytes, verb: DataVerb, noreply: bool, ctx: &mut Ctx<'_>) {
        let delete = matches!(verb, DataVerb::Delete);
        let (shard, id, route) = ctx.state.route(self.tenant, &key);
        match route {
            Ok(local) => {
                let started = Instant::now();
                let outcome = ctx.state.apply(local, self.tenant, id, key, verb);
                ctx.state.note_local(started.elapsed());
                if !noreply {
                    self.respond(&flag_response(delete, &outcome));
                }
            }
            Err(owner) => {
                self.forward(ctx, (shard, id, owner), key, verb, false);
                self.unacked_writes += 1;
                self.ring.push_back(Entry::Write { delete, noreply });
            }
        }
    }

    /// Raises an admin barrier: the command joins the ring and goes to the
    /// control thread once everything ahead of it has resolved.
    fn admin(&mut self, op: AdminOp, ctx: &mut Ctx<'_>) {
        self.ring.push_back(Entry::Admin(Some(op)));
        self.launch_admin(ctx);
    }

    /// Sends the admin command at the head of the ring, if one waits there.
    fn launch_admin(&mut self, ctx: &mut Ctx<'_>) {
        let Some(Entry::Admin(op)) = self.ring.front_mut() else {
            return;
        };
        let Some(op) = op.take() else {
            return;
        };
        if !ctx.state.forward_admin(op, ctx.token, self.head_seq) {
            // The control thread is gone: the server is shutting down and
            // this connection is about to be torn down with its loop.
            let reason = Response::ClientError("server is shutting down".to_string());
            self.complete(0, |out| encode_response(&reason, out));
        }
    }

    /// Writes as much parked output as the socket accepts.
    fn flush(&mut self) -> Flow {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flow::Broken,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flow::Broken,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            self.out.shrink_to(OUT_HIGH_WATERMARK);
        } else if self.out_pos >= OUT_HIGH_WATERMARK {
            // Reclaim the written prefix so a long-parked connection does
            // not hold both the sent and unsent halves forever.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Flow::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    /// What the scripted socket answers to one `read` call.
    enum Step {
        /// This many bytes (fewer than any buffer a fill pass offers).
        Short(usize),
        /// As many bytes as were offered.
        Full,
        /// The peer closed.
        Closed,
        Fails(ErrorKind),
    }

    /// A socket that answers `read` from a script and counts the calls.
    struct Scripted {
        steps: Vec<Step>,
        calls: usize,
    }

    impl Read for &mut Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let step = self.steps.get(self.calls).expect("a read past the script");
            self.calls += 1;
            let n = match *step {
                Step::Short(n) => n,
                Step::Full => buf.len(),
                Step::Closed => 0,
                Step::Fails(kind) => return Err(Error::from(kind)),
            };
            assert!(n <= buf.len() && (n < buf.len() || matches!(step, Step::Full)));
            buf[..n].fill(b'x');
            Ok(n)
        }
    }

    /// Runs one fill pass over `steps`; returns the flow, the bytes
    /// buffered and the `read` calls made.
    fn fill(steps: Vec<Step>) -> (Flow, usize, usize) {
        let mut socket = Scripted { steps, calls: 0 };
        let mut inbuf = BytesMut::new();
        let flow = fill_from(&mut inbuf, &mut socket);
        (flow, inbuf.len(), socket.calls)
    }

    #[test]
    fn a_short_read_ends_the_pass_without_a_second_call() {
        assert_eq!(fill(vec![Step::Short(100)]), (Flow::Open, 100, 1));
    }

    #[test]
    fn a_full_read_is_followed_by_another() {
        let (flow, buffered, calls) = fill(vec![Step::Full, Step::Short(7)]);
        assert_eq!((flow, calls), (Flow::Open, 2));
        assert!(buffered > 7);
        // ... which may find the socket empty after all.
        let (flow, _, calls) = fill(vec![Step::Full, Step::Fails(ErrorKind::WouldBlock)]);
        assert_eq!((flow, calls), (Flow::Open, 2));
    }

    #[test]
    fn a_read_of_nothing_is_the_peers_end_of_input() {
        assert_eq!(fill(vec![Step::Closed]), (Flow::Eof, 0, 1));
        let (flow, buffered, calls) = fill(vec![Step::Full, Step::Closed]);
        assert_eq!((flow, calls), (Flow::Eof, 2));
        assert!(buffered > 0, "what came before the close is served");
    }

    #[test]
    fn an_error_after_data_keeps_the_data() {
        let (flow, buffered, calls) =
            fill(vec![Step::Full, Step::Fails(ErrorKind::ConnectionReset)]);
        assert_eq!((flow, calls), (Flow::Broken, 2));
        assert!(buffered > 0);
        assert_eq!(
            fill(vec![Step::Fails(ErrorKind::WouldBlock)]),
            (Flow::Open, 0, 1)
        );
    }

    #[test]
    fn the_budget_bounds_a_pass_that_never_reads_short() {
        let (flow, buffered, calls) = fill((0..4_096).map(|_| Step::Full).collect());
        assert_eq!((flow, buffered), (Flow::Open, IN_FILL_BUDGET));
        assert!(calls < 4_096);
    }
}
