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
//! forwarded as an [`Op`] in the loop's [`OpBatch`] for that owner, and the
//! connection *keeps parsing*: the command takes an [`Entry`] in the
//! connection's in-order completion ring (entry `seq` sits at index
//! `seq - head_seq`), later commands stage their finished responses behind
//! it — in one FIFO buffer, the ring holding only their lengths — and the
//! batch, back from the owner, resolves its entries
//! ([`Connection::on_replies`]). Responses leave the head of the ring in
//! program order, so the wire is byte-identical to inline execution while a
//! pipelined batch crosses the mailbox as one message. While the ring's head
//! is unanswered, fewer than [`OUT_HOLD`] bytes of `out` wait for the
//! connection's next pass — the reply batch, or more input — so a batch
//! whose first key is local costs one `send` and one client wake-up, not
//! two. With the ring empty (every key local) responses encode straight
//! into `out` and leave at once.
//!
//! # The window
//!
//! [`Connection::process`] executes a *window* at a time: the commands
//! already complete in `inbuf`, parsed ahead and each key routed once — data
//! commands until they hold [`WINDOW`] keys, or up to the first other
//! command or invalid line, which closes the window and runs alone on the
//! state everything ahead of it left. Before the entries execute — in order,
//! the stall check ahead of every command — [`LoopState::sweep`] prefetches
//! what the locally owned keys are about to miss on, so a batch's cache
//! misses overlap instead of queueing one request behind another. A stall
//! mid-window puts the cursor back on the stalled command's first byte and
//! drops the unexecuted entries, to be parsed again when the connection
//! resumes: every bound below holds to the command, as if each were parsed
//! when its turn came. ARCHITECTURE.md has the schedule.
//!
//! # The byte path
//!
//! A request byte is copied once, by the kernel, into `inbuf`; commands are
//! parsed in place and consumed by moving a cursor, a local `get` looks its
//! keys up while they still sit in `inbuf` and copies a hit's payload from
//! the engine's stored item onto `out` (the payload's one copy), and a
//! store's key and data are copied once, out of `inbuf` into the one
//! allocation that then moves into the engine as the item. Only a key
//! another loop owns is copied out to cross threads: into the batch's
//! bytes, which also serve its `VALUE` line and carry a hit's data back.
//! ARCHITECTURE.md has the table; `tests/byte_path.rs` holds the counts.
//!
//! * **Same-key order** needs no mechanism of its own: shard ownership is
//!   static, mailboxes are FIFO and a batch keeps its ops in the order
//!   they were issued, so every op on a key reaches its one owner in
//!   program order.
//! * **Admin commands** (`stats`, `flush_all`, `app_create`, `app_list`) are
//!   barriers. They go to the control thread at once, while forwarded data
//!   ops wait in the loop's outbound batch, so one is sent only when the
//!   ring ahead of it has drained, and nothing is parsed past it until its
//!   [`crate::plane::LoopMsg::AdminDone`] — the event loop keeps serving
//!   every sibling connection meanwhile.
//! * **Bounds**: at most [`MAX_IN_FLIGHT`] entries, and finished responses
//!   staged behind the ring count toward [`OUT_HIGH_WATERMARK`]; at either
//!   limit the connection stops parsing and reading until replies drain it.

use crate::engine::StoredValue;
use crate::plane::{AdminOp, LoopState, Op, OpBatch, OpState, Route};
use crate::protocol::{
    encode_response, encode_value, Command, ParseOutcome, Parser, Request, Response, StoreVerb,
};
use bytes::BytesMut;
use cache_core::Key;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::reactor::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Pending-output bytes above which the connection stops reading and
/// parsing until the socket drains (and above which a pipelined batch is
/// cut), so a client that never reads cannot grow `out` without bound.
pub(crate) const OUT_HIGH_WATERMARK: usize = 256 * 1024;
/// Pending-output bytes below which a pass that leaves the ring unanswered
/// sends nothing.
const OUT_HOLD: usize = 16 * 1024;
/// Ring entries a connection may hold before it stops parsing: deep enough
/// that a pipelined batch crosses the mailbox in one piece, small enough to
/// bound what one socket can queue on other loops.
const MAX_IN_FLIGHT: usize = 128;
/// Keys a window holds before it closes (its last command is not split,
/// and a kept window may be four times as long before it gives capacity
/// back): the batch whose cache misses [`LoopState::sweep`] overlaps.
pub(crate) const WINDOW: usize = 32;
/// Spare input capacity a fill pass starts with, and what a connection's
/// two buffers are born with.
const READ_CHUNK: usize = 16 * 1024;
/// Input capacity an idle connection may keep: a burst's buffer (up to
/// [`IN_FILL_BUDGET`] of pipelined commands, or one value of up to
/// [`crate::protocol::MAX_DATA_BYTES`]) goes back to the allocator once it
/// is parsed, the way `flush` trims `out`.
const IN_RETAIN: usize = 4 * READ_CHUNK;
/// Capacity the staging buffer may keep once it has drained, and the
/// consumed prefix it may carry while it has not.
const STAGED_RETAIN: usize = READ_CHUNK;
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
    /// One key of a `get`, forwarded to the loop that owns it (the batch
    /// brings the key back for the `VALUE` line of a hit). A (multi-)get is
    /// one entry per remote key with its local hits as `Done` bytes between
    /// them, so the ring's order is the reply's order. `end`: the command's
    /// `END` follows this key (no later key of it produced bytes).
    Get { end: bool },
    /// A store or delete forwarded to the owning loop. A `noreply` one
    /// keeps its place in the order and emits nothing.
    Write { delete: bool, noreply: bool },
    /// An admin command: `Some` until the ring ahead of it drains and it is
    /// sent to the control thread, `None` while that thread runs it.
    Admin(Option<AdminOp>),
    /// This many finished response bytes wait in `staged` for the entries
    /// ahead of them.
    Done(usize),
}

/// What one entry of the window, parsed and routed, will execute.
enum Work {
    /// One key of a `get`: where it sits in `inbuf`, and whether it is the
    /// command's last.
    Get(Route, std::ops::Range<usize>, bool),
    /// A store (`Some`: the verb and the item, which carries its key) or a
    /// delete (where its key sits in `inbuf`), and whether it is `noreply`.
    Write(
        Route,
        std::ops::Range<usize>,
        Option<(StoreVerb, StoredValue)>,
        bool,
    ),
    /// Any other command, or (`Err`) a line that is none: it closes the
    /// window, so nothing behind it is parsed before it has run.
    Alone(Result<Command, String>),
}

/// What closes a `get` reply.
const END: &[u8] = b"END\r\n";

/// The reply to a store (`delete == false`) or delete verb.
fn flag_response(delete: bool, done: bool) -> Response {
    match (delete, done) {
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
    /// The window (empty between passes, its capacity kept): each entry
    /// with where its command starts in `inbuf`, which is where the cursor
    /// goes back to if the connection stalls before the command.
    window: Vec<(usize, Work)>,
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
    /// The bytes of the ring's `Done` entries, in ring order, from
    /// `staged_pos` on.
    staged: Vec<u8>,
    /// Bytes of `staged` already moved onto `out`.
    staged_pos: usize,
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
            window: Vec::new(),
            out: Vec::with_capacity(READ_CHUNK),
            out_pos: 0,
            tenant: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            draining: false,
            ring: VecDeque::new(),
            head_seq: 0,
            staged: Vec::new(),
            staged_pos: 0,
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

    /// Whether `out` waits for the connection's next pass: the ring's head
    /// is unanswered (a non-empty ring's always is), so a reply batch is on
    /// its way, and what is pending is not worth a `send` of its own.
    fn held(&self) -> bool {
        !self.ring.is_empty() && self.pending_out() < OUT_HOLD
    }

    /// Whether parsing must wait: output (unsent, or finished but still in
    /// the ring) is past the watermark, the ring is full, or an admin
    /// barrier is up.
    fn stalled(&self) -> bool {
        self.pending_out() + self.staged.len() - self.staged_pos >= OUT_HIGH_WATERMARK
            || self.ring.len() >= MAX_IN_FLIGHT
            || matches!(self.ring.back(), Some(Entry::Admin(_)))
    }

    /// One readiness pass: flush, then parse/execute/flush — with one fill
    /// from the socket in between — until quiescent or stalled.
    pub(crate) fn on_ready(&mut self, readable: bool, ctx: &mut Ctx<'_>) -> Drive {
        // Readiness or a delivery: not idle as of this pass's clock.
        self.last_activity = ctx.state.now;
        // Always flush first, not only on `EPOLLOUT`: replies that resolved
        // ring entries since the last pass put bytes on `out`, and `process`
        // may only find the watermark in its way when the socket is full.
        // What an earlier pass held back goes too: it has waited for this.
        if self.flush(false) == Flow::Broken {
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
                    // Commands pipelined after `quit` are never parsed:
                    // memcached closes on `quit` without reading further.
                    self.draining = true;
                    self.inbuf.clear();
                    (0, false)
                }
            };
            if self.flush(true) == Flow::Broken {
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
        if self.pending_out() > 0 && !self.held() {
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

    /// `ops`, this connection's in `batch`, are back from their owner:
    /// resolve their entries. One whose entry has left the ring is dropped.
    pub(crate) fn on_replies(&mut self, ops: &[Op], batch: &OpBatch) {
        for op in ops {
            let Some(index) = self.index_of(op.seq) else {
                continue;
            };
            match self.ring[index] {
                Entry::Get { end } => self.complete(index, |out| {
                    if let OpState::Value(Some((flags, data))) = &op.state {
                        encode_value(batch.bytes(&op.key), *flags, batch.bytes(data), out);
                    }
                    if end {
                        out.extend_from_slice(END);
                    }
                }),
                Entry::Write { delete, noreply } => {
                    let done = matches!(op.state, OpState::Flag(true));
                    self.complete(index, |out| {
                        if !noreply {
                            encode_response(&flag_response(delete, done), out);
                        }
                    });
                }
                _ => {}
            }
        }
    }

    /// The control thread finished the admin command at the head of the
    /// ring.
    pub(crate) fn on_admin_done(&mut self, seq: u64, response: Response) {
        if self.index_of(seq) != Some(0) || !matches!(self.ring[0], Entry::Admin(None)) {
            return;
        }
        self.complete(0, |out| encode_response(&response, out));
    }

    /// The ring index of entry `seq`, if it is still in the ring.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let index = usize::try_from(seq.checked_sub(self.head_seq)?).ok()?;
        (index < self.ring.len()).then_some(index)
    }

    /// Entry `index` resolved to the bytes `write` produces (none for
    /// `noreply` or a miss). At the head they go out, followed by every
    /// finished entry behind them; elsewhere — a later owner answered before
    /// an earlier one — they are staged at the entry's place in the FIFO.
    fn complete(&mut self, index: usize, write: impl FnOnce(&mut Vec<u8>)) {
        if index > 0 {
            let staged_ahead = self.ring.iter().take(index).map(|entry| match entry {
                Entry::Done(len) => *len,
                _ => 0,
            });
            let at = self.staged_pos + staged_ahead.sum::<usize>();
            let len = Self::append(&mut self.staged, write);
            self.staged[at..].rotate_right(len);
            self.ring[index] = Entry::Done(len);
            return;
        }
        self.ring.pop_front();
        self.head_seq += 1;
        write(&mut self.out);
        while let Some(&Entry::Done(len)) = self.ring.front() {
            let next = self.staged_pos + len;
            self.out
                .extend_from_slice(&self.staged[self.staged_pos..next]);
            self.staged_pos = next;
            self.ring.pop_front();
            self.head_seq += 1;
        }
        if self.staged_pos == self.staged.len() {
            self.staged.clear();
            self.staged.shrink_to(STAGED_RETAIN);
            self.staged_pos = 0;
        } else if self.staged_pos >= STAGED_RETAIN {
            // A ring that never quite drains must not keep what has left.
            self.staged.drain(..self.staged_pos);
            self.staged_pos = 0;
        }
    }

    /// Lets `write` append to `buffer`; returns how many bytes it added.
    fn append(buffer: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> usize {
        let before = buffer.len();
        write(buffer);
        buffer.len() - before
    }

    /// Lets `write` append the response of a command that executed inline:
    /// straight onto `out` when nothing is ahead of it, else staged behind
    /// the ring.
    fn emit(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        if self.ring.is_empty() {
            return write(&mut self.out);
        }
        let len = Self::append(&mut self.staged, write);
        match self.ring.back_mut() {
            Some(Entry::Done(staged)) => *staged += len,
            _ => self.ring.push_back(Entry::Done(len)),
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

    /// Executes buffered commands, a window at a time, until the input runs
    /// dry, the connection [`Connection::stalled`], or the client quits.
    fn process(&mut self, ctx: &mut Ctx<'_>) -> Step {
        self.launch_admin(ctx);
        // Keys borrow the input while the rest of the connection is mutated
        // around them, so the buffer (and the window) step out of `self`.
        let mut inbuf = std::mem::take(&mut self.inbuf);
        let mut window = std::mem::take(&mut self.window);
        let mut input = &inbuf[..];
        let mut parsed = 0;
        let step = 'pass: loop {
            if self.stalled() {
                break Step::Stalled(parsed);
            }
            // Fill the window, each key routed once: until it holds `WINDOW`
            // keys, takes an entry that runs alone, or the input runs dry.
            let route = |key: &[u8]| ctx.state.route(self.tenant, key);
            let range_of = |key: &[u8]| {
                let start = key.as_ptr() as usize - inbuf.as_ptr() as usize;
                start..start + key.len()
            };
            let dry = loop {
                if window.len() >= WINDOW {
                    break false;
                }
                let at = inbuf.len() - input.len();
                let work = match self.parser.next_request(&mut input) {
                    ParseOutcome::Complete(Request::Get(keys)) => {
                        for key in keys {
                            let work = Work::Get(route(key), range_of(key), false);
                            window.push((at, work));
                        }
                        if let Some((_, Work::Get(_, _, end))) = window.last_mut() {
                            *end = true;
                        }
                        continue;
                    }
                    ParseOutcome::Complete(Request::Store {
                        verb,
                        key,
                        flags,
                        data,
                        noreply,
                        ..
                    }) => match StoredValue::new(&key, flags, data) {
                        Some(item) => Work::Write(route(&key), 0..0, Some((verb, item)), noreply),
                        None => Work::Alone(Err("key too long".to_string())),
                    },
                    ParseOutcome::Complete(Request::Delete { key, noreply }) => {
                        Work::Write(route(key), range_of(key), None, noreply)
                    }
                    ParseOutcome::Complete(Request::Other(command)) => Work::Alone(Ok(command)),
                    ParseOutcome::Invalid(message) => Work::Alone(Err(message)),
                    ParseOutcome::Incomplete => break true,
                };
                let alone = matches!(work, Work::Alone(_));
                window.push((at, work));
                if alone {
                    break false;
                }
            };
            // The local keys' cache misses first, overlapped; then the
            // commands in order, the stall check before each, as ever.
            ctx.state.sweep(&window, |(_, work)| match *work {
                Work::Get((_, id, Ok(local)), ..) | Work::Write((_, id, Ok(local)), ..) => {
                    Some((local, self.tenant, id))
                }
                _ => None,
            });
            let mut command_at = usize::MAX;
            for (at, work) in window.drain(..) {
                if at != command_at {
                    if self.stalled() {
                        // Back to this command's first byte: the rest of
                        // the window is dropped and parsed again later.
                        input = &inbuf[at..];
                        self.parser = Parser::new();
                        break 'pass Step::Stalled(parsed);
                    }
                    command_at = at;
                    parsed += 1;
                }
                match work {
                    Work::Get(route, key, end) => self.get(route, &inbuf[key], end, ctx),
                    Work::Write(route, key, store, noreply) => {
                        self.write(route, &inbuf[key], store, noreply, ctx)
                    }
                    Work::Alone(Ok(Command::Quit)) => break 'pass Step::Quit,
                    Work::Alone(Ok(command)) => self.dispatch(command, ctx),
                    Work::Alone(Err(message)) => self.respond(&Response::ClientError(message)),
                }
            }
            if dry {
                break Step::Dry(parsed);
            }
        };
        let used = inbuf.len() - input.len();
        inbuf.advance(used);
        if inbuf.is_empty() {
            inbuf.shrink_to(IN_RETAIN);
        }
        self.inbuf = inbuf;
        window.shrink_to(4 * WINDOW);
        self.window = window;
        step
    }

    /// Forwards one key's op to the loop that owns it, addressed to the
    /// ring entry the caller pushes next. `key`: a GET's or DELETE's.
    fn forward(
        &self,
        ctx: &mut Ctx<'_>,
        (shard, id, owner): (usize, Key, usize),
        key: &[u8],
        state: OpState,
    ) {
        let op = Op {
            token: ctx.token,
            seq: self.head_seq + self.ring.len() as u64,
            tenant: self.tenant,
            shard,
            id,
            key: 0..0,
            state,
        };
        ctx.state.forward_op(owner, op, key);
    }

    /// One key of a (multi-)get, `end` its last: a key this loop owns is
    /// answered straight from the engine's stored item — its payload's one
    /// copy is the one onto `out`. A key another loop owns takes a ring
    /// entry, so the hits reach the wire in request order whatever mix of
    /// owners the keys have.
    fn get(&mut self, (shard, id, route): Route, key: &[u8], end: bool, ctx: &mut Ctx<'_>) {
        match route {
            Ok(local) => {
                let timer = ctx.state.local_timer();
                if let Some(item) = ctx.state.get(local, self.tenant, id, key) {
                    self.emit(|out| encode_value(key, item.flags(), item.data(), out));
                }
                ctx.state.note_local(timer);
            }
            Err(owner) => {
                self.forward(ctx, (shard, id, owner), key, OpState::Get);
                self.ring.push_back(Entry::Get { end: false });
            }
        }
        // Between commands every `Get` entry has `end` set, so an unset
        // one at the back is this command's, with nothing emitted since.
        match self.ring.back_mut() {
            _ if !end => {}
            Some(Entry::Get { end, .. }) if !*end => *end = true,
            _ => self.emit(|out| out.extend_from_slice(END)),
        }
    }

    /// Executes one command that closes a window and runs alone.
    fn dispatch(&mut self, command: Command, ctx: &mut Ctx<'_>) {
        match command {
            Command::Get { .. } | Command::Store { .. } | Command::Delete { .. } => {
                unreachable!("data commands join the window")
            }
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

    /// A store (`Some`: the verb and the item) or a delete of `key`: inline
    /// when this loop owns the key — the item moves into the engine — else
    /// forwarded. A forwarded `noreply` still takes a ring entry: program
    /// order and drain-before-close hang on it.
    fn write(
        &mut self,
        (shard, id, route): Route,
        key: &[u8],
        store: Option<(StoreVerb, StoredValue)>,
        noreply: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let delete = store.is_none();
        let owner = match route {
            Ok(local) => {
                let timer = ctx.state.local_timer();
                let done = match store {
                    Some((verb, item)) => ctx.state.store(local, self.tenant, id, verb, item),
                    None => ctx.state.delete(local, self.tenant, id, key),
                };
                ctx.state.note_local(timer);
                if !noreply {
                    self.respond(&flag_response(delete, done));
                }
                return;
            }
            Err(owner) => owner,
        };
        let state = match store {
            Some((verb, item)) => OpState::Store { verb, item },
            None => OpState::Delete,
        };
        self.forward(ctx, (shard, id, owner), key, state);
        self.ring.push_back(Entry::Write { delete, noreply });
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

    /// Writes as much parked output as the socket accepts — unless `hold`
    /// and it is [`Connection::held`] back.
    fn flush(&mut self, hold: bool) -> Flow {
        if hold && self.held() {
            return Flow::Open;
        }
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

    /// A connection over a loopback socket nobody reads, and its peer.
    fn connection() -> (Connection, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Connection::adopt(stream).unwrap(), peer)
    }

    /// What an owner answered: a GET's hit (flags 5) or miss, or a flag.
    type Outcome = Result<Option<&'static str>, bool>;

    /// A served batch answering ring entries `seqs` (key, outcome) in turn.
    fn served(replies: Vec<(u64, &str, Outcome)>) -> OpBatch {
        let mut batch = OpBatch::new(Some(0), Instant::now());
        for (seq, key, outcome) in replies {
            let op = Op {
                token: 1,
                seq,
                tenant: 0,
                shard: 0,
                id: Key::new(seq),
                key: 0..0,
                state: OpState::Get,
            };
            // A hit's data sits in the batch's bytes too: here, behind its key.
            let hit = outcome.ok().flatten();
            batch.push(op, format!("{key}{}", hit.unwrap_or("")).as_bytes());
            let op = batch.ops.last_mut().unwrap();
            let data = op.key.start + key.len()..op.key.end;
            op.key.end = data.start;
            op.state = match outcome {
                Ok(_) => OpState::Value(hit.map(|_| (5, data))),
                Err(done) => OpState::Flag(done),
            };
        }
        batch
    }

    #[test]
    fn replies_of_a_later_owner_are_staged_where_their_entries_sit() {
        let (mut conn, _peer) = connection();
        // get a (remote, owner 1) | local bytes | get b (owner 2) | local
        // bytes | set (owner 2) | local bytes | get c (owner 2, a miss)
        conn.ring.push_back(Entry::Get { end: true });
        conn.emit(|out| out.extend_from_slice(b"<one>"));
        conn.ring.push_back(Entry::Get { end: true });
        conn.emit(|out| out.extend_from_slice(b"<two>"));
        conn.ring.push_back(Entry::Write {
            delete: false,
            noreply: false,
        });
        conn.emit(|out| out.extend_from_slice(b"<three>"));
        conn.ring.push_back(Entry::Get { end: false });

        // Owner 2 answers first: nothing may leave, and nothing may move
        // ahead of the bytes staged before it.
        let later = served(vec![
            (2, "b", Ok(Some("bee"))),
            (4, "", Err(true)),
            (6, "c", Ok(None)),
            (9, "gone", Ok(Some("an entry that left the ring"))),
        ]);
        conn.on_replies(&later.ops, &later);
        assert!(conn.out.is_empty());
        assert_eq!(conn.ring.len(), 7);

        // Owner 1's answer releases everything, in program order.
        let first = served(vec![(0, "a", Ok(Some("ay")))]);
        conn.on_replies(&first.ops, &first);
        assert!(conn.ring.is_empty() && conn.staged.is_empty());
        assert_eq!((conn.head_seq, conn.staged_pos), (7, 0));
        assert_eq!(
            String::from_utf8_lossy(&conn.out),
            "VALUE a 5 2\r\nay\r\nEND\r\n<one>VALUE b 5 3\r\nbee\r\nEND\r\n<two>\
             STORED\r\n<three>"
        );
    }

    #[test]
    fn a_ring_that_never_empties_does_not_keep_what_has_left_it() {
        let (mut conn, _peer) = connection();
        let forward_then_stage = |conn: &mut Connection| {
            conn.ring.push_back(Entry::Get { end: true });
            conn.emit(|out| out.extend_from_slice(&[b'x'; 1000]));
        };
        forward_then_stage(&mut conn);
        for answered in 0..200 {
            // Always a second unanswered entry with bytes behind it before
            // the head resolves: the staging buffer never drains.
            forward_then_stage(&mut conn);
            let reply = served(vec![(2 * answered, "k", Ok(None))]);
            conn.on_replies(&reply.ops, &reply);
            assert_eq!(conn.out.len(), END.len() + 1000);
            conn.out.clear();
            assert_eq!(conn.staged.len() - conn.staged_pos, 1000);
            assert!(conn.staged.len() <= STAGED_RETAIN + 2000);
        }
        assert_eq!(conn.ring.len(), 2);
    }

    #[test]
    fn a_store_whose_key_the_item_cannot_count_is_refused_in_stride() {
        let (mut conn, _peer) = connection();
        let mut state = LoopState::solo();
        let mut ctx = Ctx {
            state: &mut state,
            token: 1,
        };
        let wire = format!(
            "set {} 0 0 1\r\nx\r\nset k 0 0 1\r\ny\r\n",
            "k".repeat(1 << 16)
        );
        conn.inbuf.extend_from_slice(wire.as_bytes());
        assert!(matches!(conn.process(&mut ctx), super::Step::Dry(2)));
        assert_eq!(conn.out, b"CLIENT_ERROR key too long\r\nSTORED\r\n");
    }

    #[test]
    fn a_stall_mid_window_puts_the_cursor_back_on_the_stalled_command() {
        const BIG: usize = 100 << 10;
        let (mut conn, _peer) = connection();
        let mut state = LoopState::solo();
        let mut ctx = Ctx {
            state: &mut state,
            token: 1,
        };
        let mut wire = format!("set big 0 0 {BIG}\r\n{}\r\n", "v".repeat(BIG));
        for version in 1..=7 {
            wire.push_str(&format!("get big\r\nset c {version} 0 1 noreply\r\nx\r\n"));
        }
        // The window parses to the end of the input — into the data block
        // of a command that is not all there yet.
        wire.push_str("set c 8 0 5\r\nab");
        conn.inbuf.extend_from_slice(wire.as_bytes());
        let version_of_c = |ctx: &mut Ctx<'_>| {
            let (_, id, slot) = ctx.state.route(0, b"c");
            let found = ctx.state.get(slot.unwrap(), 0, id, b"c");
            found.map(|item| item.flags())
        };

        // Three hits carry `out` over the watermark: the seventh command is
        // the first the stall check refuses, with eight more parsed behind
        // it. They are dropped, the parser is back between commands, and
        // the input starts at the refused command's first byte.
        assert!(matches!(conn.process(&mut ctx), super::Step::Stalled(6)));
        assert!(conn.out.len() >= OUT_HIGH_WATERMARK && conn.out.len() < 4 * BIG);
        assert!(conn.window.is_empty() && !conn.parser.mid_command());
        assert!(conn
            .inbuf
            .starts_with(b"set c 3 0 1 noreply\r\nx\r\nget big\r\n"));
        assert_eq!(version_of_c(&mut ctx), Some(2));
        assert!(matches!(conn.process(&mut ctx), super::Step::Stalled(0)));

        // The socket drains; the rest runs, again a watermark's worth at a
        // time, each write once and in order.
        let mut commands = 6;
        while !conn.inbuf.starts_with(b"ab") {
            conn.out.clear();
            let before = version_of_c(&mut ctx);
            commands += match conn.process(&mut ctx) {
                super::Step::Stalled(n) | super::Step::Dry(n) => n,
                super::Step::Quit => unreachable!(),
            };
            assert!(conn.out.len() < 4 * BIG);
            assert!(version_of_c(&mut ctx) > before);
        }
        assert_eq!((commands, version_of_c(&mut ctx)), (15, Some(7)));
        assert!(
            conn.parser.mid_command(),
            "the unfinished `set` waits for its data"
        );
        conn.inbuf.extend_from_slice(b"cde\r\n");
        assert!(matches!(conn.process(&mut ctx), super::Step::Dry(1)));
        assert_eq!(version_of_c(&mut ctx), Some(8));
        assert!(conn.out.ends_with(b"END\r\nSTORED\r\n"));
    }
}
