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
//! # Routing and the window
//!
//! Every key is hashed to its shard *before* any engine is touched, and the
//! connection's own loop executes it, whichever shard it is: the shards are
//! behind a lock each in [`crate::plane::PlaneShared`], and a command's
//! response is encoded straight onto `out` as it executes, so the wire
//! order is program order with no mechanism of its own.
//!
//! [`Connection::process`] executes a *window* at a time: the commands
//! already complete in `inbuf`, parsed ahead and each key routed once — data
//! commands until they hold [`WINDOW`] keys, or up to the first other
//! command or invalid line, which closes the window and runs alone on the
//! state everything ahead of it left. Before the entries execute — in order,
//! the stall check ahead of every command — [`LoopState::sweep`] prefetches
//! what the window's keys are about to miss on, each shard's keys under its
//! lock, so a batch's cache misses overlap instead of queueing one request
//! behind another. The entries then execute holding one shard lock at a
//! time, kept across a run of consecutive same-shard entries. A stall
//! mid-window puts the cursor back on the stalled command's first byte and
//! drops the unexecuted entries, to be parsed again when the connection
//! resumes: every bound below holds to the command, as if each were parsed
//! when its turn came. ARCHITECTURE.md has the schedule.
//!
//! # The byte path
//!
//! A request byte is copied once, by the kernel, into `inbuf`; commands are
//! parsed in place and consumed by moving a cursor, a `get` looks its keys
//! up while they still sit in `inbuf` and copies a hit's payload from the
//! engine's stored item onto `out` (the payload's one copy), and a store's
//! key and data are copied once, out of `inbuf` into the one allocation
//! that then moves into the engine as the item. ARCHITECTURE.md has the
//! table; `tests/byte_path.rs` holds the counts.
//!
//! * **Admin commands** (`stats`, `flush_all`, `app_create`, `app_list`) are
//!   barriers. They go to the control thread at once, and nothing is parsed
//!   past one until its [`crate::plane::LoopMsg::AdminDone`] — the event loop
//!   keeps serving every sibling connection meanwhile.
//! * **Bounds**: past [`OUT_HIGH_WATERMARK`] bytes of unsent output the
//!   connection stops parsing and reading until the socket drains it.

use crate::engine::StoredValue;
use crate::plane::{AdminOp, LoopState, PlaneShared, Route, Shard, ShardGuard};
use crate::protocol::{
    encode_response, encode_value, Command, ParseOutcome, Parser, Request, Response, StoreVerb,
};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::reactor::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Pending-output bytes above which the connection stops reading and
/// parsing until the socket drains, so a client that never reads cannot
/// grow `out` without bound.
pub(crate) const OUT_HIGH_WATERMARK: usize = 256 * 1024;
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
/// Bytes buffered per fill pass before yielding back to the loop, so one
/// fire-hosing connection cannot starve its siblings (level-triggered
/// epoll re-schedules it immediately).
const IN_FILL_BUDGET: usize = 256 * 1024;

/// What a connection needs from its event loop to execute commands: the
/// loop's own state (sweep marks, round countdowns), the shards, and its
/// own token, so an admin reply can find its way back.
pub(crate) struct Ctx<'a> {
    pub(crate) state: &'a mut LoopState,
    pub(crate) shared: &'a PlaneShared,
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

/// The lock of `shard`, from `held` if it is that shard's, else taken
/// after `held`'s is released.
fn relock<'g, 'a>(
    held: &'g mut Option<ShardGuard<'a>>,
    shared: &'a PlaneShared,
    shard: usize,
) -> &'g mut Shard {
    if held.as_ref().map(|guard| guard.shard) != Some(shard) {
        *held = None;
    }
    held.get_or_insert_with(|| shared.lock(shard))
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
    /// An admin command is with the control thread: the barrier nothing
    /// is parsed past until its reply.
    barrier: bool,
    /// Last time the peer gave us bytes or an admin command resolved — the
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
            barrier: false,
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
        self.barrier
    }

    /// How long the connection has been silent, for the idle reaper.
    pub(crate) fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether parsing must wait: unsent output is past the watermark, or
    /// an admin barrier is up.
    fn stalled(&self) -> bool {
        self.pending_out() >= OUT_HIGH_WATERMARK || self.barrier
    }

    /// One readiness pass: flush, then parse/execute/flush — with one fill
    /// from the socket in between — until quiescent or stalled.
    pub(crate) fn on_ready(&mut self, readable: bool, ctx: &mut Ctx<'_>) -> Drive {
        // Readiness or a delivery: not idle as of this pass's clock.
        self.last_activity = ctx.state.now;
        // Always flush first, not only on `EPOLLOUT`: an admin reply may
        // have put bytes on `out`, and `process` may only find the watermark
        // in its way when the socket is full.
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
                    // Commands pipelined after `quit` are never parsed:
                    // memcached closes on `quit` without reading further.
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
        if self.draining && self.pending_out() == 0 && !self.barrier {
            return Drive::Close;
        }
        let mut want = 0;
        if self.pending_out() > 0 {
            want |= EPOLLOUT;
        }
        // A stalled connection reads nothing: there is no point waking on
        // (and buffering) input we would not parse.
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

    /// The control thread finished the connection's admin command.
    pub(crate) fn on_admin_done(&mut self, response: Response) {
        if std::mem::take(&mut self.barrier) {
            encode_response(&response, &mut self.out);
        }
    }

    fn respond(&mut self, response: &Response) {
        encode_response(response, &mut self.out);
    }

    /// Reads whatever the socket has (bounded per pass) straight into
    /// `inbuf`: the kernel's copy is the only one a request byte gets.
    fn fill(&mut self) -> Flow {
        fill_from(&mut self.inbuf, &self.stream)
    }

    /// Executes buffered commands, a window at a time, until the input runs
    /// dry, the connection [`Connection::stalled`], or the client quits.
    fn process(&mut self, ctx: &mut Ctx<'_>) -> Step {
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
            // The keys' cache misses first, overlapped; then the commands in
            // order, the stall check before each, as ever, one shard lock
            // held across each run of same-shard entries.
            let tenant = self.tenant;
            ctx.state.sweep(&window, |(_, work)| match *work {
                Work::Get((shard, id), ..) | Work::Write((shard, id), ..) => {
                    Some((shard, tenant, id))
                }
                Work::Alone(_) => None,
            });
            let mut held = None;
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
                    Work::Get((shard, id), key, end) => {
                        let timer = ctx.state.timer();
                        let cells = relock(&mut held, ctx.shared, shard);
                        let key = &inbuf[key];
                        if let Some(item) = cells.get(tenant, id, key) {
                            encode_value(key, item.flags(), item.data(), &mut self.out);
                        }
                        ctx.state.note_op(shard, timer);
                        if end {
                            self.out.extend_from_slice(END);
                        }
                    }
                    Work::Write((shard, id), key, store, noreply) => {
                        let timer = ctx.state.timer();
                        let cells = relock(&mut held, ctx.shared, shard);
                        let delete = store.is_none();
                        let done = match store {
                            Some((verb, item)) => cells.store(tenant, id, verb, item),
                            None => cells.delete(tenant, id, &inbuf[key]),
                        };
                        ctx.state.note_op(shard, timer);
                        if !noreply {
                            self.respond(&flag_response(delete, done));
                        }
                    }
                    Work::Alone(command) => {
                        // An admin command talks to the control thread: no
                        // shard lock may be held across that.
                        held = None;
                        match command {
                            Ok(Command::Quit) => break 'pass Step::Quit,
                            Ok(command) => self.dispatch(command, ctx),
                            Err(message) => self.respond(&Response::ClientError(message)),
                        }
                    }
                }
            }
            drop(held);
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

    /// Executes one command that closes a window and runs alone.
    fn dispatch(&mut self, command: Command, ctx: &mut Ctx<'_>) {
        match command {
            Command::Get { .. } | Command::Store { .. } | Command::Delete { .. } => {
                unreachable!("data commands join the window")
            }
            Command::App { id } => {
                // Resolved in the roster, with no shard lock held.
                let roster = ctx.shared.roster.lock();
                let names = &roster.directory;
                let response = match std::str::from_utf8(&id)
                    .ok()
                    .and_then(|name| names.index_of(name))
                {
                    Some(index) => {
                        self.tenant = index;
                        Response::Ok
                    }
                    None => Response::ClientError(format!(
                        "unknown app {:?} (hosted: {})",
                        String::from_utf8_lossy(&id),
                        names.names().join(", ")
                    )),
                };
                drop(roster);
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

    /// Raises an admin barrier: the command goes to the control thread, and
    /// nothing behind it is parsed until the reply.
    fn admin(&mut self, op: AdminOp, ctx: &mut Ctx<'_>) {
        self.barrier = ctx.state.forward_admin(op, ctx.token);
        if !self.barrier {
            // The control thread is gone: the server is shutting down and
            // this connection is about to be torn down with its loop.
            let reason = Response::ClientError("server is shutting down".to_string());
            self.respond(&reason);
        }
    }

    /// Writes as much pending output as the socket accepts.
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
    use std::sync::Arc;

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

    #[test]
    fn a_store_whose_key_the_item_cannot_count_is_refused_in_stride() {
        let (mut conn, _peer) = connection();
        let mut state = LoopState::solo();
        let shared = Arc::clone(&state.shared);
        let mut ctx = Ctx {
            state: &mut state,
            shared: &shared,
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
        let shared = Arc::clone(&state.shared);
        let mut ctx = Ctx {
            state: &mut state,
            shared: &shared,
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
            let (shard, id) = ctx.state.route(0, b"c");
            let found = ctx
                .shared
                .lock(shard)
                .get(0, id, b"c")
                .map(|item| item.flags());
            found
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
