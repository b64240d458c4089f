//! The epoll reactor: a small, fixed set of event-loop threads serving
//! many non-blocking connections each — and, since the shared-nothing
//! refactor, *owning* the cache shards they serve.
//!
//! This replaces the thread-per-connection model (one parked OS thread per
//! idle session, connection count hard-capped by the worker count) with the
//! shape production caches use — pelikan's worker event loops, Memcached's
//! libevent threads: `ServerConfig::workers` event loops, each owning an
//! epoll instance, a set of connections and (per `crate::plane`) the
//! engines of its shard group. A loop blocks only in `epoll_wait`; every
//! socket it owns is non-blocking and driven by the
//! `conn::Connection` state machine, so thousands of mostly-idle
//! connections cost a few kilobytes of buffer each instead of a thread.
//!
//! Each loop has a `Mailbox`, the cross-loop message channel: the acceptor,
//! sibling loops and the control thread push `LoopMsg`s into it and, if it
//! was empty, add one to the loop's `eventfd` counter (one 8-byte `write`,
//! no socket buffer behind it). The loop zeroes the counter with one `read`
//! and swaps the inbox for the emptied `Vec` of its last drain. Operations
//! on keys another loop owns travel the same way, a whole
//! `plane::OpBatch` per message.
//!
//! The epoll and eventfd bindings are a thin unsafe FFI against the system
//! libc — the workspace is offline/vendored-only, so no `mio`/`libc`
//! crates. The unsafe surface is confined to the `ffi` module: five
//! syscalls and the kernel's `struct epoll_event` layout; the eventfd is
//! handed out as a `File`, which the standard library manages safely.

use crate::conn::{Connection, Ctx, Drive};
use crate::plane::{LoopMsg, LoopState, OpBatch, PlaneShared};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Thin FFI over the kernel epoll and eventfd interfaces. All `unsafe` in
/// the crate lives here.
#[allow(unsafe_code)]
mod ffi {
    use std::fs::File;
    use std::io;
    use std::os::fd::{FromRawFd, RawFd};
    use std::os::raw::{c_int, c_uint};

    /// The fd is readable.
    pub const EPOLLIN: u32 = 0x001;
    /// The fd is writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition on the fd.
    pub const EPOLLERR: u32 = 0x008;
    /// Hang-up on the fd.
    pub const EPOLLHUP: u32 = 0x010;
    /// The peer closed its writing half.
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
    /// packs it there so the 32- and 64-bit layouts match); naturally
    /// aligned on every other architecture.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Ready-event bit set (`EPOLL*`).
        pub events: u32,
        /// The caller's token, echoed back verbatim.
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    /// An owned epoll instance.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates a close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` with the given interest set and token.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes the interest set of a registered fd.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregisters `fd`. Best-effort: the kernel drops the registration
        /// on fd close anyway.
        pub fn delete(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits for ready events, retrying on `EINTR`. Returns how many
        /// entries of `events` were filled.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let rc = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }

    /// A close-on-exec, non-blocking `eventfd` counter at zero, readable (to
    /// epoll) while non-zero. As a [`File`], so adding to it, zeroing it and
    /// closing it are the standard library's safe `write`, `read` and `Drop`.
    pub fn eventfd_counter() -> io::Result<File> {
        // SAFETY: `eventfd` takes no pointers; a negative return is an
        // error and no fd was created.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh, open descriptor nothing else owns.
        Ok(unsafe { File::from_raw_fd(fd) })
    }
}

pub(crate) use ffi::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Connection counters shared by the acceptor, the event loops and `stats`:
/// a live-connection gauge per loop plus server-wide accept totals. All
/// relaxed atomics — `stats` reads them lock-free.
pub struct ConnTelemetry {
    per_loop: Vec<AtomicU64>,
    total: AtomicU64,
    rejected: AtomicU64,
    idle_closed: AtomicU64,
    max_connections: u64,
}

impl ConnTelemetry {
    /// Counters for `loops` event loops under a `max_connections` gate.
    pub(crate) fn new(loops: usize, max_connections: u64) -> ConnTelemetry {
        ConnTelemetry {
            per_loop: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            max_connections,
        }
    }

    /// Live connections across every loop.
    pub fn curr(&self) -> u64 {
        self.per_loop
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Connections accepted over the server's lifetime.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Connections shed at the accept gate.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle-timeout reaper.
    pub fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }

    /// The accept gate's connection limit.
    pub fn max_connections(&self) -> u64 {
        self.max_connections
    }

    /// Number of event loops.
    pub fn loops(&self) -> usize {
        self.per_loop.len()
    }

    /// Live connections owned by loop `index`.
    pub fn loop_curr(&self, index: usize) -> u64 {
        self.per_loop[index].load(Ordering::Relaxed)
    }

    /// The acceptor admitted a connection destined for loop `index`.
    pub(crate) fn on_accept(&self, index: usize) {
        self.per_loop[index].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection owned by loop `index` closed (or never registered).
    pub(crate) fn on_close(&self, index: usize) {
        self.per_loop[index].fetch_sub(1, Ordering::Relaxed);
    }

    /// The idle reaper closed a connection on loop `index`.
    pub(crate) fn on_idle_close(&self, index: usize) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
        self.on_close(index);
    }

    /// Rolls an `on_accept` back entirely (the dispatch was refused): the
    /// connection was never served, so it should not count as accepted.
    pub(crate) fn on_dispatch_refused(&self, index: usize) {
        self.per_loop[index].fetch_sub(1, Ordering::Relaxed);
        self.total.fetch_sub(1, Ordering::Relaxed);
    }

    /// The acceptor shed a connection at the gate.
    pub(crate) fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }
}

/// Token reserved for the loop's wake-up eventfd.
const WAKE_TOKEN: u64 = 0;
/// Ready events drained per `epoll_wait`.
const EVENT_BATCH: usize = 256;
/// Backstop timeout so a lost wakeup can never wedge shutdown.
const WAIT_BACKSTOP_MS: i32 = 500;

/// The message queue between the rest of the server and one event loop.
struct Inbox {
    msgs: Mutex<Vec<LoopMsg>>,
    shutdown: AtomicBool,
}

/// The sending half of a loop's mailbox: push messages and, if the inbox
/// was empty, wake the loop. Shared by the acceptor, sibling loops and the
/// control thread via [`PlaneShared::mailboxes`].
pub(crate) struct Mailbox {
    inbox: Arc<Inbox>,
    /// The loop's wake-up eventfd; non-zero = "check your mailbox".
    waker: Arc<File>,
}

impl Mailbox {
    /// Delivers one message. Fails (handing the message back) once the
    /// loop has stopped serving.
    // The Err variant carries the whole message back by design: callers
    // that care (the acceptor) re-own the connection, and the common path
    // moves the value without an allocation.
    #[allow(clippy::result_large_err)]
    pub(crate) fn send(&self, msg: LoopMsg) -> Result<(), LoopMsg> {
        self.deliver(msg, |msgs, msg| msgs.push(msg))
    }

    /// Delivers op batches as [`LoopMsg::Ops`] under one lock acquisition
    /// and at most one wakeup, leaving `batches` empty with its capacity —
    /// or returns `false`, with `batches` as it was, once the loop has
    /// stopped serving.
    pub(crate) fn send_many(&self, batches: &mut Vec<OpBatch>) -> bool {
        self.deliver(batches, |msgs, batches| {
            msgs.extend(batches.drain(..).map(LoopMsg::Ops))
        })
        .is_ok()
    }

    /// Lets `put` add `item` to the inbox, or hands `item` back if the loop
    /// has stopped serving — the check happens under the inbox lock, the
    /// same lock teardown drains under, so a message can never be stranded
    /// after the final drain.
    fn deliver<T>(&self, item: T, put: impl FnOnce(&mut Vec<LoopMsg>, T)) -> Result<(), T> {
        let was_empty = {
            let mut msgs = self.inbox.msgs.lock();
            if self.inbox.shutdown.load(Ordering::SeqCst) {
                return Err(item);
            }
            let was_empty = msgs.is_empty();
            put(&mut msgs, item);
            was_empty
        };
        // The loop resets its counter before it swaps the inbox out, so
        // whoever found messages waiting is covered by the wake-up (or the
        // drain in progress) of whoever put the first one there.
        if was_empty {
            self.wake();
        }
        Ok(())
    }

    fn wake(&self) {
        // Adds one to the counter. Fails only on a counter at its maximum,
        // which is readable all the same.
        let _ = (&*self.waker).write(&1u64.to_ne_bytes());
    }

    /// Stops accepting messages and wakes the loop, which sees that and exits.
    pub(crate) fn close(&self) {
        self.inbox.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }
}

/// The loop-side resources [`LoopHandle::spawn`] consumes: created eagerly
/// by [`loop_channel`] so a resource failure surfaces as a start error
/// instead of a dead loop.
pub(crate) struct LoopSeed {
    pub(crate) index: usize,
    epoll: Epoll,
    waker: Arc<File>,
    inbox: Arc<Inbox>,
}

#[cfg(test)]
impl LoopSeed {
    /// What the loop's thread would find in its mailbox now.
    pub(crate) fn take_inbox(&self) -> Vec<LoopMsg> {
        std::mem::take(&mut *self.inbox.msgs.lock())
    }
}

/// Creates the mailbox/loop-seed pair for event loop `index`. The mailboxes
/// go into [`PlaneShared`] before any loop thread starts, so every loop can
/// message every other from its very first readiness pass.
pub(crate) fn loop_channel(index: usize) -> std::io::Result<(Mailbox, LoopSeed)> {
    let waker = Arc::new(ffi::eventfd_counter()?);
    let epoll = Epoll::new()?;
    epoll.add(waker.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
    let inbox = Arc::new(Inbox {
        msgs: Mutex::new(Vec::new()),
        shutdown: AtomicBool::new(false),
    });
    Ok((
        Mailbox {
            inbox: Arc::clone(&inbox),
            waker: Arc::clone(&waker),
        },
        LoopSeed {
            index,
            epoll,
            waker,
            inbox,
        },
    ))
}

/// The acceptor-side handle to one running event loop.
pub(crate) struct LoopHandle {
    index: usize,
    shared: Arc<PlaneShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl LoopHandle {
    /// Spawns event loop `index` from its seed, owning `state`'s shard
    /// engines and reporting into `telemetry`.
    pub(crate) fn spawn(
        seed: LoopSeed,
        state: LoopState,
        shared: Arc<PlaneShared>,
        telemetry: Arc<ConnTelemetry>,
        idle_timeout: Option<Duration>,
    ) -> std::io::Result<LoopHandle> {
        let index = seed.index;
        let thread = std::thread::Builder::new()
            .name(format!("cache-loop-{index}"))
            .spawn(move || {
                // The reap sweep runs at a quarter of the timeout (clamped
                // to something epoll_wait can express) so a connection
                // overstays by at most ~25%.
                let sweep = idle_timeout
                    .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_millis(500)));
                EventLoop {
                    index,
                    epoll: seed.epoll,
                    waker: seed.waker,
                    inbox: seed.inbox,
                    drained: Vec::new(),
                    state,
                    telemetry,
                    conns: HashMap::new(),
                    next_token: WAKE_TOKEN + 1,
                    idle_timeout,
                    sweep,
                    next_sweep: sweep.map(|s| Instant::now() + s),
                }
                .run()
            })?;
        Ok(LoopHandle {
            index,
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Hands a fresh connection to the loop. If the loop has stopped
    /// serving — normal shutdown, or a loop that died on a hard epoll
    /// error — the stream is handed back so the acceptor can fail over to
    /// a live loop instead of stranding an accepted client.
    pub(crate) fn dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        self.shared.mailboxes[self.index]
            .send(LoopMsg::Conn(stream))
            .map_err(|msg| match msg {
                LoopMsg::Conn(stream) => stream,
                _ => unreachable!("mailbox returned a different message"),
            })
    }

    /// Tells the loop to close every connection and exit; [`LoopHandle::join`]
    /// completes it.
    pub(crate) fn begin_shutdown(&self) {
        self.shared.mailboxes[self.index].close();
    }

    /// Waits for the loop thread to exit.
    pub(crate) fn join(&self) {
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

/// One event loop: an epoll instance, the connections it serves and the
/// shard engines it owns (inside [`LoopState`]).
struct EventLoop {
    index: usize,
    epoll: Epoll,
    waker: Arc<File>,
    inbox: Arc<Inbox>,
    /// What the inbox is swapped for at each drain: the two `Vec`s trade
    /// places, so neither is regrown from empty.
    drained: Vec<LoopMsg>,
    state: LoopState,
    telemetry: Arc<ConnTelemetry>,
    conns: HashMap<u64, Connection>,
    next_token: u64,
    idle_timeout: Option<Duration>,
    sweep: Option<Duration>,
    next_sweep: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        // On a hard epoll error the loop cannot serve anymore; it falls
        // through to teardown so its connections get closed, not stranded.
        loop {
            let timeout = match self.sweep {
                Some(sweep) => (sweep.as_millis() as i32).min(WAIT_BACKSTOP_MS),
                None => WAIT_BACKSTOP_MS,
            };
            let Ok(n) = self.epoll.wait(&mut events, timeout) else {
                break;
            };
            if self.inbox.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // One atomic load; a changed tenant table is copied out here,
            // never on the request path.
            self.state.refresh_tenants();
            // Sample cumulative counters into the history ring (in-place
            // overwrite within the current interval bucket).
            self.state.observe();
            for event in &events[..n] {
                // Copy out of the (possibly packed) event before use.
                let token = event.data;
                let ready = event.events;
                if token == WAKE_TOKEN {
                    // Zero the counter before the swap: see `deliver`.
                    let _ = (&*self.waker).read(&mut [0u8; 8]);
                    self.process_mailbox();
                } else {
                    self.drive(token, ready, |_| {});
                }
            }
            // One mailbox lock + one wakeup per sibling loop per pass, no
            // matter how many operations were forwarded.
            self.state.flush_outbound();
            self.sweep_idle();
        }
        // Teardown: closing the sockets (by dropping them) unblocks every
        // peer with EOF.
        for (_, conn) in self.conns.drain() {
            self.epoll.delete(conn.fd());
            self.telemetry.on_close(self.index);
            drop(conn);
        }
        // Mark the inbox closed *under its lock* before the final drain:
        // `Mailbox::send` checks the flag under the same lock, so after
        // this block no message can ever be stranded in the inbox — this
        // also covers a loop that died on a hard epoll error rather than a
        // requested shutdown. Dropping a drained message drops any reply
        // sender inside it, unblocking a waiting control thread or sync
        // caller.
        let mut msgs = self.inbox.msgs.lock();
        self.inbox.shutdown.store(true, Ordering::SeqCst);
        for msg in msgs.drain(..) {
            if let LoopMsg::Conn(_) = &msg {
                self.telemetry.on_close(self.index);
            }
            drop(msg);
        }
    }

    fn process_mailbox(&mut self) {
        let mut msgs = std::mem::take(&mut self.drained);
        std::mem::swap(&mut *self.inbox.msgs.lock(), &mut msgs);
        for msg in msgs.drain(..) {
            match msg {
                LoopMsg::Conn(stream) => self.adopt(stream),
                LoopMsg::Ops(batch) if batch.origin == Some(self.index) => {
                    self.complete_batch(batch)
                }
                LoopMsg::Ops(batch) => self.state.serve(batch),
                LoopMsg::AdminDone { token, seq, result } => {
                    self.drive(token, 0, |conn| conn.on_admin_done(seq, result))
                }
                LoopMsg::Control(msg) => self.state.serve_control(msg),
            }
        }
        self.drained = msgs;
    }

    /// A batch this loop sent is back, served (or refused, every op
    /// failed): its GET hits first fill the loop's hot-key replicas, so a
    /// GET a reply lets through already finds them. Then each run of ops of
    /// one connection resolves that connection's ring entries and drives it
    /// once — one `conns` lookup, one parse-and-flush pass. Ops of a
    /// connection that closed meanwhile are dropped. The batch is then kept
    /// for a later pass.
    fn complete_batch(&mut self, batch: OpBatch) {
        self.state.fill_replicas(&batch);
        let mut rest = &batch.ops[..];
        while let Some(first) = rest.first() {
            let run = rest.iter().take_while(|op| op.token == first.token);
            let (ops, later) = rest.split_at(run.count());
            rest = later;
            self.drive(first.token, 0, |conn| conn.on_replies(ops, &batch));
        }
        self.state.recycle(batch);
    }

    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        match Connection::adopt(stream) {
            Ok(conn) => {
                if self.epoll.add(conn.fd(), conn.interest(), token).is_ok() {
                    self.conns.insert(token, conn);
                } else {
                    self.telemetry.on_close(self.index);
                }
            }
            Err(_) => self.telemetry.on_close(self.index),
        }
    }

    /// Hands the connection what arrived for it (`deliver`), then runs one
    /// readiness pass on it. A closed connection's token is ignored.
    fn drive(&mut self, token: u64, ready: u32, deliver: impl FnOnce(&mut Connection)) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        deliver(conn);
        let readable = ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        let mut ctx = Ctx {
            state: &mut self.state,
            token,
        };
        match conn.on_ready(readable, &mut ctx) {
            Drive::Keep { interest, changed } => {
                if changed && self.epoll.modify(conn.fd(), interest, token).is_err() {
                    // Cannot adjust the registration: fail the connection
                    // rather than spin on a stale interest set.
                    self.close(token);
                }
            }
            Drive::Close => self.close(token),
        }
    }

    /// Closes connections silent past the idle timeout. Connections with an
    /// operation in flight are never reaped — they are waiting on us, not
    /// the other way round.
    fn sweep_idle(&mut self) {
        let (Some(timeout), Some(sweep), Some(next)) =
            (self.idle_timeout, self.sweep, self.next_sweep)
        else {
            return;
        };
        let now = Instant::now();
        if now < next {
            return;
        }
        self.next_sweep = Some(now + sweep);
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| !conn.in_flight() && conn.idle_for(now) >= timeout)
            .map(|(&token, _)| token)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                self.epoll.delete(conn.fd());
                self.telemetry.on_idle_close(self.index);
                self.state.note_idle_reap();
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.fd());
            self.telemetry.on_close(self.index);
        }
    }
}
