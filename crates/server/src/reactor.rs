//! The epoll reactor: a small, fixed set of event-loop threads serving
//! many non-blocking connections each, every loop executing every key of
//! its connections on the shards in `crate::plane`.
//!
//! This replaces the thread-per-connection model (one parked OS thread per
//! idle session, connection count hard-capped by the worker count) with the
//! shape production caches use — pelikan's worker event loops, Memcached's
//! libevent threads: `ServerConfig::workers` event loops, each owning an
//! epoll instance and a set of connections. A loop blocks only in
//! `epoll_wait` (and on a shard lock, for another thread's run of ops); every
//! socket it owns is non-blocking and driven by the
//! `conn::Connection` state machine, so thousands of mostly-idle
//! connections cost a few kilobytes of buffer each instead of a thread.
//!
//! Each loop has a `Mailbox`, which its `LoopHandle` owns: the acceptor
//! pushes a freshly accepted connection into it and, if it was empty, adds
//! one to the loop's `eventfd` counter (one 8-byte `write`, no socket
//! buffer behind it). The loop zeroes the counter with one `read` and swaps
//! the inbox for the emptied `Vec` of its last drain. A new connection is
//! all that crosses between threads: a loop runs its connections' data ops
//! and admin commands itself, and what `stats` reports of a loop, the loop
//! writes into its `LoopLedger`, which `stats` reads without asking it.
//!
//! The epoll and eventfd bindings are a thin unsafe FFI against the system
//! libc — the workspace is offline/vendored-only, so no `mio`/`libc`
//! crates. The unsafe surface is confined to the `ffi` module: five
//! syscalls and the kernel's `struct epoll_event` layout; the eventfd is
//! handed out as a `File`, which the standard library manages safely.

use crate::conn::{Connection, Ctx, Drive};
use crate::plane::{LoopState, PlaneShared};
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
use telemetry::Histogram;

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

/// One loop's slot: its live-connection gauge and its op ledger, on cache
/// lines no other loop writes. The loop is the op counters' one writer, so
/// it [`bump`]s them and `stats` reads them with relaxed loads; the gauge,
/// which the acceptor raises and the loop lowers, takes read-modify-writes.
/// Each service-time histogram sits behind a leaf latch that the loop takes
/// only on a timed op and `stats` with no shard lock held.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct LoopLedger {
    conns: AtomicU64,
    /// Data ops the loop ran on shards homed on it, and on shards homed on
    /// another loop.
    pub(crate) local_ops: AtomicU64,
    pub(crate) remote_out: AtomicU64,
    /// Ops over the slow-op threshold (0 threshold = never counted).
    pub(crate) slow_ops: AtomicU64,
    /// Service times of the timed ops on home shards, and on others (ns).
    pub(crate) local_latency: Mutex<Histogram>,
    pub(crate) remote_latency: Mutex<Histogram>,
}

/// Bumps a counter whose only writer is the calling thread: a load and a
/// store, no read-modify-write.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Connection counters and op ledgers shared by the acceptor, the event
/// loops and `stats`: a `LoopLedger` per loop plus server-wide accept
/// totals. The counters are relaxed atomics, which `stats` reads lock-free.
pub struct ConnTelemetry {
    per_loop: Vec<LoopLedger>,
    total: AtomicU64,
    rejected: AtomicU64,
    idle_closed: AtomicU64,
    max_connections: u64,
}

impl ConnTelemetry {
    /// Counters for `loops` event loops under a `max_connections` gate.
    pub(crate) fn new(loops: usize, max_connections: u64) -> ConnTelemetry {
        ConnTelemetry {
            per_loop: (0..loops).map(|_| LoopLedger::default()).collect(),
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
            .map(|c| c.conns.load(Ordering::Relaxed))
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
        self.per_loop[index].conns.load(Ordering::Relaxed)
    }

    /// Loop `index`'s slot.
    pub(crate) fn ledger(&self, index: usize) -> &LoopLedger {
        &self.per_loop[index]
    }

    /// The acceptor admitted a connection destined for loop `index`.
    pub(crate) fn on_accept(&self, index: usize) {
        self.per_loop[index].conns.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection owned by loop `index` closed (or never registered).
    pub(crate) fn on_close(&self, index: usize) {
        self.per_loop[index].conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// The idle reaper closed a connection on loop `index`.
    pub(crate) fn on_idle_close(&self, index: usize) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
        self.on_close(index);
    }

    /// Rolls an `on_accept` back entirely (the dispatch was refused): the
    /// connection was never served, so it should not count as accepted.
    pub(crate) fn on_dispatch_refused(&self, index: usize) {
        self.per_loop[index].conns.fetch_sub(1, Ordering::Relaxed);
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

/// The queue of connections the acceptor hands one event loop.
struct Inbox {
    conns: Mutex<Vec<TcpStream>>,
    shutdown: AtomicBool,
}

/// The sending half of a loop's mailbox: push a connection and, if the
/// inbox was empty, wake the loop.
pub(crate) struct Mailbox {
    inbox: Arc<Inbox>,
    /// The loop's wake-up eventfd; non-zero = "check your mailbox".
    waker: Arc<File>,
}

impl Mailbox {
    /// Delivers one connection. Fails (handing it back) once the loop has
    /// stopped serving — checked under the inbox lock, the same lock
    /// teardown drains under, so a connection can never be stranded after
    /// the final drain.
    fn send(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let was_empty = {
            let mut conns = self.inbox.conns.lock();
            if self.inbox.shutdown.load(Ordering::SeqCst) {
                return Err(stream);
            }
            let was_empty = conns.is_empty();
            conns.push(stream);
            was_empty
        };
        // The loop resets its counter before it swaps the inbox out, so
        // whoever found connections waiting is covered by the wake-up (or
        // the drain in progress) of whoever put the first one there.
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

    /// Stops accepting connections and wakes the loop, which sees that and
    /// exits.
    fn close(&self) {
        self.inbox.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }
}

/// The acceptor-side handle to one running event loop.
pub(crate) struct LoopHandle {
    mailbox: Mailbox,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl LoopHandle {
    /// Spawns the event loop of `state`. Its epoll instance and wake-up
    /// counter are made first, so a resource failure surfaces as a start
    /// error instead of a dead loop.
    pub(crate) fn spawn(
        state: LoopState,
        idle_timeout: Option<Duration>,
    ) -> std::io::Result<LoopHandle> {
        let index = state.index;
        let waker = Arc::new(ffi::eventfd_counter()?);
        let epoll = Epoll::new()?;
        epoll.add(waker.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        let inbox = Arc::new(Inbox {
            conns: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let mailbox = Mailbox {
            inbox: Arc::clone(&inbox),
            waker: Arc::clone(&waker),
        };
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
                    shared: Arc::clone(&state.shared),
                    epoll,
                    waker,
                    inbox,
                    drained: Vec::new(),
                    state,
                    conns: HashMap::new(),
                    next_token: WAKE_TOKEN + 1,
                    idle_timeout,
                    sweep,
                    next_sweep: sweep.map(|s| Instant::now() + s),
                }
                .run()
            })?;
        Ok(LoopHandle {
            mailbox,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Hands a fresh connection to the loop. If the loop has stopped
    /// serving — normal shutdown, or a loop that died on a hard epoll
    /// error — the stream is handed back so the acceptor can fail over to
    /// a live loop instead of stranding an accepted client.
    pub(crate) fn dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        self.mailbox.send(stream)
    }

    /// Tells the loop to close every connection and exit; [`LoopHandle::join`]
    /// completes it.
    pub(crate) fn begin_shutdown(&self) {
        self.mailbox.close();
    }

    /// Waits for the loop thread to exit.
    pub(crate) fn join(&self) {
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

/// One event loop: an epoll instance, the connections it serves and its
/// [`LoopState`].
struct EventLoop {
    index: usize,
    /// The plane, held apart from `state` so a connection can hold a shard
    /// lock while it updates the loop's ledger.
    shared: Arc<PlaneShared>,
    epoll: Epoll,
    waker: Arc<File>,
    inbox: Arc<Inbox>,
    /// What the inbox is swapped for at each drain: the two `Vec`s trade
    /// places, so neither is regrown from empty.
    drained: Vec<TcpStream>,
    state: LoopState,
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
            self.state.now = Instant::now();
            for event in &events[..n] {
                // Copy out of the (possibly packed) event before use.
                let token = event.data;
                let ready = event.events;
                if token == WAKE_TOKEN {
                    // Zero the counter before the swap: see `Mailbox::send`.
                    let _ = (&*self.waker).read(&mut [0u8; 8]);
                    self.process_mailbox();
                } else {
                    self.drive(token, ready);
                }
            }
            // Rounds that came due in this pass, asked for with no shard
            // lock held.
            self.state.ask_rounds();
            self.sweep_idle();
        }
        // Teardown: closing the sockets (by dropping them) unblocks every
        // peer with EOF.
        for (_, conn) in self.conns.drain() {
            self.epoll.delete(conn.fd());
            self.shared.telemetry.on_close(self.index);
            drop(conn);
        }
        // Mark the inbox closed *under its lock* before the final drain:
        // `Mailbox::send` checks the flag under the same lock, so after
        // this block no connection can ever be stranded in the inbox —
        // this also covers a loop that died on a hard epoll error rather
        // than a requested shutdown.
        let mut conns = self.inbox.conns.lock();
        self.inbox.shutdown.store(true, Ordering::SeqCst);
        for stream in conns.drain(..) {
            self.shared.telemetry.on_close(self.index);
            drop(stream);
        }
    }

    fn process_mailbox(&mut self) {
        let mut conns = std::mem::take(&mut self.drained);
        std::mem::swap(&mut *self.inbox.conns.lock(), &mut conns);
        for stream in conns.drain(..) {
            self.adopt(stream);
        }
        self.drained = conns;
    }

    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        match Connection::adopt(stream) {
            Ok(conn) => {
                if self.epoll.add(conn.fd(), conn.interest(), token).is_ok() {
                    self.conns.insert(token, conn);
                } else {
                    self.shared.telemetry.on_close(self.index);
                }
            }
            Err(_) => self.shared.telemetry.on_close(self.index),
        }
    }

    /// Runs one readiness pass on a connection. A closed connection's token
    /// is ignored.
    fn drive(&mut self, token: u64, ready: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let readable = ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        let mut ctx = Ctx {
            state: &mut self.state,
            shared: &self.shared,
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

    /// Closes connections silent past the idle timeout.
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
            .filter(|(_, conn)| conn.idle_for(now) >= timeout)
            .map(|(&token, _)| token)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                self.epoll.delete(conn.fd());
                self.shared.telemetry.on_idle_close(self.index);
                self.state.note_idle_reap();
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.fd());
            self.shared.telemetry.on_close(self.index);
        }
    }
}
