//! Readiness-based network core: an epoll reactor with a fixed worker
//! pool.
//!
//! The transport scales threads with *workers*, never with connections.
//! A [`Reactor`] owns N worker threads, each running an `epoll_wait` loop
//! over nonblocking sockets:
//!
//! - **inbound**: readable sockets are drained into a per-worker scratch
//!   buffer and fed through an incremental
//!   [`FrameDecoder`]; every decoded
//!   message is handed to the application via [`ReactorApp::on_msg`]
//!   (chunk payloads are zero-copy slices of the frame buffer);
//! - **outbound**: [`ReactorHandle::send`] serializes onto the
//!   connection's resumable [`FrameEncoder`] (chunk payloads stay shared
//!   `Bytes` segments flushed by `writev`; [`ReactorHandle::send_file_region`]
//!   queues a `sendfile` region instead) and flushes opportunistically;
//!   what the socket refuses is written by the owning worker when
//!   `EPOLLOUT` fires. Outbound buffers are **bounded**: a peer that stops
//!   draining (or died silently) is disconnected — it can never block the
//!   pump;
//! - **timers**: worker 0 folds the application's
//!   [`poll_timeout`](stdchk_core::Node::poll_timeout)-derived deadline
//!   ([`ReactorApp::next_deadline`]) and the connection sweep into its
//!   `epoll_wait` timeout. The sweep reaps connections that exceeded
//!   their idle timeout and emits transport-level `Ping`s on keepalive
//!   connections (`Ping`/`Pong` never reach the application);
//! - **blocking lane**: one auxiliary thread runs queued blocking jobs
//!   (dials, address resolution) so reactor workers never block on
//!   connect or RPC round-trips ([`ReactorHandle::spawn_blocking`]).
//!
//! Thread count is `workers + 1` regardless of connection count.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stdchk_util::ordlock::{Condvar, OrderedMutex};

use crate::ranks;

use stdchk_proto::frame::{FrameDecoder, FrameEncoder, MAX_FRAME};
use stdchk_proto::msg::Msg;
use stdchk_util::Time;

use crate::conn::Clock;

mod sys {
    //! Thin `extern "C"` bindings for Linux epoll + eventfd. No external
    //! crates: the platform is Linux and the surface is five syscalls.

    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    /// One epoll readiness event. On x86-64 the kernel ABI packs this
    /// struct (no padding between `events` and `data`).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn sendfile(out_fd: i32, in_fd: i32, offset: *mut i64, count: usize) -> isize;
    }

    /// One `sendfile(2)` push from `in_fd` at `offset` into `out_fd`:
    /// the kernel copies file pages straight into the socket, no user
    /// buffer. Returns bytes moved; `WouldBlock`/`Interrupted` surface
    /// as their `io::ErrorKind`s for the caller's readiness loop.
    pub fn send_file(out_fd: i32, in_fd: i32, offset: u64, count: usize) -> io::Result<usize> {
        // Kernel caps a single sendfile at ~2 GiB; clamp well under it.
        let mut off = offset as i64;
        // SAFETY: both fds are owned by the caller and open for the
        // duration of the call; `off` is a live stack slot the kernel
        // writes back through; the count clamp keeps the request inside
        // the syscall's documented range. sendfile touches no user
        // memory besides `off`.
        let n = unsafe { sendfile(out_fd, in_fd, &mut off, count.min(1 << 30)) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: no pointers cross the boundary; the flag constant
        // matches the kernel ABI. The returned fd (or -1) is checked.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    fn ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly `#[repr(C)]`-laid-out stack
        // struct for the duration of the call; the kernel only reads it.
        let r = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn epoll_add(epfd: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
    }

    pub fn epoll_mod(epfd: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn epoll_del(epfd: i32, fd: i32) {
        let _ = ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0);
    }

    const EINTR: i32 = 4;

    /// Waits for events. Only `EINTR` surfaces as zero events; any other
    /// negative return (e.g. `EBADF` from a close race) is a real error
    /// the caller must fail on — treating it as "no events" would turn
    /// the event loop into a silent 100% CPU spin.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno, except `EINTR`.
    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the pointer/len pair comes from a live `&mut [_]`, so
        // the kernel writes at most `events.len()` records into memory we
        // exclusively own; `EpollEvent` is plain old data, valid for any
        // byte pattern the kernel stores.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }

    pub fn eventfd_new() -> io::Result<i32> {
        // SAFETY: no pointers cross the boundary; flags match the
        // kernel ABI; the returned fd (or -1) is checked.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn eventfd_wake(fd: i32) {
        let one: u64 = 1;
        // SAFETY: the kernel reads exactly 8 bytes from `one`, a live
        // stack u64. A failed write (full counter) is deliberately
        // ignored: the eventfd is already signaled, which is all a wake
        // needs.
        unsafe {
            let _ = write(fd, (&one as *const u64).cast(), 8);
        }
    }

    pub fn eventfd_drain(fd: i32) {
        let mut buf = [0u8; 8];
        // SAFETY: the kernel writes at most 8 bytes into `buf`, a live
        // 8-byte stack array. EAGAIN (nothing to drain) is the expected
        // no-op and is deliberately ignored.
        unsafe {
            let _ = read(fd, buf.as_mut_ptr().cast(), 8);
        }
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: no memory crosses the boundary. Callers pass fds they
        // own exactly once (registry removal precedes the close), so no
        // double-close can invalidate a reused descriptor.
        unsafe {
            let _ = close(fd);
        }
    }
}

/// Identifies one registered connection for the lifetime of the reactor.
/// Tokens are never reused.
pub type ConnToken = u64;

/// Event-loop data slot for worker wakeup eventfds.
const WAKE_TOKEN: u64 = u64::MAX;
/// Listener tokens carry this bit; connection tokens never do.
const LISTENER_BIT: u64 = 1 << 63;
/// Connection sweep cadence (idle reaping, keepalive pings).
const SWEEP_EVERY: Duration = Duration::from_millis(100);
/// Upper bound on any worker sleep (safety net against missed wakes).
const MAX_SLEEP_MS: i64 = 500;
/// Per-event read budget before yielding back to the event loop
/// (level-triggered epoll re-reports leftover readability).
const READ_BURST: usize = 4;

/// Per-connection transport tuning.
#[derive(Clone, Copy, Debug)]
pub struct ConnOpts {
    /// Reap the connection when no bytes arrive for this long. The
    /// liveness bound for steady-state reads: a silently dead peer is
    /// disconnected instead of leaking the connection forever.
    pub idle_timeout: Option<Duration>,
    /// Send a transport `Ping` when the connection has been read-idle
    /// this long. Dial-side connections use it to stay ahead of the
    /// server's idle reaper (the `Pong` refreshes both ends).
    pub keepalive: Option<Duration>,
    /// Disconnect when the outbound buffer exceeds this many bytes: a
    /// peer that stops draining must never block or bloat the pump.
    pub max_outbound: usize,
    /// Disconnect when outbound bytes are pending but the socket has
    /// accepted none of them for this long. This is the time-domain
    /// liveness bound on sends (the byte-domain bound is `max_outbound`):
    /// a dead or wedged peer fails in-flight transfers over within
    /// seconds, much like a blocking socket's write timeout.
    /// Slow-but-moving peers are unaffected; only zero progress trips it.
    pub write_stall_timeout: Option<Duration>,
    /// Largest accepted inbound frame.
    pub max_frame: u32,
}

impl Default for ConnOpts {
    fn default() -> ConnOpts {
        ConnOpts {
            idle_timeout: None,
            keepalive: None,
            max_outbound: 256 << 20,
            write_stall_timeout: Some(Duration::from_secs(5)),
            max_frame: MAX_FRAME,
        }
    }
}

impl ConnOpts {
    /// Defaults for server-accepted connections: idle peers are reaped.
    pub fn server_default(idle_timeout: Option<Duration>) -> ConnOpts {
        ConnOpts {
            idle_timeout,
            ..ConnOpts::default()
        }
    }

    /// Defaults for dialed (client-side) connections: keepalive pings
    /// hold the server-side reaper at bay across long idle stretches,
    /// and the idle timeout reaps a silently dead peer that stops
    /// answering them (in-flight transfers fail over much sooner via
    /// `write_stall_timeout`).
    pub fn dial_default() -> ConnOpts {
        ConnOpts {
            keepalive: Some(Duration::from_secs(15)),
            idle_timeout: Some(Duration::from_secs(60)),
            ..ConnOpts::default()
        }
    }
}

/// Why a connection was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed the stream.
    Eof,
    /// Transport error (read/write failure).
    Error,
    /// No inbound bytes within the idle timeout: peer presumed dead.
    IdleTimeout,
    /// Outbound buffer exceeded its bound: peer too slow or dead.
    Backpressure,
    /// Undecodable inbound bytes (oversized or malformed frame).
    Protocol,
    /// Closed locally via [`ReactorHandle::close`].
    Local,
}

/// The application half of the reactor: role-specific handling of
/// accepted connections, decoded messages, closures, flushed frames, and
/// protocol timers. All callbacks may fire on any worker thread (or, for
/// `on_sent`, on the thread that called `send`); implementations route by
/// token and share state behind locks, exactly like [`crate::Effects`].
pub trait ReactorApp: Send + Sync {
    /// A listener accepted `conn` (`listener` is the `ctx` the listener
    /// was registered with).
    fn on_accept(&self, conn: ConnToken, listener: u64) {
        let _ = (conn, listener);
    }

    /// One decoded inbound message. Transport `Ping`/`Pong` frames are
    /// handled by the reactor and never reach this.
    fn on_msg(&self, conn: ConnToken, msg: Msg);

    /// The connection is gone (any cause except reactor shutdown).
    fn on_close(&self, conn: ConnToken, reason: CloseReason) {
        let _ = (conn, reason);
    }

    /// A frame sent with a tracking token fully left this host's socket
    /// buffer into the kernel (ends OAB-style transmit windows).
    fn on_sent(&self, conn: ConnToken, token: u64) {
        let _ = (conn, token);
    }

    /// The next protocol deadline, folded into worker 0's `epoll_wait`
    /// timeout.
    fn next_deadline(&self) -> Option<Time> {
        None
    }

    /// Called by worker 0 once `now` reaches [`ReactorApp::next_deadline`].
    fn on_tick(&self, now: Time) {
        let _ = now;
    }
}

/// A frame whose payload leaves the host by `sendfile`: the encoded
/// head (length prefix + leading fields) is written from memory, then
/// `remaining` payload bytes are pushed kernel-side from `file` starting
/// at `offset` — the bytes never enter user space. Fully resumable:
/// `head_off`/`offset`/`remaining` advance as the socket accepts bytes,
/// so backpressure, stall sweeps and the bounded-queue accounting treat
/// a region exactly like buffered frames.
struct PendingFileRegion {
    head: Vec<u8>,
    head_off: usize,
    file: Arc<std::fs::File>,
    offset: u64,
    remaining: u64,
    token: Option<u64>,
}

impl PendingFileRegion {
    fn pending_bytes(&self) -> usize {
        (self.head.len() - self.head_off) + self.remaining as usize
    }
}

/// One queued transmit item, in wire order: a run of encoded frames or
/// a kernel-copy file region.
enum TxItem {
    Frames(FrameEncoder),
    Region(PendingFileRegion),
}

/// Per-connection transport counters. Relaxed atomics: written by
/// whichever thread holds the relevant lock, read by the stats hook.
#[derive(Default)]
struct ConnStats {
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    frames_tx: AtomicU64,
    frames_rx: AtomicU64,
    copied_payload_tx: AtomicU64,
    zerocopy_payload_tx: AtomicU64,
}

/// Aggregated transport counters ([`ReactorHandle::transport_stats`]).
///
/// `copied_payload_tx` counts chunk-payload bytes that were flattened
/// into a contiguous frame buffer before hitting the socket;
/// `zerocopy_payload_tx` counts payload bytes that left either as shared
/// `Bytes` segments under `writev` or kernel-side via `sendfile`. A
/// zero `copied_payload_tx` over a sealed-segment read workload is the
/// proof that no payload byte was memcpy'd on the transmit path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes the sockets accepted (headers + payloads).
    pub bytes_tx: u64,
    /// Bytes read off the sockets.
    pub bytes_rx: u64,
    /// Frames enqueued for transmit (file regions count as one frame).
    pub frames_tx: u64,
    /// Frames decoded from inbound bytes (including transport pings).
    pub frames_rx: u64,
    /// Payload bytes copied into a contiguous frame buffer. Chunk
    /// payloads always leave by `writev` or `sendfile`, so a non-zero
    /// value flags a copy that crept onto the transmit path.
    pub copied_payload_tx: u64,
    /// Payload bytes sent without a user-space copy (writev or sendfile).
    pub zerocopy_payload_tx: u64,
}

impl TransportStats {
    fn fold(&mut self, s: &ConnStats) {
        self.bytes_tx += s.bytes_tx.load(Ordering::Relaxed);
        self.bytes_rx += s.bytes_rx.load(Ordering::Relaxed);
        self.frames_tx += s.frames_tx.load(Ordering::Relaxed);
        self.frames_rx += s.frames_rx.load(Ordering::Relaxed);
        self.copied_payload_tx += s.copied_payload_tx.load(Ordering::Relaxed);
        self.zerocopy_payload_tx += s.zerocopy_payload_tx.load(Ordering::Relaxed);
    }
}

/// Resumable outbound state, shared by sender threads and the owning
/// worker.
struct Outbound {
    /// Wire-ordered transmit queue. Invariant: at most the front item
    /// may be partially written; a drained item is popped immediately
    /// (except a lone drained encoder, kept as the reusable buffer so a
    /// region-free connection never reallocates).
    q: std::collections::VecDeque<TxItem>,
    /// True while `EPOLLOUT` is armed for this connection.
    epollout: bool,
    /// Sticky: set at close so late senders fail instead of queueing.
    closed: bool,
}

impl Outbound {
    /// Bytes not yet accepted by the socket (frames + file regions).
    fn pending_bytes(&self) -> usize {
        self.q
            .iter()
            .map(|i| match i {
                TxItem::Frames(enc) => enc.pending_bytes(),
                TxItem::Region(r) => r.pending_bytes(),
            })
            .sum()
    }

    /// True when nothing is waiting to be written.
    fn is_empty(&self) -> bool {
        self.q.iter().all(|i| match i {
            TxItem::Frames(enc) => enc.is_empty(),
            TxItem::Region(_) => false,
        })
    }

    /// Serializes `msg` onto the tail encoder (appending one if the tail
    /// is a file region), crediting the payload-copy counters.
    fn push_msg(&mut self, msg: &Msg, track: Option<u64>, stats: &ConnStats) {
        if !matches!(self.q.back(), Some(TxItem::Frames(_))) {
            self.q.push_back(TxItem::Frames(FrameEncoder::new()));
        }
        let Some(TxItem::Frames(enc)) = self.q.back_mut() else {
            unreachable!("just ensured a tail encoder");
        };
        let (c0, s0) = (enc.copied_payload_bytes(), enc.shared_payload_bytes());
        enc.push_tracked(msg, track);
        stats
            .copied_payload_tx
            .fetch_add(enc.copied_payload_bytes() - c0, Ordering::Relaxed);
        stats
            .zerocopy_payload_tx
            .fetch_add(enc.shared_payload_bytes() - s0, Ordering::Relaxed);
        stats.frames_tx.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes queued items to `stream` in order until everything drained
    /// or the socket refused. Returns `Ok(true)` when fully drained.
    /// Completion tokens of fully written frames/regions land in
    /// `completed` (fire callbacks only after dropping the out lock).
    fn flush(
        &mut self,
        stream: &TcpStream,
        completed: &mut Vec<u64>,
        stats: &ConnStats,
    ) -> io::Result<bool> {
        loop {
            match self.q.front_mut() {
                None => return Ok(true),
                Some(TxItem::Frames(enc)) => {
                    let before = enc.pending_bytes();
                    let mut w = stream;
                    let drained = enc.write_to(&mut w, completed);
                    stats
                        .bytes_tx
                        .fetch_add((before - enc.pending_bytes()) as u64, Ordering::Relaxed);
                    if !drained? {
                        return Ok(false);
                    }
                    if self.q.len() == 1 {
                        // Lone drained encoder: keep it as the buffer.
                        return Ok(true);
                    }
                    self.q.pop_front();
                }
                Some(TxItem::Region(r)) => {
                    while r.head_off < r.head.len() {
                        match (&*stream).write(&r.head[r.head_off..]) {
                            Ok(0) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::WriteZero,
                                    "socket accepted zero bytes",
                                ))
                            }
                            Ok(n) => {
                                r.head_off += n;
                                stats.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(e),
                        }
                    }
                    while r.remaining > 0 {
                        match sys::send_file(
                            stream.as_raw_fd(),
                            r.file.as_raw_fd(),
                            r.offset,
                            r.remaining as usize,
                        ) {
                            Ok(0) => {
                                // The file shrank under us (should never
                                // happen to a sealed segment): a stuck
                                // region would wedge the queue forever.
                                return Err(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "segment file truncated under pending sendfile region",
                                ));
                            }
                            Ok(n) => {
                                r.offset += n as u64;
                                r.remaining -= n as u64;
                                stats.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                                stats
                                    .zerocopy_payload_tx
                                    .fetch_add(n as u64, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(e),
                        }
                    }
                    if let Some(t) = r.token {
                        completed.push(t);
                    }
                    self.q.pop_front();
                }
            }
        }
    }
}

/// One registered connection.
struct ConnShared {
    token: ConnToken,
    stream: TcpStream,
    /// Owning worker (reads and `EPOLLOUT` flushes happen there).
    worker: usize,
    opts: ConnOpts,
    stats: ConnStats,
    dec: OrderedMutex<FrameDecoder>,
    out: OrderedMutex<Outbound>,
    /// Milliseconds since reactor start of the last inbound byte.
    last_read_ms: AtomicU64,
    /// Milliseconds of the last outbound write progress (any byte the
    /// socket accepted, or the moment the outbound buffer went from
    /// empty to non-empty — the start of a potential stall window).
    last_write_ms: AtomicU64,
    /// Milliseconds of the last keepalive ping.
    last_ping_ms: AtomicU64,
    closing: AtomicBool,
}

struct ListenerEntry {
    listener: TcpListener,
    ctx: u64,
    opts: ConnOpts,
}

struct WorkerIo {
    epfd: i32,
    wakefd: i32,
}

type BlockingJob = Box<dyn FnOnce(&ReactorHandle) + Send>;

struct Inner {
    clock: Clock,
    app: Arc<dyn ReactorApp>,
    workers: Vec<WorkerIo>,
    conns: OrderedMutex<HashMap<ConnToken, Arc<ConnShared>>>,
    listeners: OrderedMutex<HashMap<u64, ListenerEntry>>,
    next_token: AtomicU64,
    next_listener: AtomicU64,
    next_worker: AtomicUsize,
    next_ping: AtomicU64,
    shutdown: AtomicBool,
    /// Set when a non-zero worker delivered input; cleared by worker 0.
    /// Skips redundant eventfd wakes while one is already pending.
    timer_dirty: AtomicBool,
    /// Counters of connections that already closed, so
    /// [`ReactorHandle::transport_stats`] stays cumulative.
    dead_stats: OrderedMutex<TransportStats>,
    epoch: Instant,
    jobs: OrderedMutex<Vec<(Instant, u64, BlockingJob)>>,
    job_seq: AtomicU64,
    job_cv: Condvar,
}

impl Drop for Inner {
    fn drop(&mut self) {
        for w in &self.workers {
            sys::close_fd(w.epfd);
            sys::close_fd(w.wakefd);
        }
    }
}

/// Cheap cloneable handle: register listeners and connections, send
/// frames, close connections, queue blocking jobs.
#[derive(Clone)]
pub struct ReactorHandle {
    inner: Arc<Inner>,
}

/// Non-owning [`ReactorHandle`]: what applications and connection
/// registries store. The reactor's `Inner` owns the application, so a
/// strong handle inside the application (or inside anything the
/// application transitively owns, like an effects registry) would be a
/// reference cycle that leaks the whole transport on shutdown.
#[derive(Clone, Default)]
pub struct WeakHandle {
    inner: std::sync::Weak<Inner>,
}

impl std::fmt::Debug for WeakHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeakHandle").finish_non_exhaustive()
    }
}

impl WeakHandle {
    /// The strong handle, while the reactor is alive.
    pub fn upgrade(&self) -> Option<ReactorHandle> {
        self.inner.upgrade().map(|inner| ReactorHandle { inner })
    }
}

impl ReactorHandle {
    /// A non-owning handle for storage inside application state.
    pub fn downgrade(&self) -> WeakHandle {
        WeakHandle {
            inner: Arc::downgrade(&self.inner),
        }
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("workers", &self.inner.workers.len())
            .finish_non_exhaustive()
    }
}

/// Tuning for a [`Reactor`].
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Event-loop worker threads. Thread count stays `workers + 1`
    /// (blocking lane) no matter how many connections register.
    pub workers: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig { workers: 2 }
    }
}

/// A running reactor: worker threads + blocking lane. Shuts down (and
/// joins its threads) on [`Reactor::shutdown`] or drop.
pub struct Reactor {
    handle: ReactorHandle,
    joins: OrderedMutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").finish_non_exhaustive()
    }
}

impl Reactor {
    /// Starts a reactor serving `app`. `clock` maps wall time onto the
    /// protocol [`Time`] used for [`ReactorApp::next_deadline`].
    ///
    /// # Errors
    ///
    /// Fails if the epoll or eventfd descriptors cannot be created.
    pub fn new(clock: Clock, app: Arc<dyn ReactorApp>, cfg: ReactorConfig) -> io::Result<Reactor> {
        let nworkers = cfg.workers.max(1);
        let mut workers: Vec<WorkerIo> = Vec::with_capacity(nworkers);
        let mut setup = || -> io::Result<()> {
            for _ in 0..nworkers {
                let epfd = sys::epoll_create()?;
                let wakefd = match sys::eventfd_new() {
                    Ok(fd) => fd,
                    Err(e) => {
                        sys::close_fd(epfd);
                        return Err(e);
                    }
                };
                sys::epoll_add(epfd, wakefd, WAKE_TOKEN, sys::EPOLLIN)?;
                workers.push(WorkerIo { epfd, wakefd });
            }
            Ok(())
        };
        if let Err(e) = setup() {
            for w in &workers {
                sys::close_fd(w.epfd);
                sys::close_fd(w.wakefd);
            }
            return Err(e);
        }
        let inner = Arc::new(Inner {
            clock,
            app,
            workers,
            conns: OrderedMutex::new(ranks::REACTOR_CONNS, "reactor.conns", HashMap::new()),
            listeners: OrderedMutex::new(
                ranks::REACTOR_LISTENERS,
                "reactor.listeners",
                HashMap::new(),
            ),
            next_token: AtomicU64::new(1),
            next_listener: AtomicU64::new(1),
            next_worker: AtomicUsize::new(0),
            next_ping: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            timer_dirty: AtomicBool::new(false),
            dead_stats: OrderedMutex::new(
                ranks::REACTOR_DEAD_STATS,
                "reactor.dead_stats",
                TransportStats::default(),
            ),
            epoch: Instant::now(),
            jobs: OrderedMutex::new(ranks::REACTOR_JOBS, "reactor.jobs", Vec::new()),
            job_seq: AtomicU64::new(0),
            job_cv: Condvar::new(),
        });
        let mut joins = Vec::with_capacity(nworkers + 1);
        for idx in 0..nworkers {
            let inner2 = Arc::clone(&inner);
            // Spawn failure (thread limit / OOM) at startup propagates:
            // a reactor with fewer workers than its epoll sets expect
            // would strand the connections hashed to the missing one.
            joins.push(
                thread::Builder::new()
                    .name(format!("stdchk-react-{idx}"))
                    .spawn(move || worker_loop(&inner2, idx))?,
            );
        }
        {
            let handle = ReactorHandle {
                inner: Arc::clone(&inner),
            };
            joins.push(
                thread::Builder::new()
                    .name("stdchk-react-dial".into())
                    .spawn(move || blocking_loop(handle))?,
            );
        }
        Ok(Reactor {
            handle: ReactorHandle { inner },
            joins: OrderedMutex::new(ranks::REACTOR_JOINS, "reactor.joins", joins),
        })
    }

    /// The reactor's handle.
    pub fn handle(&self) -> &ReactorHandle {
        &self.handle
    }

    /// Stops workers and the blocking lane, joins them (unless called
    /// from one of them), and shuts every connection down.
    pub fn shutdown(&self) {
        let inner = &self.handle.inner;
        if inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for w in &inner.workers {
            sys::eventfd_wake(w.wakefd);
        }
        inner.job_cv.notify_all();
        let me = thread::current().id();
        for j in self.joins.lock().drain(..) {
            if j.thread().id() != me {
                let _ = j.join();
            }
        }
        for (_, c) in inner.conns.lock().drain() {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
        inner.listeners.lock().clear();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ReactorHandle {
    fn now_ms(&self) -> u64 {
        self.inner.epoch.elapsed().as_millis() as u64
    }

    /// True once the reactor shut down.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// Registered connections (tests and introspection).
    pub fn conn_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Registers a listening socket; accepted connections get `opts` and
    /// are announced via [`ReactorApp::on_accept`] with `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking`/epoll registration failures.
    pub fn add_listener(&self, listener: TcpListener, ctx: u64, opts: ConnOpts) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let id = self.inner.next_listener.fetch_add(1, Ordering::Relaxed);
        let token = id | LISTENER_BIT;
        let fd = listener.as_raw_fd();
        self.inner.listeners.lock().insert(
            token,
            ListenerEntry {
                listener,
                ctx,
                opts,
            },
        );
        // Listeners live on worker 0 (accept is cheap; new conns are
        // distributed round-robin anyway).
        if let Err(e) = sys::epoll_add(self.inner.workers[0].epfd, fd, token, sys::EPOLLIN) {
            self.inner.listeners.lock().remove(&token);
            return Err(e);
        }
        Ok(())
    }

    /// Registers an already-connected stream (e.g. a dialed + handshaken
    /// socket), assigning it to a worker round-robin.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking`/epoll registration failures.
    pub fn register(&self, stream: TcpStream, opts: ConnOpts) -> io::Result<ConnToken> {
        let token = self.prepare(stream, opts)?;
        self.arm(token);
        Ok(token)
    }

    /// First half of [`ReactorHandle::register`]: allocates the token and
    /// connection state but does **not** arm the socket in epoll — no
    /// callback can fire for it yet. Callers finish their bookkeeping
    /// (routing tables keyed by the token), then [`ReactorHandle::arm`].
    /// The accept path uses this internally so `on_accept` always
    /// happens-before the connection's first `on_msg`.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking` failures.
    pub fn prepare(&self, stream: TcpStream, opts: ConnOpts) -> io::Result<ConnToken> {
        if self.is_shutdown() {
            return Err(io::Error::other("reactor is shut down"));
        }
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let worker =
            self.inner.next_worker.fetch_add(1, Ordering::Relaxed) % self.inner.workers.len();
        let conn = Arc::new(ConnShared {
            token,
            stream,
            worker,
            opts,
            stats: ConnStats::default(),
            dec: OrderedMutex::new(
                ranks::REACTOR_DEC,
                "conn.dec",
                FrameDecoder::new(opts.max_frame),
            ),
            out: OrderedMutex::new(
                ranks::REACTOR_OUT,
                "conn.out",
                Outbound {
                    q: std::collections::VecDeque::new(),
                    epollout: false,
                    closed: false,
                },
            ),
            last_read_ms: AtomicU64::new(self.now_ms()),
            last_write_ms: AtomicU64::new(self.now_ms()),
            last_ping_ms: AtomicU64::new(0),
            closing: AtomicBool::new(false),
        });
        self.inner.conns.lock().insert(token, Arc::clone(&conn));
        Ok(token)
    }

    /// Second half of [`ReactorHandle::prepare`]: arms the connection in
    /// its worker's epoll set. Messages may be delivered from the instant
    /// this returns (or even during the call, on another worker). No-op
    /// for unknown/closed tokens.
    pub fn arm(&self, token: ConnToken) {
        let Some(conn) = self.inner.conns.lock().get(&token).cloned() else {
            return;
        };
        // Anything sent between prepare() and arm() sits in the outbound
        // buffer; pick the initial interest mask accordingly (the mask is
        // always chosen under the out lock — see `update_interest`).
        let mut out = conn.out.lock();
        if out.closed {
            return;
        }
        // (Re)derive the flag: a pre-arm send's epoll_mod was a no-op, so
        // whatever it left in `epollout` is stale.
        out.epollout = !out.is_empty();
        let mut mask = sys::EPOLLIN | sys::EPOLLRDHUP;
        if out.epollout {
            mask |= sys::EPOLLOUT;
        }
        let armed = sys::epoll_add(
            self.inner.workers[conn.worker].epfd,
            conn.stream.as_raw_fd(),
            token,
            mask,
        );
        drop(out);
        if armed.is_err() {
            self.inner.close_conn(&conn, CloseReason::Error);
        }
    }

    /// Sends one message on `conn`: serialize onto the outbound buffer,
    /// flush what the socket accepts now, let the owning worker write the
    /// rest on `EPOLLOUT`.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown/closed, the write failed, or
    /// the outbound bound was exceeded (the connection is closed in the
    /// latter two cases). A successful return means *queued or written* —
    /// track a token ([`ReactorHandle::send_tracked`]) to learn when the
    /// frame fully left this host.
    pub fn send(&self, conn: ConnToken, msg: &Msg) -> io::Result<()> {
        self.send_impl(conn, msg, None)
    }

    /// [`ReactorHandle::send`] with a completion token reported through
    /// [`ReactorApp::on_sent`] when the frame's last byte is written.
    ///
    /// # Errors
    ///
    /// As [`ReactorHandle::send`].
    pub fn send_tracked(&self, conn: ConnToken, msg: &Msg, token: u64) -> io::Result<()> {
        self.send_impl(conn, msg, Some(token))
    }

    fn send_impl(&self, token: ConnToken, msg: &Msg, track: Option<u64>) -> io::Result<()> {
        let Some(conn) = self.inner.conns.lock().get(&token).cloned() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "unknown connection",
            ));
        };
        self.inner.send_on(&conn, msg, track)
    }

    /// Sends one frame whose payload leaves straight from `file` via
    /// `sendfile`: `head` (the pre-encoded length prefix + leading
    /// fields, e.g. [`stdchk_proto::frame::get_chunk_ok_frame_head`]) is
    /// written from memory, then `len` payload bytes starting at
    /// `offset` are pushed kernel-side — they never enter user space.
    /// The region queues behind any buffered frames and participates in
    /// the same backpressure byte bound, stall sweep and `on_sent`
    /// tracking as ordinary sends. The file must be immutable over
    /// `[offset, offset + len)` (a sealed segment).
    ///
    /// # Errors
    ///
    /// As [`ReactorHandle::send`].
    pub fn send_file_region(
        &self,
        conn: ConnToken,
        head: Vec<u8>,
        file: Arc<std::fs::File>,
        offset: u64,
        len: u64,
        track: Option<u64>,
    ) -> io::Result<()> {
        let Some(conn) = self.inner.conns.lock().get(&conn).cloned() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "unknown connection",
            ));
        };
        let region = PendingFileRegion {
            head,
            head_off: 0,
            file,
            offset,
            remaining: len,
            token: track,
        };
        self.inner.send_region_on(&conn, region)
    }

    /// Cumulative transport counters over live and closed connections.
    pub fn transport_stats(&self) -> TransportStats {
        // Read both under the registry lock: `close_conn` moves a
        // connection from one to the other under it, so a closing
        // connection is counted exactly once.
        let conns = self.inner.conns.lock();
        let mut s = *self.inner.dead_stats.lock();
        for conn in conns.values() {
            s.fold(&conn.stats);
        }
        s
    }

    /// Closes `conn` (no-op if already gone). The application sees
    /// [`CloseReason::Local`].
    pub fn close(&self, conn: ConnToken) {
        let c = self.inner.conns.lock().get(&conn).cloned();
        if let Some(c) = c {
            self.inner.close_conn(&c, CloseReason::Local);
        }
    }

    /// Nudges worker 0 to recompute its timer sleep. Input delivered by
    /// reactor workers does this automatically; callers feeding protocol
    /// state from *outside* the reactor — the disk I/O lane completing a
    /// durable wait and handing `Stored` completions to the node — use
    /// this so a re-armed earlier deadline does not sit out the rest of
    /// worker 0's current sleep.
    pub fn notify_timer(&self) {
        if !self.inner.timer_dirty.swap(true, Ordering::Relaxed) {
            sys::eventfd_wake(self.inner.workers[0].wakefd);
        }
    }

    /// Runs `f` on the blocking lane — the one thread allowed to block on
    /// dials and RPC round-trips. Jobs run in due order.
    pub fn spawn_blocking(&self, f: impl FnOnce(&ReactorHandle) + Send + 'static) {
        self.spawn_blocking_after(Duration::ZERO, f);
    }

    /// [`ReactorHandle::spawn_blocking`] delayed by `delay` (redial
    /// backoff without blocking the lane).
    pub fn spawn_blocking_after(
        &self,
        delay: Duration,
        f: impl FnOnce(&ReactorHandle) + Send + 'static,
    ) {
        if self.is_shutdown() {
            return;
        }
        let seq = self.inner.job_seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .jobs
            .lock()
            .push((Instant::now() + delay, seq, Box::new(f)));
        self.inner.job_cv.notify_all();
    }
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serialize + opportunistic flush; arms `EPOLLOUT` for the remainder.
    fn send_on(&self, conn: &Arc<ConnShared>, msg: &Msg, track: Option<u64>) -> io::Result<()> {
        self.enqueue_and_flush(conn, |out, conn| {
            out.push_msg(msg, track, &conn.stats);
        })
    }

    /// [`ReactorHandle::send_file_region`]'s transport half.
    fn send_region_on(&self, conn: &Arc<ConnShared>, region: PendingFileRegion) -> io::Result<()> {
        self.enqueue_and_flush(conn, |out, conn| {
            conn.stats.frames_tx.fetch_add(1, Ordering::Relaxed);
            out.q.push_back(TxItem::Region(region));
        })
    }

    /// The shared send tail: under the out lock, stamp the stall anchor
    /// on the empty→non-empty transition, enqueue via `push`, enforce the
    /// outbound byte bound, flush what the socket accepts now and arm
    /// `EPOLLOUT` for the rest. Completion callbacks fire after the lock
    /// drops.
    fn enqueue_and_flush(
        &self,
        conn: &Arc<ConnShared>,
        push: impl FnOnce(&mut Outbound, &ConnShared),
    ) -> io::Result<()> {
        let mut completed = Vec::new();
        let mut close_as = None;
        let result = {
            let mut out = conn.out.lock();
            if out.closed {
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection closed",
                ))
            } else {
                if out.is_empty() {
                    // Buffer going non-empty starts the stall window.
                    conn.last_write_ms.store(self.now_ms(), Ordering::Relaxed);
                }
                push(&mut out, conn);
                if out.pending_bytes() > conn.opts.max_outbound {
                    out.closed = true;
                    close_as = Some(CloseReason::Backpressure);
                    Err(io::Error::other("outbound buffer bound exceeded"))
                } else {
                    let before = out.pending_bytes();
                    match out.flush(&conn.stream, &mut completed, &conn.stats) {
                        Ok(drained) => {
                            if out.pending_bytes() != before {
                                conn.last_write_ms.store(self.now_ms(), Ordering::Relaxed);
                            }
                            self.update_interest(conn, &mut out, !drained);
                            Ok(())
                        }
                        Err(e) => {
                            out.closed = true;
                            close_as = Some(CloseReason::Error);
                            Err(e)
                        }
                    }
                }
            }
            // Lock dropped here, before any callback: `on_sent` handlers
            // may send again on this very connection.
        };
        for t in completed {
            self.app.on_sent(conn.token, t);
        }
        if let Some(reason) = close_as {
            self.close_conn(conn, reason);
        }
        result
    }

    /// Arms/disarms `EPOLLOUT` to match outbound occupancy. Caller holds
    /// the `out` lock, which serializes every `epoll_ctl` MOD for this
    /// connection.
    fn update_interest(&self, conn: &ConnShared, out: &mut Outbound, want_out: bool) {
        if out.epollout == want_out {
            return;
        }
        out.epollout = want_out;
        let mask = if want_out {
            sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT
        } else {
            sys::EPOLLIN | sys::EPOLLRDHUP
        };
        let _ = sys::epoll_mod(
            self.workers[conn.worker].epfd,
            conn.stream.as_raw_fd(),
            conn.token,
            mask,
        );
    }

    fn close_conn(&self, conn: &Arc<ConnShared>, reason: CloseReason) {
        if conn.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut out = conn.out.lock();
            out.closed = true;
            // Drop queued regions now: each holds an `Arc<File>` that
            // would otherwise pin a (possibly compacted-away) segment
            // file open for as long as the ConnShared lingers.
            out.q.clear();
        }
        sys::epoll_del(self.workers[conn.worker].epfd, conn.stream.as_raw_fd());
        {
            let mut conns = self.conns.lock();
            conns.remove(&conn.token);
            self.dead_stats.lock().fold(&conn.stats);
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if !self.is_shutdown() {
            self.app.on_close(conn.token, reason);
        }
    }

    /// Drains readable bytes through the frame decoder and dispatches
    /// decoded messages. Returns true if any message reached the app.
    fn conn_readable(&self, conn: &Arc<ConnShared>, scratch: &mut [u8]) -> bool {
        let mut msgs: Vec<Msg> = Vec::new();
        let mut delivered = false;
        for _ in 0..READ_BURST {
            if conn.closing.load(Ordering::Relaxed) {
                return delivered;
            }
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    // Dispatch what decoded before the close.
                    delivered |= self.dispatch(conn, &mut msgs);
                    self.close_conn(conn, CloseReason::Eof);
                    return delivered;
                }
                Ok(n) => {
                    conn.last_read_ms.store(self.now_ms(), Ordering::Relaxed);
                    conn.stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                    let fed = conn.dec.lock().feed(&scratch[..n], &mut msgs);
                    delivered |= self.dispatch(conn, &mut msgs);
                    if fed.is_err() {
                        self.close_conn(conn, CloseReason::Protocol);
                        return delivered;
                    }
                    if n < scratch.len() {
                        // Socket likely drained; let epoll re-report if not.
                        return delivered;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return delivered,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(conn, CloseReason::Error);
                    return delivered;
                }
            }
        }
        delivered
    }

    /// Hands decoded messages to the app, answering transport pings
    /// in-place. Returns true if any message reached the app.
    fn dispatch(&self, conn: &Arc<ConnShared>, msgs: &mut Vec<Msg>) -> bool {
        let mut delivered = false;
        for msg in msgs.drain(..) {
            conn.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
            match msg {
                Msg::Ping { nonce } => {
                    let _ = self.send_on(conn, &Msg::Pong { nonce }, None);
                }
                Msg::Pong { .. } => {}
                other => {
                    self.app.on_msg(conn.token, other);
                    delivered = true;
                }
            }
        }
        delivered
    }

    /// Flushes outbound on `EPOLLOUT`.
    fn conn_writable(&self, conn: &Arc<ConnShared>) {
        let mut completed = Vec::new();
        let mut failed = false;
        {
            let mut out = conn.out.lock();
            if out.closed {
                return;
            }
            let before = out.pending_bytes();
            match out.flush(&conn.stream, &mut completed, &conn.stats) {
                Ok(drained) => {
                    if out.pending_bytes() != before {
                        conn.last_write_ms.store(self.now_ms(), Ordering::Relaxed);
                    }
                    self.update_interest(conn, &mut out, !drained)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    out.closed = true;
                    failed = true;
                }
            }
        }
        for t in completed {
            self.app.on_sent(conn.token, t);
        }
        if failed {
            self.close_conn(conn, CloseReason::Error);
        }
    }

    fn accept_ready(self: &Arc<Self>, token: u64) {
        loop {
            let accepted = {
                let listeners = self.listeners.lock();
                let Some(entry) = listeners.get(&token) else {
                    return;
                };
                match entry.listener.accept() {
                    Ok((stream, _)) => Some((stream, entry.ctx, entry.opts)),
                    Err(_) => None,
                }
            };
            let Some((stream, ctx, opts)) = accepted else {
                return;
            };
            let handle = ReactorHandle {
                inner: Arc::clone(self),
            };
            // prepare → on_accept → arm: the application's bookkeeping for
            // this token is complete before any worker can deliver its
            // first message (arming first would let a racing worker hand
            // `on_msg` a connection the app has never heard of).
            if let Ok(conn) = handle.prepare(stream, opts) {
                self.app.on_accept(conn, ctx);
                handle.arm(conn);
            }
        }
    }

    /// Worker 0: reap idle connections, fail stalled writers, emit
    /// keepalive pings.
    fn sweep(&self) {
        let now_ms = self.now_ms();
        let conns: Vec<Arc<ConnShared>> = self.conns.lock().values().cloned().collect();
        for conn in conns {
            let last_read = conn.last_read_ms.load(Ordering::Relaxed);
            if let Some(idle) = conn.opts.idle_timeout {
                if now_ms.saturating_sub(last_read) >= idle.as_millis() as u64 {
                    self.close_conn(&conn, CloseReason::IdleTimeout);
                    continue;
                }
            }
            if let Some(stall) = conn.opts.write_stall_timeout {
                // Pending bytes with zero progress: the peer is dead or
                // wedged mid-transfer. Closing produces SendFailed /
                // conn-down for everything in flight, so sessions fail
                // over in seconds instead of waiting out deadlines.
                //
                // Occupancy and the stall anchor are read as a pair under
                // the out lock: `send_on` stamps `last_write_ms` at the
                // empty→non-empty transition under the same lock, so the
                // sweep can never pair a just-enqueued frame with a stale
                // pre-enqueue stamp — a connection that sat write-idle
                // longer than the stall bound must not be closed on the
                // first sweep after a new frame lands, before the peer
                // had any chance to drain it.
                let (pending, last_write) = {
                    let out = conn.out.lock();
                    (!out.is_empty(), conn.last_write_ms.load(Ordering::Relaxed))
                };
                if pending && now_ms.saturating_sub(last_write) >= stall.as_millis() as u64 {
                    self.close_conn(&conn, CloseReason::Backpressure);
                    continue;
                }
            }
            if let Some(ka) = conn.opts.keepalive {
                // Ping when *write*-idle: what the remote reaper tracks is
                // inbound silence, so a connection busy receiving (but
                // sending nothing) still needs pings to stay alive there.
                let ka_ms = ka.as_millis() as u64;
                let last_write = conn.last_write_ms.load(Ordering::Relaxed);
                let last_ping = conn.last_ping_ms.load(Ordering::Relaxed);
                if now_ms.saturating_sub(last_write) >= ka_ms
                    && now_ms.saturating_sub(last_ping) >= ka_ms
                {
                    let nonce = self.next_ping.fetch_add(1, Ordering::Relaxed);
                    // Stamp only on a successful enqueue: counting a
                    // failed send as "pinged" would silently skip a full
                    // keepalive period before the next attempt.
                    if self.send_on(&conn, &Msg::Ping { nonce }, None).is_ok() {
                        conn.last_ping_ms.store(now_ms, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Fires the app's protocol timer if due.
    fn tick(&self) {
        let now = self.clock.now();
        if self.app.next_deadline().is_some_and(|t| t <= now) {
            self.app.on_tick(now);
        }
    }

    /// Worker 0's sleep: bounded by the app deadline and the next sweep.
    fn worker0_timeout_ms(&self, next_sweep: Instant) -> i32 {
        let mut ms = MAX_SLEEP_MS;
        if let Some(dl) = self.app.next_deadline() {
            let pnow = self.clock.now();
            let delta = if dl <= pnow {
                0
            } else {
                ((dl.as_nanos() - pnow.as_nanos()) / 1_000_000) as i64
            };
            ms = ms.min(delta);
        }
        let sweep_ms = next_sweep
            .saturating_duration_since(Instant::now())
            .as_millis() as i64;
        ms = ms.min(sweep_ms);
        ms.clamp(1, MAX_SLEEP_MS) as i32
    }
}

fn worker_loop(inner: &Arc<Inner>, idx: usize) {
    let io = &inner.workers[idx];
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 128];
    let mut scratch = vec![0u8; 64 << 10];
    let mut next_sweep = Instant::now() + SWEEP_EVERY;
    while !inner.is_shutdown() {
        let timeout = if idx == 0 {
            inner.worker0_timeout_ms(next_sweep)
        } else {
            MAX_SLEEP_MS as i32
        };
        let n = match sys::wait(io.epfd, &mut events, timeout) {
            Ok(n) => n,
            Err(e) => {
                // A real epoll failure (not EINTR). During shutdown the
                // epfd may be closed under us — exit quietly; otherwise
                // fail-stop the whole process: timers, sweeps and
                // keepalives run exclusively on worker 0, so a silently
                // dead worker would leave a half-alive server whose
                // clients hang instead of failing over (and the old
                // swallow-everything behavior was a 100% CPU spin).
                if inner.is_shutdown() {
                    return;
                }
                eprintln!("stdchk reactor worker {idx}: fatal: epoll_wait failed: {e}");
                std::process::abort();
            }
        };
        if inner.is_shutdown() {
            return;
        }
        let mut delivered = false;
        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            if token == WAKE_TOKEN {
                sys::eventfd_drain(io.wakefd);
                continue;
            }
            if token & LISTENER_BIT != 0 {
                inner.accept_ready(token);
                continue;
            }
            let Some(conn) = inner.conns.lock().get(&token).cloned() else {
                continue;
            };
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                delivered |= inner.conn_readable(&conn, &mut scratch);
            }
            if bits & sys::EPOLLOUT != 0 && !conn.closing.load(Ordering::Relaxed) {
                inner.conn_writable(&conn);
            }
        }
        if idx == 0 {
            inner.timer_dirty.store(false, Ordering::Relaxed);
            inner.tick();
            if Instant::now() >= next_sweep {
                inner.sweep();
                next_sweep = Instant::now() + SWEEP_EVERY;
            }
        } else if delivered && !inner.timer_dirty.swap(true, Ordering::Relaxed) {
            // Input may have re-armed an earlier protocol deadline: make
            // worker 0 recompute its sleep.
            sys::eventfd_wake(inner.workers[0].wakefd);
        }
    }
}

fn blocking_loop(handle: ReactorHandle) {
    let inner = Arc::clone(&handle.inner);
    loop {
        let job = {
            let mut q = inner.jobs.lock();
            loop {
                if inner.is_shutdown() {
                    return;
                }
                let now = Instant::now();
                let due_idx = q
                    .iter()
                    .enumerate()
                    .filter(|(_, (due, _, _))| *due <= now)
                    .min_by_key(|(_, (due, seq, _))| (*due, *seq))
                    .map(|(i, _)| i);
                if let Some(i) = due_idx {
                    break q.swap_remove(i).2;
                }
                let wait = q
                    .iter()
                    .map(|(due, _, _)| due.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(500))
                    .max(Duration::from_millis(1));
                inner.job_cv.wait_for(&mut q, wait);
            }
        };
        job(&handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::io::Write;
    use stdchk_proto::ids::RequestId;

    /// Echoes every message back on the same connection and records
    /// lifecycle events.
    #[derive(Default)]
    struct EchoApp {
        handle: Mutex<Option<ReactorHandle>>,
        accepted: AtomicU64,
        closed: Mutex<Vec<(ConnToken, CloseReason)>>,
        sent: Mutex<Vec<u64>>,
    }

    impl ReactorApp for EchoApp {
        fn on_accept(&self, _conn: ConnToken, _listener: u64) {
            self.accepted.fetch_add(1, Ordering::Relaxed);
        }
        fn on_msg(&self, conn: ConnToken, msg: Msg) {
            let h = self.handle.lock().clone().unwrap();
            let _ = h.send_tracked(conn, &msg, msg.request_id().map(|r| r.0).unwrap_or(0));
        }
        fn on_close(&self, conn: ConnToken, reason: CloseReason) {
            self.closed.lock().push((conn, reason));
        }
        fn on_sent(&self, _conn: ConnToken, token: u64) {
            self.sent.lock().push(token);
        }
    }

    fn spawn_echo(opts: ConnOpts) -> (Reactor, Arc<EchoApp>, std::net::SocketAddr) {
        let app = Arc::new(EchoApp::default());
        let reactor = Reactor::new(
            Clock::new(),
            Arc::<EchoApp>::clone(&app) as Arc<dyn ReactorApp>,
            ReactorConfig { workers: 2 },
        )
        .unwrap();
        *app.handle.lock() = Some(reactor.handle().clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.handle().add_listener(listener, 7, opts).unwrap();
        (reactor, app, addr)
    }

    #[test]
    fn echo_roundtrip_over_reactor() {
        let (reactor, app, addr) = spawn_echo(ConnOpts::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for i in 1..=20u64 {
            stdchk_proto::frame::write_frame(&mut stream, &Msg::Ack { req: RequestId(i) }).unwrap();
        }
        for i in 1..=20u64 {
            let got = stdchk_proto::frame::read_frame(&mut stream)
                .unwrap()
                .unwrap();
            assert_eq!(got, Msg::Ack { req: RequestId(i) });
        }
        assert_eq!(app.accepted.load(Ordering::Relaxed), 1);
        // `on_sent` fires on the writing thread; the reply can reach us
        // before the callback lands, so poll briefly.
        let deadline = Instant::now() + Duration::from_secs(2);
        while app.sent.lock().len() < 20 {
            assert!(
                Instant::now() < deadline,
                "tracked frames must complete: {:?}",
                *app.sent.lock()
            );
            thread::sleep(Duration::from_millis(5));
        }
        reactor.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let (reactor, app, addr) =
            spawn_echo(ConnOpts::server_default(Some(Duration::from_millis(300))));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Send nothing: the reactor must reap us (we observe EOF).
        let mut buf = [0u8; 8];
        let start = Instant::now();
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server should close the idle connection");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "reap took {:?}",
            start.elapsed()
        );
        // Reason must be the idle timeout.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if app
                .closed
                .lock()
                .iter()
                .any(|(_, r)| *r == CloseReason::IdleTimeout)
            {
                break;
            }
            assert!(Instant::now() < deadline, "no IdleTimeout close recorded");
            thread::sleep(Duration::from_millis(10));
        }
        reactor.shutdown();
    }

    #[test]
    fn keepalive_ping_keeps_active_peer_alive_and_pong_is_swallowed() {
        // Server reaps at 400ms; a keepalive client conn dialed *into* the
        // server must survive well past that by answering pings.
        let (reactor, app, addr) =
            spawn_echo(ConnOpts::server_default(Some(Duration::from_millis(400))));
        // Dial-side: register the client end on the same reactor with an
        // aggressive keepalive.
        let stream = TcpStream::connect(addr).unwrap();
        let opts = ConnOpts {
            keepalive: Some(Duration::from_millis(100)),
            ..ConnOpts::default()
        };
        let tok = reactor.handle().register(stream, opts).unwrap();
        thread::sleep(Duration::from_millis(1200));
        // Neither end closed: pings refreshed the server's idle clock,
        // and the pongs never surfaced as application messages.
        assert!(
            app.closed.lock().is_empty(),
            "keepalive should have kept the conn alive: {:?}",
            *app.closed.lock()
        );
        assert!(reactor.handle().conn_count() >= 2);
        let _ = tok;
        reactor.shutdown();
    }

    #[test]
    fn oversize_frame_closes_connection() {
        let (reactor, app, addr) = spawn_echo(ConnOpts {
            max_frame: 1024,
            ..ConnOpts::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&(2048u32).to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        let mut buf = [0u8; 8];
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "protocol violation must close the connection");
        let deadline = Instant::now() + Duration::from_secs(2);
        while app.closed.lock().is_empty() {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(app.closed.lock()[0].1, CloseReason::Protocol);
        reactor.shutdown();
    }

    #[test]
    fn blocking_lane_runs_jobs_in_due_order() {
        let app = Arc::new(EchoApp::default());
        let reactor = Reactor::new(
            Clock::new(),
            Arc::<EchoApp>::clone(&app) as Arc<dyn ReactorApp>,
            ReactorConfig { workers: 1 },
        )
        .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2, o3) = (Arc::clone(&order), Arc::clone(&order), Arc::clone(&order));
        reactor
            .handle()
            .spawn_blocking_after(Duration::from_millis(120), move |_| o1.lock().push(3));
        reactor
            .handle()
            .spawn_blocking_after(Duration::from_millis(40), move |_| o2.lock().push(2));
        reactor.handle().spawn_blocking(move |_| o3.lock().push(1));
        let deadline = Instant::now() + Duration::from_secs(3);
        while order.lock().len() < 3 {
            assert!(
                Instant::now() < deadline,
                "jobs never ran: {:?}",
                *order.lock()
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(*order.lock(), vec![1, 2, 3]);
        reactor.shutdown();
    }

    #[test]
    fn stalled_writer_is_closed_by_time_bound() {
        // Byte bound set far out of reach: only the time-domain stall
        // detector can fire. The peer reads nothing, so once the kernel
        // buffers fill, write progress stops and the conn must close.
        let (reactor, app, addr) = spawn_echo(ConnOpts {
            max_outbound: 1 << 30,
            write_stall_timeout: Some(Duration::from_millis(300)),
            ..ConnOpts::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let big = Msg::PutChunk {
            req: RequestId(1),
            chunk: stdchk_proto::ids::ChunkId::for_content(b"y"),
            size: 256 << 10,
            data: bytes::Bytes::from(vec![3u8; 256 << 10]),
            background: false,
        };
        // Feed the echo server until our own (blocking, non-reading) send
        // path jams or the server gives up on us.
        let start = Instant::now();
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        while app.closed.lock().is_empty() {
            let _ = stdchk_proto::frame::write_frame(&mut stream, &big);
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "stalled writer never reaped"
            );
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(app.closed.lock()[0].1, CloseReason::Backpressure);
        reactor.shutdown();
    }

    #[test]
    fn epoll_wait_surfaces_real_errors_and_swallows_nothing_else() {
        // A closed epfd is exactly the close-race shape: the old code
        // returned 0 events for *any* negative return, so a worker whose
        // epfd died would spin at 100% CPU forever instead of failing.
        let epfd = sys::epoll_create().unwrap();
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 4];
        // Healthy fd with no events: times out with zero events, no error.
        assert_eq!(sys::wait(epfd, &mut events, 10).unwrap(), 0);
        sys::close_fd(epfd);
        let err = sys::wait(epfd, &mut events, 10).expect_err("EBADF must surface");
        assert_eq!(err.raw_os_error(), Some(9 /* EBADF */), "{err}");
    }

    #[test]
    fn write_idle_connection_is_not_stall_closed_on_fresh_enqueue() {
        // Regression: the stall clock must anchor at the empty→non-empty
        // transition. A connection that was write-idle far longer than
        // `write_stall_timeout` and then gets a frame enqueued must NOT
        // be closed on the next sweep — only zero progress *since the
        // enqueue* may trip the detector.
        let (reactor, app, addr) = spawn_echo(ConnOpts {
            write_stall_timeout: Some(Duration::from_millis(300)),
            ..ConnOpts::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // One small roundtrip establishes write progress, then the server
        // side sits write-idle well past the stall bound.
        stdchk_proto::frame::write_frame(&mut stream, &Msg::Ack { req: RequestId(1) }).unwrap();
        let _ = stdchk_proto::frame::read_frame(&mut stream)
            .unwrap()
            .unwrap();
        thread::sleep(Duration::from_millis(800));
        // Ask for a payload big enough (past any loopback socket
        // buffering) that the server's outbound buffer is non-empty
        // across several sweeps while we drain it slowly-but-steadily.
        const BODY: usize = 4 << 20;
        let big = Msg::PutChunk {
            req: RequestId(2),
            chunk: stdchk_proto::ids::ChunkId::for_content(b"anchor"),
            size: BODY as u32,
            data: bytes::Bytes::from(vec![9u8; BODY]),
            background: false,
        };
        stdchk_proto::frame::write_frame(&mut stream, &big).unwrap();
        // Drain the echo in slow slices: progress continues, so even
        // though the buffer stays non-empty across sweeps no close may
        // fire.
        let mut got = 0usize;
        let mut buf = vec![0u8; 64 << 10];
        let deadline = Instant::now() + Duration::from_secs(20);
        while got < BODY {
            assert!(Instant::now() < deadline, "echo stalled at {got}");
            let n = stream.read(&mut buf).expect("echoed bytes");
            assert!(
                n > 0,
                "connection closed after {got} bytes — spurious stall close: {:?}",
                *app.closed.lock()
            );
            got += n;
            thread::sleep(Duration::from_millis(5));
        }
        assert!(
            app.closed.lock().is_empty(),
            "write-idle + fresh enqueue must not be stall-closed: {:?}",
            *app.closed.lock()
        );
        reactor.shutdown();
    }

    #[test]
    fn slow_peer_hits_backpressure_bound() {
        let (reactor, app, addr) = spawn_echo(ConnOpts {
            max_outbound: 64 << 10,
            ..ConnOpts::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        // Ask the echo server to send us lots of data while we never read:
        // its outbound buffer must hit the bound and the conn must close.
        let big = Msg::PutChunk {
            req: RequestId(1),
            chunk: stdchk_proto::ids::ChunkId::for_content(b"x"),
            size: 32 << 10,
            data: bytes::Bytes::from(vec![7u8; 32 << 10]),
            background: false,
        };
        let mut closed = false;
        for _ in 0..200 {
            if stdchk_proto::frame::write_frame(&mut stream, &big).is_err() {
                closed = true;
                break;
            }
            thread::sleep(Duration::from_millis(2));
            if !app.closed.lock().is_empty() {
                closed = true;
                break;
            }
        }
        assert!(closed, "echoing into a non-reading peer must disconnect it");
        let deadline = Instant::now() + Duration::from_secs(2);
        while app.closed.lock().is_empty() {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(app.closed.lock()[0].1, CloseReason::Backpressure);
        reactor.shutdown();
    }
}
