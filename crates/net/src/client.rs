//! The stdchk client: a blocking API over the session state machines.
//!
//! [`Grid`] is the entry point — connect to a manager, then:
//!
//! - [`Grid::create`] opens a [`WriteHandle`] implementing
//!   [`std::io::Write`]; `finish()` performs the session-semantics commit
//!   (data is invisible until then).
//! - [`Grid::open`] returns a [`ReadHandle`] implementing
//!   [`std::io::Read`], with read-ahead and replica failover.
//! - Metadata operations: [`Grid::stat`], [`Grid::list`],
//!   [`Grid::versions`], [`Grid::delete`], [`Grid::set_policy`].
//!
//! Both handle kinds drive their sans-IO sessions through the unified
//! [`Node`] API: one generic pump (`pump_session`) drains
//! `poll_action()`, executes sends and stage I/O against a spill file,
//! and feeds [`Completion`]s back. The write path and the read path
//! differ only in which session type sits behind the pump.
//!
//! Every socket of every [`Grid`] lives on a shared [`GridRuntime`] — a
//! small epoll [`Reactor`] (no reader threads; thread count is
//! independent of how many grids and connections exist). Sends enqueue
//! onto bounded per-connection buffers; `SendDone` completions arrive
//! when the frame's last byte leaves the socket; benefactor connections
//! are dialed lazily on the runtime's blocking lane with sends queued
//! while the dial is in flight. Many `Grid`s can share one runtime
//! ([`Grid::connect_on`]) — that is what lets hundreds of concurrent
//! client sessions run from a handful of threads.
//!
//! All dials use connect timeouts and streams carry write timeouts
//! ([`crate::conn::dial`]); the connect handshake additionally bounds its
//! read, so a dead manager or benefactor fails fast instead of hanging a
//! client thread.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam::channel;
use stdchk_util::ordlock::{Condvar, OrderedMutex};

use crate::ranks;

use stdchk_chunker::delta::ChunkSignature;
use stdchk_core::node::{Action, Completion, Node};
use stdchk_core::payload::{ChunkBuffers, Payload};
use stdchk_core::session::read::{ReadSession, ReadState};
use stdchk_core::session::write::{
    OpenGrant, SessionConfig, SessionState, WriteSession, WriteStats,
};
use stdchk_core::MANAGER_NODE;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId, VersionId};
use stdchk_proto::msg::{DirEntry, FileAttr, Msg, Role, VersionInfo};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_proto::ErrorCode;

use crate::conn::{dial, read_frame_timeout, Clock, Link, DIAL_TIMEOUT};
use crate::driver::ACTION_BATCH;
use crate::reactor::{
    CloseReason, ConnOpts, ConnToken, Reactor, ReactorApp, ReactorConfig, ReactorHandle,
};

/// Client-side errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum GridError {
    /// Socket or file I/O failure.
    Io(io::Error),
    /// The remote side reported a semantic error.
    Remote {
        /// Status code.
        code: ErrorCode,
        /// Context from the remote.
        detail: String,
    },
    /// No reply within the client timeout.
    Timeout,
    /// The write session failed mid-flight.
    SessionFailed(ErrorCode),
    /// Unexpected protocol behaviour.
    Protocol(String),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "i/o failure: {e}"),
            GridError::Remote { code, detail } => write!(f, "remote error: {code}: {detail}"),
            GridError::Timeout => write!(f, "request timed out"),
            GridError::SessionFailed(code) => write!(f, "write session failed: {code}"),
            GridError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<io::Error> for GridError {
    fn from(e: io::Error) -> Self {
        GridError::Io(e)
    }
}

/// Shared state of one client-side session (write or read): the sans-IO
/// machine, a wait condition for blocking callers, and the stage spill file
/// (used by staged write protocols; inert for reads).
struct SessionShared<N> {
    session: OrderedMutex<N>,
    cv: Condvar,
    stage: OrderedMutex<Option<std::fs::File>>,
    stage_path: PathBuf,
}

impl<N> SessionShared<N> {
    fn new(session: N, stage_path: PathBuf) -> Arc<SessionShared<N>> {
        Arc::new(SessionShared {
            session: OrderedMutex::new(ranks::CLIENT_SESSION, "client.session", session),
            cv: Condvar::new(),
            stage: OrderedMutex::new(ranks::CLIENT_STAGE, "client.stage", None),
            stage_path,
        })
    }
}

/// Type-erased handle so one reply router serves every session kind.
trait SessionSlot: Send + Sync {
    /// Feeds a correlated reply into the session and pumps its actions.
    fn deliver(self: Arc<Self>, grid: &Grid, msg: Msg);

    /// Reports a transport failure for an outstanding request (the
    /// connection it was sent on died), letting the session fail over.
    fn fail(self: Arc<Self>, grid: &Grid, req: RequestId);

    /// Reports that the frame carrying `req` fully left this host (ends
    /// the OAB transmit window).
    fn sent(self: Arc<Self>, grid: &Grid, req: RequestId);
}

impl<N: Node + Send + 'static> SessionSlot for SessionShared<N> {
    fn deliver(self: Arc<Self>, grid: &Grid, msg: Msg) {
        {
            let mut s = self.session.lock();
            s.handle(MANAGER_NODE, msg, grid.inner.clock.now());
            self.cv.notify_all();
        }
        pump_session(grid, &self);
    }

    fn fail(self: Arc<Self>, grid: &Grid, req: RequestId) {
        {
            let mut s = self.session.lock();
            s.handle_completion(Completion::SendFailed { req }, grid.inner.clock.now());
            self.cv.notify_all();
        }
        pump_session(grid, &self);
    }

    fn sent(self: Arc<Self>, grid: &Grid, req: RequestId) {
        {
            let mut s = self.session.lock();
            s.handle_completion(Completion::SendDone { req }, grid.inner.clock.now());
            self.cv.notify_all();
        }
        pump_session(grid, &self);
    }
}

/// Where a correlated reply should be delivered.
enum Route {
    Rpc(channel::Sender<Msg>),
    Session {
        slot: Arc<dyn SessionSlot>,
        /// Destination the request was sent to — when that connection
        /// dies, the request is failed over instead of stalling.
        to: NodeId,
    },
}

/// What a runtime connection belongs to.
#[derive(Clone, Copy, Debug)]
enum ConnKind {
    /// The grid's manager connection.
    Mgr,
    /// A benefactor data connection.
    Benef(NodeId),
}

/// A benefactor connection slot: established, or being dialed on the
/// runtime's blocking lane with sends queued behind the dial.
enum BenefEntry {
    Up(Link),
    Dialing(Vec<Msg>),
}

/// The shared client-side reactor: one worker pool + blocking dial lane
/// serving every [`Grid`] connected through it. This is what keeps client
/// thread count independent of grid/connection/session count — create one
/// runtime and [`Grid::connect_on`] as many grids as you like.
pub struct GridRuntime {
    reactor: Reactor,
    app: Arc<GridApp>,
}

impl fmt::Debug for GridRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridRuntime").finish_non_exhaustive()
    }
}

impl GridRuntime {
    /// A runtime with one event worker (plenty for a client; sessions are
    /// pumped by their own calling threads).
    ///
    /// # Errors
    ///
    /// Fails if the reactor descriptors cannot be created.
    pub fn new() -> io::Result<Arc<GridRuntime>> {
        GridRuntime::with_workers(1)
    }

    /// A runtime with `workers` event workers.
    ///
    /// # Errors
    ///
    /// As [`GridRuntime::new`].
    pub fn with_workers(workers: usize) -> io::Result<Arc<GridRuntime>> {
        let app = Arc::new(GridApp {
            conns: OrderedMutex::new(ranks::CLIENT_APP_CONNS, "client.app.conns", HashMap::new()),
        });
        let reactor = Reactor::new(
            Clock::new(),
            Arc::clone(&app) as Arc<dyn ReactorApp>,
            ReactorConfig { workers },
        )?;
        Ok(Arc::new(GridRuntime { reactor, app }))
    }

    fn handle(&self) -> &ReactorHandle {
        self.reactor.handle()
    }

    /// Live connections across every grid on this runtime (tests assert
    /// connections ≫ threads).
    pub fn connection_count(&self) -> usize {
        self.handle().conn_count()
    }

    /// Registers a connected stream for `inner`, routing its inbound
    /// messages and closures back to that grid. The routing entry is in
    /// place before the socket is armed, so no event can race it.
    fn register(
        &self,
        inner: &Weak<GridInner>,
        kind: ConnKind,
        stream: std::net::TcpStream,
    ) -> io::Result<ConnToken> {
        let token = self.handle().prepare(stream, ConnOpts::dial_default())?;
        self.app
            .conns
            .lock()
            .insert(token, (Weak::clone(inner), kind));
        self.handle().arm(token);
        Ok(token)
    }
}

/// The client runtime's [`ReactorApp`]: routes per-connection events to
/// the owning grid. Holds only `Weak` grid references — dropping every
/// `Grid` clone tears the grid down even while the runtime lives on.
struct GridApp {
    conns: OrderedMutex<HashMap<ConnToken, (Weak<GridInner>, ConnKind)>>,
}

impl GridApp {
    fn lookup(&self, conn: ConnToken) -> Option<(Grid, ConnKind)> {
        let (weak, kind) = {
            let conns = self.conns.lock();
            let (w, k) = conns.get(&conn)?;
            (Weak::clone(w), *k)
        };
        Some((
            Grid {
                inner: weak.upgrade()?,
            },
            kind,
        ))
    }
}

impl ReactorApp for GridApp {
    fn on_msg(&self, conn: ConnToken, msg: Msg) {
        if let Some((grid, _)) = self.lookup(conn) {
            deliver_reply(&grid, msg);
        }
    }

    fn on_close(&self, conn: ConnToken, _reason: CloseReason) {
        let Some((weak, kind)) = self.conns.lock().remove(&conn) else {
            return;
        };
        let Some(inner) = weak.upgrade() else { return };
        let grid = Grid { inner };
        match kind {
            ConnKind::Benef(node) => on_benefactor_conn_down(&grid, node),
            ConnKind::Mgr => on_manager_conn_down(&grid),
        }
    }

    fn on_sent(&self, conn: ConnToken, token: u64) {
        if let Some((grid, _)) = self.lookup(conn) {
            on_frame_sent(&grid, RequestId(token));
        }
    }
}

struct GridInner {
    /// The shared epoll runtime every socket of this grid lives on.
    rt: Arc<GridRuntime>,
    clock: Clock,
    mgr: Link,
    my_node: NodeId,
    next_req: AtomicU64,
    next_sid: AtomicU64,
    routes: OrderedMutex<HashMap<RequestId, Route>>,
    benefs: OrderedMutex<HashMap<NodeId, BenefEntry>>,
    addr_cache: OrderedMutex<HashMap<NodeId, String>>,
    timeout: Duration,
    stage_dir: PathBuf,
    /// Per-path delta bases harvested from finished write sessions — the
    /// chunk signatures and placements feeding the *next* version of the
    /// same file. Purely an optimization cache: a stale or missing entry
    /// only means a chunk ships in full instead of as a delta.
    signatures: OrderedMutex<SignatureCache>,
    /// Buffers every write session of this grid copies its caller's
    /// bytes into; a copy hands its buffer back when it is dropped.
    chunk_buffers: Arc<ChunkBuffers>,
}

impl Drop for GridInner {
    fn drop(&mut self) {
        // Deregister this grid's connections from the shared runtime.
        self.mgr.shutdown();
        // Collect under the lock, shut down after releasing it: a close
        // runs `GridApp::on_close` inline on this thread, which re-enters
        // the grid's route/link locks (the route-lock deadlock shape — only
        // the mid-drop failing weak upgrade masked it here).
        let links: Vec<Link> = self
            .benefs
            .lock()
            .drain()
            .filter_map(|(_, entry)| match entry {
                BenefEntry::Up(link) => Some(link),
                BenefEntry::Dialing(_) => None,
            })
            .collect();
        for link in links {
            link.shutdown();
        }
    }
}

/// Bytes of delta bases one [`Grid`] keeps over all paths, about the
/// bases of a 1.3 GiB image at the default 1 MiB chunk size. Past it the
/// least recently written paths go first.
const SIGNATURE_CACHE_BYTES: usize = 16 << 20;

/// Idle copy buffers one [`Grid`] keeps for its write sessions: one
/// default sliding window (`SessionConfig::default`), so a version
/// written through that window copies into the buffers the previous
/// version handed back.
const CHUNK_BUFFER_BYTES: u64 = 64 << 20;

/// Delta bases one path's last write left behind: per-chunk signatures
/// (what to diff against) and placements (where a delta can be applied).
#[derive(Default)]
struct PathBases {
    sigs: HashMap<ChunkId, ChunkSignature>,
    homes: HashMap<ChunkId, Vec<NodeId>>,
}

impl PathBases {
    /// Folds in what a committed session shipped, then keeps only the
    /// chunks of the version it committed (`committed`). The next write
    /// of the path only diffs a chunk against the previous version's
    /// chunk at the same index, so older bases are dead weight. A chunk
    /// the session reused keeps the basis harvested when it was shipped.
    fn merge(
        &mut self,
        sigs: HashMap<ChunkId, ChunkSignature>,
        homes: HashMap<ChunkId, Vec<NodeId>>,
        committed: &HashSet<ChunkId>,
    ) {
        self.sigs.extend(sigs);
        self.homes.extend(homes);
        self.sigs.retain(|id, _| committed.contains(id));
        self.homes.retain(|id, _| committed.contains(id));
    }

    /// Bytes these bases hold, map entries included.
    fn bytes(&self) -> usize {
        let sigs: usize = self.sigs.values().map(sig_bytes).sum();
        let homes: usize = self.homes.values().map(home_bytes).sum();
        sigs + homes
    }

    /// Drops chunks' bases, in no particular order, until the rest hold
    /// at most `budget` bytes.
    fn trim_to(&mut self, budget: usize) {
        let mut bytes = self.bytes();
        if bytes <= budget {
            return;
        }
        let ids: Vec<ChunkId> = self.sigs.keys().chain(self.homes.keys()).copied().collect();
        for id in ids {
            if bytes <= budget {
                break;
            }
            bytes -= self.sigs.remove(&id).as_ref().map_or(0, sig_bytes);
            bytes -= self.homes.remove(&id).as_ref().map_or(0, home_bytes);
        }
    }
}

/// Bytes one chunk's cached signature holds, its map entry included.
fn sig_bytes(sig: &ChunkSignature) -> usize {
    std::mem::size_of::<(ChunkId, ChunkSignature)>() + sig.heap_bytes()
}

/// Bytes one chunk's cached placement holds, its map entry included.
fn home_bytes(home: &Vec<NodeId>) -> usize {
    std::mem::size_of::<(ChunkId, Vec<NodeId>)>() + home.capacity() * std::mem::size_of::<NodeId>()
}

/// Every path's [`PathBases`], bounded to a byte budget. Past it the
/// least recently written path goes first; a path written alone past it
/// keeps as many of its chunks' bases as fit.
struct SignatureCache {
    budget: usize,
    /// Sum of `PathBases::bytes` over `paths`.
    bytes: usize,
    /// Path → (write stamp, bases, their bytes).
    paths: HashMap<String, (u64, PathBases, usize)>,
    /// Write stamp → path, oldest first.
    order: BTreeMap<u64, String>,
    next_stamp: u64,
}

impl SignatureCache {
    fn new(budget: usize) -> Self {
        SignatureCache {
            budget,
            bytes: 0,
            paths: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
        }
    }

    fn get(&self, path: &str) -> Option<&PathBases> {
        self.paths.get(path).map(|(_, bases, _)| bases)
    }

    /// Folds a committed write of `path` into its bases
    /// ([`PathBases::merge`]), makes `path` the most recently written, and
    /// evicts down to the budget.
    fn record(
        &mut self,
        path: &str,
        sigs: HashMap<ChunkId, ChunkSignature>,
        homes: HashMap<ChunkId, Vec<NodeId>>,
        committed: &HashSet<ChunkId>,
    ) {
        let mut bases = match self.paths.remove(path) {
            Some((stamp, bases, bytes)) => {
                self.order.remove(&stamp);
                self.bytes -= bytes;
                bases
            }
            None => PathBases::default(),
        };
        bases.merge(sigs, homes, committed);
        bases.trim_to(self.budget);
        let bytes = bases.bytes();
        while self.bytes + bytes > self.budget {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            if let Some((_, _, freed)) = self.paths.remove(&oldest) {
                self.bytes -= freed;
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, path.to_string());
        self.paths.insert(path.to_string(), (stamp, bases, bytes));
        self.bytes += bytes;
    }
}

/// A connection to a stdchk pool.
#[derive(Clone)]
pub struct Grid {
    inner: Arc<GridInner>,
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("node", &self.inner.my_node)
            .finish_non_exhaustive()
    }
}

/// Options for a write session.
#[derive(Clone, Debug)]
pub struct WriteOptions {
    /// Protocol, dedup, semantics.
    pub session: SessionConfig,
    /// Stripe width (0 = pool default).
    pub stripe_width: u32,
    /// Replica target (0 = pool default).
    pub replication: u32,
    /// Initial eager reservation in chunks.
    pub expected_chunks: u32,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            session: SessionConfig::default(),
            stripe_width: 0,
            replication: 0,
            expected_chunks: 16,
        }
    }
}

impl Grid {
    /// Connects to the manager at `addr`, failing fast (connect and
    /// handshake-read timeouts) when the manager is dead. Creates a
    /// private [`GridRuntime`] (use [`Grid::connect_on`] to share one
    /// across grids).
    ///
    /// # Errors
    ///
    /// Fails on dial/handshake problems; [`GridError::Timeout`] when the
    /// manager accepts but never answers the handshake.
    pub fn connect(addr: &str) -> Result<Grid, GridError> {
        Grid::connect_on(&GridRuntime::new()?, addr)
    }

    /// Connects through a shared [`GridRuntime`]: all sockets live on the
    /// runtime's reactor, so any number of grids (and their concurrent
    /// sessions) run on a fixed handful of threads.
    ///
    /// # Errors
    ///
    /// As [`Grid::connect`].
    pub fn connect_on(rt: &Arc<GridRuntime>, addr: &str) -> Result<Grid, GridError> {
        // Bootstrap handshake stays blocking (with connect + read
        // timeouts): one frame in, one frame out, before the socket moves
        // onto the reactor.
        // stdchk-allow(no-blocking-on-pump): bootstrap handshake on the caller's thread, before the socket joins the reactor
        let stream = dial(addr, DIAL_TIMEOUT)?;
        write_hello(&stream)?;
        let mut handshake = stream;
        let my_node = read_hello_reply(&mut handshake)?;
        // Prepare the socket first (unarmed: nothing can be delivered),
        // attach the routing entry once the grid exists, then arm.
        let mgr_token = rt.handle().prepare(handshake, ConnOpts::dial_default())?;
        let inner = Arc::new(GridInner {
            rt: Arc::clone(rt),
            clock: Clock::new(),
            mgr: Link {
                handle: rt.handle().downgrade(),
                token: mgr_token,
            },
            my_node,
            next_req: AtomicU64::new(1),
            next_sid: AtomicU64::new(1),
            routes: OrderedMutex::new(ranks::CLIENT_ROUTES, "client.routes", HashMap::new()),
            benefs: OrderedMutex::new(ranks::CLIENT_BENEFS, "client.benefs", HashMap::new()),
            addr_cache: OrderedMutex::new(
                ranks::CLIENT_ADDR_CACHE,
                "client.addr_cache",
                HashMap::new(),
            ),
            timeout: Duration::from_secs(10),
            stage_dir: std::env::temp_dir(),
            signatures: OrderedMutex::new(
                ranks::CLIENT_SIGNATURES,
                "client.signatures",
                SignatureCache::new(SIGNATURE_CACHE_BYTES),
            ),
            chunk_buffers: ChunkBuffers::new(CHUNK_BUFFER_BYTES),
        });
        rt.app
            .conns
            .lock()
            .insert(mgr_token, (Arc::downgrade(&inner), ConnKind::Mgr));
        rt.handle().arm(mgr_token);
        Ok(Grid { inner })
    }

    /// The node id the manager assigned this client.
    pub fn node_id(&self) -> NodeId {
        self.inner.my_node
    }

    fn req(&self) -> RequestId {
        RequestId(self.inner.next_req.fetch_add(1, Ordering::Relaxed))
    }

    /// One blocking manager RPC.
    fn rpc(&self, req: RequestId, msg: Msg) -> Result<Msg, GridError> {
        let (tx, rx) = channel::bounded(1);
        self.inner.routes.lock().insert(req, Route::Rpc(tx));
        if let Err(e) = self.inner.mgr.send(&msg) {
            self.inner.routes.lock().remove(&req);
            return Err(e.into());
        }
        match rx.recv_timeout(self.inner.timeout) {
            Ok(Msg::ErrorReply { code, detail, .. }) => Err(GridError::Remote { code, detail }),
            Ok(m) => Ok(m),
            Err(_) => {
                self.inner.routes.lock().remove(&req);
                Err(GridError::Timeout)
            }
        }
    }

    /// Stats a file or directory.
    ///
    /// # Errors
    ///
    /// [`GridError::Remote`] with [`ErrorCode::NotFound`] for absent paths.
    pub fn stat(&self, path: &str) -> Result<FileAttr, GridError> {
        let req = self.req();
        match self.rpc(
            req,
            Msg::GetAttr {
                req,
                path: path.into(),
            },
        )? {
            Msg::AttrReply { attr, .. } => Ok(attr),
            m => Err(GridError::Protocol(format!("unexpected reply {m:?}"))),
        }
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// See [`Grid::stat`].
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>, GridError> {
        let req = self.req();
        match self.rpc(
            req,
            Msg::ListDir {
                req,
                path: path.into(),
            },
        )? {
            Msg::DirListingReply { entries, .. } => Ok(entries),
            m => Err(GridError::Protocol(format!("unexpected reply {m:?}"))),
        }
    }

    /// Lists the retained versions of a file, oldest first.
    ///
    /// # Errors
    ///
    /// See [`Grid::stat`].
    pub fn versions(&self, path: &str) -> Result<Vec<VersionInfo>, GridError> {
        let req = self.req();
        match self.rpc(
            req,
            Msg::ListVersions {
                req,
                path: path.into(),
            },
        )? {
            Msg::VersionListReply { versions, .. } => Ok(versions),
            m => Err(GridError::Protocol(format!("unexpected reply {m:?}"))),
        }
    }

    /// Deletes a file (all versions).
    ///
    /// # Errors
    ///
    /// See [`Grid::stat`].
    pub fn delete(&self, path: &str) -> Result<(), GridError> {
        let req = self.req();
        self.rpc(
            req,
            Msg::DeleteFile {
                req,
                path: path.into(),
            },
        )?;
        Ok(())
    }

    /// Sets the retention policy of a directory.
    ///
    /// # Errors
    ///
    /// See [`Grid::stat`].
    pub fn set_policy(&self, dir: &str, policy: RetentionPolicy) -> Result<(), GridError> {
        let req = self.req();
        self.rpc(
            req,
            Msg::SetPolicy {
                req,
                dir: dir.into(),
                policy,
            },
        )?;
        Ok(())
    }

    /// Opens a write session on `path`.
    ///
    /// # Errors
    ///
    /// [`GridError::Remote`] with [`ErrorCode::NoSpace`] if the pool cannot
    /// host the write.
    pub fn create(&self, path: &str, opts: WriteOptions) -> Result<WriteHandle, GridError> {
        let req = self.req();
        let reply = self.rpc(
            req,
            Msg::CreateFile {
                req,
                client: self.inner.my_node,
                path: path.into(),
                stripe_width: opts.stripe_width,
                replication: opts.replication,
                expected_chunks: opts.expected_chunks,
            },
        )?;
        let Msg::CreateFileOk {
            file,
            version,
            reservation,
            stripe,
            prev_chunks,
            chunk_size,
            ..
        } = reply
        else {
            return Err(GridError::Protocol("bad CreateFile reply".into()));
        };
        let grant = OpenGrant {
            path: path.to_string(),
            file,
            version,
            reservation,
            stripe,
            prev_chunks,
            chunk_size,
            reserved_chunks: opts.expected_chunks.max(1) as u64,
        };
        let sid = self.inner.next_sid.fetch_add(1, Ordering::Relaxed);
        // Wire-level dedup rides on the session's have/want negotiation;
        // `STDCHK_DEDUP=off` forces full transfer (the A/B baseline).
        let mut session_cfg = opts.session;
        session_cfg.negotiate = crate::dedup_enabled();
        let negotiate = session_cfg.negotiate;
        let mut session = WriteSession::new(
            sid,
            self.inner.my_node,
            grant,
            session_cfg,
            self.inner.clock.now(),
        );
        session.set_chunk_buffers(Arc::clone(&self.inner.chunk_buffers));
        if negotiate {
            // Seed delta bases from what the previous write of this path
            // left behind (if anything).
            if let Some(bases) = self.inner.signatures.lock().get(path) {
                session.set_basis_signatures(bases.sigs.clone());
                session.set_basis_placements(bases.homes.clone());
            }
        }
        let stage_path = self
            .inner
            .stage_dir
            .join(format!("stdchk-stage-{}-{sid}", std::process::id()));
        Ok(WriteHandle {
            grid: self.clone(),
            shared: SessionShared::new(session, stage_path),
            path: path.to_string(),
            finished: false,
        })
    }

    /// Opens the latest committed version (or `version`) of `path` for
    /// reading.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotFound`] if nothing is committed at `path`.
    pub fn open(&self, path: &str, version: Option<VersionId>) -> Result<ReadHandle, GridError> {
        let req = self.req();
        let reply = self.rpc(
            req,
            Msg::GetFile {
                req,
                path: path.into(),
                version,
            },
        )?;
        let Msg::FileViewReply { view, .. } = reply else {
            return Err(GridError::Protocol("bad GetFile reply".into()));
        };
        let sid = self.inner.next_sid.fetch_add(1, Ordering::Relaxed);
        let session = ReadSession::new(sid, view, 4);
        let shared = SessionShared::new(session, PathBuf::new());
        let handle = ReadHandle {
            grid: self.clone(),
            shared,
            buffer: Vec::new(),
            buffer_pos: 0,
        };
        // Prime the read-ahead window (poll_action fills it lazily).
        pump_session(&handle.grid, &handle.shared);
        Ok(handle)
    }

    // -------------------------------------------------------- benefactor IO

    /// Sends to benefactor `node` without ever blocking the calling
    /// thread. An unestablished connection queues the message behind a
    /// blocking-lane dial job. Returns `Err` only for immediately-failed
    /// sends (the caller reports `SendFailed`); queued/sent messages
    /// complete via `on_sent` / connection-close handling.
    fn send_to_benefactor(&self, node: NodeId, msg: Msg, req: Option<RequestId>) -> Result<(), ()> {
        let track = req.map(|r| r.0);
        let mut benefs = self.inner.benefs.lock();
        match benefs.get_mut(&node) {
            Some(BenefEntry::Up(link)) => {
                let link = link.clone();
                drop(benefs);
                let sent = match track {
                    Some(t) => link.send_tracked(&msg, t),
                    None => link.send(&msg),
                };
                if sent.is_err() {
                    // The close callback fails the other in-flight
                    // requests; this one was never handed to the link.
                    return Err(());
                }
                Ok(())
            }
            Some(BenefEntry::Dialing(q)) => {
                q.push(msg);
                Ok(())
            }
            None => {
                benefs.insert(node, BenefEntry::Dialing(vec![msg]));
                drop(benefs);
                let weak = Arc::downgrade(&self.inner);
                self.inner.rt.handle().spawn_blocking(move |_| {
                    if let Some(inner) = weak.upgrade() {
                        dial_benefactor(&Grid { inner }, node);
                    }
                });
                Ok(())
            }
        }
    }

    fn resolve(&self, node: NodeId) -> Result<String, GridError> {
        if let Some(a) = self.inner.addr_cache.lock().get(&node) {
            return Ok(a.clone());
        }
        let req = self.req();
        let reply = self.rpc(
            req,
            Msg::ResolveNodes {
                req,
                nodes: vec![node],
            },
        )?;
        let Msg::NodeAddrsReply { addrs, .. } = reply else {
            return Err(GridError::Protocol("bad resolve reply".into()));
        };
        let Some((_, addr)) = addrs.into_iter().next() else {
            return Err(GridError::Remote {
                code: ErrorCode::NotFound,
                detail: format!("no address for {node}"),
            });
        };
        self.inner.addr_cache.lock().insert(node, addr.clone());
        Ok(addr)
    }
}

/// Sends the client Hello on a freshly dialed bootstrap stream.
fn write_hello(stream: &std::net::TcpStream) -> Result<(), GridError> {
    stdchk_proto::frame::write_frame(
        &mut &*stream,
        &Msg::Hello {
            role: Role::Client,
            node: NodeId(0),
        },
    )?;
    Ok(())
}

/// Reads the manager's identity-assigning Hello reply, bounded by the
/// dial timeout so a silent manager cannot wedge the caller.
fn read_hello_reply(stream: &mut std::net::TcpStream) -> Result<NodeId, GridError> {
    // stdchk-allow(no-blocking-on-pump): bounded handshake read on the caller's thread, before the socket joins the reactor
    match read_frame_timeout(stream, DIAL_TIMEOUT) {
        Ok(Some(Msg::Hello { node, .. })) => Ok(node),
        Ok(other) => Err(GridError::Protocol(format!(
            "expected Hello from manager, got {other:?}"
        ))),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(GridError::Timeout)
        }
        Err(e) => Err(e.into()),
    }
}

/// Dispatches a correlated reply to its route.
fn deliver_reply(grid: &Grid, msg: Msg) {
    let Some(req) = msg.request_id() else { return };
    let route = grid.inner.routes.lock().remove(&req);
    match route {
        Some(Route::Rpc(tx)) => {
            let _ = tx.send(msg);
        }
        Some(Route::Session { slot, .. }) => slot.deliver(grid, msg),
        None => {}
    }
}

/// A benefactor connection died: drop it from the registries and fail every
/// session request that was in flight on it, so reads and writes fail over
/// to other replicas promptly instead of waiting out their deadlines.
fn on_benefactor_conn_down(grid: &Grid, node: NodeId) {
    grid.inner.benefs.lock().remove(&node);
    // The node may come back on a different port after a restart.
    grid.inner.addr_cache.lock().remove(&node);
    let stranded: Vec<(RequestId, Arc<dyn SessionSlot>)> = {
        let mut routes = grid.inner.routes.lock();
        let reqs: Vec<RequestId> = routes
            .iter()
            .filter(|(_, r)| matches!(r, Route::Session { to, .. } if *to == node))
            .map(|(req, _)| *req)
            .collect();
        reqs.into_iter()
            .filter_map(|req| match routes.remove(&req) {
                Some(Route::Session { slot, .. }) => Some((req, slot)),
                _ => None,
            })
            .collect()
    };
    for (req, slot) in stranded {
        slot.fail(grid, req);
    }
}

/// The manager connection died: fail every in-flight manager request.
/// RPC waiters see their channel close (surfacing as a timeout-class
/// error immediately); sessions get `SendFailed`.
fn on_manager_conn_down(grid: &Grid) {
    let stranded: Vec<(RequestId, Route)> = {
        let mut routes = grid.inner.routes.lock();
        let reqs: Vec<RequestId> = routes
            .iter()
            .filter(|(_, r)| match r {
                Route::Rpc(_) => true,
                Route::Session { to, .. } => *to == MANAGER_NODE,
            })
            .map(|(req, _)| *req)
            .collect();
        reqs.into_iter()
            .filter_map(|req| routes.remove(&req).map(|r| (req, r)))
            .collect()
    };
    for (req, route) in stranded {
        match route {
            // Dropping the sender wakes the blocked RPC immediately.
            Route::Rpc(tx) => drop(tx),
            Route::Session { slot, .. } => slot.fail(grid, req),
        }
    }
}

/// A tracked frame fully left this host: deliver the `SendDone` that
/// ends the session's transmit window. The route stays — the reply is
/// still outstanding.
fn on_frame_sent(grid: &Grid, req: RequestId) {
    let slot = {
        let routes = grid.inner.routes.lock();
        match routes.get(&req) {
            Some(Route::Session { slot, .. }) => Some(Arc::clone(slot)),
            _ => None,
        }
    };
    if let Some(slot) = slot {
        slot.sent(grid, req);
    }
}

/// Blocking-lane job: resolve + dial + handshake one benefactor
/// connection, then flush the sends that queued while dialing.
fn dial_benefactor(grid: &Grid, node: NodeId) {
    let rt = &grid.inner.rt;
    let established: Result<Link, GridError> = (|| {
        let addr = grid.resolve(node)?;
        // stdchk-allow(no-blocking-on-pump): blocking-lane job: benefactor dials run off-pump with sends queued meanwhile
        let stream = dial(&addr, DIAL_TIMEOUT)?;
        let token = rt.register(&Arc::downgrade(&grid.inner), ConnKind::Benef(node), stream)?;
        let link = Link {
            handle: rt.handle().downgrade(),
            token,
        };
        link.send(&Msg::Hello {
            role: Role::Client,
            node: grid.inner.my_node,
        })?;
        Ok(link)
    })();
    match established {
        Ok(link) => {
            let queued = {
                let mut benefs = grid.inner.benefs.lock();
                match benefs.insert(node, BenefEntry::Up(link.clone())) {
                    Some(BenefEntry::Dialing(q)) => q,
                    _ => Vec::new(),
                }
            };
            for msg in queued {
                let req = msg.request_id();
                let sent = match req {
                    Some(r) => link.send_tracked(&msg, r.0),
                    None => link.send(&msg),
                };
                if sent.is_err() {
                    // Connection died mid-flush: the close callback fails
                    // the remaining in-flight requests; fail this one
                    // explicitly in case its route was just added. (The
                    // route is taken in its own statement so the lock is
                    // released before `fail` pumps the session.)
                    if let Some(r) = req {
                        let route = grid.inner.routes.lock().remove(&r);
                        if let Some(Route::Session { slot, .. }) = route {
                            slot.fail(grid, r);
                        }
                    }
                }
            }
        }
        Err(_) => {
            // Dial failed: drop the entry and fail everything queued, so
            // sessions fail over instead of waiting out deadlines.
            let queued = match grid.inner.benefs.lock().remove(&node) {
                Some(BenefEntry::Dialing(q)) => q,
                _ => Vec::new(),
            };
            grid.inner.addr_cache.lock().remove(&node);
            for msg in queued {
                if let Some(req) = msg.request_id() {
                    // Take the route in its own statement: the lock must
                    // drop before `fail` pumps the session (which inserts
                    // new routes for the failover sends).
                    let route = grid.inner.routes.lock().remove(&req);
                    if let Some(Route::Session { slot, .. }) = route {
                        slot.fail(grid, req);
                    }
                }
            }
        }
    }
}

/// The generic session pump: drains `poll_action()` in batches and executes
/// each unified action — sends over the manager or benefactor sockets with
/// reply routing, stage I/O against the spill file — feeding completions
/// straight back. Identical code drives write and read sessions.
fn pump_session<N: Node + Send + 'static>(grid: &Grid, shared: &Arc<SessionShared<N>>) {
    loop {
        let mut batch = Vec::new();
        {
            let mut s = shared.session.lock();
            while batch.len() < ACTION_BATCH {
                match s.poll_action() {
                    Some(a) => batch.push(a),
                    None => break,
                }
            }
        }
        if batch.is_empty() {
            return;
        }
        for action in batch {
            let completion = match action {
                Action::Send { to, msg } => {
                    let req = msg.request_id();
                    if let Some(req) = req {
                        grid.inner.routes.lock().insert(
                            req,
                            Route::Session {
                                slot: Arc::clone(shared) as Arc<dyn SessionSlot>,
                                to,
                            },
                        );
                    }
                    // `SendDone` arrives via `on_sent` when the frame's
                    // last byte is written; dial-in-flight sends queue.
                    let ok = if to == MANAGER_NODE {
                        match req {
                            Some(r) => grid.inner.mgr.send_tracked(&msg, r.0).is_ok(),
                            None => grid.inner.mgr.send(&msg).is_ok(),
                        }
                    } else {
                        grid.send_to_benefactor(to, msg, req).is_ok()
                    };
                    match (req, ok) {
                        (Some(req), false) => {
                            grid.inner.routes.lock().remove(&req);
                            Some(Completion::SendFailed { req })
                        }
                        _ => None,
                    }
                }
                Action::StageAppend {
                    op,
                    offset,
                    payload,
                } => stage_write(shared, offset, &payload.bytes())
                    .is_ok()
                    .then_some(Completion::StageAppended { op }),
                Action::StageFetch { op, offset, len } => stage_read(shared, offset, len as usize)
                    .ok()
                    .map(|data| Completion::StageFetched {
                        op,
                        payload: Payload::Real(data.into()),
                    }),
                Action::StageDiscard { .. } => None,
                other => unreachable!("client sessions never emit {other:?}"),
            };
            if let Some(c) = completion {
                let now = grid.inner.clock.now();
                let mut s = shared.session.lock();
                s.handle_completion(c, now);
                shared.cv.notify_all();
            }
        }
    }
}

fn stage_write<N>(shared: &Arc<SessionShared<N>>, offset: u64, data: &[u8]) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut guard = shared.stage.lock();
    if guard.is_none() {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&shared.stage_path)?;
        *guard = Some(f);
    }
    let f = guard.as_mut().expect("just created");
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(data)
}

fn stage_read<N>(shared: &Arc<SessionShared<N>>, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    use std::io::{Seek, SeekFrom};
    let mut guard = shared.stage.lock();
    let f = guard
        .as_mut()
        .ok_or_else(|| io::Error::other("stage not created"))?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

// ------------------------------------------------------------------- write

/// A write session handle. Write data with [`std::io::Write`], then call
/// [`WriteHandle::finish`] to commit (session semantics: nothing is visible
/// until the commit).
pub struct WriteHandle {
    grid: Grid,
    shared: Arc<SessionShared<WriteSession>>,
    /// Pool path being written: keys the grid's signature cache so the
    /// next version of the same file can delta against this one.
    path: String,
    finished: bool,
}

impl fmt::Debug for WriteHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteHandle").finish_non_exhaustive()
    }
}

impl Write for WriteHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Respect session backpressure (the SW buffer / IW temp pipeline).
        let n;
        {
            let mut s = self.shared.session.lock();
            loop {
                match s.state() {
                    SessionState::Failed(code) => {
                        return Err(io::Error::other(GridError::SessionFailed(code)))
                    }
                    SessionState::Open => {}
                    _ => return Err(io::Error::other("write after close")),
                }
                let w = s.writable();
                if w > 0 {
                    n = (buf.len() as u64).min(w) as usize;
                    break;
                }
                self.shared.cv.wait(&mut s);
            }
            s.write_slice(&buf[..n], self.grid.inner.clock.now());
        }
        pump_session(&self.grid, &self.shared);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WriteHandle {
    /// Nonblocking write for event-driven drivers: accepts at most what
    /// the session window allows right now and returns `Ok(0)` instead of
    /// waiting when the window is full (retry after the transport makes
    /// progress). This is what lets one thread drive hundreds of
    /// concurrent sessions.
    ///
    /// # Errors
    ///
    /// [`GridError::SessionFailed`] if the session already failed; an
    /// error on write-after-close.
    pub fn poll_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n;
        {
            let mut s = self.shared.session.lock();
            match s.state() {
                SessionState::Failed(code) => {
                    return Err(io::Error::other(GridError::SessionFailed(code)))
                }
                SessionState::Open => {}
                _ => return Err(io::Error::other("write after close")),
            }
            let w = s.writable();
            if w == 0 {
                return Ok(0);
            }
            n = (buf.len() as u64).min(w) as usize;
            s.write_slice(&buf[..n], self.grid.inner.clock.now());
        }
        pump_session(&self.grid, &self.shared);
        Ok(n)
    }

    /// Starts the session-semantics commit without blocking; poll
    /// [`WriteHandle::try_finish`] for the outcome. Idempotent.
    pub fn start_close(&mut self) {
        let closed = {
            let mut s = self.shared.session.lock();
            if s.state() == SessionState::Open {
                s.close(self.grid.inner.clock.now());
                true
            } else {
                false
            }
        };
        if closed {
            pump_session(&self.grid, &self.shared);
        }
    }

    /// Polls a closing session ([`WriteHandle::start_close`]) for its
    /// final outcome: `None` while the commit is still in flight.
    pub fn try_finish(&mut self) -> Option<Result<WriteStats, GridError>> {
        pump_session(&self.grid, &self.shared);
        let result = {
            let s = self.shared.session.lock();
            match s.state() {
                SessionState::Done => Some(Ok(s.stats())),
                SessionState::Failed(code) => Some(Err(GridError::SessionFailed(code))),
                _ => None,
            }
        };
        if let Some(outcome) = &result {
            self.finished = true;
            if outcome.is_ok() {
                self.harvest_signatures();
            }
            let _ = std::fs::remove_file(&self.shared.stage_path);
        }
        result
    }

    /// Banks this session's chunk signatures in the grid's per-path cache:
    /// the delta bases for the next write of the same path, bounded to the
    /// version just committed ([`PathBases::merge`]) and to the cache's
    /// byte budget ([`SignatureCache::record`]). A base pruned from the
    /// pool or evicted only costs a fallback to full transfer, never
    /// correctness.
    fn harvest_signatures(&self) {
        let (sigs, homes, committed) = {
            let mut s = self.shared.session.lock();
            let committed: HashSet<ChunkId> = s.entries().iter().map(|e| e.id).collect();
            (s.take_signatures(), s.shipped_placements(), committed)
        };
        let mut cache = self.grid.inner.signatures.lock();
        if sigs.is_empty() && cache.get(&self.path).is_none() {
            return;
        }
        cache.record(&self.path, sigs, homes, &committed);
    }

    /// Closes the file: drains data, commits the chunk-map, and returns the
    /// session metrics. Blocks until the commit acknowledges (for
    /// pessimistic sessions this includes reaching the replication target).
    /// Also collects the outcome of an earlier
    /// [`WriteHandle::start_close`].
    ///
    /// # Errors
    ///
    /// [`GridError::SessionFailed`] if any chunk could not be stored,
    /// including a session that had already failed before this call.
    pub fn finish(mut self) -> Result<WriteStats, GridError> {
        self.finished = true;
        self.start_close();
        let deadline = std::time::Instant::now() + self.grid.inner.timeout;
        let mut s = self.shared.session.lock();
        loop {
            match s.state() {
                SessionState::Done => {
                    let stats = s.stats();
                    drop(s);
                    self.harvest_signatures();
                    let _ = std::fs::remove_file(&self.shared.stage_path);
                    return Ok(stats);
                }
                SessionState::Failed(code) => return Err(GridError::SessionFailed(code)),
                _ => {}
            }
            if std::time::Instant::now() > deadline {
                return Err(GridError::Timeout);
            }
            self.shared.cv.wait_for(&mut s, Duration::from_millis(100));
        }
    }
}

impl Drop for WriteHandle {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned write: release the reservation; GC reclaims chunks.
            let closed = {
                let mut s = self.shared.session.lock();
                if s.state() == SessionState::Open {
                    s.close(self.grid.inner.clock.now());
                    true
                } else {
                    false
                }
            };
            // Best effort: we do not wait for completion.
            if closed {
                pump_session(&self.grid, &self.shared);
            }
            let _ = std::fs::remove_file(&self.shared.stage_path);
        }
    }
}

// -------------------------------------------------------------------- read

/// A read handle over one committed version.
pub struct ReadHandle {
    grid: Grid,
    shared: Arc<SessionShared<ReadSession>>,
    buffer: Vec<u8>,
    buffer_pos: usize,
}

impl fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadHandle").finish_non_exhaustive()
    }
}

impl ReadHandle {
    /// Total size of the version being read.
    pub fn file_size(&self) -> u64 {
        self.shared.session.lock().file_size()
    }

    /// Reads the whole file to a vector.
    ///
    /// # Errors
    ///
    /// Propagates transport/corruption failures.
    pub fn read_all(mut self) -> Result<Vec<u8>, GridError> {
        let mut out = Vec::with_capacity(self.file_size() as usize);
        io::Read::read_to_end(&mut self, &mut out)?;
        Ok(out)
    }
}

impl Read for ReadHandle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            // Serve buffered bytes first.
            if self.buffer_pos < self.buffer.len() {
                let n = (self.buffer.len() - self.buffer_pos).min(buf.len());
                buf[..n].copy_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + n]);
                self.buffer_pos += n;
                return Ok(n);
            }
            let deadline = std::time::Instant::now() + self.grid.inner.timeout;
            {
                let mut s = self.shared.session.lock();
                loop {
                    if let Some((_, payload)) = s.next_ready() {
                        self.buffer = payload.bytes().to_vec();
                        self.buffer_pos = 0;
                        break;
                    }
                    match s.state() {
                        ReadState::Done => return Ok(0),
                        ReadState::Failed(code) => {
                            return Err(io::Error::other(GridError::Remote {
                                code,
                                detail: "chunk unavailable on every replica".into(),
                            }))
                        }
                        ReadState::Active => {}
                    }
                    if std::time::Instant::now() > deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read stalled"));
                    }
                    self.shared.cv.wait_for(&mut s, Duration::from_millis(100));
                }
            }
            // Delivering freed a window slot: refill the read-ahead.
            pump_session(&self.grid, &self.shared);
            if self.buffer.is_empty() {
                continue;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_bases_hold_one_version_only() {
        let sig = |i: u64| ChunkSignature::of(&i.to_le_bytes().repeat(64));
        let mut bases = PathBases::default();
        // Each version keeps chunk 0 and rewrites the other three.
        for v in 1..=5u64 {
            let ids = [0, v * 10 + 1, v * 10 + 2, v * 10 + 3].map(ChunkId::test_id);
            let shipped = if v == 1 { &ids[..] } else { &ids[1..] };
            bases.merge(
                shipped.iter().map(|id| (*id, sig(v))).collect(),
                shipped.iter().map(|id| (*id, vec![NodeId(1)])).collect(),
                &ids.into_iter().collect(),
            );
            let mut held: Vec<_> = bases.sigs.keys().copied().collect();
            held.sort();
            let mut want = ids.to_vec();
            want.sort();
            assert_eq!(held, want, "version {v}");
            assert_eq!(bases.homes.len(), ids.len());
        }
    }

    /// Records a committed write of `path` that shipped `n` chunks (ids
    /// from `p`), each with signature `sig` and one placement.
    fn write(cache: &mut SignatureCache, path: &str, p: u64, n: u64, sig: &ChunkSignature) {
        let ids: Vec<ChunkId> = (0..n).map(|i| ChunkId::test_id(p << 16 | i)).collect();
        cache.record(
            path,
            ids.iter().map(|id| (*id, sig.clone())).collect(),
            ids.iter().map(|id| (*id, vec![NodeId(1)])).collect(),
            &ids.into_iter().collect(),
        );
    }

    #[test]
    fn signature_cache_evicts_the_least_recently_written_path() {
        let sig = ChunkSignature::of(&[7u8; 64 << 10]);
        let budget = 256 << 10;
        let mut cache = SignatureCache::new(budget);
        let path = |p: u64| format!("/ckpt/{p}");
        for p in 0..200u64 {
            write(&mut cache, &path(p), p, 4, &sig);
            // Rewriting path 0 keeps it among the most recently written.
            if p % 10 == 9 {
                write(&mut cache, &path(0), 0, 4, &sig);
            }
            let held: usize = cache.paths.values().map(|(_, b, _)| b.bytes()).sum();
            assert_eq!(cache.bytes, held, "path {p}");
            assert!(cache.bytes <= budget, "path {p}: {} bytes", cache.bytes);
            assert_eq!(
                cache.get(&path(p)).map(|b| b.sigs.len()),
                Some(4),
                "path {p}"
            );
        }
        assert!(cache.paths.len() < 200, "nothing was evicted");
        assert_eq!(cache.paths.len(), cache.order.len());
        assert!(cache.get(&path(1)).is_none(), "oldest path kept");
        assert!(cache.get(&path(0)).is_some(), "rewritten path evicted");
    }

    #[test]
    fn signature_cache_trims_a_path_larger_than_its_budget() {
        let sig = ChunkSignature::of(&[7u8; 64 << 10]);
        let budget = 64 << 10;
        let mut cache = SignatureCache::new(budget);
        write(&mut cache, "/small", 1, 4, &sig);
        write(&mut cache, "/large", 2, 100, &sig);
        assert!(cache.get("/small").is_none());
        let large = cache.get("/large").expect("newest path kept");
        assert!(!large.sigs.is_empty() && large.sigs.len() < 100);
        assert!(cache.bytes <= budget);
        assert_eq!(cache.bytes, large.bytes());
    }
}
