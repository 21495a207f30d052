//! A benefactor (storage donor) as a TCP node.
//!
//! The sans-IO [`Benefactor`] runs behind the same generic [`NodeHost`]
//! as the manager. Both planes — the manager control connection and the
//! data-path listener — live on one epoll [`Reactor`]. Workers decode
//! and `deliver`; joins/heartbeats/GC/timeouts fire from `poll_timeout`
//! folded into `epoll_wait`; peer replication connections are dialed
//! (and the manager redialed after a restart) on the reactor's blocking
//! lane so workers never block.
//!
//! [`BenefEffects`] executes the unified actions — transmit over the
//! right connection, store/load/delete against a [`ChunkStore`]. Store
//! batches are appended on the pump and their group-commit waits ride a
//! disk [`IoLane`]; sealed chunks are served by `sendfile`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use stdchk_util::ordlock::OrderedMutex;

use crate::ranks;

use stdchk_core::node::{Action, Completion};
use stdchk_core::payload::Payload;
use stdchk_core::{Benefactor, BenefactorConfig, MANAGER_NODE};
use stdchk_proto::frame::{self, write_frame};
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::{Msg, Role};
use stdchk_util::Time;

use crate::conn::{dial, read_frame_timeout, Clock, Link, DIAL_TIMEOUT};
use crate::driver::{Effects, NodeHost};
use crate::iolane::IoLane;
use crate::reactor::{
    CloseReason, ConnOpts, ConnToken, Reactor, ReactorApp, ReactorConfig, ReactorHandle,
    TransportStats, WeakHandle,
};
use crate::store::ChunkStore;
use crate::ServerOpts;

/// Configuration of a networked benefactor.
pub struct BenefactorNetConfig {
    /// Manager dial address.
    pub manager_addr: String,
    /// Listen address for the data path (use `127.0.0.1:0` in tests).
    pub listen: String,
    /// Bytes donated.
    pub total_space: u64,
    /// Protocol timers.
    pub cfg: BenefactorConfig,
    /// Blob store for chunk payloads.
    pub store: Arc<dyn ChunkStore>,
}

/// A dedicated manager connection for driver-level RPCs (address
/// resolution), separate from the state machine's message stream.
///
/// Fully blocking request/response on one lazily-dialed socket — no
/// reader thread — with connect *and read* timeouts on every step, so a
/// dead or wedged manager can never hang the calling thread. The only
/// caller is the reactor's blocking lane (never a reactor worker).
struct ResolveClient {
    addr: String,
    stream: Option<TcpStream>,
    next_req: u64,
}

impl ResolveClient {
    fn new(addr: &str) -> ResolveClient {
        ResolveClient {
            addr: addr.to_string(),
            stream: None,
            next_req: 1,
        }
    }

    fn resolve(&mut self, node: NodeId) -> Option<String> {
        match self.try_resolve(node) {
            Some(a) => Some(a),
            None => {
                // The manager may have restarted: redial once.
                self.stream = None;
                self.try_resolve(node)
            }
        }
    }

    fn try_resolve(&mut self, node: NodeId) -> Option<String> {
        self.next_req += 1;
        let req = RequestId(0xAAAA_0000_0000 | self.next_req);
        let mut stream = match self.stream.take() {
            Some(s) => s,
            None => {
                // stdchk-allow(no-blocking-on-pump): blocking resolver RPC: ResolveClient runs on the blocking lane, never a pump worker
                let s = dial(&self.addr, DIAL_TIMEOUT).ok()?;
                write_frame(
                    &mut &s,
                    &Msg::Hello {
                        role: Role::Benefactor,
                        node: NodeId(0),
                    },
                )
                .ok()?;
                s
            }
        };
        write_frame(
            &mut &stream,
            &Msg::ResolveNodes {
                req,
                nodes: vec![node],
            },
        )
        .ok()?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let remain = deadline.saturating_duration_since(Instant::now());
            if remain.is_zero() {
                return None;
            }
            // stdchk-allow(no-blocking-on-pump): bounded manager RPC read on the resolver sideband; same threads as the dial above
            match read_frame_timeout(&mut stream, remain.max(Duration::from_millis(1))) {
                Ok(Some(Msg::NodeAddrsReply { req: r, addrs })) if r == req => {
                    // Keep the warmed-up connection for the next lookup.
                    self.stream = Some(stream);
                    return addrs.into_iter().next().map(|(_, a)| a);
                }
                // Unrelated traffic (stale replies, transport pongs).
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => return None,
            }
        }
    }
}

/// An outbound replication connection to a peer benefactor: established,
/// or being dialed on the reactor's blocking lane with sends queued.
enum PeerState {
    /// Live connection.
    Up(Link),
    /// Dial in flight; messages queued here flush when it lands (and are
    /// dropped if it fails — put timeouts fail the copies over, exactly
    /// like a send on a dead connection).
    Dialing(Vec<Msg>),
}

/// Executes benefactor actions: transmit to the manager / the delivering
/// connection / a lazily-dialed peer, and run blob-store I/O, reporting
/// completions synchronously.
pub struct BenefEffects {
    store: Arc<dyn ChunkStore>,
    mgr: OrderedMutex<Link>,
    /// Inbound data connections, keyed by their synthetic conn id: replies
    /// route through here no matter which thread pumps them.
    conns: OrderedMutex<HashMap<NodeId, Link>>,
    /// Outbound replication connections to peer benefactors (real ids).
    peers: OrderedMutex<HashMap<NodeId, PeerState>>,
    resolver: OrderedMutex<ResolveClient>,
    /// The reactor app — and through it the host — for deferred peer
    /// dials and I/O-lane completions. Set once at spawn; cleared at
    /// shutdown to break the effects → app → host → effects cycle.
    app: OrderedMutex<Option<Arc<BenefApp>>>,
    /// Durable store waits and compaction (`maintain`) ride here instead
    /// of the executing pump.
    lane: Arc<IoLane>,
}

type BenefHost = NodeHost<Benefactor, Arc<BenefEffects>>;

impl Effects for Arc<BenefEffects> {
    fn execute(&self, action: Action) -> Option<Completion> {
        match action {
            Action::Send { to, msg } => {
                // A `GetChunkOk` whose payload is virtual (empty data,
                // nonzero size) is a zero-copy serve: the Load answered
                // with a region placeholder and the bytes leave straight
                // from the segment file here.
                if let Msg::GetChunkOk {
                    req,
                    chunk,
                    size,
                    data,
                } = &msg
                {
                    if data.is_empty() && *size > 0 {
                        self.send_region_reply(to, *req, *chunk, *size);
                        return None;
                    }
                }
                if to == MANAGER_NODE {
                    let _ = self.mgr.lock().send(&msg);
                } else if let Some(conn) = self.conns.lock().get(&to).cloned() {
                    // Reply to an inbound data connection.
                    let _ = conn.send(&msg);
                } else {
                    self.send_to_peer(to, msg);
                }
                None
            }
            Action::Store { op, chunk, payload } => {
                self.flush_stores(&mut vec![(op, chunk, payload)]);
                None
            }
            Action::Load {
                op, chunk, serve, ..
            } => {
                if serve {
                    // Sealed, checksummed-at-rest chunk: answer with a
                    // virtual payload; the Send above re-derives the
                    // region and ships it via sendfile. Loads the node
                    // itself consumes (replication pushes, delta bases)
                    // have `serve: false` and always get real bytes.
                    // Unsealed chunks have no region and materialize.
                    if let Some(region) = self.store.read_region(chunk) {
                        return Some(Completion::Loaded {
                            op,
                            chunk,
                            payload: Payload::Virtual {
                                size: region.len,
                                tag: 0,
                            },
                        });
                    }
                }
                match self.store.get(chunk) {
                    Ok(Some(data)) => Some(Completion::Loaded {
                        op,
                        chunk,
                        payload: Payload::Real(data),
                    }),
                    // Lost or unreadable blob: tell the node so the
                    // requester fails over instead of timing out.
                    Ok(None) | Err(_) => Some(Completion::LoadFailed { op, chunk }),
                }
            }
            Action::DropChunk { chunk } => {
                // The tombstone append runs here (cheap, order-fixing);
                // any compaction it makes due waits for `maintain` on
                // the I/O lane.
                let _ = self.store.delete(chunk);
                self.schedule_maintenance();
                None
            }
            other => unreachable!("benefactor never emits {other:?}"),
        }
    }

    /// Coalesces the queued `Store` actions of one drained batch into a
    /// single blob-store batch submit, so a group-commit engine
    /// ([`crate::store::SegmentStore`]) absorbs a whole ingest burst with
    /// one flush. Relative order of non-store actions is preserved; stores
    /// are submitted before any later non-store action executes.
    fn execute_batch(&self, actions: &mut Vec<Action>, completions: &mut Vec<Completion>) {
        let mut stores: Vec<(u64, ChunkId, Payload)> = Vec::new();
        for action in actions.drain(..) {
            match action {
                Action::Store { op, chunk, payload } => stores.push((op, chunk, payload)),
                other => {
                    self.flush_stores(&mut stores);
                    if let Some(c) = self.execute(other) {
                        completions.push(c);
                    }
                }
            }
        }
        self.flush_stores(&mut stores);
    }
}

impl BenefEffects {
    /// Ships a zero-copy `GetChunkOk`: re-derive the sealed-segment
    /// region and hand it to the reactor as a pre-encoded frame head +
    /// `sendfile` payload. Falls back to materializing the chunk when the
    /// region vanished (compaction moved the chunk between Load and Send
    /// — the re-read serves the bytes from wherever they live now) or the
    /// requester is a peer without an inbound link. If the chunk is gone
    /// entirely the reply is dropped: the requester's timeout fails it
    /// over, exactly like a send on a dead connection.
    fn send_region_reply(self: &Arc<Self>, to: NodeId, req: RequestId, chunk: ChunkId, size: u32) {
        let link = if to == MANAGER_NODE {
            Some(self.mgr.lock().clone())
        } else {
            self.conns.lock().get(&to).cloned()
        };
        if let Some(Link { handle, token }) = &link {
            if let (Some(region), Some(h)) = (self.store.read_region(chunk), handle.upgrade()) {
                let head = frame::get_chunk_ok_frame_head(req, chunk, size, region.len);
                let _ = h.send_file_region(
                    *token,
                    head,
                    region.file,
                    region.offset,
                    region.len as u64,
                    None,
                );
                return;
            }
        }
        if let Ok(Some(data)) = self.store.get(chunk) {
            let msg = Msg::GetChunkOk {
                req,
                chunk,
                size,
                data,
            };
            match link {
                Some(l) => {
                    let _ = l.send(&msg);
                }
                None => self.send_to_peer(to, msg),
            }
        }
    }

    /// Queues one opportunistic `maintain` pass (compaction) on the I/O
    /// lane. Nonblocking and lossy by design: a refused submit
    /// just waits for the next delete/batch to re-offer it.
    fn schedule_maintenance(&self) {
        let store = Arc::clone(&self.store);
        let _ = self.lane.try_submit(move || {
            let _ = store.maintain();
        });
    }

    /// Submits one buffered store batch: the records are appended now —
    /// fixing the engine's record order, so a later `DropChunk` in the
    /// same drain still lands after them — and only the durability wait
    /// rides the I/O lane, whose completion feeds every chunk's `Stored`
    /// ack back through the host. On failure nothing acks: the writer
    /// times out and fails over, same as a single failed put.
    fn flush_stores(&self, stores: &mut Vec<(u64, ChunkId, Payload)>) {
        if stores.is_empty() {
            return;
        }
        let Some(app) = self.app.lock().clone() else {
            // Shut down: nothing acks, exactly like a dying server.
            stores.clear();
            return;
        };
        let payloads: Vec<_> = stores.iter().map(|(_, _, p)| p.bytes()).collect();
        let batch: Vec<(ChunkId, &[u8])> = stores
            .iter()
            .zip(&payloads)
            .map(|((_, chunk, _), bytes)| (*chunk, &bytes[..]))
            .collect();
        let submitted = self.store.submit_put_batch(&batch);
        let ops: Vec<u64> = stores.drain(..).map(|(op, _, _)| op).collect();
        if let Ok(token) = submitted {
            let store = Arc::clone(&self.store);
            // A refused submit means the lane shut down under us: nothing
            // acks; the writers time out, exactly like a dying server.
            let _ = self
                .lane
                .submit(move || finish_put_batch(&store, &app, token, ops));
        }
    }
}

/// I/O-lane job: wait out the submitted batch's group commit, then feed
/// every chunk's `Stored` ack back through the host (whose pump — on
/// this lane thread — drains the resulting `PutChunkOk` sends).
fn finish_put_batch(store: &Arc<dyn ChunkStore>, app: &BenefApp, token: u64, ops: Vec<u64>) {
    if store.wait_put(token).is_err() {
        // Nothing acks: the writers time out and fail over.
        return;
    }
    if let Some(host) = app.host.get() {
        host.complete_all(ops.into_iter().map(|op| Completion::Stored { op }));
    }
    // A `Stored` completion may re-arm an earlier protocol deadline:
    // wake worker 0 so it recomputes its sleep.
    if let Some(h) = app.handle.get().and_then(WeakHandle::upgrade) {
        h.notify_timer();
    }
    // Already on a lane thread: run any compaction now due, such as a
    // segment this batch sealed already dead (cheap when none is).
    let _ = store.maintain();
}

impl BenefEffects {
    /// Sends to a peer benefactor without ever blocking the calling
    /// worker. An unestablished peer gets a `Dialing` entry and a
    /// blocking-lane job that resolves, dials, registers and flushes the
    /// queue.
    fn send_to_peer(self: &Arc<Self>, to: NodeId, msg: Msg) {
        let Some(app) = self.app.lock().clone() else {
            return;
        };
        let mut peers = self.peers.lock();
        match peers.get_mut(&to) {
            Some(PeerState::Up(link)) => {
                let link = link.clone();
                drop(peers);
                if link.send(&msg).is_err() {
                    self.peers.lock().remove(&to);
                }
            }
            Some(PeerState::Dialing(q)) => q.push(msg),
            None => {
                peers.insert(to, PeerState::Dialing(vec![msg]));
                drop(peers);
                let Some(handle) = app.handle.get().and_then(WeakHandle::upgrade) else {
                    self.peers.lock().remove(&to);
                    return;
                };
                let effects = Arc::clone(self);
                handle.spawn_blocking(move |h| dial_peer(&effects, &app, to, h));
            }
        }
    }
}

/// Blocking-lane job: establish the replication connection to `to` and
/// flush whatever queued while dialing.
fn dial_peer(effects: &Arc<BenefEffects>, app: &Arc<BenefApp>, to: NodeId, h: &ReactorHandle) {
    let link = (|| {
        let addr = effects.resolver.lock().resolve(to)?;
        // stdchk-allow(no-blocking-on-pump): blocking-lane job: the reactor defers peer dials here precisely so pump workers never block
        let stream = dial(&addr, DIAL_TIMEOUT).ok()?;
        // prepare → bookkeep → arm: the kind entry must exist before any
        // worker can deliver this connection's first reply.
        let token = h.prepare(stream, ConnOpts::dial_default()).ok()?;
        app.kinds.lock().insert(token, BKind::Peer(to));
        h.arm(token);
        let link = Link {
            handle: h.downgrade(),
            token,
        };
        // The data-path listener ignores Hello payloads; announce with
        // the null id.
        if link
            .send(&Msg::Hello {
                role: Role::Benefactor,
                node: NodeId(0),
            })
            .is_err()
        {
            h.close(token);
            return None;
        }
        Some(link)
    })();
    match link {
        Some(link) => {
            let queued = {
                let mut peers = effects.peers.lock();
                match peers.insert(to, PeerState::Up(link.clone())) {
                    Some(PeerState::Dialing(q)) => q,
                    _ => Vec::new(),
                }
            };
            for msg in queued {
                if link.send(&msg).is_err() {
                    effects.peers.lock().remove(&to);
                    return;
                }
            }
        }
        None => {
            // Queued copies are dropped: their put timeouts fail them
            // over, exactly as if the connection had died mid-send.
            effects.peers.lock().remove(&to);
        }
    }
}

/// What a reactor connection means to the benefactor.
#[derive(Clone, Copy, Debug)]
enum BKind {
    /// The manager control-plane connection.
    Mgr,
    /// An inbound data connection, addressed by its synthetic node id.
    Data(NodeId),
    /// An outbound replication connection to a peer benefactor.
    Peer(NodeId),
}

/// The benefactor's [`ReactorApp`]: routes both planes (manager control
/// stream + data-path connections) into the shared [`NodeHost`], fires
/// protocol timers from the reactor tick, and redials the manager after a
/// restart via the blocking lane.
struct BenefApp {
    host: OnceLock<Arc<BenefHost>>,
    handle: OnceLock<WeakHandle>,
    /// Role of each live reactor connection.
    kinds: OrderedMutex<HashMap<ConnToken, BKind>>,
    /// Weak self-reference for redial jobs scheduled from callbacks.
    weak_self: OnceLock<std::sync::Weak<BenefApp>>,
    manager_addr: String,
}

impl BenefApp {
    fn schedule_mgr_redial(&self, delay: Duration) {
        let (Some(handle), Some(weak)) = (
            self.handle.get().and_then(WeakHandle::upgrade),
            self.weak_self.get().cloned(),
        ) else {
            return;
        };
        handle.spawn_blocking_after(delay, move |h| {
            if let Some(app) = weak.upgrade() {
                mgr_redial(&app, h);
            }
        });
    }
}

/// Blocking-lane job: reconnect the manager control plane. A benefactor
/// outlives manager restarts — its next heartbeat re-registers it (soft
/// state).
fn mgr_redial(app: &Arc<BenefApp>, h: &ReactorHandle) {
    if h.is_shutdown() {
        return;
    }
    let Some(host) = app.host.get() else { return };
    if host.is_shutdown() {
        return;
    }
    let established = (|| {
        // stdchk-allow(no-blocking-on-pump): blocking-lane job: manager redial runs off-pump with sends queued meanwhile
        let stream = dial(&app.manager_addr, DIAL_TIMEOUT).ok()?;
        let token = h.prepare(stream, ConnOpts::dial_default()).ok()?;
        app.kinds.lock().insert(token, BKind::Mgr);
        h.arm(token);
        let link = Link {
            handle: h.downgrade(),
            token,
        };
        let my_id = host.with_node(|n| n.id());
        if link
            .send(&Msg::Hello {
                role: Role::Benefactor,
                node: my_id,
            })
            .is_err()
        {
            h.close(token);
            return None;
        }
        *host.effects().mgr.lock() = link;
        Some(())
    })();
    if established.is_none() {
        app.schedule_mgr_redial(Duration::from_millis(250));
    }
}

impl ReactorApp for BenefApp {
    fn on_accept(&self, conn: ConnToken, _listener: u64) {
        let (Some(host), Some(handle)) = (self.host.get(), self.handle.get()) else {
            return;
        };
        // Synthetic per-connection peer id, registered so replies route
        // back on this connection from any pumping worker.
        let id = NodeId((1 << 50) | CONN_IDS.fetch_add(1, Ordering::Relaxed));
        self.kinds.lock().insert(conn, BKind::Data(id));
        host.effects().conns.lock().insert(
            id,
            Link {
                handle: handle.clone(),
                token: conn,
            },
        );
    }

    fn on_msg(&self, conn: ConnToken, msg: Msg) {
        let Some(host) = self.host.get() else { return };
        let kind = self.kinds.lock().get(&conn).copied();
        match kind {
            Some(BKind::Data(id)) if !matches!(msg, Msg::Hello { .. }) => {
                host.deliver(id, msg);
            }
            Some(BKind::Data(_)) => {}
            Some(BKind::Mgr) => host.deliver(MANAGER_NODE, msg),
            Some(BKind::Peer(node)) => host.deliver(node, msg),
            None => {}
        }
    }

    fn on_close(&self, conn: ConnToken, _reason: CloseReason) {
        let kind = self.kinds.lock().remove(&conn);
        let Some(host) = self.host.get() else { return };
        match kind {
            Some(BKind::Data(id)) => {
                host.effects().conns.lock().remove(&id);
            }
            Some(BKind::Peer(node)) => {
                let mut peers = host.effects().peers.lock();
                if matches!(peers.get(&node), Some(PeerState::Up(link)) if link.token == conn) {
                    peers.remove(&node);
                }
            }
            Some(BKind::Mgr) => {
                // Only the *current* control connection triggers a redial
                // chain (a stale one may close after a successor exists).
                let is_current = host.effects().mgr.lock().token == conn;
                if is_current && !host.is_shutdown() {
                    self.schedule_mgr_redial(Duration::from_millis(250));
                }
            }
            None => {}
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        self.host.get().and_then(|h| h.next_deadline())
    }

    fn on_tick(&self, now: Time) {
        if let Some(host) = self.host.get() {
            host.tick(now);
        }
    }
}

/// A running benefactor node.
pub struct BenefactorServer {
    host: Arc<BenefHost>,
    addr: SocketAddr,
    reactor: Reactor,
}

impl std::fmt::Debug for BenefactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenefactorServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

static CONN_IDS: AtomicU64 = AtomicU64::new(1);

impl BenefactorServer {
    /// Joins the pool and starts serving with [`ServerOpts::default`]
    /// transport tuning.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind or the manager is unreachable.
    pub fn spawn(net: BenefactorNetConfig) -> io::Result<BenefactorServer> {
        BenefactorServer::spawn_with(net, ServerOpts::default())
    }

    /// [`BenefactorServer::spawn`] with explicit transport tuning.
    ///
    /// # Errors
    ///
    /// As [`BenefactorServer::spawn`].
    pub fn spawn_with(net: BenefactorNetConfig, opts: ServerOpts) -> io::Result<BenefactorServer> {
        let listener = TcpListener::bind(&net.listen)?;
        let addr = listener.local_addr()?;
        // stdchk-allow(no-blocking-on-pump): startup path on the caller's thread, before any pump worker exists
        let mgr_stream = dial(&net.manager_addr, DIAL_TIMEOUT)?;
        write_frame(
            &mut &mgr_stream,
            &Msg::Hello {
                role: Role::Benefactor,
                node: NodeId(0),
            },
        )
        .map_err(|e| io::Error::other(format!("manager handshake failed: {e}")))?;

        let mut sm = Benefactor::new(NodeId(0), net.total_space, net.cfg);
        sm.set_advertised_addr(addr.to_string());
        // Adopt whatever survived a restart in the blob store. `entries()`
        // comes from the store's index (or file metadata), so restart cost
        // does not scale with the stored bytes.
        let clock = Clock::new();
        sm.adopt_existing(net.store.entries()?, clock.now());

        let app = Arc::new(BenefApp {
            host: OnceLock::new(),
            handle: OnceLock::new(),
            kinds: OrderedMutex::new(ranks::BENEF_KINDS, "benef.kinds", HashMap::new()),
            weak_self: OnceLock::new(),
            manager_addr: net.manager_addr.clone(),
        });
        let _ = app.weak_self.set(Arc::downgrade(&app));
        let reactor = Reactor::new(
            clock,
            Arc::clone(&app) as Arc<dyn ReactorApp>,
            ReactorConfig {
                workers: opts.workers,
            },
        )?;
        let handle = reactor.handle().clone();
        let mgr_token = handle.prepare(mgr_stream, ConnOpts::dial_default())?;
        app.kinds.lock().insert(mgr_token, BKind::Mgr);
        handle.arm(mgr_token);
        let mgr_link = Link {
            handle: handle.downgrade(),
            token: mgr_token,
        };
        let effects = Arc::new(BenefEffects {
            store: net.store,
            mgr: OrderedMutex::new(ranks::BENEF_MGR, "benef.mgr", mgr_link),
            conns: OrderedMutex::new(ranks::BENEF_CONNS, "benef.conns", HashMap::new()),
            peers: OrderedMutex::new(ranks::BENEF_PEERS, "benef.peers", HashMap::new()),
            resolver: OrderedMutex::new(
                ranks::BENEF_RESOLVER,
                "benef.resolver",
                ResolveClient::new(&net.manager_addr),
            ),
            app: OrderedMutex::new(ranks::BENEF_APP, "benef.app", None),
            lane: Arc::new(IoLane::new()),
        });
        let host = NodeHost::new(sm, clock, Arc::clone(&effects));
        let _ = app.handle.set(handle.downgrade());
        // Peer dials and lane completions reach the host through the app.
        *effects.app.lock() = Some(Arc::clone(&app));
        let _ = app.host.set(Arc::clone(&host));
        // Join/heartbeat/GC timers fire from the reactor tick once the
        // host is visible to the app. Worker 0 may already be sleeping
        // out a full sweep interval computed while it had no deadline;
        // wake it so the join goes out now.
        handle.notify_timer();
        handle.add_listener(listener, 0, ConnOpts::server_default(opts.idle_timeout))?;

        Ok(BenefactorServer {
            host,
            addr,
            reactor,
        })
    }

    /// The data-path listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node id assigned by the manager (0 until joined).
    pub fn node_id(&self) -> NodeId {
        self.host.with_node(|n| n.id())
    }

    /// Chunks currently stored.
    pub fn chunk_count(&self) -> usize {
        self.host.with_node(|n| n.chunk_count())
    }

    /// Free contributed bytes.
    pub fn free_space(&self) -> u64 {
        self.host.with_node(|n| n.free_space())
    }

    /// Cumulative transport counters: bytes and frames each way, plus
    /// copied vs zero-copy payload bytes — the debug hook proving which
    /// transmit path served a workload. Always `Some`; the `Option`
    /// keeps the signature callers already match on.
    pub fn transport_stats(&self) -> Option<TransportStats> {
        Some(self.reactor.handle().transport_stats())
    }

    /// Stops serving and joins every thread the benefactor started (the
    /// I/O lane, then the reactor's workers).
    pub fn shutdown(&self) {
        self.host.shutdown();
        // Drain the lane before the reactor dies so in-flight durable
        // waits still get to ack (the store's flusher lives until the
        // store Arc drops, so queued waits complete rather than hang).
        self.host.effects().lane.shutdown();
        self.reactor.shutdown();
        self.host.effects().mgr.lock().shutdown();
        // Break the effects → app → host → effects cycle so the node drops.
        *self.host.effects().app.lock() = None;
        for (_, c) in self.host.effects().conns.lock().drain() {
            c.shutdown();
        }
        for (_, p) in self.host.effects().peers.lock().drain() {
            if let PeerState::Up(link) = p {
                link.shutdown();
            }
        }
    }
}

impl Drop for BenefactorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
