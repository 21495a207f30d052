//! The metadata manager as a TCP server.
//!
//! The sans-IO [`Manager`] is driven entirely through the unified
//! [`Node`](stdchk_core::Node) API. The epoll [`Reactor`] owns every
//! socket with a fixed worker pool — workers decode frames incrementally
//! and `deliver` them, manager maintenance fires from `poll_timeout`
//! folded into `epoll_wait`, and idle connections are reaped. Threads
//! stay O(workers) no matter how many clients and benefactors connect.
//!
//! The only manager-specific code is [`MgrEffects`] — a connection
//! registry that knows how to transmit, plus (for durable managers) the
//! metadata write-ahead log and the disk I/O lane its group-commit waits
//! ride.
//!
//! [`ManagerServer::spawn`] runs a volatile manager: a restart comes back
//! with an empty namespace, and benefactors re-register through their
//! heartbeats. [`ManagerServer::spawn_durable`] attaches a [`MetaLog`]:
//! the manager state machine write-ahead-logs every namespace mutation, a
//! background thread installs periodic snapshots, and a restart replays
//! snapshot + log before accepting its first connection —
//! `stat`/`list`/`open` serve from replayed state immediately.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use stdchk_util::ordlock::OrderedMutex;

use crate::ranks;

use stdchk_core::node::{Action, Completion};
use stdchk_core::{Manager, ManagerStats, PoolConfig};
use stdchk_proto::ids::NodeId;
use stdchk_proto::meta::MetaRecord;
use stdchk_proto::msg::{DedupSummary, Msg, Role};
use stdchk_util::Time;

use crate::conn::{Clock, Link};
use crate::driver::{Effects, NodeHost};
use crate::iolane::IoLane;
use crate::log::SyncDelay;
use crate::metalog::{MetaLog, MetaLogConfig};
use crate::reactor::{CloseReason, ConnOpts, ConnToken, Reactor, ReactorApp, ReactorConfig};
use crate::ServerOpts;

/// Base of the per-connection client node-id namespace (far above any
/// benefactor id the manager will ever assign).
pub const CLIENT_NET_BASE: u64 = 1 << 48;

/// Base of the synthetic id namespace for anonymous helper connections
/// (pre-join benefactors, resolver sidebands). Every connection is bound in
/// the registry under *some* id so any pumping thread can route replies.
pub const HELPER_NET_BASE: u64 = 1 << 49;

/// One drained batch's replies, parked until release.
struct OutboxEntry {
    sends: Vec<(NodeId, Msg)>,
    /// True once the batch's durability (if any) landed; released when
    /// every earlier batch has also been released.
    ready: bool,
}

/// Batch-ordered reply release for durable managers.
///
/// The ordered `NodeHost` executes drained batches strictly in queue
/// order, so entries are *enqueued* in ticket order; the outbox then
/// releases them in exactly that order, with a durable batch's sends
/// held back until its lane-side `wait_appended` completes. That keeps
/// the end-to-end guarantee intact: no send — from any batch — can
/// overtake a WAL append queued ahead of it, even though the pump no
/// longer blocks on the fsync.
#[derive(Default)]
struct Outbox {
    /// Next batch sequence to assign (assigned while batches execute,
    /// which the ordered host serializes).
    next_seq: u64,
    /// Next batch sequence allowed to transmit.
    next_release: u64,
    parked: BTreeMap<u64, OutboxEntry>,
}

/// Effects for the manager: a registry of live connections keyed by node
/// id, plus — for durable managers — the metadata write-ahead log that
/// `MetaAppend` actions land in, and the disk I/O lane its group-commit
/// waits ride on.
pub struct MgrEffects {
    conns: OrderedMutex<HashMap<NodeId, Link>>,
    next_client: AtomicU64,
    next_helper: AtomicU64,
    /// The WAL and the I/O lane its durable waits ride (durable
    /// managers only).
    wal: Option<(Arc<MetaLog>, Arc<IoLane>)>,
    outbox: OrderedMutex<Outbox>,
}

impl MgrEffects {
    fn bind(&self, node: NodeId, conn: &Link) {
        self.conns.lock().insert(node, conn.clone());
    }

    /// Unbinds `node` only while it still points at `conn`: a reconnect may
    /// already have rebound the id to a fresh connection.
    fn unbind_if(&self, node: NodeId, conn: ConnToken) {
        let mut conns = self.conns.lock();
        if conns.get(&node).is_some_and(|c| c.token == conn) {
            conns.remove(&node);
        }
    }
}

impl MgrEffects {
    /// A durable manager's path for one drained batch: append the
    /// records inline (buffered writes — fixing WAL order at submission),
    /// park the replies on the batch's outbox slot, and hand only the
    /// durability *wait* to the lane, whose completion releases the
    /// slot. Batches without records still take a slot so their sends
    /// cannot overtake replies parked behind an earlier batch's fsync.
    ///
    /// Called only from the ordered host's serialized batch execution,
    /// which is what makes `next_seq` assignment the ticket order.
    fn execute_durable(
        self: &Arc<Self>,
        lane: &Arc<IoLane>,
        log: &Arc<MetaLog>,
        records: Vec<(u64, MetaRecord)>,
        sends: Vec<(NodeId, Msg)>,
    ) {
        if records.is_empty() {
            let mut ob = self.outbox.lock();
            let seq = ob.next_seq;
            ob.next_seq += 1;
            ob.parked.insert(seq, OutboxEntry { sends, ready: true });
            self.drain_outbox(&mut ob);
            return;
        }
        let target = match log.submit_append_batch(&records) {
            Ok(t) => t,
            Err(e) => {
                // Fail-stop: the in-memory manager is already ahead of a
                // log that cannot advance.
                eprintln!("stdchk-mgr: fatal: metadata WAL append failed: {e}");
                std::process::abort();
            }
        };
        let seq = {
            let mut ob = self.outbox.lock();
            let seq = ob.next_seq;
            ob.next_seq += 1;
            ob.parked.insert(
                seq,
                OutboxEntry {
                    sends,
                    ready: false,
                },
            );
            seq
        };
        let this = Arc::clone(self);
        let log2 = Arc::clone(log);
        if !lane.submit(move || this.finish_durable(&log2, target, seq)) {
            // Lane already shut down: degrade to the inline wait (the
            // shutdown path; ordering still holds — we are the newest
            // parked entry).
            self.finish_durable(log, target, seq);
        }
    }

    /// Lane job (or shutdown-path inline call): wait out the batch's
    /// group commit, then release its replies — and everything parked
    /// behind them — in batch order.
    fn finish_durable(&self, log: &MetaLog, target: u64, seq: u64) {
        let res = log.wait_appended(target);
        let mut ob = self.outbox.lock();
        let entry = ob.parked.get_mut(&seq).expect("parked batch");
        if res.is_err() {
            if log.is_poisoned() {
                // The flusher hit an I/O error: fail-stop, exactly like
                // a failed append — never ack-then-lose.
                eprintln!("stdchk-mgr: fatal: metadata WAL flush failed");
                std::process::abort();
            }
            // Shutdown race: drop the replies (indistinguishable from a
            // crash before transmission; clients retry), but keep the
            // slot releasing so later entries are not wedged.
            entry.sends.clear();
        }
        entry.ready = true;
        self.drain_outbox(&mut ob);
    }

    /// Transmits every consecutive ready batch from the release cursor.
    /// Runs under the outbox lock: that serializes racing lane
    /// completions, so the global transmit order equals batch order
    /// (sends are bounded nonblocking enqueues on the reactor, so the
    /// hold is short).
    fn drain_outbox(&self, ob: &mut Outbox) {
        while ob
            .parked
            .get(&ob.next_release)
            .is_some_and(|entry| entry.ready)
        {
            let entry = ob.parked.remove(&ob.next_release).expect("checked");
            ob.next_release += 1;
            for (to, msg) in entry.sends {
                self.transmit(to, &msg);
            }
        }
    }

    fn transmit(&self, to: NodeId, msg: &Msg) {
        let conn = self.conns.lock().get(&to).cloned();
        if let Some(conn) = conn {
            if conn.send(msg).is_err() {
                // A failed (or timed-out) send may have left a partial
                // frame on the wire; any further message on this socket
                // would desync the peer's framing. Drop the connection —
                // peers are soft-state and re-register/retry. (The link
                // also fails on backpressure: a peer that stopped
                // draining gets disconnected here.)
                self.unbind_if(to, conn.token);
                conn.shutdown();
            }
        }
        // Peers with no registered connection are dropped: they are
        // soft-state; their timers re-register and re-request.
    }
}

/// Routes one inbound message through the tiny connection handshake: binds
/// the peer's identity (client/benefactor id or
/// a synthetic helper id) in the registry, and returns `Some((from, msg))`
/// when the message should be delivered to the manager node.
///
/// `bound_ids` is the per-connection identity stack; the last entry is the
/// current peer identity and every entry is unbound when the connection
/// dies.
fn route_inbound(
    effects: &MgrEffects,
    bound_ids: &mut Vec<NodeId>,
    conn: &Link,
    msg: Msg,
) -> Option<(NodeId, Msg)> {
    let peer = bound_ids.last().copied();
    match (&msg, peer) {
        (
            Msg::Hello {
                role: Role::Client, ..
            },
            None,
        ) => {
            let id = NodeId(effects.next_client.fetch_add(1, Ordering::Relaxed));
            bound_ids.push(id);
            effects.bind(id, conn);
            // Tell the client its pool identity.
            let _ = conn.send(&Msg::Hello {
                role: Role::Manager,
                node: id,
            });
            None
        }
        (Msg::Hello { node, .. }, None) if *node != NodeId(0) => {
            // Benefactor (or manager peer) announcing an existing id.
            bound_ids.push(*node);
            effects.bind(*node, conn);
            None
        }
        (Msg::Hello { .. }, None) => {
            // Anonymous connection (pre-join benefactor, resolver
            // sideband): bind a synthetic helper id so replies — including
            // the JoinOk that assigns the real id — route through the
            // registry from any thread.
            let id = NodeId(effects.next_helper.fetch_add(1, Ordering::Relaxed));
            bound_ids.push(id);
            effects.bind(id, conn);
            None
        }
        _ => {
            // A heartbeat binds the announcing node id (manager restart:
            // benefactors keep their old ids; post-join benefactors
            // upgrade their helper binding).
            if let Msg::Heartbeat { node, .. } = msg {
                if peer != Some(node) {
                    bound_ids.push(node);
                    effects.bind(node, conn);
                }
            }
            let from = match bound_ids.last().copied() {
                Some(id) => id,
                None => {
                    // No Hello at all: bind a helper id on first use.
                    let id = NodeId(effects.next_helper.fetch_add(1, Ordering::Relaxed));
                    bound_ids.push(id);
                    effects.bind(id, conn);
                    id
                }
            };
            // Commits that rode the have/want negotiation carry their wire
            // accounting; surface the per-commit dedup ratio next to the
            // manager's other operational logging.
            if let Msg::CommitChunkMap {
                reservation, dedup, ..
            } = &msg
            {
                if *dedup != DedupSummary::default() {
                    let moved = dedup.delta_bytes + dedup.full_bytes;
                    let total = dedup.reused_bytes + moved;
                    let pct = if total > 0 {
                        100.0 * moved as f64 / total as f64
                    } else {
                        100.0
                    };
                    eprintln!(
                        "stdchk-mgr: commit {reservation:?} dedup: offered={} wanted={} \
                         reused={}B delta={}B full={}B ({pct:.1}% of logical bytes on wire)",
                        dedup.offered,
                        dedup.wanted,
                        dedup.reused_bytes,
                        dedup.delta_bytes,
                        dedup.full_bytes,
                    );
                }
            }
            Some((from, msg))
        }
    }
}

/// The manager's [`ReactorApp`]: handshake-routes inbound messages into
/// the shared [`NodeHost`], unbinds identities when connections die, and
/// fires the manager's maintenance timers from the reactor's tick.
struct MgrApp {
    host: Arc<NodeHost<Manager, Arc<MgrEffects>>>,
    handle: OnceLock<crate::reactor::WeakHandle>,
    /// Identities bound by each live connection.
    bound: OrderedMutex<HashMap<ConnToken, Vec<NodeId>>>,
}

impl MgrApp {
    fn link(&self, conn: ConnToken) -> Link {
        Link {
            handle: self.handle.get().expect("handle set at spawn").clone(),
            token: conn,
        }
    }
}

impl ReactorApp for MgrApp {
    fn on_accept(&self, conn: ConnToken, _listener: u64) {
        self.bound.lock().insert(conn, Vec::new());
    }

    fn on_msg(&self, conn: ConnToken, msg: Msg) {
        let link = self.link(conn);
        let routed = {
            let mut bound = self.bound.lock();
            let ids = bound.entry(conn).or_default();
            route_inbound(self.host.effects(), ids, &link, msg)
        };
        if let Some((from, msg)) = routed {
            self.host.deliver(from, msg);
        }
    }

    fn on_close(&self, conn: ConnToken, _reason: CloseReason) {
        if let Some(ids) = self.bound.lock().remove(&conn) {
            for id in ids {
                self.host.effects().unbind_if(id, conn);
            }
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        self.host.next_deadline()
    }

    fn on_tick(&self, now: Time) {
        self.host.tick(now);
    }
}

impl Effects for Arc<MgrEffects> {
    /// Single-action path: same semantics as [`Effects::execute_batch`]
    /// (which is the only caller shape the host actually uses), so the
    /// two can never diverge on ordering or failure handling.
    fn execute(&self, action: Action) -> Option<Completion> {
        let mut batch = vec![action];
        let mut completions = Vec::new();
        self.execute_batch(&mut batch, &mut completions);
        debug_assert!(completions.is_empty(), "manager effects yield nothing");
        None
    }

    /// Write-ahead ordering for a whole drained batch: every `MetaAppend`
    /// is appended (one group commit covers them all) **before** any
    /// `Send` executes, so no reply can acknowledge state the log does
    /// not yet hold. Cross-batch order comes from the host: the manager
    /// runs on an *ordered* [`NodeHost`], so batches execute strictly in
    /// queue order and a send can never overtake the append queued ahead
    /// of it in an earlier batch.
    ///
    /// The pump never waits out the group commit: the appends run here
    /// (buffered), the replies park on the batch's outbox slot, and the
    /// disk I/O lane's `wait_appended` completion releases them — still
    /// strictly in batch order (the outbox), so both invariants survive
    /// with the fsync tail off the worker.
    ///
    /// A failed append is fail-stop: the in-memory manager has already
    /// applied mutations the log will never hold, so continuing would
    /// either ack state a restart loses or serve a namespace that
    /// silently diverges from disk forever. Aborting lets the successor
    /// restart from the last durable state (clients retry, exactly as
    /// for a crash).
    fn execute_batch(&self, actions: &mut Vec<Action>, completions: &mut Vec<Completion>) {
        let _ = &completions;
        let mut sends = Vec::with_capacity(actions.len());
        let mut records: Vec<(u64, MetaRecord)> = Vec::new();
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => sends.push((to, msg)),
                Action::MetaAppend { seq, record } => records.push((seq, record)),
                other => unreachable!("manager never requests {other:?}"),
            }
        }
        match &self.wal {
            Some((log, lane)) => self.execute_durable(lane, log, records, sends),
            None => {
                assert!(
                    records.is_empty(),
                    "MetaAppend emitted without an attached MetaLog"
                );
                for (to, msg) in sends {
                    self.transmit(to, &msg);
                }
            }
        }
    }
}

/// A running manager server.
pub struct ManagerServer {
    host: Arc<NodeHost<Manager, Arc<MgrEffects>>>,
    addr: SocketAddr,
    reactor: Reactor,
    /// The snapshot-installer thread (durable mode): joined on shutdown
    /// so its `Arc<MetaLog>` — and with it the log directory `LOCK` —
    /// is released promptly for a successor.
    snapshotter: OrderedMutex<Option<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ManagerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagerServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ManagerServer {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`) and starts serving with
    /// volatile metadata (a restart comes back with an empty namespace),
    /// with [`ServerOpts::default`] transport tuning.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn spawn(listen: &str, cfg: PoolConfig) -> io::Result<ManagerServer> {
        ManagerServer::spawn_with(listen, cfg, ServerOpts::default())
    }

    /// [`ManagerServer::spawn`] with explicit transport tuning (reactor
    /// workers, idle reaping).
    ///
    /// # Errors
    ///
    /// As [`ManagerServer::spawn`].
    pub fn spawn_with(
        listen: &str,
        cfg: PoolConfig,
        opts: ServerOpts,
    ) -> io::Result<ManagerServer> {
        ManagerServer::spawn_inner(listen, cfg, None, opts)
    }

    /// Binds `listen` and starts serving with durable metadata rooted at
    /// `meta_dir`: the manager replays the directory's snapshot + WAL
    /// before accepting its first connection, write-ahead-logs every
    /// further namespace mutation, and installs periodic snapshots so
    /// replay stays bounded.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind, the log directory cannot be
    /// opened/locked, or the recovered log is corrupt.
    pub fn spawn_durable(
        listen: &str,
        cfg: PoolConfig,
        meta_dir: impl AsRef<Path>,
    ) -> io::Result<ManagerServer> {
        ManagerServer::spawn_durable_with(listen, cfg, meta_dir, MetaLogConfig::default())
    }

    /// [`ManagerServer::spawn_durable`] with explicit [`MetaLogConfig`]
    /// tuning (tests use small snapshot thresholds).
    ///
    /// # Errors
    ///
    /// As [`ManagerServer::spawn_durable`].
    pub fn spawn_durable_with(
        listen: &str,
        cfg: PoolConfig,
        meta_dir: impl AsRef<Path>,
        log_cfg: MetaLogConfig,
    ) -> io::Result<ManagerServer> {
        ManagerServer::spawn_durable_tuned(listen, cfg, meta_dir, log_cfg, ServerOpts::default())
    }

    /// [`ManagerServer::spawn_durable_with`] plus explicit transport
    /// tuning.
    ///
    /// # Errors
    ///
    /// As [`ManagerServer::spawn_durable`].
    pub fn spawn_durable_tuned(
        listen: &str,
        cfg: PoolConfig,
        meta_dir: impl AsRef<Path>,
        log_cfg: MetaLogConfig,
        opts: ServerOpts,
    ) -> io::Result<ManagerServer> {
        let (metalog, recovery) = MetaLog::open_with(meta_dir, log_cfg)?;
        ManagerServer::spawn_inner(listen, cfg, Some((Arc::new(metalog), recovery)), opts)
    }

    fn spawn_inner(
        listen: &str,
        cfg: PoolConfig,
        durable: Option<(Arc<MetaLog>, crate::metalog::MetaRecovery)>,
        opts: ServerOpts,
    ) -> io::Result<ManagerServer> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let (clock, metalog, manager) = match durable {
            None => (Clock::new(), None, Manager::new(cfg)),
            Some((metalog, recovery)) => {
                // Resume the protocol clock after the newest replayed
                // timestamp: a fresh zero would put every durable mtime
                // in this incarnation's future, inverting mtime order
                // for new commits and stalling age-based retention.
                let clock =
                    Clock::starting_at(recovery.max_time() + stdchk_util::Dur::from_millis(1));
                let now = clock.now();
                let mut mgr = match &recovery.snapshot {
                    Some(snap) => Manager::restore(cfg, snap, now),
                    None => Manager::new(cfg),
                };
                for record in &recovery.records {
                    mgr.replay(record, now);
                }
                mgr.enable_wal();
                (clock, Some(metalog), mgr)
            }
        };
        // The disk I/O lane: WAL group-commit waits ride it instead of
        // the pump that drained the batch. Only a durable manager has
        // durable waits.
        let wal = metalog.clone().map(|log| (log, Arc::new(IoLane::new())));
        let effects = Arc::new(MgrEffects {
            conns: OrderedMutex::new(ranks::MGR_CONNS, "mgr.conns", HashMap::new()),
            next_client: AtomicU64::new(CLIENT_NET_BASE),
            next_helper: AtomicU64::new(HELPER_NET_BASE),
            wal,
            outbox: OrderedMutex::new(ranks::MGR_OUTBOX, "mgr.outbox", Outbox::default()),
        });
        // Ordered host: WAL appends are queued ahead of the replies they
        // guard, and only in-order batch execution makes that
        // write-ahead across racing reactor workers.
        let host = NodeHost::new_ordered(manager, clock, effects);

        // Maintenance fires from the reactor's tick; no dedicated timer
        // thread.
        let app = Arc::new(MgrApp {
            host: Arc::clone(&host),
            handle: OnceLock::new(),
            bound: OrderedMutex::new(ranks::MGR_BOUND, "mgr.bound", HashMap::new()),
        });
        let reactor = Reactor::new(
            clock,
            Arc::clone(&app) as Arc<dyn ReactorApp>,
            ReactorConfig {
                workers: opts.workers,
            },
        )?;
        let _ = app.handle.set(reactor.handle().downgrade());
        reactor
            .handle()
            .add_listener(listener, 0, ConnOpts::server_default(opts.idle_timeout))?;

        // Snapshot installer: once the WAL tail grows past the configured
        // threshold, serialize the manager and compact the log. The
        // snapshot is captured inside `install_with` — under the log's
        // append lock — so it is guaranteed to cover every record in the
        // segments the install prunes; see `MetaLog::install_with` for
        // why the resulting fuzziness (effects of not-yet-appended
        // records) is safe to replay.
        let snapshotter = metalog.map(|metalog| {
            let host = Arc::clone(&host);
            thread::Builder::new()
                .name("stdchk-mgr-snapshot".into())
                .spawn(move || {
                    while !host.is_shutdown() {
                        if metalog.wants_snapshot() {
                            let res = metalog.install_with(|| host.with_node(|m| m.snapshot()));
                            if let Err(e) = res {
                                eprintln!("stdchk-mgr: snapshot install failed: {e}");
                            }
                        }
                        // Short slices so shutdown (which joins this
                        // thread to release the log LOCK) is quick.
                        for _ in 0..5 {
                            if host.is_shutdown() {
                                return;
                            }
                            thread::sleep(Duration::from_millis(20));
                        }
                    }
                })
                .expect("spawn snapshotter")
        });

        Ok(ManagerServer {
            host,
            addr,
            reactor,
            snapshotter: OrderedMutex::new(ranks::MGR_SNAPSHOTTER, "mgr.snapshotter", snapshotter),
        })
    }

    /// The bound address clients and benefactors dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current manager counters.
    pub fn stats(&self) -> ManagerStats {
        self.host.with_node(|m| m.stats())
    }

    /// Metadata-WAL records appended since the last installed snapshot
    /// (`None` for a volatile manager). Tests observe snapshot cadence
    /// with this.
    pub fn meta_wal_tail(&self) -> Option<u64> {
        self.host
            .effects()
            .wal
            .as_ref()
            .map(|(log, _)| log.records_since_snapshot())
    }

    /// The metadata WAL's [`SyncDelay`] fault-injection handle (`None`
    /// for a volatile manager). Test/bench instrumentation: inject an
    /// fsync delay or failure into the WAL flusher to observe that disk
    /// tails do not propagate to unrelated connections.
    pub fn meta_sync_faults(&self) -> Option<SyncDelay> {
        self.host
            .effects()
            .wal
            .as_ref()
            .map(|(log, _)| log.sync_faults())
    }

    /// Cumulative wire-dedup ledger (offered/wanted chunks, reused /
    /// delta / full bytes). Durable managers rebuild it from `Dedup`
    /// WAL records on restart.
    pub fn dedup_totals(&self) -> stdchk_core::DedupTotals {
        self.host.with_node(|m| m.dedup_totals())
    }

    /// Online benefactor count (for tests and examples).
    pub fn online_benefactors(&self) -> usize {
        self.host.with_node(|m| m.online_benefactors())
    }

    /// Runs the manager's metadata invariant audit.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.host.with_node(|m| m.check_invariants());
    }

    /// Stops accepting and ticking, and joins every thread the manager
    /// started: the reactor's workers, the snapshotter (so a durable
    /// manager's log directory `LOCK` is released promptly for a
    /// successor) and the I/O lane.
    pub fn shutdown(&self) {
        self.host.shutdown();
        self.reactor.shutdown();
        for (_, conn) in self.host.effects().conns.lock().drain() {
            conn.shutdown();
        }
        if let Some(h) = self.snapshotter.lock().take() {
            let _ = h.join();
        }
        // Drain the I/O lane last: the MetaLog (and its flusher, which
        // the queued waits depend on) is still alive — it drops with the
        // effects, after this returns.
        if let Some((_, lane)) = &self.host.effects().wal {
            lane.shutdown();
        }
    }
}

impl Drop for ManagerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
