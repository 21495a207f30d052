//! The network stack's global lock-rank table.
//!
//! Every mutex in this crate is a
//! [`stdchk_util::ordlock::OrderedMutex`] carrying one of the ranks
//! below. The discipline — enforced by a debug-build panic at the
//! moment of the wrong acquisition — is that a thread may only take
//! locks in **strictly increasing** rank order. Any two locks this
//! table orders can then never deadlock against each other: a cycle
//! needs two threads acquiring some pair in opposite orders, and one of
//! the two orders is now a panic on every interleaving, not just the
//! unlucky one (this repo's PR 4 route-lock deadlock and PR 9
//! offer-window wedge were both found *late* exactly because nothing
//! checked the order).
//!
//! The bands mirror the call direction of the stack — application
//! registries feed the driver, the driver's effects feed the transport,
//! and the transport's completions feed storage — so a lower band may
//! hold its lock across a call *into* a higher band, never the other
//! way around:
//!
//! | band | locks | why this order |
//! |------|-------|----------------|
//! | 100s | client grid (routes, benefactor links, address cache, delta signatures, session, stage) | client callbacks/user threads send while holding at most one of these |
//! | 200s | server apps + effects (identity maps, WAL outbox, link registries, peer table, resolver) | the manager's outbox drains (transmits) while held → must precede link registries and the transport |
//! | 500s | reactor (listeners, conn registry, per-conn decoder/outbound, dead-conn stats, blocking-lane queue) | sends from any lower band end here |
//! | 600s | storage (segment-store shared state, metalog, group commit, I/O lane queue) | `compact` marks durability (group commit) while holding the store's shared state; each log's flusher takes its owner's state lock, then the group-commit lock, one at a time |
//! | 650s | driver ([`NodeHost`](crate::NodeHost) node / turn order) | the durable manager's snapshotter captures node state *while holding* the metalog install turnstile and tail, so the node ranks above storage; `pump` nests order inside the node lock; no path holds the node lock across a send or a storage acquisition (effects execute after the pump releases it) |
//! | 700s | join/snapshotter handle registries | shutdown-only; taken with nothing else held |
//! | 50 | test-local locks | below everything: tests hold them across calls into the stack |
//!
//! Ranks are spaced by 10 so a new lock can slot between neighbors
//! without renumbering. Two locks that genuinely never nest may share a
//! rank, but every lock here gets its own so the table stays an
//! exhaustive inventory.
//!
//! Locks deliberately *not* nested (guard dropped before the next
//! acquisition) still appear in ascending order where practical, so an
//! accidental future nesting is legal-by-table or an immediate panic —
//! never silently order-dependent.

// Client grid (client.rs). No two of these nest today (the PR 4 fix
// dropped the benefactor-links guard before sending); the order below
// makes the failover path legal: route take → link lookup → session
// pump, each re-acquired in its own statement.
/// `GridApp.conns`: reactor-token → grid routing for shared runtimes.
pub const CLIENT_APP_CONNS: u16 = 100;
/// `GridInner.routes`: request-id → reply route (RPC or session slot).
pub const CLIENT_ROUTES: u16 = 110;
/// `GridInner.benefs`: benefactor data-plane links (up or dialing).
pub const CLIENT_BENEFS: u16 = 120;
/// `GridInner.addr_cache`: node-id → address resolutions.
pub const CLIENT_ADDR_CACHE: u16 = 130;
/// `GridInner.signatures`: per-path delta bases from prior writes.
pub const CLIENT_SIGNATURES: u16 = 140;
/// `SessionShared.session`: one write/read session's state machine.
pub const CLIENT_SESSION: u16 = 150;
/// `SessionShared.stage`: the session's local spill file.
pub const CLIENT_STAGE: u16 = 160;

// Manager server (manager_server.rs). The nesting that fixes this
// band's internal order: `route_inbound` binds identities (conns) while
// holding the per-connection identity map, and `drain_outbox` transmits
// (conns, then the transport) while holding the outbox.
/// `MgrApp.bound`: per-connection bound-identity stacks.
pub const MGR_BOUND: u16 = 200;
/// `MgrEffects.outbox`: WAL-ordered reply release queue.
pub const MGR_OUTBOX: u16 = 210;
/// `MgrEffects.conns`: node-id → live link registry.
pub const MGR_CONNS: u16 = 220;

// Benefactor server (benefactor_server.rs). `Send` effects transmit
// while holding the manager link; everything else here is taken and
// dropped in its own statement.
/// `BenefApp.kinds`: reactor-token → connection role.
pub const BENEF_KINDS: u16 = 230;
/// `BenefEffects.mgr`: the manager control-plane link.
pub const BENEF_MGR: u16 = 240;
/// `BenefEffects.conns`: inbound data-connection registry.
pub const BENEF_CONNS: u16 = 250;
/// `BenefEffects.peers`: outbound replication links (up or dialing).
pub const BENEF_PEERS: u16 = 260;
/// `BenefEffects.resolver`: the blocking manager RPC sideband (held
/// across its blocking round-trip; acquires nothing further).
pub const BENEF_RESOLVER: u16 = 270;
/// `BenefEffects.app`: the reactor-app registry (peer dial routing,
/// I/O-lane completions).
pub const BENEF_APP: u16 = 280;

// Reactor transport (reactor.rs). Workers take the conn
// registry then a per-conn lock; `close_conn` and `transport_stats`
// take the dead-conn stats while holding the registry; app callbacks
// always run with every reactor lock released.
/// `Inner.listeners`: armed listener registry.
pub const REACTOR_LISTENERS: u16 = 500;
/// `Inner.conns`: token → connection registry.
pub const REACTOR_CONNS: u16 = 510;
/// `ConnShared.dec`: per-connection frame decoder.
pub const REACTOR_DEC: u16 = 520;
/// `ConnShared.out`: per-connection outbound queue (sends end here).
pub const REACTOR_OUT: u16 = 530;
/// `Inner.dead_stats`: folded stats of closed connections.
pub const REACTOR_DEAD_STATS: u16 = 540;
/// `Inner.jobs`: the blocking dial lane's delayed-job queue.
pub const REACTOR_JOBS: u16 = 550;

// Storage engines (store/, metalog.rs, log.rs, iolane.rs). The orders
// that matter: segment compaction marks durability while holding the
// store's shared state; the metalog's installer holds its turnstile
// across capture+rotate; lane workers run jobs with nothing held.
/// `MetaLog.install_mx`: snapshot-install turnstile.
pub const METALOG_INSTALL: u16 = 590;
/// `SegmentStore`'s shared state: index, liveness and its segmented log.
pub const STORE_SHARED: u16 = 600;
/// `MemStore.blobs`: the in-memory chunk map (test/baseline store).
pub const STORE_MEM: u16 = 605;
/// `MetaLog`'s inner state: its segmented log and ordering state.
pub const METALOG_INNER: u16 = 610;
/// `GroupCommit.commit`: durable/failed watermarks (fsync waits).
pub const GC_COMMIT: u16 = 630;
/// `IoLane` `Inner.jobs`: the bounded blocking-work queue.
pub const IOLANE_JOBS: u16 = 640;

// Driver (driver.rs). Above the storage band: the durable manager's
// snapshot installer captures node state (`host.node`) while holding
// the metalog install turnstile and WAL tail. The reverse direction
// never holds — `pump` releases the node lock before its effects
// execute, so node-held code acquires no transport or storage lock.
// `pump` acquires the turn-order lock inside the node lock.
/// `NodeHost.node`: the protocol state machine.
pub const NODE: u16 = 650;
/// `NodeHost.order`: ordered-host turn tickets.
pub const NODE_ORDER: u16 = 660;

// Shutdown-only handle registries: joined with nothing else held.
/// `Reactor.joins`: worker + blocking-lane thread handles.
pub const REACTOR_JOINS: u16 = 700;
/// `IoLane.joins`: lane worker thread handles.
pub const IOLANE_JOINS: u16 = 710;
/// `ManagerServer.snapshotter`: the snapshot-installer handle.
pub const MGR_SNAPSHOTTER: u16 = 740;

/// Test-local locks (any module's `#[cfg(test)]` helpers): below every
/// production rank, so a test may hold one across a call into the
/// stack (test callbacks acquire them with no production lock held —
/// the reactor releases everything before invoking an app).
pub const TEST: u16 = 50;
