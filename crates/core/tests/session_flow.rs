//! End-to-end protocol flows with all state machines wired together through
//! an in-memory router: manager + benefactors + write/read sessions.
//!
//! These tests exercise the same code paths the real network driver and the
//! simulator drive, with instant "I/O": every action is fulfilled
//! immediately and messages are delivered in FIFO order.

use std::collections::{HashMap, VecDeque};

use stdchk_core::payload::Payload;
use stdchk_core::session::read::ReadSession;
use stdchk_core::session::write::{
    OpenGrant, SessionConfig, SessionState, WriteProtocol, WriteSession,
};
use stdchk_core::{
    Action, Benefactor, BenefactorConfig, Completion, Manager, Node, PoolConfig, MANAGER_NODE,
};
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::{Dur, Time};

const CLIENT: NodeId = NodeId(9000);

struct Pool {
    mgr: Manager,
    benefactors: HashMap<NodeId, Benefactor>,
    /// Driver-side blob store per benefactor (what `Store`/`Load` act on).
    blobs: HashMap<NodeId, HashMap<ChunkId, Payload>>,
    /// Messages in flight: (from, to, msg).
    queue: VecDeque<(NodeId, NodeId, Msg)>,
    /// Benefactors that silently drop everything (crash simulation).
    dead: Vec<NodeId>,
    now: Time,
    put_count: u64,
    next_session: u64,
}

impl Pool {
    fn new(n_benefactors: usize) -> Pool {
        let mut cfg = PoolConfig::fast_for_tests();
        cfg.chunk_size = 1024;
        let mut pool = Pool {
            mgr: Manager::new(cfg),
            benefactors: HashMap::new(),
            blobs: HashMap::new(),
            queue: VecDeque::new(),
            dead: Vec::new(),
            now: Time::ZERO,
            put_count: 0,
            next_session: 10,
        };
        for i in 0..n_benefactors {
            let id = NodeId(100 + i as u64);
            pool.benefactors.insert(
                id,
                Benefactor::new(id, 64 << 20, BenefactorConfig::fast_for_tests()),
            );
            pool.blobs.insert(id, HashMap::new());
            // Register through a heartbeat (simulator-style implicit join).
            pool.queue.push_back((
                id,
                MANAGER_NODE,
                Msg::Heartbeat {
                    node: id,
                    free_space: 64 << 20,
                    total_space: 64 << 20,
                    addr: String::new(),
                },
            ));
        }
        pool.run(None);
        pool
    }

    fn benefactor_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<_> = self.benefactors.keys().copied().collect();
        v.sort();
        v
    }

    /// Executes benefactor `id`'s queued actions, feeding completions back.
    fn pump_benefactor(&mut self, id: NodeId) {
        let b = self.benefactors.get_mut(&id).expect("benefactor");
        let blobs = self.blobs.get_mut(&id).expect("blob store");
        while let Some(a) = b.poll_action() {
            match a {
                Action::Send { to, msg } => self.queue.push_back((id, to, msg)),
                Action::Store { op, chunk, payload } => {
                    blobs.insert(chunk, payload);
                    b.handle_completion(Completion::Stored { op }, self.now);
                }
                Action::Load { op, chunk, .. } => {
                    let payload = blobs.get(&chunk).cloned().expect("load of stored chunk");
                    b.handle_completion(Completion::Loaded { op, chunk, payload }, self.now);
                }
                Action::DropChunk { chunk } => {
                    blobs.remove(&chunk);
                }
                other => panic!("benefactor never emits {other:?}"),
            }
        }
    }

    /// Queues the manager's replies for delivery.
    fn pump_manager(&mut self) {
        while let Some(a) = self.mgr.poll_action() {
            match a {
                Action::Send { to, msg } => self.queue.push_back((MANAGER_NODE, to, msg)),
                other => panic!("manager without a log emitted {other:?}"),
            }
        }
    }

    /// Sends `msg` from the client to the manager and returns its reply.
    fn ask_manager(&mut self, msg: Msg) -> Msg {
        self.mgr.handle(CLIENT, msg, self.now);
        match self.mgr.drain_actions().into_iter().next() {
            Some(Action::Send { msg, .. }) => msg,
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// Routes queued messages until quiescent. Client-addressed messages go
    /// to `session` when provided.
    fn run(&mut self, mut session: Option<&mut Session>) {
        let mut guard = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "message storm");
            if self.dead.contains(&to) || self.dead.contains(&from) {
                continue; // crashed node: drop silently
            }
            if to == MANAGER_NODE {
                self.mgr.handle(from, msg, self.now);
                self.pump_manager();
            } else if to == CLIENT {
                if let Some(s) = session.as_deref_mut() {
                    s.deliver(self, from, msg);
                }
            } else if let Some(b) = self.benefactors.get_mut(&to) {
                if matches!(msg, Msg::PutChunk { .. }) {
                    self.put_count += 1;
                }
                b.handle(from, msg, self.now);
                self.pump_benefactor(to);
            }
        }
    }

    fn tick_all(&mut self, session: Option<&mut Session>) {
        self.mgr.handle_timeout(self.now);
        self.pump_manager();
        let ids = self.benefactor_ids();
        for id in ids {
            if self.dead.contains(&id) {
                continue;
            }
            let b = self.benefactors.get_mut(&id).expect("benefactor");
            b.handle_timeout(self.now);
            self.pump_benefactor(id);
        }
        self.run(session);
    }

    fn advance(&mut self, d: Dur, session: Option<&mut Session>) {
        self.now += d;
        self.tick_all(session);
    }

    /// Opens a write session via the manager.
    fn open(&mut self, path: &str, cfg: SessionConfig, replication: u32) -> Session {
        let grant = match self.ask_manager(Msg::CreateFile {
            req: RequestId(1),
            client: CLIENT,
            path: path.to_string(),
            stripe_width: 4,
            replication,
            expected_chunks: 4,
        }) {
            Msg::CreateFileOk {
                file,
                version,
                reservation,
                stripe,
                prev_chunks,
                chunk_size,
                ..
            } => OpenGrant {
                path: path.to_string(),
                file,
                version,
                reservation,
                stripe,
                prev_chunks,
                chunk_size,
                reserved_chunks: 4,
            },
            other => panic!("open failed: {other:?}"),
        };
        self.next_session += 1;
        Session {
            inner: WriteSession::new(self.next_session, CLIENT, grant, cfg, self.now),
            stage: HashMap::new(),
            saw_put_before_close: false,
            discards: 0,
        }
    }
}

/// Client-side driver state around a WriteSession.
struct Session {
    inner: WriteSession,
    /// Driver-owned stage: offset → payload.
    stage: HashMap<u64, Payload>,
    saw_put_before_close: bool,
    discards: usize,
}

impl Session {
    /// Executes the session's queued actions, feeding completions back.
    fn pump(&mut self, pool: &mut Pool) {
        while let Some(a) = self.inner.poll_action() {
            let done = match a {
                Action::Send { to, msg } => {
                    if matches!(msg, Msg::PutChunk { .. })
                        && self.inner.state() == SessionState::Open
                    {
                        self.saw_put_before_close = true;
                    }
                    let Msg::PutChunk { req, .. } = msg else {
                        pool.queue.push_back((CLIENT, to, msg));
                        continue;
                    };
                    if pool.dead.contains(&to) {
                        // Destination dead: the transport reports failure.
                        Completion::SendFailed { req }
                    } else {
                        // The message leaves the client instantly.
                        pool.queue.push_back((CLIENT, to, msg));
                        Completion::SendDone { req }
                    }
                }
                Action::StageAppend {
                    op,
                    offset,
                    payload,
                } => {
                    self.stage.insert(offset, payload);
                    Completion::StageAppended { op }
                }
                Action::StageFetch { op, offset, .. } => {
                    let payload = self.stage.get(&offset).cloned().expect("staged data");
                    Completion::StageFetched { op, payload }
                }
                Action::StageDiscard { upto } => {
                    self.discards += 1;
                    self.stage.retain(|off, _| *off >= upto);
                    continue;
                }
                other => panic!("write session never emits {other:?}"),
            };
            self.inner.handle_completion(done, pool.now);
        }
    }

    fn deliver(&mut self, pool: &mut Pool, from: NodeId, msg: Msg) {
        self.inner.handle(from, msg, pool.now);
        self.pump(pool);
    }

    fn write(&mut self, pool: &mut Pool, data: &[u8]) {
        self.inner.write_slice(data, pool.now);
        self.pump(pool);
        pool.run(Some(self));
    }

    fn close(&mut self, pool: &mut Pool) {
        self.inner.close(pool.now);
        self.pump(pool);
        pool.run(Some(self));
    }
}

fn session_new(pool: &mut Pool, path: &str, cfg: SessionConfig, repl: u32) -> Session {
    pool.open(path, cfg, repl)
}

/// Reads a file back through a ReadSession and returns its bytes.
fn read_back(pool: &mut Pool, path: &str) -> Vec<u8> {
    let view = match pool.ask_manager(Msg::GetFile {
        req: RequestId(999),
        path: path.to_string(),
        version: None,
    }) {
        Msg::FileViewReply { view, .. } => view,
        other => panic!("get failed: {other:?}"),
    };
    let mut rs = ReadSession::new(2, view, 4);
    let mut result = Vec::new();
    let mut guard = 0;
    while !rs.is_done() {
        guard += 1;
        assert!(guard < 100_000, "read stuck");
        if let Some(Action::Send { to, msg }) = rs.poll_action() {
            // Serve the GetChunk through the benefactor SM; its replies
            // go straight back to the client.
            let b = pool.benefactors.get_mut(&to).expect("holder");
            b.handle(CLIENT, msg, pool.now);
            pool.pump_benefactor(to);
            while let Some((from, c, reply)) = pool.queue.pop_front() {
                assert_eq!(c, CLIENT);
                rs.handle(from, reply, pool.now);
            }
        }
        while let Some((_, p)) = rs.next_ready() {
            result.extend_from_slice(&p.bytes());
        }
    }
    result
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    // Aperiodic content so chunks are distinct unless a test makes them not.
    (0..len)
        .map(|i| stdchk_util::mix64(seed as u64 ^ (i as u64).wrapping_mul(0x9e37)) as u8)
        .collect()
}

fn sw_cfg() -> SessionConfig {
    SessionConfig {
        protocol: WriteProtocol::SlidingWindow { buffer: 16 << 20 },
        ..SessionConfig::default()
    }
}

#[test]
fn sliding_window_write_then_read_roundtrip() {
    let mut pool = Pool::new(4);
    let mut s = session_new(&mut pool, "/app/ck.n1", sw_cfg(), 1);
    let data = pattern(5000, 1);
    for piece in data.chunks(700) {
        s.write(&mut pool, piece);
    }
    s.close(&mut pool);
    assert!(s.inner.is_done(), "state: {:?}", s.inner.state());
    assert!(s.inner.app_close_returned());
    let stats = s.inner.stats();
    assert_eq!(stats.bytes_written, 5000);
    assert_eq!(stats.bytes_stored, 5000);
    pool.mgr.check_invariants();
    assert_eq!(read_back(&mut pool, "/app/ck.n1"), data);
}

/// Regression: a sliding window smaller than one offer batch must still
/// make progress. Held offers count against `buffered`, so if partial
/// batches only flushed at OFFER_BATCH or close, a 4-chunk window would
/// deadlock with the writer: offers waiting for more writes, writes
/// waiting for the window those held offers occupy.
#[test]
fn sliding_window_smaller_than_offer_batch_keeps_moving() {
    let mut pool = Pool::new(4);
    let cfg = SessionConfig {
        protocol: WriteProtocol::SlidingWindow { buffer: 4 * 1024 },
        ..SessionConfig::default()
    };
    let mut s = session_new(&mut pool, "/app/small-window.n1", cfg, 1);
    let data = pattern(40 * 1024, 7); // 40 chunks through a 4-chunk window
    let mut off = 0;
    let mut guard = 0;
    while off < data.len() {
        guard += 1;
        assert!(guard < 10_000, "writer stuck");
        let w = s.inner.writable() as usize;
        if w == 0 {
            // Everything in flight has already resolved (the harness runs
            // the pool to quiescence inside `write`), so a blocked window
            // means offers are stranded behind the batch threshold.
            pool.run(Some(&mut s));
            assert!(
                s.inner.writable() > 0,
                "window never reopened: partial offer batch not flushed"
            );
            continue;
        }
        let n = w.min(data.len() - off).min(700);
        s.write(&mut pool, &data[off..off + n]);
        off += n;
    }
    s.close(&mut pool);
    assert!(s.inner.is_done(), "state: {:?}", s.inner.state());
    let stats = s.inner.stats();
    assert_eq!(stats.bytes_written, 40 * 1024);
    pool.mgr.check_invariants();
    assert_eq!(read_back(&mut pool, "/app/small-window.n1"), data);
}

#[test]
fn complete_local_write_pushes_only_after_close() {
    let mut pool = Pool::new(3);
    let cfg = SessionConfig {
        protocol: WriteProtocol::CompleteLocal,
        ..SessionConfig::default()
    };
    let mut s = session_new(&mut pool, "/clw", cfg, 1);
    let data = pattern(4096, 2);
    for piece in data.chunks(512) {
        s.write(&mut pool, piece);
    }
    assert!(!s.saw_put_before_close, "CLW must not push before close");
    assert_eq!(pool.put_count, 0);
    s.close(&mut pool);
    assert!(s.inner.is_done());
    assert_eq!(read_back(&mut pool, "/clw"), data);
}

#[test]
fn incremental_write_overlaps_push_with_writing() {
    let mut pool = Pool::new(3);
    let cfg = SessionConfig {
        protocol: WriteProtocol::Incremental { temp_size: 2048 },
        ..SessionConfig::default()
    };
    let mut s = session_new(&mut pool, "/iw", cfg, 1);
    let data = pattern(8192, 3);
    for piece in data.chunks(512) {
        s.write(&mut pool, piece);
    }
    assert!(
        s.saw_put_before_close,
        "IW must push sealed temps while writing continues"
    );
    s.close(&mut pool);
    assert!(s.inner.is_done());
    assert!(s.discards > 0, "IW should discard pushed temps");
    assert_eq!(read_back(&mut pool, "/iw"), data);
}

#[test]
fn dedup_skips_transfer_of_unchanged_chunks() {
    let mut pool = Pool::new(3);
    let data = pattern(4096, 4);
    // Version 1: everything is new.
    let mut s1 = session_new(
        &mut pool,
        "/app/x",
        SessionConfig {
            dedup: true,
            ..sw_cfg()
        },
        1,
    );
    s1.write(&mut pool, &data);
    s1.close(&mut pool);
    assert!(s1.inner.is_done());
    let puts_v1 = pool.put_count;
    assert!(puts_v1 > 0);
    // Version 2: identical content — zero transfers.
    let mut s2 = session_new(
        &mut pool,
        "/app/x",
        SessionConfig {
            dedup: true,
            ..sw_cfg()
        },
        1,
    );
    s2.write(&mut pool, &data);
    s2.close(&mut pool);
    assert!(s2.inner.is_done(), "state: {:?}", s2.inner.state());
    assert_eq!(
        pool.put_count, puts_v1,
        "identical version must transfer nothing"
    );
    let st = s2.inner.stats();
    assert_eq!(st.bytes_stored, 0);
    assert_eq!(st.bytes_deduped, st.bytes_written);
    pool.mgr.check_invariants();
    // Both versions readable; v2 shares v1's chunks.
    assert_eq!(read_back(&mut pool, "/app/x"), data);
}

#[test]
fn partial_dedup_transfers_only_changed_chunks() {
    let mut pool = Pool::new(3);
    let mut data = pattern(4096, 5);
    let mut s1 = session_new(
        &mut pool,
        "/app/y",
        SessionConfig {
            dedup: true,
            ..sw_cfg()
        },
        1,
    );
    s1.write(&mut pool, &data);
    s1.close(&mut pool);
    let puts_v1 = pool.put_count;
    // Dirty one chunk (chunk size is 1024).
    data[2048] ^= 0xff;
    let mut s2 = session_new(
        &mut pool,
        "/app/y",
        SessionConfig {
            dedup: true,
            ..sw_cfg()
        },
        1,
    );
    s2.write(&mut pool, &data);
    s2.close(&mut pool);
    assert!(s2.inner.is_done());
    assert_eq!(pool.put_count - puts_v1, 1, "exactly one chunk re-shipped");
    assert_eq!(read_back(&mut pool, "/app/y"), data);
}

#[test]
fn benefactor_failure_mid_write_retries_elsewhere() {
    let mut pool = Pool::new(4);
    let mut s = session_new(&mut pool, "/resilient", sw_cfg(), 1);
    // Kill one stripe member before any data flows.
    let victim = pool.benefactor_ids()[1];
    pool.dead.push(victim);
    let data = pattern(6144, 6);
    for piece in data.chunks(1024) {
        s.write(&mut pool, piece);
    }
    s.close(&mut pool);
    assert!(s.inner.is_done(), "state: {:?}", s.inner.state());
    assert_eq!(read_back(&mut pool, "/resilient"), data);
}

#[test]
fn reservation_extension_kicks_in_for_long_files() {
    let mut pool = Pool::new(3);
    // Initial reservation covers 4 chunks; write 12.
    let mut s = session_new(&mut pool, "/long", sw_cfg(), 1);
    let data = pattern(12 * 1024, 7);
    for piece in data.chunks(1024) {
        s.write(&mut pool, piece);
    }
    s.close(&mut pool);
    assert!(s.inner.is_done(), "state: {:?}", s.inner.state());
    assert_eq!(read_back(&mut pool, "/long"), data);
}

#[test]
fn pessimistic_close_waits_for_replication() {
    let mut pool = Pool::new(4);
    let cfg = SessionConfig {
        pessimistic: true,
        ..sw_cfg()
    };
    let mut s = session_new(&mut pool, "/safe", cfg, 2);
    let data = pattern(3072, 8);
    s.write(&mut pool, &data);
    s.close(&mut pool);
    // The in-memory pool executes replication inline, so by quiescence the
    // session is done AND every chunk has two replicas.
    assert!(s.inner.is_done(), "state: {:?}", s.inner.state());
    let out = pool.ask_manager(Msg::GetFile {
        req: RequestId(55),
        path: "/safe".into(),
        version: None,
    });
    match &out {
        Msg::FileViewReply { view, .. } => {
            for (c, locs) in &view.locations {
                assert!(locs.len() >= 2, "chunk {c} has {} replicas", locs.len());
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    pool.mgr.check_invariants();
}

#[test]
fn gc_reclaims_orphans_after_aborted_session() {
    let mut pool = Pool::new(2);
    let mut s = session_new(&mut pool, "/aborted", sw_cfg(), 1);
    let data = pattern(2048, 10);
    s.write(&mut pool, &data);
    // Client dies without closing: chunks are on benefactors, no commit.
    let stored_before: usize = pool.blobs.values().map(|m| m.len()).sum();
    assert!(stored_before > 0);
    drop(s);
    // Time passes: reservation expires, GC grace elapses, GC runs.
    for _ in 0..10 {
        pool.advance(Dur::from_millis(120), None);
    }
    let stored_after: usize = pool.blobs.values().map(|m| m.len()).sum();
    assert_eq!(stored_after, 0, "orphaned chunks must be collected");
    pool.mgr.check_invariants();
}

#[test]
fn oab_and_asb_are_ordered() {
    let mut pool = Pool::new(3);
    let mut s = session_new(&mut pool, "/metrics", sw_cfg(), 1);
    s.write(&mut pool, &pattern(4096, 11));
    pool.now += Dur::from_millis(5);
    s.close(&mut pool);
    let st = s.inner.stats();
    let close_at = st.app_close_at.expect("closed");
    let done_at = st.done_at.expect("done");
    assert!(close_at <= done_at);
    assert!(st.oab().is_some());
    assert!(st.asb().is_some());
}
