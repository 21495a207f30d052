//! Drives a manager, benefactors, and client sessions through one generic
//! effect executor over `&mut dyn Node`: it fulfils every [`Action`]
//! variant and feeds [`Completion`]s back without knowing which role it
//! is driving.
//!
//! This is the contract the real drivers (`stdchk-net`, `stdchk-sim`) build
//! on; if the protocol round-trips here, a driver only has to execute
//! actions faithfully.

use std::collections::{HashMap, VecDeque};

use stdchk_core::node::{Action, Completion, Node};
use stdchk_core::payload::Payload;
use stdchk_core::session::read::ReadSession;
use stdchk_core::session::write::{
    OpenGrant, SessionConfig, SessionState, WriteProtocol, WriteSession,
};
use stdchk_core::{Benefactor, BenefactorConfig, Manager, PoolConfig, MANAGER_NODE};
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::{Dur, Time};

const CLIENT: NodeId = NodeId(7_000);

/// In-flight wire messages: `(from, to, msg)`.
type Wire = VecDeque<(NodeId, NodeId, Msg)>;

/// The generic driver core: drains `poll_action` and fulfils every effect
/// against in-memory stores, feeding completions straight back. Identical
/// code runs the manager, a benefactor, or a client session — that is the
/// point of the unified API.
fn drain_node(
    node: &mut dyn Node,
    me: NodeId,
    now: Time,
    mut blobs: Option<&mut HashMap<ChunkId, Payload>>,
    mut stage: Option<&mut HashMap<u64, Payload>>,
    wire: &mut Wire,
) {
    while let Some(action) = node.poll_action() {
        match action {
            Action::Send { to, msg } => {
                // The message leaves this node instantly; report the
                // transport handoff so OAB accounting can close.
                let req = msg.request_id();
                wire.push_back((me, to, msg));
                if let Some(req) = req {
                    node.handle_completion(Completion::SendDone { req }, now);
                }
            }
            Action::Store { op, chunk, payload } => {
                blobs
                    .as_mut()
                    .expect("node has a blob store")
                    .insert(chunk, payload);
                node.handle_completion(Completion::Stored { op }, now);
            }
            Action::Load { op, chunk, .. } => {
                let payload = blobs
                    .as_mut()
                    .expect("node has a blob store")
                    .get(&chunk)
                    .cloned()
                    .expect("load of stored chunk");
                node.handle_completion(Completion::Loaded { op, chunk, payload }, now);
            }
            Action::DropChunk { chunk } => {
                blobs
                    .as_mut()
                    .expect("node has a blob store")
                    .remove(&chunk);
            }
            Action::StageAppend {
                op,
                offset,
                payload,
            } => {
                stage
                    .as_mut()
                    .expect("node has a stage")
                    .insert(offset, payload);
                node.handle_completion(Completion::StageAppended { op }, now);
            }
            Action::StageFetch { op, offset, .. } => {
                let payload = stage
                    .as_mut()
                    .expect("node has a stage")
                    .get(&offset)
                    .cloned()
                    .expect("staged bytes present");
                node.handle_completion(Completion::StageFetched { op, payload }, now);
            }
            Action::StageDiscard { upto } => {
                stage
                    .as_mut()
                    .expect("node has a stage")
                    .retain(|off, _| *off >= upto);
            }
            Action::MetaAppend { .. } => {
                // This driver runs volatile managers; a record would only
                // appear if a test enabled the WAL, and then it is simply
                // not persisted.
            }
        }
    }
}

struct Harness {
    now: Time,
    mgr: Manager,
    benefs: Vec<Benefactor>,
    blobs: Vec<HashMap<ChunkId, Payload>>,
    wire: Wire,
}

/// Client-side state for one write session driven through the trait.
struct ClientWrite {
    session: WriteSession,
    stage: HashMap<u64, Payload>,
}

impl Harness {
    fn new(n_benefactors: usize) -> Harness {
        let mut cfg = PoolConfig::fast_for_tests();
        cfg.chunk_size = 1024;
        let mut h = Harness {
            now: Time::ZERO,
            mgr: Manager::new(cfg),
            benefs: (0..n_benefactors)
                .map(|i| {
                    Benefactor::new(
                        NodeId(1 + i as u64),
                        64 << 20,
                        BenefactorConfig::fast_for_tests(),
                    )
                })
                .collect(),
            blobs: vec![HashMap::new(); n_benefactors],
            wire: VecDeque::new(),
        };
        // Benefactors announce themselves through their own timers: every
        // pre-assigned node's first `handle_timeout` emits a heartbeat.
        h.fire_due_timers();
        h.run(None, None);
        h
    }

    /// Fires `handle_timeout` on every node whose `poll_timeout` is due.
    fn fire_due_timers(&mut self) {
        if self.mgr.poll_timeout().is_some_and(|t| t <= self.now) {
            self.mgr.handle_timeout(self.now);
            drain_node(
                &mut self.mgr,
                MANAGER_NODE,
                self.now,
                None,
                None,
                &mut self.wire,
            );
        }
        for (i, b) in self.benefs.iter_mut().enumerate() {
            if b.poll_timeout().is_some_and(|t| t <= self.now) {
                let me = b.id();
                b.handle_timeout(self.now);
                drain_node(
                    b,
                    me,
                    self.now,
                    Some(&mut self.blobs[i]),
                    None,
                    &mut self.wire,
                );
            }
        }
    }

    /// Routes queued messages until quiescent, delivering client-addressed
    /// messages to the active session (if any).
    fn run(&mut self, mut w: Option<&mut ClientWrite>, mut r: Option<&mut ReadSession>) {
        let mut guard = 0;
        while let Some((from, to, msg)) = self.wire.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "message storm");
            if to == MANAGER_NODE {
                self.mgr.handle(from, msg, self.now);
                drain_node(
                    &mut self.mgr,
                    MANAGER_NODE,
                    self.now,
                    None,
                    None,
                    &mut self.wire,
                );
            } else if to == CLIENT {
                if let Some(cw) = w.as_deref_mut() {
                    cw.session.handle(from, msg, self.now);
                    drain_node(
                        &mut cw.session,
                        CLIENT,
                        self.now,
                        None,
                        Some(&mut cw.stage),
                        &mut self.wire,
                    );
                } else if let Some(rs) = r.as_deref_mut() {
                    rs.handle(from, msg, self.now);
                    drain_node(rs, CLIENT, self.now, None, None, &mut self.wire);
                }
            } else if let Some(i) = self.benefs.iter().position(|b| b.id() == to) {
                self.benefs[i].handle(from, msg, self.now);
                drain_node(
                    &mut self.benefs[i],
                    to,
                    self.now,
                    Some(&mut self.blobs[i]),
                    None,
                    &mut self.wire,
                );
            }
        }
    }

    fn advance(&mut self, d: Dur) {
        self.now += d;
        self.fire_due_timers();
        self.run(None, None);
    }

    /// Opens a write session by exchanging `CreateFile` through the trait.
    fn open(&mut self, path: &str, protocol: WriteProtocol) -> ClientWrite {
        self.mgr.handle(
            CLIENT,
            Msg::CreateFile {
                req: RequestId(1),
                client: CLIENT,
                path: path.to_string(),
                stripe_width: 2,
                replication: 1,
                expected_chunks: 4,
            },
            self.now,
        );
        let grant = loop {
            let Some(a) = self.mgr.poll_action() else {
                panic!("manager never answered CreateFile");
            };
            match a {
                Action::Send {
                    to,
                    msg:
                        Msg::CreateFileOk {
                            file,
                            version,
                            reservation,
                            stripe,
                            prev_chunks,
                            chunk_size,
                            ..
                        },
                } => {
                    assert_eq!(to, CLIENT);
                    break OpenGrant {
                        path: path.to_string(),
                        file,
                        version,
                        reservation,
                        stripe,
                        prev_chunks,
                        chunk_size,
                        reserved_chunks: 4,
                    };
                }
                Action::Send { to, msg } => self.wire.push_back((MANAGER_NODE, to, msg)),
                other => panic!("unexpected action {other:?}"),
            }
        };
        let cfg = SessionConfig {
            protocol,
            ..SessionConfig::default()
        };
        ClientWrite {
            session: WriteSession::new(42, CLIENT, grant, cfg, self.now),
            stage: HashMap::new(),
        }
    }

    /// Writes `data` through a session and commits, all via the trait.
    fn write_file(&mut self, path: &str, protocol: WriteProtocol, data: &[u8]) {
        let mut cw = self.open(path, protocol);
        for piece in data.chunks(700) {
            cw.session.write(Payload::real(piece.to_vec()), self.now);
            drain_node(
                &mut cw.session,
                CLIENT,
                self.now,
                None,
                Some(&mut cw.stage),
                &mut self.wire,
            );
            self.run(Some(&mut cw), None);
        }
        cw.session.close(self.now);
        drain_node(
            &mut cw.session,
            CLIENT,
            self.now,
            None,
            Some(&mut cw.stage),
            &mut self.wire,
        );
        self.run(Some(&mut cw), None);
        assert_eq!(
            cw.session.state(),
            SessionState::Done,
            "session must commit through the trait"
        );
    }

    /// Reads `path` back through a `ReadSession` driven via the trait.
    fn read_file(&mut self, path: &str) -> Vec<u8> {
        self.mgr.handle(
            CLIENT,
            Msg::GetFile {
                req: RequestId(2),
                path: path.to_string(),
                version: None,
            },
            self.now,
        );
        let view = match self.mgr.poll_action() {
            Some(Action::Send {
                msg: Msg::FileViewReply { view, .. },
                ..
            }) => view,
            other => panic!("expected file view, got {other:?}"),
        };
        let mut rs = ReadSession::new(43, view, 4);
        let mut out = Vec::new();
        let mut guard = 0;
        while !rs.is_done() {
            guard += 1;
            assert!(guard < 100_000, "read stuck");
            // poll_action fills the read-ahead window lazily.
            drain_node(&mut rs, CLIENT, self.now, None, None, &mut self.wire);
            self.run(None, Some(&mut rs));
            while let Some((_, p)) = rs.next_ready() {
                out.extend_from_slice(&p.bytes());
            }
        }
        out
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| stdchk_util::mix64(seed as u64 ^ (i as u64).wrapping_mul(0x9e37)) as u8)
        .collect()
}

#[test]
fn full_exchange_through_node_trait_sliding_window() {
    let mut h = Harness::new(3);
    assert_eq!(h.mgr.online_benefactors(), 3, "heartbeats registered");
    let data = pattern(5000, 1);
    h.write_file(
        "/nt/sw",
        WriteProtocol::SlidingWindow { buffer: 16 << 20 },
        &data,
    );
    h.mgr.check_invariants();
    assert_eq!(h.read_file("/nt/sw"), data);
}

#[test]
fn full_exchange_through_node_trait_staged_protocols() {
    // CLW and IW exercise the Stage* actions of the unified enum.
    let mut h = Harness::new(3);
    let data = pattern(4096, 2);
    h.write_file("/nt/clw", WriteProtocol::CompleteLocal, &data);
    assert_eq!(h.read_file("/nt/clw"), data);
    let data2 = pattern(8192, 3);
    h.write_file(
        "/nt/iw",
        WriteProtocol::Incremental { temp_size: 2048 },
        &data2,
    );
    assert_eq!(h.read_file("/nt/iw"), data2);
    h.mgr.check_invariants();
}

#[test]
fn poll_timeout_schedules_heartbeats_and_expiry() {
    let mut h = Harness::new(2);
    // Every node advertises a next deadline.
    assert!(
        h.mgr.poll_timeout().is_some(),
        "manager has periodic sweeps"
    );
    for b in &h.benefs {
        let t = b.poll_timeout().expect("benefactor heartbeats");
        assert!(t > h.now, "already-fired timers must re-arm in the future");
    }
    let before = h.mgr.stats().transactions;
    // Following poll_timeout keeps heartbeats flowing...
    for _ in 0..4 {
        let next = h
            .benefs
            .iter()
            .filter_map(|b| b.poll_timeout())
            .min()
            .expect("deadline");
        let d = next.since(h.now);
        h.advance(d);
    }
    assert!(h.mgr.stats().transactions > before, "heartbeats arrived");
    assert_eq!(h.mgr.online_benefactors(), 2);
    // ...and starving the timers expires the benefactors.
    h.now += Dur::from_secs(30);
    h.mgr.handle_timeout(h.now);
    assert_eq!(h.mgr.online_benefactors(), 0, "silent donors expire");
}
