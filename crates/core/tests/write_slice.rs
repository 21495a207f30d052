//! `WriteSession::write_slice` against `WriteSession::write`: the borrowed
//! path the networked client takes must ask for exactly what the owned
//! path asks for, action by action, under every protocol.
//!
//! A scripted harness answers each session the same way: every send
//! completes and every put is acked at once, the manager wants the offered
//! chunks whose id starts with an even byte, and the stage is a map.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use stdchk_chunker::delta::ChunkSignature;
use stdchk_core::payload::{ChunkBuffers, Payload};
use stdchk_core::session::write::{
    OpenGrant, SessionConfig, SessionState, WriteProtocol, WriteSession,
};
use stdchk_core::{Action, Completion, Node, MANAGER_NODE};
use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::{ChunkId, FileId, NodeId, ReservationId, VersionId};
use stdchk_proto::msg::Msg;
use stdchk_util::{mix64, Dur, Time};

const CLIENT: NodeId = NodeId(9000);
const CHUNK: usize = 8192;
const STRIPE: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

/// One effect a session asked for, with staged bytes spelled out.
#[derive(Debug, PartialEq)]
enum Effect {
    Send(NodeId, Msg),
    StageAppend {
        op: u64,
        offset: u64,
        bytes: Vec<u8>,
    },
    StageFetch {
        op: u64,
        offset: u64,
        len: u32,
    },
    StageDiscard {
        upto: u64,
    },
}

/// A session plus the scripted world around it.
struct Scripted {
    session: WriteSession,
    stage: HashMap<u64, Payload>,
    replies: VecDeque<(NodeId, Msg)>,
    log: Vec<Effect>,
}

impl Scripted {
    fn new(cfg: SessionConfig, prev: &[u8]) -> Scripted {
        let prev_chunks: Vec<ChunkEntry> = prev
            .chunks(CHUNK)
            .map(|c| ChunkEntry {
                id: ChunkId::for_content(c),
                size: c.len() as u32,
            })
            .collect();
        let grant = OpenGrant {
            path: "/eq/ckpt".into(),
            file: FileId(7),
            version: VersionId(2),
            reservation: ReservationId(11),
            stripe: STRIPE.to_vec(),
            prev_chunks: prev_chunks.clone(),
            chunk_size: CHUNK as u32,
            reserved_chunks: 4,
        };
        let negotiate = cfg.negotiate;
        let mut session = WriteSession::new(3, CLIENT, grant, cfg, Time::ZERO);
        if negotiate {
            // Every previous chunk is a delta basis stored on stripe node 2.
            session.set_basis_signatures(
                prev.chunks(CHUNK)
                    .map(|c| (ChunkId::for_content(c), ChunkSignature::of(c)))
                    .collect(),
            );
            session.set_basis_placements(
                prev_chunks
                    .iter()
                    .map(|e| (e.id, vec![STRIPE[1]]))
                    .collect(),
            );
        }
        Scripted {
            session,
            stage: HashMap::new(),
            replies: VecDeque::new(),
            log: Vec::new(),
        }
    }

    /// Runs the session's actions and the scripted replies to quiescence.
    fn settle(&mut self) {
        let now = Time::ZERO;
        loop {
            while let Some(a) = self.session.poll_action() {
                let done = match a {
                    Action::Send { to, msg } => {
                        let done = self.answer(to, &msg);
                        self.log.push(Effect::Send(to, msg));
                        match done {
                            Some(c) => c,
                            None => continue,
                        }
                    }
                    Action::StageAppend {
                        op,
                        offset,
                        payload,
                    } => {
                        self.log.push(Effect::StageAppend {
                            op,
                            offset,
                            bytes: payload.bytes().to_vec(),
                        });
                        self.stage.insert(offset, payload);
                        Completion::StageAppended { op }
                    }
                    Action::StageFetch { op, offset, len } => {
                        self.log.push(Effect::StageFetch { op, offset, len });
                        let payload = self.stage.get(&offset).cloned().expect("staged");
                        Completion::StageFetched { op, payload }
                    }
                    Action::StageDiscard { upto } => {
                        self.log.push(Effect::StageDiscard { upto });
                        continue;
                    }
                    other => panic!("write session never emits {other:?}"),
                };
                self.session.handle_completion(done, now);
            }
            let Some((from, msg)) = self.replies.pop_front() else {
                return;
            };
            self.session.handle(from, msg, now);
        }
    }

    /// Queues the scripted reply to `msg` and returns the send's
    /// completion, if it has one.
    fn answer(&mut self, to: NodeId, msg: &Msg) -> Option<Completion> {
        let reply = match msg {
            Msg::PutChunk { req, chunk, .. } | Msg::DeltaPutChunk { req, chunk, .. } => {
                self.replies.push_back((
                    to,
                    Msg::PutChunkOk {
                        req: *req,
                        chunk: *chunk,
                        node: to,
                    },
                ));
                return Some(Completion::SendDone { req: *req });
            }
            Msg::OfferChunks { req, entries, .. } => Msg::WantChunks {
                req: *req,
                wanted: (0..entries.len() as u32)
                    .filter(|&i| entries[i as usize].id.0[0].is_multiple_of(2))
                    .collect(),
            },
            Msg::ExtendReservation { req, .. } => Msg::ExtendOk {
                req: *req,
                stripe: Vec::new(),
            },
            Msg::CommitChunkMap { req, .. } => Msg::CommitOk {
                req: *req,
                file: FileId(7),
                version: VersionId(2),
                suggested_interval: Dur::ZERO,
            },
            _ => return None,
        };
        self.replies.push_back((MANAGER_NODE, reply));
        None
    }
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| mix64(seed ^ (i << 8)) as u8)
        .collect()
}

/// The previous version and an image that edits some of its chunks,
/// repeats chunks inside one call (2 = 5 = 6), repeats chunk 1, which
/// spans the first three calls (9 = 1), and ends with a partial chunk.
fn images() -> (Vec<u8>, Vec<u8>) {
    let prev = noise(1, 23 * CHUNK + 3000);
    let mut image = prev.clone();
    for c in [0usize, 3, 8, 12, 13, 20] {
        let at = c * CHUNK + 1000 + c * 37;
        image[at..at + 100].copy_from_slice(&noise(c as u64 + 100, 100));
    }
    image[17 * CHUNK..18 * CHUNK].copy_from_slice(&noise(99, CHUNK));
    let two = image[2 * CHUNK..3 * CHUNK].to_vec();
    image[5 * CHUNK..6 * CHUNK].copy_from_slice(&two);
    image[6 * CHUNK..7 * CHUNK].copy_from_slice(&two);
    let one = image[CHUNK..2 * CHUNK].to_vec();
    image[9 * CHUNK..10 * CHUNK].copy_from_slice(&one);
    (prev, image)
}

/// Write calls: one spanning a chunk boundary, a one-byte call, one with
/// many whole chunks (the repeats among them), and the rest.
const CUTS: [usize; 5] = [0, 10_000, 10_001, 15 * CHUNK + 77, usize::MAX];

fn configs() -> Vec<(&'static str, SessionConfig)> {
    let base = SessionConfig::default();
    vec![
        (
            "SW, negotiated",
            SessionConfig {
                protocol: WriteProtocol::SlidingWindow { buffer: 1 << 30 },
                negotiate: true,
                ..base.clone()
            },
        ),
        (
            "SW, negotiated, dedup",
            SessionConfig {
                protocol: WriteProtocol::SlidingWindow { buffer: 1 << 30 },
                negotiate: true,
                dedup: true,
                ..base.clone()
            },
        ),
        (
            "SW, plain",
            SessionConfig {
                protocol: WriteProtocol::SlidingWindow { buffer: 1 << 30 },
                max_inflight_puts: 4,
                ..base.clone()
            },
        ),
        (
            "CLW, negotiated, dedup",
            SessionConfig {
                protocol: WriteProtocol::CompleteLocal,
                negotiate: true,
                dedup: true,
                ..base.clone()
            },
        ),
        (
            "IW",
            SessionConfig {
                protocol: WriteProtocol::Incremental {
                    temp_size: 4 * CHUNK as u64,
                },
                ..base
            },
        ),
    ]
}

#[test]
fn write_slice_emits_what_write_of_a_copy_emits() {
    let (prev, image) = images();
    for (name, cfg) in configs() {
        let mut owned = Scripted::new(cfg.clone(), &prev);
        let mut sliced = Scripted::new(cfg, &prev);
        // Copies of chunks the manager does not want hand their buffers
        // back mid-session, and later copies of bulk calls reuse them.
        sliced
            .session
            .set_chunk_buffers(ChunkBuffers::new(4 * CHUNK as u64));
        for w in CUTS.windows(2) {
            let piece = &image[w[0]..w[1].min(image.len())];
            owned
                .session
                .write(Payload::real(piece.to_vec()), Time::ZERO);
            owned.settle();
            sliced.session.write_slice(piece, Time::ZERO);
            sliced.settle();
            assert_eq!(sliced.log, owned.log, "{name}: after write of {w:?}");
        }
        for s in [&mut owned, &mut sliced] {
            s.session.close(Time::ZERO);
            s.settle();
            assert_eq!(s.session.state(), SessionState::Done, "{name}");
        }
        assert_eq!(sliced.log, owned.log, "{name}: after close");
        assert_eq!(sliced.session.entries(), owned.session.entries(), "{name}");
        let ids: Vec<ChunkId> = image.chunks(CHUNK).map(ChunkId::for_content).collect();
        let committed: Vec<ChunkId> = sliced.session.entries().iter().map(|e| e.id).collect();
        assert_eq!(committed, ids, "{name}");
        let commits = sliced
            .log
            .iter()
            .filter(|e| matches!(e, Effect::Send(_, Msg::CommitChunkMap { .. })))
            .count();
        assert_eq!(commits, 1, "{name}");
        // The wire sees the same bytes either way.
        let (a, b) = (owned.session.stats(), sliced.session.stats());
        assert_eq!(
            (a.wire_full_bytes, a.wire_delta_bytes, a.wire_reused_bytes),
            (b.wire_full_bytes, b.wire_delta_bytes, b.wire_reused_bytes),
            "{name}"
        );
        if name.starts_with("SW, negotiated") {
            assert!(b.wire_delta_bytes > 0, "{name}: no delta shipped");
        }
    }
}

#[test]
fn a_chunk_repeated_inside_one_call_is_routed_once() {
    let a = noise(5, CHUNK);
    let b = noise(6, CHUNK);
    let image = [&a[..], &b, &a, &a, &b].concat();
    let a_id = ChunkId::for_content(&a);
    for negotiate in [false, true] {
        let cfg = SessionConfig {
            protocol: WriteProtocol::SlidingWindow { buffer: 1 << 30 },
            negotiate,
            ..SessionConfig::default()
        };
        let mut s = Scripted::new(cfg, &[]);
        s.session.write_slice(&image, Time::ZERO);
        s.settle();
        s.session.close(Time::ZERO);
        s.settle();
        assert_eq!(s.session.state(), SessionState::Done);
        let offered = s
            .log
            .iter()
            .filter_map(|e| match e {
                Effect::Send(_, Msg::OfferChunks { entries, .. }) => Some(entries),
                _ => None,
            })
            .flatten()
            .filter(|e| e.id == a_id)
            .count();
        let puts = s
            .log
            .iter()
            .filter(|e| matches!(e, Effect::Send(_, Msg::PutChunk { chunk, .. }) if *chunk == a_id))
            .count();
        let wanted = a_id.0[0].is_multiple_of(2);
        assert_eq!(offered, usize::from(negotiate), "negotiate={negotiate}");
        assert_eq!(
            puts,
            usize::from(!negotiate || wanted),
            "negotiate={negotiate}"
        );
        let stats = s.session.stats();
        assert_eq!(stats.chunks_total, 5);
        assert!(stats.chunks_deduped >= 3, "negotiate={negotiate}");
        assert_eq!(s.session.entries().len(), 5);
    }
}

#[test]
fn sessions_sharing_buffers_reuse_them_and_ship_the_right_bytes() {
    const CHUNKS: usize = 6;
    let buffers = ChunkBuffers::new(64 * CHUNK as u64);
    let cfg = SessionConfig {
        protocol: WriteProtocol::SlidingWindow { buffer: 1 << 30 },
        ..SessionConfig::default()
    };
    let mut prev = Vec::new();
    for v in 0..3u64 {
        let image = noise(v + 40, CHUNKS * CHUNK);
        let mut s = Scripted::new(cfg.clone(), &prev);
        s.session.set_chunk_buffers(Arc::clone(&buffers));
        s.session.write_slice(&image, Time::ZERO);
        s.settle();
        s.session.close(Time::ZERO);
        s.settle();
        assert_eq!(s.session.state(), SessionState::Done, "version {v}");
        let puts: Vec<(ChunkId, Vec<u8>)> = s
            .log
            .iter()
            .filter_map(|e| match e {
                Effect::Send(_, Msg::PutChunk { chunk, data, .. }) => Some((*chunk, data.to_vec())),
                _ => None,
            })
            .collect();
        let want: Vec<(ChunkId, Vec<u8>)> = image
            .chunks(CHUNK)
            .map(|c| (ChunkId::for_content(c), c.to_vec()))
            .collect();
        assert_eq!(puts, want, "version {v}");
        drop(s);
        // Every copy came back, and each version reused the buffers the
        // one before handed back instead of adding its own.
        assert_eq!(buffers.idle_bytes(), (CHUNKS * CHUNK) as u64, "version {v}");
        prev = image;
    }
    // A call holding one whole chunk copies it into a buffer of its own.
    let mut s = Scripted::new(cfg, &prev);
    s.session.set_chunk_buffers(Arc::clone(&buffers));
    s.session.write_slice(&noise(50, CHUNK), Time::ZERO);
    s.settle();
    assert!(s
        .log
        .iter()
        .any(|e| matches!(e, Effect::Send(_, Msg::PutChunk { .. }))));
    assert_eq!(buffers.idle_bytes(), (CHUNKS * CHUNK) as u64);
}
