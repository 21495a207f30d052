//! Exhaustive wire coverage: one literal value of **every** [`Msg`]
//! variant and every concrete `Wire` type, pushed through roundtrip,
//! truncation, and byte-mutation decoding.
//!
//! The `stdchk-analyze` `wire-msg-coverage` rule checks that each name
//! in the protocol's tag table and each `impl Wire for` target is
//! referenced by this directory — this file is where a new message
//! variant must show up before the linter goes green, which forces the
//! garbage-decode guarantee ("corrupt bytes error, never panic") to
//! extend to every new decoder arm from the day it is merged.

use bytes::Bytes;
use proptest::prelude::*;

use stdchk_proto::chunkmap::{ChunkEntry, ChunkMap, FileVersionView};
use stdchk_proto::codec::Wire;
use stdchk_proto::error::ErrorCode;
use stdchk_proto::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::meta::{MetaRecord, MetaSnapshot, SnapshotChunk, SnapshotFile, SnapshotVersion};
use stdchk_proto::msg::{DedupSummary, DirEntry, FileAttr, Msg, ReplicaCopy, Role, VersionInfo};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

fn attr() -> FileAttr {
    FileAttr {
        size: 4096,
        versions: 3,
        latest: VersionId(7),
        mtime: Time(1_000_000),
        is_dir: false,
    }
}

fn entries() -> Vec<ChunkEntry> {
    vec![
        ChunkEntry {
            id: ChunkId::test_id(1),
            size: 1024,
        },
        ChunkEntry {
            id: ChunkId::test_id(2),
            size: 512,
        },
    ]
}

fn placements() -> Vec<(ChunkId, Vec<NodeId>)> {
    vec![
        (ChunkId::test_id(1), vec![NodeId(4), NodeId(5)]),
        (ChunkId::test_id(2), vec![NodeId(6)]),
    ]
}

/// One literal value per `Msg` variant, in wire-tag order.
fn one_of_each() -> Vec<Msg> {
    let req = RequestId(42);
    vec![
        Msg::Hello {
            role: Role::Benefactor,
            node: NodeId(3),
        },
        Msg::Ack { req },
        Msg::ErrorReply {
            req,
            code: ErrorCode::NotFound,
            detail: String::from("no such path"),
        },
        Msg::Ping { nonce: 9 },
        Msg::Pong { nonce: 9 },
        Msg::CreateFile {
            req,
            client: NodeId(1),
            path: "/app/ckpt.0".into(),
            stripe_width: 4,
            replication: 2,
            expected_chunks: 128,
        },
        Msg::CreateFileOk {
            req,
            file: FileId(10),
            version: VersionId(11),
            reservation: ReservationId(12),
            stripe: vec![NodeId(4), NodeId(5)],
            prev_chunks: entries(),
            chunk_size: 1 << 20,
        },
        Msg::ExtendReservation {
            req,
            reservation: ReservationId(12),
            additional_chunks: 16,
        },
        Msg::ExtendOk {
            req,
            stripe: vec![NodeId(4)],
        },
        Msg::CommitChunkMap {
            req,
            reservation: ReservationId(12),
            entries: entries(),
            placements: placements(),
            pessimistic: true,
            dedup: DedupSummary {
                offered: 2,
                wanted: 1,
                reused_bytes: 1024,
                delta_bytes: 0,
                full_bytes: 512,
            },
        },
        Msg::CommitOk {
            req,
            file: FileId(10),
            version: VersionId(11),
            suggested_interval: Dur::from_nanos(30_000_000_000),
        },
        Msg::AbortWrite {
            req,
            reservation: ReservationId(12),
        },
        Msg::GetFile {
            req,
            path: "/app/ckpt.0".into(),
            version: Some(VersionId(11)),
        },
        Msg::FileViewReply {
            req,
            view: FileVersionView {
                version: VersionId(11),
                map: ChunkMap::from_entries(entries()),
                locations: placements(),
            },
        },
        Msg::ListDir {
            req,
            path: "/app".into(),
        },
        Msg::DirListingReply {
            req,
            entries: vec![DirEntry {
                name: "ckpt.0".into(),
                attr: attr(),
            }],
        },
        Msg::GetAttr {
            req,
            path: "/app/ckpt.0".into(),
        },
        Msg::AttrReply { req, attr: attr() },
        Msg::ListVersions {
            req,
            path: "/app/ckpt.0".into(),
        },
        Msg::VersionListReply {
            req,
            versions: vec![VersionInfo {
                version: VersionId(11),
                size: 4096,
                mtime: Time(1_000_000),
            }],
        },
        Msg::DeleteFile {
            req,
            path: "/app/ckpt.0".into(),
        },
        Msg::SetPolicy {
            req,
            dir: "/app".into(),
            policy: RetentionPolicy::AutomatedReplace { keep_last: 2 },
        },
        Msg::ResolveNodes {
            req,
            nodes: vec![NodeId(4), NodeId(5)],
        },
        Msg::NodeAddrsReply {
            req,
            addrs: vec![(NodeId(4), String::from("127.0.0.1:4000"))],
        },
        Msg::OfferChunks {
            req,
            reservation: ReservationId(12),
            entries: entries(),
        },
        Msg::WantChunks {
            req,
            wanted: vec![0, 1],
        },
        Msg::JoinRequest {
            req,
            addr: "127.0.0.1:5000".into(),
            total_space: 1 << 30,
        },
        Msg::JoinOk {
            req,
            node: NodeId(4),
            heartbeat_every: Dur::from_nanos(5_000_000_000),
        },
        Msg::Heartbeat {
            node: NodeId(4),
            free_space: 1 << 29,
            total_space: 1 << 30,
            addr: "127.0.0.1:5000".into(),
        },
        Msg::HeartbeatAck {
            node: NodeId(4),
            gc_due: true,
        },
        Msg::GcReport {
            req,
            node: NodeId(4),
            chunks: vec![ChunkId::test_id(1)],
        },
        Msg::GcReply {
            req,
            deletable: vec![ChunkId::test_id(2)],
        },
        Msg::ReplicateCmd {
            job: 77,
            copies: vec![ReplicaCopy {
                chunk: ChunkId::test_id(1),
                target: NodeId(5),
            }],
        },
        Msg::ReplicateReport {
            job: 77,
            node: NodeId(4),
            done: vec![ReplicaCopy {
                chunk: ChunkId::test_id(1),
                target: NodeId(5),
            }],
            failed: vec![],
        },
        Msg::DeleteChunks {
            chunks: vec![ChunkId::test_id(2)],
        },
        Msg::PutChunk {
            req,
            chunk: ChunkId::test_id(1),
            size: 4,
            data: Bytes::from_static(b"data"),
            background: false,
        },
        Msg::PutChunkOk {
            req,
            chunk: ChunkId::test_id(1),
            node: NodeId(4),
        },
        Msg::GetChunk {
            req,
            chunk: ChunkId::test_id(1),
        },
        Msg::GetChunkOk {
            req,
            chunk: ChunkId::test_id(1),
            size: 4,
            data: Bytes::from_static(b"data"),
        },
        Msg::DeltaPutChunk {
            req,
            chunk: ChunkId::test_id(3),
            basis: ChunkId::test_id(1),
            size: 4,
            delta: Bytes::from_static(b"\x01\x02"),
        },
    ]
}

/// The protocol's full tag table. A variant added to `msg_tags!` without
/// a matching entry in [`one_of_each`] fails the completeness test
/// below (and the analyzer's `wire-msg-coverage` rule names it).
const ALL_TAGS: &[u8] = &[
    0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
    30, 40, 41, 42, 43, 44, 45, 46, 47, 48, 60, 61, 62, 63, 64,
];

#[test]
fn one_of_each_covers_every_wire_tag() {
    let mut tags: Vec<u8> = one_of_each().iter().map(Msg::wire_tag).collect();
    tags.sort_unstable();
    assert_eq!(tags, ALL_TAGS, "one_of_each() out of sync with msg_tags!");
}

#[test]
fn every_variant_roundtrips() {
    for m in one_of_each() {
        let bytes = m.to_wire_bytes();
        let back = Msg::from_wire_bytes(&bytes)
            .unwrap_or_else(|e| panic!("tag {} failed to decode: {e:?}", m.wire_tag()));
        assert_eq!(m, back, "tag {} did not roundtrip", m.wire_tag());
    }
}

#[test]
fn every_truncation_errors_without_panic() {
    // Every strict prefix of every encoding must produce a clean error:
    // a truncated frame is the normal shape of a torn WAL tail or a cut
    // connection, never a panic.
    for m in one_of_each() {
        let bytes = m.to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Msg::from_wire_bytes(&bytes[..cut]).is_err(),
                "tag {} decoded from a {cut}-byte prefix of {} bytes",
                m.wire_tag(),
                bytes.len()
            );
        }
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_wire_bytes();
    assert_eq!(v, &T::from_wire_bytes(&bytes).expect("decode"));
}

#[test]
fn primitive_and_aggregate_wire_impls_roundtrip() {
    roundtrip(&0x5au8);
    roundtrip(&0xdead_beefu32);
    roundtrip(&0x0123_4567_89ab_cdefu64);
    roundtrip(&true);
    roundtrip(&String::from("π/2 and a \0 byte"));
    roundtrip(&Bytes::from_static(b"\x00\x01\xff"));
    roundtrip(&ChunkId::test_id(99));
    roundtrip(&Time(123_456_789));
    roundtrip(&Dur::from_nanos(42));
    roundtrip(&Role::Manager);
    roundtrip(&ErrorCode::Unavailable);
    roundtrip(&attr());
    roundtrip(&DirEntry {
        name: "x".into(),
        attr: attr(),
    });
    roundtrip(&VersionInfo {
        version: VersionId(1),
        size: 2,
        mtime: Time(3),
    });
    roundtrip(&ReplicaCopy {
        chunk: ChunkId::test_id(1),
        target: NodeId(2),
    });
    roundtrip(&DedupSummary::default());
    roundtrip(&ChunkEntry {
        id: ChunkId::test_id(1),
        size: 7,
    });
    roundtrip(&RetentionPolicy::AutomatedPurge {
        after: Dur::from_nanos(1),
    });
}

fn snapshot() -> MetaSnapshot {
    MetaSnapshot {
        next_node: 5,
        next_file: 11,
        next_version: 12,
        benefactors: vec![(NodeId(4), String::from("127.0.0.1:5000"), 1 << 30)],
        files: vec![SnapshotFile {
            path: "/app/ckpt.0".into(),
            id: FileId(10),
            replication: 2,
            versions: vec![SnapshotVersion {
                version: VersionId(11),
                mtime: Time(1_000_000),
                entries: entries(),
            }],
        }],
        dirs: vec![(String::from("/app"), RetentionPolicy::NoIntervention)],
        chunks: vec![SnapshotChunk {
            id: ChunkId::test_id(1),
            size: 1024,
            target: 2,
            locations: vec![NodeId(4), NodeId(5)],
        }],
    }
}

#[test]
fn meta_snapshot_and_records_roundtrip() {
    roundtrip(&snapshot());
    let records = vec![
        MetaRecord::Commit {
            path: "/app/ckpt.0".into(),
            file: FileId(10),
            version: VersionId(11),
            mtime: Time(1_000_000),
            entries: entries(),
            placements: placements(),
            replication: 2,
        },
        MetaRecord::Prune {
            path: "/app/ckpt.0".into(),
            versions: vec![VersionId(9)],
        },
        MetaRecord::Delete {
            path: "/app/ckpt.0".into(),
        },
        MetaRecord::SetPolicy {
            dir: "/app".into(),
            policy: RetentionPolicy::AutomatedReplace { keep_last: 2 },
        },
        MetaRecord::Benefactor {
            node: NodeId(4),
            addr: "127.0.0.1:5000".into(),
            total: 1 << 30,
        },
        MetaRecord::Churn {
            node: NodeId(4),
            session: Dur::from_nanos(60_000_000_000),
        },
    ];
    for r in &records {
        roundtrip(r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Single-byte corruption of a valid encoding of any variant must
    // decode to Ok (an accidental valid reading) or Err — never panic,
    // never hang. Exercises every decoder arm with near-valid input,
    // which random byte soup essentially never reaches.
    #[test]
    fn mutated_encodings_never_panic(
        which in 0..one_of_each().len(),
        pos_seed in any::<usize>(),
        xor in 1u8..255,
    ) {
        let mut bytes = one_of_each()[which].to_wire_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        let _ = Msg::from_wire_bytes(&bytes);
    }

    // Same, for the WAL snapshot decoder (bit rot that still passes the
    // log CRC must surface as an error).
    #[test]
    fn mutated_snapshot_never_panics(pos_seed in any::<usize>(), xor in 1u8..255) {
        let mut bytes = snapshot().to_wire_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        let _ = MetaSnapshot::from_wire_bytes(&bytes);
    }
}
