//! Property tests: randomized messages round-trip through the wire codec,
//! and arbitrary byte soup never panics the decoder.

use bytes::Bytes;
use proptest::prelude::*;

use stdchk_proto::chunkmap::{ChunkEntry, ChunkMap, FileVersionView};
use stdchk_proto::codec::Wire;
use stdchk_proto::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::msg::{DedupSummary, FileAttr, Msg, ReplicaCopy, Role};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

fn arb_chunk_id() -> impl Strategy<Value = ChunkId> {
    any::<u64>().prop_map(ChunkId::test_id)
}

fn arb_entry() -> impl Strategy<Value = ChunkEntry> {
    (any::<u64>(), 0u32..(8 << 20)).prop_map(|(n, size)| ChunkEntry {
        id: ChunkId::test_id(n),
        size,
    })
}

fn arb_placements() -> impl Strategy<Value = Vec<(ChunkId, Vec<NodeId>)>> {
    proptest::collection::vec(
        (
            arb_chunk_id(),
            proptest::collection::vec(any::<u64>().prop_map(NodeId), 0..4),
        ),
        0..8,
    )
}

fn arb_policy() -> impl Strategy<Value = RetentionPolicy> {
    prop_oneof![
        Just(RetentionPolicy::NoIntervention),
        any::<u32>().prop_map(|k| RetentionPolicy::AutomatedReplace { keep_last: k }),
        any::<u64>().prop_map(|n| RetentionPolicy::AutomatedPurge {
            after: Dur::from_nanos(n)
        }),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<ChunkEntry>> {
    proptest::collection::vec(arb_entry(), 0..16)
}

fn arb_dedup() -> impl Strategy<Value = DedupSummary> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(offered, wanted, reused, delta, full)| DedupSummary {
            offered,
            wanted,
            reused_bytes: reused,
            delta_bytes: delta,
            full_bytes: full,
        })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), 0u8..3).prop_map(|(n, r)| Msg::Hello {
            role: match r {
                0 => Role::Client,
                1 => Role::Benefactor,
                _ => Role::Manager,
            },
            node: NodeId(n),
        }),
        any::<u64>().prop_map(|r| Msg::Ack { req: RequestId(r) }),
        (any::<u64>(), ".*").prop_map(|(r, path)| Msg::GetFile {
            req: RequestId(r),
            path,
            version: None,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            ".*",
            0u32..64,
            0u32..8,
            0u32..1024
        )
            .prop_map(|(r, c, path, sw, rep, exp)| Msg::CreateFile {
                req: RequestId(r),
                client: NodeId(c),
                path,
                stripe_width: sw,
                replication: rep,
                expected_chunks: exp,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            arb_entries(),
            arb_placements(),
            any::<bool>(),
            arb_dedup()
        )
            .prop_map(
                |(r, res, entries, placements, p, dedup)| Msg::CommitChunkMap {
                    req: RequestId(r),
                    reservation: ReservationId(res),
                    entries,
                    placements,
                    pessimistic: p,
                    dedup,
                },
            ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(r, f, v, g)| {
            Msg::CommitOk {
                req: RequestId(r),
                file: FileId(f),
                version: VersionId(v),
                suggested_interval: Dur::from_nanos(g),
            }
        }),
        (
            any::<u64>(),
            arb_chunk_id(),
            proptest::collection::vec(any::<u8>(), 0..2048),
            any::<bool>()
        )
            .prop_map(|(r, c, data, bg)| Msg::PutChunk {
                req: RequestId(r),
                chunk: c,
                size: data.len() as u32,
                data: Bytes::from(data),
                background: bg,
            }),
        (any::<u64>(), arb_entries(), arb_placements(), any::<u64>()).prop_map(
            |(r, entries, locations, v)| {
                Msg::FileViewReply {
                    req: RequestId(r),
                    view: FileVersionView {
                        version: VersionId(v),
                        map: ChunkMap::from_entries(entries),
                        locations,
                    },
                }
            }
        ),
        (any::<u64>(), ".*", arb_policy()).prop_map(|(r, dir, policy)| Msg::SetPolicy {
            req: RequestId(r),
            dir,
            policy,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_chunk_id(), 0..64)
        )
            .prop_map(|(r, n, chunks)| Msg::GcReport {
                req: RequestId(r),
                node: NodeId(n),
                chunks,
            }),
        (
            any::<u64>(),
            proptest::collection::vec((arb_chunk_id(), any::<u64>()), 0..16)
        )
            .prop_map(|(job, pairs)| Msg::ReplicateCmd {
                job,
                copies: pairs
                    .into_iter()
                    .map(|(chunk, t)| ReplicaCopy {
                        chunk,
                        target: NodeId(t),
                    })
                    .collect(),
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(r, size, versions, mtime, is_dir)| Msg::AttrReply {
                req: RequestId(r),
                attr: FileAttr {
                    size,
                    versions,
                    latest: VersionId(1),
                    mtime: Time(mtime),
                    is_dir,
                },
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn msg_roundtrip(m in arb_msg()) {
        let bytes = m.to_wire_bytes();
        let back = Msg::from_wire_bytes(&bytes).expect("roundtrip decode");
        prop_assert_eq!(m, back);
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Must return Ok or Err, never panic.
        let _ = Msg::from_wire_bytes(&data);
    }

    #[test]
    fn meta_record_decoder_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        // WAL payloads go through the same codec; corrupt bytes that pass
        // the log CRC (bit rot) must error, never panic or OOM.
        let _ = stdchk_proto::meta::MetaRecord::from_wire_bytes(&data);
        let _ = stdchk_proto::meta::MetaSnapshot::from_wire_bytes(&data);
    }
}
