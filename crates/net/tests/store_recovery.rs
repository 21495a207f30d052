//! Crash-recovery and model-based tests of the segment-log chunk store.
//!
//! The durability contract under test: every chunk whose `put` returned
//! `Ok` (i.e. was *acked* to the writer) must survive a process crash —
//! including a crash that tore the record being appended at that moment —
//! and `ids()`/`entries()` after reopen must list exactly the acked,
//! undeleted chunks. The property test drives a [`SegmentStore`] through
//! random put/get/delete interleavings (with periodic reopens standing in
//! for crashes) against [`MemStore`] as the executable model.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::Write;

use proptest::prelude::*;

use stdchk_net::store::{ChunkStore, MemStore, SegmentStore, SegmentStoreConfig};
use stdchk_proto::ids::ChunkId;
use stdchk_util::mix64;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stdchk-recov-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn chunk(seed: u64, len: usize) -> (ChunkId, Vec<u8>) {
    let data: Vec<u8> = (0..len)
        .map(|i| (mix64(seed ^ i as u64) & 0xFF) as u8)
        .collect();
    (ChunkId::for_content(&data), data)
}

/// The acceptance-criterion scenario: a store holding acked chunks crashes
/// mid-append (torn tail record); on reopen every previously-acked chunk is
/// served and the torn suffix is gone.
#[test]
fn reopened_store_with_torn_tail_serves_every_acked_chunk() {
    let dir = tmp("torn-acked");
    let cfg = SegmentStoreConfig {
        segment_bytes: 256 << 10,
        ..Default::default()
    };
    let mut acked = Vec::new();
    {
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        for i in 0..40u64 {
            let (id, data) = chunk(i, 8 << 10);
            store.put(id, &data).unwrap(); // returned Ok ⇒ acked ⇒ durable
            acked.push((id, data));
        }
    }
    // Crash mid-append: a partial record (valid-looking length, truncated
    // payload, bogus CRC) at the tail of the newest segment.
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    let last = segs.last().expect("at least one segment");
    let mut f = OpenOptions::new().append(true).open(last).unwrap();
    let mut torn = Vec::new();
    torn.extend_from_slice(&8192u32.to_le_bytes()); // claims 8 KiB payload
    torn.push(0u8);
    torn.extend_from_slice(&[0xCC; 37]); // id + crc + a sliver of payload
    f.write_all(&torn).unwrap();
    drop(f);

    let store = SegmentStore::open_with(&dir, cfg).unwrap();
    for (id, data) in &acked {
        assert_eq!(
            &store.get(*id).unwrap().expect("acked chunk lost")[..],
            &data[..],
            "every acked chunk must survive a torn-tail crash"
        );
    }
    let ids: BTreeSet<ChunkId> = store.ids().unwrap().into_iter().collect();
    let want: BTreeSet<ChunkId> = acked.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, want, "ids() after recovery = exactly the acked puts");
    std::fs::remove_dir_all(&dir).ok();
}

/// Garbage appended beyond the last valid record must not block new writes
/// after recovery — the log truncates and keeps going.
#[test]
fn segment_store_accepts_writes_after_torn_tail_recovery() {
    let dir = tmp("torn-write");
    let (id0, data0) = chunk(7, 2 << 10);
    {
        let store = SegmentStore::open(&dir).unwrap();
        store.put(id0, &data0).unwrap();
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let clean = std::fs::metadata(&seg).unwrap().len();
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&[0xEE; 61]).unwrap();
    drop(f);

    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(std::fs::metadata(&seg).unwrap().len(), clean);
    let (id1, data1) = chunk(8, 3 << 10);
    store.put(id1, &data1).unwrap();
    drop(store);
    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(&store.get(id0).unwrap().unwrap()[..], &data0[..]);
    assert_eq!(&store.get(id1).unwrap().unwrap()[..], &data1[..]);
    std::fs::remove_dir_all(&dir).ok();
}

/// One random operation against the store pair.
#[derive(Clone, Copy, Debug)]
enum Op {
    Put { key: u8, len: u16 },
    Get { key: u8 },
    Delete { key: u8 },
    Maintain,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u16..2048).prop_map(|(key, len)| Op::Put { key: key % 12, len }),
        any::<u8>().prop_map(|key| Op::Get { key: key % 12 }),
        any::<u8>().prop_map(|key| Op::Delete { key: key % 12 }),
        Just(Op::Maintain),
        Just(Op::Reopen),
    ]
}

// SegmentStore behaves exactly like the in-memory model under random
// put/get/delete interleavings, across rotations, compactions and reopens
// (simulated crashes after acked operations).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn segment_store_matches_mem_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let dir = std::env::temp_dir().join(format!(
            "stdchk-recov-model-{}-{}",
            std::process::id(),
            mix64(ops.len() as u64 ^ ops.iter().map(|o| matches!(o, Op::Put{..}) as u64).sum::<u64>())
        ));
        std::fs::remove_dir_all(&dir).ok();
        // Tiny segments + eager compaction so short op sequences still
        // exercise rotation and reclamation.
        let cfg = SegmentStoreConfig {
            segment_bytes: 8 << 10,
            compact_dead_ratio: 0.4,
        };
        let model = MemStore::new();
        let mut store = SegmentStore::open_with(&dir, cfg).map_err(|e| e.to_string())?;
        for op in &ops {
            // Ids come from a small universe keyed by `key` (the store
            // never checks id-vs-content) so puts, overwrites, gets and
            // deletes genuinely collide.
            match *op {
                Op::Put { key, len } => {
                    let id = ChunkId::test_id(key as u64);
                    let (_, data) = chunk(key as u64 ^ len as u64, len as usize);
                    store.put(id, &data).map_err(|e| e.to_string())?;
                    model.put(id, &data).unwrap();
                }
                Op::Get { key } => {
                    let id = ChunkId::test_id(key as u64);
                    let got = store.get(id).map_err(|e| e.to_string())?;
                    let want = model.get(id).unwrap();
                    prop_assert_eq!(got, want);
                }
                Op::Delete { key } => {
                    let id = ChunkId::test_id(key as u64);
                    store.delete(id).map_err(|e| e.to_string())?;
                    model.delete(id).unwrap();
                }
                Op::Maintain => store.maintain().map_err(|e| e.to_string())?,
                Op::Reopen => {
                    drop(store);
                    store = SegmentStore::open_with(&dir, cfg).map_err(|e| e.to_string())?;
                }
            }
            // Full-state equivalence after every step: same ids, same sizes.
            let mut got = store.entries().map_err(|e| e.to_string())?;
            let mut want = model.entries().unwrap();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
        // And everything the model holds reads back identically.
        for (id, data) in model.entries().unwrap().iter().flat_map(|(id, _)| {
            model.get(*id).unwrap().map(|b| (*id, b))
        }) {
            let got = store.get(id).map_err(|e| e.to_string())?;
            prop_assert_eq!(got.as_deref(), Some(&data[..]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
