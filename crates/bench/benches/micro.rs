//! Criterion micro-benchmarks of the hot paths: SHA-256 hashing, rolling
//! window hashes, delta signatures and encoding, chunking heuristics, the
//! wire codec, and manager metadata operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use stdchk_chunker::delta::{delta_encode_signed, ChunkSignature};
use stdchk_chunker::{CbChunker, CbRollingChunker, Chunker, FsChunker};
use stdchk_core::{Action, Manager, Node, PoolConfig};
use stdchk_proto::codec::Wire;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::mix64;
use stdchk_util::rolling::{RollingHash, WindowHash};
use stdchk_util::sha256::Sha256;
use stdchk_util::Time;

fn data(len: usize) -> Vec<u8> {
    (0..len).map(|i| mix64(i as u64) as u8).collect()
}

fn bench_hashing(c: &mut Criterion) {
    let buf = data(1 << 20);
    let mut g = c.benchmark_group("hashing");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("sha256_1mib", |b| b.iter(|| Sha256::digest(&buf)));
    g.bench_function("rolling_slide_1mib", |b| {
        b.iter(|| {
            let mut rh = RollingHash::new(20);
            for &x in &buf[..20] {
                rh.push(x);
            }
            let mut acc = 0u64;
            for i in 0..buf.len() - 21 {
                rh.slide(buf[i], buf[i + 20]);
                acc ^= rh.value();
            }
            acc
        })
    });
    g.bench_function("window_hash_per_byte_1mib", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            // The paper-faithful overlap cost: full window hash per offset.
            for w in buf.windows(20).step_by(64) {
                acc ^= WindowHash::hash(w);
            }
            acc
        })
    });
    g.finish();
}

/// The write session's per-chunk delta work on a 1 MiB chunk: the
/// signature of a chunk shipped without a basis, and the one-pass encode
/// and sign of a chunk shipped against one. Unrelated content is the
/// worst case: every byte of it is a rolling-scan position.
fn bench_delta(c: &mut Criterion) {
    let basis = data(1 << 20);
    let patch: Vec<u8> = (0..300u64).map(|i| mix64(!i) as u8).collect();
    let mut edited = basis.clone();
    edited[300_000..300_300].copy_from_slice(&patch);
    let mut inserted = basis.clone();
    inserted.splice(300_000..300_000, patch[..100].iter().copied());
    let unrelated: Vec<u8> = (0..1u64 << 20).map(|i| mix64(!i) as u8).collect();
    let sig = ChunkSignature::of(&basis);
    let mut g = c.benchmark_group("delta");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(basis.len() as u64));
    g.bench_function("signature_1mib", |b| b.iter(|| ChunkSignature::of(&basis)));
    g.bench_function("encode_1mib_in_place_edit", |b| {
        b.iter(|| delta_encode_signed(&sig, &edited))
    });
    g.bench_function("encode_1mib_100b_insertion", |b| {
        b.iter(|| delta_encode_signed(&sig, &inserted))
    });
    g.bench_function("encode_1mib_unrelated", |b| {
        b.iter(|| delta_encode_signed(&sig, &unrelated))
    });
    g.finish();
}

fn bench_chunkers(c: &mut Criterion) {
    let buf = data(4 << 20);
    let mut g = c.benchmark_group("chunking");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("fsch_1mib_chunks", |b| {
        b.iter(|| FsChunker::new(1 << 20).split(&buf))
    });
    g.bench_function("cbch_no_overlap_m32_k10", |b| {
        b.iter(|| {
            CbChunker::no_overlap(32, 10)
                .with_max_chunk(8 << 20)
                .split(&buf)
        })
    });
    g.bench_function("cbch_rolling_m32_k10", |b| {
        b.iter(|| {
            CbRollingChunker::new(32, 10)
                .with_max_chunk(8 << 20)
                .split(&buf)
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let msg = Msg::PutChunk {
        req: RequestId(9),
        chunk: ChunkId::test_id(1),
        size: 1 << 20,
        data: bytes::Bytes::from(data(1 << 20)),
        background: false,
    };
    let encoded = msg.to_wire_bytes();
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_put_chunk_1mib", |b| b.iter(|| msg.to_wire_bytes()));
    g.bench_function("decode_put_chunk_1mib", |b| {
        b.iter(|| Msg::from_wire_bytes(&encoded).expect("decode"))
    });
    g.finish();
}

fn bench_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("manager");
    g.sample_size(10);
    g.bench_function("create_commit_cycle", |b| {
        b.iter_batched(
            || {
                let mut mgr = Manager::new(PoolConfig::default());
                for i in 1..=8u64 {
                    mgr.handle(
                        NodeId(i),
                        Msg::Heartbeat {
                            node: NodeId(i),
                            free_space: 1 << 40,
                            total_space: 1 << 40,
                            addr: String::new(),
                        },
                        Time::ZERO,
                    );
                }
                mgr.drain_actions();
                mgr
            },
            |mut mgr| {
                for f in 0..32u64 {
                    mgr.handle(
                        NodeId(100),
                        Msg::CreateFile {
                            req: RequestId(f * 2 + 1),
                            client: NodeId(100),
                            path: format!("/bench/f{f}"),
                            stripe_width: 4,
                            replication: 1,
                            expected_chunks: 8,
                        },
                        Time::ZERO,
                    );
                    let (res, stripe) = match mgr.poll_action() {
                        Some(Action::Send {
                            msg:
                                Msg::CreateFileOk {
                                    reservation,
                                    stripe,
                                    ..
                                },
                            ..
                        }) => (reservation, stripe),
                        other => panic!("unexpected {other:?}"),
                    };
                    let id = ChunkId::test_id(f);
                    mgr.handle(
                        NodeId(100),
                        Msg::CommitChunkMap {
                            req: RequestId(f * 2 + 2),
                            reservation: res,
                            entries: vec![stdchk_proto::ChunkEntry { id, size: 1 << 20 }],
                            placements: vec![(id, vec![stripe[0]])],
                            pessimistic: false,
                            dedup: Default::default(),
                        },
                        Time::ZERO,
                    );
                    mgr.drain_actions();
                }
                mgr
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_delta,
    bench_chunkers,
    bench_codec,
    bench_manager
);
criterion_main!(benches);
