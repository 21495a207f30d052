//! Layer replay for the traced run: after the timed phase, the run's own
//! chunks and chunk maps go through each layer's public functions, one
//! layer at a time, on scratch directories.

use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use stdchk_chunker::delta::{delta_apply, delta_encode, ChunkSignature};
use stdchk_core::payload::{ChunkAssembler, Payload};
use stdchk_core::{Action, Manager, Node, PoolConfig};
use stdchk_net::store::{ChunkStore, SegmentStore};
use stdchk_net::MetaLog;
use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::frame::{FrameDecoder, FrameEncoder, MAX_FRAME};
use stdchk_proto::meta::MetaRecord;
use stdchk_proto::msg::{DedupSummary, Msg};
use stdchk_proto::{ChunkId, FileId, NodeId, RequestId, VersionId};
use stdchk_util::Time;

use crate::gen::{self, CHUNK};
use crate::pool::BoxErr;
use crate::workloads::{ClientLog, Workload, IMAGE, INC_PATH};

/// What the timed phase wrote, in the shape each layer consumes.
#[derive(Debug, Default)]
pub struct ReplayInput {
    /// A sample of the run's chunks (bounded; see `SAMPLE_BYTES`).
    pub chunks: Vec<Vec<u8>>,
    /// `(basis, new)` chunk pairs a delta encoder would see.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// One `(path, chunk map)` per committed checkpoint of the run.
    pub maps: Vec<(String, Vec<ChunkEntry>)>,
}

/// Bytes of chunk data the byte-level layers replay.
pub const SAMPLE_BYTES: usize = 64 << 20;

/// `(basis, new)` pairs replayed through the delta layer: as many as one
/// `incremental` version edits.
const PAIRS: usize = 19;

/// A chunk id standing in for content `(a, b)`: chunk maps are replayed
/// with the run's shape and sharing, without re-hashing every byte.
fn synth_id(a: u64, b: u64) -> ChunkId {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&a.to_le_bytes());
    key[8..].copy_from_slice(&b.to_le_bytes());
    ChunkId::for_content(&key)
}

/// `n` full-chunk entries with ids `synth_id(op, 0..n)`.
fn fresh_entries(op: u64, n: usize) -> Vec<ChunkEntry> {
    (0..n as u64)
        .map(|j| ChunkEntry {
            id: synth_id(op, j),
            size: CHUNK as u32,
        })
        .collect()
}

/// Pairs from `chunks`: each one against a copy with one small edit (the
/// `incremental` edit model), for workloads that never delta-encode.
fn edited_pairs(seed: u64, chunks: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = gen::Rng::new(seed, gen::KIND_INC_EDIT, u64::MAX);
    chunks
        .iter()
        .take(PAIRS)
        .map(|c| {
            let mut new = c.clone();
            gen::edit_chunk(&mut rng, &mut new);
            (c.clone(), new)
        })
        .collect()
}

impl ReplayInput {
    /// Rebuilds the run's inputs from the seed and the writes it logged.
    pub fn from_run(workload: Workload, seed: u64, logs: &[ClientLog]) -> ReplayInput {
        let image_chunks = IMAGE / CHUNK;
        match workload {
            Workload::Fresh => {
                let mut img = Vec::new();
                gen::fresh_image(seed, 0, IMAGE, &mut img);
                let chunks: Vec<Vec<u8>> = img.chunks(CHUNK).map(<[u8]>::to_vec).collect();
                let maps = logs[0]
                    .writes
                    .iter()
                    .map(|w| {
                        let path = format!("/fresh/img{}", w.index);
                        (path, fresh_entries(w.index, image_chunks))
                    })
                    .collect();
                ReplayInput {
                    pairs: edited_pairs(seed, &chunks),
                    chunks,
                    maps,
                }
            }
            Workload::Incremental => {
                let last = logs[0].writes.iter().map(|w| w.index).max().unwrap_or(0);
                let mut img = gen::incremental_base(seed, IMAGE);
                let mut prev = img.clone();
                let mut ids = fresh_entries(0, image_chunks);
                let mut maps = Vec::new();
                let mut edited = Vec::new();
                let mut w = logs[0].writes.iter().map(|w| w.index).peekable();
                for v in 0..=last {
                    if v > 0 {
                        if v == last {
                            prev.copy_from_slice(&img);
                        }
                        edited = gen::apply_edits(seed, v, &mut img);
                        for &c in &edited {
                            ids[c].id = synth_id(v, c as u64);
                        }
                    }
                    // Version 0 is committed before the clock starts.
                    if w.next_if_eq(&v).is_some() || v == 0 {
                        maps.push((INC_PATH.to_string(), ids.clone()));
                    }
                }
                let chunks: Vec<Vec<u8>> = img.chunks(CHUNK).map(<[u8]>::to_vec).collect();
                let pairs = if edited.is_empty() {
                    edited_pairs(seed, &chunks)
                } else {
                    let range = |c: usize| c * CHUNK..(c + 1) * CHUNK;
                    edited
                        .iter()
                        .map(|&c| (prev[range(c)].to_vec(), img[range(c)].to_vec()))
                        .collect()
                };
                ReplayInput {
                    chunks,
                    pairs,
                    maps,
                }
            }
            Workload::ManySmall => {
                let mut maps = Vec::new();
                for (c, log) in logs.iter().enumerate() {
                    for w in &log.writes {
                        let op = (c as u64) << 32 | w.index;
                        let entry = ChunkEntry {
                            id: synth_id(op, 0),
                            size: w.bytes as u32,
                        };
                        maps.push((format!("/small/c{c}/f{}", w.index), vec![entry]));
                    }
                }
                let mut chunks = Vec::new();
                let mut bytes = 0;
                for w in &logs[0].writes {
                    if bytes >= SAMPLE_BYTES {
                        break;
                    }
                    let mut buf = Vec::new();
                    gen::small_image(seed, 0, w.index, &mut buf);
                    bytes += buf.len();
                    chunks.push(buf);
                }
                ReplayInput {
                    pairs: edited_pairs(seed, &chunks),
                    chunks,
                    maps,
                }
            }
        }
    }
}

/// Store puts replayed (each followed by its durable wait).
const STORE_CHUNKS: usize = 32;

/// WAL commit records replayed (each followed by its durable wait).
const METALOG_RECORDS: usize = 128;

/// Chunk entries per `OfferChunks`, as the write session batches them.
const OFFER_BATCH: usize = 16;

/// Per-layer results, named as reported.
#[derive(Debug, Default)]
pub struct LayerResults {
    pub values: Vec<(&'static str, f64, &'static str)>,
    /// Every replay reproduced its input exactly.
    pub checks_ok: bool,
}

fn mb_s(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / secs / 1e6
    } else {
        0.0
    }
}

pub fn run(input: &ReplayInput, scratch: &Path) -> Result<LayerResults, BoxErr> {
    let mut r = LayerResults {
        checks_ok: true,
        ..LayerResults::default()
    };
    let bytes: usize = input.chunks.iter().map(Vec::len).sum();

    // util::sha256 — content addressing.
    let t = Instant::now();
    let ids: Vec<ChunkId> = input
        .chunks
        .iter()
        .map(|c| ChunkId::for_content(std::hint::black_box(c)))
        .collect();
    r.values.push((
        "sha256.mb_s",
        mb_s(bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));

    // core::payload — chunk assembly (hashes as it cuts).
    let payloads: Vec<Payload> = input
        .chunks
        .iter()
        .map(|c| Payload::real(c.clone()))
        .collect();
    let t = Instant::now();
    let mut asm = ChunkAssembler::new(CHUNK as u32);
    let mut done = Vec::new();
    for p in payloads {
        asm.push(p, &mut done);
    }
    done.extend(asm.finish());
    r.values.push((
        "payload.assemble_mb_s",
        mb_s(bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    let assembled: usize = done.iter().map(|c| c.entry.size as usize).sum();
    r.checks_ok &= assembled == bytes;

    // chunker::delta — signatures, encode, apply.
    let t = Instant::now();
    for c in &input.chunks {
        std::hint::black_box(ChunkSignature::of(c));
    }
    r.values.push((
        "delta.signature_mb_s",
        mb_s(bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    let sigs: Vec<ChunkSignature> = input
        .pairs
        .iter()
        .map(|(b, _)| ChunkSignature::of(b))
        .collect();
    let pair_bytes: usize = input.pairs.iter().map(|(_, n)| n.len()).sum();
    let t = Instant::now();
    let deltas: Vec<Option<Vec<u8>>> = input
        .pairs
        .iter()
        .zip(&sigs)
        .map(|((_, new), sig)| delta_encode(sig, new))
        .collect();
    r.values.push((
        "delta.encode_mb_s",
        mb_s(pair_bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    let t = Instant::now();
    let applied: Vec<Option<Vec<u8>>> = input
        .pairs
        .iter()
        .zip(&deltas)
        .map(|((basis, _), d)| d.as_ref().and_then(|d| delta_apply(basis, d).ok()))
        .collect();
    let applied_bytes: usize = applied.iter().flatten().map(Vec::len).sum();
    r.values.push((
        "delta.apply_mb_s",
        mb_s(applied_bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    for (((_, new), d), a) in input.pairs.iter().zip(&deltas).zip(&applied) {
        r.checks_ok &= d.is_some() && a.as_deref() == Some(new.as_slice());
    }

    // proto::frame — PutChunk framing and incremental decoding.
    let msgs: Vec<Msg> = input
        .chunks
        .iter()
        .zip(&ids)
        .enumerate()
        .map(|(k, (c, id))| Msg::PutChunk {
            req: RequestId(k as u64 + 1),
            chunk: *id,
            size: c.len() as u32,
            data: Bytes::from(c.clone()),
            background: false,
        })
        .collect();
    let mut wire = Vec::with_capacity(bytes + msgs.len() * 128);
    let t = Instant::now();
    let mut enc = FrameEncoder::new();
    let mut completed = Vec::new();
    for m in &msgs {
        enc.push(m);
        enc.write_to(&mut wire, &mut completed)?;
    }
    r.values.push((
        "proto.encode_mb_s",
        mb_s(bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    let t = Instant::now();
    let mut dec = FrameDecoder::new(MAX_FRAME);
    let mut decoded = Vec::with_capacity(msgs.len());
    for piece in wire.chunks(64 << 10) {
        dec.feed(piece, &mut decoded)?;
    }
    r.values.push((
        "proto.decode_mb_s",
        mb_s(bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    r.checks_ok &= decoded == msgs;
    drop((msgs, decoded, wire));

    // net::store::segment — append, durable wait, read back.
    let store = SegmentStore::open(scratch.join("store"))?;
    let n = STORE_CHUNKS.min(input.chunks.len());
    let (mut append_s, mut wait_s) = (0.0, 0.0);
    for (c, id) in input.chunks.iter().zip(&ids).take(n) {
        let t0 = Instant::now();
        let token = store.submit_put_batch(&[(*id, c.as_slice())])?;
        let t1 = Instant::now();
        store.wait_put(token)?;
        append_s += (t1 - t0).as_secs_f64();
        wait_s += t1.elapsed().as_secs_f64();
    }
    let per = |s: f64| if n > 0 { s / n as f64 * 1e6 } else { 0.0 };
    r.values
        .push(("store.append_us_per_chunk", per(append_s), "us"));
    r.values.push(("store.durable_wait_us", per(wait_s), "us"));
    let t = Instant::now();
    let mut got_bytes = 0usize;
    for (c, id) in input.chunks.iter().zip(&ids).take(n) {
        let got = store.get(*id)?;
        got_bytes += got.as_ref().map_or(0, |g| g.len());
        r.checks_ok &= got.as_deref() == Some(c.as_slice());
    }
    r.values.push((
        "store.get_mb_s",
        mb_s(got_bytes, t.elapsed().as_secs_f64()),
        "MB/s",
    ));
    drop(store);

    // net::metalog — commit records, group-committed one at a time.
    let (log, _) = MetaLog::open(scratch.join("meta"))?;
    let n = METALOG_RECORDS.min(input.maps.len());
    let (mut append_s, mut wait_s) = (0.0, 0.0);
    for (k, (path, entries)) in input.maps.iter().take(n).enumerate() {
        let record = MetaRecord::Commit {
            path: path.clone(),
            file: FileId(k as u64 + 1),
            version: VersionId(k as u64 + 1),
            mtime: Time(k as u64 + 1),
            entries: entries.clone(),
            placements: placements(entries, &[NodeId(1)]),
            replication: 1,
        };
        let t0 = Instant::now();
        let target = log.submit_append_batch(&[(k as u64, record)])?;
        let t1 = Instant::now();
        log.wait_appended(target)?;
        append_s += (t1 - t0).as_secs_f64();
        wait_s += t1.elapsed().as_secs_f64();
    }
    let per = |s: f64| if n > 0 { s / n as f64 * 1e6 } else { 0.0 };
    r.values.push(("metalog.append_us", per(append_s), "us"));
    r.values
        .push(("metalog.durable_wait_us", per(wait_s), "us"));
    drop(log);

    // core::manager — the sans-IO create → offer → commit cycle.
    let (cycles, secs) = manager_cycles(&input.maps)?;
    r.values.push((
        "manager.commit_us",
        if cycles > 0 {
            secs / cycles as f64 * 1e6
        } else {
            0.0
        },
        "us",
    ));
    Ok(r)
}

/// Each distinct chunk of `entries` placed round-robin on `stripe`.
fn placements(entries: &[ChunkEntry], stripe: &[NodeId]) -> Vec<(ChunkId, Vec<NodeId>)> {
    let mut seen = std::collections::HashSet::new();
    entries
        .iter()
        .filter(|e| seen.insert(e.id))
        .enumerate()
        .map(|(k, e)| (e.id, vec![stripe[k % stripe.len()]]))
        .collect()
}

/// A sans-IO manager with two joined benefactors, fed one message at a
/// time on a synthetic clock.
struct MgrHarness {
    mgr: Manager,
    now: Time,
    req: u64,
}

const CLIENT: NodeId = NodeId(77);

impl MgrHarness {
    /// Delivers `msg` and returns the manager's reply to `from`.
    fn call(&mut self, from: NodeId, msg: impl FnOnce(RequestId) -> Msg) -> Result<Msg, BoxErr> {
        self.req += 1;
        self.now = Time(self.now.0 + 1_000);
        self.mgr.handle(from, msg(RequestId(self.req)), self.now);
        let mut reply = None;
        while let Some(a) = self.mgr.poll_action() {
            if let Action::Send { to, msg } = a {
                if to == from && reply.is_none() {
                    reply = Some(msg);
                }
            }
        }
        match reply {
            Some(Msg::ErrorReply { code, detail, .. }) => {
                Err(format!("manager: {code}: {detail}").into())
            }
            Some(m) => Ok(m),
            None => Err("manager sent no reply".into()),
        }
    }
}

/// Runs every map through create → offer → commit; returns the cycle
/// count and the seconds they took.
fn manager_cycles(maps: &[(String, Vec<ChunkEntry>)]) -> Result<(usize, f64), BoxErr> {
    let mut h = MgrHarness {
        mgr: Manager::new(PoolConfig::default()),
        now: Time::ZERO,
        req: 0,
    };
    for i in 0..2u64 {
        h.call(NodeId(1000 + i), |req| Msg::JoinRequest {
            req,
            addr: String::new(),
            total_space: 1 << 40,
        })?;
    }
    let t = Instant::now();
    for (path, entries) in maps {
        let Msg::CreateFileOk {
            reservation,
            stripe,
            ..
        } = h.call(CLIENT, |req| Msg::CreateFile {
            req,
            client: CLIENT,
            path: path.clone(),
            stripe_width: 0,
            replication: 0,
            expected_chunks: 16,
        })?
        else {
            return Err("CreateFile: unexpected reply".into());
        };
        let mut wanted = 0u32;
        for batch in entries.chunks(OFFER_BATCH) {
            match h.call(CLIENT, |req| Msg::OfferChunks {
                req,
                reservation,
                entries: batch.to_vec(),
            })? {
                Msg::WantChunks { wanted: w, .. } => wanted += w.len() as u32,
                _ => return Err("OfferChunks: unexpected reply".into()),
            }
        }
        let reply = h.call(CLIENT, |req| Msg::CommitChunkMap {
            req,
            reservation,
            entries: entries.clone(),
            placements: placements(entries, &stripe),
            pessimistic: false,
            dedup: DedupSummary {
                offered: entries.len() as u32,
                wanted,
                ..DedupSummary::default()
            },
        })?;
        if !matches!(reply, Msg::CommitOk { .. }) {
            return Err("CommitChunkMap: unexpected reply".into());
        }
    }
    Ok((maps.len(), t.elapsed().as_secs_f64()))
}
