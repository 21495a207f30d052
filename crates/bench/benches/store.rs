//! Storage-engine benchmark: `SegmentStore` (append-only segment log with
//! group commit) on the benefactor's ingest hot path.
//!
//! Measures, on a scratch directory under the system temp dir:
//!
//! - **put**: sustained 64 KiB-chunk ingest from several writer threads
//!   (the shape striped checkpoint bursts have on a benefactor);
//! - **get**: random-order readback of the stored chunks;
//! - **recovery**: reopening a populated store and listing `entries()` —
//!   what a benefactor restart pays before it can rejoin the pool.
//!
//! The committed `BENCH_store.json` also records the one-file-per-chunk
//! store this engine replaced (since removed): its put ran 3.04× slower,
//! and its reopen took 0.58 ms against 7.07 ms for 512 chunks.
//!
//! Besides the usual criterion stdout report, the harness writes
//! `BENCH_store.json` at the workspace root (override the path with
//! `STDCHK_BENCH_OUT`) recording every measurement.
//!
//! `--smoke` (or `STDCHK_BENCH_SMOKE=1`) shrinks sizes so CI can keep the
//! harness compiling *and running* in seconds.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{BenchResult, Criterion, Throughput};

use stdchk_net::store::{ChunkStore, SegmentStore};
use stdchk_proto::ids::ChunkId;
use stdchk_util::bytesize::to_mbps;
use stdchk_util::mix64;

const CHUNK: usize = 64 << 10;

/// Workload shape, scaled down under `--smoke`.
#[derive(Clone, Copy)]
struct Scale {
    chunks: usize,
    threads: usize,
    samples: usize,
}

/// Unique scratch directories under one removable root.
struct Scratch {
    root: PathBuf,
    seq: AtomicU64,
}

impl Scratch {
    fn new() -> Scratch {
        let root = std::env::temp_dir().join(format!("stdchk-bench-store-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        fs::create_dir_all(&root).expect("scratch dir");
        Scratch {
            root,
            seq: AtomicU64::new(0),
        }
    }

    fn dir(&self) -> PathBuf {
        self.root
            .join(format!("d{}", self.seq.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

/// Deterministic distinct 64 KiB chunks.
fn chunks(n: usize) -> Arc<Vec<(ChunkId, Vec<u8>)>> {
    Arc::new(
        (0..n)
            .map(|i| {
                let mut data = vec![0u8; CHUNK];
                // One mixed word per 64 bytes: distinct content, cheap setup.
                for (j, w) in data.chunks_mut(64).enumerate() {
                    w[..8].copy_from_slice(&mix64((i as u64) << 20 | j as u64).to_le_bytes());
                }
                (ChunkId::for_content(&data), data)
            })
            .collect(),
    )
}

/// Chunks handed to the store per `submit_put_batch` call — the burst
/// shape the benefactor driver produces: `NodeHost` drains queued `Store`
/// actions in batches and `BenefEffects` submits each batch at once.
const SUBMIT_BATCH: usize = 32;

/// Ingests every chunk from `threads` writer threads (round-robin split),
/// each submitting driver-shaped bursts of [`SUBMIT_BATCH`] chunks and
/// waiting for each to be durable — the concurrency and batching group
/// commit exists to exploit.
fn parallel_put(store: &Arc<dyn ChunkStore>, data: &Arc<Vec<(ChunkId, Vec<u8>)>>, threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(store);
            let data = Arc::clone(data);
            s.spawn(move || {
                let mine: Vec<_> = data.iter().skip(t).step_by(threads).collect();
                for burst in mine.chunks(SUBMIT_BATCH) {
                    let batch: Vec<(ChunkId, &[u8])> =
                        burst.iter().map(|(id, d)| (*id, &d[..])).collect();
                    let token = store.submit_put_batch(&batch).expect("bench put");
                    store.wait_put(token).expect("bench put durable");
                }
            });
        }
    });
}

/// Flushes system-wide dirty pages (untimed, between samples) so every put
/// sample measures absorbing a burst from the same clean state instead of
/// inheriting the previous sample's writeback backlog.
fn quiesce_writeback() {
    std::process::Command::new("sync").status().ok();
}

fn median_dur(v: &mut [std::time::Duration]) -> std::time::Duration {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Put throughput: each sample ingests every chunk into a fresh store
/// from the same quiesced state; the median sample is recorded.
fn bench_put(scratch: &Scratch, scale: Scale) {
    let data = chunks(scale.chunks);
    let mut times: Vec<_> = (0..scale.samples)
        .map(|_| {
            quiesce_writeback();
            let store =
                Arc::new(SegmentStore::open(scratch.dir()).expect("open")) as Arc<dyn ChunkStore>;
            let t = std::time::Instant::now();
            parallel_put(&store, &data, scale.threads);
            t.elapsed()
        })
        .collect();
    criterion::record(
        "store_put",
        "segment_store_64k",
        median_dur(&mut times),
        Some(Throughput::Bytes((scale.chunks * CHUNK) as u64)),
    );
}

fn bench_get(c: &mut Criterion, scratch: &Scratch, scale: Scale) {
    let data = chunks(scale.chunks);
    let total = (scale.chunks * CHUNK) as u64;
    // Shuffled read order (deterministic), defeating pure sequential luck.
    let mut order: Vec<usize> = (0..scale.chunks).collect();
    order.sort_by_key(|&i| mix64(i as u64 ^ 0xBEEF));
    let populate = |store: &dyn ChunkStore| {
        for (id, payload) in data.iter() {
            store.put(*id, payload).expect("bench put");
        }
    };
    let mut g = c.benchmark_group("store_get");
    g.sample_size(scale.samples);
    g.throughput(Throughput::Bytes(total));
    let seg = SegmentStore::open(scratch.dir()).expect("open");
    populate(&seg);
    g.bench_function("segment_store_64k", |b| {
        b.iter(|| {
            for &i in &order {
                criterion::black_box(seg.get(data[i].0).expect("get").expect("present"));
            }
        })
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion, scratch: &Scratch, scale: Scale) {
    let data = chunks(scale.chunks);
    let mut g = c.benchmark_group("store_recovery");
    g.sample_size(scale.samples);
    g.throughput(Throughput::Elements(scale.chunks as u64));

    let seg_dir = scratch.dir();
    {
        let store = SegmentStore::open(&seg_dir).expect("open");
        for (id, payload) in data.iter() {
            store.put(*id, payload).expect("put");
        }
    }
    g.bench_function("segment_store_reopen", |b| {
        b.iter(|| {
            let store = SegmentStore::open(&seg_dir).expect("reopen");
            assert_eq!(store.entries().expect("entries").len(), scale.chunks);
        })
    });
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(results: &[BenchResult], scale: Scale) {
    let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        format!("{}/../../BENCH_store.json", env!("CARGO_MANIFEST_DIR"))
    });
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"store\",\n");
    body.push_str(&format!("  \"chunk_bytes\": {CHUNK},\n"));
    body.push_str(&format!("  \"chunks\": {},\n", scale.chunks));
    body.push_str(&format!("  \"put_threads\": {},\n", scale.threads));
    body.push_str(&format!("  \"submit_batch\": {SUBMIT_BATCH},\n"));
    body.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mbps = r
            .bytes_per_sec()
            .map(|b| format!("{:.1}", to_mbps(b)))
            .unwrap_or_else(|| "null".into());
        body.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {}, \"mb_per_s\": {}}}{}\n",
            json_escape(&r.group),
            json_escape(&r.id),
            r.median_ns,
            mbps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");

    let mut f = fs::File::create(&out_path).expect("create BENCH_store.json");
    f.write_all(body.as_bytes())
        .expect("write BENCH_store.json");
    println!("\nwrote {out_path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    let mut scale = if smoke {
        Scale {
            chunks: 32,
            threads: 2,
            samples: 3,
        }
    } else {
        // One writer thread is the paper's shape: during a striped
        // checkpoint write each benefactor ingests a single client's chunk
        // stream over one data connection.
        Scale {
            chunks: 512,
            threads: 1,
            samples: 12,
        }
    };
    // Optional overrides for exploring other workload shapes.
    if let Ok(Ok(n)) = std::env::var("STDCHK_BENCH_CHUNKS").map(|v| v.parse()) {
        scale.chunks = n;
    }
    if let Ok(Ok(n)) = std::env::var("STDCHK_BENCH_THREADS").map(|v| v.parse()) {
        scale.threads = n;
    }
    println!(
        "store engine bench: {} chunks x {} KiB, {} put threads{}",
        scale.chunks,
        CHUNK >> 10,
        scale.threads,
        if smoke { " (smoke scale)" } else { "" }
    );
    let scratch = Scratch::new();
    let mut c = Criterion::default();
    bench_put(&scratch, scale);
    bench_get(&mut c, &scratch, scale);
    bench_recovery(&mut c, &scratch, scale);
    // Smoke runs exist to keep the harness alive in CI; never let their
    // throwaway numbers clobber the committed paper-scale result (an
    // explicit STDCHK_BENCH_OUT still gets whatever was measured).
    if !smoke || std::env::var("STDCHK_BENCH_OUT").is_ok() {
        write_json(&criterion::take_results(), scale);
    } else {
        println!("\nsmoke scale: skipping BENCH_store.json (set STDCHK_BENCH_OUT to force)");
    }
}
