//! Zero-copy data path benchmark: vectored/`sendfile` transmit on the
//! real TCP stack over loopback, against one single-benefactor pool:
//!
//! - **ingest**: each round writes one fresh file through the client
//!   (round-unique content, so dedup ships every byte); `PutChunk`
//!   payloads leave as shared segments under `writev`;
//! - **saturated read**: a raw pipelined data-plane client (windowed
//!   `GetChunk`) drains the first file straight off the benefactor. All
//!   data chunks are force-sealed beforehand (a roller put rotates the
//!   active segment), so every payload is served with `sendfile`. The
//!   server's transport counters are recorded as proof: the run must
//!   report **zero** copied payload bytes.
//!
//! Each number is the median over rounds. The committed
//! `BENCH_zerocopy.json` also records the copying transmit path this
//! replaced (since removed). Writes `BENCH_zerocopy.json` at the
//! workspace root (override with `STDCHK_BENCH_OUT`). `--smoke` /
//! `STDCHK_BENCH_SMOKE=1` shrinks the file and round count so CI
//! finishes in seconds.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::session::write::{SessionConfig, WriteProtocol};
use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::{ChunkStore, SegmentStore, SegmentStoreConfig};
use stdchk_net::{
    BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, ServerOpts, WriteOptions,
};
use stdchk_proto::frame::{read_frame, write_frame};
use stdchk_proto::ids::{ChunkId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::bytesize::to_mbps;
use stdchk_util::mix64;

const CHUNK: u32 = 4 << 20;
const SEGMENT_BYTES: u64 = 16 << 20;
/// Saturated-read request window (in-flight `GetChunk`s).
const READ_WINDOW: usize = 16;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) as u8)
        .collect()
}

struct Pool {
    mgr: ManagerServer,
    benef: BenefactorServer,
    store: Arc<SegmentStore>,
    grid: Grid,
    dir: std::path::PathBuf,
}

fn spawn_pool() -> Pool {
    let dir = std::env::temp_dir().join(format!("stdchk-bench-zc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = CHUNK;
    pool_cfg.reservation_ttl = stdchk_util::Dur::from_secs(600);
    let mut benef_cfg = BenefactorConfig::fast_for_tests();
    benef_cfg.gc_grace = stdchk_util::Dur::from_secs(600);
    let opts = ServerOpts {
        workers: 4,
        idle_timeout: Some(Duration::from_secs(300)),
    };
    let mgr = ManagerServer::spawn_with("127.0.0.1:0", pool_cfg, opts).expect("manager");
    let store = Arc::new(
        SegmentStore::open_with(
            &dir,
            SegmentStoreConfig {
                segment_bytes: SEGMENT_BYTES,
                ..Default::default()
            },
        )
        .expect("store"),
    );
    let benef = BenefactorServer::spawn_with(
        BenefactorNetConfig {
            manager_addr: mgr.addr().to_string(),
            listen: "127.0.0.1:0".into(),
            total_space: 8 << 30,
            cfg: benef_cfg,
            store: Arc::clone(&store) as Arc<dyn ChunkStore>,
        },
        opts,
    )
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline, "pool never came online");
        std::thread::sleep(Duration::from_millis(10));
    }
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    Pool {
        mgr,
        benef,
        store,
        grid,
        dir,
    }
}

/// Writes one round-unique file through the client; returns seconds.
fn ingest_round(pool: &Pool, round: usize, data: &[u8]) -> f64 {
    let write_opts = WriteOptions {
        session: SessionConfig {
            protocol: WriteProtocol::SlidingWindow { buffer: 8 << 20 },
            ..SessionConfig::default()
        },
        ..WriteOptions::default()
    };
    let start = Instant::now();
    let mut w = pool
        .grid
        .create(&format!("/bench/zc-r{round}.n0"), write_opts)
        .expect("create");
    w.write_all(data).expect("write");
    w.finish().expect("finish");
    start.elapsed().as_secs_f64()
}

/// Drains `chunks` off the benefactor's data plane with a windowed
/// pipeline of `GetChunk`s; returns seconds for the full sweep.
///
/// The drain parses only the 4-byte frame-length headers and skips body
/// bytes through a fixed scratch buffer — no per-frame allocation or
/// decode. The client thus costs exactly one socket copy per byte (client
/// and server timeshare the CPU), so the time is dominated by the
/// server's transmit path. `verify_read` separately decodes a full sweep
/// for correctness.
fn read_round(pool: &Pool, chunks: &[(ChunkId, u32)]) -> f64 {
    let mut stream = TcpStream::connect(pool.benef.addr()).expect("dial benefactor");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut scratch = vec![0u8; 1 << 20];
    let start = Instant::now();
    let mut next = 0usize; // requests sent
    let mut done = 0usize; // replies fully drained
    let mut hdr = [0u8; 4];
    let mut hdr_have = 0usize;
    let mut body_left = 0usize; // bytes remaining of the current frame
    while done < chunks.len() {
        while next < chunks.len() && next - done < READ_WINDOW {
            write_frame(
                &mut stream,
                &Msg::GetChunk {
                    req: RequestId(next as u64 + 1),
                    chunk: chunks[next].0,
                },
            )
            .expect("request");
            next += 1;
        }
        let n = stream.read(&mut scratch).expect("read");
        assert!(n > 0, "benefactor closed mid-read");
        let mut i = 0usize;
        while i < n {
            if body_left == 0 {
                let take = (4 - hdr_have).min(n - i);
                hdr[hdr_have..hdr_have + take].copy_from_slice(&scratch[i..i + take]);
                hdr_have += take;
                i += take;
                if hdr_have == 4 {
                    body_left = u32::from_le_bytes(hdr) as usize;
                    hdr_have = 0;
                }
            } else {
                let take = body_left.min(n - i);
                body_left -= take;
                i += take;
                if body_left == 0 {
                    done += 1;
                }
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// Full byte-exact verification of one sweep (outside any timing).
fn verify_read(pool: &Pool, chunks: &[(ChunkId, u32)], data: &[u8]) {
    let mut stream = TcpStream::connect(pool.benef.addr()).expect("dial benefactor");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut off = 0usize;
    for (i, (chunk, size)) in chunks.iter().enumerate() {
        write_frame(
            &mut stream,
            &Msg::GetChunk {
                req: RequestId(i as u64 + 1),
                chunk: *chunk,
            },
        )
        .expect("request");
        let Msg::GetChunkOk { data: got, .. } =
            read_frame(&mut stream).expect("reply").expect("conn open")
        else {
            panic!("unexpected reply");
        };
        assert_eq!(
            &got[..],
            &data[off..off + *size as usize],
            "chunk {i} corrupted"
        );
        off += *size as usize;
    }
    assert_eq!(off, data.len());
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    let file_bytes: usize = if smoke { 8 << 20 } else { 64 << 20 };
    let rounds: usize = if smoke { 2 } else { 7 };
    println!(
        "zero-copy bench: {} MiB file, {} MiB chunks, {rounds} rounds{}",
        file_bytes >> 20,
        CHUNK >> 20,
        if smoke { " (smoke scale)" } else { "" }
    );

    let pool = spawn_pool();

    // --- Ingest rounds: one fresh file per round. Round-unique content
    // defeats cross-round dedup.
    let mut ingest_secs = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let data = payload(file_bytes, 1000 + round as u64);
        let t = ingest_round(&pool, round, &data);
        ingest_secs.push(t);
        println!(
            "  ingest r{round}: {:7.1} MB/s",
            to_mbps(file_bytes as f64 / t)
        );
    }

    // --- Seal everything: one oversized roller put rotates the active
    // segment, so every data chunk is in a sealed segment and is served
    // exclusively via sendfile.
    let roller = vec![0u8; SEGMENT_BYTES as usize];
    pool.store
        .put(ChunkId::for_content(b"zc-bench-roller"), &roller)
        .expect("roller put");

    // Reads sweep round 0's file; its chunk ids are content-derived.
    let read_data = payload(file_bytes, 1000);
    let chunks: Vec<(ChunkId, u32)> = read_data
        .chunks(CHUNK as usize)
        .map(|c| (ChunkId::for_content(c), c.len() as u32))
        .collect();
    verify_read(&pool, &chunks, &read_data);

    let before = pool.benef.transport_stats().expect("transport stats");

    // --- Saturated-read rounds.
    let mut read_secs = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let t = read_round(&pool, &chunks);
        read_secs.push(t);
        println!(
            "  read   r{round}: {:7.1} MB/s",
            to_mbps(file_bytes as f64 / t)
        );
    }

    let after = pool.benef.transport_stats().expect("transport stats");
    let read_copied = after.copied_payload_tx - before.copied_payload_tx;
    let read_zerocopy = after.zerocopy_payload_tx - before.zerocopy_payload_tx;
    println!("  counters over reads: copied {read_copied} B, zero-copy {read_zerocopy} B");
    assert_eq!(
        read_copied, 0,
        "sealed-segment reads must not copy a single payload byte"
    );

    let read_mbps = to_mbps(file_bytes as f64 / median(&read_secs));
    let ingest_mbps = to_mbps(file_bytes as f64 / median(&ingest_secs));
    println!("\nsaturated read: {read_mbps:.1} MB/s\ningest:         {ingest_mbps:.1} MB/s");

    // Smoke runs keep the harness alive in CI; never let their throwaway
    // numbers clobber the committed full-scale result.
    if !smoke || std::env::var("STDCHK_BENCH_OUT").is_ok() {
        let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
            format!("{}/../../BENCH_zerocopy.json", env!("CARGO_MANIFEST_DIR"))
        });
        let body = format!(
            "{{\n  \"bench\": \"zerocopy\",\n  \"file_bytes\": {file_bytes},\n  \
             \"chunk_bytes\": {CHUNK},\n  \"segment_bytes\": {SEGMENT_BYTES},\n  \
             \"rounds\": {rounds},\n  \
             \"result\": {{\"ingest_mb_per_s\": {ingest_mbps:.1}, \"read_mb_per_s\": {read_mbps:.1}, \
             \"read_copied_payload_bytes\": {read_copied}, \
             \"read_zerocopy_payload_bytes\": {read_zerocopy}}}\n}}\n",
        );
        let mut f = std::fs::File::create(&out_path).expect("create BENCH_zerocopy.json");
        f.write_all(body.as_bytes())
            .expect("write BENCH_zerocopy.json");
        println!("wrote {out_path}");
    } else {
        println!("smoke scale: skipping BENCH_zerocopy.json (set STDCHK_BENCH_OUT to force)");
    }

    pool.benef.shutdown();
    pool.mgr.shutdown();
    let dir = pool.dir.clone();
    drop(pool);
    std::fs::remove_dir_all(&dir).ok();
}
