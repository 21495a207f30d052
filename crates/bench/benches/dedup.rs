//! Wire-level dedup benchmark: what does have/want negotiation plus delta
//! transfer save on a trace of successive checkpoint images?
//!
//! Setup: an in-memory pool (manager + two benefactors) and one client
//! replaying a synthetic checkpoint trace — an initial image followed by
//! successors that each dirty ~30% of their chunks in place (a byte-level
//! edit inside the chunk, the incremental-checkpoint shape the paper's
//! similarity tables measure). Every version is a full application-level
//! rewrite of the same path; only the transport decides how much of it
//! actually travels.
//!
//! Measured per arm (**dedup** = negotiation + delta on, vs **full** =
//! `STDCHK_DEDUP=off`, every byte ships): payload bytes on the wire
//! (full + delta transfers), reused bytes committed by reference, and the
//! wall-clock time to commit the whole trace. The headline is the wire
//! ratio dedup/full — on a ~70%-similar trace it must land well under
//! 0.5×, while commit wall stays within a few percent of the full arm.
//!
//! Writes `BENCH_dedup.json` at the workspace root (override with
//! `STDCHK_BENCH_OUT`). `--smoke` / `STDCHK_BENCH_SMOKE=1` shrinks the
//! trace so CI keeps the harness alive in seconds.

use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::MemStore;
use stdchk_net::{
    BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, ServerOpts, WriteOptions,
};
use stdchk_util::mix64;

const CHUNK: usize = 64 << 10;

struct Scale {
    chunks: usize,
    versions: usize,
    dirty_per_version: usize,
}

struct RunResult {
    dedup: bool,
    versions: usize,
    logical_bytes: u64,
    wire_bytes: u64,
    reused_bytes: u64,
    delta_bytes: u64,
    full_bytes: u64,
    offered: u64,
    wanted: u64,
    commit_wall_secs: f64,
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) as u8)
        .collect()
}

/// The checkpoint trace: version `v` dirties `dirty` evenly spaced chunks
/// of the previous image with an in-place byte edit (near-miss chunks, so
/// the delta path has something to bite on).
fn versions(scale: &Scale) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(scale.versions);
    let mut img = payload(scale.chunks * CHUNK, 42);
    out.push(img.clone());
    for v in 1..scale.versions {
        let stride = (scale.chunks / scale.dirty_per_version).max(1);
        for d in 0..scale.dirty_per_version {
            let chunk = (d * stride + v) % scale.chunks;
            let off = chunk * CHUNK + (mix64(v as u64 ^ d as u64) as usize % CHUNK);
            img[off] ^= 0x5a;
        }
        out.push(img.clone());
    }
    out
}

fn run_one(dedup: bool, scale: &Scale) -> RunResult {
    let name = if dedup { "dedup" } else { "full" };
    // `Grid::create` samples this per session; each arm owns its own pool
    // and grid, so flipping it between arms is race-free.
    std::env::set_var("STDCHK_DEDUP", if dedup { "on" } else { "off" });
    let opts = ServerOpts {
        workers: 2,
        idle_timeout: Some(Duration::from_secs(120)),
    };
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = CHUNK as u32;
    let mgr = ManagerServer::spawn_with("127.0.0.1:0", pool_cfg, opts).expect("manager");
    let benefactors: Vec<BenefactorServer> = (0..2)
        .map(|_| {
            BenefactorServer::spawn_with(
                BenefactorNetConfig {
                    manager_addr: mgr.addr().to_string(),
                    listen: "127.0.0.1:0".into(),
                    total_space: 4 << 30,
                    cfg: BenefactorConfig::fast_for_tests(),
                    store: Arc::new(MemStore::new()),
                },
                opts,
            )
            .expect("benefactor")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.online_benefactors() < 2 {
        assert!(Instant::now() < deadline, "pool never came online");
        std::thread::sleep(Duration::from_millis(10));
    }

    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    let trace = versions(scale);
    let mut result = RunResult {
        dedup,
        versions: trace.len(),
        logical_bytes: 0,
        wire_bytes: 0,
        reused_bytes: 0,
        delta_bytes: 0,
        full_bytes: 0,
        offered: 0,
        wanted: 0,
        commit_wall_secs: 0.0,
    };
    let start = Instant::now();
    for img in &trace {
        let mut w = grid
            .create("/bench/ckpt.img", WriteOptions::default())
            .expect("create");
        w.write_all(img).expect("write");
        let stats = w.finish().expect("finish");
        result.logical_bytes += stats.bytes_written;
        result.reused_bytes += stats.wire_reused_bytes;
        result.delta_bytes += stats.wire_delta_bytes;
        result.full_bytes += stats.wire_full_bytes;
        result.offered += stats.offered_chunks;
        result.wanted += stats.wanted_chunks;
    }
    result.commit_wall_secs = start.elapsed().as_secs_f64();
    result.wire_bytes = result.delta_bytes + result.full_bytes;

    drop(grid);
    for b in &benefactors {
        b.shutdown();
    }
    mgr.shutdown();

    println!(
        "{name:>6}  {} versions ({} MiB logical) in {:5.2}s  wire {:7.3} MiB  \
         (reused {:7.3} MiB, delta {:7.3} MiB, full {:7.3} MiB)  offered {} wanted {}",
        result.versions,
        result.logical_bytes >> 20,
        result.commit_wall_secs,
        result.wire_bytes as f64 / (1 << 20) as f64,
        result.reused_bytes as f64 / (1 << 20) as f64,
        result.delta_bytes as f64 / (1 << 20) as f64,
        result.full_bytes as f64 / (1 << 20) as f64,
        result.offered,
        result.wanted,
    );
    result
}

fn write_json(
    scale: &Scale,
    results: &[RunResult],
    wire_ratio: Option<f64>,
    wall_ratio: Option<f64>,
) {
    let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        format!("{}/../../BENCH_dedup.json", env!("CARGO_MANIFEST_DIR"))
    });
    let similarity = 1.0 - scale.dirty_per_version as f64 / scale.chunks as f64;
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"dedup\",\n");
    body.push_str(&format!(
        "  \"trace\": {{\"versions\": {}, \"chunks_per_version\": {}, \
         \"chunk_size\": {}, \"dirty_chunks_per_version\": {}, \
         \"chunk_similarity\": {:.3}}},\n",
        scale.versions, scale.chunks, CHUNK, scale.dirty_per_version, similarity
    ));
    body.push_str("  \"pool\": {\"benefactors\": 2, \"server_workers\": 2},\n");
    body.push_str(&format!(
        "  \"wire_bytes_dedup_over_full\": {},\n",
        wire_ratio
            .map(|h| format!("{h:.4}"))
            .unwrap_or_else(|| "null".into())
    ));
    body.push_str(&format!(
        "  \"commit_wall_dedup_over_full\": {},\n",
        wall_ratio
            .map(|h| format!("{h:.3}"))
            .unwrap_or_else(|| "null".into())
    ));
    body.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"dedup\": {}, \"versions\": {}, \"logical_bytes\": {}, \
             \"wire_bytes\": {}, \"reused_bytes\": {}, \"delta_bytes\": {}, \
             \"full_bytes\": {}, \"offered_chunks\": {}, \"wanted_chunks\": {}, \
             \"commit_wall_secs\": {:.3}}}{}\n",
            r.dedup,
            r.versions,
            r.logical_bytes,
            r.wire_bytes,
            r.reused_bytes,
            r.delta_bytes,
            r.full_bytes,
            r.offered,
            r.wanted,
            r.commit_wall_secs,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    let mut f = fs::File::create(&out_path).expect("create BENCH_dedup.json");
    f.write_all(body.as_bytes())
        .expect("write BENCH_dedup.json");
    println!("\nwrote {out_path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    let scale = if smoke {
        Scale {
            chunks: 16,
            versions: 3,
            dirty_per_version: 5,
        }
    } else {
        Scale {
            chunks: 64,
            versions: 8,
            dirty_per_version: 19,
        }
    };
    println!(
        "dedup bench: {} versions x {} chunks x {} KiB, {} dirty chunks/version \
         (~{:.0}% similar){}",
        scale.versions,
        scale.chunks,
        CHUNK >> 10,
        scale.dirty_per_version,
        100.0 * (1.0 - scale.dirty_per_version as f64 / scale.chunks as f64),
        if smoke { " (smoke scale)" } else { "" }
    );
    let mut results = Vec::new();
    for dedup in [false, true] {
        results.push(run_one(dedup, &scale));
    }
    let pick = |dedup: bool| results.iter().find(|r| r.dedup == dedup);
    let wire_ratio = match (pick(false), pick(true)) {
        (Some(full), Some(dd)) if full.wire_bytes > 0 => {
            Some(dd.wire_bytes as f64 / full.wire_bytes as f64)
        }
        _ => None,
    };
    let wall_ratio = match (pick(false), pick(true)) {
        (Some(full), Some(dd)) if full.commit_wall_secs > 0.0 => {
            Some(dd.commit_wall_secs / full.commit_wall_secs)
        }
        _ => None,
    };
    if let Some(r) = wire_ratio {
        println!("\nwire bytes dedup/full: {r:.4}");
    }
    if let Some(r) = wall_ratio {
        println!("commit wall dedup/full: {r:.3}");
    }
    // Smoke runs keep the harness alive in CI; never let their throwaway
    // numbers clobber the committed full-scale result.
    if !smoke || std::env::var("STDCHK_BENCH_OUT").is_ok() {
        write_json(&scale, &results, wire_ratio, wall_ratio);
    } else {
        println!("\nsmoke scale: skipping BENCH_dedup.json (set STDCHK_BENCH_OUT to force)");
    }
}
