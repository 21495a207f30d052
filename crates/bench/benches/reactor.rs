//! Transport benchmark: the epoll reactor under concurrent checkpoint
//! sessions.
//!
//! For each session count (64 / 256 / 512 at full scale), an in-process
//! pool (manager + 3 MemStore benefactors) serves that many
//! *simultaneous* write sessions — each its own `Grid` with its own
//! manager and benefactor connections, exactly the shape of a desktop
//! grid pool checkpointing at once. The client side is one shared
//! `GridRuntime` + a single nonblocking driver thread.
//!
//! Reported per configuration:
//!
//! - **io wall-clock**: first write byte → last commit acknowledged;
//! - **aggregate MB/s** over that window;
//! - **setup wall-clock** (connect + create): dominated by serial RPC
//!   latency, reported for completeness;
//! - **peak process threads**, the scalability story: the reactor stays
//!   O(workers) however many sessions connect.
//!
//! The committed `BENCH_reactor.json` also records the thread-per-connection
//! transport this one replaced (since removed). Writes `BENCH_reactor.json`
//! at the workspace root (override with `STDCHK_BENCH_OUT`). `--smoke` / `STDCHK_BENCH_SMOKE=1` shrinks the
//! session counts so CI keeps the harness alive in seconds.

use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::session::write::{SessionConfig, WriteProtocol};
use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::MemStore;
use stdchk_net::{
    BenefactorNetConfig, BenefactorServer, Grid, GridRuntime, ManagerServer, ServerOpts,
    WriteOptions,
};
use stdchk_util::bytesize::to_mbps;
use stdchk_util::mix64;

/// Bytes written per session (two 64 KiB chunks).
const FILE_BYTES: usize = 128 << 10;
const CHUNK: u32 = 64 << 10;

struct RunResult {
    sessions: usize,
    setup_secs: f64,
    io_secs: f64,
    agg_mb_per_s: f64,
    peak_threads: usize,
}

fn process_threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) as u8)
        .collect()
}

fn pool_cfg() -> PoolConfig {
    let mut cfg = PoolConfig::fast_for_tests();
    cfg.chunk_size = CHUNK;
    // Sessions are held open concurrently for the whole run.
    cfg.reservation_ttl = stdchk_util::Dur::from_secs(600);
    cfg
}

fn benef_cfg() -> BenefactorConfig {
    let mut cfg = BenefactorConfig::fast_for_tests();
    cfg.gc_grace = stdchk_util::Dur::from_secs(600);
    cfg
}

fn run_one(sessions: usize) -> RunResult {
    let opts = ServerOpts {
        workers: 4,
        idle_timeout: Some(Duration::from_secs(120)),
    };
    let mgr = ManagerServer::spawn_with("127.0.0.1:0", pool_cfg(), opts).expect("manager");
    let benefactors: Vec<BenefactorServer> = (0..3)
        .map(|_| {
            BenefactorServer::spawn_with(
                BenefactorNetConfig {
                    manager_addr: mgr.addr().to_string(),
                    listen: "127.0.0.1:0".into(),
                    total_space: 8 << 30,
                    cfg: benef_cfg(),
                    store: Arc::new(MemStore::new()),
                },
                opts,
            )
            .expect("benefactor")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.online_benefactors() < 3 {
        assert!(Instant::now() < deadline, "pool never came online");
        std::thread::sleep(Duration::from_millis(10));
    }

    let rt = GridRuntime::with_workers(2).expect("runtime");
    let addr = mgr.addr().to_string();
    let data = payload(FILE_BYTES, sessions as u64);
    let write_opts = WriteOptions {
        session: SessionConfig {
            protocol: WriteProtocol::SlidingWindow { buffer: 1 << 20 },
            ..SessionConfig::default()
        },
        ..WriteOptions::default()
    };

    let setup_start = Instant::now();
    let grids: Vec<Grid> = (0..sessions)
        .map(|_| Grid::connect_on(&rt, &addr).expect("connect"))
        .collect();
    let mut handles: Vec<(stdchk_net::WriteHandle, usize)> = grids
        .iter()
        .enumerate()
        .map(|(i, g)| {
            (
                g.create(&format!("/bench/s{i}.n0"), write_opts.clone())
                    .expect("create"),
                0usize,
            )
        })
        .collect();
    let setup_secs = setup_start.elapsed().as_secs_f64();

    // One driver thread pumps every session with nonblocking writes.
    let io_start = Instant::now();
    let hard_deadline = Instant::now() + Duration::from_secs(600);
    let mut peak_threads = process_threads();
    loop {
        let mut progress = false;
        let mut all_written = true;
        for (handle, off) in handles.iter_mut() {
            if *off < data.len() {
                all_written = false;
                let upto = (*off + (16 << 10)).min(data.len());
                match handle.poll_write(&data[*off..upto]) {
                    Ok(0) => {}
                    Ok(n) => {
                        *off += n;
                        progress = true;
                        if *off == data.len() {
                            handle.start_close();
                        }
                    }
                    Err(e) => panic!("[{sessions}] write failed: {e}"),
                }
            }
        }
        peak_threads = peak_threads.max(process_threads());
        if all_written {
            break;
        }
        assert!(
            Instant::now() < hard_deadline,
            "[{sessions}] writes stalled"
        );
        if !progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut remaining: Vec<_> = handles.into_iter().map(|(h, _)| h).collect();
    while !remaining.is_empty() {
        assert!(
            Instant::now() < hard_deadline,
            "[{sessions}] commits stalled"
        );
        let mut still = Vec::with_capacity(remaining.len());
        for mut handle in remaining {
            match handle.try_finish() {
                Some(Ok(_)) => {}
                Some(Err(e)) => panic!("[{sessions}] session failed: {e}"),
                None => still.push(handle),
            }
        }
        remaining = still;
        peak_threads = peak_threads.max(process_threads());
        if !remaining.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let io_secs = io_start.elapsed().as_secs_f64();
    let agg_mb_per_s = to_mbps((sessions * FILE_BYTES) as f64 / io_secs);

    drop(grids);
    drop(rt);
    for b in &benefactors {
        b.shutdown();
    }
    mgr.shutdown();

    println!(
        "x{sessions:<4} setup {setup_secs:6.2}s  io {io_secs:6.2}s  \
         {agg_mb_per_s:7.1} MB/s  peak threads {peak_threads}"
    );
    RunResult {
        sessions,
        setup_secs,
        io_secs,
        agg_mb_per_s,
        peak_threads,
    }
}

fn write_json(results: &[RunResult]) {
    let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        format!("{}/../../BENCH_reactor.json", env!("CARGO_MANIFEST_DIR"))
    });
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"reactor\",\n");
    body.push_str(&format!("  \"file_bytes\": {FILE_BYTES},\n"));
    body.push_str(&format!("  \"chunk_bytes\": {CHUNK},\n"));
    body.push_str(
        "  \"pool\": {\"benefactors\": 3, \"server_workers\": 4, \"client_workers\": 2},\n",
    );
    body.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"sessions\": {}, \"setup_secs\": {:.3}, \
             \"io_secs\": {:.3}, \"agg_mb_per_s\": {:.1}, \"peak_threads\": {}}}{}\n",
            r.sessions,
            r.setup_secs,
            r.io_secs,
            r.agg_mb_per_s,
            r.peak_threads,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    let mut f = fs::File::create(&out_path).expect("create BENCH_reactor.json");
    f.write_all(body.as_bytes())
        .expect("write BENCH_reactor.json");
    println!("\nwrote {out_path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    let session_counts: Vec<usize> = if smoke { vec![16] } else { vec![64, 256, 512] };
    println!(
        "transport bench: {} KiB/session over {:?} concurrent sessions{}",
        FILE_BYTES >> 10,
        session_counts,
        if smoke { " (smoke scale)" } else { "" }
    );
    let results: Vec<RunResult> = session_counts.iter().map(|&s| run_one(s)).collect();
    // Smoke runs keep the harness alive in CI; never let their throwaway
    // numbers clobber the committed full-scale result.
    if !smoke || std::env::var("STDCHK_BENCH_OUT").is_ok() {
        write_json(&results);
    } else {
        println!("\nsmoke scale: skipping BENCH_reactor.json (set STDCHK_BENCH_OUT to force)");
    }
}
