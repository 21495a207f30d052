//! Disk I/O lane benchmark: does an fsync tail on one connection stall
//! every other connection sharing the reactor worker?
//!
//! Setup: a durable manager on a **single** reactor worker with a fixed
//! fsync delay injected into its WAL flusher (`SyncDelay`, modelling a
//! slow platter / deep device queue), two benefactors, and two kinds of
//! client traffic:
//!
//! - a **writer** committing checkpoint files back to back — every
//!   `finish` write-ahead-logs a Commit record whose ack waits out the
//!   delayed group commit;
//! - a **probe**: a raw connection sending transport `Ping`s, answered
//!   by the reactor's connection layer on that same worker. Its RTT is
//!   the "unrelated connection" latency.
//!
//! Measured: probe RTT p50/p99/max while the commits churn. The durable
//! wait rides an I/O-lane thread, so the RTT stays an order of magnitude
//! below the injected delay. The committed `BENCH_iolane.json` also
//! records the inline-fsync path this replaced (since removed), where the
//! worker ate each 100 ms tail and the probe queued behind it.
//!
//! Writes `BENCH_iolane.json` at the workspace root (override with
//! `STDCHK_BENCH_OUT`). `--smoke` / `STDCHK_BENCH_SMOKE=1` shrinks the
//! delay and counts so CI keeps the harness alive in seconds.

use std::fs;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::MemStore;
use stdchk_net::{
    BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, ServerOpts, WriteOptions,
};
use stdchk_proto::frame::{read_frame, write_frame};
use stdchk_proto::msg::Msg;
use stdchk_util::mix64;

struct Scale {
    delay: Duration,
    files: usize,
    pings: usize,
    ping_gap: Duration,
}

struct RunResult {
    commits: usize,
    commit_wall_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) as u8)
        .collect()
}

fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn run(scale: &Scale) -> RunResult {
    let meta_dir = std::env::temp_dir().join(format!("stdchk-bench-iolane-{}", std::process::id()));
    fs::remove_dir_all(&meta_dir).ok();
    let opts = ServerOpts {
        // One worker: every socket shares it, so an fsync tail on the
        // worker would be maximally visible. The lane must hide it.
        workers: 1,
        idle_timeout: Some(Duration::from_secs(120)),
    };
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    let mgr = ManagerServer::spawn_durable_tuned(
        "127.0.0.1:0",
        pool_cfg,
        &meta_dir,
        stdchk_net::MetaLogConfig::default(),
        opts,
    )
    .expect("durable manager");
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
    mgr.meta_sync_faults()
        .expect("durable manager")
        .set_delay(scale.delay);

    let mut probe = TcpStream::connect(mgr.addr()).expect("probe connect");
    probe.set_nodelay(true).ok();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let addr = mgr.addr().to_string();
    let files = scale.files;
    let writer = std::thread::spawn(move || {
        let grid = Grid::connect(&addr).expect("writer connect");
        let start = Instant::now();
        for i in 0..files {
            let data = payload(64 << 10, 9000 + i as u64);
            let mut w = grid
                .create(&format!("/bench/lane{i}.n0"), WriteOptions::default())
                .expect("create");
            w.write_all(&data).expect("write");
            w.finish().expect("finish");
        }
        start.elapsed()
    });

    // Sample the probe while the commits churn.
    std::thread::sleep(Duration::from_millis(50));
    let mut rtts: Vec<Duration> = Vec::with_capacity(scale.pings);
    for nonce in 1..=scale.pings as u64 {
        let t0 = Instant::now();
        write_frame(&mut probe, &Msg::Ping { nonce }).expect("ping");
        loop {
            match read_frame(&mut probe).expect("pong").expect("conn open") {
                Msg::Pong { nonce: n } if n == nonce => break,
                _ => {}
            }
        }
        rtts.push(t0.elapsed());
        std::thread::sleep(scale.ping_gap);
    }
    let commit_wall = writer.join().expect("writer");

    drop(probe);
    for b in &benefactors {
        b.shutdown();
    }
    mgr.shutdown();
    drop(mgr);
    fs::remove_dir_all(&meta_dir).ok();

    rtts.sort_unstable();
    let result = RunResult {
        commits: files,
        commit_wall_secs: commit_wall.as_secs_f64(),
        p50_ms: quantile_ms(&rtts, 0.50),
        p99_ms: quantile_ms(&rtts, 0.99),
        max_ms: quantile_ms(&rtts, 1.0),
    };
    println!(
        "{} commits in {:5.2}s  probe RTT p50 {:7.2}ms  p99 {:7.2}ms  max {:7.2}ms",
        result.commits, result.commit_wall_secs, result.p50_ms, result.p99_ms, result.max_ms
    );
    result
}

fn write_json(scale: &Scale, r: &RunResult) {
    let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        format!("{}/../../BENCH_iolane.json", env!("CARGO_MANIFEST_DIR"))
    });
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"iolane\",\n");
    body.push_str(&format!(
        "  \"injected_fsync_delay_ms\": {},\n",
        scale.delay.as_millis()
    ));
    body.push_str("  \"pool\": {\"benefactors\": 2, \"server_workers\": 1},\n");
    body.push_str(&format!(
        "  \"result\": {{\"commits\": {}, \"commit_wall_secs\": {:.3}, \
         \"probe_rtt_p50_ms\": {:.3}, \"probe_rtt_p99_ms\": {:.3}, \
         \"probe_rtt_max_ms\": {:.3}}}\n",
        r.commits, r.commit_wall_secs, r.p50_ms, r.p99_ms, r.max_ms,
    ));
    body.push_str("}\n");
    let mut f = fs::File::create(&out_path).expect("create BENCH_iolane.json");
    f.write_all(body.as_bytes())
        .expect("write BENCH_iolane.json");
    println!("\nwrote {out_path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    let scale = if smoke {
        Scale {
            delay: Duration::from_millis(25),
            files: 6,
            pings: 20,
            ping_gap: Duration::from_millis(5),
        }
    } else {
        Scale {
            delay: Duration::from_millis(100),
            files: 30,
            pings: 120,
            ping_gap: Duration::from_millis(20),
        }
    };
    println!(
        "iolane bench: {} ms injected WAL fsync delay, {} commits, {} probe pings{}",
        scale.delay.as_millis(),
        scale.files,
        scale.pings,
        if smoke { " (smoke scale)" } else { "" }
    );
    let result = run(&scale);
    // Smoke runs keep the harness alive in CI; never let their throwaway
    // numbers clobber the committed full-scale result.
    if !smoke || std::env::var("STDCHK_BENCH_OUT").is_ok() {
        write_json(&scale, &result);
    } else {
        println!("\nsmoke scale: skipping BENCH_iolane.json (set STDCHK_BENCH_OUT to force)");
    }
}
