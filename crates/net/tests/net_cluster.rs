//! End-to-end tests of the real TCP deployment on loopback: manager server,
//! benefactor servers with blob stores, and the blocking client.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::session::write::{SessionConfig, WriteProtocol};
use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::{ChunkStore, MemStore, SegmentStore};
use stdchk_net::{
    BenefactorNetConfig, BenefactorServer, Grid, GridError, GridRuntime, ManagerServer, ServerOpts,
    WriteOptions,
};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::mix64;

struct TestPool {
    mgr: ManagerServer,
    benefactors: Vec<BenefactorServer>,
}

impl TestPool {
    fn start(n: usize) -> TestPool {
        let mut pool_cfg = PoolConfig::fast_for_tests();
        pool_cfg.chunk_size = 64 << 10;
        let mgr = ManagerServer::spawn("127.0.0.1:0", pool_cfg).expect("manager");
        let mut benefactors = Vec::new();
        for _ in 0..n {
            benefactors.push(
                BenefactorServer::spawn(BenefactorNetConfig {
                    manager_addr: mgr.addr().to_string(),
                    listen: "127.0.0.1:0".into(),
                    total_space: 256 << 20,
                    cfg: BenefactorConfig::fast_for_tests(),
                    store: Arc::new(MemStore::new()),
                })
                .expect("benefactor"),
            );
        }
        let pool = TestPool { mgr, benefactors };
        pool.wait_online(n);
        pool
    }

    fn wait_online(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.mgr.online_benefactors() < n {
            assert!(Instant::now() < deadline, "pool never came online");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn grid(&self) -> Grid {
        Grid::connect(&self.mgr.addr().to_string()).expect("connect")
    }
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) as u8)
        .collect()
}

fn opts(protocol: WriteProtocol) -> WriteOptions {
    WriteOptions {
        session: SessionConfig {
            protocol,
            ..SessionConfig::default()
        },
        ..WriteOptions::default()
    }
}

#[test]
fn sliding_window_roundtrip_over_tcp() {
    let pool = TestPool::start(3);
    let grid = pool.grid();
    let data = payload(300 << 10, 1); // ~5 chunks
    let mut w = grid
        .create(
            "/app/sw.n0",
            opts(WriteProtocol::SlidingWindow { buffer: 4 << 20 }),
        )
        .expect("create");
    w.write_all(&data).expect("write");
    let stats = w.finish().expect("finish");
    assert_eq!(stats.bytes_written, data.len() as u64);
    assert!(stats.oab().is_some() && stats.asb().is_some());

    let r = grid.open("/app/sw.n0", None).expect("open");
    assert_eq!(r.file_size(), data.len() as u64);
    assert_eq!(r.read_all().expect("read"), data);
    pool.mgr.check_invariants();
}

#[test]
fn complete_local_write_roundtrip_over_tcp() {
    let pool = TestPool::start(2);
    let grid = pool.grid();
    let data = payload(200 << 10, 2);
    let mut w = grid
        .create("/app/clw.n0", opts(WriteProtocol::CompleteLocal))
        .expect("create");
    for piece in data.chunks(17 << 10) {
        w.write_all(piece).expect("write");
    }
    w.finish().expect("finish");
    assert_eq!(
        grid.open("/app/clw.n0", None).unwrap().read_all().unwrap(),
        data
    );
}

#[test]
fn incremental_write_roundtrip_over_tcp() {
    let pool = TestPool::start(2);
    let grid = pool.grid();
    let data = payload(400 << 10, 3);
    let mut w = grid
        .create(
            "/app/iw.n0",
            opts(WriteProtocol::Incremental {
                temp_size: 128 << 10,
            }),
        )
        .expect("create");
    w.write_all(&data).expect("write");
    w.finish().expect("finish");
    assert_eq!(
        grid.open("/app/iw.n0", None).unwrap().read_all().unwrap(),
        data
    );
}

#[test]
fn session_semantics_hide_uncommitted_data() {
    let pool = TestPool::start(2);
    let grid = pool.grid();
    let mut w = grid
        .create("/app/hidden.n0", WriteOptions::default())
        .expect("create");
    w.write_all(&payload(64 << 10, 4)).expect("write");
    // Not yet finished: the file must not exist for readers.
    assert!(grid.stat("/app/hidden.n0").is_err());
    w.finish().expect("finish");
    assert_eq!(grid.stat("/app/hidden.n0").unwrap().size, 64 << 10);
}

#[test]
fn dedup_reduces_second_version_transfers() {
    let pool = TestPool::start(3);
    let grid = pool.grid();
    let data = payload(512 << 10, 5);
    let mut o = WriteOptions::default();
    o.session.dedup = true;
    let mut w = grid.create("/app/inc.n0", o.clone()).expect("v1");
    w.write_all(&data).expect("write");
    let s1 = w.finish().expect("finish v1");
    assert_eq!(s1.bytes_deduped, 0);

    // Second version: dirty one chunk worth of data.
    let mut data2 = data.clone();
    data2[200 << 10] ^= 0xff;
    let mut w = grid.create("/app/inc.n0", o).expect("v2");
    w.write_all(&data2).expect("write");
    let s2 = w.finish().expect("finish v2");
    assert!(
        s2.bytes_deduped >= s2.bytes_written * 7 / 10,
        "most bytes should dedup: {} of {}",
        s2.bytes_deduped,
        s2.bytes_written
    );
    assert_eq!(
        grid.open("/app/inc.n0", None).unwrap().read_all().unwrap(),
        data2
    );
    // Both versions retained (no policy set).
    assert_eq!(grid.versions("/app/inc.n0").unwrap().len(), 2);
    pool.mgr.check_invariants();
}

/// The wire-dedup subsystem end to end: the second, ~70%-similar version
/// of a checkpoint negotiates have/want with the manager, ships only the
/// missing chunks (full or as deltas), and both versions read back
/// byte-identical. The session's wire accounting must agree with what
/// [`SimilarityTracker`] predicts from the chunk streams.
#[test]
fn negotiation_ships_only_missing_chunks_of_similar_version() {
    use stdchk_chunker::{Chunker, FsChunker, SimilarityTracker};

    if !stdchk_net::dedup_enabled() {
        // `STDCHK_DEDUP=off` is the full-transfer A/B baseline; the other
        // roundtrip tests cover it.
        return;
    }
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 10;
    let pool = TestPool::start(3);
    let grid = pool.grid();

    let v1 = payload(CHUNKS * CHUNK, 21);
    // ~70% similar: dirty 3 of 10 chunks with a single flipped byte each
    // (near-miss chunks — exactly what the delta path is for).
    let mut v2 = v1.clone();
    for i in [1usize, 4, 8] {
        v2[i * CHUNK + 17] ^= 0xff;
    }
    let chunker = FsChunker::new(CHUNK);
    let mut tracker = SimilarityTracker::new();
    tracker.observe(&chunker.split(&v1));
    let report = tracker.predict(&chunker.split(&v2));
    assert_eq!(report.dup_bytes, 7 * CHUNK as u64, "test setup");

    let mut w = grid
        .create("/ckpt/img.n0", WriteOptions::default())
        .expect("v1");
    w.write_all(&v1).expect("write v1");
    let s1 = w.finish().expect("finish v1");
    // First version: everything is offered, everything is wanted.
    assert_eq!(s1.offered_chunks, CHUNKS as u64);
    assert_eq!(s1.wanted_chunks, CHUNKS as u64);
    assert_eq!(s1.wire_reused_bytes, 0);

    let mut w = grid
        .create("/ckpt/img.n0", WriteOptions::default())
        .expect("v2");
    w.write_all(&v2).expect("write v2");
    let s2 = w.finish().expect("finish v2");

    // Wanted-chunk count and bytes-on-wire match the similarity report:
    // the 7 duplicate chunks commit by reference, the 3 dirty ones ship —
    // as deltas or full, but never more than their plain size.
    assert_eq!(s2.offered_chunks, CHUNKS as u64);
    assert_eq!(s2.wanted_chunks * CHUNK as u64, report.new_bytes);
    assert_eq!(s2.wire_reused_bytes, report.dup_bytes);
    let on_wire = s2.wire_delta_bytes + s2.wire_full_bytes;
    assert!(on_wire > 0, "wanted chunks must actually travel");
    assert!(
        on_wire <= report.new_bytes,
        "bytes on wire {on_wire} exceed the similarity report's {} new bytes",
        report.new_bytes
    );
    assert!(
        s2.wire_delta_bytes > 0,
        "single-byte flips must delta-encode against the harvested signatures"
    );
    assert!(
        on_wire * 2 <= s2.bytes_written,
        "a 70%-similar version must ship under half its bytes"
    );

    // Both versions remain readable, byte for byte.
    let versions = grid.versions("/ckpt/img.n0").expect("versions");
    assert_eq!(versions.len(), 2);
    let (old, new) = (versions[0].version, versions[1].version);
    assert_eq!(
        grid.open("/ckpt/img.n0", Some(old))
            .unwrap()
            .read_all()
            .unwrap(),
        v1
    );
    assert_eq!(
        grid.open("/ckpt/img.n0", Some(new))
            .unwrap()
            .read_all()
            .unwrap(),
        v2
    );
    // Manager-side ledger saw the same traffic.
    let totals = pool.mgr.dedup_totals();
    assert_eq!(totals.commits, 2);
    assert_eq!(totals.reused_bytes, report.dup_bytes);

    // v3 dirties chunks that v2 reused instead of shipping: their delta
    // bases were harvested from v1 and must survive the client's bound
    // on its basis cache (the chunks of the last committed version).
    let mut v3 = v2.clone();
    for i in [0usize, 3, 6] {
        v3[i * CHUNK + 17] ^= 0xff;
    }
    let mut w = grid
        .create("/ckpt/img.n0", WriteOptions::default())
        .expect("v3");
    w.write_all(&v3).expect("write v3");
    let s3 = w.finish().expect("finish v3");
    assert_eq!(s3.wanted_chunks, 3);
    assert!(
        s3.wire_delta_bytes > 0,
        "chunks reused by v2 must keep their v1 delta bases"
    );
    assert_eq!(
        grid.open("/ckpt/img.n0", None).unwrap().read_all().unwrap(),
        v3
    );
    pool.mgr.check_invariants();
}

#[test]
fn metadata_operations_work_over_tcp() {
    let pool = TestPool::start(2);
    let grid = pool.grid();
    grid.set_policy("/policy-dir", RetentionPolicy::REPLACE)
        .expect("set policy");
    for name in ["a.n0", "b.n0"] {
        let mut w = grid
            .create(&format!("/meta/{name}"), WriteOptions::default())
            .expect("create");
        w.write_all(&payload(32 << 10, 6)).expect("write");
        w.finish().expect("finish");
    }
    let listing = grid.list("/meta").expect("list");
    let names: Vec<&str> = listing.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["a.n0", "b.n0"]);
    let attr = grid.stat("/meta").expect("stat dir");
    assert!(attr.is_dir);

    grid.delete("/meta/a.n0").expect("delete");
    assert!(grid.stat("/meta/a.n0").is_err());
    assert_eq!(grid.list("/meta").unwrap().len(), 1);
}

#[test]
fn replication_reaches_two_copies() {
    let pool = TestPool::start(3);
    let grid = pool.grid();
    let data = payload(128 << 10, 7);
    let mut o = WriteOptions {
        replication: 2,
        ..WriteOptions::default()
    };
    o.session.pessimistic = true; // finish() returns only when replicated
    let mut w = grid.create("/app/rep.n0", o).expect("create");
    w.write_all(&data).expect("write");
    w.finish().expect("finish");
    // Every chunk is on two benefactors: total stored chunk instances is
    // twice the distinct count (2 chunks of 64 KiB).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counts: Vec<usize> = pool.benefactors.iter().map(|b| b.chunk_count()).collect();
        let total: usize = counts.iter().sum();
        if total == 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replicas never settled at 4: {counts:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    pool.mgr.check_invariants();
}

#[test]
fn write_survives_benefactor_death() {
    let pool = TestPool::start(4);
    let grid = pool.grid();
    // Kill one benefactor before writing; its stripe slot must fail over.
    pool.benefactors[0].shutdown();
    std::thread::sleep(Duration::from_millis(50));
    let data = payload(256 << 10, 8);
    let mut w = grid
        .create("/app/survivor.n0", WriteOptions::default())
        .expect("create");
    w.write_all(&data).expect("write");
    w.finish().expect("finish despite dead benefactor");
    assert_eq!(
        grid.open("/app/survivor.n0", None)
            .unwrap()
            .read_all()
            .unwrap(),
        data
    );
}

#[test]
fn finish_collects_an_earlier_start_close() {
    let pool = TestPool::start(1);
    let grid = pool.grid();
    let data = payload(200 << 10, 11);
    let mut w = grid
        .create("/app/closing.n0", WriteOptions::default())
        .expect("create");
    w.write_all(&data).expect("write");
    w.start_close();
    w.finish().expect("finish after start_close");
    assert_eq!(
        grid.open("/app/closing.n0", None)
            .unwrap()
            .read_all()
            .unwrap(),
        data
    );
}

#[test]
fn finish_after_session_failure_returns_the_error() {
    let pool = TestPool::start(1);
    let grid = pool.grid();
    let mut w = grid
        .create(
            "/app/failed.n0",
            opts(WriteProtocol::SlidingWindow { buffer: 1 << 20 }),
        )
        .expect("create");
    // The only benefactor in the granted stripe dies: the first put
    // fails, the stripe empties and the session fails.
    pool.benefactors[0].shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seed = 12;
    let err = loop {
        // Distinct chunks, so none dedups against an earlier one.
        seed += 1;
        if let Err(e) = w.poll_write(&payload(64 << 10, seed)) {
            break e;
        }
        assert!(Instant::now() < deadline, "session never failed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        matches!(
            err.get_ref().and_then(|e| e.downcast_ref::<GridError>()),
            Some(GridError::SessionFailed(_))
        ),
        "{err}"
    );
    match w.finish() {
        Err(GridError::SessionFailed(_)) => {}
        other => panic!("finish on a failed session: {other:?}"),
    }
}

/// Opens a segment store on `dir`, retrying while a just-dropped
/// predecessor still holds the directory's exclusive `LOCK` (its threads
/// drain their `Arc`s asynchronously).
fn open_segment_store(dir: &std::path::Path) -> Arc<dyn ChunkStore> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match SegmentStore::open(dir) {
            Ok(s) => return Arc::new(s),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("open segment store: {e}"),
        }
    }
}

/// Writes through a segment-store benefactor, restarts the benefactor
/// process on the same directory, and checks the restarted index adopts
/// every persisted chunk.
#[test]
fn segment_store_benefactor_serves_after_restart() {
    let dir = std::env::temp_dir().join(format!("stdchk-net-restart-seg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    let mgr = ManagerServer::spawn("127.0.0.1:0", pool_cfg).expect("manager");
    let b1 = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 64 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store: open_segment_store(&dir),
    })
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    let data = payload(128 << 10, 9);
    let mut w = grid
        .create("/app/durable.n0", WriteOptions::default())
        .expect("create");
    w.write_all(&data).expect("write");
    w.finish().expect("finish");

    // Restart the benefactor process on the same directory.
    let old_chunks = b1.chunk_count();
    assert!(old_chunks > 0);
    b1.shutdown();
    drop(b1);
    let b2 = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 64 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store: open_segment_store(&dir),
    })
    .expect("benefactor restart");
    assert_eq!(b2.chunk_count(), old_chunks, "index adopted from disk");
    std::fs::remove_dir_all(&dir).ok();
}

/// Opens a durable manager on `meta_dir`, retrying while a just-dropped
/// predecessor still holds the log directory's `LOCK` (its threads drain
/// their `Arc`s asynchronously).
fn respawn_durable(
    pool_cfg: PoolConfig,
    meta_dir: &std::path::Path,
    log_cfg: stdchk_net::metalog::MetaLogConfig,
) -> ManagerServer {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ManagerServer::spawn_durable_with("127.0.0.1:0", pool_cfg.clone(), meta_dir, log_cfg)
        {
            Ok(m) => return m,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("open durable manager: {e}"),
        }
    }
}

/// Kill and restart a durable manager under a populated namespace.
/// `stat`/`list`/`open` must succeed from snapshot + WAL replay alone:
/// no benefactor heartbeat can reach the successor, because the
/// benefactors still dial the dead manager's address.
#[test]
fn durable_manager_serves_replayed_namespace_after_restart() {
    let meta_dir = std::env::temp_dir().join(format!("stdchk-mgr-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&meta_dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    // The restarted manager restores benefactors as online; keep them so
    // for the duration of the test even though they never heartbeat it.
    pool_cfg.benefactor_timeout = stdchk_util::Dur::from_secs(60);
    let log_cfg = stdchk_net::metalog::MetaLogConfig::default();
    let mgr =
        ManagerServer::spawn_durable_with("127.0.0.1:0", pool_cfg.clone(), &meta_dir, log_cfg)
            .expect("durable manager");
    let mut benefactors = Vec::new();
    for _ in 0..2 {
        benefactors.push(
            BenefactorServer::spawn(BenefactorNetConfig {
                manager_addr: mgr.addr().to_string(),
                listen: "127.0.0.1:0".into(),
                total_space: 256 << 20,
                cfg: BenefactorConfig::fast_for_tests(),
                store: Arc::new(MemStore::new()),
            })
            .expect("benefactor"),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 2 {
        assert!(Instant::now() < deadline, "pool never online");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Populate the namespace with everything the WAL must carry: a
    // policy, two versions of one file (the policy prunes to one), a
    // second file, and a deleted file.
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    grid.set_policy("/jobs", RetentionPolicy::REPLACE)
        .expect("policy");
    let v1 = payload(130 << 10, 41);
    let v2 = payload(200 << 10, 42);
    for data in [&v1, &v2] {
        let mut w = grid
            .create("/jobs/a.n0", WriteOptions::default())
            .expect("create a");
        w.write_all(data).expect("write");
        w.finish().expect("finish");
    }
    let b_data = payload(64 << 10, 43);
    let mut w = grid
        .create("/meta/b.n0", WriteOptions::default())
        .expect("create b");
    w.write_all(&b_data).expect("write");
    w.finish().expect("finish");
    let mut w = grid
        .create("/meta/tmp.n0", WriteOptions::default())
        .expect("create tmp");
    w.write_all(&payload(32 << 10, 44)).expect("write");
    w.finish().expect("finish");
    grid.delete("/meta/tmp.n0").expect("delete");
    let stat_a = grid.stat("/jobs/a.n0").expect("stat a");
    assert_eq!(stat_a.versions, 1, "REPLACE policy keeps one version");
    mgr.check_invariants();

    // Kill the manager. The benefactors keep running but can never reach
    // the successor: no heartbeat.
    drop(mgr);
    let mgr2 = respawn_durable(pool_cfg, &meta_dir, log_cfg);

    // Everything observable must come back from snapshot + WAL replay.
    let grid2 = Grid::connect(&mgr2.addr().to_string()).expect("reconnect");
    let stat_a2 = grid2.stat("/jobs/a.n0").expect("stat after restart");
    assert_eq!(stat_a2, stat_a);
    assert_eq!(
        grid2.stat("/meta/b.n0").expect("stat b").size,
        b_data.len() as u64
    );
    assert!(
        grid2.stat("/meta/tmp.n0").is_err(),
        "deleted file must stay deleted"
    );
    let names: Vec<String> = grid2
        .list("/meta")
        .expect("list")
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["b.n0"]);
    assert_eq!(grid2.versions("/jobs/a.n0").expect("versions").len(), 1);
    // The read path works end to end: locations and dial addresses all
    // came from the replayed metadata, not from any re-registration.
    assert_eq!(
        grid2
            .open("/jobs/a.n0", None)
            .expect("open")
            .read_all()
            .expect("read"),
        v2
    );
    let stats = mgr2.stats();
    assert_eq!(stats.commits, 0, "replay must not count as new commits");
    mgr2.check_invariants();
    drop(mgr2);
    std::fs::remove_dir_all(&meta_dir).ok();
}

/// Snapshot cadence: with a tiny `snapshot_every` the background
/// snapshotter compacts the WAL, and a restart restores from snapshot +
/// tail instead of the full history.
#[test]
fn durable_manager_snapshots_compact_the_wal() {
    let meta_dir = std::env::temp_dir().join(format!("stdchk-mgr-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&meta_dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    pool_cfg.benefactor_timeout = stdchk_util::Dur::from_secs(60);
    let log_cfg = stdchk_net::metalog::MetaLogConfig {
        snapshot_every: 4,
        ..Default::default()
    };
    let mgr =
        ManagerServer::spawn_durable_with("127.0.0.1:0", pool_cfg.clone(), &meta_dir, log_cfg)
            .expect("durable manager");
    let _benefactor = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 256 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store: Arc::new(MemStore::new()),
    })
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    let mut sizes = Vec::new();
    for i in 0..6 {
        let data = payload((16 << 10) + i * 512, 50 + i as u64);
        let mut w = grid
            .create(&format!("/many/f{i}.n0"), WriteOptions::default())
            .expect("create");
        w.write_all(&data).expect("write");
        w.finish().expect("finish");
        sizes.push(data.len() as u64);
    }
    // The snapshotter thread polls every 100 ms; wait for it to compact.
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.meta_wal_tail().expect("durable") >= 4 {
        assert!(Instant::now() < deadline, "snapshot never installed");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(mgr);
    let mgr2 = respawn_durable(pool_cfg, &meta_dir, log_cfg);
    let grid2 = Grid::connect(&mgr2.addr().to_string()).expect("reconnect");
    for (i, size) in sizes.iter().enumerate() {
        assert_eq!(
            grid2.stat(&format!("/many/f{i}.n0")).expect("stat").size,
            *size
        );
    }
    mgr2.check_invariants();
    drop(mgr2);
    std::fs::remove_dir_all(&meta_dir).ok();
}

/// Cross-version refcounts vs GC: after the retention policy prunes the
/// older version, the chunks it *shared* with the newer version must
/// survive garbage collection (the newer version still references them),
/// while the chunks only the old version used are reclaimed. A durable
/// manager restart must replay the wire-dedup ledger without inventing
/// commits.
#[test]
fn refcounted_chunks_survive_gc_after_prune_and_restart() {
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 10;
    let meta_dir = std::env::temp_dir().join(format!("stdchk-mgr-dedup-{}", std::process::id()));
    std::fs::remove_dir_all(&meta_dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = CHUNK as u32;
    pool_cfg.benefactor_timeout = stdchk_util::Dur::from_secs(60);
    let log_cfg = stdchk_net::metalog::MetaLogConfig::default();
    let mgr =
        ManagerServer::spawn_durable_with("127.0.0.1:0", pool_cfg.clone(), &meta_dir, log_cfg)
            .expect("durable manager");
    let benefactor = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 256 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store: Arc::new(MemStore::new()),
    })
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline, "pool never online");
        std::thread::sleep(Duration::from_millis(10));
    }
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    grid.set_policy("/ckpt", RetentionPolicy::REPLACE)
        .expect("policy");

    let v1 = payload(CHUNKS * CHUNK, 31);
    let mut v2 = v1.clone();
    for i in [0usize, 5, 9] {
        v2[i * CHUNK + 3] ^= 0xff;
    }
    for data in [&v1, &v2] {
        let mut w = grid
            .create("/ckpt/img.n0", WriteOptions::default())
            .expect("create");
        w.write_all(data).expect("write");
        w.finish().expect("finish");
    }
    // The REPLACE policy prunes v1; GC then reclaims the 3 chunks only v1
    // used, while the 7 chunks v2 still references must survive — the
    // benefactor settles at exactly v2's distinct chunk count.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if benefactor.chunk_count() == CHUNKS && grid.stat("/ckpt/img.n0").unwrap().versions == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "GC never settled: {} chunks, {} versions",
            benefactor.chunk_count(),
            grid.stat("/ckpt/img.n0").unwrap().versions,
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        grid.open("/ckpt/img.n0", None).unwrap().read_all().unwrap(),
        v2,
        "shared chunks must survive the prune"
    );
    let totals = mgr.dedup_totals();
    if stdchk_net::dedup_enabled() {
        assert!(
            totals.commits >= 1,
            "negotiated commits must hit the ledger"
        );
        assert_eq!(totals.reused_bytes, 7 * CHUNK as u64);
    }
    mgr.check_invariants();

    // Restart: the ledger replays from the WAL; commit counters do not.
    drop(mgr);
    let mgr2 = respawn_durable(pool_cfg, &meta_dir, log_cfg);
    assert_eq!(mgr2.dedup_totals(), totals, "ledger survives restart");
    let stats = mgr2.stats();
    assert_eq!(stats.commits, 0, "replay must not count as commits");
    let grid2 = Grid::connect(&mgr2.addr().to_string()).expect("reconnect");
    assert_eq!(
        grid2
            .open("/ckpt/img.n0", None)
            .unwrap()
            .read_all()
            .unwrap(),
        v2
    );
    mgr2.check_invariants();
    drop(mgr2);
    std::fs::remove_dir_all(&meta_dir).ok();
}

/// OS threads of this process (from `/proc/self/status`).
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .expect("read /proc/self/status")
}

/// The reactor's scalability contract: 256 concurrent client sessions —
/// each its own `Grid` with its own manager + benefactor connections —
/// complete while process thread count stays O(workers), not
/// O(connections). A thread-per-connection transport would add 500+
/// threads here; the reactor adds none per connection.
#[test]
fn reactor_stress_many_sessions_worker_bounded_threads() {
    const SESSIONS: usize = 256;
    const FILE_BYTES: usize = 96 << 10; // 1.5 chunks at the 64 KiB size

    // Fast heartbeats, but a realistic reservation TTL: 256 sessions are
    // deliberately held open concurrently, far longer than the 500 ms
    // fast-test TTL.
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    pool_cfg.reservation_ttl = stdchk_util::Dur::from_secs(120);
    // Likewise the GC grace: uncommitted chunks of these long-lived
    // sessions must not be reported (and reaped) as orphans mid-test.
    let mut benef_cfg = BenefactorConfig::fast_for_tests();
    benef_cfg.gc_grace = stdchk_util::Dur::from_secs(120);
    let mgr = ManagerServer::spawn("127.0.0.1:0", pool_cfg).expect("manager");
    let mut benefactors = Vec::new();
    for _ in 0..3 {
        benefactors.push(
            BenefactorServer::spawn(BenefactorNetConfig {
                manager_addr: mgr.addr().to_string(),
                listen: "127.0.0.1:0".into(),
                total_space: 1 << 30,
                cfg: benef_cfg.clone(),
                store: Arc::new(MemStore::new()),
            })
            .expect("benefactor"),
        );
    }
    let pool = TestPool { mgr, benefactors };
    pool.wait_online(3);
    let threads_before = process_threads();

    // One shared client runtime: every grid's sockets live on it.
    let rt = GridRuntime::with_workers(2).expect("runtime");
    let addr = pool.mgr.addr().to_string();
    let grids: Vec<Grid> = (0..SESSIONS)
        .map(|_| Grid::connect_on(&rt, &addr).expect("connect"))
        .collect();
    let data = payload(FILE_BYTES, 1234);
    let mut handles = Vec::with_capacity(SESSIONS);
    for (i, grid) in grids.iter().enumerate() {
        handles.push((
            grid.create(
                &format!("/stress/ckpt{i}.n0"),
                opts(WriteProtocol::SlidingWindow { buffer: 1 << 20 }),
            )
            .expect("create"),
            0usize,
        ));
    }

    // Drive all sessions from this one thread with nonblocking writes.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut threads_mid = 0usize;
    loop {
        let mut progress = false;
        let mut all_done = true;
        for (handle, off) in handles.iter_mut() {
            if *off < data.len() {
                all_done = false;
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
                    Err(e) => panic!("session write failed: {e}"),
                }
            }
        }
        if threads_mid == 0 {
            // All 256 sessions (and their 1000+ sockets) are now live.
            threads_mid = process_threads();
        }
        if all_done {
            break;
        }
        assert!(Instant::now() < deadline, "stress writes stalled");
        if !progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Poll the commits to completion (still a single driver thread).
    let mut remaining: Vec<_> = handles.into_iter().map(|(h, _)| h).collect();
    while !remaining.is_empty() {
        assert!(Instant::now() < deadline, "stress commits stalled");
        let mut still = Vec::with_capacity(remaining.len());
        for mut handle in remaining {
            match handle.try_finish() {
                Some(Ok(stats)) => assert_eq!(stats.bytes_written, FILE_BYTES as u64),
                Some(Err(e)) => panic!("session failed: {e}"),
                None => still.push(handle),
            }
        }
        remaining = still;
        if !remaining.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Connections scaled with sessions; threads did not. (Other tests run
    // concurrently in this process, so leave generous headroom — a
    // thread-per-connection transport would blow through it 10x over.)
    let conns = rt.connection_count();
    assert!(conns >= SESSIONS, "expected ≥{SESSIONS} conns, got {conns}");
    let grew = threads_mid.saturating_sub(threads_before);
    assert!(
        grew < 64,
        "thread count grew by {grew} (before={threads_before}, mid={threads_mid}) — \
         threads must not scale with the {conns} live connections"
    );

    // Spot-check durability of what was written.
    for i in (0..SESSIONS).step_by(61) {
        let r = grids[i]
            .open(&format!("/stress/ckpt{i}.n0"), None)
            .expect("open");
        assert_eq!(r.read_all().expect("read"), data, "session {i}");
    }
    pool.mgr.check_invariants();
}

/// Reactor-driven liveness bound on steady-state reads: a peer that
/// connects and then goes silent (here: a torn frame header, then
/// nothing) is reaped by the idle timeout instead of leaking its
/// connection and reader state forever.
#[test]
fn reactor_reaps_stalled_connection() {
    let mgr = ManagerServer::spawn_with(
        "127.0.0.1:0",
        PoolConfig::fast_for_tests(),
        ServerOpts {
            workers: 2,
            idle_timeout: Some(Duration::from_millis(400)),
        },
    )
    .expect("manager");

    // A wedged peer: 3 of the 4 frame-header bytes, then silence. A
    // blocking reader would park on it forever.
    let mut stalled = std::net::TcpStream::connect(mgr.addr()).expect("connect");
    stalled.write_all(&[7, 0, 0]).expect("partial header");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let start = Instant::now();
    let mut buf = [0u8; 8];
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "manager must close the stalled connection");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "reap took {:?}",
        start.elapsed()
    );

    // The reaper only takes silent peers: a live client still works.
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    assert!(grid.list("/").is_ok());
}

/// The disk I/O lane's contract: with a 100 ms fsync delay injected into
/// the manager's WAL flusher and durable commits churning on other
/// connections, an *unrelated* connection's transport Ping/Pong RTT must
/// stay an order of magnitude below the delay. The manager runs one
/// reactor worker, so every socket shares it — before the lane, the
/// worker ate each commit's group-commit wait and the probe's pings
/// queued behind 100 ms fsync tails.
#[test]
fn io_lane_decouples_unrelated_rtt_from_fsync_tails() {
    use stdchk_proto::frame::{read_frame, write_frame};
    use stdchk_proto::msg::Msg;

    const DELAY: Duration = Duration::from_millis(100);
    const FILES: usize = 12;
    let meta_dir = std::env::temp_dir().join(format!("stdchk-mgr-lane-{}", std::process::id()));
    std::fs::remove_dir_all(&meta_dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    let mgr = ManagerServer::spawn_durable_tuned(
        "127.0.0.1:0",
        pool_cfg,
        &meta_dir,
        stdchk_net::metalog::MetaLogConfig::default(),
        ServerOpts {
            workers: 1,
            ..ServerOpts::default()
        },
    )
    .expect("durable manager");
    let _benefactor = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 256 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store: Arc::new(MemStore::new()),
    })
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline, "pool never online");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every WAL flush now waits out an injected 100 ms "slow platter".
    mgr.meta_sync_faults()
        .expect("durable manager")
        .set_delay(DELAY);

    // The probe: a raw connection whose transport pings the reactor's
    // connection layer answers on the same single worker that owns the
    // commit traffic. No handshake needed — Ping never reaches the app.
    let mut probe = std::net::TcpStream::connect(mgr.addr()).expect("probe connect");
    probe.set_nodelay(true).ok();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Commit churn: every `finish` write-ahead-logs a Commit record and
    // its ack waits out the delayed group commit (on the lane).
    let addr = mgr.addr().to_string();
    let writer = std::thread::spawn(move || {
        let grid = Grid::connect(&addr).expect("writer connect");
        let start = Instant::now();
        for i in 0..FILES {
            let data = payload(64 << 10, 7000 + i as u64);
            let mut w = grid
                .create(&format!("/lane/f{i}.n0"), WriteOptions::default())
                .expect("create");
            w.write_all(&data).expect("write");
            w.finish().expect("finish");
        }
        start.elapsed()
    });

    // Sample RTTs while the commits churn.
    std::thread::sleep(Duration::from_millis(100));
    let mut rtts = Vec::new();
    for nonce in 1..=40u64 {
        let t0 = Instant::now();
        write_frame(&mut probe, &Msg::Ping { nonce }).expect("ping");
        loop {
            match read_frame(&mut probe).expect("pong").expect("conn open") {
                Msg::Pong { nonce: n } if n == nonce => break,
                _ => {}
            }
        }
        rtts.push(t0.elapsed());
        std::thread::sleep(Duration::from_millis(15));
    }
    let commit_wall = writer.join().expect("writer");
    // The tails were real: each of the 12 commits waited out (a share
    // of) the injected delay.
    assert!(
        commit_wall >= DELAY * 4,
        "commits finished in {commit_wall:?} — the injected delay never engaged"
    );
    rtts.sort_unstable();
    let p50 = rtts[rtts.len() / 2];
    let p90 = rtts[rtts.len() * 9 / 10];
    assert!(
        p50 < DELAY / 10,
        "median probe RTT {p50:?} not an order of magnitude below the {DELAY:?} fsync delay \
         (all: {rtts:?})"
    );
    assert!(
        p90 < DELAY / 2,
        "p90 probe RTT {p90:?} still coupled to the fsync tail (all: {rtts:?})"
    );
    drop(mgr);
    std::fs::remove_dir_all(&meta_dir).ok();
}

#[test]
fn connect_to_dead_manager_fails_fast() {
    use stdchk_net::GridError;

    // Closed port: the dial errors immediately instead of hanging.
    let start = Instant::now();
    assert!(Grid::connect("127.0.0.1:1").is_err());
    assert!(
        start.elapsed() < Duration::from_secs(6),
        "dead dial must fail within the connect timeout"
    );

    // Accepting-but-silent manager: the handshake read times out instead of
    // blocking the caller forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let start = Instant::now();
    match Grid::connect(&addr) {
        Err(GridError::Timeout) => {}
        other => panic!("expected handshake timeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "silent manager must time the handshake out"
    );
    drop(listener);
}

/// Chaos: a segment-store benefactor is killed in the middle of a
/// replicated write and restarted on the same directory moments later.
/// The client fails its in-flight puts over to surviving stripe nodes,
/// the manager expires the dead incarnation by heartbeat timeout, the
/// restarted process re-adopts its persisted chunks and re-advertises
/// them through GC reports, and the pessimistic commit converges with two
/// live copies of every chunk. The commit reply also carries the
/// churn-derived checkpoint guidance.
#[test]
fn chaos_benefactor_kill_restart_mid_write_converges() {
    let dir = std::env::temp_dir().join(format!("stdchk-net-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    // The write stalls across the kill + failover window; the eager
    // space reservation must survive that stall (the 500 ms test
    // default can expire mid-write on a slow debug run, failing the
    // session with Conflict before it can commit).
    pool_cfg.reservation_ttl = stdchk_util::Dur::from_secs(30);
    let mgr = ManagerServer::spawn("127.0.0.1:0", pool_cfg).expect("manager");
    // GC grace must outlive the kill-to-commit window: the restarted
    // incarnation's early GC reports must not list the still-uncommitted
    // chunks it adopted (the manager would order them dropped), while
    // post-commit reports re-advertise them for repair.
    let bcfg = BenefactorConfig {
        gc_grace: stdchk_util::Dur::from_secs(2),
        ..BenefactorConfig::fast_for_tests()
    };
    let spawn_disk = |dir: &std::path::Path| {
        BenefactorServer::spawn(BenefactorNetConfig {
            manager_addr: mgr.addr().to_string(),
            listen: "127.0.0.1:0".into(),
            total_space: 256 << 20,
            cfg: bcfg.clone(),
            store: open_segment_store(dir),
        })
        .expect("benefactor")
    };
    let mut victim = spawn_disk(&dir);
    let mut peers = Vec::new();
    for _ in 0..3 {
        peers.push(
            BenefactorServer::spawn(BenefactorNetConfig {
                manager_addr: mgr.addr().to_string(),
                listen: "127.0.0.1:0".into(),
                total_space: 256 << 20,
                cfg: bcfg.clone(),
                store: Arc::new(MemStore::new()),
            })
            .expect("benefactor"),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 4 {
        assert!(Instant::now() < deadline, "pool never came online");
        std::thread::sleep(Duration::from_millis(10));
    }

    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    let data = payload(2 << 20, 21); // 32 distinct 64 KiB chunks
    let mut o = WriteOptions {
        replication: 2,
        ..WriteOptions::default()
    };
    o.session.pessimistic = true; // finish() returns only when replicated
    let mut w = grid.create("/app/chaos.n0", o).expect("create");
    let (first, rest) = data.split_at(data.len() / 2);
    w.write_all(first).expect("write first half");
    // The session window may still be draining: wait until the victim
    // actually holds some of the stripe before killing it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while victim.chunk_count() == 0 {
        assert!(Instant::now() < deadline, "victim never received a chunk");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Kill the disk-backed benefactor mid-write; its lease (150 ms)
    // expires while the client keeps writing. Dropping it starts the
    // release of its store's exclusive directory `LOCK`, which the
    // restart below waits for.
    victim.shutdown();
    drop(victim);
    std::thread::sleep(Duration::from_millis(400));
    w.write_all(rest)
        .expect("write second half despite the death");

    // Restart it on the same directory: the store index re-adopts every
    // persisted chunk and GC reports re-advertise them to the manager.
    victim = spawn_disk(&dir);
    assert!(victim.chunk_count() > 0, "restart must adopt disk chunks");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 4 {
        assert!(Instant::now() < deadline, "restart never came online");
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = w
        .finish()
        .expect("pessimistic finish despite mid-write kill");
    assert_eq!(stats.bytes_written, data.len() as u64);
    assert!(
        stats.suggested_interval > stdchk_util::Dur::ZERO,
        "commit must carry checkpoint-interval guidance"
    );

    // Repair converges: every distinct chunk reaches two live copies
    // (failover retries can leave stale extras, so the count alone is not
    // enough — the whole file must also become readable through the
    // manager's locations once the restarted node re-advertises).
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let total = victim.chunk_count() + peers.iter().map(|b| b.chunk_count()).sum::<usize>();
        let read_back = (total >= 64)
            .then(|| {
                grid.open("/app/chaos.n0", None)
                    .expect("open")
                    .read_all()
                    .ok()
            })
            .flatten();
        if let Some(read_back) = read_back {
            assert_eq!(read_back, data);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "repair never converged: {total} stored copies"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    mgr.check_invariants();
    drop(grid);
    victim.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Mid-`sendfile` disconnect must clean up the pending file region: the
/// `Arc<File>` the region holds is released (no fd pinned), the
/// connection leaves the reactor, and the listener keeps serving new
/// connections afterwards — no stall-sweep wedge, no leak.
#[test]
fn mid_sendfile_disconnect_releases_file_region() {
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use stdchk_net::{ConnOpts, Reactor, ReactorApp, ReactorConfig, ReactorHandle};
    use stdchk_proto::ids::{ChunkId, RequestId};
    use stdchk_proto::msg::Msg;

    const LEN: usize = 16 << 20;
    let dir = std::env::temp_dir().join(format!("stdchk-net-sendfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("region.dat");
    let data = payload(LEN, 41);
    std::fs::write(&path, &data).unwrap();
    let file = Arc::new(std::fs::File::open(&path).unwrap());

    /// Replies to any inbound frame with the whole file as one
    /// `GetChunkOk` frame head + sendfile region.
    struct ServeApp {
        handle: Mutex<Option<ReactorHandle>>,
        file: Arc<std::fs::File>,
        closed: AtomicUsize,
        sent: AtomicUsize,
    }
    impl ReactorApp for ServeApp {
        fn on_msg(&self, conn: u64, _msg: Msg) {
            let h = self.handle.lock().unwrap().clone().unwrap();
            let head = stdchk_proto::frame::get_chunk_ok_frame_head(
                RequestId(1),
                ChunkId::for_content(b"region"),
                LEN as u32,
                LEN as u32,
            );
            let _ = h.send_file_region(conn, head, Arc::clone(&self.file), 0, LEN as u64, Some(7));
        }
        fn on_close(&self, _conn: u64, _reason: stdchk_net::CloseReason) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn on_sent(&self, _conn: u64, _token: u64) {
            self.sent.fetch_add(1, Ordering::SeqCst);
        }
    }

    let app = Arc::new(ServeApp {
        handle: Mutex::new(None),
        file: Arc::clone(&file),
        closed: AtomicUsize::new(0),
        sent: AtomicUsize::new(0),
    });
    let reactor = Reactor::new(
        stdchk_net::conn::Clock::new(),
        Arc::clone(&app) as Arc<dyn ReactorApp>,
        ReactorConfig { workers: 2 },
    )
    .unwrap();
    *app.handle.lock().unwrap() = Some(reactor.handle().clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    reactor
        .handle()
        .add_listener(listener, 0, ConnOpts::default())
        .unwrap();

    // Client 1: trigger the region send, sip a few KB, vanish. The
    // region is 16 MiB — far past any loopback buffering — so the
    // disconnect lands mid-sendfile with most of it still queued.
    {
        let mut c = TcpStream::connect(addr).unwrap();
        stdchk_proto::frame::write_frame(&mut c, &Msg::Ping { nonce: 1 }).unwrap();
        // Ping is transport-level; send a real message to reach on_msg.
        stdchk_proto::frame::write_frame(&mut c, &Msg::Ack { req: RequestId(1) }).unwrap();
        let mut sip = vec![0u8; 4096];
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.read_exact(&mut sip).unwrap();
        // Drop: RST/EOF while the server still owes ~16 MiB.
    }

    // The close must release the region's file handle: our Arc goes back
    // to exactly 2 owners (this test + the app), and the conn is gone.
    // `on_close` runs just after the registry removal, so wait for it too.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&file) > 2
        || reactor.handle().conn_count() > 0
        || app.closed.load(Ordering::SeqCst) == 0
    {
        assert!(
            Instant::now() < deadline,
            "pending file region leaked: {} Arc owners, {} conns, {} closes",
            Arc::strong_count(&file),
            reactor.handle().conn_count(),
            app.closed.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        app.sent.load(Ordering::SeqCst),
        0,
        "partial send must not complete"
    );

    // Client 2: the reactor must still serve a full region, byte-exact.
    {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stdchk_proto::frame::write_frame(&mut c, &Msg::Ack { req: RequestId(2) }).unwrap();
        let head_len = stdchk_proto::frame::get_chunk_ok_frame_head(
            RequestId(1),
            ChunkId::for_content(b"region"),
            LEN as u32,
            LEN as u32,
        )
        .len();
        let mut got = vec![0u8; head_len + LEN];
        c.read_exact(&mut got).unwrap();
        assert_eq!(
            &got[head_len..],
            &data[..],
            "sendfile payload must be byte-exact"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while app.sent.load(Ordering::SeqCst) < 1 {
        assert!(Instant::now() < deadline, "tracked region never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = reactor.handle().transport_stats();
    assert!(
        stats.zerocopy_payload_tx >= LEN as u64,
        "sendfile bytes must be counted zero-copy: {stats:?}"
    );
    reactor.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end zero-copy serve: a segment-store benefactor with tiny
/// segments seals its chunks during ingest, so reads come back through
/// the `sendfile` path — byte-exact, with the transport counters showing
/// zero-copy payload traffic.
#[test]
fn sealed_chunks_serve_zero_copy_end_to_end() {
    let dir = std::env::temp_dir().join(format!("stdchk-net-zc-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut pool_cfg = PoolConfig::fast_for_tests();
    pool_cfg.chunk_size = 64 << 10;
    let mgr = ManagerServer::spawn("127.0.0.1:0", pool_cfg).expect("manager");
    let store = Arc::new(
        stdchk_net::store::SegmentStore::open_with(
            &dir,
            stdchk_net::store::SegmentStoreConfig {
                // Seal after every couple of chunks so reads hit sealed
                // segments (the sendfile-eligible case).
                segment_bytes: 96 << 10,
                ..Default::default()
            },
        )
        .expect("store"),
    );
    let benef = BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr.addr().to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 256 << 20,
        cfg: BenefactorConfig::fast_for_tests(),
        store,
    })
    .expect("benefactor");
    let deadline = Instant::now() + Duration::from_secs(5);
    while mgr.online_benefactors() < 1 {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    let grid = Grid::connect(&mgr.addr().to_string()).expect("connect");
    let data = payload(640 << 10, 77); // 10 chunks over ~7 segments
    let mut w = grid
        .create("/app/zc.n0", WriteOptions::default())
        .expect("create");
    w.write_all(&data).expect("write");
    w.finish().expect("finish");

    let before = benef
        .transport_stats()
        .expect("transport stats")
        .zerocopy_payload_tx;
    let read_back = grid
        .open("/app/zc.n0", None)
        .expect("open")
        .read_all()
        .expect("read");
    assert_eq!(read_back, data, "zero-copy read must be byte-exact");
    let after = benef
        .transport_stats()
        .expect("transport stats")
        .zerocopy_payload_tx;
    assert!(
        after > before,
        "sealed-segment reads must ride the zero-copy path: {before} -> {after}"
    );
    mgr.check_invariants();
    benef.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
