//! Failure handling: benefactor crashes and manager restarts.
//!
//! 1. Writes a replicated checkpoint, kills the benefactor holding one
//!    replica set, and shows the read path failing over.
//! 2. Restarts a *durable* manager (metadata WAL + snapshots) under a
//!    populated namespace and shows `list`/reads succeeding from replayed
//!    state **before any benefactor has re-registered**. The WAL is how a
//!    restarted manager recovers; the paper's alternative, rebuilding the
//!    namespace from chunk-maps that benefactors re-offer, is not
//!    implemented.
//!
//! Run with: `cargo run --example failure_recovery`

use std::error::Error;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk::core::{BenefactorConfig, PoolConfig};
use stdchk::net::store::MemStore;
use stdchk::net::{BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, WriteOptions};

fn wait_online(mgr: &ManagerServer, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.online_benefactors() < n {
        assert!(Instant::now() < deadline, "pool never online");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spawn_benefactor(mgr_addr: &str) -> BenefactorServer {
    BenefactorServer::spawn(BenefactorNetConfig {
        manager_addr: mgr_addr.to_string(),
        listen: "127.0.0.1:0".into(),
        total_space: 1 << 30,
        cfg: BenefactorConfig {
            heartbeat_every: stdchk::util::Dur::from_millis(100),
            ..BenefactorConfig::default()
        },
        store: Arc::new(MemStore::new()),
    })
    .expect("benefactor")
}

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = PoolConfig {
        heartbeat_every: stdchk::util::Dur::from_millis(100),
        benefactor_timeout: stdchk::util::Dur::from_secs(30),
        ..PoolConfig::default()
    };
    let meta_dir = std::env::temp_dir().join(format!("stdchk-example-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&meta_dir).ok();
    let mgr = ManagerServer::spawn_durable("127.0.0.1:0", cfg.clone(), &meta_dir)?;
    let benefactors: Vec<_> = (0..4)
        .map(|_| spawn_benefactor(&mgr.addr().to_string()))
        .collect();
    wait_online(&mgr, 4);
    let grid = Grid::connect(&mgr.addr().to_string())?;

    // --- Part 1: benefactor crash, replicated data survives -------------
    let image: Vec<u8> = (0..4 << 20).map(|i| (i % 247) as u8).collect();
    let mut opts = WriteOptions {
        replication: 2,
        ..WriteOptions::default()
    };
    opts.session.pessimistic = true; // wait for both replicas
    let mut w = grid.create("/jobs/resilient.n0", opts)?;
    w.write_all(&image)?;
    w.finish()?;
    println!("checkpoint written with replication 2");

    // Kill one benefactor that holds data.
    let victim = benefactors
        .iter()
        .position(|b| b.chunk_count() > 0)
        .expect("someone stores chunks");
    println!(
        "killing benefactor {victim} ({} chunks)",
        benefactors[victim].chunk_count()
    );
    benefactors[victim].shutdown();
    std::thread::sleep(Duration::from_millis(200));

    let back = grid.open("/jobs/resilient.n0", None)?.read_all()?;
    assert_eq!(back, image);
    println!(
        "read failed over to surviving replicas: {} bytes ok",
        back.len()
    );

    // --- Part 2: manager restart from its metadata WAL -------------------
    // Populate a bit more namespace so the replay has something to prove.
    let mut w = grid.create("/jobs/durable.n0", WriteOptions::default())?;
    w.write_all(&image)?;
    w.finish()?;
    println!("\nsecond checkpoint committed; namespace: resilient.n0 + durable.n0");

    // The manager dies. Its successor opens the same metadata directory
    // and replays snapshot + WAL before accepting a single connection.
    drop(mgr);
    let restarted_at = Instant::now();
    let respawn_deadline = Instant::now() + Duration::from_secs(5);
    let mgr2 = loop {
        // Retry while the dead manager's threads release the log LOCK.
        match ManagerServer::spawn_durable("127.0.0.1:0", cfg.clone(), &meta_dir) {
            Ok(m) => break m,
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse
                    && Instant::now() < respawn_deadline =>
            {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => return Err(e.into()),
        }
    };
    println!("manager restarted at {} from {:?}", mgr2.addr(), meta_dir);

    // Reads succeed immediately from replayed metadata. The benefactors
    // have not even re-registered with the new address (they still dial
    // the dead one), so no heartbeat has been processed: every location
    // and dial address comes from the log.
    let grid2 = Grid::connect(&mgr2.addr().to_string())?;
    let listing = grid2.list("/jobs")?;
    println!(
        "listing from replayed state: {:?}",
        listing.iter().map(|e| e.name.as_str()).collect::<Vec<_>>()
    );
    let recovered = grid2.open("/jobs/durable.n0", None)?.read_all()?;
    assert_eq!(recovered, image);
    println!(
        "read {} bytes {}ms after restart, from replayed metadata",
        recovered.len(),
        restarted_at.elapsed().as_millis(),
    );
    std::fs::remove_dir_all(&meta_dir).ok();
    Ok(())
}
