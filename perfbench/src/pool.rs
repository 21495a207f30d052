//! The pool under test: a durable `ManagerServer` (metadata WAL on disk)
//! and two `BenefactorServer`s on on-disk `SegmentStore`s, all in this
//! process on loopback TCP, with pool defaults throughout.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_net::store::SegmentStore;
use stdchk_net::{BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, TransportStats};

/// Benefactors in the pool.
pub const BENEFACTORS: usize = 2;

/// Space each benefactor donates (far more than a run writes).
const DONATED: u64 = 1 << 40;

pub struct Pool {
    pub mgr: ManagerServer,
    pub benefs: Vec<BenefactorServer>,
    dir: PathBuf,
}

pub type BoxErr = Box<dyn std::error::Error>;

impl Pool {
    /// Spawns manager and benefactors under `dir` and waits until every
    /// benefactor is online.
    pub fn start(dir: &Path) -> Result<Pool, BoxErr> {
        let mgr =
            ManagerServer::spawn_durable("127.0.0.1:0", PoolConfig::default(), dir.join("meta"))?;
        let mut benefs = Vec::with_capacity(BENEFACTORS);
        for i in 0..BENEFACTORS {
            benefs.push(BenefactorServer::spawn(BenefactorNetConfig {
                manager_addr: mgr.addr().to_string(),
                listen: "127.0.0.1:0".into(),
                total_space: DONATED,
                cfg: BenefactorConfig::default(),
                store: Arc::new(SegmentStore::open(dir.join(format!("b{i}")))?),
            })?);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while mgr.online_benefactors() < BENEFACTORS {
            if Instant::now() > deadline {
                return Err("benefactors did not come online within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(Pool {
            mgr,
            benefs,
            dir: dir.to_path_buf(),
        })
    }

    /// A new client connection (its own client runtime).
    pub fn connect(&self) -> Result<Grid, BoxErr> {
        Ok(Grid::connect(&self.mgr.addr().to_string())?)
    }

    /// Transport counters summed over the benefactors.
    pub fn transport(&self) -> TransportStats {
        let mut t = TransportStats::default();
        for b in &self.benefs {
            if let Some(s) = b.transport_stats() {
                t.bytes_tx += s.bytes_tx;
                t.bytes_rx += s.bytes_rx;
                t.frames_tx += s.frames_tx;
                t.frames_rx += s.frames_rx;
                t.copied_payload_tx += s.copied_payload_tx;
                t.zerocopy_payload_tx += s.zerocopy_payload_tx;
            }
        }
        t
    }

    /// Bytes in the benefactors' store directories.
    pub fn stored_bytes(&self) -> u64 {
        (0..BENEFACTORS)
            .map(|i| dir_bytes(&self.dir.join(format!("b{i}"))))
            .sum()
    }

    /// Stops every server and deletes the pool's directory.
    pub fn stop(self) {
        for b in &self.benefs {
            b.shutdown();
        }
        self.mgr.shutdown();
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Sum of regular-file sizes directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Spawns a pool under `dir` and connects `clients` grids, returning the
/// pool, the grids, and the set-up time in seconds.
pub fn set_up(dir: &Path, clients: usize) -> Result<(Pool, Vec<Grid>, f64), BoxErr> {
    let t0 = Instant::now();
    let pool = Pool::start(dir)?;
    let grids = (0..clients)
        .map(|_| pool.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((pool, grids, t0.elapsed().as_secs_f64()))
}
