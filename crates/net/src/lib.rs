//! Real-network deployment of stdchk: an epoll reactor + TCP + on-disk chunk store.
//!
//! This crate turns the sans-IO state machines of `stdchk-core` into a
//! runnable storage pool:
//!
//! - [`ManagerServer`] — the metadata manager as a TCP server. Runs
//!   volatile ([`ManagerServer::spawn`], the paper's soft-state manager)
//!   or durable ([`ManagerServer::spawn_durable`]): a
//!   [`metalog::MetaLog`] write-ahead log + snapshots replayed at open,
//!   so a restart serves `stat`/`list`/`open` immediately.
//! - [`BenefactorServer`] — a storage donor: joins the pool, heartbeats,
//!   serves chunks from a [`store::ChunkStore`] (the
//!   [`store::SegmentStore`] append-only segment log with group commit on
//!   disk, [`store::MemStore`] for tests and ephemeral pools), executes
//!   replication, runs GC.
//! - [`Grid`] — the client proxy: `create()`/`open()` handles implementing
//!   `std::io::{Write, Read}` plus metadata operations.
//!
//! Both durable structures — chunk segments and the metadata WAL — run
//! on one segmented-log [`log`] engine: CRC-framed self-delimiting
//! records, numbered segments with torn-tail recovery, append with
//! rollback, rotation, a group-commit flusher, and exclusive directory
//! locks.
//!
//! All three drive their state machines through the unified
//! [`Node`](stdchk_core::Node) API: the servers share one generic
//! [`NodeHost`] (actions drain in batches through a per-role [`Effects`]
//! executor), and the client pumps its sessions through the same
//! `poll_action` loop.
//!
//! Transport is the event-driven [`reactor`]: an epoll worker pool owns
//! every nonblocking socket, frames are decoded incrementally
//! ([`stdchk_proto::frame::FrameDecoder`], chunk payloads sliced
//! zero-copy), outbound chunk payloads leave by `writev` of shared
//! buffers or by `sendfile` from sealed segments, outbound buffers are
//! bounded (slow/dead peers are disconnected, never block the pump),
//! idle connections are reaped, and protocol timers fold into
//! `epoll_wait` — thread count is O(workers), not O(connections), so the
//! manager absorbs checkpoint bursts from whole pools. Durable waits
//! (segment group commits, WAL flushes, snapshot installs) ride a
//! dedicated disk [`IoLane`], never a reactor worker. Outbound dials use
//! connect/write timeouts and handshakes bound their reads
//! ([`conn::dial`]) so dead peers fail fast.
//!
//! # Example (in-process pool)
//!
//! ```no_run
//! use stdchk_net::{BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, WriteOptions};
//! use stdchk_net::store::MemStore;
//! use std::io::Write;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mgr = ManagerServer::spawn("127.0.0.1:0", Default::default())?;
//! let _benefactor = BenefactorServer::spawn(BenefactorNetConfig {
//!     manager_addr: mgr.addr().to_string(),
//!     listen: "127.0.0.1:0".into(),
//!     total_space: 1 << 30,
//!     cfg: Default::default(),
//!     store: Arc::new(MemStore::new()),
//! })?;
//! let grid = Grid::connect(&mgr.addr().to_string())?;
//! let mut file = grid.create("/app/ckpt.n0", WriteOptions::default())?;
//! file.write_all(b"checkpoint image")?;
//! file.finish()?;
//! # Ok(())
//! # }
//! ```

pub mod benefactor_server;
pub mod client;
pub mod conn;
pub mod driver;
pub mod iolane;
pub mod log;
pub mod manager_server;
pub mod metalog;
pub mod ranks;
pub mod reactor;
pub mod store;

pub use benefactor_server::{BenefactorNetConfig, BenefactorServer};
pub use client::{Grid, GridError, GridRuntime, ReadHandle, WriteHandle, WriteOptions};
pub use driver::{Effects, NodeHost};
pub use iolane::{IoLane, IoLaneConfig};
pub use log::SyncDelay;
pub use manager_server::ManagerServer;
pub use metalog::{MetaLog, MetaLogConfig};
pub use reactor::{
    CloseReason, ConnOpts, ConnToken, Reactor, ReactorApp, ReactorConfig, ReactorHandle,
    TransportStats, WeakHandle,
};

/// Reads `STDCHK_DEDUP`, defaulting to on. When off, [`client::Grid`]
/// writes skip the have/want negotiation and delta encoding entirely and
/// ship every chunk in full — for pools whose successive checkpoints
/// share little, where negotiation only costs a round-trip and signature
/// CPU. The dedup benchmark uses it as its A/B baseline.
pub fn dedup_enabled() -> bool {
    !matches!(
        std::env::var("STDCHK_DEDUP").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Transport tuning for [`ManagerServer`] / [`BenefactorServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOpts {
    /// Reactor worker threads.
    pub workers: usize,
    /// Reap inbound connections silent for this long (the client side
    /// sends transport keepalives well inside this bound).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerOpts {
    fn default() -> ServerOpts {
        ServerOpts {
            workers: 2,
            idle_timeout: Some(std::time::Duration::from_secs(60)),
        }
    }
}
