//! The stdchk protocol core: sans-IO state machines for every node role.
//!
//! This crate implements the paper's contribution — the checkpoint-optimized
//! storage system — as pure, deterministic state machines:
//!
//! - [`Manager`]: the centralized metadata manager. Soft-state benefactor
//!   registration, stripe allocation with eager space reservations,
//!   versioned namespace with copy-on-write chunk sharing and reference
//!   counting, background replication via shadow chunk-maps, pull-based
//!   garbage collection, automated retention policies, and a write-ahead
//!   log that a restarted manager replays (see [`Manager::replay`]).
//! - [`Benefactor`]: a storage donor. Stores content-addressed chunks
//!   (verifying hashes end-to-end), heartbeats free space, executes
//!   replication copy orders, and reports inventory for garbage
//!   collection.
//! - [`WriteSession`] / [`ReadSession`]: the client proxy data path. Three
//!   write protocols (complete local write, incremental write, sliding
//!   window), round-robin striping, optional incremental-checkpointing dedup
//!   (FsCH), optimistic/pessimistic write semantics, and a read path with
//!   read-ahead and replica failover.
//!
//! **Sans-IO, one API**: no state machine touches a socket, disk, clock, or
//! thread, and all four implement the poll-based [`Node`] trait — inputs
//! arrive through [`Node::handle`] (messages), [`Node::handle_completion`]
//! (finished driver I/O) and [`Node::handle_timeout`] (deadlines from
//! [`Node::poll_timeout`]); outputs are drained from a shared per-node
//! [`ActionQueue`] as the unified [`Action`] enum, the only action
//! vocabulary any role has. Two generic drivers embed
//! these machines unchanged: `stdchk-net` (threads + TCP + real disks) and
//! `stdchk-sim` (a discrete-event simulator with virtual time used to
//! reproduce the paper's evaluation).
//!
//! # Example: driving a manager through the `Node` API
//!
//! ```
//! use stdchk_core::{Action, Manager, Node, PoolConfig};
//! use stdchk_proto::{Msg, NodeId, RequestId};
//! use stdchk_util::Time;
//!
//! let mut mgr = Manager::new(PoolConfig::default());
//! let now = Time::ZERO;
//! // A benefactor joins the pool.
//! mgr.handle(
//!     NodeId(0),
//!     Msg::JoinRequest { req: RequestId(1), addr: String::new(), total_space: 1 << 30 },
//!     now,
//! );
//! // Drain the resulting effects: one JoinOk to transmit.
//! match mgr.poll_action() {
//!     Some(Action::Send { msg: Msg::JoinOk { .. }, .. }) => {}
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert!(mgr.poll_action().is_none());
//! // And the next maintenance deadline is advertised for the driver.
//! assert!(mgr.poll_timeout().is_some());
//! ```

#![forbid(unsafe_code)]

pub mod benefactor;
pub mod config;
pub mod manager;
pub mod node;
pub mod payload;
pub mod session;

pub use benefactor::{Benefactor, BenefactorConfig};
pub use config::PoolConfig;
pub use manager::{DedupTotals, Manager, ManagerStats};
pub use node::{Action, ActionQueue, Completion, Node};
pub use payload::{ChunkAssembler, Payload};
pub use session::read::ReadSession;
pub use session::write::{OpenGrant, SessionConfig, WriteProtocol, WriteSession, WriteStats};

/// The reserved node id of the metadata manager.
///
/// Benefactors and clients address the manager as node 0; real node ids
/// assigned by the manager start at 1.
pub const MANAGER_NODE: stdchk_proto::NodeId = stdchk_proto::NodeId(0);
