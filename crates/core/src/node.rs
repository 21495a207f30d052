//! The unified sans-IO node API: one trait, one action vocabulary.
//!
//! Every stdchk state machine — [`Manager`](crate::Manager),
//! [`Benefactor`](crate::Benefactor),
//! [`WriteSession`](crate::WriteSession) and
//! [`ReadSession`](crate::ReadSession) — implements [`Node`] in the style of
//! sans-IO protocol libraries (quinn-proto et al.):
//!
//! - **inputs** arrive through [`Node::handle`] (protocol messages),
//!   [`Node::handle_completion`] (finished driver I/O) and
//!   [`Node::handle_timeout`] (the deadline from [`Node::poll_timeout`]
//!   arrived);
//! - **outputs** are drained through [`Node::poll_action`], which yields
//!   [`Action`]s until the machine has nothing more to request
//!   ([`Node::drain_actions`] collects them all at once).
//!
//! Internally each machine pushes into a shared [`ActionQueue`] instead of
//! allocating a fresh `Vec` per call, so a driver can batch: feed several
//! inputs, then drain every resulting action in one sweep. Because the
//! vocabulary is one shared [`Action`] enum — no role has an action type
//! of its own — drivers are generic: the same event loop runs a metadata
//! manager, a storage donor, or a client session (`stdchk-net`'s
//! `NodeHost`, `stdchk-sim`'s cluster dispatch).
//!
//! # Driving a node
//!
//! ```text
//! loop {
//!     deliver inputs:   node.handle(..) / node.handle_completion(..)
//!     fire timers:      if now >= node.poll_timeout() { node.handle_timeout(now) }
//!     execute effects:  while let Some(a) = node.poll_action() { ... }
//!     sleep until:      node.poll_timeout()
//! }
//! ```
//!
//! Completions may be delivered from inside the drain loop (synchronous
//! drivers) or later (asynchronous drivers); the machines do not care.

use std::collections::VecDeque;

use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::Time;

use crate::payload::Payload;

/// One effect requested by a state machine. The single action vocabulary
/// shared by every node role; drivers match on this and nothing else.
#[derive(Clone, Debug)]
pub enum Action {
    /// Transmit a protocol message to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// Persist chunk data (benefactor blob store). Completion:
    /// [`Completion::Stored`] with the same `op`.
    Store {
        /// Completion correlation token.
        op: u64,
        /// The chunk being stored.
        chunk: ChunkId,
        /// The data (possibly virtual).
        payload: Payload,
    },
    /// Read chunk data back (benefactor blob store). Completion:
    /// [`Completion::Loaded`].
    Load {
        /// Completion correlation token.
        op: u64,
        /// The chunk to read.
        chunk: ChunkId,
        /// Size on record; drivers without a blob store cost the read with
        /// this, drivers with one may ignore it.
        size: u32,
        /// True when the bytes go straight back out on the wire (a
        /// `GetChunkOk` reply). Drivers may then satisfy the load with a
        /// kernel-copy file region instead of materialized bytes; loads
        /// whose bytes the node consumes (replication pushes, delta bases)
        /// set this false and always get real data.
        serve: bool,
    },
    /// Remove chunk data from the backing store. No completion.
    DropChunk {
        /// The chunk to remove.
        chunk: ChunkId,
    },
    /// Append bytes to the client-local write stage (CLW/IW temp storage).
    /// Completion: [`Completion::StageAppended`].
    StageAppend {
        /// Completion correlation token.
        op: u64,
        /// Stage offset (equals the chunk's file offset).
        offset: u64,
        /// The data.
        payload: Payload,
    },
    /// Read staged bytes back for pushing. Completion:
    /// [`Completion::StageFetched`].
    StageFetch {
        /// Completion correlation token.
        op: u64,
        /// Stage offset.
        offset: u64,
        /// Length.
        len: u32,
    },
    /// The stage below `upto` is no longer needed (temp deletion). No
    /// completion.
    StageDiscard {
        /// All staged bytes before this offset may be dropped.
        upto: u64,
    },
    /// Append one record to the manager's metadata write-ahead log.
    /// Emitted only when the manager's WAL is enabled
    /// ([`Manager::enable_wal`](crate::Manager::enable_wal)). No
    /// completion, but drivers must make the record durable **before**
    /// executing any `Send` drained after it — the manager queues the
    /// append ahead of the reply it guards, so in-order execution is
    /// exactly write-ahead logging.
    MetaAppend {
        /// Mutation order, assigned under the state-machine lock (0, 1,
        /// 2, … per process). Drivers whose action execution can race
        /// across batches (multiple pumping threads) must restore this
        /// order before appending — log order must equal mutation order
        /// or replay diverges.
        seq: u64,
        /// The mutation record to persist.
        record: stdchk_proto::meta::MetaRecord,
    },
}

/// A finished driver operation, fed back through
/// [`Node::handle_completion`].
#[derive(Clone, Debug)]
pub enum Completion {
    /// An [`Action::Store`] hit stable storage.
    Stored {
        /// The store's correlation token.
        op: u64,
    },
    /// An [`Action::Load`] produced data.
    Loaded {
        /// The load's correlation token.
        op: u64,
        /// The chunk read.
        chunk: ChunkId,
        /// Its data.
        payload: Payload,
    },
    /// An [`Action::Load`] could not produce data (blob lost or corrupt on
    /// the backing medium). The node stops advertising the chunk and fails
    /// the pending request over to another replica.
    LoadFailed {
        /// The load's correlation token.
        op: u64,
        /// The chunk that could not be read.
        chunk: ChunkId,
    },
    /// An [`Action::StageAppend`] completed.
    StageAppended {
        /// The append's correlation token.
        op: u64,
    },
    /// An [`Action::StageFetch`] produced data.
    StageFetched {
        /// The fetch's correlation token.
        op: u64,
        /// The staged bytes.
        payload: Payload,
    },
    /// The transfer carrying request `req` fully left this node (socket
    /// write completed / simulated flow finished). Ends the OAB window for
    /// sliding-window writes.
    SendDone {
        /// The request id of the transmitted message.
        req: RequestId,
    },
    /// The transfer carrying request `req` failed at the transport level
    /// (connection lost, timeout). Sessions fail over to another replica or
    /// stripe member.
    SendFailed {
        /// The request id of the failed message.
        req: RequestId,
    },
}

/// The shared output queue every state machine pushes into.
///
/// One allocation for the life of the machine instead of a `Vec` per
/// handler call; drivers drain it through [`Node::poll_action`].
#[derive(Debug, Default)]
pub struct ActionQueue {
    q: VecDeque<Action>,
}

impl ActionQueue {
    /// An empty queue.
    pub fn new() -> ActionQueue {
        ActionQueue::default()
    }

    /// Enqueues an action.
    pub fn push(&mut self, action: Action) {
        self.q.push_back(action);
    }

    /// Enqueues a [`Action::Send`].
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        self.q.push_back(Action::Send { to, msg });
    }

    /// Dequeues the oldest pending action.
    pub fn pop(&mut self) -> Option<Action> {
        self.q.pop_front()
    }

    /// Pending actions.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

/// A poll-based sans-IO protocol node.
///
/// See the [module docs](self) for the driving contract. All methods are
/// non-blocking; time is always passed in explicitly.
pub trait Node {
    /// Processes one inbound protocol message from `from`.
    fn handle(&mut self, from: NodeId, msg: Msg, now: Time);

    /// Processes one finished driver operation. The default ignores it
    /// (machines without driver-mediated I/O, e.g. the manager).
    fn handle_completion(&mut self, completion: Completion, now: Time) {
        let _ = (completion, now);
    }

    /// Runs time-based behaviour. Drivers call this once `now` reaches
    /// [`Node::poll_timeout`]; calling early or late is harmless. The
    /// default does nothing (machines without timers).
    fn handle_timeout(&mut self, now: Time) {
        let _ = now;
    }

    /// Returns the next action to execute, or `None` when drained. Drivers
    /// should loop until `None` after every input.
    fn poll_action(&mut self) -> Option<Action>;

    /// Polls every pending action into a `Vec`, for callers that inspect a
    /// whole burst at once (tests, set-up code) rather than executing
    /// actions as they come.
    fn drain_actions(&mut self) -> Vec<Action> {
        std::iter::from_fn(|| self.poll_action()).collect()
    }

    /// When [`Node::handle_timeout`] next wants to run, if ever. Recompute
    /// after every input — handling a message may arm or disarm timers.
    fn poll_timeout(&self) -> Option<Time> {
        None
    }
}

/// Earliest of two optional deadlines (helper for `poll_timeout` impls).
pub(crate) fn earliest(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo() {
        let mut q = ActionQueue::new();
        q.send(NodeId(1), Msg::Ack { req: RequestId(1) });
        q.push(Action::StageDiscard { upto: 7 });
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop(), Some(Action::Send { to: NodeId(1), .. })));
        assert!(matches!(q.pop(), Some(Action::StageDiscard { upto: 7 })));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn earliest_picks_min() {
        let a = Time(5);
        let b = Time(9);
        assert_eq!(earliest(Some(a), Some(b)), Some(a));
        assert_eq!(earliest(None, Some(b)), Some(b));
        assert_eq!(earliest(None, None), None);
    }
}
