//! The read path: striped chunk retrieval with read-ahead and replica
//! failover.
//!
//! Restarting a job from a checkpoint is latency-sensitive (paper §III.B),
//! so the read session keeps a configurable window of chunk fetches in
//! flight across the replica holders, verifies content hashes end-to-end
//! (catching faulty or malicious benefactors), retries failed or corrupt
//! chunks on other replicas, and delivers data to the application strictly
//! in file order.

use std::collections::{BTreeMap, HashMap};

use stdchk_proto::chunkmap::FileVersionView;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_proto::ErrorCode;
use stdchk_util::Time;

use super::ReqGen;
use crate::node::{Action, ActionQueue, Completion, Node};
use crate::payload::Payload;

#[derive(Clone, Debug)]
struct InFlight {
    slot: usize,
}

/// Read-session lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadState {
    /// Fetching and delivering.
    Active,
    /// Every byte delivered.
    Done,
    /// A chunk could not be retrieved from any replica.
    Failed(ErrorCode),
}

/// The read-session state machine.
#[derive(Debug)]
pub struct ReadSession {
    view: FileVersionView,
    reqs: ReqGen,
    window: usize,
    next_issue: usize,
    inflight: HashMap<RequestId, InFlight>,
    attempts: HashMap<usize, u32>,
    ready: BTreeMap<usize, Payload>,
    next_deliver: usize,
    delivered: u64,
    state: ReadState,
    actions: ActionQueue,
}

impl ReadSession {
    /// Opens a read over a version view obtained from the manager.
    ///
    /// `window` is the read-ahead depth in chunks.
    pub fn new(session_id: u64, view: FileVersionView, window: usize) -> ReadSession {
        let state = if view.map.is_empty() {
            ReadState::Done
        } else {
            ReadState::Active
        };
        ReadSession {
            view,
            reqs: ReqGen::new(session_id),
            window: window.max(1),
            next_issue: 0,
            inflight: HashMap::new(),
            attempts: HashMap::new(),
            ready: BTreeMap::new(),
            next_deliver: 0,
            delivered: 0,
            state,
            actions: ActionQueue::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> ReadState {
        self.state
    }

    /// True when every chunk has been delivered.
    pub fn is_done(&self) -> bool {
        self.state == ReadState::Done
    }

    /// Total bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// File size being read.
    pub fn file_size(&self) -> u64 {
        self.view.map.file_size()
    }

    /// Fills the read-ahead window with fetches.
    fn fill_window(&mut self, out: &mut ActionQueue) {
        if self.state != ReadState::Active {
            return;
        }
        while self.inflight.len() < self.window && self.next_issue < self.view.map.len() {
            let slot = self.next_issue;
            self.next_issue += 1;
            if self.ready.contains_key(&slot) {
                continue;
            }
            self.issue(slot, out);
            if self.state != ReadState::Active {
                break;
            }
        }
    }

    fn chunk_of(&self, slot: usize) -> ChunkId {
        self.view.map.entries()[slot].id
    }

    fn issue(&mut self, slot: usize, out: &mut ActionQueue) {
        let chunk = self.chunk_of(slot);
        let attempt = *self.attempts.get(&slot).unwrap_or(&0);
        let holders = self.view.locations_of(chunk).unwrap_or(&[]);
        if holders.is_empty() || attempt as usize >= holders.len() {
            // No replica left to try: unrecoverable for this version.
            self.state = ReadState::Failed(ErrorCode::Unavailable);
            return;
        }
        // Spread load: start from a slot-dependent replica, advance on retry.
        let target = holders[(slot + attempt as usize) % holders.len()];
        let req = self.reqs.next();
        self.inflight.insert(req, InFlight { slot });
        out.send(target, Msg::GetChunk { req, chunk });
    }

    fn process_msg(&mut self, msg: Msg, out: &mut ActionQueue) {
        match msg {
            Msg::GetChunkOk {
                req, chunk, data, ..
            } => {
                let Some(inf) = self.inflight.remove(&req) else {
                    return;
                };
                // The reply must carry the chunk's bytes, and they must
                // hash to its id; a `size` alone proves nothing.
                let expected = self.view.map.entries()[inf.slot];
                if data.len() as u64 == expected.size as u64 && chunk.verify(&data) {
                    self.ready.insert(inf.slot, Payload::Real(data));
                } else {
                    // Corrupt or empty reply: try another holder.
                    *self.attempts.entry(inf.slot).or_insert(0) += 1;
                    self.issue(inf.slot, out);
                }
            }
            Msg::ErrorReply { req, .. } => {
                if let Some(inf) = self.inflight.remove(&req) {
                    *self.attempts.entry(inf.slot).or_insert(0) += 1;
                    self.issue(inf.slot, out);
                }
            }
            _ => {}
        }
        self.fill_window(out);
    }

    fn get_failed(&mut self, req: RequestId, out: &mut ActionQueue) {
        if let Some(inf) = self.inflight.remove(&req) {
            *self.attempts.entry(inf.slot).or_insert(0) += 1;
            self.issue(inf.slot, out);
        }
        self.fill_window(out);
    }

    /// Delivers the next in-order chunk to the application, if ready.
    pub fn next_ready(&mut self) -> Option<(usize, Payload)> {
        if self.state != ReadState::Active {
            return None;
        }
        let slot = self.next_deliver;
        let payload = self.ready.remove(&slot)?;
        self.next_deliver += 1;
        self.delivered += payload.len();
        if self.next_deliver == self.view.map.len() {
            self.state = ReadState::Done;
        }
        Some((slot, payload))
    }
}

impl Node for ReadSession {
    fn handle(&mut self, _from: NodeId, msg: Msg, _now: Time) {
        let mut out = std::mem::take(&mut self.actions);
        self.process_msg(msg, &mut out);
        self.actions = out;
    }

    fn handle_completion(&mut self, completion: Completion, _now: Time) {
        let mut out = std::mem::take(&mut self.actions);
        match completion {
            Completion::SendFailed { req } => self.get_failed(req, &mut out),
            // A completed send carries no information for reads.
            Completion::SendDone { .. } => {}
            other => debug_assert!(false, "unexpected completion {other:?}"),
        }
        self.actions = out;
    }

    fn poll_action(&mut self) -> Option<Action> {
        // Delivering chunks to the application opens window slots; top the
        // window up lazily whenever the driver polls.
        let mut out = std::mem::take(&mut self.actions);
        self.fill_window(&mut out);
        self.actions = out;
        self.actions.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use stdchk_proto::chunkmap::{ChunkEntry, ChunkMap};
    use stdchk_proto::ids::VersionId;

    fn view(chunk_data: &[&'static [u8]], holders: &[&[u64]]) -> FileVersionView {
        let entries: Vec<ChunkEntry> = chunk_data
            .iter()
            .map(|d| ChunkEntry {
                id: ChunkId::for_content(d),
                size: d.len() as u32,
            })
            .collect();
        let mut locations: Vec<(ChunkId, Vec<NodeId>)> = entries
            .iter()
            .zip(holders)
            .map(|(e, h)| (e.id, h.iter().map(|n| NodeId(*n)).collect()))
            .collect();
        locations.sort_by_key(|a| a.0);
        locations.dedup_by(|a, b| a.0 == b.0);
        FileVersionView {
            version: VersionId(1),
            map: ChunkMap::from_entries(entries),
            locations,
        }
    }

    fn reply_for(actions: &[Action], data_for: impl Fn(ChunkId) -> Bytes) -> Vec<Msg> {
        actions
            .iter()
            .map(|a| match a {
                Action::Send {
                    msg: Msg::GetChunk { req, chunk },
                    ..
                } => Msg::GetChunkOk {
                    req: *req,
                    chunk: *chunk,
                    size: data_for(*chunk).len() as u32,
                    data: data_for(*chunk),
                },
                other => panic!("unexpected action {other:?}"),
            })
            .collect()
    }

    #[test]
    fn delivers_in_order_despite_out_of_order_replies() {
        let v = view(&[b"aaaa", b"bbbb", b"cc"], &[&[1], &[2], &[1]]);
        let mut rs = ReadSession::new(1, v, 8);
        let actions = rs.drain_actions();
        assert_eq!(actions.len(), 3);
        let mut replies = reply_for(&actions, |c| {
            for d in [&b"aaaa"[..], b"bbbb", b"cc"] {
                if ChunkId::for_content(d) == c {
                    return Bytes::from_static(d);
                }
            }
            unreachable!()
        });
        // Deliver replies in reverse.
        replies.reverse();
        for r in replies {
            rs.handle(NodeId(1), r, Time::ZERO);
        }
        let mut got = Vec::new();
        while let Some((_, p)) = rs.next_ready() {
            got.extend_from_slice(&p.bytes());
        }
        assert_eq!(got, b"aaaabbbbcc");
        assert!(rs.is_done());
    }

    #[test]
    fn window_bounds_inflight_fetches() {
        let v = view(
            &[b"1", b"2", b"3", b"4", b"5"],
            &[&[1], &[1], &[1], &[1], &[1]],
        );
        let mut rs = ReadSession::new(1, v, 2);
        let actions = rs.drain_actions();
        assert_eq!(actions.len(), 2, "read-ahead window respected");
    }

    #[test]
    fn corrupt_reply_retries_other_replica() {
        let v = view(&[b"data"], &[&[1, 2]]);
        let mut rs = ReadSession::new(1, v, 4);
        let actions = rs.drain_actions();
        let (req, chunk) = match &actions[0] {
            Action::Send {
                msg: Msg::GetChunk { req, chunk },
                ..
            } => (*req, *chunk),
            other => panic!("unexpected {other:?}"),
        };
        // First replica returns tampered bytes.
        rs.handle(
            NodeId(1),
            Msg::GetChunkOk {
                req,
                chunk,
                size: 4,
                data: Bytes::from_static(b"EVIL"),
            },
            Time::ZERO,
        );
        let retry = rs.drain_actions();
        assert_eq!(retry.len(), 1, "must retry on the other replica");
        let Action::Send {
            to,
            msg: Msg::GetChunk { req: req2, .. },
        } = &retry[0]
        else {
            panic!("unexpected {retry:?}");
        };
        assert_eq!(*to, NodeId(2));
        rs.handle(
            NodeId(1),
            Msg::GetChunkOk {
                req: *req2,
                chunk,
                size: 4,
                data: Bytes::from_static(b"data"),
            },
            Time::ZERO,
        );
        let ok = rs.drain_actions();
        assert!(ok.is_empty());
        let (_, p) = rs.next_ready().expect("delivered");
        assert_eq!(&p.bytes()[..], b"data");
        assert!(rs.is_done());
    }

    #[test]
    fn exhausted_replicas_fail_the_read() {
        let v = view(&[b"x"], &[&[1]]);
        let mut rs = ReadSession::new(1, v, 4);
        let actions = rs.drain_actions();
        let Action::Send {
            msg: Msg::GetChunk { req, .. },
            ..
        } = &actions[0]
        else {
            panic!();
        };
        rs.handle(
            NodeId(1),
            Msg::ErrorReply {
                req: *req,
                code: ErrorCode::NotFound,
                detail: String::new(),
            },
            Time::ZERO,
        );
        assert!(matches!(rs.state(), ReadState::Failed(_)));
    }

    #[test]
    fn chunk_with_no_holders_fails_immediately() {
        let mut v = view(&[b"x"], &[&[1]]);
        v.locations.clear();
        let mut rs = ReadSession::new(1, v, 4);
        rs.drain_actions();
        assert!(matches!(rs.state(), ReadState::Failed(_)));
    }

    #[test]
    fn empty_file_is_immediately_done() {
        let v = FileVersionView::default();
        let mut rs = ReadSession::new(1, v, 4);
        assert!(rs.is_done());
        assert!(rs.drain_actions().is_empty());
    }

    #[test]
    fn empty_reply_is_not_a_chunk() {
        // A `GetChunkOk` whose `size` matches but that carries no bytes.
        let empty_reply = |rs: &mut ReadSession, actions: &[Action]| {
            let Action::Send {
                to,
                msg: Msg::GetChunk { req, chunk },
            } = &actions[0]
            else {
                panic!("unexpected {actions:?}");
            };
            rs.handle(
                *to,
                Msg::GetChunkOk {
                    req: *req,
                    chunk: *chunk,
                    size: 4,
                    data: Bytes::new(),
                },
                Time::ZERO,
            );
        };
        // With a second holder, the read fails over to it.
        let v = view(&[b"abcd"], &[&[1, 2]]);
        let mut rs = ReadSession::new(1, v, 4);
        let first = rs.drain_actions();
        empty_reply(&mut rs, &first);
        assert!(rs.next_ready().is_none(), "no bytes, no chunk");
        let retry = rs.drain_actions();
        assert!(
            matches!(
                &retry[..],
                [Action::Send {
                    to: NodeId(2),
                    msg: Msg::GetChunk { .. },
                }]
            ),
            "must retry on the other holder: {retry:?}"
        );
        // With one holder, the read fails cleanly.
        let v = view(&[b"abcd"], &[&[1]]);
        let mut rs = ReadSession::new(1, v, 4);
        let first = rs.drain_actions();
        empty_reply(&mut rs, &first);
        assert!(rs.next_ready().is_none());
        assert_eq!(rs.state(), ReadState::Failed(ErrorCode::Unavailable));
    }
}
