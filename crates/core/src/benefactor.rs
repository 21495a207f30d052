//! The benefactor (storage donor) state machine (paper §IV.A).
//!
//! Benefactors keep their responsibilities deliberately minimal to ease
//! integration: publish status and free space through soft-state
//! registration (heartbeats), serve chunk store/retrieve requests, execute
//! replication copy orders, and run garbage collection.
//!
//! Chunk *data* lives behind the driver (a real directory of files in
//! `stdchk-net`, nothing at all in the simulator); the state machine tracks
//! the authoritative index of chunk ids, sizes and store times, and emits
//! [`Action::Store`]/[`Action::Load`] for the driver to fulfil.
//!
//! The benefactor implements the unified [`Node`] API and nothing else:
//! feed it messages and completions, drain [`Action`]s with `poll_action`,
//! and schedule `handle_timeout` from `poll_timeout`.

use std::collections::HashMap;

use stdchk_chunker::delta::delta_apply;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::{Msg, ReplicaCopy};
use stdchk_proto::ErrorCode;
use stdchk_util::{Dur, Time};

use crate::node::{earliest, Action, ActionQueue, Completion, Node};
use crate::payload::Payload;
use crate::MANAGER_NODE;

/// Benefactor timing/behaviour knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenefactorConfig {
    /// Heartbeat (soft-state registration refresh) period.
    pub heartbeat_every: Dur,
    /// Chunks younger than this are withheld from GC reports, protecting
    /// in-flight writes whose chunk-map has not been committed yet.
    pub gc_grace: Dur,
    /// Minimum spacing between GC reports.
    pub gc_min_interval: Dur,
    /// Replication transfer timeout (a copy with no ack in this window is
    /// reported failed).
    pub put_timeout: Dur,
}

impl Default for BenefactorConfig {
    fn default() -> Self {
        BenefactorConfig {
            heartbeat_every: Dur::from_secs(5),
            gc_grace: Dur::from_secs(600),
            gc_min_interval: Dur::from_secs(30),
            put_timeout: Dur::from_secs(30),
        }
    }
}

impl BenefactorConfig {
    /// Tight timers for unit tests.
    pub fn fast_for_tests() -> BenefactorConfig {
        BenefactorConfig {
            heartbeat_every: Dur::from_millis(50),
            gc_grace: Dur::from_millis(100),
            gc_min_interval: Dur::from_millis(100),
            put_timeout: Dur::from_millis(200),
        }
    }
}

#[derive(Clone, Debug)]
struct ChunkInfo {
    size: u32,
    stored_at: Time,
}

#[derive(Clone, Debug)]
struct PendingStore {
    req: RequestId,
    chunk: ChunkId,
    reply_to: NodeId,
}

#[derive(Clone, Debug)]
enum LoadPurpose {
    ServeGet {
        req: RequestId,
        to: NodeId,
    },
    ReplPush {
        job: u64,
        copy: ReplicaCopy,
    },
    /// A `DeltaPutChunk` loaded its basis chunk; apply the delta, verify
    /// the reconstruction against the target's content hash, and store it
    /// as a self-contained chunk (the read path never sees deltas).
    DeltaApply {
        req: RequestId,
        to: NodeId,
        chunk: ChunkId,
        size: u32,
        delta: bytes::Bytes,
    },
}

#[derive(Clone, Debug)]
struct JobState {
    outstanding: usize,
    done: Vec<ReplicaCopy>,
    failed: Vec<ReplicaCopy>,
}

#[derive(Clone, Debug)]
struct OutstandingPut {
    job: u64,
    copy: ReplicaCopy,
    sent_at: Time,
}

/// The benefactor state machine.
#[derive(Debug)]
pub struct Benefactor {
    id: NodeId,
    total: u64,
    used: u64,
    cfg: BenefactorConfig,
    index: HashMap<ChunkId, ChunkInfo>,
    next_op: u64,
    next_req: u64,
    joined: bool,
    join_req: Option<RequestId>,
    last_heartbeat: Option<Time>,
    gc_due: bool,
    last_gc: Option<Time>,
    pending_stores: HashMap<u64, PendingStore>,
    pending_loads: HashMap<u64, LoadPurpose>,
    repl_jobs: HashMap<u64, JobState>,
    outstanding_puts: HashMap<RequestId, OutstandingPut>,
    advertised_addr: String,
    actions: ActionQueue,
}

impl Benefactor {
    /// Creates a benefactor contributing `total` bytes.
    ///
    /// Pass `NodeId(0)` to have the node acquire an id from the manager via
    /// `JoinRequest` (the real-network flow); a non-zero id skips joining
    /// and registers implicitly through heartbeats (the simulator flow).
    pub fn new(id: NodeId, total: u64, cfg: BenefactorConfig) -> Benefactor {
        Benefactor {
            id,
            total,
            used: 0,
            cfg,
            index: HashMap::new(),
            next_op: 1,
            next_req: 1,
            joined: id != NodeId(0),
            join_req: None,
            last_heartbeat: None,
            gc_due: false,
            last_gc: None,
            pending_stores: HashMap::new(),
            pending_loads: HashMap::new(),
            repl_jobs: HashMap::new(),
            outstanding_puts: HashMap::new(),
            advertised_addr: String::new(),
            actions: ActionQueue::new(),
        }
    }

    /// Sets the dial address announced to the manager in `JoinRequest`
    /// (real-network deployments; the simulator leaves it empty).
    pub fn set_advertised_addr(&mut self, addr: impl Into<String>) {
        self.advertised_addr = addr.into();
    }

    /// This node's id (0 until joined).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Free bytes (total minus indexed chunks).
    pub fn free_space(&self) -> u64 {
        self.total.saturating_sub(self.used)
    }

    /// Bytes currently indexed.
    pub fn used_space(&self) -> u64 {
        self.used
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// True if this benefactor stores `chunk`.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.index.contains_key(&chunk)
    }

    /// Seeds the index from a persistent blob store at restart: the chunks
    /// become immediately servable and GC-reportable.
    ///
    /// Drivers feed this the store's recovered `(id, size)` listing (the
    /// net crate's `ChunkStore::entries()`), so a benefactor that crashed
    /// with gigabytes of durable chunks rejoins the pool serving all of
    /// them without replaying any payload bytes. Returns how many chunks
    /// were newly adopted (duplicates are ignored).
    pub fn adopt_existing(
        &mut self,
        chunks: impl IntoIterator<Item = (ChunkId, u32)>,
        now: Time,
    ) -> usize {
        let mut adopted = 0;
        for (id, size) in chunks {
            if self
                .index
                .insert(
                    id,
                    ChunkInfo {
                        size,
                        stored_at: now,
                    },
                )
                .is_none()
            {
                self.used += size as u64;
                adopted += 1;
            }
        }
        adopted
    }

    fn req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    // ------------------------------------------------------ message handling

    fn process_msg(&mut self, from: NodeId, msg: Msg, now: Time) {
        match msg {
            Msg::JoinOk { req, node, .. } => {
                // Accept any join grant while unjoined: a duplicate
                // JoinRequest (e.g. after a dropped reply) may be answered
                // out of order.
                let _ = req;
                if !self.joined {
                    self.id = node;
                    self.joined = true;
                    self.join_req = None;
                    self.emit_heartbeat(now);
                }
            }
            Msg::HeartbeatAck { gc_due, .. } => {
                if gc_due {
                    self.gc_due = true;
                }
            }
            Msg::PutChunk {
                req,
                chunk,
                size,
                data,
                ..
            } => self.on_put(from, req, chunk, size, data, now),
            Msg::DeltaPutChunk {
                req,
                chunk,
                basis,
                size,
                delta,
            } => self.on_delta_put(from, req, chunk, basis, size, delta, now),
            Msg::GetChunk { req, chunk } => self.on_get(from, req, chunk),
            Msg::DeleteChunks { chunks } => {
                for c in chunks {
                    self.remove_chunk(c);
                }
            }
            Msg::GcReply { deletable, .. } => {
                for c in deletable {
                    self.remove_chunk(c);
                }
            }
            Msg::ReplicateCmd { job, copies } => self.on_replicate(job, copies),
            Msg::PutChunkOk { req, .. } => self.on_put_ack(req, true),
            Msg::ErrorReply { req, .. } => {
                // Either a failed replication transfer or a stale reply.
                self.on_put_ack(req, false);
            }
            other => {
                if let Some(req) = other.request_id() {
                    self.actions.send(
                        from,
                        Msg::ErrorReply {
                            req,
                            code: ErrorCode::BadRequest,
                            detail: format!("benefactor cannot serve tag {}", other.wire_tag()),
                        },
                    );
                }
            }
        }
    }

    /// Content-addressed dedup: acks a put of a chunk already stored here
    /// and restarts its GC grace, as a fresh store would. The writing
    /// session will reference the chunk, so an old orphan (say, from an
    /// aborted session) must not be reported deletable under it. Returns
    /// false, sending nothing, when the chunk is not stored.
    fn ack_stored(&mut self, from: NodeId, req: RequestId, chunk: ChunkId, now: Time) -> bool {
        let Some(info) = self.index.get_mut(&chunk) else {
            return false;
        };
        info.stored_at = now;
        self.actions.send(
            from,
            Msg::PutChunkOk {
                req,
                chunk,
                node: self.id,
            },
        );
        true
    }

    fn on_put(
        &mut self,
        from: NodeId,
        req: RequestId,
        chunk: ChunkId,
        size: u32,
        data: bytes::Bytes,
        now: Time,
    ) {
        if !self.joined {
            // Until the pool identity is known, acknowledgements would be
            // unattributable; make the client fail over.
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::Unavailable,
                    detail: "benefactor has not joined the pool yet".to_string(),
                },
            );
            return;
        }
        if self.ack_stored(from, req, chunk, now) {
            return;
        }
        if !data.is_empty() {
            if data.len() != size as usize {
                self.actions.send(
                    from,
                    Msg::ErrorReply {
                        req,
                        code: ErrorCode::BadRequest,
                        detail: format!("size field {size} != payload {}", data.len()),
                    },
                );
                return;
            }
            if !chunk.verify(&data) {
                // Content-based addressability doubles as an integrity
                // check: refuse tampered or corrupted data.
                self.actions.send(
                    from,
                    Msg::ErrorReply {
                        req,
                        code: ErrorCode::Corrupt,
                        detail: "chunk data does not match its content hash".to_string(),
                    },
                );
                return;
            }
        }
        let payload = if data.is_empty() {
            Payload::Virtual { size, tag: 0 }
        } else {
            Payload::Real(data)
        };
        self.admit(from, req, chunk, size, payload, now);
    }

    /// Admits a verified chunk: acks it if it is already stored (a put
    /// of the same chunk may have landed first), else checks capacity,
    /// indexes it, charges its size to `used` and queues its `Store`.
    /// Every path that stores a chunk goes through here, so one chunk is
    /// charged and stored once.
    fn admit(
        &mut self,
        from: NodeId,
        req: RequestId,
        chunk: ChunkId,
        size: u32,
        payload: Payload,
        now: Time,
    ) {
        if self.ack_stored(from, req, chunk, now) {
            return;
        }
        if self.used + size as u64 > self.total {
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NoSpace,
                    detail: format!("{} bytes free", self.free_space()),
                },
            );
            return;
        }
        self.index.insert(
            chunk,
            ChunkInfo {
                size,
                stored_at: now,
            },
        );
        self.used += size as u64;
        let op = self.op();
        self.pending_stores.insert(
            op,
            PendingStore {
                req,
                chunk,
                reply_to: from,
            },
        );
        self.actions.push(Action::Store { op, chunk, payload });
    }

    /// Stores a chunk shipped as a delta against a basis chunk already held
    /// here (wire-level dedup for near-miss chunks). The reconstruction is
    /// verified against the target's content hash before anything lands, and
    /// the stored blob is the *full* chunk: storage stays self-contained, so
    /// reads, replication, and GC are oblivious to how the bytes arrived.
    /// Every refusal is an `ErrorReply` the sending client answers by
    /// re-shipping the chunk in full.
    #[allow(clippy::too_many_arguments)]
    fn on_delta_put(
        &mut self,
        from: NodeId,
        req: RequestId,
        chunk: ChunkId,
        basis: ChunkId,
        size: u32,
        delta: bytes::Bytes,
        now: Time,
    ) {
        if !self.joined {
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::Unavailable,
                    detail: "benefactor has not joined the pool yet".to_string(),
                },
            );
            return;
        }
        if self.ack_stored(from, req, chunk, now) {
            return;
        }
        let Some(info) = self.index.get(&basis) else {
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NotFound,
                    detail: format!("delta basis {basis} not stored here"),
                },
            );
            return;
        };
        if self.used + size as u64 > self.total {
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NoSpace,
                    detail: format!("{} bytes free", self.free_space()),
                },
            );
            return;
        }
        let basis_size = info.size;
        let op = self.op();
        self.pending_loads.insert(
            op,
            LoadPurpose::DeltaApply {
                req,
                to: from,
                chunk,
                size,
                delta,
            },
        );
        self.actions.push(Action::Load {
            op,
            chunk: basis,
            size: basis_size,
            serve: false,
        });
    }

    fn complete_store(&mut self, op: u64, _now: Time) {
        let Some(p) = self.pending_stores.remove(&op) else {
            return;
        };
        self.actions.send(
            p.reply_to,
            Msg::PutChunkOk {
                req: p.req,
                chunk: p.chunk,
                node: self.id,
            },
        );
    }

    fn on_get(&mut self, from: NodeId, req: RequestId, chunk: ChunkId) {
        if !self.index.contains_key(&chunk) {
            self.actions.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NotFound,
                    detail: format!("chunk {chunk} not stored here"),
                },
            );
            return;
        }
        let size = self.index[&chunk].size;
        let op = self.op();
        self.pending_loads
            .insert(op, LoadPurpose::ServeGet { req, to: from });
        self.actions.push(Action::Load {
            op,
            chunk,
            size,
            serve: true,
        });
    }

    fn complete_load(&mut self, op: u64, chunk: ChunkId, payload: Payload, now: Time) {
        let Some(purpose) = self.pending_loads.remove(&op) else {
            return;
        };
        match purpose {
            LoadPurpose::ServeGet { req, to } => self.actions.send(
                to,
                Msg::GetChunkOk {
                    req,
                    chunk,
                    size: payload.len() as u32,
                    data: payload.bytes(),
                },
            ),
            LoadPurpose::ReplPush { job, copy } => {
                let req = self.req();
                self.outstanding_puts.insert(
                    req,
                    OutstandingPut {
                        job,
                        copy,
                        sent_at: now,
                    },
                );
                self.actions.send(
                    copy.target,
                    Msg::PutChunk {
                        req,
                        chunk,
                        size: payload.len() as u32,
                        data: payload.bytes(),
                        background: true,
                    },
                );
            }
            LoadPurpose::DeltaApply {
                req,
                to,
                chunk: target,
                size,
                delta,
            } => {
                // `chunk` is the basis that was loaded; `target` is the
                // chunk being reconstructed.
                let full = match &payload {
                    Payload::Real(basis) => delta_apply(basis, &delta).ok(),
                    // Virtual payloads (simulator drivers) carry no bytes
                    // to patch; refuse so the client falls back to full.
                    Payload::Virtual { .. } => None,
                };
                match full.filter(|f| f.len() == size as usize && target.verify(f)) {
                    // Capacity may have shrunk, or a full put of the
                    // target may have landed, while the basis was loading.
                    Some(full) => {
                        let payload = Payload::Real(bytes::Bytes::from(full));
                        self.admit(to, req, target, size, payload, now);
                    }
                    None => self.actions.send(
                        to,
                        Msg::ErrorReply {
                            req,
                            code: ErrorCode::Corrupt,
                            detail: format!("delta for {target} does not reconstruct its content"),
                        },
                    ),
                }
            }
        }
    }

    /// The driver could not read a chunk this node's index advertises: the
    /// backing blob is lost or corrupt. Drop it from the index (GC and
    /// heartbeats stop advertising it) and fail the pending request so the
    /// requester fails over to another replica.
    fn load_failed(&mut self, op: u64, chunk: ChunkId) {
        let Some(purpose) = self.pending_loads.remove(&op) else {
            return;
        };
        self.remove_chunk(chunk);
        match purpose {
            LoadPurpose::ServeGet { req, to } => self.actions.send(
                to,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NotFound,
                    detail: format!("chunk {chunk} lost from backing store"),
                },
            ),
            LoadPurpose::ReplPush { job, copy } => {
                let Some(mut state) = self.repl_jobs.remove(&job) else {
                    return;
                };
                state.outstanding -= 1;
                state.failed.push(copy);
                if state.outstanding == 0 {
                    self.report_job(job, state);
                } else {
                    self.repl_jobs.insert(job, state);
                }
            }
            LoadPurpose::DeltaApply { req, to, .. } => {
                // The basis is gone from the backing store: the client
                // re-ships the target chunk in full.
                self.actions.send(
                    to,
                    Msg::ErrorReply {
                        req,
                        code: ErrorCode::NotFound,
                        detail: format!("delta basis {chunk} lost from backing store"),
                    },
                );
            }
        }
    }

    fn on_replicate(&mut self, job: u64, copies: Vec<ReplicaCopy>) {
        let mut state = JobState {
            outstanding: 0,
            done: Vec::new(),
            failed: Vec::new(),
        };
        for copy in copies {
            if let Some(info) = self.index.get(&copy.chunk) {
                let size = info.size;
                state.outstanding += 1;
                let op = self.op();
                let chunk = copy.chunk;
                self.pending_loads
                    .insert(op, LoadPurpose::ReplPush { job, copy });
                self.actions.push(Action::Load {
                    op,
                    chunk,
                    size,
                    serve: false,
                });
            } else {
                state.failed.push(copy);
            }
        }
        if state.outstanding == 0 {
            self.report_job(job, state);
        } else {
            self.repl_jobs.insert(job, state);
        }
    }

    fn on_put_ack(&mut self, req: RequestId, ok: bool) {
        let Some(put) = self.outstanding_puts.remove(&req) else {
            return;
        };
        let Some(mut state) = self.repl_jobs.remove(&put.job) else {
            return;
        };
        state.outstanding -= 1;
        if ok {
            state.done.push(put.copy);
        } else {
            state.failed.push(put.copy);
        }
        if state.outstanding == 0 {
            self.report_job(put.job, state);
        } else {
            self.repl_jobs.insert(put.job, state);
        }
    }

    fn report_job(&mut self, job: u64, state: JobState) {
        self.actions.send(
            MANAGER_NODE,
            Msg::ReplicateReport {
                job,
                node: self.id,
                done: state.done,
                failed: state.failed,
            },
        );
    }

    fn remove_chunk(&mut self, chunk: ChunkId) {
        if let Some(info) = self.index.remove(&chunk) {
            self.used = self.used.saturating_sub(info.size as u64);
            self.actions.push(Action::DropChunk { chunk });
        }
    }

    fn emit_heartbeat(&mut self, now: Time) {
        self.last_heartbeat = Some(now);
        self.actions.send(
            MANAGER_NODE,
            Msg::Heartbeat {
                node: self.id,
                free_space: self.free_space(),
                total_space: self.total,
                addr: self.advertised_addr.clone(),
            },
        );
    }

    // ------------------------------------------------------------ timers

    /// Runs time-based behaviour: joining, heartbeats, GC reports and
    /// replication timeouts.
    fn process_timeout(&mut self, now: Time) {
        if !self.joined {
            let due = self
                .last_heartbeat
                .map(|t| now.since(t) >= self.cfg.heartbeat_every)
                .unwrap_or(true);
            if due {
                let req = self.req();
                self.join_req = Some(req);
                self.last_heartbeat = Some(now);
                self.actions.send(
                    MANAGER_NODE,
                    Msg::JoinRequest {
                        req,
                        addr: self.advertised_addr.clone(),
                        total_space: self.total,
                    },
                );
            }
            return;
        }
        let hb_due = self
            .last_heartbeat
            .map(|t| now.since(t) >= self.cfg.heartbeat_every)
            .unwrap_or(true);
        if hb_due {
            self.emit_heartbeat(now);
        }
        if self.gc_due {
            let gc_ok = self
                .last_gc
                .map(|t| now.since(t) >= self.cfg.gc_min_interval)
                .unwrap_or(true);
            if gc_ok {
                self.gc_due = false;
                self.last_gc = Some(now);
                let req = self.req();
                let mut chunks: Vec<ChunkId> = self
                    .index
                    .iter()
                    .filter(|(_, info)| now.since(info.stored_at) >= self.cfg.gc_grace)
                    .map(|(id, _)| *id)
                    .collect();
                chunks.sort_unstable();
                self.actions.send(
                    MANAGER_NODE,
                    Msg::GcReport {
                        req,
                        node: self.id,
                        chunks,
                    },
                );
            }
        }
        // Replication transfer timeouts.
        let mut timed_out: Vec<RequestId> = self
            .outstanding_puts
            .iter()
            .filter(|(_, p)| now.since(p.sent_at) >= self.cfg.put_timeout)
            .map(|(r, _)| *r)
            .collect();
        timed_out.sort_unstable();
        for req in timed_out {
            self.on_put_ack(req, false);
        }
    }
}

impl Node for Benefactor {
    fn handle(&mut self, from: NodeId, msg: Msg, now: Time) {
        self.process_msg(from, msg, now);
    }

    fn handle_completion(&mut self, completion: Completion, now: Time) {
        match completion {
            Completion::Stored { op } => self.complete_store(op, now),
            Completion::Loaded { op, chunk, payload } => {
                self.complete_load(op, chunk, payload, now)
            }
            Completion::LoadFailed { op, chunk } => self.load_failed(op, chunk),
            // Benefactor transfers are fire-and-forget at the transport
            // level; replication failures surface via the put timeout.
            Completion::SendDone { .. } | Completion::SendFailed { .. } => {}
            other => debug_assert!(false, "unexpected completion {other:?}"),
        }
    }

    fn handle_timeout(&mut self, now: Time) {
        self.process_timeout(now);
    }

    fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop()
    }

    fn poll_timeout(&self) -> Option<Time> {
        let hb = Some(match self.last_heartbeat {
            Some(t) => t + self.cfg.heartbeat_every,
            None => Time::ZERO,
        });
        if !self.joined {
            // Next join attempt.
            return hb;
        }
        let mut next = hb;
        if self.gc_due {
            next = earliest(
                next,
                Some(match self.last_gc {
                    Some(t) => t + self.cfg.gc_min_interval,
                    None => Time::ZERO,
                }),
            );
        }
        for p in self.outstanding_puts.values() {
            next = earliest(next, Some(p.sent_at + self.cfg.put_timeout));
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn send_msgs(actions: &[Action]) -> Vec<&Msg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn make() -> Benefactor {
        Benefactor::new(NodeId(5), 1 << 20, BenefactorConfig::fast_for_tests())
    }

    #[test]
    fn pre_assigned_id_heartbeats_without_joining() {
        let mut b = make();
        b.handle_timeout(Time::ZERO);
        let out = b.drain_actions();
        let msgs = send_msgs(&out);
        assert!(matches!(
            msgs[0],
            Msg::Heartbeat {
                node: NodeId(5),
                ..
            }
        ));
        // No duplicate heartbeat before the period elapses.
        b.handle_timeout(Time::ZERO + Dur::from_millis(10));
        assert!(b.drain_actions().is_empty());
        b.handle_timeout(Time::ZERO + Dur::from_millis(60));
        let out = b.drain_actions();
        assert!(!send_msgs(&out).is_empty());
    }

    #[test]
    fn zero_id_joins_first() {
        let mut b = Benefactor::new(NodeId(0), 1 << 20, BenefactorConfig::fast_for_tests());
        b.handle_timeout(Time::ZERO);
        let out = b.drain_actions();
        let req = match send_msgs(&out)[0] {
            Msg::JoinRequest { req, .. } => *req,
            other => panic!("expected join, got {other:?}"),
        };
        b.handle(
            MANAGER_NODE,
            Msg::JoinOk {
                req,
                node: NodeId(9),
                heartbeat_every: Dur::from_millis(50),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        assert_eq!(b.id(), NodeId(9));
        assert!(matches!(
            send_msgs(&out)[0],
            Msg::Heartbeat {
                node: NodeId(9),
                ..
            }
        ));
    }

    #[test]
    fn put_stores_then_acks() {
        let mut b = make();
        let data = Bytes::from_static(b"hello chunk");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: data.len() as u32,
                data,
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        let op = match &out[0] {
            Action::Store { op, .. } => *op,
            other => panic!("expected store, got {other:?}"),
        };
        assert!(b.contains(chunk));
        assert_eq!(b.used_space(), 11);
        b.handle_completion(Completion::Stored { op }, Time::ZERO);
        let out = b.drain_actions();
        match &out[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, NodeId(7));
                assert!(matches!(msg, Msg::PutChunkOk { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_put_acks_without_storing() {
        let mut b = make();
        let data = Bytes::from_static(b"x");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: 1,
                data: data.clone(),
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Store { op, .. } = out[0] {
            b.handle_completion(Completion::Stored { op }, Time::ZERO);
            b.drain_actions();
        }
        b.handle(
            NodeId(8),
            Msg::PutChunk {
                req: RequestId(2),
                chunk,
                size: 1,
                data,
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        assert!(matches!(
            &out[0],
            Action::Send {
                msg: Msg::PutChunkOk { .. },
                ..
            }
        ));
        assert_eq!(b.used_space(), 1, "no double accounting");
    }

    #[test]
    fn corrupt_put_is_rejected() {
        let mut b = make();
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk: ChunkId::for_content(b"expected"),
                size: 6,
                data: Bytes::from_static(b"actual"),
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match send_msgs(&out)[0] {
            Msg::ErrorReply { code, .. } => assert_eq!(*code, ErrorCode::Corrupt),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(b.chunk_count(), 0);
    }

    #[test]
    fn put_beyond_capacity_is_no_space() {
        let mut b = Benefactor::new(NodeId(5), 10, BenefactorConfig::fast_for_tests());
        let data = Bytes::from(vec![1u8; 11]);
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: 11,
                data,
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match send_msgs(&out)[0] {
            Msg::ErrorReply { code, .. } => assert_eq!(*code, ErrorCode::NoSpace),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_round_trips_through_load() {
        let mut b = make();
        let data = Bytes::from_static(b"payload");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: 7,
                data: data.clone(),
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Store { op, .. } = out[0] {
            b.handle_completion(Completion::Stored { op }, Time::ZERO);
            b.drain_actions();
        }
        b.handle(
            NodeId(8),
            Msg::GetChunk {
                req: RequestId(2),
                chunk,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        let op = match &out[0] {
            Action::Load { op, .. } => *op,
            other => panic!("expected load, got {other:?}"),
        };
        b.handle_completion(
            Completion::Loaded {
                op,
                chunk,
                payload: Payload::Real(data.clone()),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match &out[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, NodeId(8));
                match msg {
                    Msg::GetChunkOk { data: d, .. } => assert_eq!(d, &data),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_missing_chunk_is_not_found() {
        let mut b = make();
        b.handle(
            NodeId(8),
            Msg::GetChunk {
                req: RequestId(2),
                chunk: ChunkId::test_id(1),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match send_msgs(&out)[0] {
            Msg::ErrorReply { code, .. } => assert_eq!(*code, ErrorCode::NotFound),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_chunks_frees_space() {
        let mut b = make();
        let data = Bytes::from_static(b"abc");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: 3,
                data,
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Store { op, .. } = out[0] {
            b.handle_completion(Completion::Stored { op }, Time::ZERO);
            b.drain_actions();
        }
        b.handle(
            MANAGER_NODE,
            Msg::DeleteChunks {
                chunks: vec![chunk],
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        assert!(matches!(out[0], Action::DropChunk { .. }));
        assert_eq!(b.used_space(), 0);
    }

    #[test]
    fn replication_pushes_background_puts_and_reports() {
        let mut b = make();
        let data = Bytes::from_static(b"replica me");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: data.len() as u32,
                data: data.clone(),
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Store { op, .. } = out[0] {
            b.handle_completion(Completion::Stored { op }, Time::ZERO);
            b.drain_actions();
        }
        b.handle(
            MANAGER_NODE,
            Msg::ReplicateCmd {
                job: 9,
                copies: vec![ReplicaCopy {
                    chunk,
                    target: NodeId(6),
                }],
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        let op = match &out[0] {
            Action::Load { op, .. } => *op,
            other => panic!("expected load, got {other:?}"),
        };
        b.handle_completion(
            Completion::Loaded {
                op,
                chunk,
                payload: Payload::Real(data),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        let req = match &out[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, NodeId(6));
                match msg {
                    Msg::PutChunk {
                        req, background, ..
                    } => {
                        assert!(*background, "replication traffic is background");
                        *req
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        };
        // Target acks; job completes.
        b.handle(
            NodeId(6),
            Msg::PutChunkOk {
                req,
                chunk,
                node: NodeId(6),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match send_msgs(&out)[0] {
            Msg::ReplicateReport { done, failed, .. } => {
                assert_eq!(done.len(), 1);
                assert!(failed.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replication_of_missing_chunk_fails_fast() {
        let mut b = make();
        b.handle(
            MANAGER_NODE,
            Msg::ReplicateCmd {
                job: 3,
                copies: vec![ReplicaCopy {
                    chunk: ChunkId::test_id(1),
                    target: NodeId(6),
                }],
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        match send_msgs(&out)[0] {
            Msg::ReplicateReport { done, failed, .. } => {
                assert!(done.is_empty());
                assert_eq!(failed.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replication_times_out_and_reports_failure() {
        let mut b = make();
        let data = Bytes::from_static(b"slow");
        let chunk = ChunkId::for_content(&data);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk,
                size: 4,
                data: data.clone(),
                background: false,
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Store { op, .. } = out[0] {
            b.handle_completion(Completion::Stored { op }, Time::ZERO);
            b.drain_actions();
        }
        b.handle(
            MANAGER_NODE,
            Msg::ReplicateCmd {
                job: 4,
                copies: vec![ReplicaCopy {
                    chunk,
                    target: NodeId(6),
                }],
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        if let Action::Load { op, .. } = out[0] {
            b.handle_completion(
                Completion::Loaded {
                    op,
                    chunk,
                    payload: Payload::Real(data),
                },
                Time::ZERO,
            );
            b.drain_actions();
        }
        // No ack arrives; tick past the timeout.
        b.handle_timeout(Time::ZERO + Dur::from_millis(300));
        let out = b.drain_actions();
        let report = send_msgs(&out)
            .into_iter()
            .find(|m| matches!(m, Msg::ReplicateReport { .. }))
            .expect("timeout report");
        match report {
            Msg::ReplicateReport { failed, .. } => assert_eq!(failed.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn delta_apply_after_a_racing_full_put_stores_once() {
        use stdchk_chunker::delta::{delta_encode, ChunkSignature};
        let stores_of = |out: &[Action], id: ChunkId| {
            out.iter()
                .filter(|a| matches!(a, Action::Store { chunk, .. } if *chunk == id))
                .count()
        };
        let mut b = make();
        let basis: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut target = basis.clone();
        target[3000..3010].copy_from_slice(b"edited....");
        let basis_id = ChunkId::for_content(&basis);
        let target_id = ChunkId::for_content(&target);
        b.handle(
            NodeId(7),
            Msg::PutChunk {
                req: RequestId(1),
                chunk: basis_id,
                size: 4096,
                data: Bytes::from(basis.clone()),
                background: false,
            },
            Time::ZERO,
        );
        for a in b.drain_actions() {
            if let Action::Store { op, .. } = a {
                b.handle_completion(Completion::Stored { op }, Time::ZERO);
            }
        }
        b.drain_actions();
        // A delta of the target: the benefactor loads the basis first.
        let delta = delta_encode(&ChunkSignature::build(&basis, 512), &target).expect("delta");
        b.handle(
            NodeId(7),
            Msg::DeltaPutChunk {
                req: RequestId(2),
                chunk: target_id,
                basis: basis_id,
                size: 4096,
                delta: Bytes::from(delta),
            },
            Time::ZERO,
        );
        let load_op = match &b.drain_actions()[..] {
            [Action::Load { op, .. }] => *op,
            other => panic!("expected a basis load, got {other:?}"),
        };
        // A full put of the target lands while the basis is loading.
        b.handle(
            NodeId(8),
            Msg::PutChunk {
                req: RequestId(3),
                chunk: target_id,
                size: 4096,
                data: Bytes::from(target),
                background: false,
            },
            Time::ZERO,
        );
        let mut stores = stores_of(&b.drain_actions(), target_id);
        b.handle_completion(
            Completion::Loaded {
                op: load_op,
                chunk: basis_id,
                payload: Payload::Real(Bytes::from(basis)),
            },
            Time::ZERO,
        );
        let out = b.drain_actions();
        stores += stores_of(&out, target_id);
        assert_eq!(stores, 1, "the target is stored once");
        assert_eq!(b.used_space(), 8192, "basis and target each charged once");
        assert!(
            matches!(
                send_msgs(&out)[..],
                [Msg::PutChunkOk {
                    req: RequestId(2),
                    ..
                }]
            ),
            "the delta put is acked"
        );
    }

    #[test]
    fn gc_report_respects_grace_period() {
        let mut b = make();
        let store = |b: &mut Benefactor, req: u64, data: &'static [u8], now: Time| {
            let data = Bytes::from_static(data);
            let chunk = ChunkId::for_content(&data);
            b.handle(
                NodeId(7),
                Msg::PutChunk {
                    req: RequestId(req),
                    chunk,
                    size: data.len() as u32,
                    data,
                    background: false,
                },
                now,
            );
            for a in b.drain_actions() {
                if let Action::Store { op, .. } = a {
                    b.handle_completion(Completion::Stored { op }, now);
                }
            }
            b.drain_actions();
            chunk
        };
        let later = Time::ZERO + Dur::from_millis(150);
        let old_id = store(&mut b, 1, b"old", Time::ZERO);
        let fresh_id = store(&mut b, 2, b"fresh", later);
        // Orphans older than the grace period that a live session writes
        // again, in full and as a delta: each re-put restarts the grace.
        let reput_id = store(&mut b, 3, b"reput", Time::ZERO);
        assert_eq!(store(&mut b, 4, b"reput", later), reput_id);
        let redelta_id = store(&mut b, 5, b"redelta", Time::ZERO);
        b.handle(
            NodeId(7),
            Msg::DeltaPutChunk {
                req: RequestId(6),
                chunk: redelta_id,
                basis: old_id,
                size: 7,
                delta: Bytes::new(),
            },
            later,
        );
        assert!(matches!(
            send_msgs(&b.drain_actions())[..],
            [Msg::PutChunkOk { .. }]
        ));
        b.handle(
            MANAGER_NODE,
            Msg::HeartbeatAck {
                node: NodeId(5),
                gc_due: true,
            },
            later,
        );
        b.handle_timeout(later + Dur::from_millis(10));
        let out = b.drain_actions();
        let report = send_msgs(&out)
            .into_iter()
            .find(|m| matches!(m, Msg::GcReport { .. }))
            .expect("gc report");
        match report {
            Msg::GcReport { chunks, .. } => {
                assert!(chunks.contains(&old_id), "old chunk reported");
                assert!(!chunks.contains(&fresh_id), "fresh chunk withheld by grace");
                assert!(
                    !chunks.contains(&reput_id),
                    "re-put chunk withheld by grace"
                );
                assert!(
                    !chunks.contains(&redelta_id),
                    "delta re-put chunk withheld by grace"
                );
            }
            _ => unreachable!(),
        }
    }
}
