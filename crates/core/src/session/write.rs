//! The write session: CLW, IW and SW protocols (paper §IV.B).
//!
//! One state machine implements all three write-optimized protocols as
//! routing strategies over shared machinery (chunk assembly with on-path
//! content hashing, FsCH dedup against the previous version, round-robin
//! striping, reservation management, retries, atomic commit):
//!
//! - **Complete local write (CLW)**: every byte is staged locally; the push
//!   to benefactors starts only at `close()`. Application-observed bandwidth
//!   tracks local I/O; achieved storage bandwidth pays the serialized push.
//! - **Incremental write (IW)**: staging is split into temporary files of a
//!   configurable size; a sealed temp is pushed while the application keeps
//!   writing the next one, overlapping creation and propagation.
//! - **Sliding window (SW)**: no local I/O at all; data leaves a bounded
//!   memory buffer straight to the stripe. The buffer size bounds how far
//!   the application can run ahead of the network.
//!
//! Two timestamps implement the paper's metrics: `app_close_at` ends the
//! *observed application bandwidth* window (all data handed off: staged
//! locally for CLW/IW, sent on the wire for SW), and `done_at` ends the
//! *achieved storage bandwidth* window (all chunks acked remotely and the
//! chunk-map committed).

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use stdchk_chunker::delta::{delta_encode_signed, ChunkSignature};
use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::msg::{DedupSummary, Msg};
use stdchk_proto::ErrorCode;
use stdchk_util::{Dur, Time};

use super::ReqGen;
use crate::node::{Action, ActionQueue, Completion, Node};
use crate::payload::{AssembledChunk, ChunkAssembler, Payload};
use crate::MANAGER_NODE;

/// Which write-optimized protocol a session uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteProtocol {
    /// Complete local write: stage everything, push after `close()`.
    CompleteLocal,
    /// Incremental write: stage into temps of `temp_size` bytes; push sealed
    /// temps while writing continues.
    Incremental {
        /// Size of each temporary file.
        temp_size: u64,
    },
    /// Sliding window: push straight from a memory buffer of `buffer` bytes.
    SlidingWindow {
        /// Memory buffer capacity.
        buffer: u64,
    },
}

/// Write-session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The write protocol.
    pub protocol: WriteProtocol,
    /// Enable FsCH incremental checkpointing: chunks whose content hash
    /// matches the previous version are not transferred or stored again.
    pub dedup: bool,
    /// Enable have/want negotiation: chunk ids not resolvable locally are
    /// offered to the manager (`OfferChunks`) before transfer, and only the
    /// chunks the pool lacks ship — as deltas against the previous version
    /// when a basis signature is available, in full otherwise.
    pub negotiate: bool,
    /// Pessimistic write semantics: the commit acknowledges only once the
    /// replication target is met.
    pub pessimistic: bool,
    /// Per-chunk transfer retry budget before the session fails.
    pub put_retries: u32,
    /// IW: sealed-but-unpushed temps tolerated before the app is blocked.
    pub max_pending_temps: usize,
    /// Bound on concurrently outstanding chunk transfers.
    pub max_inflight_puts: usize,
    /// Bound on staged bytes whose local write has not completed yet.
    pub stage_window: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            protocol: WriteProtocol::SlidingWindow { buffer: 64 << 20 },
            dedup: false,
            negotiate: false,
            pessimistic: false,
            put_retries: 3,
            max_pending_temps: 2,
            max_inflight_puts: 16,
            stage_window: 8 << 20,
        }
    }
}

/// The manager's grant for a write session (a parsed `CreateFileOk` plus the
/// path the client asked for).
#[derive(Clone, Debug)]
pub struct OpenGrant {
    /// Path being written.
    pub path: String,
    /// File id.
    pub file: FileId,
    /// The version this session will commit.
    pub version: VersionId,
    /// Reservation handle.
    pub reservation: ReservationId,
    /// Stripe of benefactors, round-robin order.
    pub stripe: Vec<NodeId>,
    /// Previous version's chunk entries (dedup baseline).
    pub prev_chunks: Vec<ChunkEntry>,
    /// Pool chunk size.
    pub chunk_size: u32,
    /// Chunks covered by the initial reservation.
    pub reserved_chunks: u64,
}

/// Lifecycle of a write session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Accepting application writes.
    Open,
    /// `close()` called; draining data and committing.
    Closing,
    /// Chunk-map committed; all remote I/O complete.
    Done,
    /// Unrecoverable failure.
    Failed(ErrorCode),
}

/// Metrics for the paper's OAB/ASB accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStats {
    /// Bytes the application wrote.
    pub bytes_written: u64,
    /// Bytes actually shipped to benefactors (network/storage effort).
    pub bytes_stored: u64,
    /// Bytes saved by incremental-checkpointing dedup.
    pub bytes_deduped: u64,
    /// Total chunks in the committed map.
    pub chunks_total: u64,
    /// Chunks that were dedup hits.
    pub chunks_deduped: u64,
    /// When the session opened.
    pub open_at: Time,
    /// When `close()` returned to the application (ends the OAB window).
    pub app_close_at: Option<Time>,
    /// When all remote I/O completed and the map committed (ends ASB).
    pub done_at: Option<Time>,
    /// Chunks offered to the manager for have/want negotiation.
    pub offered_chunks: u64,
    /// Offered chunks the manager asked for.
    pub wanted_chunks: u64,
    /// Bytes that never travelled: prev-version hits plus offers the
    /// manager declined.
    pub wire_reused_bytes: u64,
    /// Bytes shipped as delta encodings.
    pub wire_delta_bytes: u64,
    /// Bytes shipped as full chunk payloads.
    pub wire_full_bytes: u64,
    /// Checkpoint interval the manager suggested at commit, derived from
    /// observed fleet churn ([`Dur::ZERO`] = no guidance).
    pub suggested_interval: Dur,
}

impl WriteStats {
    /// Observed application bandwidth in bytes/sec, if the close returned.
    pub fn oab(&self) -> Option<f64> {
        let end = self.app_close_at?;
        let dt = end.since(self.open_at).as_secs_f64();
        (dt > 0.0).then(|| self.bytes_written as f64 / dt)
    }

    /// Achieved storage bandwidth in bytes/sec, if the session completed.
    pub fn asb(&self) -> Option<f64> {
        let end = self.done_at?;
        let dt = end.since(self.open_at).as_secs_f64();
        (dt > 0.0).then(|| self.bytes_written as f64 / dt)
    }
}

/// Chunk entries accumulated per `OfferChunks` batch before it is sent;
/// `close()` flushes a partial batch.
const OFFER_BATCH: usize = 16;

#[derive(Clone, Debug)]
struct PendingPut {
    chunk: ChunkId,
    size: u32,
    payload: Payload,
    target: NodeId,
    attempts: u32,
    sent: bool,
    /// True when the in-flight transfer is a `DeltaPutChunk`; an
    /// `ErrorReply` then downgrades to a full `PutChunk` instead of
    /// failing over to another benefactor.
    as_delta: bool,
    /// Bytes this transfer puts on the wire (delta length, or the full
    /// chunk size).
    wire_cost: u64,
}

/// Manager verdict on one offered chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Offered; the `WantChunks` answer is still outstanding.
    Pending,
    /// The pool lacks it — it must ship.
    Wanted,
    /// Already stored — commit by reference.
    Reused,
}

#[derive(Clone, Debug)]
struct StagedChunk {
    entry: ChunkEntry,
    offset: u64,
    /// Index of the IW temp this chunk belongs to (0 for CLW).
    temp: u64,
    deduped: bool,
}

/// The write-session state machine. See the module docs.
#[derive(Debug)]
pub struct WriteSession {
    cfg: SessionConfig,
    grant: OpenGrant,
    /// This client's pool identity (kept for diagnostics/logging).
    #[allow(dead_code)]
    client: NodeId,
    reqs: ReqGen,
    next_op: u64,
    state: SessionState,
    asm: ChunkAssembler,
    entries: Vec<ChunkEntry>,
    prev: HashSet<ChunkId>,
    placements: HashMap<ChunkId, Vec<NodeId>>,
    stripe: Vec<NodeId>,
    rr: usize,
    used_chunks: u64,
    reserved_chunks: u64,
    extend_pending: Option<RequestId>,
    // Direct-push state (SW; also the push engine for staged protocols).
    pending_puts: HashMap<RequestId, PendingPut>,
    queued_puts: VecDeque<AssembledChunk>,
    buffered: u64,
    // Staging state (CLW/IW).
    staged: VecDeque<StagedChunk>,
    stage_tail: u64,
    stage_inflight: u64,
    stage_ops: HashMap<u64, u64>,
    sealed_temps: u64,
    pushed_temps: u64,
    push_open: bool,
    pending_fetches: HashMap<u64, StagedChunk>,
    // Negotiation state (have/want + delta).
    /// Entries awaiting the next `OfferChunks` batch.
    offer_pending: Vec<ChunkEntry>,
    /// Outstanding offer batches, by request id.
    pending_offers: HashMap<RequestId, Vec<ChunkEntry>>,
    /// Per-chunk negotiation verdicts (also marks a chunk as seen).
    verdicts: HashMap<ChunkId, Verdict>,
    /// SW payloads held back until their verdict arrives.
    offer_hold: HashMap<ChunkId, AssembledChunk>,
    /// new chunk id → previous-version chunk at the same position, when a
    /// signature for it is available (delta candidate).
    chunk_basis: HashMap<ChunkId, ChunkId>,
    /// Signatures of previous-version chunks (injected by the driver).
    basis_sigs: HashMap<ChunkId, ChunkSignature>,
    /// Known locations of previous-version chunks (injected by the
    /// driver): a delta must be routed to a node storing its basis.
    basis_homes: HashMap<ChunkId, Vec<NodeId>>,
    /// Signatures of chunks shipped this session, harvested by the driver
    /// as delta bases for the next version.
    out_sigs: HashMap<ChunkId, ChunkSignature>,
    // Commit state.
    commit_req: Option<RequestId>,
    stats: WriteStats,
    actions: ActionQueue,
}

impl WriteSession {
    /// Opens a session from a manager grant.
    ///
    /// `session_id` must be unique among the client's sessions (request-id
    /// namespace); `client` is this client's node id.
    pub fn new(
        session_id: u64,
        client: NodeId,
        grant: OpenGrant,
        cfg: SessionConfig,
        now: Time,
    ) -> WriteSession {
        let prev = grant.prev_chunks.iter().map(|e| e.id).collect();
        let asm = ChunkAssembler::new(grant.chunk_size);
        let stripe = grant.stripe.clone();
        let reserved = grant.reserved_chunks.max(1);
        // IW pushes sealed temps immediately; CLW opens the push phase only
        // at close. (SW never stages, so the flag is inert.)
        let push_open = !matches!(cfg.protocol, WriteProtocol::CompleteLocal);
        WriteSession {
            cfg,
            client,
            reqs: ReqGen::new(session_id),
            next_op: 0,
            state: SessionState::Open,
            asm,
            entries: Vec::new(),
            prev,
            placements: HashMap::new(),
            stripe,
            rr: 0,
            used_chunks: 0,
            reserved_chunks: reserved,
            extend_pending: None,
            pending_puts: HashMap::new(),
            queued_puts: VecDeque::new(),
            buffered: 0,
            staged: VecDeque::new(),
            stage_tail: 0,
            stage_inflight: 0,
            stage_ops: HashMap::new(),
            sealed_temps: 0,
            pushed_temps: 0,
            push_open,
            pending_fetches: HashMap::new(),
            offer_pending: Vec::new(),
            pending_offers: HashMap::new(),
            verdicts: HashMap::new(),
            offer_hold: HashMap::new(),
            chunk_basis: HashMap::new(),
            basis_sigs: HashMap::new(),
            basis_homes: HashMap::new(),
            out_sigs: HashMap::new(),
            commit_req: None,
            stats: WriteStats {
                open_at: now,
                ..WriteStats::default()
            },
            actions: ActionQueue::new(),
            grant,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Session metrics.
    pub fn stats(&self) -> WriteStats {
        self.stats
    }

    /// The committed chunk-map entries so far (final after `Done`).
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// True once the session has fully completed (ASB endpoint).
    pub fn is_done(&self) -> bool {
        self.state == SessionState::Done
    }

    /// True once `close()` has returned to the application (OAB endpoint).
    pub fn app_close_returned(&self) -> bool {
        self.stats.app_close_at.is_some()
    }

    /// Injects signatures of previous-version chunks so near-miss chunks
    /// can ship as deltas. Call before the first `write()`.
    pub fn set_basis_signatures(&mut self, sigs: HashMap<ChunkId, ChunkSignature>) {
        self.basis_sigs = sigs;
    }

    /// Injects the known locations of previous-version chunks. A delta is
    /// only worth encoding when some stripe node stores its basis — the
    /// benefactor reconstructs the full chunk locally, so the delta must
    /// land where the basis lives. Call before the first `write()`.
    pub fn set_basis_placements(&mut self, homes: HashMap<ChunkId, Vec<NodeId>>) {
        self.basis_homes = homes;
    }

    /// Where each chunk this session shipped (or will ship) has landed —
    /// harvested by the driver as the delta-put routing hint for the next
    /// version of the same file.
    pub fn shipped_placements(&self) -> HashMap<ChunkId, Vec<NodeId>> {
        self.placements.clone()
    }

    /// A stripe node storing `basis`, if any.
    fn basis_home_in_stripe(&self, basis: ChunkId) -> Option<NodeId> {
        self.basis_homes
            .get(&basis)?
            .iter()
            .copied()
            .find(|n| self.stripe.contains(n))
    }

    /// Takes the signatures of chunks shipped this session — the delta
    /// bases for the *next* version of the same file.
    pub fn take_signatures(&mut self) -> HashMap<ChunkId, ChunkSignature> {
        std::mem::take(&mut self.out_sigs)
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// How many bytes the application may write right now without
    /// overrunning the protocol's backpressure bound (0 = blocked).
    pub fn writable(&self) -> u64 {
        if self.state != SessionState::Open {
            return 0;
        }
        match self.cfg.protocol {
            WriteProtocol::SlidingWindow { buffer } => buffer.saturating_sub(self.buffered),
            WriteProtocol::CompleteLocal => {
                self.cfg.stage_window.saturating_sub(self.stage_inflight)
            }
            WriteProtocol::Incremental { .. } => {
                let pending_temps = self.sealed_temps.saturating_sub(self.pushed_temps);
                if pending_temps >= self.cfg.max_pending_temps as u64 {
                    0
                } else {
                    self.cfg.stage_window.saturating_sub(self.stage_inflight)
                }
            }
        }
    }

    /// Application write. Callers should respect [`WriteSession::writable`];
    /// writes beyond it are accepted but simply extend the backpressure
    /// window (the driver decides whether to block the application).
    /// Resulting effects are drained through [`Node::poll_action`].
    ///
    /// # Panics
    ///
    /// Panics if called after `close()`.
    pub fn write(&mut self, payload: Payload, now: Time) {
        assert_eq!(self.state, SessionState::Open, "write after close");
        let mut out = std::mem::take(&mut self.actions);
        self.stats.bytes_written += payload.len();
        let mut done = Vec::new();
        self.asm.push(payload, &mut done);
        for chunk in done {
            self.route_chunk(chunk, now, &mut out);
        }
        self.actions = out;
    }

    /// Application close: drains remaining data, then commits. Resulting
    /// effects are drained through [`Node::poll_action`].
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn close(&mut self, now: Time) {
        assert_eq!(self.state, SessionState::Open, "close called twice");
        self.state = SessionState::Closing;
        let mut out = std::mem::take(&mut self.actions);
        if let Some(tail) = self.asm.finish() {
            self.route_chunk(tail, now, &mut out);
        }
        // CLW: the push phase starts now.
        if matches!(self.cfg.protocol, WriteProtocol::CompleteLocal) {
            self.push_open = true;
        }
        // IW: the final (partial) temp seals at close.
        if matches!(self.cfg.protocol, WriteProtocol::Incremental { .. }) {
            self.seal_temps(true);
        }
        // Any partial offer batch must go out now: the commit waits on it.
        self.flush_offers(&mut out);
        self.pump(now, &mut out);
        self.actions = out;
    }

    // ------------------------------------------------------------ routing

    fn route_chunk(&mut self, chunk: AssembledChunk, now: Time, out: &mut ActionQueue) {
        self.stats.chunks_total += 1;
        self.entries.push(chunk.entry);
        let dedup_hit = self.cfg.dedup && self.prev.contains(&chunk.entry.id);
        // A chunk already shipped (or queued) in *this* session is also a
        // dedup hit: content addressing is set-based.
        let already_here = self.placements.contains_key(&chunk.entry.id)
            || self.verdicts.contains_key(&chunk.entry.id)
            || self
                .pending_puts
                .values()
                .any(|p| p.chunk == chunk.entry.id)
            || self
                .queued_puts
                .iter()
                .any(|q| q.entry.id == chunk.entry.id)
            || self
                .staged
                .iter()
                .any(|s| !s.deduped && s.entry.id == chunk.entry.id)
            || self
                .pending_fetches
                .values()
                .any(|s| s.entry.id == chunk.entry.id);
        let dedup = dedup_hit || already_here;
        if dedup {
            self.stats.chunks_deduped += 1;
            self.stats.bytes_deduped += chunk.entry.size as u64;
            self.stats.wire_reused_bytes += chunk.entry.size as u64;
        }
        // Chunks neither resolvable locally nor already in flight enter
        // have/want negotiation instead of shipping unconditionally.
        let negotiate = self.cfg.negotiate && !dedup;
        if negotiate {
            // The previous version's chunk at the same file position is the
            // delta basis candidate, when its signature is in hand.
            let idx = self.entries.len() - 1;
            if let Some(prev_e) = self.grant.prev_chunks.get(idx) {
                if prev_e.id != chunk.entry.id && self.basis_sigs.contains_key(&prev_e.id) {
                    self.chunk_basis.insert(chunk.entry.id, prev_e.id);
                }
            }
            self.verdicts.insert(chunk.entry.id, Verdict::Pending);
            self.offer_pending.push(chunk.entry);
            self.stats.offered_chunks += 1;
        }
        match self.cfg.protocol {
            WriteProtocol::SlidingWindow { .. } => {
                if dedup {
                    // Nothing to transfer; the manager resolves locations.
                } else if negotiate {
                    // Held (still inside the window) until the verdict.
                    self.buffered += chunk.entry.size as u64;
                    self.offer_hold.insert(chunk.entry.id, chunk);
                } else {
                    self.buffered += chunk.entry.size as u64;
                    self.queued_puts.push_back(chunk);
                }
            }
            WriteProtocol::CompleteLocal | WriteProtocol::Incremental { .. } => {
                // Stage every byte locally (the local dump), push later.
                let op = self.op();
                let offset = self.stage_tail;
                self.stage_tail += chunk.entry.size as u64;
                self.stage_inflight += chunk.entry.size as u64;
                self.stage_ops.insert(op, chunk.entry.size as u64);
                out.push(Action::StageAppend {
                    op,
                    offset,
                    payload: chunk.payload,
                });
                let temp = match self.cfg.protocol {
                    WriteProtocol::Incremental { temp_size } => offset / temp_size.max(1),
                    _ => 0,
                };
                self.staged.push_back(StagedChunk {
                    entry: chunk.entry,
                    offset,
                    temp,
                    deduped: dedup,
                });
                self.seal_temps(false);
            }
        }
        // A full batch amortizes the manager round-trip, but a blocked
        // window cannot wait for one: held offers count against `buffered`,
        // so a window smaller than OFFER_BATCH chunks would deadlock with
        // the writer (offers waiting for writes, writes waiting for the
        // window the offers hold). Flush partial batches on window-full.
        if self.offer_pending.len() >= OFFER_BATCH
            || (!self.offer_pending.is_empty() && self.writable() == 0)
        {
            self.flush_offers(out);
        }
        self.pump(now, out);
    }

    /// Sends the accumulated offer batch to the manager.
    fn flush_offers(&mut self, out: &mut ActionQueue) {
        if self.offer_pending.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.offer_pending);
        let req = self.reqs.next();
        self.pending_offers.insert(req, entries.clone());
        out.send(
            MANAGER_NODE,
            Msg::OfferChunks {
                req,
                reservation: self.grant.reservation,
                entries,
            },
        );
    }

    /// Applies a `Reused` verdict: the pool already stores the chunk, so it
    /// commits by reference and its bytes never travel.
    fn resolve_reused(&mut self, e: ChunkEntry) {
        self.verdicts.insert(e.id, Verdict::Reused);
        self.stats.chunks_deduped += 1;
        self.stats.bytes_deduped += e.size as u64;
        self.stats.wire_reused_bytes += e.size as u64;
        if self.offer_hold.remove(&e.id).is_some() {
            self.buffered = self.buffered.saturating_sub(e.size as u64);
        }
    }

    /// Applies a `Wanted` verdict: the chunk must ship after all.
    fn resolve_wanted(&mut self, e: ChunkEntry) {
        self.stats.wanted_chunks += 1;
        self.verdicts.insert(e.id, Verdict::Wanted);
        if let Some(held) = self.offer_hold.remove(&e.id) {
            self.queued_puts.push_back(held);
        }
    }

    fn seal_temps(&mut self, all: bool) {
        if let WriteProtocol::Incremental { temp_size } = self.cfg.protocol {
            let complete = self.stage_tail / temp_size.max(1);
            let target = if all {
                // Seal the partial temp too (close).
                if self.stage_tail.is_multiple_of(temp_size.max(1)) {
                    complete
                } else {
                    complete + 1
                }
            } else {
                complete
            };
            self.sealed_temps = self.sealed_temps.max(target);
        } else if all {
            self.sealed_temps = 1;
        }
    }

    /// Central scheduler: issues queued transfers, stage fetches, extension
    /// requests, close transitions and the final commit.
    fn pump(&mut self, now: Time, out: &mut ActionQueue) {
        if matches!(self.state, SessionState::Done | SessionState::Failed(_)) {
            return;
        }
        // Reservation exhaustion → extend.
        if self.needs_reservation() && self.extend_pending.is_none() {
            let req = self.reqs.next();
            self.extend_pending = Some(req);
            let additional = (self.queued_puts.len() as u64 + self.staged.len() as u64).max(8);
            out.send(
                MANAGER_NODE,
                Msg::ExtendReservation {
                    req,
                    reservation: self.grant.reservation,
                    additional_chunks: additional as u32,
                },
            );
        }
        // Direct queue (SW).
        while !self.queued_puts.is_empty()
            && self.pending_puts.len() < self.cfg.max_inflight_puts
            && self.reservation_available()
        {
            let chunk = self.queued_puts.pop_front().expect("non-empty");
            self.issue_put(chunk.entry.id, chunk.entry.size, chunk.payload, false, out);
        }
        // Staged pushes (CLW/IW).
        if self.push_open {
            while let Some(front) = self.staged.front() {
                if front.deduped {
                    let c = self.staged.pop_front().expect("non-empty");
                    let _ = c;
                    continue;
                }
                match self.verdicts.get(&front.entry.id) {
                    // The offer is outstanding: hold the push until the
                    // manager says whether the pool already has it.
                    Some(Verdict::Pending) => break,
                    Some(Verdict::Reused) => {
                        self.staged.pop_front();
                        continue;
                    }
                    _ => {}
                }
                let pushable = match self.cfg.protocol {
                    WriteProtocol::Incremental { .. } => front.temp < self.sealed_temps,
                    WriteProtocol::CompleteLocal => self.state == SessionState::Closing,
                    WriteProtocol::SlidingWindow { .. } => false,
                };
                if !pushable
                    || self.pending_puts.len() + self.pending_fetches.len()
                        >= self.cfg.max_inflight_puts
                    || !self.reservation_available()
                {
                    break;
                }
                let c = self.staged.pop_front().expect("non-empty");
                let op = self.op();
                out.push(Action::StageFetch {
                    op,
                    offset: c.offset,
                    len: c.entry.size,
                });
                self.pending_fetches.insert(op, c);
            }
        }
        self.check_close_progress(now, out);
    }

    fn needs_reservation(&self) -> bool {
        let demand = !self.queued_puts.is_empty()
            || self
                .staged
                .front()
                .map(|c| !c.deduped && self.push_open)
                .unwrap_or(false);
        demand && self.used_chunks >= self.reserved_chunks
    }

    fn reservation_available(&self) -> bool {
        self.used_chunks < self.reserved_chunks
    }

    fn issue_put(
        &mut self,
        chunk: ChunkId,
        size: u32,
        payload: Payload,
        background: bool,
        out: &mut ActionQueue,
    ) {
        let mut target = self.stripe[self.rr % self.stripe.len()];
        self.rr += 1;
        self.used_chunks += 1;
        let req = self.reqs.next();
        // Near miss with a usable basis: ship a delta when it beats the
        // full chunk on the wire. The same pass signs the chunk.
        let mut signed = None;
        let delta = if self.cfg.negotiate && !background {
            self.chunk_basis.get(&chunk).and_then(|basis| {
                let sig = self.basis_sigs.get(basis)?;
                let Payload::Real(bytes) = &payload else {
                    return None;
                };
                let (delta, sig) = delta_encode_signed(sig, bytes);
                signed = Some(sig);
                delta.map(|d| (*basis, Bytes::from(d)))
            })
        } else {
            None
        };
        if self.cfg.negotiate {
            // Shipped chunks become delta bases for the next version.
            if let Payload::Real(bytes) = &payload {
                self.out_sigs
                    .entry(chunk)
                    .or_insert_with(|| signed.unwrap_or_else(|| ChunkSignature::of(bytes)));
            }
        }
        // A delta can only be applied by a benefactor that stores the
        // basis; route it to one, or ship full if no stripe node does.
        let delta = delta.filter(|(basis, _)| {
            if let Some(home) = self.basis_home_in_stripe(*basis) {
                target = home;
                true
            } else {
                false
            }
        });
        let (as_delta, wire_cost, msg) = match delta {
            Some((basis, d)) => (
                true,
                d.len() as u64,
                Msg::DeltaPutChunk {
                    req,
                    chunk,
                    basis,
                    size,
                    delta: d,
                },
            ),
            None => (
                false,
                size as u64,
                Msg::PutChunk {
                    req,
                    chunk,
                    size,
                    data: payload.bytes(),
                    background,
                },
            ),
        };
        self.pending_puts.insert(
            req,
            PendingPut {
                chunk,
                size,
                payload,
                target,
                attempts: 0,
                sent: false,
                as_delta,
                wire_cost,
            },
        );
        out.send(target, msg);
    }

    // ------------------------------------------------------------ callbacks

    fn put_sent(&mut self, req: RequestId, now: Time, out: &mut ActionQueue) {
        if let Some(p) = self.pending_puts.get_mut(&req) {
            p.sent = true;
        }
        self.check_close_progress(now, out);
    }

    fn put_failed(&mut self, req: RequestId, now: Time, out: &mut ActionQueue) {
        let Some(mut p) = self.pending_puts.remove(&req) else {
            return;
        };
        p.attempts += 1;
        // Exclude the failed target from the stripe.
        self.stripe.retain(|n| *n != p.target);
        if p.attempts > self.cfg.put_retries || self.stripe.is_empty() {
            self.fail(ErrorCode::Unavailable, out);
            return;
        }
        let target = self.stripe[self.rr % self.stripe.len()];
        self.rr += 1;
        let new_req = self.reqs.next();
        out.send(
            target,
            Msg::PutChunk {
                req: new_req,
                chunk: p.chunk,
                size: p.size,
                data: p.payload.bytes(),
                background: false,
            },
        );
        self.pending_puts.insert(
            new_req,
            PendingPut {
                target,
                sent: false,
                // Retries always ship the full chunk: the replacement
                // target may not hold the delta basis.
                as_delta: false,
                wire_cost: p.size as u64,
                ..p
            },
        );
        self.pump(now, out);
    }

    /// The benefactor refused a delta (basis missing, or the
    /// reconstruction failed verification): resend the same chunk in full
    /// to the same target. The node itself is healthy, so it stays in the
    /// stripe and no retry is charged.
    fn delta_rejected(&mut self, req: RequestId, now: Time, out: &mut ActionQueue) {
        let Some(mut p) = self.pending_puts.remove(&req) else {
            return;
        };
        self.chunk_basis.remove(&p.chunk);
        let new_req = self.reqs.next();
        out.send(
            p.target,
            Msg::PutChunk {
                req: new_req,
                chunk: p.chunk,
                size: p.size,
                data: p.payload.bytes(),
                background: false,
            },
        );
        p.sent = false;
        p.as_delta = false;
        p.wire_cost = p.size as u64;
        self.pending_puts.insert(new_req, p);
        self.pump(now, out);
    }

    fn stage_append_done(&mut self, op: u64, now: Time, out: &mut ActionQueue) {
        if let Some(bytes) = self.stage_ops.remove(&op) {
            self.stage_inflight = self.stage_inflight.saturating_sub(bytes);
        }
        self.pump(now, out);
    }

    fn stage_fetched(&mut self, op: u64, payload: Payload, now: Time, out: &mut ActionQueue) {
        let Some(c) = self.pending_fetches.remove(&op) else {
            return;
        };
        self.issue_put(c.entry.id, c.entry.size, payload, false, out);
        // Track temp completion for IW discard/backpressure.
        if matches!(self.cfg.protocol, WriteProtocol::Incremental { .. }) {
            let min_unpushed_temp = self
                .staged
                .iter()
                .map(|s| s.temp)
                .chain(self.pending_fetches.values().map(|s| s.temp))
                .min()
                .unwrap_or(u64::MAX);
            let newly_pushed = min_unpushed_temp.min(self.sealed_temps);
            if newly_pushed > self.pushed_temps {
                self.pushed_temps = newly_pushed;
                if let WriteProtocol::Incremental { temp_size } = self.cfg.protocol {
                    out.push(Action::StageDiscard {
                        upto: self.pushed_temps * temp_size,
                    });
                }
            }
        }
        self.pump(now, out);
    }

    fn process_msg(&mut self, msg: Msg, now: Time, out: &mut ActionQueue) {
        match msg {
            Msg::PutChunkOk { req, chunk, node } => {
                if let Some(p) = self.pending_puts.remove(&req) {
                    debug_assert_eq!(p.chunk, chunk);
                    self.stats.bytes_stored += p.size as u64;
                    if p.as_delta {
                        self.stats.wire_delta_bytes += p.wire_cost;
                    } else {
                        self.stats.wire_full_bytes += p.wire_cost;
                    }
                    self.buffered = self.buffered.saturating_sub(p.size as u64);
                    self.placements.entry(chunk).or_default().push(node);
                    self.placements.get_mut(&chunk).expect("just added").dedup();
                }
                self.pump(now, out);
            }
            Msg::WantChunks { req, wanted } => {
                if let Some(batch) = self.pending_offers.remove(&req) {
                    let want: HashSet<u32> = wanted.into_iter().collect();
                    for (i, e) in batch.into_iter().enumerate() {
                        if want.contains(&(i as u32)) {
                            self.resolve_wanted(e);
                        } else {
                            self.resolve_reused(e);
                        }
                    }
                }
                self.pump(now, out);
            }
            Msg::ExtendOk { req, stripe } => {
                if self.extend_pending == Some(req) {
                    self.extend_pending = None;
                    self.reserved_chunks +=
                        (self.queued_puts.len() as u64 + self.staged.len() as u64).max(8);
                    if !stripe.is_empty() {
                        self.stripe = stripe;
                    }
                }
                self.pump(now, out);
            }
            Msg::CommitOk {
                req,
                suggested_interval,
                ..
            } if self.commit_req == Some(req) => {
                self.state = SessionState::Done;
                self.stats.done_at = Some(now);
                self.stats.suggested_interval = suggested_interval;
            }
            Msg::ErrorReply { req, code, .. } => {
                if self.commit_req == Some(req) || self.extend_pending == Some(req) {
                    self.fail(code, out);
                } else if let Some(batch) = self.pending_offers.remove(&req) {
                    // Negotiation refused (reservation expired, manager
                    // without dedup support): ship everything in full.
                    for e in batch {
                        self.resolve_wanted(e);
                    }
                    self.pump(now, out);
                } else if self.pending_puts.get(&req).is_some_and(|p| p.as_delta) {
                    self.delta_rejected(req, now, out);
                } else if self.pending_puts.contains_key(&req) {
                    self.put_failed(req, now, out);
                }
            }
            _ => {}
        }
    }

    fn fail(&mut self, code: ErrorCode, out: &mut ActionQueue) {
        self.state = SessionState::Failed(code);
        let req = self.reqs.next();
        out.send(
            MANAGER_NODE,
            Msg::AbortWrite {
                req,
                reservation: self.grant.reservation,
            },
        );
    }

    // ------------------------------------------------------------ close path

    fn check_close_progress(&mut self, now: Time, out: &mut ActionQueue) {
        if self.state != SessionState::Closing {
            return;
        }
        // OAB endpoint: the application's close() unblocks.
        if self.stats.app_close_at.is_none() {
            let handed_off = match self.cfg.protocol {
                WriteProtocol::SlidingWindow { .. } => {
                    self.queued_puts.is_empty()
                        && self.offer_hold.is_empty()
                        && self.offer_pending.is_empty()
                        && self.pending_offers.is_empty()
                        && self.pending_puts.values().all(|p| p.sent)
                }
                WriteProtocol::CompleteLocal | WriteProtocol::Incremental { .. } => {
                    self.stage_inflight == 0 && self.stage_ops.is_empty()
                }
            };
            if handed_off {
                self.stats.app_close_at = Some(now);
            }
        }
        // Commit once every chunk is durably stored once and every
        // negotiation verdict is in.
        let all_stored = self.queued_puts.is_empty()
            && self.pending_puts.is_empty()
            && self.pending_fetches.is_empty()
            && self.offer_pending.is_empty()
            && self.pending_offers.is_empty()
            && self.offer_hold.is_empty()
            && self
                .staged
                .iter()
                .all(|c| c.deduped || self.verdicts.get(&c.entry.id) == Some(&Verdict::Reused));
        if all_stored && self.commit_req.is_none() {
            self.staged.clear();
            let entries = self.entries.clone();
            let placements: Vec<(ChunkId, Vec<NodeId>)> = {
                let mut v: Vec<_> = self
                    .placements
                    .iter()
                    .map(|(c, l)| (*c, l.clone()))
                    .collect();
                v.sort_by_key(|a| a.0);
                v
            };
            let req = self.reqs.next();
            self.commit_req = Some(req);
            out.send(
                MANAGER_NODE,
                Msg::CommitChunkMap {
                    req,
                    reservation: self.grant.reservation,
                    entries,
                    placements,
                    pessimistic: self.cfg.pessimistic,
                    dedup: self.dedup_summary(),
                },
            );
        }
    }

    /// The commit-time accounting of how this version's bytes travelled.
    pub fn dedup_summary(&self) -> DedupSummary {
        DedupSummary {
            offered: self.stats.offered_chunks as u32,
            wanted: self.stats.wanted_chunks as u32,
            reused_bytes: self.stats.wire_reused_bytes,
            delta_bytes: self.stats.wire_delta_bytes,
            full_bytes: self.stats.wire_full_bytes,
        }
    }
}

impl Node for WriteSession {
    fn handle(&mut self, _from: NodeId, msg: Msg, now: Time) {
        let mut out = std::mem::take(&mut self.actions);
        self.process_msg(msg, now, &mut out);
        self.actions = out;
    }

    fn handle_completion(&mut self, completion: Completion, now: Time) {
        let mut out = std::mem::take(&mut self.actions);
        match completion {
            Completion::SendDone { req } => self.put_sent(req, now, &mut out),
            Completion::SendFailed { req } => self.put_failed(req, now, &mut out),
            Completion::StageAppended { op } => self.stage_append_done(op, now, &mut out),
            Completion::StageFetched { op, payload } => {
                self.stage_fetched(op, payload, now, &mut out)
            }
            other => debug_assert!(false, "unexpected completion {other:?}"),
        }
        self.actions = out;
    }

    fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop()
    }
}
