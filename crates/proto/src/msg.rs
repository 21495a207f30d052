//! The stdchk protocol messages.
//!
//! One [`Msg`] enum carries every message so that a single framed stream can
//! transport any conversation. The four conversations are:
//!
//! - **client ↔ manager** — namespace and metadata: create/commit a version
//!   (session semantics: the commit is the atomic visibility point), extend
//!   eager reservations, read chunk-maps, directory listing, deletion,
//!   retention policies;
//! - **client ↔ benefactor** — the data path: `PutChunk`/`GetChunk`;
//! - **benefactor ↔ manager** — soft-state registration (heartbeats carrying
//!   free space), pull-based garbage collection, and replication commands
//!   and reports;
//! - **benefactor ↔ benefactor** — replication copies reuse `PutChunk` with
//!   `background = true` so they can be de-prioritized below client writes.

use bytes::Bytes;

use crate::chunkmap::{ChunkEntry, ChunkMap, FileVersionView};
use crate::codec::{Reader, Wire, Writer};
use crate::error::{ErrorCode, ProtoError};
use crate::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use crate::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

/// File metadata returned by `GetAttr`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// Size in bytes of the latest committed version.
    pub size: u64,
    /// Number of committed versions currently retained.
    pub versions: u32,
    /// Id of the latest committed version.
    pub latest: VersionId,
    /// Commit time of the latest version.
    pub mtime: Time,
    /// True for directories.
    pub is_dir: bool,
}

/// One row of a directory listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (not a full path).
    pub name: String,
    /// Attributes of the entry.
    pub attr: FileAttr,
}

/// One replication copy order inside a `ReplicateCmd`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaCopy {
    /// The chunk to copy (the source benefactor already stores it).
    pub chunk: ChunkId,
    /// The benefactor that should receive the copy.
    pub target: NodeId,
}

/// Summary of one committed version, for `ListVersions`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionInfo {
    /// Version id.
    pub version: VersionId,
    /// File size of that version.
    pub size: u64,
    /// Commit time.
    pub mtime: Time,
}

/// Per-commit dedup accounting carried by `CommitChunkMap` and surfaced in
/// the manager's commit log line: how the version's chunks travelled
/// (negotiated away entirely, shipped as deltas, or shipped in full).
/// `offered`/`wanted` stay zero when the session did not negotiate; the
/// byte counters are filled either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupSummary {
    /// Distinct chunks offered to the manager via `OfferChunks`.
    pub offered: u32,
    /// Chunks the manager asked for (the rest committed by reference).
    pub wanted: u32,
    /// Bytes never sent because the pool already stored the chunk.
    pub reused_bytes: u64,
    /// Bytes sent as delta encodings (`DeltaPutChunk` payloads).
    pub delta_bytes: u64,
    /// Bytes sent as full `PutChunk` payloads.
    pub full_bytes: u64,
}

/// Role announced by the `Hello` handshake on a fresh connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A client proxy (application side).
    Client,
    /// A storage donor.
    Benefactor,
    /// The metadata manager (used by manager-initiated connections).
    Manager,
}

/// Every message in the stdchk protocol.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Msg {
    // ------------------------------------------------------ generic
    /// Connection handshake: announces the sender's role and id.
    Hello {
        /// Sender role.
        role: Role,
        /// Sender node id (0 if not yet assigned).
        node: NodeId,
    },
    /// Positive reply for requests with no payload.
    Ack {
        /// Correlates with the request.
        req: RequestId,
    },
    /// Transport-level liveness probe. Handled (and answered with
    /// [`Msg::Pong`]) by the connection layer itself; state machines never
    /// see it.
    Ping {
        /// Echoed back in the matching `Pong`.
        nonce: u64,
    },
    /// Reply to [`Msg::Ping`]. Swallowed by the connection layer.
    Pong {
        /// The probed nonce.
        nonce: u64,
    },
    /// Negative reply for any request.
    ErrorReply {
        /// Correlates with the request.
        req: RequestId,
        /// Status code.
        code: ErrorCode,
        /// Human-readable context.
        detail: String,
    },

    // ------------------------------------------------------ client -> manager
    /// Opens a new version of `path` for writing and eagerly reserves space.
    CreateFile {
        /// Request id.
        req: RequestId,
        /// Writing client.
        client: NodeId,
        /// Absolute stdchk path (e.g. `/app/bms.n4.t12`).
        path: String,
        /// How many benefactors to stripe across.
        stripe_width: u32,
        /// Desired replica count (1 = no replication).
        replication: u32,
        /// Initial eager reservation, in chunks.
        expected_chunks: u32,
    },
    /// Grants a write session.
    CreateFileOk {
        /// Request id.
        req: RequestId,
        /// File id (created on first version).
        file: FileId,
        /// The uncommitted version this session will produce.
        version: VersionId,
        /// Reservation handle for extensions/commit/abort.
        reservation: ReservationId,
        /// Benefactors to stripe across, in round-robin order.
        stripe: Vec<NodeId>,
        /// Chunk entries of the previous committed version, for
        /// incremental-checkpointing dedup (empty for first version).
        prev_chunks: Vec<ChunkEntry>,
        /// Chunk size the pool is configured for.
        chunk_size: u32,
    },
    /// Requests more reserved space (and possibly fresh stripe targets).
    ExtendReservation {
        /// Request id.
        req: RequestId,
        /// The reservation being grown.
        reservation: ReservationId,
        /// Additional chunks needed.
        additional_chunks: u32,
    },
    /// Grants an extension.
    ExtendOk {
        /// Request id.
        req: RequestId,
        /// Current stripe (may differ if benefactors failed).
        stripe: Vec<NodeId>,
    },
    /// Atomically commits the version's chunk-map (the `close()` step).
    CommitChunkMap {
        /// Request id.
        req: RequestId,
        /// The write session's reservation.
        reservation: ReservationId,
        /// Chunk-map in file order.
        entries: Vec<ChunkEntry>,
        /// Where each distinct chunk was stored (primary copies).
        placements: Vec<(ChunkId, Vec<NodeId>)>,
        /// If true the commit succeeds only once the replication target is
        /// met (pessimistic write semantics).
        pessimistic: bool,
        /// How this version's bytes travelled (all-zero without negotiation).
        dedup: DedupSummary,
    },
    /// Successful commit.
    CommitOk {
        /// Request id.
        req: RequestId,
        /// Committed file.
        file: FileId,
        /// Committed version.
        version: VersionId,
        /// Manager-suggested checkpoint interval derived from observed
        /// fleet churn ([`Dur::ZERO`] when the manager has no guidance).
        suggested_interval: Dur,
    },
    /// Abandons a write session, releasing its reservation.
    AbortWrite {
        /// Request id.
        req: RequestId,
        /// The session's reservation.
        reservation: ReservationId,
    },
    /// Fetches the chunk-map and replica locations of a version.
    GetFile {
        /// Request id.
        req: RequestId,
        /// Path to read.
        path: String,
        /// Specific version, or `None` for latest committed.
        version: Option<VersionId>,
    },
    /// Read view of one version.
    FileViewReply {
        /// Request id.
        req: RequestId,
        /// Chunk-map plus locations.
        view: FileVersionView,
    },
    /// Lists a directory.
    ListDir {
        /// Request id.
        req: RequestId,
        /// Directory path.
        path: String,
    },
    /// Directory contents.
    DirListingReply {
        /// Request id.
        req: RequestId,
        /// Entries in name order.
        entries: Vec<DirEntry>,
    },
    /// Stats a path.
    GetAttr {
        /// Request id.
        req: RequestId,
        /// Path to stat.
        path: String,
    },
    /// Attribute reply.
    AttrReply {
        /// Request id.
        req: RequestId,
        /// Attributes.
        attr: FileAttr,
    },
    /// Lists committed versions of a file.
    ListVersions {
        /// Request id.
        req: RequestId,
        /// File path.
        path: String,
    },
    /// Version list reply.
    VersionListReply {
        /// Request id.
        req: RequestId,
        /// Versions, oldest first.
        versions: Vec<VersionInfo>,
    },
    /// Deletes a file (all versions). Benefactor space is reclaimed lazily
    /// through garbage collection.
    DeleteFile {
        /// Request id.
        req: RequestId,
        /// Path to delete.
        path: String,
    },
    /// Sets the retention policy of a directory.
    SetPolicy {
        /// Request id.
        req: RequestId,
        /// Directory the policy applies to.
        dir: String,
        /// The policy.
        policy: RetentionPolicy,
    },
    /// Resolves node ids to dial addresses (real-network deployments).
    ResolveNodes {
        /// Request id.
        req: RequestId,
        /// Nodes to resolve.
        nodes: Vec<NodeId>,
    },
    /// Address resolution reply. Unknown nodes are omitted.
    NodeAddrsReply {
        /// Request id.
        req: RequestId,
        /// `(node, address)` pairs.
        addrs: Vec<(NodeId, String)>,
    },
    /// Have/want negotiation, step 1: the writing session offers the chunk
    /// ids it is about to ship so the manager can answer which ones the pool
    /// already stores (incremental-checkpoint dedup across versions and
    /// files).
    OfferChunks {
        /// Request id.
        req: RequestId,
        /// The write session's reservation (scopes the offer and pins the
        /// already-stored chunks against GC until commit/abort/expiry).
        reservation: ReservationId,
        /// Offered chunks, in the session's ship order.
        entries: Vec<ChunkEntry>,
    },
    /// Have/want negotiation, step 2: which offered chunks must actually
    /// transfer. The rest commit by reference.
    WantChunks {
        /// Request id (matches the `OfferChunks`).
        req: RequestId,
        /// Indices into the offer's `entries` that must be shipped.
        wanted: Vec<u32>,
    },

    // ------------------------------------------------------ benefactor <-> manager
    /// Asks the manager for a node id (first contact of a new benefactor).
    JoinRequest {
        /// Request id.
        req: RequestId,
        /// Dial address for the data path (empty under the simulator).
        addr: String,
        /// Total contributed bytes.
        total_space: u64,
    },
    /// Node id grant.
    JoinOk {
        /// Request id.
        req: RequestId,
        /// Assigned id.
        node: NodeId,
        /// How often to heartbeat.
        heartbeat_every: Dur,
    },
    /// Soft-state registration refresh (also carries free space and the
    /// dial address, so a restarted manager re-learns the full roster).
    Heartbeat {
        /// Sender.
        node: NodeId,
        /// Free contributed bytes.
        free_space: u64,
        /// Total contributed bytes.
        total_space: u64,
        /// Data-path dial address (empty under the simulator).
        addr: String,
    },
    /// Heartbeat acknowledgement.
    HeartbeatAck {
        /// Acknowledged node.
        node: NodeId,
        /// True if the manager wants a `GcReport` soon.
        gc_due: bool,
    },
    /// Pull-based GC: the full inventory of chunks this benefactor stores.
    GcReport {
        /// Request id.
        req: RequestId,
        /// Sender.
        node: NodeId,
        /// Every stored chunk id.
        chunks: Vec<ChunkId>,
    },
    /// GC verdict: which reported chunks are orphans and can be deleted.
    GcReply {
        /// Request id.
        req: RequestId,
        /// Deletable chunk ids.
        deletable: Vec<ChunkId>,
    },
    /// Orders a source benefactor to copy chunks to targets (shadow
    /// chunk-map execution).
    ReplicateCmd {
        /// Replication job id.
        job: u64,
        /// Copy orders.
        copies: Vec<ReplicaCopy>,
    },
    /// Reports a replication job's outcome back to the manager.
    ReplicateReport {
        /// Replication job id.
        job: u64,
        /// Reporting (source) benefactor.
        node: NodeId,
        /// Successful copies.
        done: Vec<ReplicaCopy>,
        /// Failed copies.
        failed: Vec<ReplicaCopy>,
    },
    /// Orders a benefactor to drop chunks (pruning fast-path; GC remains the
    /// backstop).
    DeleteChunks {
        /// Chunks to drop.
        chunks: Vec<ChunkId>,
    },

    // ------------------------------------------------------ data path
    /// Stores one chunk on a benefactor.
    PutChunk {
        /// Request id.
        req: RequestId,
        /// Content hash of `data` (verified by the receiver).
        chunk: ChunkId,
        /// Logical chunk size in bytes. Equals `data.len()` for real
        /// payloads; carries the size alone when the payload is virtual
        /// (simulation mode ships no bytes).
        size: u32,
        /// Chunk payload (may be empty in virtual/simulation mode).
        data: Bytes,
        /// True for background replication traffic (lower priority).
        background: bool,
    },
    /// Chunk stored (and hash-verified).
    PutChunkOk {
        /// Request id.
        req: RequestId,
        /// Stored chunk.
        chunk: ChunkId,
        /// Storing benefactor.
        node: NodeId,
    },
    /// Fetches one chunk from a benefactor.
    GetChunk {
        /// Request id.
        req: RequestId,
        /// Requested chunk.
        chunk: ChunkId,
    },
    /// Chunk payload reply.
    GetChunkOk {
        /// Request id.
        req: RequestId,
        /// The chunk id.
        chunk: ChunkId,
        /// Logical chunk size in bytes (see `PutChunk::size`).
        size: u32,
        /// Chunk payload (may be empty in virtual/simulation mode).
        data: Bytes,
    },
    /// Stores one chunk as a delta against a chunk the benefactor already
    /// holds. The benefactor loads `basis`, applies `delta`, verifies the
    /// reconstruction hashes to `chunk`, and stores the full bytes — the
    /// store and the read path never see deltas. `NotFound` tells the client
    /// to fall back to a full [`Msg::PutChunk`].
    DeltaPutChunk {
        /// Request id.
        req: RequestId,
        /// Content hash of the *reconstructed* chunk.
        chunk: ChunkId,
        /// The already-stored chunk the delta is encoded against.
        basis: ChunkId,
        /// Size in bytes of the reconstructed chunk.
        size: u32,
        /// Delta ops stream (see `stdchk_chunker::delta`).
        delta: Bytes,
    },
}

impl Msg {
    /// The request id this message correlates with, if any.
    pub fn request_id(&self) -> Option<RequestId> {
        use Msg::*;
        match self {
            Ack { req }
            | ErrorReply { req, .. }
            | CreateFile { req, .. }
            | CreateFileOk { req, .. }
            | ExtendReservation { req, .. }
            | ExtendOk { req, .. }
            | CommitChunkMap { req, .. }
            | CommitOk { req, .. }
            | AbortWrite { req, .. }
            | GetFile { req, .. }
            | FileViewReply { req, .. }
            | ListDir { req, .. }
            | DirListingReply { req, .. }
            | GetAttr { req, .. }
            | AttrReply { req, .. }
            | ListVersions { req, .. }
            | VersionListReply { req, .. }
            | DeleteFile { req, .. }
            | SetPolicy { req, .. }
            | ResolveNodes { req, .. }
            | NodeAddrsReply { req, .. }
            | OfferChunks { req, .. }
            | WantChunks { req, .. }
            | DeltaPutChunk { req, .. }
            | JoinRequest { req, .. }
            | JoinOk { req, .. }
            | GcReport { req, .. }
            | GcReply { req, .. }
            | PutChunk { req, .. }
            | PutChunkOk { req, .. }
            | GetChunk { req, .. }
            | GetChunkOk { req, .. } => Some(*req),
            Hello { .. }
            | Ping { .. }
            | Pong { .. }
            | Heartbeat { .. }
            | HeartbeatAck { .. }
            | ReplicateCmd { .. }
            | ReplicateReport { .. }
            | DeleteChunks { .. } => None,
        }
    }

    /// Decodes one message out of a complete frame body, slicing byte
    /// payloads (`PutChunk::data`, `GetChunkOk::data`) out of `frame`
    /// without copying. The incremental [`FrameDecoder`] uses this so a
    /// chunk payload travels from the socket receive buffer to the blob
    /// store as one shared allocation.
    ///
    /// [`FrameDecoder`]: crate::frame::FrameDecoder
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on truncated, trailing, or malformed bytes.
    pub fn from_frame(frame: &Bytes) -> Result<Msg, ProtoError> {
        let mut r = Reader::shared(frame);
        let msg = Msg::decode(&mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// Approximate wire size in bytes, used by the simulator to cost
    /// transfers without serializing.
    pub fn wire_size(&self) -> u64 {
        match self {
            Msg::PutChunk { size, .. } => 64 + *size as u64,
            Msg::GetChunkOk { size, .. } => 64 + *size as u64,
            Msg::DeltaPutChunk { delta, .. } => 112 + delta.len() as u64,
            Msg::OfferChunks { entries, .. } => 32 + entries.len() as u64 * 36,
            Msg::WantChunks { wanted, .. } => 24 + wanted.len() as u64 * 4,
            Msg::CommitChunkMap {
                entries,
                placements,
                ..
            } => 64 + entries.len() as u64 * 36 + placements.len() as u64 * 48,
            Msg::CreateFileOk { prev_chunks, .. } => 96 + prev_chunks.len() as u64 * 36,
            Msg::GcReport { chunks, .. }
            | Msg::GcReply {
                deletable: chunks, ..
            } => 32 + chunks.len() as u64 * 32,
            _ => 128,
        }
    }
}

// ---------------------------------------------------------------- Wire impls

impl Wire for Role {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Role::Client => 0,
            Role::Benefactor => 1,
            Role::Manager => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(match r.get_u8()? {
            0 => Role::Client,
            1 => Role::Benefactor,
            2 => Role::Manager,
            v => return Err(ProtoError::bad(format!("unknown role {v}"))),
        })
    }
}

impl Wire for ErrorCode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.to_wire());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        ErrorCode::from_wire(r.get_u8()?)
    }
}

impl Wire for ChunkEntry {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_u32(self.size);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(ChunkEntry {
            id: ChunkId::decode(r)?,
            size: r.get_u32()?,
        })
    }
}

impl Wire for ChunkMap {
    fn encode(&self, w: &mut Writer) {
        self.entries().to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(ChunkMap::from_entries(Vec::<ChunkEntry>::decode(r)?))
    }
}

impl Wire for FileVersionView {
    fn encode(&self, w: &mut Writer) {
        self.version.encode(w);
        self.map.encode(w);
        self.locations.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(FileVersionView {
            version: VersionId::decode(r)?,
            map: ChunkMap::decode(r)?,
            locations: Vec::<(ChunkId, Vec<NodeId>)>::decode(r)?,
        })
    }
}

impl Wire for RetentionPolicy {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.wire_tag());
        match self {
            RetentionPolicy::NoIntervention => {}
            RetentionPolicy::AutomatedReplace { keep_last } => w.put_u32(*keep_last),
            RetentionPolicy::AutomatedPurge { after } => after.encode(w),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(match r.get_u8()? {
            0 => RetentionPolicy::NoIntervention,
            1 => RetentionPolicy::AutomatedReplace {
                keep_last: r.get_u32()?,
            },
            2 => RetentionPolicy::AutomatedPurge {
                after: Dur::decode(r)?,
            },
            v => return Err(ProtoError::bad(format!("unknown policy tag {v}"))),
        })
    }
}

impl Wire for FileAttr {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.size);
        w.put_u32(self.versions);
        self.latest.encode(w);
        self.mtime.encode(w);
        self.is_dir.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(FileAttr {
            size: r.get_u64()?,
            versions: r.get_u32()?,
            latest: VersionId::decode(r)?,
            mtime: Time::decode(r)?,
            is_dir: bool::decode(r)?,
        })
    }
}

impl Wire for DirEntry {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.attr.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(DirEntry {
            name: String::decode(r)?,
            attr: FileAttr::decode(r)?,
        })
    }
}

impl Wire for ReplicaCopy {
    fn encode(&self, w: &mut Writer) {
        self.chunk.encode(w);
        self.target.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(ReplicaCopy {
            chunk: ChunkId::decode(r)?,
            target: NodeId::decode(r)?,
        })
    }
}

impl Wire for DedupSummary {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.offered);
        w.put_u32(self.wanted);
        w.put_u64(self.reused_bytes);
        w.put_u64(self.delta_bytes);
        w.put_u64(self.full_bytes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(DedupSummary {
            offered: r.get_u32()?,
            wanted: r.get_u32()?,
            reused_bytes: r.get_u64()?,
            delta_bytes: r.get_u64()?,
            full_bytes: r.get_u64()?,
        })
    }
}

impl Wire for VersionInfo {
    fn encode(&self, w: &mut Writer) {
        self.version.encode(w);
        w.put_u64(self.size);
        self.mtime.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(VersionInfo {
            version: VersionId::decode(r)?,
            size: r.get_u64()?,
            mtime: Time::decode(r)?,
        })
    }
}

macro_rules! msg_tags {
    ($($tag:literal => $variant:ident),* $(,)?) => {
        impl Msg {
            /// Stable wire tag of this message.
            pub fn wire_tag(&self) -> u8 {
                match self {
                    $(Msg::$variant { .. } => $tag,)*
                }
            }
        }
    };
}

msg_tags! {
    0 => Hello,
    1 => Ack,
    2 => ErrorReply,
    3 => Ping,
    4 => Pong,
    10 => CreateFile,
    11 => CreateFileOk,
    12 => ExtendReservation,
    13 => ExtendOk,
    14 => CommitChunkMap,
    15 => CommitOk,
    16 => AbortWrite,
    17 => GetFile,
    18 => FileViewReply,
    19 => ListDir,
    20 => DirListingReply,
    21 => GetAttr,
    22 => AttrReply,
    23 => ListVersions,
    24 => VersionListReply,
    25 => DeleteFile,
    26 => SetPolicy,
    27 => ResolveNodes,
    28 => NodeAddrsReply,
    29 => OfferChunks,
    30 => WantChunks,
    40 => JoinRequest,
    41 => JoinOk,
    42 => Heartbeat,
    43 => HeartbeatAck,
    44 => GcReport,
    45 => GcReply,
    46 => ReplicateCmd,
    47 => ReplicateReport,
    48 => DeleteChunks,
    60 => PutChunk,
    61 => PutChunkOk,
    62 => GetChunk,
    63 => GetChunkOk,
    64 => DeltaPutChunk,
}

impl Wire for Msg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.wire_tag());
        match self {
            Msg::Hello { role, node } => {
                role.encode(w);
                node.encode(w);
            }
            Msg::Ack { req } => req.encode(w),
            Msg::Ping { nonce } | Msg::Pong { nonce } => w.put_u64(*nonce),
            Msg::ErrorReply { req, code, detail } => {
                req.encode(w);
                code.encode(w);
                detail.encode(w);
            }
            Msg::CreateFile {
                req,
                client,
                path,
                stripe_width,
                replication,
                expected_chunks,
            } => {
                req.encode(w);
                client.encode(w);
                path.encode(w);
                w.put_u32(*stripe_width);
                w.put_u32(*replication);
                w.put_u32(*expected_chunks);
            }
            Msg::CreateFileOk {
                req,
                file,
                version,
                reservation,
                stripe,
                prev_chunks,
                chunk_size,
            } => {
                req.encode(w);
                file.encode(w);
                version.encode(w);
                reservation.encode(w);
                stripe.encode(w);
                prev_chunks.encode(w);
                w.put_u32(*chunk_size);
            }
            Msg::ExtendReservation {
                req,
                reservation,
                additional_chunks,
            } => {
                req.encode(w);
                reservation.encode(w);
                w.put_u32(*additional_chunks);
            }
            Msg::ExtendOk { req, stripe } => {
                req.encode(w);
                stripe.encode(w);
            }
            Msg::CommitChunkMap {
                req,
                reservation,
                entries,
                placements,
                pessimistic,
                dedup,
            } => {
                req.encode(w);
                reservation.encode(w);
                entries.encode(w);
                placements.encode(w);
                pessimistic.encode(w);
                dedup.encode(w);
            }
            Msg::CommitOk {
                req,
                file,
                version,
                suggested_interval,
            } => {
                req.encode(w);
                file.encode(w);
                version.encode(w);
                suggested_interval.encode(w);
            }
            Msg::AbortWrite { req, reservation } => {
                req.encode(w);
                reservation.encode(w);
            }
            Msg::GetFile { req, path, version } => {
                req.encode(w);
                path.encode(w);
                version.encode(w);
            }
            Msg::FileViewReply { req, view } => {
                req.encode(w);
                view.encode(w);
            }
            Msg::ListDir { req, path } => {
                req.encode(w);
                path.encode(w);
            }
            Msg::DirListingReply { req, entries } => {
                req.encode(w);
                entries.encode(w);
            }
            Msg::GetAttr { req, path } => {
                req.encode(w);
                path.encode(w);
            }
            Msg::AttrReply { req, attr } => {
                req.encode(w);
                attr.encode(w);
            }
            Msg::ListVersions { req, path } => {
                req.encode(w);
                path.encode(w);
            }
            Msg::VersionListReply { req, versions } => {
                req.encode(w);
                versions.encode(w);
            }
            Msg::DeleteFile { req, path } => {
                req.encode(w);
                path.encode(w);
            }
            Msg::SetPolicy { req, dir, policy } => {
                req.encode(w);
                dir.encode(w);
                policy.encode(w);
            }
            Msg::ResolveNodes { req, nodes } => {
                req.encode(w);
                nodes.encode(w);
            }
            Msg::NodeAddrsReply { req, addrs } => {
                req.encode(w);
                addrs.encode(w);
            }
            Msg::OfferChunks {
                req,
                reservation,
                entries,
            } => {
                req.encode(w);
                reservation.encode(w);
                entries.encode(w);
            }
            Msg::WantChunks { req, wanted } => {
                req.encode(w);
                wanted.encode(w);
            }
            Msg::JoinRequest {
                req,
                addr,
                total_space,
            } => {
                req.encode(w);
                addr.encode(w);
                w.put_u64(*total_space);
            }
            Msg::JoinOk {
                req,
                node,
                heartbeat_every,
            } => {
                req.encode(w);
                node.encode(w);
                heartbeat_every.encode(w);
            }
            Msg::Heartbeat {
                node,
                free_space,
                total_space,
                addr,
            } => {
                node.encode(w);
                w.put_u64(*free_space);
                w.put_u64(*total_space);
                addr.encode(w);
            }
            Msg::HeartbeatAck { node, gc_due } => {
                node.encode(w);
                gc_due.encode(w);
            }
            Msg::GcReport { req, node, chunks } => {
                req.encode(w);
                node.encode(w);
                chunks.encode(w);
            }
            Msg::GcReply { req, deletable } => {
                req.encode(w);
                deletable.encode(w);
            }
            Msg::ReplicateCmd { job, copies } => {
                w.put_u64(*job);
                copies.encode(w);
            }
            Msg::ReplicateReport {
                job,
                node,
                done,
                failed,
            } => {
                w.put_u64(*job);
                node.encode(w);
                done.encode(w);
                failed.encode(w);
            }
            Msg::DeleteChunks { chunks } => chunks.encode(w),
            Msg::PutChunk {
                req,
                chunk,
                size,
                data,
                background,
            } => {
                req.encode(w);
                chunk.encode(w);
                w.put_u32(*size);
                data.encode(w);
                background.encode(w);
            }
            Msg::PutChunkOk { req, chunk, node } => {
                req.encode(w);
                chunk.encode(w);
                node.encode(w);
            }
            Msg::GetChunk { req, chunk } => {
                req.encode(w);
                chunk.encode(w);
            }
            Msg::GetChunkOk {
                req,
                chunk,
                size,
                data,
            } => {
                req.encode(w);
                chunk.encode(w);
                w.put_u32(*size);
                data.encode(w);
            }
            Msg::DeltaPutChunk {
                req,
                chunk,
                basis,
                size,
                delta,
            } => {
                req.encode(w);
                chunk.encode(w);
                basis.encode(w);
                w.put_u32(*size);
                delta.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let tag = r.get_u8()?;
        Ok(match tag {
            0 => Msg::Hello {
                role: Role::decode(r)?,
                node: NodeId::decode(r)?,
            },
            1 => Msg::Ack {
                req: RequestId::decode(r)?,
            },
            3 => Msg::Ping {
                nonce: r.get_u64()?,
            },
            4 => Msg::Pong {
                nonce: r.get_u64()?,
            },
            2 => Msg::ErrorReply {
                req: RequestId::decode(r)?,
                code: ErrorCode::decode(r)?,
                detail: String::decode(r)?,
            },
            10 => Msg::CreateFile {
                req: RequestId::decode(r)?,
                client: NodeId::decode(r)?,
                path: String::decode(r)?,
                stripe_width: r.get_u32()?,
                replication: r.get_u32()?,
                expected_chunks: r.get_u32()?,
            },
            11 => Msg::CreateFileOk {
                req: RequestId::decode(r)?,
                file: FileId::decode(r)?,
                version: VersionId::decode(r)?,
                reservation: ReservationId::decode(r)?,
                stripe: Vec::decode(r)?,
                prev_chunks: Vec::decode(r)?,
                chunk_size: r.get_u32()?,
            },
            12 => Msg::ExtendReservation {
                req: RequestId::decode(r)?,
                reservation: ReservationId::decode(r)?,
                additional_chunks: r.get_u32()?,
            },
            13 => Msg::ExtendOk {
                req: RequestId::decode(r)?,
                stripe: Vec::decode(r)?,
            },
            14 => Msg::CommitChunkMap {
                req: RequestId::decode(r)?,
                reservation: ReservationId::decode(r)?,
                entries: Vec::decode(r)?,
                placements: Vec::decode(r)?,
                pessimistic: bool::decode(r)?,
                dedup: DedupSummary::decode(r)?,
            },
            15 => Msg::CommitOk {
                req: RequestId::decode(r)?,
                file: FileId::decode(r)?,
                version: VersionId::decode(r)?,
                suggested_interval: Dur::decode(r)?,
            },
            16 => Msg::AbortWrite {
                req: RequestId::decode(r)?,
                reservation: ReservationId::decode(r)?,
            },
            17 => Msg::GetFile {
                req: RequestId::decode(r)?,
                path: String::decode(r)?,
                version: Option::decode(r)?,
            },
            18 => Msg::FileViewReply {
                req: RequestId::decode(r)?,
                view: FileVersionView::decode(r)?,
            },
            19 => Msg::ListDir {
                req: RequestId::decode(r)?,
                path: String::decode(r)?,
            },
            20 => Msg::DirListingReply {
                req: RequestId::decode(r)?,
                entries: Vec::decode(r)?,
            },
            21 => Msg::GetAttr {
                req: RequestId::decode(r)?,
                path: String::decode(r)?,
            },
            22 => Msg::AttrReply {
                req: RequestId::decode(r)?,
                attr: FileAttr::decode(r)?,
            },
            23 => Msg::ListVersions {
                req: RequestId::decode(r)?,
                path: String::decode(r)?,
            },
            24 => Msg::VersionListReply {
                req: RequestId::decode(r)?,
                versions: Vec::decode(r)?,
            },
            25 => Msg::DeleteFile {
                req: RequestId::decode(r)?,
                path: String::decode(r)?,
            },
            26 => Msg::SetPolicy {
                req: RequestId::decode(r)?,
                dir: String::decode(r)?,
                policy: RetentionPolicy::decode(r)?,
            },
            27 => Msg::ResolveNodes {
                req: RequestId::decode(r)?,
                nodes: Vec::decode(r)?,
            },
            28 => Msg::NodeAddrsReply {
                req: RequestId::decode(r)?,
                addrs: Vec::decode(r)?,
            },
            29 => Msg::OfferChunks {
                req: RequestId::decode(r)?,
                reservation: ReservationId::decode(r)?,
                entries: Vec::decode(r)?,
            },
            30 => Msg::WantChunks {
                req: RequestId::decode(r)?,
                wanted: Vec::decode(r)?,
            },
            40 => Msg::JoinRequest {
                req: RequestId::decode(r)?,
                addr: String::decode(r)?,
                total_space: r.get_u64()?,
            },
            41 => Msg::JoinOk {
                req: RequestId::decode(r)?,
                node: NodeId::decode(r)?,
                heartbeat_every: Dur::decode(r)?,
            },
            42 => Msg::Heartbeat {
                node: NodeId::decode(r)?,
                free_space: r.get_u64()?,
                total_space: r.get_u64()?,
                addr: String::decode(r)?,
            },
            43 => Msg::HeartbeatAck {
                node: NodeId::decode(r)?,
                gc_due: bool::decode(r)?,
            },
            44 => Msg::GcReport {
                req: RequestId::decode(r)?,
                node: NodeId::decode(r)?,
                chunks: Vec::decode(r)?,
            },
            45 => Msg::GcReply {
                req: RequestId::decode(r)?,
                deletable: Vec::decode(r)?,
            },
            46 => Msg::ReplicateCmd {
                job: r.get_u64()?,
                copies: Vec::decode(r)?,
            },
            47 => Msg::ReplicateReport {
                job: r.get_u64()?,
                node: NodeId::decode(r)?,
                done: Vec::decode(r)?,
                failed: Vec::decode(r)?,
            },
            48 => Msg::DeleteChunks {
                chunks: Vec::decode(r)?,
            },
            60 => Msg::PutChunk {
                req: RequestId::decode(r)?,
                chunk: ChunkId::decode(r)?,
                size: r.get_u32()?,
                data: Bytes::decode(r)?,
                background: bool::decode(r)?,
            },
            61 => Msg::PutChunkOk {
                req: RequestId::decode(r)?,
                chunk: ChunkId::decode(r)?,
                node: NodeId::decode(r)?,
            },
            62 => Msg::GetChunk {
                req: RequestId::decode(r)?,
                chunk: ChunkId::decode(r)?,
            },
            63 => Msg::GetChunkOk {
                req: RequestId::decode(r)?,
                chunk: ChunkId::decode(r)?,
                size: r.get_u32()?,
                data: Bytes::decode(r)?,
            },
            64 => Msg::DeltaPutChunk {
                req: RequestId::decode(r)?,
                chunk: ChunkId::decode(r)?,
                basis: ChunkId::decode(r)?,
                size: r.get_u32()?,
                delta: Bytes::decode(r)?,
            },
            other => return Err(ProtoError::bad(format!("unknown message tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        let e = |n: u64, s: u32| ChunkEntry {
            id: ChunkId::test_id(n),
            size: s,
        };
        vec![
            Msg::Hello {
                role: Role::Benefactor,
                node: NodeId(4),
            },
            Msg::Ack { req: RequestId(9) },
            Msg::Ping { nonce: 17 },
            Msg::Pong { nonce: 17 },
            Msg::ErrorReply {
                req: RequestId(1),
                code: ErrorCode::NoSpace,
                detail: "pool exhausted".into(),
            },
            Msg::CreateFile {
                req: RequestId(2),
                client: NodeId(8),
                path: "/bms/app.n1.t3".into(),
                stripe_width: 4,
                replication: 2,
                expected_chunks: 16,
            },
            Msg::CreateFileOk {
                req: RequestId(2),
                file: FileId(1),
                version: VersionId(3),
                reservation: ReservationId(5),
                stripe: vec![NodeId(1), NodeId(2)],
                prev_chunks: vec![e(1, 1024), e(2, 512)],
                chunk_size: 1 << 20,
            },
            Msg::CommitChunkMap {
                req: RequestId(3),
                reservation: ReservationId(5),
                entries: vec![e(1, 100), e(1, 100), e(3, 7)],
                placements: vec![
                    (ChunkId::test_id(1), vec![NodeId(1)]),
                    (ChunkId::test_id(3), vec![NodeId(2), NodeId(1)]),
                ],
                pessimistic: true,
                dedup: DedupSummary {
                    offered: 3,
                    wanted: 1,
                    reused_bytes: 200,
                    delta_bytes: 0,
                    full_bytes: 7,
                },
            },
            Msg::CommitOk {
                req: RequestId(3),
                file: FileId(1),
                version: VersionId(4),
                suggested_interval: Dur::from_secs(300),
            },
            Msg::OfferChunks {
                req: RequestId(16),
                reservation: ReservationId(5),
                entries: vec![e(1, 100), e(3, 7)],
            },
            Msg::WantChunks {
                req: RequestId(16),
                wanted: vec![1],
            },
            Msg::DeltaPutChunk {
                req: RequestId(17),
                chunk: ChunkId::for_content(b"new chunk"),
                basis: ChunkId::for_content(b"old chunk"),
                size: 9,
                delta: Bytes::from_static(&[0, 4, 0, 0, 0, b'n', b'e', b'w', b' ']),
            },
            Msg::GetFile {
                req: RequestId(4),
                path: "/x".into(),
                version: Some(VersionId(2)),
            },
            Msg::FileViewReply {
                req: RequestId(4),
                view: FileVersionView {
                    version: VersionId(2),
                    map: ChunkMap::from_entries(vec![e(1, 10)]),
                    locations: vec![(ChunkId::test_id(1), vec![NodeId(7)])],
                },
            },
            Msg::DirListingReply {
                req: RequestId(5),
                entries: vec![DirEntry {
                    name: "app.n1.t3".into(),
                    attr: FileAttr {
                        size: 300,
                        versions: 3,
                        latest: VersionId(3),
                        mtime: Time::from_secs(60),
                        is_dir: false,
                    },
                }],
            },
            Msg::SetPolicy {
                req: RequestId(6),
                dir: "/bms".into(),
                policy: RetentionPolicy::AutomatedPurge {
                    after: Dur::from_secs(3600),
                },
            },
            Msg::ResolveNodes {
                req: RequestId(15),
                nodes: vec![NodeId(1), NodeId(2)],
            },
            Msg::NodeAddrsReply {
                req: RequestId(15),
                addrs: vec![(NodeId(1), "127.0.0.1:9001".into())],
            },
            Msg::JoinRequest {
                req: RequestId(7),
                addr: "127.0.0.1:9000".into(),
                total_space: 1 << 40,
            },
            Msg::Heartbeat {
                node: NodeId(3),
                free_space: 123,
                total_space: 456,
                addr: "10.0.0.3:4402".into(),
            },
            Msg::GcReport {
                req: RequestId(8),
                node: NodeId(3),
                chunks: vec![ChunkId::test_id(1), ChunkId::test_id(2)],
            },
            Msg::ReplicateCmd {
                job: 77,
                copies: vec![ReplicaCopy {
                    chunk: ChunkId::test_id(9),
                    target: NodeId(6),
                }],
            },
            Msg::ReplicateReport {
                job: 77,
                node: NodeId(1),
                done: vec![ReplicaCopy {
                    chunk: ChunkId::test_id(9),
                    target: NodeId(6),
                }],
                failed: vec![],
            },
            Msg::PutChunk {
                req: RequestId(12),
                chunk: ChunkId::for_content(b"data!"),
                size: 5,
                data: Bytes::from_static(b"data!"),
                background: false,
            },
            Msg::GetChunkOk {
                req: RequestId(13),
                chunk: ChunkId::for_content(b"zz"),
                size: 2,
                data: Bytes::from_static(b"zz"),
            },
            Msg::DeleteChunks {
                chunks: vec![ChunkId::test_id(5)],
            },
            Msg::VersionListReply {
                req: RequestId(14),
                versions: vec![VersionInfo {
                    version: VersionId(1),
                    size: 42,
                    mtime: Time::from_secs(2),
                }],
            },
        ]
    }

    #[test]
    fn every_sample_roundtrips() {
        for m in sample_msgs() {
            let bytes = m.to_wire_bytes();
            let back =
                Msg::from_wire_bytes(&bytes).unwrap_or_else(|e| panic!("decode {m:?} failed: {e}"));
            assert_eq!(m, back);
        }
    }

    #[test]
    fn tags_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in sample_msgs() {
            seen.insert(m.wire_tag());
        }
        assert_eq!(seen.len(), sample_msgs().len());
    }

    #[test]
    fn truncation_always_errors_never_panics() {
        for m in sample_msgs() {
            let bytes = m.to_wire_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::from_wire_bytes(&bytes[..cut]).is_err(),
                    "cut={cut} of {m:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // 50 and 51 are retired: they carried the removed commit re-offer
        // protocol. A known tag with no body would fail as truncated.
        for tag in [50, 51, 250] {
            assert!(
                matches!(
                    Msg::from_wire_bytes(&[tag]),
                    Err(ProtoError::Malformed { .. })
                ),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn request_id_extraction() {
        assert_eq!(
            Msg::Ack { req: RequestId(5) }.request_id(),
            Some(RequestId(5))
        );
        assert_eq!(
            Msg::Heartbeat {
                node: NodeId(1),
                free_space: 0,
                total_space: 0,
                addr: String::new()
            }
            .request_id(),
            None
        );
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = Msg::GetChunk {
            req: RequestId(1),
            chunk: ChunkId::test_id(1),
        };
        let big = Msg::PutChunk {
            req: RequestId(1),
            chunk: ChunkId::test_id(1),
            size: 1 << 20,
            data: Bytes::from(vec![0u8; 1 << 20]),
            background: false,
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(big.wire_size() >= 1 << 20);
    }
}
