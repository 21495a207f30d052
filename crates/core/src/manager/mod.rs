//! The centralized metadata manager (paper §IV.A).
//!
//! The manager maintains the entire system metadata: donor-node status via
//! soft-state registration, file chunk distribution (chunk-maps), dataset
//! attributes, eager space reservations, replication orchestration through
//! shadow chunk-maps, pull-based garbage collection, and automated
//! time-sensitive data management.
//!
//! The implementation is a sans-IO state machine behind the unified
//! [`Node`] API: [`Node::handle`] consumes one protocol message,
//! [`Node::handle_timeout`] runs time-based maintenance (heartbeat expiry,
//! reservation expiry, retention policies, replication dispatch, GC marks)
//! at the deadline advertised by [`Node::poll_timeout`], and outputs drain
//! through [`Node::poll_action`]: replies as [`Action::Send`] and, with
//! the WAL on, mutation records as [`Action::MetaAppend`] queued ahead of
//! the reply they guard.

mod churn;
mod durable;
mod maintain;
mod replicate;
mod write;

pub use churn::ChurnTotals;
pub(crate) use churn::ChurnTracker;

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use stdchk_proto::chunkmap::{ChunkMap, FileVersionView};
use stdchk_proto::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::meta::MetaRecord;
use stdchk_proto::msg::{DedupSummary, DirEntry, FileAttr, Msg, VersionInfo};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_proto::ErrorCode;
use stdchk_util::rate::TokenBucket;
use stdchk_util::{Dur, Time};

use crate::config::PoolConfig;
use crate::node::{earliest, Action, ActionQueue, Node};

/// Counters exposed for harnesses (e.g. Figure 8 reports manager
/// transaction counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Client/benefactor messages processed.
    pub transactions: u64,
    /// Versions committed.
    pub commits: u64,
    /// Replication copy orders issued.
    pub replication_copies: u64,
    /// Chunks declared deletable through GC replies.
    pub gc_deletable: u64,
    /// Versions dropped by retention policies.
    pub policy_drops: u64,
}

/// Wire-dedup accounting accumulated across commits (paper §IV.C applied
/// to the transfer path). Unlike [`ManagerStats`] these totals are
/// *durable*: each negotiated commit logs a [`MetaRecord::Dedup`] record
/// and replay folds it back in, so the savings ledger survives manager
/// restarts without ever being confused with commit counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupTotals {
    /// Commits that carried a non-trivial dedup summary.
    pub commits: u64,
    /// Chunks clients offered for negotiation.
    pub offered_chunks: u64,
    /// Offered chunks the manager asked to be shipped.
    pub wanted_chunks: u64,
    /// Bytes that never crossed the wire (commit-by-reference).
    pub reused_bytes: u64,
    /// Bytes shipped as deltas against a prior version's chunk.
    pub delta_bytes: u64,
    /// Bytes shipped in full.
    pub full_bytes: u64,
}

impl DedupTotals {
    pub(crate) fn fold(&mut self, s: &DedupSummary) {
        self.commits += 1;
        self.offered_chunks += s.offered as u64;
        self.wanted_chunks += s.wanted as u64;
        self.reused_bytes += s.reused_bytes;
        self.delta_bytes += s.delta_bytes;
        self.full_bytes += s.full_bytes;
    }
}

#[derive(Clone, Debug)]
pub(crate) struct BenefactorInfo {
    pub free: u64,
    pub total: u64,
    pub reserved: u64,
    pub last_seen: Time,
    pub online: bool,
    pub gc_due: bool,
    /// Dial address (empty under the simulator).
    pub addr: String,
}

#[derive(Clone, Debug)]
pub(crate) struct VersionRecord {
    pub version: VersionId,
    pub map: ChunkMap,
    pub mtime: Time,
}

#[derive(Clone, Debug)]
pub(crate) struct FileState {
    pub id: FileId,
    pub versions: Vec<VersionRecord>,
    pub replication: u32,
}

#[derive(Clone, Debug)]
pub(crate) struct ChunkMeta {
    /// Chunk size in bytes: what a repair copy charges against the
    /// repair token buckets, and what snapshots record.
    pub size: u32,
    pub locations: Vec<NodeId>,
    pub refcount: u32,
    pub target: u32,
    /// Newest version id referencing this chunk — the repair scheduler's
    /// tiebreak (recent checkpoints repair first, paper-style most-recent-
    /// checkpoint-matters semantics).
    pub last_version: u64,
    /// Soft holds placed by have/want negotiation: a `WantChunks` reply
    /// that told a client "already here" pins the chunk until that
    /// reservation commits, aborts, or expires, so retention pruning
    /// racing the negotiation can never reclaim a chunk the upcoming
    /// commit will reference. Pins are not logged or snapshotted — a
    /// restart drops them, and the client's commit then fails validation
    /// and retries with a full transfer.
    pub pins: u32,
}

#[derive(Clone, Debug)]
pub(crate) struct Reservation {
    /// The opening client (diagnostics; replies route via request ids).
    #[allow(dead_code)]
    pub client: NodeId,
    pub path: String,
    pub version: VersionId,
    pub stripe: Vec<NodeId>,
    pub replication: u32,
    pub reserved_on: HashMap<NodeId, u64>,
    pub expires: Time,
    /// When the write session opened (checkpoint-interval guidance uses
    /// commit−open as the observed checkpoint duration δ).
    pub opened: Time,
    /// Chunks pinned on behalf of this reservation by have/want
    /// negotiation (one list entry per pin; released on commit, abort,
    /// or expiry).
    pub pinned: Vec<ChunkId>,
}

/// A queued repair's dispatch priority: fewest live replicas first, then
/// the newest referencing version (see [`Manager::repair_key`]).
pub(crate) type RepairKey = (usize, Reverse<u64>);

#[derive(Clone, Debug)]
pub(crate) struct ReplTask {
    pub chunk: ChunkId,
    pub attempts: u32,
    /// Priority stored when the task was queued, refreshed by the pump
    /// whenever [`Manager::repair_keys_stale`] is set.
    pub key: RepairKey,
}

#[derive(Clone, Debug)]
pub(crate) struct ReplJob {
    /// Source benefactor executing the copies; its expiry re-queues
    /// them.
    pub source: NodeId,
    pub copies: Vec<(ChunkId, NodeId)>,
    /// Retry attempt each copy was dispatched at (for failure budgets).
    pub attempts: HashMap<ChunkId, u32>,
}

#[derive(Clone, Debug)]
pub(crate) struct PendingCommit {
    pub client: NodeId,
    pub req: RequestId,
    pub file: FileId,
    pub version: VersionId,
    pub waiting: HashSet<ChunkId>,
    /// Guidance computed at commit-validation time, delivered when the
    /// deferred `CommitOk` finally goes out.
    pub suggested_interval: Dur,
}

/// The metadata manager state machine.
#[derive(Debug)]
pub struct Manager {
    pub(crate) cfg: PoolConfig,
    pub(crate) next_node: u64,
    pub(crate) next_file: u64,
    pub(crate) next_version: u64,
    pub(crate) next_reservation: u64,
    pub(crate) next_job: u64,
    pub(crate) benefactors: BTreeMap<NodeId, BenefactorInfo>,
    pub(crate) rr_cursor: usize,
    pub(crate) files: BTreeMap<String, FileState>,
    pub(crate) dirs: BTreeMap<String, RetentionPolicy>,
    pub(crate) chunks: HashMap<ChunkId, ChunkMeta>,
    pub(crate) reservations: HashMap<ReservationId, Reservation>,
    pub(crate) repl_queue: VecDeque<ReplTask>,
    /// Set when a key input of a possibly queued chunk changed (its
    /// locations or newest version, or a holder's liveness), so the
    /// stored [`ReplTask::key`]s may be out of date. A replicate report's
    /// new location needs no mark: its chunk is in a job, not queued.
    pub(crate) repair_keys_stale: bool,
    pub(crate) repl_jobs: HashMap<u64, ReplJob>,
    pub(crate) pending_commits: Vec<PendingCommit>,
    pub(crate) last_policy_sweep: Time,
    pub(crate) last_gc_mark: Time,
    pub(crate) stats: ManagerStats,
    pub(crate) dedup: DedupTotals,
    /// Session-length and departure-rate observation (see [`churn`]).
    pub(crate) churn: ChurnTracker,
    /// Fleet-wide repair token bucket (`None` = unlimited).
    pub(crate) repair_fleet: Option<TokenBucket>,
    /// Per-source repair token buckets, created lazily.
    pub(crate) repair_sources: HashMap<NodeId, TokenBucket>,
    /// Earliest time a throttled repair becomes dispatchable again.
    pub(crate) next_repair_at: Option<Time>,
    pub(crate) actions: ActionQueue,
    /// When set, every namespace mutation also emits an
    /// [`Action::MetaAppend`] write-ahead-log record (see [`durable`]).
    pub(crate) wal: bool,
    /// Mutation-order stamp for the next WAL record.
    pub(crate) next_meta_seq: u64,
}

impl Manager {
    /// Creates a manager for an empty pool.
    pub fn new(cfg: PoolConfig) -> Manager {
        let repair_fleet = (cfg.repair_rate_fleet > 0).then(|| {
            TokenBucket::new(cfg.repair_rate_fleet as f64, cfg.repair_burst.max(1) as f64)
        });
        Manager {
            cfg,
            next_node: 1,
            next_file: 1,
            next_version: 1,
            next_reservation: 1,
            next_job: 1,
            benefactors: BTreeMap::new(),
            rr_cursor: 0,
            files: BTreeMap::new(),
            dirs: BTreeMap::new(),
            chunks: HashMap::new(),
            reservations: HashMap::new(),
            repl_queue: VecDeque::new(),
            repair_keys_stale: false,
            repl_jobs: HashMap::new(),
            pending_commits: Vec::new(),
            last_policy_sweep: Time::ZERO,
            last_gc_mark: Time::ZERO,
            stats: ManagerStats::default(),
            dedup: DedupTotals::default(),
            churn: ChurnTracker::default(),
            repair_fleet,
            repair_sources: HashMap::new(),
            next_repair_at: None,
            actions: ActionQueue::new(),
            wal: false,
            next_meta_seq: 0,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Turns on write-ahead logging: from now on every namespace mutation
    /// emits an [`Action::MetaAppend`] record *before* the reply it
    /// guards, so a driver that executes actions in order gets
    /// durable-before-ack semantics for free. Off by default — a manager
    /// without an attached log (tests, the pure-trait driver) stays
    /// volatile and emits only `Send`s.
    pub fn enable_wal(&mut self) {
        self.wal = true;
    }

    /// True when write-ahead logging is on.
    pub fn wal_enabled(&self) -> bool {
        self.wal
    }

    /// Queues a WAL record if logging is enabled (no-op otherwise). The
    /// sequence stamp is assigned here, under the state-machine lock, so
    /// it reflects true mutation order even when a driver executes the
    /// queued actions from racing threads.
    pub(crate) fn log_meta(&mut self, out: &mut ActionQueue, record: impl FnOnce() -> MetaRecord) {
        if self.wal {
            let seq = self.next_meta_seq;
            self.next_meta_seq += 1;
            out.push(Action::MetaAppend {
                seq,
                record: record(),
            });
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Wire-dedup savings ledger (durable across restarts via
    /// [`MetaRecord::Dedup`] replay).
    pub fn dedup_totals(&self) -> DedupTotals {
        self.dedup
    }

    /// Durable churn totals (departure count, summed session time).
    pub fn churn_totals(&self) -> ChurnTotals {
        self.churn.totals()
    }

    /// Under-replicated chunks awaiting repair dispatch (scheduler backlog).
    pub fn repair_backlog(&self) -> usize {
        self.repl_queue.len()
    }

    /// Number of currently online benefactors.
    pub fn online_benefactors(&self) -> usize {
        self.benefactors.values().filter(|b| b.online).count()
    }

    /// Total and free bytes across online benefactors.
    pub fn pool_space(&self) -> (u64, u64) {
        let mut total = 0;
        let mut free = 0;
        for b in self.benefactors.values().filter(|b| b.online) {
            total += b.total;
            free += b.free;
        }
        (total, free)
    }

    /// Processes one inbound message, pushing outputs into `out`.
    fn process_msg(&mut self, from: NodeId, msg: Msg, now: Time, out: &mut ActionQueue) {
        self.stats.transactions += 1;
        match msg {
            Msg::JoinRequest {
                req,
                addr,
                total_space,
            } => self.on_join(from, req, addr, total_space, now, out),
            Msg::Heartbeat {
                node,
                free_space,
                total_space,
                addr,
            } => self.on_heartbeat(node, free_space, total_space, addr, now, out),
            Msg::CreateFile {
                req,
                client,
                path,
                stripe_width,
                replication,
                expected_chunks,
            } => self.on_create_file(
                client,
                req,
                path,
                stripe_width,
                replication,
                expected_chunks,
                now,
                out,
            ),
            Msg::ExtendReservation {
                req,
                reservation,
                additional_chunks,
            } => self.on_extend(from, req, reservation, additional_chunks, now, out),
            Msg::OfferChunks {
                req,
                reservation,
                entries,
            } => self.on_offer(from, req, reservation, entries, out),
            Msg::CommitChunkMap {
                req,
                reservation,
                entries,
                placements,
                pessimistic,
                dedup,
            } => self.on_commit(
                from,
                req,
                reservation,
                entries,
                placements,
                pessimistic,
                dedup,
                now,
                out,
            ),
            Msg::AbortWrite { req, reservation } => self.on_abort(from, req, reservation, out),
            Msg::GetFile { req, path, version } => self.on_get_file(from, req, &path, version, out),
            Msg::ListDir { req, path } => self.on_list_dir(from, req, &path, out),
            Msg::GetAttr { req, path } => self.on_get_attr(from, req, &path, out),
            Msg::ListVersions { req, path } => self.on_list_versions(from, req, &path, out),
            Msg::DeleteFile { req, path } => self.on_delete_file(from, req, &path, out),
            Msg::SetPolicy { req, dir, policy } => self.on_set_policy(from, req, dir, policy, out),
            Msg::GcReport { req, node, chunks } => self.on_gc_report(req, node, chunks, now, out),
            Msg::ReplicateReport {
                job,
                node,
                done,
                failed,
            } => self.on_replicate_report(job, node, done, failed, now, out),
            Msg::ResolveNodes { req, nodes } => {
                let addrs = nodes
                    .into_iter()
                    .filter_map(|n| {
                        self.benefactors
                            .get(&n)
                            .filter(|b| !b.addr.is_empty())
                            .map(|b| (n, b.addr.clone()))
                    })
                    .collect();
                out.send(from, Msg::NodeAddrsReply { req, addrs });
            }
            other => {
                // Requests the manager does not serve get a loud error if
                // they carry a request id, and are dropped otherwise.
                if let Some(req) = other.request_id() {
                    out.send(
                        from,
                        Msg::ErrorReply {
                            req,
                            code: ErrorCode::BadRequest,
                            detail: format!("manager cannot serve tag {}", other.wire_tag()),
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------ membership

    fn on_join(
        &mut self,
        from: NodeId,
        req: RequestId,
        addr: String,
        total_space: u64,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        self.benefactors.insert(
            node,
            BenefactorInfo {
                free: total_space,
                total: total_space,
                reserved: 0,
                last_seen: now,
                online: true,
                gc_due: false,
                addr: addr.clone(),
            },
        );
        self.churn.note_online(node, now);
        // Placements may name an id before the manager knows it, so a
        // queued chunk can gain a live holder.
        self.repair_keys_stale = true;
        // The id assignment and dial address are durable; liveness stays
        // soft state (heartbeats).
        self.log_meta(out, || MetaRecord::Benefactor {
            node,
            addr,
            total: total_space,
        });
        out.send(
            from,
            Msg::JoinOk {
                req,
                node,
                heartbeat_every: self.cfg.heartbeat_every,
            },
        );
        // A fresh donor may unblock queued replication (repairs, deferred
        // pessimistic commits) that had no viable target.
        self.pump_replication(now, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_heartbeat(
        &mut self,
        node: NodeId,
        free: u64,
        total: u64,
        addr: String,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let known = self.benefactors.contains_key(&node);
        let info = self.benefactors.entry(node).or_insert_with(|| {
            // Unknown node: accept the soft-state registration. This is the
            // normal path after a manager restart without a metadata log.
            BenefactorInfo {
                free,
                total,
                reserved: 0,
                last_seen: now,
                online: true,
                gc_due: false,
                addr: String::new(),
            }
        });
        info.free = free;
        let total_changed = info.total != total;
        info.total = total;
        info.last_seen = now;
        let addr_changed = !addr.is_empty() && info.addr != addr;
        if addr_changed {
            info.addr = addr;
        }
        let was_offline = !info.online;
        info.online = true;
        if was_offline {
            // A returning benefactor's inventory may satisfy repairs; its
            // locations come back through its next GC report.
            info.gc_due = true;
        }
        let gc_due = info.gc_due;
        if !known || was_offline {
            self.churn.note_online(node, now);
            // Chunks already listing this node gain a live holder.
            self.repair_keys_stale = true;
        }
        self.next_node = self.next_node.max(node.as_u64() + 1);
        if !known || addr_changed || total_changed {
            // A membership fact changed (adoption of an unknown id, a new
            // address, or a resized donation): persist it. Routine
            // heartbeats append nothing.
            let (addr, total) = {
                let b = &self.benefactors[&node];
                (b.addr.clone(), b.total)
            };
            self.log_meta(out, || MetaRecord::Benefactor { node, addr, total });
        }
        out.send(node, Msg::HeartbeatAck { node, gc_due });
        if was_offline {
            // A returning donor may unblock queued replication immediately
            // instead of waiting for the next maintenance sweep.
            self.pump_replication(now, out);
        }
    }

    // ------------------------------------------------------------ allocation

    /// Selects up to `width` online benefactors with spare capacity,
    /// rotating a cursor to spread load (the paper's round-robin striping).
    pub(crate) fn select_stripe(&mut self, width: usize, exclude: &HashSet<NodeId>) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = self
            .benefactors
            .iter()
            .filter(|(id, b)| {
                b.online
                    && !exclude.contains(id)
                    && b.free.saturating_sub(b.reserved) >= self.cfg.chunk_size as u64
            })
            .map(|(id, _)| *id)
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let take = width.min(candidates.len());
        let start = self.rr_cursor % candidates.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(take);
        (0..take)
            .map(|i| candidates[(start + i) % candidates.len()])
            .collect()
    }

    pub(crate) fn reserve_on(
        reservation: &mut Reservation,
        benefactors: &mut BTreeMap<NodeId, BenefactorInfo>,
        chunk_size: u32,
        chunks: u64,
    ) {
        if reservation.stripe.is_empty() {
            return;
        }
        let per_node = chunks.div_ceil(reservation.stripe.len() as u64) * chunk_size as u64;
        for node in &reservation.stripe {
            if let Some(b) = benefactors.get_mut(node) {
                b.reserved += per_node;
            }
            *reservation.reserved_on.entry(*node).or_insert(0) += per_node;
        }
    }

    pub(crate) fn release_reservation(&mut self, res: &Reservation) {
        for (node, amount) in &res.reserved_on {
            if let Some(b) = self.benefactors.get_mut(node) {
                b.reserved = b.reserved.saturating_sub(*amount);
            }
        }
    }

    // ------------------------------------------------------------ reads

    fn file_view(
        &self,
        path: &str,
        version: Option<VersionId>,
    ) -> Result<FileVersionView, ErrorCode> {
        let file = self.files.get(path).ok_or(ErrorCode::NotFound)?;
        let record = match version {
            None => file.versions.last().ok_or(ErrorCode::NotFound)?,
            Some(v) => file
                .versions
                .iter()
                .find(|r| r.version == v)
                .ok_or(ErrorCode::NotFound)?,
        };
        let mut locations: Vec<(ChunkId, Vec<NodeId>)> = record
            .map
            .distinct_chunks()
            .into_iter()
            .map(|id| {
                let locs = self
                    .chunks
                    .get(&id)
                    .map(|m| {
                        m.locations
                            .iter()
                            .filter(|n| self.benefactors.get(n).map(|b| b.online).unwrap_or(false))
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default();
                (id, locs)
            })
            .collect();
        locations.sort_by_key(|a| a.0);
        Ok(FileVersionView {
            version: record.version,
            map: record.map.clone(),
            locations,
        })
    }

    fn on_get_file(
        &mut self,
        from: NodeId,
        req: RequestId,
        path: &str,
        version: Option<VersionId>,
        out: &mut ActionQueue,
    ) {
        match self.file_view(path, version) {
            Ok(view) => out.send(from, Msg::FileViewReply { req, view }),
            Err(code) => out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code,
                    detail: format!("{path}: no such file or version"),
                },
            ),
        }
    }

    fn attr_of(&self, file: &FileState) -> FileAttr {
        match file.versions.last() {
            Some(v) => FileAttr {
                size: v.map.file_size(),
                versions: file.versions.len() as u32,
                latest: v.version,
                mtime: v.mtime,
                is_dir: false,
            },
            None => FileAttr {
                size: 0,
                versions: 0,
                latest: VersionId(0),
                mtime: Time::ZERO,
                is_dir: false,
            },
        }
    }

    fn is_dir(&self, path: &str) -> bool {
        if path == "/" || self.dirs.contains_key(path) {
            return true;
        }
        let prefix = format!("{}/", path.trim_end_matches('/'));
        self.files.keys().any(|p| p.starts_with(&prefix))
            || self.dirs.keys().any(|d| d.starts_with(&prefix))
    }

    fn on_get_attr(&mut self, from: NodeId, req: RequestId, path: &str, out: &mut ActionQueue) {
        let path = normalize(path);
        if let Some(file) = self.files.get(&path) {
            if !file.versions.is_empty() {
                let attr = self.attr_of(file);
                out.send(from, Msg::AttrReply { req, attr });
                return;
            }
        }
        if self.is_dir(&path) {
            out.send(
                from,
                Msg::AttrReply {
                    req,
                    attr: FileAttr {
                        size: 0,
                        versions: 0,
                        latest: VersionId(0),
                        mtime: Time::ZERO,
                        is_dir: true,
                    },
                },
            );
            return;
        }
        out.send(
            from,
            Msg::ErrorReply {
                req,
                code: ErrorCode::NotFound,
                detail: format!("{path}: no such path"),
            },
        );
    }

    fn on_list_dir(&mut self, from: NodeId, req: RequestId, path: &str, out: &mut ActionQueue) {
        let dir = normalize(path);
        if !self.is_dir(&dir) {
            out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NotFound,
                    detail: format!("{dir}: not a directory"),
                },
            );
            return;
        }
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        let mut entries: BTreeMap<String, DirEntry> = BTreeMap::new();
        for (p, f) in &self.files {
            if f.versions.is_empty() {
                continue;
            }
            if let Some(rest) = p.strip_prefix(&prefix) {
                if rest.is_empty() {
                    continue;
                }
                match rest.split_once('/') {
                    None => {
                        entries.insert(
                            rest.to_string(),
                            DirEntry {
                                name: rest.to_string(),
                                attr: self.attr_of(f),
                            },
                        );
                    }
                    Some((child_dir, _)) => {
                        entries.entry(child_dir.to_string()).or_insert(DirEntry {
                            name: child_dir.to_string(),
                            attr: FileAttr {
                                size: 0,
                                versions: 0,
                                latest: VersionId(0),
                                mtime: Time::ZERO,
                                is_dir: true,
                            },
                        });
                    }
                }
            }
        }
        for d in self.dirs.keys() {
            if let Some(rest) = d.strip_prefix(&prefix) {
                if rest.is_empty() {
                    continue;
                }
                let child = rest.split('/').next().expect("non-empty").to_string();
                entries.entry(child.clone()).or_insert(DirEntry {
                    name: child,
                    attr: FileAttr {
                        size: 0,
                        versions: 0,
                        latest: VersionId(0),
                        mtime: Time::ZERO,
                        is_dir: true,
                    },
                });
            }
        }
        out.send(
            from,
            Msg::DirListingReply {
                req,
                entries: entries.into_values().collect(),
            },
        );
    }

    fn on_list_versions(
        &mut self,
        from: NodeId,
        req: RequestId,
        path: &str,
        out: &mut ActionQueue,
    ) {
        let path = normalize(path);
        match self.files.get(&path) {
            Some(f) if !f.versions.is_empty() => {
                let versions = f
                    .versions
                    .iter()
                    .map(|v| VersionInfo {
                        version: v.version,
                        size: v.map.file_size(),
                        mtime: v.mtime,
                    })
                    .collect();
                out.send(from, Msg::VersionListReply { req, versions });
            }
            _ => out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NotFound,
                    detail: format!("{path}: no such file"),
                },
            ),
        }
    }

    /// Invariant checks used by tests and the simulator's self-audit:
    /// chunk refcounts equal the number of version references; no committed
    /// chunk lost its metadata; reservations only reserve on known nodes;
    /// a chunk is queued for repair at most once and never while one of
    /// its copies is in flight, and unless marked stale every stored
    /// repair key matches current metadata.
    pub fn check_invariants(&self) {
        let mut expected: HashMap<ChunkId, u32> = HashMap::new();
        for f in self.files.values() {
            for v in &f.versions {
                for id in v.map.distinct_chunks() {
                    *expected.entry(id).or_insert(0) += 1;
                }
            }
        }
        for (id, count) in &expected {
            let meta = self
                .chunks
                .get(id)
                .unwrap_or_else(|| panic!("committed chunk {id} missing metadata"));
            assert_eq!(
                meta.refcount, *count,
                "refcount mismatch for {id}: {} vs expected {count}",
                meta.refcount
            );
        }
        for (id, meta) in &self.chunks {
            assert_eq!(
                meta.refcount,
                expected.get(id).copied().unwrap_or(0),
                "orphan chunk {id} holds refcount"
            );
            // Negotiation pins are the only way a refcount-zero chunk may
            // outlive its last version; an unpinned zero is a GC leak.
            assert!(
                meta.refcount > 0 || meta.pins > 0,
                "chunk {id} lingers with no references and no pins"
            );
            let mut sorted = meta.locations.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                meta.locations.len(),
                "duplicate locations for {id}"
            );
        }
        for r in self.reservations.values() {
            for node in r.reserved_on.keys() {
                assert!(
                    self.benefactors.contains_key(node),
                    "reservation on unknown node {node}"
                );
            }
        }
        let mut queued = HashSet::new();
        for t in &self.repl_queue {
            assert!(queued.insert(t.chunk), "chunk {} queued twice", t.chunk);
            if !self.repair_keys_stale {
                assert_eq!(
                    t.key,
                    self.repair_key(&t.chunk),
                    "stale repair key for {}",
                    t.chunk
                );
            }
        }
        for j in self.repl_jobs.values() {
            for (chunk, _) in &j.copies {
                assert!(
                    !queued.contains(chunk),
                    "chunk {chunk} both queued and in a job"
                );
            }
        }
    }
}

impl Node for Manager {
    fn handle(&mut self, from: NodeId, msg: Msg, now: Time) {
        // Detach the queue so handlers can push while borrowing `self`;
        // steady-state this is pointer swaps, not allocation.
        let mut out = std::mem::take(&mut self.actions);
        self.process_msg(from, msg, now, &mut out);
        self.actions = out;
    }

    fn handle_timeout(&mut self, now: Time) {
        let mut out = std::mem::take(&mut self.actions);
        self.process_timeout(now, &mut out);
        self.actions = out;
    }

    fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop()
    }

    fn poll_timeout(&self) -> Option<Time> {
        // Periodic sweeps.
        let mut next = Some(
            (self.last_policy_sweep + self.cfg.policy_sweep_every)
                .min(self.last_gc_mark + self.cfg.gc_every),
        );
        // Earliest benefactor-liveness expiry.
        for b in self.benefactors.values().filter(|b| b.online) {
            next = earliest(next, Some(b.last_seen + self.cfg.benefactor_timeout));
        }
        // Earliest reservation expiry.
        for r in self.reservations.values() {
            next = earliest(next, Some(r.expires));
        }
        // Throttled repair work waiting on token refill.
        if !self.repl_queue.is_empty() {
            next = earliest(next, self.next_repair_at);
        }
        next
    }
}

/// Normalizes a path: ensures a leading `/`, strips a trailing `/`.
pub(crate) fn normalize(path: &str) -> String {
    let mut p = if path.starts_with('/') {
        path.to_string()
    } else {
        format!("/{path}")
    };
    while p.len() > 1 && p.ends_with('/') {
        p.pop();
    }
    p
}

/// Parent directory of a normalized path (`/a/b` → `/a`, `/x` → `/`).
pub(crate) fn parent(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

#[cfg(test)]
mod tests;
