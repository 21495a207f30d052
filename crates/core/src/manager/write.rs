//! Write-path message handlers: session open (with eager reservation),
//! reservation extension, atomic chunk-map commit, abort, deletion and
//! policies.

use std::collections::{HashMap, HashSet};

use stdchk_proto::chunkmap::{ChunkEntry, ChunkMap};
use stdchk_proto::ids::{ChunkId, FileId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::meta::MetaRecord;
use stdchk_proto::msg::{DedupSummary, Msg};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_proto::ErrorCode;
use stdchk_util::Time;

use super::{
    normalize, parent, ChunkMeta, FileState, Manager, PendingCommit, Reservation, VersionRecord,
};
use crate::node::ActionQueue;

impl Manager {
    /// Installs one sealed version: upserts chunk metadata (sizes,
    /// refcounts, replication targets, placement locations) and appends
    /// the version to the file entry, creating it if needed. Shared by
    /// the client commit path and WAL replay — `file_hint` forces the
    /// file id when replaying a logged commit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply_version(
        &mut self,
        path: &str,
        file_hint: Option<FileId>,
        version: VersionId,
        map: ChunkMap,
        placements: &[(ChunkId, Vec<NodeId>)],
        replication: u32,
        mtime: Time,
    ) -> FileId {
        let placement_map: HashMap<ChunkId, &Vec<NodeId>> =
            placements.iter().map(|(c, l)| (*c, l)).collect();
        let sizes: HashMap<ChunkId, u32> = map.entries().iter().map(|e| (e.id, e.size)).collect();
        // Newest versions and placements feed the repair keys.
        self.repair_keys_stale = true;
        for id in map.distinct_chunks() {
            let meta = self.chunks.entry(id).or_insert_with(|| ChunkMeta {
                size: *sizes.get(&id).expect("entry size"),
                locations: Vec::new(),
                refcount: 0,
                target: 1,
                last_version: 0,
                pins: 0,
            });
            meta.refcount += 1;
            meta.target = meta.target.max(replication);
            meta.last_version = meta.last_version.max(version.as_u64());
            if let Some(locs) = placement_map.get(&id) {
                for n in locs.iter() {
                    if !meta.locations.contains(n) {
                        meta.locations.push(*n);
                    }
                }
            }
        }
        let file = self
            .files
            .entry(path.to_string())
            .or_insert_with(|| FileState {
                id: file_hint.unwrap_or(FileId(self.next_file)),
                versions: Vec::new(),
                replication: 1,
            });
        if let Some(hint) = file_hint {
            // Replay: the logged id is authoritative. A lingering entry
            // could carry a different id only through transient state the
            // log deliberately omits (e.g. an entry kept empty by an open
            // reservation at crash time); the record reflects what the
            // emitting manager actually granted.
            file.id = hint;
        }
        file.replication = file.replication.max(replication);
        let file_id = file.id;
        file.versions.push(VersionRecord {
            version,
            map,
            mtime,
        });
        self.next_file = self.next_file.max(file_id.as_u64() + 1);
        self.next_version = self.next_version.max(version.as_u64() + 1);
        file_id
    }
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_create_file(
        &mut self,
        client: NodeId,
        req: RequestId,
        path: String,
        stripe_width: u32,
        replication: u32,
        expected_chunks: u32,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let path = normalize(&path);
        let width = if stripe_width == 0 {
            self.cfg.default_stripe_width
        } else {
            stripe_width
        } as usize;
        let replication = if replication == 0 {
            self.cfg.default_replication
        } else {
            replication
        };
        let stripe = self.select_stripe(width, &HashSet::new());
        if stripe.is_empty() {
            out.send(
                client,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NoSpace,
                    detail: "no online benefactor has spare capacity".to_string(),
                },
            );
            return;
        }
        // File entry exists from the first open; it stays invisible until a
        // version commits.
        let file = self.files.entry(path.clone()).or_insert_with(|| {
            let id = FileId(self.next_file);
            self.next_file += 1;
            FileState {
                id,
                versions: Vec::new(),
                replication: 1,
            }
        });
        file.replication = file.replication.max(replication);
        let file_id = file.id;
        let prev_chunks: Vec<ChunkEntry> = file
            .versions
            .last()
            .map(|v| v.map.entries().to_vec())
            .unwrap_or_default();

        let version = VersionId(self.next_version);
        self.next_version += 1;
        let reservation_id = ReservationId(self.next_reservation);
        self.next_reservation += 1;
        let mut reservation = Reservation {
            client,
            path,
            version,
            stripe: stripe.clone(),
            replication,
            reserved_on: HashMap::new(),
            expires: now + self.cfg.reservation_ttl,
            opened: now,
            pinned: Vec::new(),
        };
        Manager::reserve_on(
            &mut reservation,
            &mut self.benefactors,
            self.cfg.chunk_size,
            expected_chunks.max(1) as u64,
        );
        self.reservations.insert(reservation_id, reservation);
        out.send(
            client,
            Msg::CreateFileOk {
                req,
                file: file_id,
                version,
                reservation: reservation_id,
                stripe,
                prev_chunks,
                chunk_size: self.cfg.chunk_size,
            },
        );
    }

    pub(super) fn on_extend(
        &mut self,
        from: NodeId,
        req: RequestId,
        id: ReservationId,
        additional_chunks: u32,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let Some(mut res) = self.reservations.remove(&id) else {
            out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::Conflict,
                    detail: format!("unknown or expired reservation {id}"),
                },
            );
            return;
        };
        // Refresh the stripe: drop members that went offline, backfill.
        let exclude: HashSet<NodeId> = res.stripe.iter().copied().collect();
        res.stripe
            .retain(|n| self.benefactors.get(n).map(|b| b.online).unwrap_or(false));
        let missing = exclude.len() - res.stripe.len();
        if missing > 0 {
            let fresh = self.select_stripe(missing, &exclude);
            res.stripe.extend(fresh);
        }
        if res.stripe.is_empty() {
            self.release_reservation(&res);
            out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::NoSpace,
                    detail: "no online benefactors left for this stripe".to_string(),
                },
            );
            return;
        }
        Manager::reserve_on(
            &mut res,
            &mut self.benefactors,
            self.cfg.chunk_size,
            additional_chunks.max(1) as u64,
        );
        res.expires = now + self.cfg.reservation_ttl;
        let stripe = res.stripe.clone();
        self.reservations.insert(id, res);
        out.send(from, Msg::ExtendOk { req, stripe });
    }

    /// Answers a have/want negotiation round (paper §IV.C moved onto the
    /// wire): the client offers the chunk ids of an in-flight version and
    /// the manager replies with the indices it wants shipped. Every chunk
    /// it already holds is *pinned* against the reservation so retention
    /// pruning cannot reclaim it before the commit-by-reference lands.
    pub(super) fn on_offer(
        &mut self,
        from: NodeId,
        req: RequestId,
        reservation: ReservationId,
        entries: Vec<ChunkEntry>,
        out: &mut ActionQueue,
    ) {
        if !self.reservations.contains_key(&reservation) {
            out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::Conflict,
                    detail: format!("unknown or expired reservation {reservation}"),
                },
            );
            return;
        }
        let mut wanted = Vec::new();
        let mut pinned = Vec::new();
        for (idx, e) in entries.iter().enumerate() {
            // "Have" means the bytes provably exist on some benefactor: a
            // live reference from a committed version, or an existing pin
            // from a concurrent negotiation. Chunks merely placed by an
            // uncommitted session don't count — the manager has no record
            // of them yet.
            let have = self
                .chunks
                .get(&e.id)
                .map(|m| m.refcount > 0 || m.pins > 0)
                .unwrap_or(false);
            if have {
                pinned.push(e.id);
            } else {
                wanted.push(idx as u32);
            }
        }
        for id in &pinned {
            if let Some(m) = self.chunks.get_mut(id) {
                m.pins += 1;
            }
        }
        self.reservations
            .get_mut(&reservation)
            .expect("checked above")
            .pinned
            .extend(pinned);
        out.send(from, Msg::WantChunks { req, wanted });
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_commit(
        &mut self,
        from: NodeId,
        req: RequestId,
        reservation: ReservationId,
        entries: Vec<ChunkEntry>,
        placements: Vec<(ChunkId, Vec<NodeId>)>,
        pessimistic: bool,
        dedup: DedupSummary,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let Some(res) = self.reservations.remove(&reservation) else {
            out.send(
                from,
                Msg::ErrorReply {
                    req,
                    code: ErrorCode::Conflict,
                    detail: format!("unknown or expired reservation {reservation}"),
                },
            );
            return;
        };
        self.release_reservation(&res);
        let placement_map: HashMap<ChunkId, &Vec<NodeId>> =
            placements.iter().map(|(c, l)| (*c, l)).collect();
        let map = ChunkMap::from_entries(entries);
        // Validate: every distinct chunk is either already stored (dedup
        // against an existing version, or held alive by a negotiation
        // pin) or has at least one placement.
        for id in map.distinct_chunks() {
            let known = self
                .chunks
                .get(&id)
                .map(|m| m.refcount > 0 || m.pins > 0)
                .unwrap_or(false);
            let placed = placement_map
                .get(&id)
                .map(|l| !l.is_empty())
                .unwrap_or(false);
            if !known && !placed {
                // The reservation is spent either way: release its pins
                // before bouncing the commit.
                self.unpin_reservation(&res, out);
                out.send(
                    from,
                    Msg::ErrorReply {
                        req,
                        code: ErrorCode::BadRequest,
                        detail: format!("chunk {id} committed without any placement"),
                    },
                );
                return;
            }
        }
        // Apply chunk metadata and record the version, then write-ahead-log
        // the commit *before* any reply that acknowledges it.
        let version = res.version;
        let file_id = self.apply_version(
            &res.path,
            None,
            version,
            map.clone(),
            &placements,
            res.replication,
            now,
        );
        self.stats.commits += 1;
        // Commit increfs landed above, so unpinning now can only reclaim
        // chunks the client offered but ultimately left out of the map.
        self.unpin_reservation(&res, out);
        // A reused chunk ships no placement, but the Commit record must
        // stay self-contained for replay: replica locations learned since
        // the chunk's original commit are soft state the log omits, so a
        // fully-deduped version would otherwise replay with only the
        // basis version's (possibly dead) stripe. Fold the index's known
        // locations at commit time into the logged record.
        let logged_placements: Vec<(ChunkId, Vec<NodeId>)> = {
            let mut v = placements.clone();
            let placed: HashSet<ChunkId> = v.iter().map(|(c, _)| *c).collect();
            for id in map.distinct_chunks() {
                if !placed.contains(&id) {
                    if let Some(m) = self.chunks.get(&id) {
                        if !m.locations.is_empty() {
                            v.push((id, m.locations.clone()));
                        }
                    }
                }
            }
            v
        };
        self.log_meta(out, || MetaRecord::Commit {
            path: res.path.clone(),
            file: file_id,
            version,
            mtime: now,
            entries: map.entries().to_vec(),
            placements: logged_placements,
            replication: res.replication,
        });
        if dedup != DedupSummary::default() {
            // Fold the client's per-commit wire accounting into the
            // durable savings ledger, logged right after the commit it
            // annotates so replay rebuilds the same totals.
            self.dedup.fold(&dedup);
            self.log_meta(out, || MetaRecord::Dedup {
                file: file_id,
                version,
                summary: dedup,
            });
        }

        // Plan replication for under-replicated chunks of this version.
        let mut waiting: HashSet<ChunkId> = HashSet::new();
        if res.replication > 1 {
            let online = self.online_benefactors() as u32;
            let effective = res.replication.min(online.max(1));
            for id in map.distinct_chunks() {
                let meta = &self.chunks[&id];
                if (self.online_locations(&meta.locations) as u32) < effective {
                    self.enqueue_replication(id);
                    waiting.insert(id);
                }
            }
        }

        // Retention: a newly committed image may obsolete older ones.
        let dir_policy = self.policy_for(&res.path);
        if let RetentionPolicy::AutomatedReplace { keep_last } = dir_policy {
            self.prune_versions(&res.path, keep_last as usize, out);
        }

        // Checkpoint-interval guidance: the observed write duration is the
        // checkpoint cost δ, churn supplies the failure rate λ.
        let suggested_interval = self.checkpoint_guidance(now.since(res.opened), now);
        if pessimistic && !waiting.is_empty() {
            self.pending_commits.push(PendingCommit {
                client: from,
                req,
                file: file_id,
                version,
                waiting,
                suggested_interval,
            });
        } else {
            out.send(
                from,
                Msg::CommitOk {
                    req,
                    file: file_id,
                    version,
                    suggested_interval,
                },
            );
        }
        self.pump_replication(now, out);
    }

    pub(super) fn on_abort(
        &mut self,
        from: NodeId,
        req: RequestId,
        reservation: ReservationId,
        out: &mut ActionQueue,
    ) {
        if let Some(res) = self.reservations.remove(&reservation) {
            self.release_reservation(&res);
            self.unpin_reservation(&res, out);
            self.drop_file_if_empty(&res.path);
        }
        // Abort is idempotent: an expired reservation still acks.
        out.send(from, Msg::Ack { req });
    }

    pub(super) fn on_delete_file(
        &mut self,
        from: NodeId,
        req: RequestId,
        path: &str,
        out: &mut ActionQueue,
    ) {
        let path = normalize(path);
        match self.files.get(&path) {
            Some(f) if !f.versions.is_empty() => {
                self.prune_versions(&path, 0, out);
                self.files.remove(&path);
                self.log_meta(out, || MetaRecord::Delete { path: path.clone() });
                out.send(from, Msg::Ack { req });
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

    pub(super) fn on_set_policy(
        &mut self,
        from: NodeId,
        req: RequestId,
        dir: String,
        policy: RetentionPolicy,
        out: &mut ActionQueue,
    ) {
        let dir = normalize(&dir);
        self.dirs.insert(dir.clone(), policy);
        self.log_meta(out, || MetaRecord::SetPolicy { dir, policy });
        out.send(from, Msg::Ack { req });
    }

    /// The retention policy applying to `path`: the policy of its nearest
    /// ancestor directory, defaulting to no intervention.
    pub(crate) fn policy_for(&self, path: &str) -> RetentionPolicy {
        let mut dir = parent(path);
        loop {
            if let Some(p) = self.dirs.get(&dir) {
                return *p;
            }
            if dir == "/" {
                return RetentionPolicy::NoIntervention;
            }
            dir = parent(&dir);
        }
    }

    pub(crate) fn drop_file_if_empty(&mut self, path: &str) {
        let empty = self
            .files
            .get(path)
            .map(|f| f.versions.is_empty())
            .unwrap_or(false);
        let has_reservation = self.reservations.values().any(|r| r.path == path);
        if empty && !has_reservation {
            self.files.remove(path);
        }
    }
}
