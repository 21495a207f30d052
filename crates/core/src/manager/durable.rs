//! Durable-metadata support: snapshotting the manager's state and
//! replaying write-ahead-log records after a restart.
//!
//! The manager itself stays sans-IO — it only *emits* records (as
//! [`Action::MetaAppend`](crate::Action::MetaAppend), queued ahead of the
//! reply each record guards) and *consumes* them again through
//! [`Manager::replay`]. Where the records live between crash and restart
//! is a driver concern (`stdchk-net`'s `MetaLog`).
//!
//! # What is durable, what is soft
//!
//! Durable (logged / snapshotted): the namespace — files, version
//! history with chunk-maps and mtimes, chunk sizes/targets/placements,
//! retention policies — plus the id counters and benefactor membership
//! (id, address, donated space).
//!
//! Soft (re-established by the protocols): benefactor liveness and free
//! space (heartbeats), reservations and in-flight sessions (clients
//! retry), replication jobs and pending pessimistic commits
//! (maintenance re-plans from the restored chunk targets), and counters
//! ([`ManagerStats`](crate::ManagerStats) restarts at zero).
//!
//! Replay is the only way a restarted manager gets its namespace back.
//! A restored manager marks every known benefactor online with
//! `gc_due = true`: the first heartbeat round triggers inventory (GC)
//! reports that re-learn replica locations.

use std::collections::HashMap;

use stdchk_proto::chunkmap::ChunkMap;
use stdchk_proto::ids::{ChunkId, NodeId, VersionId};
use stdchk_proto::meta::{MetaRecord, MetaSnapshot, SnapshotChunk, SnapshotFile, SnapshotVersion};
use stdchk_util::Time;

use super::{BenefactorInfo, ChunkMeta, FileState, Manager};
use crate::config::PoolConfig;
use crate::node::ActionQueue;

impl Manager {
    /// Serializes the manager's durable state. Taken periodically by
    /// drivers so WAL replay stays bounded; replaying the snapshot plus
    /// every record logged after it reproduces the namespace exactly.
    pub fn snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            next_node: self.next_node,
            next_file: self.next_file,
            next_version: self.next_version,
            benefactors: self
                .benefactors
                .iter()
                .map(|(id, b)| (*id, b.addr.clone(), b.total))
                .collect(),
            files: self
                .files
                .iter()
                .map(|(path, f)| SnapshotFile {
                    path: path.clone(),
                    id: f.id,
                    replication: f.replication,
                    versions: f
                        .versions
                        .iter()
                        .map(|v| SnapshotVersion {
                            version: v.version,
                            mtime: v.mtime,
                            entries: v.map.entries().to_vec(),
                        })
                        .collect(),
                })
                .collect(),
            dirs: self.dirs.iter().map(|(d, p)| (d.clone(), *p)).collect(),
            chunks: self
                .chunks
                .iter()
                .map(|(id, m)| SnapshotChunk {
                    id: *id,
                    size: m.size,
                    target: m.target,
                    locations: m.locations.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a manager from a snapshot. Chunk refcounts are recomputed
    /// from the version maps (the refcount invariant holds by
    /// construction); benefactors come back online with `gc_due` set so
    /// their first heartbeat pulls an inventory report, re-learning any
    /// replica locations the snapshot missed.
    pub fn restore(cfg: PoolConfig, snap: &MetaSnapshot, now: Time) -> Manager {
        let mut mgr = Manager::new(cfg);
        mgr.next_node = snap.next_node;
        mgr.next_file = snap.next_file;
        mgr.next_version = snap.next_version;
        for (node, addr, total) in &snap.benefactors {
            mgr.adopt_benefactor(*node, addr.clone(), *total, now);
        }
        for (dir, policy) in &snap.dirs {
            mgr.dirs.insert(dir.clone(), *policy);
        }
        for c in &snap.chunks {
            mgr.chunks.insert(
                c.id,
                ChunkMeta {
                    size: c.size,
                    locations: c.locations.clone(),
                    refcount: 0,
                    target: c.target,
                    last_version: 0,
                    pins: 0,
                },
            );
        }
        for f in &snap.files {
            let mut versions = Vec::with_capacity(f.versions.len());
            for v in &f.versions {
                let map = MetaSnapshot::map_of(v);
                mgr.incref_map(&map, v.version);
                mgr.next_version = mgr.next_version.max(v.version.as_u64() + 1);
                versions.push(super::VersionRecord {
                    version: v.version,
                    map,
                    mtime: v.mtime,
                });
            }
            mgr.next_file = mgr.next_file.max(f.id.as_u64() + 1);
            mgr.files.insert(
                f.path.clone(),
                FileState {
                    id: f.id,
                    versions,
                    replication: f.replication,
                },
            );
        }
        // Drop chunk entries no version references (a snapshot written
        // concurrently with pruning could carry one); refcount-zero chunks
        // never exist in a live manager.
        mgr.chunks.retain(|_, m| m.refcount > 0);
        mgr
    }

    /// Applies one logged mutation record without emitting any actions —
    /// no sends, no re-logging. Called in log order after
    /// [`Manager::restore`]; the result is observably identical
    /// (`stat`/`list`/versions, invariants) to the manager that emitted
    /// the records.
    pub fn replay(&mut self, record: &MetaRecord, now: Time) {
        // Replay must stay silent: decrefs route their DeleteChunks sends
        // into a scratch queue that is dropped (the restored targets are
        // re-told by the GC flow).
        let mut scratch = ActionQueue::new();
        match record {
            MetaRecord::Commit {
                path,
                file,
                version,
                mtime,
                entries,
                placements,
                replication,
            } => {
                // Snapshots are fuzzy: one taken while appends were still
                // in flight may already include the effects of the first
                // few records replayed after it. Version ids are unique,
                // so "this version already exists" detects exactly those
                // records; skipping them (and re-running everything later,
                // which re-erases anything re-applied) converges on the
                // pre-crash state.
                let already = self
                    .files
                    .get(path)
                    .is_some_and(|f| f.versions.iter().any(|v| v.version == *version));
                if already {
                    self.next_file = self.next_file.max(file.as_u64() + 1);
                    self.next_version = self.next_version.max(version.as_u64() + 1);
                } else {
                    let map = ChunkMap::from_entries(entries.clone());
                    self.apply_version(
                        path,
                        Some(*file),
                        *version,
                        map,
                        placements,
                        *replication,
                        *mtime,
                    );
                }
            }
            MetaRecord::Prune { path, versions } => {
                self.drop_versions(path, versions, &mut scratch);
                // Mirror the live path's `drop_file_if_empty`: a purge
                // that empties a file removes its entry, so a later
                // re-creation gets a fresh FileId. Keeping the stale
                // entry here would make replay resurrect the old id and
                // diverge from the Commit record that follows. (No
                // reservation check — replay has no reservations, and a
                // Commit replay re-creates the entry from its file hint.)
                if self.files.get(path).is_some_and(|f| f.versions.is_empty()) {
                    self.files.remove(path);
                }
            }
            MetaRecord::Delete { path } => {
                let all: Vec<VersionId> = self
                    .files
                    .get(path)
                    .map(|f| f.versions.iter().map(|v| v.version).collect())
                    .unwrap_or_default();
                self.drop_versions(path, &all, &mut scratch);
                self.files.remove(path);
            }
            MetaRecord::SetPolicy { dir, policy } => {
                self.dirs.insert(dir.clone(), *policy);
            }
            MetaRecord::Benefactor { node, addr, total } => {
                self.adopt_benefactor(*node, addr.clone(), *total, now);
            }
            MetaRecord::Churn { session, .. } => {
                // Rebuild the durable churn ledger; the sliding departure
                // window stays empty (stale departures must not throttle a
                // freshly restarted manager).
                self.churn.fold(*session);
            }
            MetaRecord::Dedup { summary, .. } => {
                // Rebuild the wire-savings ledger only; commit counts and
                // every other ManagerStats counter stay at zero across a
                // restart.
                self.dedup.fold(summary);
            }
        }
    }

    /// Registers a benefactor from durable membership state: online (the
    /// liveness timeout reaps it if it never heartbeats) with `gc_due`
    /// set so its first heartbeat pulls a full inventory report.
    fn adopt_benefactor(&mut self, node: NodeId, addr: String, total: u64, now: Time) {
        let info = self.benefactors.entry(node).or_insert(BenefactorInfo {
            free: total,
            total,
            reserved: 0,
            last_seen: now,
            online: true,
            gc_due: true,
            addr: String::new(),
        });
        info.total = total;
        if !addr.is_empty() {
            info.addr = addr;
        }
        // A newly adopted id is online, so chunks listing it may gain a
        // live holder.
        self.repair_keys_stale = true;
        self.churn.note_online(node, now);
        self.next_node = self.next_node.max(node.as_u64() + 1);
    }

    /// Increments refcounts for every distinct chunk of `map` (restore
    /// path; the inverse of [`Manager::decref_map`]), stamping the
    /// referencing version for repair prioritization.
    fn incref_map(&mut self, map: &ChunkMap, version: VersionId) {
        let sizes: HashMap<ChunkId, u32> = map.entries().iter().map(|e| (e.id, e.size)).collect();
        // Newest versions feed the repair keys.
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
            meta.last_version = meta.last_version.max(version.as_u64());
        }
    }

    /// Removes the named versions from `path` and decrefs their maps.
    fn drop_versions(&mut self, path: &str, versions: &[VersionId], out: &mut ActionQueue) {
        let Some(file) = self.files.get_mut(path) else {
            return;
        };
        let mut dropped = Vec::new();
        file.versions.retain(|v| {
            if versions.contains(&v.version) {
                dropped.push(v.clone());
                false
            } else {
                true
            }
        });
        for record in dropped {
            self.decref_map(&record.map, out);
        }
    }
}
