//! The manager's durable metadata store: a write-ahead log plus periodic
//! snapshots, built on the shared [`log`](crate::log) segmented-log engine.
//!
//! # Layout
//!
//! ```text
//! meta-dir/
//!   LOCK                          ← pid of the owning process
//!   snap-0000000000000005.snap    ← snapshot covering wal segments < 5
//!   wal-0000000000000005.log      ← sealed
//!   wal-0000000000000006.log      ← active (append-only)
//! ```
//!
//! The WAL segments run on the shared [`log`](crate::log) engine (the
//! chunk segment store uses the same one); this module adds the sequence
//! and order checks and the snapshots.
//!
//! Every WAL record is one framed [`MetaRecord`] (`crate::log` framing:
//! `len ‖ kind ‖ key ‖ crc32c ‖ payload`); the 32-byte key field carries
//! a persistent little-endian sequence number in its first 8 bytes, so
//! recovery can verify the log is gapless. A snapshot file holds a single
//! framed [`MetaSnapshot`] record. The snapshot's file number is the
//! first WAL segment *not* covered by it: opening loads the newest
//! snapshot `snap-k` and replays `wal-n` for every `n ≥ k`, truncating a
//! torn tail exactly like the chunk segment store. A snapshot is written
//! whole and synced before it is renamed into place, so one that fails
//! validation fails the open instead of being skipped.
//!
//! # Ordering
//!
//! Replay only reproduces the manager if log order equals mutation
//! order. The manager stamps each
//! [`Action::MetaAppend`](stdchk_core::node::Action::MetaAppend) with a
//! mutation-order `seq` (assigned under its state lock) and runs on an
//! *ordered* `NodeHost`: batches execute in queue order, which is also
//! what keeps a reply from overtaking the append that guards it.
//!
//! The log has one append path, split in two for the disk I/O lane.
//! [`MetaLog::submit_append_batch`] appends on the submitting thread and
//! checks that the stamps arrive in order; the ordered host is the only
//! submitter, so a gap is a driver bug and poisons the log.
//! [`MetaLog::wait_appended`] then runs one group-commit wait per batch
//! on a lane worker — the same flusher design the chunk store uses — so
//! the pump that drained the batch never blocks on the fsync tail.
//!
//! # Snapshots
//!
//! [`MetaLog::install_with`] captures the snapshot *under the append
//! lock* — so it covers every record in the segments about to be pruned —
//! and rotates the WAL to the segment number the snapshot covers up to;
//! then, on the calling thread, it writes the snapshot through a temp
//! file and a rename and deletes the covered segments and older
//! snapshots. A crash anywhere in that sequence leaves either the old
//! snapshot + full log
//! or the new snapshot + an over-long log — both replay correctly
//! (snapshots are *fuzzy*: replaying a record whose effect the snapshot
//! already contains is detected by version id and skipped, see
//! `Manager::replay`).

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

use stdchk_util::ordlock::OrderedMutex;

use crate::ranks;

use stdchk_proto::codec::Wire;
use stdchk_proto::meta::{MetaRecord, MetaSnapshot};

use crate::log::{
    acquire_dir_lock, encode_header, numbered, numbered_path, record_size, remove_numbered_below,
    write_all_two, LogHandle, LogState, SegmentedLog, SyncDelay, SEGMENT_SUFFIX,
};

/// WAL segment file-name prefix.
const WAL: &str = "wal-";
/// Snapshot file-name prefix and suffix.
const SNAP: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";
/// Record kind byte: one framed [`MetaRecord`].
const KIND_META: u8 = 0;
/// Record kind byte: one framed [`MetaSnapshot`] (snapshot files only).
const KIND_SNAPSHOT: u8 = 1;

/// Tuning knobs of a [`MetaLog`].
#[derive(Clone, Copy, Debug)]
pub struct MetaLogConfig {
    /// Rotate the active WAL segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Ask for a snapshot once this many records accumulated since the
    /// last one (drivers poll [`MetaLog::wants_snapshot`]).
    pub snapshot_every: u64,
}

impl Default for MetaLogConfig {
    fn default() -> Self {
        MetaLogConfig {
            segment_bytes: 16 << 20,
            snapshot_every: 4096,
        }
    }
}

/// What [`MetaLog::open`] recovered from disk: the newest valid snapshot
/// (if any) and every WAL record logged after it, in log order.
#[derive(Clone, Debug, Default)]
pub struct MetaRecovery {
    /// The snapshot to restore from, if one was found.
    pub snapshot: Option<MetaSnapshot>,
    /// Records to replay on top, oldest first.
    pub records: Vec<MetaRecord>,
}

impl MetaRecovery {
    /// The latest timestamp in the recovered state. A restarted manager
    /// resumes its protocol clock *after* this point
    /// (`Clock::starting_at`), keeping replayed mtimes in the new
    /// incarnation's past so mtime ordering and age-based retention
    /// carry across restarts.
    pub fn max_time(&self) -> stdchk_util::Time {
        let mut max = stdchk_util::Time::ZERO;
        if let Some(snap) = &self.snapshot {
            for f in &snap.files {
                for v in &f.versions {
                    max = max.max(v.mtime);
                }
            }
        }
        for r in &self.records {
            if let MetaRecord::Commit { mtime, .. } = r {
                max = max.max(*mtime);
            }
        }
        max
    }
}

/// Mutable log state behind the writer lock.
#[derive(Debug)]
struct Inner {
    wal: SegmentedLog,
    /// Persistent sequence number of the next record (goes in the key).
    next_seq: u64,
    /// Runtime mutation-order stamp expected next (checked on
    /// submission; starts at 0 every process run).
    expected_order: u64,
    /// Records appended since the last snapshot install (or open).
    records_since_snapshot: u64,
}

impl LogState for Inner {
    fn log(&mut self) -> &mut SegmentedLog {
        &mut self.wal
    }
}

/// The manager's write-ahead log + snapshot store (see the module docs).
pub struct MetaLog {
    dir: PathBuf,
    cfg: MetaLogConfig,
    log: LogHandle<Inner>,
    /// Serializes [`MetaLog::install_with`] calls (their second phase
    /// runs outside the append lock).
    install_mx: OrderedMutex<()>,
}

impl std::fmt::Debug for MetaLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaLog")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

fn snap_path(dir: &Path, n: u64) -> PathBuf {
    numbered_path(dir, SNAP, n, SNAP_SUFFIX)
}

impl MetaLog {
    /// Opens (creating if needed) a metadata log rooted at `dir` with
    /// default tuning and returns the recovered snapshot + record tail.
    ///
    /// # Errors
    ///
    /// I/O errors, a framed-but-undecodable record
    /// ([`io::ErrorKind::InvalidData`] — CRC-valid bytes that no longer
    /// parse mean corruption or a format regression, not a torn tail),
    /// an invalid newest snapshot or a sequence gap (both `InvalidData`;
    /// the files stay on disk), or [`io::ErrorKind::AddrInUse`] when
    /// another live process owns the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(MetaLog, MetaRecovery)> {
        MetaLog::open_with(dir, MetaLogConfig::default())
    }

    /// Opens with explicit [`MetaLogConfig`] tuning; see [`MetaLog::open`].
    ///
    /// # Errors
    ///
    /// As [`MetaLog::open`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        cfg: MetaLogConfig,
    ) -> io::Result<(MetaLog, MetaRecovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = acquire_dir_lock(&dir)?;
        // A crash during install_with may leave a temp file behind.
        fs::remove_file(dir.join("snap-tmp")).ok();

        // The newest snapshot is the recovery base. Install writes and
        // syncs it before the rename, so a named snapshot that fails
        // validation is bit rot or a format change: refuse to open rather
        // than fall back, because the WAL segments it covers are gone and
        // replaying the rest would silently drop every version it held.
        // Its frame key anchors the sequence check (the seq of the first
        // record *not* covered); without a snapshot the log must start at
        // seq 0. Either way a missing snapshot, segment or record prefix
        // fails recovery loudly instead of skipping acked records.
        let mut snapshot = None;
        let mut base = 0u64;
        let mut next_seq = 0u64;
        if let Some(&n) = numbered(&dir, SNAP, SNAP_SUFFIX)?.last() {
            let (s, snap_seq) = read_snapshot(&snap_path(&dir, n))?;
            snapshot = Some(s);
            base = n;
            next_seq = snap_seq;
        }

        // Replay the WAL segments the snapshot does not cover; the open
        // deletes the ones it does (a crash between snapshot install and
        // segment pruning leaves them behind).
        let mut records = Vec::new();
        let wal = SegmentedLog::open(
            &dir,
            lock,
            WAL,
            base,
            cfg.segment_bytes,
            KIND_META,
            |_, _, rec| {
                let seq = crate::log::le_u64(&rec.key, 0);
                if seq != next_seq {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("metadata log sequence gap: expected {next_seq}, found {seq}"),
                    ));
                }
                next_seq = seq + 1;
                let record = MetaRecord::from_wire_bytes(&rec.payload).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("undecodable metadata record: {e}"),
                    )
                })?;
                records.push(record);
                Ok(())
            },
        )?;
        let inner = Inner {
            wal,
            next_seq,
            expected_order: 0,
            records_since_snapshot: records.len() as u64,
        };
        Ok((
            MetaLog {
                dir,
                cfg,
                log: LogHandle::start(
                    inner,
                    ranks::METALOG_INNER,
                    "metalog.inner",
                    "stdchk-meta-flush",
                )?,
                install_mx: OrderedMutex::new(ranks::METALOG_INSTALL, "metalog.install", ()),
            },
            MetaRecovery { snapshot, records },
        ))
    }

    /// Appends one record under the inner lock, advancing the seq/order
    /// counters even on failure (the log is poisoned then), and returns
    /// the watermark the record must be committed to.
    fn append_record(&self, inner: &mut Inner, order: u64, record: &MetaRecord) -> io::Result<u64> {
        let payload = record.to_wire_bytes();
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&inner.next_seq.to_le_bytes());
        let header = encode_header(KIND_META, &key, &payload);
        let res = inner.wal.append(self.log.gc(), &header, &payload);
        inner.expected_order = order + 1;
        inner.next_seq += 1;
        inner.records_since_snapshot += 1;
        match res {
            Ok((_, _, target)) => Ok(target),
            Err(e) => {
                // A skipped record would leave a sequence gap no later
                // append can repair; the log is done.
                self.log.gc().poison();
                Err(e)
            }
        }
    }

    /// Appends a batch of `(order stamp, record)` pairs *now* — fixing
    /// WAL order at submission time — without waiting for durability,
    /// and returns the watermark to hand to [`MetaLog::wait_appended`]
    /// (which the manager runs on its disk I/O lane).
    ///
    /// An out-of-order stamp is an *error*: the manager's ordered
    /// `NodeHost` is the only submitter and executes drained batches
    /// strictly in queue order, which is also stamp order, so a
    /// predecessor that has not arrived yet can never arrive.
    ///
    /// # Errors
    ///
    /// I/O failures, a poisoned log, or an out-of-order stamp (a driver
    /// bug; the log is poisoned, as the gap is unrepairable).
    pub fn submit_append_batch(&self, batch: &[(u64, MetaRecord)]) -> io::Result<u64> {
        let mut target = 0;
        let mut inner = self.log.lock();
        for (order, record) in batch {
            if *order != inner.expected_order {
                self.log.gc().poison();
                return Err(io::Error::other(format!(
                    "metadata log submitted out of order: expected {}, got {order}",
                    inner.expected_order
                )));
            }
            target = self.append_record(&mut inner, *order, record)?;
        }
        Ok(target)
    }

    /// Blocks until everything appended up to `target` (a watermark from
    /// [`MetaLog::submit_append_batch`]) is covered by a group commit.
    ///
    /// # Errors
    ///
    /// The flusher failed (the log is dead) or shut down first; nothing
    /// guarded by `target` may be acknowledged.
    pub fn wait_appended(&self, target: u64) -> io::Result<()> {
        if target > 0 {
            self.log.gc().wait_durable(target)?;
        }
        Ok(())
    }

    /// True once the log hit an unrepairable failure (every further
    /// mutation refuses).
    pub fn is_poisoned(&self) -> bool {
        self.log.gc().is_poisoned()
    }

    /// Test/bench fault-injection handle for this log's flusher (see
    /// [`SyncDelay`]).
    pub fn sync_faults(&self) -> SyncDelay {
        self.log.gc().sync_faults().clone()
    }

    /// True once [`MetaLogConfig::snapshot_every`] records accumulated
    /// since the last snapshot; the driver should take a manager
    /// snapshot and [`MetaLog::install_with`] one.
    pub fn wants_snapshot(&self) -> bool {
        self.log.lock().records_since_snapshot >= self.cfg.snapshot_every
    }

    /// Records appended since the last installed snapshot (replay-tail
    /// length; observability and tests).
    pub fn records_since_snapshot(&self) -> u64 {
        self.log.lock().records_since_snapshot
    }

    /// WAL segment files currently on disk (tests observe rotation and
    /// snapshot pruning with this).
    pub fn wal_segment_count(&self) -> io::Result<usize> {
        Ok(numbered(&self.dir, WAL, SEGMENT_SUFFIX)?.len())
    }

    /// Installs a new recovery base: calls `snapshot()` **while holding
    /// the append lock** and seals the WAL segment it covers up to, then
    /// — on the calling thread, with the lock released — writes the
    /// result (temp file + rename + directory sync) and prunes the
    /// covered segments and older snapshots. Crash-safe at every step —
    /// recovery falls back to the old snapshot + full log until the
    /// rename lands.
    ///
    /// The append lock is held only for the capture + rotation pair:
    /// that is what guarantees the snapshot covers every record in the
    /// sealed segments about to be pruned (no append can land between
    /// capturing the state and sealing the boundary), while the
    /// expensive part — serializing and fsyncing a namespace-sized blob,
    /// unlinking segments — runs without stalling commit acks.
    /// Mutations whose records have *not* been appended yet at capture
    /// time are fine: they land in the fresh segment after the boundary
    /// and replay on top of the snapshot, which may therefore be fuzzy
    /// (already containing their effects); `Manager::replay` detects and
    /// skips exactly those records by version id.
    ///
    /// Lock order is log-then-state: the closure may take the manager's
    /// state lock (`host.with_node`), and no append path acquires the log
    /// lock while holding the state lock (the `NodeHost` pump executes
    /// effects with the node released).
    ///
    /// # Errors
    ///
    /// I/O failures rotating, writing, renaming, or pruning. On failure
    /// after the boundary was sealed, the log simply keeps its old
    /// recovery base (and re-requests a snapshot) — nothing covered was
    /// pruned.
    pub fn install_with(&self, snapshot: impl FnOnce() -> MetaSnapshot) -> io::Result<()> {
        // One installer at a time (phase 2 runs outside the append lock).
        let _installing = self.install_mx.lock();

        // Phase 1, under the append lock: capture the state and seal the
        // segment boundary it covers.
        let (snap, base, seq) = {
            let mut inner = self.log.lock();
            let snap = snapshot();
            let base = inner.wal.rotate()?;
            inner.records_since_snapshot = 0;
            (snap, base, inner.next_seq)
        };

        // Phase 2, lock-free: persist the snapshot, then prune what it
        // covers. The sealed segments are frozen, so nothing races the
        // unlinks; a crash anywhere here leaves the old base + full log.
        let res = self.persist_snapshot(&snap, base, seq);
        if res.is_err() {
            // The tail counter was reset optimistically; re-arm so the
            // driver retries the snapshot instead of waiting for another
            // full threshold of records.
            self.log.lock().records_since_snapshot = self.cfg.snapshot_every;
        }
        res
    }

    /// [`MetaLog::install_with`]'s second phase: write the captured
    /// snapshot through a temp file + rename + directory sync, then prune
    /// the WAL segments and older snapshots it covers.
    fn persist_snapshot(&self, snap: &MetaSnapshot, base: u64, seq: u64) -> io::Result<()> {
        let payload = snap.to_wire_bytes();
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seq.to_le_bytes());
        let header = encode_header(KIND_SNAPSHOT, &key, &payload);
        let tmp = self.dir.join("snap-tmp");
        {
            let file = File::create(&tmp)?;
            write_all_two(&file, &header, &payload)?;
            self.log.gc().count_sync();
            file.sync_data()?;
        }
        fs::rename(&tmp, snap_path(&self.dir, base))?;
        // The rename itself must survive a crash.
        File::open(&self.dir)?.sync_all()?;
        self.log.lock().wal.forget_below(base);
        remove_numbered_below(&self.dir, WAL, SEGMENT_SUFFIX, base)?;
        remove_numbered_below(&self.dir, SNAP, SNAP_SUFFIX, base)
    }
}

/// Reads and validates a snapshot file, returning it plus the sequence
/// number of the first WAL record it does *not* cover (stored in the
/// frame key at install time).
///
/// # Errors
///
/// I/O errors opening or reading the file, and
/// [`io::ErrorKind::InvalidData`] on any framing, CRC, kind or decode
/// failure.
fn read_snapshot(path: &Path) -> io::Result<(MetaSnapshot, u64)> {
    let invalid = |why: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid metadata snapshot {}: {why}", path.display()),
        )
    };
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let rec = crate::log::read_record(&file, 0, len, KIND_SNAPSHOT)?
        .ok_or_else(|| invalid("bad frame or checksum"))?;
    if rec.kind != KIND_SNAPSHOT || record_size(rec.payload.len() as u32) != len {
        return Err(invalid("not a single snapshot record"));
    }
    let seq = crate::log::le_u64(&rec.key, 0);
    let snap = MetaSnapshot::from_wire_bytes(&rec.payload).map_err(|e| invalid(&e.to_string()))?;
    Ok((snap, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdchk_proto::ids::{FileId, NodeId, VersionId};
    use stdchk_proto::policy::RetentionPolicy;
    use stdchk_util::Time;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stdchk-meta-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn wal_path(dir: &Path, n: u64) -> PathBuf {
        numbered_path(dir, WAL, n, SEGMENT_SUFFIX)
    }

    /// Submits one record and waits for it to be durable.
    fn append(mlog: &MetaLog, seq: u64, record: MetaRecord) {
        let target = mlog.submit_append_batch(&[(seq, record)]).unwrap();
        mlog.wait_appended(target).unwrap();
    }

    fn rec(i: u64) -> MetaRecord {
        MetaRecord::SetPolicy {
            dir: format!("/d{i}"),
            policy: RetentionPolicy::AutomatedReplace {
                keep_last: i as u32,
            },
        }
    }

    #[test]
    fn append_and_recover_in_order() {
        let dir = tmp("order");
        {
            let (mlog, recovered) = MetaLog::open(&dir).unwrap();
            assert!(recovered.snapshot.is_none());
            assert!(recovered.records.is_empty());
            for i in 0..10 {
                append(&mlog, i, rec(i));
            }
        }
        let (_mlog, recovered) = MetaLog::open(&dir).unwrap();
        assert_eq!(recovered.records.len(), 10);
        for (i, r) in recovered.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        // Three records, then a crash that cuts the third at every byte
        // offset, header and payload alike.
        let src = tmp("torn-src");
        let mut ends = Vec::new();
        {
            let (mlog, _) = MetaLog::open(&src).unwrap();
            for i in 0..3 {
                append(&mlog, i, rec(i));
                ends.push(fs::metadata(wal_path(&src, 0)).unwrap().len());
            }
        }
        let full = fs::read(wal_path(&src, 0)).unwrap();
        let dir = tmp("torn");
        let seg = wal_path(&dir, 0);
        for cut in ends[1] + 1..ends[2] {
            fs::remove_dir_all(&dir).ok();
            fs::create_dir_all(&dir).unwrap();
            fs::write(&seg, &full[..cut as usize]).unwrap();
            let (mlog, recovered) = MetaLog::open(&dir).unwrap();
            assert_eq!(recovered.records, vec![rec(0), rec(1)], "cut {cut}");
            assert_eq!(
                fs::metadata(&seg).unwrap().len(),
                ends[1],
                "torn suffix must be truncated (cut {cut})"
            );
            // And appends continue on a clean boundary.
            append(&mlog, 0, rec(9));
            drop(mlog);
            let (_m, recovered) = MetaLog::open(&dir).unwrap();
            assert_eq!(recovered.records, vec![rec(0), rec(1), rec(9)], "cut {cut}");
        }
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_then_wait_split_recovers_in_order() {
        let dir = tmp("lane-split");
        {
            let cfg = MetaLogConfig {
                segment_bytes: 256, // force rotation mid-stream
                ..Default::default()
            };
            let (mlog, _) = MetaLog::open_with(&dir, cfg).unwrap();
            let mut target = 0;
            for i in 0..10 {
                target = mlog.submit_append_batch(&[(i, rec(i))]).unwrap();
            }
            assert!(mlog.wal_segment_count().unwrap() > 1);
            mlog.wait_appended(target).unwrap();
        }
        let (_m, recovered) = MetaLog::open(&dir).unwrap();
        assert_eq!(recovered.records.len(), 10);
        for (i, r) in recovered.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_submit_poisons_the_log() {
        // The lane path is single-submitter: a stamp gap can only be a
        // driver bug, and the log must refuse loudly instead of waiting
        // for a predecessor that can never arrive.
        let dir = tmp("lane-gap");
        let (mlog, _) = MetaLog::open(&dir).unwrap();
        mlog.submit_append_batch(&[(0, rec(0))]).unwrap();
        assert!(mlog.submit_append_batch(&[(2, rec(2))]).is_err());
        assert!(mlog.is_poisoned());
        assert!(
            mlog.submit_append_batch(&[(1, rec(1))]).is_err(),
            "poisoned log refuses"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = tmp("snap");
        let snap = MetaSnapshot {
            next_node: 3,
            next_file: 2,
            next_version: 7,
            benefactors: vec![(NodeId(1), "b:1".into(), 99)],
            files: Vec::new(),
            dirs: vec![("/kept".into(), RetentionPolicy::REPLACE)],
            chunks: Vec::new(),
        };
        {
            let cfg = MetaLogConfig {
                segment_bytes: 256, // force rotation
                ..Default::default()
            };
            let (mlog, _) = MetaLog::open_with(&dir, cfg).unwrap();
            for i in 0..20 {
                append(&mlog, i, rec(i));
            }
            assert!(mlog.wal_segment_count().unwrap() > 1);
            mlog.install_with(|| snap.clone()).unwrap();
            assert_eq!(mlog.wal_segment_count().unwrap(), 1, "old segments pruned");
            assert_eq!(mlog.records_since_snapshot(), 0);
            // Post-snapshot tail.
            append(&mlog, 20, rec(100));
        }
        let (_m, recovered) = MetaLog::open(&dir).unwrap();
        assert_eq!(recovered.snapshot, Some(snap));
        assert_eq!(recovered.records, vec![rec(100)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_post_snapshot_segment_fails_recovery() {
        let dir = tmp("gapseg");
        let cfg = MetaLogConfig {
            segment_bytes: 256, // a handful of records per segment
            ..Default::default()
        };
        {
            let (mlog, _) = MetaLog::open_with(&dir, cfg).unwrap();
            for i in 0..4 {
                append(&mlog, i, rec(i));
            }
            mlog.install_with(MetaSnapshot::default).unwrap();
            // Fill the post-snapshot segment past rotation so records
            // span at least two segments after the snapshot base.
            for i in 4..16 {
                append(&mlog, i, rec(i));
            }
            assert!(mlog.wal_segment_count().unwrap() >= 2);
        }
        // Lose the first post-snapshot segment wholesale (disk damage
        // beyond a torn tail). The snapshot's anchored sequence must
        // expose the hole instead of silently skipping acked records.
        let first = numbered(&dir, "wal-", ".log").unwrap()[0];
        fs::remove_file(wal_path(&dir, first)).unwrap();
        let err = MetaLog::open_with(&dir, cfg).expect_err("gap must fail recovery");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `rec(0)`, installs a snapshot over it, then appends
    /// `rec(1)`: the directory holds `snap-1` and a WAL starting at seq 1.
    fn log_with_snapshot(name: &str) -> PathBuf {
        let dir = tmp(name);
        let (mlog, _) = MetaLog::open(&dir).unwrap();
        append(&mlog, 0, rec(0));
        mlog.install_with(MetaSnapshot::default).unwrap();
        append(&mlog, 1, rec(1));
        dir
    }

    #[test]
    fn corrupt_snapshot_fails_open_and_is_kept() {
        let dir = log_with_snapshot("badsnap");
        // Trash the snapshot body.
        let snap = snap_path(&dir, 1);
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&snap, &bytes).unwrap();

        // The pre-snapshot records went with their pruned segments, so
        // replaying the tail alone would silently lose them: the open
        // fails instead, and leaves the evidence in place.
        let err = MetaLog::open(&dir).expect_err("corrupt snapshot must fail recovery");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fs::read(&snap).unwrap(), bytes, "invalid snapshot kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_snapshot_fails_open() {
        let dir = log_with_snapshot("nosnap");
        fs::remove_file(snap_path(&dir, 1)).unwrap();
        // Without a snapshot the log must start at seq 0; this one starts
        // where the lost snapshot ended.
        let err = MetaLog::open(&dir).expect_err("lost snapshot must fail recovery");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_fails_fast() {
        let dir = tmp("lock");
        let (mlog, _) = MetaLog::open(&dir).unwrap();
        assert_eq!(
            MetaLog::open(&dir).unwrap_err().kind(),
            io::ErrorKind::AddrInUse
        );
        drop(mlog);
        MetaLog::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_records_roundtrip_through_the_log() {
        let dir = tmp("commit");
        let commit = MetaRecord::Commit {
            path: "/app/ck.n0".into(),
            file: FileId(1),
            version: VersionId(2),
            mtime: Time::from_secs(4),
            entries: vec![stdchk_proto::chunkmap::ChunkEntry {
                id: stdchk_proto::ids::ChunkId::test_id(8),
                size: 64 << 10,
            }],
            placements: vec![(stdchk_proto::ids::ChunkId::test_id(8), vec![NodeId(1)])],
            replication: 1,
        };
        {
            let (mlog, _) = MetaLog::open(&dir).unwrap();
            let target = mlog
                .submit_append_batch(&[(0, commit.clone()), (1, rec(1))])
                .unwrap();
            mlog.wait_appended(target).unwrap();
        }
        let (_m, recovered) = MetaLog::open(&dir).unwrap();
        assert_eq!(recovered.records, vec![commit, rec(1)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
