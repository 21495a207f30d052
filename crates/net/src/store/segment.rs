//! The append-only segment-log storage engine ([`SegmentStore`]).
//!
//! stdchk's headline requirement is burst ingest: striped checkpoint
//! writes must land on a benefactor's disk "as fast as the hardware
//! allows". A one-file-per-chunk layout pays file creation, an fsync and a
//! rename *per chunk*, which caps small-chunk ingest at the metadata rate
//! of the file system instead of its sequential bandwidth. This engine is
//! the classic log-structured answer (bitcask lineage): all puts append to
//! one active segment file, durability is batched, and space is reclaimed
//! by compacting mostly-dead segments.
//!
//! The segment files themselves — framing, discovery, torn-tail
//! truncation, append, rotation, group commit and the directory lock —
//! are the shared [`log`](crate::log) engine (the manager's metadata WAL
//! runs on the same one); this module adds what is chunk-specific: the
//! `ChunkId → location` index, per-segment liveness and compaction.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files:
//!
//! ```text
//! donated-dir/
//!   LOCK                          ← pid of the owning process
//!   seg-0000000000000000.log
//!   seg-0000000000000001.log      ← sealed (read-only)
//!   seg-0000000000000002.log      ← active (append-only)
//! ```
//!
//! The `LOCK` file makes directory ownership exclusive: a second open —
//! another benefactor process pointed at the same donated directory —
//! fails fast instead of interleaving appends. Locks from crashed
//! processes are reclaimed automatically.
//!
//! Each segment is a sequence of self-delimiting records:
//!
//! ```text
//! ┌─────────┬────────┬─────────────┬─────────┬───────────────┐
//! │ len u32 │ kind u8│ chunk id 32B│ crc32c  │ payload (len) │
//! │ LE      │ 0=put  │ (sha-256)   │ u32 LE  │               │
//! │         │ 1=del  │             │         │               │
//! └─────────┴────────┴─────────────┴─────────┴───────────────┘
//!   41-byte header; crc32c covers len ‖ kind ‖ id ‖ payload
//! ```
//!
//! Deletes append a `kind=1` tombstone (empty payload) so a restart does
//! not resurrect the chunk. The in-memory index maps `ChunkId → (segment,
//! offset, len)`; lookups never touch disk, reads are one `pread`.
//!
//! # Group commit
//!
//! Every put goes through one path: [`ChunkStore::submit_put_batch`]
//! appends the records under the writer lock and returns the appended
//! watermark, and [`ChunkStore::wait_put`] waits for that watermark to
//! become durable (`put` is the two back to back). A dedicated flusher
//! thread watches the appended watermark, runs one `sync_data` on the
//! active segment per round, and advances the durable watermark for every
//! record that landed before the snapshot — the same trick databases use
//! for their WAL, with the flusher shape additionally overlapping
//! writeback with ongoing appends/checksumming. Batches form two ways:
//! concurrent writers (striped sessions land on a benefactor over
//! parallel connections) share one flush, and the benefactor submits a
//! whole drained burst of chunks and waits once, on its disk I/O lane.
//!
//! # Crash recovery
//!
//! Opening scans segments in order, replaying puts and tombstones into the
//! index. A record whose header is cut short or whose CRC does not match is
//! a *torn tail* — the crash happened mid-append — and the segment is
//! truncated to the last valid record. Everything that was acknowledged
//! (i.e. group-committed) lies before the torn record, so acked chunks
//! always survive.
//!
//! # Compaction
//!
//! Overwrites and deletes strand dead bytes in sealed segments. Each
//! mutation tracks per-segment live bytes; when a sealed segment's dead
//! ratio crosses [`SegmentStoreConfig::compact_dead_ratio`] its live
//! records are re-appended to the active segment (verbatim — the CRC is
//! position-independent), the copy is synced, and the old file is deleted.
//! Compaction runs in two places only: at open, and in
//! [`ChunkStore::maintain`], which the benefactor calls on its disk I/O
//! lane after deletes and store batches — so neither a delete nor a
//! rotation ever compacts on the thread that caused it, and no extra
//! background thread exists.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;

use crate::ranks;

use stdchk_proto::ids::ChunkId;

use crate::log::{
    acquire_dir_lock, encode_header, record_size, LogHandle, LogState, SegmentedLog, SyncDelay,
    HEADER,
};

use super::ChunkStore;

/// Segment file-name prefix.
const PREFIX: &str = "seg-";
/// Record kind byte: a chunk payload.
const KIND_PUT: u8 = 0;
/// Record kind byte: a tombstone.
const KIND_TOMBSTONE: u8 = 1;

/// Tuning knobs of a [`SegmentStore`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentStoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Compact a sealed segment once `dead / total` reaches this ratio.
    pub compact_dead_ratio: f64,
}

impl Default for SegmentStoreConfig {
    fn default() -> Self {
        SegmentStoreConfig {
            segment_bytes: 64 << 20,
            compact_dead_ratio: 0.5,
        }
    }
}

/// Where a live chunk's record sits.
#[derive(Clone, Copy, Debug)]
struct Loc {
    seg: u64,
    off: u64,
    len: u32,
}

/// Mutable store state behind the writer lock.
#[derive(Debug)]
struct Shared {
    index: HashMap<ChunkId, Loc>,
    /// Bytes of records per segment that the index still points at.
    live: HashMap<u64, u64>,
    segs: SegmentedLog,
}

impl LogState for Shared {
    fn log(&mut self) -> &mut SegmentedLog {
        &mut self.segs
    }
}

/// Subtracts the record at `old`, which the index no longer points at,
/// from its segment's live bytes.
fn unlive(live: &mut HashMap<u64, u64>, old: Loc) {
    if let Some(l) = live.get_mut(&old.seg) {
        *l -= record_size(old.len);
    }
}

/// Append-only segment-log chunk store with group commit (see the module
/// docs for the design).
pub struct SegmentStore {
    dir: PathBuf,
    cfg: SegmentStoreConfig,
    log: LogHandle<Shared>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl SegmentStore {
    /// Opens (creating if needed) a store rooted at `dir` with default
    /// tuning, recovering the index from the segment log.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating, listing, scanning or truncating the
    /// segment files.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SegmentStore> {
        SegmentStore::open_with(dir, SegmentStoreConfig::default())
    }

    /// Opens with explicit [`SegmentStoreConfig`] tuning.
    ///
    /// Recovery scans every segment in order, replays puts and tombstones
    /// into the in-memory index, truncates a torn tail record (one the
    /// crash cut short) so the log ends on a valid record boundary, and
    /// compacts sealed segments that are past the dead threshold.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating, listing, scanning or truncating the
    /// segment files, and with [`io::ErrorKind::AddrInUse`] when another
    /// live process (or store in this process) owns the directory.
    pub fn open_with(dir: impl AsRef<Path>, cfg: SegmentStoreConfig) -> io::Result<SegmentStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = acquire_dir_lock(&dir)?;
        // Replay, oldest segment first (compaction only ever moves records
        // forward, so ascending segment number is ascending record age).
        let mut index = HashMap::new();
        let mut live = HashMap::new();
        let segs = SegmentedLog::open(
            &dir,
            lock,
            PREFIX,
            0,
            cfg.segment_bytes,
            KIND_TOMBSTONE,
            |seg, off, rec| {
                let id = ChunkId(rec.key);
                let old = if rec.kind == KIND_PUT {
                    let len = rec.payload.len() as u32;
                    *live.entry(seg).or_insert(0) += record_size(len);
                    index.insert(id, Loc { seg, off, len })
                } else {
                    index.remove(&id)
                };
                if let Some(old) = old {
                    unlive(&mut live, old);
                }
                Ok(())
            },
        )?;
        let shared = Shared { index, live, segs };
        let store = SegmentStore {
            dir,
            cfg,
            log: LogHandle::start(
                shared,
                ranks::STORE_SHARED,
                "segment.shared",
                "stdchk-seg-flush",
            )?,
        };
        // A crash (or an old layout) may have left mostly-dead sealed
        // segments behind; reclaim them before serving.
        store.maintain()?;
        Ok(store)
    }

    /// Number of segment files currently on disk (tests and benches use
    /// this to observe rotation and compaction).
    pub fn segment_count(&self) -> usize {
        self.log.lock().segs.segment_count()
    }

    /// Total `sync_data` calls issued. `puts / sync_count()` is the
    /// group-commit batch factor achieved under the current load.
    pub fn sync_count(&self) -> u64 {
        self.log.gc().sync_count()
    }

    /// Test/bench fault-injection handle for this store's flusher (see
    /// [`SyncDelay`]).
    pub fn sync_faults(&self) -> SyncDelay {
        self.log.gc().sync_faults().clone()
    }

    /// Whether a sealed segment of `total` bytes, `live` of them live,
    /// has crossed the dead-byte threshold.
    fn dead_enough(&self, live: u64, total: u64) -> bool {
        total > 0 && 1.0 - (live as f64 / total as f64) >= self.cfg.compact_dead_ratio
    }

    /// Rewrites the still-needed records of sealed segment `n` (`total`
    /// bytes) to the active segment and deletes its file. Caller holds
    /// the shared lock.
    ///
    /// Live chunk records move verbatim (the CRC is position-independent).
    /// Tombstones are trickier: one may guard against a stale put of the
    /// same id sitting in an *older* segment, so a tombstone is dropped
    /// only if the id is live again (a newer put supersedes it) or no
    /// older segment remains; otherwise it is carried forward.
    fn compact(&self, shared: &mut Shared, n: u64, total: u64) -> io::Result<()> {
        let Some(src) = shared.segs.file(n).cloned() else {
            return Ok(());
        };
        let gc = self.log.gc();
        let no_older_segment = shared.segs.sealed().all(|(k, _)| k >= n);
        let file_len = src.metadata()?.len().min(total);
        let mut off = 0u64;
        let mut buf = Vec::new();
        while off < file_len {
            let mut header = [0u8; HEADER];
            src.read_exact_at(&mut header, off)?;
            let len = crate::log::le_u32(&header, 0);
            let kind = header[4];
            let size = record_size(len);
            let mut id = [0u8; 32];
            id.copy_from_slice(&header[5..37]);
            let id = ChunkId(id);
            if kind == KIND_TOMBSTONE {
                if !shared.index.contains_key(&id) && !no_older_segment {
                    // Still guarding an older stale put: carry it forward.
                    shared.segs.append(gc, &header, &[])?;
                }
            } else {
                // Move the record only if the index still points at it
                // (stale overwritten versions die with the segment).
                let is_current = matches!(
                    shared.index.get(&id),
                    Some(l) if l.seg == n && l.off == off
                );
                if is_current {
                    buf.resize(size as usize, 0);
                    src.read_exact_at(&mut buf, off)?;
                    let (seg, new_off, _) = shared.segs.append(gc, &buf, &[])?;
                    shared.index.insert(
                        id,
                        Loc {
                            seg,
                            off: new_off,
                            len,
                        },
                    );
                    *shared.live.entry(seg).or_insert(0) += size;
                }
            }
            off += size;
        }
        // The copies must be durable before the original disappears.
        shared.segs.sync_all(gc)?;
        shared.live.remove(&n);
        shared.segs.remove(n)
    }

    /// Appends one put record (header + payload) and indexes it, returning
    /// the append watermark to commit to. Caller holds the shared lock.
    fn append_put(
        &self,
        shared: &mut Shared,
        id: ChunkId,
        header: &[u8; HEADER],
        payload: &[u8],
    ) -> io::Result<u64> {
        let (seg, off, target) = shared.segs.append(self.log.gc(), header, payload)?;
        let len = payload.len() as u32;
        *shared.live.entry(seg).or_insert(0) += record_size(len);
        if let Some(old) = shared.index.insert(id, Loc { seg, off, len }) {
            // The overwrite strands the old record. No compaction here —
            // the put path must stay O(chunk); `maintain` reclaims it.
            unlive(&mut shared.live, old);
        }
        Ok(target)
    }
}

impl ChunkStore for SegmentStore {
    fn put(&self, id: ChunkId, data: &[u8]) -> io::Result<()> {
        let target = self.submit_put_batch(&[(id, data)])?;
        self.wait_put(target)
    }

    /// The nonblocking submission half: interleaves checksumming and
    /// appending record by record — the flusher is already pushing
    /// earlier records to the platter while later ones are still being
    /// CRC'd — and returns the watermark one [`ChunkStore::wait_put`]
    /// group commit must cover. Appending inline (on the submitting
    /// thread) is what fixes the on-disk record order at submission
    /// time: a tombstone or overwrite executed after this call lands
    /// after these records no matter when the lane runs the wait.
    fn submit_put_batch(&self, batch: &[(ChunkId, &[u8])]) -> io::Result<u64> {
        let mut target = 0;
        for (id, data) in batch {
            let header = encode_header(KIND_PUT, id.as_bytes(), data);
            let mut shared = self.log.lock();
            target = self.append_put(&mut shared, *id, &header, data)?;
        }
        Ok(target)
    }

    /// Blocks until everything appended up to `token` is durable — i.e.
    /// covered by one of the flusher's batched `sync_data` calls.
    fn wait_put(&self, token: u64) -> io::Result<()> {
        if token > 0 {
            self.log.gc().wait_durable(token)?;
        }
        Ok(())
    }

    /// Compacts every sealed segment past the dead threshold, oldest
    /// first — the only place besides open that compacts. Runs on the
    /// caller's thread: the benefactor calls it on its disk I/O lane
    /// after deletes and store batches. The shared lock is held across
    /// the sweep, so store mutations wait out a running compaction. Cheap
    /// when no segment qualifies.
    fn maintain(&self) -> io::Result<()> {
        let mut shared = self.log.lock();
        let due: Vec<(u64, u64)> = shared
            .segs
            .sealed()
            .filter(|&(n, total)| {
                self.dead_enough(shared.live.get(&n).copied().unwrap_or(0), total)
            })
            .collect();
        for (n, total) in due {
            self.compact(&mut shared, n, total)?;
        }
        Ok(())
    }

    fn get(&self, id: ChunkId) -> io::Result<Option<Bytes>> {
        let (file, loc) = {
            let shared = self.log.lock();
            let Some(loc) = shared.index.get(&id).copied() else {
                return Ok(None);
            };
            let Some(file) = shared.segs.file(loc.seg) else {
                return Ok(None);
            };
            (Arc::clone(file), loc)
        };
        // pread outside the lock: the Arc keeps the file readable even if a
        // concurrent compaction unlinks the segment.
        let mut buf = vec![0u8; HEADER + loc.len as usize];
        file.read_exact_at(&mut buf, loc.off)?;
        let len = crate::log::le_u32(&buf, 0);
        if !(len == loc.len && buf[4] == KIND_PUT && buf[5..37] == *id.as_bytes()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment record failed integrity check",
            ));
        }
        // Zero-copy sub-slice; the header stays in the shared allocation.
        Ok(Some(Bytes::from(buf).slice(HEADER..)))
    }

    /// Sealed records are immutable on disk, so their payload can go to a
    /// socket with `sendfile` straight from the segment file. Records still
    /// in the active segment fall back to [`ChunkStore::get`] (`None`).
    /// The 41-byte record header is still read and checked here — only
    /// the payload bytes skip user space.
    fn read_region(&self, id: ChunkId) -> Option<super::FileRegion> {
        let (file, loc) = {
            let shared = self.log.lock();
            let loc = shared.index.get(&id).copied()?;
            if loc.seg == shared.segs.active() {
                return None; // unsealed: still being appended to
            }
            (Arc::clone(shared.segs.file(loc.seg)?), loc)
        };
        let mut hdr = [0u8; HEADER];
        if file.read_exact_at(&mut hdr, loc.off).is_err() {
            return None;
        }
        let len = crate::log::le_u32(&hdr, 0);
        if !(len == loc.len && hdr[4] == KIND_PUT && hdr[5..37] == *id.as_bytes()) {
            return None; // let `get` surface the corruption as an error
        }
        Some(super::FileRegion {
            file,
            offset: loc.off + HEADER as u64,
            len: loc.len,
        })
    }

    fn delete(&self, id: ChunkId) -> io::Result<()> {
        let mut shared = self.log.lock();
        let Some(old) = shared.index.remove(&id) else {
            return Ok(()); // absent deletes are fine (and append nothing)
        };
        unlive(&mut shared.live, old);
        // Tombstone so a restart does not resurrect the chunk. Not synced:
        // losing it to a crash only re-surfaces a chunk the next GC pass
        // deletes again. Appending it here fixes the delete's position in
        // the record order; the segment it killed waits for `maintain`.
        let header = encode_header(KIND_TOMBSTONE, id.as_bytes(), &[]);
        shared.segs.append(self.log.gc(), &header, &[])?;
        Ok(())
    }

    fn ids(&self) -> io::Result<Vec<ChunkId>> {
        Ok(self.log.lock().index.keys().copied().collect())
    }

    fn entries(&self) -> io::Result<Vec<(ChunkId, u32)>> {
        Ok(self
            .log
            .lock()
            .index
            .iter()
            .map(|(id, loc)| (*id, loc.len))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stdchk-seg-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn seg_path(dir: &Path, n: u64) -> PathBuf {
        crate::log::numbered_path(dir, PREFIX, n, crate::log::SEGMENT_SUFFIX)
    }

    fn chunk(i: u64, len: usize) -> (ChunkId, Vec<u8>) {
        let data: Vec<u8> = (0..len)
            .map(|j| (stdchk_util::mix64(i ^ j as u64) & 0xFF) as u8)
            .collect();
        (ChunkId::for_content(&data), data)
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp("rotate");
        let cfg = SegmentStoreConfig {
            segment_bytes: 4 << 10,
            ..Default::default()
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        let mut ids = Vec::new();
        for i in 0..16 {
            let (id, data) = chunk(i, 1 << 10);
            store.put(id, &data).unwrap();
            ids.push((id, data));
        }
        assert!(store.segment_count() > 1, "small cap must force rotation");
        for (id, data) in &ids {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_index_and_survives_tombstones() {
        let dir = tmp("reopen");
        let (id_a, data_a) = chunk(1, 700);
        let (id_b, data_b) = chunk(2, 900);
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.put(id_a, &data_a).unwrap();
            store.put(id_b, &data_b).unwrap();
            store.delete(id_a).unwrap();
        }
        let store = SegmentStore::open(&dir).unwrap();
        assert!(store.get(id_a).unwrap().is_none(), "tombstone must persist");
        assert_eq!(&store.get(id_b).unwrap().unwrap()[..], &data_b[..]);
        assert_eq!(store.entries().unwrap(), vec![(id_b, 900)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        // Three records, then a crash that cuts the third at every byte
        // offset, header and payload alike.
        let src = tmp("torn-src");
        let chunks: Vec<_> = (0..3).map(|i| chunk(3 + i, 64)).collect();
        let mut ends = Vec::new();
        {
            let store = SegmentStore::open(&src).unwrap();
            for (id, data) in &chunks {
                store.put(*id, data).unwrap();
                ends.push(fs::metadata(seg_path(&src, 0)).unwrap().len());
            }
        }
        let full = fs::read(seg_path(&src, 0)).unwrap();
        let dir = tmp("torn");
        let seg = seg_path(&dir, 0);
        let (id_new, data_new) = chunk(9, 256);
        for cut in ends[1] + 1..ends[2] {
            fs::remove_dir_all(&dir).ok();
            fs::create_dir_all(&dir).unwrap();
            fs::write(&seg, &full[..cut as usize]).unwrap();
            let store = SegmentStore::open(&dir).unwrap();
            for (id, data) in &chunks[..2] {
                assert_eq!(
                    &store.get(*id).unwrap().unwrap()[..],
                    &data[..],
                    "cut {cut}"
                );
            }
            assert!(store.get(chunks[2].0).unwrap().is_none(), "cut {cut}");
            assert_eq!(
                fs::metadata(&seg).unwrap().len(),
                ends[1],
                "torn suffix must be truncated (cut {cut})"
            );
            // And the log accepts appends again.
            store.put(id_new, &data_new).unwrap();
            drop(store);
            let store = SegmentStore::open(&dir).unwrap();
            for (id, data) in chunks[..2].iter().chain([&(id_new, data_new.clone())]) {
                assert_eq!(
                    &store.get(*id).unwrap().unwrap()[..],
                    &data[..],
                    "cut {cut}"
                );
            }
        }
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_reclaims_dead_segments() {
        let dir = tmp("compact");
        let cfg = SegmentStoreConfig {
            segment_bytes: 8 << 10,
            compact_dead_ratio: 0.5,
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        let mut ids = Vec::new();
        for i in 0..32 {
            let (id, data) = chunk(100 + i, 1 << 10);
            store.put(id, &data).unwrap();
            ids.push((id, data));
        }
        let before = store.segment_count();
        assert!(before >= 4);
        // Kill three quarters of the chunks: sealed segments cross the dead
        // threshold and compact away.
        for (id, _) in ids.iter().take(24) {
            store.delete(*id).unwrap();
        }
        store.maintain().unwrap();
        assert!(
            store.segment_count() < before,
            "compaction must remove mostly-dead segments ({} -> {})",
            before,
            store.segment_count()
        );
        for (id, data) in ids.iter().skip(24) {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        // Survivors must still be there after a restart.
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        for (id, data) in ids.iter().skip(24) {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        assert_eq!(store.ids().unwrap().len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_same_id_keeps_latest_and_accounts_dead_bytes() {
        let dir = tmp("overwrite");
        let store = SegmentStore::open(&dir).unwrap();
        let (id, data) = chunk(7, 1024);
        store.put(id, &data).unwrap();
        store.put(id, &data).unwrap();
        store.put(id, &data).unwrap();
        assert_eq!(&store.get(id).unwrap().unwrap()[..], &data[..]);
        assert_eq!(store.ids().unwrap(), vec![id]);
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(&store.get(id).unwrap().unwrap()[..], &data[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_of_a_live_directory_fails_fast() {
        let dir = tmp("lock");
        let store = SegmentStore::open(&dir).unwrap();
        let err = SegmentStore::open(&dir).expect_err("double open must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        drop(store);
        // Clean drop releases the lock.
        SegmentStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = tmp("stalelock");
        std::fs::create_dir_all(&dir).unwrap();
        // A pid that is guaranteed dead: a child we already reaped.
        let dead = std::process::Command::new("true")
            .spawn()
            .and_then(|mut c| c.wait().map(|_| c.id()))
            .expect("spawn true");
        std::fs::write(dir.join("LOCK"), dead.to_string()).unwrap();
        let store = SegmentStore::open(&dir).expect("stale lock must be reclaimed");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_sealed_fully_dead_is_reclaimed_at_rotation() {
        let dir = tmp("dead-seal");
        let cfg = SegmentStoreConfig {
            segment_bytes: 4 << 10,
            ..Default::default()
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        // Fill segment 0, then kill all of it while it is still active.
        let mut ids = Vec::new();
        for i in 0..4 {
            let (id, data) = chunk(200 + i, 1 << 10);
            store.put(id, &data).unwrap();
            ids.push(id);
        }
        for id in &ids {
            store.delete(*id).unwrap();
        }
        // Next puts rotate; the sealed, 100%-dead segment must vanish even
        // though no future delete will ever name it.
        for i in 0..8 {
            let (id, data) = chunk(300 + i, 1 << 10);
            store.put(id, &data).unwrap();
        }
        store.maintain().unwrap();
        assert!(
            !seg_path(&dir, 0).exists(),
            "fully-dead sealed segment must be swept at rotation"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_never_resurrects_deleted_chunks() {
        let dir = tmp("resurrect");
        // Record size is 41 + 1024 = 1065; four records fill a segment.
        let cfg = SegmentStoreConfig {
            segment_bytes: 4 << 10,
            compact_dead_ratio: 0.3,
        };
        let (victim_id, victim_data) = chunk(500, 1 << 10);
        {
            let store = SegmentStore::open_with(&dir, cfg).unwrap();
            // Segment 0: the victim plus ballast that stays live, keeping
            // segment 0 below the compaction threshold after the victim
            // dies — so the victim's stale put record stays on disk.
            store.put(victim_id, &victim_data).unwrap();
            for i in 0..3 {
                let (id, data) = chunk(600 + i, 1 << 10);
                store.put(id, &data).unwrap();
            }
            // Segment 1: short-lived chunks plus the victim's tombstone.
            let mut doomed = Vec::new();
            for i in 0..3 {
                let (id, data) = chunk(700 + i, 1 << 10);
                store.put(id, &data).unwrap();
                doomed.push(id);
            }
            store.delete(victim_id).unwrap(); // tombstone lands in segment 1
            let (id, data) = chunk(703, 1 << 10);
            store.put(id, &data).unwrap();
            doomed.push(id);
            // Deleting the doomed chunks drives segment 1 over the dead
            // threshold: its compaction must carry the victim's tombstone
            // forward, not drop it, while segment 0 still holds the put.
            for id in doomed {
                store.delete(id).unwrap();
            }
            store.maintain().unwrap();
            assert!(
                !seg_path(&dir, 1).exists(),
                "test setup must actually compact the tombstone's segment"
            );
            assert!(
                seg_path(&dir, 0).exists(),
                "test setup must keep the victim's put record on disk"
            );
            assert!(store.get(victim_id).unwrap().is_none());
        }
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        assert!(
            store.get(victim_id).unwrap().is_none(),
            "compaction dropped a tombstone still guarding an older record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deferred_maintenance_compacts_only_in_maintain() {
        // Deletes never run compaction (and its fsyncs) on the calling
        // thread; it waits for `maintain`, which the benefactor
        // schedules on its I/O lane.
        let dir = tmp("deferred");
        let cfg = SegmentStoreConfig {
            segment_bytes: 8 << 10,
            compact_dead_ratio: 0.5,
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        let mut ids = Vec::new();
        for i in 0..32 {
            let (id, data) = chunk(400 + i, 1 << 10);
            store.put(id, &data).unwrap();
            ids.push((id, data));
        }
        let before = store.segment_count();
        assert!(before >= 4);
        for (id, _) in ids.iter().take(24) {
            store.delete(*id).unwrap();
        }
        // Tombstone appends may rotate (count can grow), but nothing may
        // be compacted away on the deleting thread.
        assert!(
            store.segment_count() >= before,
            "deferred mode must not compact on the deleting thread ({} -> {})",
            before,
            store.segment_count()
        );
        store.maintain().unwrap();
        assert!(
            store.segment_count() < before,
            "maintain must run the queued compactions ({} -> {})",
            before,
            store.segment_count()
        );
        for (id, data) in ids.iter().skip(24) {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        // And the survivors replay after a restart.
        drop(store);
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        assert_eq!(store.ids().unwrap().len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_then_wait_split_survives_rotation_and_restart() {
        // The I/O-lane split: submit (append, fix record order) on one
        // "thread", wait (group commit) later — with a tiny segment cap
        // so the batch rotates mid-submit, exercising the deferred
        // seal-sync path (the flusher must sync the sealed file before
        // the wait may return).
        let dir = tmp("lane-split");
        let cfg = SegmentStoreConfig {
            segment_bytes: 4 << 10,
            ..Default::default()
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        let chunks: Vec<_> = (0..12).map(|i| chunk(900 + i, 1 << 10)).collect();
        let batch: Vec<(ChunkId, &[u8])> = chunks.iter().map(|(id, d)| (*id, &d[..])).collect();
        let token = store.submit_put_batch(&batch).unwrap();
        assert!(token > 0);
        assert!(store.segment_count() > 1, "batch must span a rotation");
        store.wait_put(token).unwrap();
        drop(store);
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        for (id, data) in &chunks {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_group_commit() {
        let dir = tmp("group");
        let store = Arc::new(SegmentStore::open(&dir).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..16 {
                    let (id, data) = chunk(t * 1000 + i, 4 << 10);
                    store.put(id, &data).unwrap();
                    ids.push((id, data));
                }
                ids
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        for (id, data) in &all {
            assert_eq!(&store.get(*id).unwrap().unwrap()[..], &data[..]);
        }
        assert_eq!(store.ids().unwrap().len(), all.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
