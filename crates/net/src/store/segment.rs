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
//! The record framing, group-commit flusher, torn-tail scan and directory
//! lock live in the shared [`log`](crate::log) engine core (the manager's
//! metadata WAL is built on the same pieces); this module adds what is
//! chunk-specific — the `ChunkId → location` index, rotation bookkeeping,
//! and liveness-driven compaction.
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
//! mutation tracks per-segment live/total counters; when a sealed segment's
//! dead ratio crosses [`SegmentStoreConfig::compact_dead_ratio`] its live
//! records are re-appended to the active segment (verbatim — the CRC is
//! position-independent), the copy is synced, and the old file is deleted.
//! The benefactor's GC `delete` flow is what drives segments dead, so
//! space reclamation rides the existing maintenance loop with no extra
//! background thread.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use stdchk_util::ordlock::OrderedMutex;

use crate::ranks;

use stdchk_proto::ids::ChunkId;

use crate::log::{
    acquire_dir_lock, encode_header, read_record, record_size, write_all_two, DirLock, GroupCommit,
    SyncDelay, HEADER,
};

use super::ChunkStore;

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

/// One segment file plus its live/total byte accounting.
#[derive(Debug)]
struct Segment {
    file: Arc<File>,
    /// Bytes of records whose chunk is still live in the index.
    live: u64,
    /// Bytes appended to this segment in total (records and tombstones).
    total: u64,
}

/// Mutable store state behind the writer lock.
#[derive(Debug)]
struct Shared {
    index: HashMap<ChunkId, Loc>,
    segs: HashMap<u64, Segment>,
    /// Number of the active (append) segment — always the max key of `segs`.
    active: u64,
    /// Bytes appended to the active segment so far.
    active_len: u64,
    /// Monotonic count of bytes appended across all segments; group commit
    /// waits on this watermark.
    appended: u64,
    /// Files sealed by rotation whose `sync_data` is still owed. Rotation
    /// defers the seal sync here instead of running it inline — the
    /// appending thread may be an I/O-lane pump that must never eat an
    /// fsync — and the flusher (or an inline durability point) syncs them
    /// before the active file, preserving "syncing up to `appended` covers
    /// every sealed byte".
    pending_seals: Vec<Arc<File>>,
    /// A compaction is in progress (re-entrancy guard: its appends can
    /// rotate, and rotation's sweep must not nest another compaction).
    compacting: bool,
    /// Deferred-maintenance mode only: sealed segments over the dead
    /// threshold, waiting for [`ChunkStore::maintain`] to compact them
    /// (on the disk I/O lane) instead of the mutating thread.
    compact_queue: Vec<u64>,
}

/// State shared between the store handle and its background flusher. The
/// group-commit watermark machinery lives in the reusable
/// [`GroupCommit`] core (`crate::log`); this struct adds the store's own
/// index state.
struct Core {
    shared: OrderedMutex<Shared>,
    gc: GroupCommit,
}

/// Append-only segment-log chunk store with group commit (see the module
/// docs for the design).
pub struct SegmentStore {
    dir: PathBuf,
    cfg: SegmentStoreConfig,
    core: Arc<Core>,
    /// Deferred-maintenance mode (see [`ChunkStore::set_deferred_maintenance`]).
    deferred: std::sync::atomic::AtomicBool,
    flusher: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
    /// Exclusive claim on the directory, released on drop.
    _dir_lock: DirLock,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        self.core.gc.begin_shutdown();
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
    }
}

fn seg_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:016x}.log"))
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
    /// into the in-memory index, and truncates a torn tail record (one the
    /// crash cut short) so the log ends on a valid record boundary.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating, listing, scanning or truncating the
    /// segment files, and with [`io::ErrorKind::AddrInUse`] when another
    /// live process (or store in this process) owns the directory.
    pub fn open_with(dir: impl AsRef<Path>, cfg: SegmentStoreConfig) -> io::Result<SegmentStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let dir_lock = acquire_dir_lock(&dir)?;

        // Discover segments.
        let mut numbers = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(hex) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(n) = u64::from_str_radix(hex, 16) {
                    numbers.push(n);
                }
            }
        }
        numbers.sort_unstable();

        let mut shared = Shared {
            index: HashMap::new(),
            segs: HashMap::new(),
            active: 0,
            active_len: 0,
            appended: 0,
            pending_seals: Vec::new(),
            compacting: false,
            compact_queue: Vec::new(),
        };

        // Replay, oldest segment first (compaction only ever moves records
        // forward, so ascending segment number is ascending record age).
        for &n in &numbers {
            let path = seg_path(&dir, n);
            let file = OpenOptions::new().read(true).append(true).open(&path)?;
            let file_len = file.metadata()?.len();
            let mut off = 0u64;
            let mut live = 0u64;
            while off < file_len {
                match read_record(&file, off, file_len, KIND_TOMBSTONE)? {
                    Some(rec) => {
                        let size = record_size(rec.payload.len() as u32);
                        let id = ChunkId(rec.key);
                        match rec.kind {
                            KIND_PUT => {
                                let old = shared.index.insert(
                                    id,
                                    Loc {
                                        seg: n,
                                        off,
                                        len: rec.payload.len() as u32,
                                    },
                                );
                                live += size;
                                if let Some(old) = old {
                                    let dead = record_size(old.len);
                                    if old.seg == n {
                                        live -= dead;
                                    } else if let Some(s) = shared.segs.get_mut(&old.seg) {
                                        s.live -= dead;
                                    }
                                }
                            }
                            _ => {
                                if let Some(old) = shared.index.remove(&id) {
                                    let dead = record_size(old.len);
                                    if old.seg == n {
                                        live -= dead;
                                    } else if let Some(s) = shared.segs.get_mut(&old.seg) {
                                        s.live -= dead;
                                    }
                                }
                            }
                        }
                        off += size;
                    }
                    None => {
                        // Torn tail: drop the unparseable suffix so the next
                        // append starts on a record boundary.
                        file.set_len(off)?;
                        break;
                    }
                }
            }
            shared.segs.insert(
                n,
                Segment {
                    file: Arc::new(file),
                    live,
                    total: off,
                },
            );
            shared.appended += off;
            shared.active = n;
            shared.active_len = off;
        }

        if shared.segs.is_empty() {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(seg_path(&dir, 0))?;
            shared.segs.insert(
                0,
                Segment {
                    file: Arc::new(file),
                    live: 0,
                    total: 0,
                },
            );
        }

        let core = Arc::new(Core {
            gc: GroupCommit::new(shared.appended),
            shared: OrderedMutex::new(ranks::STORE_SHARED, "segment.shared", shared),
        });
        let core2 = Arc::clone(&core);
        let flusher = std::thread::Builder::new()
            .name("stdchk-seg-flush".into())
            .spawn(move || {
                // Snapshot under the shared lock: rotation hands
                // sealed-but-unsynced files over via `pending_seals`, so
                // syncing those plus the current active file makes
                // everything up to the appended count durable.
                core2.gc.flusher_loop(|| {
                    let mut shared = core2.shared.lock();
                    let seals = std::mem::take(&mut shared.pending_seals);
                    (
                        shared.appended,
                        seals,
                        Arc::clone(&shared.segs[&shared.active].file),
                    )
                })
            })
            .map_err(io::Error::other)?;
        let store = SegmentStore {
            dir,
            cfg,
            core,
            deferred: std::sync::atomic::AtomicBool::new(false),
            flusher: OrderedMutex::new(ranks::STORE_FLUSHER, "segment.flusher", Some(flusher)),
            _dir_lock: dir_lock,
        };
        // A crash (or an old layout) may have left mostly-dead sealed
        // segments behind; reclaim them before serving.
        {
            let mut shared = store.core.shared.lock();
            store.sweep_sealed(&mut shared)?;
        }
        Ok(store)
    }

    /// Number of segment files currently on disk (tests and benches use
    /// this to observe rotation and compaction).
    pub fn segment_count(&self) -> usize {
        self.core.shared.lock().segs.len()
    }

    /// Total `sync_data` calls issued. `puts / sync_count()` is the
    /// group-commit batch factor achieved under the current load.
    pub fn sync_count(&self) -> u64 {
        self.core.gc.sync_count()
    }

    /// One `sync_data`, counted.
    fn sync_file(&self, file: &File) -> io::Result<()> {
        self.core.gc.count_sync();
        file.sync_data()
    }

    /// Inline durability point: syncs every pending sealed file plus the
    /// active segment, after which everything appended so far may be
    /// marked durable. Caller holds the shared lock.
    fn sync_all(&self, shared: &mut Shared) -> io::Result<()> {
        let seals = std::mem::take(&mut shared.pending_seals);
        for sealed in &seals {
            if let Err(e) = self.sync_file(sealed) {
                // The seal list was drained; a sealed file of unknown
                // durability can never be made safe again.
                self.core.gc.poison();
                return Err(e);
            }
        }
        self.sync_file(&shared.segs[&shared.active].file)
    }

    /// Test/bench fault-injection handle for this store's flusher (see
    /// [`SyncDelay`]).
    pub fn sync_faults(&self) -> SyncDelay {
        self.core.gc.sync_faults().clone()
    }

    /// Seals the active segment and opens the next one. Caller holds the
    /// shared lock. The sealed file's `sync_data` is *deferred* to the
    /// flusher via `pending_seals` (an appending thread — possibly an
    /// I/O-lane pump — must never eat an inline fsync); group commit
    /// still covers sealed bytes because the flusher syncs pending seals
    /// before advancing the durable watermark.
    fn rotate(&self, shared: &mut Shared) -> io::Result<()> {
        let sealed = Arc::clone(&shared.segs[&shared.active].file);
        shared.pending_seals.push(sealed);
        let next = shared.active + 1;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(seg_path(&self.dir, next))?;
        shared.segs.insert(
            next,
            Segment {
                file: Arc::new(file),
                live: 0,
                total: 0,
            },
        );
        shared.active = next;
        shared.active_len = 0;
        // Seal-time sweep: the segment just sealed may already be past the
        // dead threshold (every chunk deleted/overwritten while it was
        // active) and no future delete will name it. In deferred mode the
        // candidates queue for `maintain` (the I/O lane) instead — the
        // rotating thread may be a pump that must not eat compaction
        // fsyncs.
        if self.is_deferred() {
            let sealed: Vec<u64> = shared
                .segs
                .keys()
                .copied()
                .filter(|&k| k != shared.active)
                .collect();
            for n in sealed {
                self.queue_candidate(shared, n);
            }
        } else {
            self.sweep_sealed(shared)?;
        }
        Ok(())
    }

    /// Appends `header ‖ payload` to the active segment (rotating first if
    /// full) and returns `(segment, offset, appended-watermark)`. Caller
    /// holds the shared lock.
    fn append(
        &self,
        shared: &mut Shared,
        header: &[u8],
        payload: &[u8],
    ) -> io::Result<(u64, u64, u64)> {
        if shared.active_len >= self.cfg.segment_bytes {
            self.rotate(shared)?;
        }
        if self.core.gc.is_poisoned() {
            return Err(io::Error::other(
                "segment log poisoned by earlier I/O failure",
            ));
        }
        let seg = shared.active;
        let off = shared.active_len;
        if let Err(e) = write_all_two(&shared.segs[&seg].file, header, payload) {
            // A partial record may be on disk. Roll the file back to the
            // last good boundary so later appends and recovery stay
            // aligned with the index; if even that fails, poison the
            // store — continuing would corrupt acked data.
            let file = &shared.segs[&seg].file;
            let rolled_back = file.set_len(off).is_ok()
                && file.metadata().map(|m| m.len() == off).unwrap_or(false);
            if !rolled_back {
                self.core.gc.poison();
            }
            return Err(e);
        }
        let added = (header.len() + payload.len()) as u64;
        // stdchk-allow(no-unwrap-on-hot-paths): `seg` was read from shared.active under this same guard; rotate inserts the entry before publishing the id
        let s = shared.segs.get_mut(&seg).expect("active segment exists");
        s.total += added;
        shared.active_len += added;
        shared.appended += added;
        // Publish and kick the flusher now so writeback overlaps the rest
        // of the batch.
        self.core.gc.note_appended(shared.appended);
        Ok((seg, off, shared.appended))
    }

    /// Blocks until everything appended up to `target` is durable — i.e.
    /// covered by one of the flusher's batched `sync_data` calls.
    fn group_commit(&self, target: u64) -> io::Result<()> {
        self.core.gc.wait_durable(target)
    }

    /// Rewrites the still-needed records of sealed segment `n` to the
    /// active segment and deletes its file. Caller holds the shared lock.
    ///
    /// Live chunk records move verbatim (the CRC is position-independent).
    /// Tombstones are trickier: one may guard against a stale put of the
    /// same id sitting in an *older* segment, so a tombstone is dropped
    /// only if the id is live again (a newer put supersedes it) or no
    /// older segment remains; otherwise it is carried forward.
    fn compact(&self, shared: &mut Shared, n: u64) -> io::Result<()> {
        debug_assert_ne!(n, shared.active, "never compact the active segment");
        let (src, total) = {
            let s = &shared.segs[&n];
            (Arc::clone(&s.file), s.total)
        };
        let no_older_segment = shared.segs.keys().all(|&k| k >= n);
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
                    self.append(shared, &header, &[])?;
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
                    let (seg, new_off, _) = self.append(shared, &buf, &[])?;
                    shared.index.insert(
                        id,
                        Loc {
                            seg,
                            off: new_off,
                            len,
                        },
                    );
                    // stdchk-allow(no-unwrap-on-hot-paths): compaction/recovery just inserted or re-read this segment id under the same shared guard
                    let s = shared.segs.get_mut(&seg).expect("active segment exists");
                    s.live += size;
                }
            }
            off += size;
        }
        // The copies must be durable before the originals disappear. The
        // inline sync must also cover any rotation-deferred seal syncs,
        // or marking `appended` durable would over-promise.
        self.sync_all(shared)?;
        self.core.gc.mark_durable(shared.appended);
        shared.segs.remove(&n);
        fs::remove_file(seg_path(&self.dir, n))?;
        Ok(())
    }

    /// True when deferred-maintenance mode routes compaction through
    /// [`ChunkStore::maintain`] instead of the mutating thread.
    fn is_deferred(&self) -> bool {
        self.deferred.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether sealed segment `n` has crossed the dead-byte threshold.
    fn over_threshold(&self, shared: &Shared, n: u64) -> bool {
        if n == shared.active {
            return false;
        }
        let Some(s) = shared.segs.get(&n) else {
            return false;
        };
        s.total > 0 && 1.0 - (s.live as f64 / s.total as f64) >= self.cfg.compact_dead_ratio
    }

    /// Deferred mode: remembers `n` for the next [`ChunkStore::maintain`]
    /// instead of compacting here. Caller holds the shared lock.
    fn queue_candidate(&self, shared: &mut Shared, n: u64) {
        if self.over_threshold(shared, n) && !shared.compact_queue.contains(&n) {
            shared.compact_queue.push(n);
        }
    }

    /// Compacts sealed segment `n` if its dead ratio crossed the threshold.
    /// Caller holds the shared lock. Re-entrancy guarded: a compaction's
    /// own appends can rotate the active segment, whose seal-time sweep
    /// must not start a nested compaction.
    fn maybe_compact(&self, shared: &mut Shared, n: u64) -> io::Result<()> {
        if shared.compacting || !self.over_threshold(shared, n) {
            return Ok(());
        }
        shared.compacting = true;
        let res = self.compact(shared, n);
        shared.compacting = false;
        res
    }

    /// Checks every sealed segment against the compaction threshold. Runs
    /// at open (crash may have left fully-dead segments) and at rotation
    /// (a segment sealed 100%-dead — all its chunks deleted or overwritten
    /// while it was active — is never named by a future delete, so seal
    /// time is the last natural trigger).
    fn sweep_sealed(&self, shared: &mut Shared) -> io::Result<()> {
        let mut sealed: Vec<u64> = shared
            .segs
            .keys()
            .copied()
            .filter(|&k| k != shared.active)
            .collect();
        sealed.sort_unstable();
        for n in sealed {
            self.maybe_compact(shared, n)?;
        }
        Ok(())
    }
}

impl SegmentStore {
    /// Appends one put record (header + payload) and indexes it, returning
    /// the append watermark to commit to. Caller holds the shared lock.
    fn append_put(
        &self,
        shared: &mut Shared,
        id: ChunkId,
        header: &[u8; HEADER],
        payload: &[u8],
    ) -> io::Result<u64> {
        let (seg, off, target) = self.append(shared, header, payload)?;
        let old = shared.index.insert(
            id,
            Loc {
                seg,
                off,
                len: payload.len() as u32,
            },
        );
        // stdchk-allow(no-unwrap-on-hot-paths): compaction/recovery just inserted or re-read this segment id under the same shared guard
        let s = shared.segs.get_mut(&seg).expect("active segment exists");
        s.live += record_size(payload.len() as u32);
        if let Some(old) = old {
            // The overwrite strands the old record. No compaction here —
            // the put path must stay O(chunk); stranded segments are
            // reclaimed by the GC/delete flow or the seal-time sweep.
            if let Some(s) = shared.segs.get_mut(&old.seg) {
                s.live -= record_size(old.len);
            }
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
            let mut shared = self.core.shared.lock();
            target = self.append_put(&mut shared, *id, &header, data)?;
        }
        Ok(target)
    }

    fn wait_put(&self, token: u64) -> io::Result<()> {
        if token > 0 {
            self.group_commit(token)?;
        }
        Ok(())
    }

    fn set_deferred_maintenance(&self, deferred: bool) {
        self.deferred
            .store(deferred, std::sync::atomic::Ordering::Relaxed);
    }

    /// Compacts every queued candidate. Runs on the caller's thread —
    /// the benefactor schedules it on the disk I/O lane after deletes
    /// and store batches. The shared lock is held across each
    /// compaction (as it always was for the inline path), so store
    /// mutations contend with a running compaction; what this mode
    /// removes is the pump *itself* eating the copy + fsync.
    fn maintain(&self) -> io::Result<()> {
        let mut shared = self.core.shared.lock();
        let mut pending = std::mem::take(&mut shared.compact_queue);
        while let Some(n) = pending.pop() {
            if let Err(e) = self.maybe_compact(&mut shared, n) {
                // Unprocessed candidates stay queued for the next call.
                pending.push(n);
                shared.compact_queue.extend(pending);
                return Err(e);
            }
        }
        Ok(())
    }

    fn get(&self, id: ChunkId) -> io::Result<Option<Bytes>> {
        let (file, loc) = {
            let shared = self.core.shared.lock();
            let Some(loc) = shared.index.get(&id).copied() else {
                return Ok(None);
            };
            let Some(seg) = shared.segs.get(&loc.seg) else {
                return Ok(None);
            };
            (Arc::clone(&seg.file), loc)
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
            let shared = self.core.shared.lock();
            let loc = shared.index.get(&id).copied()?;
            if loc.seg == shared.active {
                return None; // unsealed: still being appended to
            }
            let seg = shared.segs.get(&loc.seg)?;
            (Arc::clone(&seg.file), loc)
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
        let mut shared = self.core.shared.lock();
        let Some(old) = shared.index.remove(&id) else {
            return Ok(()); // absent deletes are fine (and append nothing)
        };
        if let Some(s) = shared.segs.get_mut(&old.seg) {
            s.live -= record_size(old.len);
        }
        // Tombstone so a restart does not resurrect the chunk. Not synced:
        // losing it to a crash only re-surfaces a chunk the next GC pass
        // deletes again. The tombstone append itself stays on this
        // thread in every mode — it is what fixes the delete's position
        // in the record order.
        let header = encode_header(KIND_TOMBSTONE, id.as_bytes(), &[]);
        self.append(&mut shared, &header, &[])?;
        if self.is_deferred() {
            // Compaction (and its fsyncs) waits for `maintain` on the
            // I/O lane; this thread may be a reactor pump.
            self.queue_candidate(&mut shared, old.seg);
        } else {
            self.maybe_compact(&mut shared, old.seg)?;
        }
        Ok(())
    }

    fn ids(&self) -> io::Result<Vec<ChunkId>> {
        Ok(self.core.shared.lock().index.keys().copied().collect())
    }

    fn entries(&self) -> io::Result<Vec<(ChunkId, u32)>> {
        Ok(self
            .core
            .shared
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
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stdchk-seg-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
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
        let dir = tmp("torn");
        let (id, data) = chunk(3, 512);
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.put(id, &data).unwrap();
        }
        // Simulate a crash mid-append: half a record of garbage at the tail.
        let seg = seg_path(&dir, 0);
        let clean_len = fs::metadata(&seg).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xDE; 23]).unwrap();
        drop(f);

        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(&store.get(id).unwrap().unwrap()[..], &data[..]);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            clean_len,
            "torn suffix must be truncated"
        );
        // And the log accepts appends again.
        let (id2, data2) = chunk(4, 256);
        store.put(id2, &data2).unwrap();
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(&store.get(id2).unwrap().unwrap()[..], &data2[..]);
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
        // I/O-lane mode: deletes must not run compaction (and its
        // fsyncs) on the calling thread; candidates queue until
        // `maintain` — which the benefactor schedules on the lane.
        let dir = tmp("deferred");
        let cfg = SegmentStoreConfig {
            segment_bytes: 8 << 10,
            compact_dead_ratio: 0.5,
        };
        let store = SegmentStore::open_with(&dir, cfg).unwrap();
        store.set_deferred_maintenance(true);
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
