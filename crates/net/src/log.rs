//! The segmented-log engine shared by both durable stores.
//!
//! Two durable structures in this crate are logs: the benefactor's
//! chunk-payload segment store ([`store::SegmentStore`](crate::store::SegmentStore))
//! and the manager's metadata write-ahead log ([`MetaLog`](crate::MetaLog)).
//! Every mechanic they share lives here, once:
//!
//! - **record framing** — self-delimiting records
//!   `len ‖ kind ‖ key(32B) ‖ crc32c ‖ payload` whose CRC covers
//!   everything, so a scan can tell a valid record from a torn tail;
//! - **numbered segments** — `{prefix}{n:016x}.log` files in one
//!   directory ([`SegmentedLog`]): discovery, and at open a scan that
//!   hands every valid record to the owner and then truncates a crash's
//!   torn tail — or, when the owner rejects a record, fails with nothing
//!   on disk changed;
//! - **append** — one `writev` per record, rolled back to the record
//!   boundary on failure, or else the log is poisoned;
//! - **rotation** — a full active segment is sealed and its `sync_data`
//!   handed to the flusher, so an appending pump never eats an fsync;
//! - **group commit** — writers append then wait on a durable watermark;
//!   a background flusher thread runs one round of `sync_data` calls
//!   covering every record appended before its snapshot ([`GroupCommit`],
//!   started and joined by [`LogHandle`]), and
//!   [`SegmentedLog::sync_all`] is the inline durability point;
//! - **directory ownership** — an exclusive pid [`DirLock`] per log
//!   directory, with stale-lock reclaim.
//!
//! A [`SegmentedLog`] is plain state: each owner keeps it inside its own
//! lock, next to what it layers on top, so an append takes no extra lock.
//! What the two owners layer on top differs: the segment store keeps a
//! `ChunkId → location` index and compacts by liveness; the metadata log
//! keys nothing (the key field carries a record sequence number) and
//! compacts by snapshotting. Neither policy lives here.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use stdchk_util::crc32::Crc32;
use stdchk_util::ordlock::{Condvar, OrderedGuard, OrderedMutex};

use crate::ranks;

/// Framed-record header size: `len (4) ‖ kind (1) ‖ key (32) ‖ crc32c (4)`.
pub const HEADER: usize = 4 + 1 + 32 + 4;

/// Upper bound accepted for a record payload while scanning — anything
/// larger is treated as a torn/corrupt header rather than allocated.
pub const MAX_RECORD: u32 = 512 << 20;

/// Builds the record header for `key` over `payload`; the payload itself
/// is written separately (`writev`) so hot paths never copy bulk bytes.
/// The CRC covers `len ‖ kind ‖ key ‖ payload` and is
/// position-independent, so records may be copied between segments
/// verbatim.
pub fn encode_header(kind: u8, key: &[u8; 32], payload: &[u8]) -> [u8; HEADER] {
    let mut header = [0u8; HEADER];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = kind;
    header[5..37].copy_from_slice(key);
    let mut crc = Crc32::new();
    crc.update(&header[..37]);
    crc.update(payload);
    header[37..41].copy_from_slice(&crc.finalize().to_le_bytes());
    header
}

/// On-disk size of a record with a `payload_len`-byte payload.
pub fn record_size(payload_len: u32) -> u64 {
    HEADER as u64 + payload_len as u64
}

/// A record parsed back out of a segment.
#[derive(Clone, Debug)]
pub struct Record {
    /// Record kind byte (meaning is the log user's).
    pub kind: u8,
    /// The 32-byte key field.
    pub key: [u8; 32],
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Little-endian `u32` at `b[off..off + 4]`.
///
/// Infallible by construction at every call site: the buffers are
/// fixed-size headers (or 32-byte keys) filled by a checked
/// `read_exact_at`, so the slice is always in bounds and the
/// `try_into().unwrap()` this replaces could never actually fail — but
/// a literal `.unwrap()` on a hot path is indistinguishable from a
/// latent panic in review, so the conversion lives here once, named.
pub(crate) fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// Little-endian `u64` at `b[off..off + 8]`; see [`le_u32`].
pub(crate) fn le_u64(b: &[u8], off: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(v)
}

/// Reads and CRC-verifies the record at `off`. `Ok(None)` means the bytes
/// at `off` do not frame a valid record with `kind <= max_kind` — at the
/// end of an append segment, that is a torn tail.
///
/// # Errors
///
/// I/O errors reading the file.
pub fn read_record(
    file: &File,
    off: u64,
    file_len: u64,
    max_kind: u8,
) -> io::Result<Option<Record>> {
    if file_len.saturating_sub(off) < HEADER as u64 {
        return Ok(None);
    }
    let mut header = [0u8; HEADER];
    file.read_exact_at(&mut header, off)?;
    let len = le_u32(&header, 0);
    let kind = header[4];
    if len > MAX_RECORD
        || kind > max_kind
        || (len as u64) > file_len.saturating_sub(off + HEADER as u64)
    {
        return Ok(None);
    }
    let mut key = [0u8; 32];
    key.copy_from_slice(&header[5..37]);
    let stored_crc = le_u32(&header, 37);
    let mut payload = vec![0u8; len as usize];
    file.read_exact_at(&mut payload, off + HEADER as u64)?;
    let mut crc = Crc32::new();
    crc.update(&header[..37]);
    crc.update(&payload);
    if crc.finalize() != stored_crc {
        return Ok(None);
    }
    Ok(Some(Record { kind, key, payload }))
}

/// Replays a segment record by record, calling `f(offset, record)` for
/// each valid record, and returns the offset of the first byte that does
/// not start a valid record — the boundary the caller should truncate a
/// torn tail back to.
///
/// # Errors
///
/// I/O errors reading the file, or an error returned by `f`.
pub fn scan_records(
    file: &File,
    file_len: u64,
    max_kind: u8,
    mut f: impl FnMut(u64, Record) -> io::Result<()>,
) -> io::Result<u64> {
    let mut off = 0u64;
    while off < file_len {
        match read_record(file, off, file_len, max_kind)? {
            Some(rec) => {
                let size = record_size(rec.payload.len() as u32);
                f(off, rec)?;
                off += size;
            }
            None => break,
        }
    }
    Ok(off)
}

/// `write_all` across two buffers with `writev`, so header + payload land
/// in one syscall without concatenating them first.
///
/// # Errors
///
/// I/O errors of the underlying writes.
pub fn write_all_two(mut file: &File, a: &[u8], b: &[u8]) -> io::Result<()> {
    let (mut ap, mut bp) = (0usize, 0usize);
    while ap < a.len() || bp < b.len() {
        let n = file.write_vectored(&[io::IoSlice::new(&a[ap..]), io::IoSlice::new(&b[bp..])])?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        let take_a = n.min(a.len() - ap);
        ap += take_a;
        bp += n - take_a;
    }
    Ok(())
}

// --------------------------------------------------------------- dir lock

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

/// RAII ownership of a log directory's `LOCK` file.
///
/// Two live writers appending to one directory would interleave records
/// and truncate each other's tails, so a second open must fail fast
/// instead. A lock left by a crashed process (its pid no longer exists)
/// is reclaimed automatically; if a recycled pid makes that check
/// spuriously fail, the operator deletes `LOCK` by hand.
#[derive(Debug)]
pub struct DirLock(PathBuf);

impl Drop for DirLock {
    fn drop(&mut self) {
        fs::remove_file(&self.0).ok();
    }
}

/// Claims exclusive ownership of `dir` via its pid `LOCK` file.
///
/// # Errors
///
/// [`io::ErrorKind::AddrInUse`] when another live process (or another
/// log in this process) owns the directory; I/O errors otherwise.
pub fn acquire_dir_lock(dir: &Path) -> io::Result<DirLock> {
    let path = lock_path(dir);
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let guard = DirLock(path);
                f.write_all(std::process::id().to_string().as_bytes())?;
                return Ok(guard);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let owner = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match owner {
                    Some(pid)
                        if pid != std::process::id()
                            && Path::new(&format!("/proc/{pid}")).exists() =>
                    {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("log directory already locked by live pid {pid}"),
                        ));
                    }
                    Some(pid) if pid == std::process::id() => {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            "log directory already open in this process",
                        ));
                    }
                    // Stale (crashed owner) or unreadable: reclaim, retry.
                    _ => fs::remove_file(&path)?,
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        "log directory lock contended",
    ))
}

// ---------------------------------------------------------- segmented log

/// File-name suffix of every segment.
pub const SEGMENT_SUFFIX: &str = ".log";

/// `dir/{prefix}{n:016x}{suffix}`: the name of numbered file `n`.
pub fn numbered_path(dir: &Path, prefix: &str, n: u64, suffix: &str) -> PathBuf {
    dir.join(format!("{prefix}{n:016x}{suffix}"))
}

/// Numbers of the files in `dir` named `{prefix}{hex}{suffix}`,
/// ascending.
///
/// # Errors
///
/// I/O errors listing the directory.
pub fn numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        {
            out.push(n);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Deletes every `{prefix}{hex}{suffix}` file in `dir` numbered below
/// `n`.
///
/// # Errors
///
/// I/O errors listing the directory or unlinking a file.
pub fn remove_numbered_below(dir: &Path, prefix: &str, suffix: &str, n: u64) -> io::Result<()> {
    for k in numbered(dir, prefix, suffix)? {
        if k < n {
            fs::remove_file(numbered_path(dir, prefix, k, suffix))?;
        }
    }
    Ok(())
}

fn open_segment(path: &Path, create_new: bool) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(!create_new)
        .create_new(create_new)
        .open(path)
}

/// One segment file and the bytes of whole records in it.
#[derive(Debug)]
struct Segment {
    file: Arc<File>,
    len: u64,
}

/// The numbered segment files of one append-only log.
///
/// Plain state: the owner keeps it inside its own lock, next to what it
/// layers on top, and passes the [`GroupCommit`] its writers wait on to
/// the calls that publish or poison. Holds the directory's [`DirLock`]
/// for its lifetime.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    prefix: &'static str,
    /// Rotate the active segment once it holds this many bytes.
    segment_bytes: u64,
    /// Sealed segments by number; never appended to again.
    sealed: BTreeMap<u64, Segment>,
    /// Number of the active segment, above every sealed one.
    active: u64,
    active_seg: Segment,
    /// Monotonic count of bytes appended across all segments (recovered
    /// bytes included); group commit waits on this watermark.
    appended: u64,
    /// Files sealed by rotation whose `sync_data` is still owed. The
    /// flusher (or [`SegmentedLog::sync_all`]) syncs them before the
    /// active file, so syncing up to `appended` covers every sealed byte.
    pending_seals: Vec<Arc<File>>,
    _dir_lock: DirLock,
}

impl SegmentedLog {
    /// Opens the `{prefix}…` segments of `dir`, whose `lock` the caller
    /// already holds, and replays them oldest first: `f(segment, offset,
    /// record)` runs for every valid record with `kind <= max_kind`. The
    /// first bytes of a segment that do not frame one are a crash's torn
    /// tail.
    ///
    /// Only once every record is replayed does the open change the disk:
    /// it truncates each torn tail back to its last record boundary,
    /// deletes segments numbered below `first` (the owner says they are
    /// covered elsewhere; a crash can leave them behind), and creates
    /// segment `first` when no segment remains. The newest segment is the
    /// active one.
    ///
    /// # Errors
    ///
    /// I/O errors, and any error `f` returns — with nothing truncated or
    /// deleted.
    pub fn open(
        dir: &Path,
        lock: DirLock,
        prefix: &'static str,
        first: u64,
        segment_bytes: u64,
        max_kind: u8,
        mut f: impl FnMut(u64, u64, Record) -> io::Result<()>,
    ) -> io::Result<SegmentedLog> {
        let mut found = Vec::new();
        for n in numbered(dir, prefix, SEGMENT_SUFFIX)? {
            if n < first {
                continue;
            }
            let file = open_segment(&numbered_path(dir, prefix, n, SEGMENT_SUFFIX), false)?;
            let file_len = file.metadata()?.len();
            let len = scan_records(&file, file_len, max_kind, |off, rec| f(n, off, rec))?;
            found.push((n, file, file_len, len));
        }
        let mut sealed = BTreeMap::new();
        let mut appended = 0;
        for (n, file, file_len, len) in found {
            if len < file_len {
                file.set_len(len)?;
            }
            appended += len;
            let file = Arc::new(file);
            sealed.insert(n, Segment { file, len });
        }
        remove_numbered_below(dir, prefix, SEGMENT_SUFFIX, first)?;
        let (active, active_seg) = match sealed.pop_last() {
            Some(last) => last,
            None => {
                let path = numbered_path(dir, prefix, first, SEGMENT_SUFFIX);
                let file = Arc::new(open_segment(&path, false)?);
                (first, Segment { file, len: 0 })
            }
        };
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            prefix,
            segment_bytes,
            sealed,
            active,
            active_seg,
            appended,
            pending_seals: Vec::new(),
            _dir_lock: lock,
        })
    }

    /// Number of the active (append) segment.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Segment files in the log, sealed and active.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// `(number, bytes)` of every sealed segment, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sealed.iter().map(|(&n, s)| (n, s.len))
    }

    /// The file of segment `n`, if the log still holds it.
    pub fn file(&self, n: u64) -> Option<&Arc<File>> {
        if n == self.active {
            return Some(&self.active_seg.file);
        }
        self.sealed.get(&n).map(|s| &s.file)
    }

    /// Appends `header ‖ payload` to the active segment, rotating first
    /// when it is full, and returns `(segment, offset, appended
    /// watermark)`; the watermark is published to `gc` at once so
    /// writeback overlaps the rest of a batch.
    ///
    /// # Errors
    ///
    /// I/O errors, or a poisoned `gc`. A failed write is rolled back to
    /// the record boundary; when even that fails, `gc` is poisoned,
    /// because the file no longer ends where the owner's offsets say.
    pub fn append(
        &mut self,
        gc: &GroupCommit,
        header: &[u8],
        payload: &[u8],
    ) -> io::Result<(u64, u64, u64)> {
        if self.active_seg.len >= self.segment_bytes {
            self.rotate()?;
        }
        if gc.is_poisoned() {
            return Err(io::Error::other("log poisoned by an earlier I/O failure"));
        }
        let off = self.active_seg.len;
        let file = &self.active_seg.file;
        if let Err(e) = write_all_two(file, header, payload) {
            let rolled_back = file.set_len(off).is_ok()
                && file.metadata().map(|m| m.len() == off).unwrap_or(false);
            if !rolled_back {
                gc.poison();
            }
            return Err(e);
        }
        let added = (header.len() + payload.len()) as u64;
        self.active_seg.len += added;
        self.appended += added;
        gc.note_appended(self.appended);
        Ok((self.active, off, self.appended))
    }

    /// Seals the active segment, starts the next one and returns its
    /// number. The sealed file's `sync_data` is owed to the flusher (the
    /// appending thread may be an I/O-lane pump, which must never eat an
    /// fsync); group commit still covers the sealed bytes, because every
    /// flush syncs the owed seals before the active file.
    ///
    /// # Errors
    ///
    /// I/O errors creating the next segment; the log is unchanged.
    pub fn rotate(&mut self) -> io::Result<u64> {
        let next = self.active + 1;
        let path = numbered_path(&self.dir, self.prefix, next, SEGMENT_SUFFIX);
        let file = Arc::new(open_segment(&path, true)?);
        let sealed = std::mem::replace(&mut self.active_seg, Segment { file, len: 0 });
        self.pending_seals.push(Arc::clone(&sealed.file));
        self.sealed.insert(self.active, sealed);
        self.active = next;
        Ok(next)
    }

    /// The inline durability point: syncs every owed seal, then the
    /// active segment, and marks everything appended so far durable.
    ///
    /// # Errors
    ///
    /// I/O errors syncing. A failed seal sync poisons `gc`: the seal list
    /// was drained, and a sealed file of unknown durability can never be
    /// made safe again.
    pub fn sync_all(&mut self, gc: &GroupCommit) -> io::Result<()> {
        for sealed in std::mem::take(&mut self.pending_seals) {
            gc.count_sync();
            if let Err(e) = sealed.sync_data() {
                gc.poison();
                return Err(e);
            }
        }
        gc.count_sync();
        self.active_seg.file.sync_data()?;
        gc.mark_durable(self.appended);
        Ok(())
    }

    /// Drops sealed segment `n` from the log and unlinks its file. A
    /// reader that already holds the file keeps reading it.
    ///
    /// # Errors
    ///
    /// I/O errors unlinking the file.
    pub fn remove(&mut self, n: u64) -> io::Result<()> {
        if self.sealed.remove(&n).is_some() {
            fs::remove_file(numbered_path(&self.dir, self.prefix, n, SEGMENT_SUFFIX))?;
        }
        Ok(())
    }

    /// Drops every sealed segment numbered below `n` from the log without
    /// unlinking it, so the owner can unlink the files after releasing
    /// its lock ([`remove_numbered_below`]).
    pub fn forget_below(&mut self, n: u64) {
        self.sealed = self.sealed.split_off(&n);
    }

    /// One flusher round's work: the appended count, the owed seals and
    /// the active file.
    fn flush_batch(&mut self) -> (u64, Vec<Arc<File>>, Arc<File>) {
        (
            self.appended,
            std::mem::take(&mut self.pending_seals),
            Arc::clone(&self.active_seg.file),
        )
    }
}

// ------------------------------------------------------- fault injection

/// Test/bench-only fault injection for `sync_data` calls.
///
/// A cloneable handle wired into a [`GroupCommit`]: tests and benches
/// inject a per-flush delay (modelling a slow platter or a deep device
/// queue) or a hard failure, to observe how fsync tails propagate —
/// e.g. that an unrelated connection's latency stays decoupled from a
/// stalled commit once the disk I/O lane is on. Production code never
/// sets it; the default is a no-op.
#[derive(Clone, Debug, Default)]
pub struct SyncDelay {
    /// Injected delay per flush round, in milliseconds.
    delay_ms: Arc<AtomicU64>,
    /// When set, flushes fail instead of syncing.
    fail: Arc<AtomicBool>,
}

impl SyncDelay {
    /// Injects `delay` before every subsequent flush (zero clears it).
    pub fn set_delay(&self, delay: Duration) {
        self.delay_ms
            .store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// Makes every subsequent flush fail (`false` restores normal
    /// operation — but note a [`GroupCommit`] that already failed stays
    /// poisoned).
    pub fn set_fail(&self, fail: bool) {
        self.fail.store(fail, Ordering::Relaxed);
    }

    /// Applies the injected behavior: sleeps the configured delay, then
    /// errors if failure is armed.
    fn apply(&self) -> io::Result<()> {
        let ms = self.delay_ms.load(Ordering::Relaxed);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if self.fail.load(Ordering::Relaxed) {
            return Err(io::Error::other("injected sync failure"));
        }
        Ok(())
    }
}

// ------------------------------------------------------------ group commit

/// Watermark state behind the commit lock.
#[derive(Debug)]
struct CommitState {
    /// Appended-byte count known durable.
    durable: u64,
    /// The flusher hit an I/O error; the log is dead (sticky).
    failed: bool,
}

/// The group-commit watermark shared by all writers and one flusher.
///
/// Writers append (under their own lock), publish the new appended-byte
/// count with [`GroupCommit::note_appended`], and block in
/// [`GroupCommit::wait_durable`]. The flusher thread ([`LogHandle`])
/// snapshots the appended watermark, runs `sync_data` on the owed seals
/// and the active file, and advances the durable
/// watermark for every record that landed before the snapshot — the same
/// trick databases use for their WAL, with the flusher shape
/// additionally overlapping writeback with ongoing appends/checksums.
pub struct GroupCommit {
    commit: OrderedMutex<CommitState>,
    /// Wakes the flusher when appends outrun the durable watermark.
    work_cv: Condvar,
    /// Wakes committers when the durable watermark advances.
    done_cv: Condvar,
    /// Mirror of the owner's appended count, readable without its lock.
    appended: AtomicU64,
    /// `sync_data` calls issued so far (observability: group-commit batch
    /// factor = appends / syncs).
    syncs: AtomicU64,
    shutdown: AtomicBool,
    /// The log's on-disk tail no longer matches the in-memory offsets (a
    /// failed append could not be rolled back) or the flusher died; every
    /// further mutation must refuse rather than corrupt. Sticky.
    poisoned: AtomicBool,
    /// Test-only injected delay/failure applied per flush round.
    faults: SyncDelay,
}

impl GroupCommit {
    /// A watermark starting with `durable` bytes already safe (what
    /// recovery found on disk).
    pub fn new(durable: u64) -> GroupCommit {
        GroupCommit {
            commit: OrderedMutex::new(
                ranks::GC_COMMIT,
                "log.gc.commit",
                CommitState {
                    durable,
                    failed: false,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            appended: AtomicU64::new(durable),
            syncs: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            faults: SyncDelay::default(),
        }
    }

    /// The watermark's [`SyncDelay`] fault-injection handle (tests and
    /// benches only; see its docs).
    pub fn sync_faults(&self) -> &SyncDelay {
        &self.faults
    }

    /// Publishes a new appended-byte count and kicks the flusher so
    /// writeback overlaps the rest of the batch.
    pub fn note_appended(&self, watermark: u64) {
        self.appended.store(watermark, Ordering::Relaxed);
        self.work_cv.notify_one();
    }

    /// Total `sync_data` calls issued through this watermark.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Counts one `sync_data` issued outside the flusher (the inline
    /// durability point, snapshot files) toward the observability
    /// counter.
    pub fn count_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks everything up to `upto` durable (after an inline sync) and
    /// releases committers waiting below that point.
    pub fn mark_durable(&self, upto: u64) {
        let mut c = self.commit.lock();
        c.durable = c.durable.max(upto);
        self.done_cv.notify_all();
    }

    /// Marks the log permanently unusable (sticky).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// True once poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Blocks until everything appended up to `target` is durable — i.e.
    /// covered by one of the flusher's batched `sync_data` calls.
    ///
    /// # Errors
    ///
    /// Fails once the flusher has hit an I/O error (the log is dead), or
    /// once shutdown began with the target still short of durable (the
    /// flusher is gone; waiting would hang an I/O-lane worker forever).
    pub fn wait_durable(&self, target: u64) -> io::Result<()> {
        let mut c = self.commit.lock();
        loop {
            if c.durable >= target {
                return Ok(());
            }
            if c.failed {
                return Err(io::Error::other("log flush failed"));
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return Err(io::Error::other("log shut down before flush"));
            }
            // Nudge the flusher *while holding the commit lock*: the
            // flusher's predicate check and its wait are atomic under this
            // lock, so this notify can never fall into its check→sleep
            // window (note_appended's lock-free notify is an optimization
            // and may be lost; this one is the liveness guarantee).
            self.work_cv.notify_one();
            self.done_cv.wait(&mut c);
        }
    }

    /// Stops the flusher loop and releases every waiter (committers
    /// still short of their target fail instead of hanging).
    pub fn begin_shutdown(&self) {
        // Flip the flag under the commit lock, like `wait_durable`'s
        // nudge: the flusher checks the flag and parks atomically under
        // this lock, so the notify cannot fall into its check→sleep
        // window and leave the flusher (and the join in `Drop`) parked
        // forever.
        {
            let _c = self.commit.lock();
            self.shutdown.store(true, Ordering::Relaxed);
        }
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// The background group-commit loop: whenever appended bytes outrun
    /// the durable watermark, call `snapshot()` for the current appended
    /// count, any sealed-but-unsynced files, and the active file;
    /// `sync_data` the seals then the active file; and publish the new
    /// durable point. [`LogHandle`] takes the snapshot under the owner's
    /// lock, and rotation hands every file it seals over through the seal
    /// list, so syncing seals + active covers everything up to the count.
    /// Runs until [`GroupCommit::begin_shutdown`].
    fn flusher_loop(&self, snapshot: impl Fn() -> (u64, Vec<Arc<File>>, Arc<File>)) {
        loop {
            {
                let mut c = self.commit.lock();
                while !self.shutdown.load(Ordering::Relaxed)
                    && (c.failed || self.appended.load(Ordering::Relaxed) <= c.durable)
                {
                    self.work_cv.wait(&mut c);
                }
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            let (cum, seals, file) = snapshot();
            let res = self.faults.apply().and_then(|()| {
                for sealed in &seals {
                    self.syncs.fetch_add(1, Ordering::Relaxed);
                    sealed.sync_data()?;
                }
                self.syncs.fetch_add(1, Ordering::Relaxed);
                file.sync_data()
            });
            let mut c = self.commit.lock();
            match res {
                Ok(()) => c.durable = c.durable.max(cum),
                Err(_) => {
                    c.failed = true;
                    self.poison();
                }
            }
            self.done_cv.notify_all();
        }
    }
}

// ------------------------------------------------------------- log handle

/// Owner state that embeds a [`SegmentedLog`].
pub trait LogState: Send + 'static {
    /// The embedded log.
    fn log(&mut self) -> &mut SegmentedLog;
}

struct LogCore<S> {
    state: OrderedMutex<S>,
    gc: GroupCommit,
}

/// An open log: the owner's state `S` behind one lock, the group-commit
/// watermark its writers wait on without that lock, and the flusher
/// thread. Dropping the handle shuts the watermark down (waiters still
/// short of durable fail instead of hanging) and joins the flusher.
pub struct LogHandle<S: LogState> {
    core: Arc<LogCore<S>>,
    flusher: Option<JoinHandle<()>>,
}

impl<S: LogState> LogHandle<S> {
    /// Puts `state` behind a lock of `rank` and starts its flusher
    /// thread, with everything recovery found counted durable.
    ///
    /// # Errors
    ///
    /// The flusher thread could not be spawned.
    pub fn start(
        mut state: S,
        rank: u16,
        lock_name: &'static str,
        thread_name: &str,
    ) -> io::Result<LogHandle<S>> {
        let gc = GroupCommit::new(state.log().appended);
        let core = Arc::new(LogCore {
            state: OrderedMutex::new(rank, lock_name, state),
            gc,
        });
        let c = Arc::clone(&core);
        let flusher = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || c.gc.flusher_loop(|| c.state.lock().log().flush_batch()))
            .map_err(io::Error::other)?;
        Ok(LogHandle {
            core,
            flusher: Some(flusher),
        })
    }

    /// Locks the owner's state.
    pub fn lock(&self) -> OrderedGuard<'_, S> {
        self.core.state.lock()
    }

    /// The group-commit watermark.
    pub fn gc(&self) -> &GroupCommit {
        &self.core.gc
    }
}

impl<S: LogState> Drop for LogHandle<S> {
    fn drop(&mut self) {
        self.core.gc.begin_shutdown();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_through_scan() {
        let dir = std::env::temp_dir().join(format!("stdchk-log-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.log");
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .unwrap();
        let key = [7u8; 32];
        for (kind, payload) in [(0u8, &b"hello"[..]), (1u8, &b""[..]), (0u8, &b"world!"[..])] {
            let header = encode_header(kind, &key, payload);
            write_all_two(&file, &header, payload).unwrap();
        }
        // A torn tail: half a header of garbage.
        write_all_two(&file, &[0xEE; 17], &[]).unwrap();

        let file_len = file.metadata().unwrap().len();
        let mut seen = Vec::new();
        let valid = scan_records(&file, file_len, 1, |off, rec| {
            seen.push((off, rec.kind, rec.payload));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].2, b"hello");
        assert_eq!(seen[2].2, b"world!");
        assert_eq!(valid, file_len - 17, "scan stops at the torn boundary");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_rejects_wrong_kind_and_bad_crc() {
        let dir = std::env::temp_dir().join(format!("stdchk-log-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .truncate(false)
            .open(dir.join("seg.log"))
            .unwrap();
        let header = encode_header(3, &[0u8; 32], b"x");
        write_all_two(&file, &header, b"x").unwrap();
        let len = file.metadata().unwrap().len();
        // kind 3 valid when allowed, torn when the cap is lower.
        assert!(read_record(&file, 0, len, 3).unwrap().is_some());
        assert!(read_record(&file, 0, len, 2).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_lock_excludes_and_reclaims() {
        let dir = std::env::temp_dir().join(format!("stdchk-log-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock = acquire_dir_lock(&dir).unwrap();
        assert_eq!(
            acquire_dir_lock(&dir).unwrap_err().kind(),
            io::ErrorKind::AddrInUse
        );
        drop(lock);
        acquire_dir_lock(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
