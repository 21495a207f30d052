//! The shared append-only log engine core.
//!
//! Two durable structures in this crate are logs: the benefactor's
//! chunk-payload segment store ([`store::SegmentStore`](crate::store::SegmentStore))
//! and the manager's metadata write-ahead log ([`MetaLog`](crate::MetaLog)).
//! Both need the same mechanics, factored here once:
//!
//! - **record framing** — self-delimiting records
//!   `len ‖ kind ‖ key(32B) ‖ crc32c ‖ payload` whose CRC covers
//!   everything, so a scan can tell a valid record from a torn tail;
//! - **group commit** — writers append then wait on a durable watermark;
//!   a background flusher thread runs one `sync_data` per round covering
//!   every record appended before its snapshot ([`GroupCommit`]);
//! - **torn-tail recovery** — [`scan_records`] walks a segment record by
//!   record and reports the last valid boundary, so the opener can
//!   truncate a crash's half-written suffix;
//! - **directory ownership** — an exclusive pid [`DirLock`] per log
//!   directory, with stale-lock reclaim.
//!
//! What the two users layer on top differs: the segment store keeps a
//! `ChunkId → location` index and compacts by liveness; the metadata log
//! keys nothing (the key field carries a record sequence number) and
//! compacts by snapshotting. Neither policy lives here.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stdchk_util::crc32::Crc32;
use stdchk_util::ordlock::{Condvar, OrderedMutex};

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
/// [`GroupCommit::wait_durable`]. The flusher loop
/// ([`GroupCommit::flusher_loop`]) snapshots the appended watermark, runs
/// one `sync_data` on the active file, and advances the durable
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

    /// Counts one `sync_data` issued outside the flusher (rotation,
    /// compaction) toward the observability counter.
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
    /// durable point. `snapshot` must be taken under the owner's state
    /// lock, and rotation must hand every file it seals over through the
    /// seal list (instead of syncing inline on the appending thread — an
    /// I/O-lane pump must never eat an fsync), so that syncing seals +
    /// active covers everything up to the count. Runs until
    /// [`GroupCommit::begin_shutdown`].
    pub fn flusher_loop(&self, snapshot: impl Fn() -> (u64, Vec<Arc<File>>, Arc<File>)) {
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
