//! Chunk blob stores backing a benefactor's scavenged space.
//!
//! The benefactor state machine owns the authoritative chunk *index*; these
//! stores hold the bytes, behind the [`ChunkStore`] trait:
//!
//! - [`SegmentStore`] — the on-disk engine: an append-only segment log
//!   with group commit, crash recovery and compaction (see [`segment`]).
//!   Small-chunk ingest runs at near-sequential disk bandwidth because every
//!   put is one append and one *shared* `sync_data`.
//! - [`MemStore`] — in-memory, for tests and ephemeral pools.
//!
//! # Opening a store
//!
//! ```no_run
//! use stdchk_net::store::{ChunkStore, SegmentStore};
//! use std::sync::Arc;
//!
//! # fn main() -> std::io::Result<()> {
//! // The engine for a donated directory:
//! let store: Arc<dyn ChunkStore> = Arc::new(SegmentStore::open("/scavenge/stdchk")?);
//! # Ok(())
//! # }
//! ```
//!
//! # Durability contract
//!
//! A `put` that returns `Ok` must survive a crash of the benefactor
//! process: the benefactor acks `PutChunk` only after the store reports the
//! bytes durable, and the manager counts that ack toward the write's
//! replication semantics. `delete` is weaker — a deletion lost to a crash
//! merely resurrects a chunk that the next GC pass removes again.

pub mod segment;

use std::collections::HashMap;
use std::fs;
use std::io;

use bytes::Bytes;
use stdchk_util::ordlock::OrderedMutex;

use crate::ranks;

use stdchk_proto::ids::ChunkId;

pub use segment::{SegmentStore, SegmentStoreConfig};

/// A chunk payload addressed as a byte range of an immutable backing file,
/// for kernel-copy transmission (`sendfile` straight from the file to the
/// socket, no user-space pass).
///
/// The `Arc<File>` keeps the descriptor readable for as long as any region
/// is in flight, even if the store unlinks the file meanwhile (segment
/// compaction): on Unix the data stays reachable through the open
/// descriptor. Content addressing makes the bytes stable — a store never
/// rewrites a live record in place.
#[derive(Clone, Debug)]
pub struct FileRegion {
    /// The backing file (shared with the store).
    pub file: std::sync::Arc<fs::File>,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
}

impl FileRegion {
    /// Materializes the region's bytes with one positioned read (the
    /// fallback when the transport cannot splice the file directly).
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium, including a short file.
    pub fn read_bytes(&self) -> io::Result<Bytes> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; self.len as usize];
        self.file.read_exact_at(&mut buf, self.offset)?;
        Ok(Bytes::from(buf))
    }
}

/// Blob storage for chunk payloads.
///
/// Implementations are shared across the benefactor's connection and event
/// threads (`&self` methods, `Send + Sync`), so every method must be safe
/// under arbitrary interleaving — including concurrent `put`s of the *same*
/// chunk id, which content addressing makes idempotent.
pub trait ChunkStore: Send + Sync + 'static {
    /// Persists `data` under `id`. Durable once `Ok` is returned.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn put(&self, id: ChunkId, data: &[u8]) -> io::Result<()>;

    /// Persists a whole batch without waiting for durability: stage or
    /// append it *now* — fixing the engine's record order at submission
    /// time — and return an engine-defined token. The bytes are durable
    /// only once [`ChunkStore::wait_put`] returns `Ok` for that token; the
    /// benefactor hands its queued `Store` actions over together and runs
    /// the wait on its disk I/O lane, so an engine with group commit
    /// ([`SegmentStore`]) covers the batch with a single flush and a pump
    /// never blocks on an fsync tail.
    ///
    /// The default loops [`ChunkStore::put`] and returns a token whose
    /// wait is a no-op (engines without a separable durability wait).
    ///
    /// # Errors
    ///
    /// I/O failures staging the batch; nothing from the batch should be
    /// considered stored.
    fn submit_put_batch(&self, batch: &[(ChunkId, &[u8])]) -> io::Result<u64> {
        for (id, data) in batch {
            self.put(*id, data)?;
        }
        Ok(0)
    }

    /// Blocks until the batch identified by `token` (from
    /// [`ChunkStore::submit_put_batch`]) is durable.
    ///
    /// # Errors
    ///
    /// The batch did not (and will never) become durable; the caller
    /// must ack none of it.
    fn wait_put(&self, token: u64) -> io::Result<()> {
        let _ = token;
        Ok(())
    }

    /// Runs background maintenance (segment compaction) on the calling
    /// thread — the benefactor calls it on its disk I/O lane after
    /// deletes and store batches, so reclamation and its fsyncs never
    /// run on a pump. Mutations never reclaim space themselves. Cheap
    /// when nothing is due. Default: no-op.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium; whatever was not reclaimed is
    /// retried by the next call.
    fn maintain(&self) -> io::Result<()> {
        Ok(())
    }

    /// Reads the chunk back, or `None` if absent.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium, including detected corruption of
    /// a present record.
    fn get(&self, id: ChunkId) -> io::Result<Option<Bytes>>;

    /// The chunk as a [`FileRegion`] suitable for kernel-copy transmit
    /// (`sendfile`), or `None` when the store cannot offer one — chunk
    /// absent, or bytes not in an immutable file (in-memory, still in the
    /// active segment). Callers must treat `None` as "use
    /// [`ChunkStore::get`]", never as "absent".
    ///
    /// Default: `None` (only stores with stable on-disk records opt in).
    fn read_region(&self, id: ChunkId) -> Option<FileRegion> {
        let _ = id;
        None
    }

    /// Deletes the chunk; absent chunks are fine.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn delete(&self, id: ChunkId) -> io::Result<()>;

    /// Ids present in the store (used to seed recovery).
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn ids(&self) -> io::Result<Vec<ChunkId>>;

    /// `(id, size)` pairs for every chunk present — what
    /// [`Benefactor::adopt_existing`](stdchk_core::Benefactor::adopt_existing)
    /// needs to rebuild the benefactor's index at restart.
    ///
    /// The default reads every payload through [`ChunkStore::get`];
    /// implementations with a cheap size source (an in-memory index, file
    /// metadata) should override it so restart cost does not scale with
    /// stored bytes.
    ///
    /// # Errors
    ///
    /// I/O failures of the backing medium.
    fn entries(&self) -> io::Result<Vec<(ChunkId, u32)>> {
        let mut out = Vec::new();
        for id in self.ids()? {
            if let Some(data) = self.get(id)? {
                out.push((id, data.len() as u32));
            }
        }
        Ok(out)
    }
}

/// In-memory store for tests and ephemeral pools.
#[derive(Debug)]
pub struct MemStore {
    blobs: OrderedMutex<HashMap<ChunkId, Bytes>>,
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore {
            blobs: OrderedMutex::new(ranks::STORE_MEM, "memstore.blobs", HashMap::new()),
        }
    }
}

impl ChunkStore for MemStore {
    fn put(&self, id: ChunkId, data: &[u8]) -> io::Result<()> {
        self.blobs.lock().insert(id, Bytes::from(data.to_vec()));
        Ok(())
    }

    fn get(&self, id: ChunkId) -> io::Result<Option<Bytes>> {
        Ok(self.blobs.lock().get(&id).cloned())
    }

    fn delete(&self, id: ChunkId) -> io::Result<()> {
        self.blobs.lock().remove(&id);
        Ok(())
    }

    fn ids(&self) -> io::Result<Vec<ChunkId>> {
        Ok(self.blobs.lock().keys().copied().collect())
    }

    fn entries(&self) -> io::Result<Vec<(ChunkId, u32)>> {
        Ok(self
            .blobs
            .lock()
            .iter()
            .map(|(id, b)| (*id, b.len() as u32))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ChunkStore) {
        let data = b"chunk payload bytes";
        let id = ChunkId::for_content(data);
        assert!(store.get(id).unwrap().is_none());
        store.put(id, data).unwrap();
        assert_eq!(&store.get(id).unwrap().unwrap()[..], data);
        assert_eq!(store.ids().unwrap(), vec![id]);
        assert_eq!(store.entries().unwrap(), vec![(id, data.len() as u32)]);
        store.delete(id).unwrap();
        assert!(store.get(id).unwrap().is_none());
        store.delete(id).unwrap(); // idempotent
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise(&MemStore::new());
    }

    #[test]
    fn segment_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("stdchk-segtrait-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = SegmentStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
