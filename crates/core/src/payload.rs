//! Payload abstraction: real bytes or virtual (size + content tag).
//!
//! The same session/benefactor state machines run under a real driver
//! (payloads carry actual bytes) and the discrete-event simulator (payloads
//! carry only a size and a deterministic *content tag*). Content tags stand
//! in for content: equal tag sequences hash to equal [`ChunkId`]s, so dedup,
//! content addressing and integrity logic behave identically without
//! allocating gigabytes during simulation.
//!
//! [`ChunkAssembler`] cuts payloads into fixed-size chunks and names each
//! by its SHA-256. The networked client hands it the application's
//! buffer through [`ChunkAssembler::push_slice`]: every whole chunk inside
//! the buffer is hashed in place, on every core, and comes back borrowed,
//! so the session copies it only if it has to keep the bytes. Bytes that
//! complete a chunk begun by an earlier call, and the buffer's tail, are
//! copied and take the [`ChunkAssembler::push`] path. [`ChunkBuffers`]
//! keeps buffers that copies handed back, for later copies to reuse.

use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::ChunkId;
use stdchk_util::sha256::Sha256;

/// A write payload: application bytes or their virtual stand-in.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Real application bytes.
    Real(Bytes),
    /// Virtual bytes: `size` bytes whose content is identified by `tag`.
    /// Two virtual payloads with the same `(size, tag)` represent identical
    /// content.
    Virtual {
        /// Logical length in bytes.
        size: u32,
        /// Deterministic content identity.
        tag: u64,
    },
}

impl Payload {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Real(b) => b.len() as u64,
            Payload::Virtual { size, .. } => *size as u64,
        }
    }

    /// True for zero-length payloads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real bytes, or an empty buffer for virtual payloads (what goes
    /// into `PutChunk::data`).
    pub fn bytes(&self) -> Bytes {
        match self {
            Payload::Real(b) => b.clone(),
            Payload::Virtual { .. } => Bytes::new(),
        }
    }

    /// Builds a real payload from a byte vector.
    pub fn real(data: impl Into<Bytes>) -> Payload {
        Payload::Real(data.into())
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload::Real(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Real(Bytes::from(v))
    }
}

/// Accumulates payload segments into fixed-size chunks, hashing content as
/// it streams in (stdchk computes chunk identities *on the write path*, the
/// cost the paper's Figure 7 measures).
///
/// # Examples
///
/// ```
/// use stdchk_core::payload::{ChunkAssembler, ChunkBytes, Payload};
///
/// let mut asm = ChunkAssembler::new(4);
/// let mut done = Vec::new();
/// asm.push(Payload::real(vec![1u8, 2, 3, 4, 5]), &mut done);
/// assert_eq!(done.len(), 1); // one full 4-byte chunk
/// assert_eq!(done[0].entry.size, 4);
/// let tail = asm.finish().expect("partial chunk");
/// assert_eq!(tail.entry.size, 1);
///
/// // A borrowed buffer: its whole chunk comes back borrowed, and its
/// // tail is copied.
/// let buf = [6u8, 7, 8, 9, 10, 11];
/// let mut cut = Vec::new();
/// asm.push_slice(&buf, &mut cut);
/// assert!(matches!(cut[0].bytes, ChunkBytes::Borrowed(b) if b == &buf[..4]));
/// assert_eq!(asm.finish().expect("copied tail").entry.size, 2);
/// ```
#[derive(Debug)]
pub struct ChunkAssembler {
    chunk_size: u32,
    hasher: Sha256,
    segments: Vec<Payload>,
    current: u64,
    virtual_only: bool,
}

/// A completed chunk: its catalog entry plus the payload to ship.
#[derive(Clone, Debug)]
pub struct AssembledChunk {
    /// Content-addressed entry (id + size).
    pub entry: ChunkEntry,
    /// The data to transfer (real bytes, or virtual size).
    pub payload: Payload,
}

/// A chunk's bytes as [`ChunkAssembler::push_slice`] cuts them.
#[derive(Clone, Debug)]
pub enum ChunkBytes<'a> {
    /// Bytes the assembler holds: pushed payloads, or bytes it copied.
    Owned(Payload),
    /// A whole chunk inside the caller's buffer, not copied.
    Borrowed(&'a [u8]),
}

impl ChunkBytes<'_> {
    /// The bytes as a payload; borrowed bytes are copied into a buffer of
    /// their own.
    pub fn into_payload(self) -> Payload {
        match self {
            ChunkBytes::Owned(p) => p,
            ChunkBytes::Borrowed(b) => Payload::real(b.to_vec()),
        }
    }
}

/// Idle buffers for the chunk copies write sessions keep, up to a byte
/// bound. A copy made by [`ChunkBuffers::copy`] hands
/// its buffer back here when its last [`Bytes`] handle drops, and the next
/// copy reuses it, so a client writing version after version copies into
/// memory it has already touched. Left to the allocator, a freed 1 MiB
/// buffer stays mapped or goes back to the system depending on what else
/// lies above it in the heap, so the page faults a copy takes, and with
/// them its cost, would differ from run to run.
///
/// # Examples
///
/// ```
/// use stdchk_core::payload::ChunkBuffers;
///
/// let buffers = ChunkBuffers::new(1 << 20);
/// let copy = buffers.copy(&[1, 2, 3]);
/// assert_eq!(copy.bytes(), vec![1, 2, 3]);
/// drop(copy);
/// assert_eq!(buffers.idle_bytes(), 3);
/// ```
#[derive(Debug)]
pub struct ChunkBuffers {
    idle: Mutex<Idle>,
    max_idle_bytes: u64,
}

#[derive(Debug, Default)]
struct Idle {
    bufs: Vec<Vec<u8>>,
    /// Sum of the capacities in `bufs`.
    bytes: u64,
}

/// A buffer on loan from [`ChunkBuffers`]; dropping it hands it back.
struct Loaned {
    buf: Vec<u8>,
    home: Arc<ChunkBuffers>,
}

impl AsRef<[u8]> for Loaned {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Loaned {
    fn drop(&mut self) {
        self.home.put_back(std::mem::take(&mut self.buf));
    }
}

impl ChunkBuffers {
    /// Buffers that keep at most `max_idle_bytes` of idle capacity; 0
    /// keeps none, so every copy is a fresh allocation.
    pub fn new(max_idle_bytes: u64) -> Arc<ChunkBuffers> {
        Arc::new(ChunkBuffers {
            idle: Mutex::new(Idle::default()),
            max_idle_bytes,
        })
    }

    /// A copy of `data` in an idle buffer, or in a new one of its own
    /// size when no idle buffer fits.
    pub fn copy(self: &Arc<Self>, data: &[u8]) -> Payload {
        let reused = {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            match idle.bufs.pop() {
                Some(buf) => {
                    idle.bytes -= buf.capacity() as u64;
                    Some(buf)
                }
                None => None,
            }
        };
        // An idle buffer too small for `data` is freed, not kept.
        let mut buf = reused
            .filter(|b| b.capacity() >= data.len())
            .unwrap_or_else(|| Vec::with_capacity(data.len()));
        buf.clear();
        buf.extend_from_slice(data);
        Payload::Real(Bytes::from_owner(Loaned {
            buf,
            home: Arc::clone(self),
        }))
    }

    /// Idle capacity held for reuse, in bytes.
    pub fn idle_bytes(&self) -> u64 {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes
    }

    fn put_back(&self, buf: Vec<u8>) {
        let cap = buf.capacity() as u64;
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.bytes + cap <= self.max_idle_bytes {
            idle.bytes += cap;
            idle.bufs.push(buf);
        }
    }
}

/// A chunk cut by [`ChunkAssembler::push_slice`]: its catalog entry plus
/// its bytes, which may still borrow the caller's buffer.
#[derive(Clone, Debug)]
pub struct SliceChunk<'a> {
    /// Content-addressed entry (id + size).
    pub entry: ChunkEntry,
    /// The chunk's bytes.
    pub bytes: ChunkBytes<'a>,
}

impl ChunkAssembler {
    /// Creates an assembler cutting chunks of `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: u32) -> ChunkAssembler {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunkAssembler {
            chunk_size,
            hasher: Sha256::new(),
            segments: Vec::new(),
            current: 0,
            virtual_only: true,
        }
    }

    /// Bytes accumulated toward the current (incomplete) chunk.
    pub fn pending_bytes(&self) -> u64 {
        self.current
    }

    /// Feeds a payload, emitting every chunk it completes into `done`.
    pub fn push(&mut self, payload: Payload, done: &mut Vec<AssembledChunk>) {
        let mut payload = payload;
        loop {
            let room = self.chunk_size as u64 - self.current;
            let take = payload.len().min(room);
            if take == 0 && payload.is_empty() {
                break;
            }
            let (head, rest) = split_payload(payload, take);
            self.absorb(head);
            if self.current == self.chunk_size as u64 {
                let chunk = self.cut();
                done.push(chunk);
            }
            match rest {
                Some(r) => payload = r,
                None => break,
            }
        }
    }

    /// Feeds the caller's buffer, emitting every chunk it completes into
    /// `done`. Bytes that complete the pending chunk, and the buffer's
    /// tail, are copied and pushed; every whole chunk in between is hashed
    /// in place ([`Sha256::digest_each`], on every core when there are two
    /// or more) and comes back [`ChunkBytes::Borrowed`].
    pub fn push_slice<'a>(&mut self, data: &'a [u8], done: &mut Vec<SliceChunk<'a>>) {
        let size = self.chunk_size as usize;
        let head = match self.current as usize {
            0 => 0,
            pending => (size - pending).min(data.len()),
        };
        let (head, rest) = data.split_at(head);
        let (whole, tail) = rest.split_at(rest.len() - rest.len() % size);
        self.push_copy(head, done);
        let ids = Sha256::digest_each(whole, size);
        done.extend(
            whole
                .chunks_exact(size)
                .zip(ids)
                .map(|(bytes, digest)| SliceChunk {
                    entry: ChunkEntry {
                        id: ChunkId(digest),
                        size: self.chunk_size,
                    },
                    bytes: ChunkBytes::Borrowed(bytes),
                }),
        );
        self.push_copy(tail, done);
    }

    /// Finishes the stream, returning the final partial chunk if any.
    pub fn finish(&mut self) -> Option<AssembledChunk> {
        if self.current == 0 {
            return None;
        }
        Some(self.cut())
    }

    /// Pushes a copy of borrowed bytes, emitting the chunk they complete.
    fn push_copy<'a>(&mut self, bytes: &[u8], done: &mut Vec<SliceChunk<'a>>) {
        if bytes.is_empty() {
            return;
        }
        let mut owned = Vec::new();
        self.push(Payload::real(bytes.to_vec()), &mut owned);
        done.extend(owned.into_iter().map(|c| SliceChunk {
            entry: c.entry,
            bytes: ChunkBytes::Owned(c.payload),
        }));
    }

    fn absorb(&mut self, p: Payload) {
        match &p {
            Payload::Real(b) => {
                self.hasher.update(b);
                self.virtual_only = false;
            }
            Payload::Virtual { size, tag } => {
                // Hash the identity, not the bytes: deterministic and cheap.
                self.hasher.update(&tag.to_le_bytes());
                self.hasher.update(&size.to_le_bytes());
            }
        }
        self.current += p.len();
        if !p.is_empty() {
            self.segments.push(p);
        }
    }

    fn cut(&mut self) -> AssembledChunk {
        let size = self.current as u32;
        let digest = std::mem::replace(&mut self.hasher, Sha256::new()).finalize();
        let id = ChunkId(digest);
        let payload = if self.virtual_only
            && self
                .segments
                .iter()
                .all(|s| matches!(s, Payload::Virtual { .. }))
        {
            // Preserve virtuality: identity is the chunk id itself.
            let tag = u64::from_le_bytes(digest[..8].try_into().expect("digest len"));
            Payload::Virtual { size, tag }
        } else {
            // Concatenate real segments (zero-copy when single segment).
            if self.segments.len() == 1 {
                self.segments.pop().expect("non-empty")
            } else {
                let mut buf = Vec::with_capacity(size as usize);
                for s in &self.segments {
                    buf.extend_from_slice(&s.bytes());
                }
                Payload::Real(Bytes::from(buf))
            }
        };
        self.segments.clear();
        self.current = 0;
        self.virtual_only = true;
        AssembledChunk {
            entry: ChunkEntry { id, size },
            payload,
        }
    }
}

fn split_payload(p: Payload, at: u64) -> (Payload, Option<Payload>) {
    if at >= p.len() {
        return (p, None);
    }
    match p {
        Payload::Real(b) => {
            let head = b.slice(..at as usize);
            let tail = b.slice(at as usize..);
            (Payload::Real(head), Some(Payload::Real(tail)))
        }
        Payload::Virtual { size, tag } => (
            Payload::Virtual {
                size: at as u32,
                tag,
            },
            Some(Payload::Virtual {
                size: size - at as u32,
                // Distinguish the two halves deterministically.
                tag: stdchk_util::mix64(tag ^ at),
            }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_chunks_hash_to_content_id() {
        let mut asm = ChunkAssembler::new(4);
        let mut done = Vec::new();
        asm.push(Payload::real(vec![9u8; 8]), &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].entry.id, ChunkId::for_content(&[9u8; 4]));
        assert_eq!(
            done[0].entry.id, done[1].entry.id,
            "identical content dedupes"
        );
    }

    #[test]
    fn split_writes_hash_like_contiguous_writes() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut a = ChunkAssembler::new(64);
        let mut done_a = Vec::new();
        a.push(Payload::real(data.clone()), &mut done_a);
        done_a.extend(a.finish());

        let mut b = ChunkAssembler::new(64);
        let mut done_b = Vec::new();
        for piece in data.chunks(7) {
            b.push(Payload::real(piece.to_vec()), &mut done_b);
        }
        done_b.extend(b.finish());

        let ids_a: Vec<_> = done_a.iter().map(|c| c.entry.id).collect();
        let ids_b: Vec<_> = done_b.iter().map(|c| c.entry.id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn virtual_payloads_with_same_tags_dedupe() {
        let mut a = ChunkAssembler::new(1024);
        let mut out_a = Vec::new();
        a.push(
            Payload::Virtual {
                size: 1024,
                tag: 42,
            },
            &mut out_a,
        );
        let mut b = ChunkAssembler::new(1024);
        let mut out_b = Vec::new();
        b.push(
            Payload::Virtual {
                size: 1024,
                tag: 42,
            },
            &mut out_b,
        );
        assert_eq!(out_a[0].entry.id, out_b[0].entry.id);

        let mut c = ChunkAssembler::new(1024);
        let mut out_c = Vec::new();
        c.push(
            Payload::Virtual {
                size: 1024,
                tag: 43,
            },
            &mut out_c,
        );
        assert_ne!(out_a[0].entry.id, out_c[0].entry.id);
    }

    #[test]
    fn virtual_chunks_stay_virtual() {
        let mut a = ChunkAssembler::new(512);
        let mut out = Vec::new();
        a.push(Payload::Virtual { size: 2048, tag: 7 }, &mut out);
        assert_eq!(out.len(), 4);
        for c in &out {
            assert!(matches!(c.payload, Payload::Virtual { .. }));
            assert_eq!(c.payload.len(), 512);
        }
    }

    #[test]
    fn finish_emits_partial_tail_once() {
        let mut a = ChunkAssembler::new(10);
        let mut out = Vec::new();
        a.push(Payload::real(vec![1u8; 13]), &mut out);
        assert_eq!(out.len(), 1);
        let tail = a.finish().expect("tail");
        assert_eq!(tail.entry.size, 3);
        assert!(a.finish().is_none());
    }

    #[test]
    fn whole_chunks_come_back_borrowed_and_spanning_ones_owned() {
        let data: Vec<u8> = (0..20u8).collect();
        let mut asm = ChunkAssembler::new(4);
        let mut done = Vec::new();
        // One whole chunk, then a 2-byte tail the assembler copies.
        asm.push_slice(&data[..6], &mut done);
        // Two bytes finish the pending chunk; three whole chunks follow.
        asm.push_slice(&data[6..], &mut done);
        assert!(asm.finish().is_none());
        assert_eq!(done.len(), 5);
        for (i, c) in done.iter().enumerate() {
            let want = &data[i * 4..i * 4 + 4];
            assert_eq!(c.entry.id, ChunkId::for_content(want), "chunk {i}");
            assert_eq!(c.entry.size, 4);
            match &c.bytes {
                ChunkBytes::Borrowed(b) => {
                    assert_ne!(i, 1, "chunk 1 spans two calls");
                    assert!(std::ptr::eq(*b, want), "chunk {i} not in place");
                }
                ChunkBytes::Owned(p) => {
                    assert_eq!(i, 1, "chunk {i} lies inside one call");
                    assert_eq!(&p.bytes()[..], want);
                }
            }
        }
    }

    #[test]
    fn short_slices_assemble_into_owned_chunks() {
        let data: Vec<u8> = (0..10u8).collect();
        let mut asm = ChunkAssembler::new(8);
        let mut done = Vec::new();
        for piece in data.chunks(3) {
            asm.push_slice(piece, &mut done);
        }
        assert_eq!(done.len(), 1);
        let ChunkBytes::Owned(Payload::Real(b)) = &done[0].bytes else {
            panic!("a chunk spanning calls is owned");
        };
        assert_eq!(&b[..], &data[..8]);
        let tail = asm.finish().expect("tail");
        assert_eq!(&tail.payload.bytes()[..], &data[8..]);
        assert_eq!(tail.entry.id, ChunkId::for_content(&data[8..]));
    }

    /// Bytes and entries of every chunk, as one `push` of the whole image
    /// cuts them.
    fn cut_whole(size: u32, data: &[u8]) -> Vec<(ChunkEntry, Vec<u8>)> {
        let mut asm = ChunkAssembler::new(size);
        let mut done = Vec::new();
        asm.push(Payload::real(data.to_vec()), &mut done);
        done.extend(asm.finish());
        done.into_iter()
            .map(|c| (c.entry, c.payload.bytes().to_vec()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn slice_and_payload_pushes_cut_like_one_push(
            size_pick in 0usize..3,
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24_000),
            cuts in proptest::collection::vec(
                (0usize..24_000, proptest::prelude::any::<bool>()),
                0..12,
            ),
        ) {
            let size = [1u32, 7, 4096][size_pick];
            // At most 512 chunks: tiny chunk sizes cost a digest per byte.
            let data = &data[..data.len().min(512 * size as usize)];
            let mut at: Vec<(usize, bool)> =
                cuts.iter().map(|&(c, s)| (c % (data.len() + 1), s)).collect();
            at.sort();
            at.push((data.len(), cuts.first().is_some_and(|c| c.1)));
            let mut asm = ChunkAssembler::new(size);
            // Room for two idle chunks: copies of borrowed chunks reuse
            // buffers dropped by earlier ones.
            let buffers = ChunkBuffers::new(2 * u64::from(size));
            let mut got = Vec::new();
            let mut from = 0;
            for (to, as_slice) in at {
                let piece = &data[from..to.max(from)];
                from = to.max(from);
                if as_slice {
                    let mut done = Vec::new();
                    asm.push_slice(piece, &mut done);
                    got.extend(done.into_iter().map(|c| {
                        let payload = match c.bytes {
                            ChunkBytes::Borrowed(b) => buffers.copy(b),
                            owned => owned.into_payload(),
                        };
                        (c.entry, payload.bytes().to_vec())
                    }));
                } else {
                    let mut done = Vec::new();
                    asm.push(Payload::real(piece.to_vec()), &mut done);
                    got.extend(done.into_iter().map(|c| (c.entry, c.payload.bytes().to_vec())));
                }
            }
            got.extend(asm.finish().map(|c| (c.entry, c.payload.bytes().to_vec())));
            proptest::prop_assert_eq!(got, cut_whole(size, data));
        }
    }

    #[test]
    fn kept_copies_reuse_returned_buffers() {
        let buffers = ChunkBuffers::new(1 << 10);
        let first = buffers.copy(&[1, 2, 3, 4]);
        let Payload::Real(b) = &first else {
            panic!("a copy is real");
        };
        let at = b.as_ptr();
        assert_eq!(buffers.idle_bytes(), 0);
        drop(first);
        assert_eq!(buffers.idle_bytes(), 4);
        let second = buffers.copy(&[5, 6, 7]);
        let Payload::Real(b) = &second else {
            panic!("a copy is real");
        };
        assert!(std::ptr::eq(b.as_ptr(), at), "the idle buffer is reused");
        assert_eq!(&b[..], &[5, 6, 7]);
        assert_eq!(buffers.idle_bytes(), 0);
        // An idle buffer too small for the next chunk is freed instead.
        drop(second);
        let big = buffers.copy(&[9; 8]);
        assert_eq!(big.bytes(), vec![9; 8]);
        assert_eq!(buffers.idle_bytes(), 0);
    }

    #[test]
    fn idle_buffers_stay_under_the_bound() {
        let buffers = ChunkBuffers::new(8);
        let copies: Vec<Payload> = (0..3u8).map(|i| buffers.copy(&[i; 4])).collect();
        for (i, c) in copies.iter().enumerate() {
            assert_eq!(c.bytes(), vec![i as u8; 4]);
        }
        drop(copies);
        assert_eq!(buffers.idle_bytes(), 8, "two of three buffers kept");
        let none = ChunkBuffers::new(0);
        drop(none.copy(&[1]));
        assert_eq!(none.idle_bytes(), 0);
    }

    #[test]
    fn mixed_real_segments_concatenate() {
        let mut a = ChunkAssembler::new(8);
        let mut out = Vec::new();
        a.push(Payload::real(vec![1u8; 3]), &mut out);
        a.push(Payload::real(vec![2u8; 5]), &mut out);
        assert_eq!(out.len(), 1);
        let expect = [1u8, 1, 1, 2, 2, 2, 2, 2];
        assert_eq!(&out[0].payload.bytes()[..], &expect);
        assert_eq!(out[0].entry.id, ChunkId::for_content(&expect));
    }
}
