//! Rolling-checksum delta encoding for near-miss chunks (rsync-style).
//!
//! Have/want negotiation removes chunks that are *byte-identical* to ones
//! the pool already stores. Successive checkpoints also produce near
//! misses: a chunk at the same file offset whose content shifted or
//! mutated slightly. For those the client encodes the new chunk as a
//! delta against the previous version's chunk at the same position (the
//! *basis*), using the classic weak-then-strong scheme:
//!
//! 1. [`ChunkSignature::build`] splits the basis into fixed blocks and
//!    records, in block order, a weak polynomial checksum
//!    ([`lane_hash`], equal to what a [`RollingHash`] over the block
//!    gives) and a strong CRC-32C digest per block. Weak values are looked
//!    up through a bit filter, an open-addressed table of first indices
//!    and a same-weak chain, so a signature is five flat arrays and no
//!    per-block allocation.
//! 2. [`delta_encode_signed`] walks the new chunk once. At each window it
//!    first tests the *predicted* basis block: the one after the last
//!    copy, or the block at the same offset when the window is
//!    block-aligned. On a miss it looks the window's weak hash up and
//!    confirms any candidate with the strong digest. A confirmed block
//!    becomes a `Copy` op and the window jumps a whole block, reseeded in
//!    one lane-hash pass; otherwise the weak hash slides one byte (O(1))
//!    and the byte joins a `Literal` run. The predicted test uses the same
//!    weak-and-strong rule as the lookup, so it only changes which of two
//!    identical blocks a window copies: repeated blocks (a zero page)
//!    extend one copy run instead of restarting at the lowest duplicate.
//!    The walk also signs the new chunk for the next version: every
//!    block-aligned window leaves its weak hash, and its strong digest
//!    when one was computed, and only the rest is hashed afterwards. An
//!    unchanged or in-place-edited chunk so costs about one lane-hash and
//!    one CRC pass instead of a signature pass plus a byte-by-byte refill
//!    after every copy. [`delta_encode`] is the same walk without the
//!    signature. CRC-32C (hardware-accelerated where available) is strong
//!    *enough* here because the benefactor verifies the reconstructed
//!    chunk against its content-addressed id before storing it — a
//!    confirm collision costs one rejected delta and a full resend, never
//!    a corrupt store.
//! 3. [`delta_apply`] replays the ops against the basis to reconstruct
//!    the chunk byte-for-byte. The benefactor does this *before* the
//!    store append, so segments only ever hold full chunks and the read
//!    path never learns deltas exist.
//!
//! The encoding is self-delimiting and intentionally simple:
//!
//! ```text
//! op   := 0x00 len:u32le bytes[len]          literal
//!       | 0x01 offset:u64le len:u32le        copy from basis
//! delta := op*
//! ```
//!
//! Adjacent copies of consecutive basis ranges merge into one op.
//! [`delta_encode`] returns `None` when the encoding would not beat
//! sending the chunk in full — the caller then falls back to `PutChunk`.

use stdchk_util::crc32::Crc32;
use stdchk_util::rolling::{lane_hash, RollingHash};

/// Default signature block size. Small enough to find matches after
/// sub-chunk shifts, large enough that a signature is ~1% of the basis.
pub const DEFAULT_BLOCK: usize = 2048;

/// Op-code for a literal run.
const OP_LITERAL: u8 = 0x00;
/// Op-code for a copy from the basis.
const OP_COPY: u8 = 0x01;

/// An empty table slot, or the end of a same-weak chain.
const NONE: u32 = u32::MAX;

/// Per-block checksums of a basis chunk, the client-side half of the
/// delta handshake. Built once when a chunk ships and cached for the next
/// version of the same file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkSignature {
    /// Block size the signature was built with.
    block: usize,
    /// Basis length in bytes (whole blocks + ignored tail).
    basis_len: usize,
    /// Weak hash per block, indexed by block number.
    weak: Vec<u64>,
    /// Strong digest (CRC-32C) per block, indexed by block number.
    strong: Vec<u32>,
    /// Open-addressed table (linear probing, a power of two at least
    /// twice the block count) holding, per distinct weak hash, the lowest
    /// block with it; empty slots are `NONE`.
    first: Vec<u32>,
    /// Per block, the next higher block with the same weak hash, or
    /// `NONE`.
    next: Vec<u32>,
    /// A bit per position, set where some block's weak hash lands (16
    /// bits per block, a power of two). Most windows of a rolling scan
    /// match no block; this rejects about 94% of them with one load and
    /// a branch that rarely goes the other way, before any table probe.
    filter: Vec<u64>,
}

impl ChunkSignature {
    /// Builds the signature of `basis` with the given block size. Only
    /// whole blocks participate; a short tail is never matched (it is
    /// cheaper to ship it literally than to special-case it).
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`, or if `basis` has `u32::MAX` blocks or
    /// more.
    pub fn build(basis: &[u8], block: usize) -> Self {
        assert!(block > 0, "block size must be non-zero");
        let (weak, strong) = basis
            .chunks_exact(block)
            .map(|b| (lane_hash(b), Crc32::checksum(b)))
            .unzip();
        Self::from_blocks(block, basis.len(), weak, strong)
    }

    /// Builds the signature with [`DEFAULT_BLOCK`].
    pub fn of(basis: &[u8]) -> Self {
        Self::build(basis, DEFAULT_BLOCK)
    }

    /// Indexes per-block checksums already in block order.
    fn from_blocks(block: usize, basis_len: usize, weak: Vec<u64>, strong: Vec<u32>) -> Self {
        let blocks = weak.len();
        assert!(blocks < NONE as usize, "too many blocks for a signature");
        let mut sig = ChunkSignature {
            block,
            basis_len,
            weak,
            strong,
            first: vec![NONE; (2 * blocks).next_power_of_two()],
            next: vec![NONE; blocks],
            filter: vec![0; (16 * blocks).next_power_of_two().div_ceil(64)],
        };
        // Walk down so each block goes to the head of its weak chain: the
        // table ends up holding the lowest block and chains run upwards.
        for i in (0..blocks).rev() {
            let weak = sig.weak[i];
            let slot = sig.slot(weak);
            sig.next[i] = sig.first[slot];
            sig.first[slot] = i as u32;
            let (word, bit) = sig.filter_bit(weak);
            sig.filter[word] |= bit;
        }
        sig
    }

    /// The block size this signature was built with.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Length in bytes of the basis chunk.
    pub fn basis_len(&self) -> usize {
        self.basis_len
    }

    /// Bytes this signature keeps on the heap.
    pub fn heap_bytes(&self) -> usize {
        (self.weak.capacity() + self.filter.capacity()) * std::mem::size_of::<u64>()
            + (self.strong.capacity() + self.first.capacity() + self.next.capacity())
                * std::mem::size_of::<u32>()
    }

    /// The filter word and bit for `weak`, taken from its high half (the
    /// table slot comes from the low one).
    #[inline]
    fn filter_bit(&self, weak: u64) -> (usize, u64) {
        let pos = (weak >> 32) as usize & (self.filter.len() * 64 - 1);
        (pos / 64, 1 << (pos % 64))
    }

    /// False if no block has weak hash `weak`; true for every weak hash
    /// some block has and for about 6% of the others.
    #[inline]
    fn admits(&self, weak: u64) -> bool {
        let (word, bit) = self.filter_bit(weak);
        self.filter[word] & bit != 0
    }

    /// The table slot holding `weak`'s chain, or the empty slot where it
    /// would go.
    #[inline]
    fn slot(&self, weak: u64) -> usize {
        let mask = self.first.len() - 1;
        // Weak hashes are whitened, so their low bits spread evenly.
        let mut slot = weak as usize & mask;
        loop {
            let i = self.first[slot];
            if i == NONE || self.weak[i as usize] == weak {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// True if block `idx` has weak hash `weak` and the strong digest of
    /// `window`; the digest is computed at most once per window (`crc`).
    #[inline]
    fn confirms(&self, idx: u32, weak: u64, window: &[u8], crc: &mut Option<u32>) -> bool {
        self.weak[idx as usize] == weak
            && self.strong[idx as usize] == *crc.get_or_insert_with(|| Crc32::checksum(window))
    }

    /// Finds the lowest basis block matching `window` (weak hash
    /// pre-computed by the caller's rolling scan), confirming with the
    /// strong digest.
    #[inline]
    fn find(&self, weak: u64, window: &[u8], crc: &mut Option<u32>) -> Option<u32> {
        if !self.admits(weak) {
            return None;
        }
        let mut i = self.first[self.slot(weak)];
        while i != NONE {
            if self.confirms(i, weak, window, crc) {
                return Some(i);
            }
            i = self.next[i as usize];
        }
        None
    }
}

/// Encodes `new` as a delta against the chunk `sig` describes.
///
/// Returns `None` when the delta would be at least as large as `new`
/// itself (plus when the signature has no blocks at all) — the caller
/// should ship the full chunk instead, so a returned delta is always a
/// strict win on the wire.
pub fn delta_encode(sig: &ChunkSignature, new: &[u8]) -> Option<Vec<u8>> {
    encode(sig, new, None)
}

/// [`delta_encode`] that also returns the signature of `new`, equal to
/// `ChunkSignature::build(new, sig.block())`, from the same pass.
///
/// # Panics
///
/// Panics if `new` has `u32::MAX` blocks or more.
pub fn delta_encode_signed(sig: &ChunkSignature, new: &[u8]) -> (Option<Vec<u8>>, ChunkSignature) {
    let mut signer = Signer::new(new.len() / sig.block);
    let delta = encode(sig, new, Some(&mut signer));
    (delta, signer.finish(new, sig.block))
}

/// The new chunk's per-block checksums, as far as the encoder met them at
/// block-aligned windows.
struct Signer {
    weak: Vec<Option<u64>>,
    strong: Vec<Option<u32>>,
}

impl Signer {
    fn new(blocks: usize) -> Self {
        Signer {
            weak: vec![None; blocks],
            strong: vec![None; blocks],
        }
    }

    fn record(&mut self, block: usize, weak: u64, strong: Option<u32>) {
        self.weak[block] = Some(weak);
        self.strong[block] = strong;
    }

    /// Hashes the blocks the encoder left unhashed and indexes the rest.
    fn finish(self, new: &[u8], block: usize) -> ChunkSignature {
        let (weak, strong) = new
            .chunks_exact(block)
            .zip(self.weak.into_iter().zip(self.strong))
            .map(|(b, (weak, strong))| {
                (
                    weak.unwrap_or_else(|| lane_hash(b)),
                    strong.unwrap_or_else(|| Crc32::checksum(b)),
                )
            })
            .unzip();
        ChunkSignature::from_blocks(block, new.len(), weak, strong)
    }
}

/// The one encoder pass behind [`delta_encode`] and
/// [`delta_encode_signed`]; `signer` collects each aligned window's
/// checksums when the caller wants the new chunk's signature.
fn encode(sig: &ChunkSignature, new: &[u8], mut signer: Option<&mut Signer>) -> Option<Vec<u8>> {
    let block = sig.block;
    if sig.strong.is_empty() || new.len() < block {
        return None;
    }
    let blocks = sig.strong.len() as u32;
    let mut out = DeltaWriter::new(new.len());
    let mut rh = RollingHash::new(block);
    rh.refill(&new[..block]);
    // `pos` is the start of the current window; bytes before `emitted`
    // are already encoded. `phase` is `pos % block`.
    let mut pos = 0usize;
    let mut emitted = 0usize;
    let mut phase = 0usize;
    // The basis block after the last copy, while the window starts where
    // that copy ended.
    let mut after_copy: Option<u32> = None;
    'scan: loop {
        let window = &new[pos..pos + block];
        let weak = rh.value();
        let mut crc = None;
        let predicted = after_copy
            .or_else(|| (phase == 0).then(|| (pos / block) as u32))
            .filter(|&p| p < blocks);
        let hit = match predicted {
            Some(p) if sig.confirms(p, weak, window, &mut crc) => Some(p),
            _ => sig.find(weak, window, &mut crc),
        };
        if phase == 0 {
            if let Some(signer) = signer.as_deref_mut() {
                signer.record(pos / block, weak, crc);
            }
        }
        if let Some(idx) = hit {
            out.literal(&new[emitted..pos]);
            out.copy(idx as u64 * block as u64, block as u32);
            pos += block;
            emitted = pos;
            after_copy = Some(idx + 1);
            if pos + block > new.len() {
                break;
            }
            rh.refill(&new[pos..pos + block]);
        } else {
            after_copy = None;
            // Slide to the next window a lookup could match: a
            // block-aligned one (it has a predicted block, and is signed)
            // or one whose weak hash the filter admits.
            loop {
                if pos + block >= new.len() {
                    break 'scan;
                }
                rh.slide(new[pos], new[pos + block]);
                pos += 1;
                phase = if phase + 1 == block { 0 } else { phase + 1 };
                if phase == 0 || sig.admits(rh.value()) {
                    break;
                }
            }
        }
        if out.len() >= new.len() {
            return None; // already losing; bail before scanning more
        }
    }
    out.literal(&new[emitted..]);
    if out.len() >= new.len() {
        None
    } else {
        Some(out.into_bytes())
    }
}

/// Error from [`delta_apply`]: the delta referenced bytes outside the
/// basis or was itself malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad delta: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

/// Reconstructs the full chunk from `basis` and a delta ops stream.
///
/// # Errors
///
/// Returns [`DeltaError`] on truncated ops, unknown op-codes, or copy
/// ranges that fall outside the basis. Never panics on untrusted input.
pub fn delta_apply(basis: &[u8], delta: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::new();
    let mut d = delta;
    while !d.is_empty() {
        let op = d[0];
        d = &d[1..];
        match op {
            OP_LITERAL => {
                let len = read_u32(&mut d)? as usize;
                if d.len() < len {
                    return Err(DeltaError(format!(
                        "literal of {len} bytes but only {} remain",
                        d.len()
                    )));
                }
                out.extend_from_slice(&d[..len]);
                d = &d[len..];
            }
            OP_COPY => {
                let offset = read_u64(&mut d)? as usize;
                let len = read_u32(&mut d)? as usize;
                let end = offset
                    .checked_add(len)
                    .ok_or_else(|| DeltaError("copy range overflows".into()))?;
                if end > basis.len() {
                    return Err(DeltaError(format!(
                        "copy {offset}+{len} exceeds basis of {} bytes",
                        basis.len()
                    )));
                }
                out.extend_from_slice(&basis[offset..end]);
            }
            other => return Err(DeltaError(format!("unknown op {other:#04x}"))),
        }
    }
    Ok(out)
}

/// Builds the ops stream, merging adjacent copies of consecutive ranges.
struct DeltaWriter {
    buf: Vec<u8>,
    /// Offset in `buf` of the pending copy op, with its basis range, so a
    /// following contiguous copy can extend it in place.
    pending_copy: Option<(usize, u64, u32)>,
}

impl DeltaWriter {
    fn new(cap_hint: usize) -> Self {
        DeltaWriter {
            buf: Vec::with_capacity(cap_hint / 8),
            pending_copy: None,
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn literal(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.pending_copy = None;
        self.buf.push(OP_LITERAL);
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    fn copy(&mut self, offset: u64, len: u32) {
        if let Some((at, start, run)) = self.pending_copy {
            if start + run as u64 == offset {
                let merged = run + len;
                self.buf[at + 9..at + 13].copy_from_slice(&merged.to_le_bytes());
                self.pending_copy = Some((at, start, merged));
                return;
            }
        }
        let at = self.buf.len();
        self.buf.push(OP_COPY);
        self.buf.extend_from_slice(&offset.to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.pending_copy = Some((at, offset, len));
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

fn read_u32(d: &mut &[u8]) -> Result<u32, DeltaError> {
    if d.len() < 4 {
        return Err(DeltaError("truncated u32".into()));
    }
    let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    *d = &d[4..];
    Ok(v)
}

fn read_u64(d: &mut &[u8]) -> Result<u64, DeltaError> {
    if d.len() < 8 {
        return Err(DeltaError("truncated u64".into()));
    }
    let v = u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
    *d = &d[8..];
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stdchk_util::mix64;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len).map(|i| mix64(seed ^ i as u64) as u8).collect()
    }

    /// The number of ops in a well-formed delta.
    fn op_count(mut d: &[u8]) -> usize {
        let mut ops = 0;
        while let Some(&op) = d.first() {
            let skip = match op {
                OP_LITERAL => 5 + u32::from_le_bytes(d[1..5].try_into().unwrap()) as usize,
                _ => 13,
            };
            d = &d[skip..];
            ops += 1;
        }
        ops
    }

    #[test]
    fn identical_chunk_encodes_to_one_copy() {
        let basis = noise(16 << 10, 1);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &basis).expect("identical should win");
        // one merged copy op: 1 + 8 + 4 bytes
        assert_eq!(delta.len(), 13);
        assert_eq!(delta_apply(&basis, &delta).unwrap(), basis);
    }

    #[test]
    fn shifted_content_still_matches() {
        let basis = noise(16 << 10, 2);
        // Insert 100 bytes near the front: every later block shifts.
        let mut new = noise(100, 99);
        new.extend_from_slice(&basis);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &new).expect("shifted content should win");
        assert!(delta.len() < new.len() / 4, "delta {} bytes", delta.len());
        assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
    }

    #[test]
    fn partial_overlap_roundtrips() {
        let basis = noise(32 << 10, 3);
        let mut new = basis.clone();
        // Mutate two scattered regions.
        for b in &mut new[5_000..6_000] {
            *b ^= 0xa5;
        }
        new[20_000..20_100].fill(0);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &new).expect("mostly-same should win");
        assert!(delta.len() < new.len() / 2);
        assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
    }

    #[test]
    fn unrelated_content_declines() {
        let basis = noise(8 << 10, 4);
        let new = noise(8 << 10, 555);
        let sig = ChunkSignature::build(&basis, 2048);
        assert!(delta_encode(&sig, &new).is_none());
    }

    #[test]
    fn short_new_chunk_declines() {
        let basis = noise(8 << 10, 5);
        let sig = ChunkSignature::build(&basis, 2048);
        assert!(delta_encode(&sig, &noise(100, 6)).is_none());
    }

    #[test]
    fn empty_basis_declines() {
        let sig = ChunkSignature::build(&[], 2048);
        assert!(delta_encode(&sig, &noise(4096, 7)).is_none());
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let basis = noise(1024, 8);
        let mut delta = vec![OP_COPY];
        delta.extend_from_slice(&2048u64.to_le_bytes());
        delta.extend_from_slice(&100u32.to_le_bytes());
        assert!(delta_apply(&basis, &delta).is_err());
    }

    #[test]
    fn apply_rejects_garbage() {
        let basis = noise(1024, 9);
        assert!(delta_apply(&basis, &[0xff]).is_err());
        assert!(delta_apply(&basis, &[OP_LITERAL, 10, 0, 0, 0, 1]).is_err());
        assert!(delta_apply(&basis, &[OP_COPY, 1, 2]).is_err());
        // Empty delta reconstructs the empty chunk.
        assert_eq!(delta_apply(&basis, &[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tail_bytes_ship_literally() {
        // Basis not a multiple of the block: tail never matches but the
        // roundtrip stays exact.
        let basis = noise(5000, 10);
        let mut new = basis.clone();
        new.extend_from_slice(&noise(300, 11));
        let sig = ChunkSignature::build(&basis, 2048);
        if let Some(delta) = delta_encode(&sig, &new) {
            assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
        }
    }

    #[test]
    fn repeated_basis_blocks_encode_as_runs() {
        // A zero page matches every basis block. Copying the predicted
        // block keeps one run going; the lowest duplicate would cost one
        // op per block (about 130 here).
        let basis = vec![0u8; 256 << 10];
        let mut new = basis.clone();
        let at = 40 * 2048 + 500;
        new[at..at + 100].copy_from_slice(&noise(100, 12));
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &new).expect("a small edit should win");
        assert!(op_count(&delta) <= 4, "{} ops", op_count(&delta));
        assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
    }

    #[test]
    fn signed_encode_returns_the_new_chunks_signature() {
        let basis = noise(64 << 10, 13);
        let mut new = basis.clone();
        new[10_000..10_300].copy_from_slice(&noise(300, 14));
        new.splice(40_000..40_000, noise(100, 15));
        let sig = ChunkSignature::build(&basis, 2048);
        let (delta, signed) = delta_encode_signed(&sig, &new);
        assert_eq!(delta, delta_encode(&sig, &new));
        assert_eq!(signed, ChunkSignature::build(&new, 2048));
        assert_eq!(delta_apply(&basis, &delta.unwrap()).unwrap(), new);
    }

    #[test]
    fn declined_encode_still_signs() {
        let sig = ChunkSignature::build(&noise(8 << 10, 16), 2048);
        for new in [noise(8 << 10, 555), noise(100, 6)] {
            let (delta, signed) = delta_encode_signed(&sig, &new);
            assert!(delta.is_none());
            assert_eq!(signed, ChunkSignature::build(&new, 2048));
        }
    }

    #[test]
    fn signature_holds_no_per_block_allocation() {
        let sig = ChunkSignature::of(&noise(256 << 10, 17));
        // 128 blocks: 8 + 4 + 4 bytes each, a 256-slot table and a
        // 2048-bit filter. A 1 MiB chunk's signature so takes 13 KiB.
        assert_eq!(sig.heap_bytes(), 128 * 16 + 256 * 4 + 2048 / 8);
    }

    /// The encoder `delta_encode` replaced: serial per-block hashing, a
    /// `HashMap` from weak hash to blocks, the lowest confirmed block at
    /// every window, and a byte-by-byte refill after each copy.
    mod serial {
        use super::super::DeltaWriter;
        use std::collections::HashMap;
        use stdchk_util::crc32::Crc32;
        use stdchk_util::rolling::RollingHash;

        pub struct Signature {
            block: usize,
            weak: HashMap<u64, Vec<u32>>,
            strong: Vec<u32>,
        }

        pub fn build(basis: &[u8], block: usize) -> Signature {
            let mut weak: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut strong = Vec::new();
            for (i, b) in basis.chunks_exact(block).enumerate() {
                let mut rh = RollingHash::new(block);
                for &byte in b {
                    rh.push(byte);
                }
                weak.entry(rh.value()).or_default().push(i as u32);
                strong.push(Crc32::checksum(b));
            }
            Signature {
                block,
                weak,
                strong,
            }
        }

        /// True when no two blocks share a (weak, strong) pair.
        pub fn pairs_unique(sig: &Signature) -> bool {
            sig.weak.values().all(|blocks| {
                let mut strong: Vec<u32> = blocks.iter().map(|&i| sig.strong[i as usize]).collect();
                strong.sort_unstable();
                strong.windows(2).all(|w| w[0] != w[1])
            })
        }

        fn find(sig: &Signature, weak: u64, window: &[u8]) -> Option<u32> {
            let candidates = sig.weak.get(&weak)?;
            let digest = Crc32::checksum(window);
            candidates
                .iter()
                .copied()
                .find(|&i| sig.strong[i as usize] == digest)
        }

        pub fn encode(sig: &Signature, new: &[u8]) -> Option<Vec<u8>> {
            if sig.strong.is_empty() || new.len() < sig.block {
                return None;
            }
            let block = sig.block;
            let mut out = DeltaWriter::new(new.len());
            let mut rh = RollingHash::new(block);
            for &b in &new[..block] {
                rh.push(b);
            }
            let mut pos = 0usize;
            let mut emitted = 0usize;
            loop {
                if let Some(idx) = find(sig, rh.value(), &new[pos..pos + block]) {
                    out.literal(&new[emitted..pos]);
                    out.copy(idx as u64 * block as u64, block as u32);
                    pos += block;
                    emitted = pos;
                    if pos + block > new.len() {
                        break;
                    }
                    rh.reset();
                    for &b in &new[pos..pos + block] {
                        rh.push(b);
                    }
                } else {
                    if pos + block >= new.len() {
                        break;
                    }
                    rh.slide(new[pos], new[pos + block]);
                    pos += 1;
                }
                if out.len() >= new.len() {
                    return None;
                }
            }
            out.literal(&new[emitted..]);
            if out.len() >= new.len() {
                None
            } else {
                Some(out.into_bytes())
            }
        }
    }

    /// Block sizes the properties run at, with the longest basis each
    /// draws (short under Miri, whose lane caps every property at 8 cases).
    const SHAPES: [(usize, usize); 4] = if cfg!(miri) {
        [(1, 48), (7, 160), (512, 1_800), (2048, 5_000)]
    } else {
        [(1, 300), (7, 1_500), (512, 12_000), (2048, 40_000)]
    };

    /// Bytes from a seed, spread well for any seed.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let base = mix64(seed);
        (0..len as u64)
            .map(|i| mix64(base.wrapping_add(i)) as u8)
            .collect()
    }

    /// A basis of `len` bytes in one of three shapes: noise, noise with
    /// repeated blocks, and a zero page with noisy islands. With blocks
    /// of one byte, where noise always repeats, noise keeps only the first
    /// of each byte value.
    fn basis(shape: u8, len: usize, block: usize, seed: u64) -> Vec<u8> {
        let mut b = bytes(len, seed);
        match shape {
            0 if block == 1 => {
                let mut seen = [false; 256];
                b.retain(|&x| !std::mem::replace(&mut seen[x as usize], true));
            }
            0 => {}
            1 => {
                // Copy block 0 over every third block.
                for i in (block..len.saturating_sub(block)).step_by(3 * block) {
                    b.copy_within(0..block, i);
                }
            }
            _ => {
                // Islands two blocks long in a zero page.
                b.iter_mut()
                    .enumerate()
                    .filter(|(i, _)| !mix64(seed ^ (*i / (2 * block)) as u64).is_multiple_of(4))
                    .for_each(|(_, x)| *x = 0);
            }
        }
        b
    }

    /// `basis` after one to three edits: an overwrite, an insertion or a
    /// deletion of up to a few blocks, or a zeroed run.
    fn edit(basis: &[u8], block: usize, seed: u64) -> Vec<u8> {
        let mut new = basis.to_vec();
        let edits = 1 + mix64(seed) % 3;
        for e in 0..edits {
            let r = mix64(seed.wrapping_add(e + 1));
            let at = (r % (new.len() as u64 + 1)) as usize;
            let n = 1 + (r >> 16) as usize % (3 * block + 16);
            let fresh = bytes(n, r);
            match (r >> 40) % 4 {
                0 => {
                    let end = (at + n).min(new.len());
                    new[at..end].copy_from_slice(&fresh[..end - at]);
                }
                1 => {
                    new.splice(at..at, fresh);
                }
                2 => {
                    new.drain(at..(at + n).min(new.len()));
                }
                _ => {
                    let end = (at + n).min(new.len());
                    new[at..end].fill(0);
                }
            }
        }
        new
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_encode_roundtrips_and_signs(
            seed in any::<u64>(),
            shape in 0usize..SHAPES.len(),
            kind in 0u8..3,
            frac in 0.0f64..1.0,
        ) {
            let (block, max_len) = SHAPES[shape];
            let len = (max_len as f64 * frac) as usize;
            let basis = basis(kind, len, block, seed);
            let new = edit(&basis, block, !seed);
            let sig = ChunkSignature::build(&basis, block);
            let (delta, signed) = delta_encode_signed(&sig, &new);
            prop_assert_eq!(&delta, &delta_encode(&sig, &new));
            prop_assert!(signed == ChunkSignature::build(&new, block), "signature differs");
            if let Some(d) = &delta {
                prop_assert!(d.len() < new.len());
                prop_assert!(delta_apply(&basis, d).as_ref() == Ok(&new), "roundtrip differs");
            }
            let serial_sig = serial::build(&basis, block);
            if serial::pairs_unique(&serial_sig) {
                prop_assert!(
                    delta == serial::encode(&serial_sig, &new),
                    "delta differs from the serial encoder's"
                );
            }
        }
    }
}
