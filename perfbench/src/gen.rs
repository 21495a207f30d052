//! Seeded input generation. Every byte the benchmark writes is a pure
//! function of the workload seed and the operation's coordinates, so the
//! same seed gives the same inputs and a restart can be byte-compared
//! against a regenerated copy instead of a retained one.

/// Chunk size of the pool (the `PoolConfig` default, the paper's 1 MiB).
pub const CHUNK: usize = 1 << 20;

/// SplitMix64: tiny, fast, and plenty for incompressible test data.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, kind, index)`; distinct coordinates give
    /// unrelated streams.
    pub fn new(seed: u64, kind: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
        let a = r.next_u64() ^ kind.wrapping_mul(0xd1b5_4a32_d192_ed03);
        let mut r = Rng(a);
        let b = r.next_u64() ^ index.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7);
        Rng(b)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// Stream kinds, one per input family.
pub const KIND_FRESH: u64 = 1;
pub const KIND_INC_BASE: u64 = 2;
pub const KIND_INC_EDIT: u64 = 3;
pub const KIND_SMALL_DATA: u64 = 4;
pub const KIND_SMALL_PICK: u64 = 5;
pub const KIND_WARM: u64 = 6;

/// `fresh` image `i`: `len` incompressible bytes.
pub fn fresh_image(seed: u64, i: u64, len: usize, buf: &mut Vec<u8>) {
    buf.resize(len, 0);
    Rng::new(seed, KIND_FRESH, i).fill(buf);
}

/// The `incremental` workload's version-0 image.
pub fn incremental_base(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    Rng::new(seed, KIND_INC_BASE, 0).fill(&mut buf);
    buf
}

/// Share of an `incremental` version's chunks that get an edit.
pub const EDIT_SHARE: f64 = 0.3;

/// The chunk indices version `v` edits (sorted, distinct): a seeded
/// sample of `round(EDIT_SHARE * chunks)` of the image's chunks.
pub fn edited_chunks(seed: u64, v: u64, chunks: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, KIND_INC_EDIT, v);
    let want = ((chunks as f64) * EDIT_SHARE).round() as usize;
    let mut all: Vec<usize> = (0..chunks).collect();
    // Partial Fisher-Yates: the first `want` slots become the sample.
    for i in 0..want.min(chunks) {
        let j = i + (rng.next_u64() % (chunks - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(want.min(chunks));
    all.sort_unstable();
    all
}

/// Applies version `v`'s small in-place edits to `image` (a copy of
/// version `v - 1`): each edited chunk gets 16–512 fresh bytes at a
/// random offset. Returns the edited chunk indices.
pub fn apply_edits(seed: u64, v: u64, image: &mut [u8]) -> Vec<usize> {
    let chunks = image.len().div_ceil(CHUNK);
    let edited = edited_chunks(seed, v, chunks);
    let mut rng = Rng::new(seed, KIND_INC_EDIT, v | 1 << 63);
    for &c in &edited {
        let end = image.len().min((c + 1) * CHUNK);
        edit_chunk(&mut rng, &mut image[c * CHUNK..end]);
    }
    edited
}

/// One small in-place edit: 16–512 fresh bytes at a random offset.
pub fn edit_chunk(rng: &mut Rng, chunk: &mut [u8]) {
    let n = (rng.range(16, 512) as usize).min(chunk.len());
    let off = rng.range(0, (chunk.len() - n) as u64) as usize;
    rng.fill(&mut chunk[off..off + n]);
}

/// Content of `many-small` checkpoint `i` of client `c`: 256 KiB to
/// 1 MiB.
pub fn small_image(seed: u64, c: u64, i: u64, buf: &mut Vec<u8>) {
    let mut rng = Rng::new(seed, KIND_SMALL_DATA, c << 32 | i);
    let len = rng.range(256 << 10, 1 << 20) as usize;
    buf.resize(len, 0);
    rng.fill(buf);
}

/// Which earlier committed file (of `committed`) client `c` restarts
/// after its `i`-th write.
pub fn small_pick(seed: u64, c: u64, i: u64, committed: u64) -> u64 {
    Rng::new(seed, KIND_SMALL_PICK, c << 32 | i).next_u64() % committed
}

/// The warm-up checkpoint of client `c` (opens every connection before
/// the clock starts).
pub fn warm_image(seed: u64, c: u64) -> Vec<u8> {
    let mut buf = vec![0u8; CHUNK];
    Rng::new(seed, KIND_WARM, c).fill(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fresh_image(7, 3, 4099, &mut a);
        fresh_image(7, 3, 4099, &mut b);
        assert_eq!(a, b);
        fresh_image(8, 3, 4099, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn edits_touch_the_sampled_chunks_only() {
        let base = incremental_base(1, 8 * CHUNK);
        let mut next = base.clone();
        let edited = apply_edits(1, 1, &mut next);
        assert_eq!(edited.len(), 2); // round(0.3 * 8)
        for c in 0..8 {
            let same = base[c * CHUNK..(c + 1) * CHUNK] == next[c * CHUNK..(c + 1) * CHUNK];
            assert_eq!(same, !edited.contains(&c), "chunk {c}");
        }
    }

    #[test]
    fn small_images_are_256k_to_1m() {
        let mut buf = Vec::new();
        for i in 0..64 {
            small_image(5, 1, i, &mut buf);
            assert!((256 << 10..=1 << 20).contains(&buf.len()));
        }
    }
}
