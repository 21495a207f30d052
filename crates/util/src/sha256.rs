//! SHA-256 (FIPS 180-4) with a hardware block compressor.
//!
//! stdchk names data chunks by the SHA-256 digest of their content
//! (*content-based addressability*, paper §IV.C). The same digest doubles as
//! an integrity check: a client can detect a faulty or malicious benefactor
//! returning tampered chunk data by re-hashing what it received.
//!
//! Every ingested, stored and restarted byte is hashed, so the block
//! compressor is a per-byte cost of the whole system. On x86-64 CPUs with
//! the SHA extensions (SHA-NI) the compressor runs on the dedicated
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions, over a gigabyte
//! per second on current hardware; every other CPU, and Miri, use a
//! portable compressor at 100–200 MB/s. The choice is made at run
//! time on each [`Sha256::update`] (std caches the CPU probe) and never
//! changes a digest: both compressors compute the same function.
//!
//! One SHA-256 is a serial chain, so a single digest runs on one core.
//! [`Sha256::digest_each`] names a run of consecutive pieces (the whole
//! chunks of one write call) on every core: the calling thread plus
//! scoped helper threads that borrow the data and end before it returns.
//!
//! # Examples
//!
//! ```
//! use stdchk_util::sha256::Sha256;
//!
//! // One-shot:
//! let d = Sha256::digest(b"abc");
//! assert_eq!(
//!     Sha256::to_hex(&d),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! // Incremental:
//! let mut h = Sha256::new();
//! h.update(b"a");
//! h.update(b"bc");
//! assert_eq!(h.finalize(), d);
//!
//! // One digest per 2-byte piece; the last piece may be short:
//! assert_eq!(
//!     Sha256::digest_each(b"abcde", 2),
//!     [Sha256::digest(b"ab"), Sha256::digest(b"cd"), Sha256::digest(b"e")]
//! );
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// Construct with [`Sha256::new`], feed bytes with [`Sha256::update`], and
/// obtain the digest with [`Sha256::finalize`]. For one-shot hashing use
/// [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Digests each consecutive `piece`-byte piece of `data` (the last one
    /// may be shorter): the same digests as [`Sha256::digest`] on each
    /// piece, in order, and none for empty `data`.
    ///
    /// Two or more pieces are spread over up to
    /// [`std::thread::available_parallelism`] threads, never more than
    /// there are pieces: the caller and scoped helpers each take the next
    /// undone piece until none is left, so a slow core delays only the
    /// piece it holds. The CPU count is probed once per process, and only
    /// by a call of two or more pieces; a call of fewer hashes on the
    /// calling thread alone.
    ///
    /// # Panics
    ///
    /// Panics if `piece == 0`.
    pub fn digest_each(data: &[u8], piece: usize) -> Vec<Digest> {
        assert!(piece > 0, "piece size must be positive");
        let threads = if data.len() > piece { cpus() } else { 1 };
        digest_each_on(data, piece, threads)
    }

    /// Feeds `data` into the hasher. May be called any number of times.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, Kernel::detect());
    }

    /// Consumes the hasher and returns the final digest.
    pub fn finalize(self) -> Digest {
        self.finish(Kernel::detect())
    }

    /// [`Sha256::update`] on a given compressor: tops up a buffered
    /// partial block, then hands the run of whole blocks to one
    /// compressor call in place and buffers the tail.
    fn absorb(&mut self, mut data: &[u8], kernel: Kernel) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            kernel.compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha256::finalize`] on a given compressor: builds the one or two
    /// padding blocks (0x80, zeros to 56 mod 64, the 64-bit bit length)
    /// and compresses them in one call.
    fn finish(mut self, kernel: Kernel) -> Digest {
        let n = self.buf_len;
        let mut pad = [0u8; 128];
        pad[..n].copy_from_slice(&self.buf[..n]);
        pad[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        kernel.compress(&mut self.state, &pad[..len]);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Renders a digest as lowercase hex.
    pub fn to_hex(d: &Digest) -> String {
        let mut s = String::with_capacity(64);
        for b in d {
            use std::fmt::Write;
            let _ = write!(s, "{:02x}", b);
        }
        s
    }
}

/// How many threads may hash at once: `available_parallelism`, probed on
/// first use (it reads cgroup files, which costs microseconds per call).
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`Sha256::digest_each`] on at most `threads` threads (the caller
/// included). A helper that fails to start only leaves its share to the
/// threads that did.
fn digest_each_on(data: &[u8], piece: usize, threads: usize) -> Vec<Digest> {
    let pieces = data.len().div_ceil(piece);
    let threads = threads.min(pieces);
    if threads < 2 {
        return data.chunks(piece).map(Sha256::digest).collect();
    }
    // The counter only hands out piece indices; each thread's digests
    // reach this one through its join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= pieces {
                return done;
            }
            let start = i * piece;
            let end = (start + piece).min(data.len());
            done.push((i, Sha256::digest(&data[start..end])));
        }
    };
    let done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .name("stdchk-hash".into())
                    .spawn_scoped(s, work)
                    .ok()
            })
            .collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    let mut out = vec![[0u8; 32]; pieces];
    for (i, d) in done {
        out[i] = d;
    }
    out
}

/// A block compressor this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`compress_portable`]: any CPU, and Miri.
    Portable,
    /// [`compress_shani`]. Only [`Kernel::detect`] builds it, after the
    /// CPU reported every feature the kernel enables.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest compressor this CPU supports. std caches the CPUID
    /// probe behind `is_x86_feature_detected!`, so this costs a few
    /// loads; Miri reports no features and always gets
    /// [`Kernel::Portable`].
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only built by `detect`, after the CPU
            // reported sha, sse2, ssse3 and sse4.1.
            Kernel::ShaNi => unsafe { compress_shani(state, blocks) },
        }
    }
}

/// Portable block compressor: the FIPS 180-4 rounds on plain `u32`s.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-NI block compressor (Intel SHA extensions).
///
/// The state lives in two registers in the layout `sha256rnds2` wants,
/// `ABEF` and `CDGH`, for the whole run of blocks; each
/// `sha256rnds2` does two rounds and `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`
/// ([`Kernel::detect`] checks all four).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    /// Four rounds: add `K[4i..4i + 4]` to the message words `w`, then
    /// two `sha256rnds2` (the low and the high pair of words).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four schedule words from the previous sixteen
    /// (`w0` oldest): `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            _mm_sha256msg2_epu32(t, $w3)
        }};
    }

    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // Names list lanes from high to low: `dcba` holds a in lane 0.
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let dcba = _mm_set_epi32(d, c, b, a);
    let hgfe = _mm_set_epi32(h, g, f, e);
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 bytes long, so the four 16-byte loads are
        // in bounds; `loadu` has no alignment requirement.
        let v = unsafe {
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        let mut w0 = _mm_shuffle_epi8(v[0], bswap);
        let mut w1 = _mm_shuffle_epi8(v[1], bswap);
        let mut w2 = _mm_shuffle_epi8(v[2], bswap);
        let mut w3 = _mm_shuffle_epi8(v[3], bswap);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 4);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 5);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 6);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 7);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 8);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 9);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 10);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 11);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 12);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 13);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 14);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgfe, 0) as u32,
        _mm_extract_epi32(hgfe, 1) as u32,
        _mm_extract_epi32(hgfe, 2) as u32,
        _mm_extract_epi32(hgfe, 3) as u32,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix64;

    /// Every compressor this CPU can run: the portable one, plus the one
    /// [`Kernel::detect`] picks when that differs (it does not under Miri
    /// or without SHA-NI).
    fn kernels() -> Vec<Kernel> {
        let mut k = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            k.push(Kernel::detect());
        }
        k
    }

    fn digest_on(kernel: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.absorb(data, kernel);
        h.finish(kernel)
    }

    /// Checks a known-answer vector on both compressors.
    fn check(input: &[u8], want: &str) {
        for kernel in kernels() {
            assert_eq!(
                Sha256::to_hex(&digest_on(kernel, input)),
                want,
                "{kernel:?}"
            );
        }
    }

    /// `len` bytes of seeded noise.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| mix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as u8)
            .collect()
    }

    /// Hashes `data` through the public API in `update` calls whose
    /// lengths are drawn from `seed`: 1 byte, around a block, or long runs.
    fn digest_in_pieces(data: &[u8], seed: u64) -> Digest {
        let mut h = Sha256::new();
        let (mut rest, mut x) = (data, seed);
        while !rest.is_empty() {
            x = mix64(x);
            let max = [1, 3, 63, 64, 65, 200, 5000][(x % 7) as usize];
            let take = (1 + (x >> 32) as usize % max).min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        h.finalize()
    }

    #[test]
    fn nist_empty() {
        check(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        check(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_two_block() {
        check(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_million_a() {
        check(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn length_boundary_padding() {
        // Inputs whose length is near the 56-byte padding boundary exercise
        // the two-block finalization path.
        for len in 54..=66usize {
            let data = vec![0xabu8; len];
            let one = Sha256::digest(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(one, inc.finalize(), "len={len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_random_splits() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = Sha256::digest(&data);
        for split in [1usize, 7, 63, 64, 65, 100, 1000, 4095] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split={split}");
        }
    }

    #[test]
    fn dispatched_matches_portable_on_seeded_inputs() {
        // A seed below 4097 is its own length: first the padding and
        // block boundaries, then mix64-seeded lengths in 0..=4 KiB. Each
        // input is hashed in one call and in random pieces. Miri runs the
        // portable path on both sides, so it gets few seeded cases.
        let cases = if cfg!(miri) { 8 } else { 400 };
        let boundaries = [0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129];
        let seeded = (0..cases).map(|case| mix64(0x5eed ^ case));
        for seed in boundaries.into_iter().chain(seeded) {
            let data = noise(seed, (seed % 4097) as usize);
            let want = digest_on(Kernel::Portable, &data);
            assert_eq!(Sha256::digest(&data), want, "seed={seed}");
            assert_eq!(digest_in_pieces(&data, seed), want, "seed={seed}");
        }
    }

    #[test]
    fn digest_each_equals_per_piece_digests() {
        // 0, 1, 2, 3 and 65 pieces, each whole and with a short last
        // piece, also on explicit thread counts: Miri reports one CPU, so
        // there the public entry point never starts a helper.
        let sizes: &[usize] = if cfg!(miri) { &[1, 7] } else { &[1, 64, 1000] };
        for &piece in sizes {
            for count in [0usize, 1, 2, 3, 65] {
                let mut lens = vec![count * piece];
                if count > 0 && piece > 1 {
                    lens.extend([count * piece - 1, (count - 1) * piece + 1]);
                }
                for len in lens {
                    let data = noise((piece * 131 + len) as u64, len);
                    let want: Vec<Digest> = data.chunks(piece).map(Sha256::digest).collect();
                    assert_eq!(want.len(), count, "piece={piece} len={len}");
                    assert_eq!(
                        Sha256::digest_each(&data, piece),
                        want,
                        "piece={piece} len={len}"
                    );
                    for threads in [1, 2, 4] {
                        assert_eq!(
                            digest_each_on(&data, piece, threads),
                            want,
                            "piece={piece} len={len} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "piece size must be positive")]
    fn digest_each_rejects_empty_pieces() {
        Sha256::digest_each(b"abc", 0);
    }

    #[test]
    fn dispatched_matches_portable_on_a_mebibyte() {
        // Miri has only the portable path, so 64 KiB covers it there.
        let len = if cfg!(miri) { 1 << 16 } else { 1 << 20 };
        let data = noise(77, len + 77);
        let want = digest_on(Kernel::Portable, &data);
        assert_eq!(Sha256::digest(&data), want);
        assert_eq!(digest_in_pieces(&data, 77), want);
    }
}
