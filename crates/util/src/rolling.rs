//! Window hashes for content-based chunking (CbCH).
//!
//! The paper's CbCH heuristic (§IV.C) scans a checkpoint image with a window
//! of `m` bytes and computes a hash at each window position; a chunk boundary
//! is declared when the lowest `k` bits of the hash are zero. Two scanning
//! regimes exist:
//!
//! - **overlap**: the window advances 1 byte at a time (`p = 1`). The paper
//!   computes a *full* hash of the window at every position, which is why it
//!   measures ~1 MB/s.
//! - **no-overlap**: the window advances by its own size (`p = m`), hashing
//!   each byte once.
//!
//! [`WindowHash`] is the one-shot window hash used to reproduce the paper's
//! behaviour faithfully. [`RollingHash`] is an O(1)-slide Rabin–Karp variant
//! we ship as an extension: it makes the overlap regime cheap, and an
//! ablation benchmark shows the throughput gap closing.
//!
//! [`lane_hash`] computes the same value as [`WindowHash::hash`] over a
//! whole window, but splits the polynomial over 8 independent
//! multiply-add lanes instead of one serial chain, so the CPU overlaps
//! their multiplies. The delta encoder's block signatures use it, and
//! [`RollingHash::refill`] seeds a rolling window with it. `WindowHash`
//! keeps the serial chain: it is the per-position cost the paper's
//! overlap mode pays, which the CbCH ablation measures.

use crate::mix64;

/// Multiplier for the polynomial hash. An odd constant with good bit
/// dispersion; the final [`mix64`] whitening is what boundary decisions rely
/// on, so the base only needs to avoid degenerate cycles.
const BASE: u64 = 0x0100_0000_01b3; // FNV-ish prime, 2^40 scale

/// Lanes of [`lane_hash`]: lane `j` folds bytes `j, j + 8, j + 16, …`.
const LANES: usize = 8;

/// `BASE^e` with wrapping arithmetic.
const fn base_pow(e: u32) -> u64 {
    let mut w: u64 = 1;
    let mut i = 0;
    while i < e {
        w = w.wrapping_mul(BASE);
        i += 1;
    }
    w
}

/// `BASE^8`: one step of a lane skips the 8 bytes the other lanes fold.
const LANE_STEP: u64 = base_pow(LANES as u32);

/// `BASE^(7-j)`, the weight lane `j`'s sum carries in the serial chain.
const LANE_WEIGHTS: [u64; LANES] = [
    base_pow(7),
    base_pow(6),
    base_pow(5),
    base_pow(4),
    base_pow(3),
    base_pow(2),
    base_pow(1),
    base_pow(0),
];

/// The unwhitened accumulator `Σ (w[i] + 1) · BASE^(m-1-i)`, computed on 8
/// lanes.
///
/// Over the first `8g` bytes, lane `j` holds `Σ (w[8k+j] + 1) ·
/// BASE^(8(g-1-k))`, so `Σ lane_j · BASE^(7-j)` is the serial chain's
/// value after those bytes. The last `m mod 8` bytes continue that chain.
#[inline]
fn lane_acc(window: &[u8]) -> u64 {
    let mut lanes = [0u64; LANES];
    let mut groups = window.chunks_exact(LANES);
    for g in &mut groups {
        for (lane, &b) in lanes.iter_mut().zip(g) {
            *lane = lane.wrapping_mul(LANE_STEP).wrapping_add(b as u64 + 1);
        }
    }
    let mut acc = lanes
        .iter()
        .zip(LANE_WEIGHTS)
        .fold(0u64, |acc, (&lane, w)| {
            acc.wrapping_add(lane.wrapping_mul(w))
        });
    for &b in groups.remainder() {
        acc = acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
    }
    acc
}

/// [`WindowHash::hash`] of `window`, computed on 8 independent lanes.
///
/// Equal to `WindowHash::hash(window)` and to a [`RollingHash`] over
/// `window` for every input, at any length; property-tested.
#[inline]
pub fn lane_hash(window: &[u8]) -> u64 {
    mix64(lane_acc(window))
}

/// One-shot polynomial hash of a byte window.
///
/// `H(w) = mix64( Σ w[i] · BASE^(m-1-i) )` with wrapping arithmetic.
///
/// This is intentionally *recomputed from scratch per position* by the
/// paper-faithful CbCH overlap mode; see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowHash;

impl WindowHash {
    /// Hashes an entire window.
    #[inline]
    pub fn hash(window: &[u8]) -> u64 {
        let mut acc: u64 = 0;
        for &b in window {
            acc = acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
        }
        mix64(acc)
    }
}

/// An O(1)-slide rolling hash over a fixed-size window (Rabin–Karp style).
///
/// Maintains the same polynomial accumulator as [`WindowHash`] — sliding the
/// window by one byte removes the oldest byte's term and appends the new
/// byte — so `RollingHash` over window `w` always equals
/// [`WindowHash::hash`]`(w)`. That equivalence is property-tested.
///
/// # Examples
///
/// ```
/// use stdchk_util::rolling::{RollingHash, WindowHash};
///
/// let data = b"the quick brown fox jumps over the lazy dog";
/// let m = 8;
/// let mut rh = RollingHash::new(m);
/// for &b in &data[..m] {
///     rh.push(b);
/// }
/// assert_eq!(rh.value(), WindowHash::hash(&data[..m]));
/// rh.slide(data[0], data[m]);
/// assert_eq!(rh.value(), WindowHash::hash(&data[1..m + 1]));
/// ```
#[derive(Clone, Debug)]
pub struct RollingHash {
    acc: u64,
    /// BASE^(m-1), the weight of the outgoing byte.
    top_weight: u64,
    window: usize,
    filled: usize,
}

impl RollingHash {
    /// Creates a rolling hash for windows of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        let mut w: u64 = 1;
        for _ in 0..window - 1 {
            w = w.wrapping_mul(BASE);
        }
        RollingHash {
            acc: 0,
            top_weight: w,
            window,
            filled: 0,
        }
    }

    /// The configured window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// True once `window` bytes have been pushed.
    pub fn is_full(&self) -> bool {
        self.filled == self.window
    }

    /// Appends a byte while the window is still filling.
    ///
    /// # Panics
    ///
    /// Panics if the window is already full (use [`RollingHash::slide`]).
    #[inline]
    pub fn push(&mut self, b: u8) {
        assert!(self.filled < self.window, "window full; use slide");
        self.acc = self.acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
        self.filled += 1;
    }

    /// Slides the full window one byte: removes `out`, appends `inc`.
    ///
    /// # Panics
    ///
    /// Panics if the window is not yet full.
    #[inline]
    pub fn slide(&mut self, out: u8, inc: u8) {
        debug_assert!(self.is_full(), "window not full; use push");
        self.acc = self
            .acc
            .wrapping_sub((out as u64 + 1).wrapping_mul(self.top_weight))
            .wrapping_mul(BASE)
            .wrapping_add(inc as u64 + 1);
    }

    /// The whitened hash of the current window contents.
    #[inline]
    pub fn value(&self) -> u64 {
        mix64(self.acc)
    }

    /// Clears the window so it can refill from scratch.
    pub fn reset(&mut self) {
        self.acc = 0;
        self.filled = 0;
    }

    /// Replaces the window with `window` in one [`lane_hash`] pass: the
    /// same state as [`RollingHash::reset`] followed by a
    /// [`RollingHash::push`] of every byte, without the per-byte fill
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` is not the configured window size.
    #[inline]
    pub fn refill(&mut self, window: &[u8]) {
        assert_eq!(window.len(), self.window, "refill needs a whole window");
        self.acc = lane_acc(window);
        self.filled = self.window;
    }
}

/// Returns true when the low `k` bits of `hash` are all zero — the CbCH
/// chunk-boundary predicate. Statistically this fires once every `2^k`
/// positions, so `k` controls the expected chunk size.
#[inline]
pub fn is_boundary(hash: u64, k: u32) -> bool {
    debug_assert!(k < 64);
    hash & ((1u64 << k) - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_equals_oneshot_over_text() {
        let data: Vec<u8> = (0..4096u32).map(|i| mix64(i as u64) as u8).collect();
        for m in [1usize, 2, 7, 20, 32, 64] {
            let mut rh = RollingHash::new(m);
            for &b in &data[..m] {
                rh.push(b);
            }
            assert_eq!(rh.value(), WindowHash::hash(&data[..m]), "fill m={m}");
            for i in 0..data.len() - m - 1 {
                rh.slide(data[i], data[i + m]);
                assert_eq!(
                    rh.value(),
                    WindowHash::hash(&data[i + 1..i + 1 + m]),
                    "slide i={i} m={m}"
                );
            }
        }
    }

    #[test]
    fn boundary_rate_is_close_to_expected() {
        // With whitened hashes, boundaries should appear at roughly 2^-k.
        let data: Vec<u8> = (0..200_000u64).map(|i| mix64(i) as u8).collect();
        let m = 20;
        let k = 8;
        let mut rh = RollingHash::new(m);
        for &b in &data[..m] {
            rh.push(b);
        }
        let mut boundaries = 0u64;
        let mut positions = 0u64;
        for i in 0..data.len() - m - 1 {
            rh.slide(data[i], data[i + m]);
            positions += 1;
            if is_boundary(rh.value(), k) {
                boundaries += 1;
            }
        }
        let rate = boundaries as f64 / positions as f64;
        let expect = 1.0 / 2f64.powi(k as i32);
        assert!(
            (rate - expect).abs() < expect * 0.3,
            "rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn reset_refills_cleanly() {
        let mut rh = RollingHash::new(4);
        for b in b"abcd" {
            rh.push(*b);
        }
        let v = rh.value();
        rh.reset();
        assert!(!rh.is_full());
        for b in b"abcd" {
            rh.push(*b);
        }
        assert_eq!(rh.value(), v);
    }

    #[test]
    fn refill_matches_push_and_keeps_rolling() {
        let data: Vec<u8> = (0..300u64).map(|i| mix64(i) as u8).collect();
        for m in [1usize, 7, 8, 9, 64, 100] {
            let mut pushed = RollingHash::new(m);
            for &b in &data[..m] {
                pushed.push(b);
            }
            let mut refilled = RollingHash::new(m);
            refilled.refill(&data[..m]);
            assert!(refilled.is_full());
            assert_eq!(refilled.value(), pushed.value(), "m={m}");
            for i in 0..data.len() - m {
                refilled.slide(data[i], data[i + m]);
                assert_eq!(
                    refilled.value(),
                    WindowHash::hash(&data[i + 1..i + 1 + m]),
                    "slide i={i} m={m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole window")]
    fn refill_rejects_a_short_window() {
        RollingHash::new(4).refill(b"abc");
    }

    /// Longest window the lane-hash property draws; short under Miri.
    const LANE_MAX: usize = if cfg!(miri) { 300 } else { 4096 };

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn lane_hash_equals_window_hash(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..LANE_MAX + 1),
        ) {
            proptest::prop_assert_eq!(lane_hash(&data), WindowHash::hash(&data));
            let mut rh = RollingHash::new(data.len());
            rh.refill(&data);
            proptest::prop_assert_eq!(rh.value(), WindowHash::hash(&data));
        }
    }

    #[test]
    fn lane_hash_equals_window_hash_at_every_short_length() {
        // Every remainder mod 8, with and without whole lane groups.
        let data: Vec<u8> = (0..64u64).map(|i| mix64(i) as u8).collect();
        for m in 1..=data.len() {
            assert_eq!(lane_hash(&data[..m]), WindowHash::hash(&data[..m]), "m={m}");
        }
    }

    #[test]
    #[should_panic]
    fn push_past_full_panics() {
        let mut rh = RollingHash::new(2);
        rh.push(1);
        rh.push(2);
        rh.push(3);
    }
}
