//! Shared utilities for the stdchk checkpoint storage system.
//!
//! This crate is dependency-free and hosts the primitives every other stdchk
//! crate builds on:
//!
//! - [`sha256`]: SHA-256 for content-addressed chunk naming and
//!   integrity verification; its block compressor runs on the SHA-NI
//!   instructions when the CPU has them (chosen at run time) and on a
//!   portable fallback otherwise, and its multi-digest names a run of
//!   chunks on every core.
//! - [`crc32`]: CRC-32C record checksums for the segment-log storage
//!   engine's framing and torn-tail detection.
//! - [`rolling`]: the polynomial window hashes used by the content-based
//!   chunking (CbCH) heuristics.
//! - [`time`]: nanosecond-precision [`Time`]/[`Dur`] newtypes shared by the
//!   sans-IO protocol core and the discrete-event simulator.
//! - [`rate`]: a token-bucket rate limiter.
//! - [`ordlock`]: rank-ordered mutexes whose debug builds panic at the
//!   moment of a lock-order inversion, turning potential deadlocks into
//!   deterministic test failures.
//! - [`bytesize`]: human-readable byte/throughput formatting for benchmark
//!   harness output.
//!
//! # Examples
//!
//! ```
//! use stdchk_util::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"checkpoint image bytes");
//! assert_eq!(digest.len(), 32);
//! ```

pub mod bytesize;
pub mod crc32;
pub mod ordlock;
pub mod rate;
pub mod rolling;
pub mod sha256;
pub mod time;

pub use time::{Dur, Time};

/// Finalizing 64-bit mixer (the SplitMix64 finalizer).
///
/// Used to whiten weak polynomial rolling-hash states before their low bits
/// are inspected for chunk-boundary decisions, and as a cheap deterministic
/// PRNG step in tests.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(1), mix64(2));
        let a = mix64(0xdead_beef);
        assert_eq!(a, mix64(0xdead_beef));
    }

    #[test]
    fn mix64_low_bits_vary() {
        // The low 16 bits over consecutive inputs should not be constant.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            seen.insert(mix64(i) & 0xffff);
        }
        assert!(seen.len() > 200, "low bits collapse: {}", seen.len());
    }
}
