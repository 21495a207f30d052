//! Strongly-typed identifiers.
//!
//! Newtypes keep node/file/version/reservation identifiers from being mixed
//! up at compile time (C-NEWTYPE). [`ChunkId`] is special: it is the SHA-256
//! digest of the chunk *content*, which gives stdchk content-based
//! addressability — equal content is the same chunk everywhere, enabling
//! cross-version dedup and end-to-end integrity verification.

use std::fmt;

use stdchk_util::sha256::{Digest, Sha256};

macro_rules! u64_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric value.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

u64_id!(
    /// Identifies a node (client or benefactor) in the storage pool.
    ///
    /// The metadata manager assigns ids on first registration; drivers may
    /// also pre-assign them in closed-world deployments (the simulator does).
    NodeId,
    "n"
);
u64_id!(
    /// Identifies a logical file in the manager's namespace.
    FileId,
    "f"
);
u64_id!(
    /// Identifies one committed version of a file (a checkpoint timestep).
    VersionId,
    "v"
);
u64_id!(
    /// Identifies an eager space reservation granted by the manager.
    ReservationId,
    "r"
);
u64_id!(
    /// Correlates a request with its reply on one connection.
    RequestId,
    "q"
);

/// Content-addressed chunk identifier: the SHA-256 digest of the chunk bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub Digest);

impl ChunkId {
    /// Computes the id of a chunk from its content.
    ///
    /// # Examples
    ///
    /// ```
    /// use stdchk_proto::ids::ChunkId;
    ///
    /// let a = ChunkId::for_content(b"hello");
    /// let b = ChunkId::for_content(b"hello");
    /// assert_eq!(a, b);
    /// assert_ne!(a, ChunkId::for_content(b"world"));
    /// ```
    pub fn for_content(data: &[u8]) -> ChunkId {
        ChunkId(Sha256::digest(data))
    }

    /// Verifies that `data` matches this id.
    pub fn verify(&self, data: &[u8]) -> bool {
        ChunkId::for_content(data) == *self
    }

    /// The raw 32-byte digest.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A deterministic id for tests: digest of the little-endian `n`.
    pub fn test_id(n: u64) -> ChunkId {
        ChunkId::for_content(&n.to_le_bytes())
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{:02x}{:02x}{:02x}{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", NodeId(7)), "n7");
        assert_eq!(format!("{:?}", FileId(3)), "f3");
        assert_eq!(format!("{}", VersionId(1)), "v1");
    }

    #[test]
    fn chunk_id_verifies_content() {
        let id = ChunkId::for_content(b"data");
        assert!(id.verify(b"data"));
        assert!(!id.verify(b"tampered"));
    }

    #[test]
    fn chunk_id_rejects_a_single_flipped_bit() {
        // One byte past a power of two: 1024 whole blocks plus a 1-byte
        // tail that the final padding block carries.
        let data: Vec<u8> = (0..65_537u32).map(|i| (i * 131 % 251) as u8).collect();
        let id = ChunkId::for_content(&data);
        assert!(id.verify(&data));
        for at in [0, data.len() / 2, data.len() - 1] {
            let mut bad = data.clone();
            bad[at] ^= 0x10;
            assert!(!id.verify(&bad), "flip at byte {at} went unnoticed");
        }
    }

    #[test]
    fn chunk_id_debug_is_short_hex() {
        let id = ChunkId::for_content(b"x");
        let s = format!("{id:?}");
        assert!(s.starts_with('c') && s.len() == 9, "{s}");
    }
}
