//! Durable manager-metadata mutation records and snapshots.
//!
//! The manager's namespace — files, version history, chunk reference
//! counts, retention policies, benefactor membership — is soft state in
//! the paper: a crashed manager restarts empty and recovers committed
//! files from chunk-maps that benefactors re-offer, but not names,
//! version ids, or policies. Here the manager write-ahead-logs every
//! namespace mutation as a [`MetaRecord`] and periodically serializes its
//! whole durable state as a [`MetaSnapshot`]; a restarted manager replays
//! snapshot + log and serves `stat`/`list`/`open` immediately. This log
//! is the only way a restarted manager recovers its namespace.
//!
//! Both types use the same hand-written [`Wire`] encoding as the protocol
//! messages, so the log format inherits the codec's round-trip property
//! tests. Framing (length prefix, CRC, torn-tail recovery) is the log
//! engine's job (`stdchk-net`'s `log` module), not this module's: a
//! record here is just a self-describing payload.

use crate::chunkmap::{ChunkEntry, ChunkMap};
use crate::codec::{Reader, Wire, Writer};
use crate::error::ProtoError;
use crate::ids::{ChunkId, FileId, NodeId, VersionId};
use crate::msg::DedupSummary;
use crate::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

/// One durable mutation of the manager's metadata, in commit order.
///
/// Records log *observable namespace state* only. Transient state —
/// reservations, in-flight replication jobs, pending pessimistic commits —
/// is deliberately not logged: a restart drops it and the protocols
/// re-establish it (clients retry, maintenance re-plans).
#[derive(Clone, Debug, PartialEq)]
pub enum MetaRecord {
    /// A version was sealed and became visible through a client
    /// `CommitChunkMap`. Carries everything replay needs to rebuild the
    /// file entry, the chunk reference counts, and the primary
    /// placements.
    Commit {
        /// Normalized file path.
        path: String,
        /// File id the version was committed under (stable across restarts).
        file: FileId,
        /// The sealed version.
        version: VersionId,
        /// Commit time (becomes the version's `mtime`).
        mtime: Time,
        /// Chunk-map entries in file order.
        entries: Vec<ChunkEntry>,
        /// Where each distinct chunk was stored at commit time.
        placements: Vec<(ChunkId, Vec<NodeId>)>,
        /// Replication target requested for this version's chunks.
        replication: u32,
    },
    /// Versions were dropped from a file (retention policies, explicit
    /// pruning). Replay decrements the dropped maps' chunk refcounts.
    Prune {
        /// Normalized file path.
        path: String,
        /// The version ids removed.
        versions: Vec<VersionId>,
    },
    /// The file was deleted outright (its remaining versions decref'd).
    Delete {
        /// Normalized file path.
        path: String,
    },
    /// A retention policy was attached to a directory.
    SetPolicy {
        /// Normalized directory path.
        dir: String,
        /// The policy now in force.
        policy: RetentionPolicy,
    },
    /// A benefactor joined the pool, or re-registered with a new address.
    /// Liveness stays soft state (heartbeats); the durable part is the id
    /// assignment (so a restart never reissues it) and the dial address
    /// (so clients can reach replicas before the first heartbeat).
    Benefactor {
        /// The node id the manager assigned.
        node: NodeId,
        /// Dial address (empty under the simulator).
        addr: String,
        /// Donated space in bytes.
        total: u64,
    },
    /// A benefactor's heartbeat lease expired, ending one online session.
    /// Replay folds the session length and the departure count into the
    /// manager's churn totals (like the dedup totals below) so failure-rate
    /// estimates survive restarts; liveness itself stays soft state.
    Churn {
        /// The departed node.
        node: NodeId,
        /// How long the node was continuously online before expiring.
        session: Dur,
    },
    /// How a committed version's bytes travelled under have/want
    /// negotiation. Logged alongside the matching `Commit` record so
    /// restart-surviving dedup totals can be audited; replay folds it into
    /// the manager's dedup counters and nothing else (the namespace effect
    /// is entirely in the `Commit` record).
    Dedup {
        /// The committed file.
        file: FileId,
        /// The committed version.
        version: VersionId,
        /// Offered/wanted counts and reused/delta/full byte totals.
        summary: DedupSummary,
    },
}

const TAG_COMMIT: u8 = 0;
const TAG_PRUNE: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_SET_POLICY: u8 = 3;
const TAG_BENEFACTOR: u8 = 4;
const TAG_DEDUP: u8 = 5;
const TAG_CHURN: u8 = 6;

impl MetaRecord {
    /// Stable wire discriminant.
    pub fn wire_tag(&self) -> u8 {
        match self {
            MetaRecord::Commit { .. } => TAG_COMMIT,
            MetaRecord::Prune { .. } => TAG_PRUNE,
            MetaRecord::Delete { .. } => TAG_DELETE,
            MetaRecord::SetPolicy { .. } => TAG_SET_POLICY,
            MetaRecord::Benefactor { .. } => TAG_BENEFACTOR,
            MetaRecord::Churn { .. } => TAG_CHURN,
            MetaRecord::Dedup { .. } => TAG_DEDUP,
        }
    }

    /// Encoded size in bytes (what one log append costs, pre-framing).
    pub fn wire_size(&self) -> u64 {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len() as u64
    }
}

impl Wire for MetaRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.wire_tag());
        match self {
            MetaRecord::Commit {
                path,
                file,
                version,
                mtime,
                entries,
                placements,
                replication,
            } => {
                path.encode(w);
                file.encode(w);
                version.encode(w);
                mtime.encode(w);
                entries.encode(w);
                placements.encode(w);
                w.put_u32(*replication);
            }
            MetaRecord::Prune { path, versions } => {
                path.encode(w);
                versions.encode(w);
            }
            MetaRecord::Delete { path } => path.encode(w),
            MetaRecord::SetPolicy { dir, policy } => {
                dir.encode(w);
                policy.encode(w);
            }
            MetaRecord::Benefactor { node, addr, total } => {
                node.encode(w);
                addr.encode(w);
                w.put_u64(*total);
            }
            MetaRecord::Churn { node, session } => {
                node.encode(w);
                session.encode(w);
            }
            MetaRecord::Dedup {
                file,
                version,
                summary,
            } => {
                file.encode(w);
                version.encode(w);
                summary.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(match r.get_u8()? {
            TAG_COMMIT => MetaRecord::Commit {
                path: String::decode(r)?,
                file: FileId::decode(r)?,
                version: VersionId::decode(r)?,
                mtime: Time::decode(r)?,
                entries: Vec::decode(r)?,
                placements: Vec::decode(r)?,
                replication: r.get_u32()?,
            },
            TAG_PRUNE => MetaRecord::Prune {
                path: String::decode(r)?,
                versions: Vec::decode(r)?,
            },
            TAG_DELETE => MetaRecord::Delete {
                path: String::decode(r)?,
            },
            TAG_SET_POLICY => MetaRecord::SetPolicy {
                dir: String::decode(r)?,
                policy: RetentionPolicy::decode(r)?,
            },
            TAG_BENEFACTOR => MetaRecord::Benefactor {
                node: NodeId::decode(r)?,
                addr: String::decode(r)?,
                total: r.get_u64()?,
            },
            TAG_CHURN => MetaRecord::Churn {
                node: NodeId::decode(r)?,
                session: Dur::decode(r)?,
            },
            TAG_DEDUP => MetaRecord::Dedup {
                file: FileId::decode(r)?,
                version: VersionId::decode(r)?,
                summary: DedupSummary::decode(r)?,
            },
            t => return Err(ProtoError::bad(format!("unknown meta record tag {t}"))),
        })
    }
}

/// One committed version inside a [`MetaSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotVersion {
    /// The version id.
    pub version: VersionId,
    /// Commit time.
    pub mtime: Time,
    /// Chunk-map entries in file order.
    pub entries: Vec<ChunkEntry>,
}

impl Wire for SnapshotVersion {
    fn encode(&self, w: &mut Writer) {
        self.version.encode(w);
        self.mtime.encode(w);
        self.entries.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(SnapshotVersion {
            version: VersionId::decode(r)?,
            mtime: Time::decode(r)?,
            entries: Vec::decode(r)?,
        })
    }
}

/// One file entry inside a [`MetaSnapshot`], versions in commit order.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFile {
    /// Normalized path.
    pub path: String,
    /// Stable file id.
    pub id: FileId,
    /// Highest replication target requested for this file.
    pub replication: u32,
    /// Committed versions, oldest first.
    pub versions: Vec<SnapshotVersion>,
}

impl Wire for SnapshotFile {
    fn encode(&self, w: &mut Writer) {
        self.path.encode(w);
        self.id.encode(w);
        w.put_u32(self.replication);
        self.versions.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(SnapshotFile {
            path: String::decode(r)?,
            id: FileId::decode(r)?,
            replication: r.get_u32()?,
            versions: Vec::decode(r)?,
        })
    }
}

/// Per-chunk durable metadata inside a [`MetaSnapshot`]. Reference counts
/// are not stored: replay recomputes them from the version maps, so the
/// refcount invariant holds by construction after a restore.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotChunk {
    /// Content hash.
    pub id: ChunkId,
    /// Size in bytes.
    pub size: u32,
    /// Replication target.
    pub target: u32,
    /// Known replica holders at snapshot time (repaired by GC reports).
    pub locations: Vec<NodeId>,
}

impl Wire for SnapshotChunk {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_u32(self.size);
        w.put_u32(self.target);
        self.locations.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(SnapshotChunk {
            id: ChunkId::decode(r)?,
            size: r.get_u32()?,
            target: r.get_u32()?,
            locations: Vec::decode(r)?,
        })
    }
}

/// A full serialized image of the manager's durable state, written
/// periodically so log replay stays bounded (snapshot + tail instead of
/// the whole history).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetaSnapshot {
    /// Next benefactor node id to assign.
    pub next_node: u64,
    /// Next file id to assign.
    pub next_file: u64,
    /// Next version id to assign.
    pub next_version: u64,
    /// Benefactor membership: `(id, dial address, donated bytes)`.
    pub benefactors: Vec<(NodeId, String, u64)>,
    /// Every file with at least one committed version.
    pub files: Vec<SnapshotFile>,
    /// Directory retention policies.
    pub dirs: Vec<(String, RetentionPolicy)>,
    /// Durable per-chunk metadata (size, target, last known locations).
    pub chunks: Vec<SnapshotChunk>,
}

impl MetaSnapshot {
    /// Rebuilds a [`ChunkMap`] from a snapshot version's entries.
    pub fn map_of(v: &SnapshotVersion) -> ChunkMap {
        ChunkMap::from_entries(v.entries.clone())
    }
}

impl Wire for MetaSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.next_node);
        w.put_u64(self.next_file);
        w.put_u64(self.next_version);
        self.benefactors.encode(w);
        self.files.encode(w);
        self.dirs.encode(w);
        self.chunks.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(MetaSnapshot {
            next_node: r.get_u64()?,
            next_file: r.get_u64()?,
            next_version: r.get_u64()?,
            benefactors: Vec::decode(r)?,
            files: Vec::decode(r)?,
            dirs: Vec::decode(r)?,
            chunks: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire_bytes();
        assert_eq!(T::from_wire_bytes(&bytes).expect("decode"), v);
    }

    fn entry(n: u64, size: u32) -> ChunkEntry {
        ChunkEntry {
            id: ChunkId::test_id(n),
            size,
        }
    }

    #[test]
    fn record_roundtrips() {
        roundtrip(MetaRecord::Commit {
            path: "/app/ck.n0".into(),
            file: FileId(7),
            version: VersionId(12),
            mtime: Time::from_secs(99),
            entries: vec![entry(1, 64), entry(2, 32), entry(1, 64)],
            placements: vec![
                (ChunkId::test_id(1), vec![NodeId(3), NodeId(4)]),
                (ChunkId::test_id(2), vec![NodeId(3)]),
            ],
            replication: 2,
        });
        roundtrip(MetaRecord::Prune {
            path: "/app/ck.n0".into(),
            versions: vec![VersionId(3), VersionId(4)],
        });
        roundtrip(MetaRecord::Delete {
            path: "/gone".into(),
        });
        roundtrip(MetaRecord::SetPolicy {
            dir: "/jobs".into(),
            policy: RetentionPolicy::AutomatedReplace { keep_last: 2 },
        });
        roundtrip(MetaRecord::Benefactor {
            node: NodeId(5),
            addr: "10.0.0.2:4402".into(),
            total: 1 << 40,
        });
        roundtrip(MetaRecord::Churn {
            node: NodeId(5),
            session: Dur::from_secs(7200),
        });
        roundtrip(MetaRecord::Dedup {
            file: FileId(7),
            version: VersionId(12),
            summary: DedupSummary {
                offered: 8,
                wanted: 3,
                reused_bytes: 5 << 16,
                delta_bytes: 900,
                full_bytes: 2 << 16,
            },
        });
    }

    #[test]
    fn snapshot_roundtrips() {
        roundtrip(MetaSnapshot {
            next_node: 9,
            next_file: 4,
            next_version: 17,
            benefactors: vec![
                (NodeId(1), "a:1".into(), 10),
                (NodeId(2), String::new(), 20),
            ],
            files: vec![SnapshotFile {
                path: "/f".into(),
                id: FileId(1),
                replication: 2,
                versions: vec![SnapshotVersion {
                    version: VersionId(5),
                    mtime: Time::from_secs(1),
                    entries: vec![entry(9, 128)],
                }],
            }],
            dirs: vec![(
                "/jobs".into(),
                RetentionPolicy::AutomatedPurge {
                    after: stdchk_util::Dur::from_secs(60),
                },
            )],
            chunks: vec![SnapshotChunk {
                id: ChunkId::test_id(9),
                size: 128,
                target: 2,
                locations: vec![NodeId(1)],
            }],
        });
        roundtrip(MetaSnapshot::default());
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(MetaRecord::from_wire_bytes(&[200]).is_err());
    }

    #[test]
    fn wire_size_matches_encoding() {
        let rec = MetaRecord::Delete {
            path: "/app/x".into(),
        };
        assert_eq!(rec.wire_size(), rec.to_wire_bytes().len() as u64);
    }
}
