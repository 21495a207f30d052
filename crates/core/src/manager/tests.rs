//! Unit tests for the manager state machine.

use std::collections::HashSet;

use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId, ReservationId, VersionId};
use stdchk_proto::msg::Msg;
use stdchk_proto::policy::RetentionPolicy;
use stdchk_proto::ErrorCode;
use stdchk_util::{Dur, Time};

use crate::config::PoolConfig;
use crate::manager::Manager;
use crate::node::{Action, Node};

const GIB: u64 = 1 << 30;

/// One reply the manager queued.
#[derive(Debug)]
struct Reply {
    to: NodeId,
    msg: Msg,
}

/// Drains the manager's actions, keeping its replies. These tests attach
/// no log, so WAL records are dropped.
fn sends(mgr: &mut Manager) -> Vec<Reply> {
    mgr.drain_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some(Reply { to, msg }),
            Action::MetaAppend { .. } => None,
            other => panic!("manager never emits {other:?}"),
        })
        .collect()
}

struct Harness {
    mgr: Manager,
    now: Time,
    next_req: u64,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            mgr: Manager::new(PoolConfig::fast_for_tests()),
            now: Time::ZERO,
            next_req: 1,
        }
    }

    fn req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    fn advance(&mut self, d: Dur) -> Vec<Reply> {
        self.now += d;
        self.mgr.handle_timeout(self.now);
        sends(&mut self.mgr)
    }

    /// Joins `n` benefactors, returning their ids.
    fn join_benefactors(&mut self, n: usize) -> Vec<NodeId> {
        let mut ids = Vec::new();
        for i in 0..n {
            let req = self.req();
            self.mgr.handle(
                NodeId(1000 + i as u64),
                Msg::JoinRequest {
                    req,
                    addr: String::new(),
                    total_space: GIB,
                },
                self.now,
            );
            let out = sends(&mut self.mgr);
            match &out[0].msg {
                Msg::JoinOk { node, .. } => ids.push(*node),
                other => panic!("expected JoinOk, got {other:?}"),
            }
        }
        ids
    }

    fn heartbeat_all(&mut self, nodes: &[NodeId]) {
        for n in nodes {
            self.mgr.handle(
                *n,
                Msg::Heartbeat {
                    node: *n,
                    free_space: GIB,
                    total_space: GIB,
                    addr: String::new(),
                },
                self.now,
            );
            sends(&mut self.mgr);
        }
    }

    /// Opens a write session; returns (reservation, stripe, prev_chunks, version).
    fn open(
        &mut self,
        path: &str,
        replication: u32,
    ) -> (ReservationId, Vec<NodeId>, Vec<ChunkEntry>, VersionId) {
        let req = self.req();
        self.mgr.handle(
            NodeId(77),
            Msg::CreateFile {
                req,
                client: NodeId(77),
                path: path.to_string(),
                stripe_width: 4,
                replication,
                expected_chunks: 8,
            },
            self.now,
        );
        let out = sends(&mut self.mgr);
        match &out[0].msg {
            Msg::CreateFileOk {
                reservation,
                stripe,
                prev_chunks,
                version,
                ..
            } => (*reservation, stripe.clone(), prev_chunks.clone(), *version),
            other => panic!("expected CreateFileOk, got {other:?}"),
        }
    }

    /// Commits entries placing each distinct chunk on the first stripe node.
    fn commit(
        &mut self,
        reservation: ReservationId,
        entries: Vec<ChunkEntry>,
        stripe: &[NodeId],
        pessimistic: bool,
    ) -> Vec<Reply> {
        let req = self.req();
        let mut placements = Vec::new();
        let mut seen = HashSet::new();
        for (i, e) in entries.iter().enumerate() {
            if seen.insert(e.id) {
                placements.push((e.id, vec![stripe[i % stripe.len()]]));
            }
        }
        self.mgr.handle(
            NodeId(77),
            Msg::CommitChunkMap {
                req,
                reservation,
                entries,
                placements,
                pessimistic,
                dedup: Default::default(),
            },
            self.now,
        );
        sends(&mut self.mgr)
    }
}

fn entries(ids: &[u64], size: u32) -> Vec<ChunkEntry> {
    ids.iter()
        .map(|n| ChunkEntry {
            id: ChunkId::test_id(*n),
            size,
        })
        .collect()
}

fn find_reply(out: &[Reply], pred: impl Fn(&Msg) -> bool) -> &Msg {
    out.iter()
        .map(|s| &s.msg)
        .find(|m| pred(m))
        .unwrap_or_else(|| panic!("no matching message in {out:?}"))
}

#[test]
fn join_assigns_distinct_ids() {
    let mut h = Harness::new();
    let ids = h.join_benefactors(3);
    assert_eq!(ids.len(), 3);
    let set: HashSet<_> = ids.iter().collect();
    assert_eq!(set.len(), 3);
    assert_eq!(h.mgr.online_benefactors(), 3);
}

#[test]
fn create_without_benefactors_is_no_space() {
    let mut h = Harness::new();
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CreateFile {
            req,
            client: NodeId(77),
            path: "/a".into(),
            stripe_width: 2,
            replication: 1,
            expected_chunks: 1,
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(
        out[0].msg,
        Msg::ErrorReply {
            code: ErrorCode::NoSpace,
            ..
        }
    ));
}

#[test]
fn commit_makes_file_visible_with_locations() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(4);
    let (res, stripe, prev, _v) = h.open("/app/ckpt.n1", 1);
    assert!(prev.is_empty());
    assert_eq!(stripe.len(), 4);
    let ents = entries(&[1, 2, 3], 1024);
    let out = h.commit(res, ents.clone(), &stripe, false);
    find_reply(&out, |m| matches!(m, Msg::CommitOk { .. }));

    // GetFile returns the map with online locations.
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetFile {
            req,
            path: "/app/ckpt.n1".into(),
            version: None,
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::FileViewReply { view, .. } => {
            assert_eq!(view.map.entries(), ents.as_slice());
            for (_, locs) in &view.locations {
                assert_eq!(locs.len(), 1);
                assert!(nodes.contains(&locs[0]));
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    // Attr reflects the committed version.
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetAttr {
            req,
            path: "/app/ckpt.n1".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::AttrReply { attr, .. } => {
            assert_eq!(attr.size, 3 * 1024);
            assert_eq!(attr.versions, 1);
            assert!(!attr.is_dir);
        }
        other => panic!("unexpected {other:?}"),
    }
    h.mgr.check_invariants();
}

#[test]
fn uncommitted_file_is_invisible() {
    let mut h = Harness::new();
    h.join_benefactors(2);
    let (_res, _stripe, _prev, _v) = h.open("/a/b", 1);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetAttr {
            req,
            path: "/a/b".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(
        matches!(
            out[0].msg,
            Msg::ErrorReply {
                code: ErrorCode::NotFound,
                ..
            }
        ),
        "open-but-uncommitted file must not stat as a file: {out:?}"
    );
}

#[test]
fn second_version_shares_chunks_and_reports_prev() {
    let mut h = Harness::new();
    h.join_benefactors(3);
    let (res1, stripe, _, v1) = h.open("/f", 1);
    let e1 = entries(&[1, 2], 64);
    h.commit(res1, e1.clone(), &stripe, false);

    let (res2, stripe2, prev, v2) = h.open("/f", 1);
    assert_eq!(prev, e1, "previous version's entries offered for dedup");
    assert_ne!(v1, v2);
    // New version: chunk 2 reused, chunk 9 fresh.
    let e2 = entries(&[2, 9], 64);
    h.commit(res2, e2, &stripe2, false);
    h.mgr.check_invariants();

    // Both versions listed.
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::ListVersions {
            req,
            path: "/f".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::VersionListReply { versions, .. } => assert_eq!(versions.len(), 2),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn commit_without_placement_is_rejected() {
    let mut h = Harness::new();
    h.join_benefactors(2);
    let (res, _stripe, _, _) = h.open("/g", 1);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[5], 10),
            placements: vec![],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(
        out[0].msg,
        Msg::ErrorReply {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    h.mgr.check_invariants();
}

#[test]
fn stale_reservation_conflicts() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(2);
    let (res, stripe, _, _) = h.open("/h", 1);
    h.commit(res, entries(&[1], 10), &stripe, false);
    // Second commit on the same reservation.
    let out = h.commit(res, entries(&[2], 10), &nodes, false);
    assert!(matches!(
        out[0].msg,
        Msg::ErrorReply {
            code: ErrorCode::Conflict,
            ..
        }
    ));
}

#[test]
fn abort_releases_and_hides_file() {
    let mut h = Harness::new();
    h.join_benefactors(2);
    let (res, _, _, _) = h.open("/i", 1);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::AbortWrite {
            req,
            reservation: res,
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(out[0].msg, Msg::Ack { .. }));
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetAttr {
            req,
            path: "/i".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(out[0].msg, Msg::ErrorReply { .. }));
    h.mgr.check_invariants();
}

#[test]
fn reservation_expires_via_tick() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(2);
    let (res, stripe, _, _) = h.open("/j", 1);
    let ttl = h.mgr.config().reservation_ttl;
    h.heartbeat_all(&nodes);
    h.advance(ttl + Dur::from_millis(50));
    // Commit against the expired reservation now conflicts.
    let out = h.commit(res, entries(&[1], 10), &stripe, false);
    assert!(matches!(
        out[0].msg,
        Msg::ErrorReply {
            code: ErrorCode::Conflict,
            ..
        }
    ));
}

#[test]
fn benefactor_timeout_marks_offline_and_excludes_from_reads() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(3);
    let (res, stripe, _, _) = h.open("/k", 1);
    h.commit(res, entries(&[1, 2, 3], 100), &stripe, false);
    // Only two nodes keep heartbeating.
    let survivors = &nodes[..2];
    for _ in 0..6 {
        h.advance(Dur::from_millis(40));
        h.heartbeat_all(survivors);
    }
    assert_eq!(h.mgr.online_benefactors(), 2);
    // Locations in reads exclude the dead node.
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetFile {
            req,
            path: "/k".into(),
            version: None,
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::FileViewReply { view, .. } => {
            for (_, locs) in &view.locations {
                assert!(!locs.contains(&nodes[2]), "dead node still listed");
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn death_triggers_re_replication_of_survivor_copies() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(3);
    let (res, _stripe, _, _) = h.open("/l", 2);
    // Place both chunks on node[0] only; target replication 2.
    let ents = entries(&[1, 2], 100);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: ents,
            placements: vec![
                (ChunkId::test_id(1), vec![nodes[0]]),
                (ChunkId::test_id(2), vec![nodes[0]]),
            ],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    // Optimistic commit: CommitOk plus replication command(s) to node[0].
    find_reply(&out, |m| matches!(m, Msg::CommitOk { .. }));
    let cmd = find_reply(&out, |m| matches!(m, Msg::ReplicateCmd { .. }));
    match cmd {
        Msg::ReplicateCmd { copies, .. } => {
            assert_eq!(copies.len(), 2);
            for c in copies {
                assert_ne!(c.target, nodes[0], "replica must land elsewhere");
            }
        }
        _ => unreachable!(),
    }
}

#[test]
fn pessimistic_commit_waits_for_replication() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(3);
    let (res, _stripe, _, _) = h.open("/m", 2);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[4], 100),
            placements: vec![(ChunkId::test_id(4), vec![nodes[0]])],
            pessimistic: true,
            dedup: Default::default(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(
        !out.iter().any(|s| matches!(s.msg, Msg::CommitOk { .. })),
        "pessimistic commit must defer CommitOk: {out:?}"
    );
    let (job, target) = out
        .iter()
        .find_map(|s| match &s.msg {
            Msg::ReplicateCmd { job, copies } => Some((*job, copies[0].target)),
            _ => None,
        })
        .expect("replication command");
    // Source benefactor reports the copy done.
    h.mgr.handle(
        nodes[0],
        Msg::ReplicateReport {
            job,
            node: nodes[0],
            done: vec![stdchk_proto::msg::ReplicaCopy {
                chunk: ChunkId::test_id(4),
                target,
            }],
            failed: vec![],
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    find_reply(&out, |m| matches!(m, Msg::CommitOk { .. }));
    h.mgr.check_invariants();
}

#[test]
fn failed_replication_retries_with_budget() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(3);
    let (res, _stripe, _, _) = h.open("/n", 2);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[7], 100),
            placements: vec![(ChunkId::test_id(7), vec![nodes[0]])],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    let (job, target) = out
        .iter()
        .find_map(|s| match &s.msg {
            Msg::ReplicateCmd { job, copies } => Some((*job, copies[0].target)),
            _ => None,
        })
        .expect("replication command");
    // Report failure; the manager must re-dispatch.
    h.mgr.handle(
        nodes[0],
        Msg::ReplicateReport {
            job,
            node: nodes[0],
            done: vec![],
            failed: vec![stdchk_proto::msg::ReplicaCopy {
                chunk: ChunkId::test_id(7),
                target,
            }],
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    find_reply(&out, |m| matches!(m, Msg::ReplicateCmd { .. }));
}

#[test]
fn gc_report_classifies_orphans_and_relearns_locations() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(2);
    let (res, _stripe, _, _) = h.open("/o", 1);
    let req0 = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req: req0,
            reservation: res,
            entries: entries(&[1], 100),
            placements: vec![(ChunkId::test_id(1), vec![nodes[0]])],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    sends(&mut h.mgr);
    // nodes[1] reports: one live chunk (location relearned), one orphan.
    let req = h.req();
    h.mgr.handle(
        nodes[1],
        Msg::GcReport {
            req,
            node: nodes[1],
            chunks: vec![ChunkId::test_id(1), ChunkId::test_id(99)],
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::GcReply { deletable, .. } => {
            assert_eq!(deletable, &vec![ChunkId::test_id(99)]);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The live chunk now lists nodes[1] as a replica holder.
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetFile {
            req,
            path: "/o".into(),
            version: None,
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::FileViewReply { view, .. } => {
            let locs = view.locations_of(ChunkId::test_id(1)).expect("chunk");
            assert!(locs.contains(&nodes[1]));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn automated_replace_prunes_on_commit() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(2);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::SetPolicy {
            req,
            dir: "/app".into(),
            policy: RetentionPolicy::REPLACE,
        },
        h.now,
    );
    sends(&mut h.mgr);
    let (res1, stripe, _, _) = h.open("/app/ck", 1);
    h.commit(res1, entries(&[1], 100), &stripe, false);
    let (res2, stripe2, _, _) = h.open("/app/ck", 1);
    let out = h.commit(res2, entries(&[2], 100), &stripe2, false);
    // Old version pruned: DeleteChunks for chunk 1 goes to its holder.
    let del = find_reply(&out, |m| matches!(m, Msg::DeleteChunks { .. }));
    match del {
        Msg::DeleteChunks { chunks } => assert_eq!(chunks, &vec![ChunkId::test_id(1)]),
        _ => unreachable!(),
    }
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::ListVersions {
            req,
            path: "/app/ck".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::VersionListReply { versions, .. } => assert_eq!(versions.len(), 1),
        other => panic!("unexpected {other:?}"),
    }
    let _ = nodes;
    h.mgr.check_invariants();
}

#[test]
fn automated_purge_drops_old_versions_via_tick() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(2);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::SetPolicy {
            req,
            dir: "/tmpckpt".into(),
            policy: RetentionPolicy::AutomatedPurge {
                after: Dur::from_millis(200),
            },
        },
        h.now,
    );
    sends(&mut h.mgr);
    let (res, stripe, _, _) = h.open("/tmpckpt/x", 1);
    h.commit(res, entries(&[1], 10), &stripe, false);
    // Keep benefactors alive while the purge window elapses.
    let mut all_out = Vec::new();
    for _ in 0..4 {
        h.heartbeat_all(&nodes);
        all_out.extend(h.advance(Dur::from_millis(100)));
    }
    assert!(
        all_out
            .iter()
            .any(|s| matches!(s.msg, Msg::DeleteChunks { .. })),
        "purge should delete chunks: {all_out:?}"
    );
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::GetAttr {
            req,
            path: "/tmpckpt/x".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(out[0].msg, Msg::ErrorReply { .. }));
    h.mgr.check_invariants();
}

#[test]
fn delete_file_orphans_chunks() {
    let mut h = Harness::new();
    let _nodes = h.join_benefactors(2);
    let (res, stripe, _, _) = h.open("/del", 1);
    h.commit(res, entries(&[1, 2], 10), &stripe, false);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::DeleteFile {
            req,
            path: "/del".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(out
        .iter()
        .any(|s| matches!(s.msg, Msg::DeleteChunks { .. })));
    assert!(out.iter().any(|s| matches!(s.msg, Msg::Ack { .. })));
    h.mgr.check_invariants();
}

#[test]
fn list_dir_shows_files_and_subdirs() {
    let mut h = Harness::new();
    h.join_benefactors(2);
    for path in ["/bms/a.n1", "/bms/a.n2", "/bms/sub/deep.n1"] {
        let (res, stripe, _, _) = h.open(path, 1);
        h.commit(res, entries(&[1], 10), &stripe, false);
    }
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::ListDir {
            req,
            path: "/bms".into(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::DirListingReply { entries, .. } => {
            let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, vec!["a.n1", "a.n2", "sub"]);
            assert!(entries[2].attr.is_dir);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn stripe_selection_rotates_across_requests() {
    let mut h = Harness::new();
    h.join_benefactors(6);
    let (_, s1, _, _) = h.open("/r1", 1);
    let (_, s2, _, _) = h.open("/r2", 1);
    assert_ne!(s1, s2, "round-robin rotation should shift the stripe");
}

#[test]
fn heartbeat_from_unknown_node_registers_it() {
    let mut h = Harness::new();
    h.mgr.handle(
        NodeId(42),
        Msg::Heartbeat {
            node: NodeId(42),
            free_space: GIB,
            total_space: GIB,
            addr: String::new(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert!(matches!(out[0].msg, Msg::HeartbeatAck { .. }));
    assert_eq!(h.mgr.online_benefactors(), 1);
    // Subsequent joins must not collide with the adopted id.
    let ids = h.join_benefactors(1);
    assert!(ids[0].as_u64() > 42);
}

#[test]
fn gc_mark_sets_due_flag_delivered_in_heartbeat_ack() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(1);
    let every = h.mgr.config().gc_every;
    // Stay within the liveness timeout while the GC interval elapses.
    let step = Dur::from_millis(100);
    let mut elapsed = Dur::ZERO;
    while elapsed < every + Dur::from_millis(20) {
        h.heartbeat_all(&nodes);
        h.advance(step);
        elapsed += step;
    }
    h.mgr.handle(
        nodes[0],
        Msg::Heartbeat {
            node: nodes[0],
            free_space: GIB,
            total_space: GIB,
            addr: String::new(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    match &out[0].msg {
        Msg::HeartbeatAck { gc_due, .. } => assert!(*gc_due),
        other => panic!("unexpected {other:?}"),
    }
}

// ---------------------------------------------- churn & repair scheduling

use stdchk_proto::meta::MetaRecord;

use crate::manager::ChunkMeta;

impl Harness {
    fn with_config(cfg: PoolConfig) -> Harness {
        Harness {
            mgr: Manager::new(cfg),
            now: Time::ZERO,
            next_req: 1,
        }
    }
}

/// Scheduler on, with a fleet budget of exactly one 1 KiB chunk per second
/// and periodic maintenance pushed far out so ticks only pump repair.
fn throttled_cfg() -> PoolConfig {
    PoolConfig {
        repair_rate_fleet: 1024,
        repair_burst: 1024,
        repair_rate_source: 0,
        policy_sweep_every: Dur::from_secs(60),
        gc_every: Dur::from_secs(60),
        heartbeat_every: Dur::from_secs(60),
        benefactor_timeout: Dur::from_secs(600),
        ..PoolConfig::default()
    }
}

/// The chunks of every copy order in `out`, in dispatch order.
fn dispatched(out: &[Reply]) -> Vec<ChunkId> {
    out.iter()
        .flat_map(|s| match &s.msg {
            Msg::ReplicateCmd { copies, .. } => copies.iter().map(|c| c.chunk).collect(),
            _ => Vec::new(),
        })
        .collect()
}

fn total_copies(out: &[Reply]) -> usize {
    dispatched(out).len()
}

/// Commits two 1 KiB chunks placed on `nodes[0]` only, under replication 2,
/// so both need one repair copy each.
fn commit_two_underreplicated(h: &mut Harness, nodes: &[NodeId]) -> Vec<Reply> {
    let (res, _stripe, _, _) = h.open("/r", 2);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[1, 2], 1024),
            placements: vec![
                (ChunkId::test_id(1), vec![nodes[0]]),
                (ChunkId::test_id(2), vec![nodes[0]]),
            ],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    sends(&mut h.mgr)
}

#[test]
fn gc_report_pumps_repair_at_report_time() {
    let mut h = Harness::with_config(throttled_cfg());
    let nodes = h.join_benefactors(3);
    // The fleet budget covers one of the two needed copies; the other is
    // throttled and stays queued.
    let out = commit_two_underreplicated(&mut h, &nodes);
    assert_eq!(total_copies(&out), 1, "budget admits one copy: {out:?}");
    assert_eq!(h.mgr.repair_backlog(), 1);
    // A GC report two seconds later must pump repair at the *report* time,
    // where the bucket has refilled. (Regression: this path once pumped at
    // Time::ZERO, before the bucket's last refill, so tokens never accrued
    // and GC reports could not un-throttle repair.)
    h.now += Dur::from_secs(2);
    let req = h.req();
    h.mgr.handle(
        nodes[0],
        Msg::GcReport {
            req,
            node: nodes[0],
            chunks: vec![ChunkId::test_id(1), ChunkId::test_id(2)],
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    assert_eq!(
        total_copies(&out),
        1,
        "refilled bucket dispatches the queued copy: {out:?}"
    );
    assert_eq!(h.mgr.repair_backlog(), 0);
}

#[test]
fn throttled_repair_sets_wake_time_and_resumes_on_refill() {
    let mut h = Harness::with_config(throttled_cfg());
    let nodes = h.join_benefactors(3);
    let out = commit_two_underreplicated(&mut h, &nodes);
    assert_eq!(total_copies(&out), 1);
    // The refill instant is recorded and surfaced as the driver wake time.
    assert_eq!(h.mgr.next_repair_at, Some(Time::from_secs(1)));
    assert_eq!(h.mgr.poll_timeout(), Some(Time::from_secs(1)));
    // Ticking before the refill dispatches nothing.
    let out = h.advance(Dur::from_millis(300));
    assert_eq!(total_copies(&out), 0);
    // After the refill the queued copy goes out and the backlog drains.
    let out = h.advance(Dur::from_secs(1));
    assert_eq!(total_copies(&out), 1);
    assert_eq!(h.mgr.repair_backlog(), 0);
}

#[test]
fn repair_queue_orders_by_liveness_then_recency() {
    let mut cfg = PoolConfig::fast_for_tests();
    cfg.replication_batch = 1; // one copy per job → dispatch order is visible
    let mut h = Harness::with_config(cfg);
    let nodes = h.join_benefactors(3);
    let meta = |locs: &[NodeId], last_version: u64| ChunkMeta {
        size: 100,
        locations: locs.to_vec(),
        refcount: 1,
        target: 3,
        last_version,
        pins: 0,
    };
    // A and C each have one live replica (C referenced by a newer
    // version); B has two.
    h.mgr
        .chunks
        .insert(ChunkId::test_id(1), meta(&[nodes[0]], 1));
    h.mgr
        .chunks
        .insert(ChunkId::test_id(2), meta(&[nodes[0], nodes[1]], 9));
    h.mgr
        .chunks
        .insert(ChunkId::test_id(3), meta(&[nodes[0]], 7));
    for id in [1, 2, 3] {
        h.mgr.enqueue_replication(ChunkId::test_id(id));
    }
    let out = h.advance(Dur::from_millis(10));
    assert_eq!(
        dispatched(&out),
        vec![
            ChunkId::test_id(3), // 1 live replica, newest version
            ChunkId::test_id(1), // 1 live replica, older version
            ChunkId::test_id(2), // 2 live replicas
        ]
    );
}

/// Fleet budget of one 1 KiB copy per second with no burst beyond it,
/// one copy per job, and a short liveness timeout: every pump dispatches
/// at most the head of the repair queue.
fn one_copy_per_second() -> PoolConfig {
    PoolConfig {
        repair_rate_fleet: 1024,
        repair_burst: 1024,
        repair_rate_source: 0,
        replication_batch: 1,
        heartbeat_every: Dur::from_secs(1),
        benefactor_timeout: Dur::from_secs(5),
        policy_sweep_every: Dur::from_secs(600),
        gc_every: Dur::from_secs(600),
        ..PoolConfig::default()
    }
}

/// Commits 1 KiB chunk `id` as the only chunk of a new replication-3
/// file, placed on `holders`.
fn commit_chunk(h: &mut Harness, id: u64, holders: &[NodeId]) -> Vec<Reply> {
    let (res, _, _, _) = h.open(&format!("/rekey/{id}"), 3);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[id], 1024),
            placements: vec![(ChunkId::test_id(id), holders.to_vec())],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    sends(&mut h.mgr)
}

/// Heartbeats `live`, advances one second and returns the one chunk the
/// pump dispatched.
fn dispatch_next(h: &mut Harness, live: &[NodeId]) -> ChunkId {
    h.heartbeat_all(live);
    let out = h.advance(Dur::from_secs(1));
    match dispatched(&out)[..] {
        [chunk] => chunk,
        ref other => panic!("expected one copy, got {other:?}"),
    }
}

/// A fresh [`one_copy_per_second`] manager with six benefactors.
fn rekey_pool() -> (Harness, Vec<NodeId>) {
    let mut h = Harness::with_config(one_copy_per_second());
    let nodes = h.join_benefactors(6);
    (h, nodes)
}

/// Queues chunks 1–3 (in commit order, so 3 is newest) on `holders(id)`
/// behind a filler copy that spends the fleet budget, then dispatches
/// chunk 3: newest, one live replica.
fn queue_three(h: &mut Harness, live: &[NodeId], holders: impl Fn(u64) -> Vec<NodeId>) {
    assert_eq!(total_copies(&commit_chunk(h, 100, &live[..1])), 1);
    for id in 1..=3 {
        let out = commit_chunk(h, id, &holders(id));
        assert_eq!(total_copies(&out), 0, "the budget is spent");
    }
    assert_eq!(dispatch_next(h, live), ChunkId::test_id(3));
}

/// The pump keeps each queued task's priority from the last pump unless a
/// key input changed. Each case queues three chunks, dispatches the head,
/// changes one input of a queued chunk, and checks the next dispatch
/// follows the new priority.
#[test]
fn repair_keys_follow_each_input_between_pumps() {
    let c = ChunkId::test_id;

    // A GC report re-learns a second holder of chunk 2.
    let (mut h, nodes) = rekey_pool();
    queue_three(&mut h, &nodes, |_| vec![nodes[0]]);
    let req = h.req();
    h.mgr.handle(
        nodes[1],
        Msg::GcReport {
            req,
            node: nodes[1],
            chunks: vec![c(2)],
        },
        h.now,
    );
    sends(&mut h.mgr);
    h.mgr.check_invariants();
    assert_eq!(dispatch_next(&mut h, &nodes), c(1), "re-learned holder");

    // Chunk 2's second holder expires, which puts it ahead of chunk 1.
    let (mut h, nodes) = rekey_pool();
    queue_three(&mut h, &nodes, |id| match id {
        2 => vec![nodes[0], nodes[1]],
        _ => vec![nodes[0]],
    });
    h.now += Dur::from_secs(4);
    h.heartbeat_all(&[nodes[0], nodes[2], nodes[3], nodes[4], nodes[5]]);
    let out = h.advance(Dur::from_secs(2));
    assert!(!h.mgr.benefactors[&nodes[1]].online);
    assert_eq!(dispatched(&out), vec![c(2)], "expired holder");

    // A newer version references chunk 1.
    let (mut h, nodes) = rekey_pool();
    queue_three(&mut h, &nodes, |_| vec![nodes[0]]);
    let (res, _, _, _) = h.open("/rekey/newer", 1);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[1], 1024),
            placements: Vec::new(),
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    sends(&mut h.mgr);
    h.mgr.check_invariants();
    assert_eq!(dispatch_next(&mut h, &nodes), c(1), "newer commit");

    // Chunk 2 also lists a holder that expired before the commit; it
    // heartbeats back.
    let (mut h, nodes) = rekey_pool();
    h.now += Dur::from_secs(4);
    h.heartbeat_all(&nodes[..5]);
    h.advance(Dur::from_secs(2));
    assert!(!h.mgr.benefactors[&nodes[5]].online);
    queue_three(&mut h, &nodes[..5], |id| match id {
        2 => vec![nodes[0], nodes[5]],
        _ => vec![nodes[0]],
    });
    h.heartbeat_all(&nodes[5..]);
    h.mgr.check_invariants();
    assert_eq!(dispatch_next(&mut h, &nodes), c(1), "returning holder");

    // Chunk 2 lists an id the manager has not assigned yet, which then
    // joins (the next join gets id 7).
    let (mut h, nodes) = rekey_pool();
    queue_three(&mut h, &nodes, |id| match id {
        2 => vec![nodes[0], NodeId(7)],
        _ => vec![nodes[0]],
    });
    assert_eq!(h.join_benefactors(1), vec![NodeId(7)]);
    h.mgr.check_invariants();
    assert_eq!(dispatch_next(&mut h, &nodes), c(1), "joining holder");

    // A replayed membership record adopts chunk 2's unknown holder.
    let (mut h, nodes) = rekey_pool();
    queue_three(&mut h, &nodes, |id| match id {
        2 => vec![nodes[0], NodeId(50)],
        _ => vec![nodes[0]],
    });
    h.mgr.replay(
        &MetaRecord::Benefactor {
            node: NodeId(50),
            addr: String::new(),
            total: GIB,
        },
        h.now,
    );
    assert_eq!(dispatch_next(&mut h, &nodes), c(1), "adopted holder");
}

#[test]
fn expired_source_requeues_inflight_repair_to_survivor() {
    let mut h = Harness::new();
    let nodes = h.join_benefactors(3);
    let (res, _stripe, _, _) = h.open("/d", 3);
    let req = h.req();
    h.mgr.handle(
        NodeId(77),
        Msg::CommitChunkMap {
            req,
            reservation: res,
            entries: entries(&[5], 100),
            placements: vec![(ChunkId::test_id(5), vec![nodes[0], nodes[1]])],
            pessimistic: false,
            dedup: Default::default(),
        },
        h.now,
    );
    let out = sends(&mut h.mgr);
    // Target 3, two replicas: a copy job is in flight from nodes[0].
    let src = out
        .iter()
        .find_map(|s| matches!(s.msg, Msg::ReplicateCmd { .. }).then_some(s.to))
        .expect("replication command");
    assert_eq!(src, nodes[0]);
    // The source expires mid-job: the copy must be re-planned from the
    // surviving holder rather than leaking the job slot.
    h.now += Dur::from_millis(200);
    h.heartbeat_all(&nodes[1..]);
    let out = h.advance(Dur::from_millis(100));
    let src = out
        .iter()
        .find_map(|s| matches!(s.msg, Msg::ReplicateCmd { .. }).then_some(s.to))
        .expect("re-planned replication command");
    assert_eq!(src, nodes[1]);
    assert!(h.mgr.repl_jobs.values().all(|j| j.source == nodes[1]));
}

#[test]
fn checkpoint_guidance_follows_youngs_formula() {
    let mut h = Harness::new();
    h.join_benefactors(4);
    let now = Time::from_secs(5);
    // Calm fleet: no departures in the window, no guidance.
    assert_eq!(h.mgr.checkpoint_guidance(Dur::from_secs(2), now), Dur::ZERO);
    // One departure: λ = 1 / (10 s window · 4 nodes) = 0.025/s/node, and
    // with δ = 2 s Young's formula gives sqrt(2·2/0.025) ≈ 12.6 s.
    h.mgr.churn.note_departure(NodeId(999), now);
    let t = h
        .mgr
        .checkpoint_guidance(Dur::from_secs(2), now)
        .as_secs_f64();
    assert!((12.0..14.0).contains(&t), "got {t}");
    // Heavy churn with a tiny write duration clamps at the floor.
    for i in 0..40 {
        h.mgr.churn.note_departure(NodeId(1000 + i), now);
    }
    let t = h.mgr.checkpoint_guidance(Dur::ZERO, now);
    assert_eq!(t, h.mgr.config().guidance_min);
}

#[test]
fn commit_reply_carries_checkpoint_guidance() {
    let mut h = Harness::new();
    h.join_benefactors(2);
    // Calm fleet: the reply carries no guidance.
    let (res, stripe, _, _) = h.open("/g", 1);
    h.now += Dur::from_millis(200);
    let out = h.commit(res, entries(&[1], 256), &stripe, false);
    match find_reply(&out, |m| matches!(m, Msg::CommitOk { .. })) {
        Msg::CommitOk {
            suggested_interval, ..
        } => assert_eq!(*suggested_interval, Dur::ZERO),
        _ => unreachable!(),
    }
    // Observed churn: the reply suggests a positive, bounded interval
    // derived from this session's open→commit duration.
    h.mgr.churn.note_departure(NodeId(999), h.now);
    let (res, stripe, _, _) = h.open("/g", 1);
    h.now += Dur::from_millis(200);
    let out = h.commit(res, entries(&[2], 256), &stripe, false);
    match find_reply(&out, |m| matches!(m, Msg::CommitOk { .. })) {
        Msg::CommitOk {
            suggested_interval, ..
        } => {
            assert!(*suggested_interval > Dur::ZERO);
            assert!(*suggested_interval <= h.mgr.config().guidance_max);
        }
        _ => unreachable!(),
    }
}

#[test]
fn churn_replay_restores_totals() {
    let mut h = Harness::new();
    h.mgr.enable_wal();
    let nodes = h.join_benefactors(2);
    let mut records = Vec::new();
    let drain = |mgr: &mut Manager, records: &mut Vec<MetaRecord>| {
        while let Some(a) = mgr.poll_action() {
            if let Action::MetaAppend { record, .. } = a {
                records.push(record);
            }
        }
    };
    // One heartbeat expiry emits a durable churn record.
    h.now += Dur::from_millis(100);
    h.heartbeat_all(&nodes[1..]);
    h.now += Dur::from_millis(100);
    Node::handle_timeout(&mut h.mgr, h.now);
    drain(&mut h.mgr, &mut records);
    assert!(records
        .iter()
        .any(|r| matches!(r, MetaRecord::Churn { .. })));
    assert_eq!(h.mgr.churn_totals().departures, 1);
    // Replaying the log into a fresh manager reproduces the totals.
    let mut m2 = Manager::new(PoolConfig::fast_for_tests());
    for r in &records {
        m2.replay(r, h.now);
    }
    assert_eq!(m2.churn_totals(), h.mgr.churn_totals());
}
