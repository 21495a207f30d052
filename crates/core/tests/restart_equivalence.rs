//! Property test: a manager rebuilt from snapshot + WAL replay is
//! observably identical to the manager that emitted the log.
//!
//! A random sequence of joins, commits, abandoned mid-write sessions,
//! deletes, policy changes and clock advances drives a WAL-enabled
//! manager through the `Node` API; every emitted `MetaAppend` record is
//! captured (and its mutation-order stamp checked gapless). At a random
//! point a snapshot is taken. The rebuilt manager — `Manager::restore`
//! of the snapshot plus `Manager::replay` of the records after it, with
//! a random *overlap* window replaying records the snapshot already
//! contains (the fuzzy-snapshot case) — must answer `GetAttr`,
//! `ListVersions`, `GetFile` and `ListDir` exactly like the original and
//! pass `check_invariants`.
//!
//! Mid-write crashes are covered by the abandoned sessions: reservations
//! and uncommitted file entries are deliberately not logged, and both
//! managers must agree they are invisible.

use proptest::prelude::*;

use stdchk_core::node::{Action, Node};
use stdchk_core::{Manager, PoolConfig};
use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId, ReservationId};
use stdchk_proto::meta::{MetaRecord, MetaSnapshot};
use stdchk_proto::msg::Msg;
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

const CLIENT: NodeId = NodeId(9000);
const OBSERVER: NodeId = NodeId(9001);

#[derive(Clone, Debug)]
enum Op {
    /// Open + commit a version of `/p{path}` built from `chunks`.
    OpenCommit {
        path: u8,
        chunks: Vec<u8>,
        replication: u8,
    },
    /// Open a session and walk away — a mid-write crash leaves exactly
    /// this: a reservation and an invisible empty file entry.
    OpenLeak {
        path: u8,
    },
    Delete {
        path: u8,
    },
    SetPolicy {
        dir: u8,
        policy: RetentionPolicy,
    },
    Heartbeats,
    Advance {
        ms: u16,
    },
    /// Take the snapshot here (the last one in the sequence wins).
    Snapshot,
}

fn arb_policy() -> impl Strategy<Value = RetentionPolicy> {
    prop_oneof![
        Just(RetentionPolicy::NoIntervention),
        (1u32..4).prop_map(|k| RetentionPolicy::AutomatedReplace { keep_last: k }),
        (1u64..2000).prop_map(|ms| RetentionPolicy::AutomatedPurge {
            after: Dur::from_millis(ms)
        }),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, proptest::collection::vec(0u8..24, 1..6), 1u8..3).prop_map(
            |(path, chunks, replication)| Op::OpenCommit {
                path,
                chunks,
                replication
            }
        ),
        (0u8..5).prop_map(|path| Op::OpenLeak { path }),
        (0u8..5).prop_map(|path| Op::Delete { path }),
        (0u8..3, arb_policy()).prop_map(|(dir, policy)| Op::SetPolicy { dir, policy }),
        Just(Op::Heartbeats),
        (10u16..400).prop_map(|ms| Op::Advance { ms }),
        Just(Op::Snapshot),
    ]
}

/// The pool config for this test: tight maintenance timers but a huge
/// liveness timeout, so benefactor online-ness (soft state that a restart
/// deliberately resets) never diverges between the two managers.
fn cfg() -> PoolConfig {
    PoolConfig {
        benefactor_timeout: Dur::from_secs(3600),
        ..PoolConfig::fast_for_tests()
    }
}

struct Driver {
    mgr: Manager,
    now: Time,
    req: u64,
    nodes: Vec<NodeId>,
    /// Every WAL record the manager emitted, in mutation order.
    records: Vec<MetaRecord>,
    /// Latest snapshot and the record index it was taken at.
    snap: Option<(MetaSnapshot, usize)>,
}

impl Driver {
    fn new() -> Driver {
        let mut mgr = Manager::new(cfg());
        mgr.enable_wal();
        let mut d = Driver {
            mgr,
            now: Time::ZERO,
            req: 100,
            nodes: Vec::new(),
            records: Vec::new(),
            snap: None,
        };
        for i in 0..3u64 {
            let out = d.deliver(
                NodeId(500 + i),
                Msg::JoinRequest {
                    req: RequestId(i + 1),
                    addr: format!("10.0.0.{i}:4402"),
                    total_space: 1 << 30,
                },
            );
            if let Msg::JoinOk { node, .. } = out[0].1 {
                d.nodes.push(node);
            }
        }
        d
    }

    /// Feeds one message through the `Node` API, draining sends and
    /// capturing WAL records (asserting their order stamps are gapless).
    fn deliver(&mut self, from: NodeId, msg: Msg) -> Vec<(NodeId, Msg)> {
        Node::handle(&mut self.mgr, from, msg, self.now);
        self.drain()
    }

    fn drain(&mut self) -> Vec<(NodeId, Msg)> {
        let mut sends = Vec::new();
        while let Some(action) = self.mgr.poll_action() {
            match action {
                Action::Send { to, msg } => sends.push((to, msg)),
                Action::MetaAppend { seq, record } => {
                    assert_eq!(
                        seq as usize,
                        self.records.len(),
                        "WAL order stamps must be gapless"
                    );
                    self.records.push(record);
                }
                other => panic!("manager never emits {other:?}"),
            }
        }
        sends
    }

    fn req(&mut self) -> RequestId {
        self.req += 1;
        RequestId(self.req)
    }

    fn open(&mut self, path: u8, replication: u8) -> Option<(ReservationId, Vec<NodeId>)> {
        let req = self.req();
        let out = self.deliver(
            CLIENT,
            Msg::CreateFile {
                req,
                client: CLIENT,
                path: format!("/p{path}"),
                stripe_width: 3,
                replication: replication as u32,
                expected_chunks: 8,
            },
        );
        match &out[0].1 {
            Msg::CreateFileOk {
                reservation,
                stripe,
                ..
            } => Some((*reservation, stripe.clone())),
            _ => None,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::OpenCommit {
                path,
                chunks,
                replication,
            } => {
                let Some((res, stripe)) = self.open(path, replication) else {
                    return;
                };
                let entries: Vec<ChunkEntry> = chunks
                    .iter()
                    .map(|c| ChunkEntry {
                        id: ChunkId::test_id(*c as u64),
                        size: 100 + *c as u32,
                    })
                    .collect();
                let mut placements = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for (i, e) in entries.iter().enumerate() {
                    if seen.insert(e.id) {
                        placements.push((e.id, vec![stripe[i % stripe.len()]]));
                    }
                }
                let req = self.req();
                self.deliver(
                    CLIENT,
                    Msg::CommitChunkMap {
                        req,
                        reservation: res,
                        entries,
                        placements,
                        pessimistic: false,
                        dedup: Default::default(),
                    },
                );
            }
            Op::OpenLeak { path } => {
                let _ = self.open(path, 1);
            }
            Op::Delete { path } => {
                let req = self.req();
                self.deliver(
                    CLIENT,
                    Msg::DeleteFile {
                        req,
                        path: format!("/p{path}"),
                    },
                );
            }
            Op::SetPolicy { dir, policy } => {
                let req = self.req();
                let dir = match dir {
                    0 => "/".to_string(),
                    d => format!("/d{d}"),
                };
                self.deliver(CLIENT, Msg::SetPolicy { req, dir, policy });
            }
            Op::Heartbeats => {
                for n in self.nodes.clone() {
                    self.deliver(
                        n,
                        Msg::Heartbeat {
                            node: n,
                            free_space: 1 << 30,
                            total_space: 1 << 30,
                            addr: String::new(),
                        },
                    );
                }
            }
            Op::Advance { ms } => {
                self.now += Dur::from_millis(ms as u64);
                Node::handle_timeout(&mut self.mgr, self.now);
                self.drain();
            }
            Op::Snapshot => {
                self.snap = Some((self.mgr.snapshot(), self.records.len()));
            }
        }
    }
}

/// Drains the manager's actions, keeping its replies. The WAL records of
/// a logging manager are dropped: only replies are compared.
fn sends(mgr: &mut Manager) -> Vec<(NodeId, Msg)> {
    mgr.drain_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((to, msg)),
            Action::MetaAppend { .. } => None,
            other => panic!("manager never emits {other:?}"),
        })
        .collect()
}

/// Everything a client can observe about the namespace, as raw replies.
fn observe(mgr: &mut Manager, now: Time) -> Vec<(NodeId, Msg)> {
    let mut out = Vec::new();
    let mut req = 8_000_000u64;
    let mut ask = |mgr: &mut Manager, msg: Msg| {
        mgr.handle(OBSERVER, msg, now);
        out.extend(sends(mgr));
    };
    for p in 0..5u8 {
        let path = format!("/p{p}");
        req += 1;
        ask(
            mgr,
            Msg::GetAttr {
                req: RequestId(req),
                path: path.clone(),
            },
        );
        req += 1;
        ask(
            mgr,
            Msg::ListVersions {
                req: RequestId(req),
                path: path.clone(),
            },
        );
        req += 1;
        ask(
            mgr,
            Msg::GetFile {
                req: RequestId(req),
                path,
                version: None,
            },
        );
    }
    req += 1;
    ask(
        mgr,
        Msg::ListDir {
            req: RequestId(req),
            path: "/".into(),
        },
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rebuilt_manager_matches_original(
        ops in proptest::collection::vec(arb_op(), 1..50),
        overlap in 0usize..4,
    ) {
        let mut d = Driver::new();
        for op in ops {
            d.apply(op);
            d.mgr.check_invariants();
        }

        // "Crash": rebuild purely from snapshot + logged records. The
        // overlap window re-replays records the snapshot already
        // reflects, exactly what a fuzzy runtime snapshot produces.
        let restart = d.now + Dur::from_millis(1);
        let (mut rebuilt, base) = match &d.snap {
            Some((snap, at)) => (Manager::restore(cfg(), snap, restart), at.saturating_sub(overlap)),
            None => (Manager::new(cfg()), 0),
        };
        for record in &d.records[base..] {
            rebuilt.replay(record, restart);
        }
        rebuilt.check_invariants();

        let expected = observe(&mut d.mgr, restart);
        let got = observe(&mut rebuilt, restart);
        if expected != got {
            for (e, g) in expected.iter().zip(got.iter()) {
                if e != g {
                    eprintln!("FIRST DIVERGENCE:\n  expected {e:?}\n  got      {g:?}");
                    break;
                }
            }
        }
        prop_assert_eq!(expected, got);

        // Membership durability: every benefactor id and its donated
        // space must be known again (liveness is soft and reset).
        prop_assert_eq!(rebuilt.online_benefactors(), d.nodes.len());
        prop_assert_eq!(rebuilt.pool_space().0, d.mgr.pool_space().0);
    }
}

/// Regression: a purge that empties a file removes its entry on the live
/// manager (`drop_file_if_empty`), so a re-created file gets a fresh
/// `FileId`. Replay must mirror the removal — otherwise the rebuilt
/// manager resurrects the stale id, which leaks to clients through
/// `CreateFileOk`.
#[test]
fn purge_to_empty_then_recreate_keeps_file_ids_aligned() {
    let mut d = Driver::new();
    d.apply(Op::SetPolicy {
        dir: 0, // "/"
        policy: RetentionPolicy::AutomatedPurge {
            after: Dur::from_millis(50),
        },
    });
    d.apply(Op::OpenCommit {
        path: 0,
        chunks: vec![1, 2],
        replication: 1,
    });
    // Age the version past the purge deadline; the sweep empties /p0 and
    // drops its entry.
    d.apply(Op::Advance { ms: 400 });
    // Re-create the same path: the live manager assigns a fresh FileId.
    d.apply(Op::OpenCommit {
        path: 0,
        chunks: vec![3],
        replication: 1,
    });

    let restart = d.now + Dur::from_millis(1);
    let mut rebuilt = Manager::new(cfg());
    for record in &d.records {
        rebuilt.replay(record, restart);
    }
    rebuilt.check_invariants();
    assert_eq!(observe(&mut d.mgr, restart), observe(&mut rebuilt, restart));

    // The file id is what CreateFile hands back; both managers must
    // grant the same one for the same path.
    let open_on = |mgr: &mut Manager| {
        mgr.handle(
            CLIENT,
            Msg::CreateFile {
                req: RequestId(7_000_001),
                client: CLIENT,
                path: "/p0".into(),
                stripe_width: 3,
                replication: 1,
                expected_chunks: 1,
            },
            restart,
        );
        match &sends(mgr)[0].1 {
            Msg::CreateFileOk { file, .. } => *file,
            other => panic!("expected CreateFileOk, got {other:?}"),
        }
    };
    assert_eq!(open_on(&mut d.mgr), open_on(&mut rebuilt));
}
