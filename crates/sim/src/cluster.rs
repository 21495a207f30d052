//! The discrete-event cluster simulator.
//!
//! [`SimCluster`] embeds the *real* stdchk state machines (`Manager`,
//! `Benefactor`, `WriteSession`) and drives them **uniformly through the
//! unified [`Node`] API** under virtual time: one dispatcher translates
//! every [`Action`] into simulated resources, one completion path feeds
//! [`Completion`]s back, and maintenance fires from each node's
//! `poll_timeout`. The resource model is calibrated to the paper's testbed:
//!
//! - **network**: fluid flows with max-min fair NIC sharing, optional fabric
//!   cap, strict foreground/background priority ([`crate::flownet`]);
//!   control messages travel with a fixed small latency;
//! - **disks**: FIFO byte-rate queues per node, plus a fixed per-record
//!   overhead on benefactor chunk I/O calibrated to the measured
//!   segment-log storage engine; a benefactor whose disk backlog exceeds a
//!   threshold *gates* its NIC ingress down to disk speed, modelling TCP
//!   backpressure from a storage-bound receiver;
//! - **application**: each write call costs the FUSE user-space crossing
//!   (per-call overhead + copy at memcpy rate, Table 1's calibration) plus
//!   the FsCH hashing rate when incremental checkpointing is on;
//! - **staging**: CLW stage writes go through the client disk; IW temps are
//!   absorbed by the page cache (sealed temps are pushed and deleted before
//!   writeback would persist them — the behaviour that lets the paper's IW
//!   exceed sustained disk bandwidth).
//!
//! Payloads are virtual ([`Payload::Virtual`]), so simulating the paper's
//! 70 GB scalability run allocates no data.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use stdchk_core::node::{Action, Completion, Node};
use stdchk_core::payload::Payload;
use stdchk_core::session::write::{
    OpenGrant, SessionConfig, SessionState, WriteProtocol, WriteSession, WriteStats,
};
use stdchk_core::{Benefactor, BenefactorConfig, Manager, PoolConfig, MANAGER_NODE};
use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::{mix64, Dur, Time};

use crate::flownet::FlowNet;
use crate::metrics::{Metrics, Percentiles};

/// Node id of the first benefactor; benefactor `i` is `BENEF_BASE + i`.
pub const BENEF_BASE: u64 = 1;
/// Node id of the first client.
pub const CLIENT_BASE: u64 = 10_000;

/// Simulated platform parameters. Rates are bytes/second.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of benefactor nodes.
    pub benefactors: usize,
    /// Number of client nodes.
    pub clients: usize,
    /// Benefactor NIC rate.
    pub benefactor_nic: f64,
    /// Benefactor disk rate.
    pub benefactor_disk: f64,
    /// Space contributed per benefactor.
    pub benefactor_space: u64,
    /// Client NIC rate.
    pub client_nic: f64,
    /// Client local-disk rate (CLW staging).
    pub client_disk: f64,
    /// Optional switch-fabric aggregate capacity.
    pub fabric: Option<f64>,
    /// One-way latency of control messages.
    pub control_latency: Dur,
    /// FUSE user-space crossing cost per write call (Table 1: ≈32 µs).
    pub fuse_per_call: Dur,
    /// Data copy rate of the FUSE write path.
    pub memcpy_rate: f64,
    /// FsCH hashing rate (charged on the write path when dedup is on).
    pub hash_rate: f64,
    /// Rolling-checksum delta-encode scan rate, charged on the write path
    /// when wire-level have/want negotiation is on (the client signs each
    /// outgoing chunk and scans near-miss chunks against the previous
    /// version's signatures). The negotiation's manager round-trips are
    /// charged separately and automatically: `OfferChunks`/`WantChunks`
    /// are control messages, so each batch costs 2× `control_latency`.
    pub delta_scan_rate: f64,
    /// Application write-call size (defaults to the chunk size).
    pub app_block: u32,
    /// Fixed per-record cost of the benefactor storage engine, charged on
    /// every chunk store/load in addition to the byte transfer. Calibrated
    /// to the measured segment-log engine (`stdchk-net`'s `SegmentStore`):
    /// one record append plus the amortized share of a group-commit
    /// `sync_data` — tens of microseconds, not the milliseconds a
    /// file-per-chunk layout pays for create + fsync + rename.
    pub store_op_overhead: Dur,
    /// Model the manager's metadata write-ahead log (`stdchk-net`'s
    /// `MetaLog`): the manager state machine runs with its WAL enabled
    /// and every record occupies the manager's log disk, delaying the
    /// replies the record guards (durable-before-ack). Off by default so
    /// the paper-calibrated figures are unchanged.
    pub meta_log: bool,
    /// Fixed per-record cost of a metadata WAL append (the amortized
    /// group-commit share; same shape as [`SimConfig::store_op_overhead`]
    /// but for the tiny metadata records).
    pub meta_op_overhead: Dur,
    /// Byte rate of the manager's metadata log disk.
    pub manager_disk: f64,
    /// Disk backlog beyond which a benefactor gates its ingress.
    pub gate_on: Dur,
    /// Backlog below which the gate reopens.
    pub gate_off: Dur,
    /// Pool (manager) configuration.
    pub pool: PoolConfig,
    /// Benefactor state-machine knobs; `None` uses the testbed defaults
    /// (chaos scenarios tighten the GC cadence so returning nodes
    /// re-advertise their inventory quickly).
    pub benefactor_cfg: Option<BenefactorConfig>,
}

impl SimConfig {
    /// The paper's LAN testbed: GigE NICs (≈117 MB/s usable), 86.2 MB/s
    /// disks, 32 µs FUSE crossings (§V.A).
    pub fn gige(benefactors: usize, clients: usize) -> SimConfig {
        let pool = PoolConfig {
            heartbeat_every: Dur::from_secs(2),
            benefactor_timeout: Dur::from_secs(6),
            ..PoolConfig::default()
        };
        SimConfig {
            benefactors,
            clients,
            benefactor_nic: 117e6,
            benefactor_disk: 86.2e6,
            benefactor_space: 1 << 40,
            client_nic: 117e6,
            client_disk: 86.2e6,
            fabric: None,
            control_latency: Dur::from_micros(150),
            fuse_per_call: Dur::from_micros(32),
            memcpy_rate: 1.05e9,
            hash_rate: 110e6,
            delta_scan_rate: 400e6,
            app_block: pool.chunk_size,
            store_op_overhead: Dur::from_micros(60),
            meta_log: false,
            meta_op_overhead: Dur::from_micros(40),
            manager_disk: 86.2e6,
            gate_on: Dur::from_millis(150),
            gate_off: Dur::from_millis(50),
            pool,
            benefactor_cfg: None,
        }
    }

    /// The 10 Gbps testbed of §V.D: one fat client, SATA-disk benefactors
    /// behind 1 GbE.
    pub fn ten_gige(benefactors: usize) -> SimConfig {
        let mut cfg = SimConfig::gige(benefactors, 1);
        cfg.client_nic = 1_180e6;
        cfg.client_disk = 120e6;
        cfg.benefactor_disk = 85e6;
        cfg
    }
}

/// One write to run against the pool.
#[derive(Clone, Debug)]
pub struct WriteJob {
    /// stdchk path.
    pub path: String,
    /// Bytes to write.
    pub size: u64,
    /// Session configuration (protocol, dedup, semantics).
    pub session: SessionConfig,
    /// Stripe width to request.
    pub stripe_width: u32,
    /// Replica target.
    pub replication: u32,
    /// Earliest start time.
    pub start: Time,
    /// Ground-truth content tags, one per chunk (for dedup experiments);
    /// `None` means all-fresh content.
    pub tags: Option<Vec<u64>>,
}

impl WriteJob {
    /// A fresh-content job with default striping.
    pub fn new(path: impl Into<String>, size: u64, session: SessionConfig) -> WriteJob {
        WriteJob {
            path: path.into(),
            size,
            session,
            stripe_width: 4,
            replication: 1,
            start: Time::ZERO,
            tags: None,
        }
    }
}

/// What happens to a benefactor at a churn-trace transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The node goes offline with its stored chunks intact (powered off,
    /// network partition). A later [`ChurnKind::Return`] brings the data
    /// back.
    Leave,
    /// The node goes offline *and* loses its stored chunks (disk wipe,
    /// reinstall). A later return rejoins it empty.
    Crash,
    /// The node comes back online and resumes heartbeating.
    Return,
}

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Client index that ran the job.
    pub client: usize,
    /// Path written.
    pub path: String,
    /// Session metrics (OAB/ASB windows, dedup savings).
    pub stats: WriteStats,
    /// Per-application-write-call latency percentiles (queueing included):
    /// the ingest-latency view a checkpointing application sees.
    pub ingest: Percentiles,
    /// True if the session failed instead of completing.
    pub failed: bool,
}

/// Everything a simulation run produces.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-job results in completion order.
    pub results: Vec<JobResult>,
    /// Bytes persisted to benefactor disks per whole second of sim time.
    pub persisted_series: Vec<(u64, u64)>,
    /// Manager counters.
    pub manager_stats: stdchk_core::ManagerStats,
    /// Full metrics (latency percentiles, repair-backlog gauge, summary).
    pub metrics: Metrics,
    /// Virtual time at the end of the run.
    pub end: Time,
}

impl SimReport {
    /// Mean observed application bandwidth across successful jobs (B/s).
    pub fn mean_oab(&self) -> f64 {
        mean(self.results.iter().filter_map(|r| r.stats.oab()))
    }

    /// Mean achieved storage bandwidth across successful jobs (B/s).
    pub fn mean_asb(&self) -> f64 {
        mean(self.results.iter().filter_map(|r| r.stats.asb()))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

// ---------------------------------------------------------------- internals

#[derive(Clone, Copy, Debug, Default)]
struct Disk {
    rate: f64,
    /// Fixed per-operation cost on top of the byte transfer (zero for
    /// client staging, the storage-engine record overhead on benefactors).
    per_op: Dur,
    busy_until: Time,
}

impl Disk {
    fn schedule(&mut self, now: Time, bytes: u64) -> Time {
        let start = self.busy_until.max(now);
        let fin = start + self.per_op + Dur::for_bytes(bytes, self.rate);
        self.busy_until = fin;
        fin
    }

    fn backlog(&self, now: Time) -> Dur {
        self.busy_until.since(now)
    }
}

#[derive(Debug)]
struct BenefNode {
    sm: Benefactor,
    disk: Disk,
    gated: bool,
    /// False while churned out: inbound traffic, ticks, and disk
    /// completions are dropped, exactly as if the process were gone.
    online: bool,
    /// Earliest maintenance wakeup currently sitting in the event heap.
    next_tick: Time,
}

#[derive(Debug)]
struct ActiveWrite {
    job: WriteJob,
    session: WriteSession,
    written: u64,
    app_busy: bool,
    closed: bool,
    /// Completion instant of the previous write call (ingest-latency
    /// sampling: the gap to the next completion includes blocking).
    last_done: Time,
    lat: Percentiles,
}

#[derive(Debug)]
enum ClientActive {
    Opening { job: WriteJob, req: RequestId },
    Writing(Box<ActiveWrite>),
}

#[derive(Debug)]
struct ClientNode {
    node: NodeId,
    queue: VecDeque<WriteJob>,
    active: Option<ClientActive>,
    disk: Disk,
}

#[derive(Debug)]
struct FlowLoad {
    from: NodeId,
    to: NodeId,
    msg: Msg,
    /// `(client index, request)` to notify with `Completion::SendDone`.
    notify: Option<(usize, RequestId)>,
}

#[derive(Debug)]
enum DiskKind {
    BenefStore {
        bi: usize,
        op: u64,
        bytes: u64,
    },
    BenefLoad {
        bi: usize,
        op: u64,
        chunk: ChunkId,
        size: u32,
    },
    StageAppend {
        ci: usize,
        op: u64,
    },
    StageFetch {
        ci: usize,
        op: u64,
        size: u32,
    },
}

#[derive(Debug)]
enum Ev {
    MgrTick,
    BenefTick(usize),
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Msg,
    },
    FlowCheck {
        gen: u64,
    },
    AppWrite {
        ci: usize,
        n: u32,
        tag: u64,
    },
    DiskDone(DiskKind),
    ClientStart {
        ci: usize,
    },
    Churn {
        bi: usize,
        kind: ChurnKind,
    },
    /// Synthesized transport failure for a client put (connection refused
    /// or reset by a churned-out target).
    PutFailed {
        ci: usize,
        req: RequestId,
    },
}

struct Sched {
    at: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Addresses one simulated node for uniform `Node`-API dispatch.
#[derive(Clone, Copy, Debug)]
enum NodeRef {
    Mgr,
    Benef(usize),
    Client(usize),
}

/// The simulator. Build with [`SimCluster::new`], enqueue jobs with
/// [`SimCluster::submit`], execute with [`SimCluster::run`].
pub struct SimCluster {
    cfg: SimConfig,
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<Sched>>,
    net: FlowNet<FlowLoad>,
    net_gen: u64,
    mgr: Manager,
    /// The manager's metadata-log disk (when `meta_log` is on).
    mgr_log: Disk,
    /// WAL appends ahead of this instant are not yet durable; manager
    /// replies queued behind them wait (group-commit ack gating).
    mgr_log_gate: Time,
    benefs: Vec<BenefNode>,
    bcfg: BenefactorConfig,
    clients: Vec<ClientNode>,
    metrics: Metrics,
    /// Client puts delivered to a benefactor but not yet acked, by target:
    /// when the target churns out these become `SendFailed` (TCP reset).
    unacked: HashMap<NodeId, HashMap<RequestId, usize>>,
    results: Vec<JobResult>,
    jobs_outstanding: usize,
    next_sid: u64,
    next_fresh_tag: u64,
    tick_stop: Option<Time>,
    mgr_next_tick: Time,
}

impl SimCluster {
    /// Builds a cluster: registers every node with the manager and the flow
    /// network, and schedules the periodic maintenance ticks.
    pub fn new(cfg: SimConfig) -> SimCluster {
        assert!(cfg.benefactors > 0, "a pool needs benefactors");
        assert!(cfg.clients > 0, "a pool needs clients");
        let mut net = FlowNet::new(cfg.fabric);
        let mut mgr = Manager::new(cfg.pool.clone());
        if cfg.meta_log {
            mgr.enable_wal();
        }
        let mut benefs = Vec::new();
        let bcfg = cfg.benefactor_cfg.clone().unwrap_or(BenefactorConfig {
            heartbeat_every: cfg.pool.heartbeat_every,
            gc_grace: Dur::from_secs(600),
            gc_min_interval: Dur::from_secs(30),
            // Short enough that repair copies stranded by a mid-transfer
            // departure retry within a chaos scenario's horizon.
            put_timeout: Dur::from_secs(15),
        });
        for i in 0..cfg.benefactors {
            let id = NodeId(BENEF_BASE + i as u64);
            net.set_node(id, cfg.benefactor_nic, cfg.benefactor_nic);
            // Implicit registration (the manager adopts heartbeats).
            mgr.handle(
                id,
                Msg::Heartbeat {
                    node: id,
                    free_space: cfg.benefactor_space,
                    total_space: cfg.benefactor_space,
                    addr: String::new(),
                },
                Time::ZERO,
            );
            // Set-up happens before the clock starts: the heartbeat acks
            // and, with `meta_log`, the registration WAL records are
            // discarded rather than charged to the network or log disk.
            mgr.drain_actions();
            benefs.push(BenefNode {
                sm: Benefactor::new(id, cfg.benefactor_space, bcfg.clone()),
                disk: Disk {
                    rate: cfg.benefactor_disk,
                    per_op: cfg.store_op_overhead,
                    busy_until: Time::ZERO,
                },
                gated: false,
                online: true,
                next_tick: Time::MAX,
            });
        }
        let mut clients = Vec::new();
        for i in 0..cfg.clients {
            let id = NodeId(CLIENT_BASE + i as u64);
            net.set_node(id, cfg.client_nic, cfg.client_nic);
            clients.push(ClientNode {
                node: id,
                queue: VecDeque::new(),
                active: None,
                disk: Disk {
                    rate: cfg.client_disk,
                    per_op: Dur::from_nanos(0),
                    busy_until: Time::ZERO,
                },
            });
        }
        let mgr_log = Disk {
            rate: cfg.manager_disk,
            per_op: cfg.meta_op_overhead,
            busy_until: Time::ZERO,
        };
        let mut sim = SimCluster {
            cfg,
            now: Time::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            net,
            net_gen: 0,
            mgr_log,
            mgr_log_gate: Time::ZERO,
            mgr,
            benefs,
            bcfg,
            clients,
            metrics: Metrics::default(),
            unacked: HashMap::new(),
            results: Vec::new(),
            jobs_outstanding: 0,
            next_sid: 1,
            next_fresh_tag: 1,
            tick_stop: None,
            mgr_next_tick: Time::MAX,
        };
        sim.schedule_next_timeout(NodeRef::Mgr);
        for i in 0..sim.benefs.len() {
            sim.schedule_next_timeout(NodeRef::Benef(i));
        }
        sim
    }

    /// Queues a job on client `client`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown client index or an SW buffer smaller than one
    /// chunk (which could never make progress).
    pub fn submit(&mut self, client: usize, job: WriteJob) {
        if let WriteProtocol::SlidingWindow { buffer } = job.session.protocol {
            assert!(
                buffer >= self.cfg.pool.chunk_size as u64,
                "SW buffer smaller than a chunk cannot progress"
            );
        }
        let start = job.start;
        let c = &mut self.clients[client];
        c.queue.push_back(job);
        self.jobs_outstanding += 1;
        if c.active.is_none() && c.queue.len() == 1 {
            self.schedule_at(start.max(self.now), Ev::ClientStart { ci: client });
        }
    }

    /// Runs until every job completes, keeps maintenance alive for `drain`
    /// afterwards (replication, GC), then returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the event queue empties while jobs are incomplete (a
    /// protocol deadlock — this is a correctness backstop for tests).
    pub fn run(&mut self, drain: Dur) -> SimReport {
        while let Some(Reverse(s)) = self.heap.pop() {
            debug_assert!(s.at >= self.now, "time went backwards");
            self.now = s.at;
            if self.jobs_outstanding == 0 && self.tick_stop.is_none() {
                self.tick_stop = Some(self.now + drain);
            }
            self.handle(s.ev);
        }
        assert!(
            self.jobs_outstanding == 0,
            "simulation deadlock: {} jobs incomplete at {} (clients: {:?})",
            self.jobs_outstanding,
            self.now,
            self.clients
                .iter()
                .map(|c| c.active.as_ref().map(|a| match a {
                    ClientActive::Opening { job, .. } => format!("opening {}", job.path),
                    ClientActive::Writing(w) => format!(
                        "{} written={} state={:?} writable={}",
                        w.job.path,
                        w.written,
                        w.session.state(),
                        w.session.writable()
                    ),
                }))
                .collect::<Vec<_>>()
        );
        SimReport {
            results: std::mem::take(&mut self.results),
            persisted_series: self.metrics.series(),
            manager_stats: self.mgr.stats(),
            metrics: self.metrics.clone(),
            end: self.now,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The embedded manager (metadata ground truth for assertions).
    pub fn manager(&self) -> &Manager {
        &self.mgr
    }

    /// Mutable manager access, for read-style queries (`GetFile`,
    /// `ListVersions`) driven directly by tests.
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.mgr
    }

    /// Whether benefactor `i` is currently churned in.
    pub fn benefactor_online(&self, i: usize) -> bool {
        self.benefs[i].online
    }

    /// Ground truth: does benefactor `i` actually hold `chunk`? (Bypasses
    /// the manager's location metadata — this is what durability
    /// assertions must check against.)
    pub fn benefactor_has(&self, i: usize, chunk: ChunkId) -> bool {
        self.benefs[i].sm.contains(chunk)
    }

    /// Number of benefactors in the fleet.
    pub fn benefactor_count(&self) -> usize {
        self.benefs.len()
    }

    /// Schedules one churn transition for benefactor `benefactor`.
    pub fn schedule_churn(&mut self, at: Time, benefactor: usize, kind: ChurnKind) {
        assert!(benefactor < self.benefs.len(), "unknown benefactor");
        self.schedule_at(
            at.max(self.now),
            Ev::Churn {
                bi: benefactor,
                kind,
            },
        );
    }

    /// Schedules a whole churn trace (see [`crate::churn`]).
    pub fn schedule_trace(&mut self, trace: &[crate::churn::ChurnEvent]) {
        for e in trace {
            self.schedule_churn(e.at, e.benefactor, e.kind);
        }
    }

    // ------------------------------------------------------------ scheduling

    fn schedule(&mut self, after: Dur, ev: Ev) {
        self.schedule_at(self.now + after, ev);
    }

    fn schedule_at(&mut self, at: Time, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(Sched {
            at,
            seq: self.seq,
            ev,
        }));
    }

    fn ticks_enabled(&self) -> bool {
        match self.tick_stop {
            None => true,
            Some(t) => self.now < t,
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::MgrTick => {
                self.mgr_next_tick = Time::MAX;
                self.mgr.handle_timeout(self.now);
                self.metrics
                    .note_backlog(self.now, self.mgr.repair_backlog());
                self.drive(NodeRef::Mgr);
                if self.ticks_enabled() {
                    self.schedule_next_timeout(NodeRef::Mgr);
                }
            }
            Ev::BenefTick(bi) => {
                self.benefs[bi].next_tick = Time::MAX;
                if !self.benefs[bi].online {
                    return; // churned out: the process isn't running
                }
                self.benefs[bi].sm.handle_timeout(self.now);
                self.drive(NodeRef::Benef(bi));
                if self.ticks_enabled() {
                    self.schedule_next_timeout(NodeRef::Benef(bi));
                }
            }
            Ev::Deliver { from, to, msg } => self.route(from, to, msg, None),
            Ev::FlowCheck { gen } => {
                if gen != self.net_gen {
                    return;
                }
                self.net.settle(self.now);
                let done = self.net.take_finished();
                for flow in done {
                    let load = flow.payload;
                    if self.benef_offline(load.to) {
                        // Target churned out mid-transfer: the connection
                        // resets instead of acking.
                        if let Some((ci, req)) = load.notify {
                            self.with_session(ci, |s, now| {
                                s.handle_completion(Completion::SendFailed { req }, now);
                            });
                        }
                        continue;
                    }
                    if self.benef_offline(load.from) {
                        continue; // sender died before the bytes landed
                    }
                    if let Some((ci, req)) = load.notify {
                        self.with_session(ci, |s, now| {
                            s.handle_completion(Completion::SendDone { req }, now);
                        });
                    }
                    self.route(load.from, load.to, load.msg, None);
                }
                self.reflow();
            }
            Ev::AppWrite { ci, n, tag } => self.app_write(ci, n, tag),
            Ev::DiskDone(kind) => self.disk_done(kind),
            Ev::ClientStart { ci } => self.client_start(ci),
            Ev::Churn { bi, kind } => self.apply_churn(bi, kind),
            Ev::PutFailed { ci, req } => {
                self.with_session(ci, |s, now| {
                    s.handle_completion(Completion::SendFailed { req }, now);
                });
            }
        }
    }

    /// Schedules the next maintenance wakeup for `nr` from its
    /// `poll_timeout` — timer coalescing instead of fixed-period ticking.
    /// Called after ticks *and* after message handling: an input may arm a
    /// deadline earlier than the wakeup already sitting in the heap.
    fn schedule_next_timeout(&mut self, nr: NodeRef) {
        let (deadline, scheduled, ev) = match nr {
            NodeRef::Mgr => (self.mgr.poll_timeout(), self.mgr_next_tick, Ev::MgrTick),
            NodeRef::Benef(bi) => (
                self.benefs[bi].sm.poll_timeout(),
                self.benefs[bi].next_tick,
                Ev::BenefTick(bi),
            ),
            NodeRef::Client(_) => return, // sessions have no timers
        };
        if let Some(t) = deadline {
            // The +1ns nudge steps over strict `<` expiry comparisons so a
            // deadline can never reschedule itself at the same instant.
            let at = t.max(self.now) + Dur::from_nanos(1);
            if at >= scheduled {
                return; // an equal-or-earlier wakeup is already queued
            }
            match nr {
                NodeRef::Mgr => self.mgr_next_tick = at,
                NodeRef::Benef(bi) => self.benefs[bi].next_tick = at,
                NodeRef::Client(_) => unreachable!(),
            }
            self.schedule_at(at, ev);
        }
    }

    // ------------------------------------------------------------ routing

    /// Sends messages out of `from`: chunk payloads become network flows,
    /// everything else is a control message with fixed latency.
    fn dispatch_from(
        &mut self,
        from: NodeId,
        msgs: impl Iterator<Item = (NodeId, Msg)>,
        notify_client: Option<usize>,
    ) {
        let mut flows_added = false;
        for (to, msg) in msgs {
            let is_data = matches!(
                msg,
                Msg::PutChunk { .. } | Msg::DeltaPutChunk { .. } | Msg::GetChunkOk { .. }
            );
            if is_data && to != MANAGER_NODE {
                let background = matches!(
                    msg,
                    Msg::PutChunk {
                        background: true,
                        ..
                    }
                );
                let notify = match (&msg, notify_client) {
                    (Msg::PutChunk { req, .. }, Some(ci)) => Some((ci, *req)),
                    _ => None,
                };
                if self.benef_offline(to) {
                    // Connection refused: a client put fails fast so the
                    // session retries on another stripe target; anything
                    // else (repair copies, reads) just vanishes.
                    if let Some((ci, req)) = notify {
                        self.schedule(self.cfg.control_latency, Ev::PutFailed { ci, req });
                    }
                    continue;
                }
                let bytes = msg.wire_size();
                self.net.settle(self.now);
                self.net.add(
                    from,
                    to,
                    bytes,
                    background,
                    FlowLoad {
                        from,
                        to,
                        msg,
                        notify,
                    },
                );
                flows_added = true;
            } else {
                self.schedule(self.cfg.control_latency, Ev::Deliver { from, to, msg });
            }
        }
        if flows_added {
            self.reflow();
        }
    }

    fn reflow(&mut self) {
        self.net.settle(self.now);
        self.net.recompute();
        self.net_gen += 1;
        if let Some(d) = self.net.next_completion() {
            let gen = self.net_gen;
            self.schedule(d, Ev::FlowCheck { gen });
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: Msg, _ctx: Option<()>) {
        if to == MANAGER_NODE {
            if self.benef_offline(from) {
                return; // a dead node sends nothing (heartbeats included)
            }
            self.mgr.handle(from, msg, self.now);
            self.drive(NodeRef::Mgr);
            if self.ticks_enabled() {
                self.schedule_next_timeout(NodeRef::Mgr);
            }
        } else if to.as_u64() >= CLIENT_BASE {
            let ci = (to.as_u64() - CLIENT_BASE) as usize;
            if self.benef_offline(from) {
                return;
            }
            // An ack reaching the client settles the delivered-unacked
            // window for that put.
            if let Some(req) = msg.request_id() {
                if let Some(pending) = self.unacked.get_mut(&from) {
                    pending.remove(&req);
                }
            }
            self.client_msg(ci, msg);
        } else {
            let bi = (to.as_u64() - BENEF_BASE) as usize;
            if bi < self.benefs.len() && self.benefs[bi].online {
                // A client put is now delivered but unacked: if the target
                // churns out before `PutChunkOk` makes it back, this put
                // must fail (the TCP connection resets with it).
                if from.as_u64() >= CLIENT_BASE {
                    if let (Msg::PutChunk { req, .. } | Msg::DeltaPutChunk { req, .. }, ci) =
                        (&msg, (from.as_u64() - CLIENT_BASE) as usize)
                    {
                        self.unacked.entry(to).or_default().insert(*req, ci);
                    }
                }
                self.benefs[bi].sm.handle(from, msg, self.now);
                self.drive(NodeRef::Benef(bi));
                if self.ticks_enabled() {
                    self.schedule_next_timeout(NodeRef::Benef(bi));
                }
            }
        }
    }

    /// True when `node` addresses a benefactor that is currently churned
    /// out (clients and the manager are never offline).
    fn benef_offline(&self, node: NodeId) -> bool {
        let v = node.as_u64();
        if node == MANAGER_NODE || v >= CLIENT_BASE {
            return false;
        }
        let bi = (v - BENEF_BASE) as usize;
        bi < self.benefs.len() && !self.benefs[bi].online
    }

    // ------------------------------------------------ uniform dispatch

    /// Drains `poll_action()` from one node and translates every unified
    /// [`Action`] into the simulated resource it costs: sends become flows
    /// or control messages, chunk I/O lands on the owning node's disk,
    /// stage I/O on the client disk or page cache. This single dispatcher
    /// replaces the per-role action appliers.
    fn drive(&mut self, nr: NodeRef) {
        loop {
            let action = match nr {
                NodeRef::Mgr => self.mgr.poll_action(),
                NodeRef::Benef(bi) => self.benefs[bi].sm.poll_action(),
                NodeRef::Client(ci) => match &mut self.clients[ci].active {
                    Some(ClientActive::Writing(w)) => w.session.poll_action(),
                    _ => None,
                },
            };
            let Some(action) = action else { break };
            if let NodeRef::Benef(bi) = nr {
                if !self.benefs[bi].online {
                    continue; // drain and discard: the process is gone
                }
            }
            self.execute(nr, action);
        }
    }

    fn execute(&mut self, nr: NodeRef, action: Action) {
        match action {
            Action::Send { to, msg } => {
                let (from, notify) = match nr {
                    NodeRef::Mgr => (MANAGER_NODE, None),
                    NodeRef::Benef(bi) => (NodeId(BENEF_BASE + bi as u64), None),
                    NodeRef::Client(ci) => (self.clients[ci].node, Some(ci)),
                };
                // A manager reply queued behind a WAL append waits for the
                // append's group commit (durable-before-ack): its control
                // latency grows by whatever log writeback is outstanding.
                if matches!(nr, NodeRef::Mgr) && self.mgr_log_gate > self.now {
                    let extra = self.mgr_log_gate.since(self.now);
                    self.schedule(
                        self.cfg.control_latency + extra,
                        Ev::Deliver { from, to, msg },
                    );
                    return;
                }
                self.dispatch_from(from, std::iter::once((to, msg)), notify);
            }
            Action::MetaAppend { record, .. } => {
                debug_assert!(matches!(nr, NodeRef::Mgr), "only the manager logs metadata");
                // One framed record lands on the manager's log disk; the
                // durable point gates every reply drained after it.
                let bytes = record.wire_size();
                self.mgr_log_gate = self.mgr_log.schedule(self.now, bytes);
            }
            Action::Store { op, payload, .. } => {
                let NodeRef::Benef(bi) = nr else {
                    unreachable!("chunk stores run on benefactors");
                };
                let bytes = payload.len();
                let fin = self.benefs[bi].disk.schedule(self.now, bytes);
                self.schedule_at(fin, Ev::DiskDone(DiskKind::BenefStore { bi, op, bytes }));
                self.update_gate(bi);
            }
            Action::Load {
                op, chunk, size, ..
            } => {
                let NodeRef::Benef(bi) = nr else {
                    unreachable!("chunk loads run on benefactors");
                };
                // Served reads cost no user-space copy: the zero-copy
                // transmit (`sendfile` from a sealed segment) is the only
                // data path.
                let fin = self.benefs[bi].disk.schedule(self.now, size as u64);
                self.schedule_at(
                    fin,
                    Ev::DiskDone(DiskKind::BenefLoad {
                        bi,
                        op,
                        chunk,
                        size,
                    }),
                );
                self.update_gate(bi);
            }
            Action::DropChunk { .. } => {}
            Action::StageAppend { op, payload, .. } => {
                let NodeRef::Client(ci) = nr else {
                    unreachable!("staging runs on clients");
                };
                match self.client_protocol(ci) {
                    Some(WriteProtocol::CompleteLocal) => {
                        let fin = self.clients[ci].disk.schedule(self.now, payload.len());
                        self.schedule_at(fin, Ev::DiskDone(DiskKind::StageAppend { ci, op }));
                    }
                    _ => {
                        // IW temps: absorbed by the page cache at memcpy
                        // speed; they are deleted after push, before
                        // writeback persists them.
                        let d = Dur::for_bytes(payload.len(), self.cfg.memcpy_rate);
                        self.schedule(d, Ev::DiskDone(DiskKind::StageAppend { ci, op }));
                    }
                }
            }
            Action::StageFetch { op, len, .. } => {
                let NodeRef::Client(ci) = nr else {
                    unreachable!("staging runs on clients");
                };
                match self.client_protocol(ci) {
                    Some(WriteProtocol::CompleteLocal) => {
                        let fin = self.clients[ci].disk.schedule(self.now, len as u64);
                        self.schedule_at(
                            fin,
                            Ev::DiskDone(DiskKind::StageFetch { ci, op, size: len }),
                        );
                    }
                    _ => {
                        // Cache hit.
                        self.schedule(
                            Dur::from_nanos(1),
                            Ev::DiskDone(DiskKind::StageFetch { ci, op, size: len }),
                        );
                    }
                }
            }
            Action::StageDiscard { .. } => {}
        }
    }

    fn client_protocol(&self, ci: usize) -> Option<WriteProtocol> {
        match &self.clients[ci].active {
            Some(ClientActive::Writing(w)) => Some(w.job.session.protocol),
            _ => None,
        }
    }

    /// Applies ingress gating: a backlogged disk throttles the NIC to disk
    /// speed (TCP backpressure steady state).
    fn update_gate(&mut self, bi: usize) {
        let node = NodeId(BENEF_BASE + bi as u64);
        let backlog = self.benefs[bi].disk.backlog(self.now);
        let b = &mut self.benefs[bi];
        let newly_gated = if b.gated {
            backlog > self.cfg.gate_off
        } else {
            backlog > self.cfg.gate_on
        };
        if newly_gated != b.gated {
            b.gated = newly_gated;
            let cap = if newly_gated {
                self.cfg.benefactor_disk.min(self.cfg.benefactor_nic)
            } else {
                self.cfg.benefactor_nic
            };
            self.net.settle(self.now);
            if self.net.set_ingress(node, cap) {
                self.reflow();
            }
        }
    }

    // ------------------------------------------------------------ clients

    fn client_start(&mut self, ci: usize) {
        if self.clients[ci].active.is_some() {
            return;
        }
        let Some(job) = self.clients[ci].queue.pop_front() else {
            return;
        };
        let sid = self.next_sid;
        self.next_sid += 1;
        let req = RequestId(sid << 32 | 0xFFFF_0000);
        let node = self.clients[ci].node;
        let msg = Msg::CreateFile {
            req,
            client: node,
            path: job.path.clone(),
            stripe_width: job.stripe_width,
            replication: job.replication,
            expected_chunks: (job.size / self.cfg.pool.chunk_size as u64).max(1) as u32,
        };
        self.clients[ci].active = Some(ClientActive::Opening { job, req });
        self.dispatch_from(node, std::iter::once((MANAGER_NODE, msg)), None);
    }

    fn client_msg(&mut self, ci: usize, msg: Msg) {
        match &self.clients[ci].active {
            Some(ClientActive::Opening { req, .. }) => {
                let open_req = *req;
                match msg {
                    Msg::CreateFileOk {
                        req,
                        file,
                        version,
                        reservation,
                        stripe,
                        prev_chunks,
                        chunk_size,
                        ..
                    } if req == open_req => {
                        let Some(ClientActive::Opening { job, .. }) =
                            self.clients[ci].active.take()
                        else {
                            unreachable!()
                        };
                        let reserved = (job.size / chunk_size as u64).max(1);
                        let grant = OpenGrant {
                            path: job.path.clone(),
                            file,
                            version,
                            reservation,
                            stripe,
                            prev_chunks,
                            chunk_size,
                            reserved_chunks: reserved,
                        };
                        let sid = self.next_sid;
                        self.next_sid += 1;
                        let session = WriteSession::new(
                            sid,
                            self.clients[ci].node,
                            grant,
                            job.session.clone(),
                            self.now,
                        );
                        self.clients[ci].active =
                            Some(ClientActive::Writing(Box::new(ActiveWrite {
                                job,
                                session,
                                written: 0,
                                app_busy: false,
                                closed: false,
                                last_done: self.now,
                                lat: Percentiles::default(),
                            })));
                        self.arm_app(ci);
                    }
                    Msg::ErrorReply { req, detail, .. } if req == open_req => {
                        let Some(ClientActive::Opening { job, .. }) =
                            self.clients[ci].active.take()
                        else {
                            unreachable!()
                        };
                        self.finish_job(
                            ci,
                            JobResult {
                                client: ci,
                                path: job.path,
                                stats: WriteStats::default(),
                                ingest: Percentiles::default(),
                                failed: true,
                            },
                        );
                        let _ = detail;
                    }
                    _ => {}
                }
            }
            Some(ClientActive::Writing(_)) => {
                self.with_session(ci, |s, now| s.handle(MANAGER_NODE, msg, now));
            }
            None => {}
        }
    }

    /// Runs `f` against the client's session, drives the resulting actions
    /// through the uniform dispatcher, re-arms the app, and finalizes the
    /// job if the session ended.
    fn with_session(&mut self, ci: usize, f: impl FnOnce(&mut WriteSession, Time)) {
        let Some(ClientActive::Writing(w)) = &mut self.clients[ci].active else {
            return;
        };
        f(&mut w.session, self.now);
        self.drive(NodeRef::Client(ci));
        self.arm_app(ci);
        self.maybe_finish(ci);
    }

    /// Schedules the next application write if the session can take it.
    fn arm_app(&mut self, ci: usize) {
        let Some(ClientActive::Writing(w)) = &mut self.clients[ci].active else {
            return;
        };
        if w.app_busy || w.closed {
            return;
        }
        let remaining = w.job.size - w.written;
        if remaining == 0 {
            // All data written: the app calls close().
            w.closed = true;
            let Some(ClientActive::Writing(_)) = &self.clients[ci].active else {
                unreachable!()
            };
            self.with_session(ci, |s, now| s.close(now));
            return;
        }
        let block = (self.cfg.app_block as u64).min(remaining);
        if w.session.writable() < block {
            return; // blocked; re-armed when the session drains
        }
        w.app_busy = true;
        // The write call's cost: FUSE crossing + copy (+ FsCH hashing).
        let mut cost = self.cfg.fuse_per_call + Dur::for_bytes(block, self.cfg.memcpy_rate);
        if w.job.session.dedup {
            cost += Dur::for_bytes(block, self.cfg.hash_rate);
        }
        if w.job.session.negotiate {
            // Signature build + delta scan over the block (the payloads are
            // virtual, so this is a pure cost model; the byte savings of the
            // wire path are exercised by the net suite and `dedup` bench).
            cost += Dur::for_bytes(block, self.cfg.delta_scan_rate);
        }
        let chunk_idx = (w.written / self.cfg.pool.chunk_size as u64) as usize;
        let tag = match &w.job.tags {
            Some(tags) => tags[chunk_idx.min(tags.len() - 1)],
            None => {
                // Fresh content: globally unique so no accidental dedup.
                self.next_fresh_tag += 1;
                mix64(self.next_fresh_tag ^ 0xF4E5_0000_0000_0000)
            }
        };
        self.schedule(
            cost,
            Ev::AppWrite {
                ci,
                n: block as u32,
                tag,
            },
        );
    }

    fn app_write(&mut self, ci: usize, n: u32, tag: u64) {
        {
            let Some(ClientActive::Writing(w)) = &mut self.clients[ci].active else {
                return;
            };
            w.app_busy = false;
            w.written += n as u64;
            // Gap since the previous completed call — this includes any
            // time the app spent *blocked* on a full session, which is
            // exactly the stall a checkpointing application feels.
            let lat = self.now.since(w.last_done);
            w.last_done = self.now;
            w.lat.record(lat);
            self.metrics.note_ingest(lat);
        }
        self.with_session(ci, move |s, now| {
            s.write(Payload::Virtual { size: n, tag }, now);
        });
    }

    fn maybe_finish(&mut self, ci: usize) {
        let done = {
            let Some(ClientActive::Writing(w)) = &self.clients[ci].active else {
                return;
            };
            match w.session.state() {
                SessionState::Done => Some(false),
                SessionState::Failed(_) => Some(true),
                _ => None,
            }
        };
        if let Some(failed) = done {
            let Some(ClientActive::Writing(w)) = self.clients[ci].active.take() else {
                unreachable!()
            };
            self.finish_job(
                ci,
                JobResult {
                    client: ci,
                    path: w.job.path.clone(),
                    stats: w.session.stats(),
                    ingest: w.lat,
                    failed,
                },
            );
        }
    }

    fn finish_job(&mut self, ci: usize, result: JobResult) {
        self.results.push(result);
        self.jobs_outstanding -= 1;
        if !self.clients[ci].queue.is_empty() {
            let start = self.clients[ci].queue[0].start.max(self.now);
            self.schedule_at(start, Ev::ClientStart { ci });
        }
    }

    // ------------------------------------------------------------ disk

    fn disk_done(&mut self, kind: DiskKind) {
        match kind {
            DiskKind::BenefStore { bi, op, bytes } => {
                if !self.benefs[bi].online {
                    return; // in-flight write lost with the node
                }
                self.metrics.persisted(self.now, bytes);
                self.benefs[bi]
                    .sm
                    .handle_completion(Completion::Stored { op }, self.now);
                self.drive(NodeRef::Benef(bi));
                self.update_gate(bi);
            }
            DiskKind::BenefLoad {
                bi,
                op,
                chunk,
                size,
            } => {
                if !self.benefs[bi].online {
                    return;
                }
                self.benefs[bi].sm.handle_completion(
                    Completion::Loaded {
                        op,
                        chunk,
                        payload: Payload::Virtual { size, tag: 0 },
                    },
                    self.now,
                );
                self.drive(NodeRef::Benef(bi));
                self.update_gate(bi);
            }
            DiskKind::StageAppend { ci, op } => {
                self.with_session(ci, |s, now| {
                    s.handle_completion(Completion::StageAppended { op }, now);
                });
            }
            DiskKind::StageFetch { ci, op, size } => {
                self.with_session(ci, move |s, now| {
                    s.handle_completion(
                        Completion::StageFetched {
                            op,
                            payload: Payload::Virtual { size, tag: 0 },
                        },
                        now,
                    );
                });
            }
        }
    }

    // ------------------------------------------------------------ churn

    fn apply_churn(&mut self, bi: usize, kind: ChurnKind) {
        match kind {
            ChurnKind::Leave => self.set_benef_offline(bi),
            ChurnKind::Crash => {
                self.set_benef_offline(bi);
                // The process and its chunks are gone: a fresh state
                // machine replaces the old one, and whatever the disk was
                // still writing is lost (stale `DiskDone`s for the old
                // machine are tolerated as unknown ops).
                let id = NodeId(BENEF_BASE + bi as u64);
                self.benefs[bi].sm =
                    Benefactor::new(id, self.cfg.benefactor_space, self.bcfg.clone());
                self.benefs[bi].disk.busy_until = self.now;
            }
            ChurnKind::Return => {
                if !self.benefs[bi].online {
                    self.benefs[bi].online = true;
                    // The stale heartbeat deadline is long past, so the
                    // next wakeup fires immediately and the manager
                    // re-adopts the node.
                    self.schedule_next_timeout(NodeRef::Benef(bi));
                }
            }
        }
    }

    /// Takes benefactor `bi` off the network: from here until a `Return`,
    /// its inbound traffic, ticks, disk completions, and outbound actions
    /// are all dropped. Client puts already delivered but unacked fail
    /// back to their sessions (the TCP connections reset).
    fn set_benef_offline(&mut self, bi: usize) {
        if !self.benefs[bi].online {
            return;
        }
        self.benefs[bi].online = false;
        let id = NodeId(BENEF_BASE + bi as u64);
        if let Some(pending) = self.unacked.remove(&id) {
            for (req, ci) in pending {
                self.with_session(ci, move |s, now| {
                    s.handle_completion(Completion::SendFailed { req }, now);
                });
            }
        }
    }
}
