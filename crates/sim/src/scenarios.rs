//! Canned chaos scenarios shared by the scenario test suite and the churn
//! bench, so both exercise and report exactly the same setup.
//!
//! The flagship scenario, [`churn_departure`], is the acceptance run for
//! rate-limited repair: a fleet pre-populated with replication-3 checkpoint
//! data loses 30% of its benefactors in two correlated waves while a victim
//! writer is mid-checkpoint. The manager's repair scheduler paces rebuild
//! traffic under the per-source and fleet budgets, so the rebuild storm
//! does not flood the survivors' disks and the victim's ingest latency
//! stays near calm.

use stdchk_core::session::write::{SessionConfig, WriteProtocol};
use stdchk_core::{Action, BenefactorConfig, Node, PoolConfig};
use stdchk_proto::chunkmap::FileVersionView;
use stdchk_proto::ids::{ChunkId, NodeId, RequestId, VersionId};
use stdchk_proto::msg::Msg;
use stdchk_util::{Dur, Time};

use crate::churn::correlated_departure;
use crate::cluster::{SimCluster, SimConfig, WriteJob, BENEF_BASE, CLIENT_BASE};

/// Fleet size of the departure scenario.
pub const CHURN_FLEET: usize = 10;
/// Fraction of the fleet that departs.
pub const CHURN_FRAC: f64 = 0.3;
/// Seed of the departure trace.
pub const CHURN_SEED: u64 = 0xC0FFEE;
/// First departure wave (the second follows [`CHURN_STAGGER`] later).
pub const CHURN_WAVE_AT: Time = Time::from_secs(55);
/// Gap between the two waves — wide enough that repair finishes between
/// them, so replication-3 data structurally survives waves of ≤2 nodes.
pub const CHURN_STAGGER: Dur = Dur::from_secs(25);
/// When the victim checkpoint starts: just before the first wave's
/// heartbeat leases expire, so the write rides through detection and the
/// whole rebuild storm.
pub const VICTIM_START: Time = Time::from_secs(61);
/// Pre-populated checkpoint files (each [`BASE_FILE_MB`] MB, replication 3).
pub const BASE_FILES: usize = 12;
/// Size of each pre-populated file, in MB.
pub const BASE_FILE_MB: u64 = 96;
/// Size of the victim's checkpoint, in MB.
pub const VICTIM_MB: u64 = 256;

const MB: u64 = 1_000_000;

/// Everything the churn A/B comparison needs from one run.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Victim writer's median per-write-call latency.
    pub victim_p50: Dur,
    /// Victim writer's 99th-percentile per-write-call latency.
    pub victim_p99: Dur,
    /// Whether the victim's session failed.
    pub victim_failed: bool,
    /// Committed base-file versions that lost every live replica.
    pub lost_versions: usize,
    /// Committed base-file versions audited.
    pub audited_versions: usize,
    /// Largest repair backlog observed on a manager tick.
    pub backlog_peak: usize,
    /// Last whole second at which repair work was still queued.
    pub repair_cleared_at: Option<u64>,
    /// Victim writer's worst per-write-call latency.
    pub victim_max: Dur,
    /// When the victim's session finished.
    pub victim_done: Option<Time>,
    /// Total replication copies the manager dispatched.
    pub replication_copies: u64,
    /// One-line metrics summary for logs.
    pub summary: String,
    /// Virtual end time of the run.
    pub end: Time,
}

fn sw(buffer: u64) -> SessionConfig {
    SessionConfig {
        protocol: WriteProtocol::SlidingWindow { buffer },
        ..SessionConfig::default()
    }
}

/// Benefactor knobs for chaos runs: returning nodes re-advertise their
/// whole inventory on the next GC report instead of sitting out the
/// default 10-minute grace, and stranded replication puts retry within the
/// scenario horizon.
pub fn chaos_bcfg(pool: &PoolConfig) -> BenefactorConfig {
    BenefactorConfig {
        heartbeat_every: pool.heartbeat_every,
        gc_grace: Dur::ZERO,
        gc_min_interval: Dur::from_secs(1),
        put_timeout: Dur::from_secs(15),
    }
}

/// Fetches the manager's view of one committed version.
pub fn version_view(
    sim: &mut SimCluster,
    path: &str,
    version: VersionId,
) -> Option<FileVersionView> {
    let now = sim.now();
    let from = NodeId(CLIENT_BASE);
    let mgr = sim.manager_mut();
    mgr.handle(
        from,
        Msg::GetFile {
            req: RequestId(u64::MAX),
            path: path.to_string(),
            version: Some(version),
        },
        now,
    );
    mgr.drain_actions().into_iter().find_map(|a| match a {
        Action::Send {
            msg: Msg::FileViewReply { view, .. },
            ..
        } => Some(view),
        _ => None,
    })
}

/// Ground-truth live replica counts for one committed version: per chunk,
/// how many manager-known locations are online *and actually hold it* (a
/// location pointing at a crashed-empty or offline node does not count).
pub fn live_replicas(
    sim: &mut SimCluster,
    path: &str,
    version: VersionId,
) -> Option<Vec<(ChunkId, usize)>> {
    let view = version_view(sim, path, version)?;
    Some(
        view.locations
            .iter()
            .map(|(chunk, nodes)| {
                let live = nodes
                    .iter()
                    .filter(|n| {
                        let v = n.as_u64();
                        if !(BENEF_BASE..CLIENT_BASE).contains(&v) {
                            return false;
                        }
                        let bi = (v - BENEF_BASE) as usize;
                        bi < sim.benefactor_count()
                            && sim.benefactor_online(bi)
                            && sim.benefactor_has(bi, *chunk)
                    })
                    .count();
                (*chunk, live)
            })
            .collect(),
    )
}

/// Audits one committed version against ground truth: readable means every
/// distinct chunk has at least one live replica (see [`live_replicas`]).
pub fn version_readable(sim: &mut SimCluster, path: &str, version: VersionId) -> bool {
    live_replicas(sim, path, version).is_some_and(|counts| counts.iter().all(|(_, live)| *live > 0))
}

/// Lists the committed versions of `path`.
pub fn committed_versions(sim: &mut SimCluster, path: &str) -> Vec<VersionId> {
    let now = sim.now();
    let from = NodeId(CLIENT_BASE);
    let mgr = sim.manager_mut();
    mgr.handle(
        from,
        Msg::ListVersions {
            req: RequestId(u64::MAX),
            path: path.to_string(),
        },
        now,
    );
    mgr.drain_actions()
        .into_iter()
        .find_map(|a| match a {
            Action::Send {
                msg: Msg::VersionListReply { versions, .. },
                ..
            } => Some(versions.into_iter().map(|v| v.version).collect()),
            _ => None,
        })
        .unwrap_or_default()
}

/// The 30%-fleet correlated-departure scenario, with the departure trace
/// (`with_trace`) or calm (the baseline).
///
/// Client 0 pre-populates [`BASE_FILES`] replication-3 checkpoints; the
/// departure waves hit at [`CHURN_WAVE_AT`] and [`CHURN_STAGGER`] later
/// (±2 s jitter); client 1 writes a [`VICTIM_MB`] MB checkpoint starting
/// at [`VICTIM_START`] — just before the first wave's leases expire — so
/// its ingest tail rides through detection and the rebuild storm.
pub fn churn_departure(with_trace: bool) -> ChurnOutcome {
    let mut cfg = SimConfig::gige(CHURN_FLEET, 2);
    cfg.benefactor_cfg = Some(chaos_bcfg(&cfg.pool));
    let mut sim = SimCluster::new(cfg);
    for f in 0..BASE_FILES {
        let mut job = WriteJob::new(format!("/ckpt/base{f}.n0"), BASE_FILE_MB * MB, sw(64 << 20));
        job.replication = 3;
        sim.submit(0, job);
    }
    let victim_path = "/ckpt/victim.n0";
    // A modest write buffer: big enough to stream at NIC speed when calm,
    // small enough that a survivor disk stalling under rebuild writes
    // shows up as application-visible blocking (the latency a real
    // checkpointing app with bounded dirty memory would see).
    let mut victim = WriteJob::new(victim_path, VICTIM_MB * MB, sw(8 << 20));
    victim.start = VICTIM_START;
    sim.submit(1, victim);
    if with_trace {
        let trace = correlated_departure(
            CHURN_FLEET,
            CHURN_FRAC,
            0.5,
            CHURN_WAVE_AT,
            CHURN_STAGGER,
            CHURN_SEED,
        );
        sim.schedule_trace(&trace);
    }
    let report = sim.run(Dur::from_secs(45));
    let v = report
        .results
        .iter()
        .find(|r| r.path == victim_path)
        .expect("victim result");
    let (victim_p50, victim_p99, victim_failed) = (v.ingest.p50(), v.ingest.p99(), v.failed);
    let victim_max = v.ingest.max();
    let victim_done = v.stats.done_at;
    assert!(
        report
            .results
            .iter()
            .filter(|r| r.path != victim_path)
            .all(|r| !r.failed),
        "pre-population must succeed"
    );
    let mut lost = 0;
    let mut audited = 0;
    for f in 0..BASE_FILES {
        let path = format!("/ckpt/base{f}.n0");
        for version in committed_versions(&mut sim, &path) {
            audited += 1;
            if !version_readable(&mut sim, &path, version) {
                lost += 1;
            }
        }
    }
    sim.manager().check_invariants();
    let label = if with_trace { "churn+sched" } else { "calm" };
    ChurnOutcome {
        victim_p50,
        victim_p99,
        victim_failed,
        lost_versions: lost,
        audited_versions: audited,
        backlog_peak: report.metrics.backlog_peak(),
        repair_cleared_at: report.metrics.backlog_cleared_at(),
        victim_max,
        victim_done,
        replication_copies: report.manager_stats.replication_copies,
        summary: report.metrics.summary(label),
        end: report.end,
    }
}
