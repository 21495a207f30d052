//! Chaos scenario suite: fleet churn driven through the real state
//! machines, asserting durability (no committed version loses its last
//! live replica) and bounded victim ingest latency under the manager's
//! prioritized, rate-limited repair — plus the heartbeat-expiry edge
//! cases around returning nodes and dying repair sources. Each test
//! prints its outcome (copies, backlog peak, and for the departure run
//! the victim's latency), which the deterministic simulator reproduces
//! exactly from run to run.

use stdchk_core::session::write::{SessionConfig, WriteProtocol};
use stdchk_sim::scenarios::{
    chaos_bcfg, churn_departure, committed_versions, live_replicas, version_readable,
};
use stdchk_sim::{steady, ChurnKind, SimCluster, SimConfig, WriteJob};
use stdchk_util::{Dur, Time};

const MB: u64 = 1_000_000;

fn sw(buffer: u64) -> SessionConfig {
    SessionConfig {
        protocol: WriteProtocol::SlidingWindow { buffer },
        ..SessionConfig::default()
    }
}

/// The acceptance run: a seeded 30%-fleet correlated departure. No
/// committed replication-3 version loses its last live replica and the
/// victim writer's ingest p99 stays within 5× the calm baseline.
#[test]
fn correlated_departure_survives_with_bounded_victim_tail() {
    let calm = churn_departure(false);
    let sched = churn_departure(true);
    for (arm, o) in [("calm", &calm), ("churn+sched", &sched)] {
        println!("{}", o.summary);
        println!(
            "{arm}: copies {} backlog peak {} victim p99 {:?} max {:?} done {:?} lost {}/{}",
            o.replication_copies,
            o.backlog_peak,
            o.victim_p99,
            o.victim_max,
            o.victim_done,
            o.lost_versions,
            o.audited_versions,
        );
    }
    assert!(!calm.victim_failed && !sched.victim_failed);
    assert!(calm.audited_versions >= 7 && calm.lost_versions == 0);

    // Durability: every committed replication-3 version stays readable.
    assert_eq!(
        sched.lost_versions, 0,
        "scheduler run lost {}/{} committed versions",
        sched.lost_versions, sched.audited_versions
    );
    // Repair actually ran and finished.
    assert!(sched.backlog_peak > 0, "departure must queue repairs");
    assert!(sched.repair_cleared_at.is_some());

    // Ingest tail: rebuild traffic is paced, so the victim stays near calm.
    assert!(
        sched.victim_p99 <= calm.victim_p99 * 5,
        "scheduled repair must keep the victim p99 within 5x calm: {:?} vs calm {:?}",
        sched.victim_p99,
        calm.victim_p99
    );
}

/// Heartbeat-expiry edge case: a benefactor leaves long enough for its
/// lease to expire and repairs to be queued, then returns *while the
/// rebuild is still mostly queued* (repair budgets are starved to pin it
/// in the queue). Its first GC report re-learns the locations, which must
/// cancel the queued repairs instead of double-replicating its chunks.
#[test]
fn returning_benefactor_cancels_queued_repairs() {
    let mut cfg = SimConfig::gige(4, 1);
    cfg.pool.repair_rate_source = 2_000_000;
    cfg.pool.repair_rate_fleet = 2_000_000;
    cfg.pool.repair_burst = 2_000_000;
    cfg.benefactor_cfg = Some(chaos_bcfg(&cfg.pool));
    let mut sim = SimCluster::new(cfg);
    let mut job = WriteJob::new("/ckpt/bounce.n0", 48 * MB, sw(16 << 20));
    job.replication = 2;
    sim.submit(0, job);
    // Initial replication (48 copies at 2 MB/s) finishes by ~26 s; the
    // node leaves after that, its lease expires at ~36 s, and it returns
    // a few seconds into the starved rebuild.
    sim.schedule_churn(Time::from_secs(30), 0, ChurnKind::Leave);
    sim.schedule_churn(Time::from_secs(40), 0, ChurnKind::Return);
    let report = sim.run(Dur::from_secs(90));
    assert!(report.results.iter().all(|r| !r.failed));
    println!(
        "copies {} backlog peak {}",
        report.manager_stats.replication_copies,
        report.metrics.backlog_peak()
    );

    // The departure queued repairs...
    assert!(
        report.metrics.backlog_peak() > 0,
        "expiry must queue repairs for the departed node's chunks"
    );
    // ...but the return cancelled the queued remainder: total copies stay
    // well below initial replication (48) plus a full rebuild of the
    // node's ~24-chunk share.
    let copies = report.manager_stats.replication_copies;
    assert!(
        copies < 48 + 20,
        "queued repairs must be cancelled on return, not re-run: {copies} copies"
    );
    assert_eq!(sim.manager().repair_backlog(), 0, "backlog must drain");
    for version in committed_versions(&mut sim, "/ckpt/bounce.n0") {
        assert!(version_readable(&mut sim, "/ckpt/bounce.n0", version));
    }
    sim.manager().check_invariants();
}

/// Heartbeat-expiry edge case: a repair source dies before serving its
/// queued copies. The orphaned jobs must be re-planned against surviving
/// holders — every chunk of every committed version ends back at its full
/// replica target on online nodes, with the dead node gone from the
/// location table.
#[test]
fn repair_survives_source_expiry_midstream() {
    let mut cfg = SimConfig::gige(6, 1);
    cfg.pool.repair_rate_source = 2_000_000;
    cfg.pool.repair_rate_fleet = 2_000_000;
    cfg.pool.repair_burst = 2_000_000;
    cfg.benefactor_cfg = Some(chaos_bcfg(&cfg.pool));
    let mut sim = SimCluster::new(cfg);
    let path = "/ckpt/srcdeath.n0";
    let mut job = WriteJob::new(path, 24 * MB, sw(16 << 20));
    job.replication = 3;
    sim.submit(0, job);
    // The prioritized queue replicates breadth-first (fewest live replicas
    // first), so by t=16 s (~30 of 48 copies at 2 MB/s) every chunk has a
    // second holder — then one node crashes, orphaning whatever jobs were
    // still queued against it as a source and wiping its chunks.
    sim.schedule_churn(Time::from_secs(16), 0, ChurnKind::Crash);
    let report = sim.run(Dur::from_secs(150));
    assert!(report.results.iter().all(|r| !r.failed));
    println!(
        "copies {} backlog peak {}",
        report.manager_stats.replication_copies,
        report.metrics.backlog_peak()
    );

    let versions = committed_versions(&mut sim, path);
    assert!(!versions.is_empty());
    for version in versions {
        let counts = live_replicas(&mut sim, path, version).expect("version view");
        assert!(!counts.is_empty());
        for (chunk, live) in counts {
            assert!(
                live >= 3,
                "chunk {chunk:?} must be rebuilt to its replica target on \
                 live nodes, has {live}"
            );
        }
    }
    assert_eq!(sim.manager().repair_backlog(), 0, "backlog must drain");
    sim.manager().check_invariants();
}

/// Scale smoke: a 1000-benefactor fleet under seeded steady churn. The
/// run must stay deterministic and consistent — sessions complete, the
/// churn tracker observes departures, and the metadata invariants hold at
/// the end.
#[test]
fn thousand_node_fleet_steady_churn_smoke() {
    let mut cfg = SimConfig::gige(1000, 2);
    cfg.benefactor_cfg = Some(chaos_bcfg(&cfg.pool));
    let mut sim = SimCluster::new(cfg);
    for f in 0..4 {
        let mut job = WriteJob::new(format!("/ckpt/fleet{f}.n0"), 32 * MB, sw(16 << 20));
        job.replication = 3;
        sim.submit(f % 2, job);
    }
    let trace = steady(
        1000,
        Dur::from_secs(60),
        Dur::from_secs(30),
        Dur::from_secs(10),
        0.3,
        Dur::from_secs(90),
        7,
    );
    assert!(trace.len() > 500, "a 1000-node fleet should churn plenty");
    sim.schedule_trace(&trace);
    let report = sim.run(Dur::from_secs(120));
    assert!(report.results.iter().all(|r| !r.failed));
    println!(
        "copies {} transactions {} backlog peak {}",
        report.manager_stats.replication_copies,
        report.manager_stats.transactions,
        report.metrics.backlog_peak()
    );

    let totals = sim.manager().churn_totals();
    assert!(
        totals.departures > 100,
        "the tracker must observe fleet departures: {}",
        totals.departures
    );
    sim.manager().check_invariants();
}
