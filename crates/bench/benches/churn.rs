//! Fleet-churn benchmark: what does the prioritized, rate-limited repair
//! scheduler cost a foreground writer when 30% of the fleet departs — and
//! what does the departure cost in durability and rebuild time?
//!
//! Runs the acceptance scenario from `stdchk_sim::scenarios` twice on the
//! simulated GigE fleet (the real manager/benefactor/session state
//! machines over calibrated virtual hardware, so the run is deterministic
//! and takes seconds):
//!
//! * **calm** — no churn; the victim writer's baseline ingest tail.
//! * **churn+sched** — two correlated departure waves, repaired under the
//!   per-source + fleet token buckets in fewest-replicas-first order.
//!
//! The headline numbers are the churn arm's victim ingest p99 as a
//! multiple of calm, committed-version loss (must be zero — the waves are
//! survivable by construction), and the time from first departure until
//! the repair backlog drains. Writes `BENCH_churn.json` at the workspace
//! root (override with `STDCHK_BENCH_OUT`). The committed file also keeps
//! the `churn+fifo` arm of the unthrottled FIFO pump the scheduler
//! replaced (victim p99 9.06× calm, against 1.31×), recorded before that
//! pump was deleted.
//!
//! `--smoke` / `STDCHK_BENCH_SMOKE=1` is accepted for CI parity; the
//! scenario is already smoke-sized, so it changes nothing.

use std::fs;
use std::io::Write as _;

use stdchk_sim::scenarios::{
    churn_departure, ChurnOutcome, BASE_FILES, BASE_FILE_MB, CHURN_FLEET, CHURN_FRAC, CHURN_SEED,
    CHURN_STAGGER, CHURN_WAVE_AT, VICTIM_MB,
};

fn write_json(
    calm: &ChurnOutcome,
    churn: &ChurnOutcome,
    p99_vs_calm: f64,
    re_replication_secs: Option<u64>,
) {
    let out_path = std::env::var("STDCHK_BENCH_OUT").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        format!("{}/../../BENCH_churn.json", env!("CARGO_MANIFEST_DIR"))
    });
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"churn\",\n");
    body.push_str(&format!(
        "  \"scenario\": {{\"fleet\": {CHURN_FLEET}, \"departing_frac\": {CHURN_FRAC}, \
         \"waves\": 2, \"first_wave_secs\": {}, \"stagger_secs\": {}, \
         \"base_files\": {BASE_FILES}, \"base_file_mb\": {BASE_FILE_MB}, \
         \"base_replication\": 3, \"victim_mb\": {VICTIM_MB}, \"seed\": {CHURN_SEED}}},\n",
        CHURN_WAVE_AT.as_secs_f64() as u64,
        CHURN_STAGGER.as_secs_f64() as u64,
    ));
    body.push_str(&format!(
        "  \"calm_ingest_p99_secs\": {:.6},\n",
        calm.victim_p99.as_secs_f64()
    ));
    body.push_str(&format!(
        "  \"arms\": [\n    {{\"arm\": \"churn+sched\", \
         \"victim_ingest_p99_secs\": {:.6}, \"p99_vs_calm\": {:.3}, \
         \"lost_versions\": {}, \"audited_versions\": {}, \
         \"re_replication_secs\": {}, \"repair_backlog_peak\": {}, \
         \"replication_copies\": {}}}\n  ]\n}}\n",
        churn.victim_p99.as_secs_f64(),
        p99_vs_calm,
        churn.lost_versions,
        churn.audited_versions,
        re_replication_secs
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into()),
        churn.backlog_peak,
        churn.replication_copies,
    ));
    let mut f = fs::File::create(&out_path).expect("create BENCH_churn.json");
    f.write_all(body.as_bytes())
        .expect("write BENCH_churn.json");
    println!("\nwrote {out_path}");
}

fn main() {
    // Smoke mode exists for CI-harness parity with the other benches; the
    // simulated scenario already runs in seconds at full scale.
    let _smoke = std::env::args().any(|a| a == "--smoke" || a == "--test")
        || std::env::var("STDCHK_BENCH_SMOKE").map(|v| v == "1") == Ok(true);
    println!(
        "churn bench: {CHURN_FLEET}-node fleet, {:.0}% departing in 2 waves \
         (t={}s, +{}s), {BASE_FILES}x{BASE_FILE_MB} MB base @ repl 3, \
         {VICTIM_MB} MB victim checkpoint",
        CHURN_FRAC * 100.0,
        CHURN_WAVE_AT.as_secs_f64() as u64,
        CHURN_STAGGER.as_secs_f64() as u64,
    );

    let calm = churn_departure(false);
    println!("{}", calm.summary);
    let churn = churn_departure(true);
    println!("{}", churn.summary);
    let p99_vs_calm = churn.victim_p99.as_secs_f64() / calm.victim_p99.as_secs_f64().max(1e-9);
    let re_replication_secs = churn
        .repair_cleared_at
        .map(|t| t.saturating_sub(CHURN_WAVE_AT.as_secs_f64() as u64));
    println!(
        " churn+sched  victim p99 {:8.4}s ({:5.2}x calm)  lost {}/{}  \
         re-replication {}s  backlog peak {}  copies {}",
        churn.victim_p99.as_secs_f64(),
        p99_vs_calm,
        churn.lost_versions,
        churn.audited_versions,
        re_replication_secs
            .map(|s| s.to_string())
            .unwrap_or_else(|| "?".into()),
        churn.backlog_peak,
        churn.replication_copies,
    );
    assert_eq!(
        churn.lost_versions, 0,
        "the staggered waves are survivable by construction"
    );
    write_json(&calm, &churn, p99_vs_calm, re_replication_secs);
}
