//! End-to-end checkpoint ingest/restart benchmark for stdchk.
//!
//! Drives a real in-process loopback pool — a durable `ManagerServer`
//! and two `BenefactorServer`s on on-disk `SegmentStore`s, pool defaults
//! throughout — through the public `Grid` API, timing every call from
//! outside, and checks every restart byte for byte.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh|incremental|many-small --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every other operation and then replays the run's own chunks
//! through each layer, printing the per-layer metrics. The last line of
//! standard output is one JSON object with the result. Scratch files go
//! under `.perfbench_run/` and span dumps under `.perfbench_out/`, both
//! in the working directory.

mod gen;
mod pool;
mod replay;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use stdchk_net::TransportStats;

use crate::pool::{set_up, BoxErr};
use crate::trace::Tracer;
use crate::workloads::{ClientLog, Phase, Workload};

/// Pools set up per run; `setup_s` is the fastest of them. Single
/// set-ups are bimodal: a few ms, or ~100 ms when a benefactor's reactor
/// worker enters its first sweep-length sleep before the join timer is
/// registered. The share of slow ones follows the host's scheduling, not
/// the code, and moves a median or mean between the modes from run to
/// run; the minimum is the set-up work itself.
const SETUP_REPS: usize = 25;

/// Past this the run gives up without a result rather than hang.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Feature toggles read from the environment; the benchmark pins every
/// one of them to its default so the measured pool is the shipped one.
const TOGGLES: &[&str] = &[
    "STDCHK_NET_BACKEND",
    "STDCHK_IO_LANE",
    "STDCHK_ZEROCOPY",
    "STDCHK_IO_URING",
    "STDCHK_DEDUP",
    "STDCHK_REPAIR_SCHED",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fresh|incremental|many-small --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    for t in TOGGLES {
        std::env::remove_var(t);
    }
    let cwd = std::env::current_dir().expect("working directory");
    let name = format!("{:?}-s{}-p{}", args.workload, args.seed, std::process::id());
    let run_dir = cwd.join(".perfbench_run").join(&name);
    let _ = std::fs::remove_dir_all(&run_dir);
    let tmp = run_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    // Write sessions put stage files under the temp dir; keep them in
    // the run directory.
    std::env::set_var("TMPDIR", &tmp);
    let out = run(&args, &run_dir, &cwd.join(".perfbench_out"));
    let _ = std::fs::remove_dir_all(&run_dir);
    match out {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind the value, where it is a statistic of samples.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// MB/s over `(bytes, seconds)` samples: their byte sum over their time
/// sum.
fn mb_s(samples: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (bytes, secs) = samples.fold((0u64, 0.0), |(b, s), (x, t)| (b + x, s + t));
    ratio(bytes as f64 / 1e6, secs)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// What the timed phase left behind.
struct Run {
    logs: Vec<ClientLog>,
    setups: Vec<f64>,
    /// Process CPU over the timed phase, input generation excluded.
    cpu_s: f64,
    transport: TransportStats,
    mgr_transactions: u64,
    mgr_commits: u64,
    /// Store-directory bytes and retained logical bytes the timed phase
    /// added.
    stored_bytes: u64,
    retained_bytes: u64,
    /// Peak RSS after a fixed number of cycles (see `Workload::rss_mark`).
    peak_rss: u64,
    layers: Option<replay::LayerResults>,
}

fn run(args: &Args, run_dir: &Path, out_dir: &Path) -> Result<String, BoxErr> {
    let clients = args.workload.clients();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for r in 0..SETUP_REPS {
        let (pool, grids, secs) = set_up(&run_dir.join(format!("pool{r}")), clients)?;
        setups.push(secs);
        if r + 1 == SETUP_REPS {
            kept = Some((pool, grids));
        } else {
            drop(grids);
            pool.stop();
        }
    }
    let (pool, grids) = kept.expect("at least one set-up");

    let origin = Instant::now();
    let mut logs: Vec<ClientLog> = (0..clients as u64)
        .map(|c| ClientLog::new(Tracer::new(origin, c)))
        .collect();
    for (c, (grid, log)) in grids.iter().zip(&mut logs).enumerate() {
        let mut warm = ClientLog::new(Tracer::new(origin, c as u64));
        workloads::warm_up(grid, args.seed, c as u64, &mut warm);
        log.absorb_counts(warm);
    }
    let ph = Phase {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let base = (args.workload == Workload::Incremental).then(|| {
        let mut warm = ClientLog::new(Tracer::new(origin, 0));
        let img = workloads::incremental_base(&grids[0], args.seed, &mut warm);
        logs[0].absorb_counts(warm);
        img
    });
    // Storage is accounted from here on: what the timed phase added.
    let retained_before = retained(&grids[0], &logs);
    let stored_before = pool.stored_bytes();

    let t_before = pool.transport();
    let m_before = pool.mgr.stats();
    let cpu0 = sys::process_cpu();
    let start = Instant::now();
    match args.workload {
        Workload::Fresh => workloads::fresh(&grids[0], ph, start, &mut logs[0]),
        Workload::Incremental => {
            let base = base.expect("incremental base image");
            workloads::incremental(&grids[0], ph, base, start, &mut logs[0])
        }
        Workload::ManySmall => std::thread::scope(|s| {
            for (c, (grid, log)) in grids.iter().zip(&mut logs).enumerate() {
                s.spawn(move || workloads::many_small(grid, ph, c as u64, start, log));
            }
        }),
    }
    let gen_cpu: f64 = logs.iter().map(|l| l.gen_cpu_s).sum();
    let cpu_s = sys::process_cpu() - cpu0 - gen_cpu;
    let peak_rss = logs
        .iter()
        .filter_map(|l| l.rss_at_mark)
        .max()
        .unwrap_or_else(sys::peak_rss_bytes);
    let t_after = pool.transport();
    let m_after = pool.mgr.stats();

    let retained_bytes = retained(&grids[0], &logs).saturating_sub(retained_before);
    let stored_bytes = pool.stored_bytes().saturating_sub(stored_before);
    drop(grids);
    pool.stop();

    write_ops(
        &out_dir.join(format!("ops-{:?}-s{}.tsv", args.workload, args.seed)),
        &logs,
    )?;
    let layers = if args.trace {
        let spans: Vec<trace::Span> = logs.iter().flat_map(|l| l.tracer.spans.clone()).collect();
        let file = out_dir.join(format!("trace-{:?}-s{}.jsonl", args.workload, args.seed));
        trace::write_out(&file, &spans)?;
        let input = replay::ReplayInput::from_run(args.workload, args.seed, &logs);
        let scratch = run_dir.join("replay");
        let layers = replay::run(&input, &scratch)?;
        let _ = std::fs::remove_dir_all(scratch);
        Some(layers)
    } else {
        None
    };

    let r = Run {
        logs,
        setups,
        cpu_s,
        transport: TransportStats {
            bytes_tx: t_after.bytes_tx - t_before.bytes_tx,
            bytes_rx: t_after.bytes_rx - t_before.bytes_rx,
            frames_tx: t_after.frames_tx - t_before.frames_tx,
            frames_rx: t_after.frames_rx - t_before.frames_rx,
            copied_payload_tx: t_after.copied_payload_tx - t_before.copied_payload_tx,
            zerocopy_payload_tx: t_after.zerocopy_payload_tx - t_before.zerocopy_payload_tx,
        },
        mgr_transactions: m_after.transactions - m_before.transactions,
        mgr_commits: m_after.commits - m_before.commits,
        stored_bytes,
        retained_bytes,
        peak_rss,
        layers,
    };
    Ok(report(args, &r))
}

/// Dumps every timed operation, one line each, for offline analysis.
fn write_ops(path: &Path, logs: &[ClientLog]) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("ops file has a directory"))?;
    // `first_s` is `create` or `open` returning; `mid_s` is `write_all`
    // returning or the first byte arriving; `latency_s` is the whole op.
    let mut s =
        String::from("client\tkind\tindex\tbytes\tat_s\tfirst_s\tmid_s\tlatency_s\tcpu_s\n");
    for (c, l) in logs.iter().enumerate() {
        for w in &l.writes {
            let _ = writeln!(
                s,
                "{c}\twrite\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                w.index, w.bytes, w.at_s, w.create_s, w.oab_s, w.ingest_s, w.cpu_s
            );
        }
        for r in &l.reads {
            let _ = writeln!(
                s,
                "{c}\trestart\t\t{}\t{}\t{}\t{}\t{}\t{}",
                r.bytes,
                r.at_s,
                r.open_s,
                r.open_s + r.first_byte_s,
                r.total_s,
                r.cpu_s
            );
        }
    }
    std::fs::write(path, s)
}

/// Logical bytes of every retained version of every path the logs wrote.
fn retained(grid: &stdchk_net::Grid, logs: &[ClientLog]) -> u64 {
    let paths: BTreeSet<&String> = logs.iter().flat_map(|l| &l.paths).collect();
    paths
        .into_iter()
        .filter_map(|p| grid.versions(p).ok())
        .flatten()
        .map(|v| v.size)
        .sum()
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let writes: Vec<_> = r.logs.iter().flat_map(|l| &l.writes).collect();
    let reads: Vec<_> = r.logs.iter().flat_map(|l| &l.reads).collect();
    let w_bytes: u64 = writes.iter().map(|w| w.bytes).sum();
    let r_bytes: u64 = reads.iter().map(|r| r.bytes).sum();
    let write_ms: Vec<f64> = writes.iter().map(|w| w.ingest_s * 1e3).collect();
    let read_ms: Vec<f64> = reads.iter().map(|r| r.total_s * 1e3).collect();
    let wire: u64 = writes
        .iter()
        .map(|w| w.stats.wire_full_bytes + w.stats.wire_delta_bytes)
        .sum();
    let written: u64 = writes.iter().map(|w| w.stats.bytes_written).sum();
    let with_n = |m: Metric, n: usize| Metric {
        samples: Some(n),
        ..m
    };
    vec![
        with_n(
            metric(
                "ingest_mb_s",
                mb_s(writes.iter().map(|w| (w.bytes, w.ingest_s))),
                "MB/s",
            ),
            writes.len(),
        ),
        with_n(
            metric(
                "oab_mb_s",
                mb_s(writes.iter().map(|w| (w.bytes, w.oab_s))),
                "MB/s",
            ),
            writes.len(),
        ),
        with_n(
            metric(
                "restart_mb_s",
                mb_s(reads.iter().map(|r| (r.bytes, r.total_s))),
                "MB/s",
            ),
            reads.len(),
        ),
        with_n(
            metric("write_p50_ms", percentile(&write_ms, 50.0), "ms"),
            writes.len(),
        ),
        with_n(
            metric("write_p99_ms", percentile(&write_ms, 99.0), "ms"),
            writes.len(),
        ),
        with_n(
            metric("restart_p50_ms", percentile(&read_ms, 50.0), "ms"),
            reads.len(),
        ),
        with_n(
            metric("restart_p99_ms", percentile(&read_ms, 99.0), "ms"),
            reads.len(),
        ),
        metric(
            "wire_bytes_per_byte",
            ratio(wire as f64, written as f64),
            "ratio",
        ),
        metric(
            "stored_bytes_per_byte",
            ratio(r.stored_bytes as f64, r.retained_bytes as f64),
            "ratio",
        ),
        metric(
            "cpu_s_per_gb",
            ratio(r.cpu_s, (w_bytes + r_bytes) as f64 / 1e9),
            "s/GB",
        ),
        metric("peak_rss_mb", r.peak_rss as f64 / 1e6, "MB"),
        with_n(
            metric(
                "setup_s",
                r.setups.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            r.setups.len(),
        ),
    ]
}

fn per_layer(r: &Run) -> Vec<Metric> {
    let clients = r.logs.len() as f64;
    let writes: Vec<_> = r.logs.iter().flat_map(|l| &l.writes).collect();
    let reads: Vec<_> = r.logs.iter().flat_map(|l| &l.reads).collect();
    let spans: Vec<trace::Span> = r.logs.iter().flat_map(|l| l.tracer.spans.clone()).collect();
    let tot = trace::totals(&spans);
    let span_s = |name: &str| tot.get(name).map_or(0.0, |t| t.total_s);
    let self_s = |name: &str| tot.get(name).map_or(0.0, |t| t.self_s);
    let traced_w = writes.iter().filter(|w| w.traced).count() as f64;
    let traced_r = reads.iter().filter(|r| r.traced).count() as f64;
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let traced_w_mib = mib(writes.iter().filter(|w| w.traced).map(|w| w.bytes).sum());
    let traced_r_mib = mib(reads.iter().filter(|r| r.traced).map(|r| r.bytes).sum());

    let w_bytes: u64 = writes.iter().map(|w| w.bytes).sum();
    let r_bytes: u64 = reads.iter().map(|r| r.bytes).sum();
    let written: u64 = writes.iter().map(|w| w.stats.bytes_written).sum();
    let offered: u64 = writes.iter().map(|w| w.stats.offered_chunks).sum();
    let wanted: u64 = writes.iter().map(|w| w.stats.wanted_chunks).sum();
    let delta: u64 = writes.iter().map(|w| w.stats.wire_delta_bytes).sum();
    let chunks_w: u64 = writes.iter().map(|w| w.stats.chunks_total).sum();
    let chunks_r: u64 = reads
        .iter()
        .map(|r| r.bytes.div_ceil(gen::CHUNK as u64))
        .sum();
    let t = &r.transport;

    let w_cpu: f64 = writes.iter().map(|w| w.cpu_s).sum();
    let w_wall: f64 = writes.iter().map(|w| w.ingest_s).sum();
    let r_cpu: f64 = reads.iter().map(|r| r.cpu_s).sum();

    // Tracing overhead: traced minus untraced operations of this run.
    let ingest_rate = |traced: bool| {
        mb_s(
            writes
                .iter()
                .filter(|w| w.traced == traced)
                .map(|w| (w.bytes, w.ingest_s)),
        )
    };
    let restart_rate = |traced: bool| {
        mb_s(
            reads
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| (r.bytes, r.total_s)),
        )
    };

    let mut out = vec![
        metric(
            "client.create_ms",
            ratio(span_s("client.create") * 1e3, traced_w),
            "ms",
        ),
        metric(
            "client.write_all_ms_per_mib",
            ratio(span_s("client.write_all") * 1e3, traced_w_mib),
            "ms/MiB",
        ),
        metric(
            "client.finish_ms",
            ratio(span_s("client.finish") * 1e3, traced_w),
            "ms",
        ),
        metric(
            "client.open_ms",
            ratio(span_s("client.open") * 1e3, traced_r),
            "ms",
        ),
        metric(
            "client.first_byte_ms",
            ratio(span_s("client.first_byte") * 1e3, traced_r),
            "ms",
        ),
        metric(
            "client.read_all_ms_per_mib",
            ratio(self_s("client.read_all") * 1e3, traced_r_mib),
            "ms/MiB",
        ),
    ];
    if let Some(l) = &r.layers {
        out.extend(l.values.iter().map(|&(n, v, u)| metric(n, v, u)));
    }
    out.extend([
        metric(
            "manager.transactions_per_ckpt",
            ratio(r.mgr_transactions as f64, r.mgr_commits as f64),
            "count",
        ),
        metric(
            "dedup.wanted_ratio",
            ratio(wanted as f64, offered as f64),
            "ratio",
        ),
        metric(
            "dedup.delta_bytes_per_byte",
            ratio(delta as f64, written as f64),
            "ratio",
        ),
        metric(
            "reactor.bytes_per_byte",
            ratio((t.bytes_tx + t.bytes_rx) as f64, (w_bytes + r_bytes) as f64),
            "ratio",
        ),
        metric(
            "reactor.frames_per_chunk",
            ratio(
                (t.frames_tx + t.frames_rx) as f64,
                (chunks_w + chunks_r) as f64,
            ),
            "count",
        ),
        metric(
            "reactor.copied_payload_ratio",
            ratio(
                t.copied_payload_tx as f64,
                (t.copied_payload_tx + t.zerocopy_payload_tx) as f64,
            ),
            "ratio",
        ),
        metric(
            "cpu.ingest_s_per_gb",
            ratio(w_cpu / clients, w_bytes as f64 / 1e9),
            "s/GB",
        ),
        metric(
            "cpu.restart_s_per_gb",
            ratio(r_cpu / clients, r_bytes as f64 / 1e9),
            "s/GB",
        ),
        metric("cpu.ingest_wall_ratio", ratio(w_cpu, w_wall), "ratio"),
        metric(
            "trace.ingest_overhead_mb_s",
            ingest_rate(true) - ingest_rate(false),
            "MB/s",
        ),
        metric(
            "trace.restart_overhead_mb_s",
            restart_rate(true) - restart_rate(false),
            "MB/s",
        ),
    ]);
    out
}

fn report(args: &Args, r: &Run) -> String {
    let attempted: u64 = r.logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = r.logs.iter().map(|l| l.failed).sum();
    let mismatched: u64 = r.logs.iter().map(|l| l.mismatched).sum();
    let unconfirmed: u64 = r.logs.iter().map(|l| l.unconfirmed).sum();
    let checks_ok = r.layers.as_ref().is_none_or(|l| l.checks_ok);
    let correct = mismatched == 0 && unconfirmed == 0 && checks_ok;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "# stdchk perfbench: workload {:?}, seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let _ = writeln!(
        s,
        "# pool: durable manager + {} segment-store benefactors on loopback, 1 MiB chunks, \
         replication 1, default timers; every ack waits for group-commit fsync",
        pool::BENEFACTORS
    );
    let _ = writeln!(
        s,
        "# client and servers share this host's {} CPUs; restarts read from the OS page cache; \
         latencies are this host's, not a device's; MB = 1e6 bytes",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for l in &r.logs {
        for e in &l.errors {
            let _ = writeln!(s, "# failure: {e}");
        }
    }
    let _ = writeln!(
        s,
        "failed_ops_ratio {} ratio ({failed} of {attempted}; {mismatched} mismatched, \
         {unconfirmed} unconfirmed)",
        ratio(failed as f64, attempted as f64)
    );
    let reps: Vec<String> = r.setups.iter().map(|x| format!("{:.1}", x * 1e3)).collect();
    let _ = writeln!(
        s,
        "# set-up times (ms; setup_s is the fastest, median {:.1}): {}",
        percentile(&r.setups, 50.0) * 1e3,
        reps.join(" ")
    );
    let e2e = end_to_end(r);
    let layers = args.trace.then(|| per_layer(r));
    for m in e2e.iter().chain(layers.iter().flatten()) {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        let _ = writeln!(s, "{} {} {}{n}", m.name, m.value, m.unit);
    }
    if args.trace {
        let spans: Vec<trace::Span> = r.logs.iter().flat_map(|l| l.tracer.spans.clone()).collect();
        for (name, t) in trace::totals(&spans) {
            let _ = writeln!(
                s,
                "# span {name}: n={} total {:.3} s, self {:.3} s",
                t.count, t.total_s, t.self_s
            );
        }
    }
    let shown = if args.trace {
        layers.unwrap_or_default()
    } else {
        e2e
    };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in shown.iter().enumerate() {
        let sep = if k > 0 { ", " } else { "" };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    let _ = writeln!(s, "{json}");
    s
}
