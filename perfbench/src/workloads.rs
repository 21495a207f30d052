//! The three closed-loop workloads, driven through the public `Grid` API
//! and timed from outside every call.

use std::io::{Read, Write};
use std::time::Instant;

use stdchk_core::WriteStats;
use stdchk_net::{Grid, WriteOptions};

use crate::gen::{self, CHUNK};
use crate::sys::{process_cpu, thread_cpu};
use crate::trace::Tracer;

/// Application-level image size of `fresh` and `incremental`.
pub const IMAGE: usize = 64 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fresh,
    Incremental,
    ManySmall,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fresh" => Some(Workload::Fresh),
            "incremental" => Some(Workload::Incremental),
            "many-small" => Some(Workload::ManySmall),
            _ => None,
        }
    }

    /// Closed-loop clients, one `Grid` and one thread each.
    pub fn clients(self) -> usize {
        match self {
            Workload::ManySmall => 2,
            _ => 1,
        }
    }

    /// Write+restart cycles after which each client samples the peak
    /// RSS: a fixed amount of work, so the figure does not grow with the
    /// number of operations a faster build fits into the run.
    fn rss_mark(self) -> u64 {
        match self {
            Workload::ManySmall => 100,
            _ => 4,
        }
    }
}

/// One checkpoint write, timed from `create` on.
#[derive(Clone, Debug)]
pub struct WriteRec {
    /// The workload's operation index (image, version or file number).
    pub index: u64,
    pub bytes: u64,
    /// When `create` was called, in seconds since the run's origin.
    pub at_s: f64,
    /// `create` → `create` returned.
    pub create_s: f64,
    /// `create` → `write_all` returned (the paper's OAB window).
    pub oab_s: f64,
    /// `create` → `finish` returned (commit acknowledged durable).
    pub ingest_s: f64,
    /// Process CPU consumed while the write ran.
    pub cpu_s: f64,
    pub traced: bool,
    pub stats: WriteStats,
}

/// One verified restart, timed from `open` on.
#[derive(Clone, Debug)]
pub struct ReadRec {
    pub bytes: u64,
    /// When `open` was called, in seconds since the run's origin.
    pub at_s: f64,
    /// `open` → `open` returned.
    pub open_s: f64,
    /// `open` returned → first byte.
    pub first_byte_s: f64,
    /// `open` → last byte read and compared.
    pub total_s: f64,
    pub cpu_s: f64,
    pub traced: bool,
}

/// Everything one client thread observed.
#[derive(Debug)]
pub struct ClientLog {
    pub writes: Vec<WriteRec>,
    pub reads: Vec<ReadRec>,
    pub attempted: u64,
    pub failed: u64,
    /// Restarts whose bytes differed from the generated image.
    pub mismatched: u64,
    /// Acknowledged commits `Grid::versions` did not show.
    pub unconfirmed: u64,
    /// Thread CPU spent generating inputs inside the timed phase.
    pub gen_cpu_s: f64,
    /// Every path written (for the retained-bytes accounting).
    pub paths: Vec<String>,
    /// Peak RSS once this client finished its `rss_mark`-th cycle.
    pub rss_at_mark: Option<u64>,
    /// First few failure messages.
    pub errors: Vec<String>,
    pub tracer: Tracer,
}

impl ClientLog {
    pub fn new(tracer: Tracer) -> ClientLog {
        ClientLog {
            writes: Vec::new(),
            reads: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
            unconfirmed: 0,
            gen_cpu_s: 0.0,
            paths: Vec::new(),
            rss_at_mark: None,
            errors: Vec::new(),
            tracer,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Notes that `cycles` write+restart cycles are done.
    fn cycle_done(&mut self, workload: Workload, cycles: u64) {
        if cycles == workload.rss_mark() {
            self.rss_at_mark = Some(crate::sys::peak_rss_bytes());
        }
    }

    /// Folds a warm-up log's outcome counts in (not its timings).
    pub fn absorb_counts(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.unconfirmed += other.unconfirmed;
        self.paths.extend(other.paths);
        self.errors.extend(other.errors);
    }
}

/// Fixed parameters of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: odd-numbered operations record spans, even ones do
    /// not, so one run yields both the per-layer spans and the tracing
    /// overhead.
    pub trace: bool,
}

impl Phase {
    fn traced(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }
}

/// Identity of one timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// The workload's operation index (image, version or file number).
    pub index: u64,
    /// Shared by the operation's spans.
    pub id: u64,
    pub traced: bool,
}

impl Op {
    fn new(ph: &Phase, client: u64, i: u64, restart: bool) -> Op {
        Op {
            index: i,
            id: client << 40 | i << 1 | u64::from(restart),
            traced: ph.traced(i),
        }
    }

    /// An untimed set-up operation (warm-up, `incremental` version 0).
    fn setup(index: u64) -> Op {
        Op {
            index,
            id: u64::MAX,
            traced: false,
        }
    }
}

/// Writes `data` to `path`, confirms the commit with `Grid::versions`
/// (`versions` retained afterwards, the newest of `data.len()` bytes),
/// and logs it. Returns whether the version is committed.
pub fn write_op(
    grid: &Grid,
    path: &str,
    data: &[u8],
    versions: usize,
    log: &mut ClientLog,
    op: Op,
) -> bool {
    log.attempted += 1;
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let res = (|| -> Result<_, Box<dyn std::error::Error>> {
        let mut h = grid.create(path, WriteOptions::default())?;
        let t1 = Instant::now();
        h.write_all(data)?;
        let t2 = Instant::now();
        let stats = h.finish()?;
        Ok((t1, t2, stats))
    })();
    let t3 = Instant::now();
    let cpu_s = process_cpu() - cpu0;
    let (t1, t2, stats) = match res {
        Ok(r) => r,
        Err(e) => {
            log.fail(format!("write {path}: {e}"));
            return false;
        }
    };
    if op.traced {
        let p = log.tracer.push(op.id, None, "ckpt.write", t0, t3);
        log.tracer.push(op.id, Some(p), "client.create", t0, t1);
        log.tracer.push(op.id, Some(p), "client.write_all", t1, t2);
        log.tracer.push(op.id, Some(p), "client.finish", t2, t3);
    }
    log.writes.push(WriteRec {
        index: op.index,
        bytes: data.len() as u64,
        at_s: log.tracer.seconds(t0),
        create_s: (t1 - t0).as_secs_f64(),
        oab_s: (t2 - t0).as_secs_f64(),
        ingest_s: (t3 - t0).as_secs_f64(),
        cpu_s,
        traced: op.traced,
        stats,
    });
    match grid.versions(path) {
        Ok(vs) if vs.len() == versions && vs.last().map(|v| v.size) == Some(data.len() as u64) => {
            true
        }
        Ok(vs) => {
            log.unconfirmed += 1;
            log.fail(format!(
                "commit of {path} acknowledged but versions lists {} (want {versions})",
                vs.len()
            ));
            false
        }
        Err(e) => {
            log.unconfirmed += 1;
            log.fail(format!("versions {path}: {e}"));
            false
        }
    }
}

/// Restarts the latest version of `path`, byte-comparing it against
/// `expected` as it arrives, and logs it.
pub fn restart_op(
    grid: &Grid,
    path: &str,
    expected: &[u8],
    buf: &mut [u8],
    log: &mut ClientLog,
    op: Op,
) {
    log.attempted += 1;
    let mut compares: Vec<(Instant, Instant)> = Vec::new();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let res = (|| -> Result<_, Box<dyn std::error::Error>> {
        let mut h = grid.open(path, None)?;
        let t1 = Instant::now();
        let mut first = None;
        let mut off = 0usize;
        let mut same = true;
        loop {
            let n = h.read(buf)?;
            if n == 0 {
                break;
            }
            let c0 = Instant::now();
            first.get_or_insert(c0);
            same &= expected.get(off..off + n) == Some(&buf[..n]);
            if op.traced {
                compares.push((c0, Instant::now()));
            }
            off += n;
        }
        Ok((t1, first.unwrap_or(t1), same && off == expected.len()))
    })();
    let t2 = Instant::now();
    let cpu_s = process_cpu() - cpu0;
    let (t1, tf, same) = match res {
        Ok(r) => r,
        Err(e) => {
            log.fail(format!("restart {path}: {e}"));
            return;
        }
    };
    if !same {
        log.mismatched += 1;
        log.fail(format!(
            "restart {path}: bytes differ from the written image"
        ));
        return;
    }
    if op.traced {
        let p = log.tracer.push(op.id, None, "ckpt.restart", t0, t2);
        log.tracer.push(op.id, Some(p), "client.open", t0, t1);
        let r = log.tracer.push(op.id, Some(p), "client.read_all", t1, t2);
        log.tracer.push(op.id, Some(p), "client.first_byte", t1, tf);
        for (c0, c1) in compares {
            log.tracer.push(op.id, Some(r), "bench.compare", c0, c1);
        }
    }
    log.reads.push(ReadRec {
        bytes: expected.len() as u64,
        at_s: log.tracer.seconds(t0),
        open_s: (t1 - t0).as_secs_f64(),
        first_byte_s: (tf - t1).as_secs_f64(),
        total_s: (t2 - t0).as_secs_f64(),
        cpu_s,
        traced: op.traced,
    });
}

/// Opens every connection the timed phase will use: one 1 MiB
/// checkpoint written and restarted per client, outside the clock.
pub fn warm_up(grid: &Grid, seed: u64, client: u64, log: &mut ClientLog) {
    let data = gen::warm_image(seed, client);
    let path = format!("/warm/c{client}");
    let mut buf = vec![0u8; CHUNK];
    if write_op(grid, &path, &data, 1, log, Op::setup(0)) {
        restart_op(grid, &path, &data, &mut buf, log, Op::setup(0));
    }
    log.paths.push(path);
}

/// Runs generation `work` and charges its thread CPU to the log.
fn generating<T>(log: &mut ClientLog, work: impl FnOnce() -> T) -> T {
    let c0 = thread_cpu();
    let out = work();
    log.gen_cpu_s += thread_cpu() - c0;
    out
}

/// `fresh`: one client writes a new incompressible 64 MiB image to a new
/// path, then restarts it, until the phase ends.
pub fn fresh(grid: &Grid, ph: Phase, start: Instant, log: &mut ClientLog) {
    let mut img = Vec::with_capacity(IMAGE);
    let mut buf = vec![0u8; CHUNK];
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < ph.seconds {
        generating(log, || gen::fresh_image(ph.seed, i, IMAGE, &mut img));
        let path = format!("/fresh/img{i}");
        if write_op(grid, &path, &img, 1, log, Op::new(&ph, 0, i, false)) {
            restart_op(grid, &path, &img, &mut buf, log, Op::new(&ph, 0, i, true));
        }
        log.paths.push(path);
        i += 1;
        log.cycle_done(Workload::Fresh, i);
    }
}

/// The `incremental` workload's single path.
pub const INC_PATH: &str = "/incremental/ckpt";

/// Writes version 0 of the `incremental` path, before the clock starts
/// (the timed phase measures increments, not the first full image).
/// Returns the image.
pub fn incremental_base(grid: &Grid, seed: u64, log: &mut ClientLog) -> Vec<u8> {
    let img = gen::incremental_base(seed, IMAGE);
    write_op(grid, INC_PATH, &img, 1, log, Op::setup(0));
    log.paths.push(INC_PATH.to_string());
    img
}

/// `incremental`: one client rewrites one path as successive 64 MiB
/// versions, each editing ~30% of the previous version's chunks, and
/// restarts the latest version after every commit. `base` is version 0,
/// already committed.
pub fn incremental(grid: &Grid, ph: Phase, base: Vec<u8>, start: Instant, log: &mut ClientLog) {
    let mut img = base;
    let mut buf = vec![0u8; CHUNK];
    let mut committed = grid.versions(INC_PATH).map_or(0, |vs| vs.len());
    let mut v = 1u64;
    while start.elapsed().as_secs_f64() < ph.seconds {
        generating(log, || gen::apply_edits(ph.seed, v, &mut img));
        if write_op(
            grid,
            INC_PATH,
            &img,
            committed + 1,
            log,
            Op::new(&ph, 0, v, false),
        ) {
            committed += 1;
            restart_op(
                grid,
                INC_PATH,
                &img,
                &mut buf,
                log,
                Op::new(&ph, 0, v, true),
            );
        } else if let Ok(vs) = grid.versions(INC_PATH) {
            // Resynchronize: the failed write may or may not have landed.
            committed = vs.len();
        }
        log.cycle_done(Workload::Incremental, v);
        v += 1;
    }
}

/// `many-small`: client `c` writes fresh 256 KiB–1 MiB checkpoints to
/// its own paths and after each one restarts a randomly chosen earlier
/// committed file of its own.
pub fn many_small(grid: &Grid, ph: Phase, c: u64, start: Instant, log: &mut ClientLog) {
    let mut img = Vec::with_capacity(1 << 20);
    let mut expected = Vec::with_capacity(1 << 20);
    let mut buf = vec![0u8; CHUNK];
    let mut committed: Vec<u64> = Vec::new();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < ph.seconds {
        generating(log, || gen::small_image(ph.seed, c, i, &mut img));
        let path = format!("/small/c{c}/f{i}");
        if write_op(grid, &path, &img, 1, log, Op::new(&ph, c, i, false)) {
            committed.push(i);
        }
        log.paths.push(path);
        if !committed.is_empty() {
            let j = committed[gen::small_pick(ph.seed, c, i, committed.len() as u64) as usize];
            generating(log, || gen::small_image(ph.seed, c, j, &mut expected));
            let path = format!("/small/c{c}/f{j}");
            restart_op(
                grid,
                &path,
                &expected,
                &mut buf,
                log,
                Op::new(&ph, c, i, true),
            );
        }
        i += 1;
        log.cycle_done(Workload::ManySmall, i);
    }
}
