//! The dedicated disk I/O lane: blocking durable waits off the reactor.
//!
//! A durable wait — a [`SegmentStore`](crate::store::SegmentStore)
//! group-commit, a [`MetaLog`](crate::MetaLog) append — executed on the
//! reactor worker that delivered the triggering message would stall
//! every other socket that worker owns for the fsync's duration. This
//! module keeps them off the workers: a small pool of threads that are
//! *allowed* to block on disk, mirroring the reactor's blocking dial
//! lane. A durable manager and every benefactor own one.
//!
//! The split that makes this safe is **submit vs wait**:
//!
//! - the *append* half of a durable operation (buffered file writes,
//!   index updates, CRC) stays on the submitting thread — it is cheap
//!   and, crucially, it fixes the on-disk record order at submission
//!   time, so tombstones, overwrites and WAL sequence stamps cannot be
//!   reordered by lane scheduling;
//! - only the *wait* half (`GroupCommit::wait_durable`, i.e. the fsync
//!   tail) runs on a lane worker, which then performs the completion —
//!   enqueue the replies the durability guarded, feed `Stored`
//!   completions back into the [`NodeHost`](crate::NodeHost), nudge the
//!   reactor's timer eventfd
//!   ([`ReactorHandle::notify_timer`](crate::ReactorHandle::notify_timer)).
//!
//! The submission queue is bounded: a backlogged disk pushes back on the
//! submitting pump instead of queueing unbounded completion state. Lane
//! workers themselves are exempt from the bound (a completion that pumps
//! the node may submit follow-up work; blocking *them* on a full queue
//! could deadlock the lane against itself).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use stdchk_util::ordlock::{Condvar, OrderedMutex};

use crate::ranks;

/// One queued unit of blocking disk work plus its completion.
type Job = Box<dyn FnOnce() + Send>;

/// Tuning for an [`IoLane`].
#[derive(Clone, Copy, Debug)]
pub struct IoLaneConfig {
    /// Lane worker threads. Two lets an fsync tail on one durable
    /// structure (the WAL) overlap a wait on another (the chunk store or
    /// a snapshot install) without growing the pool per connection.
    pub workers: usize,
    /// Submission-queue bound; submitters beyond it block until a worker
    /// drains (disk backpressure propagates to the pump instead of
    /// accumulating unbounded parked state).
    pub capacity: usize,
}

impl Default for IoLaneConfig {
    fn default() -> IoLaneConfig {
        IoLaneConfig {
            workers: 2,
            capacity: 1024,
        }
    }
}

struct Inner {
    jobs: OrderedMutex<VecDeque<Job>>,
    /// Wakes workers when jobs arrive and submitters when space frees.
    cv: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    /// Jobs executed so far (observability and tests).
    completed: AtomicU64,
}

thread_local! {
    /// True on lane worker threads: their re-entrant submissions bypass
    /// the capacity bound (see the module docs).
    static ON_LANE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A running disk I/O lane (see the module docs). Shuts down — running
/// every already-queued job, then joining its workers — on
/// [`IoLane::shutdown`] or drop.
pub struct IoLane {
    inner: Arc<Inner>,
    joins: OrderedMutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for IoLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoLane")
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

impl IoLane {
    /// Starts a lane with default tuning.
    pub fn new() -> IoLane {
        IoLane::with_config(IoLaneConfig::default())
    }

    /// Starts a lane with explicit [`IoLaneConfig`] tuning.
    pub fn with_config(cfg: IoLaneConfig) -> IoLane {
        let inner = Arc::new(Inner {
            jobs: OrderedMutex::new(ranks::IOLANE_JOBS, "iolane.jobs", VecDeque::new()),
            cv: Condvar::new(),
            capacity: cfg.capacity.max(1),
            shutdown: AtomicBool::new(false),
            completed: AtomicU64::new(0),
        });
        let mut joins = Vec::with_capacity(cfg.workers.max(1));
        for idx in 0..cfg.workers.max(1) {
            let inner2 = Arc::clone(&inner);
            joins.push(
                thread::Builder::new()
                    .name(format!("stdchk-io-{idx}"))
                    .spawn(move || worker_loop(&inner2))
                    .unwrap_or_else(|e| {
                        // Fail-stop, not unwind: a lane missing workers
                        // accepts jobs that no thread will ever run, and
                        // every durable write queued to it then hangs.
                        eprintln!("stdchk io lane: fatal: cannot spawn worker thread: {e}");
                        std::process::abort()
                    }),
            );
        }
        IoLane {
            inner,
            joins: OrderedMutex::new(ranks::IOLANE_JOINS, "iolane.joins", joins),
        }
    }

    /// Queues `job` for a lane worker. Blocks while the queue is at
    /// capacity (unless called from a lane worker, whose re-entrant jobs
    /// bypass the bound). Returns `false` — without queueing — once the
    /// lane has shut down; the caller should then run the work inline.
    #[must_use]
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut q = self.inner.jobs.lock();
        if !ON_LANE.with(std::cell::Cell::get) {
            while q.len() >= self.inner.capacity {
                if self.inner.shutdown.load(Ordering::Relaxed) {
                    return false;
                }
                self.inner.cv.wait(&mut q);
            }
        }
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        q.push_back(Box::new(job));
        // notify_all: the same condvar parks workers *and* bounded
        // submitters, and a notify_one could land on the wrong kind.
        self.inner.cv.notify_all();
        true
    }

    /// Nonblocking [`IoLane::submit`]: refuses (returning `false`)
    /// instead of waiting when the queue is at capacity or the lane has
    /// shut down. For opportunistic work — compaction, sweeps —
    /// that a later trigger simply re-offers.
    #[must_use]
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut q = self.inner.jobs.lock();
        if self.inner.shutdown.load(Ordering::Relaxed) || q.len() >= self.inner.capacity {
            return false;
        }
        q.push_back(Box::new(job));
        self.inner.cv.notify_all();
        true
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn depth(&self) -> usize {
        self.inner.jobs.lock().len()
    }

    /// Jobs fully executed so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Stops accepting new jobs, lets workers drain everything already
    /// queued, and joins them. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.cv.notify_all();
        let me = thread::current().id();
        for j in self.joins.lock().drain(..) {
            if j.thread().id() != me {
                let _ = j.join();
            }
        }
    }
}

impl Default for IoLane {
    fn default() -> IoLane {
        IoLane::new()
    }
}

impl Drop for IoLane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    ON_LANE.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = inner.jobs.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    // A submitter may be parked on the freed slot.
                    inner.cv.notify_all();
                    break job;
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                inner.cv.wait(&mut q);
            }
        };
        job();
        inner.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn jobs_run_and_complete() {
        let lane = IoLane::new();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            assert!(lane.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while lane.completed() < 32 {
            assert!(Instant::now() < deadline, "lane jobs never ran");
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let lane = IoLane::with_config(IoLaneConfig {
            workers: 1,
            capacity: 64,
        });
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            assert!(lane.submit(move || {
                thread::sleep(Duration::from_millis(5));
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        lane.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 8, "queued jobs must drain");
        assert!(!lane.submit(|| {}), "post-shutdown submits must refuse");
    }

    #[test]
    fn bounded_queue_blocks_then_admits() {
        let lane = IoLane::with_config(IoLaneConfig {
            workers: 1,
            capacity: 1,
        });
        let gate = Arc::new((
            OrderedMutex::new(ranks::TEST, "test.gate", false),
            Condvar::new(),
        ));
        // Occupy the worker until released.
        let g2 = Arc::clone(&gate);
        assert!(lane.submit(move || {
            let mut open = g2.0.lock();
            while !*open {
                g2.1.wait(&mut open);
            }
        }));
        // Fill the single queue slot.
        assert!(lane.submit(|| {}));
        // A third submit must block until the worker frees a slot.
        let lane = Arc::new(lane);
        let l2 = Arc::clone(&lane);
        let t = thread::spawn(move || l2.submit(|| {}));
        thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "submit must block on a full queue");
        *gate.0.lock() = true;
        gate.1.notify_all();
        assert!(t.join().unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        while lane.completed() < 3 {
            assert!(Instant::now() < deadline);
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn lane_worker_resubmits_without_deadlock() {
        let lane = Arc::new(IoLane::with_config(IoLaneConfig {
            workers: 1,
            capacity: 1,
        }));
        let l2 = Arc::clone(&lane);
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);
        assert!(lane.submit(move || {
            // Re-entrant submit from the lane worker: bypasses the bound.
            let d3 = Arc::clone(&d2);
            assert!(l2.submit(move || d3.store(true, Ordering::Relaxed)));
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "re-entrant job never ran");
            thread::sleep(Duration::from_millis(2));
        }
    }
}
