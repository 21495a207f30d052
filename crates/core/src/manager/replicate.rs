//! Background replication: shadow chunk-maps executed by source benefactors.
//!
//! The manager selects replica targets the same way it selects write stripes
//! (paper §IV.A "data replication"), sends copy orders to a benefactor that
//! already holds the chunk, and commits the new locations when the copies
//! are reported done. Creation of new files has priority over replication —
//! enforced here by bounding concurrent jobs, and at the data plane by the
//! `background` flag on replication `PutChunk`s (lower network priority).

use std::cmp::Reverse;
use std::collections::HashSet;

use stdchk_proto::ids::{ChunkId, NodeId};
use stdchk_proto::msg::{Msg, ReplicaCopy};
use stdchk_util::rate::TokenBucket;
use stdchk_util::{Dur, Time};

use super::{Manager, RepairKey, ReplJob, ReplTask};
use crate::node::ActionQueue;

impl Manager {
    pub(crate) fn online_locations(&self, locations: &[NodeId]) -> usize {
        locations
            .iter()
            .filter(|n| self.benefactors.get(n).map(|b| b.online).unwrap_or(false))
            .count()
    }

    /// The repair priority of `chunk` from current metadata: its live
    /// replica count, then its newest referencing version (recent
    /// checkpoints are the ones restarts read). A pruned chunk sorts last;
    /// `plan_task` drops it.
    pub(crate) fn repair_key(&self, chunk: &ChunkId) -> RepairKey {
        match self.chunks.get(chunk) {
            Some(meta) => (
                self.online_locations(&meta.locations),
                Reverse(meta.last_version),
            ),
            None => (usize::MAX, Reverse(0)),
        }
    }

    fn queue_task(&mut self, chunk: ChunkId, attempts: u32) {
        let key = self.repair_key(&chunk);
        self.repl_queue.push_back(ReplTask {
            chunk,
            attempts,
            key,
        });
    }

    /// Queues a chunk for replication (idempotent per queue pass).
    pub(crate) fn enqueue_replication(&mut self, chunk: ChunkId) {
        if self.repl_queue.iter().any(|t| t.chunk == chunk) {
            return;
        }
        if self
            .repl_jobs
            .values()
            .any(|j| j.copies.iter().any(|(c, _)| *c == chunk))
        {
            return;
        }
        self.queue_task(chunk, 0);
    }

    /// Re-queues a chunk whose in-flight job died (source expiry), keeping
    /// its attempt count so source rotation makes progress.
    pub(crate) fn requeue_replication(&mut self, chunk: ChunkId, attempts: u32) {
        self.repl_queue.retain(|t| t.chunk != chunk);
        if self
            .repl_jobs
            .values()
            .any(|j| j.copies.iter().any(|(c, _)| *c == chunk))
        {
            return;
        }
        self.queue_task(chunk, attempts);
    }

    /// Dispatches queued replication tasks into jobs, respecting the
    /// concurrency bound: the queue drains in priority order,
    /// fewest-live-replicas chunks first (newest checkpoint version
    /// breaking ties), and every copy is charged against a fleet-wide
    /// bucket plus a per-source bucket so a rebuild storm never saturates
    /// donors that are also serving ingest. Throttled work stays queued
    /// and [`Manager::poll_timeout`] wakes the driver when tokens accrue.
    pub(crate) fn pump_replication(&mut self, now: Time, out: &mut ActionQueue) {
        self.next_repair_at = None;
        self.prioritize_repair_queue();
        let mut fleet_blocked = false;
        while self.repl_jobs.len() < self.cfg.max_replication_jobs
            && !self.repl_queue.is_empty()
            && !fleet_blocked
        {
            let mut job_source: Option<NodeId> = None;
            let mut copies: Vec<(ChunkId, NodeId)> = Vec::new();
            let mut attempts: std::collections::HashMap<ChunkId, u32> = Default::default();
            let mut skipped: Vec<ReplTask> = Vec::new();
            while let Some(task) = self.repl_queue.pop_front() {
                match self.plan_task(&task, job_source) {
                    Plan::Copy { source, target } => {
                        let size = self
                            .chunks
                            .get(&task.chunk)
                            .map(|m| m.size as f64)
                            .unwrap_or(0.0);
                        match self.charge_repair(source, size, now) {
                            Charge::Ok => {
                                job_source = Some(source);
                                copies.push((task.chunk, target));
                                attempts.insert(task.chunk, task.attempts);
                                if copies.len() >= self.cfg.replication_batch {
                                    break;
                                }
                            }
                            Charge::SourceBusy => skipped.push(task),
                            Charge::FleetExhausted => {
                                skipped.push(task);
                                fleet_blocked = true;
                                break;
                            }
                        }
                    }
                    Plan::Defer => skipped.push(task),
                    Plan::Drop => self.resolve_waiting_chunk(task.chunk, out),
                }
            }
            for t in skipped {
                self.repl_queue.push_back(t);
            }
            let Some(source) = job_source else {
                if fleet_blocked {
                    continue; // flush loop state; outer condition exits
                }
                break;
            };
            let job = self.next_job;
            self.next_job += 1;
            self.stats.replication_copies += copies.len() as u64;
            self.repl_jobs.insert(
                job,
                ReplJob {
                    source,
                    copies: copies.clone(),
                    attempts,
                },
            );
            out.send(
                source,
                Msg::ReplicateCmd {
                    job,
                    copies: copies
                        .into_iter()
                        .map(|(chunk, target)| ReplicaCopy { chunk, target })
                        .collect(),
                },
            );
        }
    }

    /// Sorts the repair queue by its stored keys, recomputing them first
    /// only if a key input changed since the last pump. The sort is
    /// stable, so equal keys keep their queue order.
    fn prioritize_repair_queue(&mut self) {
        if std::mem::take(&mut self.repair_keys_stale) {
            let mut queue = std::mem::take(&mut self.repl_queue);
            for t in &mut queue {
                t.key = self.repair_key(&t.chunk);
            }
            self.repl_queue = queue;
        }
        self.repl_queue.make_contiguous().sort_by_key(|t| t.key);
    }

    /// Charges one copy of `size` bytes against the fleet and per-source
    /// budgets, recording the earliest refill time when throttled.
    fn charge_repair(&mut self, source: NodeId, size: f64, now: Time) -> Charge {
        if size <= 0.0 {
            return Charge::Ok;
        }
        if let Some(fleet) = self.repair_fleet.as_mut() {
            let wait = fleet.time_until(size, now);
            if wait > Dur::ZERO {
                let at = now + wait;
                self.next_repair_at = Some(self.next_repair_at.map_or(at, |c| c.min(at)));
                return Charge::FleetExhausted;
            }
        }
        if self.cfg.repair_rate_source > 0 {
            let rate = self.cfg.repair_rate_source as f64;
            let burst = self.cfg.repair_burst.max(1) as f64;
            let bucket = self
                .repair_sources
                .entry(source)
                .or_insert_with(|| TokenBucket::new(rate, burst));
            let wait = bucket.time_until(size, now);
            if wait > Dur::ZERO {
                let at = now + wait;
                self.next_repair_at = Some(self.next_repair_at.map_or(at, |c| c.min(at)));
                return Charge::SourceBusy;
            }
            bucket.try_take(size, now);
        }
        if let Some(fleet) = self.repair_fleet.as_mut() {
            fleet.try_take(size, now);
        }
        Charge::Ok
    }

    fn plan_task(&mut self, task: &ReplTask, required_source: Option<NodeId>) -> Plan {
        let Some(meta) = self.chunks.get(&task.chunk) else {
            return Plan::Drop; // chunk was pruned meanwhile
        };
        if meta.refcount == 0 {
            return Plan::Drop;
        }
        let online: Vec<NodeId> = meta
            .locations
            .iter()
            .filter(|n| self.benefactors.get(n).map(|b| b.online).unwrap_or(false))
            .copied()
            .collect();
        if online.is_empty() {
            return Plan::Drop; // data loss; read path will surface it
        }
        let effective_target = (meta.target as usize).min(self.online_benefactors());
        if online.len() >= effective_target {
            return Plan::Drop; // replication already satisfied
        }
        let source = match required_source {
            Some(s) if online.contains(&s) => s,
            Some(_) => return Plan::Defer, // batch only same-source copies
            None => online[task.attempts as usize % online.len()],
        };
        let holders: HashSet<NodeId> = meta.locations.iter().copied().collect();
        let candidates = self.select_stripe(1, &holders);
        let Some(target) = candidates.first().copied() else {
            return Plan::Drop;
        };
        Plan::Copy { source, target }
    }

    pub(super) fn on_replicate_report(
        &mut self,
        job: u64,
        _node: NodeId,
        done: Vec<ReplicaCopy>,
        failed: Vec<ReplicaCopy>,
        now: Time,
        out: &mut ActionQueue,
    ) {
        let Some(job_state) = self.repl_jobs.remove(&job) else {
            return; // stale or duplicate report
        };
        for c in done {
            if let Some(meta) = self.chunks.get_mut(&c.chunk) {
                if !meta.locations.contains(&c.target) {
                    meta.locations.push(c.target);
                }
            }
            self.resolve_waiting_chunk(c.chunk, out);
            // Still under target (e.g. target 3, one copy done)? Re-queue.
            if let Some(meta) = self.chunks.get(&c.chunk) {
                let effective = (meta.target as usize).min(self.online_benefactors());
                if self.online_locations(&meta.locations) < effective {
                    self.enqueue_replication(c.chunk);
                }
            }
        }
        for c in failed {
            let attempts = 1 + job_state.attempts.get(&c.chunk).copied().unwrap_or(0);
            if attempts <= self.cfg.replication_retries {
                self.repl_queue.retain(|t| t.chunk != c.chunk);
                self.queue_task(c.chunk, attempts);
            } else {
                self.resolve_waiting_chunk(c.chunk, out);
            }
        }
        self.pump_replication(now, out);
    }

    /// Marks `chunk` as no longer blocking pessimistic commits if its
    /// replication state is final (satisfied or unrecoverable), emitting any
    /// newly unblocked `CommitOk`s.
    pub(crate) fn resolve_waiting_chunk(&mut self, chunk: ChunkId, out: &mut ActionQueue) {
        let satisfied_or_dead = match self.chunks.get(&chunk) {
            None => true,
            Some(meta) => {
                let effective = (meta.target as usize).min(self.online_benefactors().max(1));
                self.online_locations(&meta.locations) >= effective
                    || self.online_locations(&meta.locations) == 0
            }
        };
        if !satisfied_or_dead {
            return;
        }
        let mut resolved = Vec::new();
        for (i, pc) in self.pending_commits.iter_mut().enumerate() {
            pc.waiting.remove(&chunk);
            if pc.waiting.is_empty() {
                resolved.push(i);
            }
        }
        for i in resolved.into_iter().rev() {
            let pc = self.pending_commits.remove(i);
            out.send(
                pc.client,
                Msg::CommitOk {
                    req: pc.req,
                    file: pc.file,
                    version: pc.version,
                    suggested_interval: pc.suggested_interval,
                },
            );
        }
    }
}

enum Plan {
    Copy { source: NodeId, target: NodeId },
    Defer,
    Drop,
}

/// Outcome of charging one repair copy against the rate budgets.
enum Charge {
    /// Tokens taken; the copy may dispatch now.
    Ok,
    /// The source benefactor's budget is exhausted; try another source.
    SourceBusy,
    /// The fleet-wide budget is exhausted; stop dispatching entirely.
    FleetExhausted,
}
