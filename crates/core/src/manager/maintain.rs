//! Time-based maintenance: heartbeat expiry and repair, reservation expiry,
//! retention-policy sweeps, GC marking and reports, version pruning.

use stdchk_proto::ids::{ChunkId, NodeId, RequestId};
use stdchk_proto::meta::MetaRecord;
use stdchk_proto::msg::Msg;
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::Time;

use super::Manager;
use crate::node::ActionQueue;

impl Manager {
    /// Runs all time-based maintenance: heartbeat expiry, reservation
    /// expiry, retention sweeps, GC marking, replication dispatch.
    pub(crate) fn process_timeout(&mut self, now: Time, out: &mut ActionQueue) {
        self.expire_benefactors(now, out);
        self.expire_reservations(now, out);
        if now.since(self.last_policy_sweep) >= self.cfg.policy_sweep_every {
            self.last_policy_sweep = now;
            self.policy_sweep(now, out);
        }
        if now.since(self.last_gc_mark) >= self.cfg.gc_every {
            self.last_gc_mark = now;
            for b in self.benefactors.values_mut().filter(|b| b.online) {
                b.gc_due = true;
            }
        }
        self.pump_replication(now, out);
    }

    fn expire_benefactors(&mut self, now: Time, out: &mut ActionQueue) {
        let timeout = self.cfg.benefactor_timeout;
        let dead: Vec<NodeId> = self
            .benefactors
            .iter()
            .filter(|(_, b)| b.online && now.since(b.last_seen) > timeout)
            .map(|(id, _)| *id)
            .collect();
        for node in dead {
            if let Some(b) = self.benefactors.get_mut(&node) {
                b.online = false;
                b.gc_due = false;
            }
            // Chunks it held lose a live replica.
            self.repair_keys_stale = true;
            // One online session ended: feed the departure rate and make
            // the session durable (replay folds it back into the totals).
            let session = self.churn.note_departure(node, now);
            self.log_meta(out, || MetaRecord::Churn { node, session });
            // In-flight repair jobs sourced from the dead node will never
            // report; requeue their copies so the work is re-planned from a
            // surviving holder instead of leaking the job slot forever.
            let orphaned: Vec<u64> = self
                .repl_jobs
                .iter()
                .filter(|(_, j)| j.source == node)
                .map(|(id, _)| *id)
                .collect();
            for job in orphaned {
                if let Some(j) = self.repl_jobs.remove(&job) {
                    for (chunk, _) in j.copies {
                        let attempts = j.attempts.get(&chunk).copied().unwrap_or(0);
                        self.requeue_replication(chunk, attempts + 1);
                    }
                }
            }
            // Remove the dead node from chunk locations; plan repair for
            // chunks that fell under their replication target. A returning
            // node re-advertises its inventory through GC reports.
            let mut to_repair = Vec::new();
            for (id, meta) in self.chunks.iter_mut() {
                if let Some(pos) = meta.locations.iter().position(|n| *n == node) {
                    meta.locations.swap_remove(pos);
                    if meta.refcount > 0 {
                        to_repair.push(*id);
                    }
                }
            }
            to_repair.sort_unstable();
            for id in to_repair {
                let meta = &self.chunks[&id];
                let effective = (meta.target as usize).min(self.online_benefactors().max(1));
                let online = self.online_locations(&meta.locations);
                if online > 0 && online < effective {
                    self.enqueue_replication(id);
                } else if online == 0 {
                    // Data loss for this chunk: unblock anything waiting.
                    self.resolve_waiting_chunk(id, out);
                }
            }
        }
    }

    fn expire_reservations(&mut self, now: Time, out: &mut ActionQueue) {
        let expired: Vec<_> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.expires < now)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            if let Some(res) = self.reservations.remove(&id) {
                self.release_reservation(&res);
                self.unpin_reservation(&res, out);
                self.drop_file_if_empty(&res.path);
            }
        }
    }

    // ---------------------------------------------------- churn guidance

    /// Suggested checkpoint interval via Young's approximation
    /// `t = sqrt(2·δ/λ)`, where `δ` is the observed checkpoint write
    /// duration and `λ` the per-node departure rate over the churn
    /// window. [`Dur::ZERO`] when no departure was observed recently —
    /// a calm fleet warrants no guidance.
    pub(crate) fn checkpoint_guidance(
        &mut self,
        delta: stdchk_util::Dur,
        now: Time,
    ) -> stdchk_util::Dur {
        let fleet = self.benefactors.len();
        let Some(rate_ppb) = self
            .churn
            .departure_rate_ppb(now, self.cfg.churn_window, fleet)
        else {
            return stdchk_util::Dur::ZERO;
        };
        let lambda = rate_ppb as f64 / 1e9;
        if lambda <= 0.0 {
            return stdchk_util::Dur::ZERO;
        }
        let delta_s = delta.as_secs_f64().max(1e-3);
        let t = stdchk_util::Dur::from_secs_f64((2.0 * delta_s / lambda).sqrt());
        t.clamp(self.cfg.guidance_min, self.cfg.guidance_max)
    }

    // ------------------------------------------------------------ retention

    fn policy_sweep(&mut self, now: Time, out: &mut ActionQueue) {
        let policies: Vec<(String, RetentionPolicy)> =
            self.dirs.iter().map(|(d, p)| (d.clone(), *p)).collect();
        for (dir, policy) in policies {
            let prefix = if dir == "/" {
                "/".to_string()
            } else {
                format!("{dir}/")
            };
            let paths: Vec<String> = self
                .files
                .keys()
                .filter(|p| p.starts_with(&prefix))
                .cloned()
                .collect();
            for path in paths {
                match policy {
                    RetentionPolicy::NoIntervention => {}
                    RetentionPolicy::AutomatedReplace { keep_last } => {
                        self.prune_versions(&path, keep_last as usize, out);
                    }
                    RetentionPolicy::AutomatedPurge { after } => {
                        self.purge_older_than(&path, now, after, out);
                        self.drop_file_if_empty(&path);
                    }
                }
            }
        }
    }

    /// Keeps only the newest `keep` versions of `path`, returning
    /// `DeleteChunks` orders for benefactors holding newly orphaned chunks.
    pub(crate) fn prune_versions(&mut self, path: &str, keep: usize, out: &mut ActionQueue) {
        let Some(file) = self.files.get_mut(path) else {
            return;
        };
        if file.versions.len() <= keep {
            return;
        }
        let drop_count = file.versions.len() - keep;
        let dropped: Vec<_> = file.versions.drain(..drop_count).collect();
        self.log_meta(out, || MetaRecord::Prune {
            path: path.to_string(),
            versions: dropped.iter().map(|v| v.version).collect(),
        });
        for record in dropped {
            self.stats.policy_drops += 1;
            self.decref_map(&record.map, out);
        }
    }

    fn purge_older_than(
        &mut self,
        path: &str,
        now: Time,
        after: stdchk_util::Dur,
        out: &mut ActionQueue,
    ) {
        let Some(file) = self.files.get_mut(path) else {
            return;
        };
        let mut dropped = Vec::new();
        file.versions.retain(|v| {
            if now.since(v.mtime) > after {
                dropped.push(v.clone());
                false
            } else {
                true
            }
        });
        if dropped.is_empty() {
            return;
        }
        self.log_meta(out, || MetaRecord::Prune {
            path: path.to_string(),
            versions: dropped.iter().map(|v| v.version).collect(),
        });
        for record in dropped {
            self.stats.policy_drops += 1;
            self.decref_map(&record.map, out);
        }
    }

    /// Decrements refcounts for a dropped version; chunks reaching zero are
    /// deleted from their holders (fast path; pull-based GC is the backstop).
    pub(crate) fn decref_map(
        &mut self,
        map: &stdchk_proto::chunkmap::ChunkMap,
        out: &mut ActionQueue,
    ) {
        let mut per_node: std::collections::BTreeMap<NodeId, Vec<ChunkId>> = Default::default();
        for id in map.distinct_chunks() {
            let Some(meta) = self.chunks.get_mut(&id) else {
                continue;
            };
            meta.refcount = meta.refcount.saturating_sub(1);
            if meta.refcount == 0 {
                // Repairs of an unreferenced chunk are pointless either way.
                self.repl_queue.retain(|t| t.chunk != id);
                let meta = &self.chunks[&id];
                if meta.pins > 0 {
                    // A have/want negotiation promised this chunk to an
                    // in-flight commit: keep the bytes until it unpins.
                    continue;
                }
                for n in &meta.locations {
                    per_node.entry(*n).or_default().push(id);
                }
                self.chunks.remove(&id);
            }
        }
        for (to, chunks) in per_node {
            out.send(to, Msg::DeleteChunks { chunks });
        }
    }

    /// Releases every negotiation pin held by `res` (commit, abort, or
    /// expiry). Dropping the last pin of an unreferenced chunk reclaims it
    /// exactly like [`Manager::decref_map`] reaching zero.
    pub(crate) fn unpin_reservation(&mut self, res: &super::Reservation, out: &mut ActionQueue) {
        let mut per_node: std::collections::BTreeMap<NodeId, Vec<ChunkId>> = Default::default();
        for id in &res.pinned {
            let Some(meta) = self.chunks.get_mut(id) else {
                continue;
            };
            meta.pins = meta.pins.saturating_sub(1);
            if meta.refcount == 0 && meta.pins == 0 {
                for n in &meta.locations {
                    per_node.entry(*n).or_default().push(*id);
                }
                self.chunks.remove(id);
                self.repl_queue.retain(|t| t.chunk != *id);
            }
        }
        for (to, chunks) in per_node {
            out.send(to, Msg::DeleteChunks { chunks });
        }
    }

    // ------------------------------------------------------------ GC

    pub(super) fn on_gc_report(
        &mut self,
        req: RequestId,
        node: NodeId,
        chunks: Vec<ChunkId>,
        now: Time,
        out: &mut ActionQueue,
    ) {
        if let Some(b) = self.benefactors.get_mut(&node) {
            b.gc_due = false;
        }
        let mut deletable = Vec::new();
        let mut relearned = Vec::new();
        for id in chunks {
            match self.chunks.get_mut(&id) {
                Some(meta) if meta.refcount > 0 || meta.pins > 0 => {
                    // Live chunk: (re-)learn the location. This is how a
                    // returning benefactor's replicas rejoin the metadata.
                    if !meta.locations.contains(&node) {
                        meta.locations.push(node);
                        self.repair_keys_stale = true;
                        relearned.push(id);
                    }
                }
                _ => deletable.push(id),
            }
        }
        // A re-learned copy can revive a chunk whose repair was dropped as
        // unrecoverable (every source offline at the time): requeue it so
        // the planner re-evaluates with the new source. Satisfied chunks
        // fall out of the queue as `Plan::Drop` without charging budgets.
        for id in relearned {
            self.enqueue_replication(id);
        }
        self.stats.gc_deletable += deletable.len() as u64;
        out.send(node, Msg::GcReply { req, deletable });
        // Re-learned locations may provide sources for queued repairs. The
        // report time must flow through: pumping at `Time::ZERO` would stop
        // the scheduler's token buckets from ever refilling on this path.
        self.pump_replication(now, out);
    }
}
