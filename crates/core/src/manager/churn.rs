//! Churn observation: per-benefactor session accounting and fleet-wide
//! departure-rate estimation.
//!
//! The manager watches benefactor arrivals and heartbeat expiries and
//! distills them into a **departure rate** (failures/sec/node over a
//! sliding window), which drives checkpoint-interval guidance via Young's
//! approximation `t_opt = sqrt(2·δ/λ)`.
//!
//! Session *totals* are durable: every expiry logs a
//! [`MetaRecord::Churn`](stdchk_proto::meta::MetaRecord::Churn) record and
//! replay folds it back in (like the dedup ledger), so the failure-rate
//! picture survives manager restarts. The sliding departure window is
//! transient by design — stale departures should not throttle a freshly
//! restarted manager.

use std::collections::{BTreeMap, VecDeque};

use stdchk_proto::ids::NodeId;
use stdchk_util::{Dur, Time};

/// Durable churn totals (folded from `MetaRecord::Churn` on replay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnTotals {
    /// Completed online sessions observed (heartbeat expiries).
    pub departures: u64,
    /// Summed length of those sessions.
    pub session_time: Dur,
}

/// Observes joins/heartbeats/expiries and answers departure-rate
/// queries.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChurnTracker {
    /// Start of each online node's current session.
    online_since: BTreeMap<NodeId, Time>,
    /// Departure timestamps inside the sliding window, oldest first.
    window: VecDeque<Time>,
    totals: ChurnTotals,
}

impl ChurnTracker {
    /// Marks `node` online at `now` (join, adoption, or first/returning
    /// heartbeat). Idempotent while the node stays online.
    pub fn note_online(&mut self, node: NodeId, now: Time) {
        self.online_since.entry(node).or_insert(now);
    }

    /// Marks `node` departed at `now`, returning the completed session
    /// length (what the durable `MetaRecord::Churn` record carries).
    pub fn note_departure(&mut self, node: NodeId, now: Time) -> Dur {
        let session = self
            .online_since
            .remove(&node)
            .map_or(Dur::ZERO, |since| now - since);
        self.window.push_back(now);
        self.totals.departures += 1;
        self.totals.session_time += session;
        session
    }

    /// Folds a replayed durable churn record into the totals. The sliding
    /// window is deliberately not reconstructed.
    pub fn fold(&mut self, session: Dur) {
        self.totals.departures += 1;
        self.totals.session_time += session;
    }

    /// Durable totals.
    pub fn totals(&self) -> ChurnTotals {
        self.totals
    }

    /// Departures per second per node over the trailing `window`, scaled
    /// by 1e9 (i.e. departures per second per node, ppb-style fixed
    /// point). `None` when nothing departed in the window.
    pub fn departure_rate_ppb(&mut self, now: Time, window: Dur, fleet: usize) -> Option<u64> {
        while let Some(&t) = self.window.front() {
            if now - t > window {
                self.window.pop_front();
            } else {
                break;
            }
        }
        if self.window.is_empty() || fleet == 0 {
            return None;
        }
        let span = window.as_nanos().max(1);
        // departures / (window_secs * fleet) * 1e9
        let rate = (self.window.len() as u128 * 1_000_000_000u128 * 1_000_000_000u128)
            / (span as u128 * fleet as u128);
        Some(rate as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_accumulate_into_totals() {
        let mut c = ChurnTracker::default();
        let n = NodeId(1);
        c.note_online(n, Time::from_secs(0));
        // A heartbeat while online does not restart the session.
        c.note_online(n, Time::from_secs(30));
        let s = c.note_departure(n, Time::from_secs(60));
        assert_eq!(s, Dur::from_secs(60));
        c.note_online(n, Time::from_secs(100));
        assert_eq!(
            c.note_departure(n, Time::from_secs(110)),
            Dur::from_secs(10)
        );
        assert_eq!(c.totals().departures, 2);
        assert_eq!(c.totals().session_time, Dur::from_secs(70));
    }

    #[test]
    fn departure_rate_windows_out_old_events() {
        let mut c = ChurnTracker::default();
        for i in 0..4 {
            let n = NodeId(i);
            c.note_online(n, Time::ZERO);
            c.note_departure(n, Time::from_secs(10));
        }
        let w = Dur::from_secs(100);
        let r = c
            .departure_rate_ppb(Time::from_secs(20), w, 8)
            .expect("recent departures");
        // 4 departures / (100s * 8 nodes) = 0.005/s/node = 5_000_000 ppb.
        assert_eq!(r, 5_000_000);
        assert!(c.departure_rate_ppb(Time::from_secs(500), w, 8).is_none());
    }

    #[test]
    fn fold_restores_totals_without_window() {
        let mut c = ChurnTracker::default();
        c.fold(Dur::from_secs(30));
        assert_eq!(c.totals().departures, 1);
        assert_eq!(c.totals().session_time, Dur::from_secs(30));
        assert!(c
            .departure_rate_ppb(Time::from_secs(1), Dur::from_secs(60), 4)
            .is_none());
    }
}
