//! Pool-wide configuration.

use stdchk_util::Dur;

/// Configuration of a stdchk storage pool, held by the manager and echoed to
/// clients at session-open time.
///
/// Defaults follow the paper's prototype: 1 MiB chunks ("remote storage is
/// more efficiently accessed in data chunks of the order of a megabyte"),
/// soft-state registration with heartbeats, lazy pull-based GC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Fixed chunk size for striping and content addressing.
    pub chunk_size: u32,
    /// Default stripe width for new write sessions.
    pub default_stripe_width: u32,
    /// Default replica target (1 = no replication).
    pub default_replication: u32,
    /// How often benefactors heartbeat.
    pub heartbeat_every: Dur,
    /// Silence after which a benefactor is declared offline.
    pub benefactor_timeout: Dur,
    /// Lifetime of an eager space reservation without activity.
    pub reservation_ttl: Dur,
    /// How often the manager asks benefactors for GC reports.
    pub gc_every: Dur,
    /// How often retention policies are enforced.
    pub policy_sweep_every: Dur,
    /// Maximum concurrently outstanding replication jobs.
    pub max_replication_jobs: usize,
    /// Maximum copy orders batched into one replication job.
    pub replication_batch: usize,
    /// Per-copy retry budget for failed replication transfers.
    pub replication_retries: u32,
    /// Sliding window over which fleet departure rate is measured.
    pub churn_window: Dur,
    /// Repair read budget per source benefactor, bytes/sec (0 = unlimited).
    pub repair_rate_source: u64,
    /// Fleet-wide repair budget, bytes/sec (0 = unlimited).
    pub repair_rate_fleet: u64,
    /// Token-bucket burst capacity for the repair budgets, bytes.
    pub repair_burst: u64,
    /// Floor for suggested checkpoint intervals returned on commit.
    pub guidance_min: Dur,
    /// Ceiling for suggested checkpoint intervals returned on commit.
    pub guidance_max: Dur,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            chunk_size: 1 << 20,
            default_stripe_width: 4,
            default_replication: 1,
            heartbeat_every: Dur::from_secs(5),
            benefactor_timeout: Dur::from_secs(15),
            reservation_ttl: Dur::from_secs(300),
            gc_every: Dur::from_secs(60),
            policy_sweep_every: Dur::from_secs(10),
            max_replication_jobs: 8,
            replication_batch: 64,
            replication_retries: 3,
            churn_window: Dur::from_secs(600),
            repair_rate_source: 25 << 20,
            repair_rate_fleet: 100 << 20,
            repair_burst: 16 << 20,
            guidance_min: Dur::from_secs(30),
            guidance_max: Dur::from_secs(3600),
        }
    }
}

impl PoolConfig {
    /// A configuration with tight timers for unit tests (seconds-scale
    /// waits shrink to milliseconds).
    pub fn fast_for_tests() -> PoolConfig {
        PoolConfig {
            chunk_size: 1 << 16,
            heartbeat_every: Dur::from_millis(50),
            benefactor_timeout: Dur::from_millis(150),
            reservation_ttl: Dur::from_millis(500),
            gc_every: Dur::from_millis(200),
            policy_sweep_every: Dur::from_millis(100),
            churn_window: Dur::from_secs(10),
            guidance_min: Dur::from_millis(100),
            ..PoolConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_like() {
        let c = PoolConfig::default();
        assert_eq!(c.chunk_size, 1 << 20);
        assert!(c.benefactor_timeout > c.heartbeat_every);
    }
}
