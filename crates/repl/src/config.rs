//! Replica-set configuration: commit policies, ship schemes, topology.

use std::fmt;

use twob_faults::EngineKind;

use crate::link::NetLinkConfig;

/// When the client is allowed to see a commit as complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Commit completes at local durability; replication is best-effort
    /// (PostgreSQL `synchronous_commit = off` for standbys).
    Async,
    /// Commit completes once `k` distinct replicas have durably applied it
    /// (quorum commit). Tolerates `k - 1` simultaneous failures beyond the
    /// primary's own crash without losing an acknowledged transaction.
    SemiSync(usize),
    /// Commit completes once *every* replica has durably applied it.
    Sync,
}

impl CommitPolicy {
    /// Replica acks needed before release, for a set of `replicas` nodes.
    pub fn required_acks(&self, replicas: usize) -> usize {
        match self {
            CommitPolicy::Async => 0,
            CommitPolicy::SemiSync(k) => (*k).min(replicas),
            CommitPolicy::Sync => replicas,
        }
    }
}

impl fmt::Display for CommitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitPolicy::Async => write!(f, "async"),
            CommitPolicy::SemiSync(k) => write!(f, "semisync:{k}"),
            CommitPolicy::Sync => write!(f, "sync"),
        }
    }
}

/// Which WAL (and which simulated device) every node logs to, and therefore
/// which read path the primary ships its tail from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipScheme {
    /// BA-WAL on a 2B-SSD: the tail is read out of the pinned BA window
    /// with `BA_READ_DMA`, plus flushed NAND segments after rotation.
    Ba,
    /// Synchronous block WAL on a conventional datacenter SSD: every tail
    /// poll re-reads the log region through the block path.
    Block,
}

impl ShipScheme {
    /// Both schemes, in sweep order.
    pub const ALL: [ShipScheme; 2] = [ShipScheme::Ba, ShipScheme::Block];
}

impl fmt::Display for ShipScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipScheme::Ba => write!(f, "ba"),
            ShipScheme::Block => write!(f, "block"),
        }
    }
}

/// Full configuration of a replica set run.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Database engine every node runs.
    pub engine: EngineKind,
    /// WAL scheme (and device profile) every node logs to.
    pub scheme: ShipScheme,
    /// Commit release policy.
    pub policy: CommitPolicy,
    /// Replica count, excluding the primary.
    pub replicas: usize,
    /// Network model for every primary↔replica link.
    pub link: NetLinkConfig,
    /// Seed for the workload stream, link jitter, and client think time.
    pub seed: u64,
    /// Commits the closed-loop client issues.
    pub commits: u64,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            engine: EngineKind::Rocks,
            scheme: ShipScheme::Ba,
            policy: CommitPolicy::SemiSync(2),
            replicas: 3,
            link: NetLinkConfig::default(),
            seed: 42,
            commits: 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_acks_clamp_to_replica_count() {
        assert_eq!(CommitPolicy::Async.required_acks(3), 0);
        assert_eq!(CommitPolicy::SemiSync(2).required_acks(3), 2);
        assert_eq!(CommitPolicy::SemiSync(9).required_acks(3), 3);
        assert_eq!(CommitPolicy::Sync.required_acks(3), 3);
    }
}
