//! The replica set as a parallel discrete-event simulation: every node on
//! its own shard, joined by network-latency lookahead.
//!
//! [`ReplicaSet`](crate::ReplicaSet) runs the whole cluster on one
//! calendar; [`ShardedReplCluster`] instead gives each node — the primary
//! and every replica, each with its own real [`BaWal`] over its own
//! simulated 2B-SSD — a private time domain on a
//! [`ShardedExecutor`]. The only way nodes interact is over [`NetLink`]s,
//! so the link's one-way propagation delay (half the configured RTT) *is*
//! the conservative lookahead: a ship batch or ack put on the wire at `t`
//! cannot arrive anywhere before `t + one_way`, which is exactly the
//! cross-shard send bound the executor enforces. NAND programs, BA syncs,
//! and WAL appends on different nodes simulate concurrently — and the
//! adaptive round batching lets a node burn through its local append/ack
//! chains for many lookahead windows while its peers are quiet.
//!
//! The protocol is the clean-link core of the replica set: a closed-loop
//! multi-stream client issues commits on the primary, every commit is
//! shipped per-record to each replica, a replica appends the record to its
//! own WAL (durability priced by its own device) and acks from the
//! durability point, and the primary releases a commit once a quorum of
//! acks is in, immediately issuing that stream's next commit. Chaos
//! (drops, duplication, partitions, failover) stays with the sequential
//! [`ReplicaSet`], whose retransmit machinery needs a global view.

use twob_core::TwoBSsd;
use twob_sim::{mix, Histogram, ShardCtx, ShardedExecutor, SimRng, SimTime, FNV_BASIS};
use twob_wal::{BaWal, WalConfig, WalError, WalWriter};

use crate::link::{NetLink, NetLinkConfig};

/// Start instant: past the BA-WAL's initial pins.
const T0: SimTime = SimTime::from_nanos(1_000_000);

/// Ack message size on the wire.
const ACK_WIRE_BYTES: u64 = 64;

/// Per-record framing overhead on the wire.
const RECORD_WIRE_OVERHEAD: u64 = 24;

/// Configuration of a sharded cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replica count, excluding the primary. One shard per node.
    pub replicas: usize,
    /// Total commits the client issues across all streams.
    pub commits: u64,
    /// Concurrent client streams (commits in flight on the primary).
    pub streams: u64,
    /// Replica acks required to release a commit.
    pub quorum: usize,
    /// Network model for every link. Must be lossless: the sharded core
    /// has no retransmit path (chaos belongs to `ReplicaSet`).
    pub link: NetLinkConfig,
    /// Commit record payload size in bytes.
    pub payload_bytes: usize,
    /// Seed for link jitter and client think time.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            commits: 96,
            streams: 8,
            quorum: 2,
            link: NetLinkConfig::default(),
            payload_bytes: 128,
            seed: 42,
        }
    }
}

/// Events of the sharded replication protocol.
#[derive(Debug, Clone)]
enum Ev {
    /// The client issues commit `txn` on the primary.
    Issue { txn: u64 },
    /// Commit `txn`'s record arrives at a replica.
    Deliver { txn: u64, payload: Vec<u8> },
    /// A replica's durability ack for `txn` arrives at the primary.
    Ack { txn: u64 },
}

/// One node's shard-local state. The primary (shard 0) owns the client,
/// the per-replica ship links, and the quorum ledger; replicas own their
/// ack link back.
struct Node {
    wal: BaWal,
    /// Primary: one ship link per replica. Replica: one ack link.
    links: Vec<NetLink>,
    /// Fold of everything this node observed, for cross-mode comparison.
    digest: u64,
    // Primary-only ledger.
    issued_at: Vec<Option<SimTime>>,
    acks: Vec<u32>,
    released: u64,
    latency: Histogram,
    think_rng: SimRng,
}

/// Deterministic commit payload: the txn id spread over `bytes`.
fn payload_for(txn: u64, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (txn as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// Outcome of a sharded cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Commits released to the client (must equal the configured total).
    pub released: u64,
    /// Median client-visible commit latency, microseconds.
    pub p50_us: f64,
    /// Mean client-visible commit latency, microseconds.
    pub mean_us: f64,
    /// Per-node observation digests, primary first — byte-identical
    /// across sequential, parallel, and lock-step drives.
    pub node_digests: Vec<u64>,
    /// Synchronisation rounds the executor ran.
    pub rounds: u64,
    /// Rounds where the earliest node got a multi-window horizon.
    pub batched_rounds: u64,
    /// Events processed across all shards.
    pub processed: u64,
    /// Stale deliveries (must be zero).
    pub clamped_posts: u64,
    /// Latest local virtual instant across all nodes at quiescence.
    pub final_now: SimTime,
}

/// A replica set where every node is its own PDES time domain. See the
/// module docs for the model.
pub struct ShardedReplCluster {
    cfg: ClusterConfig,
    pdes: ShardedExecutor<Ev>,
    states: Vec<Node>,
}

impl ShardedReplCluster {
    /// Builds the cluster: one shard per node, a fresh 2B-SSD + BA-WAL
    /// per node, and link random streams forked per direction.
    ///
    /// # Errors
    ///
    /// Propagates WAL construction failures.
    ///
    /// # Panics
    ///
    /// Panics if the link is lossy (the sharded core has no retransmit
    /// path), the quorum exceeds the replica count, or there are no
    /// streams/commits.
    pub fn new(cfg: ClusterConfig) -> Result<ShardedReplCluster, WalError> {
        assert!(
            cfg.link.drop_prob == 0.0 && cfg.link.dup_prob == 0.0,
            "the sharded cluster needs lossless links; chaos lives in ReplicaSet"
        );
        assert!(cfg.quorum <= cfg.replicas, "quorum exceeds replica count");
        assert!(cfg.streams > 0 && cfg.commits > 0, "an empty run is a bug");
        let mut net_rng = SimRng::seed_from(cfg.seed ^ 0x2e71_1a7e_2e71_1a7e);
        let nodes = cfg.replicas + 1;
        let mut states = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let wal = BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4)?;
            let links = if node == 0 {
                (0..cfg.replicas)
                    .map(|r| NetLink::new(cfg.link, net_rng.fork(r as u64)))
                    .collect()
            } else {
                vec![NetLink::new(cfg.link, net_rng.fork(0x0ACC + node as u64))]
            };
            states.push(Node {
                wal,
                links,
                digest: FNV_BASIS,
                issued_at: if node == 0 {
                    vec![None; cfg.commits as usize]
                } else {
                    Vec::new()
                },
                acks: if node == 0 {
                    vec![0; cfg.commits as usize]
                } else {
                    Vec::new()
                },
                released: 0,
                latency: Histogram::new(),
                think_rng: SimRng::seed_from(cfg.seed ^ 0xc11e_47c1_1e47_c11e),
            });
        }
        // The one-way propagation delay bounds every cross-node arrival,
        // so it is the executor's conservative lookahead.
        let mut pdes = ShardedExecutor::new(nodes, cfg.link.one_way);
        for s in 0..cfg.streams.min(cfg.commits) {
            pdes.seed(
                0,
                T0 + cfg.link.one_way.mul_f64(s as f64 * 0.1),
                Ev::Issue { txn: s },
            );
        }
        Ok(ShardedReplCluster { cfg, pdes, states })
    }

    fn handler(&self) -> impl Fn(&mut ShardCtx<'_, Ev>, &mut Node, SimTime, Ev) + Sync + use<> {
        let commits = self.cfg.commits;
        let streams = self.cfg.streams;
        let quorum = self.cfg.quorum;
        let payload_bytes = self.cfg.payload_bytes;
        move |ctx, node, t, ev| match ev {
            Ev::Issue { txn } => {
                let payload = payload_for(txn, payload_bytes);
                let out = node
                    .wal
                    .append_commit(t, &payload)
                    .expect("primary WAL append failed");
                let durable = out.durable_at.unwrap_or(out.commit_at);
                node.issued_at[txn as usize] = Some(t);
                node.digest = mix(mix(node.digest, txn), durable.as_nanos());
                let bytes = payload.len() as u64 + RECORD_WIRE_OVERHEAD;
                for r in 0..node.links.len() {
                    let at = node.links[r]
                        .delivery_reliable(durable, bytes)
                        .expect("lossless link partitioned");
                    ctx.send(
                        1 + r,
                        at,
                        Ev::Deliver {
                            txn,
                            payload: payload.clone(),
                        },
                    );
                }
            }
            Ev::Deliver { txn, payload } => {
                // WAL first: the ack promises durability on *this* node's
                // device, so it leaves from the append's durability point.
                let out = node
                    .wal
                    .append_commit(t, &payload)
                    .expect("replica WAL append failed");
                let durable = out.durable_at.unwrap_or(out.commit_at);
                node.digest = mix(mix(node.digest, txn), durable.as_nanos());
                let at = node.links[0]
                    .delivery_reliable(durable, ACK_WIRE_BYTES)
                    .expect("lossless link partitioned");
                ctx.send(0, at, Ev::Ack { txn });
            }
            Ev::Ack { txn } => {
                node.acks[txn as usize] += 1;
                if u64::from(node.acks[txn as usize]) == quorum as u64 {
                    node.released += 1;
                    let issued = node.issued_at[txn as usize].expect("ack before issue");
                    node.latency.record(t.saturating_since(issued));
                    node.digest = mix(mix(node.digest, txn), t.as_nanos());
                    let next = txn + streams;
                    if next < commits {
                        let think =
                            twob_sim::SimDuration::from_nanos(node.think_rng.next_u64_below(400));
                        ctx.post(t + think, Ev::Issue { txn: next });
                    }
                }
            }
        }
    }

    /// Drives the cluster to quiescence sequentially (adaptive batching).
    pub fn run(mut self) -> ClusterReport {
        let handler = self.handler();
        self.pdes.run(&mut self.states, &handler);
        self.report()
    }

    /// Drives the cluster to quiescence on up to `threads` workers,
    /// producing the identical schedule to [`ShardedReplCluster::run`].
    pub fn run_parallel(mut self, threads: usize) -> ClusterReport {
        let handler = self.handler();
        self.pdes.run_parallel(&mut self.states, &handler, threads);
        self.report()
    }

    /// Drives the cluster under the fine-grained lock-step oracle.
    pub fn run_lockstep(mut self) -> ClusterReport {
        let handler = self.handler();
        self.pdes.run_lockstep(&mut self.states, &handler);
        self.report()
    }

    fn report(self) -> ClusterReport {
        let primary = &self.states[0];
        assert_eq!(
            primary.released, self.cfg.commits,
            "commits lost: {} of {} released",
            primary.released, self.cfg.commits
        );
        ClusterReport {
            released: primary.released,
            p50_us: primary.latency.percentile(0.50).as_micros_f64(),
            mean_us: primary.latency.mean().as_micros_f64(),
            node_digests: self.states.iter().map(|n| n.digest).collect(),
            rounds: self.pdes.rounds(),
            batched_rounds: self.pdes.batched_rounds(),
            processed: self.pdes.processed(),
            clamped_posts: self.pdes.clamped_posts(),
            final_now: (0..self.states.len())
                .map(|i| self.pdes.shard(i).now())
                .max()
                .expect("a cluster has at least one node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ClusterConfig {
        ClusterConfig {
            commits: 72,
            streams: 6,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn sequential_parallel_and_lockstep_agree() {
        let seq = ShardedReplCluster::new(base_cfg()).unwrap().run();
        assert_eq!(seq.clamped_posts, 0, "stale cross-shard delivery");
        assert_eq!(seq.released, 72);
        for threads in [2, 4, 8] {
            let par = ShardedReplCluster::new(base_cfg())
                .unwrap()
                .run_parallel(threads);
            assert_eq!(par, seq, "{threads}-thread run diverged");
        }
        let lock = ShardedReplCluster::new(base_cfg()).unwrap().run_lockstep();
        assert_eq!(lock.node_digests, seq.node_digests);
        assert_eq!(lock.released, seq.released);
        assert_eq!(lock.clamped_posts, 0);
        assert!(
            seq.rounds <= lock.rounds,
            "adaptive batching used more rounds ({} vs {})",
            seq.rounds,
            lock.rounds
        );
    }

    #[test]
    fn quorum_release_waits_at_least_one_rtt() {
        let report = ShardedReplCluster::new(base_cfg()).unwrap().run();
        let rtt_us = base_cfg().link.one_way.as_nanos() as f64 * 2.0 / 1_000.0;
        assert!(
            report.p50_us >= rtt_us,
            "quorum release ({} us) beat the network round trip ({} us)",
            report.p50_us,
            rtt_us
        );
    }

    #[test]
    fn replica_wal_appends_are_priced_by_their_own_devices() {
        // With one replica and quorum 1 the release path is exactly
        // ship → replica append → ack, so latency must also cover the
        // replica's local durability cost, not just the wire.
        let cfg = ClusterConfig {
            replicas: 1,
            quorum: 1,
            commits: 12,
            streams: 2,
            ..ClusterConfig::default()
        };
        let solo = ShardedReplCluster::new(cfg).unwrap().run();
        let rtt_us = ClusterConfig::default().link.one_way.as_nanos() as f64 * 2.0 / 1_000.0;
        assert!(
            solo.mean_us > rtt_us,
            "release latency {} us leaves no room for the replica's append",
            solo.mean_us
        );
    }

    #[test]
    fn deterministic_across_identical_builds() {
        let a = ShardedReplCluster::new(base_cfg()).unwrap().run();
        let b = ShardedReplCluster::new(base_cfg()).unwrap().run();
        assert_eq!(a, b);
    }
}
