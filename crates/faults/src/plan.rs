//! Deterministic fault schedules.

use twob_sim::SimRng;

/// A fault injected into the log device's flush path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushFault {
    /// The flush completion is fabricated without draining the cache: the
    /// host believes the flush happened, the device never performed it.
    Drop,
    /// The flush completion is delivered twice: the device drains its cache
    /// twice for one host command.
    Duplicate,
}

/// One deterministic fault schedule: a bounded workload, flush-path faults
/// at chosen commit indices, and a single power cut at an arbitrary virtual
/// instant after the last acknowledged commit.
///
/// Plans are value types: the same plan always produces the same virtual
/// execution, byte for byte, so every sweep failure is replayable from
/// `(engine, scheme, seed)` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for both plan-derived randomness and the workload stream.
    pub seed: u64,
    /// Commits the workload issues before the power cut.
    pub commits: u64,
    /// Nanoseconds past the last commit's acknowledgement at which power
    /// dies — the cut lands at an arbitrary `SimTime`, not on a commit
    /// boundary.
    pub cut_delay_ns: u64,
    /// `(after_commit_index, fault)` pairs injected into the log device's
    /// flush path, in commit order. Only block schemes have a host-visible
    /// flush command; BA-WAL schedules ignore these.
    pub flush_faults: Vec<(u64, FlushFault)>,
    /// Undersize the capacitor bank so the power-loss dump's energy budget
    /// fails (BA scheme only). The invariant then flips from "all synced
    /// data survives" to "the loss is detected loudly, never silent".
    pub weak_capacitors: bool,
    /// Raw bit-error rate injected into the NAND medium (within the
    /// controller's ECC budget), or `None` for a perfect medium.
    pub nand_rber: Option<f64>,
}

impl FaultPlan {
    /// Derives a random-but-deterministic plan from `seed`.
    pub fn random(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0xFA01_7FA0_17FA_017F);
        let commits = 8 + rng.next_u64_below(33);
        let n_flush = rng.next_u64_below(4);
        let mut flush_faults: Vec<(u64, FlushFault)> = (0..n_flush)
            .map(|_| {
                let at = rng.next_u64_below(commits);
                let kind = if rng.chance(0.5) {
                    FlushFault::Drop
                } else {
                    FlushFault::Duplicate
                };
                (at, kind)
            })
            .collect();
        flush_faults.sort_by_key(|(at, _)| *at);
        let weak_capacitors = rng.chance(0.12);
        let nand_rber = if rng.chance(0.3) {
            Some(1e-6 * (1.0 + rng.next_u64_below(9) as f64))
        } else {
            None
        };
        FaultPlan {
            seed,
            commits,
            cut_delay_ns: rng.next_u64_below(3_000),
            flush_faults,
            weak_capacitors,
            nand_rber,
        }
    }
}

/// A fault injected into one shipped WAL batch on the replication network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipFault {
    /// The batch is silently dropped on the wire; the cumulative re-ship
    /// protocol must recover it on a later send or retransmit tick.
    Drop,
    /// The batch is delivered twice; the replica's LSN dedup must make the
    /// second arrival a no-op.
    Duplicate,
    /// The batch is delayed by this many extra nanoseconds, reordering it
    /// behind later sends.
    Delay(u64),
}

/// One deterministic replication fault schedule: a bounded commit stream, a
/// primary power cut landing mid-protocol, replicas partitioned away before
/// the cut, and per-send network faults on shipped WAL batches.
///
/// Invariant by construction: `partitioned.len() <= quorum - 1` (the
/// guarantee's "≤ k−1 simultaneous failures" budget — the primary's own
/// crash is the k-th), and enough replicas stay connected that
/// `SemiSync(quorum)` keeps making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplFaultPlan {
    /// Seed for both plan-derived randomness and the workload stream.
    pub seed: u64,
    /// Replica count (excluding the primary).
    pub replicas: usize,
    /// The `k` of `SemiSync(k)`: acks required before the client sees the
    /// commit.
    pub quorum: usize,
    /// Commits the client issues before the power cut.
    pub commits: u64,
    /// The primary's power dies this many nanoseconds after commit
    /// `commits - 1` is *issued* — typically mid-ship, with batches on the
    /// wire and acks outstanding.
    pub cut_delay_ns: u64,
    /// `(replica, after_commit_index)`: the replica's link dies in both
    /// directions once the client issues that commit index.
    pub partitioned: Vec<(usize, u64)>,
    /// `(commit_index, replica, fault)`: applied to the ship batch sent to
    /// `replica` when commit `commit_index` triggers it.
    pub ship_faults: Vec<(u64, usize, ShipFault)>,
}

impl ReplFaultPlan {
    /// Derives a random-but-deterministic replication plan from `seed`.
    ///
    /// Replica count, quorum, partition set, and ship faults are all drawn
    /// from the seed, always respecting the `≤ k−1` failure budget.
    pub fn random(seed: u64) -> Self {
        let mut rng =
            SimRng::seed_from(seed ^ 0x0005_e7fa_u64.rotate_left(17) ^ 0x2B2B_2B2B_2B2B_2B2B);
        let replicas = 2 + rng.next_u64_below(3) as usize; // 2..=4
        let quorum = 1 + rng.next_u64_below(replicas as u64) as usize; // 1..=replicas
        let commits = 6 + rng.next_u64_below(15);
        // Partition budget: stay within k−1 failures *and* leave at least
        // `quorum` connected replicas so the protocol keeps releasing.
        let budget = (quorum - 1).min(replicas - quorum);
        let n_part = if budget == 0 {
            0
        } else {
            rng.next_u64_below(budget as u64 + 1) as usize
        };
        let mut pool: Vec<usize> = (0..replicas).collect();
        let mut partitioned = Vec::with_capacity(n_part);
        for _ in 0..n_part {
            let pick = rng.next_u64_below(pool.len() as u64) as usize;
            let replica = pool.swap_remove(pick);
            partitioned.push((replica, rng.next_u64_below(commits)));
        }
        partitioned.sort_unstable();
        let n_ship = rng.next_u64_below(5);
        let mut ship_faults: Vec<(u64, usize, ShipFault)> = (0..n_ship)
            .map(|_| {
                let at = rng.next_u64_below(commits);
                let replica = rng.next_u64_below(replicas as u64) as usize;
                let fault = match rng.next_u64_below(3) {
                    0 => ShipFault::Drop,
                    1 => ShipFault::Duplicate,
                    _ => ShipFault::Delay(1_000 + rng.next_u64_below(200_000)),
                };
                (at, replica, fault)
            })
            .collect();
        ship_faults.sort_by_key(|&(at, replica, _)| (at, replica));
        ReplFaultPlan {
            seed,
            replicas,
            quorum,
            commits,
            cut_delay_ns: rng.next_u64_below(120_000),
            partitioned,
            ship_faults,
        }
    }
}

/// The failure domain a cluster-level power cut takes out at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutScope {
    /// One node loses power.
    Node,
    /// Every node in one rack loses power (correlated PDU failure).
    Rack,
    /// Every node in one zone loses power (correlated facility failure).
    Zone,
}

/// One deterministic cluster fault schedule: a fleet of nodes spread over
/// `zones * racks_per_zone` failure domains, a bounded per-shard commit
/// stream, one correlated power cut scoped to a node, rack, or zone, and
/// optionally a live shard move racing the traffic.
///
/// Like the other plans, values are fully derived from the seed, so any
/// sweep failure replays from `(plan seed, placement, policy)` alone. The
/// cut's failure-domain footprint always stays within what rf=3,
/// zone-disjoint placement tolerates: at most one zone's worth of replicas
/// per shard, so a quorum of the surviving two zones keeps every
/// acknowledged commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFaultPlan {
    /// Seed for plan-derived randomness, payloads, and network jitter.
    pub seed: u64,
    /// Fleet size.
    pub nodes: usize,
    /// Availability zones (always ≥ 3 so rf=3 can be zone-disjoint).
    pub zones: u32,
    /// Racks inside each zone.
    pub racks_per_zone: u32,
    /// Logical shards placed across the fleet.
    pub shards: u16,
    /// Commits issued per shard before the cut settles.
    pub commits_per_shard: u64,
    /// What the correlated cut takes out.
    pub scope: CutScope,
    /// Which domain dies: a node index, rack index, or zone index
    /// (interpreted under `scope`, already reduced into range).
    pub victim: usize,
    /// Nanoseconds after traffic start at which the cut lands — mid
    /// protocol, never aligned to a commit boundary.
    pub cut_delay_ns: u64,
    /// A live shard move racing the traffic: `(shard, after_release)` —
    /// the mover starts once that many commits have been released
    /// cluster-wide. `None` for a static placement.
    pub shard_move: Option<(u16, u64)>,
}

impl ClusterFaultPlan {
    /// Derives a random-but-deterministic cluster plan from `seed`.
    pub fn random(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0xC1A5_7E2B_C1A5_7E2B);
        let zones = 3u32;
        let racks_per_zone = 1 + rng.next_u64_below(2) as u32; // 1..=2
        let nodes = 9 + rng.next_u64_below(7) as usize; // 9..=15
        let shards = 4 + rng.next_u64_below(5) as u16; // 4..=8
        let commits_per_shard = 6 + rng.next_u64_below(7); // 6..=12
        let scope = match rng.next_u64_below(3) {
            0 => CutScope::Node,
            1 => CutScope::Rack,
            _ => CutScope::Zone,
        };
        let domains = match scope {
            CutScope::Node => nodes as u64,
            CutScope::Rack => u64::from(zones * racks_per_zone),
            CutScope::Zone => u64::from(zones),
        };
        let victim = rng.next_u64_below(domains) as usize;
        let shard_move = if rng.chance(0.5) {
            let shard = rng.next_u64_below(u64::from(shards)) as u16;
            let total = commits_per_shard * u64::from(shards);
            Some((shard, rng.next_u64_below(total.max(1) / 2)))
        } else {
            None
        };
        ClusterFaultPlan {
            seed,
            nodes,
            zones,
            racks_per_zone,
            shards,
            commits_per_shard,
            scope,
            victim,
            cut_delay_ns: 20_000 + rng.next_u64_below(380_000),
            shard_move,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_plans_are_deterministic_and_bounded() {
        assert_eq!(ClusterFaultPlan::random(7), ClusterFaultPlan::random(7));
        assert_ne!(ClusterFaultPlan::random(1), ClusterFaultPlan::random(2));
        for seed in 0..300 {
            let p = ClusterFaultPlan::random(seed);
            assert!((9..=15).contains(&p.nodes));
            assert_eq!(p.zones, 3, "rf=3 zone-disjointness needs 3 zones");
            assert!((1..=2).contains(&p.racks_per_zone));
            assert!((4..=8).contains(&p.shards));
            assert!((6..=12).contains(&p.commits_per_shard));
            let domains = match p.scope {
                CutScope::Node => p.nodes,
                CutScope::Rack => (p.zones * p.racks_per_zone) as usize,
                CutScope::Zone => p.zones as usize,
            };
            assert!(p.victim < domains, "victim outside its domain space");
            assert!((20_000..400_000).contains(&p.cut_delay_ns));
            if let Some((shard, after)) = p.shard_move {
                assert!(shard < p.shards);
                assert!(after < p.commits_per_shard * u64::from(p.shards));
            }
        }
        // All three scopes actually occur across a modest seed range.
        let scopes: Vec<CutScope> = (0..48).map(|s| ClusterFaultPlan::random(s).scope).collect();
        for want in [CutScope::Node, CutScope::Rack, CutScope::Zone] {
            assert!(scopes.contains(&want), "{want:?} never drawn in 48 plans");
        }
    }

    #[test]
    fn repl_plans_are_deterministic_and_bounded() {
        assert_eq!(ReplFaultPlan::random(9), ReplFaultPlan::random(9));
        assert_ne!(ReplFaultPlan::random(1), ReplFaultPlan::random(2));
        for seed in 0..300 {
            let p = ReplFaultPlan::random(seed);
            assert!((2..=4).contains(&p.replicas));
            assert!((1..=p.replicas).contains(&p.quorum));
            assert!((6..=20).contains(&p.commits));
            // The guarantee's failure budget: primary crash + partitions
            // stay within k simultaneous failures, and >= k replicas stay
            // connected.
            assert!(p.partitioned.len() < p.quorum.max(1));
            assert!(p.replicas - p.partitioned.len() >= p.quorum);
            let mut seen: Vec<usize> = p.partitioned.iter().map(|&(r, _)| r).collect();
            seen.dedup();
            assert_eq!(seen.len(), p.partitioned.len(), "partition set repeats");
            for &(at, replica, _) in &p.ship_faults {
                assert!(at < p.commits);
                assert!(replica < p.replicas);
            }
        }
    }

    #[test]
    fn tied_ship_faults_keep_the_order_they_were_drawn_in() {
        // Two faults drawn for one (commit, replica) pair: the sort is
        // stable, so the first drawn is the one a shipment meets first.
        use ShipFault::{Delay, Drop, Duplicate};
        assert_eq!(
            ReplFaultPlan::random(5).ship_faults,
            vec![
                (2, 1, Duplicate),
                (9, 1, Drop),
                (9, 1, Delay(154_518)),
                (10, 1, Duplicate)
            ]
        );
        assert_eq!(
            ReplFaultPlan::random(10).ship_faults,
            vec![
                (2, 0, Delay(27_416)),
                (2, 0, Delay(161_676)),
                (2, 1, Drop),
                (5, 0, Duplicate)
            ]
        );
    }

    #[test]
    fn plans_are_deterministic() {
        assert_eq!(FaultPlan::random(42), FaultPlan::random(42));
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }

    #[test]
    fn plans_are_bounded() {
        for seed in 0..200 {
            let p = FaultPlan::random(seed);
            assert!((8..=40).contains(&p.commits));
            assert!(p.cut_delay_ns < 3_000);
            assert!(p.flush_faults.len() < 4);
            for (at, _) in &p.flush_faults {
                assert!(*at < p.commits);
            }
            if let Some(rber) = p.nand_rber {
                assert!(rber <= 1e-5, "rber {rber} would exceed the ECC budget");
            }
        }
    }
}
