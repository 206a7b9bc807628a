//! Cluster sweep: the fleet-scale cost of placement, replication, and
//! follower reads on dual-mode log hosts (beyond the paper).
//!
//! Every node of a [`twob_repl::Fleet`] is one simulated 2B-SSD hosting
//! several shard WALs through the pin-table; this sweep scales the fleet
//! across node counts and placement functions, once with BA log slots and
//! once with block slots, and reports the client-visible commit median
//! and the follower-read p99 — the cluster-level restatement of the
//! paper's byte-path read advantage (Fig 7(a)): a window-resident record
//! is served by an MMIO burst that never queues behind the log's own
//! NAND programs, while a block follower re-reads log pages on the same
//! die that is programming the next commit.
//!
//! The sweep also runs a seeded [`twob_repl::fleet_sweep`] — cluster
//! fault plans with node/rack/zone cuts and live shard moves — and folds
//! its digest into the fixture, so the golden test pins the entire
//! control plane (placement, joint-consensus moves, fenced handoff,
//! recovery promotion) byte-for-byte.

use serde::{Deserialize, Serialize};
use twob_repl::{fleet_sweep, Fleet, FleetConfig, PlacementKind, ShipScheme};

use crate::Table;

/// Fleet sizes the sweep visits (all 3-zone layouts).
pub const NODE_COUNTS: [usize; 3] = [9, 12, 15];

/// Shards per fleet.
pub const SHARDS: u16 = 6;

/// Commits per shard in the clean cells.
pub const COMMITS_PER_SHARD: u64 = 8;

/// Seed shared by every cell.
pub const SEED: u64 = 0x2b5d;

/// Fault plans in the digest-pinned fault sweep.
pub const FAULT_PLANS: u64 = 12;

/// One `(nodes, placement, scheme)` cell of the clean sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Fleet size.
    pub nodes: usize,
    /// Placement label (`"hash"` or `"range"`).
    pub placement: String,
    /// Log-slot scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Commits released (always `SHARDS * COMMITS_PER_SHARD`).
    pub released: u64,
    /// Follower reads served.
    pub reads: u64,
    /// Median client-visible commit latency, µs.
    pub commit_p50_us: f64,
    /// p99 follower-read latency, µs.
    pub read_p99_us: f64,
}

/// The whole sweep: clean cells plus the fault-sweep pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSweep {
    /// Clean `(nodes, placement, scheme)` cells.
    pub rows: Vec<Row>,
    /// Fault-sweep runs executed (plans × placements × policies).
    pub fault_runs: u64,
    /// Commits released across the fault sweep.
    pub fault_released: u64,
    /// Follower reads served across the fault sweep.
    pub fault_reads: u64,
    /// Fault-sweep runs that included a live shard move.
    pub fault_moved: u64,
    /// Fault-sweep digest — pins every promoted per-shard log.
    pub fault_digest: String,
}

fn cell_config(nodes: usize, placement: PlacementKind, scheme: ShipScheme) -> FleetConfig {
    FleetConfig {
        nodes,
        shards: SHARDS,
        placement,
        scheme,
        commits_per_shard: COMMITS_PER_SHARD,
        seed: SEED,
        ..FleetConfig::default()
    }
}

/// Runs one clean cell.
///
/// # Panics
///
/// Panics if the fault-free fleet violates any cluster guarantee.
pub fn cell(nodes: usize, placement: PlacementKind, scheme: ShipScheme) -> Row {
    let report = Fleet::new(cell_config(nodes, placement, scheme))
        .expect("valid sweep cell")
        .run();
    assert!(
        report.passed(),
        "{nodes}/{placement}/{scheme}: {:?}",
        report.violations
    );
    assert_eq!(report.clamped_posts, 0, "{nodes}/{placement}/{scheme}");
    Row {
        nodes,
        placement: placement.to_string(),
        scheme: scheme.to_string(),
        released: report.released,
        reads: report.reads,
        commit_p50_us: report.commit_p50_us,
        read_p99_us: report.read_p99_us,
    }
}

/// Runs the full sweep: every node count under both placements and both
/// schemes, plus the seeded fault sweep.
pub fn run() -> ClusterSweep {
    let mut rows = Vec::new();
    for nodes in NODE_COUNTS {
        for placement in PlacementKind::ALL {
            for scheme in ShipScheme::ALL {
                rows.push(cell(nodes, placement, scheme));
            }
        }
    }
    let faults = fleet_sweep(FAULT_PLANS, SEED);
    assert!(faults.passed(), "{:?}", faults.violations);
    ClusterSweep {
        rows,
        fault_runs: faults.runs,
        fault_released: faults.released,
        fault_reads: faults.reads,
        fault_moved: faults.moved,
        fault_digest: format!("{:016x}", faults.digest),
    }
}

/// The cluster gate: at every node count and placement, the BA hosts'
/// follower-read p99 must undercut the block hosts', and the parallel
/// drive must reproduce the sequential observations exactly. Returns the
/// human-readable pass summary.
///
/// # Errors
///
/// Returns the first condition that does not hold.
pub fn gate(sweep: &ClusterSweep) -> Result<String, String> {
    let mut margins = Vec::new();
    for nodes in NODE_COUNTS {
        for placement in PlacementKind::ALL {
            let find = |scheme: &str| {
                sweep
                    .rows
                    .iter()
                    .find(|r| {
                        r.nodes == nodes
                            && r.placement == placement.to_string()
                            && r.scheme == scheme
                    })
                    .ok_or_else(|| format!("missing {nodes}/{placement}/{scheme} cell"))
            };
            let ba = find("ba")?;
            let block = find("block")?;
            if ba.read_p99_us >= block.read_p99_us {
                return Err(format!(
                    "at {nodes} nodes ({placement}): ba follower-read p99 {:.2} us !< block {:.2} us",
                    ba.read_p99_us, block.read_p99_us
                ));
            }
            margins.push(format!(
                "{nodes}n/{placement} {:.1}<{:.1}",
                ba.read_p99_us, block.read_p99_us
            ));
        }
    }
    // Drive agreement on the largest clean cell.
    let cfg = cell_config(15, PlacementKind::Hash, ShipScheme::Ba);
    let seq = Fleet::new(cfg.clone()).expect("gate cell").run();
    let par = Fleet::new(cfg).expect("gate cell").run_parallel(4);
    if par != seq {
        return Err("parallel drive diverged from the sequential run at 15 nodes".to_string());
    }
    Ok(format!(
        "cluster gate passed: ba read p99 < block at every node count [{}], \
         parallel ≡ sequential at 15 nodes",
        margins.join(", ")
    ))
}

/// Renders the clean cells and the fault-sweep summary line.
pub(crate) fn render(sweep: &ClusterSweep) -> String {
    let table = Table::new(&sweep.rows)
        .col("nodes", |r| r.nodes)
        .col("placement", |r| r.placement.clone())
        .col("ship", |r| r.scheme.clone())
        .col("released", |r| r.released)
        .col("reads", |r| r.reads)
        .col("commit p50 us", |r| format!("{:.2}", r.commit_p50_us))
        .col("read p99 us", |r| format!("{:.2}", r.read_p99_us));
    format!(
        "Cluster sweep: {SHARDS} shards x {COMMITS_PER_SHARD} commits, 3-zone fleets \
         (seed {SEED:#x})\n\n{table}\n\
         fault sweep: {} runs ({} with a live shard move), {} commits, {} reads, digest {}\n",
        sweep.fault_runs,
        sweep.fault_moved,
        sweep.fault_released,
        sweep.fault_reads,
        sweep.fault_digest
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_deterministic() {
        let a = cell(9, PlacementKind::Hash, ShipScheme::Ba);
        let b = cell(9, PlacementKind::Hash, ShipScheme::Ba);
        assert_eq!(a, b);
        assert_eq!(a.released, u64::from(SHARDS) * COMMITS_PER_SHARD);
    }

    #[test]
    fn sweep_shape_and_gate_hold() {
        let sweep = run();
        assert_eq!(sweep.rows.len(), NODE_COUNTS.len() * 2 * 2);
        assert_eq!(sweep.fault_runs, FAULT_PLANS * 2 * 3);
        assert!(sweep.fault_moved > 0);
        let summary = gate(&sweep).expect("the read floor holds on this model");
        assert!(summary.contains("passed"));
        // A fleet whose BA follower reads lose to block must fail the gate.
        let mut slow = sweep;
        let block_p99 = slow.rows[1].read_p99_us;
        slow.rows[0].read_p99_us = block_p99;
        let violation = gate(&slow).expect_err("ba !< block is a violation");
        assert!(violation.contains("9 nodes (hash)"), "{violation}");
    }
}
