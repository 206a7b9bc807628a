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
//! Every cell is fault-free. Each records the cluster guarantees it broke
//! and its stale cross-shard deliveries instead of stopping at one, and
//! the gate fails on the first such cell and names it. Cuts and live
//! moves are `fault_sweep`'s fleet row.

use serde::{Deserialize, Serialize};
use twob_repl::{Fleet, FleetConfig, PlacementKind, ShipScheme};

use crate::registry::{violation_free, Verdict};
use crate::Table;

/// Fleet sizes the sweep visits (all 3-zone layouts).
pub const NODE_COUNTS: [usize; 3] = [9, 12, 15];

/// Shards per fleet.
pub const SHARDS: u16 = 6;

/// Commits per shard in the clean cells.
pub const COMMITS_PER_SHARD: u64 = 8;

/// Seed shared by every cell.
pub const SEED: u64 = 0x2b5d;

/// One `(nodes, placement, scheme)` cell of the sweep.
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
    /// Stale cross-shard deliveries (a healthy fleet has none).
    pub clamped_posts: u64,
    /// Every cluster guarantee the run broke.
    pub violations: Vec<String>,
}

impl Row {
    /// The cell's name: `nodes/placement/scheme`.
    fn name(&self) -> String {
        format!("{}/{}/{}", self.nodes, self.placement, self.scheme)
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSweep {
    /// `(nodes, placement, scheme)` cells.
    pub rows: Vec<Row>,
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

/// Runs one cell.
pub fn cell(nodes: usize, placement: PlacementKind, scheme: ShipScheme) -> Row {
    let report = Fleet::new(cell_config(nodes, placement, scheme))
        .expect("valid sweep cell")
        .run();
    Row {
        nodes,
        placement: placement.to_string(),
        scheme: scheme.to_string(),
        released: report.released,
        reads: report.reads,
        commit_p50_us: report.commit_p50_us,
        read_p99_us: report.read_p99_us,
        clamped_posts: report.clamped_posts,
        violations: report.violations,
    }
}

/// Runs the full sweep: every node count under both placements and both
/// schemes.
pub fn run() -> ClusterSweep {
    let mut rows = Vec::new();
    for nodes in NODE_COUNTS {
        for placement in PlacementKind::ALL {
            for scheme in ShipScheme::ALL {
                rows.push(cell(nodes, placement, scheme));
            }
        }
    }
    ClusterSweep { rows }
}

/// The cluster gate: every cell kept the cluster guarantees with no
/// stale delivery; at every node count and placement, the BA hosts'
/// follower-read p99 must undercut the block hosts'; and the parallel
/// drive must reproduce the sequential observations exactly. Returns the
/// human-readable pass summary.
///
/// # Errors
///
/// Returns the first condition that does not hold, naming its cell.
pub fn gate(sweep: &ClusterSweep) -> Verdict {
    for row in &sweep.rows {
        violation_free(&row.name(), &row.violations)?;
        if row.clamped_posts > 0 {
            return Err(format!(
                "{}: {} stale cross-shard deliveries",
                row.name(),
                row.clamped_posts
            ));
        }
    }
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

/// Renders the cells, then one line per violation.
pub(crate) fn render(sweep: &ClusterSweep) -> String {
    let table = Table::new(&sweep.rows)
        .col("nodes", |r| r.nodes)
        .col("placement", |r| r.placement.clone())
        .col("ship", |r| r.scheme.clone())
        .col("released", |r| r.released)
        .col("reads", |r| r.reads)
        .col("commit p50 us", |r| format!("{:.2}", r.commit_p50_us))
        .col("read p99 us", |r| format!("{:.2}", r.read_p99_us));
    let mut out = format!(
        "Cluster sweep: {SHARDS} shards x {COMMITS_PER_SHARD} commits, 3-zone fleets \
         (seed {SEED:#x})\n\n{table}"
    );
    for row in &sweep.rows {
        for violation in &row.violations {
            out += &format!("{} violation: {violation}\n", row.name());
        }
    }
    out
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
        let summary = gate(&sweep).expect("the read floor holds on this model");
        assert!(summary.contains("passed"));
        // A cell that broke a guarantee, or delivered stale, fails by name.
        let mut broken = sweep.clone();
        broken.rows[5]
            .violations
            .push("acked commit 4 of shard 2 lost".into());
        assert_eq!(
            gate(&broken).unwrap_err(),
            "12/hash/block: 1 violation(s), the first: acked commit 4 of shard 2 lost"
        );
        assert!(
            render(&broken).contains("12/hash/block violation: acked commit 4 of shard 2 lost\n")
        );
        let mut stale = sweep.clone();
        stale.rows[2].clamped_posts = 3;
        assert_eq!(
            gate(&stale).unwrap_err(),
            "9/range/ba: 3 stale cross-shard deliveries"
        );
        // A fleet whose BA follower reads lose to block must fail the gate.
        let mut slow = sweep;
        let block_p99 = slow.rows[1].read_p99_us;
        slow.rows[0].read_p99_us = block_p99;
        let violation = gate(&slow).expect_err("ba !< block is a violation");
        assert!(violation.contains("9 nodes (hash)"), "{violation}");
    }
}
