//! Replication sweep: what does BA-WAL buy a *replicated* deployment?
//!
//! The paper evaluates a single node, where BA-WAL's win is the commit
//! path's flush latency. In a replica set the client-visible commit
//! latency is governed by log shipping and quorum acknowledgement, so the
//! natural question is how much of the byte-path advantage survives once a
//! network sits between durability and release. This sweep runs a
//! three-node [`twob_repl::ReplicaSet`] (one primary, two extra replicas
//! is the smallest quorum-bearing shape) across:
//!
//! - **commit policy** — `async` (release at local durability),
//!   `semisync:2` (a majority quorum), `sync` (every replica);
//! - **round-trip time** — 10 µs (rack-local), 50 µs (datacenter),
//!   200 µs (cross-zone);
//! - **ship scheme** — `ba` (tail read-out over `BA_READ_DMA`) vs
//!   `block` (block reads of the flushed log region).
//!
//! Every cell replays the same seeded MiniRocks commit stream, so cells
//! differ only in policy, link, and log scheme. A cell records the
//! replication invariants it broke instead of stopping at one; the gate
//! fails on the first such cell and names it.

use serde::{Deserialize, Serialize};
use twob_repl::{CommitPolicy, NetLinkConfig, ReplConfig, ReplicaSet, ShipScheme};

use crate::registry::{violation_free, Verdict};
use crate::Table;

/// Round-trip times the sweep visits, in microseconds.
pub const RTTS_US: [u64; 3] = [10, 50, 200];

/// Commit policies the sweep visits.
pub const POLICIES: [CommitPolicy; 3] = [
    CommitPolicy::Async,
    CommitPolicy::SemiSync(2),
    CommitPolicy::Sync,
];

/// Seed shared by every cell, so they replay identical commit streams.
pub const SEED: u64 = 73;

/// Commits per cell — enough for stable percentiles, small enough that
/// the block-WAL log region never wraps mid-run.
pub const COMMITS: u64 = 80;

/// One `(policy, rtt, scheme)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Commit policy label (`"async"`, `"semisync:2"`, `"sync"`).
    pub policy: String,
    /// Link round-trip time, µs.
    pub rtt_us: u64,
    /// Ship scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Commits released to the client.
    pub released: u64,
    /// Median client-visible commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile client-visible commit latency, µs.
    pub p99_us: f64,
    /// Mean client-visible commit latency, µs.
    pub mean_us: f64,
    /// Released commits per second of virtual time.
    pub commits_per_sec: f64,
    /// Ship batches put on the wire.
    pub ship_batches: u64,
    /// Records those batches carried.
    pub ship_records: u64,
    /// Every replication invariant the run broke.
    pub violations: Vec<String>,
}

impl Row {
    /// The cell's name: `policy/RTTus/scheme`.
    fn name(&self) -> String {
        format!("{}/{}us/{}", self.policy, self.rtt_us, self.scheme)
    }
}

/// Runs one cell on a fresh replica set.
pub fn cell(policy: CommitPolicy, rtt_us: u64, scheme: ShipScheme) -> Row {
    let cfg = ReplConfig {
        scheme,
        policy,
        link: NetLinkConfig::from_rtt_us(rtt_us),
        seed: SEED,
        commits: COMMITS,
        ..ReplConfig::default()
    };
    let report = ReplicaSet::new(cfg).expect("valid sweep cell").run_steady();
    Row {
        policy: policy.to_string(),
        rtt_us,
        scheme: scheme.to_string(),
        released: report.released,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        mean_us: report.mean_us,
        commits_per_sec: report.commits_per_sec,
        ship_batches: report.ship_batches,
        ship_records: report.ship_records,
        violations: report.violations,
    }
}

/// Runs the full sweep: every policy at every RTT under both schemes.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for policy in POLICIES {
        for &rtt_us in &RTTS_US {
            for scheme in ShipScheme::ALL {
                rows.push(cell(policy, rtt_us, scheme));
            }
        }
    }
    rows
}

/// The gate: every cell of the grid ran, kept the replication
/// invariants, and released all [`COMMITS`]. The fault-free cells must
/// always converge.
///
/// # Errors
///
/// The first cell that does not hold, by name.
pub fn gate(rows: &[Row]) -> Verdict {
    let cells = POLICIES.len() * RTTS_US.len() * ShipScheme::ALL.len();
    if rows.len() != cells {
        return Err(format!("{} of {cells} cells ran", rows.len()));
    }
    for row in rows {
        violation_free(&row.name(), &row.violations)?;
        if row.released != COMMITS {
            return Err(format!(
                "{}: released {} of {COMMITS} commits",
                row.name(),
                row.released
            ));
        }
    }
    Ok(format!(
        "replication gate passed: 0 violations, {COMMITS} commits released in each of {cells} cells"
    ))
}

/// Renders the per-cell table under the sweep's parameters, then one line
/// per violation.
pub(crate) fn render(rows: &[Row]) -> String {
    let table = Table::new(rows)
        .col("policy", |r| r.policy.clone())
        .col("rtt us", |r| r.rtt_us)
        .col("ship", |r| r.scheme.clone())
        .col("released", |r| r.released)
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("mean us", |r| format!("{:.2}", r.mean_us))
        .col("commit/s", |r| format!("{:.0}", r.commits_per_sec))
        .col("batches", |r| r.ship_batches)
        .col("records", |r| r.ship_records);
    let mut out = format!(
        "Replication sweep: 3-node set, MiniRocks commit stream \
         (seed {SEED}, {COMMITS} commits per cell)\n\n{table}"
    );
    for row in rows {
        for violation in &row.violations {
            out += &format!("{} violation: {violation}\n", row.name());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [Row], policy: &str, rtt_us: u64, scheme: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.policy == policy && r.rtt_us == rtt_us && r.scheme == scheme)
            .expect("cell present")
    }

    #[test]
    fn one_cell_is_deterministic() {
        let a = cell(CommitPolicy::SemiSync(2), 50, ShipScheme::Ba);
        let b = cell(CommitPolicy::SemiSync(2), 50, ShipScheme::Ba);
        assert_eq!(a, b);
    }

    #[test]
    fn a_doctored_cell_fails_the_gate_and_is_named() {
        let rows = run();
        assert!(gate(&rows).is_ok(), "{:?}", gate(&rows));
        let mut broken = rows.clone();
        broken[3]
            .violations
            .push("acknowledged commit 7 lost".into());
        assert_eq!(
            gate(&broken).unwrap_err(),
            "async/50us/block: 1 violation(s), the first: acknowledged commit 7 lost"
        );
        assert!(
            render(&broken).contains("async/50us/block violation: acknowledged commit 7 lost\n")
        );
        let mut short = rows.clone();
        short[0].released -= 1;
        assert_eq!(
            gate(&short).unwrap_err(),
            "async/10us/ba: released 79 of 80 commits"
        );
        assert_eq!(gate(&rows[1..]).unwrap_err(), "17 of 18 cells ran");
    }

    #[test]
    fn sweep_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), POLICIES.len() * RTTS_US.len() * 2);
        for r in &rows {
            assert_eq!(r.released, COMMITS, "{r:?}");
        }
        for scheme in ["ba", "block"] {
            // Quorum release costs at least one round trip over async...
            for &rtt in &RTTS_US {
                let a = find(&rows, "async", rtt, scheme);
                let semi = find(&rows, "semisync:2", rtt, scheme);
                let sync = find(&rows, "sync", rtt, scheme);
                assert!(a.p50_us < semi.p50_us, "{scheme}/{rtt}: async !< semi");
                assert!(semi.p50_us <= sync.p50_us, "{scheme}/{rtt}: semi !<= sync");
            }
            // ...and the RTT, not the local flush, dominates quorum p50.
            let near = find(&rows, "semisync:2", 10, scheme);
            let far = find(&rows, "semisync:2", 200, scheme);
            assert!(
                far.p50_us - near.p50_us > 150.0,
                "{scheme}: 190us of RTT moved p50 only {} -> {}",
                near.p50_us,
                far.p50_us
            );
        }
    }
}
