//! Experiment harness for the 2B-SSD reproduction.
//!
//! Each module regenerates one table or figure of the paper's evaluation
//! (§V) as plain data structures, so the runner can print them and the
//! integration tests can assert their *shape* — who wins, by roughly what
//! factor, and where the crossovers fall. EXPERIMENTS.md records the
//! paper-vs-measured comparison.
//!
//! | Paper artifact | Module | Study |
//! |---|---|---|
//! | Table I (spec) | [`mod@table1`] | `table1_spec` |
//! | Fig 7 (latency vs size) | [`mod@fig7`] | `fig7_latency` |
//! | Fig 8 (bandwidth vs size) | [`mod@fig8`] | `fig8_bandwidth` |
//! | Fig 9 (application throughput) | [`mod@fig9`] | `fig9_apps` |
//! | Fig 10 (heterogeneous memory) | [`mod@fig10`] | `fig10_hetero` |
//! | §V-C commit-overhead claim | [`mod@commit_cost`] | `commit_cost` |
//! | Design ablations | [`mod@ablations`] | `ablations` |
//! | QD extension of Fig 8 | [`mod@qd_sweep`] | `qd_sweep` |
//! | GC interference study | [`mod@gc_interference`] | `gc_interference` |
//! | Multi-tenant sweep of §V co-location | [`mod@tenant_sweep`] | `tenant_sweep` |
//! | Open-loop serving knee (beyond the paper) | [`mod@serve_sweep`] | `serve_sweep` |
//! | Replication sweep (beyond the paper) | [`mod@repl_sweep`] | `repl_sweep` |
//! | Cluster sweep (beyond the paper) | [`mod@cluster_sweep`] | `cluster_sweep` |
//! | BA/CXL/block tier sweep (beyond the paper) | [`mod@tier_sweep`] | `tier_sweep` |
//! | Crash, failover and fleet-cut guarantees | [`mod@fault_sweep`] | `fault_sweep` |
//!
//! [`registry`] holds the one table of studies that the `twob` binary
//! (`twob <study>… | all | list | regen`), the golden tests and CI read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cluster_sweep;
pub mod commit_cost;
pub mod fault_sweep;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gc_interference;
pub mod qd_sweep;
pub mod registry;
pub mod repl_sweep;
pub mod serve_sweep;
pub mod table1;
pub mod tenant_sweep;
pub mod tier_sweep;

use std::fmt;

use twob_workloads::{ServeConfig, ServeReport, ServiceDriver, ShardDrive};

/// Serializes a report value for a `json:` line (and so its fixture).
pub fn to_json<T: fmt::Debug + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("the Debug-to-JSON translator is total")
}

/// A simple aligned text table over `rows`, built one column at a time
/// and rendered by `Display`: a header row, a rule, then one line per
/// row, every line newline-terminated.
#[derive(Debug)]
pub struct Table<'a, T> {
    rows: &'a [T],
    columns: Vec<(&'a str, Vec<String>)>,
}

impl<'a, T> Table<'a, T> {
    /// A table of `rows` with no columns yet.
    pub fn new(rows: &'a [T]) -> Self {
        Table {
            rows,
            columns: Vec::new(),
        }
    }

    /// Appends a right-aligned column: its header and each row's cell.
    #[must_use]
    pub fn col<D: fmt::Display>(mut self, header: &'a str, cell: impl Fn(&T) -> D) -> Self {
        let cells = self.rows.iter().map(|row| cell(row).to_string()).collect();
        self.columns.push((header, cells));
        self
    }
}

impl<T> fmt::Display for Table<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths: Vec<usize> = self
            .columns
            .iter()
            .map(|(header, cells)| cells.iter().fold(header.len(), |w, c| w.max(c.len())))
            .collect();
        let line = |cells: Vec<&str>| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, &width)| format!("{cell:>width$}"))
                .collect();
            padded.join("  ")
        };
        writeln!(f, "{}", line(self.columns.iter().map(|c| c.0).collect()))?;
        let rule = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "{}", "-".repeat(rule))?;
        (0..self.rows.len()).try_for_each(|i| {
            let cells = self.columns.iter().map(|c| c.1[i].as_str()).collect();
            writeln!(f, "{}", line(cells))
        })
    }
}

/// Serves `cfg`'s fleet on the sharded device model under every drive
/// (lock-step, adaptive, parallel 2 and 4) at each `groups`→shard-count
/// placement in `shards`, and demands agreement: whole-report equality
/// across the drives of one placement, one `(digest, completed)` pair
/// across placements. Returns the agreeing drive labels and the first
/// placement's report.
///
/// # Panics
///
/// Panics if any drive or placement diverges or clamps a post into the
/// past — a determinism bug in the sharded executor, not a measurement.
pub fn sharded_agreement(
    cfg: &ServeConfig,
    groups: usize,
    shards: &[usize],
) -> (Vec<String>, ServeReport) {
    let drives = [
        ShardDrive::Lockstep,
        ShardDrive::Adaptive,
        ShardDrive::Parallel(2),
        ShardDrive::Parallel(4),
    ];
    let mut first: Option<ServeReport> = None;
    for &shard_count in shards {
        let reports = drives
            .map(|drive| ServiceDriver::serve_sharded_placed(cfg, groups, shard_count, drive));
        for (report, drive) in reports.iter().zip(drives) {
            let at = format!(
                "{} {} drive on {shard_count} shards",
                report.scheme,
                drive.label()
            );
            assert_eq!(report.clamped_posts, 0, "{at} clamped");
            assert_eq!(*report, reports[0], "{at} diverged from lock-step");
        }
        let [lockstep, ..] = reports;
        match &first {
            Some(base) => assert_eq!(
                (lockstep.digest, lockstep.completed),
                (base.digest, base.completed),
                "{} placement on {shard_count} shards diverged",
                lockstep.scheme
            ),
            None => first = Some(lockstep),
        }
    }
    let labels = drives.map(ShardDrive::label).to_vec();
    (labels, first.expect("at least one placement"))
}
