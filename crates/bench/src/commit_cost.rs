//! §V-C — the commit-path overhead reduction (paper: "up to 26×").

use serde::{Deserialize, Serialize};
use twob_sim::SimTime;
use twob_wal::{WalStats, WalWriter};

use crate::fig9::{make_wal, BaLayout, LogKind};

use crate::Table;

/// Mean commit-path cost per scheme, for one record size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitCostRow {
    /// Record payload size in bytes.
    pub payload: usize,
    /// Mean commit cost on DC-SSD (sync), microseconds.
    pub dc_us: f64,
    /// Mean commit cost on ULL-SSD (sync), microseconds.
    pub ull_us: f64,
    /// Mean commit cost with BA commit on 2B-SSD, microseconds.
    pub ba_us: f64,
    /// DC / BA reduction factor.
    pub reduction_vs_dc: f64,
    /// ULL / BA reduction factor.
    pub reduction_vs_ull: f64,
}

fn mean_commit_us(mut wal: Box<dyn WalWriter>, payload: usize, commits: u64) -> (f64, WalStats) {
    let mut t = SimTime::from_nanos(1_000_000);
    let body = vec![0x61u8; payload];
    for _ in 0..commits {
        t = wal.append_commit(t, &body).expect("commit").commit_at;
    }
    let stats = wal.stats();
    (stats.mean_commit_cost().as_micros_f64(), stats)
}

/// Measures commit costs for several record sizes.
pub fn run() -> Vec<CommitCostRow> {
    let commits = 2_000;
    [64usize, 256, 1024]
        .into_iter()
        .map(|payload| {
            let (dc_us, _) =
                mean_commit_us(make_wal(LogKind::Dc, BaLayout::Halves), payload, commits);
            let (ull_us, _) =
                mean_commit_us(make_wal(LogKind::Ull, BaLayout::Halves), payload, commits);
            let (ba_us, _) =
                mean_commit_us(make_wal(LogKind::TwoB, BaLayout::Halves), payload, commits);
            CommitCostRow {
                payload,
                dc_us,
                ull_us,
                ba_us,
                reduction_vs_dc: dc_us / ba_us,
                reduction_vs_ull: ull_us / ba_us,
            }
        })
        .collect()
}

/// Renders the per-scheme costs and reduction factors.
pub(crate) fn render(rows: &[CommitCostRow]) -> String {
    let table = Table::new(rows)
        .col("payload(B)", |r| r.payload)
        .col("DC sync", |r| format!("{:.1}", r.dc_us))
        .col("ULL sync", |r| format!("{:.1}", r.ull_us))
        .col("BA commit", |r| format!("{:.2}", r.ba_us))
        .col("vs DC", |r| format!("{:.1}x", r.reduction_vs_dc))
        .col("vs ULL", |r| format!("{:.1}x", r.reduction_vs_ull));
    format!("Commit-path cost per scheme (us) and reduction factors\n\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_overhead_reduction_matches_paper() {
        let rows = run();
        // Paper §V-C: logging overhead reduced by up to 26× versus block
        // logging. Our smallest records should land in the tens.
        let best = rows
            .iter()
            .map(|r| r.reduction_vs_dc)
            .fold(0.0f64, f64::max);
        assert!((10.0..40.0).contains(&best), "best reduction {best}");
        for r in &rows {
            assert!(r.ba_us < r.ull_us && r.ull_us < r.dc_us, "{r:?}");
            assert!(r.reduction_vs_dc > r.reduction_vs_ull, "{r:?}");
        }
        // Reduction shrinks as records grow (the byte path scales with
        // size, the block path does not).
        assert!(rows[0].reduction_vs_dc > rows[2].reduction_vs_dc);
    }
}
