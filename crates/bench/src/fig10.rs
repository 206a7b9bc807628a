//! Fig 10 — hybrid store (2B-SSD) versus heterogeneous memory (PM + SSD).

use serde::{Deserialize, Serialize};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{PmWal, WalConfig, WalWriter};
use twob_workloads::EngineKind;

use crate::fig9::{make_wal, throughput, BaLayout, LogKind};
use crate::Table;

/// Normalized Linkbench throughput of the four Fig 10 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig10Report {
    /// Absolute baseline throughput (2B-SSD hybrid store), txns/s.
    pub baseline_tps: f64,
    /// PM + DC-SSD, normalized to baseline.
    pub pm_dc: f64,
    /// PM + ULL-SSD, normalized to baseline.
    pub pm_ull: f64,
    /// Asynchronous commit, normalized to baseline.
    pub async_max: f64,
}

fn pm_wal(cfg: SsdConfig) -> Box<dyn WalWriter> {
    // The PM buffer matches the BA-buffer of the test device: two halves
    // of 8 pages, like the PostgreSQL BA-WAL layout.
    Box::new(PmWal::new(Ssd::new(cfg.small()), WalConfig::default(), 8).expect("pm wal"))
}

/// Regenerates Fig 10. `quick` runs a reduced transaction count.
pub fn run(quick: bool) -> Fig10Report {
    let txns = if quick { 4_000 } else { 20_000 };
    let run_pg = |wal| throughput(EngineKind::Pg, wal, 0, txns, 45);
    let baseline = run_pg(make_wal(LogKind::TwoB, BaLayout::Halves));
    let pm_dc = run_pg(pm_wal(SsdConfig::dc_ssd()));
    let pm_ull = run_pg(pm_wal(SsdConfig::ull_ssd()));
    let async_max = run_pg(make_wal(LogKind::Async, BaLayout::Halves));
    Fig10Report {
        baseline_tps: baseline,
        pm_dc: pm_dc / baseline,
        pm_ull: pm_ull / baseline,
        async_max: async_max / baseline,
    }
}

/// Renders the normalized comparison and the absolute baseline.
pub(crate) fn render(r: &Fig10Report) -> String {
    let rows = [
        ("baseline (2B-SSD)", 1.0),
        ("PM + DC-SSD", r.pm_dc),
        ("PM + ULL-SSD", r.pm_ull),
        ("ASYNC", r.async_max),
    ];
    let table = Table::new(&rows)
        .col("configuration", |r| r.0)
        .col("normalized throughput", |r| format!("{:.3}", r.1));
    format!(
        "Fig 10: normalized Linkbench throughput (baseline = 2B-SSD)\n\n{table}\n\
         baseline absolute: {:.0} txns/s\n",
        r.baseline_tps
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_shape_matches_paper() {
        let r = run(true);
        // Paper: baseline, PM+DC (−0.6 %), PM+ULL (+0.4 %), and ASYNC all
        // report "almost identical performance".
        assert!(
            (0.93..=1.08).contains(&r.pm_dc),
            "PM+DC diverged from baseline: {r:?}"
        );
        assert!(
            (0.93..=1.08).contains(&r.pm_ull),
            "PM+ULL diverged from baseline: {r:?}"
        );
        assert!(
            (0.95..=1.10).contains(&r.async_max),
            "ASYNC diverged from baseline: {r:?}"
        );
        // PM+ULL is never slower than PM+DC (its flushes are cheaper).
        assert!(r.pm_ull >= r.pm_dc * 0.999, "{r:?}");
        assert!(r.baseline_tps > 0.0);
    }
}
