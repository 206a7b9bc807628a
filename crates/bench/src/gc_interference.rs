//! GC interference study: block-path tail latency collapses under churn
//! while the byte path stays flat (the Fig 7/8 asymmetry, under load).
//!
//! The paper's microbenchmarks (Figs 7–8) measure an idle drive; the
//! interesting case for a *dual* interface is a busy one. This experiment
//! fills the drive, then runs seeded 80/20 overwrite churn through the
//! block path with background GC enabled, probing both paths in every
//! window:
//!
//! - block writes ack at write-cache insertion, so GC interference shows
//!   up as *slot wait* — the destage that frees a slot queues behind GC
//!   page moves on the same dies;
//! - block reads schedule NAND sense ops directly, so their completions
//!   carry an explicit `gc_wait` attribution;
//! - BA-path commits (`MMIO store + BA_SYNC`) touch only the PCIe link and
//!   the BA-buffer DRAM, and must not move at all.
//!
//! Each window reports the free-block ratio and cumulative GC counters, so
//! the latency knee lines up with the moment the pool crosses the GC
//! watermark.

use serde::{Deserialize, Serialize};
use twob_core::{TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{Histogram, SimTime};
use twob_ssd::{BlockDevice, GcPolicy, SsdConfig};
use twob_workloads::{ChurnConfig, ChurnWorkload};

use crate::Table;

/// One measurement window of the churn drive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcWindowRow {
    /// Window index (fill windows first, then churn).
    pub window: usize,
    /// `"fill"` or `"churn"`.
    pub phase: String,
    /// Free blocks / total blocks at window start.
    pub free_ratio: f64,
    /// Block-path write ack latency, median, in microseconds.
    pub blk_write_p50_us: f64,
    /// Block-path write ack latency, 99th percentile, in microseconds.
    pub blk_write_p99_us: f64,
    /// Block-path read latency, 99th percentile, in microseconds.
    pub blk_read_p99_us: f64,
    /// Mean fraction of read-probe time attributed to GC occupancy.
    pub read_gc_share: f64,
    /// BA-path commit (MMIO store + `BA_SYNC`) latency, 99th percentile,
    /// in microseconds.
    pub ba_p99_us: f64,
    /// Cumulative GC page moves at window end.
    pub gc_pages_moved: u64,
    /// Cumulative block erases at window end.
    pub gc_erases: u64,
}

/// Writes per measurement window.
pub const WINDOW_WRITES: u64 = 64;

/// Overwrite churn issued after the fill, in writes.
pub const CHURN_WRITES: u64 = 1536;

/// Seed of the churn stream.
pub const CHURN_SEED: u64 = 0x2B_55D;

/// Bytes committed through the byte path per probe.
const BA_PROBE_BYTES: usize = 64;

fn us(d: twob_sim::SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Runs the study: fill, then churn, with both paths probed per window.
pub fn run() -> Vec<GcWindowRow> {
    let cfg = SsdConfig::base_2b()
        .small()
        .with_background_gc(GcPolicy::Greedy);
    let geom = cfg.geometry;
    let total_blocks = geom.blocks_total();
    let mut dev = TwoBSsd::new(cfg, TwoBSpec::small_for_tests());
    let lbas = dev.capacity_pages();

    // Pin one page at the top of LBA space for the byte-path probe; the
    // churn stream below never touches it (block writes there are gated).
    let (eid, pin) = dev
        .ba_pin_auto(SimTime::ZERO, Lba(lbas - 1), 1)
        .expect("pin BA probe page");
    let mut t = pin.complete_at;

    let churn_lbas = lbas - 1;
    let mut workload = ChurnWorkload::new(ChurnConfig::skewed(churn_lbas, CHURN_SEED));
    let fill: Vec<Lba> = workload.fill_sequence().collect();
    let page_size = dev.page_size();

    let mut rows = Vec::new();
    let mut window = 0usize;
    let mut issued = 0u64;
    let total = fill.len() as u64 + CHURN_WRITES;
    while issued < total {
        let phase = if issued < fill.len() as u64 {
            "fill"
        } else {
            "churn"
        };
        let free_ratio = dev.ssd().ftl().free_blocks_now() as f64 / total_blocks as f64;
        let mut blk_writes = Histogram::new();
        let mut blk_reads = Histogram::new();
        let mut ba_commits = Histogram::new();
        let mut gc_share_sum = 0.0;
        let mut gc_share_n = 0u32;
        let end = (issued + WINDOW_WRITES).min(total);
        while issued < end {
            let lba = if (issued as usize) < fill.len() {
                fill[issued as usize]
            } else {
                workload.next_lba()
            };
            let data = workload.page_for(lba, page_size);

            // Byte-path commit probe at the write's issue instant: an MMIO
            // store into the pinned window plus a persistence-ordering sync.
            let store = dev
                .mmio_write(t, eid, 0, &data[..BA_PROBE_BYTES])
                .expect("BA probe store");
            let sync = dev
                .ba_sync_range(store.retired_at, eid, 0, BA_PROBE_BYTES as u64)
                .expect("BA probe sync");
            ba_commits.record(sync.complete_at.saturating_since(t));

            // The block write under test.
            let ack = dev.write_pages(t, lba, &data).expect("churn write");
            blk_writes.record(ack.saturating_since(t));
            t = ack;
            issued += 1;

            // A cold read probe every 8 writes: reads hit NAND, so their
            // breakdown carries the explicit GC-wait attribution.
            if issued.is_multiple_of(8) {
                // Stay behind the fill frontier while filling; once full,
                // probe half the address space away from the churn target.
                let cold = if (issued as usize) < fill.len() {
                    Lba(lba.0 / 2)
                } else {
                    Lba((lba.0 + churn_lbas / 2) % churn_lbas)
                };
                let read = dev.read_pages(t, cold, 1).expect("read probe");
                blk_reads.record(read.complete_at.saturating_since(t));
                gc_share_sum += read.breakdown.gc_share();
                gc_share_n += 1;
                t = read.complete_at;
            }
        }
        let stats = dev.ssd().ftl().stats();
        rows.push(GcWindowRow {
            window,
            phase: phase.to_string(),
            free_ratio,
            blk_write_p50_us: us(blk_writes.percentile(0.50)),
            blk_write_p99_us: us(blk_writes.percentile(0.99)),
            blk_read_p99_us: us(blk_reads.percentile(0.99)),
            read_gc_share: if gc_share_n == 0 {
                0.0
            } else {
                gc_share_sum / f64::from(gc_share_n)
            },
            ba_p99_us: us(ba_commits.percentile(0.99)),
            gc_pages_moved: stats.gc_writes,
            gc_erases: stats.erases,
        });
        window += 1;
    }
    rows
}

/// The GC-threshold free-block ratio of the study's device, for aligning
/// the latency knee with the pool crossing in reports.
pub fn gc_threshold_ratio() -> f64 {
    let cfg = SsdConfig::base_2b().small();
    f64::from(cfg.ftl.gc_low_watermark) / cfg.geometry.blocks_total() as f64
}

/// Renders the per-window table under its watermark headline.
pub(crate) fn render(rows: &[GcWindowRow]) -> String {
    let table = Table::new(rows)
        .col("win", |r| r.window)
        .col("phase", |r| r.phase.clone())
        .col("free", |r| format!("{:.3}", r.free_ratio))
        .col("wr p50", |r| format!("{:.1}", r.blk_write_p50_us))
        .col("wr p99", |r| format!("{:.1}", r.blk_write_p99_us))
        .col("rd p99", |r| format!("{:.1}", r.blk_read_p99_us))
        .col("gc shr", |r| format!("{:.2}", r.read_gc_share))
        .col("ba p99", |r| format!("{:.3}", r.ba_p99_us))
        .col("moved", |r| r.gc_pages_moved)
        .col("erases", |r| r.gc_erases);
    format!(
        "GC interference under 80/20 overwrite churn \
         (GC watermark at free ratio {:.3})\n\n{table}",
        gc_threshold_ratio()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<GcWindowRow> {
        run()
    }

    #[test]
    fn churn_at_least_doubles_block_write_tail() {
        let rows = rows();
        let fresh = rows
            .iter()
            .find(|r| r.phase == "fill")
            .expect("a fill window");
        let storm = rows
            .iter()
            .filter(|r| r.free_ratio <= gc_threshold_ratio())
            .map(|r| r.blk_write_p99_us)
            .fold(0.0f64, f64::max);
        assert!(
            storm >= 2.0 * fresh.blk_write_p99_us,
            "GC storm p99 {storm:.1}us should be at least 2x the fresh-drive \
             p99 {:.1}us",
            fresh.blk_write_p99_us
        );
    }

    #[test]
    fn ba_path_p99_stays_flat() {
        let rows = rows();
        let min = rows.iter().map(|r| r.ba_p99_us).fold(f64::MAX, f64::min);
        let max = rows.iter().map(|r| r.ba_p99_us).fold(0.0f64, f64::max);
        assert!(
            (max - min) / min < 0.05,
            "BA commit p99 moved more than 5%: {min:.3}us..{max:.3}us"
        );
    }

    #[test]
    fn gc_runs_and_is_attributed() {
        let rows = rows();
        let last = rows.last().unwrap();
        assert!(last.gc_erases > 0, "GC never erased a block");
        assert!(last.gc_pages_moved > 0, "GC never relocated a page");
        assert!(
            rows.iter().any(|r| r.read_gc_share > 0.0),
            "no read probe ever observed GC occupancy"
        );
    }

    #[test]
    fn free_pool_crosses_the_watermark() {
        let rows = rows();
        assert!(rows[0].free_ratio > gc_threshold_ratio());
        assert!(
            rows.iter().any(|r| r.free_ratio <= gc_threshold_ratio()),
            "churn never drove the pool below the GC watermark"
        );
    }

    #[test]
    fn study_is_deterministic() {
        assert_eq!(rows(), rows());
    }
}
