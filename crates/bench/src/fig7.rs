//! Fig 7 — read/write latency versus request size (8 B – 4 KiB).

use serde::{Deserialize, Serialize};
use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_workloads::fio;

use crate::Table;

/// One request size's latencies, microseconds. Block columns mirror the
/// paper's DC-SSD/ULL-SSD series; byte-path columns mirror 2B-SSD's MMIO,
/// persistent MMIO, and read-DMA series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Request size in bytes.
    pub size: u64,
    /// DC-SSD block read.
    pub dc_read_us: f64,
    /// ULL-SSD block read (2B-SSD block reads are identical, §V-A).
    pub ull_read_us: f64,
    /// 2B-SSD MMIO read (8-byte non-posted TLPs).
    pub mmio_read_us: f64,
    /// 2B-SSD read through the read-DMA engine.
    pub dma_read_us: f64,
    /// DC-SSD block write.
    pub dc_write_us: f64,
    /// ULL-SSD block write.
    pub ull_write_us: f64,
    /// 2B-SSD MMIO write (write-combined posted TLPs).
    pub mmio_write_us: f64,
    /// 2B-SSD persistent MMIO write (including `BA_SYNC`).
    pub persistent_mmio_write_us: f64,
}

const ITERS: u64 = 8;
/// Idle gap between probes so device queues fully drain.
const GAP: SimDuration = SimDuration::from_millis(1);

/// Mean block read/write latency of `cfg` at QD1 for `size`-byte requests
/// (rounded up to pages, as block I/O requires). Random offsets defeat the
/// read-ahead heuristic, matching FIO's random profile.
pub(crate) fn block_latencies(cfg: SsdConfig, size: u64) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.small());
    let pages = fio::pages_for(size);
    let mut t = SimTime::ZERO;
    // Populate a strided set of LBAs (stride breaks sequential detection).
    let lbas: Vec<u64> = (0..ITERS).map(|i| (i * 17) % 200).collect();
    for &lba in &lbas {
        t = ssd
            .write(t, Lba(lba), &vec![0xA5u8; 4096 * pages as usize])
            .expect("populate");
    }
    t = ssd.flush(t);
    let mut write_total = SimDuration::ZERO;
    for &lba in &lbas {
        t += GAP;
        let ack = ssd
            .write(t, Lba(lba), &vec![0x5Au8; 4096 * pages as usize])
            .expect("probe write");
        write_total += ack.saturating_since(t);
        t = ack;
    }
    let mut read_total = SimDuration::ZERO;
    for &lba in &lbas {
        t += GAP;
        let read = ssd.read(t, Lba(lba), pages).expect("probe read");
        read_total += read.complete_at.saturating_since(t);
        t = read.complete_at;
    }
    (
        read_total.as_micros_f64() / ITERS as f64,
        write_total.as_micros_f64() / ITERS as f64,
    )
}

/// Mean byte-path latencies of the 2B-SSD for `size`-byte requests:
/// `(mmio_read, dma_read, mmio_write, persistent_mmio_write)`.
fn byte_latencies(size: u64) -> (f64, f64, f64, f64) {
    let mut dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
    let eid = EntryId(0);
    let mut t = SimTime::ZERO;
    let pin = dev.ba_pin(t, eid, 0, Lba(0), 1).expect("pin probe page");
    t = pin.complete_at;
    let mut mmio_read = SimDuration::ZERO;
    let mut dma_read = SimDuration::ZERO;
    let mut mmio_write = SimDuration::ZERO;
    let mut persistent = SimDuration::ZERO;
    let len = size.min(4096);
    let data = vec![0xC3u8; len as usize];
    for _ in 0..ITERS {
        t += GAP;
        let store = dev.mmio_write(t, eid, 0, &data).expect("mmio write");
        mmio_write += store.retired_at.saturating_since(t);
        // Persistent write = fresh store + range sync, measured as one op.
        let t2 = store.retired_at + GAP;
        let store2 = dev.mmio_write(t2, eid, 0, &data).expect("mmio write");
        let sync = dev
            .ba_sync_range(store2.retired_at, eid, 0, len)
            .expect("ba_sync");
        persistent += sync.complete_at.saturating_since(t2);
        let t3 = sync.complete_at + GAP;
        let read = dev.mmio_read(t3, eid, 0, len).expect("mmio read");
        mmio_read += read.complete_at.saturating_since(t3);
        let t4 = read.complete_at + GAP;
        let dma = dev.ba_read_dma(t4, eid, 0, len).expect("dma read");
        dma_read += dma.complete_at.saturating_since(t4);
        t = dma.complete_at;
    }
    let n = ITERS as f64;
    (
        mmio_read.as_micros_f64() / n,
        dma_read.as_micros_f64() / n,
        mmio_write.as_micros_f64() / n,
        persistent.as_micros_f64() / n,
    )
}

/// Regenerates both panels of Fig 7.
pub fn run() -> Vec<Fig7Row> {
    fio::latency_request_sizes()
        .into_iter()
        .map(|size| {
            let (dc_read, dc_write) = block_latencies(SsdConfig::dc_ssd(), size);
            let (ull_read, ull_write) = block_latencies(SsdConfig::ull_ssd(), size);
            let (mmio_read, dma_read, mmio_write, persistent) = byte_latencies(size);
            Fig7Row {
                size,
                dc_read_us: dc_read,
                ull_read_us: ull_read,
                mmio_read_us: mmio_read,
                dma_read_us: dma_read,
                dc_write_us: dc_write,
                ull_write_us: ull_write,
                mmio_write_us: mmio_write,
                persistent_mmio_write_us: persistent,
            }
        })
        .collect()
}

/// Renders the two panels as the tables the paper plots.
pub(crate) fn render(rows: &[Fig7Row]) -> String {
    let reads = Table::new(rows)
        .col("size(B)", |r| r.size)
        .col("DC-SSD", |r| format!("{:.1}", r.dc_read_us))
        .col("ULL-SSD", |r| format!("{:.1}", r.ull_read_us))
        .col("MMIO", |r| format!("{:.1}", r.mmio_read_us))
        .col("read-DMA", |r| format!("{:.1}", r.dma_read_us));
    let writes = Table::new(rows)
        .col("size(B)", |r| r.size)
        .col("DC-SSD", |r| format!("{:.1}", r.dc_write_us))
        .col("ULL-SSD", |r| format!("{:.1}", r.ull_write_us))
        .col("MMIO", |r| format!("{:.2}", r.mmio_write_us))
        .col("MMIO+sync", |r| {
            format!("{:.2}", r.persistent_mmio_write_us)
        });
    format!(
        "Fig 7(a): read latency vs request size (us)\n\n{reads}\n\
         Fig 7(b): write latency vs request size (us)\n\n{writes}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_matches_paper() {
        let rows = run();
        let at = |size: u64| *rows.iter().find(|r| r.size == size).unwrap();

        // 4 KiB anchors (paper: DC ≈ 83, ULL ≈ 13.2, MMIO ≈ 150, DMA ≈ 58,
        // writes 17 / 10 / ~2 / ~3).
        let r4k = at(4096);
        assert!((70.0..95.0).contains(&r4k.dc_read_us), "{r4k:?}");
        assert!((11.0..16.0).contains(&r4k.ull_read_us), "{r4k:?}");
        assert!((140.0..160.0).contains(&r4k.mmio_read_us), "{r4k:?}");
        assert!((52.0..64.0).contains(&r4k.dma_read_us), "{r4k:?}");
        assert!((15.0..20.0).contains(&r4k.dc_write_us), "{r4k:?}");
        assert!((8.0..12.0).contains(&r4k.ull_write_us), "{r4k:?}");
        assert!((1.7..2.4).contains(&r4k.mmio_write_us), "{r4k:?}");
        assert!(
            r4k.persistent_mmio_write_us > r4k.mmio_write_us
                && r4k.persistent_mmio_write_us < r4k.mmio_write_us * 1.6,
            "{r4k:?}"
        );

        // 8-byte MMIO write ≈ 630 ns; persistent ≈ +15 %.
        let r8 = at(8);
        assert!((0.55..0.75).contains(&r8.mmio_write_us), "{r8:?}");
        let overhead = r8.persistent_mmio_write_us / r8.mmio_write_us;
        assert!((1.05..1.35).contains(&overhead), "{r8:?}");

        // Crossovers: MMIO read beats ULL below ~350 B and loses above;
        // beats DC below ~2 KiB and loses above.
        assert!(at(256).mmio_read_us < at(256).ull_read_us);
        assert!(at(512).mmio_read_us > at(512).ull_read_us);
        assert!(at(1024).mmio_read_us < at(1024).dc_read_us);
        assert!(at(4096).mmio_read_us > at(4096).dc_read_us);

        // Read-DMA beats MMIO from 2 KiB (paper §III-A3) but never beats
        // ULL block reads.
        assert!(at(1024).dma_read_us > at(1024).mmio_read_us);
        assert!(at(2048).dma_read_us < at(2048).mmio_read_us);
        for row in &rows {
            assert!(row.dma_read_us > row.ull_read_us, "{row:?}");
        }

        // Block latencies are flat across sub-page sizes.
        assert!((at(8).ull_read_us - at(2048).ull_read_us).abs() < 1.0);
    }
}
