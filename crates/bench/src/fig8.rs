//! Fig 8 — bandwidth versus request size (4 KiB – 16 MiB) at QD1.

use serde::{Deserialize, Serialize};
use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{Ssd, SsdConfig};
use twob_workloads::fio;

use crate::Table;

/// One request size's bandwidths, MB/s. The 2B-SSD columns measure the
/// *internal* datapath — `BA_PIN` for reads, `BA_FLUSH` for writes — since
/// no host transfer is involved (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Request size in bytes.
    pub size: u64,
    /// ULL-SSD sequential block read.
    pub ull_read_mbs: f64,
    /// DC-SSD sequential block read (read-ahead assisted).
    pub dc_read_mbs: f64,
    /// 2B-SSD internal read (`BA_PIN`).
    pub twob_internal_read_mbs: f64,
    /// ULL-SSD sequential block write.
    pub ull_write_mbs: f64,
    /// DC-SSD sequential block write.
    pub dc_write_mbs: f64,
    /// 2B-SSD internal write (`BA_FLUSH`).
    pub twob_internal_write_mbs: f64,
}

/// Back-to-back requests per measurement.
const REQUESTS: u64 = 4;

/// A spec with a BA-buffer large enough to pin a whole 16 MiB request.
/// Table I's prototype has 8 MB; the paper's Fig 8 sweeps to 16 MB, which
/// requires this enlarged window (documented in EXPERIMENTS.md).
fn large_spec() -> TwoBSpec {
    TwoBSpec {
        ba_buffer_bytes: 32 << 20,
        ..TwoBSpec::default()
    }
}

fn bench_2b_config() -> SsdConfig {
    let mut cfg = SsdConfig::base_2b().bench_scale();
    // Reserved dump area for the enlarged buffer: (8192+1)/256 → 33 blocks.
    cfg.ftl.reserved_blocks = 34;
    cfg
}

/// Sequential block read/write bandwidth of `cfg` for `size`-byte requests.
fn block_bandwidth(cfg: SsdConfig, size: u64) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.bench_scale());
    let pages = fio::pages_for(size);
    let chunk = vec![0x33u8; (pages as usize) * 4096];
    // Write bandwidth: back-to-back sequential writes.
    let start = SimTime::ZERO;
    let mut t = start;
    for i in 0..REQUESTS {
        t = ssd
            .write(t, Lba(i * u64::from(pages)), &chunk)
            .expect("bw write");
    }
    let write_bytes = REQUESTS * u64::from(pages) * 4096;
    let write_mbs = t.saturating_since(start).bytes_per_sec(write_bytes) / 1e6;
    // Read bandwidth: back-to-back sequential reads of the same extent.
    let start_read = ssd.flush(t);
    let mut t = start_read;
    for i in 0..REQUESTS {
        let read = ssd
            .read(t, Lba(i * u64::from(pages)), pages)
            .expect("bw read");
        t = read.complete_at;
    }
    let read_mbs = t.saturating_since(start_read).bytes_per_sec(write_bytes) / 1e6;
    (read_mbs, write_mbs)
}

/// Internal-datapath bandwidth of the 2B-SSD for `size`-byte requests:
/// `(pin_read, flush_write)` in MB/s.
fn internal_bandwidth(size: u64) -> (f64, f64) {
    let mut dev = TwoBSsd::new(bench_2b_config(), large_spec());
    let pages = fio::pages_for(size);
    let eid = EntryId(0);
    // Populate the extent so BA_PIN reads real data.
    let chunk = vec![0x44u8; (pages as usize) * 4096];
    let mut t = SimTime::ZERO;
    {
        use twob_ssd::BlockDevice as _;
        t = dev.write_pages(t, Lba(0), &chunk).expect("populate");
        t = dev.flush(t);
    }
    // Alternate BA_PIN (internal read) and BA_FLUSH (internal write),
    // timing each phase separately.
    let mut pin_span = 0u64;
    let mut flush_span = 0u64;
    for _ in 0..REQUESTS {
        let pin = dev.ba_pin(t, eid, 0, Lba(0), pages).expect("bw pin");
        pin_span += pin.complete_at.saturating_since(t).as_nanos();
        t = pin.complete_at;
        let flush = dev.ba_flush(t, eid).expect("bw flush");
        flush_span += flush.complete_at.saturating_since(t).as_nanos();
        t = flush.complete_at;
    }
    let bytes = REQUESTS * u64::from(pages) * 4096;
    let read_mbs = bytes as f64 / (pin_span as f64 / 1e9) / 1e6;
    let write_mbs = bytes as f64 / (flush_span as f64 / 1e9) / 1e6;
    (read_mbs, write_mbs)
}

/// Regenerates both panels of Fig 8.
pub fn run() -> Vec<Fig8Row> {
    fio::bandwidth_request_sizes()
        .into_iter()
        .map(|size| {
            let (ull_read, ull_write) = block_bandwidth(SsdConfig::ull_ssd(), size);
            let (dc_read, dc_write) = block_bandwidth(SsdConfig::dc_ssd(), size);
            let (internal_read, internal_write) = internal_bandwidth(size);
            Fig8Row {
                size,
                ull_read_mbs: ull_read,
                dc_read_mbs: dc_read,
                twob_internal_read_mbs: internal_read,
                ull_write_mbs: ull_write,
                dc_write_mbs: dc_write,
                twob_internal_write_mbs: internal_write,
            }
        })
        .collect()
}

/// Renders the two panels as the tables the paper plots.
pub(crate) fn render(rows: &[Fig8Row]) -> String {
    let reads = Table::new(rows)
        .col("size", |r| format!("{}K", r.size >> 10))
        .col("ULL-SSD", |r| format!("{:.0}", r.ull_read_mbs))
        .col("DC-SSD", |r| format!("{:.0}", r.dc_read_mbs))
        .col("2B internal (BA_PIN)", |r| {
            format!("{:.0}", r.twob_internal_read_mbs)
        });
    let writes = Table::new(rows)
        .col("size", |r| format!("{}K", r.size >> 10))
        .col("ULL-SSD", |r| format!("{:.0}", r.ull_write_mbs))
        .col("DC-SSD", |r| format!("{:.0}", r.dc_write_mbs))
        .col("2B internal (BA_FLUSH)", |r| {
            format!("{:.0}", r.twob_internal_write_mbs)
        });
    format!(
        "Fig 8(a): read bandwidth vs request size (MB/s)\n\n{reads}\n\
         Fig 8(b): write bandwidth vs request size (MB/s)\n\n{writes}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_matches_paper() {
        let rows = run();
        let at = |size: u64| *rows.iter().find(|r| r.size == size).unwrap();
        let largest = at(16 << 20);

        // ULL saturates the PCIe Gen3 x4 interface (~3.2 GB/s) at QD1.
        assert!(
            (2_800.0..3_400.0).contains(&largest.ull_read_mbs),
            "{largest:?}"
        );
        assert!(
            (2_800.0..3_400.0).contains(&largest.ull_write_mbs),
            "{largest:?}"
        );
        // 2B internal peaks ~1 GB/s below ULL (paper: ~2.2 GB/s).
        assert!(
            (1_800.0..2_500.0).contains(&largest.twob_internal_read_mbs),
            "{largest:?}"
        );
        assert!(
            largest.ull_read_mbs - largest.twob_internal_read_mbs > 700.0,
            "{largest:?}"
        );
        // Write: 2B internal ≈ DC + ~700 MB/s.
        let gap = largest.twob_internal_write_mbs - largest.dc_write_mbs;
        assert!(
            (400.0..1_100.0).contains(&gap),
            "write gap {gap}: {largest:?}"
        );
        // Read: DC closes on (and passes) 2B internal at large sizes...
        assert!(largest.dc_read_mbs > largest.twob_internal_read_mbs * 0.9);
        // ...but loses badly at 4 KiB where its per-request latency bites.
        let small = at(4096);
        assert!(
            small.twob_internal_read_mbs > small.dc_read_mbs * 2.0,
            "{small:?}"
        );
        // Bandwidth grows with request size for every series.
        for pair in rows.windows(2) {
            assert!(pair[1].ull_read_mbs >= pair[0].ull_read_mbs * 0.9);
            assert!(pair[1].twob_internal_read_mbs >= pair[0].twob_internal_read_mbs * 0.9);
        }
    }
}
