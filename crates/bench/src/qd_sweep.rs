//! QD sweep — Fig 8's read panel extended beyond the paper's QD1 numbers.
//!
//! The paper measures its comparator drives at queue depth 1, where the
//! ULL-SSD already saturates PCIe Gen3 ×4 for large requests but small
//! requests leave the device mostly idle: one 4 KiB read occupies a
//! firmware core, one die, and one channel while seven channels sit dark.
//! With NVMe queue pairs ([`twob_ssd::NvmeSsd`]) the sweep re-runs the
//! request-size axis at QD ∈ {1, 4, 16, 64}, showing how deeper queues
//! overlap firmware fetch, NAND sensing, and host transfer across commands
//! until the bottleneck moves from per-request latency to a shared stage.

use serde::{Deserialize, Serialize};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{NvmeOp, NvmeSsd, QueueConfig, Ssd, SsdConfig};
use twob_workloads::{fio, ServiceDriver};

use crate::Table;

/// One (device, request size, queue depth) measurement of sequential reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QdRow {
    /// Device profile name (`"ULL-SSD"` or `"DC-SSD"`).
    pub device: String,
    /// Request size in bytes.
    pub size: u64,
    /// Queue depth (outstanding commands).
    pub qd: usize,
    /// Read bandwidth in MB/s.
    pub read_mbs: f64,
    /// Mean per-command latency in microseconds.
    pub mean_lat_us: f64,
    /// 99th-percentile per-command latency in microseconds.
    pub p99_lat_us: f64,
}

/// Queue depths swept.
pub const QUEUE_DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// Request sizes swept (4 KiB – 1 MiB).
pub fn request_sizes() -> Vec<u64> {
    vec![4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20]
}

/// Distinct extents the closed loop wraps over.
const EXTENT_REQUESTS: u64 = 64;

/// Reads issued per measurement.
const TOTAL_OPS: u64 = 256;

/// Measures sequential reads of `size` bytes at depth `qd` on a fresh
/// device built from `cfg`.
pub fn read_row(device: &str, cfg: SsdConfig, size: u64, qd: usize) -> QdRow {
    let pages = fio::pages_for(size);
    let mut ssd = Ssd::new(cfg.bench_scale());
    // Populate the extent the loop will wrap over.
    let chunk = vec![0x5au8; pages as usize * 4096];
    let mut t = SimTime::ZERO;
    for i in 0..EXTENT_REQUESTS {
        t = ssd
            .write(t, Lba(i * u64::from(pages)), &chunk)
            .expect("populate extent");
    }
    let start = ssd.flush(t);
    let mut dev = NvmeSsd::new(ssd, QueueConfig::new(1, qd));
    let report = ServiceDriver::run_nvme(&mut dev, start, TOTAL_OPS, |i| {
        (
            0,
            NvmeOp::Read {
                lba: Lba((i % EXTENT_REQUESTS) * u64::from(pages)),
                pages,
            },
        )
    });
    assert_eq!(report.ops, TOTAL_OPS);
    assert_eq!(report.errors, 0, "clean sweep for {device} {size}B qd{qd}");
    QdRow {
        device: device.to_string(),
        size,
        qd,
        read_mbs: report.mb_per_sec(),
        mean_lat_us: report.latency.mean().as_nanos() as f64 / 1e3,
        p99_lat_us: report.latency.percentile(0.99).as_nanos() as f64 / 1e3,
    }
}

/// Regenerates the full sweep: both comparator drives, every request size,
/// every queue depth.
pub fn run() -> Vec<QdRow> {
    let mut rows = Vec::new();
    for device in ["ULL-SSD", "DC-SSD"] {
        let cfg = || match device {
            "ULL-SSD" => SsdConfig::ull_ssd(),
            _ => SsdConfig::dc_ssd(),
        };
        for size in request_sizes() {
            for qd in QUEUE_DEPTHS {
                rows.push(read_row(device, cfg(), size, qd));
            }
        }
    }
    rows
}

/// Renders one bandwidth-by-queue-depth table per comparator drive.
pub(crate) fn render(rows: &[QdRow]) -> String {
    let sizes = request_sizes();
    let panel = |device: &str| {
        let mbs = |size: u64, qd: usize| {
            let row = rows
                .iter()
                .find(|r| r.device == device && r.size == size && r.qd == qd);
            format!("{:.0}", row.expect("swept point").read_mbs)
        };
        let table = Table::new(&sizes)
            .col("size", |size| format!("{}K", size >> 10))
            .col("QD1", |&size| mbs(size, 1))
            .col("QD4", |&size| mbs(size, 4))
            .col("QD16", |&size| mbs(size, 16))
            .col("QD64", |&size| mbs(size, 64));
        format!("{device}: sequential read, bandwidth (MB/s) by queue depth\n\n{table}")
    };
    format!("{}\n{}", panel("ULL-SSD"), panel("DC-SSD"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qd16_lifts_ull_4k_read_bandwidth_above_qd1() {
        let qd1 = read_row("ULL-SSD", SsdConfig::ull_ssd(), 4096, 1);
        let qd16 = read_row("ULL-SSD", SsdConfig::ull_ssd(), 4096, 16);
        assert!(
            qd16.read_mbs > qd1.read_mbs,
            "QD16 ({:.0} MB/s) must beat QD1 ({:.0} MB/s)",
            qd16.read_mbs,
            qd1.read_mbs
        );
        // Deeper queues trade latency for bandwidth: per-command latency
        // grows with depth.
        assert!(qd16.mean_lat_us > qd1.mean_lat_us);
    }

    #[test]
    fn bandwidth_grows_with_depth_until_saturation() {
        let rows: Vec<QdRow> = QUEUE_DEPTHS
            .iter()
            .map(|&qd| read_row("DC-SSD", SsdConfig::dc_ssd(), 4096, qd))
            .collect();
        for pair in rows.windows(2) {
            assert!(
                pair[1].read_mbs >= pair[0].read_mbs * 0.95,
                "deeper queue should not lose bandwidth: {pair:?}"
            );
        }
        // And the ends differ meaningfully.
        assert!(rows[3].read_mbs > rows[0].read_mbs * 1.5, "{rows:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = read_row("ULL-SSD", SsdConfig::ull_ssd(), 65536, 4);
        let b = read_row("ULL-SSD", SsdConfig::ull_ssd(), 65536, 4);
        assert_eq!(a, b);
    }
}
