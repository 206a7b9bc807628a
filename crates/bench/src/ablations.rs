//! Ablations of the design choices DESIGN.md calls out, each one a
//! measurement no other study makes: the BA-WAL window, commit tails with
//! their log WAF, group commit, pinned small reads and internal-datapath
//! interference.

use serde::{Deserialize, Serialize};
use twob_core::TwoBSsd;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::SsdConfig;
use twob_wal::{BaWal, WalConfig, WalWriter};

use crate::Table;

/// One BA-WAL window configuration: double buffering against a single
/// window (paper §IV-B) and the window size (paper §VI: a small buffer
/// suffices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// Whether two windows alternate (double buffering) or one is reused.
    pub double: bool,
    /// Pages per window.
    pub pages: u32,
    /// Commit throughput, commits/s.
    pub ops_per_sec: f64,
    /// Worst commit latency, µs.
    pub worst_us: f64,
}

/// Runs the window table: a single 8-page window, then double buffering
/// at 2, 4 and 8 pages per half, each taking 3,000 commits of 100 B.
pub fn windows() -> Vec<WindowRow> {
    [(false, 8), (true, 2), (true, 4), (true, 8)]
        .into_iter()
        .map(|(double, pages)| {
            let dev = TwoBSsd::small_for_tests();
            let wal = if double {
                BaWal::new(dev, WalConfig::default(), pages)
            } else {
                BaWal::new_single(dev, WalConfig::default(), pages)
            };
            let mut wal = wal.expect("wal");
            let start = SimTime::from_nanos(1_000_000);
            let mut t = start;
            let mut worst = SimDuration::ZERO;
            let commits = 3_000u64;
            for _ in 0..commits {
                let out = wal.append_commit(t, &[0x70u8; 100]).expect("commit");
                worst = worst.max(out.commit_at.saturating_since(t));
                t = out.commit_at;
            }
            WindowRow {
                double,
                pages,
                ops_per_sec: commits as f64 / t.saturating_since(start).as_secs_f64(),
                worst_us: worst.as_micros_f64(),
            }
        })
        .collect()
}

/// Commit-latency distribution per scheme under multi-client load
/// (paper §IV-A: BA-WAL "optimizes both tail latencies and SSD lifespan").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailLatencyRow {
    /// Scheme label.
    pub scheme: String,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// Worst commit latency, µs.
    pub max_us: f64,
    /// Physical NAND programs per host log page (device-level WAF of the
    /// log traffic).
    pub device_waf: f64,
}

/// Runs the tail-latency comparison: 8 virtual clients pushing small
/// commits through each scheme.
pub fn tail_latency() -> Vec<TailLatencyRow> {
    use crate::fig9::{make_wal, BaLayout, LogKind};
    use twob_sim::Histogram;
    use twob_workloads::ClientPool;

    let commits = 4_000u64;
    let clients = 8;
    [LogKind::Dc, LogKind::Ull, LogKind::TwoB]
        .into_iter()
        .map(|kind| {
            let mut wal = make_wal(kind, BaLayout::Halves);
            let mut pool = ClientPool::starting_at(clients, SimTime::from_nanos(1_000_000));
            let mut hist = Histogram::new();
            for i in 0..commits {
                let (client, at) = pool.next_client();
                // A little think time between a client's commits.
                let issue = at + SimDuration::from_micros(3 + (i % 5));
                let out = wal.append_commit(issue, &[0x42u8; 128]).expect("commit");
                hist.record(out.commit_at.saturating_since(issue));
                pool.complete(client, out.commit_at);
            }
            let stats = wal.stats();
            TailLatencyRow {
                scheme: wal.scheme(),
                p50_us: hist.percentile(0.50).as_micros_f64(),
                p99_us: hist.percentile(0.99).as_micros_f64(),
                max_us: hist.max().as_micros_f64(),
                device_waf: stats.log_waf(),
            }
        })
        .collect()
}

/// Group commit (batched appends) versus per-record commits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupCommitAblation {
    /// DC-SSD sync WAL, one commit per record, records/s.
    pub dc_solo: f64,
    /// DC-SSD sync WAL, batches of 16, records/s.
    pub dc_grouped: f64,
    /// BA-WAL, one durable commit per record, records/s.
    pub ba_solo: f64,
}

/// Runs the group-commit comparison: even with 16-way batching, the block
/// path cannot reach BA-WAL's *per-record-durable* rate.
pub fn group_commit() -> GroupCommitAblation {
    use crate::fig9::{make_wal, BaLayout, LogKind};
    use twob_wal::WalWriter as _;

    let records: Vec<Vec<u8>> = (0..512u16).map(|i| vec![i as u8; 128]).collect();
    let start = SimTime::from_nanos(1_000_000);

    let rate = |span_ns: u64| records.len() as f64 / (span_ns as f64 / 1e9);

    let mut dc_solo = make_wal(LogKind::Dc, BaLayout::Halves);
    let mut t = start;
    for r in &records {
        t = dc_solo.append_commit(t, r).expect("commit").commit_at;
    }
    let dc_solo_rate = rate(t.saturating_since(start).as_nanos());

    let mut dc_grouped = make_wal(LogKind::Dc, BaLayout::Halves);
    let mut t = start;
    for batch in records.chunks(16) {
        t = dc_grouped.append_batch(t, batch).expect("batch").commit_at;
    }
    let dc_grouped_rate = rate(t.saturating_since(start).as_nanos());

    let mut ba = make_wal(LogKind::TwoB, BaLayout::Halves);
    let mut t = start;
    for r in &records {
        t = ba.append_commit(t, r).expect("commit").commit_at;
    }
    let ba_rate = rate(t.saturating_since(start).as_nanos());

    GroupCommitAblation {
        dc_solo: dc_solo_rate,
        dc_grouped: dc_grouped_rate,
        ba_solo: ba_rate,
    }
}

/// The §VI "opposite case": bulk data written through the block path,
/// then many small reads served either by block reads or by a pinned
/// BA-buffer window over MMIO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PinnedReadAblation {
    /// Mean latency of a 64 B read through the block path (whole-page
    /// NVMe read), µs.
    pub block_read_us: f64,
    /// Mean latency of a 64 B read through a pinned MMIO window, µs.
    pub pinned_mmio_us: f64,
    /// One-time cost of pinning the window, µs.
    pub pin_cost_us: f64,
}

/// Runs the pinned-small-read comparison.
pub fn pinned_reads() -> PinnedReadAblation {
    use twob_core::{EntryId, TwoBSpec};
    use twob_ftl::Lba;
    use twob_sim::SimRng;
    use twob_ssd::BlockDevice as _;

    let mut dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
    let mut rng = SimRng::seed_from(17);
    // Bulk-load 8 pages of sensor data through the block path.
    let pages = 8u32;
    let mut bulk = vec![0u8; 4096 * pages as usize];
    rng.fill_bytes(&mut bulk);
    let mut t = dev.write_pages(SimTime::ZERO, Lba(0), &bulk).expect("bulk");
    t = dev.flush(t);

    let reads = 200u64;
    // Block-path small reads: a whole page per probe.
    let mut block_total = SimDuration::ZERO;
    for _ in 0..reads {
        let lba = rng.next_u64_below(u64::from(pages));
        let probe_at = t + SimDuration::from_micros(50);
        let read = dev.read_pages(probe_at, Lba(lba), 1).expect("block read");
        block_total += read.complete_at.saturating_since(probe_at);
        t = read.complete_at;
    }
    // Pin once, then MMIO reads of just the needed 64 bytes.
    let pin_issue = t + SimDuration::from_micros(50);
    let pin = dev
        .ba_pin(pin_issue, EntryId(0), 0, Lba(0), pages)
        .expect("pin");
    let pin_cost = pin.complete_at.saturating_since(pin_issue);
    t = pin.complete_at;
    let mut mmio_total = SimDuration::ZERO;
    for _ in 0..reads {
        let offset = rng.next_u64_below(u64::from(pages) * 4096 - 64);
        let probe_at = t + SimDuration::from_micros(50);
        let read = dev
            .mmio_read(probe_at, EntryId(0), offset, 64)
            .expect("mmio read");
        mmio_total += read.complete_at.saturating_since(probe_at);
        t = read.complete_at;
    }
    PinnedReadAblation {
        block_read_us: block_total.as_micros_f64() / reads as f64,
        pinned_mmio_us: mmio_total.as_micros_f64() / reads as f64,
        pin_cost_us: pin_cost.as_micros_f64(),
    }
}

/// §VI's warning: "the bandwidth can be monopolized by the internal
/// datapath so that other applications accessing with block I/O would not
/// be able to get it enough". Measures block-read throughput with and
/// without a concurrent pin/flush stream on the same 2B-SSD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceAblation {
    /// Block-read throughput alone, MB/s.
    pub block_alone_mbs: f64,
    /// Block-read throughput while the internal datapath streams, MB/s.
    pub block_contended_mbs: f64,
}

/// Runs the internal-datapath interference experiment.
pub fn interference() -> InterferenceAblation {
    use twob_core::{EntryId, TwoBSpec, TwoBSsd};
    use twob_ftl::Lba;
    use twob_ssd::BlockDevice as _;

    fn block_read_mbs(dev: &mut TwoBSsd, contend: bool) -> f64 {
        let span_pages = 512u64;
        let mut t = SimTime::ZERO;
        for i in 0..span_pages {
            t = dev
                .write_pages(t, Lba(i), &vec![0x11u8; 4096])
                .expect("populate");
        }
        // A separate extent for the internal stream to churn.
        let pin_base = span_pages;
        for i in 0..64u64 {
            t = dev
                .write_pages(t, Lba(pin_base + i), &vec![0x22u8; 4096])
                .expect("populate pin extent");
        }
        t = dev.flush(t);
        let start = t;
        let mut internal_t = t;
        let reads = 256u64;
        for i in 0..reads {
            if contend {
                // Keep an internal pin/flush stream saturating the
                // datapath: issue the next cycle whenever the previous
                // one finished.
                while internal_t <= t {
                    let pin = dev
                        .ba_pin(internal_t, EntryId(0), 0, Lba(pin_base), 64)
                        .expect("pin");
                    let flush = dev.ba_flush(pin.complete_at, EntryId(0)).expect("flush");
                    internal_t = flush.complete_at;
                }
            }
            // Sequential block reads, 8 pages per request.
            let lba = (i * 8) % (span_pages - 8);
            let read = dev.read_pages(t, Lba(lba), 8).expect("read");
            t = read.complete_at;
        }
        let bytes = reads * 8 * 4096;
        t.saturating_since(start).bytes_per_sec(bytes) / 1e6
    }

    let spec = TwoBSpec {
        ba_buffer_bytes: 1 << 20,
        ..TwoBSpec::default()
    };
    let mut alone = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
    let mut contended = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
    InterferenceAblation {
        block_alone_mbs: block_read_mbs(&mut alone, false),
        block_contended_mbs: block_read_mbs(&mut contended, true),
    }
}

/// Every ablation's result, in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Ablation 1.
    pub windows: Vec<WindowRow>,
    /// Ablation 2.
    pub tail_latency: Vec<TailLatencyRow>,
    /// Ablation 3.
    pub group_commit: GroupCommitAblation,
    /// Ablation 4.
    pub pinned_reads: PinnedReadAblation,
    /// Ablation 5.
    pub interference: InterferenceAblation,
}

/// Runs all five ablations.
pub fn run() -> Ablations {
    Ablations {
        windows: windows(),
        tail_latency: tail_latency(),
        group_commit: group_commit(),
        pinned_reads: pinned_reads(),
        interference: interference(),
    }
}

/// Renders one titled table per ablation.
pub(crate) fn render(a: &Ablations) -> String {
    fn section(title: &str, table: impl std::fmt::Display) -> String {
        format!("{title}\n\n{table}")
    }
    // Most ablations compare a handful of labelled figures.
    let pairs = |title: &str, head: [&str; 2], digits: usize, rows: &[(&str, f64)]| {
        let table = Table::new(rows)
            .col(head[0], |r| r.0)
            .col(head[1], |r| format!("{:.digits$}", r.1));
        section(title, table)
    };
    let sections = [
        section(
            "Ablation 1: BA-WAL double buffering and window size (paper §IV-B, §VI)",
            Table::new(&a.windows)
                .col("buffering", |r| if r.double { "double" } else { "single" })
                .col("window", |r| format!("{} pages", r.pages))
                .col("commits/s", |r| format!("{:.0}", r.ops_per_sec))
                .col("worst commit (us)", |r| format!("{:.1}", r.worst_us)),
        ),
        section(
            "Ablation 2: commit tail latency and log WAF under 8 clients (paper §IV-A)",
            Table::new(&a.tail_latency)
                .col("scheme", |r| r.scheme.clone())
                .col("p50 (us)", |r| format!("{:.2}", r.p50_us))
                .col("p99 (us)", |r| format!("{:.2}", r.p99_us))
                .col("max (us)", |r| format!("{:.2}", r.max_us))
                .col("log WAF", |r| format!("{:.1}", r.device_waf)),
        ),
        pairs(
            "Ablation 3: group commit vs per-record commits",
            ["scheme", "records/s (durable)"],
            0,
            &[
                ("DC-SSD sync, solo", a.group_commit.dc_solo),
                ("DC-SSD sync, batches of 16", a.group_commit.dc_grouped),
                ("BA-WAL, per-record durable", a.group_commit.ba_solo),
            ],
        ),
        pairs(
            "Ablation 4: bulk block write + pinned small reads (paper §VI)",
            ["path", "mean 64 B read (us)"],
            2,
            &[
                ("block (whole-page NVMe read)", a.pinned_reads.block_read_us),
                ("pinned MMIO window", a.pinned_reads.pinned_mmio_us),
            ],
        ) + &format!("one-time pin cost: {:.1} us\n", a.pinned_reads.pin_cost_us),
        pairs(
            "Ablation 5: internal-datapath interference on block I/O (paper §VI)",
            ["block 8-page reads", "MB/s"],
            0,
            &[
                ("alone", a.interference.block_alone_mbs),
                (
                    "with saturating BA_PIN/BA_FLUSH stream",
                    a.interference.block_contended_mbs,
                ),
            ],
        ),
    ];
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_buffering_hides_flushes() {
        let rows = windows();
        let single = rows.iter().find(|r| !r.double).unwrap();
        let double = |pages: u32| rows.iter().find(|r| r.double && r.pages == pages).unwrap();
        let same_size = double(single.pages);
        assert!(
            same_size.ops_per_sec > single.ops_per_sec,
            "double buffering should win: {rows:?}"
        );
        assert!(
            single.worst_us > same_size.worst_us * 3.0,
            "single-buffer worst case should spike: {rows:?}"
        );
    }

    #[test]
    fn buffer_size_has_diminishing_returns() {
        let rows = windows();
        // Bigger windows flush less often but commits already hide
        // flushes; throughput moves by far less than the window grows.
        let doubles: Vec<f64> = rows
            .iter()
            .filter(|r| r.double)
            .map(|r| r.ops_per_sec)
            .collect();
        let lo = doubles.iter().copied().fold(f64::MAX, f64::min);
        let hi = doubles.iter().copied().fold(0.0, f64::max);
        assert!(
            hi < lo * 1.5,
            "throughput should not scale with window size: {rows:?}"
        );
    }

    #[test]
    fn internal_datapath_steals_block_bandwidth() {
        // §VI: a saturating internal stream must visibly depress block
        // throughput (they share channels and dies).
        let a = interference();
        assert!(
            a.block_contended_mbs < a.block_alone_mbs * 0.9,
            "no interference visible: {a:?}"
        );
        assert!(
            a.block_contended_mbs > a.block_alone_mbs * 0.2,
            "block path should be degraded, not starved: {a:?}"
        );
    }

    #[test]
    fn group_commit_narrows_but_does_not_close_the_gap() {
        let a = group_commit();
        // Batching helps the block path a lot...
        assert!(a.dc_grouped > a.dc_solo * 4.0, "{a:?}");
        // ...but per-record-durable BA commits still win.
        assert!(a.ba_solo > a.dc_grouped, "{a:?}");
    }

    #[test]
    fn pinned_windows_accelerate_small_reads() {
        let a = pinned_reads();
        // Paper §VI: with preloading, "the read latency can be superb".
        assert!(
            a.pinned_mmio_us * 3.0 < a.block_read_us,
            "pinned MMIO reads should be several times faster: {a:?}"
        );
        // The one-time pin amortizes over a handful of reads.
        assert!(a.pin_cost_us < a.block_read_us * 20.0, "{a:?}");
    }

    #[test]
    fn ba_wal_tails_beat_block_wal_tails() {
        let rows = tail_latency();
        let ba = rows.iter().find(|r| r.scheme.contains("BA-WAL")).unwrap();
        let dc = rows.iter().find(|r| r.scheme.contains("DC-SSD")).unwrap();
        let ull = rows.iter().find(|r| r.scheme.contains("ULL-SSD")).unwrap();
        // Median AND tail both collapse on the byte path.
        assert!(ba.p50_us * 5.0 < ull.p50_us, "{ba:?} vs {ull:?}");
        assert!(ba.p99_us < dc.p99_us, "{ba:?} vs {dc:?}");
    }

    #[test]
    fn ba_wal_eliminates_log_write_amplification() {
        let rows = tail_latency();
        let ba = rows.iter().find(|r| r.scheme.contains("BA-WAL")).unwrap();
        let dc = rows.iter().find(|r| r.scheme.contains("DC-SSD")).unwrap();
        let ull = rows.iter().find(|r| r.scheme.contains("ULL-SSD")).unwrap();
        // Only the block schemes amplify log writes at the device.
        assert!((ba.device_waf - 1.0).abs() < f64::EPSILON, "{ba:?}");
        assert!(dc.device_waf > 5.0, "{dc:?}");
        assert!(ull.device_waf > 10.0, "{ull:?}");
    }
}
