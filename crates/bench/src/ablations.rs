//! Ablations of the design choices DESIGN.md calls out.

use serde::{Deserialize, Serialize};
use twob_core::TwoBSsd;
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{BaWal, WalConfig, WalWriter};

use crate::Table;

/// Double buffering versus a single window for BA-WAL (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DoubleBufferingAblation {
    /// Commit throughput with double buffering, commits/s.
    pub double_ops_per_sec: f64,
    /// Commit throughput with one window, commits/s.
    pub single_ops_per_sec: f64,
    /// Worst-case commit latency with double buffering, µs.
    pub double_worst_us: f64,
    /// Worst-case commit latency with one window, µs.
    pub single_worst_us: f64,
}

fn drive(mut wal: BaWal, commits: u64, payload: usize) -> (f64, f64) {
    let start = SimTime::from_nanos(1_000_000);
    let mut t = start;
    let body = vec![0x70u8; payload];
    let mut worst = SimDuration::ZERO;
    for _ in 0..commits {
        let out = wal.append_commit(t, &body).expect("commit");
        worst = worst.max(out.commit_at.saturating_since(t));
        t = out.commit_at;
    }
    let tput = commits as f64 / t.saturating_since(start).as_secs_f64();
    (tput, worst.as_micros_f64())
}

/// Runs the double-buffering ablation.
pub fn double_buffering() -> DoubleBufferingAblation {
    let commits = 3_000;
    let payload = 100;
    let (double_tput, double_worst) = drive(
        BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 8).expect("wal"),
        commits,
        payload,
    );
    let (single_tput, single_worst) = drive(
        BaWal::new_single(TwoBSsd::small_for_tests(), WalConfig::default(), 8).expect("wal"),
        commits,
        payload,
    );
    DoubleBufferingAblation {
        double_ops_per_sec: double_tput,
        single_ops_per_sec: single_tput,
        double_worst_us: double_worst,
        single_worst_us: single_worst,
    }
}

/// Read-ahead on/off for DC-SSD sequential reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadAheadAblation {
    /// Mean sequential 4 KiB read latency with read-ahead, µs.
    pub with_read_ahead_us: f64,
    /// Mean sequential 4 KiB read latency without, µs.
    pub without_read_ahead_us: f64,
}

fn sequential_read_mean(cfg: SsdConfig) -> f64 {
    let mut ssd = Ssd::new(cfg.small());
    let mut t = SimTime::ZERO;
    let pages = 64u64;
    for i in 0..pages {
        t = ssd.write(t, Lba(i), &vec![1u8; 4096]).expect("populate");
    }
    t = ssd.flush(t) + SimDuration::from_millis(1);
    let mut total = SimDuration::ZERO;
    for i in 0..pages {
        let read = ssd.read(t, Lba(i), 1).expect("read");
        total += read.complete_at.saturating_since(t);
        t = read.complete_at + SimDuration::from_micros(100);
    }
    total.as_micros_f64() / pages as f64
}

/// Runs the read-ahead ablation.
pub fn read_ahead() -> ReadAheadAblation {
    let with = sequential_read_mean(SsdConfig::dc_ssd());
    let mut no_ra = SsdConfig::dc_ssd();
    no_ra.read_ahead_pages = 0;
    let without = sequential_read_mean(no_ra);
    ReadAheadAblation {
        with_read_ahead_us: with,
        without_read_ahead_us: without,
    }
}

/// WAF of conventional block WAL versus BA-WAL (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WafAblation {
    /// Log WAF of the conventional block WAL.
    pub block_waf: f64,
    /// Log WAF of BA-WAL.
    pub ba_waf: f64,
}

/// Runs the WAF comparison: many small commits through both schemes.
pub fn waf() -> WafAblation {
    use crate::fig9::{make_wal, BaLayout, LogKind};
    let commits = 2_000u64;
    let body = vec![0x42u8; 64];
    let mut block = make_wal(LogKind::Ull, BaLayout::Halves);
    let mut ba = make_wal(LogKind::TwoB, BaLayout::Halves);
    let mut t1 = SimTime::from_nanos(1_000_000);
    let mut t2 = t1;
    for _ in 0..commits {
        t1 = block.append_commit(t1, &body).expect("block").commit_at;
        t2 = ba.append_commit(t2, &body).expect("ba").commit_at;
    }
    WafAblation {
        block_waf: block.stats().log_waf(),
        ba_waf: ba.stats().log_waf(),
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

/// Random-read throughput versus queue depth (the paper evaluates at QD1
/// only; this sweep verifies the device model's queuing behaves sanely
/// beyond it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueDepthAblation {
    /// `(queue depth, ULL-SSD kIOPS, DC-SSD kIOPS)` rows.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Runs a random 4 KiB read sweep at several queue depths.
pub fn queue_depth() -> QueueDepthAblation {
    use twob_ftl::Lba;
    use twob_sim::SimRng;
    use twob_workloads::ClientPool;

    fn kiops(cfg: SsdConfig, depth: usize) -> f64 {
        let mut ssd = Ssd::new(cfg.bench_scale());
        let mut rng = SimRng::seed_from(23);
        let span = 4_096u64;
        let mut t = SimTime::ZERO;
        for lba in 0..span {
            t = ssd
                .write(t, Lba(lba), &vec![0xAAu8; 4096])
                .expect("populate");
        }
        t = ssd.flush(t);
        let ops = 2_000u64;
        let mut pool = ClientPool::starting_at(depth, t);
        for _ in 0..ops {
            let (client, at) = pool.next_client();
            let lba = rng.next_u64_below(span);
            let read = ssd.read(at, Lba(lba), 1).expect("read");
            pool.complete(client, read.complete_at);
        }
        ops as f64 / pool.makespan().saturating_since(t).as_secs_f64() / 1e3
    }

    let rows = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|depth| {
            (
                depth,
                kiops(SsdConfig::ull_ssd(), depth),
                kiops(SsdConfig::dc_ssd(), depth),
            )
        })
        .collect();
    QueueDepthAblation { rows }
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

/// File-system metadata journaling on block vs BA journal (paper §IV:
/// "2B-SSD is also a good fit for file system journaling").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FsJournalAblation {
    /// Metadata ops/s with a conventional block journal on DC-SSD.
    pub block_ops_per_sec: f64,
    /// Metadata ops/s with the journal on the 2B-SSD byte path.
    pub ba_ops_per_sec: f64,
}

/// Runs a metadata-heavy create/write/delete churn over both journals.
pub fn fs_journaling() -> FsJournalAblation {
    use twob_fs::MiniFs;
    use twob_wal::{BlockWal, CommitMode};

    fn churn<J: twob_wal::WalWriter>(mut fs: MiniFs<Ssd, J>, rounds: u32) -> f64 {
        let start = SimTime::from_nanos(1_000_000);
        let mut t = start;
        let mut ops = 0u64;
        for i in 0..rounds {
            let name = format!("tmp-{i}");
            t = fs.create(t, &name).expect("create");
            t = fs.write(t, &name, 0, &[0x61u8; 100]).expect("write");
            t = fs.delete(t, &name).expect("delete");
            ops += 3;
        }
        ops as f64 / t.saturating_since(start).as_secs_f64()
    }

    let rounds = 300;
    let block = churn(
        MiniFs::format(
            Ssd::new(SsdConfig::dc_ssd().small()),
            BlockWal::new(
                Ssd::new(SsdConfig::dc_ssd().bench_scale()),
                WalConfig::default(),
                CommitMode::Sync,
            )
            .expect("journal"),
            SimTime::ZERO,
        )
        .expect("format"),
        rounds,
    );
    let ba = churn(
        MiniFs::format(
            Ssd::new(SsdConfig::dc_ssd().small()),
            BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4).expect("journal"),
            SimTime::ZERO,
        )
        .expect("format"),
        rounds,
    );
    FsJournalAblation {
        block_ops_per_sec: block,
        ba_ops_per_sec: ba,
    }
}

/// BA-buffer size sensitivity (paper §VI: ~8 MB suffices; bigger buffers
/// add usability, not bandwidth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferSizeAblation {
    /// `(window pages, commit throughput)` per BA-WAL window size.
    pub rows: Vec<(u32, f64)>,
}

/// Runs the buffer-size sensitivity sweep.
pub fn buffer_size() -> BufferSizeAblation {
    let rows = [2u32, 4, 8]
        .into_iter()
        .map(|half_pages| {
            let cfg = WalConfig {
                region_pages: 64,
                ..WalConfig::default()
            };
            let (tput, _) = drive(
                BaWal::new(TwoBSsd::small_for_tests(), cfg, half_pages).expect("wal"),
                2_000,
                100,
            );
            (half_pages, tput)
        })
        .collect();
    BufferSizeAblation { rows }
}

/// Every ablation's result, in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Ablation 1.
    pub double_buffering: DoubleBufferingAblation,
    /// Ablation 2.
    pub read_ahead: ReadAheadAblation,
    /// Ablation 3.
    pub waf: WafAblation,
    /// Ablation 4.
    pub tail_latency: Vec<TailLatencyRow>,
    /// Ablation 5.
    pub fs_journaling: FsJournalAblation,
    /// Ablation 6.
    pub buffer_size: BufferSizeAblation,
    /// Ablation 7.
    pub group_commit: GroupCommitAblation,
    /// Ablation 8.
    pub pinned_reads: PinnedReadAblation,
    /// Ablation 9.
    pub interference: InterferenceAblation,
    /// Ablation 10.
    pub queue_depth: QueueDepthAblation,
}

/// Runs all ten ablations.
pub fn run() -> Ablations {
    Ablations {
        double_buffering: double_buffering(),
        read_ahead: read_ahead(),
        waf: waf(),
        tail_latency: tail_latency(),
        fs_journaling: fs_journaling(),
        buffer_size: buffer_size(),
        group_commit: group_commit(),
        pinned_reads: pinned_reads(),
        interference: interference(),
        queue_depth: queue_depth(),
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
    let db = &a.double_buffering;
    let buffering = [
        ("double", db.double_ops_per_sec, db.double_worst_us),
        ("single", db.single_ops_per_sec, db.single_worst_us),
    ];
    let sections = [
        section(
            "Ablation 1: BA-WAL double buffering (paper §IV-B)",
            Table::new(&buffering)
                .col("buffering", |r| r.0)
                .col("commits/s", |r| format!("{:.0}", r.1))
                .col("worst commit (us)", |r| format!("{:.1}", r.2)),
        ),
        pairs(
            "Ablation 2: DC-SSD sequential read-ahead (paper §V-B)",
            ["read-ahead", "mean seq 4K read (us)"],
            1,
            &[
                ("on", a.read_ahead.with_read_ahead_us),
                ("off", a.read_ahead.without_read_ahead_us),
            ],
        ),
        pairs(
            "Ablation 3: log write amplification (paper §IV-A)",
            ["scheme", "log WAF"],
            1,
            &[("block WAL", a.waf.block_waf), ("BA-WAL", a.waf.ba_waf)],
        ),
        section(
            "Ablation 4: commit tail latency under 8 clients (paper §IV-A)",
            Table::new(&a.tail_latency)
                .col("scheme", |r| r.scheme.clone())
                .col("p50 (us)", |r| format!("{:.2}", r.p50_us))
                .col("p99 (us)", |r| format!("{:.2}", r.p99_us))
                .col("max (us)", |r| format!("{:.2}", r.max_us))
                .col("log WAF", |r| format!("{:.1}", r.device_waf)),
        ),
        pairs(
            "Ablation 5: filesystem metadata journaling (paper §IV)",
            ["journal", "metadata ops/s"],
            0,
            &[
                ("block (DC-SSD)", a.fs_journaling.block_ops_per_sec),
                ("BA-WAL (2B-SSD)", a.fs_journaling.ba_ops_per_sec),
            ],
        ),
        section(
            "Ablation 6: BA-WAL window size sensitivity (paper §VI)",
            Table::new(&a.buffer_size.rows)
                .col("window", |r| format!("{} pages", r.0))
                .col("commits/s", |r| format!("{:.0}", r.1)),
        ),
        pairs(
            "Ablation 7: group commit vs per-record commits",
            ["scheme", "records/s (durable)"],
            0,
            &[
                ("DC-SSD sync, solo", a.group_commit.dc_solo),
                ("DC-SSD sync, batches of 16", a.group_commit.dc_grouped),
                ("BA-WAL, per-record durable", a.group_commit.ba_solo),
            ],
        ),
        pairs(
            "Ablation 8: bulk block write + pinned small reads (paper §VI)",
            ["path", "mean 64 B read (us)"],
            2,
            &[
                ("block (whole-page NVMe read)", a.pinned_reads.block_read_us),
                ("pinned MMIO window", a.pinned_reads.pinned_mmio_us),
            ],
        ) + &format!("one-time pin cost: {:.1} us\n", a.pinned_reads.pin_cost_us),
        pairs(
            "Ablation 9: internal-datapath interference on block I/O (paper §VI)",
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
        section(
            "Ablation 10: random 4 KiB read throughput vs queue depth",
            Table::new(&a.queue_depth.rows)
                .col("QD", |r| r.0)
                .col("ULL-SSD kIOPS", |r| format!("{:.0}", r.1))
                .col("DC-SSD kIOPS", |r| format!("{:.0}", r.2)),
        ),
    ];
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_buffering_hides_flushes() {
        let a = double_buffering();
        assert!(
            a.double_ops_per_sec > a.single_ops_per_sec,
            "double buffering should win: {a:?}"
        );
        assert!(
            a.single_worst_us > a.double_worst_us * 3.0,
            "single-buffer worst case should spike: {a:?}"
        );
    }

    #[test]
    fn read_ahead_pays_for_sequential_scans() {
        let a = read_ahead();
        assert!(
            a.with_read_ahead_us * 2.0 < a.without_read_ahead_us,
            "read-ahead should at least halve sequential latency: {a:?}"
        );
    }

    #[test]
    fn ba_wal_eliminates_log_write_amplification() {
        let a = waf();
        assert!((a.ba_waf - 1.0).abs() < f64::EPSILON, "{a:?}");
        assert!(a.block_waf > 10.0, "{a:?}");
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
    fn queue_depth_scales_throughput_until_saturation() {
        let a = queue_depth();
        let at = |d: usize| a.rows.iter().find(|(depth, _, _)| *depth == d).unwrap();
        let (_, ull_1, dc_1) = at(1);
        let (_, ull_8, dc_8) = at(8);
        let (_, ull_32, dc_32) = at(32);
        // Concurrency buys real throughput on both devices...
        assert!(*ull_8 > ull_1 * 2.0, "{a:?}");
        assert!(*dc_8 > dc_1 * 2.0, "{a:?}");
        // ...but saturates: QD32 is no more than ~2.5x QD8.
        assert!(*ull_32 < ull_8 * 3.0, "{a:?}");
        assert!(*dc_32 < dc_8 * 5.0, "{a:?}");
        // DC's deep NAND latency means it scales further with depth than
        // ULL, whose QD1 latency is already near the interface floor.
        assert!(dc_32 / dc_1 > ull_32 / ull_1, "{a:?}");
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
        // Only the block schemes amplify log writes at the device.
        assert!((ba.device_waf - 1.0).abs() < f64::EPSILON);
        assert!(dc.device_waf > 5.0);
    }

    #[test]
    fn fs_journaling_gains_from_the_byte_path() {
        let a = fs_journaling();
        let gain = a.ba_ops_per_sec / a.block_ops_per_sec;
        assert!(
            (1.3..6.0).contains(&gain),
            "metadata-op gain {gain:.2} out of expected band: {a:?}"
        );
    }

    #[test]
    fn buffer_size_has_diminishing_returns() {
        let a = buffer_size();
        let first = a.rows.first().unwrap().1;
        let last = a.rows.last().unwrap().1;
        // Bigger windows flush less often but commits already hide flushes;
        // throughput moves by far less than the window grows.
        assert!(
            last < first * 1.5,
            "throughput should not scale with window size: {a:?}"
        );
    }
}
