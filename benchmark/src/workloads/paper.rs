//! `paper_floor`: the device layers alone — nothing from `workloads`,
//! `wal`, `db` or `repl` above them except the NVMe closed-loop drive —
//! and the ten PAPER §V reference points, so the calibration audit has a
//! metric to claim.

use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{Histogram, SimDuration, SimRng, SimTime};
use twob_ssd::{BlockDevice, NvmeOp, NvmeSsd, QueueConfig, Ssd, SsdConfig};
use twob_workloads::ServiceDriver;

use crate::{mix, spans, Outcome, Scale, Workload, FNV_BASIS};

/// The ten PAPER §V reference points: `(per-layer metric carrying our
/// value, the paper's value in that metric's unit)`. EXPERIMENTS.md lists
/// the same numbers beside the model's.
pub const REFERENCE: [(&str, f64); 10] = [
    // Reads — PAPER §V-A Fig 7(a), §III-A3 (read-DMA); EXPERIMENTS.md Fig 7.
    ("ssd.v_dc_read4k_us", 83.0),
    ("ssd.v_ull_read4k_us", 13.2),
    ("pcie.v_mmio_read4k_us", 150.0),
    ("pcie.v_read_dma4k_us", 58.0),
    // Writes — PAPER §V-A Fig 7(b); EXPERIMENTS.md Fig 7.
    ("ssd.v_dc_write4k_us", 17.0),
    ("ssd.v_ull_write4k_us", 10.0),
    ("pcie.v_mmio_write8_ns", 630.0),
    ("pcie.v_mmio_write4k_us", 2.0),
    // 16 MiB bandwidth at QD1 — PAPER §V-B Fig 8; EXPERIMENTS.md Fig 8.
    ("ssd.v_ull_peak_mbs", 3200.0),
    ("ssd.v_2b_internal_peak_mbs", 2200.0),
];

/// Idle gap between floor probes, so device queues fully drain.
const GAP: SimDuration = SimDuration::from_millis(1);
/// Probes averaged per floor latency.
const FLOOR_ITERS: u64 = 8;
/// Back-to-back 16 MiB requests per bandwidth point.
const BANDWIDTH_REQUESTS: u64 = 2;

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// QD1 4 KiB `(read, write)` floor of a block device profile, µs: strided
/// LBAs (so read-ahead never helps), an idle gap before every probe.
fn block_floor(cfg: SsdConfig, first_lba: u64) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.small());
    let page = vec![0xA5u8; 4096];
    let lbas: Vec<u64> = (0..FLOOR_ITERS)
        .map(|i| (first_lba + i * 17) % 200)
        .collect();
    let mut t = SimTime::ZERO;
    for &lba in &lbas {
        t = ssd.write(t, Lba(lba), &page).expect("populate");
    }
    t = ssd.flush(t);
    let (mut read, mut write) = (SimDuration::ZERO, SimDuration::ZERO);
    for &lba in &lbas {
        t += GAP;
        let ack = ssd.write(t, Lba(lba), &page).expect("floor write");
        write += ack.saturating_since(t);
        t = ack;
    }
    for &lba in &lbas {
        t += GAP;
        let done = ssd.read(t, Lba(lba), 1).expect("floor read");
        read += done.complete_at.saturating_since(t);
        t = done.complete_at;
    }
    (
        us(read) / FLOOR_ITERS as f64,
        us(write) / FLOOR_ITERS as f64,
    )
}

/// Sequential 16 MiB read bandwidth of the ULL profile, MB/s.
fn ull_peak_mbs() -> f64 {
    let mut ssd = Ssd::new(SsdConfig::ull_ssd().bench_scale());
    let pages = (16u32 << 20) / 4096;
    let chunk = vec![0x33u8; 16 << 20];
    let mut t = SimTime::ZERO;
    for i in 0..BANDWIDTH_REQUESTS {
        t = ssd
            .write(t, Lba(i * u64::from(pages)), &chunk)
            .expect("bandwidth populate");
    }
    let start = ssd.flush(t);
    let mut t = start;
    for i in 0..BANDWIDTH_REQUESTS {
        t = ssd
            .read(t, Lba(i * u64::from(pages)), pages)
            .expect("bandwidth read")
            .complete_at;
    }
    t.saturating_since(start)
        .bytes_per_sec(BANDWIDTH_REQUESTS * (16 << 20))
        / 1e6
}

/// 16 MiB `BA_PIN` (internal read) bandwidth of the 2B-SSD, MB/s. The
/// prototype's buffer is 8 MiB; the paper's Fig 8 sweeps to 16 MiB, which
/// needs the enlarged window and dump reserve EXPERIMENTS.md documents.
fn internal_peak_mbs() -> f64 {
    let mut cfg = SsdConfig::base_2b().bench_scale();
    cfg.ftl.reserved_blocks = 34;
    let spec = TwoBSpec {
        ba_buffer_bytes: 32 << 20,
        ..TwoBSpec::default()
    };
    let mut dev = TwoBSsd::new(cfg, spec);
    let pages = (16u32 << 20) / 4096;
    let chunk = vec![0x44u8; 16 << 20];
    let mut t = dev
        .write_pages(SimTime::ZERO, Lba(0), &chunk)
        .expect("bandwidth populate");
    t = dev.flush(t);
    let mut span = SimDuration::ZERO;
    for _ in 0..BANDWIDTH_REQUESTS {
        let pin = dev.ba_pin(t, EntryId(0), 0, Lba(0), pages).expect("pin");
        span += pin.complete_at.saturating_since(t);
        t = dev
            .ba_flush(pin.complete_at, EntryId(0))
            .expect("flush")
            .complete_at;
    }
    span.bytes_per_sec(BANDWIDTH_REQUESTS * (16 << 20)) / 1e6
}

/// Our value for each of [`REFERENCE`]'s points, in its order, plus the
/// model's other floor latencies that no paper number anchors.
pub fn reference_points(seed: u64) -> (Vec<f64>, Vec<(&'static str, f64)>) {
    let first_lba = SimRng::seed_from(seed).next_u64_below(200);
    let (dc_read, dc_write) = block_floor(SsdConfig::dc_ssd(), first_lba);
    let (ull_read, ull_write) = block_floor(SsdConfig::ull_ssd(), first_lba);

    let mut dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
    let eid = EntryId(0);
    let mut t = dev
        .ba_pin(SimTime::ZERO, eid, 0, Lba(0), 1)
        .expect("pin the probe page")
        .complete_at;
    let data = vec![0xC3u8; 4096];
    let mut sums = [SimDuration::ZERO; 7];
    for _ in 0..FLOOR_ITERS {
        let mut probe = |slot: usize, t: &mut SimTime, op: &mut dyn FnMut(SimTime) -> SimTime| {
            *t += GAP;
            let done = op(*t);
            sums[slot] += done.saturating_since(*t);
            *t = done;
        };
        probe(0, &mut t, &mut |t| {
            dev.mmio_read(t, eid, 0, 4096).expect("read").complete_at
        });
        probe(1, &mut t, &mut |t| {
            dev.ba_read_dma(t, eid, 0, 4096).expect("dma").complete_at
        });
        probe(2, &mut t, &mut |t| {
            dev.mmio_write(t, eid, 0, &data[..8])
                .expect("store")
                .retired_at
        });
        probe(3, &mut t, &mut |t| {
            dev.mmio_write(t, eid, 0, &data).expect("store").retired_at
        });
        probe(4, &mut t, &mut |t| {
            let store = dev.mmio_write(t, eid, 0, &data[..128]).expect("store");
            dev.ba_sync_range(store.retired_at, eid, 0, 128)
                .expect("sync")
                .complete_at
        });
        probe(5, &mut t, &mut |t| {
            let store = dev.cxl_store(t, eid, 0, &data[..128]).expect("store");
            dev.cxl_persist(store.retired_at, eid, 0, 128)
                .expect("persist")
                .complete_at
        });
        probe(6, &mut t, &mut |t| {
            dev.cxl_load(t, eid, 0, 64).expect("load").complete_at
        });
    }
    let mean_ns = |slot: usize| sums[slot].as_nanos() as f64 / FLOOR_ITERS as f64;
    let ours = vec![
        dc_read,
        ull_read,
        mean_ns(0) / 1e3,
        mean_ns(1) / 1e3,
        dc_write,
        ull_write,
        mean_ns(2),
        mean_ns(3) / 1e3,
        ull_peak_mbs(),
        internal_peak_mbs(),
    ];
    let others = vec![
        ("core.v_ba_commit_ns", mean_ns(4)),
        ("pcie.v_cxl_persist128_ns", mean_ns(5)),
        ("pcie.v_cxl_load64_ns", mean_ns(6)),
    ];
    (ours, others)
}

/// `(max, mean)` of |ours − paper| ÷ paper over the reference points, %.
pub fn paper_error_pct(ours: &[f64]) -> (f64, f64) {
    let errs: Vec<f64> = REFERENCE
        .iter()
        .zip(ours)
        .map(|((_, paper), ours)| 100.0 * (ours - paper).abs() / paper)
        .collect();
    (
        errs.iter().copied().fold(0.0, f64::max),
        errs.iter().sum::<f64>() / errs.len() as f64,
    )
}

/// Byte-path store sizes of the QD1 loop.
const STORE_SIZES: [u64; 5] = [8, 64, 128, 512, 4096];
/// QD1 iterations (each: five store+sync pairs, three byte-path reads,
/// four block commands).
const QD1_ITERS: u64 = 27_000;
/// Commands in the QD16 70/30 read/write segment.
const NVME_OPS: u64 = 135_000;
/// Pages the QD16 segment spreads over.
const NVME_EXTENT: u64 = 4_096;

pub struct PaperFloor {
    seed: u64,
    qd1_iters: u64,
    nvme_ops: u64,
}

impl PaperFloor {
    pub fn new(seed: u64, scale: Scale) -> Self {
        PaperFloor {
            seed,
            qd1_iters: scale.of(QD1_ITERS, 100),
            nvme_ops: scale.of(NVME_OPS, 500),
        }
    }
}

impl Workload for PaperFloor {
    fn sizes(&self) -> String {
        format!(
            "closed loop: {} QD1 iterations (mmio_write {STORE_SIZES:?} B + ba_sync_range, \
             mmio_read 8 B/4 KiB, read-DMA 4 KiB, 4 KiB block read/write on ull_ssd and dc_ssd), \
             {} commands QD16 70/30 4 KiB on ull_ssd, ten reference points",
            self.qd1_iters, self.nvme_ops
        )
    }

    fn rep(&mut self) -> Outcome {
        let mut out = Outcome {
            digest: FNV_BASIS,
            ..Outcome::default()
        };
        let mut rng = SimRng::seed_from(self.seed ^ 0x0f10_0742);

        let (ours, others) = spans::scope("paper.reference_points", || reference_points(self.seed));
        for ((metric, _), value) in REFERENCE.iter().zip(&ours) {
            out.v.insert(metric, *value);
            out.digest = mix(out.digest, value.to_bits());
        }
        out.v.extend(others);
        let (max, mean) = paper_error_pct(&ours);
        out.v.insert("paper.err_max_pct", max);
        out.v.insert("paper.err_mean_pct", mean);

        // QD1 byte path: one 4-page window, seed-derived offsets.
        let mut dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
        let eid = EntryId(0);
        let window = 4 * 4096u64;
        let mut t = dev
            .ba_pin(SimTime::ZERO, eid, 0, Lba(0), 4)
            .expect("pin the QD1 window")
            .complete_at;
        let byte_start = t;
        // QD1 block path: both comparator profiles over a populated extent.
        let page = vec![0x5Au8; 4096];
        let mut blocks: Vec<(Ssd, SimTime)> = [SsdConfig::ull_ssd(), SsdConfig::dc_ssd()]
            .into_iter()
            .map(|cfg| {
                let mut ssd = Ssd::new(cfg.small());
                let mut t = SimTime::ZERO;
                for lba in 0..200 {
                    t = ssd.write(t, Lba(lba), &page).expect("populate");
                }
                let t = ssd.flush(t);
                (ssd, t)
            })
            .collect();
        let block_start: Vec<SimTime> = blocks.iter().map(|(_, t)| *t).collect();

        let data = vec![0xC3u8; 4096];
        let mut commits = Histogram::new();
        for _ in 0..self.qd1_iters {
            for len in STORE_SIZES {
                let offset = rng.next_u64_below((window - len) / 8 + 1) * 8;
                out.attempted += 2;
                let issued = t;
                let store = spans::scope("core.mmio_write", || {
                    dev.mmio_write(t, eid, offset, &data[..len as usize])
                });
                let synced = store.and_then(|store| {
                    spans::scope("core.ba_sync_range", || {
                        dev.ba_sync_range(store.retired_at, eid, offset, len)
                    })
                });
                match synced {
                    Ok(done) => {
                        t = done.complete_at;
                        out.ops += 2;
                        if len == 128 {
                            commits.record(t.saturating_since(issued));
                        }
                    }
                    Err(e) => out.fail(format!("persistent store: {e}")),
                }
            }
            for (len, dma) in [(8u64, false), (4096, false), (4096, true)] {
                let offset = rng.next_u64_below((window - len) / 8 + 1) * 8;
                out.attempted += 1;
                let read = if dma {
                    spans::scope("core.ba_read_dma", || dev.ba_read_dma(t, eid, offset, len))
                } else {
                    spans::scope("core.mmio_read", || dev.mmio_read(t, eid, offset, len))
                };
                match read {
                    Ok(done) => {
                        t = done.complete_at;
                        out.ops += 1;
                    }
                    Err(e) => out.fail(format!("byte-path read: {e}")),
                }
            }
            for (ssd, t) in &mut blocks {
                let lba = Lba(rng.next_u64_below(200));
                out.attempted += 2;
                match spans::scope("ssd.write", || ssd.write(*t, lba, &page)) {
                    Ok(ack) => {
                        *t = ack;
                        out.ops += 1;
                    }
                    Err(e) => out.fail(format!("block write: {e}")),
                }
                let lba = Lba(rng.next_u64_below(200));
                match spans::scope("ssd.read", || ssd.read(*t, lba, 1)) {
                    Ok(done) => {
                        *t = done.complete_at;
                        out.ops += 1;
                    }
                    Err(e) => out.fail(format!("block read: {e}")),
                }
            }
        }
        out.virtual_secs = t.saturating_since(byte_start).as_secs_f64();
        out.digest = mix(out.digest, t.as_nanos());
        for ((_, t), start) in blocks.iter().zip(&block_start) {
            out.virtual_secs += t.saturating_since(*start).as_secs_f64();
            out.digest = mix(out.digest, t.as_nanos());
        }

        // QD16 segment: 70 % reads, 30 % writes, through the NVMe queue pair.
        let mut ssd = Ssd::new(SsdConfig::ull_ssd().bench_scale());
        let chunk = vec![0x77u8; 64 * 4096];
        let mut t = SimTime::ZERO;
        for lba in (0..NVME_EXTENT).step_by(64) {
            t = ssd.write(t, Lba(lba), &chunk).expect("populate the extent");
        }
        let start = ssd.flush(t);
        let mut nvme = NvmeSsd::new(ssd, QueueConfig::new(1, 16));
        let report = spans::scope("workloads.run_nvme", || {
            ServiceDriver::run_nvme(&mut nvme, start, self.nvme_ops, |_| {
                let lba = Lba(rng.next_u64_below(NVME_EXTENT));
                let op = if rng.chance(0.7) {
                    NvmeOp::Read { lba, pages: 1 }
                } else {
                    NvmeOp::Write {
                        lba,
                        data: page.clone(),
                    }
                };
                (0, op)
            })
        });
        out.attempted += self.nvme_ops;
        out.ops += report.ops - report.errors;
        out.failed += report.errors + (self.nvme_ops - report.ops);
        if report.errors != 0 || report.ops != self.nvme_ops {
            out.errors.push(format!(
                "QD16 segment: {} of {} commands completed, {} errors",
                report.ops, self.nvme_ops, report.errors
            ));
        }
        let nvme_secs = report.makespan.saturating_since(report.epoch).as_secs_f64();
        out.virtual_secs += nvme_secs;
        out.digest = mix(out.digest, report.makespan.as_nanos());

        out.v
            .insert("commit_p50_vus", commits.interpolated(0.5) / 1e3);
        out.v.insert("tail_p99_vus", commits.p99() / 1e3);
        out.v
            .insert("model_ops_per_s", report.ops as f64 / nvme_secs);
        let ftl = nvme.ssd().ftl().stats();
        out.v.insert("ftl.waf", ftl.waf());
        out.v.insert("ftl.gc_pages_moved", ftl.gc_writes as f64);
        out.v.insert("ftl.erases", ftl.erases as f64);
        let stats = dev.stats();
        out.v.insert("core.pins", stats.pins as f64);
        out.v.insert("core.flushes", stats.flushes as f64);
        out.v.insert("core.syncs", stats.syncs as f64);
        out.v.insert("core.bytes_stored", stats.bytes_stored as f64);
        let ssd_stats = nvme.ssd().stats();
        out.v.insert(
            "ssd.prefetch_hit_ratio",
            ssd_stats.prefetch_hits as f64 / ssd_stats.read_cmds.max(1) as f64,
        );
        out
    }
}
