//! The NVMe closed-loop drive, re-expressed on [`ServiceDriver::run_nvme`].
//!
//! These tests moved from `twob-ssd`'s queue module when its bespoke
//! `run_closed_loop` event loop was folded into the serving stack: the
//! device crate keeps the queue-pair primitives (submit / handle / drain),
//! and the workload layer owns the loop that keeps pairs at depth.

use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{NvmeOp, NvmeSsd, QueueConfig, Ssd, SsdConfig};
use twob_workloads::ServiceDriver;

fn preloaded(pages: u64, qcfg: QueueConfig) -> NvmeSsd {
    let mut dev = NvmeSsd::new(Ssd::new(SsdConfig::ull_ssd().small()), qcfg);
    let mut t = SimTime::ZERO;
    for i in 0..pages {
        t = dev
            .ssd_mut()
            .write(t, Lba(i), &vec![i as u8; 4096])
            .unwrap();
    }
    let settled = dev.ssd_mut().flush(t);
    // Park past the preload so measurements start on an idle device.
    assert!(settled < SimTime::from_nanos(100_000_000));
    dev
}

#[test]
fn qd1_read_matches_synchronous_path() {
    let start = SimTime::from_nanos(100_000_000);
    let mut queued = preloaded(8, QueueConfig::new(1, 1));
    let report = ServiceDriver::run_nvme(&mut queued, start, 8, |i| {
        (
            0,
            NvmeOp::Read {
                lba: Lba(i % 8),
                pages: 1,
            },
        )
    });
    // The same reads through the synchronous API, each issued at the
    // previous completion: identical spans, because the queued path runs
    // the very same fetch/NAND/transfer stages on the same servers.
    let mut sync = preloaded(8, QueueConfig::new(1, 1));
    let mut t = start;
    for i in 0..8u64 {
        t = sync.ssd_mut().read(t, Lba(i % 8), 1).unwrap().complete_at;
    }
    assert_eq!(report.ops, 8);
    assert_eq!(report.errors, 0);
    assert_eq!(report.makespan, t);
}

#[test]
fn deeper_queue_overlaps_stages() {
    let start = SimTime::from_nanos(100_000_000);
    let run = |depth: usize| {
        let mut dev = preloaded(64, QueueConfig::new(1, depth));
        ServiceDriver::run_nvme(&mut dev, start, 64, |i| {
            (
                0,
                NvmeOp::Read {
                    lba: Lba(i % 64),
                    pages: 1,
                },
            )
        })
    };
    let qd1 = run(1);
    let qd16 = run(16);
    assert_eq!(qd1.ops, 64);
    assert_eq!(qd16.ops, 64);
    assert!(
        qd16.bytes_per_sec() > qd1.bytes_per_sec(),
        "QD16 read bandwidth {:.1} MB/s should beat QD1 {:.1} MB/s",
        qd16.mb_per_sec(),
        qd1.mb_per_sec()
    );
}

#[test]
fn errors_surface_in_cq_entries() {
    let mut dev = NvmeSsd::new(
        Ssd::new(SsdConfig::ull_ssd().small()),
        QueueConfig::default(),
    );
    let report = ServiceDriver::run_nvme(&mut dev, SimTime::ZERO, 1, |_| {
        (
            0,
            NvmeOp::Read {
                lba: Lba(0),
                pages: 1,
            },
        ) // unmapped
    });
    assert_eq!(report.ops, 1);
    assert_eq!(report.errors, 1);
    assert_eq!(report.bytes, 0);
}

#[test]
fn writes_and_flush_complete_in_order_queued() {
    let mut dev = NvmeSsd::new(
        Ssd::new(SsdConfig::ull_ssd().small()),
        QueueConfig::new(1, 4),
    );
    let report = ServiceDriver::run_nvme(&mut dev, SimTime::ZERO, 5, |i| {
        if i < 4 {
            (
                0,
                NvmeOp::Write {
                    lba: Lba(i),
                    data: vec![i as u8; 4096],
                },
            )
        } else {
            (0, NvmeOp::Flush)
        }
    });
    assert_eq!(report.ops, 5);
    assert_eq!(report.errors, 0);
    assert_eq!(report.bytes, 4 * 4096);
    // Data landed: read back through the synchronous API.
    let r = dev.ssd_mut().read(report.makespan, Lba(2), 1).unwrap();
    assert_eq!(r.data, vec![2u8; 4096]);
}

#[test]
fn closed_loop_is_deterministic() {
    let run = || {
        let mut dev = preloaded(16, QueueConfig::new(2, 8));
        let report = ServiceDriver::run_nvme(&mut dev, SimTime::from_nanos(100_000_000), 64, |i| {
            (
                (i % 2) as usize,
                NvmeOp::Read {
                    lba: Lba(i % 16),
                    pages: 1,
                },
            )
        });
        (
            report.ops,
            report.bytes,
            report.makespan,
            report.latency.percentile(0.99),
        )
    };
    assert_eq!(run(), run());
}
