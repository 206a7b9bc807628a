//! Property-based tests: the FTL behaves exactly like a flat map of pages
//! under arbitrary write/trim/read churn, GC included.

use std::collections::HashMap;

use proptest::prelude::*;
use twob_ftl::{DieId, FtlConfig, FtlError, Lba, PageMappedFtl};
use twob_nand::{FlashClass, NandArray, NandGeometry};

#[derive(Debug, Clone)]
enum Op {
    Write { lba: u64, fill: u8 },
    Trim { lba: u64 },
    Read { lba: u64 },
}

fn op_strategy(lbas: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..lbas, any::<u8>()).prop_map(|(lba, fill)| Op::Write { lba, fill }),
        1 => (0..lbas).prop_map(|lba| Op::Trim { lba }),
        2 => (0..lbas).prop_map(|lba| Op::Read { lba }),
    ]
}

/// One step of a GC-preemption interleaving: foreground traffic mixed with
/// externally scheduled background-GC ticks.
#[derive(Debug, Clone)]
enum GcOp {
    Write { lba: u64, fill: u8 },
    Read { lba: u64 },
    Start,
    Step { die: usize },
    Abandon { die: usize },
}

fn gc_op_strategy(lbas: u64) -> impl Strategy<Value = GcOp> {
    prop_oneof![
        6 => (0..lbas, any::<u8>()).prop_map(|(lba, fill)| GcOp::Write { lba, fill }),
        2 => (0..lbas).prop_map(|lba| GcOp::Read { lba }),
        2 => Just(GcOp::Start),
        4 => (0usize..4).prop_map(|die| GcOp::Step { die }),
        1 => (0usize..4).prop_map(|die| GcOp::Abandon { die }),
    ]
}

/// Enumerates the four dies of the `small_test` geometry (2 channels × 2
/// ways).
fn die(idx: usize) -> DieId {
    DieId {
        channel: (idx / 2) as u32,
        way: (idx % 2) as u32,
    }
}

fn fresh_ftl() -> PageMappedFtl {
    let geom = NandGeometry::small_test();
    let nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
    PageMappedFtl::new(
        nand,
        FtlConfig {
            over_provisioning: 0.25,
            gc_low_watermark: 3,
            gc_high_watermark: 5,
            reserved_blocks: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The FTL is observationally a `HashMap<Lba, u8>` — even while GC
    /// relocates pages underneath — and the NAND array holds the bytes of
    /// exactly the mapped pages after every op: a stale or missing reverse
    /// entry would keep or drop one.
    #[test]
    fn ftl_matches_flat_map(ops in prop::collection::vec(op_strategy(48), 1..400)) {
        let mut ftl = fresh_ftl();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Write { lba, fill } => {
                    ftl.write(Lba(lba), &vec![fill; 4096]).expect("write");
                    model.insert(lba, fill);
                }
                Op::Trim { lba } => {
                    ftl.trim(Lba(lba)).expect("trim");
                    model.remove(&lba);
                }
                Op::Read { lba } => match (model.get(&lba), ftl.read(Lba(lba))) {
                    (Some(&fill), Ok(read)) => {
                        prop_assert!(read.data.iter().all(|&b| b == fill));
                    }
                    (None, Err(FtlError::Unmapped(_))) => {}
                    (expected, got) => {
                        return Err(TestCaseError::fail(format!(
                            "model {expected:?}, ftl {:?}",
                            got.map(|r| r.data[0])
                        )));
                    }
                },
            }
            prop_assert_eq!(ftl.nand().resident_pages() as u64, ftl.stats().mapped_lbas);
        }
        // Final sweep: every mapped LBA reads back its model value.
        for (lba, fill) in &model {
            let read = ftl.read(Lba(*lba)).expect("final read");
            prop_assert!(read.data.iter().all(|b| b == fill));
        }
        prop_assert_eq!(ftl.stats().mapped_lbas, model.len() as u64);
    }

    /// WAF is always ≥ 1 and the free pool never dips below the GC low
    /// watermark after a write returns.
    #[test]
    fn gc_maintains_watermark(ops in prop::collection::vec((0u64..48, any::<u8>()), 1..500)) {
        let mut ftl = fresh_ftl();
        for (lba, fill) in ops {
            ftl.write(Lba(lba), &vec![fill; 4096]).expect("write");
            let stats = ftl.stats();
            prop_assert!(stats.waf() >= 1.0);
            prop_assert!(
                stats.free_blocks >= 3,
                "free pool {} below watermark", stats.free_blocks
            );
        }
    }

    /// GC preemption: arbitrary interleavings of `gc_step`, `gc_abandon`,
    /// and foreground writes preserve WAF accounting and never lose a live
    /// page. Statistics are charged at step execution, so every relocation
    /// pairs exactly one GC read with one GC write no matter where the job
    /// is preempted or abandoned. A relocation releases the copy it moved,
    /// so the NAND array holds exactly the mapped pages after every op.
    #[test]
    fn gc_preemption_never_loses_a_page(ops in prop::collection::vec(gc_op_strategy(48), 1..600)) {
        let mut ftl = fresh_ftl();
        ftl.set_background_gc(true);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                GcOp::Write { lba, fill } => {
                    // Background mode still has the emergency inline path,
                    // so foreground writes never fail for space.
                    ftl.write(Lba(lba), &vec![fill; 4096]).expect("write");
                    model.insert(lba, fill);
                }
                GcOp::Read { lba } => match (model.get(&lba), ftl.read(Lba(lba))) {
                    (Some(&fill), Ok(read)) => {
                        prop_assert!(read.data.iter().all(|&b| b == fill));
                    }
                    (None, Err(FtlError::Unmapped(_))) => {}
                    (expected, got) => {
                        return Err(TestCaseError::fail(format!(
                            "mid-GC read: model {expected:?}, ftl {:?}",
                            got.map(|r| r.data[0])
                        )));
                    }
                },
                GcOp::Start => {
                    // Ok(Some(_)): job planned. Ok(None): all candidate dies
                    // busy. Err(OutOfSpace): nothing reclaimable right now.
                    // All are legitimate outcomes of a background tick.
                    let _ = ftl.gc_start();
                }
                GcOp::Step { die: d } => {
                    // Err(OutOfSpace) leaves the job in flight for a retry;
                    // the next foreground write's emergency path unwedges it.
                    let had_job = ftl.gc_job_on(die(d)).is_some();
                    if let Ok(result) = ftl.gc_step(die(d)) {
                        prop_assert_eq!(result.is_some(), had_job);
                        if result.is_some_and(|r| r.done) {
                            prop_assert!(ftl.gc_job_on(die(d)).is_none());
                        }
                    }
                }
                GcOp::Abandon { die: d } => {
                    let had_job = ftl.gc_job_on(die(d)).is_some();
                    prop_assert_eq!(ftl.gc_abandon(die(d)), had_job);
                    prop_assert!(ftl.gc_job_on(die(d)).is_none());
                }
            }
            let stats = ftl.stats();
            prop_assert!(stats.waf() >= 1.0);
            // Every relocation is one GC read paired with one GC program;
            // preemption and abandonment must not break the pairing.
            prop_assert_eq!(stats.gc_reads, stats.gc_writes);
            let (started, abandoned) = ftl.gc_job_counts();
            prop_assert!(abandoned <= started);
            prop_assert_eq!(ftl.nand().resident_pages() as u64, stats.mapped_lbas);
        }
        // No live page was lost: every model LBA reads back its fill, and
        // nothing extra stayed mapped.
        for (lba, fill) in &model {
            let read = ftl.read(Lba(*lba)).expect("final read");
            prop_assert!(read.data.iter().all(|b| b == fill));
        }
        prop_assert_eq!(ftl.stats().mapped_lbas, model.len() as u64);
    }

    /// Out-of-range LBAs are always rejected, never panicking.
    #[test]
    fn out_of_range_is_graceful(offset in 0u64..1_000_000) {
        let mut ftl = fresh_ftl();
        let beyond = Lba(ftl.exported_pages() + offset);
        let write_rejected = matches!(
            ftl.write(beyond, &vec![0u8; 4096]),
            Err(FtlError::LbaOutOfRange { .. })
        );
        let read_rejected = matches!(ftl.read(beyond), Err(FtlError::LbaOutOfRange { .. }));
        let trim_rejected = matches!(ftl.trim(beyond), Err(FtlError::LbaOutOfRange { .. }));
        prop_assert!(write_rejected);
        prop_assert!(read_rejected);
        prop_assert!(trim_rejected);
    }
}
