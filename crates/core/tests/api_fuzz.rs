//! Fuzz-style robustness: arbitrary API call sequences never panic, every
//! outcome is a clean `Ok`/`Err`, and the device's structural invariants
//! hold after every call — including across power cycles.

use proptest::prelude::*;
use twob_core::{EntryId, IoCalendar, IoOp, TwoBError, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::BlockDevice;

#[derive(Debug, Clone)]
enum Call {
    Pin {
        eid: u8,
        buf_page: u64,
        lba: u64,
        pages: u32,
    },
    Flush {
        eid: u8,
    },
    Sync {
        eid: u8,
    },
    SyncRange {
        eid: u8,
        offset: u64,
        len: u64,
    },
    EntryInfo {
        eid: u8,
    },
    MmioWrite {
        eid: u8,
        offset: u64,
        len: usize,
        fill: u8,
    },
    MmioRead {
        eid: u8,
        offset: u64,
        len: u64,
    },
    Dma {
        eid: u8,
        offset: u64,
        len: u64,
    },
    BlockWrite {
        lba: u64,
        fill: u8,
    },
    BlockRead {
        lba: u64,
    },
    Trim {
        lba: u64,
    },
    DeviceFlush,
    PowerCycle,
}

fn call_strategy() -> impl Strategy<Value = Call> {
    prop_oneof![
        3 => (0u8..10, 0u64..20, 0u64..64, 0u32..6)
            .prop_map(|(eid, buf_page, lba, pages)| Call::Pin { eid, buf_page, lba, pages }),
        2 => (0u8..10).prop_map(|eid| Call::Flush { eid }),
        2 => (0u8..10).prop_map(|eid| Call::Sync { eid }),
        1 => (0u8..10, 0u64..20_000, 0u64..9_000)
            .prop_map(|(eid, offset, len)| Call::SyncRange { eid, offset, len }),
        1 => (0u8..10).prop_map(|eid| Call::EntryInfo { eid }),
        3 => (0u8..10, 0u64..20_000, 0usize..300, any::<u8>())
            .prop_map(|(eid, offset, len, fill)| Call::MmioWrite { eid, offset, len, fill }),
        2 => (0u8..10, 0u64..20_000, 0u64..600)
            .prop_map(|(eid, offset, len)| Call::MmioRead { eid, offset, len }),
        1 => (0u8..10, 0u64..20_000, 0u64..9_000)
            .prop_map(|(eid, offset, len)| Call::Dma { eid, offset, len }),
        2 => (0u64..80, any::<u8>()).prop_map(|(lba, fill)| Call::BlockWrite { lba, fill }),
        2 => (0u64..80).prop_map(|lba| Call::BlockRead { lba }),
        1 => (0u64..80).prop_map(|lba| Call::Trim { lba }),
        1 => Just(Call::DeviceFlush),
        1 => Just(Call::PowerCycle),
    ]
}

/// A request whose `rel_offset + len` wraps `u64` is outside every entry:
/// all seven offset-taking entry points — direct and through the calendar
/// — reject it with the typed error instead of panicking or completing at
/// an instant ~10¹⁸ ns out.
#[test]
fn wrapping_offsets_are_outside_the_entry() {
    let mut dev = TwoBSsd::small_for_tests();
    let (eid, pin) = dev.ba_pin_auto(SimTime::ZERO, Lba(0), 1).expect("pin");
    let t = pin.complete_at;
    for (rel_offset, len) in [(u64::MAX, 2u64), (u64::MAX - 1, 4), (u64::MAX - 4095, 4096)] {
        let outside = Err(TwoBError::OutsideEntry {
            eid,
            offset: rel_offset,
            len,
        });
        let data = vec![0u8; len as usize];
        let direct = [
            dev.mmio_write(t, eid, rel_offset, &data).map(|_| ()),
            dev.cxl_store(t, eid, rel_offset, &data).map(|_| ()),
            dev.mmio_read(t, eid, rel_offset, len).map(|_| ()),
            dev.cxl_load(t, eid, rel_offset, len).map(|_| ()),
            dev.ba_read_dma(t, eid, rel_offset, len).map(|_| ()),
            dev.ba_sync_range(t, eid, rel_offset, len).map(|_| ()),
            dev.cxl_persist(t, eid, rel_offset, len).map(|_| ()),
        ];
        for (call, got) in direct.into_iter().enumerate() {
            assert_eq!(got, outside, "entry point {call} at {rel_offset}+{len}");
        }
        let mut cal = IoCalendar::new();
        let ops = [
            IoOp::BaSyncRange {
                eid,
                rel_offset,
                len,
            },
            IoOp::CxlPersist {
                eid,
                rel_offset,
                len,
            },
            IoOp::BaReadDma {
                eid,
                rel_offset,
                len,
            },
        ];
        for op in ops {
            cal.submit(t, op);
        }
        assert_eq!(cal.drive(&mut dev), 3);
        for done in cal.drain_completions() {
            assert_eq!(done.error.map(Err), Some(outside.clone()), "op {}", done.id);
            assert_eq!(done.complete_at, t, "errors complete at dispatch");
        }
    }
    assert_eq!(dev.stats().syncs + dev.stats().cxl_persists, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_api_sequences_preserve_invariants(
        calls in prop::collection::vec(call_strategy(), 1..80)
    ) {
        let mut dev = TwoBSsd::small_for_tests();
        let mut t = SimTime::ZERO;
        for call in calls {
            match call.clone() {
                Call::Pin { eid, buf_page, lba, pages } => {
                    if let Ok(done) = dev.ba_pin(t, EntryId(eid), buf_page * 4096, Lba(lba), pages) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::Flush { eid } => {
                    if let Ok(done) = dev.ba_flush(t, EntryId(eid)) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::Sync { eid } => {
                    if let Ok(done) = dev.ba_sync(t, EntryId(eid)) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::SyncRange { eid, offset, len } => {
                    if let Ok(done) = dev.ba_sync_range(t, EntryId(eid), offset, len) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::EntryInfo { eid } => {
                    let _ = dev.ba_entry_info(EntryId(eid));
                }
                Call::MmioWrite { eid, offset, len, fill } => {
                    let data = vec![fill; len];
                    if let Ok(done) = dev.mmio_write(t, EntryId(eid), offset, &data) {
                        t = t.max(done.retired_at);
                    }
                }
                Call::MmioRead { eid, offset, len } => {
                    if let Ok(done) = dev.mmio_read(t, EntryId(eid), offset, len) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::Dma { eid, offset, len } => {
                    if let Ok(done) = dev.ba_read_dma(t, EntryId(eid), offset, len) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::BlockWrite { lba, fill } => {
                    if let Ok(done) = dev.write_pages(t, Lba(lba), &vec![fill; 4096]) {
                        t = t.max(done);
                    }
                }
                Call::BlockRead { lba } => {
                    if let Ok(done) = dev.read_pages(t, Lba(lba), 1) {
                        t = t.max(done.complete_at);
                    }
                }
                Call::Trim { lba } => {
                    if let Ok(done) = dev.trim(t, Lba(lba), 1) {
                        t = t.max(done);
                    }
                }
                Call::DeviceFlush => {
                    t = t.max(dev.flush(t));
                }
                Call::PowerCycle => {
                    dev.power_loss(t);
                    t += SimDuration::from_millis(1);
                    dev.power_on(t);
                }
            }
            dev.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("after {call:?}: {e}")))?;
        }
    }
}
