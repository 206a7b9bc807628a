//! Differential property of the tier layer: tiering is a policy *around*
//! the tenant byte-window writer, not another writer.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use twob_core::{IoCalendar, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_cxl::tier::{TierPolicy, TierWalConfig, TieredWal};
use twob_sim::SimTime;
use twob_wal::{
    LogRecord, Lsn, SharedCalendar, SharedDevice, SharedPins, TenantBaWal, WalConfig, WalError,
    WalWriter,
};

fn rig() -> (SharedDevice, SharedCalendar, SharedPins) {
    let dev = TwoBSsd::small_for_tests();
    let pins = PinTable::new(dev.spec(), 1).expect("pin table");
    (
        Rc::new(RefCell::new(dev)),
        Rc::new(RefCell::new(IoCalendar::new())),
        Rc::new(RefCell::new(pins)),
    )
}

/// One step of a tier writer's life.
#[derive(Debug, Clone)]
enum TierOp {
    /// Append a payload of this many bytes of this fill.
    Append(usize, u8),
    /// Read the LSN this picks from `0..next_lsn + 2`.
    Read(u64),
    /// Sweep, after idling past the demotion threshold when set.
    Sweep(bool),
    Finalize,
}

fn tier_op() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        4 => (1usize..=2048, any::<u8>()).prop_map(|(len, fill)| TierOp::Append(len, fill)),
        4 => any::<u64>().prop_map(TierOp::Read),
        1 => any::<bool>().prop_map(TierOp::Sweep),
        1 => Just(TierOp::Finalize),
    ]
}

/// The reference log: every payload in LSN order, the segment the
/// one-window packing puts it in, and the tail's segment and fill.
#[derive(Default)]
struct RefLog {
    payloads: Vec<Vec<u8>>,
    segments: Vec<u64>,
    tail: u64,
    used: u64,
}

impl RefLog {
    /// The shape the property builds: an 8-page region in 2-page windows.
    const SEGMENTS: u64 = 4;
    const WINDOW_BYTES: u64 = 2 * 4096;

    fn append(&mut self, payload: Vec<u8>) {
        let len = LogRecord::new(Lsn(0), payload.clone()).encoded_len() as u64;
        if self.used + len > Self::WINDOW_BYTES {
            self.finalize();
        }
        self.used += len;
        self.segments.push(self.tail);
        self.payloads.push(payload);
    }

    fn finalize(&mut self) {
        if self.used > 0 {
            self.tail += 1;
            self.used = 0;
        }
    }

    fn live(&self, lsn: usize) -> bool {
        self.segments[lsn] + Self::SEGMENTS > self.tail
    }

    fn oldest(&self) -> u64 {
        (0..self.payloads.len())
            .find(|&lsn| self.live(lsn))
            .unwrap_or(self.payloads.len()) as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `TieredWal` reads back what a flat log says it holds, through
    /// every rotation, wrap, promotion, eviction, sweep and finalize:
    /// the exact payload of a live LSN, `CursorLag` naming the oldest
    /// live LSN for one whose segment the wrap overwrote, and
    /// `BadConfig` for one never appended. Every successful read is
    /// counted once, as a hot or a cold hit.
    #[test]
    fn tier_reads_match_a_flat_log(ops in prop::collection::vec(tier_op(), 1..160)) {
        for front_end in [RegionFrontEnd::Cxl, RegionFrontEnd::BaMmio] {
            let cfg = TierWalConfig {
                wal: WalConfig { region_pages: 8, ..WalConfig::default() },
                byte_front_end: front_end,
                ..TierWalConfig::default()
            };
            let (dev, cal, pins) = rig();
            let mut wal = TieredWal::new(dev, cal, pins, TenantId(0), cfg).expect("tiered wal");
            let mut reference = RefLog::default();
            let mut reads = 0u64;
            let mut t = SimTime::from_nanos(1_000_000);
            for op in &ops {
                match *op {
                    TierOp::Append(len, fill) => {
                        let payload = vec![fill; len];
                        t = wal.append(t, &payload).expect("tier append").commit_at;
                        reference.append(payload);
                    }
                    TierOp::Read(pick) => {
                        let next = reference.payloads.len() as u64;
                        let lsn = pick % (next + 2);
                        match wal.read(t, Lsn(lsn)) {
                            Ok((bytes, done)) => {
                                prop_assert!(lsn < next && reference.live(lsn as usize));
                                prop_assert_eq!(&bytes, &reference.payloads[lsn as usize]);
                                reads += 1;
                                t = done;
                            }
                            Err(WalError::CursorLag { requested, oldest }) => {
                                prop_assert!(lsn < next && !reference.live(lsn as usize));
                                prop_assert_eq!((requested, oldest), (lsn, reference.oldest()));
                            }
                            Err(WalError::BadConfig(_)) => prop_assert!(lsn >= next),
                            Err(err) => prop_assert!(false, "read {} failed: {:?}", lsn, err),
                        }
                    }
                    TierOp::Sweep(idle) => {
                        if idle {
                            t += TierPolicy::DEMOTE_AFTER;
                        }
                        wal.sweep(t).expect("sweep");
                    }
                    TierOp::Finalize => {
                        t = wal.finalize(t).expect("finalize");
                        reference.finalize();
                    }
                }
            }
            let stats = wal.stats();
            prop_assert_eq!(stats.hot_hits + stats.cold_hits, reads);
        }
    }

    /// With nothing promoted, a `TieredWal`'s tail is exactly a
    /// `TenantBaWal` on the same front-end: every append commits at the same
    /// instant and the two devices end with identical counters, through
    /// every rotation and region wrap.
    #[test]
    fn unpromoted_tier_tail_is_a_tenant_ba_wal(
        shapes in prop::collection::vec((1usize..8000, any::<u8>()), 1..96)
    ) {
        for front_end in [RegionFrontEnd::Cxl, RegionFrontEnd::BaMmio] {
            let wal_cfg = WalConfig { region_pages: 8, ..WalConfig::default() };
            let cfg = TierWalConfig {
                wal: wal_cfg,
                byte_front_end: front_end,
                ..TierWalConfig::default()
            };
            let (tier_dev, cal, pins) = rig();
            let mut tiered = TieredWal::new(tier_dev.clone(), cal, pins, TenantId(0), cfg)
                .expect("tiered wal");
            let (plain_dev, cal, pins) = rig();
            let mut plain = TenantBaWal::with_front_end(
                plain_dev.clone(),
                cal,
                pins,
                TenantId(0),
                wal_cfg,
                cfg.window_pages,
                front_end,
            )
            .expect("tenant wal");
            let mut t = SimTime::from_nanos(1_000_000);
            for (len, fill) in &shapes {
                let payload = vec![*fill; *len];
                let want = plain.append_commit(t, &payload).expect("tenant append");
                prop_assert_eq!(tiered.append(t, &payload).expect("tier append"), want);
                t = want.commit_at;
            }
            prop_assert!(tiered.promoted_segments().is_empty());
            let (tier_dev, plain_dev) = (tier_dev.borrow(), plain_dev.borrow());
            prop_assert_eq!(tier_dev.stats(), plain_dev.stats());
            prop_assert_eq!(tier_dev.ssd().stats(), plain_dev.ssd().stats());
        }
    }
}
