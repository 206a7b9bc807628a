//! Differential property of the tier layer: tiering is a policy *around*
//! the tenant byte-window writer, not another writer.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use twob_core::{IoCalendar, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_cxl::tier::{TierWalConfig, TieredWal};
use twob_sim::SimTime;
use twob_wal::{SharedCalendar, SharedDevice, SharedPins, TenantBaWal, WalConfig, WalWriter};

fn rig() -> (SharedDevice, SharedCalendar, SharedPins) {
    let dev = TwoBSsd::small_for_tests();
    let pins = PinTable::new(dev.spec(), 1).expect("pin table");
    (
        Rc::new(RefCell::new(dev)),
        Rc::new(RefCell::new(IoCalendar::new())),
        Rc::new(RefCell::new(pins)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
