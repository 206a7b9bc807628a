//! A tier run pinned to literals: one fixed churn script on a
//! `TieredWal` (appends, hot and cold reads, promotions, evictions,
//! sweeps, finalizes and region wraps), with its `TierStats`, the
//! calendar's clamped posts and a fold of every operation's LSN and
//! completion instant fixed to the values the current writer produces.
//!
//! The differential properties compare the tier writer with a plain
//! tenant writer and with a flat log; a change that moved every instant
//! the same way would pass them, and these rows would not.

use std::cell::RefCell;
use std::rc::Rc;

use twob_core::{IoCalendar, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_cxl::tier::{TierPolicy, TierStats, TierWalConfig, TieredWal};
use twob_sim::{mix, SimRng, SimTime, FNV_BASIS};
use twob_wal::{Lsn, WalConfig};

/// Operations in the script: three appends, then one read.
const OPS: u64 = 4000;
/// 16 segments of 2 pages: a segment holds 37 records of 200 B.
const REGION_PAGES: u32 = 32;
const PAYLOAD_BYTES: usize = 200;
const RECORDS_PER_SEGMENT: u64 = 2 * 4096 / (PAYLOAD_BYTES as u64 + 16);
const SEGMENTS: u64 = REGION_PAGES as u64 / 2;

/// What a run pins: its tier counters, the calendar's clamped posts,
/// and the fold of `(lsn, completion ns)` over every append and read.
type Pin = (TierStats, u64, u64);

fn churn(front_end: RegionFrontEnd) -> Pin {
    let dev = TwoBSsd::small_for_tests();
    let pins = PinTable::new(dev.spec(), 1).expect("pin table");
    let (dev, cal, pins) = (
        Rc::new(RefCell::new(dev)),
        Rc::new(RefCell::new(IoCalendar::new())),
        Rc::new(RefCell::new(pins)),
    );
    let cfg = TierWalConfig {
        wal: WalConfig {
            region_pages: REGION_PAGES,
            ..WalConfig::default()
        },
        byte_front_end: front_end,
        ..TierWalConfig::default()
    };
    let mut wal = TieredWal::new(dev, cal.clone(), pins, TenantId(0), cfg).expect("tiered wal");
    let mut rng = SimRng::seed_from(40);
    let mut fold = FNV_BASIS;
    let mut now = SimTime::from_nanos(1_000_000);
    let mut appended = 0u64;
    for i in 0..OPS {
        if i % 4 == 3 {
            let newest = appended - 1;
            // Half the reads hit the newest records in the tail; the rest
            // pick any record of the newest 15 segments, so cold segments
            // absorb repeated reads and promote.
            let lsn = if rng.chance(0.5) {
                newest - rng.next_u64_below(8.min(appended))
            } else {
                let oldest_live = (newest / RECORDS_PER_SEGMENT).saturating_sub(SEGMENTS - 2)
                    * RECORDS_PER_SEGMENT;
                oldest_live + rng.next_u64_below(newest - oldest_live + 1)
            };
            let (payload, done) = wal.read(now, Lsn(lsn)).expect("read");
            assert_eq!(payload[..8], lsn.to_le_bytes(), "read of lsn {lsn}");
            fold = mix(mix(fold, lsn), done.as_nanos());
            now = done;
        } else {
            let mut payload = [appended as u8; PAYLOAD_BYTES];
            payload[..8].copy_from_slice(&appended.to_le_bytes());
            let out = wal.append(now, &payload).expect("append");
            fold = mix(mix(fold, out.lsn.0), out.commit_at.as_nanos());
            now = out.commit_at;
            appended += 1;
        }
        if i % 512 == 511 {
            // Every other sweep comes after an idle spell, so it demotes.
            if i % 1024 == 1023 {
                now += TierPolicy::DEMOTE_AFTER;
            }
            wal.sweep(now).expect("sweep");
        }
        if i % 1500 == 1499 {
            now = wal.finalize(now).expect("finalize");
        }
    }
    let clamped = cal.borrow().clamped_posts();
    (wal.stats(), clamped, fold)
}

fn stats(promotions: u64, demotions: u64, hot_hits: u64, cold_hits: u64) -> TierStats {
    TierStats {
        promotions,
        demotions,
        hot_hits,
        cold_hits,
    }
}

#[test]
fn cxl_tier_churn_is_pinned() {
    assert_eq!(
        churn(RegionFrontEnd::Cxl),
        (stats(152, 232, 538, 462), 148, 5498365124080876816)
    );
}

#[test]
fn mmio_tier_churn_is_pinned() {
    assert_eq!(
        churn(RegionFrontEnd::BaMmio),
        (stats(146, 226, 540, 460), 142, 6068125718431685567)
    );
}
