//! Device-level readback digests: every byte the block device returns and
//! the instant it returns it, under seeded overwrite/trim/read churn that
//! keeps garbage collection relocating, then across a power cut.
//!
//! The four digests pin that nothing *readable* — by the host, by a GC
//! relocation, or by the volatile cache's rollback — depends on a page the
//! FTL has invalidated: they were captured while the NAND array still held
//! the image of every overwritten page until its block's erase, and must
//! not move now that an invalidated page's bytes are released at once.

use twob_ftl::Lba;
use twob_sim::{mix, mix_bytes, SimDuration, SimRng, SimTime, FNV_BASIS};
use twob_ssd::{Ssd, SsdConfig, SsdError};

const LBAS: u64 = 64;
const OPS: u64 = 5_000;

/// Folds one read into `h` — its bytes and completion instant, or the fact
/// that the LBA is unmapped — and advances `t` past it.
fn fold_read(ssd: &mut Ssd, t: &mut SimTime, h: u64, lba: u64) -> u64 {
    match ssd.read(*t, Lba(lba), 1) {
        Ok(read) => {
            *t = read.complete_at;
            mix(mix_bytes(mix(h, lba), &read.data), t.as_nanos())
        }
        Err(SsdError::Unmapped(_)) => mix(mix(h, lba), u64::MAX),
        Err(other) => panic!("read of lba {lba} failed: {other}"),
    }
}

/// Runs the seeded mix on `cfg`, cuts power at the acknowledgement of an
/// 8-write burst, restores it and reads every LBA back. Returns the digest
/// of every read along the way.
fn churn_digest(cfg: SsdConfig) -> u64 {
    let mut ssd = Ssd::new(cfg);
    let mut rng = SimRng::seed_from(0x2B_55D);
    let mut t = SimTime::ZERO;
    let mut h = FNV_BASIS;
    for i in 0..OPS {
        let lba = rng.next_u64_below(LBAS);
        // Nine writes and trims in ten land on a hot eighth of the range,
        // so blocks mix soon-stale and long-valid pages and GC has valid
        // pages to relocate.
        let target = if rng.chance(0.9) {
            lba % (LBAS / 8)
        } else {
            lba
        };
        match rng.next_u64_below(10) {
            0..=5 => {
                // Every image is unique, so stale bytes cannot pass for
                // fresh ones.
                let mut page = vec![(i % 251) as u8; 4096];
                page[..8].copy_from_slice(&i.to_le_bytes());
                t = ssd.write(t, Lba(target), &page).expect("write");
            }
            6 => t = ssd.trim(t, Lba(target), 1).expect("trim"),
            _ => h = fold_read(&mut ssd, &mut t, h, lba),
        }
    }
    // A burst acknowledged from the cache and still destaging at the cut:
    // a volatile cache rolls every one of these back to what the medium
    // held before, from the old data it snapshotted.
    for lba in 0..8 {
        t = ssd.write(t, Lba(lba), &vec![0xC7; 4096]).expect("burst");
    }
    ssd.power_loss(t);
    t += SimDuration::from_millis(1);
    ssd.power_on(t);
    for lba in 0..LBAS {
        h = fold_read(&mut ssd, &mut t, h, lba);
    }
    let stats = ssd.ftl().stats();
    assert!(stats.erases > 0, "the mix never collected garbage");
    assert!(stats.gc_writes > 0, "GC never relocated a valid page");
    h
}

#[test]
fn readback_digests_are_pinned_in_both_gc_modes_and_across_a_power_cut() {
    let inline = SsdConfig::base_2b().small();
    let background = inline.clone().with_background_gc();
    // No shipped profile has a volatile cache; the rollback path is only
    // reachable by clearing the flag.
    let volatile = |mut cfg: SsdConfig| {
        cfg.capacitor_backed_cache = false;
        cfg
    };
    let got = [
        churn_digest(inline.clone()),
        churn_digest(background.clone()),
        churn_digest(volatile(inline)),
        churn_digest(volatile(background)),
    ];
    // The mix never flushes, so the cache kind shows only in the rollback.
    assert_ne!(got[0], got[2], "the inline-GC cut rolled nothing back");
    assert_ne!(got[1], got[3], "the background-GC cut rolled nothing back");
    assert_eq!(
        got,
        [
            0x1D6B_C3C5_CC99_EC11,
            0x6AC5_8155_7B25_30EA,
            0x4DB8_2F86_EC3A_8F6E,
            0xE421_A352_0A30_9E0D,
        ],
        "readback digest moved (inline, background, inline volatile, \
         background volatile): {got:#018X?}"
    );
}

/// Submits seeded bursts of overwrites, every write of a burst at the same
/// instant, into a 256-slot write cache. A burst longer than the cache
/// fills it, so writes wait for the earliest-free slot while destages end
/// out of order across dies; a slot choice that is not earliest-free (a
/// FIFO of free instants, say) moves the digest. Returns the digest of
/// every write's acknowledgement instant and latency breakdown, then of
/// the FTL, device and wear counters and the instant the device goes idle.
fn ack_timeline_digest(mut cfg: SsdConfig) -> u64 {
    const BURSTS: u64 = 40;
    cfg.write_cache_pages = 256;
    let mut ssd = Ssd::new(cfg);
    let lbas = ssd.capacity_pages();
    let mut rng = SimRng::seed_from(0xAC_4B);
    let mut t = SimTime::ZERO;
    let mut h = FNV_BASIS;
    let mut slot_waits = 0;
    for burst in 0..BURSTS {
        for i in 0..rng.next_u64_below(400) {
            let lba = rng.next_u64_below(lbas);
            let target = if rng.chance(0.9) {
                lba % (lbas / 8)
            } else {
                lba
            };
            let mut page = vec![burst as u8; 4096];
            page[..8].copy_from_slice(&i.to_le_bytes());
            let ack = ssd.write(t, Lba(target), &page).expect("write");
            let b = ssd.last_breakdown();
            slot_waits += u64::from(b.slot_wait > SimDuration::ZERO);
            h = [
                ack.as_nanos(),
                b.firmware.as_nanos(),
                b.slot_wait.as_nanos(),
                b.queue_wait.as_nanos(),
                b.gc_wait.as_nanos(),
                b.nand_busy.as_nanos(),
                b.xfer.as_nanos(),
            ]
            .into_iter()
            .fold(h, mix);
        }
        t += SimDuration::from_micros(rng.next_u64_below(2_000));
    }
    let idle = ssd.quiesce_background();
    let ftl = ssd.ftl().stats();
    let dev = ssd.stats();
    let wear = ssd.ftl().nand().wear_report();
    let (started, abandoned) = ssd.ftl().gc_job_counts();
    assert!(slot_waits > 0, "no write ever waited for a cache slot");
    assert!(ftl.gc_writes > 0, "GC never relocated a valid page");
    [
        ftl.host_reads,
        ftl.host_writes,
        ftl.gc_reads,
        ftl.gc_writes,
        ftl.erases,
        ftl.trims,
        ftl.free_blocks,
        ftl.mapped_lbas,
        dev.read_cmds,
        dev.write_cmds,
        dev.pages_read,
        dev.pages_written,
        dev.prefetch_hits,
        dev.prefetched_pages,
        dev.flushes,
        dev.gated_writes,
        dev.internal_pages,
        wear.programs,
        wear.reads,
        wear.erases,
        wear.max_erase_count,
        wear.min_erase_count,
        wear.bad_blocks,
        started,
        abandoned,
        idle.as_nanos(),
    ]
    .into_iter()
    .fold(h, mix)
}

#[test]
fn write_ack_timeline_is_pinned() {
    let inline = SsdConfig::base_2b().small();
    let background = inline.clone().with_background_gc();
    let volatile = |mut cfg: SsdConfig| {
        cfg.capacitor_backed_cache = false;
        cfg
    };
    let got = [
        ack_timeline_digest(inline.clone()),
        ack_timeline_digest(background.clone()),
        ack_timeline_digest(volatile(inline)),
        ack_timeline_digest(volatile(background)),
    ];
    assert_eq!(
        got,
        [
            0xDC12_4F4A_37DE_9CDE,
            0xB721_916B_3725_C8C8,
            0x9E4E_D096_64EE_5DC4,
            0x2255_0E96_6E7C_A0F1,
        ],
        "write-ack timeline moved (inline, background, inline volatile, \
         background volatile): {got:#018X?}"
    );
}
