//! Placement-differential property tests of the die-placed
//! [`ShardedIoCalendar`]: for an arbitrary mixed BA/block workload with
//! chained cross-group follow-ups, *any* assignment of die groups to *any*
//! number of shards — driven sequentially, in parallel at several thread
//! counts, or under the lock-step oracle — must produce byte-identical
//! per-group completion digests, identical per-group [`LatencyBreakdown`]
//! totals, and an identical host observation digest.
//!
//! Times and chain delays are salted by operation id so no two causally
//! unrelated operations collide on the same group at the same instant;
//! every remaining observable is therefore fully determined by the
//! workload, not by sharding.

use proptest::prelude::*;
use twob_core::{EntryId, GroupPlacement, IoOp, ShardedIoCalendar, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{LatencyBreakdown, SimDuration, SimTime};
use twob_ssd::SsdConfig;

const IC: SimDuration = SimDuration::from_micros(2);

/// One die-sliced device per group with a BA entry pinned on LBA 0.
fn sliced_devices(groups: usize) -> (Vec<TwoBSsd>, Vec<EntryId>) {
    let cfg = SsdConfig::base_2b().small().die_slice(groups as u32);
    let mut devices = Vec::new();
    let mut eids = Vec::new();
    for _ in 0..groups {
        let mut dev = TwoBSsd::new(cfg.clone(), TwoBSpec::small_for_tests());
        let (eid, _) = dev.ba_pin_auto(SimTime::ZERO, Lba(0), 1).unwrap();
        devices.push(dev);
        eids.push(eid);
    }
    (devices, eids)
}

type OpSeed = (usize, u8, u64, bool);

/// Replays the seeded workload identically regardless of placement: op
/// times are salted by index only, chain delays by the chaining index.
fn seed_workload(cal: &mut ShardedIoCalendar, eids: &[EntryId], seeds: &[OpSeed]) {
    let groups = cal.groups();
    for (i, &(group_sel, kind, lba_sel, chain)) in seeds.iter().enumerate() {
        let g = group_sel % groups;
        let at = SimTime::from_nanos(1_000_000 + 53_000 * i as u64 + 13 * lba_sel);
        let lba = Lba(8 + lba_sel % 16);
        let id = match kind % 6 {
            0 => cal.submit(
                at,
                g,
                IoOp::BlockWrite {
                    lba,
                    data: vec![i as u8; 4096].into(),
                },
            ),
            1 => cal.submit(at, g, IoOp::BlockRead { lba, pages: 1 }),
            2 => cal.submit(at, g, IoOp::BaSync { eid: eids[g] }),
            3 => cal.submit(
                at,
                g,
                IoOp::BaSyncRange {
                    eid: eids[g],
                    rel_offset: 0,
                    len: 64,
                },
            ),
            4 => cal.submit(
                at,
                g,
                IoOp::BaReadDma {
                    eid: eids[g],
                    rel_offset: 0,
                    len: 64,
                },
            ),
            _ => cal.submit(at, g, IoOp::BlockFlush),
        };
        if chain {
            // A follow-up on the *next* group, gated on this completion:
            // cross-shard under most placements. The id-salted delay keeps
            // chained start instants unique per chain.
            cal.submit_after(
                id,
                SimDuration::from_nanos(5_000 + 7_001 * i as u64),
                (g + 1) % groups,
                IoOp::BlockRead { lba, pages: 1 },
            );
        }
    }
}

type Fingerprint = (Vec<(usize, u64)>, Vec<(usize, LatencyBreakdown)>, u64, u64);

/// Runs the workload under one placement and drive mode and fingerprints
/// every observable: group digests, breakdown totals, host digest,
/// completion count. Also returns the round count for schedule checks.
fn drive(
    seeds: &[OpSeed],
    groups: usize,
    placement: GroupPlacement,
    mode: u8,
) -> (Fingerprint, u64) {
    let (devices, eids) = sliced_devices(groups);
    let mut cal = ShardedIoCalendar::new(devices, placement, IC);
    seed_workload(&mut cal, &eids, seeds);
    match mode {
        0 => cal.run(),
        1 => cal.run_parallel(2),
        2 => cal.run_parallel(4),
        _ => cal.run_lockstep(),
    }
    assert_eq!(cal.clamped_posts(), 0, "stale cross-shard delivery");
    assert_eq!(cal.unresolved_chains(), 0, "chain parent never observed");
    let fp = (
        cal.group_digests(),
        cal.breakdown_totals(),
        cal.host_digest(),
        cal.completed(),
    );
    (fp, cal.rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharding is purely an execution strategy: group digests, latency
    /// totals, and the host observation log are invariant across die/shard
    /// placements, drive modes, and thread counts.
    #[test]
    fn placement_and_mode_never_change_observables(
        groups_pow in 1u32..3,
        seeds in prop::collection::vec(
            (0usize..8, 0u8..6, 0u64..32, any::<bool>()),
            1..28,
        ),
        assignment in prop::collection::vec(0usize..4, 4),
    ) {
        let groups = 1 << groups_pow; // 2 or 4
        let shards = 1 + assignment.iter().max().unwrap() % 4;
        let random = GroupPlacement::new(
            (0..groups).map(|g| assignment[g % 4] % shards).collect(),
            shards,
        );

        // Baseline: everything on one shard, sequential — semantically the
        // plain single-calendar model.
        let (baseline, _) =
            drive(&seeds, groups, GroupPlacement::round_robin(groups, 1), 0);

        for placement in [
            GroupPlacement::round_robin(groups, 2),
            GroupPlacement::round_robin(groups, groups),
            random,
        ] {
            let (seq, seq_rounds) = drive(&seeds, groups, placement.clone(), 0);
            prop_assert_eq!(
                &seq, &baseline,
                "sequential run under {:?} diverged from single-shard baseline",
                &placement
            );
            for mode in [1u8, 2] {
                let (par, par_rounds) = drive(&seeds, groups, placement.clone(), mode);
                prop_assert_eq!(
                    &par, &baseline,
                    "parallel mode {} under {:?} diverged",
                    mode, &placement
                );
                prop_assert_eq!(
                    par_rounds, seq_rounds,
                    "parallel must replay the sequential schedule exactly"
                );
            }
            let (lock, lock_rounds) = drive(&seeds, groups, placement.clone(), 3);
            prop_assert_eq!(
                &lock, &baseline,
                "lock-step oracle under {:?} diverged",
                &placement
            );
            prop_assert!(
                seq_rounds <= lock_rounds,
                "adaptive batching used more rounds ({} vs {})",
                seq_rounds, lock_rounds
            );
        }
    }
}
