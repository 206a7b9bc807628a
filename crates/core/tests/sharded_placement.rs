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
use twob_sim::{LatencyBreakdown, ShardDrive, SimDuration, SimTime};
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
    mode: ShardDrive,
) -> (Fingerprint, u64) {
    let (devices, eids) = sliced_devices(groups);
    let mut cal = ShardedIoCalendar::new(devices, placement, IC);
    seed_workload(&mut cal, &eids, seeds);
    cal.run_with(mode);
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
            drive(&seeds, groups, GroupPlacement::round_robin(groups, 1), ShardDrive::Adaptive);

        for placement in [
            GroupPlacement::round_robin(groups, 2),
            GroupPlacement::round_robin(groups, groups),
            random,
        ] {
            let (seq, seq_rounds) = drive(&seeds, groups, placement.clone(), ShardDrive::Adaptive);
            prop_assert_eq!(
                &seq, &baseline,
                "sequential run under {:?} diverged from single-shard baseline",
                &placement
            );
            for mode in [ShardDrive::Parallel(2), ShardDrive::Parallel(4)] {
                let (par, par_rounds) = drive(&seeds, groups, placement.clone(), mode);
                prop_assert_eq!(
                    &par, &baseline,
                    "parallel mode {:?} under {:?} diverged",
                    mode, &placement
                );
                prop_assert_eq!(
                    par_rounds, seq_rounds,
                    "parallel must replay the sequential schedule exactly"
                );
            }
            let (lock, lock_rounds) = drive(&seeds, groups, placement.clone(), ShardDrive::Lockstep);
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

/// One submission of a fed-versus-seeded program: an operation, and the
/// follow-up it chains (delay, group, op), if any.
type Step = (SimTime, usize, IoOp, Option<(SimDuration, usize, IoOp)>);

/// Groups that host chain parents; each chains onto group `g + 1`, which
/// hosts no parent. The parents' completion instants therefore do not
/// depend on anything later added to groups 1 and 3.
const PARENT_GROUPS: [usize; 2] = [0, 2];

/// A four-group program from `seeds`: block write + flush pairs at one
/// instant, reads, BA syncs, and chains from groups 0 and 2 onto the next
/// group.
fn fed_program(eids: &[EntryId], seeds: &[OpSeed]) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, &(group_sel, kind, lba_sel, chain)) in seeds.iter().enumerate() {
        let g = group_sel % 4;
        let at = SimTime::from_nanos(1_000_000 + 53_000 * i as u64 + 13 * lba_sel);
        let lba = Lba(8 + lba_sel % 16);
        let follow = (chain && PARENT_GROUPS.contains(&g)).then(|| {
            let delay = SimDuration::from_nanos(5_000 + 7_001 * i as u64);
            (delay, g + 1, IoOp::BlockRead { lba, pages: 1 })
        });
        let op = match kind % 4 {
            0 => {
                let data = vec![i as u8; 4096].into();
                steps.push((at, g, IoOp::BlockWrite { lba, data }, None));
                IoOp::BlockFlush
            }
            1 => IoOp::BlockRead { lba, pages: 1 },
            2 => IoOp::BaSync { eid: eids[g] },
            _ => IoOp::BaSyncRange {
                eid: eids[g],
                rel_offset: 0,
                len: 64,
            },
        };
        steps.push((at, g, op, follow));
    }
    steps
}

/// One time-ordered feed of `(start, id, group, op)` per shard.
type Feeds = Vec<Vec<(SimTime, u64, usize, IoOp)>>;

/// Builds the calendar and submits `steps` whole (`fed == false`) or
/// registers only their chains and returns one time-ordered feed per
/// shard. Ids come out the same either way.
fn submit_steps(
    steps: &[Step],
    placement: &GroupPlacement,
    fed: bool,
) -> (ShardedIoCalendar, Feeds) {
    let (devices, _) = sliced_devices(4);
    let mut cal = ShardedIoCalendar::new(devices, placement.clone(), IC);
    let mut feeds = vec![Vec::new(); placement.shards()];
    for (at, group, op, follow) in steps.iter().cloned() {
        let id = if fed {
            let id = cal.reserve_id();
            feeds[placement.shard_of(group)].push((at, id, group, op));
            id
        } else {
            cal.submit(at, group, op)
        };
        if let Some((delay, g, op)) = follow {
            cal.submit_after(id, delay, g, op);
        }
    }
    for feed in &mut feeds {
        feed.sort_by_key(|&(at, ..)| at); // Stable: submission order on ties.
    }
    (cal, feeds)
}

/// Everything a fed run must reproduce of the seeded one.
type FedCheck = (Fingerprint, u64, u64, u64);

fn run_steps(steps: &[Step], placement: &GroupPlacement, fed: bool, drive: ShardDrive) -> FedCheck {
    let (mut cal, feeds) = submit_steps(steps, placement, fed);
    if fed {
        cal.run_fed(feeds, drive);
    } else {
        cal.run_with(drive);
    }
    assert_eq!(cal.clamped_posts(), 0, "stale cross-shard delivery");
    assert_eq!(cal.unresolved_chains(), 0, "chain parent never observed");
    assert!(
        cal.observed_log()
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
        "host log not in (instant, id) order"
    );
    let fp = (
        cal.group_digests(),
        cal.breakdown_totals(),
        cal.host_digest(),
        cal.completed(),
    );
    (fp, cal.rounds(), cal.batched_rounds(), cal.processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Feeding each shard its operations as it reaches them is the run
    /// that submits them whole, under every drive and placement: same
    /// observables, rounds and event count. The program is extended so
    /// that every chained follow-up is released at the very instant a fed
    /// operation starts on its group, the tie a feed must win.
    #[test]
    fn fed_runs_equal_seeded_runs(
        seeds in prop::collection::vec((0usize..8, 0u8..4, 0u64..32, any::<bool>()), 4..24),
    ) {
        let (_, eids) = sliced_devices(4);
        let mut steps = fed_program(&eids, &seeds);
        // Learn each chain's release instant from a seeded run, then start
        // a fed op on the chain's group at exactly that instant.
        let single = GroupPlacement::round_robin(4, 1);
        let (mut probe, _) = submit_steps(&steps, &single, false);
        probe.run();
        let completed: std::collections::HashMap<u64, SimTime> =
            probe.observed_log().iter().map(|&(id, at, _)| (id, at)).collect();
        let mut id = 0u64;
        let mut ties = Vec::new();
        for (_, _, _, follow) in &steps {
            if let Some((delay, g, op)) = follow {
                // The same read as the follow-up's: which of the two the
                // die serves first shows in the host log.
                let release = completed[&id] + IC + IC + *delay;
                ties.push((release, *g, op.clone(), None));
                id += 1;
            }
            id += 1;
        }
        steps.extend(ties);

        for placement in [
            GroupPlacement::round_robin(4, 1),
            GroupPlacement::round_robin(4, 2),
            GroupPlacement::round_robin(4, 4),
            GroupPlacement::new(vec![2, 2, 0, 1], 3),
        ] {
            for drive in [
                ShardDrive::Lockstep,
                ShardDrive::Adaptive,
                ShardDrive::Parallel(2),
                ShardDrive::Parallel(4),
            ] {
                let seeded = run_steps(&steps, &placement, false, drive);
                let fed = run_steps(&steps, &placement, true, drive);
                prop_assert_eq!(&fed, &seeded, "{:?} under {:?}", drive, &placement);
            }
        }
    }
}
