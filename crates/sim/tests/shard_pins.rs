//! Pinned sharded schedules: two fixed programs under every drive, with the
//! round counts, event counts and a fold of every shard's firing log fixed
//! to the values the current executor produces.
//!
//! The drive-agreement tests compare drives with each other, so a change
//! that moved every drive the same way would pass them; these rows would
//! not.

use twob_sim::{mix, ShardCtx, ShardDrive, ShardedExecutor, SimDuration, SimTime, FNV_BASIS};

const DRIVES: [ShardDrive; 5] = [
    ShardDrive::Lockstep,
    ShardDrive::Adaptive,
    ShardDrive::Parallel(1),
    ShardDrive::Parallel(2),
    ShardDrive::Parallel(4),
];

/// One run's observables: `rounds, batched_rounds, processed,
/// clamped_posts`, then the fold of every shard's firing-log fold.
type Row = [u64; 5];

fn row<E>(pdes: &ShardedExecutor<E>, logs: &[Vec<[u64; 3]>]) -> Row {
    let fold = logs.iter().fold(FNV_BASIS, |h, log| {
        mix(h, log.iter().flatten().fold(FNV_BASIS, |g, &w| mix(g, w)))
    });
    [
        pdes.rounds(),
        pdes.batched_rounds(),
        pdes.processed(),
        pdes.clamped_posts(),
        fold,
    ]
}

/// Runs a seeded executor under `drive` through the entry point that
/// drive names.
fn run_seeded<E, F>(
    pdes: &mut ShardedExecutor<E>,
    logs: &mut [Vec<[u64; 3]>],
    handler: &F,
    drive: ShardDrive,
) where
    E: Send,
    F: Fn(&mut ShardCtx<'_, E>, &mut Vec<[u64; 3]>, SimTime, E) + Sync,
{
    match drive {
        ShardDrive::Lockstep => pdes.run_lockstep(logs, handler),
        ShardDrive::Adaptive => pdes.run(logs, handler),
        ShardDrive::Parallel(n) => pdes.run_parallel(logs, handler, n),
    }
}

type QuorumEv = (u64, u8);

const RTT_HALF: SimDuration = SimDuration::from_micros(25);
const REPLICAS: usize = 3;
const COMMITS: u64 = 20;

/// Replication-shaped program: shard 0 issues a commit and ships it to each
/// of three replicas at `RTT_HALF`; each replica acks back at `RTT_HALF`,
/// and the second ack releases the next commit 1 us later.
fn quorum(ctx: &mut ShardCtx<'_, QuorumEv>, log: &mut Vec<[u64; 3]>, t: SimTime, ev: QuorumEv) {
    let (lsn, kind) = ev;
    log.push([t.as_nanos(), lsn, u64::from(kind)]);
    match kind {
        0 => {
            for dst in 1..=REPLICAS {
                ctx.send(dst, t + RTT_HALF, (lsn, 1));
            }
        }
        1 => ctx.send(0, t + RTT_HALF, (lsn, 2)),
        _ => {
            let acks = log.iter().filter(|w| w[1] == lsn && w[2] == 2).count();
            if acks == 2 && lsn < COMMITS {
                ctx.post(t + SimDuration::from_micros(1), (lsn + 1, 0));
            }
        }
    }
}

#[test]
fn quorum_schedules_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [Row; 5] = [
        [41, 0, 140, 0, 0x6220ad31d96059c9],
        [41, 21, 140, 0, 0x6220ad31d96059c9],
        [41, 21, 140, 0, 0x6220ad31d96059c9],
        [41, 21, 140, 0, 0x6220ad31d96059c9],
        [41, 21, 140, 0, 0x6220ad31d96059c9],
    ];
    for (drive, pinned) in DRIVES.into_iter().zip(PINNED) {
        let mut pdes: ShardedExecutor<QuorumEv> = ShardedExecutor::new(1 + REPLICAS, RTT_HALF);
        pdes.seed(0, SimTime::ZERO, (1, 0));
        let mut logs = vec![Vec::new(); 1 + REPLICAS];
        run_seeded(&mut pdes, &mut logs, &quorum, drive);
        let got = row(&pdes, &logs);
        assert_eq!(got, pinned, "{drive:?}");
    }
}

type TieEv = (u64, u8);

const TIE_SHARDS: usize = 3;
const GAP: u64 = 2_000;
const TIE_LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

fn base(shard: usize) -> u64 {
    500 * shard as u64
}

/// Shard `s`'s external events: 40 instants `GAP` apart from `base(s)`,
/// every third holding two events (kind 0).
fn external(shard: usize) -> Vec<(SimTime, TieEv)> {
    (0..40u64)
        .flat_map(|k| {
            let at = SimTime::from_nanos(GAP * k + base(shard));
            (0..1 + u64::from(k % 3 == 0)).map(move |j| (at, (10 * k + j, 0)))
        })
        .collect()
}

/// Every external event posts a local follow-up (kind 1) onto the shard's
/// next external instant and sends a message (kind 2) onto one of the next
/// shard's external instants, so external and runtime events tie on every
/// shard.
fn ties(ctx: &mut ShardCtx<'_, TieEv>, log: &mut Vec<[u64; 3]>, t: SimTime, ev: TieEv) {
    log.push([t.as_nanos(), ev.0, u64::from(ev.1)]);
    if ev.1 == 0 {
        ctx.post(t + SimDuration::from_nanos(GAP), (ev.0, 1));
        let dst = (ctx.shard() + 1) % TIE_SHARDS;
        let earliest = (t + TIE_LOOKAHEAD).as_nanos();
        let k = earliest.saturating_sub(base(dst)).div_ceil(GAP);
        ctx.send(dst, SimTime::from_nanos(GAP * k + base(dst)), (ev.0, 2));
    }
}

#[test]
fn tie_schedules_are_pinned_seeded_and_fed() {
    #[rustfmt::skip]
    const PINNED: [Row; 5] = [
        [82, 0, 486, 0, 0x9f173cc1f69b983a],
        [82, 82, 486, 0, 0x9f173cc1f69b983a],
        [82, 82, 486, 0, 0x9f173cc1f69b983a],
        [82, 82, 486, 0, 0x9f173cc1f69b983a],
        [82, 82, 486, 0, 0x9f173cc1f69b983a],
    ];
    for (drive, pinned) in DRIVES.into_iter().zip(PINNED) {
        let mut seeded: ShardedExecutor<TieEv> = ShardedExecutor::new(TIE_SHARDS, TIE_LOOKAHEAD);
        for s in 0..TIE_SHARDS {
            for (at, ev) in external(s) {
                seeded.seed(s, at, ev);
            }
        }
        let mut logs = vec![Vec::new(); TIE_SHARDS];
        run_seeded(&mut seeded, &mut logs, &ties, drive);
        let got = row(&seeded, &logs);
        assert_eq!(got, pinned, "{drive:?} seeded");

        let mut fed: ShardedExecutor<TieEv> = ShardedExecutor::new(TIE_SHARDS, TIE_LOOKAHEAD);
        let mut logs = vec![Vec::new(); TIE_SHARDS];
        let feeds = (0..TIE_SHARDS).map(|s| external(s).into_iter()).collect();
        fed.run_fed(&mut logs, feeds, &ties, drive);
        assert_eq!(row(&fed, &logs), pinned, "{drive:?} fed");
    }
}
