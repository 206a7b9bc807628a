//! Differential tests of the event kernel: random event programs are driven
//! through the wheel-backed default calendar and through the legacy
//! binary-heap oracle, and must produce byte-identical firing sequences.
//!
//! The handler re-posts children as a pure function of `(time, tag)`, so any
//! divergence between the two runs can only come from the calendars
//! themselves — ordering, tie-breaking, same-instant batching, or the
//! `run_until` boundary logic.

use proptest::prelude::*;
use twob_sim::oracle::HeapQueue;
use twob_sim::{
    Calendar, Executor, ShardCtx, ShardDrive, ShardedExecutor, SimDuration, SimTime, WheelQueue,
};

/// Drives one random event program through an executor backed by `Q` and
/// returns the full `(time, tag)` firing sequence plus the kernel counters.
///
/// The program: seed posts land first, then the calendar is drained through
/// each `run_until` boundary in turn and finally run dry. Fired events
/// re-post children derived only from their own `(t, tag)`:
///
/// - `tag % 4 == 1` chains one child strictly later (`tag`-derived gap);
/// - `tag % 4 == 2` posts a *pair* of children at the same later instant,
///   exercising FIFO tie-breaking between siblings;
/// - `tag % 4 == 3` posts a child at the *current* instant, exercising
///   same-instant dispatch of work created mid-batch;
/// - `tag % 4 == 0` is a leaf.
///
/// Children shrink their tag (`tag >> 2`), so every chain terminates.
fn run_program<Q: Calendar<u32>>(
    posts: &[(u64, u32)],
    boundaries: &[u64],
) -> (Vec<(u64, u32)>, u64, u64) {
    let mut exec: Executor<u32, Q> = Executor::with_calendar();
    for &(at, tag) in posts {
        exec.post(SimTime::from_nanos(at), tag);
    }
    let mut fired: Vec<(u64, u32)> = Vec::new();
    let mut handler = |ex: &mut Executor<u32, Q>, t: SimTime, tag: u32| {
        fired.push((t.as_nanos(), tag));
        let gap = SimDuration::from_nanos((tag as u64 % 257) + 1);
        match tag % 4 {
            1 => ex.post(t + gap, tag >> 2),
            2 => {
                ex.post(t + gap, tag >> 2);
                ex.post(t + gap, (tag >> 2) | 1);
            }
            3 => ex.post(t, tag >> 2),
            _ => {}
        }
    };
    for &b in boundaries {
        exec.run_until(SimTime::from_nanos(b), &mut handler);
    }
    exec.run(&mut handler);
    (fired, exec.processed(), exec.clamped_posts())
}

/// Replays a push/pop op sequence against a calendar, recording every pop.
/// `Pop` on an empty calendar records a sentinel so "empty here" must also
/// agree between implementations.
fn replay_ops<Q: Calendar<u64>>(ops: &[(bool, u64)]) -> Vec<Option<(u64, u64)>> {
    let mut cal = Q::default();
    let mut out = Vec::new();
    let mut seq = 0u64;
    for &(is_push, at) in ops {
        if is_push {
            cal.push(SimTime::from_nanos(at), seq);
            seq += 1;
        } else {
            out.push(cal.pop().map(|(t, v)| (t.as_nanos(), v)));
        }
    }
    while let Some((t, v)) = cal.pop() {
        out.push(Some((t.as_nanos(), v)));
    }
    out
}

type ShardLog = Vec<(u64, u32)>;

/// A handler whose behaviour is a pure function of `(tag, t, shard count)`:
/// tags chain local posts, same-instant tie pairs, and lookahead-respecting
/// cross-shard sends (including self-sends), shrinking (`tag >> 2`) so every
/// program terminates.
fn sharded_program_handler(
    n: usize,
    lookahead: SimDuration,
) -> impl Fn(&mut ShardCtx<'_, u32>, &mut ShardLog, SimTime, u32) {
    move |ctx, state, t, tag| {
        state.push((t.as_nanos(), tag));
        let gap = SimDuration::from_nanos((u64::from(tag) % 509) + 1);
        let child = tag >> 2;
        match tag % 5 {
            1 => ctx.post(t + gap, child),
            2 => ctx.send((tag as usize / 7) % n, t + lookahead + gap, child),
            3 => {
                ctx.post(t + gap, child);
                ctx.post(t + gap, child | 1);
            }
            4 => {
                ctx.post(t + gap, child);
                ctx.send((tag as usize / 3) % n, t + lookahead + gap, child | 1);
            }
            _ => {}
        }
    }
}

proptest! {
    /// The adaptive sharded schedule is byte-identical between sequential
    /// and parallel execution across thread counts (same per-shard firing
    /// logs, same round count), and the fine-grained lock-step oracle fires
    /// the same per-shard event multisets in no fewer rounds.
    #[test]
    fn sharded_schedules_agree_across_modes_and_thread_counts(
        n in 2usize..5,
        lookahead_ns in 100u64..5_000,
        seeds in prop::collection::vec((0usize..4, 0u64..20_000, 1u32..10_000), 1..24),
    ) {
        let lookahead = SimDuration::from_nanos(lookahead_ns);
        let handler = sharded_program_handler(n, lookahead);
        let drive = |mode: ShardDrive| {
            let mut pdes: ShardedExecutor<u32> = ShardedExecutor::new(n, lookahead);
            for &(s, at, tag) in &seeds {
                pdes.seed(s % n, SimTime::from_nanos(at), tag);
            }
            let mut states: Vec<ShardLog> = vec![Vec::new(); n];
            pdes.run_fed(&mut states, vec![std::iter::empty(); n], &handler, mode);
            (states, pdes.rounds(), pdes.processed(), pdes.clamped_posts())
        };

        let (seq_states, seq_rounds, seq_processed, seq_clamped) = drive(ShardDrive::Adaptive);
        prop_assert_eq!(seq_clamped, 0, "adaptive sequential run clamped");
        for mode in [ShardDrive::Parallel(2), ShardDrive::Parallel(4)] {
            let (states, rounds, processed, clamped) = drive(mode);
            prop_assert_eq!(&states, &seq_states, "thread mode {:?} diverged", mode);
            prop_assert_eq!(rounds, seq_rounds);
            prop_assert_eq!(processed, seq_processed);
            prop_assert_eq!(clamped, 0, "parallel run clamped");
        }

        // The lock-step oracle may order same-instant events differently
        // (they are causally unrelated), so compare canonically sorted
        // per-shard logs, and never in fewer rounds than adaptive.
        let (lock_states, lock_rounds, lock_processed, lock_clamped) = drive(ShardDrive::Lockstep);
        prop_assert_eq!(lock_clamped, 0, "lock-step oracle clamped");
        prop_assert_eq!(lock_processed, seq_processed);
        prop_assert!(
            seq_rounds <= lock_rounds,
            "adaptive used more rounds ({} vs {})",
            seq_rounds,
            lock_rounds
        );
        let canon = |mut states: Vec<ShardLog>| {
            for log in &mut states {
                log.sort_unstable();
            }
            states
        };
        prop_assert_eq!(canon(lock_states), canon(seq_states));
    }

    /// The wheel-backed executor and the binary-heap oracle fire identical
    /// `(time, tag)` sequences for arbitrary chained event programs cut at
    /// arbitrary `run_until` boundaries.
    #[test]
    fn wheel_and_heap_executors_fire_identically(
        posts in prop::collection::vec((0u64..50_000, 0u32..10_000), 1..60),
        mut boundaries in prop::collection::vec(0u64..60_000, 0..6),
    ) {
        boundaries.sort_unstable();
        let wheel = run_program::<WheelQueue<u32>>(&posts, &boundaries);
        let heap = run_program::<HeapQueue<u32>>(&posts, &boundaries);
        prop_assert_eq!(&wheel.0, &heap.0, "firing sequences diverged");
        prop_assert_eq!(wheel.1, heap.1, "processed counts diverged");
        prop_assert_eq!(wheel.2, heap.2, "clamp counts diverged");
        prop_assert_eq!(wheel.2, 0, "forward-chained program should never clamp");
    }

    /// Raw calendar equivalence: arbitrary interleavings of pushes and pops
    /// (including pops from empty) drain in the same order from both
    /// implementations. Interleaved pops matter because they exercise the
    /// wheel's window re-anchoring and re-seeding paths, which the
    /// drain-at-the-end pattern above never hits mid-stream.
    #[test]
    fn wheel_and_heap_calendars_drain_identically(
        ops in prop::collection::vec((any::<bool>(), 0u64..100_000), 1..200),
    ) {
        let wheel = replay_ops::<WheelQueue<u64>>(&ops);
        let heap = replay_ops::<HeapQueue<u64>>(&ops);
        prop_assert_eq!(wheel, heap);
    }

    /// Clamped posts are counted identically: a program that posts into the
    /// past (relative to the clock after a `run_until`) clamps the same
    /// number of times on both kernels and fires at the same instants.
    #[test]
    fn past_posts_clamp_identically(
        past in prop::collection::vec((0u64..1_000, 0u32..100), 1..20),
        advance in 1_001u64..10_000,
    ) {
        let drive = |past: &[(u64, u32)]| {
            let run = |exec: &mut Executor<u32, WheelQueue<u32>>| {
                let mut fired = Vec::new();
                exec.run(|_, t, tag| fired.push((t.as_nanos(), tag)));
                fired
            };
            let oracle_run = |exec: &mut Executor<u32, HeapQueue<u32>>| {
                let mut fired = Vec::new();
                exec.run(|_, t, tag| fired.push((t.as_nanos(), tag)));
                fired
            };
            let mut wheel: Executor<u32, WheelQueue<u32>> = Executor::with_calendar();
            let mut heap: Executor<u32, HeapQueue<u32>> = Executor::with_calendar();
            // Advance both clocks past every "past" timestamp, then post.
            wheel.run_until(SimTime::from_nanos(advance), |_, _, _: u32| {});
            heap.run_until(SimTime::from_nanos(advance), |_, _, _: u32| {});
            for &(at, tag) in past {
                wheel.post(SimTime::from_nanos(at), tag);
                heap.post(SimTime::from_nanos(at), tag);
            }
            let (wf, hf) = (run(&mut wheel), oracle_run(&mut heap));
            (wf, hf, wheel.clamped_posts(), heap.clamped_posts())
        };
        let (wf, hf, wc, hc) = drive(&past);
        prop_assert_eq!(&wf, &hf);
        prop_assert_eq!(wc, hc);
        prop_assert_eq!(wc, past.len() as u64, "every past post must be counted");
        // Clamped events all fire at the clamp instant, in posting order.
        for (i, &(_, tag)) in past.iter().enumerate() {
            prop_assert_eq!(wf[i], (advance, tag));
        }
    }
}
