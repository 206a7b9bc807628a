//! Conservative parallel discrete-event execution (PDES) across sharded
//! time domains, with adaptive round batching.
//!
//! A [`ShardedExecutor`] partitions a simulation into independent *time
//! domains* — dies, channels, or replica nodes with their own calendars —
//! that only interact through messages carrying a minimum latency, the
//! *lookahead* (a NAND program time, a NetLink one-way delay). That latency
//! is what makes conservative parallelism safe: a message sent by an event
//! firing at `T` cannot arrive before `T + lookahead`.
//!
//! # Round structure
//!
//! Execution proceeds in barrier rounds, all run by one loop whatever the
//! drive. The shards are split into one contiguous chunk per worker, and
//! each worker, each round:
//!
//! 1. Publishes its shards' next-event times and reads everyone's: the
//!    snapshot.
//! 2. Drains each of its shards through that shard's safe horizon (below),
//!    computed from the snapshot. Cross-shard sends are buffered in a
//!    per-shard outbox, never delivered mid-round.
//! 3. Hands the buffered sends to the workers owning their destinations
//!    and, at the round barrier, delivers its own in
//!    `(fire time, sender shard, send order)` order.
//!
//! A drive ([`ShardDrive`]) is a horizon rule plus a worker count:
//! [`ShardedExecutor::run_lockstep`] is the lock-step rule on one worker,
//! [`ShardedExecutor::run`] the adaptive rule on one worker, and
//! [`ShardedExecutor::run_parallel`] the adaptive rule on up to `n`
//! persistent worker threads. One worker runs on the calling thread and
//! meets no barrier.
//!
//! # Horizon rules
//!
//! The classic conservative horizon is global: everyone stops at
//! `global_min + lookahead - 1 ns`, which barriers the whole simulation
//! once per lookahead window even when only one shard has work. That
//! lock-step rule is retained as [`ShardedExecutor::run_lockstep`] — the
//! differential baseline, in the same spirit as the `HeapQueue` kernel
//! oracle. The adaptive rule of [`ShardedExecutor::run`] and
//! [`ShardedExecutor::run_parallel`] instead computes, per shard `i`:
//!
//! - a *hint* `H_i = min(next_j for j != i) + lookahead - 1 ns`, unbounded
//!   when every other shard is idle;
//! - a dynamic *send cap*: whenever shard `i` emits an envelope arriving at
//!   `A`, its horizon this round shrinks to at most `A + lookahead - 1 ns`.
//!
//! A shard drains every event at or before `min(H_i, caps)` in a single
//! round — often many lookahead windows at once (counted by
//! [`ShardedExecutor::batched_rounds`]).
//!
//! **Safety argument.** Deliveries only happen at barriers, so shard `i`
//! must merely never simulate past the earliest message that can still
//! reach it. Any message chain that does *not* pass through `i`'s own
//! sends starts at some other shard `j` processing an event no earlier
//! than its snapshot time `next_j >= min_others(i)`; each hop adds at
//! least one lookahead, so the chain first reaches `i` at
//! `>= min_others(i) + lookahead > H_i`. Any chain that *does* start with
//! one of `i`'s own sends (a response to it) first returns to `i` at
//! `>= A + lookahead`, which is strictly beyond the send cap. Both bounds
//! also hold transitively across future rounds because every hop adds a
//! lookahead. Deliveries themselves are never stale for the same reason:
//! an envelope from `j` arrives at `>= next_j + lookahead`, while the
//! receiving shard's horizon is at most `next_j + lookahead - 1 ns`
//! (debug-asserted on every delivery).
//!
//! Because each shard's intra-round execution touches only its own state,
//! and the inter-round delivery order is a pure function of simulated time,
//! the firing sequence is **byte-identical between sequential and parallel
//! execution and across thread counts** — determinism is a property of the
//! schedule, not the scheduler. [`ShardedExecutor::run_parallel`] clamps
//! its worker count to the host's available parallelism (extra threads on
//! a saturated host add context switches but no concurrency, and change
//! nothing observable), so the same binary is bit-reproducible from a
//! single-core CI runner to a many-core workstation. Tests below and the
//! differential proptests pin this.
//!
//! # Feeds
//!
//! Events known before the run can be [`ShardedExecutor::seed`]ed, or
//! handed to [`ShardedExecutor::run_fed`] as one time-ordered feed per
//! shard, which the shard pulls from as it reaches each event. A feed's
//! head enters every next-event snapshot, and a fed event fires before any
//! queued event at the same instant — where a seeded one, posted ahead of
//! every runtime event, fires too. So the fed run is the seeded run, round
//! for round, without the calendars holding every future event at once.
//!
//! # Example
//!
//! ```rust
//! use twob_sim::{ShardedExecutor, SimDuration, SimTime};
//!
//! // Two domains ping-ponging a token with a 10 us link latency. Each
//! // shard logs its own hops in its state slot (handlers are `Fn`, so
//! // mutable state lives per shard — that is what makes them parallel-safe).
//! let mut pdes: ShardedExecutor<u32> = ShardedExecutor::new(2, SimDuration::from_micros(10));
//! pdes.seed(0, SimTime::ZERO, 3);
//! let mut hops: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 2];
//! pdes.run(&mut hops, &|ctx, state, t, ttl| {
//!     state.push((t.as_nanos(), ttl));
//!     if ttl > 0 {
//!         let dst = 1 - ctx.shard();
//!         ctx.send(dst, t + SimDuration::from_micros(10), ttl - 1);
//!     }
//! });
//! assert_eq!(hops[0], vec![(0, 3), (20_000, 1)]);
//! assert_eq!(hops[1], vec![(10_000, 2), (30_000, 0)]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::{Executor, SimDuration, SimTime};

/// How a [`ShardedExecutor`] schedules its rounds: a horizon rule plus a
/// worker count, run by the one round loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDrive {
    /// The fine-grained lock-step oracle on one worker:
    /// [`ShardedExecutor::run_lockstep`].
    Lockstep,
    /// Adaptive round batching on one worker: [`ShardedExecutor::run`].
    Adaptive,
    /// Adaptive round batching on up to `n` worker threads:
    /// [`ShardedExecutor::run_parallel`].
    Parallel(usize),
}

impl ShardDrive {
    /// Stable label for reports.
    pub fn label(self) -> String {
        match self {
            ShardDrive::Lockstep => "lockstep".into(),
            ShardDrive::Adaptive => "adaptive".into(),
            ShardDrive::Parallel(n) => format!("par{n}"),
        }
    }
}

/// A cross-shard message buffered until the round barrier.
#[derive(Debug, Clone)]
struct Envelope<E> {
    at: SimTime,
    src: usize,
    dst: usize,
    /// Emission order within the sender's round, for deterministic ties.
    order: u64,
    /// The payload, taken when the envelope is delivered.
    event: Option<E>,
}

/// An envelope's delivery key, `(fire time, sender, send order)`, plus its
/// index in the batch being delivered.
type MailKey = (SimTime, usize, u64, usize);

/// Posts every envelope of `mail` through `post(dst, at, event)` in
/// `(fire time, sender, send order)` order and leaves `mail` empty. It
/// sorts the small `keys` rather than the envelopes, whose events can be
/// large.
fn deliver<E>(
    mail: &mut Vec<Envelope<E>>,
    keys: &mut Vec<MailKey>,
    mut post: impl FnMut(usize, SimTime, E),
) {
    keys.clear();
    keys.extend(
        mail.iter()
            .enumerate()
            .map(|(i, m)| (m.at, m.src, m.order, i)),
    );
    // `(at, src, order)` is unique, so the unstable sort is deterministic.
    keys.sort_unstable();
    for &(at, _, _, i) in keys.iter() {
        let m = &mut mail[i];
        if let Some(event) = m.event.take() {
            post(m.dst, at, event);
        }
    }
    mail.clear();
}

/// One shard's stream of external events in time order, pulled as the
/// shard reaches them instead of seeded before the run.
///
/// A fed event fires *before* any queued event at the same instant — where
/// a seeded one fires, since [`ShardedExecutor::seed`] posts ahead of every
/// event a handler posts at runtime and the calendar breaks time ties in
/// posting order. Its head also enters every next-event snapshot. So a run
/// fed a stream is the run seeded with it, round for round.
struct Feed<E, I> {
    head: Option<(SimTime, E)>,
    rest: I,
}

impl<E, I: Iterator<Item = (SimTime, E)>> Feed<E, I> {
    fn new(mut rest: I) -> Self {
        Feed {
            head: rest.next(),
            rest,
        }
    }

    fn head_time(&self) -> Option<SimTime> {
        self.head.as_ref().map(|&(at, _)| at)
    }

    /// The shard's next-event time in nanoseconds (`u64::MAX` = idle): the
    /// earlier of its calendar head and this feed's head.
    fn next_ns(&self, exec: &Executor<E>) -> u64 {
        exec.peek_next_time()
            .into_iter()
            .chain(self.head_time())
            .min()
            .map_or(u64::MAX, SimTime::as_nanos)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self.rest.next();
        debug_assert!(
            next.as_ref()
                .zip(self.head_time())
                .is_none_or(|(&(at, _), head)| at >= head),
            "a feed must be in time order"
        );
        std::mem::replace(&mut self.head, next)
    }
}

/// Feeds for a run that has none.
fn no_feeds<E>(n: usize) -> Vec<std::iter::Empty<(SimTime, E)>> {
    (0..n).map(|_| std::iter::empty()).collect()
}

/// The per-shard view handed to event handlers: local posting plus
/// lookahead-checked cross-shard sends.
#[derive(Debug)]
pub struct ShardCtx<'a, E> {
    shard: usize,
    exec: &'a mut Executor<E>,
    outbox: &'a mut Vec<Envelope<E>>,
    lookahead: SimDuration,
}

impl<E> ShardCtx<'_, E> {
    /// The shard this handler is running on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's current virtual instant.
    pub fn now(&self) -> SimTime {
        self.exec.now()
    }

    /// Posts a follow-up event on this shard's own calendar.
    pub fn post(&mut self, at: SimTime, event: E) {
        self.exec.post(at, event);
    }

    /// Sends `event` to fire at `at` on shard `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is closer than the lookahead — delivering earlier
    /// than `now + lookahead` would break the conservative safety argument
    /// (another shard may already have simulated past `at`).
    pub fn send(&mut self, dst: usize, at: SimTime, event: E) {
        assert!(
            at >= self.exec.now() + self.lookahead,
            "cross-shard send at {at} violates lookahead {} from {}",
            self.lookahead,
            self.exec.now(),
        );
        if dst == self.shard {
            // A message to the sending shard needs no conservative deferral
            // — it is an ordinary future post on the local calendar. Going
            // through the outbox would be unsound under adaptive batching:
            // the shard may legitimately simulate past the arrival instant
            // before the round barrier delivers.
            self.exec.post(at, event);
            return;
        }
        let order = self.outbox.len() as u64;
        self.outbox.push(Envelope {
            at,
            src: self.shard,
            dst,
            order,
            event: Some(event),
        });
    }
}

/// `(min, multiplicity-of-min, second-distinct-min)` over next-event times
/// in nanoseconds, `u64::MAX` meaning idle.
fn min_two(next_ns: &[u64]) -> (u64, u32, u64) {
    let mut min1 = u64::MAX;
    let mut count1 = 0u32;
    let mut min2 = u64::MAX;
    for &v in next_ns {
        if v < min1 {
            min2 = min1;
            min1 = v;
            count1 = 1;
        } else if v == min1 {
            count1 += 1;
        } else if v < min2 {
            min2 = v;
        }
    }
    (min1, count1, min2)
}

/// The adaptive horizon hint for a shard whose snapshot next-event time is
/// `own_ns`: the earliest *other* shard's next event plus
/// `lookahead - 1 ns` (`step`), or `None` (unbounded) when every other
/// shard is idle. See the module docs for the safety argument.
fn hint_for(own_ns: u64, min1: u64, count1: u32, min2: u64, step: SimDuration) -> Option<SimTime> {
    let others = if own_ns == min1 && count1 == 1 {
        min2
    } else {
        min1
    };
    (others != u64::MAX).then(|| SimTime::from_nanos(others) + step)
}

/// Drains one shard, calendar and feed, through `min(hint, send caps)` for
/// this round, buffering cross-shard sends into `outbox`. Every emitted
/// envelope tightens the effective horizon to `arrival + lookahead - 1 ns`
/// so that responses to this round's sends can never arrive in the shard's
/// past. Under lock-step the hint is the global window, which no send cap
/// can undercut.
#[allow(clippy::too_many_arguments)]
fn drain_shard<E, S, I, F>(
    exec: &mut Executor<E>,
    feed: &mut Feed<E, I>,
    shard: usize,
    hint: Option<SimTime>,
    lookahead: SimDuration,
    outbox: &mut Vec<Envelope<E>>,
    state: &mut S,
    handler: &F,
) where
    I: Iterator<Item = (SimTime, E)>,
    F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
{
    debug_assert!(outbox.is_empty(), "outbox leaked between rounds");
    let step = lookahead - SimDuration::from_nanos(1);
    let mut eff = hint;
    let mut scanned = 0usize;
    loop {
        let queued = exec.peek_next_time();
        // The feed wins a tie (see `Feed`).
        let fed = feed
            .head_time()
            .filter(|&at| queued.is_none_or(|q| at <= q));
        let Some(t) = fed.or(queued) else { break };
        if eff.is_some_and(|e| t > e) {
            break;
        }
        let mut fire = |ex: &mut Executor<E>, t, ev| {
            let mut ctx = ShardCtx {
                shard,
                exec: ex,
                outbox,
                lookahead,
            };
            handler(&mut ctx, state, t, ev);
        };
        match fed.and_then(|_| feed.pop()) {
            Some((at, ev)) => exec.fire(at, ev, &mut fire),
            None => {
                exec.step(&mut fire);
            }
        }
        // Tighten the horizon by any envelopes the event just emitted: a
        // response to a send arriving at A cannot return before A + L.
        while scanned < outbox.len() {
            let cap = outbox[scanned].at + step;
            eff = Some(eff.map_or(cap, |e| e.min(cap)));
            scanned += 1;
        }
    }
    if let Some(e) = eff {
        // Record how far the horizon was proven safe even if the calendar
        // ran dry first, so later deliveries cannot look like time warps.
        exec.advance_to(e);
    }
}

/// How far a shard may drain in one round: with the worker count, the
/// whole difference between the drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Horizon {
    /// Every shard stops at the global `min + lookahead - 1 ns` window;
    /// no round counts as batched.
    Lockstep,
    /// Per shard, [`hint_for`] tightened by send caps.
    Adaptive,
}

/// What the workers of one drive share.
struct Rounds<E> {
    horizon: Horizon,
    lookahead: SimDuration,
    /// Shards per worker; worker `w` owns shards `w * chunk ..`.
    chunk: usize,
    workers: usize,
    barrier: Barrier,
    /// Published next-event times (nanoseconds, MAX = idle). The round
    /// barriers provide the cross-thread happens-before edges, so all
    /// atomic accesses can be relaxed.
    next_ns: Vec<AtomicU64>,
    /// One mailbox per worker: senders stage envelopes by destination
    /// worker and hand them over once per round, receivers swap the batch
    /// out.
    mailboxes: Vec<Mutex<Vec<Envelope<E>>>>,
    rounds: AtomicU64,
    batched: AtomicU64,
}

impl<E> Rounds<E> {
    fn new(shards: usize, workers: usize, lookahead: SimDuration, horizon: Horizon) -> Self {
        let chunk = shards.div_ceil(workers);
        let workers = shards.div_ceil(chunk);
        Rounds {
            horizon,
            lookahead,
            chunk,
            workers,
            barrier: Barrier::new(workers),
            next_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            rounds: AtomicU64::new(0),
            batched: AtomicU64::new(0),
        }
    }

    /// Waits for every other worker; a lone worker has nobody to meet.
    fn meet(&self) {
        if self.workers > 1 {
            self.barrier.wait();
        }
    }
}

/// A bank of per-domain [`Executor`]s advanced in conservative rounds.
/// See the module docs of `shard.rs` for the safety and determinism
/// argument.
#[derive(Debug, Clone)]
pub struct ShardedExecutor<E> {
    shards: Vec<Executor<E>>,
    lookahead: SimDuration,
    rounds: u64,
    batched_rounds: u64,
    /// One reusable outbox per shard, emptied at every round's hand-over.
    outboxes: Vec<Vec<Envelope<E>>>,
}

impl<E> ShardedExecutor<E> {
    /// Creates `n` empty time domains joined by links of minimum latency
    /// `lookahead`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `lookahead` is zero — a zero lookahead
    /// admits no safe horizon and degenerates to sequential execution.
    pub fn new(n: usize, lookahead: SimDuration) -> Self {
        assert!(n > 0, "a ShardedExecutor needs at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative PDES requires a positive lookahead"
        );
        ShardedExecutor {
            shards: (0..n).map(|_| Executor::new()).collect(),
            lookahead,
            rounds: 0,
            batched_rounds: 0,
            outboxes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of time domains.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Returns `true` if the executor has no shards (never by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The minimum cross-shard message latency.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Seeds an initial event on shard `dst` before running.
    pub fn seed(&mut self, dst: usize, at: SimTime, event: E) {
        self.shards[dst].post(at, event);
    }

    /// Synchronization rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds in which the adaptive horizon extended at least one shard
    /// past the classic global `min + lookahead` window (always zero on
    /// [`ShardedExecutor::run_lockstep`]).
    pub fn batched_rounds(&self) -> u64 {
        self.batched_rounds
    }

    /// Total events processed across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(Executor::processed).sum()
    }

    /// Total past-posts clamped across all shards (should stay zero; see
    /// [`Executor::clamped_posts`]).
    pub fn clamped_posts(&self) -> u64 {
        self.shards.iter().map(Executor::clamped_posts).sum()
    }

    /// Read access to one shard's executor (for assertions and stats).
    pub fn shard(&self, i: usize) -> &Executor<E> {
        &self.shards[i]
    }

    /// Drains every shard sequentially with adaptive round batching.
    /// `states` carries one mutable state per shard (same order as
    /// construction); `handler` fires for every event with that shard's
    /// context and state. The firing sequence is identical to
    /// [`ShardedExecutor::run_parallel`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the shard count.
    pub fn run<S, F>(&mut self, states: &mut [S], handler: &F)
    where
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
    {
        self.on_caller(states, no_feeds(self.len()), handler, Horizon::Adaptive);
    }

    /// Drains every shard sequentially in classic conservative lock-step:
    /// one global `min + lookahead - 1 ns` window per round, no batching.
    ///
    /// This is the fine-grained baseline schedule (PR 6 semantics), kept —
    /// like the `HeapQueue` kernel oracle — for differential testing and
    /// as the baseline `sim.shard_adaptive_speedup` measures the adaptive
    /// engine against. On tie-free workloads (no two causally unrelated
    /// events at the same instant on one shard) its firing sequence equals
    /// the adaptive schedule's; the sharded proptests pin this.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the shard count.
    pub fn run_lockstep<S, F>(&mut self, states: &mut [S], handler: &F)
    where
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
    {
        self.on_caller(states, no_feeds(self.len()), handler, Horizon::Lockstep);
    }

    /// [`ShardedExecutor::run`] on up to `threads` workers: the same round
    /// loop, with the shards split into one contiguous chunk per worker.
    /// The workers stay alive for the whole drive and meet at two barriers
    /// per round (snapshot, delivery) — no thread is spawned per round, no
    /// buffer allocated per round.
    ///
    /// `threads` is clamped to the shard count *and* the host's available
    /// parallelism: more workers than cores add context switches without
    /// concurrency, and the firing sequence is thread-count-invariant by
    /// construction, so nothing observable changes. One effective worker
    /// runs on the calling thread and spawns nothing.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the shard count or `threads`
    /// is zero.
    pub fn run_parallel<S, F>(&mut self, states: &mut [S], handler: &F, threads: usize)
    where
        E: Send,
        S: Send,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E) + Sync,
    {
        self.run_fed(
            states,
            no_feeds(self.len()),
            handler,
            ShardDrive::Parallel(threads),
        );
    }

    /// Runs under `drive` with one feed per shard: shard `i` pulls its
    /// external events from `feeds[i]`, which must be in time order, as it
    /// reaches them. The run is the one [`ShardedExecutor::seed`]ing every
    /// fed event up front would give — same firing sequence, rounds and
    /// event count — without holding them all on the calendars; `seed`
    /// plus [`ShardedExecutor::run`] is the empty-feed case.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `feeds` does not hold one entry per shard, or
    /// on a `Parallel(0)` drive.
    pub fn run_fed<S, I, F>(
        &mut self,
        states: &mut [S],
        feeds: Vec<I>,
        handler: &F,
        drive: ShardDrive,
    ) where
        E: Send,
        S: Send,
        I: Iterator<Item = (SimTime, E)> + Send,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E) + Sync,
    {
        let (horizon, threads) = match drive {
            ShardDrive::Lockstep => (Horizon::Lockstep, 1),
            ShardDrive::Adaptive => (Horizon::Adaptive, 1),
            ShardDrive::Parallel(threads) => {
                assert!(threads > 0, "need at least one worker thread");
                let host = std::thread::available_parallelism().map_or(1, |p| p.get());
                (Horizon::Adaptive, threads.min(host))
            }
        };
        let mut feeds = self.feeds(states, feeds);
        let shared = Rounds::new(self.len(), threads, self.lookahead, horizon);
        let chunk = shared.chunk;
        std::thread::scope(|scope| {
            let mut lanes = self
                .shards
                .chunks_mut(chunk)
                .zip(feeds.chunks_mut(chunk))
                .zip(states.chunks_mut(chunk))
                .zip(self.outboxes.chunks_mut(chunk))
                .enumerate();
            // Worker 0 runs on the calling thread, after the others exist.
            let first = lanes.next();
            for (wi, (((shards, feeds), states), outboxes)) in lanes {
                let shared = &shared;
                scope.spawn(move || {
                    worker_loop(wi, shared, shards, feeds, states, outboxes, handler);
                });
            }
            if let Some((_, (((shards, feeds), states), outboxes))) = first {
                worker_loop(0, &shared, shards, feeds, states, outboxes, handler);
            }
        });
        self.tally(&shared);
    }

    /// [`ShardedExecutor::run_fed`] on one worker, which needs no thread
    /// and so no `Send` bounds: the body of [`ShardedExecutor::run`] and
    /// [`ShardedExecutor::run_lockstep`].
    fn on_caller<S, I, F>(&mut self, states: &mut [S], feeds: Vec<I>, handler: &F, horizon: Horizon)
    where
        I: Iterator<Item = (SimTime, E)>,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
    {
        let mut feeds = self.feeds(states, feeds);
        let shared = Rounds::new(self.len(), 1, self.lookahead, horizon);
        worker_loop(
            0,
            &shared,
            &mut self.shards,
            &mut feeds,
            states,
            &mut self.outboxes,
            handler,
        );
        self.tally(&shared);
    }

    /// Checks one state and one feed per shard and wraps the feeds.
    fn feeds<S, I>(&self, states: &[S], feeds: Vec<I>) -> Vec<Feed<E, I>>
    where
        I: Iterator<Item = (SimTime, E)>,
    {
        assert_eq!(states.len(), self.len(), "one state per shard");
        assert_eq!(feeds.len(), self.len(), "one feed per shard");
        feeds.into_iter().map(Feed::new).collect()
    }

    /// Adds a finished drive's round counts to the executor's.
    fn tally(&mut self, shared: &Rounds<E>) {
        self.rounds += shared.rounds.load(Ordering::Relaxed);
        self.batched_rounds += shared.batched.load(Ordering::Relaxed);
    }
}

/// The executor's one round loop, run by each worker of a drive over its
/// chunk of shards (`shards`, `feeds`, `states` and `outboxes` all start at
/// shard `wi * chunk`): publish next-event times, snapshot, drain each
/// shard through its horizon, hand sends to their destination workers,
/// deliver. Every worker computes the same horizons from the same
/// snapshot, and each delivers in the same per-destination order, so the
/// firing sequence does not depend on the worker count.
fn worker_loop<E, S, I, F>(
    wi: usize,
    shared: &Rounds<E>,
    shards: &mut [Executor<E>],
    feeds: &mut [Feed<E, I>],
    states: &mut [S],
    outboxes: &mut [Vec<Envelope<E>>],
    handler: &F,
) where
    I: Iterator<Item = (SimTime, E)>,
    F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
{
    let base = wi * shared.chunk;
    let lookahead = shared.lookahead;
    let step = lookahead - SimDuration::from_nanos(1);
    let mut snapshot = vec![0u64; shared.next_ns.len()];
    let mut stage: Vec<Vec<Envelope<E>>> = (0..shared.workers).map(|_| Vec::new()).collect();
    let mut inbox: Vec<Envelope<E>> = Vec::new();
    let mut keys: Vec<MailKey> = Vec::new();
    loop {
        for (j, (s, f)) in shards.iter().zip(feeds.iter()).enumerate() {
            shared.next_ns[base + j].store(f.next_ns(s), Ordering::Relaxed);
        }
        shared.meet();
        for (slot, published) in snapshot.iter_mut().zip(&shared.next_ns) {
            *slot = published.load(Ordering::Relaxed);
        }
        // Every worker computes the same minima from the same snapshot, so
        // all of them agree on termination and on each shard's hint.
        let (min1, count1, min2) = min_two(&snapshot);
        if min1 == u64::MAX {
            break;
        }
        // Exactly one shard holding the minimum extends its adaptive hint
        // past the global window, so the round batches.
        let batched = shared.horizon == Horizon::Adaptive && count1 == 1;
        if wi == 0 {
            shared.rounds.fetch_add(1, Ordering::Relaxed);
            if batched {
                shared.batched.fetch_add(1, Ordering::Relaxed);
            }
        }
        for j in 0..shards.len() {
            let i = base + j;
            // Inclusive horizon: lookahead - 1 ns, so an event fired exactly
            // at the minimum can send a message arriving at
            // `min + lookahead` without any shard having simulated that
            // instant yet.
            let hint = match shared.horizon {
                Horizon::Lockstep => Some(SimTime::from_nanos(min1) + step),
                Horizon::Adaptive => hint_for(snapshot[i], min1, count1, min2, step),
            };
            drain_shard(
                &mut shards[j],
                &mut feeds[j],
                i,
                hint,
                lookahead,
                &mut outboxes[j],
                &mut states[j],
                handler,
            );
            if let [only] = stage.as_mut_slice() {
                only.append(&mut outboxes[j]);
            } else {
                for env in outboxes[j].drain(..) {
                    stage[env.dst / shared.chunk].push(env);
                }
            }
        }
        for (dst, staged) in stage.iter_mut().enumerate() {
            if !staged.is_empty() {
                let mut mailbox = shared.mailboxes[dst].lock().expect("mailbox poisoned");
                if mailbox.is_empty() {
                    std::mem::swap(&mut *mailbox, staged);
                } else {
                    mailbox.append(staged);
                }
            }
        }
        shared.meet();
        {
            let mut mailbox = shared.mailboxes[wi].lock().expect("mailbox poisoned");
            std::mem::swap(&mut inbox, &mut *mailbox);
        }
        // Per-destination order (fire time, sender, send order) is the
        // restriction of the global merge order to this worker's shards,
        // so calendar tie-breaking sequences match at any worker count.
        deliver(&mut inbox, &mut keys, |dst, at, event| {
            let shard = &mut shards[dst - base];
            debug_assert!(
                at >= shard.now(),
                "conservative horizon admitted a stale delivery"
            );
            shard.post(at, event);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type QuorumEv = (u64, u8);
    type FiringLog = Vec<(usize, u64, u64, u8)>;

    const RTT_HALF: SimDuration = SimDuration::from_micros(25);
    const SHARDS: usize = 4;
    const COMMITS: u64 = 20;

    /// Replication-shaped handler: shard 0 issues commits, ships to every
    /// replica shard, replicas ack back, a quorum of 2 releases the next
    /// commit. All state is per-shard, so the same handler drives both the
    /// sequential and the parallel path.
    fn quorum_handler(
        ctx: &mut ShardCtx<'_, QuorumEv>,
        state: &mut FiringLog,
        t: SimTime,
        ev: QuorumEv,
    ) {
        let (lsn, kind) = ev;
        state.push((ctx.shard(), t.as_nanos(), lsn, kind));
        match kind {
            // Primary issues: ship to each replica.
            0 => {
                for dst in 1..SHARDS {
                    ctx.send(dst, t + RTT_HALF, (lsn, 1));
                }
            }
            // Replica applies: ack the primary.
            1 => ctx.send(0, t + RTT_HALF, (lsn, 2)),
            // Primary counts acks out of its own firing log; a quorum of 2
            // issues the next commit.
            _ => {
                let acks = state
                    .iter()
                    .filter(|&&(_, _, l, k)| l == lsn && k == 2)
                    .count();
                if acks == 2 && lsn < COMMITS {
                    ctx.post(t + SimDuration::from_micros(1), (lsn + 1, 0));
                }
            }
        }
    }

    fn merged_log(states: Vec<FiringLog>) -> FiringLog {
        let mut log: FiringLog = states.into_iter().flatten().collect();
        log.sort_by_key(|&(shard, t, lsn, kind)| (t, shard, lsn, kind));
        log
    }

    #[test]
    fn sequential_and_parallel_runs_are_identical() {
        let lookahead = RTT_HALF;
        let mut seq: ShardedExecutor<QuorumEv> = ShardedExecutor::new(SHARDS, lookahead);
        seq.seed(0, SimTime::ZERO, (1, 0));
        let mut states: Vec<FiringLog> = (0..SHARDS).map(|_| Vec::new()).collect();
        seq.run(&mut states, &quorum_handler);
        let expected = merged_log(states);
        assert!(!expected.is_empty());
        assert_eq!(seq.clamped_posts(), 0);
        assert_eq!(seq.processed(), expected.len() as u64);

        for threads in [1, 2, 4] {
            let mut par: ShardedExecutor<QuorumEv> = ShardedExecutor::new(SHARDS, lookahead);
            par.seed(0, SimTime::ZERO, (1, 0));
            let mut states: Vec<FiringLog> = (0..SHARDS).map(|_| Vec::new()).collect();
            par.run_parallel(&mut states, &quorum_handler, threads);
            assert_eq!(
                merged_log(states),
                expected,
                "thread count {threads} diverged"
            );
            assert_eq!(par.clamped_posts(), 0);
            assert_eq!(par.rounds(), seq.rounds());
            assert_eq!(par.batched_rounds(), seq.batched_rounds());
        }
    }

    #[test]
    fn lockstep_oracle_agrees_with_adaptive_schedule() {
        let lookahead = RTT_HALF;
        let mut lockstep: ShardedExecutor<QuorumEv> = ShardedExecutor::new(SHARDS, lookahead);
        lockstep.seed(0, SimTime::ZERO, (1, 0));
        let mut states: Vec<FiringLog> = (0..SHARDS).map(|_| Vec::new()).collect();
        lockstep.run_lockstep(&mut states, &quorum_handler);
        let expected = merged_log(states);
        assert_eq!(lockstep.batched_rounds(), 0);

        let mut adaptive: ShardedExecutor<QuorumEv> = ShardedExecutor::new(SHARDS, lookahead);
        adaptive.seed(0, SimTime::ZERO, (1, 0));
        let mut states: Vec<FiringLog> = (0..SHARDS).map(|_| Vec::new()).collect();
        adaptive.run(&mut states, &quorum_handler);
        assert_eq!(merged_log(states), expected);
        assert!(adaptive.batched_rounds() > 0, "quiet phases should batch");
        assert!(adaptive.rounds() <= lockstep.rounds());
    }

    #[test]
    fn adaptive_batching_drains_local_chains_in_one_round() {
        // Token passing with a local burst per visit: each visited shard
        // chains 8 local events 3 us apart (3 lookahead windows each) before
        // handing the token over. Lock-step barriers once per event; the
        // adaptive schedule drains a whole visit — burst plus handoff — in
        // a single round because the other shard is idle.
        let lookahead = SimDuration::from_micros(1);
        type Ev = (u32, u32); // (handoffs left, burst steps left this visit)
        const TTL: u32 = 10;
        const BURST: u32 = 8;
        let handler =
            |ctx: &mut ShardCtx<'_, Ev>, state: &mut Vec<(u64, u32, u32)>, t: SimTime, ev: Ev| {
                let (ttl, steps) = ev;
                state.push((t.as_nanos(), ttl, steps));
                if steps > 0 {
                    ctx.post(t + SimDuration::from_micros(3), (ttl, steps - 1));
                } else if ttl > 0 {
                    let dst = 1 - ctx.shard();
                    ctx.send(dst, t + SimDuration::from_micros(5), (ttl - 1, BURST));
                }
            };

        let mut lockstep: ShardedExecutor<Ev> = ShardedExecutor::new(2, lookahead);
        lockstep.seed(0, SimTime::ZERO, (TTL, BURST));
        let mut lock_states: Vec<Vec<(u64, u32, u32)>> = vec![Vec::new(); 2];
        lockstep.run_lockstep(&mut lock_states, &handler);

        let mut adaptive: ShardedExecutor<Ev> = ShardedExecutor::new(2, lookahead);
        adaptive.seed(0, SimTime::ZERO, (TTL, BURST));
        let mut ad_states: Vec<Vec<(u64, u32, u32)>> = vec![Vec::new(); 2];
        adaptive.run(&mut ad_states, &handler);

        assert_eq!(ad_states, lock_states);
        let events = u64::from((TTL + 1) * (BURST + 1));
        assert_eq!(adaptive.processed(), events);
        assert_eq!(lockstep.rounds(), events, "lock-step rounds once per event");
        assert_eq!(adaptive.rounds(), u64::from(TTL) + 1, "one round per visit");
        assert_eq!(adaptive.batched_rounds(), adaptive.rounds());
    }

    #[test]
    fn a_fed_run_is_the_seeded_run() {
        // Every external event posts a local follow-up onto the shard's next
        // external instant and sends a message onto one of the next shard's
        // external instants, so fed events tie with runtime events on every
        // shard; every third instant holds two external events.
        const N: usize = 3;
        const GAP: u64 = 2_000;
        let lookahead = SimDuration::from_micros(1);
        type Ev = (u64, u8); // (tag, kind: 0 external, 1 local, 2 message)
        let base = |s: usize| 500 * s as u64;
        let external = |s: usize| -> Vec<(SimTime, Ev)> {
            (0..40u64)
                .flat_map(|k| {
                    let at = SimTime::from_nanos(GAP * k + base(s));
                    (0..1 + u64::from(k % 3 == 0)).map(move |j| (at, (10 * k + j, 0)))
                })
                .collect()
        };
        let handler = |ctx: &mut ShardCtx<'_, Ev>, log: &mut Vec<(u64, Ev)>, t: SimTime, ev: Ev| {
            log.push((t.as_nanos(), ev));
            if ev.1 == 0 {
                ctx.post(t + SimDuration::from_nanos(GAP), (ev.0, 1));
                let dst = (ctx.shard() + 1) % N;
                let earliest = (t + lookahead).as_nanos();
                let k = (earliest.saturating_sub(base(dst))).div_ceil(GAP);
                ctx.send(dst, SimTime::from_nanos(GAP * k + base(dst)), (ev.0, 2));
            }
        };
        for drive in [
            ShardDrive::Lockstep,
            ShardDrive::Adaptive,
            ShardDrive::Parallel(2),
            ShardDrive::Parallel(4),
        ] {
            let mut seeded: ShardedExecutor<Ev> = ShardedExecutor::new(N, lookahead);
            for s in 0..N {
                for (at, ev) in external(s) {
                    seeded.seed(s, at, ev);
                }
            }
            let mut seeded_logs: Vec<Vec<(u64, Ev)>> = vec![Vec::new(); N];
            seeded.run_fed(&mut seeded_logs, no_feeds(N), &handler, drive);

            let mut fed: ShardedExecutor<Ev> = ShardedExecutor::new(N, lookahead);
            let mut fed_logs: Vec<Vec<(u64, Ev)>> = vec![Vec::new(); N];
            let feeds = (0..N).map(|s| external(s).into_iter()).collect();
            fed.run_fed(&mut fed_logs, feeds, &handler, drive);

            assert_eq!(fed_logs, seeded_logs, "{drive:?}: firing order moved");
            assert_eq!(fed.rounds(), seeded.rounds(), "{drive:?}");
            assert_eq!(fed.batched_rounds(), seeded.batched_rounds(), "{drive:?}");
            assert_eq!(fed.processed(), seeded.processed(), "{drive:?}");
            assert_eq!(fed.clamped_posts(), 0);
            // The ties the rule exists for did occur: a fed event and a
            // runtime event fired at one instant on one shard.
            assert!(seeded_logs.iter().any(|log| log
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 .1 == 0 && w[1].1 .1 != 0)));
        }
    }

    #[test]
    fn idle_shards_do_not_stall_the_horizon() {
        let mut pdes: ShardedExecutor<u8> = ShardedExecutor::new(3, SimDuration::from_nanos(100));
        pdes.seed(2, SimTime::from_nanos(5), 1);
        let mut states: Vec<Vec<(usize, u64, u8)>> = vec![Vec::new(); 3];
        pdes.run(&mut states, &|ctx, state, t, ev| {
            state.push((ctx.shard(), t.as_nanos(), ev));
        });
        assert_eq!(states[2], vec![(2, 5, 1)]);
        assert!(states[0].is_empty() && states[1].is_empty());
        assert_eq!(pdes.processed(), 1);
        assert_eq!(pdes.rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn under_lookahead_send_panics() {
        let mut pdes: ShardedExecutor<u8> = ShardedExecutor::new(2, SimDuration::from_micros(10));
        pdes.seed(0, SimTime::ZERO, 1);
        pdes.run(&mut [(), ()], &|ctx, _, t, _| {
            ctx.send(1, t + SimDuration::from_nanos(1), 2);
        });
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn under_lookahead_send_panics_in_lockstep() {
        let mut pdes: ShardedExecutor<u8> = ShardedExecutor::new(2, SimDuration::from_micros(10));
        pdes.seed(0, SimTime::ZERO, 1);
        pdes.run_lockstep(&mut [(), ()], &|ctx, _, t, _| {
            ctx.send(1, t + SimDuration::from_nanos(1), 2);
        });
    }
}
