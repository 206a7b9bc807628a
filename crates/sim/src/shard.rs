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
//! Execution proceeds in barrier rounds. Each round:
//!
//! 1. Snapshot every shard's next-event time.
//! 2. Every shard independently drains its calendar through a per-shard
//!    safe horizon (below) — sequentially, or on persistent worker threads
//!    via [`ShardedExecutor::run_parallel`]. Cross-shard sends are buffered
//!    in a per-shard outbox, never delivered mid-round.
//! 3. At the round barrier, outboxes are delivered in
//!    `(fire time, sender shard, send order)` order.
//!
//! # Adaptive per-shard horizons
//!
//! The classic conservative horizon is global: everyone stops at
//! `global_min + lookahead - 1 ns`, which barriers the whole simulation
//! once per lookahead window even when only one shard has work. That
//! lock-step schedule is retained as [`ShardedExecutor::run_lockstep`] —
//! the differential baseline, in the same spirit as the `HeapQueue` kernel
//! oracle. The default [`ShardedExecutor::run`] /
//! [`ShardedExecutor::run_parallel`] pair instead computes, per shard `i`:
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

/// A cross-shard message buffered until the round barrier.
#[derive(Debug, Clone)]
struct Envelope<E> {
    at: SimTime,
    src: usize,
    dst: usize,
    /// Emission order within the sender's round, for deterministic ties.
    order: u64,
    event: E,
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
            event,
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

/// Drains one shard through `min(hint, send caps)` for this round,
/// buffering cross-shard sends into `outbox`. Every emitted envelope
/// tightens the effective horizon to `arrival + lookahead - 1 ns` so that
/// responses to this round's sends can never arrive in the shard's past.
fn drain_shard<E, S, F>(
    exec: &mut Executor<E>,
    shard: usize,
    hint: Option<SimTime>,
    lookahead: SimDuration,
    outbox: &mut Vec<Envelope<E>>,
    state: &mut S,
    handler: &F,
) where
    F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
{
    debug_assert!(outbox.is_empty(), "outbox leaked between rounds");
    let step = lookahead - SimDuration::from_nanos(1);
    let mut eff = hint;
    let mut scanned = 0usize;
    while let Some(t) = exec.peek_next_time() {
        if eff.is_some_and(|e| t > e) {
            break;
        }
        exec.step(&mut |ex: &mut Executor<E>, t, ev| {
            let mut ctx = ShardCtx {
                shard,
                exec: ex,
                outbox,
                lookahead,
            };
            handler(&mut ctx, state, t, ev);
        });
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

/// A bank of per-domain [`Executor`]s advanced in conservative rounds.
/// See the [module docs](self) for the safety and determinism argument.
#[derive(Debug, Clone)]
pub struct ShardedExecutor<E> {
    shards: Vec<Executor<E>>,
    lookahead: SimDuration,
    rounds: u64,
    batched_rounds: u64,
    /// One reusable outbox per shard, cleared at every delivery.
    outboxes: Vec<Vec<Envelope<E>>>,
    /// Reusable merge buffer for sequential delivery.
    mail: Vec<Envelope<E>>,
    /// Reusable next-event snapshot (nanoseconds, `u64::MAX` = idle).
    next_ns: Vec<u64>,
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
            mail: Vec::new(),
            next_ns: Vec::with_capacity(n),
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

    /// The classic global safe horizon, if any events are pending.
    fn horizon(&self) -> Option<SimTime> {
        let min = self
            .shards
            .iter()
            .filter_map(|s| s.peek_next_time())
            .min()?;
        // Inclusive horizon: lookahead - 1 ns, so an event fired exactly at
        // `min` can send a message arriving at `min + lookahead` without any
        // shard having simulated that instant yet.
        Some(min + self.lookahead - SimDuration::from_nanos(1))
    }

    /// Merges every shard's outbox and delivers in deterministic
    /// `(fire time, sender, send order)` order, leaving the outboxes empty
    /// for reuse.
    fn flush_mail(&mut self) {
        for outbox in &mut self.outboxes {
            self.mail.append(outbox);
        }
        self.mail.sort_by_key(|m| (m.at, m.src, m.order));
        for m in self.mail.drain(..) {
            debug_assert!(
                m.at >= self.shards[m.dst].now(),
                "conservative horizon admitted a stale delivery"
            );
            self.shards[m.dst].post(m.at, m.event);
        }
    }

    /// One adaptive round: snapshot, per-shard hints, drain, deliver.
    /// Returns `false` when every shard is idle.
    fn adaptive_round<S, F>(&mut self, states: &mut [S], handler: &F) -> bool
    where
        F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
    {
        self.next_ns.clear();
        self.next_ns.extend(
            self.shards
                .iter()
                .map(|s| s.peek_next_time().map_or(u64::MAX, |t| t.as_nanos())),
        );
        let (min1, count1, min2) = min_two(&self.next_ns);
        if min1 == u64::MAX {
            return false;
        }
        self.rounds += 1;
        if count1 == 1 {
            // Exactly one shard holds the minimum: its hint extends past
            // the global window, so this round batches.
            self.batched_rounds += 1;
        }
        let lookahead = self.lookahead;
        let step = lookahead - SimDuration::from_nanos(1);
        for (i, (shard, state)) in self.shards.iter_mut().zip(states.iter_mut()).enumerate() {
            let hint = hint_for(self.next_ns[i], min1, count1, min2, step);
            drain_shard(
                shard,
                i,
                hint,
                lookahead,
                &mut self.outboxes[i],
                state,
                handler,
            );
        }
        self.flush_mail();
        true
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
        assert_eq!(states.len(), self.len(), "one state per shard");
        while self.adaptive_round(states, handler) {}
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
        assert_eq!(states.len(), self.len(), "one state per shard");
        while let Some(horizon) = self.horizon() {
            self.rounds += 1;
            let lookahead = self.lookahead;
            for (i, (shard, state)) in self.shards.iter_mut().zip(states.iter_mut()).enumerate() {
                let outbox = &mut self.outboxes[i];
                shard.run_until(horizon, |ex, t, ev| {
                    let mut ctx = ShardCtx {
                        shard: i,
                        exec: ex,
                        outbox,
                        lookahead,
                    };
                    handler(&mut ctx, state, t, ev);
                });
            }
            self.flush_mail();
        }
    }

    /// Like [`ShardedExecutor::run`], but shards are fanned out across
    /// persistent worker threads that stay alive for the whole drive and
    /// meet at two barriers per round (snapshot, delivery) — no thread is
    /// spawned per round, no buffer allocated per round.
    ///
    /// `threads` is clamped to the shard count *and* the host's available
    /// parallelism: more workers than cores add context switches without
    /// concurrency, and the firing sequence is thread-count-invariant by
    /// construction, so nothing observable changes. With one effective
    /// worker this is exactly the sequential adaptive loop.
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
        assert_eq!(states.len(), self.len(), "one state per shard");
        assert!(threads > 0, "need at least one worker thread");
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = threads.min(self.len()).min(host);
        if threads <= 1 {
            while self.adaptive_round(states, handler) {}
            return;
        }
        let n = self.len();
        let chunk = n.div_ceil(threads);
        let workers = n.div_ceil(chunk);
        let lookahead = self.lookahead;
        let barrier = Barrier::new(workers);
        // Published next-event times (nanoseconds, MAX = idle). The round
        // barriers provide the cross-thread happens-before edges, so all
        // atomic accesses can be relaxed.
        let next_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        // One mailbox per worker: senders stage envelopes by destination
        // worker and push once per round, receivers swap the batch out.
        let mailboxes: Vec<Mutex<Vec<Envelope<E>>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let rounds = AtomicU64::new(0);
        let batched = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for (wi, ((shards, states), outboxes)) in self
                .shards
                .chunks_mut(chunk)
                .zip(states.chunks_mut(chunk))
                .zip(self.outboxes.chunks_mut(chunk))
                .enumerate()
            {
                let barrier = &barrier;
                let next_ns = &next_ns;
                let mailboxes = &mailboxes;
                let rounds = &rounds;
                let batched = &batched;
                scope.spawn(move || {
                    worker_loop(
                        wi, chunk, lookahead, shards, states, outboxes, barrier, next_ns,
                        mailboxes, rounds, batched, handler,
                    );
                });
            }
        });
        self.rounds += rounds.into_inner();
        self.batched_rounds += batched.into_inner();
    }
}

/// The persistent per-worker round loop for
/// [`ShardedExecutor::run_parallel`]. Mirrors
/// [`ShardedExecutor::adaptive_round`] exactly — same snapshot, same
/// hints, same per-destination delivery order — so the firing sequence is
/// identical to the sequential path.
#[allow(clippy::too_many_arguments)]
fn worker_loop<E, S, F>(
    wi: usize,
    chunk: usize,
    lookahead: SimDuration,
    shards: &mut [Executor<E>],
    states: &mut [S],
    outboxes: &mut [Vec<Envelope<E>>],
    barrier: &Barrier,
    next_ns: &[AtomicU64],
    mailboxes: &[Mutex<Vec<Envelope<E>>>],
    rounds: &AtomicU64,
    batched: &AtomicU64,
    handler: &F,
) where
    F: Fn(&mut ShardCtx<'_, E>, &mut S, SimTime, E),
{
    let base = wi * chunk;
    let step = lookahead - SimDuration::from_nanos(1);
    let mut snapshot = vec![0u64; next_ns.len()];
    let mut stage: Vec<Vec<Envelope<E>>> = (0..mailboxes.len()).map(|_| Vec::new()).collect();
    let mut inbox: Vec<Envelope<E>> = Vec::new();
    loop {
        for (j, s) in shards.iter().enumerate() {
            next_ns[base + j].store(
                s.peek_next_time().map_or(u64::MAX, |t| t.as_nanos()),
                Ordering::Relaxed,
            );
        }
        barrier.wait();
        for (slot, published) in snapshot.iter_mut().zip(next_ns) {
            *slot = published.load(Ordering::Relaxed);
        }
        // Every worker computes the same minima from the same snapshot, so
        // all of them agree on termination and on each shard's hint.
        let (min1, count1, min2) = min_two(&snapshot);
        if min1 == u64::MAX {
            break;
        }
        if wi == 0 {
            rounds.fetch_add(1, Ordering::Relaxed);
            if count1 == 1 {
                batched.fetch_add(1, Ordering::Relaxed);
            }
        }
        for j in 0..shards.len() {
            let i = base + j;
            let hint = hint_for(snapshot[i], min1, count1, min2, step);
            drain_shard(
                &mut shards[j],
                i,
                hint,
                lookahead,
                &mut outboxes[j],
                &mut states[j],
                handler,
            );
            for env in outboxes[j].drain(..) {
                stage[env.dst / chunk].push(env);
            }
        }
        for (dst, staged) in stage.iter_mut().enumerate() {
            if !staged.is_empty() {
                mailboxes[dst]
                    .lock()
                    .expect("mailbox poisoned")
                    .append(staged);
            }
        }
        barrier.wait();
        {
            let mut mb = mailboxes[wi].lock().expect("mailbox poisoned");
            std::mem::swap(&mut inbox, &mut *mb);
        }
        // Per-destination order (fire time, sender, send order) is the
        // restriction of the sequential global merge order to this
        // worker's shards, so calendar tie-breaking sequences match.
        inbox.sort_by_key(|m| (m.at, m.src, m.order));
        for m in inbox.drain(..) {
            let shard = &mut shards[m.dst - base];
            debug_assert!(
                m.at >= shard.now(),
                "conservative horizon admitted a stale delivery"
            );
            shard.post(m.at, m.event);
        }
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
