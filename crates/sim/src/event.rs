//! The discrete-event kernel: a calendar of timestamped events and an
//! executor that drains it in deterministic order.
//!
//! Two calendar implementations share the [`Calendar`] contract:
//!
//! - [`WheelQueue`](crate::WheelQueue): the default — a calendar queue with
//!   slab-allocated event payloads, lazily sorted buckets, and batched
//!   same-instant dispatch. This is the fast path every simulation runs on.
//! - [`HeapQueue`]: the original binary-heap calendar, kept in the hidden
//!   [`oracle`](crate::oracle) module as the differential-testing
//!   reference: a test that suspects the kernel names it at the call site
//!   (`Executor<E, HeapQueue<E>>`) and compares against the default.
//!
//! Both calendars order events by `(time, insertion sequence)`, so events
//! posted for the same instant fire in FIFO order. This makes every run of a
//! simulation bit-for-bit reproducible: the only ordering inputs are the
//! timestamps and the order in which events were posted, never hash-map
//! iteration order or wall-clock scheduling. A differential proptest
//! (`tests/differential.rs`) drives random event programs through both
//! calendars and asserts identical firing sequences.
//!
//! # Example
//!
//! ```rust
//! use twob_sim::{Executor, SimTime};
//!
//! let mut exec = Executor::new();
//! exec.post(SimTime::from_nanos(10), "late");
//! exec.post(SimTime::from_nanos(5), "early");
//! let mut order = Vec::new();
//! exec.run(|_, t, ev| order.push((t.as_nanos(), ev)));
//! assert_eq!(order, vec![(5, "early"), (10, "late")]);
//! ```

use std::marker::PhantomData;

#[cfg(doc)]
use crate::oracle::HeapQueue;
use crate::wheel::WheelQueue;
use crate::SimTime;

/// The contract every event calendar implements: push timestamped events,
/// pop them back in `(time, insertion sequence)` order.
///
/// The executor is generic over this trait so the production calendar
/// ([`WheelQueue`](crate::WheelQueue)) and the binary-heap oracle
/// ([`HeapQueue`]) can be swapped per call site for differential tests.
pub trait Calendar<E>: Default {
    /// Schedules `event` to fire at `at`.
    fn push(&mut self, at: SimTime, event: E);
    /// Removes and returns the earliest event, FIFO among ties.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The firing time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total events ever pushed (the next tie-breaking sequence number).
    fn pushed(&self) -> u64;
}

/// The calendar behind [`Executor`] and every consumer in the workspace:
/// the calendar-queue [`WheelQueue`](crate::WheelQueue).
pub type EventQueue<E> = WheelQueue<E>;

/// Drains a [`Calendar`] in time order, tracking the current virtual
/// instant and letting handlers post follow-up events.
///
/// The handler receives `(&mut Executor, fire_time, event)` and may call
/// [`Executor::post`] to chain further events; posting "into the past" is
/// clamped to the current instant so time never runs backwards. Every such
/// clamp is counted — a clamp usually means a scheduling bug upstream, so
/// sweeps assert [`Executor::clamped_posts`] stays zero.
///
/// The second type parameter selects the calendar; it defaults to
/// [`EventQueue`], so `Executor<MyEvent>` is the production kernel and
/// `Executor<MyEvent, HeapQueue<MyEvent>>` is the differential oracle.
#[derive(Debug, Clone)]
pub struct Executor<E, Q: Calendar<E> = EventQueue<E>> {
    queue: Q,
    now: SimTime,
    processed: u64,
    clamped: u64,
    _event: PhantomData<fn() -> E>,
}

impl<E, Q: Calendar<E>> Default for Executor<E, Q> {
    fn default() -> Self {
        Executor::with_calendar()
    }
}

impl<E> Executor<E> {
    /// Creates an idle executor at time zero on the default calendar.
    pub fn new() -> Self {
        Executor::with_calendar()
    }
}

impl<E, Q: Calendar<E>> Executor<E, Q> {
    /// Creates an idle executor at time zero on an explicitly chosen
    /// calendar, e.g. `Executor::<Ev, HeapQueue<Ev>>::with_calendar()` for
    /// the differential-testing oracle.
    pub fn with_calendar() -> Self {
        Executor {
            queue: Q::default(),
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
            _event: PhantomData,
        }
    }

    /// The current virtual instant (the firing time of the latest event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if the calendar is drained.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of posts that targeted the past and were clamped forward to
    /// the current instant.
    ///
    /// A clamp silently rewrites a timestamp, which almost always masks a
    /// scheduling bug in the poster; benches and differential tests assert
    /// this stays zero. The one legitimate clamp pattern — posting at
    /// "now or earlier" to mean "immediately" — should pass
    /// [`Executor::now`] explicitly instead.
    pub fn clamped_posts(&self) -> u64 {
        self.clamped
    }

    /// Posts `event` to fire at `at`, clamped to the current instant so a
    /// handler cannot schedule into the past. Clamps are counted in
    /// [`Executor::clamped_posts`].
    pub fn post(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        self.queue.push(at.max(self.now), event);
    }

    /// Fires the earliest pending event through `handler`, advancing the
    /// clock to its timestamp. Returns `false` if the calendar was empty.
    pub fn step<F>(&mut self, handler: &mut F) -> bool
    where
        F: FnMut(&mut Executor<E, Q>, SimTime, E),
    {
        match self.queue.pop() {
            None => false,
            Some((at, event)) => {
                debug_assert!(at >= self.now, "calendar produced a past event");
                self.now = at;
                self.processed += 1;
                handler(self, at, event);
                true
            }
        }
    }

    /// Drains the calendar, firing every event (including ones posted by the
    /// handler itself) in deterministic `(time, seq)` order.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Executor<E, Q>, SimTime, E),
    {
        while self.step(&mut handler) {}
    }

    /// Fires events while their timestamp is `<= until`, leaving later ones
    /// pending. Advances the clock to `until` if the calendar runs dry first.
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Executor<E, Q>, SimTime, E),
    {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            self.step(&mut handler);
        }
        self.now = self.now.max(until);
    }

    /// Advances the clock to `at` without firing anything, clamped so time
    /// never runs backwards. The conservative sharded executor uses this to
    /// record how far a shard's horizon was proven safe even when its
    /// calendar ran dry earlier.
    ///
    /// Debug builds assert that no pending event fires strictly before `at`
    /// — skipping over a scheduled event would violate time order.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            self.queue.peek_time().is_none_or(|t| t >= at),
            "advance_to({at}) would skip over a pending event"
        );
        self.now = self.now.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::HeapQueue;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn heap_oracle_pops_in_time_order() {
        let mut q = HeapQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo_by_sequence() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)), "tie {i} popped out of order");
        }
    }

    #[test]
    fn executor_chains_follow_up_events() {
        let mut exec = Executor::new();
        exec.post(SimTime::from_nanos(5), 3u32);
        let mut fired = Vec::new();
        exec.run(|ex, t, remaining| {
            fired.push(t.as_nanos());
            if remaining > 0 {
                ex.post(t + SimDuration::from_nanos(10), remaining - 1);
            }
        });
        assert_eq!(fired, vec![5, 15, 25, 35]);
        assert_eq!(exec.now(), SimTime::from_nanos(35));
        assert_eq!(exec.processed(), 4);
        assert!(exec.is_idle());
    }

    #[test]
    fn post_clamps_to_current_instant_and_counts_it() {
        let mut exec = Executor::new();
        exec.post(SimTime::from_nanos(100), "first");
        let mut fired = Vec::new();
        exec.run(|ex, t, ev| {
            fired.push((t.as_nanos(), ev));
            if ev == "first" {
                // Attempt to schedule into the past: clamped to `now`.
                ex.post(SimTime::from_nanos(1), "clamped");
            }
        });
        assert_eq!(fired, vec![(100, "first"), (100, "clamped")]);
        assert_eq!(exec.clamped_posts(), 1);
    }

    #[test]
    fn posting_at_now_is_not_a_clamp() {
        let mut exec = Executor::new();
        exec.post(SimTime::from_nanos(10), "a");
        exec.run(|ex, t, ev| {
            if ev == "a" {
                // Posting exactly at the current instant is legitimate
                // immediate dispatch, not a clamp.
                ex.post(t, "b");
            }
        });
        assert_eq!(exec.clamped_posts(), 0);
        assert_eq!(exec.processed(), 2);
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let mut exec = Executor::new();
        exec.post(SimTime::from_nanos(10), ());
        exec.post(SimTime::from_nanos(50), ());
        let mut count = 0;
        exec.run_until(SimTime::from_nanos(20), |_, _, _| count += 1);
        assert_eq!(count, 1);
        assert_eq!(exec.now(), SimTime::from_nanos(20));
        assert_eq!(exec.pending(), 1);
        exec.run(|_, _, _| count += 1);
        assert_eq!(count, 2);
        assert_eq!(exec.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn oracle_executor_matches_default_on_a_chained_program() {
        fn program<Q: Calendar<u32>>(exec: &mut Executor<u32, Q>) -> Vec<(u64, u32)> {
            let mut log = Vec::new();
            exec.post(SimTime::from_nanos(5), 4u32);
            exec.post(SimTime::from_nanos(5), 9u32);
            exec.run(|ex, t, n| {
                log.push((t.as_nanos(), n));
                if n > 0 {
                    ex.post(t + SimDuration::from_nanos(u64::from(n % 3)), n - 1);
                }
            });
            log
        }
        let mut wheel: Executor<u32, WheelQueue<u32>> = Executor::with_calendar();
        let mut heap: Executor<u32, HeapQueue<u32>> = Executor::with_calendar();
        assert_eq!(program(&mut wheel), program(&mut heap));
        assert_eq!(wheel.processed(), heap.processed());
        assert_eq!(wheel.now(), heap.now());
    }
}
