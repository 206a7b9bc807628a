//! The production event calendar: a calendar queue with slab event storage
//! and lazily sorted buckets.
//!
//! # Layout
//!
//! Pending events live in three tiers, ordered by how soon they fire:
//!
//! 1. **`ready`** — the imminent tier: a vector of small `Slot` keys
//!    (`at`, `seq`, slab index) sorted *descending* by `(at, seq)`, so the
//!    next event to fire is always `ready.last()` and popping is a `Vec::pop`.
//! 2. **`buckets`** — the near-future window: `NB` buckets of unsorted
//!    slots, bucket `i` covering `[window_start + i·width, +width)`. A bucket
//!    is sorted once, when the cursor reaches it and its contents move to
//!    `ready` — this is the *batched dispatch*: one `sort_unstable` amortizes
//!    over every event (and every same-instant tie) in the bucket.
//! 3. **`overflow`** — everything beyond the window, unsorted. When the
//!    window drains, the wheel re-seeds: `window_start`/`width` are recomputed
//!    from the overflow's min/max so the next window spans it evenly.
//!
//! Event payloads of type `E` are stored once in a slab (`Vec<Option<E>>`
//! with a free list) and never move while pending; the sort shuffles only
//! 24-byte keys. Pushes are O(1) amortized, pops O(1) amortized plus the
//! shared bucket sort, and `peek_time` is O(1) because the invariant
//! *`ready` is non-empty whenever the queue is non-empty* is restored after
//! every push and pop.
//!
//! # Determinism
//!
//! Ordering is exactly `(at, seq)` with `seq` the global insertion counter —
//! the same total order the binary-heap oracle ([`HeapQueue`]) uses — so the
//! two calendars are observationally identical event for event; a
//! differential proptest in `tests/differential.rs` pins this.

use crate::SimTime;

use crate::event::Calendar;
#[cfg(doc)]
use crate::oracle::HeapQueue;

/// Number of buckets in the near-future window. A power of two keeps the
/// reseed arithmetic cheap; 256 buckets keep per-bucket sorts small across
/// the workloads in this repo (queue-depth chains, GC storms, tenant-aligned
/// deadline ties, replication fan-out).
const NB: usize = 256;

/// Small-calendar bypass: while *every* pending event fits in `ready` and
/// `ready` is at most this long, pushes binary-insert straight into it and
/// the window machinery never engages. A sorted vector beats both the
/// buckets and a binary heap at these sizes (pop is a `Vec::pop`, insert
/// moves at most `READY_DIRECT_MAX` 24-byte keys), and closed-loop
/// simulations — queue-depth drives, GC chains, replication fan-out — live
/// their whole lives under this bound. Kept below the wide-tie workloads
/// (e.g. 64 tenants ticking in lockstep), which are better served by the
/// buckets' O(1) push and batched sort.
const READY_DIRECT_MAX: usize = 32;

/// A sort key for one pending event; the payload stays put in the slab.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Slot {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A calendar queue ordered by `(time, insertion sequence)` — the default
/// [`EventQueue`](crate::EventQueue) behind [`Executor`](crate::Executor).
///
/// See the module docs of `wheel.rs` for the layout and determinism argument.
#[derive(Debug, Clone)]
pub struct WheelQueue<E> {
    /// Imminent events, sorted descending by `(at, seq)`; pop from the back.
    ready: Vec<Slot>,
    /// Near-future window buckets, unsorted within each bucket.
    buckets: Vec<Vec<Slot>>,
    /// Next window bucket the cursor will drain into `ready`.
    cursor: usize,
    /// Start of the bucket window, in nanoseconds.
    window_start: u64,
    /// Width of one bucket, in nanoseconds (always >= 1).
    width: u64,
    /// Exclusive upper bound of the region `ready` covers: every pending
    /// event with `at < frontier` is in `ready`, everything else is in a
    /// bucket or the overflow.
    frontier: u64,
    /// Events at or beyond the window end, unsorted, re-seeded on drain.
    overflow: Vec<Slot>,
    /// Arena of event payloads; slots index into it, freed entries recycle.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        WheelQueue::new()
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        WheelQueue {
            ready: Vec::new(),
            buckets: Vec::new(),
            cursor: 0,
            window_start: 0,
            width: 1,
            frontier: 0,
            overflow: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("slab outgrew u32 indexing");
                self.slab.push(Some(event));
                idx
            }
        };
        let slot = Slot { at, seq, idx };
        if self.len == 0 {
            // Empty queue: re-anchor the window at this event so the wheel
            // tracks the simulation clock instead of drifting behind it.
            self.window_start = at.as_nanos();
            self.frontier = at.as_nanos();
            self.cursor = 0;
            self.ready.push(slot);
            self.len = 1;
            return;
        }
        self.len += 1;
        let at_ns = at.as_nanos();
        // The bypass applies when the window and overflow are empty (then
        // everything pending is in `ready`, so inserting there cannot jump
        // an earlier bucketed event) and `ready` is still small.
        let bypass = self.ready.len() + 1 == self.len && self.ready.len() < READY_DIRECT_MAX;
        if at_ns < self.frontier || bypass {
            // Falls in the already-drained region: interleave into `ready`
            // at its sorted position (descending, so ties pop FIFO).
            let key = slot.key();
            let pos = self
                .ready
                .binary_search_by(|s| key.cmp(&s.key()))
                .unwrap_err();
            self.ready.insert(pos, slot);
            if at_ns >= self.frontier {
                // Keep the invariant that everything below `frontier` is in
                // `ready`: later pushes at or before this instant must take
                // this same path rather than landing in a bucket.
                self.frontier = at_ns.saturating_add(1);
            }
        } else {
            self.place_in_window(slot);
            if self.ready.is_empty() {
                self.refill();
            }
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot = self.ready.pop()?;
        self.len -= 1;
        let event = self.slab[slot.idx as usize]
            .take()
            .expect("slab slot vacated while still scheduled");
        self.free.push(slot.idx);
        if self.ready.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((slot.at, event))
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ready.last().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever pushed (the next tie-breaking sequence number).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Files a slot into its window bucket or the overflow. The caller has
    /// already ruled out the `ready` region (`at >= frontier`).
    fn place_in_window(&mut self, slot: Slot) {
        let at = slot.at.as_nanos();
        let offset = at - self.window_start.min(at);
        let bucket = (offset / self.width) as usize;
        if bucket < NB {
            if self.buckets.is_empty() {
                self.buckets = (0..NB).map(|_| Vec::new()).collect();
            }
            self.buckets[bucket].push(slot);
        } else {
            self.overflow.push(slot);
        }
    }

    /// Restores the invariant `len > 0 ⟹ !ready.is_empty()` by draining the
    /// earliest non-empty bucket into `ready` (sorting it once), re-seeding
    /// the window from the overflow when the window is dry.
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty());
        loop {
            while self.cursor < NB {
                match self.buckets.get_mut(self.cursor) {
                    None => {
                        // Buckets never allocated: window is empty.
                        self.cursor = NB;
                        break;
                    }
                    Some(b) if b.is_empty() => self.cursor += 1,
                    Some(b) => {
                        std::mem::swap(&mut self.ready, b);
                        self.cursor += 1;
                        self.frontier = self
                            .window_start
                            .saturating_add(self.cursor as u64 * self.width);
                        // Descending sort: the earliest (at, seq) ends up at
                        // the back, and a run of same-instant ties drains
                        // back-to-front in FIFO seq order — the batched
                        // same-instant dispatch. Unstable is exact: `seq`
                        // is unique, so no two keys tie.
                        self.ready
                            .sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
                        return;
                    }
                }
            }
            if self.overflow.is_empty() {
                // Fully drained; leave `frontier` where it is — the next
                // push re-anchors the window (len == 0 fast path).
                return;
            }
            self.reseed();
        }
    }

    /// Re-anchors the bucket window around the overflow's time span and
    /// redistributes it, so the window always covers the next `NB` buckets
    /// of pending work regardless of how far event times have advanced.
    fn reseed(&mut self) {
        let min = self
            .overflow
            .iter()
            .map(|s| s.at.as_nanos())
            .min()
            .expect("reseed requires a non-empty overflow");
        let max = self
            .overflow
            .iter()
            .map(|s| s.at.as_nanos())
            .max()
            .expect("reseed requires a non-empty overflow");
        self.window_start = min;
        self.width = ((max - min) / NB as u64).saturating_add(1);
        self.frontier = min;
        self.cursor = 0;
        if self.buckets.is_empty() {
            self.buckets = (0..NB).map(|_| Vec::new()).collect();
        }
        let pending = std::mem::take(&mut self.overflow);
        for slot in pending {
            let bucket = ((slot.at.as_nanos() - min) / self.width) as usize;
            debug_assert!(bucket < NB, "reseed width must span the overflow");
            self.buckets[bucket].push(slot);
        }
    }
}

impl<E> Calendar<E> for WheelQueue<E> {
    fn push(&mut self, at: SimTime, event: E) {
        WheelQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        WheelQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        WheelQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        WheelQueue::len(self)
    }
    fn pushed(&self) -> u64 {
        WheelQueue::pushed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_sorted_across_tiers() {
        let mut q = WheelQueue::new();
        // Scatter events across the ready region, the window, and overflow.
        for t in [5u64, 1_000_000_000, 3, 700, 999, 2, 500_000] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut popped = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert_eq!(t.as_nanos(), v);
            popped.push(v);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 7);
    }

    #[test]
    fn interleaved_push_pop_keeps_order_and_ties_fifo() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(10), "b");
        q.push(SimTime::from_nanos(30), "d");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        // Push into the already-drained ready region (same instant as "b").
        q.push(SimTime::from_nanos(10), "c");
        q.push(SimTime::from_nanos(20), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "c")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slab_recycles_freed_slots() {
        let mut q = WheelQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(SimTime::from_nanos(round * 1000 + i), i);
            }
            while q.pop().is_some() {}
        }
        // Ten rounds of 100 events reuse the same 100 arena slots.
        assert!(q.slab.len() <= 100, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn bypass_to_window_transition_keeps_order() {
        // Fill past READY_DIRECT_MAX so pushes spill from the small-calendar
        // bypass into the bucket window, with deliberately interleaved times
        // and ties, then drain and check total order.
        let mut q = WheelQueue::new();
        let times: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 500).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable(); // (time, insertion seq) — FIFO among ties
        assert_eq!(popped, sorted);
    }

    #[test]
    fn peek_time_tracks_minimum_through_reseed() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_nanos(1_000_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000_000)));
        q.push(SimTime::from_nanos(50), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000_000)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
