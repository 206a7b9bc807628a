//! The reference implementations the differential tests compare the kernel
//! against: the binary-heap calendar the wheel replaced and the event-chain
//! server the closed form replaced.
//!
//! Nothing in the workspace runs on these. They are public (and hidden
//! from the docs) only so `tests/differential.rs` and `tests/props.rs` can
//! name them: `Executor<E, HeapQueue<E>>` against the default executor,
//! [`schedule_via_events`] against [`Server::schedule`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::Calendar;
use crate::resource::{ScheduledSpan, Server};
use crate::{Executor, SimDuration, SimTime};

/// One pending event: fires at `at`, FIFO among events at the same instant.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse so the earliest (time, seq)
        // pops first. The sequence number breaks time ties FIFO.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The original binary-heap calendar, retained as the differential-testing
/// oracle for [`WheelQueue`](crate::WheelQueue).
///
/// Events for the same instant pop in the order they were pushed, which is
/// what makes simulations built on the calendar deterministic.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> Calendar<E> for HeapQueue<E> {
    fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn pushed(&self) -> u64 {
        self.next_seq
    }
}

/// The event-driven implementation of [`Server::schedule`]: the arrival
/// and completion play out as a two-event chain on a freshly allocated
/// binary-heap calendar. Byte-equivalent to the closed form (the event
/// kernel breaks time ties FIFO by insertion sequence), which a proptest in
/// `tests/props.rs` pins.
pub fn schedule_via_events(
    server: &mut Server,
    arrival: SimTime,
    service: SimDuration,
) -> ScheduledSpan {
    enum Ev {
        Arrive(SimDuration),
        Complete { start: SimTime },
    }
    let free_at = server.free_at();
    let mut exec: Executor<Ev, HeapQueue<Ev>> = Executor::with_calendar();
    exec.post(arrival, Ev::Arrive(service));
    let mut span = None;
    exec.run(|ex, t, ev| match ev {
        Ev::Arrive(service) => {
            // Service begins once both the request and the server are
            // ready; the completion is a chained calendar event.
            let start = t.max(free_at);
            ex.post(start + service, Ev::Complete { start });
        }
        Ev::Complete { start } => span = Some(ScheduledSpan { start, end: t }),
    });
    let ScheduledSpan { start, end } = span.expect("the arrival event always chains a completion");
    server.commit_span(start, end, service);
    ScheduledSpan { start, end }
}
