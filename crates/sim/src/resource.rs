//! FIFO queuing resources: the hottest path in the simulator.
//!
//! [`Server::schedule`] runs under every simulated I/O, so it is computed in
//! closed form — `start = max(arrival, free_at)`, `end = start + service` —
//! with zero allocation. An earlier kernel iteration played every call out
//! as a two-event chain on a freshly allocated calendar; that implementation
//! survives as [`schedule_via_events`], the reference a proptest in
//! `tests/props.rs` pins the closed form against byte-for-byte (the event
//! kernel breaks time ties FIFO by insertion sequence, so the two agree on
//! every schedule).

#[cfg(doc)]
use crate::oracle::schedule_via_events;
use crate::{SimDuration, SimTime};

/// The span during which a scheduled operation occupied a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledSpan {
    /// When service actually began (after any queuing delay).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl ScheduledSpan {
    /// The total latency experienced by a request that arrived at `arrival`,
    /// including time spent waiting for the resource.
    pub fn latency_from(&self, arrival: SimTime) -> SimDuration {
        self.end.saturating_since(arrival)
    }

    /// The service time alone, excluding queuing.
    pub fn service(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A single-server FIFO resource: a NAND channel, a firmware core, the PCIe
/// link, or anything else that serves one request at a time.
///
/// An operation arriving at `t` with service time `s` starts at
/// `max(t, free_at)` and completes `s` later; the resource is then busy until
/// that completion.
///
/// # Example
///
/// ```rust
/// use twob_sim::{Server, SimDuration, SimTime};
///
/// let mut s = Server::new();
/// let a = s.schedule(SimTime::ZERO, SimDuration::from_micros(10));
/// // Arrives while busy: queues behind the first request.
/// let b = s.schedule(SimTime::from_nanos(2_000), SimDuration::from_micros(10));
/// assert_eq!(b.start, a.end);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Server {
    free_at: SimTime,
    busy_total: SimDuration,
    served: u64,
    /// Merged, time-ordered busy intervals with the cumulative busy time
    /// through each interval's end, for window-clamped utilization queries.
    /// Contiguous back-to-back service extends the last interval, so the
    /// vector only grows when the server actually went idle in between.
    busy_intervals: Vec<BusyInterval>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BusyInterval {
    start: SimTime,
    end: SimTime,
    /// Total busy time from the start of the timeline through `end`.
    cum_busy: SimDuration,
}

impl Server {
    /// Creates an idle server, free from the start of time.
    pub fn new() -> Self {
        Server::default()
    }

    /// Schedules an operation arriving at `arrival` requiring `service` time,
    /// returning the span during which it held the server.
    ///
    /// Computed in closed form with no allocation: service begins once both
    /// the request and the server are ready (`max(arrival, free_at)`) and
    /// the server is busy until `service` later. An arrival in the past
    /// (before the server's current `free_at`) is therefore clamped forward
    /// — it queues like any other request, and `busy_intervals` stays
    /// sorted. [`schedule_via_events`] is the event-driven reference this
    /// is proptest-pinned against.
    pub fn schedule(&mut self, arrival: SimTime, service: SimDuration) -> ScheduledSpan {
        let start = arrival.max(self.free_at);
        let end = start + service;
        self.commit_span(start, end, service);
        ScheduledSpan { start, end }
    }

    /// Books a computed span into the busy-time accounting shared by the
    /// closed-form path and the event-driven oracle.
    pub(crate) fn commit_span(&mut self, start: SimTime, end: SimTime, service: SimDuration) {
        self.free_at = end;
        self.busy_total += service;
        self.served += 1;
        // Clamping the start to `free_at` keeps interval starts monotone —
        // `busy_within`'s `partition_point` depends on this ordering.
        debug_assert!(
            self.busy_intervals
                .last()
                .is_none_or(|last| start >= last.end),
            "busy interval out of order: start {start:?} before last end"
        );
        match self.busy_intervals.last_mut() {
            Some(last) if last.end == start => {
                last.end = end;
                last.cum_busy += service;
            }
            _ => {
                let prev = self
                    .busy_intervals
                    .last()
                    .map_or(SimDuration::ZERO, |i| i.cum_busy);
                self.busy_intervals.push(BusyInterval {
                    start,
                    end,
                    cum_busy: prev + service,
                });
            }
        }
    }

    /// Returns the instant at which the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Returns `true` if the server would be idle at `instant`.
    pub fn is_idle_at(&self, instant: SimTime) -> bool {
        self.free_at <= instant
    }

    /// Total busy time accumulated across all scheduled operations.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of operations served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Busy time accumulated strictly within the window `[0, now]`: service
    /// scheduled beyond `now` (the in-flight tail of the current operation,
    /// or whole operations queued into the future) is excluded.
    pub fn busy_within(&self, now: SimTime) -> SimDuration {
        // First interval starting at or after `now` contributes nothing.
        let idx = self.busy_intervals.partition_point(|i| i.start < now);
        match idx.checked_sub(1).map(|i| self.busy_intervals[i]) {
            None => SimDuration::ZERO,
            // Clamp the straddling interval's tail to the window.
            Some(last) => last.cum_busy - last.end.saturating_since(now),
        }
    }

    /// Utilization over the window ending at `now` (0.0 when `now` is zero).
    ///
    /// Accounting is clamped to the queried window, so a query issued while
    /// an operation is mid-service can never report more than 1.0.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy_within(now).as_secs_f64() / now.saturating_since(SimTime::ZERO).as_secs_f64()
        }
    }
}

/// A bank of `k` identical servers with a shared FIFO queue — e.g. the set of
/// NAND channels of an SSD or the ARM cores running firmware.
///
/// Each arriving operation is assigned to the server that frees up earliest.
///
/// # Example
///
/// ```rust
/// use twob_sim::{MultiServer, SimDuration, SimTime};
///
/// let mut chans = MultiServer::new(2);
/// let a = chans.schedule(SimTime::ZERO, SimDuration::from_micros(10));
/// let b = chans.schedule(SimTime::ZERO, SimDuration::from_micros(10));
/// // Two channels: both start immediately.
/// assert_eq!(a.start, b.start);
/// let c = chans.schedule(SimTime::ZERO, SimDuration::from_micros(10));
/// // Third request queues behind whichever channel frees first.
/// assert_eq!(c.start, a.end);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiServer {
    servers: Vec<Server>,
}

impl MultiServer {
    /// Creates a bank of `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a MultiServer needs at least one server");
        MultiServer {
            servers: vec![Server::new(); k],
        }
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Returns `true` if the bank has no servers (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Schedules an operation on the earliest-free server.
    pub fn schedule(&mut self, arrival: SimTime, service: SimDuration) -> ScheduledSpan {
        let best = self
            .servers
            .iter_mut()
            .min_by_key(|s| s.free_at())
            .expect("MultiServer is non-empty by construction");
        best.schedule(arrival, service)
    }

    /// Schedules an operation on a specific server index, modelling affinity
    /// (e.g. a page that lives on one particular channel).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn schedule_on(
        &mut self,
        index: usize,
        arrival: SimTime,
        service: SimDuration,
    ) -> ScheduledSpan {
        self.servers[index].schedule(arrival, service)
    }

    /// The instant at which *some* server is next idle.
    pub fn earliest_free_at(&self) -> SimTime {
        self.servers
            .iter()
            .map(Server::free_at)
            .min()
            .expect("MultiServer is non-empty by construction")
    }

    /// The instant at which *all* servers are idle.
    pub fn all_free_at(&self) -> SimTime {
        self.servers
            .iter()
            .map(Server::free_at)
            .max()
            .expect("MultiServer is non-empty by construction")
    }

    /// Total operations served across the bank.
    pub fn served(&self) -> u64 {
        self.servers.iter().map(Server::served).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = Server::new();
        let span = s.schedule(SimTime::from_nanos(42), SimDuration::from_nanos(10));
        assert_eq!(span.start, SimTime::from_nanos(42));
        assert_eq!(span.end, SimTime::from_nanos(52));
        assert_eq!(span.service(), SimDuration::from_nanos(10));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = Server::new();
        let a = s.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let b = s.schedule(SimTime::from_nanos(10), SimDuration::from_nanos(100));
        assert_eq!(b.start, a.end);
        assert_eq!(
            b.latency_from(SimTime::from_nanos(10)),
            SimDuration::from_nanos(190)
        );
    }

    #[test]
    fn server_tracks_stats() {
        let mut s = Server::new();
        s.schedule(SimTime::ZERO, SimDuration::from_nanos(30));
        s.schedule(SimTime::ZERO, SimDuration::from_nanos(70));
        assert_eq!(s.served(), 2);
        assert_eq!(s.busy_total(), SimDuration::from_nanos(100));
        // Busy 100 ns over a 200 ns window: 50% utilized.
        assert!((s.utilization(SimTime::from_nanos(200)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_clamped_mid_service() {
        let mut s = Server::new();
        // One 100 ns operation starting at t=0; at t=50 the server has been
        // busy for the entire queried window, so utilization is exactly 1.0
        // — not 2.0 as full-service accounting would report.
        s.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let u = s.utilization(SimTime::from_nanos(50));
        assert!((u - 1.0).abs() < 1e-12, "mid-service utilization was {u}");
        // With a second queued operation still pending past `now`, the
        // window-clamped figure stays at 100%, never above.
        s.schedule(SimTime::from_nanos(10), SimDuration::from_nanos(100));
        let u = s.utilization(SimTime::from_nanos(150));
        assert!((u - 1.0).abs() < 1e-12, "saturated utilization was {u}");
    }

    #[test]
    fn utilization_excludes_future_spans_and_idle_gaps() {
        let mut s = Server::new();
        s.schedule(SimTime::ZERO, SimDuration::from_nanos(40));
        // Idle gap 40..100, then another operation entirely after `now`.
        s.schedule(SimTime::from_nanos(100), SimDuration::from_nanos(60));
        // Query inside the gap: only the first span counts.
        let u = s.utilization(SimTime::from_nanos(80));
        assert!((u - 0.5).abs() < 1e-12, "gap utilization was {u}");
        assert_eq!(
            s.busy_within(SimTime::from_nanos(80)),
            SimDuration::from_nanos(40)
        );
        // Query straddling the second span clamps its tail.
        assert_eq!(
            s.busy_within(SimTime::from_nanos(130)),
            SimDuration::from_nanos(70)
        );
        // Query after everything sees the full busy total.
        assert_eq!(s.busy_within(SimTime::from_nanos(500)), s.busy_total());
        assert_eq!(s.busy_within(SimTime::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn multi_server_overlaps_then_queues() {
        let mut m = MultiServer::new(3);
        let spans: Vec<_> = (0..4)
            .map(|_| m.schedule(SimTime::ZERO, SimDuration::from_nanos(50)))
            .collect();
        assert!(spans[..3].iter().all(|s| s.start == SimTime::ZERO));
        assert_eq!(spans[3].start, SimTime::from_nanos(50));
        assert_eq!(m.served(), 4);
    }

    #[test]
    fn multi_server_affinity() {
        let mut m = MultiServer::new(2);
        m.schedule_on(0, SimTime::ZERO, SimDuration::from_nanos(100));
        let pinned = m.schedule_on(0, SimTime::ZERO, SimDuration::from_nanos(10));
        // Even though server 1 is idle, affinity forces queuing on server 0.
        assert_eq!(pinned.start, SimTime::from_nanos(100));
        assert_eq!(m.earliest_free_at(), SimTime::ZERO);
        assert_eq!(m.all_free_at(), SimTime::from_nanos(110));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_bank_panics() {
        let _ = MultiServer::new(0);
    }

    /// Pins the behaviour for arrivals that go backwards in time: the start
    /// is clamped to `free_at`, so `busy_intervals` stays sorted and
    /// `busy_within`'s `partition_point` keeps working.
    #[test]
    fn backwards_arrival_clamps_to_free_at() {
        let mut s = Server::new();
        let a = s.schedule(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        // Arrival rewinds to t=10 while the server is busy until t=150:
        // service is clamped to begin exactly at free_at.
        let b = s.schedule(SimTime::from_nanos(10), SimDuration::from_nanos(30));
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, SimTime::from_nanos(180));
        // A rewind past an idle gap clamps too (free_at = 180 > arrival).
        let c = s.schedule(SimTime::ZERO, SimDuration::from_nanos(5));
        assert_eq!(c.start, SimTime::from_nanos(180));
        // The interval index stayed sorted, so window queries still clamp
        // correctly rather than binary-searching a corrupted vector.
        assert_eq!(
            s.busy_within(SimTime::from_nanos(150)),
            SimDuration::from_nanos(50)
        );
        assert_eq!(s.busy_within(SimTime::from_nanos(1_000)), s.busy_total());
    }
}
