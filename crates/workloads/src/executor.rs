//! Multi-client virtual-time execution: the lock-step [`ClientPool`], the
//! one slot scheduler.
//!
//! A closed loop of `clients` clients that each keep `qd` operations in
//! flight is a pool of `clients × qd` slots: slots are interchangeable, so
//! issuing on the earliest-free slot visits the same instants in the same
//! order as an event calendar of slot-free events would.

use twob_sim::SimTime;

/// A pool of simulated client threads, each with its own virtual clock.
///
/// Usage: call [`ClientPool::next_client`] to pick the farthest-behind
/// client and the instant its next operation may start, run the operation
/// against the engine at that instant, and report the completion with
/// [`ClientPool::complete`]. Clients thereby interleave in virtual time
/// while the engine's shared busy-until resources (the WAL device, the
/// firmware cores) provide the queuing.
///
/// # Example
///
/// ```rust
/// use twob_sim::{SimDuration, SimTime};
/// use twob_workloads::ClientPool;
///
/// let mut pool = ClientPool::new(4);
/// for _ in 0..8 {
///     let (client, start) = pool.next_client();
///     pool.complete(client, start + SimDuration::from_micros(10));
/// }
/// // 8 ops × 10 us over 4 clients finish in 20 us of virtual time.
/// assert_eq!(pool.makespan(), SimTime::from_nanos(20_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPool {
    clocks: Vec<SimTime>,
    ops: u64,
    /// The instant the pool started — throughput is measured from here, not
    /// from time zero, so a pool built after a load phase reports its
    /// steady-state rate.
    epoch: SimTime,
}

impl ClientPool {
    /// Creates a pool of `clients` clients, all starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn new(clients: usize) -> Self {
        ClientPool::starting_at(clients, SimTime::ZERO)
    }

    /// Creates a pool whose clients all start at `t` — e.g. right after a
    /// load phase, so throughput is measured over the steady state only.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn starting_at(clients: usize, t: SimTime) -> Self {
        assert!(clients > 0, "need at least one client");
        ClientPool {
            clocks: vec![t; clients],
            ops: 0,
            epoch: t,
        }
    }

    /// The instant the pool started (its throughput measurement origin).
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Returns `true` if the pool has no clients (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Picks the client with the earliest clock and returns `(index,
    /// start_instant)`.
    pub fn next_client(&mut self) -> (usize, SimTime) {
        let (idx, &t) = self
            .clocks
            .iter()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("non-empty pool");
        (idx, t)
    }

    /// Records that client `idx`'s operation completed at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn complete(&mut self, idx: usize, at: SimTime) {
        self.clocks[idx] = self.clocks[idx].max(at);
        self.ops += 1;
    }

    /// Operations completed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The latest client clock — the workload's virtual makespan.
    pub fn makespan(&self) -> SimTime {
        self.clocks.iter().copied().max().expect("non-empty pool")
    }

    /// Throughput in operations per virtual second over the window from the
    /// pool's epoch to the makespan — not from time zero, which would
    /// understate steady-state throughput after a load phase.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.makespan().saturating_since(self.epoch).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

/// Test driver shared by this crate's slot-loop tests: `ops` operations on a
/// pool of `slots` slots, each taking `service(slot, issue instant)`. Returns
/// the pool and its `(issue, completion)` log.
#[cfg(test)]
pub(crate) fn drive_slots(
    slots: usize,
    start: SimTime,
    ops: usize,
    service: impl Fn(usize, SimTime) -> twob_sim::SimDuration,
) -> (ClientPool, Vec<(SimTime, SimTime)>) {
    let mut pool = ClientPool::starting_at(slots, start);
    let mut log = Vec::new();
    while log.len() < ops {
        let (slot, at) = pool.next_client();
        let done = at + service(slot, at);
        log.push((at, done));
        pool.complete(slot, done);
    }
    (pool, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    #[test]
    fn dispatches_farthest_behind_client() {
        let mut pool = ClientPool::new(2);
        let (a, t0) = pool.next_client();
        pool.complete(a, t0 + SimDuration::from_micros(100));
        let (b, _) = pool.next_client();
        assert_ne!(a, b, "idle client must be picked before busy one");
    }

    #[test]
    fn makespan_and_throughput() {
        let mut pool = ClientPool::new(4);
        for _ in 0..40 {
            let (c, t) = pool.next_client();
            pool.complete(c, t + SimDuration::from_micros(10));
        }
        assert_eq!(pool.ops(), 40);
        assert_eq!(pool.makespan(), SimTime::from_nanos(100_000));
        assert!((pool.ops_per_sec() - 400_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_never_rewinds_clock() {
        let mut pool = ClientPool::new(1);
        pool.complete(0, SimTime::from_nanos(100));
        pool.complete(0, SimTime::from_nanos(50));
        assert_eq!(pool.makespan(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_pool_panics() {
        let _ = ClientPool::new(0);
    }

    /// Regression: a pool built with `starting_at` after a load phase must
    /// divide by `makespan − epoch`, not by the makespan from time zero.
    #[test]
    fn ops_per_sec_measures_from_epoch() {
        let load_end = SimTime::from_nanos(1_000_000); // 1 ms load phase
        let mut pool = ClientPool::starting_at(4, load_end);
        assert_eq!(pool.epoch(), load_end);
        for _ in 0..40 {
            let (c, t) = pool.next_client();
            pool.complete(c, t + SimDuration::from_micros(10));
        }
        // 40 ops over a 100 us steady-state window = 400k ops/s. The old
        // accounting divided by the 1.1 ms makespan and reported ~36k.
        assert_eq!(pool.makespan(), load_end + SimDuration::from_micros(100));
        assert!((pool.ops_per_sec() - 400_000.0).abs() < 1.0);
    }

    /// The reference the pool is checked against: every slot-free instant is
    /// an event on a calendar, and popping one issues the next operation.
    fn calendar_slots(
        slots: usize,
        start: SimTime,
        ops: usize,
        service: impl Fn(usize, SimTime) -> SimDuration,
    ) -> Vec<(SimTime, SimTime)> {
        let mut calendar = twob_sim::EventQueue::new();
        for slot in 0..slots {
            calendar.push(start, slot);
        }
        let mut log = Vec::new();
        while log.len() < ops {
            let (free_at, slot) = calendar.pop().expect("slots never run out");
            let done = free_at + service(slot, free_at);
            log.push((free_at, done));
            calendar.push(done, slot);
        }
        log
    }

    #[test]
    fn closed_loop_qd1_matches_client_pool() {
        // One op in flight per client, each client with its own service
        // time: the pool issues exactly what a calendar of slot-free events
        // issues.
        let per_client = |c: usize, _| SimDuration::from_nanos(5_000 + c as u64 * 900);
        let start = SimTime::from_nanos(123);
        assert_eq!(
            drive_slots(3, start, 30, per_client).1,
            calendar_slots(3, start, 30, per_client)
        );
        // Deeper queues are more slots. With a service time that does not
        // depend on the slot (ties and zero-length operations included) the
        // logs still agree entry for entry.
        let by_instant =
            |_, at: SimTime| SimDuration::from_nanos((at.as_nanos() * 7 + 3) % 5 * 400);
        for (clients, qd) in [(1, 4), (3, 4), (8, 8)] {
            assert_eq!(
                drive_slots(clients * qd, start, 200, by_instant).1,
                calendar_slots(clients * qd, start, 200, by_instant),
                "{clients} clients x qd {qd}"
            );
        }
    }
}
