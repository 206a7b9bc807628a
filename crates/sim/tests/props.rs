//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;
use twob_sim::oracle::schedule_via_events;
use twob_sim::{crc32, Histogram, MultiServer, Server, SimDuration, SimRng, SimTime, Zipfian};

/// The CRC-32 oracle: the reflected IEEE polynomial one bit at a time.
fn bitwise_crc32(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc
}

proptest! {
    /// A server never starts a request before its arrival, never ends it
    /// before `start + service`, and serves FIFO (ends are monotonic when
    /// arrivals are monotonic).
    #[test]
    fn server_is_causal_and_fifo(
        ops in prop::collection::vec((0u64..1_000_000, 0u64..10_000), 1..100)
    ) {
        let mut server = Server::new();
        let mut arrival = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        for (gap, service) in ops {
            arrival += SimDuration::from_nanos(gap);
            let service = SimDuration::from_nanos(service);
            let span = server.schedule(arrival, service);
            prop_assert!(span.start >= arrival);
            prop_assert_eq!(span.end, span.start + service);
            prop_assert!(span.end >= last_end);
            last_end = span.end;
        }
    }

    /// Kernel equivalence: random op schedules produce identical
    /// `ScheduledSpan`s from the event-driven `Server` and from the legacy
    /// closed-form busy-until arithmetic it replaced.
    #[test]
    fn event_server_matches_busy_until_arithmetic(
        ops in prop::collection::vec((0u64..1_000_000, 0u64..50_000), 1..200)
    ) {
        let mut server = Server::new();
        let mut free_at = SimTime::ZERO;
        for (arrival, service) in ops {
            let arrival = SimTime::from_nanos(arrival);
            let service = SimDuration::from_nanos(service);
            let span = server.schedule(arrival, service);
            // Legacy arithmetic: start = max(arrival, free_at), end = start + service.
            let start = arrival.max(free_at);
            let end = start + service;
            free_at = end;
            prop_assert_eq!(span, twob_sim::ScheduledSpan { start, end });
            prop_assert_eq!(server.free_at(), free_at);
        }
    }

    /// The closed-form `Server::schedule` is byte-equivalent to the legacy
    /// event-driven two-event chain it replaced, for every observable: the
    /// returned span, the free instant, busy accounting, and the serve count.
    #[test]
    fn closed_form_schedule_matches_event_driven_oracle(
        ops in prop::collection::vec((0u64..1_000_000, 0u64..50_000), 1..200)
    ) {
        let mut fast = Server::new();
        let mut oracle = Server::new();
        for (arrival, service) in ops {
            let arrival = SimTime::from_nanos(arrival);
            let service = SimDuration::from_nanos(service);
            let a = fast.schedule(arrival, service);
            let b = schedule_via_events(&mut oracle, arrival, service);
            prop_assert_eq!(a, b);
            prop_assert_eq!(fast.free_at(), oracle.free_at());
            prop_assert_eq!(fast.busy_total(), oracle.busy_total());
            prop_assert_eq!(fast.served(), oracle.served());
        }
    }

    /// Kernel equivalence for banks: the event-driven `MultiServer` picks the
    /// same earliest-free server (first one on ties) as the legacy arithmetic.
    #[test]
    fn event_multi_server_matches_busy_until_arithmetic(
        ops in prop::collection::vec((0u64..100_000, 0u64..10_000), 1..100),
        k in 1usize..6
    ) {
        let mut bank = MultiServer::new(k);
        let mut free_at = vec![SimTime::ZERO; k];
        for (arrival, service) in ops {
            let arrival = SimTime::from_nanos(arrival);
            let service = SimDuration::from_nanos(service);
            let span = bank.schedule(arrival, service);
            let best = (0..k).min_by_key(|&i| free_at[i]).unwrap();
            let start = arrival.max(free_at[best]);
            free_at[best] = start + service;
            prop_assert_eq!(span, twob_sim::ScheduledSpan { start, end: start + service });
        }
    }

    /// The event calendar drains strictly in `(time, insertion)` order no
    /// matter the posting order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = twob_sim::EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(t > pt || (t == pt && i > pi), "out of order: {pt:?}/{pi} then {t:?}/{i}");
            }
            prev = Some((t, i));
        }
    }

    /// Total busy time of a server equals the sum of all service times.
    #[test]
    fn server_busy_time_conserved(
        services in prop::collection::vec(0u64..10_000, 1..100)
    ) {
        let mut server = Server::new();
        let mut total = 0u64;
        for s in &services {
            server.schedule(SimTime::ZERO, SimDuration::from_nanos(*s));
            total += s;
        }
        prop_assert_eq!(server.busy_total(), SimDuration::from_nanos(total));
        prop_assert_eq!(server.served(), services.len() as u64);
    }

    /// A k-server bank completes any workload no later than a single
    /// server would, and no earlier than the work conservation bound.
    #[test]
    fn multi_server_dominates_single(
        services in prop::collection::vec(1u64..10_000, 1..60),
        k in 2usize..8
    ) {
        let mut single = Server::new();
        let mut multi = MultiServer::new(k);
        let mut single_end = SimTime::ZERO;
        let mut multi_end = SimTime::ZERO;
        for s in &services {
            let d = SimDuration::from_nanos(*s);
            single_end = single_end.max(single.schedule(SimTime::ZERO, d).end);
            multi_end = multi_end.max(multi.schedule(SimTime::ZERO, d).end);
        }
        prop_assert!(multi_end <= single_end);
        // Work conservation: k servers cannot beat total/k.
        let total: u64 = services.iter().sum();
        prop_assert!(multi_end.as_nanos() >= total / k as u64);
    }

    /// Percentiles are monotone in the quantile and bounded by min/max.
    #[test]
    fn histogram_percentiles_monotone(
        samples in prop::collection::vec(0u64..1_000_000, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(SimDuration::from_nanos(*s));
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = h.percentile(lo);
        let p_hi = h.percentile(hi);
        prop_assert!(p_lo <= p_hi);
        prop_assert!(h.min() <= p_lo);
        prop_assert!(p_hi <= h.max());
    }

    /// CRC-32 streaming equals one-shot for any chunking.
    #[test]
    fn crc32_chunking_invariant(
        data in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64
    ) {
        let mut state = !0u32;
        for piece in data.chunks(chunk) {
            state = twob_sim::crc32_update(state, piece);
        }
        prop_assert_eq!(state ^ !0u32, crc32(&data));
    }

    /// The table-driven CRC-32 equals the bitwise reference from any state,
    /// over every length/remainder split and any two-piece chunking.
    #[test]
    fn crc32_update_matches_bitwise_reference(
        state in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..300),
        split in any::<prop::sample::Index>()
    ) {
        prop_assert_eq!(twob_sim::crc32_update(state, &data), bitwise_crc32(state, &data));
        let (head, tail) = data.split_at(split.index(data.len() + 1));
        let streamed = twob_sim::crc32_update(twob_sim::crc32_update(state, head), tail);
        prop_assert_eq!(streamed, bitwise_crc32(state, &data));
    }

    /// CRC-32 detects any single-byte change.
    #[test]
    fn crc32_detects_any_single_byte_change(
        mut data in prop::collection::vec(any::<u8>(), 1..256),
        idx in any::<prop::sample::Index>(),
        delta in 1u8..=255
    ) {
        let clean = crc32(&data);
        let i = idx.index(data.len());
        data[i] = data[i].wrapping_add(delta);
        prop_assert_ne!(crc32(&data), clean);
    }

    /// Zipfian samples stay in range for any configuration.
    #[test]
    fn zipfian_in_bounds(items in 1u64..100_000, theta in 0.01f64..0.999, seed in any::<u64>()) {
        let zipf = Zipfian::new(items, theta);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(zipf.sample(&mut rng) < items);
        }
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }
}
