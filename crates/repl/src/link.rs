//! A seeded, deterministic point-to-point network link.
//!
//! Each primary↔replica pair gets one [`NetLink`]: a configurable one-way
//! latency, a serialization delay proportional to message size, bounded
//! random jitter, and optional random drop/duplication. All randomness
//! comes from a [`SimRng`] forked per link, so the same seed always yields
//! the same packet schedule — network chaos is replayable, byte for byte,
//! like every other event source in the simulation.

use twob_sim::{SimDuration, SimRng, SimTime};

/// Start instant of every replication run: past the WALs' initial pins
/// (matches the faults harness, so golden re-runs line up).
pub(crate) const T0: SimTime = SimTime::from_nanos(1_000_000);

/// Fixed framing overhead per shipped record (lsn + length + crc on the
/// wire), for serialization-time accounting.
pub(crate) const RECORD_WIRE_OVERHEAD: u64 = 24;

/// Ack / control message size on the wire.
pub(crate) const ACK_WIRE_BYTES: u64 = 64;

/// Configuration of one replication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetLinkConfig {
    /// Propagation delay in one direction (half the RTT).
    pub one_way: SimDuration,
    /// Uniform jitter added per delivery, in `0..=jitter_ns` nanoseconds.
    /// Jitter can reorder packets; the shipping protocol must tolerate it.
    pub jitter_ns: u64,
    /// Serialization bandwidth: a `b`-byte message adds `b / bytes_per_sec`
    /// of transfer time.
    pub bytes_per_sec: f64,
    /// Probability a ship batch is silently dropped on the wire.
    pub drop_prob: f64,
    /// Probability a ship batch is delivered twice.
    pub dup_prob: f64,
}

impl NetLinkConfig {
    /// A clean (lossless) link with the given round-trip time in
    /// microseconds, 10 GbE-class bandwidth, and 10% jitter.
    pub fn from_rtt_us(rtt_us: u64) -> Self {
        let one_way_ns = rtt_us.max(1) * 1_000 / 2;
        NetLinkConfig {
            one_way: SimDuration::from_nanos(one_way_ns),
            jitter_ns: one_way_ns / 10,
            bytes_per_sec: 1.25e9,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }
}

impl Default for NetLinkConfig {
    /// A 50 us RTT datacenter link.
    fn default() -> Self {
        NetLinkConfig::from_rtt_us(50)
    }
}

/// One direction-agnostic link instance with its own random stream and
/// partition state.
#[derive(Debug, Clone)]
pub struct NetLink {
    cfg: NetLinkConfig,
    rng: SimRng,
    up: bool,
}

impl NetLink {
    /// Creates a link with its own forked random stream.
    pub fn new(cfg: NetLinkConfig, rng: SimRng) -> Self {
        NetLink { cfg, rng, up: true }
    }

    /// Kills the link in both directions; in-flight packets are lost too.
    pub fn partition(&mut self) {
        self.up = false;
    }

    /// Whether the link is connected.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The configured one-way latency.
    pub fn one_way(&self) -> SimDuration {
        self.cfg.one_way
    }

    fn base_arrival(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let transfer = SimDuration::from_nanos_f64(bytes as f64 / self.cfg.bytes_per_sec * 1e9);
        let jitter = if self.cfg.jitter_ns == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.next_u64_below(self.cfg.jitter_ns + 1))
        };
        now + transfer + self.cfg.one_way + jitter
    }

    /// Delivery instants for a lossy (ship-batch) send at `now`: empty when
    /// the link is down or the message is dropped, two when duplicated.
    ///
    /// The random stream is consumed identically whatever the outcome, so
    /// one drop does not shift the timing of every later packet.
    pub fn deliveries(&mut self, now: SimTime, bytes: u64) -> Vec<SimTime> {
        let first = self.base_arrival(now, bytes);
        let second = self.base_arrival(now, bytes);
        let dropped = self.rng.chance(self.cfg.drop_prob);
        let duplicated = self.rng.chance(self.cfg.dup_prob);
        if !self.up || dropped {
            return Vec::new();
        }
        let mut out = vec![first];
        if duplicated {
            out.push(second);
        }
        out
    }

    /// Delivery instant for a reliable (ack) send at `now`, or `None` when
    /// partitioned. Acks still pay latency, bandwidth, and jitter — only
    /// the drop/duplication chaos is reserved for ship batches.
    pub fn delivery_reliable(&mut self, now: SimTime, bytes: u64) -> Option<SimTime> {
        let at = self.base_arrival(now, bytes);
        if self.up {
            Some(at)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(cfg: NetLinkConfig, seed: u64) -> NetLink {
        NetLink::new(cfg, SimRng::seed_from(seed))
    }

    #[test]
    fn deliveries_are_deterministic() {
        let cfg = NetLinkConfig::from_rtt_us(100);
        let mut a = link(cfg, 7);
        let mut b = link(cfg, 7);
        for i in 0..50u64 {
            let t = SimTime::from_nanos(i * 10_000);
            assert_eq!(a.deliveries(t, 1_000 + i), b.deliveries(t, 1_000 + i));
        }
    }

    #[test]
    fn latency_includes_transfer_and_propagation() {
        let mut cfg = NetLinkConfig::from_rtt_us(100);
        cfg.jitter_ns = 0;
        let mut l = link(cfg, 1);
        let t = SimTime::from_nanos(1_000);
        let arrivals = l.deliveries(t, 12_500); // 12.5 KB at 1.25 GB/s = 10 us
        assert_eq!(arrivals.len(), 1);
        let delay = arrivals[0].saturating_since(t);
        // 50 us one-way + 10 us transfer.
        assert_eq!(delay.as_nanos(), 60_000);
    }

    #[test]
    fn partition_kills_both_paths() {
        let mut l = link(NetLinkConfig::default(), 3);
        l.partition();
        assert!(!l.is_up());
        assert!(l.deliveries(SimTime::ZERO, 100).is_empty());
        assert!(l.delivery_reliable(SimTime::ZERO, 100).is_none());
    }

    #[test]
    fn drop_and_dup_probabilities_apply() {
        let cfg = NetLinkConfig {
            drop_prob: 0.5,
            dup_prob: 0.5,
            ..NetLinkConfig::default()
        };
        let mut l = link(cfg, 11);
        let mut dropped = 0;
        let mut duplicated = 0;
        for i in 0..200u64 {
            let n = l.deliveries(SimTime::from_nanos(i * 1_000), 500).len();
            if n == 0 {
                dropped += 1;
            } else if n == 2 {
                duplicated += 1;
            }
        }
        assert!(dropped > 50, "drop_prob 0.5 dropped only {dropped}/200");
        assert!(
            duplicated > 20,
            "dup_prob 0.5 duplicated only {duplicated}/200"
        );
    }

    #[test]
    fn outcome_does_not_shift_the_random_stream() {
        // Two links with the same seed, one lossy and one clean, must agree
        // on the arrival time of every *delivered* packet.
        let clean = NetLinkConfig::from_rtt_us(80);
        let mut lossy_cfg = clean;
        lossy_cfg.drop_prob = 0.3;
        let mut a = link(clean, 9);
        let mut b = link(lossy_cfg, 9);
        for i in 0..100u64 {
            let t = SimTime::from_nanos(i * 5_000);
            let want = a.deliveries(t, 777);
            let got = b.deliveries(t, 777);
            if !got.is_empty() {
                assert_eq!(got[0], want[0], "send {i} arrival shifted");
            }
        }
    }
}
