//! The CXL.mem price list for the byte channel: cache-line load/store
//! semantics over the same mapped device window, with an explicit persist
//! barrier.
//!
//! The mechanism is [`ByteChannel`]'s, shared with the MMIO front-end:
//! stores retire into a host-side line buffer, leave it as
//! [`PostedWrite`](crate::PostedWrite) fragments, and are guaranteed at
//! one explicit point. The paper's 2018 reality prices that mechanism
//! with posted MMIO writes through x86 write-combining buffers and
//! serialized 8-byte non-posted read TLPs ([`PcieTimings`](crate::PcieTimings));
//! this module prices it for the 2026 alternative, where the window is
//! mapped as CXL.mem and the CPU issues ordinary cache-line loads and
//! stores against it. Three charges change:
//!
//! - **loads pipeline**: a load streams 64-byte lines at `load_line`
//!   intervals after a `load_first` setup, instead of serializing one
//!   8-byte TLP round trip per word — this is why CXL reads beat MMIO
//!   reads by more than an order of magnitude at record sizes;
//! - **stores retire into the cache**: the line buffer is the CPU cache's
//!   dirty lines (the analogue of the WC-buffer risk window), with no
//!   linger timer — they write back toward the device only on capacity
//!   pressure or at a persist barrier;
//! - **durability is a barrier, not a verify read**: `persist_barrier`
//!   flushes the touched lines and stalls until the device's persistence
//!   domain acknowledges — the CXL analogue of `BA_SYNC`'s
//!   clflush + mfence + write-verify protocol, without the read RTT.
//!
//! Because both front-ends are one channel, the device model applies both
//! byte paths identically and fault injection discards un-landed
//! fragments the same way.

use serde::{Deserialize, Serialize};
use twob_sim::{SimDuration, SimTime};

use crate::timings::{lines_spanned, LINE};
use crate::{ByteChannel, FrontEnd, ReadOutcome, SyncOutcome};

/// Timing constants of the CXL.mem byte path.
///
/// The defaults follow published CXL-attached-memory measurements
/// (OpenCXD-class devices): loads land in the few-hundred-nanosecond
/// range with cheap line streaming, stores retire at cache speed, and a
/// persist barrier costs a flush per touched line plus a fixed barrier
/// stall — cheaper than the MMIO path's verify read for small ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CxlTimings {
    /// Latency of the first 64-byte line of a load (request + first data).
    pub load_first: SimDuration,
    /// Incremental latency per additional 64-byte line of a load.
    pub load_line: SimDuration,
    /// Cost of the first 64-byte line of a store burst.
    pub store_first: SimDuration,
    /// Incremental cost per additional 64-byte line of a store burst.
    pub store_line: SimDuration,
    /// Cost of flushing one touched line at a persist barrier.
    pub flush_per_line: SimDuration,
    /// Fixed stall of the persist barrier itself (the CXL.mem flush
    /// handshake, independent of how many lines it covers).
    pub barrier: SimDuration,
    /// One-way flight time of a written-back line to device DRAM.
    pub write_back_flight: SimDuration,
    /// Dirty lines the CPU cache holds for this window before capacity
    /// write-back evicts the oldest.
    pub dirty_line_cap: usize,
}

impl Default for CxlTimings {
    fn default() -> Self {
        CxlTimings {
            load_first: SimDuration::from_nanos(300),
            load_line: SimDuration::from_nanos(150),
            store_first: SimDuration::from_nanos(80),
            store_line: SimDuration::from_nanos(40),
            flush_per_line: SimDuration::from_nanos(60),
            barrier: SimDuration::from_nanos(200),
            write_back_flight: SimDuration::from_nanos(40),
            dirty_line_cap: 64,
        }
    }
}

impl CxlTimings {
    /// Latency of a load of `len` bytes: first line plus streamed lines.
    pub fn load(&self, len: u64) -> SimDuration {
        let lines = len.div_ceil(LINE).max(1);
        self.load_first + self.load_line * (lines - 1)
    }

    /// CPU-visible latency of a store of `len` bytes into the cache.
    pub fn store(&self, len: u64) -> SimDuration {
        let lines = len.div_ceil(LINE).max(1);
        self.store_first + self.store_line * (lines - 1)
    }

    /// Cost of a persist barrier over `[offset, offset+len)`: one flush
    /// per touched line (the host cannot know which are dirty, exactly as
    /// the MMIO path's `BA_SYNC` flushes every line of the range) plus
    /// the fixed barrier stall.
    pub fn persist(&self, offset: u64, len: u64) -> SimDuration {
        self.flush_cost(lines_spanned(offset, len))
    }
}

impl FrontEnd for CxlTimings {
    fn store_cost(&self, len: u64) -> SimDuration {
        self.store(len)
    }
    fn load_cost(&self, len: u64) -> SimDuration {
        self.load(len)
    }
    fn flush_cost(&self, lines: u64) -> SimDuration {
        self.flush_per_line * lines + self.barrier
    }
    fn flight(&self) -> SimDuration {
        self.write_back_flight
    }
    /// A cache has no linger timer: dirty lines leave under capacity
    /// pressure or at a barrier.
    fn linger(&self) -> Option<SimDuration> {
        None
    }
    fn line_capacity(&self) -> usize {
        self.dirty_line_cap
    }
    /// The barrier retires once the last written-back line has landed in
    /// the device's persistence domain; no read round trip follows.
    fn durable_at(&self, flushed_at: SimTime, last_land: SimTime) -> SimTime {
        last_land.max(flushed_at + self.write_back_flight)
    }
}

/// The CXL.mem front-end: one CPU's cached view of one CXL.mem-mapped
/// device window, plus the write-back traffic it generates —
/// [`ByteChannel`] at [`CxlTimings`] prices. The dirty-line cache is the
/// risk window: lines that have not written back are lost on power
/// failure, exactly like WC-resident bytes on the MMIO path.
pub type CxlChannel = ByteChannel<CxlTimings>;

impl CxlChannel {
    /// Bytes currently dirty in the cache — at risk until persisted.
    pub fn dirty_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Number of dirty cache lines.
    pub fn dirty_lines(&self) -> usize {
        self.resident_lines()
    }

    /// Load of `len` bytes. Dirty lines write back first so the device
    /// view the caller reads includes every prior store (the model keeps
    /// all data device-resident rather than splitting reads between cache
    /// and device; pricing is unaffected because a load costs the same
    /// either way).
    pub fn load(&mut self, now: SimTime, len: u64) -> ReadOutcome {
        self.read(now, len)
    }

    /// The persist barrier — the CXL analogue of `BA_SYNC`: flushes every
    /// line `[offset, offset+len)` touches, writes all dirty lines back,
    /// and stalls until the device's persistence domain has them.
    /// `durable_at` is when the barrier retires; every returned fragment
    /// lands at or before it.
    pub fn persist_barrier(&mut self, now: SimTime, offset: u64, len: u64) -> SyncOutcome {
        self.sync_range(now, offset, len)
    }

    /// Host-side latency of a persistent store of `len` bytes: store +
    /// persist barrier, with a clean cache. Convenience for sweeps.
    pub fn persistent_store_latency(&self, len: u64) -> SimDuration {
        self.persistent_latency(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostByteChannel, PcieTimings};

    fn chan() -> CxlChannel {
        CxlChannel::new(CxlTimings::default())
    }

    #[test]
    fn store_retires_into_cache_at_line_cost() {
        let mut c = chan();
        let out = c.store(SimTime::ZERO, 0, &[1u8; 8]);
        assert_eq!(out.retired_at, SimTime::from_nanos(80));
        assert!(out.posted.is_empty(), "8 bytes should sit dirty in cache");
        assert_eq!(c.dirty_bytes(), 8);
        // A 4 KiB store streams 64 lines.
        let out = c.store(out.retired_at, 4096, &[2u8; 4096]);
        assert_eq!(
            out.retired_at.saturating_since(SimTime::from_nanos(80)),
            SimDuration::from_nanos(80 + 40 * 63)
        );
    }

    #[test]
    fn persist_barrier_drains_and_guarantees() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[9u8; 100]);
        let persist = c.persist_barrier(store.retired_at, 0, 100);
        assert_eq!(c.dirty_bytes(), 0);
        let total: usize = persist.posted.iter().map(|p| p.data.len()).sum();
        assert_eq!(total, 100);
        for p in &persist.posted {
            assert!(p.lands_at <= persist.durable_at);
        }
    }

    #[test]
    fn persist_prices_touched_lines_not_dirty_lines() {
        let t = CxlTimings::default();
        // A 2-line range costs 2 flushes + barrier regardless of what is
        // dirty, mirroring BA_SYNC's flush-every-line-of-the-range.
        assert_eq!(
            t.persist(60, 8),
            t.flush_per_line * 2 + t.barrier,
            "straddling 8 bytes touch 2 lines"
        );
        assert_eq!(t.persist(64, 64), t.flush_per_line + t.barrier);
    }

    #[test]
    fn small_commit_beats_the_mmio_sync_path() {
        // The CXL hot-tier claim at WAL-record sizes: store + persist
        // barrier undercuts MMIO store + BA_SYNC (which pays the posted
        // write base cost and the verify read).
        let cxl = chan().persistent_store_latency(128);
        let mmio = HostByteChannel::new(PcieTimings::default()).persistent_write_latency(128);
        assert!(
            cxl < mmio,
            "cxl persistent 128 B {cxl} should beat mmio {mmio}"
        );
    }

    #[test]
    fn loads_stream_lines_instead_of_serializing_tlps() {
        let mut c = chan();
        let load = c.load(SimTime::ZERO, 4096);
        let mmio = PcieTimings::default().mmio_read(4096);
        assert!(
            load.complete_at.saturating_since(SimTime::ZERO) < mmio / 10,
            "4 KiB CXL load should be >10x faster than MMIO"
        );
    }

    #[test]
    fn load_observes_prior_stores_via_write_back() {
        let mut c = chan();
        c.store(SimTime::ZERO, 10, &[0xCD; 20]);
        let load = c.load(SimTime::from_nanos(500), 64);
        assert_eq!(c.dirty_bytes(), 0, "load wrote dirty lines back");
        let total: usize = load.posted.iter().map(|p| p.data.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn capacity_write_back_posts_oldest() {
        let mut c = chan();
        let cap = c.timings().dirty_line_cap;
        let mut posted = 0usize;
        for i in 0..(cap as u64 + 8) {
            let out = c.store(SimTime::from_nanos(i * 10), i * 64, &[i as u8; 8]);
            posted += out.posted.len();
        }
        assert!(posted > 0, "capacity write-back never triggered");
        assert!(c.dirty_lines() <= cap);
    }

    #[test]
    fn unpersisted_bytes_lost_on_power_failure() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[7u8; 48]);
        assert_eq!(c.power_loss(), 48);
        assert_eq!(c.dirty_bytes(), 0);
    }

    #[test]
    fn persisted_bytes_survive_power_failure() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[7u8; 48]);
        let persist = c.persist_barrier(store.retired_at, 0, 48);
        assert!(!persist.posted.is_empty());
        assert_eq!(c.power_loss(), 0, "persisted data no longer cache-resident");
    }

    #[test]
    fn store_straddling_lines_splits_fragments() {
        let mut c = chan();
        c.store(SimTime::ZERO, 60, &[1u8; 8]);
        assert_eq!(c.dirty_lines(), 2);
        let persist = c.persist_barrier(SimTime::from_nanos(200), 60, 8);
        let mut offsets: Vec<u64> = persist.posted.iter().map(|p| p.offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![60, 64]);
    }

    #[test]
    fn channel_is_deterministic() {
        let run = || {
            let mut c = chan();
            let mut log = Vec::new();
            for i in 0..100u64 {
                let out = c.store(SimTime::from_nanos(i * 37), (i * 13) % 4096, &[i as u8; 24]);
                log.push((out.retired_at, out.posted.len()));
                if i % 9 == 0 {
                    let p = c.persist_barrier(out.retired_at, 0, 4096);
                    log.push((p.durable_at, p.posted.len()));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
