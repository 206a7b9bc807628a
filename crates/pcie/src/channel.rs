//! The byte channel: the host-side line buffer every byte front-end
//! shares, its posted writes, and the durability point — plus the MMIO
//! price list and the two-step protocol of paper Fig 3.

use std::fmt;
use std::ops::{Deref, DerefMut};

use twob_sim::{SimDuration, SimTime};

use crate::timings::{lines_spanned, LINE};
use crate::PcieTimings;

/// At most one 64-byte line of bytes, held inline: the payload of a
/// [`PostedWrite`]. The channel splits every store at line boundaries, so
/// no fragment is longer, and a fragment costs no heap allocation.
/// Derefs to the bytes it holds.
#[derive(Clone, Copy)]
pub struct LineBytes {
    len: u8,
    bytes: [u8; LINE as usize],
}

impl LineBytes {
    /// A copy of `data`, or `None` if it is longer than a line.
    pub fn new(data: &[u8]) -> Option<Self> {
        (data.len() as u64 <= LINE).then(|| Self::copy_of(data))
    }

    /// A copy of a slice the caller has already cut to at most a line.
    fn copy_of(data: &[u8]) -> Self {
        let mut bytes = [0; LINE as usize];
        bytes[..data.len()].copy_from_slice(data);
        LineBytes {
            len: data.len() as u8,
            bytes,
        }
    }
}

impl Deref for LineBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl DerefMut for LineBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..self.len as usize]
    }
}

impl PartialEq for LineBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for LineBytes {}

impl fmt::Debug for LineBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A posted write in flight to the device: a byte fragment plus the instant
/// it lands in device DRAM. The device model applies the bytes, and
/// fault-injection discards fragments whose `lands_at` is after the outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostedWrite {
    /// Byte offset within the mapped window.
    pub offset: u64,
    /// The bytes written: never more than the one line `offset` is in.
    pub data: LineBytes,
    /// When the fragment reaches device DRAM.
    pub lands_at: SimTime,
}

/// Result of a CPU store to the mapped window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOutcome {
    /// When the store retires on the CPU (the latency an application
    /// measures for a plain MMIO write).
    pub retired_at: SimTime,
    /// Fragments the store pushed out of the line buffer (capacity or
    /// linger evictions); possibly empty.
    pub posted: Vec<PostedWrite>,
}

/// Result of `clflush` + `mfence` (step 1 of the durability protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushOutcome {
    /// When the flush instruction sequence completes on the CPU.
    pub flushed_at: SimTime,
    /// Fragments posted toward the device by the flush.
    pub posted: Vec<PostedWrite>,
}

/// Result of a durability point (`clflush` + `mfence` + write-verify read
/// on MMIO, the persist barrier on CXL.mem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// When durability is guaranteed: no earlier than the landing of
    /// every prior posted write.
    pub durable_at: SimTime,
    /// Fragments posted toward the device.
    pub posted: Vec<PostedWrite>,
}

/// Result of a read through the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// When the last of the data arrives.
    pub complete_at: SimTime,
    /// Fragments the read forced out of the line buffer (it drains before
    /// the region is read).
    pub posted: Vec<PostedWrite>,
}

/// What one byte front-end charges for the shared line-buffer mechanism
/// of [`ByteChannel`]: its price list. [`PcieTimings`] (MMIO through x86
/// write-combining) and [`CxlTimings`](crate::CxlTimings) (CXL.mem cache
/// lines) are the two implementations.
pub trait FrontEnd: Copy {
    /// CPU-visible cost of a store of `len` bytes.
    fn store_cost(&self, len: u64) -> SimDuration;
    /// Cost of a read of `len` bytes, once the line buffer has drained.
    fn load_cost(&self, len: u64) -> SimDuration;
    /// Cost of flushing `lines` lines and fencing.
    fn flush_cost(&self, lines: u64) -> SimDuration;
    /// One-way flight time of a posted line to device DRAM.
    fn flight(&self) -> SimDuration;
    /// How long an untouched line lingers before a later store evicts it
    /// opportunistically; `None` if lines leave only under pressure.
    fn linger(&self) -> Option<SimDuration>;
    /// Lines the host holds before the oldest is evicted.
    fn line_capacity(&self) -> usize;
    /// The durability rule: when a flush that completed at `flushed_at`
    /// is guaranteed on the device, given the landing instant of the
    /// latest posted line.
    fn durable_at(&self, flushed_at: SimTime, last_land: SimTime) -> SimTime;
}

impl FrontEnd for PcieTimings {
    fn store_cost(&self, len: u64) -> SimDuration {
        self.mmio_write(len)
    }
    fn load_cost(&self, len: u64) -> SimDuration {
        self.mmio_read(len)
    }
    fn flush_cost(&self, lines: u64) -> SimDuration {
        self.clflush_per_line * lines + self.mfence
    }
    fn flight(&self) -> SimDuration {
        self.posted_flight
    }
    fn linger(&self) -> Option<SimDuration> {
        Some(self.wc_linger)
    }
    fn line_capacity(&self) -> usize {
        self.wc_buffers
    }
    /// The write-verify read: non-posted, so it cannot pass the posted
    /// writes ahead of it at the root complex.
    fn durable_at(&self, flushed_at: SimTime, last_land: SimTime) -> SimTime {
        flushed_at.max(last_land) + self.verify_rtt
    }
}

/// One store fragment: the offset it starts at, and its bytes.
type Fragment = (u64, LineBytes);

/// One 64-byte line of host-resident store fragments, in store order.
#[derive(Debug, Clone)]
struct Line {
    line: u64,
    fragments: Vec<Fragment>,
    first_store_at: SimTime,
}

impl Line {
    /// Moves the line's fragments onto `posted`, all landing at
    /// `lands_at`, and keeps the emptied list in `spare` for a later line.
    /// A line with no fragments is a posted one.
    fn post(
        &mut self,
        lands_at: SimTime,
        posted: &mut Vec<PostedWrite>,
        spare: &mut Vec<Vec<Fragment>>,
    ) {
        posted.extend(self.fragments.drain(..).map(|(offset, data)| PostedWrite {
            offset,
            data,
            lands_at,
        }));
        spare.push(std::mem::take(&mut self.fragments));
    }
}

/// `data` stored at `offset`, cut at line boundaries: one `(offset, bytes)`
/// per line touched, in address order.
fn split_lines(offset: u64, data: &[u8]) -> impl Iterator<Item = (u64, &[u8])> {
    let (head, tail) = data.split_at((LINE - offset % LINE).min(data.len() as u64) as usize);
    let tail_at = offset + head.len() as u64;
    std::iter::once((offset, head))
        .filter(|(_, bytes)| !bytes.is_empty())
        .chain(
            tail.chunks(LINE as usize)
                .enumerate()
                .map(move |(i, bytes)| (tail_at + i as u64 * LINE, bytes)),
        )
}

/// One CPU's view of one mapped device window: stores retire into a
/// per-line buffer on the host (the at-risk window), leave it as
/// [`PostedWrite`] fragments — on linger or capacity eviction, before any
/// read, and at the durability point — and are guaranteed only once the
/// front-end's durability rule says so. The mechanism is the same for
/// every front-end; `C` is what it charges. See the crate docs.
#[derive(Debug, Clone)]
pub struct ByteChannel<C> {
    timings: C,
    lines: Vec<Line>,
    /// Emptied fragment lists of posted lines, for new lines to reuse.
    spare: Vec<Vec<Fragment>>,
    /// Landing instant of the latest posted line, for durability ordering.
    last_land: SimTime,
}

impl<C: FrontEnd> ByteChannel<C> {
    /// Creates a channel with the given timing calibration.
    pub fn new(timings: C) -> Self {
        ByteChannel {
            timings,
            lines: Vec::new(),
            spare: Vec::new(),
            last_land: SimTime::ZERO,
        }
    }

    /// The channel's timing calibration.
    pub fn timings(&self) -> &C {
        &self.timings
    }

    /// Bytes currently host-resident — at risk until the durability point.
    pub fn resident_bytes(&self) -> usize {
        self.lines
            .iter()
            .flat_map(|l| l.fragments.iter())
            .map(|(_, d)| d.len())
            .sum()
    }

    /// Number of host-resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Notes that `posted`, if any, lands at `lands_at`.
    fn record_landing(&mut self, posted: Vec<PostedWrite>, lands_at: SimTime) -> Vec<PostedWrite> {
        if !posted.is_empty() {
            self.last_land = self.last_land.max(lands_at);
        }
        posted
    }

    fn drain_all(&mut self, at: SimTime) -> Vec<PostedWrite> {
        let lands_at = at + self.timings.flight();
        let mut posted = Vec::new();
        for mut line in self.lines.drain(..) {
            line.post(lands_at, &mut posted, &mut self.spare);
        }
        self.record_landing(posted, lands_at)
    }

    /// CPU store of `data` at `offset`: the store retires quickly and its
    /// bytes stay in the line buffer; lingering and capacity-evicted
    /// lines post toward the device (the returned fragments).
    ///
    /// The work is linear in the lines the store touches: the store
    /// touches each of its lines once, so only lines resident before it
    /// are looked up, and a new line that leaves in the same store posts
    /// straight from `data` without ever becoming resident.
    pub fn store(&mut self, now: SimTime, offset: u64, data: &[u8]) -> StoreOutcome {
        let retired_at = now + self.timings.store_cost(data.len() as u64);
        let lands_at = retired_at + self.timings.flight();
        let post_new = |(offset, bytes): (u64, &[u8])| PostedWrite {
            offset,
            data: LineBytes::copy_of(bytes),
            lands_at,
        };
        // Resident lines the store touches take their fragment at the end.
        let end = offset + data.len() as u64;
        let mut touched = Vec::new();
        for l in &mut self.lines {
            let from = (l.line * LINE).max(offset);
            let to = ((l.line + 1) * LINE).min(end);
            if from < to {
                let bytes = &data[(from - offset) as usize..(to - offset) as usize];
                l.fragments.push((from, LineBytes::copy_of(bytes)));
                touched.push(l.line);
            }
        }
        touched.sort_unstable();
        // Every other line the store touches is new, stored at `now`, and
        // behind every resident line.
        let mut new_lines = lines_spanned(offset, data.len() as u64) as usize - touched.len();
        let mut new = split_lines(offset, data)
            .filter(|(at, _)| touched.binary_search(&(at / LINE)).is_err());
        let mut posted = Vec::new();
        // Linger eviction, in resident order: the CPU opportunistically
        // drains old lines. The new lines linger out together, last.
        if let Some(linger) = self.timings.linger() {
            self.lines.retain_mut(|l| {
                let stale = l.first_store_at + linger <= retired_at;
                if stale {
                    l.post(lands_at, &mut posted, &mut self.spare);
                }
                !stale
            });
            if now + linger <= retired_at {
                posted.reserve(new_lines);
                posted.extend(new.by_ref().map(post_new));
                new_lines = 0;
            }
        }
        // Capacity eviction: oldest first, by `(first_store_at, position)`.
        // The new lines come after every resident line stored at or before
        // `now`, in address order. Resident lines stored after `now` (a
        // caller's clock may run backwards) come after them, but they are
        // never evicted: there are no more resident lines than capacity.
        let mut excess =
            (self.lines.len() + new_lines).saturating_sub(self.timings.line_capacity());
        if excess > 0 {
            let mut older: Vec<usize> = (0..self.lines.len())
                .filter(|&i| self.lines[i].first_store_at <= now)
                .collect();
            older.sort_by_key(|&i| self.lines[i].first_store_at);
            for &i in older.iter().take(excess) {
                self.lines[i].post(lands_at, &mut posted, &mut self.spare);
            }
            excess -= excess.min(older.len());
            posted.reserve(excess);
            posted.extend(new.by_ref().take(excess).map(post_new));
            self.lines.retain(|l| !l.fragments.is_empty());
        }
        // The new lines still here stay resident.
        for (at, bytes) in new {
            let mut fragments = self.spare.pop().unwrap_or_default();
            fragments.push((at, LineBytes::copy_of(bytes)));
            self.lines.push(Line {
                line: at / LINE,
                fragments,
                first_store_at: now,
            });
        }
        let posted = self.record_landing(posted, lands_at);
        StoreOutcome { retired_at, posted }
    }

    /// Flushes `lines` lines and fences: every resident fragment is now on
    /// the wire, but *not yet guaranteed*.
    fn flush_lines(&mut self, now: SimTime, lines: u64) -> FlushOutcome {
        let flushed_at = now + self.timings.flush_cost(lines);
        let posted = self.drain_all(flushed_at);
        FlushOutcome { flushed_at, posted }
    }

    fn sync_lines(&mut self, now: SimTime, lines: u64) -> SyncOutcome {
        let flush = self.flush_lines(now, lines);
        SyncOutcome {
            durable_at: self.timings.durable_at(flush.flushed_at, self.last_land),
            posted: flush.posted,
        }
    }

    /// Range-based persistence, as 2B-SSD's `BA_SYNC` actually performs it:
    /// the device cannot know which lines are dirty (paper §III-C), so the
    /// host flushes *every* line the range touches, fences, and waits out
    /// the front-end's durability rule. Every returned fragment lands at
    /// or before `durable_at`.
    pub fn sync_range(&mut self, now: SimTime, offset: u64, len: u64) -> SyncOutcome {
        self.sync_lines(now, lines_spanned(offset, len))
    }

    /// Read of `len` bytes: the line buffer drains first (x86 drains WC
    /// buffers before reading the region; a cache writes dirty lines back
    /// so the device view holds every prior store), then the front-end's
    /// read cost runs.
    pub fn read(&mut self, now: SimTime, len: u64) -> ReadOutcome {
        let posted = self.drain_all(now);
        let start = now.max(self.last_land.min(now + self.timings.flight()));
        let complete_at = start + self.timings.load_cost(len);
        ReadOutcome {
            complete_at,
            posted,
        }
    }

    /// Discards all host-resident data, as a power failure would.
    /// Returns how many bytes were lost.
    pub fn power_loss(&mut self) -> usize {
        let lost = self.resident_bytes();
        self.lines.clear();
        self.last_land = SimTime::ZERO;
        lost
    }

    /// Host-side latency of a persistent write of `len` bytes: store +
    /// [`ByteChannel::sync_range`], with nothing else resident.
    /// Convenience for latency sweeps (paper Fig 7(b) "persistent MMIO").
    pub fn persistent_latency(&self, len: u64) -> SimDuration {
        let mut probe = ByteChannel::new(self.timings);
        let store = probe.store(SimTime::ZERO, 0, &vec![0u8; len as usize]);
        let sync = probe.sync_range(store.retired_at, 0, len);
        sync.durable_at.saturating_since(SimTime::ZERO)
    }
}

/// The MMIO front-end: one CPU's write-combining view of one mapped device
/// window, plus the PCIe transactions it generates — [`ByteChannel`] at
/// [`PcieTimings`] prices. Only here can the two steps of the paper's
/// durability protocol (Fig 3) be taken apart.
pub type HostByteChannel = ByteChannel<PcieTimings>;

impl HostByteChannel {
    /// Bytes currently sitting in WC buffers — at risk until synced.
    pub fn wc_resident_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Number of dirty WC lines.
    pub fn wc_resident_lines(&self) -> usize {
        self.resident_lines()
    }

    /// `clflush` of every dirty line followed by `mfence` — step 1 of the
    /// durability protocol. The fragments are now on the wire but *not yet
    /// guaranteed*: a completion-ordered verify read must follow.
    pub fn flush_wc(&mut self, now: SimTime) -> FlushOutcome {
        self.flush_lines(now, self.lines.len() as u64)
    }

    /// Zero-byte write-verify read — step 2 of the durability protocol.
    /// Because reads are non-posted and cannot pass writes at the root
    /// complex, its completion implies all earlier posted writes committed.
    pub fn verify_read(&mut self, now: SimTime) -> SimTime {
        self.timings.durable_at(now, self.last_land)
    }

    /// The full persistence operation over whatever is dirty: flush +
    /// fence + verify read. This is the host-side cost of `BA_SYNC`
    /// (paper §III-C).
    pub fn sync(&mut self, now: SimTime) -> SyncOutcome {
        self.sync_lines(now, self.lines.len() as u64)
    }

    /// Host-side latency of a persistent write of `len` bytes; see
    /// [`ByteChannel::persistent_latency`].
    pub fn persistent_write_latency(&self, len: u64) -> SimDuration {
        self.persistent_latency(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> HostByteChannel {
        HostByteChannel::new(PcieTimings::default())
    }

    #[test]
    fn small_store_retires_at_base_cost() {
        let mut c = chan();
        let out = c.store(SimTime::ZERO, 0, &[1u8; 8]);
        assert_eq!(out.retired_at, SimTime::from_nanos(630));
        assert!(out.posted.is_empty(), "8 bytes should sit in WC");
        assert_eq!(c.wc_resident_bytes(), 8);
    }

    #[test]
    fn sync_drains_and_guarantees() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[9u8; 100]);
        let sync = c.sync(store.retired_at);
        assert_eq!(c.wc_resident_bytes(), 0);
        let total: usize = sync.posted.iter().map(|p| p.data.len()).sum();
        assert_eq!(total, 100);
        for p in &sync.posted {
            assert!(p.lands_at <= sync.durable_at);
        }
    }

    #[test]
    fn persistent_write_overhead_matches_paper() {
        let c = chan();
        let plain_8 = c.timings().mmio_write(8);
        let pers_8 = c.persistent_write_latency(8);
        let overhead_small = pers_8.as_nanos() as f64 / plain_8.as_nanos() as f64;
        assert!(
            (1.05..1.35).contains(&overhead_small),
            "small persistent overhead {overhead_small:.2}, paper says ~1.15"
        );
        let plain_4k = c.timings().mmio_write(4096);
        let pers_4k = c.persistent_write_latency(4096);
        let overhead_4k = pers_4k.as_nanos() as f64 / plain_4k.as_nanos() as f64;
        assert!(
            (1.3..1.6).contains(&overhead_4k),
            "4K persistent overhead {overhead_4k:.2}, paper says ~1.47"
        );
    }

    #[test]
    fn persistent_4k_write_beats_ull_block_write() {
        // Paper: persistent MMIO at 4 KiB still ~6 us faster than the
        // 10 us ULL-SSD block write.
        let c = chan();
        let pers_4k = c.persistent_write_latency(4096);
        assert!(pers_4k.as_micros_f64() < 4.0, "persistent 4K = {pers_4k}");
    }

    #[test]
    fn capacity_eviction_posts_oldest() {
        let mut c = chan();
        let mut posted = 0usize;
        // Touch more distinct lines than there are WC buffers.
        for i in 0..16u64 {
            let out = c.store(SimTime::from_nanos(i * 10), i * 64, &[i as u8; 8]);
            posted += out.posted.len();
        }
        assert!(posted > 0, "capacity eviction never triggered");
        assert!(c.wc_resident_lines() <= c.timings().wc_buffers);
    }

    #[test]
    fn linger_eviction_posts_stale_lines() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[1u8; 8]);
        // A second store long after the linger window drains the first.
        let out = c.store(SimTime::from_nanos(5_000), 4096, &[2u8; 8]);
        assert!(out
            .posted
            .iter()
            .any(|p| p.offset == 0 && *p.data == [1u8; 8]));
    }

    #[test]
    fn unsynced_bytes_lost_on_power_failure() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[7u8; 48]);
        assert_eq!(c.power_loss(), 48);
        assert_eq!(c.wc_resident_bytes(), 0);
    }

    #[test]
    fn synced_bytes_survive_power_failure() {
        let mut c = chan();
        let store = c.store(SimTime::ZERO, 0, &[7u8; 48]);
        let sync = c.sync(store.retired_at);
        assert!(!sync.posted.is_empty());
        assert_eq!(c.power_loss(), 0, "synced data no longer WC-resident");
    }

    #[test]
    fn read_drains_wc_and_costs_8b_tlps() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[3u8; 16]);
        let read = c.read(SimTime::from_nanos(700), 256);
        assert!(!read.posted.is_empty());
        // 256 bytes = 32 TLPs at 293 ns.
        let cost = read
            .complete_at
            .saturating_since(SimTime::from_nanos(700))
            .as_nanos();
        assert!((293 * 32..293 * 32 + 1000).contains(&cost), "cost {cost}");
    }

    #[test]
    fn store_straddling_lines_splits_fragments() {
        let mut c = chan();
        c.store(SimTime::ZERO, 60, &[1u8; 8]);
        assert_eq!(c.wc_resident_lines(), 2);
        let flush = c.flush_wc(SimTime::from_nanos(700));
        let mut offsets: Vec<u64> = flush.posted.iter().map(|p| p.offset).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![60, 64]);
    }

    #[test]
    fn later_fragments_apply_after_earlier_ones() {
        let mut c = chan();
        c.store(SimTime::ZERO, 0, &[0xAA; 8]);
        c.store(SimTime::ZERO, 4, &[0xBB; 8]);
        let flush = c.flush_wc(SimTime::from_nanos(700));
        // Applying fragments in order must leave 0xBB at bytes 4..12.
        let mut window = [0u8; 16];
        for p in &flush.posted {
            window[p.offset as usize..p.offset as usize + p.data.len()].copy_from_slice(&p.data);
        }
        assert_eq!(&window[0..4], &[0xAA; 4]);
        assert_eq!(&window[4..12], &[0xBB; 8]);
    }
}
