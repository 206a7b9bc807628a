//! The BA-buffer: capacitor-backed device DRAM with landing-time tracking.

use twob_pcie::{LineBytes, PostedWrite};
use twob_sim::SimTime;

/// The byte-addressable buffer carved out of the SSD-internal DRAM.
///
/// Bytes are applied eagerly when posted writes arrive from the host
/// channel, but each fragment's *landing instant* is remembered so a power
/// failure can roll back fragments that were still in flight on the PCIe
/// fabric — the exact at-risk window of the paper's durability protocol
/// (Fig 3, step 2).
///
/// # Example
///
/// ```rust
/// use twob_core::BaBuffer;
/// use twob_pcie::{LineBytes, PostedWrite};
/// use twob_sim::SimTime;
///
/// let mut buf = BaBuffer::new(4096);
/// buf.apply_posted(&PostedWrite {
///     offset: 0,
///     data: LineBytes::new(b"hello").unwrap(),
///     lands_at: SimTime::from_nanos(500),
/// });
/// assert_eq!(buf.read(0, 5), b"hello");
/// // Power dies before the fragment landed: it is rolled back.
/// buf.power_loss(SimTime::from_nanos(100));
/// assert_eq!(buf.read(0, 5), &[0u8; 5]);
/// ```
#[derive(Debug, Clone)]
pub struct BaBuffer {
    bytes: Vec<u8>,
    /// `(lands_at, offset, previous bytes)` for in-flight fragments; a
    /// fragment is at most a line, so the old bytes are held inline.
    inflight: Vec<(SimTime, u64, LineBytes)>,
}

impl BaBuffer {
    /// Creates a zeroed buffer of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BaBuffer {
            bytes: vec![0; capacity as usize],
            inflight: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Applies one posted fragment, remembering what it replaced until it
    /// lands.
    ///
    /// # Panics
    ///
    /// Panics if the fragment exceeds the buffer.
    pub fn apply_posted(&mut self, p: &PostedWrite) {
        let start = p.offset as usize;
        let end = start + p.data.len();
        assert!(end <= self.bytes.len(), "posted write beyond BA-buffer");
        let mut old = p.data;
        old.copy_from_slice(&self.bytes[start..end]);
        self.inflight.push((p.lands_at, p.offset, old));
        self.bytes[start..end].copy_from_slice(&p.data);
    }

    /// Writes bytes directly (device-side paths: `BA_PIN` fills, recovery
    /// restore). No landing tracking — these are already on the device.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn write_direct(&mut self, offset: u64, data: &[u8]) {
        let start = offset as usize;
        let end = start + data.len();
        assert!(end <= self.bytes.len(), "direct write beyond BA-buffer");
        self.bytes[start..end].copy_from_slice(data);
    }

    /// Reads a byte range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn read(&self, offset: u64, len: u64) -> &[u8] {
        let start = offset as usize;
        let end = start + len as usize;
        assert!(end <= self.bytes.len(), "read beyond BA-buffer");
        &self.bytes[start..end]
    }

    /// Forgets rollback data for fragments that have landed by `now`.
    pub fn settle(&mut self, now: SimTime) {
        self.inflight.retain(|(lands_at, _, _)| *lands_at > now);
    }

    /// Bytes still in flight (not yet landed) — at risk on power failure.
    pub fn inflight_bytes(&self) -> usize {
        self.inflight.iter().map(|(_, _, old)| old.len()).sum()
    }

    /// Rolls back every fragment that had not landed by `at`, returning how
    /// many bytes were lost.
    ///
    /// Fragments are unwound in reverse *apply* order, not landing order:
    /// PCIe posted writes are FIFO, so apply order is the order the bytes
    /// hit device DRAM, and each saved `old` snapshot is only valid once
    /// every later-applied overlapping fragment has been undone first.
    /// (Sorting by landing instant gives the same result while landings are
    /// monotonic in apply order, but ties and fault-injected reorderings
    /// would unwind overlapping writes in the wrong order.)
    pub fn power_loss(&mut self, at: SimTime) -> usize {
        let mut lost = 0;
        for (lands_at, offset, old) in self.inflight.drain(..).rev() {
            if lands_at > at {
                lost += old.len();
                let start = offset as usize;
                self.bytes[start..start + old.len()].copy_from_slice(&old);
            }
        }
        lost
    }

    /// A snapshot of the whole buffer (for the recovery dump).
    pub fn snapshot(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces the whole buffer contents (recovery restore).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly the buffer's capacity.
    pub fn restore(&mut self, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.bytes.len(),
            "restore length must match capacity"
        );
        self.bytes.copy_from_slice(data);
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posted(offset: u64, data: &[u8], lands_ns: u64) -> PostedWrite {
        PostedWrite {
            offset,
            data: LineBytes::new(data).expect("a fragment fits a line"),
            lands_at: SimTime::from_nanos(lands_ns),
        }
    }

    #[test]
    fn landed_fragments_survive_power_loss() {
        let mut buf = BaBuffer::new(1024);
        buf.apply_posted(&posted(0, b"safe", 100));
        let lost = buf.power_loss(SimTime::from_nanos(200));
        assert_eq!(lost, 0);
        assert_eq!(buf.read(0, 4), b"safe");
    }

    #[test]
    fn unlanded_fragments_roll_back() {
        let mut buf = BaBuffer::new(1024);
        buf.apply_posted(&posted(0, b"one!", 100));
        buf.apply_posted(&posted(0, b"two!", 300));
        // Power dies between the two landings.
        let lost = buf.power_loss(SimTime::from_nanos(200));
        assert_eq!(lost, 4);
        assert_eq!(buf.read(0, 4), b"one!");
    }

    #[test]
    fn nested_overwrites_unwind_in_order() {
        let mut buf = BaBuffer::new(64);
        buf.apply_posted(&posted(0, b"AAAA", 500));
        buf.apply_posted(&posted(2, b"BB", 600));
        buf.power_loss(SimTime::from_nanos(100));
        assert_eq!(buf.read(0, 4), &[0u8; 4]);
    }

    #[test]
    fn settle_caps_rollback_history() {
        let mut buf = BaBuffer::new(64);
        buf.apply_posted(&posted(0, b"x", 100));
        buf.apply_posted(&posted(1, b"y", 900));
        buf.settle(SimTime::from_nanos(500));
        assert_eq!(buf.inflight_bytes(), 1);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut buf = BaBuffer::new(16);
        buf.write_direct(0, &[7u8; 16]);
        let snap = buf.snapshot().to_vec();
        let mut other = BaBuffer::new(16);
        other.restore(&snap);
        assert_eq!(other.read(0, 16), &[7u8; 16]);
    }

    #[test]
    #[should_panic(expected = "beyond BA-buffer")]
    fn oversized_write_panics() {
        let mut buf = BaBuffer::new(8);
        buf.write_direct(4, &[0u8; 8]);
    }
}
