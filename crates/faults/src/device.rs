//! The flush-faulting block device wrapper.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{BlockDevice, BlockRead, SsdError};

use crate::plan::FlushFault;

#[derive(Debug, Default)]
struct FlushFaultState {
    queue: VecDeque<FlushFault>,
    flushes: u64,
    dropped: u64,
    duplicated: u64,
}

/// A shared handle onto the flush-fault queue of a [`FaultyLogDevice`].
///
/// The harness keeps one clone to arm faults mid-run while the device (and
/// the WAL that owns it) holds the other.
#[derive(Debug, Clone, Default)]
pub struct FlushFaults(Rc<RefCell<FlushFaultState>>);

impl FlushFaults {
    /// Creates an empty fault queue.
    pub fn new() -> Self {
        FlushFaults::default()
    }

    /// Arms `fault` for the next host-issued flush.
    pub fn arm(&self, fault: FlushFault) {
        self.0.borrow_mut().queue.push_back(fault);
    }

    /// Total flush commands the device received.
    pub fn flushes(&self) -> u64 {
        self.0.borrow().flushes
    }

    /// Flush completions fabricated without draining the cache.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Flush commands executed twice.
    pub fn duplicated(&self) -> u64 {
        self.0.borrow().duplicated
    }
}

/// A [`BlockDevice`] wrapper that injects faults into the flush path while
/// passing reads and writes through untouched.
///
/// A `Drop` fault acknowledges the flush immediately without forwarding it —
/// the lying-device failure mode. A `Duplicate` fault forwards the flush
/// twice. On a capacitor-backed cache both must be harmless (the cache never
/// loses data on power cuts), which is exactly the invariant the sweep
/// verifies; on a volatile cache a dropped flush makes the following power
/// cut tear off unflushed pages.
#[derive(Debug)]
pub struct FaultyLogDevice<D: BlockDevice> {
    inner: D,
    faults: FlushFaults,
}

impl<D: BlockDevice> FaultyLogDevice<D> {
    /// Wraps `inner`, returning the device and the harness-side fault handle.
    pub fn new(inner: D) -> (Self, FlushFaults) {
        let faults = FlushFaults::new();
        let dev = FaultyLogDevice {
            inner,
            faults: faults.clone(),
        };
        (dev, faults)
    }

    /// The wrapped device, mutably (for power cuts and recovery reads).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }
}

impl<D: BlockDevice> BlockDevice for FaultyLogDevice<D> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read_pages(&mut self, now: SimTime, lba: Lba, pages: u32) -> Result<BlockRead, SsdError> {
        self.inner.read_pages(now, lba, pages)
    }

    fn write_pages(&mut self, now: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime, SsdError> {
        self.inner.write_pages(now, lba, data)
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        let fault = {
            let mut st = self.faults.0.borrow_mut();
            st.flushes += 1;
            st.queue.pop_front()
        };
        match fault {
            Some(FlushFault::Drop) => {
                self.faults.0.borrow_mut().dropped += 1;
                now
            }
            Some(FlushFault::Duplicate) => {
                self.faults.0.borrow_mut().duplicated += 1;
                let first = self.inner.flush(now);
                self.inner.flush(first)
            }
            None => self.inner.flush(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_ssd::{Ssd, SsdConfig};

    fn small_dev() -> Ssd {
        Ssd::new(SsdConfig::dc_ssd().small())
    }

    #[test]
    fn dropped_flush_acks_without_forwarding() {
        let (mut dev, faults) = FaultyLogDevice::new(small_dev());
        faults.arm(FlushFault::Drop);
        let t = SimTime::from_nanos(10);
        // A dropped flush completes instantly — no device time elapses.
        assert_eq!(dev.flush(t), t);
        assert_eq!(faults.dropped(), 1);
        // The next flush is honest again.
        assert!(dev.flush(t) >= t);
        assert_eq!(faults.flushes(), 2);
    }

    #[test]
    fn duplicated_flush_forwards_twice() {
        let (mut dev, faults) = FaultyLogDevice::new(small_dev());
        faults.arm(FlushFault::Duplicate);
        let _ = dev.flush(SimTime::ZERO);
        assert_eq!(faults.duplicated(), 1);
        assert_eq!(faults.flushes(), 1);
    }
}
