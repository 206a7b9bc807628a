//! NAND timing parameters per flash class.

use serde::{Deserialize, Serialize};
use twob_sim::SimDuration;

/// Calibrated timing for one class of NAND flash.
///
/// A page read costs `t_read` on the die plus a bus transfer; a program
/// costs the transfer plus `t_prog`; an erase occupies the die for `t_erase`.
///
/// # Example
///
/// ```rust
/// use twob_nand::FlashClass;
///
/// let t = FlashClass::LowLatencySlc.timing();
/// // Low-latency SLC reads are single-digit microseconds.
/// assert!(t.t_read.as_micros_f64() <= 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NandTiming {
    /// Array-to-register sense time (tR).
    pub t_read: SimDuration,
    /// Register-to-array program time (tPROG).
    pub t_prog: SimDuration,
    /// Block erase time (tBERS).
    pub t_erase: SimDuration,
    /// Channel bus bandwidth in bytes per second (e.g. 800 MT/s ≈ 800 MB/s
    /// for an 8-bit bus).
    pub bus_bytes_per_sec: u64,
}

impl NandTiming {
    /// Time to move `bytes` over the channel bus.
    pub fn xfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 * 1e9 / self.bus_bytes_per_sec as f64)
    }
}

/// Flash classes used by the reproduction's device profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashClass {
    /// Low-latency single-bit NAND in the Z-NAND mould: ~3 µs reads
    /// (the ULL-SSD comparator and the 2B-SSD prototype both use this;
    /// Table I lists "single-bit NAND flash", and \[58\] reports 3 µs tR).
    LowLatencySlc,
    /// Datacenter TLC 3D V-NAND in the PM963 mould: tens-of-µs reads,
    /// high-hundreds-of-µs programs.
    DatacenterTlc,
}

impl FlashClass {
    /// Returns the calibrated timing constants for this class.
    pub const fn timing(self) -> NandTiming {
        match self {
            FlashClass::LowLatencySlc => NandTiming {
                t_read: SimDuration::from_micros(3),
                t_prog: SimDuration::from_micros(100),
                t_erase: SimDuration::from_millis(1),
                bus_bytes_per_sec: 1_200_000_000,
            },
            FlashClass::DatacenterTlc => NandTiming {
                t_read: SimDuration::from_micros(65),
                t_prog: SimDuration::from_micros(700),
                t_erase: SimDuration::from_millis(4),
                bus_bytes_per_sec: 800_000_000,
            },
        }
    }
}

/// The die-time and channel-time components of one NAND operation.
///
/// The SSD layer schedules the two components on different resources: the
/// die time occupies the die, the transfer occupies the shared channel bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimingBreakdown {
    /// Time the die is busy (sense, program, or erase).
    pub die_time: SimDuration,
    /// Time the channel bus is busy moving data.
    pub xfer_time: SimDuration,
}

impl TimingBreakdown {
    /// Sum of both components — the latency when die and bus are both idle.
    pub fn total(&self) -> SimDuration {
        self.die_time + self.xfer_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_is_faster_than_tlc_everywhere() {
        let slc = FlashClass::LowLatencySlc.timing();
        let tlc = FlashClass::DatacenterTlc.timing();
        assert!(slc.t_read < tlc.t_read);
        assert!(slc.t_prog < tlc.t_prog);
        assert!(slc.t_erase < tlc.t_erase);
    }

    #[test]
    fn program_dwarfs_read_asymmetry() {
        // The paper leans on the read/write asymmetry of NAND (§IV-A).
        for class in [FlashClass::LowLatencySlc, FlashClass::DatacenterTlc] {
            let t = class.timing();
            assert!(t.t_prog.as_nanos() >= 10 * t.t_read.as_nanos());
        }
    }

    #[test]
    fn xfer_scales_linearly() {
        let t = FlashClass::LowLatencySlc.timing();
        let one = t.xfer(4096);
        let two = t.xfer(8192);
        // Within rounding of the per-byte nanosecond conversion.
        assert!(two.as_nanos().abs_diff(one.as_nanos() * 2) <= 1);
    }

    #[test]
    fn breakdown_total() {
        let b = TimingBreakdown {
            die_time: SimDuration::from_micros(3),
            xfer_time: SimDuration::from_micros(4),
        };
        assert_eq!(b.total(), SimDuration::from_micros(7));
    }
}
